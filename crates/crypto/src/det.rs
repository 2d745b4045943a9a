//! **DET** — deterministic encryption via a synthetic IV (SIV) construction.
//!
//! `IV = HMAC(K_mac, plaintext)` truncated to 12 bytes, then
//! `body = CTR(K_enc, IV, plaintext)`; the ciphertext is `IV || body`.
//! Equal plaintexts therefore map to byte-identical ciphertexts — exactly the
//! property the token/structural equivalence notions need — and the IV doubles
//! as an integrity tag checked at decryption.
//!
//! The scheme keeps `K_mac` as an `HmacKey`, whose padded key blocks are
//! absorbed once when the scheme is built, so the per-plaintext SIV costs
//! the plaintext's SHA-256 blocks plus one outer block.

use crate::aes::Aes;
use crate::ctr::ctr_xor;
use crate::error::CryptoError;
use crate::hmac::HmacKey;
use crate::keys::SymmetricKey;
use crate::scheme::{Ciphertext, EncryptionClass, SymmetricScheme};
use rand::RngCore;

/// Deterministic SIV-style scheme. Ciphertext framing: `siv (12) || body`.
#[derive(Clone)]
pub struct DetScheme {
    aes: Aes,
    mac: HmacKey,
    class: EncryptionClass,
}

impl DetScheme {
    /// Builds a DET scheme; encryption and MAC subkeys are derived from
    /// `key` with fixed labels.
    pub fn new(key: &SymmetricKey) -> Self {
        Self::with_class(key, EncryptionClass::Det)
    }

    /// Internal constructor allowing the JOIN usage mode to relabel the
    /// class while reusing the construction.
    pub(crate) fn with_class(key: &SymmetricKey, class: EncryptionClass) -> Self {
        let derive = HmacKey::new(key.as_bytes());
        DetScheme {
            aes: Aes::new_256(&derive.mac(b"det-enc")),
            mac: HmacKey::new(&derive.mac(b"det-mac")),
            class,
        }
    }

    fn siv(&self, plaintext: &[u8]) -> [u8; 12] {
        self.mac.mac(plaintext)[..12].try_into().unwrap()
    }
}

impl SymmetricScheme for DetScheme {
    fn encrypt(&self, plaintext: &[u8], _rng: &mut dyn RngCore) -> Ciphertext {
        let siv = self.siv(plaintext);
        let mut out = Vec::with_capacity(12 + plaintext.len());
        out.extend_from_slice(&siv);
        out.extend_from_slice(plaintext);
        ctr_xor(&self.aes, &siv, &mut out[12..]);
        Ciphertext(out)
    }

    fn decrypt(&self, ciphertext: &Ciphertext) -> Result<Vec<u8>, CryptoError> {
        let bytes = ciphertext.as_bytes();
        if bytes.len() < 12 {
            return Err(CryptoError::CiphertextTooShort {
                expected_at_least: 12,
                got: bytes.len(),
            });
        }
        let siv: [u8; 12] = bytes[..12].try_into().unwrap();
        let mut body = bytes[12..].to_vec();
        ctr_xor(&self.aes, &siv, &mut body);
        if self.siv(&body) != siv {
            return Err(CryptoError::IntegrityCheckFailed);
        }
        Ok(body)
    }

    fn class(&self) -> EncryptionClass {
        self.class
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (DetScheme, StdRng) {
        (
            DetScheme::new(&SymmetricKey::from_bytes([8; 32])),
            StdRng::seed_from_u64(2),
        )
    }

    #[test]
    fn deterministic() {
        // The defining DET property: Enc(x) == Enc(x).
        let (scheme, mut rng) = setup();
        let a = scheme.encrypt(b"photoobj", &mut rng);
        let b = scheme.encrypt(b"photoobj", &mut rng);
        assert_eq!(a, b);
    }

    #[test]
    fn injective_on_distinct_inputs() {
        let (scheme, mut rng) = setup();
        assert_ne!(
            scheme.encrypt(b"ra", &mut rng),
            scheme.encrypt(b"dec", &mut rng)
        );
    }

    #[test]
    fn roundtrip() {
        let (scheme, mut rng) = setup();
        for msg in [
            &b""[..],
            b"x",
            b"a considerably longer attribute value 123.456",
        ] {
            let ct = scheme.encrypt(msg, &mut rng);
            assert_eq!(scheme.decrypt(&ct).unwrap(), msg);
        }
    }

    #[test]
    fn tampered_ciphertext_detected() {
        let (scheme, mut rng) = setup();
        let mut ct = scheme.encrypt(b"specobj", &mut rng);
        let last = ct.0.len() - 1;
        ct.0[last] ^= 1;
        assert_eq!(
            scheme.decrypt(&ct).unwrap_err(),
            CryptoError::IntegrityCheckFailed
        );
    }

    #[test]
    fn wrong_key_detected() {
        let (scheme, mut rng) = setup();
        let other = DetScheme::new(&SymmetricKey::from_bytes([9; 32]));
        let ct = scheme.encrypt(b"neighbors", &mut rng);
        assert_eq!(
            other.decrypt(&ct).unwrap_err(),
            CryptoError::IntegrityCheckFailed
        );
    }

    #[test]
    fn class_is_det() {
        let (scheme, _) = setup();
        assert_eq!(scheme.class(), EncryptionClass::Det);
        assert!(scheme.class().preserves_equality());
    }

    #[test]
    fn no_order_leakage_smoke() {
        // DET must not preserve numeric order: encrypt 0..32 and check the
        // ciphertext ordering is not the identity permutation.
        let (scheme, mut rng) = setup();
        let cts: Vec<_> = (0u32..32)
            .map(|v| scheme.encrypt(&v.to_be_bytes(), &mut rng))
            .collect();
        let mut sorted = cts.clone();
        sorted.sort();
        assert_ne!(cts, sorted, "DET leaking order would collapse to OPE");
    }
}
