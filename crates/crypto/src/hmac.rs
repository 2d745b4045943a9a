//! HMAC-SHA256 (RFC 2104), validated against the RFC 4231 test vectors.
//!
//! `HMAC(K, m) = H((K' ^ opad) || H((K' ^ ipad) || m))`, where `K'` is the
//! key padded (or first hashed) to one 64-byte block. The two padded key
//! blocks depend on the key alone, so an `HmacKey` absorbs them once and
//! keeps the two SHA-256 states; each MAC then starts from copies of those
//! states and costs the message's blocks plus one outer block, instead of
//! two extra compressions per call. [`hmac_sha256`] is the one-shot form
//! through a throwaway `HmacKey`.

use crate::sha256::{sha256, Sha256};

const BLOCK_LEN: usize = 64;

/// An HMAC-SHA256 key with its inner and outer padded blocks already
/// absorbed. Holds key material: no `Debug`.
#[derive(Clone)]
pub(crate) struct HmacKey {
    /// SHA-256 state after `K' ^ ipad`.
    inner: Sha256,
    /// SHA-256 state after `K' ^ opad`.
    outer: Sha256,
}

impl HmacKey {
    /// Pads `key` to one block (hashing it first when it is longer than a
    /// block) and absorbs the two padded blocks.
    pub(crate) fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            key_block[..32].copy_from_slice(&sha256(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let absorb = |pad: u8| {
            let mut h = Sha256::new();
            h.update(&key_block.map(|b| b ^ pad));
            h
        };
        HmacKey {
            inner: absorb(0x36),
            outer: absorb(0x5c),
        }
    }

    /// `HMAC-SHA256(key, message)`.
    pub(crate) fn mac(&self, message: &[u8]) -> [u8; 32] {
        let mut inner = self.inner.clone();
        inner.update(message);
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

/// Computes `HMAC-SHA256(key, message)`.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    HmacKey::new(key).mac(message)
}

/// Constant-shape comparison of two MACs (length + bytes folded into one
/// accumulator). Good enough for a research artifact.
pub fn verify_hmac(key: &[u8], message: &[u8], tag: &[u8]) -> bool {
    let expect = hmac_sha256(key, message);
    if tag.len() != expect.len() {
        return false;
    }
    tag.iter()
        .zip(expect.iter())
        .fold(0u8, |acc, (a, b)| acc | (a ^ b))
        == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        assert_eq!(
            hex(&hmac_sha256(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        assert_eq!(
            hex(&hmac_sha256(&key, &data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        assert_eq!(
            hex(&hmac_sha256(
                &key,
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let tag = hmac_sha256(b"k", b"m");
        assert!(verify_hmac(b"k", b"m", &tag));
        assert!(!verify_hmac(b"k", b"m2", &tag));
        assert!(!verify_hmac(b"k2", b"m", &tag));
        assert!(!verify_hmac(b"k", b"m", &tag[..16]));
    }

    /// The per-call construction `hmac_sha256` used before the padded key
    /// blocks were absorbed once per key.
    fn hmac_rebuilding_pads(key: &[u8], message: &[u8]) -> [u8; 32] {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            key_block[..32].copy_from_slice(&sha256(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha256::new();
        let ipad: Vec<u8> = key_block.iter().map(|b| b ^ 0x36).collect();
        inner.update(&ipad);
        inner.update(message);
        let inner_digest = inner.finalize();
        let mut outer = Sha256::new();
        let opad: Vec<u8> = key_block.iter().map(|b| b ^ 0x5c).collect();
        outer.update(&opad);
        outer.update(&inner_digest);
        outer.finalize()
    }

    #[test]
    fn absorbed_pads_match_rebuilt_pads() {
        let bytes: Vec<u8> = (0..=255u8).map(|i| i.wrapping_mul(73) ^ 0x3c).collect();
        for key_len in [0usize, 1, 32, 63, 64, 65, 131] {
            let key: Vec<u8> = bytes.iter().cycle().take(key_len).copied().collect();
            // One key, many messages: the absorbed states must not drift.
            let hmac_key = HmacKey::new(&key);
            for msg_len in 0..=130 {
                let message = &bytes[key_len % 7..key_len % 7 + msg_len];
                let expect = hmac_rebuilding_pads(&key, message);
                assert_eq!(
                    hmac_key.mac(message),
                    expect,
                    "key {key_len}, msg {msg_len}"
                );
                assert_eq!(
                    hmac_sha256(&key, message),
                    expect,
                    "key {key_len}, msg {msg_len}"
                );
            }
        }
    }

    #[test]
    fn keyed_separation() {
        assert_ne!(hmac_sha256(b"key-a", b"msg"), hmac_sha256(b"key-b", b"msg"));
    }
}
