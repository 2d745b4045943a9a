//! The property-preserving encryption class model (the paper's Fig. 1) and
//! the common trait implemented by every byte-oriented scheme.

use crate::error::CryptoError;
use rand::RngCore;
use std::fmt;

/// The property-preserving encryption classes of Fig. 1.
///
/// The derived order of declaration is irrelevant; the *security* order is
/// given by [`EncryptionClass::security_level`] and the subclass edges by
/// [`EncryptionClass::parents`]. Classes in the same level are incomparable
/// ("for classes in the same row, a security ranking is not possible").
// The clippy.toml ban on `PartialOrd::partial_cmp` targets NaN-prone
// float sorts; this derive expands to field-wise partial_cmp over
// non-float fields, which cannot hit the NaN pitfall.
#[allow(clippy::disallowed_methods)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EncryptionClass {
    /// Probabilistic encryption: equal plaintexts map to different
    /// ciphertexts (randomized AES is an instance).
    Prob,
    /// Homomorphic encryption (Paillier): probabilistic, supports sums over
    /// ciphertexts.
    Hom,
    /// Deterministic encryption: equal plaintexts map to equal ciphertexts.
    Det,
    /// Order-preserving encryption: deterministic and order-preserving.
    Ope,
    /// JOIN usage mode of DET: one key shared across join-compatible columns.
    Join,
    /// JOIN usage mode of OPE (range joins over encrypted data).
    JoinOpe,
}

impl EncryptionClass {
    /// All classes, most secure first.
    pub const ALL: [EncryptionClass; 6] = [
        EncryptionClass::Prob,
        EncryptionClass::Hom,
        EncryptionClass::Det,
        EncryptionClass::Ope,
        EncryptionClass::Join,
        EncryptionClass::JoinOpe,
    ];

    /// The security row in Fig. 1; higher is better. PROB is alone at the
    /// top; HOM and DET share a row; OPE and JOIN share a row; JOIN-OPE is
    /// at the bottom.
    pub fn security_level(self) -> u8 {
        match self {
            EncryptionClass::Prob => 3,
            EncryptionClass::Hom | EncryptionClass::Det => 2,
            EncryptionClass::Ope | EncryptionClass::Join => 1,
            EncryptionClass::JoinOpe => 0,
        }
    }

    /// Direct superclasses (the `→: subclass` arrows of Fig. 1, reversed).
    pub fn parents(self) -> &'static [EncryptionClass] {
        match self {
            EncryptionClass::Prob => &[],
            EncryptionClass::Hom => &[EncryptionClass::Prob],
            EncryptionClass::Det => &[],
            EncryptionClass::Ope => &[EncryptionClass::Det],
            EncryptionClass::Join => &[EncryptionClass::Det],
            EncryptionClass::JoinOpe => &[EncryptionClass::Ope, EncryptionClass::Join],
        }
    }

    /// `true` iff `self` is `other` or a (transitive) subclass of it.
    pub fn is_subclass_of(self, other: EncryptionClass) -> bool {
        if self == other {
            return true;
        }
        self.parents().iter().any(|p| p.is_subclass_of(other))
    }

    /// Whether two equal plaintexts always produce equal ciphertexts.
    pub fn preserves_equality(self) -> bool {
        self.is_subclass_of(EncryptionClass::Det)
    }

    /// Whether plaintext order is visible on ciphertexts.
    pub fn preserves_order(self) -> bool {
        self.is_subclass_of(EncryptionClass::Ope) || self == EncryptionClass::JoinOpe
    }

    /// Whether arithmetic aggregates (sums) can be computed over ciphertexts.
    pub fn supports_aggregation(self) -> bool {
        self == EncryptionClass::Hom
    }

    /// Whether equi-joins across columns are possible on ciphertexts.
    pub fn supports_join(self) -> bool {
        matches!(self, EncryptionClass::Join | EncryptionClass::JoinOpe)
    }

    /// Short uppercase name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            EncryptionClass::Prob => "PROB",
            EncryptionClass::Hom => "HOM",
            EncryptionClass::Det => "DET",
            EncryptionClass::Ope => "OPE",
            EncryptionClass::Join => "JOIN",
            EncryptionClass::JoinOpe => "JOIN-OPE",
        }
    }
}

impl fmt::Display for EncryptionClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An opaque byte ciphertext.
///
/// `Eq`/`Hash`/`Ord` are structural over the bytes: for DET schemes this is
/// exactly the equality the encrypted mining pipeline exploits.
// The clippy.toml ban on `PartialOrd::partial_cmp` targets NaN-prone
// float sorts; this derive expands to field-wise partial_cmp over
// non-float fields, which cannot hit the NaN pitfall.
#[allow(clippy::disallowed_methods)]
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ciphertext(pub Vec<u8>);

impl Ciphertext {
    /// Raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` iff empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Hex rendering (used when ciphertexts stand in for identifiers in
    /// encrypted SQL text).
    pub fn to_hex(&self) -> String {
        let mut out = String::with_capacity(2 * self.len());
        self.push_hex(&mut out);
        out
    }

    /// Appends the [`Ciphertext::to_hex`] rendering to `out`: two
    /// lowercase hex digits per byte, read from a 16-entry table.
    pub fn push_hex(&self, out: &mut String) {
        out.reserve(2 * self.len());
        for &b in &self.0 {
            out.push(char::from(HEX_DIGITS[usize::from(b >> 4)]));
            out.push(char::from(HEX_DIGITS[usize::from(b & 0x0f)]));
        }
    }
}

/// The lowercase hex digits, indexed by nibble value.
const HEX_DIGITS: [u8; 16] = *b"0123456789abcdef";

impl fmt::Debug for Ciphertext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ciphertext({})", self.to_hex())
    }
}

/// Common interface of the byte-oriented symmetric schemes (PROB, DET, JOIN).
///
/// OPE and HOM have value-typed interfaces of their own (`dpe-ope`,
/// `dpe-paillier`); the KIT-DPE layer bridges them.
pub trait SymmetricScheme {
    /// Encrypts `plaintext`. Probabilistic schemes draw randomness from
    /// `rng`; deterministic schemes ignore it.
    fn encrypt(&self, plaintext: &[u8], rng: &mut dyn RngCore) -> Ciphertext;

    /// Recovers the plaintext.
    fn decrypt(&self, ciphertext: &Ciphertext) -> Result<Vec<u8>, CryptoError>;

    /// The class this scheme instantiates.
    fn class(&self) -> EncryptionClass;

    /// Encrypts many plaintexts in submission order — the streaming-ingest
    /// entry point. The default implementation loops [`SymmetricScheme::encrypt`]
    /// (and is therefore bit-identical to it); schemes with amortizable
    /// per-call setup may override it, as the value-typed Paillier engine
    /// does in `dpe-paillier::batch`.
    fn encrypt_batch(&self, plaintexts: &[&[u8]], rng: &mut dyn RngCore) -> Vec<Ciphertext> {
        plaintexts.iter().map(|p| self.encrypt(p, rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn security_levels_match_figure_1() {
        use EncryptionClass::*;
        assert_eq!(Prob.security_level(), 3);
        assert_eq!(Hom.security_level(), 2);
        assert_eq!(Det.security_level(), 2);
        assert_eq!(Ope.security_level(), 1);
        assert_eq!(Join.security_level(), 1);
        assert_eq!(JoinOpe.security_level(), 0);
    }

    #[test]
    fn subclass_closure() {
        use EncryptionClass::*;
        assert!(Hom.is_subclass_of(Prob));
        assert!(Ope.is_subclass_of(Det));
        assert!(Join.is_subclass_of(Det));
        assert!(JoinOpe.is_subclass_of(Det)); // via OPE or JOIN
        assert!(JoinOpe.is_subclass_of(Ope));
        assert!(!Det.is_subclass_of(Prob));
        assert!(!Prob.is_subclass_of(Det));
        assert!(Prob.is_subclass_of(Prob));
    }

    #[test]
    fn property_flags() {
        use EncryptionClass::*;
        assert!(!Prob.preserves_equality());
        assert!(!Hom.preserves_equality());
        assert!(Det.preserves_equality());
        assert!(Ope.preserves_equality() && Ope.preserves_order());
        assert!(!Det.preserves_order());
        assert!(Hom.supports_aggregation());
        assert!(!Det.supports_aggregation());
        assert!(Join.supports_join() && JoinOpe.supports_join());
        assert!(!Ope.supports_join());
    }

    #[test]
    fn subclasses_never_gain_security() {
        // Walking down any subclass edge must not increase the level —
        // the taxonomy's "less security" axis.
        for class in EncryptionClass::ALL {
            for parent in class.parents() {
                assert!(class.security_level() <= parent.security_level());
            }
        }
    }

    #[test]
    fn batch_encryption_matches_sequential_for_every_class() {
        use crate::kdf::SlotLabel;
        use crate::{DetScheme, JoinGroup, MasterKey, ProbScheme};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let master = MasterKey::from_bytes([7; 32]);
        let plaintexts: Vec<&[u8]> = vec![b"alpha", b"", b"SELECT ra FROM photoobj"];
        let det = DetScheme::new(&SlotLabel::Constant("t").derive(&master));
        let prob = ProbScheme::new(&SlotLabel::Constant("t").derive(&master));
        let join = JoinGroup::new(&master, "t");
        let schemes: Vec<&dyn SymmetricScheme> = vec![&det, &prob, join.scheme()];
        for scheme in schemes {
            let batched = scheme.encrypt_batch(&plaintexts, &mut StdRng::seed_from_u64(1));
            let mut rng = StdRng::seed_from_u64(1);
            let sequential: Vec<Ciphertext> = plaintexts
                .iter()
                .map(|p| scheme.encrypt(p, &mut rng))
                .collect();
            assert_eq!(batched, sequential, "{}", scheme.class());
            for (p, ct) in plaintexts.iter().zip(&batched) {
                assert_eq!(&scheme.decrypt(ct).unwrap(), p, "{}", scheme.class());
            }
        }
    }

    #[test]
    fn ciphertext_hex() {
        let ct = Ciphertext(vec![0xde, 0xad, 0x01]);
        assert_eq!(ct.to_hex(), "dead01");
        assert_eq!(ct.len(), 3);
        assert!(!ct.is_empty());
    }

    #[test]
    fn table_hex_matches_format_for_every_byte() {
        let every = Ciphertext((0..=u8::MAX).collect());
        let formatted: String = every.0.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(every.to_hex(), formatted);
        assert_eq!(Ciphertext(Vec::new()).to_hex(), "");
        let mut appended = String::from("x");
        every.push_hex(&mut appended);
        assert_eq!(appended, format!("x{formatted}"));
    }
}
