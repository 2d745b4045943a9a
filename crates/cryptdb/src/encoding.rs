//! Canonical byte encoding of plaintext values and hex identifiers.
//!
//! DET/RND schemes operate on bytes; values are encoded with a one-byte type
//! tag so `Int(1)` and `Str("1")` can never collide. Encrypted identifiers
//! and ciphertext-bearing string cells are rendered as lowercase hex with a
//! leading letter so they lex as SQL identifiers.

use dpe_crypto::Ciphertext;
use dpe_minidb::Value;

/// Encodes a value for symmetric encryption.
pub fn encode_value(v: &Value) -> Vec<u8> {
    match v {
        Value::Int(i) => {
            let mut out = Vec::with_capacity(9);
            out.push(b'i');
            out.extend_from_slice(&i.to_be_bytes());
            out
        }
        Value::Str(s) => {
            let mut out = Vec::with_capacity(1 + s.len());
            out.push(b's');
            out.extend_from_slice(s.as_bytes());
            out
        }
        Value::Null => vec![b'n'],
    }
}

/// Decodes bytes produced by [`encode_value`].
pub fn decode_value(bytes: &[u8]) -> Option<Value> {
    match bytes.split_first()? {
        (b'i', rest) => Some(Value::Int(i64::from_be_bytes(rest.try_into().ok()?))),
        (b's', rest) => Some(Value::Str(String::from_utf8(rest.to_vec()).ok()?)),
        (b'n', []) => Some(Value::Null),
        _ => None,
    }
}

/// Renders a ciphertext as an identifier-safe token: `x` + lowercase hex.
pub fn ident_hex(ct: &Ciphertext) -> String {
    let mut out = String::with_capacity(1 + 2 * ct.len());
    out.push('x');
    ct.push_hex(&mut out);
    out
}

/// Parses an [`ident_hex`] token back into ciphertext bytes: `None` when
/// the `x` prefix is missing, the digit count is odd, or any byte after
/// the prefix is not a hex digit (non-ASCII input included). Digits are
/// read per byte, in either case.
pub fn parse_ident_hex(s: &str) -> Option<Ciphertext> {
    let hex = s.strip_prefix('x')?.as_bytes();
    if hex.len() % 2 != 0 {
        return None;
    }
    let nibble = |b: u8| char::from(b).to_digit(16);
    hex.chunks_exact(2)
        .map(|pair| Some((nibble(pair[0])? << 4 | nibble(pair[1])?) as u8))
        .collect::<Option<Vec<u8>>>()
        .map(Ciphertext)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_roundtrips() {
        for v in [
            Value::Int(0),
            Value::Int(-42),
            Value::Int(i64::MAX),
            Value::Str("αβ".into()),
            Value::Str(String::new()),
            Value::Null,
        ] {
            assert_eq!(decode_value(&encode_value(&v)), Some(v));
        }
    }

    #[test]
    fn tags_prevent_cross_type_collisions() {
        assert_ne!(
            encode_value(&Value::Int(49)),
            encode_value(&Value::Str("1".into()))
        );
    }

    #[test]
    fn malformed_bytes_rejected() {
        assert_eq!(decode_value(&[]), None);
        assert_eq!(decode_value(&[b'i', 0, 0]), None); // short int
        assert_eq!(decode_value(&[b'q', 1]), None); // unknown tag
        assert_eq!(decode_value(&[b'n', 0]), None); // trailing byte
    }

    #[test]
    fn ident_hex_roundtrips_and_lexes() {
        let ct = Ciphertext(vec![0xde, 0xad, 0x00, 0x01]);
        let s = ident_hex(&ct);
        assert_eq!(s, "xdead0001");
        assert_eq!(parse_ident_hex(&s), Some(ct));
        // Lexes as one SQL identifier:
        let toks = dpe_sql::token::lex(&s).unwrap();
        assert_eq!(toks.len(), 1);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(parse_ident_hex("dead"), None); // missing prefix
        assert_eq!(parse_ident_hex("xdea"), None); // odd length
        assert_eq!(parse_ident_hex("xzz"), None); // non-hex
    }

    #[test]
    fn parse_is_total_on_non_ascii_and_edge_inputs() {
        // Multi-byte characters used to be sliced at a non-char boundary.
        assert_eq!(parse_ident_hex("xa€bc"), None);
        assert_eq!(parse_ident_hex("xé"), None);
        assert_eq!(parse_ident_hex("x€"), None);
        assert_eq!(parse_ident_hex("xa"), None); // odd length
        assert_eq!(parse_ident_hex("xabc"), None);
        assert_eq!(parse_ident_hex(""), None); // empty, no prefix
        assert_eq!(parse_ident_hex("x"), Some(Ciphertext(Vec::new())));
        assert_eq!(parse_ident_hex("x+a"), None); // a sign is no digit
        assert_eq!(parse_ident_hex("xg0"), None);
        assert_eq!(
            parse_ident_hex("xDEad0F"),
            Some(Ciphertext(vec![0xde, 0xad, 0x0f]))
        );
    }

    #[test]
    fn parse_inverts_ident_hex_for_every_byte() {
        let every = Ciphertext((0..=u8::MAX).collect());
        assert_eq!(parse_ident_hex(&ident_hex(&every)), Some(every.clone()));
        let upper = format!("x{}", every.to_hex().to_ascii_uppercase());
        assert_eq!(parse_ident_hex(&upper), Some(every));
        for b in 0..=u8::MAX {
            let digit = char::from(b);
            let is_hex = digit.is_ascii_hexdigit();
            let parsed = parse_ident_hex(&format!("x0{digit}"));
            assert_eq!(parsed.is_some(), is_hex, "{b:#04x}");
        }
    }
}
