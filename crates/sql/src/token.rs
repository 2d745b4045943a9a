//! The SQL lexer.

use crate::error::SqlError;
use std::fmt;

/// Lexical token kinds.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Token {
    /// A keyword (stored uppercase).
    Keyword(String),
    /// An identifier (table/column name, stored lowercase — the dialect is
    /// case-insensitive for identifiers).
    Ident(String),
    /// An integer literal.
    Int(i64),
    /// A single-quoted string literal (unescaped).
    Str(String),
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `*`
    Star,
    /// `=`
    Eq,
    /// `!=` or `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Keyword(k) => write!(f, "{k}"),
            Token::Ident(i) => write!(f, "{i}"),
            Token::Int(v) => write!(f, "{v}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::Comma => write!(f, ","),
            Token::Dot => write!(f, "."),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Star => write!(f, "*"),
            Token::Eq => write!(f, "="),
            Token::Ne => write!(f, "!="),
            Token::Lt => write!(f, "<"),
            Token::Le => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::Ge => write!(f, ">="),
        }
    }
}

/// The dialect's reserved words.
pub const KEYWORDS: &[&str] = &[
    "SELECT", "DISTINCT", "FROM", "WHERE", "AND", "OR", "NOT", "BETWEEN", "IN", "IS", "NULL",
    "GROUP", "BY", "ORDER", "ASC", "DESC", "LIMIT", "JOIN", "INNER", "ON", "COUNT", "SUM", "AVG",
    "MIN", "MAX", "AS",
];

/// A token plus its byte offset in the source (for error messages).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spanned {
    /// The token.
    pub token: Token,
    /// Byte offset of the token's first character.
    pub offset: usize,
}

/// Tokenizes `sql`. Identifiers are lowercased, keywords uppercased.
pub fn lex(sql: &str) -> Result<Vec<Spanned>, SqlError> {
    let bytes = sql.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            ',' => {
                tokens.push(Spanned {
                    token: Token::Comma,
                    offset: i,
                });
                i += 1;
            }
            '.' => {
                tokens.push(Spanned {
                    token: Token::Dot,
                    offset: i,
                });
                i += 1;
            }
            '(' => {
                tokens.push(Spanned {
                    token: Token::LParen,
                    offset: i,
                });
                i += 1;
            }
            ')' => {
                tokens.push(Spanned {
                    token: Token::RParen,
                    offset: i,
                });
                i += 1;
            }
            '*' => {
                tokens.push(Spanned {
                    token: Token::Star,
                    offset: i,
                });
                i += 1;
            }
            '=' => {
                tokens.push(Spanned {
                    token: Token::Eq,
                    offset: i,
                });
                i += 1;
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Spanned {
                        token: Token::Ne,
                        offset: i,
                    });
                    i += 2;
                } else {
                    return Err(SqlError::lex(i, "expected '=' after '!'"));
                }
            }
            '<' => match bytes.get(i + 1) {
                Some(&b'=') => {
                    tokens.push(Spanned {
                        token: Token::Le,
                        offset: i,
                    });
                    i += 2;
                }
                Some(&b'>') => {
                    tokens.push(Spanned {
                        token: Token::Ne,
                        offset: i,
                    });
                    i += 2;
                }
                _ => {
                    tokens.push(Spanned {
                        token: Token::Lt,
                        offset: i,
                    });
                    i += 1;
                }
            },
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Spanned {
                        token: Token::Ge,
                        offset: i,
                    });
                    i += 2;
                } else {
                    tokens.push(Spanned {
                        token: Token::Gt,
                        offset: i,
                    });
                    i += 1;
                }
            }
            '\'' => {
                let start = i;
                i += 1;
                let mut value = String::new();
                loop {
                    match bytes.get(i) {
                        None => return Err(SqlError::lex(start, "unterminated string literal")),
                        Some(&b'\'') => {
                            // '' is an escaped quote inside the literal.
                            if bytes.get(i + 1) == Some(&b'\'') {
                                value.push('\'');
                                i += 2;
                            } else {
                                i += 1;
                                break;
                            }
                        }
                        Some(_) => {
                            // Copy the run up to the next quote as text: the
                            // quote is ASCII, so the run is whole UTF-8.
                            let end = bytes[i..]
                                .iter()
                                .position(|&b| b == b'\'')
                                .map_or(bytes.len(), |p| i + p);
                            value.push_str(&sql[i..end]);
                            i = end;
                        }
                    }
                }
                tokens.push(Spanned {
                    token: Token::Str(value),
                    offset: start,
                });
            }
            '-' | '0'..='9' => {
                let start = i;
                if c == '-' {
                    i += 1;
                    if !matches!(bytes.get(i), Some(b'0'..=b'9')) {
                        return Err(SqlError::lex(start, "expected digits after '-'"));
                    }
                }
                while matches!(bytes.get(i), Some(b'0'..=b'9')) {
                    i += 1;
                }
                if bytes.get(i) == Some(&b'.') && matches!(bytes.get(i + 1), Some(b'0'..=b'9')) {
                    return Err(SqlError::lex(
                        start,
                        "floating-point literals are not supported; use fixed-point integers",
                    ));
                }
                let text = &sql[start..i];
                let value: i64 = text
                    .parse()
                    .map_err(|_| SqlError::lex(start, "integer literal out of i64 range"))?;
                tokens.push(Spanned {
                    token: Token::Int(value),
                    offset: start,
                });
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                while matches!(
                    bytes.get(i),
                    Some(b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_')
                ) {
                    i += 1;
                }
                let word = &sql[start..i];
                let upper = word.to_ascii_uppercase();
                let token = if KEYWORDS.contains(&upper.as_str()) {
                    Token::Keyword(upper)
                } else {
                    Token::Ident(word.to_ascii_lowercase())
                };
                tokens.push(Spanned {
                    token,
                    offset: start,
                });
            }
            other => return Err(SqlError::lex(i, format!("unexpected character {other:?}"))),
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(sql: &str) -> Vec<Token> {
        lex(sql).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn lexes_simple_query() {
        let toks = kinds("SELECT ra FROM photoobj WHERE dec > 5");
        assert_eq!(
            toks,
            vec![
                Token::Keyword("SELECT".into()),
                Token::Ident("ra".into()),
                Token::Keyword("FROM".into()),
                Token::Ident("photoobj".into()),
                Token::Keyword("WHERE".into()),
                Token::Ident("dec".into()),
                Token::Gt,
                Token::Int(5),
            ]
        );
    }

    #[test]
    fn case_insensitive_keywords_and_idents() {
        assert_eq!(
            kinds("select RA from PhotoObj"),
            kinds("SELECT ra FROM photoobj")
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            kinds("= != <> < <= > >="),
            vec![
                Token::Eq,
                Token::Ne,
                Token::Ne,
                Token::Lt,
                Token::Le,
                Token::Gt,
                Token::Ge
            ]
        );
    }

    #[test]
    fn string_literals_with_escapes() {
        assert_eq!(kinds("'abc'"), vec![Token::Str("abc".into())]);
        assert_eq!(kinds("'o''brien'"), vec![Token::Str("o'brien".into())]);
        assert_eq!(kinds("'é''ü'"), vec![Token::Str("é'ü".into())]);
        assert!(lex("'unterminated").is_err());
    }

    #[test]
    fn negative_numbers() {
        assert_eq!(kinds("-42"), vec![Token::Int(-42)]);
        assert!(lex("- 42").is_err());
    }

    #[test]
    fn floats_rejected_with_guidance() {
        let err = lex("SELECT ra FROM t WHERE ra > 1.5").unwrap_err();
        assert!(err.to_string().contains("fixed-point"));
    }

    #[test]
    fn offsets_point_at_tokens() {
        let spanned = lex("SELECT ra").unwrap();
        assert_eq!(spanned[0].offset, 0);
        assert_eq!(spanned[1].offset, 7);
    }

    #[test]
    fn unexpected_character() {
        assert!(lex("SELECT #").is_err());
    }
}
