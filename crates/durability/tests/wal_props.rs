//! WAL edge-case property tests (ISSUE 10 satellite):
//!
//! 1. **Record round-trip** — encode ≡ decode over arbitrary ciphertext
//!    batches, where "arbitrary" includes AST identifiers no SQL parser
//!    would accept (DET/token ciphertext spellings); a query whose
//!    rendering does not lex is a typed error instead.
//! 2. **Truncated-tail recovery** — *every* byte prefix of a valid log
//!    replays to a prefix of the records with a valid epoch chain.
//! 3. **Checksum-flip rejection** — flipping any single byte of a small
//!    log yields either a typed error or a strict prefix of the records;
//!    never a changed or invented record.

use dpe_durability::wal::{read_wal, WalRecord, WAL_MAGIC};
use dpe_durability::DurabilityError;
use dpe_sql::{
    AggArg, AggFunc, ColumnRef, CompareOp, Expr, Join, Literal, OrderItem, Query, SelectItem,
    TableRef,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

/// Identifier alphabet skewed toward ciphertext-looking spellings: hex
/// blobs, uppercase, operators, spaces, newlines — nothing a parser
/// accepts, yet every rendering still lexes, the one form the ingest door
/// admits and the codec decodes.
const IDENT_CHARS: &[char] = &['a', 'Z', '3', 'f', '0', '9', '_', '=', ' ', '\n'];

/// First and last characters: a letter on both ends keeps `t.c` from
/// lexing as a float literal such as `3.9`.
const IDENT_ENDS: &[char] = &['a', 'Z', 'f', '_'];

/// Characters the lexer rejects anywhere outside a string literal.
const UNLEXABLE_CHARS: &[char] = &['/', '+', '"', 'π', '🔒'];

/// String-constant alphabet: the full ciphertext-looking range, non-ASCII
/// and quotes included. A string literal renders quoted with `''`
/// escapes, so all of these still lex there.
const STR_CHARS: &[char] = &[
    'a', 'Z', '3', 'f', '0', '9', '_', '-', '=', '/', '+', ' ', '\'', '"', '.', 'π', '🔒', '\n',
];

fn ident(rng: &mut StdRng) -> String {
    let len = rng.gen_range(1usize..10);
    (0..len)
        .map(|i| {
            let chars = if i == 0 || i == len - 1 {
                IDENT_ENDS
            } else {
                IDENT_CHARS
            };
            chars[rng.gen_range(0usize..chars.len())]
        })
        .collect()
}

fn string(rng: &mut StdRng) -> String {
    let len = rng.gen_range(1usize..10);
    (0..len)
        .map(|_| STR_CHARS[rng.gen_range(0usize..STR_CHARS.len())])
        .collect()
}

fn literal(rng: &mut StdRng) -> Literal {
    match rng.gen_range(0u8..3) {
        0 => Literal::Int(rng.gen::<i64>()),
        1 => Literal::Str(string(rng)),
        _ => Literal::Null,
    }
}

fn column(rng: &mut StdRng) -> ColumnRef {
    ColumnRef {
        table: if rng.gen_range(0u8..2) == 0 {
            None
        } else {
            Some(ident(rng))
        },
        column: ident(rng),
    }
}

fn expr(rng: &mut StdRng, depth: usize) -> Expr {
    let max = if depth >= 3 { 5 } else { 8 };
    match rng.gen_range(0u8..max) {
        0 => Expr::Comparison {
            col: column(rng),
            op: [
                CompareOp::Eq,
                CompareOp::Ne,
                CompareOp::Lt,
                CompareOp::Le,
                CompareOp::Gt,
                CompareOp::Ge,
            ][rng.gen_range(0usize..6)],
            value: literal(rng),
        },
        1 => Expr::ColumnEq {
            left: column(rng),
            right: column(rng),
        },
        2 => Expr::Between {
            col: column(rng),
            low: literal(rng),
            high: literal(rng),
        },
        3 => Expr::InList {
            col: column(rng),
            list: (0..rng.gen_range(0usize..4))
                .map(|_| literal(rng))
                .collect(),
        },
        4 => Expr::IsNull {
            col: column(rng),
            negated: rng.gen_range(0u8..2) == 1,
        },
        5 => Expr::And(
            Box::new(expr(rng, depth + 1)),
            Box::new(expr(rng, depth + 1)),
        ),
        6 => Expr::Or(
            Box::new(expr(rng, depth + 1)),
            Box::new(expr(rng, depth + 1)),
        ),
        _ => Expr::Not(Box::new(expr(rng, depth + 1))),
    }
}

fn select_item(rng: &mut StdRng) -> SelectItem {
    match rng.gen_range(0u8..3) {
        0 => SelectItem::Wildcard,
        1 => SelectItem::Column(column(rng)),
        _ => SelectItem::Aggregate {
            func: [
                AggFunc::Count,
                AggFunc::Sum,
                AggFunc::Avg,
                AggFunc::Min,
                AggFunc::Max,
            ][rng.gen_range(0usize..5)],
            arg: if rng.gen_range(0u8..2) == 0 {
                AggArg::Star
            } else {
                AggArg::Column(column(rng))
            },
        },
    }
}

fn query(rng: &mut StdRng) -> Query {
    Query {
        distinct: rng.gen_range(0u8..2) == 1,
        select: (0..rng.gen_range(1usize..4))
            .map(|_| select_item(rng))
            .collect(),
        from: TableRef::new(ident(rng)),
        joins: (0..rng.gen_range(0usize..3))
            .map(|_| Join {
                table: TableRef::new(ident(rng)),
                left: column(rng),
                right: column(rng),
            })
            .collect(),
        where_clause: if rng.gen_range(0u8..2) == 1 {
            Some(expr(rng, 0))
        } else {
            None
        },
        group_by: (0..rng.gen_range(0usize..3)).map(|_| column(rng)).collect(),
        order_by: (0..rng.gen_range(0usize..3))
            .map(|_| OrderItem {
                col: column(rng),
                desc: rng.gen_range(0u8..2) == 1,
            })
            .collect(),
        limit: if rng.gen_range(0u8..2) == 1 {
            // The lexer reads integers as i64, so LIMIT stops at i64::MAX.
            Some(rng.gen::<u64>() >> 1)
        } else {
            None
        },
    }
}

/// A WAL image plus the records it was built from: up to `max_records`
/// batches of arbitrary structurally-random queries with contiguous
/// epochs from 1.
struct ArbitraryLog {
    max_records: usize,
}

impl Strategy for ArbitraryLog {
    type Value = Vec<WalRecord>;
    fn sample(&self, rng: &mut StdRng) -> Vec<WalRecord> {
        let n = rng.gen_range(0usize..=self.max_records);
        (0..n)
            .map(|i| WalRecord {
                epoch: i as u64 + 1,
                queries: (0..rng.gen_range(0usize..4)).map(|_| query(rng)).collect(),
            })
            .collect()
    }
}

fn image_of(records: &[WalRecord]) -> Vec<u8> {
    let mut bytes = WAL_MAGIC.to_vec();
    for r in records {
        bytes.extend_from_slice(&r.encode_frame());
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn record_round_trip(records in ArbitraryLog { max_records: 4 }) {
        for r in &records {
            let decoded = WalRecord::decode_payload(&r.encode_payload());
            prop_assert_eq!(decoded.as_ref(), Ok(r));
        }
        let replay = read_wal(&image_of(&records), 0);
        prop_assert!(replay.is_ok());
        let replay = replay.unwrap();
        prop_assert_eq!(&replay.records, &records);
        prop_assert!(!replay.torn_tail);
    }

    #[test]
    fn unlexable_query_is_a_corrupt_record(
        records in ArbitraryLog { max_records: 3 },
        pick in 0usize..1_000,
        bad in 0usize..1_000,
    ) {
        // Poison one query's table name with a character the lexer
        // rejects: the frame is checksum-valid, yet replay refuses it.
        let mut records = records;
        let with_queries: Vec<usize> =
            (0..records.len()).filter(|&i| !records[i].queries.is_empty()).collect();
        prop_assume!(!with_queries.is_empty());
        let record = &mut records[with_queries[pick % with_queries.len()]];
        let q = pick % record.queries.len();
        record.queries[q].from.name.push(UNLEXABLE_CHARS[bad % UNLEXABLE_CHARS.len()]);
        let replay = read_wal(&image_of(&records), 0);
        prop_assert!(
            matches!(&replay, Err(DurabilityError::CorruptRecord { detail, .. })
                if detail.contains("does not lex")),
            "{:?}", replay.map(|r| r.records.len())
        );
    }

    #[test]
    fn every_prefix_recovers_to_a_valid_epoch(records in ArbitraryLog { max_records: 3 }) {
        let bytes = image_of(&records);
        for cut in 0..=bytes.len() {
            let prefix = &bytes[..cut];
            match read_wal(prefix, 0) {
                Ok(replay) => {
                    // The replayed records are a prefix of the originals…
                    prop_assert!(replay.records.len() <= records.len(), "cut {}", cut);
                    prop_assert_eq!(
                        &replay.records[..],
                        &records[..replay.records.len()],
                        "cut {}", cut
                    );
                    // …so the recovered epoch chain is 1..=k: valid.
                    for (i, r) in replay.records.iter().enumerate() {
                        prop_assert_eq!(r.epoch, i as u64 + 1);
                    }
                    prop_assert!(replay.valid_len as usize <= cut);
                }
                // A cut inside the 8-byte magic is rejected as corruption.
                Err(DurabilityError::CorruptRecord { offset: 0, .. }) => {
                    prop_assert!(cut > 0 && cut < WAL_MAGIC.len(), "cut {}", cut);
                }
                Err(other) => prop_assert!(false, "cut {}: unexpected {:?}", cut, other),
            }
        }
    }

    #[test]
    fn checksum_flip_at_every_offset_never_invents_records(
        records in ArbitraryLog { max_records: 2 },
        flip in any::<u8>(),
    ) {
        let flip = if flip == 0 { 1 } else { flip };
        let bytes = image_of(&records);
        for offset in 0..bytes.len() {
            let mut damaged = bytes.clone();
            damaged[offset] ^= flip;
            match read_wal(&damaged, 0) {
                // Rejection is the expected outcome for most offsets.
                Err(DurabilityError::CorruptRecord { .. }) => {}
                Err(other) => prop_assert!(false, "offset {}: unexpected {:?}", offset, other),
                // A flip in a length prefix can mimic a torn tail; the
                // replayed records must then be an untouched strict
                // prefix — corruption never changes a record's content.
                Ok(replay) => {
                    prop_assert!(
                        replay.records.len() < records.len()
                            || (records.is_empty() && replay.records.is_empty()),
                        "offset {}: flip must not preserve all records", offset
                    );
                    prop_assert_eq!(
                        &replay.records[..],
                        &records[..replay.records.len()],
                        "offset {}", offset
                    );
                }
            }
        }
    }
}
