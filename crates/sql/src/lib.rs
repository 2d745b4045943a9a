//! # dpe-sql — the SQL substrate
//!
//! Everything the four query-distance measures need from SQL:
//!
//! * [`token`] — a lexer for the SELECT dialect the paper's case study uses
//!   (SkyServer-style analytic queries);
//! * [`ast`] — the query AST (`SELECT … FROM … [JOIN … ON …] WHERE … GROUP
//!   BY … ORDER BY … LIMIT …`);
//! * [`parser`] — a recursive-descent parser with precise error positions;
//! * [`display`] — a canonical pretty-printer (`parse ∘ print = id`);
//! * [`tokens`] — `tokens(Q)`: the token *set* of a query, the characteristic
//!   preserved by **token equivalence** (Table I row 1);
//! * [`features`] — `features(Q)`: SnipSuggest-style structural features, the
//!   characteristic preserved by **structural equivalence** (Table I row 2);
//! * [`analysis`] — visitors for relations/attributes/constants and the
//!   identifier-rewriting hook the encryption layer uses to build `Enc(Q)`.
//!
//! Numeric literals are 64-bit integers: the synthetic SkyServer workload
//! scales real-valued attributes (e.g. right ascension) to fixed-point, which
//! keeps every distance computation exact — a prerequisite for checking the
//! DPE property `d(Enc(x), Enc(y)) = d(x, y)` with `==` instead of an ε.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod ast;
pub mod display;
pub mod error;
pub mod features;
pub mod parser;
pub mod token;
pub mod tokens;

pub use ast::{
    AggArg, AggFunc, ColumnRef, CompareOp, Expr, Join, Literal, OrderItem, Query, SelectItem,
    TableRef,
};
pub use error::SqlError;
pub use features::{feature_set, Feature};
pub use parser::parse_query;
pub use tokens::{check_lexes, query_tokens, token_set, token_sketch, TokenSketch};

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::tokens::token_set_of_text;
    use proptest::prelude::*;

    /// A tiny generator of random-but-valid queries over a fixed schema.
    /// Predicate constants are integers or string literals, the latter
    /// with escaped quotes and multi-byte UTF-8.
    fn arb_query() -> impl Strategy<Value = String> {
        let col = prop::sample::select(vec!["ra", "dec", "objid", "z", "class"]);
        let table = prop::sample::select(vec!["photoobj", "specobj", "neighbors"]);
        let op = prop::sample::select(vec!["=", "<", ">", "<=", ">=", "!="]);
        let text =
            prop::sample::select(vec!["STAR", "o'brien", "\u{e9}t\u{e9}", "日本", "Ω ü", ""]);
        let value = (any::<i64>(), prop::option::of(text)).prop_map(|(v, text)| match text {
            Some(t) => format!("'{}'", t.replace('\'', "''")),
            None => v.to_string(),
        });
        (
            prop::collection::vec(col.clone(), 1..4),
            table,
            prop::collection::vec((col, op, value), 0..3),
            any::<bool>(),
            prop::option::of(0u64..1000),
        )
            .prop_map(|(cols, table, preds, distinct, limit)| {
                let mut sql = String::from("SELECT ");
                if distinct {
                    sql.push_str("DISTINCT ");
                }
                sql.push_str(&cols.join(", "));
                sql.push_str(&format!(" FROM {table}"));
                if !preds.is_empty() {
                    let conds: Vec<String> = preds
                        .iter()
                        .map(|(c, o, v)| format!("{c} {o} {v}"))
                        .collect();
                    sql.push_str(&format!(" WHERE {}", conds.join(" AND ")));
                }
                if let Some(l) = limit {
                    sql.push_str(&format!(" LIMIT {l}"));
                }
                sql
            })
    }

    /// Random ASTs over every node kind, grown from one seed. About one
    /// identifier in sixteen is one the token walk cannot spell (so some
    /// queries take the text fallback), and literals include quotes,
    /// non-ASCII bytes and the `i64` extremes.
    fn arb_ast() -> impl Strategy<Value = Query> {
        any::<u64>().prop_map(|seed| AstGen(seed).query())
    }

    struct AstGen(u64);

    impl AstGen {
        /// splitmix64.
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<T: Clone>(&mut self, options: &[T]) -> T {
            options[self.below(options.len())].clone()
        }

        fn ident(&mut self) -> String {
            let odd = ["Ra", "count", "min", "1abc", "", "a b"];
            let plain = ["ra", "dec", "z", "_", "x9f3a", "photoobj", "t_1"];
            if self.below(16) == 0 {
                self.pick(&odd).to_string()
            } else {
                self.pick(&plain).to_string()
            }
        }

        fn col(&mut self) -> ColumnRef {
            let column = self.ident();
            if self.below(3) == 0 {
                ColumnRef::qualified(self.ident(), column)
            } else {
                ColumnRef::bare(column)
            }
        }

        fn lit(&mut self) -> Literal {
            match self.below(6) {
                0 => Literal::Null,
                1 => Literal::Int(self.pick(&[0, 5, -5, i64::MIN, i64::MAX])),
                2 => Literal::Int(self.next() as i64),
                _ => Literal::Str(
                    self.pick(&[
                        "STAR",
                        "o'brien",
                        "\u{e9}t\u{e9}",
                        "",
                        "''",
                        "a b",
                        "SELECT",
                    ])
                    .to_string(),
                ),
            }
        }

        fn expr(&mut self, depth: usize) -> Expr {
            let arm = if depth == 0 {
                self.below(5)
            } else {
                self.below(8)
            };
            match arm {
                0 => Expr::cmp(
                    self.col(),
                    self.pick(&[
                        CompareOp::Eq,
                        CompareOp::Ne,
                        CompareOp::Lt,
                        CompareOp::Le,
                        CompareOp::Gt,
                        CompareOp::Ge,
                    ]),
                    self.lit(),
                ),
                1 => Expr::ColumnEq {
                    left: self.col(),
                    right: self.col(),
                },
                2 => Expr::Between {
                    col: self.col(),
                    low: self.lit(),
                    high: self.lit(),
                },
                3 => Expr::InList {
                    col: self.col(),
                    list: (0..self.below(4)).map(|_| self.lit()).collect(),
                },
                4 => Expr::IsNull {
                    col: self.col(),
                    negated: self.below(2) == 0,
                },
                5 => self.expr(depth - 1).and(self.expr(depth - 1)),
                6 => self.expr(depth - 1).or(self.expr(depth - 1)),
                _ => Expr::Not(Box::new(self.expr(depth - 1))),
            }
        }

        fn query(&mut self) -> Query {
            let select = (0..self.below(4))
                .map(|_| match self.below(3) {
                    0 => SelectItem::Wildcard,
                    1 => SelectItem::Column(self.col()),
                    _ => SelectItem::Aggregate {
                        func: self.pick(&[
                            AggFunc::Count,
                            AggFunc::Sum,
                            AggFunc::Avg,
                            AggFunc::Min,
                            AggFunc::Max,
                        ]),
                        arg: if self.below(2) == 0 {
                            AggArg::Star
                        } else {
                            AggArg::Column(self.col())
                        },
                    },
                })
                .collect();
            let mut q = Query::new(select, TableRef::new(self.ident()));
            q.distinct = self.below(2) == 0;
            q.joins = (0..self.below(3))
                .map(|_| Join {
                    table: TableRef::new(self.ident()),
                    left: self.col(),
                    right: self.col(),
                })
                .collect();
            q.where_clause = (self.below(4) != 0).then(|| self.expr(3));
            q.group_by = (0..self.below(3)).map(|_| self.col()).collect();
            q.order_by = (0..self.below(3))
                .map(|_| OrderItem {
                    col: self.col(),
                    desc: self.below(2) == 0,
                })
                .collect();
            q.limit = (self.below(2) == 0).then(|| self.pick(&[0, 7, i64::MAX as u64]));
            q
        }
    }

    proptest! {
        #[test]
        fn parse_print_parse_fixpoint(sql in arb_query()) {
            let q1 = parse_query(&sql).expect("generated SQL must parse");
            let printed = q1.to_string();
            let q2 = parse_query(&printed).expect("printed SQL must re-parse");
            prop_assert_eq!(&q1, &q2, "printed: {}", printed);
        }

        #[test]
        fn token_set_is_print_invariant(sql in arb_query()) {
            // Canonical printing must not change the token set — otherwise
            // token distance would depend on formatting.
            let q = parse_query(&sql).unwrap();
            let reparsed = parse_query(&q.to_string()).unwrap();
            prop_assert_eq!(token_set(&q).unwrap(), token_set(&reparsed).unwrap());
        }

        #[test]
        fn token_walk_equals_relex_on_arb_query(sql in arb_query()) {
            let q = parse_query(&sql).unwrap();
            prop_assert!(query_tokens(&q).is_some(), "plain query fell back: {}", q);
            prop_assert_eq!(token_set(&q).unwrap(), token_set_of_text(&q.to_string()).unwrap());
        }

        #[test]
        fn feature_set_is_print_invariant(sql in arb_query()) {
            let q = parse_query(&sql).unwrap();
            let reparsed = parse_query(&q.to_string()).unwrap();
            prop_assert_eq!(feature_set(&q), feature_set(&reparsed));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn token_walk_equals_relex_on_arb_ast(q in arb_ast()) {
            let oracle = token_set_of_text(&q.to_string()).unwrap();
            prop_assert_eq!(token_set(&q).unwrap(), oracle.clone());
            if let Some(tokens) = query_tokens(&q) {
                // Distinct walk tokens have distinct spellings, so set sizes
                // (and hence Jaccard counts) agree too.
                prop_assert_eq!(tokens.len(), oracle.len());
            }
        }
    }
}
