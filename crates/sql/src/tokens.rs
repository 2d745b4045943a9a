//! `tokens(Q)` — the characteristic function of **token equivalence**
//! (Table I row 1).
//!
//! "For token-based query-string distance, one interprets an SQL query as a
//! set of tokens" (Definition 3). The contract: `tokens(Q)` is the set of
//! token spellings that [`lex`] reads from the canonical rendering
//! `Q.to_string()`. [`token_set_of_text`] computes exactly that and is the
//! oracle. [`query_tokens`] gets the same set without rendering or lexing:
//! it walks the AST once, emits the tokens `Display` would print as borrowed
//! [`QueryToken`]s, then sorts and dedups them. The two are pinned equal by
//! the `token_walk_equals_relex_*` proptests. A query whose rendering the
//! walk cannot reproduce token for token yields `None`, and [`token_set`]
//! falls back to the text path; a rendering that does not lex either is an
//! error, not a panic.
//!
//! Keywords and operators participate (they are part of the query string);
//! identifiers and constants are the parts encryption later replaces 1:1,
//! which is exactly why a DET scheme preserves the Jaccard distance over
//! these sets.

use crate::ast::{AggArg, ColumnRef, Expr, Literal, Query, SelectItem};
use crate::error::SqlError;
use crate::token::{lex, Token, KEYWORDS};
use std::collections::BTreeSet;

/// A single element of `tokens(Q)`.
///
/// Tokens carry only their spelling (no position, no kind) because the
/// token-based measure treats the query as a bag-collapsed-to-set of
/// spellings. `BTreeSet` gives deterministic iteration for the harnesses.
pub type TokenSet = BTreeSet<String>;

/// One element of `tokens(Q)` as the AST walk emits it, borrowed from the
/// query.
///
/// Two tokens are equal exactly when their lexed spellings are: keywords and
/// punctuation (`Sym`) are uppercase or symbols, words are lowercase
/// non-keywords, integers start with a digit or `-`, and strings start with
/// `'`, so no spelling is shared across variants.
// The clippy.toml ban on `PartialOrd::partial_cmp` targets NaN-prone
// float sorts; this derive expands to field-wise partial_cmp over
// non-float fields, which cannot hit the NaN pitfall.
#[allow(clippy::disallowed_methods)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum QueryToken<'q> {
    /// A keyword or punctuation, in its lexed spelling.
    Sym(&'static str),
    /// An identifier (table or column name).
    Word(&'q str),
    /// An integer constant (a literal or the `LIMIT` count).
    Int(i64),
    /// A string constant, unescaped.
    Str(&'q str),
}

impl QueryToken<'_> {
    /// The spelling [`token_set_of_text`] gives this token.
    pub(crate) fn spelling(&self) -> String {
        match *self {
            QueryToken::Sym(s) | QueryToken::Word(s) => s.to_string(),
            QueryToken::Int(v) => v.to_string(),
            QueryToken::Str(s) => format!("'{s}'"),
        }
    }
}

/// `tokens(Q)` as a sorted, deduplicated list of borrowed tokens, from one
/// walk of the AST.
///
/// Returns `None` when the walk cannot reproduce the lexed rendering: an
/// identifier that is not a lowercase `[a-z_][a-z0-9_]*` word, or is a
/// keyword in any case, or a `LIMIT` above `i64::MAX`.
pub fn query_tokens(query: &Query) -> Option<Vec<QueryToken<'_>>> {
    let mut walk = Walk(Vec::with_capacity(32));
    walk.query(query)?;
    walk.0.sort_unstable();
    walk.0.dedup();
    Some(walk.0)
}

/// Computes `tokens(Q)`: by the AST walk, or from the canonical rendering
/// when the walk cannot reproduce it. The parser never builds an AST whose
/// rendering does not lex, but a hand-built one can (`LIMIT` above
/// `i64::MAX`, an identifier such as `a-b`); that is the lexer's error.
pub fn token_set(query: &Query) -> Result<TokenSet, SqlError> {
    match query_tokens(query) {
        Some(tokens) => Ok(tokens.iter().map(QueryToken::spelling).collect()),
        None => token_set_of_text(&query.to_string()),
    }
}

/// The canonical-form check every door applies to a query it accepts:
/// `Ok` when `query.to_string()` lexes, else the lexer's error. The parser
/// never builds a query that fails it, but a hand-built or decoded AST can
/// (`LIMIT` above `i64::MAX`, an identifier such as `a-b`), and such a
/// query has no token set. The AST walk settles nearly every query; the
/// rendering is lexed only when the walk gives up.
pub fn check_lexes(query: &Query) -> Result<(), SqlError> {
    match query_tokens(query) {
        Some(_) => Ok(()),
        None => lex(&query.to_string()).map(drop),
    }
}

/// Computes the token set of raw SQL text (used to tokenize *encrypted*
/// queries, whose identifiers are hex strings). Applied to `q.to_string()`
/// it is the definition of `tokens(q)`.
pub fn token_set_of_text(sql: &str) -> Result<TokenSet, SqlError> {
    let spanned = lex(sql)?;
    Ok(spanned
        .into_iter()
        .map(|s| match s.token {
            // Normalize the two spellings of ≠ the lexer folds anyway.
            Token::Ne => "!=".to_string(),
            other => other.to_string(),
        })
        .collect())
}

/// `true` when `lex` reads `word`, printed between separators, back as the
/// identifier `word` itself.
fn is_plain_word(word: &str) -> bool {
    let bytes = word.as_bytes();
    matches!(bytes.first(), Some(b'a'..=b'z' | b'_'))
        && bytes
            .iter()
            .all(|b| matches!(b, b'a'..=b'z' | b'0'..=b'9' | b'_'))
        && !KEYWORDS.iter().any(|k| k.eq_ignore_ascii_case(word))
}

/// Collects the tokens `Display for Query` prints (each parenthesis pair is
/// pushed at once: only the set matters); `None` on the first token the
/// walk cannot spell.
struct Walk<'q>(Vec<QueryToken<'q>>);

impl<'q> Walk<'q> {
    fn sym(&mut self, s: &'static str) {
        self.0.push(QueryToken::Sym(s));
    }

    fn word(&mut self, word: &'q str) -> Option<()> {
        if !is_plain_word(word) {
            return None;
        }
        self.0.push(QueryToken::Word(word));
        Some(())
    }

    fn col(&mut self, col: &'q ColumnRef) -> Option<()> {
        if let Some(table) = &col.table {
            self.word(table)?;
            self.sym(".");
        }
        self.word(&col.column)
    }

    fn lit(&mut self, lit: &'q Literal) {
        self.0.push(match lit {
            Literal::Int(v) => QueryToken::Int(*v),
            Literal::Str(s) => QueryToken::Str(s),
            Literal::Null => QueryToken::Sym("NULL"),
        });
    }

    /// A comma-separated list: the `,` appears once there are two items.
    fn list<T>(
        &mut self,
        items: &'q [T],
        mut each: impl FnMut(&mut Self, &'q T) -> Option<()>,
    ) -> Option<()> {
        if items.len() > 1 {
            self.sym(",");
        }
        items.iter().try_for_each(|item| each(self, item))
    }

    /// Mirrors `Expr::fmt_with_parens`.
    fn expr(&mut self, expr: &'q Expr, parent_prec: u8) -> Option<()> {
        if expr.precedence() < parent_prec {
            self.sym("(");
            self.sym(")");
        }
        match expr {
            Expr::Comparison { col, op, value } => {
                self.col(col)?;
                self.sym(op.symbol());
                self.lit(value);
            }
            Expr::ColumnEq { left, right } => {
                self.col(left)?;
                self.sym("=");
                self.col(right)?;
            }
            Expr::Between { col, low, high } => {
                self.col(col)?;
                self.sym("BETWEEN");
                self.lit(low);
                self.sym("AND");
                self.lit(high);
            }
            Expr::InList { col, list } => {
                self.col(col)?;
                self.sym("IN");
                self.sym("(");
                self.list(list, |w, lit| {
                    w.lit(lit);
                    Some(())
                })?;
                self.sym(")");
            }
            Expr::IsNull { col, negated } => {
                self.col(col)?;
                self.sym("IS");
                if *negated {
                    self.sym("NOT");
                }
                self.sym("NULL");
            }
            Expr::And(a, b) => {
                self.expr(a, 2)?;
                self.sym("AND");
                self.expr(b, 2)?;
            }
            Expr::Or(a, b) => {
                self.expr(a, 1)?;
                self.sym("OR");
                self.expr(b, 1)?;
            }
            Expr::Not(inner) => {
                self.sym("NOT");
                self.expr(inner, 4)?;
            }
        }
        Some(())
    }

    /// Mirrors `Display for Query`.
    fn query(&mut self, q: &'q Query) -> Option<()> {
        self.sym("SELECT");
        if q.distinct {
            self.sym("DISTINCT");
        }
        self.list(&q.select, |w, item| match item {
            SelectItem::Wildcard => {
                w.sym("*");
                Some(())
            }
            SelectItem::Column(c) => w.col(c),
            SelectItem::Aggregate { func, arg } => {
                w.sym(func.name());
                w.sym("(");
                w.sym(")");
                match arg {
                    AggArg::Star => {
                        w.sym("*");
                        Some(())
                    }
                    AggArg::Column(c) => w.col(c),
                }
            }
        })?;
        self.sym("FROM");
        self.word(&q.from.name)?;
        for join in &q.joins {
            self.sym("JOIN");
            self.word(&join.table.name)?;
            self.sym("ON");
            self.col(&join.left)?;
            self.sym("=");
            self.col(&join.right)?;
        }
        if let Some(w) = &q.where_clause {
            self.sym("WHERE");
            self.expr(w, 0)?;
        }
        if !q.group_by.is_empty() {
            self.sym("GROUP");
            self.sym("BY");
            self.list(&q.group_by, Walk::col)?;
        }
        if !q.order_by.is_empty() {
            self.sym("ORDER");
            self.sym("BY");
            self.list(&q.order_by, |w, o| {
                w.col(&o.col)?;
                if o.desc {
                    w.sym("DESC");
                }
                Some(())
            })?;
        }
        if let Some(limit) = q.limit {
            self.sym("LIMIT");
            self.0.push(QueryToken::Int(i64::try_from(limit).ok()?));
        }
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{AggFunc, CompareOp, Join, OrderItem, TableRef};
    use crate::parser::parse_query;

    fn tokens(sql: &str) -> TokenSet {
        token_set(&parse_query(sql).unwrap()).unwrap()
    }

    #[test]
    fn simple_query_tokens() {
        let t = tokens("SELECT ra FROM photoobj WHERE dec > 5");
        for expected in ["SELECT", "ra", "FROM", "photoobj", "WHERE", "dec", ">", "5"] {
            assert!(t.contains(expected), "missing {expected}: {t:?}");
        }
        assert_eq!(t.len(), 8);
    }

    #[test]
    fn set_semantics_collapse_duplicates() {
        // Repeating a conjunct changes the token *bag* but not the *set*.
        let t1 = tokens("SELECT ra FROM t WHERE ra = 5 AND ra = 5");
        let t2 = tokens("SELECT ra FROM t WHERE ra = 5 AND ra = 5 AND ra = 5");
        assert_eq!(t1, t2);
    }

    #[test]
    fn formatting_does_not_matter() {
        assert_eq!(
            tokens("select   ra from t where dec>5"),
            tokens("SELECT ra FROM t WHERE dec > 5")
        );
    }

    #[test]
    fn constants_are_tokens() {
        let t = tokens("SELECT ra FROM t WHERE class = 'STAR' AND z = 17");
        assert!(t.contains("'STAR'"));
        assert!(t.contains("17"));
    }

    #[test]
    fn token_set_of_encrypted_looking_text() {
        // Hex identifiers (what DET produces) must lex fine.
        let t = token_set_of_text("SELECT deadbeef FROM cafebabe WHERE a1b2 > 42").unwrap();
        assert!(t.contains("deadbeef"));
        assert!(t.contains("cafebabe"));
    }

    /// `SELECT ra FROM t` with `edit` applied.
    fn ast(edit: impl FnOnce(&mut Query)) -> Query {
        let mut q = Query::new(
            vec![SelectItem::Column(ColumnRef::bare("ra"))],
            TableRef::new("t"),
        );
        edit(&mut q);
        q
    }

    fn bare(name: &str) -> ColumnRef {
        ColumnRef::bare(name)
    }

    fn cmp(col: &str, value: Literal) -> Expr {
        Expr::cmp(bare(col), CompareOp::Ne, value)
    }

    fn with_where(e: Expr) -> Query {
        ast(|q| q.where_clause = Some(e))
    }

    fn with_str(s: &str) -> Query {
        with_where(cmp("a", Literal::Str(s.into())))
    }

    /// The text path as it stood before the walk: render, lex, collect.
    fn relexed(q: &Query) -> Result<TokenSet, SqlError> {
        token_set_of_text(&q.to_string())
    }

    #[test]
    fn hand_built_asts_take_or_avoid_the_fallback() {
        let atom = |c: &str| cmp(c, Literal::Int(1));
        let in_list = |list: Vec<Literal>| Expr::InList {
            col: bare("a"),
            list,
        };
        let walk_cases: Vec<(&str, Query)> = vec![
            ("plain", ast(|_| {})),
            (
                "underscore identifiers",
                ast(|q| q.from = TableRef::new("_")),
            ),
            ("hex identifier", ast(|q| q.from = TableRef::new("x0a9f"))),
            ("str with quote", with_str("o'brien")),
            ("str of quotes", with_str("''")),
            ("empty str", with_str("")),
            ("non-ascii str", with_str("\u{e9}\u{65e5}\u{672c}")),
            ("keyword-spelled str", with_str("SELECT")),
            ("i64::MIN", with_where(cmp("a", Literal::Int(i64::MIN)))),
            ("i64::MAX", with_where(cmp("a", Literal::Int(i64::MAX)))),
            ("null literal", with_where(cmp("a", Literal::Null))),
            ("empty IN", with_where(in_list(vec![]))),
            ("single-item IN", with_where(in_list(vec![Literal::Int(5)]))),
            (
                "mixed IN",
                with_where(in_list(vec![
                    Literal::Int(5),
                    Literal::Str("5".into()),
                    Literal::Null,
                ])),
            ),
            (
                "NOT over OR",
                with_where(Expr::Not(Box::new(atom("a").or(atom("b"))))),
            ),
            (
                "NOT over NOT",
                with_where(Expr::Not(Box::new(Expr::Not(Box::new(atom("a")))))),
            ),
            (
                "OR under AND",
                with_where(atom("a").and(atom("b").or(atom("c")))),
            ),
            (
                "AND under OR",
                with_where(atom("a").or(atom("b").and(atom("c")))),
            ),
            (
                "NOT under AND",
                with_where(Expr::Not(Box::new(atom("a"))).and(atom("b"))),
            ),
            (
                "between and is not null",
                with_where(
                    Expr::Between {
                        col: ColumnRef::qualified("t", "a"),
                        low: Literal::Null,
                        high: Literal::Int(-3),
                    }
                    .and(Expr::IsNull {
                        col: bare("b"),
                        negated: true,
                    }),
                ),
            ),
            (
                "aggregates, join, group, order, limit",
                ast(|q| {
                    q.distinct = true;
                    q.select = vec![
                        SelectItem::Wildcard,
                        SelectItem::Aggregate {
                            func: AggFunc::Count,
                            arg: AggArg::Star,
                        },
                        SelectItem::Aggregate {
                            func: AggFunc::Min,
                            arg: AggArg::Column(ColumnRef::qualified("t", "z")),
                        },
                    ];
                    q.joins = vec![Join {
                        table: TableRef::new("u"),
                        left: ColumnRef::qualified("t", "id"),
                        right: ColumnRef::qualified("u", "id"),
                    }];
                    q.group_by = vec![bare("z")];
                    q.order_by = vec![
                        OrderItem {
                            col: bare("z"),
                            desc: true,
                        },
                        OrderItem {
                            col: bare("ra"),
                            desc: false,
                        },
                    ];
                    q.limit = Some(0);
                }),
            ),
            ("LIMIT i64::MAX", ast(|q| q.limit = Some(i64::MAX as u64))),
        ];
        let fallback_cases: Vec<(&str, Query)> = vec![
            (
                "uppercase column",
                ast(|q| q.select = vec![SelectItem::Column(bare("Ra"))]),
            ),
            ("uppercase table", ast(|q| q.from = TableRef::new("T"))),
            ("keyword column count", with_where(atom("count"))),
            ("keyword table min", ast(|q| q.from = TableRef::new("min"))),
            (
                "keyword qualifier",
                ast(|q| q.group_by = vec![ColumnRef::qualified("select", "a")]),
            ),
            (
                "digit-leading identifier",
                ast(|q| q.from = TableRef::new("1abc")),
            ),
            (
                "empty identifier",
                ast(|q| q.select = vec![SelectItem::Column(bare(""))]),
            ),
            (
                "identifier with a space",
                ast(|q| q.from = TableRef::new("a b")),
            ),
        ];
        for (name, q) in &walk_cases {
            assert!(query_tokens(q).is_some(), "{name}: fell back on {q}");
            assert_eq!(token_set(q), relexed(q), "{name}: {q}");
        }
        for (name, q) in &fallback_cases {
            assert!(query_tokens(q).is_none(), "{name}: walked {q}");
            assert_eq!(token_set(q), relexed(q), "{name}: {q}");
        }
    }

    #[test]
    fn unlexable_renderings_are_typed_errors() {
        for q in [
            ast(|q| q.limit = Some(u64::MAX)),
            ast(|q| q.limit = Some(i64::MAX as u64 + 1)),
            ast(|q| q.from = TableRef::new("a-b")),
            ast(|q| q.from = TableRef::new("\u{e9}")),
            with_where(cmp("a#", Literal::Int(1))),
        ] {
            assert!(query_tokens(&q).is_none(), "walked {q}");
            let err = token_set(&q).expect_err("an unlexable rendering has no token set");
            assert_eq!(err.phase, crate::error::Phase::Lex, "{q}");
            assert_eq!(Err(err), relexed(&q), "{q}");
        }
    }

    #[test]
    fn disjoint_queries_share_only_keywords() {
        let a = tokens("SELECT ra FROM photoobj");
        let b = tokens("SELECT z FROM specobj");
        let inter: Vec<_> = a.intersection(&b).cloned().collect();
        assert_eq!(inter, vec!["FROM".to_string(), "SELECT".to_string()]);
    }
}
