//! `tokens(Q)` — the characteristic function of **token equivalence**
//! (Table I row 1).
//!
//! "For token-based query-string distance, one interprets an SQL query as a
//! set of tokens" (Definition 3). The contract: `tokens(Q)` is the set of
//! token spellings that [`lex`] reads from the canonical rendering
//! `Q.to_string()`. [`token_set_of_text`] computes exactly that and is the
//! oracle. [`token_sketch`] gets the same set without rendering or lexing:
//! it walks the AST once and splits what `Display` would print in two.
//! Keywords and punctuation, the 37 spellings of one symbol table, become
//! bits of one `u64` mask; identifiers and constants, borrowed from the
//! query, go into a short list that alone is sorted and deduplicated.
//! [`TokenSketch::count`] and [`TokenSketch::common`] count a set and an
//! intersection from that split by a popcount plus one merge, and
//! [`query_tokens`] expands it to the sorted token list. The walk is pinned
//! to the oracle by the `token_walk_equals_relex_*` proptests. A query
//! whose rendering the walk cannot reproduce token for token yields
//! `None`, and [`token_set`] falls back to the text path; a rendering that
//! does not lex either is an error, not a panic.
//!
//! Keywords and operators participate (they are part of the query string);
//! identifiers and constants are the parts encryption later replaces 1:1,
//! which is exactly why a DET scheme preserves the Jaccard distance over
//! these sets.

use crate::ast::{AggArg, AggFunc, ColumnRef, CompareOp, Expr, Literal, Query, SelectItem};
use crate::error::SqlError;
use crate::token::{lex, Token, KEYWORDS};
use std::cmp::Ordering;
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

/// Every spelling the walk can emit as a [`QueryToken::Sym`]: the lexer's
/// punctuation (with `!=` for ≠) and its [`KEYWORDS`], in ascending byte
/// order. Bit `i` of a [`TokenSketch`]'s mask stands for `SYMBOLS[i]`, so
/// expanding a mask from its low bit up yields `Sym` tokens already sorted.
const SYMBOLS: [&str; 37] = [
    "!=", "(", ")", "*", ",", ".", "<", "<=", "=", ">", ">=", "AND", "AS", "ASC", "AVG", "BETWEEN",
    "BY", "COUNT", "DESC", "DISTINCT", "FROM", "GROUP", "IN", "INNER", "IS", "JOIN", "LIMIT",
    "MAX", "MIN", "NOT", "NULL", "ON", "OR", "ORDER", "SELECT", "SUM", "WHERE",
];

/// Byte-wise order of two spellings, the order `str`'s `Ord` gives.
const fn spelling_cmp(a: &str, b: &str) -> Ordering {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut i = 0;
    while i < a.len() && i < b.len() {
        if a[i] != b[i] {
            return if a[i] < b[i] {
                Ordering::Less
            } else {
                Ordering::Greater
            };
        }
        i += 1;
    }
    if a.len() < b.len() {
        Ordering::Less
    } else if a.len() > b.len() {
        Ordering::Greater
    } else {
        Ordering::Equal
    }
}

const _: () = {
    assert!(SYMBOLS.len() <= 64, "the symbol mask is one u64");
    let mut i = 1;
    while i < SYMBOLS.len() {
        assert!(
            matches!(spelling_cmp(SYMBOLS[i - 1], SYMBOLS[i]), Ordering::Less),
            "SYMBOLS must be in ascending byte order"
        );
        i += 1;
    }
};

/// The mask bit of `spelling`. Call sites evaluate it in a `const` block,
/// so a spelling missing from [`SYMBOLS`] fails to compile.
const fn sym_bit(spelling: &str) -> u64 {
    let mut i = 0;
    while i < SYMBOLS.len() {
        if matches!(spelling_cmp(SYMBOLS[i], spelling), Ordering::Equal) {
            return 1 << i;
        }
        i += 1;
    }
    panic!("spelling missing from SYMBOLS")
}

/// The bit of [`CompareOp::symbol`].
fn op_bit(op: CompareOp) -> u64 {
    match op {
        CompareOp::Eq => const { sym_bit("=") },
        CompareOp::Ne => const { sym_bit("!=") },
        CompareOp::Lt => const { sym_bit("<") },
        CompareOp::Le => const { sym_bit("<=") },
        CompareOp::Gt => const { sym_bit(">") },
        CompareOp::Ge => const { sym_bit(">=") },
    }
}

/// The bit of [`AggFunc::name`].
fn agg_bit(func: AggFunc) -> u64 {
    match func {
        AggFunc::Count => const { sym_bit("COUNT") },
        AggFunc::Sum => const { sym_bit("SUM") },
        AggFunc::Avg => const { sym_bit("AVG") },
        AggFunc::Min => const { sym_bit("MIN") },
        AggFunc::Max => const { sym_bit("MAX") },
    }
}

/// `tokens(Q)` from one walk of the AST, split for counting: keywords and
/// punctuation as bits of one mask, identifiers and constants as a sorted,
/// deduplicated list borrowed from the query.
#[derive(Debug, Clone)]
pub struct TokenSketch<'q> {
    /// Bit `i` set when `SYMBOLS[i]` is in the set.
    symbols: u64,
    /// The `Word`, `Int` and `Str` tokens, sorted and deduplicated.
    rest: Vec<QueryToken<'q>>,
}

impl TokenSketch<'_> {
    /// `|tokens(Q)|`.
    pub fn count(&self) -> usize {
        self.symbols.count_ones() as usize + self.rest.len()
    }

    /// `|tokens(Q1) ∩ tokens(Q2)|`: a popcount of the shared symbols plus
    /// one merge pass over the two sorted lists.
    pub fn common(&self, other: &TokenSketch<'_>) -> usize {
        let (a, b) = (&self.rest, &other.rest);
        let (mut i, mut j) = (0, 0);
        let mut shared = (self.symbols & other.symbols).count_ones() as usize;
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    shared += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        shared
    }
}

/// `tokens(Q)` as a [`TokenSketch`], from one walk of the AST.
///
/// Returns `None` when the walk cannot reproduce the lexed rendering: an
/// identifier that is not a lowercase `[a-z_][a-z0-9_]*` word, or is a
/// keyword in any case, or a `LIMIT` above `i64::MAX`.
pub fn token_sketch(query: &Query) -> Option<TokenSketch<'_>> {
    let mut walk = Walk(TokenSketch {
        symbols: 0,
        rest: Vec::with_capacity(16),
    });
    walk.query(query)?;
    let mut sketch = walk.0;
    sketch.rest.sort_unstable();
    sketch.rest.dedup();
    Some(sketch)
}

/// `tokens(Q)` as a sorted, deduplicated list of borrowed tokens: the
/// [`token_sketch`]'s symbols expanded in table order, then its
/// identifiers and constants. `None` exactly when [`token_sketch`] is.
pub fn query_tokens(query: &Query) -> Option<Vec<QueryToken<'_>>> {
    let sketch = token_sketch(query)?;
    let mut tokens = Vec::with_capacity(sketch.count());
    let mut mask = sketch.symbols;
    while mask != 0 {
        tokens.push(QueryToken::Sym(SYMBOLS[mask.trailing_zeros() as usize]));
        mask &= mask - 1;
    }
    tokens.extend(sketch.rest);
    Some(tokens)
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
    match token_sketch(query) {
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

/// The length of the longest keyword: a longer word is no keyword.
const LONGEST_KEYWORD: usize = {
    let mut longest = 0;
    let mut i = 0;
    while i < KEYWORDS.len() {
        if KEYWORDS[i].len() > longest {
            longest = KEYWORDS[i].len();
        }
        i += 1;
    }
    longest
};

/// A word of at most eight bytes as one integer: its bytes lowercased,
/// little-endian and zero-padded. Words hold no zero byte, so words that
/// differ other than in case pack apart.
const fn pack_word(word: &[u8]) -> u64 {
    let mut packed = 0;
    let mut i = 0;
    while i < word.len() {
        packed |= (word[i].to_ascii_lowercase() as u64) << (8 * i);
        i += 1;
    }
    packed
}

/// Every keyword, [`pack_word`]ed: a word is a keyword in some case
/// exactly when its packing is listed.
const KEYWORD_PACKS: [u64; KEYWORDS.len()] = {
    assert!(LONGEST_KEYWORD <= 8, "a keyword packs into one u64");
    let mut packs = [0; KEYWORDS.len()];
    let mut i = 0;
    while i < KEYWORDS.len() {
        packs[i] = pack_word(KEYWORDS[i].as_bytes());
        i += 1;
    }
    packs
};

/// `true` when `lex` reads `word`, printed between separators, back as the
/// identifier `word` itself: a lowercase `[a-z_][a-z0-9_]*` word that is
/// no keyword. The byte check is one branch-free fold, which the compiler
/// can vectorize over a long DET identifier; only a word short enough to
/// be a keyword is then looked up, packed.
fn is_plain_word(word: &str) -> bool {
    let bytes = word.as_bytes();
    let Some(first) = bytes.first() else {
        return false;
    };
    let all_word_bytes = bytes.iter().fold(true, |ok, &b| {
        ok & (b.is_ascii_lowercase() | b.is_ascii_digit() | (b == b'_'))
    });
    all_word_bytes
        && !first.is_ascii_digit()
        && (bytes.len() > LONGEST_KEYWORD || !KEYWORD_PACKS.contains(&pack_word(bytes)))
}

/// Collects the tokens `Display for Query` prints into a [`TokenSketch`]
/// (each parenthesis pair is set at once: only the set matters); `None` on
/// the first token the walk cannot spell.
struct Walk<'q>(TokenSketch<'q>);

impl<'q> Walk<'q> {
    fn sym(&mut self, bits: u64) {
        self.0.symbols |= bits;
    }

    fn push(&mut self, token: QueryToken<'q>) {
        self.0.rest.push(token);
    }

    fn word(&mut self, word: &'q str) -> Option<()> {
        if !is_plain_word(word) {
            return None;
        }
        self.push(QueryToken::Word(word));
        Some(())
    }

    fn col(&mut self, col: &'q ColumnRef) -> Option<()> {
        if let Some(table) = &col.table {
            self.word(table)?;
            self.sym(const { sym_bit(".") });
        }
        self.word(&col.column)
    }

    fn lit(&mut self, lit: &'q Literal) {
        match lit {
            Literal::Int(v) => self.push(QueryToken::Int(*v)),
            Literal::Str(s) => self.push(QueryToken::Str(s)),
            Literal::Null => self.sym(const { sym_bit("NULL") }),
        }
    }

    /// A comma-separated list: the `,` appears once there are two items.
    fn list<T>(
        &mut self,
        items: &'q [T],
        mut each: impl FnMut(&mut Self, &'q T) -> Option<()>,
    ) -> Option<()> {
        if items.len() > 1 {
            self.sym(const { sym_bit(",") });
        }
        items.iter().try_for_each(|item| each(self, item))
    }

    /// Mirrors `Expr::fmt_with_parens`.
    fn expr(&mut self, expr: &'q Expr, parent_prec: u8) -> Option<()> {
        if expr.precedence() < parent_prec {
            self.sym(const { sym_bit("(") | sym_bit(")") });
        }
        match expr {
            Expr::Comparison { col, op, value } => {
                self.col(col)?;
                self.sym(op_bit(*op));
                self.lit(value);
            }
            Expr::ColumnEq { left, right } => {
                self.col(left)?;
                self.sym(const { sym_bit("=") });
                self.col(right)?;
            }
            Expr::Between { col, low, high } => {
                self.col(col)?;
                self.sym(const { sym_bit("BETWEEN") | sym_bit("AND") });
                self.lit(low);
                self.lit(high);
            }
            Expr::InList { col, list } => {
                self.col(col)?;
                self.sym(const { sym_bit("IN") | sym_bit("(") | sym_bit(")") });
                self.list(list, |w, lit| {
                    w.lit(lit);
                    Some(())
                })?;
            }
            Expr::IsNull { col, negated } => {
                self.col(col)?;
                self.sym(const { sym_bit("IS") | sym_bit("NULL") });
                if *negated {
                    self.sym(const { sym_bit("NOT") });
                }
            }
            Expr::And(a, b) => {
                self.expr(a, 2)?;
                self.sym(const { sym_bit("AND") });
                self.expr(b, 2)?;
            }
            Expr::Or(a, b) => {
                self.expr(a, 1)?;
                self.sym(const { sym_bit("OR") });
                self.expr(b, 1)?;
            }
            Expr::Not(inner) => {
                self.sym(const { sym_bit("NOT") });
                self.expr(inner, 4)?;
            }
        }
        Some(())
    }

    /// Mirrors `Display for Query`.
    fn query(&mut self, q: &'q Query) -> Option<()> {
        self.sym(const { sym_bit("SELECT") });
        if q.distinct {
            self.sym(const { sym_bit("DISTINCT") });
        }
        self.list(&q.select, |w, item| match item {
            SelectItem::Wildcard => {
                w.sym(const { sym_bit("*") });
                Some(())
            }
            SelectItem::Column(c) => w.col(c),
            SelectItem::Aggregate { func, arg } => {
                w.sym(agg_bit(*func) | const { sym_bit("(") | sym_bit(")") });
                match arg {
                    AggArg::Star => {
                        w.sym(const { sym_bit("*") });
                        Some(())
                    }
                    AggArg::Column(c) => w.col(c),
                }
            }
        })?;
        self.sym(const { sym_bit("FROM") });
        self.word(&q.from.name)?;
        for join in &q.joins {
            self.sym(const { sym_bit("JOIN") | sym_bit("ON") | sym_bit("=") });
            self.word(&join.table.name)?;
            self.col(&join.left)?;
            self.col(&join.right)?;
        }
        if let Some(w) = &q.where_clause {
            self.sym(const { sym_bit("WHERE") });
            self.expr(w, 0)?;
        }
        if !q.group_by.is_empty() {
            self.sym(const { sym_bit("GROUP") | sym_bit("BY") });
            self.list(&q.group_by, Walk::col)?;
        }
        if !q.order_by.is_empty() {
            self.sym(const { sym_bit("ORDER") | sym_bit("BY") });
            self.list(&q.order_by, |w, o| {
                w.col(&o.col)?;
                if o.desc {
                    w.sym(const { sym_bit("DESC") });
                }
                Some(())
            })?;
        }
        if let Some(limit) = q.limit {
            self.sym(const { sym_bit("LIMIT") });
            self.push(QueryToken::Int(i64::try_from(limit).ok()?));
        }
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Join, OrderItem, TableRef};
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
    fn every_walk_spelling_has_its_own_bit() {
        let ops = [
            CompareOp::Eq,
            CompareOp::Ne,
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Gt,
            CompareOp::Ge,
        ];
        let aggs = [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ];
        // The lexer's punctuation, spelled as `token_set_of_text` spells it.
        let punctuation = [
            Token::Comma,
            Token::Dot,
            Token::LParen,
            Token::RParen,
            Token::Star,
            Token::Eq,
            Token::Ne,
            Token::Lt,
            Token::Le,
            Token::Gt,
            Token::Ge,
        ]
        .map(|t| t.to_string());
        let mut spellings: Vec<&str> = KEYWORDS.to_vec();
        spellings.extend(punctuation.iter().map(String::as_str));
        assert_eq!(
            spellings.len(),
            SYMBOLS.len(),
            "the table holds nothing else"
        );
        let mut seen = 0u64;
        for s in &spellings {
            let bit = sym_bit(s);
            assert_eq!(bit.count_ones(), 1, "{s}");
            assert_eq!(SYMBOLS[bit.trailing_zeros() as usize], *s);
            assert_eq!(seen & bit, 0, "{s} shares a bit");
            seen |= bit;
        }
        for op in ops {
            assert_eq!(op_bit(op), sym_bit(op.symbol()), "{op:?}");
        }
        for func in aggs {
            assert_eq!(agg_bit(func), sym_bit(func.name()), "{func:?}");
        }
        let distinct_ops: BTreeSet<u64> = ops.into_iter().map(op_bit).collect();
        let distinct_aggs: BTreeSet<u64> = aggs.into_iter().map(agg_bit).collect();
        assert_eq!((distinct_ops.len(), distinct_aggs.len()), (6, 5));
    }

    /// The identifier check's definition: `lex` reads `word` back as
    /// exactly one identifier spelled `word`.
    fn lexes_as_itself(word: &str) -> bool {
        match lex(word).as_deref() {
            Ok([only]) => only.token == Token::Ident(word.to_string()),
            _ => false,
        }
    }

    fn assert_oracle(word: &str) {
        assert_eq!(is_plain_word(word), lexes_as_itself(word), "{word:?}");
    }

    #[test]
    fn word_check_equals_lexing_on_short_strings_across_class_edges() {
        // Each byte class edge from both sides, plus a multi-byte char.
        let alphabet = [
            '`', 'a', 'z', '{', '/', '0', '9', ':', '_', '@', 'A', 'Z', '[', 'é',
        ];
        let mut words = vec![String::new()];
        let mut level = vec![String::new()];
        for _ in 0..3 {
            level = level
                .iter()
                .flat_map(|w| alphabet.iter().map(move |c| format!("{w}{c}")))
                .collect();
            words.extend(level.iter().cloned());
        }
        assert_eq!(words.len(), 1 + 14 + 14 * 14 + 14 * 14 * 14);
        words.extend((0..=127u8).map(|b| char::from(b).to_string()));
        for word in &words {
            assert_oracle(word);
        }
    }

    #[test]
    fn word_check_equals_lexing_on_keywords_and_their_neighbours() {
        for keyword in KEYWORDS {
            let lower = keyword.to_ascii_lowercase();
            let mixed: String = lower
                .chars()
                .enumerate()
                .map(|(i, c)| {
                    if i % 2 == 0 {
                        c.to_ascii_uppercase()
                    } else {
                        c
                    }
                })
                .collect();
            let mut words = vec![keyword.to_string(), lower.clone(), mixed];
            for extra in ['a', 'z', '_', '0', 's'] {
                words.push(format!("{lower}{extra}"));
                words.push(format!("{extra}{lower}"));
            }
            words.push(lower[1..].to_string());
            words.push(lower[..lower.len() - 1].to_string());
            for word in &words {
                assert_oracle(word);
            }
            assert!(!is_plain_word(&lower), "{lower}");
        }
    }

    #[test]
    fn word_check_equals_lexing_on_random_identifiers() {
        // splitmix64: a fixed, dependency-free stream.
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        const HEX: &[u8; 16] = b"0123456789abcdef";
        const SHORT: &[u8] = b"abinorstxyzAB09_-.";
        for _ in 0..10_000 {
            // A DET identifier: `x` + the hex of a 12- to 20-byte ciphertext.
            let len = 2 * (12 + (next() % 9) as usize);
            let ident: String = std::iter::once('x')
                .chain((0..len).map(|_| char::from(HEX[(next() % 16) as usize])))
                .collect();
            assert!(is_plain_word(&ident), "{ident}");
            assert_oracle(&ident);
            let len = 1 + (next() % 9) as usize;
            let short: String = (0..len)
                .map(|_| char::from(SHORT[(next() % SHORT.len() as u64) as usize]))
                .collect();
            assert_oracle(&short);
        }
    }

    #[test]
    fn keyword_guard_is_the_longest_keyword() {
        assert_eq!("distinct".len(), LONGEST_KEYWORD);
        for name in ["distinct", "DISTINCT", "Distinct"] {
            let q = ast(|q| q.from = TableRef::new(name));
            assert!(!is_plain_word(name), "{name}");
            assert!(query_tokens(&q).is_none(), "walked {q}");
            assert_eq!(token_set(&q), relexed(&q), "{q}");
        }
        let q = ast(|q| q.from = TableRef::new("distincts"));
        assert!(is_plain_word("distincts"));
        assert!(query_tokens(&q).is_some(), "fell back on {q}");
        assert_eq!(token_set(&q), relexed(&q), "{q}");
    }

    #[test]
    fn disjoint_queries_share_only_keywords() {
        let a = tokens("SELECT ra FROM photoobj");
        let b = tokens("SELECT z FROM specobj");
        let inter: Vec<_> = a.intersection(&b).cloned().collect();
        assert_eq!(inter, vec!["FROM".to_string(), "SELECT".to_string()]);
    }
}
