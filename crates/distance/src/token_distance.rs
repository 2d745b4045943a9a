//! Token-based query-string distance (the paper's Definition 3).

use crate::jaccard::{jaccard_distance, jaccard_distance_sorted};
use crate::measure::{DistanceError, QueryDistance};
use dpe_sql::{query_tokens, token_set, Query};

/// `d_Token(Q1, Q2) = 1 − |tokens(Q1) ∩ tokens(Q2)| / |tokens(Q1) ∪ tokens(Q2)|`.
///
/// The result equals, bit for bit, the Jaccard distance of the token sets
/// lexed from the two canonical renderings (`dpe_sql::token_set_of_text`,
/// the oracle). It is computed without rendering: each query's AST is
/// walked once into a sorted token list ([`query_tokens`]) and the two lists
/// are merge-counted, several times cheaper than rendering and re-lexing
/// (README, "Perf trajectory"). A query the walk cannot spell falls back to
/// [`token_set`] on both sides, and a rendering that does not lex is
/// [`DistanceError::Unlexable`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TokenDistance;

impl QueryDistance for TokenDistance {
    fn distance(&self, a: &Query, b: &Query) -> Result<f64, DistanceError> {
        Ok(match (query_tokens(a), query_tokens(b)) {
            (Some(ta), Some(tb)) => jaccard_distance_sorted(&ta, &tb),
            _ => jaccard_distance(&token_set(a)?, &token_set(b)?),
        })
    }

    fn name(&self) -> &'static str {
        "token"
    }

    /// Jaccard distance is a true metric (Steinhaus transform of the
    /// symmetric-difference metric), so triangle-inequality index pruning
    /// is sound.
    fn is_metric(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpe_sql::parse_query;

    fn d(a: &str, b: &str) -> f64 {
        TokenDistance
            .distance(&parse_query(a).unwrap(), &parse_query(b).unwrap())
            .unwrap()
    }

    #[test]
    fn identical_queries_zero() {
        assert_eq!(d("SELECT ra FROM t", "SELECT ra FROM t"), 0.0);
    }

    #[test]
    fn formatting_irrelevant() {
        assert_eq!(d("select   ra from T", "SELECT ra FROM t"), 0.0);
    }

    #[test]
    fn constant_change_moves_distance_slightly() {
        let near = d(
            "SELECT ra FROM t WHERE dec > 5",
            "SELECT ra FROM t WHERE dec > 6",
        );
        // Token sets differ in exactly one element out of eight.
        assert!(near > 0.0 && near < 0.3, "{near}");
    }

    #[test]
    fn different_tables_far_apart() {
        let far = d("SELECT ra FROM photoobj", "SELECT z FROM specobj");
        let near = d("SELECT ra FROM photoobj", "SELECT dec FROM photoobj");
        assert!(far > near);
    }

    #[test]
    fn symmetric() {
        let a = "SELECT ra FROM t WHERE dec > 5";
        let b = "SELECT z FROM u WHERE q = 1";
        assert_eq!(d(a, b), d(b, a));
    }

    #[test]
    fn exact_value_on_known_pair() {
        // tokens(Q1) = {SELECT, ra, FROM, t}; tokens(Q2) = {SELECT, dec, FROM, t}
        // |∩| = 3, |∪| = 5 → d = 2/5.
        assert_eq!(d("SELECT ra FROM t", "SELECT dec FROM t"), 1.0 - 3.0 / 5.0);
    }
}
