//! # Sub-quadratic metric indexes over the distance engines
//!
//! Every mining path so far bottoms out in the packed
//! [`DistanceMatrix`], whose `n(n−1)/2` cells cap a
//! store at thousands of records. This module escapes that wall for the
//! per-anchor queries (kNN, range): a pivot-based vantage-point tree
//! ([`VpTree`]) answers them **exactly** — bit-identical to the matrix
//! paths — while triangle-inequality pruning skips most distance
//! evaluations.
//!
//! The tree reads distances through [`DistanceSource`], which has two
//! interchangeable backends:
//!
//! * [`MatrixSource`] — O(1) lookups into an already-materialized packed
//!   matrix (what the server's shards use: the matrix is still the ground
//!   truth, the tree just prunes which cells a query reads);
//! * [`MeasureSource`] — on-demand [`QueryDistance`] evaluation over a
//!   query log, for stores too large to materialize `n(n−1)/2` cells at
//!   all. Pairs are evaluated lower-index-first, exactly the order the
//!   matrix engine fills cells in, so the two backends are bit-identical.
//!
//! Triangle-inequality pruning is only sound for true metrics, which is
//! why [`QueryDistance::is_metric`] exists: the Jaccard-based measures
//! (token, structure, result) declare it; access-area distance — whose
//! per-pair attribute-union normalization breaks the triangle inequality —
//! does not, and the server refuses to index such a measure.
//!
//! Every query also reports [`QueryCounters`]: how many distance cells it
//! actually computed versus how many the index proved irrelevant. For a
//! [`VpTree`] query over `n` items, `computed + pruned == n` always holds.

mod vptree;

pub use vptree::VpTree;

use crate::matrix::DistanceMatrix;
use crate::measure::{DistanceError, QueryDistance};
use dpe_sql::Query;

/// Where an index reads pairwise distances from. `distance(i, j)` must be
/// symmetric with `distance(i, i) == 0`; implementations over fallible
/// measures surface the measure's error.
pub trait DistanceSource {
    /// Number of items.
    fn len(&self) -> usize;

    /// `true` when the source holds no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The distance between items `i` and `j`.
    fn distance(&self, i: usize, j: usize) -> Result<f64, DistanceError>;
}

/// O(1) lookups into a materialized packed matrix — the backend the
/// server's shards index through (the matrix stays the ground truth; the
/// index only prunes which cells a query reads). Never fails.
#[derive(Debug, Clone, Copy)]
pub struct MatrixSource<'a>(pub &'a DistanceMatrix);

impl DistanceSource for MatrixSource<'_> {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn distance(&self, i: usize, j: usize) -> Result<f64, DistanceError> {
        Ok(self.0.get(i, j))
    }
}

/// On-demand measure evaluation over a query log — the backend for stores
/// too large to materialize the packed triangle. Pairs are evaluated
/// lower-index-first, the same argument order
/// [`DistanceMatrix::compute`](crate::DistanceMatrix::compute) uses to fill
/// cells, so answers are bit-identical to a matrix-backed index.
#[derive(Debug, Clone, Copy)]
pub struct MeasureSource<'a, M> {
    queries: &'a [Query],
    measure: &'a M,
}

impl<'a, M: QueryDistance> MeasureSource<'a, M> {
    /// A source computing `measure` over `queries` on demand.
    pub fn new(queries: &'a [Query], measure: &'a M) -> Self {
        MeasureSource { queries, measure }
    }
}

impl<M: QueryDistance> DistanceSource for MeasureSource<'_, M> {
    fn len(&self) -> usize {
        self.queries.len()
    }

    fn distance(&self, i: usize, j: usize) -> Result<f64, DistanceError> {
        if i == j {
            return Ok(0.0);
        }
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        self.measure.distance(&self.queries[lo], &self.queries[hi])
    }
}

/// Per-query work accounting: of the `n` candidate items, how many had
/// their distance to the anchor actually computed (or read from the
/// matrix), and how many the index proved irrelevant without touching
/// their cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryCounters {
    /// Distance cells evaluated (including the anchor's own zero cell when
    /// its tree node is visited).
    pub computed: u64,
    /// Items skipped by pruning — their distance cell was never touched.
    pub pruned: u64,
}

/// SplitMix64 — the deterministic bit mixer behind pivot choice (no RNG
/// state to seed, no `rand` dependency).
#[inline]
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token_distance::TokenDistance;
    use dpe_sql::parse_query;

    #[test]
    fn measure_source_matches_matrix_cells_bitwise() {
        let queries: Vec<Query> = (0..9)
            .map(|i| {
                parse_query(&format!(
                    "SELECT a{}, b FROM t{} WHERE x = {i}",
                    i % 3,
                    i % 2
                ))
                .unwrap()
            })
            .collect();
        let matrix = DistanceMatrix::compute(&queries, &TokenDistance).unwrap();
        let source = MeasureSource::new(&queries, &TokenDistance);
        assert_eq!(source.len(), matrix.len());
        for i in 0..queries.len() {
            for j in 0..queries.len() {
                let d = source.distance(i, j).unwrap();
                assert_eq!(d.to_bits(), matrix.get(i, j).to_bits(), "({i}, {j})");
            }
        }
    }

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        assert_eq!(splitmix64(0), splitmix64(0));
        let outs: std::collections::BTreeSet<u64> = (0..64).map(splitmix64).collect();
        assert_eq!(outs.len(), 64, "no collisions over small consecutive seeds");
    }
}
