//! Property tests for the metric indexes: for random generated query
//! logs, VP-tree kNN and range answers over both a [`MatrixSource`] and an
//! on-demand [`MeasureSource`] must be **bit-identical** to the brute-force
//! matrix-path answers (same NaN-last, index-tie-break order), an index
//! grown incrementally via [`VpTree::absorb`] must agree with one built
//! fresh.

use dpe_distance::{DistanceMatrix, MatrixSource, MeasureSource, TokenDistance, VpTree};
use dpe_sql::Query;
use dpe_workload::{LogConfig, LogGenerator};
use proptest::prelude::*;

fn log(seed: u64, n: usize) -> Vec<Query> {
    LogGenerator::generate(&LogConfig {
        queries: n,
        seed,
        ..Default::default()
    })
}

/// The matrix paths' comparator: NaN last (either sign), then by index.
fn brute_knn(matrix: &DistanceMatrix, i: usize, k: usize) -> Vec<usize> {
    let mut others: Vec<usize> = (0..matrix.len()).filter(|&j| j != i).collect();
    others.sort_by(|&a, &b| {
        let (da, db) = (matrix.get(i, a), matrix.get(i, b));
        da.is_nan()
            .cmp(&db.is_nan())
            .then_with(|| da.total_cmp(&db))
            .then(a.cmp(&b))
    });
    others.truncate(k);
    others
}

fn brute_range(matrix: &DistanceMatrix, i: usize, radius: f64) -> Vec<usize> {
    (0..matrix.len())
        .filter(|&j| j != i && matrix.get(i, j) <= radius)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn vptree_answers_match_matrix_paths_bitwise(
        seed in 0u64..10_000,
        n in 2usize..24,
        k in 0usize..8,
        radius_pct in 0usize..100,
    ) {
        let radius = radius_pct as f64 / 100.0;
        let queries = log(seed, n);
        let matrix = DistanceMatrix::compute(&queries, &TokenDistance).unwrap();
        let by_matrix = MatrixSource(&matrix);
        let by_measure = MeasureSource::new(&queries, &TokenDistance);
        let tree = VpTree::build(&by_matrix).unwrap();

        for item in 0..n {
            let want = brute_knn(&matrix, item, k);
            let (got, counters) = tree.knn(&by_matrix, item, k).unwrap();
            prop_assert_eq!(&got, &want, "matrix-source knn, anchor {}", item);
            prop_assert_eq!(counters.computed + counters.pruned, n as u64);
            let (got, _) = tree.knn(&by_measure, item, k).unwrap();
            prop_assert_eq!(&got, &want, "measure-source knn, anchor {}", item);

            let want = brute_range(&matrix, item, radius);
            let (got, counters) = tree.range(&by_matrix, item, radius).unwrap();
            prop_assert_eq!(&got, &want, "matrix-source range, anchor {}", item);
            prop_assert_eq!(counters.computed + counters.pruned, n as u64);
            let (got, _) = tree.range(&by_measure, item, radius).unwrap();
            prop_assert_eq!(&got, &want, "measure-source range, anchor {}", item);
        }
    }

    #[test]
    fn incrementally_grown_tree_matches_fresh_build(
        seed in 0u64..10_000,
        n in 2usize..24,
        split_num in 0usize..100,
        k in 1usize..6,
    ) {
        let queries = log(seed, n);
        let split = 1 + split_num * (n - 1) / 100;
        let matrix = DistanceMatrix::compute(&queries, &TokenDistance).unwrap();
        let head = DistanceMatrix::compute(&queries[..split], &TokenDistance).unwrap();

        // Grow: build over the head, then absorb the full matrix the way
        // a streaming ingest does. Whether or not absorb rebuilt, answers
        // must equal a from-scratch tree's (both equal brute force).
        let mut grown = VpTree::build(&MatrixSource(&head)).unwrap();
        grown.absorb(&MatrixSource(&matrix)).unwrap();
        prop_assert_eq!(grown.len(), n);

        for item in 0..n {
            let want = brute_knn(&matrix, item, k);
            let (got, _) = grown.knn(&MatrixSource(&matrix), item, k).unwrap();
            prop_assert_eq!(&got, &want, "grown knn, anchor {}, split {}", item, split);
            let want = brute_range(&matrix, item, 0.5);
            let (got, _) = grown.range(&MatrixSource(&matrix), item, 0.5).unwrap();
            prop_assert_eq!(&got, &want, "grown range, anchor {}, split {}", item, split);
        }
    }
}
