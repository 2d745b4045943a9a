//! k-nearest-neighbour queries over a distance matrix.

use dpe_distance::{nan_last_cmp, DistanceMatrix};
use std::cmp::Ordering;

/// The `k` nearest neighbours of item `i` (excluding `i`), closest first;
/// distance ties break on the lower index. Returns fewer than `k` when the
/// dataset is small. The whole-shard case of [`knn_among`].
pub fn knn_indices(matrix: &DistanceMatrix, i: usize, k: usize) -> Vec<usize> {
    knn_among(matrix, i, k, 0..matrix.len())
}

/// The `k` of `candidates` nearest to item `i` (`i` itself excluded), in
/// the neighbour order: distance with every NaN last
/// ([`nan_last_cmp`]), then the lower index. Candidates must be distinct.
/// Returns fewer than `k` when there are fewer candidates.
pub fn knn_among(
    matrix: &DistanceMatrix,
    i: usize,
    k: usize,
    candidates: impl IntoIterator<Item = usize>,
) -> Vec<usize> {
    let mut row = Vec::new();
    select_kth(matrix, i, k, candidates, &mut row);
    row.truncate(k);
    row.sort_unstable_by(neighbour_cmp);
    row.into_iter().map(|(_, j)| j).collect()
}

/// The ranked-row kernel. Fills `row` (cleared first, so one buffer
/// serves many rows) with the `(distance, index)` pair of every candidate
/// other than `i`, then selects in O(n): the `k`-th nearest pair in
/// neighbour order lands at `row[k − 1]`, every nearer pair before it and
/// every farther one after, each side unordered. With `k` = 0 or `k` >
/// the number of pairs nothing is selected.
///
/// Ranking gathered pairs reads each distance once, where ranking bare
/// indices read two per comparison. [`neighbour_cmp`] is strict and
/// total, so a selection then a sort of a prefix is exactly the full
/// sort's prefix, bit-identical.
pub(crate) fn select_kth(
    matrix: &DistanceMatrix,
    i: usize,
    k: usize,
    candidates: impl IntoIterator<Item = usize>,
    row: &mut Vec<(f64, usize)>,
) {
    let n = matrix.len();
    assert!(i < n, "query index {i} out of bounds (n={n})");
    row.clear();
    row.extend(
        candidates
            .into_iter()
            .filter(|&j| j != i)
            .map(|j| (matrix.get(i, j), j)),
    );
    if (1..=row.len()).contains(&k) {
        row.select_nth_unstable_by(k - 1, neighbour_cmp);
    }
}

/// The neighbour order on gathered pairs: distance by [`nan_last_cmp`],
/// then the lower index. Strict and total over distinct indices. A named
/// fn forced inline: a closure shared by a select and a sort stayed out
/// of line and once cost LOF's row sort about 20%.
#[inline(always)]
pub(crate) fn neighbour_cmp(a: &(f64, usize), b: &(f64, usize)) -> Ordering {
    nan_last_cmp(a.0, b.0).then(a.1.cmp(&b.1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line() -> DistanceMatrix {
        let pos: [f64; 5] = [0.0, 1.0, 3.0, 7.0, 20.0];
        DistanceMatrix::from_fn(5, |i, j| (pos[i] - pos[j]).abs())
    }

    #[test]
    fn nearest_first() {
        assert_eq!(knn_indices(&line(), 0, 3), vec![1, 2, 3]);
        assert_eq!(knn_indices(&line(), 2, 2), vec![1, 0]);
    }

    #[test]
    fn excludes_self() {
        assert!(!knn_indices(&line(), 3, 4).contains(&3));
    }

    #[test]
    fn k_larger_than_dataset() {
        assert_eq!(knn_indices(&line(), 0, 100).len(), 4);
    }

    #[test]
    fn ties_break_on_index() {
        let m = DistanceMatrix::from_fn(4, |_, _| 0.5);
        assert_eq!(knn_indices(&m, 0, 3), vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bad_query_index_panics() {
        knn_indices(&line(), 9, 1);
    }

    #[test]
    fn selection_matches_full_sort_with_ties_and_nans() {
        // The select-then-sort fast path must reproduce the full sort's
        // prefix bit-identically, including NaN-last ordering and index
        // tie-breaks, for every k — over the whole shard and over
        // candidate subsets given in any order.
        let n = 23;
        let m = DistanceMatrix::from_fn(n, |i, j| match (i * 31 + j * 7) % 5 {
            0 => f64::NAN,
            c => 0.25 * c as f64, // heavy ties
        });
        let subsets: [Vec<usize>; 3] = [
            (0..n).collect(),
            (0..n).rev().step_by(2).collect(),
            (0..n).map(|j| (j * 7) % n).filter(|j| j % 3 != 1).collect(),
        ];
        for i in 0..n {
            for subset in &subsets {
                let mut reference: Vec<usize> =
                    subset.iter().copied().filter(|&j| j != i).collect();
                reference.sort_by(|&a, &b| nan_last_cmp(m.get(i, a), m.get(i, b)).then(a.cmp(&b)));
                for k in 0..=n {
                    let mut expect = reference.clone();
                    expect.truncate(k);
                    let got = knn_among(&m, i, k, subset.iter().copied());
                    assert_eq!(got, expect, "i={i} k={k} subset={subset:?}");
                }
            }
            assert_eq!(knn_indices(&m, i, 5), knn_among(&m, i, 5, 0..n));
        }
    }
}
