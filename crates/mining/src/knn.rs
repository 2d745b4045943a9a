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
    let n = matrix.len();
    assert!(i < n, "query index {i} out of bounds (n={n})");
    let mut others: Vec<usize> = candidates.into_iter().filter(|&j| j != i).collect();
    // O(n) selection of the k winners before the O(k log k) sort, instead
    // of sorting all candidates. The comparator is a strict total order
    // (ties split on index), so the selected set and its sorted order are
    // exactly the full sort's prefix — bit-identical.
    if k < others.len() {
        if k == 0 {
            others.clear();
        } else {
            others.select_nth_unstable_by(k - 1, |&a, &b| neighbour_cmp(matrix, i, a, b));
            others.truncate(k);
        }
    }
    others.sort_by(|&a, &b| neighbour_cmp(matrix, i, a, b));
    others
}

/// The neighbour order of `a` and `b` seen from `i`. A named fn forced
/// inline, not one closure shared by the select and the sort: LLVM kept
/// that closure out of line, and LOF's row sort ran about 20% slower.
#[inline(always)]
fn neighbour_cmp(matrix: &DistanceMatrix, i: usize, a: usize, b: usize) -> Ordering {
    nan_last_cmp(matrix.get(i, a), matrix.get(i, b)).then(a.cmp(&b))
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
