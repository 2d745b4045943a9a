//! Range queries (ε-neighbourhoods) over a distance matrix.
//!
//! The third classic query shape the outsourcing model must serve next to
//! kNN and outlier scoring: "everything within distance `radius` of item
//! `i`". DBSCAN's region queries are exactly this, but the serving layer
//! needs it as a standalone primitive.

use dpe_distance::DistanceMatrix;

/// All items within `radius` of item `i` (excluding `i` itself), in
/// ascending index order. The boundary is inclusive (`d ≤ radius`), matching
/// DBSCAN's ε-neighbourhood convention; a NaN distance from a degenerate
/// measure never qualifies. The whole-shard case of [`range_among`].
pub fn range_indices(matrix: &DistanceMatrix, i: usize, radius: f64) -> Vec<usize> {
    range_among(matrix, i, radius, 0..matrix.len())
}

/// The `candidates` within `radius` of item `i` (`i` itself excluded), in
/// candidate order, under the same inclusive, NaN-never boundary as
/// [`range_indices`].
pub fn range_among(
    matrix: &DistanceMatrix,
    i: usize,
    radius: f64,
    candidates: impl IntoIterator<Item = usize>,
) -> Vec<usize> {
    let n = matrix.len();
    assert!(i < n, "query index {i} out of bounds (n={n})");
    candidates
        .into_iter()
        .filter(|&j| j != i && matrix.get(i, j) <= radius)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line() -> DistanceMatrix {
        let pos: [f64; 5] = [0.0, 1.0, 3.0, 7.0, 20.0];
        DistanceMatrix::from_fn(5, |i, j| (pos[i] - pos[j]).abs())
    }

    #[test]
    fn inclusive_boundary_ascending_order() {
        assert_eq!(range_indices(&line(), 0, 3.0), vec![1, 2]);
        assert_eq!(range_indices(&line(), 2, 4.0), vec![0, 1, 3]);
    }

    #[test]
    fn excludes_self_even_at_radius_zero() {
        assert!(range_indices(&line(), 1, 0.0).is_empty());
        let dup = DistanceMatrix::from_fn(3, |_, _| 0.0);
        // Duplicates at distance 0 are within every radius; self is not.
        assert_eq!(range_indices(&dup, 1, 0.0), vec![0, 2]);
    }

    #[test]
    fn huge_radius_returns_everyone_else() {
        assert_eq!(range_indices(&line(), 4, f64::INFINITY), vec![0, 1, 2, 3]);
    }

    #[test]
    fn nan_distances_never_qualify() {
        let m = DistanceMatrix::from_fn(3, |i, j| if i == 0 && j == 1 { f64::NAN } else { 1.0 });
        assert_eq!(range_indices(&m, 0, 10.0), vec![2]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bad_query_index_panics() {
        range_indices(&line(), 5, 1.0);
    }
}
