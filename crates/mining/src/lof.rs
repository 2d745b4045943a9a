//! Local Outlier Factor (Breunig et al., SIGMOD 2000).
//!
//! The density-based cousin of Knorr–Ng's distance-based outliers \[6\]: a
//! point is outlying when its local density is small *relative to the
//! densities of its neighbours*. Like every algorithm in this crate, LOF is
//! a pure function of the pairwise distance matrix — which is exactly why
//! DPE makes it outsourceable: the service provider computes identical LOF
//! scores from the encrypted log.
//!
//! Definitions (for `k = min_pts`):
//!
//! * `k-distance(p)` — distance to p's k-th nearest neighbour;
//! * `N_k(p)` — every point within `k-distance(p)` (ties included);
//! * `reach-dist_k(p, o) = max(k-distance(o), d(p, o))`;
//! * `lrd_k(p) = 1 / mean_{o ∈ N_k(p)} reach-dist_k(p, o)`;
//! * `LOF_k(p) = mean_{o ∈ N_k(p)} lrd_k(o) / lrd_k(p)`.
//!
//! Scores ≈ 1 mean inlier; scores substantially above 1 mean the point is
//! locally sparse. Duplicate-heavy data can make `lrd` infinite; ∞/∞
//! ratios are taken as 1, following the reference implementation folklore.
//!
//! Neighbourhoods come from the crate's one neighbour order, a single
//! comparator on `(distance, index)` pairs (distance NaN-last, then
//! index). Each row is gathered once into one reused buffer, the k-th
//! pair is selected rather than the row sorted, the pairs within its
//! distance are kept, and only those m = |N_k| are sorted. A call costs
//! O(n·(n + m log m)) time and one row buffer beside the flat
//! neighbourhoods.

use crate::knn::{neighbour_cmp, select_kth};
use dpe_distance::{nan_last_cmp, DistanceMatrix};

/// Configuration for [`lof`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LofConfig {
    /// Neighbourhood size `k` (`MinPts` in the original paper), ≥ 1.
    pub min_pts: usize,
}

/// Computes the LOF score of every point from the distance matrix.
///
/// Returns one score per point. Points whose neighbourhood density equals
/// their neighbours' get ≈ 1.0; isolated points get > 1. A point with
/// fewer than `min_pts` non-NaN distances has a NaN k-distance, an empty
/// neighbourhood and the score `f64::NAN` (the positive quiet NaN, whatever
/// the build: 0/0 would leave the sign to the compiler, and two answers
/// compared by their bits would then differ between builds).
///
/// Per row: gather the `(distance, index)` pairs, select the k-th in the
/// neighbour order, keep the pairs at most its distance (ties kept, NaN
/// dropped) and sort those m; O(n·(n + m log m)) in all. The scores are
/// bit-identical to ranking each row by a full sort.
///
/// # Panics
///
/// Panics when `min_pts` is 0 or ≥ the number of points (every point needs
/// `min_pts` *other* points as neighbours).
pub fn lof(matrix: &DistanceMatrix, config: LofConfig) -> Vec<f64> {
    let n = matrix.len();
    let k = config.min_pts;
    assert!(k >= 1, "min_pts must be ≥ 1");
    assert!(
        k < n,
        "min_pts = {k} needs at least {} points, got {n}",
        k + 1
    );

    // k-distance and k-neighbourhood (with ties) per point, the
    // neighbourhoods flat: point i's are `neigh[ends[i]..ends[i + 1]]`.
    let mut kdist = vec![0.0f64; n];
    let mut neigh: Vec<usize> = Vec::new();
    let mut ends: Vec<usize> = vec![0];
    let mut row = Vec::with_capacity(n - 1);
    for (i, kd_slot) in kdist.iter_mut().enumerate() {
        select_kth(matrix, i, k, 0..n, &mut row);
        let kd = row[k - 1].0;
        *kd_slot = kd;
        // Everything within the k-distance, ties beyond the k-th included.
        // A NaN distance (either sign) never qualifies, and a NaN
        // k-distance (fewer than k non-NaN distances) keeps nothing.
        row.retain(|&(d, _)| d <= kd);
        row.sort_unstable_by(neighbour_cmp);
        neigh.extend(row.iter().map(|&(_, o)| o));
        ends.push(neigh.len());
    }
    let around = |i: usize| &neigh[ends[i]..ends[i + 1]];

    // Local reachability density.
    let mut lrd = vec![0.0f64; n];
    for (i, lrd_i) in lrd.iter_mut().enumerate() {
        let sum: f64 = around(i)
            .iter()
            .map(|&o| matrix.get(i, o).max(kdist[o]))
            .sum();
        *lrd_i = if sum == 0.0 {
            f64::INFINITY // all neighbours are duplicates of i
        } else {
            around(i).len() as f64 / sum
        };
    }

    // LOF = mean neighbour-lrd ratio.
    (0..n)
        .map(|i| {
            if around(i).is_empty() {
                return f64::NAN;
            }
            let sum: f64 = around(i)
                .iter()
                .map(|&o| {
                    if lrd[o].is_infinite() && lrd[i].is_infinite() {
                        1.0
                    } else {
                        lrd[o] / lrd[i]
                    }
                })
                .sum();
            sum / around(i).len() as f64
        })
        .collect()
}

/// Indices of points with `LOF > threshold`, sorted descending by score —
/// the typical "report the outliers" surface on top of [`lof`].
pub fn lof_outliers(matrix: &DistanceMatrix, config: LofConfig, threshold: f64) -> Vec<usize> {
    let scores = lof(matrix, config);
    let mut idx: Vec<usize> = (0..scores.len())
        .filter(|&i| scores[i] > threshold)
        .collect();
    idx.sort_by(|&a, &b| nan_last_cmp(scores[b], scores[a]).then(a.cmp(&b)));
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two tight blobs plus one far-away singleton (index 8).
    fn blob_with_outlier() -> DistanceMatrix {
        let pos: [f64; 9] = [0.0, 0.5, 1.0, 1.5, 10.0, 10.5, 11.0, 11.5, 50.0];
        DistanceMatrix::from_fn(9, |i, j| (pos[i] - pos[j]).abs())
    }

    #[test]
    fn isolated_point_scores_highest() {
        let scores = lof(&blob_with_outlier(), LofConfig { min_pts: 3 });
        let max_idx = (0..scores.len())
            .max_by(|&a, &b| scores[a].total_cmp(&scores[b]))
            .unwrap();
        assert_eq!(max_idx, 8, "scores: {scores:?}");
        assert!(scores[8] > 2.0, "outlier score too low: {}", scores[8]);
    }

    #[test]
    fn uniform_cluster_scores_near_one() {
        // Equally spaced points: everyone's density matches the neighbours'.
        let m = DistanceMatrix::from_fn(10, |i, j| (i as f64 - j as f64).abs());
        let scores = lof(&m, LofConfig { min_pts: 2 });
        for (i, s) in scores.iter().enumerate() {
            assert!(
                (0.5..2.0).contains(s),
                "interior-ish point {i} got extreme LOF {s}"
            );
        }
    }

    #[test]
    fn duplicates_do_not_produce_nan() {
        // Three exact duplicates + two distinct points.
        let pos: [f64; 5] = [1.0, 1.0, 1.0, 5.0, 9.0];
        let m = DistanceMatrix::from_fn(5, |i, j| (pos[i] - pos[j]).abs());
        let scores = lof(&m, LofConfig { min_pts: 2 });
        assert!(scores.iter().all(|s| !s.is_nan()), "{scores:?}");
        // The duplicate triple is maximally dense: LOF = 1 (∞/∞ convention).
        assert!((scores[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn nan_row_scores_the_positive_quiet_nan() {
        // Point 0's distances are all the runtime 0/0 NaN (negative on
        // x86-64), so it has no neighbours for any k, and at k = 5 no point
        // has five non-NaN distances. Every such score is still exactly
        // `f64::NAN`.
        let nan = std::hint::black_box(0.0f64) / std::hint::black_box(0.0f64);
        let m = DistanceMatrix::from_fn(6, |i, j| if i == 0 || j == 0 { nan } else { 1.0 });
        for k in 1..6 {
            let scores = lof(&m, LofConfig { min_pts: k });
            let empty = if k < 5 { 1 } else { 6 };
            for (i, s) in scores.iter().enumerate() {
                if i < empty {
                    assert_eq!(s.to_bits(), f64::NAN.to_bits(), "k={k}, point {i}");
                } else {
                    assert!(!s.is_nan(), "k={k}, point {i}");
                }
            }
        }
    }

    #[test]
    fn lof_outliers_thresholding() {
        let m = blob_with_outlier();
        let out = lof_outliers(&m, LofConfig { min_pts: 3 }, 1.5);
        assert!(out.contains(&8));
        assert!(!out.contains(&1));
        // Descending score order: the singleton leads.
        assert_eq!(out[0], 8);
    }

    #[test]
    fn deterministic() {
        let m = blob_with_outlier();
        let c = LofConfig { min_pts: 3 };
        assert_eq!(lof(&m, c), lof(&m, c));
    }

    #[test]
    #[should_panic(expected = "min_pts")]
    fn rejects_min_pts_zero() {
        lof(&blob_with_outlier(), LofConfig { min_pts: 0 });
    }

    #[test]
    #[should_panic(expected = "min_pts")]
    fn rejects_min_pts_too_large() {
        lof(&blob_with_outlier(), LofConfig { min_pts: 9 });
    }

    #[test]
    fn scale_invariance_of_relative_order() {
        // LOF depends on distance *ratios*: scaling all distances by a
        // constant must keep the score vector identical.
        let m1 = blob_with_outlier();
        let m2 = DistanceMatrix::from_fn(m1.len(), |i, j| 7.0 * m1.get(i, j));
        let c = LofConfig { min_pts: 3 };
        let (s1, s2) = (lof(&m1, c), lof(&m2, c));
        for (a, b) in s1.iter().zip(&s2) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }
}
