//! Bit-identity oracle for LOF.
//!
//! `lof` ranks each row with one gather, one selection of the k-th
//! neighbour and a sort of the k-neighbourhood only. The reference below
//! is the plain definition it must reproduce: every row fully sorted in
//! the neighbour order (`knn_among(·, i, n − 1, 0..n)`), the k-distance
//! read at position k − 1, the neighbourhood filtered from that sorted row
//! with `range_among`. `lof` and `lof_outliers` must agree with it bit for
//! bit, for every k in 1..n, on matrices built to stress each branch:
//! random, tie-heavy, duplicate-heavy (lrd = ∞), NaN-bearing (both NaN
//! signs and −0.0), and a generated query log under `TokenDistance`. A
//! point with an empty neighbourhood scores exactly `f64::NAN` in both.

use dpe_distance::{nan_last_cmp, DistanceMatrix, TokenDistance};
use dpe_mining::{knn_among, lof, lof_outliers, range_among, LofConfig};
use dpe_workload::{LogConfig, LogGenerator};

/// Each row's other indices, fully sorted in the neighbour order. The
/// rows do not depend on k, so one ranking serves every k.
fn sorted_rows(m: &DistanceMatrix) -> Vec<Vec<usize>> {
    let n = m.len();
    (0..n).map(|i| knn_among(m, i, n - 1, 0..n)).collect()
}

/// LOF as the definition reads, from fully sorted rows.
fn reference_lof(m: &DistanceMatrix, rows: &[Vec<usize>], k: usize) -> Vec<f64> {
    let n = m.len();
    let kdist: Vec<f64> = (0..n).map(|i| m.get(i, rows[i][k - 1])).collect();
    let neigh: Vec<Vec<usize>> = (0..n)
        .map(|i| range_among(m, i, kdist[i], rows[i].iter().copied()))
        .collect();
    let lrd: Vec<f64> = (0..n)
        .map(|i| {
            let sum: f64 = neigh[i].iter().map(|&o| m.get(i, o).max(kdist[o])).sum();
            if sum == 0.0 {
                f64::INFINITY
            } else {
                neigh[i].len() as f64 / sum
            }
        })
        .collect();
    (0..n)
        .map(|i| {
            let ratios: Vec<f64> = neigh[i]
                .iter()
                .map(|&o| {
                    if lrd[o].is_infinite() && lrd[i].is_infinite() {
                        1.0
                    } else {
                        lrd[o] / lrd[i]
                    }
                })
                .collect();
            if ratios.is_empty() {
                f64::NAN
            } else {
                ratios.iter().sum::<f64>() / ratios.len() as f64
            }
        })
        .collect()
}

fn reference_outliers(scores: &[f64], threshold: f64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len())
        .filter(|&i| scores[i] > threshold)
        .collect();
    idx.sort_by(|&a, &b| nan_last_cmp(scores[b], scores[a]).then(a.cmp(&b)));
    idx
}

/// Every score's bits, NaN sign and payload included: an empty
/// neighbourhood scores exactly `f64::NAN` on both sides.
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Checks `lof` against the reference for every k in 1..n, and
/// `lof_outliers` at every `outlier_stride`-th k and at k = n − 1, both at
/// a threshold that splits the scores and at one that keeps every
/// non-NaN score. `lof_outliers` only sorts `lof`'s scores, so a stride
/// above 1 spares large matrices a second LOF per k.
fn assert_matches_reference(name: &str, m: &DistanceMatrix, outlier_stride: usize) {
    let n = m.len();
    let rows = sorted_rows(m);
    for k in 1..n {
        let config = LofConfig { min_pts: k };
        let expect = reference_lof(m, &rows, k);
        let got = lof(m, config);
        assert_eq!(bits(&got), bits(&expect), "{name}: lof differs at k={k}");
        if (k - 1) % outlier_stride != 0 && k != n - 1 {
            continue;
        }
        for threshold in [1.0, f64::NEG_INFINITY] {
            assert_eq!(
                lof_outliers(m, config, threshold),
                reference_outliers(&expect, threshold),
                "{name}: lof_outliers differs at k={k}, threshold={threshold}"
            );
        }
    }
}

/// SplitMix64: a deterministic cell source with no dependency.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A symmetric cell value from the pair, independent of argument order.
fn cell(seed: u64, i: usize, j: usize) -> u64 {
    let (lo, hi) = if i < j { (i, j) } else { (j, i) };
    mix(seed ^ ((hi as u64) << 32 | lo as u64))
}

#[test]
fn random_matrices() {
    for seed in 1..=3 {
        let m = DistanceMatrix::from_fn(40, |i, j| {
            (cell(seed, i, j) >> 11) as f64 / (1u64 << 53) as f64
        });
        assert_matches_reference(&format!("random seed {seed}"), &m, 1);
    }
}

#[test]
fn tie_heavy_matrices() {
    // Three distinct distances: almost every k-distance is shared by a
    // large tie group that reaches far past the k-th neighbour.
    for seed in 1..=3 {
        let m = DistanceMatrix::from_fn(37, |i, j| 1.0 + (cell(seed, i, j) % 3) as f64);
        assert_matches_reference(&format!("ties seed {seed}"), &m, 1);
    }
}

#[test]
fn duplicate_heavy_matrix() {
    // Points on a line with large groups of exact duplicates, so many
    // points have lrd = ∞ and the ∞/∞ = 1 convention is exercised.
    let pos: Vec<f64> = (0..36)
        .map(|p| [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 3.0, 7.0, 7.0][p % 9])
        .collect();
    let m = DistanceMatrix::from_fn(pos.len(), |i, j| (pos[i] - pos[j]).abs());
    let scores = lof(&m, LofConfig { min_pts: 3 });
    assert!(scores.contains(&1.0), "no ∞/∞ ratio: {scores:?}");
    assert_matches_reference("duplicates", &m, 1);
}

#[test]
fn nan_bearing_matrices() {
    // Both NaN signs, the runtime 0/0 NaN, and −0.0 next to +0.0: NaN
    // cells must never enter a neighbourhood, a NaN k-distance must give
    // an empty one, and −0.0 must rank before +0.0 as `total_cmp` says.
    let runtime_nan = std::hint::black_box(0.0f64) / std::hint::black_box(0.0f64);
    for (s, nan) in [f64::NAN, -f64::NAN, runtime_nan].into_iter().enumerate() {
        let seed = 10 + s as u64;
        let m = DistanceMatrix::from_fn(31, |i, j| match cell(seed, i, j) % 7 {
            0 | 1 => nan,
            2 => -0.0,
            3 => 0.0,
            c => 0.5 * c as f64,
        });
        assert_matches_reference(&format!("nan {nan:?}"), &m, 1);
        // Point 0 with every cell NaN has a NaN k-distance for every k.
        let m = DistanceMatrix::from_fn(12, |i, j| if i == 0 || j == 0 { nan } else { 1.0 });
        for k in 1..12 {
            assert_eq!(
                lof(&m, LofConfig { min_pts: k })[0].to_bits(),
                f64::NAN.to_bits(),
                "nan row {nan:?}, k={k}"
            );
        }
        assert_matches_reference(&format!("nan row {nan:?}"), &m, 1);
    }
}

#[test]
fn generated_log_under_token_distance() {
    let log = LogGenerator::generate(&LogConfig {
        queries: 300,
        seed: 3,
        ..Default::default()
    });
    let m = DistanceMatrix::compute(&log, &TokenDistance).unwrap();
    // The log's ties make the 5-neighbourhoods far larger than 5, so the
    // tie-extension path carries most of the work.
    let rows = sorted_rows(&m);
    let n = m.len();
    let members: usize = (0..n)
        .map(|i| range_among(&m, i, m.get(i, rows[i][4]), 0..n).len())
        .sum();
    assert!(
        members > 3 * 5 * n,
        "mean |N_5| = {}",
        members as f64 / n as f64
    );
    assert_matches_reference("generated log", &m, 20);
}
