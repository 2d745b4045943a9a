//! Property tests for the clustering primitives the serving layer builds
//! plans from: for random symmetric dissimilarity matrices,
//! [`Dendrogram::cut`] must partition into exactly `k` canonical clusters
//! for every `1 ≤ k ≤ n`, merge heights must be monotone under every
//! linkage (all three rules are reducible, so the naive global-min
//! agglomeration can never invert), dendrograms must round-trip through
//! their canonical byte serialization, and DBSCAN labels must satisfy the
//! core/noise invariants in canonical wire form. The selection-aware
//! neighbour queries (`knn_among`, `range_among`) must equal a naive full
//! sort / filter on random, tie-heavy and NaN matrices, over random
//! candidate subsets in random order.

use dpe_distance::{nan_last_cmp, DistanceMatrix};
use dpe_mining::{
    agglomerative, canonical_dbscan_labels, canonical_labels, dbscan, knn_among, range_among,
    DbscanConfig, DbscanLabel, Dendrogram, Linkage, NOISE,
};
use proptest::prelude::*;

const MAX_N: usize = 12;
const MAX_CELLS: usize = MAX_N * (MAX_N - 1) / 2;

/// A symmetric zero-diagonal matrix over the first `n(n−1)/2` sampled
/// cells, each in `[0, 1)` on a 1/1000 grid (so distance ties actually
/// happen and exercise the deterministic tie-breaks).
fn matrix(n: usize, cells: &[u64]) -> DistanceMatrix {
    DistanceMatrix::from_fn(n, |i, j| {
        if i == j {
            return 0.0;
        }
        let (lo, hi) = (i.min(j), i.max(j));
        (cells[hi * (hi - 1) / 2 + lo] % 1000) as f64 / 1000.0
    })
}

/// Like [`matrix`], but `kind` picks fine-grid cells (0), heavy ties on a
/// quarter grid (1), or quarter-grid cells with NaNs of both signs (2).
fn neighbour_matrix(n: usize, cells: &[u64], kind: u8) -> DistanceMatrix {
    DistanceMatrix::from_fn(n, |i, j| {
        if i == j {
            return 0.0;
        }
        let c = cells[i.max(j) * (i.max(j) - 1) / 2 + i.min(j)];
        match (kind, c % 7) {
            (0, _) => (c % 1000) as f64 / 1000.0,
            (2, 0) => f64::NAN,
            (2, 1) => -f64::NAN,
            _ => (c % 4) as f64 / 4.0,
        }
    })
}

const LINKAGES: [Linkage; 3] = [Linkage::Complete, Linkage::Single, Linkage::Average];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cut_yields_exactly_k_canonical_clusters(
        n in 2usize..=MAX_N,
        cells in proptest::collection::vec(0u64..1_000_000, MAX_CELLS..MAX_CELLS + 1),
    ) {
        let m = matrix(n, &cells);
        for linkage in LINKAGES {
            let d = agglomerative(&m, linkage);
            prop_assert_eq!(d.n, n);
            prop_assert_eq!(d.merges.len(), n - 1);
            for k in 1..=n {
                let cut = d.cut(k);
                prop_assert_eq!(cut.len(), n);
                let mut seen: Vec<usize> = cut.clone();
                seen.sort_unstable();
                seen.dedup();
                prop_assert_eq!(seen.len(), k, "{:?} cut({}) must have k clusters", linkage, k);
                prop_assert_eq!(*cut.iter().max().unwrap(), k - 1);
                // Canonical: ids are already numbered by first appearance,
                // so canonicalization is the identity.
                let canon = canonical_labels(&cut);
                let as_i64: Vec<i64> = cut.iter().map(|&c| c as i64).collect();
                prop_assert_eq!(canon, as_i64, "{:?} cut({}) not canonical", linkage, k);
            }
            // The extremes: one cluster, and the identity partition.
            prop_assert!(d.cut(1).iter().all(|&c| c == 0));
            prop_assert_eq!(d.cut(n), (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn merge_heights_are_monotone_per_linkage(
        n in 2usize..=MAX_N,
        cells in proptest::collection::vec(0u64..1_000_000, MAX_CELLS..MAX_CELLS + 1),
    ) {
        let m = matrix(n, &cells);
        for linkage in LINKAGES {
            let d = agglomerative(&m, linkage);
            for pair in d.merges.windows(2) {
                prop_assert!(
                    pair[0].distance <= pair[1].distance,
                    "{:?} inverted: {} then {}",
                    linkage,
                    pair[0].distance,
                    pair[1].distance
                );
            }
            // Merge ids are allocated in order, operands always older.
            for (step, merge) in d.merges.iter().enumerate() {
                prop_assert_eq!(merge.id, n + step);
                prop_assert!(merge.a < merge.b && merge.b < merge.id);
            }
        }
    }

    #[test]
    fn dendrogram_serialization_round_trips(
        n in 2usize..=MAX_N,
        cells in proptest::collection::vec(0u64..1_000_000, MAX_CELLS..MAX_CELLS + 1),
    ) {
        let m = matrix(n, &cells);
        for linkage in LINKAGES {
            let d = agglomerative(&m, linkage);
            let back = Dendrogram::from_bytes(&d.to_bytes())
                .expect("canonical serialization must parse");
            prop_assert_eq!(&back, &d);
            prop_assert_eq!(back.digest(), d.digest());
        }
    }

    #[test]
    fn dbscan_core_and_noise_invariants_hold(
        n in 2usize..=MAX_N,
        cells in proptest::collection::vec(0u64..1_000_000, MAX_CELLS..MAX_CELLS + 1),
        eps_grid in 0u64..1_000,
        min_pts in 1usize..6,
    ) {
        let m = matrix(n, &cells);
        let eps = eps_grid as f64 / 1000.0;
        let labels = dbscan(&m, DbscanConfig { eps, min_pts });
        prop_assert_eq!(labels.len(), n);

        let neighbours = |i: usize| -> Vec<usize> {
            (0..n).filter(|&j| m.get(i, j) <= eps).collect()
        };
        for (i, label) in labels.iter().enumerate() {
            let degree = neighbours(i).len();
            match label {
                // Core points are always clustered, never noise.
                DbscanLabel::Noise => prop_assert!(
                    degree < min_pts,
                    "noise point {} has {} ≥ {} neighbours within eps",
                    i, degree, min_pts
                ),
                DbscanLabel::Cluster(_) => {}
            }
            if degree >= min_pts {
                prop_assert!(
                    matches!(label, DbscanLabel::Cluster(_)),
                    "core point {} left unclustered", i
                );
            }
        }

        // Two core points within eps of each other are directly
        // density-reachable, so they must share a cluster.
        for i in 0..n {
            for j in 0..n {
                if neighbours(i).len() >= min_pts
                    && neighbours(j).len() >= min_pts
                    && m.get(i, j) <= eps
                {
                    prop_assert_eq!(labels[i], labels[j], "split core pair ({}, {})", i, j);
                }
            }
        }

        // Canonical wire form: dbscan discovers clusters in index order, so
        // canonicalization is the identity mapping with noise at −1.
        let canon = canonical_dbscan_labels(&labels);
        let direct: Vec<i64> = labels
            .iter()
            .map(|l| match *l {
                DbscanLabel::Noise => NOISE,
                DbscanLabel::Cluster(id) => id as i64,
            })
            .collect();
        prop_assert_eq!(canon, direct);
    }

    #[test]
    fn knn_and_range_among_match_a_naive_reference(
        n in 2usize..=MAX_N,
        cells in proptest::collection::vec(0u64..1_000_000, MAX_CELLS..MAX_CELLS + 1),
        kind in 0u8..3,
        // Per item: whether it is a candidate, and its sort key in the
        // candidate order.
        picks in proptest::collection::vec((0u8..3, 0u64..1_000_000), MAX_N..MAX_N + 1),
        radius_grid in 0u64..1_200,
    ) {
        let m = neighbour_matrix(n, &cells, kind);
        let mut candidates: Vec<usize> = (0..n).filter(|&j| picks[j].0 != 0).collect();
        candidates.sort_by_key(|&j| (picks[j].1, j));
        let radius = radius_grid as f64 / 1000.0;
        for i in 0..n {
            let mut sorted: Vec<usize> = candidates.iter().copied().filter(|&j| j != i).collect();
            sorted.sort_by(|&a, &b| nan_last_cmp(m.get(i, a), m.get(i, b)).then(a.cmp(&b)));
            for k in 0..=n {
                let got = knn_among(&m, i, k, candidates.iter().copied());
                prop_assert_eq!(got, sorted[..k.min(sorted.len())].to_vec(), "i={} k={}", i, k);
            }
            let within: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&j| j != i && m.get(i, j) <= radius)
                .collect();
            prop_assert_eq!(range_among(&m, i, radius, candidates.iter().copied()), within);
        }
    }
}
