//! K-medoids clustering (PAM-style alternation, Park & Jun \[5\]).

use dpe_distance::{nan_last_cmp, DistanceMatrix};

/// Result of a k-medoids run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KMedoidsResult {
    /// Medoid item indices, one per cluster, sorted ascending.
    pub medoids: Vec<usize>,
    /// Cluster assignment per item: `assignment[i]` indexes `medoids`.
    pub assignment: Vec<usize>,
    /// Number of update iterations performed.
    pub iterations: usize,
}

impl KMedoidsResult {
    /// Total within-cluster cost Σ d(i, medoid(i)).
    ///
    /// **Deterministic by contract**: the sum folds items in stable index
    /// order `0..n`, so equal matrices and equal assignments always yield
    /// the *bit-identical* float — float addition is order-sensitive, and
    /// the serving layer caches responses (including this cost) under
    /// bit-exact fingerprints, so any summation-order freedom here would be
    /// a cache-soundness bug.
    pub fn cost(&self, matrix: &DistanceMatrix) -> f64 {
        (0..self.assignment.len()).fold(0.0f64, |acc, i| {
            acc + matrix.get(i, self.medoids[self.assignment[i]])
        })
    }
}

/// Runs k-medoids on a distance matrix.
///
/// Deterministic throughout: initial medoids are chosen by the Park & Jun
/// heuristic (items minimizing the sum of normalized distances), assignment
/// ties break toward the lower medoid index, and the update step picks the
/// lowest-index cost-minimizing medoid. Panics when `k` is zero or exceeds
/// the item count.
pub fn kmedoids(matrix: &DistanceMatrix, k: usize) -> KMedoidsResult {
    let n = matrix.len();
    assert!(k >= 1 && k <= n, "k must be in 1..=n (k={k}, n={n})");

    // Park & Jun initialization: v_j = Σ_i d(i,j) / Σ_l d(i,l); take the k
    // smallest v_j.
    let row_sums: Vec<f64> = (0..n)
        .map(|i| (0..n).map(|l| matrix.get(i, l)).sum::<f64>())
        .collect();
    let mut scores: Vec<(f64, usize)> = (0..n)
        .map(|j| {
            let v = (0..n)
                .map(|i| {
                    if row_sums[i] > 0.0 {
                        matrix.get(i, j) / row_sums[i]
                    } else {
                        0.0
                    }
                })
                .sum::<f64>();
            (v, j)
        })
        .collect();
    // NaN seeding scores (degenerate measures) sort last — either NaN sign
    // — rather than panicking, so they are never picked as initial medoids.
    scores.sort_by(|a, b| nan_last_cmp(a.0, b.0).then(a.1.cmp(&b.1)));
    let mut medoids: Vec<usize> = scores.iter().take(k).map(|&(_, j)| j).collect();
    medoids.sort_unstable();

    let mut assignment = assign(matrix, &medoids);
    let mut iterations = 0;
    loop {
        iterations += 1;
        // Update: per cluster, the member minimizing the in-cluster distance
        // sum becomes the medoid.
        let mut new_medoids = medoids.clone();
        for (c, slot) in new_medoids.iter_mut().enumerate() {
            let members: Vec<usize> = (0..n).filter(|&i| assignment[i] == c).collect();
            if members.is_empty() {
                continue;
            }
            // The least cost under nan_last_cmp, ties to the lowest item
            // index: a NaN cost loses to every finite cost, and the winner
            // does not depend on the order `members` is visited in. Cost
            // ties are common on symmetric stores, and an order-dependent
            // winner would make equal matrices disagree on medoid identity
            // — unsound for fingerprint-keyed response caching.
            let cost = |c: usize| -> f64 { members.iter().map(|&m| matrix.get(c, m)).sum() };
            let best = members
                .iter()
                .map(|&c| (cost(c), c))
                .min_by(|a, b| nan_last_cmp(a.0, b.0).then(a.1.cmp(&b.1)))
                .expect("a non-empty cluster has a cheapest member");
            *slot = best.1;
        }
        new_medoids.sort_unstable();
        let new_assignment = assign(matrix, &new_medoids);
        if new_medoids == medoids && new_assignment == assignment {
            break;
        }
        medoids = new_medoids;
        assignment = new_assignment;
        if iterations > n {
            break; // cost is non-increasing; this is a safety valve
        }
    }

    KMedoidsResult {
        medoids,
        assignment,
        iterations,
    }
}

fn assign(matrix: &DistanceMatrix, medoids: &[usize]) -> Vec<usize> {
    (0..matrix.len())
        .map(|i| {
            // `medoids` is sorted ascending and the comparison is strict,
            // so distance ties deterministically assign to the lowest
            // medoid index (and an all-NaN row falls through to cluster 0).
            let mut best = (f64::INFINITY, 0usize);
            for (c, &m) in medoids.iter().enumerate() {
                let d = matrix.get(i, m);
                if d < best.0 {
                    best = (d, c);
                }
            }
            best.1
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two tight groups far apart.
    fn two_blobs() -> DistanceMatrix {
        // Items 0-2 mutually close, 3-5 mutually close, groups far apart.
        DistanceMatrix::from_fn(6, |i, j| {
            let gi = i / 3;
            let gj = j / 3;
            if gi == gj {
                0.1
            } else {
                1.0
            }
        })
    }

    #[test]
    fn separates_two_blobs() {
        let r = kmedoids(&two_blobs(), 2);
        assert_eq!(r.assignment[0], r.assignment[1]);
        assert_eq!(r.assignment[1], r.assignment[2]);
        assert_eq!(r.assignment[3], r.assignment[4]);
        assert_eq!(r.assignment[4], r.assignment[5]);
        assert_ne!(r.assignment[0], r.assignment[3]);
    }

    #[test]
    fn k_equals_n_zero_cost() {
        let m = two_blobs();
        let r = kmedoids(&m, 6);
        assert_eq!(r.cost(&m), 0.0);
        assert_eq!(r.medoids, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn k_one_single_cluster() {
        let r = kmedoids(&two_blobs(), 1);
        assert!(r.assignment.iter().all(|&c| c == 0));
    }

    #[test]
    fn deterministic() {
        let m = DistanceMatrix::from_fn(20, |i, j| ((i * 7 + j * 13) % 17) as f64 / 17.0 + 0.01);
        assert_eq!(kmedoids(&m, 4), kmedoids(&m, 4));
    }

    #[test]
    fn cost_never_worse_than_initialization() {
        let m = DistanceMatrix::from_fn(15, |i, j| ((i + j) % 7) as f64 / 7.0 + 0.05);
        let r = kmedoids(&m, 3);
        // Final medoids are local optima: swapping any medoid for any other
        // member of its cluster must not lower in-cluster cost.
        for (c, &medoid) in r.medoids.iter().enumerate() {
            let members: Vec<usize> = (0..m.len()).filter(|&i| r.assignment[i] == c).collect();
            let current: f64 = members.iter().map(|&x| m.get(medoid, x)).sum();
            for &alt in &members {
                let alt_cost: f64 = members.iter().map(|&x| m.get(alt, x)).sum();
                assert!(alt_cost >= current - 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "k must be in")]
    fn zero_k_panics() {
        kmedoids(&two_blobs(), 0);
    }

    /// A symmetric pseudo-random matrix from one seed (xorshift-mixed LCG,
    /// no RNG dependency needed).
    fn seeded_matrix(seed: u64, n: usize) -> DistanceMatrix {
        DistanceMatrix::from_fn(n, |i, j| {
            let (lo, hi) = (i.min(j) as u64, i.max(j) as u64);
            let mut s = seed ^ (lo.wrapping_mul(0x9E3779B97F4A7C15)) ^ (hi << 32);
            s ^= s >> 33;
            s = s.wrapping_mul(0xFF51AFD7ED558CCD);
            s ^= s >> 33;
            (s % 10_000) as f64 / 10_000.0 + 0.001
        })
    }

    #[test]
    fn seeded_runs_are_bit_identical_including_cost() {
        // The serving layer caches k-medoids answers (medoids, assignment
        // AND cost) under bit-exact fingerprints: two runs on equal
        // matrices must agree on everything down to the cost's bit pattern.
        for seed in [0xA11CE, 0xB0B, 0xD15EA5E] {
            for (n, k) in [(17, 3), (24, 5), (9, 9)] {
                let m1 = seeded_matrix(seed, n);
                let m2 = seeded_matrix(seed, n);
                let (r1, r2) = (kmedoids(&m1, k), kmedoids(&m2, k));
                assert_eq!(r1, r2, "seed {seed:#x}, n={n}, k={k}");
                assert_eq!(
                    r1.cost(&m1).to_bits(),
                    r2.cost(&m2).to_bits(),
                    "cost bits diverged for seed {seed:#x}, n={n}, k={k}"
                );
            }
        }
    }

    #[test]
    fn medoid_update_ties_break_to_the_lowest_index() {
        // Four items pairwise equidistant: every member of every cluster
        // ties on in-cluster cost, so the chosen medoids are decided purely
        // by the tie-break — which must pick the lowest item indices.
        let m = DistanceMatrix::from_fn(4, |_, _| 1.0);
        let r = kmedoids(&m, 2);
        assert_eq!(r.medoids, vec![0, 1]);
        // Assignment ties (equidistant to both medoids) go to the lower
        // medoid index; items 2 and 3 are distance 1 from both.
        assert_eq!(r.assignment[2], 0);
        assert_eq!(r.assignment[3], 0);
    }
}
