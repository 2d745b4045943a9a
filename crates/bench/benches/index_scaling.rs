//! PR 9 — the metric-index escape from the O(n²) matrix wall.
//!
//! The claim, measured: a [`VpTree`] built over an **on-demand**
//! [`DistanceSource`] (no `n(n−1)/2` matrix is ever materialized) answers
//! kNN in sub-linear time per query, so the build-plus-query trajectory
//! stays sub-quadratic through n = 10⁵ — a store size where the packed
//! matrix alone would need ~5 · 10⁹ cells. A linear `scan_knn` baseline
//! over the same source is timed beside it; the gap is the triangle
//! inequality doing its work.
//!
//! Correctness is asserted before anything is timed: at every n the tree's
//! answers equal the linear scan's (same NaN-last, index-tie-break order).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpe_distance::{nan_last_cmp, DistanceError, DistanceSource, VpTree};

/// Synthetic 2-D Euclidean points evaluated on demand — a stand-in for a
/// query log too large to materialize a packed matrix over. Deterministic
/// splitmix64 coordinates, mildly clustered so pruning has structure to
/// exploit (uniform points in 2-D already prune well; clusters are the
/// realistic shape of a tenant's query log).
struct PointSource {
    pts: Vec<(f64, f64)>,
}

impl PointSource {
    fn new(n: usize, seed: u64) -> PointSource {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let pts = (0..n)
            .map(|_| {
                let cluster = (next() % 16) as f64;
                let unit = |v: u64| (v >> 11) as f64 / (1u64 << 53) as f64;
                let cx = (cluster % 4.0) * 8.0;
                let cy = (cluster / 4.0).floor() * 8.0;
                (cx + unit(next()), cy + unit(next()))
            })
            .collect();
        PointSource { pts }
    }
}

impl DistanceSource for PointSource {
    fn len(&self) -> usize {
        self.pts.len()
    }

    fn distance(&self, i: usize, j: usize) -> Result<f64, DistanceError> {
        let (xi, yi) = self.pts[i];
        let (xj, yj) = self.pts[j];
        Ok(((xi - xj).powi(2) + (yi - yj).powi(2)).sqrt())
    }
}

/// The matrix paths' kNN semantics (NaN last, ties by index) as a linear
/// scan over the source — the O(n)-per-query baseline the tree must beat.
fn scan_knn(source: &PointSource, item: usize, k: usize) -> Vec<usize> {
    let mut others: Vec<usize> = (0..source.len()).filter(|&j| j != item).collect();
    let d = |j: usize| source.distance(item, j).unwrap();
    let cmp = |&a: &usize, &b: &usize| nan_last_cmp(d(a), d(b)).then(a.cmp(&b));
    if k < others.len() && k > 0 {
        others.select_nth_unstable_by(k - 1, cmp);
        others.truncate(k);
    }
    others.sort_by(cmp);
    others
}

fn bench_index_scaling(c: &mut Criterion) {
    const K: usize = 10;

    let mut group = c.benchmark_group("index_scaling");
    for &n in &[1_000usize, 10_000, 100_000] {
        let source = PointSource::new(n, 0x1D0 + n as u64);
        let tree = VpTree::build(&source).unwrap();

        // Pin before timing: tree answers ≡ scan answers, and the pruning
        // counters account for every item exactly once.
        let mut pruned_total = 0u64;
        for item in [0usize, n / 3, n - 1] {
            let (got, counters) = tree.knn(&source, item, K).unwrap();
            assert_eq!(got, scan_knn(&source, item, K), "n={n} anchor {item}");
            assert_eq!(counters.computed + counters.pruned, n as u64);
            pruned_total += counters.pruned;
        }
        assert!(
            pruned_total > 0,
            "n={n}: the tree never pruned — queries are effectively linear"
        );

        group.bench_with_input(BenchmarkId::new("build", n), &n, |b, _| {
            b.iter(|| VpTree::build(&source).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("vp_knn", n), &n, |b, _| {
            let mut anchor = 0usize;
            b.iter(|| {
                anchor = (anchor + 7919) % n;
                tree.knn(&source, anchor, K).unwrap()
            });
        });
        group.bench_with_input(BenchmarkId::new("scan_knn", n), &n, |b, _| {
            let mut anchor = 0usize;
            b.iter(|| {
                anchor = (anchor + 7919) % n;
                scan_knn(&source, anchor, K)
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_index_scaling
}
criterion_main!(benches);
