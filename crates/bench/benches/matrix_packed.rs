//! P2 — the packed incremental DistanceMatrix engine.
//!
//! Three claims, measured:
//!
//! 1. **Memory**: packed upper-triangle storage holds `n(n−1)/2` cells
//!    instead of `n²` — reported below, asserted exactly.
//! 2. **Incremental wall-clock**: appending a batch of m queries via
//!    `extend` computes only the `m·n + m(m−1)/2` new pairs, vs the full
//!    `(n+m)(n+m−1)/2` of a recompute.
//! 3. **Parallel result distance**: the engine-backed measure scales over
//!    workers that share one `ResultConnection` and its memo of executed
//!    queries.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use dpe_bench::{experiment_database, result_safe_log};
use dpe_distance::{DistanceMatrix, ResultConnection, ResultDistance, TokenDistance};
use dpe_workload::{LogConfig, LogGenerator};

fn bench_matrix_packed(c: &mut Criterion) {
    const N: usize = 96;
    const M: usize = 8;
    let log = LogGenerator::generate(&LogConfig {
        queries: N + M,
        seed: 0xFACE,
        ..Default::default()
    });
    let (base_log, batch) = log.split_at(N);

    // Memory claim: the packed buffer is exactly the strict upper triangle.
    let full = DistanceMatrix::compute(&log, &TokenDistance).unwrap();
    assert_eq!(full.packed_len(), (N + M) * (N + M - 1) / 2);
    println!(
        "packed storage: {} cells for n = {} (full square would be {}, {:.1}% saved)",
        full.packed_len(),
        N + M,
        (N + M) * (N + M),
        100.0 * (1.0 - full.packed_len() as f64 / ((N + M) * (N + M)) as f64)
    );

    // Incremental claim: extend must agree bit-for-bit with the recompute.
    let base = DistanceMatrix::compute(base_log, &TokenDistance).unwrap();
    let mut extended = base.clone();
    extended.extend(base_log, batch, &TokenDistance).unwrap();
    assert!(
        full.identical(&extended),
        "extend must be bit-identical to recompute"
    );

    let mut group = c.benchmark_group("token_matrix_append8_n96");
    group.bench_function("full_recompute", |b| {
        b.iter(|| DistanceMatrix::compute(&log, &TokenDistance).unwrap());
    });
    group.bench_function("extend", |b| {
        b.iter_batched(
            || base.clone(),
            |mut m| {
                m.extend(base_log, batch, &TokenDistance).unwrap();
                m
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();

    // Parallel result distance: one shared engine connection per matrix.
    let db = experiment_database(60, 0x33);
    let rlog = result_safe_log(48, 0x34);
    let seq = DistanceMatrix::compute(&rlog, &ResultDistance::new(&db)).unwrap();
    let par = DistanceMatrix::compute_parallel(&rlog, &ResultConnection::new(&db), 4).unwrap();
    assert!(
        seq.identical(&par),
        "parallel result path must be bit-identical"
    );

    let mut group = c.benchmark_group("result_matrix_n48");
    group.bench_function("sequential", |b| {
        b.iter(|| DistanceMatrix::compute(&rlog, &ResultDistance::new(&db)).unwrap());
    });
    for threads in [2usize, 4] {
        group.bench_with_input(BenchmarkId::new("parallel", threads), &threads, |b, &t| {
            b.iter(|| {
                DistanceMatrix::compute_parallel(&rlog, &ResultConnection::new(&db), t).unwrap()
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_matrix_packed
}
criterion_main!(benches);
