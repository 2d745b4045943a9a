//! P3 — batched serving vs per-query dispatch on the sharded engine.
//!
//! The acceptance workload: **4 shards, 8 clients**, shard/item/request
//! choices Zipf-skewed (s = 1.0) like a real multi-tenant query mix. Three
//! serving disciplines over the identical request stream:
//!
//! * `per_query_sequential` — the no-engine baseline: one lock acquisition
//!   per request, no coalescing, no cache.
//! * `serve_batch_cold` — the batch path with the response cache cleared
//!   every iteration: measures per-shard coalescing alone.
//! * `serve_batch_warm` — the steady state: Zipf repetition makes most
//!   requests cache hits, so repeated encrypted queries never recompute.
//! * `submit_drain_8clients` — the full concurrent surface: 8 real client
//!   threads submitting, then one 4-worker drain.
//!
//! Correctness is asserted before timing: the batched responses must be
//! bit-identical to sequential dispatch.
//!
//! P4 — the clustering serving surface (`server_clustering_4shard`): the
//! same engine answering whole-shard DBSCAN / k-medoids / hierarchical /
//! frequent-itemset requests. The headline is plan amortization: one
//! dendrogram build per (shard, epoch, linkage) serving every `cut(k)` —
//! `serve_batch_warm_plans` (response cache cleared, plans kept) vs
//! `serve_batch_cold` (both cleared) isolates it, and `cut_sweep_warm_plan`
//! pins the zero-extra-builds claim with the plan counters.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use dpe_distance::TokenDistance;
use dpe_mining::Linkage;
use dpe_server::{ClusterRule, PlanOp, Projection, Request, Response, Server};
use dpe_workload::{LogConfig, LogGenerator, Zipf};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SHARDS: usize = 4;
const CLIENTS: usize = 8;
const PER_CLIENT: usize = 40;
const PER_SHARD: usize = 96;

fn build_server() -> Server<TokenDistance> {
    let server = Server::builder(TokenDistance)
        .shards(SHARDS)
        .cache_capacity(512)
        .build();
    for shard in 0..SHARDS {
        let log = LogGenerator::generate(&LogConfig {
            queries: PER_SHARD,
            seed: 0x5E21 + shard as u64,
            ..Default::default()
        });
        server.ingest(shard, &log).unwrap();
    }
    server
}

/// One client's Zipf-skewed request stream: hot shards, hot items, and a
/// kind mix dominated by kNN — the shape that makes caching matter.
fn client_stream(client: usize) -> Vec<Request> {
    let shard_zipf = Zipf::new(SHARDS, 1.0);
    let item_zipf = Zipf::new(PER_SHARD, 1.0);
    let kind_zipf = Zipf::new(4, 1.0);
    let k_zipf = Zipf::new(8, 1.0);
    let mut rng = StdRng::seed_from_u64(0xC11E07 + client as u64);
    (0..PER_CLIENT)
        .map(|_| {
            let shard = shard_zipf.sample(&mut rng);
            let item = item_zipf.sample(&mut rng);
            match kind_zipf.sample(&mut rng) {
                0 => Request::Knn {
                    shard,
                    item,
                    k: 1 + k_zipf.sample(&mut rng),
                },
                1 => Request::Range {
                    shard,
                    item,
                    radius: 0.1 + 0.1 * (k_zipf.sample(&mut rng) as f64),
                },
                2 => Request::Lof {
                    shard,
                    min_pts: 3 + k_zipf.sample(&mut rng),
                },
                _ => Request::Outliers {
                    shard,
                    p: 0.7,
                    d: 0.4 + 0.05 * (k_zipf.sample(&mut rng) as f64),
                },
            }
        })
        .collect()
}

fn bench_server_throughput(c: &mut Criterion) {
    let server = build_server();
    let requests: Vec<Request> = (0..CLIENTS).flat_map(client_stream).collect();
    let total = requests.len() as u64;

    // Correctness gate: batched must be bit-identical to per-query
    // sequential dispatch before any timing is believed.
    let sequential: Vec<_> = requests
        .iter()
        .map(|r| server.serve_one_uncached(r).unwrap())
        .collect();
    for threads in [1, 4] {
        let batched = server.serve_batch(&requests, threads);
        for ((a, b), req) in batched.iter().zip(&sequential).zip(&requests) {
            assert!(
                a.as_ref().unwrap().bits_eq(b),
                "batched({threads}) diverged on {req:?}"
            );
        }
    }

    let mut group = c.benchmark_group("server_4shard_8client");
    group.sample_size(10);
    group.throughput(Throughput::Elements(total));

    group.bench_function("per_query_sequential", |b| {
        b.iter(|| {
            requests
                .iter()
                .map(|r| server.serve_one_uncached(r).unwrap())
                .collect::<Vec<_>>()
        });
    });

    group.bench_function("serve_batch_cold", |b| {
        b.iter_batched(
            || server.clear_cache(),
            |()| server.serve_batch(&requests, 4),
            BatchSize::PerIteration,
        );
    });

    // Prime once so every measured pass runs against a warm cache.
    server.clear_cache();
    let _ = server.serve_batch(&requests, 4);
    group.bench_function("serve_batch_warm", |b| {
        b.iter(|| server.serve_batch(&requests, 4));
    });

    group.bench_function("submit_drain_8clients", |b| {
        b.iter(|| {
            std::thread::scope(|scope| {
                for client in 0..CLIENTS {
                    let server = &server;
                    let stream = client_stream(client);
                    scope.spawn(move || {
                        for req in stream {
                            server.submit(req).unwrap();
                        }
                    });
                }
            });
            server.drain(4)
        });
    });
    group.finish();

    let cache = server.stats().cache;
    let sched = server.stats().scheduler;
    println!(
        "cache: {} hits / {} misses ({:.0}% hit rate), {} evictions",
        cache.hits,
        cache.misses,
        100.0 * cache.hit_rate(),
        cache.evictions
    );
    println!(
        "scheduler: {} served in {} batches ({:.1} requests/lock)",
        sched.served,
        sched.batches,
        sched.served as f64 / sched.batches.max(1) as f64,
    );
}

/// One client's Zipf-skewed clustering stream: hierarchical cut sweeps
/// dominate (two of four kind slots), so plan reuse is the load-bearing
/// optimization — exactly the shape a dashboard recomputing cluster views
/// at many granularities produces.
fn clustering_stream(client: usize) -> Vec<Request> {
    const LINKAGES: [Linkage; 3] = [Linkage::Complete, Linkage::Single, Linkage::Average];
    let shard_zipf = Zipf::new(SHARDS, 1.0);
    let linkage_zipf = Zipf::new(3, 1.0);
    let k_zipf = Zipf::new(16, 1.0);
    let kind_zipf = Zipf::new(4, 1.0);
    let mut rng = StdRng::seed_from_u64(0xC105 + client as u64);
    (0..PER_CLIENT / 2)
        .map(|_| {
            let shard = shard_zipf.sample(&mut rng);
            match kind_zipf.sample(&mut rng) {
                0 | 1 => Request::Hierarchical {
                    shard,
                    linkage: LINKAGES[linkage_zipf.sample(&mut rng)],
                    k: 1 + k_zipf.sample(&mut rng),
                },
                2 => Request::Dbscan {
                    shard,
                    eps: 0.2 + 0.05 * (k_zipf.sample(&mut rng) % 4) as f64,
                    min_pts: 3,
                },
                _ => Request::KMedoids {
                    shard,
                    k: 2 + k_zipf.sample(&mut rng) % 6,
                },
            }
        })
        .collect()
}

fn bench_clustering_plans(c: &mut Criterion) {
    let server = build_server();
    let requests: Vec<Request> = (0..CLIENTS).flat_map(clustering_stream).collect();
    let total = requests.len() as u64;

    // Correctness gate: the plan-cached batch path must stay bit-identical
    // to per-query dispatch (which rebuilds every dendrogram from scratch).
    let sequential: Vec<_> = requests
        .iter()
        .map(|r| server.serve_one_uncached(r).unwrap())
        .collect();
    let batched = server.serve_batch(&requests, 4);
    for ((a, b), req) in batched.iter().zip(&sequential).zip(&requests) {
        assert!(
            a.as_ref().unwrap().bits_eq(b),
            "plan-cached batch diverged on {req:?}"
        );
    }

    let mut group = c.benchmark_group("server_clustering_4shard");
    group.sample_size(10);
    group.throughput(Throughput::Elements(total));

    group.bench_function("per_query_sequential", |b| {
        b.iter(|| {
            requests
                .iter()
                .map(|r| server.serve_one_uncached(r).unwrap())
                .collect::<Vec<_>>()
        });
    });

    group.bench_function("serve_batch_cold", |b| {
        b.iter_batched(
            || {
                server.clear_cache();
                server.clear_plans();
            },
            |()| server.serve_batch(&requests, 4),
            BatchSize::PerIteration,
        );
    });

    // Plans warm, responses cold: every request recomputes its answer, but
    // hierarchical cuts read the cached dendrograms — the plan layer's
    // isolated win over `serve_batch_cold`.
    group.bench_function("serve_batch_warm_plans", |b| {
        b.iter_batched(
            || server.clear_cache(),
            |()| server.serve_batch(&requests, 4),
            BatchSize::PerIteration,
        );
    });

    server.clear_cache();
    let _ = server.serve_batch(&requests, 4);
    group.bench_function("serve_batch_warm", |b| {
        b.iter(|| server.serve_batch(&requests, 4));
    });

    // The amortization claim in its purest form: a k-sweep over one warm
    // plan. The response cache is cleared per iteration so every cut is
    // recomputed — from the same dendrogram.
    let sweep: Vec<Request> = (1..=32)
        .map(|k| Request::Hierarchical {
            shard: 0,
            linkage: Linkage::Complete,
            k,
        })
        .collect();
    server.serve_batch(&sweep, 1); // warm the plan
    let builds_before_sweep = server.stats().plans.builds;
    group.bench_function("cut_sweep_warm_plan", |b| {
        b.iter_batched(
            || server.clear_cache(),
            |()| server.serve_batch(&sweep, 1),
            BatchSize::PerIteration,
        );
    });
    group.finish();

    let plans = server.stats().plans;
    assert_eq!(
        plans.builds, builds_before_sweep,
        "a warm plan must serve every cut(k) with zero additional builds"
    );
    println!(
        "plans: {} builds amortized over {} hits ({} invalidations, {} live)",
        plans.builds, plans.hits, plans.invalidations, plans.live
    );
}

/// One client's Zipf-skewed compound specs: a range filter around a hot
/// item, then hierarchical cluster labels projected onto the selection —
/// the PR 8 workload (`compound_pipeline_4shard`).
fn compound_specs(client: usize) -> Vec<(usize, usize, f64, Linkage, usize)> {
    const LINKAGES: [Linkage; 2] = [Linkage::Complete, Linkage::Average];
    let shard_zipf = Zipf::new(SHARDS, 1.0);
    let item_zipf = Zipf::new(PER_SHARD, 1.0);
    let k_zipf = Zipf::new(8, 1.0);
    let mut rng = StdRng::seed_from_u64(0xC0908 + client as u64);
    (0..PER_CLIENT / 2)
        .map(|_| {
            let shard = shard_zipf.sample(&mut rng);
            let item = item_zipf.sample(&mut rng);
            let radius = 0.3 + 0.1 * (k_zipf.sample(&mut rng) % 5) as f64;
            let linkage = LINKAGES[k_zipf.sample(&mut rng) % 2];
            let k = 2 + k_zipf.sample(&mut rng);
            (shard, item, radius, linkage, k)
        })
        .collect()
}

/// P8 — the compound-query pipeline (`compound_pipeline_4shard`): one
/// filter → cluster-label pipeline answered in a single drain, vs the only
/// option clients had before `Request::Pipeline` — two round trips (range,
/// then whole-shard labels) composed client-side. Three disciplines over
/// the identical spec stream, response cache cleared per iteration so the
/// executor (not memoization) is what's measured:
///
/// * `multi_round_trip` — per spec, two sequential single-request calls
///   through the full engine path, then client-side projection.
/// * `two_phase_batched` — the best a client could do without compounds:
///   one batched range phase, one batched label phase, then projection.
/// * `compound_one_drain` — the pipeline: every spec is a single
///   `FilterRange → ClusterLabels → Project` request, one 4-worker batch.
///
/// Bit-identity of the compound path to the client-side composition is
/// asserted before any timing is believed.
fn bench_compound_pipeline(c: &mut Criterion) {
    let server = build_server();
    let specs: Vec<_> = (0..CLIENTS).flat_map(compound_specs).collect();
    let total = specs.len() as u64;

    let compounds: Vec<Request> = specs
        .iter()
        .map(|&(shard, item, radius, linkage, k)| Request::Pipeline {
            shard,
            ops: vec![
                PlanOp::FilterRange { item, radius },
                PlanOp::ClusterLabels(ClusterRule::Hierarchical { linkage, k }),
                PlanOp::Project(Projection::Labels),
            ],
        })
        .collect();
    let ranges: Vec<Request> = specs
        .iter()
        .map(|&(shard, item, radius, ..)| Request::Range {
            shard,
            item,
            radius,
        })
        .collect();
    let cuts: Vec<Request> = specs
        .iter()
        .map(|&(shard, _, _, linkage, k)| Request::Hierarchical { shard, linkage, k })
        .collect();

    let project = |sel: &Response, full: &Response| -> Vec<i64> {
        let (Response::Indices(sel), Response::Labels(full)) = (sel, full) else {
            panic!("range must answer indices, labels must answer labels");
        };
        sel.iter().map(|&j| full[j]).collect()
    };
    let compose_round_trips = |threads: usize| -> Vec<Vec<i64>> {
        let sels = server.serve_batch(&ranges, threads);
        let fulls = server.serve_batch(&cuts, threads);
        sels.iter()
            .zip(&fulls)
            .map(|(s, f)| project(s.as_ref().unwrap(), f.as_ref().unwrap()))
            .collect()
    };

    // Correctness gate: the one-drain compound answers must be
    // bit-identical to the two-round-trip client composition.
    let compound_answers = server.serve_batch(&compounds, 4);
    let composed = compose_round_trips(4);
    for ((a, want), req) in compound_answers.iter().zip(&composed).zip(&compounds) {
        let Response::Labels(got) = a.as_ref().unwrap() else {
            panic!("compound must answer labels");
        };
        assert_eq!(got, want, "compound diverged from composition on {req:?}");
    }

    let mut group = c.benchmark_group("compound_pipeline_4shard");
    group.sample_size(10);
    group.throughput(Throughput::Elements(total));

    group.bench_function("multi_round_trip", |b| {
        b.iter_batched(
            || server.clear_cache(),
            |()| {
                ranges
                    .iter()
                    .zip(&cuts)
                    .map(|(r, h)| {
                        let sel = server.serve_batch(std::slice::from_ref(r), 1);
                        let full = server.serve_batch(std::slice::from_ref(h), 1);
                        project(sel[0].as_ref().unwrap(), full[0].as_ref().unwrap())
                    })
                    .collect::<Vec<_>>()
            },
            BatchSize::PerIteration,
        );
    });

    group.bench_function("two_phase_batched", |b| {
        b.iter_batched(
            || server.clear_cache(),
            |()| compose_round_trips(4),
            BatchSize::PerIteration,
        );
    });

    group.bench_function("compound_one_drain", |b| {
        b.iter_batched(
            || server.clear_cache(),
            |()| server.serve_batch(&compounds, 4),
            BatchSize::PerIteration,
        );
    });
    group.finish();

    let stats = server.stats();
    println!(
        "executor: {} queries, {} rows scanned, {} plan builds / {} plan hits",
        stats.queries, stats.exec.rows_scanned, stats.exec.plan_builds, stats.exec.plan_hits
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_server_throughput, bench_clustering_plans, bench_compound_pipeline
}
criterion_main!(benches);
