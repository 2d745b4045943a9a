//! Differential oracle suite for the served clustering surface.
//!
//! The contract, mirroring `concurrency.rs` for the four clustering
//! request kinds: however many client threads submit, however batches are
//! grouped and plans cached, and whenever streaming inserts land, every
//! served `Dbscan` / `KMedoids` / `Hierarchical` / `FrequentItemsets`
//! response is **bit-identical** (`bits_eq`) to a direct `dpe_mining` call
//! on a distance matrix recomputed sequentially from scratch — a code path
//! the server never touches. Plan caching and batch coalescing may change
//! *when* a dendrogram is built, never *what* any cut answers. Itemsets are
//! checked against the level-wise Apriori reference shared with
//! `dpe-mining`'s `apriori_oracle`, not against the miner the server runs.

#[path = "../../mining/tests/level_wise/mod.rs"]
mod level_wise;

use dpe_core::{QueryEncryptor, TokenDpe};
use dpe_crypto::MasterKey;
use dpe_distance::{DistanceMatrix, TokenDistance};
use dpe_mining::apriori::Transaction;
use dpe_mining::{agglomerative, canonical_dbscan_labels, dbscan, kmedoids, DbscanConfig, Linkage};
use dpe_server::{Request, Response, Server, Ticket};
use dpe_sql::{feature_set, Query};
use dpe_workload::{LogConfig, LogGenerator};
use std::sync::Barrier;

const SHARDS: usize = 4;
const LINKAGES: [Linkage; 3] = [Linkage::Complete, Linkage::Single, Linkage::Average];

fn tenant_log(shard: usize, n: usize) -> Vec<Query> {
    LogGenerator::generate(&LogConfig {
        queries: n,
        seed: 0xC10C + shard as u64,
        ..Default::default()
    })
}

fn build_server(per_shard: usize, cache: usize) -> Server<TokenDistance> {
    let server = Server::builder(TokenDistance)
        .shards(SHARDS)
        .cache_capacity(cache)
        .build();
    for shard in 0..SHARDS {
        server.ingest(shard, &tenant_log(shard, per_shard)).unwrap();
    }
    server
}

/// The deterministic clustering stream client `c` submits: a fixed
/// interleaving of all four kinds across the shards, parameter grids wide
/// enough to exercise plan reuse (many k per linkage) and cache keying.
fn client_stream(c: usize, len: usize, per_shard: usize) -> Vec<Request> {
    (0..len)
        .map(|i| {
            let shard = (c * 3 + i) % SHARDS;
            match (c + i * 7) % 6 {
                0 => Request::Dbscan {
                    shard,
                    eps: 0.2 + 0.1 * ((i % 5) as f64),
                    min_pts: 2 + i % 3,
                },
                1 => Request::KMedoids {
                    shard,
                    k: 1 + (c + i) % (per_shard.min(6)),
                },
                2 | 3 => Request::Hierarchical {
                    shard,
                    linkage: LINKAGES[(c + i) % 3],
                    k: 1 + (i * 5 + c) % per_shard,
                },
                4 => Request::FrequentItemsets {
                    shard,
                    min_support: 2 + i % 4,
                },
                _ => Request::Knn {
                    shard,
                    item: (c + i * 3) % per_shard,
                    k: 1 + i % 5,
                },
            }
        })
        .collect()
}

/// Single-threaded oracle: direct `dpe_mining` calls on a sequentially
/// recomputed matrix (and, for itemsets, on the raw tenant log).
fn oracle(matrix: &DistanceMatrix, log: &[Query], request: &Request) -> Response {
    match *request {
        Request::Dbscan { eps, min_pts, .. } => Response::Labels(canonical_dbscan_labels(&dbscan(
            matrix,
            DbscanConfig { eps, min_pts },
        ))),
        Request::KMedoids { k, .. } => {
            let r = kmedoids(matrix, k);
            Response::Medoids {
                cost: r.cost(matrix),
                medoids: r.medoids,
                assignment: r.assignment,
            }
        }
        Request::Hierarchical { linkage, k, .. } => Response::Labels(
            agglomerative(matrix, linkage)
                .cut(k)
                .into_iter()
                .map(|c| c as i64)
                .collect(),
        ),
        Request::FrequentItemsets { min_support, .. } => reference_itemsets(log, min_support),
        Request::Knn { item, k, .. } => Response::Indices(dpe_mining::knn_indices(matrix, item, k)),
        _ => unreachable!("stream only issues clustering kinds + knn"),
    }
}

/// The level-wise reference over each query's printed `features(Q)`.
fn reference_itemsets(log: &[Query], min_support: usize) -> Response {
    let tx: Vec<Transaction<String>> = log
        .iter()
        .map(|q| feature_set(q).iter().map(|f| f.to_string()).collect())
        .collect();
    Response::Itemsets(
        level_wise::frequent_itemsets(&tx, min_support)
            .into_iter()
            .map(|f| (f.items.into_iter().collect(), f.support))
            .collect(),
    )
}

/// Per-shard (matrix, log) pairs recomputed from scratch — the server
/// never sees these objects.
fn oracle_stores(per_shard: usize, extra: usize) -> Vec<(DistanceMatrix, Vec<Query>)> {
    (0..SHARDS)
        .map(|shard| {
            let mut log = tenant_log(shard, per_shard);
            log.extend(tenant_log(shard + 100, extra));
            let m = DistanceMatrix::compute(&log, &TokenDistance).unwrap();
            (m, log)
        })
        .collect()
}

fn check(
    stores: &[(DistanceMatrix, Vec<Query>)],
    submissions: &[(Ticket, Request)],
    results: &[(Ticket, Result<Response, dpe_server::ServerError>)],
) {
    for (ticket, request) in submissions {
        let (_, result) = results
            .iter()
            .find(|(t, _)| t == ticket)
            .expect("every submitted ticket answered");
        let (matrix, log) = &stores[request.shard()];
        let expect = oracle(matrix, log, request);
        assert!(
            result.as_ref().unwrap().bits_eq(&expect),
            "ticket {ticket:?} diverged for {request:?}"
        );
    }
}

#[test]
fn concurrent_clustering_submissions_match_sequential_oracle_bitwise() {
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 24;
    const PER_SHARD: usize = 18;

    let server = build_server(PER_SHARD, 256);
    let stores = oracle_stores(PER_SHARD, 0);

    let barrier = Barrier::new(CLIENTS);
    let mut submissions: Vec<(Ticket, Request)> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let server = &server;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    client_stream(c, PER_CLIENT, PER_SHARD)
                        .into_iter()
                        .map(|req| (server.submit(req.clone()).unwrap(), req))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            submissions.extend(h.join().unwrap());
        }
    });
    let results = server.drain(4);
    assert_eq!(results.len(), CLIENTS * PER_CLIENT);
    check(&stores, &submissions, &results);

    // The whole concurrent run must have amortized dendrogram builds: at
    // most one per (shard, linkage), far fewer than hierarchical requests.
    let plans = server.stats().plans;
    assert!(plans.builds <= (SHARDS * LINKAGES.len()) as u64);
    assert!(
        plans.hits > plans.builds,
        "plan reuse must dominate: {plans:?}"
    );
}

#[test]
fn serve_batch_matches_oracle_across_thread_counts() {
    const PER_SHARD: usize = 16;
    let server = build_server(PER_SHARD, 128);
    let stores = oracle_stores(PER_SHARD, 0);

    let mut requests = Vec::new();
    for c in 0..5 {
        requests.extend(client_stream(c, 20, PER_SHARD));
    }
    for threads in [1, 2, 4, 8] {
        let results = server.serve_batch(&requests, threads);
        assert_eq!(results.len(), requests.len());
        for (request, result) in requests.iter().zip(&results) {
            let (matrix, log) = &stores[request.shard()];
            let expect = oracle(matrix, log, request);
            assert!(
                result.as_ref().unwrap().bits_eq(&expect),
                "threads={threads}, {request:?}"
            );
        }
    }
}

#[test]
fn mid_stream_ingest_keeps_every_clustering_phase_bit_identical() {
    const PER_SHARD: usize = 14;
    const EXTRA: usize = 5;
    let server = build_server(PER_SHARD, 256);
    let before = oracle_stores(PER_SHARD, 0);
    let after = oracle_stores(PER_SHARD, EXTRA);

    let run_phase = |stores: &[(DistanceMatrix, Vec<Query>)], items: usize| {
        let mut submissions = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|c| {
                    let server = &server;
                    scope.spawn(move || {
                        client_stream(c, 18, items)
                            .into_iter()
                            .map(|req| (server.submit(req.clone()).unwrap(), req))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                submissions.extend(h.join().unwrap());
            }
        });
        let results = server.drain(4);
        check(stores, &submissions, &results);
    };

    // Phase A: pre-insert store (warms plan + response caches).
    run_phase(&before, PER_SHARD);
    let warmed = server.stats().plans;
    assert!(warmed.builds > 0);

    // Mid-stream: every shard ingests a batch, bumping its epoch. Each
    // commit drops its shard's plans — nothing is rebuilt yet.
    for shard in 0..SHARDS {
        server
            .ingest(shard, &tenant_log(shard + 100, EXTRA))
            .unwrap();
    }
    assert_eq!(
        server.stats().plans.builds,
        warmed.builds,
        "ingest itself must not rebuild plans"
    );

    // Phase B: identical stream shape against the grown store. Every
    // answer re-derives from the new epoch; the dropped plans surface as
    // invalidations, never as answers.
    run_phase(&after, PER_SHARD + EXTRA);
    let final_stats = server.stats().plans;
    assert!(
        final_stats.invalidations > 0,
        "phase B must have dropped stale plans: {final_stats:?}"
    );
    assert!(final_stats.builds > warmed.builds);
}

#[test]
fn ingest_racing_clustering_readers_is_linearizable_per_request() {
    // Readers hammer a hierarchical cut on shard 0 while a writer ingests
    // into it. Every response must equal the oracle for either the pre- or
    // post-ingest store — nothing torn, no stale plan after the epoch bump.
    const PER_SHARD: usize = 12;
    const EXTRA: usize = 4;
    let server = build_server(PER_SHARD, 64);
    let pre_stores = oracle_stores(PER_SHARD, 0);
    let post_stores = oracle_stores(PER_SHARD, EXTRA);

    let request = Request::Hierarchical {
        shard: 0,
        linkage: Linkage::Complete,
        k: 3,
    };
    let expect_pre = oracle(&pre_stores[0].0, &pre_stores[0].1, &request);
    let expect_post = oracle(&post_stores[0].0, &post_stores[0].1, &request);
    // Label vectors have the store's length, so the phases are observable.
    assert!(!expect_pre.bits_eq(&expect_post));

    std::thread::scope(|scope| {
        let server = &server;
        let writer = scope.spawn(move || {
            server.ingest(0, &tenant_log(100, EXTRA)).unwrap();
        });
        let request = &request;
        let readers: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(move || {
                    let mut answers = Vec::new();
                    for _ in 0..25 {
                        answers.push(server.serve_batch(std::slice::from_ref(request), 1));
                    }
                    answers
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            for batch in r.join().unwrap() {
                let answer = batch[0].as_ref().unwrap();
                assert!(
                    answer.bits_eq(&expect_pre) || answer.bits_eq(&expect_post),
                    "response matches neither pre- nor post-ingest oracle"
                );
            }
        }
    });

    // After the writer is done only the post-ingest cut may appear.
    let final_answer = &server.serve_batch(std::slice::from_ref(&request), 2)[0];
    assert!(final_answer.as_ref().unwrap().bits_eq(&expect_post));
}

#[test]
fn cached_and_uncached_clustering_paths_agree_under_churn() {
    const PER_SHARD: usize = 15;
    let cached = build_server(PER_SHARD, 256);
    let uncached = build_server(PER_SHARD, 0);

    let mut requests = Vec::new();
    for c in 0..4 {
        requests.extend(client_stream(c, 16, PER_SHARD));
    }
    for pass in 0..3 {
        let a = cached.serve_batch(&requests, 4);
        let b = uncached.serve_batch(&requests, 4);
        for ((x, y), req) in a.iter().zip(&b).zip(&requests) {
            assert!(
                x.as_ref().unwrap().bits_eq(y.as_ref().unwrap()),
                "pass {pass}: cached diverged from uncached for {req:?}"
            );
        }
    }
    assert!(cached.stats().cache.hits > 0);
    // The response-cache-disabled server still amortizes plan builds —
    // the two caches are independent layers.
    assert!(uncached.stats().plans.hits > 0);
}

#[test]
fn served_itemsets_match_reference_on_plaintext_and_ciphertext_shards() {
    // Shard 0 holds a plaintext log, shard 1 the same log under TokenDpe:
    // the served miner interns features and orders ids by their printed
    // form, which must give the reference's items, supports and order at
    // every support on both.
    const N: usize = 30;
    let plain = tenant_log(0, N);
    let encrypted = TokenDpe::new(&MasterKey::from_bytes([0x1E; 32]))
        .encrypt_log(&plain)
        .unwrap();
    let server = Server::builder(TokenDistance).shards(2).build();
    server.ingest(0, &plain).unwrap();
    server.ingest(1, &encrypted).unwrap();
    for (shard, log) in [(0, &plain), (1, &encrypted)] {
        let requests: Vec<Request> = (1..=N)
            .map(|min_support| Request::FrequentItemsets { shard, min_support })
            .collect();
        for (request, served) in requests.iter().zip(server.serve_batch(&requests, 2)) {
            let Request::FrequentItemsets { min_support, .. } = *request else {
                unreachable!()
            };
            let expect = reference_itemsets(log, min_support);
            let served = served.unwrap();
            assert!(
                served.bits_eq(&expect),
                "shard {shard}, min_support {min_support}"
            );
            if let (1, Response::Itemsets(sets)) = (min_support, &served) {
                assert!(sets.iter().any(|(items, _)| items.len() >= 3));
            }
        }
    }
}
