//! Differential suite for the metric-indexed serving paths.
//!
//! The contract: a server built with `.metric_index(true)` answers every
//! kNN / range / pipeline request **bit-identically** to both a plain
//! (matrix-path) server and a single-threaded oracle recomputed from
//! scratch — under 8-thread concurrent submits, through the cached and
//! uncached paths, and across mid-stream ingests that grow the index
//! incrementally. The index is allowed to change how many distance cells
//! are *touched* (that is the point), never what is *answered*.

use dpe_distance::{DistanceMatrix, TokenDistance};
use dpe_mining::{knn_among, knn_indices, lof_outliers, range_among, range_indices, LofConfig};
use dpe_server::{OutlierRule, PlanOp, Request, Response, Server, Ticket};
use dpe_sql::{parse_query, Query};
use dpe_workload::{LogConfig, LogGenerator};
use std::sync::Barrier;

const SHARDS: usize = 3;

fn tenant_log(shard: usize, n: usize) -> Vec<Query> {
    LogGenerator::generate(&LogConfig {
        queries: n,
        seed: 0xD15C + shard as u64,
        ..Default::default()
    })
}

fn build_server(per_shard: usize, indexed: bool) -> Server<TokenDistance> {
    let server = Server::builder(TokenDistance)
        .shards(SHARDS)
        .cache_capacity(64)
        .metric_index(indexed)
        .build();
    for shard in 0..SHARDS {
        server.ingest(shard, &tenant_log(shard, per_shard)).unwrap();
    }
    server
}

fn oracle_matrices(per_shard: usize, extra: usize) -> Vec<DistanceMatrix> {
    (0..SHARDS)
        .map(|shard| {
            let mut log = tenant_log(shard, per_shard);
            log.extend(tenant_log(shard + 100, extra));
            DistanceMatrix::compute(&log, &TokenDistance).unwrap()
        })
        .collect()
}

/// kNN / range / compound-pipeline mix; only index-eligible ops so every
/// divergence is attributable to the index.
fn client_stream(c: usize, len: usize, per_shard: usize) -> Vec<Request> {
    (0..len)
        .map(|i| {
            let shard = (c + i) % SHARDS;
            let item = (c * 11 + i * 3) % per_shard;
            match (c * 7 + i * 13) % 3 {
                0 => Request::Knn {
                    shard,
                    item,
                    k: 1 + (i % 9),
                },
                1 => Request::Range {
                    shard,
                    item,
                    radius: 0.2 + 0.1 * ((i % 6) as f64),
                },
                _ => Request::Pipeline {
                    shard,
                    ops: vec![
                        dpe_server::PlanOp::FilterRange { item, radius: 0.9 },
                        dpe_server::PlanOp::Knn {
                            item,
                            k: 2 + (i % 5),
                        },
                    ],
                },
            }
        })
        .collect()
}

fn oracle(matrix: &DistanceMatrix, request: &Request) -> Option<Response> {
    match request {
        Request::Knn { item, k, .. } => Some(Response::Indices(knn_indices(matrix, *item, *k))),
        Request::Range { item, radius, .. } => {
            Some(Response::Indices(range_indices(matrix, *item, *radius)))
        }
        // Pipelines are compared indexed-vs-plain server instead of
        // against a hand-rolled composition.
        _ => None,
    }
}

#[test]
fn indexed_server_matches_oracle_under_concurrent_submits() {
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 30;
    const PER_SHARD: usize = 26;

    let indexed = build_server(PER_SHARD, true);
    let plain = build_server(PER_SHARD, false);
    let matrices = oracle_matrices(PER_SHARD, 0);

    let barrier = Barrier::new(CLIENTS);
    let mut submissions: Vec<(Ticket, Request)> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let indexed = &indexed;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    client_stream(c, PER_CLIENT, PER_SHARD)
                        .into_iter()
                        .map(|req| (indexed.submit(req.clone()).unwrap(), req))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            submissions.extend(h.join().unwrap());
        }
    });
    let results = indexed.drain(4);
    assert_eq!(results.len(), CLIENTS * PER_CLIENT);

    for (ticket, request) in &submissions {
        let (_, result) = results
            .iter()
            .find(|(t, _)| t == ticket)
            .expect("every submitted ticket answered");
        let got = result.as_ref().unwrap();
        if let Some(expect) = oracle(&matrices[request.shard()], request) {
            assert!(got.bits_eq(&expect), "{request:?} diverged from oracle");
        }
        let expect = plain.serve_one_uncached(request).unwrap();
        assert!(
            got.bits_eq(&expect),
            "{request:?} diverged from plain server"
        );
    }
}

#[test]
fn mid_stream_ingest_keeps_indexed_answers_bit_identical() {
    const PER_SHARD: usize = 12;
    let indexed = build_server(PER_SHARD, true);
    let plain = build_server(PER_SHARD, false);

    // Oracle logs mirror every ingest the servers see.
    let mut logs: Vec<Vec<Query>> = (0..SHARDS).map(|s| tenant_log(s, PER_SHARD)).collect();

    // Three ingest waves: the first two are small enough to land in the
    // index's overflow buffer, the last forces a rebuild. After each wave
    // both servers see the same store and must stay in bit-lockstep.
    for (wave, extra) in [(100usize, 2usize), (200, 3), (300, 24)].into_iter() {
        for (shard, log) in logs.iter_mut().enumerate() {
            let chunk = tenant_log(shard + wave, extra);
            indexed.ingest(shard, &chunk).unwrap();
            plain.ingest(shard, &chunk).unwrap();
            log.extend(chunk);
            assert_eq!(
                indexed.shard_epoch(shard).unwrap(),
                plain.shard_epoch(shard).unwrap(),
                "epochs must advance in lockstep"
            );
            assert_eq!(indexed.shard_len(shard).unwrap(), log.len());
        }
        let n = indexed.shard_len(0).unwrap();
        let matrices: Vec<DistanceMatrix> = logs
            .iter()
            .map(|log| DistanceMatrix::compute(log, &TokenDistance).unwrap())
            .collect();
        for c in 0..4 {
            for request in client_stream(c, 20, n) {
                let a = indexed.serve_one_uncached(&request).unwrap();
                let b = plain.serve_one_uncached(&request).unwrap();
                assert!(a.bits_eq(&b), "wave {wave}: {request:?} diverged");
                if let Some(expect) = oracle(&matrices[request.shard()], &request) {
                    assert!(a.bits_eq(&expect), "wave {wave}: {request:?} vs oracle");
                }
            }
        }
    }
}

#[test]
fn indexed_execution_actually_prunes_and_accounts_every_cell() {
    const PER_SHARD: usize = 64;
    let indexed = build_server(PER_SHARD, true);
    let plain = build_server(PER_SHARD, false);

    let mut pruned_total = 0u64;
    for item in 0..PER_SHARD {
        let req = Request::Knn {
            shard: 0,
            item,
            k: 3,
        };
        let (_, m) = indexed.explain(&req).unwrap();
        // Exhaustive accounting: every other item was computed or pruned.
        assert_eq!(
            m.distance_cells + m.pruned_cells,
            PER_SHARD as u64,
            "anchor {item}"
        );
        pruned_total += m.pruned_cells;

        let (_, plain_m) = plain.explain(&req).unwrap();
        assert_eq!(plain_m.pruned_cells, 0, "matrix path never claims pruning");
    }
    // The triangle inequality must be doing real work on a 64-item shard,
    // not just accounting for itself.
    assert!(
        pruned_total > 0,
        "indexed kNN never pruned a single cell across {PER_SHARD} anchors"
    );

    let (_, m) = indexed
        .explain(&Request::Range {
            shard: 0,
            item: 0,
            radius: 0.05,
        })
        .unwrap();
    assert_eq!(m.distance_cells + m.pruned_cells, PER_SHARD as u64);
}

#[test]
fn cached_and_uncached_indexed_paths_agree() {
    const PER_SHARD: usize = 20;
    let indexed = build_server(PER_SHARD, true);
    let plain = build_server(PER_SHARD, false);

    let mut requests = Vec::new();
    for c in 0..5 {
        requests.extend(client_stream(c, 20, PER_SHARD));
    }
    for pass in 0..3 {
        let a = indexed.serve_batch(&requests, 4);
        let b = plain.serve_batch(&requests, 4);
        for ((x, y), req) in a.iter().zip(&b).zip(&requests) {
            assert!(
                x.as_ref().unwrap().bits_eq(y.as_ref().unwrap()),
                "pass {pass}: indexed diverged from plain for {req:?}"
            );
        }
    }
    assert!(indexed.stats().cache.hits > 0);
}

/// An op that keeps every item but reorders the selection leaves the index
/// path eligible (the selection still holds all n items). Frames narrow by
/// item id, so `Knn`, `FilterRange` and `FilterRange → Knn` after it must
/// answer exactly as the plain server and the direct composition do.
#[test]
fn index_path_after_a_reordering_op_matches_plain() {
    const PER_SHARD: usize = 20;
    let indexed = build_server(PER_SHARD, true);
    let plain = build_server(PER_SHARD, false);
    let matrices = oracle_matrices(PER_SHARD, 0);
    let reorder = LofConfig { min_pts: 2 };

    let mut pruned = 0u64;
    for (shard, matrix) in matrices.iter().enumerate() {
        // Every LOF score beats −∞: all n items, in descending score order.
        let order = lof_outliers(matrix, reorder, f64::NEG_INFINITY);
        assert_eq!(order.len(), PER_SHARD, "the reordering op keeps every item");
        assert_ne!(order, (0..PER_SHARD).collect::<Vec<_>>());
        for item in 0..PER_SHARD {
            let cases = [
                (
                    vec![PlanOp::Knn { item, k: 4 }],
                    knn_among(matrix, item, 4, order.iter().copied()),
                ),
                (
                    vec![PlanOp::FilterRange { item, radius: 0.8 }],
                    range_among(matrix, item, 0.8, order.iter().copied()),
                ),
                (
                    vec![
                        PlanOp::FilterRange { item, radius: 0.9 },
                        PlanOp::Knn { item, k: 3 },
                    ],
                    knn_among(
                        matrix,
                        item,
                        3,
                        range_among(matrix, item, 0.9, order.iter().copied()),
                    ),
                ),
            ];
            for (tail, expect) in cases {
                let mut ops = vec![PlanOp::Outliers(OutlierRule::LofThreshold {
                    min_pts: reorder.min_pts,
                    threshold: f64::NEG_INFINITY,
                })];
                ops.extend(tail);
                let request = Request::Pipeline { shard, ops };
                let (got, m) = indexed.explain(&request).unwrap();
                pruned += m.pruned_cells;
                let want = plain.serve_one_uncached(&request).unwrap();
                assert!(got.bits_eq(&want), "{request:?}: indexed vs plain");
                assert!(
                    got.bits_eq(&Response::Indices(expect)),
                    "{request:?}: vs composition"
                );
            }
        }
    }
    assert!(
        pruned > 0,
        "the index path was never taken after the reorder"
    );
}

/// The case that exposed position/id confusion on the index path: a
/// zero-threshold LOF outlier op keeps all n items, reordered by score, so
/// the `Knn` after it takes the index path and must read item ids.
#[test]
fn knn_after_a_zero_threshold_lof_outlier_op_matches_plain() {
    let queries: Vec<Query> = (0..12)
        .map(|i| {
            parse_query(&format!(
                "SELECT a{}, b{} FROM t{} WHERE x = {}",
                i % 4,
                i % 7,
                i % 3,
                i % 5
            ))
            .unwrap()
        })
        .collect();
    let indexed = Server::builder(TokenDistance).metric_index(true).build();
    let plain = Server::builder(TokenDistance).build();
    indexed.ingest(0, &queries).unwrap();
    plain.ingest(0, &queries).unwrap();
    let request = Request::Pipeline {
        shard: 0,
        ops: vec![
            PlanOp::Outliers(OutlierRule::LofThreshold {
                min_pts: 2,
                threshold: 0.0,
            }),
            PlanOp::Knn { item: 0, k: 4 },
        ],
    };
    let got = indexed.serve_one_uncached(&request).unwrap();
    let want = plain.serve_one_uncached(&request).unwrap();
    assert!(got.bits_eq(&want), "indexed {got:?} vs plain {want:?}");
}
