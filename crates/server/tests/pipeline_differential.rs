//! Differential suite for the physical-plan executor, compound pipelines
//! and the SQL front door.
//!
//! Three oracles, one contract — **bit-identical** answers:
//!
//! 1. every single-variant request answered through the plan executor must
//!    equal a [`Request::Pipeline`] spelling the same ops;
//! 2. a compound pipeline must equal the client composing the equivalent
//!    single-variant round trips by hand — under 8-thread submits and
//!    mid-stream ingests (the concurrency suite's oracle pattern);
//! 3. `Server::sql` over a registered pairs table (plaintext *or*
//!    DET-encrypted identifiers) must equal `dpe_minidb` executing the
//!    same SELECT against the materialized plaintext mirror.

use dpe_cryptdb::IdentRewriter;
use dpe_crypto::MasterKey;
use dpe_mining::Linkage;
use dpe_server::{
    dist_literal, ClusterRule, OutlierRule, PlanOp, Projection, Request, Response, Server,
    ServerError, SqlTable,
};
use dpe_sql::analysis::rewrite_query;
use dpe_sql::{parse_query, Query};
use dpe_workload::{LogConfig, LogGenerator};
use std::sync::Barrier;

const SHARDS: usize = 4;
const PER_SHARD: usize = 18;

fn tenant_log(shard: usize, n: usize) -> Vec<Query> {
    LogGenerator::generate(&LogConfig {
        queries: n,
        seed: 0xD1FF + shard as u64,
        ..Default::default()
    })
}

fn build_server(cache: usize) -> Server<TokenDistance> {
    let server = Server::builder(TokenDistance)
        .shards(SHARDS)
        .cache_capacity(cache)
        .build();
    for shard in 0..SHARDS {
        server.ingest(shard, &tenant_log(shard, PER_SHARD)).unwrap();
    }
    server
}

use dpe_distance::TokenDistance;

fn indices(r: &Response) -> &[usize] {
    match r {
        Response::Indices(v) => v,
        other => panic!("expected indices, got {other:?}"),
    }
}

fn labels(r: &Response) -> &[i64] {
    match r {
        Response::Labels(v) => v,
        other => panic!("expected labels, got {other:?}"),
    }
}

/// Every pre-existing variant vs. the pipeline spelling the same ops.
#[test]
fn single_variant_requests_equal_their_pipeline_spelling() {
    let server = build_server(0);
    let shard = 1;
    let cases: Vec<(Request, Vec<PlanOp>)> = vec![
        (
            Request::Knn {
                shard,
                item: 3,
                k: 5,
            },
            vec![PlanOp::Knn { item: 3, k: 5 }],
        ),
        (
            Request::Range {
                shard,
                item: 2,
                radius: 0.6,
            },
            vec![PlanOp::FilterRange {
                item: 2,
                radius: 0.6,
            }],
        ),
        (
            Request::Lof { shard, min_pts: 3 },
            vec![PlanOp::Lof { min_pts: 3 }],
        ),
        (
            Request::LofOutliers {
                shard,
                min_pts: 3,
                threshold: 1.05,
            },
            vec![PlanOp::Outliers(OutlierRule::LofThreshold {
                min_pts: 3,
                threshold: 1.05,
            })],
        ),
        (
            Request::Outliers {
                shard,
                p: 0.5,
                d: 0.5,
            },
            vec![PlanOp::Outliers(OutlierRule::DistanceBased {
                p: 0.5,
                d: 0.5,
            })],
        ),
        (
            Request::Dbscan {
                shard,
                eps: 0.45,
                min_pts: 2,
            },
            vec![PlanOp::ClusterLabels(ClusterRule::Dbscan {
                eps: 0.45,
                min_pts: 2,
            })],
        ),
        (
            Request::KMedoids { shard, k: 3 },
            vec![PlanOp::ClusterLabels(ClusterRule::KMedoids { k: 3 })],
        ),
        (
            Request::Hierarchical {
                shard,
                linkage: Linkage::Complete,
                k: 4,
            },
            vec![PlanOp::ClusterLabels(ClusterRule::Hierarchical {
                linkage: Linkage::Complete,
                k: 4,
            })],
        ),
        (
            Request::FrequentItemsets {
                shard,
                min_support: 2,
            },
            vec![PlanOp::Itemsets { min_support: 2 }],
        ),
    ];
    for (single, ops) in cases {
        let pipeline = Request::Pipeline {
            shard,
            ops: ops.clone(),
        };
        let direct = server.serve_one_uncached(&single).unwrap();
        let piped = server.serve_one_uncached(&pipeline).unwrap();
        assert!(piped.bits_eq(&direct), "uncached: {single:?}");
        let batch = server.serve_batch(&[single.clone(), pipeline], 2);
        let (a, b) = (batch[0].as_ref().unwrap(), batch[1].as_ref().unwrap());
        assert!(
            a.bits_eq(&direct) && b.bits_eq(&direct),
            "batched: {single:?}"
        );
    }
}

/// Compound filter → cluster-label pipelines vs. the client composing the
/// equivalent single-variant round trips, under 8 concurrent threads with
/// ingests landing mid-stream. `serve_batch` answers one shard's requests
/// of one call under a single read lock, so the pipeline and its
/// composition oracle always observe the same epoch — whatever the ingest
/// thread does meanwhile.
#[test]
fn compound_pipelines_equal_client_composition_under_concurrency() {
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 12;
    let server = build_server(256);
    let barrier = Barrier::new(CLIENTS + 1);

    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let server = &server;
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                for i in 0..ROUNDS {
                    let shard = (c + i) % SHARDS;
                    let item = (c * 5 + i * 3) % PER_SHARD;
                    let radius = 0.3 + 0.1 * ((i % 5) as f64);
                    let (linkage, k) = ([Linkage::Single, Linkage::Complete][i % 2], 2 + i % 4);
                    let compound = Request::Pipeline {
                        shard,
                        ops: vec![
                            PlanOp::FilterRange { item, radius },
                            PlanOp::ClusterLabels(ClusterRule::Hierarchical { linkage, k }),
                            PlanOp::Project(Projection::Labels),
                        ],
                    };
                    let range = Request::Range {
                        shard,
                        item,
                        radius,
                    };
                    let hierarchical = Request::Hierarchical { shard, linkage, k };
                    let batch = server.serve_batch(&[compound, range, hierarchical], 2);
                    let got = labels(batch[0].as_ref().unwrap());
                    let sel = indices(batch[1].as_ref().unwrap());
                    let full = labels(batch[2].as_ref().unwrap());
                    // The client's composition: project the whole-shard
                    // labels onto the range selection.
                    let composed: Vec<i64> = sel.iter().map(|&j| full[j]).collect();
                    assert_eq!(got, composed.as_slice(), "client {c} round {i}");
                }
            });
        }
        // Mid-stream ingests: epoch bumps land while clients are serving.
        barrier.wait();
        for wave in 0..3 {
            for shard in 0..SHARDS {
                server
                    .ingest(shard, &tenant_log(shard + 50 + wave, 2))
                    .unwrap();
            }
        }
    });
}

/// A compound pipeline's plan key is cacheable: bit-equal re-asks hit.
#[test]
fn compound_pipelines_cache_and_invalidate_by_epoch() {
    let server = build_server(64);
    let req = Request::Pipeline {
        shard: 0,
        ops: vec![
            PlanOp::FilterRange {
                item: 1,
                radius: 0.7,
            },
            PlanOp::Knn { item: 1, k: 4 },
        ],
    };
    let first = server.serve_batch(std::slice::from_ref(&req), 1);
    let before = server.stats();
    let second = server.serve_batch(std::slice::from_ref(&req), 1);
    let after = server.stats();
    assert!(first[0]
        .as_ref()
        .unwrap()
        .bits_eq(second[0].as_ref().unwrap()));
    assert_eq!(after.cache.hits, before.cache.hits + 1);

    server.ingest(0, &tenant_log(99, 2)).unwrap();
    let third = server.serve_batch(std::slice::from_ref(&req), 1);
    let post = server.stats();
    assert_eq!(post.cache.hits, after.cache.hits, "epoch bump must miss");
    assert!(third[0].is_ok());
}

/// Satellite 3 regression: an out-of-bounds item in **every** op position
/// returns a typed `ServerError` through the full serving path — never a
/// panic out of the mining layer.
#[test]
fn out_of_bounds_anchors_error_in_every_op_position() {
    let server = build_server(0);
    let bad = PER_SHARD + 7; // beyond every shard
    let cases: Vec<Vec<PlanOp>> = vec![
        vec![PlanOp::FilterRange {
            item: bad,
            radius: 0.5,
        }],
        vec![PlanOp::Knn { item: bad, k: 2 }],
        vec![
            PlanOp::FilterRange {
                item: 0,
                radius: 0.9,
            },
            PlanOp::Knn { item: bad, k: 2 },
        ],
        vec![
            PlanOp::Knn { item: 0, k: 9 },
            PlanOp::FilterRange {
                item: bad,
                radius: 0.9,
            },
        ],
        vec![
            PlanOp::FilterRange {
                item: 0,
                radius: 0.9,
            },
            PlanOp::FilterRange {
                item: bad,
                radius: 0.9,
            },
            PlanOp::Knn { item: 1, k: 2 },
        ],
    ];
    for ops in cases {
        for shard in 0..SHARDS {
            let req = Request::Pipeline {
                shard,
                ops: ops.clone(),
            };
            let direct = server.serve_one_uncached(&req);
            assert!(
                matches!(direct, Err(ServerError::ItemOutOfBounds { .. })),
                "uncached {ops:?}: {direct:?}"
            );
            let batched = &server.serve_batch(std::slice::from_ref(&req), 1)[0];
            assert!(
                matches!(batched, Err(ServerError::ItemOutOfBounds { .. })),
                "batched {ops:?}: {batched:?}"
            );
        }
    }
    // Structural violations are typed errors too.
    for ops in [
        vec![PlanOp::Scan, PlanOp::Scan],
        vec![
            PlanOp::Project(Projection::Items),
            PlanOp::Knn { item: 0, k: 1 },
        ],
        vec![PlanOp::Project(Projection::Scores)],
        vec![
            PlanOp::FilterRange {
                item: 0,
                radius: 0.5,
            },
            PlanOp::ClusterLabels(ClusterRule::KMedoids { k: 2 }),
        ],
    ] {
        let req = Request::Pipeline { shard: 0, ops };
        assert!(matches!(
            server.serve_one_uncached(&req),
            Err(ServerError::BadRequest(_))
        ));
    }
}

/// Acceptance: every pre-existing variant flows through the executor with
/// non-zero per-query metrics.
#[test]
fn every_variant_reports_nonzero_execution_metrics() {
    let server = build_server(64);
    let shard = 2;
    let requests = vec![
        Request::Knn {
            shard,
            item: 0,
            k: 3,
        },
        Request::Range {
            shard,
            item: 0,
            radius: 0.5,
        },
        Request::Lof { shard, min_pts: 2 },
        Request::LofOutliers {
            shard,
            min_pts: 2,
            threshold: 1.0,
        },
        Request::Outliers {
            shard,
            p: 0.4,
            d: 0.5,
        },
        Request::Dbscan {
            shard,
            eps: 0.5,
            min_pts: 2,
        },
        Request::KMedoids { shard, k: 2 },
        Request::Hierarchical {
            shard,
            linkage: Linkage::Average,
            k: 3,
        },
        Request::FrequentItemsets {
            shard,
            min_support: 2,
        },
        Request::Pipeline {
            shard,
            ops: vec![
                PlanOp::FilterRange {
                    item: 0,
                    radius: 0.9,
                },
                PlanOp::Knn { item: 0, k: 2 },
            ],
        },
    ];
    let before = server.stats();
    for req in &requests {
        let (_, m) = server.explain(req).unwrap();
        assert!(m.total_nanos > 0, "{req:?}");
        assert_eq!(m.rows_scanned, PER_SHARD as u64, "{req:?}");
        assert!(!m.ops.is_empty(), "{req:?}");
        assert_eq!(m.ops[0].op, "Scan", "{req:?}");
    }
    let after = server.stats();
    assert_eq!(after.queries, before.queries + requests.len() as u64);
    assert!(after.exec.total_nanos > before.exec.total_nanos);
    assert!(
        after.exec.rows_scanned >= before.exec.rows_scanned + (requests.len() * PER_SHARD) as u64
    );
}

fn pairs_binding(table: &str, item: &str, anchor: &str, dist: &str, shard: usize) -> SqlTable {
    SqlTable {
        table: table.into(),
        shard,
        item_col: item.into(),
        anchor_col: anchor.into(),
        dist_col: dist.into(),
    }
}

/// The SELECT shapes the front door supports, parameterized over the
/// binding's spellings (plaintext or encrypted idents).
fn select_workload(t: &SqlTable, radii: &[f64]) -> Vec<String> {
    let (tb, it, an, di) = (&t.table, &t.item_col, &t.anchor_col, &t.dist_col);
    let mut out = Vec::new();
    for anchor in [0usize, 3, PER_SHARD - 1] {
        out.push(format!("SELECT {it} FROM {tb} WHERE {an} = {anchor}"));
        out.push(format!(
            "SELECT {it} FROM {tb} WHERE {an} = {anchor} LIMIT 4"
        ));
        for &r in radii {
            let c = dist_literal(r);
            out.push(format!(
                "SELECT {it} FROM {tb} WHERE {an} = {anchor} AND {di} <= {c}"
            ));
            out.push(format!(
                "SELECT {it} FROM {tb} WHERE {an} = {anchor} AND {di} < {c}"
            ));
            out.push(format!(
                "SELECT {it} FROM {tb} WHERE {di} <= {c} AND {an} = {anchor} ORDER BY {di} LIMIT 5"
            ));
        }
        out.push(format!(
            "SELECT {it} FROM {tb} WHERE {an} = {anchor} ORDER BY {di} ASC LIMIT 3"
        ));
        // The smallest literal: `<` must not step below it.
        out.push(format!(
            "SELECT {it} FROM {tb} WHERE {an} = {anchor} AND {di} < {}",
            i64::MIN
        ));
    }
    out
}

/// `Server::sql` vs. `dpe_minidb` executing the same SELECT against the
/// materialized plaintext mirror: identical row sets, identical order.
#[test]
fn sql_front_door_matches_minidb_on_the_mirror() {
    let server = build_server(64);
    let binding = pairs_binding("pairs", "item", "anchor", "dist", 1);
    server.register_sql_table(binding.clone()).unwrap();
    let mirror = server.plaintext_mirror("pairs").unwrap();

    let workload = select_workload(&binding, &[0.0, 0.35, 0.6, 1.0]);
    assert!(workload.len() > 20);
    for sql in &workload {
        let got = server.sql(sql).unwrap();
        let got: Vec<i64> = indices(&got).iter().map(|&i| i as i64).collect();
        let rs = dpe_minidb::execute(&mirror, &parse_query(sql).unwrap()).unwrap();
        let want = rs.int_column("item").unwrap();
        assert_eq!(got, want, "{sql}");
    }
}

/// The encrypted front door: identifiers DET-encrypted with the CryptDB
/// onion rewriter, constants in the clear. The encrypted spelling must
/// answer bit-identically to the plaintext spelling — and to minidb over a
/// mirror materialized under the encrypted names.
#[test]
fn encrypted_sql_matches_plaintext_and_minidb() {
    let server = build_server(64);
    let master = MasterKey::from_bytes([42; 32]);
    let mut rewriter = IdentRewriter::new(&master);

    let plain = pairs_binding("pairs", "item", "anchor", "dist", 2);
    let enc = pairs_binding(
        &rewriter.table_ident("pairs"),
        &rewriter.column_ident("item"),
        &rewriter.column_ident("anchor"),
        &rewriter.column_ident("dist"),
        2,
    );
    server.register_sql_table(plain.clone()).unwrap();
    server.register_sql_table(enc.clone()).unwrap();
    let enc_mirror = server.plaintext_mirror(&enc.table).unwrap();

    for sql in select_workload(&plain, &[0.3, 0.8]) {
        let parsed = parse_query(&sql).unwrap();
        let enc_sql = rewrite_query(&parsed, &mut rewriter).to_string();
        assert_ne!(sql, enc_sql, "identifiers must actually change");

        let plain_resp = server.sql(&sql).unwrap();
        let enc_resp = server.sql(&enc_sql).unwrap();
        assert!(enc_resp.bits_eq(&plain_resp), "{sql}");

        // And the provider-side relational view agrees.
        let rs = dpe_minidb::execute(&enc_mirror, &parse_query(&enc_sql).unwrap()).unwrap();
        let want = rs.int_column(&enc.item_col).unwrap();
        let got: Vec<i64> = indices(&enc_resp).iter().map(|&i| i as i64).collect();
        assert_eq!(got, want, "{enc_sql}");
    }
}

/// Unsupported SQL is a typed error through the server path, and unknown
/// tables name the problem.
#[test]
fn sql_front_door_rejects_unsupported_shapes() {
    let server = build_server(0);
    server
        .register_sql_table(pairs_binding("pairs", "item", "anchor", "dist", 0))
        .unwrap();
    for sql in [
        "SELECT item FROM unknown WHERE anchor = 1",
        "SELECT item FROM pairs",
        "SELECT item FROM pairs WHERE anchor = 1 OR anchor = 2",
        "not even sql",
    ] {
        assert!(
            matches!(server.sql(sql), Err(ServerError::UnsupportedSql(_))),
            "{sql}"
        );
    }
    // Registering against a missing shard is refused eagerly.
    assert!(matches!(
        server.register_sql_table(pairs_binding("p2", "i", "a", "d", 99)),
        Err(ServerError::UnknownShard { .. })
    ));
}

/// SQL answers stay correct across a mid-stream ingest: the lowered
/// pipeline is epoch-cached like any request, and the mirror rebuilt after
/// the ingest agrees with the post-ingest answers.
#[test]
fn sql_front_door_tracks_ingests() {
    let server = build_server(64);
    let binding = pairs_binding("pairs", "item", "anchor", "dist", 3);
    server.register_sql_table(binding.clone()).unwrap();
    let sql = "SELECT item FROM pairs WHERE anchor = 2 ORDER BY dist LIMIT 6";

    let before = server.sql(sql).unwrap();
    server.ingest(3, &tenant_log(777, 3)).unwrap();
    let after = server.sql(sql).unwrap();

    let mirror = server.plaintext_mirror("pairs").unwrap();
    let rs = dpe_minidb::execute(&mirror, &parse_query(sql).unwrap()).unwrap();
    let want = rs.int_column("item").unwrap();
    let got: Vec<i64> = indices(&after).iter().map(|&i| i as i64).collect();
    assert_eq!(got, want);
    // The store grew; the top-6 may legitimately change, but even if the
    // indices coincide the pre-ingest answer must have been served from the
    // old epoch, not a stale cache slot (epoch keying guarantees it).
    assert_eq!(indices(&before).len(), 6);
    assert_eq!(indices(&after).len(), 6);
}
