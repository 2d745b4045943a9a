//! Regression suite for the lifecycle of a shard's clustering plans.
//!
//! The bug class being pinned: a dendrogram built before an `ingest`
//! being served afterwards. A shard holds at most one plan per linkage,
//! and the ingest commit drops them all under the shard's write lock, so
//! the first cut after the commit rebuilds over the grown store. The
//! cold-vs-warm build/hit counters exposed by [`Server::stats`] are
//! pinned exactly, so a silent regression in either direction
//! (rebuild-per-request, or stale-serve) fails loudly.

use dpe_distance::TokenDistance;
use dpe_mining::Linkage;
use dpe_server::{Request, Response, Server};
use dpe_workload::{LogConfig, LogGenerator};

fn build_server(per_shard: usize) -> Server<TokenDistance> {
    let server = Server::builder(TokenDistance)
        .shards(2)
        .cache_capacity(64)
        .build();
    for shard in 0..2 {
        let log = LogGenerator::generate(&LogConfig {
            queries: per_shard,
            seed: 0x9A7 + shard as u64,
            ..Default::default()
        });
        server.ingest(shard, &log).unwrap();
    }
    server
}

fn cut(shard: usize, k: usize) -> Request {
    Request::Hierarchical {
        shard,
        linkage: Linkage::Complete,
        k,
    }
}

fn labels(result: &Response) -> &[i64] {
    match result {
        Response::Labels(v) => v,
        other => panic!("expected labels, got {other:?}"),
    }
}

#[test]
fn cold_then_warm_counters_are_exact() {
    const N: usize = 12;
    let server = build_server(N);
    assert_eq!(server.stats().plans, Default::default(), "cold start");

    // Cold: the first cut builds; the k-sweep that follows must not.
    let sweep: Vec<Request> = (1..=N).map(|k| cut(0, k)).collect();
    let results = server.serve_batch(&sweep, 2);
    for (k, result) in (1..=N).zip(&results) {
        let mut distinct: Vec<i64> = labels(result.as_ref().unwrap()).to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), k);
    }
    let cold = server.stats().plans;
    assert_eq!(
        (cold.builds, cold.hits, cold.invalidations, cold.live),
        (1, (N - 1) as u64, 0, 1),
        "a k-sweep is one build + N−1 plan hits"
    );

    // Warm: repeat the sweep with the response cache emptied, so every
    // request reaches the plan layer again — still zero new builds.
    server.clear_cache();
    let _ = server.serve_batch(&sweep, 2);
    let warm = server.stats().plans;
    assert_eq!(warm.builds, 1, "warm plan must serve all k without builds");
    assert_eq!(warm.hits, (2 * N - 1) as u64);
}

#[test]
fn ingest_commit_invalidates_the_plan_eagerly() {
    const N: usize = 10;
    const EXTRA: usize = 3;
    let server = build_server(N);

    // Warm the plan and remember the stale answer's shape.
    let before = &server.serve_batch(&[cut(0, 2)], 1)[0];
    assert_eq!(labels(before.as_ref().unwrap()).len(), N);
    let warmed = server.stats().plans;
    assert_eq!((warmed.builds, warmed.invalidations), (1, 0));

    // Ingest: the commit drops the plan at once — nothing rebuilt, and
    // no stale plan left live.
    let extra = LogGenerator::generate(&LogConfig {
        queries: EXTRA,
        seed: 0xFEED,
        ..Default::default()
    });
    server.ingest(0, &extra).unwrap();
    let after_ingest = server.stats().plans;
    assert_eq!(
        (
            after_ingest.builds,
            after_ingest.invalidations,
            after_ingest.live
        ),
        (1, 1, 0),
        "the commit drops the plan and builds nothing"
    );

    // A cached dendrogram served now would yield N labels — that is the
    // bug this test exists to catch. The empty slot forces a rebuild over
    // the grown store instead.
    let after = &server.serve_batch(&[cut(0, 2)], 1)[0];
    assert_eq!(
        labels(after.as_ref().unwrap()).len(),
        N + EXTRA,
        "stale cached dendrogram served after ingest"
    );
    let rebuilt = server.stats().plans;
    assert_eq!(
        (rebuilt.builds, rebuilt.invalidations, rebuilt.live),
        (2, 1, 1),
        "exactly one invalidation + one rebuild after the ingest"
    );
    // And the rebuilt answer is the uncached oracle's.
    let oracle = server.serve_one_uncached(&cut(0, 2)).unwrap();
    assert!(after.as_ref().unwrap().bits_eq(&oracle));
}

#[test]
fn only_the_ingested_shard_loses_its_plan() {
    let server = build_server(8);
    let _ = server.serve_batch(&[cut(0, 2), cut(1, 2)], 2);
    assert_eq!(server.stats().plans.builds, 2);

    let extra = LogGenerator::generate(&LogConfig {
        queries: 2,
        seed: 0xABBA,
        ..Default::default()
    });
    server.ingest(0, &extra).unwrap();
    server.clear_cache();
    let _ = server.serve_batch(&[cut(0, 3), cut(1, 3)], 2);
    let stats = server.stats().plans;
    assert_eq!(
        (stats.builds, stats.invalidations),
        (3, 1),
        "shard 1's plan must survive shard 0's ingest"
    );
}

#[test]
fn uncached_baseline_never_touches_the_plan_cache() {
    let server = build_server(9);
    for k in 1..=9 {
        server.serve_one_uncached(&cut(0, k)).unwrap();
    }
    assert_eq!(
        server.stats().plans,
        Default::default(),
        "serve_one_uncached is the no-cache baseline by contract"
    );
}

#[test]
fn submit_drain_path_reuses_plans_too() {
    let server = build_server(11);
    for k in 1..=11 {
        server.submit(cut(0, k)).unwrap();
        server.submit(cut(1, k)).unwrap();
    }
    let results = server.drain(2);
    assert!(results.iter().all(|(_, r)| r.is_ok()));
    let stats = server.stats().plans;
    assert_eq!(stats.builds, 2, "one plan per shard for the whole drain");
    assert_eq!(stats.hits, 20);
}

#[test]
fn interleaved_linkages_build_each_plan_once_in_any_order() {
    const N: usize = 10;
    const KS: [usize; 4] = [2, 3, 5, 7];
    const LINKAGES: [Linkage; 3] = [Linkage::Complete, Linkage::Single, Linkage::Average];
    // C,S,A,C,S,A,…: no two neighbours share a plan, and no pass regroups
    // them — one slot per linkage is what keeps the builds at three.
    let interleaved: Vec<Request> = KS
        .iter()
        .flat_map(|&k| {
            LINKAGES.map(|linkage| Request::Hierarchical {
                shard: 0,
                linkage,
                k,
            })
        })
        .collect();
    let expect = |server: &Server<TokenDistance>| {
        let stats = server.stats().plans;
        assert_eq!(
            (stats.builds, stats.hits, stats.live),
            (3, (interleaved.len() - 3) as u64, 3),
            "one build per linkage, every other cut a hit"
        );
    };

    let batched = build_server(N);
    let results = batched.serve_batch(&interleaved, 2);
    for (req, result) in interleaved.iter().zip(&results) {
        let oracle = batched.serve_one_uncached(req).unwrap();
        assert!(result.as_ref().unwrap().bits_eq(&oracle), "{req:?}");
    }
    expect(&batched);

    let drained = build_server(N);
    for req in &interleaved {
        drained.submit(req.clone()).unwrap();
    }
    let results = drained.drain(2);
    assert!(results.iter().all(|(_, r)| r.is_ok()));
    expect(&drained);
}
