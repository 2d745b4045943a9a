//! Outsourced clustering as a service: the provider serves whole-shard
//! clustering — DBSCAN, k-medoids, hierarchical cuts at every granularity,
//! frequent feature itemsets — over DPE-encrypted tenant logs, with the
//! dendrogram built **once** per (shard, linkage) between two ingests and
//! reused for every cut.
//!
//! The scenario: each tenant's analysts want the same encrypted log
//! clustered at many granularities (k = 2, 3, 4, …) — the classic
//! dendrogram use case. Naively that is one O(n³) agglomeration per
//! request; each shard's plan slots pay it once and answer the whole sweep
//! from the cached merge list. A streaming ingest then commits: it bumps
//! the epoch and drops the shard's plans, the next cut rebuilds over the
//! grown store, and a plaintext twin confirms every answer stayed
//! bit-identical throughout.
//!
//! Run: `cargo run --release --example outsourced_clustering_service`

use dpe::core::scheme::{QueryEncryptor, TokenDpe};
use dpe::crypto::MasterKey;
use dpe::distance::TokenDistance;
use dpe::mining::Linkage;
use dpe::server::{Request, Response, Server};
use dpe::workload::{LogConfig, LogGenerator};
use std::time::Instant;

const SHARDS: usize = 3;
const PER_SHARD: usize = 48;
const CUT_SWEEP: usize = 12;

fn main() {
    // 1. Tenants encrypt their logs; the provider ingests ciphertexts
    //    only. The plaintext twin exists purely to verify the DPE claim.
    let mut scheme = TokenDpe::new(&MasterKey::from_bytes([0x5C; 32]));
    let provider = Server::builder(TokenDistance)
        .shards(SHARDS)
        .cache_capacity(256)
        .build();
    let twin = Server::builder(TokenDistance)
        .shards(SHARDS)
        .cache_capacity(0)
        .build();
    for shard in 0..SHARDS {
        let log = LogGenerator::generate(&LogConfig {
            queries: PER_SHARD,
            seed: 0xC1A5 + shard as u64,
            ..Default::default()
        });
        provider
            .ingest(shard, &scheme.encrypt_log(&log).expect("encrypt"))
            .expect("ingest ciphertexts");
        twin.ingest(shard, &log).expect("ingest plaintexts");
    }
    println!("{SHARDS} tenants × {PER_SHARD} encrypted queries ingested");

    // 2. The analyst workload: every tenant asks for a full granularity
    //    sweep under its house linkage, plus DBSCAN / k-medoids / itemset
    //    views of the same store.
    let linkages = [Linkage::Complete, Linkage::Single, Linkage::Average];
    let mut requests = Vec::new();
    for shard in 0..SHARDS {
        for k in 1..=CUT_SWEEP {
            requests.push(Request::Hierarchical {
                shard,
                linkage: linkages[shard % 3],
                k,
            });
        }
        requests.push(Request::Dbscan {
            shard,
            eps: 0.3,
            min_pts: 3,
        });
        requests.push(Request::KMedoids { shard, k: 4 });
        requests.push(Request::FrequentItemsets {
            shard,
            min_support: PER_SHARD / 6,
        });
    }

    let start = Instant::now();
    let answers = provider.serve_batch(&requests, SHARDS);
    let elapsed = start.elapsed();
    let plans = provider.stats().plans;
    println!(
        "\nserved {} clustering requests in {elapsed:.2?}: \
         {} dendrogram builds amortized over {} plan hits",
        requests.len(),
        plans.builds,
        plans.hits
    );
    assert_eq!(
        plans.builds as usize, SHARDS,
        "one plan per (shard, linkage) must cover the whole sweep"
    );

    // 3. The DPE guarantee. Distance-based answers (labels, medoids, cost
    //    bits) are bit-identical. Frequent itemsets are the c-equivalence
    //    story instead: token-DPE *renames* features bijectively, so the
    //    provider finds the same pattern structure — sizes and supports —
    //    over ciphertext items it cannot read.
    for (request, answer) in requests.iter().zip(&answers) {
        let expect = twin.serve_one_uncached(request).expect("twin");
        let answer = answer.as_ref().expect("response");
        if let (Response::Itemsets(enc), Response::Itemsets(plain)) = (answer, &expect) {
            let shape = |sets: &[(Vec<String>, usize)]| {
                let mut s: Vec<(usize, usize)> = sets
                    .iter()
                    .map(|(items, sup)| (items.len(), *sup))
                    .collect();
                s.sort_unstable();
                s
            };
            assert_eq!(
                shape(enc),
                shape(plain),
                "encrypted itemset shape diverged on {request:?}"
            );
        } else {
            assert!(
                answer.bits_eq(&expect),
                "encrypted clustering diverged on {request:?}"
            );
        }
    }
    println!(
        "DPE check: all {} responses match plaintext clustering \
         (bit-identical; itemsets shape-identical under feature renaming) ✓",
        requests.len()
    );

    // 4. A fresh encrypted batch streams in on tenant 0 — its commit bumps
    //    the epoch and drops the plan; the *next* cut rebuilds it against
    //    the grown store.
    let update = LogGenerator::generate(&LogConfig {
        queries: 6,
        seed: 0xFEED,
        ..Default::default()
    });
    provider
        .ingest(0, &scheme.encrypt_log(&update).expect("encrypt"))
        .expect("ingest update");
    twin.ingest(0, &update).expect("ingest update");
    let recut = Request::Hierarchical {
        shard: 0,
        linkage: linkages[0],
        k: 3,
    };
    let post = &provider.serve_batch(std::slice::from_ref(&recut), 1)[0];
    let post_plans = provider.stats().plans;
    println!(
        "after streaming ingest: epoch {} → plan invalidations {}, builds {}",
        provider.shard_epoch(0).unwrap(),
        post_plans.invalidations,
        post_plans.builds
    );
    assert_eq!(post_plans.invalidations, 1, "stale plan dropped at commit");

    // The post-ingest recut must match the twin's view of the grown store.
    let expect_post = twin.serve_one_uncached(&recut).expect("twin");
    assert!(post.as_ref().expect("response").bits_eq(&expect_post));
    println!("post-ingest recut bit-identical to plaintext clustering ✓");
}
