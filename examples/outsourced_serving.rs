//! Outsourced serving: a service provider answers concurrent mining
//! queries over DPE-encrypted tenant stores — without ever seeing a
//! plaintext — at batch-engine throughput.
//!
//! Four tenants encrypt their query logs under token-DPE and upload the
//! ciphertexts. Eight client threads then fire a Zipf-skewed mix of
//! kNN / range / LOF / outlier requests at the provider's `dpe-server`,
//! which coalesces them into per-shard batches answered on parallel
//! workers and caches hot responses. A spot check against plaintext-side mining
//! confirms the paper's claim end-to-end: every encrypted answer is
//! bit-identical.
//!
//! Run: `cargo run --release --example outsourced_serving`

use dpe::core::scheme::{QueryEncryptor, TokenDpe};
use dpe::crypto::MasterKey;
use dpe::distance::TokenDistance;
use dpe::server::{Request, Server};
use dpe::workload::{LogConfig, LogGenerator, Zipf};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const SHARDS: usize = 4;
const CLIENTS: usize = 8;
const PER_CLIENT: usize = 60;
const PER_SHARD: usize = 64;

fn main() {
    // 1. Each tenant encrypts its confidential query log and uploads only
    //    the ciphertexts. The provider's server ingests them per shard via
    //    the incremental matrix path; a plaintext twin server exists here
    //    purely to verify the DPE claim.
    let mut scheme = TokenDpe::new(&MasterKey::from_bytes([0x7B; 32]));
    let provider = Server::builder(TokenDistance)
        .shards(SHARDS)
        .cache_capacity(256)
        .build();
    let oracle = Server::builder(TokenDistance)
        .shards(SHARDS)
        .cache_capacity(0)
        .build();
    for shard in 0..SHARDS {
        let log = LogGenerator::generate(&LogConfig {
            queries: PER_SHARD,
            seed: 0x0D5E + shard as u64,
            ..Default::default()
        });
        let encrypted = scheme.encrypt_log(&log).expect("encryption");
        provider
            .ingest(shard, &encrypted)
            .expect("ingest ciphertexts");
        oracle.ingest(shard, &log).expect("ingest plaintexts");
        println!(
            "tenant {shard}: {} encrypted queries ingested (epoch {})",
            encrypted.len(),
            provider.shard_epoch(shard).unwrap()
        );
    }

    // 2. Eight clients submit Zipf-skewed request streams concurrently —
    //    hot tenants, hot items, repeated queries.
    let start = Instant::now();
    let mut submissions = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let provider = &provider;
                scope.spawn(move || {
                    let shard_zipf = Zipf::new(SHARDS, 1.0);
                    let item_zipf = Zipf::new(PER_SHARD, 1.0);
                    let kind_zipf = Zipf::new(3, 1.0);
                    let mut rng = StdRng::seed_from_u64(0xC1 + client as u64);
                    (0..PER_CLIENT)
                        .map(|_| {
                            let shard = shard_zipf.sample(&mut rng);
                            let item = item_zipf.sample(&mut rng);
                            let req = match kind_zipf.sample(&mut rng) {
                                0 => Request::Knn { shard, item, k: 5 },
                                1 => Request::Range {
                                    shard,
                                    item,
                                    radius: 0.35,
                                },
                                _ => Request::Lof { shard, min_pts: 4 },
                            };
                            (provider.submit(req.clone()).expect("submit"), req)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            submissions.extend(h.join().expect("client thread"));
        }
    });

    // 3. One drain answers everything pending: whole per-shard queues are
    //    grouped into single-lock shard batches claimed by 4 workers.
    let results = provider.drain(4);
    let elapsed = start.elapsed();
    let total = results.len();
    assert_eq!(total, CLIENTS * PER_CLIENT);

    let cache = provider.stats().cache;
    let sched = provider.stats().scheduler;
    println!(
        "\nserved {total} requests from {CLIENTS} clients in {:.2?} \
         ({:.0} req/s)",
        elapsed,
        total as f64 / elapsed.as_secs_f64()
    );
    println!(
        "cache    : {} hits / {} misses — {:.0}% of repeated encrypted \
         queries never recomputed",
        cache.hits,
        cache.misses,
        100.0 * cache.hit_rate()
    );
    println!(
        "scheduler: {} batches for {} requests ({:.1} requests per lock \
         acquisition)",
        sched.batches,
        sched.served,
        sched.served as f64 / sched.batches.max(1) as f64,
    );

    // 4. The DPE guarantee, spot-checked: answers computed on ciphertexts
    //    are bit-identical to plaintext-side mining.
    let mut checked = 0;
    for (ticket, request) in submissions.iter().step_by(17) {
        let (_, encrypted_answer) = results
            .iter()
            .find(|(t, _)| t == ticket)
            .expect("ticket answered");
        let plaintext_answer = oracle.serve_one_uncached(request).expect("oracle");
        assert!(
            encrypted_answer
                .as_ref()
                .expect("response")
                .bits_eq(&plaintext_answer),
            "encrypted serving diverged on {request:?}"
        );
        checked += 1;
    }
    println!(
        "\nDPE check: {checked}/{total} sampled responses bit-identical to \
         plaintext mining ✓"
    );
}
