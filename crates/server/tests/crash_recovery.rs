//! Crash-recovery differential suite (ISSUE 10 tentpole acceptance).
//!
//! One contract, checked three ways: a recovered server serves
//! **bit-identical** responses to an uncrashed oracle that ingested the
//! surviving history —
//!
//! 1. the clean round trip: checkpoint mid-history, keep writing, drop,
//!    recover — every request variant (knn, range, lof, outliers,
//!    clustering, pipeline, sql) must answer bit-identically, including
//!    after *post-recovery* ingests on both sides;
//! 2. the kill sweep: a [`FailpointFs`] byte budget cuts the WAL at,
//!    one byte before, and one byte past **every** record boundary
//!    (the acknowledged-but-lost crash model — the server believed every
//!    write succeeded); recovery must replay exactly the records whose
//!    last byte reached disk, then serve like an oracle that only ever
//!    saw those;
//! 3. the error sweep: an [`ErrorFs`] sink makes the WAL append of
//!    **every** record return an error, before writing, after half a
//!    frame, or after a full frame whose sync fails. The failed ingest
//!    must be neither visible nor durable: the live server, and the
//!    server recovered from its directory, serve like an oracle that
//!    never saw that batch, and later ingests succeed;
//! 4. damaged state — torn WAL magic, flipped snapshot byte, flipped
//!    frame byte, a logged or snapshotted query whose rendering does not
//!    lex — surfaces as a typed [`ServerError::Durability`], never as a
//!    garbage shard; a discarded torn WAL tail is counted in the
//!    server's durability stats.
//!
//! When `DPE_RECOVERY_CORPUS` is set, every sweep case's WAL image is
//! copied there before recovery is attempted, so a failing CI run
//! uploads the exact bytes that broke recovery as its fuzz corpus.

use dpe_distance::{DistanceMatrix, TokenDistance};
use dpe_durability::testkit::{ErrorFs, FailpointFs, Fault};
use dpe_durability::{Durability, DurabilityError, ShardStateRef};
use dpe_mining::Linkage;
use dpe_server::{
    dist_literal, ClusterRule, PlanOp, Projection, Request, Response, Server, ServerError, SqlTable,
};
use dpe_sql::Query;
use dpe_workload::{LogConfig, LogGenerator};
use std::path::PathBuf;
use std::sync::Arc;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dpe-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn batch(seed: u64, n: usize) -> Vec<Query> {
    LogGenerator::generate(&LogConfig {
        queries: n,
        seed: 0xC4A5 + seed,
        ..Default::default()
    })
}

/// Every request variant the server serves, parameterized only by shard —
/// items/anchors are small indices so the same list exercises stores of
/// any size (out-of-bounds on a short store is part of the contract: the
/// recovered server must return the *same typed error* as the oracle).
fn variant_requests(shard: usize) -> Vec<Request> {
    vec![
        Request::Knn {
            shard,
            item: 1,
            k: 3,
        },
        Request::Range {
            shard,
            item: 0,
            radius: 0.6,
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
            linkage: Linkage::Complete,
            k: 2,
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
        Request::Pipeline {
            shard,
            ops: vec![
                PlanOp::FilterRange {
                    item: 0,
                    radius: 0.8,
                },
                PlanOp::ClusterLabels(ClusterRule::Hierarchical {
                    linkage: Linkage::Single,
                    k: 2,
                }),
                PlanOp::Project(Projection::Labels),
            ],
        },
    ]
}

fn pairs_binding(shard: usize) -> SqlTable {
    SqlTable {
        table: "pairs".into(),
        shard,
        item_col: "item".into(),
        anchor_col: "anchor".into(),
        dist_col: "dist".into(),
    }
}

fn sql_workload() -> Vec<String> {
    let c = dist_literal(0.7);
    vec![
        "SELECT item FROM pairs WHERE anchor = 0".into(),
        format!("SELECT item FROM pairs WHERE anchor = 1 AND dist <= {c}"),
        "SELECT item FROM pairs WHERE anchor = 0 ORDER BY dist LIMIT 4".into(),
    ]
}

/// Ok ⇒ bit-identical response; Err ⇒ the same typed error.
fn assert_same(
    got: &Result<Response, ServerError>,
    want: &Result<Response, ServerError>,
    ctx: &dyn std::fmt::Debug,
) {
    match (got, want) {
        (Ok(g), Ok(w)) => assert!(g.bits_eq(w), "response bits diverged: {ctx:?}"),
        (Err(g), Err(w)) => assert_eq!(g, w, "error diverged: {ctx:?}"),
        (g, w) => panic!("Ok/Err diverged for {ctx:?}: got {g:?}, want {w:?}"),
    }
}

fn assert_servers_agree(
    recovered: &Server<TokenDistance>,
    oracle: &Server<TokenDistance>,
    shards: usize,
    ctx: &str,
) {
    for shard in 0..shards {
        for req in variant_requests(shard) {
            assert_same(
                &recovered.serve_one_uncached(&req),
                &oracle.serve_one_uncached(&req),
                &(ctx, &req),
            );
        }
    }
    for sql in sql_workload() {
        match (recovered.sql(&sql), oracle.sql(&sql)) {
            (Ok(g), Ok(w)) => assert!(g.bits_eq(&w), "{ctx}: sql bits diverged: {sql}"),
            (Err(g), Err(w)) => assert_eq!(g, w, "{ctx}: sql error diverged: {sql}"),
            (g, w) => panic!("{ctx}: sql Ok/Err diverged for {sql}: got {g:?}, want {w:?}"),
        }
    }
}

/// Clean crash (drop without checkpoint-flush) after a mid-history
/// checkpoint: recovery = snapshot base + WAL tail, bit-identical across
/// every variant, and the recovered engine keeps logging afterwards.
#[test]
fn recovered_server_is_bit_identical_across_every_request_variant() {
    const SHARDS: usize = 3;
    let dir = tmp("variants");
    let durable = Server::builder(TokenDistance)
        .shards(SHARDS)
        .durability(&dir)
        .build();
    let oracle = Server::builder(TokenDistance).shards(SHARDS).build();

    // History: plain ingests, a checkpoint in the middle, a streamed
    // ingest, and more plain ingests past the snapshot.
    for shard in 0..SHARDS {
        let b = batch(shard as u64, 6 + shard);
        durable.ingest(shard, &b).unwrap();
        oracle.ingest(shard, &b).unwrap();
    }
    durable.checkpoint().unwrap();
    let streamed = batch(90, 6);
    let chunks: Vec<Vec<Query>> = streamed.chunks(2).map(<[Query]>::to_vec).collect();
    durable.ingest_stream(1, chunks.clone()).unwrap();
    oracle.ingest_stream(1, chunks).unwrap();
    for shard in 0..SHARDS {
        let b = batch(100 + shard as u64, 3);
        durable.ingest(shard, &b).unwrap();
        oracle.ingest(shard, &b).unwrap();
    }
    let epochs: Vec<u64> = (0..SHARDS)
        .map(|s| durable.shard_epoch(s).unwrap())
        .collect();
    drop(durable);

    let recovered = Server::builder(TokenDistance)
        .durability(&dir)
        .recover()
        .unwrap();
    assert_eq!(recovered.shard_count(), SHARDS);
    for (shard, &epoch) in epochs.iter().enumerate() {
        assert_eq!(
            recovered.shard_epoch(shard).unwrap(),
            epoch,
            "shard {shard}"
        );
    }
    // SQL bindings are session state, not durable state: re-register on
    // both sides and the front door must agree bit-for-bit.
    recovered.register_sql_table(pairs_binding(1)).unwrap();
    oracle.register_sql_table(pairs_binding(1)).unwrap();
    assert_servers_agree(&recovered, &oracle, SHARDS, "post-recovery");

    // The recovered engine keeps logging: ingest on both sides, agree
    // again, then a *second* recovery sees the post-recovery writes.
    let extra = batch(777, 4);
    recovered.ingest(2, &extra).unwrap();
    oracle.ingest(2, &extra).unwrap();
    assert_servers_agree(&recovered, &oracle, SHARDS, "post-recovery ingest");
    let final_epoch = recovered.shard_epoch(2).unwrap();
    drop(recovered);
    let twice = Server::builder(TokenDistance)
        .durability(&dir)
        .recover()
        .unwrap();
    twice.register_sql_table(pairs_binding(1)).unwrap();
    assert_eq!(twice.shard_epoch(2).unwrap(), final_epoch);
    assert_servers_agree(&twice, &oracle, SHARDS, "second recovery");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Checkpoints racing ingests on several shards. A checkpoint holds every
/// shard's writer gate, so each snapshot is one cross-shard cut and no
/// batch can be logged between a snapshot and the WAL reset behind it.
/// Recovery must return exactly the acknowledged batches, bit-identical
/// to an in-memory oracle that ingested them in the same per-shard order.
#[test]
fn checkpoints_racing_ingests_recover_exactly_the_acknowledged_batches() {
    const SHARDS: usize = 3;
    const BATCHES: usize = 16;
    let dir = tmp("checkpoint-race");
    let durable = Server::builder(TokenDistance)
        .shards(SHARDS)
        .durability(&dir)
        .build();
    let batches = |shard: usize| -> Vec<Vec<Query>> {
        (0..BATCHES)
            .map(|b| batch((200 + shard * BATCHES + b) as u64, 2 + (shard + b) % 3))
            .collect()
    };

    let checkpoints = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..SHARDS)
            .map(|shard| {
                let (durable, batches) = (&durable, &batches);
                scope.spawn(move || {
                    for b in batches(shard) {
                        durable.ingest(shard, &b).unwrap();
                    }
                })
            })
            .collect();
        let mut checkpoints = 0u64;
        while checkpoints < 2 || !writers.iter().all(|w| w.is_finished()) {
            durable.checkpoint().unwrap();
            checkpoints += 1;
        }
        checkpoints
    });
    // One more batch past the last snapshot, so recovery also replays a
    // WAL tail.
    let tail = batch(299, 3);
    durable.ingest(0, &tail).unwrap();
    let stats = durable
        .stats()
        .durability
        .expect("durable server has stats");
    assert_eq!(stats.checkpoints, checkpoints);
    drop(durable);

    let oracle = Server::builder(TokenDistance).shards(SHARDS).build();
    for shard in 0..SHARDS {
        for b in batches(shard) {
            oracle.ingest(shard, &b).unwrap();
        }
    }
    oracle.ingest(0, &tail).unwrap();
    let recovered = Server::builder(TokenDistance)
        .durability(&dir)
        .recover()
        .unwrap();
    for shard in 0..SHARDS {
        let acknowledged = BATCHES as u64 + u64::from(shard == 0);
        assert_eq!(
            recovered.shard_epoch(shard).unwrap(),
            acknowledged,
            "shard {shard}"
        );
        assert_eq!(
            recovered.shard_len(shard).unwrap(),
            oracle.shard_len(shard).unwrap(),
            "shard {shard}"
        );
    }
    recovered.register_sql_table(pairs_binding(1)).unwrap();
    oracle.register_sql_table(pairs_binding(1)).unwrap();
    assert_servers_agree(&recovered, &oracle, SHARDS, "checkpoint race");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The history both sweeps cut at every record.
fn sweep_batches() -> Vec<Vec<Query>> {
    vec![
        batch(1, 3),
        batch(2, 2),
        Vec::new(), // an empty batch is a real record: it bumps the epoch
        batch(3, 4),
        batch(4, 1),
    ]
}

/// `DPE_RECOVERY_CORPUS`, created, when set.
fn corpus_dir() -> Option<PathBuf> {
    let corpus = std::env::var_os("DPE_RECOVERY_CORPUS").map(PathBuf::from);
    if let Some(c) = &corpus {
        std::fs::create_dir_all(c).unwrap();
    }
    corpus
}

/// The kill sweep: cut the WAL at / one byte before / one byte past every
/// record boundary. The server acknowledged every write; recovery must
/// serve exactly the prefix whose bytes survived.
#[test]
fn kill_after_every_wal_record_boundary_recovers_the_exact_prefix() {
    // Phase A: unbudgeted run, learning each record's end offset.
    let batches = sweep_batches();
    let dir_a = tmp("sweep-full");
    let full = Server::builder(TokenDistance).durability(&dir_a).build();
    let mut boundaries = Vec::new();
    for b in &batches {
        full.ingest(0, b).unwrap();
        boundaries.push(full.stats().durability.unwrap().wal_bytes);
    }
    drop(full);
    std::fs::remove_dir_all(&dir_a).unwrap();

    // Phase B: budgets bracketing every boundary, plus "only the magic
    // survived" (8) and "nothing lost" (MAX).
    let mut budgets = vec![8, u64::MAX];
    for &b in &boundaries {
        budgets.extend([b - 1, b, b + 1]);
    }
    budgets.sort_unstable();
    budgets.dedup();

    let corpus = corpus_dir();
    for budget in budgets {
        let dir = tmp(&format!("sweep-{budget}"));
        let fp = FailpointFs::new(budget);
        let engine = Arc::new(Durability::create_with(&dir, 1, &fp).unwrap());
        let crashed = Server::builder(TokenDistance)
            .durability_engine(engine)
            .build();
        for b in &batches {
            // The crash model is acknowledged-but-lost: every ingest
            // reports success even though bytes past the budget never
            // reached the disk.
            crashed.ingest(0, b).unwrap();
        }
        drop(crashed);

        // Archive the damaged WAL *before* attempting recovery, so a
        // failure below still leaves the corpus artifact behind.
        if let Some(c) = &corpus {
            std::fs::copy(
                dir.join("wal").join("shard-0.wal"),
                c.join(format!("budget-{budget}.wal")),
            )
            .unwrap();
        }

        let survivors = boundaries.iter().filter(|&&b| b <= budget).count();
        let recovered = Server::builder(TokenDistance)
            .durability(&dir)
            .recover()
            .unwrap();
        assert_eq!(
            recovered.shard_epoch(0).unwrap(),
            survivors as u64,
            "budget {budget}: wrong number of records replayed"
        );

        let oracle = Server::builder(TokenDistance).build();
        for b in &batches[..survivors] {
            oracle.ingest(0, b).unwrap();
        }
        recovered.register_sql_table(pairs_binding(0)).unwrap();
        oracle.register_sql_table(pairs_binding(0)).unwrap();
        assert_servers_agree(&recovered, &oracle, 1, &format!("budget {budget}"));

        // Life goes on after recovery: the torn tail was truncated, so
        // new writes land on a clean log and survive a second recovery.
        let extra = batch(55, 3);
        recovered.ingest(0, &extra).unwrap();
        oracle.ingest(0, &extra).unwrap();
        assert_servers_agree(
            &recovered,
            &oracle,
            1,
            &format!("budget {budget} post-ingest"),
        );
        drop(recovered);
        let twice = Server::builder(TokenDistance)
            .durability(&dir)
            .recover()
            .unwrap();
        assert_eq!(twice.shard_epoch(0).unwrap(), survivors as u64 + 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The error sweep: the WAL append of record `k` returns an error, for
/// every `k` and every [`Fault`]. The writer truncates the log back to its
/// last good length and the shard rolls back, so ingest `k` is rejected
/// and is neither visible nor durable.
#[test]
fn failed_wal_append_at_every_record_is_neither_visible_nor_durable() {
    let batches = sweep_batches();
    let corpus = corpus_dir();
    for k in 1..=batches.len() {
        for fault in [Fault::BeforeWrite, Fault::ShortWrite, Fault::SyncError] {
            let ctx = format!("record {k}, {fault:?}");
            let dir = tmp(&format!("errsweep-{k}-{fault:?}"));
            // Append 0 is the WAL magic, so append k is record k.
            let efs = ErrorFs::new(k as u64, fault);
            let engine = Arc::new(Durability::create_with(&dir, 1, &efs).unwrap());
            let live = Server::builder(TokenDistance)
                .durability_engine(engine)
                .build();
            let oracle = Server::builder(TokenDistance).build();
            for (i, b) in batches.iter().enumerate() {
                let got = live.ingest(0, b);
                if i + 1 == k {
                    assert!(
                        matches!(
                            got,
                            Err(ServerError::Durability(DurabilityError::Io { .. }))
                        ),
                        "{ctx}: {got:?}"
                    );
                    assert_eq!(
                        live.shard_epoch(0).unwrap(),
                        oracle.shard_epoch(0).unwrap(),
                        "{ctx}: the rejected ingest moved the epoch"
                    );
                } else {
                    got.unwrap();
                    oracle.ingest(0, b).unwrap();
                }
            }
            live.register_sql_table(pairs_binding(0)).unwrap();
            oracle.register_sql_table(pairs_binding(0)).unwrap();
            assert_servers_agree(&live, &oracle, 1, &ctx);

            // The fault was transient and left the log a valid prefix, so
            // later ingests succeed and chain on it.
            let extra = batch(55, 3);
            live.ingest(0, &extra).unwrap();
            oracle.ingest(0, &extra).unwrap();
            let epoch = live.shard_epoch(0).unwrap();
            assert_eq!(epoch, oracle.shard_epoch(0).unwrap(), "{ctx}");
            assert_servers_agree(&live, &oracle, 1, &format!("{ctx} post-ingest"));
            drop(live);

            if let Some(c) = &corpus {
                std::fs::copy(
                    dir.join("wal").join("shard-0.wal"),
                    c.join(format!("error-{k}-{fault:?}.wal")),
                )
                .unwrap();
            }
            let recovered = Server::builder(TokenDistance)
                .durability(&dir)
                .recover()
                .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
            assert_eq!(recovered.shard_epoch(0).unwrap(), epoch, "{ctx}");
            recovered.register_sql_table(pairs_binding(0)).unwrap();
            assert_servers_agree(&recovered, &oracle, 1, &format!("{ctx} recovered"));
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// When the rollback truncate fails too, half a frame stays in the log.
/// The writer then refuses every append (an append after the half frame
/// would bury it) until a checkpoint resets the log, and recovery returns
/// the acknowledged prefix. A full frame whose sync *and* truncate both
/// fail is a double fault and out of scope: the log would keep a complete
/// record of an ingest the server rejected.
#[test]
fn failed_rollback_refuses_appends_until_a_checkpoint() {
    let batches = sweep_batches();
    let dir = tmp("fenced");
    let efs = ErrorFs::with_failing_truncate(2, Fault::ShortWrite);
    let engine = Arc::new(Durability::create_with(&dir, 1, &efs).unwrap());
    let live = Server::builder(TokenDistance)
        .durability_engine(engine)
        .build();
    let oracle = Server::builder(TokenDistance).build();
    live.register_sql_table(pairs_binding(0)).unwrap();
    oracle.register_sql_table(pairs_binding(0)).unwrap();
    live.ingest(0, &batches[0]).unwrap();
    oracle.ingest(0, &batches[0]).unwrap();
    assert!(matches!(
        live.ingest(0, &batches[1]),
        Err(ServerError::Durability(DurabilityError::Io { .. }))
    ));
    for b in &batches[1..] {
        assert_eq!(
            live.ingest(0, b),
            Err(ServerError::Durability(DurabilityError::WalFenced {
                shard: 0
            }))
        );
    }
    assert_eq!(live.shard_epoch(0).unwrap(), 1);
    assert_servers_agree(&live, &oracle, 1, "fenced");

    // Recovering a copy of the directory yields the acknowledged prefix:
    // the half frame is a torn tail.
    let copy = tmp("fenced-copy");
    std::fs::create_dir_all(copy.join("wal")).unwrap();
    std::fs::copy(dir.join("MANIFEST"), copy.join("MANIFEST")).unwrap();
    std::fs::copy(
        dir.join("wal").join("shard-0.wal"),
        copy.join("wal").join("shard-0.wal"),
    )
    .unwrap();
    let recovered = Server::builder(TokenDistance)
        .durability(&copy)
        .recover()
        .unwrap();
    assert_eq!(recovered.shard_epoch(0).unwrap(), 1);
    recovered.register_sql_table(pairs_binding(0)).unwrap();
    assert_servers_agree(&recovered, &oracle, 1, "fenced, recovered");
    drop(recovered);
    std::fs::remove_dir_all(&copy).unwrap();

    // A checkpoint resets the log and lifts the refusal.
    live.checkpoint().unwrap();
    for b in &batches[1..] {
        live.ingest(0, b).unwrap();
        oracle.ingest(0, b).unwrap();
    }
    let epoch = live.shard_epoch(0).unwrap();
    drop(live);
    let recovered = Server::builder(TokenDistance)
        .durability(&dir)
        .recover()
        .unwrap();
    assert_eq!(recovered.shard_epoch(0).unwrap(), epoch);
    recovered.register_sql_table(pairs_binding(0)).unwrap();
    assert_servers_agree(&recovered, &oracle, 1, "after checkpoint, recovered");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A streamed upload whose second chunk fails its WAL append keeps the
/// first chunk, visible and durable, and cuts the producer off.
#[test]
fn failed_append_mid_stream_keeps_the_durable_prefix() {
    let dir = tmp("stream-error");
    let efs = ErrorFs::new(2, Fault::SyncError);
    let engine = Arc::new(Durability::create_with(&dir, 1, &efs).unwrap());
    let live = Server::builder(TokenDistance)
        .durability_engine(engine)
        .build();
    let chunks = vec![batch(1, 3), Vec::new(), batch(2, 2), batch(3, 4)];
    let err = live.ingest_stream(0, chunks.clone()).unwrap_err();
    assert!(matches!(err, ServerError::Durability(_)), "{err:?}");
    assert_eq!(live.shard_epoch(0).unwrap(), 1);
    assert_eq!(live.shard_len(0).unwrap(), 3);
    let oracle = Server::builder(TokenDistance).build();
    oracle.ingest(0, &chunks[0]).unwrap();
    live.register_sql_table(pairs_binding(0)).unwrap();
    oracle.register_sql_table(pairs_binding(0)).unwrap();
    assert_servers_agree(&live, &oracle, 1, "stream error");
    drop(live);
    let recovered = Server::builder(TokenDistance)
        .durability(&dir)
        .recover()
        .unwrap();
    recovered.register_sql_table(pairs_binding(0)).unwrap();
    assert_servers_agree(&recovered, &oracle, 1, "stream error, recovered");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A budget that tears the 8-byte WAL magic itself is corruption, not a
/// fresh log: recovery refuses with a typed error.
#[test]
fn torn_wal_magic_is_a_typed_error() {
    let dir = tmp("torn-magic");
    let fp = FailpointFs::new(5);
    let engine = Arc::new(Durability::create_with(&dir, 1, &fp).unwrap());
    let s = Server::builder(TokenDistance)
        .durability_engine(engine)
        .build();
    s.ingest(0, &batch(1, 2)).unwrap();
    drop(s);
    let err = Server::builder(TokenDistance)
        .durability(&dir)
        .recover()
        .unwrap_err();
    assert!(
        matches!(
            &err,
            ServerError::Durability(DurabilityError::CorruptRecord { offset: 0, .. })
        ),
        "{err:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Flipping a byte inside a *complete* WAL frame (past the length prefix)
/// is a checksum mismatch — a typed error, never a silently altered
/// record.
#[test]
fn corrupt_wal_checksum_is_a_typed_error() {
    let dir = tmp("flip-frame");
    let s = Server::builder(TokenDistance).durability(&dir).build();
    s.ingest(0, &batch(1, 3)).unwrap();
    s.ingest(0, &batch(2, 2)).unwrap();
    drop(s);
    let wal = dir.join("wal").join("shard-0.wal");
    let mut bytes = std::fs::read(&wal).unwrap();
    // Offset 8 (magic) + 12 (frame header) + 2 lands in the first
    // record's payload: the frame is complete, its checksum now wrong.
    bytes[8 + 12 + 2] ^= 0x40;
    std::fs::write(&wal, &bytes).unwrap();
    let err = Server::builder(TokenDistance)
        .durability(&dir)
        .recover()
        .unwrap_err();
    assert!(
        matches!(
            &err,
            ServerError::Durability(DurabilityError::CorruptRecord { shard: 0, .. })
        ),
        "{err:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A partially written / bit-rotted snapshot is a typed error — recovery
/// never builds shards from a snapshot that fails its checksum.
#[test]
fn corrupt_snapshot_is_a_typed_error() {
    let dir = tmp("flip-snap");
    let s = Server::builder(TokenDistance)
        .shards(2)
        .durability(&dir)
        .build();
    s.ingest(0, &batch(1, 4)).unwrap();
    s.ingest(1, &batch(2, 3)).unwrap();
    s.checkpoint().unwrap();
    drop(s);
    let snap_dir = dir.join("snap");
    let snap = std::fs::read_dir(&snap_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "dps"))
        .expect("checkpoint wrote a snapshot");
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&snap, &bytes).unwrap();
    let err = Server::builder(TokenDistance)
        .durability(&dir)
        .recover()
        .unwrap_err();
    assert!(
        matches!(
            &err,
            ServerError::Durability(DurabilityError::CorruptSnapshot { .. })
        ),
        "{err:?}"
    );

    // Truncation (a partial snapshot write that somehow got renamed) is
    // equally typed.
    let full = std::fs::read(&snap).unwrap();
    std::fs::write(&snap, &full[..full.len() / 3]).unwrap();
    let err = Server::builder(TokenDistance)
        .durability(&dir)
        .recover()
        .unwrap_err();
    assert!(
        matches!(
            &err,
            ServerError::Durability(DurabilityError::CorruptSnapshot { .. })
        ),
        "{err:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A torn WAL tail that opening the log truncated shows up in
/// `Server::stats().durability.torn_tails`; a clean log counts none.
#[test]
fn truncated_torn_tail_is_counted_in_stats() {
    let dir = tmp("torn-stats");
    let s = Server::builder(TokenDistance)
        .shards(2)
        .durability(&dir)
        .build();
    s.ingest(0, &batch(1, 3)).unwrap();
    s.ingest(0, &batch(2, 2)).unwrap();
    s.ingest(1, &batch(3, 2)).unwrap();
    assert_eq!(s.stats().durability.unwrap().torn_tails, 0);
    drop(s);
    let wal = dir.join("wal").join("shard-0.wal");
    let bytes = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &bytes[..bytes.len() - 3]).unwrap();

    let torn = Server::builder(TokenDistance)
        .durability(&dir)
        .recover()
        .unwrap();
    assert_eq!(
        torn.shard_epoch(0).unwrap(),
        1,
        "the torn record is dropped"
    );
    assert_eq!(torn.stats().durability.unwrap().torn_tails, 1);
    drop(torn);

    let clean = Server::builder(TokenDistance)
        .durability(&dir)
        .recover()
        .unwrap();
    assert_eq!(clean.stats().durability.unwrap().torn_tails, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A query the ingest door refuses: its `LIMIT` renders above `i64::MAX`,
/// so the rendering does not lex.
fn unlexable_query() -> Query {
    let mut q = batch(1, 1).remove(0);
    q.limit = Some(u64::MAX);
    q
}

/// A WAL record holding a query whose rendering does not lex, logged
/// around the ingest door, is a corrupt record on recovery.
#[test]
fn logged_unlexable_query_is_a_corrupt_record() {
    let dir = tmp("unlexable-wal");
    let engine = Durability::create(&dir, 1).unwrap();
    engine.log_ingest(0, 1, &[unlexable_query()]).unwrap();
    drop(engine);
    let err = Server::builder(TokenDistance)
        .durability(&dir)
        .recover()
        .unwrap_err();
    assert!(
        matches!(
            &err,
            ServerError::Durability(DurabilityError::CorruptRecord { shard: 0, detail, .. })
                if detail.contains("does not lex")
        ),
        "{err:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The same query in a snapshot is a corrupt snapshot on recovery.
#[test]
fn snapshotted_unlexable_query_is_a_corrupt_snapshot() {
    let dir = tmp("unlexable-snap");
    let engine = Durability::create(&dir, 1).unwrap();
    engine
        .checkpoint(&[ShardStateRef {
            epoch: 1,
            queries: &[unlexable_query()],
            matrix: &DistanceMatrix::from_fn(1, |_, _| 0.0),
        }])
        .unwrap();
    drop(engine);
    let err = Server::builder(TokenDistance)
        .durability(&dir)
        .recover()
        .unwrap_err();
    assert!(
        matches!(
            &err,
            ServerError::Durability(DurabilityError::CorruptSnapshot { detail, .. })
                if detail.contains("does not lex")
        ),
        "{err:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
