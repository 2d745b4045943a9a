//! Concurrency regression suite for the batch-serving engine.
//!
//! The contract under test: however many client threads submit, however the
//! serving workers interleave, and whenever streaming inserts land,
//! every response is **bit-identical** to what a single-threaded oracle
//! computes against the store state the request observed. Caching, batching
//! and the workers' claiming order are allowed to change *when* work
//! happens — never *what* is answered.

use dpe_distance::{DistanceError, DistanceMatrix, QueryDistance, TokenDistance};
use dpe_durability::engine::SinkFactory;
use dpe_durability::wal::{FileSink, WalSink};
use dpe_durability::Durability;
use dpe_mining::{knn_indices, lof, range_indices, LofConfig};
use dpe_server::{Request, Response, Server, ServerError, Ticket};
use dpe_sql::Query;
use dpe_workload::{LogConfig, LogGenerator};
use std::path::Path;
use std::sync::{mpsc, Arc, Barrier, Condvar, Mutex};
use std::time::Duration;

const SHARDS: usize = 4;

fn tenant_log(shard: usize, n: usize) -> Vec<Query> {
    LogGenerator::generate(&LogConfig {
        queries: n,
        seed: 0xC0FFEE + shard as u64,
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

/// The deterministic request stream client `c` submits: a fixed
/// interleaving of kNN and range queries (plus the occasional LOF) across
/// the shards, skewed toward shard 0 like a hot tenant.
fn client_stream(c: usize, len: usize, per_shard: usize) -> Vec<Request> {
    (0..len)
        .map(|i| {
            let mix = (c * 7 + i * 13) % 10;
            let shard = if mix < 4 { 0 } else { (c + i) % SHARDS };
            let item = (c * 11 + i * 3) % per_shard;
            match mix % 3 {
                0 => Request::Knn {
                    shard,
                    item,
                    k: 1 + (i % 7),
                },
                1 => Request::Range {
                    shard,
                    item,
                    radius: 0.2 + 0.1 * ((i % 5) as f64),
                },
                _ => Request::Lof {
                    shard,
                    min_pts: 2 + (i % 3),
                },
            }
        })
        .collect()
}

/// Single-threaded oracle over a plain matrix (independent of the server's
/// code paths wherever possible).
fn oracle(matrix: &DistanceMatrix, request: &Request) -> Response {
    match *request {
        Request::Knn { item, k, .. } => Response::Indices(knn_indices(matrix, item, k)),
        Request::Range { item, radius, .. } => {
            Response::Indices(range_indices(matrix, item, radius))
        }
        Request::Lof { min_pts, .. } => Response::Scores(lof(matrix, LofConfig { min_pts })),
        _ => unreachable!("stream only issues knn/range/lof"),
    }
}

/// Matrices recomputed from scratch per shard — the server never sees them.
fn oracle_matrices(per_shard: usize, extra: usize) -> Vec<DistanceMatrix> {
    (0..SHARDS)
        .map(|shard| {
            let mut log = tenant_log(shard, per_shard);
            log.extend(tenant_log(shard + 100, extra));
            DistanceMatrix::compute(&log, &TokenDistance).unwrap()
        })
        .collect()
}

#[test]
fn concurrent_submissions_match_sequential_oracle_bitwise() {
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 40;
    const PER_SHARD: usize = 24;

    let server = build_server(PER_SHARD, 128);
    let matrices = oracle_matrices(PER_SHARD, 0);

    // All clients submit concurrently from their own threads.
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
    assert_eq!(server.queued(), CLIENTS * PER_CLIENT);

    let results = server.drain(4);
    assert_eq!(results.len(), CLIENTS * PER_CLIENT);

    // Tickets are unique and results come back sorted by them.
    for window in results.windows(2) {
        assert!(window[0].0 < window[1].0, "drain must sort by ticket");
    }

    // Every ticket's answer is bit-identical to the oracle's.
    for (ticket, request) in &submissions {
        let (_, result) = results
            .iter()
            .find(|(t, _)| t == ticket)
            .expect("every submitted ticket answered");
        let expect = oracle(&matrices[request.shard()], request);
        assert!(
            result.as_ref().unwrap().bits_eq(&expect),
            "ticket {ticket:?} diverged for {request:?}"
        );
    }
}

#[test]
fn serve_batch_matches_oracle_in_input_order() {
    const PER_SHARD: usize = 20;
    let server = build_server(PER_SHARD, 64);
    let matrices = oracle_matrices(PER_SHARD, 0);

    let mut requests = Vec::new();
    for c in 0..6 {
        requests.extend(client_stream(c, 25, PER_SHARD));
    }
    for threads in [1, 2, 4, 8] {
        let results = server.serve_batch(&requests, threads);
        assert_eq!(results.len(), requests.len());
        for (request, result) in requests.iter().zip(&results) {
            let expect = oracle(&matrices[request.shard()], request);
            assert!(
                result.as_ref().unwrap().bits_eq(&expect),
                "threads={threads}, {request:?}"
            );
        }
    }
}

#[test]
fn mid_stream_ingest_keeps_every_phase_bit_identical() {
    const PER_SHARD: usize = 18;
    const EXTRA: usize = 6;
    let server = build_server(PER_SHARD, 128);
    let before = oracle_matrices(PER_SHARD, 0);
    let after = oracle_matrices(PER_SHARD, EXTRA);

    let run_phase = |matrices: &[DistanceMatrix], items: usize| {
        let mut submissions = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|c| {
                    let server = &server;
                    scope.spawn(move || {
                        client_stream(c, 30, items)
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
        for (ticket, request) in &submissions {
            let (_, result) = results.iter().find(|(t, _)| t == ticket).unwrap();
            let expect = oracle(&matrices[request.shard()], request);
            assert!(
                result.as_ref().unwrap().bits_eq(&expect),
                "{request:?} diverged"
            );
        }
    };

    // Phase A: pre-insert store.
    run_phase(&before, PER_SHARD);

    // Mid-stream: every shard ingests a batch (the incremental extend
    // path), which must atomically invalidate that shard's cache.
    for shard in 0..SHARDS {
        server
            .ingest(shard, &tenant_log(shard + 100, EXTRA))
            .unwrap();
        assert_eq!(server.shard_len(shard).unwrap(), PER_SHARD + EXTRA);
        assert_eq!(server.shard_epoch(shard).unwrap(), 2);
    }

    // Phase B: identical request stream, now answered from the grown store.
    run_phase(&after, PER_SHARD + EXTRA);
}

#[test]
fn ingest_racing_readers_is_linearizable_per_request() {
    // Readers hammer shard 0 while a writer ingests into it. Every
    // response must equal the oracle for either the pre- or post-ingest
    // store — nothing torn, nothing stale-after-epoch.
    const PER_SHARD: usize = 16;
    const EXTRA: usize = 5;
    let server = build_server(PER_SHARD, 64);
    let pre_all = oracle_matrices(PER_SHARD, 0);
    let post_all = oracle_matrices(PER_SHARD, EXTRA);
    let (pre, post) = (&pre_all[0], &post_all[0]);

    let request = Request::Knn {
        shard: 0,
        item: 3,
        k: PER_SHARD + EXTRA, // k > n: result length reveals the store size
    };
    let expect_pre = oracle(pre, &request);
    let expect_post = oracle(post, &request);
    assert!(
        !expect_pre.bits_eq(&expect_post),
        "phases must be observable"
    );

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
                    for _ in 0..50 {
                        answers.push(server.serve_one_uncached(request).unwrap());
                    }
                    answers
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            for answer in r.join().unwrap() {
                assert!(
                    answer.bits_eq(&expect_pre) || answer.bits_eq(&expect_post),
                    "response matches neither pre- nor post-ingest oracle"
                );
            }
        }
    });

    // After the writer is done, only the post-ingest answer may appear —
    // including through the batched, cached path.
    let final_answer = &server.serve_batch(std::slice::from_ref(&request), 2)[0];
    assert!(final_answer.as_ref().unwrap().bits_eq(&expect_post));
}

#[test]
fn cached_and_uncached_paths_agree_under_churn() {
    const PER_SHARD: usize = 20;
    let cached = build_server(PER_SHARD, 256);
    let uncached = build_server(PER_SHARD, 0);

    let mut requests = Vec::new();
    for c in 0..5 {
        requests.extend(client_stream(c, 20, PER_SHARD));
    }
    // Serve the stream three times: the second and third pass on the
    // cached server are mostly hits, and must stay bit-identical to the
    // cache-disabled server's answers.
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
    let stats = cached.stats().cache;
    assert!(
        stats.hits > 0,
        "the repeated passes must actually exercise the cache: {stats:?}"
    );
    assert_eq!(uncached.stats().cache.hits, 0);
}

#[test]
fn invalid_requests_fail_cleanly_among_valid_traffic() {
    let server = build_server(10, 32);
    let requests = vec![
        Request::Knn {
            shard: 0,
            item: 2,
            k: 3,
        },
        Request::Knn {
            shard: SHARDS,
            item: 0,
            k: 1,
        },
        Request::Lof {
            shard: 1,
            min_pts: 0,
        },
        Request::Range {
            shard: 2,
            item: 99,
            radius: 0.5,
        },
        Request::Outliers {
            shard: 3,
            p: 0.5,
            d: 0.3,
        },
    ];
    let results = server.serve_batch(&requests, 4);
    assert!(results[0].is_ok());
    assert!(matches!(results[1], Err(ServerError::UnknownShard { .. })));
    assert!(matches!(results[2], Err(ServerError::BadRequest(_))));
    assert!(matches!(
        results[3],
        Err(ServerError::ItemOutOfBounds { item: 99, .. })
    ));
    assert!(results[4].is_ok());
}

/// The dispatch routine answers every request exactly once at any worker
/// count: each valid request gets its oracle answer in its own slot, each
/// misrouted one an inline `UnknownShard`, and the counters grow by the
/// valid requests and one batch per shard with work — through
/// `serve_batch` and through `submit`/`drain` alike.
#[test]
fn every_request_answered_exactly_once_at_any_thread_count() {
    const PER_SHARD: usize = 16;
    let server = build_server(PER_SHARD, 0);
    let matrices = oracle_matrices(PER_SHARD, 0);
    let mut requests = Vec::new();
    for c in 0..8 {
        requests.extend(client_stream(c, 30, PER_SHARD));
    }
    let valid = requests.len();
    for (i, shard) in [(7, SHARDS), (100, SHARDS + 3), (valid, 99)] {
        requests.insert(
            i,
            Request::Knn {
                shard,
                item: 0,
                k: 1,
            },
        );
    }
    let check = |results: &[Result<Response, ServerError>], ctx: &str| {
        assert_eq!(results.len(), requests.len(), "{ctx}");
        for (request, result) in requests.iter().zip(results) {
            if request.shard() >= SHARDS {
                assert_eq!(
                    result,
                    &Err(ServerError::UnknownShard {
                        shard: request.shard(),
                        shards: SHARDS
                    }),
                    "{ctx}"
                );
            } else {
                let expect = oracle(&matrices[request.shard()], request);
                assert!(
                    result.as_ref().unwrap().bits_eq(&expect),
                    "{ctx}: {request:?}"
                );
            }
        }
    };
    for threads in [1, 2, 4, 8] {
        let before = server.stats().scheduler;
        check(&server.serve_batch(&requests, threads), "serve_batch");
        let after = server.stats().scheduler;
        assert_eq!(
            after.served - before.served,
            valid as u64,
            "threads={threads}"
        );
        assert_eq!(
            after.batches - before.batches,
            SHARDS as u64,
            "threads={threads}"
        );

        // The same valid requests through the intake: one answer per
        // ticket, in ticket order, counted exactly like serve_batch.
        let tickets: Vec<Ticket> = requests
            .iter()
            .filter(|r| r.shard() < SHARDS)
            .map(|r| server.submit(r.clone()).unwrap())
            .collect();
        let drained = server.drain(threads);
        assert_eq!(server.queued(), 0);
        let drained_tickets: Vec<Ticket> = drained.iter().map(|(t, _)| *t).collect();
        assert_eq!(drained_tickets, tickets, "threads={threads}");
        let valid_requests = requests.iter().filter(|r| r.shard() < SHARDS);
        for ((_, result), request) in drained.iter().zip(valid_requests) {
            let expect = oracle(&matrices[request.shard()], request);
            assert!(
                result.as_ref().unwrap().bits_eq(&expect),
                "drain threads={threads}: {request:?}"
            );
        }
        let drained_stats = server.stats().scheduler;
        assert_eq!(drained_stats.served - after.served, valid as u64);
        assert_eq!(drained_stats.batches - after.batches, SHARDS as u64);
    }
}

/// A spot an ingest parks in: once armed, the next call to [`Gate::pass`]
/// reports in and waits until [`Gate::release`].
#[derive(Debug, Default)]
struct Gate {
    state: Mutex<GateState>,
    changed: Condvar,
}

#[derive(Debug, Default)]
struct GateState {
    armed: bool,
    parked: bool,
    released: bool,
}

impl Gate {
    fn arm(&self) {
        self.state.lock().unwrap().armed = true;
    }

    fn pass(&self) {
        let mut state = self.state.lock().unwrap();
        if !std::mem::take(&mut state.armed) {
            return;
        }
        state.parked = true;
        self.changed.notify_all();
        while !state.released {
            state = self.changed.wait(state).unwrap();
        }
    }

    /// `true` once a caller is parked, `false` after `timeout`.
    fn wait_parked(&self, timeout: Duration) -> bool {
        let state = self.state.lock().unwrap();
        let (state, _) = self
            .changed
            .wait_timeout_while(state, timeout, |s| !s.parked)
            .unwrap();
        state.parked
    }

    fn release(&self) {
        self.state.lock().unwrap().released = true;
        self.changed.notify_all();
    }
}

/// Token distance whose calls pass through a [`Gate`].
#[derive(Debug)]
struct GatedDistance(Arc<Gate>);

impl QueryDistance for GatedDistance {
    fn distance(&self, a: &Query, b: &Query) -> Result<f64, DistanceError> {
        self.0.pass();
        TokenDistance.distance(a, b)
    }

    fn name(&self) -> &'static str {
        "gated-token"
    }
}

/// WAL sinks whose `sync` passes through a [`Gate`].
struct GatedSyncs(Arc<Gate>);

impl SinkFactory for GatedSyncs {
    fn open_wal(&self, _shard: usize, path: &Path) -> std::io::Result<Box<dyn WalSink>> {
        Ok(Box::new(GatedSink(
            FileSink::open(path)?,
            Arc::clone(&self.0),
        )))
    }
}

struct GatedSink(FileSink, Arc<Gate>);

impl WalSink for GatedSink {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.0.append(bytes)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.1.pass();
        self.0.sync()
    }

    fn truncate_to(&mut self, keep: u64) -> std::io::Result<()> {
        self.0.truncate_to(keep)
    }
}

/// Arms `gate`, starts an ingest of `more` into shard 0 and, once it is
/// parked at the gate, reads shard 0 from another thread. The read must
/// finish while the ingest stays parked and see the pre-ingest store;
/// after the release the ingest lands. Every wait is bounded, and the
/// gate is released before any assertion, so a reader that blocks on the
/// ingest fails the test instead of hanging it.
fn reader_sees_the_old_store_while_ingest_is_parked<M: QueryDistance + Sync>(
    server: &Server<M>,
    gate: &Gate,
    more: &[Query],
) {
    let request = Request::Knn {
        shard: 0,
        item: 0,
        k: 64,
    };
    let before = server.serve_one_uncached(&request).unwrap();
    let epoch = server.shard_epoch(0).unwrap();
    gate.arm();
    std::thread::scope(|scope| {
        let ingest = scope.spawn(|| server.ingest(0, more));
        let parked = gate.wait_parked(Duration::from_secs(30));
        let (tx, rx) = mpsc::channel();
        if parked {
            let request = &request;
            scope.spawn(move || {
                let read = (
                    server.shard_epoch(0).unwrap(),
                    server.serve_one_uncached(request).unwrap(),
                );
                let _ = tx.send(read);
            });
        }
        let read = rx.recv_timeout(Duration::from_secs(5));
        gate.release();
        assert!(parked, "the ingest never reached the gate");
        let (seen_epoch, seen) = read.expect("a reader of the shard waited for the parked ingest");
        assert_eq!(seen_epoch, epoch, "the parked ingest is not visible yet");
        assert!(seen.bits_eq(&before), "the reader saw a changed store");
        ingest.join().unwrap().unwrap();
    });
    assert_eq!(server.shard_epoch(0).unwrap(), epoch + 1);
    let after = server.serve_one_uncached(&request).unwrap();
    assert!(!after.bits_eq(&before), "the released ingest landed");
}

#[test]
fn reader_is_served_while_ingest_is_parked_in_a_distance_call() {
    let gate = Arc::new(Gate::default());
    let server = Server::builder(GatedDistance(Arc::clone(&gate))).build();
    server.ingest(0, &tenant_log(0, 10)).unwrap();
    reader_sees_the_old_store_while_ingest_is_parked(&server, &gate, &tenant_log(1, 4));
}

#[test]
fn reader_is_served_while_ingest_is_parked_in_wal_sync() {
    let dir = std::env::temp_dir().join(format!("dpe-parked-sync-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let gate = Arc::new(Gate::default());
    let engine = Durability::create_with(&dir, 1, &GatedSyncs(Arc::clone(&gate))).unwrap();
    let server = Server::builder(TokenDistance)
        .durability_engine(Arc::new(engine))
        .build();
    server.ingest(0, &tenant_log(0, 10)).unwrap();
    reader_sees_the_old_store_while_ingest_is_parked(&server, &gate, &tenant_log(1, 4));
    drop(server);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A checkpoint that starts while an ingest is parked in WAL sync must wait
/// for that ingest's commit: had it cut the snapshot first, its WAL reset
/// would erase an acknowledged batch the snapshot does not hold.
#[test]
fn checkpoint_waits_for_an_ingest_parked_in_wal_sync() {
    let dir = std::env::temp_dir().join(format!("dpe-parked-checkpoint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let gate = Arc::new(Gate::default());
    let engine = Durability::create_with(&dir, 2, &GatedSyncs(Arc::clone(&gate))).unwrap();
    let server = Server::builder(TokenDistance)
        .shards(2)
        .durability_engine(Arc::new(engine))
        .build();
    let oracle = Server::builder(TokenDistance).shards(2).build();
    let (first, second, other) = (tenant_log(0, 8), tenant_log(1, 4), tenant_log(2, 5));
    for (shard, log) in [(0, &first), (1, &other)] {
        server.ingest(shard, log).unwrap();
        oracle.ingest(shard, log).unwrap();
    }
    oracle.ingest(0, &second).unwrap();

    gate.arm();
    std::thread::scope(|scope| {
        let ingest = scope.spawn(|| server.ingest(0, &second));
        let parked = gate.wait_parked(Duration::from_secs(30));
        let checkpoint = scope.spawn(|| server.checkpoint());
        // Give the checkpoint time to run ahead of the parked ingest. The
        // sleep only sets how likely a checkpoint that ignores the ingest
        // is caught; a correct one passes whatever the timing.
        std::thread::sleep(Duration::from_millis(100));
        gate.release();
        assert!(parked, "the ingest never reached the gate");
        ingest.join().unwrap().unwrap();
        checkpoint.join().unwrap().unwrap();
    });
    drop(server);

    let recovered = Server::builder(TokenDistance)
        .durability(&dir)
        .recover()
        .unwrap();
    assert_eq!(
        recovered.shard_epoch(0).unwrap(),
        2,
        "no acknowledged batch lost"
    );
    for shard in 0..2 {
        for request in [
            Request::Knn {
                shard,
                item: 1,
                k: 20,
            },
            Request::Lof { shard, min_pts: 3 },
        ] {
            assert!(
                recovered
                    .serve_one_uncached(&request)
                    .unwrap()
                    .bits_eq(&oracle.serve_one_uncached(&request).unwrap()),
                "{request:?}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
