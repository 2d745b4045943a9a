//! `owner_upload`: the data owner's path. One thread encrypts two tenants'
//! logs batch by batch and durably ingests each batch, checkpointing once
//! half-way; then the server is dropped and `ServerBuilder::recover` plus
//! the first answer is timed, several times over the same directory.
//! Rounds repeat until the time is up; every round does the same work.

use crate::common::{
    abba, answer, answer_all, bits_equal, create_durable, encrypt, extend_calls, matrix_bytes,
    owner_key, preload, probes, recover_durable, register_pairs, sql_bytes, tenant_log, timed,
    Measure, Op, Phases, Report, Timings, BATCH, MEASURE,
};
use crate::host;
use crate::layers::Serving;
use crate::stats::{Json, Samples};
use crate::trace;
use crate::Args;
use dpe_core::scheme::TokenDpe;
use dpe_distance::TokenDistance;
use dpe_durability::Durability;
use dpe_server::{Request, Response, Server, ServerBuilder};
use dpe_sql::Query;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

const TENANTS: usize = 2;
/// Plaintext queries per tenant per round.
const PER_TENANT: usize = 256;
/// Batches per round; the checkpoint follows batch `BATCHES / 2`.
const BATCHES: usize = TENANTS * PER_TENANT / BATCH;
/// Recoveries timed per round, each re-opening the same directory.
const RECOVERIES: usize = 2;
/// One set-up is repeated after every `ROUNDS_PER_SETUP` rounds.
const ROUNDS_PER_SETUP: usize = 2;
/// Rounds a run makes at least, however short its `--seconds`.
const MIN_ROUNDS: usize = 8;
const PROBES: usize = 48;

struct Inputs {
    logs: Vec<Vec<Query>>,
    scheme: TokenDpe,
    /// The plaintext twin: a server over the plaintext logs.
    twin: Server<TokenDistance>,
}

/// Generates the logs, derives the owner's keys and builds the plaintext
/// twin the correctness checks compare against.
fn setup(seed: u64) -> Inputs {
    let logs: Vec<Vec<Query>> = (0..TENANTS)
        .map(|t| tenant_log(seed, t, PER_TENANT))
        .collect();
    let scheme = TokenDpe::new(&owner_key(seed));
    let twin = preload(TokenDistance, &logs);
    Inputs { logs, scheme, twin }
}

fn builder() -> ServerBuilder<Measure> {
    Server::builder(MEASURE)
        .metric_index(true)
        .cache_capacity(64)
}

/// Exact per-round counts. They must repeat in every round and every run
/// of a seed.
#[derive(Debug, Default, Clone, PartialEq)]
struct RoundCounts {
    distance_calls: u64,
    replay_distance_calls: Vec<u64>,
    wal_appends: u64,
    wal_syncs: u64,
    wal_bytes: u64,
    disk_bytes: u64,
    snapshot_bytes: u64,
    matrix_bytes: u64,
    first_answer: Vec<u64>,
    serving: Vec<(u64, u64, u64)>,
}

#[derive(Default)]
struct Acc {
    /// Seconds per batch, and per round's upload.
    upload: Timings,
    round_upload: Vec<f64>,
    recover: Phases,
    /// Batch seconds with tracing on and off, for the tracing overhead.
    traced: Samples,
    untraced: Samples,
    /// Serving counters of the recovered server that answered the probe
    /// set (round 0), first answer included.
    probe_serving: Option<Serving>,
    /// Probe latencies on that server, point and whole-shard, and its SQL
    /// calls.
    point: Samples,
    analytic: Samples,
    sql_calls: u64,
    counts: Vec<RoundCounts>,
}

pub fn run(args: &Args, scratch: &Path, report: &mut Report) -> Result<(), String> {
    let mut setups = Phases::default();
    let mut inputs = setups.time(&mut report.speed, || setup(args.seed));
    let probe_ops = probes(args.seed, [PER_TENANT; TENANTS], PROBES);
    let twin_answers = answer_all(&inputs.twin, &probe_ops).map_err(|e| e.to_string())?;
    let user_bytes: u64 = inputs.logs.iter().map(|l| sql_bytes(l)).sum();

    let mut acc = Acc::default();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut round = 0usize;
    while round < MIN_ROUNDS || !round.is_multiple_of(ROUNDS_PER_SETUP) || Instant::now() < deadline
    {
        let dir = scratch.join(format!("owner-{round}"));
        let check = (round == 0).then_some((&probe_ops[..], &twin_answers[..]));
        // A traced run traces whole rounds in ABBA order, so traced and
        // untraced rounds do the same work.
        let tracing = Tracing {
            run: args.trace,
            round: args.trace && abba(round as u64),
        };
        one_round(&dir, &mut inputs, check, &mut acc, report, tracing)?;
        std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
        round += 1;
        if round.is_multiple_of(ROUNDS_PER_SETUP) {
            setups.time(&mut report.speed, || setup(args.seed));
        }
    }

    let first = acc.counts[0].clone();
    report.check(
        "every round made identical counts",
        acc.counts.iter().all(|c| *c == first),
    );
    report.check(
        "distance calls equal the extend contract",
        first.distance_calls == contract_calls(0..BATCHES),
    );
    report.check(
        "each recovery replays the distance calls of the WAL tail",
        first
            .replay_distance_calls
            .iter()
            .all(|&c| c == contract_calls(BATCHES / 2..BATCHES)),
    );
    report.check(
        "one WAL append and one sync per batch",
        first.wal_appends == BATCHES as u64 && first.wal_syncs == BATCHES as u64,
    );

    setups.report(report, "setup_s");
    // An owner operation is one upload batch: encrypt plus `ingest` (the
    // checkpoint counts towards the batch it follows).
    acc.upload.report_rate(report, "ops_per_s");
    acc.upload
        .report_percentile(report, "op_p50_ms", "upload batch", 50.0)?;
    acc.upload
        .report_percentile(report, "op_p95_ms", "upload batch", 95.0)?;
    acc.recover.report(report, "restart_s");
    let recoveries = Samples::from(acc.recover.measured.clone());
    let disk = first.disk_bytes as f64 / user_bytes as f64;
    report.e2e("disk_bytes_per_user_byte", disk, disk);
    let rss = host::rss_peak_mb().ok_or("no VmHWM in /proc/self/status")?;
    report.e2e("rss_peak_mb", rss, rss);

    let serving = acc.probe_serving.clone().unwrap_or_default();
    let counts = Json::new()
        .int("core.encrypt_calls", (TENANTS * PER_TENANT) as u64)
        .int("distance.calls", first.distance_calls)
        .int("wal.appends", first.wal_appends)
        .int("wal.syncs", first.wal_syncs)
        .int("wal.bytes", first.wal_bytes)
        .int("snapshot.bytes", first.snapshot_bytes)
        .int("matrix.bytes", first.matrix_bytes)
        .int("disk.bytes", first.disk_bytes)
        .int("user.bytes", user_bytes)
        .int("recover.replay_records", (BATCHES - BATCHES / 2) as u64)
        .int(
            "recover.replay_distance_calls",
            first.replay_distance_calls[0],
        )
        .obj("serving_probe_set", serving.counts());
    report.detail = std::mem::take(&mut report.detail)
        .obj("counts", counts)
        .obj(
            "samples",
            Json::new()
                .int("rounds", round as u64)
                .obj(
                    "round_upload_s",
                    Samples::from(acc.round_upload.clone()).deciles(1.0),
                )
                .obj("upload_batch_ms", acc.upload.measured.deciles(1e3))
                .obj("recover_s", recoveries.deciles(1.0))
                .int("setups", setups.measured.len() as u64),
        );
    if args.trace {
        layers(report, &acc, &first, &serving);
    }
    Ok(())
}

/// Distance calls the extend contract predicts for the given batches of a
/// round.
fn contract_calls(batches: std::ops::Range<usize>) -> u64 {
    // Tenants alternate, so batch `i` lands on a shard already holding
    // `i / TENANTS` batches.
    batches
        .map(|i| extend_calls((i / TENANTS * BATCH) as u64, BATCH as u64))
        .sum()
}

fn counters() -> [u64; 4] {
    [
        trace::DISTANCE_CALLS.load(Ordering::Relaxed),
        trace::WAL_APPENDS.load(Ordering::Relaxed),
        trace::WAL_SYNCS.load(Ordering::Relaxed),
        trace::WAL_APPEND_BYTES.load(Ordering::Relaxed),
    ]
}

/// Whether the run is traced, and whether this round is.
#[derive(Clone, Copy)]
struct Tracing {
    run: bool,
    round: bool,
}

fn one_round(
    dir: &Path,
    inputs: &mut Inputs,
    check: Option<(&[Op], &[Response])>,
    acc: &mut Acc,
    report: &mut Report,
    tracing: Tracing,
) -> Result<(), String> {
    let server = report
        .op(create_durable(builder(), dir, TENANTS))
        .ok_or("creating the durable server failed")?;
    let mut counts = RoundCounts::default();
    let before = counters();
    let traced = tracing.round;
    let mut batches = Vec::with_capacity(BATCHES);
    let speed = report.speed.mark();
    for i in 0..BATCHES {
        let (t, b) = (i % TENANTS, i / TENANTS);
        let plain = &inputs.logs[t][b * BATCH..(b + 1) * BATCH];
        trace::set_enabled(traced);
        let started = Instant::now();
        {
            let _batch = trace::span("upload_batch");
            let enc = encrypt(&mut inputs.scheme, plain);
            report.op(trace::in_span("ingest", || server.ingest(t, &enc)));
            if i + 1 == BATCHES / 2 {
                report.op(trace::in_span("checkpoint", || server.checkpoint()));
            }
        }
        let secs = started.elapsed().as_secs_f64();
        trace::set_enabled(false);
        report.tick();
        batches.push(secs);
        if traced {
            acc.traced.push(secs);
        } else if tracing.run {
            acc.untraced.push(secs);
        }
    }
    acc.upload
        .push_window(&batches, report.speed.factor_since(speed));
    acc.round_upload.push(batches.iter().sum());
    let after = counters();
    counts.distance_calls = after[0] - before[0];
    counts.wal_appends = after[1] - before[1];
    counts.wal_syncs = after[2] - before[2];
    counts.wal_bytes = after[3] - before[3];
    counts.snapshot_bytes = host::dir_bytes(&dir.join("snap"));
    counts.disk_bytes = host::dir_bytes(dir);
    counts.matrix_bytes = TENANTS as u64 * matrix_bytes(PER_TENANT as u64);
    let stats = server.stats().durability.unwrap_or_default();
    report.check(
        "WAL records appended equal the batches",
        stats.wal_records == BATCHES as u64 && stats.checkpoints == 1,
    );
    trace::set_enabled(traced);
    report.check("shard lengths and epochs after upload", shards_ok(&server));
    trace::set_enabled(false);
    let before_crash = match check {
        Some((ops, twin)) => {
            register_pairs(&server, TENANTS);
            let pre = answer_all(&server, ops).map_err(|e| e.to_string())?;
            report.check(
                "ciphertext answers equal the plaintext twin's",
                bits_equal(&pre, twin),
            );
            Some(pre)
        }
        None => None,
    };
    drop(server);
    if check.is_some() {
        let tail: usize = Durability::open(dir)
            .and_then(|engine| engine.recover())
            .map_err(|e| e.to_string())?
            .iter()
            .map(|r| r.tail.len())
            .sum();
        report.check(
            "recovery replays the WAL records written after the checkpoint",
            tail == BATCHES - BATCHES / 2,
        );
    }

    let first_req = Op::Native(Request::Knn {
        shard: 0,
        item: 0,
        k: 10,
    });
    for rep in 0..RECOVERIES {
        let speed_before = report.speed.sample();
        trace::set_enabled(traced);
        let calls_before = trace::DISTANCE_CALLS.load(Ordering::Relaxed);
        let started = Instant::now();
        let recovered = trace::in_span("recover", || recover_durable(builder(), dir));
        let recovered = report.op(recovered);
        let first = recovered.as_ref().map(|s| {
            (
                s.stats(),
                trace::in_span("first_answer", || answer(s, &first_req)),
            )
        });
        let secs = started.elapsed().as_secs_f64();
        trace::set_enabled(false);
        let stated = report.speed.phase(speed_before, secs);
        let (Some(recovered), Some((stats_before, first))) = (recovered, first) else {
            continue;
        };
        if let Some(dpe_server::Response::Indices(items)) = report.op(first) {
            counts.first_answer = items.iter().map(|&i| i as u64).collect();
        }
        acc.recover.push(secs, stated);
        counts
            .replay_distance_calls
            .push(trace::DISTANCE_CALLS.load(Ordering::Relaxed) - calls_before);
        let serving = Serving::between(&stats_before, &recovered.stats());
        counts.serving.push((
            serving.cache_misses,
            serving.distance_cells,
            serving.pruned_cells,
        ));
        trace::set_enabled(traced);
        report.check(
            "shard lengths and epochs after recovery",
            shards_ok(&recovered),
        );
        if let (0, Some((ops, _))) = (rep, check) {
            // The probe set is the only serving this workload does; with
            // tracing on its latencies and spans feed the serving layers.
            register_pairs(&recovered, TENANTS);
            let mut after = Vec::with_capacity(ops.len());
            for op in ops {
                let (got, secs) = timed(|| answer(&recovered, op));
                after.push(got.map_err(|e| e.to_string())?);
                if op.is_point() {
                    &mut acc.point
                } else {
                    &mut acc.analytic
                }
                .push(secs);
                acc.sql_calls += u64::from(matches!(op, Op::Sql(_)));
            }
            acc.probe_serving = Some(Serving::between(&stats_before, &recovered.stats()));
            let pre = before_crash.as_deref().expect("answered before the crash");
            report.check(
                "recovered answers are bit-identical to the answers before the crash",
                bits_equal(pre, &after),
            );
        }
        trace::set_enabled(false);
    }
    acc.counts.push(counts);
    Ok(())
}

/// Reads every shard's length and epoch (the epoch read spanned as the
/// shard-lock probe).
fn shards_ok(server: &Server<Measure>) -> bool {
    (0..TENANTS).all(|t| {
        server.shard_len(t).ok() == Some(PER_TENANT)
            && trace::in_span("shard_epoch", || server.shard_epoch(t)).ok()
                == Some((PER_TENANT / BATCH) as u64)
    })
}

/// Per-layer metrics from the traced run's spans. Counts are per round;
/// shares are of the traced batches' time.
fn layers(report: &mut Report, acc: &Acc, counts: &RoundCounts, serving: &Serving) {
    let spans = trace::spans();
    let by_name = trace::totals_by_name(&spans);
    let get = |n: &str| by_name.get(n).cloned().unwrap_or_default();
    let batch = get("upload_batch");
    let ingest = get("ingest");
    let share = |ns: u64| ns as f64 / batch.total_ns.max(1) as f64 * 100.0;
    report.layer("core.encrypt_calls", (TENANTS * PER_TENANT) as f64);
    crate::layers::per_call(report, &by_name, BATCH as f64);
    report.layer("distance.calls", counts.distance_calls as f64);
    report.layer("distance.self_pct", share(ingest.distance_ns));
    // The ingest span minus its WAL children and its distance calls: the
    // matrix extend and the index absorb.
    report.layer("ingest.self_pct", share(ingest.self_ns));
    report.layer("matrix.bytes", counts.matrix_bytes as f64);
    report.layer("wal.appends", counts.wal_appends as f64);
    report.layer("wal.syncs", counts.wal_syncs as f64);
    report.layer("wal.bytes", counts.wal_bytes as f64);
    report.layer("snapshot.bytes", counts.snapshot_bytes as f64);
    report.layer("recover.replay_records", (BATCHES - BATCHES / 2) as f64);
    report.layer(
        "recover.replay_distance_calls",
        counts.replay_distance_calls[0] as f64,
    );
    crate::layers::recover_times(report, &spans);
    serving.fill(report, PER_TENANT as f64);
    report.layer("sql.calls", acc.sql_calls as f64);
    crate::layers::serve_latency(report, &acc.point, &acc.analytic);
    let mean = |s: &Samples| s.sum() / s.len() as f64;
    report.layer(
        "trace.overhead_pct",
        (mean(&acc.traced) / mean(&acc.untraced) - 1.0) * 100.0,
    );
    // What no named layer covers: the batch span's own self time.
    report.layer("trace.unattributed_pct", share(batch.self_ns));
}
