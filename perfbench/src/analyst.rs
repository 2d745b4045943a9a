//! `analyst_mining`: read-only warm serving. In set-up the owner durably
//! uploads two tenants and the provider checkpoints; the provider restarts
//! from that directory and warms its plans; one analyst thread then sends
//! the request mix (point requests, native and through the SQL front door,
//! and whole-shard mining) one at a time until the time is up.

use crate::common::{
    abba, answer, answer_all, bits_equal, create_durable, encrypt, extend_calls, matrix_bytes,
    owner_key, preload, probes, recover_durable, register_pairs, sql_bytes, tenant_log, timed,
    warm_plans, Call, Measure, Mix, Op, Phases, Report, Timings, CACHE, MEASURE,
};
use crate::host;
use crate::layers::{self, Serving};
use crate::stats::{Json, Samples};
use crate::trace;
use crate::Args;
use dpe_core::scheme::TokenDpe;
use dpe_distance::TokenDistance;
use dpe_server::{Request, Server, ServerBuilder};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

const TENANTS: usize = 2;
const PER_TENANT: usize = 300;
/// Requests in the analyst's trace (100 decks), replayed until the time is
/// up. Serving counters are reported for one timed replay, exactly.
const TRACE_LEN: usize = 2400;
/// One set-up and restart are repeated after every `REPLAYS_PER_SETUP`
/// replays, outside the loop's time.
const REPLAYS_PER_SETUP: usize = 2;
/// Timed replays a run makes at least, however short its `--seconds`.
const MIN_REPLAYS: usize = 8;
const PROBES: usize = 96;
/// Restarts per set-up, each re-opening the set-up's directory.
const RESTARTS: usize = 2;
/// The request a restarted server answers first.
const FIRST: Op = Op::Native(Request::Knn {
    shard: 0,
    item: 0,
    k: 10,
});

fn plain_logs(seed: u64) -> Vec<Vec<dpe_sql::Query>> {
    (0..TENANTS)
        .map(|t| tenant_log(seed, t, PER_TENANT))
        .collect()
}

fn builder() -> ServerBuilder<Measure> {
    Server::builder(MEASURE)
        .metric_index(true)
        .cache_capacity(CACHE)
}

/// The owner's side of the set-up: generates the logs, derives the key,
/// encrypts, and durably uploads both tenants into `dir` (tenant 0, a
/// checkpoint, then tenant 1, so a restart loads the snapshot and replays
/// one WAL record).
fn upload(seed: u64, dir: &Path) -> Result<(), String> {
    let mut scheme = TokenDpe::new(&owner_key(seed));
    let server = create_durable(builder(), dir, TENANTS).map_err(|e| e.to_string())?;
    for (t, log) in plain_logs(seed).iter().enumerate() {
        let enc = encrypt(&mut scheme, log);
        trace::in_span("ingest", || server.ingest(t, &enc)).map_err(|e| e.to_string())?;
        if t == 0 {
            trace::in_span("checkpoint", || server.checkpoint()).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// A provider restarted and warmed by [`setup`].
struct Provider {
    server: Server<Measure>,
    /// Upload and warming seconds, as measured and as stated at the
    /// nominal host speed.
    setup: (f64, f64),
    /// `ServerBuilder::recover` plus the first answer, likewise, once per
    /// restart.
    restarts: Phases,
    /// Distance calls the upload and each restart made.
    upload_calls: u64,
    replay_calls: u64,
}

/// One set-up over `dir`: the upload, then [`RESTARTS`] restarts
/// (`ServerBuilder::recover` plus the first answer), each re-opening the
/// same directory, then the SQL bindings and warm clustering plans on the
/// last restarted server.
fn setup(seed: u64, dir: &Path, report: &mut Report) -> Result<Provider, String> {
    let calls = || trace::DISTANCE_CALLS.load(Ordering::Relaxed);
    let before = calls();
    let speed_before = report.speed.sample();
    let (uploaded, upload_s) = timed(|| upload(seed, dir));
    let upload_stated = report.speed.phase(speed_before, upload_s);
    uploaded?;
    let upload_calls = calls() - before;
    let mut restarts = Phases::default();
    let mut replay_calls = Vec::with_capacity(RESTARTS);
    let mut restarted = None;
    for _ in 0..RESTARTS {
        drop(restarted.take());
        let calls_before = calls();
        let speed_before = report.speed.sample();
        let started = Instant::now();
        let server = report
            .op(trace::in_span("recover", || {
                recover_durable(builder(), dir)
            }))
            .ok_or("restarting the provider failed")?;
        let first = trace::in_span("first_answer", || answer(&server, &FIRST));
        let restart_s = started.elapsed().as_secs_f64();
        replay_calls.push(calls() - calls_before);
        restarts.push(restart_s, report.speed.phase(speed_before, restart_s));
        report.op(first);
        restarted = Some(server);
    }
    let server = restarted.expect("one restart at least");
    report.check(
        "every restart replays the same distance calls",
        replay_calls.iter().all(|&c| c == replay_calls[0]),
    );
    let speed_before = report.speed.sample();
    let ((), warm_s) = timed(|| {
        register_pairs(&server, TENANTS);
        warm_plans(&server, TENANTS);
    });
    let warm_stated = report.speed.phase(speed_before, warm_s);
    report.check("shard lengths and epochs after restart", shards_ok(&server));
    Ok(Provider {
        server,
        setup: (upload_s + warm_s, upload_stated + warm_stated),
        restarts,
        upload_calls,
        replay_calls: replay_calls[0],
    })
}

fn shards_ok(server: &Server<Measure>) -> bool {
    (0..TENANTS).all(|t| {
        server.shard_len(t).ok() == Some(PER_TENANT) && server.shard_epoch(t).ok() == Some(1)
    })
}

pub fn run(args: &Args, scratch: &Path, report: &mut Report) -> Result<(), String> {
    // A traced run traces its first set-up and restart: the only place this
    // workload encrypts, ingests, writes the WAL, checkpoints and recovers.
    let dir = scratch.join("analyst-0");
    trace::set_enabled(args.trace);
    let provider = setup(args.seed, &dir, report);
    trace::set_enabled(false);
    let provider = provider?;
    let (mut setups, mut restarts) = (Phases::default(), Phases::default());
    setups.push(provider.setup.0, provider.setup.1);
    restarts.extend(&provider.restarts);
    let server = &provider.server;
    let plain = plain_logs(args.seed);
    let user_bytes: u64 = plain.iter().map(|l| sql_bytes(l)).sum();
    let disk_bytes = host::dir_bytes(&dir);
    let snapshot_bytes = host::dir_bytes(&dir.join("snap"));
    let twin = preload(TokenDistance, &plain);
    let lens = [PER_TENANT; TENANTS];
    let mut mix = Mix::new(args.seed, lens);
    let calls: Vec<Call> = (0..TRACE_LEN).map(|_| mix.next_call()).collect();
    let mut requests = Timings::default();
    let (mut point, mut analytic) = (Samples::default(), Samples::default());
    let mut replay_times = Vec::new();
    let mut per_replay: Vec<Serving> = Vec::new();
    let (mut traced_s, mut untraced_s) = (Samples::default(), Samples::default());
    let mut probes_ok = true;
    let mut distance_before = trace::DISTANCE_CALLS.load(Ordering::Relaxed);

    // Replay 0 fills the response cache and is not timed. The trace holds
    // more distinct requests per tenant than the tenant's share of the LRU
    // cache, so every later replay meets the same cache state at every
    // position and does the same work (checked below).
    let mut loop_time = Duration::ZERO;
    let mut replay = 0usize;
    while replay <= MIN_REPLAYS || loop_time < Duration::from_secs(args.seconds) {
        let timed_replay = replay > 0;
        // A traced run traces whole replays in ABBA order.
        let traced = args.trace && abba(replay as u64);
        let before = server.stats();
        let replay_start = Instant::now();
        let speed = report.speed.mark();
        let mut latencies = Vec::with_capacity(calls.len());
        for call in &calls {
            trace::set_enabled(traced);
            // A traced request's latency includes its lock probe: that is
            // part of what tracing adds.
            let t = Instant::now();
            let result = {
                let _request = trace::span("request");
                if traced && call.tenant == 0 {
                    let epoch = trace::in_span("shard_epoch", || server.shard_epoch(0));
                    probes_ok &= epoch == Ok(1);
                }
                answer(server, &call.op)
            };
            let secs = t.elapsed().as_secs_f64();
            trace::set_enabled(false);
            report.op(result);
            report.tick();
            if timed_replay {
                latencies.push(secs);
                if call.op.is_point() {
                    &mut point
                } else {
                    &mut analytic
                }
                .push(secs);
            }
        }
        let replay_s = replay_start.elapsed();
        per_replay.push(Serving::between(&before, &server.stats()));
        if timed_replay {
            requests.push_window(&latencies, report.speed.factor_since(speed));
            loop_time += replay_s;
            replay_times.push(replay_s.as_secs_f64());
            if args.trace {
                if traced {
                    &mut traced_s
                } else {
                    &mut untraced_s
                }
                .push(replay_s.as_secs_f64());
            }
        }
        replay += 1;
        if replay.is_multiple_of(REPLAYS_PER_SETUP) {
            // The repeated set-up's distance calls are not the loop's.
            let calls = trace::DISTANCE_CALLS.load(Ordering::Relaxed);
            let again = scratch.join(format!("analyst-{replay}"));
            let repeat = setup(args.seed, &again, report)?;
            report.check(
                "every set-up makes the same distance calls",
                (repeat.upload_calls, repeat.replay_calls)
                    == (provider.upload_calls, provider.replay_calls),
            );
            setups.push(repeat.setup.0, repeat.setup.1);
            restarts.extend(&repeat.restarts);
            drop(repeat);
            std::fs::remove_dir_all(&again)
                .map_err(|e| format!("removing {}: {e}", again.display()))?;
            distance_before += trace::DISTANCE_CALLS.load(Ordering::Relaxed) - calls;
        }
    }
    let distance_calls = trace::DISTANCE_CALLS.load(Ordering::Relaxed) - distance_before;
    let window = per_replay[1].clone();
    let sql_calls = calls.iter().filter(|c| matches!(c.op, Op::Sql(_))).count() as u64;

    report.check("the timed loop makes no distance call", distance_calls == 0);
    report.check(
        "every timed replay makes the same serving counts",
        per_replay[1..]
            .iter()
            .all(|s| s.counts().render() == window.counts().render()),
    );
    let tenant_calls = extend_calls(0, PER_TENANT as u64);
    report.check(
        "the upload and the restart make the extend contract's distance calls",
        provider.upload_calls == TENANTS as u64 * tenant_calls
            && provider.replay_calls == tenant_calls,
    );
    report.check("traced epoch probes read epoch 1", probes_ok);
    report.check(
        "shard lengths and epochs are unchanged by the loop",
        shards_ok(server),
    );
    let probe_ops = probes(args.seed, lens, PROBES);
    let served = answer_all(server, &probe_ops).map_err(|e| e.to_string())?;
    let twin = answer_all(&twin, &probe_ops).map_err(|e| e.to_string())?;
    report.check(
        "ciphertext answers equal the plaintext twin's",
        bits_equal(&served, &twin),
    );
    report.check(
        "hits, misses and evictions all occur in a replay",
        window.cache_hits > 0 && window.cache_misses > 0 && window.cache_evictions > 0,
    );

    setups.report(report, "setup_s");
    requests.report_rate(report, "ops_per_s");
    requests.report_percentile(report, "op_p50_ms", "request", 50.0)?;
    requests.report_percentile(report, "op_p95_ms", "request", 95.0)?;
    restarts.report(report, "restart_s");
    let disk = disk_bytes as f64 / user_bytes as f64;
    report.e2e("disk_bytes_per_user_byte", disk, disk);
    let rss = host::rss_peak_mb().ok_or("no VmHWM in /proc/self/status")?;
    report.e2e("rss_peak_mb", rss, rss);

    report.detail = std::mem::take(&mut report.detail)
        .obj(
            "counts",
            window
                .counts()
                .int("window_requests", TRACE_LEN as u64)
                .int("sql.calls", sql_calls)
                .int("distance.calls", distance_calls)
                .int("upload.distance_calls", provider.upload_calls)
                .int("recover.replay_distance_calls", provider.replay_calls)
                .int("disk.bytes", disk_bytes)
                .int("snapshot.bytes", snapshot_bytes)
                .int("user.bytes", user_bytes),
        )
        .obj(
            "samples",
            Json::new()
                .int("replays", replay as u64)
                .int("setups", setups.measured.len() as u64)
                .obj("request_ms", requests.measured.deciles(1e3))
                .obj("replay_s", Samples::from(replay_times).deciles(1.0))
                .obj("point_us", point.deciles(1e6))
                .obj("analytic_ms", analytic.deciles(1e3)),
        );

    if args.trace {
        let spans = trace::spans();
        let by_name = trace::totals_by_name(&spans);
        layers::per_call(report, &by_name, PER_TENANT as f64);
        layers::recover_times(report, &spans);
        window.fill(report, PER_TENANT as f64);
        layers::serve_latency(report, &point, &analytic);
        report.layer("distance.calls", distance_calls as f64);
        report.layer(
            "matrix.bytes",
            (TENANTS as u64 * matrix_bytes(PER_TENANT as u64)) as f64,
        );
        report.layer("snapshot.bytes", snapshot_bytes as f64);
        report.layer("recover.replay_records", 1.0);
        report.layer(
            "recover.replay_distance_calls",
            provider.replay_calls as f64,
        );
        report.layer("sql.calls", sql_calls as f64);
        let mean = |s: &Samples| s.sum() / s.len() as f64;
        report.layer(
            "trace.overhead_pct",
            (mean(&traced_s) / mean(&untraced_s) - 1.0) * 100.0,
        );
        let request = by_name.get("request").cloned().unwrap_or_default();
        report.layer(
            "trace.unattributed_pct",
            request.self_ns as f64 / request.total_ns.max(1) as f64 * 100.0,
        );
    }
    Ok(())
}
