//! The owner→analyst benchmark.
//!
//! ```text
//! perfbench --workload <owner_upload|analyst_mining>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. It generates its inputs from the seed,
//! runs the workload's closed loop for the given seconds, checks the
//! answers, appends a detail record (host fingerprint, calibration, exact
//! counts) to `.perfbench/runs.jsonl`, and prints, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. End-to-end timings are stated at a nominal host
//! speed, measured by reference work interleaved with the workload
//! (`host::HostSpeed`). See `perfbench/README.md`.
//!
//! `perfbench --speed-trace <seconds>` instead prints the host-speed trace:
//! the calibration loop's ns per call, the reference's ms per chunk and
//! their ratio, in half-second windows.

mod analyst;
mod common;
mod host;
mod layers;
mod owner;
mod stats;
mod trace;

use common::Report;
use stats::Json;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const WORKLOADS: [&str; 2] = ["owner_upload", "analyst_mining"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.len() == 3 && argv[1] == "--speed-trace" {
        match argv[2].parse() {
            Ok(seconds) => host::speed_trace(seconds),
            Err(e) => {
                eprintln!("perfbench: --speed-trace: {e}");
                std::process::exit(2);
            }
        }
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(".perfbench");
    let scratch = work.join(format!("tmp-{}", std::process::id()));
    let outcome = std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("creating {}: {e}", scratch.display()))
        .and_then(|()| run(&args, &work, &scratch));
    let _ = std::fs::remove_dir_all(&scratch);
    match outcome {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs one workload and returns the final result line.
fn run(args: &Args, work: &Path, scratch: &Path) -> Result<String, String> {
    let calibration = host::Calibration::new();
    let calib_start = calibration.ns_per_call(Duration::from_millis(300));
    let mut report = Report::default();
    match args.workload.as_str() {
        "owner_upload" => owner::run(args, scratch, &mut report)?,
        "analyst_mining" => analyst::run(args, scratch, &mut report)?,
        _ => unreachable!("validated in parse_args"),
    }
    let calib_end = calibration.ns_per_call(Duration::from_millis(300));

    let mut metrics = Json::new();
    let mut listed = Json::new();
    let mut measured = Json::new();
    if args.trace {
        for (name, unit) in layers::LAYERS {
            let value = report.layers.get(name).copied().unwrap_or(0.0);
            metrics = metrics.obj(name, Json::new().num("value", value).str("unit", unit));
        }
        for name in report.layers.keys() {
            if layers::unit(name).is_none() {
                return Err(format!("per-layer metric {name} is not listed"));
            }
        }
    } else {
        for &(name, unit) in layers::END_TO_END {
            let &(as_measured, value) = report
                .end_to_end
                .get(name)
                .ok_or(format!("the workload did not measure {name}"))?;
            if !value.is_finite() || value <= 0.0 {
                return Err(format!("metric {name} is {value}; it must be positive"));
            }
            metrics = metrics.obj(name, Json::new().num("value", value).str("unit", unit));
            listed = listed.num(name, value);
            measured = measured.num(name, as_measured);
        }
        for name in report.end_to_end.keys() {
            if layers::END_TO_END.iter().all(|(n, _)| n != name) {
                return Err(format!("end-to-end metric {name} is not listed"));
            }
        }
    }
    let correct = report.checks.iter().all(|(_, ok)| *ok);
    let mut checks = Json::new();
    for (name, ok) in &report.checks {
        checks = checks.bool(name, *ok);
    }
    let detail = Json::new()
        .str("workload", &args.workload)
        .int("seed", args.seed)
        .int("seconds", args.seconds)
        .bool("trace", args.trace)
        .obj(
            "host",
            host::fingerprint(scratch)
                .num("calibration_start_ns_per_call", calib_start)
                .num("calibration_end_ns_per_call", calib_end)
                .num("reference_ns_per_chunk", report.speed.ns_per_chunk())
                .int("reference_chunks", report.speed.chunks())
                .num("speed_factor", report.speed.factor()),
        )
        .str(
            "durability",
            "WAL: write + sync_data per record; snapshot: write, fsync, rename",
        )
        .obj("checks", checks)
        .obj("run", std::mem::take(&mut report.detail))
        .obj("end_to_end", listed)
        .obj("end_to_end_as_measured", measured)
        .obj("per_layer", {
            let mut j = Json::new();
            for (name, value) in &report.layers {
                j = j.num(name, *value);
            }
            j
        })
        .bool("correct", correct)
        .int("attempted", report.attempted)
        .int("failed", report.failed);
    let detail = detail.render();
    println!("{detail}");
    append_record(&work.join("runs.jsonl"), &detail)?;
    if args.trace {
        let path = work.join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        trace::write_spans(&path, &trace::spans())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    if report.attempted == 0 {
        return Err("the run attempted no operation".into());
    }
    Ok(Json::new()
        .bool("correct", correct)
        .int("attempted", report.attempted)
        .int("failed", report.failed)
        .obj("metrics", metrics)
        .render())
}

fn append_record(path: &Path, line: &str) -> Result<(), String> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("opening {}: {e}", path.display()))?;
    writeln!(f, "{line}").map_err(|e| format!("writing {}: {e}", path.display()))
}
