//! Host fingerprint, the host-speed calibration loop and peak memory.

use crate::stats::Json;
use dpe_core::scheme::{QueryEncryptor, TokenDpe};
use dpe_crypto::MasterKey;
use dpe_distance::{QueryDistance, TokenDistance};
use dpe_workload::{LogConfig, LogGenerator};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// `nproc`, the CPU model and the filesystem that holds `durable_dir`.
pub fn fingerprint(durable_dir: &Path) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::new()
        .int("nproc", nproc)
        .str("cpu_model", &cpu)
        .str("durable_fs", &filesystem_of(durable_dir))
}

/// The type of the filesystem mounted at the longest mount point that
/// prefixes `path`, from `/proc/mounts`.
fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// A fixed loop of token distances over a fixed encrypted log, independent
/// of the run's seed: nanoseconds per call. A diagnostic of how fast the
/// host ran at that moment, never gated.
pub struct Calibration {
    log: Vec<dpe_sql::Query>,
}

impl Calibration {
    pub fn new() -> Calibration {
        let plain = LogGenerator::generate(&LogConfig {
            queries: 60,
            seed: 0xCA11_B0A7,
            ..LogConfig::default()
        });
        let log = TokenDpe::new(&MasterKey::from_bytes([0xC5; 32]))
            .encrypt_log(&plain)
            .expect("token encryption of a generated log");
        Calibration { log }
    }

    pub fn ns_per_call(&self, budget: Duration) -> f64 {
        let started = Instant::now();
        let mut calls = 0u64;
        while started.elapsed() < budget {
            calls += self.pass();
        }
        started.elapsed().as_nanos() as f64 / calls as f64
    }

    /// One pass over every pair of the log; returns the calls made.
    fn pass(&self) -> u64 {
        let mut calls = 0;
        for (i, a) in self.log.iter().enumerate() {
            for b in &self.log[..i] {
                black_box(TokenDistance.distance(black_box(a), black_box(b)).ok());
                calls += 1;
            }
        }
        calls
    }
}

/// Nanoseconds one reference chunk takes at the nominal host speed. Timing
/// metrics are reported scaled to this speed (see [`HostSpeed`]).
pub const NOMINAL_CHUNK_NS: f64 = 1_000_000.0;

/// The host's speed over a run, measured by the benchmark's own reference
/// work, interleaved with the workload: every [`HostSpeed::EVERY`] the
/// workload pauses between two operations for one chunk. A chunk builds
/// word sets as `BTreeSet<String>` from fixed texts and intersects every
/// pair, the shape of a token distance call; it calls no code of the
/// program, so a change to the program cannot move it.
#[derive(Debug)]
pub struct HostSpeed {
    texts: Vec<Vec<String>>,
    last: Instant,
    chunk_ns: u64,
    chunks: u64,
}

impl Default for HostSpeed {
    fn default() -> HostSpeed {
        let mut z = 0x005E_ED0F_4EF0_u64;
        let mut next = move || {
            z = crate::common::mix(z, 1);
            z
        };
        let texts = (0..24)
            .map(|_| {
                let words = 8 + next() % 16;
                (0..words).map(|_| format!("w{}", next() % 96)).collect()
            })
            .collect();
        HostSpeed {
            texts,
            last: Instant::now(),
            chunk_ns: 0,
            chunks: 0,
        }
    }
}

impl HostSpeed {
    pub const EVERY: Duration = Duration::from_millis(10);
    /// Chunks per sample around a phase.
    pub const AROUND: usize = 16;

    /// Runs a chunk when [`Self::EVERY`] has passed since the last one.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= Self::EVERY {
            self.chunk();
        }
    }

    /// Runs and times one chunk.
    pub fn chunk(&mut self) {
        let started = Instant::now();
        for (i, a) in self.texts.iter().enumerate() {
            for b in &self.texts[..i] {
                let sa: BTreeSet<String> = a.iter().cloned().collect();
                let sb: BTreeSet<String> = b.iter().cloned().collect();
                black_box(sa.intersection(&sb).count());
            }
        }
        self.chunk_ns += started.elapsed().as_nanos() as u64;
        self.chunks += 1;
        self.last = Instant::now();
    }

    /// Runs [`Self::AROUND`] chunks and returns their mean nanoseconds: the
    /// host's speed right now.
    pub fn sample(&mut self) -> f64 {
        let (ns, chunks) = (self.chunk_ns, self.chunks);
        for _ in 0..Self::AROUND {
            self.chunk();
        }
        (self.chunk_ns - ns) as f64 / (self.chunks - chunks) as f64
    }

    /// `secs` of a phase too long to sample between operations (a set-up, a
    /// restart), stated at the nominal speed: scaled by the host's speed
    /// sampled right before it (`before`, from [`Self::sample`]) and right
    /// after it.
    pub fn phase(&mut self, before: f64, secs: f64) -> f64 {
        let after = self.sample();
        secs * NOMINAL_CHUNK_NS / ((before + after) / 2.0)
    }

    /// A mark of the chunks run so far, for [`Self::factor_since`].
    pub fn mark(&self) -> (u64, u64) {
        (self.chunk_ns, self.chunks)
    }

    /// The factor over the chunks run since `mark`: the host's speed over a
    /// window of operations (the run's factor so far when none ran).
    pub fn factor_since(&self, mark: (u64, u64)) -> f64 {
        let (ns, chunks) = (self.chunk_ns - mark.0, self.chunks - mark.1);
        if chunks == 0 {
            return self.factor();
        }
        NOMINAL_CHUNK_NS / (ns as f64 / chunks as f64)
    }

    pub fn chunks(&self) -> u64 {
        self.chunks
    }

    /// Mean nanoseconds per chunk over the run.
    pub fn ns_per_chunk(&self) -> f64 {
        self.chunk_ns as f64 / self.chunks.max(1) as f64
    }

    /// What a time measured in this run is multiplied by to be stated at
    /// the nominal host speed: above 1 when the host ran faster than
    /// nominal, below 1 when it ran slower.
    pub fn factor(&self) -> f64 {
        NOMINAL_CHUNK_NS / self.ns_per_chunk()
    }
}

/// For `seconds`, alternates passes of the calibration loop with reference
/// chunks, and prints per half-second window the
/// calibration's ns per call, the reference's ms per chunk and their ratio;
/// then the spread (IQR over median) of 2 s and 20 s window means of the
/// calibration alone and of the ratio: the host-speed trace in the README.
pub fn speed_trace(seconds: u64) {
    let calibration = Calibration::new();
    let mut speed = HostSpeed::default();
    let mut cal = Vec::new();
    let mut ratio = Vec::new();
    for i in 0..seconds * 2 {
        let window = Instant::now();
        let (mut cal_ns, mut calls) = (0u128, 0u64);
        let mark = speed.mark();
        while window.elapsed() < Duration::from_millis(500) {
            let started = Instant::now();
            calls += calibration.pass();
            cal_ns += started.elapsed().as_nanos();
            speed.chunk();
        }
        let ns_per_call = cal_ns as f64 / calls as f64;
        let chunk_ms = NOMINAL_CHUNK_NS / speed.factor_since(mark) / 1e6;
        println!(
            "{:.1}\t{ns_per_call:.1}\t{chunk_ms:.4}\t{:.1}",
            i as f64 / 2.0,
            ns_per_call / chunk_ms
        );
        cal.push(ns_per_call);
        ratio.push(ns_per_call / chunk_ms);
    }
    for (what, values) in [
        ("calibration ns/call", &cal),
        ("ratio to reference", &ratio),
    ] {
        for span in [4usize, 40] {
            let means: Vec<f64> = values
                .chunks_exact(span)
                .map(|c| c.iter().sum::<f64>() / span as f64)
                .collect();
            let mut sorted = means.clone();
            sorted.sort_by(f64::total_cmp);
            if let (Some(q1), Some(med), Some(q3)) = (
                crate::stats::percentile(&sorted, 25.0),
                crate::stats::percentile(&sorted, 50.0),
                crate::stats::percentile(&sorted, 75.0),
            ) {
                println!(
                    "{what}: {} s windows: n={} median {med:.1}, IQR/median {:.3}",
                    span / 2,
                    means.len(),
                    (q3 - q1) / med
                );
            }
        }
    }
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn rss_peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Bytes in every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_come_from_the_chunks_in_their_window() {
        let mut speed = HostSpeed::default();
        let mark = speed.mark();
        let before = speed.sample();
        assert_eq!(speed.chunks(), HostSpeed::AROUND as u64);
        assert_eq!(speed.factor_since(mark), NOMINAL_CHUNK_NS / before);
        // A window without chunks falls back to the run's factor.
        assert_eq!(speed.factor_since(speed.mark()), speed.factor());
        // A phase is scaled by the mean of the samples before and after it.
        let mark = speed.mark();
        let stated = speed.phase(before, 2.0);
        let after = NOMINAL_CHUNK_NS / speed.factor_since(mark);
        let want = 2.0 * NOMINAL_CHUNK_NS / ((before + after) / 2.0);
        assert!((stated - want).abs() <= 1e-9 * want, "{stated} vs {want}");
    }
}
