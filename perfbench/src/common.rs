//! What the workloads share: seeded inputs, server construction over the
//! durable directory, the analyst's request mix, and the run report.

use crate::host::HostSpeed;
use crate::stats::{median, Json, Samples};
use crate::trace::{self, TimedSinkFactory, TracedDistance};
use dpe_core::scheme::{QueryEncryptor, TokenDpe};
use dpe_crypto::MasterKey;
use dpe_distance::{QueryDistance, TokenDistance};
use dpe_durability::Durability;
use dpe_mining::Linkage;
use dpe_server::{
    dist_literal, ClusterRule, PlanOp, Projection, Request, Response, Server, ServerBuilder,
    ServerError, SqlTable,
};
use dpe_sql::Query;
use dpe_workload::{LogConfig, LogGenerator, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Plaintext queries per owner batch (encrypt + one `ingest`).
pub const BATCH: usize = 4;

/// SplitMix64 step: derives independent sub-seeds from the run's seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The data owner's master key for this seed.
pub fn owner_key(seed: u64) -> MasterKey {
    let mut bytes = [0u8; 32];
    for (i, chunk) in bytes.chunks_mut(8).enumerate() {
        chunk.copy_from_slice(&mix(seed, 0x6B65_7900 + i as u64).to_le_bytes());
    }
    MasterKey::from_bytes(bytes)
}

/// Tenant `tenant`'s plaintext SkyServer-style query log.
pub fn tenant_log(seed: u64, tenant: usize, queries: usize) -> Vec<Query> {
    LogGenerator::generate(&LogConfig {
        queries,
        seed: mix(seed, 0x7E4A_0000 + tenant as u64),
        ..LogConfig::default()
    })
}

/// Encrypts one batch under the token scheme, inside an `encrypt_log` span.
pub fn encrypt(scheme: &mut TokenDpe, plain: &[Query]) -> Vec<Query> {
    trace::in_span("encrypt_log", || scheme.encrypt_log(plain))
        .expect("token encryption of a generated log")
}

/// Plaintext SQL bytes of a log: what the owner uploads, before encryption.
pub fn sql_bytes(log: &[Query]) -> u64 {
    log.iter().map(|q| q.to_string().len() as u64).sum()
}

/// The measure every benchmarked server ingests with: token distance
/// behind the counting wrapper. With tracing off the wrapper only counts
/// calls (one relaxed atomic add per call).
pub type Measure = TracedDistance<TokenDistance>;

pub const MEASURE: Measure = TracedDistance(TokenDistance);

/// A fresh durable server in `dir`, its WAL sinks wrapped so appends and
/// syncs are counted (and spanned while tracing).
pub fn create_durable(
    builder: ServerBuilder<Measure>,
    dir: &Path,
    shards: usize,
) -> Result<Server<Measure>, ServerError> {
    let engine = Durability::create_with(dir, shards, &TimedSinkFactory)?;
    builder
        .shards(shards)
        .durability_engine(Arc::new(engine))
        .try_build()
}

/// `ServerBuilder::recover` over the durable state in `dir`.
pub fn recover_durable(
    builder: ServerBuilder<Measure>,
    dir: &Path,
) -> Result<Server<Measure>, ServerError> {
    let engine = Durability::open_with(dir, &TimedSinkFactory)?;
    builder.durability_engine(Arc::new(engine)).recover()
}

/// `m·n + m(m−1)/2`: distance calls for ingesting `m` items into a shard of
/// `n` (the packed-matrix extend contract).
pub fn extend_calls(n: u64, m: u64) -> u64 {
    m * n + m * m.saturating_sub(1) / 2
}

/// Bytes of a packed upper-triangle matrix over `n` items.
pub fn matrix_bytes(n: u64) -> u64 {
    n * n.saturating_sub(1) / 2 * 8
}

/// ABBA order for interleaving traced (`true`) and untraced operations, so
/// that neither side always runs first.
pub fn abba(i: u64) -> bool {
    matches!(i % 4, 0 | 3)
}

/// Times `f`, returning its value and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let v = f();
    (v, started.elapsed().as_secs_f64())
}

/// Response-cache entries of every analyst-facing server, split evenly over
/// the tenants.
pub const CACHE: usize = 384;

/// A server over `logs`, one tenant per log, ingested in one batch each,
/// with SQL bindings and warm clustering plans. Over plaintext logs and
/// `TokenDistance` it is the plaintext twin the correctness checks compare
/// against.
pub fn preload<M: QueryDistance + Sync>(measure: M, logs: &[Vec<Query>]) -> Server<M> {
    let server = Server::builder(measure)
        .shards(logs.len())
        .metric_index(true)
        .cache_capacity(CACHE)
        .build();
    for (t, log) in logs.iter().enumerate() {
        server.ingest(t, log).expect("preload ingest");
    }
    register_pairs(&server, logs.len());
    warm_plans(&server, logs.len());
    server
}

/// Builds each tenant's dendrogram, so a loop starts with warm plans.
pub fn warm_plans<M: QueryDistance + Sync>(server: &Server<M>, tenants: usize) {
    let warm: Vec<Request> = (0..tenants)
        .map(|shard| Request::Hierarchical {
            shard,
            linkage: LINKAGE,
            k: 2,
        })
        .collect();
    for r in server.serve_batch(&warm, 1) {
        r.expect("warming a clustering plan");
    }
}

/// SQL pairs-table name bound to tenant `t`.
pub fn pairs_table(t: usize) -> String {
    format!("pairs{t}")
}

/// Registers the SQL front door's pairs table for every tenant.
pub fn register_pairs<M: QueryDistance + Sync>(server: &Server<M>, tenants: usize) {
    for t in 0..tenants {
        server
            .register_sql_table(SqlTable {
                table: pairs_table(t),
                shard: t,
                item_col: "item".into(),
                anchor_col: "anchor".into(),
                dist_col: "dist".into(),
            })
            .expect("tenant shard exists");
    }
}

/// One analyst operation: a native request or a SQL SELECT for the front
/// door.
#[derive(Debug, Clone)]
pub enum Op {
    Native(Request),
    Sql(String),
}

impl Op {
    /// `Knn`/`Range` and their SQL spellings (every SQL call of the mix);
    /// everything else is whole-shard.
    pub fn is_point(&self) -> bool {
        match self {
            Op::Native(r) => matches!(r, Request::Knn { .. } | Request::Range { .. }),
            Op::Sql(_) => true,
        }
    }
}

/// One analyst call as generated.
#[derive(Debug, Clone)]
pub struct Call {
    pub op: Op,
    pub tenant: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Knn,
    Range,
    SqlKnn,
    SqlRange,
    Dbscan,
    Lof,
    LofOutliers,
    Outliers,
    KMedoids,
    Hierarchical,
    Itemsets,
    Pipeline,
}

/// One deck: every kind in fixed proportion, shuffled per deal, so every
/// stretch of the run samples the same mix. The proportions are an
/// assumption, not taken from a trace: cheap point requests make two thirds
/// of the stream, and every whole-shard kind appears once per deck.
const DECK: [(Kind, usize); 12] = [
    (Kind::Knn, 4),
    (Kind::Range, 4),
    (Kind::SqlKnn, 4),
    (Kind::SqlRange, 4),
    (Kind::Dbscan, 1),
    (Kind::Lof, 1),
    (Kind::LofOutliers, 1),
    (Kind::Outliers, 1),
    (Kind::KMedoids, 1),
    (Kind::Hierarchical, 1),
    (Kind::Itemsets, 1),
    (Kind::Pipeline, 1),
];

/// The analyst's deterministic request stream. Requests go to either tenant
/// with equal chance. Anchors are Zipf-skewed over a seeded permutation of
/// each tenant's items; parameters come from sets whose product is larger
/// than the response cache.
pub struct Mix {
    rng: StdRng,
    deck: Vec<Kind>,
    /// Items each tenant is guaranteed to hold for the whole run.
    lens: [usize; 2],
    hot: Vec<Vec<usize>>,
    zipf: Vec<Zipf>,
}

pub const LINKAGE: Linkage = Linkage::Complete;

impl Mix {
    pub fn new(seed: u64, lens: [usize; 2]) -> Mix {
        let mut rng = StdRng::seed_from_u64(mix(seed, 0xA7A1));
        let hot = lens
            .iter()
            .map(|&n| {
                let mut perm: Vec<usize> = (0..n).collect();
                for i in (1..n).rev() {
                    perm.swap(i, rng.gen_range(0..=i));
                }
                perm
            })
            .collect();
        Mix {
            rng,
            deck: Vec::new(),
            lens,
            hot,
            zipf: lens.iter().map(|&n| Zipf::new(n, 1.0)).collect(),
        }
    }

    fn anchor(&mut self, t: usize) -> usize {
        let r = self.zipf[t].sample(&mut self.rng);
        self.hot[t][r]
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.rng.gen_range(0..options.len())]
    }

    pub fn next_call(&mut self) -> Call {
        if self.deck.is_empty() {
            for &(kind, n) in &DECK {
                self.deck.extend(std::iter::repeat_n(kind, n));
            }
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.gen_range(0..=i);
                self.deck.swap(i, j);
            }
        }
        let kind = self.deck.pop().expect("deck refilled");
        let tenant = usize::from(!self.rng.gen_bool(0.5));
        let n = self.lens[tenant];
        let shard = tenant;
        let op = match kind {
            Kind::Knn => {
                let item = self.anchor(tenant);
                let k = self.pick(&[5, 10, 20]);
                Op::Native(Request::Knn { shard, item, k })
            }
            Kind::Range => {
                let item = self.anchor(tenant);
                let radius = self.pick(&[0.2, 0.3, 0.4, 0.5]);
                Op::Native(Request::Range {
                    shard,
                    item,
                    radius,
                })
            }
            Kind::SqlKnn => {
                let item = self.anchor(tenant);
                let k = self.pick(&[5, 10, 20]);
                Op::Sql(format!(
                    "SELECT item FROM {} WHERE anchor = {item} ORDER BY dist LIMIT {k}",
                    pairs_table(tenant)
                ))
            }
            Kind::SqlRange => {
                let item = self.anchor(tenant);
                let radius: f64 = self.pick(&[0.2, 0.3, 0.4, 0.5]);
                Op::Sql(format!(
                    "SELECT item FROM {} WHERE anchor = {item} AND dist <= {}",
                    pairs_table(tenant),
                    dist_literal(radius)
                ))
            }
            Kind::Dbscan => Op::Native(Request::Dbscan {
                shard,
                eps: f64::from(self.rng.gen_range(20..56u32)) / 100.0,
                min_pts: self.rng.gen_range(3..9),
            }),
            Kind::Lof => Op::Native(Request::Lof {
                shard,
                min_pts: self.rng.gen_range(5..41),
            }),
            Kind::LofOutliers => Op::Native(Request::LofOutliers {
                shard,
                min_pts: self.rng.gen_range(5..41),
                threshold: self.pick(&[1.2, 1.3, 1.5, 2.0]),
            }),
            Kind::Outliers => Op::Native(Request::Outliers {
                shard,
                p: self.pick(&[0.8, 0.85, 0.9, 0.95, 0.98]),
                d: f64::from(self.rng.gen_range(40..86u32)) / 100.0,
            }),
            Kind::KMedoids => Op::Native(Request::KMedoids {
                shard,
                k: self.rng.gen_range(2..41),
            }),
            Kind::Hierarchical => Op::Native(Request::Hierarchical {
                shard,
                linkage: LINKAGE,
                k: self.rng.gen_range(2..101.min(n)),
            }),
            Kind::Itemsets => Op::Native(Request::FrequentItemsets {
                shard,
                min_support: (n / self.pick(&[4, 5, 6, 8, 10, 12, 16, 20])).max(2),
            }),
            Kind::Pipeline => {
                let item = self.anchor(tenant);
                Op::Native(Request::Pipeline {
                    shard,
                    ops: vec![
                        PlanOp::FilterRange {
                            item,
                            radius: self.pick(&[0.4, 0.5, 0.6]),
                        },
                        PlanOp::ClusterLabels(ClusterRule::Dbscan {
                            eps: self.pick(&[0.3, 0.4]),
                            min_pts: 4,
                        }),
                        PlanOp::Limit(self.pick(&[10, 20, 40])),
                        PlanOp::Project(Projection::Labels),
                    ],
                })
            }
        };
        Call { op, tenant }
    }
}

/// Answers one analyst operation with one `serve_batch(.., 1)`, lowering
/// SQL through the front door first.
pub fn answer<M: QueryDistance + Sync>(
    server: &Server<M>,
    op: &Op,
) -> Result<Response, ServerError> {
    let request = match op {
        Op::Native(r) => r.clone(),
        Op::Sql(text) => trace::in_span("sql_to_request", || server.sql_to_request(text))?,
    };
    let _g = trace::span("serve_batch");
    server
        .serve_batch(std::slice::from_ref(&request), 1)
        .pop()
        .expect("one request yields one result")
}

/// A fixed probe set for the correctness checks: native and SQL point
/// requests plus every whole-shard kind, on every tenant.
pub fn probes(seed: u64, lens: [usize; 2], count: usize) -> Vec<Op> {
    let mut m = Mix::new(mix(seed, 0x9B0B), lens);
    (0..count).map(|_| m.next_call().op).collect()
}

/// Answers every probe, failing on the first error.
pub fn answer_all<M: QueryDistance + Sync>(
    server: &Server<M>,
    ops: &[Op],
) -> Result<Vec<Response>, ServerError> {
    ops.iter().map(|op| answer(server, op)).collect()
}

/// `true` when two answer lists agree bit for bit, except that frequent
/// itemsets name features, which are ciphertext on one side and plaintext
/// on the other: those must agree in itemset sizes and supports.
pub fn bits_equal(a: &[Response], b: &[Response]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Response::Itemsets(x), Response::Itemsets(y)) => itemset_shape(x) == itemset_shape(y),
            _ => x.bits_eq(y),
        })
}

fn itemset_shape(sets: &[(Vec<String>, usize)]) -> Vec<(usize, usize)> {
    let mut shape: Vec<(usize, usize)> = sets.iter().map(|(s, n)| (s.len(), *n)).collect();
    shape.sort_unstable();
    shape
}

/// Durations of a phase repeated within a run (a set-up, a restart), as
/// measured and as stated at the nominal host speed
/// ([`HostSpeed::phase`]).
#[derive(Debug, Default)]
pub struct Phases {
    pub measured: Vec<f64>,
    pub stated: Vec<f64>,
}

impl Phases {
    /// Times `f` between two samples of the host's speed.
    pub fn time<T>(&mut self, speed: &mut HostSpeed, f: impl FnOnce() -> T) -> T {
        let before = speed.sample();
        let (v, secs) = timed(f);
        self.push(secs, speed.phase(before, secs));
        v
    }

    pub fn push(&mut self, measured: f64, stated: f64) {
        self.measured.push(measured);
        self.stated.push(stated);
    }

    pub fn extend(&mut self, other: &Phases) {
        self.measured.extend_from_slice(&other.measured);
        self.stated.extend_from_slice(&other.stated);
    }

    /// Reports the medians as end-to-end metric `name`.
    pub fn report(&self, report: &mut Report, name: &'static str) {
        let stated = median(&self.stated).expect("one phase at least");
        let measured = median(&self.measured).expect("one phase at least");
        report.e2e(name, measured, stated);
    }
}

/// Operation latencies in seconds, as measured and as stated at the
/// nominal host speed: each window of operations (an owner round's upload,
/// an analyst replay) is scaled by the host's speed over the chunks run
/// between its operations.
#[derive(Debug, Default)]
pub struct Timings {
    pub measured: Samples,
    pub stated: Samples,
}

impl Timings {
    pub fn push_window(&mut self, secs: &[f64], factor: f64) {
        for &s in secs {
            self.measured.push(s);
            self.stated.push(s * factor);
        }
    }

    /// Reports operations per second of operation time as `name`.
    pub fn report_rate(&self, report: &mut Report, name: &'static str) {
        let rate = |s: &Samples| s.len() as f64 / s.sum();
        report.e2e(name, rate(&self.measured), rate(&self.stated));
    }

    /// Reports percentile `p` in milliseconds as `name`, failing when the
    /// run has too few operations (`what`) beyond it.
    pub fn report_percentile(
        &self,
        report: &mut Report,
        name: &'static str,
        what: &str,
        p: f64,
    ) -> Result<(), String> {
        let measured = self.measured.tail(what, p)? * 1e3;
        report.e2e(name, measured, self.stated.tail(what, p)? * 1e3);
        Ok(())
    }
}

/// What one run produced, before rendering.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Named correctness checks and whether each passed.
    pub checks: Vec<(String, bool)>,
    /// End-to-end metrics as measured and as stated at the nominal host
    /// speed.
    pub end_to_end: BTreeMap<&'static str, (f64, f64)>,
    pub layers: BTreeMap<&'static str, f64>,
    /// Exact counts and other diagnostics written beside the metrics.
    pub detail: Json,
    /// The host's speed over the run.
    pub speed: HostSpeed,
}

impl Report {
    pub fn check(&mut self, name: impl Into<String>, passed: bool) {
        let name = name.into();
        if !passed {
            eprintln!("perfbench: correctness check failed: {name}");
        }
        self.checks.push((name, passed));
    }

    /// Records end-to-end metric `name` (listed with its unit in
    /// `layers::END_TO_END`), as measured and as stated at the nominal host
    /// speed (the same for a metric independent of it).
    pub fn e2e(&mut self, name: &'static str, measured: f64, stated: f64) {
        self.end_to_end.insert(name, (measured, stated));
    }

    /// Lets the host-speed reference run a chunk if one is due: call it
    /// between operations, outside their timing.
    pub fn tick(&mut self) {
        self.speed.tick();
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// Counts one operation, and one failure when `result` is an error.
    pub fn op<T, E: std::fmt::Display>(&mut self, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.failed <= 5 {
                    eprintln!("perfbench: operation failed: {e}");
                }
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_scale_each_window_by_its_factor() {
        let mut t = Timings::default();
        t.push_window(&[0.010, 0.030], 2.0);
        t.push_window(&[0.020], 0.5);
        assert_eq!(t.measured.len(), 3);
        assert_eq!(t.stated.sum(), 0.020 + 0.060 + 0.010);
        let mut report = Report::default();
        t.report_rate(&mut report, "ops_per_s");
        let (measured, stated) = report.end_to_end["ops_per_s"];
        assert_eq!(measured, 3.0 / (0.010 + 0.030 + 0.020));
        assert_eq!(stated, 3.0 / (0.020 + 0.060 + 0.010));
    }
}
