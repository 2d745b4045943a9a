//! Spans and counters recorded from the benchmark's own code, around the
//! calls it makes into each layer.
//!
//! * A span has a name, a start, an end and a parent (the innermost span
//!   open on the same thread when it started). Spans are kept in memory and
//!   written out when the run ends.
//! * Distance calls are too many and too short for a span each: the
//!   [`TracedDistance`] wrapper counts every call and, while tracing is on
//!   for the calling thread, adds its time to the innermost open span.
//! * [`TimedSinkFactory`] wraps the public `FileSink` and records one span
//!   per WAL `append` and per `sync`.
//!
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover, minus the distance time charged to it
//! ([`self_times`]).
//!
//! Tracing is switched per thread ([`set_enabled`]), so a traced run can
//! alternate traced and untraced operations and report the difference as
//! the tracing overhead. Call counts are kept whether or not tracing is on.

use dpe_distance::{DistanceError, QueryDistance};
use dpe_durability::engine::SinkFactory;
use dpe_durability::wal::{FileSink, WalSink};
use dpe_sql::Query;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the first traced event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time spent in distance calls while this was the innermost open span.
    pub distance_ns: u64,
    /// Distance calls timed while this was the innermost open span.
    pub distance_calls: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct OpenSpan {
    id: u64,
    name: &'static str,
    start_ns: u64,
    distance_ns: u64,
    distance_calls: u64,
}

static CLOCK: OnceLock<Instant> = OnceLock::new();
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

/// Process-wide counters. They only publish statistics, so `Relaxed`.
pub static DISTANCE_CALLS: AtomicU64 = AtomicU64::new(0);
pub static WAL_APPENDS: AtomicU64 = AtomicU64::new(0);
pub static WAL_APPEND_BYTES: AtomicU64 = AtomicU64::new(0);
pub static WAL_SYNCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static STACK: RefCell<Vec<OpenSpan>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn now_ns() -> u64 {
    let clock = CLOCK.get_or_init(Instant::now);
    clock.elapsed().as_nanos() as u64
}

/// Turns span recording and distance timing on or off for this thread.
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Open span handle; the span closes when it is dropped.
#[must_use = "a span closes when its guard is dropped"]
pub struct Guard {
    open: bool,
}

/// Opens a span named `name` on this thread when tracing is on, and an
/// inert guard otherwise.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard { open: false };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let start_ns = now_ns();
    STACK.with(|s| {
        s.borrow_mut().push(OpenSpan {
            id,
            name,
            start_ns,
            distance_ns: 0,
            distance_calls: 0,
        })
    });
    Guard { open: true }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.open {
            return;
        }
        let end_ns = now_ns();
        let (open, parent) = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let open = s.pop().expect("span stack out of step with its guards");
            (open, s.last().map(|p| p.id))
        });
        let span = Span {
            id: open.id,
            parent,
            name: open.name,
            thread: THREAD.with(|t| *t),
            start_ns: open.start_ns,
            end_ns,
            distance_ns: open.distance_ns,
            distance_calls: open.distance_calls,
        };
        SPANS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(span);
    }
}

/// Runs `f` inside a span named `name`.
pub fn in_span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = span(name);
    f()
}

/// Every span closed so far, in closing order.
pub fn spans() -> Vec<Span> {
    SPANS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

/// Self time per span id: the span's duration, minus the union of its
/// children's intervals clipped to it, minus its charged distance time.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            let own = s.duration_ns().saturating_sub(covered);
            (s.id, own.saturating_sub(s.distance_ns))
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|&(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub distance_ns: u64,
    pub distance_calls: u64,
    pub durations_ns: Vec<u64>,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += selfs[&s.id];
        t.distance_ns += s.distance_ns;
        t.distance_calls += s.distance_calls;
        t.durations_ns.push(s.duration_ns());
    }
    out
}

/// Writes spans as tab-separated lines: id, parent (0 = none), name,
/// thread, start, end, charged distance nanoseconds and distance calls.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "id\tparent\tname\tthread\tstart_ns\tend_ns\tdistance_ns\tdistance_calls"
    )?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.parent.unwrap_or(0),
            s.name,
            s.thread,
            s.start_ns,
            s.end_ns,
            s.distance_ns,
            s.distance_calls
        )?;
    }
    out.flush()
}

/// A measure that counts every call and times it while tracing is on. It
/// forwards `name` and `is_metric`, and its distances are the wrapped
/// measure's, bit for bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct TracedDistance<M>(pub M);

impl<M: QueryDistance> QueryDistance for TracedDistance<M> {
    fn distance(&self, a: &Query, b: &Query) -> Result<f64, DistanceError> {
        DISTANCE_CALLS.fetch_add(1, Ordering::Relaxed);
        if !enabled() {
            return self.0.distance(a, b);
        }
        let started = Instant::now();
        let d = self.0.distance(a, b);
        let ns = started.elapsed().as_nanos() as u64;
        STACK.with(|s| {
            if let Some(top) = s.borrow_mut().last_mut() {
                top.distance_ns += ns;
                top.distance_calls += 1;
            }
        });
        d
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn is_metric(&self) -> bool {
        self.0.is_metric()
    }
}

/// Opens production [`FileSink`]s wrapped in [`TimedSink`].
#[derive(Debug, Default, Clone, Copy)]
pub struct TimedSinkFactory;

impl SinkFactory for TimedSinkFactory {
    fn open_wal(&self, _shard: usize, path: &Path) -> std::io::Result<Box<dyn WalSink>> {
        Ok(Box::new(TimedSink(FileSink::open(path)?)))
    }
}

/// A [`FileSink`] whose `append` and `sync` are counted and spanned.
#[derive(Debug)]
pub struct TimedSink(FileSink);

impl WalSink for TimedSink {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        WAL_APPENDS.fetch_add(1, Ordering::Relaxed);
        WAL_APPEND_BYTES.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        in_span("wal.append", || self.0.append(bytes))
    }

    fn sync(&mut self) -> std::io::Result<()> {
        WAL_SYNCS.fetch_add(1, Ordering::Relaxed);
        in_span("wal.sync", || self.0.sync())
    }

    fn truncate_to(&mut self, keep: u64) -> std::io::Result<()> {
        self.0.truncate_to(keep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpe_distance::{StructureDistance, TokenDistance};
    use dpe_sql::parse_query;

    fn span_at(id: u64, parent: Option<u64>, start: u64, end: u64, dist: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            thread: 0,
            start_ns: start,
            end_ns: end,
            distance_ns: dist,
            distance_calls: 0,
        }
    }

    #[test]
    fn interval_union_is_clipped_and_merged() {
        assert_eq!(covered_ns(&[], 0, 100), 0);
        assert_eq!(covered_ns(&[(10, 30), (20, 50), (90, 120)], 0, 100), 50);
        assert_eq!(covered_ns(&[(0, 10), (10, 20)], 0, 100), 20);
        assert_eq!(covered_ns(&[(150, 200)], 0, 100), 0);
        assert_eq!(covered_ns(&[(40, 60), (10, 20)], 15, 50), 15);
    }

    #[test]
    fn self_time_is_span_minus_children_minus_distance() {
        let spans = vec![
            span_at(2, Some(1), 10, 30, 5),
            span_at(3, Some(1), 30, 60, 0),
            span_at(4, Some(3), 35, 55, 0),
            span_at(1, None, 0, 100, 7),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 50 - 7);
        assert_eq!(selfs[&2], 20 - 5);
        assert_eq!(selfs[&3], 30 - 20);
        assert_eq!(selfs[&4], 20);
        // Self times plus charged distance add up to the root's duration.
        let total: u64 = selfs.values().sum::<u64>() + 5 + 7;
        assert_eq!(total, 100);
    }

    #[test]
    fn traced_measure_is_bit_identical_and_forwards_metadata() {
        let qs: Vec<Query> = [
            "SELECT ra, dec FROM photoobj WHERE objid = 7",
            "SELECT ra FROM photoobj WHERE dec > 3",
            "SELECT z FROM specobj",
            "SELECT ra FROM photoobj WHERE objid = 7",
        ]
        .iter()
        .map(|s| parse_query(s).unwrap())
        .collect();
        let traced = TracedDistance(TokenDistance);
        assert_eq!(traced.name(), TokenDistance.name());
        assert!(traced.is_metric());
        assert_eq!(
            TracedDistance(StructureDistance).is_metric(),
            StructureDistance.is_metric()
        );
        for on in [false, true] {
            set_enabled(on);
            let _g = span("test");
            let before = DISTANCE_CALLS.load(Ordering::Relaxed);
            for a in &qs {
                for b in &qs {
                    let want = TokenDistance.distance(a, b).unwrap();
                    let got = traced.distance(a, b).unwrap();
                    assert_eq!(got.to_bits(), want.to_bits());
                }
            }
            assert!(DISTANCE_CALLS.load(Ordering::Relaxed) - before >= 16);
        }
        set_enabled(false);
    }
}
