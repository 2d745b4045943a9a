//! The multi-tenant batch-serving engine.
//!
//! A [`Server`] owns the sharded store (one [`Shard`] per tenant, each a
//! packed incremental distance matrix), one intake of submitted requests,
//! and per-shard LRU response-cache partitions keyed on *(shard epoch,
//! compiled plan)* — workers on different shards never contend on a cache
//! lock. Three serving paths:
//!
//! * [`Server::serve_batch`] — the one dispatch routine: group a slice of
//!   requests by shard, let `threads` workers claim whole shard groups,
//!   answer each group under a single read-lock acquisition, and return
//!   results in input order.
//! * [`Server::submit`] / [`Server::drain`] — the asynchronous surface:
//!   any number of client threads append to the intake concurrently; a
//!   drain takes everything submitted so far and answers it through
//!   `serve_batch`. A request submitted while a drain runs is answered by
//!   the next drain.
//! * [`Server::serve_one_uncached`] — the per-query dispatch baseline the
//!   `server_throughput` bench compares against: one lock acquisition per
//!   request, no cache.
//!
//! All three, and [`Server::explain`], answer through one executor entry
//! (`exec::execute`): run the compiled plan under the shard's read lock
//! with dendrograms resolved through the shard's plans, record the query's
//! metrics. The baseline builds every dendrogram afresh instead.
//!
//! An ingest computes and logs beside the shard's readers and takes the
//! write lock only to commit (see [`Server::ingest`]); the commit bumps the
//! epoch, so cached responses for the old store stop being addressable and
//! age out of the LRU, and it drops the shard's plans. Lock order: writer
//! gate → shard lock → WAL mutex (inside [`Durability`]).

use crate::cache::{CacheStats, LruCache};
use crate::exec::{self, ExecutionMetrics, PhysicalPlan, PlanKey};
use crate::plan::{PlanStats, Plans};
use crate::request::{Request, Response, ServerError, Ticket};
use crate::shard::Shard;
use crate::sql::SqlTable;
use dpe_distance::QueryDistance;
use dpe_durability::{Durability, DurabilityError, DurabilityStats, ShardStateRef};
use dpe_sql::Query;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// Cache key within one shard's partition: a response is valid for exactly
/// one (epoch, compiled plan) pair.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    epoch: u64,
    plan: PlanKey,
}

/// Cumulative dispatch counters (monotonic over the server's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Requests answered through [`Server::serve_batch`] (and so through
    /// [`Server::drain`]); misrouted requests are not counted.
    pub served: u64,
    /// Shard batches processed (one batch = one lock acquisition); the
    /// coalescing ratio is `served / batches`.
    pub batches: u64,
}

/// Submitted requests awaiting the next drain. The mutex that guards the
/// queue also issues the tickets, so `pending` is always in ticket order.
#[derive(Debug, Default)]
struct Intake {
    next_ticket: u64,
    pending: Vec<(Ticket, Request)>,
}

/// One unified server snapshot: every counter the engine keeps, in one
/// coherent read. Replaces the former `cache_stats()` /
/// `scheduler_stats()` / `plan_stats()` triple — callers no longer stitch
/// three partially-ordered snapshots together.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerStats {
    /// Response-cache counters, aggregated over the per-shard partitions.
    pub cache: CacheStats,
    /// Dispatch counters (served / batches).
    pub scheduler: SchedulerStats,
    /// Clustering-plan counters, aggregated over the shards.
    pub plans: PlanStats,
    /// Queries answered through the plan executor or the response cache.
    pub queries: u64,
    /// [`ExecutionMetrics`] summed over every answered query.
    pub exec: ExecutionMetrics,
    /// Durability counters (WAL appends, bytes, checkpoints) — `None`
    /// unless the server was built with [`ServerBuilder::durability`].
    pub durability: Option<DurabilityStats>,
}

/// Executor counters aggregated across queries, behind one mutex.
#[derive(Debug, Default)]
struct ExecTotals {
    queries: u64,
    metrics: ExecutionMetrics,
    /// Plan counters; `live` is read off the shards.
    plans: PlanStats,
}

/// The batch-serving engine. Generic over the distance measure used for
/// ingest — the mining itself reads only the per-shard packed matrices, so
/// plaintext and DPE-encrypted stores serve bit-identical answers.
#[derive(Debug)]
pub struct Server<M> {
    measure: M,
    shards: Vec<RwLock<Shard>>,
    /// Per-shard writer gates: an ingest holds its shard's through every
    /// step, [`Server::checkpoint`] holds them all.
    writers: Vec<Mutex<()>>,
    intake: Mutex<Intake>,
    served: AtomicU64,
    batches: AtomicU64,
    /// One cache partition per shard — workers serving different shards
    /// never contend on a cache lock (a global mutex here would serialize
    /// the warm path the workers exist to parallelize).
    caches: Vec<Mutex<LruCache<CacheKey, Response>>>,
    /// Executor counters summed across every answered query.
    exec_totals: Mutex<ExecTotals>,
    /// SQL front-door bindings: virtual pairs-table name → shard/column
    /// binding (see [`crate::sql`]).
    pub(crate) sql_tables: Mutex<BTreeMap<String, SqlTable>>,
    /// The WAL + snapshot engine, when durability is configured. Appends
    /// happen under the owning shard's writer gate and no shard lock, so
    /// the log order always equals the epoch order readers observe.
    durability: Option<Arc<Durability>>,
}

/// Staged configuration for a [`Server`] — the one way to construct one.
///
/// ```
/// use dpe_server::Server;
/// use dpe_distance::TokenDistance;
/// let server = Server::builder(TokenDistance)
///     .shards(4)
///     .cache_capacity(1024)
///     .build();
/// assert_eq!(server.shard_count(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct ServerBuilder<M> {
    measure: M,
    /// `None` until [`ServerBuilder::shards`] is called — recovery needs
    /// to distinguish "defaulted to 1" (adopt the manifest's count) from
    /// "explicitly configured" (must match the manifest).
    shards: Option<usize>,
    cache_capacity: usize,
    metric_index: bool,
    durability: Option<PathBuf>,
    durability_engine: Option<Arc<Durability>>,
}

impl<M: QueryDistance + Sync> ServerBuilder<M> {
    /// Number of tenant shards (default 1).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Total response-cache capacity in entries, partitioned evenly across
    /// the shards (default 0 — caching disabled).
    pub fn cache_capacity(mut self, cache_capacity: usize) -> Self {
        self.cache_capacity = cache_capacity;
        self
    }

    /// Build and maintain a per-shard metric index (a VP-tree over the
    /// packed matrix — see [`crate::ShardIndex`]), letting `Knn` and
    /// `Range` plans skip most distance cells via triangle-inequality
    /// pruning while staying bit-identical to the matrix paths. Requires
    /// the measure to declare [`QueryDistance::is_metric`]; default off.
    pub fn metric_index(mut self, metric_index: bool) -> Self {
        self.metric_index = metric_index;
        self
    }

    /// Makes every ingest durable: a fresh WAL + snapshot directory is
    /// created at `path` (refused with a typed error if it already holds
    /// durable state — recover from it with [`ServerBuilder::recover`]
    /// instead). Each ingest appends its batch to the owning shard's WAL
    /// and commits (epoch bump) only once the append is synced;
    /// [`Server::checkpoint`] folds the logs into an epoch-consistent
    /// snapshot.
    pub fn durability(mut self, path: impl Into<PathBuf>) -> Self {
        self.durability = Some(path.into());
        self
    }

    /// Supplies a pre-opened [`Durability`] engine instead of a path —
    /// the seam the crash-recovery sweeps use to inject
    /// [`dpe_durability::testkit::FailpointFs`] and
    /// [`dpe_durability::testkit::ErrorFs`] fault sinks under an otherwise
    /// production server. Takes precedence over
    /// [`ServerBuilder::durability`].
    pub fn durability_engine(mut self, engine: Arc<Durability>) -> Self {
        self.durability_engine = Some(engine);
        self
    }

    /// Builds the server, panicking on any configuration or durability
    /// error — the ergonomic path when the configuration is static. Use
    /// [`ServerBuilder::try_build`] to handle durability setup failures
    /// (e.g. pointing at a directory that already holds state) as typed
    /// errors.
    ///
    /// # Panics
    ///
    /// Panics when configured with 0 shards, with
    /// [`ServerBuilder::metric_index`] over a measure that does not
    /// declare itself a metric (triangle-inequality pruning over such a
    /// measure would silently drop answers), or when durability setup
    /// fails.
    pub fn build(self) -> Server<M> {
        match self.try_build() {
            Ok(server) => server,
            Err(e) => panic!("ServerBuilder::build failed: {e}"),
        }
    }

    /// Builds the server, surfacing durability setup failures as typed
    /// errors. Configuration bugs (0 shards, non-metric index) still
    /// panic — they are programmer errors, not runtime conditions.
    pub fn try_build(self) -> Result<Server<M>, ServerError> {
        let config = self.validate(Durability::create, "durability engine")?;
        let shards = (0..config.shards)
            .map(|_| {
                let mut shard = Shard::new();
                if config.metric_index {
                    shard.enable_index();
                }
                shard
            })
            .collect();
        Ok(Server::assemble(
            config.measure,
            shards,
            config.cache_capacity,
            config.engine,
        ))
    }

    /// Rebuilds a whole multi-tenant server from a durable directory: the
    /// newest valid snapshot is loaded (its matrices bit-identical to the
    /// snapshotted ones), WAL records past each shard's snapshot epoch
    /// are re-applied through [`Shard::apply`] (deterministic distance
    /// recomputation — bit-identical again), and the engine stays attached
    /// so post-recovery ingests keep logging. Plans and the response cache
    /// start empty (they fill on demand); metric indexes are rebuilt
    /// eagerly when [`ServerBuilder::metric_index`] is set.
    ///
    /// The shard count is adopted from the directory's manifest; calling
    /// [`ServerBuilder::shards`] with a different count is a typed error.
    /// Damaged state — torn snapshot, corrupt WAL frame, epoch gap —
    /// surfaces as [`ServerError::Durability`], never as a garbage shard.
    pub fn recover(self) -> Result<Server<M>, ServerError> {
        let config = self.validate(|path, _| Durability::open(path), "durable directory")?;
        let Some(engine) = config.engine else {
            return Err(ServerError::BadRequest(
                "recover() needs ServerBuilder::durability(path) (or a pre-opened \
                 engine) to know where the durable state lives"
                    .into(),
            ));
        };
        let mut restored = Vec::with_capacity(engine.shards());
        for recovery in engine.recover()? {
            let mut shard = Shard::restore(
                recovery.base.queries,
                recovery.base.matrix,
                recovery.base.epoch,
            );
            // The same deterministic distance calls the live server made,
            // so the rebuilt cells are bit-identical. Nothing is logged:
            // these records are already in the WAL.
            for record in &recovery.tail {
                shard.apply(&record.queries, &config.measure)?;
                debug_assert_eq!(shard.epoch(), record.epoch, "replay must track the log");
            }
            if config.metric_index {
                shard.enable_index();
            }
            restored.push(shard);
        }
        Ok(Server::assemble(
            config.measure,
            restored,
            config.cache_capacity,
            Some(engine),
        ))
    }

    /// The validation [`ServerBuilder::try_build`] and
    /// [`ServerBuilder::recover`] share: asserts the shard count and the
    /// metric-index precondition, resolves the durability engine (a
    /// pre-opened one wins; a path goes through `open`, given the
    /// configured shard count or 1), and checks an explicit shard count
    /// against the engine's layout, named `layout` in the error.
    fn validate(
        self,
        open: impl FnOnce(PathBuf, usize) -> Result<Durability, DurabilityError>,
        layout: &str,
    ) -> Result<Validated<M>, ServerError> {
        let ServerBuilder {
            measure,
            shards,
            cache_capacity,
            metric_index,
            durability,
            durability_engine,
        } = self;
        assert!(shards != Some(0), "a server needs at least one shard");
        assert!(
            !metric_index || measure.is_metric(),
            "metric_index requires a metric measure, and {} does not declare \
             the triangle inequality (QueryDistance::is_metric)",
            measure.name()
        );
        let engine = match (durability_engine, durability) {
            (Some(engine), _) => Some(engine),
            (None, Some(path)) => Some(Arc::new(open(path, shards.unwrap_or(1))?)),
            (None, None) => None,
        };
        let shards = match (&engine, shards) {
            (Some(e), Some(n)) if e.shards() != n => {
                return Err(ServerError::Durability(DurabilityError::Manifest(format!(
                    "builder configured {n} shards but the {layout} is laid out for {}",
                    e.shards()
                ))))
            }
            (Some(e), _) => e.shards(),
            (None, n) => n.unwrap_or(1),
        };
        assert!(shards > 0, "a server needs at least one shard");
        Ok(Validated {
            measure,
            shards,
            cache_capacity,
            metric_index,
            engine,
        })
    }
}

/// A [`ServerBuilder`] after [`ServerBuilder::validate`]: the shard count
/// is resolved and agrees with the engine, when there is one.
struct Validated<M> {
    measure: M,
    shards: usize,
    cache_capacity: usize,
    metric_index: bool,
    engine: Option<Arc<Durability>>,
}

impl<M: QueryDistance + Sync> Server<M> {
    /// Starts configuring a server over `measure`; finish with
    /// [`ServerBuilder::build`].
    pub fn builder(measure: M) -> ServerBuilder<M> {
        ServerBuilder {
            measure,
            shards: None,
            cache_capacity: 0,
            metric_index: false,
            durability: None,
            durability_engine: None,
        }
    }

    /// The one constructor behind [`ServerBuilder::try_build`] and
    /// [`ServerBuilder::recover`]: wraps the (fresh or restored) shards in
    /// their locks and initializes every per-shard partition.
    fn assemble(
        measure: M,
        shards: Vec<Shard>,
        cache_capacity: usize,
        durability: Option<Arc<Durability>>,
    ) -> Server<M> {
        let n = shards.len();
        let per_shard_capacity = cache_capacity.div_ceil(n);
        Server {
            measure,
            shards: shards.into_iter().map(RwLock::new).collect(),
            writers: (0..n).map(|_| Mutex::new(())).collect(),
            intake: Mutex::new(Intake::default()),
            served: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            caches: (0..n)
                .map(|_| Mutex::new(LruCache::new(per_shard_capacity)))
                .collect(),
            exec_totals: Mutex::new(ExecTotals::default()),
            sql_tables: Mutex::new(BTreeMap::new()),
            durability,
        }
    }

    /// Number of tenant shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Items stored in `shard`.
    pub fn shard_len(&self, shard: usize) -> Result<usize, ServerError> {
        Ok(self.read_shard(shard)?.len())
    }

    /// Current epoch of `shard` (bumped by every successful ingest).
    pub fn shard_epoch(&self, shard: usize) -> Result<u64, ServerError> {
        Ok(self.read_shard(shard)?.epoch())
    }

    /// `true` when `shard` currently has a metric index.
    pub fn has_index(&self, shard: usize) -> Result<bool, ServerError> {
        Ok(self.read_shard(shard)?.index().is_some())
    }

    /// `shard`'s lock, or [`ServerError::UnknownShard`].
    fn slot(&self, shard: usize) -> Result<&RwLock<Shard>, ServerError> {
        self.shards.get(shard).ok_or(ServerError::UnknownShard {
            shard,
            shards: self.shards.len(),
        })
    }

    // dpe-analyze: allow(guard-escapes-function, reason = "deliberate crate-private helper: fusing the bounds check with acquisition keeps every read path on one code shape; all callers drop the guard within one expression")
    pub(crate) fn read_shard(
        &self,
        shard: usize,
    ) -> Result<std::sync::RwLockReadGuard<'_, Shard>, ServerError> {
        Ok(self.slot(shard)?.read().expect("shard lock poisoned"))
    }

    /// Streaming insert into one tenant shard, reusing the incremental
    /// matrix path (`m·n + m(m−1)/2` distance calls for `m` new items).
    /// On success the shard epoch bumps, invalidating every cached
    /// response and dropping every clustering plan for that shard.
    ///
    /// Under the shard's writer gate (one ingest per shard at a time), the
    /// new matrix cells are computed under the shard's *read* lock, the
    /// batch is appended to the WAL and synced (with
    /// [`ServerBuilder::durability`] configured) under no shard lock, and
    /// only the infallible commit takes the write lock. So readers wait
    /// only for the commit, and an ingest is visible iff it is durable: a
    /// distance error or a failed WAL append surfaces as a typed error and
    /// leaves the shard, its epoch and its log as they were. The log order
    /// is exactly the epoch order readers observe.
    ///
    /// A batch holding a query whose canonical rendering does not lex (an
    /// AST the parser never builds, such as `LIMIT` above `i64::MAX` or an
    /// identifier like `a-b`) is refused with [`ServerError::BadRequest`]
    /// before any lock is taken: such a query would break every later
    /// distance call against it, even when its own ingest costs none.
    pub fn ingest(&self, shard: usize, new: &[Query]) -> Result<(), ServerError> {
        let slot = self.slot(shard)?;
        for (i, q) in new.iter().enumerate() {
            dpe_sql::check_lexes(q).map_err(|e| {
                ServerError::BadRequest(format!("ingest: query {i} does not lex: {e}"))
            })?;
        }
        // The gate guards no data, so a poisoned one is still sound.
        let _writer = self.writers[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let (cells, epoch) = {
            let current = slot.read().expect("shard lock poisoned");
            let cells = current
                .matrix()
                .extension(current.queries(), new, &self.measure)?;
            (cells, current.epoch() + 1)
        };
        if let Some(d) = &self.durability {
            d.log_ingest(shard, epoch, new)?;
        }
        let dropped = slot
            .write()
            .expect("shard lock poisoned")
            .commit(new, cells);
        self.exec_totals
            .lock()
            .expect("exec totals lock poisoned")
            .plans
            .invalidations += dropped;
        Ok(())
    }

    /// Pipelined streaming insert: pulls chunks from `chunks` on a
    /// dedicated producer thread and ingests them chunk by chunk on the
    /// calling thread, so the producer's work — typically the data
    /// owner's encryption, e.g.
    /// `dpe_paillier::batch::BatchEncryptor::encrypt_stream` feeding query
    /// assembly — overlaps with the server-side distance computation.
    ///
    /// Each non-empty chunk is one [`Server::ingest`] (empty chunks are
    /// skipped, so they bump no epoch), so readers of this shard are only
    /// held off during each chunk's commit and other shards are never
    /// blocked. A bounded channel (capacity 2)
    /// applies backpressure to a producer that outruns ingestion. Returns
    /// the total item count applied; on error the chunks already ingested
    /// remain (each visible and durable with its own epoch), the failing
    /// chunk is neither, and the producer is cut off.
    pub fn ingest_stream<I>(&self, shard: usize, chunks: I) -> Result<usize, ServerError>
    where
        I: IntoIterator<Item = Vec<Query>>,
        I::IntoIter: Send,
    {
        // An unknown shard is refused before the producer consumes a chunk.
        self.slot(shard)?;
        let iter = chunks.into_iter();
        let (tx, rx) = std::sync::mpsc::sync_channel::<Vec<Query>>(2);
        let mut total = 0usize;
        let mut result = Ok(());
        std::thread::scope(|scope| {
            let producer = scope.spawn(move || {
                for chunk in iter {
                    // A closed receiver means ingestion failed: stop
                    // producing instead of blocking forever.
                    if tx.send(chunk).is_err() {
                        return;
                    }
                }
            });
            while let Ok(chunk) = rx.recv() {
                if chunk.is_empty() {
                    continue;
                }
                if let Err(e) = self.ingest(shard, &chunk) {
                    result = Err(e);
                    break;
                }
                total += chunk.len();
            }
            drop(rx);
            // The producer runs caller-supplied iterator code: a panic
            // there is the caller's bug, surfaced as a typed error rather
            // than a panic propagated out of the server. Chunks applied
            // before the panic remain ingested (each chunk commits its
            // own epoch), which the error's Display spells out.
            if producer.join().is_err() && result.is_ok() {
                result = Err(ServerError::ProducerPanicked);
            }
        });
        result.map(|()| total)
    }

    /// Appends a request to the intake, returning its ticket. Safe to call
    /// from any number of threads; the request is answered by the next
    /// [`Server::drain`].
    pub fn submit(&self, request: Request) -> Result<Ticket, ServerError> {
        let shard = request.shard();
        if shard >= self.shards.len() {
            return Err(ServerError::UnknownShard {
                shard,
                shards: self.shards.len(),
            });
        }
        let mut intake = self.intake.lock().expect("intake lock poisoned");
        let ticket = Ticket(intake.next_ticket);
        intake.next_ticket += 1;
        intake.pending.push((ticket, request));
        Ok(ticket)
    }

    /// Requests submitted and not yet drained.
    pub fn queued(&self) -> usize {
        self.intake
            .lock()
            .expect("intake lock poisoned")
            .pending
            .len()
    }

    /// Answers everything submitted so far through [`Server::serve_batch`]
    /// on `threads` workers, returning `(ticket, result)` pairs in ticket
    /// (= submission) order. A request submitted while the drain runs
    /// waits for the next drain.
    pub fn drain(&self, threads: usize) -> Vec<(Ticket, Result<Response, ServerError>)> {
        let pending =
            std::mem::take(&mut self.intake.lock().expect("intake lock poisoned").pending);
        let (tickets, requests): (Vec<Ticket>, Vec<Request>) = pending.into_iter().unzip();
        tickets
            .into_iter()
            .zip(self.serve_batch(&requests, threads))
            .collect()
    }

    /// The one dispatch routine: answers `requests` and returns the results
    /// in input order. Requests are grouped by shard (a request naming no
    /// shard is answered [`ServerError::UnknownShard`] in place); up to
    /// `threads` scoped workers claim whole shard groups from one shared
    /// cursor and answer each group under a single read-lock acquisition
    /// (see [`SchedulerStats`]). Even one worker is spawned rather than run
    /// on the calling thread, so serving allocations stay off its heap.
    pub fn serve_batch(
        &self,
        requests: &[Request],
        threads: usize,
    ) -> Vec<Result<Response, ServerError>> {
        let shards = self.shards.len();
        let mut out: Vec<Option<Result<Response, ServerError>>> = vec![None; requests.len()];
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); shards];
        for (i, request) in requests.iter().enumerate() {
            let shard = request.shard();
            match by_shard.get_mut(shard) {
                Some(group) => group.push(i),
                None => out[i] = Some(Err(ServerError::UnknownShard { shard, shards })),
            }
        }
        let groups: Vec<(usize, Vec<usize>)> = by_shard
            .into_iter()
            .enumerate()
            .filter(|(_, group)| !group.is_empty())
            .collect();
        let cursor = AtomicUsize::new(0);
        let workers = threads.max(1).min(groups.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut answered = Vec::new();
                        while let Some((shard, group)) =
                            groups.get(cursor.fetch_add(1, Ordering::Relaxed))
                        {
                            answered.extend(self.answer_shard_batch(*shard, group, requests));
                        }
                        answered
                    })
                })
                .collect();
            for (w, handle) in handles.into_iter().enumerate() {
                let answered = handle.join().unwrap_or_else(|_| {
                    panic!(
                        "serving worker {w}/{workers} panicked while answering a shard \
                         batch; its unanswered requests are lost — check the shard \
                         answer path for the panic source"
                    )
                });
                for (i, result) in answered {
                    out[i] = Some(result);
                }
            }
        });
        let served: usize = groups.iter().map(|(_, group)| group.len()).sum();
        self.served.fetch_add(served as u64, Ordering::Relaxed);
        self.batches
            .fetch_add(groups.len() as u64, Ordering::Relaxed);
        out.into_iter()
            .map(|r| r.expect("every request answered exactly once"))
            .collect()
    }

    /// Per-query dispatch baseline: answers one request with one lock
    /// acquisition and **no** cache involvement (response cache *and*
    /// shard plans are both bypassed — every dendrogram is built from
    /// scratch). This is what serving looks like without the batching
    /// layer — the `server_throughput` bench measures the gap.
    pub fn serve_one_uncached(&self, request: &Request) -> Result<Response, ServerError> {
        let shard = request.shard();
        let guard = self.read_shard(shard)?;
        let plan = PhysicalPlan::compile(request);
        self.execute(&guard, shard, &plan, None).0
    }

    /// Answers one request through the plan executor *with* the shard's
    /// plans but **skipping the response cache**, returning the response
    /// together with the query's own [`ExecutionMetrics`] — the per-query
    /// observability hook (`EXPLAIN ANALYZE` for the encrypted store).
    pub fn explain(&self, request: &Request) -> Result<(Response, ExecutionMetrics), ServerError> {
        let shard = request.shard();
        let guard = self.read_shard(shard)?;
        let plan = PhysicalPlan::compile(request);
        let (result, metrics) = self.execute(&guard, shard, &plan, Some(guard.plans()));
        result.map(|response| (response, metrics))
    }

    /// Answers one shard's batch — the requests at positions `batch` of
    /// `requests` — under a single read-lock acquisition, returning
    /// `(position, result)` pairs. Each request is compiled once; its plan
    /// keys the shard's cache partition and, on a miss, is executed.
    /// Dendrograms resolve through the shard's plans (built at most once
    /// per linkage between two commits, and no commit can land under this
    /// read lock), so one build amortizes across every `Hierarchical` cut
    /// in the batch, in any order.
    fn answer_shard_batch(
        &self,
        shard: usize,
        batch: &[usize],
        requests: &[Request],
    ) -> Vec<(usize, Result<Response, ServerError>)> {
        let guard = self.shards[shard].read().expect("shard lock poisoned");
        let epoch = guard.epoch();
        let cache = &self.caches[shard];
        batch
            .iter()
            .map(|&i| {
                let plan = PhysicalPlan::compile(&requests[i]);
                let key = CacheKey {
                    epoch,
                    plan: plan.key(),
                };
                if let Some(hit) = cache.lock().expect("cache lock poisoned").get(&key) {
                    self.record_exec(
                        &ExecutionMetrics {
                            cache_hits: 1,
                            ..ExecutionMetrics::default()
                        },
                        false,
                    );
                    return (i, Ok(hit));
                }
                let (result, _) = self.execute(&guard, shard, &plan, Some(guard.plans()));
                if let Ok(response) = &result {
                    cache
                        .lock()
                        .expect("cache lock poisoned")
                        .put(key, response.clone());
                }
                (i, result)
            })
            .collect()
    }

    /// The one answer path: runs `plan` through the plan executor against
    /// `shard` (read-locked by the caller) with dendrograms resolved
    /// through `plans` (built afresh when `None`), and folds the query's
    /// metrics into the server-wide totals.
    fn execute(
        &self,
        shard: &Shard,
        shard_id: usize,
        plan: &PhysicalPlan,
        plans: Option<&Plans>,
    ) -> (Result<Response, ServerError>, ExecutionMetrics) {
        let mut metrics = ExecutionMetrics::default();
        let result = exec::execute(shard, shard_id, plan, plans, &mut metrics);
        self.record_exec(&metrics, plans.is_some());
        (result, metrics)
    }

    /// Writes an epoch-consistent snapshot of every shard (ciphertext
    /// store + packed matrix) and resets the WALs behind it, returning
    /// the snapshot sequence number. Requires
    /// [`ServerBuilder::durability`]; refused with a typed error
    /// otherwise.
    ///
    /// Epoch consistency comes from the writer gates: all are taken (in
    /// shard order) before any byte is written and held until the WALs are
    /// reset, so no ingest can log or commit inside the cut. Queries keep
    /// being served throughout — only writers wait.
    pub fn checkpoint(&self) -> Result<u64, ServerError> {
        let Some(d) = &self.durability else {
            return Err(ServerError::BadRequest(
                "checkpoint() requires a durable server — configure \
                 ServerBuilder::durability(path) first"
                    .into(),
            ));
        };
        // Hold every writer gate for the duration: the snapshot is a
        // single cross-shard cut of the epoch frontier.
        let _writers: Vec<_> = self
            .writers
            .iter()
            .map(|w| w.lock().unwrap_or_else(PoisonError::into_inner))
            .collect();
        let guards: Vec<_> = self
            .shards
            .iter()
            .map(|s| s.read().expect("shard lock poisoned"))
            .collect();
        let states: Vec<ShardStateRef<'_>> = guards
            .iter()
            .map(|g| ShardStateRef {
                epoch: g.epoch(),
                queries: g.queries(),
                matrix: g.matrix(),
            })
            .collect();
        Ok(d.checkpoint(&states)?)
    }

    /// Folds one query's metrics into the server-wide totals, and its plan
    /// builds and hits into [`ServerStats::plans`] if `shard_plans`.
    fn record_exec(&self, metrics: &ExecutionMetrics, shard_plans: bool) {
        let mut totals = self.exec_totals.lock().expect("exec totals lock poisoned");
        totals.queries += 1;
        totals.metrics.merge(metrics);
        if shard_plans {
            totals.plans.builds += metrics.plan_builds;
            totals.plans.hits += metrics.plan_hits;
        }
    }

    /// One coherent snapshot of every counter the engine keeps: response
    /// cache, dispatch, clustering plans, and the aggregated
    /// [`ExecutionMetrics`] over all answered queries. The plan
    /// amortization claim is checkable here: serving `cut(k)` for many `k`
    /// against an unchanged store must grow `plans.hits` while
    /// `plans.builds` stays put.
    pub fn stats(&self) -> ServerStats {
        let cache = self.caches.iter().fold(CacheStats::default(), |acc, c| {
            let s = c.lock().expect("cache lock poisoned").stats();
            CacheStats {
                hits: acc.hits + s.hits,
                misses: acc.misses + s.misses,
                evictions: acc.evictions + s.evictions,
                len: acc.len + s.len,
            }
        });
        let live = self
            .shards
            .iter()
            .map(|s| s.read().expect("shard lock poisoned").plans().live())
            .sum();
        let (queries, exec, plans) = {
            let totals = self.exec_totals.lock().expect("exec totals lock poisoned");
            (totals.queries, totals.metrics.clone(), totals.plans)
        };
        ServerStats {
            cache,
            scheduler: SchedulerStats {
                served: self.served.load(Ordering::Relaxed),
                batches: self.batches.load(Ordering::Relaxed),
            },
            plans: PlanStats { live, ..plans },
            queries,
            exec,
            durability: self.durability.as_ref().map(|d| d.stats()),
        }
    }

    /// Empties every cache partition (counters keep accumulating) — used
    /// by the cold-cache bench configurations.
    pub fn clear_cache(&self) {
        for cache in &self.caches {
            cache.lock().expect("cache lock poisoned").clear();
        }
    }

    /// Drops every clustering plan (counters keep accumulating), for
    /// measuring cold plans. Never needed for correctness: every ingest
    /// commit already drops its shard's plans.
    pub fn clear_plans(&self) {
        for shard in &self.shards {
            shard.write().expect("shard lock poisoned").clear_plans();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpe_distance::TokenDistance;
    use dpe_sql::parse_query;

    fn queries(n: usize, salt: usize) -> Vec<Query> {
        (0..n)
            .map(|i| {
                parse_query(&format!(
                    "SELECT ra, a{} FROM t{} WHERE objid = {}",
                    (i + salt) % 5,
                    (i + salt) % 3,
                    i * 13 + salt
                ))
                .unwrap()
            })
            .collect()
    }

    fn server() -> Server<TokenDistance> {
        let s = Server::builder(TokenDistance)
            .shards(3)
            .cache_capacity(64)
            .build();
        for shard in 0..3 {
            s.ingest(shard, &queries(8 + shard, shard * 100)).unwrap();
        }
        s
    }

    #[test]
    fn ingest_stream_matches_one_shot_ingest() {
        let all = queries(14, 0);
        let oracle = Server::builder(TokenDistance).build();
        oracle.ingest(0, &all).unwrap();

        let s = Server::builder(TokenDistance).build();
        // Chunks are produced lazily on the stream's producer thread —
        // the shape of an owner encrypting while the server ingests.
        let chunks = (0..4).map(|i| all[i * 4..(i * 4 + 4).min(14)].to_vec());
        let total = s.ingest_stream(0, chunks).unwrap();
        assert_eq!(total, 14);
        assert_eq!(s.shard_len(0).unwrap(), 14);
        assert_eq!(s.shard_epoch(0).unwrap(), 4, "one epoch bump per chunk");
        let req = Request::Knn {
            shard: 0,
            item: 3,
            k: 6,
        };
        assert!(s
            .serve_one_uncached(&req)
            .unwrap()
            .bits_eq(&oracle.serve_one_uncached(&req).unwrap()));
    }

    #[test]
    fn ingest_stream_rejects_unknown_shard_without_consuming() {
        let s = server();
        let err = s
            .ingest_stream(9, std::iter::once(queries(2, 0)))
            .unwrap_err();
        assert!(matches!(err, ServerError::UnknownShard { shard: 9, .. }));
    }

    #[test]
    fn ingest_stream_surfaces_producer_panic_as_typed_error() {
        let s = Server::builder(TokenDistance).build();
        let chunks = (0..3).map(|i| {
            if i == 1 {
                panic!("caller iterator bug");
            }
            queries(2, 0)
        });
        let err = s.ingest_stream(0, chunks).unwrap_err();
        assert!(matches!(err, ServerError::ProducerPanicked));
        // The chunk applied before the panic stays ingested.
        assert_eq!(s.shard_len(0).unwrap(), 2);
    }

    #[test]
    fn submit_drain_answers_in_ticket_order() {
        let s = server();
        let reqs = [
            Request::Knn {
                shard: 0,
                item: 2,
                k: 3,
            },
            Request::Range {
                shard: 1,
                item: 0,
                radius: 0.6,
            },
            Request::Lof {
                shard: 2,
                min_pts: 2,
            },
            Request::Knn {
                shard: 1,
                item: 4,
                k: 2,
            },
        ];
        let tickets: Vec<Ticket> = reqs.iter().map(|r| s.submit(r.clone()).unwrap()).collect();
        assert_eq!(s.queued(), 4);
        let results = s.drain(2);
        assert_eq!(s.queued(), 0);
        assert_eq!(results.len(), 4);
        for ((ticket, result), (expected, req)) in results.iter().zip(tickets.iter().zip(&reqs)) {
            assert_eq!(ticket, expected);
            let oracle = s.serve_one_uncached(req).unwrap();
            assert!(result.as_ref().unwrap().bits_eq(&oracle), "{req:?}");
        }
    }

    #[test]
    fn one_batch_per_shard_with_work() {
        let s = server();
        // Four requests per shard, submitted interleaved: one drain answers
        // each shard's four under one lock acquisition.
        for i in 0..12 {
            s.submit(Request::Knn {
                shard: i % 3,
                item: i / 3,
                k: 2,
            })
            .unwrap();
        }
        assert_eq!(s.drain(1).len(), 12);
        assert_eq!(
            s.stats().scheduler,
            SchedulerStats {
                served: 12,
                batches: 3
            }
        );
        // All the work on one shard: one batch, whatever the worker count.
        let reqs: Vec<Request> = (0..5)
            .map(|item| Request::Knn {
                shard: 2,
                item,
                k: 3,
            })
            .collect();
        assert!(s.serve_batch(&reqs, 4).iter().all(|r| r.is_ok()));
        assert_eq!(
            s.stats().scheduler,
            SchedulerStats {
                served: 17,
                batches: 4
            }
        );
    }

    #[test]
    fn empty_drain_returns_nothing_and_counts_no_batch() {
        let s = server();
        assert!(s.drain(8).is_empty());
        assert!(s.serve_batch(&[], 8).is_empty());
        assert_eq!(s.stats().scheduler, SchedulerStats::default());
    }

    #[test]
    fn drain_and_serve_batch_count_alike() {
        let reqs = [
            Request::Knn {
                shard: 0,
                item: 1,
                k: 2,
            },
            Request::Lof {
                shard: 2,
                min_pts: 2,
            },
            Request::Range {
                shard: 0,
                item: 4,
                radius: 0.5,
            },
            Request::Knn {
                shard: 2,
                item: 0,
                k: 5,
            },
        ];
        let batched = server();
        let drained = server();
        let answers = batched.serve_batch(&reqs, 2);
        for r in &reqs {
            drained.submit(r.clone()).unwrap();
        }
        let results = drained.drain(2);
        for (a, (_, b)) in answers.iter().zip(&results) {
            assert!(a.as_ref().unwrap().bits_eq(b.as_ref().unwrap()));
        }
        let stats = batched.stats().scheduler;
        assert_eq!(stats, drained.stats().scheduler);
        assert_eq!((stats.served, stats.batches), (4, 2));
    }

    #[test]
    fn native_and_sql_ranges_share_one_cache_entry() {
        let s = server();
        s.register_sql_table(SqlTable {
            table: "pairs".into(),
            shard: 1,
            item_col: "item".into(),
            anchor_col: "anchor".into(),
            dist_col: "dist".into(),
        })
        .unwrap();
        let radius = 0.6;
        let native = Request::Range {
            shard: 1,
            item: 2,
            radius,
        };
        let sql = format!(
            "SELECT item FROM pairs WHERE anchor = 2 AND dist <= {}",
            crate::sql::dist_literal(radius)
        );
        let first = s.serve_batch(std::slice::from_ref(&native), 1);
        let before = s.stats();
        let second = s.sql(&sql).unwrap();
        let after = s.stats();
        assert!(first[0].as_ref().unwrap().bits_eq(&second));
        assert_eq!(
            after.cache.hits,
            before.cache.hits + 1,
            "the SQL spelling hits"
        );
        assert_eq!(after.cache.misses, before.cache.misses);
        assert_eq!(after.cache.len, 1, "one entry serves both spellings");
        assert_eq!(after.queries - before.queries, 1);
        assert_eq!(after.exec.cache_hits, 1);
        assert_eq!(
            after
                .exec
                .ops
                .iter()
                .find(|o| o.op == "FilterRange")
                .map(|o| o.invocations),
            Some(1),
            "the pair costs one execution"
        );
    }

    #[test]
    fn serve_batch_preserves_input_order_with_errors_inline() {
        let s = server();
        let reqs = vec![
            Request::Knn {
                shard: 2,
                item: 1,
                k: 4,
            },
            Request::Knn {
                shard: 9,
                item: 0,
                k: 1,
            }, // unknown shard
            Request::Lof {
                shard: 0,
                min_pts: 99,
            }, // bad min_pts
            Request::Range {
                shard: 0,
                item: 3,
                radius: 0.4,
            },
        ];
        let results = s.serve_batch(&reqs, 3);
        assert_eq!(results.len(), 4);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(ServerError::UnknownShard { .. })));
        assert!(matches!(results[2], Err(ServerError::BadRequest(_))));
        let oracle = s.serve_one_uncached(&reqs[3]).unwrap();
        assert!(results[3].as_ref().unwrap().bits_eq(&oracle));
    }

    #[test]
    fn repeated_requests_hit_the_cache() {
        let s = server();
        let req = Request::Lof {
            shard: 1,
            min_pts: 3,
        };
        let first = s.serve_batch(std::slice::from_ref(&req), 1);
        let before = s.stats();
        let second = s.serve_batch(std::slice::from_ref(&req), 1);
        let after = s.stats();
        assert!(first[0]
            .as_ref()
            .unwrap()
            .bits_eq(second[0].as_ref().unwrap()));
        assert_eq!(
            after.cache.hits,
            before.cache.hits + 1,
            "second serve must be a hit"
        );
        assert_eq!(
            after.exec.cache_hits,
            before.exec.cache_hits + 1,
            "the hit must surface in the aggregated executor metrics too"
        );
        assert_eq!(after.queries, before.queries + 1);
    }

    #[test]
    fn ingest_invalidates_cached_responses_via_epoch() {
        let s = server();
        let req = Request::Knn {
            shard: 0,
            item: 0,
            k: 20,
        };
        let before = &s.serve_batch(std::slice::from_ref(&req), 1)[0];
        let n_before = match before.as_ref().unwrap() {
            Response::Indices(v) => v.len(),
            _ => unreachable!(),
        };
        // Insert two more items: k = 20 now returns two more neighbours,
        // so a stale cache hit would be observable immediately.
        s.ingest(0, &queries(2, 777)).unwrap();
        let after = &s.serve_batch(std::slice::from_ref(&req), 1)[0];
        let n_after = match after.as_ref().unwrap() {
            Response::Indices(v) => v.len(),
            _ => unreachable!(),
        };
        assert_eq!(
            n_after,
            n_before + 2,
            "stale cached kNN served after ingest"
        );
        let oracle = s.serve_one_uncached(&req).unwrap();
        assert!(after.as_ref().unwrap().bits_eq(&oracle));
    }

    #[test]
    fn errors_are_not_cached() {
        let s = server();
        let bad = Request::Knn {
            shard: 0,
            item: 500,
            k: 1,
        };
        let r1 = &s.serve_batch(std::slice::from_ref(&bad), 1)[0];
        assert!(matches!(r1, Err(ServerError::ItemOutOfBounds { .. })));
        // Grow the shard past the index; the request must now succeed —
        // an (incorrectly) cached error would resurface here even though
        // the epoch changed... which it can't, because epochs key the
        // cache. Grow enough to cover item 500? No: just assert the error
        // repeats identically while the store is unchanged.
        let r2 = &s.serve_batch(std::slice::from_ref(&bad), 1)[0];
        assert_eq!(r1, r2);
        assert_eq!(s.stats().cache.len, 0, "errors must not occupy cache slots");
    }

    #[test]
    fn submit_rejects_unknown_shard_eagerly() {
        let s = server();
        let err = s
            .submit(Request::Knn {
                shard: 3,
                item: 0,
                k: 1,
            })
            .unwrap_err();
        assert_eq!(
            err,
            ServerError::UnknownShard {
                shard: 3,
                shards: 3
            }
        );
        assert_eq!(s.queued(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        Server::builder(TokenDistance).shards(0).build();
    }

    fn durable_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dpe-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_server_recovers_bit_identical_responses() {
        let dir = durable_dir("round-trip");
        let s = Server::builder(TokenDistance)
            .shards(2)
            .durability(&dir)
            .build();
        s.ingest(0, &queries(6, 0)).unwrap();
        s.ingest(1, &queries(5, 50)).unwrap();
        // Snapshot mid-history, then keep writing: recovery must combine
        // the snapshot base with the WAL tail past its epoch.
        let seq = s.checkpoint().unwrap();
        assert_eq!(seq, 1);
        s.ingest(0, &queries(3, 100)).unwrap();
        let stats = s.stats().durability.expect("durable server has stats");
        assert_eq!(stats.checkpoints, 1);
        assert!(stats.wal_records >= 1, "post-checkpoint ingest re-logged");
        let reqs = [
            Request::Knn {
                shard: 0,
                item: 2,
                k: 4,
            },
            Request::Range {
                shard: 1,
                item: 1,
                radius: 0.7,
            },
            Request::Lof {
                shard: 0,
                min_pts: 2,
            },
        ];
        let oracle: Vec<Response> = reqs
            .iter()
            .map(|r| s.serve_one_uncached(r).unwrap())
            .collect();
        let epochs = [s.shard_epoch(0).unwrap(), s.shard_epoch(1).unwrap()];
        drop(s);

        let r = Server::builder(TokenDistance)
            .durability(&dir)
            .recover()
            .unwrap();
        assert_eq!(r.shard_count(), 2, "shard count adopted from manifest");
        assert_eq!(
            [r.shard_epoch(0).unwrap(), r.shard_epoch(1).unwrap()],
            epochs,
            "recovery replays to the exact epoch frontier"
        );
        for (req, expected) in reqs.iter().zip(&oracle) {
            assert!(
                r.serve_one_uncached(req).unwrap().bits_eq(expected),
                "{req:?}"
            );
        }
        // Post-recovery ingests keep logging through the same engine.
        r.ingest(1, &queries(2, 300)).unwrap();
        assert_eq!(r.shard_epoch(1).unwrap(), epochs[1] + 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_requires_durability() {
        let s = server();
        assert!(matches!(s.checkpoint(), Err(ServerError::BadRequest(_))));
        assert_eq!(s.stats().durability, None);
    }

    #[test]
    fn durable_build_refuses_existing_state_as_typed_error() {
        let dir = durable_dir("refuse-existing");
        let s = Server::builder(TokenDistance)
            .durability(&dir)
            .try_build()
            .unwrap();
        drop(s);
        let err = Server::builder(TokenDistance)
            .durability(&dir)
            .try_build()
            .unwrap_err();
        assert!(
            matches!(
                &err,
                ServerError::Durability(dpe_durability::DurabilityError::ExistingState { .. })
            ),
            "{err:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_rejects_mismatched_shard_count() {
        let dir = durable_dir("shard-mismatch");
        drop(
            Server::builder(TokenDistance)
                .shards(3)
                .durability(&dir)
                .build(),
        );
        let err = Server::builder(TokenDistance)
            .shards(2)
            .durability(&dir)
            .recover()
            .unwrap_err();
        assert!(
            matches!(
                &err,
                ServerError::Durability(dpe_durability::DurabilityError::Manifest(_))
            ),
            "{err:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_ingest_stream_logs_every_applied_chunk() {
        let dir = durable_dir("stream");
        let s = Server::builder(TokenDistance).durability(&dir).build();
        let all = queries(9, 0);
        let chunks = vec![
            all[0..4].to_vec(),
            Vec::new(), // skipped: no epoch bump, no WAL record
            all[4..9].to_vec(),
        ];
        assert_eq!(s.ingest_stream(0, chunks).unwrap(), 9);
        assert_eq!(s.shard_epoch(0).unwrap(), 2);
        assert_eq!(s.stats().durability.unwrap().wal_records, 2);
        let oracle = s
            .serve_one_uncached(&Request::Knn {
                shard: 0,
                item: 3,
                k: 5,
            })
            .unwrap();
        drop(s);
        let r = Server::builder(TokenDistance)
            .durability(&dir)
            .recover()
            .unwrap();
        assert_eq!(r.shard_epoch(0).unwrap(), 2);
        assert!(r
            .serve_one_uncached(&Request::Knn {
                shard: 0,
                item: 3,
                k: 5,
            })
            .unwrap()
            .bits_eq(&oracle));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unlexable_query_is_a_typed_error_and_the_shard_keeps_serving() {
        let dir = durable_dir("unlexable");
        let s = Server::builder(TokenDistance).durability(&dir).build();
        let oracle = Server::builder(TokenDistance).build();
        let good = queries(6, 1);
        s.ingest(0, &good).unwrap();
        oracle.ingest(0, &good).unwrap();

        // The parser never builds this AST; its rendering does not lex.
        let mut bad = queries(3, 50);
        bad[1].limit = Some(u64::MAX);
        let err = s.ingest(0, &bad).unwrap_err();
        assert!(matches!(err, ServerError::BadRequest(_)), "{err:?}");
        assert_eq!(s.shard_epoch(0).unwrap(), 1, "the epoch did not move");

        let requests = [
            Request::Knn {
                shard: 0,
                item: 2,
                k: 3,
            },
            Request::Range {
                shard: 0,
                item: 0,
                radius: 0.6,
            },
            Request::Lof {
                shard: 0,
                min_pts: 2,
            },
        ];
        let agree = |s: &Server<TokenDistance>, ctx: &str| {
            for req in &requests {
                assert!(
                    s.serve_one_uncached(req)
                        .unwrap()
                        .bits_eq(&oracle.serve_one_uncached(req).unwrap()),
                    "{ctx}: {req:?}"
                );
            }
        };
        agree(&s, "after the rejected batch");
        // The shard lock is not poisoned: ingests go on, and nothing of
        // the rejected batch reached the log.
        let more = queries(4, 9);
        s.ingest(0, &more).unwrap();
        oracle.ingest(0, &more).unwrap();
        agree(&s, "after a later ingest");
        drop(s);
        let r = Server::builder(TokenDistance)
            .durability(&dir)
            .recover()
            .unwrap();
        assert_eq!(r.shard_epoch(0).unwrap(), 2);
        agree(&r, "recovered");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unlexable_query_is_refused_at_the_ingest_door_of_an_empty_shard() {
        // A lone query costs no distance call, so only the door check can
        // keep it out of an empty shard (and out of its log).
        let dir = durable_dir("ingest-door");
        let s = Server::builder(TokenDistance).durability(&dir).build();
        let mut big_limit = queries(1, 0);
        big_limit[0].limit = Some(u64::MAX);
        let mut dashed = queries(1, 0);
        dashed[0].from = dpe_sql::TableRef::new("a-b");
        for bad in [big_limit, dashed] {
            let err = s.ingest(0, &bad).unwrap_err();
            assert!(matches!(err, ServerError::BadRequest(_)), "{err:?}");
            assert_eq!(s.shard_epoch(0).unwrap(), 0, "{bad:?}");
            let wal = s.stats().durability.expect("durable").wal_records;
            assert_eq!(wal, 0, "{bad:?} reached the log");
        }
        s.ingest(0, &queries(3, 0)).unwrap();
        assert_eq!(s.shard_epoch(0).unwrap(), 1);
        assert_eq!(s.stats().durability.expect("durable").wal_records, 1);
        drop(s);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovered_metric_index_stays_bit_identical() {
        let dir = durable_dir("recovered-index");
        let s = Server::builder(TokenDistance)
            .metric_index(true)
            .durability(&dir)
            .build();
        s.ingest(0, &queries(16, 7)).unwrap();
        let req = Request::Knn {
            shard: 0,
            item: 5,
            k: 6,
        };
        let oracle = s.serve_one_uncached(&req).unwrap();
        drop(s);
        let r = Server::builder(TokenDistance)
            .metric_index(true)
            .durability(&dir)
            .recover()
            .unwrap();
        assert!(r.has_index(0).unwrap(), "index rebuilt eagerly on recover");
        assert!(r.serve_one_uncached(&req).unwrap().bits_eq(&oracle));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn indexed_server_matches_plain_server_bitwise() {
        let indexed = Server::builder(TokenDistance)
            .shards(2)
            .metric_index(true)
            .build();
        let plain = Server::builder(TokenDistance).shards(2).build();
        for shard in 0..2 {
            assert!(indexed.has_index(shard).unwrap());
            assert!(!plain.has_index(shard).unwrap());
            let log = queries(14 + shard, shard * 31);
            indexed.ingest(shard, &log).unwrap();
            plain.ingest(shard, &log).unwrap();
        }
        for shard in 0..2 {
            for item in 0..14 {
                for req in [
                    Request::Knn { shard, item, k: 5 },
                    Request::Range {
                        shard,
                        item,
                        radius: 0.45,
                    },
                ] {
                    let a = indexed.serve_one_uncached(&req).unwrap();
                    let b = plain.serve_one_uncached(&req).unwrap();
                    assert!(a.bits_eq(&b), "{req:?}");
                }
            }
        }
    }

    #[test]
    fn explain_surfaces_pruned_cells_on_indexed_shards() {
        let s = Server::builder(TokenDistance).metric_index(true).build();
        s.ingest(0, &queries(20, 0)).unwrap();
        let (_, m) = s
            .explain(&Request::Knn {
                shard: 0,
                item: 3,
                k: 2,
            })
            .unwrap();
        // Every item is either computed or pruned — the indexed Knn op
        // touches exactly n cells' worth of accounting, never more.
        assert_eq!(m.distance_cells + m.pruned_cells, 20);
        let (_, m) = s
            .explain(&Request::Range {
                shard: 0,
                item: 3,
                radius: 0.2,
            })
            .unwrap();
        assert_eq!(m.distance_cells + m.pruned_cells, 20);
    }

    #[test]
    #[should_panic(expected = "metric_index requires a metric measure")]
    fn builder_metric_index_panics_for_non_metric_measures() {
        #[derive(Debug)]
        struct NotAMetric;
        impl QueryDistance for NotAMetric {
            fn distance(
                &self,
                _: &dpe_sql::Query,
                _: &dpe_sql::Query,
            ) -> Result<f64, dpe_distance::DistanceError> {
                Ok(0.5)
            }
            fn name(&self) -> &'static str {
                "not-a-metric"
            }
        }
        Server::builder(NotAMetric).metric_index(true).build();
    }

    #[test]
    fn one_plan_build_serves_every_cut_in_a_batch() {
        use dpe_mining::Linkage;
        let s = server();
        // A k-sweep over one shard and linkage, interleaved with non-plan
        // traffic: the whole batch must cost exactly one dendrogram build.
        let mut reqs: Vec<Request> = (1..=8)
            .map(|k| Request::Hierarchical {
                shard: 0,
                linkage: Linkage::Complete,
                k,
            })
            .collect();
        reqs.insert(
            3,
            Request::Knn {
                shard: 0,
                item: 1,
                k: 2,
            },
        );
        let results = s.serve_batch(&reqs, 2);
        for (req, result) in reqs.iter().zip(&results) {
            let oracle = s.serve_one_uncached(req).unwrap();
            assert!(result.as_ref().unwrap().bits_eq(&oracle), "{req:?}");
        }
        let stats = s.stats().plans;
        assert_eq!(stats.builds, 1, "one dendrogram for the whole sweep");
        assert_eq!(stats.hits, 7);

        // New k values against the unchanged store: zero further builds.
        let more: Vec<Request> = [2usize, 5, 7]
            .iter()
            .map(|&k| Request::Hierarchical {
                shard: 0,
                linkage: Linkage::Complete,
                k,
            })
            .collect();
        s.clear_cache(); // force plan reuse, not response-cache hits
        let _ = s.serve_batch(&more, 1);
        let stats = s.stats().plans;
        assert_eq!(stats.builds, 1, "warm plan must serve varying k");
        assert_eq!(stats.hits, 10);
    }

    #[test]
    fn distinct_linkages_and_shards_build_distinct_plans() {
        use dpe_mining::Linkage;
        let s = server();
        let reqs = vec![
            Request::Hierarchical {
                shard: 0,
                linkage: Linkage::Complete,
                k: 2,
            },
            Request::Hierarchical {
                shard: 0,
                linkage: Linkage::Single,
                k: 2,
            },
            Request::Hierarchical {
                shard: 1,
                linkage: Linkage::Complete,
                k: 2,
            },
        ];
        let results = s.serve_batch(&reqs, 3);
        assert!(results.iter().all(|r| r.is_ok()));
        let stats = s.stats().plans;
        assert_eq!((stats.builds, stats.live), (3, 3));
    }

    #[test]
    fn clustering_responses_cache_like_any_other() {
        let s = server();
        let req = Request::KMedoids { shard: 2, k: 3 };
        let first = s.serve_batch(std::slice::from_ref(&req), 1);
        let before = s.stats();
        let second = s.serve_batch(std::slice::from_ref(&req), 1);
        let after = s.stats();
        assert!(first[0]
            .as_ref()
            .unwrap()
            .bits_eq(second[0].as_ref().unwrap()));
        assert_eq!(after.cache.hits, before.cache.hits + 1);
    }

    #[test]
    fn explain_returns_per_query_metrics() {
        let s = server();
        let (response, metrics) = s
            .explain(&Request::Knn {
                shard: 0,
                item: 2,
                k: 3,
            })
            .unwrap();
        assert!(response.bits_eq(
            &s.serve_one_uncached(&Request::Knn {
                shard: 0,
                item: 2,
                k: 3,
            })
            .unwrap()
        ));
        assert_eq!(metrics.rows_scanned, 8, "shard 0 holds 8 items");
        assert!(metrics.distance_cells > 0);
        assert!(metrics.total_nanos > 0);
        assert_eq!(metrics.cache_hits, 0, "explain skips the response cache");
        let ops: Vec<&str> = metrics.ops.iter().map(|o| o.op).collect();
        assert_eq!(ops, ["Scan", "Knn", "Project"]);

        // A hierarchical explain resolves through the shard's plans: the
        // second call for the same linkage and store must be a plan hit.
        let h = Request::Hierarchical {
            shard: 1,
            linkage: dpe_mining::Linkage::Average,
            k: 3,
        };
        let (_, m1) = s.explain(&h).unwrap();
        assert_eq!((m1.plan_builds, m1.plan_hits), (1, 0));
        let (_, m2) = s.explain(&h).unwrap();
        assert_eq!((m2.plan_builds, m2.plan_hits), (0, 1));
    }
}
