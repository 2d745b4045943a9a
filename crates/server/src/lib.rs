//! # dpe-server — sharded batch serving for encrypted mining queries
//!
//! The paper's outsourcing model ends with a service provider answering
//! many clients' distance-based queries over an encrypted store. This crate
//! is that provider: a multi-tenant engine that concurrently serves the
//! full mining suite — kNN / range / LOF / outlier point queries *and*
//! whole-shard clustering (DBSCAN, k-medoids, hierarchical cuts, frequent
//! feature itemsets) — from packed per-tenant distance matrices, with the
//! throughput tricks a real deployment needs:
//!
//! * **Sharding** — one [`Shard`] per tenant, each a contiguous row range
//!   with its own packed upper-triangle [`dpe_distance::DistanceMatrix`].
//!   Mining never crosses tenants, so no cross-shard distance is ever
//!   computed, and an ingest into one tenant never blocks readers of
//!   another. Within a tenant, an ingest computes its distances and logs
//!   its batch beside the readers and holds them off only for the
//!   commit.
//! * **Batch coalescing** — one dispatch routine, [`Server::serve_batch`],
//!   groups requests by shard and lets its workers claim whole shard groups
//!   from one shared cursor, each answered under one lock acquisition;
//!   [`Server::submit`] / [`Server::drain`] is a thin intake in front of it.
//!   See [`SchedulerStats`].
//! * **Epoch-keyed LRU response cache** — responses are cached per shard
//!   under *(shard epoch, bit-exact compiled plan)*; a streaming
//!   insert bumps the epoch, so stale answers are unreachable by
//!   construction rather than by invalidation scans. Under a Zipf-skewed
//!   tenant workload — the realistic shape `dpe-workload` generates —
//!   repeated encrypted queries never recompute a mining pass. See
//!   [`CacheStats`].
//! * **Clustering plans** — agglomerative clustering's expensive
//!   artefact, the dendrogram, answers *every* `cut(k)`; each shard builds
//!   it once per linkage and shares it across requests, batches and
//!   clients (one slot per linkage, so request order within a batch never
//!   costs a build). The ingest commit drops a shard's plans. See
//!   [`PlanStats`].
//!
//! Every request — the nine single-shot variants and the compound
//! [`Request::Pipeline`] — compiles into one physical-plan algebra
//! ([`PlanOp`]) answered by a single pull-pipeline executor (see [`exec`]),
//! which accumulates per-query [`ExecutionMetrics`] surfaced through the
//! unified [`ServerStats`] snapshot ([`Server::stats`]) and per query via
//! [`Server::explain`]. A SQL front door ([`Server::sql`]) lowers a SELECT
//! subset over virtual "pairs" tables ([`SqlTable`]) onto the same ops.
//!
//! Because every answer is a pure function of a shard's distance matrix,
//! the engine inherits the paper's headline property end-to-end: a server
//! loaded with DPE-encrypted queries returns **bit-identical** responses
//! to one loaded with the plaintexts (the `serving_pipeline` integration
//! suite asserts exactly this).
//!
//! ## Example
//!
//! ```
//! use dpe_server::{Request, Server};
//! use dpe_distance::TokenDistance;
//! use dpe_sql::parse_query;
//!
//! // Two tenants, a 64-entry response cache.
//! let server = Server::builder(TokenDistance).shards(2).cache_capacity(64).build();
//! let log: Vec<_> = ["SELECT ra FROM t", "SELECT dec FROM t", "SELECT ra FROM u"]
//!     .iter()
//!     .map(|s| parse_query(s).unwrap())
//!     .collect();
//! server.ingest(0, &log).unwrap();
//!
//! // Clients submit; the server answers everything pending in one drain.
//! let ticket = server
//!     .submit(Request::Knn { shard: 0, item: 0, k: 2 })
//!     .unwrap();
//! let results = server.drain(4);
//! assert_eq!(results[0].0, ticket);
//! assert!(results[0].1.is_ok());
//! ```

#![forbid(unsafe_code)]

mod cache;
pub mod exec;
mod plan;
mod request;
mod server;
mod shard;
pub mod sql;

pub use cache::{CacheStats, LruCache};
pub use exec::{
    ClusterRule, ExecutionMetrics, OpMetric, OutlierRule, PhysicalPlan, PlanOp, Projection,
};
pub use plan::PlanStats;
pub use request::{Request, Response, ServerError, Ticket};
pub use server::{SchedulerStats, Server, ServerBuilder, ServerStats};
pub use shard::{Shard, ShardIndex};
pub use sql::{dist_literal, lower_select, SqlTable};
