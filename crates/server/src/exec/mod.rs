//! # The physical-plan executor
//!
//! The server's one execution path. Every [`crate::Request`] — the nine
//! single-shot variants and the compound [`crate::Request::Pipeline`] —
//! compiles ([`PhysicalPlan::compile`]) into a small operator algebra
//! ([`PlanOp`]): a `Scan`, a chain of selection/scoring operators, and a
//! final `Project`. One entry, `execute`, runs the chain under a single
//! shard read lock, resolving dendrograms through the shard's plans (which
//! the ingest commit drops under the write lock) and accumulating
//! [`ExecutionMetrics`] per query (rows scanned, distance
//! cells touched, cache/plan interactions, per-operator wall time). Every
//! serving path — batches, `explain` and the no-cache baseline — calls it.
//!
//! Validation is **derived from the compiled plan**
//! (`PhysicalPlan::validate`): `execute` checks the same op list it runs,
//! so an operator cannot ship with execution semantics but missing bounds
//! checks.

mod executor;
mod metrics;
mod plan;

pub use metrics::{ExecutionMetrics, OpMetric};
pub use plan::{ClusterRule, OutlierRule, PhysicalPlan, PlanOp, Projection};

pub(crate) use executor::execute;
pub(crate) use plan::PlanKey;
