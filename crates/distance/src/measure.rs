//! The common distance-measure interface.

use dpe_minidb::DbError;
use dpe_sql::{Query, SqlError};
use std::fmt;

/// Errors surfaced while computing a distance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistanceError {
    /// Query execution failed (result distance).
    Execution(DbError),
    /// An attribute lacks a domain entry (access-area distance).
    MissingDomain(String),
    /// A query's canonical rendering does not lex, so it has no token set
    /// (token distance): e.g. `LIMIT` above `i64::MAX`, or an identifier
    /// such as `a-b`.
    Unlexable(SqlError),
}

impl fmt::Display for DistanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistanceError::Execution(e) => write!(f, "query execution failed: {e}"),
            DistanceError::MissingDomain(a) => {
                write!(f, "attribute {a} has no domain in the catalog")
            }
            DistanceError::Unlexable(e) => write!(f, "query rendering does not lex: {e}"),
        }
    }
}

impl std::error::Error for DistanceError {}

impl From<DbError> for DistanceError {
    fn from(e: DbError) -> Self {
        DistanceError::Execution(e)
    }
}

impl From<SqlError> for DistanceError {
    fn from(e: SqlError) -> Self {
        DistanceError::Unlexable(e)
    }
}

/// A distance measure `d : Q × Q → [0, 1]` over SQL queries.
///
/// Implementations must be symmetric with `d(q, q) = 0`; the property tests
/// in each module enforce this.
pub trait QueryDistance {
    /// Computes `d(a, b)`.
    fn distance(&self, a: &Query, b: &Query) -> Result<f64, DistanceError>;

    /// Short measure name as used in Table I.
    fn name(&self) -> &'static str;

    /// `true` when the measure is a true metric — symmetry, identity of
    /// indiscernibles, and crucially the **triangle inequality** — which
    /// makes triangle-inequality index pruning ([`crate::index::VpTree`])
    /// sound. Defaults to `false`: a measure must opt in explicitly
    /// (the Jaccard-based measures do; access-area distance, whose
    /// per-pair attribute-union normalization breaks the triangle
    /// inequality, must not).
    fn is_metric(&self) -> bool {
        false
    }
}
