//! # dpe-distance — the four SQL query-distance measures of Table I
//!
//! | Measure | Characteristic `c` | Module |
//! |---|---|---|
//! | Token-based query-string distance (Def. 3) | `tokens(Q)` | [`token_distance`] |
//! | Query-structure distance (SnipSuggest features) | `features(Q)` | [`structure_distance`] |
//! | Query-result distance | `result_tuples(Q)` | [`result_distance`] |
//! | Query-access-area distance (Def. 5) | `access_A(Q)` per attribute | [`access_area`] |
//!
//! The first three are Jaccard distances over their characteristic sets
//! ([`jaccard`]); access-area distance averages a three-valued per-attribute
//! overlap score δ ∈ {0, x, 1}.
//!
//! [`measure::QueryDistance`] is the common trait; [`matrix::DistanceMatrix`]
//! materializes pairwise distances for the mining algorithms. The matrix
//! engine stores only the strict upper triangle (`n(n−1)/2` packed cells —
//! half the memory of a full n×n grid), grows **incrementally**
//! ([`matrix::DistanceMatrix::extend`] computes only the new pairs when
//! queries are appended), and parallelizes over contiguous row ranges
//! written in place; every constructor fills cells through one row walk.
//! Workers share one `Sync` measure, so even the engine-backed
//! result-distance measure runs on the parallel path: all workers share
//! one [`result_distance::ResultConnection`] and its memo of executed
//! queries.
//!
//! [`index`] escapes the matrix's O(n²) wall for the per-anchor queries:
//! a vantage-point tree ([`index::VpTree`]) answers kNN and range queries
//! **bit-identically** to the matrix paths while triangle-inequality
//! pruning skips most distance evaluations. It reads distances through
//! [`index::DistanceSource`] — a packed matrix or on-demand measure calls —
//! so it serves stores the matrix could never materialize. Every
//! neighbour ranking orders by [`order::nan_last_cmp`], then item index.
//!
//! All distances are **exact** rational computations rendered into `f64`
//! as a final step: numerator and denominator are set cardinalities, so
//! checking the DPE property `d(Enc(x), Enc(y)) = d(x, y)` with `==` is
//! sound — both sides round the same rational the same way.

#![forbid(unsafe_code)]

pub mod access_area;
pub mod index;
pub mod jaccard;
pub mod matrix;
pub mod measure;
pub mod order;
pub mod result_distance;
pub mod structure_distance;
pub mod token_distance;

pub use access_area::{AccessAreaDistance, AttributeDomain, DomainCatalog, IntervalSet};
pub use index::{DistanceSource, MatrixSource, MeasureSource, QueryCounters, VpTree};
pub use jaccard::jaccard_distance;
pub use matrix::DistanceMatrix;
pub use measure::{DistanceError, QueryDistance};
pub use order::nan_last_cmp;
pub use result_distance::{ResultConnection, ResultDistance};
pub use structure_distance::StructureDistance;
pub use token_distance::TokenDistance;
