//! The serving wire types: requests, responses, tickets and errors.

use crate::exec::PlanOp;
use dpe_distance::DistanceError;
use dpe_durability::DurabilityError;
use dpe_mining::Linkage;
use std::fmt;

/// One client query against a tenant shard.
///
/// Every request names its target [`shard`](Request::shard); item indices
/// refer to positions inside that shard's store (insertion order, exactly
/// the indices [`crate::Server::ingest`] assigns). Responses are cached
/// under the compiled plan, whose key reads float parameters bit-exactly —
/// two radii that differ in the last ulp are two cache entries, never a
/// wrong answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// The `k` nearest neighbours of stored item `item`.
    Knn { shard: usize, item: usize, k: usize },
    /// Everything within `radius` of stored item `item` (inclusive).
    Range {
        shard: usize,
        item: usize,
        radius: f64,
    },
    /// LOF scores of every item in the shard.
    Lof { shard: usize, min_pts: usize },
    /// Items with `LOF > threshold`, descending by score.
    LofOutliers {
        shard: usize,
        min_pts: usize,
        threshold: f64,
    },
    /// Knorr–Ng DB(p, D) outliers of the shard.
    Outliers { shard: usize, p: f64, d: f64 },
    /// DBSCAN over the shard; answered as canonical flat labels
    /// (noise = −1).
    Dbscan {
        shard: usize,
        eps: f64,
        min_pts: usize,
    },
    /// K-medoids over the shard; answered as medoids + assignment + the
    /// deterministic within-cluster cost.
    KMedoids { shard: usize, k: usize },
    /// An agglomerative dendrogram under `linkage`, cut into exactly `k`
    /// clusters. The dendrogram is a *clustering plan*: built once per
    /// (shard, epoch, linkage) and reused for every `k` — see
    /// [`crate::PlanStats`].
    Hierarchical {
        shard: usize,
        linkage: Linkage,
        k: usize,
    },
    /// Frequent feature itemsets of the shard's query log (Apriori over
    /// `features(Q)` transactions, absolute `min_support`).
    FrequentItemsets { shard: usize, min_support: usize },
    /// A compound query: a chain of [`PlanOp`]s executed as **one** physical
    /// plan under a single shard read lock — filter → cluster-label →
    /// project in one shard batch instead of one round trip per step.
    /// The compiler normalizes the chain (leading `Scan`, trailing natural
    /// `Project` when omitted); whole-shard operators compute over the full
    /// shard and project onto the pipeline's current selection, so results
    /// are bit-identical to composing the single-shot variants client-side.
    /// Cached under its compiled plan like every other request.
    Pipeline { shard: usize, ops: Vec<PlanOp> },
}

impl Request {
    /// The shard this request routes to.
    pub fn shard(&self) -> usize {
        match *self {
            Request::Knn { shard, .. }
            | Request::Range { shard, .. }
            | Request::Lof { shard, .. }
            | Request::LofOutliers { shard, .. }
            | Request::Outliers { shard, .. }
            | Request::Dbscan { shard, .. }
            | Request::KMedoids { shard, .. }
            | Request::Hierarchical { shard, .. }
            | Request::FrequentItemsets { shard, .. } => shard,
            Request::Pipeline { shard, .. } => shard,
        }
    }
}

/// Stable numeric tag per linkage rule, used in response- and plan-cache
/// keys (the enum deliberately carries no `#[repr]`, so the mapping lives
/// here, next to the other wire encodings).
pub(crate) fn linkage_tag(linkage: Linkage) -> usize {
    match linkage {
        Linkage::Complete => 0,
        Linkage::Single => 1,
        Linkage::Average => 2,
    }
}

/// A computed answer.
///
/// `PartialEq` compares scores with `==`; for the bit-identical assertions
/// the regression suites need, use [`Response::bits_eq`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Item indices (kNN order, ascending range order, or outlier order —
    /// whatever the request's algorithm defines).
    Indices(Vec<usize>),
    /// One score per stored item (LOF).
    Scores(Vec<f64>),
    /// One canonical cluster label per stored item (DBSCAN, hierarchical
    /// cuts): noise is `−1`, clusters renumber `0..` by first member — see
    /// [`dpe_mining::labels`].
    Labels(Vec<i64>),
    /// A k-medoids clustering: medoid item indices (ascending), per-item
    /// assignment into `medoids`, and the deterministic within-cluster
    /// cost (stable index-order sum, compared bit-exactly).
    Medoids {
        medoids: Vec<usize>,
        assignment: Vec<usize>,
        cost: f64,
    },
    /// Frequent feature itemsets `(items, support)`, items ascending within
    /// each set, sets ordered by (size, items) — Apriori's canonical order.
    Itemsets(Vec<(Vec<String>, usize)>),
}

impl Response {
    /// Bit-exact equality: index/label/itemset lists must match exactly and
    /// float payloads must match on their bit patterns (so NaN == NaN and
    /// -0.0 != 0.0).
    pub fn bits_eq(&self, other: &Response) -> bool {
        match (self, other) {
            (Response::Indices(a), Response::Indices(b)) => a == b,
            (Response::Scores(a), Response::Scores(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (Response::Labels(a), Response::Labels(b)) => a == b,
            (
                Response::Medoids {
                    medoids: ma,
                    assignment: aa,
                    cost: ca,
                },
                Response::Medoids {
                    medoids: mb,
                    assignment: ab,
                    cost: cb,
                },
            ) => ma == mb && aa == ab && ca.to_bits() == cb.to_bits(),
            (Response::Itemsets(a), Response::Itemsets(b)) => a == b,
            _ => false,
        }
    }
}

/// Order-stamped receipt returned by [`crate::Server::submit`]; `drain`
/// reports results sorted by ticket, so submission order is recoverable.
/// The inner counter is an engine detail — read it through [`Ticket::id`].
// The clippy.toml ban on `PartialOrd::partial_cmp` targets NaN-prone
// float sorts; this derive expands to field-wise partial_cmp over
// non-float fields, which cannot hit the NaN pitfall.
#[allow(clippy::disallowed_methods)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ticket(pub(crate) u64);

impl Ticket {
    /// The ticket's position in global submission order.
    pub fn id(self) -> u64 {
        self.0
    }
}

/// Why a request (or ingest) was rejected. Requests never panic a worker:
/// everything the mining layer would assert on is validated up front.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerError {
    /// The named shard does not exist.
    UnknownShard { shard: usize, shards: usize },
    /// The request's item index exceeds the shard's store.
    ItemOutOfBounds {
        shard: usize,
        item: usize,
        len: usize,
    },
    /// A parameter fails the target algorithm's preconditions.
    BadRequest(String),
    /// Distance computation failed during ingest.
    Distance(DistanceError),
    /// A caller-supplied producer (e.g. the chunk iterator fed to
    /// [`crate::Server::ingest_stream`]) panicked on its worker thread.
    ProducerPanicked,
    /// A [`crate::Server::sql`] statement falls outside the supported
    /// SELECT subset (or names an unregistered table).
    UnsupportedSql(String),
    /// The durability layer failed: a WAL append, a checkpoint, or
    /// damaged on-disk state found during recovery (see
    /// [`dpe_durability::DurabilityError`] for the taxonomy).
    Durability(DurabilityError),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::UnknownShard { shard, shards } => {
                write!(f, "shard {shard} does not exist ({shards} shards)")
            }
            ServerError::ItemOutOfBounds { shard, item, len } => {
                write!(f, "item {item} out of bounds in shard {shard} (len {len})")
            }
            ServerError::BadRequest(why) => write!(f, "bad request: {why}"),
            ServerError::Distance(e) => write!(f, "distance computation failed: {e}"),
            ServerError::ProducerPanicked => {
                write!(
                    f,
                    "the caller-supplied chunk producer panicked; ingested prefix was kept"
                )
            }
            ServerError::UnsupportedSql(why) => write!(f, "unsupported SQL: {why}"),
            ServerError::Durability(e) => write!(f, "durability failure: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<DistanceError> for ServerError {
    fn from(e: DistanceError) -> Self {
        ServerError::Distance(e)
    }
}

impl From<DurabilityError> for ServerError {
    fn from(e: DurabilityError) -> Self {
        ServerError::Durability(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ClusterRule, PhysicalPlan, PlanKey, Projection};

    /// The response-cache key a request is served under.
    fn key(request: &Request) -> PlanKey {
        PhysicalPlan::compile(request).key()
    }

    #[test]
    fn fingerprints_separate_kinds_and_parameters() {
        let reqs = [
            Request::Knn {
                shard: 0,
                item: 1,
                k: 3,
            },
            Request::Knn {
                shard: 0,
                item: 1,
                k: 4,
            },
            Request::Range {
                shard: 0,
                item: 1,
                radius: 3.0,
            },
            Request::Lof {
                shard: 0,
                min_pts: 3,
            },
            Request::LofOutliers {
                shard: 0,
                min_pts: 3,
                threshold: 1.5,
            },
            Request::Outliers {
                shard: 0,
                p: 0.8,
                d: 0.5,
            },
            Request::Dbscan {
                shard: 0,
                eps: 0.3,
                min_pts: 3,
            },
            Request::Dbscan {
                shard: 0,
                eps: 0.3,
                min_pts: 4,
            },
            Request::KMedoids { shard: 0, k: 3 },
            Request::Hierarchical {
                shard: 0,
                linkage: Linkage::Complete,
                k: 3,
            },
            Request::Hierarchical {
                shard: 0,
                linkage: Linkage::Single,
                k: 3,
            },
            Request::Hierarchical {
                shard: 0,
                linkage: Linkage::Complete,
                k: 4,
            },
            Request::FrequentItemsets {
                shard: 0,
                min_support: 3,
            },
            // Compound pipelines: never collide with the single-shot
            // variants they contain, and op order / parameters separate.
            Request::Pipeline {
                shard: 0,
                ops: vec![PlanOp::Knn { item: 1, k: 3 }, PlanOp::Limit(2)],
            },
            Request::Pipeline {
                shard: 0,
                ops: vec![
                    PlanOp::FilterRange {
                        item: 1,
                        radius: 0.5,
                    },
                    PlanOp::Knn { item: 1, k: 3 },
                ],
            },
            Request::Pipeline {
                shard: 0,
                ops: vec![
                    PlanOp::FilterRange {
                        item: 1,
                        radius: 0.5,
                    },
                    PlanOp::ClusterLabels(ClusterRule::Hierarchical {
                        linkage: Linkage::Complete,
                        k: 3,
                    }),
                ],
            },
            Request::Pipeline {
                shard: 0,
                ops: vec![
                    PlanOp::FilterRange {
                        item: 1,
                        radius: 0.5,
                    },
                    PlanOp::ClusterLabels(ClusterRule::Hierarchical {
                        linkage: Linkage::Complete,
                        k: 3,
                    }),
                    PlanOp::Limit(2),
                ],
            },
        ];
        for (i, a) in reqs.iter().enumerate() {
            for (j, b) in reqs.iter().enumerate() {
                assert_eq!(key(a) == key(b), i == j, "{a:?} vs {b:?}");
            }
        }
        // Spellings that compile to one plan share one key: a single-shot
        // variant and its one-op pipeline, an explicit leading `Scan`, and
        // the SQL lowering of a range (`Scan → FilterRange → Project`).
        let same_plan = [
            (
                Request::Knn {
                    shard: 0,
                    item: 1,
                    k: 3,
                },
                Request::Pipeline {
                    shard: 0,
                    ops: vec![PlanOp::Knn { item: 1, k: 3 }],
                },
            ),
            (
                Request::Lof {
                    shard: 0,
                    min_pts: 3,
                },
                Request::Pipeline {
                    shard: 0,
                    ops: vec![PlanOp::Scan, PlanOp::Lof { min_pts: 3 }],
                },
            ),
            (
                Request::Range {
                    shard: 0,
                    item: 1,
                    radius: 3.0,
                },
                Request::Pipeline {
                    shard: 0,
                    ops: vec![
                        PlanOp::Scan,
                        PlanOp::FilterRange {
                            item: 1,
                            radius: 3.0,
                        },
                        PlanOp::Project(Projection::Items),
                    ],
                },
            ),
        ];
        for (a, b) in &same_plan {
            assert_eq!(key(a), key(b), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn fingerprint_is_bit_exact_on_floats() {
        let a = Request::Range {
            shard: 0,
            item: 0,
            radius: 0.1,
        };
        let b = Request::Range {
            shard: 0,
            item: 0,
            radius: 0.1 + f64::EPSILON,
        };
        assert_ne!(key(&a), key(&b));
    }

    #[test]
    fn fingerprint_ignores_shard() {
        // Each shard has its own cache partition, keyed on (epoch, plan).
        let a = Request::Lof {
            shard: 0,
            min_pts: 2,
        };
        let b = Request::Lof {
            shard: 7,
            min_pts: 2,
        };
        assert_eq!(key(&a), key(&b));
    }

    #[test]
    fn clustering_responses_compare_bit_exactly() {
        let a = Response::Labels(vec![0, 0, 1, -1]);
        assert!(a.bits_eq(&Response::Labels(vec![0, 0, 1, -1])));
        assert!(!a.bits_eq(&Response::Labels(vec![0, 0, 1, 2])));
        assert!(!a.bits_eq(&Response::Indices(vec![0, 0, 1])));

        let m = Response::Medoids {
            medoids: vec![1, 4],
            assignment: vec![0, 0, 1, 1, 1],
            cost: 0.3,
        };
        assert!(m.bits_eq(&m.clone()));
        assert!(!m.bits_eq(&Response::Medoids {
            medoids: vec![1, 4],
            assignment: vec![0, 0, 1, 1, 1],
            cost: 0.3 + f64::EPSILON,
        }));
        // NaN costs are equal when their bit patterns are.
        let nan = Response::Medoids {
            medoids: vec![0],
            assignment: vec![0],
            cost: f64::NAN,
        };
        assert!(nan.bits_eq(&nan.clone()));

        let fi = Response::Itemsets(vec![(vec!["(FROM, t)".into()], 4)]);
        assert!(fi.bits_eq(&fi.clone()));
        assert!(!fi.bits_eq(&Response::Itemsets(vec![(vec!["(FROM, t)".into()], 5)])));
    }

    #[test]
    fn bits_eq_distinguishes_nan_payload_positions() {
        let a = Response::Scores(vec![1.0, f64::NAN]);
        let b = Response::Scores(vec![1.0, f64::NAN]);
        let c = Response::Scores(vec![f64::NAN, 1.0]);
        assert!(a.bits_eq(&b), "equal NaN patterns must compare equal");
        assert!(!a.bits_eq(&c));
        assert!(!a.bits_eq(&Response::Indices(vec![1])));
    }
}
