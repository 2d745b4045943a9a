//! The physical-plan algebra and the request compiler.
//!
//! Every [`Request`] — the nine single-shot variants *and* the compound
//! [`Request::Pipeline`] — compiles into one [`PhysicalPlan`]: a `Scan`
//! followed by selection/scoring operators and a final `Project`. The
//! executor ([`super::executor`]) is the only interpreter of this algebra,
//! so validation is derived from the compiled plan too
//! ([`PhysicalPlan::validate`]) — an operator cannot ship with execution
//! semantics but no bounds checks, because both read the same op list.

use crate::request::{linkage_tag, Request, ServerError};
use dpe_mining::Linkage;

/// One operator of the physical-plan algebra.
///
/// Operators transform a *selection* (an ordered list of item indices,
/// initially the full scan) plus an optional aligned payload (scores or
/// labels). Whole-shard algorithms (`Lof`, `Outliers`, `ClusterLabels`)
/// always compute over the **entire** shard and then project onto the
/// current selection — so a pipelined `FilterRange → ClusterLabels` returns
/// exactly the labels the whole-shard clustering assigns the survivors,
/// bit-identical to a client composing the two single-shot requests.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOp {
    /// Start from every stored item, in insertion order. Always the first
    /// op; the compiler inserts it when a pipeline omits it.
    Scan,
    /// Keep selected items within `radius` of item `item` (inclusive,
    /// `item` itself excluded, NaN distances never qualify), in selection
    /// order — [`dpe_mining::range_among`] over the selection.
    FilterRange {
        /// Anchor item.
        item: usize,
        /// Inclusive distance bound.
        radius: f64,
    },
    /// Keep the `k` selected items nearest to `item` (closest first,
    /// distance ties on the lower index, NaN last, `item` excluded) —
    /// [`dpe_mining::knn_among`] over the selection.
    Knn {
        /// Anchor item.
        item: usize,
        /// Neighbour count.
        k: usize,
    },
    /// Attach whole-shard LOF scores to the selection.
    Lof {
        /// LOF neighbourhood size.
        min_pts: usize,
    },
    /// Replace the selection with the shard's outliers (in the outlier
    /// algorithm's order), intersected with the current selection.
    Outliers(OutlierRule),
    /// Attach whole-shard cluster labels (or a k-medoids clustering) to
    /// the selection.
    ClusterLabels(ClusterRule),
    /// Attach the shard's frequent feature itemsets (whole-shard only).
    Itemsets {
        /// Absolute Apriori support threshold.
        min_support: usize,
    },
    /// Truncate the selection (and its aligned payload) to the first `k`
    /// entries.
    Limit(usize),
    /// Materialize the wire [`crate::Response`]. Always the last op; the
    /// compiler appends the natural projection when a pipeline omits it.
    Project(Projection),
}

/// Which outlier definition an [`PlanOp::Outliers`] op applies.
#[derive(Debug, Clone, PartialEq)]
pub enum OutlierRule {
    /// Knorr–Ng DB(p, D) outliers, ascending index order.
    DistanceBased {
        /// Fraction of the shard that must be farther than `d`.
        p: f64,
        /// Distance threshold.
        d: f64,
    },
    /// Items with `LOF > threshold`, descending by score.
    LofThreshold {
        /// LOF neighbourhood size.
        min_pts: usize,
        /// Score cut-off.
        threshold: f64,
    },
}

/// Which clustering a [`PlanOp::ClusterLabels`] op computes.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterRule {
    /// DBSCAN flat labels (noise = −1), canonicalized.
    Dbscan {
        /// ε-neighbourhood radius.
        eps: f64,
        /// Core-point density threshold.
        min_pts: usize,
    },
    /// K-medoids (whole-shard only — its response is the medoid set, not a
    /// per-selection label vector).
    KMedoids {
        /// Cluster count.
        k: usize,
    },
    /// An agglomerative dendrogram under `linkage`, cut into `k` clusters.
    /// The dendrogram is resolved through the per-shard plan cache.
    Hierarchical {
        /// Linkage rule.
        linkage: Linkage,
        /// Cut size.
        k: usize,
    },
}

/// What the final [`PlanOp::Project`] materializes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Projection {
    /// The selection itself, as [`crate::Response::Indices`].
    Items,
    /// Per-selected-item LOF scores ([`crate::Response::Scores`]).
    Scores,
    /// Per-selected-item cluster labels ([`crate::Response::Labels`]).
    Labels,
    /// The whole-shard k-medoids result ([`crate::Response::Medoids`]).
    Medoids,
    /// The shard's frequent itemsets ([`crate::Response::Itemsets`]).
    Itemsets,
}

/// A compiled, executable plan: the single execution path every request
/// takes (see [`crate::Server`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalPlan {
    ops: Vec<PlanOp>,
}

impl PhysicalPlan {
    /// Compiles `request` into its physical plan. Single-shot variants map
    /// to `Scan → op → Project`; pipelines are normalized (a leading
    /// `Scan` and a trailing natural `Project` are inserted when omitted).
    pub fn compile(request: &Request) -> PhysicalPlan {
        let (op, projection) = match *request {
            Request::Knn { item, k, .. } => (PlanOp::Knn { item, k }, Projection::Items),
            Request::Range { item, radius, .. } => {
                (PlanOp::FilterRange { item, radius }, Projection::Items)
            }
            Request::Lof { min_pts, .. } => (PlanOp::Lof { min_pts }, Projection::Scores),
            Request::LofOutliers {
                min_pts, threshold, ..
            } => (
                PlanOp::Outliers(OutlierRule::LofThreshold { min_pts, threshold }),
                Projection::Items,
            ),
            Request::Outliers { p, d, .. } => (
                PlanOp::Outliers(OutlierRule::DistanceBased { p, d }),
                Projection::Items,
            ),
            Request::Dbscan { eps, min_pts, .. } => (
                PlanOp::ClusterLabels(ClusterRule::Dbscan { eps, min_pts }),
                Projection::Labels,
            ),
            Request::KMedoids { k, .. } => (
                PlanOp::ClusterLabels(ClusterRule::KMedoids { k }),
                Projection::Medoids,
            ),
            Request::Hierarchical { linkage, k, .. } => (
                PlanOp::ClusterLabels(ClusterRule::Hierarchical { linkage, k }),
                Projection::Labels,
            ),
            Request::FrequentItemsets { min_support, .. } => {
                (PlanOp::Itemsets { min_support }, Projection::Itemsets)
            }
            Request::Pipeline { ref ops, .. } => {
                let mut normalized = Vec::with_capacity(ops.len() + 2);
                if ops.first() != Some(&PlanOp::Scan) {
                    normalized.push(PlanOp::Scan);
                }
                normalized.extend_from_slice(ops);
                if !ops.iter().any(|op| matches!(op, PlanOp::Project(_))) {
                    let natural = natural_projection(&normalized);
                    normalized.push(PlanOp::Project(natural));
                }
                return PhysicalPlan { ops: normalized };
            }
        };
        PhysicalPlan {
            ops: vec![PlanOp::Scan, op, PlanOp::Project(projection)],
        }
    }

    /// The plan's response-cache key (see [`PlanKey`]).
    pub(crate) fn key(&self) -> PlanKey {
        let mut words = Vec::with_capacity(3 * self.ops.len());
        for op in &self.ops {
            encode_op(op, &mut words);
        }
        PlanKey(words)
    }

    /// The compiled operator sequence.
    pub fn ops(&self) -> &[PlanOp] {
        &self.ops
    }

    /// Validates the plan against a shard of `n` items — structure (one
    /// leading `Scan`, one trailing `Project`, whole-shard ops undiluted)
    /// and every operator's parameter preconditions. This is the **single
    /// source** of request validation: the executor calls it before
    /// running the ops it checks, so a new op cannot ship with mismatched
    /// checks.
    pub(crate) fn validate(&self, shard: usize, n: usize) -> Result<(), ServerError> {
        let bad = |why: String| Err(ServerError::BadRequest(why));
        if self.ops.first() != Some(&PlanOp::Scan) {
            return bad("pipeline must start with Scan".into());
        }
        let last = self.ops.len() - 1;
        if !matches!(self.ops[last], PlanOp::Project(_)) {
            return bad("pipeline must end with a Project op".into());
        }

        let check_item = |item: usize| {
            if item < n {
                Ok(())
            } else {
                Err(ServerError::ItemOutOfBounds {
                    shard,
                    item,
                    len: n,
                })
            }
        };
        let check_min_pts = |min_pts: usize| {
            if min_pts == 0 {
                Err(ServerError::BadRequest("LOF min_pts must be ≥ 1".into()))
            } else if min_pts >= n {
                Err(ServerError::BadRequest(format!(
                    "LOF min_pts = {min_pts} needs ≥ {} stored items, shard {shard} has {n}",
                    min_pts + 1
                )))
            } else {
                Ok(())
            }
        };

        // Payload availability for the final projection, tracked op by op.
        let mut have_scores = false;
        let mut have_labels = false;
        let mut have_medoids = false;
        let mut have_itemsets = false;

        for (pos, op) in self.ops.iter().enumerate() {
            match op {
                PlanOp::Scan => {
                    if pos != 0 {
                        return bad("Scan is only valid as the first op".into());
                    }
                }
                PlanOp::Project(projection) => {
                    if pos != last {
                        return bad("Project is only valid as the last op".into());
                    }
                    let ok = match projection {
                        Projection::Items => true,
                        Projection::Scores => have_scores,
                        Projection::Labels => have_labels,
                        Projection::Medoids => have_medoids,
                        Projection::Itemsets => have_itemsets,
                    };
                    if !ok {
                        return bad(format!(
                            "Project({projection:?}) needs an earlier op producing that payload"
                        ));
                    }
                }
                PlanOp::FilterRange { item, radius } => {
                    if radius.is_nan() {
                        return bad("range radius is NaN".into());
                    }
                    check_item(*item)?;
                }
                PlanOp::Knn { item, .. } => check_item(*item)?,
                PlanOp::Lof { min_pts } => {
                    check_min_pts(*min_pts)?;
                    have_scores = true;
                }
                PlanOp::Outliers(OutlierRule::DistanceBased { p, d }) => {
                    if d.is_nan() {
                        return bad("outlier distance D is NaN".into());
                    }
                    if !(0.0..=1.0).contains(p) {
                        return bad(format!("outlier fraction p = {p} outside [0, 1]"));
                    }
                }
                PlanOp::Outliers(OutlierRule::LofThreshold { min_pts, threshold }) => {
                    if threshold.is_nan() {
                        return bad("LOF threshold is NaN".into());
                    }
                    check_min_pts(*min_pts)?;
                }
                PlanOp::ClusterLabels(ClusterRule::Dbscan { eps, min_pts }) => {
                    if eps.is_nan() {
                        return bad("DBSCAN eps is NaN".into());
                    }
                    if *min_pts == 0 {
                        return bad("DBSCAN min_pts must be ≥ 1".into());
                    }
                    have_labels = true;
                }
                PlanOp::ClusterLabels(ClusterRule::KMedoids { k }) => {
                    check_k("k-medoids", *k, n, shard)?;
                    if pos != 1 {
                        return bad(
                            "k-medoids is whole-shard only: it must follow Scan directly".into(),
                        );
                    }
                    have_medoids = true;
                }
                PlanOp::ClusterLabels(ClusterRule::Hierarchical { k, .. }) => {
                    check_k("hierarchical cut", *k, n, shard)?;
                    have_labels = true;
                }
                PlanOp::Itemsets { min_support } => {
                    if *min_support == 0 {
                        return bad("frequent-itemset min_support must be ≥ 1".into());
                    }
                    if pos != 1 {
                        return bad(
                            "frequent itemsets are whole-shard only: the op must follow Scan directly"
                                .into(),
                        );
                    }
                    have_itemsets = true;
                }
                PlanOp::Limit(_) => {}
            }
        }
        Ok(())
    }
}

/// Bit-exact response-cache key of a compiled plan: its ops as tag-led
/// words with a fixed arity per tag (floats via `to_bits`), so the encoding
/// is self-delimiting and two plans share a key exactly when they agree op
/// for op, bit for bit. Requests that compile to one plan — a single-shot
/// variant and its one-op pipeline spelling, a native `Range` and its SQL
/// `dist <= dist_literal(r)` lowering — share their cache entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey(Vec<u64>);

/// Appends one plan op's key words: an op tag followed by a fixed number
/// of operand words.
fn encode_op(op: &PlanOp, words: &mut Vec<u64>) {
    match op {
        PlanOp::Scan => words.push(0),
        PlanOp::FilterRange { item, radius } => words.extend([1, *item as u64, radius.to_bits()]),
        PlanOp::Knn { item, k } => words.extend([2, *item as u64, *k as u64]),
        PlanOp::Lof { min_pts } => words.extend([3, *min_pts as u64]),
        PlanOp::Outliers(OutlierRule::DistanceBased { p, d }) => {
            words.extend([4, p.to_bits(), d.to_bits()])
        }
        PlanOp::Outliers(OutlierRule::LofThreshold { min_pts, threshold }) => {
            words.extend([5, *min_pts as u64, threshold.to_bits()])
        }
        PlanOp::ClusterLabels(ClusterRule::Dbscan { eps, min_pts }) => {
            words.extend([6, *min_pts as u64, eps.to_bits()])
        }
        PlanOp::ClusterLabels(ClusterRule::KMedoids { k }) => words.extend([7, *k as u64]),
        PlanOp::ClusterLabels(ClusterRule::Hierarchical { linkage, k }) => {
            words.extend([8, *k as u64, linkage_tag(*linkage) as u64])
        }
        PlanOp::Itemsets { min_support } => words.extend([9, *min_support as u64]),
        PlanOp::Project(projection) => {
            let kind = match projection {
                Projection::Items => 0u64,
                Projection::Scores => 1,
                Projection::Labels => 2,
                Projection::Medoids => 3,
                Projection::Itemsets => 4,
            };
            words.extend([10, kind]);
        }
        PlanOp::Limit(k) => words.extend([11, *k as u64]),
    }
}

/// The projection a pipeline gets when it does not spell one: whatever the
/// last payload-producing operator yields, falling back to the selection
/// itself. This makes a one-op pipeline answer exactly like its single-shot
/// twin (`Pipeline[Lof]` returns scores, like `Request::Lof`).
fn natural_projection(ops: &[PlanOp]) -> Projection {
    for op in ops.iter().rev() {
        match op {
            PlanOp::Lof { .. } => return Projection::Scores,
            PlanOp::ClusterLabels(ClusterRule::KMedoids { .. }) => return Projection::Medoids,
            PlanOp::ClusterLabels(_) => return Projection::Labels,
            PlanOp::Itemsets { .. } => return Projection::Itemsets,
            PlanOp::Outliers(_) | PlanOp::Knn { .. } | PlanOp::FilterRange { .. } => {
                return Projection::Items
            }
            PlanOp::Scan | PlanOp::Limit(_) | PlanOp::Project(_) => {}
        }
    }
    Projection::Items
}

/// `k`-style parameter check shared by k-medoids and hierarchical cuts: the
/// mining layer asserts `1 ≤ k ≤ n`; the server returns the error instead.
fn check_k(what: &str, k: usize, n: usize, shard: usize) -> Result<(), ServerError> {
    if k == 0 {
        Err(ServerError::BadRequest(format!("{what} k must be ≥ 1")))
    } else if k > n {
        Err(ServerError::BadRequest(format!(
            "{what} k = {k} exceeds shard {shard}'s {n} stored items"
        )))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shot_variants_compile_to_scan_op_project() {
        let plan = PhysicalPlan::compile(&Request::Knn {
            shard: 0,
            item: 2,
            k: 3,
        });
        assert_eq!(
            plan.ops(),
            &[
                PlanOp::Scan,
                PlanOp::Knn { item: 2, k: 3 },
                PlanOp::Project(Projection::Items),
            ]
        );
    }

    #[test]
    fn pipeline_normalization_inserts_scan_and_natural_project() {
        let plan = PhysicalPlan::compile(&Request::Pipeline {
            shard: 0,
            ops: vec![PlanOp::FilterRange {
                item: 1,
                radius: 0.5,
            }],
        });
        assert_eq!(plan.ops().len(), 3);
        assert_eq!(plan.ops()[0], PlanOp::Scan);
        assert_eq!(plan.ops()[2], PlanOp::Project(Projection::Items));

        let lof = PhysicalPlan::compile(&Request::Pipeline {
            shard: 0,
            ops: vec![PlanOp::Lof { min_pts: 2 }],
        });
        assert_eq!(lof.ops().last(), Some(&PlanOp::Project(Projection::Scores)));
    }

    #[test]
    fn validate_rejects_misplaced_structure() {
        let n = 8;
        let mid_scan = PhysicalPlan {
            ops: vec![
                PlanOp::Scan,
                PlanOp::Scan,
                PlanOp::Project(Projection::Items),
            ],
        };
        assert!(matches!(
            mid_scan.validate(0, n),
            Err(ServerError::BadRequest(_))
        ));

        let project_without_payload = PhysicalPlan {
            ops: vec![PlanOp::Scan, PlanOp::Project(Projection::Scores)],
        };
        assert!(matches!(
            project_without_payload.validate(0, n),
            Err(ServerError::BadRequest(_))
        ));

        let diluted_kmedoids = PhysicalPlan {
            ops: vec![
                PlanOp::Scan,
                PlanOp::FilterRange {
                    item: 0,
                    radius: 0.5,
                },
                PlanOp::ClusterLabels(ClusterRule::KMedoids { k: 2 }),
                PlanOp::Project(Projection::Medoids),
            ],
        };
        assert!(matches!(
            diluted_kmedoids.validate(0, n),
            Err(ServerError::BadRequest(_))
        ));
    }

    #[test]
    fn validate_bounds_every_anchor_position() {
        // An out-of-bounds anchor must surface as ItemOutOfBounds from any
        // op position — the regression the single-source validation fixes.
        let n = 4;
        for ops in [
            vec![PlanOp::Knn { item: 9, k: 1 }],
            vec![PlanOp::FilterRange {
                item: 9,
                radius: 1.0,
            }],
            vec![
                PlanOp::FilterRange {
                    item: 0,
                    radius: 1.0,
                },
                PlanOp::Knn { item: 9, k: 1 },
            ],
            vec![
                PlanOp::Knn { item: 0, k: 2 },
                PlanOp::FilterRange {
                    item: 9,
                    radius: 1.0,
                },
            ],
        ] {
            let plan = PhysicalPlan::compile(&Request::Pipeline { shard: 3, ops });
            assert_eq!(
                plan.validate(3, n),
                Err(ServerError::ItemOutOfBounds {
                    shard: 3,
                    item: 9,
                    len: n
                })
            );
        }
    }

    #[test]
    fn validate_rejects_nan_radius_at_every_op_position() {
        // A NaN radius would silently select nothing (every comparison is
        // false) — it must be a typed BadRequest no matter where in the
        // pipeline the FilterRange sits.
        let nan_range = PlanOp::FilterRange {
            item: 0,
            radius: f64::NAN,
        };
        for ops in [
            vec![nan_range.clone()],
            vec![nan_range.clone(), PlanOp::Knn { item: 0, k: 1 }],
            vec![PlanOp::Knn { item: 0, k: 2 }, nan_range.clone()],
            vec![
                PlanOp::FilterRange {
                    item: 1,
                    radius: 0.5,
                },
                PlanOp::Lof { min_pts: 2 },
                nan_range.clone(),
            ],
        ] {
            let plan = PhysicalPlan::compile(&Request::Pipeline { shard: 0, ops });
            let err = plan.validate(0, 4).unwrap_err();
            assert!(
                matches!(&err, ServerError::BadRequest(msg) if msg.contains("radius is NaN")),
                "expected NaN-radius BadRequest, got {err:?}"
            );
        }
    }
}
