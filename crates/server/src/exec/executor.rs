//! The pull-pipeline interpreter of the physical-plan algebra.
//!
//! One [`execute`] call answers one compiled [`PhysicalPlan`] against one
//! shard, under a read lock the caller already holds (the batch path holds
//! one for a whole coalesced batch). Only the ingest commit writes a
//! shard, under its write lock, so the store, its index and its plans
//! cannot change during a call. State
//! between operators is a [`Frame`]: the ordered selection of item indices
//! plus an optional payload aligned to it. Whole-shard algorithms compute
//! over the entire matrix and project onto the selection, which is what
//! makes a compound pipeline bit-identical to the equivalent sequence of
//! single-shot requests (the `pipeline_differential` suite pins this).
//!
//! Narrowing ops hand the frame **item ids**, never positions: `Knn` and
//! `Outliers` keep their algorithm's order, `FilterRange` the selection
//! order, and `Limit` truncates. So the VP-tree can serve `Knn` and
//! `FilterRange` whenever the selection holds all `n` items, in any order.

use super::metrics::ExecutionMetrics;
use super::plan::{ClusterRule, OutlierRule, PhysicalPlan, PlanOp, Projection};
use crate::plan::Plans;
use crate::request::{Response, ServerError};
use crate::shard::Shard;
use dpe_mining::{
    agglomerative, canonical_dbscan_labels, db_outliers, dbscan, frequent_id_itemsets, kmedoids,
    knn_among, lof, lof_outliers, range_among, DbscanConfig, LofConfig, OutlierConfig,
};
use std::time::Instant;

/// Inter-operator state: the ordered selection plus payloads aligned to it.
/// `medoids` and `itemsets` are whole-shard artefacts (validation confines
/// their ops to undiluted scans).
#[derive(Default)]
struct Frame {
    selection: Vec<usize>,
    scores: Option<Vec<f64>>,
    labels: Option<Vec<i64>>,
    medoids: Option<(Vec<usize>, Vec<usize>, f64)>,
    itemsets: Option<Vec<(Vec<String>, usize)>>,
}

impl Frame {
    /// Narrows the selection to the selected ones of `items` (ids below
    /// `n`): in `items`' order, or in selection order when
    /// `selection_order` is set. Each aligned payload entry follows its
    /// item through a position map.
    fn narrow(&mut self, n: usize, items: impl IntoIterator<Item = usize>, selection_order: bool) {
        let mut position_of = vec![usize::MAX; n];
        for (p, &i) in self.selection.iter().enumerate() {
            position_of[i] = p;
        }
        let mut positions: Vec<usize> = items
            .into_iter()
            .map(|i| position_of[i])
            .filter(|&p| p != usize::MAX)
            .collect();
        if selection_order {
            positions.sort_unstable();
        }
        self.selection = positions.iter().map(|&p| self.selection[p]).collect();
        if let Some(s) = &mut self.scores {
            *s = positions.iter().map(|&p| s[p]).collect();
        }
        if let Some(l) = &mut self.labels {
            *l = positions.iter().map(|&p| l[p]).collect();
        }
    }
}

/// Executes `plan` against `shard`, validating it first
/// ([`PhysicalPlan::validate`], the single source of request checks) and
/// accumulating per-operator metrics. `Knn`/`FilterRange` read the shard's
/// metric index when one is built. Dendrograms resolve through `plans` —
/// the shard's own, built at most once per linkage between two commits —
/// or, with `None` (the no-cache baseline), are built afresh per call.
pub(crate) fn execute(
    shard: &Shard,
    shard_id: usize,
    plan: &PhysicalPlan,
    plans: Option<&Plans>,
    metrics: &mut ExecutionMetrics,
) -> Result<Response, ServerError> {
    let started = Instant::now();
    plan.validate(shard_id, shard.len())?;
    let matrix = shard.matrix();
    let n = shard.len();
    let mut frame = Frame::default();
    let mut out: Option<Response> = None;

    for op in plan.ops() {
        let op_started = Instant::now();
        match op {
            PlanOp::Scan => {
                frame = Frame {
                    selection: (0..n).collect(),
                    ..Frame::default()
                };
                metrics.rows_scanned += n as u64;
            }
            PlanOp::FilterRange { item, radius } => {
                // Index path whenever the selection holds all n items: the
                // VP-tree's hit set is exactly the matrix predicate's (both
                // read the same packed cells, the tree just skips most of
                // them). A diluted selection reads fewer cells than the
                // whole index walk would, so it stays on the matrix path.
                let hits = match shard.index().filter(|_| frame.selection.len() == n) {
                    Some(index) => {
                        debug_assert_eq!(index.len(), n, "index out of lockstep with matrix");
                        let (hits, counters) = index.range(matrix, *item, *radius);
                        metrics.distance_cells += counters.computed;
                        metrics.pruned_cells += counters.pruned;
                        hits
                    }
                    None => {
                        metrics.distance_cells += frame.selection.len() as u64;
                        range_among(matrix, *item, *radius, frame.selection.iter().copied())
                    }
                };
                // The tree lists hits by id, `range_among` in selection
                // order; narrowing puts either into selection order.
                frame.narrow(n, hits, true);
            }
            PlanOp::Knn { item, k } => {
                // Same gate as FilterRange: the tree's bounded worst-first
                // heap ranks in the neighbour order bit-identically.
                let neighbours = match shard.index().filter(|_| frame.selection.len() == n) {
                    Some(index) => {
                        debug_assert_eq!(index.len(), n, "index out of lockstep with matrix");
                        let (neighbours, counters) = index.knn(matrix, *item, *k);
                        metrics.distance_cells += counters.computed;
                        metrics.pruned_cells += counters.pruned;
                        neighbours
                    }
                    None => {
                        let others = frame.selection.iter().filter(|&&j| j != *item).count();
                        metrics.distance_cells += others as u64;
                        knn_among(matrix, *item, *k, frame.selection.iter().copied())
                    }
                };
                frame.narrow(n, neighbours, false);
            }
            PlanOp::Lof { min_pts } => {
                metrics.distance_cells += matrix.packed_len() as u64;
                let full = lof(matrix, LofConfig { min_pts: *min_pts });
                frame.scores = Some(frame.selection.iter().map(|&i| full[i]).collect());
            }
            PlanOp::Outliers(rule) => {
                metrics.distance_cells += matrix.packed_len() as u64;
                let full = match rule {
                    OutlierRule::DistanceBased { p, d } => {
                        db_outliers(matrix, OutlierConfig { p: *p, d: *d })
                    }
                    OutlierRule::LofThreshold { min_pts, threshold } => {
                        lof_outliers(matrix, LofConfig { min_pts: *min_pts }, *threshold)
                    }
                };
                // Intersect with the selection, keeping the algorithm's
                // output order (ascending index for DB(p, D), descending
                // score for LOF outliers).
                frame.narrow(n, full, false);
            }
            PlanOp::ClusterLabels(rule) => match rule {
                ClusterRule::Dbscan { eps, min_pts } => {
                    metrics.distance_cells += matrix.packed_len() as u64;
                    let full = canonical_dbscan_labels(&dbscan(
                        matrix,
                        DbscanConfig {
                            eps: *eps,
                            min_pts: *min_pts,
                        },
                    ));
                    frame.labels = Some(frame.selection.iter().map(|&i| full[i]).collect());
                }
                ClusterRule::KMedoids { k } => {
                    metrics.distance_cells += matrix.packed_len() as u64;
                    let r = kmedoids(matrix, *k);
                    let cost = r.cost(matrix);
                    frame.medoids = Some((r.medoids, r.assignment, cost));
                }
                ClusterRule::Hierarchical { linkage, k } => {
                    let build = || agglomerative(matrix, *linkage);
                    let fresh;
                    let (dendrogram, built) = match plans {
                        Some(plans) => plans.get_or_build(*linkage, build),
                        None => {
                            fresh = build();
                            (&fresh, true)
                        }
                    };
                    if built {
                        metrics.plan_builds += 1;
                        metrics.distance_cells += matrix.packed_len() as u64;
                    } else {
                        metrics.plan_hits += 1;
                    }
                    metrics.distance_cells += frame.selection.len() as u64;
                    // The cut's ids are already renumbered by smallest
                    // leaf, so the wire form is just a widening.
                    let full = dendrogram.cut(*k);
                    frame.labels = Some(frame.selection.iter().map(|&i| full[i] as i64).collect());
                }
            },
            PlanOp::Itemsets { min_support } => {
                let (names, transactions) = shard.feature_transactions();
                frame.itemsets = Some(
                    frequent_id_itemsets(&transactions, *min_support)
                        .into_iter()
                        .map(|(ids, support)| {
                            let items = ids.iter().map(|&id| names[id as usize].clone());
                            (items.collect(), support)
                        })
                        .collect(),
                );
            }
            PlanOp::Limit(k) => {
                frame.selection.truncate(*k);
                if let Some(s) = &mut frame.scores {
                    s.truncate(*k);
                }
                if let Some(l) = &mut frame.labels {
                    l.truncate(*k);
                }
            }
            PlanOp::Project(projection) => {
                let missing = |what: &str| {
                    ServerError::BadRequest(format!(
                        "Project({what}) without an op producing that payload"
                    ))
                };
                out = Some(match projection {
                    Projection::Items => Response::Indices(frame.selection.clone()),
                    Projection::Scores => {
                        Response::Scores(frame.scores.take().ok_or_else(|| missing("Scores"))?)
                    }
                    Projection::Labels => {
                        Response::Labels(frame.labels.take().ok_or_else(|| missing("Labels"))?)
                    }
                    Projection::Medoids => {
                        let (medoids, assignment, cost) =
                            frame.medoids.take().ok_or_else(|| missing("Medoids"))?;
                        Response::Medoids {
                            medoids,
                            assignment,
                            cost,
                        }
                    }
                    Projection::Itemsets => Response::Itemsets(
                        frame.itemsets.take().ok_or_else(|| missing("Itemsets"))?,
                    ),
                });
            }
        }
        metrics.record_op(op_name(op), op_started.elapsed());
    }

    let elapsed = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    // Instant can report 0 ns on coarse clocks; the metrics contract is
    // "non-zero for every executed query", so clamp up to 1.
    metrics.total_nanos += elapsed.max(1);
    out.ok_or_else(|| ServerError::BadRequest("pipeline produced no projection".into()))
}

/// Stable display name per operator kind, used in [`super::OpMetric`].
fn op_name(op: &PlanOp) -> &'static str {
    match op {
        PlanOp::Scan => "Scan",
        PlanOp::FilterRange { .. } => "FilterRange",
        PlanOp::Knn { .. } => "Knn",
        PlanOp::Lof { .. } => "Lof",
        PlanOp::Outliers(OutlierRule::DistanceBased { .. }) => "Outliers(DB)",
        PlanOp::Outliers(OutlierRule::LofThreshold { .. }) => "Outliers(LOF)",
        PlanOp::ClusterLabels(ClusterRule::Dbscan { .. }) => "ClusterLabels(DBSCAN)",
        PlanOp::ClusterLabels(ClusterRule::KMedoids { .. }) => "ClusterLabels(KMedoids)",
        PlanOp::ClusterLabels(ClusterRule::Hierarchical { .. }) => "ClusterLabels(Hierarchical)",
        PlanOp::Itemsets { .. } => "Itemsets",
        PlanOp::Limit(_) => "Limit",
        PlanOp::Project(_) => "Project",
    }
}
