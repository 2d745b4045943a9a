//! One tenant shard: a contiguous row range of the global store with its
//! own packed distance matrix.
//!
//! Sharding is by tenant, so every mining request is answerable from one
//! shard's matrix alone — no cross-shard distances are ever materialized.
//! Each shard reuses the PR 2 incremental engine:
//! [`dpe_distance::DistanceMatrix::extend`] makes a streaming insert of `m`
//! queries cost exactly `m·n + m(m−1)/2` distance calls, and the packed
//! upper-triangle layout keeps the per-shard memory at `n(n−1)/2` cells.
//!
//! Every change to a shard after construction or restore is one commit of
//! matrix cells computed beforehand under shared access: [`Shard::apply`]
//! for WAL replay, and [`crate::Server::ingest`], which logs in between.

use crate::plan::Plans;
use crate::request::ServerError;
use dpe_distance::index::{MatrixSource, QueryCounters, VpTree};
use dpe_distance::{DistanceMatrix, QueryDistance};
use dpe_sql::features::FeatureSet;
use dpe_sql::{feature_set, Feature, Query};
use std::collections::{BTreeMap, BTreeSet};

/// A tenant's slice of the store: queries in insertion order plus the
/// packed matrix over them, versioned by an epoch that bumps on every
/// commit (cache keys embed it, so stale responses can never be served
/// after one).
#[derive(Debug, Clone, Default)]
pub struct Shard {
    queries: Vec<Query>,
    matrix: DistanceMatrix,
    epoch: u64,
    /// The optional metric index (see [`ShardIndex`]); kept in lockstep
    /// with the matrix by the commit, so it can never describe a
    /// different epoch than the matrix it prunes for.
    index: Option<ShardIndex>,
    /// Clustering plans built against this store; the commit drops them.
    plans: Plans,
}

/// A shard's metric index: a [`VpTree`] over the shard's packed matrix.
/// The matrix stays the ground truth — the tree only decides *which* cells
/// a `Knn`/`FilterRange` op reads, so indexed answers are bit-identical to
/// matrix-path answers while triangle-inequality pruning skips the rest
/// (the skips surface as [`crate::ExecutionMetrics::pruned_cells`]).
///
/// Building one is only sound for measures declaring
/// [`QueryDistance::is_metric`]; [`crate::Server`] enforces that — a
/// `Shard` handled directly leaves the check to the caller.
#[derive(Debug, Clone)]
pub struct ShardIndex {
    tree: VpTree,
}

impl ShardIndex {
    fn build(matrix: &DistanceMatrix) -> ShardIndex {
        let tree = VpTree::build(&MatrixSource(matrix))
            .expect("matrix-backed distance source cannot fail");
        ShardIndex { tree }
    }

    /// Streaming-insert maintenance: appended items join the tree's
    /// overflow (zero distance reads now), with a rebuild once the
    /// overflow outgrows half the built tree.
    fn absorb(&mut self, matrix: &DistanceMatrix) {
        self.tree
            .absorb(&MatrixSource(matrix))
            .expect("matrix-backed distance source cannot fail");
    }

    /// Exact kNN of `item` through the tree — bit-identical to
    /// [`dpe_mining::knn_indices`] over the same matrix.
    pub fn knn(
        &self,
        matrix: &DistanceMatrix,
        item: usize,
        k: usize,
    ) -> (Vec<usize>, QueryCounters) {
        self.tree
            .knn(&MatrixSource(matrix), item, k)
            .expect("matrix-backed distance source cannot fail")
    }

    /// Exact range query through the tree — bit-identical to
    /// [`dpe_mining::range_indices`] over the same matrix.
    pub fn range(
        &self,
        matrix: &DistanceMatrix,
        item: usize,
        radius: f64,
    ) -> (Vec<usize>, QueryCounters) {
        self.tree
            .range(&MatrixSource(matrix), item, radius)
            .expect("matrix-backed distance source cannot fail")
    }

    /// Items the index covers (always the shard's length).
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// `true` when the index covers no items.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Items inside the tree structure proper (the rest are overflow).
    pub fn built_len(&self) -> usize {
        self.tree.built_len()
    }

    /// Appended items pending the next rebuild, scanned linearly.
    pub fn overflow_len(&self) -> usize {
        self.tree.overflow_len()
    }

    /// Full rebuilds triggered by streaming inserts so far.
    pub fn rebuilds(&self) -> u64 {
        self.tree.rebuilds()
    }
}

impl Shard {
    /// An empty shard.
    pub fn new() -> Shard {
        Shard::default()
    }

    /// Rebuilds a shard from recovered state: the query store, the packed
    /// matrix over it (bit-identical to the snapshotted one — recovery
    /// never recomputes snapshot cells), and the epoch the store had at
    /// that cut. The metric index is *not* restored — it is derived state;
    /// call [`Shard::enable_index`] afterwards to rebuild it.
    ///
    /// # Panics
    ///
    /// Panics when the matrix does not cover exactly the query count —
    /// [`dpe_durability`] validates this while decoding, so hitting the
    /// assert means a caller bypassed the snapshot codec.
    pub fn restore(queries: Vec<Query>, matrix: DistanceMatrix, epoch: u64) -> Shard {
        assert_eq!(
            matrix.len(),
            queries.len(),
            "restore: matrix covers {} items but {} queries were recovered",
            matrix.len(),
            queries.len()
        );
        Shard {
            queries,
            matrix,
            epoch,
            ..Shard::default()
        }
    }

    /// Appends `new` queries: computes their matrix cells, then commits.
    /// A distance error leaves the shard (epoch included) unchanged.
    pub fn apply<M: QueryDistance>(
        &mut self,
        new: &[Query],
        measure: &M,
    ) -> Result<(), ServerError> {
        let cells = self.matrix.extension(&self.queries, new, measure)?;
        self.commit(new, cells);
        Ok(())
    }

    /// The one way a shard changes, and infallible: appends `new` with the
    /// matrix `cells` computed for it against this store, bumps the epoch,
    /// maintains the index, and drops the plans (returning how many).
    pub(crate) fn commit(&mut self, new: &[Query], cells: Vec<f64>) -> u64 {
        self.matrix.append(new.len(), cells);
        self.queries.extend_from_slice(new);
        self.epoch += 1;
        if let Some(index) = &mut self.index {
            index.absorb(&self.matrix);
        }
        self.plans.clear()
    }

    /// Items stored.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// `true` before the first ingest.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Version counter, bumped by every commit.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The stored queries, insertion order (request item indices point
    /// here).
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// The packed matrix over the stored queries.
    pub fn matrix(&self) -> &DistanceMatrix {
        &self.matrix
    }

    /// Builds (or rebuilds) the shard's metric index over the current
    /// matrix; every later commit keeps it current incrementally. The
    /// caller is responsible for only indexing metric measures
    /// ([`QueryDistance::is_metric`]) — [`crate::Server`] checks.
    pub fn enable_index(&mut self) {
        self.index = Some(ShardIndex::build(&self.matrix));
    }

    /// The shard's metric index, when one is built.
    pub fn index(&self) -> Option<&ShardIndex> {
        self.index.as_ref()
    }

    /// The clustering plans built against the current store.
    pub(crate) fn plans(&self) -> &Plans {
        &self.plans
    }

    /// Drops every clustering plan, for measuring cold plans.
    pub(crate) fn clear_plans(&mut self) {
        self.plans.clear();
    }

    /// The shard's query log as Apriori transactions over interned
    /// features: each query's `features(Q)` set as item ids, with the
    /// printed feature of each id. Set equality is all Apriori reads, so
    /// this serves plaintext and DPE-encrypted logs alike. Each distinct
    /// feature is printed once; ids follow printed order, so an id-ordered
    /// itemset is a string-ordered one, and two features that print alike
    /// share an id.
    pub(crate) fn feature_transactions(&self) -> (Vec<String>, Vec<Vec<u32>>) {
        let sets: Vec<FeatureSet> = self.queries.iter().map(feature_set).collect();
        let features: BTreeSet<&Feature> = sets.iter().flatten().collect();
        let printed: Vec<String> = features.iter().map(|f| f.to_string()).collect();
        let mut names = printed.clone();
        names.sort_unstable();
        names.dedup();
        let ids: BTreeMap<&Feature, u32> = features
            .into_iter()
            .zip(&printed)
            .map(|(f, p)| {
                let id = names.binary_search(p).expect("printed above");
                (f, u32::try_from(id).expect("feature ids fit in u32"))
            })
            .collect();
        let transactions = sets
            .iter()
            .map(|set| set.iter().map(|f| ids[f]).collect())
            .collect();
        (names, transactions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{self, ExecutionMetrics, PhysicalPlan};
    use crate::request::{Request, Response};
    use dpe_distance::TokenDistance;
    use dpe_mining::{
        agglomerative, canonical_dbscan_labels, db_outliers, dbscan, kmedoids, knn_indices, lof,
        range_indices, DbscanConfig, Linkage, LofConfig, OutlierConfig,
    };
    use dpe_sql::parse_query;

    /// Answers `request` through the one executor entry, building any
    /// dendrogram afresh — what `Server::serve_one_uncached` does under
    /// its lock.
    fn answer(shard: &Shard, request: &Request) -> Result<Response, ServerError> {
        exec::execute(
            shard,
            request.shard(),
            &PhysicalPlan::compile(request),
            None,
            &mut ExecutionMetrics::default(),
        )
    }

    fn queries(n: usize) -> Vec<Query> {
        (0..n)
            .map(|i| {
                parse_query(&format!(
                    "SELECT ra, a{} FROM t{} WHERE objid = {}",
                    i % 4,
                    i % 3,
                    i * 11
                ))
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn ingest_matches_batch_matrix_and_bumps_epoch() {
        let all = queries(12);
        let full = DistanceMatrix::compute(&all, &TokenDistance).unwrap();
        let mut shard = Shard::new();
        assert_eq!(shard.epoch(), 0);
        shard.apply(&all[..7], &TokenDistance).unwrap();
        shard.apply(&all[7..], &TokenDistance).unwrap();
        assert_eq!(shard.epoch(), 2);
        assert_eq!(shard.len(), 12);
        assert!(shard.matrix().identical(&full));
    }

    #[test]
    fn index_tracks_ingest_and_answers_match_mining() {
        let all = queries(40);
        let mut shard = Shard::new();
        shard.apply(&all[..10], &TokenDistance).unwrap();
        shard.enable_index();
        let built = shard.index().expect("index just built").built_len();
        assert_eq!(built, 10);

        // A small ingest lands in the overflow buffer; a large one forces
        // a rebuild. Either way every answer stays bit-identical to the
        // matrix path.
        shard.apply(&all[10..13], &TokenDistance).unwrap();
        let index = shard.index().expect("index survives ingest");
        assert_eq!(index.len(), 13);
        assert_eq!(index.overflow_len(), 3, "small ingest buffers");

        shard.apply(&all[13..], &TokenDistance).unwrap();
        let index = shard.index().expect("index survives ingest");
        assert_eq!(index.len(), 40);
        assert_eq!(index.overflow_len(), 0, "large ingest rebuilds");
        assert!(index.rebuilds() >= 1);

        for item in 0..shard.len() {
            let (got, counters) = index.knn(shard.matrix(), item, 6);
            let want = knn_indices(shard.matrix(), item, 6);
            assert_eq!(got, want, "knn anchor {item}");
            assert_eq!(counters.computed + counters.pruned, 40);
            let (got, _) = index.range(shard.matrix(), item, 0.4);
            let want = range_indices(shard.matrix(), item, 0.4);
            assert_eq!(got, want, "range anchor {item}");
        }
    }

    /// The chunk loop `Server::ingest_stream` runs: one apply per
    /// non-empty chunk.
    fn apply_chunks<M: QueryDistance>(
        shard: &mut Shard,
        chunks: &[Vec<Query>],
        measure: &M,
    ) -> Result<(), ServerError> {
        for chunk in chunks.iter().filter(|c| !c.is_empty()) {
            shard.apply(chunk, measure)?;
        }
        Ok(())
    }

    #[test]
    fn ingest_stream_matches_one_shot_ingest() {
        let all = queries(15);
        let mut oracle = Shard::new();
        oracle.apply(&all, &TokenDistance).unwrap();
        let mut shard = Shard::new();
        let chunks: Vec<Vec<Query>> = vec![
            all[..4].to_vec(),
            Vec::new(),
            all[4..9].to_vec(),
            all[9..].to_vec(),
        ];
        apply_chunks(&mut shard, &chunks, &TokenDistance).unwrap();
        assert_eq!(shard.len(), 15);
        assert_eq!(shard.epoch(), 3, "one bump per non-empty chunk");
        assert!(shard.matrix().identical(oracle.matrix()));
    }

    #[test]
    fn ingest_stream_error_keeps_applied_prefix() {
        /// Token distance that errors after a fixed number of calls, so a
        /// later chunk of a stream fails while earlier ones succeed.
        struct FailAfter(std::cell::Cell<usize>);
        impl QueryDistance for FailAfter {
            fn distance(&self, a: &Query, b: &Query) -> Result<f64, dpe_distance::DistanceError> {
                if self.0.get() == 0 {
                    return Err(dpe_distance::DistanceError::MissingDomain("budget".into()));
                }
                self.0.set(self.0.get() - 1);
                TokenDistance.distance(a, b)
            }
            fn name(&self) -> &'static str {
                "fail-after"
            }
        }
        let all = queries(9);
        let mut shard = Shard::new();
        // Chunk 1 (5 items) costs 10 calls, chunk 2 (4 items on 5) costs
        // 26: a budget of 15 applies chunk 1 and fails inside chunk 2.
        let chunks = vec![all[..5].to_vec(), all[5..].to_vec()];
        let err =
            apply_chunks(&mut shard, &chunks, &FailAfter(std::cell::Cell::new(15))).unwrap_err();
        assert!(matches!(err, ServerError::Distance(_)));
        assert_eq!(shard.len(), 5, "the failing chunk changed nothing");
        assert_eq!(shard.epoch(), 1, "only the applied chunk bumped");
        let mut oracle = Shard::new();
        oracle.apply(&all[..5], &TokenDistance).unwrap();
        assert!(shard.matrix().identical(oracle.matrix()));
    }

    #[test]
    fn computing_cells_changes_nothing_and_commit_drops_the_plans() {
        let all = queries(12);
        let mut shard = Shard::new();
        shard.apply(&all[..6], &TokenDistance).unwrap();
        shard.enable_index();
        let cut = Request::Hierarchical {
            shard: 0,
            linkage: Linkage::Single,
            k: 2,
        };
        let plans = shard.plans();
        let mut metrics = ExecutionMetrics::default();
        exec::execute(
            &shard,
            0,
            &PhysicalPlan::compile(&cut),
            Some(plans),
            &mut metrics,
        )
        .unwrap();
        assert_eq!((metrics.plan_builds, shard.plans().live()), (1, 1));

        let before = shard.clone();
        let cells = shard
            .matrix()
            .extension(shard.queries(), &all[6..], &TokenDistance)
            .unwrap();
        assert_eq!(shard.queries(), before.queries());
        assert_eq!(shard.epoch(), before.epoch());
        assert!(shard.matrix().identical(before.matrix()));
        assert_eq!(shard.plans().live(), 1, "preparing keeps the plans");

        assert_eq!(shard.commit(&all[6..], cells), 1, "one plan dropped");
        assert_eq!(shard.epoch(), 2);
        assert_eq!(shard.plans().live(), 0);
        let oracle = DistanceMatrix::compute(&all, &TokenDistance).unwrap();
        assert!(shard.matrix().identical(&oracle));
        assert_eq!(shard.index().map(ShardIndex::len), Some(12));
        let after = answer(&shard, &cut).unwrap();
        let expect: Vec<i64> = agglomerative(&oracle, Linkage::Single)
            .cut(2)
            .into_iter()
            .map(|c| c as i64)
            .collect();
        assert!(after.bits_eq(&Response::Labels(expect)));
    }

    #[test]
    fn answers_agree_with_direct_mining_calls() {
        let mut shard = Shard::new();
        shard.apply(&queries(10), &TokenDistance).unwrap();
        let m = shard.matrix();

        let knn = answer(
            &shard,
            &Request::Knn {
                shard: 0,
                item: 3,
                k: 4,
            },
        )
        .unwrap();
        assert_eq!(knn, Response::Indices(knn_indices(m, 3, 4)));

        let range = answer(
            &shard,
            &Request::Range {
                shard: 0,
                item: 3,
                radius: 0.5,
            },
        )
        .unwrap();
        assert_eq!(range, Response::Indices(range_indices(m, 3, 0.5)));

        let scores = answer(
            &shard,
            &Request::Lof {
                shard: 0,
                min_pts: 3,
            },
        )
        .unwrap();
        assert!(scores.bits_eq(&Response::Scores(lof(m, LofConfig { min_pts: 3 }))));

        let out = answer(
            &shard,
            &Request::Outliers {
                shard: 0,
                p: 0.6,
                d: 0.4,
            },
        )
        .unwrap();
        assert_eq!(
            out,
            Response::Indices(db_outliers(m, OutlierConfig { p: 0.6, d: 0.4 }))
        );
    }

    #[test]
    fn clustering_answers_agree_with_direct_mining_calls() {
        let mut shard = Shard::new();
        shard.apply(&queries(10), &TokenDistance).unwrap();
        let m = shard.matrix();

        let db = answer(
            &shard,
            &Request::Dbscan {
                shard: 0,
                eps: 0.5,
                min_pts: 2,
            },
        )
        .unwrap();
        assert!(
            db.bits_eq(&Response::Labels(canonical_dbscan_labels(&dbscan(
                m,
                DbscanConfig {
                    eps: 0.5,
                    min_pts: 2,
                },
            ))))
        );

        let km = answer(&shard, &Request::KMedoids { shard: 0, k: 3 }).unwrap();
        let oracle = kmedoids(m, 3);
        assert!(km.bits_eq(&Response::Medoids {
            cost: oracle.cost(m),
            medoids: oracle.medoids,
            assignment: oracle.assignment,
        }));

        for linkage in [Linkage::Complete, Linkage::Single, Linkage::Average] {
            let cut = answer(
                &shard,
                &Request::Hierarchical {
                    shard: 0,
                    linkage,
                    k: 4,
                },
            )
            .unwrap();
            let expect: Vec<i64> = agglomerative(m, linkage)
                .cut(4)
                .into_iter()
                .map(|c| c as i64)
                .collect();
            assert!(cut.bits_eq(&Response::Labels(expect)), "{linkage:?}");
        }

        let fi = answer(
            &shard,
            &Request::FrequentItemsets {
                shard: 0,
                min_support: 3,
            },
        )
        .unwrap();
        match fi {
            Response::Itemsets(sets) => {
                assert!(!sets.is_empty(), "shared SELECT/FROM features recur");
                assert!(sets.iter().all(|(_, support)| *support >= 3));
            }
            other => panic!("expected itemsets, got {other:?}"),
        }
    }

    #[test]
    fn validation_turns_panics_into_errors() {
        let mut shard = Shard::new();
        shard.apply(&queries(4), &TokenDistance).unwrap();

        let oob = answer(
            &shard,
            &Request::Knn {
                shard: 2,
                item: 4,
                k: 1,
            },
        );
        assert_eq!(
            oob,
            Err(ServerError::ItemOutOfBounds {
                shard: 2,
                item: 4,
                len: 4
            })
        );

        for bad in [
            Request::Lof {
                shard: 0,
                min_pts: 0,
            },
            Request::Lof {
                shard: 0,
                min_pts: 4,
            },
            Request::Outliers {
                shard: 0,
                p: 1.5,
                d: 0.1,
            },
            Request::Range {
                shard: 0,
                item: 0,
                radius: f64::NAN,
            },
            Request::LofOutliers {
                shard: 0,
                min_pts: 2,
                threshold: f64::NAN,
            },
            Request::Outliers {
                shard: 0,
                p: 0.5,
                d: f64::NAN,
            },
            Request::Dbscan {
                shard: 0,
                eps: f64::NAN,
                min_pts: 2,
            },
            Request::Dbscan {
                shard: 0,
                eps: 0.5,
                min_pts: 0,
            },
            Request::KMedoids { shard: 0, k: 0 },
            Request::KMedoids { shard: 0, k: 5 },
            Request::Hierarchical {
                shard: 0,
                linkage: Linkage::Complete,
                k: 0,
            },
            Request::Hierarchical {
                shard: 0,
                linkage: Linkage::Average,
                k: 5,
            },
            Request::FrequentItemsets {
                shard: 0,
                min_support: 0,
            },
        ] {
            assert!(
                matches!(answer(&shard, &bad), Err(ServerError::BadRequest(_))),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn failed_ingest_leaves_shard_untouched() {
        struct Poison;
        impl QueryDistance for Poison {
            fn distance(&self, _: &Query, _: &Query) -> Result<f64, dpe_distance::DistanceError> {
                Err(dpe_distance::DistanceError::MissingDomain("poison".into()))
            }
            fn name(&self) -> &'static str {
                "poison"
            }
        }
        let mut shard = Shard::new();
        shard.apply(&queries(5), &TokenDistance).unwrap();
        let before = shard.clone();
        let err = shard.apply(&queries(3), &Poison).unwrap_err();
        assert!(matches!(err, ServerError::Distance(_)));
        assert_eq!(shard.len(), before.len());
        assert_eq!(shard.epoch(), before.epoch());
        assert!(shard.matrix().identical(before.matrix()));
    }
}
