//! One shard's clustering plans.
//!
//! Agglomerative clustering is the one serving primitive whose expensive
//! artefact — the O(n³)-built [`Dendrogram`] — answers *many* distinct
//! requests: every `cut(k)` for any `k` reads the same merge list. Caching
//! finished responses alone would still rebuild the dendrogram once per
//! distinct `k`, so each shard keeps the **plan** one level up: a
//! dendrogram is built on the first `Hierarchical` request for its linkage
//! and shared by every later one against the same store — across requests
//! in a batch, across batches, and across clients.
//!
//! The plans live on the [`crate::Shard`] and the ingest commit drops them
//! under the shard's write lock, so a plan always describes the store that
//! holds it and no epoch bookkeeping is needed.

use dpe_mining::{Dendrogram, Linkage};
use std::sync::OnceLock;

/// Plan counters, aggregated across shards by [`crate::Server::stats`].
/// The amortization headline is `hits / builds`: how many `cut(k)` answers
/// each dendrogram build served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Dendrograms actually built (plan misses).
    pub builds: u64,
    /// Requests answered from an already-built plan.
    pub hits: u64,
    /// Plans dropped by ingest commits.
    pub invalidations: u64,
    /// Plans currently held.
    pub live: usize,
}

/// One shard's plans: at most one dendrogram per linkage rule, indexed by
/// [`crate::request::linkage_tag`]. Readers fill a slot through `&self`;
/// a second reader wanting a plan that is being built waits for it and
/// then hits instead of burning another O(n³) build.
#[derive(Debug, Clone, Default)]
pub(crate) struct Plans([OnceLock<Dendrogram>; 3]);

impl Plans {
    /// The plan for `linkage`, built with `build` when the slot is empty,
    /// and whether this call built it.
    pub(crate) fn get_or_build(
        &self,
        linkage: Linkage,
        build: impl FnOnce() -> Dendrogram,
    ) -> (&Dendrogram, bool) {
        let mut built = false;
        let plan = self.0[crate::request::linkage_tag(linkage)].get_or_init(|| {
            built = true;
            build()
        });
        (plan, built)
    }

    /// Drops every plan, returning how many were held.
    pub(crate) fn clear(&mut self) -> u64 {
        let live = self.live() as u64;
        *self = Plans::default();
        live
    }

    /// Plans currently held.
    pub(crate) fn live(&self) -> usize {
        self.0.iter().filter(|slot| slot.get().is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpe_distance::DistanceMatrix;
    use dpe_mining::agglomerative;

    fn plan_for(n: usize, linkage: Linkage) -> Dendrogram {
        let m = DistanceMatrix::from_fn(n, |i, j| ((i * 3 + j * 7) % 11) as f64 + 0.5);
        agglomerative(&m, linkage)
    }

    #[test]
    fn second_lookup_is_a_hit_not_a_build() {
        let plans = Plans::default();
        let mut builds = 0;
        for _ in 0..5 {
            let (plan, _) = plans.get_or_build(Linkage::Complete, || {
                builds += 1;
                plan_for(6, Linkage::Complete)
            });
            assert_eq!(plan.n, 6);
        }
        assert_eq!(builds, 1, "one dendrogram serves all five lookups");
        assert_eq!(plans.live(), 1);
    }

    #[test]
    fn linkages_occupy_distinct_slots() {
        let plans = Plans::default();
        for linkage in [Linkage::Complete, Linkage::Single, Linkage::Average] {
            let (_, built) = plans.get_or_build(linkage, || plan_for(5, linkage));
            assert!(built, "{linkage:?}");
        }
        assert_eq!(plans.live(), 3);
        // Re-reading any of the three hits its own slot.
        let (single, built) = plans.get_or_build(Linkage::Single, || unreachable!("must hit"));
        assert!(!built);
        assert_eq!(single.digest(), plan_for(5, Linkage::Single).digest());
    }

    #[test]
    fn clear_drops_every_plan_and_the_next_lookup_rebuilds() {
        let mut plans = Plans::default();
        let (old, _) = plans.get_or_build(Linkage::Complete, || plan_for(4, Linkage::Complete));
        let old = old.digest();
        plans.get_or_build(Linkage::Average, || plan_for(4, Linkage::Average));
        assert_eq!(plans.clear(), 2, "both held plans dropped");
        assert_eq!(plans.live(), 0);
        assert_eq!(plans.clear(), 0, "nothing left to drop");
        // The store grew (a commit cleared the slot): the old plan must
        // NOT come back, whatever its content.
        let (new, built) = plans.get_or_build(Linkage::Complete, || plan_for(7, Linkage::Complete));
        assert!(built);
        assert_ne!(new.digest(), old);
    }
}
