//! The per-shard clustering plan cache.
//!
//! Agglomerative clustering is the one serving primitive whose expensive
//! artefact — the O(n³)-built [`Dendrogram`] — answers *many* distinct
//! requests: every `cut(k)` for any `k` reads the same merge list. Caching
//! finished responses alone would still rebuild the dendrogram once per
//! distinct `k`, so the engine caches the **plan** one level up: a
//! dendrogram is built once per *(shard, epoch, linkage)* and shared by
//! every subsequent `Hierarchical` request against that store version —
//! across requests in a batch, across batches, and across clients.
//!
//! Invalidation is lazy, exactly like the response cache's epoch keying: a
//! streaming ingest bumps the shard epoch, and the next plan lookup notices
//! the stored epoch is stale, drops the old dendrogram, and rebuilds
//! against the grown matrix. No invalidation scan ever runs on the ingest
//! path.

use dpe_mining::{Dendrogram, Linkage};
use std::sync::Arc;

/// Plan-cache counters, aggregated across shards by
/// [`crate::Server::stats`]. The amortization headline is
/// `hits / builds`: how many `cut(k)` answers each dendrogram build served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Dendrograms actually built (cache misses).
    pub builds: u64,
    /// Requests answered from an already-built plan.
    pub hits: u64,
    /// Plans dropped because their epoch went stale (lazy invalidation on
    /// first access after an ingest).
    pub invalidations: u64,
    /// Plans currently held.
    pub live: usize,
}

/// One shard's plans: at most one dendrogram per linkage rule, each pinned
/// to the shard epoch it was built against. The no-cache baseline
/// ([`crate::Server::serve_one_uncached`]) hands the executor a fresh one
/// per request, so it builds every dendrogram and leaves [`PlanStats`] alone.
#[derive(Debug, Default)]
pub(crate) struct PlanCache {
    /// Indexed by [`crate::request::linkage_tag`]; `(epoch, plan)`.
    slots: [Option<(u64, Arc<Dendrogram>)>; 3],
    builds: u64,
    hits: u64,
    invalidations: u64,
}

impl PlanCache {
    pub(crate) fn new() -> Self {
        PlanCache::default()
    }

    /// Returns the plan for `(epoch, linkage)`, building it with `build`
    /// on a miss. A slot holding a plan for an older epoch is dropped and
    /// counted as an invalidation — the lazy half of epoch invalidation.
    pub(crate) fn get_or_build(
        &mut self,
        epoch: u64,
        linkage: Linkage,
        build: impl FnOnce() -> Dendrogram,
    ) -> Arc<Dendrogram> {
        let slot = &mut self.slots[crate::request::linkage_tag(linkage)];
        if let Some((built_at, plan)) = slot {
            if *built_at == epoch {
                self.hits += 1;
                return Arc::clone(plan);
            }
            *slot = None;
            self.invalidations += 1;
        }
        let plan = Arc::new(build());
        self.builds += 1;
        *slot = Some((epoch, Arc::clone(&plan)));
        plan
    }

    /// Drops every held plan (counters keep accumulating) — the cold-plan
    /// bench configuration; epoch keying makes this unnecessary for
    /// correctness.
    pub(crate) fn clear(&mut self) {
        self.slots = Default::default();
    }

    /// Counter snapshot.
    pub(crate) fn stats(&self) -> PlanStats {
        PlanStats {
            builds: self.builds,
            hits: self.hits,
            invalidations: self.invalidations,
            live: self.slots.iter().filter(|s| s.is_some()).count(),
        }
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
        let mut cache = PlanCache::new();
        let mut builds = 0;
        for _ in 0..5 {
            let plan = cache.get_or_build(3, Linkage::Complete, || {
                builds += 1;
                plan_for(6, Linkage::Complete)
            });
            assert_eq!(plan.n, 6);
        }
        assert_eq!(builds, 1, "one dendrogram serves all five lookups");
        let stats = cache.stats();
        assert_eq!((stats.builds, stats.hits, stats.live), (1, 4, 1));
    }

    #[test]
    fn linkages_occupy_distinct_slots() {
        let mut cache = PlanCache::new();
        for linkage in [Linkage::Complete, Linkage::Single, Linkage::Average] {
            cache.get_or_build(0, linkage, || plan_for(5, linkage));
        }
        let stats = cache.stats();
        assert_eq!((stats.builds, stats.hits, stats.live), (3, 0, 3));
        // Re-reading any of the three hits its own slot.
        let single = cache.get_or_build(0, Linkage::Single, || unreachable!("must hit"));
        assert_eq!(single.digest(), plan_for(5, Linkage::Single).digest());
    }

    #[test]
    fn stale_epoch_invalidates_lazily() {
        let mut cache = PlanCache::new();
        let old = cache.get_or_build(1, Linkage::Complete, || plan_for(4, Linkage::Complete));
        // Epoch bumped (an ingest happened): the stored plan must NOT be
        // returned, whatever its content.
        let new = cache.get_or_build(2, Linkage::Complete, || plan_for(7, Linkage::Complete));
        assert_ne!(new.digest(), old.digest());
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.builds, 2);
        assert_eq!(stats.live, 1, "the stale plan is gone, not shadowed");
        // The rebuilt plan now serves its epoch.
        cache.get_or_build(2, Linkage::Complete, || unreachable!("must hit"));
        assert_eq!(cache.stats().hits, 1);
    }
}
