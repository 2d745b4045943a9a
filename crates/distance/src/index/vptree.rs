//! The vantage-point tree: exact kNN and range queries with
//! triangle-inequality pruning.
//!
//! Construction picks a deterministic pivot per node, computes the pivot's
//! distance to every item in its range, and splits at the median distance
//! `mu`: items with `d ≤ mu` form the inner child, the rest the outer
//! child. A query to anchor `q` descending through pivot `p` with
//! `d = d(q, p)` can then skip
//!
//! * the **inner** child when `d − mu > tau` (every inner item is within
//!   `mu` of `p`, so by the triangle inequality at distance `≥ d − mu`
//!   from `q`), and
//! * the **outer** child when `mu − d > tau` (every outer item is farther
//!   than `mu` from `p`, so at distance `> mu − d` from `q`),
//!
//! where `tau` is the current pruning radius (the query radius, or the
//! k-th best distance so far). Both comparisons are **strict**, so items
//! exactly on the boundary are always visited — that, plus breaking
//! distance ties on the lower index, is what keeps answers bit-identical
//! to the matrix paths.
//!
//! **NaN safety.** Prune conditions are written as positive comparisons
//! that are `false` on NaN, so a NaN anchor–pivot distance visits both
//! children, and a node whose build-time partition saw any NaN pivot
//! distance stores `mu = NaN`, making it permanently unprunable. An item
//! whose distance to the anchor is NaN sorts after every number (the
//! [NaN-last neighbour order]) and never qualifies for a range, so pruning
//! it early is always consistent with the matrix answer.
//!
//! **Streaming inserts** append to an overflow list scanned linearly by
//! every query (zero distance calls at insert time); once the overflow
//! outgrows half the built tree the index rebuilds, which keeps the
//! amortized maintenance cost at O(log n) distance calls per inserted item.
//!
//! [NaN-last neighbour order]: crate::nan_last_cmp

use super::{splitmix64, DistanceSource, QueryCounters};
use crate::{measure::DistanceError, nan_last_cmp};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Sentinel child id for "no child".
const NONE: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node {
    /// The pivot item.
    item: u32,
    /// Median pivot distance splitting inner from outer; NaN marks the
    /// node unprunable (its partition saw a NaN pivot distance).
    mu: f64,
    /// Items in this subtree (pivot included) — the pruning ledger.
    size: u32,
    inner: u32,
    outer: u32,
}

/// A vantage-point tree over a [`DistanceSource`]. Queries are **exact**:
/// bit-identical to sorting the full matrix row, for any source whose
/// finite distances satisfy the triangle inequality
/// ([`crate::QueryDistance::is_metric`]).
#[derive(Debug, Clone)]
pub struct VpTree {
    nodes: Vec<Node>,
    root: u32,
    /// Items covered by the tree structure; `built..len` is the overflow.
    built: usize,
    len: usize,
    rebuilds: u64,
}

/// A pending tree range during iterative construction: build
/// `items[lo..hi]` and patch the resulting node id into `parent`.
struct BuildJob {
    lo: usize,
    hi: usize,
    parent: u32,
    inner_child: bool,
}

/// Max-heap entry for the kNN frontier, ordered worst-first by
/// (NaN-last distance, index) — the exact matrix-path comparator.
#[derive(Debug, PartialEq)]
struct Cand {
    d: f64,
    item: u32,
}

impl Eq for Cand {}

impl Ord for Cand {
    fn cmp(&self, other: &Cand) -> Ordering {
        nan_last_cmp(self.d, other.d).then(self.item.cmp(&other.item))
    }
}

impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Cand) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl VpTree {
    /// Builds the tree over every item of `source` with O(n log n)
    /// expected distance evaluations.
    pub fn build<S: DistanceSource + ?Sized>(source: &S) -> Result<VpTree, DistanceError> {
        let n = source.len();
        let mut tree = VpTree {
            nodes: Vec::with_capacity(n),
            root: NONE,
            built: n,
            len: n,
            rebuilds: 0,
        };
        let mut items: Vec<u32> = (0..n as u32).collect();
        tree.root = tree.build_ranges(source, &mut items)?;
        Ok(tree)
    }

    /// Iterative construction over an explicit job stack — degenerate
    /// splits (e.g. all items equidistant from every pivot, common for
    /// Jaccard distance saturating at 1.0) must not overflow the call
    /// stack.
    fn build_ranges<S: DistanceSource + ?Sized>(
        &mut self,
        source: &S,
        items: &mut [u32],
    ) -> Result<u32, DistanceError> {
        let mut root = NONE;
        let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut jobs = vec![BuildJob {
            lo: 0,
            hi: items.len(),
            parent: NONE,
            inner_child: false,
        }];
        let mut rest: Vec<(u32, f64)> = Vec::new();
        while let Some(job) = jobs.pop() {
            if job.lo >= job.hi {
                continue;
            }
            let len = job.hi - job.lo;
            rng = splitmix64(rng);
            items.swap(job.lo, job.lo + (rng as usize) % len);
            let pivot = items[job.lo];

            rest.clear();
            for &it in &items[job.lo + 1..job.hi] {
                rest.push((it, source.distance(pivot as usize, it as usize)?));
            }
            let mut mu = f64::NAN;
            let mut inner_len = 0;
            if !rest.is_empty() {
                let mid = (rest.len() - 1) / 2;
                rest.select_nth_unstable_by(mid, |a, b| a.1.total_cmp(&b.1));
                mu = rest[mid].1;
                // Partition (total_cmp, so NaN distances land outer and
                // the node is marked unprunable): inner = d ≤ mu.
                let mut write = job.lo + 1;
                for &(it, d) in &rest {
                    if d.total_cmp(&mu) != Ordering::Greater {
                        items[write] = it;
                        write += 1;
                    }
                }
                inner_len = write - (job.lo + 1);
                for &(it, d) in &rest {
                    if d.total_cmp(&mu) == Ordering::Greater {
                        items[write] = it;
                        write += 1;
                    }
                }
                debug_assert_eq!(write, job.hi);
                if rest.iter().any(|&(_, d)| d.is_nan()) {
                    mu = f64::NAN;
                }
            }

            let id = self.nodes.len() as u32;
            self.nodes.push(Node {
                item: pivot,
                mu,
                size: len as u32,
                inner: NONE,
                outer: NONE,
            });
            if job.parent == NONE {
                root = id;
            } else {
                let parent = &mut self.nodes[job.parent as usize];
                if job.inner_child {
                    parent.inner = id;
                } else {
                    parent.outer = id;
                }
            }
            let inner_hi = job.lo + 1 + inner_len;
            jobs.push(BuildJob {
                lo: job.lo + 1,
                hi: inner_hi,
                parent: id,
                inner_child: true,
            });
            jobs.push(BuildJob {
                lo: inner_hi,
                hi: job.hi,
                parent: id,
                inner_child: false,
            });
        }
        Ok(root)
    }

    /// Items covered (tree plus overflow).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the index covers no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Items inside the tree structure proper.
    pub fn built_len(&self) -> usize {
        self.built
    }

    /// Appended items pending the next rebuild, scanned linearly per query.
    pub fn overflow_len(&self) -> usize {
        self.len - self.built
    }

    /// Full rebuilds performed by [`VpTree::absorb`] so far.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Extends coverage to `new_len` items with **zero** distance calls:
    /// items `len..new_len` join the overflow list. Use [`VpTree::absorb`]
    /// to also rebuild once the overflow justifies it.
    pub fn extend_to(&mut self, new_len: usize) {
        assert!(
            new_len >= self.len,
            "index covers {} items, cannot shrink to {new_len}",
            self.len
        );
        self.len = new_len;
    }

    /// `true` once the overflow outgrows half the built tree — the point
    /// where rebuilding keeps amortized maintenance at O(log n) distance
    /// calls per inserted item.
    pub fn needs_rebuild(&self) -> bool {
        self.overflow_len() > 8 + self.built / 2
    }

    /// Rebuilds the tree over all of `source`, folding the overflow in.
    pub fn rebuild<S: DistanceSource + ?Sized>(&mut self, source: &S) -> Result<(), DistanceError> {
        let mut fresh = VpTree::build(source)?;
        fresh.rebuilds = self.rebuilds + 1;
        *self = fresh;
        Ok(())
    }

    /// Streaming-insert maintenance: extends coverage to `source.len()`
    /// (the new items join the overflow) and rebuilds when
    /// [`VpTree::needs_rebuild`] says the overflow has outgrown the tree.
    pub fn absorb<S: DistanceSource + ?Sized>(&mut self, source: &S) -> Result<(), DistanceError> {
        self.extend_to(source.len());
        if self.needs_rebuild() {
            self.rebuild(source)?;
        }
        Ok(())
    }

    /// The `k` nearest neighbours of `item` (excluding `item`), closest
    /// first, distance ties broken on the lower index — bit-identical to
    /// sorting the full matrix row. Also returns the computed/pruned cell
    /// counters (`computed + pruned == len`).
    pub fn knn<S: DistanceSource + ?Sized>(
        &self,
        source: &S,
        item: usize,
        k: usize,
    ) -> Result<(Vec<usize>, QueryCounters), DistanceError> {
        assert!(
            item < self.len,
            "query item {item} out of bounds (len={})",
            self.len
        );
        let mut counters = QueryCounters::default();
        if k == 0 {
            counters.pruned = self.len as u64;
            return Ok((Vec::new(), counters));
        }
        // Worst-first heap of the best k so far; tau is its worst distance
        // once full (∞ while filling, or while the worst is NaN).
        let mut heap: BinaryHeap<Cand> = BinaryHeap::with_capacity(k.min(self.len) + 1);
        let tau = |heap: &BinaryHeap<Cand>| -> f64 {
            match heap.peek() {
                Some(worst) if heap.len() >= k && !worst.d.is_nan() => worst.d,
                _ => f64::INFINITY,
            }
        };
        let offer = |heap: &mut BinaryHeap<Cand>, d: f64, it: u32| {
            let cand = Cand { d, item: it };
            if heap.len() < k {
                heap.push(cand);
            } else if let Some(worst) = heap.peek() {
                if cand.cmp(worst) == Ordering::Less {
                    heap.pop();
                    heap.push(cand);
                }
            }
        };

        // (node, lower bound on any distance inside it); a bound is only
        // trusted to prune when strictly greater than tau — NaN bounds
        // fail that comparison and get visited.
        let mut stack: Vec<(u32, f64)> = Vec::new();
        if self.root != NONE {
            stack.push((self.root, f64::NEG_INFINITY));
        }
        while let Some((id, bound)) = stack.pop() {
            let node = &self.nodes[id as usize];
            if bound > tau(&heap) {
                counters.pruned += node.size as u64;
                continue;
            }
            let d = source.distance(item, node.item as usize)?;
            counters.computed += 1;
            if node.item as usize != item {
                offer(&mut heap, d, node.item);
            }
            // LIFO stack: push the far child first so the near child is
            // explored first and tightens tau before the far bound is
            // re-checked at pop time.
            let inner_bound = d - node.mu;
            let outer_bound = node.mu - d;
            let (far, far_bound, near, near_bound) = if d > node.mu {
                (node.inner, inner_bound, node.outer, outer_bound)
            } else {
                (node.outer, outer_bound, node.inner, inner_bound)
            };
            if far != NONE {
                stack.push((far, far_bound));
            }
            if near != NONE {
                stack.push((near, near_bound));
            }
        }
        for j in self.built..self.len {
            let d = source.distance(item, j)?;
            counters.computed += 1;
            if j != item {
                offer(&mut heap, d, j as u32);
            }
        }

        let mut winners: Vec<Cand> = heap.into_vec();
        winners.sort();
        Ok((
            winners.into_iter().map(|c| c.item as usize).collect(),
            counters,
        ))
    }

    /// Every item within `radius` of `item` (excluding `item`), ascending
    /// index — bit-identical to filtering the full matrix row. A NaN
    /// radius matches nothing, exactly like the matrix path.
    pub fn range<S: DistanceSource + ?Sized>(
        &self,
        source: &S,
        item: usize,
        radius: f64,
    ) -> Result<(Vec<usize>, QueryCounters), DistanceError> {
        assert!(
            item < self.len,
            "query item {item} out of bounds (len={})",
            self.len
        );
        let mut counters = QueryCounters::default();
        let mut hits: Vec<usize> = Vec::new();
        let mut stack: Vec<(u32, f64)> = Vec::new();
        if self.root != NONE {
            stack.push((self.root, f64::NEG_INFINITY));
        }
        while let Some((id, bound)) = stack.pop() {
            let node = &self.nodes[id as usize];
            if bound > radius {
                counters.pruned += node.size as u64;
                continue;
            }
            let d = source.distance(item, node.item as usize)?;
            counters.computed += 1;
            if node.item as usize != item && d <= radius {
                hits.push(node.item as usize);
            }
            if node.inner != NONE {
                stack.push((node.inner, d - node.mu));
            }
            if node.outer != NONE {
                stack.push((node.outer, node.mu - d));
            }
        }
        for j in self.built..self.len {
            let d = source.distance(item, j)?;
            counters.computed += 1;
            if j != item && d <= radius {
                hits.push(j);
            }
        }
        hits.sort_unstable();
        Ok((hits, counters))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::MatrixSource;
    use crate::matrix::DistanceMatrix;

    /// Points on a line: |pos[i] − pos[j]| is a metric with plenty of
    /// pruning structure.
    fn line_matrix(pos: &[f64]) -> DistanceMatrix {
        DistanceMatrix::from_fn(pos.len(), |i, j| (pos[i] - pos[j]).abs())
    }

    /// Brute-force kNN with the matrix-path comparator.
    fn brute_knn(m: &DistanceMatrix, i: usize, k: usize) -> Vec<usize> {
        let mut others: Vec<usize> = (0..m.len()).filter(|&j| j != i).collect();
        others.sort_by(|&a, &b| nan_last_cmp(m.get(i, a), m.get(i, b)).then(a.cmp(&b)));
        others.truncate(k);
        others
    }

    fn brute_range(m: &DistanceMatrix, i: usize, radius: f64) -> Vec<usize> {
        (0..m.len())
            .filter(|&j| j != i && m.get(i, j) <= radius)
            .collect()
    }

    fn positions(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (splitmix64(i as u64) % 10_000) as f64 / 100.0)
            .collect()
    }

    #[test]
    fn knn_matches_brute_force_for_every_anchor_and_k() {
        let m = line_matrix(&positions(37));
        let tree = VpTree::build(&MatrixSource(&m)).unwrap();
        for i in 0..m.len() {
            for k in [0, 1, 3, 10, 36, 100] {
                let (got, c) = tree.knn(&MatrixSource(&m), i, k).unwrap();
                assert_eq!(got, brute_knn(&m, i, k), "i={i} k={k}");
                assert_eq!(c.computed + c.pruned, m.len() as u64, "i={i} k={k}");
            }
        }
    }

    #[test]
    fn range_matches_brute_force_for_every_anchor() {
        let m = line_matrix(&positions(37));
        let tree = VpTree::build(&MatrixSource(&m)).unwrap();
        for i in 0..m.len() {
            for radius in [0.0, 5.0, 30.0, f64::INFINITY, f64::NAN] {
                let (got, c) = tree.range(&MatrixSource(&m), i, radius).unwrap();
                assert_eq!(got, brute_range(&m, i, radius), "i={i} r={radius}");
                assert_eq!(c.computed + c.pruned, m.len() as u64);
            }
        }
    }

    #[test]
    fn pruning_actually_happens_on_clustered_data() {
        // Two far-apart clusters: a small-radius query in one cluster must
        // never touch most of the other.
        let pos: Vec<f64> = (0..64)
            .map(|i| {
                if i % 2 == 0 {
                    i as f64
                } else {
                    10_000.0 + i as f64
                }
            })
            .collect();
        let m = line_matrix(&pos);
        let tree = VpTree::build(&MatrixSource(&m)).unwrap();
        let (_, c) = tree.range(&MatrixSource(&m), 0, 70.0).unwrap();
        assert!(c.pruned > 0, "clustered data must prune: {c:?}");
        let (_, c) = tree.knn(&MatrixSource(&m), 0, 3).unwrap();
        assert!(c.pruned > 0, "kNN on clustered data must prune: {c:?}");
    }

    #[test]
    fn equidistant_data_builds_without_stack_overflow() {
        // Jaccard-like saturation: every pair at distance 1.0 produces the
        // most degenerate splits possible (inner swallows everything).
        let m = DistanceMatrix::from_fn(3_000, |_, _| 1.0);
        let tree = VpTree::build(&MatrixSource(&m)).unwrap();
        let (got, _) = tree.knn(&MatrixSource(&m), 7, 5).unwrap();
        assert_eq!(got, brute_knn(&m, 7, 5), "ties break on index");
    }

    #[test]
    fn nan_poisoned_distances_stay_bit_identical() {
        // A metric except for a few NaN-poisoned symmetric pairs: NaN
        // anchors sort last / never qualify on both paths.
        let pos = positions(25);
        let m = DistanceMatrix::from_fn(25, |i, j| {
            if splitmix64((i.min(j) * 100 + i.max(j)) as u64).is_multiple_of(5) {
                f64::NAN
            } else {
                (pos[i] - pos[j]).abs()
            }
        });
        let tree = VpTree::build(&MatrixSource(&m)).unwrap();
        for i in 0..25 {
            for k in [2, 8, 24] {
                let (got, _) = tree.knn(&MatrixSource(&m), i, k).unwrap();
                assert_eq!(got, brute_knn(&m, i, k), "i={i} k={k}");
            }
            let (got, _) = tree.range(&MatrixSource(&m), i, 20.0).unwrap();
            assert_eq!(got, brute_range(&m, i, 20.0), "i={i}");
        }
    }

    #[test]
    fn absorb_covers_appends_and_rebuilds_when_overflow_outgrows_tree() {
        let pos = positions(60);
        let m_small = line_matrix(&pos[..20]);
        let mut tree = VpTree::build(&MatrixSource(&m_small)).unwrap();
        assert_eq!((tree.built_len(), tree.overflow_len()), (20, 0));

        // A small append stays in overflow (zero distance calls)...
        let m_mid = line_matrix(&pos[..24]);
        tree.absorb(&MatrixSource(&m_mid)).unwrap();
        assert_eq!((tree.built_len(), tree.overflow_len()), (20, 4));
        assert_eq!(tree.rebuilds(), 0);
        for i in 0..24 {
            let (got, _) = tree.knn(&MatrixSource(&m_mid), i, 6).unwrap();
            assert_eq!(got, brute_knn(&m_mid, i, 6), "overflow i={i}");
        }

        // ...while a large one triggers the rebuild.
        let m_big = line_matrix(&pos);
        tree.absorb(&MatrixSource(&m_big)).unwrap();
        assert_eq!((tree.built_len(), tree.overflow_len()), (60, 0));
        assert_eq!(tree.rebuilds(), 1);
        for i in 0..60 {
            let (got, _) = tree.knn(&MatrixSource(&m_big), i, 6).unwrap();
            assert_eq!(got, brute_knn(&m_big, i, 6), "rebuilt i={i}");
        }
    }

    #[test]
    fn empty_and_singleton_sources() {
        let empty = DistanceMatrix::default();
        let tree = VpTree::build(&MatrixSource(&empty)).unwrap();
        assert!(tree.is_empty());

        let one = line_matrix(&[3.0]);
        let tree = VpTree::build(&MatrixSource(&one)).unwrap();
        let (got, c) = tree.knn(&MatrixSource(&one), 0, 5).unwrap();
        assert!(got.is_empty());
        assert_eq!(c.computed, 1, "the anchor's own node is still visited");
        let (got, _) = tree.range(&MatrixSource(&one), 0, 1.0).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_anchor_panics() {
        let m = line_matrix(&positions(5));
        let tree = VpTree::build(&MatrixSource(&m)).unwrap();
        let _ = tree.knn(&MatrixSource(&m), 9, 1);
    }
}
