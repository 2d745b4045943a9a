//! Agglomerative hierarchical clustering over a distance matrix.
//!
//! Complete link is the method of Defays' CLINK (the paper's reference
//! \[3\]); single link (SLINK's criterion) and average link (UPGMA) are the
//! other two classic linkage rules, included because they too are pure
//! functions of the pairwise distances — so a DPE-encrypted log dendrogram
//! is *identical* to the plaintext one under any of them (the
//! `mining_invariance` tests pin this down per linkage).
//!
//! Implemented as exact O(n³) agglomeration, ample for query-log sizes;
//! merge ties break deterministically on the smaller cluster ids so plain
//! and encrypted runs cannot diverge on equal distances.

use dpe_distance::DistanceMatrix;

/// Linkage criterion: how the distance between two clusters is derived
/// from item pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Linkage {
    /// Farthest pair (CLINK \[3\]) — the paper's cited method.
    #[default]
    Complete,
    /// Closest pair (SLINK) — chains through dense regions.
    Single,
    /// Unweighted mean over all cross pairs (UPGMA).
    Average,
}

impl Linkage {
    /// Human-readable name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            Linkage::Complete => "complete",
            Linkage::Single => "single",
            Linkage::Average => "average",
        }
    }
}

/// One merge step of the dendrogram.
#[derive(Debug, Clone, PartialEq)]
pub struct Merge {
    /// First merged cluster id.
    pub a: usize,
    /// Second merged cluster id (`a < b` by construction).
    pub b: usize,
    /// Linkage distance at which the merge happened.
    pub distance: f64,
    /// Id of the newly formed cluster (`n + step`).
    pub id: usize,
}

/// A dendrogram over `n` leaves.
///
/// Leaves are clusters `0..n`; merge `s` creates cluster `n + s`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dendrogram {
    /// Number of leaves.
    pub n: usize,
    /// Merges in order of increasing distance (ties: lower cluster ids
    /// first), length `n - 1` for non-empty inputs.
    pub merges: Vec<Merge>,
}

impl Dendrogram {
    /// Serializes the dendrogram to a canonical byte string: `n` as a
    /// little-endian `u64`, then per merge `(a, b, id, distance bits)` as
    /// four little-endian `u64`s. Two dendrograms serialize identically iff
    /// they are bit-identical (distances compare on their bit patterns), so
    /// the byte string — or its [`Dendrogram::digest`] — is a sound
    /// fingerprint for plan caching.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 32 * self.merges.len());
        out.extend_from_slice(&(self.n as u64).to_le_bytes());
        for m in &self.merges {
            out.extend_from_slice(&(m.a as u64).to_le_bytes());
            out.extend_from_slice(&(m.b as u64).to_le_bytes());
            out.extend_from_slice(&(m.id as u64).to_le_bytes());
            out.extend_from_slice(&m.distance.to_bits().to_le_bytes());
        }
        out
    }

    /// Inverse of [`Dendrogram::to_bytes`]. Returns `None` on truncated or
    /// trailing input (the encoding is fixed-width) and on structurally
    /// invalid dendrograms — exactly `n − 1` merges, each with
    /// `a < b < id = n + step` — so a parsed value upholds every invariant
    /// [`Dendrogram::cut`] indexes by (no panics or bogus cluster counts
    /// from hostile bytes).
    pub fn from_bytes(bytes: &[u8]) -> Option<Dendrogram> {
        let mut take = {
            let mut rest = bytes;
            move || -> Option<u64> {
                let (chunk, tail) = rest.split_first_chunk::<8>()?;
                rest = tail;
                Some(u64::from_le_bytes(*chunk))
            }
        };
        if bytes.len() < 8 || !(bytes.len() - 8).is_multiple_of(32) {
            return None;
        }
        let n = take()? as usize;
        let merges = (0..(bytes.len() - 8) / 32)
            .map(|_| {
                Some(Merge {
                    a: take()? as usize,
                    b: take()? as usize,
                    id: take()? as usize,
                    distance: f64::from_bits(take()?),
                })
            })
            .collect::<Option<Vec<Merge>>>()?;
        if merges.len() != n.saturating_sub(1) {
            return None;
        }
        for (step, m) in merges.iter().enumerate() {
            if !(m.a < m.b && m.b < m.id && m.id == n + step) {
                return None;
            }
        }
        Some(Dendrogram { n, merges })
    }

    /// FNV-1a hash of the canonical serialization — the compact plan
    /// fingerprint the serving layer's cache statistics and regression
    /// tests pin warm-vs-cold plan identity with.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        for byte in self.to_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }

    /// Cuts the dendrogram into exactly `k` clusters and returns per-leaf
    /// assignments with cluster ids renumbered `0..k` in order of their
    /// smallest leaf.
    pub fn cut(&self, k: usize) -> Vec<usize> {
        assert!(k >= 1 && k <= self.n.max(1), "k must be in 1..=n");
        // Apply the first n - k merges with a union-find.
        let total = self.n + self.merges.len();
        let mut parent: Vec<usize> = (0..total).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        for merge in self.merges.iter().take(self.n - k) {
            let ra = find(&mut parent, merge.a);
            let rb = find(&mut parent, merge.b);
            parent[ra] = merge.id;
            parent[rb] = merge.id;
        }
        // Renumber roots by smallest member leaf.
        let mut label = vec![usize::MAX; total];
        let mut next = 0;
        (0..self.n)
            .map(|i| {
                let root = find(&mut parent, i);
                if label[root] == usize::MAX {
                    label[root] = next;
                    next += 1;
                }
                label[root]
            })
            .collect()
    }
}

/// Builds the dendrogram under the given linkage rule.
pub fn agglomerative(matrix: &DistanceMatrix, linkage: Linkage) -> Dendrogram {
    let n = matrix.len();
    // Active clusters: id → member leaves.
    let mut members: Vec<Option<Vec<usize>>> = (0..n).map(|i| Some(vec![i])).collect();
    let mut active: Vec<usize> = (0..n).collect();
    let mut merges = Vec::with_capacity(n.saturating_sub(1));

    let cluster_dist = |ma: &[usize], mb: &[usize]| -> f64 {
        match linkage {
            Linkage::Complete => {
                let mut worst: f64 = 0.0;
                for &x in ma {
                    for &y in mb {
                        worst = worst.max(matrix.get(x, y));
                    }
                }
                worst
            }
            Linkage::Single => {
                let mut best = f64::INFINITY;
                for &x in ma {
                    for &y in mb {
                        best = best.min(matrix.get(x, y));
                    }
                }
                best
            }
            Linkage::Average => {
                let mut sum = 0.0;
                for &x in ma {
                    for &y in mb {
                        sum += matrix.get(x, y);
                    }
                }
                sum / (ma.len() * mb.len()) as f64
            }
        }
    };

    while active.len() > 1 {
        // Find the closest active pair; ties break on (a, b) order.
        let mut best = (f64::INFINITY, usize::MAX, usize::MAX);
        for i in 0..active.len() {
            for j in i + 1..active.len() {
                let (a, b) = (active[i], active[j]);
                let d = cluster_dist(members[a].as_ref().unwrap(), members[b].as_ref().unwrap());
                if d < best.0 {
                    best = (d, a, b);
                }
            }
        }
        let (distance, a, b) = best;
        let id = members.len();
        let mut merged = members[a].take().unwrap();
        merged.extend(members[b].take().unwrap());
        merged.sort_unstable();
        members.push(Some(merged));
        active.retain(|&c| c != a && c != b);
        active.push(id);
        merges.push(Merge { a, b, distance, id });
    }

    Dendrogram { n, merges }
}

/// Builds the complete-link dendrogram (Defays \[3\]).
pub fn complete_link(matrix: &DistanceMatrix) -> Dendrogram {
    agglomerative(matrix, Linkage::Complete)
}

/// Builds the single-link dendrogram (SLINK criterion).
pub fn single_link(matrix: &DistanceMatrix) -> Dendrogram {
    agglomerative(matrix, Linkage::Single)
}

/// Builds the average-link (UPGMA) dendrogram.
pub fn average_link(matrix: &DistanceMatrix) -> Dendrogram {
    agglomerative(matrix, Linkage::Average)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> DistanceMatrix {
        // Items on a line at positions 0, 1, 2, 10, 11, 12.
        let pos: [f64; 6] = [0.0, 1.0, 2.0, 10.0, 11.0, 12.0];
        DistanceMatrix::from_fn(6, |i, j| (pos[i] - pos[j]).abs())
    }

    #[test]
    fn merge_count() {
        let d = complete_link(&chain());
        assert_eq!(d.merges.len(), 5);
        assert_eq!(d.n, 6);
    }

    #[test]
    fn cut_two_recovers_blobs() {
        for linkage in [Linkage::Complete, Linkage::Single, Linkage::Average] {
            let d = agglomerative(&chain(), linkage);
            let cut = d.cut(2);
            assert_eq!(cut[0], cut[1], "{linkage:?}");
            assert_eq!(cut[1], cut[2], "{linkage:?}");
            assert_eq!(cut[3], cut[4], "{linkage:?}");
            assert_eq!(cut[4], cut[5], "{linkage:?}");
            assert_ne!(cut[0], cut[3], "{linkage:?}");
            // Renumbering: first cluster (containing leaf 0) gets id 0.
            assert_eq!(cut[0], 0, "{linkage:?}");
        }
    }

    #[test]
    fn cut_extremes() {
        let d = complete_link(&chain());
        assert!(d.cut(1).iter().all(|&c| c == 0));
        assert_eq!(d.cut(6), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn merge_distances_are_complete_link() {
        let d = complete_link(&chain());
        // First merges happen at distance 1 (adjacent points).
        assert_eq!(d.merges[0].distance, 1.0);
        // The final merge spans the full chain: complete-link distance 12.
        assert_eq!(d.merges.last().unwrap().distance, 12.0);
    }

    #[test]
    fn single_link_final_merge_is_blob_gap() {
        // {0,1,2} vs {3,4,5}: the closest cross pair is 2 ↔ 10 at 8.
        let d = single_link(&chain());
        assert_eq!(d.merges.last().unwrap().distance, 8.0);
    }

    #[test]
    fn average_link_between_single_and_complete() {
        let s = single_link(&chain()).merges.last().unwrap().distance;
        let a = average_link(&chain()).merges.last().unwrap().distance;
        let c = complete_link(&chain()).merges.last().unwrap().distance;
        assert!(s < a && a < c, "expected {s} < {a} < {c}");
        // UPGMA over the two 3-blobs: mean of |pi - pj| for the 9 cross
        // pairs = 10 exactly (positions are symmetric around the gap).
        assert!((a - 10.0).abs() < 1e-12);
    }

    #[test]
    fn single_link_chains_where_complete_splits() {
        // A chain of equidistant points: single link happily grows one
        // cluster; complete link's merge heights grow with diameter.
        let pos: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let m = DistanceMatrix::from_fn(8, |i, j| (pos[i] - pos[j]).abs());
        let s = single_link(&m);
        let c = complete_link(&m);
        // All single-link merges happen at distance 1.
        assert!(s.merges.iter().all(|mg| mg.distance == 1.0));
        // Complete-link's last merge is the full diameter.
        assert_eq!(c.merges.last().unwrap().distance, 7.0);
    }

    #[test]
    fn complete_link_exceeds_single_link() {
        // {0,1,2} vs {3,4,5}: single-link 8, complete-link 12 — the merge
        // records the complete-link value.
        let d = complete_link(&chain());
        let last = d.merges.last().unwrap();
        assert!(last.distance > 8.0);
    }

    #[test]
    fn deterministic() {
        let m = DistanceMatrix::from_fn(12, |i, j| ((i * 5 + j * 3) % 11) as f64 + 0.5);
        for linkage in [Linkage::Complete, Linkage::Single, Linkage::Average] {
            assert_eq!(agglomerative(&m, linkage), agglomerative(&m, linkage));
        }
    }

    #[test]
    fn serialization_round_trips_bit_exactly() {
        for linkage in [Linkage::Complete, Linkage::Single, Linkage::Average] {
            let d = agglomerative(&chain(), linkage);
            let bytes = d.to_bytes();
            assert_eq!(bytes.len(), 8 + 32 * d.merges.len());
            let back = Dendrogram::from_bytes(&bytes).unwrap();
            assert_eq!(back, d, "{linkage:?}");
            assert_eq!(back.digest(), d.digest());
        }
    }

    #[test]
    fn from_bytes_rejects_truncation_and_trailing_garbage() {
        let d = complete_link(&chain());
        let bytes = d.to_bytes();
        assert!(Dendrogram::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        assert!(Dendrogram::from_bytes(&bytes[..7]).is_none());
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(Dendrogram::from_bytes(&padded).is_none());
        assert!(Dendrogram::from_bytes(&[]).is_none());
    }

    #[test]
    fn from_bytes_rejects_structurally_invalid_dendrograms() {
        // Well-formed length, hostile content: a `cut` on any of these
        // would otherwise panic or report the wrong cluster count.
        let encode = |n: u64, merges: &[(u64, u64, u64)]| -> Vec<u8> {
            let mut out = n.to_le_bytes().to_vec();
            for &(a, b, id) in merges {
                for v in [a, b, id, 1.0f64.to_bits()] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            out
        };
        // Merge count must be exactly n − 1.
        assert!(Dendrogram::from_bytes(&encode(5, &[])).is_none());
        assert!(Dendrogram::from_bytes(&encode(u64::MAX, &[])).is_none());
        // Operand ids out of range / misordered / wrong new-cluster id.
        assert!(Dendrogram::from_bytes(&encode(2, &[(1000, 1001, 1002)])).is_none());
        assert!(Dendrogram::from_bytes(&encode(2, &[(1, 0, 2)])).is_none());
        assert!(Dendrogram::from_bytes(&encode(2, &[(0, 1, 7)])).is_none());
        // The minimal valid two-leaf dendrogram still parses.
        assert!(Dendrogram::from_bytes(&encode(2, &[(0, 1, 2)])).is_some());
    }

    #[test]
    fn digest_separates_linkages_and_distance_bits() {
        let complete = complete_link(&chain()).digest();
        let single = single_link(&chain()).digest();
        assert_ne!(complete, single);
        // One ulp on one merge distance must change the fingerprint.
        let mut d = complete_link(&chain());
        d.merges[0].distance = f64::from_bits(d.merges[0].distance.to_bits() + 1);
        assert_ne!(d.digest(), complete);
    }

    #[test]
    fn empty_and_singleton_dendrograms_serialize() {
        for n in [0usize, 1] {
            let m = DistanceMatrix::from_fn(n, |_, _| 0.0);
            let d = complete_link(&m);
            assert!(d.merges.is_empty());
            let back = Dendrogram::from_bytes(&d.to_bytes()).unwrap();
            assert_eq!(back, d);
        }
    }

    #[test]
    fn linkage_names() {
        assert_eq!(Linkage::Complete.name(), "complete");
        assert_eq!(Linkage::Single.name(), "single");
        assert_eq!(Linkage::Average.name(), "average");
        assert_eq!(Linkage::default(), Linkage::Complete);
    }
}
