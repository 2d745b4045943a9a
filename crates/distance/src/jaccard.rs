//! The Jaccard set distance `1 − |A ∩ B| / |A ∪ B|`.

use std::cmp::Ordering;
use std::collections::BTreeSet;

/// Jaccard distance between two sets.
///
/// Both-empty is defined as distance `0` (identical queries should be at
/// distance zero even when their characteristic sets are empty).
///
/// The result is the exact rational `1 − i/u` evaluated in `f64`; since `i`
/// and `u` are small integers, equal inputs produce bit-equal outputs — the
/// property the DPE verifier depends on.
pub fn jaccard_distance<T: Ord>(a: &BTreeSet<T>, b: &BTreeSet<T>) -> f64 {
    from_counts(a.len(), b.len(), a.intersection(b).count())
}

/// [`jaccard_distance`] over two sorted, deduplicated slices, by one merge
/// pass; the same arithmetic, so equal sets give bit-equal results.
pub fn jaccard_distance_sorted<T: Ord>(a: &[T], b: &[T]) -> f64 {
    let (mut i, mut j, mut intersection) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                intersection += 1;
                i += 1;
                j += 1;
            }
        }
    }
    from_counts(a.len(), b.len(), intersection)
}

fn from_counts(a: usize, b: usize, intersection: usize) -> f64 {
    if a == 0 && b == 0 {
        return 0.0;
    }
    let union = a + b - intersection;
    1.0 - intersection as f64 / union as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(items: &[&str]) -> BTreeSet<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn identical_sets_distance_zero() {
        let a = set(&["x", "y"]);
        assert_eq!(jaccard_distance(&a, &a), 0.0);
    }

    #[test]
    fn disjoint_sets_distance_one() {
        assert_eq!(jaccard_distance(&set(&["a"]), &set(&["b"])), 1.0);
    }

    #[test]
    fn half_overlap() {
        // |∩| = 1, |∪| = 3 → 1 − 1/3 = 2/3.
        let d = jaccard_distance(&set(&["a", "b"]), &set(&["b", "c"]));
        assert_eq!(d, 1.0 - 1.0 / 3.0);
    }

    #[test]
    fn both_empty_is_zero() {
        let e: BTreeSet<String> = BTreeSet::new();
        assert_eq!(jaccard_distance(&e, &e), 0.0);
    }

    #[test]
    fn empty_vs_nonempty_is_one() {
        let e: BTreeSet<String> = BTreeSet::new();
        assert_eq!(jaccard_distance(&e, &set(&["a"])), 1.0);
    }

    #[test]
    fn symmetry_and_bounds() {
        let a = set(&["1", "2", "3"]);
        let b = set(&["3", "4"]);
        assert_eq!(jaccard_distance(&a, &b), jaccard_distance(&b, &a));
        let d = jaccard_distance(&a, &b);
        assert!((0.0..=1.0).contains(&d));
    }

    #[test]
    fn sorted_slices_match_sets_bitwise() {
        let sets = [
            set(&[]),
            set(&["a"]),
            set(&["a", "b"]),
            set(&["b", "c", "d"]),
            set(&["a", "c", "e", "g"]),
        ];
        for a in &sets {
            for b in &sets {
                let (va, vb): (Vec<_>, Vec<_>) = (a.iter().collect(), b.iter().collect());
                assert_eq!(
                    jaccard_distance_sorted(&va, &vb).to_bits(),
                    jaccard_distance(a, b).to_bits(),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn subset_distance() {
        // |∩| = 2, |∪| = 3 → 1/3.
        let d = jaccard_distance(&set(&["a", "b"]), &set(&["a", "b", "c"]));
        assert_eq!(d, 1.0 - 2.0 / 3.0);
    }
}
