//! Apriori association-rule mining over transactions.
//!
//! The paper's conclusion points out that "result equivalence for SQL
//! queries is also useful for association-rule mining over encrypted SQL
//! logs \[17\]": treating each query's characteristic set (features, accessed
//! attributes, result tuples) as a *transaction*, frequent itemsets and
//! rules are functions of set equalities only — so any c-equivalent
//! encryption preserves them up to item renaming. The
//! `association_rules_encrypted` integration test exercises exactly that.
//!
//! Level-wise Apriori (Agrawal & Srikant) in its vertical, tidset form
//! (Zaki's Eclat): items are interned to ids in ascending item order, each
//! id gets a bitset over the transactions, and a candidate's support is the
//! popcount of the AND of its two parents' bitsets. Because ids follow item
//! order, the itemsets, supports and output order are those of the
//! classic horizontal algorithm.

use std::collections::BTreeSet;

/// A transaction: a set of items.
pub type Transaction<T> = BTreeSet<T>;

/// A frequent itemset with its absolute support count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequentItemset<T: Ord> {
    /// The items.
    pub items: BTreeSet<T>,
    /// Number of transactions containing all of them.
    pub support: usize,
}

/// An association rule `antecedent ⇒ consequent`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule<T: Ord> {
    /// Left-hand side (non-empty).
    pub antecedent: BTreeSet<T>,
    /// Right-hand side (non-empty, disjoint from the antecedent).
    pub consequent: BTreeSet<T>,
    /// Support of antecedent ∪ consequent (absolute count).
    pub support: usize,
    /// Confidence = support(A ∪ C) / support(A).
    pub confidence: f64,
}

/// Mines all frequent itemsets with `support ≥ min_support` (absolute
/// count, ≥ 1). Returns them ordered by (size, items).
pub fn frequent_itemsets<T: Ord + Clone>(
    transactions: &[Transaction<T>],
    min_support: usize,
) -> Vec<FrequentItemset<T>> {
    let (items, tidsets) = intern(transactions);
    mine(&tidsets, min_support)
        .into_iter()
        .map(|(ids, support)| FrequentItemset {
            items: ids.iter().map(|&id| items[id as usize].clone()).collect(),
            support,
        })
        .collect()
}

/// [`frequent_itemsets`] over transactions already interned to item ids:
/// each transaction lists its ids, in any order, repeats allowed. Returns
/// each frequent itemset as its ascending ids with its support, ordered by
/// (size, ids) — so a caller whose ids follow its item order gets the
/// order [`frequent_itemsets`] gives over the items themselves. Each id
/// up to the largest gets a bitset, so ids should be dense.
pub fn frequent_id_itemsets(
    transactions: &[Vec<u32>],
    min_support: usize,
) -> Vec<(Vec<u32>, usize)> {
    let items = transactions
        .iter()
        .flatten()
        .max()
        .map_or(0, |&id| id as usize + 1);
    let tidsets = Tidsets::new(
        items,
        transactions.iter().map(|t| t.iter().map(|&id| id as usize)),
    );
    mine(&tidsets, min_support)
}

/// One bitset per item id over the transactions: bit `r` of item `i`'s
/// row is set when transaction `r` holds `i`.
struct Tidsets {
    items: usize,
    words: usize,
    bits: Vec<u64>,
}

impl Tidsets {
    fn new<I: IntoIterator<Item = usize>>(
        items: usize,
        transactions: impl ExactSizeIterator<Item = I>,
    ) -> Tidsets {
        let words = transactions.len().div_ceil(64);
        let mut bits = vec![0; items * words];
        for (r, ids) in transactions.enumerate() {
            for id in ids {
                bits[id * words + r / 64] |= 1 << (r % 64);
            }
        }
        Tidsets { items, words, bits }
    }

    fn row(&self, id: usize) -> &[u64] {
        &self.bits[id * self.words..][..self.words]
    }

    /// Transactions holding every one of `ids` (non-empty).
    fn support(&self, ids: &[usize]) -> usize {
        (0..self.words)
            .map(|w| {
                ids.iter()
                    .fold(!0u64, |acc, &id| acc & self.row(id)[w])
                    .count_ones() as usize
            })
            .sum()
    }
}

fn popcount(bits: &[u64]) -> usize {
    bits.iter().map(|w| w.count_ones() as usize).sum()
}

/// Interns the distinct items in ascending order, so id order is item
/// order, and builds their tidsets.
fn intern<T: Ord>(transactions: &[Transaction<T>]) -> (Vec<&T>, Tidsets) {
    let mut items: Vec<&T> = transactions.iter().flatten().collect();
    items.sort_unstable();
    items.dedup();
    let tidsets = Tidsets::new(
        items.len(),
        transactions.iter().map(|t| {
            t.iter()
                .map(|item| items.binary_search(&item).expect("interned above"))
        }),
    );
    (items, tidsets)
}

/// The miner: level k + 1 joins two frequent k-itemsets that share their
/// first k − 1 ids, keeps the candidate only if each of its other k-subsets
/// is in level k (binary search: levels are sorted), and takes its support
/// from the AND of the two parents' bitsets. Levels come out sorted by
/// construction, so the result is in (size, ids) order.
fn mine(tidsets: &Tidsets, min_support: usize) -> Vec<(Vec<u32>, usize)> {
    assert!(min_support >= 1, "min_support must be at least 1");
    let words = tidsets.words;
    let mut found: Vec<(Vec<u32>, usize)> = Vec::new();
    let mut level_bits: Vec<u64> = Vec::new();
    for id in 0..tidsets.items {
        let row = tidsets.row(id);
        let support = popcount(row);
        if support >= min_support {
            let id = u32::try_from(id).expect("item ids fit in u32");
            found.push((vec![id], support));
            level_bits.extend_from_slice(row);
        }
    }

    let mut level = 0..found.len();
    let (mut candidate, mut subset) = (Vec::new(), Vec::new());
    while !level.is_empty() {
        let sets = &found[level.clone()];
        let k = sets[0].0.len();
        let mut next = Vec::new();
        let mut next_bits = Vec::new();
        for (i, (a, _)) in sets.iter().enumerate() {
            for (j, (b, _)) in sets.iter().enumerate().skip(i + 1) {
                if a[..k - 1] != b[..k - 1] {
                    break;
                }
                candidate.clear();
                candidate.extend_from_slice(a);
                candidate.push(b[k - 1]);
                // Downward closure prunes ANDs; it cannot change the
                // result, as support is exact and anti-monotone. Dropping
                // either of the last two ids gives a parent, so only the
                // other k − 1 subsets are looked up.
                let closed = (0..k - 1).all(|drop| {
                    subset.clear();
                    subset.extend_from_slice(&candidate[..drop]);
                    subset.extend_from_slice(&candidate[drop + 1..]);
                    sets.binary_search_by(|(s, _)| s.as_slice().cmp(&subset))
                        .is_ok()
                });
                if !closed {
                    continue;
                }
                let start = next_bits.len();
                let (x, y) = (
                    &level_bits[i * words..][..words],
                    &level_bits[j * words..][..words],
                );
                next_bits.extend(x.iter().zip(y).map(|(x, y)| x & y));
                let support = popcount(&next_bits[start..]);
                if support >= min_support {
                    next.push((candidate.clone(), support));
                } else {
                    next_bits.truncate(start);
                }
            }
        }
        let start = found.len();
        found.extend(next);
        level = start..found.len();
        level_bits = next_bits;
    }
    found
}

/// Generates all rules with `confidence ≥ min_confidence` from the frequent
/// itemsets (single-consequent rules, the common Apriori output).
pub fn association_rules<T: Ord + Clone>(
    transactions: &[Transaction<T>],
    itemsets: &[FrequentItemset<T>],
    min_confidence: f64,
) -> Vec<Rule<T>> {
    assert!((0.0..=1.0).contains(&min_confidence));
    let (items, tidsets) = intern(transactions);
    let mut rules = Vec::new();
    for fi in itemsets.iter().filter(|fi| fi.items.len() >= 2) {
        for consequent_item in &fi.items {
            let mut antecedent = fi.items.clone();
            antecedent.remove(consequent_item);
            // An item no transaction holds gives support 0.
            let Some(ids) = antecedent
                .iter()
                .map(|item| items.binary_search(&item).ok())
                .collect::<Option<Vec<usize>>>()
            else {
                continue;
            };
            let antecedent_support = tidsets.support(&ids);
            if antecedent_support == 0 {
                continue;
            }
            let confidence = fi.support as f64 / antecedent_support as f64;
            if confidence >= min_confidence {
                let mut consequent = BTreeSet::new();
                consequent.insert(consequent_item.clone());
                rules.push(Rule {
                    antecedent,
                    consequent,
                    support: fi.support,
                    confidence,
                });
            }
        }
    }
    rules.sort_by(|a, b| {
        b.confidence
            .total_cmp(&a.confidence)
            .then(b.support.cmp(&a.support))
            .then(a.antecedent.cmp(&b.antecedent))
    });
    rules
}

/// The *shape* of a rule set: (antecedent size, consequent size, support,
/// confidence bits) per rule — invariant under any item renaming, which is
/// what an encrypted mining run must reproduce exactly.
pub fn rule_shape<T: Ord>(rules: &[Rule<T>]) -> Vec<(usize, usize, usize, u64)> {
    let mut shape: Vec<_> = rules
        .iter()
        .map(|r| {
            (
                r.antecedent.len(),
                r.consequent.len(),
                r.support,
                r.confidence.to_bits(),
            )
        })
        .collect();
    shape.sort_unstable();
    shape
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(items: &[&str]) -> Transaction<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    /// The textbook market-basket example.
    fn baskets() -> Vec<Transaction<String>> {
        vec![
            t(&["bread", "milk"]),
            t(&["bread", "diapers", "beer", "eggs"]),
            t(&["milk", "diapers", "beer", "cola"]),
            t(&["bread", "milk", "diapers", "beer"]),
            t(&["bread", "milk", "diapers", "cola"]),
        ]
    }

    #[test]
    fn frequent_singletons() {
        let fi = frequent_itemsets(&baskets(), 3);
        let singles: Vec<_> = fi
            .iter()
            .filter(|f| f.items.len() == 1)
            .map(|f| (f.items.iter().next().unwrap().clone(), f.support))
            .collect();
        assert!(singles.contains(&("bread".into(), 4)));
        assert!(singles.contains(&("milk".into(), 4)));
        assert!(singles.contains(&("diapers".into(), 4)));
        assert!(singles.contains(&("beer".into(), 3)));
        assert!(!singles.iter().any(|(i, _)| i == "cola")); // support 2 < 3
    }

    #[test]
    fn frequent_pairs_via_downward_closure() {
        let fi = frequent_itemsets(&baskets(), 3);
        let pair: BTreeSet<String> = t(&["beer", "diapers"]);
        let found = fi
            .iter()
            .find(|f| f.items == pair)
            .expect("beer+diapers is frequent");
        assert_eq!(found.support, 3);
    }

    #[test]
    fn rules_have_correct_confidence() {
        let fi = frequent_itemsets(&baskets(), 3);
        let rules = association_rules(&baskets(), &fi, 0.7);
        // {beer} ⇒ {diapers}: support 3, antecedent support 3 → confidence 1.
        let rule = rules
            .iter()
            .find(|r| r.antecedent == t(&["beer"]) && r.consequent == t(&["diapers"]))
            .expect("beer ⇒ diapers");
        assert_eq!(rule.confidence, 1.0);
        assert_eq!(rule.support, 3);
        // All reported rules meet the threshold.
        assert!(rules.iter().all(|r| r.confidence >= 0.7));
    }

    #[test]
    fn min_support_monotone() {
        let lo = frequent_itemsets(&baskets(), 2);
        let hi = frequent_itemsets(&baskets(), 4);
        assert!(hi.len() < lo.len());
        // Every itemset frequent at the high threshold is frequent at the low.
        for f in &hi {
            assert!(lo.iter().any(|g| g.items == f.items));
        }
    }

    #[test]
    fn renaming_items_preserves_rule_shape() {
        // The DPE argument in miniature: a bijective item renaming (what a
        // DET encryption does to feature sets) keeps supports/confidences.
        let plain = baskets();
        let renamed: Vec<Transaction<String>> = plain
            .iter()
            .map(|tx| tx.iter().map(|i| format!("enc_{i}")).collect())
            .collect();
        let fi_p = frequent_itemsets(&plain, 3);
        let fi_e = frequent_itemsets(&renamed, 3);
        let rules_p = association_rules(&plain, &fi_p, 0.6);
        let rules_e = association_rules(&renamed, &fi_e, 0.6);
        assert_eq!(rule_shape(&rules_p), rule_shape(&rules_e));
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let none: Vec<Transaction<String>> = Vec::new();
        assert!(frequent_itemsets(&none, 1).is_empty());
        let one = vec![t(&["a"])];
        let fi = frequent_itemsets(&one, 1);
        assert_eq!(fi.len(), 1);
        assert!(association_rules(&one, &fi, 0.5).is_empty());
    }

    #[test]
    #[should_panic(expected = "min_support")]
    fn zero_support_panics() {
        frequent_itemsets(&baskets(), 0);
    }
}
