//! The level-wise Apriori reference that `dpe_mining::frequent_itemsets`
//! must reproduce: the classic horizontal algorithm over `BTreeSet`s
//! (Agrawal & Srikant). Candidates are unions of two frequent
//! (k−1)-itemsets, pruned by downward closure, counted by a subset scan
//! over every transaction. Shared by `apriori_oracle` and the server's
//! `clustering_oracle`; no serving path reaches it.

use dpe_mining::apriori::{FrequentItemset, Transaction};
use std::collections::{BTreeMap, BTreeSet};

/// Mines all frequent itemsets with `support ≥ min_support` (absolute
/// count, ≥ 1). Returns them ordered by (size, items).
pub fn frequent_itemsets<T: Ord + Clone>(
    transactions: &[Transaction<T>],
    min_support: usize,
) -> Vec<FrequentItemset<T>> {
    assert!(min_support >= 1, "min_support must be at least 1");
    let mut result: Vec<FrequentItemset<T>> = Vec::new();

    // Level 1: frequent single items.
    let mut counts: BTreeMap<&T, usize> = BTreeMap::new();
    for t in transactions {
        for item in t {
            *counts.entry(item).or_default() += 1;
        }
    }
    let mut current: Vec<BTreeSet<T>> = counts
        .iter()
        .filter(|(_, &c)| c >= min_support)
        .map(|(item, _)| {
            let mut s = BTreeSet::new();
            s.insert((*item).clone());
            s
        })
        .collect();
    for itemset in &current {
        let support = count_support(transactions, itemset);
        result.push(FrequentItemset {
            items: itemset.clone(),
            support,
        });
    }

    // Level k: join frequent (k−1)-itemsets sharing a (k−2)-prefix.
    while !current.is_empty() {
        let mut candidates: BTreeSet<BTreeSet<T>> = BTreeSet::new();
        for i in 0..current.len() {
            for j in i + 1..current.len() {
                let union: BTreeSet<T> = current[i].union(&current[j]).cloned().collect();
                if union.len() != current[i].len() + 1 {
                    continue;
                }
                // Downward closure: every (k−1)-subset must be frequent.
                let all_subsets_frequent = union.iter().all(|drop| {
                    let mut sub = union.clone();
                    sub.remove(drop);
                    current.contains(&sub)
                });
                if all_subsets_frequent {
                    candidates.insert(union);
                }
            }
        }
        let mut next = Vec::new();
        for candidate in candidates {
            let support = count_support(transactions, &candidate);
            if support >= min_support {
                result.push(FrequentItemset {
                    items: candidate.clone(),
                    support,
                });
                next.push(candidate);
            }
        }
        current = next;
    }

    result.sort_by(|a, b| {
        a.items
            .len()
            .cmp(&b.items.len())
            .then(a.items.cmp(&b.items))
    });
    result
}

pub fn count_support<T: Ord>(transactions: &[Transaction<T>], itemset: &BTreeSet<T>) -> usize {
    transactions.iter().filter(|t| itemset.is_subset(t)).count()
}
