//! Identity oracle for the frequent-itemset miner.
//!
//! `frequent_itemsets` interns items to ids in item order and mines over
//! per-item transaction bitsets. It must return exactly what the classic
//! level-wise algorithm over `BTreeSet`s returns (the reference in
//! `level_wise/`): the same itemsets, the same supports, in the same
//! order, at every `min_support` in `1..=n + 1`. Small universes are also
//! checked against brute-force subset enumeration. Inputs cover random,
//! duplicate-heavy and empty transactions, empty input, transaction counts
//! on both sides of the 64-bit word boundaries, and more than 64 distinct
//! items, for `T = String` and `T = u32`. `frequent_id_itemsets` (the
//! pre-interned entry) and `association_rules` are pinned the same way.

mod level_wise;

use dpe_mining::apriori::{
    association_rules, frequent_id_itemsets, frequent_itemsets, FrequentItemset, Rule, Transaction,
};
use std::collections::BTreeSet;
use std::fmt::Debug;

/// splitmix64: a fixed, dependency-free stream for the generated inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// `n` transactions over items `0..universe`, each item present with
/// probability `percent`%.
fn random_log(seed: u64, n: usize, universe: u32, percent: u64) -> Vec<Transaction<u32>> {
    let mut rng = Rng(seed);
    (0..n)
        .map(|_| (0..universe).filter(|_| rng.below(100) < percent).collect())
        .collect()
}

/// The same log with items renamed to strings whose order differs from
/// the numbers' (`"f10" < "f2"`).
fn as_strings(log: &[Transaction<u32>]) -> Vec<Transaction<String>> {
    log.iter()
        .map(|t| t.iter().map(|i| format!("f{i}")).collect())
        .collect()
}

/// Every non-empty subset of the universe with its support, sorted by
/// (size, items). Only for universes of at most 16 items.
fn brute_force<T: Ord + Clone>(log: &[Transaction<T>]) -> Vec<FrequentItemset<T>> {
    let universe: Vec<T> = log
        .iter()
        .flatten()
        .cloned()
        .collect::<BTreeSet<T>>()
        .into_iter()
        .collect();
    assert!(
        universe.len() <= 16,
        "brute force over a small universe only"
    );
    let mut all: Vec<FrequentItemset<T>> = (1u32..1 << universe.len())
        .map(|mask| {
            let items: BTreeSet<T> = (0..universe.len())
                .filter(|b| mask >> b & 1 == 1)
                .map(|b| universe[b].clone())
                .collect();
            let support = log.iter().filter(|t| items.is_subset(t)).count();
            FrequentItemset { items, support }
        })
        .collect();
    all.sort_by(|a, b| {
        a.items
            .len()
            .cmp(&b.items.len())
            .then(a.items.cmp(&b.items))
    });
    all
}

/// Single-consequent rules as the level-wise reference counted them: the
/// antecedent's support by a subset scan over every transaction.
fn reference_rules<T: Ord + Clone>(
    transactions: &[Transaction<T>],
    itemsets: &[FrequentItemset<T>],
    min_confidence: f64,
) -> Vec<Rule<T>> {
    let mut rules = Vec::new();
    for fi in itemsets.iter().filter(|fi| fi.items.len() >= 2) {
        for consequent_item in &fi.items {
            let mut antecedent = fi.items.clone();
            antecedent.remove(consequent_item);
            let antecedent_support = level_wise::count_support(transactions, &antecedent);
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

/// Rules compared field by field, confidences by their bits.
fn rule_bits<T: Ord + Clone>(rules: &[Rule<T>]) -> Vec<(BTreeSet<T>, BTreeSet<T>, usize, u64)> {
    rules
        .iter()
        .map(|r| {
            let (a, c) = (r.antecedent.clone(), r.consequent.clone());
            (a, c, r.support, r.confidence.to_bits())
        })
        .collect()
}

/// Checks the miner against the reference at every support in `1..=n + 1`,
/// and against brute force when `brute` is set. The id entry is fed the
/// same log interned by hand, with each transaction's ids reversed and its
/// first id repeated; its output, mapped back, must be the same. Rules are
/// compared at every fourth support.
fn check<T: Ord + Clone + Debug>(log: &[Transaction<T>], brute: bool) {
    let universe: Vec<&T> = log
        .iter()
        .flatten()
        .collect::<BTreeSet<&T>>()
        .into_iter()
        .collect();
    let ids: Vec<Vec<u32>> = log
        .iter()
        .map(|t| {
            let mut ids: Vec<u32> = t
                .iter()
                .map(|x| universe.binary_search(&x).unwrap() as u32)
                .rev()
                .collect();
            if let Some(&first) = ids.first() {
                ids.push(first);
            }
            ids
        })
        .collect();
    let all = brute.then(|| brute_force(log));
    for min_support in 1..=log.len() + 1 {
        let got = frequent_itemsets(log, min_support);
        let want = level_wise::frequent_itemsets(log, min_support);
        assert_eq!(got, want, "min_support {min_support} on {log:?}");
        if let Some(all) = &all {
            let frequent: Vec<_> = all
                .iter()
                .filter(|f| f.support >= min_support)
                .cloned()
                .collect();
            assert_eq!(got, frequent, "brute force, min_support {min_support}");
        }
        let by_id: Vec<FrequentItemset<T>> = frequent_id_itemsets(&ids, min_support)
            .into_iter()
            .map(|(ids, support)| FrequentItemset {
                items: ids
                    .iter()
                    .map(|&id| universe[id as usize].clone())
                    .collect(),
                support,
            })
            .collect();
        assert_eq!(by_id, want, "id entry, min_support {min_support}");
        if min_support % 4 == 1 {
            for min_confidence in [0.0, 0.5, 0.8, 1.0] {
                assert_eq!(
                    rule_bits(&association_rules(log, &got, min_confidence)),
                    rule_bits(&reference_rules(log, &want, min_confidence)),
                    "rules, min_support {min_support}, min_confidence {min_confidence}"
                );
            }
        }
    }
}

fn check_both(log: &[Transaction<u32>], brute: bool) {
    check(log, brute);
    check(&as_strings(log), brute);
}

#[test]
fn random_logs_match_reference_and_brute_force() {
    for seed in 0..12 {
        let n = [1, 5, 20, 40][seed as usize % 4];
        check_both(&random_log(seed, n, 11, 30), true);
    }
}

#[test]
fn duplicate_heavy_logs_match() {
    let base = random_log(7, 3, 9, 50);
    let log: Vec<_> = (0..40).map(|i| base[i % 3].clone()).collect();
    check_both(&log, true);
    // One transaction repeated: every subset of it has support n.
    let one: Vec<Transaction<u32>> = vec![(0..6).collect(); 17];
    check_both(&one, true);
}

#[test]
fn empty_transactions_and_empty_input_match() {
    check_both(&[], true);
    check_both(&vec![Transaction::new(); 5], true);
    let mut log = random_log(3, 30, 8, 40);
    for t in log.iter_mut().step_by(2) {
        t.clear();
    }
    check_both(&log, true);
}

#[test]
fn word_boundary_counts_match() {
    for (seed, n) in [63, 64, 65, 128, 129].into_iter().enumerate() {
        // Item 0 sits in every transaction, item 1 in none but the last,
        // so the last bit of the last word decides their supports.
        let mut log = random_log(100 + seed as u64, n, 8, 35);
        for t in &mut log {
            t.insert(0);
            t.remove(&1);
        }
        log[n - 1].insert(1);
        check_both(&log, true);
    }
}

#[test]
fn more_than_64_distinct_items_match() {
    let mut rng = Rng(0xA5);
    let log: Vec<Transaction<u32>> = (0..70)
        .map(|_| {
            // A few shared hubs for deeper itemsets, plus sparse items from
            // a universe of 100.
            let mut t: Transaction<u32> = (0..3).filter(|_| rng.below(2) == 0).collect();
            t.extend((0..2).map(|_| 3 + rng.below(97) as u32));
            t
        })
        .collect();
    assert!(log.iter().flatten().collect::<BTreeSet<_>>().len() > 64);
    check_both(&log, false);
}
