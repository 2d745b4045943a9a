//! Property tests for the packed incremental matrix engine: for random
//! query sets, every construction path — sequential [`DistanceMatrix::compute`],
//! [`DistanceMatrix::compute_parallel`] at 1, 2 and 7 threads, a matrix
//! grown by [`DistanceMatrix::extend`] from a random split, and one grown
//! by [`DistanceMatrix::extend`] one query at a time — must produce
//! **bit-identical** matrices, all packed to exactly `n(n−1)/2` cells. A
//! measure that fails on one random pair fails every path with its error,
//! and a failed extend leaves the matrix as it was.

use dpe_distance::{
    DistanceError, DistanceMatrix, QueryDistance, StructureDistance, TokenDistance,
};
use dpe_sql::Query;
use dpe_workload::{LogConfig, LogGenerator};
use proptest::prelude::*;

fn log(seed: u64, n: usize) -> Vec<dpe_sql::Query> {
    LogGenerator::generate(&LogConfig {
        queries: n,
        seed,
        ..Default::default()
    })
}

/// Token distance, except on the one pair of renderings `a`, `b`.
struct FailOnPair {
    a: String,
    b: String,
}

impl QueryDistance for FailOnPair {
    fn distance(&self, x: &Query, y: &Query) -> Result<f64, DistanceError> {
        let (x_text, y_text) = (x.to_string(), y.to_string());
        if (x_text == self.a && y_text == self.b) || (x_text == self.b && y_text == self.a) {
            return Err(DistanceError::MissingDomain("poisoned pair".into()));
        }
        TokenDistance.distance(x, y)
    }

    fn name(&self) -> &'static str {
        "fail-on-pair"
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn all_construction_paths_are_bit_identical(
        seed in 0u64..10_000,
        n in 2usize..20,
        split_num in 0usize..100,
    ) {
        let queries = log(seed, n);
        let split = split_num * queries.len() / 100;

        let seq = DistanceMatrix::compute(&queries, &TokenDistance).unwrap();
        prop_assert_eq!(seq.packed_len(), queries.len() * (queries.len() - 1) / 2);

        for threads in [1usize, 2, 7] {
            let par =
                DistanceMatrix::compute_parallel(&queries, &TokenDistance, threads).unwrap();
            prop_assert!(seq.identical(&par), "parallel({}) diverged", threads);
        }

        let (head, tail) = queries.split_at(split);
        let mut extended = DistanceMatrix::compute(head, &TokenDistance).unwrap();
        extended.extend(head, tail, &TokenDistance).unwrap();
        prop_assert!(seq.identical(&extended), "extend at split {} diverged", split);

        let mut one_by_one = DistanceMatrix::new();
        for t in 0..queries.len() {
            one_by_one.extend(&queries[..t], &queries[t..t + 1], &TokenDistance).unwrap();
        }
        prop_assert!(seq.identical(&one_by_one), "one-by-one extend diverged");
    }

    #[test]
    fn structure_measure_paths_agree_too(seed in 0u64..10_000, n in 2usize..14) {
        let queries = log(seed, n);
        let seq = DistanceMatrix::compute(&queries, &StructureDistance).unwrap();
        let par = DistanceMatrix::compute_parallel(&queries, &StructureDistance, 7).unwrap();
        prop_assert!(seq.identical(&par));

        let (head, tail) = queries.split_at(queries.len() / 2);
        let mut extended = DistanceMatrix::compute(head, &StructureDistance).unwrap();
        extended.extend(head, tail, &StructureDistance).unwrap();
        prop_assert!(seq.identical(&extended));
    }

    #[test]
    fn a_failing_pair_fails_every_path_and_extend_rolls_back(
        seed in 0u64..10_000,
        n in 2usize..20,
        pick_j in 0usize..1_000,
        pick_i in 0usize..1_000,
        split_num in 0usize..100,
    ) {
        let queries = log(seed, n);
        let j = 1 + pick_j % (queries.len() - 1);
        let i = pick_i % j;
        let measure = FailOnPair {
            a: queries[i].to_string(),
            b: queries[j].to_string(),
        };
        let poison = DistanceError::MissingDomain("poisoned pair".into());

        for threads in [1usize, 2, 7] {
            let err = DistanceMatrix::compute_parallel(&queries, &measure, threads).unwrap_err();
            prop_assert_eq!(err, poison.clone(), "parallel({})", threads);
        }

        // Split before item j, so the poisoned pair is among the new ones.
        let (head, tail) = queries.split_at(split_num * j / 100);
        let mut m = DistanceMatrix::compute(head, &TokenDistance).unwrap();
        let before = m.clone();
        prop_assert_eq!(m.extend(head, tail, &measure).unwrap_err(), poison);
        prop_assert!(m.identical(&before), "failed extend changed the matrix");
        prop_assert_eq!(m.packed_len(), before.packed_len());
    }
}
