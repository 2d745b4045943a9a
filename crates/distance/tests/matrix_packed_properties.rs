//! Property tests for the packed incremental matrix engine: for random
//! query sets, every construction path — sequential [`DistanceMatrix::compute`],
//! [`DistanceMatrix::compute_parallel`] at 1, 2 and 7 threads, a matrix
//! grown by [`DistanceMatrix::extend`] from a random split, and one grown
//! by [`DistanceMatrix::extend`] one query at a time — must produce
//! **bit-identical** matrices, all packed to exactly `n(n−1)/2` cells.

use dpe_distance::{DistanceMatrix, StructureDistance, TokenDistance};
use dpe_workload::{LogConfig, LogGenerator};
use proptest::prelude::*;

fn log(seed: u64, n: usize) -> Vec<dpe_sql::Query> {
    LogGenerator::generate(&LogConfig {
        queries: n,
        seed,
        ..Default::default()
    })
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
}
