//! `TokenDistance` computes Definition 3 by walking the two ASTs; these
//! tests pin it, bit for bit, to the Jaccard distance of the token sets
//! lexed from the canonical renderings (the text oracle).

use dpe_distance::{jaccard_distance, QueryDistance, TokenDistance};
use dpe_sql::tokens::token_set_of_text;
use dpe_sql::{parse_query, query_tokens, ColumnRef, Query, SelectItem};
use dpe_workload::{LogConfig, LogGenerator};
use proptest::prelude::*;

fn relex_jaccard(a: &Query, b: &Query) -> f64 {
    let lexed = |q: &Query| token_set_of_text(&q.to_string()).unwrap();
    jaccard_distance(&lexed(a), &lexed(b))
}

fn assert_bits_match(queries: &[Query]) {
    for a in queries {
        for b in queries {
            assert_eq!(
                TokenDistance.distance(a, b).unwrap().to_bits(),
                relex_jaccard(a, b).to_bits(),
                "{a}  vs  {b}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn token_distance_bits_equal_relex_jaccard(seed in any::<u64>()) {
        let log = LogGenerator::generate(&LogConfig {
            queries: 24,
            seed,
            ..Default::default()
        });
        for q in &log {
            prop_assert!(query_tokens(q).is_some(), "generated query fell back: {}", q);
        }
        assert_bits_match(&log);
    }
}

#[test]
fn pairs_with_a_fallback_side_match_the_oracle() {
    let parsed = |sql: &str| parse_query(sql).unwrap();
    let mut upper = parsed("SELECT ra FROM photoobj WHERE dec > 5");
    upper
        .select
        .push(SelectItem::Column(ColumnRef::bare("Dec")));
    let mut keyword = parsed("SELECT ra, z FROM photoobj WHERE z IN (1, 2)");
    keyword.group_by.push(ColumnRef::bare("count"));
    let queries = [
        parsed("SELECT ra FROM photoobj WHERE dec > 5"),
        parsed("SELECT ra, dec FROM photoobj WHERE dec > 5 AND NOT (z = 1 OR z = 2)"),
        parsed("SELECT COUNT(*) FROM specobj WHERE class = 'STAR' GROUP BY z LIMIT 10"),
        upper,
        keyword,
    ];
    assert!(query_tokens(&queries[3]).is_none() && query_tokens(&queries[4]).is_none());
    assert_bits_match(&queries);
}
