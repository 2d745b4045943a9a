//! Query-result distance: Jaccard over result tuple sets.
//!
//! "Query-result distance is the Jaccard distance of the tuples in the
//! results of the queries. Note that the result of a query depends on the
//! state of the database" — so this measure carries a reference to the
//! database (the *shared information* column of Table I: Log + DB-Content).
//!
//! ## Tuple identity across heterogeneous queries
//!
//! Tuples are compared **with their provenance** (the query's output
//! schema): `(objid = 3)` and `(COUNT(*) = 3)` are *different* result
//! tuples even though their raw value vectors coincide. The paper leaves
//! this implicit (its definition compares "the tuples in the results"),
//! but on mixed logs the raw-value reading makes Definition 1
//! unsatisfiable: an accidental numeric collision between a plaintext
//! aggregate output and a data value exists on the plaintext side, while
//! on the ciphertext side the data value is encrypted and the count is
//! not, so no encryption can reproduce the collision. Schema-tagged
//! comparison is the reading under which result equivalence (Definition 4)
//! composes with the high-level scheme — a reproduction finding recorded
//! in DESIGN.md §4b.

use crate::jaccard::jaccard_distance;
use crate::measure::{DistanceError, QueryDistance};
use dpe_minidb::{tagged_result_tuples, Database, Row};
use dpe_sql::Query;
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Result distance against a fixed database state.
pub struct ResultDistance<'db> {
    db: &'db Database,
}

impl<'db> ResultDistance<'db> {
    /// Binds the measure to a database.
    pub fn new(db: &'db Database) -> Self {
        ResultDistance { db }
    }
}

impl QueryDistance for ResultDistance<'_> {
    fn distance(&self, a: &Query, b: &Query) -> Result<f64, DistanceError> {
        let ta = tagged_result_tuples(self.db, a)?;
        let tb = tagged_result_tuples(self.db, b)?;
        Ok(jaccard_distance(&ta, &tb))
    }

    fn name(&self) -> &'static str {
        "result"
    }

    /// Jaccard over result-tuple sets: a true metric (for a fixed
    /// database state), so triangle-inequality index pruning is sound.
    fn is_metric(&self) -> bool {
        true
    }
}

/// An engine connection that executes queries against the database and
/// **memoizes each query's tagged result-tuple set**, so a query that
/// appears in many pairs of a matrix executes once, not once per pair.
/// The memo sits behind a `Mutex`, so one connection is `Sync` and is
/// shared by every worker of `DistanceMatrix::compute_parallel`: each
/// distinct query is memoized once per matrix. A miss executes the query
/// outside the lock, so workers never wait on each other's queries. The
/// memo-free [`ResultDistance`] is the reference it must match bit for bit.
pub struct ResultConnection<'db> {
    db: &'db Database,
    cache: Mutex<HashMap<String, TaggedTuples>>,
}

/// One query's schema-tagged result-tuple set, shared across cache hits.
type TaggedTuples = Arc<BTreeSet<(Vec<String>, Row)>>;

impl<'db> ResultConnection<'db> {
    /// Opens a connection with an empty result cache.
    pub fn new(db: &'db Database) -> Self {
        ResultConnection {
            db,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// The memo only ever gains whole entries, so a guard poisoned by a
    /// panicking worker still holds a valid map.
    fn memo(&self) -> MutexGuard<'_, HashMap<String, TaggedTuples>> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn tuples(&self, q: &Query) -> Result<TaggedTuples, DistanceError> {
        let key = q.to_string();
        if let Some(hit) = self.memo().get(&key).cloned() {
            return Ok(hit);
        }
        let tuples = Arc::new(tagged_result_tuples(self.db, q)?);
        Ok(Arc::clone(self.memo().entry(key).or_insert(tuples)))
    }

    /// Number of distinct queries executed (and memoized) so far.
    pub fn cached_queries(&self) -> usize {
        self.memo().len()
    }
}

impl QueryDistance for ResultConnection<'_> {
    fn distance(&self, a: &Query, b: &Query) -> Result<f64, DistanceError> {
        let ta = self.tuples(a)?;
        let tb = self.tuples(b)?;
        Ok(jaccard_distance(&ta, &tb))
    }

    fn name(&self) -> &'static str {
        "result"
    }

    /// Same Jaccard metric as [`ResultDistance`]; memoization does not
    /// change the values.
    fn is_metric(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpe_minidb::{ColumnType, TableSchema, Value};
    use dpe_sql::parse_query;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            "photoobj",
            vec![
                ("objid", ColumnType::Int),
                ("ra", ColumnType::Int),
                ("class", ColumnType::Str),
            ],
        ))
        .unwrap();
        for (id, ra, class) in [
            (1, 100, "STAR"),
            (2, 150, "GALAXY"),
            (3, 200, "STAR"),
            (4, 250, "QSO"),
        ] {
            db.insert(
                "photoobj",
                vec![Value::Int(id), Value::Int(ra), Value::Str(class.into())],
            )
            .unwrap();
        }
        db
    }

    fn d(db: &Database, a: &str, b: &str) -> f64 {
        ResultDistance::new(db)
            .distance(&parse_query(a).unwrap(), &parse_query(b).unwrap())
            .unwrap()
    }

    #[test]
    fn same_results_zero_even_for_different_text() {
        let db = db();
        // Different predicates selecting the same rows.
        assert_eq!(
            d(
                &db,
                "SELECT objid FROM photoobj WHERE ra < 160",
                "SELECT objid FROM photoobj WHERE objid IN (1, 2)"
            ),
            0.0
        );
    }

    #[test]
    fn disjoint_results_distance_one() {
        let db = db();
        assert_eq!(
            d(
                &db,
                "SELECT objid FROM photoobj WHERE ra < 120",
                "SELECT objid FROM photoobj WHERE ra > 220"
            ),
            1.0
        );
    }

    #[test]
    fn partial_overlap_exact_value() {
        let db = db();
        // {1,2,3} vs {2,3,4}: |∩| = 2, |∪| = 4 → 1/2.
        assert_eq!(
            d(
                &db,
                "SELECT objid FROM photoobj WHERE ra <= 200",
                "SELECT objid FROM photoobj WHERE ra >= 150"
            ),
            0.5
        );
    }

    #[test]
    fn depends_on_database_state() {
        let db1 = db();
        let mut db2 = db();
        db2.insert(
            "photoobj",
            vec![Value::Int(5), Value::Int(110), Value::Str("STAR".into())],
        )
        .unwrap();
        let a = "SELECT objid FROM photoobj WHERE ra < 120";
        let b = "SELECT objid FROM photoobj WHERE ra < 160";
        assert_ne!(d(&db1, a, b), d(&db2, a, b));
    }

    #[test]
    fn aggregate_output_never_collides_with_data_values() {
        // COUNT(*) over STARs is 2; objid 2 exists. Raw-value comparison
        // would see overlap {(2)} — provenance tagging must not.
        let db = db();
        assert_eq!(
            d(
                &db,
                "SELECT COUNT(*) FROM photoobj WHERE class = 'STAR'",
                "SELECT objid FROM photoobj"
            ),
            1.0
        );
    }

    #[test]
    fn same_schema_aggregates_do_compare() {
        let db = db();
        // Both count 2 rows → identical tagged tuple {(COUNT(*), 2)}.
        assert_eq!(
            d(
                &db,
                "SELECT COUNT(*) FROM photoobj WHERE class = 'STAR'",
                "SELECT COUNT(*) FROM photoobj WHERE ra < 160"
            ),
            0.0
        );
    }

    #[test]
    fn different_columns_are_disjoint_even_with_equal_values() {
        let db = db();
        // objid 1..4 vs ra 100.. — no value collision here anyway, but
        // pin the schema-tag semantics: SELECT objid vs SELECT ra over the
        // same rows is distance 1.
        assert_eq!(
            d(&db, "SELECT objid FROM photoobj", "SELECT ra FROM photoobj"),
            1.0
        );
    }

    /// One connection is shared by every parallel worker, so it must be
    /// `Sync`.
    const _: () = {
        const fn sync<T: Sync>() {}
        sync::<ResultConnection<'static>>()
    };

    #[test]
    fn parallel_factory_matches_sequential_bitwise() {
        let db = db();
        let distinct: Vec<_> = (0..12)
            .map(|i| {
                parse_query(&format!(
                    "SELECT objid FROM photoobj WHERE ra < {}",
                    90 + i * 15
                ))
                .unwrap()
            })
            .collect();
        // Repeats spread over every worker's rows: the shared memo must
        // still hold each distinct query once.
        let queries: Vec<_> = distinct.iter().chain(&distinct[..5]).cloned().collect();
        let seq = crate::DistanceMatrix::compute(&queries, &ResultDistance::new(&db)).unwrap();
        for threads in [1, 3, 8] {
            let conn = ResultConnection::new(&db);
            let par = crate::DistanceMatrix::compute_parallel(&queries, &conn, threads).unwrap();
            assert!(seq.identical(&par), "threads = {threads}");
            assert_eq!(
                conn.cached_queries(),
                distinct.len(),
                "threads = {threads}: one memo entry per distinct query"
            );
        }
    }

    #[test]
    fn connection_caches_each_query_once_and_stays_exact() {
        let db = db();
        let queries: Vec<_> = (0..9)
            .map(|i| {
                parse_query(&format!(
                    "SELECT objid FROM photoobj WHERE ra < {}",
                    90 + i * 20
                ))
                .unwrap()
            })
            .collect();
        let conn = ResultConnection::new(&db);
        let cached = crate::DistanceMatrix::compute(&queries, &conn).unwrap();
        // 9 distinct queries over 36 pairs: each executed exactly once.
        assert_eq!(conn.cached_queries(), 9);
        let uncached = crate::DistanceMatrix::compute(&queries, &ResultDistance::new(&db)).unwrap();
        assert!(
            cached.identical(&uncached),
            "memoization must not change a single bit"
        );
    }

    #[test]
    fn connection_propagates_execution_errors() {
        let db = db();
        let conn = ResultConnection::new(&db);
        let err = conn
            .distance(
                &parse_query("SELECT nope FROM photoobj").unwrap(),
                &parse_query("SELECT objid FROM photoobj").unwrap(),
            )
            .unwrap_err();
        assert!(matches!(err, DistanceError::Execution(_)));
    }

    #[test]
    fn execution_errors_propagate() {
        let db = db();
        let err = ResultDistance::new(&db)
            .distance(
                &parse_query("SELECT nope FROM photoobj").unwrap(),
                &parse_query("SELECT objid FROM photoobj").unwrap(),
            )
            .unwrap_err();
        assert!(matches!(err, DistanceError::Execution(_)));
    }
}
