//! The encrypted-SQL front door.
//!
//! A shard's pairwise distances can be *viewed* as a relational table: one
//! row per ordered pair `(item, anchor)` carrying the distance between
//! them. [`SqlTable`] registers such a virtual "pairs" table against a
//! shard, and [`Server::sql`] answers a SELECT subset over it by lowering
//! the query onto the same [`PlanOp`] algebra every other request compiles
//! to — one execution path, one cache, one metrics stream:
//!
//! ```sql
//! SELECT item FROM pairs
//! WHERE anchor = 3 AND dist <= 4602891378046628709
//! ORDER BY dist LIMIT 2
//! ```
//!
//! becomes `Scan → FilterRange{3, r} → Knn{3, 2} → Project(Items)`.
//!
//! Distances are stored as their **order-preserving integer image**
//! ([`dist_literal`]): for non-negative `f64`s, `to_bits() as i64` is
//! monotone, so integer comparisons in SQL agree exactly with float
//! comparisons in the executor — no epsilon anywhere. That exactness is
//! what lets the differential suite pin `Server::sql` bit-identical to
//! [`dpe_minidb`] executing the same SELECT over the materialized mirror
//! ([`Server::plaintext_mirror`]).
//!
//! Under the paper's threat model the *identifiers* of such a query are
//! sensitive but the distances are provider-visible, so the onion story is:
//! encrypt table/column names with `dpe_cryptdb::IdentRewriter` (DET
//! identifiers), register the binding under the encrypted names, and send
//! constants in the clear. The server never learns the plaintext schema.

use crate::exec::{PlanOp, Projection};
use crate::request::{Request, Response, ServerError};
use crate::server::Server;
use dpe_distance::QueryDistance;
use dpe_minidb::{ColumnType, Database, TableSchema, Value};
use dpe_sql::analysis::conjuncts;
use dpe_sql::{parse_query, ColumnRef, CompareOp, Expr, Literal, Query, SelectItem};

/// Binding of a virtual "pairs" table onto one shard: the table name (as
/// queried — typically a DET-encrypted identifier) plus the three column
/// spellings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqlTable {
    /// Table name as it appears in queries.
    pub table: String,
    /// Shard whose distance matrix backs the table.
    pub shard: usize,
    /// Column holding the non-anchor item index (the SELECT output).
    pub item_col: String,
    /// Column holding the anchor item index (`WHERE anchor = i`).
    pub anchor_col: String,
    /// Column holding the pair's distance as [`dist_literal`] bits.
    pub dist_col: String,
}

/// The order-preserving integer image of a non-negative distance: for
/// `0.0 <= d`, `d.to_bits() as i64` is monotone and injective, so `<=` on
/// the images agrees exactly with `<=` on the distances.
pub fn dist_literal(d: f64) -> i64 {
    d.to_bits() as i64
}

/// Inverse of [`dist_literal`] as a filter radius. Negative images sit
/// below every distance (always-false radius); images in the NaN bit-range
/// sit above every real distance (always-true radius).
fn radius_from_bits(bits: i64) -> f64 {
    if bits < 0 {
        return -1.0;
    }
    let r = f64::from_bits(bits as u64);
    if r.is_nan() {
        f64::INFINITY
    } else {
        r
    }
}

fn col_matches(col: &ColumnRef, binding: &SqlTable, name: &str) -> bool {
    col.column == name && col.table.as_deref().is_none_or(|t| t == binding.table)
}

/// Lowers a parsed SELECT over `binding`'s pairs table into a
/// [`Request::Pipeline`]. The supported shape is
/// `SELECT <item> FROM <table> WHERE <anchor> = A [AND <dist> {<=,<} C]*
/// [ORDER BY <dist> [ASC]] [LIMIT k]`; anything else is
/// [`ServerError::UnsupportedSql`].
pub fn lower_select(query: &Query, binding: &SqlTable) -> Result<Request, ServerError> {
    let unsupported = |why: String| ServerError::UnsupportedSql(why);
    if query.from.name != binding.table {
        return Err(unsupported(format!(
            "table {} is not the bound pairs table",
            query.from.name
        )));
    }
    if query.distinct {
        return Err(unsupported("DISTINCT".into()));
    }
    if !query.joins.is_empty() {
        return Err(unsupported("JOIN".into()));
    }
    if !query.group_by.is_empty() {
        return Err(unsupported("GROUP BY".into()));
    }
    match query.select.as_slice() {
        [SelectItem::Column(c)] if col_matches(c, binding, &binding.item_col) => {}
        _ => {
            return Err(unsupported(format!(
                "SELECT list must be exactly the item column {}",
                binding.item_col
            )))
        }
    }

    let where_clause = query
        .where_clause
        .as_ref()
        .ok_or_else(|| unsupported(format!("WHERE {} = <item> is required", binding.anchor_col)))?;
    let predicates =
        conjuncts(where_clause).ok_or_else(|| unsupported("OR / NOT in WHERE".into()))?;

    // Pass 1: the anchor — exactly one `anchor = A` equality.
    let mut anchor: Option<usize> = None;
    for e in &predicates {
        if let Expr::Comparison { col, op, value } = e {
            if col_matches(col, binding, &binding.anchor_col) {
                if *op != CompareOp::Eq {
                    return Err(unsupported(format!(
                        "{} supports only equality",
                        binding.anchor_col
                    )));
                }
                let Literal::Int(a) = value else {
                    return Err(unsupported(format!(
                        "{} must compare against an integer item index",
                        binding.anchor_col
                    )));
                };
                let a = usize::try_from(*a).map_err(|_| {
                    unsupported(format!("{} index must be non-negative", binding.anchor_col))
                })?;
                if anchor.replace(a).is_some() {
                    return Err(unsupported(format!(
                        "exactly one {} predicate allowed",
                        binding.anchor_col
                    )));
                }
            }
        }
    }
    let anchor = anchor
        .ok_or_else(|| unsupported(format!("WHERE {} = <item> is required", binding.anchor_col)))?;

    // Pass 2: distance predicates, lowered in syntax order. A pipeline of
    // FilterRange ops is the conjunction; with no distance predicate, one
    // infinite-radius filter reproduces the pairs table's `item != anchor`
    // row set.
    let mut ops: Vec<PlanOp> = vec![PlanOp::Scan];
    let mut filtered = false;
    for e in &predicates {
        let Expr::Comparison { col, op, value } = e else {
            return Err(unsupported(format!("unsupported predicate {e:?}")));
        };
        if col_matches(col, binding, &binding.anchor_col) {
            continue;
        }
        if !col_matches(col, binding, &binding.dist_col) {
            return Err(unsupported(format!("unknown column {col}")));
        }
        let Literal::Int(bits) = value else {
            return Err(unsupported(format!(
                "{} must compare against a dist_literal integer",
                binding.dist_col
            )));
        };
        let radius = match op {
            CompareOp::Le => radius_from_bits(*bits),
            // Strict `<` on the monotone bit image is `<=` its predecessor
            // (`i64::MIN` has none: it is below every distance already).
            CompareOp::Lt => radius_from_bits(bits.saturating_sub(1)),
            _ => {
                return Err(unsupported(format!(
                    "{} supports only <= and <",
                    binding.dist_col
                )))
            }
        };
        ops.push(PlanOp::FilterRange {
            item: anchor,
            radius,
        });
        filtered = true;
    }
    if !filtered {
        ops.push(PlanOp::FilterRange {
            item: anchor,
            radius: f64::INFINITY,
        });
    }

    match query.order_by.as_slice() {
        [] => {
            if let Some(k) = query.limit {
                ops.push(PlanOp::Limit(k as usize));
            }
        }
        [o] if col_matches(&o.col, binding, &binding.dist_col) && !o.desc => {
            let k = query
                .limit
                .ok_or_else(|| unsupported("ORDER BY requires LIMIT".into()))?;
            ops.push(PlanOp::Knn {
                item: anchor,
                k: k as usize,
            });
        }
        _ => {
            return Err(unsupported(format!(
                "ORDER BY must be exactly {} ascending",
                binding.dist_col
            )))
        }
    }
    ops.push(PlanOp::Project(Projection::Items));

    Ok(Request::Pipeline {
        shard: binding.shard,
        ops,
    })
}

impl<M: QueryDistance + Sync> Server<M> {
    /// Registers (or replaces) a virtual pairs-table binding. Queries sent
    /// to [`Server::sql`] resolve their FROM table against these bindings
    /// by exact name — registering DET-encrypted names gives the encrypted
    /// front door.
    pub fn register_sql_table(&self, binding: SqlTable) -> Result<(), ServerError> {
        if binding.shard >= self.shard_count() {
            return Err(ServerError::UnknownShard {
                shard: binding.shard,
                shards: self.shard_count(),
            });
        }
        self.sql_tables
            .lock()
            .expect("sql tables lock poisoned")
            .insert(binding.table.clone(), binding);
        Ok(())
    }

    /// Parses and lowers a SELECT without executing it — the front door's
    /// EXPLAIN. The returned request is what [`Server::sql`] would serve.
    pub fn sql_to_request(&self, text: &str) -> Result<Request, ServerError> {
        let query =
            parse_query(text).map_err(|e| ServerError::UnsupportedSql(format!("parse: {e}")))?;
        let binding = self
            .sql_tables
            .lock()
            .expect("sql tables lock poisoned")
            .get(&query.from.name)
            .cloned()
            .ok_or_else(|| {
                ServerError::UnsupportedSql(format!(
                    "no pairs table registered as {}",
                    query.from.name
                ))
            })?;
        lower_select(&query, &binding)
    }

    /// Answers a SELECT over a registered pairs table through the same
    /// batch path as every other request — compiled to a plan, answered
    /// under one shard read lock, response-cached and metered.
    pub fn sql(&self, text: &str) -> Result<Response, ServerError> {
        let request = self.sql_to_request(text)?;
        self.serve_batch(std::slice::from_ref(&request), 1)
            .pop()
            .expect("one request yields exactly one result")
    }

    /// Materializes the plaintext relational mirror of a registered pairs
    /// table: one row `(item, anchor, dist_literal(d))` per ordered pair
    /// with `item != anchor`, inserted anchor-major then item-ascending so
    /// `dpe_minidb`'s stable ORDER BY breaks distance ties exactly like the
    /// executor's index-ascending kNN tie-break. The differential suite
    /// executes the same SELECT against this mirror and demands bit-equal
    /// results.
    pub fn plaintext_mirror(&self, table: &str) -> Result<Database, ServerError> {
        let binding = self
            .sql_tables
            .lock()
            .expect("sql tables lock poisoned")
            .get(table)
            .cloned()
            .ok_or_else(|| {
                ServerError::UnsupportedSql(format!("no pairs table registered as {table}"))
            })?;
        let guard = self.read_shard(binding.shard)?;
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            binding.table.clone(),
            vec![
                (binding.item_col.as_str(), ColumnType::Int),
                (binding.anchor_col.as_str(), ColumnType::Int),
                (binding.dist_col.as_str(), ColumnType::Int),
            ],
        ))
        .expect("fresh database has no table to collide with");
        let n = guard.len();
        for anchor in 0..n {
            for item in 0..n {
                if item == anchor {
                    continue;
                }
                db.insert(
                    &binding.table,
                    vec![
                        Value::Int(item as i64),
                        Value::Int(anchor as i64),
                        Value::Int(dist_literal(guard.matrix().get(anchor, item))),
                    ],
                )
                .expect("mirror row matches the schema it was built from");
            }
        }
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn binding() -> SqlTable {
        SqlTable {
            table: "pairs".into(),
            shard: 1,
            item_col: "item".into(),
            anchor_col: "anchor".into(),
            dist_col: "dist".into(),
        }
    }

    fn lower(sql: &str) -> Result<Request, ServerError> {
        lower_select(&parse_query(sql).unwrap(), &binding())
    }

    #[test]
    fn dist_literal_is_monotone() {
        let ds = [0.0, 1e-300, 0.25, 0.5, 1.0, 3.5, f64::INFINITY];
        for w in ds.windows(2) {
            assert!(dist_literal(w[0]) < dist_literal(w[1]));
        }
        assert!(dist_literal(0.0) >= 0);
    }

    #[test]
    fn bare_anchor_query_lowers_to_infinite_filter() {
        let req = lower("SELECT item FROM pairs WHERE anchor = 3").unwrap();
        let Request::Pipeline { shard, ops } = req else {
            panic!("expected pipeline")
        };
        assert_eq!(shard, 1);
        assert_eq!(
            ops,
            vec![
                PlanOp::Scan,
                PlanOp::FilterRange {
                    item: 3,
                    radius: f64::INFINITY
                },
                PlanOp::Project(Projection::Items),
            ]
        );
    }

    #[test]
    fn range_and_knn_clauses_lower_in_order() {
        let c = dist_literal(0.5);
        let req = lower(&format!(
            "SELECT item FROM pairs WHERE dist <= {c} AND anchor = 2 ORDER BY dist LIMIT 4"
        ))
        .unwrap();
        let Request::Pipeline { ops, .. } = req else {
            panic!("expected pipeline")
        };
        assert_eq!(
            ops,
            vec![
                PlanOp::Scan,
                PlanOp::FilterRange {
                    item: 2,
                    radius: 0.5
                },
                PlanOp::Knn { item: 2, k: 4 },
                PlanOp::Project(Projection::Items),
            ]
        );
    }

    #[test]
    fn strict_less_than_decrements_the_bit_image() {
        let c = dist_literal(0.5);
        let req = lower(&format!(
            "SELECT item FROM pairs WHERE anchor = 0 AND dist < {c}"
        ))
        .unwrap();
        let Request::Pipeline { ops, .. } = req else {
            panic!("expected pipeline")
        };
        let PlanOp::FilterRange { radius, .. } = ops[1] else {
            panic!("expected filter")
        };
        assert!(radius < 0.5);
        assert_eq!(dist_literal(radius), c - 1);
    }

    #[test]
    fn limit_without_order_by_lowers_to_limit_op() {
        let req = lower("SELECT item FROM pairs WHERE anchor = 1 LIMIT 3").unwrap();
        let Request::Pipeline { ops, .. } = req else {
            panic!("expected pipeline")
        };
        assert!(matches!(ops[2], PlanOp::Limit(3)));
    }

    #[test]
    fn unsupported_shapes_are_typed_errors() {
        for sql in [
            "SELECT item FROM pairs",                                 // no WHERE
            "SELECT item FROM pairs WHERE dist <= 5",                 // no anchor
            "SELECT item FROM pairs WHERE anchor = 1 OR anchor = 2",  // OR
            "SELECT item FROM pairs WHERE anchor = 1 AND anchor = 2", // two anchors
            "SELECT item FROM pairs WHERE anchor >= 1",               // anchor inequality
            "SELECT item FROM pairs WHERE anchor = -1",               // negative anchor
            "SELECT item FROM pairs WHERE anchor = 1 AND dist >= 5",  // dist lower bound
            "SELECT item FROM pairs WHERE anchor = 1 AND other = 5",  // unknown column
            "SELECT anchor FROM pairs WHERE anchor = 1",              // wrong SELECT list
            "SELECT DISTINCT item FROM pairs WHERE anchor = 1",       // DISTINCT
            "SELECT item FROM pairs WHERE anchor = 1 ORDER BY dist",  // ORDER BY sans LIMIT
            "SELECT item FROM pairs WHERE anchor = 1 ORDER BY dist DESC LIMIT 2", // DESC
            "SELECT item FROM elsewhere WHERE anchor = 1",            // wrong table
        ] {
            assert!(
                matches!(lower(sql), Err(ServerError::UnsupportedSql(_))),
                "{sql}"
            );
        }
    }

    #[test]
    fn negative_dist_literal_is_always_false() {
        for pred in [
            "dist <= -7",
            "dist < -7",
            "dist < 0",
            "dist < -9223372036854775808",
        ] {
            let sql = format!("SELECT item FROM pairs WHERE anchor = 0 AND {pred}");
            let Request::Pipeline { ops, .. } = lower(&sql).unwrap() else {
                panic!("expected pipeline")
            };
            let PlanOp::FilterRange { radius, .. } = ops[1] else {
                panic!("expected filter")
            };
            assert!(radius < 0.0, "{pred}: no distance can satisfy the filter");
        }
    }
}
