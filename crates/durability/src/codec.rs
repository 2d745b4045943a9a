//! Structural binary codec for [`dpe_sql::Query`] ASTs.
//!
//! WAL records and snapshots must serialize *exactly* the queries a shard
//! holds — which are routinely **ciphertext** ASTs whose identifiers are
//! DET/token encryptions (hex blobs, not valid SQL identifiers). Printing
//! to SQL text and re-parsing would round-trip only parser-friendly
//! names, so the codec walks the AST structurally instead: one tag byte
//! per enum variant, little-endian fixed-width integers, and
//! length-prefixed UTF-8 for every string. The encoding is canonical
//! (each AST has exactly one byte string), which is what lets frame
//! checksums cover semantic content.
//!
//! Decoding is fully defensive: every length is bounds-checked against
//! the remaining input and every tag must be a known variant, so a
//! corrupted buffer yields [`DurabilityError::Codec`] — never a panic,
//! never a silently different query. A decoded query must also pass
//! [`dpe_sql::check_lexes`], the canonical-form check the ingest door
//! applies, so the log can never hand recovery a query no live server
//! would have accepted.

use crate::DurabilityError;
use dpe_sql::{
    AggArg, AggFunc, ColumnRef, CompareOp, Expr, Join, Literal, OrderItem, Query, SelectItem,
    TableRef,
};

/// Serialization surface: primitives append to a byte vector.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian i64.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its raw bit pattern — the bit-identity
    /// guarantee rides on never round-tripping distances through text.
    pub fn f64_bits(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Deserialization surface: a cursor over a byte slice with typed,
/// bounds-checked reads.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `Ok` iff every byte was consumed — trailing garbage is corruption.
    pub fn finish(self) -> Result<(), DurabilityError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DurabilityError::Codec(format!(
                "{} trailing bytes after a complete value",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], DurabilityError> {
        if self.remaining() < n {
            return Err(DurabilityError::Codec(format!(
                "truncated input reading {what}: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &str) -> Result<u8, DurabilityError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self, what: &str) -> Result<u32, DurabilityError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self, what: &str) -> Result<u64, DurabilityError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a little-endian i64.
    pub fn i64(&mut self, what: &str) -> Result<i64, DurabilityError> {
        Ok(self.u64(what)? as i64)
    }

    /// Reads an `f64` stored as raw bits.
    pub fn f64_bits(&mut self, what: &str) -> Result<f64, DurabilityError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Reads a length-prefixed string.
    pub fn str(&mut self, what: &str) -> Result<String, DurabilityError> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| DurabilityError::Codec(format!("non-UTF-8 bytes in {what}")))
    }

    /// Reads a collection length, rejecting lengths that could not
    /// possibly fit in the remaining input (`min_elem_size` bytes per
    /// element) — a corrupted length must fail fast, not OOM.
    pub fn seq_len(&mut self, min_elem_size: usize, what: &str) -> Result<usize, DurabilityError> {
        let len = self.u32(what)? as usize;
        if len.saturating_mul(min_elem_size.max(1)) > self.remaining() {
            return Err(DurabilityError::Codec(format!(
                "implausible length {len} for {what}: only {} bytes remain",
                self.remaining()
            )));
        }
        Ok(len)
    }
}

fn bad_tag(what: &str, tag: u8) -> DurabilityError {
    DurabilityError::Codec(format!("unknown {what} tag {tag}"))
}

fn write_literal(w: &mut Writer, lit: &Literal) {
    match lit {
        Literal::Int(v) => {
            w.u8(0);
            w.i64(*v);
        }
        Literal::Str(s) => {
            w.u8(1);
            w.str(s);
        }
        Literal::Null => w.u8(2),
    }
}

fn read_literal(r: &mut Reader<'_>) -> Result<Literal, DurabilityError> {
    match r.u8("literal tag")? {
        0 => Ok(Literal::Int(r.i64("int literal")?)),
        1 => Ok(Literal::Str(r.str("str literal")?)),
        2 => Ok(Literal::Null),
        t => Err(bad_tag("literal", t)),
    }
}

fn write_column(w: &mut Writer, col: &ColumnRef) {
    match &col.table {
        Some(t) => {
            w.u8(1);
            w.str(t);
        }
        None => w.u8(0),
    }
    w.str(&col.column);
}

fn read_column(r: &mut Reader<'_>) -> Result<ColumnRef, DurabilityError> {
    let table = match r.u8("column qualifier flag")? {
        0 => None,
        1 => Some(r.str("column qualifier")?),
        t => return Err(bad_tag("column qualifier flag", t)),
    };
    Ok(ColumnRef {
        table,
        column: r.str("column name")?,
    })
}

fn write_compare_op(w: &mut Writer, op: CompareOp) {
    w.u8(match op {
        CompareOp::Eq => 0,
        CompareOp::Ne => 1,
        CompareOp::Lt => 2,
        CompareOp::Le => 3,
        CompareOp::Gt => 4,
        CompareOp::Ge => 5,
    });
}

fn read_compare_op(r: &mut Reader<'_>) -> Result<CompareOp, DurabilityError> {
    Ok(match r.u8("compare op")? {
        0 => CompareOp::Eq,
        1 => CompareOp::Ne,
        2 => CompareOp::Lt,
        3 => CompareOp::Le,
        4 => CompareOp::Gt,
        5 => CompareOp::Ge,
        t => return Err(bad_tag("compare op", t)),
    })
}

fn write_expr(w: &mut Writer, expr: &Expr) {
    match expr {
        Expr::Comparison { col, op, value } => {
            w.u8(0);
            write_column(w, col);
            write_compare_op(w, *op);
            write_literal(w, value);
        }
        Expr::ColumnEq { left, right } => {
            w.u8(1);
            write_column(w, left);
            write_column(w, right);
        }
        Expr::Between { col, low, high } => {
            w.u8(2);
            write_column(w, col);
            write_literal(w, low);
            write_literal(w, high);
        }
        Expr::InList { col, list } => {
            w.u8(3);
            write_column(w, col);
            w.u32(list.len() as u32);
            for lit in list {
                write_literal(w, lit);
            }
        }
        Expr::IsNull { col, negated } => {
            w.u8(4);
            write_column(w, col);
            w.u8(u8::from(*negated));
        }
        Expr::And(a, b) => {
            w.u8(5);
            write_expr(w, a);
            write_expr(w, b);
        }
        Expr::Or(a, b) => {
            w.u8(6);
            write_expr(w, a);
            write_expr(w, b);
        }
        Expr::Not(inner) => {
            w.u8(7);
            write_expr(w, inner);
        }
    }
}

fn read_expr(r: &mut Reader<'_>, depth: usize) -> Result<Expr, DurabilityError> {
    // Depth cap: a corrupted buffer must not recurse the stack away.
    if depth > 512 {
        return Err(DurabilityError::Codec(
            "expression nesting exceeds the codec's depth cap".into(),
        ));
    }
    Ok(match r.u8("expr tag")? {
        0 => Expr::Comparison {
            col: read_column(r)?,
            op: read_compare_op(r)?,
            value: read_literal(r)?,
        },
        1 => Expr::ColumnEq {
            left: read_column(r)?,
            right: read_column(r)?,
        },
        2 => Expr::Between {
            col: read_column(r)?,
            low: read_literal(r)?,
            high: read_literal(r)?,
        },
        3 => {
            let col = read_column(r)?;
            let len = r.seq_len(1, "IN list")?;
            let mut list = Vec::with_capacity(len);
            for _ in 0..len {
                list.push(read_literal(r)?);
            }
            Expr::InList { col, list }
        }
        4 => {
            let col = read_column(r)?;
            let negated = match r.u8("IS NULL negation flag")? {
                0 => false,
                1 => true,
                t => return Err(bad_tag("IS NULL negation flag", t)),
            };
            Expr::IsNull { col, negated }
        }
        5 => {
            let a = read_expr(r, depth + 1)?;
            let b = read_expr(r, depth + 1)?;
            Expr::And(Box::new(a), Box::new(b))
        }
        6 => {
            let a = read_expr(r, depth + 1)?;
            let b = read_expr(r, depth + 1)?;
            Expr::Or(Box::new(a), Box::new(b))
        }
        7 => Expr::Not(Box::new(read_expr(r, depth + 1)?)),
        t => return Err(bad_tag("expr", t)),
    })
}

fn write_select_item(w: &mut Writer, item: &SelectItem) {
    match item {
        SelectItem::Wildcard => w.u8(0),
        SelectItem::Column(col) => {
            w.u8(1);
            write_column(w, col);
        }
        SelectItem::Aggregate { func, arg } => {
            w.u8(2);
            w.u8(match func {
                AggFunc::Count => 0,
                AggFunc::Sum => 1,
                AggFunc::Avg => 2,
                AggFunc::Min => 3,
                AggFunc::Max => 4,
            });
            match arg {
                AggArg::Star => w.u8(0),
                AggArg::Column(col) => {
                    w.u8(1);
                    write_column(w, col);
                }
            }
        }
    }
}

fn read_select_item(r: &mut Reader<'_>) -> Result<SelectItem, DurabilityError> {
    Ok(match r.u8("select item tag")? {
        0 => SelectItem::Wildcard,
        1 => SelectItem::Column(read_column(r)?),
        2 => {
            let func = match r.u8("aggregate func")? {
                0 => AggFunc::Count,
                1 => AggFunc::Sum,
                2 => AggFunc::Avg,
                3 => AggFunc::Min,
                4 => AggFunc::Max,
                t => return Err(bad_tag("aggregate func", t)),
            };
            let arg = match r.u8("aggregate arg tag")? {
                0 => AggArg::Star,
                1 => AggArg::Column(read_column(r)?),
                t => return Err(bad_tag("aggregate arg", t)),
            };
            SelectItem::Aggregate { func, arg }
        }
        t => return Err(bad_tag("select item", t)),
    })
}

/// Appends one query's canonical encoding to `w`.
pub fn write_query(w: &mut Writer, q: &Query) {
    w.u8(u8::from(q.distinct));
    w.u32(q.select.len() as u32);
    for item in &q.select {
        write_select_item(w, item);
    }
    w.str(&q.from.name);
    w.u32(q.joins.len() as u32);
    for j in &q.joins {
        w.str(&j.table.name);
        write_column(w, &j.left);
        write_column(w, &j.right);
    }
    match &q.where_clause {
        Some(e) => {
            w.u8(1);
            write_expr(w, e);
        }
        None => w.u8(0),
    }
    w.u32(q.group_by.len() as u32);
    for col in &q.group_by {
        write_column(w, col);
    }
    w.u32(q.order_by.len() as u32);
    for o in &q.order_by {
        write_column(w, &o.col);
        w.u8(u8::from(o.desc));
    }
    match q.limit {
        Some(n) => {
            w.u8(1);
            w.u64(n);
        }
        None => w.u8(0),
    }
}

/// Reads one query from the cursor (inverse of [`write_query`]); a query
/// whose rendering does not lex is a [`DurabilityError::Codec`] error.
pub fn read_query(r: &mut Reader<'_>) -> Result<Query, DurabilityError> {
    let distinct = match r.u8("distinct flag")? {
        0 => false,
        1 => true,
        t => return Err(bad_tag("distinct flag", t)),
    };
    let n_select = r.seq_len(1, "select list")?;
    let mut select = Vec::with_capacity(n_select);
    for _ in 0..n_select {
        select.push(read_select_item(r)?);
    }
    let from = TableRef::new(r.str("from table")?);
    let n_joins = r.seq_len(1, "join list")?;
    let mut joins = Vec::with_capacity(n_joins);
    for _ in 0..n_joins {
        joins.push(Join {
            table: TableRef::new(r.str("join table")?),
            left: read_column(r)?,
            right: read_column(r)?,
        });
    }
    let where_clause = match r.u8("where flag")? {
        0 => None,
        1 => Some(read_expr(r, 0)?),
        t => return Err(bad_tag("where flag", t)),
    };
    let n_group = r.seq_len(1, "group by list")?;
    let mut group_by = Vec::with_capacity(n_group);
    for _ in 0..n_group {
        group_by.push(read_column(r)?);
    }
    let n_order = r.seq_len(1, "order by list")?;
    let mut order_by = Vec::with_capacity(n_order);
    for _ in 0..n_order {
        let col = read_column(r)?;
        let desc = match r.u8("order desc flag")? {
            0 => false,
            1 => true,
            t => return Err(bad_tag("order desc flag", t)),
        };
        order_by.push(OrderItem { col, desc });
    }
    let limit = match r.u8("limit flag")? {
        0 => None,
        1 => Some(r.u64("limit")?),
        t => return Err(bad_tag("limit flag", t)),
    };
    let query = Query {
        distinct,
        select,
        from,
        joins,
        where_clause,
        group_by,
        order_by,
        limit,
    };
    // The ingest door admits only queries whose rendering lexes, so a
    // decoded one that does not is damage, or a log written before that
    // door existed (a lone such query could then enter an empty shard).
    dpe_sql::check_lexes(&query).map_err(|e| {
        DurabilityError::Codec(format!(
            "decoded query does not lex (damage, or a query logged before the \
             ingest door checked lexing): {e}"
        ))
    })?;
    Ok(query)
}

/// Encodes a batch of queries (length prefix + each query).
pub fn write_queries(w: &mut Writer, queries: &[Query]) {
    w.u32(queries.len() as u32);
    for q in queries {
        write_query(w, q);
    }
}

/// Reads a batch of queries (inverse of [`write_queries`]).
pub fn read_queries(r: &mut Reader<'_>) -> Result<Vec<Query>, DurabilityError> {
    let n = r.seq_len(1, "query batch")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(read_query(r)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpe_sql::parse_query;

    fn round_trip(q: &Query) -> Query {
        let mut w = Writer::new();
        write_query(&mut w, q);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = read_query(&mut r).expect("decode");
        r.finish().expect("no trailing bytes");
        back
    }

    #[test]
    fn round_trips_every_ast_construct() {
        let sources = [
            "SELECT ra FROM photoobj",
            "SELECT DISTINCT ra, dec FROM photoobj WHERE objid = 42",
            "SELECT * FROM specobj WHERE z BETWEEN 1 AND 5 AND class = 'QSO'",
            "SELECT COUNT(*) FROM photoobj GROUP BY run ORDER BY run DESC LIMIT 10",
            "SELECT AVG(p.ra) FROM photoobj JOIN specobj ON p.objid = s.objid \
             WHERE p.flags IS NOT NULL OR s.z IN (1, 2, 3)",
            "SELECT MIN(ra), MAX(dec) FROM t WHERE NOT (a = 1) AND b != 'x''y'",
        ];
        for src in sources {
            let q = parse_query(src).expect(src);
            assert_eq!(round_trip(&q), q, "{src}");
        }
    }

    #[test]
    fn round_trips_ciphertext_identifiers_sql_text_cannot() {
        // Identifier spellings a DET scheme produces are not valid SQL
        // identifiers — the structural codec must not care, as long as the
        // rendering lexes (the one form the ingest door admits).
        // String constants keep any UTF-8: the `'v'` literal carries
        // non-ASCII text and a quote through the round trip.
        let mut q = parse_query("SELECT a FROM t WHERE c = '9f?— it''s \u{1F512}'").unwrap();
        q.from.name = "9F3A not_an Identifier".into();
        match &mut q.select[0] {
            SelectItem::Column(c) => c.column = "0xDEAD BEEF".into(),
            _ => unreachable!(),
        }
        assert_eq!(round_trip(&q), q);

        // A spelling whose rendering does not lex is damage: decoding
        // refuses it.
        q.from.name = "9f?— not an identifier \u{1F512}".into();
        let mut w = Writer::new();
        write_query(&mut w, &q);
        let bytes = w.into_bytes();
        assert!(matches!(
            read_query(&mut Reader::new(&bytes)),
            Err(DurabilityError::Codec(ref s)) if s.contains("does not lex")
        ));
    }

    #[test]
    fn batch_round_trip_preserves_order() {
        let batch: Vec<Query> = (0..7)
            .map(|i| parse_query(&format!("SELECT c{i} FROM t WHERE k = {i}")).unwrap())
            .collect();
        let mut w = Writer::new();
        write_queries(&mut w, &batch);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(read_queries(&mut r).unwrap(), batch);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_at_every_prefix_is_an_error_not_a_panic() {
        let q = parse_query(
            "SELECT COUNT(*), x FROM t JOIN u ON t.a = u.b \
             WHERE t.a BETWEEN 1 AND 2 GROUP BY x ORDER BY x LIMIT 3",
        )
        .unwrap();
        let mut w = Writer::new();
        write_query(&mut w, &q);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            // Either the decode fails, or a strict prefix happened to be a
            // complete value — then finish() must flag nothing left over
            // AND the value must differ in length from the original.
            if let Ok(decoded) = read_query(&mut r) {
                assert!(r.finish().is_ok());
                assert_ne!(decoded, q, "cut {cut} decoded to the full query");
            }
        }
    }

    #[test]
    fn unknown_tags_are_rejected() {
        let mut w = Writer::new();
        write_query(&mut w, &parse_query("SELECT a FROM t").unwrap());
        let mut bytes = w.into_bytes();
        bytes[0] = 9; // distinct flag must be 0/1
        assert!(matches!(
            read_query(&mut Reader::new(&bytes)),
            Err(DurabilityError::Codec(_))
        ));
    }

    #[test]
    fn implausible_lengths_fail_fast() {
        let mut w = Writer::new();
        w.u8(0); // distinct = false
        w.u32(u32::MAX); // select list "length"
        let bytes = w.into_bytes();
        let err = read_query(&mut Reader::new(&bytes)).unwrap_err();
        assert!(matches!(err, DurabilityError::Codec(ref s) if s.contains("implausible")));
    }
}
