//! Canonical SQL rendering of the AST.
//!
//! The printer emits exactly the dialect the parser accepts, with uppercase
//! keywords, lowercase identifiers, one space between tokens and minimal
//! parentheses (re-inserted only where precedence demands). The round-trip
//! property `parse(print(q)) == q` is enforced by tests in `lib.rs`.

use crate::ast::*;
use std::fmt;

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Wildcard => write!(f, "*"),
            SelectItem::Column(c) => write!(f, "{c}"),
            SelectItem::Aggregate { func, arg } => match arg {
                AggArg::Star => write!(f, "{func}(*)"),
                AggArg::Column(c) => write!(f, "{func}({c})"),
            },
        }
    }
}

impl Expr {
    /// Precedence for printing: OR(1) < AND(2) < NOT(3) < atoms(4).
    pub(crate) fn precedence(&self) -> u8 {
        match self {
            Expr::Or(_, _) => 1,
            Expr::And(_, _) => 2,
            Expr::Not(_) => 3,
            _ => 4,
        }
    }

    fn fmt_with_parens(&self, f: &mut fmt::Formatter<'_>, parent_prec: u8) -> fmt::Result {
        let prec = self.precedence();
        if prec < parent_prec {
            write!(f, "(")?;
        }
        match self {
            Expr::Comparison { col, op, value } => write!(f, "{col} {op} {value}")?,
            Expr::ColumnEq { left, right } => write!(f, "{left} = {right}")?,
            Expr::Between { col, low, high } => write!(f, "{col} BETWEEN {low} AND {high}")?,
            Expr::InList { col, list } => {
                write!(f, "{col} IN (")?;
                for (i, lit) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{lit}")?;
                }
                write!(f, ")")?;
            }
            Expr::IsNull { col, negated } => {
                if *negated {
                    write!(f, "{col} IS NOT NULL")?;
                } else {
                    write!(f, "{col} IS NULL")?;
                }
            }
            Expr::And(a, b) => {
                a.fmt_with_parens(f, 2)?;
                write!(f, " AND ")?;
                b.fmt_with_parens(f, 2)?;
            }
            Expr::Or(a, b) => {
                a.fmt_with_parens(f, 1)?;
                write!(f, " OR ")?;
                b.fmt_with_parens(f, 1)?;
            }
            Expr::Not(inner) => {
                write!(f, "NOT ")?;
                inner.fmt_with_parens(f, 4)?;
            }
        }
        if prec < parent_prec {
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_with_parens(f, 0)
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        for (i, item) in self.select.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, " FROM {}", self.from.name)?;
        for join in &self.joins {
            write!(
                f,
                " JOIN {} ON {} = {}",
                join.table.name, join.left, join.right
            )?;
        }
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY ")?;
            for (i, c) in self.group_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{c}")?;
            }
        }
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY ")?;
            for (i, o) in self.order_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", o.col)?;
                if o.desc {
                    write!(f, " DESC")?;
                }
            }
        }
        if let Some(l) = self.limit {
            write!(f, " LIMIT {l}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::parser::parse_query;

    #[track_caller]
    fn roundtrip(sql: &str) {
        let q = parse_query(sql).unwrap();
        let printed = q.to_string();
        let q2 = parse_query(&printed).unwrap();
        assert_eq!(q, q2, "printed form: {printed}");
    }

    #[test]
    fn canonical_form_examples() {
        let q = parse_query("select RA from PhotoObj where DEC > 5 limit 3").unwrap();
        assert_eq!(
            q.to_string(),
            "SELECT ra FROM photoobj WHERE dec > 5 LIMIT 3"
        );
    }

    #[test]
    fn example_4_from_the_paper() {
        // "SELECT A1 FROM R WHERE A2 > 5" — the paper's running example.
        let q = parse_query("SELECT a1 FROM r WHERE a2 > 5").unwrap();
        assert_eq!(q.to_string(), "SELECT a1 FROM r WHERE a2 > 5");
    }

    #[test]
    fn roundtrips() {
        for sql in [
            "SELECT * FROM t",
            "SELECT DISTINCT ra, dec FROM photoobj WHERE ra > 1 AND dec < 2 OR z = 3",
            "SELECT COUNT(*) FROM specobj GROUP BY class ORDER BY class DESC LIMIT 5",
            "SELECT ra FROM t WHERE NOT (a = 1 OR b = 2)",
            "SELECT ra FROM t WHERE a BETWEEN 1 AND 2 AND b IN (1, 2, 3)",
            "SELECT p.ra FROM photoobj JOIN specobj ON photoobj.objid = specobj.bestobjid",
            "SELECT ra FROM t WHERE name = 'o''brien'",
            "SELECT ra FROM t WHERE (a = 1 OR b = 2) AND c = 3",
            "SELECT SUM(z), AVG(ra) FROM specobj WHERE z IS NOT NULL",
        ] {
            roundtrip(sql);
        }
    }

    #[test]
    fn minimal_parentheses() {
        let q = parse_query("SELECT ra FROM t WHERE a = 1 AND (b = 2 OR c = 3)").unwrap();
        assert_eq!(
            q.to_string(),
            "SELECT ra FROM t WHERE a = 1 AND (b = 2 OR c = 3)"
        );
        let q = parse_query("SELECT ra FROM t WHERE (a = 1 AND b = 2) OR c = 3").unwrap();
        // AND binds tighter, so no parens needed in canonical form.
        assert_eq!(
            q.to_string(),
            "SELECT ra FROM t WHERE a = 1 AND b = 2 OR c = 3"
        );
    }
}
