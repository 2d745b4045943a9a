//! Concrete DPE schemes for the four measures — Step 3 of KIT-DPE.
//!
//! Each scheme instantiates the high-level tuple
//! `(EncRel, EncAttr, {EncA.Const})` (paper §IV-A2, Example 4) with the
//! classes the Definition-6 engine selects, and exposes item-wise query
//! encryption via [`QueryEncryptor`].
//!
//! ## A reproduction finding: token equivalence needs *one* constant key
//!
//! The high-level scheme allows a distinct `EncA.Const` per attribute. For
//! token equivalence this is **too much freedom**: `tokens(Q)` is a set of
//! bare spellings, so the literal `5` occurring under attribute `a` in one
//! query and under `b` in another is *one* plaintext token, but
//! per-attribute keys would encrypt it to *two* ciphertext tokens,
//! changing the Jaccard denominator. [`TokenDpe`] therefore keys constants
//! with a single log-wide DET key; the negative control in
//! `tests/` demonstrates that per-attribute keys break Definition 1.
//! (Structure/result/access-area distances are per-attribute by
//! construction, so their schemes do use per-attribute keys.)

use crate::error::CoreError;
use dpe_cryptdb::column::CryptDbConfig;
use dpe_cryptdb::encoding::ident_hex;
use dpe_cryptdb::CryptDbProxy;
use dpe_crypto::kdf::SlotLabel;
use dpe_crypto::scheme::SymmetricScheme;
use dpe_crypto::{Ciphertext, DetScheme, MasterKey, ProbScheme};
use dpe_distance::{AttributeDomain, DomainCatalog};
use dpe_minidb::{Database, TableSchema};
use dpe_ope::{OpeDomain, OpeScheme};
use dpe_sql::analysis::{rewrite_query, IdentifierTransform};
use dpe_sql::{analysis, AggArg, AggFunc, ColumnRef, Literal, Query, SelectItem};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};

/// Item-wise query encryption (the `Enc` of Definition 1).
pub trait QueryEncryptor {
    /// Encrypts one query.
    fn encrypt_query(&mut self, q: &Query) -> Result<Query, CoreError>;

    /// Encrypts a whole log, preserving order (index `i` of the output is
    /// `Enc` of index `i` of the input).
    fn encrypt_log(&mut self, log: &[Query]) -> Result<Vec<Query>, CoreError> {
        log.iter().map(|q| self.encrypt_query(q)).collect()
    }
}

/// Encrypts a byte string deterministically and renders it as an
/// identifier.
fn det_ident(scheme: &DetScheme, name: &str) -> String {
    let mut rng = rand::rngs::mock::StepRng::new(0, 1);
    ident_hex(&scheme.encrypt(name.as_bytes(), &mut rng))
}

/// Canonical byte encoding of a literal for DET/PROB constant encryption.
fn literal_bytes(lit: &Literal) -> Vec<u8> {
    match lit {
        Literal::Int(v) => {
            let mut out = vec![b'i'];
            out.extend_from_slice(&v.to_be_bytes());
            out
        }
        Literal::Str(s) => {
            let mut out = vec![b's'];
            out.extend_from_slice(s.as_bytes());
            out
        }
        Literal::Null => vec![b'n'],
    }
}

// ---------------------------------------------------------------------------
// Token distance: (DET, DET, DET) with a single constant key.
// ---------------------------------------------------------------------------

/// DPE scheme for token-based query-string distance (Table I row 1).
pub struct TokenDpe {
    rel: DetScheme,
    attr: DetScheme,
    constant: DetScheme,
}

impl TokenDpe {
    /// Derives the scheme from a master key.
    pub fn new(master: &MasterKey) -> Self {
        TokenDpe {
            rel: DetScheme::new(&SlotLabel::Relation.derive(master)),
            attr: DetScheme::new(&SlotLabel::Attribute.derive(master)),
            constant: DetScheme::new(&SlotLabel::Constant("*log-wide*").derive(master)),
        }
    }

    /// The encrypted spelling of one plaintext token, by kind — used by the
    /// c-equivalence commuting-square check to compute `Enc(tokens(Q))`.
    pub fn encrypt_relation_token(&self, name: &str) -> String {
        det_ident(&self.rel, name)
    }

    /// See [`TokenDpe::encrypt_relation_token`].
    pub fn encrypt_attribute_token(&self, name: &str) -> String {
        det_ident(&self.attr, name)
    }

    /// See [`TokenDpe::encrypt_relation_token`].
    pub fn encrypt_constant_token(&self, lit: &Literal) -> Literal {
        match lit {
            Literal::Null => Literal::Null,
            other => {
                let mut rng = rand::rngs::mock::StepRng::new(0, 1);
                let ct = self.constant.encrypt(&literal_bytes(other), &mut rng);
                Literal::Str(ident_hex(&ct))
            }
        }
    }
}

impl IdentifierTransform for &TokenDpe {
    fn relation(&mut self, name: &str) -> String {
        det_ident(&self.rel, name)
    }
    fn attribute(&mut self, name: &str) -> String {
        det_ident(&self.attr, name)
    }
    fn constant(&mut self, _col: &ColumnRef, value: &Literal) -> Literal {
        self.encrypt_constant_token(value)
    }
}

impl QueryEncryptor for TokenDpe {
    fn encrypt_query(&mut self, q: &Query) -> Result<Query, CoreError> {
        let mut transform: &TokenDpe = self;
        Ok(rewrite_query(q, &mut transform))
    }
}

/// Negative control for the experiments: a token scheme with per-attribute
/// constant keys, which the paper's high-level scheme permits but which
/// does **not** ensure token equivalence (see the module docs).
pub struct PerAttributeTokenDpe {
    rel: DetScheme,
    attr: DetScheme,
    master: MasterKey,
}

impl PerAttributeTokenDpe {
    /// Derives the (deliberately broken) scheme.
    pub fn new(master: &MasterKey) -> Self {
        PerAttributeTokenDpe {
            rel: DetScheme::new(&SlotLabel::Relation.derive(master)),
            attr: DetScheme::new(&SlotLabel::Attribute.derive(master)),
            master: master.clone(),
        }
    }
}

impl IdentifierTransform for &PerAttributeTokenDpe {
    fn relation(&mut self, name: &str) -> String {
        det_ident(&self.rel, name)
    }
    fn attribute(&mut self, name: &str) -> String {
        det_ident(&self.attr, name)
    }
    fn constant(&mut self, col: &ColumnRef, value: &Literal) -> Literal {
        if matches!(value, Literal::Null) {
            return Literal::Null;
        }
        let scheme = DetScheme::new(&SlotLabel::Constant(&col.column).derive(&self.master));
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        Literal::Str(ident_hex(&scheme.encrypt(&literal_bytes(value), &mut rng)))
    }
}

impl QueryEncryptor for PerAttributeTokenDpe {
    fn encrypt_query(&mut self, q: &Query) -> Result<Query, CoreError> {
        let mut transform: &PerAttributeTokenDpe = self;
        Ok(rewrite_query(q, &mut transform))
    }
}

// ---------------------------------------------------------------------------
// Structure distance: (DET, DET, PROB).
// ---------------------------------------------------------------------------

/// DPE scheme for query-structure distance (Table I row 2): constants get
/// the *probabilistic* class — the highest security row of Fig. 1 — because
/// `features(Q)` never looks at them.
pub struct StructuralDpe {
    rel: DetScheme,
    attr: DetScheme,
    prob: ProbScheme,
    rng: StdRng,
}

impl StructuralDpe {
    /// Derives the scheme from a master key; `seed` feeds the PROB
    /// randomness.
    pub fn new(master: &MasterKey, seed: u64) -> Self {
        StructuralDpe {
            rel: DetScheme::new(&SlotLabel::Relation.derive(master)),
            attr: DetScheme::new(&SlotLabel::Attribute.derive(master)),
            prob: ProbScheme::new(&SlotLabel::Constant("*prob*").derive(master)),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Encrypted spelling of a relation token (for commuting-square checks).
    pub fn encrypt_relation_token(&self, name: &str) -> String {
        det_ident(&self.rel, name)
    }

    /// Encrypted spelling of an attribute token.
    pub fn encrypt_attribute_token(&self, name: &str) -> String {
        det_ident(&self.attr, name)
    }
}

impl QueryEncryptor for StructuralDpe {
    fn encrypt_query(&mut self, q: &Query) -> Result<Query, CoreError> {
        struct T<'a>(&'a mut StructuralDpe);
        impl IdentifierTransform for T<'_> {
            fn relation(&mut self, name: &str) -> String {
                det_ident(&self.0.rel, name)
            }
            fn attribute(&mut self, name: &str) -> String {
                det_ident(&self.0.attr, name)
            }
            fn constant(&mut self, _col: &ColumnRef, value: &Literal) -> Literal {
                if matches!(value, Literal::Null) {
                    return Literal::Null;
                }
                // Fresh randomness per occurrence: equal constants map to
                // different ciphertexts (the PROB property).
                let ct = self.0.prob.encrypt(&literal_bytes(value), &mut self.0.rng);
                Literal::Str(ident_hex(&ct))
            }
        }
        Ok(rewrite_query(q, &mut T(self)))
    }
}

// ---------------------------------------------------------------------------
// Result distance: via CryptDB.
// ---------------------------------------------------------------------------

/// DPE scheme for query-result distance (Table I row 3): the full CryptDB
/// stack. Shared information is the encrypted log **and** the encrypted
/// database; the provider computes result tuples by executing rewritten
/// queries and measures Jaccard over the (deterministic) encrypted tuples.
pub struct ResultDpe {
    proxy: CryptDbProxy,
}

impl ResultDpe {
    /// Encrypts `plain_db` and prepares the proxy.
    pub fn new(
        plain_db: &Database,
        table_schemas: &[TableSchema],
        domains: &DomainCatalog,
        config: &CryptDbConfig,
        master: &MasterKey,
    ) -> Result<Self, CoreError> {
        Ok(ResultDpe {
            proxy: CryptDbProxy::new(plain_db, table_schemas, domains, config, master)?,
        })
    }

    /// Pre-adjusts every column the log touches so the provider sees
    /// deterministic tuples (Definition 4 needs `Enc(result_tuples(Q))` to
    /// be well-defined).
    pub fn prepare_for_log(&mut self, log: &[Query]) -> Result<(), CoreError> {
        self.proxy.adjust_for_log(log)?;
        Ok(())
    }

    /// The encrypted database (what the provider executes against).
    pub fn encrypted_database(&self) -> &Database {
        self.proxy.encrypted_database()
    }

    /// Access to the underlying proxy (examples use the end-to-end path).
    pub fn proxy_mut(&mut self) -> &mut CryptDbProxy {
        &mut self.proxy
    }
}

impl QueryEncryptor for ResultDpe {
    fn encrypt_query(&mut self, q: &Query) -> Result<Query, CoreError> {
        let (enc_query, _result) = self.proxy.execute_encrypted(q)?;
        Ok(enc_query)
    }
}

// ---------------------------------------------------------------------------
// Access-area distance: via CryptDB, except HOM.
// ---------------------------------------------------------------------------

/// DPE scheme for query-access-area distance (Table I row 4).
///
/// * relation/attribute names: DET;
/// * constants of ordered (integer-domain) attributes: **OPE** — equality
///   *and* range predicates must land on one order-preserved axis for the
///   interval geometry (equal / overlap / disjoint) to survive;
/// * constants of categorical attributes: DET;
/// * attributes used **only** inside `SUM`/`AVG` across the whole log:
///   **PROB** — the paper's §IV-C observation, yielding strictly higher
///   security than CryptDB-as-is (which would keep HOM/OPE onions).
pub struct AccessAreaDpe {
    rel: DetScheme,
    attr: DetScheme,
    master: MasterKey,
    domains: DomainCatalog,
    aggregate_only: BTreeSet<String>,
    prob: ProbScheme,
    rng: StdRng,
    ope_cache: BTreeMap<String, (OpeScheme, i64)>,
}

impl AccessAreaDpe {
    /// Builds the scheme. `log` determines which attributes are
    /// aggregate-only (their constants — should any appear later — fall
    /// back to PROB, and their encrypted domain is a canonical
    /// placeholder).
    pub fn new(master: &MasterKey, domains: &DomainCatalog, log: &[Query], seed: u64) -> Self {
        AccessAreaDpe {
            rel: DetScheme::new(&SlotLabel::Relation.derive(master)),
            attr: DetScheme::new(&SlotLabel::Attribute.derive(master)),
            master: master.clone(),
            domains: domains.clone(),
            aggregate_only: aggregate_only_attributes(log),
            prob: ProbScheme::new(&SlotLabel::Constant("*aa-prob*").derive(master)),
            rng: StdRng::seed_from_u64(seed),
            ope_cache: BTreeMap::new(),
        }
    }

    /// The attributes classified as aggregate-only for this log.
    pub fn aggregate_only(&self) -> &BTreeSet<String> {
        &self.aggregate_only
    }

    fn ope_for(&mut self, attribute: &str) -> Result<&(OpeScheme, i64), CoreError> {
        if !self.ope_cache.contains_key(attribute) {
            let Some(AttributeDomain::Int { lo, hi }) = self.domains.get(attribute) else {
                return Err(CoreError::MissingDomain(attribute.to_string()));
            };
            let (lo, hi) = (*lo, *hi);
            let key = SlotLabel::OnionLayer(attribute, "const", "ope").derive(&self.master);
            let scheme = OpeScheme::new(&key, OpeDomain::new(0, (hi - lo) as u64));
            self.ope_cache.insert(attribute.to_string(), (scheme, lo));
        }
        Ok(&self.ope_cache[attribute])
    }

    fn det_const_for(&self, attribute: &str) -> DetScheme {
        DetScheme::new(&SlotLabel::Constant(attribute).derive(&self.master))
    }

    fn encrypt_int_constant(&mut self, attribute: &str, v: i64) -> Result<i64, CoreError> {
        let (scheme, bias) = self.ope_for(attribute)?;
        let biased = v
            .checked_sub(*bias)
            .filter(|b| *b >= 0)
            .ok_or(CoreError::OpeFailure {
                attribute: attribute.to_string(),
                value: v,
            })?;
        let ct = scheme
            .encrypt(biased as u64)
            .map_err(|_| CoreError::OpeFailure {
                attribute: attribute.to_string(),
                value: v,
            })?;
        i64::try_from(ct).map_err(|_| CoreError::OpeFailure {
            attribute: attribute.to_string(),
            value: v,
        })
    }

    /// The encrypted domain catalog the provider uses to compute access
    /// areas over encrypted queries (the *Domains* shared information,
    /// encrypted consistently with the constants).
    pub fn encrypted_domains(&mut self) -> Result<DomainCatalog, CoreError> {
        let mut out = DomainCatalog::new();
        let entries: Vec<(String, AttributeDomain)> = self
            .domains
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        for (attr, domain) in entries {
            let enc_attr = det_ident(&self.attr, &attr);
            let enc_domain = if self.aggregate_only.contains(&attr) {
                // No predicate ever touches these: any canonical placeholder
                // axis works (areas are only ever full or empty).
                AttributeDomain::Int { lo: 0, hi: 1 }
            } else {
                match domain {
                    AttributeDomain::Int { lo, hi } => AttributeDomain::Int {
                        lo: self.encrypt_int_constant(&attr, lo)?,
                        hi: self.encrypt_int_constant(&attr, hi)?,
                    },
                    AttributeDomain::Categorical(cats) => {
                        let det = self.det_const_for(&attr);
                        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
                        AttributeDomain::Categorical(
                            cats.iter()
                                .map(|c| {
                                    ident_hex(&det.encrypt(
                                        &literal_bytes(&Literal::Str(c.clone())),
                                        &mut rng,
                                    ))
                                })
                                .collect(),
                        )
                    }
                }
            };
            out.insert(enc_attr, enc_domain);
        }
        Ok(out)
    }

    /// Encrypted spelling of an attribute (commuting-square checks).
    pub fn encrypt_attribute_token(&self, name: &str) -> String {
        det_ident(&self.attr, name)
    }
}

impl QueryEncryptor for AccessAreaDpe {
    fn encrypt_query(&mut self, q: &Query) -> Result<Query, CoreError> {
        struct T<'a> {
            scheme: &'a mut AccessAreaDpe,
            error: Option<CoreError>,
        }
        impl IdentifierTransform for T<'_> {
            fn relation(&mut self, name: &str) -> String {
                det_ident(&self.scheme.rel, name)
            }
            fn attribute(&mut self, name: &str) -> String {
                det_ident(&self.scheme.attr, name)
            }
            fn constant(&mut self, col: &ColumnRef, value: &Literal) -> Literal {
                if self.error.is_some() {
                    return value.clone();
                }
                let attribute = col.column.as_str();
                if self.scheme.aggregate_only.contains(attribute) {
                    // PROB: fresh randomness per occurrence.
                    let ct = self
                        .scheme
                        .prob
                        .encrypt(&literal_bytes(value), &mut self.scheme.rng);
                    return Literal::Str(ident_hex(&ct));
                }
                match (self.scheme.domains.get(attribute).cloned(), value) {
                    (_, Literal::Null) => Literal::Null,
                    (Some(AttributeDomain::Int { .. }), Literal::Int(v)) => {
                        match self.scheme.encrypt_int_constant(attribute, *v) {
                            Ok(ct) => Literal::Int(ct),
                            Err(e) => {
                                self.error = Some(e);
                                value.clone()
                            }
                        }
                    }
                    (Some(AttributeDomain::Categorical(_)), Literal::Str(s)) => {
                        let det = self.scheme.det_const_for(attribute);
                        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
                        Literal::Str(ident_hex(
                            &det.encrypt(&literal_bytes(&Literal::Str(s.clone())), &mut rng),
                        ))
                    }
                    (Some(_), other) => {
                        self.error = Some(CoreError::TypeMismatch {
                            attribute: attribute.to_string(),
                            detail: format!("constant {other} conflicts with domain kind"),
                        });
                        value.clone()
                    }
                    (None, _) => {
                        self.error = Some(CoreError::MissingDomain(attribute.to_string()));
                        value.clone()
                    }
                }
            }
        }
        let mut transform = T {
            scheme: self,
            error: None,
        };
        let enc = rewrite_query(q, &mut transform);
        match transform.error {
            Some(e) => Err(e),
            None => Ok(enc),
        }
    }
}

/// Attributes that appear **only** as `SUM`/`AVG` arguments across the
/// whole log — the candidates for PROB in the access-area scheme (§IV-C).
pub fn aggregate_only_attributes(log: &[Query]) -> BTreeSet<String> {
    let mut in_aggregate = BTreeSet::new();
    let mut elsewhere = BTreeSet::new();
    for q in log {
        for item in &q.select {
            match item {
                SelectItem::Aggregate {
                    func: AggFunc::Sum | AggFunc::Avg,
                    arg: AggArg::Column(c),
                } => {
                    in_aggregate.insert(c.column.clone());
                }
                SelectItem::Aggregate {
                    arg: AggArg::Column(c),
                    ..
                } => {
                    elsewhere.insert(c.column.clone());
                }
                SelectItem::Column(c) => {
                    elsewhere.insert(c.column.clone());
                }
                _ => {}
            }
        }
        // Everything referenced outside the SELECT list counts as
        // "elsewhere": predicates, grouping, ordering, joins.
        if let Some(e) = &q.where_clause {
            collect_expr_attrs(e, &mut elsewhere);
        }
        for j in &q.joins {
            elsewhere.insert(j.left.column.clone());
            elsewhere.insert(j.right.column.clone());
        }
        for c in &q.group_by {
            elsewhere.insert(c.column.clone());
        }
        for o in &q.order_by {
            elsewhere.insert(o.col.column.clone());
        }
    }
    in_aggregate.difference(&elsewhere).cloned().collect()
}

fn collect_expr_attrs(e: &dpe_sql::Expr, out: &mut BTreeSet<String>) {
    use dpe_sql::Expr;
    match e {
        Expr::Comparison { col, .. }
        | Expr::Between { col, .. }
        | Expr::InList { col, .. }
        | Expr::IsNull { col, .. } => {
            out.insert(col.column.clone());
        }
        Expr::ColumnEq { left, right } => {
            out.insert(left.column.clone());
            out.insert(right.column.clone());
        }
        Expr::And(a, b) | Expr::Or(a, b) => {
            collect_expr_attrs(a, out);
            collect_expr_attrs(b, out);
        }
        Expr::Not(inner) => collect_expr_attrs(inner, out),
    }
}

/// Convenience: the set of attribute spellings of a log (used by the
/// harnesses for reporting).
pub fn log_attributes(log: &[Query]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for q in log {
        out.extend(analysis::attributes(q));
    }
    out
}

/// Dummy ciphertext accessor used by documentation examples.
pub fn _ciphertext_len(ct: &Ciphertext) -> usize {
    ct.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpe_sql::parse_query;
    use dpe_workload::sky_domains;

    fn master() -> MasterKey {
        MasterKey::from_bytes([17; 32])
    }

    fn q(sql: &str) -> Query {
        parse_query(sql).unwrap()
    }

    #[test]
    fn token_scheme_matches_example_4_shape() {
        // Enc(SELECT A1 FROM R WHERE A2 > 5): names and constant replaced,
        // structure intact.
        let mut scheme = TokenDpe::new(&master());
        let enc = scheme
            .encrypt_query(&q("SELECT a1 FROM r WHERE a2 > 5"))
            .unwrap();
        assert_eq!(enc.select.len(), 1);
        let text = enc.to_string();
        assert!(text.starts_with("SELECT x"));
        assert!(text.contains("FROM x"));
        assert!(text.contains("> 'x"));
        assert!(!text.contains("a1") && !text.contains(" r ") && !text.contains(" 5"));
    }

    #[test]
    fn token_walk_spells_generated_plain_and_encrypted_logs() {
        // The AST walk behind `TokenDistance` must never need its text
        // fallback on the generated logs, plain or token-encrypted, and must
        // agree with the rendered-and-lexed oracle bit for bit.
        use dpe_distance::{jaccard_distance, QueryDistance, TokenDistance};
        use dpe_sql::query_tokens;
        use dpe_sql::tokens::token_set_of_text;
        use dpe_workload::{LogConfig, LogGenerator};
        let plain = LogGenerator::generate(&LogConfig {
            queries: 300,
            seed: 7,
            ..LogConfig::default()
        });
        let enc = TokenDpe::new(&master()).encrypt_log(&plain).unwrap();
        for log in [&plain, &enc] {
            for q in log {
                assert!(query_tokens(q).is_some(), "fell back on {q}");
            }
            let lexed: Vec<_> = log[..80]
                .iter()
                .map(|q| token_set_of_text(&q.to_string()).unwrap())
                .collect();
            for (a, la) in log.iter().zip(&lexed) {
                for (b, lb) in log.iter().zip(&lexed) {
                    assert_eq!(
                        TokenDistance.distance(a, b).unwrap().to_bits(),
                        jaccard_distance(la, lb).to_bits(),
                        "{a}  vs  {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn token_scheme_is_deterministic_per_kind() {
        let mut scheme = TokenDpe::new(&master());
        let e1 = scheme
            .encrypt_query(&q("SELECT ra FROM photoobj WHERE ra > 5"))
            .unwrap();
        let e2 = scheme
            .encrypt_query(&q("SELECT ra FROM photoobj WHERE ra > 5"))
            .unwrap();
        assert_eq!(e1, e2);
    }

    #[test]
    fn token_scheme_shares_one_constant_key_across_attributes() {
        let mut scheme = TokenDpe::new(&master());
        let enc = scheme
            .encrypt_query(&q("SELECT ra FROM t WHERE ra = 5 OR dec = 5"))
            .unwrap();
        let consts = analysis::constants(&enc);
        assert_eq!(consts.len(), 2);
        assert_eq!(consts[0].1, consts[1].1, "same literal, same ciphertext");
    }

    #[test]
    fn per_attribute_variant_splits_constants() {
        let mut scheme = PerAttributeTokenDpe::new(&master());
        let enc = scheme
            .encrypt_query(&q("SELECT ra FROM t WHERE ra = 5 OR dec = 5"))
            .unwrap();
        let consts = analysis::constants(&enc);
        assert_ne!(
            consts[0].1, consts[1].1,
            "per-attribute keys split the token"
        );
    }

    #[test]
    fn structural_scheme_randomizes_constants_keeps_names() {
        let mut scheme = StructuralDpe::new(&master(), 9);
        let e1 = scheme
            .encrypt_query(&q("SELECT ra FROM t WHERE dec > 5"))
            .unwrap();
        let e2 = scheme
            .encrypt_query(&q("SELECT ra FROM t WHERE dec > 5"))
            .unwrap();
        // Names deterministic:
        assert_eq!(e1.from, e2.from);
        assert_eq!(e1.select, e2.select);
        // Constants randomized:
        assert_ne!(analysis::constants(&e1)[0].1, analysis::constants(&e2)[0].1);
    }

    #[test]
    fn access_area_scheme_uses_ope_for_ordered_attrs() {
        let mut scheme = AccessAreaDpe::new(&master(), &sky_domains(), &[], 3);
        let enc = scheme
            .encrypt_query(&q("SELECT ra FROM photoobj WHERE ra BETWEEN 1000 AND 2000"))
            .unwrap();
        let consts = analysis::constants(&enc);
        let (Literal::Int(lo), Literal::Int(hi)) = (&consts[0].1, &consts[1].1) else {
            panic!("expected OPE integers")
        };
        assert!(lo < hi, "order preserved");
        assert!(*lo > 2000, "ciphertexts nowhere near plaintexts");
    }

    #[test]
    fn access_area_scheme_det_for_categories() {
        let mut scheme = AccessAreaDpe::new(&master(), &sky_domains(), &[], 3);
        let e1 = scheme
            .encrypt_query(&q("SELECT objid FROM photoobj WHERE class = 'STAR'"))
            .unwrap();
        let e2 = scheme
            .encrypt_query(&q("SELECT objid FROM photoobj WHERE class = 'STAR'"))
            .unwrap();
        assert_eq!(e1, e2);
    }

    #[test]
    fn aggregate_only_detection() {
        let log = vec![
            q("SELECT AVG(z), SUM(z) FROM specobj"),
            q("SELECT objid FROM photoobj WHERE ra > 5"),
            q("SELECT SUM(rmag) FROM photoobj WHERE rmag < 2000"), // rmag also in WHERE
        ];
        let agg_only = aggregate_only_attributes(&log);
        assert!(agg_only.contains("z"));
        assert!(!agg_only.contains("rmag"), "rmag appears in a predicate");
        assert!(!agg_only.contains("ra"));
    }

    #[test]
    fn encrypted_domains_align_with_constants() {
        let mut scheme = AccessAreaDpe::new(&master(), &sky_domains(), &[], 3);
        let enc_domains = scheme.encrypted_domains().unwrap();
        // The encrypted domain of ra must bracket every encrypted constant.
        let enc_attr = scheme.encrypt_attribute_token("ra");
        let Some(AttributeDomain::Int { lo, hi }) = enc_domains.get(&enc_attr) else {
            panic!("ra must stay an ordered domain")
        };
        let ct = scheme.encrypt_int_constant("ra", 180_000).unwrap();
        assert!(*lo < ct && ct < *hi);
    }

    #[test]
    fn out_of_domain_constant_errors() {
        let mut scheme = AccessAreaDpe::new(&master(), &sky_domains(), &[], 3);
        let err = scheme
            .encrypt_query(&q("SELECT ra FROM photoobj WHERE ra > 999999999"))
            .unwrap_err();
        assert!(matches!(err, CoreError::OpeFailure { .. }));
    }

    #[test]
    fn unknown_attribute_errors() {
        let mut scheme = AccessAreaDpe::new(&master(), &sky_domains(), &[], 3);
        let err = scheme
            .encrypt_query(&q("SELECT mystery FROM photoobj WHERE mystery > 1"))
            .unwrap_err();
        assert!(matches!(err, CoreError::MissingDomain(_)));
    }
}
