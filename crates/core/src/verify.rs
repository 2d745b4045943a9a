//! The empirical verification harness: c-equivalence commuting squares
//! (Definition 2) and mining-result invariance — plus re-exported
//! Definition-1 checking from [`crate::dpe`].

use crate::error::CoreError;
use crate::scheme::{QueryEncryptor, StructuralDpe, TokenDpe};
use dpe_distance::{DistanceError, DistanceMatrix};
use dpe_mining::{
    adjusted_rand_index, complete_link, db_outliers, dbscan, kmedoids, rand_index, DbscanConfig,
    DbscanLabel, OutlierConfig,
};
use dpe_sql::features::Feature;
use dpe_sql::{analysis, feature_set, token_set, ColumnRef, Literal, Query};
use std::collections::BTreeSet;

/// Checks `Enc(tokens(Q)) == tokens(Enc(Q))` for one query (token
/// equivalence, Definition 2 with `c = tokens`).
///
/// `Enc` on the token set applies the scheme's per-kind token encryption:
/// relation names via `EncRel`, attributes via `EncAttr`, constants via the
/// shared constant key; keywords and operators map to themselves.
pub fn token_commuting_square(scheme: &mut TokenDpe, q: &Query) -> Result<bool, CoreError> {
    // Left path: c then Enc — map each plaintext token by kind.
    let rels = analysis::relations(q);
    let attrs = analysis::attributes(q);
    let consts: BTreeSet<String> = analysis::constants(q)
        .into_iter()
        .map(|(_, lit)| lit.to_string())
        .collect();
    let enc_of_token = |tok: &str| -> String {
        if rels.contains(tok) {
            scheme.encrypt_relation_token(tok)
        } else if attrs.contains(tok) {
            scheme.encrypt_attribute_token(tok)
        } else if consts.contains(tok) {
            let lit = if let Some(stripped) = tok.strip_prefix('\'') {
                Literal::Str(stripped.trim_end_matches('\'').replace("''", "'"))
            } else if tok == "NULL" {
                Literal::Null
            } else {
                Literal::Int(tok.parse().expect("numeric token"))
            };
            scheme.encrypt_constant_token(&lit).to_string()
        } else {
            tok.to_string() // keywords, operators, punctuation
        }
    };
    let enc_of_c: BTreeSet<String> = token_set(q)
        .map_err(DistanceError::from)?
        .iter()
        .map(|t| enc_of_token(t))
        .collect();

    // Right path: Enc then c.
    let c_of_enc = token_set(&scheme.encrypt_query(q)?).map_err(DistanceError::from)?;

    Ok(enc_of_c == c_of_enc)
}

/// Checks `Enc(features(Q)) == features(Enc(Q))` (structural equivalence).
pub fn structural_commuting_square(
    scheme: &mut StructuralDpe,
    q: &Query,
) -> Result<bool, CoreError> {
    let enc_col = |c: &ColumnRef| ColumnRef {
        table: c.table.as_deref().map(|t| scheme.encrypt_relation_token(t)),
        column: scheme.encrypt_attribute_token(&c.column),
    };
    let enc_feature = |f: &Feature| -> Feature {
        match f {
            Feature::Select(c) => Feature::Select(enc_col(c)),
            Feature::SelectAgg(func, col) => Feature::SelectAgg(*func, col.as_ref().map(enc_col)),
            Feature::From(t) => Feature::From(scheme.encrypt_relation_token(t)),
            Feature::Where(c, op) => Feature::Where(enc_col(c), op.clone()),
            Feature::Join(a, b) => {
                let (ea, eb) = (enc_col(a), enc_col(b));
                if ea <= eb {
                    Feature::Join(ea, eb)
                } else {
                    Feature::Join(eb, ea)
                }
            }
            Feature::GroupBy(c) => Feature::GroupBy(enc_col(c)),
            Feature::OrderBy(c) => Feature::OrderBy(enc_col(c)),
        }
    };
    let enc_of_c: BTreeSet<Feature> = feature_set(q).iter().map(enc_feature).collect();
    let c_of_enc = feature_set(&scheme.encrypt_query(q)?);
    Ok(enc_of_c == c_of_enc)
}

/// Agreement scores between the mining outputs on two distance matrices
/// (plaintext vs encrypted). All four algorithms of the paper's motivation
/// are exercised.
#[derive(Debug, Clone, PartialEq)]
pub struct MiningAgreement {
    /// ARI between k-medoids clusterings.
    pub kmedoids_ari: f64,
    /// Rand index between k-medoids clusterings.
    pub kmedoids_rand: f64,
    /// ARI between DBSCAN clusterings (noise treated as its own label).
    pub dbscan_ari: f64,
    /// ARI between complete-link cuts.
    pub hierarchical_ari: f64,
    /// `true` iff the DB(p, D)-outlier sets are identical.
    pub outliers_identical: bool,
    /// `true` iff every score signals identical results.
    pub all_identical: bool,
}

/// Runs k-medoids, DBSCAN, complete-link and outlier detection on both
/// matrices and scores the agreement. Under a correct DPE scheme every
/// score is exactly 1.0 / `true` because the matrices are bit-identical.
pub fn mining_agreement(
    plain: &DistanceMatrix,
    encrypted: &DistanceMatrix,
    k: usize,
    dbscan_cfg: DbscanConfig,
    outlier_cfg: OutlierConfig,
) -> MiningAgreement {
    let km_p = kmedoids(plain, k).assignment;
    let km_e = kmedoids(encrypted, k).assignment;

    let db_label = |l: DbscanLabel| match l {
        DbscanLabel::Cluster(c) => c,
        DbscanLabel::Noise => usize::MAX - 1,
    };
    let db_p: Vec<usize> = dbscan(plain, dbscan_cfg)
        .into_iter()
        .map(db_label)
        .collect();
    let db_e: Vec<usize> = dbscan(encrypted, dbscan_cfg)
        .into_iter()
        .map(db_label)
        .collect();
    // Renumber the sentinel labels densely for the contingency table.
    let dense = |v: &[usize]| -> Vec<usize> {
        let mut map = std::collections::BTreeMap::new();
        v.iter()
            .map(|&x| {
                let next = map.len();
                *map.entry(x).or_insert(next)
            })
            .collect()
    };
    let (db_p, db_e) = (dense(&db_p), dense(&db_e));

    let hi_p = complete_link(plain).cut(k.min(plain.len().max(1)));
    let hi_e = complete_link(encrypted).cut(k.min(encrypted.len().max(1)));

    let out_p = db_outliers(plain, outlier_cfg);
    let out_e = db_outliers(encrypted, outlier_cfg);

    let kmedoids_ari = adjusted_rand_index(&km_p, &km_e);
    let kmedoids_rand = rand_index(&km_p, &km_e);
    let dbscan_ari = adjusted_rand_index(&db_p, &db_e);
    let hierarchical_ari = adjusted_rand_index(&hi_p, &hi_e);
    let outliers_identical = out_p == out_e;

    MiningAgreement {
        kmedoids_ari,
        kmedoids_rand,
        dbscan_ari,
        hierarchical_ari,
        outliers_identical,
        all_identical: kmedoids_ari == 1.0
            && kmedoids_rand == 1.0
            && dbscan_ari == 1.0
            && hierarchical_ari == 1.0
            && outliers_identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpe_crypto::MasterKey;
    use dpe_sql::parse_query;

    fn master() -> MasterKey {
        MasterKey::from_bytes([23; 32])
    }

    #[test]
    fn token_square_commutes_on_paper_example() {
        let mut scheme = TokenDpe::new(&master());
        let q = parse_query("SELECT a1 FROM r WHERE a2 > 5").unwrap();
        assert!(token_commuting_square(&mut scheme, &q).unwrap());
    }

    #[test]
    fn token_square_commutes_on_complex_queries() {
        let mut scheme = TokenDpe::new(&master());
        for sql in [
            "SELECT DISTINCT ra, dec FROM photoobj WHERE ra BETWEEN 1 AND 5 AND class IN ('STAR', 'QSO')",
            "SELECT COUNT(*) FROM specobj GROUP BY specclass ORDER BY specclass DESC",
            "SELECT p.objid FROM photoobj JOIN specobj ON photoobj.objid = specobj.bestobjid WHERE z > 100",
        ] {
            let q = parse_query(sql).unwrap();
            assert!(token_commuting_square(&mut scheme, &q).unwrap(), "{sql}");
        }
    }

    #[test]
    fn structural_square_commutes() {
        let mut scheme = StructuralDpe::new(&master(), 4);
        for sql in [
            "SELECT a1 FROM r WHERE a2 > 5",
            "SELECT SUM(z) FROM specobj WHERE z > 10",
            "SELECT class, COUNT(*) FROM photoobj GROUP BY class ORDER BY class",
            "SELECT x FROM t WHERE t.a = u.b",
        ] {
            let q = parse_query(sql).unwrap();
            assert!(
                structural_commuting_square(&mut scheme, &q).unwrap(),
                "{sql}"
            );
        }
    }

    #[test]
    fn identical_matrices_agree_perfectly() {
        let m = DistanceMatrix::from_fn(12, |i, j| ((i * 3 + j) % 7) as f64 / 7.0 + 0.01);
        let agreement = mining_agreement(
            &m,
            &m.clone(),
            3,
            DbscanConfig {
                eps: 0.4,
                min_pts: 3,
            },
            OutlierConfig { p: 0.7, d: 0.6 },
        );
        assert!(agreement.all_identical, "{agreement:?}");
    }

    #[test]
    fn perturbed_matrix_detected() {
        let m = DistanceMatrix::from_fn(12, |i, j| ((i + j) % 5) as f64 / 5.0 + 0.05);
        // Swap near and far: a gross perturbation.
        let bad = DistanceMatrix::from_fn(12, |i, j| 1.0 - ((i + j) % 5) as f64 / 5.0);
        let agreement = mining_agreement(
            &m,
            &bad,
            3,
            DbscanConfig {
                eps: 0.3,
                min_pts: 3,
            },
            OutlierConfig { p: 0.7, d: 0.6 },
        );
        assert!(!agreement.all_identical);
    }
}
