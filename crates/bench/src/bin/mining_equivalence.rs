//! **Experiment M1 — "the mining results … are the same" (§I, §III-A).**
//!
//! For each of the four measures: compute the pairwise distance matrix of a
//! log and of its encryption, then run all four distance-based mining
//! algorithms of the paper's motivation (k-medoids \[5\], DBSCAN \[4\],
//! complete-link \[3\], Knorr–Ng outliers \[6\]) on both matrices and score
//! agreement. Under DPE every agreement score must be exactly 1.0 and the
//! matrices bit-identical.
//!
//! Run: `cargo run --release -p dpe-bench --bin mining_equivalence`

use dpe_bench::*;
use dpe_core::verify::mining_agreement;
use dpe_distance::{
    AccessAreaDistance, DistanceMatrix, QueryDistance, ResultConnection, StructureDistance,
    TokenDistance,
};
use dpe_mining::{DbscanConfig, OutlierConfig};
use dpe_sql::Query;

const K: usize = 4;
const DBSCAN: DbscanConfig = DbscanConfig {
    eps: 0.45,
    min_pts: 3,
};
const OUTLIERS: OutlierConfig = OutlierConfig { p: 0.7, d: 0.6 };
const THREADS: usize = 4;

fn check(
    name: &str,
    plain_log: &[Query],
    enc_log: &[Query],
    d_plain: &(impl QueryDistance + Sync),
    d_enc: &(impl QueryDistance + Sync),
) -> bool {
    // The matrices are computed on the parallel path (all four measures —
    // the result measure's workers share one engine connection and its
    // memo) and cross-checked bit-for-bit against the sequential path.
    let m_plain =
        DistanceMatrix::compute_parallel(plain_log, d_plain, THREADS).expect("plain matrix");
    let m_enc =
        DistanceMatrix::compute_parallel(enc_log, d_enc, THREADS).expect("encrypted matrix");
    let m_seq = DistanceMatrix::compute(plain_log, d_plain).expect("sequential");
    assert!(
        m_plain.identical(&m_seq),
        "{name}: parallel path diverged from sequential"
    );
    let identical = m_plain.identical(&m_enc);
    let agreement = mining_agreement(&m_plain, &m_enc, K, DBSCAN, OUTLIERS);
    println!(
        "  {name:<12} matrices bit-identical: {identical:<5}  k-medoids ARI {:.3}  DBSCAN ARI {:.3}  complete-link ARI {:.3}  outliers identical: {}",
        agreement.kmedoids_ari,
        agreement.dbscan_ari,
        agreement.hierarchical_ari,
        agreement.outliers_identical,
    );
    identical && agreement.all_identical
}

fn main() {
    println!("=== M1: mining-result equivalence under DPE ===\n");
    println!(
        "  parameters: n=80 queries, k-medoids k={K}, DBSCAN eps={} minPts={}, outliers p={} D={}\n",
        DBSCAN.eps, DBSCAN.min_pts, OUTLIERS.p, OUTLIERS.d
    );

    let log = experiment_log(80, 0x31);
    let fixtures = log_only_fixtures(&log).expect("schemes build");
    let mut ok = true;

    ok &= check(
        "token",
        &log,
        &fixtures.token.1,
        &TokenDistance,
        &TokenDistance,
    );
    ok &= check(
        "structure",
        &log,
        &fixtures.structural.1,
        &StructureDistance,
        &StructureDistance,
    );

    let mut access = fixtures.access_area.0;
    let d_enc = AccessAreaDistance::new(access.encrypted_domains().expect("encrypted domains"));
    ok &= check(
        "access-area",
        &log,
        &fixtures.access_area.1,
        &AccessAreaDistance::new(experiment_domains()),
        &d_enc,
    );

    let db = experiment_database(60, 0x32);
    let rlog = result_safe_log(80, 0x31);
    let (dpe, enc_rlog) = result_fixture(&db, &rlog).expect("result scheme");
    ok &= check(
        "result",
        &rlog,
        &enc_rlog,
        &ResultConnection::new(&db),
        &ResultConnection::new(dpe.encrypted_database()),
    );

    if ok {
        println!(
            "\nM1 complete: every algorithm returns identical results on plaintext and ciphertext."
        );
    } else {
        println!("\nM1 FAILED: some mining outcome diverged.");
        std::process::exit(1);
    }
}
