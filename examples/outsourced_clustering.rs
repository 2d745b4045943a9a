//! Outsourced clustering — the paper's §I motivation end-to-end.
//!
//! A data owner wants a service provider to cluster its SQL query log
//! (e.g. to find user-interest groups) without revealing table names,
//! attribute names or constants. The owner encrypts the log with the
//! structure-distance DPE scheme (DET names, PROB constants — the most
//! secure row of Table I), ships it, and the provider runs k-medoids and
//! DBSCAN on the ciphertext log. The clusters come back identical to what
//! the owner would have computed locally.
//!
//! Run: `cargo run --release --example outsourced_clustering`

use dpe::core::scheme::{QueryEncryptor, StructuralDpe};
use dpe::core::verify::mining_agreement;
use dpe::crypto::MasterKey;
use dpe::distance::{DistanceMatrix, StructureDistance};
use dpe::mining::{dbscan, kmedoids, DbscanConfig, DbscanLabel, OutlierConfig};
use dpe::workload::{LogConfig, LogGenerator};

fn main() {
    // --- data owner side -------------------------------------------------
    let log = LogGenerator::generate(&LogConfig {
        queries: 80,
        seed: 0xC1,
        ..Default::default()
    });
    println!(
        "owner: generated a log of {} queries, e.g.\n  {}",
        log.len(),
        log[0]
    );

    let master = MasterKey::from_bytes([0x07; 32]);
    let mut scheme = StructuralDpe::new(&master, 1);
    let encrypted = scheme.encrypt_log(&log).expect("encryption");
    println!(
        "owner: encrypted the log; first item:\n  {}\n",
        encrypted[0]
    );

    // --- service provider side (sees only `encrypted`) -------------------
    // The log arrives in batches; the provider grows the packed distance
    // matrix incrementally, paying only for the new pairs each time.
    let mut matrix = DistanceMatrix::new();
    for (i, batch) in encrypted.chunks(20).enumerate() {
        matrix
            .extend(&encrypted[..i * 20], batch, &StructureDistance)
            .expect("distances");
        println!(
            "provider: batch of {} encrypted queries arrived — matrix now {}×{} ({} packed cells)",
            batch.len(),
            matrix.len(),
            matrix.len(),
            matrix.packed_len()
        );
    }
    // A batch provider would compute the same matrix in parallel instead:
    let parallel =
        DistanceMatrix::compute_parallel(&encrypted, &StructureDistance, 4).expect("distances");
    assert!(
        matrix.identical(&parallel),
        "incremental and parallel paths agree bit-for-bit"
    );
    let clusters = kmedoids(&matrix, 4);
    let density = dbscan(
        &matrix,
        DbscanConfig {
            eps: 0.45,
            min_pts: 3,
        },
    );
    let noise = density
        .iter()
        .filter(|l| matches!(l, DbscanLabel::Noise))
        .count();
    println!(
        "provider: k-medoids found medoids at encrypted queries {:?}",
        clusters.medoids
    );
    println!(
        "provider: DBSCAN found {} clusters and {} noise queries",
        density
            .iter()
            .filter_map(|l| match l {
                DbscanLabel::Cluster(c) => Some(*c),
                DbscanLabel::Noise => None,
            })
            .max()
            .map_or(0, |m| m + 1),
        noise
    );

    // --- verification (owner audits the protocol) -------------------------
    let local = DistanceMatrix::compute(&log, &StructureDistance).expect("local distances");
    let agreement = mining_agreement(
        &local,
        &matrix,
        4,
        DbscanConfig {
            eps: 0.45,
            min_pts: 3,
        },
        OutlierConfig { p: 0.7, d: 0.6 },
    );
    println!("\naudit: k-medoids ARI = {:.3}", agreement.kmedoids_ari);
    println!("audit: DBSCAN ARI    = {:.3}", agreement.dbscan_ari);
    println!(
        "audit: outlier sets identical = {}",
        agreement.outliers_identical
    );
    assert!(
        agreement.all_identical,
        "DPE guarantees identical mining results"
    );
    println!("\nThe provider computed exactly the clustering the owner would have — without the plaintext.");
}
