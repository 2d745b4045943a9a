//! Golden ciphertext pins.
//!
//! WAL records and snapshots hold encrypted queries, so the bytes a DET
//! scheme writes are part of the on-disk format: a faster encryption path
//! must reproduce them exactly. The expected values below were recorded
//! from the straightforward HMAC / SHA-256 / hex implementation; every
//! optimisation of those kernels has to keep them.

use dpe_core::{QueryEncryptor, StructuralDpe, TokenDpe};
use dpe_crypto::hmac::hmac_sha256;
use dpe_crypto::scheme::SymmetricScheme;
use dpe_crypto::sha256::sha256;
use dpe_crypto::{DetScheme, MasterKey, SymmetricKey};
use dpe_sql::Query;
use dpe_workload::{LogConfig, LogGenerator};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// SHA-256 of the canonical renderings, one query per line.
fn log_digest(log: &[Query]) -> String {
    let text: String = log.iter().map(|q| format!("{q}\n")).collect();
    hex(&sha256(text.as_bytes()))
}

fn pinned_log() -> Vec<Query> {
    LogGenerator::generate(&LogConfig {
        queries: 500,
        seed: 11,
        ..Default::default()
    })
}

/// Message and key lengths on both sides of the SHA-256 block edges.
const LENGTHS: [usize; 15] = [0, 1, 16, 17, 55, 56, 57, 58, 59, 60, 61, 62, 63, 64, 65];

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
        .collect()
}

#[test]
fn token_dpe_log_ciphertexts_are_pinned() {
    let enc = TokenDpe::new(&MasterKey::from_bytes([9; 32]))
        .encrypt_log(&pinned_log())
        .unwrap();
    assert_eq!(
        log_digest(&enc),
        "5ab0f545067798e1061c6a8d9fd01de5e99aadeec9acb619d7c928c5dbcba9f6"
    );
}

#[test]
fn structural_dpe_log_ciphertexts_are_pinned() {
    let enc = StructuralDpe::new(&MasterKey::from_bytes([9; 32]), 5)
        .encrypt_log(&pinned_log())
        .unwrap();
    assert_eq!(
        log_digest(&enc),
        "4e8f628904cacb30f0d278d761540057c2aec96f98567746250c35892a6e4b75"
    );
}

#[test]
fn raw_det_ciphertexts_are_pinned() {
    let det = DetScheme::new(&SymmetricKey::from_bytes([0x5a; 32]));
    let mut rng = rand::rngs::mock::StepRng::new(0, 1);
    let cts: Vec<String> = LENGTHS
        .iter()
        .map(|&len| det.encrypt(&pattern(len, 7), &mut rng).to_hex())
        .collect();
    assert_eq!(cts[0], "f3eb3cecea11fa9c539fc1dc");
    assert_eq!(cts[1], "ec8e9084b88eedd19f87274141");
    assert_eq!(
        cts[3],
        "d6744db737db45ad3d34758b65a9df5e148ef5687bd4c6b765c5bfb66b"
    );
    assert_eq!(
        cts[13],
        concat!(
            "26f5c9833a41c0288a13d5d16bb9c8f35b3ee30f578ee336564d6cd96472f8d1",
            "e7d33a9604a6a3d1a388503ffca68539165b94b527ba62cfd05f40ec40ebbe86",
            "9272003254d804b39995d2f3"
        )
    );
    assert_eq!(
        hex(&sha256(cts.join("\n").as_bytes())),
        "170c9f15e8a6ca6c79674d710b791a9b78fb7cdfbee3a1f7e97bba6b3dab2da4"
    );
}

#[test]
fn hmac_over_key_lengths_is_pinned() {
    let tags: Vec<String> = LENGTHS
        .iter()
        .flat_map(|&key_len| {
            let key = pattern(key_len, 3);
            LENGTHS
                .iter()
                .map(move |&msg_len| hex(&hmac_sha256(&key, &pattern(msg_len, 5))))
        })
        .collect();
    assert_eq!(
        tags[0],
        "b613679a0814d9ec772f95d778c35fc5ff1697c493715653c6c712144292c5ad"
    );
    assert_eq!(
        hex(&sha256(tags.join("\n").as_bytes())),
        "44c053ff64c652ae7d1a31a503e843d96818eae1c2c4946a982c49927aa03cf4"
    );
}
