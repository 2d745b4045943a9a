//! Durability for the serving engine: a per-shard write-ahead log plus
//! epoch-consistent snapshots, so a provider process can crash at any
//! instant and recover shards that serve **bit-identical** responses.
//!
//! # Layering
//!
//! ```text
//!              ┌────────────────────────────────────────────┐
//!   ingest ──▶ │ shard (memory): queries + packed matrix    │──▶ serve
//!              │        epoch e  (bumps on every ingest)    │
//!              └──────────────┬─────────────────────────────┘
//!                             │ logged beside readers, before the
//!                             ▼ shard commits (visible iff durable)
//!              wal/shard-i.wal   ← frame per ingest: [len][fnv64][payload]
//!                             │ checkpoint (all shards, one epoch cut)
//!                             ▼
//!              snap/snap-s.dps  ← ciphertext store + packed matrix bits
//! ```
//!
//! The **epoch counter** the server already bumps on every ingest (PR 3/4)
//! doubles as the recovery cursor: each WAL record carries the epoch the
//! shard reached *after* applying that batch, and a snapshot records the
//! epoch of every shard at one consistent cut. Recovery is therefore
//! `load newest valid snapshot → re-apply WAL records with epoch >
//! snapshot epoch → done`; clustering plans and metric indexes are
//! derived state and get rebuilt on demand (plans) or eagerly on restore
//! (indexes).
//!
//! # What is on disk
//!
//! Records hold **ciphertext**: the server ingests already-encrypted
//! query ASTs, and the WAL serializes exactly those ASTs with the
//! structural codec in [`codec`] — the log leaks nothing the serving
//! shard did not already hold. Matrices are snapshotted as their packed
//! `f64` cell bits ([`dpe_distance::DistanceMatrix::as_packed`]), which
//! is what makes a restored matrix bit-identical rather than merely
//! approximately equal.
//!
//! # Failure semantics
//!
//! * A **torn tail** (the file ends mid-frame — the classic crash during
//!   an append) is *expected* damage: replay keeps every complete frame
//!   and reports the tail via [`wal::WalReplay::torn_tail`]; reopening
//!   for append truncates the torn bytes, and [`ShardRecovery::torn_tail`]
//!   still reports that they were discarded; [`DurabilityStats::torn_tails`]
//!   counts the shard logs so truncated.
//! * A **corrupt frame** (checksum mismatch on a *complete* frame, or a
//!   checksum-valid frame that does not decode, including one holding a
//!   query whose rendering does not lex) is *unexpected* damage
//!   and surfaces as [`DurabilityError::CorruptRecord`] — never as a
//!   silently wrong shard. Such a query can also be legacy data: before
//!   the ingest door checked lexing, a lone one could be ingested into an
//!   empty shard and logged, and a log holding it no longer recovers.
//! * A **partial or corrupt snapshot** fails its whole-body checksum and
//!   surfaces as [`DurabilityError::CorruptSnapshot`]; snapshots are
//!   written to a temp file and atomically renamed, so the newest
//!   `snap-*.dps` is complete unless the storage itself corrupted it.
//! * An **epoch gap** (WAL records that do not chain contiguously from
//!   the snapshot epoch) means records were lost out of order and
//!   surfaces as [`DurabilityError::EpochGap`].
//! * A **returned I/O error** on append or sync truncates the log back to
//!   its last good length ([`wal::WalWriter::append`]), so the log stays
//!   a valid prefix and the caller rejects the batch. If that truncate
//!   fails too, appends are refused with [`DurabilityError::WalFenced`]
//!   until a checkpoint resets the log.
//!
//! [`testkit::FailpointFs`] injects the harshest crash model — writes
//! acknowledged to the caller but never reaching the disk past a byte
//! budget — which is what the server's kill-after-every-record sweep
//! drives; [`testkit::ErrorFs`] makes one append return an error, which
//! is what its error sweep drives.

#![forbid(unsafe_code)]

pub mod codec;
pub mod engine;
pub mod snapshot;
pub mod testkit;
pub mod wal;

pub use engine::{Durability, DurabilityStats, ShardRecovery, ShardStateRef};
pub use snapshot::ShardSnapshot;
pub use wal::{WalRecord, WalReplay};

use std::fmt;

/// Typed durability failures — damaged on-disk state is always reported,
/// never turned into a garbage shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurabilityError {
    /// An underlying filesystem operation failed.
    Io {
        /// What the engine was doing (path and operation).
        context: String,
        /// The OS error, stringified (io::Error is not `Clone`/`Eq`).
        error: String,
    },
    /// A complete WAL frame failed its checksum or did not decode.
    CorruptRecord {
        /// Shard whose log is damaged.
        shard: usize,
        /// Byte offset of the damaged frame within the log file.
        offset: u64,
        /// What exactly was wrong.
        detail: String,
    },
    /// A snapshot file was truncated, failed its checksum, or did not
    /// decode.
    CorruptSnapshot {
        /// The snapshot file.
        path: String,
        /// What exactly was wrong.
        detail: String,
    },
    /// WAL records do not chain contiguously from the snapshot epoch.
    EpochGap {
        /// Shard whose chain is broken.
        shard: usize,
        /// Epoch the next record was required to carry.
        expected: u64,
        /// Epoch it actually carried.
        found: u64,
    },
    /// The shard's WAL refuses appends: an earlier failed append could
    /// not be truncated away, so the log may end in a partial frame. A
    /// successful checkpoint resets the log and lifts the refusal.
    WalFenced {
        /// Shard whose log refuses appends.
        shard: usize,
    },
    /// The directory's manifest disagrees with the caller's configuration.
    Manifest(String),
    /// A fresh durable server was pointed at a directory that already
    /// holds state (use recovery instead, or a new directory).
    ExistingState {
        /// The offending directory.
        dir: String,
    },
    /// A structural decode failure outside any checksum's protection
    /// (should not happen for files this crate wrote).
    Codec(String),
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityError::Io { context, error } => write!(f, "io error {context}: {error}"),
            DurabilityError::CorruptRecord {
                shard,
                offset,
                detail,
            } => write!(
                f,
                "corrupt WAL record (shard {shard}, byte offset {offset}): {detail}"
            ),
            DurabilityError::CorruptSnapshot { path, detail } => {
                write!(f, "corrupt snapshot {path}: {detail}")
            }
            DurabilityError::EpochGap {
                shard,
                expected,
                found,
            } => write!(
                f,
                "epoch gap in shard {shard}'s WAL: expected epoch {expected}, found {found}"
            ),
            DurabilityError::WalFenced { shard } => write!(
                f,
                "shard {shard}'s WAL refuses appends until a checkpoint: a failed append \
                 could not be rolled back"
            ),
            DurabilityError::Manifest(why) => write!(f, "manifest mismatch: {why}"),
            DurabilityError::ExistingState { dir } => write!(
                f,
                "directory {dir} already holds durable state; recover from it or pick a fresh one"
            ),
            DurabilityError::Codec(why) => write!(f, "codec error: {why}"),
        }
    }
}

impl std::error::Error for DurabilityError {}

impl DurabilityError {
    /// Wraps an [`std::io::Error`] with a human context string.
    pub fn io(context: impl Into<String>, error: &std::io::Error) -> DurabilityError {
        DurabilityError::Io {
            context: context.into(),
            error: error.to_string(),
        }
    }
}

/// FNV-1a 64-bit — the frame and snapshot checksum. Not cryptographic
/// (the threat model here is torn writes and bit rot, not forgery; the
/// *contents* are ciphertext already) but fast, dependency-free, and
/// sensitive to every byte.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_reference_vectors() {
        // Canonical FNV-1a 64 vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv_sensitive_to_every_byte() {
        let base = b"hello world".to_vec();
        let h = fnv1a64(&base);
        for i in 0..base.len() {
            let mut flipped = base.clone();
            flipped[i] ^= 0x01;
            assert_ne!(fnv1a64(&flipped), h, "flip at byte {i} must change hash");
        }
    }

    #[test]
    fn errors_display_context() {
        let e = DurabilityError::CorruptRecord {
            shard: 3,
            offset: 42,
            detail: "checksum mismatch".into(),
        };
        let s = e.to_string();
        assert!(s.contains("shard 3") && s.contains("42"), "{s}");
    }
}
