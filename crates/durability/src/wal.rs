//! The per-shard write-ahead log.
//!
//! One file per shard (`wal/shard-<i>.wal`): an 8-byte magic header
//! followed by self-delimiting frames
//!
//! ```text
//! [payload len: u32 LE] [fnv1a64(payload): u64 LE] [payload]
//! ```
//!
//! where the payload is a record tag plus the ingest batch's queries and
//! the epoch the shard reached after applying the batch. The frame
//! geometry gives the two recovery guarantees the differential suite
//! pins:
//!
//! * **Torn tails truncate.** If the file ends before a frame's declared
//!   length (the only damage a crash during `append` can cause on a
//!   POSIX file), [`read_wal`] keeps every complete frame and reports
//!   the torn byte count — recovery proceeds with the durable prefix.
//! * **Corruption is typed.** A *complete* frame whose checksum fails,
//!   or a checksum-valid frame that does not decode, is damage a crash
//!   cannot produce; it surfaces as
//!   [`DurabilityError::CorruptRecord`] with the byte offset, never as a
//!   silently different replay.
//!
//! A failed append leaves no trace: when the sink returns an error,
//! [`WalWriter::append`] truncates it back to the last good length, so
//! the log is still a valid prefix and the next frame lands where the
//! failed one would have.
//!
//! Appends go through the [`WalSink`] trait so the crash-recovery sweeps
//! can substitute [`crate::testkit::FailpointFs`] sinks that drop
//! acknowledged bytes past a budget — the harshest crash model — and
//! [`crate::testkit::ErrorFs`] sinks that return errors.

use crate::codec::{read_queries, write_queries, Reader, Writer};
use crate::{fnv1a64, DurabilityError};
use dpe_sql::Query;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::Path;

/// File magic: identifies a shard WAL and its format version.
pub const WAL_MAGIC: [u8; 8] = *b"DPEWAL1\n";

/// Frame header bytes ahead of the payload: u32 length + u64 checksum.
pub const FRAME_HEADER: usize = 12;

/// Payload tag for an ingest-batch record.
const TAG_INGEST: u8 = 1;

/// One durable log record: an ingest batch plus the epoch the shard
/// reached after applying it (the recovery cursor).
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Shard epoch *after* this batch was applied.
    pub epoch: u64,
    /// The ingested (ciphertext) queries; empty batches are logged too,
    /// because a direct `ingest` of an empty batch still bumps the epoch.
    pub queries: Vec<Query>,
}

impl WalRecord {
    /// The record's canonical payload bytes.
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(TAG_INGEST);
        w.u64(self.epoch);
        write_queries(&mut w, &self.queries);
        w.into_bytes()
    }

    /// Decodes a payload produced by [`WalRecord::encode_payload`].
    pub fn decode_payload(bytes: &[u8]) -> Result<WalRecord, DurabilityError> {
        let mut r = Reader::new(bytes);
        match r.u8("record tag")? {
            TAG_INGEST => {}
            t => return Err(DurabilityError::Codec(format!("unknown record tag {t}"))),
        }
        let epoch = r.u64("record epoch")?;
        let queries = read_queries(&mut r)?;
        r.finish()?;
        Ok(WalRecord { epoch, queries })
    }

    /// The full frame (header + payload) this record appends.
    pub fn encode_frame(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame
    }
}

/// Result of replaying one shard's log.
#[derive(Debug, Clone, PartialEq)]
pub struct WalReplay {
    /// Every complete, checksum-valid record, in append order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (magic + complete frames) — what
    /// reopening for append truncates to.
    pub valid_len: u64,
    /// `true` when bytes past `valid_len` were discarded as a torn tail.
    pub torn_tail: bool,
}

/// Replays a shard WAL image. `shard` only labels errors.
///
/// An empty image is a fresh log. A header shorter or different from
/// [`WAL_MAGIC`] is corruption ([`DurabilityError::CorruptRecord`] at
/// offset 0): the 8-byte magic is written and synced as the log's very
/// first append, so only a torn *first* write can produce a short
/// header, and rejecting it loudly beats silently emptying a file we
/// did not write.
pub fn read_wal(bytes: &[u8], shard: usize) -> Result<WalReplay, DurabilityError> {
    if bytes.is_empty() {
        return Ok(WalReplay {
            records: Vec::new(),
            valid_len: 0,
            torn_tail: false,
        });
    }
    if bytes.len() < WAL_MAGIC.len() || bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(DurabilityError::CorruptRecord {
            shard,
            offset: 0,
            detail: "bad or missing WAL magic".into(),
        });
    }
    let mut records = Vec::new();
    let mut pos = WAL_MAGIC.len();
    loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            return Ok(WalReplay {
                records,
                valid_len: pos as u64,
                torn_tail: false,
            });
        }
        if remaining < FRAME_HEADER {
            return Ok(WalReplay {
                records,
                valid_len: pos as u64,
                torn_tail: true,
            });
        }
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        let crc = u64::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
            bytes[pos + 8],
            bytes[pos + 9],
            bytes[pos + 10],
            bytes[pos + 11],
        ]);
        if remaining - FRAME_HEADER < len {
            // The frame was cut off mid-payload: a torn append.
            return Ok(WalReplay {
                records,
                valid_len: pos as u64,
                torn_tail: true,
            });
        }
        let payload = &bytes[pos + FRAME_HEADER..pos + FRAME_HEADER + len];
        if fnv1a64(payload) != crc {
            return Err(DurabilityError::CorruptRecord {
                shard,
                offset: pos as u64,
                detail: "frame checksum mismatch".into(),
            });
        }
        let record =
            WalRecord::decode_payload(payload).map_err(|e| DurabilityError::CorruptRecord {
                shard,
                offset: pos as u64,
                detail: format!("checksum-valid frame failed to decode: {e}"),
            })?;
        records.push(record);
        pos += FRAME_HEADER + len;
    }
}

/// Destination of WAL bytes. The production implementation is
/// [`FileSink`]; [`crate::testkit::FailpointFs`] and
/// [`crate::testkit::ErrorFs`] substitute fault-injecting sinks.
pub trait WalSink: Send {
    /// Appends bytes at the end of the log.
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()>;
    /// Makes previously appended bytes durable.
    fn sync(&mut self) -> std::io::Result<()>;
    /// Resets the log to exactly `keep` bytes (used after a checkpoint,
    /// with `keep` = the magic header length).
    fn truncate_to(&mut self, keep: u64) -> std::io::Result<()>;
}

/// The production sink: an append-mode file with `sync_data` durability.
#[derive(Debug)]
pub struct FileSink {
    file: File,
}

impl FileSink {
    /// Opens (creating if needed) the file in append mode.
    pub fn open(path: &Path) -> std::io::Result<FileSink> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(FileSink { file })
    }
}

impl WalSink for FileSink {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.file.write_all(bytes)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_data()
    }

    fn truncate_to(&mut self, keep: u64) -> std::io::Result<()> {
        self.file.set_len(keep)?;
        self.file.sync_data()
    }
}

/// Why [`WalWriter::append`] refused or failed a record.
#[derive(Debug)]
pub enum AppendError {
    /// The sink's `append` or `sync` returned this error. The log was
    /// truncated back to its last good length, so it is still a valid
    /// prefix and later appends may proceed.
    Io(std::io::Error),
    /// An earlier failed append could not be truncated away, so the log
    /// may end in a partial frame. Every append is refused until
    /// [`WalWriter::reset`] succeeds.
    Fenced,
}

/// Append half of one shard's WAL: frames records onto a sink and tracks
/// byte/record counters for [`crate::DurabilityStats`].
pub struct WalWriter {
    sink: Box<dyn WalSink>,
    /// Bytes the writer believes are in the log (header + frames).
    len: u64,
    /// Records appended since open.
    appended: u64,
    /// Set when a failed append could not be rolled back; cleared by a
    /// successful [`WalWriter::reset`].
    fenced: bool,
}

impl std::fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalWriter")
            .field("len", &self.len)
            .field("appended", &self.appended)
            .field("fenced", &self.fenced)
            .finish_non_exhaustive()
    }
}

impl WalWriter {
    /// Wraps a sink positioned at the end of a valid log of `existing_len`
    /// bytes. When `existing_len` is 0 the magic header is written (and
    /// synced) first.
    pub fn new(mut sink: Box<dyn WalSink>, existing_len: u64) -> std::io::Result<WalWriter> {
        let len = if existing_len == 0 {
            sink.append(&WAL_MAGIC)?;
            sink.sync()?;
            WAL_MAGIC.len() as u64
        } else {
            existing_len
        };
        Ok(WalWriter {
            sink,
            len,
            appended: 0,
            fenced: false,
        })
    }

    /// Appends one record frame and syncs it. When the sink's `append` or
    /// `sync` fails, the sink is truncated back to the last good length,
    /// so the log stays a valid prefix after any single I/O error: the
    /// record is not in the log, and the next append lands where it would
    /// have. If that truncate fails too, the writer is fenced.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), AppendError> {
        if self.fenced {
            return Err(AppendError::Fenced);
        }
        let frame = record.encode_frame();
        if let Err(e) = self.sink.append(&frame).and_then(|()| self.sink.sync()) {
            if self.sink.truncate_to(self.len).is_err() {
                self.fenced = true;
            }
            return Err(AppendError::Io(e));
        }
        self.len += frame.len() as u64;
        self.appended += 1;
        Ok(())
    }

    /// Drops every frame (after a checkpoint made them redundant),
    /// keeping only the magic header. Success also lifts a fence.
    pub fn reset(&mut self) -> std::io::Result<()> {
        self.sink.truncate_to(WAL_MAGIC.len() as u64)?;
        self.len = WAL_MAGIC.len() as u64;
        self.fenced = false;
        Ok(())
    }

    /// Bytes in the log as the writer sees them.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when the log holds no frames.
    pub fn is_empty(&self) -> bool {
        self.len <= WAL_MAGIC.len() as u64
    }

    /// Records appended through this writer since it was opened.
    pub fn appended(&self) -> u64 {
        self.appended
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpe_sql::parse_query;

    fn record(epoch: u64, n: usize) -> WalRecord {
        WalRecord {
            epoch,
            queries: (0..n)
                .map(|i| parse_query(&format!("SELECT c{i} FROM t WHERE k = {}", epoch)).unwrap())
                .collect(),
        }
    }

    fn log_of(records: &[WalRecord]) -> Vec<u8> {
        let mut bytes = WAL_MAGIC.to_vec();
        for r in records {
            bytes.extend_from_slice(&r.encode_frame());
        }
        bytes
    }

    #[test]
    fn frame_round_trip() {
        let records = vec![record(1, 3), record(2, 0), record(3, 1)];
        let replay = read_wal(&log_of(&records), 0).unwrap();
        assert_eq!(replay.records, records);
        assert!(!replay.torn_tail);
        assert_eq!(replay.valid_len, log_of(&records).len() as u64);
    }

    #[test]
    fn empty_and_header_only_logs_are_fresh() {
        assert_eq!(read_wal(&[], 0).unwrap().records, Vec::new());
        let replay = read_wal(&WAL_MAGIC, 0).unwrap();
        assert!(replay.records.is_empty() && !replay.torn_tail);
    }

    #[test]
    fn every_torn_prefix_recovers_the_complete_frames() {
        let records = vec![record(1, 2), record(2, 1), record(3, 3)];
        let bytes = log_of(&records);
        // Frame boundaries: magic, then cumulative frame ends.
        let mut boundaries = vec![WAL_MAGIC.len()];
        for r in &records {
            boundaries.push(boundaries.last().unwrap() + r.encode_frame().len());
        }
        for cut in WAL_MAGIC.len()..=bytes.len() {
            let replay = read_wal(&bytes[..cut], 0).unwrap();
            let expect = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(replay.records.len(), expect, "cut {cut}");
            assert_eq!(replay.records[..], records[..expect], "cut {cut}");
            assert_eq!(replay.valid_len as usize, boundaries[expect], "cut {cut}");
            assert_eq!(replay.torn_tail, !boundaries.contains(&cut), "cut {cut}");
        }
    }

    #[test]
    fn bad_magic_is_corruption_not_emptiness() {
        let mut bytes = log_of(&[record(1, 1)]);
        bytes[2] ^= 0xFF;
        assert!(matches!(
            read_wal(&bytes, 7),
            Err(DurabilityError::CorruptRecord {
                shard: 7,
                offset: 0,
                ..
            })
        ));
        // A too-short non-empty header is also corruption.
        assert!(read_wal(&WAL_MAGIC[..3], 0).is_err());
    }

    #[test]
    fn checksum_mismatch_on_complete_frame_is_typed() {
        let records = vec![record(1, 1), record(2, 2)];
        let bytes = log_of(&records);
        let second_frame_at = WAL_MAGIC.len() + records[0].encode_frame().len();
        // Flip a payload byte of the *second* frame: the first must still
        // replay, the damage must be located at the second frame's offset.
        let mut corrupted = bytes.clone();
        let idx = second_frame_at + FRAME_HEADER + 2;
        corrupted[idx] ^= 0x40;
        match read_wal(&corrupted, 0) {
            Err(DurabilityError::CorruptRecord { offset, .. }) => {
                assert_eq!(offset as usize, second_frame_at);
            }
            other => panic!("expected CorruptRecord, got {other:?}"),
        }
    }

    #[test]
    fn writer_tracks_length_and_reset() {
        struct MemSink(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
        impl WalSink for MemSink {
            fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
                self.0.lock().unwrap().extend_from_slice(bytes);
                Ok(())
            }
            fn sync(&mut self) -> std::io::Result<()> {
                Ok(())
            }
            fn truncate_to(&mut self, keep: u64) -> std::io::Result<()> {
                self.0.lock().unwrap().truncate(keep as usize);
                Ok(())
            }
        }
        let buf = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut w = WalWriter::new(Box::new(MemSink(buf.clone())), 0).unwrap();
        assert!(w.is_empty());
        w.append(&record(1, 2)).unwrap();
        w.append(&record(2, 1)).unwrap();
        assert_eq!(w.appended(), 2);
        assert_eq!(w.len() as usize, buf.lock().unwrap().len());
        let replay = read_wal(&buf.lock().unwrap(), 0).unwrap();
        assert_eq!(replay.records.len(), 2);
        w.reset().unwrap();
        assert!(w.is_empty());
        assert_eq!(buf.lock().unwrap().len(), WAL_MAGIC.len());
    }
}
