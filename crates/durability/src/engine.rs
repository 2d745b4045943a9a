//! The durability engine: owns one directory of durable state and
//! mediates all WAL appends, checkpoints and recovery for a server.
//!
//! Directory layout:
//!
//! ```text
//! <dir>/MANIFEST            format version + shard count
//! <dir>/wal/shard-<i>.wal   per-shard write-ahead log
//! <dir>/snap/snap-<s>.dps   epoch-consistent snapshots, ascending seq
//! ```
//!
//! Locking: each shard's [`WalWriter`] sits behind its own `Mutex`, always
//! the last lock taken. The server calls [`Durability::log_ingest`] under
//! that shard's writer gate and [`Durability::checkpoint`] under every
//! gate, which excludes concurrent appends, making the
//! snapshot-then-reset-WALs sequence atomic with respect to ingests.

use crate::snapshot::{encode_snapshot, read_snapshot_file, write_snapshot_file, ShardSnapshot};
use crate::wal::{read_wal, AppendError, FileSink, WalRecord, WalSink, WalWriter};
use crate::DurabilityError;
use dpe_distance::DistanceMatrix;
use dpe_sql::Query;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Opens sinks for shard WALs — the seam [`crate::testkit::FailpointFs`]
/// and [`crate::testkit::ErrorFs`] use to inject faults under the
/// production engine.
pub trait SinkFactory: Send + Sync {
    /// Opens (creating if needed) the append sink for one shard's WAL.
    fn open_wal(&self, shard: usize, path: &Path) -> std::io::Result<Box<dyn WalSink>>;
}

/// The production factory: plain append-mode files.
#[derive(Debug, Default, Clone, Copy)]
pub struct FsSinkFactory;

impl SinkFactory for FsSinkFactory {
    fn open_wal(&self, _shard: usize, path: &Path) -> std::io::Result<Box<dyn WalSink>> {
        Ok(Box::new(FileSink::open(path)?))
    }
}

/// Borrowed view of one shard's state for [`Durability::checkpoint`] —
/// the server builds these from held read guards, so nothing is cloned
/// to take a snapshot.
#[derive(Debug, Clone, Copy)]
pub struct ShardStateRef<'a> {
    /// The shard's current epoch.
    pub epoch: u64,
    /// The ciphertext query store.
    pub queries: &'a [Query],
    /// The packed distance matrix.
    pub matrix: &'a DistanceMatrix,
}

/// One shard's recovered state: the snapshot base plus the WAL tail to
/// re-apply (records with epoch beyond the base, contiguity-checked).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRecovery {
    /// State at the newest valid snapshot (empty/epoch-0 when none).
    pub base: ShardSnapshot,
    /// WAL records past the base epoch, in append order.
    pub tail: Vec<WalRecord>,
    /// `true` when a torn WAL tail was discarded: truncated when this
    /// engine opened the log, or skipped by this replay.
    pub torn_tail: bool,
}

impl ShardRecovery {
    /// The epoch the shard will reach once the tail is re-applied.
    pub fn final_epoch(&self) -> u64 {
        self.tail.last().map_or(self.base.epoch, |r| r.epoch)
    }
}

/// Counters for `ServerStats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DurabilityStats {
    /// WAL records appended since this engine was opened.
    pub wal_records: u64,
    /// Total bytes currently in the WAL files (headers included).
    pub wal_bytes: u64,
    /// Checkpoints taken since this engine was opened.
    pub checkpoints: u64,
    /// Sequence number of the newest snapshot on disk, if any.
    pub last_snapshot: Option<u64>,
    /// Shard logs whose torn tail this engine truncated when it opened
    /// them.
    pub torn_tails: u64,
}

const MANIFEST_VERSION: &str = "dpe-durability/v1";

/// The durability engine for one server — see the module docs for the
/// directory layout and locking contract.
pub struct Durability {
    dir: PathBuf,
    shards: usize,
    wals: Vec<Mutex<WalWriter>>,
    /// Per shard: whether opening truncated a torn WAL tail, so
    /// [`Durability::recover`] can still report what the file no longer
    /// shows.
    torn_tails: Vec<bool>,
    checkpoints: AtomicU64,
    last_snapshot: Mutex<Option<u64>>,
}

impl std::fmt::Debug for Durability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Durability")
            .field("dir", &self.dir)
            .field("shards", &self.shards)
            .finish_non_exhaustive()
    }
}

fn io_err(context: String) -> impl FnOnce(std::io::Error) -> DurabilityError {
    move |e| DurabilityError::io(context, &e)
}

impl Durability {
    /// Opens a **fresh** durable directory for `shards` shards with the
    /// production file sinks. Refuses a directory that already holds
    /// durable state ([`DurabilityError::ExistingState`]) — recover from
    /// it instead, or pick a new directory.
    pub fn create(dir: impl Into<PathBuf>, shards: usize) -> Result<Durability, DurabilityError> {
        Durability::create_with(dir, shards, &FsSinkFactory)
    }

    /// [`Durability::create`] with a custom [`SinkFactory`] (fault
    /// injection in the crash-recovery sweep).
    pub fn create_with(
        dir: impl Into<PathBuf>,
        shards: usize,
        factory: &dyn SinkFactory,
    ) -> Result<Durability, DurabilityError> {
        let dir = dir.into();
        if dir.join("MANIFEST").exists() {
            return Err(DurabilityError::ExistingState {
                dir: dir.display().to_string(),
            });
        }
        fs::create_dir_all(dir.join("wal"))
            .map_err(io_err(format!("creating {}", dir.join("wal").display())))?;
        fs::create_dir_all(dir.join("snap"))
            .map_err(io_err(format!("creating {}", dir.join("snap").display())))?;
        fs::write(
            dir.join("MANIFEST"),
            format!("{MANIFEST_VERSION}\nshards {shards}\n"),
        )
        .map_err(io_err(format!(
            "writing {}",
            dir.join("MANIFEST").display()
        )))?;
        Durability::attach(dir, shards, factory)
    }

    /// Opens an **existing** durable directory for append + recovery,
    /// adopting the shard count recorded in its manifest.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Durability, DurabilityError> {
        Durability::open_with(dir, &FsSinkFactory)
    }

    /// [`Durability::open`] with a custom [`SinkFactory`].
    pub fn open_with(
        dir: impl Into<PathBuf>,
        factory: &dyn SinkFactory,
    ) -> Result<Durability, DurabilityError> {
        let dir = dir.into();
        let shards = Durability::manifest_shards(&dir)?;
        Durability::attach(dir, shards, factory)
    }

    /// Reads the shard count out of a directory's manifest.
    pub fn manifest_shards(dir: &Path) -> Result<usize, DurabilityError> {
        let path = dir.join("MANIFEST");
        let text =
            fs::read_to_string(&path).map_err(io_err(format!("reading {}", path.display())))?;
        let mut lines = text.lines();
        match lines.next() {
            Some(MANIFEST_VERSION) => {}
            Some(other) => {
                return Err(DurabilityError::Manifest(format!(
                    "unknown manifest version {other:?} (expected {MANIFEST_VERSION:?})"
                )))
            }
            None => return Err(DurabilityError::Manifest("empty manifest".into())),
        }
        let shards = lines
            .next()
            .and_then(|l| l.strip_prefix("shards "))
            .and_then(|n| n.parse::<usize>().ok())
            .ok_or_else(|| DurabilityError::Manifest("missing or malformed shards line".into()))?;
        if shards == 0 {
            return Err(DurabilityError::Manifest(
                "manifest declares 0 shards".into(),
            ));
        }
        Ok(shards)
    }

    /// Shared tail of create/open: truncate torn WAL tails (validating
    /// the surviving frames along the way) and position writers at the
    /// end of each valid log.
    fn attach(
        dir: PathBuf,
        shards: usize,
        factory: &dyn SinkFactory,
    ) -> Result<Durability, DurabilityError> {
        let mut wals = Vec::with_capacity(shards);
        let mut torn_tails = Vec::with_capacity(shards);
        for shard in 0..shards {
            let path = Durability::wal_path(&dir, shard);
            let bytes = match fs::read(&path) {
                Ok(b) => b,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
                Err(e) => {
                    return Err(DurabilityError::io(
                        format!("reading {}", path.display()),
                        &e,
                    ))
                }
            };
            // Corrupt frames are fatal here: appending after one would
            // bury the damage. Torn tails are expected crash damage.
            let replay = read_wal(&bytes, shard)?;
            let mut sink = factory
                .open_wal(shard, &path)
                .map_err(io_err(format!("opening {}", path.display())))?;
            if replay.torn_tail {
                sink.truncate_to(replay.valid_len).map_err(io_err(format!(
                    "truncating torn tail of {}",
                    path.display()
                )))?;
            }
            let writer = WalWriter::new(sink, replay.valid_len)
                .map_err(io_err(format!("initializing {}", path.display())))?;
            wals.push(Mutex::new(writer));
            torn_tails.push(replay.torn_tail);
        }
        let last = Durability::newest_snapshot_seq(&dir)?;
        Ok(Durability {
            dir,
            shards,
            wals,
            torn_tails,
            checkpoints: AtomicU64::new(0),
            last_snapshot: Mutex::new(last),
        })
    }

    fn wal_path(dir: &Path, shard: usize) -> PathBuf {
        dir.join("wal").join(format!("shard-{shard}.wal"))
    }

    fn snap_path(dir: &Path, seq: u64) -> PathBuf {
        dir.join("snap").join(format!("snap-{seq}.dps"))
    }

    /// Sequence numbers of all complete snapshots on disk, ascending.
    fn snapshot_seqs(dir: &Path) -> Result<Vec<u64>, DurabilityError> {
        let snap_dir = dir.join("snap");
        let mut seqs = Vec::new();
        let entries = match fs::read_dir(&snap_dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(seqs),
            Err(e) => {
                return Err(DurabilityError::io(
                    format!("listing {}", snap_dir.display()),
                    &e,
                ))
            }
        };
        for entry in entries {
            let entry = entry
                .map_err(|e| DurabilityError::io(format!("listing {}", snap_dir.display()), &e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(seq) = name
                .strip_prefix("snap-")
                .and_then(|rest| rest.strip_suffix(".dps"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                seqs.push(seq);
            }
        }
        seqs.sort_unstable();
        Ok(seqs)
    }

    fn newest_snapshot_seq(dir: &Path) -> Result<Option<u64>, DurabilityError> {
        Ok(Durability::snapshot_seqs(dir)?.last().copied())
    }

    /// Number of shards this directory is laid out for.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The durable directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends one ingest batch to `shard`'s WAL and syncs it. `epoch` is
    /// the shard's epoch *after* the batch is applied.
    ///
    /// On error the batch is not in the log and the log is still a valid
    /// prefix (see [`WalWriter::append`]); the caller must not apply the
    /// batch. [`DurabilityError::WalFenced`] means an earlier failure
    /// could not be rolled back, and appends stay refused until the next
    /// successful [`Durability::checkpoint`].
    ///
    /// Contract: the caller serializes appends for one shard (the server
    /// holds its writer gate), so they are ordered identically to the
    /// in-memory epoch sequence.
    pub fn log_ingest(
        &self,
        shard: usize,
        epoch: u64,
        queries: &[Query],
    ) -> Result<(), DurabilityError> {
        let record = WalRecord {
            epoch,
            queries: queries.to_vec(),
        };
        let mut wal = self.wals[shard]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        wal.append(&record).map_err(|e| match e {
            AppendError::Io(e) => {
                DurabilityError::io(format!("appending to shard {shard}'s WAL"), &e)
            }
            AppendError::Fenced => DurabilityError::WalFenced { shard },
        })
    }

    /// Writes an epoch-consistent snapshot of every shard, then resets
    /// the WALs (their records are now redundant) and prunes older
    /// snapshots. Returns the new snapshot's sequence number.
    ///
    /// Contract: the caller excludes every append and commit across this
    /// call (the server holds **all** writer gates), so none can
    /// interleave with the cut or the resets.
    pub fn checkpoint(&self, shards: &[ShardStateRef<'_>]) -> Result<u64, DurabilityError> {
        assert_eq!(
            shards.len(),
            self.shards,
            "checkpoint must cover every shard"
        );
        let mut last = self
            .last_snapshot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let seq = last.map_or(1, |s| s + 1);
        let image = encode_snapshot(shards);
        write_snapshot_file(&Durability::snap_path(&self.dir, seq), &image)?;
        *last = Some(seq);
        // The snapshot is durable; WAL frames at or below its cut are
        // redundant. Resets happen after the rename, so a crash anywhere
        // in this sequence leaves either (old snap + full WAL) or
        // (new snap + possibly-unreset WALs) — both recover correctly,
        // because replay filters records by epoch.
        for (shard, wal) in self.wals.iter().enumerate() {
            let mut wal = wal
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            wal.reset()
                .map_err(io_err(format!("resetting shard {shard}'s WAL")))?;
        }
        for old in Durability::snapshot_seqs(&self.dir)? {
            if old < seq {
                // Best-effort prune; a leftover old snapshot is harmless.
                let _ = fs::remove_file(Durability::snap_path(&self.dir, old));
            }
        }
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(seq)
    }

    /// Loads the newest valid snapshot plus each shard's WAL tail —
    /// everything a server needs to rebuild bit-identical shards.
    ///
    /// Validation: WAL records are filtered to epochs past the snapshot
    /// cut and must chain contiguously (+1 per record) from it; any gap
    /// is [`DurabilityError::EpochGap`], any damaged frame or snapshot
    /// surfaces as its typed error.
    pub fn recover(&self) -> Result<Vec<ShardRecovery>, DurabilityError> {
        let bases: Vec<ShardSnapshot> = match *self
            .last_snapshot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
        {
            Some(seq) => {
                let shards = read_snapshot_file(&Durability::snap_path(&self.dir, seq))?;
                if shards.len() != self.shards {
                    return Err(DurabilityError::CorruptSnapshot {
                        path: Durability::snap_path(&self.dir, seq).display().to_string(),
                        detail: format!(
                            "snapshot holds {} shards, manifest declares {}",
                            shards.len(),
                            self.shards
                        ),
                    });
                }
                shards
            }
            None => (0..self.shards)
                .map(|_| ShardSnapshot {
                    epoch: 0,
                    queries: Vec::new(),
                    matrix: DistanceMatrix::new(),
                })
                .collect(),
        };
        let mut out = Vec::with_capacity(self.shards);
        for (shard, base) in bases.into_iter().enumerate() {
            let path = Durability::wal_path(&self.dir, shard);
            let bytes = match fs::read(&path) {
                Ok(b) => b,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
                Err(e) => {
                    return Err(DurabilityError::io(
                        format!("reading {}", path.display()),
                        &e,
                    ))
                }
            };
            let replay = read_wal(&bytes, shard)?;
            let tail: Vec<WalRecord> = replay
                .records
                .into_iter()
                .filter(|r| r.epoch > base.epoch)
                .collect();
            let mut expected = base.epoch;
            for r in &tail {
                expected += 1;
                if r.epoch != expected {
                    return Err(DurabilityError::EpochGap {
                        shard,
                        expected,
                        found: r.epoch,
                    });
                }
            }
            out.push(ShardRecovery {
                base,
                tail,
                torn_tail: self.torn_tails[shard] || replay.torn_tail,
            });
        }
        Ok(out)
    }

    /// Current counters.
    pub fn stats(&self) -> DurabilityStats {
        let mut wal_records = 0;
        let mut wal_bytes = 0;
        for wal in &self.wals {
            let wal = wal
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            wal_records += wal.appended();
            wal_bytes += wal.len();
        }
        DurabilityStats {
            wal_records,
            wal_bytes,
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            last_snapshot: *self
                .last_snapshot
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
            torn_tails: self.torn_tails.iter().filter(|&&torn| torn).count() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpe_distance::TokenDistance;
    use dpe_sql::parse_query;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dpe-durability-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn queries(range: std::ops::Range<usize>) -> Vec<Query> {
        range
            .map(|i| parse_query(&format!("SELECT c{i} FROM t WHERE k = {i}")).unwrap())
            .collect()
    }

    #[test]
    fn create_log_recover_round_trip() {
        let dir = tmp_dir("round-trip");
        let d = Durability::create(&dir, 2).unwrap();
        d.log_ingest(0, 1, &queries(0..3)).unwrap();
        d.log_ingest(1, 1, &queries(3..5)).unwrap();
        d.log_ingest(0, 2, &queries(5..6)).unwrap();
        drop(d);

        let d = Durability::open(&dir).unwrap();
        assert_eq!(d.shards(), 2);
        let rec = d.recover().unwrap();
        assert_eq!(rec[0].tail.len(), 2);
        assert_eq!(rec[0].tail[1].queries, queries(5..6));
        assert_eq!(rec[0].final_epoch(), 2);
        assert_eq!(rec[1].tail.len(), 1);
        assert_eq!(rec[1].base.epoch, 0);
        assert!(rec[1].base.queries.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_resets_wals_and_filters_replay() {
        let dir = tmp_dir("checkpoint");
        let d = Durability::create(&dir, 1).unwrap();
        let all = queries(0..4);
        d.log_ingest(0, 1, &all[..2]).unwrap();
        let matrix = DistanceMatrix::compute(&all[..2], &TokenDistance).unwrap();
        let seq = d
            .checkpoint(&[ShardStateRef {
                epoch: 1,
                queries: &all[..2],
                matrix: &matrix,
            }])
            .unwrap();
        assert_eq!(seq, 1);
        assert_eq!(d.stats().checkpoints, 1);
        d.log_ingest(0, 2, &all[2..]).unwrap();
        drop(d);

        let d = Durability::open(&dir).unwrap();
        let rec = d.recover().unwrap();
        assert_eq!(rec[0].base.epoch, 1);
        assert_eq!(rec[0].base.queries, all[..2].to_vec());
        assert!(rec[0].base.matrix.identical(&matrix));
        assert_eq!(rec[0].tail.len(), 1);
        assert_eq!(rec[0].tail[0].epoch, 2);
        // A second checkpoint prunes the first snapshot.
        let full = DistanceMatrix::compute(&all, &TokenDistance).unwrap();
        let seq2 = d
            .checkpoint(&[ShardStateRef {
                epoch: 2,
                queries: &all,
                matrix: &full,
            }])
            .unwrap();
        assert_eq!(seq2, 2);
        assert!(!Durability::snap_path(&dir, 1).exists());
        assert!(Durability::snap_path(&dir, 2).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_refuses_existing_state() {
        let dir = tmp_dir("refuse");
        let d = Durability::create(&dir, 1).unwrap();
        drop(d);
        assert!(matches!(
            Durability::create(&dir, 1),
            Err(DurabilityError::ExistingState { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_is_validated() {
        let dir = tmp_dir("manifest");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("MANIFEST"), "dpe-durability/v999\nshards 1\n").unwrap();
        assert!(matches!(
            Durability::open(&dir),
            Err(DurabilityError::Manifest(_))
        ));
        fs::write(dir.join("MANIFEST"), "dpe-durability/v1\nshards 0\n").unwrap();
        assert!(Durability::open(&dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn epoch_gap_is_detected() {
        let dir = tmp_dir("gap");
        let d = Durability::create(&dir, 1).unwrap();
        d.log_ingest(0, 1, &queries(0..1)).unwrap();
        d.log_ingest(0, 3, &queries(1..2)).unwrap(); // skips epoch 2
        match d.recover() {
            Err(DurabilityError::EpochGap {
                expected, found, ..
            }) => {
                assert_eq!((expected, found), (2, 3));
            }
            other => panic!("expected EpochGap, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = tmp_dir("torn");
        let d = Durability::create(&dir, 1).unwrap();
        d.log_ingest(0, 1, &queries(0..2)).unwrap();
        d.log_ingest(0, 2, &queries(2..3)).unwrap();
        drop(d);
        // Tear the last frame.
        let path = Durability::wal_path(&dir, 0);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

        let d = Durability::open(&dir).unwrap();
        let rec = d.recover().unwrap();
        assert_eq!(rec[0].tail.len(), 1, "only the complete record survives");
        assert!(rec[0].torn_tail, "the discarded tail is reported");
        // The open truncated the file back to its valid prefix...
        assert!(fs::read(&path).unwrap().len() < bytes.len());
        // ...so appending resumes cleanly at the next epoch.
        d.log_ingest(0, 2, &queries(2..4)).unwrap();
        let rec = d.recover().unwrap();
        assert_eq!(rec[0].tail.len(), 2);
        assert_eq!(rec[0].final_epoch(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_track_bytes_and_records() {
        let dir = tmp_dir("stats");
        let d = Durability::create(&dir, 2).unwrap();
        let before = d.stats();
        assert_eq!(before.wal_records, 0);
        d.log_ingest(0, 1, &queries(0..2)).unwrap();
        let after = d.stats();
        assert_eq!(after.wal_records, 1);
        assert!(after.wal_bytes > before.wal_bytes);
        assert_eq!(after.last_snapshot, None);
        fs::remove_dir_all(&dir).unwrap();
    }
}
