//! Fault injection for crash-recovery sweeps.
//!
//! [`FailpointFs`] models the harshest crash: the process *believes*
//! every append succeeded (no error surfaces to the ingest path), but
//! bytes past a shared budget never reach the disk — exactly what a
//! power cut after the page cache acknowledged a write looks like. A
//! sweep then runs the same workload once per budget value and asserts
//! the recovered server matches an oracle that only saw the durable
//! prefix.
//!
//! [`ErrorFs`] models the other failure: one append *returns* an error
//! (EIO, ENOSPC), before, during or after writing its bytes. A sweep
//! runs the workload once per failing append and [`Fault`], and asserts
//! the failed ingest is neither visible nor durable.

use crate::engine::SinkFactory;
use crate::wal::{FileSink, WalSink};
use std::io::Error;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A byte budget shared by every sink the factory opens: the first
/// `budget` bytes of appends (across all shards, in arrival order) reach
/// the real file; everything after is acknowledged and dropped.
#[derive(Debug)]
pub struct FailpointFs {
    budget: AtomicU64,
}

impl FailpointFs {
    /// A factory whose sinks persist exactly `budget` appended bytes.
    pub fn new(budget: u64) -> Arc<FailpointFs> {
        Arc::new(FailpointFs {
            budget: AtomicU64::new(budget),
        })
    }

    /// Bytes of budget not yet consumed.
    pub fn remaining(&self) -> u64 {
        self.budget.load(Ordering::SeqCst)
    }

    /// Takes up to `want` bytes from the budget, returning how many may
    /// still be persisted.
    fn take(&self, want: u64) -> u64 {
        let mut cur = self.budget.load(Ordering::SeqCst);
        loop {
            let granted = cur.min(want);
            match self.budget.compare_exchange(
                cur,
                cur - granted,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return granted,
                Err(actual) => cur = actual,
            }
        }
    }
}

impl SinkFactory for Arc<FailpointFs> {
    fn open_wal(&self, _shard: usize, path: &Path) -> std::io::Result<Box<dyn WalSink>> {
        Ok(Box::new(FailpointSink {
            inner: FileSink::open(path)?,
            fs: Arc::clone(self),
        }))
    }
}

/// A sink that silently drops acknowledged bytes once the shared budget
/// is exhausted.
struct FailpointSink {
    inner: FileSink,
    fs: Arc<FailpointFs>,
}

impl WalSink for FailpointSink {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let granted = self.fs.take(bytes.len() as u64) as usize;
        if granted > 0 {
            self.inner.append(&bytes[..granted])?;
        }
        // Acknowledge the whole write — the caller must not find out.
        Ok(())
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.inner.sync()
    }

    fn truncate_to(&mut self, keep: u64) -> std::io::Result<()> {
        self.inner.truncate_to(keep)
    }
}

/// How the failing append of an [`ErrorFs`] goes wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// `append` returns an error before any byte is written.
    BeforeWrite,
    /// `append` writes the first half of its bytes, then returns an error.
    ShortWrite,
    /// `append` writes every byte, then the following `sync` returns an
    /// error.
    SyncError,
}

/// A sink factory whose sinks fail exactly one append, counted across
/// every sink it opened in arrival order from 0. A fresh log's first
/// append is its magic header, so with one shard append `k ≥ 1` is the
/// `k`-th WAL record. Every other append, sync and truncate goes through
/// to the real file, so the fault is transient.
#[derive(Debug)]
pub struct ErrorFs {
    fail_at: u64,
    fault: Fault,
    appends: AtomicU64,
    /// Pending failure of the first `truncate_to` after the fault.
    fail_truncate: AtomicBool,
}

impl ErrorFs {
    /// A factory whose sinks fail append number `fail_at` with `fault`.
    pub fn new(fail_at: u64, fault: Fault) -> Arc<ErrorFs> {
        ErrorFs::build(fail_at, fault, false)
    }

    /// Like [`ErrorFs::new`], and the first `truncate_to` after the fault
    /// (the writer's rollback) fails as well.
    pub fn with_failing_truncate(fail_at: u64, fault: Fault) -> Arc<ErrorFs> {
        ErrorFs::build(fail_at, fault, true)
    }

    fn build(fail_at: u64, fault: Fault, fail_truncate: bool) -> Arc<ErrorFs> {
        Arc::new(ErrorFs {
            fail_at,
            fault,
            appends: AtomicU64::new(0),
            fail_truncate: AtomicBool::new(fail_truncate),
        })
    }

    /// Appends seen so far, the failed one included.
    pub fn appends(&self) -> u64 {
        self.appends.load(Ordering::SeqCst)
    }
}

impl SinkFactory for Arc<ErrorFs> {
    fn open_wal(&self, _shard: usize, path: &Path) -> std::io::Result<Box<dyn WalSink>> {
        Ok(Box::new(ErrorSink {
            inner: FileSink::open(path)?,
            fs: Arc::clone(self),
            sync_fails: false,
            faulted: false,
        }))
    }
}

/// A sink that fails the one append its [`ErrorFs`] picks.
struct ErrorSink {
    inner: FileSink,
    fs: Arc<ErrorFs>,
    /// The next `sync` fails ([`Fault::SyncError`] armed it).
    sync_fails: bool,
    /// This sink took the fault, so its next truncate may fail.
    faulted: bool,
}

fn injected() -> Error {
    Error::other("injected I/O error")
}

impl WalSink for ErrorSink {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        if self.fs.appends.fetch_add(1, Ordering::SeqCst) != self.fs.fail_at {
            return self.inner.append(bytes);
        }
        self.faulted = true;
        match self.fs.fault {
            Fault::BeforeWrite => Err(injected()),
            Fault::ShortWrite => {
                self.inner.append(&bytes[..bytes.len() / 2])?;
                Err(injected())
            }
            Fault::SyncError => {
                self.sync_fails = true;
                self.inner.append(bytes)
            }
        }
    }

    fn sync(&mut self) -> std::io::Result<()> {
        if std::mem::take(&mut self.sync_fails) {
            return Err(injected());
        }
        self.inner.sync()
    }

    fn truncate_to(&mut self, keep: u64) -> std::io::Result<()> {
        if self.faulted && self.fs.fail_truncate.swap(false, Ordering::SeqCst) {
            return Err(injected());
        }
        self.inner.truncate_to(keep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Durability;
    use crate::wal::WAL_MAGIC;
    use crate::DurabilityError;
    use dpe_sql::{parse_query, Query};
    use std::fs;

    fn queries(n: usize) -> Vec<Query> {
        (0..n)
            .map(|i| parse_query(&format!("SELECT c{i} FROM t")).unwrap())
            .collect()
    }

    #[test]
    fn budget_cuts_the_log_at_an_arbitrary_byte() {
        let dir = std::env::temp_dir().join(format!("dpe-failpoint-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);

        // Unlimited run first: learn the full log length.
        let fs_ok = FailpointFs::new(u64::MAX);
        let d = Durability::create_with(&dir, 1, &fs_ok).unwrap();
        d.log_ingest(0, 1, &queries(2)).unwrap();
        d.log_ingest(0, 2, &queries(1)).unwrap();
        let full = d.stats().wal_bytes;
        drop(d);
        let _ = fs::remove_dir_all(&dir);

        // Budgeted run: cut 3 bytes short — the caller still sees Ok.
        let fp = FailpointFs::new(full - 3);
        let d = Durability::create_with(&dir, 1, &fp).unwrap();
        d.log_ingest(0, 1, &queries(2)).unwrap();
        d.log_ingest(0, 2, &queries(1)).unwrap();
        assert_eq!(fp.remaining(), 0);
        drop(d);

        let on_disk = fs::read(dir.join("wal").join("shard-0.wal")).unwrap();
        assert_eq!(on_disk.len() as u64, full - 3, "bytes past the budget lost");

        // Recovery sees a torn tail: exactly one record survives.
        let d = Durability::open(&dir).unwrap();
        let rec = d.recover().unwrap();
        assert_eq!(rec[0].tail.len(), 1);
        assert_eq!(rec[0].final_epoch(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_budget_loses_everything_including_the_header() {
        let dir = std::env::temp_dir().join(format!("dpe-failpoint0-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let fp = FailpointFs::new(0);
        let d = Durability::create_with(&dir, 1, &fp).unwrap();
        d.log_ingest(0, 1, &queries(1)).unwrap();
        drop(d);
        // Nothing reached the file — an empty WAL is a fresh log.
        let on_disk = fs::read(dir.join("wal").join("shard-0.wal")).unwrap();
        assert!(on_disk.is_empty());
        let d = Durability::open(&dir).unwrap();
        assert!(d.recover().unwrap()[0].tail.is_empty());
        drop(d);

        // A budget that tears the magic itself is corruption — recovery
        // refuses rather than serving garbage.
        let dir2 = std::env::temp_dir().join(format!("dpe-failpoint0b-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir2);
        let fp = FailpointFs::new(WAL_MAGIC.len() as u64 - 2);
        let d = Durability::create_with(&dir2, 1, &fp).unwrap();
        drop(d);
        assert!(Durability::open(&dir2).is_err());
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn every_fault_leaves_a_valid_prefix_and_later_appends_land() {
        for fault in [Fault::BeforeWrite, Fault::ShortWrite, Fault::SyncError] {
            let dir =
                std::env::temp_dir().join(format!("dpe-errorfs-{fault:?}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            // Append 0 is the magic header, so append 2 is record 2.
            let efs = ErrorFs::new(2, fault);
            let d = Durability::create_with(&dir, 1, &efs).unwrap();
            d.log_ingest(0, 1, &queries(2)).unwrap();
            let err = d.log_ingest(0, 2, &queries(1)).unwrap_err();
            assert!(
                matches!(err, DurabilityError::Io { .. }),
                "{fault:?}: {err:?}"
            );
            // The failed record left no bytes behind, so the retry chains.
            d.log_ingest(0, 2, &queries(3)).unwrap();
            assert_eq!(efs.appends(), 4);
            let on_disk = fs::read(dir.join("wal").join("shard-0.wal")).unwrap();
            assert_eq!(on_disk.len() as u64, d.stats().wal_bytes, "{fault:?}");
            drop(d);
            let rec = Durability::open(&dir).unwrap().recover().unwrap();
            assert!(!rec[0].torn_tail, "{fault:?}");
            assert_eq!(rec[0].tail.len(), 2, "{fault:?}");
            assert_eq!(rec[0].tail[1].queries, queries(3), "{fault:?}");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn failed_rollback_fences_the_log_until_a_checkpoint() {
        let dir = std::env::temp_dir().join(format!("dpe-errorfs-fence-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let efs = ErrorFs::with_failing_truncate(2, Fault::ShortWrite);
        let d = Durability::create_with(&dir, 1, &efs).unwrap();
        d.log_ingest(0, 1, &queries(2)).unwrap();
        assert!(matches!(
            d.log_ingest(0, 2, &queries(1)),
            Err(DurabilityError::Io { .. })
        ));
        // Half a frame is stuck on disk: appending after it would bury
        // the next record, so the writer refuses.
        assert_eq!(
            d.log_ingest(0, 2, &queries(1)),
            Err(DurabilityError::WalFenced { shard: 0 })
        );
        assert_eq!(efs.appends(), 3, "a fenced writer does not touch the sink");
        // Recovery still returns the acknowledged prefix: the half frame
        // is a torn tail.
        let wal = fs::read(dir.join("wal").join("shard-0.wal")).unwrap();
        assert!(crate::wal::read_wal(&wal, 0).unwrap().torn_tail);
        let rec = Durability::open(&dir).unwrap().recover().unwrap();
        assert_eq!(rec[0].final_epoch(), 1);
        assert!(rec[0].torn_tail, "the discarded half frame is reported");
        // A checkpoint resets the log and lifts the fence.
        let stored = queries(2);
        let matrix = dpe_distance::DistanceMatrix::from_fn(2, |_, _| 0.5);
        d.checkpoint(&[crate::ShardStateRef {
            epoch: 1,
            queries: &stored,
            matrix: &matrix,
        }])
        .unwrap();
        d.log_ingest(0, 2, &queries(1)).unwrap();
        drop(d);
        let rec = Durability::open(&dir).unwrap().recover().unwrap();
        assert_eq!((rec[0].base.epoch, rec[0].final_epoch()), (1, 2));
        fs::remove_dir_all(&dir).unwrap();
    }
}
