//! Epoch-consistent whole-server snapshots.
//!
//! One file per checkpoint (`snap/snap-<seq>.dps`) holding **every**
//! shard's state at a single consistent cut — the server takes all shard
//! writer gates before encoding, so no ingest can interleave between two
//! shards' sections. The layout is
//!
//! ```text
//! [magic "DPESNAP1"] [fnv1a64(body): u64 LE] [body]
//!   body := [shard count: u32]
//!           per shard: [epoch: u64] [queries (codec batch)]
//!                      [n: u64] [n(n−1)/2 packed matrix cells, f64 bits LE]
//! ```
//!
//! Matrix cells are written as raw `f64` bit patterns, so a restored
//! [`DistanceMatrix`] is *bit-identical* to the snapshotted one — the
//! property the whole DPE test pyramid leans on. The body checksum sits
//! in the header; any truncation or bit damage anywhere in the body
//! fails the checksum and surfaces as
//! [`DurabilityError::CorruptSnapshot`]. Writes go to `<file>.tmp`
//! first, are synced, then renamed into place, so a crash mid-checkpoint
//! leaves at worst a stale `.tmp` — never a half-written `snap-*.dps`.

use crate::codec::{read_queries, write_queries, Reader, Writer};
use crate::engine::ShardStateRef;
use crate::{fnv1a64, DurabilityError};
use dpe_distance::DistanceMatrix;
use dpe_sql::Query;
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// File magic: identifies a snapshot and its format version.
pub const SNAP_MAGIC: [u8; 8] = *b"DPESNAP1";

/// One shard's state as restored from a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapshot {
    /// The shard's epoch at the checkpoint cut.
    pub epoch: u64,
    /// The ciphertext query store.
    pub queries: Vec<Query>,
    /// The packed distance matrix, bit-identical to the snapshotted one.
    pub matrix: DistanceMatrix,
}

/// Encodes all shards into a snapshot image.
pub fn encode_snapshot(shards: &[ShardStateRef<'_>]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(shards.len() as u32);
    for s in shards {
        w.u64(s.epoch);
        write_queries(&mut w, s.queries);
        w.u64(s.matrix.len() as u64);
        for &cell in s.matrix.as_packed() {
            w.f64_bits(cell);
        }
    }
    let body = w.into_bytes();
    let mut image = Vec::with_capacity(SNAP_MAGIC.len() + 8 + body.len());
    image.extend_from_slice(&SNAP_MAGIC);
    image.extend_from_slice(&fnv1a64(&body).to_le_bytes());
    image.extend_from_slice(&body);
    image
}

/// Decodes a snapshot image. `path` only labels errors.
pub fn decode_snapshot(bytes: &[u8], path: &str) -> Result<Vec<ShardSnapshot>, DurabilityError> {
    let corrupt = |detail: String| DurabilityError::CorruptSnapshot {
        path: path.to_string(),
        detail,
    };
    if bytes.len() < SNAP_MAGIC.len() + 8 {
        return Err(corrupt(format!(
            "file holds {} bytes, shorter than the {}-byte header",
            bytes.len(),
            SNAP_MAGIC.len() + 8
        )));
    }
    if bytes[..SNAP_MAGIC.len()] != SNAP_MAGIC {
        return Err(corrupt("bad snapshot magic".into()));
    }
    let crc = u64::from_le_bytes([
        bytes[8], bytes[9], bytes[10], bytes[11], bytes[12], bytes[13], bytes[14], bytes[15],
    ]);
    let body = &bytes[SNAP_MAGIC.len() + 8..];
    if fnv1a64(body) != crc {
        return Err(corrupt(
            "body checksum mismatch (truncated or damaged)".into(),
        ));
    }
    let mut r = Reader::new(body);
    let decode = |e: DurabilityError| corrupt(format!("checksum-valid body failed to decode: {e}"));
    let n_shards = r.seq_len(8, "shard count").map_err(decode)?;
    let mut shards = Vec::with_capacity(n_shards);
    for shard in 0..n_shards {
        let epoch = r.u64("shard epoch").map_err(decode)?;
        let queries = read_queries(&mut r).map_err(decode)?;
        let n = r.u64("matrix size").map_err(decode)? as usize;
        if n != queries.len() {
            return Err(corrupt(format!(
                "shard {shard}: matrix covers {n} items but {} queries were stored",
                queries.len()
            )));
        }
        let cells = n * n.saturating_sub(1) / 2;
        let mut data = Vec::with_capacity(cells);
        for _ in 0..cells {
            data.push(r.f64_bits("matrix cell").map_err(decode)?);
        }
        let matrix = DistanceMatrix::from_packed(n, data)
            .ok_or_else(|| corrupt(format!("shard {shard}: inconsistent packed cell count")))?;
        shards.push(ShardSnapshot {
            epoch,
            queries,
            matrix,
        });
    }
    r.finish().map_err(decode)?;
    Ok(shards)
}

/// Writes a snapshot image atomically: `<path>.tmp` + fsync + rename +
/// fsync of the directory.
pub fn write_snapshot_file(path: &Path, image: &[u8]) -> Result<(), DurabilityError> {
    let tmp = path.with_extension("dps.tmp");
    let ctx = |what: &str| format!("{what} {}", tmp.display());
    let mut f = fs::File::create(&tmp).map_err(|e| DurabilityError::io(ctx("creating"), &e))?;
    f.write_all(image)
        .map_err(|e| DurabilityError::io(ctx("writing"), &e))?;
    f.sync_all()
        .map_err(|e| DurabilityError::io(ctx("syncing"), &e))?;
    drop(f);
    fs::rename(&tmp, path)
        .map_err(|e| DurabilityError::io(format!("renaming {} into place", tmp.display()), &e))?;
    // The rename is a change to the directory, not to the file: until the
    // directory itself is synced, a crash can forget it, leaving no
    // `snap-<seq>.dps` even though the checkpoint already reset the WAL.
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| DurabilityError::io(format!("syncing directory {}", dir.display()), &e))?;
    Ok(())
}

/// Reads and decodes a snapshot file.
pub fn read_snapshot_file(path: &Path) -> Result<Vec<ShardSnapshot>, DurabilityError> {
    let bytes = fs::read(path)
        .map_err(|e| DurabilityError::io(format!("reading snapshot {}", path.display()), &e))?;
    decode_snapshot(&bytes, &path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpe_sql::parse_query;

    fn state(epoch: u64, n: usize) -> (Vec<Query>, DistanceMatrix) {
        let queries: Vec<Query> = (0..n)
            .map(|i| parse_query(&format!("SELECT c{i} FROM t WHERE k = {i}")).unwrap())
            .collect();
        // Awkward float bit patterns on purpose: subnormals, -0.0, huge.
        let matrix = DistanceMatrix::from_fn(n, |i, j| match (i + j) % 4 {
            0 => f64::MIN_POSITIVE / 2.0,
            1 => -0.0,
            2 => 1e300,
            _ => (i as f64) / (j as f64 + 0.1),
        });
        let _ = epoch;
        (queries, matrix)
    }

    fn image_of(specs: &[(u64, usize)]) -> (Vec<u8>, Vec<ShardSnapshot>) {
        let owned: Vec<(u64, Vec<Query>, DistanceMatrix)> = specs
            .iter()
            .map(|&(e, n)| {
                let (q, m) = state(e, n);
                (e, q, m)
            })
            .collect();
        let refs: Vec<ShardStateRef<'_>> = owned
            .iter()
            .map(|(e, q, m)| ShardStateRef {
                epoch: *e,
                queries: q,
                matrix: m,
            })
            .collect();
        let image = encode_snapshot(&refs);
        let expect = owned
            .into_iter()
            .map(|(epoch, queries, matrix)| ShardSnapshot {
                epoch,
                queries,
                matrix,
            })
            .collect();
        (image, expect)
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let (image, expect) = image_of(&[(5, 4), (0, 0), (12, 7)]);
        let shards = decode_snapshot(&image, "test").unwrap();
        assert_eq!(shards.len(), 3);
        for (got, want) in shards.iter().zip(&expect) {
            assert_eq!(got.epoch, want.epoch);
            assert_eq!(got.queries, want.queries);
            assert!(got.matrix.identical(&want.matrix), "bit-identical matrices");
        }
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let (image, _) = image_of(&[(3, 3)]);
        for cut in 0..image.len() {
            let err = decode_snapshot(&image[..cut], "t").unwrap_err();
            assert!(
                matches!(err, DurabilityError::CorruptSnapshot { .. }),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn every_byte_flip_is_a_typed_error() {
        let (image, _) = image_of(&[(2, 2), (9, 1)]);
        for i in 0..image.len() {
            let mut damaged = image.clone();
            damaged[i] ^= 0x10;
            let err = decode_snapshot(&damaged, "t").unwrap_err();
            assert!(
                matches!(err, DurabilityError::CorruptSnapshot { .. }),
                "flip {i}: {err:?}"
            );
        }
    }

    #[test]
    fn file_round_trip_is_atomic_rename() {
        let dir = std::env::temp_dir().join(format!("dpe-snap-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap-1.dps");
        let (image, _) = image_of(&[(1, 2)]);
        write_snapshot_file(&path, &image).unwrap();
        assert!(!path.with_extension("dps.tmp").exists(), "tmp renamed away");
        assert_eq!(read_snapshot_file(&path).unwrap().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
