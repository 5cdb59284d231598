//! Append-only write-ahead log of applied CHT observe writes.
//!
//! Segments are named `wal-NNNNNN.log`, each starting with the 8-byte magic
//! `CPRDWAL1` followed by fixed 10-byte records:
//!
//! ```text
//! offset  size  field
//!      0     8  CDQ code (little-endian)
//!      8     1  flags (bit 0: colliding)
//!      9     1  checksum: XOR of bytes 0..9, then XOR 0xA5
//! ```
//!
//! Only *applied* writes are logged (the `U` gate ran before logging), so
//! replay is a pure saturating increment — bit-identical to the live table
//! with no RNG involved. Replay tolerates a torn tail: the first short or
//! checksum-failing record ends the replay, dropping the remainder of that
//! segment and every later segment (appends are strictly ordered, so
//! everything before the tear is a consistent prefix). Reopening after a
//! crash starts a fresh segment rather than appending past a tear.
//!
//! The record and segment format is a stability contract (ROADMAP.md).

use crate::snapshot::TableImage;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// WAL segment magic (also carries the format version: `…WAL1`).
pub const WAL_MAGIC: &[u8; 8] = b"CPRDWAL1";

/// Bytes per record.
pub const WAL_RECORD_LEN: usize = 10;

/// One logged observe write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalRecord {
    /// The CDQ code that was written.
    pub code: u64,
    /// Whether the outcome was a collision (`false` = an applied NONCOLL
    /// write that passed the `U` gate).
    pub colliding: bool,
}

impl WalRecord {
    /// Serializes the record.
    pub fn encode(&self) -> [u8; WAL_RECORD_LEN] {
        let mut b = [0u8; WAL_RECORD_LEN];
        b[0..8].copy_from_slice(&self.code.to_le_bytes());
        b[8] = u8::from(self.colliding);
        b[9] = checksum(&b);
        b
    }

    /// Deserializes a record, returning `None` on checksum failure.
    pub fn decode(b: &[u8; WAL_RECORD_LEN]) -> Option<Self> {
        if checksum(b) != b[9] || b[8] > 1 {
            return None;
        }
        Some(WalRecord {
            code: u64::from_le_bytes(b[0..8].try_into().unwrap()),
            colliding: b[8] != 0,
        })
    }
}

fn checksum(b: &[u8; WAL_RECORD_LEN]) -> u8 {
    b[..9].iter().fold(0xA5u8, |acc, &x| acc ^ x)
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("wal-{index:06}.log"))
}

/// Existing segment `(index, path)` pairs in ascending index order.
pub fn segments(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(idx) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".log"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((idx, entry.path()));
        }
    }
    out.sort_unstable_by_key(|(idx, _)| *idx);
    out
}

/// Result of a replay pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Records applied to the image.
    pub applied: u64,
    /// Whether a torn tail (short or corrupt record / bad segment header)
    /// cut the replay short.
    pub torn: bool,
}

/// Replays every valid record under `dir` into `image`, in append order,
/// stopping at the first tear. Missing directory = nothing to replay.
pub fn replay(dir: &Path, image: &mut TableImage) -> ReplaySummary {
    let _span = copred_obs::span("store", "wal_replay");
    let mut summary = ReplaySummary::default();
    for (_, path) in segments(dir) {
        let Ok(bytes) = std::fs::read(&path) else {
            summary.torn = true;
            return summary;
        };
        if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
            summary.torn = true;
            return summary;
        }
        let mut body = &bytes[WAL_MAGIC.len()..];
        while !body.is_empty() {
            if body.len() < WAL_RECORD_LEN {
                summary.torn = true;
                return summary;
            }
            let chunk: &[u8; WAL_RECORD_LEN] = body[..WAL_RECORD_LEN].try_into().unwrap();
            let Some(rec) = WalRecord::decode(chunk) else {
                summary.torn = true;
                return summary;
            };
            image.apply_record(rec.code, rec.colliding);
            summary.applied += 1;
            body = &body[WAL_RECORD_LEN..];
        }
    }
    summary
}

/// An appending WAL handle for one table directory.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    file: Option<File>,
    seg_index: u64,
    seg_bytes: u64,
    segment_limit: u64,
    /// Segments started since open/reset — the in-memory compaction
    /// trigger, so hot appends never stat the directory.
    started: u64,
}

impl Wal {
    /// Opens the log for appending. Always starts a *new* segment on first
    /// append (never extends an existing file — the previous tail may be
    /// torn, and replay drops everything after a tear).
    pub fn open(dir: &Path, segment_limit: u64) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let next = segments(dir).last().map_or(0, |(idx, _)| idx + 1);
        Ok(Wal {
            dir: dir.to_path_buf(),
            file: None,
            seg_index: next,
            seg_bytes: 0,
            segment_limit: segment_limit.max(WAL_RECORD_LEN as u64 + 8),
            started: 0,
        })
    }

    /// Appends one record, rotating segments at the size limit. Returns the
    /// bytes written (record plus segment header when one was started).
    pub fn append(&mut self, rec: WalRecord) -> std::io::Result<u64> {
        let mut written = 0u64;
        if self.file.is_none() || self.seg_bytes >= self.segment_limit {
            let path = segment_path(&self.dir, self.seg_index);
            let mut f = OpenOptions::new().create_new(true).write(true).open(path)?;
            f.write_all(WAL_MAGIC)?;
            self.seg_index += 1;
            self.started += 1;
            self.seg_bytes = WAL_MAGIC.len() as u64;
            written += WAL_MAGIC.len() as u64;
            self.file = Some(f);
        }
        let f = self.file.as_mut().expect("segment open");
        f.write_all(&rec.encode())?;
        self.seg_bytes += WAL_RECORD_LEN as u64;
        written += WAL_RECORD_LEN as u64;
        Ok(written)
    }

    /// Number of segments on disk.
    pub fn segment_count(&self) -> usize {
        segments(&self.dir).len()
    }

    /// Segments started by this handle since open or the last
    /// [`reset`](Self::reset) (no directory scan).
    pub fn segments_started(&self) -> u64 {
        self.started
    }

    /// Deletes every segment (after their contents were folded into a
    /// snapshot) and starts over with a fresh segment index.
    pub fn reset(&mut self) -> std::io::Result<()> {
        self.file = None;
        self.seg_bytes = 0;
        self.started = 0;
        for (_, path) in segments(&self.dir) {
            std::fs::remove_file(path)?;
        }
        self.seg_index = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copred_core::{Cell, ChtParams, Strategy};

    fn params() -> ChtParams {
        ChtParams {
            bits: 8,
            counter_bits: 4,
            strategy: Strategy::new(1.0),
            update_fraction: 1.0,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("copred-store-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn record_roundtrip_and_checksum() {
        let r = WalRecord {
            code: 0xDEAD_BEEF_CAFE,
            colliding: true,
        };
        let b = r.encode();
        assert_eq!(WalRecord::decode(&b), Some(r));
        let mut bad = b;
        bad[3] ^= 0x10;
        assert_eq!(WalRecord::decode(&bad), None);
        let mut flags = b;
        flags[8] = 7; // invalid flag byte, even with a fixed checksum
        flags[9] = checksum(&flags);
        assert_eq!(WalRecord::decode(&flags), None);
    }

    #[test]
    fn append_replay_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let mut wal = Wal::open(&dir, 1 << 16).unwrap();
        let mut expect = TableImage::empty(params());
        for i in 0..500u64 {
            let rec = WalRecord {
                code: i * 7,
                colliding: i % 3 != 0,
            };
            wal.append(rec).unwrap();
            expect.apply_record(rec.code, rec.colliding);
        }
        let mut image = TableImage::empty(params());
        let summary = replay(&dir, &mut image);
        assert_eq!(
            summary,
            ReplaySummary {
                applied: 500,
                torn: false
            }
        );
        assert_eq!(image.cells, expect.cells);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_rotate_and_replay_in_order() {
        let dir = tmp_dir("rotate");
        // Tiny limit: 8-byte header + room for two records per segment.
        let mut wal = Wal::open(&dir, 8 + 2 * WAL_RECORD_LEN as u64).unwrap();
        for i in 0..10u64 {
            wal.append(WalRecord {
                code: i,
                colliding: true,
            })
            .unwrap();
        }
        assert!(wal.segment_count() >= 3, "got {}", wal.segment_count());
        let mut image = TableImage::empty(params());
        let summary = replay(&dir, &mut image);
        assert_eq!(summary.applied, 10);
        for i in 0..10usize {
            assert_eq!(image.cells[i], Cell::new(1, 0));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_at_every_offset_is_prefix_consistent() {
        let dir = tmp_dir("torn");
        let mut wal = Wal::open(&dir, 1 << 16).unwrap();
        let records: Vec<WalRecord> = (0..20u64)
            .map(|i| WalRecord {
                code: i,
                colliding: i % 2 == 0,
            })
            .collect();
        for r in &records {
            wal.append(*r).unwrap();
        }
        drop(wal);
        let seg = segments(&dir).pop().unwrap().1;
        let full = std::fs::read(&seg).unwrap();
        for cut in 0..=full.len() {
            std::fs::write(&seg, &full[..cut]).unwrap();
            let mut image = TableImage::empty(params());
            let summary = replay(&dir, &mut image);
            // Applied count is the number of whole records before the cut.
            let whole = cut.saturating_sub(WAL_MAGIC.len()) / WAL_RECORD_LEN;
            assert_eq!(summary.applied as usize, whole, "cut at {cut}");
            // A cut on a record boundary leaves a well-formed shorter log —
            // not a tear. Everything else is.
            let on_boundary =
                cut >= WAL_MAGIC.len() && (cut - WAL_MAGIC.len()).is_multiple_of(WAL_RECORD_LEN);
            assert_eq!(
                summary.torn,
                cut < full.len() && !on_boundary,
                "cut at {cut}"
            );
            let mut expect = TableImage::empty(params());
            for r in &records[..whole] {
                expect.apply_record(r.code, r.colliding);
            }
            assert_eq!(image.cells, expect.cells, "cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tear_in_middle_segment_drops_later_segments() {
        let dir = tmp_dir("midtear");
        let mut wal = Wal::open(&dir, 8 + 2 * WAL_RECORD_LEN as u64).unwrap();
        for i in 0..6u64 {
            wal.append(WalRecord {
                code: i,
                colliding: true,
            })
            .unwrap();
        }
        drop(wal);
        let segs = segments(&dir);
        assert!(segs.len() >= 3);
        // Corrupt a record in the first segment.
        let first = &segs[0].1;
        let mut bytes = std::fs::read(first).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        std::fs::write(first, &bytes).unwrap();
        let mut image = TableImage::empty(params());
        let summary = replay(&dir, &mut image);
        assert!(summary.torn);
        assert_eq!(summary.applied, 1, "only the first intact record");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_starts_fresh_segment() {
        let dir = tmp_dir("reopen");
        let mut wal = Wal::open(&dir, 1 << 16).unwrap();
        wal.append(WalRecord {
            code: 1,
            colliding: true,
        })
        .unwrap();
        drop(wal);
        let mut wal = Wal::open(&dir, 1 << 16).unwrap();
        wal.append(WalRecord {
            code: 2,
            colliding: true,
        })
        .unwrap();
        assert_eq!(wal.segment_count(), 2);
        let mut image = TableImage::empty(params());
        assert_eq!(replay(&dir, &mut image).applied, 2);
        wal.reset().unwrap();
        assert_eq!(wal.segment_count(), 0);
        let mut image = TableImage::empty(params());
        assert_eq!(replay(&dir, &mut image).applied, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
