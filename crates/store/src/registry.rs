//! The fingerprint-keyed store registry and per-session store handles.
//!
//! On-disk layout: one directory per environment fingerprint under the
//! store root, holding a snapshot plus WAL segments:
//!
//! ```text
//! <root>/<fp as 16 hex digits>/snapshot.bin
//! <root>/<fp as 16 hex digits>/wal-000000.log …
//! ```
//!
//! **Copy-on-lease**: opening a session copies the stored image into the
//! session's private shard — stored state and live shards never alias. The
//! *first* concurrent session per fingerprint owns the write side (WAL
//! appends + persist); later sessions on the same fingerprint get a
//! *detached* handle (warm copy, no writeback) so two writers can never
//! interleave one log. Ownership returns to the pool when the owning
//! handle drops.

use crate::snapshot::{read_snapshot, write_snapshot, TableImage};
use crate::stats::StoreStats;
use crate::wal::{self, Wal, WalRecord};
use crate::StoreError;
use copred_core::ChtParams;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Default WAL segment rotation size.
pub const DEFAULT_SEGMENT_LIMIT: u64 = 64 * 1024;

/// Default segment count that triggers compaction into a snapshot.
pub const DEFAULT_COMPACT_SEGMENTS: u64 = 4;

/// Outcome of opening a session against the store.
#[derive(Debug)]
pub struct OpenedStore {
    /// The stored table to warm-start from, when one was found.
    pub image: Option<TableImage>,
    /// The session's handle for WAL appends and persistence.
    pub store: SessionStore,
}

/// A fingerprint-keyed registry of persisted CHT tables.
#[derive(Debug)]
pub struct StoreRegistry {
    root: PathBuf,
    stats: Arc<StoreStats>,
    active: Arc<Mutex<HashSet<u64>>>,
    segment_limit: u64,
    compact_segments: u64,
}

impl StoreRegistry {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(StoreRegistry {
            root,
            stats: Arc::new(StoreStats::new()),
            active: Arc::new(Mutex::new(HashSet::new())),
            segment_limit: DEFAULT_SEGMENT_LIMIT,
            compact_segments: DEFAULT_COMPACT_SEGMENTS,
        })
    }

    /// Overrides the WAL rotation/compaction thresholds (tests exercise
    /// rotation with tiny segments).
    pub fn with_wal_limits(mut self, segment_limit: u64, compact_segments: u64) -> Self {
        self.segment_limit = segment_limit;
        self.compact_segments = compact_segments.max(1);
        self
    }

    /// The store root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Shared telemetry counters.
    pub fn stats(&self) -> Arc<StoreStats> {
        Arc::clone(&self.stats)
    }

    fn table_dir(&self, fp: u64) -> PathBuf {
        self.root.join(format!("{fp:016x}"))
    }

    /// Reads the stored table for `fp` without leasing it: snapshot (when
    /// present, valid, and parameter-matching) plus WAL-suffix replay.
    /// Returns `None` when nothing usable is stored — corruption and
    /// parameter mismatches degrade to a cold start, never an error.
    pub fn load(&self, fp: u64, params: &ChtParams) -> Option<TableImage> {
        let _store_stage = copred_obs::stage(copred_obs::Stage::Store);
        let dir = self.table_dir(fp);
        let snap = dir.join("snapshot.bin");
        let mut snapshot_loaded = false;
        let base = match read_snapshot(&snap) {
            Ok(image) if image.params == *params => {
                snapshot_loaded = true;
                Some(image)
            }
            // Mismatched parameters or a corrupt snapshot: the stored state
            // is for a different table shape (or unreadable) — cold start,
            // and skip the WAL too since its records target that table.
            Ok(_) => return None,
            Err(StoreError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(_) => return None,
        };
        let mut image = base.unwrap_or_else(|| TableImage::empty(*params));
        let summary = wal::replay(&dir, &mut image);
        if snapshot_loaded {
            self.stats.snapshots_loaded.fetch_add(1, Ordering::Relaxed);
        }
        if summary.applied > 0 {
            self.stats.recovery_replays.fetch_add(1, Ordering::Relaxed);
        }
        if snapshot_loaded || summary.applied > 0 {
            Some(image)
        } else {
            None
        }
    }

    /// Merges a replicated table image into the stored state for `fp` —
    /// the receiving half of fleet warm-state replication. The stored
    /// snapshot plus WAL suffix (exactly what a warm open would load) is
    /// max-merged into `incoming` and written back as a fresh snapshot,
    /// after which the folded WAL segments are cleared. Stored state with
    /// *different* parameters is stale by the same rule [`load`](Self::load)
    /// uses and is replaced outright; corrupt stored state likewise.
    ///
    /// Returns `true` when usable stored state was merged in, `false` when
    /// the incoming image was installed fresh.
    ///
    /// # Errors
    ///
    /// [`StoreError::Leased`] when a live session owns `fp`'s write side
    /// (merging under it would interleave two writers — the pusher treats
    /// this as a soft rejection), or any I/O error from the snapshot/WAL
    /// writes. Either way the stored state stays cold-startable.
    pub fn merge_image(&self, fp: u64, incoming: &TableImage) -> Result<bool, StoreError> {
        let _store_stage = copred_obs::stage(copred_obs::Stage::Store);
        // Take the lease for the duration of the merge so a concurrent
        // open cannot start a WAL this merge would then clear.
        if !lock(&self.active).insert(fp) {
            return Err(StoreError::Leased(fp));
        }
        let _lease = Lease {
            active: &self.active,
            fp,
        };
        let mut merged = incoming.clone();
        let had_state = match self.load(fp, &incoming.params) {
            Some(existing) => {
                merged.merge_max(&existing)?;
                true
            }
            None => false,
        };
        let dir = self.table_dir(fp);
        std::fs::create_dir_all(&dir)?;
        write_snapshot(&dir.join("snapshot.bin"), &merged)?;
        self.stats.snapshots_written.fetch_add(1, Ordering::Relaxed);
        // The WAL suffix (if any) is folded into the snapshot now; clear it
        // so a later open does not replay it on top a second time.
        Wal::open(&dir, self.segment_limit)?.reset()?;
        Ok(had_state)
    }

    /// Opens the store for a session planning under fingerprint `fp`.
    ///
    /// Returns the warm-start image (if any) and a [`SessionStore`] handle.
    /// The first live session per fingerprint owns the write side; later
    /// concurrent sessions get a detached handle (reads the warm copy,
    /// never writes back). Warm-hit/miss telemetry is counted here.
    pub fn open_session(&self, fp: u64, params: &ChtParams) -> std::io::Result<OpenedStore> {
        let image = self.load(fp, params);
        if image.is_some() {
            self.stats.warm_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.warm_misses.fetch_add(1, Ordering::Relaxed);
        }
        let owner = lock(&self.active).insert(fp);
        let dir = self.table_dir(fp);
        let wal = if owner {
            match Wal::open(&dir, self.segment_limit) {
                Ok(wal) => Some(wal),
                Err(e) => {
                    lock(&self.active).remove(&fp);
                    return Err(e);
                }
            }
        } else {
            None
        };
        Ok(OpenedStore {
            image,
            store: SessionStore {
                fp,
                dir,
                params: *params,
                wal: Mutex::new(wal),
                stats: Arc::clone(&self.stats),
                active: Arc::clone(&self.active),
                compact_segments: self.compact_segments,
            },
        })
    }
}

/// One session's handle into the store. Owner handles append to the WAL
/// and persist snapshots; detached handles (a concurrent session on the
/// same fingerprint) treat both as no-ops.
#[derive(Debug)]
pub struct SessionStore {
    fp: u64,
    dir: PathBuf,
    params: ChtParams,
    /// `Some` iff this handle owns the fingerprint's write side.
    wal: Mutex<Option<Wal>>,
    stats: Arc<StoreStats>,
    active: Arc<Mutex<HashSet<u64>>>,
    compact_segments: u64,
}

impl SessionStore {
    /// The environment fingerprint this handle persists under.
    pub fn fp(&self) -> u64 {
        self.fp
    }

    /// Whether this handle owns the write side.
    pub fn is_owner(&self) -> bool {
        lock(&self.wal).is_some()
    }

    /// The table parameters the store was opened with.
    pub fn params(&self) -> &ChtParams {
        &self.params
    }

    /// Logs one applied observe write. When segment rotation pushes the log
    /// past the compaction threshold, folds the WAL into a fresh snapshot
    /// using `image_fn` (called under the WAL lock, so the image is
    /// consistent with everything logged so far). Detached handles no-op.
    pub fn log_observe(
        &self,
        code: u64,
        colliding: bool,
        image_fn: impl FnOnce() -> TableImage,
    ) -> Result<(), StoreError> {
        let mut guard = lock(&self.wal);
        let Some(wal) = guard.as_mut() else {
            return Ok(());
        };
        let written = wal.append(WalRecord { code, colliding })?;
        self.stats.wal_bytes.fetch_add(written, Ordering::Relaxed);
        if wal.segments_started() > self.compact_segments {
            let image = image_fn();
            write_snapshot(&self.dir.join("snapshot.bin"), &image)?;
            self.stats.snapshots_written.fetch_add(1, Ordering::Relaxed);
            wal.reset()?;
        }
        Ok(())
    }

    /// Persists the table image as a snapshot and truncates the WAL —
    /// called on session close and eviction. Returns `Ok(false)` on a
    /// detached handle (nothing written).
    pub fn persist(&self, image: &TableImage) -> Result<bool, StoreError> {
        let _store_stage = copred_obs::stage(copred_obs::Stage::Store);
        let mut guard = lock(&self.wal);
        let Some(wal) = guard.as_mut() else {
            return Ok(false);
        };
        write_snapshot(&self.dir.join("snapshot.bin"), image)?;
        self.stats.snapshots_written.fetch_add(1, Ordering::Relaxed);
        wal.reset()?;
        Ok(true)
    }
}

impl Drop for SessionStore {
    fn drop(&mut self) {
        if self.is_owner() {
            lock(&self.active).remove(&self.fp);
        }
    }
}

/// Locks `m`, recovering the data of a poisoned lock. Each critical
/// section in this file leaves its data valid after every step (a set
/// insert or remove; WAL appends of whole records; snapshots written to a
/// temporary file and renamed), so a panic under a lock must not wedge
/// the store.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A fingerprint's write-side lease, returned to the active set on drop
/// so neither an error nor a panic can leak it.
struct Lease<'a> {
    active: &'a Mutex<HashSet<u64>>,
    fp: u64,
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        lock(self.active).remove(&self.fp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copred_core::{Cell, Strategy};

    fn params() -> ChtParams {
        ChtParams {
            bits: 8,
            counter_bits: 4,
            strategy: Strategy::new(1.0),
            update_fraction: 1.0,
        }
    }

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("copred-store-reg-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn stat(registry: &StoreRegistry, name: &str) -> u64 {
        registry
            .stats()
            .stat_lines()
            .into_iter()
            .find(|(n, _)| *n == name)
            .unwrap()
            .1
    }

    #[test]
    fn cold_miss_then_warm_hit_roundtrip() {
        let root = tmp_root("warm");
        let registry = StoreRegistry::open(&root).unwrap();
        let fp = 0xFEED;
        let opened = registry.open_session(fp, &params()).unwrap();
        assert!(opened.image.is_none());
        assert!(opened.store.is_owner());
        assert_eq!(stat(&registry, "warm_misses"), 1);
        let mut image = TableImage::empty(params());
        image.u_state = 99;
        image.cells[3] = Cell::new(5, 1);
        assert!(opened.store.persist(&image).unwrap());
        drop(opened);
        let again = registry.open_session(fp, &params()).unwrap();
        assert_eq!(again.image.as_ref(), Some(&image));
        assert_eq!(stat(&registry, "warm_hits"), 1);
        assert_eq!(stat(&registry, "snapshots_loaded"), 1);
        assert_eq!(stat(&registry, "snapshots_written"), 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn wal_suffix_replays_on_load() {
        let root = tmp_root("replay");
        let registry = StoreRegistry::open(&root).unwrap();
        let fp = 0xBEEF;
        let opened = registry.open_session(fp, &params()).unwrap();
        let mut live = TableImage::empty(params());
        for i in 0..30u64 {
            opened
                .store
                .log_observe(i, i % 2 == 0, || unreachable!("no compaction yet"))
                .unwrap();
            live.apply_record(i, i % 2 == 0);
        }
        // Simulate a crash: drop without persist. The WAL alone must
        // reconstruct the table.
        drop(opened);
        let recovered = registry.load(fp, &params()).unwrap();
        assert_eq!(recovered.cells, live.cells);
        assert_eq!(stat(&registry, "recovery_replays"), 1);
        assert!(stat(&registry, "wal_bytes") >= 30 * WAL_RECORD_LEN_U64);
        std::fs::remove_dir_all(&root).unwrap();
    }

    const WAL_RECORD_LEN_U64: u64 = crate::wal::WAL_RECORD_LEN as u64;

    #[test]
    fn compaction_folds_wal_into_snapshot() {
        let root = tmp_root("compact");
        // Two records per segment, compact at >2 segments.
        let registry = StoreRegistry::open(&root)
            .unwrap()
            .with_wal_limits(8 + 2 * WAL_RECORD_LEN_U64, 2);
        let fp = 0xC0FFEE;
        let opened = registry.open_session(fp, &params()).unwrap();
        let mut live = TableImage::empty(params());
        for i in 0..12u64 {
            live.apply_record(i, true);
            let snapshot = live.clone();
            opened.store.log_observe(i, true, move || snapshot).unwrap();
        }
        assert!(
            stat(&registry, "snapshots_written") >= 1,
            "compaction must have produced a snapshot"
        );
        drop(opened);
        // Recovery sees snapshot + post-compaction WAL suffix == live.
        let recovered = registry.load(fp, &params()).unwrap();
        assert_eq!(recovered.cells, live.cells);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn concurrent_same_fp_sessions_are_copy_on_lease() {
        let root = tmp_root("detach");
        let registry = StoreRegistry::open(&root).unwrap();
        let fp = 0xAA;
        let first = registry.open_session(fp, &params()).unwrap();
        let second = registry.open_session(fp, &params()).unwrap();
        assert!(first.store.is_owner());
        assert!(!second.store.is_owner(), "second concurrent lease detaches");
        // Detached writes are no-ops.
        second
            .store
            .log_observe(1, true, || TableImage::empty(params()))
            .unwrap();
        assert!(!second.store.persist(&TableImage::empty(params())).unwrap());
        assert_eq!(stat(&registry, "wal_bytes"), 0);
        // Ownership returns when the owner drops.
        drop(first);
        let third = registry.open_session(fp, &params()).unwrap();
        assert!(third.store.is_owner());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn merge_image_folds_stored_state_and_clears_wal() {
        let root = tmp_root("merge");
        let registry = StoreRegistry::open(&root).unwrap();
        let fp = 0x11AD;
        // Seed stored state via a session that crashes (WAL only).
        let opened = registry.open_session(fp, &params()).unwrap();
        for i in 0..8u64 {
            opened
                .store
                .log_observe(i, true, || unreachable!("no compaction"))
                .unwrap();
        }
        drop(opened); // no persist: state lives in the WAL suffix
        let mut incoming = TableImage::empty(params());
        incoming.u_state = 41;
        incoming.cells[3] = Cell::new(9, 2);
        assert!(registry.merge_image(fp, &incoming).unwrap());
        let loaded = registry.load(fp, &params()).unwrap();
        assert_eq!(loaded.cells[3], Cell::new(9, 2), "incoming cell present");
        assert_eq!(loaded.cells[5], Cell::new(1, 0), "WAL suffix folded in");
        assert_eq!(loaded.u_state, 41, "incoming lineage's RNG word wins");
        // Duplicate push converges: merging the same image changes nothing.
        registry.merge_image(fp, &incoming).unwrap();
        assert_eq!(registry.load(fp, &params()).unwrap(), loaded);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn merge_image_installs_fresh_on_cold_or_mismatched_store() {
        let root = tmp_root("merge-cold");
        let registry = StoreRegistry::open(&root).unwrap();
        let fp = 0x22BE;
        let mut incoming = TableImage::empty(params());
        incoming.cells[0] = Cell::new(2, 1);
        assert!(
            !registry.merge_image(fp, &incoming).unwrap(),
            "nothing stored: fresh install"
        );
        assert_eq!(
            registry.load(fp, &params()).unwrap().cells[0],
            Cell::new(2, 1)
        );
        // Stored state under different parameters is stale (same rule as
        // load): the incoming image replaces it rather than erroring.
        let other = ChtParams {
            counter_bits: 2,
            ..params()
        };
        let mut reshaped = TableImage::empty(other);
        reshaped.cells[7] = Cell::new(3, 0);
        assert!(!registry.merge_image(fp, &reshaped).unwrap());
        assert_eq!(registry.load(fp, &other).unwrap().cells[7], Cell::new(3, 0));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn merge_image_rejects_leased_fingerprint() {
        let root = tmp_root("merge-leased");
        let registry = StoreRegistry::open(&root).unwrap();
        let fp = 0x33CF;
        let opened = registry.open_session(fp, &params()).unwrap();
        assert!(opened.store.is_owner());
        let incoming = TableImage::empty(params());
        assert!(matches!(
            registry.merge_image(fp, &incoming),
            Err(StoreError::Leased(f)) if f == fp
        ));
        // The lease returns with the owner; the merge then succeeds.
        drop(opened);
        assert!(registry.merge_image(fp, &incoming).is_ok());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_panic_under_the_wal_lock_does_not_wedge_the_store() {
        let root = tmp_root("poison");
        // One record per segment: the second append compacts.
        let registry = StoreRegistry::open(&root)
            .unwrap()
            .with_wal_limits(8 + WAL_RECORD_LEN_U64, 1);
        let fp = 0x9015;
        let opened = registry.open_session(fp, &params()).unwrap();
        opened
            .store
            .log_observe(1, true, || unreachable!())
            .unwrap();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            opened
                .store
                .log_observe(2, true, || panic!("image_fn panicked"))
        }));
        assert!(panicked.is_err(), "compaction must have called image_fn");
        assert!(opened.store.is_owner());
        let mut image = TableImage::empty(params());
        image.cells[2] = Cell::new(1, 0);
        assert!(opened.store.persist(&image).unwrap());
        drop(opened);
        let again = registry.open_session(fp, &params()).unwrap();
        assert!(again.store.is_owner(), "the lease must return on drop");
        assert_eq!(again.image.as_ref(), Some(&image));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_failed_wal_open_returns_the_lease() {
        let root = tmp_root("wal-open");
        let registry = StoreRegistry::open(&root).unwrap();
        let fp = 0x0BAD;
        // A plain file where the table directory belongs fails the open.
        let dir = registry.root().join(format!("{fp:016x}"));
        std::fs::write(&dir, b"not a directory").unwrap();
        assert!(registry.open_session(fp, &params()).is_err());
        std::fs::remove_file(&dir).unwrap();
        let opened = registry.open_session(fp, &params()).unwrap();
        assert!(opened.store.is_owner(), "the failed open leaked the lease");
        drop(opened);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn mismatched_params_degrade_to_cold() {
        let root = tmp_root("mismatch");
        let registry = StoreRegistry::open(&root).unwrap();
        let fp = 0x77;
        let opened = registry.open_session(fp, &params()).unwrap();
        let image = TableImage::empty(params());
        opened.store.persist(&image).unwrap();
        drop(opened);
        let other = ChtParams {
            counter_bits: 2,
            ..params()
        };
        assert!(registry.load(fp, &other).is_none());
        let reopened = registry.open_session(fp, &other).unwrap();
        assert!(reopened.image.is_none(), "mismatch is a cold start");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupt_snapshot_degrades_to_cold() {
        let root = tmp_root("corrupt");
        let registry = StoreRegistry::open(&root).unwrap();
        let fp = 0x99;
        let opened = registry.open_session(fp, &params()).unwrap();
        let mut image = TableImage::empty(params());
        image.cells[0] = Cell::new(1, 0);
        opened.store.persist(&image).unwrap();
        drop(opened);
        let snap = registry
            .root()
            .join(format!("{fp:016x}"))
            .join("snapshot.bin");
        let mut bytes = std::fs::read(&snap).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        std::fs::write(&snap, bytes).unwrap();
        assert!(registry.load(fp, &params()).is_none());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
