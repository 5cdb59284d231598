//! Persistent CHT state: snapshots, write-ahead log, and
//! environment-fingerprinted warm-start.
//!
//! COORD's benefit comes from the Collision History Table warming up over a
//! planning episode; this crate makes that learned state durable so it
//! survives session eviction, server restarts, and crashes:
//!
//! - [`snapshot`]: a versioned, CRC-protected binary image of a table
//!   ([`TableImage`]), bit-exact across every counter width including the
//!   1-bit `S = 0` mode.
//! - [`wal`]: an append-only log of *applied* observe writes with segment
//!   rotation and torn-tail-tolerant replay. Only applied writes are logged
//!   (see `ConcurrentCht::observe`'s return value), so replay is a pure
//!   saturating increment — no RNG state needed to reproduce the table.
//! - [`fingerprint`]: a stable hash over robot model + obstacle set keying
//!   the [`StoreRegistry`], so a new session planning in a known environment
//!   warm-starts from the fleet's accumulated table instead of cold.
//! - [`registry`]: directory layout, copy-on-lease ownership (concurrent
//!   sessions with the same fingerprint never alias a mutable shard), and
//!   crash recovery (`snapshot + WAL-suffix replay ≡ live table`).
//!
//! Format stability: the snapshot header (`CPRDSNAP`, version 1) and WAL
//! segment format (`CPRDWAL1`, 10-byte records) are a compatibility
//! contract — see ROADMAP.md. Everything is std-only, like the BENCH JSON.

#![forbid(unsafe_code)]

pub mod crc;
pub mod fingerprint;
pub mod registry;
pub mod snapshot;
pub mod stats;
pub mod wal;

pub use fingerprint::environment_fingerprint;
pub use registry::{OpenedStore, SessionStore, StoreRegistry};
pub use snapshot::{read_snapshot, write_snapshot, TableImage, SNAPSHOT_VERSION};
pub use stats::StoreStats;
pub use wal::{Wal, WalRecord, WAL_RECORD_LEN};

use std::fmt;

/// Errors from the persistence layer. Corruption is a recoverable condition
/// (the store falls back to a cold start), never a panic.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The bytes on disk do not decode (bad magic/version/CRC/length).
    Corrupt(String),
    /// The decoded image exists but does not match the requested table
    /// parameters — treated as a cold miss by the registry.
    Mismatch(String),
    /// The fingerprint is leased by a live session that owns its write
    /// side; a replication merge under it would interleave two writers.
    /// The pusher retries after the lease is released (or drops the push —
    /// replication is best-effort).
    Leased(u64),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io: {e}"),
            StoreError::Corrupt(m) => write!(f, "corrupt: {m}"),
            StoreError::Mismatch(m) => write!(f, "mismatch: {m}"),
            StoreError::Leased(fp) => write!(f, "fingerprint {fp:016x} is leased"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}
