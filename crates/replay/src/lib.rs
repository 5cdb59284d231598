//! `copred-replay`: versioned op-log record/replay — the canonical
//! workload interchange format for copred backends.
//!
//! A recorded session is a **CPRDLOG** container ([`format`]): a
//! self-describing binary log carrying a magic + schema version, the
//! workload's seed / robot model / obstacle-set fingerprint / scale,
//! and one record per wire op (monotonic timestamps, session tag, full
//! request and response payloads), sealed by a checksummed footer with
//! the record count. The reader tolerates torn tails — a log truncated
//! mid-record (crash, `kill -9`) parses to the clean prefix — while
//! anything *decodably wrong* (bad magic, unknown version, checksum
//! mismatch) is a structured [`format::ReplayLogError`].
//!
//! The engine ([`engine`]) drives a log against any
//! [`backend::ReplayBackend`] in three modes: `sequential` (as fast as
//! possible), `timing` (faithful to recorded inter-op gaps, wall or
//! virtual clock), and `scaled` (gaps divided by a speed factor).
//! Because session tokens are server-assigned, the engine remaps
//! recorded tokens to live ones on the fly; with comparison on, every
//! live answer is held against the recorded one (open responses
//! normalized to mask the token) and differences surface as
//! [`engine::OpDiff`]s — the bit-identity signal the conformance
//! harness and the CI replay gate assert on.
//!
//! [`ab`] is the differential engine: one log against N backends, with
//! divergences from the recording, between backends, across a
//! determinism re-run, and in the per-session metrics ledgers collected
//! in one outcome (and rolled into a `bench_json` report on request).
//! Its [`record`] helper turns a live single-connection loadgen run into
//! a log.
//!
//! ## Format stability
//!
//! `CPRDLOG` version 1 is a stability contract (like `CPRDSNAP` and
//! `bench_json`): committed logs under `workloads/` must parse forever.
//! Additive evolution bumps [`format::LOG_VERSION`]; readers reject
//! newer versions with [`format::ReplayLogError::VersionMismatch`]
//! rather than guessing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ab;
pub mod backend;
pub mod cli;
pub mod engine;
pub mod format;

pub use ab::{ab_report, record, run_ab, unrecorded_log, AbOutcome, Arm, ArmOutcome, Differential};
pub use backend::{InProcessBackend, LoopbackBackend, ReplayBackend};
pub use engine::{
    normalize_response, run_replay, strip_trace_token, Clock, Ledger, OpDiff, ReplayError,
    ReplayMode, ReplayOptions, ReplayOutcome,
};
pub use format::{
    read_log, read_log_file, write_log, LogMeta, LogRecord, LogWriter, ReplayLog, ReplayLogError,
    LOG_MAGIC, LOG_VERSION,
};
