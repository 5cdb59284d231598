//! copred-service: a batched, session-sharded collision-prediction server.
//!
//! The paper's predictor assumes the CHT sits next to the collision
//! checker; this crate packages the same machinery behind a TCP service so
//! many planners can share one accelerator-style backend. Each planning
//! query opens a *session* that leases a private [`copred_swexec::ShardedCht`]
//! shard; motion-check batches are dispatched through a bounded worker
//! pool running the predictor-ordered scheduler
//! ([`copred_collision::run_predicted_schedule`], the paper's Algorithm 1).
//!
//! Layers, bottom-up:
//!
//! - [`protocol`] — text verbs over length-prefixed frames
//!   ([`copred_trace::frame`]); motion payloads reuse the trace encoding.
//! - [`metrics`] — atomic counters and log-linear latency histograms
//!   (p50/p95/p99 to within 5/4×), plus per-session prediction confusion
//!   counts.
//! - [`prom`] — Prometheus text exposition of those metrics; the server
//!   serves it on `GET /metrics` when configured with a metrics address.
//! - [`session`] — the session registry: shard leasing, LRU eviction,
//!   per-session bounded queues.
//! - [`server`] — accept loop, per-connection readers, worker pool with
//!   explicit backpressure (`err retry_after`).
//! - [`client`] — a small blocking client used by tests and the load
//!   generator.
//! - [`loadgen`] — closed-/open-loop load generation over captured
//!   [`copred_trace::QueryTrace`] workloads. Every wire op is recorded as
//!   a [`LogRecord`] with its full request/response payloads; the
//!   `copred-replay` crate writes those records as a CPRDLOG op-log.

pub mod client;
pub mod loadgen;
pub mod metrics;
pub mod prom;
pub mod protocol;
pub mod server;
pub mod session;

pub use client::ServiceClient;
pub use loadgen::{
    run_loadgen, write_stats_tsv, LoadgenConfig, LoadgenReport, LogRecord, Pacing, StatsSnapshot,
};
pub use metrics::{LatencyHistogram, Metrics, SessionMetrics};
pub use prom::{
    fleet_stats, render_prometheus, replay_stats, FleetStats, ReplayStats, FLEET_COUNTERS,
    GLOBAL_COUNTERS, REPLAY_COUNTERS, SESSION_COUNTERS, STORE_COUNTERS, TRACE_COUNTERS,
};
pub use protocol::{CheckResult, Request, Response, SchedMode, ServiceError, MAX_BATCH};
pub use server::{Server, ServerConfig};
pub use session::{execute_batch, OpenOutcome, SessionRegistry, SessionState, TimedPredictor};
