//! copred-service: a batched, session-sharded collision-prediction server.
//!
//! The paper's predictor assumes the CHT sits next to the collision
//! checker; this crate packages the same machinery behind a TCP service so
//! many planners can share one accelerator-style backend. Each planning
//! query opens a *session* that leases a private
//! [`copred_swexec::ConcurrentCht`] from the registry's fixed set of slots;
//! motion-check batches run on the connection thread that read them,
//! behind one bounded FIFO admission gate, through the predictor-ordered
//! scheduler ([`copred_collision::run_predicted_schedule`], the paper's
//! Algorithm 1).
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
//! - [`server`] — accept loop, per-connection handlers, and the FIFO
//!   admission gate with explicit backpressure (`err retry_after`).
//! - [`client`] — a small blocking client for tests and replay backends.
//!
//! Load generation lives outside this crate: `copred-replay` builds a
//! planner workload's op stream as data, drives it over N client
//! connections, and records it as a CPRDLOG op-log (`copred_loadgen`).

pub mod client;
pub mod metrics;
pub mod prom;
pub mod protocol;
pub mod server;
pub mod session;

pub use client::ServiceClient;
pub use metrics::{LatencyHistogram, Metrics, SessionMetrics};
pub use prom::{
    fleet_stats, render_prometheus, replay_stats, FleetStats, ReplayStats, FLEET_COUNTERS,
    GLOBAL_COUNTERS, REPLAY_COUNTERS, SESSION_COUNTERS, STORE_COUNTERS, TRACE_COUNTERS,
};
pub use protocol::{CheckResult, Request, Response, SchedMode, ServiceError, MAX_BATCH};
pub use server::{Server, ServerConfig};
pub use session::{execute_batch, OpenOutcome, SessionRegistry, SessionState, TimedPredictor};
