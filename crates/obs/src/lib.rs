//! `copred-obs`: observability for the COORD reproduction.
//!
//! Three std-only pieces, designed to be cheap enough to leave compiled
//! into release hot paths:
//!
//! * [`span`]/[`instant`]/[`counter`] and [`flight_op`] — a zero-alloc
//!   recorder. Each thread writes [`Event`]s into its own fixed-capacity
//!   rings, one for spans and one for the always-on flight recorder, each
//!   behind that thread's uncontended mutex; a full ring overwrites its
//!   oldest event. Snapshots copy without consuming and merge rings by
//!   global sequence number. When span recording is disabled (the
//!   default) an instrumentation site costs one relaxed atomic load and a
//!   branch.
//! * [`chrome_trace_json`]/[`flight_json`] — exporters for snapshots. The
//!   Chrome form loads directly into `chrome://tracing` or Perfetto.
//! * [`PromBuf`]/[`parse_prometheus`]/[`MetricsServer`] — Prometheus
//!   text-exposition (0.0.4) rendering, a parser for round-trip and
//!   scrape-based conformance tests, and a plain `std::net` HTTP endpoint
//!   serving `GET /metrics`.
//! * [`stage`]/[`Sampler`]/[`Profile`] — `copred-profile`, the always-on
//!   continuous profiler: threads publish a fixed-depth stage stack into
//!   per-thread seqlock cells; a dedicated sampler (or a deterministic
//!   virtual-clock driver) accumulates wall-time-by-stage-path profiles
//!   exported as folded stacks, `/debug/profile` text, and
//!   `copred_profile_*` metrics.
//!
//! The crate deliberately knows nothing about collision prediction: the
//! service, software executor, and accelerator simulator each decide what
//! to record and how to name it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bench;
mod chrome;
mod flight;
mod http;
mod profile;
mod prom;
mod span;
mod threadreg;
mod tracectx;
mod vclock;

pub use bench::{
    check_against_baseline, BenchRecord, BenchReport, BenchWriter, Better, CheckConfig, MetricKind,
    Regression, BENCH_SCHEMA_VERSION,
};
pub use chrome::{chrome_trace_json, chrome_trace_json_with_profile};
pub use flight::{flight_json, flight_op, flight_snapshot, FLIGHT_CAPACITY};
pub use http::{http_get, MetricsServer, RenderFn};
pub use profile::{
    sample_once, stage, PathKey, Profile, ProfileSnapshot, Sampler, Stage, StageCell, StageGuard,
    ThreadFractions, DEFAULT_SAMPLE_INTERVAL, MAX_STAGE_DEPTH,
};
pub use prom::{parse_prometheus, PromBuf, PromSample};
pub use span::{
    counter, disable, drain_events, dropped_events, enable, enabled, instant, snapshot_events,
    span, span_at, timestamp_ns, Event, EventKind, SpanGuard,
};
pub use tracectx::{current_trace, set_current_trace, TraceId, TraceScope};
pub use vclock::{TrackId, VEvent, VEventKind, VirtualTrace};
