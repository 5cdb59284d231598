//! Closed- and open-loop load generation over captured planner traces.
//!
//! Each [`copred_trace::QueryTrace`] plays as one session: the generator
//! opens it, replays the trace's motion checks in batches, and closes it.
//! Traces are dealt round-robin across `connections` concurrent client
//! connections. Closed-loop mode issues the next batch as soon as the
//! previous reply lands (throughput probe); open-loop mode fires batches
//! on a fixed interval regardless of reply latency (latency-under-load
//! probe), absorbing `retry_after` backpressure by sleeping as told.
//!
//! Every wire operation is recorded as a [`LogRecord`]; the merged,
//! time-sorted log plus aggregate counters come back in a
//! [`LoadgenReport`]. `copred-replay` serializes the same records as its
//! CPRDLOG container.

use crate::client::ServiceClient;
use crate::protocol::{Request, Response, SchedMode};
use copred_obs::TraceId;
use copred_trace::QueryTrace;
use std::fmt::Write as _;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// One recorded wire operation: the full request and (final) response
/// payload text plus the timing envelope — everything needed to re-issue
/// the op and check the answer bit-for-bit. This is the one op record in
/// the workspace: the load generator produces it and `copred-replay`
/// writes and reads it as CPRDLOG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Global operation index in recorded completion order.
    pub idx: u64,
    /// Session token the recording run saw (replays remap it).
    pub session: u64,
    /// Start time as nanoseconds since the run epoch; monotonically
    /// non-decreasing across the log.
    pub start_ns: u64,
    /// Wall time from write to parsed reply.
    pub duration_ns: u64,
    /// Wire verb (`open`, `check_motion`, `close`, ...).
    pub verb: String,
    /// Recorded outcome (`ok`, `retry_after`, `err`).
    pub status: String,
    /// Recorder session tag, e.g. `conn0/trace2` — stable across replays
    /// where the server-assigned token is not.
    pub tag: String,
    /// Request payload text as sent on the wire.
    pub request: String,
    /// Response payload text as received (final reply after any
    /// `retry_after` rounds).
    pub response: String,
}

/// One periodic sample of the server's global stats during a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Nanoseconds since the run epoch when the sample returned.
    pub elapsed_ns: u64,
    /// The server's global stat key/value pairs, in server order.
    pub stats: Vec<(String, String)>,
}

/// When the generator issues the next batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pacing {
    /// Issue immediately after the previous reply (one outstanding batch
    /// per connection).
    Closed,
    /// Issue on a fixed schedule of one batch per `interval_us`
    /// microseconds per connection.
    Open {
        /// Microseconds between scheduled batch starts.
        interval_us: u64,
    },
}

/// Load-generator tunables.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address.
    pub addr: String,
    /// Concurrent client connections.
    pub connections: usize,
    /// Scheduling mode requested for every session.
    pub mode: SchedMode,
    /// Base seed for the sessions' `U`-policy streams (combined with the
    /// trace index, so replays are deterministic).
    pub seed: u64,
    /// Closed- or open-loop issue policy.
    pub pacing: Pacing,
    /// Motions per CHECK_MOTION batch.
    pub batch: usize,
    /// Backpressure retries per batch before giving up.
    pub max_retries: usize,
    /// When set, a sampler connection polls the server's global stats on
    /// this interval (plus once at run end); the snapshots come back in
    /// [`LoadgenReport::stats_snapshots`].
    pub metrics_interval: Option<Duration>,
    /// Per-trace environment fingerprints (parallel to the trace list).
    /// When set, each `open` carries `fingerprints[trace_idx]` so a
    /// store-enabled server can warm-start matching sessions.
    pub fingerprints: Option<Vec<u64>>,
    /// Attach a deterministic causal trace id (derived from the session
    /// seed and batch index) to every check batch, and verify the server's
    /// echo.
    pub trace_ids: bool,
    /// When set, the stats sampler rewrites this sidecar TSV (atomically,
    /// temp + rename) after every snapshot, so a killed run still leaves
    /// its partial stats on disk. Requires [`Self::metrics_interval`].
    pub stats_tsv: Option<String>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:7457".to_string(),
            connections: 8,
            mode: SchedMode::Coord,
            seed: 1,
            pacing: Pacing::Closed,
            batch: 8,
            max_retries: 64,
            metrics_interval: None,
            fingerprints: None,
            trace_ids: false,
            stats_tsv: None,
        }
    }
}

/// What a load-generation run produced.
#[derive(Debug, Clone, Default)]
pub struct LoadgenReport {
    /// All operations, sorted by start time and reindexed.
    pub ops: Vec<LogRecord>,
    /// Motion checks completed.
    pub checks: u64,
    /// Checks that reported a collision.
    pub collisions: u64,
    /// CDQs the server executed for this run (client-side sum).
    pub cdqs_issued: u64,
    /// CDQs the replayed motions declared.
    pub cdqs_total: u64,
    /// Backpressure retries absorbed.
    pub retries: u64,
    /// Sessions the server warm-started from persisted state.
    pub warm_opens: u64,
    /// Wall time of the whole run.
    pub wall_ns: u64,
    /// Periodic global-stats samples (empty unless
    /// [`LoadgenConfig::metrics_interval`] was set).
    pub stats_snapshots: Vec<StatsSnapshot>,
}

impl LoadgenReport {
    /// Checks per second over the run's wall time.
    pub fn checks_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.checks as f64 * 1e9 / self.wall_ns as f64
    }
}

struct ConnOutcome {
    ops: Vec<LogRecord>,
    checks: u64,
    collisions: u64,
    cdqs_issued: u64,
    cdqs_total: u64,
    warm_opens: u64,
}

/// Replays `traces` against a running server per `config`.
///
/// # Errors
///
/// Connection failures, server-side errors, or retry exhaustion on any
/// connection abort the run.
///
/// # Panics
///
/// Panics when `config.connections` or `config.batch` is zero.
pub fn run_loadgen(config: &LoadgenConfig, traces: &[QueryTrace]) -> io::Result<LoadgenReport> {
    assert!(config.connections > 0, "need at least one connection");
    assert!(config.batch > 0, "need a positive batch size");
    let epoch = Instant::now();
    let retries = AtomicU64::new(0);
    let stop_sampler = AtomicBool::new(false);
    let (outcomes, snapshots): (Vec<io::Result<ConnOutcome>>, io::Result<Vec<StatsSnapshot>>) =
        thread::scope(|scope| {
            let sampler = config.metrics_interval.map(|interval| {
                let stop = &stop_sampler;
                scope.spawn(move || sample_stats(config, interval, epoch, stop))
            });
            let handles: Vec<_> = (0..config.connections)
                .map(|conn| {
                    let retries = &retries;
                    scope.spawn(move || run_connection(config, traces, conn, epoch, retries))
                })
                .collect();
            let outcomes = handles
                .into_iter()
                .map(|h| h.join().expect("loadgen thread panicked"))
                .collect();
            stop_sampler.store(true, Ordering::Release);
            let snapshots = sampler
                .map(|h| h.join().expect("stats sampler panicked"))
                .unwrap_or_else(|| Ok(Vec::new()));
            (outcomes, snapshots)
        });
    let mut report = LoadgenReport {
        wall_ns: elapsed_ns(epoch),
        stats_snapshots: snapshots?,
        ..LoadgenReport::default()
    };
    for outcome in outcomes {
        let o = outcome?;
        report.ops.extend(o.ops);
        report.checks += o.checks;
        report.collisions += o.collisions;
        report.cdqs_issued += o.cdqs_issued;
        report.cdqs_total += o.cdqs_total;
        report.warm_opens += o.warm_opens;
    }
    report.retries = retries.load(Ordering::Relaxed);
    report.ops.sort_by_key(|op| (op.start_ns, op.session));
    for (i, op) in report.ops.iter_mut().enumerate() {
        op.idx = i as u64;
    }
    Ok(report)
}

fn elapsed_ns(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Polls the global STATS verb on its own connection every `interval`
/// until stopped, then takes one final sample — so even a run shorter
/// than the interval yields a snapshot.
fn sample_stats(
    config: &LoadgenConfig,
    interval: Duration,
    epoch: Instant,
    stop: &AtomicBool,
) -> io::Result<Vec<StatsSnapshot>> {
    let mut client = ServiceClient::connect(&config.addr)?;
    let mut snapshots = Vec::new();
    let mut next = interval;
    loop {
        while !stop.load(Ordering::Acquire) && epoch.elapsed() < next {
            thread::sleep(Duration::from_millis(1).min(interval));
        }
        let stopping = stop.load(Ordering::Acquire);
        let stats = client.stats(None)?;
        snapshots.push(StatsSnapshot {
            elapsed_ns: elapsed_ns(epoch),
            stats,
        });
        if let Some(path) = &config.stats_tsv {
            // Rewrite the whole (small) sidecar after every sample: a
            // killed run keeps its latest complete copy, never a torn one.
            let tmp = format!("{path}.tmp");
            std::fs::write(&tmp, write_stats_tsv(&snapshots))?;
            std::fs::rename(&tmp, path)?;
        }
        if stopping {
            return Ok(snapshots);
        }
        next += interval;
    }
}

fn run_connection(
    config: &LoadgenConfig,
    traces: &[QueryTrace],
    conn: usize,
    epoch: Instant,
    retries: &AtomicU64,
) -> io::Result<ConnOutcome> {
    let mut client = ServiceClient::connect(&config.addr)?;
    let mut out = ConnOutcome {
        ops: Vec::new(),
        checks: 0,
        collisions: 0,
        cdqs_issued: 0,
        cdqs_total: 0,
        warm_opens: 0,
    };
    let mut issued = 0u64; // batches issued by this connection, for open-loop pacing
    for (trace_idx, trace) in traces.iter().enumerate() {
        if trace_idx % config.connections != conn {
            continue;
        }
        // Deterministic per-trace seed: replaying the same trace list with
        // the same config reproduces every session's U stream.
        let seed = config.seed ^ ((trace_idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let fp = config
            .fingerprints
            .as_ref()
            .and_then(|fps| fps.get(trace_idx).copied());
        let open_req = Request::Open {
            robot: trace.robot_name.clone(),
            link_count: trace.link_count,
            mode: config.mode,
            seed,
            fp,
        };
        let tag = format!("conn{conn}/trace{trace_idx}");
        let start = elapsed_ns(epoch);
        let (session, warm) =
            client.open_with_fp(&trace.robot_name, trace.link_count, config.mode, seed, fp)?;
        out.warm_opens += u64::from(warm);
        let resp = Response::Session { id: session, warm }.to_text();
        out.ops.push(op(
            session,
            "open",
            &tag,
            &open_req,
            resp,
            start,
            elapsed_ns(epoch),
        ));

        for (batch_idx, batch) in trace.motions.chunks(config.batch).enumerate() {
            if let Pacing::Open { interval_us } = config.pacing {
                pace(epoch, issued * interval_us * 1_000);
            }
            issued += 1;
            // Deterministic per-batch trace id: the per-trace seed is
            // already unique, so (seed, batch index) never collides.
            let trace_id = config
                .trace_ids
                .then(|| TraceId::derive(seed, batch_idx as u64));
            let req = Request::CheckMotion {
                session,
                motions: batch.to_vec(),
                trace: trace_id,
            };
            let start = elapsed_ns(epoch);
            let (results, r) =
                client.check_motions_traced(session, batch, config.max_retries, trace_id)?;
            retries.fetch_add(r as u64, Ordering::Relaxed);
            for res in &results {
                out.checks += 1;
                out.collisions += u64::from(res.colliding);
                out.cdqs_issued += res.cdqs_executed;
                out.cdqs_total += res.cdqs_total;
            }
            // Recorded as the wire response really was: with the echo.
            let resp = Response::Results {
                results,
                trace: trace_id,
            }
            .to_text();
            out.ops.push(op(
                session,
                "check_motion",
                &tag,
                &req,
                resp,
                start,
                elapsed_ns(epoch),
            ));
        }

        let req = Request::Close { session };
        let start = elapsed_ns(epoch);
        client.close(session)?;
        let resp = Response::Closed.to_text();
        out.ops.push(op(
            session,
            "close",
            &tag,
            &req,
            resp,
            start,
            elapsed_ns(epoch),
        ));
    }
    Ok(out)
}

fn pace(epoch: Instant, scheduled_ns: u64) {
    let now = elapsed_ns(epoch);
    if scheduled_ns > now {
        thread::sleep(Duration::from_nanos(scheduled_ns - now));
    }
}

fn op(
    session: u64,
    verb: &str,
    tag: &str,
    req: &Request,
    response: String,
    start_ns: u64,
    end_ns: u64,
) -> LogRecord {
    LogRecord {
        idx: 0, // assigned after the global sort
        session,
        verb: verb.to_string(),
        start_ns,
        duration_ns: end_ns.saturating_sub(start_ns),
        status: "ok".to_string(),
        tag: tag.to_string(),
        request: req.to_text(),
        response,
    }
}

/// Renders periodic stats snapshots as the `metrics_interval=` sidecar
/// TSV: `elapsed_ns` plus one column per stat key, keys taken from the
/// first snapshot (all snapshots of one run share the server's fixed key
/// order). Empty input renders an empty string.
pub fn write_stats_tsv(snapshots: &[StatsSnapshot]) -> String {
    let Some(first) = snapshots.first() else {
        return String::new();
    };
    let mut out = String::new();
    out.push_str("elapsed_ns");
    for (k, _) in &first.stats {
        out.push('\t');
        out.push_str(k);
    }
    out.push('\n');
    for snap in snapshots {
        let _ = write!(out, "{}", snap.elapsed_ns);
        for (k, _) in &first.stats {
            let v = snap
                .stats
                .iter()
                .find(|(key, _)| key == k)
                .map_or("", |(_, v)| v.as_str());
            out.push('\t');
            out.push_str(v);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_tsv_has_header_and_aligned_columns() {
        let snaps = vec![
            StatsSnapshot {
                elapsed_ns: 1_000,
                stats: vec![
                    ("checks".into(), "10".into()),
                    ("cdqs_issued".into(), "40".into()),
                ],
            },
            StatsSnapshot {
                elapsed_ns: 2_000,
                stats: vec![
                    ("checks".into(), "25".into()),
                    ("cdqs_issued".into(), "90".into()),
                ],
            },
        ];
        let text = write_stats_tsv(&snaps);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "elapsed_ns\tchecks\tcdqs_issued");
        assert_eq!(lines[1], "1000\t10\t40");
        assert_eq!(lines[2], "2000\t25\t90");
        assert_eq!(lines.len(), 3);
        assert_eq!(write_stats_tsv(&[]), "");
    }
}
