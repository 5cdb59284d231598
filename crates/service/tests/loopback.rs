//! End-to-end loopback tests on synthetic workloads: full verb coverage,
//! run-to-run determinism, and the paper's headline effect — the
//! predictor-ordered scheduler issues fewer CDQs than the naive order on
//! the same workload.

mod common;

use common::synthetic_traces;
use copred_service::client::stat_u64;
use copred_service::protocol::SchedMode;
use copred_service::{run_loadgen, LoadgenConfig, Pacing, Server, ServerConfig, ServiceClient};
use copred_trace::QueryTrace;

fn loadgen_config(addr: std::net::SocketAddr, mode: SchedMode) -> LoadgenConfig {
    LoadgenConfig {
        addr: addr.to_string(),
        connections: 4,
        mode,
        seed: 11,
        pacing: Pacing::Closed,
        batch: 4,
        max_retries: 256,
        metrics_interval: None,
        fingerprints: None,
        trace_ids: true,
        stats_tsv: None,
    }
}

fn run_once(traces: &[QueryTrace], mode: SchedMode) -> copred_service::LoadgenReport {
    let server = Server::start(ServerConfig::default()).expect("start server");
    run_loadgen(&loadgen_config(server.local_addr(), mode), traces).expect("loadgen run")
}

#[test]
fn verbs_roundtrip_over_loopback() {
    let server = Server::start(ServerConfig::default()).expect("start server");
    let mut c = ServiceClient::connect(server.local_addr()).expect("connect");
    let traces = synthetic_traces(1, 3, 5);
    let motions = &traces[0].motions;

    let session = c.open("planar-2d", 1, SchedMode::Coord, 3).expect("open");
    let (results, _) = c.check_motions(session, motions, 8).expect("check batch");
    assert_eq!(results.len(), motions.len());
    for (r, m) in results.iter().zip(motions) {
        assert_eq!(r.colliding, m.cdqs.iter().any(|q| q.colliding));
        assert_eq!(r.cdqs_total as usize, m.cdqs.len());
        assert!(r.cdqs_executed <= r.cdqs_total);
    }

    let kv = c.stats(Some(session)).expect("session stats");
    assert_eq!(stat_u64(&kv, "checks"), Some(motions.len() as u64));
    assert!(kv.iter().any(|(k, v)| k == "mode" && v == "coord"));

    c.reset(session).expect("reset");
    let kv = c.stats(Some(session)).expect("stats after reset");
    assert_eq!(
        stat_u64(&kv, "cht_occupancy"),
        Some(0),
        "reset clears the table"
    );

    c.close(session).expect("close");
    assert!(c.stats(Some(session)).is_err(), "closed session is gone");

    let kv = c.stats(None).expect("global stats");
    assert_eq!(stat_u64(&kv, "sessions_open"), Some(0));
    assert_eq!(stat_u64(&kv, "sessions_closed"), Some(1));
}

#[test]
fn coord_issues_fewer_cdqs_than_naive_and_runs_are_deterministic() {
    let traces = synthetic_traces(8, 24, 42);

    let coord_a = run_once(&traces, SchedMode::Coord);
    let coord_b = run_once(&traces, SchedMode::Coord);
    let naive = run_once(&traces, SchedMode::Naive);

    // Determinism: per-session work is single-in-flight and every session
    // seed derives from the trace index, so two runs agree exactly.
    assert_eq!(
        coord_a.cdqs_issued, coord_b.cdqs_issued,
        "coord runs must replay identically"
    );
    assert_eq!(coord_a.checks, coord_b.checks);
    assert_eq!(coord_a.collisions, coord_b.collisions);

    // Same workload, same totals — only the issue order differs.
    assert_eq!(coord_a.cdqs_total, naive.cdqs_total);
    assert_eq!(
        coord_a.collisions, naive.collisions,
        "schedules never change outcomes"
    );

    // The headline: prediction saves CDQs versus the naive order.
    assert!(
        coord_a.cdqs_issued < naive.cdqs_issued,
        "coord ({}) must issue fewer CDQs than naive ({})",
        coord_a.cdqs_issued,
        naive.cdqs_issued
    );
}

#[test]
fn server_stats_match_client_side_sums_and_oplog_covers_every_op() {
    let traces = synthetic_traces(4, 10, 9);
    let server = Server::start(ServerConfig::default()).expect("start server");
    let addr = server.local_addr();
    let report = run_loadgen(&loadgen_config(addr, SchedMode::Coord), &traces).expect("loadgen");

    let mut c = ServiceClient::connect(addr).expect("connect");
    let kv = c.stats(None).expect("global stats");
    assert_eq!(stat_u64(&kv, "cdqs_issued"), Some(report.cdqs_issued));
    assert_eq!(stat_u64(&kv, "cdqs_total"), Some(report.cdqs_total));
    assert_eq!(stat_u64(&kv, "checks"), Some(report.checks));
    assert!(stat_u64(&kv, "latency_p50_ns").unwrap() > 0);

    // The op-log covers every wire operation, in start order, with
    // replayable payloads (its CPRDLOG round-trip is copred-replay's).
    let n_batches: usize = traces.iter().map(|t| t.motions.len().div_ceil(4)).sum();
    let ops = &report.ops;
    assert_eq!(
        ops.len(),
        traces.len() * 2 + n_batches,
        "open+close+batches"
    );
    assert!(
        ops.windows(2).all(|w| w[0].start_ns <= w[1].start_ns),
        "sorted by start"
    );
    assert!(ops.iter().enumerate().all(|(i, op)| op.idx == i as u64));
    assert!(
        ops.iter()
            .all(|op| !op.tag.is_empty() && !op.request.is_empty() && !op.response.is_empty()),
        "every record carries replayable payloads"
    );
}
