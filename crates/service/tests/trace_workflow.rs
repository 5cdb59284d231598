//! The tracing acceptance workflow, end to end: a seeded traced run
//! must surface at least one exemplar on `/metrics`, and that exemplar's
//! trace id must resolve — through the `dump` op's trace-dump artifacts
//! and the `/debug/flight` endpoint — to a Chrome trace carrying the full
//! decode→predict→schedule→execute→encode span chain.
//!
//! Both tests start a `trace_dump` server and run concurrently over the
//! process-global span rings: snapshots are non-destructive, so neither
//! server's dump may lose spans to the other's.

mod common;

use common::synthetic_traces;
use copred_obs::{http_get, parse_prometheus, TraceId};
use copred_service::protocol::SchedMode;
use copred_service::{Server, ServerConfig, ServiceClient};
use copred_trace::QueryTrace;
use std::sync::atomic::Ordering;

/// Checks every trace as one session on one connection, in batches of 4;
/// batch `b` of trace `i` carries a trace id derived from the session
/// seed and `b`, and the client verifies the server's echo.
fn run_traced(addr: std::net::SocketAddr, traces: &[QueryTrace]) {
    let mut c = ServiceClient::connect(addr).expect("connect");
    for (i, t) in traces.iter().enumerate() {
        let seed = 11 ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let session = c
            .open(&t.robot_name, t.link_count, SchedMode::Coord, seed)
            .expect("open");
        for (b, batch) in t.motions.chunks(4).enumerate() {
            let trace = Some(TraceId::derive(seed, b as u64));
            c.check_motions_traced(session, batch, 256, trace)
                .expect("traced check");
        }
        c.close(session).expect("close");
    }
}

/// Event objects of a JSON array/trace body, split crudely on object
/// boundaries — enough to check name/trace co-occurrence without a full
/// JSON parser.
fn event_chunks(body: &str) -> Vec<&str> {
    body.split("},{").collect()
}

#[test]
fn exemplar_trace_id_resolves_to_full_span_chain() {
    let dir = std::env::temp_dir().join(format!("copred-trace-workflow-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(ServerConfig {
        metrics_addr: Some("127.0.0.1:0".to_string()),
        trace_dump: Some(dir.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    })
    .expect("start server");
    let metrics_addr = server.metrics_addr().expect("metrics endpoint");

    let traces = synthetic_traces(4, 12, 7);
    run_traced(server.local_addr(), &traces);

    // --- /metrics: the latency summary must carry >= 1 exemplar whose
    // trace id came from this run.
    let page = http_get(metrics_addr, "/metrics").expect("scrape /metrics");
    let samples = parse_prometheus(&page).expect("scrape parses");
    let exemplars: Vec<(Vec<(String, String)>, f64)> = samples
        .iter()
        .filter(|s| s.name == "copred_check_latency_ns")
        .filter_map(|s| s.exemplar.clone())
        .collect();
    assert!(
        !exemplars.is_empty(),
        "no exemplar on the latency summary:\n{page}"
    );
    let hex = exemplars[0]
        .0
        .iter()
        .find(|(k, _)| k == "trace_id")
        .map(|(_, v)| v.clone())
        .expect("exemplar carries trace_id");
    assert_eq!(hex.len(), 32, "trace id is hex128: {hex}");
    assert!(
        samples
            .iter()
            .any(|s| s.name == "copred_trace_requests_total" && s.value > 0.0),
        "traced_requests counter must move"
    );

    // --- dump op: exports flight + Chrome trace under trace_dump.
    let mut c = ServiceClient::connect(server.local_addr()).expect("connect");
    let entries = c.dump_flight().expect("dump op");
    assert!(entries > 0, "flight recorder must hold op summaries");

    let trace_json = std::fs::read_to_string(dir.join("trace-0.json")).expect("trace dump written");
    assert!(
        trace_json.contains(&hex),
        "exemplar trace id {hex} absent from the Chrome trace dump"
    );
    // The exemplar's request resolves to the full causal chain: every
    // pipeline stage has a span stamped with that exact trace id.
    let chunks = event_chunks(&trace_json);
    for stage in ["decode", "predict", "schedule", "execute", "encode"] {
        let needle = format!("\"name\":\"{stage}\"");
        assert!(
            chunks
                .iter()
                .any(|c| c.contains(&needle) && c.contains(&hex)),
            "no {stage} span carries trace {hex}"
        );
    }

    // --- flight artifacts: the dump file and the live /debug/flight
    // endpoint both resolve the trace id to recorded check ops.
    let flight_json =
        std::fs::read_to_string(dir.join("flight-0.json")).expect("flight dump written");
    assert!(
        flight_json.contains(&hex),
        "exemplar trace id absent from the flight dump"
    );
    let live = http_get(metrics_addr, "/debug/flight").expect("GET /debug/flight");
    assert!(
        live.contains("\"kind\":\"op\"") && live.contains("\"name\":\"check\""),
        "flight endpoint must list check ops: {live}"
    );
    assert_eq!(
        server.metrics().flight_dumps.load(Ordering::Relaxed),
        2,
        "dump op + /debug/flight each count one on-demand dump"
    );

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn latency_threshold_fires_auto_dump() {
    let dir = std::env::temp_dir().join(format!("copred-auto-dump-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(ServerConfig {
        trace_dump: Some(dir.to_string_lossy().into_owned()),
        // Every batch waits 5ms in the worker, so a 1ms threshold trips
        // on the first check; the 1/s rate limit keeps it to one dump.
        flight_threshold_ms: 1,
        worker_delay_ms: 5,
        ..ServerConfig::default()
    })
    .expect("start server");

    let traces = synthetic_traces(1, 4, 9);
    run_traced(server.local_addr(), &traces);

    let auto = server.metrics().flight_auto_dumps.load(Ordering::Relaxed);
    assert!(auto >= 1, "threshold must fire at least one auto dump");
    assert!(
        dir.join("flight-0.json").exists(),
        "auto dump must land on disk"
    );

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
