//! The PR-8 acceptance workflow, end to end: a seeded traced loadgen run
//! must surface at least one exemplar on `/metrics`, and that exemplar's
//! trace id must resolve — through the `dump` op's trace-dump artifacts
//! and the `/debug/flight` endpoint — to a Chrome trace carrying the full
//! decode→predict→schedule→execute→encode span chain.

mod common;

use common::synthetic_traces;
use copred_obs::{http_get, parse_prometheus};
use copred_service::protocol::SchedMode;
use copred_service::{run_loadgen, LoadgenConfig, Pacing, Server, ServerConfig, ServiceClient};
use std::sync::atomic::Ordering;
use std::sync::Mutex;

/// Span rings are process-global: a second `trace_dump` server running
/// concurrently drains (and so steals) the first one's spans. Tests that
/// start one take this lock.
static TRACE_DUMP_SERVER: Mutex<()> = Mutex::new(());

fn loadgen_config(addr: std::net::SocketAddr) -> LoadgenConfig {
    LoadgenConfig {
        addr: addr.to_string(),
        connections: 1,
        mode: SchedMode::Coord,
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

/// Event objects of a JSON array/trace body, split crudely on object
/// boundaries — enough to check name/trace co-occurrence without a full
/// JSON parser.
fn event_chunks(body: &str) -> Vec<&str> {
    body.split("},{").collect()
}

#[test]
fn exemplar_trace_id_resolves_to_full_span_chain() {
    let _serial = TRACE_DUMP_SERVER.lock().unwrap_or_else(|e| e.into_inner());
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
    run_loadgen(&loadgen_config(server.local_addr()), &traces).expect("traced loadgen run");

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
    let _serial = TRACE_DUMP_SERVER.lock().unwrap_or_else(|e| e.into_inner());
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
    run_loadgen(&loadgen_config(server.local_addr()), &traces).expect("loadgen run");

    let auto = server.metrics().flight_auto_dumps.load(Ordering::Relaxed);
    assert!(auto >= 1, "threshold must fire at least one auto dump");
    assert!(
        dir.join("flight-0.json").exists(),
        "auto dump must land on disk"
    );

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
