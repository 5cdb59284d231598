//! Acceptance demo for the copred service: a captured MPNet-Baxter
//! workload driven over 8 concurrent connections against a loopback
//! server, by the replay engine's parallel mode. Fully seeded — two coord
//! runs agree exactly — and the server's own STATS must show prediction
//! issuing fewer CDQs than the naive order on the same workload. The
//! recording covers every op, lands on disk as a CPRDLOG, reads back
//! bit-exactly, and replays identically on one in-process node.

use copred_bench::{Combo, Scale};
use copred_replay::{
    read_log_file, run_parallel, run_replay, trace_log, write_log, InProcessBackend, LogMeta,
    LoopbackBackend, ReplayOptions, ReplayOutcome,
};
use copred_service::client::stat_u64;
use copred_service::protocol::SchedMode;
use copred_service::{Server, ServerConfig, ServiceClient};
use copred_trace::QueryTrace;

const CONNECTIONS: usize = 8;
const BATCH: usize = 8;

fn capture_mpnet_baxter() -> Vec<QueryTrace> {
    let combo = Combo::paper_six()[0];
    assert_eq!(combo.label(), "MPNet-Baxter");
    let scale = Scale {
        queries: 8,
        ..Scale::quick()
    };
    let traces = copred_bench::workloads::planner_traces(&combo, &scale, 42);
    assert!(
        traces.len() >= CONNECTIONS,
        "want one trace per connection, got {}",
        traces.len()
    );
    assert!(traces
        .iter()
        .all(|t| t.robot_name == "baxter" && !t.motions.is_empty()));
    traces
}

/// One traced pass over `CONNECTIONS` connections to a fresh loopback
/// server; returns the log, the pass, and the server's own global STATS.
fn replay(
    traces: &[QueryTrace],
    mode: SchedMode,
) -> (
    copred_replay::ReplayLog,
    ReplayOutcome,
    Vec<(String, String)>,
) {
    let server = Server::start(ServerConfig::default()).expect("start server");
    let log = trace_log(traces, mode, 42, BATCH, None, true);
    let mut conns: Vec<LoopbackBackend> = (0..CONNECTIONS)
        .map(|_| LoopbackBackend::connect(server.local_addr()).expect("connect"))
        .collect();
    let opts = ReplayOptions {
        compare: false,
        ..ReplayOptions::default()
    };
    let out = run_parallel(&log, &mut conns, &opts).expect("parallel run");
    assert_eq!(out.backend_errors, 0, "every op must succeed");
    let mut c = ServiceClient::connect(server.local_addr()).expect("connect for stats");
    let kv = c.stats(None).expect("global stats");
    (log, out, kv)
}

#[test]
fn mpnet_baxter_loopback_demo() {
    let traces = capture_mpnet_baxter();

    let (log, coord_a, kv_a) = replay(&traces, SchedMode::Coord);
    let (_, coord_b, kv_b) = replay(&traces, SchedMode::Coord);
    let (_, naive, kv_naive) = replay(&traces, SchedMode::Naive);
    let stat = |kv: &[(String, String)], key: &str| stat_u64(kv, key).expect(key);
    let (issued_a, total_a) = (stat(&kv_a, "cdqs_issued"), stat(&kv_a, "cdqs_total"));
    let (issued_naive, total_naive) = (
        stat(&kv_naive, "cdqs_issued"),
        stat(&kv_naive, "cdqs_total"),
    );

    // Seeded determinism across full server+client runs: per-session work
    // is single-in-flight and every session seed derives from the trace
    // index, so two runs agree exactly.
    assert_eq!(
        issued_a,
        stat(&kv_b, "cdqs_issued"),
        "coord replays must be bit-identical"
    );
    assert_eq!(coord_a.totals, coord_b.totals);
    assert_eq!(coord_a.responses, coord_b.responses);

    // Client-side sums and server-side STATS agree.
    assert_eq!(coord_a.totals.cdqs_issued, issued_a);
    assert_eq!(coord_a.totals.cdqs_total, total_a);
    assert_eq!(coord_a.totals.checks, stat(&kv_a, "checks"));
    assert!(stat(&kv_a, "latency_p50_ns") > 0);

    // Same workload either way; prediction must save CDQs.
    assert_eq!(total_a, total_naive);
    assert_eq!(
        coord_a.totals.collisions, naive.totals.collisions,
        "outcomes are schedule-invariant"
    );
    assert!(
        issued_a < issued_naive,
        "STATS: coord issued {issued_a} of {total_a}, naive issued {issued_naive}"
    );

    // The recording covers every wire op, in start order, with
    // replayable payloads.
    let mut recording = coord_a.recording(&log);
    let ops = &recording.records;
    let n_batches: usize = traces.iter().map(|t| t.motions.len().div_ceil(BATCH)).sum();
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

    // The op-log: written to disk as a CPRDLOG and read back along with
    // its self-describing metadata.
    recording.meta = LogMeta {
        seed: 42,
        fingerprint: 0,
        robot: traces[0].robot_name.clone(),
        workload: "MPNet-Baxter".to_string(),
        scale: format!("traces={}", traces.len()),
    };
    let path = std::env::temp_dir().join(format!(
        "copred_loadgen_demo_oplog_{}.cprlog",
        std::process::id()
    ));
    std::fs::write(&path, write_log(&recording.meta, &recording.records)).expect("write op-log");
    let back = read_log_file(&path).expect("read op-log");
    std::fs::remove_file(&path).ok();
    assert!(back.complete, "sealed footer");
    assert_eq!(back.meta, recording.meta);
    assert_eq!(back.records, recording.records);

    // A recording made over 8 connections replays bit-identically on one
    // in-process node.
    let again = run_replay(
        &back,
        &mut InProcessBackend::with_server_defaults(),
        &ReplayOptions::default(),
    )
    .expect("replay the recording");
    assert!(again.is_identical(), "{:?}", again.mismatches);
    assert_eq!(again.totals, coord_a.totals);
}
