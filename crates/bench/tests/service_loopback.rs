//! Acceptance demo for the copred service: a captured MPNet-Baxter
//! workload replayed over ≥8 concurrent loadgen connections against a
//! loopback server. Fully seeded — two coord runs agree exactly — and the
//! server's own STATS must show prediction issuing fewer CDQs than the
//! naive order on the same workload. The op-log lands on disk as a
//! CPRDLOG and reads back bit-exactly.

use copred_bench::{Combo, Scale};
use copred_replay::{read_log_file, write_log, LogMeta};
use copred_service::client::stat_u64;
use copred_service::protocol::SchedMode;
use copred_service::{run_loadgen, LoadgenConfig, Pacing, Server, ServerConfig, ServiceClient};
use copred_trace::QueryTrace;

fn capture_mpnet_baxter() -> Vec<QueryTrace> {
    let combo = Combo::paper_six()[0];
    assert_eq!(combo.label(), "MPNet-Baxter");
    let scale = Scale {
        queries: 8,
        ..Scale::quick()
    };
    let traces = copred_bench::workloads::planner_traces(&combo, &scale, 42);
    assert!(
        traces.len() >= 8,
        "want one trace per connection, got {}",
        traces.len()
    );
    assert!(traces
        .iter()
        .all(|t| t.robot_name == "baxter" && !t.motions.is_empty()));
    traces
}

/// Runs the loadgen against a fresh loopback server; returns the client
/// report plus the server's own global STATS counters.
fn replay(traces: &[QueryTrace], mode: SchedMode) -> (copred_service::LoadgenReport, u64, u64) {
    let server = Server::start(ServerConfig::default()).expect("start server");
    let addr = server.local_addr();
    let cfg = LoadgenConfig {
        addr: addr.to_string(),
        connections: 8,
        mode,
        seed: 42,
        pacing: Pacing::Closed,
        batch: 8,
        max_retries: 256,
        metrics_interval: None,
        fingerprints: None,
        trace_ids: true,
        stats_tsv: None,
    };
    let report = run_loadgen(&cfg, traces).expect("loadgen run");
    let mut c = ServiceClient::connect(addr).expect("connect for stats");
    let kv = c.stats(None).expect("global stats");
    let issued = stat_u64(&kv, "cdqs_issued").expect("cdqs_issued stat");
    let total = stat_u64(&kv, "cdqs_total").expect("cdqs_total stat");
    (report, issued, total)
}

#[test]
fn mpnet_baxter_loopback_demo() {
    let traces = capture_mpnet_baxter();

    let (coord_a, issued_a, total_a) = replay(&traces, SchedMode::Coord);
    let (coord_b, issued_b, _) = replay(&traces, SchedMode::Coord);
    let (naive, issued_naive, total_naive) = replay(&traces, SchedMode::Naive);

    // Seeded determinism across full server+client runs.
    assert_eq!(issued_a, issued_b, "coord replays must be bit-identical");
    assert_eq!(coord_a.collisions, coord_b.collisions);

    // Client-side sums and server-side STATS agree.
    assert_eq!(coord_a.cdqs_issued, issued_a);
    assert_eq!(coord_a.cdqs_total, total_a);

    // Same workload either way; prediction must save CDQs.
    assert_eq!(total_a, total_naive);
    assert_eq!(
        coord_a.collisions, naive.collisions,
        "outcomes are schedule-invariant"
    );
    assert!(
        issued_a < issued_naive,
        "STATS: coord issued {issued_a} of {total_a}, naive issued {issued_naive}"
    );

    // The op-log: one record per wire op, written to disk as a CPRDLOG
    // and read back along with its self-describing metadata.
    let meta = LogMeta {
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
    std::fs::write(&path, write_log(&meta, &coord_a.ops)).expect("write op-log");
    let log = read_log_file(&path).expect("read op-log");
    assert!(log.complete, "sealed footer");
    assert_eq!(log.meta, meta);
    let back = log.records;
    assert_eq!(back, coord_a.ops);
    let n_checks = back.iter().filter(|op| op.verb == "check_motion").count();
    assert!(
        n_checks > 0 && back.len() > 2 * traces.len(),
        "opens, closes, and batches logged"
    );
    std::fs::remove_file(&path).ok();
}
