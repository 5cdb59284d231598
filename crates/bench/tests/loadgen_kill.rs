//! Early-termination contract of `copred_loadgen`: a run killed
//! mid-flight must still leave a parseable partial artifact — the
//! placeholder BENCH-schema JSON, written before the run, marked
//! `partial=1`, and overwritten only on clean exit.
//!
//! The run is pointed at a test-owned listener that accepts connections
//! and never answers, so it is still in flight whenever the kill lands.

use copred_obs::BenchReport;
use std::net::TcpListener;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn killed_loadgen_leaves_partial_bench_json() {
    let dir = std::env::temp_dir().join(format!("copred-loadgen-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let oplog = dir.join("run.cprlog");
    let bench = dir.join("run.bench.json");

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind silent listener");
    let addr = listener.local_addr().expect("listener addr");
    let (accepted, connected) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        // Hold every accepted stream open without reading or writing.
        let mut held = Vec::new();
        for stream in listener.incoming() {
            held.push(stream);
            let _ = accepted.send(());
        }
    });

    let mut child = Command::new(env!("CARGO_BIN_EXE_copred_loadgen"))
        .args([
            format!("addr={addr}"),
            "connections=1".to_string(),
            "queries=1".to_string(),
            format!("oplog={}", oplog.display()),
            format!("bench_json={}", bench.display()),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn copred_loadgen");

    // The placeholder is written before the run connects, so once the
    // listener has accepted, it is complete on disk, and the silent
    // server keeps the run waiting on its first reply from then on.
    let deadline = Instant::now() + Duration::from_secs(60);
    while connected.recv_timeout(Duration::from_millis(20)).is_err() {
        if let Some(status) = child.try_wait().expect("poll child") {
            panic!("loadgen exited before it connected: {status}");
        }
        assert!(
            Instant::now() < deadline,
            "loadgen did not connect within 60s"
        );
    }
    child.kill().expect("kill loadgen");
    let _ = child.wait();

    // The BENCH placeholder parses under the schema and is flagged as a
    // run that never completed.
    let report = BenchReport::from_json(&std::fs::read_to_string(&bench).expect("read bench json"))
        .expect("partial bench json must parse");
    assert!(
        report
            .records
            .iter()
            .any(|r| r.metric == "partial" && r.value == 1.0),
        "partial marker missing: {:?}",
        report.records
    );
    assert!(!oplog.exists(), "a killed run writes no op-log");

    let _ = std::fs::remove_dir_all(&dir);
}
