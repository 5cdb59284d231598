//! Parallel replay end to end: a recorded planner-shaped workload dealt
//! over three in-process backends answers exactly like one sequential
//! pass, counts once in the replay counters, and its own recording
//! replays identically. One test in this binary, so the process-global
//! counter delta is this pass's alone.

use copred_replay::{record, run_parallel, run_replay, trace_log, InProcessBackend, ReplayOptions};
use copred_service::protocol::SchedMode;
use copred_service::replay_stats;
use copred_trace::{MotionTrace, QueryTrace};
use std::sync::atomic::Ordering;

#[test]
fn parallel_pass_matches_sequential_and_records_replayably() {
    let traces: Vec<QueryTrace> = (0..5u64)
        .map(|i| QueryTrace {
            robot_name: "planar-2d".to_string(),
            link_count: 2,
            motions: (i * 40..i * 40 + 7).map(MotionTrace::synthetic).collect(),
        })
        .collect();
    let log = trace_log(&traces, SchedMode::Coord, 17, 3, None, true);
    let recorded = record(&log, &mut InProcessBackend::with_server_defaults()).expect("record");

    let before = replay_stats().replays_run.load(Ordering::Relaxed);
    let mut backends: Vec<InProcessBackend> = (0..3)
        .map(|_| InProcessBackend::with_server_defaults())
        .collect();
    let out = run_parallel(&recorded, &mut backends, &ReplayOptions::default()).expect("replay");
    assert_eq!(
        replay_stats().replays_run.load(Ordering::Relaxed),
        before + 1,
        "a parallel pass counts once"
    );
    assert!(out.is_identical(), "{:?}", out.mismatches);
    // Sessions are dealt round-robin in open order: 5 over 3 backends.
    let opened: Vec<usize> = backends.iter().map(|b| b.opened().len()).collect();
    assert_eq!(opened, vec![2, 2, 1]);

    let sequential = run_replay(
        &recorded,
        &mut InProcessBackend::with_server_defaults(),
        &ReplayOptions::default(),
    )
    .expect("replay");
    assert_eq!(out.responses, sequential.responses);
    assert_eq!(out.totals, sequential.totals);
    assert_eq!(out.live.len(), recorded.records.len());

    // The parallel pass's own recording keeps each session's op order and
    // replays identically on one node.
    let again = out.recording(&recorded);
    for key in 1..=traces.len() as u64 {
        let requests = |l: &copred_replay::ReplayLog| -> Vec<String> {
            l.records
                .iter()
                .filter(|r| r.session == key)
                .map(|r| r.request.clone())
                .collect()
        };
        assert_eq!(requests(&again), requests(&recorded), "session {key}");
    }
    let replayed = run_replay(
        &again,
        &mut InProcessBackend::with_server_defaults(),
        &ReplayOptions::default(),
    )
    .expect("replay");
    assert!(replayed.is_identical(), "{:?}", replayed.mismatches);
}
