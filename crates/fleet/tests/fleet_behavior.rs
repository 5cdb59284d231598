//! End-to-end fleet behavior: a fleet answers a workload exactly like a
//! single node, a session migrated mid-stream by a backend kill
//! continues bit-identically from replicated warm state, and a closing
//! session's gossip warms the whole fleet for the fingerprint's next
//! life.

use copred_fleet::{FleetBackend, SessionLedger};
use copred_replay::{
    run_ab, run_replay, unrecorded_log, Arm, Differential, InProcessBackend, ReplayBackend,
    ReplayLog, ReplayOptions,
};
use copred_service::protocol::{Request, Response, SchedMode};
use copred_trace::MotionTrace;

fn batch(salts: std::ops::Range<u64>) -> Vec<MotionTrace> {
    salts.map(MotionTrace::synthetic).collect()
}

/// The op stream both migration arms drive: one fingerprinted session
/// (log token 0), batches arranged so late batches revisit early salts
/// (predictions by then depend on learned warm state).
fn migration_log(fp: u64) -> ReplayLog {
    let mut ops = vec![Request::Open {
        robot: "planar-2d".to_string(),
        link_count: 2,
        mode: SchedMode::Coord,
        seed: 42,
        fp: Some(fp),
    }];
    for round in 0..6u64 {
        // Salts cycle with period 3, so rounds 3.. re-check motions whose
        // outcomes the CHT has already absorbed.
        let base = (round % 3) * 8;
        ops.push(Request::CheckMotion {
            session: 0,
            motions: batch(base..base + 8),
            trace: None,
        });
    }
    ops.push(Request::Close { session: 0 });
    unrecorded_log(ops.into_iter().map(|op| (0, op)).collect())
}

#[test]
fn migrated_session_replays_bit_identically_to_unmigrated() {
    let log = migration_log(0xFEE7_BEEF_0001);
    let mut calm = FleetBackend::start(2).expect("start calm fleet");
    // Kill the session's owner before op 4 (open + three check batches
    // absorbed into the replica): the remaining batches — including the
    // rounds that revisit learned salts — run on the survivor.
    let mut stormy = FleetBackend::start(2)
        .expect("start stormy fleet")
        .labeled("migrated")
        .kill_owner_before(4);
    let opts = ReplayOptions {
        compare: false,
        ..ReplayOptions::default()
    };
    let ab = run_ab(Differential {
        log: &log,
        arms: vec![
            Arm {
                backend: &mut calm,
                opts,
            },
            Arm {
                backend: &mut stormy,
                opts,
            },
        ],
    })
    .expect("ab");
    assert!(
        ab.failures().is_empty(),
        "migration changed the response stream: {:?}",
        ab.failures()
    );

    let calm_ledger = calm.last_session_ledger().expect("ledger survives close");
    let stormy_ledger = stormy.last_session_ledger().expect("ledger survives close");
    assert_eq!(stormy_ledger.migrations, 1, "the kill must migrate");
    assert_eq!(
        *calm_ledger,
        SessionLedger {
            migrations: 0,
            ..stormy_ledger.clone()
        },
        "migration changed the session ledger"
    );
    // The comparison only means something if the post-kill batches
    // actually consulted learned state: predictions must have elided
    // CDQs somewhere in the stream.
    assert!(
        calm_ledger.cdqs_issued < calm_ledger.cdqs_total,
        "workload never exercised the predictor ({} of {})",
        calm_ledger.cdqs_issued,
        calm_ledger.cdqs_total,
    );
}

#[test]
fn close_gossip_warms_survivors_for_the_next_session() {
    let fp = 0xFEE7_BEEF_0002;
    let mut fleet = FleetBackend::start(3).expect("start fleet");
    let open = Request::Open {
        robot: "planar-2d".to_string(),
        link_count: 2,
        mode: SchedMode::Coord,
        seed: 7,
        fp: Some(fp),
    };
    let Response::Session { id, warm } = fleet.call(&open).expect("open") else {
        panic!("want session");
    };
    assert!(!warm, "a fresh fleet has nothing to warm-start from");
    let check = Request::CheckMotion {
        session: id,
        motions: batch(0..6),
        trace: None,
    };
    assert!(matches!(
        fleet.call(&check).expect("check"),
        Response::Results { .. }
    ));
    let owner = fleet.router().node_of(id).expect("routed");
    assert_eq!(
        fleet.call(&Request::Close { session: id }).expect("close"),
        Response::Closed
    );

    // The owner takes its disk with it; only gossip can warm the next
    // session, which now rendezvous-homes on a survivor.
    fleet.kill_backend(owner);
    let Response::Session { warm, .. } = fleet.call(&open).expect("re-open") else {
        panic!("want session");
    };
    assert!(warm, "gossiped snapshot must warm the survivor");
}

#[test]
fn fleet_replays_a_log_identically_to_a_single_node() {
    // Recorded the usual way: synthesize requests, harvest responses
    // from a single default node, call that the recording.
    let mut requests: Vec<(u64, Request)> = Vec::new();
    for token in 0..3u64 {
        requests.push((
            token,
            Request::Open {
                robot: "planar-2d".to_string(),
                link_count: 2,
                mode: SchedMode::Coord,
                seed: 5 ^ token,
                fp: None,
            },
        ));
        for round in 0..3u64 {
            requests.push((
                token,
                Request::CheckMotion {
                    session: token,
                    motions: batch(token * 50 + round * 4..token * 50 + round * 4 + 4),
                    trace: None,
                },
            ));
        }
        requests.push((token, Request::Close { session: token }));
    }
    let mut log = unrecorded_log(requests);
    let harvest = run_replay(
        &log,
        &mut InProcessBackend::with_server_defaults(),
        &ReplayOptions {
            compare: false,
            ..ReplayOptions::default()
        },
    )
    .expect("harvest");
    assert_eq!(harvest.backend_errors, 0);
    for (rec, resp) in log.records.iter_mut().zip(&harvest.responses) {
        rec.response = resp.clone();
    }

    let mut single = InProcessBackend::with_server_defaults();
    let mut fleet = FleetBackend::start(2).expect("start fleet");
    let ab = run_ab(Differential {
        log: &log,
        arms: vec![Arm::new(&mut single), Arm::new(&mut fleet)],
    })
    .expect("ab");
    assert!(
        ab.responses_identical(),
        "fleet diverged from single node at ops {:?}",
        ab.diverging_ops()
    );
    assert!(ab.failures().is_empty(), "{:?}", ab.failures());
}

#[test]
fn router_answers_protocol_errors_and_global_stats_locally() {
    let mut fleet = FleetBackend::start(2).expect("start fleet");
    // Unknown and double-closed sessions are protocol errors, not fleet
    // failures.
    let resp = fleet
        .call(&Request::Close { session: 99 })
        .expect("call survives");
    assert!(matches!(resp, Response::Error(_)));
    let Response::Session { id, .. } = fleet
        .call(&Request::Open {
            robot: "planar-2d".to_string(),
            link_count: 2,
            mode: SchedMode::Naive,
            seed: 1,
            fp: None,
        })
        .expect("open")
    else {
        panic!("want session");
    };
    assert_eq!(
        fleet.call(&Request::Close { session: id }).expect("close"),
        Response::Closed
    );
    assert!(matches!(
        fleet.call(&Request::Close { session: id }).expect("call"),
        Response::Error(_)
    ));
    // Global stats come from the router's own mirror — no backend
    // fan-out, sessions_open reflects the router's routes.
    let Response::Stats(kv) = fleet
        .call(&Request::Stats { session: None })
        .expect("stats")
    else {
        panic!("want stats");
    };
    let get = |k: &str| {
        kv.iter()
            .find(|(key, _)| key == k)
            .unwrap_or_else(|| panic!("missing {k}"))
            .1
            .clone()
    };
    assert_eq!(get("sessions_open"), "0");
    assert_eq!(get("sessions_opened"), "1");
    assert_eq!(get("sessions_closed"), "1");
}
