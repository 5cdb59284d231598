//! Stage 8: fleet conformance — sharded sessions answer like one node.
//!
//! Three sub-checks per case, all deterministic in the seed:
//!
//! * **Replay identity** — a recorded run replays through a 2-backend
//!   fleet and a single in-process node; the differential engine holds
//!   both against the recording, each other, and the recorded ledgers.
//! * **Migration identity** — one fingerprinted session's op stream runs
//!   on two fresh 2-backend fleets; in the second, the session's owner is
//!   killed mid-stream. The engine requires the two arms to answer
//!   byte-for-byte alike; on top, the killed arm must have migrated
//!   exactly once, the router ledgers must match except for the
//!   migration count, and the workload must have exercised the predictor
//!   (`cdqs_issued < cdqs_total`) — otherwise identity proves nothing.
//! * **Hostile replication** — truncated, version-skewed, and
//!   CRC-corrupt snapshot pushes against a live store-enabled server
//!   must come back as structured rejections that leave the receiver
//!   cold-startable: no panic, no stuck state, no session leak.

use crate::Case;
use copred_core::{ChtParams, Strategy};
use copred_fleet::{FleetBackend, SessionLedger};
use copred_replay::{record, unrecorded_log, Arm, Differential, InProcessBackend, ReplayOptions};
use copred_service::protocol::{Request, Response, SchedMode};
use copred_service::{LoadgenConfig, Server, ServerConfig, ServiceClient};
use copred_store::crc::crc32;
use copred_store::snapshot::encode;
use copred_store::TableImage;
use copred_trace::MotionTrace;

/// Runs one fleet case: replay, migration, and hostile sub-checks.
pub(crate) fn check_case(c: &mut Case<'_>) {
    check_replay_identity(c);
    check_migration_identity(c);
    check_hostile_replication(c);
}

/// A recorded run replays through a fleet exactly like a single node.
fn check_replay_identity(c: &mut Case<'_>) {
    let lg = LoadgenConfig {
        mode: SchedMode::Coord,
        seed: c.seed,
        batch: 2,
        ..LoadgenConfig::default()
    };
    let log = match record(ServerConfig::default(), lg, &c.traces(2), "conform-fleet") {
        Ok(l) => l,
        Err(e) => return c.fail(format_args!("replay: {e}")),
    };
    let mut fleet = match FleetBackend::start(2) {
        Ok(f) => f,
        Err(e) => return c.fail(format_args!("replay: fleet failed to start: {e}")),
    };
    let mut single = InProcessBackend::with_server_defaults().labeled("single");
    c.run(
        "replay",
        Differential {
            log: &log,
            arms: vec![Arm::new(&mut single), Arm::new(&mut fleet)],
        },
    );
}

/// The migration op stream: one fingerprinted session, batches whose
/// salts cycle so late rounds revisit learned cells — a migrated replica
/// that lost warm state would answer those rounds differently.
fn migration_ops(fp: u64, seed: u64) -> Vec<(u64, Request)> {
    let mut ops = vec![Request::Open {
        robot: "planar-2d".to_string(),
        link_count: 2,
        mode: SchedMode::Coord,
        seed,
        fp: Some(fp),
    }];
    for round in 0..6u64 {
        let base = seed * 100 + (round % 3) * 8;
        ops.push(Request::CheckMotion {
            session: 1,
            motions: (base..base + 8).map(MotionTrace::synthetic).collect(),
            trace: None,
        });
    }
    ops.push(Request::Close { session: 1 });
    ops.into_iter().map(|op| (1, op)).collect()
}

/// A killed-and-failed-over session must answer byte-for-byte like an
/// undisturbed one, with an equal metrics ledger.
fn check_migration_identity(c: &mut Case<'_>) {
    let fp = 0xF1EE_0000_0000 | c.seed;
    let log = unrecorded_log(migration_ops(fp, c.seed % 97));
    // Kill mid-stream, after the open and at least one check batch but
    // before the last; varies with the case.
    let kill_at = 2 + (c.index as usize % 4);
    let (mut calm, mut stormy) = match (FleetBackend::start(2), FleetBackend::start(2)) {
        (Ok(a), Ok(b)) => (
            a.labeled("calm"),
            b.labeled("migrated").kill_owner_before(kill_at),
        ),
        (Err(e), _) | (_, Err(e)) => {
            return c.fail(format_args!("migration: fleet failed to start: {e}"))
        }
    };
    let opts = ReplayOptions {
        compare: false,
        ..ReplayOptions::default()
    };
    let arms = vec![
        Arm {
            backend: &mut calm,
            opts,
        },
        Arm {
            backend: &mut stormy,
            opts,
        },
    ];
    let diff = Differential { log: &log, arms };
    if c.run("migration", diff).is_none() {
        return;
    }
    let (Some(calm_ledger), Some(stormy_ledger)) =
        (calm.last_session_ledger(), stormy.last_session_ledger())
    else {
        return c.fail("migration: ledger lost after close");
    };
    if stormy_ledger.migrations != 1 {
        c.fail(format_args!(
            "migration: killing the owner at op {kill_at} caused {} migrations, want 1",
            stormy_ledger.migrations
        ));
    }
    let modulo = SessionLedger {
        migrations: calm_ledger.migrations,
        ..stormy_ledger.clone()
    };
    if *calm_ledger != modulo {
        c.fail(format_args!(
            "migration: migrated ledger {stormy_ledger:?} != calm ledger {calm_ledger:?} (modulo migrations)"
        ));
    }
    // The identity only means something if the post-kill rounds consulted
    // learned state.
    if calm_ledger.cdqs_issued >= calm_ledger.cdqs_total {
        c.fail(format_args!(
            "migration: workload never exercised the predictor ({} of {})",
            calm_ledger.cdqs_issued, calm_ledger.cdqs_total
        ));
    }
}

/// Small table geometry so hostile snapshots stay cheap to craft.
fn tiny_params() -> ChtParams {
    ChtParams {
        bits: 6,
        counter_bits: 2,
        strategy: Strategy::new(1.0),
        update_fraction: 0.125,
    }
}

/// Torn, version-skewed, and corrupt pushes degrade to cold start.
fn check_hostile_replication(c: &mut Case<'_>) {
    let (case, seed) = (c.index, c.seed);
    let mut fail = |msg: String| c.fail(format_args!("hostile: {msg}"));
    let dir = std::env::temp_dir().join(format!(
        "copred-conform-fleet-{}-{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        fail(format!("store dir: {e}"));
        return;
    }
    let server = match Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        cht_params: tiny_params(),
        store_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    }) {
        Ok(s) => s,
        Err(e) => {
            fail(format!("server failed to start: {e}"));
            return;
        }
    };
    let mut client = match ServiceClient::connect(server.local_addr()) {
        Ok(c) => c,
        Err(e) => {
            fail(format!("connect: {e}"));
            return;
        }
    };
    let mut image = TableImage::empty(tiny_params());
    for (i, cell) in image.cells.iter_mut().enumerate() {
        let v = seed.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64);
        cell.0 = (v % 4) as u8;
        cell.1 = ((v >> 8) % 4) as u8;
    }
    image.u_state = seed | 1;
    let good = encode(&image);

    // Three hostile shapes, offsets derived from the seed.
    let torn = good[..(seed as usize % good.len())].to_vec();
    let mut flipped = good.clone();
    flipped[seed as usize % good.len()] ^= 1 << (seed % 8) as u8;
    let shapes: [(&str, u32, u32, Vec<u8>); 3] = [
        ("torn", 1, crc32(&torn), torn),
        ("flipped", 1, crc32(&good), flipped), // stale transfer CRC
        ("skewed", 2 + (seed % 1000) as u32, crc32(&good), good),
    ];
    for (i, (shape, version, crc, payload)) in shapes.into_iter().enumerate() {
        // One fingerprint per shape: the cold-start probe below persists
        // (empty) state on close, which a later shape's `snap_none` check
        // would otherwise see.
        let fp = 0xBAD0_0000_0000 | (case << 8) | i as u64;
        let resp = client.call(&Request::SnapPush {
            fp,
            version,
            crc,
            payload,
        });
        match resp {
            Ok(Response::Error(_)) => {}
            Ok(other) => {
                fail(format!("{shape} push must be rejected, got {other:?}"));
                continue;
            }
            Err(e) => {
                fail(format!("{shape} push dropped the connection: {e}"));
                return;
            }
        }
        // Nothing stuck under the fingerprint, and sessions still open.
        match client.call(&Request::SnapGet { fp }) {
            Ok(Response::SnapNone { .. }) => {}
            Ok(other) => fail(format!(
                "{shape}: rejected push left state behind: {other:?}"
            )),
            Err(e) => fail(format!("{shape}: snap_get: {e}")),
        }
        let opened = client.open_with_fp("planar-2d", 2, SchedMode::Coord, 3, Some(fp));
        match opened {
            Ok((id, _warm)) => {
                if let Err(e) = client.close(id) {
                    fail(format!("{shape}: close: {e}"));
                }
            }
            Err(e) => fail(format!("{shape}: receiver not cold-startable: {e}")),
        }
        match client.stats(None) {
            Ok(kv) => {
                let open = kv.iter().find(|(k, _)| k == "sessions_open");
                if open.map(|(_, v)| v.as_str()) != Some("0") {
                    fail(format!("{shape}: session leak: sessions_open = {open:?}"));
                }
            }
            Err(e) => fail(format!("{shape}: stats: {e}")),
        }
    }
    drop(client);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioGen;

    #[test]
    fn single_case_is_clean() {
        let gen = ScenarioGen::new(43);
        let mut c = Case::new(&gen, 8, 4300, 0);
        check_case(&mut c);
        assert!(c.failures.is_empty(), "{:?}", c.failures);
        assert!(c.ops > 0);
    }
}
