//! Stage 4: persistence conformance — the store may change *when*
//! learned state is available, never *what* the predictor computes.
//! Every differential here replays one request stream through the engine
//! against a store-backed in-process registry and a store-enabled
//! loopback server, which must agree op for op (`warm` flags included).
//!
//! 1. **Warm-start equivalence** — first half, close (persisting a
//!    snapshot), warm reopen, second half: the second half must match a
//!    continuous session that kept its table.
//! 2. **Crash recovery** — the first half runs and both arms are dropped
//!    without a close. The WAL alone must rebuild the crashed table
//!    bit-exactly; then a registry over the recovered store and a server
//!    restarted on the crashed directory answer the second half alike,
//!    warm exactly when the crashed table was non-empty, with no leaked
//!    sessions.
//! 3. **Torn tail** — the crashed WAL's last segment truncated at several
//!    offsets must still load (or degrade to cold) without a panic.

use crate::Case;
use copred_core::ChtParams;
use copred_replay::{
    unrecorded_log, AbOutcome, Arm, Differential, InProcessBackend, LoopbackBackend, ReplayBackend,
    ReplayOptions,
};
use copred_service::client::stat_u64;
use copred_service::protocol::{Request, Response};
use copred_service::{CheckResult, SchedMode, ServerConfig, SessionRegistry};
use copred_store::{StoreRegistry, TableImage};
use copred_trace::{MotionTrace, QueryTrace};
use std::path::Path;
use std::sync::Arc;

/// CSP stride shared by every path in this stage.
const CSP_STEP: usize = 5;
/// Motions per check batch, shared by every path.
const BATCH: usize = 2;
/// Session capacity of every registry and server in this stage.
const CAPACITY: usize = 16;

/// Runs one persistence case: warm start, crash recovery, torn tail.
pub(crate) fn check_case(c: &mut Case<'_>) {
    let trace = c.traces(1).remove(0);
    if trace.motions.len() < 2 {
        return;
    }
    let fp = c.seed | 1; // fingerprints are opaque u64 keys on the wire
    let root = std::env::temp_dir().join(format!(
        "copred-store-check-{}-{}-{}",
        std::process::id(),
        c.seed,
        c.index
    ));
    let _ = std::fs::remove_dir_all(&root);
    warm_equivalence(c, &trace, fp, &root);
    crash_recovery(c, &trace, fp, &root);
    let _ = std::fs::remove_dir_all(&root);
}

fn params() -> ChtParams {
    ChtParams::paper_2d()
}

fn halves(trace: &QueryTrace) -> (&[MotionTrace], &[MotionTrace]) {
    trace.motions.split_at(trace.motions.len() / 2)
}

/// One coord session's ops under log token `token`: an open carrying
/// `fp`, `motions` in check batches, and (when `close`) the close.
fn session_ops(
    trace: &QueryTrace,
    seed: u64,
    fp: u64,
    token: u64,
    motions: &[MotionTrace],
    close: bool,
) -> Vec<(u64, Request)> {
    let mut ops = vec![Request::Open {
        robot: trace.robot_name.clone(),
        link_count: trace.link_count,
        mode: SchedMode::Coord,
        seed,
        fp: Some(fp),
    }];
    ops.extend(motions.chunks(BATCH).map(|batch| Request::CheckMotion {
        session: token,
        motions: batch.to_vec(),
        trace: None,
    }));
    if close {
        ops.push(Request::Close { session: token });
    }
    ops.into_iter().map(|op| (token, op)).collect()
}

fn store_registry(store: StoreRegistry) -> SessionRegistry {
    SessionRegistry::new_with_store(params(), CAPACITY, Some(Arc::new(store)))
}

/// The two arms of every differential here: a registry over a store at
/// `inproc` and a server whose store lives at `wire`.
fn arms(inproc: &Path, wire: &Path) -> Result<(InProcessBackend, LoopbackBackend), String> {
    let store = StoreRegistry::open(inproc).map_err(|e| format!("store open: {e}"))?;
    Ok((
        InProcessBackend::over(store_registry(store), CSP_STEP),
        wire_arm(wire)?,
    ))
}

fn wire_arm(dir: &Path) -> Result<LoopbackBackend, String> {
    LoopbackBackend::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        max_sessions: CAPACITY,
        cht_params: params(),
        csp_step: CSP_STEP,
        store_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))
}

/// Replays the unrecorded `ops` through both arms, which must agree op
/// for op.
fn differential(
    c: &mut Case<'_>,
    what: &str,
    ops: Vec<(u64, Request)>,
    inproc: &mut InProcessBackend,
    wire: &mut LoopbackBackend,
) -> Option<AbOutcome> {
    let log = unrecorded_log(ops);
    let opts = ReplayOptions {
        compare: false,
        ..ReplayOptions::default()
    };
    c.run(
        what,
        Differential {
            log: &log,
            arms: vec![
                Arm {
                    backend: inproc,
                    opts,
                },
                Arm {
                    backend: wire,
                    opts,
                },
            ],
        },
    )
}

/// The check results in (normalized) responses.
fn results(responses: &[String]) -> Vec<CheckResult> {
    responses
        .iter()
        .filter_map(|r| match Response::from_text(r) {
            Ok(Response::Results { results, .. }) => Some(results),
            _ => None,
        })
        .flatten()
        .collect()
}

fn open_ack(warm: bool) -> String {
    format!("ok session _ warm {}\n", u8::from(warm))
}

/// Scenario 1: close-then-reopen warm start reproduces a continuous
/// session bit-for-bit, in-process and over the wire.
fn warm_equivalence(c: &mut Case<'_>, trace: &QueryTrace, fp: u64, root: &Path) {
    let (first, second) = halves(trace);

    // Continuous baseline: one session runs both halves, no store.
    let baseline = SessionRegistry::new(params(), CAPACITY);
    let cont_second = match baseline.open(&trace.robot_name, SchedMode::Coord, c.seed) {
        Ok((s, _)) => {
            for batch in first.chunks(BATCH) {
                copred_service::execute_batch(&s, batch, CSP_STEP);
            }
            second
                .chunks(BATCH)
                .flat_map(|batch| copred_service::execute_batch(&s, batch, CSP_STEP))
                .collect::<Vec<_>>()
        }
        Err(e) => return c.fail(format_args!("warm equivalence: baseline open: {e}")),
    };

    let mut ops = session_ops(trace, c.seed, fp, 1, first, true);
    let reopen_at = ops.len();
    ops.extend(session_ops(trace, c.seed, fp, 2, second, true));
    let (mut inproc, mut wire) = match arms(&root.join("inproc"), &root.join("tcp")) {
        Ok(a) => a,
        Err(e) => return c.fail(format_args!("warm equivalence: {e}")),
    };
    let Some(ab) = differential(c, "warm equivalence", ops, &mut inproc, &mut wire) else {
        return;
    };
    let responses = &ab.first().out.responses;
    if responses.first() != Some(&open_ack(false)) {
        c.fail("warm equivalence: first open reported warm");
    }
    if responses.get(reopen_at) != Some(&open_ack(true)) {
        c.fail("warm equivalence: reopen did not warm-start");
    }
    if results(&responses[reopen_at.min(responses.len())..]) != cont_second {
        c.fail("warm equivalence: warm second half diverged from continuous session");
    }
}

/// Scenarios 2 and 3: crash (drop without close), recover from the WAL,
/// and survive a torn tail.
fn crash_recovery(c: &mut Case<'_>, trace: &QueryTrace, fp: u64, root: &Path) {
    let (first, second) = halves(trace);
    let (dir_a, dir_b) = (root.join("crash-inproc"), root.join("crash-tcp"));

    // The crash: both arms run the first half and are dropped with the
    // session still open.
    let expected_cells = {
        let (mut inproc, mut wire) = match arms(&dir_a, &dir_b) {
            Ok(a) => a,
            Err(e) => return c.fail(format_args!("crash recovery: {e}")),
        };
        let ops = session_ops(trace, c.seed, fp, 1, first, false);
        if differential(c, "pre-crash", ops, &mut inproc, &mut wire).is_none() {
            return;
        }
        match inproc.opened().first() {
            Some(s) => s.shard.export_cells(),
            None => return c.fail("crash recovery: pre-crash session never opened"),
        }
    };

    // Recovery must reconstruct the table bit-exactly from the WAL alone.
    let recovered = match StoreRegistry::open(&dir_a) {
        Ok(s) => s,
        Err(e) => return c.fail(format_args!("crash recovery: store reopen: {e}")),
    };
    let expected_warm = expected_cells.iter().any(|c| !c.is_empty());
    match recovered.load(fp, &params()) {
        Some(_) if !expected_warm => {
            c.fail("crash recovery: recovery produced an image from an empty table");
        }
        Some(img) if img.cells != expected_cells => {
            c.fail("crash recovery: WAL recovery diverged from the live table at crash time");
        }
        None if expected_warm => c.fail("crash recovery: recovery lost a non-empty table"),
        _ => {}
    }

    post_crash(c, trace, fp, second, recovered, expected_warm, &dir_b);
    torn_tail(c, &dir_a, fp);
}

/// Post-recovery, a registry over the recovered store and a server
/// restarted on the crashed directory answer the second half alike.
fn post_crash(
    c: &mut Case<'_>,
    trace: &QueryTrace,
    fp: u64,
    second: &[MotionTrace],
    recovered: StoreRegistry,
    expected_warm: bool,
    wire_dir: &Path,
) {
    let mut inproc = InProcessBackend::over(store_registry(recovered), CSP_STEP);
    let mut wire = match wire_arm(wire_dir) {
        Ok(w) => w,
        Err(e) => return c.fail(format_args!("crash recovery: restart: {e}")),
    };
    let ops = session_ops(trace, c.seed, fp, 1, second, true);
    let Some(ab) = differential(c, "post-crash", ops, &mut inproc, &mut wire) else {
        return;
    };
    if ab.first().out.responses.first() != Some(&open_ack(expected_warm)) {
        c.fail(format_args!(
            "crash recovery: recovered open {:?}, want warm {expected_warm}",
            ab.first().out.responses.first()
        ));
    }
    match wire.call(&Request::Stats { session: None }) {
        Ok(Response::Stats(kv)) if stat_u64(&kv, "sessions_open") == Some(0) => {}
        other => c.fail(format_args!(
            "crash recovery: sessions leaked after recovery: {other:?}"
        )),
    }
}

/// Truncating the last surviving WAL segment anywhere must never panic a
/// later load; the full segment is restored afterwards. Runs after every
/// other use of `dir`, so a torn table can never leak into the recovery
/// differential.
fn torn_tail(c: &mut Case<'_>, dir: &Path, fp: u64) {
    let segs = copred_store::wal::segments(dir);
    let Some((_, last)) = segs.last() else {
        return;
    };
    let full = match std::fs::read(last) {
        Ok(b) => b,
        Err(e) => return c.fail(format_args!("torn tail: read segment: {e}")),
    };
    for frac in [1, 2, 3, 5] {
        let cut = full.len() * frac / 6;
        if std::fs::write(last, &full[..cut]).is_err() {
            continue;
        }
        match StoreRegistry::open(dir) {
            // Any outcome but a panic is acceptable; a produced image
            // must at least have the right geometry.
            Ok(reopened) => {
                if let Some(img) = reopened.load(fp, &params()) {
                    if img.cells.len() != TableImage::empty(params()).cells.len() {
                        c.fail(format_args!(
                            "torn tail: image has wrong geometry (cut {cut})"
                        ));
                    }
                }
            }
            Err(e) => c.fail(format_args!("torn tail: store open (cut {cut}): {e}")),
        }
    }
    if let Err(e) = std::fs::write(last, &full) {
        c.fail(format_args!("torn tail: restore segment: {e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioGen;

    #[test]
    fn store_cases_are_clean() {
        let gen = ScenarioGen::new(31);
        for index in 0..2 {
            let mut c = Case::new(&gen, 4, 3100, index);
            check_case(&mut c);
            assert!(c.failures.is_empty(), "{:?}", c.failures);
        }
    }
}
