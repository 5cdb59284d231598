//! Stage 2: the service differential, on the shared engine.
//!
//! Each chunk of up to `CHUNK` query traces becomes one unrecorded log:
//! per trace, an `open` under that trace's mode and seed, then its
//! motions in `check_motion` batches. One extra chunk opens a coord
//! session that checks one trace twice, so at least one session predicts
//! collisions its CHT has learned. [`copred_replay::run_ab`] replays
//! the log through three arms — an in-process registry, a loopback
//! `copred_server` with its `/metrics` listener on, and a fresh
//! in-process `rerun` — and holds them against each other op by op and
//! ledger by ledger. The log never closes a session, so three post-hooks
//! can audit them live:
//!
//! * every verdict equals the brute-force `MotionTrace::colliding()`;
//! * the metrics ledger: each session's wire `stats` equals its
//!   in-process metrics and the answers it gave, `tp + fp + tn + fn ==
//!   cdqs_issued` for coord sessions, zero confusion counts for naive and
//!   CSP sessions, `cdqs_issued <= cdqs_total`, and the global counters
//!   equal the sums over the open sessions;
//! * the `/metrics` scrape carries every ledger counter under its
//!   contract name with its wire value (metric names are a conformance
//!   contract — see ROADMAP.md).
//!
//! Each audit is a function over plain data, so its unit test can feed it
//! a doctored ledger. The stage then closes every session through the
//! loopback arm, and the server must report none open.

use copred_core::ChtParams;
use copred_obs::PromSample;
use copred_replay::{
    run_ab, unrecorded_log, Arm, Differential, InProcessBackend, LoopbackBackend, ReplayBackend,
    ReplayLog, ReplayOptions,
};
use copred_service::client::stat_u64;
use copred_service::protocol::{Request, Response};
use copred_service::{CheckResult, SchedMode, ServerConfig};
use copred_trace::QueryTrace;

/// Sessions per chunk, below every arm's session cap so the LRU never
/// evicts a session mid-chunk.
const CHUNK: usize = 8;
/// Session cap of every arm.
const CAPACITY: usize = 16;
/// CSP stride shared by every arm.
const CSP_STEP: usize = 5;

/// A wire `stats` reply.
type Stats = Vec<(String, String)>;

/// The per-session ledger: each wire `stats` counter and its series on
/// `/metrics`.
const LEDGER: [(&str, &str); 8] = [
    ("checks", "copred_session_checks_total"),
    ("cdqs_issued", "copred_session_cdqs_issued_total"),
    ("cdqs_total", "copred_session_cdqs_declared_total"),
    ("collisions", "copred_session_collisions_total"),
    ("true_pos", "copred_session_true_pos_total"),
    ("false_pos", "copred_session_false_pos_total"),
    ("true_neg", "copred_session_true_neg_total"),
    ("false_neg", "copred_session_false_neg_total"),
];

/// Each global wire `stats` key the audits read, and its series.
const GLOBAL_SERIES: [(&str, &str); 4] = [
    ("checks", "copred_checks_total"),
    ("cdqs_issued", "copred_cdqs_issued_total"),
    ("cdqs_total", "copred_cdqs_declared_total"),
    ("sessions_open", "copred_sessions_open"),
];

/// Replays `traces` a chunk at a time; session `i` of chunk `k` opens
/// with seed `base_seed + 1000 k + i`. One more chunk re-checks the trace
/// with the most colliding motions in a coord session, twice over, so
/// the CHT predicts collisions it has learned: without a true positive
/// the confusion audit could not catch a miscounted one, and the stage
/// fails. Returns the ops replayed across every arm and every divergence
/// found.
pub(crate) fn run_service_stage(traces: &[QueryTrace], base_seed: u64) -> (u64, Vec<String>) {
    let mut logs: Vec<ReplayLog> = traces
        .chunks(CHUNK)
        .enumerate()
        .map(|(k, chunk)| chunk_log(chunk, base_seed.wrapping_add(k as u64 * 1000)))
        .collect();
    // `rev` makes the first of equally colliding traces win.
    let colliding = |t: &&QueryTrace| t.motions.iter().filter(|m| m.colliding()).count();
    if let Some(trace) = traces.iter().rev().max_by_key(colliding) {
        let seed = base_seed.wrapping_add(logs.len() as u64 * 1000);
        logs.push(relearn_log(trace, seed));
    }
    let (mut ops, mut true_pos) = (0, 0);
    let mut failures = Vec::new();
    for (k, log) in logs.iter().enumerate() {
        let mut found = Vec::new();
        let (n, tp) = check_chunk(log, &mut found);
        ops += n;
        true_pos += tp;
        failures.extend(found.into_iter().map(|f| format!("chunk {k}: {f}")));
    }
    if !logs.is_empty() && true_pos == 0 {
        failures.push("no coord session predicted a collision it then hit (true_pos 0)".into());
    }
    (ops, failures)
}

/// Opens session `token` on `trace`'s robot.
fn open(token: u64, trace: &QueryTrace, mode: SchedMode, seed: u64) -> (u64, Request) {
    let open = Request::Open {
        robot: trace.robot_name.clone(),
        link_count: trace.link_count,
        mode,
        seed,
        fp: None,
    };
    (token, open)
}

/// `trace`'s motions as session `token`'s `check_motion` batches.
fn checks(
    token: u64,
    trace: &QueryTrace,
    batch: usize,
) -> impl Iterator<Item = (u64, Request)> + '_ {
    trace.motions.chunks(batch).map(move |batch| {
        let check = Request::CheckMotion {
            session: token,
            motions: batch.to_vec(),
            trace: None,
        };
        (token, check)
    })
}

/// One session per trace under log token `i`, left open.
fn chunk_log(chunk: &[QueryTrace], seed: u64) -> ReplayLog {
    let mut ops = Vec::new();
    for (i, trace) in chunk.iter().enumerate() {
        let token = i as u64;
        ops.push(open(
            token,
            trace,
            crate::mode_for(token),
            seed.wrapping_add(token),
        ));
        ops.extend(checks(token, trace, 1 + i % 3));
    }
    unrecorded_log(ops)
}

/// One coord session that checks `trace` twice: the second pass meets
/// the collisions the first taught its CHT.
fn relearn_log(trace: &QueryTrace, seed: u64) -> ReplayLog {
    let mut ops = vec![open(0, trace, SchedMode::Coord, seed)];
    for _ in 0..2 {
        ops.extend(checks(0, trace, 2));
    }
    unrecorded_log(ops)
}

/// Replays one chunk log through the three arms and audits it. Returns
/// the ops replayed and the coord sessions' summed wire `true_pos`.
fn check_chunk(log: &ReplayLog, failures: &mut Vec<String>) -> (u64, u64) {
    let mut wire = match LoopbackBackend::start(ServerConfig {
        workers: 2,
        queue_capacity: 64,
        session_queue_cap: 32,
        max_sessions: CAPACITY,
        cht_params: ChtParams::paper_2d(),
        csp_step: CSP_STEP,
        retry_after_ms: 2,
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    }) {
        Ok(b) => b,
        Err(e) => {
            failures.push(format!("server failed to start: {e}"));
            return (0, 0);
        }
    };
    let inproc_arm = || InProcessBackend::new(ChtParams::paper_2d(), CAPACITY, CSP_STEP);
    let (mut inproc, mut rerun) = (inproc_arm(), inproc_arm().labeled("rerun"));
    let opts = ReplayOptions {
        compare: false,
        ..ReplayOptions::default()
    };
    let arms = vec![
        Arm {
            backend: &mut inproc,
            opts,
        },
        Arm {
            backend: &mut wire,
            opts,
        },
        Arm {
            backend: &mut rerun,
            opts,
        },
    ];
    let ab = match run_ab(Differential { log, arms }) {
        Ok(ab) => ab,
        Err(e) => {
            failures.push(e.to_string());
            return (0, 0);
        }
    };
    failures.extend(ab.failures());
    failures.extend(audit_verdicts(log, &ab.first().out.responses));

    // Both registries number sessions from 1 in open order, so in-process
    // session `id` is loopback session `id`. `audit_session` checks that
    // rather than assuming it: a loopback session under another id
    // answers with another mode or ledger, or not at all.
    let (mut sessions, mut true_pos) = (Vec::new(), 0);
    for (i, s) in inproc.opened().iter().enumerate() {
        let results = session_results(log, &ab.arms[1].out.responses, i as u64);
        let local = s.metrics.stat_lines(s.mode.label(), s.shard.occupancy());
        match stats(&mut wire, Some(s.id)) {
            Ok(kv) => {
                failures.extend(
                    audit_session(s.mode, &local, &kv, &results)
                        .into_iter()
                        .map(|f| format!("session {}: {f}", s.id)),
                );
                if s.mode == SchedMode::Coord {
                    true_pos += stat_u64(&kv, "true_pos").unwrap_or(0);
                }
                sessions.push((s.id, kv));
            }
            Err(e) => failures.push(format!("session {}: {e}", s.id)),
        }
    }
    let global = match stats(&mut wire, None) {
        Ok(kv) => kv,
        Err(e) => {
            failures.push(e);
            Vec::new()
        }
    };
    failures.extend(audit_globals(&global, &sessions));
    let scrape = wire
        .server()
        .and_then(copred_service::Server::metrics_addr)
        .ok_or_else(|| "metrics endpoint did not come up".to_string())
        .and_then(|addr| {
            copred_obs::http_get(addr, "/metrics").map_err(|e| format!("/metrics scrape: {e}"))
        })
        .and_then(|body| {
            copred_obs::parse_prometheus(&body)
                .map_err(|e| format!("scraped page does not parse: {e}"))
        });
    match scrape {
        Ok(samples) => failures.extend(audit_scrape(&samples, &global, &sessions)),
        Err(e) => failures.push(e),
    }

    for s in inproc.opened() {
        match wire.call(&Request::Close { session: s.id }) {
            Ok(Response::Closed) => {}
            other => failures.push(format!("close of session {}: {other:?}", s.id)),
        }
    }
    match stats(&mut wire, None) {
        Ok(kv) if stat_u64(&kv, "sessions_open") == Some(0) => {}
        Ok(kv) => failures.push(format!(
            "sessions leaked after close: {:?}",
            stat_u64(&kv, "sessions_open")
        )),
        Err(e) => failures.push(e),
    }
    (ab.ops(), true_pos)
}

/// A `stats` reply from the loopback arm.
fn stats(wire: &mut LoopbackBackend, session: Option<u64>) -> Result<Stats, String> {
    match wire.call(&Request::Stats { session }) {
        Ok(Response::Stats(kv)) => Ok(kv),
        Ok(other) => Err(format!("stats {session:?} answered {other:?}")),
        Err(e) => Err(format!("stats {session:?}: {e}")),
    }
}

/// The check results `responses` gave session `token`'s ops.
fn session_results(log: &ReplayLog, responses: &[String], token: u64) -> Vec<CheckResult> {
    log.records
        .iter()
        .zip(responses)
        .filter(|(rec, _)| rec.session == token)
        .filter_map(|(_, resp)| match Response::from_text(resp) {
            Ok(Response::Results { results, .. }) => Some(results),
            _ => None,
        })
        .flatten()
        .collect()
}

/// Every verdict `responses` gave a `check_motion` of `log` must equal
/// the brute-force verdict of the motion it checked.
fn audit_verdicts(log: &ReplayLog, responses: &[String]) -> Vec<String> {
    let mut failures = Vec::new();
    for (rec, resp) in log.records.iter().zip(responses) {
        let Ok(Request::CheckMotion { motions, .. }) = Request::from_text(&rec.request) else {
            continue;
        };
        let results = match Response::from_text(resp) {
            Ok(Response::Results { results, .. }) => results,
            other => {
                failures.push(format!("op {}: answered {other:?}", rec.idx));
                continue;
            }
        };
        if results.len() != motions.len() {
            failures.push(format!(
                "op {}: {} results for {} motions",
                rec.idx,
                results.len(),
                motions.len()
            ));
        }
        for (m, (r, motion)) in results.iter().zip(&motions).enumerate() {
            if r.colliding != motion.colliding() {
                failures.push(format!(
                    "op {} motion {m}: verdict {} != brute-force {}",
                    rec.idx,
                    r.colliding,
                    motion.colliding()
                ));
            }
        }
    }
    failures
}

/// One session's ledger: its wire `stats` reply must equal the
/// in-process session's (`local`: same mode, counters and CHT occupancy),
/// agree with the `results` it answered, and balance.
fn audit_session(
    mode: SchedMode,
    local: &[(String, String)],
    wire: &[(String, String)],
    results: &[CheckResult],
) -> Vec<String> {
    let mut failures = Vec::new();
    let differing: Vec<_> = wire.iter().zip(local).filter(|(w, l)| w != l).collect();
    if !differing.is_empty() || wire.len() != local.len() {
        failures.push(format!("wire stats != in-process: {differing:?}"));
    }
    let stat = |key: &str| stat_u64(wire, key).unwrap_or(u64::MAX);
    let answered = [
        ("checks", results.len() as u64),
        ("cdqs_issued", results.iter().map(|r| r.cdqs_executed).sum()),
    ];
    for (key, expect) in answered {
        if stat(key) != expect {
            failures.push(format!("stat {key} {} != {expect} answered", stat(key)));
        }
    }
    let confusion = ["true_pos", "false_pos", "true_neg", "false_neg"]
        .map(stat)
        .iter()
        .fold(0u64, |a, &v| a.saturating_add(v));
    let balanced = match mode {
        SchedMode::Coord => stat("cdqs_issued"),
        SchedMode::Naive | SchedMode::Csp => 0,
    };
    if confusion != balanced {
        failures.push(format!(
            "confusion ledger broken: tp+fp+tn+fn = {confusion} != {balanced} in a {} session",
            mode.label()
        ));
    }
    if stat("cdqs_issued") > stat("cdqs_total") {
        failures.push(format!(
            "cdqs_issued {} > cdqs_total {}",
            stat("cdqs_issued"),
            stat("cdqs_total")
        ));
    }
    failures
}

/// The global `stats` reply must count exactly `sessions` as open, and
/// its counters must equal the sums over them.
fn audit_globals(global: &[(String, String)], sessions: &[(u64, Stats)]) -> Vec<String> {
    let mut failures = Vec::new();
    for key in ["checks", "cdqs_issued", "cdqs_total"] {
        let sum: u64 = sessions
            .iter()
            .filter_map(|(_, kv)| stat_u64(kv, key))
            .sum();
        let got = stat_u64(global, key);
        if got != Some(sum) {
            failures.push(format!("global {key} {got:?} != sum of sessions {sum}"));
        }
    }
    let open = stat_u64(global, "sessions_open");
    if open != Some(sessions.len() as u64) {
        failures.push(format!(
            "sessions_open {open:?} != {} open sessions",
            sessions.len()
        ));
    }
    failures
}

/// The scraped page must carry every ledger series under its contract
/// name, each equal to the wire `stats` value: per session (by id) and
/// globally. The wire values are audited above, so the scrape inherits
/// their balance.
fn audit_scrape(
    samples: &[PromSample],
    global: &[(String, String)],
    sessions: &[(u64, Stats)],
) -> Vec<String> {
    let mut failures = Vec::new();
    // Counters are exact small integers, so f64 equality is safe here.
    let mut expect = |name: &str, session: Option<&str>, want: Option<u64>| {
        let got = samples
            .iter()
            .find(|s| s.name == name && s.label("session") == session)
            .map(|s| s.value);
        if got != want.map(|v| v as f64) {
            failures.push(format!(
                "scraped {name} {session:?}: {got:?} != wire {want:?}"
            ));
        }
    };
    for (id, kv) in sessions {
        for (key, name) in LEDGER {
            expect(name, Some(&id.to_string()), stat_u64(kv, key));
        }
    }
    for (key, name) in GLOBAL_SERIES {
        expect(name, None, stat_u64(global, key));
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::ScenarioGen;

    #[test]
    fn small_diff_run_is_clean() {
        let g = ScenarioGen::new(9);
        let traces: Vec<QueryTrace> = (0..4).map(|i| g.query_trace(i)).collect();
        let (ops, failures) = run_service_stage(&traces, 900);
        assert!(failures.is_empty(), "{failures:?}");
        assert!(ops > 0);
    }

    fn result(executed: u64) -> CheckResult {
        CheckResult {
            colliding: false,
            cdqs_executed: executed,
            cdqs_total: 4,
            obstacle_tests: 0,
        }
    }

    /// A balanced coord session's `stats` after two answers that
    /// executed 2 and 3 of 9 CDQs, with 1 + 1 + 2 + 1 confusion counts
    /// (`tp` the first).
    fn ledger(tp: u64) -> Stats {
        let mut kv: Stats = vec![("mode".into(), "coord".into())];
        let values = [2, 5, 9, 1, tp, 1, 2, 1];
        kv.extend(
            LEDGER
                .iter()
                .zip(values)
                .map(|((k, _), v)| (k.to_string(), v.to_string())),
        );
        kv
    }

    #[test]
    fn session_audit_catches_a_double_counted_true_positive() {
        let results = [result(2), result(3)];
        let stats = ledger(1);
        assert_eq!(
            audit_session(SchedMode::Coord, &stats, &stats, &results),
            Vec::<String>::new()
        );
        // Counted twice on both sides alike, as the one shared update
        // rule would: only the balance can catch it.
        let stats = ledger(2);
        let failures = audit_session(SchedMode::Coord, &stats, &stats, &results);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("confusion ledger broken")),
            "{failures:?}"
        );
    }

    #[test]
    fn global_audit_catches_a_counter_that_skips_a_session() {
        let session = |checks: u64| -> Stats {
            vec![
                ("checks".into(), checks.to_string()),
                ("cdqs_issued".into(), (checks * 3).to_string()),
                ("cdqs_total".into(), (checks * 4).to_string()),
            ]
        };
        let sessions = [(1, session(2)), (2, session(5))];
        let global = |checks: u64| -> Stats {
            let mut kv = session(checks);
            kv.push(("sessions_open".into(), "2".into()));
            kv
        };
        assert_eq!(audit_globals(&global(7), &sessions), Vec::<String>::new());
        let failures = audit_globals(&global(5), &sessions);
        assert!(
            failures.iter().any(|f| f.starts_with("global checks")),
            "{failures:?}"
        );
    }

    #[test]
    fn scrape_audit_catches_a_renamed_series() {
        let wire = ledger(1);
        let global: Stats = [
            ("checks", 2),
            ("cdqs_issued", 5),
            ("cdqs_total", 9),
            ("sessions_open", 1),
        ]
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .into();
        let mut page = String::new();
        for (key, name) in LEDGER {
            let v = stat_u64(&wire, key).unwrap();
            page.push_str(&format!("{name}{{session=\"1\",mode=\"coord\"}} {v}\n"));
        }
        for (key, name) in GLOBAL_SERIES {
            page.push_str(&format!("{name} {}\n", stat_u64(&global, key).unwrap()));
        }
        let sessions = [(1, wire)];
        let audit = |page: &str| {
            let samples = copred_obs::parse_prometheus(page).expect("page parses");
            audit_scrape(&samples, &global, &sessions)
        };
        assert_eq!(audit(&page), Vec::<String>::new());
        let renamed = page.replace("copred_session_checks_total", "copred_session_checks");
        let failures = audit(&renamed);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("copred_session_checks_total")),
            "{failures:?}"
        );
    }
}
