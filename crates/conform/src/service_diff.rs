//! Differential replay: the same [`QueryTrace`] workload executed through
//! the in-process scheduler machinery and through a loopback
//! `copred-service` TCP session must produce byte-identical results.
//!
//! The in-process path reuses the service's own public building blocks —
//! [`SessionRegistry`], [`ChtPredictor`], [`run_predicted_schedule`] — so
//! the diff isolates the *transport and dispatch* layers (framing,
//! protocol, queueing, worker pool) rather than re-deriving scheduler
//! semantics from scratch. On top of the per-check diff it audits the
//! metrics ledger:
//!
//! * per coord session: `true_pos + false_pos + true_neg + false_neg ==
//!   cdqs_issued` (every executed CDQ classified exactly once);
//! * per naive/CSP session: all confusion counters stay zero;
//! * globally: `checks` / `cdqs_issued` / `cdqs_total` equal the sums over
//!   open sessions;
//! * replaying a session with the same seed is deterministic.
//!
//! The same ledger is audited a third way: each chunk's server exposes a
//! `/metrics` endpoint, and the scraped Prometheus page must agree with
//! both the wire stats and the in-process results (metric names are a
//! conformance contract — see ROADMAP.md).

use copred_core::ChtParams;
use copred_envgen::{random_scene, Density};
use copred_kinematics::{presets, Motion, Robot};
use copred_service::client::stat_u64;
use copred_service::{
    CheckResult, SchedMode, Server, ServerConfig, ServiceClient, SessionRegistry,
};
use copred_swexec::{run_cpu, CpuExecConfig};
use copred_trace::QueryTrace;
use std::sync::atomic::Ordering;

/// Sessions per server instance; kept below the pool cap so the LRU can
/// never evict a session mid-diff.
const CHUNK: usize = 8;

/// CSP stride shared by both paths.
const CSP_STEP: usize = 5;

fn batch_size_for(i: usize) -> usize {
    1 + i % 3
}

/// Outcome of a service differential run.
#[derive(Debug, Default)]
pub struct ServiceDiffOutcome {
    /// Motion checks compared between the two paths.
    pub checks_diffed: u64,
    /// Human-readable divergence reports (empty = conformant).
    pub failures: Vec<String>,
}

/// Replays `traces` through both paths and diffs results and ledgers.
/// `base_seed` parameterizes the per-session U-policy streams.
pub fn run_service_diff(traces: &[QueryTrace], base_seed: u64) -> ServiceDiffOutcome {
    let mut outcome = ServiceDiffOutcome::default();
    for (chunk_idx, chunk) in traces.chunks(CHUNK).enumerate() {
        diff_chunk(chunk, chunk_idx, base_seed, &mut outcome);
    }
    outcome
}

struct SessionRun {
    id: u64,
    mode: SchedMode,
    tcp_results: Vec<CheckResult>,
}

#[allow(clippy::too_many_lines)]
fn diff_chunk(
    chunk: &[QueryTrace],
    chunk_idx: usize,
    base_seed: u64,
    outcome: &mut ServiceDiffOutcome,
) {
    let params = ChtParams::paper_2d();
    let server = match Server::start(ServerConfig {
        workers: 2,
        queue_capacity: 64,
        session_queue_cap: 32,
        max_sessions: 16,
        cht_params: params,
        csp_step: CSP_STEP,
        retry_after_ms: 2,
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    }) {
        Ok(s) => s,
        Err(e) => {
            outcome
                .failures
                .push(format!("chunk {chunk_idx}: server failed to start: {e}"));
            return;
        }
    };
    let registry = SessionRegistry::new(params, 16);
    let mut client = match ServiceClient::connect(server.local_addr()) {
        Ok(c) => c,
        Err(e) => {
            outcome
                .failures
                .push(format!("chunk {chunk_idx}: connect failed: {e}"));
            return;
        }
    };
    let fail = |failures: &mut Vec<String>, msg: String| {
        failures.push(format!("chunk {chunk_idx}: {msg}"));
    };

    let mut runs: Vec<SessionRun> = Vec::new();
    for (i, trace) in chunk.iter().enumerate() {
        let mode = crate::mode_for(i as u64);
        let seed = base_seed
            .wrapping_add(chunk_idx as u64 * 1000)
            .wrapping_add(i as u64);
        // --- TCP path ---
        let tcp_id = match client.open(&trace.robot_name, trace.link_count, mode, seed) {
            Ok(id) => id,
            Err(e) => {
                fail(
                    &mut outcome.failures,
                    format!("trace {i}: open failed: {e}"),
                );
                continue;
            }
        };
        let mut tcp_results = Vec::new();
        for batch in trace.motions.chunks(batch_size_for(i)) {
            match client.check_motions(tcp_id, batch, 20) {
                Ok((rs, _retries)) => tcp_results.extend(rs),
                Err(e) => {
                    fail(
                        &mut outcome.failures,
                        format!("trace {i}: check failed: {e}"),
                    );
                }
            }
        }
        // --- In-process path ---
        let (session, _evicted) = match registry.open(&trace.robot_name, mode, seed) {
            Ok(s) => s,
            Err(e) => {
                fail(
                    &mut outcome.failures,
                    format!("trace {i}: in-process open failed: {e}"),
                );
                continue;
            }
        };
        let mut local_results = Vec::new();
        for batch in trace.motions.chunks(batch_size_for(i)) {
            local_results.extend(copred_service::execute_batch(&session, batch, CSP_STEP));
        }

        // Per-check diff, plus the brute-force verdict both must match.
        if tcp_results.len() != local_results.len() {
            fail(
                &mut outcome.failures,
                format!(
                    "trace {i}: result count {} (tcp) != {} (in-process)",
                    tcp_results.len(),
                    local_results.len()
                ),
            );
        }
        for (m, (t, l)) in tcp_results.iter().zip(&local_results).enumerate() {
            outcome.checks_diffed += 1;
            if t != l {
                fail(
                    &mut outcome.failures,
                    format!("trace {i} motion {m}: tcp {t:?} != in-process {l:?}"),
                );
            }
            let truth = chunk[i].motions[m].colliding();
            if t.colliding != truth {
                fail(
                    &mut outcome.failures,
                    format!(
                        "trace {i} motion {m}: verdict {} != brute-force {truth}",
                        t.colliding
                    ),
                );
            }
        }

        // Per-session ledger: wire stats vs in-process metrics.
        match client.stats(Some(tcp_id)) {
            Ok(kv) => diff_session_ledger(i, mode, &kv, &session, chunk_idx, &mut outcome.failures),
            Err(e) => fail(
                &mut outcome.failures,
                format!("trace {i}: stats failed: {e}"),
            ),
        }
        runs.push(SessionRun {
            id: tcp_id,
            mode,
            tcp_results,
        });
    }

    // Global counters must equal the sum over the (still open) sessions.
    diff_global_ledger(&mut client, &runs, chunk_idx, &mut outcome.failures);

    // Third view of the same ledger: scrape /metrics while the sessions
    // are still open (global counters are cumulative, so this must run
    // before the determinism replay adds a session).
    match server.metrics_addr() {
        Some(addr) => diff_prometheus_scrape(addr, &runs, chunk_idx, &mut outcome.failures),
        None => fail(
            &mut outcome.failures,
            "metrics endpoint did not come up".to_string(),
        ),
    }

    // Determinism: replay the first trace in a fresh session with the same
    // seed and mode; results must be identical.
    if let (Some(first_run), Some(trace)) = (runs.first(), chunk.first()) {
        let seed = base_seed.wrapping_add(chunk_idx as u64 * 1000);
        match client.open(&trace.robot_name, trace.link_count, first_run.mode, seed) {
            Ok(replay_id) => {
                let mut replay_results = Vec::new();
                for batch in trace.motions.chunks(batch_size_for(0)) {
                    match client.check_motions(replay_id, batch, 20) {
                        Ok((rs, _)) => replay_results.extend(rs),
                        Err(e) => fail(
                            &mut outcome.failures,
                            format!("determinism replay check failed: {e}"),
                        ),
                    }
                }
                if replay_results != first_run.tcp_results {
                    fail(
                        &mut outcome.failures,
                        "same-seed replay diverged from the first run".to_string(),
                    );
                }
                let _ = client.close(replay_id);
            }
            Err(e) => fail(
                &mut outcome.failures,
                format!("determinism replay open failed: {e}"),
            ),
        }
    }

    // Close everything; the pool must report empty afterwards.
    for run in &runs {
        if let Err(e) = client.close(run.id) {
            fail(
                &mut outcome.failures,
                format!("close of session {} failed: {e}", run.id),
            );
        }
    }
    match client.stats(None) {
        Ok(kv) => {
            if stat_u64(&kv, "sessions_open") != Some(0) {
                fail(
                    &mut outcome.failures,
                    format!(
                        "sessions leaked after close: {:?}",
                        stat_u64(&kv, "sessions_open")
                    ),
                );
            }
        }
        Err(e) => fail(&mut outcome.failures, format!("final stats failed: {e}")),
    }
}

fn diff_session_ledger(
    i: usize,
    mode: SchedMode,
    kv: &[(String, String)],
    session: &copred_service::SessionState,
    chunk_idx: usize,
    failures: &mut Vec<String>,
) {
    let mut fail = |msg: String| failures.push(format!("chunk {chunk_idx}: trace {i}: {msg}"));
    let wire = |key: &str| stat_u64(kv, key).unwrap_or(u64::MAX);
    let local = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
    let m = &session.metrics;
    let pairs = [
        ("checks", local(&m.checks)),
        ("cdqs_issued", local(&m.cdqs_issued)),
        ("cdqs_total", local(&m.cdqs_total)),
        ("collisions", local(&m.collisions)),
        ("true_pos", local(&m.true_pos)),
        ("false_pos", local(&m.false_pos)),
        ("true_neg", local(&m.true_neg)),
        ("false_neg", local(&m.false_neg)),
    ];
    for (key, expect) in pairs {
        let got = wire(key);
        if got != expect {
            fail(format!("stat {key}: wire {got} != in-process {expect}"));
        }
    }
    let confusion = wire("true_pos") + wire("false_pos") + wire("true_neg") + wire("false_neg");
    match mode {
        SchedMode::Coord => {
            if confusion != wire("cdqs_issued") {
                fail(format!(
                    "confusion ledger broken: tp+fp+tn+fn = {confusion} != cdqs_issued {}",
                    wire("cdqs_issued")
                ));
            }
        }
        SchedMode::Naive | SchedMode::Csp => {
            if confusion != 0 {
                fail(format!(
                    "unpredicted session accumulated confusion counts: {confusion}"
                ));
            }
        }
    }
    if wire("cdqs_issued") > wire("cdqs_total") {
        fail(format!(
            "cdqs_issued {} > cdqs_total {}",
            wire("cdqs_issued"),
            wire("cdqs_total")
        ));
    }
}

/// Scrapes the chunk server's `/metrics` page and diffs it against the
/// wire results: per coord session the scraped confusion ledger must sum
/// to the scraped `cdqs_issued`, scraped session series must match the
/// client-side result sums, and scraped global counters must equal the
/// sums over the scraped session series.
fn diff_prometheus_scrape(
    addr: std::net::SocketAddr,
    runs: &[SessionRun],
    chunk_idx: usize,
    failures: &mut Vec<String>,
) {
    let body = match copred_obs::http_get(addr, "/metrics") {
        Ok(b) => b,
        Err(e) => {
            failures.push(format!("chunk {chunk_idx}: /metrics scrape failed: {e}"));
            return;
        }
    };
    let samples = match copred_obs::parse_prometheus(&body) {
        Ok(s) => s,
        Err(e) => {
            failures.push(format!(
                "chunk {chunk_idx}: scraped page does not parse: {e}"
            ));
            return;
        }
    };
    let mut fail = |msg: String| failures.push(format!("chunk {chunk_idx}: scrape: {msg}"));
    // Counters are exact small integers, so f64 equality is safe here.
    let get = |name: &str, session: Option<&str>| -> Option<f64> {
        samples
            .iter()
            .find(|s| {
                s.name == name
                    && match session {
                        Some(id) => s.label("session") == Some(id),
                        None => true,
                    }
            })
            .map(|s| s.value)
    };
    let mut sums = (0.0f64, 0.0f64, 0.0f64); // checks, issued, declared
    for run in runs {
        let id = run.id.to_string();
        let g = |name: &str| get(name, Some(&id));
        // A missing series yields NaN, which poisons the sums and fails
        // the equality checks below.
        let series = |name: &str| g(name).unwrap_or(f64::NAN);
        let checks = series("copred_session_checks_total");
        let issued = series("copred_session_cdqs_issued_total");
        let declared = series("copred_session_cdqs_declared_total");
        if checks != run.tcp_results.len() as f64 {
            fail(format!(
                "session {id}: scraped checks {checks} != {} wire results",
                run.tcp_results.len()
            ));
        }
        let wire_issued: u64 = run.tcp_results.iter().map(|r| r.cdqs_executed).sum();
        if issued != wire_issued as f64 {
            fail(format!(
                "session {id}: scraped cdqs_issued {issued} != wire sum {wire_issued}"
            ));
        }
        let confusion: f64 = [
            "copred_session_true_pos_total",
            "copred_session_false_pos_total",
            "copred_session_true_neg_total",
            "copred_session_false_neg_total",
        ]
        .iter()
        .map(|n| series(n))
        .sum();
        match run.mode {
            SchedMode::Coord => {
                if confusion != issued {
                    fail(format!(
                        "session {id}: scraped tp+fp+tn+fn {confusion} != cdqs_issued {issued}"
                    ));
                }
            }
            SchedMode::Naive | SchedMode::Csp => {
                if confusion != 0.0 {
                    fail(format!(
                        "session {id}: unpredicted session scraped confusion {confusion}"
                    ));
                }
            }
        }
        sums.0 += checks;
        sums.1 += issued;
        sums.2 += declared;
    }
    for (name, expect) in [
        ("copred_checks_total", sums.0),
        ("copred_cdqs_issued_total", sums.1),
        ("copred_cdqs_declared_total", sums.2),
    ] {
        match get(name, None) {
            Some(got) if got == expect => {}
            got => fail(format!(
                "global {name} {got:?} != sum of session series {expect}"
            )),
        }
    }
    if get("copred_sessions_open", None) != Some(runs.len() as f64) {
        fail(format!(
            "copred_sessions_open {:?} != {} open sessions",
            get("copred_sessions_open", None),
            runs.len()
        ));
    }
}

fn diff_global_ledger(
    client: &mut ServiceClient,
    runs: &[SessionRun],
    chunk_idx: usize,
    failures: &mut Vec<String>,
) {
    let mut session_sums = (0u64, 0u64, 0u64);
    for run in runs {
        match client.stats(Some(run.id)) {
            Ok(kv) => {
                session_sums.0 += stat_u64(&kv, "checks").unwrap_or(0);
                session_sums.1 += stat_u64(&kv, "cdqs_issued").unwrap_or(0);
                session_sums.2 += stat_u64(&kv, "cdqs_total").unwrap_or(0);
            }
            Err(e) => failures.push(format!("chunk {chunk_idx}: session stats failed: {e}")),
        }
    }
    match client.stats(None) {
        Ok(kv) => {
            let pairs = [
                ("checks", session_sums.0),
                ("cdqs_issued", session_sums.1),
                ("cdqs_total", session_sums.2),
            ];
            for (key, expect) in pairs {
                let got = stat_u64(&kv, key).unwrap_or(u64::MAX);
                if got != expect {
                    failures.push(format!(
                        "chunk {chunk_idx}: global {key} {got} != sum of sessions {expect}"
                    ));
                }
            }
            if stat_u64(&kv, "sessions_open") != Some(runs.len() as u64) {
                failures.push(format!(
                    "chunk {chunk_idx}: sessions_open {:?} != {} open sessions",
                    stat_u64(&kv, "sessions_open"),
                    runs.len()
                ));
            }
        }
        Err(e) => failures.push(format!("chunk {chunk_idx}: global stats failed: {e}")),
    }
}

/// Cross-checks the multi-threaded swexec CPU path against brute force:
/// prediction and thread count may change CDQ counts, never verdicts.
pub fn run_cpu_diff(seed: u64) -> Vec<String> {
    let mut failures = Vec::new();
    let robot: Robot = presets::planar_2d().into();
    let scene = random_scene(&robot, Density::Medium, 24, seed);
    let motions: Vec<Vec<_>> = scene
        .poses
        .chunks(2)
        .filter(|p| p.len() == 2)
        .map(|p| Motion::new(p[0].clone(), p[1].clone()).discretize(6))
        .collect();
    let truth: u64 = motions
        .iter()
        .map(|poses| {
            u64::from(
                copred_collision::enumerate_motion_cdqs(&robot, &scene.env, poses)
                    .iter()
                    .any(|c| c.colliding),
            )
        })
        .sum();
    let total_cdqs: u64 = motions
        .iter()
        .map(|poses| {
            copred_collision::enumerate_motion_cdqs(&robot, &scene.env, poses).len() as u64
        })
        .sum();
    for (threads, predict) in [(1usize, false), (1, true), (4, true)] {
        let cfg = CpuExecConfig {
            n_threads: threads,
            with_prediction: predict,
            cht_params: ChtParams::paper_2d(),
            seed,
        };
        let out = run_cpu(&robot, &scene.env, &motions, &cfg);
        if out.colliding_motions != truth {
            failures.push(format!(
                "run_cpu(threads={threads}, predict={predict}): {} colliding motions != brute-force {truth}",
                out.colliding_motions
            ));
        }
        if out.cdqs_executed > total_cdqs {
            failures.push(format!(
                "run_cpu(threads={threads}, predict={predict}): executed {} > total {total_cdqs}",
                out.cdqs_executed
            ));
        }
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
        let out = run_service_diff(&traces, 900);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert!(out.checks_diffed > 0);
    }

    #[test]
    fn cpu_diff_is_clean() {
        let failures = run_cpu_diff(17);
        assert!(failures.is_empty(), "{failures:?}");
    }
}
