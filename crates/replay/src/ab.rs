//! The differential engine: one recorded log driven against N backends
//! ("arms"), with every difference collected in one place.
//!
//! A [`Differential`] names the log and the arms (each a
//! [`ReplayBackend`] with its own [`ReplayOptions`]). [`run_ab`] replays
//! the log through each in turn and returns an [`AbOutcome`] that
//! reports:
//!
//! * each arm's divergences from the recording (when the arm compares);
//! * divergences between arms, op by op, on normalized responses
//!   ([`crate::normalize_response`]: session tokens masked, trace echoes
//!   stripped);
//! * determinism, when one arm is a fresh twin of the first (label it
//!   `rerun`): two replays of one log must answer identically;
//! * equality of the check aggregates and of the per-session metrics
//!   ledgers ([`ReplayBackend::ledgers`]) against the recording and
//!   across arms.
//!
//! The conformance stages, the `verify` gates of `copred_replay` and
//! `copred_fleet`, and both `ab` commands are each one call into this
//! engine; stage-specific invariants are small checks on the returned
//! outcome. [`trace_log`] builds a planner workload's op stream as data,
//! [`record`] turns one pass over a log into the recording those callers
//! replay, and [`ab_report`] rolls an outcome into a `bench_json` report
//! (the schema `copred-perfwatch` tracks over time).

use crate::backend::ReplayBackend;
use crate::engine::{run_replay, Ledger, ReplayError, ReplayOptions, ReplayOutcome};
use crate::format::{read_log, write_log, LogMeta, LogRecord, ReplayLog};
use copred_obs::{BenchRecord, BenchReport, Better, TraceId};
use copred_service::protocol::{Request, Response, SchedMode};
use copred_trace::QueryTrace;

/// One backend under test and the options its pass runs with.
pub struct Arm<'a> {
    /// The backend.
    pub backend: &'a mut dyn ReplayBackend,
    /// Pacing, comparison, and trace injection for this arm's pass.
    pub opts: ReplayOptions,
}

impl<'a> Arm<'a> {
    /// An arm with default options: sequential, compared against the
    /// recording.
    pub fn new(backend: &'a mut dyn ReplayBackend) -> Self {
        Arm {
            backend,
            opts: ReplayOptions::default(),
        }
    }
}

/// One differential run's inputs.
pub struct Differential<'a> {
    /// The recorded workload every arm replays.
    pub log: &'a ReplayLog,
    /// Backends under test; the first is the reference the others are
    /// held against.
    pub arms: Vec<Arm<'a>>,
}

/// One arm's pass.
#[derive(Debug, Clone)]
pub struct ArmOutcome {
    /// Backend label.
    pub label: String,
    /// The replay pass.
    pub out: ReplayOutcome,
    /// Per-session metrics ledgers after the pass, in open order (when
    /// the backend reports them).
    pub ledgers: Option<Vec<Ledger>>,
    /// Whether this arm was compared against the recording.
    pub compared: bool,
}

/// Every pass of one differential run.
#[derive(Debug, Clone)]
pub struct AbOutcome {
    /// The arms, in [`Differential::arms`] order.
    pub arms: Vec<ArmOutcome>,
    /// Whole-run sums recoverable from the recorded responses.
    pub recorded_totals: Ledger,
    /// Per-session sums recoverable from the recorded responses, in open
    /// order.
    pub recorded_ledgers: Vec<Ledger>,
}

/// Sums the recorded check responses, whole-run and per session (keyed
/// by recorded token, listed in open order).
fn recorded_ledgers(log: &ReplayLog) -> (Ledger, Vec<Ledger>) {
    let mut totals = Ledger::default();
    let mut opened: Vec<u64> = Vec::new();
    let mut per: std::collections::HashMap<u64, Ledger> = std::collections::HashMap::new();
    for rec in &log.records {
        // Matched on the text, not a parse: a normalized recording masks
        // the token (`ok session _ ...`).
        if rec.response.starts_with("ok session ") {
            opened.push(rec.session);
        } else if let Ok(Response::Results { results, .. }) = Response::from_text(&rec.response) {
            totals.add(&results);
            per.entry(rec.session).or_default().add(&results);
        }
    }
    let ledgers = opened
        .iter()
        .map(|t| per.get(t).copied().unwrap_or_default())
        .collect();
    (totals, ledgers)
}

fn pass(log: &ReplayLog, arm: Arm<'_>) -> Result<ArmOutcome, ReplayError> {
    let out = run_replay(log, arm.backend, &arm.opts)?;
    Ok(ArmOutcome {
        label: arm.backend.label().to_string(),
        out,
        ledgers: arm.backend.ledgers(),
        compared: arm.opts.compare,
    })
}

/// Replays the log against every arm in turn and collects the passes.
///
/// # Errors
///
/// The first [`ReplayError`] any pass hits; divergences are not errors
/// and land in the outcome (see [`AbOutcome::failures`]).
///
/// # Panics
///
/// Panics when the differential has no arms.
pub fn run_ab(diff: Differential<'_>) -> Result<AbOutcome, ReplayError> {
    assert!(
        !diff.arms.is_empty(),
        "a differential needs at least one arm"
    );
    let (recorded_totals, recorded_ledgers) = recorded_ledgers(diff.log);
    let arms = diff
        .arms
        .into_iter()
        .map(|arm| pass(diff.log, arm))
        .collect::<Result<_, _>>()?;
    Ok(AbOutcome {
        arms,
        recorded_totals,
        recorded_ledgers,
    })
}

/// Indices of ops where `b` answered differently from `a`.
fn diverging(a: &ReplayOutcome, b: &ReplayOutcome) -> Vec<usize> {
    let mut ops: Vec<usize> = a
        .responses
        .iter()
        .zip(&b.responses)
        .enumerate()
        .filter(|(_, (ra, rb))| ra != rb)
        .map(|(i, _)| i)
        .collect();
    // A pass that answered fewer ops diverges on every missing one.
    let (short, long) = (
        a.responses.len().min(b.responses.len()),
        a.responses.len().max(b.responses.len()),
    );
    ops.extend(short..long);
    ops
}

impl AbOutcome {
    /// The reference arm.
    pub fn first(&self) -> &ArmOutcome {
        &self.arms[0]
    }

    /// Ops replayed across every arm.
    pub fn ops(&self) -> u64 {
        self.arms.iter().map(|a| a.out.ops).sum()
    }

    /// Whether every arm answered every op identically (after
    /// normalization).
    pub fn responses_identical(&self) -> bool {
        self.diverging_ops().is_empty()
    }

    /// Indices of ops where some arm answered differently from the
    /// first.
    pub fn diverging_ops(&self) -> Vec<usize> {
        let mut ops: Vec<usize> = self
            .arms
            .iter()
            .skip(1)
            .flat_map(|p| diverging(&self.first().out, &p.out))
            .collect();
        ops.sort_unstable();
        ops.dedup();
        ops
    }

    /// Every divergence found, one human-readable line each; empty means
    /// the arms agree with the recording and with each other.
    pub fn failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        for p in &self.arms {
            let label = &p.label;
            if p.out.backend_errors > 0 {
                failures.push(format!(
                    "{label}: {} protocol errors the recording did not have",
                    p.out.backend_errors
                ));
            }
            if !p.compared {
                continue;
            }
            for d in p.out.mismatches.iter().take(3) {
                failures.push(format!(
                    "{label} diverged from the recording at op {} ({} {}): recorded {:?}, replayed {:?}",
                    d.idx, d.verb, d.tag, d.expected, d.actual
                ));
            }
            if p.out.mismatches.len() > 3 {
                failures.push(format!(
                    "{label}: ... and {} more mismatches",
                    p.out.mismatches.len() - 3
                ));
            }
            if p.out.totals != self.recorded_totals {
                failures.push(format!(
                    "{label}: replay aggregates {:?} != recorded {:?}",
                    p.out.totals, self.recorded_totals
                ));
            }
            if let Some(ledgers) = &p.ledgers {
                if *ledgers != self.recorded_ledgers {
                    failures.push(format!(
                        "{label}: per-session ledgers {ledgers:?} != recorded {:?}",
                        self.recorded_ledgers
                    ));
                }
            }
        }
        let first = self.first();
        for p in self.arms.iter().skip(1) {
            let ops = diverging(&first.out, &p.out);
            if let Some(&at) = ops.first() {
                failures.push(format!(
                    "{} answered differently from {} on {} ops (first at op {at}: {:?} vs {:?})",
                    p.label,
                    first.label,
                    ops.len(),
                    first.out.responses.get(at),
                    p.out.responses.get(at)
                ));
            }
            if let (Some(a), Some(b)) = (&first.ledgers, &p.ledgers) {
                if a != b {
                    failures.push(format!(
                        "{} ledgers {b:?} != {} ledgers {a:?}",
                        p.label, first.label
                    ));
                }
            }
        }
        failures
    }
}

/// Records `log` on `backend`: one sequential pass with comparison off,
/// whose live answers become the recording
/// ([`ReplayOutcome::recording`]). The recording is encoded as CPRDLOG
/// and read back, so callers replay the byte artifact, not the in-memory
/// records. Ops the backend answered with an error are recorded with
/// status `err`.
///
/// # Errors
///
/// A failed pass or a failed round-trip, as a reason string.
pub fn record(log: &ReplayLog, backend: &mut dyn ReplayBackend) -> Result<ReplayLog, String> {
    let opts = ReplayOptions {
        compare: false,
        ..ReplayOptions::default()
    };
    let out = run_replay(log, backend, &opts).map_err(|e| format!("recording run failed: {e}"))?;
    let recording = out.recording(log);
    let back = read_log(&write_log(&recording.meta, &recording.records))
        .map_err(|e| format!("own recording failed to parse: {e}"))?;
    if !back.complete || back.records.len() != recording.records.len() {
        return Err(format!(
            "log round-trip lost records: {} of {} (complete: {})",
            back.records.len(),
            recording.records.len(),
            back.complete
        ));
    }
    Ok(back)
}

/// The op stream a planner workload sends, as data. Per trace `i`: an
/// `open` whose seed is `seed ^ ((i + 1) * 0x9E37_79B9_7F4A_7C15)` and
/// whose fingerprint is `fingerprints[i]` (when given); one `check_motion`
/// per `batch` motions, batch `b` carrying `TraceId::derive(session
/// seed, b)` when `trace_ids` is on; then a `close`. Session keys are
/// `i + 1`, the ids a fresh server hands out in open order, so these are
/// byte for byte the requests one connection makes against a fresh
/// server. The header carries `seed`, the first trace's robot, the XOR
/// fold of the fingerprints, and `traces=N batch=B`.
///
/// # Panics
///
/// Panics when `batch` is zero.
pub fn trace_log(
    traces: &[QueryTrace],
    mode: SchedMode,
    seed: u64,
    batch: usize,
    fingerprints: Option<&[u64]>,
    trace_ids: bool,
) -> ReplayLog {
    assert!(batch > 0, "need a positive batch size");
    let mut ops = Vec::new();
    for (i, trace) in traces.iter().enumerate() {
        let session = i as u64 + 1;
        let session_seed = seed ^ session.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ops.push((
            session,
            Request::Open {
                robot: trace.robot_name.clone(),
                link_count: trace.link_count,
                mode,
                seed: session_seed,
                fp: fingerprints.and_then(|fps| fps.get(i).copied()),
            },
        ));
        for (b, motions) in trace.motions.chunks(batch).enumerate() {
            ops.push((
                session,
                Request::CheckMotion {
                    session,
                    motions: motions.to_vec(),
                    trace: trace_ids.then(|| TraceId::derive(session_seed, b as u64)),
                },
            ));
        }
        ops.push((session, Request::Close { session }));
    }
    let mut log = unrecorded_log(ops);
    log.meta = LogMeta {
        seed,
        fingerprint: fingerprints.map_or(0, |fps| fps.iter().fold(0, |acc, fp| acc ^ fp)),
        robot: traces.first().map_or("", |t| &t.robot_name).to_string(),
        workload: String::new(),
        scale: format!("traces={} batch={batch}", traces.len()),
    };
    log
}

/// A log of requests nobody recorded: every op's response is empty, so
/// replay it with `compare: false` and let the arms judge each other (or
/// harvest one arm's responses as the recording). Each op is
/// `(session token, request)`; tokens are log-local keys the engine
/// remaps to live sessions.
pub fn unrecorded_log(ops: Vec<(u64, Request)>) -> ReplayLog {
    let records = ops
        .into_iter()
        .enumerate()
        .map(|(i, (session, req))| {
            let request = req.to_text();
            LogRecord {
                idx: i as u64,
                session,
                start_ns: i as u64 * 1_000,
                duration_ns: 0,
                verb: request.split_whitespace().next().unwrap_or("").to_string(),
                status: "ok".to_string(),
                tag: format!("session{session}"),
                request,
                response: String::new(),
            }
        })
        .collect();
    ReplayLog {
        meta: LogMeta::default(),
        records,
        complete: true,
    }
}

fn side_records(out: &ReplayOutcome, suite: &str) -> Vec<BenchRecord> {
    vec![
        BenchRecord::deterministic(suite, "ops", out.ops as f64, "ops", Better::Higher),
        BenchRecord::deterministic(
            suite,
            "checks",
            out.totals.checks as f64,
            "checks",
            Better::Higher,
        ),
        BenchRecord::deterministic(
            suite,
            "collisions",
            out.totals.collisions as f64,
            "checks",
            Better::Lower,
        ),
        BenchRecord::deterministic(
            suite,
            "cdqs_issued",
            out.totals.cdqs_issued as f64,
            "cdqs",
            Better::Lower,
        ),
        BenchRecord::deterministic(
            suite,
            "mismatches",
            out.mismatches.len() as f64,
            "ops",
            Better::Lower,
        ),
        BenchRecord::deterministic(
            suite,
            "backend_errors",
            out.backend_errors as f64,
            "ops",
            Better::Lower,
        ),
        BenchRecord::deterministic(suite, "wall_ns", out.wall_ns as f64, "ns", Better::Lower),
        BenchRecord::deterministic(
            suite,
            "checks_per_s",
            out.checks_per_sec(),
            "checks/s",
            Better::Higher,
        ),
    ]
}

/// Rolls an [`AbOutcome`] into a `bench_json` report: one suite per arm
/// plus a `replay_ab` diff suite (`responses_identical`,
/// `diverging_ops`, and, with two or more arms, the wall-time ratio
/// `wall_b_over_a` of the second arm over the first).
pub fn ab_report(log: &ReplayLog, ab: &AbOutcome, label: &str) -> BenchReport {
    let mut report = BenchReport::new(
        label,
        "unknown",
        log.meta.seed,
        &format!("{} [{}]", log.meta.scale, log.meta.workload),
    );
    for arm in &ab.arms {
        report
            .records
            .extend(side_records(&arm.out, &format!("replay_{}", arm.label)));
    }
    report.records.push(BenchRecord::deterministic(
        "replay_ab",
        "responses_identical",
        f64::from(u8::from(ab.responses_identical())),
        "bool",
        Better::Higher,
    ));
    report.records.push(BenchRecord::deterministic(
        "replay_ab",
        "diverging_ops",
        ab.diverging_ops().len() as f64,
        "ops",
        Better::Lower,
    ));
    if let [a, b, ..] = ab.arms.as_slice() {
        let ratio = if a.out.wall_ns == 0 {
            0.0
        } else {
            b.out.wall_ns as f64 / a.out.wall_ns as f64
        };
        report.records.push(BenchRecord::deterministic(
            "replay_ab",
            "wall_b_over_a",
            ratio,
            "ratio",
            Better::Lower,
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{InProcessBackend, LoopbackBackend};
    use copred_service::ServerConfig;

    /// A recorded workload with real check ops: a default server answers
    /// two short query traces.
    fn recorded_log() -> ReplayLog {
        let traces: Vec<QueryTrace> = (0..2)
            .map(|i| {
                let motion = copred_trace::MotionTrace {
                    stage: copred_trace::Stage::Explore,
                    poses: vec![copred_kinematics::Config::new(vec![
                        0.1 * f64::from(i),
                        0.2,
                    ])],
                    cdqs: vec![copred_trace::TraceCdq {
                        pose_idx: 0,
                        link_idx: 0,
                        center: copred_geometry::Vec3::new(0.1, 0.2, 0.0),
                        colliding: i == 0,
                        obstacle_tests: 2,
                    }],
                };
                QueryTrace {
                    robot_name: "planar-2d".to_string(),
                    link_count: 1,
                    motions: vec![motion; 3],
                }
            })
            .collect();
        let log = trace_log(&traces, SchedMode::Coord, 9, 2, None, false);
        let mut server = LoopbackBackend::start(ServerConfig::default()).expect("start server");
        record(&log, &mut server).expect("record")
    }

    #[test]
    fn identical_backends_produce_identical_sides() {
        let log = recorded_log();
        let mut a = InProcessBackend::with_server_defaults().labeled("left");
        let mut b = InProcessBackend::with_server_defaults().labeled("right");
        let ab = run_ab(Differential {
            log: &log,
            arms: vec![Arm::new(&mut a), Arm::new(&mut b)],
        })
        .expect("ab");
        assert!(ab.responses_identical());
        assert!(ab.diverging_ops().is_empty());
        assert!(ab.failures().is_empty(), "{:?}", ab.failures());
        let report = ab_report(&log, &ab, "test_ab");
        assert_eq!(report.seed, 9);
        let ident = report
            .records
            .iter()
            .find(|r| r.suite == "replay_ab" && r.metric == "responses_identical")
            .expect("diff record");
        assert_eq!(ident.value, 1.0);
        let ops = log.records.len() as f64;
        assert!(report
            .records
            .iter()
            .any(|r| r.suite == "replay_left" && r.metric == "ops" && r.value == ops));
    }

    #[test]
    fn recorded_run_is_clean_across_arms_rerun_and_ledgers() {
        let log = recorded_log();
        assert!(log.records.iter().any(|r| r.verb == "check_motion"));
        let mut a = InProcessBackend::with_server_defaults();
        let mut b = InProcessBackend::with_server_defaults().labeled("twin");
        let mut again = InProcessBackend::with_server_defaults().labeled("rerun");
        let ab = run_ab(Differential {
            log: &log,
            arms: vec![Arm::new(&mut a), Arm::new(&mut b), Arm::new(&mut again)],
        })
        .expect("ab");
        assert!(ab.failures().is_empty(), "{:?}", ab.failures());
        assert!(ab.recorded_totals.checks == 6);
        assert_eq!(ab.recorded_ledgers.len(), 2);
        assert_eq!(
            ab.first().ledgers.as_deref(),
            Some(&ab.recorded_ledgers[..])
        );
        assert_eq!(ab.ops(), 3 * log.records.len() as u64);
    }

    #[test]
    fn flipped_response_byte_is_a_divergence_from_the_recording() {
        let mut log = recorded_log();
        let at = log
            .records
            .iter()
            .position(|r| r.verb == "check_motion")
            .expect("a check op");
        // Flip one byte of the recorded answer: the collision bit of the
        // first result (`result <colliding> ...`).
        let resp = &mut log.records[at].response;
        let pos = resp.find("result ").expect("result line") + "result ".len();
        let flipped = if &resp[pos..=pos] == "0" { "1" } else { "0" };
        resp.replace_range(pos..=pos, flipped);
        let mut a = InProcessBackend::with_server_defaults();
        let ab = run_ab(Differential {
            log: &log,
            arms: vec![Arm::new(&mut a)],
        })
        .expect("ab");
        assert_eq!(ab.first().out.mismatches.len(), 1);
        assert_eq!(ab.first().out.mismatches[0].idx, at as u64);
        let failures = ab.failures();
        assert!(
            failures
                .iter()
                .any(|f| f.contains(&format!("diverged from the recording at op {at}"))),
            "{failures:?}"
        );
    }

    /// Answers like the in-process backend, except one op's answer is
    /// replaced.
    struct Liar {
        inner: InProcessBackend,
        calls: usize,
        lie_at: usize,
    }

    impl ReplayBackend for Liar {
        fn label(&self) -> &str {
            "liar"
        }
        fn call(&mut self, req: &Request) -> Result<Response, String> {
            let resp = self.inner.call(req)?;
            self.calls += 1;
            Ok(if self.calls - 1 == self.lie_at {
                Response::ResetDone
            } else {
                resp
            })
        }
    }

    #[test]
    fn arms_disagreeing_on_one_op_is_an_arm_divergence() {
        let log = recorded_log();
        let lie_at = log.records.len() - 2;
        let mut honest = InProcessBackend::with_server_defaults();
        let mut liar = Liar {
            inner: InProcessBackend::with_server_defaults(),
            calls: 0,
            lie_at,
        };
        // Neither arm compares against the recording: the only signal is
        // the arms disagreeing with each other.
        let no_compare = ReplayOptions {
            compare: false,
            ..ReplayOptions::default()
        };
        let ab = run_ab(Differential {
            log: &log,
            arms: vec![
                Arm {
                    backend: &mut honest,
                    opts: no_compare,
                },
                Arm {
                    backend: &mut liar,
                    opts: no_compare,
                },
            ],
        })
        .expect("ab");
        assert_eq!(ab.diverging_ops(), vec![lie_at]);
        assert!(!ab.responses_identical());
        let failures = ab.failures();
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].contains("liar answered differently from inproc on 1 ops"),
            "{failures:?}"
        );
    }
}
