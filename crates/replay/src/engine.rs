//! The replay engine: drives a [`ReplayLog`] against a
//! [`ReplayBackend`] in one of three modes, remapping recorded session
//! tokens to live ones and (optionally) holding every answer against the
//! recorded one.
//!
//! [`run_replay`] issues every op in log order on one backend;
//! [`run_parallel`] deals sessions over N backends and replays each share
//! in log order on its own thread. Both run the same per-share loop, so
//! per-session request order — the only order the predictor's state
//! depends on, since each session leases a private CHT shard — is
//! preserved no matter how the recording interleaved connections.

use crate::backend::ReplayBackend;
use crate::format::{LogRecord, ReplayLog};
use copred_obs::TraceId;
use copred_service::protocol::{CheckResult, Request, Response};
use copred_service::replay_stats;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Which clock paces a timing-faithful replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Sleep on the OS clock until each op's recorded offset.
    Wall,
    /// Advance a simulated clock instantly — faithful gaps with zero
    /// wall time, for deterministic CI.
    Virtual,
}

/// How replayed ops are paced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplayMode {
    /// As fast as possible, recorded gaps ignored.
    Sequential,
    /// Faithful to the recorded inter-op gaps.
    Timing {
        /// Wall or virtual pacing.
        clock: Clock,
    },
    /// Recorded gaps compressed (k > 1) or stretched (k < 1) by a speed
    /// factor, on the wall clock.
    Scaled {
        /// Speed factor; 2.0 replays twice as fast as recorded.
        factor: f64,
    },
}

impl ReplayMode {
    /// Wire-ish label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            ReplayMode::Sequential => "sequential",
            ReplayMode::Timing { .. } => "timing",
            ReplayMode::Scaled { .. } => "scaled",
        }
    }
}

/// Engine tunables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayOptions {
    /// Pacing mode.
    pub mode: ReplayMode,
    /// When set, every answer is normalized and compared against the
    /// recorded response; differences land in
    /// [`ReplayOutcome::mismatches`].
    pub compare: bool,
    /// When set, every replayed check carries a *fresh* causal trace id
    /// derived from this seed and the record index — whatever the
    /// recording carried is replaced, so a replay is traceable as its own
    /// run. `None` keeps the recorded tokens verbatim.
    pub trace_seed: Option<u64>,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            mode: ReplayMode::Sequential,
            compare: true,
            trace_seed: None,
        }
    }
}

/// One compared op whose live answer differed from the recording.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpDiff {
    /// Record index in the log.
    pub idx: u64,
    /// Wire verb.
    pub verb: String,
    /// Recorder session tag.
    pub tag: String,
    /// Normalized recorded response.
    pub expected: String,
    /// Normalized live response.
    pub actual: String,
}

/// Why a replay aborted. Mismatched responses are *not* errors (they are
/// the A/B signal); these are defects in the log or the transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// A recorded request or response failed to parse.
    Parse {
        /// Record index.
        idx: u64,
        /// Which payload (`request` or `response`).
        what: &'static str,
        /// Parser's reason.
        reason: String,
    },
    /// A non-open op referenced a recorded session with no live mapping
    /// (its open failed, was never logged, or came after a close).
    UnknownSession {
        /// Record index.
        idx: u64,
        /// The recorded token.
        session: u64,
    },
    /// The backend failed fatally (transport error, retry exhaustion).
    Backend {
        /// Record index.
        idx: u64,
        /// Backend's reason.
        reason: String,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Parse { idx, what, reason } => {
                write!(f, "record {idx}: unparseable {what}: {reason}")
            }
            ReplayError::UnknownSession { idx, session } => {
                write!(
                    f,
                    "record {idx}: no live session for recorded token {session}"
                )
            }
            ReplayError::Backend { idx, reason } => {
                write!(f, "record {idx}: backend failed: {reason}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// Check sums for one session or a whole run: what a replay must
/// reproduce of the recording, and what a backend's metrics must agree
/// with.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Motion checks answered.
    pub checks: u64,
    /// Checks that reported a collision.
    pub collisions: u64,
    /// CDQs executed.
    pub cdqs_issued: u64,
    /// CDQs the checked motions declared.
    pub cdqs_total: u64,
}

impl Ledger {
    /// Folds one batch of wire results in.
    pub fn add(&mut self, results: &[CheckResult]) {
        for r in results {
            self.checks += 1;
            self.collisions += u64::from(r.colliding);
            self.cdqs_issued += r.cdqs_executed;
            self.cdqs_total += r.cdqs_total;
        }
    }
}

impl std::ops::AddAssign for Ledger {
    fn add_assign(&mut self, other: Ledger) {
        self.checks += other.checks;
        self.collisions += other.collisions;
        self.cdqs_issued += other.cdqs_issued;
        self.cdqs_total += other.cdqs_total;
    }
}

/// One op as the backend answered it on a pass: what a recording keeps.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LiveOp {
    /// Start time, nanoseconds since the pass's epoch.
    pub start_ns: u64,
    /// Nanoseconds spent in the backend call (for a wire backend: request
    /// encode to parsed reply, `retry_after` rounds included).
    pub duration_ns: u64,
    /// The answer as wire text, trace echo included.
    pub response: String,
}

/// What one replay pass produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayOutcome {
    /// Ops issued.
    pub ops: u64,
    /// Client-side sums over every check result the backend answered.
    pub totals: Ledger,
    /// Normalized live response per op, in log order — two replays of the
    /// same log are deterministic exactly when these vectors are equal.
    pub responses: Vec<String>,
    /// Timing and raw answer per op, in log order.
    pub live: Vec<LiveOp>,
    /// Compared ops whose live answer differed from the recording (empty
    /// unless [`ReplayOptions::compare`]).
    pub mismatches: Vec<OpDiff>,
    /// Protocol-level errors the backend answered with (`err …`), which
    /// the recording did not have (recorded error ops compare equal
    /// instead).
    pub backend_errors: u64,
    /// Wall time of the pass.
    pub wall_ns: u64,
    /// Cumulative nanoseconds the replay ran behind the recorded
    /// schedule (timing/scaled wall modes; 0 for sequential/virtual).
    pub lag_ns: u64,
}

impl ReplayOutcome {
    /// Whether every compared answer matched the recording and no
    /// backend error surfaced.
    pub fn is_identical(&self) -> bool {
        self.mismatches.is_empty() && self.backend_errors == 0
    }

    /// Checks per second over the pass's wall time.
    pub fn checks_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.totals.checks as f64 * 1e9 / self.wall_ns as f64
    }

    /// The log as this pass answered it: every record keeps its request
    /// and takes the live answer (trace echo kept), start time, and
    /// duration. Records are sorted by start time and re-indexed, so the
    /// recording of a parallel pass keeps `start_ns` non-decreasing and
    /// each session's op order.
    pub fn recording(&self, log: &ReplayLog) -> ReplayLog {
        let mut records: Vec<LogRecord> = log
            .records
            .iter()
            .zip(&self.live)
            .map(|(rec, op)| LogRecord {
                start_ns: op.start_ns,
                duration_ns: op.duration_ns,
                status: if op.response.starts_with("err") {
                    "err"
                } else {
                    "ok"
                }
                .to_string(),
                response: op.response.clone(),
                ..rec.clone()
            })
            .collect();
        records.sort_by_key(|r| (r.start_ns, r.idx));
        for (i, r) in records.iter_mut().enumerate() {
            r.idx = i as u64;
        }
        ReplayLog {
            meta: log.meta.clone(),
            records,
            complete: true,
        }
    }
}

/// Removes every ` trace <hex128>` token from a wire string, leaving all
/// other bytes untouched. Non-token occurrences of the word stay as-is.
pub fn strip_trace_token(s: &str) -> String {
    const NEEDLE: &str = " trace ";
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(pos) = rest.find(NEEDLE) {
        let (head, tail) = rest.split_at(pos);
        out.push_str(head);
        let after = &tail[NEEDLE.len()..];
        let hex_len = after.bytes().take_while(|b| b.is_ascii_hexdigit()).count();
        let boundary = after[hex_len..].is_empty()
            || after[hex_len..].starts_with('\n')
            || after[hex_len..].starts_with(' ');
        if hex_len == 32 && boundary {
            rest = &after[hex_len..];
        } else {
            out.push_str(NEEDLE);
            rest = after;
        }
    }
    out.push_str(rest);
    out
}

/// Normalizes a response payload for comparison: session tokens are
/// server-assigned, so `ok session <id> …` masks the id (`warm` is kept —
/// a replay warm-starting differently from the recording is a real
/// difference), and the `trace` echo on results is stripped (the replay
/// deliberately attaches fresh ids, so echoes differ run to run without
/// the payload differing). Everything else compares byte-for-byte.
pub fn normalize_response(text: &str) -> String {
    match Response::from_text(text) {
        Ok(Response::Session { id: _, warm }) => {
            format!("ok session _ warm {}\n", u8::from(warm))
        }
        Ok(Response::Results {
            results,
            trace: Some(_),
        }) => Response::Results {
            results,
            trace: None,
        }
        .to_text(),
        _ => text.to_string(),
    }
}

fn rewrite_session(req: &mut Request, live: u64) {
    match req {
        Request::Open { .. }
        | Request::Dump
        | Request::SnapGet { .. }
        | Request::SnapOffer { .. }
        | Request::SnapPush { .. } => {}
        Request::CheckMotion { session, .. }
        | Request::CheckPose { session, .. }
        | Request::ResetCht { session }
        | Request::Close { session }
        | Request::SnapSession { session } => *session = live,
        Request::Stats { session } => {
            if session.is_some() {
                *session = Some(live);
            }
        }
    }
}

/// Replaces the request's trace token (if the verb carries one) with a
/// fresh id derived from the replay's trace seed and the record index.
fn rewrite_trace(req: &mut Request, seed: u64, idx: u64) {
    if let Request::CheckMotion { trace, .. } | Request::CheckPose { trace, .. } = req {
        *trace = Some(TraceId::derive(seed, idx));
    }
}

/// Replays `log` against `backend` per `opts`.
///
/// Side effects on the process-wide replay counters
/// ([`copred_service::replay_stats`]): `replays_run` once per pass,
/// `backend_errors` per error answer, and `timing_lag_ns` by the pass's
/// cumulative lag.
///
/// # Errors
///
/// See [`ReplayError`]. Response mismatches are not errors — they come
/// back in [`ReplayOutcome::mismatches`].
pub fn run_replay(
    log: &ReplayLog,
    backend: &mut dyn ReplayBackend,
    opts: &ReplayOptions,
) -> Result<ReplayOutcome, ReplayError> {
    // The whole pass is replay work on this thread; backend stages
    // (schedule/execute/predict) nest under this frame in profiles.
    let _replay_stage = copred_obs::stage(copred_obs::Stage::Replay);
    let epoch = Instant::now();
    let all: Vec<usize> = (0..log.records.len()).collect();
    let out = replay_share(log, &all, backend, opts, epoch)?;
    Ok(finish(out, epoch))
}

/// Replays `log` over `backends` at once: the session opened `k`-th (and
/// every later op on its key) goes to backend `k mod N`, and each backend
/// replays its share in log order on a scoped thread, paced against one
/// shared epoch. The shares merge into one outcome whose per-op vectors
/// are in log order; the pass counts once in the replay counters, as
/// [`run_replay`] does. Share threads publish no profile stage: they are
/// client connections, so the stage profile of a process that also hosts
/// the server stays the server's own.
///
/// # Errors
///
/// The first [`ReplayError`] in backend order; the other shares still
/// run to their end.
///
/// # Panics
///
/// Panics when `backends` is empty.
pub fn run_parallel<B: ReplayBackend + Send>(
    log: &ReplayLog,
    backends: &mut [B],
    opts: &ReplayOptions,
) -> Result<ReplayOutcome, ReplayError> {
    assert!(
        !backends.is_empty(),
        "a parallel replay needs at least one backend"
    );
    let shares = deal(log, backends.len());
    let epoch = Instant::now();
    let passes: Vec<Result<ReplayOutcome, ReplayError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = backends
            .iter_mut()
            .zip(&shares)
            .map(|(backend, share)| {
                scope.spawn(move || replay_share(log, share, backend, opts, epoch))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay share panicked"))
            .collect()
    });
    let n = log.records.len();
    let mut out = ReplayOutcome {
        responses: vec![String::new(); n],
        live: vec![LiveOp::default(); n],
        ..ReplayOutcome::default()
    };
    for (share, pass) in shares.iter().zip(passes) {
        let pass = pass?;
        out.ops += pass.ops;
        out.totals += pass.totals;
        out.backend_errors += pass.backend_errors;
        out.lag_ns += pass.lag_ns;
        out.mismatches.extend(pass.mismatches);
        for ((&i, response), live) in share.iter().zip(pass.responses).zip(pass.live) {
            out.responses[i] = response;
            out.live[i] = live;
        }
    }
    out.mismatches.sort_by_key(|d| d.idx);
    Ok(finish(out, epoch))
}

/// Deals the log's record indices into `n` shares, each in log order:
/// every op goes to the share of its session key's latest `open`, the
/// `k`-th open to share `k mod n`. Ops whose key no open has named yet
/// (global verbs, or a defect the replay reports) go to share 0.
fn deal(log: &ReplayLog, n: usize) -> Vec<Vec<usize>> {
    let mut shares = vec![Vec::new(); n];
    let mut owner: HashMap<u64, usize> = HashMap::new();
    let mut opened = 0;
    for (i, rec) in log.records.iter().enumerate() {
        let share = if rec.verb == "open" {
            let share = opened % n;
            opened += 1;
            owner.insert(rec.session, share);
            share
        } else {
            owner.get(&rec.session).copied().unwrap_or(0)
        };
        shares[share].push(i);
    }
    shares
}

/// Stamps the pass's wall time and publishes it to the replay counters.
fn finish(mut out: ReplayOutcome, epoch: Instant) -> ReplayOutcome {
    out.wall_ns = epoch.elapsed().as_nanos() as u64;
    let stats = replay_stats();
    stats.replays_run.fetch_add(1, Ordering::Relaxed);
    stats
        .backend_errors
        .fetch_add(out.backend_errors, Ordering::Relaxed);
    stats.timing_lag_ns.fetch_add(out.lag_ns, Ordering::Relaxed);
    out
}

/// The one per-op loop: replays the records at `share` (indices into
/// `log.records`, in log order) against `backend`, paced on the clock
/// that started at `epoch`. The outcome's per-op vectors follow `share`.
fn replay_share(
    log: &ReplayLog,
    share: &[usize],
    backend: &mut dyn ReplayBackend,
    opts: &ReplayOptions,
    epoch: Instant,
) -> Result<ReplayOutcome, ReplayError> {
    let first_ns = log.records.first().map_or(0, |r| r.start_ns);
    let mut sessions: HashMap<u64, u64> = HashMap::new();
    let mut out = ReplayOutcome::default();

    for rec in share.iter().map(|&i| &log.records[i]) {
        // Pacing first: the recorded offset is the op's issue time.
        let scheduled_ns = match opts.mode {
            ReplayMode::Sequential => None,
            ReplayMode::Timing { clock: Clock::Wall } => {
                Some(rec.start_ns.saturating_sub(first_ns))
            }
            ReplayMode::Timing {
                clock: Clock::Virtual,
            } => None, // virtual time advances instantly, lag is 0
            ReplayMode::Scaled { factor } => {
                assert!(
                    factor.is_finite() && factor > 0.0,
                    "scaled mode needs a positive finite factor"
                );
                Some((rec.start_ns.saturating_sub(first_ns) as f64 / factor) as u64)
            }
        };
        if let Some(target_ns) = scheduled_ns {
            let now_ns = epoch.elapsed().as_nanos() as u64;
            if target_ns > now_ns {
                std::thread::sleep(Duration::from_nanos(target_ns - now_ns));
            } else {
                out.lag_ns += now_ns - target_ns;
            }
        }

        let mut req = Request::from_text(&rec.request).map_err(|reason| ReplayError::Parse {
            idx: rec.idx,
            what: "request",
            reason,
        })?;
        if !matches!(
            req,
            Request::Open { .. }
                | Request::Stats { session: None }
                | Request::Dump
                | Request::SnapGet { .. }
                | Request::SnapOffer { .. }
                | Request::SnapPush { .. }
        ) {
            let live = *sessions
                .get(&rec.session)
                .ok_or(ReplayError::UnknownSession {
                    idx: rec.idx,
                    session: rec.session,
                })?;
            rewrite_session(&mut req, live);
        }
        if let Some(seed) = opts.trace_seed {
            rewrite_trace(&mut req, seed, rec.idx);
        }

        let issued = Instant::now();
        let resp = backend.call(&req).map_err(|reason| ReplayError::Backend {
            idx: rec.idx,
            reason,
        })?;
        let duration_ns = issued.elapsed().as_nanos() as u64;
        out.ops += 1;

        match &resp {
            Response::Session { id, warm: _ } => {
                sessions.insert(rec.session, *id);
            }
            Response::Results { results, .. } => out.totals.add(results),
            Response::Closed => {
                sessions.remove(&rec.session);
            }
            Response::Error(_) => {
                out.backend_errors += 1;
            }
            Response::ResetDone
            | Response::Stats(_)
            | Response::DumpDone { .. }
            | Response::Snap { .. }
            | Response::SnapNone { .. }
            | Response::SnapWant { .. }
            | Response::SnapApplied { .. } => {}
        }

        let response = resp.to_text();
        let actual = normalize_response(&response);
        if opts.compare && rec.verb != "stats" {
            // Stats values (latency quantiles) are non-deterministic by
            // construction; everything else must answer bit-identically.
            let expected = normalize_response(&rec.response);
            if expected != actual {
                out.mismatches.push(OpDiff {
                    idx: rec.idx,
                    verb: rec.verb.clone(),
                    tag: rec.tag.clone(),
                    expected,
                    actual: actual.clone(),
                });
            }
        }
        out.responses.push(actual);
        out.live.push(LiveOp {
            start_ns: issued.duration_since(epoch).as_nanos() as u64,
            duration_ns,
            response,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::LogMeta;

    /// A backend that answers every request successfully and records the
    /// order it saw ops in.
    struct MockBackend {
        seen: Vec<(String, u64)>,
        next_id: u64,
    }

    impl MockBackend {
        fn new() -> Self {
            MockBackend {
                seen: Vec::new(),
                next_id: 100,
            }
        }
    }

    impl ReplayBackend for MockBackend {
        fn label(&self) -> &str {
            "mock"
        }
        fn call(&mut self, req: &Request) -> Result<Response, String> {
            Ok(match req {
                Request::Open { seed, .. } => {
                    self.seen.push(("open".to_string(), *seed));
                    self.next_id += 1;
                    Response::Session {
                        id: self.next_id,
                        warm: false,
                    }
                }
                Request::Close { session } => {
                    self.seen.push(("close".to_string(), *session));
                    Response::Closed
                }
                Request::ResetCht { session } => {
                    self.seen.push(("reset".to_string(), *session));
                    Response::ResetDone
                }
                other => return Err(format!("mock cannot answer {other:?}")),
            })
        }
    }

    fn mini_log() -> ReplayLog {
        // Two interleaved sessions: open A, open B, reset A, close A,
        // close B — with recorded tokens distinct from mock-assigned ones.
        let ops = [
            (
                0u64,
                7u64,
                "open",
                "open planar-2d 1 coord 11\n",
                "ok session 7 warm 0\n",
            ),
            (
                1,
                9,
                "open",
                "open planar-2d 1 coord 12\n",
                "ok session 9 warm 0\n",
            ),
            (2, 7, "reset", "reset 7\n", "ok reset\n"),
            (3, 7, "close", "close 7\n", "ok closed\n"),
            (4, 9, "close", "close 9\n", "ok closed\n"),
        ];
        ReplayLog {
            meta: LogMeta::default(),
            records: ops
                .iter()
                .map(|&(idx, session, verb, req, resp)| LogRecord {
                    idx,
                    session,
                    start_ns: idx * 50_000,
                    duration_ns: 0,
                    verb: verb.to_string(),
                    status: "ok".to_string(),
                    tag: format!("conn0/trace{session}"),
                    request: req.to_string(),
                    response: resp.to_string(),
                })
                .collect(),
            complete: true,
        }
    }

    #[test]
    fn sessions_are_remapped_and_open_responses_normalized() {
        let log = mini_log();
        let mut backend = MockBackend::new();
        let out = run_replay(&log, &mut backend, &ReplayOptions::default()).expect("replay");
        assert!(out.is_identical(), "mismatches: {:?}", out.mismatches);
        // The mock assigned 101 and 102; the recorded tokens 7 and 9 were
        // rewritten on every subsequent op.
        assert_eq!(
            backend.seen,
            vec![
                ("open".to_string(), 11),
                ("open".to_string(), 12),
                ("reset".to_string(), 101),
                ("close".to_string(), 101),
                ("close".to_string(), 102),
            ]
        );
        assert_eq!(out.responses[0], "ok session _ warm 0\n");
    }

    #[test]
    fn scaled_mode_preserves_op_order_at_every_factor() {
        for factor in [0.5f64, 1.0, 3.0, 64.0, 1e9] {
            let log = mini_log();
            let mut backend = MockBackend::new();
            let opts = ReplayOptions {
                mode: ReplayMode::Scaled { factor },
                compare: true,
                trace_seed: None,
            };
            let out = run_replay(&log, &mut backend, &opts).expect("replay");
            assert!(out.is_identical(), "factor {factor}");
            let verbs: Vec<&str> = backend.seen.iter().map(|(v, _)| v.as_str()).collect();
            assert_eq!(
                verbs,
                vec!["open", "open", "reset", "close", "close"],
                "factor {factor} reordered ops"
            );
        }
    }

    #[test]
    fn timing_virtual_mode_is_instant_and_lag_free() {
        let mut log = mini_log();
        // Recorded gaps of a minute each: wall replay would take minutes.
        for (i, r) in log.records.iter_mut().enumerate() {
            r.start_ns = i as u64 * 60_000_000_000;
        }
        let mut backend = MockBackend::new();
        let opts = ReplayOptions {
            mode: ReplayMode::Timing {
                clock: Clock::Virtual,
            },
            compare: true,
            trace_seed: None,
        };
        let out = run_replay(&log, &mut backend, &opts).expect("replay");
        assert!(out.is_identical());
        assert_eq!(out.lag_ns, 0);
        assert!(
            out.wall_ns < 5_000_000_000,
            "virtual clock must not sleep recorded gaps"
        );
    }

    #[test]
    fn unknown_session_and_unparseable_request_are_errors() {
        let mut log = mini_log();
        // Drop session 7's open: its reset now targets an unmapped token.
        log.records.remove(0);
        let err = run_replay(&log, &mut MockBackend::new(), &ReplayOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            ReplayError::UnknownSession { session: 7, .. }
        ));

        let mut log = mini_log();
        log.records[0].request = "warp 9\n".to_string();
        let err = run_replay(&log, &mut MockBackend::new(), &ReplayOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            ReplayError::Parse {
                what: "request",
                ..
            }
        ));
    }

    #[test]
    fn strip_removes_only_well_formed_tokens() {
        let tok = "0123456789abcdef0123456789abcdef";
        assert_eq!(
            strip_trace_token(&format!("check_motion 7 2 trace {tok}\n")),
            "check_motion 7 2\n"
        );
        assert_eq!(
            strip_trace_token(&format!("ok results 2 trace {tok}\n")),
            "ok results 2\n"
        );
        // Too short, too long, or non-hex: untouched.
        assert_eq!(strip_trace_token("a trace 0123\n"), "a trace 0123\n");
        let long = format!("a trace {tok}0\n");
        assert_eq!(strip_trace_token(&long), long);
        assert_eq!(strip_trace_token("a trace zzzz\n"), "a trace zzzz\n");
        // Multiple tokens in one string.
        assert_eq!(
            strip_trace_token(&format!("x trace {tok} y trace {tok}\n")),
            "x y\n"
        );
        // No token at all: identity.
        assert_eq!(
            strip_trace_token("open baxter 7 coord 3\n"),
            "open baxter 7 coord 3\n"
        );
    }

    #[test]
    fn parallel_shares_follow_open_order_and_merge_in_log_order() {
        let log = mini_log();
        let mut backends = [MockBackend::new(), MockBackend::new()];
        let out = run_parallel(&log, &mut backends, &ReplayOptions::default()).expect("replay");
        assert!(out.is_identical(), "mismatches: {:?}", out.mismatches);
        // Session 7 opened first and went to backend 0, session 9 to
        // backend 1; each backend saw its sessions' ops in log order.
        assert_eq!(
            backends[0].seen,
            vec![
                ("open".to_string(), 11),
                ("reset".to_string(), 101),
                ("close".to_string(), 101),
            ]
        );
        assert_eq!(
            backends[1].seen,
            vec![("open".to_string(), 12), ("close".to_string(), 101)]
        );
        let sequential =
            run_replay(&log, &mut MockBackend::new(), &ReplayOptions::default()).expect("replay");
        assert_eq!(out.ops, sequential.ops);
        assert_eq!(out.responses, sequential.responses);
        assert_eq!(out.live.len(), log.records.len());
    }

    #[test]
    fn recording_takes_live_answers_and_keeps_requests() {
        let log = mini_log();
        let out =
            run_replay(&log, &mut MockBackend::new(), &ReplayOptions::default()).expect("replay");
        let rec = out.recording(&log);
        assert_eq!(rec.records.len(), log.records.len());
        for (i, (r, orig)) in rec.records.iter().zip(&log.records).enumerate() {
            assert_eq!(r.idx, i as u64);
            assert_eq!(r.request, orig.request);
            assert_eq!(r.session, orig.session);
            assert_eq!(r.status, "ok");
        }
        // The raw answer, live token and all — not the normalized form.
        assert_eq!(rec.records[0].response, "ok session 101 warm 0\n");
        assert!(rec
            .records
            .windows(2)
            .all(|w| w[0].start_ns <= w[1].start_ns));
    }

    #[test]
    fn mismatch_is_collected_not_fatal() {
        let mut log = mini_log();
        log.records[2].response = "ok closed\n".to_string(); // recorded lie
        let out =
            run_replay(&log, &mut MockBackend::new(), &ReplayOptions::default()).expect("replay");
        assert_eq!(out.mismatches.len(), 1);
        assert_eq!(out.mismatches[0].idx, 2);
        assert_eq!(out.mismatches[0].expected, "ok closed\n");
        assert_eq!(out.mismatches[0].actual, "ok reset\n");
    }
}
