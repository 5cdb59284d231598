//! In-process replay of an op stream through `SessionRegistry` and
//! `execute_batch`, configured like a default `copred_server`.
//!
//! It is both the correctness reference for the live responses and the
//! source of the server-side layer times: request decode, execute,
//! response encode, and — on a second registry that replays the same
//! stream as a copy of every session — the execute split into
//! `to_cdq_infos`, `ChtPredictor::prime`, and `run_predicted_schedule`.

use crate::inputs::Query;
use crate::wire::{request, Op, Sample, Step};
use copred_collision::{run_predicted_schedule, Schedule};
use copred_core::ChtParams;
use copred_service::protocol::{CheckResult, Request, Response};
use copred_service::session::ChtPredictor;
use copred_service::{execute_batch, SessionRegistry};
use copred_store::StoreRegistry;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// `copred_server`'s defaults.
const MAX_SESSIONS: usize = 64;
const CSP_STEP: usize = Schedule::DEFAULT_CSP_STEP;

/// The in-process answer to one step, with its server-side times (zero
/// unless the replay was timed).
#[derive(Debug)]
pub struct Expected {
    pub resp: Response,
    pub decode_ns: u64,
    pub execute_ns: u64,
    pub encode_ns: u64,
}

/// Totals of the execute split over every replayed check.
#[derive(Debug, Default, Clone, Copy)]
pub struct SplitTotals {
    pub motions: u64,
    pub to_infos_ns: u64,
    pub prime_ns: u64,
    pub schedule_ns: u64,
    pub obstacle_tests: u64,
    pub true_pos: u64,
    pub false_pos: u64,
    pub false_neg: u64,
}

/// Two registries replaying the same op stream: `a` through
/// `execute_batch`, `b` (when splitting) through its parts.
pub struct Shadow {
    a: SessionRegistry,
    b: Option<SessionRegistry>,
    session_a: u64,
    session_b: u64,
    pub split: SplitTotals,
    /// CPRDSNAP bytes persisted by store-backed closes.
    pub snapshot_bytes: u64,
    pub store_closes: u64,
}

fn registry(store: Option<&Path>) -> std::io::Result<SessionRegistry> {
    let store = match store {
        Some(dir) => Some(Arc::new(StoreRegistry::open(dir)?)),
        None => None,
    };
    Ok(SessionRegistry::new_with_store(
        ChtParams::paper_arm(),
        MAX_SESSIONS,
        store,
    ))
}

fn ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Shadow {
    /// A shadow with a store under `store_root` (or none), and a second
    /// registry for the execute split when `split` is set.
    pub fn new(store_root: Option<&Path>, split: bool) -> std::io::Result<Shadow> {
        Ok(Shadow {
            a: registry(store_root.map(|r| r.join("a")).as_deref())?,
            b: if split {
                Some(registry(store_root.map(|r| r.join("b")).as_deref())?)
            } else {
                None
            },
            session_a: 0,
            session_b: 0,
            split: SplitTotals::default(),
            snapshot_bytes: 0,
            store_closes: 0,
        })
    }

    /// WAL bytes the shadow's store appended.
    pub fn wal_bytes(&self) -> u64 {
        self.a.store_stats().wal_bytes.load(Ordering::Relaxed)
    }

    /// Replays `steps` in order; `timed` measures the server-side layers.
    pub fn replay<'s>(
        &mut self,
        queries: &[Query],
        batch: usize,
        steps: impl IntoIterator<Item = &'s Step>,
        timed: bool,
    ) -> Result<Vec<Expected>, String> {
        steps
            .into_iter()
            .map(|&step| self.step(queries, batch, step, timed))
            .collect()
    }

    fn step(
        &mut self,
        queries: &[Query],
        batch: usize,
        step: Step,
        timed: bool,
    ) -> Result<Expected, String> {
        let req = request(queries, batch, step, self.session_a);
        let mut out = Expected {
            resp: Response::Closed,
            decode_ns: 0,
            execute_ns: 0,
            encode_ns: 0,
        };
        if timed {
            let text = req.to_text();
            let t = Instant::now();
            let decoded = Request::from_text(&text)?;
            out.decode_ns = ns(t);
            if decoded != req {
                return Err(format!("request round trip changed {step:?}"));
            }
        }
        let t = Instant::now();
        out.resp = match &req {
            Request::Open {
                robot,
                mode,
                seed,
                fp,
                ..
            } => {
                let opened = self.a.open_full(robot, *mode, *seed, *fp);
                if let Some(b) = &self.b {
                    self.session_b = b
                        .open_full(robot, *mode, *seed, *fp)
                        .map_or(0, |o| o.session.id);
                }
                match opened {
                    Ok(o) => {
                        self.session_a = o.session.id;
                        Response::Session {
                            id: o.session.id,
                            warm: o.warm,
                        }
                    }
                    Err(e) => {
                        self.session_a = 0;
                        Response::Error(e)
                    }
                }
            }
            Request::CheckMotion {
                session, motions, ..
            } => match self.a.get(*session) {
                Ok(s) => {
                    let results = execute_batch(&s, motions, CSP_STEP);
                    out.execute_ns = ns(t);
                    if self.b.is_some() {
                        self.check_split(motions, &results)?;
                    }
                    Response::Results {
                        results,
                        trace: None,
                    }
                }
                Err(e) => Response::Error(e),
            },
            Request::Close { session } => {
                if let Ok(s) = self.a.get(*session) {
                    if s.store_fp().is_some() {
                        self.snapshot_bytes +=
                            copred_store::snapshot::encode(&s.table_image()).len() as u64;
                        self.store_closes += 1;
                    }
                }
                if let Some(b) = &self.b {
                    if let Ok(s) = b.get(self.session_b) {
                        let m = &s.metrics;
                        self.split.true_pos += m.true_pos.load(Ordering::Relaxed);
                        self.split.false_pos += m.false_pos.load(Ordering::Relaxed);
                        self.split.false_neg += m.false_neg.load(Ordering::Relaxed);
                    }
                    let _ = b.close(self.session_b);
                }
                match self.a.close(*session) {
                    Ok(()) => Response::Closed,
                    Err(e) => Response::Error(e),
                }
            }
            other => return Err(format!("unexpected request in op stream: {other:?}")),
        };
        if timed {
            let t = Instant::now();
            let _ = out.resp.to_text();
            out.encode_ns = ns(t);
        }
        Ok(out)
    }

    /// Runs the batch again on the copy of the session, one public
    /// function at a time, and checks it reproduces `execute_batch`.
    fn check_split(
        &mut self,
        motions: &[copred_trace::MotionTrace],
        want: &[CheckResult],
    ) -> Result<(), String> {
        let b = self.b.as_ref().expect("split registry");
        let s = b
            .get(self.session_b)
            .map_err(|e| format!("split session: {e}"))?;
        for (m, want) in motions.iter().zip(want) {
            let t0 = Instant::now();
            let infos = m.to_cdq_infos();
            let t1 = Instant::now();
            let mut pred = ChtPredictor::new(&s, &m.poses);
            pred.prime(&infos);
            let t2 = Instant::now();
            let out = run_predicted_schedule(&infos, m.poses.len(), CSP_STEP, &mut pred);
            let t3 = Instant::now();
            let sp = &mut self.split;
            sp.motions += 1;
            sp.to_infos_ns += u64::try_from((t1 - t0).as_nanos()).unwrap_or(0);
            sp.prime_ns += u64::try_from((t2 - t1).as_nanos()).unwrap_or(0);
            sp.schedule_ns += u64::try_from((t3 - t2).as_nanos()).unwrap_or(0);
            sp.obstacle_tests += out.obstacle_tests as u64;
            if out.colliding != want.colliding || out.cdqs_executed as u64 != want.cdqs_executed {
                return Err("execute split diverged from execute_batch".to_string());
            }
        }
        Ok(())
    }
}

/// Checks each live sample against the trace's ground truth and, when
/// given, its in-process answer: sample `i` against
/// `expected[(i + offset) % expected.len()]` (a cyclic stream of cold
/// sessions repeats its answers). Returns how many samples failed (error
/// replies, transport errors); mismatches go to `errors`.
pub fn verify(
    queries: &[Query],
    batch: usize,
    live: &[Sample],
    expected: Option<&[Expected]>,
    offset: usize,
    errors: &mut Vec<String>,
) -> u64 {
    let mut failed = 0;
    for (i, s) in live.iter().enumerate() {
        let mut mismatch = |what: String| errors.push(format!("op {i} {:?}: {what}", s.step));
        let got = match &s.resp {
            Ok(Response::Error(_)) | Err(_) => {
                failed += 1;
                continue;
            }
            Ok(r) => r,
        };
        let want = expected.map(|e| &e[(i + offset) % e.len()].resp);
        match (got, want) {
            (Response::Session { .. } | Response::Closed, None) => {}
            (Response::Session { warm: a, .. }, Some(Response::Session { warm: b, .. }))
                if a == b => {}
            (Response::Closed, Some(Response::Closed)) => {}
            (
                Response::Results {
                    results,
                    trace: None,
                },
                want,
            ) => {
                let Op::Check(b) = s.step.op else {
                    mismatch("results for a non-check op".into());
                    continue;
                };
                let motions = queries[s.step.query].batch(b, batch);
                match want {
                    None => {}
                    Some(Response::Results { results: want, .. }) if results == want => {}
                    Some(w) => mismatch(format!("live {results:?} != in-process {w:?}")),
                }
                if results.len() != motions.len() {
                    mismatch(format!(
                        "{} results for {} motions",
                        results.len(),
                        motions.len()
                    ));
                }
                for (r, m) in results.iter().zip(motions) {
                    if r.colliding != m.colliding() {
                        mismatch(format!(
                            "verdict {} but trace says {}",
                            r.colliding,
                            m.colliding()
                        ));
                    }
                    if r.cdqs_executed > r.cdqs_total || r.cdqs_total != m.cdq_count() as u64 {
                        mismatch(format!(
                            "cdqs executed {} total {} for a {}-CDQ motion",
                            r.cdqs_executed,
                            r.cdqs_total,
                            m.cdq_count()
                        ));
                    }
                }
            }
            (g, w) => mismatch(format!("live {g:?} != in-process {w:?}")),
        }
    }
    failed
}
