//! Session registry: each open planning query leases one private
//! [`ConcurrentCht`] from a fixed set of slots, so concurrent clients never
//! alias each other's collision history (the paper resets the CHT per
//! planning query; a leased table is exactly that lifetime).
//!
//! The registry enforces a capacity cap with LRU eviction: opening a
//! session when the table is full evicts the least-recently-used *idle*
//! session (no in-flight jobs). If every session is busy the open is
//! rejected as [`ServiceError::Busy`] rather than blocking the accept
//! path.

use crate::metrics::SessionMetrics;
use crate::protocol::{CheckResult, SchedMode, ServiceError};
use copred_collision::{run_predicted_schedule, run_schedule, CdqInfo, CdqPredictor, Schedule};
use copred_core::{ChtParams, CollisionHash, CoordHash, HashInput};
use copred_kinematics::{presets, Config, Robot};
use copred_obs::{stage, Stage};
use copred_store::{SessionStore, StoreRegistry, StoreStats, TableImage};
use copred_swexec::ConcurrentCht;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Looks up a robot preset by wire name.
pub fn robot_by_name(name: &str) -> Option<Robot> {
    match name {
        "planar-2d" => Some(presets::planar_2d().into()),
        "planar-arm-2dof" => Some(presets::planar_arm_2dof().into()),
        "baxter" => Some(presets::baxter_arm().into()),
        "jaco2" => Some(presets::jaco2().into()),
        "kuka-iiwa" => Some(presets::kuka_iiwa().into()),
        _ => None,
    }
}

/// One open planning session.
#[derive(Debug)]
pub struct SessionState {
    /// Session token handed to the client.
    pub id: u64,
    /// Scheduling mode for every check in the session.
    pub mode: SchedMode,
    /// The leased CHT shard (private to this session until close/evict).
    pub shard: Arc<ConcurrentCht>,
    /// Which pool slot the shard came from (returned on release).
    shard_slot: usize,
    /// COORD hash over the session robot's workspace.
    pub hasher: CoordHash,
    /// Per-session counters.
    pub metrics: SessionMetrics,
    /// Jobs currently queued or executing for this session.
    pub pending: AtomicUsize,
    /// xorshift64 state driving the CHT's `U`-policy draws; seeded by the
    /// client so replays are deterministic.
    u_state: Mutex<u64>,
    /// LRU timestamp (registry logical clock).
    last_used: AtomicU64,
    /// Store handle when the session opened with an environment
    /// fingerprint against a store-enabled registry. `None` otherwise.
    store: Option<SessionStore>,
}

impl SessionState {
    /// Advances the session's `U`-policy stream by one draw in `[0, 1)`.
    pub fn next_u_draw(&self) -> f64 {
        let mut s = self.u_state.lock().unwrap_or_else(PoisonError::into_inner);
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        (*s >> 11) as f64 / (1u64 << 53) as f64
    }

    fn u_state_snapshot(&self) -> u64 {
        *self.u_state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A plain-memory image of the session's table *and* its `U`-draw RNG
    /// word: restoring both is what makes a warm-started session continue
    /// the exact predict/observe stream the persisted session would have.
    pub fn table_image(&self) -> TableImage {
        TableImage {
            params: *self.shard.params(),
            u_state: self.u_state_snapshot(),
            cells: self.shard.export_cells(),
        }
    }

    /// The environment fingerprint the session persists under, when it
    /// opened with one against a store-enabled registry.
    pub fn store_fp(&self) -> Option<u64> {
        self.store.as_ref().map(SessionStore::fp)
    }

    /// Persists the session's table through its store handle (no-op
    /// without one, or on a detached same-fingerprint handle). Returns
    /// whether a snapshot was written. Persistence is best-effort: an I/O
    /// failure degrades to losing the warm state, never a panic.
    pub fn persist_to_store(&self) -> bool {
        match &self.store {
            Some(store) => store.persist(&self.table_image()).unwrap_or(false),
            None => false,
        }
    }
}

/// [`CdqPredictor`] adapter binding a session's shard, hasher, and the
/// poses of the motion being checked.
///
/// Its bookkeeping is dense: [`Self::prime`] hashes every CDQ into an
/// array indexed by the CDQ's position in the schedule's slice (the index
/// each [`CdqPredictor`] call carries) and sizes the prediction stash the
/// same way. Nothing is sized from a CDQ's `link_idx`, which reaches the
/// server unchecked from the client, and the arrays are reused from one
/// motion of a batch to the next.
///
/// Prediction quality (the confusion counters) is classified at *observe*
/// time, not predict time: under early exit a schedule consults the
/// predictor for every CDQ but executes only some of them, so counting at
/// predict would record more outcomes than `cdqs_issued` and break the
/// ledger invariant `tp + fp + tn + fn == cdqs_issued`. Predictions are
/// therefore stashed per CDQ here and consumed when (if) the CDQ runs.
pub struct ChtPredictor<'a> {
    session: &'a SessionState,
    poses: &'a [Config],
    /// `false` disables lookups entirely (naive/CSP sessions), leaving the
    /// scheduler to degrade to plain CSP order.
    enabled: bool,
    /// Latest prediction per CDQ position, consumed at observe.
    predictions: Vec<bool>,
    /// COORD code per CDQ position, computed by [`Self::prime`] (coord
    /// sessions only); `code` falls back to the scalar hash for a position
    /// past its end.
    codes: Vec<u64>,
    /// The batched hash's input, kept to reuse its allocation.
    centers: Vec<copred_geometry::Vec3>,
}

impl<'a> ChtPredictor<'a> {
    /// Binds a predictor for one motion check.
    pub fn new(session: &'a SessionState, poses: &'a [Config]) -> Self {
        ChtPredictor {
            session,
            poses,
            enabled: session.mode == SchedMode::Coord,
            predictions: Vec::new(),
            codes: Vec::new(),
            centers: Vec::new(),
        }
    }

    /// Precomputes the COORD code of every CDQ in `infos` with the batched
    /// hash, so the per-CDQ predict/observe calls skip scalar re-encoding
    /// (observe would otherwise encode the same center a second time), and
    /// clears the prediction stash for `infos.len()` CDQs.
    ///
    /// Bit-exact by construction: a COORD code depends only on the CDQ
    /// center and the session hasher — never on table state — so computing
    /// it up front cannot change any code, prediction, or ledger entry.
    pub fn prime(&mut self, infos: &[CdqInfo]) {
        self.predictions.clear();
        self.predictions.resize(infos.len(), false);
        if self.enabled {
            self.centers.clear();
            self.centers.extend(infos.iter().map(|c| c.center));
            self.codes.resize(infos.len(), 0);
            self.session
                .hasher
                .code_batch(&self.centers, &mut self.codes);
        }
    }

    fn code(&self, idx: usize, cdq: &CdqInfo) -> u64 {
        if let Some(&code) = self.codes.get(idx) {
            return code;
        }
        let input = HashInput {
            config: &self.poses[cdq.pose_idx],
            center: cdq.center,
        };
        self.session.hasher.code(&input)
    }
}

impl CdqPredictor for ChtPredictor<'_> {
    fn predict(&mut self, idx: usize, cdq: &CdqInfo) -> bool {
        if !self.enabled {
            return false;
        }
        let predicted = self.session.shard.predict(self.code(idx, cdq));
        // Unprimed, the stash grows to the caller's slice, never further.
        let len = self.predictions.len().max(idx + 1);
        self.predictions.resize(len, false);
        self.predictions[idx] = predicted;
        predicted
    }

    fn observe(&mut self, idx: usize, cdq: &CdqInfo, colliding: bool) {
        if !self.enabled {
            return;
        }
        // One confusion-counter bump per executed CDQ, keyed on the
        // prediction stashed for it. A CDQ observed without a prior
        // predict call counts as a negative prediction (the scheduler's
        // default when it never consulted us).
        let predicted = self.predictions.get_mut(idx).is_some_and(std::mem::take);
        let m = &self.session.metrics;
        let counter = match (predicted, colliding) {
            (true, true) => &m.true_pos,
            (true, false) => &m.false_pos,
            (false, false) => &m.true_neg,
            (false, true) => &m.false_neg,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        let u = self.session.next_u_draw();
        let code = self.code(idx, cdq);
        let applied = self.session.shard.observe(code, colliding, u);
        // WAL-log only *applied* writes (the U gate already ran), so replay
        // is RNG-free and bit-exact. The compaction closure exports the
        // live shard under the WAL lock. Best-effort: a full disk loses
        // durability, not correctness.
        if applied {
            if let Some(store) = &self.session.store {
                let _ = store.log_observe(code, colliding, || self.session.table_image());
            }
        }
    }
}

/// [`CdqPredictor`] decorator that forwards to an inner predictor while
/// estimating wall time spent in `predict` and `observe` calls.
///
/// The server wraps [`ChtPredictor`] in this only when the observability
/// recorder is enabled, then emits the estimated time as a `predict`
/// span: the inner call sequence is identical either way, so results stay
/// bit-identical to an uninstrumented run, and the disabled path never
/// reads a clock per CDQ.
///
/// Timing is *sampled*: only one call in [`Self::SAMPLE`] reads the clock
/// (calls are ~30 ns on this class of hardware, so per-call timing of a
/// per-CDQ method costs more than the method); the estimate scales the
/// sampled mean by the call count. Attribution stays within a few percent
/// on any batch big enough to matter while the enabled-path overhead drops
/// by the sampling factor.
pub struct TimedPredictor<'a, P: CdqPredictor> {
    inner: &'a mut P,
    predict_sampled_ns: u64,
    observe_sampled_ns: u64,
    predict_calls: u64,
    observe_calls: u64,
}

impl<'a, P: CdqPredictor> TimedPredictor<'a, P> {
    /// One call in this many is timed (power of two).
    pub const SAMPLE: u64 = 16;

    /// Wraps `inner` with zeroed accumulators.
    pub fn new(inner: &'a mut P) -> Self {
        TimedPredictor {
            inner,
            predict_sampled_ns: 0,
            observe_sampled_ns: 0,
            predict_calls: 0,
            observe_calls: 0,
        }
    }

    /// Estimated nanoseconds spent in `predict` calls.
    pub fn predict_ns(&self) -> u64 {
        Self::scale(self.predict_sampled_ns, self.predict_calls)
    }

    /// Estimated nanoseconds spent in `observe` calls.
    pub fn observe_ns(&self) -> u64 {
        Self::scale(self.observe_sampled_ns, self.observe_calls)
    }

    fn scale(sampled_ns: u64, calls: u64) -> u64 {
        if calls == 0 {
            return 0;
        }
        // Calls 0, SAMPLE, 2*SAMPLE, … are timed: ceil(calls / SAMPLE)
        // samples cover `calls` calls.
        let sampled = calls.div_ceil(Self::SAMPLE);
        sampled_ns.saturating_mul(calls) / sampled
    }
}

impl<P: CdqPredictor> CdqPredictor for TimedPredictor<'_, P> {
    fn predict(&mut self, idx: usize, cdq: &CdqInfo) -> bool {
        // Time call 0 and then every SAMPLE-th, so short batches still
        // get a measurement.
        let timed = self.predict_calls.is_multiple_of(Self::SAMPLE);
        self.predict_calls += 1;
        if !timed {
            return self.inner.predict(idx, cdq);
        }
        let t = std::time::Instant::now();
        let r = self.inner.predict(idx, cdq);
        self.predict_sampled_ns += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        r
    }

    fn observe(&mut self, idx: usize, cdq: &CdqInfo, colliding: bool) {
        let timed = self.observe_calls.is_multiple_of(Self::SAMPLE);
        self.observe_calls += 1;
        if !timed {
            return self.inner.observe(idx, cdq, colliding);
        }
        let t = std::time::Instant::now();
        self.inner.observe(idx, cdq, colliding);
        self.observe_sampled_ns += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
    }
}

/// Executes one motion-check batch against a session: the one batch
/// implementation, shared by the TCP server, the conformance harness
/// and the replay engine. Schedules each motion per the session's
/// [`SchedMode`], updates the session's metrics (including the confusion
/// ledger via [`ChtPredictor`] observes), and returns the wire-visible
/// [`CheckResult`]s in motion order.
///
/// Each motion publishes `schedule` and `execute` spans and profiler
/// stages, with priming as `execute`→`predict`. When the span recorder
/// is on, the predictor runs inside a [`TimedPredictor`] whose time
/// becomes a `predict` span; the inner call sequence is the same either
/// way, so results are bit-identical.
pub fn execute_batch(
    session: &SessionState,
    motions: &[copred_trace::MotionTrace],
    csp_step: usize,
) -> Vec<CheckResult> {
    // One predictor serves the whole batch, so its arrays are allocated
    // once and re-primed per motion.
    let mut pred = ChtPredictor::new(session, &[]);
    motions
        .iter()
        .map(|m| {
            let schedule_span = copred_obs::span("service", "schedule");
            let schedule_stage = stage(Stage::Schedule);
            let infos = m.to_cdq_infos();
            drop(schedule_stage);
            drop(schedule_span);
            let execute_span = copred_obs::span("service", "execute");
            let execute_stage = stage(Stage::Execute);
            let out = match session.mode {
                SchedMode::Coord => {
                    pred.poses = &m.poses;
                    {
                        let _predict_stage = stage(Stage::Predict);
                        pred.prime(&infos);
                    }
                    if copred_obs::enabled() {
                        let mut timed = TimedPredictor::new(&mut pred);
                        let out =
                            run_predicted_schedule(&infos, m.poses.len(), csp_step, &mut timed);
                        copred_obs::span_at(
                            "service",
                            "predict",
                            execute_span.start_ns(),
                            timed.predict_ns() + timed.observe_ns(),
                        );
                        out
                    } else {
                        run_predicted_schedule(&infos, m.poses.len(), csp_step, &mut pred)
                    }
                }
                SchedMode::Naive => run_schedule(&infos, m.poses.len(), Schedule::Naive),
                SchedMode::Csp => {
                    run_schedule(&infos, m.poses.len(), Schedule::Csp { step: csp_step })
                }
            };
            drop(execute_stage);
            drop(execute_span);
            let sm = &session.metrics;
            sm.checks.fetch_add(1, Ordering::Relaxed);
            sm.cdqs_issued
                .fetch_add(out.cdqs_executed as u64, Ordering::Relaxed);
            sm.cdqs_total
                .fetch_add(out.cdqs_total as u64, Ordering::Relaxed);
            sm.collisions
                .fetch_add(u64::from(out.colliding), Ordering::Relaxed);
            CheckResult {
                colliding: out.colliding,
                cdqs_executed: out.cdqs_executed as u64,
                cdqs_total: out.cdqs_total as u64,
                obstacle_tests: out.obstacle_tests as u64,
            }
        })
        .collect()
}

struct RegistryInner {
    sessions: HashMap<u64, Arc<SessionState>>,
    free_slots: Vec<usize>,
    next_id: u64,
}

/// What [`SessionRegistry::open_full`] produced.
#[derive(Debug)]
pub struct OpenOutcome {
    /// The new session.
    pub session: Arc<SessionState>,
    /// Sessions evicted to make room (0 or 1).
    pub evicted: usize,
    /// Populated CHT entries the evicted session was holding — the learned
    /// state that would have been silently discarded before the store
    /// existed (feeds `copred_sessions_evicted_learned_total`).
    pub evicted_occupancy: u64,
    /// Whether the session warm-started from persisted state.
    pub warm: bool,
}

/// The concurrent session table. All methods are safe to call from any
/// thread.
pub struct SessionRegistry {
    /// One table per session slot; a session leases `slots[shard_slot]`.
    slots: Vec<Arc<ConcurrentCht>>,
    inner: Mutex<RegistryInner>,
    clock: AtomicU64,
    store: Option<Arc<StoreRegistry>>,
    /// Telemetry rendered as `copred_store_*` even when the store is
    /// disabled (all-zero counters keep the metrics page shape stable).
    fallback_stats: Arc<StoreStats>,
}

impl SessionRegistry {
    /// Builds a registry with `capacity` session slots, each an independent
    /// CHT of `params` geometry.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new(params: ChtParams, capacity: usize) -> Self {
        Self::new_with_store(params, capacity, None)
    }

    /// Like [`new`](Self::new) but with an optional persistence backend:
    /// sessions that open with an environment fingerprint warm-start from
    /// it and persist back on close/evict.
    pub fn new_with_store(
        params: ChtParams,
        capacity: usize,
        store: Option<Arc<StoreRegistry>>,
    ) -> Self {
        assert!(capacity > 0, "a session registry needs at least one slot");
        SessionRegistry {
            slots: (0..capacity)
                .map(|_| Arc::new(ConcurrentCht::new(params)))
                .collect(),
            inner: Mutex::new(RegistryInner {
                sessions: HashMap::new(),
                free_slots: (0..capacity).rev().collect(),
                next_id: 1,
            }),
            clock: AtomicU64::new(0),
            store,
            fallback_stats: Arc::new(StoreStats::new()),
        }
    }

    /// The store's telemetry counters (all-zero fallback when persistence
    /// is disabled, so `/metrics` always renders the full series set).
    pub fn store_stats(&self) -> Arc<StoreStats> {
        match &self.store {
            Some(s) => s.stats(),
            None => Arc::clone(&self.fallback_stats),
        }
    }

    /// The attached persistence backend, when there is one — the fleet
    /// replication ops read stored snapshots and merge pushed ones through
    /// this.
    pub fn store(&self) -> Option<&Arc<StoreRegistry>> {
        self.store.as_ref()
    }

    /// Open sessions right now.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .sessions
            .len()
    }

    /// Whether no session is open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of every open session, sorted by id — the `/metrics`
    /// renderer walks this without holding the registry lock while
    /// formatting. Does not bump LRU stamps.
    pub fn sessions_snapshot(&self) -> Vec<Arc<SessionState>> {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let mut v: Vec<Arc<SessionState>> = inner.sessions.values().map(Arc::clone).collect();
        v.sort_by_key(|s| s.id);
        v
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Opens a session, evicting the least-recently-used idle session when
    /// the pool is full. Returns the new session and how many sessions
    /// were evicted to make room (0 or 1). Compatibility wrapper over
    /// [`open_full`](Self::open_full) with no environment fingerprint.
    ///
    /// # Errors
    ///
    /// [`ServiceError::BadRequest`] for an unknown robot,
    /// [`ServiceError::Busy`] when the pool is full of busy sessions.
    pub fn open(
        &self,
        robot_name: &str,
        mode: SchedMode,
        seed: u64,
    ) -> Result<(Arc<SessionState>, usize), ServiceError> {
        self.open_full(robot_name, mode, seed, None)
            .map(|o| (o.session, o.evicted))
    }

    /// Opens a session, optionally keyed by an environment fingerprint.
    /// With a fingerprint and a store attached, the session warm-starts
    /// from any persisted table for that fingerprint (copy-on-lease: the
    /// stored image is *copied* into the private shard) and logs/persists
    /// its learned state back. An evicted victim's table is persisted
    /// through its own store handle before the slot is reused.
    ///
    /// # Errors
    ///
    /// [`ServiceError::BadRequest`] for an unknown robot,
    /// [`ServiceError::Busy`] when the pool is full of busy sessions.
    pub fn open_full(
        &self,
        robot_name: &str,
        mode: SchedMode,
        seed: u64,
        fp: Option<u64>,
    ) -> Result<OpenOutcome, ServiceError> {
        let robot = robot_by_name(robot_name)
            .ok_or_else(|| ServiceError::BadRequest(format!("unknown robot '{robot_name}'")))?;
        let hasher = CoordHash::paper_default(&robot);
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let mut evicted = 0;
        let mut evicted_occupancy = 0u64;
        if inner.free_slots.is_empty() {
            let victim = inner
                .sessions
                .values()
                .filter(|s| s.pending.load(Ordering::Acquire) == 0)
                .min_by_key(|s| s.last_used.load(Ordering::Relaxed))
                .map(|s| s.id);
            match victim {
                Some(id) => {
                    let s = inner.sessions.remove(&id).expect("victim present");
                    // Eviction used to discard the victim's learned table
                    // silently; now the cost is measured, and persisted
                    // when the victim has a store handle. The snapshot
                    // write happens under the registry lock — acceptable
                    // because eviction is the slow path by construction.
                    evicted_occupancy = s.shard.occupancy() as u64;
                    s.persist_to_store();
                    inner.free_slots.push(s.shard_slot);
                    evicted = 1;
                }
                None => {
                    return Err(ServiceError::Busy(
                        "session pool full and every session has jobs in flight".into(),
                    ))
                }
            }
        }
        let slot = inner.free_slots.pop().expect("slot after eviction");
        let shard = Arc::clone(&self.slots[slot]);
        // The slot may have a previous tenant's history: a session always
        // starts with the paper's per-query reset.
        shard.reset();
        let id = inner.next_id;
        inner.next_id += 1;
        // The U stream must be a pure function of the *client's* seed —
        // session ids are assigned in racy accept order, so folding them
        // in would break replay determinism. SplitMix64 scrambles weak
        // seeds; xorshift64 must not start at zero, hence the remap.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let mut u_seed = (z ^ (z >> 31)).max(1);
        // Warm start: copy any persisted table for this fingerprint into
        // the private shard and resume its U-draw stream, so the session
        // continues exactly where the persisted one left off.
        let mut warm = false;
        let store_handle = match (&self.store, fp) {
            (Some(registry), Some(fp)) => match registry.open_session(fp, shard.params()) {
                Ok(opened) => {
                    if let Some(image) = &opened.image {
                        shard.load_cells(&image.cells);
                        if image.u_state != 0 {
                            u_seed = image.u_state;
                        }
                        warm = true;
                    }
                    Some(opened.store)
                }
                // Store I/O failure degrades to a cold, unpersisted
                // session rather than failing the open.
                Err(_) => None,
            },
            _ => None,
        };
        let session = Arc::new(SessionState {
            id,
            mode,
            shard,
            shard_slot: slot,
            hasher,
            metrics: SessionMetrics::default(),
            pending: AtomicUsize::new(0),
            u_state: Mutex::new(u_seed),
            last_used: AtomicU64::new(self.tick()),
            store: store_handle,
        });
        inner.sessions.insert(id, Arc::clone(&session));
        Ok(OpenOutcome {
            session,
            evicted,
            evicted_occupancy,
            warm,
        })
    }

    /// Looks up a session and bumps its LRU stamp.
    ///
    /// # Errors
    ///
    /// [`ServiceError::NoSession`] for unknown (or evicted) tokens.
    pub fn get(&self, id: u64) -> Result<Arc<SessionState>, ServiceError> {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let s = inner.sessions.get(&id).ok_or(ServiceError::NoSession(id))?;
        s.last_used.store(self.tick(), Ordering::Relaxed);
        Ok(Arc::clone(s))
    }

    /// Closes a session and returns its shard slot to the pool, persisting
    /// its learned table first when it has a store handle.
    ///
    /// # Errors
    ///
    /// [`ServiceError::NoSession`] for unknown tokens.
    pub fn close(&self, id: u64) -> Result<(), ServiceError> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let s = inner
            .sessions
            .remove(&id)
            .ok_or(ServiceError::NoSession(id))?;
        s.persist_to_store();
        inner.free_slots.push(s.shard_slot);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry(cap: usize) -> SessionRegistry {
        SessionRegistry::new(ChtParams::paper_2d(), cap)
    }

    #[test]
    fn open_get_close_roundtrip() {
        let reg = registry(4);
        let (s, evicted) = reg.open("planar-2d", SchedMode::Coord, 7).unwrap();
        assert_eq!(evicted, 0);
        assert_eq!(reg.len(), 1);
        let again = reg.get(s.id).unwrap();
        assert_eq!(again.id, s.id);
        reg.close(s.id).unwrap();
        assert!(reg.is_empty());
        assert!(matches!(reg.get(s.id), Err(ServiceError::NoSession(_))));
    }

    #[test]
    fn poisoned_registry_lock_still_serves() {
        let reg = registry(2);
        let poisoned = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _inner = reg.inner.lock().unwrap();
                    panic!("panic while holding the registry lock");
                })
                .join()
        });
        assert!(poisoned.is_err());
        assert!(reg.inner.is_poisoned());
        let (s, _) = reg.open("planar-2d", SchedMode::Coord, 7).unwrap();
        assert_eq!(reg.get(s.id).unwrap().id, s.id);
        reg.close(s.id).unwrap();
        assert!(reg.is_empty());
    }

    #[test]
    fn unknown_robot_is_bad_request() {
        let reg = registry(2);
        assert!(matches!(
            reg.open("hal-9000", SchedMode::Naive, 0),
            Err(ServiceError::BadRequest(_))
        ));
    }

    #[test]
    fn lru_eviction_prefers_stalest_idle_session() {
        let reg = registry(2);
        let (a, _) = reg.open("planar-2d", SchedMode::Coord, 1).unwrap();
        let (b, _) = reg.open("planar-2d", SchedMode::Coord, 2).unwrap();
        // Touch `a` so `b` is the LRU victim.
        reg.get(a.id).unwrap();
        let (c, evicted) = reg.open("planar-2d", SchedMode::Coord, 3).unwrap();
        assert_eq!(evicted, 1);
        assert!(reg.get(a.id).is_ok(), "recently used survives");
        assert!(matches!(reg.get(b.id), Err(ServiceError::NoSession(_))));
        assert!(reg.get(c.id).is_ok());
    }

    #[test]
    fn busy_sessions_are_never_evicted() {
        let reg = registry(2);
        let (a, _) = reg.open("planar-2d", SchedMode::Coord, 1).unwrap();
        let (b, _) = reg.open("planar-2d", SchedMode::Coord, 2).unwrap();
        a.pending.store(1, Ordering::Release);
        b.pending.store(3, Ordering::Release);
        assert!(matches!(
            reg.open("planar-2d", SchedMode::Coord, 3),
            Err(ServiceError::Busy(_))
        ));
        b.pending.store(0, Ordering::Release);
        let (_, evicted) = reg.open("planar-2d", SchedMode::Coord, 3).unwrap();
        assert_eq!(evicted, 1);
        assert!(reg.get(a.id).is_ok(), "busy session kept its slot");
    }

    #[test]
    fn sessions_lease_distinct_shards_and_reset_on_reuse() {
        let reg = registry(2);
        let (a, _) = reg.open("planar-2d", SchedMode::Coord, 1).unwrap();
        let (b, _) = reg.open("planar-2d", SchedMode::Coord, 2).unwrap();
        assert!(!Arc::ptr_eq(&a.shard, &b.shard), "distinct shard leases");
        // Pollute a's shard, close it, reopen: the new tenant sees a
        // clean table.
        a.shard.observe(3, true, 0.9);
        assert!(a.shard.occupancy() > 0);
        let slot_shard = Arc::clone(&a.shard);
        reg.close(a.id).unwrap();
        let (c, _) = reg.open("planar-2d", SchedMode::Coord, 3).unwrap();
        assert!(Arc::ptr_eq(&c.shard, &slot_shard), "slot recycled");
        assert_eq!(c.shard.occupancy(), 0, "history cleared on lease");
    }

    fn store_root(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("copred-service-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn registry_with_store(cap: usize, root: &std::path::Path) -> SessionRegistry {
        let store = Arc::new(StoreRegistry::open(root).unwrap());
        SessionRegistry::new_with_store(ChtParams::paper_2d(), cap, Some(store))
    }

    #[test]
    fn warm_start_restores_table_and_resumes_u_stream() {
        let root = store_root("warm");
        let reg = registry_with_store(4, &root);
        let fp = Some(0xFACE);
        let a = reg
            .open_full("planar-2d", SchedMode::Coord, 42, fp)
            .unwrap();
        assert!(!a.warm, "nothing persisted yet");
        a.session.shard.observe(7, true, 0.0);
        a.session.shard.observe(9, true, 0.0);
        let drawn: Vec<f64> = (0..3).map(|_| a.session.next_u_draw()).collect();
        let cells = a.session.shard.export_cells();
        reg.close(a.session.id).unwrap();
        // Warm reopen: table restored bit-exactly, U stream continues from
        // draw 4 — verified against an uninterrupted same-seed session.
        let b = reg
            .open_full("planar-2d", SchedMode::Coord, 42, fp)
            .unwrap();
        assert!(b.warm);
        assert_eq!(b.session.shard.export_cells(), cells);
        let continuous = reg.open("planar-2d", SchedMode::Coord, 42).unwrap().0;
        let skipped: Vec<f64> = (0..3).map(|_| continuous.next_u_draw()).collect();
        assert_eq!(skipped, drawn);
        for _ in 0..4 {
            assert_eq!(b.session.next_u_draw(), continuous.next_u_draw());
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn open_without_fp_is_cold_and_unpersisted() {
        let root = store_root("nofp");
        let reg = registry_with_store(4, &root);
        let a = reg
            .open_full("planar-2d", SchedMode::Coord, 1, None)
            .unwrap();
        assert!(!a.warm);
        a.session.shard.observe(3, true, 0.0);
        assert!(!a.session.persist_to_store(), "no fp means no store handle");
        reg.close(a.session.id).unwrap();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn eviction_persists_victim_and_reports_occupancy() {
        let root = store_root("evict");
        let reg = registry_with_store(2, &root);
        let fp = Some(0xE11C);
        let a = reg.open_full("planar-2d", SchedMode::Coord, 1, fp).unwrap();
        a.session.shard.observe(5, true, 0.0);
        a.session.shard.observe(11, true, 0.0);
        let _b = reg.open("planar-2d", SchedMode::Coord, 2).unwrap();
        reg.get(_b.0.id).unwrap(); // make `a` the LRU victim
        let c = reg
            .open_full("planar-2d", SchedMode::Coord, 3, None)
            .unwrap();
        assert_eq!(c.evicted, 1);
        assert_eq!(c.evicted_occupancy, 2, "victim's learned entries counted");
        // The victim's table survived eviction: a same-fp open warm-starts.
        let d = reg.open_full("planar-2d", SchedMode::Coord, 4, fp).unwrap();
        assert!(d.warm, "evicted state must be recoverable");
        assert!(d.session.shard.predict(5));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn concurrent_same_fp_sessions_never_alias() {
        let root = store_root("alias");
        let reg = registry_with_store(4, &root);
        let fp = Some(0xA11A5);
        let a = reg.open_full("planar-2d", SchedMode::Coord, 1, fp).unwrap();
        let b = reg.open_full("planar-2d", SchedMode::Coord, 2, fp).unwrap();
        assert!(!Arc::ptr_eq(&a.session.shard, &b.session.shard));
        a.session.shard.observe(3, true, 0.0);
        assert!(!b.session.shard.predict(3), "copy-on-lease: no aliasing");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn u_draw_stream_is_deterministic_per_seed() {
        let reg = registry(4);
        let (a, _) = reg.open("planar-2d", SchedMode::Coord, 99).unwrap();
        let draws_a: Vec<f64> = (0..5).map(|_| a.next_u_draw()).collect();
        reg.close(a.id).unwrap();
        // Reopening with the same client seed replays the same stream
        // even though the session id differs: determinism must not
        // depend on id-assignment order.
        let (b, _) = reg.open("planar-2d", SchedMode::Coord, 99).unwrap();
        assert_ne!(a.id, b.id);
        let draws_b: Vec<f64> = (0..5).map(|_| b.next_u_draw()).collect();
        assert_eq!(draws_a, draws_b);
        for d in draws_a {
            assert!((0.0..1.0).contains(&d));
        }
    }
}
