//! `copred-profile`: always-on continuous profiling by stage sampling.
//!
//! Worker threads publish a fixed-depth stack of [`Stage`] frames into a
//! per-thread seqlock cell: a push or pop is a handful of atomic stores —
//! no locks, no allocation, no clock reads — so the instrumentation stays
//! in release hot paths permanently (the "always-on" in always-on
//! profiling). A dedicated sampler thread ([`Sampler`]) reads every
//! registered cell at a fixed interval and accumulates
//! wall-time-by-stage-path weights into a [`Profile`]; deterministic
//! drivers (AccelSim's virtual clock, tests) feed the same accumulator
//! via [`Profile::add_path`] with simulated-time weights instead.
//!
//! The cell is a seqlock because the stack spans two `AtomicU64` words
//! (16 frames × 8 bits): the version word is bumped odd before and even
//! after each update, and a reader that observes an odd or changed
//! version retries a few times then gives up, counting the tear as a
//! sampler drop rather than ever blocking the worker. All data words are
//! atomics, so a torn read yields a stale/mixed *value*, never UB.
//!
//! Exports: [`Profile::folded`] (flamegraph-compatible collapsed-stack
//! text), [`Profile::render_text`] (the `/debug/profile` payload), and
//! [`Profile::snapshot`] (fixed-order stage fractions for the
//! `copred_profile_*` Prometheus series — see `copred-service`).

use crate::threadreg::ThreadRegistry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A pipeline stage a thread can be in. Discriminants are the on-cell
/// frame encoding (one byte per frame, 0 = empty slot) and are stable:
/// the folded-stack labels derived from them are a contract (ROADMAP.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Parsing a request frame off the wire.
    Decode = 1,
    /// Collision-outcome prediction (CHT reads, priming, COPU pipe).
    Predict = 2,
    /// Ordering CDQs (coordinate-aware scheduling, dispatch policy).
    Schedule = 3,
    /// Executing CDQs / running a check batch.
    Execute = 4,
    /// Writing a response frame.
    Encode = 5,
    /// Blocked waiting for work on a queue.
    QueueWait = 6,
    /// Software-executor (CPU path) work.
    SwExec = 7,
    /// Accelerator simulation (virtual-clock frames).
    Accel = 8,
    /// Persistence: WAL appends, snapshots, warm loads.
    Store = 9,
    /// Op-log record/replay work.
    Replay = 10,
}

impl Stage {
    /// Every stage, in fixed render order (a stability contract for the
    /// `copred_profile_stage_fraction` label set).
    pub const ALL: [Stage; 10] = [
        Stage::Decode,
        Stage::Predict,
        Stage::Schedule,
        Stage::Execute,
        Stage::Encode,
        Stage::QueueWait,
        Stage::SwExec,
        Stage::Accel,
        Stage::Store,
        Stage::Replay,
    ];

    /// The stage's folded-stack / metrics label.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Decode => "decode",
            Stage::Predict => "predict",
            Stage::Schedule => "schedule",
            Stage::Execute => "execute",
            Stage::Encode => "encode",
            Stage::QueueWait => "queue_wait",
            Stage::SwExec => "swexec",
            Stage::Accel => "accel",
            Stage::Store => "store",
            Stage::Replay => "replay",
        }
    }

    fn from_u8(b: u8) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| *s as u8 == b)
    }
}

/// Maximum published stack depth; deeper frames are truncated (pushes
/// past the limit count depth but write nothing, so the matching pops
/// stay balanced).
pub const MAX_STAGE_DEPTH: usize = 16;

/// Bounded retries before a sampler read of one cell is abandoned as
/// torn (counted in [`Profile::drops`]).
const TORN_READ_RETRIES: usize = 8;

/// A sampled stage path: the cell's two stack words, frames packed one
/// byte each, innermost-first. Doubles as the (cheap, `Copy`) map key
/// for profile accumulation; decoding to labels happens only at export.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathKey {
    w0: u64,
    w1: u64,
}

impl PathKey {
    /// The empty stack — the thread was between stages (idle).
    pub fn is_idle(&self) -> bool {
        self.w0 == 0 && self.w1 == 0
    }

    /// Encodes an explicit stage path (outermost first), truncating at
    /// [`MAX_STAGE_DEPTH`] like the live cell does.
    pub fn from_stages(stages: &[Stage]) -> PathKey {
        let mut key = PathKey::default();
        for (i, s) in stages.iter().take(MAX_STAGE_DEPTH).enumerate() {
            let byte = (*s as u64) << ((i % 8) * 8);
            if i < 8 {
                key.w0 |= byte;
            } else {
                key.w1 |= byte;
            }
        }
        key
    }

    /// Decodes the frames outermost-first. Stops at the first empty or
    /// unknown byte, so a stale torn read can shorten a path but never
    /// fabricate an unknown stage.
    pub fn frames(&self) -> Vec<Stage> {
        let mut out = Vec::new();
        for i in 0..MAX_STAGE_DEPTH {
            let w = if i < 8 { self.w0 } else { self.w1 };
            let byte = ((w >> ((i % 8) * 8)) & 0xFF) as u8;
            match Stage::from_u8(byte) {
                Some(s) => out.push(s),
                None => break,
            }
        }
        out
    }

    /// The innermost (currently executing) stage, if any.
    pub fn leaf(&self) -> Option<Stage> {
        self.frames().pop()
    }

    /// The folded-stack label: frames joined with `;`, outermost first
    /// (`"execute;predict"`); the empty stack renders as `"idle"`.
    pub fn label(&self) -> String {
        let frames = self.frames();
        if frames.is_empty() {
            return "idle".to_string();
        }
        frames
            .iter()
            .map(|s| s.label())
            .collect::<Vec<_>>()
            .join(";")
    }
}

/// One thread's seqlock-published stage stack.
///
/// Single writer (the owning thread, via its thread-local handle), any
/// number of readers (the sampler). `SeqCst` on the version/word stores
/// keeps the odd→data→even protocol ordered on every architecture; the
/// cost is a few fenced stores per push/pop, which the `ab=1` overhead
/// gate budgets.
#[derive(Debug)]
pub struct StageCell {
    /// Sampler-facing dense thread id.
    tid: AtomicU32,
    /// Seqlock version: odd while an update is in flight.
    version: AtomicU64,
    /// The packed stack (see [`PathKey`]).
    words: [AtomicU64; 2],
    /// Logical depth including truncated frames. Writer-private; atomic
    /// only for interior mutability without `unsafe`.
    depth: AtomicU32,
}

impl StageCell {
    fn new() -> Self {
        StageCell {
            tid: AtomicU32::new(0),
            version: AtomicU64::new(0),
            words: [AtomicU64::new(0), AtomicU64::new(0)],
            depth: AtomicU32::new(0),
        }
    }

    fn write_frame(&self, slot: usize, byte: u64) {
        let v = self.version.load(Ordering::Relaxed);
        self.version.store(v.wrapping_add(1), Ordering::SeqCst); // odd
        let word = &self.words[slot / 8];
        let shift = (slot % 8) * 8;
        let cleared = word.load(Ordering::Relaxed) & !(0xFFu64 << shift);
        word.store(cleared | (byte << shift), Ordering::SeqCst);
        self.version.store(v.wrapping_add(2), Ordering::SeqCst); // even
    }

    fn push(&self, stage: Stage) {
        let depth = self.depth.load(Ordering::Relaxed);
        self.depth.store(depth + 1, Ordering::Relaxed);
        let slot = depth as usize;
        if slot >= MAX_STAGE_DEPTH {
            return; // truncated: deeper frames are invisible to samples
        }
        self.write_frame(slot, stage as u64);
    }

    fn pop(&self) {
        let depth = self.depth.load(Ordering::Relaxed);
        debug_assert!(depth > 0, "stage pop without matching push");
        let depth = depth.saturating_sub(1);
        self.depth.store(depth, Ordering::Relaxed);
        let slot = depth as usize;
        if slot >= MAX_STAGE_DEPTH {
            return; // popping a truncated frame: nothing was written
        }
        self.write_frame(slot, 0);
    }

    /// Seqlock read with bounded retry; `None` means every attempt raced
    /// a writer (a torn read, counted as a sampler drop by callers).
    pub fn sample(&self) -> Option<PathKey> {
        for _ in 0..TORN_READ_RETRIES {
            let v1 = self.version.load(Ordering::SeqCst);
            if v1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let w0 = self.words[0].load(Ordering::SeqCst);
            let w1 = self.words[1].load(Ordering::SeqCst);
            let v2 = self.version.load(Ordering::SeqCst);
            if v1 == v2 {
                return Some(PathKey { w0, w1 });
            }
            std::hint::spin_loop();
        }
        None
    }
}

static PROFILE_REG: ThreadRegistry<StageCell> = ThreadRegistry::new();

struct ProfileHandle {
    cell: Arc<StageCell>,
}

thread_local! {
    static PROFILE_HANDLE: ProfileHandle = {
        let cell = Arc::new(StageCell::new());
        let tid = PROFILE_REG.alloc_tid();
        cell.tid.store(tid, Ordering::Relaxed);
        PROFILE_REG.insert(Arc::clone(&cell));
        ProfileHandle { cell }
    };
}

/// RAII stage frame: pushed on creation, popped on drop. Frames nest
/// (`execute` → `predict`) up to [`MAX_STAGE_DEPTH`]; deeper nesting
/// truncates instead of corrupting the stack.
#[derive(Debug)]
#[must_use = "a stage frame covers the scope it lives in"]
pub struct StageGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for StageGuard {
    fn drop(&mut self) {
        // try_with: a guard dropped during thread teardown (TLS already
        // destroyed) must not abort the process.
        let _ = PROFILE_HANDLE.try_with(|h| h.cell.pop());
    }
}

/// Enters `stage` on the calling thread's published stack for the
/// guard's lifetime. Always on — there is no enable gate; the cost is a
/// few atomic stores each way.
#[inline]
pub fn stage(stage: Stage) -> StageGuard {
    PROFILE_HANDLE.with(|h| h.cell.push(stage));
    StageGuard {
        _not_send: std::marker::PhantomData,
    }
}

/// Samples every registered thread's cell once into `profile` with the
/// given weight per thread, pruning cells of exited threads. This is one
/// sampler tick; deterministic drivers call it (or [`Profile::add_path`])
/// directly instead of running a [`Sampler`].
pub fn sample_once(profile: &mut Profile, weight: u64) {
    PROFILE_REG.sweep(|cell, live| {
        // A dead cell's stack is empty by construction (guards cannot
        // outlive their thread): skip it and let the sweep prune it.
        if !live {
            return;
        }
        match cell.sample() {
            Some(path) => profile.add(cell.tid.load(Ordering::Relaxed), path, weight),
            None => profile.drops += 1,
        }
    });
}

/// One [`Profile::thread_fractions`] row:
/// `(tid, total_weight, [(path_label, fraction)])`.
pub type ThreadFractions = (u32, u64, Vec<(String, f64)>);

/// Accumulated stage-path weights: samples for the wall-clock sampler,
/// cycles for virtual-clock drivers. Everything derived from it
/// (folded text, fractions, snapshots) is deterministic in its contents.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Weight per (thread, stage path), idle samples included.
    counts: BTreeMap<(u32, PathKey), u64>,
    /// Torn-read drops (seqlock retries exhausted).
    pub drops: u64,
    /// Sampler interval overruns (ticks delivered late by a full period).
    pub skews: u64,
}

impl Profile {
    /// Adds `weight` to one thread's stage path.
    pub fn add(&mut self, tid: u32, path: PathKey, weight: u64) {
        *self.counts.entry((tid, path)).or_insert(0) += weight;
    }

    /// Adds `weight` to an explicit path (outermost first) — the
    /// deterministic virtual-clock entry point.
    pub fn add_path(&mut self, tid: u32, stages: &[Stage], weight: u64) {
        self.add(tid, PathKey::from_stages(stages), weight);
    }

    /// Merges another profile into this one.
    pub fn merge(&mut self, other: &Profile) {
        for (&key, &w) in &other.counts {
            *self.counts.entry(key).or_insert(0) += w;
        }
        self.drops += other.drops;
        self.skews += other.skews;
    }

    /// Total accumulated weight, idle included.
    pub fn samples(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Threads that contributed at least one sample.
    pub fn threads(&self) -> u64 {
        let tids: std::collections::BTreeSet<u32> =
            self.counts.keys().map(|(tid, _)| *tid).collect();
        tids.len() as u64
    }

    /// Per-thread `(tid, total_weight, [(path_label, fraction)])` rows,
    /// fractions of that thread's total (idle included in the total, so
    /// the non-idle fractions sum to ≤ 1.0 per thread).
    pub fn thread_fractions(&self) -> Vec<ThreadFractions> {
        let mut totals: BTreeMap<u32, u64> = BTreeMap::new();
        for (&(tid, _), &w) in &self.counts {
            *totals.entry(tid).or_insert(0) += w;
        }
        totals
            .into_iter()
            .map(|(tid, total)| {
                let mut rows: Vec<(String, f64)> = self
                    .counts
                    .iter()
                    .filter(|((t, _), _)| *t == tid)
                    .map(|((_, path), &w)| (path.label(), w as f64 / total.max(1) as f64))
                    .collect();
                rows.sort_by(|a, b| a.0.cmp(&b.0));
                (tid, total, rows)
            })
            .collect()
    }

    /// Weight fraction whose *leaf* frame is each stage, across all
    /// threads, in [`Stage::ALL`] order (0.0 for unseen stages). The
    /// denominator includes idle weight, so fractions sum to ≤ 1.0.
    pub fn stage_fractions(&self) -> Vec<(&'static str, f64)> {
        let total = self.samples().max(1) as f64;
        let mut by_stage: BTreeMap<Stage, u64> = BTreeMap::new();
        for (&(_, path), &w) in &self.counts {
            if let Some(leaf) = path.leaf() {
                *by_stage.entry(leaf).or_insert(0) += w;
            }
        }
        Stage::ALL
            .into_iter()
            .map(|s| {
                (
                    s.label(),
                    by_stage.get(&s).copied().unwrap_or(0) as f64 / total,
                )
            })
            .collect()
    }

    /// Fraction of total weight spent blocked on queues (leaf =
    /// [`Stage::QueueWait`]).
    pub fn queue_wait_fraction(&self) -> f64 {
        self.stage_fractions()
            .into_iter()
            .find(|(label, _)| *label == Stage::QueueWait.label())
            .map_or(0.0, |(_, f)| f)
    }

    /// Collapsed/folded-stack text, flamegraph-compatible: one
    /// `path;leaf weight` line per distinct non-idle path, aggregated
    /// across threads and sorted by label (deterministic for identical
    /// contents). Feed it straight to `flamegraph.pl` / `inferno`.
    pub fn folded(&self) -> String {
        let mut by_label: BTreeMap<String, u64> = BTreeMap::new();
        for (&(_, path), &w) in &self.counts {
            if path.is_idle() {
                continue;
            }
            *by_label.entry(path.label()).or_insert(0) += w;
        }
        let mut out = String::new();
        for (label, w) in by_label {
            out.push_str(&label);
            out.push(' ');
            out.push_str(&w.to_string());
            out.push('\n');
        }
        out
    }

    /// Fixed-order summary for metrics rendering; see [`ProfileSnapshot`].
    pub fn snapshot(&self) -> ProfileSnapshot {
        ProfileSnapshot {
            samples: self.samples(),
            drops: self.drops,
            skews: self.skews,
            threads: self.threads(),
            stage_fractions: self.stage_fractions(),
            queue_wait_fraction: self.queue_wait_fraction(),
        }
    }

    /// The `GET /debug/profile` payload: a stats header, per-thread
    /// stage fractions, then the folded-stack section.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "copred-profile\nsamples {}\nthreads {}\ndrops {}\nskews {}\n",
            self.samples(),
            self.threads(),
            self.drops,
            self.skews
        ));
        out.push_str("\nper-thread stage fractions (of sampled time, incl. idle):\n");
        for (tid, total, rows) in self.thread_fractions() {
            out.push_str(&format!("thread {tid} ({total} samples)\n"));
            for (label, frac) in rows {
                out.push_str(&format!("  {label:<24} {frac:.4}\n"));
            }
        }
        out.push_str("\nfolded stacks (flamegraph-compatible):\n");
        out.push_str(&self.folded());
        out
    }
}

/// Summary of a [`Profile`] in fixed render order, for the
/// `copred_profile_*` Prometheus series. With no sampler data every
/// fraction is 0.0 and every stage label still appears, so the metrics
/// page shape is independent of load (golden-file pinned).
#[derive(Debug, Clone)]
pub struct ProfileSnapshot {
    /// Total accumulated weight (idle included).
    pub samples: u64,
    /// Torn-read drops.
    pub drops: u64,
    /// Sampler interval overruns.
    pub skews: u64,
    /// Threads that contributed samples.
    pub threads: u64,
    /// Per-stage leaf-weight fraction in [`Stage::ALL`] order.
    pub stage_fractions: Vec<(&'static str, f64)>,
    /// Fraction of weight spent blocked on queues.
    pub queue_wait_fraction: f64,
}

impl Default for ProfileSnapshot {
    fn default() -> Self {
        ProfileSnapshot {
            samples: 0,
            drops: 0,
            skews: 0,
            threads: 0,
            stage_fractions: Stage::ALL.into_iter().map(|s| (s.label(), 0.0)).collect(),
            queue_wait_fraction: 0.0,
        }
    }
}

/// The dedicated wall-clock sampler thread. One tick per interval reads
/// every registered [`StageCell`] (weight 1 per thread per tick) into a
/// shared [`Profile`]; ticks that land more than a full interval late
/// are counted as skews instead of being made up, so a stalled host
/// never manufactures samples.
#[derive(Debug)]
pub struct Sampler {
    stop: Arc<AtomicBool>,
    /// Taken poison-tolerantly: a tick cut short by a panic leaves a
    /// profile that is merely missing part of one sample, and `/metrics`
    /// reads it on every scrape.
    shared: Arc<Mutex<Profile>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Default sampling interval: ~1ms, deliberately off any round number so
/// periodic workload phases don't alias with the sampler.
pub const DEFAULT_SAMPLE_INTERVAL: Duration = Duration::from_micros(997);

impl Sampler {
    /// Spawns the `copred-profiler` thread sampling every `interval`.
    pub fn start(interval: Duration) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Mutex::new(Profile::default()));
        let handle = {
            let stop = Arc::clone(&stop);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("copred-profiler".to_string())
                .spawn(move || {
                    let mut next = Instant::now() + interval;
                    while !stop.load(Ordering::Acquire) {
                        let now = Instant::now();
                        if now < next {
                            std::thread::sleep(next - now);
                        }
                        {
                            let mut profile = shared.lock().unwrap_or_else(PoisonError::into_inner);
                            sample_once(&mut profile, 1);
                            let after = Instant::now();
                            if after > next + interval {
                                // Late by a full period or more: count
                                // the skew and resynchronize.
                                profile.skews += 1;
                                next = after + interval;
                            } else {
                                next += interval;
                            }
                        }
                    }
                })
                .expect("spawn copred-profiler")
        };
        Sampler {
            stop,
            shared,
            handle: Some(handle),
        }
    }

    /// A copy of everything accumulated so far (the sampler keeps going).
    pub fn snapshot(&self) -> Profile {
        self.shared
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Stops the thread and returns the final profile.
    pub fn stop(mut self) -> Profile {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        std::mem::take(&mut *self.shared.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_key_round_trips_and_labels() {
        let key = PathKey::from_stages(&[Stage::Execute, Stage::Predict]);
        assert_eq!(key.frames(), vec![Stage::Execute, Stage::Predict]);
        assert_eq!(key.leaf(), Some(Stage::Predict));
        assert_eq!(key.label(), "execute;predict");
        assert!(PathKey::default().is_idle());
        assert_eq!(PathKey::default().label(), "idle");
        // Depth > 8 crosses the word boundary and still round-trips.
        let deep: Vec<Stage> = (0..12).map(|i| Stage::ALL[i % Stage::ALL.len()]).collect();
        assert_eq!(PathKey::from_stages(&deep).frames(), deep);
    }

    #[test]
    fn cell_pushes_pop_and_truncate_at_max_depth() {
        let cell = StageCell::new();
        // Push well past the limit: frames beyond MAX_STAGE_DEPTH are
        // truncated, and the sampled path holds exactly the cap.
        for _ in 0..(MAX_STAGE_DEPTH + 5) {
            cell.push(Stage::Execute);
        }
        let path = cell.sample().expect("uncontended sample");
        assert_eq!(path.frames().len(), MAX_STAGE_DEPTH);
        // Pops unwind cleanly through the truncated region back to idle.
        for _ in 0..(MAX_STAGE_DEPTH + 5) {
            cell.pop();
        }
        assert!(cell.sample().expect("uncontended sample").is_idle());
    }

    #[test]
    fn torn_reads_retry_then_give_up() {
        let cell = StageCell::new();
        cell.push(Stage::Decode);
        // Force a mid-write version (odd): every bounded retry must fail
        // and the sampler reports a torn read instead of spinning.
        cell.version.fetch_add(1, Ordering::SeqCst);
        assert_eq!(cell.sample(), None, "odd version must read as torn");
        // Restore to even: the read succeeds again.
        cell.version.fetch_add(1, Ordering::SeqCst);
        assert_eq!(
            cell.sample().expect("even version reads clean").leaf(),
            Some(Stage::Decode)
        );
    }

    #[test]
    fn sampler_sees_live_stage_stacks() {
        use std::sync::atomic::AtomicBool;
        static HOLD: AtomicBool = AtomicBool::new(true);
        let worker = std::thread::spawn(|| {
            let _outer = stage(Stage::Execute);
            let _inner = stage(Stage::Predict);
            while HOLD.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_micros(200));
            }
        });
        let sampler = Sampler::start(Duration::from_micros(200));
        std::thread::sleep(Duration::from_millis(20));
        HOLD.store(false, Ordering::Release);
        worker.join().unwrap();
        let profile = sampler.stop();
        assert!(profile.samples() > 0, "sampler must have ticked");
        let folded = profile.folded();
        assert!(
            folded.contains("execute;predict "),
            "expected the worker's stack in {folded:?}"
        );
        // Per-thread fractions sum to ≤ 1.0 (idle is in the denominator).
        for (tid, _total, rows) in profile.thread_fractions() {
            let sum: f64 = rows.iter().map(|(_, f)| f).sum();
            assert!(sum <= 1.0 + 1e-9, "thread {tid} fractions sum {sum}");
        }
    }

    #[test]
    fn sampler_survives_thread_churn() {
        // Threads register, push frames, and exit while the sampler runs
        // flat out — the register/retire race must neither panic nor
        // leak registry slots (the sweep prunes dead cells).
        let sampler = Sampler::start(Duration::from_micros(50));
        for wave in 0..8 {
            let threads: Vec<_> = (0..4)
                .map(|_| {
                    std::thread::spawn(move || {
                        for _ in 0..50 {
                            let _g = stage(Stage::SwExec);
                            if wave % 2 == 0 {
                                let _inner = stage(Stage::Predict);
                            }
                        }
                    })
                })
                .collect();
            for t in threads {
                t.join().unwrap();
            }
        }
        let profile = sampler.stop();
        // No invalid stages can appear: decoding stops at unknown bytes.
        for line in profile.folded().lines() {
            let path = line.rsplit_once(' ').expect("folded line shape").0;
            for frame in path.split(';') {
                assert!(
                    Stage::ALL.iter().any(|s| s.label() == frame),
                    "unknown frame {frame:?} in folded output"
                );
            }
        }
    }

    #[test]
    fn deterministic_folded_output_under_a_virtual_clock() {
        // Two identical virtual-clock accumulations produce byte-equal
        // folded text and snapshots — no wall clock anywhere.
        let build = || {
            let mut p = Profile::default();
            p.add_path(0, &[Stage::Accel, Stage::Execute], 700);
            p.add_path(0, &[Stage::Accel, Stage::QueueWait], 200);
            p.add_path(1, &[Stage::Accel, Stage::Predict], 80);
            p.add_path(1, &[], 20); // idle on simulated time
            p
        };
        let (a, b) = (build(), build());
        assert_eq!(a.folded(), b.folded());
        assert_eq!(a.render_text(), b.render_text());
        assert_eq!(
            a.folded(),
            "accel;execute 700\naccel;predict 80\naccel;queue_wait 200\n"
        );
        assert_eq!(a.samples(), 1000);
        let snap = a.snapshot();
        assert_eq!(snap.threads, 2);
        let frac: f64 = snap.stage_fractions.iter().map(|(_, f)| f).sum();
        assert!(frac <= 1.0 + 1e-9, "stage fractions sum {frac}");
        assert!((snap.queue_wait_fraction - 0.2).abs() < 1e-12);
    }

    #[test]
    fn merge_and_empty_snapshot_shapes() {
        let mut a = Profile::default();
        a.add_path(0, &[Stage::Store], 5);
        a.drops = 2;
        let mut b = Profile::default();
        b.add_path(0, &[Stage::Store], 3);
        b.skews = 1;
        a.merge(&b);
        assert_eq!(a.samples(), 8);
        assert_eq!((a.drops, a.skews), (2, 1));
        assert_eq!(a.folded(), "store 8\n");
        // The empty snapshot still names every stage (golden shape).
        let empty = ProfileSnapshot::default();
        assert_eq!(empty.stage_fractions.len(), Stage::ALL.len());
        assert!(empty.stage_fractions.iter().all(|(_, f)| *f == 0.0));
    }
}
