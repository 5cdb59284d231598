//! The span/event recorder, and the per-thread [`Ring`] it shares with the
//! flight recorder ([`crate::flight`]).
//!
//! Every recording thread owns one handle holding two rings of [`Event`]s:
//! its spans (gated by [`enabled`]) and its flight ops (always on). Each
//! ring is a fixed-capacity buffer behind the thread's own mutex, which
//! only a snapshot copying it ever contends. A full ring overwrites its
//! oldest event and counts it in [`dropped_events`]. Reads copy without
//! consuming and merge rings by global sequence number, so any number of
//! readers — servers, dump paths, tests — share the process-global rings
//! without stealing each other's events. Rings of exited threads are
//! folded into a bounded retired ring per recorder, which keeps the newest
//! events by `seq`.
//!
//! Recording is globally gated by an [`AtomicBool`]; when disabled,
//! [`span`] and friends cost one relaxed load and a branch, so the
//! instrumentation can stay compiled into release hot paths.

use crate::flight::{FLIGHT_CAPACITY, FLIGHT_RETIRED_CAPACITY};
use crate::threadreg::ThreadRegistry;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// What an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EventKind {
    /// A completed span: `ts_ns` is the start, `dur_ns` the duration.
    #[default]
    Span,
    /// A point-in-time marker.
    Instant,
    /// A counter sample: `value` is the sampled value at `ts_ns`.
    Counter,
}

/// One recorded event: a span, marker or counter sample, or a flight op
/// (`cat: "op"`). `Copy` and free of heap data so ring slots can be
/// written without allocation; names are interned `&'static str`s.
#[derive(Debug, Clone, Copy, Default)]
pub struct Event {
    /// Span/marker/counter name (e.g. `"execute"`), or a flight op's verb.
    pub name: &'static str,
    /// Category (e.g. `"service"`, `"swexec"`, `"accel"`; `"op"` for
    /// flight ops).
    pub cat: &'static str,
    /// Event kind.
    pub kind: EventKind,
    /// Recording thread id (small dense ids assigned at first record).
    pub tid: u32,
    /// Global sequence number (total order across threads).
    pub seq: u64,
    /// Nanoseconds since the recorder epoch.
    pub ts_ns: u64,
    /// Span or op duration (0 for instants and counters).
    pub dur_ns: u64,
    /// Counter value, or a flight op's session id or batch size.
    pub value: u64,
    /// Causal trace id stamped from the thread's current-trace cell at
    /// record time (0 = no trace). See [`crate::tracectx`].
    pub trace: u128,
}

/// Per-thread span ring capacity (events).
const SPAN_CAPACITY: usize = 1 << 14;

/// Span events kept from exited threads, across all of them.
const SPAN_RETIRED_CAPACITY: usize = 1 << 16;

/// The contents of a [`Ring`].
#[derive(Debug)]
struct Slots {
    events: Vec<Event>,
    /// Oldest event once `events` is full (and the next one overwritten).
    head: usize,
    capacity: usize,
    /// Events overwritten because the ring was full.
    overwritten: u64,
}

impl Slots {
    fn push(&mut self, ev: Event) {
        if self.events.len() < self.capacity {
            if self.events.capacity() == 0 {
                // Reserved on the first event, so a thread that never
                // records holds no slots and no later push allocates.
                self.events.reserve_exact(self.capacity);
            }
            self.events.push(ev);
        } else {
            self.events[self.head] = ev;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
            self.overwritten += 1;
        }
    }

    /// Appends the events oldest-first.
    fn copy_into(&self, out: &mut Vec<Event>) {
        out.extend_from_slice(&self.events[self.head..]);
        out.extend_from_slice(&self.events[..self.head]);
    }

    fn clear(&mut self) {
        self.events.clear();
        self.head = 0;
    }

    /// Merges `events` in, keeping the newest `capacity` by `seq`; the
    /// rest count as overwritten.
    fn absorb(&mut self, mut events: Vec<Event>) {
        if events.is_empty() {
            return;
        }
        self.copy_into(&mut events);
        events.sort_by_key(|e| e.seq);
        self.clear();
        for ev in events {
            self.push(ev);
        }
    }
}

/// A fixed-capacity event buffer behind its own mutex. When full it
/// overwrites the oldest event; reading copies without consuming.
#[derive(Debug)]
pub(crate) struct Ring(Mutex<Slots>);

impl Ring {
    const fn new(capacity: usize) -> Ring {
        Ring(Mutex::new(Slots {
            events: Vec::new(),
            head: 0,
            capacity,
            overwritten: 0,
        }))
    }

    fn lock(&self) -> MutexGuard<'_, Slots> {
        // Every `Slots` update leaves it consistent, so the guard of a
        // holder that panicked is safe to reuse.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The two recorders sharing each thread's rings; the discriminant
/// indexes [`ThreadRings`] and [`RETIRED`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Recorder {
    /// Spans, markers and counters (gated by [`enabled`]).
    Spans = 0,
    /// Flight ops (always on).
    Flight = 1,
}

/// One thread's rings, indexed by [`Recorder`].
type ThreadRings = [Ring; 2];

static THREADS: ThreadRegistry<ThreadRings> = ThreadRegistry::new();

/// Events of exited threads, indexed by [`Recorder`].
static RETIRED: [Ring; 2] = [
    Ring::new(SPAN_RETIRED_CAPACITY),
    Ring::new(FLIGHT_RETIRED_CAPACITY),
];

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SEQ: AtomicU64 = AtomicU64::new(0);

struct ThreadHandle {
    rings: Arc<ThreadRings>,
    tid: u32,
}

thread_local! {
    static HANDLE: ThreadHandle = {
        let rings = Arc::new([Ring::new(SPAN_CAPACITY), Ring::new(FLIGHT_CAPACITY)]);
        let tid = THREADS.alloc_tid();
        THREADS.insert(Arc::clone(&rings));
        ThreadHandle { rings, tid }
    };
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds on the recorder epoch, pinning it on the first call. The
/// flight recorder uses it directly, since it timestamps even while span
/// recording is disabled.
#[inline]
pub(crate) fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Turns recording on. The first call pins the trace epoch.
pub fn enable() {
    let _ = epoch();
    ENABLED.store(true, Ordering::Release);
}

/// Turns recording off. Already-recorded events stay readable.
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Whether recording is on. One relaxed load — callers may use this to
/// skip argument computation entirely.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Stamps `ev` with a sequence number, the current trace (unless it
/// carries one) and the thread id, and stores it in the calling thread's
/// ring for `to`.
#[inline]
pub(crate) fn record(to: Recorder, mut ev: Event) {
    ev.seq = SEQ.fetch_add(1, Ordering::Relaxed);
    if ev.trace == 0 {
        ev.trace = crate::tracectx::current_raw();
    }
    HANDLE.with(|h| {
        ev.tid = h.tid;
        h.rings[to as usize].lock().push(ev);
    });
}

/// Copies `from`'s events, sequence-ordered, out of every thread's ring
/// and the retired ring; `clear` empties what was copied. Rings of exited
/// threads are folded into both recorders' retired rings and pruned.
pub(crate) fn collect(from: Recorder, clear: bool) -> Vec<Event> {
    // Lock order: retired rings, registry, thread ring. Holding the
    // retired rings across the sweep keeps a concurrent reader from seeing
    // a thread pruned from the registry but not yet folded.
    let mut retired = RETIRED.each_ref().map(Ring::lock);
    let mut exited: [Vec<Event>; 2] = Default::default();
    let mut out = Vec::new();
    THREADS.sweep(|rings, live| {
        if live {
            let mut ring = rings[from as usize].lock();
            ring.copy_into(&mut out);
            if clear {
                ring.clear();
            }
        } else {
            for ((ring, into), retired) in rings.iter().zip(&mut exited).zip(&mut retired) {
                let ring = ring.lock();
                ring.copy_into(into);
                retired.overwritten += ring.overwritten;
            }
        }
    });
    for (retired, exited) in retired.iter_mut().zip(exited) {
        retired.absorb(exited);
    }
    let retired = &mut retired[from as usize];
    retired.copy_into(&mut out);
    if clear {
        retired.clear();
    }
    out.sort_by_key(|e| e.seq);
    out
}

/// Records a point-in-time marker.
#[inline]
pub fn instant(cat: &'static str, name: &'static str) {
    if !enabled() {
        return;
    }
    record(
        Recorder::Spans,
        Event {
            name,
            cat,
            kind: EventKind::Instant,
            ts_ns: now_ns(),
            ..Event::default()
        },
    );
}

/// Records a counter sample (rendered as a Chrome counter track).
#[inline]
pub fn counter(cat: &'static str, name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    record(
        Recorder::Spans,
        Event {
            name,
            cat,
            kind: EventKind::Counter,
            ts_ns: now_ns(),
            value,
            ..Event::default()
        },
    );
}

/// Records a completed span with an explicit start and duration — used by
/// instrumentation that measures a phase itself (e.g. accumulated
/// predictor time) rather than via a guard.
#[inline]
pub fn span_at(cat: &'static str, name: &'static str, ts_ns: u64, dur_ns: u64) {
    if !enabled() {
        return;
    }
    record(
        Recorder::Spans,
        Event {
            name,
            cat,
            kind: EventKind::Span,
            ts_ns,
            dur_ns,
            ..Event::default()
        },
    );
}

/// Nanoseconds since the recorder epoch (0 until first enable). Useful
/// with [`span_at`].
#[inline]
pub fn timestamp_ns() -> u64 {
    if EPOCH.get().is_some() {
        now_ns()
    } else {
        0
    }
}

/// RAII span: created by [`span`], records a complete event on drop.
#[derive(Debug)]
#[must_use = "a span measures the scope it lives in"]
pub struct SpanGuard {
    start_ns: u64,
    name: &'static str,
    cat: &'static str,
    armed: bool,
}

impl SpanGuard {
    /// The span's start timestamp (0 when recording was off at entry).
    pub fn start_ns(&self) -> u64 {
        self.start_ns
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed || !enabled() {
            return;
        }
        let end = now_ns();
        record(
            Recorder::Spans,
            Event {
                name: self.name,
                cat: self.cat,
                kind: EventKind::Span,
                ts_ns: self.start_ns,
                dur_ns: end.saturating_sub(self.start_ns),
                ..Event::default()
            },
        );
    }
}

/// Opens a span covering the guard's lifetime. When recording is off this
/// is a branch and nothing else (no clock read).
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            start_ns: 0,
            name,
            cat,
            armed: false,
        };
    }
    SpanGuard {
        start_ns: now_ns(),
        name,
        cat,
        armed: true,
    }
}

/// A sequence-ordered copy of the newest span events of every thread,
/// exited ones included. Nothing is consumed: concurrent and repeated
/// snapshots all see the same events until newer ones overwrite them.
pub fn snapshot_events() -> Vec<Event> {
    collect(Recorder::Spans, false)
}

/// Like [`snapshot_events`], then empties every span ring, so the next
/// call returns only events recorded after this one.
pub fn drain_events() -> Vec<Event> {
    collect(Recorder::Spans, true)
}

/// Span events overwritten in full rings since process start.
pub fn dropped_events() -> u64 {
    // The retired lock keeps a concurrent fold from moving a ring's count
    // between the two terms.
    let retired = RETIRED[Recorder::Spans as usize].lock();
    let mut n = retired.overwritten;
    THREADS.for_each(|rings| n += rings[Recorder::Spans as usize].lock().overwritten);
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    // The enable flag is process-global and the test runner is
    // multi-threaded: every test that records or drains spans takes this
    // lock so no test flips the flag or clears the rings under another.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn span_records_duration() {
        let _s = serial();
        enable();
        {
            let _g = span("test", "span_records_duration");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let evs = drain_events();
        let ev = evs
            .iter()
            .find(|e| e.name == "span_records_duration")
            .expect("span recorded");
        assert_eq!(ev.kind, EventKind::Span);
        assert!(ev.dur_ns >= 1_000_000, "dur {} too short", ev.dur_ns);
    }

    #[test]
    fn disabled_recorder_is_silent() {
        let _s = serial();
        enable();
        let _ = drain_events();
        disable();
        {
            let _g = span("test", "disabled_recorder_is_silent");
            instant("test", "disabled_recorder_is_silent");
            counter("test", "disabled_recorder_is_silent", 7);
        }
        let evs = drain_events();
        assert!(!evs.iter().any(|e| e.name == "disabled_recorder_is_silent"));
        enable();
    }

    #[test]
    fn counters_and_instants_carry_values() {
        let _s = serial();
        enable();
        counter("test", "counters_carry_values", 42);
        instant("test", "instants_carry_ts");
        let evs = drain_events();
        let c = evs
            .iter()
            .find(|e| e.name == "counters_carry_values")
            .expect("counter");
        assert_eq!(c.kind, EventKind::Counter);
        assert_eq!(c.value, 42);
        assert!(evs.iter().any(|e| e.name == "instants_carry_ts"));
    }

    #[test]
    fn multithreaded_events_are_sequence_ordered() {
        let _s = serial();
        enable();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..500 {
                        instant("test", "mt_seq");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let evs: Vec<Event> = drain_events()
            .into_iter()
            .filter(|e| e.name == "mt_seq")
            .collect();
        assert_eq!(evs.len(), 2000);
        for w in evs.windows(2) {
            assert!(w[0].seq < w[1].seq, "drain must be sequence-ordered");
        }
        // Distinct producer threads got distinct tids.
        let tids: std::collections::HashSet<u32> = evs.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 4);
    }

    #[test]
    fn full_ring_overwrites_the_oldest() {
        let _s = serial();
        enable();
        let before = dropped_events();
        let newest = std::thread::spawn(|| {
            for i in 0..(SPAN_CAPACITY + 100) {
                counter("test", "overflow", i as u64);
            }
            snapshot_events()
                .into_iter()
                .filter(|e| e.name == "overflow")
                .map(|e| e.value)
                .collect::<Vec<u64>>()
        })
        .join()
        .unwrap();
        assert!(dropped_events() >= before + 100);
        let expect: Vec<u64> = (100..(SPAN_CAPACITY + 100) as u64).collect();
        assert_eq!(newest, expect, "ring keeps the newest, oldest-first");
        let _ = drain_events();
    }

    #[test]
    fn events_are_stamped_with_the_current_trace() {
        let _s = serial();
        enable();
        let _ = drain_events();
        let id = crate::tracectx::TraceId::new(0xABCD_EF01).unwrap();
        {
            let _t = crate::tracectx::TraceScope::enter(Some(id));
            instant("test", "trace_stamped");
            let _g = span("test", "trace_stamped_span");
        }
        instant("test", "trace_unstamped");
        let evs = drain_events();
        let stamped = evs.iter().find(|e| e.name == "trace_stamped").unwrap();
        assert_eq!(stamped.trace, id.raw());
        let span_ev = evs.iter().find(|e| e.name == "trace_stamped_span").unwrap();
        assert_eq!(span_ev.trace, id.raw());
        let bare = evs.iter().find(|e| e.name == "trace_unstamped").unwrap();
        assert_eq!(bare.trace, 0);
    }

    #[test]
    fn exited_thread_spans_survive_repeated_and_concurrent_snapshots() {
        let _s = serial();
        enable();
        let count = |round: u64| {
            snapshot_events()
                .iter()
                .filter(|e| e.name == "exited_thread_span" && e.value == round)
                .count()
        };
        for round in 0..64u64 {
            std::thread::spawn(move || counter("test", "exited_thread_span", round))
                .join()
                .unwrap();
            // Two readers released together race to fold the exited
            // thread's ring into the retired ring: neither may miss it.
            let start = Arc::new(std::sync::Barrier::new(2));
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let start = Arc::clone(&start);
                    std::thread::spawn(move || {
                        start.wait();
                        count(round)
                    })
                })
                .collect();
            for r in readers {
                assert_eq!(r.join().unwrap(), 1, "round {round}");
            }
        }
        // Later snapshots still read them from the retired ring.
        for _ in 0..2 {
            assert_eq!((0..64).map(count).sum::<usize>(), 64);
        }
        let _ = drain_events();
    }
}
