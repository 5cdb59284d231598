//! Lock-free service metrics: counters, latency quantiles, and the
//! per-session prediction-quality numbers the paper reports (precision and
//! recall of the CHT, CDQs issued versus saved).
//!
//! Everything here is atomics so the hot path — connection threads
//! recording a batch — never takes a lock; the STATS verb reads a
//! relaxed snapshot.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets: 4 exact low buckets plus 4 sub-buckets per
/// octave for the 62 octaves whose values are ≥ 4.
const HIST_BUCKETS: usize = 4 + 62 * 4;

/// A traced sample displaces a bucket's exemplar once the stored one is
/// this many traced records old, even if it was slower — tail-sampling
/// must stay *recent* so the trace id still resolves in the flight
/// recorder and span buffers.
const EXEMPLAR_STALE_AFTER: u64 = 1024;

/// One bucket's exemplar slot: the trace id and value of the worst recent
/// traced sample that landed in the bucket. Writes go through a seqlock
/// (odd `version` = write in progress) so concurrent workers never
/// publish a torn (value, trace) pair; both sides are wait-free — a
/// contended writer simply skips (exemplars are best-effort), a reader
/// retries a bounded number of times.
#[derive(Debug, Default)]
struct ExemplarSlot {
    /// 0 = never written; odd = write in progress.
    version: AtomicU64,
    /// Sample value in nanoseconds.
    value: AtomicU64,
    /// Trace id, split across two words.
    trace_hi: AtomicU64,
    trace_lo: AtomicU64,
    /// Traced-record sequence number at the time of the write.
    stamp: AtomicU64,
}

impl ExemplarSlot {
    /// Best-effort write; loses gracefully under contention.
    fn offer(&self, ns: u64, trace: u128, stamp: u64) -> bool {
        let v = self.version.load(Ordering::Relaxed);
        if v & 1 == 1 {
            return false;
        }
        if v != 0 {
            let cur_val = self.value.load(Ordering::Relaxed);
            let cur_stamp = self.stamp.load(Ordering::Relaxed);
            let stale = stamp.saturating_sub(cur_stamp) > EXEMPLAR_STALE_AFTER;
            if ns < cur_val && !stale {
                return false;
            }
        }
        if self
            .version
            .compare_exchange(v, v + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return false;
        }
        self.value.store(ns, Ordering::Relaxed);
        self.trace_hi.store((trace >> 64) as u64, Ordering::Relaxed);
        self.trace_lo.store(trace as u64, Ordering::Relaxed);
        self.stamp.store(stamp, Ordering::Relaxed);
        self.version.store(v + 2, Ordering::Release);
        true
    }

    /// Coherent read, or `None` when empty or under sustained contention.
    fn read(&self) -> Option<(u64, u128)> {
        for _ in 0..8 {
            let v1 = self.version.load(Ordering::Acquire);
            if v1 == 0 {
                return None;
            }
            if v1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let ns = self.value.load(Ordering::Relaxed);
            let hi = self.trace_hi.load(Ordering::Relaxed);
            let lo = self.trace_lo.load(Ordering::Relaxed);
            if self.version.load(Ordering::Acquire) == v1 {
                return Some((ns, ((hi as u128) << 64) | lo as u128));
            }
        }
        None
    }
}

/// Streaming log-linear latency histogram (HDR-style): values 0–3 ns get
/// exact buckets, every larger octave `[2^k, 2^(k+1))` is split into 4
/// linear sub-buckets. Quantiles are read as the inclusive upper bound of
/// the bucket holding the requested rank, which bounds the relative error
/// by 5/4 (worst case at a sub-bucket's lower edge; ~2^0.25 ≈ 1.19×
/// typical) — a 2× improvement over the old one-bucket-per-octave layout,
/// still lock-free and allocation-free on the record path.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    /// Sum of all recorded samples (for Prometheus `_sum`).
    sum: AtomicU64,
    /// Per-bucket tail-sampling exemplars (worst recent traced sample).
    exemplars: [ExemplarSlot; HIST_BUCKETS],
    /// Traced samples seen (recency stamps for exemplar replacement).
    traced_seq: AtomicU64,
    /// Successful exemplar slot writes.
    exemplar_writes: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            exemplars: std::array::from_fn(|_| ExemplarSlot::default()),
            traced_seq: AtomicU64::new(0),
            exemplar_writes: AtomicU64::new(0),
        }
    }

    fn bucket_of(ns: u64) -> usize {
        if ns < 4 {
            return ns as usize;
        }
        let msb = 63 - ns.leading_zeros() as usize;
        let sub = ((ns >> (msb - 2)) & 3) as usize;
        4 + (msb - 2) * 4 + sub
    }

    /// Inclusive upper bound of bucket `i` — the largest value mapping to
    /// it. Reporting the inclusive bound keeps the error contract tight at
    /// sub-bucket edges (an exclusive bound would exceed 5/4× for a sample
    /// sitting exactly on one).
    fn bucket_bound(i: usize) -> u64 {
        if i < 4 {
            return i as u64;
        }
        let octave = (i - 4) / 4;
        let sub = ((i - 4) % 4) as u128;
        let bound = ((sub + 5) << octave) - 1;
        u64::try_from(bound).unwrap_or(u64::MAX)
    }

    /// Records one sample.
    pub fn record(&self, ns: u64) {
        self.buckets[Self::bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records one sample carrying a causal trace id, offering it as the
    /// bucket's exemplar. `trace` 0 degrades to a plain [`record`](Self::record).
    pub fn record_traced(&self, ns: u64, trace: u128) {
        self.record(ns);
        if trace == 0 {
            return;
        }
        let stamp = self.traced_seq.fetch_add(1, Ordering::Relaxed) + 1;
        if self.exemplars[Self::bucket_of(ns)].offer(ns, trace, stamp) {
            self.exemplar_writes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Successful exemplar slot updates (for `copred_trace_exemplars_total`).
    pub fn exemplar_count(&self) -> u64 {
        self.exemplar_writes.load(Ordering::Relaxed)
    }

    /// The exemplar attached to the `q`-quantile: the traced sample from
    /// the quantile's bucket, falling back to the nearest bucket above
    /// (deeper in the tail), then the nearest below. Returns the sample's
    /// value (ns) and trace id.
    pub fn quantile_exemplar(&self, q: f64) -> Option<(u64, u128)> {
        let i = self.quantile_bucket(q)?;
        for j in i..HIST_BUCKETS {
            if let Some(found) = self.exemplars[j].read() {
                return Some(found);
            }
        }
        for j in (0..i).rev() {
            if let Some(found) = self.exemplars[j].read() {
                return Some(found);
            }
        }
        None
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded samples in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Index of the bucket holding the `q`-quantile sample, or `None`
    /// when empty. `q` is clamped into `[0, 1]`.
    fn quantile_bucket(&self, q: f64) -> Option<usize> {
        let snapshot: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = snapshot.iter().sum();
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based.
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in snapshot.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(i);
            }
        }
        Some(HIST_BUCKETS - 1)
    }

    /// Inclusive upper bound (ns) of the bucket holding the `q`-quantile
    /// sample, or `None` when empty. `q` is clamped into `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.quantile_bucket(q).map(Self::bucket_bound)
    }
}

/// Per-session counters, owned by the registry entry and updated by
/// whichever worker executes the session's batches.
#[derive(Debug, Default)]
pub struct SessionMetrics {
    /// Motion/pose checks completed.
    pub checks: AtomicU64,
    /// CDQs actually executed.
    pub cdqs_issued: AtomicU64,
    /// CDQs the checked motions decomposed into.
    pub cdqs_total: AtomicU64,
    /// Checks that found a collision.
    pub collisions: AtomicU64,
    /// Predictor said colliding, CDQ was colliding.
    pub true_pos: AtomicU64,
    /// Predictor said colliding, CDQ was free.
    pub false_pos: AtomicU64,
    /// Predictor said free, CDQ was free.
    pub true_neg: AtomicU64,
    /// Predictor said free, CDQ was colliding.
    pub false_neg: AtomicU64,
}

impl SessionMetrics {
    /// CDQs skipped thanks to early exit: declared minus executed.
    pub fn cdqs_saved(&self) -> u64 {
        self.cdqs_total
            .load(Ordering::Relaxed)
            .saturating_sub(self.cdqs_issued.load(Ordering::Relaxed))
    }

    /// Fraction of collision predictions that were right, or `None` when
    /// the predictor never fired.
    pub fn precision(&self) -> Option<f64> {
        let tp = self.true_pos.load(Ordering::Relaxed);
        let fp = self.false_pos.load(Ordering::Relaxed);
        (tp + fp > 0).then(|| tp as f64 / (tp + fp) as f64)
    }

    /// Fraction of actually colliding CDQs the predictor flagged, or
    /// `None` when no executed CDQ collided.
    pub fn recall(&self) -> Option<f64> {
        let tp = self.true_pos.load(Ordering::Relaxed);
        let fneg = self.false_neg.load(Ordering::Relaxed);
        (tp + fneg > 0).then(|| tp as f64 / (tp + fneg) as f64)
    }

    /// Renders the ordered key/value pairs for a `stats <session>` reply.
    pub fn stat_lines(&self, mode: &str, occupancy: usize) -> Vec<(String, String)> {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed).to_string();
        let frac = |o: Option<f64>| o.map_or_else(|| "nan".to_string(), |v| format!("{v:.6}"));
        vec![
            ("mode".into(), mode.to_string()),
            ("checks".into(), g(&self.checks)),
            ("cdqs_issued".into(), g(&self.cdqs_issued)),
            ("cdqs_total".into(), g(&self.cdqs_total)),
            ("cdqs_saved".into(), self.cdqs_saved().to_string()),
            ("collisions".into(), g(&self.collisions)),
            ("true_pos".into(), g(&self.true_pos)),
            ("false_pos".into(), g(&self.false_pos)),
            ("true_neg".into(), g(&self.true_neg)),
            ("false_neg".into(), g(&self.false_neg)),
            ("precision".into(), frac(self.precision())),
            ("recall".into(), frac(self.recall())),
            ("cht_occupancy".into(), occupancy.to_string()),
        ]
    }
}

/// Server-wide counters plus the check-latency histogram.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Sessions ever opened.
    pub sessions_opened: AtomicU64,
    /// Sessions closed by the client.
    pub sessions_closed: AtomicU64,
    /// Sessions evicted by the LRU cap.
    pub sessions_evicted: AtomicU64,
    /// Requests parsed and dispatched.
    pub requests: AtomicU64,
    /// Requests rejected as malformed.
    pub bad_requests: AtomicU64,
    /// Requests bounced with `retry_after` backpressure.
    pub rejected: AtomicU64,
    /// Motion/pose checks completed across all sessions.
    pub checks: AtomicU64,
    /// CDQs executed across all sessions.
    pub cdqs_issued: AtomicU64,
    /// CDQs declared across all sessions.
    pub cdqs_total: AtomicU64,
    /// Sum of the CHT occupancy of evicted shards — learned state thrown
    /// away (or, with the store enabled, persisted) by LRU pressure.
    pub evicted_learned: AtomicU64,
    /// Check requests that carried a `trace` token.
    pub traced_requests: AtomicU64,
    /// Flight-recorder dumps served on demand (`dump` op, `/debug/flight`).
    pub flight_dumps: AtomicU64,
    /// Flight-recorder dumps fired by the latency threshold.
    pub flight_auto_dumps: AtomicU64,
    /// End-to-end check-batch service latency (enqueue → reply built).
    pub check_latency: LatencyHistogram,
}

impl Metrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Renders the ordered key/value pairs for a global `stats` reply.
    pub fn stat_lines(&self, sessions_open: usize) -> Vec<(String, String)> {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed).to_string();
        let q = |p: f64| {
            self.check_latency
                .quantile(p)
                .map_or_else(|| "nan".into(), |v| v.to_string())
        };
        vec![
            ("sessions_open".into(), sessions_open.to_string()),
            ("sessions_opened".into(), g(&self.sessions_opened)),
            ("sessions_closed".into(), g(&self.sessions_closed)),
            ("sessions_evicted".into(), g(&self.sessions_evicted)),
            ("requests".into(), g(&self.requests)),
            ("bad_requests".into(), g(&self.bad_requests)),
            ("rejected".into(), g(&self.rejected)),
            ("checks".into(), g(&self.checks)),
            ("cdqs_issued".into(), g(&self.cdqs_issued)),
            ("cdqs_total".into(), g(&self.cdqs_total)),
            ("evicted_learned".into(), g(&self.evicted_learned)),
            (
                "cdqs_saved".into(),
                self.cdqs_total
                    .load(Ordering::Relaxed)
                    .saturating_sub(self.cdqs_issued.load(Ordering::Relaxed))
                    .to_string(),
            ),
            (
                "latency_samples".into(),
                self.check_latency.count().to_string(),
            ),
            ("latency_p50_ns".into(), q(0.50)),
            ("latency_p95_ns".into(), q(0.95)),
            ("latency_p99_ns".into(), q(0.99)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log_linear() {
        let h = LatencyHistogram::new();
        // Exact low buckets.
        for v in 0..4u64 {
            assert_eq!(LatencyHistogram::bucket_of(v), v as usize);
            assert_eq!(LatencyHistogram::bucket_of(v) as u64, v);
        }
        // 4 sub-buckets per octave: 4..7 land in 4..=7, 8..15 in 8..=11.
        assert_eq!(LatencyHistogram::bucket_of(4), 4);
        assert_eq!(LatencyHistogram::bucket_of(7), 7);
        assert_eq!(LatencyHistogram::bucket_of(8), 8);
        assert_eq!(LatencyHistogram::bucket_of(9), 8);
        assert_eq!(LatencyHistogram::bucket_of(15), 11);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
        // Every value maps into range, bounds are monotone, and each
        // value is ≤ its bucket's inclusive bound.
        let mut prev = 0u64;
        for i in 0..HIST_BUCKETS {
            let b = LatencyHistogram::bucket_bound(i);
            assert!(i == 0 || b > prev, "bounds must increase at {i}");
            prev = b;
            assert_eq!(
                LatencyHistogram::bucket_of(b),
                i,
                "bound {b} must map back to its bucket"
            );
        }
        assert_eq!(LatencyHistogram::bucket_bound(HIST_BUCKETS - 1), u64::MAX);
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn quantiles_track_ranks() {
        let h = LatencyHistogram::new();
        // 90 fast samples (~1 µs), 10 slow (~1 ms).
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.50).unwrap();
        let p95 = h.quantile(0.95).unwrap();
        assert!(
            (1_000..2_048).contains(&p50),
            "p50 in the fast bucket, got {p50}"
        );
        assert!(p95 >= 1_000_000, "p95 in the slow bucket, got {p95}");
        assert!(h.quantile(0.0).unwrap() <= p50);
    }

    #[test]
    fn quantile_bounds_are_inclusive() {
        // Regression (tightened with the log-linear layout): the reported
        // bound must be the inclusive largest value of the sample's bucket
        // — an exclusive bound exceeds the error contract right at bucket
        // edges and reports 1 ns for a histogram holding only zeros. The
        // contract itself tightened from 2× (one bucket per octave) to
        // 5/4× (4 sub-buckets per octave).
        let zeros = LatencyHistogram::new();
        zeros.record(0);
        assert_eq!(zeros.quantile(1.0), Some(0));
        let ones = LatencyHistogram::new();
        ones.record(1);
        assert_eq!(ones.quantile(1.0), Some(1));
        for v in [
            1u64,
            2,
            3,
            4,
            5,
            7,
            8,
            1_000,
            1_024,
            1_025,
            999_999,
            1 << 20,
            (1 << 20) + 1,
            (5 << 18) - 1,
            5 << 18,
            u64::MAX,
        ] {
            let h = LatencyHistogram::new();
            h.record(v);
            let b = h.quantile(0.5).unwrap();
            assert!(
                v <= b && (b as f64) < 1.25 * v as f64,
                "bound {b} for sample {v} breaks the ≤5/4× contract"
            );
        }
    }

    #[test]
    fn exemplars_track_worst_recent_sample_per_bucket() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_exemplar(0.99), None);
        // Untraced samples never set exemplars.
        h.record(1_000_000);
        assert_eq!(h.quantile_exemplar(0.99), None);
        // A traced sample lands; the quantile exemplar resolves to it.
        h.record_traced(1_000_000, 0xAA);
        assert_eq!(h.quantile_exemplar(0.99), Some((1_000_000, 0xAA)));
        assert_eq!(h.exemplar_count(), 1);
        // A slower sample in the same bucket displaces it; a faster one
        // does not (until staleness).
        h.record_traced(1_100_000, 0xBB);
        assert_eq!(h.quantile_exemplar(0.99), Some((1_100_000, 0xBB)));
        h.record_traced(1_050_000, 0xCC);
        assert_eq!(h.quantile_exemplar(0.99), Some((1_100_000, 0xBB)));
        // Zero trace degrades to a plain record.
        h.record_traced(2_000_000, 0);
        assert_eq!(h.quantile_exemplar(1.0), Some((1_100_000, 0xBB)));
    }

    #[test]
    fn stale_exemplars_yield_to_recent_samples() {
        let h = LatencyHistogram::new();
        h.record_traced(1_000_000, 0xAA);
        // Age the slot past the staleness horizon with traced samples in
        // a different bucket, then offer a *faster* sample to the first.
        for _ in 0..(EXEMPLAR_STALE_AFTER + 1) {
            h.record_traced(10, 0xDD);
        }
        h.record_traced(950_000, 0xEE);
        // 950_000 and 1_000_000 share log-linear bucket? bucket_of puts
        // them both in the same octave sub-bucket — the stale 0xAA must
        // have been displaced by the recent 0xEE.
        assert_eq!(
            LatencyHistogram::bucket_of(950_000),
            LatencyHistogram::bucket_of(1_000_000)
        );
        let (ns, trace) = h.quantile_exemplar(1.0).unwrap();
        assert_eq!((ns, trace), (950_000, 0xEE));
    }

    #[test]
    fn exemplar_pairs_stay_coherent_under_concurrent_writers() {
        // Each writer records traced samples whose trace id is a pure
        // function of the value; a torn (value, trace) publication would
        // break that invariant for readers.
        let h = std::sync::Arc::new(LatencyHistogram::new());
        let derive = |ns: u64| ((ns as u128) << 64) | 0x5EED;
        let mut writers = Vec::new();
        for t in 0..4u64 {
            let h = std::sync::Arc::clone(&h);
            writers.push(std::thread::spawn(move || {
                for i in 0..5_000u64 {
                    // All values land in one bucket family around 1 ms so
                    // the writers genuinely contend per slot.
                    let ns = 1_000_000 + ((t * 5_000 + i) % 190_000);
                    h.record_traced(ns, derive(ns));
                }
            }));
        }
        let reader = {
            let h = std::sync::Arc::clone(&h);
            std::thread::spawn(move || {
                let mut seen = 0u64;
                for _ in 0..20_000 {
                    if let Some((ns, trace)) = h.quantile_exemplar(0.99) {
                        assert_eq!(trace, derive(ns), "torn exemplar: ns {ns} trace {trace:x}");
                        seen += 1;
                    }
                }
                seen
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        assert!(reader.join().unwrap() > 0, "reader observed exemplars");
        let (ns, trace) = h.quantile_exemplar(0.99).expect("final exemplar");
        assert_eq!(trace, derive(ns));
        assert!(h.exemplar_count() > 0);
    }

    #[test]
    fn histogram_sum_accumulates() {
        let h = LatencyHistogram::new();
        h.record(10);
        h.record(990);
        h.record(0);
        assert_eq!(h.sum_ns(), 1_000);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn precision_recall_edges() {
        let m = SessionMetrics::default();
        assert_eq!(m.precision(), None);
        assert_eq!(m.recall(), None);
        m.true_pos.store(3, Ordering::Relaxed);
        m.false_pos.store(1, Ordering::Relaxed);
        m.false_neg.store(1, Ordering::Relaxed);
        assert_eq!(m.precision(), Some(0.75));
        assert_eq!(m.recall(), Some(0.75));
        m.cdqs_total.store(10, Ordering::Relaxed);
        m.cdqs_issued.store(4, Ordering::Relaxed);
        assert_eq!(m.cdqs_saved(), 6);
    }

    #[test]
    fn stat_lines_are_parseable_pairs() {
        let m = Metrics::new();
        m.check_latency.record(5_000);
        let kv = m.stat_lines(2);
        assert!(kv.iter().any(|(k, v)| k == "sessions_open" && v == "2"));
        assert!(kv.iter().any(|(k, _)| k == "latency_p99_ns"));
        for (k, v) in &kv {
            assert!(!k.contains(' ') && !v.is_empty(), "{k}={v}");
        }
    }
}
