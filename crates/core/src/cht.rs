//! The Collision History Table (CHT) and prediction strategy (paper §III-D).
//!
//! Each CHT entry holds two saturating counters, `COLL` and `NONCOLL`,
//! counting past colliding and collision-free CDQs that hashed to the entry.
//! A CDQ is *predicted colliding* when `COLL > S × NONCOLL`; lower `S` makes
//! the predictor more aggressive. Collision-free outcomes update the table
//! only with probability `U` (reduced update traffic); colliding outcomes
//! always update. The table is reset after every motion-planning query
//! because obstacles may have moved.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// The prediction strategy parameter `S` (`COLL > S × NONCOLL`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Strategy {
    s: f64,
}

impl Strategy {
    /// Creates a strategy with weight `s`.
    ///
    /// # Panics
    ///
    /// Panics when `s` is negative or not finite.
    pub fn new(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "S must be a finite non-negative weight"
        );
        Strategy { s }
    }

    /// The hardware form `COLL > NONCOLL >> x`, i.e. `S = 2^-x`.
    ///
    /// Every shift width is valid: `x >= 1075` underflows `2^-x` to `0.0`,
    /// which is simply [`Strategy::most_aggressive`]. (The earlier
    /// `1u32 << x` form panicked in debug builds for `x >= 32` and silently
    /// wrapped to `S = 1.0` in release.)
    pub fn from_shift(x: u32) -> Self {
        // Clamp the exponent so the i32 cast cannot wrap; 2^-1074 is the
        // smallest subnormal, anything beyond is exactly 0.0 anyway.
        Strategy::new(2f64.powi(-(x.min(1075) as i32)))
    }

    /// The most aggressive strategy (`S = 0`): any recorded collision in the
    /// entry predicts a collision. With `S = 0` the CHT needs only one bit
    /// per entry.
    pub fn most_aggressive() -> Self {
        Strategy::new(0.0)
    }

    /// The paper's proposed future-work heuristic (§VI-A1): pick `S` from an
    /// estimate of environmental obstacle density ("e.g., the number of
    /// voxels"). Low clutter favors recall (aggressive, small `S`); high
    /// clutter favors precision (large `S`). `clutter` is the occupied
    /// fraction of the workspace, e.g.
    /// `Environment::clutter_fraction` in `copred-collision`, or a voxel count
    /// ratio from the mapping pipeline.
    ///
    /// # Panics
    ///
    /// Panics when `clutter` is not in `[0, 1]`.
    pub fn adaptive_for_clutter(clutter: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&clutter),
            "clutter must be a fraction in [0, 1], got {clutter}"
        );
        // Thresholds from the Fig. 13 sweep: the low-density optimum is the
        // aggressive end, the high-density optimum is S = 2, with S = 1 in
        // between.
        if clutter < 0.03 {
            Strategy::new(0.0)
        } else if clutter < 0.12 {
            Strategy::new(1.0)
        } else {
            Strategy::new(2.0)
        }
    }

    /// The weight `S`.
    pub fn s(&self) -> f64 {
        self.s
    }

    /// The prediction rule.
    #[inline]
    pub fn predicts(&self, coll: u8, noncoll: u8) -> bool {
        f64::from(coll) > self.s * f64::from(noncoll)
    }
}

/// Access-traffic counters for energy modeling and the U-parameter studies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChtStats {
    /// Prediction lookups served.
    pub reads: u64,
    /// Updates written to the table.
    pub writes: u64,
    /// Collision-free updates skipped by the `U` policy.
    pub skipped_updates: u64,
}

/// Sizing and policy parameters of a CHT instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChtParams {
    /// Address width: the table has `2^bits` entries.
    pub bits: u32,
    /// Saturating-counter width per field (the paper's hardware uses 4-bit
    /// counters; 1-bit entries are the `S = 0` degenerate form that stores
    /// only "a collision was seen").
    pub counter_bits: u32,
    /// Prediction strategy `S`.
    pub strategy: Strategy,
    /// Update probability `U` for collision-free CDQs (colliding CDQs always
    /// update).
    pub update_fraction: f64,
}

impl ChtParams {
    /// The paper's evaluation setup for robotic arms: 4096 × 8-bit entries,
    /// `S = 1`, `U = 0.125` (§VI-B).
    pub fn paper_arm() -> Self {
        ChtParams {
            bits: 12,
            counter_bits: 4,
            strategy: Strategy::new(1.0),
            update_fraction: 0.125,
        }
    }

    /// The paper's 2D path-planning setup: 1024 × 8-bit entries.
    pub fn paper_2d() -> Self {
        ChtParams {
            bits: 10,
            ..Self::paper_arm()
        }
    }

    /// The performance-evaluation setup of §VI-B2: 4096 × 1-bit entries with
    /// `S = 0`, `U = 0`.
    pub fn paper_1bit() -> Self {
        ChtParams {
            bits: 12,
            counter_bits: 1,
            strategy: Strategy::most_aggressive(),
            update_fraction: 0.0,
        }
    }

    /// Number of entries.
    pub fn entries(&self) -> usize {
        1usize << self.bits.min(63)
    }

    /// Storage bits per entry: `2 × counter_bits`, or a single bit when the
    /// counters are 1-bit wide (NONCOLL is not stored for `S = 0`).
    pub fn entry_bits(&self) -> u32 {
        if self.counter_bits == 1 {
            1
        } else {
            2 * self.counter_bits
        }
    }

    /// Total table capacity in bits (SRAM sizing for the area/energy model).
    pub fn total_bits(&self) -> u64 {
        self.entries() as u64 * u64::from(self.entry_bits())
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Entry {
    coll: u8,
    noncoll: u8,
}

/// Backing store: dense for hardware-sized tables, sparse for the large
/// C-space hash studies (e.g. POSE with 28-bit codes).
#[derive(Debug, Clone)]
enum Storage {
    Dense(Vec<Entry>),
    Sparse(HashMap<u64, Entry>),
}

/// Widest address for which the table is allocated densely.
const DENSE_BITS_LIMIT: u32 = 22;

/// The Collision History Table.
///
/// # Examples
///
/// ```
/// use copred_core::{Cht, ChtParams};
///
/// let mut cht = Cht::new(ChtParams::paper_arm(), 42);
/// assert!(!cht.predict(100));      // empty table predicts nothing
/// cht.observe(100, true);          // a colliding CDQ updates COLL
/// assert!(cht.predict(100));       // ... and now the entry predicts
/// cht.reset();                     // new planning query: history cleared
/// assert!(!cht.predict(100));
/// ```
#[derive(Debug, Clone)]
pub struct Cht {
    params: ChtParams,
    storage: Storage,
    stats: ChtStats,
    rng: StdRng,
    seed: u64,
}

impl Cht {
    /// Creates an empty table. `seed` drives the random `U`-policy sampling
    /// (the hardware uses an RNG in the Query Update Unit).
    pub fn new(params: ChtParams, seed: u64) -> Self {
        assert!(
            params.bits >= 1 && params.bits <= 63,
            "CHT needs 1..=63 address bits"
        );
        assert!(
            params.counter_bits >= 1 && params.counter_bits <= 8,
            "counter width must be 1..=8 bits"
        );
        assert!(
            (0.0..=1.0).contains(&params.update_fraction),
            "U must lie in [0, 1]"
        );
        let storage = if params.bits <= DENSE_BITS_LIMIT {
            Storage::Dense(vec![Entry::default(); params.entries()])
        } else {
            Storage::Sparse(HashMap::new())
        };
        Cht {
            params,
            storage,
            stats: ChtStats::default(),
            rng: StdRng::seed_from_u64(seed),
            seed,
        }
    }

    /// The table's parameters.
    pub fn params(&self) -> &ChtParams {
        &self.params
    }

    /// Access statistics accumulated since construction or the last
    /// [`Self::reset_stats`].
    pub fn stats(&self) -> ChtStats {
        self.stats
    }

    /// Clears the access statistics.
    pub fn reset_stats(&mut self) {
        self.stats = ChtStats::default();
    }

    fn mask(&self) -> u64 {
        (1u64 << self.params.bits) - 1
    }

    fn entry(&self, code: u64) -> Entry {
        let addr = code & self.mask();
        match &self.storage {
            Storage::Dense(v) => v[addr as usize],
            Storage::Sparse(m) => m.get(&addr).copied().unwrap_or_default(),
        }
    }

    fn entry_mut(&mut self, code: u64) -> &mut Entry {
        let addr = code & self.mask();
        match &mut self.storage {
            Storage::Dense(v) => &mut v[addr as usize],
            Storage::Sparse(m) => m.entry(addr).or_default(),
        }
    }

    /// Raw counters `(COLL, NONCOLL)` of the entry `code` maps to.
    pub fn counters(&self, code: u64) -> (u8, u8) {
        let e = self.entry(code);
        (e.coll, e.noncoll)
    }

    /// Overwrites the raw counters of the entry `code` maps to — the
    /// serialization hook used by `copred-store` to restore a table from a
    /// snapshot image. Values are clamped to the counter width so a decoded
    /// image can never hold an unrepresentable state.
    pub fn set_counters(&mut self, code: u64, coll: u8, noncoll: u8) {
        let max = ((1u32 << self.params.counter_bits) - 1) as u8;
        let e = self.entry_mut(code);
        e.coll = coll.min(max);
        e.noncoll = noncoll.min(max);
    }

    /// Prediction lookup: does the entry predict a collision?
    pub fn predict(&mut self, code: u64) -> bool {
        self.stats.reads += 1;
        let e = self.entry(code);
        self.params.strategy.predicts(e.coll, e.noncoll)
    }

    /// Prediction lookup without touching the access statistics (for
    /// instrumentation and tests).
    pub fn peek(&self, code: u64) -> bool {
        let e = self.entry(code);
        self.params.strategy.predicts(e.coll, e.noncoll)
    }

    /// Records the outcome of an executed CDQ. Colliding outcomes always
    /// update `COLL`; collision-free outcomes update `NONCOLL` with
    /// probability `U`.
    pub fn observe(&mut self, code: u64, colliding: bool) {
        let max = ((1u32 << self.params.counter_bits) - 1) as u8;
        let single_bit = self.params.counter_bits == 1;
        if colliding {
            self.stats.writes += 1;
            let e = self.entry_mut(code);
            e.coll = e.coll.saturating_add(1).min(max);
        } else if single_bit {
            // 1-bit entries store only the collision bit; free outcomes are
            // not recorded at all.
            self.stats.skipped_updates += 1;
        } else if self.params.update_fraction > 0.0
            && self.rng.gen::<f64>() < self.params.update_fraction
        {
            self.stats.writes += 1;
            let e = self.entry_mut(code);
            e.noncoll = e.noncoll.saturating_add(1).min(max);
        } else {
            self.stats.skipped_updates += 1;
        }
    }

    /// Clears every entry — performed "after each motion planning query, as
    /// obstacle positions might change" (paper §IV). Also reseeds the
    /// `U`-policy RNG so a reset table replays identically.
    pub fn reset(&mut self) {
        match &mut self.storage {
            Storage::Dense(v) => v.iter_mut().for_each(|e| *e = Entry::default()),
            Storage::Sparse(m) => m.clear(),
        }
        self.rng = StdRng::seed_from_u64(self.seed);
    }

    /// Number of entries with any recorded history (density measurement for
    /// the hash-function studies).
    pub fn populated_entries(&self) -> usize {
        match &self.storage {
            Storage::Dense(v) => v.iter().filter(|e| e.coll > 0 || e.noncoll > 0).count(),
            Storage::Sparse(m) => m.values().filter(|e| e.coll > 0 || e.noncoll > 0).count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cht(s: f64, u: f64) -> Cht {
        Cht::new(
            ChtParams {
                bits: 8,
                counter_bits: 4,
                strategy: Strategy::new(s),
                update_fraction: u,
            },
            7,
        )
    }

    #[test]
    fn empty_table_predicts_nothing() {
        let mut t = cht(0.0, 1.0);
        for code in 0..256 {
            assert!(!t.predict(code));
        }
    }

    #[test]
    fn single_collision_flips_prediction() {
        let mut t = cht(1.0, 1.0);
        t.observe(5, true);
        assert!(t.predict(5));
        assert!(!t.predict(6));
    }

    #[test]
    fn strategy_weights_noncoll() {
        // With S = 1: COLL=1, NONCOLL=1 -> 1 > 1 is false.
        let mut t = cht(1.0, 1.0);
        t.observe(9, true);
        t.observe(9, false);
        assert!(!t.predict(9));
        // With S = 0: any collision predicts regardless of NONCOLL.
        let mut t0 = cht(0.0, 1.0);
        t0.observe(9, true);
        for _ in 0..10 {
            t0.observe(9, false);
        }
        assert!(t0.predict(9));
        // With S = 2: needs COLL > 2*NONCOLL.
        let mut t2 = cht(2.0, 1.0);
        t2.observe(9, true);
        t2.observe(9, false);
        assert!(!t2.predict(9));
        t2.observe(9, true);
        t2.observe(9, true);
        assert!(t2.predict(9));
    }

    #[test]
    fn adaptive_strategy_tracks_clutter() {
        assert_eq!(Strategy::adaptive_for_clutter(0.0).s(), 0.0);
        assert_eq!(Strategy::adaptive_for_clutter(0.01).s(), 0.0);
        assert_eq!(Strategy::adaptive_for_clutter(0.08).s(), 1.0);
        assert_eq!(Strategy::adaptive_for_clutter(0.3).s(), 2.0);
        assert_eq!(Strategy::adaptive_for_clutter(1.0).s(), 2.0);
        // Monotone: more clutter never lowers S.
        let mut prev = -1.0;
        for i in 0..=20 {
            let s = Strategy::adaptive_for_clutter(i as f64 / 20.0).s();
            assert!(s >= prev);
            prev = s;
        }
    }

    #[test]
    #[should_panic(expected = "clutter must be a fraction")]
    fn adaptive_strategy_rejects_bad_fraction() {
        let _ = Strategy::adaptive_for_clutter(1.5);
    }

    #[test]
    fn shift_form_matches_power_of_two() {
        assert_eq!(Strategy::from_shift(0).s(), 1.0);
        assert_eq!(Strategy::from_shift(1).s(), 0.5);
        assert_eq!(Strategy::from_shift(3).s(), 0.125);
    }

    #[test]
    fn shift_form_survives_wide_shifts() {
        // Regression: `1u32 << 32` panicked in debug builds and wrapped to
        // S = 1.0 in release; the strategy must stay 2^-x for any width.
        assert_eq!(Strategy::from_shift(31).s(), 2f64.powi(-31));
        assert_eq!(Strategy::from_shift(32).s(), 2f64.powi(-32));
        assert_ne!(Strategy::from_shift(32).s(), 1.0, "no silent wrap");
        assert_eq!(Strategy::from_shift(64).s(), 2f64.powi(-64));
        // Deep in the subnormal range `powi` may round to zero a little
        // early; what matters is that S stays finite, tiny, and reaches
        // exactly 0.0 (the most aggressive strategy) rather than wrapping
        // back to 1.0.
        assert!(Strategy::from_shift(1022).s() > 0.0);
        assert!(Strategy::from_shift(1022).s() <= 2f64.powi(-1022));
        assert_eq!(Strategy::from_shift(1075).s(), 0.0);
        assert_eq!(Strategy::from_shift(u32::MAX).s(), 0.0);
        // Monotone: a wider shift never raises S.
        let mut prev = f64::INFINITY;
        for x in 0..80 {
            let s = Strategy::from_shift(x).s();
            assert!(s < prev, "S must strictly fall until underflow");
            prev = s;
        }
    }

    #[test]
    fn counters_saturate_at_width() {
        let mut t = cht(1.0, 1.0);
        for _ in 0..100 {
            t.observe(3, true);
            t.observe(3, false);
        }
        let (c, n) = t.counters(3);
        assert_eq!(c, 15);
        assert_eq!(n, 15);
    }

    #[test]
    fn update_fraction_zero_skips_all_free_updates() {
        let mut t = cht(1.0, 0.0);
        for _ in 0..50 {
            t.observe(1, false);
        }
        assert_eq!(t.counters(1), (0, 0));
        assert_eq!(t.stats().skipped_updates, 50);
        assert_eq!(t.stats().writes, 0);
    }

    #[test]
    fn update_fraction_statistics() {
        let mut t = cht(1.0, 0.25);
        let trials = 4000;
        for i in 0..trials {
            t.observe(i % 256, false);
        }
        let w = t.stats().writes as f64 / trials as f64;
        assert!((w - 0.25).abs() < 0.05, "measured U = {w}");
    }

    #[test]
    fn colliding_updates_never_skipped() {
        let mut t = cht(1.0, 0.0);
        for _ in 0..10 {
            t.observe(2, true);
        }
        assert_eq!(t.counters(2).0, 10);
    }

    #[test]
    fn reset_clears_history_and_prediction() {
        let mut t = cht(0.5, 1.0);
        t.observe(77, true);
        assert!(t.predict(77));
        t.reset();
        assert!(!t.predict(77));
        assert_eq!(t.populated_entries(), 0);
    }

    #[test]
    fn address_masking_aliases_high_bits() {
        let mut t = cht(0.0, 1.0);
        t.observe(0x100 + 5, true); // aliases onto entry 5 in an 8-bit table
        assert!(t.predict(5));
    }

    #[test]
    fn sparse_backend_for_wide_codes() {
        let params = ChtParams {
            bits: 30,
            counter_bits: 4,
            strategy: Strategy::new(1.0),
            update_fraction: 1.0,
        };
        let mut t = Cht::new(params, 1);
        t.observe(123_456_789, true);
        assert!(t.predict(123_456_789));
        assert!(!t.predict(987));
        assert_eq!(t.populated_entries(), 1);
    }

    #[test]
    fn single_bit_mode_stores_only_collisions() {
        let mut t = Cht::new(ChtParams::paper_1bit(), 3);
        t.observe(4, false);
        assert!(!t.predict(4));
        t.observe(4, true);
        assert!(t.predict(4));
        assert_eq!(t.params().entry_bits(), 1);
    }

    #[test]
    fn paper_parameter_presets() {
        let arm = ChtParams::paper_arm();
        assert_eq!(arm.entries(), 4096);
        assert_eq!(arm.entry_bits(), 8);
        assert_eq!(arm.total_bits(), 4096 * 8);
        let planar = ChtParams::paper_2d();
        assert_eq!(planar.entries(), 1024);
        let one = ChtParams::paper_1bit();
        assert_eq!(one.total_bits(), 4096);
    }

    #[test]
    fn stats_count_reads() {
        let mut t = cht(1.0, 1.0);
        t.predict(0);
        t.predict(1);
        assert_eq!(t.stats().reads, 2);
        t.reset_stats();
        assert_eq!(t.stats().reads, 0);
    }

    #[test]
    #[should_panic(expected = "U must lie in [0, 1]")]
    fn invalid_update_fraction_rejected() {
        let _ = Cht::new(
            ChtParams {
                bits: 4,
                counter_bits: 4,
                strategy: Strategy::new(1.0),
                update_fraction: 1.5,
            },
            0,
        );
    }
}
