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

    /// The prediction rule `COLL > S × NONCOLL`.
    #[inline]
    pub fn predicts(&self, cell: Cell) -> bool {
        f64::from(cell.coll) > self.s * f64::from(cell.noncoll)
    }
}

/// One CHT entry: the `COLL` and `NONCOLL` saturating counters.
///
/// Every table in the workspace (this crate's [`Cht`], the shared
/// `ConcurrentCht`, and the store's snapshot image) holds its entries as
/// cells, so the update rule below is the only one. Counters are
/// `counter_bits` wide (`1..=8`); a 1-bit entry stores only `COLL`, the
/// paper's `S = 0` form, and never records a collision-free outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cell {
    /// Colliding outcomes seen.
    pub coll: u8,
    /// Collision-free outcomes recorded.
    pub noncoll: u8,
}

impl Cell {
    /// A cell holding these counter values, unclamped.
    pub const fn new(coll: u8, noncoll: u8) -> Self {
        Cell { coll, noncoll }
    }

    /// The lossless 16-bit form: `COLL` in the low byte, `NONCOLL` above.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.coll as u16 | (self.noncoll as u16) << 8
    }

    /// The inverse of [`Self::to_bits`].
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        Cell {
            coll: bits as u8,
            noncoll: (bits >> 8) as u8,
        }
    }

    /// Whether the entry has any recorded history.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.to_bits() == 0
    }

    /// Whether a table of this counter width records collision-free
    /// outcomes at all (every width but 1). Tables consult this before
    /// drawing for the `U` gate, so a 1-bit table draws nothing for them.
    #[inline]
    pub fn records_free(counter_bits: u32) -> bool {
        counter_bits > 1
    }

    /// The saturating maximum of a `counter_bits`-wide counter.
    #[inline]
    fn counter_max(counter_bits: u32) -> u8 {
        (u16::MAX >> (16 - counter_bits)) as u8
    }

    /// The cell after one applied outcome: `COLL` or `NONCOLL` plus one,
    /// saturating at the width's maximum. A free outcome leaves a 1-bit
    /// cell unchanged. The `U` gate is the table's and has already run.
    #[inline]
    #[must_use]
    pub fn apply(self, colliding: bool, counter_bits: u32) -> Self {
        let max = Self::counter_max(counter_bits);
        let bump = |v: u8| if v < max { v + 1 } else { max };
        if colliding {
            Cell {
                coll: bump(self.coll),
                ..self
            }
        } else if Self::records_free(counter_bits) {
            Cell {
                noncoll: bump(self.noncoll),
                ..self
            }
        } else {
            self
        }
    }

    /// Each counter capped at the width's maximum. Tables clamp every cell
    /// they load from an image, so none holds an unrepresentable state.
    #[must_use]
    pub fn clamp(self, counter_bits: u32) -> Self {
        let max = Self::counter_max(counter_bits);
        Cell {
            coll: self.coll.min(max),
            noncoll: self.noncoll.min(max),
        }
    }

    /// Whether either counter is pinned at the width's maximum.
    pub fn is_saturated(self, counter_bits: u32) -> bool {
        let max = Self::counter_max(counter_bits);
        self.coll == max || self.noncoll == max
    }

    /// The component-wise maximum: the join that merges two images of one
    /// table, since counters only grow under [`Self::apply`].
    #[must_use]
    pub fn max(self, other: Cell) -> Self {
        Cell {
            coll: self.coll.max(other.coll),
            noncoll: self.noncoll.max(other.noncoll),
        }
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
}

/// Backing store: dense for hardware-sized tables, sparse for the large
/// C-space hash studies (e.g. POSE with 28-bit codes).
#[derive(Debug, Clone)]
enum Storage {
    Dense(Vec<Cell>),
    Sparse(HashMap<u64, Cell>),
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
            Storage::Dense(vec![Cell::default(); params.entries()])
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

    /// The cell `code` maps to.
    pub fn cell(&self, code: u64) -> Cell {
        let addr = code & self.mask();
        match &self.storage {
            Storage::Dense(v) => v[addr as usize],
            Storage::Sparse(m) => m.get(&addr).copied().unwrap_or_default(),
        }
    }

    fn cell_mut(&mut self, code: u64) -> &mut Cell {
        let addr = code & self.mask();
        match &mut self.storage {
            Storage::Dense(v) => &mut v[addr as usize],
            Storage::Sparse(m) => m.entry(addr).or_default(),
        }
    }

    /// Prediction lookup: does the entry predict a collision?
    pub fn predict(&mut self, code: u64) -> bool {
        self.stats.reads += 1;
        self.params.strategy.predicts(self.cell(code))
    }

    /// Prediction lookup without touching the access statistics (for
    /// instrumentation and tests).
    pub fn peek(&self, code: u64) -> bool {
        self.params.strategy.predicts(self.cell(code))
    }

    /// Records the outcome of an executed CDQ. Colliding outcomes always
    /// update `COLL`; collision-free outcomes update `NONCOLL` with
    /// probability `U`.
    pub fn observe(&mut self, code: u64, colliding: bool) {
        let p = self.params;
        let applied = colliding
            || (Cell::records_free(p.counter_bits)
                && p.update_fraction > 0.0
                && self.rng.gen::<f64>() < p.update_fraction);
        if applied {
            self.stats.writes += 1;
            let cell = self.cell_mut(code);
            *cell = cell.apply(colliding, p.counter_bits);
        } else {
            self.stats.skipped_updates += 1;
        }
    }

    /// Clears every entry — performed "after each motion planning query, as
    /// obstacle positions might change" (paper §IV). Also reseeds the
    /// `U`-policy RNG so a reset table replays identically.
    pub fn reset(&mut self) {
        match &mut self.storage {
            Storage::Dense(v) => v.fill(Cell::default()),
            Storage::Sparse(m) => m.clear(),
        }
        self.rng = StdRng::seed_from_u64(self.seed);
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

    /// The one update rule, pinned to written expectations at each width:
    /// `(counter_bits, start, colliding, expected)`.
    #[test]
    fn cell_rule_at_every_width() {
        let c = Cell::new;
        let apply_cases = [
            // 1 bit: COLL saturates at 1; free outcomes are never recorded.
            (1, c(0, 0), true, c(1, 0)),
            (1, c(1, 0), true, c(1, 0)),
            (1, c(0, 0), false, c(0, 0)),
            (1, c(1, 0), false, c(1, 0)),
            // 2 bits: max 3.
            (2, c(0, 0), true, c(1, 0)),
            (2, c(2, 1), true, c(3, 1)),
            (2, c(3, 1), true, c(3, 1)),
            (2, c(0, 2), false, c(0, 3)),
            (2, c(1, 3), false, c(1, 3)),
            // 4 bits: max 15.
            (4, c(14, 0), true, c(15, 0)),
            (4, c(15, 7), true, c(15, 7)),
            (4, c(3, 14), false, c(3, 15)),
            (4, c(3, 15), false, c(3, 15)),
            // 8 bits: max 255, no wrap.
            (8, c(254, 0), true, c(255, 0)),
            (8, c(255, 9), true, c(255, 9)),
            (8, c(0, 255), false, c(0, 255)),
            // Out-of-range counters saturate to the width, never past it.
            (4, c(200, 0), true, c(15, 0)),
        ];
        for (bits, start, colliding, want) in apply_cases {
            assert_eq!(
                start.apply(colliding, bits),
                want,
                "{bits}-bit {start:?} {colliding}"
            );
        }
        let clamp_cases = [
            (1, c(200, 200), c(1, 1)),
            (2, c(200, 200), c(3, 3)),
            (4, c(200, 200), c(15, 15)),
            (4, c(7, 16), c(7, 15)),
            (8, c(200, 200), c(200, 200)),
        ];
        for (bits, cell, want) in clamp_cases {
            assert_eq!(cell.clamp(bits), want, "{bits}-bit clamp of {cell:?}");
        }
        assert!(c(15, 0).is_saturated(4) && c(0, 15).is_saturated(4));
        assert!(!c(14, 14).is_saturated(4));
        assert!(c(1, 0).is_saturated(1));
        assert_eq!(c(3, 9).max(c(7, 2)), c(7, 9));
        assert_eq!(c(3, 9).max(c(3, 9)), c(3, 9));
        for cell in [c(0, 0), c(15, 0), c(0, 15), c(255, 255), c(0x12, 0x34)] {
            assert_eq!(Cell::from_bits(cell.to_bits()), cell);
        }
        assert_eq!(c(0x12, 0x34).to_bits(), 0x3412);
        assert!(c(0, 0).is_empty() && !c(0, 1).is_empty());
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
        assert_eq!(t.cell(3), Cell::new(15, 15));
    }

    #[test]
    fn update_fraction_zero_skips_all_free_updates() {
        let mut t = cht(1.0, 0.0);
        for _ in 0..50 {
            t.observe(1, false);
        }
        assert!(t.cell(1).is_empty());
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
        assert_eq!(t.cell(2).coll, 10);
    }

    #[test]
    fn reset_clears_history_and_prediction() {
        let mut t = cht(0.5, 1.0);
        t.observe(77, true);
        assert!(t.predict(77));
        t.reset();
        assert!(!t.predict(77));
        assert!(t.cell(77).is_empty());
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
        assert_eq!(t.cell(123_456_789), Cell::new(1, 0));
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
        let planar = ChtParams::paper_2d();
        assert_eq!(planar.entries(), 1024);
        assert_eq!(ChtParams::paper_1bit().entry_bits(), 1);
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
