//! A lock-free shared Collision History Table for multi-threaded software
//! collision detection (paper §III-E: "The hash table is shared between all
//! threads").
//!
//! Each entry is one relaxed atomic word holding a [`Cell`], updated by
//! compare-and-swap. An entry publishes no other data, so relaxed ordering
//! is enough: a reader sees some recent cell, as the hardware table's
//! readers do.

use copred_core::{Cell, ChtParams};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Bit offset of the alias fingerprint in a table word; the cell's
/// [`Cell::to_bits`] form fills the bits below it.
const FP_SHIFT: u32 = 16;

/// The cell held in a table word.
#[inline]
fn cell_of(word: u32) -> Cell {
    Cell::from_bits(word as u16)
}

/// A thread-safe CHT with the same prediction semantics as
/// [`copred_core::Cht`].
#[derive(Debug)]
pub struct ConcurrentCht {
    /// One word per entry: the [`Cell`] in bits 0..16, and in bits 16..24
    /// an 8-bit fingerprint of the last code written to it, which estimates
    /// hash aliasing (distinct codes sharing an entry). Predictions never
    /// read the fingerprint.
    words: Vec<AtomicU32>,
    counts: WriteCounts,
    params: ChtParams,
    mask: u64,
}

/// The write telemetry, on a cache line of its own. Every applied observe
/// bumps it; on the line holding `words` and `params`, which every predict
/// reads, it made concurrent workers contend for that line.
#[derive(Debug, Default)]
#[repr(align(64))]
struct WriteCounts {
    /// Applied observe() writes.
    writes: AtomicU64,
    /// Writes that hit an occupied entry whose fingerprint changed —
    /// i.e. a different code aliased onto the same entry.
    alias_events: AtomicU64,
}

/// Fingerprint of a CDQ code for alias detection: top byte of a Fibonacci
/// hash, so codes differing only in low (index) bits still separate.
#[inline]
fn fingerprint_of(code: u64) -> u8 {
    (code.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8
}

impl ConcurrentCht {
    /// Creates an empty shared table.
    ///
    /// # Panics
    ///
    /// Panics when `params.bits` exceeds 24 (software tables are dense).
    pub fn new(params: ChtParams) -> Self {
        assert!(params.bits <= 24, "shared CHT must be dense (<= 24 bits)");
        ConcurrentCht {
            words: (0..params.entries()).map(|_| AtomicU32::new(0)).collect(),
            counts: WriteCounts::default(),
            mask: (1u64 << params.bits) - 1,
            params,
        }
    }

    /// The parameters the table was built with.
    pub fn params(&self) -> &ChtParams {
        &self.params
    }

    /// Number of table entries.
    pub fn entries(&self) -> usize {
        self.words.len()
    }

    fn cells(&self) -> impl Iterator<Item = Cell> + '_ {
        self.words
            .iter()
            .map(|w| cell_of(w.load(Ordering::Relaxed)))
    }

    /// Entries with at least one nonzero counter — a warm-up/contention
    /// proxy exposed through the service STATS verb.
    pub fn occupancy(&self) -> usize {
        self.cells().filter(|c| !c.is_empty()).count()
    }

    /// Entries with at least one counter pinned at its saturating maximum.
    pub fn saturated_entries(&self) -> usize {
        let bits = self.params.counter_bits;
        self.cells().filter(|c| c.is_saturated(bits)).count()
    }

    /// Fraction of entries with a saturated counter, in `[0, 1]`.
    pub fn saturation_fraction(&self) -> f64 {
        self.saturated_entries() as f64 / self.words.len() as f64
    }

    /// Applied `observe` writes since construction or [`reset`](Self::reset).
    pub fn writes(&self) -> u64 {
        self.counts.writes.load(Ordering::Relaxed)
    }

    /// Writes that landed on an occupied entry last written by a different
    /// code (fingerprint mismatch).
    pub fn alias_events(&self) -> u64 {
        self.counts.alias_events.load(Ordering::Relaxed)
    }

    /// Estimated fraction of writes that aliased with a different code,
    /// in `[0, 1]` (0 when nothing was written). Fingerprints are 8 bits,
    /// so ~1/256 of true aliases go uncounted — fine for a health gauge.
    pub fn aliasing_estimate(&self) -> f64 {
        let w = self.writes();
        if w == 0 {
            0.0
        } else {
            self.alias_events() as f64 / w as f64
        }
    }

    #[inline]
    fn word(&self, code: u64) -> &AtomicU32 {
        &self.words[(code & self.mask) as usize]
    }

    /// Prediction lookup.
    pub fn predict(&self, code: u64) -> bool {
        let word = self.word(code).load(Ordering::Relaxed);
        self.params.strategy.predicts(cell_of(word))
    }

    /// Records an executed CDQ's outcome. `u_draw` is a uniform [0,1) draw
    /// used for the `U` update policy (passed in so callers control their
    /// own RNG streams). Returns `true` when the write was applied to the
    /// table, `false` when the `U` policy (or 1-bit mode) skipped it — the
    /// discriminator `copred-store` uses to write an RNG-free WAL: only
    /// applied writes are logged, so replay is a pure saturating increment.
    /// A write to a saturated entry is still applied.
    ///
    /// The cell update and the fingerprint swap are one compare-and-swap
    /// on the entry's word, so concurrent writers never lose an increment;
    /// the telemetry counters are relaxed statistics.
    pub fn observe(&self, code: u64, colliding: bool, u_draw: f64) -> bool {
        let bits = self.params.counter_bits;
        if !colliding && (!Cell::records_free(bits) || u_draw >= self.params.update_fraction) {
            return false;
        }
        let fp = fingerprint_of(code);
        let tag = u32::from(fp) << FP_SHIFT;
        let update = self
            .word(code)
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |w| {
                Some(tag | u32::from(cell_of(w).apply(colliding, bits).to_bits()))
            });
        let (Ok(old) | Err(old)) = update;
        self.counts.writes.fetch_add(1, Ordering::Relaxed);
        if !cell_of(old).is_empty() && (old >> FP_SHIFT) as u8 != fp {
            self.counts.alias_events.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Copies every entry's cell, in entry order — the export hook
    /// `copred-store` snapshots from. Relaxed loads: callers snapshot
    /// quiescent (leased-out or drained) tables.
    pub fn export_cells(&self) -> Vec<Cell> {
        self.cells().collect()
    }

    /// Overwrites every entry from `cells` (each clamped to the counter
    /// width), clearing the telemetry the way [`reset`](Self::reset)
    /// does — the warm-start import hook for `copred-store`.
    ///
    /// # Panics
    ///
    /// Panics when `cells.len()` differs from [`entries`](Self::entries).
    pub fn load_cells(&self, cells: &[Cell]) {
        assert_eq!(
            cells.len(),
            self.words.len(),
            "cell image size must match the table"
        );
        let bits = self.params.counter_bits;
        for (w, c) in self.words.iter().zip(cells) {
            w.store(u32::from(c.clamp(bits).to_bits()), Ordering::Relaxed);
        }
        self.counts.writes.store(0, Ordering::Relaxed);
        self.counts.alias_events.store(0, Ordering::Relaxed);
    }

    /// Clears the table (new planning query).
    pub fn reset(&self) {
        for w in &self.words {
            w.store(0, Ordering::Relaxed);
        }
        self.counts.writes.store(0, Ordering::Relaxed);
        self.counts.alias_events.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copred_core::Strategy;
    use std::sync::Arc;

    fn params() -> ChtParams {
        ChtParams {
            bits: 10,
            counter_bits: 4,
            strategy: Strategy::new(1.0),
            update_fraction: 1.0,
        }
    }

    #[test]
    fn predict_observe_roundtrip() {
        let cht = ConcurrentCht::new(params());
        assert!(!cht.predict(7));
        cht.observe(7, true, 0.0);
        assert!(cht.predict(7));
        cht.observe(7, false, 0.0);
        assert!(!cht.predict(7)); // S=1: 1 > 1 is false
    }

    #[test]
    fn update_fraction_skips_free_updates() {
        let p = ChtParams {
            update_fraction: 0.25,
            ..params()
        };
        let cht = ConcurrentCht::new(p);
        cht.observe(3, false, 0.9); // 0.9 >= 0.25: skipped
        cht.observe(3, false, 0.1); // 0.1 < 0.25: applied
        cht.observe(3, true, 0.0);
        // COLL=1, NONCOLL=1 -> S=1 predicts false; a second collision flips.
        assert!(!cht.predict(3));
        cht.observe(3, true, 0.0);
        assert!(cht.predict(3));
    }

    #[test]
    fn single_bit_mode_matches_core_cht() {
        // Regression: 1-bit tables used to record NONCOLL for free
        // outcomes, which `copred_core::Cht` never does. With S = 1 that
        // made COLL=1/NONCOLL=1 predict free where the reference predicts
        // colliding.
        let p = ChtParams {
            counter_bits: 1,
            ..params()
        };
        let cht = ConcurrentCht::new(p);
        cht.observe(9, true, 0.0);
        assert!(cht.predict(9));
        // A free outcome with a "record it" draw must still be a no-op.
        cht.observe(9, false, 0.0);
        assert!(
            cht.predict(9),
            "free outcome must not be stored in 1-bit mode"
        );
        assert_eq!(cht.occupancy(), 1);
        // And it must not create occupancy on untouched codes either.
        cht.observe(10, false, 0.0);
        assert_eq!(cht.occupancy(), 1);
    }

    #[test]
    fn reset_clears() {
        let cht = ConcurrentCht::new(params());
        cht.observe(1, true, 0.0);
        cht.reset();
        assert!(!cht.predict(1));
    }

    #[test]
    fn concurrent_updates_saturate() {
        let cht = Arc::new(ConcurrentCht::new(params()));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&cht);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.observe(5, true, 0.0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Saturated at the 4-bit max; prediction holds.
        assert!(cht.predict(5));
        // No increment went past the max, and the fingerprint stored
        // beside the cell in the same word never leaks into it.
        assert_ne!(fingerprint_of(5), 0, "a zero fingerprint would hide a leak");
        let cells = cht.export_cells();
        assert_eq!(cells[5], Cell::new(15, 0));
        assert!(cells
            .iter()
            .enumerate()
            .all(|(i, c)| i == 5 || c.is_empty()));
        assert_eq!(cht.writes(), 8000);
    }

    #[test]
    fn aliasing_estimator_separates_clean_and_colliding_streams() {
        let cht = ConcurrentCht::new(params()); // 10-bit table
                                                // Distinct entries, one code each: no aliasing.
        for code in 0..64u64 {
            cht.observe(code, true, 0.0);
            cht.observe(code, true, 0.0);
        }
        assert_eq!(cht.alias_events(), 0);
        assert_eq!(cht.aliasing_estimate(), 0.0);
        assert_eq!(cht.writes(), 128);
        // Two codes that share entry 5 (differ above the 10 index bits):
        // every write after the first alternates the fingerprint.
        let (a, b) = (5u64, 5u64 | (1 << 20));
        assert_ne!(fingerprint_of(a), fingerprint_of(b));
        for _ in 0..10 {
            cht.observe(a, true, 0.0);
            cht.observe(b, true, 0.0);
        }
        assert!(cht.alias_events() >= 19, "got {}", cht.alias_events());
        assert!(cht.aliasing_estimate() > 0.0);
    }

    #[test]
    fn skipped_updates_are_not_counted_as_writes() {
        let p = ChtParams {
            update_fraction: 0.25,
            ..params()
        };
        let cht = ConcurrentCht::new(p);
        cht.observe(3, false, 0.9); // gated out: not a write
        assert_eq!(cht.writes(), 0);
        cht.observe(3, false, 0.1);
        cht.observe(3, true, 0.0);
        assert_eq!(cht.writes(), 2);
    }

    #[test]
    fn saturation_fraction_tracks_pinned_counters() {
        let cht = ConcurrentCht::new(params()); // 4-bit counters: max 15
        assert_eq!(cht.saturated_entries(), 0);
        for _ in 0..20 {
            cht.observe(7, true, 0.0);
        }
        assert_eq!(cht.saturated_entries(), 1);
        let expect = 1.0 / cht.entries() as f64;
        assert!((cht.saturation_fraction() - expect).abs() < 1e-12);
        cht.reset();
        assert_eq!(cht.saturated_entries(), 0);
        assert_eq!(cht.writes(), 0);
        assert_eq!(cht.alias_events(), 0);
    }

    #[test]
    fn observe_reports_applied_writes() {
        let p = ChtParams {
            update_fraction: 0.25,
            ..params()
        };
        let cht = ConcurrentCht::new(p);
        assert!(cht.observe(3, true, 0.9), "collisions always apply");
        assert!(!cht.observe(3, false, 0.9), "gated free outcome skipped");
        assert!(cht.observe(3, false, 0.1), "lucky free outcome applied");
        let one_bit = ConcurrentCht::new(ChtParams {
            counter_bits: 1,
            ..params()
        });
        assert!(!one_bit.observe(3, false, 0.0), "1-bit never stores free");
    }

    #[test]
    fn export_load_roundtrip_is_bit_exact() {
        let a = ConcurrentCht::new(params());
        for code in 0..100u64 {
            a.observe(code * 17, code % 3 == 0, 0.0);
        }
        let cells = a.export_cells();
        let b = ConcurrentCht::new(params());
        b.load_cells(&cells);
        assert_eq!(b.export_cells(), cells);
        assert_eq!(b.occupancy(), a.occupancy());
        for code in 0..2048u64 {
            assert_eq!(a.predict(code), b.predict(code));
        }
        // Out-of-range counters clamp to the width instead of wedging the
        // saturating CAS loop (`cur < max` would never stop at 200).
        let c = ConcurrentCht::new(params());
        let mut wild = cells;
        wild[0] = Cell::new(200, 200);
        c.load_cells(&wild);
        assert_eq!(c.export_cells()[0], Cell::new(15, 15));
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn oversized_table_rejected() {
        let p = ChtParams {
            bits: 30,
            ..params()
        };
        let _ = ConcurrentCht::new(p);
    }
}
