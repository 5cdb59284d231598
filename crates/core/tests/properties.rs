//! Property-based tests for predictor invariants.

use copred_core::{
    fold_xor, Cell, Cht, ChtParams, CollisionHash, CoordHash, HashInput, PoseHash,
    PredictionMetrics, Strategy,
};
use copred_geometry::{Aabb, Vec3};
use copred_kinematics::{presets, Config, Robot};
use proptest::prelude::*;

fn arm() -> Robot {
    presets::kuka_iiwa().into()
}

proptest! {
    #[test]
    fn coord_code_in_range(x in -2.0..2.0f64, y in -2.0..2.0f64, z in -2.0..2.0f64, k in 1u32..9) {
        let ws = Aabb::new(Vec3::splat(-1.5), Vec3::splat(1.5));
        let h = CoordHash::new(ws, k, false);
        let q = Config::zeros(2);
        let code = h.code(&HashInput { config: &q, center: Vec3::new(x, y, z) });
        prop_assert!(code < (1u64 << (3 * k)));
    }

    #[test]
    fn coord_locality_within_bin(cx in -0.9..0.9f64, cy in -0.9..0.9f64, cz in -0.9..0.9f64) {
        // Points in the same spatial bin always share a code.
        let ws = Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0));
        let k = 4;
        let h = CoordHash::new(ws, k, false);
        let bin = 2.0 / f64::from(1u32 << k);
        let snap = |v: f64| ((v + 1.0) / bin).floor() * bin - 1.0 + bin * 0.5;
        let center = Vec3::new(snap(cx), snap(cy), snap(cz));
        let nudged = center + Vec3::splat(bin * 0.2);
        let q = Config::zeros(2);
        prop_assert_eq!(
            h.code(&HashInput { config: &q, center }),
            h.code(&HashInput { config: &q, center: nudged })
        );
    }

    #[test]
    fn pose_hash_deterministic(vals in prop::collection::vec(-1.5..1.5f64, 7)) {
        let robot = arm();
        let h = PoseHash::new(&robot, 4);
        let q = Config::new(vals);
        let c = robot.fk(&q).links[0].center;
        let a = h.code(&HashInput { config: &q, center: c });
        let b = h.code(&HashInput { config: &q, center: c });
        prop_assert_eq!(a, b);
        prop_assert!(a < (1u64 << h.bits()));
    }

    #[test]
    fn fold_stays_in_range(code in any::<u64>(), from in 16u32..64, to in 1u32..16) {
        let folded = fold_xor(code, from, to);
        prop_assert!(folded < (1u64 << to));
    }

    #[test]
    fn cht_prediction_monotone_in_collisions(obs in prop::collection::vec(any::<bool>(), 1..60)) {
        // Feeding strictly more colliding observations to an entry can only
        // keep or raise COLL, so a predicted entry stays predicted under
        // extra colliding observations.
        let mut cht = Cht::new(
            ChtParams { bits: 6, counter_bits: 4, strategy: Strategy::new(1.0), update_fraction: 1.0 },
            9,
        );
        for &o in &obs {
            cht.observe(5, o);
        }
        let before = cht.peek(5);
        cht.observe(5, true);
        let after = cht.peek(5);
        prop_assert!(!before || after);
    }

    #[test]
    fn cht_counters_never_exceed_width(obs in prop::collection::vec(any::<bool>(), 0..200), bits in 1u32..5) {
        let mut cht = Cht::new(
            ChtParams { bits: 4, counter_bits: bits, strategy: Strategy::new(0.5), update_fraction: 1.0 },
            3,
        );
        for &o in &obs {
            cht.observe(2, o);
        }
        let cell = cht.cell(2);
        let max = ((1u32 << bits) - 1) as u8;
        prop_assert!(cell.coll <= max && cell.noncoll <= max);
    }

    #[test]
    fn strategy_aggressiveness_order(coll in 0u8..16, noncoll in 0u8..16) {
        // Lower S is strictly more aggressive: if a conservative strategy
        // predicts, every more aggressive one does too.
        let s_values = [2.0, 1.0, 0.5, 0.25, 0.0];
        let mut prev = false;
        for &s in s_values.iter() {
            let p = Strategy::new(s).predicts(Cell::new(coll, noncoll));
            if prev {
                prop_assert!(p, "S={s} flipped a conservative prediction off");
            }
            prev = p;
        }
    }

    #[test]
    fn batched_coord_codes_match_scalar(
        centers in prop::collection::vec(
            (-2.0..2.0f64, -2.0..2.0f64, -2.0..2.0f64).prop_map(|(x, y, z)| Vec3::new(x, y, z)),
            1..130,
        ),
        k in 1u32..9,
        planar in any::<bool>(),
    ) {
        // The vectorized hash path must reproduce the scalar code for every
        // center, including across the internal 64-element chunk boundary.
        let ws = Aabb::new(Vec3::splat(-1.5), Vec3::splat(1.5));
        let h = CoordHash::new(ws, k, planar);
        let mut batch = vec![0u64; centers.len()];
        h.code_batch(&centers, &mut batch);
        let q = Config::zeros(2);
        for (i, &c) in centers.iter().enumerate() {
            prop_assert_eq!(
                batch[i],
                h.code(&HashInput { config: &q, center: c }),
                "center {} diverged (k={}, planar={})", i, k, planar
            );
        }
    }

    #[test]
    fn metrics_counts_are_consistent(samples in prop::collection::vec((any::<bool>(), any::<bool>()), 0..200)) {
        let mut m = PredictionMetrics::new();
        for (p, a) in &samples {
            m.record(*p, *a);
        }
        prop_assert_eq!(m.total() as usize, samples.len());
        let p = m.precision();
        let r = m.recall();
        prop_assert!((0.0..=1.0).contains(&p));
        prop_assert!((0.0..=1.0).contains(&r));
        prop_assert!(m.f1() <= 1.0);
    }
}
