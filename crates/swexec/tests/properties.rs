//! Property-based tests for the software execution models.

use copred_core::ChtParams;
use copred_geometry::Vec3;
use copred_kinematics::Config;
use copred_planners::Stage;
use copred_swexec::{gpu_sweep, run_gpu_model, GpuModelParams, MOTION_LANES};
use copred_trace::{MotionTrace, TraceCdq};
use proptest::prelude::*;

fn motions() -> impl Strategy<Value = Vec<MotionTrace>> {
    prop::collection::vec(
        (2usize..30).prop_flat_map(|n| {
            (
                prop::collection::vec(any::<bool>(), n),
                prop::collection::vec((-1.2..1.2f64, -1.2..1.2f64), n),
            )
                .prop_map(move |(outcomes, centers)| MotionTrace {
                    stage: Stage::Explore,
                    poses: vec![Config::zeros(2); n],
                    cdqs: (0..n)
                        .map(|i| TraceCdq {
                            pose_idx: i as u32,
                            link_idx: 0,
                            center: Vec3::new(centers[i].0, centers[i].1, 0.0),
                            colliding: outcomes[i],
                            obstacle_tests: 3,
                        })
                        .collect(),
                })
        }),
        1..20,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn gpu_cdqs_monotone_in_width(ms in motions()) {
        // Wider per-motion parallelism can only add redundant in-flight
        // work, never remove it (baseline, no prediction).
        let p = GpuModelParams::default();
        let mut prev = 0u64;
        for threads in [64usize, 128, 256, 1024, 4096] {
            let r = run_gpu_model(&ms, threads, false, &p, ChtParams::paper_2d(), 1);
            prop_assert!(r.cdqs >= prev, "width shrank CDQs: {} < {prev}", r.cdqs);
            prev = r.cdqs;
        }
    }

    #[test]
    fn gpu_executed_bounded_by_decomposition(ms in motions(), threads_pow in 0u32..7) {
        let threads = MOTION_LANES << threads_pow;
        let total: u64 = ms.iter().map(|m| m.cdq_count() as u64).sum();
        for pred in [false, true] {
            let r = run_gpu_model(&ms, threads, pred, &GpuModelParams::default(), ChtParams::paper_2d(), 1);
            prop_assert!(r.cdqs <= total);
            prop_assert!(r.time >= 0.0);
        }
    }

    #[test]
    fn gpu_prediction_never_increases_cdqs(ms in motions(), threads_pow in 0u32..7) {
        let threads = MOTION_LANES << threads_pow;
        let p = GpuModelParams::default();
        let base = run_gpu_model(&ms, threads, false, &p, ChtParams::paper_2d(), 1);
        let pred = run_gpu_model(&ms, threads, true, &p, ChtParams::paper_2d(), 1);
        // Prediction reorders within each motion and early-exits between
        // waves; on identical traces it can only match or beat the baseline
        // per motion in expectation — allow per-wave granularity slack.
        let slack: u64 = ms.len() as u64 * (threads / MOTION_LANES) as u64;
        prop_assert!(pred.cdqs <= base.cdqs + slack);
    }

    #[test]
    fn gpu_model_is_deterministic(ms in motions()) {
        let p = GpuModelParams::default();
        let a = run_gpu_model(&ms, 512, true, &p, ChtParams::paper_2d(), 9);
        let b = run_gpu_model(&ms, 512, true, &p, ChtParams::paper_2d(), 9);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn sweep_rows_match_single_runs(ms in motions()) {
        let p = GpuModelParams::default();
        let rows = gpu_sweep(&ms, &[64, 256], &p, ChtParams::paper_2d(), 2);
        prop_assert_eq!(rows.len(), 2);
        prop_assert!((rows[0].cdqs_base - 1.0).abs() < 1e-12);
        for r in &rows {
            prop_assert!(r.cdqs_pred.is_finite() && r.time_pred.is_finite());
        }
    }
}
