//! CDQ scheduling policies for motion-environment checks.
//!
//! For a colliding motion the execution order of CDQs determines how much
//! work is done before the collision is found (paper Fig. 1). This module
//! implements the three reference orderings the paper compares against the
//! COORD predictor:
//!
//! * **Naive** — poses checked sequentially from start to goal;
//! * **CSP** — the coarse-step scheduling policy of Shah et al. (ref. \[43\])
//!   (physically distant poses first);
//! * **Oracle** — the limit study: a colliding motion costs exactly one CDQ.

use crate::cdq::CdqInfo;
use crate::environment::Environment;
use copred_kinematics::{csp_order, Config, Robot};

/// A CDQ ordering policy for motion checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Sequential pose order (Fig. 1a).
    Naive,
    /// Coarse-step policy with the given stride (Fig. 1b). A stride of 1 is
    /// equivalent to [`Schedule::Naive`].
    Csp {
        /// Pose-index stride.
        step: usize,
    },
    /// Perfect prediction (Fig. 1c): one CDQ for a colliding motion, all
    /// CDQs for a collision-free one.
    Oracle,
    /// RACOD-style speculation (Bakhshalipour et al., ref. \[3\], cited by
    /// the paper as prior scheduling work): CDQs execute in naive order but
    /// `depth` of them are in flight at once, so early exit only takes
    /// effect at batch boundaries — speculation hides latency at the price
    /// of redundant queries.
    Speculative {
        /// CDQs speculatively in flight.
        depth: usize,
    },
}

impl Schedule {
    /// The paper's default CSP stride for motion checks.
    pub const DEFAULT_CSP_STEP: usize = 5;

    /// The default CSP schedule.
    pub fn csp_default() -> Self {
        Schedule::Csp {
            step: Self::DEFAULT_CSP_STEP,
        }
    }
}

/// Result of a scheduled motion-environment collision check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MotionCheckOutcome {
    /// Whether the motion collides.
    pub colliding: bool,
    /// Elementary CDQs executed before the check resolved.
    pub cdqs_executed: usize,
    /// Total CDQs the motion decomposes into.
    pub cdqs_total: usize,
    /// Obstacle-pair tests executed inside the executed CDQs.
    pub obstacle_tests: usize,
}

impl MotionCheckOutcome {
    /// No CDQ executed yet, out of `total`.
    fn none_of(total: usize) -> Self {
        MotionCheckOutcome {
            colliding: false,
            cdqs_executed: 0,
            cdqs_total: total,
            obstacle_tests: 0,
        }
    }

    /// Counts `cdq` as executed; returns whether it collides, which
    /// resolves the check under early exit.
    fn execute(&mut self, cdq: &CdqInfo) -> bool {
        self.cdqs_executed += 1;
        self.obstacle_tests += cdq.obstacle_tests;
        self.colliding = cdq.colliding;
        cdq.colliding
    }
}

/// Applies `schedule` to a pre-enumerated CDQ list (pose-major order as
/// produced by [`crate::enumerate_motion_cdqs`]) and simulates early-exit
/// execution.
///
/// `n_poses` is the number of sample poses; each pose contributes a
/// contiguous block of CDQs in `cdqs`.
pub fn run_schedule(cdqs: &[CdqInfo], n_poses: usize, schedule: Schedule) -> MotionCheckOutcome {
    match schedule {
        // One CDQ for a colliding motion — the oracle executes a
        // known-colliding query — and every CDQ for a free one.
        Schedule::Oracle => match cdqs.iter().find(|c| c.colliding) {
            Some(hit) => {
                let mut out = MotionCheckOutcome::none_of(cdqs.len());
                out.execute(hit);
                out
            }
            None => execute_order(cdqs, 0..cdqs.len()),
        },
        Schedule::Naive => execute_order(cdqs, pose_order_indices(cdqs, n_poses, 1)),
        Schedule::Csp { step } => execute_order(cdqs, pose_order_indices(cdqs, n_poses, step)),
        Schedule::Speculative { depth } => {
            execute_batched(cdqs, pose_order_indices(cdqs, n_poses, 1), depth.max(1))
        }
    }
}

/// Early exit only between batches of `depth` in-flight CDQs (speculation).
fn execute_batched(cdqs: &[CdqInfo], order: Vec<usize>, depth: usize) -> MotionCheckOutcome {
    let mut out = MotionCheckOutcome::none_of(cdqs.len());
    for batch in order.chunks(depth) {
        let mut hit = false;
        for &i in batch {
            hit |= out.execute(&cdqs[i]);
        }
        if hit {
            out.colliding = true;
            return out;
        }
    }
    out
}

/// Builds the CDQ visit order for a pose-level stride: poses visited in
/// [`csp_order`], links sequentially within each pose.
fn pose_order_indices(cdqs: &[CdqInfo], n_poses: usize, step: usize) -> Vec<usize> {
    // Start offset of each pose's CDQ block.
    let mut starts = vec![0usize; n_poses + 1];
    for c in cdqs {
        starts[c.pose_idx + 1] += 1;
    }
    for i in 0..n_poses {
        starts[i + 1] += starts[i];
    }
    let mut order = Vec::with_capacity(cdqs.len());
    for p in csp_order(n_poses, step) {
        order.extend(starts[p]..starts[p + 1]);
    }
    order
}

fn execute_order(cdqs: &[CdqInfo], order: impl IntoIterator<Item = usize>) -> MotionCheckOutcome {
    let mut out = MotionCheckOutcome::none_of(cdqs.len());
    for i in order {
        if out.execute(&cdqs[i]) {
            break;
        }
    }
    out
}

/// A stateful CDQ-level collision predictor driving
/// [`run_predicted_schedule`] — the software shape of the paper's CHT
/// lookup/update pair (Algorithm 1), decoupled from any concrete hash or
/// table so replay harnesses and servers can plug in shared, per-session,
/// or mock predictors.
///
/// Each call carries `idx`, the CDQ's position in the slice the schedule
/// runs over, so a predictor can keep per-CDQ state in plain arrays sized
/// by that slice. Positions are unique even when two CDQs share a
/// `(pose_idx, link_idx)` pair, and `link_idx` is never a safe array size:
/// it arrives from the wire unchecked.
pub trait CdqPredictor {
    /// Predicts whether `cdq`, at position `idx` of the schedule's CDQ
    /// slice, will collide.
    fn predict(&mut self, idx: usize, cdq: &CdqInfo) -> bool;
    /// Records the ground-truth outcome of the executed CDQ at position
    /// `idx`.
    fn observe(&mut self, idx: usize, cdq: &CdqInfo, colliding: bool);
}

/// Algorithm 1 over a pre-enumerated CDQ list: the predictor-ordered
/// schedule that `copred-service` dispatches batches through.
///
/// Poses are visited in the CSP order with stride `csp_step` (stride 1 is
/// the naive order). Each CDQ is first looked up in the predictor:
/// predicted-colliding CDQs execute immediately (early exit on a hit), the
/// rest are queued and drained in arrival order only if no predicted CDQ
/// hits. Every executed CDQ feeds its outcome back via
/// [`CdqPredictor::observe`], so a cold predictor degrades exactly to CSP.
///
/// # Panics
///
/// Panics when a CDQ's `pose_idx` is not below `n_poses` (malformed input;
/// traces validated by `copred-trace`'s parser never are).
pub fn run_predicted_schedule(
    cdqs: &[CdqInfo],
    n_poses: usize,
    csp_step: usize,
    predictor: &mut dyn CdqPredictor,
) -> MotionCheckOutcome {
    let mut out = MotionCheckOutcome::none_of(cdqs.len());
    let mut queue: Vec<usize> = Vec::with_capacity(cdqs.len());
    for i in pose_order_indices(cdqs, n_poses, csp_step.max(1)) {
        let cdq = &cdqs[i];
        if !predictor.predict(i, cdq) {
            queue.push(i);
            continue;
        }
        predictor.observe(i, cdq, cdq.colliding);
        if out.execute(cdq) {
            return out;
        }
    }
    for i in queue {
        let cdq = &cdqs[i];
        predictor.observe(i, cdq, cdq.colliding);
        if out.execute(cdq) {
            return out;
        }
    }
    out
}

/// Convenience: discretize, enumerate, and run one scheduled motion check.
pub fn check_motion_scheduled(
    robot: &Robot,
    env: &Environment,
    poses: &[Config],
    schedule: Schedule,
) -> MotionCheckOutcome {
    let cdqs = crate::cdq::enumerate_motion_cdqs(robot, env, poses);
    run_schedule(&cdqs, poses.len(), schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdq::enumerate_motion_cdqs;
    use copred_geometry::{Aabb, Vec3};
    use copred_kinematics::{presets, Motion};

    /// Planar robot crossing a wall in the middle of the workspace.
    fn crossing_setup() -> (Robot, Environment, Vec<Config>) {
        let robot: Robot = presets::planar_2d().into();
        let env = Environment::new(
            robot.workspace(),
            vec![Aabb::new(
                Vec3::new(-0.05, -1.0, -0.1),
                Vec3::new(0.05, 1.0, 0.1),
            )],
        );
        let motion = Motion::new(Config::new(vec![-0.8, 0.0]), Config::new(vec![0.8, 0.0]));
        let poses = motion.discretize(17);
        (robot, env, poses)
    }

    #[test]
    fn oracle_needs_one_cdq_for_colliding_motion() {
        let (robot, env, poses) = crossing_setup();
        let out = check_motion_scheduled(&robot, &env, &poses, Schedule::Oracle);
        assert!(out.colliding);
        assert_eq!(out.cdqs_executed, 1);
        assert_eq!(out.cdqs_total, 17);
    }

    #[test]
    fn naive_walks_to_the_wall() {
        let (robot, env, poses) = crossing_setup();
        let out = check_motion_scheduled(&robot, &env, &poses, Schedule::Naive);
        assert!(out.colliding);
        // The wall sits mid-motion: the naive order executes roughly half the
        // poses before hitting it.
        assert!(out.cdqs_executed >= 7, "executed {}", out.cdqs_executed);
    }

    #[test]
    fn csp_beats_naive_on_wide_wall() {
        // A wide block covering the second half of the motion: naive walks
        // pose by pose to reach it, while the coarse stride lands inside it
        // within its first pass (Fig. 1b's advantage).
        let robot: Robot = presets::planar_2d().into();
        let env = Environment::new(
            robot.workspace(),
            vec![Aabb::new(
                Vec3::new(0.2, -1.0, -0.1),
                Vec3::new(0.6, 1.0, 0.1),
            )],
        );
        let poses =
            Motion::new(Config::new(vec![-0.8, 0.0]), Config::new(vec![0.8, 0.0])).discretize(17);
        let naive = check_motion_scheduled(&robot, &env, &poses, Schedule::Naive);
        let csp = check_motion_scheduled(&robot, &env, &poses, Schedule::csp_default());
        assert!(csp.colliding && naive.colliding);
        assert!(
            csp.cdqs_executed < naive.cdqs_executed,
            "CSP {} vs naive {}",
            csp.cdqs_executed,
            naive.cdqs_executed
        );
    }

    #[test]
    fn free_motion_costs_all_cdqs_for_every_schedule() {
        let robot: Robot = presets::planar_2d().into();
        let env = Environment::empty(robot.workspace());
        let poses =
            Motion::new(Config::new(vec![-0.8, 0.0]), Config::new(vec![0.8, 0.0])).discretize(9);
        for s in [Schedule::Naive, Schedule::csp_default(), Schedule::Oracle] {
            let out = check_motion_scheduled(&robot, &env, &poses, s);
            assert!(!out.colliding);
            assert_eq!(out.cdqs_executed, 9, "{s:?}");
            assert_eq!(out.cdqs_total, 9);
        }
    }

    #[test]
    fn speculation_trades_redundancy_for_latency() {
        // Speculation never executes fewer CDQs than naive (redundant
        // in-flight work), and depth 1 is exactly naive.
        let (robot, env, poses) = crossing_setup();
        let naive = check_motion_scheduled(&robot, &env, &poses, Schedule::Naive);
        let spec1 =
            check_motion_scheduled(&robot, &env, &poses, Schedule::Speculative { depth: 1 });
        assert_eq!(naive, spec1);
        for depth in [2usize, 4, 8] {
            let spec =
                check_motion_scheduled(&robot, &env, &poses, Schedule::Speculative { depth });
            assert_eq!(spec.colliding, naive.colliding);
            assert!(
                spec.cdqs_executed >= naive.cdqs_executed,
                "depth {depth}: {} < naive {}",
                spec.cdqs_executed,
                naive.cdqs_executed
            );
            // Redundancy is bounded by one batch.
            assert!(spec.cdqs_executed < naive.cdqs_executed + depth);
        }
    }

    #[test]
    fn csp_step_one_equals_naive() {
        let (robot, env, poses) = crossing_setup();
        let naive = check_motion_scheduled(&robot, &env, &poses, Schedule::Naive);
        let csp1 = check_motion_scheduled(&robot, &env, &poses, Schedule::Csp { step: 1 });
        assert_eq!(naive, csp1);
    }

    #[test]
    fn csp_step_zero_equals_naive() {
        // `step: 0` is a degenerate stride a client can send over the wire;
        // `csp_order` treats any step <= 1 as the identity order, so the
        // outcome must be exactly naive rather than a panic or empty order.
        let (robot, env, poses) = crossing_setup();
        let cdqs = enumerate_motion_cdqs(&robot, &env, &poses);
        let naive = run_schedule(&cdqs, poses.len(), Schedule::Naive);
        let csp0 = run_schedule(&cdqs, poses.len(), Schedule::Csp { step: 0 });
        assert_eq!(naive, csp0);
        let mut cold = FixedPredictor {
            hot: vec![],
            observed: 0,
        };
        let predicted0 = run_predicted_schedule(&cdqs, poses.len(), 0, &mut cold);
        assert_eq!(predicted0, naive, "cold predictor with step 0 is naive");
    }

    #[test]
    fn raw_and_clamped_stride_zero_produce_the_same_order() {
        // `run_schedule` passes `Csp { step }` through raw while
        // `run_predicted_schedule` clamps with `csp_step.max(1)`. The two
        // agree only because `csp_order` already returns the identity for
        // any step <= 1 — pin that at the order level (not just outcome
        // level) so a future `csp_order` change cannot silently split the
        // two entry points. Non-bug finding recorded in EXPERIMENTS.md.
        for counts in [vec![1usize, 2, 3], vec![4, 0, 1, 2], vec![2; 9]] {
            let cdqs: Vec<CdqInfo> = counts
                .iter()
                .enumerate()
                .flat_map(|(p, &k)| (0..k).map(move |_| synth_cdq(p)))
                .collect();
            let raw0 = pose_order_indices(&cdqs, counts.len(), 0);
            let clamped = pose_order_indices(&cdqs, counts.len(), 1);
            assert_eq!(raw0, clamped, "counts={counts:?}");
            assert_eq!(
                raw0,
                (0..cdqs.len()).collect::<Vec<_>>(),
                "stride 0 must be the identity order"
            );
        }
    }

    #[test]
    fn single_pose_motion_works_under_every_schedule() {
        let robot: Robot = presets::planar_2d().into();
        let env = Environment::new(
            robot.workspace(),
            vec![Aabb::new(
                Vec3::new(-0.05, -1.0, -0.1),
                Vec3::new(0.05, 1.0, 0.1),
            )],
        );
        for start in [-0.8f64, 0.0] {
            let poses = Motion::new(Config::new(vec![start, 0.0]), Config::new(vec![start, 0.0]))
                .discretize(1);
            assert_eq!(poses.len(), 1);
            let cdqs = enumerate_motion_cdqs(&robot, &env, &poses);
            let truth = cdqs.iter().any(|c| c.colliding);
            for s in [
                Schedule::Naive,
                Schedule::Csp { step: 0 },
                Schedule::csp_default(),
                Schedule::Oracle,
                Schedule::Speculative { depth: 4 },
            ] {
                let out = run_schedule(&cdqs, 1, s);
                assert_eq!(out.colliding, truth, "{s:?} start={start}");
                assert!(out.cdqs_executed <= out.cdqs_total.max(1), "{s:?}");
            }
            let mut cold = FixedPredictor {
                hot: vec![],
                observed: 0,
            };
            let out = run_predicted_schedule(&cdqs, 1, 5, &mut cold);
            assert_eq!(out.colliding, truth);
            assert_eq!(cold.observed, out.cdqs_executed);
        }
    }

    /// Synthetic free CDQ for permutation tests: `pose_idx` is all the
    /// ordering logic looks at.
    fn synth_cdq(pose_idx: usize) -> CdqInfo {
        CdqInfo {
            pose_idx,
            link_idx: 0,
            center: Vec3::ZERO,
            obb: copred_geometry::Obb::axis_aligned(Vec3::ZERO, Vec3::ZERO),
            colliding: false,
            obstacle_tests: 1,
        }
    }

    #[test]
    fn pose_order_is_a_permutation_for_uneven_blocks() {
        // Property: for any per-pose CDQ multiplicity (including poses with
        // zero CDQs) and any stride, `pose_order_indices` visits every CDQ
        // index exactly once. Checked exhaustively over a grid of shapes —
        // a missed or doubled index is exactly the bug class that would
        // silently skip or re-execute a CDQ.
        for counts in [
            vec![1usize],
            vec![3],
            vec![1, 1, 1, 1, 1],
            vec![2, 0, 3, 1, 0, 4],
            vec![0, 0, 2],
            vec![5, 1, 1, 1, 1, 1, 1, 2],
        ] {
            let cdqs: Vec<CdqInfo> = counts
                .iter()
                .enumerate()
                .flat_map(|(p, &k)| (0..k).map(move |_| synth_cdq(p)))
                .collect();
            for step in [0usize, 1, 2, 3, 5, 7, 100] {
                // Raw step, no clamp: `run_schedule` forwards client strides
                // verbatim, so the raw 0 must behave (not panic, not skip).
                let mut order = pose_order_indices(&cdqs, counts.len(), step);
                assert_eq!(order.len(), cdqs.len(), "counts={counts:?} step={step}");
                order.sort_unstable();
                assert_eq!(
                    order,
                    (0..cdqs.len()).collect::<Vec<_>>(),
                    "counts={counts:?} step={step}"
                );
            }
        }
    }

    #[test]
    fn run_schedule_consistent_with_ground_truth() {
        let (robot, env, poses) = crossing_setup();
        let cdqs = enumerate_motion_cdqs(&robot, &env, &poses);
        for s in [Schedule::Naive, Schedule::Csp { step: 3 }, Schedule::Oracle] {
            let out = run_schedule(&cdqs, poses.len(), s);
            assert_eq!(out.colliding, cdqs.iter().any(|c| c.colliding), "{s:?}");
            assert!(out.cdqs_executed <= out.cdqs_total);
        }
    }

    /// A mock predictor with a fixed set of predicted-colliding CDQ indices.
    struct FixedPredictor {
        hot: Vec<usize>,
        observed: usize,
    }

    impl CdqPredictor for FixedPredictor {
        fn predict(&mut self, _idx: usize, cdq: &CdqInfo) -> bool {
            self.hot.contains(&cdq.pose_idx)
        }
        fn observe(&mut self, _idx: usize, _cdq: &CdqInfo, _colliding: bool) {
            self.observed += 1;
        }
    }

    #[test]
    fn perfect_predictor_matches_oracle() {
        let (robot, env, poses) = crossing_setup();
        let cdqs = enumerate_motion_cdqs(&robot, &env, &poses);
        let hot: Vec<usize> = cdqs
            .iter()
            .filter(|c| c.colliding)
            .map(|c| c.pose_idx)
            .collect();
        let mut pred = FixedPredictor { hot, observed: 0 };
        let out = run_predicted_schedule(&cdqs, poses.len(), 1, &mut pred);
        assert!(out.colliding);
        assert_eq!(
            out.cdqs_executed, 1,
            "a perfect prediction is checked first"
        );
        assert_eq!(pred.observed, out.cdqs_executed);
    }

    #[test]
    fn cold_predictor_degrades_to_csp() {
        let (robot, env, poses) = crossing_setup();
        let cdqs = enumerate_motion_cdqs(&robot, &env, &poses);
        let mut cold = FixedPredictor {
            hot: vec![],
            observed: 0,
        };
        let step = Schedule::DEFAULT_CSP_STEP;
        let predicted = run_predicted_schedule(&cdqs, poses.len(), step, &mut cold);
        let csp = run_schedule(&cdqs, poses.len(), Schedule::Csp { step });
        assert_eq!(
            predicted, csp,
            "never-predicting table must equal plain CSP"
        );
    }

    #[test]
    fn wrong_predictions_still_find_the_collision() {
        let (robot, env, poses) = crossing_setup();
        let cdqs = enumerate_motion_cdqs(&robot, &env, &poses);
        // Predict only known-free poses: everything predicted executes
        // first without a hit, then the queue drains to the true collision.
        let free: Vec<usize> = cdqs
            .iter()
            .filter(|c| !c.colliding)
            .map(|c| c.pose_idx)
            .take(3)
            .collect();
        let mut pred = FixedPredictor {
            hot: free,
            observed: 0,
        };
        let out = run_predicted_schedule(&cdqs, poses.len(), 1, &mut pred);
        assert!(out.colliding);
        assert!(out.cdqs_executed <= out.cdqs_total);
        assert_eq!(pred.observed, out.cdqs_executed);
    }

    #[test]
    fn free_motion_executes_everything_once() {
        let robot: Robot = presets::planar_2d().into();
        let env = Environment::empty(robot.workspace());
        let poses =
            Motion::new(Config::new(vec![-0.8, 0.0]), Config::new(vec![0.8, 0.0])).discretize(9);
        let cdqs = enumerate_motion_cdqs(&robot, &env, &poses);
        let mut pred = FixedPredictor {
            hot: vec![0, 4],
            observed: 0,
        };
        let out = run_predicted_schedule(&cdqs, poses.len(), 3, &mut pred);
        assert!(!out.colliding);
        assert_eq!(out.cdqs_executed, out.cdqs_total);
        assert_eq!(pred.observed, out.cdqs_total);
    }

    #[test]
    fn arm_motion_through_obstacle() {
        let robot: Robot = presets::kuka_iiwa().into();
        let env = Environment::new(
            robot.workspace(),
            vec![Aabb::from_center_half_extents(
                Vec3::new(0.5, 0.0, 0.5),
                Vec3::splat(0.25),
            )],
        );
        // A sweep of the base joint passes the arm through the obstacle.
        let motion = Motion::new(
            Config::new(vec![-1.2, 0.9, 0.0, -1.2, 0.0, 0.0, 0.0]),
            Config::new(vec![1.2, 0.9, 0.0, -1.2, 0.0, 0.0, 0.0]),
        );
        let poses = motion.discretize(20);
        let oracle = check_motion_scheduled(&robot, &env, &poses, Schedule::Oracle);
        let naive = check_motion_scheduled(&robot, &env, &poses, Schedule::Naive);
        if oracle.colliding {
            assert_eq!(oracle.cdqs_executed, 1);
            assert!(naive.cdqs_executed > 1);
        } else {
            assert_eq!(naive.cdqs_executed, naive.cdqs_total);
        }
    }
}
