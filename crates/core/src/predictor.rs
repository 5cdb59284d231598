//! The COORD collision predictor and its software integration
//! (Algorithm 1 of the paper).

use crate::cht::{Cht, ChtParams};
use crate::hash::{CollisionHash, CoordHash, HashInput};
use crate::metrics::PredictionMetrics;
use copred_collision::{enumerate_pose_cdqs, Environment, MotionCheckOutcome};
use copred_kinematics::{Config, Robot, RobotPose};

/// A collision predictor: a hash function plus a Collision History Table.
///
/// # Examples
///
/// ```
/// use copred_core::{ChtParams, Predictor};
/// use copred_collision::Environment;
/// use copred_geometry::{Aabb, Vec3};
/// use copred_kinematics::{presets, Config, Motion, Robot};
///
/// let robot: Robot = presets::planar_2d().into();
/// let env = Environment::new(
///     robot.workspace(),
///     vec![Aabb::new(Vec3::new(0.2, -1.0, -0.1), Vec3::new(0.6, 1.0, 0.1))],
/// );
/// let mut pred = Predictor::coord_default(&robot, 1);
/// let poses = Motion::new(Config::new(vec![-0.8, 0.0]), Config::new(vec![0.8, 0.0]))
///     .discretize(17);
/// let out = pred.check_motion(&robot, &env, &poses);
/// assert!(out.colliding);
/// ```
#[derive(Debug)]
pub struct Predictor {
    hasher: Box<dyn CollisionHash>,
    cht: Cht,
}

impl Predictor {
    /// Creates a predictor from a hash function and CHT parameters.
    pub fn new(hasher: Box<dyn CollisionHash>, params: ChtParams, seed: u64) -> Self {
        Predictor {
            hasher,
            cht: Cht::new(params, seed),
        }
    }

    /// The paper's default COORD predictor for `robot`: COORD hash sized to
    /// the paper's CHT (4096 entries for arms, 1024 for 2D), `S = 1`,
    /// `U = 0.125`.
    pub fn coord_default(robot: &Robot, seed: u64) -> Self {
        let hash = CoordHash::paper_default(robot);
        let params = match robot {
            Robot::Planar(_) => ChtParams::paper_2d(),
            Robot::Arm(_) => ChtParams::paper_arm(),
        };
        debug_assert_eq!(hash.bits(), params.bits);
        Predictor::new(Box::new(hash), params, seed)
    }

    /// A COORD predictor whose strategy `S` adapts to the environment's
    /// measured clutter (the paper's §VI-A1 future-work heuristic): low
    /// clutter gets an aggressive recall-first strategy, high clutter a
    /// precision-first one. `clutter` is the occupied workspace fraction
    /// (e.g. `Environment::clutter_fraction(32)`).
    pub fn coord_adaptive(robot: &Robot, clutter: f64, seed: u64) -> Self {
        let mut this = Predictor::coord_default(robot, seed);
        let params = ChtParams {
            strategy: crate::cht::Strategy::adaptive_for_clutter(clutter),
            ..*this.cht.params()
        };
        this.cht = Cht::new(params, seed);
        this
    }

    /// The hash function in use.
    pub fn hasher(&self) -> &dyn CollisionHash {
        self.hasher.as_ref()
    }

    /// The underlying history table.
    pub fn cht(&self) -> &Cht {
        &self.cht
    }

    /// Predicts whether a CDQ will collide.
    pub fn predict(&mut self, input: &HashInput<'_>) -> bool {
        let code = self.hasher.code(input);
        self.cht.predict(code)
    }

    /// Records an executed CDQ's outcome.
    pub fn observe(&mut self, input: &HashInput<'_>, colliding: bool) {
        let code = self.hasher.code(input);
        self.cht.observe(code, colliding);
    }

    /// Resets the history for a new motion-planning query.
    pub fn reset(&mut self) {
        self.cht.reset();
    }

    /// Motion-environment collision check with collision prediction —
    /// Algorithm 1 of the paper.
    ///
    /// Sample poses are consumed in the CSP order of the underlying
    /// scheduler (ref. \[43\]) (the predictor sits on top of coarse-step scheduling,
    /// as in the hardware COPU). Every link CDQ is first looked up in the
    /// CHT: predicted-colliding CDQs are executed immediately (early exit
    /// on a hit), the rest are queued. If no predicted CDQ hits, the queue
    /// is drained in arrival order. Every executed CDQ updates the history
    /// table, so with a cold table the check degrades exactly to CSP.
    pub fn check_motion(
        &mut self,
        robot: &Robot,
        env: &Environment,
        poses: &[Config],
    ) -> MotionCheckOutcome {
        // Queue entries: (config index, link center, link OBB).
        let mut queue: Vec<(usize, copred_geometry::Vec3, copred_geometry::Obb)> = Vec::new();
        let mut executed = 0usize;
        let mut tests = 0usize;
        let total = poses.len() * robot.link_count();

        let order =
            copred_kinematics::csp_order(poses.len(), copred_collision::Schedule::DEFAULT_CSP_STEP);
        let mut pose = RobotPose::default();
        for pi in order {
            let q = &poses[pi];
            robot.fk_into(q, &mut pose);
            for link in &pose.links {
                let input = HashInput {
                    config: q,
                    center: link.center,
                };
                if self.predict(&input) {
                    let (colliding, cost) = env.obb_collides_with_cost(&link.obb);
                    executed += 1;
                    tests += cost;
                    self.observe(&input, colliding);
                    if colliding {
                        return MotionCheckOutcome {
                            colliding: true,
                            cdqs_executed: executed,
                            cdqs_total: total,
                            obstacle_tests: tests,
                        };
                    }
                } else {
                    queue.push((pi, link.center, link.obb));
                }
            }
        }
        for (pi, center, obb) in queue {
            let (colliding, cost) = env.obb_collides_with_cost(&obb);
            executed += 1;
            tests += cost;
            let input = HashInput {
                config: &poses[pi],
                center,
            };
            self.observe(&input, colliding);
            if colliding {
                return MotionCheckOutcome {
                    colliding: true,
                    cdqs_executed: executed,
                    cdqs_total: total,
                    obstacle_tests: tests,
                };
            }
        }
        MotionCheckOutcome {
            colliding: false,
            cdqs_executed: executed,
            cdqs_total: total,
            obstacle_tests: tests,
        }
    }

    /// Pose-environment check with prediction: predicted links first, then
    /// the rest, early exit on a hit. Returns `(colliding, cdqs executed)`.
    pub fn check_pose(&mut self, robot: &Robot, env: &Environment, q: &Config) -> (bool, usize) {
        let out = self.check_motion(robot, env, std::slice::from_ref(q));
        (out.colliding, out.cdqs_executed)
    }
}

/// One labeled sample for offline prediction-quality evaluation: the pose,
/// one link center, and the CDQ's ground truth.
#[derive(Debug, Clone)]
pub struct PredSample {
    /// The robot configuration.
    pub config: Config,
    /// The link center (hash input).
    pub center: copred_geometry::Vec3,
    /// Ground-truth CDQ outcome.
    pub colliding: bool,
}

/// Builds the per-CDQ evaluation samples for a set of poses in an
/// environment — the protocol of the paper's hash-function studies (1000
/// random poses per scene).
pub fn samples_for_poses(robot: &Robot, env: &Environment, poses: &[Config]) -> Vec<PredSample> {
    let mut out = Vec::new();
    for q in poses {
        for cdq in enumerate_pose_cdqs(robot, env, q) {
            out.push(PredSample {
                config: q.clone(),
                center: cdq.center,
                colliding: cdq.colliding,
            });
        }
    }
    out
}

/// Streams `samples` through a predictor in order: predict, score against
/// ground truth, then observe. Returns the confusion matrix — the paper's
/// online precision/recall measurement (Fig. 9, Fig. 13).
pub fn evaluate_online(predictor: &mut Predictor, samples: &[PredSample]) -> PredictionMetrics {
    let mut metrics = PredictionMetrics::new();
    for s in samples {
        let input = HashInput {
            config: &s.config,
            center: s.center,
        };
        let predicted = predictor.predict(&input);
        metrics.record(predicted, s.colliding);
        predictor.observe(&input, s.colliding);
    }
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cht::Strategy;
    use copred_collision::{check_motion_scheduled, Schedule};
    use copred_geometry::{Aabb, Vec3};
    use copred_kinematics::{presets, Motion};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn walled_planar() -> (Robot, Environment) {
        let robot: Robot = presets::planar_2d().into();
        let env = Environment::new(
            robot.workspace(),
            vec![Aabb::new(
                Vec3::new(0.2, -1.0, -0.1),
                Vec3::new(0.6, 1.0, 0.1),
            )],
        );
        (robot, env)
    }

    #[test]
    fn predictor_agrees_with_ground_truth() {
        let (robot, env) = walled_planar();
        let mut pred = Predictor::coord_default(&robot, 3);
        for (motion, expect) in [
            (
                Motion::new(Config::new(vec![-0.8, 0.0]), Config::new(vec![0.8, 0.0])),
                true,
            ),
            (
                Motion::new(Config::new(vec![-0.8, 0.0]), Config::new(vec![-0.1, 0.0])),
                false,
            ),
        ] {
            let poses = motion.discretize(17);
            let out = pred.check_motion(&robot, &env, &poses);
            assert_eq!(out.colliding, expect);
        }
    }

    #[test]
    fn warm_history_cuts_cdqs_on_colliding_motions() {
        let (robot, env) = walled_planar();
        let mut pred = Predictor::coord_default(&robot, 3);
        let motion = Motion::new(Config::new(vec![-0.8, 0.0]), Config::new(vec![0.8, 0.0]));
        let poses = motion.discretize(33);
        // Cold pass fills the table.
        let cold = pred.check_motion(&robot, &env, &poses);
        // Warm pass on a slightly shifted colliding motion.
        let motion2 = Motion::new(Config::new(vec![-0.8, 0.05]), Config::new(vec![0.8, 0.05]));
        let warm = pred.check_motion(&robot, &env, &motion2.discretize(33));
        assert!(warm.colliding);
        assert!(
            warm.cdqs_executed < cold.cdqs_executed,
            "warm {} !< cold {}",
            warm.cdqs_executed,
            cold.cdqs_executed
        );
        // The warm pass should be near the oracle limit of 1.
        assert!(
            warm.cdqs_executed <= 4,
            "warm executed {}",
            warm.cdqs_executed
        );
    }

    #[test]
    fn free_motion_executes_every_cdq_once() {
        let (robot, env) = walled_planar();
        let mut pred = Predictor::coord_default(&robot, 3);
        let poses =
            Motion::new(Config::new(vec![-0.9, -0.5]), Config::new(vec![-0.9, 0.5])).discretize(11);
        let out = pred.check_motion(&robot, &env, &poses);
        assert!(!out.colliding);
        assert_eq!(out.cdqs_executed, 11);
        assert_eq!(out.cdqs_total, 11);
    }

    #[test]
    fn prediction_never_changes_the_answer() {
        // Soundness: prediction reorders CDQs but every motion's outcome
        // matches the unpredicted schedule.
        let (robot, env) = walled_planar();
        let mut pred = Predictor::coord_default(&robot, 5);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..40 {
            let m = Motion::new(
                robot.sample_uniform(&mut rng),
                robot.sample_uniform(&mut rng),
            );
            let poses = m.discretize(9);
            let with_pred = pred.check_motion(&robot, &env, &poses);
            let without = check_motion_scheduled(&robot, &env, &poses, Schedule::Naive);
            assert_eq!(with_pred.colliding, without.colliding);
        }
    }

    #[test]
    fn reset_forgets_history() {
        let (robot, env) = walled_planar();
        let mut pred = Predictor::coord_default(&robot, 3);
        let poses =
            Motion::new(Config::new(vec![-0.8, 0.0]), Config::new(vec![0.8, 0.0])).discretize(33);
        let cold = pred.check_motion(&robot, &env, &poses);
        pred.reset();
        let again = pred.check_motion(&robot, &env, &poses);
        assert_eq!(cold.cdqs_executed, again.cdqs_executed);
    }

    #[test]
    fn online_evaluation_produces_sane_metrics() {
        let (robot, env) = walled_planar();
        let mut rng = StdRng::seed_from_u64(2);
        // Enough poses that each COORD bin accumulates history (the planar
        // robot contributes one CDQ per pose, unlike arms with 7).
        let poses: Vec<Config> = (0..4000).map(|_| robot.sample_uniform(&mut rng)).collect();
        let samples = samples_for_poses(&robot, &env, &poses);
        let mut pred = Predictor::coord_default(&robot, 3);
        let m = evaluate_online(&mut pred, &samples);
        assert_eq!(m.total() as usize, samples.len());
        // COORD on a big static wall should predict usefully better than the
        // base rate.
        assert!(m.base_rate() > 0.05, "base rate {}", m.base_rate());
        assert!(
            m.precision() > m.base_rate(),
            "precision {} vs base {}",
            m.precision(),
            m.base_rate()
        );
        assert!(m.recall() > 0.3, "recall {}", m.recall());
    }

    #[test]
    fn custom_strategy_is_respected() {
        let (robot, env) = walled_planar();
        // Very conservative strategy (huge S): predictor almost never fires,
        // so every CDQ goes through the queue exactly once.
        let hash = CoordHash::paper_default(&robot);
        let params = ChtParams {
            bits: 10,
            counter_bits: 4,
            strategy: Strategy::new(1000.0),
            update_fraction: 1.0,
        };
        let mut pred = Predictor::new(Box::new(hash), params, 4);
        let poses =
            Motion::new(Config::new(vec![-0.8, 0.0]), Config::new(vec![0.8, 0.0])).discretize(9);
        let out = pred.check_motion(&robot, &env, &poses);
        assert!(out.colliding);
    }

    #[test]
    fn adaptive_predictor_uses_clutter_strategy() {
        let (robot, env) = walled_planar();
        let clutter = env.clutter_fraction(16);
        let pred = Predictor::coord_adaptive(&robot, clutter, 3);
        let expected = Strategy::adaptive_for_clutter(clutter);
        assert_eq!(pred.cht().params().strategy.s(), expected.s());
        // Still answers queries correctly.
        let mut pred = pred;
        let (hit, _) = pred.check_pose(&robot, &env, &Config::new(vec![0.4, 0.0]));
        assert!(hit);
    }

    #[test]
    fn pose_check_wrapper() {
        let (robot, env) = walled_planar();
        let mut pred = Predictor::coord_default(&robot, 3);
        let (hit, n) = pred.check_pose(&robot, &env, &Config::new(vec![0.4, 0.0]));
        assert!(hit);
        assert_eq!(n, 1);
        let (hit, _) = pred.check_pose(&robot, &env, &Config::new(vec![-0.8, 0.0]));
        assert!(!hit);
    }
}
