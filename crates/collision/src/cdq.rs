//! Collision Detection Queries (CDQs) and their enumeration.
//!
//! A pose-environment or motion-environment collision check decomposes into
//! many elementary CDQs — one bounding volume of the robot against the whole
//! environment — whose outputs are OR-combined with early exit (paper
//! §III-A). [`enumerate_motion_cdqs`] materializes that decomposition with
//! ground-truth outcomes, which the schedulers, the Oracle limit study, the
//! trace recorder, and the accelerator simulator all consume.

use crate::environment::Environment;
use copred_geometry::{Obb, Vec3};
use copred_kinematics::{Config, Robot};

/// One elementary collision detection query, with its ground-truth outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CdqInfo {
    /// Index of the sample pose along the motion (0 for pose checks).
    pub pose_idx: usize,
    /// Index of the robot link the query bounds.
    pub link_idx: usize,
    /// Cartesian center of the bounding volume — the COORD hash input.
    pub center: Vec3,
    /// The oriented box tested against the environment.
    pub obb: Obb,
    /// Ground truth: does this volume intersect any obstacle?
    pub colliding: bool,
    /// Obstacle-pair tests the early-exit CDU evaluates for this query.
    pub obstacle_tests: usize,
}

/// All CDQs for a single pose check, in link order.
pub fn enumerate_pose_cdqs(robot: &Robot, env: &Environment, q: &Config) -> Vec<CdqInfo> {
    enumerate_motion_cdqs(robot, env, std::slice::from_ref(q))
}

/// All CDQs for a discretized motion, pose-major then link order, with
/// `pose_idx` set to the sample index.
pub fn enumerate_motion_cdqs(robot: &Robot, env: &Environment, poses: &[Config]) -> Vec<CdqInfo> {
    let mut out = Vec::with_capacity(poses.len() * robot.link_count());
    for (pose_idx, q) in poses.iter().enumerate() {
        let pose = robot.fk(q);
        out.extend(pose.links.iter().enumerate().map(|(link_idx, link)| {
            let (colliding, obstacle_tests) = env.obb_collides_with_cost(&link.obb);
            CdqInfo {
                pose_idx,
                link_idx,
                center: link.center,
                obb: link.obb,
                colliding,
                obstacle_tests,
            }
        }));
    }
    out
}

/// Checks a single pose with early exit, returning `(colliding, cdqs
/// executed)`. This is the hot path planners call: links are tested in
/// order and the check stops at the first collision.
pub fn check_pose(robot: &Robot, env: &Environment, q: &Config) -> (bool, usize) {
    let pose = robot.fk(q);
    for (i, link) in pose.links.iter().enumerate() {
        if env.obb_collides(&link.obb) {
            return (true, i + 1);
        }
    }
    (false, pose.links.len())
}

/// Ground truth for a motion: `true` when any sample pose collides.
pub fn motion_collides(robot: &Robot, env: &Environment, poses: &[Config]) -> bool {
    poses.iter().any(|q| check_pose(robot, env, q).0)
}

/// Aggregate CDQ counters accumulated over a motion-planning query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CdqStats {
    /// Elementary CDQs executed.
    pub cdqs: u64,
    /// Obstacle-pair tests executed inside those CDQs.
    pub obstacle_tests: u64,
    /// Pose/motion checks that returned "colliding".
    pub colliding_checks: u64,
    /// Pose/motion checks that returned "collision-free".
    pub free_checks: u64,
}

impl CdqStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed check.
    pub fn record_check(&mut self, colliding: bool, cdqs: usize) {
        self.cdqs += cdqs as u64;
        if colliding {
            self.colliding_checks += 1;
        } else {
            self.free_checks += 1;
        }
    }

    /// Total checks recorded.
    pub fn total_checks(&self) -> u64 {
        self.colliding_checks + self.free_checks
    }

    /// Fraction of checks that collided (the paper reports 52%–93% for
    /// planner workloads).
    pub fn colliding_fraction(&self) -> f64 {
        let t = self.total_checks();
        if t == 0 {
            0.0
        } else {
            self.colliding_checks as f64 / t as f64
        }
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &CdqStats) {
        self.cdqs += other.cdqs;
        self.obstacle_tests += other.obstacle_tests;
        self.colliding_checks += other.colliding_checks;
        self.free_checks += other.free_checks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copred_geometry::{Aabb, Vec3};
    use copred_kinematics::presets;

    fn planar_env() -> (Robot, Environment) {
        let robot: Robot = presets::planar_2d().into();
        let ws = robot.workspace();
        // A block on the right half of the plane.
        let env = Environment::new(
            ws,
            vec![Aabb::new(
                Vec3::new(0.3, -1.0, -0.1),
                Vec3::new(0.6, 1.0, 0.1),
            )],
        );
        (robot, env)
    }

    #[test]
    fn pose_cdqs_have_ground_truth() {
        let (robot, env) = planar_env();
        let hit = enumerate_pose_cdqs(&robot, &env, &Config::new(vec![0.4, 0.0]));
        assert_eq!(hit.len(), 1);
        assert!(hit[0].colliding);
        let miss = enumerate_pose_cdqs(&robot, &env, &Config::new(vec![-0.5, 0.0]));
        assert!(!miss[0].colliding);
    }

    #[test]
    fn check_pose_early_exits() {
        let (robot, env) = planar_env();
        let (hit, n) = check_pose(&robot, &env, &Config::new(vec![0.45, 0.2]));
        assert!(hit);
        assert_eq!(n, 1);
        let (hit, n) = check_pose(&robot, &env, &Config::new(vec![-0.45, 0.2]));
        assert!(!hit);
        assert_eq!(n, robot.link_count());
    }

    #[test]
    fn arm_pose_early_exit_skips_later_links() {
        let robot: Robot = presets::kuka_iiwa().into();
        let ws = robot.workspace();
        // Obstacle swallowing the base: the first link collides immediately.
        let env = Environment::new(
            ws,
            vec![Aabb::from_center_half_extents(
                Vec3::new(0.0, 0.0, 0.2),
                Vec3::splat(0.3),
            )],
        );
        let (hit, n) = check_pose(&robot, &env, &Config::zeros(7));
        assert!(hit);
        assert!(n < robot.link_count(), "early exit expected, executed {n}");
    }

    #[test]
    fn motion_enumeration_is_pose_major() {
        let (robot, env) = planar_env();
        let poses = vec![
            Config::new(vec![-0.5, 0.0]),
            Config::new(vec![0.0, 0.0]),
            Config::new(vec![0.45, 0.0]),
        ];
        let cdqs = enumerate_motion_cdqs(&robot, &env, &poses);
        assert_eq!(cdqs.len(), 3);
        assert_eq!(cdqs[0].pose_idx, 0);
        assert_eq!(cdqs[2].pose_idx, 2);
        assert!(!cdqs[0].colliding);
        assert!(cdqs[2].colliding);
        assert!(motion_collides(&robot, &env, &poses));
    }

    #[test]
    fn stats_accumulate_and_merge() {
        let mut s = CdqStats::new();
        s.record_check(true, 3);
        s.record_check(false, 7);
        assert_eq!(s.cdqs, 10);
        assert_eq!(s.total_checks(), 2);
        assert!((s.colliding_fraction() - 0.5).abs() < 1e-12);
        let mut t = CdqStats::new();
        t.record_check(true, 1);
        s.merge(&t);
        assert_eq!(s.cdqs, 11);
        assert_eq!(s.colliding_checks, 2);
        assert_eq!(CdqStats::new().colliding_fraction(), 0.0);
    }
}
