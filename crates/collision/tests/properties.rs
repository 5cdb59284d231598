//! Property-based tests for the collision substrate.

use copred_collision::{
    check_motion_scheduled, check_pose, enumerate_motion_cdqs, run_schedule, Environment,
    MotionCheckOutcome, Schedule,
};
use copred_geometry::{Aabb, Vec3};
use copred_kinematics::{presets, Config, Motion, Robot};
use proptest::prelude::*;

fn planar_env(obstacles: Vec<Aabb>) -> (Robot, Environment) {
    let robot: Robot = presets::planar_2d().into();
    let env = Environment::new(robot.workspace(), obstacles);
    (robot, env)
}

fn obstacles() -> impl Strategy<Value = Vec<Aabb>> {
    prop::collection::vec(
        (-0.9..0.7f64, -0.9..0.7f64, 0.02..0.3f64, 0.02..0.3f64).prop_map(|(x, y, w, h)| {
            Aabb::new(Vec3::new(x, y, -0.1), Vec3::new(x + w, y + h, 0.1))
        }),
        0..6,
    )
}

fn config2() -> impl Strategy<Value = Config> {
    (-0.95..0.95f64, -0.95..0.95f64).prop_map(|(x, y)| Config::new(vec![x, y]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn schedules_agree_on_outcome(obs in obstacles(), from in config2(), to in config2(), n in 2usize..25) {
        let (robot, env) = planar_env(obs);
        let poses = Motion::new(from, to).discretize(n);
        let mut outcomes = Vec::new();
        for s in [Schedule::Naive, Schedule::Csp { step: 3 }, Schedule::csp_default(), Schedule::Oracle] {
            let out = check_motion_scheduled(&robot, &env, &poses, s);
            prop_assert!(out.cdqs_executed <= out.cdqs_total);
            outcomes.push(out.colliding);
        }
        prop_assert!(outcomes.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn oracle_is_lower_bound(obs in obstacles(), from in config2(), to in config2(), n in 2usize..25, step in 1usize..8) {
        let (robot, env) = planar_env(obs);
        let poses = Motion::new(from, to).discretize(n);
        let cdqs = enumerate_motion_cdqs(&robot, &env, &poses);
        let oracle = run_schedule(&cdqs, n, Schedule::Oracle);
        let other = run_schedule(&cdqs, n, Schedule::Csp { step });
        prop_assert!(oracle.cdqs_executed <= other.cdqs_executed);
    }

    #[test]
    fn free_motions_cost_everything(from in config2(), to in config2(), n in 2usize..25) {
        let (robot, env) = planar_env(vec![]);
        let poses = Motion::new(from, to).discretize(n);
        for s in [Schedule::Naive, Schedule::csp_default(), Schedule::Oracle] {
            let out = check_motion_scheduled(&robot, &env, &poses, s);
            prop_assert!(!out.colliding);
            prop_assert_eq!(out.cdqs_executed, out.cdqs_total);
        }
    }

    #[test]
    fn pose_check_agrees_with_enumeration(obs in obstacles(), q in config2()) {
        let (robot, env) = planar_env(obs);
        let (hit, executed) = check_pose(&robot, &env, &q);
        let cdqs = enumerate_motion_cdqs(&robot, &env, std::slice::from_ref(&q));
        prop_assert_eq!(hit, cdqs.iter().any(|c| c.colliding));
        prop_assert!(executed <= cdqs.len());
    }

    #[test]
    fn obstacle_tests_bounded_by_obstacle_count(obs in obstacles(), q in config2()) {
        let (robot, env) = planar_env(obs);
        for cdq in enumerate_motion_cdqs(&robot, &env, std::slice::from_ref(&q)) {
            prop_assert!(cdq.obstacle_tests <= env.obstacle_count());
            if !cdq.colliding {
                // A miss must have scanned every obstacle.
                prop_assert_eq!(cdq.obstacle_tests, env.obstacle_count());
            } else {
                prop_assert!(cdq.obstacle_tests >= 1);
            }
        }
    }

    #[test]
    fn adding_obstacles_never_unblocks(obs in obstacles(), extra in obstacles(), from in config2(), to in config2()) {
        // Monotonicity: a motion colliding in a sub-environment still
        // collides when more obstacles are added.
        let (robot, env_small) = planar_env(obs.clone());
        let mut all = obs;
        all.extend(extra);
        let (_, env_big) = planar_env(all);
        let poses = Motion::new(from, to).discretize(9);
        let small: MotionCheckOutcome =
            check_motion_scheduled(&robot, &env_small, &poses, Schedule::Naive);
        let big = check_motion_scheduled(&robot, &env_big, &poses, Schedule::Naive);
        if small.colliding {
            prop_assert!(big.colliding);
        }
    }

    #[test]
    fn clearance_zero_iff_point_collides(obs in obstacles(), q in config2()) {
        let (_, env) = planar_env(obs);
        let p = Vec3::new(q[0], q[1], 0.0);
        if env.point_collides(p) {
            prop_assert_eq!(env.clearance(p), 0.0);
        } else if env.obstacle_count() > 0 {
            prop_assert!(env.clearance(p) > 0.0);
        }
    }
}
