//! # copred-collision
//!
//! Collision-detection substrate: environments of cuboid obstacles, the
//! decomposition of pose/motion checks into elementary CDQs with early-exit
//! OR semantics, and the reference CDQ scheduling policies (Naive, CSP,
//! Oracle) the COORD predictor is compared against.
//!
//! ## Example
//!
//! ```
//! use copred_collision::{check_motion_scheduled, Environment, Schedule};
//! use copred_geometry::{Aabb, Vec3};
//! use copred_kinematics::{presets, Config, Motion, Robot};
//!
//! let robot: Robot = presets::planar_2d().into();
//! let env = Environment::new(
//!     robot.workspace(),
//!     vec![Aabb::new(Vec3::new(-0.1, -1.0, -0.1), Vec3::new(0.1, 1.0, 0.1))],
//! );
//! let poses = Motion::new(Config::new(vec![-0.5, 0.0]), Config::new(vec![0.5, 0.0]))
//!     .discretize(9);
//! let out = check_motion_scheduled(&robot, &env, &poses, Schedule::Oracle);
//! assert!(out.colliding);
//! assert_eq!(out.cdqs_executed, 1); // the oracle limit
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cdq;
mod environment;
mod schedule;

pub use cdq::{
    check_pose, enumerate_motion_cdqs, enumerate_pose_cdqs, motion_collides, CdqInfo, CdqStats,
};
pub use environment::Environment;
pub use schedule::{
    check_motion_scheduled, run_predicted_schedule, run_schedule, CdqPredictor, MotionCheckOutcome,
    Schedule,
};
