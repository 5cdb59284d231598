//! # copred
//!
//! Facade crate for the COORD collision-prediction reproduction
//! ("Collision Prediction for Robotics Accelerators", ISCA 2024).
//! Re-exports every subsystem under one roof:
//!
//! * [`geometry`] — vectors, transforms, OBB/sphere/AABB, voxels, octrees;
//! * [`kinematics`] — DH forward kinematics and the evaluated robots;
//! * [`collision`] — environments, CDQ decomposition, reference schedulers;
//! * [`core`] — the COORD predictor: hashes, CHT, Algorithm 1, metrics;
//! * [`envgen`] — calibrated benchmark scenes, suites B1–B6, G1–G5 groups;
//! * [`planners`] — MPNet/GNNMP emulators, BIT*, RRT(-Connect), PRM;
//! * [`trace`] — CDQ trace capture, serialization, replay;
//! * [`swexec`] — CPU threads + GPU wavefront software models;
//! * [`accel`] — the cycle-level COPU+CDU simulator and energy/area models;
//! * [`service`] — the batched, session-sharded collision-prediction
//!   server (TCP wire protocol, admission gate with backpressure, load
//!   generator and op-log replay).
//!
//! ## Quickstart
//!
//! ```
//! use copred::core::Predictor;
//! use copred::collision::Environment;
//! use copred::geometry::{Aabb, Vec3};
//! use copred::kinematics::{presets, Config, Motion, Robot};
//!
//! let robot: Robot = presets::planar_2d().into();
//! let env = Environment::new(
//!     robot.workspace(),
//!     vec![Aabb::new(Vec3::new(0.2, -1.0, -0.1), Vec3::new(0.6, 1.0, 0.1))],
//! );
//! let mut predictor = Predictor::coord_default(&robot, 42);
//! let poses = Motion::new(Config::new(vec![-0.8, 0.0]), Config::new(vec![0.8, 0.0]))
//!     .discretize(17);
//! let outcome = predictor.check_motion(&robot, &env, &poses);
//! assert!(outcome.colliding);
//! ```

pub use copred_accel as accel;
pub use copred_collision as collision;
pub use copred_core as core;
pub use copred_envgen as envgen;
pub use copred_geometry as geometry;
pub use copred_kinematics as kinematics;
pub use copred_planners as planners;
pub use copred_service as service;
pub use copred_swexec as swexec;
pub use copred_trace as trace;
