//! # copred-core
//!
//! The paper's primary contribution: **COORD** collision prediction for
//! robot motion planning.
//!
//! * [`hash`]: the hash-function design space — C-space hashes (POSE,
//!   POSE-part, POSE+fold, ENPOSE) and physical-space hashes (COORD,
//!   ENCOORD).
//! * [`Cht`]: the Collision History Table with saturating COLL/NONCOLL
//!   counters, the `S` prediction strategy, and the `U` update policy;
//!   [`Cell`] is its entry and owns the one counter-update rule.
//! * [`Predictor`]: hash + CHT, including Algorithm 1 (motion collision
//!   detection with collision prediction).
//! * [`PredictionMetrics`]: precision/recall scoring.
//! * [`statmodel`]: the Fig. 13 statistical computation-reduction model.
//! * [`mlp`]: the from-scratch autoencoder behind ENPOSE/ENCOORD.
//!
//! ## Example
//!
//! ```
//! use copred_core::Predictor;
//! use copred_collision::Environment;
//! use copred_geometry::{Aabb, Vec3};
//! use copred_kinematics::{presets, Config, Motion, Robot};
//!
//! let robot: Robot = presets::planar_2d().into();
//! let env = Environment::new(
//!     robot.workspace(),
//!     vec![Aabb::new(Vec3::new(0.2, -1.0, -0.1), Vec3::new(0.6, 1.0, 0.1))],
//! );
//! let mut pred = Predictor::coord_default(&robot, 42);
//! let poses = Motion::new(Config::new(vec![-0.8, 0.0]), Config::new(vec![0.8, 0.0]))
//!     .discretize(17);
//! let out = pred.check_motion(&robot, &env, &poses);
//! assert!(out.colliding);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cht;
pub mod hash;
mod metrics;
pub mod mlp;
mod predictor;
pub mod statmodel;

pub use cht::{Cell, Cht, ChtParams, ChtStats, Strategy};
pub use hash::{
    fold_xor, CollisionHash, CoordHash, DofQuantizer, EncoordHash, EnposeHash, HashInput,
    PoseFoldHash, PoseHash, PosePartHash,
};
pub use metrics::PredictionMetrics;
pub use predictor::{evaluate_online, samples_for_poses, PredSample, Predictor};
