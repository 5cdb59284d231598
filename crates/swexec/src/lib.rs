//! # copred-swexec
//!
//! Software (CPU and GPU) execution models for collision prediction
//! (paper §III-E and Fig. 11): a real multi-threaded CPU implementation
//! with a lock-free shared Collision History Table, and a calibrated
//! bulk-parallel GPU model capturing redundant-work growth, warp
//! divergence, and shared-table memory stalls.
//!
//! ## Example
//!
//! ```
//! use copred_swexec::{run_cpu, CpuExecConfig};
//! use copred_collision::Environment;
//! use copred_geometry::{Aabb, Vec3};
//! use copred_kinematics::{presets, Config, Motion, Robot};
//!
//! let robot: Robot = presets::planar_2d().into();
//! let env = Environment::new(
//!     robot.workspace(),
//!     vec![Aabb::new(Vec3::new(0.1, -1.0, -0.1), Vec3::new(0.5, 1.0, 0.1))],
//! );
//! let motions = vec![
//!     Motion::new(Config::new(vec![-0.8, 0.0]), Config::new(vec![0.8, 0.0])).discretize(16),
//! ];
//! let result = run_cpu(&robot, &env, &motions, &CpuExecConfig::default());
//! assert_eq!(result.colliding_motions, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod concurrent_cht;
mod cpu;
mod gpu;

pub use concurrent_cht::ConcurrentCht;
pub use cpu::{run_cpu, CpuExecConfig, CpuExecResult};
pub use gpu::{gpu_sweep, run_gpu_model, GpuModelParams, GpuRun, GpuSweepRow, MOTION_LANES};
