//! # copred-geometry
//!
//! Geometry substrate for the COORD collision-prediction reproduction:
//! vectors, rotations, rigid transforms, bounding volumes (AABB / OBB /
//! sphere), 16-bit fixed-point coordinate quantization, voxel grids and
//! octrees.
//!
//! Everything here is allocation-free value types plus two container types
//! ([`VoxelGrid`], [`Octree`]) used by the Dadu-P accelerator substrate.
//!
//! ## Example
//!
//! ```
//! use copred_geometry::{Aabb, FixedEncoder, Mat3, Obb, Vec3};
//!
//! // A robot link bounded by an OBB, tested against a cuboid obstacle:
//! let link = Obb::new(Vec3::new(0.3, 0.0, 0.5), Mat3::rot_y(0.4), Vec3::new(0.25, 0.05, 0.05));
//! let obstacle = Aabb::new(Vec3::new(0.2, -0.2, 0.3), Vec3::new(0.6, 0.2, 0.7));
//! assert!(link.intersects_aabb(&obstacle));
//!
//! // The COORD hash quantizes the link center to 16-bit fixed point:
//! let ws = Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0));
//! let q = FixedEncoder::new(ws).encode(link.center);
//! assert_eq!(q.len(), 3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod aabb;
mod fixed;
mod iso3;
mod mat3;
mod obb;
mod octree;
mod sphere;
mod vec3;
mod voxel;

pub use aabb::Aabb;
pub use fixed::{msbs, FixedEncoder, FIXED_BITS};
pub use iso3::Iso3;
pub use mat3::Mat3;
pub use obb::{Obb, BOUNDARY_EPS, SAT_AXIS_COUNT};
pub use octree::Octree;
pub use sphere::Sphere;
pub use vec3::Vec3;
pub use voxel::{VoxelCoord, VoxelGrid};
