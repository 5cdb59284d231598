//! Planar (2D path-planning) robots.
//!
//! The paper's "2D path planning" benchmarks use a point robot moving in the
//! plane: its C-space is simply its (x, y) position, and collision checking
//! tests a small disc (modeled as a sphere with matching flat OBB) against
//! planar obstacles. The CHT for 2D planning is 1024 entries (vs 4096 for
//! arms).

use crate::config::Config;
use crate::pose::{LinkPose, RobotPose};
use copred_geometry::{Aabb, Obb, Sphere, Vec3};

/// A disc robot translating in the XY plane.
///
/// # Examples
///
/// ```
/// use copred_kinematics::{Config, PlanarModel};
/// use copred_geometry::{Aabb, Vec3};
///
/// let robot = PlanarModel::new("disc", Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0)), 0.02);
/// let pose = robot.fk(&Config::new(vec![0.5, -0.5]));
/// assert_eq!(pose.links.len(), 1);
/// assert_eq!(pose.links[0].center, Vec3::new(0.5, -0.5, 0.0));
/// ```
#[derive(Debug, Clone)]
pub struct PlanarModel {
    name: String,
    bounds: Aabb,
    radius: f64,
}

impl PlanarModel {
    /// Creates a planar disc robot confined to the XY extent of `bounds`.
    ///
    /// # Panics
    ///
    /// Panics when `radius` is not positive.
    pub fn new(name: impl Into<String>, bounds: Aabb, radius: f64) -> Self {
        assert!(radius > 0.0, "disc radius must be positive");
        PlanarModel {
            name: name.into(),
            bounds,
            radius,
        }
    }

    /// Robot name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The robot has 2 DOFs: x and y.
    pub fn dofs(&self) -> usize {
        2
    }

    /// Position limits for DOF `i` (0 = x, 1 = y).
    ///
    /// # Panics
    ///
    /// Panics when `i >= 2`.
    pub fn limits(&self, i: usize) -> (f64, f64) {
        match i {
            0 => (self.bounds.min.x, self.bounds.max.x),
            1 => (self.bounds.min.y, self.bounds.max.y),
            _ => panic!("planar robot has 2 DOFs, asked for limit {i}"),
        }
    }

    /// Disc radius.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// The planar workspace box.
    pub fn workspace(&self) -> Aabb {
        self.bounds
    }

    /// Forward kinematics: the single disc "link" at `(x, y, 0)`.
    ///
    /// # Panics
    ///
    /// Panics when `q` does not have exactly 2 DOFs.
    pub fn fk(&self, q: &Config) -> RobotPose {
        let mut pose = RobotPose {
            links: Vec::with_capacity(1),
        };
        self.fk_into(q, &mut pose);
        pose
    }

    /// [`PlanarModel::fk`] into a caller-owned pose, which is cleared and
    /// refilled without allocating once it has room for one link.
    ///
    /// # Panics
    ///
    /// Panics when `q` does not have exactly 2 DOFs.
    pub fn fk_into(&self, q: &Config, pose: &mut RobotPose) {
        let center = self.center(q);
        let r = self.radius;
        pose.links.clear();
        pose.links.push(LinkPose {
            center,
            obb: Obb::axis_aligned(center, Vec3::new(r, r, r)),
        });
    }

    /// The §VII-1 sphere set: the disc is its own single sphere.
    ///
    /// # Panics
    ///
    /// Panics when `q` does not have exactly 2 DOFs.
    pub fn link_spheres(&self, q: &Config) -> Vec<Vec<Sphere>> {
        vec![vec![Sphere::new(self.center(q), self.radius)]]
    }

    fn center(&self, q: &Config) -> Vec3 {
        assert_eq!(q.dofs(), 2, "planar robot needs a 2-DOF configuration");
        Vec3::planar(q[0], q[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn robot() -> PlanarModel {
        PlanarModel::new("disc", Aabb::new(Vec3::splat(-2.0), Vec3::splat(2.0)), 0.05)
    }

    #[test]
    fn fk_places_disc() {
        let pose = robot().fk(&Config::new(vec![1.0, -1.5]));
        assert_eq!(pose.links[0].center, Vec3::new(1.0, -1.5, 0.0));
        let spheres = robot().link_spheres(&Config::new(vec![1.0, -1.5]));
        assert_eq!(spheres, vec![vec![Sphere::new(pose.links[0].center, 0.05)]]);
        assert_eq!(pose.link_count(), 1);
    }

    #[test]
    fn limits_follow_bounds() {
        let r = robot();
        assert_eq!(r.limits(0), (-2.0, 2.0));
        assert_eq!(r.limits(1), (-2.0, 2.0));
        assert_eq!(r.dofs(), 2);
    }

    #[test]
    #[should_panic(expected = "2 DOFs")]
    fn limit_out_of_range_panics() {
        let _ = robot().limits(2);
    }

    #[test]
    #[should_panic(expected = "2-DOF configuration")]
    fn wrong_config_panics() {
        let _ = robot().fk(&Config::zeros(3));
    }

    #[test]
    fn obb_matches_disc_extent() {
        let pose = robot().fk(&Config::zeros(2));
        let obb = pose.links[0].obb;
        assert!(obb.contains(Vec3::new(0.05, 0.0, 0.0)));
        assert!(!obb.contains(Vec3::new(0.06, 0.0, 0.0)));
    }
}
