//! Unified robot interface over arms and planar robots.

use crate::arm::ArmModel;
use crate::config::Config;
use crate::planar::PlanarModel;
use crate::pose::RobotPose;
use copred_geometry::{Aabb, Sphere};
use rand::Rng;

/// Any robot the reproduction evaluates: a DH arm or a planar disc robot.
///
/// The enum gives planners, environment generators, and the accelerator
/// simulator a single FK/limits interface, matching the paper's evaluation
/// over "different robots" (Baxter, KUKA, Jaco2, 2D path planning).
///
/// # Examples
///
/// ```
/// use copred_kinematics::{presets, Robot};
/// use rand::SeedableRng;
///
/// let robot: Robot = presets::jaco2().into();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let q = robot.sample_uniform(&mut rng);
/// assert_eq!(q.dofs(), 7);
/// assert_eq!(robot.fk(&q).links.len(), 7);
/// ```
#[derive(Debug, Clone)]
pub enum Robot {
    /// A serial DH arm.
    Arm(ArmModel),
    /// A planar disc robot.
    Planar(PlanarModel),
}

impl Robot {
    /// Robot name.
    pub fn name(&self) -> &str {
        match self {
            Robot::Arm(a) => a.name(),
            Robot::Planar(p) => p.name(),
        }
    }

    /// Number of degrees of freedom.
    pub fn dofs(&self) -> usize {
        match self {
            Robot::Arm(a) => a.dofs(),
            Robot::Planar(p) => p.dofs(),
        }
    }

    /// Limits of DOF `i`.
    pub fn limits(&self, i: usize) -> (f64, f64) {
        match self {
            Robot::Arm(a) => a.limits(i),
            Robot::Planar(p) => p.limits(i),
        }
    }

    /// Number of rigid links (OBB CDQs per pose check).
    pub fn link_count(&self) -> usize {
        match self {
            Robot::Arm(a) => a.dofs(),
            Robot::Planar(_) => 1,
        }
    }

    /// Workspace bounding box — also the extent the COORD fixed-point
    /// encoder quantizes over.
    pub fn workspace(&self) -> Aabb {
        match self {
            Robot::Arm(a) => a.workspace(),
            Robot::Planar(p) => p.workspace(),
        }
    }

    /// Forward kinematics: one center and OBB per link.
    ///
    /// # Panics
    ///
    /// Panics when `q` has the wrong number of DOFs.
    pub fn fk(&self, q: &Config) -> RobotPose {
        match self {
            Robot::Arm(a) => a.fk(q),
            Robot::Planar(p) => p.fk(q),
        }
    }

    /// [`Robot::fk`] into a caller-owned pose. `pose` is cleared and
    /// refilled; once it has held one pose of this robot, the call does
    /// not allocate. Hot loops keep one pose per thread.
    ///
    /// # Panics
    ///
    /// Panics when `q` has the wrong number of DOFs.
    pub fn fk_into(&self, q: &Config, pose: &mut RobotPose) {
        match self {
            Robot::Arm(a) => a.fk_into(q, pose),
            Robot::Planar(p) => p.fk_into(q, pose),
        }
    }

    /// The §VII-1 sphere sets, one per link (base outward). Forward
    /// kinematics does not build them; only the sphere study asks.
    ///
    /// # Panics
    ///
    /// Panics when `q` has the wrong number of DOFs.
    pub fn link_spheres(&self, q: &Config) -> Vec<Vec<Sphere>> {
        match self {
            Robot::Arm(a) => a.link_spheres(q),
            Robot::Planar(p) => p.link_spheres(q),
        }
    }

    /// Number of sphere CDQs needed for one pose check.
    pub fn sphere_count(&self) -> usize {
        match self {
            Robot::Arm(a) => a.dofs() * a.spheres_per_link(),
            Robot::Planar(_) => 1,
        }
    }

    /// Samples a configuration uniformly within joint limits.
    pub fn sample_uniform<R: Rng + ?Sized>(&self, rng: &mut R) -> Config {
        (0..self.dofs())
            .map(|i| {
                let (lo, hi) = self.limits(i);
                rng.gen_range(lo..hi)
            })
            .collect()
    }

    /// Clamps a configuration into joint limits.
    pub fn clamp(&self, mut q: Config) -> Config {
        for i in 0..self.dofs().min(q.dofs()) {
            let (lo, hi) = self.limits(i);
            q.values_mut()[i] = q[i].clamp(lo, hi);
        }
        q
    }
}

impl From<ArmModel> for Robot {
    fn from(a: ArmModel) -> Self {
        Robot::Arm(a)
    }
}

impl From<PlanarModel> for Robot {
    fn from(p: PlanarModel) -> Self {
        Robot::Planar(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn enum_dispatch_consistency() {
        let robots: Vec<Robot> = vec![
            presets::jaco2().into(),
            presets::baxter_arm().into(),
            presets::kuka_iiwa().into(),
            presets::planar_2d().into(),
        ];
        for r in &robots {
            assert!(r.dofs() >= 2, "{}", r.name());
            assert!(r.link_count() >= 1);
            let q = Config::zeros(r.dofs());
            let pose = r.fk(&q);
            assert_eq!(pose.links.len(), r.link_count(), "{}", r.name());
            let spheres = r.link_spheres(&q);
            assert_eq!(spheres.len(), r.link_count(), "{}", r.name());
            let n: usize = spheres.iter().map(Vec::len).sum();
            assert_eq!(n, r.sphere_count(), "{}", r.name());
        }
    }

    #[test]
    fn sampling_respects_limits() {
        let r: Robot = presets::kuka_iiwa().into();
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            let q = r.sample_uniform(&mut rng);
            for i in 0..r.dofs() {
                let (lo, hi) = r.limits(i);
                assert!(q[i] >= lo && q[i] <= hi);
            }
        }
    }

    #[test]
    fn sampled_poses_stay_in_workspace() {
        let r: Robot = presets::jaco2().into();
        let ws = r.workspace();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let q = r.sample_uniform(&mut rng);
            for link in r.fk(&q).links {
                assert!(
                    ws.contains(link.center),
                    "link center {} escapes",
                    link.center
                );
            }
        }
    }

    #[test]
    fn clamp_pulls_into_limits() {
        let r: Robot = presets::planar_2d().into();
        let q = r.clamp(Config::new(vec![100.0, -100.0]));
        let (lo0, hi0) = r.limits(0);
        let (lo1, _) = r.limits(1);
        assert!(q[0] <= hi0 && q[0] >= lo0);
        assert_eq!(q[1], lo1);
    }
}
