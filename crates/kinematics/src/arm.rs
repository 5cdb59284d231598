//! Serial-chain robotic arms with DH-parameter forward kinematics.
//!
//! The baseline accelerator computes "transformation matrices for all links
//! ... using the DH parameters of the robot and matrix multiplications", then
//! bounds each link with simple volumes (OBBs or spheres). [`ArmModel`]
//! reproduces that pipeline: a chain of revolute joints described by DH rows,
//! forward kinematics producing per-link world transforms, and per-link
//! bounding geometry derived from consecutive frame origins. Forward
//! kinematics produces OBBs only; the §VII-1 sphere sets are computed on
//! request by [`ArmModel::link_spheres`].

use crate::config::Config;
use crate::pose::{LinkPose, RobotPose};
use copred_geometry::{Aabb, Iso3, Mat3, Obb, Sphere, Vec3};
use std::sync::OnceLock;

/// One revolute joint's Denavit–Hartenberg row. The joint variable is
/// `theta = theta_offset + q`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DhJoint {
    /// Constant offset added to the joint variable.
    pub theta_offset: f64,
    /// Link offset along the previous z axis.
    pub d: f64,
    /// Link length along the rotated x axis.
    pub a: f64,
    /// Link twist about the rotated x axis.
    pub alpha: f64,
    /// Joint limits `(lo, hi)` in radians.
    pub limits: (f64, f64),
}

impl DhJoint {
    /// Creates a DH row with symmetric limits `±limit`.
    pub fn new(theta_offset: f64, d: f64, a: f64, alpha: f64, limit: f64) -> Self {
        DhJoint {
            theta_offset,
            d,
            a,
            alpha,
            limits: (-limit, limit),
        }
    }
}

/// A serial revolute-joint arm.
///
/// # Examples
///
/// ```
/// use copred_kinematics::{presets, Config};
///
/// let arm = presets::kuka_iiwa();
/// let pose = arm.fk(&Config::zeros(arm.dofs()));
/// assert_eq!(pose.links.len(), arm.dofs());
/// ```
#[derive(Debug, Clone)]
pub struct ArmModel {
    name: String,
    base: Iso3,
    joints: Vec<DhJoint>,
    /// `alpha.sin_cos()` of every joint. The twist is constant, so FK
    /// computes it once rather than once per pose. It is filled on the
    /// first FK call, not in [`ArmModel::new`], so code that builds arms
    /// without running FK (the server sizes its COORD hash from the robot)
    /// calls no trigonometry and does not link libm.
    twist_sin_cos: OnceLock<Vec<(f64, f64)>>,
    /// Radius used for link bounding volumes.
    link_radius: f64,
    /// Spheres per link in the sphere-set representation (§VII-1).
    spheres_per_link: usize,
}

impl ArmModel {
    /// Creates an arm from DH rows.
    ///
    /// # Panics
    ///
    /// Panics when `joints` is empty, `link_radius` is not positive, or
    /// `spheres_per_link` is zero.
    pub fn new(
        name: impl Into<String>,
        base: Iso3,
        joints: Vec<DhJoint>,
        link_radius: f64,
        spheres_per_link: usize,
    ) -> Self {
        assert!(!joints.is_empty(), "an arm needs at least one joint");
        assert!(link_radius > 0.0, "link radius must be positive");
        assert!(spheres_per_link > 0, "need at least one sphere per link");
        ArmModel {
            name: name.into(),
            base,
            joints,
            twist_sin_cos: OnceLock::new(),
            link_radius,
            spheres_per_link,
        }
    }

    /// Robot name (e.g. `"kuka-iiwa"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of degrees of freedom (= number of joints).
    pub fn dofs(&self) -> usize {
        self.joints.len()
    }

    /// Joint limits for DOF `i`.
    pub fn limits(&self, i: usize) -> (f64, f64) {
        self.joints[i].limits
    }

    /// Link bounding radius.
    pub fn link_radius(&self) -> f64 {
        self.link_radius
    }

    /// Maximum reach from the base: the sum of all link lengths plus the
    /// bounding radius.
    pub fn reach(&self) -> f64 {
        self.joints
            .iter()
            .map(|j| (j.d * j.d + j.a * j.a).sqrt())
            .sum::<f64>()
            + 2.0 * self.link_radius
    }

    /// A cubic workspace box centered at the base spanning the reach — the
    /// paper limits environment size "to the reach of the ... robot".
    pub fn workspace(&self) -> Aabb {
        let r = self.reach();
        Aabb::from_center_half_extents(self.base.trans, Vec3::splat(r))
    }

    /// The DH transform of every joint at configuration `q`, base outward.
    ///
    /// # Panics
    ///
    /// Panics when `q` has the wrong DOF count.
    fn joint_transforms<'a>(&'a self, q: &'a Config) -> impl Iterator<Item = Iso3> + 'a {
        assert_eq!(
            q.dofs(),
            self.dofs(),
            "configuration has {} DOFs, arm {} has {}",
            q.dofs(),
            self.name,
            self.dofs()
        );
        self.joints
            .iter()
            .zip(
                self.twist_sin_cos
                    .get_or_init(|| self.joints.iter().map(|j| j.alpha.sin_cos()).collect()),
            )
            .zip(q.values())
            .map(|((j, &twist), &qi)| Iso3::from_dh_sin_cos(j.theta_offset + qi, j.d, j.a, twist))
    }

    /// World transforms of every link frame for configuration `q`,
    /// including the base frame at index 0 (so `transforms.len() == dofs+1`).
    ///
    /// # Panics
    ///
    /// Panics when `q` has the wrong DOF count.
    pub fn link_transforms(&self, q: &Config) -> Vec<Iso3> {
        let mut ts = Vec::with_capacity(self.joints.len() + 1);
        let mut t = self.base;
        ts.push(t);
        for dh in self.joint_transforms(q) {
            t = t * dh;
            ts.push(t);
        }
        ts
    }

    /// Forward kinematics: world bounding geometry for every link.
    ///
    /// Link `i` is the body between frame origins `i` and `i+1`: its OBB is
    /// oriented along that segment with half-extents
    /// `(len/2 + radius, radius, radius)`. Links whose frames coincide
    /// (pure-rotation DH rows) collapse to a radius-sized cube at the joint.
    ///
    /// # Panics
    ///
    /// Panics when `q` has the wrong DOF count.
    pub fn fk(&self, q: &Config) -> RobotPose {
        let mut pose = RobotPose {
            links: Vec::with_capacity(self.joints.len()),
        };
        self.fk_into(q, &mut pose);
        pose
    }

    /// [`ArmModel::fk`] into a caller-owned pose: `pose` is cleared and
    /// refilled, so a pose reused across calls makes FK allocation-free.
    /// The chain is walked in place, with no per-pose transform list.
    ///
    /// # Panics
    ///
    /// Panics when `q` has the wrong DOF count.
    pub fn fk_into(&self, q: &Config, pose: &mut RobotPose) {
        pose.links.clear();
        let mut t = self.base;
        for dh in self.joint_transforms(q) {
            let next = t * dh;
            pose.links
                .push(segment_link(t.trans, next.trans, self.link_radius));
            t = next;
        }
    }

    /// The §VII-1 sphere set of every link at configuration `q`: link `i`
    /// is covered by `spheres_per_link` spheres spaced evenly from frame
    /// origin `i` to `i+1`.
    ///
    /// # Panics
    ///
    /// Panics when `q` has the wrong DOF count.
    pub fn link_spheres(&self, q: &Config) -> Vec<Vec<Sphere>> {
        self.link_transforms(q)
            .windows(2)
            .map(|w| {
                segment_spheres(
                    w[0].trans,
                    w[1].trans,
                    self.link_radius,
                    self.spheres_per_link,
                )
            })
            .collect()
    }

    /// Spheres per link in the sphere-set representation.
    pub fn spheres_per_link(&self) -> usize {
        self.spheres_per_link
    }
}

/// Builds the bounding geometry of a link spanning `p0 → p1`.
fn segment_link(p0: Vec3, p1: Vec3, radius: f64) -> LinkPose {
    let center = (p0 + p1) * 0.5;
    let dir = p1 - p0;
    let len = dir.norm();
    let obb = if len < 1e-9 {
        Obb::axis_aligned(center, Vec3::splat(radius))
    } else {
        let x = dir / len;
        let rot = orthonormal_frame(x);
        Obb::new(center, rot, Vec3::new(len * 0.5 + radius, radius, radius))
    };
    LinkPose { center, obb }
}

/// Covers the link spanning `p0 → p1` with `n_spheres` spheres.
fn segment_spheres(p0: Vec3, p1: Vec3, radius: f64, n_spheres: usize) -> Vec<Sphere> {
    let len = (p1 - p0).norm();
    // Sphere radii grow slightly so the union covers the capsule.
    let sphere_r = radius * 1.3 + len / (2.0 * n_spheres as f64);
    (0..n_spheres)
        .map(|i| {
            let t = if n_spheres == 1 {
                0.5
            } else {
                i as f64 / (n_spheres - 1) as f64
            };
            Sphere::new(p0.lerp(p1, t), sphere_r)
        })
        .collect()
}

/// Completes a unit vector `x` into a right-handed orthonormal frame whose
/// first column is `x`.
fn orthonormal_frame(x: Vec3) -> Mat3 {
    let helper = if x.x.abs() < 0.9 { Vec3::X } else { Vec3::Y };
    let z = x.cross(helper).normalized();
    let y = z.cross(x);
    Mat3::from_cols(x, y, z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;

    fn two_link() -> ArmModel {
        // Planar 2R arm: both joints rotate about z, links of length 1.
        ArmModel::new(
            "2r",
            Iso3::IDENTITY,
            vec![
                DhJoint::new(0.0, 0.0, 1.0, 0.0, std::f64::consts::PI),
                DhJoint::new(0.0, 0.0, 1.0, 0.0, std::f64::consts::PI),
            ],
            0.05,
            3,
        )
    }

    #[test]
    fn zero_config_stretches_along_x() {
        let arm = two_link();
        let ts = arm.link_transforms(&Config::zeros(2));
        assert_eq!(ts.len(), 3);
        assert!((ts[1].trans - Vec3::new(1.0, 0.0, 0.0)).norm() < 1e-12);
        assert!((ts[2].trans - Vec3::new(2.0, 0.0, 0.0)).norm() < 1e-12);
    }

    #[test]
    fn elbow_bend_rotates_second_link() {
        let arm = two_link();
        let ts = arm.link_transforms(&Config::new(vec![0.0, FRAC_PI_2]));
        assert!((ts[2].trans - Vec3::new(1.0, 1.0, 0.0)).norm() < 1e-12);
    }

    #[test]
    fn base_joint_rotates_whole_arm() {
        let arm = two_link();
        let ts = arm.link_transforms(&Config::new(vec![FRAC_PI_2, 0.0]));
        assert!((ts[2].trans - Vec3::new(0.0, 2.0, 0.0)).norm() < 1e-12);
    }

    #[test]
    fn fk_produces_one_link_pose_per_joint() {
        let arm = two_link();
        let pose = arm.fk(&Config::zeros(2));
        assert_eq!(pose.links.len(), 2);
        // First link spans (0,0,0) -> (1,0,0); its OBB center is midway.
        assert!((pose.links[0].center - Vec3::new(0.5, 0.0, 0.0)).norm() < 1e-12);
        assert!((pose.links[1].center - Vec3::new(1.5, 0.0, 0.0)).norm() < 1e-12);
    }

    #[test]
    fn link_obb_covers_segment_endpoints() {
        let arm = two_link();
        let pose = arm.fk(&Config::new(vec![0.3, -0.7]));
        let ts = arm.link_transforms(&Config::new(vec![0.3, -0.7]));
        for (i, link) in pose.links.iter().enumerate() {
            assert!(
                link.obb.contains(ts[i].trans),
                "link {i} misses proximal end"
            );
            assert!(
                link.obb.contains(ts[i + 1].trans),
                "link {i} misses distal end"
            );
        }
    }

    #[test]
    fn sphere_set_covers_segment() {
        let arm = two_link();
        let q = Config::new(vec![0.9, 0.4]);
        let spheres = arm.link_spheres(&q);
        let ts = arm.link_transforms(&q);
        assert_eq!(spheres.len(), 2);
        for (i, link) in spheres.iter().enumerate() {
            assert_eq!(link.len(), 3);
            // Sample along the segment: every sample must be in some sphere.
            for k in 0..=10 {
                let p = ts[i].trans.lerp(ts[i + 1].trans, k as f64 / 10.0);
                assert!(
                    link.iter().any(|s| s.contains(p)),
                    "segment sample {p} of link {i} not covered"
                );
            }
        }
    }

    #[test]
    fn reach_and_workspace() {
        let arm = two_link();
        assert!((arm.reach() - 2.1).abs() < 1e-12);
        let ws = arm.workspace();
        // Every FK result stays in the workspace.
        for a in [-3.0, -1.0, 0.0, 1.5, 3.0] {
            for b in [-3.0, 0.0, 2.0] {
                let pose = arm.fk(&Config::new(vec![a, b]));
                for link in &pose.links {
                    assert!(ws.contains(link.center));
                }
            }
        }
    }

    #[test]
    fn degenerate_link_becomes_cube() {
        // A joint with d=a=0 produces a zero-length segment.
        let arm = ArmModel::new(
            "deg",
            Iso3::IDENTITY,
            vec![DhJoint::new(0.0, 0.0, 0.0, FRAC_PI_2, 3.0)],
            0.04,
            2,
        );
        let pose = arm.fk(&Config::zeros(1));
        assert_eq!(pose.links[0].obb.half_extents, Vec3::splat(0.04));
    }

    #[test]
    fn orthonormal_frame_is_rotation() {
        for v in [
            Vec3::X,
            Vec3::Y,
            Vec3::Z,
            Vec3::new(1.0, 2.0, 3.0).normalized(),
        ] {
            let m = orthonormal_frame(v);
            assert!(m.is_rotation(1e-9), "frame for {v} not a rotation");
            assert!((m.col(0) - v).norm() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "configuration has")]
    fn wrong_dof_count_panics() {
        let _ = two_link().fk(&Config::zeros(3));
    }
}
