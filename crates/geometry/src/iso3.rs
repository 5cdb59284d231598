//! Rigid-body transforms (rotation + translation).
//!
//! [`Iso3`] is the 4×4 homogeneous transformation matrix of robot kinematics
//! (the paper's "transformation matrix ... containing rotation and
//! translation" computed from DH parameters), stored as a rotation matrix
//! plus a translation vector.

use crate::mat3::Mat3;
use crate::vec3::Vec3;
use std::ops::Mul;

/// A rigid transform in 3D: `p ↦ rot * p + trans`.
///
/// # Examples
///
/// ```
/// use copred_geometry::{Iso3, Mat3, Vec3};
///
/// let t = Iso3::new(Mat3::rot_z(std::f64::consts::FRAC_PI_2), Vec3::new(1.0, 0.0, 0.0));
/// let p = t.apply(Vec3::X);
/// assert!((p - Vec3::new(1.0, 1.0, 0.0)).norm() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Iso3 {
    /// Rotation part.
    pub rot: Mat3,
    /// Translation part.
    pub trans: Vec3,
}

impl Iso3 {
    /// The identity transform.
    pub const IDENTITY: Iso3 = Iso3 {
        rot: Mat3::IDENTITY,
        trans: Vec3::ZERO,
    };

    /// Creates a transform from rotation and translation.
    #[inline]
    pub const fn new(rot: Mat3, trans: Vec3) -> Self {
        Iso3 { rot, trans }
    }

    /// A pure translation.
    #[inline]
    pub fn translation(t: Vec3) -> Self {
        Iso3::new(Mat3::IDENTITY, t)
    }

    /// A pure rotation.
    #[inline]
    pub fn rotation(r: Mat3) -> Self {
        Iso3::new(r, Vec3::ZERO)
    }

    /// The Denavit–Hartenberg link transform for parameters
    /// `(theta, d, a, alpha)` (standard DH convention):
    ///
    /// `Rz(theta) · Tz(d) · Tx(a) · Rx(alpha)`
    ///
    /// This is the per-joint transform used by `copred-kinematics` to chain
    /// link frames, exactly as the paper's baseline accelerator computes
    /// "transformation matrices for all links ... using the DH parameters".
    pub fn from_dh(theta: f64, d: f64, a: f64, alpha: f64) -> Self {
        Iso3::from_dh_sin_cos(theta, d, a, alpha.sin_cos())
    }

    /// [`Iso3::from_dh`] with the twist's `alpha.sin_cos()` supplied by the
    /// caller. The twist is a constant of the robot, so a kinematic chain
    /// computes it once instead of once per pose; the result is
    /// bit-identical to `from_dh(theta, d, a, alpha)`.
    #[inline]
    pub fn from_dh_sin_cos(theta: f64, d: f64, a: f64, (sa, ca): (f64, f64)) -> Self {
        let (st, ct) = theta.sin_cos();
        let rot = Mat3::from_rows([
            [ct, -st * ca, st * sa],
            [st, ct * ca, -ct * sa],
            [0.0, sa, ca],
        ]);
        let trans = Vec3::new(a * ct, a * st, d);
        Iso3 { rot, trans }
    }

    /// Applies the transform to a point.
    #[inline]
    pub fn apply(&self, p: Vec3) -> Vec3 {
        self.rot * p + self.trans
    }

    /// The inverse transform.
    pub fn inverse(&self) -> Iso3 {
        let rt = self.rot.transpose();
        Iso3::new(rt, -(rt * self.trans))
    }

    /// Returns `true` when the rotation part is a proper rotation and the
    /// translation is finite.
    pub fn is_valid(&self, tol: f64) -> bool {
        self.rot.is_rotation(tol) && self.trans.is_finite()
    }
}

impl Mul for Iso3 {
    type Output = Iso3;

    /// Composition: `(a * b).apply(p) == a.apply(b.apply(p))`.
    #[inline]
    fn mul(self, rhs: Iso3) -> Iso3 {
        Iso3 {
            rot: self.rot * rhs.rot,
            trans: self.rot * rhs.trans + self.trans,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;

    fn assert_close(a: Vec3, b: Vec3) {
        assert!((a - b).norm() < 1e-10, "{a} != {b}");
    }

    #[test]
    fn identity_is_noop() {
        let p = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(Iso3::IDENTITY.apply(p), p);
    }

    #[test]
    fn translation_then_rotation_composition() {
        let t = Iso3::translation(Vec3::X);
        let r = Iso3::rotation(Mat3::rot_z(FRAC_PI_2));
        // r * t first translates, then rotates.
        let p = (r * t).apply(Vec3::ZERO);
        assert_close(p, Vec3::Y);
        // t * r first rotates, then translates.
        let q = (t * r).apply(Vec3::X);
        assert_close(q, Vec3::new(1.0, 1.0, 0.0));
    }

    #[test]
    fn composition_matches_sequential_application() {
        let a = Iso3::new(Mat3::rot_x(0.3), Vec3::new(0.1, -0.2, 0.5));
        let b = Iso3::new(Mat3::rot_z(-1.2), Vec3::new(2.0, 0.0, -1.0));
        let p = Vec3::new(0.7, 0.8, 0.9);
        assert_close((a * b).apply(p), a.apply(b.apply(p)));
    }

    #[test]
    fn inverse_roundtrips() {
        let t = Iso3::new(
            Mat3::rot_y(0.8) * Mat3::rot_z(0.2),
            Vec3::new(1.0, 2.0, 3.0),
        );
        let p = Vec3::new(-0.5, 0.25, 4.0);
        assert_close(t.inverse().apply(t.apply(p)), p);
        assert_close(t.apply(t.inverse().apply(p)), p);
    }

    #[test]
    fn dh_zero_params_is_identity() {
        let t = Iso3::from_dh(0.0, 0.0, 0.0, 0.0);
        assert!(t.is_valid(1e-12));
        assert_close(t.apply(Vec3::new(1.0, 2.0, 3.0)), Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn dh_pure_theta_rotates_about_z() {
        let t = Iso3::from_dh(FRAC_PI_2, 0.0, 0.0, 0.0);
        assert_close(t.apply(Vec3::X), Vec3::Y);
    }

    #[test]
    fn dh_link_length_translates_along_rotated_x() {
        // theta=90deg, a=2: new origin at (0, 2, 0).
        let t = Iso3::from_dh(FRAC_PI_2, 0.0, 2.0, 0.0);
        assert_close(t.apply(Vec3::ZERO), Vec3::new(0.0, 2.0, 0.0));
    }

    #[test]
    fn dh_offset_translates_along_z() {
        let t = Iso3::from_dh(0.0, 1.5, 0.0, 0.0);
        assert_close(t.apply(Vec3::ZERO), Vec3::new(0.0, 0.0, 1.5));
    }

    #[test]
    fn dh_alpha_twists_about_x() {
        let t = Iso3::from_dh(0.0, 0.0, 0.0, FRAC_PI_2);
        assert_close(t.apply(Vec3::Y), Vec3::Z);
    }

    #[test]
    fn dh_transforms_are_valid_rotations() {
        for i in 0..20 {
            let th = i as f64 * 0.37 - 3.0;
            let t = Iso3::from_dh(th, 0.3, 0.2, th * 0.5);
            assert!(t.is_valid(1e-9), "invalid DH transform at {th}");
        }
    }
}
