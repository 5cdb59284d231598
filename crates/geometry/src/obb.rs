//! Oriented bounding boxes and the separating-axis intersection test.
//!
//! OBBs are the paper's primary bounding volume: each robot link is bounded
//! by one OBB (Fig. 4b), and a collision detection query (CDQ) is an
//! OBB-environment intersection test. The OBB-OBB test is the classic
//! 15-axis separating-axis theorem (SAT) formulation (Gottschalk et al.),
//! the same test the baseline accelerator's CDU evaluates in cascaded
//! early-exit stages.

use crate::aabb::Aabb;
use crate::iso3::Iso3;
use crate::mat3::Mat3;
use crate::vec3::Vec3;

/// The single boundary/conservativeness epsilon of every OBB test in this
/// crate.
///
/// Policy: **touching counts as intersecting, and the test is conservative
/// against floating-point noise by `BOUNDARY_EPS`.** Concretely:
///
/// * [`Obb::contains`] accepts points up to `BOUNDARY_EPS` outside a face;
/// * the SAT test adds `BOUNDARY_EPS` to every `|R|` entry, which keeps the
///   9 near-parallel edge-edge cross axes (whose true axis degenerates to a
///   zero vector) from manufacturing a separating axis out of rounding
///   error, and makes exact face touching register as intersection.
///
/// `1e-10` is large enough to absorb the worst-case error of the chained
/// multiply-adds on workspace-scale (meter-range) operands and small enough
/// to be geometrically meaningless (0.1 nm on a meter-scale robot). Both
/// call sites **must** share this constant, or containment and
/// intersection disagree about the same boundary. (`contains` historically
/// used `1e-12` while the SAT used `1e-10`, making containment 100×
/// stricter than intersection: two unit cubes with a 5e-11 gap
/// "intersected", yet a point on their touching faces was "outside" both.)
///
/// Note the two tests apply the epsilon differently by construction:
/// `contains` pads each half-extent additively, while the SAT pads the
/// `|R|` entries, so its slack scales with the partner's extents (zero for
/// a degenerate point partner). The policy unifies the *constant*, not the
/// band shape.
pub const BOUNDARY_EPS: f64 = 1e-10;

/// An oriented box: a center, three orthonormal axes, and half-extents along
/// those axes.
///
/// # Examples
///
/// ```
/// use copred_geometry::{Obb, Mat3, Vec3};
///
/// let a = Obb::new(Vec3::ZERO, Mat3::IDENTITY, Vec3::splat(1.0));
/// let b = Obb::new(Vec3::new(1.5, 0.0, 0.0), Mat3::rot_z(0.4), Vec3::splat(1.0));
/// assert!(a.intersects(&b));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Obb {
    /// Box center in world coordinates. This is the point the COORD hash
    /// function quantizes (paper Fig. 10).
    pub center: Vec3,
    /// Orientation: columns are the box's local axes in world coordinates.
    pub rot: Mat3,
    /// Half side lengths along the local axes. All non-negative.
    pub half_extents: Vec3,
}

impl Obb {
    /// Creates an OBB.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when any half-extent is negative.
    pub fn new(center: Vec3, rot: Mat3, half_extents: Vec3) -> Self {
        debug_assert!(
            half_extents.x >= 0.0 && half_extents.y >= 0.0 && half_extents.z >= 0.0,
            "negative OBB half-extents: {half_extents}"
        );
        Obb {
            center,
            rot,
            half_extents,
        }
    }

    /// An axis-aligned OBB (identity orientation).
    pub fn axis_aligned(center: Vec3, half_extents: Vec3) -> Self {
        Obb::new(center, Mat3::IDENTITY, half_extents)
    }

    /// Converts an [`Aabb`] into the equivalent axis-aligned OBB.
    pub fn from_aabb(aabb: &Aabb) -> Self {
        Obb::axis_aligned(aabb.center(), aabb.half_extents())
    }

    /// Applies a rigid transform, producing the OBB in the new frame.
    ///
    /// This is how a link's canonical (local-frame) bounding box becomes a
    /// world-space CDQ operand: the link transform from forward kinematics is
    /// applied to the box.
    pub fn transformed(&self, t: &Iso3) -> Obb {
        Obb {
            center: t.apply(self.center),
            rot: t.rot * self.rot,
            half_extents: self.half_extents,
        }
    }

    /// The 8 corner points in world coordinates.
    pub fn corners(&self) -> [Vec3; 8] {
        let ax = self.rot.col(0) * self.half_extents.x;
        let ay = self.rot.col(1) * self.half_extents.y;
        let az = self.rot.col(2) * self.half_extents.z;
        let c = self.center;
        [
            c - ax - ay - az,
            c + ax - ay - az,
            c - ax + ay - az,
            c + ax + ay - az,
            c - ax - ay + az,
            c + ax - ay + az,
            c - ax + ay + az,
            c + ax + ay + az,
        ]
    }

    /// Smallest AABB enclosing the OBB.
    pub fn aabb(&self) -> Aabb {
        // |R| * h gives the world-axis extents of a rotated box.
        let mut ext = Vec3::ZERO;
        for i in 0..3 {
            let axis = self.rot.col(i).abs() * self.half_extents[i];
            ext += axis;
        }
        Aabb::from_center_half_extents(self.center, ext)
    }

    /// Returns `true` when `p` is inside or on the box.
    ///
    /// Boundary handling follows [`BOUNDARY_EPS`]: a point up to
    /// `BOUNDARY_EPS` outside a face still counts as contained, matching the
    /// conservativeness of the SAT intersection test.
    pub fn contains(&self, p: Vec3) -> bool {
        let d = p - self.center;
        for i in 0..3 {
            let proj = d.dot(self.rot.col(i));
            if proj.abs() > self.half_extents[i] + BOUNDARY_EPS {
                return false;
            }
        }
        true
    }

    /// Volume of the box.
    pub fn volume(&self) -> f64 {
        8.0 * self.half_extents.x * self.half_extents.y * self.half_extents.z
    }

    /// OBB-OBB intersection via the separating-axis theorem.
    ///
    /// Tests the 15 candidate axes (3 face normals of each box plus the 9
    /// edge-edge cross products). Returns `true` when no separating axis
    /// exists. The test is conservative against floating-point noise: a tiny
    /// epsilon keeps near-parallel edge axes from producing false negatives.
    pub fn intersects(&self, other: &Obb) -> bool {
        sat_obb_obb(self, other)
    }

    /// OBB vs AABB intersection (the AABB is treated as an axis-aligned OBB).
    pub fn intersects_aabb(&self, aabb: &Aabb) -> bool {
        self.intersects(&Obb::from_aabb(aabb))
    }
}

/// Number of elementary axis tests the SAT evaluates in the worst case.
/// The accelerator's CDU model uses this to derive per-CDQ cycle counts.
pub const SAT_AXIS_COUNT: usize = 15;

fn sat_obb_obb(a: &Obb, b: &Obb) -> bool {
    // Rotation matrix expressing b in a's frame, plus its absolute value
    // padded by the crate-wide boundary epsilon (see [`BOUNDARY_EPS`]).
    let mut r = [[0.0f64; 3]; 3];
    let mut abs_r = [[0.0f64; 3]; 3];
    for (i, (row_r, row_abs)) in r.iter_mut().zip(abs_r.iter_mut()).enumerate() {
        for j in 0..3 {
            let v = a.rot.col(i).dot(b.rot.col(j));
            row_r[j] = v;
            row_abs[j] = v.abs() + BOUNDARY_EPS;
        }
    }
    // Translation in a's frame.
    let d = b.center - a.center;
    let t = [
        d.dot(a.rot.col(0)),
        d.dot(a.rot.col(1)),
        d.dot(a.rot.col(2)),
    ];
    let ae = a.half_extents.to_array();
    let be = b.half_extents.to_array();

    // Axes L = A0, A1, A2.
    for i in 0..3 {
        let ra = ae[i];
        let rb = be[0] * abs_r[i][0] + be[1] * abs_r[i][1] + be[2] * abs_r[i][2];
        if t[i].abs() > ra + rb {
            return false;
        }
    }
    // Axes L = B0, B1, B2.
    for j in 0..3 {
        let ra = ae[0] * abs_r[0][j] + ae[1] * abs_r[1][j] + ae[2] * abs_r[2][j];
        let rb = be[j];
        let tp = t[0] * r[0][j] + t[1] * r[1][j] + t[2] * r[2][j];
        if tp.abs() > ra + rb {
            return false;
        }
    }
    // Axes L = Ai x Bj.
    for i in 0..3 {
        let (i1, i2) = ((i + 1) % 3, (i + 2) % 3);
        for j in 0..3 {
            let (j1, j2) = ((j + 1) % 3, (j + 2) % 3);
            let ra = ae[i1] * abs_r[i2][j] + ae[i2] * abs_r[i1][j];
            let rb = be[j1] * abs_r[i][j2] + be[j2] * abs_r[i][j1];
            let tp = t[i2] * r[i1][j] - t[i1] * r[i2][j];
            if tp.abs() > ra + rb {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_4;

    fn unit_at(center: Vec3) -> Obb {
        Obb::axis_aligned(center, Vec3::splat(0.5))
    }

    #[test]
    fn overlapping_axis_aligned_boxes_intersect() {
        assert!(unit_at(Vec3::ZERO).intersects(&unit_at(Vec3::new(0.9, 0.0, 0.0))));
        assert!(unit_at(Vec3::ZERO).intersects(&unit_at(Vec3::ZERO)));
    }

    #[test]
    fn disjoint_axis_aligned_boxes_do_not_intersect() {
        assert!(!unit_at(Vec3::ZERO).intersects(&unit_at(Vec3::new(1.1, 0.0, 0.0))));
        assert!(!unit_at(Vec3::ZERO).intersects(&unit_at(Vec3::new(0.0, 0.0, -1.5))));
    }

    #[test]
    fn rotated_box_corner_overlap() {
        // Two unit cubes 1.2 apart: disjoint axis-aligned, but rotating one
        // by 45 degrees extends its reach along x to sqrt(2)/2 + 0.5 > 1.2.
        let a = unit_at(Vec3::ZERO);
        let b = Obb::new(
            Vec3::new(1.2, 0.0, 0.0),
            Mat3::rot_z(FRAC_PI_4),
            Vec3::splat(0.5),
        );
        assert!(!a.intersects(&unit_at(Vec3::new(1.2, 0.0, 0.0))));
        assert!(a.intersects(&b));
    }

    #[test]
    fn rotated_box_separation_detected_by_edge_axes() {
        // Diagonal configurations where only a cross-product axis separates.
        let a = Obb::new(Vec3::ZERO, Mat3::rot_x(FRAC_PI_4), Vec3::new(1.0, 0.1, 0.1));
        let b = Obb::new(
            Vec3::new(0.0, 1.2, 1.2),
            Mat3::rot_y(FRAC_PI_4),
            Vec3::new(1.0, 0.1, 0.1),
        );
        assert!(!a.intersects(&b));
    }

    #[test]
    fn intersection_is_symmetric() {
        let a = Obb::new(
            Vec3::new(0.2, 0.1, 0.0),
            Mat3::rot_z(0.3),
            Vec3::new(0.4, 0.7, 0.2),
        );
        let b = Obb::new(
            Vec3::new(0.8, 0.4, 0.1),
            Mat3::rot_x(1.0),
            Vec3::new(0.3, 0.3, 0.9),
        );
        assert_eq!(a.intersects(&b), b.intersects(&a));
    }

    #[test]
    fn contains_respects_orientation() {
        let b = Obb::new(Vec3::ZERO, Mat3::rot_z(FRAC_PI_4), Vec3::new(1.0, 0.1, 0.1));
        // Point along the rotated long axis is inside...
        let long_dir = Mat3::rot_z(FRAC_PI_4) * Vec3::X;
        assert!(b.contains(long_dir * 0.9));
        // ...but the same distance along world X is outside.
        assert!(!b.contains(Vec3::X * 0.9));
    }

    #[test]
    fn aabb_encloses_all_corners() {
        let b = Obb::new(
            Vec3::new(1.0, -2.0, 0.5),
            Mat3::rot_y(0.7) * Mat3::rot_z(0.3),
            Vec3::new(0.5, 1.0, 0.25),
        );
        let bb = b.aabb();
        for c in b.corners() {
            assert!(bb.contains(c), "corner {c} escapes {bb:?}");
        }
    }

    #[test]
    fn transform_preserves_shape() {
        let b = Obb::new(Vec3::X, Mat3::rot_z(0.2), Vec3::new(0.3, 0.2, 0.1));
        let t = Iso3::new(Mat3::rot_x(0.5), Vec3::new(0.0, 1.0, 2.0));
        let tb = b.transformed(&t);
        assert!((tb.volume() - b.volume()).abs() < 1e-12);
        assert!(tb.rot.is_rotation(1e-9));
        assert_eq!(tb.center, t.apply(b.center));
    }

    #[test]
    fn obb_vs_aabb() {
        let aabb = Aabb::new(Vec3::ZERO, Vec3::ONE);
        let hit = Obb::new(
            Vec3::new(1.2, 0.5, 0.5),
            Mat3::rot_z(FRAC_PI_4),
            Vec3::splat(0.3),
        );
        let miss = Obb::new(
            Vec3::new(2.0, 0.5, 0.5),
            Mat3::rot_z(FRAC_PI_4),
            Vec3::splat(0.3),
        );
        assert!(hit.intersects_aabb(&aabb));
        assert!(!miss.intersects_aabb(&aabb));
    }

    #[test]
    fn nested_boxes_intersect() {
        let outer = Obb::axis_aligned(Vec3::ZERO, Vec3::splat(2.0));
        let inner = Obb::new(Vec3::new(0.1, 0.0, 0.0), Mat3::rot_z(1.0), Vec3::splat(0.2));
        assert!(outer.intersects(&inner));
        assert!(inner.intersects(&outer));
    }

    #[test]
    fn boundary_touching_faces_intersect() {
        // Exact face contact: unit cubes at distance exactly 1.0. The SAT
        // epsilon makes touching count as intersecting.
        assert!(unit_at(Vec3::ZERO).intersects(&unit_at(Vec3::new(1.0, 0.0, 0.0))));
        assert!(unit_at(Vec3::ZERO).intersects(&unit_at(Vec3::new(0.0, 1.0, 0.0))));
        assert!(unit_at(Vec3::ZERO).intersects(&unit_at(Vec3::new(0.0, 0.0, 1.0))));
        // Edge and corner contact too.
        assert!(unit_at(Vec3::ZERO).intersects(&unit_at(Vec3::new(1.0, 1.0, 0.0))));
        assert!(unit_at(Vec3::ZERO).intersects(&unit_at(Vec3::new(1.0, 1.0, 1.0))));
    }

    #[test]
    fn contains_and_sat_share_the_boundary_constant() {
        // The regression this PR fixes: `contains` used 1e-12 while the SAT
        // used 1e-10, so containment was 100x stricter than intersection.
        // With one shared BOUNDARY_EPS, a sub-epsilon face gap is treated
        // consistently: the cubes intersect AND a point in the gap is
        // contained.
        let b = unit_at(Vec3::ZERO);
        for scale in [0.25f64, 0.5, 0.999999] {
            let p = Vec3::new(0.5 + BOUNDARY_EPS * scale, 0.0, 0.0);
            assert!(
                b.contains(p),
                "point {scale}*eps outside the face must still be contained"
            );
            // A unit cube whose face sits at the same sub-epsilon gap.
            let gap_cube = unit_at(Vec3::new(1.0 + BOUNDARY_EPS * scale, 0.0, 0.0));
            assert!(b.intersects(&gap_cube), "sub-epsilon gap must intersect");
        }
        // Clearly past the epsilon band both say no.
        let p = Vec3::new(0.5 + 1e-8, 0.0, 0.0);
        assert!(!b.contains(p));
        assert!(!b.intersects(&unit_at(Vec3::new(1.0 + 1e-8, 0.0, 0.0))));
    }

    #[test]
    fn near_parallel_edge_axes_do_not_false_negative() {
        // Two long thin boxes rotated by a sub-epsilon angle: the edge-edge
        // cross axes degenerate toward the zero vector. Without the +EPS
        // padding on |R| the normalized axis test can manufacture a phantom
        // separating axis. The boxes clearly overlap; they must intersect.
        let tiny = 1e-13;
        let a = Obb::new(Vec3::ZERO, Mat3::IDENTITY, Vec3::new(2.0, 0.05, 0.05));
        let b = Obb::new(
            Vec3::new(0.0, 0.05, 0.0),
            Mat3::rot_x(tiny) * Mat3::rot_z(tiny),
            Vec3::new(2.0, 0.05, 0.05),
        );
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        // And a genuinely separated near-parallel pair must still miss.
        let c = Obb::new(
            Vec3::new(0.0, 0.2, 0.0),
            Mat3::rot_x(tiny),
            Vec3::new(2.0, 0.05, 0.05),
        );
        assert!(!a.intersects(&c));
    }

    #[test]
    fn degenerate_flat_box() {
        // Zero thickness along z still intersects when overlapping in plane.
        let flat = Obb::axis_aligned(Vec3::ZERO, Vec3::new(1.0, 1.0, 0.0));
        let cube = unit_at(Vec3::new(0.5, 0.5, 0.0));
        assert!(flat.intersects(&cube));
        let far = unit_at(Vec3::new(0.0, 0.0, 1.0));
        // Touching exactly at z = 0.5+0.0 boundary: conservative => treated
        // as intersecting only if within epsilon; here they touch.
        assert!(flat.intersects(&far) || !flat.intersects(&far)); // must not panic
    }
}
