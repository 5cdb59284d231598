//! Property-based tests for the geometry substrate.

use copred_geometry::{
    msbs, Aabb, FixedEncoder, Iso3, Mat3, Obb, Octree, Sphere, Vec3, BOUNDARY_EPS,
};
use proptest::prelude::*;

fn vec3_in(lo: f64, hi: f64) -> impl Strategy<Value = Vec3> {
    (lo..hi, lo..hi, lo..hi).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn rotation() -> impl Strategy<Value = Mat3> {
    (-3.1..3.1f64, -3.1..3.1f64, -3.1..3.1f64)
        .prop_map(|(a, b, c)| Mat3::rot_x(a) * Mat3::rot_y(b) * Mat3::rot_z(c))
}

fn obb() -> impl Strategy<Value = Obb> {
    (vec3_in(-2.0, 2.0), rotation(), vec3_in(0.01, 1.0)).prop_map(|(c, r, h)| Obb::new(c, r, h))
}

proptest! {
    #[test]
    fn obb_intersection_symmetric(a in obb(), b in obb()) {
        prop_assert_eq!(a.intersects(&b), b.intersects(&a));
    }

    #[test]
    fn obb_self_intersection(a in obb()) {
        prop_assert!(a.intersects(&a));
    }

    #[test]
    fn obb_aabb_encloses_corners(a in obb()) {
        let bb = a.aabb();
        for c in a.corners() {
            prop_assert!(bb.inflated(1e-9).contains(c));
        }
    }

    #[test]
    fn obb_corner_containment(a in obb()) {
        // Points slightly inside each corner are contained.
        for c in a.corners() {
            let p = a.center.lerp(c, 0.999);
            prop_assert!(a.contains(p));
        }
        // Points beyond each corner are not.
        for c in a.corners() {
            let p = a.center.lerp(c, 1.01);
            prop_assert!(!a.contains(p));
        }
    }

    #[test]
    fn obb_disjoint_aabbs_imply_disjoint_obbs(a in obb(), b in obb()) {
        // The AABB test is a sound broad phase: if the enclosing AABBs are
        // disjoint, the OBBs must be disjoint too.
        if !a.aabb().intersects(&b.aabb()) {
            prop_assert!(!a.intersects(&b));
        }
    }

    #[test]
    fn point_sampling_agrees_with_sat(a in obb(), b in obb()) {
        // If we find a sampled point inside both boxes, SAT must agree.
        let mut inside_both = false;
        for i in 0..5 {
            for j in 0..5 {
                for k in 0..5 {
                    let t = Vec3::new(i as f64 / 4.0, j as f64 / 4.0, k as f64 / 4.0);
                    let corners = b.corners();
                    let p = Vec3::new(
                        corners[0].x + t.x * (corners[7].x - corners[0].x),
                        corners[0].y + t.y * (corners[7].y - corners[0].y),
                        corners[0].z + t.z * (corners[7].z - corners[0].z),
                    );
                    if a.contains(p) && b.contains(p) {
                        inside_both = true;
                    }
                }
            }
        }
        if inside_both {
            prop_assert!(a.intersects(&b));
        }
    }

    #[test]
    fn rigid_transform_preserves_intersection(a in obb(), b in obb(), t in vec3_in(-3.0, 3.0), r in rotation()) {
        let iso = Iso3::new(r, t);
        prop_assert_eq!(
            a.intersects(&b),
            a.transformed(&iso).intersects(&b.transformed(&iso))
        );
    }

    #[test]
    fn sphere_obb_consistent_with_aabb_for_axis_aligned(c in vec3_in(-2.0, 2.0), r in 0.01..1.0f64, bc in vec3_in(-2.0, 2.0), bh in vec3_in(0.01, 1.0)) {
        let s = Sphere::new(c, r);
        let aabb = Aabb::from_center_half_extents(bc, bh);
        let o = Obb::from_aabb(&aabb);
        prop_assert_eq!(s.intersects_aabb(&aabb), s.intersects_obb(&o));
    }

    #[test]
    fn fixed_encoder_monotone(a in -0.99..0.99f64, b in -0.99..0.99f64) {
        let enc = FixedEncoder::new(Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0)));
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(enc.encode_axis(lo, 0) <= enc.encode_axis(hi, 0));
    }

    #[test]
    fn msb_bins_nest(q in any::<u16>(), k in 1u32..16) {
        // The k-bit bin is a refinement of the (k-1)-bit bin.
        prop_assert_eq!(msbs(q, k) >> 1, msbs(q, k - 1));
    }

    #[test]
    fn octree_is_conservative(boxes in prop::collection::vec(
        (vec3_in(0.0, 0.8), vec3_in(0.01, 0.2)).prop_map(|(min, ext)| Aabb::new(min, min + ext)),
        1..5,
    ), q in (vec3_in(0.0, 0.9), vec3_in(0.01, 0.1)).prop_map(|(min, ext)| Aabb::new(min, min + ext))) {
        let root = Aabb::new(Vec3::ZERO, Vec3::splat(1.0));
        let tree = Octree::build(root, 4, &boxes);
        let brute = boxes.iter().any(|b| b.intersects(&q));
        // The octree may over-approximate but never under-approximate.
        if brute {
            prop_assert!(tree.intersects(&q));
        }
    }

    #[test]
    fn iso_inverse_roundtrip(t in vec3_in(-3.0, 3.0), r in rotation(), p in vec3_in(-5.0, 5.0)) {
        let iso = Iso3::new(r, t);
        let back = iso.inverse().apply(iso.apply(p));
        prop_assert!((back - p).norm() < 1e-9);
    }

    #[test]
    fn sat_boundary_touching(gap_scale in -0.9..0.9f64, h in vec3_in(0.1, 1.0)) {
        // Faces separated by less than BOUNDARY_EPS (including exact touch
        // and sub-epsilon overlap) intersect, from either side.
        let gap = BOUNDARY_EPS * gap_scale;
        let a = Obb::axis_aligned(Vec3::ZERO, h);
        let b = Obb::axis_aligned(Vec3::new(2.0 * h.x + gap, 0.0, 0.0), h);
        prop_assert!(a.intersects(&b), "sub-epsilon face gap must intersect");
        prop_assert!(b.intersects(&a));
    }
}
