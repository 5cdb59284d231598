//! Bit-identity of forward kinematics against the reference formula.
//!
//! Link centers feed the COORD hash, so a change in the last bit of a
//! center can move a CDQ to another history-table entry and change which
//! CDQs run. The reference below is the original construction: build every
//! link frame with `Iso3::from_dh`, collect the frames, then derive each
//! link's center, OBB and sphere set from consecutive frame origins.
//! `fk`, `fk_into` and `link_spheres` must reproduce it bit for bit.

use copred_geometry::{Iso3, Mat3, Obb, Sphere, Vec3};
use copred_kinematics::{presets, ArmModel, Config, DhJoint, Robot, RobotPose};
use proptest::prelude::*;
use std::f64::consts::{FRAC_PI_2, PI};

/// DH rows and bounding parameters of an arm, as the reference needs them.
struct ArmSpec {
    joints: Vec<DhJoint>,
    radius: f64,
    spheres_per_link: usize,
}

/// One reference link: center, OBB and sphere set.
type RefLink = (Vec3, Obb, Vec<Sphere>);

fn reference_transforms(spec: &ArmSpec, q: &Config) -> Vec<Iso3> {
    let mut ts = vec![Iso3::IDENTITY];
    let mut t = Iso3::IDENTITY;
    for (j, &qi) in spec.joints.iter().zip(q.values()) {
        t = t * Iso3::from_dh(j.theta_offset + qi, j.d, j.a, j.alpha);
        ts.push(t);
    }
    ts
}

fn reference_frame(x: Vec3) -> Mat3 {
    let helper = if x.x.abs() < 0.9 { Vec3::X } else { Vec3::Y };
    let z = x.cross(helper).normalized();
    let y = z.cross(x);
    Mat3::from_cols(x, y, z)
}

fn reference_segment(p0: Vec3, p1: Vec3, radius: f64, n_spheres: usize) -> RefLink {
    let center = (p0 + p1) * 0.5;
    let dir = p1 - p0;
    let len = dir.norm();
    let obb = if len < 1e-9 {
        Obb::axis_aligned(center, Vec3::splat(radius))
    } else {
        let x = dir / len;
        Obb::new(
            center,
            reference_frame(x),
            Vec3::new(len * 0.5 + radius, radius, radius),
        )
    };
    let sphere_r = radius * 1.3 + len / (2.0 * n_spheres as f64);
    let spheres = (0..n_spheres)
        .map(|i| {
            let t = if n_spheres == 1 {
                0.5
            } else {
                i as f64 / (n_spheres - 1) as f64
            };
            Sphere::new(p0.lerp(p1, t), sphere_r)
        })
        .collect();
    (center, obb, spheres)
}

fn reference_arm(spec: &ArmSpec, q: &Config) -> Vec<RefLink> {
    reference_transforms(spec, q)
        .windows(2)
        .map(|w| reference_segment(w[0].trans, w[1].trans, spec.radius, spec.spheres_per_link))
        .collect()
}

fn reference_planar(q: &Config, r: f64) -> Vec<RefLink> {
    let center = Vec3::planar(q[0], q[1]);
    vec![(
        center,
        Obb::axis_aligned(center, Vec3::new(r, r, r)),
        vec![Sphere::new(center, r)],
    )]
}

/// An arm whose second DH row has `d = a = 0`: a zero-length link that FK
/// collapses to a cube.
fn zero_link_arm() -> ArmModel {
    ArmModel::new("zero-link", Iso3::IDENTITY, zero_link_rows(), 0.03, 4)
}

fn zero_link_rows() -> Vec<DhJoint> {
    vec![
        DhJoint::new(0.1, 0.3, 0.05, -FRAC_PI_2, 2.5),
        DhJoint::new(0.0, 0.0, 0.0, FRAC_PI_2, PI),
        DhJoint::new(-0.4, 0.25, 0.0, 0.7, 2.0),
    ]
}

/// A robot under test with the parameters its reference needs.
struct Case {
    robot: Robot,
    /// `None` for the planar disc robot.
    spec: Option<ArmSpec>,
}

fn arm_case(arm: ArmModel, joints: Vec<DhJoint>, radius: f64, spheres_per_link: usize) -> Case {
    Case {
        robot: arm.into(),
        spec: Some(ArmSpec {
            joints,
            radius,
            spheres_per_link,
        }),
    }
}

/// The five presets plus the zero-length-link arm. The DH rows are
/// restated from each preset's definition so the reference does not read
/// them back from the model under test.
fn cases() -> Vec<Case> {
    let jaco = |d: f64, alpha: f64| DhJoint::new(0.0, d, 0.0, alpha, PI);
    let kuka_lim = [2.96, 2.09, 2.96, 2.09, 2.96, 2.09, 3.05];
    let kuka_rows = [
        (0.34, -FRAC_PI_2),
        (0.0, FRAC_PI_2),
        (0.40, FRAC_PI_2),
        (0.0, -FRAC_PI_2),
        (0.40, -FRAC_PI_2),
        (0.0, FRAC_PI_2),
        (0.126, 0.0),
    ];
    vec![
        arm_case(
            presets::jaco2(),
            vec![
                jaco(0.2755, FRAC_PI_2),
                jaco(0.0, FRAC_PI_2),
                jaco(-0.410, FRAC_PI_2),
                jaco(-0.0098, FRAC_PI_2),
                jaco(-0.3111, FRAC_PI_2),
                jaco(0.0, FRAC_PI_2),
                jaco(-0.2638, PI),
            ],
            0.045,
            3,
        ),
        arm_case(
            presets::baxter_arm(),
            vec![
                DhJoint::new(0.0, 0.2703, 0.069, -FRAC_PI_2, 1.70),
                DhJoint::new(FRAC_PI_2, 0.0, 0.0, FRAC_PI_2, 1.50),
                DhJoint::new(0.0, 0.3644, 0.069, -FRAC_PI_2, 3.05),
                DhJoint::new(0.0, 0.0, 0.0, FRAC_PI_2, 2.61),
                DhJoint::new(0.0, 0.3743, 0.010, -FRAC_PI_2, 3.05),
                DhJoint::new(0.0, 0.0, 0.0, FRAC_PI_2, 2.09),
                DhJoint::new(0.0, 0.2295, 0.0, 0.0, 3.05),
            ],
            0.055,
            3,
        ),
        arm_case(
            presets::kuka_iiwa(),
            kuka_rows
                .iter()
                .zip(kuka_lim)
                .map(|(&(d, alpha), l)| DhJoint::new(0.0, d, 0.0, alpha, l))
                .collect(),
            0.05,
            3,
        ),
        arm_case(
            presets::planar_arm_2dof(),
            vec![
                DhJoint::new(0.0, 0.0, 0.5, 0.0, PI),
                DhJoint::new(0.0, 0.0, 0.4, 0.0, PI),
            ],
            0.04,
            2,
        ),
        Case {
            robot: presets::planar_2d().into(),
            spec: None,
        },
        arm_case(zero_link_arm(), zero_link_rows(), 0.03, 4),
    ]
}

fn reference(case: &Case, q: &Config) -> Vec<RefLink> {
    match &case.spec {
        Some(spec) => reference_arm(spec, q),
        None => reference_planar(q, 0.02),
    }
}

fn vec_bits(v: Vec3) -> [u64; 3] {
    [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]
}

fn obb_bits(o: &Obb) -> Vec<u64> {
    let mut bits = vec_bits(o.center).to_vec();
    bits.extend(o.rot.rows.iter().flatten().map(|x| x.to_bits()));
    bits.extend(vec_bits(o.half_extents));
    bits
}

fn sphere_bits(s: &Sphere) -> [u64; 4] {
    let [x, y, z] = vec_bits(s.center);
    [x, y, z, s.radius.to_bits()]
}

/// Checks `fk`, `fk_into` (into a pose holding another configuration's
/// links) and `link_spheres` against the reference, bit for bit; the error
/// names the robot, the function, the link and the configuration.
fn check(case: &Case, q: &Config, reused: &mut RobotPose) -> Result<(), String> {
    let want = reference(case, q);
    let fresh = case.robot.fk(q);
    case.robot.fk_into(q, reused);
    let spheres = case.robot.link_spheres(q);
    let name = case.robot.name();
    for (label, got) in [("fk", &fresh), ("fk_into", &*reused)] {
        if got.links.len() != want.len() {
            return Err(format!("{name} {label}: {} links", got.links.len()));
        }
        for (i, (link, (center, obb, _))) in got.links.iter().zip(&want).enumerate() {
            if vec_bits(link.center) != vec_bits(*center) {
                return Err(format!("{name} {label} link {i} center at {q}"));
            }
            if obb_bits(&link.obb) != obb_bits(obb) {
                return Err(format!("{name} {label} link {i} obb at {q}"));
            }
        }
    }
    if spheres.len() != want.len() {
        return Err(format!("{name}: {} sphere sets", spheres.len()));
    }
    for (i, (got, (_, _, want))) in spheres.iter().zip(&want).enumerate() {
        let got: Vec<_> = got.iter().map(sphere_bits).collect();
        let want: Vec<_> = want.iter().map(sphere_bits).collect();
        if got != want {
            return Err(format!("{name} link {i} spheres at {q}"));
        }
    }
    Ok(())
}

/// A configuration for `robot` from per-DOF `(kind, fraction)` picks:
/// kind 0 is the lower joint limit, 1 the upper, 2 anywhere in ±10 rad
/// (outside the limits too), otherwise a point inside the limits.
fn pick_config(robot: &Robot, picks: &[(u8, f64)]) -> Config {
    (0..robot.dofs())
        .map(|i| {
            let (lo, hi) = robot.limits(i);
            let (kind, t) = picks[i];
            match kind {
                0 => lo,
                1 => hi,
                2 => -10.0 + 20.0 * t,
                _ => lo + (hi - lo) * t,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn fk_matches_reference_bit_for_bit(
        picks in prop::collection::vec((0u8..6, 0.0..1.0f64), 7),
        prev in prop::collection::vec((0u8..6, 0.0..1.0f64), 7),
    ) {
        for case in cases() {
            let mut reused = case.robot.fk(&pick_config(&case.robot, &prev));
            let q = pick_config(&case.robot, &picks);
            check(&case, &q, &mut reused).unwrap();
        }
    }
}
