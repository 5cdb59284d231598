//! Property-based tests for kinematics invariants.

use copred_kinematics::{csp_order, presets, Config, Motion, Robot};
use proptest::prelude::*;

fn config7() -> impl Strategy<Value = Config> {
    prop::collection::vec(-1.5..1.5f64, 7).prop_map(Config::new)
}

proptest! {
    #[test]
    fn fk_is_deterministic(q in config7()) {
        let arm = presets::kuka_iiwa();
        prop_assert_eq!(arm.fk(&q), arm.fk(&q));
    }

    #[test]
    fn link_centers_within_workspace(q in config7()) {
        for robot in [Robot::from(presets::jaco2()), Robot::from(presets::kuka_iiwa())] {
            let ws = robot.workspace();
            for link in robot.fk(&q).links {
                prop_assert!(ws.contains(link.center));
            }
        }
    }

    #[test]
    fn chain_is_connected(q in config7()) {
        // Consecutive link OBBs meet: the distal end of link i equals the
        // proximal end of link i+1, so both OBBs contain that joint point.
        let arm = presets::baxter_arm();
        let ts = arm.link_transforms(&q);
        let pose = arm.fk(&q);
        for i in 0..pose.links.len() - 1 {
            let joint = ts[i + 1].trans;
            prop_assert!(pose.links[i].obb.contains(joint));
            prop_assert!(pose.links[i + 1].obb.contains(joint));
        }
    }

    #[test]
    fn small_config_change_moves_links_little(q in config7(), eps in 1e-6..1e-3f64) {
        // Physical spatial locality (the paper's key insight): nearby poses
        // have nearby link centers. FK is Lipschitz with constant bounded by
        // the total reach.
        let arm = presets::kuka_iiwa();
        let mut q2 = q.clone();
        q2.values_mut()[3] += eps;
        let a = arm.fk(&q);
        let b = arm.fk(&q2);
        let reach = arm.reach();
        for (la, lb) in a.links.iter().zip(&b.links) {
            prop_assert!(la.center.distance(lb.center) <= reach * eps * 2.0 + 1e-9);
        }
    }

    #[test]
    fn motion_discretization_monotone_along_line(n in 2usize..40) {
        let m = Motion::new(Config::zeros(3), Config::new(vec![1.0, -2.0, 0.5]));
        let ps = m.discretize(n);
        prop_assert_eq!(ps.len(), n);
        // Distances from start are nondecreasing.
        let mut prev = -1.0;
        for p in &ps {
            let d = m.from.distance(p);
            prop_assert!(d >= prev - 1e-12);
            prev = d;
        }
    }

    #[test]
    fn csp_is_permutation(n in 0usize..200, step in 0usize..250) {
        // `step` deliberately covers the degenerate 0, strides larger than
        // `n`, and everything between: every case must visit each pose
        // exactly once.
        let mut order = csp_order(n, step);
        order.sort_unstable();
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn csp_degenerate_strides_are_identity(n in 0usize..64) {
        let identity: Vec<usize> = (0..n).collect();
        prop_assert_eq!(csp_order(n, 0), identity.clone(), "step 0");
        prop_assert_eq!(csp_order(n, 1), identity, "step 1");
    }

    #[test]
    fn sphere_set_encloses_obb_center(q in config7()) {
        let arm = presets::jaco2();
        for (link, spheres) in arm.fk(&q).links.iter().zip(arm.link_spheres(&q)) {
            prop_assert!(spheres.iter().any(|s| s.contains(link.center)));
        }
    }
}
