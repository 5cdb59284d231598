//! Sphere-based CDU variant (paper §VII-1).
//!
//! With curobo-style sphere sets, each robot link is covered by several
//! spheres and a CDQ is one sphere-environment test. The COPU predicts at
//! *link* granularity (the link's transformation matrix — hence its center —
//! is what flows through the queues); on dispatch, the link is expanded into
//! its spheres and those CDQs run with early exit. The paper measures a
//! 23.4% sphere-CDQ reduction for Jaco2 + MPNet.

use copred_collision::Environment;
use copred_core::hash::CollisionHash;
use copred_core::{Cht, ChtParams, CoordHash, HashInput};
use copred_kinematics::{csp_order, Config, Robot};

/// Counting-level result of a sphere-CDU run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SphereRunResult {
    /// Motions checked.
    pub motions: u64,
    /// Motions found colliding.
    pub colliding_motions: u64,
    /// Sphere-environment CDQs executed.
    pub sphere_cdqs: u64,
}

/// The sphere-CDU pipeline simulator (CDQ-counting granularity).
#[derive(Debug)]
pub struct SphereSim {
    hash: CoordHash,
    cht: Cht,
    csp_step: usize,
    with_copu: bool,
}

impl SphereSim {
    /// Creates a simulator for `robot`; `with_copu` false gives the CSP
    /// baseline.
    pub fn new(robot: &Robot, cht_params: ChtParams, with_copu: bool, seed: u64) -> Self {
        SphereSim {
            hash: CoordHash::paper_default(robot),
            cht: Cht::new(cht_params, seed),
            csp_step: 5,
            with_copu,
        }
    }

    /// Clears prediction history between planning queries.
    pub fn reset_query(&mut self) {
        self.cht.reset();
    }

    /// Checks one motion (discretized poses) and counts sphere CDQs.
    pub fn run_motion(
        &mut self,
        robot: &Robot,
        env: &Environment,
        poses: &[Config],
    ) -> (bool, u64) {
        let order = csp_order(poses.len(), self.csp_step);
        let mut executed = 0u64;
        // Deferred links: (pose order position, link).
        let mut queue: Vec<(usize, usize)> = Vec::new();
        // Cache FK (for the hashed link centers) and the sphere sets per
        // pose to expand links on dispatch.
        let fk: Vec<_> = poses.iter().map(|q| robot.fk(q)).collect();
        let spheres: Vec<_> = poses.iter().map(|q| robot.link_spheres(q)).collect();
        let dummy = Config::zeros(0);
        let with_copu = self.with_copu;
        let hash = &self.hash;
        let cht = &mut self.cht;

        // Executes a link's sphere CDQs with early exit and records the
        // link-level outcome in the history table.
        let exec_link = |pi: usize, li: usize, executed: &mut u64, cht: &mut Cht| -> bool {
            let mut hit = false;
            for s in &spheres[pi][li] {
                *executed += 1;
                if env.sphere_collides(s) {
                    hit = true;
                    break;
                }
            }
            if with_copu {
                let code = hash.code(&HashInput {
                    config: &dummy,
                    center: fk[pi].links[li].center,
                });
                cht.observe(code, hit);
            }
            hit
        };

        for &pi in &order {
            for li in 0..fk[pi].links.len() {
                if with_copu {
                    let center = fk[pi].links[li].center;
                    let code = hash.code(&HashInput {
                        config: &dummy,
                        center,
                    });
                    if cht.predict(code) {
                        if exec_link(pi, li, &mut executed, cht) {
                            return (true, executed);
                        }
                    } else {
                        queue.push((pi, li));
                    }
                } else if exec_link(pi, li, &mut executed, cht) {
                    return (true, executed);
                }
            }
        }
        for (pi, li) in queue {
            if exec_link(pi, li, &mut executed, cht) {
                return (true, executed);
            }
        }
        (false, executed)
    }

    /// Runs a whole workload of discretized motions.
    pub fn run_query(
        &mut self,
        robot: &Robot,
        env: &Environment,
        motions: &[Vec<Config>],
    ) -> SphereRunResult {
        let mut r = SphereRunResult::default();
        for m in motions {
            let (hit, cdqs) = self.run_motion(robot, env, m);
            r.motions += 1;
            r.colliding_motions += u64::from(hit);
            r.sphere_cdqs += cdqs;
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copred_geometry::{Aabb, Vec3};
    use copred_kinematics::{presets, Motion};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn workload() -> (Robot, Environment, Vec<Vec<Config>>) {
        let robot: Robot = presets::jaco2().into();
        let env = Environment::new(
            robot.workspace(),
            vec![
                Aabb::from_center_half_extents(Vec3::new(0.4, 0.1, 0.3), Vec3::splat(0.18)),
                Aabb::from_center_half_extents(Vec3::new(-0.3, -0.3, 0.5), Vec3::splat(0.14)),
            ],
        );
        let mut rng = StdRng::seed_from_u64(12);
        let motions: Vec<Vec<Config>> = (0..60)
            .map(|_| {
                Motion::new(
                    robot.sample_uniform(&mut rng),
                    robot.sample_uniform(&mut rng),
                )
                .discretize(12)
            })
            .collect();
        (robot, env, motions)
    }

    #[test]
    fn outcomes_agree_between_modes() {
        let (robot, env, motions) = workload();
        let mut base = SphereSim::new(&robot, ChtParams::paper_arm(), false, 3);
        let mut copu = SphereSim::new(&robot, ChtParams::paper_arm(), true, 3);
        let rb = base.run_query(&robot, &env, &motions);
        let rc = copu.run_query(&robot, &env, &motions);
        assert_eq!(rb.colliding_motions, rc.colliding_motions);
        assert_eq!(rb.motions, 60);
    }

    #[test]
    fn copu_reduces_sphere_cdqs() {
        let (robot, env, motions) = workload();
        let mut base = SphereSim::new(&robot, ChtParams::paper_arm(), false, 3);
        let mut copu = SphereSim::new(&robot, ChtParams::paper_arm(), true, 3);
        let rb = base.run_query(&robot, &env, &motions);
        let rc = copu.run_query(&robot, &env, &motions);
        assert!(
            rc.sphere_cdqs < rb.sphere_cdqs,
            "copu {} !< baseline {}",
            rc.sphere_cdqs,
            rb.sphere_cdqs
        );
    }

    #[test]
    fn free_motion_costs_all_spheres() {
        let robot: Robot = presets::jaco2().into();
        let env = Environment::empty(robot.workspace());
        let poses = Motion::new(Config::zeros(7), Config::new(vec![0.3; 7])).discretize(5);
        let total_spheres = (poses.len() * robot.sphere_count()) as u64;
        let mut s = SphereSim::new(&robot, ChtParams::paper_arm(), true, 1);
        let (hit, cdqs) = s.run_motion(&robot, &env, &poses);
        assert!(!hit);
        assert_eq!(cdqs, total_spheres);
    }

    #[test]
    fn reset_restores_cold_behaviour() {
        let (robot, env, motions) = workload();
        let mut s = SphereSim::new(&robot, ChtParams::paper_arm(), true, 5);
        let a = s.run_query(&robot, &env, &motions);
        s.reset_query();
        let b = s.run_query(&robot, &env, &motions);
        assert_eq!(a.sphere_cdqs, b.sphere_cdqs);
    }
}
