//! Seeded scenario generation for the differential harness.
//!
//! Two families of inputs:
//!
//! * **Schedule cases** — pre-enumerated [`CdqInfo`] lists with varied
//!   shapes (single-pose motions, uneven links per pose, all-free,
//!   all-colliding, real-robot enumerations) that feed the schedule
//!   invariant checks of [`crate::reference`].
//! * **Query traces** — full [`QueryTrace`] workloads in the service wire
//!   encoding, replayed in-process and over loopback TCP through
//!   [`copred_replay::run_ab`] by stages 2 and 4–8 (for stage 2, see
//!   [`crate::service_check`]).
//!
//! Everything is a pure function of the seed: a reported divergence is
//! reproducible from its case number alone.

use copred_collision::{enumerate_motion_cdqs, CdqInfo};
use copred_envgen::{random_scene, Density};
use copred_geometry::Vec3;
use copred_kinematics::{presets, Config, Motion, Robot};
use copred_trace::{MotionTrace, QueryTrace, Stage, TraceCdq};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One pre-enumerated schedule input: the CDQ list plus its pose count.
#[derive(Debug, Clone)]
pub struct ScheduleCase {
    /// Human-readable provenance for failure reports.
    pub label: String,
    /// CDQs in pose-major order.
    pub cdqs: Vec<CdqInfo>,
    /// Number of sample poses.
    pub n_poses: usize,
}

/// Deterministic generator for all harness inputs.
#[derive(Debug)]
pub struct ScenarioGen {
    seed: u64,
}

impl ScenarioGen {
    /// Creates a generator rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        ScenarioGen { seed }
    }

    fn rng_for(&self, stream: u64, case: u64) -> StdRng {
        // Distinct, collision-free streams per (kind, case) pair.
        StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(stream.wrapping_mul(0x2545_F491_4F6C_DD1D))
                .wrapping_add(case),
        )
    }

    /// Builds the `i`-th schedule case. Cycles through synthetic shapes and
    /// real-robot enumerations so both the ordering logic and the CDQ
    /// decomposition are exercised.
    pub fn schedule_case(&self, i: u64) -> ScheduleCase {
        let mut rng = self.rng_for(1, i);
        match i % 5 {
            0 => self.synthetic_case(&mut rng, i, /*force_single_pose=*/ false),
            1 => self.synthetic_case(&mut rng, i, /*force_single_pose=*/ true),
            2 => self.extreme_case(&mut rng, i),
            3 => self.robot_case(&mut rng, i),
            _ => self.synthetic_case(&mut rng, i, false),
        }
    }

    /// Synthetic planar sweep: CDQ centers equal the poses, a disc obstacle
    /// decides ground truth, link counts vary per pose.
    fn synthetic_case(&self, rng: &mut StdRng, i: u64, force_single_pose: bool) -> ScheduleCase {
        let n_poses = if force_single_pose {
            1
        } else {
            rng.gen_range(1usize..14)
        };
        let radius = rng.gen_range(0.1..0.6f64);
        let (ax, ay) = (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
        let (bx, by) = (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
        let mut cdqs = Vec::new();
        for p in 0..n_poses {
            let t = if n_poses == 1 {
                0.0
            } else {
                p as f64 / (n_poses - 1) as f64
            };
            let (x, y) = (ax + t * (bx - ax), ay + t * (by - ay));
            let links = rng.gen_range(1usize..4);
            for l in 0..links {
                let off = l as f64 * 0.05;
                let c = Vec3::new(x + off, y, 0.0);
                cdqs.push(synth_cdq_info(p, l, c, c.x.hypot(c.y) < radius));
            }
        }
        ScheduleCase {
            label: format!(
                "synthetic sweep #{i} ({n_poses} poses, {} cdqs)",
                cdqs.len()
            ),
            cdqs,
            n_poses,
        }
    }

    /// Degenerate shapes: all-free, all-colliding, or collision only in the
    /// very last CDQ (worst case for early exit accounting).
    fn extreme_case(&self, rng: &mut StdRng, i: u64) -> ScheduleCase {
        let n_poses = rng.gen_range(1usize..10);
        let kind = i % 3;
        let mut cdqs = Vec::new();
        for p in 0..n_poses {
            let colliding = match kind {
                0 => false,
                1 => true,
                _ => p == n_poses - 1,
            };
            let c = Vec3::new(p as f64 * 0.1, 0.0, 0.0);
            cdqs.push(synth_cdq_info(p, 0, c, colliding));
        }
        let name = ["all-free", "all-colliding", "last-cdq-collides"][kind as usize];
        ScheduleCase {
            label: format!("extreme {name} #{i} ({n_poses} poses)"),
            cdqs,
            n_poses,
        }
    }

    /// Real-robot enumeration: a calibrated random scene and a random
    /// motion, decomposed by [`enumerate_motion_cdqs`] exactly as the
    /// benchmarks do.
    fn robot_case(&self, rng: &mut StdRng, i: u64) -> ScheduleCase {
        let robot: Robot = presets::planar_arm_2dof().into();
        let density = [Density::Low, Density::Medium, Density::High][(i % 3) as usize];
        let scene = random_scene(&robot, density, 2, self.seed.wrapping_add(i));
        let from = scene.poses[0].clone();
        let to = scene.poses[1].clone();
        let n = rng.gen_range(1usize..12);
        let poses = Motion::new(from, to).discretize(n);
        let cdqs = enumerate_motion_cdqs(&robot, &scene.env, &poses);
        ScheduleCase {
            label: format!(
                "robot motion #{i} ({density:?}, {n} poses, {} cdqs)",
                cdqs.len()
            ),
            cdqs,
            n_poses: n,
        }
    }

    /// Builds the `i`-th service workload: a planar [`QueryTrace`] whose
    /// motions mix lengths (including single-pose checks), link counts,
    /// and collision densities.
    pub fn query_trace(&self, i: u64) -> QueryTrace {
        let mut rng = self.rng_for(2, i);
        let n_motions = rng.gen_range(3usize..9);
        let radius = rng.gen_range(0.15..0.5f64);
        let motions = (0..n_motions)
            .map(|m| {
                let n_poses = if m == 0 { 1 } else { rng.gen_range(1usize..10) };
                let links = rng.gen_range(1usize..3);
                let (ax, ay) = (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
                let (bx, by) = (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
                let poses: Vec<Config> = (0..n_poses)
                    .map(|p| {
                        let t = if n_poses == 1 {
                            0.0
                        } else {
                            p as f64 / (n_poses - 1) as f64
                        };
                        Config::new(vec![ax + t * (bx - ax), ay + t * (by - ay)])
                    })
                    .collect();
                let cdqs = poses
                    .iter()
                    .enumerate()
                    .flat_map(|(p, q)| {
                        (0..links).map(move |l| {
                            let c = Vec3::new(q[0] + l as f64 * 0.04, q[1], 0.0);
                            TraceCdq {
                                pose_idx: p as u32,
                                link_idx: l as u32,
                                center: c,
                                colliding: c.x.hypot(c.y) < radius,
                                obstacle_tests: 1 + (l as u32),
                            }
                        })
                    })
                    .collect();
                MotionTrace {
                    stage: if m % 2 == 0 {
                        Stage::Explore
                    } else {
                        Stage::Validate
                    },
                    poses,
                    cdqs,
                }
            })
            .collect();
        QueryTrace {
            robot_name: "planar-2d".to_string(),
            link_count: 1,
            motions,
        }
    }

    /// Generates an adversarial byte buffer for the codec fuzz stage:
    /// random bytes, truncated valid frames, or frames with corrupted
    /// length prefixes.
    pub fn fuzz_bytes(&self, i: u64) -> Vec<u8> {
        let mut rng = self.rng_for(3, i);
        match i % 4 {
            // Pure noise.
            0 => {
                let n = rng.gen_range(0usize..64);
                (0..n).map(|_| rng.gen_range(0u32..256) as u8).collect()
            }
            // A valid frame cut mid-payload.
            1 => {
                let payload: Vec<u8> = (0..rng.gen_range(1usize..40))
                    .map(|_| rng.gen_range(0u32..256) as u8)
                    .collect();
                let mut buf = Vec::new();
                copred_trace::frame::write_frame(&mut buf, &payload).expect("frame");
                let cut = rng.gen_range(1usize..buf.len());
                buf.truncate(cut);
                buf
            }
            // A hostile length prefix with junk behind it.
            2 => {
                let len: u32 = if rng.gen_bool(0.5) {
                    u32::MAX
                } else {
                    rng.gen_range((copred_trace::frame::MAX_FRAME_LEN as u32 + 1)..u32::MAX)
                };
                let mut buf = len.to_be_bytes().to_vec();
                for _ in 0..rng.gen_range(0usize..16) {
                    buf.push(rng.gen_range(0u32..256) as u8);
                }
                buf
            }
            // A well-formed frame (the fuzzer must also accept good input).
            _ => {
                let payload: Vec<u8> = (0..rng.gen_range(0usize..40))
                    .map(|_| rng.gen_range(0u32..256) as u8)
                    .collect();
                let mut buf = Vec::new();
                copred_trace::frame::write_frame(&mut buf, &payload).expect("frame");
                buf
            }
        }
    }
}

fn synth_cdq_info(pose_idx: usize, link_idx: usize, center: Vec3, colliding: bool) -> CdqInfo {
    CdqInfo {
        pose_idx,
        link_idx,
        center,
        obb: copred_geometry::Obb::axis_aligned(center, Vec3::ZERO),
        colliding,
        obstacle_tests: 1 + link_idx,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = ScenarioGen::new(11);
        let b = ScenarioGen::new(11);
        for i in 0..10 {
            assert_eq!(a.schedule_case(i).cdqs, b.schedule_case(i).cdqs);
            assert_eq!(a.query_trace(i), b.query_trace(i));
            assert_eq!(a.fuzz_bytes(i), b.fuzz_bytes(i));
        }
        let c = ScenarioGen::new(12);
        assert_ne!(a.query_trace(0), c.query_trace(0));
    }

    #[test]
    fn schedule_cases_are_pose_major_and_in_range() {
        let g = ScenarioGen::new(3);
        for i in 0..25 {
            let case = g.schedule_case(i);
            assert!(!case.cdqs.is_empty(), "{}", case.label);
            let mut prev = 0;
            for c in &case.cdqs {
                assert!(c.pose_idx < case.n_poses, "{}", case.label);
                assert!(c.pose_idx >= prev, "pose-major order in {}", case.label);
                prev = c.pose_idx;
            }
        }
    }

    #[test]
    fn query_traces_roundtrip_the_wire_encoding() {
        let g = ScenarioGen::new(5);
        for i in 0..8 {
            let t = g.query_trace(i);
            let back = QueryTrace::from_text(&t.to_text()).expect("parse");
            assert_eq!(t, back);
        }
    }
}
