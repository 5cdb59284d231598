//! Workload shared by the service integration tests.

use copred_geometry::Vec3;
use copred_kinematics::Config;
use copred_trace::{MotionTrace, QueryTrace, Stage, TraceCdq};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Synthetic planar workload: motions are straight-line sweeps through
/// [-1, 1]², a disc obstacle of radius 0.35 sits at the origin, and the
/// CDQ centers equal the poses — so collision history is spatially
/// coherent and a COORD predictor can learn it.
pub fn synthetic_traces(n_traces: usize, motions_per_trace: usize, seed: u64) -> Vec<QueryTrace> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_traces)
        .map(|_| {
            let motions = (0..motions_per_trace)
                .map(|_| {
                    let (ax, ay) = (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
                    let (bx, by) = (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
                    let n_poses = 8;
                    let poses: Vec<Config> = (0..n_poses)
                        .map(|i| {
                            let t = i as f64 / (n_poses - 1) as f64;
                            Config::new(vec![ax + t * (bx - ax), ay + t * (by - ay)])
                        })
                        .collect();
                    let cdqs = poses
                        .iter()
                        .enumerate()
                        .map(|(i, q)| {
                            let c = Vec3::new(q[0], q[1], 0.0);
                            TraceCdq {
                                pose_idx: i as u32,
                                link_idx: 0,
                                center: c,
                                colliding: (c.x * c.x + c.y * c.y).sqrt() < 0.35,
                                obstacle_tests: 1,
                            }
                        })
                        .collect();
                    MotionTrace {
                        stage: Stage::Explore,
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
        })
        .collect()
}
