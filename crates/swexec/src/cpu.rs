//! Multi-threaded CPU collision detection with a shared predictor
//! (paper §III-E).
//!
//! Each worker thread executes Algorithm 1 over a group of motions; the
//! Collision History Table is shared between all threads. The run measures
//! both the executed CDQ count (computation) and wall-clock time, matching
//! the paper's CPU experiment (25.3% CDQ reduction, 13.8% runtime reduction
//! on a Cortex A57 — the absolute split depends on the host, the *gap*
//! between computation and runtime reduction comes from CHT cache traffic).

use crate::concurrent_cht::ConcurrentCht;
use copred_collision::Environment;
use copred_core::{ChtParams, CoordHash};
use copred_geometry::{Obb, Vec3};
use copred_kinematics::{Config, Robot, RobotPose};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Configuration of a CPU software collision-detection run.
#[derive(Debug, Clone)]
pub struct CpuExecConfig {
    /// Worker threads (the paper uses 64).
    pub n_threads: usize,
    /// Whether collision prediction is enabled.
    pub with_prediction: bool,
    /// CHT parameters (ignored without prediction).
    pub cht_params: ChtParams,
    /// Seed for the per-thread `U`-policy streams.
    pub seed: u64,
}

impl Default for CpuExecConfig {
    fn default() -> Self {
        CpuExecConfig {
            n_threads: 8,
            with_prediction: true,
            cht_params: ChtParams::paper_arm(),
            seed: 1,
        }
    }
}

/// Result of a CPU run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuExecResult {
    /// Total CDQs executed across all motions.
    pub cdqs_executed: u64,
    /// Number of motions found colliding.
    pub colliding_motions: u64,
    /// Wall-clock time of the parallel section.
    pub wall_time: Duration,
}

/// Runs motion-environment collision detection for `motions` (each already
/// discretized into sample poses) across `cfg.n_threads` threads.
///
/// Each worker owns its FK pose, hash buffers and deferred-CDQ queue,
/// sized once up front, so the heap allocations of a run depend on the
/// thread count and not on the number of motions or poses. Each pose's
/// link codes are computed once, in one batch, and the queue carries them
/// to the execute pass.
///
/// # Panics
///
/// Panics when `cfg.n_threads` is zero.
pub fn run_cpu(
    robot: &Robot,
    env: &Environment,
    motions: &[Vec<Config>],
    cfg: &CpuExecConfig,
) -> CpuExecResult {
    assert!(cfg.n_threads > 0, "need at least one worker thread");
    let cht = ConcurrentCht::new(cfg.cht_params);
    let hash = CoordHash::paper_default(robot);
    let cdqs = AtomicU64::new(0);
    let colliding = AtomicU64::new(0);
    let next = AtomicUsize::new(0);
    let links = robot.link_count();
    let max_poses = motions.iter().map(Vec::len).max().unwrap_or(0);

    let run_span = copred_obs::span("swexec", "run_cpu");
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..cfg.n_threads {
            let cht = &cht;
            let hash = &hash;
            let cdqs = &cdqs;
            let colliding = &colliding;
            let next = &next;
            let thread_seed = cfg.seed ^ ((t as u64 + 1) * 0x9E37_79B9);
            scope.spawn(move || {
                // The whole worker lifetime is swexec work; predict and
                // execute frames nest under it below.
                let _swexec_stage = copred_obs::stage(copred_obs::Stage::SwExec);
                // Cheap per-thread xorshift stream for the U policy.
                let mut state = thread_seed | 1;
                let mut rand01 = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state >> 11) as f64 / (1u64 << 53) as f64
                };
                let mut pose = RobotPose {
                    links: Vec::with_capacity(links),
                };
                let mut centers: Vec<Vec3> = Vec::with_capacity(links);
                let mut codes = vec![0u64; links];
                // Deferred CDQs: (link code, link OBB).
                let mut queue: Vec<(u64, Obb)> = Vec::with_capacity(max_poses * links);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= motions.len() {
                        break;
                    }
                    let poses = &motions[i];
                    let mut executed = 0u64;
                    let mut hit = false;
                    if cfg.with_prediction {
                        // Algorithm 1: predicted CDQs first, queue the rest.
                        let predict_span = copred_obs::span("swexec", "predict");
                        let predict_stage = copred_obs::stage(copred_obs::Stage::Predict);
                        queue.clear();
                        'outer: for q in poses {
                            robot.fk_into(q, &mut pose);
                            centers.clear();
                            centers.extend(pose.links.iter().map(|l| l.center));
                            hash.code_batch(&centers, &mut codes);
                            for (link, &code) in pose.links.iter().zip(&codes) {
                                if cht.predict(code) {
                                    executed += 1;
                                    let c = env.obb_collides(&link.obb);
                                    cht.observe(code, c, rand01());
                                    if c {
                                        hit = true;
                                        break 'outer;
                                    }
                                } else {
                                    queue.push((code, link.obb));
                                }
                            }
                        }
                        drop(predict_stage);
                        drop(predict_span);
                        if !hit {
                            let _execute_span = copred_obs::span("swexec", "execute");
                            let _execute_stage = copred_obs::stage(copred_obs::Stage::Execute);
                            for &(code, obb) in &queue {
                                executed += 1;
                                let c = env.obb_collides(&obb);
                                cht.observe(code, c, rand01());
                                if c {
                                    hit = true;
                                    break;
                                }
                            }
                        }
                    } else {
                        // Naive sequential checking with early exit.
                        let _execute_span = copred_obs::span("swexec", "execute");
                        let _execute_stage = copred_obs::stage(copred_obs::Stage::Execute);
                        'outer2: for q in poses {
                            robot.fk_into(q, &mut pose);
                            for link in &pose.links {
                                executed += 1;
                                if env.obb_collides(&link.obb) {
                                    hit = true;
                                    break 'outer2;
                                }
                            }
                        }
                    }
                    cdqs.fetch_add(executed, Ordering::Relaxed);
                    if hit {
                        colliding.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    drop(run_span);
    if copred_obs::enabled() {
        // CHT health at end of run, as Chrome counter tracks.
        copred_obs::counter("swexec", "cht_occupancy", cht.occupancy() as u64);
        copred_obs::counter("swexec", "cht_saturated", cht.saturated_entries() as u64);
        copred_obs::counter("swexec", "cht_writes", cht.writes());
        copred_obs::counter("swexec", "cht_alias_events", cht.alias_events());
    }
    CpuExecResult {
        cdqs_executed: cdqs.load(Ordering::Relaxed),
        colliding_motions: colliding.load(Ordering::Relaxed),
        wall_time: start.elapsed(),
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
        let robot: Robot = presets::planar_2d().into();
        let env = Environment::new(
            robot.workspace(),
            vec![Aabb::new(
                Vec3::new(0.1, -1.0, -0.1),
                Vec3::new(0.5, 1.0, 0.1),
            )],
        );
        let mut rng = StdRng::seed_from_u64(17);
        let motions: Vec<Vec<Config>> = (0..120)
            .map(|_| {
                Motion::new(
                    robot.sample_uniform(&mut rng),
                    robot.sample_uniform(&mut rng),
                )
                .discretize(20)
            })
            .collect();
        (robot, env, motions)
    }

    #[test]
    fn prediction_reduces_cdqs() {
        let (robot, env, motions) = workload();
        let base = run_cpu(
            &robot,
            &env,
            &motions,
            &CpuExecConfig {
                with_prediction: false,
                n_threads: 4,
                ..Default::default()
            },
        );
        let pred = run_cpu(
            &robot,
            &env,
            &motions,
            &CpuExecConfig {
                with_prediction: true,
                n_threads: 4,
                cht_params: ChtParams::paper_2d(),
                ..Default::default()
            },
        );
        // Same answers.
        assert_eq!(base.colliding_motions, pred.colliding_motions);
        // Less computation.
        assert!(
            pred.cdqs_executed < base.cdqs_executed,
            "pred {} !< base {}",
            pred.cdqs_executed,
            base.cdqs_executed
        );
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let (robot, env, motions) = workload();
        let one = run_cpu(
            &robot,
            &env,
            &motions,
            &CpuExecConfig {
                with_prediction: false,
                n_threads: 1,
                ..Default::default()
            },
        );
        let eight = run_cpu(
            &robot,
            &env,
            &motions,
            &CpuExecConfig {
                with_prediction: false,
                n_threads: 8,
                ..Default::default()
            },
        );
        assert_eq!(one.colliding_motions, eight.colliding_motions);
        assert_eq!(one.cdqs_executed, eight.cdqs_executed);
    }

    #[test]
    fn works_on_arm_robot() {
        let robot: Robot = presets::kuka_iiwa().into();
        let env = Environment::new(
            robot.workspace(),
            vec![Aabb::from_center_half_extents(
                Vec3::new(0.5, 0.0, 0.4),
                Vec3::splat(0.2),
            )],
        );
        let mut rng = StdRng::seed_from_u64(3);
        let motions: Vec<Vec<Config>> = (0..20)
            .map(|_| {
                Motion::new(
                    robot.sample_uniform(&mut rng),
                    robot.sample_uniform(&mut rng),
                )
                .discretize(10)
            })
            .collect();
        let r = run_cpu(&robot, &env, &motions, &CpuExecConfig::default());
        assert!(r.cdqs_executed > 0);
        assert!(r.wall_time > Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "worker thread")]
    fn zero_threads_rejected() {
        let (robot, env, motions) = workload();
        let _ = run_cpu(
            &robot,
            &env,
            &motions,
            &CpuExecConfig {
                n_threads: 0,
                ..Default::default()
            },
        );
    }
}
