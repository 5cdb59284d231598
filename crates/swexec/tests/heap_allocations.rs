//! Heap allocations on the CPU collision path, counted deterministically.
//!
//! Forward kinematics into a reused `RobotPose` must not allocate, and a
//! `run_cpu` run must allocate per worker thread, never per motion or per
//! pose: 10 motions and 200 motions cost the same number of allocations.
//! Allocation counts stand in for "heap traffic per check", which wall
//! clocks on a shared host measure too noisily to gate on.
//!
//! This is its own integration binary with a single test because the
//! counting global allocator sees every thread of the process; concurrent
//! tests would pollute each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use copred_collision::Environment;
use copred_core::ChtParams;
use copred_geometry::{Aabb, Vec3};
use copred_kinematics::{presets, Config, Motion, Robot, RobotPose};
use copred_swexec::{run_cpu, CpuExecConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// System allocator that counts allocations and reallocations.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

#[global_allocator]
static GLOBAL: Counting = Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations made while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

fn motions(robot: &Robot, n: usize, seed: u64) -> Vec<Vec<Config>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            Motion::new(
                robot.sample_uniform(&mut rng),
                robot.sample_uniform(&mut rng),
            )
            .discretize(16)
        })
        .collect()
}

#[test]
fn fk_and_run_cpu_allocate_per_thread_not_per_pose() {
    let robots: [Robot; 2] = [presets::kuka_iiwa().into(), presets::planar_2d().into()];
    for robot in &robots {
        // fk_into into a warm pose: zero allocations over many poses.
        let qs = motions(robot, 50, 3).concat();
        let mut pose = RobotPose::default();
        robot.fk_into(&qs[0], &mut pose);
        let (n, ()) = allocations(|| {
            for q in &qs {
                robot.fk_into(q, &mut pose);
            }
        });
        assert_eq!(n, 0, "{}: fk_into into a warm pose allocated", robot.name());

        // run_cpu: the same allocation count for 10 and for 200 motions,
        // with prediction on and off.
        let env = Environment::new(
            robot.workspace(),
            vec![Aabb::from_center_half_extents(
                Vec3::new(0.3, 0.1, 0.0),
                Vec3::splat(0.15),
            )],
        );
        let all = motions(robot, 200, 11);
        for with_prediction in [true, false] {
            let cfg = CpuExecConfig {
                n_threads: 1,
                with_prediction,
                cht_params: ChtParams::paper_arm(),
                seed: 5,
            };
            // Every spawned worker registers with a process-wide thread
            // registry whose `Vec` grows by doubling, so an occasional run
            // pays one amortized reallocation for it. That cost is per
            // thread, not per pose; the minimum over three alternating
            // runs of each size excludes it.
            let (mut few, mut many) = (u64::MAX, u64::MAX);
            for _ in 0..3 {
                few = few.min(allocations(|| run_cpu(robot, &env, &all[..10], &cfg)).0);
                many = many.min(allocations(|| run_cpu(robot, &env, &all, &cfg)).0);
            }
            let r = run_cpu(robot, &env, &all, &cfg);
            assert!(r.colliding_motions > 0, "{}: no collisions", robot.name());
            assert_eq!(
                few,
                many,
                "{} (prediction {with_prediction}): {few} allocations for 10 motions, {many} for 200",
                robot.name()
            );
        }
    }
}
