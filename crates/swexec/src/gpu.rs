//! GPU-like bulk-parallel execution model (paper Fig. 11).
//!
//! On a GPU, the poses of one motion are checked by many threads in
//! parallel. Early exit cannot cancel work that is already in flight, so the
//! wider the per-motion parallelism, the more *redundant* CDQs execute
//! beyond the first collision. Collision prediction counteracts this by
//! ordering predicted-colliding CDQs into the earliest wavefronts — but
//! software prediction adds warp divergence and shared-hash-table memory
//! stalls that grow with thread count, which is why the paper measures a
//! runtime *increase* at 2048–4096 threads despite fewer CDQs.
//!
//! The model executes trace CDQs in wavefronts of width `threads /
//! MOTION_LANES` and charges calibrated per-wavefront and per-access costs
//! (DESIGN.md substitution: Titan V measurements → parameterized model; the
//! shape, not absolute nanoseconds, is the reproduction target).

use copred_core::{Cht, ChtParams};
use copred_trace::MotionTrace;

/// Concurrent motion lanes: the baseline 64-thread configuration processes
/// 64 motions with one thread each, so per-motion width is `threads / 64`.
pub const MOTION_LANES: usize = 64;

/// Cost parameters of the GPU model (arbitrary time units; only ratios
/// matter).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuModelParams {
    /// Cost of one CDQ wavefront (narrow-phase tests run in lockstep).
    pub wave_cost: f64,
    /// Memory-system cost per executed CDQ: wide execution is bandwidth
    /// bound, so per-motion time is floored at `executed × mem_bw_cost`
    /// (real GPUs stop scaling once the memory system saturates).
    pub mem_bw_cost: f64,
    /// Per-CDQ cost of hashing + CHT lookup when prediction is on (lookups
    /// run in parallel across lanes but contend on the shared table).
    pub cht_access_cost: f64,
    /// Extra per-lookup contention cost, multiplied by log2(threads):
    /// shared-table memory stalls grow with parallelism.
    pub contention_coeff: f64,
    /// Per-wavefront divergence penalty when prediction reorders CDQs
    /// (skipped lanes idle in lockstep).
    pub divergence_coeff: f64,
}

impl Default for GpuModelParams {
    fn default() -> Self {
        GpuModelParams {
            wave_cost: 1.0,
            mem_bw_cost: 0.12,
            cht_access_cost: 0.020,
            contention_coeff: 0.004,
            divergence_coeff: 0.25,
        }
    }
}

/// Result of one modeled GPU run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuRun {
    /// Total thread count modeled.
    pub threads: usize,
    /// CDQs executed (including redundant in-flight work).
    pub cdqs: u64,
    /// Modeled execution time (arbitrary units).
    pub time: f64,
}

/// Runs the GPU model over a motion workload.
///
/// # Panics
///
/// Panics when `threads` is smaller than [`MOTION_LANES`].
pub fn run_gpu_model(
    motions: &[MotionTrace],
    threads: usize,
    with_prediction: bool,
    params: &GpuModelParams,
    cht_params: ChtParams,
    seed: u64,
) -> GpuRun {
    assert!(
        threads >= MOTION_LANES,
        "model needs at least {MOTION_LANES} threads (one per motion lane)"
    );
    let width = threads / MOTION_LANES;
    let mut cht = Cht::new(cht_params, seed);
    let mut total_cdqs = 0u64;
    let mut total_time = 0.0f64;
    // Per-lookup cost including shared-table contention.
    let lookup_cost = params.cht_access_cost + params.contention_coeff * (threads as f64).log2();

    for m in motions {
        // Build the execution order over CDQ indices.
        let n = m.cdqs.len();
        let mut pred_time = 0.0f64;
        let order: Vec<usize> = if with_prediction {
            // Hash + predict each CDQ (one CHT read per CDQ); lookups run in
            // parallel across the motion's lanes but contend on the table.
            let bits = cht.params().bits;
            let mut predicted = Vec::with_capacity(n);
            let mut rest = Vec::with_capacity(n);
            for (i, c) in m.cdqs.iter().enumerate() {
                if cht.predict(coord_code(c.center, bits)) {
                    predicted.push(i);
                } else {
                    rest.push(i);
                }
            }
            pred_time += n as f64 * lookup_cost;
            // Divergence penalty: mixed predicted/unpredicted waves leave
            // lanes idle in lockstep.
            if width > 1 && !predicted.is_empty() && !rest.is_empty() {
                pred_time +=
                    params.divergence_coeff * params.wave_cost * (n as f64 / width as f64).ceil();
            }
            predicted.into_iter().chain(rest).collect()
        } else {
            (0..n).collect()
        };

        // Execute in wavefronts of `width`; early exit only between waves.
        let mut executed = 0usize;
        let mut waves = 0usize;
        for wave in order.chunks(width.max(1)) {
            waves += 1;
            executed += wave.len();
            let mut wave_hit = false;
            for &i in wave {
                let c = &m.cdqs[i];
                if with_prediction {
                    cht.observe(coord_code(c.center, cht.params().bits), c.colliding);
                }
                if c.colliding {
                    wave_hit = true;
                }
            }
            if wave_hit {
                break;
            }
        }
        total_cdqs += executed as u64;
        // Compute-bound (lockstep waves) or bandwidth-bound, whichever
        // dominates, plus the prediction bookkeeping.
        let exec_time = (waves as f64 * params.wave_cost).max(executed as f64 * params.mem_bw_cost);
        total_time += exec_time + pred_time;
    }

    // 64 concurrent lanes share the wall clock.
    GpuRun {
        threads,
        cdqs: total_cdqs,
        time: total_time / MOTION_LANES as f64,
    }
}

/// COORD-style code over raw centers: quantizes each coordinate to
/// `bits/3`-bit bins over a fixed ±1.5 m workspace. The trace does not carry
/// the robot's workspace, so the GPU model (which only needs *relative*
/// behaviour) uses this fixed extent.
fn coord_code(center: copred_geometry::Vec3, bits: u32) -> u64 {
    let k = bits / 3;
    let quant = |v: f64| -> u64 {
        let t = ((v + 1.5) / 3.0).clamp(0.0, 1.0);
        let max = (1u64 << k) - 1;
        (t * max as f64).round() as u64
    };
    (quant(center.x) << (2 * k)) | (quant(center.y) << k) | quant(center.z)
}

/// The Fig. 11 sweep: thread counts from 64 to 4096, with and without
/// prediction, normalized to the 64-thread no-prediction baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSweepRow {
    /// Thread count.
    pub threads: usize,
    /// CDQs without prediction, normalized.
    pub cdqs_base: f64,
    /// CDQs with prediction, normalized.
    pub cdqs_pred: f64,
    /// Runtime without prediction, normalized.
    pub time_base: f64,
    /// Runtime with prediction, normalized.
    pub time_pred: f64,
}

/// Runs the full parallelism sweep of Fig. 11.
pub fn gpu_sweep(
    motions: &[MotionTrace],
    thread_counts: &[usize],
    params: &GpuModelParams,
    cht_params: ChtParams,
    seed: u64,
) -> Vec<GpuSweepRow> {
    let base64 = run_gpu_model(motions, MOTION_LANES, false, params, cht_params, seed);
    thread_counts
        .iter()
        .map(|&t| {
            let b = run_gpu_model(motions, t, false, params, cht_params, seed);
            let p = run_gpu_model(motions, t, true, params, cht_params, seed);
            GpuSweepRow {
                threads: t,
                cdqs_base: b.cdqs as f64 / base64.cdqs as f64,
                cdqs_pred: p.cdqs as f64 / base64.cdqs as f64,
                time_base: b.time / base64.time,
                time_pred: p.time / base64.time,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use copred_collision::Environment;
    use copred_geometry::{Aabb, Vec3};
    use copred_kinematics::{presets, Motion, Robot};
    use copred_planners::{MotionRecord, PlanLog, Stage};
    use copred_trace::QueryTrace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn workload() -> Vec<MotionTrace> {
        let robot: Robot = presets::planar_2d().into();
        let env = Environment::new(
            robot.workspace(),
            vec![Aabb::new(
                Vec3::new(0.1, -1.0, -0.1),
                Vec3::new(0.5, 1.0, 0.1),
            )],
        );
        let mut rng = StdRng::seed_from_u64(5);
        let records: Vec<MotionRecord> = (0..150)
            .map(|_| {
                let poses = Motion::new(
                    robot.sample_uniform(&mut rng),
                    robot.sample_uniform(&mut rng),
                )
                .discretize(32);
                let colliding = copred_collision::motion_collides(&robot, &env, &poses);
                MotionRecord {
                    poses,
                    stage: Stage::Explore,
                    colliding,
                }
            })
            .collect();
        QueryTrace::from_log(&robot, &env, &PlanLog { records }).motions
    }

    #[test]
    fn wider_parallelism_executes_more_cdqs() {
        let motions = workload();
        let p = GpuModelParams::default();
        let narrow = run_gpu_model(&motions, 64, false, &p, ChtParams::paper_2d(), 1);
        let wide = run_gpu_model(&motions, 2048, false, &p, ChtParams::paper_2d(), 1);
        assert!(
            wide.cdqs > narrow.cdqs,
            "wide {} !> narrow {} (redundant work should grow)",
            wide.cdqs,
            narrow.cdqs
        );
    }

    #[test]
    fn prediction_reduces_cdqs_at_all_widths() {
        let motions = workload();
        let p = GpuModelParams::default();
        for threads in [64, 512, 2048, 4096] {
            let b = run_gpu_model(&motions, threads, false, &p, ChtParams::paper_2d(), 1);
            let pr = run_gpu_model(&motions, threads, true, &p, ChtParams::paper_2d(), 1);
            assert!(
                pr.cdqs <= b.cdqs,
                "threads={threads}: pred {} > base {}",
                pr.cdqs,
                b.cdqs
            );
        }
    }

    #[test]
    fn prediction_slows_down_very_wide_execution() {
        // The paper's observation: software prediction increases runtime by
        // 30%-70% at 2048-4096 threads despite the CDQ reduction.
        let motions = workload();
        let p = GpuModelParams::default();
        let rows = gpu_sweep(&motions, &[64, 4096], &p, ChtParams::paper_2d(), 1);
        let narrow = &rows[0];
        let wide = &rows[1];
        assert!(
            narrow.time_pred <= narrow.time_base * 1.1,
            "narrow: pred {} vs base {}",
            narrow.time_pred,
            narrow.time_base
        );
        assert!(
            wide.time_pred > wide.time_base,
            "wide: pred {} !> base {}",
            wide.time_pred,
            wide.time_base
        );
    }

    #[test]
    fn sweep_is_normalized_to_first_baseline() {
        let motions = workload();
        let rows = gpu_sweep(
            &motions,
            &[64, 128],
            &GpuModelParams::default(),
            ChtParams::paper_2d(),
            1,
        );
        assert!((rows[0].cdqs_base - 1.0).abs() < 1e-12);
        assert!((rows[0].time_base - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn too_few_threads_rejected() {
        let motions = workload();
        let _ = run_gpu_model(
            &motions,
            8,
            false,
            &GpuModelParams::default(),
            ChtParams::paper_2d(),
            1,
        );
    }
}
