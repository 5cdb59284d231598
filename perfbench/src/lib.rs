//! The repository benchmark: planner-facing check latency and throughput
//! on three workloads, and a separate traced pass that times every layer
//! from the benchmark's own code. See `perfbench/README.md`.

pub mod child;
pub mod cpu;
pub mod inputs;
pub mod report;
pub mod service;
pub mod shadow;
pub mod stats;
pub mod wire;

use std::path::PathBuf;
use std::time::Duration;

/// Set-up runs this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["arm_bulk", "planar_fleet_churn", "cpu_arm_collide"];

/// What one benchmark run needs to know.
pub struct Ctx {
    /// Where `copred_server` and `copred_fleet` were built.
    pub bin_dir: PathBuf,
    /// Scratch space for stores and temp files; the caller removes it.
    pub work: PathBuf,
    pub seed: u64,
    /// The measured window.
    pub window: Duration,
    pub traced: bool,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub metrics: stats::Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness and conservation failures; any fails the run.
    pub errors: Vec<String>,
}

/// Runs one workload.
pub fn run(workload: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match workload {
        "arm_bulk" => service::arm_bulk(ctx),
        "planar_fleet_churn" => service::planar_fleet_churn(ctx),
        "cpu_arm_collide" => cpu::cpu_arm_collide(ctx),
        other => Err(format!(
            "unknown workload '{other}' (valid: {})",
            WORKLOADS.join(", ")
        )),
    }
}
