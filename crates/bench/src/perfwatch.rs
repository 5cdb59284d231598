//! The canonical seeded benchmark suite behind the `copred_bench` binary:
//! schedule CDQ-reduction on planner workloads, swexec CPU/GPU replay,
//! loopback server latency from the service's `LatencyHistogram`, and
//! `AccelSim` cycles/energy/perf-per-watt — emitted as a
//! [`copred_obs::BenchReport`] (`BENCH_<label>.json`) so every run joins
//! the repo's machine-readable benchmark trajectory.
//!
//! Deterministic metrics (counts, simulated cycles, modeled energy) are
//! measured once and must reproduce bit-identically under a fixed seed;
//! wall-clock metrics run `reps` times and report median/mean/stddev.

use crate::replay::{replay_coord, replay_schedule};
use crate::workloads::{planner_traces, planner_traces_with_scenes, Algo, Combo, RobotKind, Scale};
use copred_accel::{
    accel_prom_page, perf_report, stall_profile, AccelConfig, AccelObserver, AccelRunResult,
    AccelSim, AreaModel, EnergyModel,
};
use copred_collision::{Environment, Schedule};
use copred_core::{ChtParams, CoordHash};
use copred_geometry::{Aabb, Vec3};
use copred_kinematics::{presets, Config, Motion, Robot};
use copred_obs::{BenchRecord, BenchReport, Better};
use copred_planners::{MotionRecord, PlanLog, Stage};
use copred_service::protocol::{Request, Response, SchedMode};
use copred_service::{Server, ServerConfig};
use copred_swexec::{run_cpu, run_gpu_model, CpuExecConfig, GpuModelParams, MOTION_LANES};
use copred_trace::{MotionTrace, QueryTrace};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What one `copred_bench` invocation measures.
#[derive(Debug, Clone)]
pub struct PerfwatchConfig {
    /// Run label — lands in the report header and the default file name.
    pub label: String,
    /// Workload seed; same seed ⇒ byte-identical deterministic metrics.
    pub seed: u64,
    /// Repetitions for wall-clock metrics.
    pub reps: usize,
    /// `quick` (CI-sized) or `full` workloads.
    pub quick: bool,
}

impl PerfwatchConfig {
    /// The CI-sized suite (seconds, offline).
    pub fn quick() -> Self {
        PerfwatchConfig {
            label: "quick".to_string(),
            seed: 42,
            reps: 3,
            quick: true,
        }
    }

    /// The larger nightly-sized suite.
    pub fn full() -> Self {
        PerfwatchConfig {
            label: "full".to_string(),
            seed: 42,
            reps: 5,
            quick: false,
        }
    }

    /// Scale name recorded in the report header.
    pub fn scale_name(&self) -> &'static str {
        if self.quick {
            "quick"
        } else {
            "full"
        }
    }

    fn planner_scale(&self) -> Scale {
        Scale {
            queries: if self.quick { 3 } else { 8 },
            ..Scale::quick()
        }
    }

    fn schedule_combos(&self) -> Vec<Combo> {
        let planar = |algo| Combo {
            algo,
            robot: RobotKind::Planar2d,
        };
        if self.quick {
            vec![planar(Algo::Mpnet), planar(Algo::Gnnmp)]
        } else {
            vec![
                planar(Algo::Mpnet),
                planar(Algo::Gnnmp),
                planar(Algo::BitStar),
                Combo {
                    algo: Algo::Mpnet,
                    robot: RobotKind::Baxter,
                },
            ]
        }
    }

    fn sim_motions(&self) -> usize {
        if self.quick {
            60
        } else {
            300
        }
    }
}

/// The short git SHA of the working tree, or `unknown` outside a checkout
/// (git SHAs are run provenance, never compared by the baseline checker).
pub fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A fixed seeded planar workload shared by the swexec and accel suites:
/// random motions against two obstacles, with ground-truth collision
/// labels, as both raw pose lists and CDQ traces.
fn sim_workload(n: usize, seed: u64) -> (Robot, Environment, Vec<MotionTrace>) {
    let robot: Robot = presets::planar_2d().into();
    // Dense enough that roughly half the motions collide: the COPU design
    // point is collision-heavy planner traffic (early exit pays there).
    let env = Environment::new(
        robot.workspace(),
        vec![
            Aabb::new(Vec3::new(0.1, -1.0, -0.1), Vec3::new(0.5, 0.6, 0.1)),
            Aabb::new(Vec3::new(-0.7, -0.3, -0.1), Vec3::new(-0.4, 0.0, 0.1)),
            Aabb::new(Vec3::new(-0.2, 0.55, -0.1), Vec3::new(0.2, 0.9, 0.1)),
            Aabb::new(Vec3::new(-1.0, -0.9, -0.1), Vec3::new(-0.5, -0.6, 0.1)),
            Aabb::new(Vec3::new(0.6, -0.6, -0.1), Vec3::new(0.95, -0.2, 0.1)),
        ],
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let records: Vec<MotionRecord> = (0..n)
        .map(|_| {
            let poses = Motion::new(
                robot.sample_uniform(&mut rng),
                robot.sample_uniform(&mut rng),
            )
            .discretize(24);
            let colliding = copred_collision::motion_collides(&robot, &env, &poses);
            MotionRecord {
                poses,
                stage: Stage::Explore,
                colliding,
            }
        })
        .collect();
    let trace = QueryTrace::from_log(&robot, &env, &PlanLog { records });
    (robot, env, trace.motions)
}

/// Runs the full suite and returns the report (no file I/O).
pub fn run_suites(cfg: &PerfwatchConfig) -> BenchReport {
    let mut report = BenchReport::new(&cfg.label, &git_sha(), cfg.seed, cfg.scale_name());
    schedule_suite(cfg, &mut report.records);
    swexec_suite(cfg, &mut report.records);
    service_suite(cfg, &mut report.records);
    fleet_suite(cfg, &mut report.records);
    store_suite(cfg, &mut report.records);
    accel_suite(cfg, &mut report.records);
    profile_suite(cfg, &mut report.records);
    report
}

/// Schedule suite: CDQ counts of the reference schedules and software
/// COORD on planner-generated workloads — the paper's Fig. 15 axis.
fn schedule_suite(cfg: &PerfwatchConfig, out: &mut Vec<BenchRecord>) {
    let scale = cfg.planner_scale();
    for combo in cfg.schedule_combos() {
        let traces = planner_traces(&combo, &scale, cfg.seed);
        let robot = combo.robot.robot();
        let hash = CoordHash::paper_default(&robot);
        let cht = match combo.robot {
            RobotKind::Planar2d => ChtParams::paper_2d(),
            _ => ChtParams::paper_arm(),
        };
        let mut naive = 0u64;
        let mut csp = 0u64;
        let mut coord = 0u64;
        for t in &traces {
            naive += replay_schedule(t, Schedule::Naive);
            csp += replay_schedule(t, Schedule::csp_default());
            coord += replay_coord(t, &hash, cht, cfg.seed);
        }
        let label = combo.label();
        out.push(BenchRecord::deterministic(
            "schedule",
            &format!("{label}_cdqs_naive"),
            naive as f64,
            "cdqs",
            Better::Lower,
        ));
        out.push(BenchRecord::deterministic(
            "schedule",
            &format!("{label}_cdqs_csp"),
            csp as f64,
            "cdqs",
            Better::Lower,
        ));
        out.push(BenchRecord::deterministic(
            "schedule",
            &format!("{label}_cdqs_coord"),
            coord as f64,
            "cdqs",
            Better::Lower,
        ));
        out.push(BenchRecord::deterministic(
            "schedule",
            &format!("{label}_coord_saved_vs_csp"),
            1.0 - coord as f64 / csp.max(1) as f64,
            "fraction",
            Better::Higher,
        ));
    }
}

/// A fixed seeded KUKA iiwa workload for the swexec suite: random motions
/// against four boxes around the arm. It is the suite's only replay whose
/// check path runs DH forward kinematics and 3-axis COORD codes.
fn arm_workload(n: usize, seed: u64) -> (Robot, Environment, Vec<Vec<Config>>) {
    let robot: Robot = presets::kuka_iiwa().into();
    let boxes = [
        (Vec3::new(0.45, 0.0, 0.45), Vec3::new(0.12, 0.25, 0.1)),
        (Vec3::new(-0.3, 0.4, 0.6), Vec3::splat(0.12)),
        (Vec3::new(0.0, -0.5, 0.25), Vec3::new(0.2, 0.08, 0.25)),
        (Vec3::new(-0.4, -0.3, 0.9), Vec3::new(0.1, 0.1, 0.15)),
    ];
    let env = Environment::new(
        robot.workspace(),
        boxes
            .iter()
            .map(|&(c, h)| Aabb::from_center_half_extents(c, h))
            .collect(),
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let motions = (0..n)
        .map(|_| {
            Motion::new(
                robot.sample_uniform(&mut rng),
                robot.sample_uniform(&mut rng),
            )
            .discretize(16)
        })
        .collect();
    (robot, env, motions)
}

/// Swexec suite: software-executor CDQ counts (deterministic at one
/// thread; the multithreaded interleaving is not) plus wall-clock replay
/// throughput, and the modeled GPU executor.
fn swexec_suite(cfg: &PerfwatchConfig, out: &mut Vec<BenchRecord>) {
    let (robot, env, motions) = sim_workload(cfg.sim_motions(), cfg.seed);
    let poses: Vec<Vec<copred_kinematics::Config>> =
        motions.iter().map(|m| m.poses.clone()).collect();

    // Deterministic: single-threaded CPU replay (shared-CHT interleaving
    // makes multi-threaded CDQ counts run-dependent).
    let det = run_cpu(
        &robot,
        &env,
        &poses,
        &CpuExecConfig {
            n_threads: 1,
            with_prediction: true,
            cht_params: ChtParams::paper_2d(),
            seed: cfg.seed,
        },
    );
    out.push(BenchRecord::deterministic(
        "swexec",
        "cpu_cdqs_1t",
        det.cdqs_executed as f64,
        "cdqs",
        Better::Lower,
    ));
    out.push(BenchRecord::deterministic(
        "swexec",
        "cpu_colliding_motions",
        det.colliding_motions as f64,
        "motions",
        Better::Higher,
    ));
    let (arm, arm_env, arm_motions) = arm_workload(cfg.sim_motions(), cfg.seed);
    let arm_det = run_cpu(
        &arm,
        &arm_env,
        &arm_motions,
        &CpuExecConfig {
            n_threads: 1,
            with_prediction: true,
            cht_params: ChtParams::paper_arm(),
            seed: cfg.seed,
        },
    );
    out.push(BenchRecord::deterministic(
        "swexec",
        "cpu_arm_cdqs_1t",
        arm_det.cdqs_executed as f64,
        "cdqs",
        Better::Lower,
    ));

    // Timing: multithreaded replay throughput.
    let samples: Vec<f64> = (0..cfg.reps)
        .map(|_| {
            let r = run_cpu(
                &robot,
                &env,
                &poses,
                &CpuExecConfig {
                    n_threads: 4,
                    with_prediction: true,
                    cht_params: ChtParams::paper_2d(),
                    seed: cfg.seed,
                },
            );
            poses.len() as f64 / r.wall_time.as_secs_f64().max(1e-9)
        })
        .collect();
    out.push(BenchRecord::timing(
        "swexec",
        "cpu_motions_per_s_4t",
        &samples,
        "motions_per_s",
        Better::Higher,
    ));

    // Deterministic: the GPU analytic model (counts and modeled time).
    let gpu_pred = run_gpu_model(
        &motions,
        MOTION_LANES,
        true,
        &GpuModelParams::default(),
        ChtParams::paper_2d(),
        cfg.seed,
    );
    let gpu_base = run_gpu_model(
        &motions,
        MOTION_LANES,
        false,
        &GpuModelParams::default(),
        ChtParams::paper_2d(),
        cfg.seed,
    );
    out.push(BenchRecord::deterministic(
        "swexec",
        "gpu_cdqs_64t",
        gpu_pred.cdqs as f64,
        "cdqs",
        Better::Lower,
    ));
    out.push(BenchRecord::deterministic(
        "swexec",
        "gpu_modeled_time_64t",
        gpu_pred.time,
        "model_units",
        Better::Lower,
    ));
    out.push(BenchRecord::deterministic(
        "swexec",
        "gpu_cdqs_saved_frac",
        1.0 - gpu_pred.cdqs as f64 / gpu_base.cdqs.max(1) as f64,
        "fraction",
        Better::Higher,
    ));
}

/// The committed canonical quick service workload: an MPNet-2D coord run
/// recorded by `copred_loadgen` (connections=1, so the op order is total
/// and replay is bit-deterministic), sanitized with `copred_replay
/// sanitize`. Regenerate with the commands in `workloads/README.md`.
const SERVICE_QUICK_LOG: &[u8] = include_bytes!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../workloads/service_quick.cprlog"
));

/// Service suite: the committed `workloads/service_quick.cprlog` op-log
/// replayed (sequential mode) against a fresh loopback server per
/// repetition, so the perf gate measures the service on a byte-stable
/// workload instead of one regenerated from planners each run.
/// p50/p95/p99 come from the server's own `LatencyHistogram` (the metric
/// the `/metrics` page exports).
fn service_suite(cfg: &PerfwatchConfig, out: &mut Vec<BenchRecord>) {
    let log = copred_replay::read_log(SERVICE_QUICK_LOG).expect("committed service log parses");
    assert!(log.complete, "committed service log must be sealed");
    let mut p50 = Vec::new();
    let mut p95 = Vec::new();
    let mut p99 = Vec::new();
    let mut throughput = Vec::new();
    let mut cdqs_issued = 0u64;
    let mut checks = 0u64;
    for rep in 0..cfg.reps.max(1) {
        let mut backend = copred_replay::LoopbackBackend::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        })
        .expect("start loopback server");
        // Comparison off: bit-identity is the replay-gate's job; the perf
        // gate only times the run (counters still land in the baseline,
        // so a semantic change is caught as a deterministic diff there).
        let opts = copred_replay::ReplayOptions {
            mode: copred_replay::ReplayMode::Sequential,
            compare: false,
            trace_seed: None,
        };
        let r = copred_replay::run_replay(&log, &mut backend, &opts).expect("loopback replay");
        let server = backend.server().expect("owned server");
        let hist = &server.metrics().check_latency;
        p50.push(hist.quantile(0.5).unwrap_or(0) as f64);
        p95.push(hist.quantile(0.95).unwrap_or(0) as f64);
        p99.push(hist.quantile(0.99).unwrap_or(0) as f64);
        throughput.push(r.checks_per_sec());
        if rep == 0 {
            cdqs_issued = r.totals.cdqs_issued;
            checks = r.totals.checks;
        }
    }
    out.push(BenchRecord::deterministic(
        "service",
        "loopback_cdqs_issued",
        cdqs_issued as f64,
        "cdqs",
        Better::Lower,
    ));
    out.push(BenchRecord::deterministic(
        "service",
        "loopback_checks",
        checks as f64,
        "checks",
        Better::Higher,
    ));
    let (req_bytes, resp_bytes) = wire_bytes_per_check(&log);
    out.push(BenchRecord::deterministic(
        "service",
        "req_bytes_per_check",
        req_bytes,
        "bytes",
        Better::Lower,
    ));
    out.push(BenchRecord::deterministic(
        "service",
        "resp_bytes_per_check",
        resp_bytes,
        "bytes",
        Better::Lower,
    ));
    out.push(BenchRecord::timing(
        "service",
        "loopback_p50_ns",
        &p50,
        "ns",
        Better::Lower,
    ));
    out.push(BenchRecord::timing(
        "service",
        "loopback_p95_ns",
        &p95,
        "ns",
        Better::Lower,
    ));
    out.push(BenchRecord::timing(
        "service",
        "loopback_p99_ns",
        &p99,
        "ns",
        Better::Lower,
    ));
    out.push(BenchRecord::timing(
        "service",
        "loopback_checks_per_s",
        &throughput,
        "checks_per_s",
        Better::Higher,
    ));
}

/// Payload bytes per check of the log's check requests and their
/// responses, each decoded and re-encoded by the current codec: a
/// deterministic pin on the wire format, so an encoder that writes one
/// byte differently moves it.
fn wire_bytes_per_check(log: &copred_replay::ReplayLog) -> (f64, f64) {
    let (mut req, mut resp, mut checks) = (0, 0, 0);
    for rec in &log.records {
        let request = Request::from_text(&rec.request).expect("recorded request parses");
        checks += match &request {
            Request::CheckMotion { motions, .. } => motions.len(),
            Request::CheckPose { .. } => 1,
            _ => continue,
        };
        let response = Response::from_text(&rec.response).expect("recorded response parses");
        req += request.to_text().len();
        resp += response.to_text().len();
    }
    (req as f64 / checks as f64, resp as f64 / checks as f64)
}

/// Fleet suite: the committed quick service workload replayed through a
/// 2-backend fleet (rendezvous routing, router-owned session ids) and a
/// single in-process node. Deterministic records pin the fleet's
/// aggregates and its response-for-response equality with the single
/// node; the timing record watches routed throughput, whose overhead vs
/// `service/loopback_checks_per_s` is the cost of the extra hop.
fn fleet_suite(cfg: &PerfwatchConfig, out: &mut Vec<BenchRecord>) {
    let log = copred_replay::read_log(SERVICE_QUICK_LOG).expect("committed service log parses");
    let opts = copred_replay::ReplayOptions {
        mode: copred_replay::ReplayMode::Sequential,
        compare: false,
        trace_seed: None,
    };
    let mut single = copred_replay::InProcessBackend::with_server_defaults();
    let single_run =
        copred_replay::run_replay(&log, &mut single, &opts).expect("single-node replay");
    let mut throughput = Vec::new();
    let mut cdqs_issued = 0u64;
    let mut checks = 0u64;
    let mut matches_single = true;
    for rep in 0..cfg.reps.max(1) {
        let mut fleet = copred_fleet::FleetBackend::start(2).expect("start fleet");
        let r = copred_replay::run_replay(&log, &mut fleet, &opts).expect("fleet replay");
        throughput.push(r.checks_per_sec());
        if rep == 0 {
            cdqs_issued = r.totals.cdqs_issued;
            checks = r.totals.checks;
            matches_single = r.responses == single_run.responses;
        }
    }
    out.push(BenchRecord::deterministic(
        "fleet",
        "fleet_cdqs_issued",
        cdqs_issued as f64,
        "cdqs",
        Better::Lower,
    ));
    out.push(BenchRecord::deterministic(
        "fleet",
        "fleet_checks",
        checks as f64,
        "checks",
        Better::Higher,
    ));
    out.push(BenchRecord::deterministic(
        "fleet",
        "fleet_matches_single",
        f64::from(matches_single),
        "bool",
        Better::Higher,
    ));
    out.push(BenchRecord::timing(
        "fleet",
        "fleet_checks_per_s",
        &throughput,
        "checks_per_s",
        Better::Higher,
    ));
}

/// Store suite: the persistence payoff — one fingerprinted planner
/// workload replayed twice against a store-enabled loopback server. The
/// first (cold) pass learns and persists each session's CHT on close; the
/// second (warm) pass reopens the same fingerprints and must issue fewer
/// CDQs. Single connection so sessions run one at a time and both passes
/// are deterministic.
fn store_suite(cfg: &PerfwatchConfig, out: &mut Vec<BenchRecord>) {
    let combo = Combo {
        algo: Algo::Mpnet,
        robot: RobotKind::Planar2d,
    };
    let pairs = planner_traces_with_scenes(&combo, &cfg.planner_scale(), cfg.seed);
    let robot = combo.robot.robot();
    let fingerprints: Vec<u64> = pairs
        .iter()
        .map(|(_t, env)| copred_store::environment_fingerprint(&robot, env))
        .collect();
    let traces: Vec<QueryTrace> = pairs.into_iter().map(|(t, _env)| t).collect();

    // A fresh directory per call: `run_suites` may run twice in-process
    // (the determinism test), and warm state leaking between calls would
    // change the "cold" pass.
    static STORE_DIR_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "copred-bench-store-{}-{}",
        std::process::id(),
        STORE_DIR_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let mut server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        store_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    })
    .expect("start store-enabled server");
    let log = copred_replay::trace_log(
        &traces,
        SchedMode::Coord,
        cfg.seed,
        8,
        Some(&fingerprints),
        false,
    );
    let pass = || {
        let mut client =
            copred_replay::LoopbackBackend::connect(server.local_addr()).expect("connect");
        let opts = copred_replay::ReplayOptions {
            compare: false,
            ..copred_replay::ReplayOptions::default()
        };
        let r = copred_replay::run_replay(&log, &mut client, &opts).expect("store replay");
        assert_eq!(r.backend_errors, 0, "store replay answered an error");
        let warm_opens = r
            .responses
            .iter()
            .filter(|r| r.starts_with("ok session _ warm 1"))
            .count();
        (r.totals, warm_opens)
    };
    let (cold, cold_warm_opens) = pass();
    let (warm, warm_opens) = pass();
    assert_eq!(cold_warm_opens, 0, "first pass must start cold");
    assert_eq!(
        warm_opens,
        traces.len(),
        "second pass must warm-start every session"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    out.push(BenchRecord::deterministic(
        "store",
        "warm_cold_cdqs",
        cold.cdqs_issued as f64,
        "cdqs",
        Better::Lower,
    ));
    out.push(BenchRecord::deterministic(
        "store",
        "warm_warm_cdqs",
        warm.cdqs_issued as f64,
        "cdqs",
        Better::Lower,
    ));
    out.push(BenchRecord::deterministic(
        "store",
        "warm_cdq_reduction",
        1.0 - warm.cdqs_issued as f64 / cold.cdqs_issued.max(1) as f64,
        "fraction",
        Better::Higher,
    ));
}

/// Accel suite: cycle-level simulation of the baseline accelerator vs the
/// COPU configuration — cycles, CDQs, energy, perf/watt, and the busy
/// fraction from the per-cycle stall attribution.
fn accel_suite(cfg: &PerfwatchConfig, out: &mut Vec<BenchRecord>) {
    // Planner traffic, not uniform-random motions: the COPU design point is
    // correlated, collision-heavy CDQ streams (same workload family as
    // Fig. 15, paper CDU count).
    let combo = Combo {
        algo: Algo::Mpnet,
        robot: RobotKind::Planar2d,
    };
    let traces = planner_traces(&combo, &cfg.planner_scale(), cfg.seed.wrapping_add(1));
    let robot = combo.robot.robot();
    let em = EnergyModel::default();
    let am = AreaModel::default();
    // §VI-B2 performance CHT (1-bit counters, most-aggressive strategy,
    // U = 0) — the configuration the paper's speedup numbers use; sized for
    // the 2D C-space.
    let cht = ChtParams {
        bits: 10,
        ..ChtParams::paper_1bit()
    };

    // Per-query runs with history reset, like the figure harnesses: the
    // paper measures per-query latency, and the CHT must not carry state
    // across planning queries.
    let mut base = AccelSim::new(AccelConfig::baseline(7), CoordHash::paper_default(&robot));
    let mut copu = AccelSim::new(AccelConfig::copu(7, cht), CoordHash::paper_default(&robot));
    let mut obs = AccelObserver::new();
    let mut rb = AccelRunResult::default();
    let mut rc = AccelRunResult::default();
    for t in &traces {
        base.reset_query();
        let r = base.run_query(&t.motions);
        rb.motions += r.motions;
        rb.colliding_motions += r.colliding_motions;
        rb.total_cycles += r.total_cycles;
        rb.events.merge(&r.events);

        copu.reset_query();
        let r = copu.run_query_observed(&t.motions, &mut obs);
        rc.motions += r.motions;
        rc.colliding_motions += r.colliding_motions;
        rc.total_cycles += r.total_cycles;
        rc.events.merge(&r.events);
    }
    let pb = perf_report(&base, &rb, &em, &am);
    let pc = perf_report(&copu, &rc, &em, &am);

    out.push(BenchRecord::deterministic(
        "accel",
        "baseline_cycles",
        rb.total_cycles as f64,
        "cycles",
        Better::Lower,
    ));
    out.push(BenchRecord::deterministic(
        "accel",
        "copu_cycles",
        rc.total_cycles as f64,
        "cycles",
        Better::Lower,
    ));
    out.push(BenchRecord::deterministic(
        "accel",
        "copu_speedup",
        rb.total_cycles as f64 / rc.total_cycles.max(1) as f64,
        "ratio",
        Better::Higher,
    ));
    out.push(BenchRecord::deterministic(
        "accel",
        "copu_cdqs",
        rc.cdqs_executed() as f64,
        "cdqs",
        Better::Lower,
    ));
    out.push(BenchRecord::deterministic(
        "accel",
        "copu_energy_pj",
        pc.energy_pj,
        "pj",
        Better::Lower,
    ));
    out.push(BenchRecord::deterministic(
        "accel",
        "copu_perf_per_watt",
        pc.perf_per_watt,
        "checks_per_mcycle_per_w",
        Better::Higher,
    ));
    out.push(BenchRecord::deterministic(
        "accel",
        "copu_perf_per_watt_vs_baseline",
        pc.perf_per_watt / pb.perf_per_watt.max(f64::MIN_POSITIVE),
        "ratio",
        Better::Higher,
    ));
    out.push(BenchRecord::deterministic(
        "accel",
        "copu_busy_frac",
        obs.stalls.busy as f64 / obs.stalls.total().max(1) as f64,
        "fraction",
        Better::Higher,
    ));
}

/// Profile suite: `copred-profile` coverage both ways. The virtual-clock
/// records fold the accel simulator's per-cycle stall attribution through
/// [`copred_accel::stall_profile`] — fully deterministic under the fixed
/// seed, so the quick baseline pins the bucket→stage mapping and the
/// simulated utilization split. The wall-clock records replay the
/// committed service workload against an in-process server with its
/// sampler running and report what the sampler saw; they are timing kind
/// because sample counts move with the host. (Higher-is-better on the
/// sampler records keeps a fast machine's sparse profile from tripping
/// the gate — only losing the records entirely regresses.)
fn profile_suite(cfg: &PerfwatchConfig, out: &mut Vec<BenchRecord>) {
    // Virtual clock: one seeded COPU run, stall cycles → stage paths.
    let (robot, _env, motions) = sim_workload(cfg.sim_motions(), cfg.seed.wrapping_add(2));
    let mut sim = AccelSim::new(
        AccelConfig::copu(4, ChtParams::paper_2d()),
        CoordHash::paper_default(&robot),
    );
    let mut obs = AccelObserver::new();
    let _ = sim.run_query_observed(&motions, &mut obs);
    let vclock = stall_profile(&obs.stalls);
    let snap = vclock.snapshot();
    let busy = snap
        .stage_fractions
        .iter()
        .find(|(s, _)| *s == "execute")
        .map_or(0.0, |&(_, f)| f);
    out.push(BenchRecord::deterministic(
        "profile",
        "accel_vclock_cycles",
        vclock.samples() as f64,
        "cycles",
        Better::Lower,
    ));
    out.push(BenchRecord::deterministic(
        "profile",
        "accel_vclock_busy_frac",
        busy,
        "fraction",
        Better::Higher,
    ));
    out.push(BenchRecord::deterministic(
        "profile",
        "accel_vclock_queue_wait_frac",
        snap.queue_wait_fraction,
        "fraction",
        Better::Lower,
    ));
    out.push(BenchRecord::deterministic(
        "profile",
        "accel_vclock_paths",
        vclock.folded().lines().count() as f64,
        "paths",
        Better::Higher,
    ));

    // Wall clock: the sampled profile of the committed service workload,
    // read back through the server's own wiring (`Server::profile`).
    let log = copred_replay::read_log(SERVICE_QUICK_LOG).expect("committed service log parses");
    let mut samples_per_rep = Vec::new();
    let mut busy_per_rep = Vec::new();
    for _ in 0..cfg.reps.max(1) {
        let mut backend = copred_replay::LoopbackBackend::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        })
        .expect("start loopback server");
        let opts = copred_replay::ReplayOptions {
            mode: copred_replay::ReplayMode::Sequential,
            compare: false,
            trace_seed: None,
        };
        let _ = copred_replay::run_replay(&log, &mut backend, &opts).expect("loopback replay");
        let profile = backend.server().expect("owned server").profile();
        samples_per_rep.push(profile.samples() as f64);
        let non_idle: f64 = profile
            .snapshot()
            .stage_fractions
            .iter()
            .map(|(_, f)| f)
            .sum();
        busy_per_rep.push(non_idle);
    }
    out.push(BenchRecord::timing(
        "profile",
        "service_sampler_samples",
        &samples_per_rep,
        "samples",
        Better::Higher,
    ));
    out.push(BenchRecord::timing(
        "profile",
        "service_sampler_busy_frac",
        &busy_per_rep,
        "fraction",
        Better::Higher,
    ));
}

/// The accel deep-observability artifacts for one seeded COPU run: the
/// `copred_accel_*` Prometheus page, the per-component energy table, the
/// stall-attribution table, and the simulated-time Chrome trace JSON.
pub fn accel_observability(cfg: &PerfwatchConfig) -> (String, String, String) {
    let (robot, _env, motions) = sim_workload(cfg.sim_motions(), cfg.seed.wrapping_add(1));
    let em = EnergyModel::default();
    let am = AreaModel::default();
    let cht = ChtParams::paper_2d();
    let mut sim = AccelSim::new(AccelConfig::copu(4, cht), CoordHash::paper_default(&robot));
    let mut obs = AccelObserver::with_trace(4);
    let r = sim.run_query_observed(&motions, &mut obs);
    let area = sim.area_mm2(&am, &em);
    let bd = r.energy_breakdown(&em, area, &cht);

    let energy_rows: Vec<Vec<String>> = bd
        .rows()
        .iter()
        .map(|(c, pj)| {
            vec![
                c.to_string(),
                crate::table::num(*pj, 1),
                crate::table::pct(pj / bd.total_pj().max(f64::MIN_POSITIVE)),
            ]
        })
        .collect();
    let energy_table = crate::table::render_table(
        "accel energy breakdown (COPU.4)",
        &["component", "pj", "share"],
        &energy_rows,
    );
    let stall_rows: Vec<Vec<String>> = obs
        .stalls
        .rows()
        .iter()
        .map(|(reason, cycles)| {
            vec![
                reason.to_string(),
                cycles.to_string(),
                crate::table::pct(*cycles as f64 / obs.stalls.total().max(1) as f64),
            ]
        })
        .collect();
    let stall_table = crate::table::render_table(
        "accel stall attribution (COPU.4)",
        &["reason", "cycles", "share"],
        &stall_rows,
    );
    let prom = accel_prom_page(&r, &obs.stalls, &bd);
    let trace_json = obs.trace().expect("trace enabled").to_chrome_json();
    (format!("{energy_table}\n{stall_table}"), prom, trace_json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use copred_obs::MetricKind;

    fn tiny() -> PerfwatchConfig {
        PerfwatchConfig {
            label: "tiny".to_string(),
            seed: 7,
            reps: 1,
            quick: true,
        }
    }

    #[test]
    fn suite_covers_all_subsystems() {
        let report = run_suites(&tiny());
        for suite in [
            "schedule", "swexec", "service", "fleet", "store", "accel", "profile",
        ] {
            assert!(
                report.records.iter().any(|r| r.suite == suite),
                "missing suite {suite}"
            );
        }
        // The persistence payoff the suite gates on: a warm session must
        // issue strictly fewer CDQs than the cold pass on this colliding
        // planner workload.
        let reduction = report
            .record("store", "warm_cdq_reduction")
            .expect("store suite emits warm_cdq_reduction")
            .value;
        assert!(
            reduction > 0.0,
            "warm pass did not reduce CDQs: {reduction}"
        );
        // The sharded fleet must answer the committed workload exactly
        // like one node.
        let fleet_matches = report
            .record("fleet", "fleet_matches_single")
            .expect("fleet suite emits fleet_matches_single")
            .value;
        assert_eq!(fleet_matches, 1.0, "fleet replay diverged from single node");
        // Metric names are unique within a suite.
        let mut keys: Vec<(String, String)> = report
            .records
            .iter()
            .map(|r| (r.suite.clone(), r.metric.clone()))
            .collect();
        keys.sort();
        let n = keys.len();
        keys.dedup();
        assert_eq!(keys.len(), n, "duplicate suite/metric");
    }

    #[test]
    fn deterministic_metrics_reproduce_across_runs() {
        let a = run_suites(&tiny());
        let b = run_suites(&tiny());
        for ra in a
            .records
            .iter()
            .filter(|r| r.kind == MetricKind::Deterministic)
        {
            let rb = b
                .record(&ra.suite, &ra.metric)
                .unwrap_or_else(|| panic!("missing {}/{}", ra.suite, ra.metric));
            assert!(
                ra.value.to_bits() == rb.value.to_bits(),
                "{}/{} not reproducible: {} vs {}",
                ra.suite,
                ra.metric,
                ra.value,
                rb.value
            );
        }
    }

    #[test]
    fn sampled_service_profile_fractions_are_normalized() {
        // Acceptance criterion: on a replay of the committed service
        // workload with a sampler running, per-thread stage fractions sum
        // to ≤ 1.0 (idle is in the denominator) and every sampled frame
        // is a known stage label. A dedicated fast sampler (rather than
        // the server's ~1ms one) keeps this deterministic-ish on fast
        // hosts; a few retries absorb the rest.
        let log = copred_replay::read_log(SERVICE_QUICK_LOG).expect("log parses");
        let opts = copred_replay::ReplayOptions {
            mode: copred_replay::ReplayMode::Sequential,
            compare: false,
            trace_seed: None,
        };
        let mut profile = copred_obs::Profile::default();
        for _ in 0..10 {
            let sampler = copred_obs::Sampler::start(std::time::Duration::from_micros(50));
            let mut backend = copred_replay::LoopbackBackend::start(ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                ..ServerConfig::default()
            })
            .expect("start loopback server");
            copred_replay::run_replay(&log, &mut backend, &opts).expect("replay");
            drop(backend);
            profile = sampler.stop();
            if profile.samples() > 0 && !profile.folded().is_empty() {
                break;
            }
        }
        assert!(profile.samples() > 0, "sampler never ticked");
        assert!(
            !profile.folded().is_empty(),
            "no non-idle stage paths sampled during a whole service replay"
        );
        for (tid, _total, rows) in profile.thread_fractions() {
            let sum: f64 = rows.iter().map(|(_, f)| f).sum();
            assert!(sum <= 1.0 + 1e-9, "thread {tid} fractions sum to {sum}");
        }
        for line in profile.folded().lines() {
            let path = line.rsplit_once(' ').expect("folded line shape").0;
            for frame in path.split(';') {
                assert!(
                    copred_obs::Stage::ALL.iter().any(|s| s.label() == frame),
                    "unknown frame {frame:?}"
                );
            }
        }
    }

    #[test]
    fn accel_observability_artifacts_are_consistent() {
        let (tables, prom, trace) = accel_observability(&tiny());
        assert!(tables.contains("accel energy breakdown"));
        assert!(tables.contains("accel stall attribution"));
        let samples = copred_obs::parse_prometheus(&prom).expect("prom page parses");
        assert!(samples.iter().all(|s| s.name.starts_with("copred_accel_")));
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("cdu0"));
    }
}
