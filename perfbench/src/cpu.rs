//! `cpu_arm_collide`: offline batches of `copred_swexec::run_cpu` with
//! prediction on and 2 threads, one batch per arm planning query (its
//! motions against its scene). The only workload that runs forward
//! kinematics and OBB-vs-environment tests.
//!
//! The traced pass replays Algorithm 1 single-threaded from the
//! benchmark's own code — `Robot::fk`, `CoordHash::code`,
//! `ConcurrentCht::predict`/`observe`, `Environment::obb_collides` — and
//! records the calls, then times each layer's recorded calls in a loop of
//! their own, so no clock read sits inside a 30 ns call.

use crate::inputs::{arm_queries, Query};
use crate::report::{EndToEnd, Layers};
use crate::stats::ratio;
use crate::{Ctx, Outcome, SETUP_REPS};
use copred_bench::RobotKind;
use copred_core::hash::CollisionHash;
use copred_core::{ChtParams, CoordHash, HashInput};
use copred_geometry::{Obb, Vec3};
use copred_kinematics::{Config, Robot};
use copred_swexec::{run_cpu, ConcurrentCht, CpuExecConfig};
use std::hint::black_box;
use std::time::Instant;

const CPU_PER_COMBO: usize = 100;
const CPU_THREADS: usize = 2;
/// Latency limit on one batch (one query's motions).
const CPU_SLO_MS: f64 = 100.0;
/// Largest |sum of layer times − untraced CPU time| / untraced per check.
/// The layer loops run each layer alone, with warm caches and no thread
/// start-up, so they account for less than the two-thread run spends.
const CPU_CONSERVATION_TOL: f64 = 0.5;

struct Batch {
    robot: usize,
    query: Query,
    motions: Vec<Vec<Config>>,
    /// Ground truth: motions whose trace holds a colliding CDQ.
    colliding: u64,
}

fn config(seed: u64, prediction: bool) -> CpuExecConfig {
    CpuExecConfig {
        n_threads: CPU_THREADS,
        with_prediction: prediction,
        cht_params: ChtParams::paper_arm(),
        seed,
    }
}

fn make_batches(seed: u64) -> Vec<Batch> {
    arm_queries(seed, CPU_PER_COMBO)
        .into_iter()
        .map(|query| Batch {
            robot: usize::from(query.kind == RobotKind::Baxter),
            motions: query
                .trace
                .motions
                .iter()
                .map(|m| m.poses.clone())
                .collect(),
            colliding: query.trace.motions.iter().filter(|m| m.colliding()).count() as u64,
            query,
        })
        .collect()
}

/// Calls of each layer recorded by the single-threaded replica.
#[derive(Default)]
struct Tally {
    motions: u64,
    fk_calls: u64,
    codes: u64,
    predicts: u64,
    cdqs: u64,
    obstacle_tests: u64,
    observes: u64,
    fk_ns: f64,
    code_ns: f64,
    predict_ns: f64,
    env_ns: f64,
    observe_ns: f64,
    replica_ns: f64,
}

fn elapsed_ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// One executed CDQ of the replica: environment test, then CHT update.
#[allow(clippy::too_many_arguments)]
fn execute(
    env: &copred_collision::Environment,
    cht: &ConcurrentCht,
    rand01: &mut impl FnMut() -> f64,
    obb: Obb,
    code: u64,
    env_in: &mut Vec<Obb>,
    observe_in: &mut Vec<(u64, bool, f64)>,
    t: &mut Tally,
) -> bool {
    let (c, tests) = env.obb_collides_with_cost(&obb);
    env_in.push(obb);
    t.obstacle_tests += tests as u64;
    let u = rand01();
    cht.observe(code, c, u);
    observe_in.push((code, c, u));
    c
}

/// Algorithm 1 exactly as `run_cpu` runs it per motion, on one thread,
/// recording every layer call; then each layer's calls timed in a loop.
fn replica(robot: &Robot, b: &Batch, seed: u64, t: &mut Tally) {
    let env = &b.query.env;
    let hash = CoordHash::paper_default(robot);
    let cht = ConcurrentCht::new(ChtParams::paper_arm());
    let mut state = seed | 1;
    let mut rand01 = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut fk_in: Vec<&Config> = Vec::new();
    let mut code_in: Vec<(&Config, Vec3)> = Vec::new();
    let mut predict_in: Vec<u64> = Vec::new();
    let mut env_in: Vec<Obb> = Vec::new();
    let mut observe_in: Vec<(u64, bool, f64)> = Vec::new();
    let start = Instant::now();
    for poses in &b.motions {
        let mut queue: Vec<(usize, Vec3, Obb)> = Vec::new();
        let mut hit = false;
        'outer: for (pi, q) in poses.iter().enumerate() {
            let pose = robot.fk(q);
            fk_in.push(q);
            for link in &pose.links {
                code_in.push((q, link.center));
                let code = hash.code(&HashInput {
                    config: q,
                    center: link.center,
                });
                predict_in.push(code);
                if cht.predict(code) {
                    if execute(
                        env,
                        &cht,
                        &mut rand01,
                        link.obb,
                        code,
                        &mut env_in,
                        &mut observe_in,
                        t,
                    ) {
                        hit = true;
                        break 'outer;
                    }
                } else {
                    queue.push((pi, link.center, link.obb));
                }
            }
        }
        if !hit {
            for (pi, center, obb) in queue {
                code_in.push((&poses[pi], center));
                let code = hash.code(&HashInput {
                    config: &poses[pi],
                    center,
                });
                if execute(
                    env,
                    &cht,
                    &mut rand01,
                    obb,
                    code,
                    &mut env_in,
                    &mut observe_in,
                    t,
                ) {
                    break;
                }
            }
        }
    }
    t.replica_ns += elapsed_ns(start);
    t.motions += b.motions.len() as u64;
    t.fk_calls += fk_in.len() as u64;
    t.codes += code_in.len() as u64;
    t.predicts += predict_in.len() as u64;
    t.cdqs += env_in.len() as u64;
    t.observes += observe_in.len() as u64;

    let s = Instant::now();
    for q in &fk_in {
        black_box(robot.fk(q));
    }
    t.fk_ns += elapsed_ns(s);
    let s = Instant::now();
    for &(config, center) in &code_in {
        black_box(hash.code(&HashInput { config, center }));
    }
    t.code_ns += elapsed_ns(s);
    let s = Instant::now();
    for &code in &predict_in {
        black_box(cht.predict(code));
    }
    t.predict_ns += elapsed_ns(s);
    let s = Instant::now();
    for obb in &env_in {
        black_box(env.obb_collides(obb));
    }
    t.env_ns += elapsed_ns(s);
    let fresh = ConcurrentCht::new(ChtParams::paper_arm());
    let s = Instant::now();
    for &(code, c, u) in &observe_in {
        black_box(fresh.observe(code, c, u));
    }
    t.observe_ns += elapsed_ns(s);
}

pub fn cpu_arm_collide(ctx: &Ctx) -> Result<Outcome, String> {
    let mut errors = Vec::new();
    let robots: [Robot; 2] = [RobotKind::Kuka.robot(), RobotKind::Baxter.robot()];
    let mut times = Vec::new();
    let mut batches = Vec::new();
    for _ in 0..SETUP_REPS {
        batches.clear();
        let t = Instant::now();
        batches = make_batches(ctx.seed);
        for b in batches.iter().take(2) {
            black_box(run_cpu(
                &robots[b.robot],
                &b.query.env,
                &b.motions,
                &config(b.query.seed, true),
            ));
        }
        times.push(t.elapsed().as_secs_f64());
    }
    let mut out = Outcome::default();
    let mut e = EndToEnd {
        setup_s: crate::stats::median(&times),
        ..EndToEnd::default()
    };
    let window = if ctx.traced {
        ctx.window / 2
    } else {
        ctx.window
    };
    let (mut wall_ns, mut cdqs, mut checks) = (0.0, 0u64, 0u64);
    let start = Instant::now();
    for b in batches.iter().cycle() {
        if start.elapsed() >= window {
            break;
        }
        let t = Instant::now();
        let r = run_cpu(
            &robots[b.robot],
            &b.query.env,
            &b.motions,
            &config(b.query.seed, true),
        );
        let ns = elapsed_ns(t);
        wall_ns += ns;
        let n = b.motions.len() as u64;
        e.attempted += n;
        e.slo_requests += 1;
        if r.colliding_motions != b.colliding {
            errors.push(format!(
                "run_cpu found {} colliding motions, ground truth {}",
                r.colliding_motions, b.colliding
            ));
            e.failed += n;
            continue;
        }
        let done = start.elapsed().as_secs_f64();
        checks += n;
        cdqs += r.cdqs_executed;
        e.checks.push((done, ns / 1e3 / n as f64, n));
        e.queries.push((done, ns / 1e6));
        e.slo_met += u64::from(ns / 1e6 <= CPU_SLO_MS);
    }
    e.elapsed_s = start.elapsed().as_secs_f64();
    e.cdqs_per_check = ratio(cdqs as f64, checks as f64);
    e.peak_rss_mb = crate::child::peak_rss_mb("/proc/self/status");
    out.attempted = e.attempted;
    out.failed = e.failed;
    if !ctx.traced {
        out.metrics = e.metrics();
        out.errors = errors;
        return Ok(out);
    }

    let untraced_ns = ratio(wall_ns * CPU_THREADS as f64, checks as f64);
    let mut t = Tally::default();
    let (mut pred_cdqs, mut naive_cdqs) = (0u64, 0u64);
    let start = Instant::now();
    for b in batches.iter().cycle() {
        if start.elapsed() >= window {
            break;
        }
        let robot = &robots[b.robot];
        replica(robot, b, b.query.seed, &mut t);
        pred_cdqs +=
            run_cpu(robot, &b.query.env, &b.motions, &config(b.query.seed, true)).cdqs_executed;
        let naive = run_cpu(
            robot,
            &b.query.env,
            &b.motions,
            &config(b.query.seed, false),
        );
        naive_cdqs += naive.cdqs_executed;
        out.attempted += b.motions.len() as u64;
        if naive.colliding_motions != b.colliding {
            errors.push("naive run_cpu disagrees with the ground truth".into());
            out.failed += b.motions.len() as u64;
        }
    }
    let m = t.motions as f64;
    let l = Layers {
        fk_ns_per_pose: ratio(t.fk_ns, t.fk_calls as f64),
        fk_calls_per_check: ratio(t.fk_calls as f64, m),
        env_ns_per_cdq: ratio(t.env_ns, t.cdqs as f64),
        env_obstacle_tests_per_cdq: ratio(t.obstacle_tests as f64, t.cdqs as f64),
        hash_code_ns: ratio(t.code_ns, t.codes as f64),
        cht_predict_ns: ratio(t.predict_ns, t.predicts as f64),
        cht_observe_ns: ratio(t.observe_ns, t.observes as f64),
        cdq_saved_frac: 1.0 - ratio(pred_cdqs as f64, naive_cdqs as f64),
        tracing_overhead_frac: (ratio(t.replica_ns, m) - untraced_ns) / untraced_ns,
        samples: t.motions as usize,
        ..Layers::default()
    };
    let sum_ns = ratio(
        t.fk_ns + t.code_ns + t.predict_ns + t.env_ns + t.observe_ns,
        m,
    );
    let l = Layers {
        conservation_err_frac: (sum_ns - untraced_ns).abs() / untraced_ns,
        ..l
    };
    eprintln!(
        "conservation: layers sum to {sum_ns:.1} ns per check, untraced {CPU_THREADS}-thread CPU time {untraced_ns:.1} ns per check, error {:.4} (tolerance {CPU_CONSERVATION_TOL})",
        l.conservation_err_frac
    );
    if l.conservation_err_frac > CPU_CONSERVATION_TOL {
        errors.push(format!(
            "conservation: layers sum to {sum_ns:.1} ns per check, untraced is {untraced_ns:.1} ns"
        ));
    }
    out.metrics = l.metrics();
    out.errors = errors;
    Ok(out)
}
