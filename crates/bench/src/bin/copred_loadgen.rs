//! Load generator: captures planner workloads, builds their op stream as
//! data (`copred_replay::trace_log`), drives it over N client connections
//! to a `copred_server` with the replay engine
//! (`copred_replay::run_parallel`: sessions dealt round-robin, each
//! session's ops in order, closed loop), and records the run as a CPRDLOG
//! op-log — the versioned record/replay interchange format
//! (`copred_replay` drives the same log back against any backend).
//!
//! ```text
//! copred_loadgen [key=value ...]
//!   addr=127.0.0.1:7457   server address
//!   combo=MPNet-Baxter    workload (a Fig. 15 combo label)
//!   queries=8             planning queries (sessions) to capture and replay
//!   connections=8         concurrent client connections
//!   mode=coord            coord | naive | csp
//!   batch=8               motions per CHECK_MOTION frame
//!   seed=42               capture seed and base seed of the sessions'
//!                         U-policy streams (deterministic)
//!   oplog=oplog.cprlog    CPRDLOG op-log output path ("-" to skip)
//!   bench_json=bench.json also write the run summary as a perfwatch
//!                         BENCH-schema JSON report (see `copred_bench`)
//!   traceids=1            attach wire trace ids to check batches
//!                         (default on; traceids=0 turns them off)
//!   inproc=1              start the server in this process (addr ignored)
//!   trace=trace.json      write a Chrome trace of the run (implies inproc)
//!   ab=1                  A/B the observability overhead: replay twice
//!                         (obs + profiler sampler off, both on) and
//!                         report p50/p95/p99 deltas (implies inproc)
//!   ab_budget=5           with ab=1: exit 1 when the median per-rep
//!                         p99 overhead exceeds this percentage in all
//!                         of up to 3 rounds (the CI gate)
//!   profile=out.folded    write the server's sampled stage profile as
//!                         flamegraph-compatible folded stacks after the
//!                         run (implies inproc)
//!   warm=1                replay the workload twice against one
//!                         store-enabled server — cold then warm — and
//!                         report both runs (implies inproc; both land in
//!                         bench_json= when set; the op-log records the
//!                         warm pass)
//!   store_dir=DIR         store directory for warm=1 (default: a scratch
//!                         directory wiped at start)
//! ```

use copred_bench::{Combo, Scale};
use copred_replay::{
    run_parallel, trace_log, write_log, LoopbackBackend, ReplayLog, ReplayOptions, ReplayOutcome,
};
use copred_service::protocol::SchedMode;
use copred_service::{Server, ServerConfig};
use copred_trace::QueryTrace;

/// Every key `copred_loadgen` accepts; unknown keys are rejected with
/// this list so a typo never silently no-ops.
const VALID_FLAGS: &[&str] = &[
    "addr",
    "combo",
    "queries",
    "connections",
    "mode",
    "batch",
    "seed",
    "oplog",
    "bench_json",
    "traceids",
    "trace",
    "inproc",
    "ab",
    "ab_budget",
    "warm",
    "store_dir",
    "profile",
];

struct Args {
    addr: String,
    combo: Combo,
    queries: usize,
    connections: usize,
    mode: SchedMode,
    batch: usize,
    /// Capture seed, and base seed of the sessions' `U`-policy streams.
    seed: u64,
    oplog: String,
    bench_json: Option<String>,
    trace_ids: bool,
    trace: Option<String>,
    inproc: bool,
    ab: bool,
    ab_budget: Option<f64>,
    warm: bool,
    store_dir: Option<String>,
    profile: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    parse_args_from(std::env::args().skip(1))
}

/// The testable core of [`parse_args`]: parses an explicit argument
/// list, rejecting unknown keys with the full [`VALID_FLAGS`] list.
fn parse_args_from(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7457".to_string(),
        combo: Combo::paper_six()[0], // MPNet-Baxter
        queries: 8,
        connections: 8,
        mode: SchedMode::Coord,
        batch: 8,
        seed: 42,
        oplog: "oplog.cprlog".to_string(),
        bench_json: None,
        trace_ids: true,
        trace: None,
        inproc: false,
        ab: false,
        ab_budget: None,
        warm: false,
        store_dir: None,
        profile: None,
    };
    for arg in argv {
        let (key, value) = arg
            .split_once('=')
            .ok_or_else(|| format!("expected key=value, got '{arg}'"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad number for {key}: '{value}'"))
        };
        match key {
            "addr" => args.addr = value.to_string(),
            "combo" => {
                args.combo = Combo::paper_six()
                    .into_iter()
                    .find(|c| c.label() == value)
                    .ok_or_else(|| {
                        let known: Vec<String> =
                            Combo::paper_six().iter().map(Combo::label).collect();
                        format!("unknown combo '{value}', one of: {}", known.join(", "))
                    })?;
            }
            "queries" => args.queries = num()? as usize,
            "connections" => args.connections = num()? as usize,
            "mode" => {
                args.mode = SchedMode::parse(value)
                    .ok_or_else(|| format!("bad mode '{value}' (coord|naive|csp)"))?;
            }
            "batch" => args.batch = num()? as usize,
            "seed" => args.seed = num()?,
            "oplog" => args.oplog = value.to_string(),
            "bench_json" => args.bench_json = Some(value.to_string()),
            "traceids" => args.trace_ids = value == "1" || value == "true",
            "trace" => args.trace = Some(value.to_string()),
            "inproc" => args.inproc = value == "1" || value == "true",
            "ab" => args.ab = value == "1" || value == "true",
            "ab_budget" => {
                let pct: f64 = value
                    .parse()
                    .map_err(|_| format!("bad ab_budget '{value}'"))?;
                if !pct.is_finite() || pct <= 0.0 {
                    return Err(format!(
                        "ab_budget must be a positive percentage, got '{value}'"
                    ));
                }
                args.ab_budget = Some(pct);
            }
            "warm" => args.warm = value == "1" || value == "true",
            "store_dir" => args.store_dir = Some(value.to_string()),
            "profile" => args.profile = Some(value.to_string()),
            _ => {
                return Err(format!(
                    "unknown option '{key}' (valid flags: {})",
                    VALID_FLAGS.join(", ")
                ))
            }
        }
    }
    // Worker-side spans only reach this process's recorder when the server
    // runs in-process, the A/B needs a fresh server per arm, the warm
    // replay needs a server whose store it controls, and the profile
    // export reads the in-process server's sampler.
    if args.trace.is_some() || args.ab || args.warm || args.profile.is_some() {
        args.inproc = true;
    }
    if args.ab_budget.is_some() && !args.ab {
        return Err("ab_budget requires ab=1".to_string());
    }
    if args.connections == 0 || args.batch == 0 {
        return Err("connections and batch must be positive".to_string());
    }
    Ok(args)
}

/// Quantile of a sorted slice by nearest-rank; 0 when empty.
fn quantile_ns(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// One driven pass: the engine's outcome plus the `retry_after` rounds
/// its connections absorbed.
struct Run {
    out: ReplayOutcome,
    retries: u64,
}

impl Run {
    /// Sessions the server warm-started from persisted state.
    fn warm_opens(&self) -> usize {
        self.out
            .responses
            .iter()
            .filter(|r| r.starts_with("ok session _ warm 1"))
            .count()
    }
}

/// Sorted per-batch `check_motion` latencies of a pass over `log`.
fn check_latencies(log: &ReplayLog, run: &Run) -> Vec<u64> {
    let mut ns: Vec<u64> = log
        .records
        .iter()
        .zip(&run.out.live)
        .filter(|(rec, _)| rec.verb == "check_motion")
        .map(|(_, op)| op.duration_ns)
        .collect();
    ns.sort_unstable();
    ns
}

/// Drives `log` over `connections` fresh connections to `addr`. An op
/// the server answers with an error fails the run, as does any engine
/// error.
fn drive(log: &ReplayLog, addr: &str, connections: usize) -> Result<Run, String> {
    let mut backends = (0..connections)
        .map(|_| LoopbackBackend::connect(addr))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("connecting to {addr}: {e}"))?;
    let opts = ReplayOptions {
        compare: false,
        ..ReplayOptions::default()
    };
    let out = run_parallel(log, &mut backends, &opts).map_err(|e| e.to_string())?;
    if out.backend_errors > 0 {
        return Err(format!("{} ops answered with an error", out.backend_errors));
    }
    let retries = backends.iter().map(LoopbackBackend::retries).sum();
    Ok(Run { out, retries })
}

/// Drives `log` against a fresh in-process server (or the configured
/// remote address when `inproc` is off). Returns the pass plus the
/// server's sampled stage profile (empty against a remote server, whose
/// sampler this process cannot read).
fn run_arm(
    args: &Args,
    log: &ReplayLog,
    sampler_on: bool,
) -> Result<(Run, copred_obs::Profile), String> {
    if !args.inproc {
        let run = drive(log, &args.addr, args.connections)?;
        return Ok((run, copred_obs::Profile::default()));
    }
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        profile_sampler: sampler_on,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server failed to start: {e}"))?;
    let run = drive(log, &server.local_addr().to_string(), args.connections)?;
    Ok((run, server.profile()))
}

/// Drives the workload twice against one in-process server with
/// persistence enabled: the first pass starts cold and persists each
/// session's CHT on close, the second warm-starts from the store.
fn run_warm(args: &Args, log: &ReplayLog) -> Result<(Run, Run), String> {
    let dir = match &args.store_dir {
        Some(d) => d.clone(),
        None => {
            let d = std::env::temp_dir().join(format!("copred-loadgen-store-{}", args.seed));
            // A scratch store must really start cold.
            let _ = std::fs::remove_dir_all(&d);
            d.to_string_lossy().into_owned()
        }
    };
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        store_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server failed to start: {e}"))?;
    eprintln!("store         {dir}");
    let addr = server.local_addr().to_string();
    let cold = drive(log, &addr, args.connections)?;
    let warm = drive(log, &addr, args.connections)?;
    Ok((cold, warm))
}

/// One full alternating A/B round: `REPS` off/on replay pairs, the off
/// arm driving `logs[0]` and the on arm `logs[1]`. Prints the
/// pooled-quantile table and returns the median of the per-rep p99
/// overhead percentages.
fn ab_round(args: &Args, logs: &[ReplayLog; 2]) -> Result<f64, String> {
    const REPS: usize = 5;
    let mut off_ns = Vec::new();
    let mut on_ns = Vec::new();
    let mut rep_p99_pcts = Vec::new();
    let mut events = 0usize;
    let mut samples = 0u64;
    for rep in 0..REPS {
        let mut rep_p99 = [0u64; 2];
        // a/b on even reps, b/a on odd: drift hits both arms equally.
        for pass in 0..2 {
            let enabled = (rep + pass) % 2 == 1;
            if enabled {
                copred_obs::enable();
            } else {
                copred_obs::disable();
            }
            // The on arm carries wire trace ids (exemplars + flight
            // stamps active) plus the stage sampler; the off arm is the
            // pre-observability baseline.
            let log = &logs[usize::from(enabled)];
            let (run, profile) = run_arm(args, log, enabled)?;
            copred_obs::disable();
            events += copred_obs::drain_events().len();
            let lat = check_latencies(log, &run);
            rep_p99[usize::from(enabled)] = quantile_ns(&lat, 0.99);
            let target = if enabled { &mut on_ns } else { &mut off_ns };
            target.extend(lat);
            samples += profile.samples();
        }
        if rep_p99[0] > 0 {
            rep_p99_pcts.push(100.0 * (rep_p99[1] as f64 - rep_p99[0] as f64) / rep_p99[0] as f64);
        }
    }
    off_ns.sort_unstable();
    on_ns.sort_unstable();
    println!(
        "observability A/B ({} batches per arm over {REPS}x2 alternating replays)",
        off_ns.len()
    );
    println!("quantile      obs_off_ns    obs_on_ns    overhead");
    for (q, label) in [(0.5, "p50"), (0.95, "p95"), (0.99, "p99")] {
        let (a, b) = (quantile_ns(&off_ns, q), quantile_ns(&on_ns, q));
        let pct = if a == 0 {
            0.0
        } else {
            100.0 * (b as f64 - a as f64) / a as f64
        };
        println!("{label:<10} {a:>13} {b:>12}    {pct:+.2}%");
    }
    println!(
        "events        {events} recorded, {} dropped",
        copred_obs::dropped_events()
    );
    println!("samples       {samples} (profiler, on-arm)");
    // Pooled tail quantiles are hostage to whichever arm happened to run
    // during a noisy stretch of a shared machine; the budget statistic is
    // the *median* of the per-rep p99 overheads instead, so one bad
    // period corrupts one rep and the median shrugs it off.
    rep_p99_pcts.sort_by(f64::total_cmp);
    Ok(rep_p99_pcts
        .get(rep_p99_pcts.len() / 2)
        .copied()
        .unwrap_or(0.0))
}

/// Replays the workload repeatedly with observability off and on —
/// alternating arm order to cancel warmup/drift, fresh in-process server
/// per replay — and reports the latency overhead of leaving tracing and
/// the profile sampler enabled. The PR's budget is < 5% on p99; pass
/// `ab_budget=` to enforce it (exit 1). Contention noise is strictly
/// one-sided (a busy host can only inflate an arm, never deflate it), so
/// the budget check allows up to three rounds and passes on the first
/// in-budget median: a real regression fails every round, a noisy burst
/// fails one.
fn run_ab(args: &Args, logs: &[ReplayLog; 2]) -> Result<(), String> {
    // Discarded warmup replay: pages in the binary, traces, and rings.
    copred_obs::enable();
    run_arm(args, &logs[1], true)?;
    copred_obs::drain_events();

    let Some(budget) = args.ab_budget else {
        let median = ab_round(args, logs)?;
        println!("p99_median    {median:+.2}% per-rep");
        return Ok(());
    };
    const ROUNDS: usize = 3;
    for round in 1..=ROUNDS {
        let median = ab_round(args, logs)?;
        if median <= budget {
            println!("budget        median per-rep p99 {median:+.2}% within {budget:.2}% (round {round}/{ROUNDS})");
            return Ok(());
        }
        eprintln!(
            "copred_loadgen: round {round}/{ROUNDS}: median per-rep p99 overhead {median:+.2}% exceeds budget {budget:.2}%"
        );
    }
    eprintln!("copred_loadgen: overhead budget exceeded in all {ROUNDS} rounds");
    std::process::exit(1);
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("copred_loadgen: {e}");
            std::process::exit(2);
        }
    };
    let scale = Scale {
        queries: args.queries,
        ..Scale::quick()
    };
    eprintln!(
        "capturing {} {} queries (seed {})...",
        args.queries,
        args.combo.label(),
        args.seed
    );
    let pairs = copred_bench::workloads::planner_traces_with_scenes(&args.combo, &scale, args.seed);
    // Warm-start needs each open to carry its scene's fingerprint.
    let fingerprints: Option<Vec<u64>> = args.warm.then(|| {
        let robot = args.combo.robot.robot();
        pairs
            .iter()
            .map(|(_t, env)| copred_store::environment_fingerprint(&robot, env))
            .collect()
    });
    let traces: Vec<QueryTrace> = pairs.into_iter().map(|(t, _env)| t).collect();
    let motions: usize = traces.iter().map(|t| t.motions.len()).sum();
    eprintln!(
        "replaying {} traces / {} motions over {} connections (mode {})...",
        traces.len(),
        motions,
        args.connections,
        args.mode.label()
    );
    let op_stream = |trace_ids: bool| {
        let mut log = trace_log(
            &traces,
            args.mode,
            args.seed,
            args.batch,
            fingerprints.as_deref(),
            trace_ids,
        );
        // Trace `i` is session key `i + 1`, opened `i`-th, so the engine
        // deals it to connection `i mod connections`: tag it so.
        for rec in &mut log.records {
            let i = rec.session - 1;
            rec.tag = format!("conn{}/trace{i}", i % args.connections as u64);
        }
        log.meta.seed = args.seed;
        log.meta.workload = args.combo.label();
        log.meta.scale = format!(
            "queries={} connections={} batch={} mode={}",
            args.queries,
            args.connections,
            args.batch,
            args.mode.label()
        );
        log
    };
    if args.ab {
        // The on arm carries wire trace ids (exemplars + flight stamps
        // active) plus the stage sampler; the off arm is the
        // pre-observability baseline.
        or_exit(run_ab(&args, &[op_stream(false), op_stream(true)]));
        return;
    }
    let log = op_stream(args.trace_ids);
    if args.warm {
        let (cold, warm) = or_exit(run_warm(&args, &log));
        println!("workload      {}", args.combo.label());
        println!("mode          {}", args.mode.label());
        println!("pass            checks  cdqs_issued   warm_opens");
        for (name, r) in [("cold", &cold), ("warm", &warm)] {
            println!(
                "{name:<13} {:>9} {:>12} {:>12}",
                r.out.totals.checks,
                r.out.totals.cdqs_issued,
                r.warm_opens()
            );
        }
        let reduction =
            1.0 - warm.out.totals.cdqs_issued as f64 / cold.out.totals.cdqs_issued.max(1) as f64;
        println!("warm_cdq_reduction {reduction:.4}");
        if let Some(path) = &args.bench_json {
            or_exit(write_warm_bench_json(path, &args, &log, &cold, &warm));
            println!("bench_json    {path}");
        }
        // The op-log records the warm pass.
        or_exit(save_oplog(&args, &warm.out.recording(&log)));
        return;
    }
    if args.trace.is_some() {
        copred_obs::enable();
    }
    // Land a partial BENCH report before the run starts: a run killed
    // mid-flight still leaves a parseable artifact (marked partial=1),
    // overwritten with the full report on success.
    if let Some(path) = &args.bench_json {
        or_exit(write_partial_bench_json(path, &args));
    }
    let (run, profile) = or_exit(run_arm(&args, &log, true));
    if let Some(path) = &args.profile {
        or_exit(std::fs::write(path, profile.folded()).map_err(|e| format!("writing {path}: {e}")));
        println!(
            "profile       {path} ({} samples, {} threads)",
            profile.samples(),
            profile.threads()
        );
    }
    if let Some(path) = &args.trace {
        copred_obs::disable();
        let events = copred_obs::drain_events();
        // The trace carries the run's sampled stage profile alongside its
        // events, mirroring the server's trace_dump export.
        let json = copred_obs::chrome_trace_json_with_profile(&events, &profile);
        or_exit(std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}")));
        println!(
            "trace         {path} ({} events, {} dropped)",
            events.len(),
            copred_obs::dropped_events()
        );
    }
    let t = run.out.totals;
    println!("workload      {}", args.combo.label());
    println!("mode          {}", args.mode.label());
    println!("checks        {}", t.checks);
    println!("collisions    {}", t.collisions);
    println!("cdqs_issued   {}", t.cdqs_issued);
    println!("cdqs_total    {}", t.cdqs_total);
    println!(
        "cdqs_saved    {} ({:.1}%)",
        t.cdqs_total - t.cdqs_issued,
        100.0 * (t.cdqs_total - t.cdqs_issued) as f64 / t.cdqs_total.max(1) as f64
    );
    println!("retries       {}", run.retries);
    println!("wall_s        {:.3}", run.out.wall_ns as f64 / 1e9);
    println!("checks_per_s  {:.1}", run.out.checks_per_sec());
    if let Some(path) = &args.bench_json {
        or_exit(write_bench_json(path, &args, &log, &run));
        println!("bench_json    {path}");
    }
    or_exit(save_oplog(&args, &run.out.recording(&log)));
}

/// The value, or the error on stderr and exit status 1.
fn or_exit<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("copred_loadgen: {e}");
        std::process::exit(1);
    })
}

/// A BENCH-schema writer for this run's report, labelled
/// `loadgen_<kind><combo>_<mode>`.
fn bench_writer(path: &str, args: &Args, kind: &str) -> copred_obs::BenchWriter {
    let label = format!("loadgen_{kind}{}_{}", args.combo.label(), args.mode.label());
    let bench = copred_obs::BenchReport::new(
        &label,
        &copred_bench::perfwatch::git_sha(),
        args.seed,
        "custom",
    );
    // Flush-on-drop (same contract as the op-log writer): the report lands
    // on disk even if a later step panics.
    copred_obs::BenchWriter::new(std::path::Path::new(path), bench)
}

/// Writes the run summary as a perfwatch BENCH-schema report so ad-hoc
/// loadgen runs land in the same machine-readable trajectory as the
/// canonical `copred_bench` suite.
fn write_bench_json(path: &str, args: &Args, log: &ReplayLog, run: &Run) -> Result<(), String> {
    let mut w = bench_writer(path, args, "");
    push_run(&mut w, "", log, run);
    w.finish().map_err(|e| format!("writing {path}: {e}"))
}

/// Placeholder written before the run: same BENCH schema, a single
/// `partial=1` record. Overwritten by the full report on clean exit, so
/// its presence marks a run that died mid-flight.
fn write_partial_bench_json(path: &str, args: &Args) -> Result<(), String> {
    use copred_obs::{BenchRecord, Better};
    let mut w = bench_writer(path, args, "");
    w.push(BenchRecord::deterministic(
        "loadgen",
        "partial",
        1.0,
        "flag",
        Better::Lower,
    ));
    w.finish().map_err(|e| format!("writing {path}: {e}"))
}

/// `warm=1` variant of [`write_bench_json`]: both passes land in one
/// report, `cold_*`/`warm_*`-prefixed, plus the headline reduction.
fn write_warm_bench_json(
    path: &str,
    args: &Args,
    log: &ReplayLog,
    cold: &Run,
    warm: &Run,
) -> Result<(), String> {
    use copred_obs::{BenchRecord, Better};
    let mut w = bench_writer(path, args, "warm_");
    push_run(&mut w, "cold_", log, cold);
    push_run(&mut w, "warm_", log, warm);
    w.push(BenchRecord::deterministic(
        "loadgen",
        "warm_cdq_reduction",
        1.0 - warm.out.totals.cdqs_issued as f64 / cold.out.totals.cdqs_issued.max(1) as f64,
        "fraction",
        Better::Higher,
    ));
    w.finish().map_err(|e| format!("writing {path}: {e}"))
}

/// Pushes one run's records with metric names prefixed (`""`, `"cold_"`,
/// `"warm_"`). Counters are deterministic records, latencies timing.
fn push_run(w: &mut copred_obs::BenchWriter, prefix: &str, log: &ReplayLog, run: &Run) {
    use copred_obs::{BenchRecord, Better};
    let t = run.out.totals;
    let saved = (t.cdqs_total - t.cdqs_issued) as f64;
    for (metric, value, unit, better) in [
        ("checks", t.checks as f64, "checks", Better::Higher),
        ("cdqs_issued", t.cdqs_issued as f64, "cdqs", Better::Lower),
        ("cdqs_total", t.cdqs_total as f64, "cdqs", Better::Lower),
        (
            "cdqs_saved_frac",
            saved / t.cdqs_total.max(1) as f64,
            "fraction",
            Better::Higher,
        ),
        (
            "warm_opens",
            run.warm_opens() as f64,
            "sessions",
            Better::Higher,
        ),
    ] {
        w.push(BenchRecord::deterministic(
            "loadgen",
            &format!("{prefix}{metric}"),
            value,
            unit,
            better,
        ));
    }
    let lat = check_latencies(log, run);
    for (q, metric) in [(0.5, "p50_ns"), (0.95, "p95_ns"), (0.99, "p99_ns")] {
        w.push(BenchRecord::timing(
            "loadgen",
            &format!("{prefix}{metric}"),
            &[quantile_ns(&lat, q) as f64],
            "ns",
            Better::Lower,
        ));
    }
    w.push(BenchRecord::timing(
        "loadgen",
        &format!("{prefix}wall_s"),
        &[run.out.wall_ns as f64 / 1e9],
        "s",
        Better::Lower,
    ));
    w.push(BenchRecord::timing(
        "loadgen",
        &format!("{prefix}checks_per_s"),
        &[run.out.checks_per_sec()],
        "checks/s",
        Better::Higher,
    ));
}

/// Writes `recording` as a sealed CPRDLOG at `args.oplog` (unless `-`).
fn save_oplog(args: &Args, recording: &ReplayLog) -> Result<(), String> {
    if args.oplog == "-" {
        return Ok(());
    }
    let path = &args.oplog;
    std::fs::write(path, write_log(&recording.meta, &recording.records))
        .map_err(|e| format!("writing op-log {path}: {e}"))?;
    println!(
        "oplog         {path} ({} ops, CPRDLOG v{})",
        recording.records.len(),
        copred_replay::LOG_VERSION
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(argv: &[&str]) -> Vec<String> {
        argv.iter().map(|s| s.to_string()).collect()
    }

    fn parse_err(argv: &[&str]) -> String {
        match parse_args_from(strs(argv)) {
            Err(e) => e,
            Ok(_) => panic!("{argv:?} must be rejected"),
        }
    }

    #[test]
    fn unknown_flag_fails_fast_and_lists_valid_flags() {
        let err = parse_err(&["seed=7", "conections=4"]);
        assert!(err.contains("unknown option 'conections'"), "{err}");
        for flag in VALID_FLAGS {
            assert!(err.contains(flag), "error should list {flag}: {err}");
        }
    }

    #[test]
    fn open_loop_pacing_and_stats_sidecar_flags_are_gone() {
        for arg in ["pacing=open:200", "metrics_interval=1"] {
            let err = parse_err(&[arg]);
            assert!(err.contains("unknown option"), "{arg}: {err}");
        }
    }

    #[test]
    fn bare_word_is_an_error() {
        let err = parse_err(&["inproc"]);
        assert!(err.contains("expected key=value"), "{err}");
    }

    #[test]
    fn known_flags_parse_and_imply_inproc() {
        let args = parse_args_from(strs(&["seed=9", "warm=1", "queries=3"]))
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(args.seed, 9);
        let defaults = parse_args_from(strs(&[])).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(
            defaults.seed, 42,
            "one default seed, for capture and sessions"
        );
        assert_eq!(args.queries, 3);
        assert!(args.warm && args.inproc, "warm=1 implies inproc");
        let err = parse_err(&["ab_budget=5"]);
        assert!(err.contains("ab_budget requires ab=1"), "{err}");
    }
}
