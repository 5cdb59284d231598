//! Load generator: replays captured planner workloads against a running
//! `copred_server` and records the run as a CPRDLOG op-log — the
//! versioned record/replay interchange format (`copred_replay` drives
//! the same log back against any backend).
//!
//! ```text
//! copred_loadgen [key=value ...]
//!   addr=127.0.0.1:7457   server address
//!   combo=MPNet-Baxter    workload (a Fig. 15 combo label)
//!   queries=8             planning queries (sessions) to capture and replay
//!   connections=8         concurrent client connections
//!   mode=coord            coord | naive | csp
//!   pacing=closed         closed | open:<interval_us>
//!   batch=8               motions per CHECK_MOTION frame
//!   seed=42               capture + replay seed (deterministic)
//!   oplog=oplog.cprlog    CPRDLOG op-log output path ("-" to skip)
//!   metrics_interval=1    sample global stats every N seconds into a
//!                         sidecar TSV next to the op-log
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
use copred_replay::{LogMeta, LogWriter};
use copred_service::protocol::SchedMode;
use copred_service::{
    run_loadgen, write_stats_tsv, LoadgenConfig, LoadgenReport, LogRecord, Pacing, Server,
    ServerConfig,
};
use copred_trace::QueryTrace;
use std::time::Duration;

/// Every key `copred_loadgen` accepts; unknown keys are rejected with
/// this list so a typo never silently no-ops.
const VALID_FLAGS: &[&str] = &[
    "addr",
    "combo",
    "queries",
    "connections",
    "mode",
    "pacing",
    "batch",
    "seed",
    "oplog",
    "bench_json",
    "metrics_interval",
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
    combo: Combo,
    queries: usize,
    seed: u64,
    oplog: String,
    bench_json: Option<String>,
    trace: Option<String>,
    inproc: bool,
    ab: bool,
    ab_budget: Option<f64>,
    warm: bool,
    store_dir: Option<String>,
    profile: Option<String>,
    lg: LoadgenConfig,
}

fn parse_args() -> Result<Args, String> {
    parse_args_from(std::env::args().skip(1))
}

/// The testable core of [`parse_args`]: parses an explicit argument
/// list, rejecting unknown keys with the full [`VALID_FLAGS`] list.
fn parse_args_from(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        combo: Combo::paper_six()[0], // MPNet-Baxter
        queries: 8,
        seed: 42,
        oplog: "oplog.cprlog".to_string(),
        bench_json: None,
        trace: None,
        inproc: false,
        ab: false,
        ab_budget: None,
        warm: false,
        store_dir: None,
        profile: None,
        lg: LoadgenConfig {
            trace_ids: true,
            ..LoadgenConfig::default()
        },
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
            "addr" => args.lg.addr = value.to_string(),
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
            "connections" => args.lg.connections = num()? as usize,
            "mode" => {
                args.lg.mode = SchedMode::parse(value)
                    .ok_or_else(|| format!("bad mode '{value}' (coord|naive|csp)"))?;
            }
            "pacing" => {
                args.lg.pacing = match value.split_once(':') {
                    None if value == "closed" => Pacing::Closed,
                    Some(("open", us)) => Pacing::Open {
                        interval_us: us
                            .parse()
                            .map_err(|_| format!("bad open-loop interval '{us}'"))?,
                    },
                    _ => return Err(format!("bad pacing '{value}' (closed|open:<us>)")),
                };
            }
            "batch" => args.lg.batch = num()? as usize,
            "seed" => {
                args.seed = num()?;
                args.lg.seed = args.seed;
            }
            "oplog" => args.oplog = value.to_string(),
            "bench_json" => args.bench_json = Some(value.to_string()),
            "metrics_interval" => {
                let secs: f64 = value
                    .parse()
                    .map_err(|_| format!("bad metrics interval '{value}'"))?;
                if secs <= 0.0 || !secs.is_finite() {
                    return Err(format!("metrics interval must be positive, got '{value}'"));
                }
                args.lg.metrics_interval = Some(Duration::from_secs_f64(secs));
            }
            "traceids" => args.lg.trace_ids = value == "1" || value == "true",
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
    // Stream the sidecar stats TSV during the run (atomic tmp+rename per
    // snapshot) so a killed run still leaves a parseable partial file.
    if args.lg.metrics_interval.is_some() && args.oplog != "-" {
        args.lg.stats_tsv = Some(stats_path(&args.oplog));
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

/// Sorted per-batch `check_motion` latencies from a run's op-log.
fn check_latencies(report: &LoadgenReport) -> Vec<u64> {
    let mut ns: Vec<u64> = report
        .ops
        .iter()
        .filter(|op| op.verb == "check_motion")
        .map(|op| op.duration_ns)
        .collect();
    ns.sort_unstable();
    ns
}

/// Runs the workload against a fresh in-process server (or the configured
/// remote address when `inproc` is off). Returns the run report plus the
/// server's sampled stage profile (empty against a remote server, whose
/// sampler this process cannot read).
fn run_arm(
    args: &Args,
    traces: &[QueryTrace],
    trace_ids: bool,
    sampler_on: bool,
) -> std::io::Result<(LoadgenReport, copred_obs::Profile)> {
    let mut lg = args.lg.clone();
    lg.trace_ids = trace_ids;
    if args.inproc {
        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            profile_sampler: sampler_on,
            ..ServerConfig::default()
        })?;
        lg.addr = server.local_addr().to_string();
        let report = run_loadgen(&lg, traces)?;
        Ok((report, server.profile()))
    } else {
        Ok((run_loadgen(&lg, traces)?, copred_obs::Profile::default()))
    }
}

/// Replays the workload twice against one in-process server with
/// persistence enabled: the first pass starts cold and persists each
/// session's CHT on close, the second warm-starts from the store.
fn run_warm(args: &Args, traces: &[QueryTrace]) -> std::io::Result<(LoadgenReport, LoadgenReport)> {
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
    })?;
    eprintln!("store         {dir}");
    let lg = LoadgenConfig {
        addr: server.local_addr().to_string(),
        ..args.lg.clone()
    };
    let cold = run_loadgen(&lg, traces)?;
    let warm = run_loadgen(&lg, traces)?;
    Ok((cold, warm))
}

/// Replays the workload repeatedly with observability off and on —
/// alternating arm order to cancel warmup/drift, fresh in-process server
/// One full alternating A/B round: `REPS` off/on replay pairs. Prints
/// the pooled-quantile table and returns the median of the per-rep p99
/// overhead percentages.
fn ab_round(args: &Args, traces: &[QueryTrace]) -> std::io::Result<f64> {
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
            let (report, profile) = run_arm(args, traces, enabled, enabled)?;
            copred_obs::disable();
            events += copred_obs::drain_events().len();
            let lat = check_latencies(&report);
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
fn run_ab(args: &Args, traces: &[QueryTrace]) -> std::io::Result<()> {
    // Discarded warmup replay: pages in the binary, traces, and rings.
    copred_obs::enable();
    run_arm(args, traces, true, true)?;
    copred_obs::drain_events();

    let Some(budget) = args.ab_budget else {
        let median = ab_round(args, traces)?;
        println!("p99_median    {median:+.2}% per-rep");
        return Ok(());
    };
    const ROUNDS: usize = 3;
    for round in 1..=ROUNDS {
        let median = ab_round(args, traces)?;
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
    let mut args = match parse_args() {
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
    if args.warm {
        // Warm-start needs each open to carry its scene's fingerprint.
        let robot = args.combo.robot.robot();
        args.lg.fingerprints = Some(
            pairs
                .iter()
                .map(|(_t, env)| copred_store::environment_fingerprint(&robot, env))
                .collect(),
        );
    }
    let traces: Vec<QueryTrace> = pairs.into_iter().map(|(t, _env)| t).collect();
    let motions: usize = traces.iter().map(|t| t.motions.len()).sum();
    eprintln!(
        "replaying {} traces / {} motions over {} connections ({:?}, mode {})...",
        traces.len(),
        motions,
        args.lg.connections,
        args.lg.pacing,
        args.lg.mode.label()
    );
    if args.ab {
        if let Err(e) = run_ab(&args, &traces) {
            eprintln!("copred_loadgen: {e}");
            std::process::exit(1);
        }
        return;
    }
    if args.warm {
        let (cold, warm) = match run_warm(&args, &traces) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("copred_loadgen: {e}");
                std::process::exit(1);
            }
        };
        println!("workload      {}", args.combo.label());
        println!("mode          {}", args.lg.mode.label());
        println!("pass            checks  cdqs_issued   warm_opens");
        for (name, r) in [("cold", &cold), ("warm", &warm)] {
            println!(
                "{name:<13} {:>9} {:>12} {:>12}",
                r.checks, r.cdqs_issued, r.warm_opens
            );
        }
        let reduction = 1.0 - warm.cdqs_issued as f64 / cold.cdqs_issued.max(1) as f64;
        println!("warm_cdq_reduction {reduction:.4}");
        if let Some(path) = &args.bench_json {
            if let Err(e) = write_warm_bench_json(path, &args, &cold, &warm) {
                eprintln!("copred_loadgen: writing {path}: {e}");
                std::process::exit(1);
            }
            println!("bench_json    {path}");
        }
        // The op-log records the warm pass.
        let robot_name = traces.first().map_or("", |t| t.robot_name.as_str());
        if let Err(e) = save_oplog(&args, robot_name, &warm.ops) {
            eprintln!("copred_loadgen: writing op-log: {e}");
            std::process::exit(1);
        }
        return;
    }
    if args.trace.is_some() {
        copred_obs::enable();
    }
    // Land a partial BENCH report before the run starts: a run killed
    // mid-flight still leaves a parseable artifact (marked partial=1),
    // overwritten with the full report on success.
    if let Some(path) = &args.bench_json {
        if let Err(e) = write_partial_bench_json(path, &args) {
            eprintln!("copred_loadgen: writing {path}: {e}");
            std::process::exit(1);
        }
    }
    let (report, profile) = match run_arm(&args, &traces, args.lg.trace_ids, true) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("copred_loadgen: {e}");
            std::process::exit(1);
        }
    };
    if let Some(path) = &args.profile {
        if let Err(e) = std::fs::write(path, profile.folded()) {
            eprintln!("copred_loadgen: writing {path}: {e}");
            std::process::exit(1);
        }
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
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("copred_loadgen: writing {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "trace         {path} ({} events, {} dropped)",
            events.len(),
            copred_obs::dropped_events()
        );
    }
    println!("workload      {}", args.combo.label());
    println!("mode          {}", args.lg.mode.label());
    println!("checks        {}", report.checks);
    println!("collisions    {}", report.collisions);
    println!("cdqs_issued   {}", report.cdqs_issued);
    println!("cdqs_total    {}", report.cdqs_total);
    println!(
        "cdqs_saved    {} ({:.1}%)",
        report.cdqs_total - report.cdqs_issued,
        100.0 * (report.cdqs_total - report.cdqs_issued) as f64 / report.cdqs_total.max(1) as f64
    );
    println!("retries       {}", report.retries);
    println!("wall_s        {:.3}", report.wall_ns as f64 / 1e9);
    println!("checks_per_s  {:.1}", report.checks_per_sec());
    if let Some(path) = &args.bench_json {
        if let Err(e) = write_bench_json(path, &args, &report) {
            eprintln!("copred_loadgen: writing {path}: {e}");
            std::process::exit(1);
        }
        println!("bench_json    {path}");
    }
    {
        let robot_name = traces.first().map_or("", |t| t.robot_name.as_str());
        if let Err(e) = save_oplog(&args, robot_name, &report.ops) {
            eprintln!("copred_loadgen: writing op-log: {e}");
            std::process::exit(1);
        }
        if args.oplog != "-" && !report.stats_snapshots.is_empty() {
            let path = stats_path(&args.oplog);
            if let Err(e) = std::fs::write(&path, write_stats_tsv(&report.stats_snapshots)) {
                eprintln!("copred_loadgen: writing {path}: {e}");
                std::process::exit(1);
            }
            println!(
                "stats         {path} ({} snapshots)",
                report.stats_snapshots.len()
            );
        }
    }
}

/// Writes the run summary as a perfwatch BENCH-schema report so ad-hoc
/// loadgen runs land in the same machine-readable trajectory as the
/// canonical `copred_bench` suite.
fn write_bench_json(path: &str, args: &Args, report: &LoadgenReport) -> std::io::Result<()> {
    use copred_obs::{BenchReport, BenchWriter};
    let label = format!("loadgen_{}_{}", args.combo.label(), args.lg.mode.label());
    let bench = BenchReport::new(
        &label,
        &copred_bench::perfwatch::git_sha(),
        args.seed,
        "custom",
    );
    // Flush-on-drop (same contract as the op-log writer): the report lands
    // on disk even if a later step panics.
    let mut w = BenchWriter::new(std::path::Path::new(path), bench);
    push_run(&mut w, "", report);
    w.finish()
}

/// Placeholder written before the run: same BENCH schema, a single
/// `partial=1` record. Overwritten by the full report on clean exit, so
/// its presence marks a run that died mid-flight.
fn write_partial_bench_json(path: &str, args: &Args) -> std::io::Result<()> {
    use copred_obs::{BenchRecord, BenchReport, BenchWriter, Better};
    let label = format!("loadgen_{}_{}", args.combo.label(), args.lg.mode.label());
    let bench = BenchReport::new(
        &label,
        &copred_bench::perfwatch::git_sha(),
        args.seed,
        "custom",
    );
    let mut w = BenchWriter::new(std::path::Path::new(path), bench);
    w.push(BenchRecord::deterministic(
        "loadgen",
        "partial",
        1.0,
        "flag",
        Better::Lower,
    ));
    w.finish()
}

/// `warm=1` variant of [`write_bench_json`]: both passes land in one
/// report, `cold_*`/`warm_*`-prefixed, plus the headline reduction.
fn write_warm_bench_json(
    path: &str,
    args: &Args,
    cold: &LoadgenReport,
    warm: &LoadgenReport,
) -> std::io::Result<()> {
    use copred_obs::{BenchRecord, BenchReport, BenchWriter, Better};
    let label = format!(
        "loadgen_warm_{}_{}",
        args.combo.label(),
        args.lg.mode.label()
    );
    let bench = BenchReport::new(
        &label,
        &copred_bench::perfwatch::git_sha(),
        args.seed,
        "custom",
    );
    let mut w = BenchWriter::new(std::path::Path::new(path), bench);
    push_run(&mut w, "cold_", cold);
    push_run(&mut w, "warm_", warm);
    w.push(BenchRecord::deterministic(
        "loadgen",
        "warm_cdq_reduction",
        1.0 - warm.cdqs_issued as f64 / cold.cdqs_issued.max(1) as f64,
        "fraction",
        Better::Higher,
    ));
    w.finish()
}

/// Pushes one run's records with metric names prefixed (`""`, `"cold_"`,
/// `"warm_"`). Counters are deterministic records, latencies timing.
fn push_run(w: &mut copred_obs::BenchWriter, prefix: &str, report: &LoadgenReport) {
    use copred_obs::{BenchRecord, Better};
    let saved = (report.cdqs_total - report.cdqs_issued) as f64;
    for (metric, value, unit, better) in [
        ("checks", report.checks as f64, "checks", Better::Higher),
        (
            "cdqs_issued",
            report.cdqs_issued as f64,
            "cdqs",
            Better::Lower,
        ),
        (
            "cdqs_total",
            report.cdqs_total as f64,
            "cdqs",
            Better::Lower,
        ),
        (
            "cdqs_saved_frac",
            saved / report.cdqs_total.max(1) as f64,
            "fraction",
            Better::Higher,
        ),
        (
            "warm_opens",
            report.warm_opens as f64,
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
    let lat = check_latencies(report);
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
        &[report.wall_ns as f64 / 1e9],
        "s",
        Better::Lower,
    ));
    w.push(BenchRecord::timing(
        "loadgen",
        &format!("{prefix}checks_per_s"),
        &[report.checks_per_sec()],
        "checks/s",
        Better::Higher,
    ));
}

/// Sidecar stats path next to the op-log: `oplog.cprlog` →
/// `oplog.stats.tsv`.
fn stats_path(oplog: &str) -> String {
    let stem = oplog.strip_suffix(".cprlog").unwrap_or(oplog);
    format!("{stem}.stats.tsv")
}

/// The recording's self-describing metadata: seed, workload label, scale
/// knobs, robot, and the fold of the per-trace environment fingerprints
/// (0 when the run is not fingerprinted).
fn log_meta(args: &Args, robot_name: &str) -> LogMeta {
    let fingerprint = args
        .lg
        .fingerprints
        .as_ref()
        .map_or(0, |fps| fps.iter().fold(0u64, |acc, fp| acc ^ fp));
    LogMeta {
        seed: args.seed,
        fingerprint,
        robot: robot_name.to_string(),
        workload: args.combo.label(),
        scale: format!(
            "queries={} connections={} batch={} mode={}",
            args.queries,
            args.lg.connections,
            args.lg.batch,
            args.lg.mode.label()
        ),
    }
}

/// Writes the run's op-log as a sealed CPRDLOG at `args.oplog` (unless
/// `-`).
fn save_oplog(args: &Args, robot_name: &str, ops: &[LogRecord]) -> std::io::Result<()> {
    if args.oplog == "-" {
        return Ok(());
    }
    let file = std::fs::File::create(&args.oplog)?;
    let mut w = LogWriter::new(std::io::BufWriter::new(file), &log_meta(args, robot_name))?;
    for op in ops {
        w.append(op)?;
    }
    w.finish()?;
    println!(
        "oplog         {} ({} ops, CPRDLOG v{})",
        args.oplog,
        ops.len(),
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
    fn bare_word_is_an_error() {
        let err = parse_err(&["inproc"]);
        assert!(err.contains("expected key=value"), "{err}");
    }

    #[test]
    fn known_flags_parse_and_imply_inproc() {
        let args = parse_args_from(strs(&["seed=9", "warm=1", "queries=3"]))
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(args.seed, 9);
        assert_eq!(args.queries, 3);
        assert!(args.warm && args.inproc, "warm=1 implies inproc");
        let err = parse_err(&["ab_budget=5"]);
        assert!(err.contains("ab_budget requires ab=1"), "{err}");
    }
}
