//! Record/replay driver for CPRDLOG op-logs.
//!
//! ```text
//! copred_replay <command> [key=value ...]
//!
//! info        log=FILE
//!     Print the log's metadata and record summary.
//!
//! run         log=FILE [backend=inproc] [mode=sequential] [speed=2.0]
//!             [compare=1] [bench_json=PATH] [trace_seed=SEED]
//!     Replay the log against one backend and print the outcome.
//!       backend = inproc | loopback | addr:HOST:PORT
//!       mode    = sequential | timing | timing-virtual | scaled
//!                 (scaled divides recorded gaps by speed=K)
//!       trace_seed attaches fresh causal trace ids (derived from the
//!       seed and record index) to every replayed check
//!
//! verify      log=FILE [skip_loopback=0]
//!     The CI replay gate: the log must replay bit-identically against a
//!     default in-process backend AND a loopback server, two in-process
//!     replays must answer identically (determinism), and the in-process
//!     per-session metrics ledgers must equal the recorded sums. Exits
//!     non-zero on any divergence.
//!
//! ab          log=FILE [a=inproc] [b=loopback] [mode=sequential]
//!             [speed=2.0] [bench_json=PATH]
//!     Replay one log against two backends and report the diff.
//!
//! sanitize    log=FILE out=FILE [gap_ns=1000000]
//!     Normalize timestamps for committing: start_ns becomes
//!     idx * gap_ns and durations zero, so the log is byte-stable across
//!     machines while timing-mode replays still have faithful gaps.
//! ```

use copred_replay::cli::{load_log, print_outcome, Flags};
use copred_replay::{
    ab_report, run_ab, run_replay, Arm, Clock, Differential, InProcessBackend, LogWriter,
    LoopbackBackend, ReplayBackend, ReplayLog, ReplayMode, ReplayOptions, ReplayOutcome,
};
use copred_service::ServerConfig;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::ExitCode;

fn parse_mode(flags: &Flags) -> Result<ReplayMode, String> {
    Ok(match flags.get("mode").unwrap_or("sequential") {
        "sequential" => ReplayMode::Sequential,
        "timing" => ReplayMode::Timing { clock: Clock::Wall },
        "timing-virtual" => ReplayMode::Timing {
            clock: Clock::Virtual,
        },
        "scaled" => {
            let speed = flags.get("speed").unwrap_or("2.0");
            let factor: f64 = speed
                .parse()
                .map_err(|_| format!("bad speed factor '{speed}'"))?;
            if !factor.is_finite() || factor <= 0.0 {
                return Err(format!("speed factor must be positive, got '{speed}'"));
            }
            ReplayMode::Scaled { factor }
        }
        other => {
            return Err(format!(
                "unknown mode '{other}' (sequential|timing|timing-virtual|scaled)"
            ))
        }
    })
}

/// Builds a backend from its spec: `inproc`, `loopback` (owned fresh
/// server), or `addr:HOST:PORT` (external server).
fn make_backend(spec: &str) -> Result<Box<dyn ReplayBackend>, String> {
    match spec {
        "inproc" => Ok(Box::new(InProcessBackend::with_server_defaults())),
        "loopback" => {
            let cfg = ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                ..ServerConfig::default()
            };
            Ok(Box::new(
                LoopbackBackend::start(cfg).map_err(|e| format!("starting loopback: {e}"))?,
            ))
        }
        other => match other.strip_prefix("addr:") {
            Some(addr) => Ok(Box::new(
                LoopbackBackend::connect(addr)
                    .map_err(|e| format!("connecting to {addr}: {e}"))?
                    .labeled("remote"),
            )),
            None => Err(format!(
                "unknown backend '{other}' (inproc|loopback|addr:HOST:PORT)"
            )),
        },
    }
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse("info", args, &["log"])?;
    let log = load_log(&flags, false)?;
    println!("format         CPRDLOG v{}", copred_replay::LOG_VERSION);
    println!("seed           {}", log.meta.seed);
    println!("fingerprint    {:#018x}", log.meta.fingerprint);
    println!("robot          {}", log.meta.robot);
    println!("workload       {}", log.meta.workload);
    println!("scale          {}", log.meta.scale);
    println!("records        {}", log.records.len());
    println!("complete       {}", log.complete);
    let mut verbs: BTreeMap<&str, u64> = BTreeMap::new();
    for r in &log.records {
        *verbs.entry(r.verb.as_str()).or_default() += 1;
    }
    for (verb, n) in verbs {
        println!("  {verb:<12} {n}");
    }
    if let (Some(first), Some(last)) = (log.records.first(), log.records.last()) {
        println!(
            "span_ms        {:.3}",
            last.start_ns.saturating_sub(first.start_ns) as f64 / 1e6
        );
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        "run",
        args,
        &[
            "log",
            "backend",
            "mode",
            "speed",
            "compare",
            "bench_json",
            "trace_seed",
        ],
    )?;
    let log = load_log(&flags, false)?;
    let trace_seed = match flags.get("trace_seed") {
        None => None,
        Some(_) => Some(flags.u64_or("trace_seed", 0)?),
    };
    let opts = ReplayOptions {
        mode: parse_mode(&flags)?,
        compare: flags.bool_or("compare", true),
        trace_seed,
    };
    let mut backend = make_backend(flags.get("backend").unwrap_or("inproc"))?;
    let out = run_replay(&log, backend.as_mut(), &opts).map_err(|e| e.to_string())?;
    println!("mode           {}", opts.mode.label());
    print_outcome(backend.label(), &out);
    if let Some(path) = flags.get("bench_json") {
        let report = run_report(&log, &opts, backend.label(), &out);
        std::fs::write(path, report.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("bench_json     {path}");
    }
    if opts.compare && !out.is_identical() {
        return Err(format!(
            "{} of {} compared ops diverged from the recording",
            out.mismatches.len(),
            out.ops
        ));
    }
    Ok(())
}

/// Single-backend `bench_json` report for `run` (the A/B path has its
/// own richer report).
fn run_report(
    log: &ReplayLog,
    opts: &ReplayOptions,
    backend: &str,
    out: &ReplayOutcome,
) -> copred_obs::BenchReport {
    use copred_obs::{BenchRecord, BenchReport, Better};
    let mut report = BenchReport::new(
        &format!("replay_{}_{}", backend, opts.mode.label()),
        "unknown",
        log.meta.seed,
        &format!("{} [{}]", log.meta.scale, log.meta.workload),
    );
    let suite = "replay";
    for (metric, value, unit, better) in [
        ("ops", out.ops as f64, "ops", Better::Higher),
        ("checks", out.totals.checks as f64, "checks", Better::Higher),
        (
            "cdqs_issued",
            out.totals.cdqs_issued as f64,
            "cdqs",
            Better::Lower,
        ),
        (
            "mismatches",
            out.mismatches.len() as f64,
            "ops",
            Better::Lower,
        ),
        ("lag_ns", out.lag_ns as f64, "ns", Better::Lower),
    ] {
        report.records.push(BenchRecord::deterministic(
            suite, metric, value, unit, better,
        ));
    }
    report.records.push(BenchRecord::timing(
        suite,
        "checks_per_s",
        &[out.checks_per_sec()],
        "checks/s",
        Better::Higher,
    ));
    report
}

fn cmd_verify(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse("verify", args, &["log", "skip_loopback"])?;
    let log = load_log(&flags, true)?;
    let mut inproc = InProcessBackend::with_server_defaults();
    let mut again = InProcessBackend::with_server_defaults().labeled("rerun");
    let mut loopback = if flags.bool_or("skip_loopback", false) {
        None
    } else {
        let cfg = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        };
        Some(LoopbackBackend::start(cfg).map_err(|e| e.to_string())?)
    };
    let mut arms = vec![Arm::new(&mut inproc)];
    if let Some(l) = loopback.as_mut() {
        arms.push(Arm::new(l));
    }
    arms.push(Arm::new(&mut again));
    let ab = run_ab(Differential { log: &log, arms }).map_err(|e| e.to_string())?;
    let failures = ab.failures();
    for f in &failures {
        eprintln!("{f}");
    }
    if !failures.is_empty() {
        return Err(format!(
            "{} divergence(s) in the replay gate",
            failures.len()
        ));
    }
    for arm in ab.arms.iter().filter(|a| a.label != "rerun") {
        println!(
            "{:<14} identical ({} ops, {} checks)",
            arm.label, arm.out.ops, arm.out.totals.checks
        );
    }
    if loopback.is_none() {
        println!("loopback       skipped");
    }
    println!("determinism    identical (double replay)");
    println!("verify         PASS");
    Ok(())
}

fn cmd_ab(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        "ab",
        args,
        &["log", "a", "b", "mode", "speed", "bench_json"],
    )?;
    let log = load_log(&flags, false)?;
    let opts = ReplayOptions {
        mode: parse_mode(&flags)?,
        compare: true,
        trace_seed: None,
    };
    let mut a = make_backend(flags.get("a").unwrap_or("inproc"))?;
    let mut b = make_backend(flags.get("b").unwrap_or("loopback"))?;
    let ab = run_ab(Differential {
        log: &log,
        arms: vec![
            Arm {
                backend: a.as_mut(),
                opts,
            },
            Arm {
                backend: b.as_mut(),
                opts,
            },
        ],
    })
    .map_err(|e| e.to_string())?;
    for (name, arm) in ["A", "B"].iter().zip(&ab.arms) {
        println!("=== {name} ===");
        print_outcome(&arm.label, &arm.out);
    }
    println!("=== diff ===");
    println!("responses_identical {}", ab.responses_identical());
    println!("diverging_ops       {}", ab.diverging_ops().len());
    if let [a, b] = ab.arms.as_slice() {
        if a.out.wall_ns > 0 {
            println!(
                "wall_b_over_a       {:.3}",
                b.out.wall_ns as f64 / a.out.wall_ns as f64
            );
        }
    }
    if let Some(path) = flags.get("bench_json") {
        let report = ab_report(&log, &ab, "replay_ab");
        std::fs::write(path, report.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("bench_json          {path}");
    }
    Ok(())
}

fn cmd_sanitize(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse("sanitize", args, &["log", "out", "gap_ns"])?;
    let log = load_log(&flags, false)?;
    let out_path = flags.require("out")?;
    let gap_ns = flags.u64_or("gap_ns", 1_000_000)?;
    let file = std::fs::File::create(out_path).map_err(|e| format!("creating {out_path}: {e}"))?;
    let mut w = LogWriter::new(std::io::BufWriter::new(file), &log.meta)
        .map_err(|e| format!("writing {out_path}: {e}"))?;
    for (i, rec) in log.records.iter().enumerate() {
        let mut rec = rec.clone();
        rec.idx = i as u64;
        rec.start_ns = i as u64 * gap_ns;
        rec.duration_ns = 0;
        w.append(&rec)
            .map_err(|e| format!("writing {out_path}: {e}"))?;
    }
    let n = w.count();
    w.finish().map_err(|e| format!("sealing {out_path}: {e}"))?;
    println!("sanitized      {n} records -> {out_path} (gap {gap_ns} ns)");
    Ok(())
}

const USAGE: &str = "usage: copred_replay <info|run|verify|ab|sanitize> [key=value ...]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "info" => cmd_info(rest),
        "run" => cmd_run(rest),
        "verify" => cmd_verify(rest),
        "ab" => cmd_ab(rest),
        "sanitize" => cmd_sanitize(rest),
        other => {
            eprintln!("copred_replay: unknown command '{other}'\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("copred_replay: {e}");
            let _ = std::io::stderr().flush();
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_mode_parses_its_speed() {
        let args: Vec<String> = ["log=a.cprlog", "mode=scaled", "speed=4"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let flags = Flags::parse("run", &args, &["log", "mode", "speed"]).unwrap();
        assert_eq!(flags.get("log"), Some("a.cprlog"));
        assert!(matches!(
            parse_mode(&flags),
            Ok(ReplayMode::Scaled { factor }) if factor == 4.0
        ));
    }
}
