//! `copred_conform` — the conformance gate run by CI.
//!
//! ```text
//! copred_conform [--seed N] [--stage N [--cases K]]... [--help]
//! ```
//!
//! Runs the seeded differential harness (1 schedule semantics, 2 service
//! replay, 3 fault injection, 4 persistence, 5 record→replay, 6 tracing
//! and 7 profiling invisibility, 8 fleet) and exits nonzero on any
//! divergence, accounting mismatch, or panic. With no `--stage` every
//! stage runs at its default case count — the CI main gate. Each
//! `--stage N` selects a stage (only selected stages run); a `--cases K`
//! right after it overrides that stage's count. Every case is a pure
//! function of `--seed`, so a red CI run reproduces locally with the
//! same flags. Unknown flags fail fast with the full flag list — a typo
//! never silently skips a stage.

use copred_conform::{run_all, ConformConfig, STAGES};
use std::process::ExitCode;

/// Every flag `copred_conform` accepts; unknown flags are rejected with
/// this list so a typo never silently no-ops.
const VALID_FLAGS: &[&str] = &["--seed", "--stage", "--cases", "--help"];

/// Parses the argument list (without argv[0]) into a config. `Ok(None)`
/// means `--help` was asked for.
fn parse_config(args: &[String]) -> Result<Option<ConformConfig>, String> {
    let mut cfg = ConformConfig::default();
    let mut selected: Vec<(usize, u64)> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut num = |flag: &str| -> Result<u64, String> {
            match it.next().map(|v| v.parse()) {
                Some(Ok(v)) => Ok(v),
                _ => Err(format!("{flag} needs an unsigned integer argument")),
            }
        };
        match arg.as_str() {
            "--seed" => cfg.seed = num("--seed")?,
            "--stage" => {
                let n = num("--stage")? as usize;
                let Some(&(_, default)) = STAGES.get(n.wrapping_sub(1)) else {
                    return Err(format!("unknown stage {n} (stages are 1-{})", STAGES.len()));
                };
                selected.push((n, default));
            }
            "--cases" => {
                let k = num("--cases")?;
                let last = selected
                    .last_mut()
                    .ok_or("--cases applies to the preceding --stage; give --stage N first")?;
                last.1 = k;
            }
            "--help" | "-h" => return Ok(None),
            other => {
                return Err(format!(
                    "unknown flag '{other}' (valid flags: {})",
                    VALID_FLAGS.join(", ")
                ))
            }
        }
    }
    if !selected.is_empty() {
        cfg.cases = [0; STAGES.len()];
        for (n, k) in selected {
            cfg.cases[n - 1] = k;
        }
    }
    Ok(Some(cfg))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_config(&args) {
        Ok(Some(cfg)) => cfg,
        Ok(None) => {
            eprintln!("usage: copred_conform [--seed N] [--stage N [--cases K]]...");
            for (i, (name, cases)) in STAGES.iter().enumerate() {
                eprintln!("  stage {} {name:<9} {cases} cases by default", i + 1);
            }
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("copred_conform: {e}");
            return ExitCode::from(2);
        }
    };

    let plan: Vec<String> = STAGES
        .iter()
        .zip(cfg.cases)
        .filter(|(_, k)| *k > 0)
        .map(|((name, _), k)| format!("{k} {name}"))
        .collect();
    println!("copred_conform: seed {} | {}", cfg.seed, plan.join(", "));
    let report = run_all(&cfg);
    println!("{}", report.summary());
    if report.is_clean() {
        println!("conformance: PASS");
        ExitCode::SUCCESS
    } else {
        for f in report.failures() {
            eprintln!("FAIL: {f}");
        }
        eprintln!("conformance: {} failure(s)", report.failures().count());
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(argv: &[&str]) -> Vec<String> {
        argv.iter().map(|s| s.to_string()).collect()
    }

    fn parse_err(argv: &[&str]) -> String {
        match parse_config(&strs(argv)) {
            Err(e) => e,
            Ok(_) => panic!("{argv:?} must be rejected"),
        }
    }

    #[test]
    fn unknown_flag_fails_fast_and_lists_valid_flags() {
        let err = parse_err(&["--seed", "7", "--stag", "1"]);
        assert!(err.contains("unknown flag '--stag'"), "{err}");
        for flag in VALID_FLAGS {
            assert!(err.contains(flag), "error should list {flag}: {err}");
        }
    }

    #[test]
    fn retired_per_stage_flags_are_rejected_with_the_valid_list() {
        let retired = "--iters --service-traces --fault-cases --store-cases --replay-cases \
            --trace-cases --profile-cases --fleet-cases --skip-service --skip-fault \
            --skip-store --skip-replay --skip-trace --skip-profile --skip-fleet";
        for old in retired.split_whitespace() {
            let err = parse_err(&[old, "1"]);
            assert!(err.contains(&format!("unknown flag '{old}'")), "{err}");
            assert!(err.contains("--seed, --stage, --cases, --help"), "{err}");
        }
    }

    #[test]
    fn no_stage_runs_every_stage_at_its_default() {
        let cfg = parse_config(&strs(&["--seed", "9"]))
            .unwrap()
            .expect("not help");
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.cases, [150, 24, 80, 4, 3, 3, 3, 2]);
    }

    #[test]
    fn stages_select_and_cases_apply_to_the_preceding_stage() {
        let cfg = parse_config(&strs(&["--stage", "8", "--cases", "4", "--stage", "6"]))
            .unwrap()
            .expect("not help");
        assert_eq!(cfg.cases, [0, 0, 0, 0, 0, 3, 0, 4]);
    }

    #[test]
    fn unknown_stage_is_an_error() {
        for bad in ["0", "9"] {
            let err = parse_err(&["--stage", bad]);
            assert!(err.contains(&format!("unknown stage {bad}")), "{err}");
        }
    }

    #[test]
    fn cases_without_a_stage_is_an_error() {
        let err = parse_err(&["--cases", "4", "--stage", "8"]);
        assert!(
            err.contains("--cases applies to the preceding --stage"),
            "{err}"
        );
    }

    #[test]
    fn missing_numeric_argument_is_an_error() {
        for flag in ["--seed", "--stage", "--cases"] {
            let err = parse_err(&["--stage", "8", flag]);
            assert!(err.contains(&format!("{flag} needs")), "{err}");
        }
        let err = parse_err(&["--stage", "eight"]);
        assert!(err.contains("--stage needs"), "{err}");
    }

    #[test]
    fn help_is_not_a_config() {
        assert!(parse_config(&strs(&["--help"])).unwrap().is_none());
    }
}
