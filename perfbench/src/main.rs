//! `copred-perfbench --workload W --seed N --seconds S --trace 0|1
//! --bin-dir DIR --work-dir DIR`
//!
//! Prints a table of every metric (name, value, unit, sample count), then
//! one JSON result line. Exits 1 on any correctness or conservation
//! failure, 2 on bad arguments or a run that could not start.

use copred_perfbench::{run, Ctx};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

fn parse(args: &[String]) -> Result<(String, Ctx), String> {
    let get = |flag: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let seed = get("--seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    let traced = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace '{other}' (want 0 or 1)")),
    };
    let ctx = Ctx {
        bin_dir: PathBuf::from(get("--bin-dir")?),
        work: PathBuf::from(get("--work-dir")?),
        seed,
        window: Duration::from_secs_f64(seconds),
        traced,
    };
    Ok((workload, ctx))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, ctx) = match parse(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("copred-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&workload, &ctx) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("copred-perfbench: {workload}: {e}");
            return ExitCode::from(2);
        }
    };
    for e in outcome.errors.iter().take(20) {
        eprintln!("FAIL: {e}");
    }
    let correct = outcome.errors.is_empty();
    println!(
        "{workload} seed={} trace={} attempted={} failed={} correct={correct}",
        ctx.seed,
        u8::from(ctx.traced),
        outcome.attempted,
        outcome.failed
    );
    print!("{}", outcome.metrics.table());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        outcome.metrics.json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
