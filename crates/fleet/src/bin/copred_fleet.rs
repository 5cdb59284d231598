//! Fleet front and fleet replay driver.
//!
//! ```text
//! copred_fleet <command> [key=value ...]
//!
//! route   addrs=HOST:PORT,HOST:PORT[,...] [listen=127.0.0.1:0]
//!     Front an existing set of copred_server backends: listen for the
//!     usual length-prefixed wire protocol, rendezvous-route sessions by
//!     store fingerprint, replicate warm state on close, and fail
//!     sessions over when a backend dies.
//!
//! up      [backends=3] [listen=127.0.0.1:0]
//!     Spawn a local fleet (store-enabled servers on ephemeral ports and
//!     temp stores) and front it; the one-command quickstart.
//!
//! verify  log=FILE [backends=2]
//!     The CI fleet gate: the CPRDLOG must replay bit-identically
//!     through a fresh fleet, twice (determinism), with the router's
//!     per-session ledgers equal to the recorded sums. Exits non-zero on
//!     any divergence.
//!
//! ab      log=FILE [backends=2] [bench_json=PATH]
//!     Replay one log against a single in-process node and a fleet,
//!     report the diff, and exit non-zero unless both answer every op
//!     identically.
//! ```

use copred_fleet::{FleetBackend, Router};
use copred_replay::cli::{load_log, print_outcome, Flags};
use copred_replay::{ab_report, run_ab, Arm, Differential, InProcessBackend};
use copred_service::protocol::{Request, Response, ServiceError};
use copred_trace::frame::{read_text_frame, write_text_frame};
use std::io::{BufReader, BufWriter, Write as _};
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};

/// Serves the wire protocol on `listener`, answering every frame through
/// the shared router. Parse failures answer `err bad_request` on the
/// offending connection and keep serving, exactly like `copred_server`;
/// router-fatal failures (all backends dead, retries exhausted) answer
/// `err busy` rather than dropping the stream.
fn serve(listener: TcpListener, router: Arc<Mutex<Router>>) -> ! {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            continue;
        };
        let router = Arc::clone(&router);
        std::thread::spawn(move || handle_conn(stream, &router));
    }
}

fn handle_conn(stream: TcpStream, router: &Mutex<Router>) {
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(write_half);
    loop {
        let payload = match read_text_frame(&mut reader) {
            Ok(Some(p)) => p,
            Ok(None) => return, // clean disconnect
            Err(_) => {
                let resp = Response::Error(ServiceError::BadRequest("bad frame".into()));
                let _ = write_text_frame(&mut writer, &resp.to_text());
                return;
            }
        };
        let response = match Request::from_text(&payload) {
            Err(reason) => Response::Error(ServiceError::BadRequest(reason)),
            Ok(req) => match router.lock().expect("router lock").call(&req) {
                Ok(resp) => resp,
                Err(reason) => Response::Error(ServiceError::Busy(format!("fleet: {reason}"))),
            },
        };
        if write_text_frame(&mut writer, &response.to_text()).is_err() {
            return;
        }
    }
}

fn cmd_route(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse("route", args, &["addrs", "listen"])?;
    let addrs: Vec<String> = flags
        .require("addrs")?
        .split(',')
        .map(str::to_string)
        .collect();
    if addrs.is_empty() {
        return Err("addrs needs at least one HOST:PORT".to_string());
    }
    let listen = flags.get("listen").unwrap_or("127.0.0.1:0");
    let listener = TcpListener::bind(listen).map_err(|e| format!("binding {listen}: {e}"))?;
    println!(
        "copred_fleet: routing {} backends on {}",
        addrs.len(),
        listener.local_addr().map_err(|e| e.to_string())?
    );
    let _ = std::io::stdout().flush();
    serve(listener, Arc::new(Mutex::new(Router::new(&addrs))))
}

fn cmd_up(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse("up", args, &["backends", "listen"])?;
    let n = flags.u64_or("backends", 3)? as usize;
    if n == 0 {
        return Err("backends must be at least 1".to_string());
    }
    let listen = flags.get("listen").unwrap_or("127.0.0.1:0");
    let listener = TcpListener::bind(listen).map_err(|e| format!("binding {listen}: {e}"))?;
    // The FleetBackend owns the servers and their temp stores; it must
    // outlive serve(), which never returns, so hold it here and share
    // only the router. The servers are unreachable through the backend
    // from this point on — every frame goes through the router.
    let fleet = FleetBackend::start(n).map_err(|e| format!("starting fleet: {e}"))?;
    println!(
        "copred_fleet: {} local backends up, fronting on {}",
        fleet.len(),
        listener.local_addr().map_err(|e| e.to_string())?
    );
    let _ = std::io::stdout().flush();
    let (router, _keepalive) = fleet.into_router();
    serve(listener, Arc::new(Mutex::new(router)))
}

fn cmd_verify(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse("verify", args, &["log", "backends"])?;
    let log = load_log(&flags, true)?;
    let n = flags.u64_or("backends", 2)? as usize;
    // Bit-identity of a fleet replay against the recording, and
    // determinism: a second fresh fleet must answer exactly like the
    // first (routing must not leak into responses).
    let mut fleet = FleetBackend::start(n).map_err(|e| format!("starting fleet: {e}"))?;
    let mut again = FleetBackend::start(n)
        .map_err(|e| format!("starting fleet: {e}"))?
        .labeled("rerun");
    let ab = run_ab(Differential {
        log: &log,
        arms: vec![Arm::new(&mut fleet), Arm::new(&mut again)],
    })
    .map_err(|e| e.to_string())?;
    let failures = ab.failures();
    for f in &failures {
        eprintln!("{f}");
    }
    if !failures.is_empty() {
        return Err(format!("fleet replay: {} divergence(s)", failures.len()));
    }
    println!(
        "fleet({n})       identical ({} ops, {} checks)",
        ab.first().out.ops,
        ab.first().out.checks
    );
    println!("determinism    identical (double replay)");
    println!("verify         PASS");
    Ok(())
}

fn cmd_ab(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse("ab", args, &["log", "backends", "bench_json"])?;
    let log = load_log(&flags, true)?;
    let n = flags.u64_or("backends", 2)? as usize;
    let mut single = InProcessBackend::with_server_defaults().labeled("single");
    let mut fleet = FleetBackend::start(n)
        .map_err(|e| format!("starting fleet: {e}"))?
        .labeled("fleet");
    let ab = run_ab(Differential {
        log: &log,
        arms: vec![Arm::new(&mut single), Arm::new(&mut fleet)],
    })
    .map_err(|e| e.to_string())?;
    for (name, arm) in ["single".to_string(), format!("fleet({n})")]
        .iter()
        .zip(&ab.arms)
    {
        println!("=== {name} ===");
        print_outcome(&arm.label, &arm.out);
    }
    println!("=== diff ===");
    println!("responses_identical {}", ab.responses_identical());
    println!("diverging_ops       {}", ab.diverging_ops().len());
    if let Some(path) = flags.get("bench_json") {
        let report = ab_report(&log, &ab, "fleet_ab");
        std::fs::write(path, report.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("bench_json          {path}");
    }
    if !ab.responses_identical() {
        return Err(format!(
            "fleet diverged from single node on {} ops",
            ab.diverging_ops().len()
        ));
    }
    Ok(())
}

const USAGE: &str = "usage: copred_fleet <route|up|verify|ab> [key=value ...]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "route" => cmd_route(rest),
        "up" => cmd_up(rest),
        "verify" => cmd_verify(rest),
        "ab" => cmd_ab(rest),
        other => {
            eprintln!("copred_fleet: unknown command '{other}'\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("copred_fleet: {e}");
            let _ = std::io::stderr().flush();
            ExitCode::FAILURE
        }
    }
}
