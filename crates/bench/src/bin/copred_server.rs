//! Runs the copred collision-prediction service until killed.
//!
//! ```text
//! copred_server [key=value ...]
//!   addr=127.0.0.1:7457   bind address (port 0 = OS-assigned)
//!   workers=4             check batches executing at once (at least 1)
//!   queue=128             check batches waiting for a slot
//!   session_queue=32      per-session pending cap
//!   max_sessions=64       session slots, the most sessions open at once
//!   csp_step=5            CSP stride for the schedulers
//!   retry_ms=10           back-off hint in retry_after responses
//!   metrics_addr=ADDR     serve Prometheus text exposition on GET /metrics
//!   store_dir=DIR         persist CHT shards under DIR and warm-start
//!                         sessions opened with a matching fingerprint
//!   trace_dump=DIR        export flight-recorder + Chrome-trace dumps
//!                         under DIR (enables span collection)
//!   flight_threshold_ms=N auto-dump the flight recorder when a check
//!                         batch exceeds N milliseconds (0 = off)
//! ```
//!
//! Keys also parse in GNU style (`--metrics-addr=127.0.0.1:9100`).

use copred_service::{Server, ServerConfig};
use std::thread;
use std::time::Duration;

/// Every key `copred_server` accepts (after GNU-style normalization);
/// unknown keys are rejected with this list so a typo never silently
/// falls back to a default.
const VALID_KEYS: &[&str] = &[
    "addr",
    "workers",
    "queue",
    "session_queue",
    "max_sessions",
    "csp_step",
    "retry_ms",
    "metrics_addr",
    "store_dir",
    "trace_dump",
    "flight_threshold_ms",
];

fn parse_args(raw: impl Iterator<Item = String>) -> Result<ServerConfig, String> {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:7457".to_string(),
        ..ServerConfig::default()
    };
    for arg in raw {
        let (key, value) = arg
            .split_once('=')
            .ok_or_else(|| format!("expected key=value, got '{arg}'"))?;
        let key = key.trim_start_matches("--").replace('-', "_");
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad number for {key}: '{value}'"))
        };
        let positive = || match num()? {
            0 => Err(format!("bad number for {key}: '{value}' (want at least 1)")),
            n => Ok(n as usize),
        };
        match key.as_str() {
            "addr" => cfg.addr = value.to_string(),
            "workers" => cfg.workers = positive()?,
            "queue" => cfg.queue_capacity = num()? as usize,
            "session_queue" => cfg.session_queue_cap = num()? as usize,
            "max_sessions" => cfg.max_sessions = positive()?,
            "csp_step" => cfg.csp_step = num()? as usize,
            "retry_ms" => cfg.retry_after_ms = num()?,
            "metrics_addr" => cfg.metrics_addr = Some(value.to_string()),
            "store_dir" => cfg.store_dir = Some(value.to_string()),
            "trace_dump" => cfg.trace_dump = Some(value.to_string()),
            "flight_threshold_ms" => cfg.flight_threshold_ms = num()?,
            _ => {
                return Err(format!(
                    "unknown option '{key}' (valid keys: {})",
                    VALID_KEYS.join(", ")
                ))
            }
        }
    }
    Ok(cfg)
}

fn main() {
    let cfg = match parse_args(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("copred_server: {e}");
            std::process::exit(2);
        }
    };
    let server = match Server::start(cfg.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("copred_server: bind {}: {e}", cfg.addr);
            std::process::exit(1);
        }
    };
    println!(
        "copred_server listening on {} ({} workers, queue {}, {} sessions)",
        server.local_addr(),
        cfg.workers,
        cfg.queue_capacity,
        cfg.max_sessions
    );
    if let Some(addr) = server.metrics_addr() {
        println!("metrics on http://{addr}/metrics");
    }
    if let Some(dir) = &cfg.store_dir {
        println!("persisting CHT state under {dir}");
    }
    if let Some(dir) = &cfg.trace_dump {
        println!("flight + trace dumps under {dir}");
    }
    loop {
        thread::sleep(Duration::from_secs(3600));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<ServerConfig, String> {
        parse_args(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn unknown_key_fails_fast_and_lists_valid_keys() {
        let err = parse(&["wokers=4"]).unwrap_err();
        assert!(err.contains("unknown option 'wokers'"), "{err}");
        for key in VALID_KEYS {
            assert!(err.contains(key), "error should list {key}: {err}");
        }
    }

    #[test]
    fn known_keys_parse_in_both_styles() {
        let cfg = parse(&[
            "workers=3",
            "--csp-step=7",
            "metrics_addr=127.0.0.1:0",
            "--trace-dump=/tmp/td",
            "flight_threshold_ms=25",
        ])
        .unwrap();
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.csp_step, 7);
        assert_eq!(cfg.metrics_addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(cfg.trace_dump.as_deref(), Some("/tmp/td"));
        assert_eq!(cfg.flight_threshold_ms, 25);
    }

    #[test]
    fn max_sessions_takes_any_positive_count() {
        let err = parse(&["max_sessions=0"]).unwrap_err();
        assert!(err.contains("bad number for max_sessions: '0'"), "{err}");
        for n in [1, 3, 64, 100] {
            let cfg = parse(&[&format!("max_sessions={n}")]).unwrap();
            assert_eq!(cfg.max_sessions, n);
            copred_service::SessionRegistry::new(cfg.cht_params, cfg.max_sessions);
        }
    }

    #[test]
    fn workers_takes_any_positive_count() {
        let err = parse(&["workers=0"]).unwrap_err();
        assert_eq!(err, "bad number for workers: '0' (want at least 1)");
        for n in [1, 2, 16] {
            assert_eq!(parse(&[&format!("workers={n}")]).unwrap().workers, n);
        }
    }

    #[test]
    fn bare_word_is_an_error() {
        let err = parse(&["workers"]).unwrap_err();
        assert!(err.contains("expected key=value"), "{err}");
    }
}
