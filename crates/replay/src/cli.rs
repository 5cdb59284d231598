//! Shared plumbing for the `key=value` replay drivers (`copred_replay`
//! and `copred_fleet`): validated flag parsing, log loading, and the
//! per-backend outcome printout.

use crate::engine::ReplayOutcome;
use crate::format::{read_log_file, ReplayLog};
use std::collections::BTreeMap;
use std::path::Path;

/// Parsed `key=value` arguments for one subcommand, validated against its
/// flag table.
#[derive(Debug)]
pub struct Flags {
    values: BTreeMap<String, String>,
}

impl Flags {
    /// Parses `args`, rejecting keys outside `valid` with an error that
    /// lists every flag the subcommand accepts.
    ///
    /// # Errors
    ///
    /// A bare word or an unknown key, as a message for the user.
    pub fn parse(command: &str, args: &[String], valid: &[&str]) -> Result<Self, String> {
        let mut values = BTreeMap::new();
        for arg in args {
            let (key, value) = arg
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got '{arg}'"))?;
            if !valid.contains(&key) {
                return Err(format!(
                    "unknown flag '{key}' for '{command}' (valid flags: {})",
                    valid.join(", ")
                ));
            }
            values.insert(key.to_string(), value.to_string());
        }
        Ok(Flags { values })
    }

    /// The value of `key`, when given.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// The value of `key`.
    ///
    /// # Errors
    ///
    /// `key` was not given.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing {key}=..."))
    }

    /// The numeric value of `key`, or `default` when not given.
    ///
    /// # Errors
    ///
    /// The value is not an unsigned integer.
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad number for {key}: '{v}'")),
        }
    }

    /// Whether `key` is `1`/`true`, or `default` when not given.
    pub fn bool_or(&self, key: &str, default: bool) -> bool {
        match self.get(key) {
            None => default,
            Some(v) => v == "1" || v == "true",
        }
    }
}

/// Reads the log named by `log=`. A torn log is refused when
/// `require_complete`, else its clean prefix comes back with a note on
/// stderr.
///
/// # Errors
///
/// A missing flag, an unreadable or undecodable file, or a refused torn
/// log.
pub fn load_log(flags: &Flags, require_complete: bool) -> Result<ReplayLog, String> {
    let path = flags.require("log")?;
    let log = read_log_file(Path::new(path)).map_err(|e| format!("reading {path}: {e}"))?;
    if !log.complete {
        if require_complete {
            return Err(format!("{path} has a torn tail; refusing to gate on it"));
        }
        eprintln!(
            "note: {path} has a torn tail; replaying the clean prefix ({} records)",
            log.records.len()
        );
    }
    Ok(log)
}

/// Prints one pass's outcome (and its first mismatches, on stderr).
pub fn print_outcome(label: &str, out: &ReplayOutcome) {
    println!("backend        {label}");
    println!("ops            {}", out.ops);
    println!("checks         {}", out.totals.checks);
    println!("collisions     {}", out.totals.collisions);
    println!("cdqs_issued    {}", out.totals.cdqs_issued);
    println!("cdqs_total     {}", out.totals.cdqs_total);
    println!("mismatches     {}", out.mismatches.len());
    println!("backend_errors {}", out.backend_errors);
    println!("wall_s         {:.3}", out.wall_ns as f64 / 1e9);
    println!("lag_ms         {:.3}", out.lag_ns as f64 / 1e6);
    println!("checks_per_s   {:.1}", out.checks_per_sec());
    for d in out.mismatches.iter().take(5) {
        eprintln!(
            "mismatch at op {} ({} {}): expected {:?}, got {:?}",
            d.idx, d.verb, d.tag, d.expected, d.actual
        );
    }
    if out.mismatches.len() > 5 {
        eprintln!("... and {} more mismatches", out.mismatches.len() - 5);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(argv: &[&str]) -> Vec<String> {
        argv.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_flag_fails_fast_and_lists_valid_flags() {
        let valid = &["log", "backend", "mode"];
        let err =
            Flags::parse("run", &strs(&["log=a.cprlog", "bakend=inproc"]), valid).unwrap_err();
        assert!(err.contains("unknown flag 'bakend' for 'run'"), "{err}");
        for flag in valid {
            assert!(err.contains(flag), "error should list {flag}: {err}");
        }
    }

    #[test]
    fn bare_word_is_an_error() {
        let err = Flags::parse("info", &strs(&["log"]), &["log"]).unwrap_err();
        assert!(err.contains("expected key=value"), "{err}");
    }

    #[test]
    fn numeric_and_boolean_flags_validate() {
        let flags = Flags::parse("up", &strs(&["backends=4", "x=1"]), &["backends", "x"]).unwrap();
        assert_eq!(flags.u64_or("backends", 3), Ok(4));
        assert_eq!(flags.u64_or("missing", 3), Ok(3));
        assert!(flags.bool_or("x", false) && flags.bool_or("missing", true));
        let bad = Flags::parse("up", &strs(&["backends=lots"]), &["backends"]).unwrap();
        assert!(bad.u64_or("backends", 3).is_err());
        assert!(bad.require("log").is_err());
    }
}
