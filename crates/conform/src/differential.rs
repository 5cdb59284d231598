//! Stages 5–7: one recorded workload, several arms, one engine.
//!
//! Each case records its workload's op stream ([`copred_replay::trace_log`])
//! on a fresh loopback server ([`copred_replay::record`]) and replays
//! it through [`copred_replay::run_ab`], which holds every arm against
//! the recording, the other arms, and a re-run, and audits aggregates
//! and per-session ledgers. Only what each stage adds lives here:
//!
//! * **Stage 5, record → replay** — arms: in-process and loopback, plus
//!   an in-process re-run; the recording must have sessions to audit.
//! * **Stage 6, tracing invisibility** — recordings with client trace ids
//!   off and on match byte-for-byte once the tokens are stripped (and
//!   the traced one carries tokens); the untraced log replays with and
//!   without freshly injected ids, the traced one with its tokens echoed,
//!   and all three answer alike.
//! * **Stage 7, profiling invisibility** — one log replays against
//!   servers with the stage sampler off and on; the unsampled server's
//!   profile is empty and the sampled one keeps its shape invariants
//!   (per-thread fractions ≤ 1.0, known stage labels). Sample counts are
//!   wall-clock dependent and not asserted.

use crate::Case;
use copred_replay::{
    record, strip_trace_token, trace_log, Arm, Differential, InProcessBackend, LoopbackBackend,
    ReplayLog, ReplayOptions,
};
use copred_service::ServerConfig;

/// Records this case's workload (3 traces) against a default server.
fn record_case(c: &Case<'_>, trace_ids: bool) -> Result<ReplayLog, String> {
    let batch = 1 + (c.index % 3) as usize;
    let mut log = trace_log(&c.traces(3), c.mode(), c.seed, batch, None, trace_ids);
    log.meta.workload = "conform".to_string();
    let mut server = LoopbackBackend::start(ServerConfig::default())
        .map_err(|e| format!("recording server failed to start: {e}"))?;
    record(&log, &mut server)
}

/// A loopback server with default settings except the stage sampler.
fn loopback(profile_sampler: bool) -> std::io::Result<LoopbackBackend> {
    LoopbackBackend::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        profile_sampler,
        ..ServerConfig::default()
    })
}

/// Stage 5: a recorded run replays bit-identically in-process and over
/// loopback, deterministically, with the recorded per-session ledger.
pub(crate) fn replay_case(c: &mut Case<'_>) {
    let log = match record_case(c, false) {
        Ok(l) => l,
        Err(e) => return c.fail(e),
    };
    let mut wire = match loopback(true) {
        Ok(b) => b,
        Err(e) => return c.fail(format_args!("loopback server failed to start: {e}")),
    };
    let mut inproc = InProcessBackend::with_server_defaults();
    let mut again = InProcessBackend::with_server_defaults().labeled("rerun");
    let ab = c.run(
        "replay",
        Differential {
            log: &log,
            arms: vec![
                Arm::new(&mut inproc),
                Arm::new(&mut wire),
                Arm::new(&mut again),
            ],
        },
    );
    if let Some(ab) = ab {
        if ab.recorded_ledgers.is_empty() || ab.first().ledgers.is_none() {
            c.fail("the recording left no per-session ledger to audit");
        }
    }
}

/// Stage 6: tracing on or off, recorded or injected, changes nothing but
/// the trace tokens themselves.
pub(crate) fn trace_case(c: &mut Case<'_>) {
    let (plain, traced) = match (record_case(c, false), record_case(c, true)) {
        (Ok(p), Ok(t)) => (p, t),
        (Err(e), _) | (_, Err(e)) => return c.fail(e),
    };

    // The live A/B: both recordings are the same op stream, byte for byte
    // once the tokens are stripped.
    if plain.records.len() != traced.records.len() {
        c.fail(format_args!(
            "op counts diverged: {} untraced vs {} traced",
            plain.records.len(),
            traced.records.len()
        ));
        return;
    }
    let mut tokens_seen = 0u64;
    for (p, t) in plain.records.iter().zip(&traced.records) {
        c.ops += 1;
        tokens_seen += u64::from(t.verb == "check_motion" && t.request.contains(" trace "));
        let same = p.verb == t.verb
            && p.tag == t.tag
            && p.session == t.session
            && p.request == strip_trace_token(&t.request)
            && p.response == strip_trace_token(&t.response);
        if !same {
            c.fail(format_args!(
                "op {} diverged beyond the trace token: {:?} -> {:?} vs {:?} -> {:?}",
                p.idx, p.request, p.response, t.request, t.response
            ));
        }
    }
    if tokens_seen == 0 {
        c.fail("traced run carried no trace tokens on check ops");
    }

    // Injection: fresh trace ids on the untraced log must not perturb the
    // replay.
    let (mut untouched, mut injected) = (
        InProcessBackend::with_server_defaults(),
        InProcessBackend::with_server_defaults().labeled("injected"),
    );
    let inject = ReplayOptions {
        trace_seed: Some(c.seed ^ 0x07AC_E1D5),
        ..ReplayOptions::default()
    };
    let plain_ab = c.run(
        "untraced log",
        Differential {
            log: &plain,
            arms: vec![
                Arm::new(&mut untouched),
                Arm {
                    backend: &mut injected,
                    opts: inject,
                },
            ],
        },
    );
    // Echo: the traced log replays with its recorded tokens.
    let mut echo = InProcessBackend::with_server_defaults().labeled("echo");
    let traced_ab = c.run(
        "traced log",
        Differential {
            log: &traced,
            arms: vec![Arm::new(&mut echo)],
        },
    );
    if let (Some(p), Some(t)) = (plain_ab, traced_ab) {
        if p.first().out.responses != t.first().out.responses {
            c.fail("injected and echoed replays diverged beyond trace tokens");
        }
    }
}

/// Stage 7: the stage sampler is invisible on the wire, absent when off,
/// and well-formed when on.
pub(crate) fn profile_case(c: &mut Case<'_>) {
    let log = match record_case(c, false) {
        Ok(l) => l,
        Err(e) => return c.fail(e),
    };
    let (mut off, mut on) = match (loopback(false), loopback(true)) {
        (Ok(a), Ok(b)) => (a.labeled("sampler-off"), b.labeled("sampler-on")),
        (Err(e), _) | (_, Err(e)) => {
            return c.fail(format_args!("loopback server failed to start: {e}"))
        }
    };
    c.run(
        "sampler off vs on",
        Differential {
            log: &log,
            arms: vec![Arm::new(&mut off), Arm::new(&mut on)],
        },
    );

    let off_profile = off.server().map(copred_service::Server::profile);
    if let Some(p) = off_profile.filter(|p| p.samples() != 0 || p.threads() != 0) {
        c.fail(format_args!(
            "sampler-off server still profiled: {} samples on {} threads",
            p.samples(),
            p.threads()
        ));
    }
    let Some(profile) = on.server().map(copred_service::Server::profile) else {
        return c.fail("sampler-on arm owns no server");
    };
    for (tid, _weight, fractions) in profile.thread_fractions() {
        let total: f64 = fractions.iter().map(|(_, f)| f).sum();
        if total > 1.0 + 1e-9 {
            c.fail(format_args!(
                "thread {tid} stage fractions sum to {total} > 1.0"
            ));
        }
    }
    let labels: Vec<&str> = copred_obs::Stage::ALL.iter().map(|s| s.label()).collect();
    for line in profile.folded().lines() {
        let path = line.split(' ').next().unwrap_or("");
        for frame in path.split(';').filter(|f| !labels.contains(f)) {
            c.fail(format_args!(
                "folded output carries unknown stage label {frame:?} in {line:?}"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioGen;

    fn one_case(stage: usize, f: fn(&mut Case<'_>)) {
        let gen = ScenarioGen::new(41);
        let mut c = Case::new(&gen, stage, 4100, 0);
        f(&mut c);
        assert!(c.failures.is_empty(), "{:?}", c.failures);
        assert!(c.ops > 0);
    }

    #[test]
    fn replay_case_is_clean() {
        one_case(5, replay_case);
    }

    #[test]
    fn trace_case_is_clean() {
        one_case(6, trace_case);
    }

    #[test]
    fn profile_case_is_clean() {
        one_case(7, profile_case);
    }
}
