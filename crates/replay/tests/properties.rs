//! Property tests for the CPRDLOG container and the replay engine
//! (ISSUE 6 satellites): round-trips are bit-exact for any record count
//! and hostile payloads, a tail torn at *every* byte offset yields the
//! clean prefix, replay of one log is deterministic down to the metrics
//! ledger, and scaled mode preserves op order at every speed factor.

use copred_replay::format::{encode_header, encode_record, read_log, write_log};
use copred_replay::{
    run_ab, run_replay, unrecorded_log, Arm, Clock, Differential, InProcessBackend, LogMeta,
    LogRecord, ReplayLog, ReplayLogError, ReplayMode, ReplayOptions,
};
use copred_service::protocol::{Request, Response, SchedMode};
use copred_store::crc::{crc32, crc32_update, CRC32_INIT};
use copred_trace::MotionTrace;
use proptest::prelude::*;

/// Characters chosen to stress the string encoding: ASCII, whitespace
/// and backslash, multi-byte UTF-8, and quotes.
const PALETTE: &[char] = &[
    'a', 'Z', '0', ' ', '\t', '\n', '\r', '\\', '"', '=', 'é', '日', '🦀',
];

fn hostile_string() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..PALETTE.len(), 0..24)
        .prop_map(|idxs| idxs.into_iter().map(|i| PALETTE[i]).collect())
}

fn arb_record() -> impl Strategy<Value = LogRecord> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (hostile_string(), hostile_string(), hostile_string()),
        (hostile_string(), hostile_string()),
    )
        .prop_map(
            |((idx, session, start_ns, duration_ns), (verb, status, tag), (request, response))| {
                LogRecord {
                    idx,
                    session,
                    start_ns,
                    duration_ns,
                    verb,
                    status,
                    tag,
                    request,
                    response,
                }
            },
        )
}

fn arb_meta() -> impl Strategy<Value = LogMeta> {
    (
        any::<u64>(),
        any::<u64>(),
        hostile_string(),
        hostile_string(),
        hostile_string(),
    )
        .prop_map(|(seed, fingerprint, robot, workload, scale)| LogMeta {
            seed,
            fingerprint,
            robot,
            workload,
            scale,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn log_roundtrip_bit_exact_any_record_count(
        meta in arb_meta(),
        records in prop::collection::vec(arb_record(), 0..10),
    ) {
        let bytes = write_log(&meta, &records);
        let back = read_log(&bytes).expect("own encoding must decode");
        prop_assert!(back.complete);
        prop_assert_eq!(&back.meta, &meta);
        prop_assert_eq!(&back.records, &records);
        // Bit-exact: re-encoding the parse reproduces the input bytes.
        prop_assert_eq!(write_log(&back.meta, &back.records), bytes);
    }

    #[test]
    fn torn_tail_at_every_byte_offset_yields_clean_prefix(
        meta in arb_meta(),
        records in prop::collection::vec(arb_record(), 1..6),
    ) {
        let bytes = write_log(&meta, &records);
        // Record boundaries: header end, then each record's end.
        let mut boundaries = vec![encode_header(&meta).len()];
        for rec in &records {
            boundaries.push(boundaries.last().unwrap() + encode_record(rec).len());
        }
        let header_end = boundaries[0];
        for cut in 0..bytes.len() {
            let truncated = &bytes[..cut];
            if cut < header_end {
                // No complete header: a structured error, never a panic.
                prop_assert!(read_log(truncated).is_err(), "cut at {}", cut);
                continue;
            }
            let log = match read_log(truncated) {
                Ok(log) => log,
                Err(e) => panic!("cut at {cut}: torn tail must parse, got {e}"),
            };
            prop_assert!(!log.complete, "cut at {} claims a sealed log", cut);
            // The clean prefix: every record whose bytes fully precede
            // the cut.
            let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            let expect = whole.min(records.len());
            prop_assert_eq!(log.records.len(), expect, "cut at {}", cut);
            prop_assert_eq!(&log.records[..], &records[..expect], "cut at {}", cut);
        }
        // And the untruncated log is complete.
        prop_assert!(read_log(&bytes).expect("full log").complete);
    }

    #[test]
    fn incremental_crc_matches_store_crc(
        data in prop::collection::vec(any::<u8>(), 0..200),
        cut in 0usize..200,
    ) {
        // The log writer's streamed checksum equals the one-shot CRC the
        // reader verifies, wherever the stream is split.
        let (a, b) = data.split_at(cut.min(data.len()));
        prop_assert_eq!(!crc32_update(crc32_update(CRC32_INIT, a), b), crc32(&data));
    }

    #[test]
    fn version_bump_is_rejected_not_misread(version in 2u32..=u32::MAX) {
        let mut bytes = write_log(&LogMeta::default(), &[]);
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        prop_assert_eq!(
            read_log(&bytes).unwrap_err(),
            ReplayLogError::VersionMismatch { found: version }
        );
    }
}

/// Builds a replayable log the way the recorder would, without a live
/// server: synthesize the requests, replay them once (comparison off)
/// against a default in-process backend, and write the harvested
/// responses back as the "recording".
fn recorded_log(seed: u64) -> ReplayLog {
    let mut requests: Vec<(u64, Request)> = Vec::new();
    for trace in 0..2u64 {
        // Recorded session tokens are arbitrary; the engine remaps them.
        let token = 70 + trace;
        requests.push((
            token,
            Request::Open {
                robot: "planar-2d".to_string(),
                link_count: 2,
                mode: SchedMode::Coord,
                seed: seed ^ trace,
                fp: None,
            },
        ));
        for batch in 0..2u64 {
            let motions: Vec<MotionTrace> = (0..2)
                .map(|m| MotionTrace::synthetic(seed + trace * 100 + batch * 10 + m))
                .collect();
            requests.push((
                token,
                Request::CheckMotion {
                    session: token,
                    motions,
                    trace: None,
                },
            ));
        }
        requests.push((token, Request::Close { session: token }));
    }
    let mut log = unrecorded_log(requests);
    log.meta.seed = seed;
    let mut backend = InProcessBackend::with_server_defaults();
    let opts = ReplayOptions {
        mode: ReplayMode::Sequential,
        compare: false,
        trace_seed: None,
    };
    let harvest = run_replay(&log, &mut backend, &opts).expect("harvest replay");
    assert_eq!(harvest.backend_errors, 0, "harvest must succeed cleanly");
    for (rec, resp) in log.records.iter_mut().zip(&harvest.responses) {
        rec.response.clone_from(resp);
    }
    log
}

#[test]
fn replay_is_deterministic_down_to_the_ledger() {
    let log = recorded_log(0xD5EED);
    // The log itself round-trips through bytes first: determinism must
    // hold for the *serialized* artifact, not the in-memory value.
    let log = read_log(&write_log(&log.meta, &log.records)).expect("roundtrip");

    // Bit-identical to the recording, both times, with equal aggregates
    // and per-session metrics ledgers.
    let mut first = InProcessBackend::with_server_defaults();
    let mut second = InProcessBackend::with_server_defaults().labeled("rerun");
    let ab = run_ab(Differential {
        log: &log,
        arms: vec![Arm::new(&mut first), Arm::new(&mut second)],
    })
    .expect("replay");
    assert!(ab.failures().is_empty(), "{:?}", ab.failures());
    let ledgers = ab.first().ledgers.clone().expect("in-process ledgers");
    assert_eq!(ledgers, ab.recorded_ledgers);
    assert!(ledgers.len() == 2 && ledgers.iter().all(|l| l.checks > 0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn scaled_mode_preserves_op_order_at_every_speed_factor(
        exp in -2i32..7,
        seed in any::<u64>(),
    ) {
        let factor = 10f64.powi(exp);
        let log = recorded_log(seed);
        let baseline = {
            let mut b = InProcessBackend::with_server_defaults();
            run_replay(&log, &mut b, &ReplayOptions::default()).expect("sequential")
        };
        let mut b = InProcessBackend::with_server_defaults();
        let opts = ReplayOptions {
            mode: ReplayMode::Scaled { factor },
            compare: true,
            trace_seed: None,
        };
        let scaled = run_replay(&log, &mut b, &opts).expect("scaled");
        // Order preserved ⇒ the same answers in the same positions, and
        // no divergence from the recording.
        prop_assert!(scaled.is_identical(), "factor {}: {:?}", factor, scaled.mismatches);
        prop_assert_eq!(&scaled.responses, &baseline.responses);
    }

    #[test]
    fn timing_virtual_replay_matches_sequential(seed in any::<u64>()) {
        let log = recorded_log(seed);
        let mut seq = InProcessBackend::with_server_defaults();
        let mut vt = InProcessBackend::with_server_defaults();
        let a = run_replay(&log, &mut seq, &ReplayOptions::default()).expect("sequential");
        let opts = ReplayOptions {
            mode: ReplayMode::Timing { clock: Clock::Virtual },
            compare: true,
            trace_seed: None,
        };
        let b = run_replay(&log, &mut vt, &opts).expect("virtual");
        prop_assert!(b.is_identical());
        prop_assert_eq!(b.lag_ns, 0);
        prop_assert_eq!(&a.responses, &b.responses);
    }
}

#[test]
fn responses_survive_the_wire_format() {
    // Harvested responses are genuine wire payloads; spot-check one
    // parses as a Results frame with per-check counters.
    let log = recorded_log(7);
    let check = log
        .records
        .iter()
        .find(|r| r.verb == "check_motion")
        .expect("a check op");
    match Response::from_text(&check.response) {
        Ok(Response::Results { results: rs, .. }) => {
            assert_eq!(rs.len(), 2);
            assert!(rs.iter().all(|r| r.cdqs_total > 0));
        }
        other => panic!("want results, got {other:?}"),
    }
}
