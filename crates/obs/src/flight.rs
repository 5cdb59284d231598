//! Always-on flight recorder: the last [`FLIGHT_CAPACITY`] op summaries
//! of each thread — the "black box" that an admin `dump` op,
//! `GET /debug/flight` or a latency-threshold trip reads.
//!
//! A flight op is an [`Event`] with `cat: "op"`, kept in the calling
//! thread's flight ring next to its span ring (see [`crate::span`]).
//! Unlike spans it is never disabled: the value of a black box is the most
//! recent history, so recording costs one uncontended per-thread lock and
//! a slot store, with no allocation per op and no lock shared across
//! threads. Snapshots are non-destructive and sequence-ordered; ops of
//! exited threads stay visible in a bounded retired ring.

use crate::span::{self, Event, Recorder};
use crate::tracectx;

/// Per-thread ring capacity (entries).
pub const FLIGHT_CAPACITY: usize = 256;

/// Retired-thread ring capacity (entries, across all exited threads).
pub(crate) const FLIGHT_RETIRED_CAPACITY: usize = 1024;

/// Notes a completed protocol op in the calling thread's flight ring
/// (`value` = session id or batch size, `dur_ns` = end-to-end latency).
/// Always on — there is no enable gate to check.
pub fn flight_op(name: &'static str, value: u64, dur_ns: u64) {
    span::record(
        Recorder::Flight,
        Event {
            name,
            cat: "op",
            ts_ns: span::now_ns(),
            dur_ns,
            value,
            ..Event::default()
        },
    );
}

/// Takes a non-destructive, sequence-ordered snapshot of every thread's
/// flight ring plus the retired ring.
pub fn flight_snapshot() -> Vec<Event> {
    span::collect(Recorder::Flight, false)
}

/// Renders flight entries as a JSON array (one object per entry), the
/// `/debug/flight` payload. Trace ids render as 32-digit hex strings;
/// entries without a trace carry an empty string.
pub fn flight_json(entries: &[Event]) -> String {
    let mut out = String::with_capacity(entries.len() * 96 + 16);
    out.push('[');
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let trace = match tracectx::TraceId::new(e.trace) {
            Some(id) => id.to_hex(),
            None => String::new(),
        };
        out.push_str(&format!(
            "{{\"kind\":\"{}\",\"name\":\"{}\",\"tid\":{},\"seq\":{},\"ts_ns\":{},\"dur_ns\":{},\"value\":{},\"trace\":\"{}\"}}",
            crate::chrome::json_escape(e.cat),
            crate::chrome::json_escape(e.name),
            e.tid,
            e.seq,
            e.ts_ns,
            e.dur_ns,
            e.value,
            trace
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraparound_keeps_the_newest_entries_in_order() {
        // Run in a dedicated thread so this test owns its ring regardless
        // of what other tests in the process have recorded.
        let entries = std::thread::spawn(|| {
            let total = FLIGHT_CAPACITY + 57;
            for i in 0..total {
                flight_op("wrap_test", i as u64, 0);
            }
            let snap: Vec<Event> = flight_snapshot()
                .into_iter()
                .filter(|e| e.name == "wrap_test")
                .collect();
            (snap, total)
        })
        .join()
        .unwrap();
        let (snap, total) = entries;
        assert_eq!(snap.len(), FLIGHT_CAPACITY, "ring holds exactly capacity");
        // The survivors are precisely the newest `FLIGHT_CAPACITY` ops,
        // oldest-first: values [total-cap, total).
        let expect_first = (total - FLIGHT_CAPACITY) as u64;
        for (i, e) in snap.iter().enumerate() {
            assert_eq!(e.value, expect_first + i as u64, "overwrite order at {i}");
            assert_eq!(e.cat, "op");
        }
        for w in snap.windows(2) {
            assert!(w[0].seq < w[1].seq, "snapshot must be seq-ordered");
        }
    }

    #[test]
    fn entries_capture_the_current_trace() {
        std::thread::spawn(|| {
            let id = tracectx::TraceId::new(0x51C4_F00D).unwrap();
            {
                let _t = tracectx::TraceScope::enter(Some(id));
                flight_op("traced_op", 1, 500);
            }
            flight_op("untraced_op", 2, 0);
            let snap = flight_snapshot();
            let op = snap.iter().find(|e| e.name == "traced_op").unwrap();
            assert_eq!(op.trace, id.raw());
            let bare = snap.iter().find(|e| e.name == "untraced_op").unwrap();
            assert_eq!(bare.trace, 0);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn exited_threads_fold_into_the_retired_buffer() {
        std::thread::spawn(|| {
            flight_op("retired_op", 99, 0);
        })
        .join()
        .unwrap();
        // Two snapshots: the first folds the dead ring into the retired
        // buffer, the second must still see the entry there.
        let first = flight_snapshot();
        assert!(first
            .iter()
            .any(|e| e.name == "retired_op" && e.value == 99));
        let second = flight_snapshot();
        assert!(second
            .iter()
            .any(|e| e.name == "retired_op" && e.value == 99));
    }

    #[test]
    fn flight_json_is_parseable_shape() {
        let entries = vec![Event {
            name: "check_motion",
            cat: "op",
            tid: 3,
            seq: 41,
            ts_ns: 1_000,
            dur_ns: 2_000,
            value: 7,
            trace: 0xAB,
            ..Event::default()
        }];
        let json = flight_json(&entries);
        assert_eq!(
            json,
            "[{\"kind\":\"op\",\"name\":\"check_motion\",\"tid\":3,\"seq\":41,\"ts_ns\":1000,\
             \"dur_ns\":2000,\"value\":7,\"trace\":\"000000000000000000000000000000ab\"}]"
        );
        assert_eq!(flight_json(&[]), "[]");
    }
}
