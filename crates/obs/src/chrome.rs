//! The Chrome `chrome://tracing` / Perfetto exporter for recorded events.
//!
//! Spans are emitted as complete (`"ph":"X"`) events, markers as instants
//! (`"ph":"i"`), counter samples as `"ph":"C"` — load the file straight
//! into `chrome://tracing` or <https://ui.perfetto.dev>.

use crate::span::{Event, EventKind};
use std::fmt::Write as _;

/// Escapes a string for a JSON string literal. Names are `&'static str`
/// instrumentation constants, but escaping keeps the exporter total for
/// hostile inputs: quotes, backslashes, every C0 control character, DEL,
/// and the U+2028/U+2029 line separators (legal in JSON strings but
/// hostile to log pipelines that treat output as line-oriented JS) are
/// escaped; all other non-ASCII passes through as raw UTF-8, which JSON
/// permits.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 || c == '\u{7f}' || c == '\u{2028}' || c == '\u{2029}' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the trace-id args suffix (`,"args":{"trace":"<hex32>"}`) for
/// events stamped with a causal trace; empty for untraced events so
/// traceless exports are byte-identical to the pre-trace format.
fn trace_args(e: &Event) -> String {
    match crate::tracectx::TraceId::new(e.trace) {
        Some(id) => format!(",\"args\":{{\"trace\":\"{}\"}}", id.to_hex()),
        None => String::new(),
    }
}

fn write_event_json(out: &mut String, e: &Event) {
    // Chrome traces use microsecond floats; keep ns precision in the
    // fraction.
    let ts_us = e.ts_ns as f64 / 1000.0;
    let name = json_escape(e.name);
    let cat = json_escape(e.cat);
    match e.kind {
        EventKind::Span => {
            let dur_us = e.dur_ns as f64 / 1000.0;
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{ts_us:.3},\"dur\":{dur_us:.3}{}}}",
                e.tid,
                trace_args(e)
            );
        }
        EventKind::Instant => {
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{ts_us:.3}{}}}",
                e.tid,
                trace_args(e)
            );
        }
        EventKind::Counter => {
            let trace = match crate::tracectx::TraceId::new(e.trace) {
                Some(id) => format!(",\"trace\":\"{}\"", id.to_hex()),
                None => String::new(),
            };
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"C\",\"pid\":1,\"tid\":{},\"ts\":{ts_us:.3},\"args\":{{\"value\":{}{}}}}}",
                e.tid, e.value, trace
            );
        }
    }
}

/// Renders events as a Chrome trace (`{"traceEvents": [...]}`).
pub fn chrome_trace_json(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 32);
    out.push_str("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        write_event_json(&mut out, e);
    }
    out.push_str("\n]}\n");
    out
}

/// Renders events as a Chrome trace with a `copredProfile` self-profile
/// section: the sampler's folded stacks and stats ride along as an extra
/// top-level key, which `chrome://tracing`/Perfetto ignore but tooling
/// can extract. The `traceEvents` array is byte-identical to
/// [`chrome_trace_json`]'s.
pub fn chrome_trace_json_with_profile(events: &[Event], profile: &crate::Profile) -> String {
    let plain = chrome_trace_json(events);
    let body = plain
        .strip_suffix("}\n")
        .expect("chrome_trace_json ends the object");
    let snap = profile.snapshot();
    format!(
        "{body},\"copredProfile\":{{\"samples\":{},\"threads\":{},\"drops\":{},\"skews\":{},\"folded\":\"{}\"}}}}\n",
        snap.samples,
        snap.threads,
        snap.drops,
        snap.skews,
        json_escape(&profile.folded())
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Event> {
        vec![
            Event {
                name: "decode",
                cat: "service",
                kind: EventKind::Span,
                tid: 2,
                seq: 0,
                ts_ns: 1_500,
                dur_ns: 2_250,
                value: 0,
                trace: 0,
            },
            Event {
                name: "queue_depth",
                cat: "service",
                kind: EventKind::Counter,
                tid: 2,
                seq: 1,
                ts_ns: 4_000,
                dur_ns: 0,
                value: 17,
                trace: 0,
            },
            Event {
                name: "evicted",
                cat: "service",
                kind: EventKind::Instant,
                tid: 3,
                seq: 2,
                ts_ns: 9_000,
                dur_ns: 0,
                value: 0,
                trace: 0,
            },
        ]
    }

    #[test]
    fn chrome_json_has_all_phases() {
        let json = chrome_trace_json(&sample());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"dur\":2.250"));
        assert!(json.contains("\"value\":17"));
        // Balanced braces/brackets — a cheap well-formedness check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn names_are_escaped() {
        let ev = Event {
            name: "weird\"name\\with\ncontrol",
            cat: "c",
            ..Event::default()
        };
        let json = chrome_trace_json(&[ev]);
        assert!(json.contains("weird\\\"name\\\\with\\ncontrol"));
    }

    #[test]
    fn empty_trace_is_valid() {
        assert_eq!(chrome_trace_json(&[]), "{\"traceEvents\":[\n]}\n");
    }

    #[test]
    fn self_profile_section_rides_along_without_touching_events() {
        use crate::{Profile, Stage};
        let mut profile = Profile::default();
        profile.add_path(0, &[Stage::Execute, Stage::Predict], 3);
        profile.drops = 1;
        let with = chrome_trace_json_with_profile(&sample(), &profile);
        let plain = chrome_trace_json(&sample());
        // The traceEvents array is byte-identical; the profile section is
        // a sibling top-level key viewers ignore.
        let events_part = plain.strip_suffix("}\n").unwrap();
        assert!(with.starts_with(events_part), "{with}");
        assert!(with.contains("\"copredProfile\":{"), "{with}");
        assert!(with.contains("\"samples\":3"), "{with}");
        assert!(with.contains("\"drops\":1"), "{with}");
        assert!(with.contains("execute;predict 3\\n"), "{with}");
        assert_eq!(with.matches('{').count(), with.matches('}').count());
    }

    #[test]
    fn traced_events_carry_trace_args_untraced_stay_identical() {
        let mut evs = sample();
        let before = chrome_trace_json(&evs);
        evs[0].trace = 0xFEED;
        evs[1].trace = 0xFEED;
        let json = chrome_trace_json(&evs);
        let hex = "0000000000000000000000000000feed";
        assert!(json.contains(&format!("\"args\":{{\"trace\":\"{hex}\"}}")));
        assert!(json.contains(&format!("\"value\":17,\"trace\":\"{hex}\"")));
        // The untraced instant line is byte-identical to the old format.
        evs[0].trace = 0;
        evs[1].trace = 0;
        assert_eq!(chrome_trace_json(&evs), before);
    }

    /// A strict JSON string-literal parser: consumes `"..."` from the
    /// front of `s`, returning the decoded string and the rest. Rejects
    /// raw control characters, bad escapes, and bad `\uXXXX` forms — the
    /// verifier half of the escaping property test.
    fn parse_json_string(s: &str) -> Option<(String, &str)> {
        let mut chars = s.char_indices();
        match chars.next() {
            Some((_, '"')) => {}
            _ => return None,
        }
        let mut out = String::new();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => return Some((out, &s[i + 1..])),
                '\\' => match chars.next()?.1 {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'b' => out.push('\u{8}'),
                    'f' => out.push('\u{c}'),
                    'u' => {
                        let mut v = 0u32;
                        for _ in 0..4 {
                            let d = chars.next()?.1.to_digit(16)?;
                            v = v * 16 + d;
                        }
                        // Surrogate pairs never occur: the escaper only
                        // \u-escapes BMP scalars below U+2030.
                        out.push(char::from_u32(v)?);
                    }
                    _ => return None,
                },
                c if (c as u32) < 0x20 => return None,
                c => out.push(c),
            }
        }
        None
    }

    #[test]
    fn escaping_round_trips_hostile_strings() {
        // Property: for arbitrary strings — quotes, backslashes, every
        // control character, DEL, line separators, multi-byte UTF-8 —
        // json_escape produces a literal the strict parser decodes back
        // to the original.
        let mut cases: Vec<String> = vec![
            String::new(),
            "plain".into(),
            "\"quoted\" and \\back\\slashed\\".into(),
            "tabs\tand\nnewlines\rand\u{7f}del".into(),
            "línea…ユニコード🎯".into(),
            "line\u{2028}sep\u{2029}para".into(),
            "\\u0041 literal backslash-u".into(),
        ];
        for b in 0u8..0x20 {
            cases.push(format!("ctl<{}>", b as char));
        }
        // Seeded pseudo-random strings mixing all the above classes.
        let alphabet: Vec<char> = ('\u{0}'..='\u{2f}')
            .chain(['"', '\\', '\u{7f}', '\u{2028}', '\u{2029}', 'é', '中', '🚀'])
            .collect();
        let mut state = 0x5EED_1234_u64;
        for _ in 0..500 {
            let mut s = String::new();
            for _ in 0..(state % 24) {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                s.push(alphabet[(state >> 33) as usize % alphabet.len()]);
            }
            cases.push(s);
        }
        for case in &cases {
            let escaped = json_escape(case);
            // No raw control chars or unescaped quotes survive.
            assert!(
                escaped.chars().all(|c| (c as u32) >= 0x20),
                "raw control in {escaped:?}"
            );
            let literal = format!("\"{escaped}\"");
            let (decoded, rest) =
                parse_json_string(&literal).unwrap_or_else(|| panic!("unparseable: {literal:?}"));
            assert_eq!(&decoded, case);
            assert!(rest.is_empty());
        }
    }

    #[test]
    fn exporters_round_trip_hostile_names() {
        // Run a hostile name through the full Chrome exporter and
        // re-extract it with the strict parser.
        let name: &'static str = "h0stile \"name\"\\\n\t\u{7f}\u{2028}日本語";
        let ev = Event {
            name,
            cat: "cat\"egory\\",
            kind: EventKind::Span,
            ..Event::default()
        };
        let rendered = chrome_trace_json(&[ev]);
        let at = rendered.find("\"name\":").expect("name key") + "\"name\":".len();
        let (decoded, _) = parse_json_string(&rendered[at..]).expect("strict parse");
        assert_eq!(decoded, name);
        let at = rendered.find("\"cat\":").expect("cat key") + "\"cat\":".len();
        let (decoded, _) = parse_json_string(&rendered[at..]).expect("strict parse");
        assert_eq!(decoded, "cat\"egory\\");
    }
}
