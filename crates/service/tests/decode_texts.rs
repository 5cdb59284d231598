//! Pins the request decoder's behaviour: the exact `bad_request` text of
//! every malformed head, batch and motion-block line a client can send,
//! line numbers included, and the whitespace the tokenizer splits on.
//!
//! Clients see these texts verbatim in `err bad_request <text>` replies,
//! so a faster decoder must reproduce every one of them. The second test
//! pins that fields separated by tabs or Unicode whitespace (U+00A0,
//! U+2003, …) decode exactly as the space-separated form does, because
//! `str::split_whitespace` has always accepted them.

use copred_service::protocol::{Request, Response, ServiceError};
use copred_trace::{MotionTrace, QueryTrace};

/// One valid single-pose, one-CDQ motion block (lines 2–4 after a head).
const BLOCK: &str = "motion S1 1 1\npose 0.0\ncdq 0 0 0 0 0 1 1\n";

/// `check_motion 1 1` followed by `block`: the block header is line 2.
fn batch(block: &str) -> String {
    format!("check_motion 1 1\n{block}")
}

/// `check_pose 1` followed by `block`.
fn pose(block: &str) -> String {
    format!("check_pose 1\n{block}")
}

/// `(frame, exact error text)` for every error `Request::from_text` can
/// return from a head, a batch, or a motion block.
fn request_cases() -> Vec<(String, String)> {
    let mut cases: Vec<(String, String)> = [
        // Framing and verb.
        ("", "empty request"),
        ("   ", "blank request line"),
        ("\u{a0}\t\n", "blank request line"),
        ("warp 9", "unknown verb 'warp'"),
        ("warp\u{2003}9", "unknown verb 'warp'"),
        // open
        ("open", "missing robot name"),
        ("open r", "missing link count"),
        ("open r x", "bad link count"),
        ("open r +1 coord 3", "bad link count"),
        ("open r 1", "missing mode"),
        ("open r 1 warp 3", "bad mode (want coord|naive|csp)"),
        ("open r 1 coord", "missing seed"),
        ("open r 1 coord -3", "bad seed"),
        (
            "open r 1 coord 3 junk",
            "unexpected token 'junk' after seed",
        ),
        (
            "open r 1 coord 3\u{a0}junk",
            "unexpected token 'junk' after seed",
        ),
        ("open r 1 coord 3 fp", "missing fp value"),
        ("open r 1 coord 3 fp zz", "bad fp (want hex)"),
        ("open r 1 coord 3 fp 1f 9", "unexpected token '9' after fp"),
        // check_motion head and batch
        ("check_motion", "missing session"),
        ("check_motion x 1", "bad session"),
        ("check_motion 1", "missing motion count"),
        ("check_motion 1 x", "bad motion count"),
        ("check_motion 1 0", "empty motion batch"),
        (
            "check_motion 1 4097",
            "batch of 4097 exceeds MAX_BATCH (4096)",
        ),
        (
            "check_motion 1 1 spur",
            "unexpected token 'spur' after motion count",
        ),
        ("check_motion 1 1 trace", "missing trace value"),
        (
            "check_motion 1 1 trace zz",
            "bad trace (want 32 hex digits, nonzero)",
        ),
        (
            "check_motion 1 1 trace 00000000000000000000000000000000",
            "bad trace (want 32 hex digits, nonzero)",
        ),
        (
            "check_motion 1 1 trace 000000000000000000000000000000ff junk",
            "unexpected token 'junk' after trace",
        ),
        ("check_motion 1 1", "truncated motion batch"),
        // check_pose head and batch
        ("check_pose", "missing session"),
        ("check_pose +1", "bad session"),
        ("check_pose 1 spur", "unexpected token 'spur' after session"),
        ("check_pose 1 trace", "missing trace value"),
        ("check_pose 1", "missing pose block"),
        // the other verbs' heads
        ("reset", "missing session"),
        ("reset x", "bad session"),
        ("stats x", "bad session"),
        ("dump 3", "unexpected token '3' after dump"),
        ("close", "missing session"),
        ("close nope", "bad session"),
        ("snap_get", "missing fp"),
        ("snap_get zz", "bad fp (want hex)"),
        ("snap_get 1f 9", "unexpected token '9' after fp"),
        ("snap_session", "missing session"),
        ("snap_session 1 2", "unexpected token '2' after session"),
        ("snap_offer", "missing fp"),
        ("snap_offer 1f", "missing snapshot version"),
        ("snap_offer 1f x", "bad snapshot version"),
        ("snap_offer 1f 1", "missing transfer crc"),
        ("snap_offer 1f 1 zz 4", "bad transfer crc (want hex)"),
        ("snap_offer 1f 1 aa", "missing payload length"),
        ("snap_offer 1f 1 aa x", "bad payload length"),
        (
            "snap_offer 1f 1 aa 4 junk",
            "unexpected token 'junk' after payload length",
        ),
        (
            "snap_push 1f 1 aa 4 junk",
            "unexpected token 'junk' after payload length",
        ),
        ("snap_push 1f 1 aa 4\n", "missing snapshot payload"),
        (
            "snap_push 1f 1 aa 4\nca\n",
            "snapshot payload is 1 bytes, declared 4",
        ),
        (
            "snap_push 1f 1 aa 2\ncafe\nextra\n",
            "trailing content after snapshot payload",
        ),
        ("snap_push 1f 1 aa 2\ncafg\n", "bad hex payload"),
        ("snap_push 1f 1 aa 3\ncafe0\n", "odd hex payload length"),
    ]
    .into_iter()
    .map(|(f, e)| (f.to_string(), e.to_string()))
    .collect();

    // Batch structure around valid blocks.
    cases.push((
        format!("check_motion 1 2\n{BLOCK}"),
        "truncated motion batch".into(),
    ));
    cases.push((
        format!("{}extra\n", batch(BLOCK)),
        "trailing content after motion batch".into(),
    ));
    cases.push((
        pose("motion S1 2 0\npose 0.0\npose 0.0\n"),
        "check_pose wants exactly one pose".into(),
    ));
    cases.push((
        format!("{}extra\n", pose(BLOCK)),
        "trailing content after pose block".into(),
    ));

    // Every `TraceParseError` site of `parse_motion_block`, as line
    // `line` (one-based) of a check_motion batch.
    let block_cases: &[(&str, usize, &str)] = &[
        ("motoin S1 1 1\n", 2, "expected 'motion' line"),
        ("\n", 2, "expected 'motion' line"),
        ("motion S3 1 1\n", 2, "bad stage label"),
        ("motion\n", 2, "bad stage label"),
        ("motion S1\n", 2, "missing pose count"),
        ("motion S1 x 1\n", 2, "bad pose count"),
        ("motion S1 99999999999999999999 0\n", 2, "bad pose count"),
        ("motion S1 1\n", 2, "missing cdq count"),
        ("motion S1 1 -1\n", 2, "bad cdq count"),
        ("motion S1 1 1 9\n", 2, "trailing fields on 'motion' line"),
        (
            "motion S1 1 1\u{2003}9\n",
            2,
            "trailing fields on 'motion' line",
        ),
        (
            "motion S1 1048577 0\n",
            2,
            "declared count exceeds MAX_DECLARED",
        ),
        (
            "motion S1 0 1048577\n",
            2,
            "declared count exceeds MAX_DECLARED",
        ),
        // A truncated block is reported at its header line.
        ("motion S1 2 0\npose 0.0\n", 2, "truncated pose block"),
        (
            "motion S1 1 2\npose 0.0\ncdq 0 0 0 0 0 1 1\n",
            2,
            "truncated cdq block",
        ),
        (
            "motion S1 1 1\npoze 0.0\ncdq 0 0 0 0 0 1 1\n",
            3,
            "expected 'pose' line",
        ),
        (
            "motion S1 1 1\npose 0.0 x\ncdq 0 0 0 0 0 1 1\n",
            3,
            "bad pose value",
        ),
        (
            "motion S1 1 1\npose 0.0\u{a0}x\ncdq 0 0 0 0 0 1 1\n",
            3,
            "bad pose value",
        ),
        (
            "motion S1 1 1\npose 0.0\ncqd 0 0 0 0 0 1 1\n",
            4,
            "expected 'cdq' line",
        ),
        ("motion S1 1 1\npose 0.0\ncdq\n", 4, "missing pose idx"),
        (
            "motion S1 1 1\npose 0.0\ncdq -1 0 0 0 0 1 1\n",
            4,
            "bad pose idx",
        ),
        ("motion S1 1 1\npose 0.0\ncdq 0\n", 4, "missing link idx"),
        (
            "motion S1 1 1\npose 0.0\ncdq 0 4294967296 0 0 0 1 1\n",
            4,
            "bad link idx",
        ),
        ("motion S1 1 1\npose 0.0\ncdq 0 0\n", 4, "missing center x"),
        (
            "motion S1 1 1\npose 0.0\ncdq 0 0 x 0 0 1 1\n",
            4,
            "bad center x",
        ),
        (
            "motion S1 1 1\npose 0.0\ncdq 0 0 0\n",
            4,
            "missing center y",
        ),
        (
            "motion S1 1 1\npose 0.0\ncdq 0 0 0 x 0 1 1\n",
            4,
            "bad center y",
        ),
        (
            "motion S1 1 1\npose 0.0\ncdq 0 0 0 0\n",
            4,
            "missing center z",
        ),
        (
            "motion S1 1 1\npose 0.0\ncdq 0 0 0 0 x 1 1\n",
            4,
            "bad center z",
        ),
        (
            "motion S1 1 1\npose 0.0\ncdq 0 0 0 0 0\n",
            4,
            "missing colliding flag",
        ),
        (
            "motion S1 1 1\npose 0.0\ncdq 0 0 0 0 0 256 1\n",
            4,
            "bad colliding flag",
        ),
        (
            "motion S1 1 1\npose 0.0\ncdq 0 0 0 0 0 1\n",
            4,
            "missing obstacle tests",
        ),
        (
            "motion S1 1 1\npose 0.0\ncdq 0 0 0 0 0 1 x\n",
            4,
            "bad obstacle tests",
        ),
        (
            "motion S1 1 1\npose 0.0\ncdq 0 0 0 0 0 1 1 9\n",
            4,
            "trailing fields on 'cdq' line",
        ),
        (
            "motion S1 1 1\npose 0.0\ncdq 0 0 0 0 0 1 1\u{a0}9\n",
            4,
            "trailing fields on 'cdq' line",
        ),
        (
            "motion S1 1 1\npose 0.0\ncdq 1 0 0 0 0 1 1\n",
            4,
            "cdq pose idx out of range",
        ),
    ];
    for &(block, line, what) in block_cases {
        let text = format!("trace parse error at line {line}: {what}");
        cases.push((batch(block), text.clone()));
        cases.push((pose(block), text));
    }
    // The second block of a batch is numbered after the first.
    cases.push((
        format!("check_motion 1 2\n{BLOCK}motion S1 1 1\npose 0.0\ncdq 0 0 0 0 0 x 1\n"),
        "trace parse error at line 7: bad colliding flag".into(),
    ));
    cases
}

#[test]
fn malformed_requests_get_their_exact_bad_request_text() {
    for (frame, want) in request_cases() {
        let got = Request::from_text(&frame).expect_err(&frame);
        assert_eq!(got, want, "{frame:?}");
        assert_eq!(
            Response::Error(ServiceError::BadRequest(got)).to_text(),
            format!("err bad_request {want}\n"),
        );
    }

    // Trace files share the motion-block parser; their own head errors.
    for (text, want) in [
        ("", "trace parse error at line 1: empty trace"),
        (
            "qurey r 1",
            "trace parse error at line 1: expected 'query' header",
        ),
        ("query", "trace parse error at line 1: missing robot name"),
        ("query r", "trace parse error at line 1: missing link count"),
        ("query r x", "trace parse error at line 1: bad link count"),
        (
            "query r 1 2",
            "trace parse error at line 1: trailing fields on 'query' header",
        ),
        (
            "query r 1\nmotion S3 1 1",
            "trace parse error at line 2: bad stage label",
        ),
    ] {
        let got = QueryTrace::from_text(text).expect_err(text).to_string();
        assert_eq!(got, want, "{text:?}");
    }
    for (text, want) in [
        ("", "trace parse error at line 1: empty motion block"),
        (
            "motion S1 1 1\npose 0.0\ncdq 0 0 0 0 0 1 1\nx",
            "trace parse error at line 4: trailing content after motion block",
        ),
        (
            "motion S1 1 1\npose 0.0\ncdq 0 0 0 0 0 1\n",
            "trace parse error at line 3: missing obstacle tests",
        ),
    ] {
        let got = MotionTrace::from_text(text).expect_err(text).to_string();
        assert_eq!(got, want, "{text:?}");
    }

    // The client's response decoder splits its lines the same way.
    for (text, want) in [
        ("", "empty response"),
        ("yes", "response must start with ok/err"),
        ("ok", "unknown ok form"),
        ("ok session", "missing session id"),
        (
            "ok session 1 tepid 1",
            "unexpected token 'tepid' after session id",
        ),
        ("ok results 1", "truncated results"),
        ("ok results 1\nreslt 1 2 3 4", "expected 'result' line"),
        ("ok results 1\nresult 1 2\u{a0}x 4", "bad cdqs total"),
        ("ok results 1\nresult 1 2 3", "missing obstacle tests"),
        ("ok results 4097", "result count exceeds MAX_BATCH"),
        ("ok snap_applied 1f merged", "missing merged flag"),
        ("ok snap_applied 1f mergd 1", "expected 'merged' after fp"),
        ("err", "unknown err code"),
        ("err no_session x", "bad session id"),
    ] {
        let got = Response::from_text(text).expect_err(text);
        assert_eq!(got, want, "{text:?}");
    }
    assert_eq!(
        Response::from_text("err bad_request  trace\u{a0}parse\terror\n").unwrap(),
        Response::Error(ServiceError::BadRequest("trace parse error".into())),
    );
}

#[test]
fn tabs_and_unicode_whitespace_separate_fields_like_spaces() {
    let motion = MotionTrace::synthetic(5);
    let spaced = motion.to_text();
    let head = "check_motion 3 1 trace 000000000000000000000000000000ab\n";
    let plain = Request::from_text(&format!("{head}{spaced}")).unwrap();
    let Request::CheckMotion { motions, .. } = &plain else {
        panic!("decoded as {plain:?}");
    };
    assert_eq!(motions, &vec![motion.clone()]);

    // Every separator `str::split_whitespace` knows, runs of them, and
    // leading or trailing whitespace on every line.
    let seps = [
        "\t", "\u{a0}", "\u{2003}", " \t ", "\u{b}", "\u{c}", "\r", "\u{85}", "\u{3000}", "  ",
    ];
    for (k, lead) in ["", "\t", "\u{a0}", "\u{2003} "].into_iter().enumerate() {
        let mut n = k;
        let mut respace = |text: &str| -> String {
            text.lines()
                .map(|line| {
                    let fields: Vec<&str> = line.split(' ').collect();
                    let mut out = lead.to_string();
                    for (i, f) in fields.iter().enumerate() {
                        if i > 0 {
                            out.push_str(seps[n % seps.len()]);
                            n += 1;
                        }
                        out.push_str(f);
                    }
                    out.push_str(lead);
                    out.push('\n');
                    out
                })
                .collect()
        };
        let block = respace(&spaced);
        assert_ne!(block, spaced);
        assert_eq!(MotionTrace::from_text(&block).unwrap(), motion, "{block:?}");
        let frame = format!("{}{block}", respace(head));
        assert_eq!(Request::from_text(&frame).unwrap(), plain, "{frame:?}");
        let pose_motion = MotionTrace {
            poses: motion.poses[..1].to_vec(),
            cdqs: motion.cdqs[..2].to_vec(),
            ..motion.clone()
        };
        let pose_frame = format!(
            "{}{}",
            respace("check_pose 3\n"),
            respace(&pose_motion.to_text())
        );
        assert_eq!(
            Request::from_text(&pose_frame).unwrap(),
            Request::CheckPose {
                session: 3,
                motion: pose_motion,
                trace: None,
            },
            "{pose_frame:?}"
        );
    }
}
