//! The copred-service wire protocol.
//!
//! Requests and responses are UTF-8 text payloads carried in the
//! length-prefixed frames of [`copred_trace::frame`]. The first line of a
//! payload names the verb; motion payloads reuse the `motion` block
//! encoding of [`copred_trace::MotionTrace`] verbatim, so captured traces
//! frame directly onto the wire.
//!
//! ```text
//! request                                  response
//! ------------------------------------     ---------------------------------
//! open <robot> <links> <mode> <seed>       ok session <id> warm <0|1>
//!      [fp <hex>]
//! check_motion <session> <n> \n blocks…    ok results <n> \n result … per motion
//! check_pose <session> \n one block        ok results 1 \n result …
//! reset <session>                          ok reset
//! stats [<session>]                        ok stats <n> \n <key> <value> …
//! dump                                     ok dump <entries>
//! close <session>                          ok closed
//! snap_get <fp-hex>                        ok snap <fp-hex> <len> \n <hex payload>
//!                                          ok snap_none <fp-hex>
//! snap_session <session>                   ok snap <fp-hex> <len> \n <hex payload>
//! snap_offer <fp-hex> <ver> <crc-hex> <len>  ok snap_want <fp-hex> <0|1>
//! snap_push <fp-hex> <ver> <crc-hex> <len>   ok snap_applied <fp-hex> merged <0|1>
//!           \n <hex payload>
//! (any)                                    err retry_after <ms> <message>
//! (any)                                    err <code> <message>
//! ```
//!
//! The `snap_*` verbs are the fleet replication ops: a snapshot payload is
//! a complete CPRDSNAP byte string ([`copred_store::snapshot`]), hex-coded
//! onto the wire. `snap_push` carries the transfer length and CRC
//! explicitly so a torn or corrupted transfer is rejected *before* the
//! snapshot decoder runs; the CPRDSNAP header's own version and CRC are
//! then validated by the decoder. Servers without a store answer every
//! `snap_*` op with a structured error — old clients never send them, so
//! the pre-fleet wire surface is untouched.
//!
//! Check verbs additionally accept an optional trailing `trace <hex128>`
//! token carrying a causal trace id ([`copred_obs::TraceId`]); the
//! server echoes it on the matching `ok results` line. Requests without
//! the token — and their responses — serialize byte-identically to the
//! pre-trace wire format, so old clients and recorded logs parse
//! unchanged.

use copred_obs::TraceId;
use copred_trace::{fields, MotionTrace};
use std::fmt::{self, Write as _};

/// How a session schedules the CDQs of each motion check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedMode {
    /// Predictor-ordered execution (Algorithm 1 over the session CHT).
    Coord,
    /// Sequential pose order — the paper's naive baseline.
    Naive,
    /// Coarse-step pose order without prediction.
    Csp,
}

impl SchedMode {
    /// Wire label.
    pub fn label(&self) -> &'static str {
        match self {
            SchedMode::Coord => "coord",
            SchedMode::Naive => "naive",
            SchedMode::Csp => "csp",
        }
    }

    /// Parses a wire label.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "coord" => Some(SchedMode::Coord),
            "naive" => Some(SchedMode::Naive),
            "csp" => Some(SchedMode::Csp),
            _ => None,
        }
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Opens a planning session: leases a CHT shard.
    Open {
        /// Robot preset name (must match the trace's `robot_name`).
        robot: String,
        /// Links per pose.
        link_count: u32,
        /// CDQ scheduling mode for every check in the session.
        mode: SchedMode,
        /// Seed of the session's `U`-policy stream (determinism).
        seed: u64,
        /// Environment fingerprint (`copred_store::environment_fingerprint`)
        /// keying persisted CHT state. `None` opts out of warm-start and
        /// persistence; ignored by servers without a store.
        fp: Option<u64>,
    },
    /// A batch of motion checks against the session's CHT.
    CheckMotion {
        /// Session token from [`Response::Session`].
        session: u64,
        /// The motions, in issue order.
        motions: Vec<MotionTrace>,
        /// Optional causal trace id, echoed in the response. Never
        /// affects scheduling or results.
        trace: Option<TraceId>,
    },
    /// A single pose check (a one-pose motion block).
    CheckPose {
        /// Session token.
        session: u64,
        /// One-pose motion block.
        motion: MotionTrace,
        /// Optional causal trace id, echoed in the response.
        trace: Option<TraceId>,
    },
    /// Clears the session's CHT — the paper's dynamic-obstacle remap.
    ResetCht {
        /// Session token.
        session: u64,
    },
    /// Metrics snapshot: global, or one session's.
    Stats {
        /// `None` for server-wide stats.
        session: Option<u64>,
    },
    /// Dumps the server's flight recorder (admin/debug verb).
    Dump,
    /// Ends the session and releases its shard.
    Close {
        /// Session token.
        session: u64,
    },
    /// Fetches the *stored* snapshot for a fingerprint (snapshot + WAL
    /// suffix, exactly what a warm open would load), as CPRDSNAP bytes.
    SnapGet {
        /// Environment fingerprint.
        fp: u64,
    },
    /// Fetches a *live* session's table image as CPRDSNAP bytes — what the
    /// fleet router replicates mid-stream so a backend death loses no
    /// committed state.
    SnapSession {
        /// Session token.
        session: u64,
    },
    /// Asks whether the receiver wants a snapshot before it is shipped
    /// (gossip round 1): declined when the receiver already stores
    /// byte-identical state for the fingerprint.
    SnapOffer {
        /// Environment fingerprint.
        fp: u64,
        /// CPRDSNAP format version of the offered bytes.
        version: u32,
        /// CRC-32/IEEE over the full offered byte string.
        crc: u32,
        /// Offered byte count.
        len: u64,
    },
    /// Ships a snapshot (gossip round 2). The receiver validates the
    /// transfer CRC and version, decodes, and max-merges into its store.
    SnapPush {
        /// Environment fingerprint.
        fp: u64,
        /// CPRDSNAP format version of the pushed bytes.
        version: u32,
        /// CRC-32/IEEE over `payload` as transferred. Serialized as given —
        /// a mismatch with the payload is the receiver's rejection to make,
        /// not the codec's.
        crc: u32,
        /// The complete CPRDSNAP byte string.
        payload: Vec<u8>,
    },
}

/// One motion check's outcome on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckResult {
    /// Whether the motion collides.
    pub colliding: bool,
    /// CDQs executed before the check resolved.
    pub cdqs_executed: u64,
    /// CDQs the motion decomposes into.
    pub cdqs_total: u64,
    /// Obstacle-pair tests inside the executed CDQs.
    pub obstacle_tests: u64,
}

/// Machine-readable error category.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// Malformed or unparseable request.
    BadRequest(String),
    /// Unknown or evicted session token.
    NoSession(u64),
    /// Registry full and nothing evictable.
    Busy(String),
    /// Bounded queue full: back off and retry after the given delay.
    RetryAfter {
        /// Suggested client back-off.
        ms: u64,
        /// Which bound was hit.
        message: String,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServiceError::NoSession(id) => write!(f, "no such session {id}"),
            ServiceError::Busy(m) => write!(f, "busy: {m}"),
            ServiceError::RetryAfter { ms, message } => {
                write!(f, "backpressure, retry after {ms} ms: {message}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Session opened.
    Session {
        /// Session token.
        id: u64,
        /// Whether the session warm-started from persisted CHT state.
        warm: bool,
    },
    /// Batch results, one per motion in request order.
    Results {
        /// One result per motion, in request order.
        results: Vec<CheckResult>,
        /// Echo of the request's `trace` token (`None` when the request
        /// carried none, keeping the legacy wire form byte-identical).
        trace: Option<TraceId>,
    },
    /// CHT cleared.
    ResetDone,
    /// Metrics snapshot as ordered key/value pairs.
    Stats(Vec<(String, String)>),
    /// Flight recorder dumped; carries the number of entries captured.
    DumpDone {
        /// Flight entries in the dump.
        entries: u64,
    },
    /// Session closed.
    Closed,
    /// A snapshot payload (answer to `snap_get` / `snap_session`).
    Snap {
        /// Environment fingerprint the payload persists under (0 when the
        /// source session opened without one).
        fp: u64,
        /// The complete CPRDSNAP byte string.
        payload: Vec<u8>,
    },
    /// No stored snapshot for the fingerprint (answer to `snap_get`).
    SnapNone {
        /// Environment fingerprint.
        fp: u64,
    },
    /// Whether the receiver wants an offered snapshot.
    SnapWant {
        /// Environment fingerprint.
        fp: u64,
        /// `true` to request the push.
        want: bool,
    },
    /// A pushed snapshot was accepted and persisted.
    SnapApplied {
        /// Environment fingerprint.
        fp: u64,
        /// Whether existing stored state was max-merged in (`false` =
        /// installed fresh).
        merged: bool,
    },
    /// Request failed.
    Error(ServiceError),
}

/// Lowercase hex digits, indexed by nibble.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Builds a snap frame in one allocation: the `head` line, then `payload`
/// hex-coded (lowercase, two digits per byte) on its own line.
fn snap_frame(head: fmt::Arguments<'_>, payload: &[u8]) -> String {
    // 96 bytes hold the longest head line (`snap_push`, about 70).
    let mut out = String::with_capacity(96 + 2 * payload.len());
    fmt::Write::write_fmt(&mut out, head).expect("writing to a String cannot fail");
    out.push('\n');
    for &b in payload {
        out.push(char::from(HEX_DIGITS[usize::from(b >> 4)]));
        out.push(char::from(HEX_DIGITS[usize::from(b & 0xf)]));
    }
    out.push('\n');
    out
}

/// Decodes a wire hex line written by [`snap_frame`]: pairs of
/// `[0-9a-fA-F]` and nothing else — no signs, no whitespace.
fn from_hex(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("odd hex payload length".into());
    }
    let nibble = |c: u8| char::from(c).to_digit(16);
    let mut out = Vec::with_capacity(s.len() / 2);
    for (i, pair) in s.as_bytes().chunks_exact(2).enumerate() {
        let (Some(hi), Some(lo)) = (nibble(pair[0]), nibble(pair[1])) else {
            let ascii = s.is_char_boundary(2 * i) && s.is_char_boundary(2 * i + 2);
            return Err(if ascii {
                "bad hex payload"
            } else {
                "non-ascii hex payload"
            }
            .into());
        };
        out.push((hi << 4 | lo) as u8);
    }
    Ok(out)
}

/// Parses a header number in its canonical spelling: digits of `radix`
/// only. `u64::from_str_radix` alone would also take a leading `+`.
fn canonical_u64(tok: &str, radix: u32) -> Option<u64> {
    if tok.starts_with('+') {
        return None;
    }
    u64::from_str_radix(tok, radix).ok()
}

fn parse_hex_u64(tok: Option<&str>, what: &str) -> Result<u64, String> {
    let tok = tok.ok_or_else(|| format!("missing {what}"))?;
    canonical_u64(tok, 16).ok_or_else(|| format!("bad {what} (want hex)"))
}

/// Parses the `<hex payload>` line of a snap op: exactly one line whose
/// decoded length matches the declared `len`, then end of payload.
fn parse_hex_payload<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    declared_len: u64,
) -> Result<Vec<u8>, String> {
    let line = lines.next().ok_or("missing snapshot payload")?;
    let payload = from_hex(line)?;
    if payload.len() as u64 != declared_len {
        return Err(format!(
            "snapshot payload is {} bytes, declared {declared_len}",
            payload.len()
        ));
    }
    if lines.next().is_some() {
        return Err("trailing content after snapshot payload".into());
    }
    Ok(payload)
}

fn parse_u64(tok: Option<&str>, what: &str) -> Result<u64, String> {
    let tok = tok.ok_or_else(|| format!("missing {what}"))?;
    canonical_u64(tok, 10).ok_or_else(|| format!("bad {what}"))
}

impl Request {
    /// Serializes to a frame payload.
    pub fn to_text(&self) -> String {
        match self {
            Request::Open {
                robot,
                link_count,
                mode,
                seed,
                fp,
            } => match fp {
                Some(fp) => format!(
                    "open {robot} {link_count} {} {seed} fp {fp:x}\n",
                    mode.label()
                ),
                None => format!("open {robot} {link_count} {} {seed}\n", mode.label()),
            },
            Request::CheckMotion {
                session,
                motions,
                trace,
            } => {
                let mut out = match trace {
                    Some(t) => format!("check_motion {session} {} trace {t}\n", motions.len()),
                    None => format!("check_motion {session} {}\n", motions.len()),
                };
                for m in motions {
                    m.write_text(&mut out);
                }
                out
            }
            Request::CheckPose {
                session,
                motion,
                trace,
            } => {
                let mut out = match trace {
                    Some(t) => format!("check_pose {session} trace {t}\n"),
                    None => format!("check_pose {session}\n"),
                };
                motion.write_text(&mut out);
                out
            }
            Request::ResetCht { session } => format!("reset {session}\n"),
            Request::Stats { session: None } => "stats\n".to_string(),
            Request::Stats { session: Some(id) } => format!("stats {id}\n"),
            Request::Dump => "dump\n".to_string(),
            Request::Close { session } => format!("close {session}\n"),
            Request::SnapGet { fp } => format!("snap_get {fp:x}\n"),
            Request::SnapSession { session } => format!("snap_session {session}\n"),
            Request::SnapOffer {
                fp,
                version,
                crc,
                len,
            } => format!("snap_offer {fp:x} {version} {crc:x} {len}\n"),
            Request::SnapPush {
                fp,
                version,
                crc,
                payload,
            } => snap_frame(
                format_args!("snap_push {fp:x} {version} {crc:x} {}", payload.len()),
                payload,
            ),
        }
    }

    /// Parses a frame payload. All malformed input returns `Err` with a
    /// human-readable reason (never panics) — the server maps it to
    /// [`ServiceError::BadRequest`].
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines().enumerate();
        let (_, head) = lines.next().ok_or("empty request")?;
        let mut f = fields(head);
        let verb = f.next().ok_or("blank request line")?;
        match verb {
            "open" => {
                let robot = f.next().ok_or("missing robot name")?.to_string();
                let link_count = parse_u64(f.next(), "link count")? as u32;
                let mode = SchedMode::parse(f.next().ok_or("missing mode")?)
                    .ok_or("bad mode (want coord|naive|csp)")?;
                let seed = parse_u64(f.next(), "seed")?;
                let fp = match f.next() {
                    None => None,
                    Some("fp") => {
                        let hex = f.next().ok_or("missing fp value")?;
                        Some(parse_hex_u64(Some(hex), "fp")?)
                    }
                    Some(other) => return Err(format!("unexpected token '{other}' after seed")),
                };
                if let Some(extra) = f.next() {
                    return Err(format!("unexpected token '{extra}' after fp"));
                }
                Ok(Request::Open {
                    robot,
                    link_count,
                    mode,
                    seed,
                    fp,
                })
            }
            "check_motion" => {
                let session = parse_u64(f.next(), "session")?;
                let n = parse_u64(f.next(), "motion count")? as usize;
                let trace = parse_trace_token(&mut f, "motion count")?;
                if n == 0 {
                    return Err("empty motion batch".into());
                }
                if n > MAX_BATCH {
                    return Err(format!("batch of {n} exceeds MAX_BATCH ({MAX_BATCH})"));
                }
                let mut motions = Vec::with_capacity(n);
                for _ in 0..n {
                    let (ln, header) = lines.next().ok_or("truncated motion batch")?;
                    motions.push(
                        copred_trace::parse_motion_block(ln, header, &mut lines)
                            .map_err(|e| e.to_string())?,
                    );
                }
                if lines.next().is_some() {
                    return Err("trailing content after motion batch".into());
                }
                Ok(Request::CheckMotion {
                    session,
                    motions,
                    trace,
                })
            }
            "check_pose" => {
                let session = parse_u64(f.next(), "session")?;
                let trace = parse_trace_token(&mut f, "session")?;
                let (ln, header) = lines.next().ok_or("missing pose block")?;
                let motion = copred_trace::parse_motion_block(ln, header, &mut lines)
                    .map_err(|e| e.to_string())?;
                if motion.poses.len() != 1 {
                    return Err("check_pose wants exactly one pose".into());
                }
                if lines.next().is_some() {
                    return Err("trailing content after pose block".into());
                }
                Ok(Request::CheckPose {
                    session,
                    motion,
                    trace,
                })
            }
            "reset" => Ok(Request::ResetCht {
                session: parse_u64(f.next(), "session")?,
            }),
            "stats" => match f.next() {
                None => Ok(Request::Stats { session: None }),
                Some(tok) => Ok(Request::Stats {
                    session: Some(parse_u64(Some(tok), "session")?),
                }),
            },
            "dump" => {
                if let Some(extra) = f.next() {
                    return Err(format!("unexpected token '{extra}' after dump"));
                }
                Ok(Request::Dump)
            }
            "close" => Ok(Request::Close {
                session: parse_u64(f.next(), "session")?,
            }),
            "snap_get" => {
                let fp = parse_hex_u64(f.next(), "fp")?;
                reject_extra(&mut f, "fp")?;
                Ok(Request::SnapGet { fp })
            }
            "snap_session" => {
                let session = parse_u64(f.next(), "session")?;
                reject_extra(&mut f, "session")?;
                Ok(Request::SnapSession { session })
            }
            "snap_offer" => {
                let fp = parse_hex_u64(f.next(), "fp")?;
                let version = parse_u64(f.next(), "snapshot version")? as u32;
                let crc = parse_hex_u64(f.next(), "transfer crc")? as u32;
                let len = parse_u64(f.next(), "payload length")?;
                reject_extra(&mut f, "payload length")?;
                Ok(Request::SnapOffer {
                    fp,
                    version,
                    crc,
                    len,
                })
            }
            "snap_push" => {
                let fp = parse_hex_u64(f.next(), "fp")?;
                let version = parse_u64(f.next(), "snapshot version")? as u32;
                let crc = parse_hex_u64(f.next(), "transfer crc")? as u32;
                let len = parse_u64(f.next(), "payload length")?;
                reject_extra(&mut f, "payload length")?;
                let mut rest = lines.map(|(_, l)| l);
                let payload = parse_hex_payload(&mut rest, len)?;
                Ok(Request::SnapPush {
                    fp,
                    version,
                    crc,
                    payload,
                })
            }
            other => Err(format!("unknown verb '{other}'")),
        }
    }
}

/// Rejects any further token on the line; `after` names the last expected
/// field for the error message.
fn reject_extra<'a>(f: &mut impl Iterator<Item = &'a str>, after: &str) -> Result<(), String> {
    match f.next() {
        None => Ok(()),
        Some(extra) => Err(format!("unexpected token '{extra}' after {after}")),
    }
}

/// Parses the optional trailing `trace <hex128>` token (then end of
/// line). `after` names the preceding field for error messages.
fn parse_trace_token<'a>(
    f: &mut impl Iterator<Item = &'a str>,
    after: &str,
) -> Result<Option<TraceId>, String> {
    match f.next() {
        None => Ok(None),
        Some("trace") => {
            let hex = f.next().ok_or("missing trace value")?;
            let id = TraceId::from_hex(hex)
                .ok_or_else(|| "bad trace (want 32 hex digits, nonzero)".to_string())?;
            match f.next() {
                None => Ok(Some(id)),
                Some(extra) => Err(format!("unexpected token '{extra}' after trace")),
            }
        }
        Some(other) => Err(format!("unexpected token '{other}' after {after}")),
    }
}

/// Largest motion batch accepted in one CHECK_MOTION frame.
pub const MAX_BATCH: usize = 4096;

impl Response {
    /// Serializes to a frame payload.
    pub fn to_text(&self) -> String {
        match self {
            Response::Session { id, warm } => {
                format!("ok session {id} warm {}\n", u8::from(*warm))
            }
            Response::Results { results, trace } => {
                let mut out = match trace {
                    Some(t) => format!("ok results {} trace {t}\n", results.len()),
                    None => format!("ok results {}\n", results.len()),
                };
                for r in results {
                    let flag = u8::from(r.colliding);
                    let (e, t, o) = (r.cdqs_executed, r.cdqs_total, r.obstacle_tests);
                    writeln!(out, "result {flag} {e} {t} {o}").expect("string write");
                }
                out
            }
            Response::ResetDone => "ok reset\n".to_string(),
            Response::Stats(kv) => {
                let mut out = format!("ok stats {}\n", kv.len());
                for (k, v) in kv {
                    writeln!(out, "{k} {v}").expect("string write");
                }
                out
            }
            Response::DumpDone { entries } => format!("ok dump {entries}\n"),
            Response::Closed => "ok closed\n".to_string(),
            Response::Snap { fp, payload } => {
                snap_frame(format_args!("ok snap {fp:x} {}", payload.len()), payload)
            }
            Response::SnapNone { fp } => format!("ok snap_none {fp:x}\n"),
            Response::SnapWant { fp, want } => {
                format!("ok snap_want {fp:x} {}\n", u8::from(*want))
            }
            Response::SnapApplied { fp, merged } => {
                format!("ok snap_applied {fp:x} merged {}\n", u8::from(*merged))
            }
            Response::Error(ServiceError::RetryAfter { ms, message }) => {
                format!("err retry_after {ms} {message}\n")
            }
            Response::Error(ServiceError::BadRequest(m)) => format!("err bad_request {m}\n"),
            Response::Error(ServiceError::NoSession(id)) => format!("err no_session {id}\n"),
            Response::Error(ServiceError::Busy(m)) => format!("err busy {m}\n"),
        }
    }

    /// Parses a frame payload (the client side).
    ///
    /// # Errors
    ///
    /// Returns a reason string for malformed payloads.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let head = lines.next().ok_or("empty response")?;
        let mut f = fields(head);
        match f.next() {
            Some("ok") => match f.next() {
                Some("session") => {
                    let id = parse_u64(f.next(), "session id")?;
                    // `warm <0|1>` is optional so pre-store servers still
                    // parse; absence means a cold session.
                    let warm = match f.next() {
                        None => false,
                        Some("warm") => parse_u64(f.next(), "warm flag")? != 0,
                        Some(other) => {
                            return Err(format!("unexpected token '{other}' after session id"))
                        }
                    };
                    Ok(Response::Session { id, warm })
                }
                Some("results") => {
                    let n = parse_u64(f.next(), "result count")? as usize;
                    let trace = parse_trace_token(&mut f, "result count")?;
                    if n > MAX_BATCH {
                        return Err("result count exceeds MAX_BATCH".into());
                    }
                    let mut rs = Vec::with_capacity(n);
                    for _ in 0..n {
                        let line = lines.next().ok_or("truncated results")?;
                        let mut g = fields(line);
                        if g.next() != Some("result") {
                            return Err("expected 'result' line".into());
                        }
                        let colliding = parse_u64(g.next(), "colliding flag")? != 0;
                        rs.push(CheckResult {
                            colliding,
                            cdqs_executed: parse_u64(g.next(), "cdqs executed")?,
                            cdqs_total: parse_u64(g.next(), "cdqs total")?,
                            obstacle_tests: parse_u64(g.next(), "obstacle tests")?,
                        });
                    }
                    Ok(Response::Results { results: rs, trace })
                }
                Some("reset") => Ok(Response::ResetDone),
                Some("dump") => Ok(Response::DumpDone {
                    entries: parse_u64(f.next(), "dump entry count")?,
                }),
                Some("stats") => {
                    let n = parse_u64(f.next(), "stat count")? as usize;
                    if n > 4096 {
                        return Err("stat count too large".into());
                    }
                    let mut kv = Vec::with_capacity(n);
                    for _ in 0..n {
                        let line = lines.next().ok_or("truncated stats")?;
                        let (k, v) = line.split_once(' ').ok_or("stat line without value")?;
                        kv.push((k.to_string(), v.to_string()));
                    }
                    Ok(Response::Stats(kv))
                }
                Some("closed") => Ok(Response::Closed),
                Some("snap") => {
                    let fp = parse_hex_u64(f.next(), "fp")?;
                    let len = parse_u64(f.next(), "payload length")?;
                    reject_extra(&mut f, "payload length")?;
                    let payload = parse_hex_payload(&mut lines, len)?;
                    Ok(Response::Snap { fp, payload })
                }
                Some("snap_none") => {
                    let fp = parse_hex_u64(f.next(), "fp")?;
                    reject_extra(&mut f, "fp")?;
                    Ok(Response::SnapNone { fp })
                }
                Some("snap_want") => {
                    let fp = parse_hex_u64(f.next(), "fp")?;
                    let want = parse_u64(f.next(), "want flag")? != 0;
                    reject_extra(&mut f, "want flag")?;
                    Ok(Response::SnapWant { fp, want })
                }
                Some("snap_applied") => {
                    let fp = parse_hex_u64(f.next(), "fp")?;
                    if f.next() != Some("merged") {
                        return Err("expected 'merged' after fp".into());
                    }
                    let merged = parse_u64(f.next(), "merged flag")? != 0;
                    reject_extra(&mut f, "merged flag")?;
                    Ok(Response::SnapApplied { fp, merged })
                }
                _ => Err("unknown ok form".into()),
            },
            Some("err") => match f.next() {
                Some("retry_after") => {
                    let ms = parse_u64(f.next(), "retry delay")?;
                    let message = f.collect::<Vec<_>>().join(" ");
                    Ok(Response::Error(ServiceError::RetryAfter { ms, message }))
                }
                Some("bad_request") => Ok(Response::Error(ServiceError::BadRequest(
                    f.collect::<Vec<_>>().join(" "),
                ))),
                Some("no_session") => Ok(Response::Error(ServiceError::NoSession(parse_u64(
                    f.next(),
                    "session id",
                )?))),
                Some("busy") => Ok(Response::Error(ServiceError::Busy(
                    f.collect::<Vec<_>>().join(" "),
                ))),
                _ => Err("unknown err code".into()),
            },
            _ => Err("response must start with ok/err".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copred_kinematics::Config;
    use copred_trace::TraceCdq;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn motion() -> MotionTrace {
        MotionTrace {
            stage: copred_trace::Stage::Explore,
            poses: vec![Config::new(vec![0.1, -0.2]), Config::new(vec![0.3, 0.4])],
            cdqs: vec![
                TraceCdq {
                    pose_idx: 0,
                    link_idx: 0,
                    center: copred_geometry::Vec3::new(0.1, 0.2, 0.3),
                    colliding: false,
                    obstacle_tests: 3,
                },
                TraceCdq {
                    pose_idx: 1,
                    link_idx: 0,
                    center: copred_geometry::Vec3::new(-0.1, 0.0, 0.9),
                    colliding: true,
                    obstacle_tests: 1,
                },
            ],
        }
    }

    #[test]
    fn request_roundtrips() {
        let reqs = vec![
            Request::Open {
                robot: "planar-2d".into(),
                link_count: 1,
                mode: SchedMode::Coord,
                seed: 42,
                fp: None,
            },
            Request::Open {
                robot: "jaco2".into(),
                link_count: 7,
                mode: SchedMode::Coord,
                seed: 9,
                fp: Some(0xDEAD_BEEF_0042),
            },
            Request::CheckMotion {
                session: 7,
                motions: vec![motion(), motion()],
                trace: None,
            },
            Request::CheckMotion {
                session: 7,
                motions: vec![motion()],
                trace: TraceId::new(0xFACE_0FF0_1234),
            },
            Request::CheckPose {
                session: 7,
                motion: MotionTrace {
                    poses: vec![Config::new(vec![0.0, 0.0])],
                    ..motion()
                }
                .tap_single_pose(),
                trace: None,
            },
            Request::CheckPose {
                session: 7,
                motion: MotionTrace {
                    poses: vec![Config::new(vec![0.0, 0.0])],
                    ..motion()
                }
                .tap_single_pose(),
                trace: TraceId::new(u128::MAX),
            },
            Request::ResetCht { session: 7 },
            Request::Stats { session: None },
            Request::Stats { session: Some(9) },
            Request::Dump,
            Request::Close { session: 7 },
            Request::SnapGet { fp: 0xFACE_0042 },
            Request::SnapSession { session: 7 },
            Request::SnapOffer {
                fp: 0xFACE_0042,
                version: 1,
                crc: 0xDEAD_BEEF,
                len: 52,
            },
            Request::SnapPush {
                fp: 0xFACE_0042,
                version: 1,
                crc: 0x1234_5678,
                payload: vec![0x00, 0x7f, 0xff, 0x10],
            },
            Request::SnapPush {
                fp: 1,
                version: 9,
                crc: 0,
                payload: vec![],
            },
        ];
        for r in reqs {
            let text = r.to_text();
            assert_eq!(Request::from_text(&text).expect("parse"), r, "{text}");
        }
    }

    /// Helper trait so the test can build a valid single-pose block.
    trait TapSingle {
        fn tap_single_pose(self) -> MotionTrace;
    }
    impl TapSingle for MotionTrace {
        fn tap_single_pose(mut self) -> MotionTrace {
            self.cdqs.truncate(1);
            self.cdqs[0].pose_idx = 0;
            self
        }
    }

    #[test]
    fn response_roundtrips() {
        let resps = vec![
            Response::Session { id: 3, warm: false },
            Response::Session { id: 4, warm: true },
            Response::Results {
                results: vec![CheckResult {
                    colliding: true,
                    cdqs_executed: 4,
                    cdqs_total: 17,
                    obstacle_tests: 12,
                }],
                trace: None,
            },
            Response::Results {
                results: vec![CheckResult {
                    colliding: false,
                    cdqs_executed: 1,
                    cdqs_total: 2,
                    obstacle_tests: 3,
                }],
                trace: TraceId::new(0xC0FFEE),
            },
            Response::ResetDone,
            Response::DumpDone { entries: 37 },
            Response::Stats(vec![
                ("cdqs_issued".into(), "120".into()),
                ("precision".into(), "0.9375".into()),
            ]),
            Response::Closed,
            Response::Snap {
                fp: 0xFACE_0042,
                payload: vec![0xCA, 0xFE, 0x00, 0x01],
            },
            Response::Snap {
                fp: 2,
                payload: vec![],
            },
            Response::SnapNone { fp: 0xFACE_0042 },
            Response::SnapWant {
                fp: 0xFACE_0042,
                want: true,
            },
            Response::SnapWant { fp: 3, want: false },
            Response::SnapApplied {
                fp: 0xFACE_0042,
                merged: true,
            },
            Response::SnapApplied {
                fp: 4,
                merged: false,
            },
            Response::Error(ServiceError::RetryAfter {
                ms: 12,
                message: "session queue full".into(),
            }),
            Response::Error(ServiceError::BadRequest("bad stage label".into())),
            Response::Error(ServiceError::NoSession(99)),
            Response::Error(ServiceError::Busy("no evictable session".into())),
        ];
        for r in resps {
            let text = r.to_text();
            assert_eq!(Response::from_text(&text).expect("parse"), r, "{text}");
        }
    }

    #[test]
    fn malformed_requests_are_errors_not_panics() {
        for bad in [
            "",
            "open",
            "open r",
            "open r 1 warp 3",
            "open r 1 coord 3 junk",
            "open r 1 coord 3 fp",
            "open r 1 coord 3 fp zz",
            "open r 1 coord 3 fp 1f 9",
            "check_motion 1",
            "check_motion 1 2\nmotion S1 0 0\n",
            "check_motion 1 99999999\n",
            "check_pose 1\nmotion S1 2 0\npose 0.0\npose 0.0\n",
            "reset",
            "close nope",
            "warp 9",
            "check_motion 1 1\nmotion S1 1 1\npose 0.0\ncdq 9 0 0 0 0 1 1\n",
            "dump 3",
            "check_motion 1 1 trace\nmotion S1 1 1\npose 0.0\ncdq 0 0 0 0 0 1 1\n",
            "check_motion 1 1 trace zz\nmotion S1 1 1\npose 0.0\ncdq 0 0 0 0 0 1 1\n",
            "check_motion 1 1 trace 00000000000000000000000000000000\nmotion S1 1 1\npose 0.0\ncdq 0 0 0 0 0 1 1\n",
            "check_motion 1 1 trace ff junk\nmotion S1 1 1\npose 0.0\ncdq 0 0 0 0 0 1 1\n",
            "check_pose 1 spur\nmotion S1 1 1\npose 0.0\ncdq 0 0 0 0 0 1 1\n",
            "snap_get",
            "snap_get zz",
            "snap_get 1f 9",
            "snap_session",
            "snap_session nope",
            "snap_offer 1f",
            "snap_offer 1f 1 zz 4",
            "snap_offer 1f 1 aa 4 junk",
            "snap_push 1f 1 aa 4\n",
            "snap_push 1f 1 aa 4\nca\n",
            "snap_push 1f 1 aa 4\ncafe00\n",
            "snap_push 1f 1 aa 2\ncafe\nextra\n",
            "snap_push 1f 1 aa 2\ncafg\n",
            "snap_push 1f 1 aa 3\ncafe0\n",
        ] {
            assert!(Request::from_text(bad).is_err(), "{bad:?}");
        }
    }

    /// The original per-byte `format!` hex coder, kept as the
    /// byte-identity reference for [`snap_frame`].
    fn reference_hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn snap_frames_match_the_format_reference_and_invert() {
        let mut rng = StdRng::seed_from_u64(0x5AA9);
        for len in (0..64).chain([255, 256, 4148, 8244]) {
            let payload: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let fp: u64 = rng.gen();
            let (version, crc): (u32, u32) = (rng.gen(), rng.gen());
            let hex = reference_hex(&payload);
            let resp = Response::Snap {
                fp,
                payload: payload.clone(),
            };
            let text = resp.to_text();
            assert_eq!(text, format!("ok snap {fp:x} {len}\n{hex}\n"));
            assert_eq!(Response::from_text(&text).unwrap(), resp);
            let req = Request::SnapPush {
                fp,
                version,
                crc,
                payload,
            };
            let text = req.to_text();
            assert_eq!(
                text,
                format!("snap_push {fp:x} {version} {crc:x} {len}\n{hex}\n")
            );
            assert_eq!(Request::from_text(&text).unwrap(), req);
            // The decoder takes either digit case.
            assert_eq!(
                from_hex(&hex.to_uppercase()).unwrap(),
                from_hex(&hex).unwrap()
            );
        }
        assert_eq!(
            Response::Snap {
                fp: 0xface,
                payload: vec![0x00, 0x0f, 0xa5, 0xff],
            }
            .to_text(),
            "ok snap face 4\n000fa5ff\n"
        );
    }

    #[test]
    fn header_numbers_reject_a_leading_plus() {
        for (frame, why) in [
            ("close +7", "bad session"),
            ("snap_get +1f", "bad fp (want hex)"),
            ("open planar-2d 2 coord 5 fp +abc", "bad fp (want hex)"),
            ("stats +3", "bad session"),
        ] {
            assert_eq!(Request::from_text(frame).unwrap_err(), why, "{frame:?}");
            let canonical = frame.replace('+', "");
            assert!(Request::from_text(&canonical).is_ok(), "{canonical:?}");
        }
    }

    #[test]
    fn hex_payload_accepts_only_digit_pairs() {
        assert_eq!(from_hex("00fF9a").unwrap(), vec![0x00, 0xff, 0x9a]);
        // `u8::from_str_radix` would take "+f" as 15: a non-canonical
        // spelling that must not parse.
        for (bad, why) in [
            ("+f", "bad hex payload"),
            ("00+f", "bad hex payload"),
            (" f", "bad hex payload"),
            ("0g", "bad hex payload"),
            ("-1", "bad hex payload"),
            ("0", "odd hex payload length"),
            ("é", "bad hex payload"),
            ("0é0", "non-ascii hex payload"),
        ] {
            assert_eq!(from_hex(bad).unwrap_err(), why, "{bad:?}");
        }
    }

    #[test]
    fn snap_push_wire_crc_is_carried_not_recomputed() {
        // The codec ships the declared transfer CRC verbatim: a push whose
        // CRC does not match its payload must round-trip intact so the
        // *receiver* can reject it as a structured transfer error.
        let req = Request::SnapPush {
            fp: 0xAB,
            version: 1,
            crc: 0xBAD0_CAFE, // deliberately not crc32(payload)
            payload: vec![1, 2, 3],
        };
        assert_eq!(Request::from_text(&req.to_text()).unwrap(), req);
    }

    #[test]
    fn absent_trace_token_keeps_legacy_wire_bytes() {
        // Property over seeded batches: a traceless request/response pair
        // must serialize to exactly the pre-trace wire form — no token,
        // no reordered fields — and a traced pair round-trips its id.
        let mut seed = 0x7AC3u64;
        for _ in 0..200 {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let session = seed % 512;
            let req = Request::CheckMotion {
                session,
                motions: vec![motion()],
                trace: None,
            };
            let text = req.to_text();
            let head = text.lines().next().unwrap();
            assert_eq!(head, format!("check_motion {session} 1"), "legacy head");
            assert_eq!(Request::from_text(&text).unwrap(), req);

            let id = TraceId::derive(seed, 1);
            let traced = Request::CheckMotion {
                session,
                motions: vec![motion()],
                trace: Some(id),
            };
            let ttext = traced.to_text();
            let thead = ttext.lines().next().unwrap();
            assert_eq!(thead, format!("check_motion {session} 1 trace {id}"));
            assert_eq!(Request::from_text(&ttext).unwrap(), traced);

            let resp = Response::Results {
                results: vec![],
                trace: None,
            };
            assert_eq!(resp.to_text(), "ok results 0\n", "legacy results line");
            let traced_resp = Response::Results {
                results: vec![],
                trace: Some(id),
            };
            assert_eq!(traced_resp.to_text(), format!("ok results 0 trace {id}\n"));
            assert_eq!(
                Response::from_text(&traced_resp.to_text()).unwrap(),
                traced_resp
            );
        }
    }

    #[test]
    fn legacy_session_ack_parses_as_cold() {
        // A pre-store server says just `ok session <id>`; the flag-less
        // form must keep parsing and means "cold".
        assert_eq!(
            Response::from_text("ok session 12\n").unwrap(),
            Response::Session {
                id: 12,
                warm: false
            }
        );
        assert!(Response::from_text("ok session 12 tepid 1\n").is_err());
    }

    #[test]
    fn batch_payload_reuses_trace_encoding() {
        let m = motion();
        let req = Request::CheckMotion {
            session: 1,
            motions: vec![m.clone()],
            trace: None,
        };
        let text = req.to_text();
        assert!(
            text.contains(&m.to_text()),
            "motion block embedded verbatim"
        );
    }
}
