//! Fault injection: adversarial bytes against the frame codec and live
//! fault scenarios against a running server.
//!
//! The harness speaks raw TCP through a [`FaultyStream`] wrapper that can
//! split writes into tiny chunks, truncate mid-frame, or corrupt the
//! length prefix — the torn-input shapes a real deployment sees from
//! crashing or hostile peers. After every scenario a healthy client must
//! still complete a full open/check/close round trip and the session pool
//! must drain back to empty: a malformed peer may lose its own
//! connection, never the server.

use crate::generate::ScenarioGen;
use copred_geometry::Vec3;
use copred_kinematics::Config;
use copred_service::client::stat_u64;
use copred_service::{SchedMode, ServiceClient};
use copred_trace::frame::{read_frame, read_text_frame, write_frame, MAX_FRAME_LEN};
use copred_trace::{MotionTrace, Stage, TraceCdq};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// How a [`FaultyStream`] distorts outgoing bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePlan {
    /// Pass writes through unchanged.
    Clean,
    /// Split every write into chunks of at most `chunk` bytes (with a
    /// flush between chunks), simulating a peer trickling a frame.
    SplitWrites {
        /// Maximum bytes per underlying write.
        chunk: usize,
    },
    /// Silently drop everything after the first `bytes` bytes — the shape
    /// of a peer crashing mid-frame.
    TruncateAfter {
        /// Bytes actually delivered before the "crash".
        bytes: usize,
    },
    /// Replace the first four bytes written (the frame length prefix) with
    /// this big-endian value.
    CorruptLenPrefix {
        /// The lying length.
        value: u32,
    },
}

/// A `Read + Write` wrapper injecting transport faults.
#[derive(Debug)]
pub struct FaultyStream<S> {
    inner: S,
    plan: WritePlan,
    written: usize,
    /// Cap on bytes returned per `read` call (`None` = passthrough),
    /// modeling an adversarially slow peer on the receive side.
    pub max_read: Option<usize>,
}

impl<S> FaultyStream<S> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: S, plan: WritePlan) -> Self {
        FaultyStream {
            inner,
            plan,
            written: 0,
            max_read: None,
        }
    }
}

impl<S: Read> Read for FaultyStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let cap = self.max_read.unwrap_or(buf.len()).max(1).min(buf.len());
        self.inner.read(&mut buf[..cap])
    }
}

impl<S: Write> Write for FaultyStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.plan {
            WritePlan::Clean => self.inner.write(buf),
            WritePlan::SplitWrites { chunk } => {
                let n = buf.len().min(chunk.max(1));
                let written = self.inner.write(&buf[..n])?;
                self.inner.flush()?;
                Ok(written)
            }
            WritePlan::TruncateAfter { bytes } => {
                if self.written >= bytes {
                    // Pretend delivery: the peer "crashed", the caller
                    // keeps writing into the void.
                    self.written += buf.len();
                    return Ok(buf.len());
                }
                let n = buf.len().min(bytes - self.written);
                let written = self.inner.write(&buf[..n])?;
                self.written += written;
                // Report full success so the caller finishes its frame.
                Ok(if written == n { buf.len() } else { written })
            }
            WritePlan::CorruptLenPrefix { value } => {
                if self.written < 4 {
                    let prefix = value.to_be_bytes();
                    let n = buf.len().min(4 - self.written);
                    self.inner
                        .write_all(&prefix[self.written..self.written + n])?;
                    self.written += n;
                    return Ok(n);
                }
                self.written += buf.len();
                self.inner.write(buf)
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Feeds one adversarial byte buffer to the frame codec. The codec must
/// return a structured `Ok`/`Err` — any panic is a conformance failure.
pub fn fuzz_codec_case(bytes: &[u8], max_read: Option<usize>) -> Result<(), String> {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut stream = FaultyStream::new(io::Cursor::new(bytes.to_vec()), WritePlan::Clean);
        stream.max_read = max_read;
        // Drain the stream frame by frame until EOF or error; both are
        // acceptable structured outcomes.
        loop {
            match read_frame(&mut stream) {
                Ok(Some(payload)) => {
                    if payload.len() > MAX_FRAME_LEN {
                        return Err("accepted an oversize frame".to_string());
                    }
                }
                Ok(None) => return Ok(()),
                Err(_) => return Ok(()),
            }
        }
    }));
    match result {
        Ok(inner) => inner,
        Err(_) => Err(format!(
            "frame codec panicked on {} adversarial bytes",
            bytes.len()
        )),
    }
}

/// Round-trips a frame through a [`FaultyStream`] with split writes and
/// capped reads: torn delivery of a *valid* frame must still decode.
pub fn split_delivery_roundtrip(payload: &[u8], chunk: usize) -> Result<(), String> {
    let mut wire = Vec::new();
    {
        let mut faulty = FaultyStream::new(&mut wire, WritePlan::SplitWrites { chunk });
        write_frame(&mut faulty, payload).map_err(|e| format!("split write failed: {e}"))?;
    }
    let mut reader = FaultyStream::new(io::Cursor::new(wire), WritePlan::Clean);
    reader.max_read = Some(chunk.max(1));
    match read_frame(&mut reader) {
        Ok(Some(got)) if got == payload => Ok(()),
        Ok(Some(_)) => Err("split delivery corrupted the payload".to_string()),
        other => Err(format!("split delivery failed to decode: {other:?}")),
    }
}

/// A one-pose motion block for fault-scenario checks.
fn tiny_motion(colliding: bool) -> MotionTrace {
    MotionTrace {
        stage: Stage::Explore,
        poses: vec![Config::new(vec![0.1, 0.2])],
        cdqs: vec![TraceCdq {
            pose_idx: 0,
            link_idx: 0,
            center: Vec3::new(0.1, 0.2, 0.0),
            colliding,
            obstacle_tests: 1,
        }],
    }
}

/// A full healthy round trip: open, check, stats, close. Any failure means
/// the server stopped serving.
fn healthy_roundtrip(addr: SocketAddr, label: &str) -> Result<(), String> {
    let mut client = ServiceClient::connect(addr)
        .map_err(|e| format!("{label}: healthy connect failed: {e}"))?;
    let id = client
        .open("planar-2d", 1, SchedMode::Coord, 77)
        .map_err(|e| format!("{label}: healthy open failed: {e}"))?;
    let (results, _) = client
        .check_motions(id, &[tiny_motion(false), tiny_motion(true)], 10)
        .map_err(|e| format!("{label}: healthy check failed: {e}"))?;
    if results.len() != 2 || !results[1].colliding || results[0].colliding {
        return Err(format!("{label}: healthy check returned {results:?}"));
    }
    client
        .stats(None)
        .map_err(|e| format!("{label}: healthy stats failed: {e}"))?;
    client
        .close(id)
        .map_err(|e| format!("{label}: healthy close failed: {e}"))?;
    Ok(())
}

fn expect_err_frame(stream: &mut TcpStream, label: &str) -> Result<(), String> {
    match read_text_frame(stream) {
        Ok(Some(text)) if text.starts_with("err") => Ok(()),
        Ok(Some(text)) => Err(format!("{label}: expected an err frame, got {text:?}")),
        Ok(None) => Err(format!("{label}: connection closed without an err frame")),
        Err(e) => Err(format!("{label}: read failed: {e}")),
    }
}

/// Runs the live fault scenarios against a server at `addr`. Returns
/// failure descriptions (empty = server survived everything) and the
/// number of scenarios executed.
pub fn run_fault_scenarios(addr: SocketAddr) -> (u64, Vec<String>) {
    let mut failures = Vec::new();
    let mut scenarios = 0u64;
    let mut run = |name: &str, f: &mut dyn FnMut() -> Result<(), String>| {
        scenarios += 1;
        if let Err(e) = f() {
            failures.push(format!("scenario {name}: {e}"));
        }
        if let Err(e) = healthy_roundtrip(addr, name) {
            failures.push(e);
        }
    };

    run("truncated-header", &mut || {
        let mut s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        s.write_all(&[0x00, 0x01]).map_err(|e| e.to_string())?;
        s.shutdown(Shutdown::Write).map_err(|e| e.to_string())?;
        // The server replies with a structured error (or just closes);
        // either way the stream must end rather than hang.
        let _ = read_text_frame(&mut s);
        Ok(())
    });

    run("oversize-length-prefix", &mut || {
        let mut s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        let mut faulty = FaultyStream::new(
            s.try_clone().map_err(|e| e.to_string())?,
            WritePlan::CorruptLenPrefix { value: u32::MAX },
        );
        write_frame(&mut faulty, b"open planar-2d 1 coord 1\n").map_err(|e| e.to_string())?;
        expect_err_frame(&mut s, "oversize prefix")
    });

    run("split-writes-still-parse", &mut || {
        let s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        let mut read_half = s.try_clone().map_err(|e| e.to_string())?;
        let mut faulty = FaultyStream::new(s, WritePlan::SplitWrites { chunk: 1 });
        write_frame(&mut faulty, b"open planar-2d 1 naive 5\n").map_err(|e| e.to_string())?;
        match read_text_frame(&mut read_half) {
            Ok(Some(text)) if text.starts_with("ok session") => {
                // Clean up the session through the same connection.
                let id: u64 = text
                    .split_whitespace()
                    .nth(2)
                    .and_then(|t| t.parse().ok())
                    .ok_or("unparseable session id")?;
                write_frame(&mut faulty, format!("close {id}\n").as_bytes())
                    .map_err(|e| e.to_string())?;
                match read_text_frame(&mut read_half) {
                    Ok(Some(t)) if t.starts_with("ok closed") => Ok(()),
                    other => Err(format!("close after split open failed: {other:?}")),
                }
            }
            other => Err(format!("split-written open rejected: {other:?}")),
        }
    });

    run("mid-batch-disconnect", &mut || {
        // Open a session, then tear the connection mid-payload of a check
        // batch. The session must remain closable from another connection
        // and the server must keep admitting checks.
        let mut client = ServiceClient::connect(addr).map_err(|e| e.to_string())?;
        let id = client
            .open("planar-2d", 1, SchedMode::Coord, 13)
            .map_err(|e| e.to_string())?;
        drop(client);
        let s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        let payload = format!("check_motion {id} 1\n{}", tiny_motion(true).to_text());
        let mut faulty = FaultyStream::new(
            s.try_clone().map_err(|e| e.to_string())?,
            WritePlan::TruncateAfter { bytes: 12 },
        );
        write_frame(&mut faulty, payload.as_bytes()).map_err(|e| e.to_string())?;
        drop(faulty);
        s.shutdown(Shutdown::Both).map_err(|e| e.to_string())?;
        drop(s);
        let mut cleanup = ServiceClient::connect(addr).map_err(|e| e.to_string())?;
        cleanup
            .close(id)
            .map_err(|e| format!("session unclosable after torn batch: {e}"))
    });

    run("garbage-verb-keeps-connection", &mut || {
        let mut s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        write_frame(&mut s, b"frobnicate 12 bananas\n").map_err(|e| e.to_string())?;
        expect_err_frame(&mut s, "garbage verb")?;
        // The framing survived, so the connection must still work.
        write_frame(&mut s, b"open planar-2d 1 csp 3\n").map_err(|e| e.to_string())?;
        match read_text_frame(&mut s) {
            Ok(Some(text)) if text.starts_with("ok session") => {
                let id: u64 = text
                    .split_whitespace()
                    .nth(2)
                    .and_then(|t| t.parse().ok())
                    .ok_or("unparseable session id")?;
                write_frame(&mut s, format!("close {id}\n").as_bytes())
                    .map_err(|e| e.to_string())?;
                let _ = read_text_frame(&mut s);
                Ok(())
            }
            other => Err(format!("open after garbage verb failed: {other:?}")),
        }
    });

    run("non-utf8-payload", &mut || {
        let mut s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        write_frame(&mut s, &[0xFF, 0xFE, 0xC0, 0x00]).map_err(|e| e.to_string())?;
        expect_err_frame(&mut s, "non-UTF-8 payload")
    });

    // After every scenario the pool must be empty: faults never leak
    // sessions past their cleanup.
    scenarios += 1;
    match ServiceClient::connect(addr)
        .and_then(|mut c| c.stats(None))
        .map(|kv| stat_u64(&kv, "sessions_open"))
    {
        Ok(Some(0)) => {}
        Ok(n) => failures.push(format!("sessions leaked after fault suite: {n:?}")),
        Err(e) => failures.push(format!("final stats failed: {e}")),
    }

    (scenarios, failures)
}

/// Runs `n_cases` seeded codec-fuzz cases plus the split-delivery
/// round-trips. Returns (cases run, failures).
pub fn run_codec_fuzz(gen: &ScenarioGen, n_cases: u64) -> (u64, Vec<String>) {
    let mut failures = Vec::new();
    let mut cases = 0u64;
    for i in 0..n_cases {
        cases += 1;
        let bytes = gen.fuzz_bytes(i);
        let max_read = match i % 3 {
            0 => None,
            1 => Some(1),
            _ => Some(7),
        };
        if let Err(e) = fuzz_codec_case(&bytes, max_read) {
            failures.push(format!("fuzz case {i}: {e}"));
        }
    }
    for chunk in [1usize, 3, 64] {
        cases += 1;
        if let Err(e) = split_delivery_roundtrip(b"open planar-2d 1 coord 9\n", chunk) {
            failures.push(format!("split delivery (chunk {chunk}): {e}"));
        }
    }
    (cases, failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use copred_service::{Server, ServerConfig};

    #[test]
    fn codec_fuzz_never_panics() {
        let g = ScenarioGen::new(21);
        let (cases, failures) = run_codec_fuzz(&g, 48);
        assert!(failures.is_empty(), "{failures:?}");
        assert!(cases >= 48);
    }

    #[test]
    fn fault_scenarios_leave_server_serving() {
        let server = Server::start(ServerConfig::default()).expect("server");
        let (scenarios, failures) = run_fault_scenarios(server.local_addr());
        assert!(failures.is_empty(), "{failures:?}");
        assert!(scenarios >= 6);
    }
}
