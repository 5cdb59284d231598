//! A small blocking client for the copred service, used by the
//! integration tests and by `copred-replay`'s loopback backend (which
//! `copred_loadgen` drives, one client per connection).

use crate::protocol::{CheckResult, Request, Response, SchedMode};
use copred_obs::TraceId;
use copred_trace::frame::{read_text_frame, write_text_frame};
use copred_trace::MotionTrace;
use std::io::{self, BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::thread;
use std::time::Duration;

/// One connection to a copred server. Strictly request/response: every
/// call writes a frame and blocks for the reply frame.
pub struct ServiceClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

fn proto_err(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl ServiceClient {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Any connect failure.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let write_half = stream.try_clone()?;
        Ok(ServiceClient {
            reader: BufReader::new(stream),
            writer: BufWriter::new(write_half),
        })
    }

    /// Sends one request and reads the reply.
    ///
    /// # Errors
    ///
    /// I/O failures, or [`io::ErrorKind::InvalidData`] when the reply is
    /// unparseable or the stream closes mid-exchange.
    pub fn call(&mut self, req: &Request) -> io::Result<Response> {
        write_text_frame(&mut self.writer, &req.to_text())?;
        let payload = read_text_frame(&mut self.reader)?
            .ok_or_else(|| proto_err("server closed the connection"))?;
        Response::from_text(&payload).map_err(proto_err)
    }

    /// Opens a session and returns its token.
    ///
    /// # Errors
    ///
    /// I/O failures, or [`io::ErrorKind::Other`] carrying the server's
    /// error text.
    pub fn open(
        &mut self,
        robot: &str,
        link_count: u32,
        mode: SchedMode,
        seed: u64,
    ) -> io::Result<u64> {
        self.open_with_fp(robot, link_count, mode, seed, None)
            .map(|(id, _warm)| id)
    }

    /// Opens a session carrying an optional environment fingerprint and
    /// returns its token plus whether the server warm-started it from
    /// persisted state.
    ///
    /// # Errors
    ///
    /// I/O failures, or [`io::ErrorKind::Other`] carrying the server's
    /// error text.
    pub fn open_with_fp(
        &mut self,
        robot: &str,
        link_count: u32,
        mode: SchedMode,
        seed: u64,
        fp: Option<u64>,
    ) -> io::Result<(u64, bool)> {
        let req = Request::Open {
            robot: robot.to_string(),
            link_count,
            mode,
            seed,
            fp,
        };
        match self.call(&req)? {
            Response::Session { id, warm } => Ok((id, warm)),
            Response::Error(e) => Err(io::Error::other(e.to_string())),
            other => Err(proto_err(format!("unexpected reply to open: {other:?}"))),
        }
    }

    /// Sends a check batch once, returning the raw response so callers can
    /// see backpressure.
    ///
    /// # Errors
    ///
    /// Same as [`Self::call`].
    pub fn check_motions_once(
        &mut self,
        session: u64,
        motions: Vec<MotionTrace>,
    ) -> io::Result<Response> {
        self.check_motions_once_traced(session, motions, None)
    }

    /// Sends a check batch once with an optional causal trace id attached,
    /// returning the raw response so callers can see backpressure (and the
    /// trace echo).
    ///
    /// # Errors
    ///
    /// Same as [`Self::call`].
    pub fn check_motions_once_traced(
        &mut self,
        session: u64,
        motions: Vec<MotionTrace>,
        trace: Option<TraceId>,
    ) -> io::Result<Response> {
        self.call(&Request::CheckMotion {
            session,
            motions,
            trace,
        })
    }

    /// Sends a check batch, sleeping and retrying on `retry_after` up to
    /// `max_retries` times. Returns the results and how many retries were
    /// needed.
    ///
    /// # Errors
    ///
    /// I/O failures, server errors, or retry exhaustion (as
    /// [`io::ErrorKind::TimedOut`]).
    pub fn check_motions(
        &mut self,
        session: u64,
        motions: &[MotionTrace],
        max_retries: usize,
    ) -> io::Result<(Vec<CheckResult>, usize)> {
        self.check_motions_traced(session, motions, max_retries, None)
    }

    /// [`Self::check_motions`] with an optional causal trace id. The
    /// server must echo the exact token (absent stays absent); a mismatch
    /// is reported as [`io::ErrorKind::InvalidData`].
    ///
    /// # Errors
    ///
    /// I/O failures, server errors, retry exhaustion, or a bad trace echo.
    pub fn check_motions_traced(
        &mut self,
        session: u64,
        motions: &[MotionTrace],
        max_retries: usize,
        trace: Option<TraceId>,
    ) -> io::Result<(Vec<CheckResult>, usize)> {
        let mut retries = 0;
        loop {
            match self.check_motions_once_traced(session, motions.to_vec(), trace)? {
                Response::Results {
                    results: rs,
                    trace: echo,
                } => {
                    if echo != trace {
                        return Err(proto_err(format!(
                            "trace echo mismatch: sent {trace:?}, got {echo:?}"
                        )));
                    }
                    return Ok((rs, retries));
                }
                Response::Error(crate::protocol::ServiceError::RetryAfter { ms, .. }) => {
                    if retries >= max_retries {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!("backpressured {retries} times, giving up"),
                        ));
                    }
                    retries += 1;
                    thread::sleep(Duration::from_millis(ms.max(1)));
                }
                Response::Error(e) => return Err(io::Error::other(e.to_string())),
                other => return Err(proto_err(format!("unexpected reply to check: {other:?}"))),
            }
        }
    }

    /// Clears the session's CHT.
    ///
    /// # Errors
    ///
    /// I/O failures or server errors.
    pub fn reset(&mut self, session: u64) -> io::Result<()> {
        match self.call(&Request::ResetCht { session })? {
            Response::ResetDone => Ok(()),
            Response::Error(e) => Err(io::Error::other(e.to_string())),
            other => Err(proto_err(format!("unexpected reply to reset: {other:?}"))),
        }
    }

    /// Fetches server-wide (`None`) or per-session stats.
    ///
    /// # Errors
    ///
    /// I/O failures or server errors.
    pub fn stats(&mut self, session: Option<u64>) -> io::Result<Vec<(String, String)>> {
        match self.call(&Request::Stats { session })? {
            Response::Stats(kv) => Ok(kv),
            Response::Error(e) => Err(io::Error::other(e.to_string())),
            other => Err(proto_err(format!("unexpected reply to stats: {other:?}"))),
        }
    }

    /// Dumps the server's flight recorder (admin verb) and returns the
    /// number of entries captured.
    ///
    /// # Errors
    ///
    /// I/O failures or server errors.
    pub fn dump_flight(&mut self) -> io::Result<u64> {
        match self.call(&Request::Dump)? {
            Response::DumpDone { entries } => Ok(entries),
            Response::Error(e) => Err(io::Error::other(e.to_string())),
            other => Err(proto_err(format!("unexpected reply to dump: {other:?}"))),
        }
    }

    /// Closes a session.
    ///
    /// # Errors
    ///
    /// I/O failures or server errors.
    pub fn close(&mut self, session: u64) -> io::Result<()> {
        match self.call(&Request::Close { session })? {
            Response::Closed => Ok(()),
            Response::Error(e) => Err(io::Error::other(e.to_string())),
            other => Err(proto_err(format!("unexpected reply to close: {other:?}"))),
        }
    }
}

/// Reads one named value out of a stats reply.
pub fn stat_u64(kv: &[(String, String)], key: &str) -> Option<u64> {
    kv.iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.parse().ok())
}
