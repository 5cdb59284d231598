//! The planner side of the wire: one connection per planner, the op
//! stream each planner walks, and the closed- and open-loop drivers.
//!
//! A call is the same sequence `copred_service::ServiceClient::call`
//! makes — `Request::to_text`, one length-prefixed frame each way,
//! `Response::from_text` — with clock reads between the steps only when
//! the connection is traced.

use crate::inputs::Query;
use copred_service::protocol::{Request, Response, SchedMode};
use copred_trace::frame::{read_text_frame, write_text_frame};
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// What one step of a planner's op stream sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Open,
    /// Check request `b` of the query.
    Check(usize),
    Close,
}

/// One op of a planner's stream: which query, which op.
#[derive(Clone, Copy, Debug)]
pub struct Step {
    pub query: usize,
    pub op: Op,
}

/// Appends query `q`'s steps: open, one check per batch, close.
pub fn push_query(queries: &[Query], q: usize, batch: usize, out: &mut Vec<Step>) {
    out.push(Step {
        query: q,
        op: Op::Open,
    });
    for b in 0..queries[q].batches(batch) {
        out.push(Step {
            query: q,
            op: Op::Check(b),
        });
    }
    out.push(Step {
        query: q,
        op: Op::Close,
    });
}

/// The request for `step` against session `session`.
pub fn request(queries: &[Query], batch: usize, step: Step, session: u64) -> Request {
    let q = &queries[step.query];
    match step.op {
        Op::Open => Request::Open {
            robot: q.trace.robot_name.clone(),
            link_count: q.trace.link_count,
            mode: SchedMode::Coord,
            seed: q.seed,
            fp: q.fp,
        },
        Op::Check(b) => Request::CheckMotion {
            session,
            motions: q.batch(b, batch).to_vec(),
            trace: None,
        },
        Op::Close => Request::Close { session },
    }
}

/// Client-side split of one traced call.
#[derive(Clone, Copy, Debug, Default)]
pub struct Split {
    pub encode_ns: u64,
    pub wire_ns: u64,
    pub decode_ns: u64,
    pub req_bytes: u64,
    pub resp_bytes: u64,
}

/// One executed step as the planner saw it.
#[derive(Debug)]
pub struct Sample {
    pub step: Step,
    /// From the due time (open loop) or the call start (closed loop) to
    /// the decoded reply.
    pub latency_ns: u64,
    /// How late the call started against its due time.
    pub lag_ns: u64,
    /// Whether the step was scheduled inside the measured window (steps
    /// that only finish a query after the window are not).
    pub timed: bool,
    pub split: Option<Split>,
    /// After a check on the direct arm: the `snap_session` replica pull.
    pub pull: Option<Split>,
    pub resp: Result<Response, String>,
    /// When the reply was decoded.
    pub done: Instant,
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// One blocking request/response connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let write_half = stream.try_clone()?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer: BufWriter::new(write_half),
        })
    }

    /// One call; fills `split` when given (the traced path).
    pub fn call(&mut self, req: &Request, split: Option<&mut Split>) -> Result<Response, String> {
        let io = |e: io::Error| format!("transport: {e}");
        let Some(split) = split else {
            write_text_frame(&mut self.writer, &req.to_text()).map_err(io)?;
            let payload = read_text_frame(&mut self.reader)
                .map_err(io)?
                .ok_or("server closed the connection")?;
            return Response::from_text(&payload);
        };
        let t0 = Instant::now();
        let text = req.to_text();
        let t1 = Instant::now();
        write_text_frame(&mut self.writer, &text).map_err(io)?;
        let payload = read_text_frame(&mut self.reader)
            .map_err(io)?
            .ok_or("server closed the connection")?;
        let t2 = Instant::now();
        let resp = Response::from_text(&payload);
        let t3 = Instant::now();
        *split = Split {
            encode_ns: ns(t1 - t0),
            wire_ns: ns(t2 - t1),
            decode_ns: ns(t3 - t2),
            req_bytes: text.len() as u64,
            resp_bytes: payload.len() as u64,
        };
        resp
    }
}

/// One planner: a connection walking its op stream cyclically.
pub struct Driver<'a> {
    conn: Conn,
    queries: &'a [Query],
    steps: &'a [Step],
    batch: usize,
    /// Index of the next step (wraps around `steps`).
    pub pos: usize,
    session: u64,
    /// Split every call into encode / wire / decode.
    pub traced: bool,
    /// Pull the session's replica (`snap_session`) after every check, as
    /// the fleet router does — the direct-backend arm of the router hop.
    pub pull: bool,
}

impl<'a> Driver<'a> {
    pub fn new(
        addr: SocketAddr,
        queries: &'a [Query],
        steps: &'a [Step],
        batch: usize,
    ) -> io::Result<Self> {
        Ok(Driver {
            conn: Conn::connect(addr)?,
            queries,
            steps,
            batch,
            pos: 0,
            session: 0,
            traced: false,
            pull: false,
        })
    }

    fn next_step(&self) -> Step {
        self.steps[self.pos % self.steps.len()]
    }

    /// Sends the next step. `due` is its scheduled send time; `None`
    /// (closed loop) means "now, once the request is built".
    fn exec(&mut self, due: Option<Instant>, timed: bool) -> Sample {
        let step = self.next_step();
        self.pos += 1;
        let req = request(self.queries, self.batch, step, self.session);
        let start = Instant::now();
        let due = due.unwrap_or(start);
        let mut split = self.traced.then(Split::default);
        let resp = self.conn.call(&req, split.as_mut());
        let done = Instant::now();
        let latency_ns = ns(done.saturating_duration_since(due));
        if step.op == Op::Open {
            self.session = match &resp {
                Ok(Response::Session { id, .. }) => *id,
                _ => 0,
            };
        }
        let pull = (self.pull && matches!(step.op, Op::Check(_))).then(|| {
            let mut s = Split::default();
            let t = Instant::now();
            let _ = self.conn.call(
                &Request::SnapSession {
                    session: self.session,
                },
                Some(&mut s),
            );
            s.wire_ns = ns(t.elapsed());
            s
        });
        Sample {
            step,
            latency_ns,
            lag_ns: ns(start.saturating_duration_since(due)),
            timed,
            split,
            pull,
            resp,
            done,
        }
    }

    /// Sends the rest of the current query untimed, so no session stays open.
    fn finish_query(&mut self, out: &mut Vec<Sample>) {
        while self.next_step().op != Op::Open {
            out.push(self.exec(None, false));
        }
    }

    /// One whole query, untimed (warm-up).
    pub fn query(&mut self) -> Vec<Sample> {
        let mut out = vec![self.exec(None, false)];
        self.finish_query(&mut out);
        out
    }

    /// Closed loop: the next call starts when the previous reply arrives.
    /// No new query starts after `deadline`.
    pub fn closed(&mut self, deadline: Instant) -> Vec<Sample> {
        let mut out = Vec::new();
        while !(self.next_step().op == Op::Open && Instant::now() >= deadline) {
            out.push(self.exec(None, true));
        }
        out
    }

    /// Open loop: call `k` is due at `t0 + k * interval`, whether or not
    /// earlier replies are late; latency counts from the due time.
    pub fn open(&mut self, t0: Instant, interval: Duration, deadline: Instant) -> Vec<Sample> {
        let mut out = Vec::new();
        for k in 0u32.. {
            let due = t0 + interval * k;
            if due >= deadline {
                break;
            }
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            out.push(self.exec(Some(due), true));
        }
        self.finish_query(&mut out);
        out
    }
}
