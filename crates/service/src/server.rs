//! The TCP server: accept loop and per-connection handlers, with check
//! batches admitted through one FIFO gate with explicit backpressure.
//!
//! Each connection thread decodes its request and runs its own check
//! batches, so a check never crosses threads. Two bounds protect the
//! server — a per-session pending cap (one planner flooding its session
//! cannot starve the rest) and the gate: at most `workers` batches
//! execute at once and at most `queue_capacity` more wait for a slot, in
//! arrival order. Hitting either bound returns `err retry_after <ms>`
//! immediately instead of stalling or dropping the connection: load
//! shedding is part of the protocol.

use crate::metrics::Metrics;
use crate::prom::render_prometheus;
use crate::protocol::{Request, Response, ServiceError};
use crate::session::{execute_batch, SessionRegistry, SessionState};
use copred_collision::Schedule;
use copred_core::ChtParams;
use copred_obs::{stage, Stage, TraceId, TraceScope};
use copred_trace::frame::{read_text_frame, write_text_frame};
use copred_trace::MotionTrace;
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Tunables for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (tests).
    pub addr: String,
    /// Check batches executing at once (at least 1).
    pub workers: usize,
    /// Check batches waiting for an execution slot before the server
    /// answers `retry_after`.
    pub queue_capacity: usize,
    /// Max batches waiting or executing per session before backpressure.
    pub session_queue_cap: usize,
    /// Session slots: the most sessions open at once (at least 1).
    pub max_sessions: usize,
    /// CHT geometry for every leased shard.
    pub cht_params: ChtParams,
    /// CSP stride used by the scheduler.
    pub csp_step: usize,
    /// Suggested client back-off carried in `retry_after` responses.
    pub retry_after_ms: u64,
    /// Test hook: artificial per-batch delay while holding an execution
    /// slot, used to force queue overflow deterministically. 0 in
    /// production.
    pub worker_delay_ms: u64,
    /// When set, serve Prometheus text exposition on `GET /metrics` at
    /// this address (plain HTTP, port 0 allowed). `None` disables the
    /// endpoint.
    pub metrics_addr: Option<String>,
    /// When set, persist CHT shards (snapshot + WAL) under this directory
    /// and warm-start sessions whose `open` carries a matching environment
    /// fingerprint. `None` disables persistence.
    pub store_dir: Option<String>,
    /// When set, enable span recording and write flight + Chrome-trace
    /// dumps (`flight-<n>.json`, `trace-<n>.json`) into this directory on
    /// every `dump` op or auto-dump. `None` keeps dumps in-memory only
    /// (`/debug/flight` still works).
    pub trace_dump: Option<String>,
    /// Latency threshold (milliseconds) above which a check batch trips an
    /// automatic flight dump, rate-limited to one per second. 0 disables
    /// auto-dumps.
    pub flight_threshold_ms: u64,
    /// Run the continuous-profiling sampler thread (`copred-profiler`).
    /// Stage frames are published by connection threads either way —
    /// this only controls whether anything reads them. The `ab=1`
    /// loadgen harness turns it off on the baseline arm to measure
    /// sampler overhead.
    pub profile_sampler: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 128,
            session_queue_cap: 32,
            max_sessions: 64,
            cht_params: ChtParams::paper_arm(),
            csp_step: Schedule::DEFAULT_CSP_STEP,
            retry_after_ms: 10,
            worker_delay_ms: 0,
            metrics_addr: None,
            store_dir: None,
            trace_dump: None,
            flight_threshold_ms: 0,
            profile_sampler: true,
        }
    }
}

/// FIFO admission for check batches: a ticket pair `(issued, finished)`
/// plus a condvar. Ticket `t` runs once `t < finished + workers`, so at
/// most `workers` batches execute at once and waiting batches start in
/// arrival order; a batch arriving with `workers + capacity` already
/// admitted is refused instead of blocking, so fullness can become
/// protocol-level backpressure.
struct Gate {
    tickets: Mutex<(u64, u64)>,
    turn: Condvar,
    workers: u64,
    capacity: u64,
}

/// An admitted batch's execution slot; dropping it (panic included)
/// finishes the ticket and lets the next one in.
struct Slot<'a>(&'a Gate);

impl Gate {
    fn new(workers: usize, capacity: usize) -> Self {
        Gate {
            tickets: Mutex::new((0, 0)),
            turn: Condvar::new(),
            workers: workers as u64,
            capacity: capacity as u64,
        }
    }

    fn lock(&self) -> MutexGuard<'_, (u64, u64)> {
        self.tickets.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes the next ticket and blocks until it may run, publishing the
    /// wait as a `queue_wait` stage; `None` when the gate is full.
    fn enter(&self) -> Option<Slot<'_>> {
        let mut t = self.lock();
        let ticket = t.0;
        if ticket - t.1 >= self.workers + self.capacity {
            return None;
        }
        t.0 += 1;
        if ticket >= t.1 + self.workers {
            let _wait = stage(Stage::QueueWait);
            while ticket >= t.1 + self.workers {
                t = self.turn.wait(t).unwrap_or_else(PoisonError::into_inner);
            }
        }
        Some(Slot(self))
    }

    /// Batches admitted but still waiting for a slot.
    fn waiting(&self) -> usize {
        let (issued, finished) = *self.lock();
        (issued - finished).saturating_sub(self.workers) as usize
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.lock().1 += 1;
        self.0.turn.notify_all();
    }
}

/// Holds one unit of a session's `pending` count; returned on drop, so a
/// panicking batch cannot leave its session looking busy forever.
struct Pending<'a>(&'a SessionState);

impl Drop for Pending<'_> {
    fn drop(&mut self) {
        self.0.pending.fetch_sub(1, Ordering::AcqRel);
    }
}

/// State shared by the accept loop and connection handlers.
struct Shared {
    registry: SessionRegistry,
    metrics: Metrics,
    gate: Gate,
    config: ServerConfig,
    /// Set by [`Server::shutdown`]: the accept loop exits and every later
    /// check is answered `busy` instead of admitted.
    stopping: AtomicBool,
    /// Monotonic dump file counter (`flight-<n>.json` / `trace-<n>.json`).
    dump_seq: AtomicU64,
    /// Milliseconds since `started` of the last auto-dump plus one
    /// (0 = never), for the one-per-second rate limit.
    last_auto_dump_ms: AtomicU64,
    /// Process-start instant anchoring `last_auto_dump_ms`.
    started: Instant,
    /// The continuous-profiling sampler (`None` with `profile_sampler`
    /// off — the A/B baseline arm). Joined when the last `Shared`
    /// reference drops.
    sampler: Option<copred_obs::Sampler>,
}

/// The profile accumulated so far: a live copy from the sampler, or the
/// empty profile when the sampler is disabled (every export then renders
/// its zero/empty shape).
fn current_profile(shared: &Shared) -> copred_obs::Profile {
    shared
        .sampler
        .as_ref()
        .map_or_else(copred_obs::Profile::default, |s| s.snapshot())
}

/// Rate-limited automatic flight dump: at most one per second, triggered
/// by a check batch exceeding the latency threshold.
fn maybe_auto_dump(shared: &Shared) {
    let now_ms = u64::try_from(shared.started.elapsed().as_millis()).unwrap_or(u64::MAX - 1) + 1;
    let last = shared.last_auto_dump_ms.load(Ordering::Relaxed);
    if last != 0 && now_ms.saturating_sub(last) < 1000 {
        return;
    }
    if shared
        .last_auto_dump_ms
        .compare_exchange(last, now_ms, Ordering::Relaxed, Ordering::Relaxed)
        .is_ok()
    {
        dump_flight(shared, true);
    }
}

/// Dumps the flight recorder (and, with `trace_dump` set, a snapshot of
/// the recorded spans as a Chrome trace with a self-profile section plus the folded
/// stacks as `profile-<n>.folded`) and returns the number of flight
/// entries.
fn dump_flight(shared: &Shared, auto: bool) -> u64 {
    let entries = copred_obs::flight_snapshot();
    if auto {
        shared
            .metrics
            .flight_auto_dumps
            .fetch_add(1, Ordering::Relaxed);
    } else {
        shared.metrics.flight_dumps.fetch_add(1, Ordering::Relaxed);
    }
    if let Some(dir) = shared.config.trace_dump.as_deref() {
        let n = shared.dump_seq.fetch_add(1, Ordering::Relaxed);
        let _ = std::fs::create_dir_all(dir);
        let flight_path = std::path::Path::new(dir).join(format!("flight-{n}.json"));
        let _ = std::fs::write(flight_path, copred_obs::flight_json(&entries));
        let profile = current_profile(shared);
        let trace_path = std::path::Path::new(dir).join(format!("trace-{n}.json"));
        let _ = std::fs::write(
            trace_path,
            copred_obs::chrome_trace_json_with_profile(&copred_obs::snapshot_events(), &profile),
        );
        let folded_path = std::path::Path::new(dir).join(format!("profile-{n}.folded"));
        let _ = std::fs::write(folded_path, profile.folded());
    }
    entries.len() as u64
}

/// Renders the `/metrics` page from the shared state.
fn render_shared(shared: &Shared) -> String {
    render_prometheus(
        &shared.metrics,
        &shared.registry.sessions_snapshot(),
        shared.gate.waiting(),
        &shared.registry.store_stats(),
        &current_profile(shared).snapshot(),
    )
}

/// A running copred service. Dropping the handle shuts it down.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_handle: Option<JoinHandle<()>>,
    metrics_server: Option<copred_obs::MetricsServer>,
}

impl Server {
    /// Binds, spawns the accept loop, and returns.
    ///
    /// # Errors
    ///
    /// Any bind failure.
    ///
    /// # Panics
    ///
    /// Panics when `config.max_sessions` or `config.workers` is zero.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        assert!(config.workers > 0, "need at least one worker");
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        // Open (and create) the store root before anything is spawned so a
        // bad directory fails the whole start cleanly.
        let store = match config.store_dir.as_deref() {
            Some(dir) => Some(Arc::new(copred_store::StoreRegistry::open(dir)?)),
            None => None,
        };
        if config.trace_dump.is_some() {
            // Dump export needs spans recorded; the flight recorder itself
            // is always on.
            copred_obs::enable();
        }
        let shared = Arc::new(Shared {
            registry: SessionRegistry::new_with_store(
                config.cht_params,
                config.max_sessions,
                store,
            ),
            metrics: Metrics::new(),
            gate: Gate::new(config.workers, config.queue_capacity),
            stopping: AtomicBool::new(false),
            dump_seq: AtomicU64::new(0),
            last_auto_dump_ms: AtomicU64::new(0),
            started: Instant::now(),
            sampler: config
                .profile_sampler
                .then(|| copred_obs::Sampler::start(copred_obs::DEFAULT_SAMPLE_INTERVAL)),
            config,
        });
        // Bind the metrics endpoint before spawning the accept loop so a bad
        // metrics address fails the whole start cleanly.
        let metrics_server = match shared.config.metrics_addr.clone() {
            Some(addr) => {
                let render_shared_state = Arc::clone(&shared);
                let flight_shared = Arc::clone(&shared);
                let profile_shared = Arc::clone(&shared);
                Some(copred_obs::MetricsServer::start_with_routes(
                    &addr,
                    vec![
                        (
                            "/metrics".to_string(),
                            Arc::new(move || render_shared(&render_shared_state)),
                        ),
                        (
                            "/debug/flight".to_string(),
                            Arc::new(move || {
                                flight_shared
                                    .metrics
                                    .flight_dumps
                                    .fetch_add(1, Ordering::Relaxed);
                                copred_obs::flight_json(&copred_obs::flight_snapshot())
                            }),
                        ),
                        (
                            "/debug/profile".to_string(),
                            Arc::new(move || current_profile(&profile_shared).render_text()),
                        ),
                    ],
                )?)
            }
            None => None,
        };

        let accept_handle = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("copred-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn accept loop")
        };

        Ok(Server {
            shared,
            local_addr,
            accept_handle: Some(accept_handle),
            metrics_server,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Server-wide metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// The bound address of the `/metrics` endpoint, when one is enabled.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_server.as_ref().map(|m| m.local_addr())
    }

    /// Renders the Prometheus exposition page from live state — the same
    /// bytes a `GET /metrics` scrape returns.
    pub fn render_prometheus(&self) -> String {
        render_shared(&self.shared)
    }

    /// A copy of the continuous profile accumulated so far (empty when
    /// `profile_sampler` is off). The same data backs `/debug/profile`,
    /// the `copred_profile_*` series, and `profile-<n>.folded` dumps.
    pub fn profile(&self) -> copred_obs::Profile {
        current_profile(&self.shared)
    }

    /// Stops accepting and joins the accept loop. Connections still open
    /// keep being served, except that every later check is answered
    /// `err busy server shutting down`; batches already admitted finish.
    /// Connection handler threads exit when their peers disconnect.
    pub fn shutdown(&mut self) {
        if self.shared.stopping.swap(true, Ordering::AcqRel) {
            return;
        }
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        if let Some(mut m) = self.metrics_server.take() {
            m.shutdown();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.stopping.load(Ordering::Acquire) {
                    return;
                }
                let shared = Arc::clone(shared);
                let _ = thread::Builder::new()
                    .name("copred-conn".to_string())
                    .spawn(move || handle_connection(stream, &shared));
            }
            Err(_) if shared.stopping.load(Ordering::Acquire) => return,
            Err(_) => continue,
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(write_half);
    loop {
        let payload = match read_text_frame(&mut reader) {
            Ok(Some(p)) => p,
            Ok(None) => return, // clean disconnect
            Err(_) => {
                // Framing is broken; the stream cannot be resynchronized.
                let resp = Response::Error(ServiceError::BadRequest("bad frame".into()));
                let _ = write_text_frame(&mut writer, &resp.to_text());
                return;
            }
        };
        // The decode span is timed before the trace id is known (it is
        // parsed out of the payload), so it is emitted explicitly after
        // the trace scope is entered — that way it, too, carries the id.
        let decode_start = copred_obs::timestamp_ns();
        let decode_t0 = Instant::now();
        let parsed = {
            let _decode = stage(Stage::Decode);
            Request::from_text(&payload)
        };
        let decode_ns = u64::try_from(decode_t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let trace = match &parsed {
            Ok(Request::CheckMotion { trace, .. }) | Ok(Request::CheckPose { trace, .. }) => *trace,
            _ => None,
        };
        let _trace_scope = TraceScope::enter(trace);
        if trace.is_some() {
            shared
                .metrics
                .traced_requests
                .fetch_add(1, Ordering::Relaxed);
        }
        if copred_obs::enabled() {
            copred_obs::span_at("service", "decode", decode_start, decode_ns);
        }
        let response = match parsed {
            Ok(req) => {
                shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
                dispatch(req, shared)
            }
            Err(reason) => {
                shared.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
                Response::Error(ServiceError::BadRequest(reason))
            }
        };
        let encode_span = copred_obs::span("service", "encode");
        let encode_stage = stage(Stage::Encode);
        let wrote = write_text_frame(&mut writer, &response.to_text());
        drop(encode_stage);
        drop(encode_span);
        if wrote.is_err() {
            return;
        }
    }
}

fn dispatch(req: Request, shared: &Shared) -> Response {
    match req {
        Request::Open {
            robot,
            link_count: _,
            mode,
            seed,
            fp,
        } => match shared.registry.open_full(&robot, mode, seed, fp) {
            Ok(outcome) => {
                shared
                    .metrics
                    .sessions_opened
                    .fetch_add(1, Ordering::Relaxed);
                shared
                    .metrics
                    .sessions_evicted
                    .fetch_add(outcome.evicted as u64, Ordering::Relaxed);
                // Learned state displaced by LRU pressure is counted even
                // when the store is disabled (then it really was lost).
                shared
                    .metrics
                    .evicted_learned
                    .fetch_add(outcome.evicted_occupancy, Ordering::Relaxed);
                Response::Session {
                    id: outcome.session.id,
                    warm: outcome.warm,
                }
            }
            Err(e) => Response::Error(e),
        },
        Request::CheckMotion {
            session,
            motions,
            trace,
        } => run_checks(session, motions, trace, shared),
        Request::CheckPose {
            session,
            motion,
            trace,
        } => run_checks(session, vec![motion], trace, shared),
        Request::Dump => {
            let entries = dump_flight(shared, false);
            copred_obs::flight_op("dump", entries, 0);
            Response::DumpDone { entries }
        }
        Request::ResetCht { session } => match shared.registry.get(session) {
            Ok(s) => {
                s.shard.reset();
                // An explicit reset is an intent to forget: persist the
                // empty table so a later warm open does not resurrect the
                // state the client just cleared.
                s.persist_to_store();
                Response::ResetDone
            }
            Err(e) => Response::Error(e),
        },
        Request::Stats { session: None } => {
            Response::Stats(shared.metrics.stat_lines(shared.registry.len()))
        }
        Request::Stats { session: Some(id) } => match shared.registry.get(id) {
            Ok(s) => Response::Stats(s.metrics.stat_lines(s.mode.label(), s.shard.occupancy())),
            Err(e) => Response::Error(e),
        },
        Request::Close { session } => match shared.registry.close(session) {
            Ok(()) => {
                shared
                    .metrics
                    .sessions_closed
                    .fetch_add(1, Ordering::Relaxed);
                Response::Closed
            }
            Err(e) => Response::Error(e),
        },
        Request::SnapGet { fp } => match shared.registry.store() {
            Some(store) => match store.load(fp, &shared.config.cht_params) {
                Some(image) => Response::Snap {
                    fp,
                    payload: copred_store::snapshot::encode(&image),
                },
                None => Response::SnapNone { fp },
            },
            None => Response::Error(ServiceError::BadRequest(
                "snap_get needs a store-enabled server".into(),
            )),
        },
        Request::SnapSession { session } => match shared.registry.get(session) {
            Ok(s) => Response::Snap {
                fp: s.store_fp().unwrap_or(0),
                payload: copred_store::snapshot::encode(&s.table_image()),
            },
            Err(e) => Response::Error(e),
        },
        Request::SnapOffer {
            fp,
            version,
            crc,
            len: _,
        } => match shared.registry.store() {
            Some(store) => {
                // Want the push unless the stored state already encodes to
                // the offered bytes (same CRC ⇒ same bytes ⇒ merge would be
                // a no-op). Version skew is declined here, not errored: an
                // offer is a question, not a transfer.
                let have = store
                    .load(fp, &shared.config.cht_params)
                    .map(|image| copred_store::crc::crc32(&copred_store::snapshot::encode(&image)));
                let want = version == copred_store::SNAPSHOT_VERSION && have != Some(crc);
                Response::SnapWant { fp, want }
            }
            None => Response::SnapWant { fp, want: false },
        },
        Request::SnapPush {
            fp,
            version,
            crc,
            payload,
        } => receive_snap_push(shared, fp, version, crc, &payload),
    }
}

/// The receiving half of fleet snapshot replication: validates the
/// transfer (version, CRC over the bytes as received), decodes the
/// CPRDSNAP image (which re-validates its own header and payload CRC),
/// checks it targets this server's table geometry, and max-merges it into
/// the store. Every failure is a structured error response — a hostile or
/// torn transfer must leave the store exactly as it was, cold-startable,
/// with the server still serving.
fn receive_snap_push(shared: &Shared, fp: u64, version: u32, crc: u32, payload: &[u8]) -> Response {
    let fleet = crate::prom::fleet_stats();
    let reject = |message: String| {
        fleet.snapshots_rejected.fetch_add(1, Ordering::Relaxed);
        Response::Error(ServiceError::BadRequest(message))
    };
    let Some(store) = shared.registry.store() else {
        return reject("snap_push needs a store-enabled server".into());
    };
    if version != copred_store::SNAPSHOT_VERSION {
        return reject(format!(
            "snapshot version {version} not supported (want {})",
            copred_store::SNAPSHOT_VERSION
        ));
    }
    if copred_store::crc::crc32(payload) != crc {
        return reject("snapshot transfer CRC mismatch".into());
    }
    let image = match copred_store::snapshot::decode(payload) {
        Ok(image) => image,
        Err(e) => return reject(format!("snapshot rejected: {e}")),
    };
    if image.params != shared.config.cht_params {
        return reject("snapshot parameters do not match this server's table".into());
    }
    match store.merge_image(fp, &image) {
        Ok(merged) => {
            fleet.snapshots_received.fetch_add(1, Ordering::Relaxed);
            Response::SnapApplied { fp, merged }
        }
        Err(copred_store::StoreError::Leased(_)) => {
            fleet.snapshots_rejected.fetch_add(1, Ordering::Relaxed);
            Response::Error(ServiceError::Busy(format!(
                "fingerprint {fp:x} is leased by a live session"
            )))
        }
        Err(e) => reject(format!("snapshot merge failed: {e}")),
    }
}

/// Applies both backpressure bounds, waits for an execution slot, and
/// runs the batch on this connection thread.
fn run_checks(
    session_id: u64,
    motions: Vec<MotionTrace>,
    trace: Option<TraceId>,
    shared: &Shared,
) -> Response {
    if shared.stopping.load(Ordering::Acquire) {
        return Response::Error(ServiceError::Busy("server shutting down".into()));
    }
    let session = match shared.registry.get(session_id) {
        Ok(s) => s,
        Err(e) => return Response::Error(e),
    };
    let retry = |message: &str| {
        shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
        Response::Error(ServiceError::RetryAfter {
            ms: shared.config.retry_after_ms,
            message: message.to_string(),
        })
    };
    // Per-session bound first: a flooding session is rejected before it
    // can take global gate slots from the others.
    let prev = session.pending.fetch_add(1, Ordering::AcqRel);
    let pending = Pending(&session);
    if prev >= shared.config.session_queue_cap {
        return retry("session queue full");
    }
    let admitted = Instant::now();
    let Some(slot) = shared.gate.enter() else {
        return retry("server queue full");
    };
    if copred_obs::enabled() {
        copred_obs::counter("service", "queue_depth", shared.gate.waiting() as u64);
    }
    if shared.config.worker_delay_ms > 0 {
        thread::sleep(Duration::from_millis(shared.config.worker_delay_ms));
    }
    let results = execute_batch(&session, &motions, shared.config.csp_step);
    drop(slot);
    drop(pending);
    let gm = &shared.metrics;
    gm.checks.fetch_add(results.len() as u64, Ordering::Relaxed);
    gm.cdqs_issued.fetch_add(
        results.iter().map(|r| r.cdqs_executed).sum(),
        Ordering::Relaxed,
    );
    gm.cdqs_total.fetch_add(
        results.iter().map(|r| r.cdqs_total).sum(),
        Ordering::Relaxed,
    );
    let ns = u64::try_from(admitted.elapsed().as_nanos()).unwrap_or(u64::MAX);
    gm.check_latency
        .record_traced(ns, trace.map_or(0, |t| t.raw()));
    copred_obs::flight_op("check", motions.len() as u64, ns);
    let threshold = shared.config.flight_threshold_ms;
    if threshold > 0 && ns > threshold.saturating_mul(1_000_000) {
        maybe_auto_dump(shared);
    }
    // The echo mirrors the request token exactly: absent stays absent,
    // so untraced responses keep the legacy wire bytes.
    Response::Results { results, trace }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::SchedMode;
    use std::sync::atomic::AtomicUsize;

    /// Spins until `issued` reaches `n`, i.e. `n` tickets have been taken.
    fn wait_issued(gate: &Gate, n: u64) {
        while gate.lock().0 < n {
            thread::yield_now();
        }
    }

    #[test]
    fn gate_runs_at_most_workers_batches_at_once() {
        let gate = Gate::new(2, 64);
        let running = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..20 {
                        let _slot = gate.enter().expect("8 contenders fit 2 + 64");
                        let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        thread::sleep(Duration::from_micros(100));
                        running.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "more than 2 batches ran at once"
        );
        assert_eq!(*gate.lock(), (160, 160), "every ticket finished");
    }

    #[test]
    fn gate_admits_tickets_in_arrival_order() {
        let gate = Gate::new(1, 16);
        let order = Mutex::new(Vec::new());
        let held = gate.enter().expect("first ticket");
        thread::scope(|scope| {
            for k in 0..5u64 {
                let (gate, order) = (&gate, &order);
                scope.spawn(move || {
                    let _slot = gate.enter().expect("queue has room");
                    order.lock().unwrap().push(k);
                });
                // Ticket k + 1 is taken before the next thread starts.
                wait_issued(gate, k + 2);
            }
            assert_eq!(gate.waiting(), 5);
            drop(held);
        });
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
        assert_eq!(gate.waiting(), 0);
    }

    #[test]
    fn gate_refuses_entry_beyond_workers_plus_capacity() {
        let gate = Gate::new(2, 3);
        let a = gate.enter().expect("slot 1");
        let b = gate.enter().expect("slot 2");
        thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| drop(gate.enter().expect("queue has room")));
            }
            wait_issued(&gate, 5);
            assert_eq!(gate.waiting(), 3);
            assert!(
                gate.enter().is_none(),
                "6th concurrent entry must be refused"
            );
            drop((a, b));
        });
        assert_eq!(*gate.lock(), (5, 5), "a refused entry takes no ticket");
    }

    #[test]
    fn panicking_holder_returns_its_slot_and_pending_count() {
        // Capacity 0: a leaked slot would make a later `enter` refuse
        // instead of block, so a regression fails rather than hangs.
        let gate = Gate::new(2, 0);
        let registry = SessionRegistry::new(ChtParams::paper_2d(), 1);
        let (session, _) = registry.open("planar-2d", SchedMode::Coord, 1).unwrap();
        for _ in 0..2 {
            let joined = thread::scope(|scope| {
                scope
                    .spawn(|| {
                        session.pending.fetch_add(1, Ordering::AcqRel);
                        let _pending = Pending(&session);
                        let _slot = gate.enter().expect("free slot");
                        panic!("batch panicked");
                    })
                    .join()
            });
            assert!(joined.is_err());
        }
        assert_eq!(session.pending.load(Ordering::Acquire), 0);
        let slots = (gate.enter(), gate.enter());
        assert!(
            slots.0.is_some() && slots.1.is_some(),
            "both slots came back"
        );
    }

    #[test]
    fn checks_after_shutdown_are_answered_busy() {
        let mut server = Server::start(ServerConfig::default()).expect("start server");
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(3)))
            .expect("read timeout");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        let mut call = |req: &str| {
            write_text_frame(&mut writer, req).expect("send");
            read_text_frame(&mut reader)
                .expect("reply before the read timeout")
                .expect("connection open")
        };
        let opened = call("open planar-2d 2 coord 5");
        let id = opened
            .strip_prefix("ok session ")
            .and_then(|rest| rest.split_whitespace().next())
            .expect("session id");
        let check = format!(
            "check_motion {id} 1\nmotion S1 2 2\npose 0.0 0.0\npose 1.0 1.0\n\
             cdq 0 0 1.0 1.0 0.0 0 3\ncdq 1 0 2.0 2.0 0.0 1 3\n"
        );
        assert!(
            call(&check).starts_with("ok results"),
            "live server answers"
        );
        server.shutdown();
        assert_eq!(call(&check), "err busy server shutting down\n");
        assert!(call("stats").starts_with("ok stats"));
    }
}
