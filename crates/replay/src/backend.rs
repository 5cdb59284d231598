//! Pluggable replay targets.
//!
//! A [`ReplayBackend`] is anything that answers wire [`Request`]s with
//! wire [`Response`]s: the in-process [`SessionRegistry`] (fastest, and
//! the one whose per-session metrics ledger the conformance harness
//! audits), a loopback `copred_server` over TCP (exercises the full
//! frame/queue/worker path), and — through the same trait — a future
//! fleet of remote servers.

use crate::engine::Ledger;
use copred_core::ChtParams;
use copred_service::protocol::{Request, Response, ServiceError};
use copred_service::{
    execute_batch, Server, ServerConfig, ServiceClient, SessionRegistry, SessionState,
};
use std::io;
use std::net::ToSocketAddrs;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A target that can answer recorded requests. Implementations absorb
/// their own transient backpressure (`retry_after`) so the engine sees
/// only final answers, exactly like the recorder did.
pub trait ReplayBackend {
    /// Human-readable backend label for reports (`inproc`, `loopback`, ...).
    fn label(&self) -> &str;

    /// Answers one request.
    ///
    /// # Errors
    ///
    /// A transport- or backend-fatal failure (I/O, retry exhaustion) as a
    /// human-readable reason. Protocol-level failures are `Ok` carrying
    /// [`Response::Error`].
    fn call(&mut self, req: &Request) -> Result<Response, String>;

    /// Per-session metrics ledgers for every session this backend opened,
    /// in open order — what the differential engine holds against the
    /// recording and the other arms. `None` when the backend cannot see
    /// its sessions' metrics (a remote server forgets closed sessions).
    fn ledgers(&self) -> Option<Vec<Ledger>> {
        None
    }
}

/// Replays against an in-process [`SessionRegistry`], executing batches
/// with the same [`execute_batch`] the server's connection threads run
/// — minus the wire. Keeps an [`Arc`] to every session it opens (even
/// after close) so callers can audit the full per-session metrics ledger
/// afterwards.
pub struct InProcessBackend {
    registry: SessionRegistry,
    csp_step: usize,
    opened: Vec<Arc<SessionState>>,
    label: String,
}

impl InProcessBackend {
    /// A backend over a fresh registry with explicit CHT geometry and CSP
    /// stride.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new(params: ChtParams, capacity: usize, csp_step: usize) -> Self {
        Self::over(SessionRegistry::new(params, capacity), csp_step)
    }

    /// A backend over an existing registry (e.g. one with a store
    /// attached) with an explicit CSP stride.
    pub fn over(registry: SessionRegistry, csp_step: usize) -> Self {
        InProcessBackend {
            registry,
            csp_step,
            opened: Vec::new(),
            label: "inproc".to_string(),
        }
    }

    /// A backend whose CHT geometry, capacity, and CSP stride match
    /// [`ServerConfig::default`] — replays of logs recorded against a
    /// default server are bit-identical through this.
    pub fn with_server_defaults() -> Self {
        let cfg = ServerConfig::default();
        Self::new(cfg.cht_params, cfg.max_sessions, cfg.csp_step)
    }

    /// Renames the backend (useful for A/B reports).
    #[must_use]
    pub fn labeled(mut self, label: &str) -> Self {
        self.label = label.to_string();
        self
    }

    /// The backing registry.
    pub fn registry(&self) -> &SessionRegistry {
        &self.registry
    }

    /// Every session this backend opened, in open order, including ones
    /// closed since — their metrics ledgers stay readable.
    pub fn opened(&self) -> &[Arc<SessionState>] {
        &self.opened
    }
}

impl ReplayBackend for InProcessBackend {
    fn label(&self) -> &str {
        &self.label
    }

    fn ledgers(&self) -> Option<Vec<Ledger>> {
        Some(
            self.opened
                .iter()
                .map(|s| {
                    let m = &s.metrics;
                    Ledger {
                        checks: m.checks.load(Ordering::Relaxed),
                        collisions: m.collisions.load(Ordering::Relaxed),
                        cdqs_issued: m.cdqs_issued.load(Ordering::Relaxed),
                        cdqs_total: m.cdqs_total.load(Ordering::Relaxed),
                    }
                })
                .collect(),
        )
    }

    fn call(&mut self, req: &Request) -> Result<Response, String> {
        let resp = match req {
            Request::Open {
                robot,
                link_count: _,
                mode,
                seed,
                fp,
            } => match self.registry.open_full(robot, *mode, *seed, *fp) {
                Ok(o) => {
                    self.opened.push(Arc::clone(&o.session));
                    Response::Session {
                        id: o.session.id,
                        warm: o.warm,
                    }
                }
                Err(e) => Response::Error(e),
            },
            Request::CheckMotion {
                session,
                motions,
                trace,
            } => match self.registry.get(*session) {
                // Echo the trace token exactly like the server does; it
                // never influences the check itself.
                Ok(s) => Response::Results {
                    results: execute_batch(&s, motions, self.csp_step),
                    trace: *trace,
                },
                Err(e) => Response::Error(e),
            },
            Request::CheckPose {
                session,
                motion,
                trace,
            } => match self.registry.get(*session) {
                Ok(s) => Response::Results {
                    results: execute_batch(&s, std::slice::from_ref(motion), self.csp_step),
                    trace: *trace,
                },
                Err(e) => Response::Error(e),
            },
            Request::Dump => Response::DumpDone {
                entries: copred_obs::flight_snapshot().len() as u64,
            },
            Request::ResetCht { session } => match self.registry.get(*session) {
                Ok(s) => {
                    s.shard.reset();
                    // Match the server: a reset also persists the cleared
                    // table (a no-op without a store).
                    s.persist_to_store();
                    Response::ResetDone
                }
                Err(e) => Response::Error(e),
            },
            // The recorder never logs stats ops (their values are
            // non-deterministic), but answer the shape anyway.
            Request::Stats { .. } => Response::Stats(Vec::new()),
            // Fleet replication verbs, answered with single-node
            // semantics: live-session images export fine, but there is
            // no store to get from, offer against, or push into.
            Request::SnapSession { session } => match self.registry.get(*session) {
                Ok(s) => Response::Snap {
                    fp: s.store_fp().unwrap_or(0),
                    payload: copred_store::snapshot::encode(&s.table_image()),
                },
                Err(e) => Response::Error(e),
            },
            Request::SnapGet { .. } => Response::Error(ServiceError::BadRequest(
                "snap_get needs a store-enabled server".into(),
            )),
            Request::SnapOffer { fp, .. } => Response::SnapWant {
                fp: *fp,
                want: false,
            },
            Request::SnapPush { .. } => Response::Error(ServiceError::BadRequest(
                "snap_push needs a store-enabled server".into(),
            )),
            Request::Close { session } => match self.registry.close(*session) {
                Ok(()) => Response::Closed,
                Err(e) => Response::Error(e),
            },
        };
        Ok(resp)
    }
}

/// Replays over TCP against a `copred_server` — either one this backend
/// starts and owns (loopback) or an external address. Absorbs
/// `retry_after` backpressure by sleeping as told, and counts the rounds
/// it absorbed.
pub struct LoopbackBackend {
    server: Option<Server>,
    client: ServiceClient,
    max_retries: usize,
    retries: u64,
    label: String,
}

impl LoopbackBackend {
    /// Starts an owned server with `config` and connects to it. The
    /// server shuts down when the backend drops.
    ///
    /// # Errors
    ///
    /// Bind/connect failures.
    pub fn start(config: ServerConfig) -> io::Result<Self> {
        let server = Server::start(config)?;
        let client = ServiceClient::connect(server.local_addr())?;
        Ok(LoopbackBackend {
            server: Some(server),
            client,
            max_retries: 64,
            retries: 0,
            label: "loopback".to_string(),
        })
    }

    /// Connects to an already-running server.
    ///
    /// # Errors
    ///
    /// Connect failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Ok(LoopbackBackend {
            server: None,
            client: ServiceClient::connect(addr)?,
            max_retries: 64,
            retries: 0,
            label: "loopback".to_string(),
        })
    }

    /// Renames the backend (useful for A/B reports).
    #[must_use]
    pub fn labeled(mut self, label: &str) -> Self {
        self.label = label.to_string();
        self
    }

    /// The owned server, when this backend started one.
    pub fn server(&self) -> Option<&Server> {
        self.server.as_ref()
    }

    /// `retry_after` rounds this backend absorbed so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }
}

impl ReplayBackend for LoopbackBackend {
    fn label(&self) -> &str {
        &self.label
    }

    fn call(&mut self, req: &Request) -> Result<Response, String> {
        let mut retries = 0;
        loop {
            match self.client.call(req) {
                Ok(Response::Error(ServiceError::RetryAfter { ms, message })) => {
                    if retries >= self.max_retries {
                        return Err(format!("backpressured {retries} times: {message}"));
                    }
                    retries += 1;
                    self.retries += 1;
                    std::thread::sleep(std::time::Duration::from_millis(ms.max(1)));
                }
                Ok(resp) => return Ok(resp),
                Err(e) => return Err(format!("transport error: {e}")),
            }
        }
    }
}

/// Exists so the doc-comment contract is testable: every built-in
/// backend answers an `open` for each of the three scheduling modes.
#[cfg(test)]
mod tests {
    use super::*;
    use copred_service::protocol::SchedMode;

    #[test]
    fn inproc_backend_answers_open_check_close() {
        let mut b = InProcessBackend::new(ChtParams::paper_2d(), 4, 5);
        let open = Request::Open {
            robot: "planar-2d".to_string(),
            link_count: 1,
            mode: SchedMode::Coord,
            seed: 7,
            fp: None,
        };
        let Response::Session { id, warm } = b.call(&open).expect("open") else {
            panic!("want session");
        };
        assert!(!warm);
        assert_eq!(b.opened().len(), 1);
        let close = Request::Close { session: id };
        assert_eq!(b.call(&close).expect("close"), Response::Closed);
        // The ledger stays readable after close.
        assert_eq!(b.opened()[0].id, id);
        // Unknown session is a protocol error, not a backend error.
        let resp = b.call(&Request::Close { session: 999 }).expect("call");
        assert!(matches!(
            resp,
            Response::Error(ServiceError::NoSession(999))
        ));
    }
}
