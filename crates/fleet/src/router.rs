//! The fleet router: one wire endpoint fronting N `copred_server`
//! backends.
//!
//! The router speaks the exact client protocol on both sides. Sessions
//! are placed by rendezvous hash of their store fingerprint (sessions
//! without one hash their router-assigned token instead); the router
//! owns the session-id namespace, so a client never learns — or cares —
//! which backend answered. Per-backend `retry_after` backpressure is
//! absorbed here, like the recording client absorbed it.
//!
//! **Warm-state replication.** After every successful check batch on a
//! fingerprinted session the router pulls the owner's live table image
//! (`snap_session`) and caches the encoded snapshot. When a backend dies
//! (transport failure, or declared dead by the operator), each of its
//! sessions re-homes to the rendezvous survivor: the cached replica is
//! pushed (`snap_push`, a pure max-merge join on the receiver), the
//! session re-opens with its original parameters, and the warm start
//! restores the exact cells and scheduler state — the op stream
//! continues bit-identically as long as the replica was current (i.e.
//! the backend died between batches; a mid-batch death replays the batch
//! against the restored pre-batch state, an at-least-once seam DESIGN.md
//! documents). On close the final replica is gossiped to every live
//! peer, so the fingerprint's next session warm-starts anywhere.
//!
//! The router keeps its own [`SessionLedger`] per session, accumulated
//! from forwarded results. Unlike the backend's per-session counters it
//! survives migration, which is what lets the conformance harness hold a
//! migrated session's ledger against an unmigrated one. At close the
//! route itself — the `open` request and the last replica — is dropped;
//! only the ledger stays.

use crate::hash;
use copred_replay::{Ledger, ReplayBackend};
use copred_service::protocol::{Request, Response, ServiceError};
use copred_service::{fleet_stats, Metrics, ServiceClient};
use copred_store::crc::crc32;
use copred_store::SNAPSHOT_VERSION;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// How many `retry_after` answers the router absorbs per op before
/// declaring the backend wedged.
const MAX_RETRIES: usize = 64;

/// Deterministic per-session counters mirrored at the router from
/// forwarded check results. The backend's own ledger fragments across a
/// migration; this one follows the session.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionLedger {
    /// Motion checks answered.
    pub checks: u64,
    /// Checks that reported a collision.
    pub collisions: u64,
    /// CDQs the backends executed for this session.
    pub cdqs_issued: u64,
    /// CDQs the session's motions decomposed into.
    pub cdqs_total: u64,
    /// Obstacle-pair tests inside the executed CDQs.
    pub obstacle_tests: u64,
    /// Times the session re-homed to a survivor.
    pub migrations: u64,
}

/// One backend in the membership list.
struct Node {
    addr: String,
    client: Option<ServiceClient>,
    alive: bool,
}

/// Where a live router session lives right now. Dropped at close, when
/// only its ledger is kept.
struct Route {
    node: usize,
    remote: u64,
    /// The original `open`, replayed verbatim on failover.
    open: Request,
    /// Rendezvous key (fingerprint, or a salted token for fp-less
    /// sessions) — fixed at open so failover re-homes deterministically.
    key: u64,
    fp: Option<u64>,
    /// Latest encoded `CPRDSNAP` pulled from the owner; the failover
    /// warm-start source.
    replica: Option<Vec<u8>>,
    ledger: SessionLedger,
}

/// A protocol-transparent router over N backends. Single-threaded by
/// design (wrap in a mutex to front concurrent connections, as
/// `copred_fleet route` does); implements [`ReplayBackend`] so replay
/// and conformance tooling drive a fleet exactly like a single node.
pub struct Router {
    nodes: Vec<Node>,
    /// Live sessions.
    routes: BTreeMap<u64, Route>,
    /// The ledgers of closed sessions.
    closed: BTreeMap<u64, SessionLedger>,
    next_id: u64,
    /// Router-local mirror of the global counters, answering fleet-wide
    /// `stats` without fanning out to backends mid-replay.
    metrics: Metrics,
    label: String,
}

impl Router {
    /// A router over the given backend addresses. Connections are opened
    /// lazily, so construction cannot fail.
    pub fn new(addrs: &[String]) -> Router {
        assert!(!addrs.is_empty(), "a fleet needs at least one backend");
        Router {
            nodes: addrs
                .iter()
                .map(|a| Node {
                    addr: a.clone(),
                    client: None,
                    alive: true,
                })
                .collect(),
            routes: BTreeMap::new(),
            closed: BTreeMap::new(),
            next_id: 0,
            metrics: Metrics::new(),
            label: "fleet".to_string(),
        }
    }

    /// A node-less placeholder for swap-out moves (see
    /// [`crate::FleetBackend::into_router`]); never routes anything.
    pub(crate) fn placeholder() -> Router {
        Router {
            nodes: Vec::new(),
            routes: BTreeMap::new(),
            closed: BTreeMap::new(),
            next_id: 0,
            metrics: Metrics::new(),
            label: "fleet".to_string(),
        }
    }

    /// Renames the router (useful for A/B reports).
    #[must_use]
    pub fn labeled(mut self, label: &str) -> Router {
        self.label = label.to_string();
        self
    }

    /// Declares a backend dead (an operator/watchdog signal). Its
    /// sessions re-home lazily, on their next op.
    pub fn mark_dead(&mut self, node: usize) {
        self.nodes[node].alive = false;
        self.nodes[node].client = None;
    }

    /// Which backend a session currently lives on.
    pub fn node_of(&self, session: u64) -> Option<usize> {
        self.routes.get(&session).map(|r| r.node)
    }

    /// The router's ledger for a session (kept after close).
    pub fn ledger(&self, session: u64) -> Option<&SessionLedger> {
        self.routes
            .get(&session)
            .map(|r| &r.ledger)
            .or_else(|| self.closed.get(&session))
    }

    fn alive_nodes(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].alive)
            .collect()
    }

    /// One request/response exchange with a backend. Any transport
    /// failure marks the node dead — the caller decides whether failover
    /// applies.
    fn raw_call(&mut self, node: usize, req: &Request) -> Result<Response, String> {
        let n = &mut self.nodes[node];
        if !n.alive {
            return Err(format!("backend {node} ({}) is down", n.addr));
        }
        if n.client.is_none() {
            match ServiceClient::connect(&n.addr) {
                Ok(c) => n.client = Some(c),
                Err(e) => {
                    self.mark_dead(node);
                    return Err(format!("backend {node} connect: {e}"));
                }
            }
        }
        match n.client.as_mut().expect("client just ensured").call(req) {
            Ok(resp) => Ok(resp),
            Err(e) => {
                self.mark_dead(node);
                Err(format!("backend {node} transport: {e}"))
            }
        }
    }

    /// [`Self::raw_call`] with `retry_after` absorbed by sleeping as
    /// told, up to [`MAX_RETRIES`] times.
    fn absorb_call(&mut self, node: usize, req: &Request) -> Result<Response, String> {
        let mut retries = 0;
        loop {
            match self.raw_call(node, req)? {
                Response::Error(ServiceError::RetryAfter { ms, message }) => {
                    if retries >= MAX_RETRIES {
                        return Err(format!(
                            "backend {node} backpressured {retries} times: {message}"
                        ));
                    }
                    retries += 1;
                    std::thread::sleep(Duration::from_millis(ms.max(1)));
                }
                resp => return Ok(resp),
            }
        }
    }

    /// Pulls the live table image of `remote` on `node`. Best-effort: a
    /// session without a fingerprint answers `snap_none`, and transport
    /// errors surface to the caller only as `None` (the cached replica,
    /// if any, stays).
    fn pull_replica(&mut self, node: usize, remote: u64) -> Option<Vec<u8>> {
        match self.absorb_call(node, &Request::SnapSession { session: remote }) {
            Ok(Response::Snap { payload, .. }) => Some(payload),
            Ok(Response::SnapNone { .. }) => None,
            Ok(_) | Err(_) => {
                fleet_stats().backend_errors.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Pushes an encoded snapshot to `node`; true when applied.
    fn push_replica(&mut self, node: usize, fp: u64, payload: &[u8]) -> bool {
        let req = Request::SnapPush {
            fp,
            version: SNAPSHOT_VERSION,
            crc: crc32(payload),
            payload: payload.to_vec(),
        };
        match self.absorb_call(node, &req) {
            Ok(Response::SnapApplied { .. }) => {
                fleet_stats()
                    .snapshots_shipped
                    .fetch_add(1, Ordering::Relaxed);
                true
            }
            Ok(_) | Err(_) => {
                fleet_stats().backend_errors.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Re-homes a session to the rendezvous survivor: push the cached
    /// replica (warm-start source), replay the original `open`, remap
    /// the remote token.
    fn migrate(&mut self, session: u64) -> Result<(), String> {
        let (key, fp, open, replica) = {
            let r = self
                .routes
                .get(&session)
                .ok_or_else(|| format!("no route for session {session}"))?;
            (r.key, r.fp, r.open.clone(), r.replica.clone())
        };
        loop {
            let target = hash::pick(key, self.alive_nodes())
                .ok_or_else(|| "no live backends to fail over to".to_string())?;
            if let (Some(fp), Some(replica)) = (fp, &replica) {
                // A rejected push (e.g. the fingerprint is leased there)
                // degrades to a cold re-open — never a stall.
                self.push_replica(target, fp, replica);
            }
            match self.absorb_call(target, &open) {
                Ok(Response::Session {
                    id: remote,
                    warm: _,
                }) => {
                    let r = self.routes.get_mut(&session).expect("route checked above");
                    r.node = target;
                    r.remote = remote;
                    r.ledger.migrations += 1;
                    fleet_stats().failovers.fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                }
                Ok(Response::Error(e)) => {
                    return Err(format!("failover re-open on backend {target}: {e}"))
                }
                Ok(other) => {
                    return Err(format!("failover re-open answered {other:?}"));
                }
                // The survivor died too; rendezvous again over whoever
                // is left.
                Err(_) => continue,
            }
        }
    }

    /// Forwards a session-scoped request, failing over (at most once per
    /// surviving membership) when the owner is unreachable.
    fn forward(&mut self, session: u64, make: impl Fn(u64) -> Request) -> Result<Response, String> {
        loop {
            let (node, remote, alive) = {
                let r = self
                    .routes
                    .get(&session)
                    .ok_or_else(|| format!("no route for session {session}"))?;
                (r.node, r.remote, self.nodes[r.node].alive)
            };
            if !alive {
                self.migrate(session)?;
                continue;
            }
            match self.absorb_call(node, &make(remote)) {
                Ok(resp) => return Ok(resp),
                // Transport failure marked the node dead; the next lap
                // migrates and retries. `migrate` errors out when no
                // backend is left, so this terminates.
                Err(_) => continue,
            }
        }
    }

    /// Gossips a closing session's final replica to every live peer that
    /// wants it (idempotent: peers already holding this exact image
    /// decline the offer).
    fn gossip(&mut self, owner: usize, fp: u64, payload: &[u8]) {
        for peer in self.alive_nodes() {
            if peer == owner {
                continue;
            }
            let offer = Request::SnapOffer {
                fp,
                version: SNAPSHOT_VERSION,
                crc: crc32(payload),
                len: payload.len() as u64,
            };
            match self.absorb_call(peer, &offer) {
                Ok(Response::SnapWant { want: true, .. }) => {
                    self.push_replica(peer, fp, payload);
                }
                Ok(Response::SnapWant { want: false, .. }) => {}
                Ok(_) | Err(_) => {
                    fleet_stats().backend_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    fn handle_open(&mut self, req: &Request) -> Result<Response, String> {
        let Request::Open { fp, .. } = req else {
            unreachable!("handle_open called with {req:?}");
        };
        let fp = *fp;
        // Fingerprinted sessions co-locate with their persisted state;
        // anonymous ones spread by (salted) token.
        let key = fp.unwrap_or(0xF1EE_7000 ^ hash::score(self.next_id, 0));
        loop {
            let target = hash::pick(key, self.alive_nodes())
                .ok_or_else(|| "no live backends".to_string())?;
            match self.absorb_call(target, req) {
                Ok(Response::Session { id: remote, warm }) => {
                    let id = self.next_id;
                    self.next_id += 1;
                    self.routes.insert(
                        id,
                        Route {
                            node: target,
                            remote,
                            open: req.clone(),
                            key,
                            fp,
                            replica: None,
                            ledger: SessionLedger::default(),
                        },
                    );
                    self.metrics.sessions_opened.fetch_add(1, Ordering::Relaxed);
                    fleet_stats()
                        .sessions_routed
                        .fetch_add(1, Ordering::Relaxed);
                    return Ok(Response::Session { id, warm });
                }
                Ok(resp) => return Ok(resp), // protocol error: no route made
                Err(_) => continue,          // node died; rendezvous over the rest
            }
        }
    }

    fn note_results(&mut self, session: u64, resp: &Response) {
        let Response::Results { results, .. } = resp else {
            return;
        };
        let ledger = &mut self
            .routes
            .get_mut(&session)
            .expect("results for a routed session")
            .ledger;
        for r in results {
            ledger.checks += 1;
            ledger.collisions += u64::from(r.colliding);
            ledger.cdqs_issued += r.cdqs_executed;
            ledger.cdqs_total += r.cdqs_total;
            ledger.obstacle_tests += r.obstacle_tests;
            self.metrics.checks.fetch_add(1, Ordering::Relaxed);
            self.metrics
                .cdqs_issued
                .fetch_add(r.cdqs_executed, Ordering::Relaxed);
            self.metrics
                .cdqs_total
                .fetch_add(r.cdqs_total, Ordering::Relaxed);
        }
    }

    /// Refreshes the cached warm-state replica after a state-changing op.
    fn refresh_replica(&mut self, session: u64) {
        let Some(r) = self.routes.get(&session) else {
            return;
        };
        if r.fp.is_none() {
            return;
        }
        let (node, remote) = (r.node, r.remote);
        if let Some(payload) = self.pull_replica(node, remote) {
            self.routes
                .get_mut(&session)
                .expect("route checked above")
                .replica = Some(payload);
        }
    }

    fn live_session(&self, session: u64) -> Result<(), ServiceError> {
        if self.routes.contains_key(&session) {
            Ok(())
        } else {
            Err(ServiceError::NoSession(session))
        }
    }

    /// Answers one client request, routing and failing over as needed.
    ///
    /// # Errors
    ///
    /// Fleet-fatal conditions only (every backend dead, retry
    /// exhaustion); per-op protocol errors come back as
    /// [`Response::Error`].
    pub fn call(&mut self, req: &Request) -> Result<Response, String> {
        self.metrics.requests.fetch_add(1, Ordering::Relaxed);
        match req {
            Request::Open { .. } => self.handle_open(req),
            Request::CheckMotion {
                session,
                motions,
                trace,
                ..
            } => {
                if let Err(e) = self.live_session(*session) {
                    return Ok(Response::Error(e));
                }
                let (motions, trace) = (motions.clone(), *trace);
                let t0 = Instant::now();
                let resp = self.forward(*session, move |remote| Request::CheckMotion {
                    session: remote,
                    motions: motions.clone(),
                    trace,
                })?;
                self.metrics
                    .check_latency
                    .record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
                self.note_results(*session, &resp);
                if matches!(resp, Response::Results { .. }) {
                    self.refresh_replica(*session);
                }
                Ok(resp)
            }
            Request::CheckPose {
                session,
                motion,
                trace,
            } => {
                if let Err(e) = self.live_session(*session) {
                    return Ok(Response::Error(e));
                }
                let (motion, trace) = (motion.clone(), *trace);
                let resp = self.forward(*session, move |remote| Request::CheckPose {
                    session: remote,
                    motion: motion.clone(),
                    trace,
                })?;
                self.note_results(*session, &resp);
                if matches!(resp, Response::Results { .. }) {
                    self.refresh_replica(*session);
                }
                Ok(resp)
            }
            Request::ResetCht { session } => {
                if let Err(e) = self.live_session(*session) {
                    return Ok(Response::Error(e));
                }
                let resp =
                    self.forward(*session, |remote| Request::ResetCht { session: remote })?;
                if resp == Response::ResetDone {
                    self.refresh_replica(*session);
                }
                Ok(resp)
            }
            Request::Close { session } => {
                if let Err(e) = self.live_session(*session) {
                    return Ok(Response::Error(e));
                }
                // The close-time replica is the gossip payload: pulled
                // before the backend tears the session down.
                self.refresh_replica(*session);
                let resp = self.forward(*session, |remote| Request::Close { session: remote })?;
                if resp == Response::Closed {
                    self.metrics.sessions_closed.fetch_add(1, Ordering::Relaxed);
                    let mut r = self.routes.remove(session).expect("route checked above");
                    if let (Some(fp), Some(payload)) = (r.fp, r.replica.take()) {
                        self.gossip(r.node, fp, &payload);
                    }
                    self.closed.insert(*session, r.ledger);
                }
                Ok(resp)
            }
            Request::Stats { session: None } => {
                // Answered locally: backends each hold a shard of the
                // truth, the router saw every op.
                Ok(Response::Stats(self.metrics.stat_lines(self.routes.len())))
            }
            Request::Stats {
                session: Some(session),
            } => {
                if let Err(e) = self.live_session(*session) {
                    return Ok(Response::Error(e));
                }
                self.forward(*session, |remote| Request::Stats {
                    session: Some(remote),
                })
            }
            Request::Dump => {
                let mut entries = 0;
                for node in self.alive_nodes() {
                    if let Ok(Response::DumpDone { entries: n }) =
                        self.absorb_call(node, &Request::Dump)
                    {
                        entries += n;
                    }
                }
                Ok(Response::DumpDone { entries })
            }
            // Replication ops route by fingerprint (or session) like any
            // other traffic, so fleet tooling can address "whoever owns
            // this state" without knowing the membership.
            Request::SnapGet { fp }
            | Request::SnapOffer { fp, .. }
            | Request::SnapPush { fp, .. } => {
                let target = hash::pick(*fp, self.alive_nodes())
                    .ok_or_else(|| "no live backends".to_string())?;
                self.absorb_call(target, req)
            }
            Request::SnapSession { session } => {
                if let Err(e) = self.live_session(*session) {
                    return Ok(Response::Error(e));
                }
                self.forward(*session, |remote| Request::SnapSession { session: remote })
            }
        }
    }
}

impl ReplayBackend for Router {
    fn label(&self) -> &str {
        &self.label
    }

    fn call(&mut self, req: &Request) -> Result<Response, String> {
        Router::call(self, req)
    }

    fn ledgers(&self) -> Option<Vec<Ledger>> {
        // Session ids count up from 0 in open order, live or closed.
        Some(
            (0..self.next_id)
                .filter_map(|id| self.ledger(id))
                .map(|l| Ledger {
                    checks: l.checks,
                    collisions: l.collisions,
                    cdqs_issued: l.cdqs_issued,
                    cdqs_total: l.cdqs_total,
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::FleetBackend;
    use copred_replay::ReplayBackend;
    use copred_service::protocol::{Request, Response, SchedMode};
    use copred_trace::MotionTrace;

    #[test]
    fn a_closed_route_keeps_only_its_ledger() {
        let mut fleet = FleetBackend::start(2).expect("start fleet");
        let open = Request::Open {
            robot: "planar-2d".to_string(),
            link_count: 2,
            mode: SchedMode::Coord,
            seed: 3,
            fp: Some(0xC105_ED01),
        };
        let Ok(Response::Session { id, .. }) = fleet.call(&open) else {
            panic!("want session");
        };
        let check = Request::CheckMotion {
            session: id,
            motions: (0..4).map(MotionTrace::synthetic).collect(),
            trace: None,
        };
        assert!(matches!(fleet.call(&check), Ok(Response::Results { .. })));
        let router = fleet.router();
        assert!(
            router.routes[&id].replica.is_some(),
            "a fingerprinted session replicates"
        );
        assert_eq!(
            fleet.call(&Request::Close { session: id }),
            Ok(Response::Closed)
        );
        let router = fleet.router();
        assert!(
            router.routes.is_empty(),
            "no route, so no replica, survives close"
        );
        assert_eq!(router.ledger(id).map(|l| l.checks), Some(4));
        assert_eq!(router.ledgers().map(|l| l.len()), Some(1));
    }
}
