//! An owned in-process fleet: N store-enabled `copred_server`s plus a
//! [`Router`], packaged as a [`ReplayBackend`].
//!
//! This is the harness shape the conformance suite and `copred_fleet`
//! subcommands drive: replay a CPRDLOG through the router exactly like a
//! single node, or kill a backend mid-stream
//! ([`FleetBackend::kill_backend`], [`FleetBackend::kill_owner_before`])
//! and watch the survivors pick the sessions up from replicated warm
//! state.

use crate::router::{Router, SessionLedger};
use copred_replay::{Ledger, ReplayBackend};
use copred_service::protocol::{Request, Response};
use copred_service::{Server, ServerConfig};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinguishes temp store roots across backends in one process.
static FLEET_SEQ: AtomicU64 = AtomicU64::new(0);

/// N in-process servers fronted by a router. Each backend gets a fresh
/// store root under the OS temp dir (removed on drop), so every fleet
/// starts cold and replication — not leftover disk state — explains any
/// warm start.
pub struct FleetBackend {
    servers: Vec<Option<Server>>,
    router: Router,
    root: PathBuf,
    label: String,
    /// Requests answered through [`ReplayBackend::call`].
    calls: usize,
    /// Kill the live session's owner just before this request, if set.
    kill_before: Option<usize>,
    /// The most recently opened session.
    live: u64,
}

impl FleetBackend {
    /// Starts `n` store-enabled backends with single-node default
    /// geometry (so fleet answers are comparable to a default server)
    /// and a router over them.
    ///
    /// # Errors
    ///
    /// Store-root creation or server bind failures.
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero.
    pub fn start(n: usize) -> io::Result<FleetBackend> {
        Self::start_with(n, ServerConfig::default())
    }

    /// [`Self::start`] with an explicit base config; `addr` and
    /// `store_dir` are overridden per backend.
    ///
    /// # Errors
    ///
    /// Store-root creation or server bind failures.
    pub fn start_with(n: usize, base: ServerConfig) -> io::Result<FleetBackend> {
        assert!(n > 0, "a fleet needs at least one backend");
        let root = std::env::temp_dir().join(format!(
            "copred-fleet-{}-{}",
            std::process::id(),
            FLEET_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&root);
        let mut servers = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        for i in 0..n {
            let dir = root.join(format!("node{i}"));
            std::fs::create_dir_all(&dir)?;
            let server = Server::start(ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                store_dir: Some(dir.to_string_lossy().into_owned()),
                ..base.clone()
            })?;
            addrs.push(server.local_addr().to_string());
            servers.push(Some(server));
        }
        Ok(FleetBackend {
            servers,
            router: Router::new(&addrs),
            root,
            label: "fleet".to_string(),
            calls: 0,
            kill_before: None,
            live: 0,
        })
    }

    /// Renames the backend (useful for A/B reports).
    #[must_use]
    pub fn labeled(mut self, label: &str) -> FleetBackend {
        self.label = label.to_string();
        self
    }

    /// Arms a mid-stream failure: just before the `op`-th request
    /// (0-based) through [`ReplayBackend::call`], the backend owning the
    /// most recently opened session is killed, so the rest of the stream
    /// runs on a survivor.
    #[must_use]
    pub fn kill_owner_before(mut self, op: usize) -> FleetBackend {
        self.kill_before = Some(op);
        self
    }

    /// The router ledger of the most recently opened session (kept
    /// after it closes).
    pub fn last_session_ledger(&self) -> Option<&SessionLedger> {
        self.router.ledger(self.live)
    }

    /// Backends in the fleet (dead ones included).
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Whether the fleet has no backends (never true post-`start`).
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Kills backend `i`: the server shuts down and the router is told
    /// it is dead, as a deployment's health checker would. Sessions
    /// homed there re-open on survivors from their replicated warm
    /// state, lazily, on their next op.
    pub fn kill_backend(&mut self, i: usize) {
        self.servers[i] = None;
        self.router.mark_dead(i);
    }

    /// The router fronting the fleet.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Dissolves the backend into its router plus the servers keeping it
    /// answerable. For long-running fronts (`copred_fleet up`) that hand
    /// the router to connection threads: the caller must hold the
    /// returned servers alive, and the temp store root is left for the
    /// OS to reclaim rather than removed on drop.
    #[must_use]
    pub fn into_router(self) -> (Router, Vec<Option<Server>>) {
        let mut me = std::mem::ManuallyDrop::new(self);
        (
            std::mem::replace(&mut me.router, Router::placeholder()),
            std::mem::take(&mut me.servers),
        )
    }
}

impl ReplayBackend for FleetBackend {
    fn label(&self) -> &str {
        &self.label
    }

    fn call(&mut self, req: &Request) -> Result<Response, String> {
        if self.kill_before == Some(self.calls) {
            let owner = self
                .router
                .node_of(self.live)
                .ok_or("session not routed at the kill point")?;
            self.kill_backend(owner);
        }
        self.calls += 1;
        let resp = self.router.call(req)?;
        if let Response::Session { id, .. } = resp {
            self.live = id;
        }
        Ok(resp)
    }

    fn ledgers(&self) -> Option<Vec<Ledger>> {
        self.router.ledgers()
    }
}

impl Drop for FleetBackend {
    fn drop(&mut self) {
        // Servers release their store directories before the root goes.
        self.servers.clear();
        let _ = std::fs::remove_dir_all(&self.root);
    }
}
