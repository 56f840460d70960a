//! Read replicas of the IRS, and the wire transport that reaches them.
//!
//! A [`ReplicaServer`] is the serving side: it freezes every collection
//! of a [`DocumentSystem`] ([`coupling::Collection::set_read_only`]),
//! starts the server in read-only mode (writes are rejected at
//! admission), and binds the TCP front-end — a replica answers reads
//! and nothing else, so its index can never fork from the primary it
//! was built from. Its answers to the two scatter legs carry each
//! collection's content epoch ([`irs::IrsCollection::epoch`]), which a
//! saved snapshot derives from its bytes: replicas opened from one
//! directory agree, so a partitioned router can cache their statistics.
//!
//! [`WireTransport`] is the client side: one lazy, self-healing
//! connection per replica implementing
//! [`coupling::remote::ReplicaTransport`], which plugs straight into the
//! hedged fan-out of [`coupling::remote::RemoteIrs`]. Transport failures
//! drop the cached connection (the next attempt redials) and surface as
//! [`CouplingError::Remote`] carrying the wire classification, so the
//! fan-out's failover/breaker logic sees exactly the taxonomy it ranks
//! replicas by.

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::Path;
use std::sync::Mutex;

use coupling::remote::{KeyedReply, ReplicaTransport, StatsReply};
use coupling::{open_system, CouplingError, DocumentSystem, ErrorKind, ResultOrigin};
use oodb::Oid;

use crate::client::{Client, ClientConfig, ClientError};
use crate::metrics::MetricsSnapshot;
use crate::net::NetServer;
use crate::request::{Request, Response};
use crate::server::{Server, ServerConfig};

/// A TCP server exposing one frozen copy of a document system for
/// reads.
#[derive(Debug)]
pub struct ReplicaServer {
    net: NetServer,
}

impl ReplicaServer {
    /// Freeze `sys` and serve it read-only on `addr` (use port 0 for an
    /// ephemeral port) with default server tuning.
    pub fn serve(sys: DocumentSystem, addr: impl ToSocketAddrs) -> io::Result<ReplicaServer> {
        ReplicaServer::serve_with(sys, ServerConfig::default(), addr)
    }

    /// [`ReplicaServer::serve`] with explicit tuning. The configuration
    /// is forced read-only regardless of what was passed in: a replica
    /// that accepted writes would silently fork from its primary.
    pub fn serve_with(
        sys: DocumentSystem,
        config: ServerConfig,
        addr: impl ToSocketAddrs,
    ) -> io::Result<ReplicaServer> {
        for name in sys.collection_names() {
            if let Ok(mut coll) = sys.collection_mut(&name) {
                coll.set_read_only(true);
            }
        }
        let server = Server::start(sys, config.read_only(true));
        Ok(ReplicaServer {
            net: NetServer::bind(server, addr)?,
        })
    }

    /// Open a system previously saved with [`coupling::save_system`]
    /// and serve it as a replica — the restart path: replicas recover
    /// their index from the primary's snapshot directory.
    pub fn open(dir: impl AsRef<Path>, addr: impl ToSocketAddrs) -> io::Result<ReplicaServer> {
        let sys = open_system(dir.as_ref()).map_err(|e| io::Error::other(e.to_string()))?;
        ReplicaServer::serve(sys, addr)
    }

    /// The bound address clients (or a [`crate::chaos::ChaosProxy`] in
    /// front) dial.
    pub fn local_addr(&self) -> SocketAddr {
        self.net.local_addr()
    }

    /// Request metrics of the underlying server.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.net.metrics()
    }

    /// Graceful shutdown (drains in-flight reads). Returns final
    /// metrics.
    pub fn shutdown(self) -> MetricsSnapshot {
        self.net.shutdown()
    }
}

/// Classify a local socket failure the way [`ClientError::kind`] would.
fn io_kind(e: &io::Error) -> ErrorKind {
    match e.kind() {
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => ErrorKind::Timeout,
        _ => ErrorKind::Io,
    }
}

/// One replica connection for the hedged fan-out: lazily dialed,
/// redialed after transport failures, safe to share across the
/// fan-out's attempt threads.
#[derive(Debug)]
pub struct WireTransport {
    addr: SocketAddr,
    config: ClientConfig,
    conn: Mutex<Option<Client>>,
}

impl WireTransport {
    /// A transport dialing `addr` with default [`ClientConfig`] bounds.
    pub fn new(addr: SocketAddr) -> WireTransport {
        WireTransport::with_config(addr, ClientConfig::default())
    }

    /// A transport with explicit socket bounds. The hedging layer's
    /// per-attempt deadline abandons slow attempts, but the abandoned
    /// thread itself only unblocks when these socket timeouts fire —
    /// keep them finite.
    pub fn with_config(addr: SocketAddr, config: ClientConfig) -> WireTransport {
        WireTransport {
            addr,
            config,
            conn: Mutex::new(None),
        }
    }

    /// The replica address this transport dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn call(&self, request: &Request) -> coupling::Result<Response> {
        let mut guard = self.conn.lock().unwrap_or_else(|e| e.into_inner());
        if guard.is_none() {
            let client = Client::connect_with(self.addr, self.config.clone()).map_err(|e| {
                CouplingError::Remote {
                    kind: io_kind(&e),
                    message: format!("replica {}: connect failed: {e}", self.addr),
                }
            })?;
            *guard = Some(client);
        }
        let client = guard.as_mut().expect("connection just ensured");
        match client.call(request) {
            Ok(response) => Ok(response),
            Err(err) => {
                let kind = err.kind();
                // Error *frames* leave the connection in sync — keep it.
                // Anything else (I/O, framing desync, close) poisons the
                // stream: drop it so the next attempt redials.
                if !matches!(err, ClientError::Remote(_)) {
                    *guard = None;
                }
                Err(CouplingError::Remote {
                    kind,
                    message: format!("replica {}: {err}", self.addr),
                })
            }
        }
    }

    fn unexpected(&self, what: &str, response: &Response) -> CouplingError {
        CouplingError::Remote {
            kind: ErrorKind::Parse,
            message: format!(
                "replica {}: unexpected response to {what}: {response:?}",
                self.addr
            ),
        }
    }
}

impl ReplicaTransport for WireTransport {
    fn search(
        &self,
        collection: &str,
        query: &str,
    ) -> coupling::Result<(Vec<(Oid, f64)>, ResultOrigin)> {
        let response = self.call(&Request::IrsQuery {
            collection: collection.into(),
            query: query.into(),
        })?;
        match response {
            Response::IrsResult { hits, origin } => Ok((hits, origin)),
            other => Err(self.unexpected("search", &other)),
        }
    }

    fn value(&self, collection: &str, query: &str, oid: Oid) -> coupling::Result<f64> {
        let response = self.call(&Request::GetIrsValue {
            collection: collection.into(),
            query: query.into(),
            oid,
        })?;
        match response {
            Response::Value(v) => Ok(v),
            other => Err(self.unexpected("value", &other)),
        }
    }

    fn ping(&self) -> coupling::Result<()> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(self.unexpected("ping", &other)),
        }
    }

    fn term_stats(&self, collection: &str, query: &str) -> coupling::Result<StatsReply> {
        let response = self.call(&Request::TermStats {
            collection: collection.into(),
            query: query.into(),
        })?;
        match response {
            Response::TermStats {
                globals,
                epoch,
                analyzer,
            } => Ok(StatsReply {
                globals,
                epoch,
                analyzer,
            }),
            other => Err(self.unexpected("term_stats", &other)),
        }
    }

    fn search_global(
        &self,
        collection: &str,
        query: &str,
        k: usize,
        globals: &irs::QueryGlobals,
    ) -> coupling::Result<KeyedReply> {
        let response = self.call(&Request::IrsQueryGlobal {
            collection: collection.into(),
            query: query.into(),
            k: u64::try_from(k).unwrap_or(u64::MAX),
            globals: globals.clone(),
        })?;
        match response {
            Response::IrsKeyed { hits, epoch } => Ok(KeyedReply { hits, epoch }),
            other => Err(self.unexpected("search_global", &other)),
        }
    }
}
