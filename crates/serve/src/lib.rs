#![warn(missing_docs)]

//! `serve` — a concurrent request front-end for the OODBMS–IRS
//! coupling.
//!
//! The paper's document system (crate [`coupling`]) is a library: one
//! caller, one thread. Real document servers sit behind many clients,
//! so this crate adds the serving layer the paper leaves implicit —
//! without touching the coupling semantics underneath:
//!
//! * **Typed protocol** — [`Request`] / [`Response`] cover the
//!   coupling's query surface (`getIRSResult`, mixed queries,
//!   `getIRSValue`) and its update surface (text modification with
//!   propagation, `indexObjects`, flush) as enqueued tasks.
//! * **Thread-pool execution** — reads fan out across a worker pool
//!   under the system's shared read lock; writes become durable
//!   [`coupling::tasks`] entries executed by the scheduler's single
//!   executor thread, which owns the update [`coupling::Propagator`]s
//!   and merges adjacent compatible tasks into shared batches.
//! * **Asynchronous writes** — [`Request::EnqueueTask`] answers
//!   immediately with a task id (wire status 202); progress is observed
//!   via [`Request::TaskStatus`] / [`Request::ListTasks`] or awaited
//!   with [`Client::write_and_wait`]. It is the only write request.
//! * **Admission control** — bounded queues reject excess load
//!   immediately ([`coupling::ErrorKind::Overloaded`]) instead of
//!   building unbounded backlogs.
//! * **Deadlines** — per-request timeouts
//!   ([`coupling::ErrorKind::Timeout`]) compose with the coupling's
//!   retry/circuit-breaker layer, which keeps operating per IRS call.
//! * **Graceful shutdown** — [`Server::shutdown`] drains admitted
//!   requests and flushes (journaled) propagation logs before joining
//!   the pool.
//! * **Observability** — [`Server::metrics`] returns latency
//!   percentiles, queue/admission counters, and
//!   [`coupling::ResultOrigin`] counts.
//! * **Wire protocol** — [`NetServer`] binds a TCP listener over the
//!   same machinery: length-prefixed CRC-checked frames ([`wire`]), a
//!   binary codec for [`Request`]/[`Response`], HTTP-idiom
//!   [`wire::Status`] codes for errors (429 overloaded, 503 shutting
//!   down, 504 deadline expired), and a blocking [`Client`]. This is
//!   the paper's loose coupling (Fig. 1, alternative 3) as a real
//!   network boundary.
//!
//! ```
//! use coupling::prelude::*;
//! use serve::{Request, Response, Server, ServerConfig};
//!
//! let mut sys = DocumentSystem::new();
//! sys.load_sgml("<MMFDOC><DOCTITLE>Telnet</DOCTITLE>\
//!                <PARA>telnet is remote login</PARA></MMFDOC>").unwrap();
//! sys.create_collection("collPara", CollectionSetup::builder().build()).unwrap();
//! sys.index_collection("collPara", "ACCESS p FROM p IN PARA").unwrap();
//!
//! let server = Server::start(sys, ServerConfig::default().read_workers(2));
//! let response = server.call(Request::IrsQuery {
//!     collection: "collPara".into(),
//!     query: "telnet".into(),
//! }).unwrap();
//! assert!(matches!(response, Response::IrsResult { ref hits, .. } if !hits.is_empty()));
//! server.shutdown();
//! ```

pub mod chaos;
pub mod client;
pub mod metrics;
pub mod net;
pub mod queue;
pub mod replica;
pub mod request;
pub mod server;
pub mod wire;

pub use chaos::{ChaosMode, ChaosPlan, ChaosProxy};
pub use client::{Client, ClientConfig, ClientConfigBuilder, ClientError};
pub use metrics::{Metrics, MetricsSnapshot};
pub use net::NetServer;
pub use queue::{BoundedQueue, PushError};
pub use replica::{ReplicaServer, WireTransport};
pub use request::{Request, Response};
pub use server::{Server, ServerConfig, ServerConfigBuilder, Ticket};
pub use wire::{Status, WireError, WireFault};
