#![warn(missing_docs)]

//! `coupling` — the paper's contribution: a flexible OODBMS–IRS coupling
//! for structured document handling.
//!
//! Reproduces Volz, Aberer, Böhm: *"Applying a Flexible OODBMS-IRS-
//! Coupling to Structured Document Handling"* (ICDE 1996). The design is
//! the paper's architecture alternative (3): a **loose coupling with the
//! OODBMS as control component** (Section 3). All application queries —
//! including mixed structure/content queries — are expressed in the
//! OODBMS query language; the IRS stays an unmodified external system.
//!
//! The coupling's flexibility rests on three mechanisms (paper Section 6):
//!
//! 1. **Specification queries** ([`Collection::index_objects`]) — an
//!    OODBMS query decides exactly which objects an IRS collection
//!    represents;
//! 2. **`getText` text modes** ([`TextMode`]) — each object's textual
//!    representation per collection is freely determined;
//! 3. **`deriveIRSValue`** ([`DerivationScheme`]) — objects *not*
//!    represented in a collection derive their IRS value from the values
//!    of related (sub-)objects, avoiding redundant indexing of
//!    hierarchical documents.
//!
//! Plus the supporting machinery the paper describes: persistent
//! buffering of IRS results (Figure 3, [`buffer`]), update propagation
//! strategies with operation cancellation (Section 4.6, [`propagate`]),
//! mixed-query evaluation strategies (Section 4.5.3, [`mixed`]), IRS
//! operators duplicated as collection methods (Section 4.5.4, [`ops`]),
//! and the three coupling architectures of Figure 1 ([`architecture`])
//! for comparison.
//!
//! # Quick start
//!
//! ```
//! use coupling::DocumentSystem;
//!
//! let mut sys = DocumentSystem::new();
//! sys.load_sgml("<MMFDOC><DOCTITLE>Telnet</DOCTITLE>\
//!                <PARA>Telnet is a protocol for remote login</PARA>\
//!                <PARA>The WWW needs no telnet</PARA></MMFDOC>").unwrap();
//! sys.create_collection("collPara", Default::default()).unwrap();
//! sys.index_collection("collPara", "ACCESS p FROM p IN PARA").unwrap();
//!
//! // The paper's first example query (Section 4.4), almost verbatim:
//! let rows = sys.query(
//!     "ACCESS p, p -> length() FROM p IN PARA \
//!      WHERE p -> getIRSValue(collPara, 'login') > 0.5").unwrap();
//! assert!(!rows.is_empty());
//! ```

pub mod buffer;
pub mod collection;
pub mod derive;
pub mod error;
pub mod granularity;
pub mod handle;
pub mod journal;
pub mod mixed;
pub mod ops;
pub mod partition;
pub mod persist;
mod pool;
pub mod propagate;
pub mod remote;
pub mod retry;
pub mod shared;
mod stale;
pub mod system;
pub mod tasks;
pub mod textmode;

pub use buffer::ResultBuffer;
pub use collection::{
    Collection, CollectionSetup, CollectionSetupBuilder, CouplingStats, FaultStats, ResultOrigin,
    SavedSetup,
};
pub use derive::DerivationScheme;
pub use error::{CouplingError, Error, ErrorKind, Result};
pub use granularity::GranularityPolicy;
pub use handle::{CollectionMut, CollectionRef};
pub use journal::Journal;
pub use mixed::{
    evaluate_mixed, evaluate_mixed_planned, execute_mixed, plan_mixed, MixedOutcome, MixedPlan,
    MixedStrategy, PlanReason,
};
pub use partition::{PartitionConfig, PartitionStats, PartitionedIrs};
pub use persist::{journal_path, open_system, save_system, tasks_ledger_path};
pub use propagate::{PendingOp, PropagationStrategy, Propagator};
pub use remote::{
    KeyedReply, RemoteConfig, RemoteIrs, RemoteStats, ReplicaHealth, ReplicaTransport, StatsReply,
};
pub use retry::{BreakerConfig, BreakerStats, CircuitBreaker, RetryPolicy, RetryStats};
pub use shared::SharedSystem;
pub use system::DocumentSystem;
pub use tasks::{
    Scheduler, SchedulerConfig, SchedulerConfigBuilder, Task, TaskEvent, TaskExecutor, TaskFilter,
    TaskId, TaskKind, TaskQueue, TaskQueueStats, TaskStatus, TaskStatusKind, TaskSubscriber,
};
pub use textmode::TextMode;

/// One-stop import for applications: `use coupling::prelude::*;` brings
/// in every public entry-point type — the system, the collection
/// configuration (builder included), handles, evaluation strategies,
/// persistence entry points, and the unified error types.
pub mod prelude {
    pub use crate::collection::{
        Collection, CollectionSetup, CollectionSetupBuilder, CouplingStats, FaultStats,
        ResultOrigin,
    };
    pub use crate::derive::DerivationScheme;
    pub use crate::error::{CouplingError, Error, ErrorKind, Result};
    pub use crate::granularity::GranularityPolicy;
    pub use crate::handle::{CollectionMut, CollectionRef};
    pub use crate::mixed::{evaluate_mixed, MixedOutcome, MixedStrategy};
    pub use crate::partition::{PartitionConfig, PartitionStats, PartitionedIrs};
    pub use crate::persist::{journal_path, open_system, save_system, tasks_ledger_path};
    pub use crate::propagate::{PendingOp, PropagationStrategy, Propagator};
    pub use crate::remote::{RemoteConfig, RemoteIrs, RemoteStats, ReplicaTransport};
    pub use crate::retry::{BreakerConfig, RetryPolicy};
    pub use crate::shared::SharedSystem;
    pub use crate::system::DocumentSystem;
    pub use crate::tasks::{
        Scheduler, SchedulerConfig, Task, TaskEvent, TaskFilter, TaskId, TaskKind, TaskQueue,
        TaskStatus, TaskStatusKind,
    };
    pub use crate::textmode::TextMode;
}
