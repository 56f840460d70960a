//! Typed requests and responses.
//!
//! Every client interaction with a [`crate::Server`] is one of these
//! request shapes; the server maps each onto the coupling API and
//! answers with the matching [`Response`] arm. Keeping the protocol an
//! enum (rather than closures) is what lets requests cross thread —
//! and eventually process/network — boundaries.

use coupling::tasks::{Task, TaskFilter, TaskId, TaskKind};
use coupling::{MixedStrategy, ResultOrigin};
use irs::QueryGlobals;
use oodb::Oid;

/// A typed request against the document system.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Rank collection members for an IRS query
    /// ([`coupling::Collection::get_irs_result_with_origin`]).
    IrsQuery {
        /// Target collection name.
        collection: String,
        /// IRS query text (`#and(..)`, plain terms, …).
        query: String,
    },
    /// A mixed structure/content query: objects of `class` whose IRS
    /// value for `irs_query` exceeds `threshold`
    /// ([`coupling::mixed::evaluate_mixed`]). The server's planner picks
    /// the evaluation order from the class extent's size and the number
    /// of content results above the threshold; both orders name the same
    /// objects.
    MixedQuery {
        /// Target collection name.
        collection: String,
        /// Structural condition: membership in this class.
        class: String,
        /// IRS (content) query.
        irs_query: String,
        /// IRS-value threshold.
        threshold: f64,
        /// Preferred evaluation order — a tie-break for the planner, not
        /// an instruction ([`Response::Mixed`] reports the order that ran).
        strategy: MixedStrategy,
    },
    /// The IRS value of one object (`getIRSValue`, with automatic
    /// fall-through to `deriveIRSValue` for unrepresented objects).
    GetIrsValue {
        /// Target collection name.
        collection: String,
        /// IRS query.
        query: String,
        /// The object.
        oid: Oid,
    },
    /// Replace an object's text and propagate the modification to the
    /// named collections, blocking until the write executes.
    #[deprecated(note = "synchronous write shape — use Request::EnqueueTask with \
                TaskKind::UpdateText (or Client::write_and_wait) instead")]
    UpdateText {
        /// The object whose `text` attribute changes.
        oid: Oid,
        /// The new text.
        text: String,
        /// Collections whose propagators must record the change.
        collections: Vec<String>,
    },
    /// Run `indexObjects` with a specification query, blocking until the
    /// write executes.
    #[deprecated(note = "synchronous write shape — use Request::EnqueueTask with \
                TaskKind::IndexObjects (or Client::write_and_wait) instead")]
    IndexObjects {
        /// Target collection name.
        collection: String,
        /// OODBMS specification query.
        spec_query: String,
    },
    /// Liveness probe: answered with [`Response::Pong`] without touching
    /// the document system. Clients use it for health checks and as the
    /// cheap trial call when a circuit breaker goes half-open.
    Ping,
    /// One partition's corpus statistics for `query` — the first leg of
    /// the scatter/gather global-statistics exchange
    /// ([`coupling::Collection::query_globals`]).
    TermStats {
        /// Target collection name.
        collection: String,
        /// IRS query text.
        query: String,
    },
    /// Rank this partition's members for `query` under *supplied* merged
    /// corpus statistics — the second leg of scatter/gather
    /// ([`coupling::Collection::get_irs_result_global`]). Answered with
    /// [`Response::IrsKeyed`]: raw IRS keys, because the router's merge
    /// must tie-break exactly as the single-node engine does (by key
    /// string, not by numeric OID).
    IrsQueryGlobal {
        /// Target collection name.
        collection: String,
        /// IRS query text.
        query: String,
        /// Result limit; `u64::MAX` means unlimited.
        k: u64,
        /// Merged corpus statistics from every partition.
        globals: QueryGlobals,
    },
    /// Durably enqueue a mutation as an update task and return its id
    /// immediately ([`Response::TaskAccepted`], wire status 202) — the
    /// task-handle write model that replaces the synchronous write
    /// shapes. Progress is observed via [`Request::TaskStatus`] /
    /// [`Request::ListTasks`].
    EnqueueTask {
        /// The mutation to enqueue.
        kind: TaskKind,
    },
    /// Look up one task by id ([`Response::TaskInfo`]; unknown ids
    /// answer 404).
    TaskStatus {
        /// The task id returned by [`Response::TaskAccepted`].
        id: TaskId,
    },
    /// List tasks matching a filter ([`Response::TaskList`]).
    ListTasks {
        /// Status/collection predicate; empty matches all.
        filter: TaskFilter,
    },
}

impl Request {
    /// True for requests that mutate the system — these funnel into the
    /// task scheduler (and are refused outright on read-only replicas).
    #[allow(deprecated)]
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Request::UpdateText { .. } | Request::IndexObjects { .. } | Request::EnqueueTask { .. }
        )
    }

    /// Short label for metrics/debugging.
    #[allow(deprecated)]
    pub fn label(&self) -> &'static str {
        match self {
            Request::IrsQuery { .. } => "irs_query",
            Request::MixedQuery { .. } => "mixed_query",
            Request::GetIrsValue { .. } => "get_irs_value",
            Request::UpdateText { .. } => "update_text",
            Request::IndexObjects { .. } => "index_objects",
            Request::Ping => "ping",
            Request::TermStats { .. } => "term_stats",
            Request::IrsQueryGlobal { .. } => "irs_query_global",
            Request::EnqueueTask { .. } => "enqueue_task",
            Request::TaskStatus { .. } => "task_status",
            Request::ListTasks { .. } => "list_tasks",
        }
    }
}

/// A successful answer to a [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Ranked objects, descending by IRS value (ties by OID).
    IrsResult {
        /// `(object, IRS value)` pairs.
        hits: Vec<(Oid, f64)>,
        /// Where the answer came from (fresh / buffered / stale).
        origin: ResultOrigin,
    },
    /// Mixed-query outcome.
    Mixed {
        /// Matching objects, ascending by OID.
        oids: Vec<Oid>,
        /// Evaluation order the planner executed, whatever was preferred.
        strategy: MixedStrategy,
        /// Where the content result came from.
        origin: ResultOrigin,
    },
    /// A single IRS value.
    Value(f64),
    /// Text updated; the number of collections that recorded it.
    Updated {
        /// Collections whose propagators recorded the modification.
        collections: usize,
    },
    /// `indexObjects` ran; the number of objects (re-)indexed.
    Indexed {
        /// Objects indexed.
        objects: usize,
    },
    /// The answer to [`Request::Ping`].
    Pong,
    /// The answer to [`Request::TermStats`].
    TermStats(QueryGlobals),
    /// The answer to [`Request::IrsQueryGlobal`]: `(IRS key, score)`
    /// pairs sorted exactly as the top-k engine selects them — score
    /// descending, ties by ascending key string — so the router can merge
    /// partition lists with the same comparator and stay bit-identical to
    /// single-node evaluation.
    IrsKeyed {
        /// `(IRS document key, score)` pairs.
        hits: Vec<(String, f64)>,
    },
    /// The task was durably enqueued (202-style accepted); poll
    /// [`Request::TaskStatus`] or wait for it with
    /// [`crate::client::Client::wait_for_task`].
    TaskAccepted(TaskId),
    /// The answer to [`Request::TaskStatus`].
    TaskInfo(Task),
    /// The answer to [`Request::ListTasks`], ascending by task id.
    TaskList(Vec<Task>),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_requests_classify() {
        let enqueue = Request::EnqueueTask {
            kind: TaskKind::Flush {
                collection: "c".into(),
            },
        };
        assert!(enqueue.is_write(), "enqueue mutates — replicas refuse it");
        assert_eq!(enqueue.label(), "enqueue_task");
        let status = Request::TaskStatus { id: 7 };
        assert!(!status.is_write(), "status probe is a read");
        assert_eq!(status.label(), "task_status");
        let list = Request::ListTasks {
            filter: TaskFilter::default(),
        };
        assert!(!list.is_write(), "listing is a read");
        assert_eq!(list.label(), "list_tasks");
    }

    #[test]
    #[allow(deprecated)]
    fn write_classification() {
        assert!(!Request::IrsQuery {
            collection: "c".into(),
            query: "q".into()
        }
        .is_write());
        assert!(Request::UpdateText {
            oid: Oid(1),
            text: "t".into(),
            collections: vec![]
        }
        .is_write());
        assert!(Request::IndexObjects {
            collection: "c".into(),
            spec_query: "ACCESS p FROM p IN PARA".into()
        }
        .is_write());
        assert_eq!(
            Request::GetIrsValue {
                collection: "c".into(),
                query: "q".into(),
                oid: Oid(1)
            }
            .label(),
            "get_irs_value"
        );
        assert!(!Request::Ping.is_write(), "pings ride the read lane");
        assert_eq!(Request::Ping.label(), "ping");
        let stats = Request::TermStats {
            collection: "c".into(),
            query: "q".into(),
        };
        assert!(!stats.is_write(), "stats exchange is a read");
        assert_eq!(stats.label(), "term_stats");
        let global = Request::IrsQueryGlobal {
            collection: "c".into(),
            query: "q".into(),
            k: 10,
            globals: QueryGlobals {
                n_docs: 0,
                total_tokens: 0,
                min_doc_len: 0,
                max_doc_len: 0,
                terms: vec![],
            },
        };
        assert!(!global.is_write(), "scattered search is a read");
        assert_eq!(global.label(), "irs_query_global");
    }
}
