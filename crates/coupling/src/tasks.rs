//! Durable update-task queue with batched execution — the writer lane
//! grown into a subsystem.
//!
//! Every mutation of the coupled system (`indexObjects`, text updates,
//! propagation flushes) becomes a [`Task`]: enqueued with an id,
//! persisted to a CRC-framed ledger (the same record framing as the
//! propagation journal, see [`crate::journal::RecordLog`]), executed by
//! a scheduler thread, and observable at every point of its lifecycle —
//! [`TaskQueue::task_status`], [`TaskQueue::list_tasks`], and a
//! subscribable bounded broadcast of [`TaskEvent`]s.
//!
//! # Lifecycle
//!
//! ```text
//! Enqueued ──> Processing ──> Succeeded
//!                        └──> Failed { error }
//! ```
//!
//! Each transition is a ledger record (`Enqueued`, `Started`,
//! `Finished`), durable before anyone outside the queue is told of it
//! (see *Durability*). On reopen the records fold back into the task
//! table; a task that was `Processing` at the crash reverts to
//! `Enqueued` and is re-executed —
//! safe because every task kind is **idempotent**: `indexObjects`
//! re-evaluates its specification query against the current database,
//! an update task re-sets the same text, a flush re-applies whatever is
//! still pending. Replaying a prefix of the ledger therefore converges
//! to the same final system state as the uninterrupted run.
//!
//! # Batching
//!
//! The scheduler drains the queue in enqueue order, merging **adjacent
//! compatible** tasks into one execution sharing a `batch_id`:
//!
//! * consecutive `IndexObjects` tasks with the same collection and
//!   specification query collapse into a *single* run (the run is
//!   idempotent, so one execution serves all of them — this is where
//!   bulk ingest amortises analysis and snapshot work);
//! * consecutive `UpdateText` tasks against the same collection set
//!   apply under one system write lock with batched propagation — one
//!   journal `sync_data` for the batch and one to settle it, both with
//!   the lock released ([`crate::propagate::Propagator::journal_batch`],
//!   [`apply_batch`](crate::propagate::Propagator::apply_batch),
//!   [`settle`](crate::propagate::Propagator::settle));
//! * consecutive `Flush` tasks on the same collection fold into one.
//!
//! Merging never reorders: only directly adjacent tasks combine, so the
//! observable result is exactly that of sequential execution.
//!
//! # Durability
//!
//! Ledger records are written under the queue mutex and synced outside
//! it by the ledger's group committer
//! ([`crate::journal::LogCommitter::sync_through`]): one `sync_data`
//! covers every record written before it started, whoever wrote them.
//! The ordering rules:
//!
//! 1. An id returned by [`TaskQueue::enqueue`] — the 202 ack — means the
//!    task's `Enqueued` record is synced.
//! 2. The executor syncs a batch's `Started` records before it executes
//!    anything. `Started` follows `Enqueued` in the same append-only
//!    file, so that sync also makes `Enqueued` durable for a task whose
//!    enqueuer is still waiting.
//! 3. `Finished` is synced before waiters resolve and before `Finished`
//!    events publish.
//! 4. A failed write or `sync_data` poisons the ledger: every later
//!    append or sync fails with an I/O error, success is never reported
//!    after it, and recovery is reopen-and-replay.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use oodb::Oid;

use crate::error::{CouplingError, ErrorKind, Result};
use crate::journal::{LogCommitter, RecordLog};
use crate::persist::{journal_path, tasks_ledger_path};
use crate::propagate::{PendingOp, PropagationStrategy, Propagator};
use crate::shared::SharedSystem;

/// Identifier of one enqueued task, unique within a ledger.
pub type TaskId = u64;

/// Largest encoded ledger record accepted (matches the wire frame cap,
/// since task payloads arrive over the wire).
pub const TASK_RECORD_MAX: usize = 8 * 1024 * 1024;

/// Lock a mutex, recovering from poisoning (a panicking executor must
/// not wedge every status probe; the protected state is valid in every
/// observable intermediate).
fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------
// Task model
// ---------------------------------------------------------------------

/// What a task does when executed.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskKind {
    /// Run `indexObjects` with a specification query
    /// ([`crate::Collection::index_objects_batch`]).
    IndexObjects {
        /// Target collection name.
        collection: String,
        /// OODBMS specification query.
        spec_query: String,
    },
    /// Replace an object's text and record the modification with each
    /// named collection's propagator ([`crate::DocumentSystem::update_texts`]).
    UpdateText {
        /// The object whose `text` attribute changes.
        oid: Oid,
        /// The new text.
        text: String,
        /// Collections whose propagators must record the change.
        collections: Vec<String>,
    },
    /// Apply a collection's pending propagation log now.
    Flush {
        /// Target collection name.
        collection: String,
    },
}

impl TaskKind {
    /// Short label for metrics/debugging.
    pub fn label(&self) -> &'static str {
        match self {
            TaskKind::IndexObjects { .. } => "index_objects",
            TaskKind::UpdateText { .. } => "update_text",
            TaskKind::Flush { .. } => "flush",
        }
    }

    /// True when the task reads or writes collection `name` — the
    /// predicate [`TaskFilter::collection`] matches on.
    pub fn touches(&self, name: &str) -> bool {
        match self {
            TaskKind::IndexObjects { collection, .. } | TaskKind::Flush { collection } => {
                collection == name
            }
            TaskKind::UpdateText { collections, .. } => collections.iter().any(|c| c == name),
        }
    }

    /// True when two adjacent tasks may merge into one batch. Identical
    /// `IndexObjects` runs collapse (one idempotent execution serves
    /// both); `UpdateText` tasks against the same collection set share
    /// one write-lock section; same-collection flushes fold trivially.
    pub fn compatible(&self, other: &TaskKind) -> bool {
        match (self, other) {
            (
                TaskKind::IndexObjects {
                    collection: c1,
                    spec_query: s1,
                },
                TaskKind::IndexObjects {
                    collection: c2,
                    spec_query: s2,
                },
            ) => c1 == c2 && s1 == s2,
            (
                TaskKind::UpdateText {
                    collections: t1, ..
                },
                TaskKind::UpdateText {
                    collections: t2, ..
                },
            ) => t1 == t2,
            (TaskKind::Flush { collection: c1 }, TaskKind::Flush { collection: c2 }) => c1 == c2,
            _ => false,
        }
    }
}

/// Where a task is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskStatus {
    /// Accepted and waiting in the queue.
    Enqueued,
    /// Claimed by the scheduler; execution in progress.
    Processing,
    /// Executed successfully.
    Succeeded,
    /// Execution failed; the error's display form is preserved.
    Failed {
        /// Why the task failed.
        error: String,
    },
}

impl TaskStatus {
    /// The payload-free discriminant (what [`TaskFilter`] matches on).
    pub fn kind(&self) -> TaskStatusKind {
        match self {
            TaskStatus::Enqueued => TaskStatusKind::Enqueued,
            TaskStatus::Processing => TaskStatusKind::Processing,
            TaskStatus::Succeeded => TaskStatusKind::Succeeded,
            TaskStatus::Failed { .. } => TaskStatusKind::Failed,
        }
    }

    /// True once the task can no longer change state.
    pub fn is_terminal(&self) -> bool {
        matches!(self, TaskStatus::Succeeded | TaskStatus::Failed { .. })
    }
}

/// Payload-free [`TaskStatus`] discriminant, for filters and wire use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskStatusKind {
    /// See [`TaskStatus::Enqueued`].
    Enqueued,
    /// See [`TaskStatus::Processing`].
    Processing,
    /// See [`TaskStatus::Succeeded`].
    Succeeded,
    /// See [`TaskStatus::Failed`].
    Failed,
}

/// One entry of the task ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Ledger-unique identifier, assigned at enqueue.
    pub id: TaskId,
    /// What the task does.
    pub kind: TaskKind,
    /// Lifecycle position.
    pub status: TaskStatus,
    /// Logical enqueue tick (monotonic per ledger; survives replay).
    pub enqueued_at: u64,
    /// The execution batch this task joined, once claimed. Tasks merged
    /// into one execution share the value — the observable proof of
    /// batching.
    pub batch_id: Option<u64>,
}

/// Predicate for [`TaskQueue::list_tasks`]. Empty filter matches all.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaskFilter {
    /// Keep only tasks in this lifecycle state.
    pub status: Option<TaskStatusKind>,
    /// Keep only tasks touching this collection.
    pub collection: Option<String>,
}

impl TaskFilter {
    /// Does `task` pass the filter?
    pub fn matches(&self, task: &Task) -> bool {
        if let Some(status) = self.status {
            if task.status.kind() != status {
                return false;
            }
        }
        if let Some(coll) = &self.collection {
            if !task.kind.touches(coll) {
                return false;
            }
        }
        true
    }
}

/// A lifecycle notification published to [`TaskSubscriber`]s.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskEvent {
    /// A task entered the queue.
    Enqueued(TaskId),
    /// A task was claimed for execution.
    Started(TaskId),
    /// A batch was formed; all listed tasks execute as one.
    Batched {
        /// The shared batch id.
        batch_id: u64,
        /// Members, in enqueue order.
        tasks: Vec<TaskId>,
    },
    /// A task reached a terminal state.
    Finished {
        /// The task.
        id: TaskId,
        /// `true` for [`TaskStatus::Succeeded`].
        ok: bool,
    },
}

// ---------------------------------------------------------------------
// Ledger records
// ---------------------------------------------------------------------

const REC_ENQUEUED: u8 = 0x10;
const REC_STARTED: u8 = 0x11;
const REC_FINISHED: u8 = 0x12;

const KIND_INDEX: u8 = 0;
const KIND_UPDATE: u8 = 1;
const KIND_FLUSH: u8 = 2;

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

struct Rd<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn new(bytes: &'a [u8]) -> Rd<'a> {
        Rd { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len())?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn string(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).ok()
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn encode_kind(buf: &mut Vec<u8>, kind: &TaskKind) {
    match kind {
        TaskKind::IndexObjects {
            collection,
            spec_query,
        } => {
            buf.push(KIND_INDEX);
            put_str(buf, collection);
            put_str(buf, spec_query);
        }
        TaskKind::UpdateText {
            oid,
            text,
            collections,
        } => {
            buf.push(KIND_UPDATE);
            put_u64(buf, oid.0);
            put_str(buf, text);
            put_u32(buf, collections.len() as u32);
            for name in collections {
                put_str(buf, name);
            }
        }
        TaskKind::Flush { collection } => {
            buf.push(KIND_FLUSH);
            put_str(buf, collection);
        }
    }
}

fn decode_kind(r: &mut Rd<'_>) -> Option<TaskKind> {
    match r.u8()? {
        KIND_INDEX => Some(TaskKind::IndexObjects {
            collection: r.string()?,
            spec_query: r.string()?,
        }),
        KIND_UPDATE => {
            let oid = Oid(r.u64()?);
            let text = r.string()?;
            let n = r.u32()? as usize;
            // Each name carries at least its length prefix; a hostile
            // count cannot drive a huge allocation past that check.
            if n > r.bytes.len().saturating_sub(r.pos) / 4 + 1 {
                return None;
            }
            let mut collections = Vec::with_capacity(n);
            for _ in 0..n {
                collections.push(r.string()?);
            }
            Some(TaskKind::UpdateText {
                oid,
                text,
                collections,
            })
        }
        KIND_FLUSH => Some(TaskKind::Flush {
            collection: r.string()?,
        }),
        _ => None,
    }
}

enum LedgerRecord {
    Enqueued {
        id: TaskId,
        tick: u64,
        kind: TaskKind,
    },
    Started {
        id: TaskId,
        batch_id: u64,
    },
    Finished {
        id: TaskId,
        ok: bool,
        error: String,
    },
}

impl LedgerRecord {
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32);
        match self {
            LedgerRecord::Enqueued { id, tick, kind } => {
                buf.push(REC_ENQUEUED);
                put_u64(&mut buf, *id);
                put_u64(&mut buf, *tick);
                encode_kind(&mut buf, kind);
            }
            LedgerRecord::Started { id, batch_id } => {
                buf.push(REC_STARTED);
                put_u64(&mut buf, *id);
                put_u64(&mut buf, *batch_id);
            }
            LedgerRecord::Finished { id, ok, error } => {
                buf.push(REC_FINISHED);
                put_u64(&mut buf, *id);
                buf.push(u8::from(*ok));
                put_str(&mut buf, error);
            }
        }
        buf
    }

    fn decode(bytes: &[u8]) -> Option<LedgerRecord> {
        let mut r = Rd::new(bytes);
        let rec = match r.u8()? {
            REC_ENQUEUED => LedgerRecord::Enqueued {
                id: r.u64()?,
                tick: r.u64()?,
                kind: decode_kind(&mut r)?,
            },
            REC_STARTED => LedgerRecord::Started {
                id: r.u64()?,
                batch_id: r.u64()?,
            },
            REC_FINISHED => LedgerRecord::Finished {
                id: r.u64()?,
                ok: r.u8()? != 0,
                error: r.string()?,
            },
            _ => return None,
        };
        r.done().then_some(rec)
    }
}

// ---------------------------------------------------------------------
// Ledger
// ---------------------------------------------------------------------

/// The task table plus its durable record log. All access is under the
/// queue's mutex.
struct Ledger {
    log: Option<RecordLog>,
    tasks: BTreeMap<TaskId, Task>,
    /// Non-terminal task ids in enqueue order.
    pending: VecDeque<TaskId>,
    next_id: TaskId,
    next_batch: u64,
    tick: u64,
}

impl Ledger {
    /// Open the ledger, replaying records into the task table. Tasks
    /// that were `Processing` at the crash revert to `Enqueued` (their
    /// `Started` record has no matching `Finished`) and re-run.
    fn open(path: Option<&Path>) -> Result<Ledger> {
        let mut ledger = Ledger {
            log: None,
            tasks: BTreeMap::new(),
            pending: VecDeque::new(),
            next_id: 1,
            next_batch: 1,
            tick: 0,
        };
        let Some(path) = path else {
            return Ok(ledger);
        };
        let (log, records) = RecordLog::open(path, TASK_RECORD_MAX)?;
        for raw in &records {
            // Records that frame correctly but no longer decode (format
            // skew) are skipped rather than wedging recovery.
            match LedgerRecord::decode(raw) {
                Some(LedgerRecord::Enqueued { id, tick, kind }) => {
                    ledger.tasks.insert(
                        id,
                        Task {
                            id,
                            kind,
                            status: TaskStatus::Enqueued,
                            enqueued_at: tick,
                            batch_id: None,
                        },
                    );
                    ledger.next_id = ledger.next_id.max(id + 1);
                    ledger.tick = ledger.tick.max(tick);
                }
                Some(LedgerRecord::Started { id, batch_id }) => {
                    if let Some(task) = ledger.tasks.get_mut(&id) {
                        task.status = TaskStatus::Processing;
                        task.batch_id = Some(batch_id);
                    }
                    ledger.next_batch = ledger.next_batch.max(batch_id + 1);
                }
                Some(LedgerRecord::Finished { id, ok, error }) => {
                    if let Some(task) = ledger.tasks.get_mut(&id) {
                        task.status = if ok {
                            TaskStatus::Succeeded
                        } else {
                            TaskStatus::Failed { error }
                        };
                    }
                }
                None => {}
            }
        }
        for task in ledger.tasks.values_mut() {
            if !task.status.is_terminal() {
                // A crash mid-batch leaves `Processing` tasks behind;
                // they re-enter the queue (execution is idempotent).
                task.status = TaskStatus::Enqueued;
                ledger.pending.push_back(task.id);
            }
        }
        ledger.log = Some(log);
        Ok(ledger)
    }

    /// Write `records` to the log (in memory: nothing to write) and
    /// return the sequence number [`QueueInner::sync_through`] takes. The
    /// records are not durable yet: the caller releases the queue mutex
    /// before it waits for the sync.
    fn write(&mut self, records: &[LedgerRecord]) -> Result<u64> {
        match &mut self.log {
            Some(log) => {
                let encoded: Vec<Vec<u8>> = records.iter().map(LedgerRecord::encode).collect();
                log.write(&encoded)
            }
            None => Ok(0),
        }
    }
}

// ---------------------------------------------------------------------
// Event broadcast
// ---------------------------------------------------------------------

struct SubShared {
    queue: Mutex<VecDeque<TaskEvent>>,
    ready: Condvar,
    missed: AtomicU64,
}

/// Receiving half of the bounded task-event broadcast. Each subscriber
/// has its own bounded buffer; when a slow consumer falls more than the
/// channel capacity behind, its *oldest* events are dropped and counted
/// in [`TaskSubscriber::missed`] — publishers never block.
pub struct TaskSubscriber {
    shared: Arc<SubShared>,
}

impl TaskSubscriber {
    /// Take the next event without blocking.
    pub fn try_recv(&self) -> Option<TaskEvent> {
        lock_recover(&self.shared.queue).pop_front()
    }

    /// Block up to `timeout` for the next event.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<TaskEvent> {
        let mut queue = lock_recover(&self.shared.queue);
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if let Some(event) = queue.pop_front() {
                return Some(event);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .shared
                .ready
                .wait_timeout(queue, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            queue = guard;
        }
    }

    /// Events dropped because this subscriber fell behind.
    pub fn missed(&self) -> u64 {
        self.shared.missed.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for TaskSubscriber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskSubscriber")
            .field("buffered", &lock_recover(&self.shared.queue).len())
            .field("missed", &self.missed())
            .finish()
    }
}

struct Broadcast {
    subscribers: Mutex<Vec<Weak<SubShared>>>,
    capacity: usize,
}

impl Broadcast {
    fn new(capacity: usize) -> Broadcast {
        Broadcast {
            subscribers: Mutex::new(Vec::new()),
            capacity: capacity.max(1),
        }
    }

    fn subscribe(&self) -> TaskSubscriber {
        let shared = Arc::new(SubShared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            missed: AtomicU64::new(0),
        });
        lock_recover(&self.subscribers).push(Arc::downgrade(&shared));
        TaskSubscriber { shared }
    }

    fn publish(&self, event: &TaskEvent) {
        let mut subs = lock_recover(&self.subscribers);
        subs.retain(|weak| {
            let Some(shared) = weak.upgrade() else {
                return false;
            };
            let mut queue = lock_recover(&shared.queue);
            queue.push_back(event.clone());
            while queue.len() > self.capacity {
                queue.pop_front();
                shared.missed.fetch_add(1, Ordering::Relaxed);
            }
            drop(queue);
            shared.ready.notify_all();
            true
        });
    }
}

// ---------------------------------------------------------------------
// Queue
// ---------------------------------------------------------------------

/// Callback invoked exactly once with a task's outcome: the executed
/// count on success (objects indexed / collections recorded / ops
/// flushed), or the admission or execution error. Used by the serving
/// layer to resolve synchronous write tickets.
pub type TaskWaiter = Box<dyn FnOnce(Result<u64>) + Send>;

/// Counters of one [`TaskQueue`], all relaxed atomics.
#[derive(Debug, Default)]
struct QueueCounters {
    enqueued: AtomicU64,
    rejected: AtomicU64,
    succeeded: AtomicU64,
    failed: AtomicU64,
    batches: AtomicU64,
    merged: AtomicU64,
}

/// Point-in-time view of a queue's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskQueueStats {
    /// Tasks admitted to the queue (including replayed ones).
    pub enqueued: u64,
    /// Tasks refused at enqueue (queue full or shutting down).
    pub rejected: u64,
    /// Tasks that reached [`TaskStatus::Succeeded`].
    pub succeeded: u64,
    /// Tasks that reached [`TaskStatus::Failed`].
    pub failed: u64,
    /// Execution batches claimed.
    pub batches: u64,
    /// Tasks that rode a batch beyond its head — `enqueued - batches`
    /// executions saved by merging.
    pub merged: u64,
    /// Tasks currently enqueued or processing (the queue-depth gauge).
    pub depth: u64,
    /// `sync_data` calls the task ledger issued (0 when in memory):
    /// against `enqueued`, the syncs each acknowledged task cost.
    pub ledger_syncs: u64,
}

struct QueueInner {
    ledger: Mutex<Ledger>,
    /// Group commit of the ledger's records, waited on outside `ledger`'s
    /// mutex; `None` for an in-memory ledger.
    committer: Option<LogCommitter>,
    waiters: Mutex<HashMap<TaskId, TaskWaiter>>,
    /// Signalled on enqueue and close; the scheduler waits here.
    work: Condvar,
    events: Broadcast,
    counters: QueueCounters,
    depth: AtomicU64,
    capacity: usize,
    closed: AtomicBool,
}

/// Handle to the durable task queue: enqueue, observe, subscribe.
/// Cheaply cloneable; all clones share one ledger.
#[derive(Clone)]
pub struct TaskQueue {
    inner: Arc<QueueInner>,
}

/// A claimed execution batch: adjacent compatible tasks (each task
/// carries the shared batch id).
struct Batch {
    tasks: Vec<Task>,
}

impl TaskQueue {
    /// Open a queue over the ledger at `path` (`None` keeps the ledger
    /// in memory only). Non-terminal tasks found in the ledger re-enter
    /// the queue in enqueue order.
    pub fn open(path: Option<&Path>, capacity: usize, event_capacity: usize) -> Result<TaskQueue> {
        let ledger = Ledger::open(path)?;
        let depth = ledger.pending.len() as u64;
        let queue = TaskQueue {
            inner: Arc::new(QueueInner {
                committer: ledger.log.as_ref().map(RecordLog::committer),
                ledger: Mutex::new(ledger),
                waiters: Mutex::new(HashMap::new()),
                work: Condvar::new(),
                events: Broadcast::new(event_capacity),
                counters: QueueCounters::default(),
                depth: AtomicU64::new(depth),
                capacity: capacity.max(1),
                closed: AtomicBool::new(false),
            }),
        };
        Ok(queue)
    }

    /// Enqueue a task. A returned id is the acknowledgement: the task's
    /// `Enqueued` record is durable by then. Admission is
    /// reject-not-queue — a full queue fails immediately with
    /// [`CouplingError::Overloaded`], a closed one with
    /// [`CouplingError::ShuttingDown`].
    pub fn enqueue(&self, kind: TaskKind) -> Result<TaskId> {
        self.enqueue_inner(kind, None)
    }

    /// [`TaskQueue::enqueue`] plus a completion callback. The waiter is
    /// always consumed: invoked with the admission error when enqueue
    /// is refused, or with the ledger error when the acknowledgement
    /// cannot be made durable (both return `None`), or with the
    /// execution outcome once the task finishes.
    pub fn enqueue_with_waiter(&self, kind: TaskKind, waiter: TaskWaiter) -> Option<TaskId> {
        self.enqueue_inner(kind, Some(waiter)).ok()
    }

    fn enqueue_inner(&self, kind: TaskKind, mut waiter: Option<TaskWaiter>) -> Result<TaskId> {
        let (id, seq) = match self.admit(kind, &mut waiter) {
            Ok(admitted) => admitted,
            Err(e) => {
                self.inner.counters.rejected.fetch_add(1, Ordering::Relaxed);
                if let Some(waiter) = waiter {
                    waiter(Err(e));
                    // The error moved into the waiter; report rejection
                    // with a synthesized twin for the Result contract.
                    return Err(CouplingError::ShuttingDown);
                }
                return Err(e);
            }
        };
        self.inner.work.notify_all();
        // Group commit: this sync may be another enqueuer's or the
        // executor's, covering this record along with theirs.
        if let Err(e) = self.inner.sync_through(seq) {
            // The ledger is poisoned, so the task can never start (its
            // `Started` write fails) and finishes failed; whichever side
            // removes the waiter first resolves it.
            if let Some(waiter) = lock_recover(&self.inner.waiters).remove(&id) {
                waiter(Err(CouplingError::TaskFailed {
                    kind: e.kind(),
                    message: e.to_string(),
                }));
            }
            return Err(e);
        }
        Ok(id)
    }

    /// Admission, under the queue mutex: write the `Enqueued` record
    /// (not yet durable) and do all the task's bookkeeping — waiter,
    /// counters, depth, the `Enqueued` event — *before* its id enters
    /// `pending`. From then on the executor may claim, run and finish
    /// the task at any moment, so nothing may follow; its `Started` sync
    /// makes the `Enqueued` record durable too, so running a task whose
    /// enqueuer has not synced yet is safe. Returns the id and the
    /// record's sequence number.
    fn admit(&self, kind: TaskKind, waiter: &mut Option<TaskWaiter>) -> Result<(TaskId, u64)> {
        if self.inner.closed.load(Ordering::Acquire) {
            return Err(CouplingError::ShuttingDown);
        }
        let mut ledger = lock_recover(&self.inner.ledger);
        if ledger.pending.len() >= self.inner.capacity {
            return Err(CouplingError::Overloaded(self.inner.capacity));
        }
        let id = ledger.next_id;
        let tick = ledger.tick + 1;
        let seq = ledger.write(&[LedgerRecord::Enqueued {
            id,
            tick,
            kind: kind.clone(),
        }])?;
        ledger.next_id = id + 1;
        ledger.tick = tick;
        ledger.tasks.insert(
            id,
            Task {
                id,
                kind,
                status: TaskStatus::Enqueued,
                enqueued_at: tick,
                batch_id: None,
            },
        );
        if let Some(waiter) = waiter.take() {
            lock_recover(&self.inner.waiters).insert(id, waiter);
        }
        self.inner.counters.enqueued.fetch_add(1, Ordering::Relaxed);
        self.inner.depth.fetch_add(1, Ordering::Relaxed);
        self.inner.events.publish(&TaskEvent::Enqueued(id));
        ledger.pending.push_back(id);
        Ok((id, seq))
    }

    /// The current state of task `id`.
    pub fn task_status(&self, id: TaskId) -> Option<Task> {
        lock_recover(&self.inner.ledger).tasks.get(&id).cloned()
    }

    /// All tasks passing `filter`, ascending by id.
    pub fn list_tasks(&self, filter: &TaskFilter) -> Vec<Task> {
        lock_recover(&self.inner.ledger)
            .tasks
            .values()
            .filter(|t| filter.matches(t))
            .cloned()
            .collect()
    }

    /// Subscribe to the lifecycle event stream from this point on.
    pub fn subscribe(&self) -> TaskSubscriber {
        self.inner.events.subscribe()
    }

    /// Tasks currently enqueued or processing.
    pub fn depth(&self) -> usize {
        self.inner.depth.load(Ordering::Relaxed) as usize
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TaskQueueStats {
        let c = &self.inner.counters;
        TaskQueueStats {
            enqueued: c.enqueued.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            succeeded: c.succeeded.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            merged: c.merged.load(Ordering::Relaxed),
            depth: self.inner.depth.load(Ordering::Relaxed),
            ledger_syncs: self.inner.committer.as_ref().map_or(0, LogCommitter::syncs),
        }
    }

    /// Refuse new tasks; already-admitted ones keep draining.
    pub fn close(&self) {
        self.inner.closed.store(true, Ordering::Release);
        self.inner.work.notify_all();
    }

    /// True once closed *and* drained.
    pub fn is_idle(&self) -> bool {
        self.inner.closed.load(Ordering::Acquire) && self.depth() == 0
    }

    /// Block up to `timeout` for claimable work. Returns `false` only
    /// when the queue is closed and fully drained.
    fn wait_for_work(&self, timeout: Duration) -> bool {
        let ledger = lock_recover(&self.inner.ledger);
        if !ledger.pending.is_empty() {
            return true;
        }
        if self.inner.closed.load(Ordering::Acquire) {
            return false;
        }
        let (ledger, _) = self
            .inner
            .work
            .wait_timeout(ledger, timeout)
            .unwrap_or_else(|e| e.into_inner());
        !ledger.pending.is_empty() || !self.inner.closed.load(Ordering::Acquire)
    }

    /// Claim the next execution batch: the queue head plus directly
    /// adjacent compatible tasks (up to `batch_max` when `batching`,
    /// just the head otherwise), marked `Started` under a shared batch
    /// id. The second value says whether the `Started` records are
    /// durable; the batch must not execute unless they are.
    fn claim_batch(&self, batch_max: usize, batching: bool) -> Option<(Batch, Result<()>)> {
        let mut ledger = lock_recover(&self.inner.ledger);
        let &head = ledger.pending.front()?;
        let limit = if batching { batch_max.max(1) } else { 1 };
        let mut ids = vec![head];
        let head_kind = ledger.tasks[&head].kind.clone();
        for &next in ledger.pending.iter().skip(1) {
            if ids.len() >= limit {
                break;
            }
            if !head_kind.compatible(&ledger.tasks[&next].kind) {
                break;
            }
            ids.push(next);
        }
        let batch_id = ledger.next_batch;
        let records: Vec<LedgerRecord> = ids
            .iter()
            .map(|&id| LedgerRecord::Started { id, batch_id })
            .collect();
        let written = ledger.write(&records);
        ledger.next_batch += 1;
        for _ in 0..ids.len() {
            ledger.pending.pop_front();
        }
        let mut tasks = Vec::with_capacity(ids.len());
        for &id in &ids {
            let task = ledger.tasks.get_mut(&id).expect("claimed task exists");
            task.status = TaskStatus::Processing;
            task.batch_id = Some(batch_id);
            tasks.push(task.clone());
        }
        drop(ledger);
        self.inner.counters.batches.fetch_add(1, Ordering::Relaxed);
        self.inner
            .counters
            .merged
            .fetch_add(ids.len() as u64 - 1, Ordering::Relaxed);
        // `Started` follows each task's `Enqueued` record in the same
        // append-only file, so this sync makes those durable too.
        let started = written.and_then(|seq| self.inner.sync_through(seq));
        if started.is_ok() {
            self.inner.events.publish(&TaskEvent::Batched {
                batch_id,
                tasks: ids.clone(),
            });
            for &id in &ids {
                self.inner.events.publish(&TaskEvent::Started(id));
            }
        }
        Some((Batch { tasks }, started))
    }

    /// Make a batch outcome durable, then resolve its waiters and publish
    /// its `Finished` events — in that order, so nobody learns an outcome
    /// the ledger could still lose. If the `Finished` records cannot be
    /// made durable, a success is reported as that I/O error instead:
    /// never success after a failed sync (replay re-runs the tasks, and
    /// execution is idempotent).
    fn finish_batch(&self, batch: &Batch, outcome: std::result::Result<u64, (ErrorKind, String)>) {
        let verdict = |outcome: &std::result::Result<u64, (ErrorKind, String)>| match outcome {
            Ok(_) => (true, String::new()),
            Err((_, message)) => (false, message.clone()),
        };
        let (ok, error) = verdict(&outcome);
        let records: Vec<LedgerRecord> = batch
            .tasks
            .iter()
            .map(|t| LedgerRecord::Finished {
                id: t.id,
                ok,
                error: error.clone(),
            })
            .collect();
        let written = lock_recover(&self.inner.ledger).write(&records);
        let outcome = match (
            outcome,
            written.and_then(|seq| self.inner.sync_through(seq)),
        ) {
            (Ok(_), Err(e)) => Err((e.kind(), e.to_string())),
            (outcome, _) => outcome,
        };
        let (ok, error) = verdict(&outcome);
        {
            let mut ledger = lock_recover(&self.inner.ledger);
            for task in &batch.tasks {
                if let Some(t) = ledger.tasks.get_mut(&task.id) {
                    t.status = if ok {
                        TaskStatus::Succeeded
                    } else {
                        TaskStatus::Failed {
                            error: error.clone(),
                        }
                    };
                }
            }
        }
        let counter = if ok {
            &self.inner.counters.succeeded
        } else {
            &self.inner.counters.failed
        };
        counter.fetch_add(batch.tasks.len() as u64, Ordering::Relaxed);
        let mut waiters = lock_recover(&self.inner.waiters);
        for task in &batch.tasks {
            if let Some(waiter) = waiters.remove(&task.id) {
                let result = match &outcome {
                    Ok(count) => Ok(*count),
                    Err((kind, message)) => Err(CouplingError::TaskFailed {
                        kind: *kind,
                        message: message.clone(),
                    }),
                };
                waiter(result);
            }
        }
        drop(waiters);
        self.inner
            .depth
            .fetch_sub(batch.tasks.len() as u64, Ordering::Relaxed);
        for task in &batch.tasks {
            self.inner
                .events
                .publish(&TaskEvent::Finished { id: task.id, ok });
        }
        self.inner.work.notify_all();
    }
}

impl QueueInner {
    /// Wait, without the queue mutex, until every ledger record up to
    /// `seq` is durable (see [`LogCommitter::sync_through`]).
    fn sync_through(&self, seq: u64) -> Result<()> {
        match &self.committer {
            Some(committer) => committer.sync_through(seq),
            None => Ok(()),
        }
    }
}

impl std::fmt::Debug for TaskQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskQueue")
            .field("depth", &self.depth())
            .field("capacity", &self.inner.capacity)
            .field("closed", &self.inner.closed.load(Ordering::Relaxed))
            .finish()
    }
}

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Tuning knobs for a [`Scheduler`] (and its [`TaskExecutor`]).
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Admission limit of the task queue.
    pub queue_capacity: usize,
    /// Most tasks merged into one execution batch.
    pub batch_max: usize,
    /// Merge adjacent compatible tasks (`false` executes strictly one
    /// task per batch — the unbatched baseline benchmarks compare
    /// against).
    pub batching: bool,
    /// Propagation strategy for the executor's per-collection
    /// propagators.
    pub propagation: PropagationStrategy,
    /// When set, the task ledger and each collection's propagation
    /// journal live under this directory; tasks then survive crashes.
    pub journal_dir: Option<PathBuf>,
    /// Per-subscriber event buffer bound.
    pub event_capacity: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            queue_capacity: 256,
            batch_max: 32,
            batching: true,
            propagation: PropagationStrategy::Eager,
            journal_dir: None,
            event_capacity: 128,
        }
    }
}

impl SchedulerConfig {
    /// Start building a configuration from the defaults.
    pub fn builder() -> SchedulerConfigBuilder {
        SchedulerConfigBuilder {
            config: SchedulerConfig::default(),
        }
    }

    /// The task ledger path under this configuration, if durable.
    pub fn ledger_path(&self) -> Option<PathBuf> {
        self.journal_dir.as_deref().map(tasks_ledger_path)
    }
}

/// Fluent builder for [`SchedulerConfig`], consistent with
/// [`crate::CollectionSetup::builder`].
#[derive(Debug, Clone)]
pub struct SchedulerConfigBuilder {
    config: SchedulerConfig,
}

impl SchedulerConfigBuilder {
    /// Set the queue admission limit (min 1).
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.config.queue_capacity = n.max(1);
        self
    }

    /// Set the largest execution batch (min 1).
    pub fn batch_max(mut self, n: usize) -> Self {
        self.config.batch_max = n.max(1);
        self
    }

    /// Enable or disable adjacent-task merging.
    pub fn batching(mut self, on: bool) -> Self {
        self.config.batching = on;
        self
    }

    /// Set the propagation strategy.
    pub fn propagation(mut self, strategy: PropagationStrategy) -> Self {
        self.config.propagation = strategy;
        self
    }

    /// Journal the ledger and propagation logs under `dir`.
    pub fn journal_dir(mut self, dir: impl AsRef<Path>) -> Self {
        self.config.journal_dir = Some(dir.as_ref().to_path_buf());
        self
    }

    /// Set the per-subscriber event buffer bound (min 1).
    pub fn event_capacity(mut self, n: usize) -> Self {
        self.config.event_capacity = n.max(1);
        self
    }

    /// Finish building.
    pub fn build(self) -> SchedulerConfig {
        self.config
    }
}

// ---------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------

/// Applies claimed batches to a [`SharedSystem`] — the scheduler's
/// execution half, exposed separately so tests (and recovery drills)
/// can step it batch by batch. Owns the per-collection propagators,
/// exactly as the old serialized writer lane did; there must be at most
/// one executor per queue.
pub struct TaskExecutor {
    shared: SharedSystem,
    queue: TaskQueue,
    config: SchedulerConfig,
    propagators: HashMap<String, Propagator>,
}

impl TaskExecutor {
    /// Build an executor over `shared`, draining `queue`.
    pub fn new(shared: SharedSystem, queue: TaskQueue, config: SchedulerConfig) -> TaskExecutor {
        TaskExecutor {
            shared,
            queue,
            config,
            propagators: HashMap::new(),
        }
    }

    /// The queue this executor drains.
    pub fn queue(&self) -> &TaskQueue {
        &self.queue
    }

    /// The propagator of collection `name`, once a task has used it —
    /// its journal's [`crate::Journal::syncs`] is the propagation half of
    /// the write path's sync count.
    pub fn propagator(&self, name: &str) -> Option<&Propagator> {
        self.propagators.get(name)
    }

    /// Execute one batch if work is immediately available. Returns
    /// whether a batch was claimed.
    pub fn step(&mut self) -> bool {
        let Some((batch, started)) = self
            .queue
            .claim_batch(self.config.batch_max, self.config.batching)
        else {
            return false;
        };
        let outcome = match started {
            Ok(()) => self.execute(&batch),
            // The `Started` records are not durable (the ledger is
            // poisoned): nothing may run.
            Err(e) => Err((e.kind(), e.to_string())),
        };
        self.queue.finish_batch(&batch, outcome);
        true
    }

    /// Wait up to `timeout` for work, then [`TaskExecutor::step`].
    /// Returns `false` only once the queue is closed and drained — the
    /// scheduler thread's exit condition.
    pub fn step_wait(&mut self, timeout: Duration) -> bool {
        if !self.queue.wait_for_work(timeout) {
            return false;
        }
        self.step();
        true
    }

    /// Execute until the queue is empty (shutdown drain, tests).
    pub fn drain(&mut self) {
        while self.step() {}
    }

    /// Apply every pending propagation log to its collection — the
    /// drain-end flush so deferred updates are not lost at shutdown.
    /// Errors stay in the (journaled) log for the next recovery.
    pub fn flush_propagation(&mut self) {
        let shared = self.shared.clone();
        shared.write(|sys| {
            for (name, prop) in self.propagators.iter_mut() {
                if prop.pending().is_empty() {
                    continue;
                }
                let Ok(mut coll) = sys.collection_mut(name) else {
                    continue;
                };
                let ctx = coll.db().method_ctx();
                let _ = prop.flush(&ctx, &mut coll);
            }
        });
    }

    fn execute(&mut self, batch: &Batch) -> std::result::Result<u64, (ErrorKind, String)> {
        // A panic inside execution must not kill the scheduler thread or
        // leave the batch unresolved.
        match catch_unwind(AssertUnwindSafe(|| self.execute_batch(batch))) {
            Ok(Ok(count)) => Ok(count),
            Ok(Err(e)) => Err((e.kind(), e.to_string())),
            Err(_) => Err((ErrorKind::Other, "task execution panicked".to_string())),
        }
    }

    /// Run the merged work of one batch. Merged `IndexObjects` tasks
    /// execute **once** (the run is idempotent); merged `UpdateText`
    /// tasks apply in order under one write lock with batched
    /// propagation; merged flushes fold into one.
    fn execute_batch(&mut self, batch: &Batch) -> Result<u64> {
        let head = &batch.tasks[0].kind;
        match head {
            TaskKind::IndexObjects {
                collection,
                spec_query,
            } => self.run_index_objects(collection, spec_query),
            TaskKind::UpdateText { collections, .. } => {
                let updates: Vec<(Oid, String)> = batch
                    .tasks
                    .iter()
                    .map(|t| match &t.kind {
                        TaskKind::UpdateText { oid, text, .. } => (*oid, text.clone()),
                        _ => unreachable!("batches are kind-homogeneous"),
                    })
                    .collect();
                self.run_update_texts(&updates, collections)
            }
            TaskKind::Flush { collection } => self.run_flush(collection),
        }
    }

    fn take_propagator(&mut self, name: &str) -> Result<Propagator> {
        if let Some(existing) = self.propagators.remove(name) {
            return Ok(existing);
        }
        match &self.config.journal_dir {
            Some(dir) => {
                let path = journal_path(dir, name);
                if let Some(parent) = path.parent() {
                    std::fs::create_dir_all(parent)
                        .map_err(|e| CouplingError::Irs(irs::IrsError::Io(e)))?;
                }
                Propagator::with_journal(self.config.propagation, &path)
            }
            None => Ok(Propagator::new(self.config.propagation)),
        }
    }

    fn run_index_objects(&mut self, collection: &str, spec_query: &str) -> Result<u64> {
        let shared = self.shared.clone();
        let propagators = &mut self.propagators;
        shared.write(|sys| {
            let mut coll = sys.collection_mut(collection)?;
            let db = coll.db();
            let objects = coll.index_objects_batch(db, spec_query)?;
            // A re-index invalidates any deferred ops for this collection
            // recorded before it: fold them away so the flush at shutdown
            // does not redo stale work.
            if let Some(prop) = propagators.get_mut(collection) {
                if !prop.pending().is_empty() {
                    let ctx = coll.db().method_ctx();
                    let _ = prop.flush(&ctx, &mut coll);
                }
            }
            Ok(objects as u64)
        })
    }

    /// Merged `UpdateText` tasks, each propagation phase under the
    /// least lock it needs: the affected ops are computed under the
    /// system read lock, journaled with no lock held, applied together
    /// with the OODB transaction under the write lock, and the journals
    /// settled once it is released — so neither journal `sync_data` of
    /// the batch holds up readers. [`DocumentSystem::update_texts`] runs
    /// the same phases under its caller's lock.
    ///
    /// [`DocumentSystem::update_texts`]: crate::DocumentSystem::update_texts
    fn run_update_texts(
        &mut self,
        updates: &[(Oid, String)],
        collections: &[String],
    ) -> Result<u64> {
        let shared = self.shared.clone();
        let planned = shared.read(|sys| {
            collections
                .iter()
                .map(|name| sys.text_change_ops(name, updates))
                .collect::<Result<Vec<_>>>()
        })?;
        let mut taken: Vec<(String, Propagator)> = Vec::with_capacity(collections.len());
        for name in collections {
            let prop = self.take_propagator(name)?;
            taken.push((name.clone(), prop));
        }
        let applied = journal_and_apply(&shared, updates, &planned, &mut taken);
        let settled = taken
            .iter_mut()
            .map(|(_, prop)| prop.settle())
            .fold(Ok(()), Result::and);
        let count = taken.len() as u64;
        for (name, prop) in taken {
            self.propagators.insert(name, prop);
        }
        applied.and(settled)?;
        Ok(count)
    }

    fn run_flush(&mut self, collection: &str) -> Result<u64> {
        let shared = self.shared.clone();
        let mut prop = self.take_propagator(collection)?;
        let result = shared.write(|sys| {
            let mut coll = sys.collection_mut(collection)?;
            let ctx = coll.db().method_ctx();
            prop.flush(&ctx, &mut coll)
        });
        self.propagators.insert(collection.to_string(), prop);
        Ok(result? as u64)
    }
}

/// Phases one and two of [`TaskExecutor::run_update_texts`]: journal
/// each collection's `planned` ops without a lock, then take the write
/// lock for the transaction and the apply.
fn journal_and_apply(
    shared: &SharedSystem,
    updates: &[(Oid, String)],
    planned: &[Vec<PendingOp>],
    taken: &mut [(String, Propagator)],
) -> Result<()> {
    for ((_, prop), ops) in taken.iter_mut().zip(planned) {
        prop.journal_batch(ops)?;
    }
    shared.write(|sys| {
        sys.set_texts(updates)?;
        for ((name, prop), journaled) in taken.iter_mut().zip(planned) {
            // Only a writer between the two locks can change what is
            // affected, and in a server every mutation is a task run here,
            // so this is empty in practice — but whatever applies must be
            // journaled first.
            let ops = sys.text_change_ops(name, updates)?;
            let unjournaled: Vec<PendingOp> = ops
                .iter()
                .filter(|op| !journaled.contains(op))
                .copied()
                .collect();
            prop.journal_batch(&unjournaled)?;
            let mut coll = sys.collection_mut(name)?;
            let ctx = coll.db().method_ctx();
            prop.apply_batch(&ctx, &mut coll, &ops)?;
        }
        Ok(())
    })
}

impl std::fmt::Debug for TaskExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskExecutor")
            .field("queue", &self.queue)
            .field("batch_max", &self.config.batch_max)
            .field("batching", &self.config.batching)
            .finish()
    }
}

// ---------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------

/// The background scheduler: a [`TaskQueue`] plus one executor thread
/// draining it. Dropping (or [`Scheduler::shutdown`]) closes the queue,
/// drains every admitted task, flushes propagation logs, and joins the
/// thread.
pub struct Scheduler {
    queue: TaskQueue,
    thread: Option<JoinHandle<()>>,
}

impl Scheduler {
    /// Open the ledger (replaying surviving tasks) and start the
    /// executor thread over `shared`.
    pub fn start(shared: SharedSystem, config: SchedulerConfig) -> Result<Scheduler> {
        if let Some(dir) = &config.journal_dir {
            std::fs::create_dir_all(dir).map_err(|e| CouplingError::Irs(irs::IrsError::Io(e)))?;
        }
        let queue = TaskQueue::open(
            config.ledger_path().as_deref(),
            config.queue_capacity,
            config.event_capacity,
        )?;
        let mut executor = TaskExecutor::new(shared, queue.clone(), config);
        let thread = std::thread::spawn(move || {
            while executor.step_wait(Duration::from_millis(50)) {}
            executor.drain();
            executor.flush_propagation();
        });
        Ok(Scheduler {
            queue,
            thread: Some(thread),
        })
    }

    /// The scheduler's queue handle.
    pub fn queue(&self) -> &TaskQueue {
        &self.queue
    }

    /// Graceful shutdown: refuse new tasks, drain admitted ones, flush
    /// propagation logs, join the thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.queue.close();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("queue", &self.queue)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::CollectionSetup;
    use crate::system::DocumentSystem;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("coupling-tasks-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn two_para_system() -> SharedSystem {
        let mut sys = DocumentSystem::new();
        sys.load_sgml(
            "<MMFDOC><DOCTITLE>Telnet</DOCTITLE><PARA>telnet is a protocol</PARA>\
             <PARA>the www needs no telnet</PARA></MMFDOC>",
        )
        .unwrap();
        sys.create_collection("collPara", CollectionSetup::default())
            .unwrap();
        SharedSystem::new(sys)
    }

    fn index_task() -> TaskKind {
        TaskKind::IndexObjects {
            collection: "collPara".into(),
            spec_query: "ACCESS p FROM p IN PARA".into(),
        }
    }

    #[test]
    fn record_codec_round_trips() {
        let records = vec![
            LedgerRecord::Enqueued {
                id: 7,
                tick: 3,
                kind: TaskKind::UpdateText {
                    oid: Oid(9),
                    text: "ünïcode".into(),
                    collections: vec!["a".into(), "b".into()],
                },
            },
            LedgerRecord::Enqueued {
                id: 8,
                tick: 4,
                kind: index_task(),
            },
            LedgerRecord::Enqueued {
                id: 9,
                tick: 5,
                kind: TaskKind::Flush {
                    collection: "c".into(),
                },
            },
            LedgerRecord::Started { id: 7, batch_id: 2 },
            LedgerRecord::Finished {
                id: 7,
                ok: false,
                error: "boom".into(),
            },
        ];
        for rec in records {
            let bytes = rec.encode();
            let decoded = LedgerRecord::decode(&bytes).expect("decodes");
            assert_eq!(decoded.encode(), bytes, "re-encode is stable");
        }
        // Hostile bytes never panic.
        assert!(LedgerRecord::decode(&[]).is_none());
        assert!(LedgerRecord::decode(&[0xff, 1, 2]).is_none());
        let mut truncated = LedgerRecord::Enqueued {
            id: 1,
            tick: 1,
            kind: index_task(),
        }
        .encode();
        truncated.pop();
        assert!(LedgerRecord::decode(&truncated).is_none());
        let mut trailing = LedgerRecord::Started { id: 1, batch_id: 1 }.encode();
        trailing.push(0);
        assert!(LedgerRecord::decode(&trailing).is_none());
    }

    #[test]
    fn adjacent_identical_index_tasks_merge_into_one_batch() {
        let shared = two_para_system();
        let queue = TaskQueue::open(None, 64, 16).unwrap();
        let ids: Vec<TaskId> = (0..4)
            .map(|_| queue.enqueue(index_task()).unwrap())
            .collect();
        let mut executor = TaskExecutor::new(shared, queue.clone(), SchedulerConfig::default());
        assert!(executor.step(), "one batch serves all four");
        assert!(!executor.step(), "queue is drained");
        let batch_ids: Vec<Option<u64>> = ids
            .iter()
            .map(|&id| queue.task_status(id).unwrap().batch_id)
            .collect();
        assert!(batch_ids.iter().all(|b| b.is_some() && *b == batch_ids[0]));
        for &id in &ids {
            assert_eq!(queue.task_status(id).unwrap().status, TaskStatus::Succeeded);
        }
        let stats = queue.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.merged, 3);
        assert_eq!(stats.succeeded, 4);
    }

    #[test]
    fn incompatible_neighbours_break_the_batch() {
        let shared = two_para_system();
        let queue = TaskQueue::open(None, 64, 16).unwrap();
        queue.enqueue(index_task()).unwrap();
        queue
            .enqueue(TaskKind::Flush {
                collection: "collPara".into(),
            })
            .unwrap();
        queue.enqueue(index_task()).unwrap();
        let mut executor = TaskExecutor::new(shared, queue.clone(), SchedulerConfig::default());
        executor.drain();
        assert_eq!(queue.stats().batches, 3, "no merging across kinds");
        assert_eq!(queue.stats().merged, 0);
    }

    #[test]
    fn events_flow_and_bounded_buffer_drops_oldest() {
        let shared = two_para_system();
        let queue = TaskQueue::open(None, 64, 4).unwrap();
        let sub = queue.subscribe();
        let id = queue.enqueue(index_task()).unwrap();
        let mut executor = TaskExecutor::new(shared, queue.clone(), SchedulerConfig::default());
        executor.drain();
        assert_eq!(
            sub.recv_timeout(Duration::from_secs(1)),
            Some(TaskEvent::Enqueued(id))
        );
        assert!(matches!(
            sub.recv_timeout(Duration::from_secs(1)),
            Some(TaskEvent::Batched { .. })
        ));
        assert_eq!(
            sub.recv_timeout(Duration::from_secs(1)),
            Some(TaskEvent::Started(id))
        );
        assert_eq!(
            sub.recv_timeout(Duration::from_secs(1)),
            Some(TaskEvent::Finished { id, ok: true })
        );
        // Overflow a 4-event buffer: oldest events drop, missed counts.
        for _ in 0..4 {
            queue.enqueue(index_task()).unwrap();
        }
        assert!(sub.missed() == 0);
        for _ in 0..4 {
            queue.enqueue(index_task()).unwrap();
        }
        assert_eq!(sub.missed(), 4);
    }

    #[test]
    fn capacity_rejects_with_overloaded_and_close_with_shutting_down() {
        let queue = TaskQueue::open(None, 2, 4).unwrap();
        queue.enqueue(index_task()).unwrap();
        queue.enqueue(index_task()).unwrap();
        assert!(matches!(
            queue.enqueue(index_task()),
            Err(CouplingError::Overloaded(2))
        ));
        queue.close();
        assert!(matches!(
            queue.enqueue(index_task()),
            Err(CouplingError::ShuttingDown)
        ));
        assert_eq!(queue.stats().rejected, 2);
    }

    #[test]
    fn failed_tasks_carry_their_error_and_filters_select() {
        let shared = two_para_system();
        let queue = TaskQueue::open(None, 64, 16).unwrap();
        let bad = queue
            .enqueue(TaskKind::IndexObjects {
                collection: "ghost".into(),
                spec_query: "ACCESS p FROM p IN PARA".into(),
            })
            .unwrap();
        let good = queue.enqueue(index_task()).unwrap();
        let mut executor = TaskExecutor::new(shared, queue.clone(), SchedulerConfig::default());
        executor.drain();
        match queue.task_status(bad).unwrap().status {
            TaskStatus::Failed { error } => assert!(error.contains("ghost"), "{error}"),
            other => panic!("expected failure, got {other:?}"),
        }
        assert_eq!(
            queue.task_status(good).unwrap().status,
            TaskStatus::Succeeded
        );
        let failed = queue.list_tasks(&TaskFilter {
            status: Some(TaskStatusKind::Failed),
            collection: None,
        });
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].id, bad);
        let ghost_tasks = queue.list_tasks(&TaskFilter {
            status: None,
            collection: Some("ghost".into()),
        });
        assert_eq!(ghost_tasks.len(), 1);
        assert_eq!(queue.list_tasks(&TaskFilter::default()).len(), 2);
    }

    #[test]
    fn waiters_resolve_with_outcome() {
        let shared = two_para_system();
        let queue = TaskQueue::open(None, 64, 16).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let id = queue
            .enqueue_with_waiter(
                index_task(),
                Box::new(move |result| {
                    tx.send(result.map_err(|e| e.kind())).unwrap();
                }),
            )
            .expect("admitted");
        assert!(id > 0);
        let mut executor = TaskExecutor::new(shared, queue.clone(), SchedulerConfig::default());
        executor.drain();
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)).unwrap(), Ok(2));
        // A rejected enqueue resolves the waiter immediately.
        queue.close();
        let (tx, rx) = std::sync::mpsc::channel();
        let refused = queue.enqueue_with_waiter(
            index_task(),
            Box::new(move |result| {
                tx.send(result.map_err(|e| e.kind())).unwrap();
            }),
        );
        assert!(refused.is_none());
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(1)).unwrap(),
            Err(ErrorKind::Overloaded)
        );
    }

    #[test]
    fn ledger_survives_reopen_and_reverts_processing_tasks() {
        let dir = tmp_dir("reopen");
        let ledger_path = dir.join("tasks.ledger");
        {
            let queue = TaskQueue::open(Some(&ledger_path), 64, 16).unwrap();
            let shared = two_para_system();
            let done = queue.enqueue(index_task()).unwrap();
            let mut executor = TaskExecutor::new(shared, queue.clone(), SchedulerConfig::default());
            executor.drain();
            assert_eq!(
                queue.task_status(done).unwrap().status,
                TaskStatus::Succeeded
            );
            // Claim-but-never-finish a second task: a crash mid-batch.
            queue
                .enqueue(TaskKind::Flush {
                    collection: "collPara".into(),
                })
                .unwrap();
            queue.claim_batch(8, true).expect("claimed").1.unwrap();
            // Queue dropped here without finishing — the crash.
        }
        let queue = TaskQueue::open(Some(&ledger_path), 64, 16).unwrap();
        assert_eq!(queue.depth(), 1, "the unfinished task is pending again");
        let tasks = queue.list_tasks(&TaskFilter::default());
        assert_eq!(tasks.len(), 2);
        assert_eq!(tasks[0].status, TaskStatus::Succeeded);
        assert_eq!(tasks[1].status, TaskStatus::Enqueued, "Processing reverted");
        let shared = two_para_system();
        let mut executor = TaskExecutor::new(shared, queue.clone(), SchedulerConfig::default());
        executor.drain();
        assert_eq!(
            queue.list_tasks(&TaskFilter::default())[1].status,
            TaskStatus::Succeeded
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A plan computed under the read lock can go stale before the write
    /// lock is taken (another writer changes what an update affects):
    /// the ops it missed are journaled before they apply.
    #[test]
    fn ops_missing_from_the_plan_are_journaled_before_they_apply() {
        let dir = tmp_dir("stale-plan");
        let shared = two_para_system();
        let para = shared.write(|sys| {
            sys.index_collection("collPara", "ACCESS p FROM p IN PARA")
                .unwrap();
            sys.query("ACCESS p FROM p IN PARA").unwrap()[0]
                .oid()
                .unwrap()
        });
        let prop =
            Propagator::with_journal(PropagationStrategy::Eager, &dir.join("c.journal")).unwrap();
        let mut taken = vec![("collPara".to_string(), prop)];
        let updates = [(para, "gopher menus".to_string())];
        journal_and_apply(&shared, &updates, &[Vec::new()], &mut taken).unwrap();
        let prop = &mut taken[0].1;
        assert_eq!(prop.journal().unwrap().frames(), 1, "journaled");
        assert_eq!(prop.stats().applied, 1, "applied");
        prop.settle().unwrap();
        assert_eq!(prop.journal().unwrap().frames(), 0, "settled");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scheduler_thread_drains_and_shuts_down() {
        let dir = tmp_dir("sched");
        let shared = two_para_system();
        let config = SchedulerConfig::builder()
            .queue_capacity(16)
            .journal_dir(&dir)
            .build();
        let scheduler = Scheduler::start(shared.clone(), config).unwrap();
        let id = scheduler.queue().enqueue(index_task()).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let task = scheduler.queue().task_status(id).unwrap();
            if task.status.is_terminal() {
                assert_eq!(task.status, TaskStatus::Succeeded);
                break;
            }
            assert!(std::time::Instant::now() < deadline, "task never finished");
            std::thread::sleep(Duration::from_millis(5));
        }
        scheduler.shutdown();
        shared.read(|sys| {
            let coll = sys.collection("collPara").unwrap();
            assert_eq!(coll.get_irs_result("telnet").unwrap().len(), 2);
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
