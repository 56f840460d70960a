//! The request front-end: thread pool, admission control, deadlines,
//! graceful shutdown.
//!
//! A [`Server`] owns a [`coupling::SharedSystem`] plus a bounded read
//! queue and a durable task scheduler. **Reads** ([`Request::is_write`]
//! == false) execute under the system's shared read lock, at most
//! `read_workers` at once: [`Server::submit`] hands them to that many
//! pool threads, while [`Server::call`] — whose caller blocks on the
//! answer anyway — runs the read on the calling thread whenever nothing
//! is queued and one of the same `read_workers` execution slots is free
//! (caller-runs; see [`BoundedQueue::push_or_run`]). **Writes**
//! become [`coupling::tasks`] entries: durably enqueued (journaled when
//! the server has a journal directory), executed by the scheduler's
//! single executor thread — there is exactly one mutator, so
//! propagation logs never race — and merged with adjacent compatible
//! tasks into shared batches. [`Request::EnqueueTask`] answers
//! immediately with the task id (202-accepted style); the deprecated
//! synchronous write shapes still block until their task executes, via
//! a completion waiter on the queue.
//!
//! Admission control is reject-not-queue: a full queue fails the
//! request immediately with [`CouplingError::Overloaded`], keeping
//! tail latency bounded under overload. Each read may carry a deadline;
//! one that expires while still queued is failed with
//! [`CouplingError::Timeout`] *without* executing. Deadlines do not
//! apply to enqueued tasks — once durably accepted, a task always runs.
//!
//! Shutdown is graceful: the read queue closes (new work is rejected
//! with [`CouplingError::ShuttingDown`]), workers drain everything
//! already admitted, and the scheduler drains every admitted task and
//! flushes every propagation log before its thread exits.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use coupling::tasks::{Scheduler, SchedulerConfig, TaskKind, TaskQueue, TaskWaiter};
use coupling::{
    evaluate_mixed, CouplingError, DocumentSystem, PropagationStrategy, ResultOrigin, SharedSystem,
};
use oodb::Oid;

use crate::metrics::{Metrics, MetricsSnapshot};
use crate::queue::{BoundedQueue, PushError};
use crate::request::{Request, Response};

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Reads executing at once — the worker pool's size and the number
    /// of execution slots workers and calling threads share.
    pub read_workers: usize,
    /// Admission limit of the read queue and of the task queue.
    pub queue_capacity: usize,
    /// Deadline applied to requests submitted without an explicit one.
    /// `None` means such requests never time out.
    pub default_deadline: Option<Duration>,
    /// Update propagation strategy for the scheduler's propagators.
    pub propagation: PropagationStrategy,
    /// When set, the task ledger and each collection's propagation log
    /// are durably journaled under this directory
    /// ([`coupling::tasks_ledger_path`], [`coupling::journal_path`]).
    pub journal_dir: Option<PathBuf>,
    /// Serve reads only: write requests are rejected at admission with
    /// [`irs::IrsError::ReadOnly`] and no scheduler (or ledger file) is
    /// created. This is how a replica refuses to fork its frozen
    /// snapshot from the primary.
    pub read_only: bool,
    /// Most tasks merged into one scheduler execution batch.
    pub batch_max: usize,
    /// Merge adjacent compatible tasks (disable for the unbatched
    /// baseline benchmarks compare against).
    pub batching: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            read_workers: 4,
            queue_capacity: 64,
            default_deadline: None,
            propagation: PropagationStrategy::Eager,
            journal_dir: None,
            read_only: false,
            batch_max: 32,
            batching: true,
        }
    }
}

impl ServerConfig {
    /// Start building a configuration from the defaults — the
    /// counterpart of [`coupling::CollectionSetup::builder`].
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder {
            config: ServerConfig::default(),
        }
    }

    /// Set the number of read worker threads (min 1).
    pub fn read_workers(mut self, n: usize) -> Self {
        self.read_workers = n.max(1);
        self
    }

    /// Set the per-queue capacity (min 1).
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n.max(1);
        self
    }

    /// Set the default per-request deadline.
    pub fn default_deadline(mut self, d: Duration) -> Self {
        self.default_deadline = Some(d);
        self
    }

    /// Set the scheduler's propagation strategy.
    pub fn propagation(mut self, strategy: PropagationStrategy) -> Self {
        self.propagation = strategy;
        self
    }

    /// Journal the task ledger and propagation logs under `dir`.
    pub fn journal_dir(mut self, dir: impl AsRef<Path>) -> Self {
        self.journal_dir = Some(dir.as_ref().to_path_buf());
        self
    }

    /// Refuse write requests (replica mode).
    pub fn read_only(mut self, read_only: bool) -> Self {
        self.read_only = read_only;
        self
    }

    /// Set the largest execution batch (min 1).
    pub fn batch_max(mut self, n: usize) -> Self {
        self.batch_max = n.max(1);
        self
    }

    /// Enable or disable adjacent-task merging.
    pub fn batching(mut self, on: bool) -> Self {
        self.batching = on;
        self
    }

    fn scheduler_config(&self) -> SchedulerConfig {
        let mut builder = SchedulerConfig::builder()
            .queue_capacity(self.queue_capacity)
            .batch_max(self.batch_max)
            .batching(self.batching)
            .propagation(self.propagation);
        if let Some(dir) = &self.journal_dir {
            builder = builder.journal_dir(dir);
        }
        builder.build()
    }
}

/// Fluent builder for [`ServerConfig`]. The config's own chainable
/// setters remain for in-place tweaking; the builder is the canonical
/// construction path (no field-struct literals at call sites).
#[derive(Debug, Clone)]
pub struct ServerConfigBuilder {
    config: ServerConfig,
}

impl ServerConfigBuilder {
    /// Set the number of read worker threads (min 1).
    pub fn read_workers(mut self, n: usize) -> Self {
        self.config = self.config.read_workers(n);
        self
    }

    /// Set the per-queue capacity (min 1).
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.config = self.config.queue_capacity(n);
        self
    }

    /// Set the default per-request deadline.
    pub fn default_deadline(mut self, d: Duration) -> Self {
        self.config = self.config.default_deadline(d);
        self
    }

    /// Set the scheduler's propagation strategy.
    pub fn propagation(mut self, strategy: PropagationStrategy) -> Self {
        self.config = self.config.propagation(strategy);
        self
    }

    /// Journal the task ledger and propagation logs under `dir`.
    pub fn journal_dir(mut self, dir: impl AsRef<Path>) -> Self {
        self.config = self.config.journal_dir(dir);
        self
    }

    /// Refuse write requests (replica mode).
    pub fn read_only(mut self, read_only: bool) -> Self {
        self.config = self.config.read_only(read_only);
        self
    }

    /// Set the largest execution batch (min 1).
    pub fn batch_max(mut self, n: usize) -> Self {
        self.config = self.config.batch_max(n);
        self
    }

    /// Enable or disable adjacent-task merging.
    pub fn batching(mut self, on: bool) -> Self {
        self.config = self.config.batching(on);
        self
    }

    /// Finish building.
    pub fn build(self) -> ServerConfig {
        self.config
    }
}

// ---------------------------------------------------------------------
// Tickets
// ---------------------------------------------------------------------

struct TicketState {
    slot: Mutex<Option<coupling::Result<Response>>>,
    ready: Condvar,
}

/// Lock a ticket/queue mutex, recovering from poisoning: a panicking
/// worker must not cascade panics into every client thread blocked on
/// an unrelated ticket. The protected `Option` slot is valid in every
/// state the lock can be observed in, so recovery is safe.
fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A claim on the eventual outcome of a submitted request.
pub struct Ticket {
    state: Arc<TicketState>,
}

impl Ticket {
    /// Block until the request finishes and return its outcome.
    pub fn wait(self) -> coupling::Result<Response> {
        let mut slot = lock_recover(&self.state.slot);
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self
                .state
                .ready
                .wait(slot)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// True once an outcome is available (then [`Ticket::wait`] will
    /// not block).
    pub fn is_ready(&self) -> bool {
        lock_recover(&self.state.slot).is_some()
    }
}

/// Worker-side handle that must deliver exactly one outcome to the
/// ticket. Dropping it without completing (worker panic, shutdown
/// teardown) delivers [`CouplingError::ShuttingDown`] so no client
/// waits forever.
struct Completion {
    state: Option<Arc<TicketState>>,
}

impl Completion {
    fn deliver(state: &Arc<TicketState>, result: coupling::Result<Response>) {
        *lock_recover(&state.slot) = Some(result);
        state.ready.notify_all();
    }

    fn complete(mut self, result: coupling::Result<Response>) {
        if let Some(state) = self.state.take() {
            Completion::deliver(&state, result);
        }
    }
}

impl Drop for Completion {
    fn drop(&mut self) {
        if let Some(state) = self.state.take() {
            Completion::deliver(&state, Err(CouplingError::ShuttingDown));
        }
    }
}

fn ticket_pair() -> (Ticket, Completion) {
    let state = Arc::new(TicketState {
        slot: Mutex::new(None),
        ready: Condvar::new(),
    });
    (
        Ticket {
            state: Arc::clone(&state),
        },
        Completion { state: Some(state) },
    )
}

struct Job {
    request: Request,
    completion: Completion,
    enqueued: Instant,
    deadline: Option<Duration>,
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

struct ServerState {
    read_queue: BoundedQueue<Job>,
    /// The scheduler's queue handle — `None` on read-only replicas.
    /// Read workers answer [`Request::TaskStatus`]/[`Request::ListTasks`]
    /// from it without touching the document system.
    task_queue: Option<TaskQueue>,
    metrics: Metrics,
}

/// Thread-pool request front-end over a [`DocumentSystem`].
pub struct Server {
    shared: SharedSystem,
    state: Arc<ServerState>,
    config: ServerConfig,
    scheduler: Option<Scheduler>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Take ownership of `sys` and start serving it.
    pub fn start(sys: DocumentSystem, config: ServerConfig) -> Server {
        Server::start_shared(SharedSystem::new(sys), config)
    }

    /// Serve an already-shared system (other handles keep direct
    /// access; the server's scheduler still assumes it is the only
    /// writer of propagation state).
    ///
    /// # Panics
    ///
    /// Panics when a configured journal directory cannot be created or
    /// its task ledger cannot be opened — durability was requested and
    /// is not available, which is not a condition to serve through.
    pub fn start_shared(shared: SharedSystem, config: ServerConfig) -> Server {
        let scheduler = if config.read_only {
            None
        } else {
            Some(
                Scheduler::start(shared.clone(), config.scheduler_config())
                    .expect("task ledger opens under the configured journal directory"),
            )
        };
        let state = Arc::new(ServerState {
            read_queue: BoundedQueue::with_slots(config.queue_capacity, config.read_workers),
            task_queue: scheduler.as_ref().map(|s| s.queue().clone()),
            metrics: Metrics::new(),
        });
        let mut workers = Vec::with_capacity(config.read_workers.max(1));
        for _ in 0..config.read_workers.max(1) {
            let shared = shared.clone();
            let state = Arc::clone(&state);
            workers.push(std::thread::spawn(move || {
                while let Some((job, _slot)) = state.read_queue.pop() {
                    run_job(&shared, &state, job);
                }
            }));
        }
        Server {
            shared,
            state,
            config,
            scheduler,
            workers,
        }
    }

    /// Submit with the configured default deadline. Rejections
    /// (overload, shutdown) come back as an already-completed ticket.
    pub fn submit(&self, request: Request) -> Ticket {
        self.submit_opt(request, self.config.default_deadline, false)
    }

    /// Submit with an explicit deadline measured from now.
    pub fn submit_with_deadline(&self, request: Request, deadline: Duration) -> Ticket {
        self.submit_opt(request, Some(deadline), false)
    }

    /// Admission. With `caller_runs` an admitted read may execute right
    /// here instead of on a pool thread, and the returned ticket is then
    /// already resolved — only for callers about to wait on it.
    fn submit_opt(
        &self,
        request: Request,
        deadline: Option<Duration>,
        caller_runs: bool,
    ) -> Ticket {
        let (ticket, completion) = ticket_pair();
        if self.config.read_only && request.is_write() {
            self.state.metrics.request_failed();
            completion.complete(Err(CouplingError::Irs(irs::IrsError::ReadOnly(
                "server is a read-only replica; writes go to the primary".into(),
            ))));
            return ticket;
        }
        // A deadline that has already expired cannot be met: fail it
        // now instead of burning a queue slot on work the client has
        // given up on before it could even start waiting.
        if let Some(d) = deadline {
            if d.is_zero() {
                self.state.metrics.request_timed_out();
                completion.complete(Err(CouplingError::Timeout(d)));
                return ticket;
            }
        }
        if request.is_write() {
            // Writes do not ride a worker queue: they become durable
            // tasks at submit time (deadlines no longer apply — once
            // accepted, a task always runs).
            self.submit_write(request, completion);
            return ticket;
        }
        let job = Job {
            request,
            completion,
            enqueued: Instant::now(),
            deadline,
        };
        let queue = &self.state.read_queue;
        let admitted = if caller_runs {
            queue.push_or_run(job)
        } else {
            queue.push(job).map(|()| None)
        };
        match admitted {
            Ok(inline) => {
                self.state.metrics.request_submitted();
                self.state.metrics.read_admitted(inline.is_some());
                if let Some((job, _slot)) = inline {
                    run_job(&self.shared, &self.state, job);
                }
            }
            Err(PushError::Full(job)) => {
                self.state.metrics.request_rejected_overload();
                job.completion.complete(Err(CouplingError::Overloaded(
                    self.state.read_queue.capacity(),
                )));
            }
            Err(PushError::Closed(job)) => {
                self.state.metrics.request_rejected_shutdown();
                job.completion.complete(Err(CouplingError::ShuttingDown));
            }
        }
        ticket
    }

    /// Route a write request into the task queue. `EnqueueTask` resolves
    /// the ticket immediately with the accepted id; the deprecated
    /// synchronous shapes resolve when their task finishes executing.
    #[allow(deprecated)]
    fn submit_write(&self, request: Request, completion: Completion) {
        let Some(queue) = &self.state.task_queue else {
            // No scheduler only happens on read-only servers, which are
            // rejected earlier; defensively refuse rather than panic.
            self.state.metrics.request_failed();
            completion.complete(Err(CouplingError::ShuttingDown));
            return;
        };
        let reject = |metrics: &Metrics, err: &CouplingError| match err {
            CouplingError::Overloaded(_) => metrics.request_rejected_overload(),
            CouplingError::ShuttingDown => metrics.request_rejected_shutdown(),
            _ => metrics.request_failed(),
        };
        match request {
            Request::EnqueueTask { kind } => {
                let start = Instant::now();
                match queue.enqueue(kind) {
                    Ok(id) => {
                        self.state.metrics.request_submitted();
                        self.state.metrics.request_completed(start.elapsed(), None);
                        completion.complete(Ok(Response::TaskAccepted(id)));
                    }
                    Err(err) => {
                        reject(&self.state.metrics, &err);
                        completion.complete(Err(err));
                    }
                }
            }
            Request::UpdateText {
                oid,
                text,
                collections,
            } => self.submit_legacy_write(
                TaskKind::UpdateText {
                    oid,
                    text,
                    collections,
                },
                false,
                completion,
            ),
            Request::IndexObjects {
                collection,
                spec_query,
            } => self.submit_legacy_write(
                TaskKind::IndexObjects {
                    collection,
                    spec_query,
                },
                true,
                completion,
            ),
            other => {
                self.state.metrics.request_failed();
                completion.complete(Err(CouplingError::BadSpecQuery(format!(
                    "read request {:?} routed to the write path",
                    other.label()
                ))));
            }
        }
    }

    /// The deprecated blocking write shapes: enqueue the task with a
    /// waiter that resolves the caller's ticket on execution, preserving
    /// the old call-and-wait semantics over the new durable queue.
    fn submit_legacy_write(&self, kind: TaskKind, indexed: bool, completion: Completion) {
        let queue = self
            .state
            .task_queue
            .as_ref()
            .expect("submit_write checked the scheduler exists");
        let state = Arc::clone(&self.state);
        let enqueued = Instant::now();
        let waiter: TaskWaiter = Box::new(move |result| match result {
            Ok(count) => {
                state.metrics.request_completed(enqueued.elapsed(), None);
                let response = if indexed {
                    Response::Indexed {
                        objects: count as usize,
                    }
                } else {
                    Response::Updated {
                        collections: count as usize,
                    }
                };
                completion.complete(Ok(response));
            }
            Err(err) => {
                match &err {
                    CouplingError::Overloaded(_) => state.metrics.request_rejected_overload(),
                    CouplingError::ShuttingDown => state.metrics.request_rejected_shutdown(),
                    _ => state.metrics.request_failed(),
                }
                completion.complete(Err(err));
            }
        });
        if queue.enqueue_with_waiter(kind, waiter).is_some() {
            self.state.metrics.request_submitted();
        }
    }

    /// Submit and wait: the synchronous call. Since this thread would
    /// only block on the ticket, it executes the read itself when no
    /// admitted read is waiting and an execution slot is free; otherwise
    /// (and for writes) exactly [`Server::submit`] then [`Ticket::wait`].
    pub fn call(&self, request: Request) -> coupling::Result<Response> {
        self.submit_opt(request, self.config.default_deadline, true)
            .wait()
    }

    /// Snapshot of the server's request counters, latency histogram,
    /// and task-scheduler counters (zero on read-only replicas).
    pub fn metrics(&self) -> MetricsSnapshot {
        let snapshot = self.state.metrics.snapshot();
        match &self.state.task_queue {
            Some(queue) => snapshot.with_tasks(queue.stats()),
            None => snapshot,
        }
    }

    /// Current `(read queue, task queue)` depths.
    pub fn queue_depths(&self) -> (usize, usize) {
        (
            self.state.read_queue.len(),
            self.state
                .task_queue
                .as_ref()
                .map(|q| q.depth())
                .unwrap_or(0),
        )
    }

    /// The task queue handle — enqueue, status probes, and the
    /// [`coupling::tasks::TaskEvent`] subscription stream. `None` on
    /// read-only replicas.
    pub fn tasks(&self) -> Option<&TaskQueue> {
        self.state.task_queue.as_ref()
    }

    /// The served system — for direct inspection (e.g. in tests) or for
    /// keeping a handle beyond the server's lifetime.
    pub fn system(&self) -> &SharedSystem {
        &self.shared
    }

    /// Graceful shutdown: refuse new requests, drain the read queue and
    /// the task queue, flush propagation logs, join all workers.
    /// Returns the final metrics.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.shutdown_inner();
        self.metrics()
    }

    fn shutdown_inner(&mut self) {
        self.state.read_queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(scheduler) = self.scheduler.take() {
            scheduler.shutdown();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (r, w) = self.queue_depths();
        f.debug_struct("Server")
            .field("read_workers", &self.config.read_workers)
            .field("queue_capacity", &self.config.queue_capacity)
            .field("read_depth", &r)
            .field("task_depth", &w)
            .finish()
    }
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

fn run_job(shared: &SharedSystem, state: &ServerState, job: Job) {
    let Job {
        request,
        completion,
        enqueued,
        deadline,
    } = job;
    if let Some(d) = deadline {
        if enqueued.elapsed() > d {
            state.metrics.request_timed_out();
            completion.complete(Err(CouplingError::Timeout(d)));
            return;
        }
    }
    // On a handler panic the closure's stack unwinds, `completion`
    // drops, and the ticket resolves to `ShuttingDown` — the executing
    // thread (pool worker or caller) itself survives for the next job.
    state.metrics.read_started();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let result = execute_read(shared, state, &request);
        (completion, result)
    }));
    state.metrics.read_finished();
    match outcome {
        Ok((completion, Ok((response, origin)))) => {
            state.metrics.request_completed(enqueued.elapsed(), origin);
            completion.complete(Ok(response));
        }
        Ok((completion, Err(err))) => {
            state.metrics.request_failed();
            completion.complete(Err(err));
        }
        Err(_) => {
            state.metrics.request_failed();
        }
    }
}

type Executed = coupling::Result<(Response, Option<ResultOrigin>)>;

fn execute_read(shared: &SharedSystem, state: &ServerState, request: &Request) -> Executed {
    let tasks = state.task_queue.as_ref();
    // Task observability answers from the ledger alone — no system lock.
    match request {
        Request::TaskStatus { id } => {
            let task = tasks
                .and_then(|q| q.task_status(*id))
                .ok_or(CouplingError::UnknownTask(*id))?;
            return Ok((Response::TaskInfo(task), None));
        }
        Request::ListTasks { filter } => {
            let list = tasks.map(|q| q.list_tasks(filter)).unwrap_or_default();
            return Ok((Response::TaskList(list), None));
        }
        _ => {}
    }
    shared.read(|sys| match request {
        Request::IrsQuery { collection, query } => {
            let coll = sys.collection(collection)?;
            let (map, origin) = coll.get_irs_result_with_origin(query)?;
            let mut hits: Vec<(Oid, f64)> = map.into_iter().collect();
            hits.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            Ok((Response::IrsResult { hits, origin }, Some(origin)))
        }
        Request::MixedQuery {
            collection,
            class,
            irs_query,
            threshold,
            strategy,
        } => {
            let coll = sys.collection(collection)?;
            let outcome = evaluate_mixed(
                coll.db(),
                &coll,
                class,
                &|_, _| true,
                irs_query,
                *threshold,
                *strategy,
            )?;
            state.metrics.mixed_executed(*strategy, outcome.strategy);
            let origin = outcome.origin;
            Ok((
                Response::Mixed {
                    oids: outcome.oids,
                    strategy: outcome.strategy,
                    origin,
                },
                Some(origin),
            ))
        }
        Request::GetIrsValue {
            collection,
            query,
            oid,
        } => {
            let coll = sys.collection(collection)?;
            let ctx = coll.db().method_ctx();
            let value = coll.get_irs_value(&ctx, query, *oid)?;
            Ok((Response::Value(value), None))
        }
        Request::TermStats { collection, query } => {
            let coll = sys.collection(collection)?;
            let globals = coll.query_globals(query)?;
            Ok((Response::TermStats(globals), None))
        }
        Request::IrsQueryGlobal {
            collection,
            query,
            k,
            globals,
        } => {
            let coll = sys.collection(collection)?;
            let k = usize::try_from(*k).unwrap_or(usize::MAX);
            let hits = coll.get_irs_result_global(query, k, globals)?;
            Ok((Response::IrsKeyed { hits }, None))
        }
        Request::Ping => Ok((Response::Pong, None)),
        other => Err(CouplingError::BadSpecQuery(format!(
            "write request {:?} routed to the read lane",
            other.label()
        ))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Caller-runs never outlives admission: once shutdown has closed
    /// the read queue, `call` is refused like `submit`, not executed.
    #[test]
    fn call_after_shutdown_begins_is_refused() {
        let server = Server::start(DocumentSystem::new(), ServerConfig::default());
        assert!(matches!(server.call(Request::Ping), Ok(Response::Pong)));
        server.state.read_queue.close();
        let err = server.call(Request::Ping).expect_err("queue is closed");
        assert!(matches!(err, CouplingError::ShuttingDown));
        let snapshot = server.shutdown();
        assert_eq!(snapshot.rejected_shutdown, 1);
        assert_eq!((snapshot.reads_inline, snapshot.submitted), (1, 1));
    }
}
