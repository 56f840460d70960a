//! Write clients: `TaskKind::UpdateText` tasks enqueued over TCP, their
//! completion observed through the task queue's event stream.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use coupling::tasks::{TaskFilter, TaskId, TaskKind, TaskQueue, TaskStatus, TaskSubscriber};
use coupling::tasks_ledger_path;
use oodb::Oid;
use serve::{Client, Request, Response};

use crate::stream::{UpdateStream, COLLECTION};

/// Admission limit of the task queue in the write workloads: room for
/// both clients' outstanding tasks (the default 64 would refuse some).
pub const QUEUE_CAPACITY: usize = 256;
/// Tasks one write client keeps outstanding at most.
pub const OUTSTANDING_PER_CLIENT: u64 = 64;
/// One `TaskKind::Flush` per this many updates.
const FLUSH_EVERY: u64 = 512;
/// Marker terms looked up after the run.
const MARKER_SAMPLE: usize = 200;

/// Follows task completion. The event stream only wakes it up; the count
/// comes from the queue's own counters, so dropped events lose nothing.
pub struct Tracker {
    queue: TaskQueue,
    /// `(tasks finished, when that count was first seen)`.
    progress: Mutex<(u64, Instant)>,
    progressed: Condvar,
    stop: AtomicBool,
}

impl Tracker {
    pub fn new(queue: TaskQueue) -> Tracker {
        Tracker {
            queue,
            progress: Mutex::new((0, Instant::now())),
            progressed: Condvar::new(),
            stop: AtomicBool::new(false),
        }
    }

    pub fn queue(&self) -> &TaskQueue {
        &self.queue
    }

    /// Body of the tracking thread; returns after [`Tracker::stop`].
    pub fn follow(&self, events: TaskSubscriber) {
        while !self.stop.load(Ordering::SeqCst) {
            events.recv_timeout(Duration::from_millis(20));
            let stats = self.queue.stats();
            let finished = stats.succeeded + stats.failed;
            let mut progress = self.progress.lock().expect("tracker lock");
            if finished > progress.0 {
                *progress = (finished, Instant::now());
                self.progressed.notify_all();
            }
        }
    }

    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    pub fn finished(&self) -> u64 {
        self.progress.lock().expect("tracker lock").0
    }

    /// When the latest completion was seen.
    pub fn last_finish(&self) -> Instant {
        self.progress.lock().expect("tracker lock").1
    }

    /// Block until `done(tasks finished)` holds.
    pub fn wait(&self, done: impl Fn(u64) -> bool) {
        let mut progress = self.progress.lock().expect("tracker lock");
        while !done(progress.0) {
            progress = self
                .progressed
                .wait_timeout(progress, Duration::from_millis(100))
                .expect("tracker lock")
                .0;
        }
    }
}

/// When a writer stops issuing.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    Clock(Instant),
    Issued(u64),
}

#[derive(Debug, Default)]
pub struct WriteOutcome {
    /// Enqueue round trips (the 202 ack, ledger sync included). In a
    /// paced run they count from the task's due time.
    pub ack_ns: Vec<u64>,
    /// How late the paced generator sent each task.
    pub late_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub acked: Vec<TaskId>,
    pub text_bytes: u64,
    pub first_sent: Option<Instant>,
    /// The marker of the latest text written to each object.
    pub last_marker: HashMap<Oid, String>,
}

/// One write client: a connection and its lane of the update stream.
pub struct Writer<'a> {
    client: Client,
    stream: UpdateStream,
    tracker: &'a Tracker,
    /// Tasks acknowledged by all writers together.
    acked_total: &'a AtomicU64,
    /// Outstanding tasks allowed across all writers.
    window: u64,
    /// Tasks per second of an open-loop writer; `None` = closed loop.
    pace: Option<f64>,
    updates: u64,
    pub out: WriteOutcome,
}

impl<'a> Writer<'a> {
    pub fn connect(
        addr: SocketAddr,
        stream: UpdateStream,
        tracker: &'a Tracker,
        acked_total: &'a AtomicU64,
        window: u64,
        pace: Option<f64>,
    ) -> Writer<'a> {
        Writer {
            client: Client::connect(addr).expect("connect to the loopback server"),
            stream,
            tracker,
            acked_total,
            window,
            pace,
            updates: 0,
            out: WriteOutcome::default(),
        }
    }

    pub fn run(&mut self, until: Until) {
        let start = Instant::now();
        let mut issued = 0u64;
        loop {
            let due = self
                .pace
                .map(|rate| start + Duration::from_secs_f64(issued as f64 / rate));
            let stop = match until {
                Until::Clock(end) => due.unwrap_or_else(Instant::now) >= end,
                Until::Issued(n) => issued >= n,
            };
            if stop {
                break;
            }
            if let Some(due) = due {
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
            }
            self.tracker.wait(|finished| {
                self.acked_total
                    .load(Ordering::SeqCst)
                    .saturating_sub(finished)
                    < self.window
            });
            let kind = if self.updates > 0 && self.updates.is_multiple_of(FLUSH_EVERY) {
                self.updates += 1; // the flush takes this slot of the cycle
                TaskKind::Flush {
                    collection: COLLECTION.into(),
                }
            } else {
                self.updates += 1;
                let op = self.stream.next_op();
                self.out.text_bytes += op.text.len() as u64;
                self.out.last_marker.insert(op.oid, op.marker);
                TaskKind::UpdateText {
                    oid: op.oid,
                    text: op.text,
                    collections: vec![COLLECTION.into()],
                }
            };
            let sent = Instant::now();
            let result = self.client.enqueue(kind);
            let acked = Instant::now();
            issued += 1;
            self.out.attempted += 1;
            self.out.first_sent.get_or_insert(sent);
            match result {
                Ok(id) => {
                    self.acked_total.fetch_add(1, Ordering::SeqCst);
                    self.out.acked.push(id);
                    let from = due.unwrap_or(sent);
                    self.out.ack_ns.push((acked - from).as_nanos() as u64);
                    if let Some(due) = due {
                        self.out.late_ns.push((sent - due).as_nanos() as u64);
                    }
                }
                Err(err) => {
                    eprintln!("enqueue failed: {err}");
                    self.out.failed += 1;
                }
            }
        }
    }
}

/// After the last task finished: a sample of marker terms must each find
/// exactly the object that carries them. Returns `(looked up, wrong)`.
pub fn check_markers(addr: SocketAddr, outcomes: &[&WriteOutcome]) -> (u64, u64) {
    let mut finals: Vec<(&str, Oid)> = outcomes
        .iter()
        .flat_map(|out| out.last_marker.iter().map(|(oid, m)| (m.as_str(), *oid)))
        .collect();
    finals.sort();
    let step = (finals.len() / MARKER_SAMPLE).max(1);
    let mut client = Client::connect(addr).expect("connect to the loopback server");
    let (mut looked_up, mut wrong) = (0, 0);
    for &(marker, oid) in finals.iter().step_by(step).take(MARKER_SAMPLE) {
        looked_up += 1;
        let answer = client.call(&Request::IrsQuery {
            collection: COLLECTION.into(),
            query: marker.into(),
        });
        let found = matches!(&answer, Ok(Response::IrsResult { hits, .. })
            if hits.len() == 1 && hits[0].0 == oid);
        if !found {
            eprintln!("WRONG ANSWER: marker {marker} should find only {oid}, got {answer:?}");
            wrong += 1;
        }
    }
    (looked_up, wrong)
}

/// After the server shut down: reopen the ledger from disk and count the
/// acknowledged tasks it does not show as succeeded.
pub fn acked_lost(journal_dir: &Path, outcomes: &[&WriteOutcome]) -> u64 {
    let ledger = TaskQueue::open(Some(&tasks_ledger_path(journal_dir)), QUEUE_CAPACITY, 1)
        .expect("the task ledger reopens");
    let status: HashMap<TaskId, TaskStatus> = ledger
        .list_tasks(&TaskFilter::default())
        .into_iter()
        .map(|task| (task.id, task.status))
        .collect();
    outcomes
        .iter()
        .flat_map(|out| &out.acked)
        .filter(|id| status.get(id) != Some(&TaskStatus::Succeeded))
        .count() as u64
}
