//! Integration tests for the durable update-task queue: batching proof
//! at the serving layer, crash-replay convergence over the journaled
//! ledger, torn-ledger robustness, event observability through a
//! server, and back-compatibility of the deprecated synchronous write
//! shapes.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use proptest::prelude::*;

use coupling::tasks::{
    Scheduler, SchedulerConfig, TaskEvent, TaskExecutor, TaskFilter, TaskKind, TaskQueue,
    TaskStatus, TaskStatusKind,
};
use coupling::SharedSystem;
use oodb::Oid;
use serve::{Request, Response, Server, ServerConfig};
use system_tests::two_issue_system;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("coupling-tasks-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

fn para_oids(shared: &SharedSystem) -> Vec<Oid> {
    shared.read(|sys| {
        sys.query("ACCESS p FROM p IN PARA")
            .expect("paras")
            .iter()
            .map(|row| row.oid().expect("oid row"))
            .collect()
    })
}

/// Deterministic fingerprint of the searchable state: ranked results
/// for a fixed probe vocabulary. Two systems that answer identically
/// here have converged as far as the coupling is observable.
fn probe(shared: &SharedSystem) -> Vec<(String, Vec<(Oid, f64)>)> {
    const TERMS: &[&str] = &["telnet", "www", "nii", "login", "alpha", "gamma", "epsilon"];
    shared.read(|sys| {
        TERMS
            .iter()
            .map(|term| {
                let coll = sys.collection("collPara").expect("collPara");
                let (map, _) = coll.get_irs_result_with_origin(term).expect("probe query");
                let mut hits: Vec<(Oid, f64)> = map.into_iter().collect();
                hits.sort_by_key(|hit| hit.0);
                (term.to_string(), hits)
            })
            .collect()
    })
}

/// One mutation in the randomized op scripts below.
#[derive(Debug, Clone)]
enum Op {
    Update { para: usize, text: usize },
    Index,
    Flush,
}

const TEXTS: &[&str] = &[
    "alpha particles in the telnet stream",
    "gamma rays over the www backbone",
    "epsilon bounds for interactive login",
    "plain replacement paragraph",
];

fn op_kind(op: &Op, paras: &[Oid]) -> TaskKind {
    match op {
        Op::Update { para, text } => TaskKind::UpdateText {
            oid: paras[para % paras.len()],
            text: TEXTS[text % TEXTS.len()].to_string(),
            collections: vec!["collPara".into()],
        },
        Op::Index => TaskKind::IndexObjects {
            collection: "collPara".into(),
            spec_query: "ACCESS p FROM p IN PARA".into(),
        },
        Op::Flush => TaskKind::Flush {
            collection: "collPara".into(),
        },
    }
}

fn ops_strategy() -> BoxedStrategy<Vec<Op>> {
    let op = prop_oneof![
        (any::<u64>(), any::<u64>()).prop_map(|(p, t)| Op::Update {
            para: p as usize % 4,
            text: t as usize % TEXTS.len(),
        }),
        Just(Op::Index),
        Just(Op::Flush),
    ];
    prop::collection::vec(op.boxed(), 1..10).boxed()
}

fn executor_over(shared: &SharedSystem, queue: &TaskQueue) -> TaskExecutor {
    let config = SchedulerConfig::builder().batch_max(4).build();
    TaskExecutor::new(shared.clone(), queue.clone(), config)
}

/// Run every op to completion on a fresh system and return the probe —
/// the reference state crash-replay runs must converge to.
fn baseline(ops: &[Op]) -> Vec<(String, Vec<(Oid, f64)>)> {
    let shared = SharedSystem::new(two_issue_system());
    let paras = para_oids(&shared);
    let queue = TaskQueue::open(None, 1024, 16).expect("in-memory queue");
    for op in ops {
        queue.enqueue(op_kind(op, &paras)).expect("enqueue");
    }
    let mut executor = executor_over(&shared, &queue);
    executor.drain();
    executor.flush_propagation();
    probe(&shared)
}

fn ledger_len(ledger: &Path) -> usize {
    std::fs::metadata(ledger).expect("ledger exists").len() as usize
}

/// Cut the ledger at a point chosen by `cut` between byte `from` and its
/// end — what a crash between writes and their sync can leave when every
/// byte before `from` was synced. Returns the length kept.
fn lose_unsynced_tail(ledger: &Path, from: usize, cut: u16) -> usize {
    let bytes = std::fs::read(ledger).expect("read ledger");
    let kept = from + cut as usize % (bytes.len() - from + 1);
    std::fs::write(ledger, &bytes[..kept]).expect("write torn ledger");
    kept
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crash-replay idempotence: execute an arbitrary prefix of the
    /// journaled queue, "crash" (drop queue and executor) between a
    /// write and its sync — losing an arbitrary tail of the records
    /// written after the last acknowledged `Enqueued` — reopen the
    /// ledger, and drain the rest. The surviving system must converge
    /// to exactly the state of an uninterrupted run, every task must
    /// reach `Succeeded`, and interrupted tasks must have reverted to
    /// the queue rather than being lost.
    #[test]
    fn crash_replay_converges(ops in ops_strategy(), cut in any::<u16>(), lost in any::<u16>()) {
        let expected = baseline(&ops);

        let dir = tmp_dir("replay");
        let ledger = dir.join("tasks.ledger");
        let shared = SharedSystem::new(two_issue_system());
        let paras = para_oids(&shared);

        let queue = TaskQueue::open(Some(&ledger), 1024, 16).expect("journaled queue");
        for op in &ops {
            queue.enqueue(op_kind(op, &paras)).expect("enqueue");
        }
        let acked_end = ledger_len(&ledger);
        let steps = cut as usize % (ops.len() + 1);
        let mut executor = executor_over(&shared, &queue);
        for _ in 0..steps {
            executor.step();
        }
        // Crash: the queue and executor vanish mid-drain; only the
        // ledger file and the document system survive.
        drop(executor);
        drop(queue);
        lose_unsynced_tail(&ledger, acked_end, lost);

        let queue = TaskQueue::open(Some(&ledger), 1024, 16).expect("reopen ledger");
        let reopened = queue.list_tasks(&TaskFilter::default());
        prop_assert_eq!(reopened.len(), ops.len(), "no task lost across the crash");
        prop_assert!(
            reopened
                .iter()
                .all(|t| t.status.kind() != TaskStatusKind::Processing),
            "interrupted tasks revert to Enqueued on replay"
        );
        let mut executor = executor_over(&shared, &queue);
        executor.drain();
        executor.flush_propagation();

        let done = queue.list_tasks(&TaskFilter::default());
        prop_assert!(
            done.iter().all(|t| t.status == TaskStatus::Succeeded),
            "every task terminal after the second drain: {done:?}"
        );
        prop_assert_eq!(probe(&shared), expected, "replayed state matches uninterrupted run");

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A torn ledger tail — the file cut at an arbitrary byte — must
    /// never panic on reopen, and whatever tasks survive must still
    /// drain to terminal states. With `unsynced_only` the cut falls past
    /// the last acknowledged `Enqueued`, as a crash between a write and
    /// its sync leaves it, and then every acknowledged task replays.
    #[test]
    fn torn_ledger_never_panics(
        ops in ops_strategy(),
        cut in any::<u16>(),
        unsynced_only in any::<bool>(),
    ) {
        let dir = tmp_dir("torn");
        let ledger = dir.join("tasks.ledger");
        let shared = SharedSystem::new(two_issue_system());
        let paras = para_oids(&shared);
        let acked_end = {
            let queue = TaskQueue::open(Some(&ledger), 1024, 16).expect("journaled queue");
            for op in &ops {
                queue.enqueue(op_kind(op, &paras)).expect("enqueue");
            }
            let acked_end = ledger_len(&ledger);
            let mut executor = executor_over(&shared, &queue);
            executor.drain();
            acked_end
        };
        let from = if unsynced_only { acked_end } else { 0 };
        let kept = lose_unsynced_tail(&ledger, from, cut);

        let queue = TaskQueue::open(Some(&ledger), 1024, 16).expect("torn tail truncates, not panics");
        if kept >= acked_end {
            prop_assert_eq!(
                queue.list_tasks(&TaskFilter::default()).len(),
                ops.len(),
                "every acknowledged task replays"
            );
        }
        let mut executor = executor_over(&shared, &queue);
        executor.drain();
        prop_assert!(
            queue
                .list_tasks(&TaskFilter::default())
                .iter()
                .all(|t| t.status.is_terminal()),
            "surviving tasks drain to terminal states"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The acceptance-level batching proof at the queue API: adjacent
/// identical `indexObjects` tasks claimed as one batch share one batch
/// id and count as merged executions saved.
#[test]
fn merged_tasks_share_batch_ids() {
    let shared = SharedSystem::new(two_issue_system());
    let queue = TaskQueue::open(None, 1024, 16).expect("queue");
    let kind = TaskKind::IndexObjects {
        collection: "collPara".into(),
        spec_query: "ACCESS p FROM p IN PARA".into(),
    };
    let ids: Vec<_> = (0..5)
        .map(|_| queue.enqueue(kind.clone()).expect("enqueue"))
        .collect();
    let mut executor = TaskExecutor::new(
        shared.clone(),
        queue.clone(),
        SchedulerConfig::builder().batch_max(8).build(),
    );
    assert!(executor.step(), "one step claims the whole run");
    let tasks: Vec<_> = ids
        .iter()
        .map(|id| queue.task_status(*id).expect("known"))
        .collect();
    assert!(
        tasks.iter().all(|t| t.status == TaskStatus::Succeeded),
        "all merged tasks succeeded: {tasks:?}"
    );
    let batch = tasks[0].batch_id.expect("executed tasks carry a batch id");
    assert!(
        tasks.iter().all(|t| t.batch_id == Some(batch)),
        "merged tasks share one batch id: {tasks:?}"
    );
    let stats = queue.stats();
    assert_eq!(stats.batches, 1, "one execution for five tasks");
    assert_eq!(stats.merged, 4, "four executions saved by merging");
}

/// Task lifecycle events are observable through a running server: an
/// enqueued write surfaces Enqueued → Started/Batched → Finished on a
/// subscription opened before the write.
#[test]
fn server_emits_task_events() {
    let server = Server::start(two_issue_system(), ServerConfig::default().read_workers(2));
    let events = server.tasks().expect("writable server").subscribe();
    let resp = server
        .call(Request::EnqueueTask {
            kind: TaskKind::Flush {
                collection: "collPara".into(),
            },
        })
        .expect("enqueue");
    let Response::TaskAccepted(id) = resp else {
        panic!("wrong response variant");
    };
    let mut seen = Vec::new();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while std::time::Instant::now() < deadline {
        if let Some(event) = events.recv_timeout(Duration::from_millis(100)) {
            let finished = matches!(&event, TaskEvent::Finished { id: fid, .. } if *fid == id);
            seen.push(event);
            if finished {
                break;
            }
        }
    }
    assert!(
        seen.contains(&TaskEvent::Enqueued(id)),
        "enqueue observed: {seen:?}"
    );
    assert!(
        seen.contains(&TaskEvent::Started(id)),
        "start observed: {seen:?}"
    );
    assert!(
        seen.iter()
            .any(|e| matches!(e, TaskEvent::Finished { id: fid, ok: true } if *fid == id)),
        "successful finish observed: {seen:?}"
    );
    server.shutdown();
}

/// A journaled server remembers its tasks across a restart: the ledger
/// under `journal_dir` reloads with the terminal statuses intact.
#[test]
fn server_ledger_survives_restart() {
    let dir = tmp_dir("restart");
    let config = || {
        ServerConfig::builder()
            .read_workers(2)
            .journal_dir(&dir)
            .build()
    };
    let id = {
        let server = Server::start(two_issue_system(), config());
        let Response::TaskAccepted(id) = server
            .call(Request::EnqueueTask {
                kind: TaskKind::IndexObjects {
                    collection: "collPara".into(),
                    spec_query: "ACCESS p FROM p IN PARA".into(),
                },
            })
            .expect("enqueue")
        else {
            panic!("wrong response variant");
        };
        server.shutdown();
        id
    };
    let server = Server::start(two_issue_system(), config());
    let resp = server
        .call(Request::TaskStatus { id })
        .expect("restarted server still knows the task");
    let Response::TaskInfo(task) = resp else {
        panic!("wrong response variant");
    };
    assert_eq!(
        task.status,
        TaskStatus::Succeeded,
        "shutdown drained the task before the restart"
    );
    let resp = server
        .call(Request::ListTasks {
            filter: TaskFilter {
                status: Some(TaskStatusKind::Succeeded),
                collection: Some("collPara".into()),
            },
        })
        .expect("list");
    let Response::TaskList(list) = resp else {
        panic!("wrong response variant");
    };
    assert!(list.iter().any(|t| t.id == id), "filtered listing finds it");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: a journaled scheduler must create the `collections/`
/// journal subdirectory itself. The first UpdateText against a fresh
/// `journal_dir` used to fail with ENOENT because only the directory
/// root existed when the propagator opened its journal.
#[test]
fn journaled_update_creates_collections_dir() {
    let dir = tmp_dir("propagation-dir");
    let server = Server::start(
        two_issue_system(),
        ServerConfig::builder()
            .read_workers(2)
            .journal_dir(&dir)
            .build(),
    );
    let shared = server.system().clone();
    let para = para_oids(&shared)[0];
    let Response::TaskAccepted(id) = server
        .call(Request::EnqueueTask {
            kind: TaskKind::UpdateText {
                oid: para,
                text: "obsidian shards in the journal".into(),
                collections: vec!["collPara".into()],
            },
        })
        .expect("enqueue")
    else {
        panic!("wrong response variant");
    };
    let queue = server.tasks().expect("writable server");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let task = queue.task_status(id).expect("known task");
        if task.status.is_terminal() {
            assert_eq!(
                task.status,
                TaskStatus::Succeeded,
                "journaled update succeeds on a fresh journal_dir"
            );
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "task did not finish in time"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    server.shutdown();
    assert!(
        dir.join("collections").join("collPara.journal").exists(),
        "propagation journal written under the auto-created subdirectory"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The deprecated synchronous write shapes still work end to end: they
/// ride the task queue but block until execution and answer with the
/// legacy response variants.
#[test]
#[allow(deprecated)]
fn deprecated_write_shapes_still_block_and_answer() {
    let server = Server::start(two_issue_system(), ServerConfig::default().read_workers(2));
    let shared = server.system().clone();
    let para = para_oids(&shared)[0];
    let resp = server
        .call(Request::UpdateText {
            oid: para,
            text: "quartz crystals resonate".into(),
            collections: vec!["collPara".into()],
        })
        .expect("legacy update");
    assert_eq!(resp, Response::Updated { collections: 1 });
    let resp = server
        .call(Request::IndexObjects {
            collection: "collPara".into(),
            spec_query: "ACCESS p FROM p IN PARA".into(),
        })
        .expect("legacy index");
    assert!(matches!(resp, Response::Indexed { objects } if objects == 4));
    // Blocking semantics: the update is visible immediately after the
    // call returns, with no explicit wait.
    let resp = server
        .call(Request::IrsQuery {
            collection: "collPara".into(),
            query: "quartz".into(),
        })
        .expect("query");
    let Response::IrsResult { hits, .. } = resp else {
        panic!("wrong response variant");
    };
    assert_eq!(hits.len(), 1, "legacy write visible synchronously");
    let snapshot = server.shutdown();
    assert_eq!(snapshot.tasks_failed, 0);
    assert!(snapshot.tasks_succeeded >= 2, "both writes became tasks");
}

/// Blocking writes racing a busy executor: a task becomes claimable only
/// after its waiter, depth and `Enqueued` event are in place, so however
/// fast the executor finishes it, every blocking caller is answered,
/// each task's events arrive as `Enqueued` < `Started` < `Finished`, and
/// the depth gauge never wraps below zero.
#[test]
fn blocking_writes_against_a_busy_executor_resolve_in_order() {
    const WRITERS: usize = 4;
    const EACH: usize = 50;
    const CAPACITY: usize = 64;
    const FLUSHES: usize = 400;
    let dir = tmp_dir("blocking-stress");
    let shared = SharedSystem::new(two_issue_system());
    let paras = para_oids(&shared);
    let config = SchedulerConfig::builder()
        .queue_capacity(CAPACITY)
        .journal_dir(&dir)
        .event_capacity(1 << 16)
        .build();
    let scheduler = Scheduler::start(shared, config).expect("scheduler starts");
    let queue = scheduler.queue().clone();
    let events = queue.subscribe();
    let max_depth = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);

    let written: Vec<u64> = std::thread::scope(|scope| {
        // Keeps the executor busy with a stream of cheap flush tasks.
        scope.spawn(|| {
            let mut sent = 0;
            while sent < FLUSHES && !stop.load(Ordering::SeqCst) {
                if queue.depth() < 16 {
                    let flush = TaskKind::Flush {
                        collection: "collPara".into(),
                    };
                    if queue.enqueue(flush).is_ok() {
                        sent += 1;
                    }
                } else {
                    std::thread::yield_now();
                }
            }
        });
        scope.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                max_depth.fetch_max(queue.depth(), Ordering::SeqCst);
                std::thread::yield_now();
            }
        });
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (queue, paras) = (&queue, &paras);
                scope.spawn(move || {
                    let mut ids = Vec::with_capacity(EACH);
                    for i in 0..EACH {
                        let (tx, rx) = mpsc::channel();
                        let kind = TaskKind::UpdateText {
                            oid: paras[(w + i) % paras.len()],
                            text: format!("stress writer {w} round {i}"),
                            collections: vec!["collPara".into()],
                        };
                        let waiter = Box::new(move |result: coupling::Result<u64>| {
                            let _ = tx.send(result.map_err(|e| e.to_string()));
                        });
                        let id = queue.enqueue_with_waiter(kind, waiter).expect("admitted");
                        let outcome = rx
                            .recv_timeout(Duration::from_secs(30))
                            .expect("a blocking write was never answered");
                        assert_eq!(outcome, Ok(1), "task {id}");
                        ids.push(id);
                    }
                    ids
                })
            })
            .collect();
        let joined: Vec<_> = writers.into_iter().map(|w| w.join()).collect();
        stop.store(true, Ordering::SeqCst);
        joined
            .into_iter()
            .flat_map(|ids| ids.expect("writer thread"))
            .collect()
    });
    scheduler.shutdown();

    assert!(
        max_depth.load(Ordering::SeqCst) <= CAPACITY,
        "depth {} exceeded capacity {CAPACITY}",
        max_depth.load(Ordering::SeqCst)
    );
    assert_eq!(events.missed(), 0, "the event buffer held every event");
    let mut seen: std::collections::HashMap<u64, Vec<&'static str>> = Default::default();
    while let Some(event) = events.try_recv() {
        let (id, what) = match event {
            TaskEvent::Enqueued(id) => (id, "enqueued"),
            TaskEvent::Started(id) => (id, "started"),
            TaskEvent::Finished { id, ok } => {
                assert!(ok, "task {id} failed");
                (id, "finished")
            }
            TaskEvent::Batched { .. } => continue,
        };
        seen.entry(id).or_default().push(what);
    }
    assert_eq!(written.len(), WRITERS * EACH);
    for (id, order) in &seen {
        assert_eq!(order, &["enqueued", "started", "finished"], "task {id}");
    }
    for id in &written {
        assert!(seen.contains_key(id), "no events for task {id}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
