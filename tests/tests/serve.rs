//! Integration tests for the concurrent request front-end: multi-client
//! smoke traffic, deterministic overload rejection with a bounded queue,
//! degraded serving during an IRS outage, and per-request deadlines.

use std::sync::Arc;
use std::time::Duration;

use coupling::tasks::{Task, TaskKind, TaskStatus};
use coupling::{CollectionSetup, ErrorKind, MixedStrategy, TaskId};
use irs::FaultPlan;
use serve::{Request, Response, Server, ServerConfig};
use system_tests::two_issue_system;

/// Poll the server's task queue handle (not the request path, so the
/// wait does not disturb the request counters) until `id` is terminal.
fn wait_terminal(server: &Server, id: TaskId) -> Task {
    let queue = server.tasks().expect("writable server has a task queue");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let task = queue.task_status(id).expect("known task");
        if task.status.is_terminal() {
            return task;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "task {id} never reached a terminal status"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Multi-client smoke: several threads issue read requests concurrently,
/// a write flows through the task scheduler, and shutdown drains cleanly.
#[test]
fn multi_client_smoke_reads_and_writes() {
    let server = Server::start(
        two_issue_system(),
        ServerConfig::default().read_workers(4).queue_capacity(64),
    );
    let clients = 6;
    let per_client = 8;

    std::thread::scope(|scope| {
        for c in 0..clients {
            let server = &server;
            scope.spawn(move || {
                for i in 0..per_client {
                    match (c + i) % 3 {
                        0 => {
                            let resp = server
                                .call(Request::IrsQuery {
                                    collection: "collPara".into(),
                                    query: "telnet".into(),
                                })
                                .expect("query succeeds");
                            let Response::IrsResult { hits, .. } = resp else {
                                panic!("wrong response variant");
                            };
                            assert_eq!(hits.len(), 2, "both telnet paragraphs");
                        }
                        1 => {
                            let resp = server
                                .call(Request::MixedQuery {
                                    collection: "collPara".into(),
                                    class: "PARA".into(),
                                    irs_query: "www".into(),
                                    threshold: 0.45,
                                    strategy: MixedStrategy::IrsFirst,
                                })
                                .expect("mixed query succeeds");
                            let Response::Mixed { oids, .. } = resp else {
                                panic!("wrong response variant");
                            };
                            assert_eq!(oids.len(), 2, "both www paragraphs");
                        }
                        _ => {
                            let resp = server
                                .call(Request::IrsQuery {
                                    collection: "collPara".into(),
                                    query: "nii".into(),
                                })
                                .expect("query succeeds");
                            let Response::IrsResult { hits, .. } = resp else {
                                panic!("wrong response variant");
                            };
                            assert_eq!(hits.len(), 1);
                        }
                    }
                }
            });
        }
    });

    // A write through the task scheduler: enqueue answers immediately
    // with a task id; once the task reaches a terminal status the
    // updated paragraph is searchable (eager propagation).
    let para = server.system().read(|sys| {
        sys.query("ACCESS p FROM p IN PARA").unwrap()[0]
            .oid()
            .unwrap()
    });
    let resp = server
        .call(Request::EnqueueTask {
            kind: TaskKind::UpdateText {
                oid: para,
                text: "zeppelin airships over the network".into(),
                collections: vec!["collPara".into()],
            },
        })
        .expect("enqueue succeeds");
    let Response::TaskAccepted(task_id) = resp else {
        panic!("wrong response variant");
    };
    let task = wait_terminal(&server, task_id);
    assert_eq!(task.status, TaskStatus::Succeeded);
    let resp = server
        .call(Request::IrsQuery {
            collection: "collPara".into(),
            query: "zeppelin".into(),
        })
        .expect("query succeeds");
    let Response::IrsResult { hits, .. } = resp else {
        panic!("wrong response variant");
    };
    assert_eq!(hits.len(), 1, "write visible to reads after completion");

    // The strategy field is a preference, not an order: two www
    // survivors against the whole PARA extent run IRS-first whatever
    // the caller asked for, and the response says so.
    let resp = server
        .call(Request::MixedQuery {
            collection: "collPara".into(),
            class: "PARA".into(),
            irs_query: "www".into(),
            threshold: 0.45,
            strategy: MixedStrategy::Independent,
        })
        .expect("mixed query succeeds");
    let Response::Mixed { oids, strategy, .. } = resp else {
        panic!("wrong response variant");
    };
    assert_eq!(oids.len(), 2, "both www paragraphs");
    assert_eq!(strategy, MixedStrategy::IrsFirst);

    let snapshot = server.shutdown();
    let total = (clients * per_client + 3) as u64;
    assert_eq!(snapshot.submitted, total);
    assert_eq!(snapshot.completed, total);
    assert_eq!(snapshot.failed, 0);
    assert_eq!(snapshot.rejected_overload, 0);
    // Every admitted read ran exactly one way (the write is the `- 1`),
    // and origins still account for every completion.
    assert_eq!(snapshot.reads_inline + snapshot.reads_queued, total - 1);
    assert!(
        snapshot.reads_in_flight_max <= 4,
        "never above read_workers"
    );
    assert_eq!(
        snapshot.origin_fresh
            + snapshot.origin_buffered
            + snapshot.origin_stale
            + snapshot.origin_none,
        snapshot.completed
    );
    let mixed = (0..clients)
        .flat_map(|c| (0..per_client).map(move |i| (c + i) % 3))
        .filter(|&kind| kind == 1)
        .count() as u64
        + 1;
    assert_eq!(snapshot.mixed_irs_first, mixed);
    assert_eq!(snapshot.mixed_independent, 0);
    assert_eq!(
        snapshot.mixed_overridden, 1,
        "only the last asked otherwise"
    );
}

/// Bounded-queue admission control: with the workers wedged behind the
/// system write lock, the read queue fills and further submissions are
/// rejected with `Overloaded` instead of queueing without bound.
#[test]
fn overload_rejects_instead_of_queueing() {
    let workers = 2usize;
    let capacity = 2usize;
    let server = Server::start(
        two_issue_system(),
        ServerConfig::default()
            .read_workers(workers)
            .queue_capacity(capacity),
    );

    let total = capacity + workers + 2;
    // Hold the exclusive system lock: any worker that dequeues a read
    // blocks before touching the collection, so at most `workers` jobs
    // leave the queue and at most `capacity` wait in it.
    let tickets = server.system().write(|_sys| {
        (0..total)
            .map(|_| {
                server.submit(Request::IrsQuery {
                    collection: "collPara".into(),
                    query: "telnet".into(),
                })
            })
            .collect::<Vec<_>>()
    });

    let mut ok = 0;
    let mut overloaded = 0;
    for t in tickets {
        match t.wait() {
            Ok(_) => ok += 1,
            Err(e) => {
                assert_eq!(e.kind(), ErrorKind::Overloaded, "unexpected error {e}");
                overloaded += 1;
            }
        }
    }
    assert_eq!(ok + overloaded, total);
    assert!(
        overloaded >= 2,
        "at least the overflow beyond queue+workers is rejected ({overloaded})"
    );
    assert!(ok >= capacity, "accepted requests complete ({ok})");

    let snapshot = server.shutdown();
    assert_eq!(snapshot.rejected_overload, overloaded as u64);
    assert_eq!(snapshot.completed, ok as u64);
}

/// Fault injection: an IRS outage on one collection surfaces as
/// `IrsDown` while requests against a healthy collection keep working.
#[test]
fn irs_outage_fails_one_collection_not_the_server() {
    let mut sys = two_issue_system();
    sys.create_collection("collDown", CollectionSetup::default())
        .unwrap();
    sys.index_collection("collDown", "ACCESS p FROM p IN PARA")
        .unwrap();
    {
        let mut coll = sys.collection_mut("collDown").unwrap();
        let plan = Arc::new(FaultPlan::new(11));
        plan.set_down(true);
        coll.inject_faults(Some(plan));
    }

    let server = Server::start(sys, ServerConfig::default().read_workers(2));
    // Never-buffered query on the dead collection: no stale copy exists,
    // so the outage surfaces as a typed transient error.
    let err = server
        .call(Request::IrsQuery {
            collection: "collDown".into(),
            query: "telnet".into(),
        })
        .expect_err("outage surfaces");
    assert_eq!(err.kind(), ErrorKind::IrsDown);

    // The healthy collection is unaffected.
    let resp = server
        .call(Request::IrsQuery {
            collection: "collPara".into(),
            query: "telnet".into(),
        })
        .expect("healthy collection serves");
    let Response::IrsResult { hits, .. } = resp else {
        panic!("wrong response variant");
    };
    assert_eq!(hits.len(), 2);

    let snapshot = server.shutdown();
    assert_eq!(snapshot.failed, 1);
    assert_eq!(snapshot.completed, 1);
}

/// Per-request deadlines: a request that waits in the queue past its
/// deadline is answered with `Timeout` instead of being executed late.
#[test]
fn expired_deadline_yields_timeout() {
    let sys = two_issue_system();
    {
        // Make the single worker slow: every IRS op sleeps, modeling a
        // remote IRS, so a queued request provably outwaits its deadline.
        let mut coll = sys.collection_mut("collPara").unwrap();
        coll.inject_faults(Some(Arc::new(
            FaultPlan::new(3).with_latency(Duration::from_millis(40)),
        )));
    }
    let server = Server::start(
        sys,
        ServerConfig::default().read_workers(1).queue_capacity(8),
    );

    // Occupy the only worker, then queue a request with a deadline far
    // below the time it will spend waiting.
    let slow = server.submit(Request::IrsQuery {
        collection: "collPara".into(),
        query: "telnet".into(),
    });
    let doomed = server.submit_with_deadline(
        Request::IrsQuery {
            collection: "collPara".into(),
            query: "www".into(),
        },
        Duration::from_millis(1),
    );
    assert!(slow.wait().is_ok(), "slow request still completes");
    let err = doomed.wait().expect_err("deadline expired in queue");
    assert_eq!(err.kind(), ErrorKind::Timeout);

    let snapshot = server.shutdown();
    assert_eq!(snapshot.deadline_timeouts, 1);
}
