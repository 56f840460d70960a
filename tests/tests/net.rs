//! Loopback integration tests for the TCP front-end: real sockets over
//! `serve::NetServer`, exercising multi-client traffic, wire-level
//! error statuses, graceful drain, and hostile bytes.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use coupling::tasks::{TaskKind, TaskStatus};
use coupling::{CollectionSetup, ErrorKind, MixedStrategy, SharedSystem};
use irs::FaultPlan;
use serve::wire::{self, FrameKind};
use serve::{Client, ClientError, NetServer, Request, Response, Server, ServerConfig, Status};
use system_tests::two_issue_system;

fn start_net(config: ServerConfig) -> NetServer {
    NetServer::bind(Server::start(two_issue_system(), config), "127.0.0.1:0")
        .expect("bind loopback")
}

/// Multi-client smoke over real sockets: concurrent queries from
/// several connections, a write through the wire, and the write's
/// visibility to subsequent reads.
#[test]
fn multi_client_query_and_write_over_the_wire() {
    let net = start_net(ServerConfig::default().read_workers(4).queue_capacity(64));
    let addr = net.local_addr();

    let clients = 5;
    let per_client = 6;
    std::thread::scope(|scope| {
        for c in 0..clients {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for i in 0..per_client {
                    if (c + i) % 2 == 0 {
                        let resp = client
                            .call(&Request::IrsQuery {
                                collection: "collPara".into(),
                                query: "telnet".into(),
                            })
                            .expect("query over the wire");
                        let Response::IrsResult { hits, .. } = resp else {
                            panic!("wrong response variant");
                        };
                        assert_eq!(hits.len(), 2, "both telnet paragraphs");
                    } else {
                        let resp = client
                            .call(&Request::MixedQuery {
                                collection: "collPara".into(),
                                class: "PARA".into(),
                                irs_query: "www".into(),
                                threshold: 0.45,
                                strategy: MixedStrategy::IrsFirst,
                            })
                            .expect("mixed query over the wire");
                        let Response::Mixed { oids, .. } = resp else {
                            panic!("wrong response variant");
                        };
                        assert_eq!(oids.len(), 2, "both www paragraphs");
                    }
                }
            });
        }
    });

    // A write through the wire: find a paragraph via a query response
    // (everything stays on the protocol — no in-process peeking).
    let mut client = Client::connect(addr).expect("connect");
    let resp = client
        .call(&Request::IrsQuery {
            collection: "collPara".into(),
            query: "telnet".into(),
        })
        .expect("query");
    let Response::IrsResult { hits, .. } = resp else {
        panic!("wrong response variant");
    };
    let oid = hits[0].0;
    let task = client
        .write_and_wait(
            TaskKind::UpdateText {
                oid,
                text: "zeppelin airships drift over the network".into(),
                collections: vec!["collPara".into()],
            },
            Duration::from_secs(10),
        )
        .expect("update task over the wire");
    assert_eq!(task.status, TaskStatus::Succeeded);
    let resp = client
        .call(&Request::IrsQuery {
            collection: "collPara".into(),
            query: "zeppelin".into(),
        })
        .expect("query sees the write");
    let Response::IrsResult { hits, .. } = resp else {
        panic!("wrong response variant");
    };
    assert_eq!(hits.len(), 1, "write visible through the wire");

    let snapshot = net.shutdown();
    // Queries + the enqueue itself, plus however many status polls the
    // wait needed — each is a completed request in its own right.
    let total = (clients * per_client + 3) as u64;
    assert!(
        snapshot.completed >= total,
        "expected at least {total} completed, got {}",
        snapshot.completed
    );
    assert_eq!(snapshot.failed, 0);
    assert_eq!(snapshot.tasks_succeeded, 1);
    assert_eq!(snapshot.tasks_failed, 0);
}

/// Typed errors cross the wire with the right status: an unknown
/// collection is a 404-analogue, a malformed query a 400-analogue, and
/// the client's `ErrorKind` mapping matches the in-process taxonomy.
#[test]
fn remote_errors_carry_wire_statuses() {
    let net = start_net(ServerConfig::default().read_workers(2));
    let mut client = Client::connect(net.local_addr()).expect("connect");

    let err = client
        .call(&Request::IrsQuery {
            collection: "ghost".into(),
            query: "telnet".into(),
        })
        .expect_err("unknown collection");
    assert_eq!(err.status(), Some(Status::NotFound));
    assert_eq!(err.kind(), ErrorKind::NotFound);

    let err = client
        .call(&Request::IrsQuery {
            collection: "collPara".into(),
            query: "#and(".into(),
        })
        .expect_err("unparsable query");
    assert_eq!(err.status(), Some(Status::BadRequest));
    assert_eq!(err.kind(), ErrorKind::Parse);

    // The connection survives typed errors: a good request still works.
    let resp = client
        .call(&Request::IrsQuery {
            collection: "collPara".into(),
            query: "telnet".into(),
        })
        .expect("connection still usable");
    assert!(matches!(resp, Response::IrsResult { .. }));
    net.shutdown();
}

/// Overload maps to the 429-analogue on the wire: with the workers
/// wedged behind the system write lock, excess concurrent client calls
/// are refused with `Status::Overloaded` instead of queueing.
#[test]
fn overload_maps_to_429_analogue() {
    let shared = SharedSystem::new(two_issue_system());
    let server = Server::start_shared(
        shared.clone(),
        ServerConfig::default().read_workers(2).queue_capacity(2),
    );
    let net = NetServer::bind(server, "127.0.0.1:0").expect("bind loopback");
    let addr = net.local_addr();
    let total = 8;

    // While the exclusive lock is held, workers block before touching a
    // collection: at most `workers + capacity` calls are admitted, the
    // rest must bounce with 429. The admitted calls cannot finish until
    // the lock clears, so the threads are joined only after `write`
    // returns.
    let handles: Vec<_> = shared.write(|_sys| {
        let handles: Vec<_> = (0..total)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    client.call(&Request::IrsQuery {
                        collection: "collPara".into(),
                        query: "telnet".into(),
                    })
                })
            })
            .collect();
        // Let every call reach admission control while the lock is
        // still held (rejected calls return even under the lock).
        std::thread::sleep(Duration::from_millis(300));
        handles
    });
    let outcomes: Vec<Result<Response, ClientError>> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();

    let mut ok = 0;
    let mut overloaded = 0;
    for outcome in outcomes {
        match outcome {
            Ok(_) => ok += 1,
            Err(err) => {
                assert_eq!(err.status(), Some(Status::Overloaded), "unexpected: {err}");
                assert_eq!(err.kind(), ErrorKind::Overloaded);
                overloaded += 1;
            }
        }
    }
    assert_eq!(ok + overloaded, total);
    assert!(
        overloaded >= 2,
        "overflow beyond queue+workers bounces ({overloaded})"
    );
    assert!(
        ok >= 2,
        "admitted requests complete once the lock clears ({ok})"
    );

    let snapshot = net.shutdown();
    assert_eq!(snapshot.rejected_overload, overloaded as u64);
}

/// Graceful drain: a request in flight when shutdown starts still gets
/// its response before the connection closes.
#[test]
fn shutdown_drains_live_connections() {
    let mut sys = two_issue_system();
    sys.create_collection("collSlow", CollectionSetup::default())
        .unwrap();
    sys.index_collection("collSlow", "ACCESS p FROM p IN PARA")
        .unwrap();
    // Every IRS call on the slow collection stalls, modelling a remote
    // IRS: the in-flight request is provably mid-execution at shutdown.
    sys.collection_mut("collSlow")
        .unwrap()
        .inject_faults(Some(Arc::new(
            FaultPlan::new(5).with_latency(Duration::from_millis(60)),
        )));
    let net = NetServer::bind(
        Server::start(sys, ServerConfig::default().read_workers(2)),
        "127.0.0.1:0",
    )
    .expect("bind loopback");
    let addr = net.local_addr();

    let in_flight = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client.call(&Request::IrsQuery {
            collection: "collSlow".into(),
            query: "telnet".into(),
        })
    });
    // Let the request reach a worker, then shut down underneath it.
    std::thread::sleep(Duration::from_millis(20));
    let snapshot = net.shutdown();

    let resp = in_flight
        .join()
        .unwrap()
        .expect("in-flight request drained, not dropped");
    let Response::IrsResult { hits, .. } = resp else {
        panic!("wrong response variant");
    };
    assert_eq!(hits.len(), 2);
    assert_eq!(snapshot.completed, 1);
    assert_eq!(snapshot.failed, 0);
}

/// Hostile bytes: malformed frames produce a 400-analogue error frame
/// or a clean close — never a panic or a hang — and the server keeps
/// serving well-formed clients afterwards.
#[test]
fn malformed_frames_answered_then_closed_never_panic() {
    let net = start_net(ServerConfig::default().read_workers(2));
    let addr = net.local_addr();

    let read_reply = |stream: &mut TcpStream| -> Option<wire::Frame> {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        wire::read_frame(stream).ok().flatten()
    };

    // Bad magic.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"JUNKJUNKJUNKJUNKJUNK").unwrap();
        let frame = read_reply(&mut s).expect("error frame");
        assert_eq!(frame.kind, FrameKind::Error);
        let fault = wire::decode_fault(&frame.payload).unwrap();
        assert_eq!(fault.status, Status::BadRequest);
    }

    // Valid header, corrupted payload (CRC mismatch).
    {
        let mut buf = Vec::new();
        wire::write_frame(
            &mut buf,
            FrameKind::Request,
            &wire::encode_request(&Request::IrsQuery {
                collection: "collPara".into(),
                query: "telnet".into(),
            }),
        )
        .unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0xff;
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&buf).unwrap();
        let frame = read_reply(&mut s).expect("error frame");
        let fault = wire::decode_fault(&frame.payload).unwrap();
        assert_eq!(fault.status, Status::BadRequest);
    }

    // Over-cap declared length: refused from the header alone.
    {
        let mut header = Vec::new();
        header.extend_from_slice(&wire::MAGIC);
        header.push(wire::VERSION);
        header.push(0); // request
        header.extend_from_slice(&u32::MAX.to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes());
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&header).unwrap();
        let frame = read_reply(&mut s).expect("error frame");
        let fault = wire::decode_fault(&frame.payload).unwrap();
        assert_eq!(fault.status, Status::BadRequest);
    }

    // Well-framed but undecodable payload (unknown request tag).
    {
        let mut buf = Vec::new();
        wire::write_frame(&mut buf, FrameKind::Request, &[250, 1, 2, 3]).unwrap();
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&buf).unwrap();
        let frame = read_reply(&mut s).expect("error frame");
        let fault = wire::decode_fault(&frame.payload).unwrap();
        assert_eq!(fault.status, Status::BadRequest);
    }

    // Truncated frame then close: the server just drops the connection.
    {
        let mut buf = Vec::new();
        wire::write_frame(
            &mut buf,
            FrameKind::Request,
            &wire::encode_request(&Request::IrsQuery {
                collection: "collPara".into(),
                query: "telnet".into(),
            }),
        )
        .unwrap();
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&buf[..buf.len() - 3]).unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut sink = Vec::new();
        let _ = s.read_to_end(&mut sink); // EOF or error frame, no hang
    }

    // After all that abuse, a healthy client still gets served.
    let mut client = Client::connect(addr).expect("connect");
    let resp = client
        .call(&Request::IrsQuery {
            collection: "collPara".into(),
            query: "telnet".into(),
        })
        .expect("server survived the fuzzing");
    assert!(matches!(resp, Response::IrsResult { .. }));
    net.shutdown();
}

/// A zero deadline configured as the server default is rejected at
/// admission with the 504-analogue, without burning a queue slot.
#[test]
fn pre_expired_deadline_rejected_at_admission() {
    let server = Server::start(
        two_issue_system(),
        ServerConfig::default()
            .read_workers(1)
            .default_deadline(Duration::ZERO),
    );
    let err = server
        .call(Request::IrsQuery {
            collection: "collPara".into(),
            query: "telnet".into(),
        })
        .expect_err("deadline was already expired at submit");
    assert_eq!(err.kind(), ErrorKind::Timeout);
    let snapshot = server.shutdown();
    assert_eq!(snapshot.deadline_timeouts, 1);
    assert_eq!(snapshot.submitted, 0, "never admitted to a queue");

    // And over the wire the same rejection is the 504-analogue.
    let net = NetServer::bind(
        Server::start(
            two_issue_system(),
            ServerConfig::default().default_deadline(Duration::ZERO),
        ),
        "127.0.0.1:0",
    )
    .expect("bind loopback");
    let mut client = Client::connect(net.local_addr()).expect("connect");
    let err = client
        .call(&Request::IrsQuery {
            collection: "collPara".into(),
            query: "telnet".into(),
        })
        .expect_err("504 over the wire");
    assert_eq!(err.status(), Some(Status::Timeout));
    assert_eq!(err.kind(), ErrorKind::Timeout);
    net.shutdown();
}

/// The execution-slot invariant across both ways a read can run: with
/// `read_workers(2)`, eight connections calling at once put exactly two
/// reads on their own connection threads (caller-runs) and queue the
/// other six for the pool, and whichever thread runs a read, never more
/// than two execute at any instant.
#[test]
fn callers_and_workers_share_the_read_slots() {
    let sys = two_issue_system();
    // Every IRS call stalls, so executing reads overlap for long enough
    // to be caught exceeding the limit if they could.
    sys.collection_mut("collPara")
        .unwrap()
        .inject_faults(Some(Arc::new(
            FaultPlan::new(9).with_latency(Duration::from_millis(2)),
        )));
    let shared = SharedSystem::new(sys);
    let server = Server::start_shared(
        shared.clone(),
        ServerConfig::default().read_workers(2).queue_capacity(64),
    );
    let net = NetServer::bind(server, "127.0.0.1:0").expect("bind loopback");
    let addr = net.local_addr();
    let (connections, per_connection) = (8u64, 4u64);

    // Under the exclusive system lock no read can finish, which pins the
    // first wave: two callers take the two slots and block inside their
    // read, the other six find no slot and queue.
    let handles: Vec<_> = shared.write(|_sys| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    for i in 0..per_connection {
                        // Unique texts: every call misses the buffer.
                        client
                            .call(&Request::IrsQuery {
                                collection: "collPara".into(),
                                query: format!("#or(telnet c{c}q{i})"),
                            })
                            .expect("admitted reads complete");
                    }
                })
            })
            .collect();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let m = net.metrics();
            if m.submitted == connections && m.reads_in_flight_max == 2 {
                assert_eq!((m.reads_inline, m.reads_queued), (2, connections - 2));
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "first wave never fully admitted: {m:?}"
            );
            std::thread::yield_now();
        }
        handles
    });
    for handle in handles {
        handle.join().expect("client thread");
    }

    let snapshot = net.shutdown();
    assert_eq!(snapshot.reads_in_flight_max, 2, "never above read_workers");
    assert_eq!(snapshot.submitted, connections * per_connection);
    assert_eq!(
        snapshot.reads_inline + snapshot.reads_queued,
        snapshot.submitted,
        "every admitted read ran exactly one way"
    );
    assert_eq!(snapshot.completed, snapshot.submitted);
    assert_eq!(
        snapshot.origin_fresh
            + snapshot.origin_buffered
            + snapshot.origin_stale
            + snapshot.origin_none,
        snapshot.completed
    );
}

/// A handler that panics on the connection thread (caller-runs) is
/// contained exactly like one on a pool worker: the client is answered,
/// the execution slot comes back, and the connection keeps serving.
#[test]
fn handler_panic_on_the_calling_thread_is_contained() {
    let sys = two_issue_system();
    let plan = Arc::new(FaultPlan::new(13));
    sys.collection_mut("collPara")
        .unwrap()
        .inject_faults(Some(Arc::clone(&plan)));
    // One slot: were it leaked by the unwinding caller, the follow-up
    // read could never execute.
    let net = NetServer::bind(
        Server::start(sys, ServerConfig::default().read_workers(1)),
        "127.0.0.1:0",
    )
    .expect("bind loopback");
    let mut client = Client::connect(net.local_addr()).expect("connect");
    let query = |text: &str| Request::IrsQuery {
        collection: "collPara".into(),
        query: text.into(),
    };

    plan.set_panicking(true);
    let err = client
        .call(&query("telnet"))
        .expect_err("the panicking read is answered, not dropped");
    assert_eq!(err.status(), Some(Status::ShuttingDown));
    plan.set_panicking(false);

    let resp = client
        .call(&query("telnet"))
        .expect("same connection, same thread, still serving");
    assert!(matches!(resp, Response::IrsResult { .. }));

    let snapshot = net.shutdown();
    assert_eq!((snapshot.failed, snapshot.completed), (1, 1));
    assert_eq!(
        (snapshot.reads_inline, snapshot.reads_queued),
        (2, 0),
        "a lone sequential client always finds the server idle"
    );
}
