//! Closed-loop read clients: one TCP connection per thread, the next
//! request sent only after the previous answer arrived.

use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::Instant;

use coupling::{MixedStrategy, ResultOrigin, SharedSystem};
use serve::{Client, Response};

use crate::check::Checker;
use crate::env::Window;
use crate::stream::{mixed_request, ReadKind, ReadOp, ReadStream};

/// The op source the client threads share (they pull from it under a
/// mutex, so the no-repeat window holds across clients).
pub struct ReadSource {
    stream: ReadStream,
    /// Ops to hand out in a counted run; `None` when the clock decides.
    budget: Option<u64>,
}

impl ReadSource {
    pub fn new(stream: ReadStream, window: Window) -> Mutex<ReadSource> {
        let budget = match window {
            Window::Clock { .. } => None,
            Window::Ops { total, .. } => Some(total),
        };
        Mutex::new(ReadSource { stream, budget })
    }

    fn next(&mut self) -> Option<ReadOp> {
        if let Some(left) = &mut self.budget {
            *left = left.checked_sub(1)?;
        }
        Some(self.stream.next_op())
    }

    /// The op after the measured ones, for the verification pass.
    pub fn next_to_verify(&mut self) -> ReadOp {
        self.stream.next_op()
    }
}

#[derive(Debug, Default)]
pub struct ReadOutcome {
    pub latencies_ns: Vec<u64>,
    /// Every request sent, warm-up requests included.
    pub attempted: u64,
    /// Errors and refusals.
    pub failed: u64,
    pub fresh: u64,
    pub buffered: u64,
    pub stale: u64,
    first_measured: Option<Instant>,
    last_measured: Option<Instant>,
}

impl ReadOutcome {
    fn merge(&mut self, other: ReadOutcome) {
        self.latencies_ns.extend(other.latencies_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.fresh += other.fresh;
        self.buffered += other.buffered;
        self.stale += other.stale;
        self.first_measured = match (self.first_measured, other.first_measured) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last_measured = self.last_measured.max(other.last_measured);
    }

    /// The measured window: the fixed one of a timed run,
    /// first-send-to-last-answer of a counted one.
    pub fn measured(&self, window: Window) -> (Instant, Instant) {
        match (window, self.first_measured, self.last_measured) {
            (Window::Clock { start, end }, _, _) => (start, end),
            (Window::Ops { .. }, Some(first), Some(last)) => (first, last),
            _ => panic!("no op was measured"),
        }
    }

    pub fn buffer_hit_ratio(&self) -> f64 {
        let answered = self.fresh + self.buffered + self.stale;
        if answered == 0 {
            0.0
        } else {
            self.buffered as f64 / answered as f64
        }
    }
}

/// Run `clients` closed-loop client threads until the window is over.
/// `connect` makes a thread's connection; `call` sends one op on it and
/// says where the answer came from, or why it failed.
pub fn closed_loop<C>(
    clients: usize,
    window: Window,
    source: &Mutex<ReadSource>,
    connect: impl Fn() -> C + Sync,
    call: impl Fn(&mut C, &ReadOp) -> Result<ResultOrigin, String> + Sync,
) -> ReadOutcome {
    let client = || {
        let mut connection = connect();
        let mut out = ReadOutcome::default();
        while !window.is_over() {
            let Some(op) = source.lock().expect("op source lock").next() else {
                break;
            };
            let sent = Instant::now();
            let result = call(&mut connection, &op);
            let answered = Instant::now();
            out.attempted += 1;
            match result {
                Ok(ResultOrigin::Fresh) => out.fresh += 1,
                Ok(ResultOrigin::Buffered) => out.buffered += 1,
                Ok(ResultOrigin::Stale) => out.stale += 1,
                Err(why) => {
                    eprintln!("op {} ({:?}) failed: {why}", op.index, op.query);
                    out.failed += 1;
                    continue;
                }
            }
            if window.measures(op.index, sent, answered) {
                out.latencies_ns.push((answered - sent).as_nanos() as u64);
                out.first_measured.get_or_insert(sent);
                out.last_measured = Some(answered);
            }
        }
        out
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients).map(|_| scope.spawn(client)).collect();
        let mut total = ReadOutcome::default();
        for handle in handles {
            total.merge(handle.join().expect("client thread"));
        }
        total
    })
}

/// [`closed_loop`] over TCP: one `Client` connection per thread.
pub fn run_readers(
    addr: SocketAddr,
    clients: usize,
    window: Window,
    source: &Mutex<ReadSource>,
) -> ReadOutcome {
    closed_loop(
        clients,
        window,
        source,
        || Client::connect(addr).expect("connect to the loopback server"),
        |client, op| match client.call(&op.request()) {
            Ok(Response::IrsResult { origin, .. } | Response::Mixed { origin, .. }) => Ok(origin),
            Ok(other) => Err(format!("unexpected {other:?}")),
            Err(err) => Err(err.to_string()),
        },
    )
}

/// The verification pass, after the measured window and with no write in
/// flight, so that checking costs the measured ops nothing: the next
/// `ops` ops of the stream, each answer compared bit for bit with the
/// reference, and each mixed query also asked under the other §4.5.3
/// strategy, which must name the same objects. Returns `(requests
/// sent, wrong or failed)`.
pub fn verify_reads(
    addr: SocketAddr,
    shared: &SharedSystem,
    checker: &Checker,
    source: &Mutex<ReadSource>,
    ops: u64,
) -> (u64, u64) {
    let mut client = Client::connect(addr).expect("connect to the loopback server");
    let (mut sent, mut wrong) = (0, 0);
    for _ in 0..ops {
        let op = source.lock().expect("op source lock").next_to_verify();
        sent += 1;
        let verdict = client
            .call(&op.request())
            .map_err(|err| err.to_string())
            .and_then(|response| {
                shared.read(|sys| checker.check_read(sys, &op, &response))?;
                let (ReadKind::Mixed(strategy), Response::Mixed { oids, .. }) =
                    (op.kind, &response)
                else {
                    return Ok(());
                };
                let other = match strategy {
                    MixedStrategy::Independent => MixedStrategy::IrsFirst,
                    MixedStrategy::IrsFirst => MixedStrategy::Independent,
                };
                sent += 1;
                match client.call(&mixed_request(&op.query, other)) {
                    Ok(Response::Mixed { oids: theirs, .. }) if theirs == *oids => Ok(()),
                    twin => Err(format!("the other mixed strategy answered {twin:?}")),
                }
            });
        if let Err(why) = verdict {
            eprintln!("WRONG ANSWER: read op {} ({:?}): {why}", op.index, op.query);
            wrong += 1;
        }
    }
    (sent, wrong)
}
