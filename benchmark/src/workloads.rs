//! The five workloads, measured with tracing off.

use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

use coupling::{
    open_system, save_system, DocumentSystem, PartitionConfig, PartitionedIrs, ResultOrigin,
    SharedSystem,
};
use serve::{NetServer, ReplicaServer, Server, ServerConfig, WireTransport};

use crate::check::{same_hits, Checker};
use crate::corpus::{build_system, para_oids, repeat_setup, RESULT_LIMIT};
use crate::env::{dir_bytes, Env, Plan, Window};
use crate::reads::{closed_loop, run_readers, verify_reads, ReadOutcome, ReadSource};
use crate::record::Metric;
use crate::stats::Latencies;
use crate::stream::{ReadMode, ReadStream, UpdateStream, COLLECTION};
use crate::writes::{
    acked_lost, check_markers, Tracker, Until, WriteOutcome, Writer, OUTSTANDING_PER_CLIENT,
    QUEUE_CAPACITY,
};

/// Client threads, one TCP connection each; `nproc` is 2 on the box the
/// benchmark was sized on.
pub const CLIENTS: usize = 2;
/// `read-write` sends this many update tasks per second, open loop.
const PACED_WRITES_PER_S: f64 = 200.0;
const PARTITIONS: usize = 2;
const REPLICAS_PER_PARTITION: usize = 2;

pub const WORKLOADS: [&str; 5] = ["read-cold", "read-hot", "ingest", "read-write", "scatter"];

/// What one untraced run reports.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

pub fn run(workload: &str, env: &Env) -> Outcome {
    match workload {
        "read-cold" => reads(workload, env, ReadMode::Cold),
        "read-hot" => reads(workload, env, ReadMode::Hot),
        "ingest" => ingest(env),
        "read-write" => read_write(env),
        "scatter" => scatter(env),
        other => unreachable!("workload {other:?} was validated by the command line"),
    }
}

pub fn read_server_config() -> ServerConfig {
    ServerConfig::builder().read_workers(CLIENTS).build()
}

/// Default `SyncPolicy` (`Immediate`: one `sync_data` per ledger or
/// journal append) and default propagation (`Eager`).
pub fn write_server_config(journal_dir: &Path) -> ServerConfig {
    ServerConfig::builder()
        .read_workers(CLIENTS)
        .queue_capacity(QUEUE_CAPACITY)
        .journal_dir(journal_dir)
        .build()
}

/// The four numbers every workload reports, plus the diagnostics beside
/// them: `completed` ops in the measured window `[start, end]`, and the
/// latencies of the ops answered inside it.
fn end_to_end(
    what: &str,
    latencies_ns: &[u64],
    completed: u64,
    (start, end): (Instant, Instant),
    setup_s: Metric,
) -> Vec<Metric> {
    let latencies = Latencies::from_nanos(latencies_ns.iter().copied());
    println!("{what} latency: {}", latencies.describe());
    let n = latencies.len() as u64;
    let wall_s = (end - start).as_secs_f64();
    vec![
        Metric::new("ops_per_s", "1/s", completed as f64 / wall_s, completed),
        Metric::new("p50_us", "us", latencies.at(0.5), n),
        Metric::new("p90_us", "us", latencies.at(0.9), n),
        setup_s,
    ]
}

fn print_failed_frac(attempted: u64, failed: u64) {
    println!(
        "failed_frac = {} ({failed} of {attempted} attempted)",
        failed as f64 / attempted.max(1) as f64
    );
}

// ---------------------------------------------------------------------
// read-cold, read-hot
// ---------------------------------------------------------------------

fn reads(workload: &str, env: &Env, mode: ReadMode) -> Outcome {
    let (sys, setup_s) = repeat_setup(env.setup_reps, || build_system(env.seed, env.docs), drop);
    let shared = SharedSystem::new(sys);
    let net = NetServer::bind(
        Server::start_shared(shared.clone(), read_server_config()),
        "127.0.0.1:0",
    )
    .expect("bind a loopback port");

    let checker = Checker::new(env.corrupt_reference);
    let window = env.plan.window(Instant::now());
    let source = ReadSource::new(ReadStream::new(env.seed, mode), window);
    let out = run_readers(net.local_addr(), CLIENTS, window, &source);
    let verified = verify_reads(net.local_addr(), &shared, &checker, &source, env.verify_ops);
    net.shutdown();
    read_outcome(workload, &out, window, setup_s, verified, (0, 0))
}

fn read_outcome(
    workload: &str,
    out: &ReadOutcome,
    window: Window,
    setup_s: Metric,
    verified: (u64, u64),
    writes: (u64, u64),
) -> Outcome {
    let metrics = end_to_end(
        workload,
        &out.latencies_ns,
        out.latencies_ns.len() as u64,
        out.measured(window),
        setup_s,
    );
    println!(
        "coupling.buffer_hit_ratio = {:.4} (fresh {}, buffered {}, stale {}); afterwards {} \
         requests verified against the exhaustive reference, {} wrong",
        out.buffer_hit_ratio(),
        out.fresh,
        out.buffered,
        out.stale,
        verified.0,
        verified.1
    );
    let attempted = out.attempted + verified.0 + writes.0;
    let failed = out.failed + verified.1 + writes.1;
    print_failed_frac(attempted, failed);
    Outcome {
        metrics,
        attempted,
        failed,
    }
}

// ---------------------------------------------------------------------
// ingest, read-write
// ---------------------------------------------------------------------

/// A server with a journal directory, its task queue handle (taken
/// before `NetServer` swallows the `Server`) and the system behind it.
struct WriteFixture {
    shared: SharedSystem,
    net: NetServer,
    tracker: Tracker,
    journal_dir: PathBuf,
    scratch: PathBuf,
}

fn write_fixture(workload: &str, env: &Env, sys: DocumentSystem) -> WriteFixture {
    let scratch = env.scratch(workload);
    let journal_dir = scratch.join("journal");
    let shared = SharedSystem::new(sys);
    let server = Server::start_shared(shared.clone(), write_server_config(&journal_dir));
    let queue = server.tasks().expect("a writable server has a task queue");
    let tracker = Tracker::new(queue.clone());
    let net = NetServer::bind(server, "127.0.0.1:0").expect("bind a loopback port");
    WriteFixture {
        shared,
        net,
        tracker,
        journal_dir,
        scratch,
    }
}

/// What both write workloads do once the last task has finished: look
/// markers up, stop the server, reopen the ledger from disk.
/// Returns `(requests attempted, failures)` of the checks.
fn finish_writes(fixture: WriteFixture, writers: &[&WriteOutcome]) -> (u64, u64) {
    let text_bytes: u64 = writers.iter().map(|w| w.text_bytes).sum();
    let addr = fixture.net.local_addr();
    let (looked_up, wrong) = check_markers(addr, writers);
    let stats = fixture.tracker.queue().stats();
    fixture.net.shutdown();
    let lost = acked_lost(&fixture.journal_dir, writers);
    let written = dir_bytes(&fixture.journal_dir);
    println!(
        "tasks: {} succeeded, {} failed, {} batches ({:.2} tasks each), {} merged; \
         {looked_up} marker terms looked up, {wrong} wrong; acked_lost = {lost}",
        stats.succeeded,
        stats.failed,
        stats.batches,
        stats.succeeded as f64 / stats.batches.max(1) as f64,
        stats.merged,
    );
    println!(
        "coupling.write_amp = {:.3} ({written} ledger+journal bytes for {text_bytes} text bytes); \
         SyncPolicy::Immediate, PropagationStrategy::Eager",
        written as f64 / text_bytes.max(1) as f64
    );
    let _ = std::fs::remove_dir_all(&fixture.scratch);
    (looked_up, wrong + lost + stats.failed)
}

fn ingest(env: &Env) -> Outcome {
    let (sys, setup_s) = repeat_setup(env.setup_reps, || build_system(env.seed, env.docs), drop);
    let oids = para_oids(&sys);
    let fixture = write_fixture("ingest", env, sys);
    let addr = fixture.net.local_addr();
    let acked_total = AtomicU64::new(0);
    let window = OUTSTANDING_PER_CLIENT * CLIENTS as u64;

    // Disjoint oid ranges: no two clients ever rewrite the same object.
    let mut writers: Vec<Writer<'_>> = oids
        .chunks(oids.len().div_ceil(CLIENTS))
        .enumerate()
        .map(|(lane, range)| {
            let stream = UpdateStream::new(env.seed, range.to_vec(), lane as u64, CLIENTS as u64);
            Writer::connect(addr, stream, &fixture.tracker, &acked_total, window, None)
        })
        .collect();

    let warmup_each = match env.plan {
        Plan::Timed { .. } => 32,
        Plan::Counted { warmup_ops, .. } => warmup_ops / CLIENTS as u64,
    };

    let (first_sent, finished_before) = std::thread::scope(|scope| {
        let tracker = &fixture.tracker;
        let events = tracker.queue().subscribe();
        scope.spawn(move || tracker.follow(events));

        // Warm-up: the first tasks create the propagator and its journal.
        run_all(&mut writers, Until::Issued(warmup_each));
        wait_for_acked(tracker, &acked_total);
        let finished_before = tracker.finished();
        for writer in &mut writers {
            writer.out.ack_ns.clear();
            writer.out.first_sent = None;
        }

        run_all(
            &mut writers,
            match env.plan {
                Plan::Timed { measure, .. } => Until::Clock(Instant::now() + measure),
                Plan::Counted { ops, .. } => Until::Issued(ops / CLIENTS as u64),
            },
        );
        wait_for_acked(tracker, &acked_total);
        tracker.stop();
        let first_sent = writers.iter().filter_map(|w| w.out.first_sent).min();
        (first_sent, finished_before)
    });

    // Latency is the enqueue round trip; throughput counts tasks reaching
    // a terminal state, from the first enqueue to the last completion
    // seen on the event stream.
    let outcomes: Vec<WriteOutcome> = writers.into_iter().map(|w| w.out).collect();
    let acks: Vec<u64> = outcomes
        .iter()
        .flat_map(|o| o.ack_ns.iter().copied())
        .collect();
    let metrics = end_to_end(
        "ingest ack",
        &acks,
        fixture.tracker.finished() - finished_before,
        (
            first_sent.expect("at least one task was enqueued"),
            fixture.tracker.last_finish(),
        ),
        setup_s,
    );

    let refs: Vec<&WriteOutcome> = outcomes.iter().collect();
    let (check_attempted, check_failed) = finish_writes(fixture, &refs);
    let attempted = outcomes.iter().map(|o| o.attempted).sum::<u64>() + check_attempted;
    let failed = outcomes.iter().map(|o| o.failed).sum::<u64>() + check_failed;
    print_failed_frac(attempted, failed);
    Outcome {
        metrics,
        attempted,
        failed,
    }
}

fn run_all(writers: &mut [Writer<'_>], until: Until) {
    std::thread::scope(|scope| {
        for writer in writers.iter_mut() {
            scope.spawn(move || writer.run(until));
        }
    });
}

fn wait_for_acked(tracker: &Tracker, acked_total: &AtomicU64) {
    let acked = acked_total.load(std::sync::atomic::Ordering::SeqCst);
    tracker.wait(|finished| finished >= acked);
}

fn read_write(env: &Env) -> Outcome {
    let (sys, setup_s) = repeat_setup(env.setup_reps, || build_system(env.seed, env.docs), drop);
    let oids = para_oids(&sys);
    let fixture = write_fixture("read-write", env, sys);
    let addr = fixture.net.local_addr();
    let acked_total = AtomicU64::new(0);
    let mut writer = Writer::connect(
        addr,
        UpdateStream::new(env.seed, oids, 0, 1),
        &fixture.tracker,
        &acked_total,
        OUTSTANDING_PER_CLIENT,
        Some(PACED_WRITES_PER_S),
    );

    let checker = Checker::new(env.corrupt_reference);
    let window = env.plan.window(Instant::now());
    let source = ReadSource::new(ReadStream::new(env.seed, ReadMode::Cold), window);
    let until = match window {
        Window::Clock { end, .. } => Until::Clock(end),
        Window::Ops { total, .. } => Until::Issued(total),
    };

    let reads = std::thread::scope(|scope| {
        let tracker = &fixture.tracker;
        let events = tracker.queue().subscribe();
        scope.spawn(move || tracker.follow(events));
        let writing = scope.spawn(|| writer.run(until));
        // Client A: the read-cold stream, one connection.
        let reads = run_readers(addr, 1, window, &source);
        writing.join().expect("write client thread");
        wait_for_acked(tracker, &acked_total);
        tracker.stop();
        reads
    });

    let writes = writer.out;
    let acks = Latencies::from_nanos(writes.ack_ns.iter().copied());
    let late = Latencies::from_nanos(writes.late_ns.iter().copied());
    println!(
        "client B, {PACED_WRITES_PER_S} tasks/s open loop: ack from due time {}",
        acks.describe()
    );
    println!("client B generator lateness: {}", late.describe());
    // Every task has finished, so the system holds still for the check.
    let verified = verify_reads(addr, &fixture.shared, &checker, &source, env.verify_ops);
    let (check_attempted, check_failed) = finish_writes(fixture, &[&writes]);
    read_outcome(
        "read-write (client A reads)",
        &reads,
        window,
        setup_s,
        verified,
        (
            writes.attempted + check_attempted,
            writes.failed + check_failed,
        ),
    )
}

// ---------------------------------------------------------------------
// scatter
// ---------------------------------------------------------------------

/// Two partitions of the corpus, two replicas each, and the unpartitioned
/// system kept as the single-node reference.
pub struct ScatterFixture {
    pub base: DocumentSystem,
    pub replicas: Vec<ReplicaServer>,
    pub router: PartitionedIrs<WireTransport>,
}

impl ScatterFixture {
    /// Save the corpus once, carve it round-robin into partitions (every
    /// partition keeps the whole database, so oids agree, and drops the
    /// paragraphs outside its slice from the IRS collection), save each
    /// partition once, and open it from disk on every replica.
    pub fn build(mut base: DocumentSystem, scratch: &Path) -> ScatterFixture {
        let base_dir = scratch.join("base");
        save_system(&mut base, &base_dir).expect("save the corpus");
        let paras = para_oids(&base);
        let mut replicas = Vec::new();
        let mut groups = Vec::new();
        for p in 0..PARTITIONS {
            let mut part = open_system(&base_dir).expect("reopen the corpus");
            {
                let mut coll = part.collection_mut(COLLECTION).expect("collection exists");
                for (i, &oid) in paras.iter().enumerate() {
                    if i % PARTITIONS != p {
                        coll.on_delete(oid).expect("carve the slice");
                    }
                }
            }
            let dir = scratch.join(format!("part-{p}"));
            save_system(&mut part, &dir).expect("save the partition");
            drop(part);
            let mut group = Vec::new();
            for r in 0..REPLICAS_PER_PARTITION {
                let replica = ReplicaServer::open(&dir, "127.0.0.1:0").expect("open a replica");
                group.push((
                    format!("part-{p}-replica-{r}"),
                    WireTransport::new(replica.local_addr()),
                ));
                replicas.push(replica);
            }
            groups.push(group);
        }
        ScatterFixture {
            base,
            replicas,
            router: PartitionedIrs::new(groups, PartitionConfig::default()),
        }
    }

    pub fn shutdown(self) {
        for replica in self.replicas {
            replica.shutdown();
        }
    }
}

fn scatter(env: &Env) -> Outcome {
    let scratch = env.scratch("scatter");
    let mut builds = 0;
    let (fixture, setup_s) = repeat_setup(
        env.setup_reps,
        || {
            builds += 1;
            ScatterFixture::build(
                build_system(env.seed, env.docs),
                &scratch.join(format!("build-{builds}")),
            )
        },
        ScatterFixture::shutdown,
    );

    let snapshot = scratch.join(format!("build-{builds}")).join("base");
    println!(
        "snapshot of the unpartitioned corpus: {} bytes of database, {} bytes of IRS index",
        dir_bytes(&snapshot.join("db")),
        dir_bytes(&snapshot.join("collections"))
    );

    let checker = Checker::new(env.corrupt_reference);
    let window = env.plan.window(Instant::now());
    let source = ReadSource::new(ReadStream::new(env.seed, ReadMode::Cold), window);
    let out = closed_loop(
        CLIENTS,
        window,
        &source,
        || (),
        |(), op| match fixture
            .router
            .search_top_k(COLLECTION, &op.query, RESULT_LIMIT)
        {
            Ok((_, ResultOrigin::Fresh)) => Ok(ResultOrigin::Fresh),
            // A stale answer means a partition failed: never expected here.
            other => Err(format!("{other:?}")),
        },
    );

    // Afterwards: the next ops of the stream, each merged top k compared
    // bit for bit with the single-node evaluation.
    let mut wrong = 0;
    for _ in 0..env.verify_ops {
        let op = source.lock().expect("op source lock").next_to_verify();
        let verdict = match fixture
            .router
            .search_top_k(COLLECTION, &op.query, RESULT_LIMIT)
        {
            Ok((hits, ResultOrigin::Fresh)) => {
                same_hits(&hits, &checker.reference_top_k(&fixture.base, &op.query))
            }
            other => Err(format!("{other:?}")),
        };
        if let Err(why) = verdict {
            eprintln!(
                "WRONG ANSWER: scatter op {} ({:?}): {why}",
                op.index, op.query
            );
            wrong += 1;
        }
    }

    let (mut requests, mut hedges) = (0, 0);
    for group in fixture.router.groups() {
        let stats = group.stats();
        requests += stats.requests;
        hedges += stats.hedges_fired;
    }
    let router = fixture.router.stats();
    fixture.shutdown();
    let _ = std::fs::remove_dir_all(&scratch);

    let metrics = end_to_end(
        "scatter",
        &out.latencies_ns,
        out.latencies_ns.len() as u64,
        out.measured(window),
        setup_s,
    );
    println!(
        "coupling.remote.hedge_rate = {:.5} ({hedges} hedges in {requests} leg requests); \
         router: {} scatter failures, {} stale serves; afterwards {} merges verified against \
         single-node, {wrong} wrong",
        hedges as f64 / requests.max(1) as f64,
        router.scatter_failures,
        router.stale_serves,
        env.verify_ops
    );
    let (attempted, failed) = (out.attempted + env.verify_ops, out.failed + wrong);
    print_failed_frac(attempted, failed);
    Outcome {
        metrics,
        attempted,
        failed,
    }
}

/// Warm-up and measured window of a timed run of `seconds`.
pub fn timed_plan(seconds: u64) -> Plan {
    let measure = Duration::from_secs(seconds);
    Plan::Timed {
        // 5 % of the run, at least long enough to fill the hot set.
        warmup: (measure / 20).max(Duration::from_millis(250)),
        measure,
    }
}
