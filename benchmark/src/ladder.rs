//! The traced run. It replays the first ops of the workload's streams,
//! single-threaded, down a ladder of public entry points — each rung a
//! separate call timed from here — and reports each layer's self time:
//! its rung minus the rung below.
//!
//! Every traced run climbs all four ladders (set-up, read, scatter,
//! write), so every per-layer metric is measured on every workload; the
//! workload picks the read stream (`read-hot` its 32 texts, the others
//! the no-repeat stream) and whether updates interleave (`read-write`).
//! `README.md` says which rungs each workload's end-to-end path calls.

use std::time::Instant;

use coupling::tasks::{SchedulerConfig, TaskExecutor, TaskKind, TaskQueue};
use coupling::{
    evaluate_mixed, journal_path, tasks_ledger_path, DocumentSystem, PropagationStrategy,
    Propagator, ResultOrigin, SharedSystem,
};
use irs::{parse_query, IrsCollection, QueryGlobals};
use oodb::Oid;
use serve::wire::{decode_request, decode_response, encode_request, encode_response};
use serve::{Client, NetServer, Response, Server};
use sgml::CorpusGenerator;

use crate::corpus::{collection_setup, corpus_config, index_objects, RESULT_LIMIT, SPEC_QUERY};
use crate::env::{dir_bytes, Env};
use crate::record::Metric;
use crate::span::{SpanId, SpanLog};
use crate::stats::median;
use crate::stream::{ReadKind, ReadMode, ReadOp, ReadStream, UpdateOp, UpdateStream, COLLECTION};
use crate::workloads::{read_server_config, write_server_config, Outcome, ScatterFixture};
use crate::writes::QUEUE_CAPACITY;

/// A run's spans, metrics and op counts, filled ladder by ladder.
struct Trace {
    log: SpanLog,
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

impl Trace {
    fn metric(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.metrics
            .push(Metric::new(name, unit, value, samples as u64));
    }

    fn fail(&mut self, what: &str, why: impl std::fmt::Display) {
        eprintln!("{what} failed: {why}");
        self.failed += 1;
    }
}

pub fn run(workload: &'static str, env: &Env) -> Outcome {
    let mut trace = Trace {
        log: SpanLog::new(workload),
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let scratch = env.scratch(&format!("trace-{workload}"));

    let (sys, standalone) = setup_ladder(&mut trace, env);
    let mode = if workload == "read-hot" {
        ReadMode::Hot
    } else {
        ReadMode::Cold
    };
    let read_ops: Vec<ReadOp> = {
        let mut stream = ReadStream::new(env.seed, mode);
        (0..env.trace_ops).map(|_| stream.next_op()).collect()
    };
    let oids = crate::corpus::para_oids(&sys);
    let updates: Vec<UpdateOp> = {
        let mut stream = UpdateStream::new(env.seed, oids, 0, 1);
        (0..env.trace_ops).map(|_| stream.next_op()).collect()
    };

    let sys = scatter_ladder(&mut trace, sys, &read_ops, &scratch.join("scatter"));
    let shared = SharedSystem::new(sys);
    let interleaved = (workload == "read-write").then_some(updates.as_slice());
    read_ladder(&mut trace, &shared, &read_ops, mode, interleaved);
    write_ladder(&mut trace, &shared, standalone, &updates, &scratch);

    let path = env.out_dir.join(format!("trace-{workload}.jsonl"));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path).expect("trace file"));
    trace.log.write_jsonl(&mut file).expect("write the trace");
    std::io::Write::flush(&mut file).expect("write the trace");
    println!("spans written to {}", path.display());
    println!(
        "counts taken single-threaded (structural checks, batches, merged, write_amp) \
         repeat exactly for a given seed and --seconds"
    );
    let _ = std::fs::remove_dir_all(&scratch);
    Outcome {
        metrics: trace.metrics,
        attempted: trace.attempted,
        failed: trace.failed,
    }
}

fn median_us(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

// ---------------------------------------------------------------------
// Set-up ladder: where generate + load + indexObjects spend their time
// ---------------------------------------------------------------------

/// Builds the system the other ladders use, timing `load_generated` per
/// document and `indexObjects` both whole and as the three calls it is
/// made of. Also returns a free-standing `IrsCollection` holding the same
/// documents, for the rungs that need a mutable IRS.
fn setup_ladder(trace: &mut Trace, env: &Env) -> (DocumentSystem, IrsCollection) {
    let corpus = CorpusGenerator::new(corpus_config(env.seed, env.docs)).generate_corpus();
    let mut sys = DocumentSystem::new();
    let mut load_us = Vec::with_capacity(corpus.len());
    for (i, doc) in corpus.iter().enumerate() {
        let (loaded, id) = trace
            .log
            .time(i as u64, None, "sgml", "load_generated", || {
                sys.load_generated(doc)
            });
        loaded.expect("generated document loads");
        load_us.push(trace.log.duration_us(id));
    }
    drop(corpus);
    trace.metric(
        "sgml.load_us_per_doc",
        "us",
        median(&load_us),
        load_us.len(),
    );
    sys.create_collection(COLLECTION, collection_setup())
        .expect("fresh collection");

    // The three calls indexObjects makes, each on its own.
    let mut spec_us = Vec::new();
    let mut rows = Vec::new();
    for rep in 0..3 {
        let (result, id) = trace
            .log
            .time(rep, None, "oodb", "spec_query", || sys.query(SPEC_QUERY));
        rows = result.expect("specification query runs");
        spec_us.push(trace.log.duration_us(id));
    }
    trace.metric("oodb.spec_query_us", "us", median(&spec_us), spec_us.len());
    let oids: Vec<Oid> = rows.iter().filter_map(|row| row.oid()).collect();

    // What the Independent strategy walks: the class extent, object by
    // object.
    let db = sys.db();
    let para = db.schema().class_id("PARA").expect("PARA class exists");
    let mut scan_us = Vec::new();
    for rep in 0..3 {
        let (walked, id) = trace.log.time(rep, None, "oodb", "extent_scan", || {
            db.extent(para, true)
                .into_iter()
                .filter(|&oid| db.object(oid).is_ok())
                .count()
        });
        assert_eq!(walked, oids.len(), "the extent is the specification result");
        scan_us.push(trace.log.duration_us(id));
    }
    trace.metric("oodb.extent_scan_us", "us", median(&scan_us), scan_us.len());

    let setup = collection_setup();
    let ctx = db.method_ctx();
    let (docs, text_id) = trace.log.time(0, None, "coupling", "get_text", || {
        oids.iter()
            .map(|&oid| (oid.to_string(), setup.text_mode.get_text(&ctx, oid)))
            .collect::<Vec<(String, String)>>()
    });
    let mut standalone = IrsCollection::new(setup.irs.clone());
    let (added, add_id) = trace.log.time(0, None, "irs", "add_documents", || {
        standalone.add_documents(&docs)
    });
    added.expect("documents index");
    let add_us = trace.log.duration_us(add_id);
    trace.metric(
        "irs.add_documents_us_per_doc",
        "us",
        add_us / docs.len() as f64,
        docs.len(),
    );

    // The same work as one call.
    let (indexed, whole_id) = trace
        .log
        .time(0, None, "coupling", "index_objects", || index_objects(&sys));
    assert_eq!(indexed, docs.len());
    let whole_s = trace.log.duration_us(whole_id) / 1e6;
    let spec_s = spec_us[0] / 1e6;
    let text_s = trace.log.duration_us(text_id) / 1e6;
    let add_s = add_us / 1e6;
    trace.metric("coupling.index_objects_s", "s", whole_s, 1);
    trace.metric("coupling.index_objects.spec_query_s", "s", spec_s, 1);
    trace.metric("coupling.index_objects.get_text_s", "s", text_s, 1);
    trace.metric("coupling.index_objects.add_documents_s", "s", add_s, 1);
    trace.metric(
        "coupling.index_objects.remainder_s",
        "s",
        whole_s - spec_s - text_s - add_s,
        1,
    );
    println!(
        "indexObjects over {} objects: {whole_s:.3} s in one call; apart: spec query {spec_s:.3} + \
         getText {text_s:.3} + add_documents {add_s:.3} = {:.1} % of it",
        docs.len(),
        100.0 * (spec_s + text_s + add_s) / whole_s
    );
    (sys, standalone)
}

// ---------------------------------------------------------------------
// Read ladder
// ---------------------------------------------------------------------

/// What the server does with a read, called directly.
fn evaluate_direct(
    sys: &DocumentSystem,
    op: &ReadOp,
) -> coupling::Result<(ResultOrigin, Option<(usize, usize)>)> {
    let coll = sys.collection(COLLECTION)?;
    match op.kind {
        ReadKind::Irs => {
            let (map, origin) = coll.get_irs_result_with_origin(&op.query)?;
            let mut hits: Vec<(Oid, f64)> = map.into_iter().collect();
            hits.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            std::hint::black_box(hits);
            Ok((origin, None))
        }
        ReadKind::Mixed(strategy) => {
            let outcome = evaluate_mixed(
                coll.db(),
                &coll,
                "PARA",
                &|_, _| true,
                &op.query,
                0.0,
                strategy,
            )?;
            Ok((
                outcome.origin,
                Some((outcome.structural_checks, outcome.oids.len())),
            ))
        }
    }
}

fn read_ladder(
    trace: &mut Trace,
    shared: &SharedSystem,
    ops: &[ReadOp],
    mode: ReadMode,
    interleaved: Option<&[UpdateOp]>,
) {
    let net = NetServer::bind(
        Server::start_shared(shared.clone(), read_server_config()),
        "127.0.0.1:0",
    )
    .expect("bind a loopback port");
    let inproc = Server::start_shared(shared.clone(), read_server_config().read_only(true));
    let mut client = Client::connect(net.local_addr()).expect("connect to the loopback server");
    let forget = || {
        shared.read(|sys| {
            sys.collection(COLLECTION)
                .map(|c| c.buffer().invalidate_all())
        })
    };
    let mut propagator = Propagator::new(PropagationStrategy::Eager);
    let mut write_between = |i: usize| {
        if let Some(update) = interleaved.map(|updates| &updates[i]) {
            shared
                .write(|sys| {
                    sys.update_texts(
                        &[(update.oid, update.text.clone())],
                        &mut [(COLLECTION, &mut propagator)],
                    )
                })
                .expect("interleaved update applies");
        }
    };

    // The same ops with no spans recorded: the untraced median that
    // `trace_overhead` compares against.
    let mut plain_us = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        write_between(i);
        let request = op.request();
        let sent = Instant::now();
        let result = client.call(&request);
        plain_us.push(sent.elapsed().as_nanos() as f64 / 1e3);
        trace.attempted += 1;
        if let Err(err) = result {
            trace.fail("untraced read", err);
        }
    }
    forget().expect("collection exists");

    let warmup = ops.len() / 20;
    let (mut answered, mut buffered) = (0u64, 0u64);
    let (mut structural_checks, mut mixed_results) = (0usize, 0usize);
    let mut top_us = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        write_between(i);
        let request = op.request();
        trace.attempted += 1;
        let (result, top) = trace.log.time(op.index, None, "serve", "client_call", || {
            client.call(&request)
        });
        top_us.push(trace.log.duration_us(top));
        let response = match result {
            Ok(response) => response,
            Err(err) => {
                trace.fail("traced read", err);
                continue;
            }
        };
        let origin = match &response {
            Response::IrsResult { origin, .. } | Response::Mixed { origin, .. } => *origin,
            other => {
                trace.fail("traced read", format!("unexpected {other:?}"));
                continue;
            }
        };
        if i >= warmup {
            answered += 1;
            buffered += u64::from(origin == ResultOrigin::Buffered);
        }
        // The four codec calls the round trip made, on its own messages.
        trace
            .log
            .time(op.index, Some(top), "serve", "wire_codec", || {
                let bytes = encode_request(&request);
                std::hint::black_box(decode_request(&bytes).expect("request decodes"));
                let bytes = encode_response(&response);
                std::hint::black_box(decode_response(&bytes).expect("response decodes"));
            });
        // A lower rung must find the buffer as the top rung found it. On
        // the no-repeat stream that means empty for this text; the hot
        // set is left alone so it stays resident.
        let missed = origin == ResultOrigin::Fresh;
        if missed && mode == ReadMode::Cold {
            forget().expect("collection exists");
        }
        let (result, server_call) =
            trace
                .log
                .time(op.index, Some(top), "serve", "server_call", || {
                    inproc.call(request.clone())
                });
        if let Err(err) = result {
            trace.fail("in-process read", err);
        }
        if missed && mode == ReadMode::Cold {
            forget().expect("collection exists");
        }
        let name = match op.kind {
            ReadKind::Irs => "irs_result",
            ReadKind::Mixed(_) => "evaluate_mixed",
        };
        let (result, evaluate) =
            trace
                .log
                .time(op.index, Some(server_call), "coupling", name, || {
                    shared.read(|sys| evaluate_direct(sys, op))
                });
        match result {
            Ok((_, Some((checks, results)))) => {
                structural_checks += checks;
                mixed_results += results;
            }
            Ok((_, None)) => {}
            Err(err) => trace.fail("direct evaluation", err),
        }
        if !missed {
            continue; // a buffer hit never reaches the IRS
        }
        let (result, search) =
            trace
                .log
                .time(op.index, Some(evaluate), "irs", "search_top_k", || {
                    shared.read(|sys| {
                        let coll = sys.collection(COLLECTION)?;
                        Ok::<_, coupling::CouplingError>(
                            coll.irs().search_top_k(&op.query, RESULT_LIMIT)?,
                        )
                    })
                });
        if let Err(err) = result {
            trace.fail("irs search", err);
        }
        // The collection's index is private, so the top-k engine cannot
        // be called on it directly: its time is the search minus the
        // query compilation, which can.
        let (node, _) = trace
            .log
            .time(op.index, Some(search), "irs", "compile", || {
                parse_query(&op.query)
            });
        if let Err(err) = node {
            trace.fail("query compilation", err);
        }
    }
    inproc.shutdown();
    net.shutdown();

    let rungs = trace.log.self_us_by_rung();
    let rung = |name: &str| rungs.get(name).map(Vec::as_slice).unwrap_or(&[]);
    for (metric, name) in [
        ("serve.net_self_us", "serve.client_call"),
        ("serve.wire_codec_us", "serve.wire_codec"),
        ("serve.queue_self_us", "serve.server_call"),
        ("coupling.result_self_us", "coupling.irs_result"),
        ("coupling.mixed_self_us", "coupling.evaluate_mixed"),
        ("irs.compile_us", "irs.compile"),
        ("irs.topk_us", "irs.search_top_k"),
    ] {
        let samples = rung(name);
        trace.metric(metric, "us", median_us(samples), samples.len());
    }
    trace.metric(
        "coupling.buffer_hit_ratio",
        "ratio",
        buffered as f64 / answered.max(1) as f64,
        answered as usize,
    );
    trace.metric(
        "coupling.structural_checks_per_result",
        "count",
        structural_checks as f64 / mixed_results.max(1) as f64,
        mixed_results,
    );
    trace.metric(
        "trace_overhead",
        "ratio",
        median(&top_us) / median(&plain_us),
        top_us.len(),
    );
    // Does the ladder account for the whole? Unfloored, the self times of
    // an op add up to its top rung exactly (each rung is subtracted once
    // and added once), so two cruder sums are shown: the floored self
    // times over all ops against the top rung's total — the excess over
    // 100 % is what flooring at zero added — and the rungs' medians,
    // weighted by the share of ops that reached the rung, against the top
    // rung's median, which falls short where a rung's cost is skewed.
    let read_rungs = [
        "serve.client_call",
        "serve.wire_codec",
        "serve.server_call",
        "coupling.irs_result",
        "coupling.evaluate_mixed",
        "irs.search_top_k",
        "irs.compile",
    ];
    let total: f64 = read_rungs.iter().map(|r| rung(r).iter().sum::<f64>()).sum();
    let medians: f64 = read_rungs
        .iter()
        .map(|r| median_us(rung(r)) * rung(r).len() as f64 / ops.len() as f64)
        .sum();
    println!(
        "read ladder: {} ops, top rung p50 {:.1} us traced, {:.1} us untraced; self times add up \
         to {:.1} % of the top rung's total, their medians to {medians:.1} us = {:.1} % of its median",
        ops.len(),
        median(&top_us),
        median(&plain_us),
        100.0 * total / top_us.iter().sum::<f64>(),
        100.0 * medians / median(&top_us)
    );
}

// ---------------------------------------------------------------------
// Scatter ladder
// ---------------------------------------------------------------------

/// Carves `sys` into the scatter fixture, climbs the ladder, and hands
/// the unpartitioned system back.
fn scatter_ladder(
    trace: &mut Trace,
    sys: DocumentSystem,
    ops: &[ReadOp],
    scratch: &std::path::Path,
) -> DocumentSystem {
    let fixture = ScatterFixture::build(sys, scratch);
    let groups = fixture.router.groups();
    let mut top_us = Vec::with_capacity(ops.len());
    for op in ops {
        trace.attempted += 1;
        let (result, top) =
            trace
                .log
                .time(op.index, None, "coupling.partition", "search_top_k", || {
                    fixture
                        .router
                        .search_top_k(COLLECTION, &op.query, RESULT_LIMIT)
                });
        top_us.push(trace.log.duration_us(top));
        if !matches!(result, Ok((_, ResultOrigin::Fresh))) {
            trace.fail("scattered search", format!("{result:?}"));
            continue;
        }
        // The router runs each leg on all partitions at once and waits for
        // the slowest, so only the slower call of each leg covers the top
        // rung; the faster one is recorded beside it.
        let mut stats = Vec::with_capacity(groups.len());
        let mut leg = Vec::with_capacity(groups.len());
        for group in groups {
            let t0 = Instant::now();
            let result = group.term_stats(COLLECTION, &op.query);
            leg.push((t0, Instant::now()));
            match result {
                Ok(globals) => stats.push(globals),
                Err(err) => trace.fail("term statistics leg", err),
            }
        }
        record_legs(trace, op.index, top, "term_stats", &leg);
        let Some(merged) = QueryGlobals::merge(stats.iter()) else {
            trace.fail("term statistics leg", "partitions disagree");
            continue;
        };
        leg.clear();
        for group in groups {
            let t0 = Instant::now();
            let result = group.search_global(COLLECTION, &op.query, RESULT_LIMIT, &merged);
            leg.push((t0, Instant::now()));
            if let Err(err) = result {
                trace.fail("global search leg", err);
            }
        }
        record_legs(trace, op.index, top, "search_global", &leg);
    }

    let (mut requests, mut hedges) = (0, 0);
    for group in groups {
        let stats = group.stats();
        requests += stats.requests;
        hedges += stats.hedges_fired;
    }
    let rungs = trace.log.self_us_by_rung();
    for (metric, name) in [
        (
            "coupling.partition.gather_self_us",
            "coupling.partition.search_top_k",
        ),
        (
            "coupling.remote.term_stats_us",
            "coupling.remote.term_stats",
        ),
        (
            "coupling.remote.search_global_us",
            "coupling.remote.search_global",
        ),
    ] {
        let samples = rungs.get(name).map(Vec::as_slice).unwrap_or(&[]);
        trace.metric(metric, "us", median_us(samples), samples.len());
    }
    trace.metric(
        "coupling.remote.hedge_rate",
        "ratio",
        hedges as f64 / requests.max(1) as f64,
        requests as usize,
    );
    println!(
        "scatter ladder: {} ops, top rung p50 {:.1} us",
        ops.len(),
        median(&top_us)
    );
    let ScatterFixture { base, replicas, .. } = fixture;
    for replica in replicas {
        replica.shutdown();
    }
    base
}

fn record_legs(
    trace: &mut Trace,
    op: u64,
    top: SpanId,
    name: &'static str,
    calls: &[(Instant, Instant)],
) {
    let slowest = calls
        .iter()
        .enumerate()
        .max_by_key(|(_, (t0, t1))| *t1 - *t0)
        .map(|(i, _)| i);
    for (i, &(t0, t1)) in calls.iter().enumerate() {
        if Some(i) == slowest {
            trace
                .log
                .record(op, Some(top), "coupling.remote", name, t0, t1);
        } else {
            trace
                .log
                .record(op, None, "coupling.remote", "overlapped_leg", t0, t1);
        }
    }
}

// ---------------------------------------------------------------------
// Write ladder
// ---------------------------------------------------------------------

fn update_task(update: &UpdateOp) -> TaskKind {
    TaskKind::UpdateText {
        oid: update.oid,
        text: update.text.clone(),
        collections: vec![COLLECTION.into()],
    }
}

/// Each rung is a loop of its own over the same updates (an enqueue
/// cannot be taken back, so one op cannot go down several rungs); op `i`
/// of a rung is the child of op `i` of the rung above.
fn write_ladder(
    trace: &mut Trace,
    shared: &SharedSystem,
    mut standalone: IrsCollection,
    updates: &[UpdateOp],
    scratch: &std::path::Path,
) {
    let n = updates.len();
    let text_bytes: usize = updates.iter().map(|u| u.text.len()).sum();

    // Rung 1: the 202 ack over TCP, as `ingest` measures it.
    let dir = scratch.join("rung-client");
    let server = Server::start_shared(shared.clone(), write_server_config(&dir));
    let queue = server
        .tasks()
        .expect("a writable server has a task queue")
        .clone();
    let net = NetServer::bind(server, "127.0.0.1:0").expect("bind a loopback port");
    let mut client = Client::connect(net.local_addr()).expect("connect to the loopback server");
    let mut client_rung = Vec::with_capacity(n);
    for (i, update) in updates.iter().enumerate() {
        while queue.depth() >= QUEUE_CAPACITY / 2 {
            std::thread::yield_now();
        }
        let kind = update_task(update);
        trace.attempted += 1;
        let (result, id) = trace
            .log
            .time(i as u64, None, "serve", "client_enqueue", || {
                client.enqueue(kind)
            });
        client_rung.push(id);
        if let Err(err) = result {
            trace.fail("enqueue over TCP", err);
        }
    }
    drop(client);
    net.shutdown();

    // Rung 2: the task queue itself, with a ledger file and without.
    let dir = scratch.join("rung-queue");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let ledgered =
        TaskQueue::open(Some(&tasks_ledger_path(&dir)), n + 1, 16).expect("a fresh ledger opens");
    let in_memory = TaskQueue::open(None, n + 1, 16).expect("an in-memory queue opens");
    for (i, update) in updates.iter().enumerate() {
        let (result, _) = trace.log.time(
            i as u64,
            Some(client_rung[i]),
            "coupling.tasks",
            "enqueue",
            || ledgered.enqueue(update_task(update)),
        );
        if let Err(err) = result {
            trace.fail("ledgered enqueue", err);
        }
        let (result, _) = trace
            .log
            .time(i as u64, None, "coupling.tasks", "enqueue_mem", || {
                in_memory.enqueue(update_task(update))
            });
        if let Err(err) = result {
            trace.fail("in-memory enqueue", err);
        }
    }

    // The executor, drained on this thread: batching is then a pure
    // function of the task list, so its counts repeat exactly.
    let config = SchedulerConfig::builder()
        .queue_capacity(n + 1)
        .journal_dir(&dir)
        .build();
    let mut executor = TaskExecutor::new(shared.clone(), ledgered.clone(), config);
    let (_, drain) = trace
        .log
        .time(0, None, "coupling.tasks", "drain", || executor.drain());
    let (_, flush) = trace
        .log
        .time(0, None, "coupling.tasks", "flush_propagation", || {
            executor.flush_propagation()
        });
    let stats = ledgered.stats();
    if stats.succeeded != n as u64 {
        trace.fail(
            "task execution",
            format!("{} of {n} succeeded", stats.succeeded),
        );
    }
    drop(executor);
    let written = dir_bytes(&dir);

    // What a batch of one costs, called directly: the OODB transaction,
    // the journaled propagation record and the IRS re-index.
    let dir = scratch.join("rung-direct");
    let journal = journal_path(&dir, COLLECTION);
    std::fs::create_dir_all(journal.parent().expect("journal has a directory"))
        .expect("scratch directory");
    let mut propagator = Propagator::with_journal(PropagationStrategy::Eager, &journal)
        .expect("a fresh journal opens");
    for (i, update) in updates.iter().enumerate() {
        let (result, id) = trace
            .log
            .time(i as u64, None, "coupling", "update_texts", || {
                shared.write(|sys| {
                    sys.update_texts(
                        &[(update.oid, update.text.clone())],
                        &mut [(COLLECTION, &mut propagator)],
                    )
                })
            });
        if let Err(err) = result {
            trace.fail("update_texts", err);
        }
        let key = update.oid.to_string();
        let (result, _) = trace
            .log
            .time(i as u64, Some(id), "irs", "update_document", || {
                standalone.update_document(&key, &update.text)
            });
        if let Err(err) = result {
            trace.fail("update_document", err);
        }
    }

    let rungs = trace.log.self_us_by_rung();
    for (metric, name) in [
        ("serve.enqueue_self_us", "serve.client_enqueue"),
        ("coupling.tasks.enqueue_us", "coupling.tasks.enqueue"),
        (
            "coupling.tasks.enqueue_mem_us",
            "coupling.tasks.enqueue_mem",
        ),
        ("coupling.update_texts_self_us", "coupling.update_texts"),
        ("irs.update_document_us", "irs.update_document"),
    ] {
        let samples = rungs.get(name).map(Vec::as_slice).unwrap_or(&[]);
        trace.metric(metric, "us", median_us(samples), samples.len());
    }
    trace.metric(
        "coupling.tasks.execute_us_per_task",
        "us",
        trace.log.duration_us(drain) / n as f64,
        n,
    );
    trace.metric("coupling.flush_us", "us", trace.log.duration_us(flush), 1);
    trace.metric(
        "coupling.tasks.batch_size",
        "count",
        stats.succeeded as f64 / stats.batches.max(1) as f64,
        stats.batches as usize,
    );
    trace.metric("coupling.tasks.merged", "count", stats.merged as f64, n);
    trace.metric(
        "coupling.write_amp",
        "ratio",
        written as f64 / text_bytes.max(1) as f64,
        n,
    );
    println!(
        "write ladder: {n} updates, {} batches, {} merged, {written} ledger+journal bytes \
         for {text_bytes} text bytes",
        stats.batches, stats.merged
    );
}
