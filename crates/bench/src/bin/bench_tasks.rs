//! Task-batching benchmark gate: repeated `indexObjects` ingest through
//! the durable task queue, batched vs unbatched, writing
//! `BENCH_tasks.json` for CI tracking.
//!
//! Usage:
//!
//! ```text
//! cargo run -p coupling-bench --release --bin bench_tasks            # full
//! cargo run -p coupling-bench --release --bin bench_tasks -- --smoke
//! ```
//!
//! The workload models a burst of redundant ingest requests: N clients
//! each ask the server to (re-)run the same specification query over a
//! generated corpus (~10^4 paragraphs in full mode). With batching on,
//! the scheduler claims adjacent identical tasks as one batch and runs
//! the indexing **once** per batch; with batching off every task pays
//! the full corpus walk. The process exits nonzero and prints a line
//! containing `REGRESSION` if batching fails to beat the unbatched
//! drain by more than 2x, if any task fails, or if the batched run does
//! not actually merge anything.
//!
//! A second leg counts the write path's `sync_data` calls: 64
//! `UpdateText` tasks through a ledgered queue and a journaled eager
//! executor. Counts repeat exactly, so the gate is exact too: it prints
//! `REGRESSION` unless each executed batch cost 2 propagation-journal
//! syncs (journal the batch, settle it), independent of its size.

use std::time::Instant;

use coupling::tasks::{SchedulerConfig, TaskExecutor, TaskFilter, TaskKind, TaskQueue, TaskStatus};
use coupling::{CollectionSetup, DocumentSystem, SharedSystem};
use sgml::{CorpusConfig, CorpusGenerator};

const TOPICS: usize = 6;
const BATCH_MAX: usize = 32;
const TASKS: usize = 12;
const UPDATES: usize = 64;

/// One drain's results.
struct Run {
    batching: bool,
    tasks: usize,
    wall_us: u128,
    batches: u64,
    merged: u64,
}

/// A corpus system with an *empty* paragraph collection — the tasks
/// under test perform the initial ingest themselves.
fn build_system(docs: usize) -> DocumentSystem {
    let mut generator = CorpusGenerator::new(CorpusConfig {
        docs,
        topics: TOPICS,
        vocabulary: 400,
        ..CorpusConfig::default()
    });
    let mut sys = DocumentSystem::new();
    for doc in generator.generate_corpus() {
        sys.load_generated(&doc).expect("corpus loads");
    }
    sys.create_collection("coll", CollectionSetup::builder().build())
        .expect("fresh collection");
    sys
}

/// Enqueue `tasks` identical ingest tasks, then drain them with one
/// executor and report the wall clock of the drain alone.
fn run_ingest(docs: usize, tasks: usize, batching: bool) -> Run {
    let shared = SharedSystem::new(build_system(docs));
    let queue = TaskQueue::open(None, tasks + 1, 16).expect("in-memory queue");
    let kind = TaskKind::IndexObjects {
        collection: "coll".into(),
        spec_query: "ACCESS p FROM p IN PARA".into(),
    };
    for _ in 0..tasks {
        queue.enqueue(kind.clone()).expect("enqueue");
    }
    let config = SchedulerConfig::builder()
        .batch_max(BATCH_MAX)
        .batching(batching)
        .build();
    let mut executor = TaskExecutor::new(shared, queue.clone(), config);
    let t0 = Instant::now();
    executor.drain();
    let wall_us = t0.elapsed().as_micros();
    let done = queue.list_tasks(&TaskFilter::default());
    let failed = done
        .iter()
        .filter(|t| t.status != TaskStatus::Succeeded)
        .count();
    if failed > 0 {
        eprintln!("REGRESSION: {failed} ingest tasks did not succeed");
        std::process::exit(1);
    }
    let stats = queue.stats();
    Run {
        batching,
        tasks,
        wall_us,
        batches: stats.batches,
        merged: stats.merged,
    }
}

/// The update leg's results.
struct UpdateRun {
    batches: u64,
    wall_us: u128,
    ledger_syncs: u64,
    journal_syncs: u64,
}

/// Enqueue `UPDATES` text updates against an indexed collection (the
/// ledger syncs each acknowledgement), then drain them with a journaled
/// eager executor and count every `sync_data` on the way.
fn run_updates(docs: usize) -> UpdateRun {
    let dir = std::env::temp_dir().join(format!("bench-tasks-updates-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let mut sys = build_system(docs);
    sys.index_collection("coll", "ACCESS p FROM p IN PARA")
        .expect("collection indexes");
    let paras: Vec<oodb::Oid> = sys
        .query("ACCESS p FROM p IN PARA")
        .expect("paragraph query")
        .iter()
        .filter_map(|row| row.oid())
        .collect();
    let config = SchedulerConfig::builder()
        .batch_max(BATCH_MAX)
        .journal_dir(&dir)
        .build();
    let queue =
        TaskQueue::open(config.ledger_path().as_deref(), UPDATES + 1, 16).expect("ledgered queue");
    for i in 0..UPDATES {
        queue
            .enqueue(TaskKind::UpdateText {
                oid: paras[i % paras.len()],
                text: format!("revised paragraph {i} on telnet sessions"),
                collections: vec!["coll".into()],
            })
            .expect("enqueue");
    }
    let mut executor = TaskExecutor::new(SharedSystem::new(sys), queue.clone(), config);
    let t0 = Instant::now();
    executor.drain();
    let wall_us = t0.elapsed().as_micros();
    let stats = queue.stats();
    if stats.succeeded != UPDATES as u64 {
        eprintln!(
            "REGRESSION: {} of {UPDATES} update tasks succeeded",
            stats.succeeded
        );
        std::process::exit(1);
    }
    let journal_syncs = executor
        .propagator("coll")
        .and_then(|prop| prop.journal())
        .map_or(0, |journal| journal.syncs());
    drop(executor);
    let _ = std::fs::remove_dir_all(&dir);
    UpdateRun {
        batches: stats.batches,
        wall_us,
        ledger_syncs: stats.ledger_syncs,
        journal_syncs,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    // Full mode: ~2000 docs x ~5.5 paragraphs ≈ 10^4 IRS documents.
    let docs = if smoke { 30 } else { 2000 };

    println!("bench_tasks: {TASKS} identical ingest tasks over {docs} docs, batch_max {BATCH_MAX}");
    println!(
        "{:>10} {:>6} {:>12} {:>8} {:>8}",
        "batching", "tasks", "wall(us)", "batches", "merged"
    );
    let runs: Vec<Run> = [false, true]
        .into_iter()
        .map(|batching| {
            let run = run_ingest(docs, TASKS, batching);
            println!(
                "{:>10} {:>6} {:>12} {:>8} {:>8}",
                run.batching, run.tasks, run.wall_us, run.batches, run.merged
            );
            run
        })
        .collect();

    let speedup = runs[0].wall_us as f64 / runs[1].wall_us.max(1) as f64;
    println!("batching speedup: {speedup:.2}x");

    let updates = run_updates(docs);
    let per_task = |syncs: u64| syncs as f64 / UPDATES as f64;
    let journal_per_batch = updates.journal_syncs as f64 / updates.batches.max(1) as f64;
    println!(
        "update_text: {UPDATES} tasks in {} batches, {} us; sync_data: ledger {} ({:.3}/task), \
         journal {} ({:.3}/task, {journal_per_batch:.2}/batch)",
        updates.batches,
        updates.wall_us,
        updates.ledger_syncs,
        per_task(updates.ledger_syncs),
        updates.journal_syncs,
        per_task(updates.journal_syncs),
    );

    // Hand-rolled JSON: the workspace deliberately carries no serde.
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"task_batching_ingest\",\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if smoke { "smoke" } else { "full" }
    ));
    out.push_str(&format!("  \"docs\": {docs},\n"));
    out.push_str(&format!("  \"batch_max\": {BATCH_MAX},\n"));
    out.push_str("  \"runs\": [\n");
    for (i, run) in runs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"batching\": {}, \"tasks\": {}, \"wall_us\": {}, \"batches\": {}, \
             \"merged\": {}}}{}\n",
            run.batching,
            run.tasks,
            run.wall_us,
            run.batches,
            run.merged,
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"update_text\": {{\"tasks\": {UPDATES}, \"batches\": {}, \"wall_us\": {}, \
         \"ledger_syncs\": {}, \"journal_syncs\": {}, \"ledger_syncs_per_task\": {:.4}, \
         \"journal_syncs_per_task\": {:.4}, \"journal_syncs_per_batch\": {journal_per_batch:.3}}},\n",
        updates.batches,
        updates.wall_us,
        updates.ledger_syncs,
        updates.journal_syncs,
        per_task(updates.ledger_syncs),
        per_task(updates.journal_syncs),
    ));
    out.push_str(&format!("  \"speedup\": {speedup:.3}\n"));
    out.push_str("}\n");

    let path = std::path::Path::new("BENCH_tasks.json");
    std::fs::write(path, &out).expect("write BENCH_tasks.json");
    println!("wrote {}", path.display());

    let batched = &runs[1];
    if batched.merged == 0 {
        eprintln!("REGRESSION: the batched drain merged nothing");
        std::process::exit(1);
    }
    if speedup <= 2.0 {
        eprintln!("REGRESSION: batching speedup {speedup:.2}x is not above 2x");
        std::process::exit(1);
    }
    if updates.journal_syncs != 2 * updates.batches {
        eprintln!(
            "REGRESSION: {} journal syncs for {} update batches, not 2 per batch",
            updates.journal_syncs, updates.batches
        );
        std::process::exit(1);
    }
}
