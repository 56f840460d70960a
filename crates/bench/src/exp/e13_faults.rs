//! E13 — fault tolerance: retry overhead, degraded serving, recovery.
//!
//! The loose coupling's premise is that the IRS is an *external*
//! component (paper Figure 1, alternative 3) — which in any deployed
//! system means it can fail independently of the OODBMS. This experiment
//! quantifies what the fault-tolerance layer costs and what it buys:
//!
//! 1. **Wrapper overhead** — query latency with no fault plan attached
//!    vs. a zero-fault plan (the per-call bookkeeping of the fault hook
//!    plus the retry/breaker wrapper).
//! 2. **Degraded serving under an error schedule** — a sweep of injected
//!    per-call error rates; how many queries are answered fresh, from
//!    the buffer, or stale, and how many fail outright.
//! 3. **Outage behaviour** — with the IRS down entirely, primed queries
//!    serve stale from the invalidated buffer while the circuit breaker
//!    keeps hammering off the IRS.
//! 4. **Crash recovery** — wall time of `open_system` when a journal of
//!    pending deferred updates must be replayed, vs. a clean reopen.

use std::sync::Arc;
use std::time::Instant;

use coupling::{
    journal_path, open_system, save_system, CollectionSetup, DocumentSystem, PropagationStrategy,
    Propagator, ResultOrigin,
};
use irs::FaultPlan;
use sgml::gen::topic_term;

use crate::workload::{build_corpus_system, with_para_collection, WorkloadConfig};

/// Injected per-call error probabilities swept in part 2.
const ERROR_RATES: [f64; 3] = [0.0, 0.05, 0.2];

/// Rounds over the query set for the timed comparisons.
const ROUNDS: usize = 30;

/// Modifications journaled before the simulated crash in part 4.
const JOURNALED_OPS: usize = 24;

/// One point of the error-rate sweep.
#[derive(Debug, Clone)]
pub struct DegradedPoint {
    /// Injected per-call failure probability.
    pub error_rate: f64,
    /// Queries issued.
    pub queries: usize,
    /// Answered by a live IRS evaluation.
    pub fresh: usize,
    /// Answered from the valid result buffer.
    pub buffered: usize,
    /// Answered from an invalidated buffer entry (IRS calls exhausted
    /// retries).
    pub stale: usize,
    /// Surfaced a transient error (no stale copy available).
    pub failed: usize,
    /// Retries performed by the wrapper.
    pub retries: u64,
    /// Logical calls that exhausted the retry budget.
    pub giveups: u64,
}

/// E13 measurements.
#[derive(Debug, Clone)]
pub struct Report {
    /// Paragraphs in the collection.
    pub objects: usize,
    /// Queries per timed pass.
    pub queries_timed: usize,
    /// Uncached query pass without any fault hook, microseconds.
    pub base_query_us: u128,
    /// Same pass with a zero-fault plan + retry wrapper, microseconds.
    pub wrapped_query_us: u128,
    /// Error-rate sweep.
    pub sweep: Vec<DegradedPoint>,
    /// Queries issued during the total outage.
    pub outage_queries: usize,
    /// Outage queries served stale.
    pub outage_stale_served: usize,
    /// Outage queries that failed (never primed).
    pub outage_failed: usize,
    /// Breaker trips during the outage.
    pub breaker_opens: u64,
    /// Calls the open breaker rejected without touching the IRS.
    pub breaker_rejections: u64,
    /// Operations pending in the journal at the simulated crash.
    pub journaled_ops: usize,
    /// `open_system` wall time including journal replay, microseconds.
    pub recovery_open_us: u128,
    /// `open_system` wall time with nothing to replay, microseconds.
    pub clean_open_us: u128,
}

/// Run E13.
pub fn run(config: &WorkloadConfig) -> Report {
    let mut cs = build_corpus_system(config);
    with_para_collection(&mut cs, "coll", CollectionSetup::default());
    let objects = cs.para_truth.len();
    let queries: Vec<String> = (0..cs.topics.min(6)).map(topic_term).collect();
    let queries_timed = queries.len() * ROUNDS;

    // --- 1. Wrapper overhead: no plan vs. zero-fault plan. ---
    let base_query_us = {
        let coll = cs.sys.collection("coll").expect("collection exists");
        let t0 = Instant::now();
        for _ in 0..ROUNDS {
            for q in &queries {
                coll.evaluate_uncached(q).expect("query evaluates");
            }
        }
        t0.elapsed().as_micros()
    };
    let wrapped_query_us = {
        let mut coll = cs.sys.collection_mut("coll").expect("collection exists");
        coll.inject_faults(Some(Arc::new(FaultPlan::new(1)))); // injects nothing
        let t0 = Instant::now();
        for _ in 0..ROUNDS {
            for q in &queries {
                coll.evaluate_uncached(q).expect("query evaluates");
            }
        }
        let us = t0.elapsed().as_micros();
        coll.inject_faults(None);
        us
    };

    // --- 2. Degraded serving across an error-rate sweep. ---
    let mut sweep = Vec::new();
    for (i, &error_rate) in ERROR_RATES.iter().enumerate() {
        let name = format!("fault{i}");
        with_para_collection(&mut cs, &name, CollectionSetup::default());
        let point = {
            let mut coll = cs.sys.collection_mut(&name).expect("collection exists");
            // Prime every query, then invalidate (as an update burst
            // would) so stale copies exist for degraded serving.
            for q in &queries {
                coll.get_irs_result(q).expect("priming succeeds");
            }
            coll.buffer().invalidate_all();
            coll.inject_faults(Some(Arc::new(
                FaultPlan::new(100 + i as u64).with_error_rate(error_rate),
            )));
            let (mut fresh, mut buffered, mut stale, mut failed) = (0, 0, 0, 0);
            for _ in 0..ROUNDS {
                for q in &queries {
                    match coll.get_irs_result_with_origin(q) {
                        Ok((_, ResultOrigin::Fresh)) => fresh += 1,
                        Ok((_, ResultOrigin::Buffered)) => buffered += 1,
                        Ok((_, ResultOrigin::Stale)) => stale += 1,
                        Err(_) => failed += 1,
                    }
                }
            }
            let fs = coll.fault_stats();
            DegradedPoint {
                error_rate,
                queries: queries.len() * ROUNDS,
                fresh,
                buffered,
                stale,
                failed,
                retries: fs.retries,
                giveups: fs.giveups,
            }
        };
        sweep.push(point);
    }

    // --- 3. Total outage: stale serving + circuit breaking. ---
    with_para_collection(&mut cs, "outage", CollectionSetup::default());
    let (outage_stale_served, outage_failed, breaker_opens, breaker_rejections) = {
        let mut coll = cs.sys.collection_mut("outage").expect("collection exists");
        for q in &queries {
            coll.get_irs_result(q).expect("priming succeeds");
        }
        coll.buffer().invalidate_all();
        let plan = Arc::new(FaultPlan::new(999));
        plan.set_down(true);
        coll.inject_faults(Some(plan));
        let (mut stale, mut failed) = (0, 0);
        for _ in 0..ROUNDS {
            for q in &queries {
                match coll.get_irs_result_with_origin(q) {
                    Ok((_, ResultOrigin::Stale)) => stale += 1,
                    Ok(_) => {}
                    Err(_) => failed += 1,
                }
            }
        }
        let fs = coll.fault_stats();
        (stale, failed, fs.breaker_opens, fs.breaker_rejections)
    };
    let outage_queries = queries.len() * ROUNDS;

    // --- 4. Crash recovery: journal replay inside open_system. ---
    let dir = std::env::temp_dir().join("coupling-bench-e13");
    let _ = std::fs::remove_dir_all(&dir);
    let mut sys = DocumentSystem::new();
    sys.load_sgml(
        "<MMFDOC><DOCTITLE>Faults</DOCTITLE>\
         <PARA>telnet is a protocol</PARA><PARA>the www grows</PARA></MMFDOC>",
    )
    .expect("document loads");
    sys.create_collection("collPara", CollectionSetup::default())
        .expect("fresh name");
    sys.index_collection("collPara", "ACCESS p FROM p IN PARA")
        .expect("indexing succeeds");
    save_system(&mut sys, &dir).expect("system saves");
    let para = sys.query("ACCESS p FROM p IN PARA").expect("queries")[0]
        .oid()
        .expect("object row");
    let mut prop = Propagator::with_journal(
        PropagationStrategy::Deferred,
        &journal_path(&dir, "collPara"),
    )
    .expect("journal opens");
    for i in 0..JOURNALED_OPS {
        sys.update_text(
            para,
            &format!("revision {i} of the telnet paragraph"),
            &mut [("collPara", &mut prop)],
        )
        .expect("update records");
    }
    let journaled_ops = JOURNALED_OPS;
    drop(prop); // crash: pending op never flushed
    drop(sys);
    let t0 = Instant::now();
    let recovered = open_system(&dir).expect("recovery succeeds");
    let recovery_open_us = t0.elapsed().as_micros();
    drop(recovered);
    let t0 = Instant::now();
    open_system(&dir).expect("clean reopen succeeds");
    let clean_open_us = t0.elapsed().as_micros();
    let _ = std::fs::remove_dir_all(&dir);

    Report {
        objects,
        queries_timed,
        base_query_us,
        wrapped_query_us,
        sweep,
        outage_queries,
        outage_stale_served,
        outage_failed,
        breaker_opens,
        breaker_rejections,
        journaled_ops,
        recovery_open_us,
        clean_open_us,
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "E13 — fault-tolerant coupling")?;
        writeln!(
            f,
            "{} objects; {} uncached queries: bare {}us, fault-hooked {}us ({:+.1}%)",
            self.objects,
            self.queries_timed,
            self.base_query_us,
            self.wrapped_query_us,
            (self.wrapped_query_us as f64 / self.base_query_us.max(1) as f64 - 1.0) * 100.0
        )?;
        writeln!(
            f,
            "{:<8} {:>8} {:>7} {:>9} {:>6} {:>7} {:>8} {:>8}",
            "err-rate", "queries", "fresh", "buffered", "stale", "failed", "retries", "giveups"
        )?;
        for p in &self.sweep {
            writeln!(
                f,
                "{:<8} {:>8} {:>7} {:>9} {:>6} {:>7} {:>8} {:>8}",
                p.error_rate,
                p.queries,
                p.fresh,
                p.buffered,
                p.stale,
                p.failed,
                p.retries,
                p.giveups
            )?;
        }
        writeln!(
            f,
            "outage: {}/{} served stale, {} failed; breaker opened {}x, rejected {} calls",
            self.outage_stale_served,
            self.outage_queries,
            self.outage_failed,
            self.breaker_opens,
            self.breaker_rejections
        )?;
        writeln!(
            f,
            "recovery: replaying {} journaled ops in open_system took {}us (clean reopen {}us)",
            self.journaled_ops, self.recovery_open_us, self.clean_open_us
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_degradation_behaviour() {
        let report = run(&WorkloadConfig::small());
        assert_eq!(report.sweep.len(), ERROR_RATES.len());
        // Zero injected errors → nothing stale, nothing failed.
        assert_eq!(report.sweep[0].stale, 0);
        assert_eq!(report.sweep[0].failed, 0);
        assert_eq!(report.sweep[0].giveups, 0);
        for p in &report.sweep {
            assert_eq!(p.fresh + p.buffered + p.stale + p.failed, p.queries);
        }
        // Under total outage every answered query is stale and nothing
        // is fresh; primed queries all answer.
        assert_eq!(
            report.outage_stale_served + report.outage_failed,
            report.outage_queries
        );
        assert!(report.outage_stale_served > 0);
        assert!(report.breaker_opens >= 1);
        assert!(report.recovery_open_us > 0 && report.clean_open_us > 0);
        assert!(report.to_string().contains("E13"));
    }
}
