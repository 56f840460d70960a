//! E5 — Section 4.5.3: mixed-query evaluation strategies.
//!
//! Sweeps structural selectivity (fraction of publication years
//! accepted) against content selectivity (a rare topic term vs. a common
//! background word) and measures the work each strategy performs.
//! Expected shape: IRS-first examines far fewer objects when the content
//! predicate is selective; with unselective content and selective
//! structure, independent evaluation approaches it (and the IRS-first
//! advantage vanishes) — the crossover the paper's discussion implies.
//! Both orders are forced with [`execute_mixed`]; a third column runs
//! the §4.5.4 planner ([`evaluate_mixed_planned`]), whose structural
//! checks must equal the cheaper forced column at every sweep point.

use std::time::Instant;

use coupling::mixed::{evaluate_mixed_planned, execute_mixed, MixedStrategy};
use coupling::CollectionSetup;
use oodb::{Database, Oid, Value};
use sgml::gen::topic_term;

use crate::workload::{build_corpus_system, with_para_collection, WorkloadConfig};

/// One sweep point.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Content query used.
    pub content_query: String,
    /// Number of accepted years (1 = most selective structure).
    pub years_accepted: usize,
    /// Structural checks under Independent.
    pub independent_checks: usize,
    /// Structural checks under IrsFirst.
    pub irs_first_checks: usize,
    /// Structural checks under the planner's choice.
    pub planner_checks: usize,
    /// The order the planner chose.
    pub planner_strategy: MixedStrategy,
    /// Wall time Independent, microseconds.
    pub independent_us: u128,
    /// Wall time IrsFirst, microseconds.
    pub irs_first_us: u128,
    /// Result cardinality (identical across strategies).
    pub results: usize,
}

/// Full E5 report.
#[derive(Debug, Clone)]
pub struct Report {
    /// Sweep grid rows.
    pub rows: Vec<SweepRow>,
    /// Total paragraphs (the Independent structural cost).
    pub paragraphs: usize,
}

/// Structural predicate: containing document's YEAR within the first
/// `n` years of {1993..1996}.
fn year_in_first(n: usize) -> impl Fn(&Database, Oid) -> bool {
    move |db, oid| {
        let ctx = db.method_ctx();
        let Ok(Value::Oid(doc)) =
            db.methods()
                .invoke(&ctx, "getContaining", oid, &[Value::from("MMFDOC")])
        else {
            return false;
        };
        match db.get_attr(doc, "YEAR") {
            Ok(Value::Str(y)) => y
                .parse::<usize>()
                .map(|y| y >= 1993 && y < 1993 + n)
                .unwrap_or(false),
            _ => false,
        }
    }
}

/// Score threshold: just above the inference default belief (0.4), so
/// any positive evidence qualifies — common words then produce large
/// candidate sets, which is exactly the regime the sweep explores.
const THRESHOLD: f64 = 0.405;

/// Run E5.
pub fn run(config: &WorkloadConfig) -> Report {
    let mut cs = build_corpus_system(config);
    with_para_collection(&mut cs, "coll", CollectionSetup::default());
    let paragraphs = cs.para_truth.len();

    // Content queries: a topic term (selective) and an unselective Zipf
    // background word. The very top Zipf ranks occur in *every*
    // paragraph, which drives their idf-normalised belief to the default
    // floor (below any useful threshold), so pick the first background
    // word whose candidate set exceeds a third of the paragraphs while
    // still scoring above the threshold.
    let common_word = {
        let coll = cs.sys.collection("coll").expect("collection exists");
        (3..60)
            .map(|k| format!("w{k:04}"))
            .find(|w| {
                let result = coll.get_irs_result(w).expect("query evaluates");
                let above = result.values().filter(|&&v| v > THRESHOLD).count();
                above > paragraphs / 3
            })
            .unwrap_or_else(|| "w0010".to_string())
    };
    let content_queries = vec![topic_term(0), common_word];

    let mut rows = Vec::new();
    for q in &content_queries {
        for years in [1usize, 2, 4] {
            let pred = year_in_first(years);
            let coll = cs.sys.collection("coll").expect("collection exists");
            let db = coll.db();
            let para = db.schema().class_id("PARA").expect("class exists");
            let content = coll.get_irs_result(q).expect("query evaluates");
            let forced = |strategy| {
                let t = Instant::now();
                let (oids, checks) = execute_mixed(db, para, &pred, &content, THRESHOLD, strategy);
                (oids, checks, t.elapsed().as_micros())
            };
            let (indep, indep_checks, indep_us) = forced(MixedStrategy::Independent);
            let (first, first_checks, first_us) = forced(MixedStrategy::IrsFirst);
            assert_eq!(indep, first, "strategies must agree");
            let (planned, plan) = evaluate_mixed_planned(
                db,
                &coll,
                "PARA",
                &pred,
                q,
                THRESHOLD,
                MixedStrategy::Independent,
            )
            .expect("planner evaluates");
            assert_eq!(planned.oids, indep, "planner must agree");
            // The count-based gate `scripts/check.sh` runs: counts repeat
            // exactly, so this needs no timing and no tolerance.
            assert_eq!(
                planned.structural_checks,
                indep_checks.min(first_checks),
                "planner ({plan:?}) must do the cheaper order's structural work"
            );
            rows.push(SweepRow {
                content_query: q.clone(),
                years_accepted: years,
                independent_checks: indep_checks,
                irs_first_checks: first_checks,
                planner_checks: planned.structural_checks,
                planner_strategy: plan.strategy,
                independent_us: indep_us,
                irs_first_us: first_us,
                results: indep.len(),
            });
        }
    }
    Report { rows, paragraphs }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "E5 — Section 4.5.3: mixed-query strategies ({} paragraphs total)",
            self.paragraphs
        )?;
        writeln!(
            f,
            "{:<12} {:>6} {:>12} {:>12} {:>12} {:>12} {:>10} {:>10} {:>8}",
            "content",
            "years",
            "indep-chk",
            "irsfirst-chk",
            "planner-chk",
            "planner",
            "indep(us)",
            "first(us)",
            "results"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<12} {:>6} {:>12} {:>12} {:>12} {:>12} {:>10} {:>10} {:>8}",
                r.content_query,
                r.years_accepted,
                r.independent_checks,
                r.irs_first_checks,
                r.planner_checks,
                format!("{:?}", r.planner_strategy),
                r.independent_us,
                r.irs_first_us,
                r.results
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_irs_first_wins_on_selective_content() {
        let report = run(&WorkloadConfig::small());
        // Selective topic query: IRS-first checks far fewer objects.
        let topical: Vec<&SweepRow> = report
            .rows
            .iter()
            .filter(|r| r.content_query.starts_with("topic"))
            .collect();
        for r in &topical {
            assert_eq!(r.independent_checks, report.paragraphs);
            assert!(
                r.irs_first_checks < r.independent_checks / 2,
                "selective content: {} vs {}",
                r.irs_first_checks,
                r.independent_checks
            );
        }
        // Unselective content (common background word): the IRS-first
        // candidate set approaches the extent, eroding its advantage.
        let common: Vec<&SweepRow> = report
            .rows
            .iter()
            .filter(|r| r.content_query.starts_with('w'))
            .collect();
        let min_topical = topical.iter().map(|r| r.irs_first_checks).min().unwrap();
        let max_common = common.iter().map(|r| r.irs_first_checks).max().unwrap();
        assert!(
            max_common > min_topical,
            "common word yields a larger candidate set ({max_common} vs {min_topical})"
        );
        assert!(report.to_string().contains("irsfirst-chk"));
    }
}
