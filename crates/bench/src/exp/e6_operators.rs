//! E6 — Section 4.5.4: IRS operators duplicated as collection methods.
//!
//! "It is possible to calculate conjunction both in the IRS or the
//! OODBMS. Consider the case that the corresponding collection object
//! already knows intermediate results because they have been buffered …
//! Then the second alternative is particularly appealing."
//!
//! The experiment times `#and(a b)` evaluated (1) by the IRS from
//! scratch, (2) by the IRS with the composite result buffered, and
//! (3) inside the OODBMS by combining buffered per-term results via
//! `IRSOperatorAND`. It also checks the two computations agree (the
//! prerequisite of "precise knowledge of the IRS-operators' semantics").

use std::time::Instant;

use coupling::ops::irs_and;
use coupling::CollectionSetup;
use sgml::gen::topic_term;

use crate::workload::{build_corpus_system, with_para_collection, WorkloadConfig};

/// E6 measurements.
#[derive(Debug, Clone)]
pub struct Report {
    /// Composite query evaluated cold in the IRS, microseconds.
    pub irs_cold_us: u128,
    /// Composite query answered from the buffer, nanoseconds per lookup
    /// over a batch of [`WARM_LOOKUPS`].
    pub irs_warm_ns: u128,
    /// OODBMS-side AND over buffered per-term results, microseconds.
    pub oodbms_and_us: u128,
    /// Largest absolute disagreement between IRS-side and OODBMS-side
    /// values (must be ~0).
    pub max_disagreement: f64,
    /// Documents in the combined result.
    pub result_size: usize,
}

/// Buffered lookups timed together: one alone takes less than the
/// microsecond the other rows are measured in.
pub const WARM_LOOKUPS: u32 = 1000;

/// Run E6.
pub fn run(config: &WorkloadConfig) -> Report {
    let mut cs = build_corpus_system(config);
    with_para_collection(&mut cs, "coll", CollectionSetup::default());
    let (a, b) = (topic_term(0), topic_term(1));
    let composite = format!("#and({a} {b})");

    let coll = cs.sys.collection("coll").expect("collection exists");

    // (1) Cold composite in the IRS.
    let t0 = Instant::now();
    let direct = coll
        .get_irs_result(&composite)
        .expect("composite evaluates");
    let irs_cold_us = t0.elapsed().as_micros();

    // (2) Warm composite (buffered), per lookup over a batch.
    let t1 = Instant::now();
    for _ in 0..WARM_LOOKUPS {
        std::hint::black_box(coll.get_irs_result(&composite).expect("buffered"));
    }
    let irs_warm_ns = t1.elapsed().as_nanos() / u128::from(WARM_LOOKUPS);

    // Buffer the per-term results, then (3) combine in the OODBMS.
    let ra = coll.get_irs_result(&a).expect("term a");
    let rb = coll.get_irs_result(&b).expect("term b");
    let t2 = Instant::now();
    let combined = irs_and(&[&ra, &rb]);
    let oodbms_and_us = t2.elapsed().as_micros();

    // Agreement on the documents the IRS returned.
    let mut max_disagreement = 0.0f64;
    for (oid, v) in &direct {
        let c = combined.get(oid).copied().unwrap_or(0.0);
        max_disagreement = max_disagreement.max((c - v).abs());
    }

    Report {
        irs_cold_us,
        irs_warm_ns,
        oodbms_and_us,
        max_disagreement,
        result_size: direct.len(),
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "E6 — Section 4.5.4: operator placement for #and(a b)")?;
        writeln!(f, "{:<34} {:>10}", "variant", "time")?;
        writeln!(f, "{:<34} {:>10} us", "IRS, cold", self.irs_cold_us)?;
        writeln!(
            f,
            "{:<34} {:>10} ns per lookup",
            "IRS, warm (result buffered)", self.irs_warm_ns
        )?;
        writeln!(
            f,
            "{:<34} {:>10} us",
            "OODBMS AND over buffered terms", self.oodbms_and_us
        )?;
        writeln!(
            f,
            "agreement: max |IRS - OODBMS| = {:.2e} over {} documents",
            self.max_disagreement, self.result_size
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_semantics_agree_and_buffered_paths_are_cheap() {
        let report = run(&WorkloadConfig::small());
        assert!(report.result_size > 0, "conjunction matches something");
        assert!(
            report.max_disagreement < 1e-9,
            "operator algebra must match the IRS ({:.3e})",
            report.max_disagreement
        );
        // Combining buffered intermediates beats a cold IRS evaluation —
        // the paper's case for OODBMS-side operators.
        assert!(
            report.oodbms_and_us <= report.irs_cold_us,
            "warm OODBMS AND ({}us) should not exceed cold IRS ({}us)",
            report.oodbms_and_us,
            report.irs_cold_us
        );
        assert!(
            report.irs_warm_ns > 0,
            "a batch of lookups takes measurable time"
        );
        assert!(report.to_string().contains("agreement"));
    }
}
