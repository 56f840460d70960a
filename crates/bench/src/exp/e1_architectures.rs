//! E1 — Figure 1: the three loose-coupling architectures.
//!
//! The same mixed query ("paragraphs of 1994 documents relevant to a
//! topic") runs under each architecture; they differ in who coordinates
//! and how results cross system boundaries:
//!
//! 1. **Control module** — a third component drives both systems
//!    (COINS [CST92], HYDRA [GTZ93]). The IRS ships its result through a
//!    file that the module parses (the paper's own prototype did this:
//!    "Currently the IRS writes the result to a file which is parsed
//!    afterwards"), the OODBMS ships its structural result, and the
//!    module intersects.
//! 2. **IRS as control component** — the application talks to the IRS;
//!    structural verification requires one narrow call into the DBMS
//!    *per content hit*.
//! 3. **DBMS as control component** — the paper's choice. The query
//!    runs inside the OODBMS; the IRS is consulted once through the
//!    coupling's buffered API.
//!
//! Metrics: interface crossings, result files exchanged, wall-clock
//! latency. Expected shape (paper Section 3): DBMS-control needs the
//! fewest crossings and no file exchange — alternative (3) gets query
//! processing "for free", and the others "will not be considered any
//! more".

use std::path::PathBuf;
use std::time::Instant;

use coupling::{Collection, CollectionSetup, Result};
use oodb::{Database, Oid, Value};
use sgml::gen::topic_term;

use crate::workload::{build_corpus_system, with_para_collection, WorkloadConfig};

/// Which Figure-1 architecture to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchitectureKind {
    /// Alternative (1): a separate control module coordinates.
    ControlModule,
    /// Alternative (2): the IRS is the control component.
    IrsControl,
    /// Alternative (3): the DBMS is the control component (the paper's
    /// and this crate's architecture).
    DbmsControl,
}

/// Outcome of one architectural evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchOutcome {
    /// Matching objects, ascending by OID.
    pub oids: Vec<Oid>,
    /// Cross-system interface crossings performed.
    pub interface_crossings: u64,
    /// Result files written and parsed.
    pub files_exchanged: u64,
}

/// Evaluate "objects of `class` where `structural` holds AND IRS value
/// of `irs_query` > `threshold`" under the given architecture.
pub fn evaluate(
    kind: ArchitectureKind,
    db: &Database,
    coll: &mut Collection,
    class: &str,
    structural: &dyn Fn(&Database, Oid) -> bool,
    irs_query: &str,
    threshold: f64,
) -> Result<ArchOutcome> {
    let class_id = db.schema().class_id(class)?;
    let mut crossings = 0u64;
    let mut files = 0u64;
    let mut oids: Vec<Oid>;

    match kind {
        ArchitectureKind::DbmsControl => {
            // One buffered call into the IRS; everything else stays in
            // the DBMS process.
            crossings += 1;
            let content = coll.get_irs_result(irs_query)?;
            oids = db
                .extent(class_id, true)
                .into_iter()
                .filter(|&oid| {
                    content.get(&oid).copied().unwrap_or(0.0) > threshold && structural(db, oid)
                })
                .collect();
        }
        ArchitectureKind::ControlModule => {
            // Module → DBMS: structural result set.
            crossings += 1;
            let structural_hits: Vec<Oid> = db
                .extent(class_id, true)
                .into_iter()
                .filter(|&oid| structural(db, oid))
                .collect();
            // Module → IRS: content query; result returned via file.
            crossings += 1;
            let content = coll.get_irs_result(irs_query)?;
            let path = temp_result_file();
            let as_pairs: Vec<(String, f64)> = content
                .iter()
                .map(|(oid, v)| (oid.to_string(), *v))
                .collect();
            result_file::write(&path, &as_pairs)?;
            files += 1;
            // Module parses the file and intersects.
            let parsed = result_file::read(&path)?;
            let _ = std::fs::remove_file(&path);
            let above: std::collections::HashSet<Oid> = parsed
                .into_iter()
                .filter(|(_, v)| *v > threshold)
                .filter_map(|(k, _)| Oid::parse(&k))
                .collect();
            oids = structural_hits
                .into_iter()
                .filter(|oid| above.contains(oid))
                .collect();
        }
        ArchitectureKind::IrsControl => {
            // App → IRS: content result.
            crossings += 1;
            let content = coll.get_irs_result(irs_query)?;
            let mut candidates: Vec<Oid> = content
                .iter()
                .filter(|(_, &v)| v > threshold)
                .map(|(&oid, _)| oid)
                .collect();
            candidates.sort();
            // IRS has no database functionality: each structural check is
            // a separate narrow call into the DBMS.
            oids = Vec::new();
            for oid in candidates {
                crossings += 1;
                let Ok(obj) = db.object(oid) else { continue };
                if db.schema().is_subclass(obj.class, class_id) && structural(db, oid) {
                    oids.push(oid);
                }
            }
        }
    }

    oids.sort();
    Ok(ArchOutcome {
        oids,
        interface_crossings: crossings,
        files_exchanged: files,
    })
}

fn temp_result_file() -> PathBuf {
    let dir = std::env::temp_dir().join("coupling-arch");
    let _ = std::fs::create_dir_all(&dir);
    // Process-unique, collision-free within a process run.
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("result-{}-{}.txt", std::process::id(), n))
}

/// The file-based result exchange of the paper's prototype.
mod result_file {
    use std::fs::File;
    use std::io::{BufReader, BufWriter, Read, Write};
    use std::path::Path;

    use irs::{IrsError, Result};

    /// Write `(key, score)` pairs as tab-separated lines.
    pub fn write(path: &Path, results: &[(String, f64)]) -> Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        for (key, score) in results {
            writeln!(w, "{key}\t{score:.10}")?;
        }
        w.flush()?;
        Ok(())
    }

    /// Parse a result file back into `(key, score)` pairs — the
    /// "parsed afterwards to extract the OID-relevance value pairs" step
    /// of the paper's Section 4.5.
    pub fn read(path: &Path) -> Result<Vec<(String, f64)>> {
        let mut text = String::new();
        BufReader::new(File::open(path)?).read_to_string(&mut text)?;
        let mut out = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            let (key, score) = line.split_once('\t').ok_or_else(|| {
                IrsError::CorruptIndex(format!("result file line {} lacks a tab", lineno + 1))
            })?;
            let score: f64 = score.parse().map_err(|_| {
                IrsError::CorruptIndex(format!("result file line {} bad score", lineno + 1))
            })?;
            out.push((key.to_string(), score));
        }
        Ok(out)
    }
}

/// One architecture's measurements.
#[derive(Debug, Clone)]
pub struct ArchRow {
    /// Which architecture.
    pub kind: ArchitectureKind,
    /// Matching objects found.
    pub results: usize,
    /// Cross-system interface crossings.
    pub crossings: u64,
    /// Result files written/parsed.
    pub files: u64,
    /// Wall-clock latency (cold IRS buffer), microseconds.
    pub cold_us: u128,
    /// Wall-clock latency (warm IRS buffer), microseconds.
    pub warm_us: u128,
}

/// Full E1 report.
#[derive(Debug, Clone)]
pub struct Report {
    /// One row per architecture.
    pub rows: Vec<ArchRow>,
}

/// The structural predicate: the containing document's YEAR is 1994.
fn year_is_1994(db: &Database, oid: Oid) -> bool {
    let ctx = db.method_ctx();
    let Ok(Value::Oid(doc)) =
        db.methods()
            .invoke(&ctx, "getContaining", oid, &[Value::from("MMFDOC")])
    else {
        return false;
    };
    matches!(db.get_attr(doc, "YEAR"), Ok(Value::Str(y)) if y == "1994")
}

/// Run E1.
pub fn run(config: &WorkloadConfig) -> Report {
    let mut rows = Vec::new();
    let query = topic_term(0);
    for kind in [
        ArchitectureKind::DbmsControl,
        ArchitectureKind::ControlModule,
        ArchitectureKind::IrsControl,
    ] {
        // Fresh system per architecture so buffers don't leak across.
        let mut cs = build_corpus_system(config);
        with_para_collection(&mut cs, "coll", CollectionSetup::default());
        let outcome = {
            let mut coll = cs.sys.collection_mut("coll").expect("collection exists");
            let db = coll.db();
            let t0 = Instant::now();
            let out = evaluate(kind, db, &mut coll, "PARA", &year_is_1994, &query, 0.45)
                .expect("architecture evaluation succeeds");
            let cold_us = t0.elapsed().as_micros();
            let t1 = Instant::now();
            let warm = evaluate(kind, db, &mut coll, "PARA", &year_is_1994, &query, 0.45)
                .expect("warm evaluation succeeds");
            let warm_us = t1.elapsed().as_micros();
            assert_eq!(out.oids, warm.oids);
            (out, cold_us, warm_us)
        };
        let (out, cold_us, warm_us) = outcome;
        rows.push(ArchRow {
            kind,
            results: out.oids.len(),
            crossings: out.interface_crossings,
            files: out.files_exchanged,
            cold_us,
            warm_us,
        });
    }
    Report { rows }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "E1 — Figure 1: coupling architectures (same mixed query)"
        )?;
        writeln!(
            f,
            "{:<16} {:>8} {:>10} {:>6} {:>10} {:>10}",
            "architecture", "results", "crossings", "files", "cold(us)", "warm(us)"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<16} {:>8} {:>10} {:>6} {:>10} {:>10}",
                format!("{:?}", r.kind),
                r.results,
                r.crossings,
                r.files,
                r.cold_us,
                r.warm_us
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgml::{load_document, parse_document};

    #[test]
    fn shape_dbms_control_fewest_crossings() {
        let report = run(&WorkloadConfig::small());
        assert_eq!(report.rows.len(), 3);
        let by_kind = |k: ArchitectureKind| {
            report
                .rows
                .iter()
                .find(|r| r.kind == k)
                .expect("row present")
                .clone()
        };
        let dbms = by_kind(ArchitectureKind::DbmsControl);
        let module = by_kind(ArchitectureKind::ControlModule);
        let irsctl = by_kind(ArchitectureKind::IrsControl);
        // All agree on result count.
        assert_eq!(dbms.results, module.results);
        assert_eq!(dbms.results, irsctl.results);
        // The paper's argument: DBMS-control wins on coordination cost.
        assert!(dbms.crossings < module.crossings);
        assert!(module.crossings <= irsctl.crossings);
        assert_eq!(dbms.files, 0);
        assert_eq!(module.files, 1);
        let text = report.to_string();
        assert!(text.contains("DbmsControl"));
    }

    fn setup() -> (Database, Collection) {
        let mut db = Database::in_memory();
        db.define_class("IRSObject", None).unwrap();
        for i in 0..8 {
            let topic = if i < 4 { "telnet" } else { "www" };
            let tree = parse_document(&format!(
                "<MMFDOC><PARA>paragraph {i} about {topic} usage</PARA></MMFDOC>"
            ))
            .unwrap();
            let mut txn = db.begin();
            let l = load_document(&mut db, &mut txn, &tree, "IRSObject").unwrap();
            db.set_attr(&mut txn, l.elements[1].1, "pos", Value::Int(i))
                .unwrap();
            db.commit(txn).unwrap();
        }
        let mut coll = Collection::new("c", CollectionSetup::default());
        coll.index_objects(&db, "ACCESS p FROM p IN PARA").unwrap();
        (db, coll)
    }

    fn even_pos(db: &Database, oid: Oid) -> bool {
        db.get_attr(oid, "pos")
            .ok()
            .and_then(|v| v.as_f64())
            .is_some_and(|p| (p as i64) % 2 == 0)
    }

    #[test]
    fn all_architectures_agree_on_results() {
        let (db, mut coll) = setup();
        let mut results = Vec::new();
        for kind in [
            ArchitectureKind::DbmsControl,
            ArchitectureKind::ControlModule,
            ArchitectureKind::IrsControl,
        ] {
            let out = evaluate(kind, &db, &mut coll, "PARA", &even_pos, "telnet", 0.4).unwrap();
            results.push(out.oids);
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
        assert_eq!(results[0].len(), 2, "paras 0 and 2");
    }

    #[test]
    fn dbms_control_minimises_crossings() {
        let (db, mut coll) = setup();
        let dbms = evaluate(
            ArchitectureKind::DbmsControl,
            &db,
            &mut coll,
            "PARA",
            &even_pos,
            "telnet",
            0.4,
        )
        .unwrap();
        let module = evaluate(
            ArchitectureKind::ControlModule,
            &db,
            &mut coll,
            "PARA",
            &even_pos,
            "telnet",
            0.4,
        )
        .unwrap();
        let irsctl = evaluate(
            ArchitectureKind::IrsControl,
            &db,
            &mut coll,
            "PARA",
            &even_pos,
            "telnet",
            0.4,
        )
        .unwrap();
        assert_eq!(dbms.interface_crossings, 1);
        assert_eq!(dbms.files_exchanged, 0);
        assert_eq!(module.interface_crossings, 2);
        assert_eq!(module.files_exchanged, 1);
        // IRS-control pays one crossing per content hit (4 telnet paras).
        assert_eq!(irsctl.interface_crossings, 1 + 4);
        assert!(dbms.interface_crossings < module.interface_crossings);
        assert!(module.interface_crossings < irsctl.interface_crossings);
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("coupling-bench-e1-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}-{name}", std::process::id()))
    }

    #[test]
    fn result_file_round_trip() {
        let path = tmp("results.txt");
        let results = vec![("oid:42".to_string(), 0.875), ("oid:7".to_string(), 0.25)];
        result_file::write(&path, &results).unwrap();
        let back = result_file::read(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].0, "oid:42");
        assert!((back[0].1 - 0.875).abs() < 1e-9);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn result_file_rejects_malformed_lines() {
        let path = tmp("bad_results.txt");
        std::fs::write(&path, "no-tab-here\n").unwrap();
        assert!(result_file::read(&path).is_err());
        std::fs::write(&path, "key\tnot-a-number\n").unwrap();
        assert!(result_file::read(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
