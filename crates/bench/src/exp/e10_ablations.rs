//! E10 — ablations of the coupling's design choices (not a paper figure;
//! DESIGN.md commits to ablating the load-bearing knobs).
//!
//! Three sweeps:
//!
//! 1. **Analysis pipeline** — stopword removal and stemming change index
//!    size and dictionary size (the IRS cost side of `getText`).
//! 2. **Retrieval model** — the loose coupling's "no confinement to a
//!    certain retrieval paradigm" claim is only valuable if paradigms
//!    actually differ; we measure paragraph-retrieval quality per model
//!    on conjunctive topic queries.
//! 3. **Buffer capacity** — the Figure 3 buffer is LRU-bounded; the
//!    sweep shows the hit-rate knee as capacity approaches the working
//!    set of distinct queries.

use coupling::CollectionSetup;
use irs::analysis::AnalyzerConfig;
use irs::{Bm25Model, InferenceModel, ModelKind, VectorModel};
use sgml::gen::topic_term;

use crate::metrics::{average_precision, rank};
use crate::workload::{and_query, build_corpus_system, with_para_collection, WorkloadConfig};

/// One analyzer configuration's index cost.
#[derive(Debug, Clone)]
pub struct AnalyzerRow {
    /// Configuration label.
    pub config: String,
    /// Distinct terms in the dictionary.
    pub terms: u32,
    /// Compressed postings bytes.
    pub postings_bytes: usize,
}

/// One retrieval model's paragraph-retrieval quality.
#[derive(Debug, Clone)]
pub struct ModelRow {
    /// Model label.
    pub model: String,
    /// MAP over conjunctive topic-pair queries at paragraph granularity.
    pub map: f64,
    /// Distinct score levels for one representative query — graded
    /// models discriminate, the boolean model cannot.
    pub score_levels: usize,
}

/// One buffer capacity's hit rate.
#[derive(Debug, Clone)]
pub struct BufferRow {
    /// LRU capacity (queries).
    pub capacity: usize,
    /// hits / (hits + misses) over the workload.
    pub hit_rate: f64,
}

/// Full E10 report.
#[derive(Debug, Clone)]
pub struct Report {
    /// Analyzer sweep.
    pub analyzer: Vec<AnalyzerRow>,
    /// Model sweep.
    pub models: Vec<ModelRow>,
    /// Buffer capacity sweep (working set size in distinct queries).
    pub buffer: Vec<BufferRow>,
    /// Distinct queries in the buffer workload.
    pub distinct_queries: usize,
}

fn analyzer_configs() -> Vec<(String, AnalyzerConfig)> {
    vec![
        ("stem+stopwords (default)".into(), AnalyzerConfig::default()),
        (
            "no stemming".into(),
            AnalyzerConfig {
                stem: false,
                ..AnalyzerConfig::default()
            },
        ),
        (
            "no stopword removal".into(),
            AnalyzerConfig {
                remove_stopwords: false,
                ..AnalyzerConfig::default()
            },
        ),
        ("exact (neither)".into(), AnalyzerConfig::exact()),
    ]
}

fn model_kinds() -> Vec<(String, ModelKind)> {
    vec![
        (
            "inference (INQUERY)".into(),
            ModelKind::Inference(InferenceModel::default()),
        ),
        ("bm25".into(), ModelKind::Bm25(Bm25Model::default())),
        ("vector".into(), ModelKind::Vector(VectorModel::default())),
        ("boolean".into(), ModelKind::Boolean),
    ]
}

/// Run E10.
pub fn run(config: &WorkloadConfig) -> Report {
    // 1. Analyzer sweep: index cost per pipeline. The synthetic corpus
    //    has no English function words or inflections, so realistic
    //    prose is synthesised from it: stopwords interleaved between
    //    content words and a rotating suffix to exercise stemming.
    let mut analyzer = Vec::new();
    {
        let cs = build_corpus_system(config);
        let connectors = ["the", "of", "and", "in", "a", "to", "is", "for"];
        let suffixes = ["", "s", "ing", "ed"];
        let texts: Vec<String> = cs
            .para_truth
            .keys()
            .filter_map(|&oid| cs.sys.db().get_attr(oid, "text").ok())
            .filter_map(|v| v.as_str().map(str::to_string))
            .map(|t| {
                let mut out = Vec::new();
                for (i, w) in t.split_whitespace().enumerate() {
                    // Letters only — the stemmer passes alphanumeric
                    // soup through untouched.
                    let alpha: String = w
                        .chars()
                        .map(|c| match c.to_digit(10) {
                            Some(d) => (b'a' + d as u8) as char,
                            None => c,
                        })
                        .collect();
                    out.push(format!("{alpha}{}", suffixes[i % suffixes.len()]));
                    out.push(connectors[i % connectors.len()].to_string());
                }
                out.join(" ")
            })
            .collect();
        for (label, cfg) in analyzer_configs() {
            let mut coll = irs::IrsCollection::new(irs::CollectionConfig {
                analyzer: cfg,
                ..Default::default()
            });
            for (i, t) in texts.iter().enumerate() {
                coll.add_document(&format!("p{i}"), t).expect("adds");
            }
            let stats = coll.index_stats();
            analyzer.push(AnalyzerRow {
                config: label,
                terms: stats.term_count,
                postings_bytes: stats.postings_bytes,
            });
        }
    }

    // 2. Model sweep: paragraph MAP on conjunctive queries. A paragraph
    //    is relevant iff it carries both topics (the strictest reading).
    let mut models = Vec::new();
    for (label, kind) in model_kinds() {
        let mut cs = build_corpus_system(config);
        with_para_collection(
            &mut cs,
            "m",
            CollectionSetup {
                irs: irs::CollectionConfig {
                    model: kind,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let pairs: Vec<(usize, usize)> = {
            // Pairs that co-occur within at least one paragraph.
            let mut out = Vec::new();
            for a in 0..cs.topics {
                for b in (a + 1)..cs.topics {
                    if cs
                        .para_truth
                        .values()
                        .any(|(_, ts)| ts.contains(&a) && ts.contains(&b))
                    {
                        out.push((a, b));
                    }
                }
            }
            out.truncate(8);
            out
        };
        let (map, score_levels) = {
            let coll = cs.sys.collection("m").expect("collection exists");
            let mut sum = 0.0;
            let mut levels = 0usize;
            for (i, &(a, b)) in pairs.iter().enumerate() {
                let result = coll.get_irs_result(&and_query(a, b)).expect("query");
                if i == 0 {
                    let mut scores: Vec<u64> = result.values().map(|v| v.to_bits()).collect();
                    scores.sort_unstable();
                    scores.dedup();
                    levels = scores.len();
                }
                let ranked = rank(
                    cs.para_truth
                        .iter()
                        .map(|(&oid, (_, ts))| {
                            let score = result.get(&oid).copied().unwrap_or(0.0);
                            (ts.contains(&a) && ts.contains(&b), score)
                        })
                        .collect(),
                );
                sum += average_precision(&ranked);
            }
            (sum / pairs.len().max(1) as f64, levels)
        };
        models.push(ModelRow {
            model: label,
            map,
            score_levels,
        });
    }

    // 3. Buffer capacity sweep: a round-robin workload over N distinct
    //    queries, two passes — the second pass hits iff the buffer can
    //    hold the working set.
    let distinct_queries = 8usize.min(config.corpus.topics);
    let mut buffer = Vec::new();
    for capacity in [1usize, 2, 4, 8, 16] {
        let mut cs = build_corpus_system(config);
        with_para_collection(
            &mut cs,
            "b",
            CollectionSetup {
                buffer_capacity: capacity,
                ..Default::default()
            },
        );
        let hit_rate = {
            let coll = cs.sys.collection("b").expect("collection exists");
            for _pass in 0..2 {
                for q in 0..distinct_queries {
                    coll.get_irs_result(&topic_term(q)).expect("query");
                }
            }
            let stats = coll.buffer_stats();
            stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64
        };
        buffer.push(BufferRow { capacity, hit_rate });
    }

    Report {
        analyzer,
        models,
        buffer,
        distinct_queries,
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "E10 — ablations")?;
        writeln!(f, "analysis pipeline (index cost):")?;
        writeln!(f, "  {:<28} {:>8} {:>12}", "config", "terms", "bytes")?;
        for r in &self.analyzer {
            writeln!(
                f,
                "  {:<28} {:>8} {:>12}",
                r.config, r.terms, r.postings_bytes
            )?;
        }
        writeln!(f, "retrieval model (paragraph MAP, conjunctive queries):")?;
        writeln!(f, "  {:<28} {:>8} {:>14}", "model", "MAP", "score levels")?;
        for r in &self.models {
            writeln!(f, "  {:<28} {:>8.3} {:>14}", r.model, r.map, r.score_levels)?;
        }
        writeln!(
            f,
            "buffer capacity (hit rate; working set = {} queries x 2 passes):",
            self.distinct_queries
        )?;
        writeln!(f, "  {:<28} {:>8}", "capacity", "hit rate")?;
        for r in &self.buffer {
            writeln!(f, "  {:<28} {:>7.0}%", r.capacity, r.hit_rate * 100.0)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_ablation_effects() {
        let report = run(&WorkloadConfig::small());

        // Stopword removal shrinks the postings; disabling it grows them.
        let by_cfg = |name: &str| {
            report
                .analyzer
                .iter()
                .find(|r| r.config.starts_with(name))
                .expect("row")
                .clone()
        };
        let default = by_cfg("stem+stopwords");
        let no_stop = by_cfg("no stopword");
        let no_stem = by_cfg("no stemming");
        assert!(
            no_stop.postings_bytes > default.postings_bytes,
            "stopwords dominate postings ({} vs {})",
            no_stop.postings_bytes,
            default.postings_bytes
        );
        // Stemming conflates inflections: fewer distinct terms.
        assert!(no_stem.terms >= default.terms);

        // Graded models produce many score levels; the boolean model's
        // conjunction is binary (at most "matched" and "partial" levels).
        let row_of = |name: &str| {
            report
                .models
                .iter()
                .find(|r| r.model.starts_with(name))
                .expect("row")
                .clone()
        };
        assert!(
            row_of("boolean").score_levels <= 2,
            "{:?}",
            row_of("boolean")
        );
        assert!(
            row_of("inference").score_levels > row_of("boolean").score_levels,
            "inference discriminates ({} levels)",
            row_of("inference").score_levels
        );
        for name in ["inference", "bm25", "vector", "boolean"] {
            let m = row_of(name).map;
            assert!((0.0..=1.0).contains(&m) && m > 0.3, "{name}: MAP {m}");
        }

        // Hit rate is monotone in capacity and high once the working set
        // fits.
        for w in report.buffer.windows(2) {
            assert!(w[1].hit_rate >= w[0].hit_rate - 1e-9);
        }
        let last = report.buffer.last().unwrap();
        assert!(
            last.hit_rate > 0.45,
            "full working set ~50% hit rate, got {}",
            last.hit_rate
        );
        assert!(report.to_string().contains("buffer capacity"));
    }
}
