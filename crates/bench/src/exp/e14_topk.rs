//! E14 — block-max pruned top-k scoring vs. exhaustive ranking.
//!
//! The paper's coupling evaluates `getIRSResult` by ranking *every*
//! represented object, then the OODBMS layer keeps the few best (a
//! threshold predicate, a first results page). This experiment measures
//! the document-at-a-time top-k engine on that hot path at three rungs:
//!
//! * **exhaustive** — score every matching document, sort, truncate;
//! * **collection-bound** — MaxScore-style pruning with per-term
//!   *collection-level* score upper bounds (the pre-block engine,
//!   [`PruneStrategy::CollectionBound`]);
//! * **block-max** — the same skeleton plus per-block `max_tf` skip
//!   headers: candidates that survive the collection-level bound are
//!   re-checked against the much tighter bound of the specific blocks
//!   they appear in, and only survivors of *that* are scored exactly
//!   ([`PruneStrategy::BlockMax`]).
//!
//! All three return exactly the same ranking, bitwise — the experiment
//! verifies this on every cell. The corpus is synthetic with a skewed
//! (quadratic) term distribution: a few very common terms and a long
//! rare tail, the shape under which upper-bound pruning pays off. The
//! full sweep ends at a 10^5-document tier where the block-level skip
//! win over collection-level bounds is made.

use std::time::Instant;

use irs::query::evaluate;
use irs::{
    evaluate_top_k_with_strategy, parse_query, CollectionConfig, DocId, InvertedIndex,
    IrsCollection, PruneStrategy, QueryNode, RetrievalModel,
};

use crate::workload::WorkloadConfig;

/// Result-set sizes swept; `k <= 10` is the paper's threshold-query
/// regime, 100 approximates a generous results page.
pub const K_SWEEP: [usize; 3] = [1, 10, 100];

/// Corpus growth factors over the base size.
const SIZE_FACTORS: [usize; 3] = [1, 4, 16];

/// The large full-run tier (documents): where the block-max scaling
/// claim is made.
pub const LARGE_TIER_DOCS: usize = 100_000;

/// Words per synthetic document (background draws plus bursts).
const DOC_WORDS: usize = 50;

/// Topical bursts per document: like the MMF generator's topic
/// mentions, each document repeats a few terms many times. A term's
/// per-document tf is therefore ~1 across most of its postings list and
/// high only where some document is "about" it — so most 128-entry
/// blocks carry a far lower `max_tf` than the collection-level bound,
/// which is what gives block-max skip headers their pruning power.
/// (Uniform draws would make every block's `max_tf` equal the global
/// one, silently reducing block-max to the collection-bound engine plus
/// overhead.)
const BURSTS_PER_DOC: usize = 2;

/// Repetitions of each burst term within its document. High enough that
/// tf-saturating models (BM25, inference beliefs) still see a clear gap
/// between a flat block's bound and the collection-level bound.
const BURST_LEN: usize = 12;

/// The seeded tombstone variant deletes about one document in this many.
const DELETE_ONE_IN: u64 = 10;

/// Corpus seed shared by the sweep and the tombstone variant.
const SEED: u64 = 0x5eed_0e14;

/// Timed repetitions per (query, k) cell; each query's best (minimum)
/// rep is kept — the standard wall-clock estimator, since scheduling
/// noise only ever adds time — and the per-query minima are summed over
/// the probe set.
const REPS: usize = 5;

/// One measured cell of the sweep.
#[derive(Debug, Clone)]
pub struct TopKPoint {
    /// Documents in the corpus.
    pub docs: usize,
    /// Result-set size.
    pub k: usize,
    /// Block-max pruned latency summed over the probe query set
    /// (per-query minimum across reps), microseconds.
    pub blockmax_us: u128,
    /// Collection-bound pruned latency (the pre-block engine), same
    /// aggregation, microseconds.
    pub collbound_us: u128,
    /// Exhaustive rank-everything latency, same aggregation,
    /// microseconds.
    pub exhaustive_us: u128,
    /// Exhaustive / block-max latency.
    pub speedup: f64,
    /// Collection-bound / block-max latency — the win attributable to
    /// block-level skip metadata alone.
    pub blockmax_vs_collbound: f64,
}

/// E14 measurements.
#[derive(Debug, Clone)]
pub struct Report {
    /// Corpus sizes swept (documents).
    pub sizes: Vec<usize>,
    /// Distinct queries in the probe set.
    pub query_set: usize,
    /// Sweep cells, ordered by (docs, k).
    pub sweep: Vec<TopKPoint>,
    /// True iff both pruned rankings were bitwise identical to the first
    /// k entries of the exhaustive ranking, across the whole sweep.
    pub rankings_match: bool,
}

/// Deterministic xorshift generator (the experiments avoid external RNG
/// dependencies and must be reproducible).
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// A skewed term index in `[0, vocab)`: squaring a uniform variate
/// concentrates mass near 0, giving a few very common terms and a long
/// tail of rare ones.
fn skewed_term(state: &mut u64, vocab: usize) -> usize {
    let u = (xorshift(state) >> 11) as f64 / (1u64 << 53) as f64;
    ((u * u * vocab as f64) as usize).min(vocab - 1)
}

fn term_name(i: usize) -> String {
    format!("t{i:04}")
}

/// Build a skewed synthetic collection of `docs` documents.
fn build_corpus(docs: usize, vocab: usize, seed: u64) -> IrsCollection {
    let mut coll = IrsCollection::new(CollectionConfig::default());
    let mut state = seed | 1;
    let background = DOC_WORDS - BURSTS_PER_DOC * BURST_LEN;
    let batch: Vec<(String, String)> = (0..docs)
        .map(|i| {
            let mut words: Vec<String> = (0..background)
                .map(|_| term_name(skewed_term(&mut state, vocab)))
                .collect();
            for _ in 0..BURSTS_PER_DOC {
                // Uniform (not skewed) topical draw: burstiness must be
                // rare *within* each term's postings list, or every block
                // of a common term would contain a burst and its block
                // `max_tf` would degenerate to the collection-level one.
                let topical = term_name(xorshift(&mut state) as usize % vocab);
                words.extend(std::iter::repeat_n(topical, BURST_LEN));
            }
            (format!("doc{i:06}"), words.join(" "))
        })
        .collect();
    coll.add_documents(&batch).expect("corpus indexes");
    coll
}

/// The probe queries: single terms and operator trees mixing common
/// (low-index), mid-frequency, and rarer terms — the shapes
/// `getIRSResult` sees. Mid-frequency topical terms (the MMF topic-query
/// regime) are where block skipping has the most room to work.
fn probe_queries() -> Vec<String> {
    vec![
        term_name(0),
        term_name(3),
        format!("#or({} {})", term_name(1), term_name(40)),
        format!("#sum({} {} {})", term_name(0), term_name(2), term_name(25)),
        format!("#wsum(3 {} 1 {})", term_name(1), term_name(60)),
        format!(
            "#sum({} {} {})",
            term_name(150),
            term_name(400),
            term_name(800)
        ),
        format!("#or({} {})", term_name(100), term_name(300)),
    ]
}

/// The first `k` entries of the exhaustive ranking of `node` over `ix`
/// (score descending, key ascending).
fn exhaustive_top_k(
    ix: &InvertedIndex,
    model: &dyn RetrievalModel,
    node: &QueryNode,
    k: usize,
) -> Vec<(DocId, f64)> {
    let mut full: Vec<(DocId, f64)> = evaluate(ix, model, node).into_iter().collect();
    full.sort_by(|a, b| {
        b.1.total_cmp(&a.1)
            .then_with(|| ix.store().entry(a.0).key.cmp(&ix.store().entry(b.0).key))
    });
    full.truncate(k);
    full
}

/// Whether `pruned` is exactly `full`: same documents, bitwise the same
/// scores.
fn same_ranking(pruned: &[(DocId, f64)], full: &[(DocId, f64)]) -> bool {
    pruned.len() == full.len()
        && pruned
            .iter()
            .zip(full)
            .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
}

/// The ranking gate with tombstones in the index: build the base-size
/// corpus, delete about one document in [`DELETE_ONE_IN`] (seeded), and
/// check that both pruned strategies — whose `df` then comes from the
/// maintained dead-postings counts, not from the list length — still
/// return exactly the exhaustive ranking, on the merged snapshot and
/// through the collection's own sharded reader, for every probe query
/// and `k` of the sweep.
pub fn tombstoned_rankings_match(config: &WorkloadConfig) -> bool {
    let docs = config.corpus.docs * 5;
    let mut coll = build_corpus(docs, config.corpus.vocabulary.max(100), SEED);
    let mut state = SEED.rotate_left(17) | 1;
    let mut deleted = 0;
    for i in 0..docs {
        if xorshift(&mut state).is_multiple_of(DELETE_ONE_IN) {
            coll.delete_document(&format!("doc{i:06}"))
                .expect("corpus key is live");
            deleted += 1;
        }
    }
    assert!(
        deleted > 0,
        "the seeded variant tombstones at least one document"
    );
    let ix = coll.index_snapshot();
    let model = coll.config().model.as_model();
    probe_queries().iter().all(|q| {
        let node = parse_query(q).expect("probe query parses");
        let all = coll.search(q).expect("probe query searches");
        K_SWEEP.iter().all(|&k| {
            let top = coll.search_top_k(q, k).expect("probe query searches");
            top.len() == k.min(all.len())
                && top
                    .iter()
                    .zip(&all)
                    .all(|(a, b)| a.key == b.key && a.score.to_bits() == b.score.to_bits())
                && [PruneStrategy::BlockMax, PruneStrategy::CollectionBound]
                    .into_iter()
                    .all(|strategy| {
                        let pruned = evaluate_top_k_with_strategy(&ix, model, &node, k, strategy)
                            .expect("probe query is prunable");
                        same_ranking(&pruned, &exhaustive_top_k(&ix, model, &node, k))
                    })
        })
    })
}

/// Sum of per-query minima: `samples` holds `reps` consecutive timings
/// per query; the best rep of each query is kept and the bests summed.
fn query_set_total(samples: &[u128], reps: usize) -> u128 {
    samples
        .chunks(reps)
        .map(|c| c.iter().copied().min().unwrap_or(0))
        .sum()
}

/// Run E14. Corpus sizes scale with the workload (`--small` keeps the
/// sweep fast); with `include_large_tier` the sweep additionally runs
/// the [`LARGE_TIER_DOCS`] corpus, where the speedup claim is made.
pub fn run(config: &WorkloadConfig, include_large_tier: bool) -> Report {
    let base = config.corpus.docs * 5;
    let vocab = config.corpus.vocabulary.max(100);
    let mut sizes: Vec<usize> = SIZE_FACTORS.iter().map(|f| f * base).collect();
    if include_large_tier {
        sizes.push(LARGE_TIER_DOCS);
    }
    let queries = probe_queries();
    let mut sweep = Vec::new();
    let mut rankings_match = true;

    for &docs in &sizes {
        let coll = build_corpus(docs, vocab, SEED);
        // Measure at the engine level over one merged snapshot: all
        // three rungs share the identical index, model, and parsed tree,
        // so the timings differ only by evaluation strategy.
        let ix = coll.index_snapshot();
        let model = coll.config().model.as_model();
        let nodes: Vec<_> = queries
            .iter()
            .map(|q| parse_query(q).expect("probe query parses"))
            .collect();
        for &k in &K_SWEEP {
            let mut blockmax_samples = Vec::new();
            let mut collbound_samples = Vec::new();
            let mut exhaustive_samples = Vec::new();
            for node in &nodes {
                for _ in 0..REPS {
                    let t0 = Instant::now();
                    let bm =
                        evaluate_top_k_with_strategy(&ix, model, node, k, PruneStrategy::BlockMax)
                            .expect("probe query is prunable");
                    blockmax_samples.push(t0.elapsed().as_micros());

                    let t0 = Instant::now();
                    let cb = evaluate_top_k_with_strategy(
                        &ix,
                        model,
                        node,
                        k,
                        PruneStrategy::CollectionBound,
                    )
                    .expect("probe query is prunable");
                    collbound_samples.push(t0.elapsed().as_micros());

                    let t0 = Instant::now();
                    let full = exhaustive_top_k(&ix, model, node, k);
                    exhaustive_samples.push(t0.elapsed().as_micros());

                    // The win only counts if the ranking is untouched:
                    // same documents, bitwise the same scores, under
                    // both prune strategies.
                    if !same_ranking(&bm, &full) || !same_ranking(&cb, &full) {
                        rankings_match = false;
                    }
                }
            }
            let blockmax_us = query_set_total(&blockmax_samples, REPS);
            let collbound_us = query_set_total(&collbound_samples, REPS);
            let exhaustive_us = query_set_total(&exhaustive_samples, REPS);
            sweep.push(TopKPoint {
                docs,
                k,
                blockmax_us,
                collbound_us,
                exhaustive_us,
                speedup: exhaustive_us.max(1) as f64 / blockmax_us.max(1) as f64,
                blockmax_vs_collbound: collbound_us.max(1) as f64 / blockmax_us.max(1) as f64,
            });
        }
    }

    Report {
        sizes,
        query_set: queries.len(),
        sweep,
        rankings_match,
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "E14 — block-max top-k vs. collection-bound vs. exhaustive"
        )?;
        writeln!(
            f,
            "{} probe queries, corpus sizes {:?}, best of {} reps summed over the query set",
            self.query_set, self.sizes, REPS
        )?;
        writeln!(
            f,
            "{:<10} {:>6} {:>13} {:>14} {:>14} {:>9} {:>9}",
            "docs", "k", "blockmax(us)", "collbound(us)", "exhaustive(us)", "speedup", "vs-cb"
        )?;
        for p in &self.sweep {
            writeln!(
                f,
                "{:<10} {:>6} {:>13} {:>14} {:>14} {:>9.2} {:>9.2}",
                p.docs,
                p.k,
                p.blockmax_us,
                p.collbound_us,
                p.exhaustive_us,
                p.speedup,
                p.blockmax_vs_collbound
            )?;
        }
        writeln!(
            f,
            "rankings bitwise identical: {}",
            if self.rankings_match {
                "yes"
            } else {
                "NO — REGRESSION"
            }
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_sweep_covers_sizes_and_k_and_rankings_match() {
        let mut config = WorkloadConfig::small();
        // Shrink further: the shape test checks structure, not speed.
        config.corpus.docs = 8;
        let report = run(&config, false);
        assert_eq!(report.sizes.len(), SIZE_FACTORS.len());
        assert_eq!(report.sweep.len(), SIZE_FACTORS.len() * K_SWEEP.len());
        for p in &report.sweep {
            assert!(p.blockmax_us > 0 || p.exhaustive_us > 0 || p.speedup >= 1.0);
            assert!(K_SWEEP.contains(&p.k));
            assert!(report.sizes.contains(&p.docs));
        }
        assert!(report.rankings_match, "pruning must not change rankings");
        assert!(tombstoned_rankings_match(&config), "nor must tombstones");
        assert!(report.to_string().contains("E14"));
        assert!(report.to_string().contains("collbound"));
    }
}
