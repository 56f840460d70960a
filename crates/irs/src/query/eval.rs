//! Query evaluation: walks the [`QueryNode`] tree, producing per-document
//! scores under a [`RetrievalModel`].
//!
//! Evaluation is term-at-a-time: every node yields a sparse map
//! `DocId → score`; operator nodes combine child maps over the union of
//! their keys, substituting the model's default score for missing
//! evidence (the inference network's default belief).

use std::collections::HashMap;

use crate::analysis::AnalyzedTerm;
use crate::index::{DocId, ShardedReader};
use crate::model::RetrievalModel;
use crate::query::QueryNode;

/// Sparse per-document scores.
pub type ScoredDocs = HashMap<DocId, f64>;

/// Evaluate `node` against `index` under `model`. The reader pins the
/// document store, so concurrent callers evaluate without exclusive
/// access.
///
/// Documents that contribute no evidence to any leaf are absent from the
/// result (they would uniformly score the combination of default beliefs,
/// which ranks below every document with evidence for monotone operator
/// trees). The exception is `#not` under a bounded model, which
/// materialises over all live documents — negation is inherently
/// closed-world (the paper's Section 6 flags exactly this semantic gap).
pub fn evaluate(
    index: &ShardedReader<'_>,
    model: &dyn RetrievalModel,
    node: &QueryNode,
) -> ScoredDocs {
    match node {
        QueryNode::Term(t) => eval_term(index, model, t),
        QueryNode::Phrase(ts) => eval_phrase(index, model, ts),
        QueryNode::Near { window, terms } => eval_near(index, model, *window, terms),
        QueryNode::And(cs) => combine(index, model, cs, |m, s| m.combine_and(s)),
        QueryNode::Or(cs) => combine(index, model, cs, |m, s| m.combine_or(s)),
        QueryNode::Sum(cs) => combine(index, model, cs, |m, s| m.combine_sum(s)),
        QueryNode::Max(cs) => combine(index, model, cs, |m, s| m.combine_max(s)),
        QueryNode::WSum(ws) => eval_wsum(index, model, ws),
        QueryNode::Not(c) => eval_not(index, model, c),
    }
}

fn eval_term(index: &ShardedReader<'_>, model: &dyn RetrievalModel, raw: &str) -> ScoredDocs {
    let term = index.analyzer().analyze_term(raw);
    let Some(pl) = index.term_postings(&term) else {
        return ScoredDocs::new();
    };
    // Term scoring needs frequencies only; skip the positions blocks.
    let live: Vec<(DocId, u32)> = pl
        .doc_tfs()
        .filter(|&(d, _)| index.is_live(DocId(d)))
        .map(|(d, tf)| (DocId(d), tf))
        .collect();
    score_occurrences(index, model, &live)
}

/// Score `(doc, tf)` occurrence pairs; `df` is their count.
fn score_occurrences(
    index: &ShardedReader<'_>,
    model: &dyn RetrievalModel,
    occurrences: &[(DocId, u32)],
) -> ScoredDocs {
    let df = occurrences.len() as u32;
    let scorer = model.prepare(df, index.live_count(), index.avg_doc_len());
    occurrences
        .iter()
        .map(|&(doc, tf)| (doc, scorer.score(tf, index.doc_entry(doc).len)))
        .collect()
}

/// Per-document position lists for each of `terms` (already analysed),
/// restricted to live documents containing *all* terms. `None` when any
/// term is absent from the index.
///
/// Two-pass: doc ids are intersected first on a positions-skipping decode,
/// then position vectors are materialised only for the surviving
/// candidates — documents filtered out never have their positions decoded
/// or cloned.
fn positional_candidates(
    index: &ShardedReader<'_>,
    terms: &[String],
) -> Option<HashMap<DocId, Vec<Vec<u32>>>> {
    if terms.is_empty() {
        return Some(HashMap::new());
    }
    let mut lists = Vec::with_capacity(terms.len());
    for term in terms {
        lists.push(index.term_postings(term)?);
    }

    // Pass 1: intersect live doc ids (both sides ascending — merge walk).
    let mut survivors: Vec<DocId> = lists[0]
        .doc_tfs()
        .filter(|&(d, _)| index.is_live(DocId(d)))
        .map(|(d, _)| DocId(d))
        .collect();
    for pl in &lists[1..] {
        if survivors.is_empty() {
            return Some(HashMap::new());
        }
        let mut kept = Vec::with_capacity(survivors.len());
        let mut si = 0usize;
        for (d, _) in pl.doc_tfs() {
            while si < survivors.len() && survivors[si].0 < d {
                si += 1;
            }
            if si == survivors.len() {
                break;
            }
            if survivors[si].0 == d {
                kept.push(DocId(d));
                si += 1;
            }
        }
        survivors = kept;
    }
    if survivors.is_empty() {
        return Some(HashMap::new());
    }

    // Pass 2: decode positions only for survivors, in term order.
    let mut out: HashMap<DocId, Vec<Vec<u32>>> = survivors
        .iter()
        .map(|&d| (d, Vec::with_capacity(terms.len())))
        .collect();
    for pl in &lists {
        // Survivors ascend, so the cursor seeks forward block-by-block and
        // decodes positions only at the hits.
        let mut cur = pl.cursor();
        for &doc in &survivors {
            if let Some((d, _)) = cur.seek(doc.0) {
                if d == doc.0 {
                    let positions = cur.positions()?;
                    out.get_mut(&doc).expect("survivor").push(positions);
                }
            }
        }
    }
    // Only a corrupt list loaded from disk holds a document that the linear
    // walk finds and a block seek misses; it lacks some term's positions.
    out.retain(|_, positions| positions.len() == terms.len());
    Some(out)
}

/// Count ordered chains through `lists` where each successive position
/// exceeds its predecessor by at most `window`. Greedy left-to-right
/// matching — the standard proximity-counting strategy.
fn count_near_chains(lists: &[Vec<u32>], window: u32) -> u32 {
    let mut count = 0u32;
    'starts: for &start in &lists[0] {
        let mut prev = start;
        for positions in &lists[1..] {
            // Smallest position strictly after prev.
            let idx = positions.partition_point(|&p| p <= prev);
            match positions.get(idx) {
                Some(&p) if p - prev <= window => prev = p,
                _ => continue 'starts,
            }
        }
        count += 1;
    }
    count
}

fn eval_near(
    index: &ShardedReader<'_>,
    model: &dyn RetrievalModel,
    window: u32,
    raw_terms: &[String],
) -> ScoredDocs {
    let terms: Vec<String> = raw_terms
        .iter()
        .map(|t| index.analyzer().analyze_term(t))
        .collect();
    if terms.is_empty() {
        return ScoredDocs::new();
    }
    let Some(candidates) = positional_candidates(index, &terms) else {
        return ScoredDocs::new();
    };
    let mut occurrences: Vec<(DocId, u32)> = candidates
        .iter()
        .filter_map(|(&doc, lists)| {
            let tf = count_near_chains(lists, window);
            (tf > 0).then_some((doc, tf))
        })
        .collect();
    occurrences.sort_by_key(|(d, _)| *d);
    score_occurrences(index, model, &occurrences)
}

fn eval_phrase(
    index: &ShardedReader<'_>,
    model: &dyn RetrievalModel,
    raw_terms: &[String],
) -> ScoredDocs {
    // Re-analyse the phrase as one text so surviving terms keep their
    // original token distances (stopwords removed from the phrase leave
    // gaps that must also appear in matching documents).
    let text = raw_terms.join(" ");
    let analysed: Vec<AnalyzedTerm> = index.analyzer().analyze(&text);
    if analysed.is_empty() {
        return ScoredDocs::new();
    }
    let base = analysed[0].position;
    let parts: Vec<(&str, u32)> = analysed
        .iter()
        .map(|t| (t.text.as_str(), t.position - base))
        .collect();

    // Per-term position maps, intersecting doc sets as we go.
    let term_texts: Vec<String> = parts.iter().map(|(t, _)| (*t).to_string()).collect();
    let Some(candidate) = positional_candidates(index, &term_texts) else {
        return ScoredDocs::new();
    };

    // Count aligned occurrences per document.
    let mut occurrences: Vec<(DocId, u32)> = Vec::new();
    for (doc, lists) in &candidate {
        let first = &lists[0];
        let mut count = 0u32;
        for &start in first {
            let aligned = parts
                .iter()
                .enumerate()
                .skip(1)
                .all(|(i, (_, off))| lists[i].binary_search(&(start + off)).is_ok());
            if aligned {
                count += 1;
            }
        }
        if count > 0 {
            occurrences.push((*doc, count));
        }
    }
    occurrences.sort_by_key(|(d, _)| *d);
    score_occurrences(index, model, &occurrences)
}

fn combine<F>(
    index: &ShardedReader<'_>,
    model: &dyn RetrievalModel,
    children: &[QueryNode],
    f: F,
) -> ScoredDocs
where
    F: Fn(&dyn RetrievalModel, &[f64]) -> f64,
{
    let maps: Vec<ScoredDocs> = children.iter().map(|c| evaluate(index, model, c)).collect();
    let mut out = ScoredDocs::new();
    let default = model.default_score();
    let mut buf = Vec::with_capacity(maps.len());
    for m in &maps {
        for &doc in m.keys() {
            if out.contains_key(&doc) {
                continue;
            }
            buf.clear();
            for mm in &maps {
                buf.push(mm.get(&doc).copied().unwrap_or(default));
            }
            out.insert(doc, f(model, &buf));
        }
    }
    out
}

fn eval_wsum(
    index: &ShardedReader<'_>,
    model: &dyn RetrievalModel,
    weighted: &[(f64, QueryNode)],
) -> ScoredDocs {
    let maps: Vec<(f64, ScoredDocs)> = weighted
        .iter()
        .map(|(w, c)| (*w, evaluate(index, model, c)))
        .collect();
    let mut out = ScoredDocs::new();
    let default = model.default_score();
    let mut buf = Vec::with_capacity(maps.len());
    for (_, m) in &maps {
        for &doc in m.keys() {
            if out.contains_key(&doc) {
                continue;
            }
            buf.clear();
            for (w, mm) in &maps {
                buf.push((*w, mm.get(&doc).copied().unwrap_or(default)));
            }
            out.insert(doc, model.combine_wsum(&buf));
        }
    }
    out
}

fn eval_not(
    index: &ShardedReader<'_>,
    model: &dyn RetrievalModel,
    child: &QueryNode,
) -> ScoredDocs {
    let inner = evaluate(index, model, child);
    if !model.bounded() {
        // Unbounded similarity models have no meaningful complement.
        return ScoredDocs::new();
    }
    let default = model.default_score();
    index
        .live_docs()
        .into_iter()
        .map(|doc| {
            let s = inner.get(&doc).copied().unwrap_or(default);
            (doc, model.combine_not(s))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{Analyzer, AnalyzerConfig};
    use crate::index::ShardedIndex;
    use crate::model::{BooleanModel, InferenceModel, ModelKind, VectorModel};
    use crate::query::parse_query;

    fn empty() -> ShardedIndex {
        ShardedIndex::new(Analyzer::new(AnalyzerConfig::default()))
    }

    fn index() -> ShardedIndex {
        let ix = empty();
        ix.add_document("p1", "telnet is a protocol for remote login sessions")
            .unwrap();
        ix.add_document("p2", "the www connects hypertext documents worldwide")
            .unwrap();
        ix.add_document("p3", "the www and the nii are information highways")
            .unwrap();
        ix.add_document("p4", "information retrieval finds relevant documents")
            .unwrap();
        ix
    }

    fn key(ix: &ShardedIndex, doc: DocId) -> String {
        ix.with_store(|s| s.entry(doc).key.clone())
    }

    fn id(ix: &ShardedIndex, key: &str) -> DocId {
        ix.with_store(|s| s.id_of(key)).unwrap()
    }

    fn top(ix: &ShardedIndex, scores: &ScoredDocs) -> String {
        let (&doc, _) = scores
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty");
        key(ix, doc)
    }

    #[test]
    fn term_query_finds_documents() {
        let ix = index();
        let m = InferenceModel::default();
        let q = parse_query("telnet").unwrap();
        let scores = evaluate(&ix.reader(), &m, &q);
        assert_eq!(scores.len(), 1);
        assert_eq!(top(&ix, &scores), "p1");
    }

    #[test]
    fn and_prefers_doc_with_both_terms() {
        let ix = index();
        let m = InferenceModel::default();
        let q = parse_query("#and(www nii)").unwrap();
        let scores = evaluate(&ix.reader(), &m, &q);
        assert_eq!(top(&ix, &scores), "p3");
        // p2 has only www but still receives a (lower) belief.
        let p2 = id(&ix, "p2");
        let p3 = id(&ix, "p3");
        assert!(scores[&p3] > scores[&p2]);
    }

    #[test]
    fn boolean_and_is_strict_intersection() {
        let ix = index();
        let q = parse_query("#and(www nii)").unwrap();
        let scores = evaluate(&ix.reader(), &BooleanModel, &q);
        let live: Vec<String> = scores
            .iter()
            .filter(|(_, &s)| s > 0.0)
            .map(|(&d, _)| key(&ix, d))
            .collect();
        assert_eq!(live, vec!["p3"]);
    }

    #[test]
    fn or_unions_evidence() {
        let ix = index();
        let q = parse_query("#or(telnet nii)").unwrap();
        let scores = evaluate(&ix.reader(), &InferenceModel::default(), &q);
        let mut keys: Vec<String> = scores.keys().map(|&d| key(&ix, d)).collect();
        keys.sort();
        assert_eq!(keys, vec!["p1", "p3"]);
    }

    #[test]
    fn not_under_boolean_excludes_matches() {
        let ix = index();
        let q = parse_query("#and(documents #not(www))").unwrap();
        let scores = evaluate(&ix.reader(), &BooleanModel, &q);
        let matching: Vec<String> = scores
            .iter()
            .filter(|(_, &s)| s > 0.0)
            .map(|(&d, _)| key(&ix, d))
            .collect();
        assert_eq!(matching, vec!["p4"], "p2 has www and is excluded");
    }

    #[test]
    fn not_under_vector_is_empty() {
        let ix = index();
        let q = parse_query("#not(www)").unwrap();
        assert!(evaluate(&ix.reader(), &VectorModel::default(), &q).is_empty());
    }

    #[test]
    fn phrase_requires_adjacency() {
        let ix = index();
        let m = InferenceModel::default();
        let hit = evaluate(
            &ix.reader(),
            &m,
            &parse_query("\"information retrieval\"").unwrap(),
        );
        assert_eq!(hit.len(), 1);
        assert_eq!(top(&ix, &hit), "p4");
        // Both words occur in p3/p4 but only p4 has them adjacent.
        let miss = evaluate(
            &ix.reader(),
            &m,
            &parse_query("\"retrieval information\"").unwrap(),
        );
        assert!(miss.is_empty());
    }

    #[test]
    fn phrase_tolerates_stopword_gaps() {
        let ix = empty();
        ix.add_document("d", "the state of the art system").unwrap();
        let m = InferenceModel::default();
        // Query keeps its own stopword gaps: "state of the art" → state@1,
        // art@4 relative gap 3, same as in the document.
        let hit = evaluate(
            &ix.reader(),
            &m,
            &parse_query("\"state of the art\"").unwrap(),
        );
        assert_eq!(hit.len(), 1);
        let miss = evaluate(&ix.reader(), &m, &parse_query("\"state art\"").unwrap());
        assert!(miss.is_empty(), "gap mismatch must not match");
    }

    #[test]
    fn near_matches_within_window_only() {
        let ix = empty();
        ix.add_document("close", "zebra walks past yak today")
            .unwrap();
        ix.add_document("far", "zebra one two three four five six seven yak")
            .unwrap();
        ix.add_document("wrong_order", "yak precedes zebra here")
            .unwrap();
        let m = InferenceModel::default();

        let near3 = evaluate(
            &ix.reader(),
            &m,
            &parse_query("#near/3(zebra yak)").unwrap(),
        );
        assert_eq!(near3.len(), 1);
        assert_eq!(key(&ix, *near3.keys().next().unwrap()), "close");

        // A wide window also admits the distant pair — but never the
        // wrong-order document.
        let near20 = evaluate(
            &ix.reader(),
            &m,
            &parse_query("#near/20(zebra yak)").unwrap(),
        );
        let mut keys: Vec<String> = near20.keys().map(|&d| key(&ix, d)).collect();
        keys.sort();
        assert_eq!(keys, vec!["close", "far"]);
    }

    #[test]
    fn near_counts_multiple_chains() {
        let ix = empty();
        ix.add_document("multi", "zebra yak filler zebra yak")
            .unwrap();
        ix.add_document("single", "zebra yak only once here")
            .unwrap();
        let m = InferenceModel::default();
        let scores = evaluate(
            &ix.reader(),
            &m,
            &parse_query("#near/2(zebra yak)").unwrap(),
        );
        let multi = id(&ix, "multi");
        let single = id(&ix, "single");
        assert!(
            scores[&multi] > scores[&single],
            "two proximity chains outrank one ({} vs {})",
            scores[&multi],
            scores[&single]
        );
    }

    #[test]
    fn near_with_stemmed_terms() {
        let ix = empty();
        ix.add_document("d", "connecting remote networks").unwrap();
        let m = InferenceModel::default();
        // Query terms are stemmed the same way as document terms.
        let scores = evaluate(
            &ix.reader(),
            &m,
            &parse_query("#near/2(connected network)").unwrap(),
        );
        assert_eq!(scores.len(), 1);
    }

    #[test]
    fn near_absent_term_is_empty() {
        let ix = index();
        let m = InferenceModel::default();
        assert!(evaluate(
            &ix.reader(),
            &m,
            &parse_query("#near/5(telnet xyzzy)").unwrap()
        )
        .is_empty());
    }

    #[test]
    fn wsum_weights_shift_ranking() {
        let ix = index();
        let m = InferenceModel::default();
        let favour_telnet = evaluate(
            &ix.reader(),
            &m,
            &parse_query("#wsum(10 telnet 1 www)").unwrap(),
        );
        assert_eq!(top(&ix, &favour_telnet), "p1");
        let favour_www = evaluate(
            &ix.reader(),
            &m,
            &parse_query("#wsum(1 telnet 10 www)").unwrap(),
        );
        assert!(top(&ix, &favour_www).starts_with('p'));
        assert_ne!(top(&ix, &favour_www), "p1");
    }

    #[test]
    fn max_takes_best_evidence() {
        let ix = index();
        let m = InferenceModel::default();
        let q = parse_query("#max(telnet www)").unwrap();
        let scores = evaluate(&ix.reader(), &m, &q);
        let or_q = parse_query("#or(telnet www)").unwrap();
        let or_scores = evaluate(&ix.reader(), &m, &or_q);
        for (doc, s) in &scores {
            assert!(*s <= or_scores[doc] + 1e-12, "max <= or pointwise");
        }
    }

    #[test]
    fn deleted_documents_never_score() {
        let ix = index();
        ix.delete_document("p3").unwrap();
        let q = parse_query("nii").unwrap();
        let scores = evaluate(&ix.reader(), &InferenceModel::default(), &q);
        assert!(scores.is_empty());
    }

    #[test]
    fn inference_scores_bounded() {
        let ix = index();
        let m = ModelKind::default();
        for q in [
            "#and(www nii)",
            "#or(www nii telnet)",
            "#sum(www nii)",
            "protocol",
        ] {
            let scores = evaluate(&ix.reader(), m.as_model(), &parse_query(q).unwrap());
            for (_, s) in scores {
                assert!((0.0..=1.0).contains(&s), "query {q} score {s}");
            }
        }
    }

    #[test]
    fn positional_queries_skip_documents_a_corrupt_list_cannot_seek_to() {
        use crate::index::{BlockSkip, DocStore, PostingsList};
        let mut store = DocStore::new();
        store.insert("a", 2).unwrap();
        store.insert("b", 2).unwrap();
        // CRC-clean but lying: the bytes decode to doc 1, the block header
        // says the block ends at doc 0, so a seek to doc 1 skips it.
        let blocks = vec![BlockSkip {
            last_doc: 0,
            max_tf: 1,
            end: 3,
        }];
        let telnet = PostingsList::from_raw_blocks(vec![1, 1, 0], 1, 0, 1, 1, 128, blocks)
            .expect("shape-consistent parts");
        let mut protocol = PostingsList::new();
        protocol.push(1, &[1], 2);
        let ix = ShardedIndex::from_shard_parts(
            Analyzer::new(AnalyzerConfig::default()),
            store,
            vec![vec![
                ("telnet".into(), telnet),
                ("protocol".into(), protocol),
            ]],
            1,
        );
        let m = InferenceModel::default();
        for q in ["\"telnet protocol\"", "#near/3(telnet protocol)"] {
            assert!(
                evaluate(&ix.reader(), &m, &parse_query(q).unwrap()).is_empty(),
                "{q}"
            );
        }
    }

    #[test]
    fn unknown_term_yields_empty() {
        let ix = index();
        let q = parse_query("xyzzy").unwrap();
        assert!(evaluate(&ix.reader(), &InferenceModel::default(), &q).is_empty());
    }
}
