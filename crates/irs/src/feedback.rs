//! Relevance feedback — query expansion from user-marked relevant
//! documents.
//!
//! The paper lists relevance feedback among the open issues its
//! framework should eventually support ("Application independent facets
//! are relevance feedback and uncertainty", Section 6). This module
//! implements the classical Rocchio-style expansion: terms that are
//! frequent in the marked-relevant documents and rare in the collection
//! are added to the query, weighted, as a `#wsum`.
//!
//! The expanded query is an ordinary IRS query string, so it flows
//! through the coupling (buffer, derivation, mixed queries) unchanged —
//! no interface changes needed, which is exactly why the loose coupling
//! can absorb the feature.

use std::collections::HashSet;

use crate::collection::IrsCollection;
use crate::error::{IrsError, Result};
use crate::index::DocId;
use crate::query::parse_query;

/// Expansion parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedbackConfig {
    /// Number of expansion terms to add.
    pub expansion_terms: usize,
    /// Weight of the original query in the expanded `#wsum`.
    pub original_weight: f64,
    /// Weight of each expansion term.
    pub expansion_weight: f64,
    /// Terms occurring in more than this fraction of live documents are
    /// never selected (they carry no discrimination).
    pub max_df_fraction: f64,
}

impl Default for FeedbackConfig {
    fn default() -> Self {
        FeedbackConfig {
            expansion_terms: 5,
            original_weight: 4.0,
            expansion_weight: 1.0,
            max_df_fraction: 0.5,
        }
    }
}

/// One candidate expansion term with its Rocchio score.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpansionTerm {
    /// The (analysed) term text.
    pub term: String,
    /// Σ tf over the relevant documents × idf.
    pub score: f64,
}

/// Rank candidate expansion terms for `relevant_keys` (external document
/// keys), excluding terms already present in `original`.
pub fn expansion_candidates(
    coll: &IrsCollection,
    original: &str,
    relevant_keys: &[&str],
    config: &FeedbackConfig,
) -> Result<Vec<ExpansionTerm>> {
    let reader = coll.reader();
    let store = reader.store();
    let mut relevant_docs: HashSet<DocId> = HashSet::new();
    for key in relevant_keys {
        let id = store
            .id_of(key)
            .ok_or_else(|| IrsError::UnknownDocument((*key).to_string()))?;
        relevant_docs.insert(id);
    }
    if relevant_docs.is_empty() {
        return Ok(Vec::new());
    }

    // Terms of the original query (already analysed by the parser +
    // analyzer) must not be re-added.
    let original_node = parse_query(original)?;
    let analyzer = reader.analyzer();
    let existing: HashSet<String> = original_node
        .terms()
        .iter()
        .map(|t| analyzer.analyze_term(t))
        .collect();

    let n_live = store.live_count().max(1) as f64;
    let max_df = (config.max_df_fraction * n_live).ceil() as u32;

    let mut candidates = Vec::new();
    reader.for_each_term(|term, pl| {
        if existing.contains(term) {
            return;
        }
        let mut tf_sum = 0u64;
        let mut df_live = 0u32;
        let mut df_relevant = 0u32;
        for (doc, tf) in pl.doc_tfs() {
            let id = DocId(doc);
            if !store.is_live(id) {
                continue;
            }
            df_live += 1;
            if relevant_docs.contains(&id) {
                df_relevant += 1;
                tf_sum += u64::from(tf);
            }
        }
        if tf_sum == 0 || df_live == 0 || df_live > max_df {
            return;
        }
        // Offer-weight style score: terms spread across *many* relevant
        // documents beat one-off rarities of equal idf.
        let idf = (n_live / f64::from(df_live)).ln();
        candidates.push(ExpansionTerm {
            term: term.to_string(),
            score: f64::from(df_relevant) * tf_sum as f64 * idf,
        });
    });
    candidates.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.term.cmp(&b.term)));
    candidates.truncate(config.expansion_terms);
    Ok(candidates)
}

/// Produce the expanded query string: the original query plus the top
/// expansion terms, combined with `#wsum`. Returns the original query
/// unchanged when no useful expansion terms exist.
pub fn expand_query(
    coll: &IrsCollection,
    original: &str,
    relevant_keys: &[&str],
    config: &FeedbackConfig,
) -> Result<String> {
    let candidates = expansion_candidates(coll, original, relevant_keys, config)?;
    if candidates.is_empty() {
        return Ok(original.to_string());
    }
    // Multi-expression originals need wrapping so they stay one operand.
    let original_node = parse_query(original)?;
    let mut out = format!("#wsum({} {}", config.original_weight, original_node);
    for c in &candidates {
        out.push_str(&format!(" {} {}", config.expansion_weight, c.term));
    }
    out.push(')');
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::CollectionConfig;

    /// Documents about "telnet": the relevant ones consistently co-mention
    /// "terminal"; a held-out relevant document mentions "terminal" but
    /// not "telnet".
    fn collection() -> IrsCollection {
        let mut c = IrsCollection::new(CollectionConfig::default());
        c.add_document("r1", "telnet gives terminal access to remote hosts")
            .unwrap();
        c.add_document("r2", "telnet terminal emulation for unix systems")
            .unwrap();
        c.add_document("held_out", "terminal multiplexers improve productivity")
            .unwrap();
        c.add_document("noise1", "the www links hypertext documents")
            .unwrap();
        c.add_document("noise2", "database transactions need recovery logs")
            .unwrap();
        c.add_document("noise3", "gopher menus predate the web")
            .unwrap();
        c
    }

    #[test]
    fn candidates_prefer_discriminative_coterms() {
        let c = collection();
        let cands =
            expansion_candidates(&c, "telnet", &["r1", "r2"], &FeedbackConfig::default()).unwrap();
        assert!(!cands.is_empty());
        assert_eq!(
            cands[0].term, "termin",
            "stemmed 'terminal' ranks first: {cands:?}"
        );
        // The original term itself is never an expansion candidate.
        assert!(cands.iter().all(|e| e.term != "telnet"));
    }

    #[test]
    fn expansion_improves_recall_of_held_out_document() {
        let c = collection();
        let before = c.search("telnet").unwrap();
        assert!(
            before.iter().all(|h| h.key != "held_out"),
            "held-out doc unreachable before feedback"
        );
        let expanded =
            expand_query(&c, "telnet", &["r1", "r2"], &FeedbackConfig::default()).unwrap();
        let after = c.search(&expanded).unwrap();
        assert!(
            after.iter().any(|h| h.key == "held_out"),
            "feedback expansion must surface the held-out document: {expanded}"
        );
        // Original relevant documents still rank at the top.
        assert!(after.iter().take(3).any(|h| h.key == "r1" || h.key == "r2"));
    }

    #[test]
    fn expanded_query_is_parseable_and_weighted() {
        let c = collection();
        let expanded = expand_query(&c, "telnet", &["r1"], &FeedbackConfig::default()).unwrap();
        assert!(expanded.starts_with("#wsum(4 telnet"));
        parse_query(&expanded).unwrap();
    }

    #[test]
    fn no_relevant_docs_yields_original() {
        let c = collection();
        let expanded = expand_query(&c, "telnet", &[], &FeedbackConfig::default()).unwrap();
        assert_eq!(expanded, "telnet");
    }

    #[test]
    fn unknown_relevant_key_errors() {
        let c = collection();
        assert!(matches!(
            expand_query(&c, "telnet", &["ghost"], &FeedbackConfig::default()),
            Err(IrsError::UnknownDocument(_))
        ));
    }

    #[test]
    fn ubiquitous_terms_are_excluded() {
        let mut c = IrsCollection::new(CollectionConfig::default());
        // "shared" appears in every document → no discrimination.
        for i in 0..6 {
            c.add_document(&format!("d{i}"), &format!("shared filler{i} telnet"))
                .unwrap();
        }
        let cands =
            expansion_candidates(&c, "telnet", &["d0", "d1"], &FeedbackConfig::default()).unwrap();
        assert!(
            cands
                .iter()
                .all(|e| e.term != "share" && e.term != "shared"),
            "{cands:?}"
        );
    }

    #[test]
    fn multi_term_original_is_wrapped() {
        let c = collection();
        let expanded =
            expand_query(&c, "telnet terminal", &["r1"], &FeedbackConfig::default()).unwrap();
        // The implicit #sum of the bag-of-words original survives as one
        // operand of the #wsum.
        assert!(expanded.contains("#sum(telnet terminal)"), "{expanded}");
        parse_query(&expanded).unwrap();
    }
}
