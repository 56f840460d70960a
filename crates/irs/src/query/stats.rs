//! Query-scoped corpus statistics for distributed scoring.
//!
//! When a collection is partitioned across IRS nodes, every retrieval
//! model's score depends on corpus-wide statistics — `df`, `n_docs`,
//! `avg_doc_len` — that no single partition knows. A router therefore
//! gathers one [`QueryGlobals`] per partition ([`collect_globals`]),
//! merges them ([`QueryGlobals::merge`]), and ships the merged globals
//! back so every partition scores with identical statistics
//! ([`evaluate_top_k_with_globals`](super::evaluate_top_k_with_globals)).
//!
//! The merge is exact, not approximate: partitions hold *disjoint*
//! document sets, so summing `df`/`n_docs`/`total_tokens` reproduces the
//! single-node integers, and the average document length recomputed from
//! the summed numerator/denominator is bit-identical to what
//! `DocStore::avg_len` would report for the union index.

use crate::index::IndexReader;
use crate::query::QueryNode;

use super::topk::compiled_terms;

/// Per-term statistics of one query leaf, in the engine's interning order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TermGlobals {
    /// The analysed term text (post-stemming), as interned by the top-k
    /// compiler — the merge refuses to combine mismatched term lists.
    pub term: String,
    /// Live document frequency.
    pub df: u32,
    /// Upper bound on any single-document term frequency (may be loose).
    pub max_tf: u32,
}

/// Corpus statistics one partition contributes for one query, plus the
/// merged totals a router ships back for globally consistent scoring.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryGlobals {
    /// Live documents.
    pub n_docs: u32,
    /// Sum of live document lengths in tokens.
    pub total_tokens: u64,
    /// Loose lower bound on live document lengths (0 when empty).
    pub min_doc_len: u32,
    /// Loose upper bound on live document lengths (0 when empty).
    pub max_doc_len: u32,
    /// Per-leaf statistics in the top-k engine's term interning order.
    pub terms: Vec<TermGlobals>,
}

impl QueryGlobals {
    /// Average live document length — recomputed from the exact
    /// numerator/denominator pair so merged globals reproduce the
    /// union index's `avg_len` bit-identically. `0.0` when empty.
    pub fn avg_doc_len(&self) -> f64 {
        if self.n_docs == 0 {
            0.0
        } else {
            self.total_tokens as f64 / f64::from(self.n_docs)
        }
    }

    /// Loose `(min, max)` bounds on live document lengths.
    pub fn len_bounds(&self) -> (u32, u32) {
        (self.min_doc_len, self.max_doc_len)
    }

    /// Merge per-partition globals into corpus-wide globals: counts sum,
    /// `max_tf` takes the max, length bounds take the enclosing range of
    /// the *non-empty* partitions (an empty partition's `(0, 0)` bounds
    /// would otherwise loosen the minimum to zero).
    ///
    /// `None` when the term lists disagree in length, order or text —
    /// partitions compiled different queries (or with different
    /// analyzers), and combining their counts would corrupt scores.
    pub fn merge<'a>(parts: impl IntoIterator<Item = &'a QueryGlobals>) -> Option<QueryGlobals> {
        let mut iter = parts.into_iter();
        let mut out = iter.next()?.clone();
        let mut have_bounds = out.n_docs > 0;
        if !have_bounds {
            out.min_doc_len = 0;
            out.max_doc_len = 0;
        }
        for g in iter {
            if g.terms.len() != out.terms.len() {
                return None;
            }
            for (a, b) in out.terms.iter_mut().zip(&g.terms) {
                if a.term != b.term {
                    return None;
                }
                a.df = a.df.saturating_add(b.df);
                a.max_tf = a.max_tf.max(b.max_tf);
            }
            out.n_docs = out.n_docs.saturating_add(g.n_docs);
            out.total_tokens = out.total_tokens.saturating_add(g.total_tokens);
            if g.n_docs > 0 {
                if have_bounds {
                    out.min_doc_len = out.min_doc_len.min(g.min_doc_len);
                    out.max_doc_len = out.max_doc_len.max(g.max_doc_len);
                } else {
                    out.min_doc_len = g.min_doc_len;
                    out.max_doc_len = g.max_doc_len;
                    have_bounds = true;
                }
            }
        }
        Some(out)
    }
}

/// One partition's statistics for `node`: the analysed leaf terms in the
/// top-k engine's interning order, each with its live `df`/`max_tf`, plus
/// the partition's corpus counters.
///
/// `None` when the tree is outside the pruned engine's fragment
/// (`#not`/`#phrase`/`#near`, or `#wsum` with negative or NaN weights) —
/// such queries cannot be scattered because only the pruned engine
/// accepts supplied globals.
pub fn collect_globals<I: IndexReader + ?Sized>(
    index: &I,
    node: &QueryNode,
) -> Option<QueryGlobals> {
    let term_texts = compiled_terms(node, index.analyzer())?;
    let (min_doc_len, max_doc_len) = index.doc_len_bounds();
    // The stats leg of the scatter/gather exchange reads dictionary
    // entries, list headers and dead-postings counts in place: O(1) per
    // term whatever the tombstone state.
    Some(QueryGlobals {
        n_docs: index.live_count(),
        total_tokens: index.total_token_len(),
        min_doc_len,
        max_doc_len,
        terms: term_texts
            .into_iter()
            .map(|term| {
                let (df, max_tf) = index.term_summary(&term).unwrap_or((0, 0));
                TermGlobals { term, df, max_tf }
            })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{Analyzer, AnalyzerConfig};
    use crate::index::InvertedIndex;
    use crate::query::parse_query;

    fn index_of(docs: &[(&str, &str)]) -> InvertedIndex {
        let mut ix = InvertedIndex::new(Analyzer::new(AnalyzerConfig::default()));
        for (key, text) in docs {
            ix.add_document(key, text).unwrap();
        }
        ix
    }

    #[test]
    fn merged_partition_stats_equal_union_stats() {
        let all = [
            ("a", "zebra shared words padding here"),
            ("b", "shared words only"),
            ("c", "zebra zebra shared extra tokens in this one"),
            ("d", "totally unrelated text block"),
        ];
        let union = index_of(&all);
        let p1 = index_of(&all[..2]);
        let p2 = index_of(&all[2..]);
        let node = parse_query("#or(zebra shared)").unwrap();
        let g1 = collect_globals(&p1, &node).unwrap();
        let g2 = collect_globals(&p2, &node).unwrap();
        let merged = QueryGlobals::merge([&g1, &g2]).unwrap();
        let direct = collect_globals(&union, &node).unwrap();
        assert_merged_equals_union(&merged, &direct);
    }

    #[test]
    fn tombstoned_partitions_merge_to_the_union_stats() {
        let all = [
            ("a", "zebra shared words padding here"),
            ("b", "shared words only"),
            ("c", "zebra zebra shared extra tokens in this one"),
            ("d", "totally unrelated text block"),
            ("e", "zebra shared again"),
        ];
        let mut union = index_of(&all);
        let mut p1 = index_of(&all[..3]);
        let mut p2 = index_of(&all[3..]);
        // One deletion and one update in each partition, the same in the
        // union: live counts must come from the dead-postings counts.
        for (part, deleted, updated) in [(&mut p1, "a", "b"), (&mut p2, "e", "d")] {
            for ix in [&mut *part, &mut union] {
                ix.delete_document(deleted).unwrap();
                ix.update_document(updated, "zebra shared rewritten")
                    .unwrap();
            }
        }
        let node = parse_query("#or(zebra shared words)").unwrap();
        let merged = QueryGlobals::merge([
            &collect_globals(&p1, &node).unwrap(),
            &collect_globals(&p2, &node).unwrap(),
        ])
        .unwrap();
        let direct = collect_globals(&union, &node).unwrap();
        assert_eq!(direct.terms[0].df, 3, "zebra: c, b', d'");
        assert_merged_equals_union(&merged, &direct);
    }

    fn assert_merged_equals_union(merged: &QueryGlobals, direct: &QueryGlobals) {
        assert_eq!(merged.n_docs, direct.n_docs);
        assert_eq!(merged.total_tokens, direct.total_tokens);
        assert_eq!(
            merged.avg_doc_len().to_bits(),
            direct.avg_doc_len().to_bits()
        );
        assert_eq!(merged.terms, direct.terms);
        // Bounds may be looser than exact but must enclose the union's.
        assert!(merged.min_doc_len <= direct.min_doc_len || direct.n_docs == 0);
        assert!(merged.max_doc_len >= direct.max_doc_len);
    }

    #[test]
    fn empty_partition_does_not_loosen_len_bounds() {
        let p1 = index_of(&[("a", "zebra words here")]);
        let p2 = index_of(&[]);
        let node = parse_query("zebra").unwrap();
        let g1 = collect_globals(&p1, &node).unwrap();
        let g2 = collect_globals(&p2, &node).unwrap();
        assert_eq!(g2.n_docs, 0);
        let merged = QueryGlobals::merge([&g1, &g2]).unwrap();
        assert_eq!(merged.len_bounds(), g1.len_bounds());
        let merged_rev = QueryGlobals::merge([&g2, &g1]).unwrap();
        assert_eq!(merged_rev.len_bounds(), g1.len_bounds());
    }

    #[test]
    fn mismatched_term_lists_refuse_to_merge() {
        let ix = index_of(&[("a", "zebra shared")]);
        let g1 = collect_globals(&ix, &parse_query("zebra").unwrap()).unwrap();
        let g2 = collect_globals(&ix, &parse_query("shared").unwrap()).unwrap();
        assert!(QueryGlobals::merge([&g1, &g2]).is_none());
        let g3 = collect_globals(&ix, &parse_query("#or(zebra shared)").unwrap()).unwrap();
        assert!(QueryGlobals::merge([&g1, &g3]).is_none());
    }

    #[test]
    fn unprunable_queries_yield_no_globals() {
        let ix = index_of(&[("a", "zebra shared")]);
        for q in ["#not(zebra)", "\"zebra shared\"", "#near/2(zebra shared)"] {
            let node = parse_query(q).unwrap();
            assert!(collect_globals(&ix, &node).is_none(), "{q}");
        }
    }
}
