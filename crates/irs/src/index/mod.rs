//! The positional inverted index.
//!
//! Combines the [`Dictionary`], per-term [`PostingsList`]s and the
//! [`DocStore`]. Deletions are tombstones filtered at query time, with
//! each term's count of tombstoned postings kept up to date at delete
//! time so live document frequencies cost O(1); a
//! [`ShardedIndex::merge`] pass compacts tombstones away, re-assigning
//! dense doc ids — the equivalent of the index rebuild the paper's update
//! propagation (Section 4.6) schedules.

mod dictionary;
mod postings;
mod sharded;
mod store;
mod terms;

pub use dictionary::{Dictionary, TermId};
pub use postings::{
    BlockSkip, DocTfIter, Posting, PostingsCursor, PostingsIter, PostingsList, DEFAULT_BLOCK_SIZE,
};
pub use sharded::{ShardedIndex, ShardedReader, DEFAULT_SHARDS};
pub use store::{DocEntry, DocStore};
pub(crate) use terms::TermTable;

/// Internal document identifier, dense within one index generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(pub u32);

/// Aggregate statistics of one index, used by retrieval models and by the
/// granularity/redundancy experiments (E2, E8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexStatistics {
    /// Live documents.
    pub doc_count: u32,
    /// Distinct terms.
    pub term_count: u32,
    /// Sum of live document lengths in tokens.
    pub total_tokens: u64,
    /// Average live document length in tokens.
    pub avg_doc_len: f64,
    /// Compressed postings bytes.
    pub postings_bytes: usize,
    /// Tombstoned documents awaiting a merge (slots − live).
    pub tombstones: u32,
}

impl IndexStatistics {
    fn of(store: &DocStore, term_count: usize, postings_bytes: usize) -> Self {
        IndexStatistics {
            doc_count: store.live_count(),
            term_count: term_count as u32,
            total_tokens: store.total_len(),
            avg_doc_len: store.avg_len(),
            postings_bytes,
            tombstones: store.tombstone_count(),
        }
    }
}

/// Statistics returned by [`ShardedIndex::merge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeStats {
    /// Tombstoned documents physically removed.
    pub docs_purged: u32,
    /// Postings bytes before the merge.
    pub bytes_before: usize,
    /// Postings bytes after the merge.
    pub bytes_after: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{Analyzer, AnalyzerConfig};
    use crate::error::IrsError;

    fn index() -> ShardedIndex {
        ShardedIndex::new(Analyzer::new(AnalyzerConfig::default()))
    }

    #[test]
    fn add_and_lookup() {
        let ix = index();
        ix.add_document("o1", "telnet is a protocol for remote login")
            .unwrap();
        ix.add_document("o2", "the www protocol family").unwrap();
        let pl = ix.term_postings("protocol").unwrap();
        assert_eq!(pl.doc_count(), 2);
        assert_eq!(ix.live_doc_freq("protocol"), 2);
        assert_eq!(ix.live_doc_freq("telnet"), 1);
        assert_eq!(ix.live_doc_freq("absent"), 0);
    }

    #[test]
    fn duplicate_key_is_error() {
        let ix = index();
        ix.add_document("o1", "a b").unwrap();
        assert!(matches!(
            ix.add_document("o1", "c d"),
            Err(IrsError::DuplicateDocument(_))
        ));
    }

    #[test]
    fn delete_hides_from_live_freq() {
        let ix = index();
        ix.add_document("o1", "www").unwrap();
        ix.add_document("o2", "www").unwrap();
        ix.delete_document("o1").unwrap();
        assert_eq!(ix.live_doc_freq("www"), 1);
        assert!(matches!(
            ix.delete_document("o1"),
            Err(IrsError::UnknownDocument(_))
        ));
    }

    #[test]
    fn update_replaces_text() {
        let ix = index();
        ix.add_document("o1", "telnet").unwrap();
        ix.update_document("o1", "gopher").unwrap();
        assert_eq!(ix.live_doc_freq("telnet"), 0);
        assert_eq!(ix.live_doc_freq("gopher"), 1);
    }

    #[test]
    fn merge_compacts_and_preserves_live_docs() {
        let ix = index();
        ix.add_document("o1", "alpha beta").unwrap();
        ix.add_document("o2", "alpha gamma").unwrap();
        ix.add_document("o3", "beta gamma").unwrap();
        ix.delete_document("o2").unwrap();
        let stats = ix.merge();
        assert_eq!(stats.docs_purged, 1);
        assert!(stats.bytes_after <= stats.bytes_before);
        assert_eq!(ix.with_store(|s| s.live_count()), 2);
        assert_eq!(ix.with_store(|s| s.slot_count()), 2, "ids re-densified");
        assert_eq!(ix.live_doc_freq("alpha"), 1);
        assert_eq!(ix.live_doc_freq("beta"), 2);
        // Keys survive the merge.
        ix.with_store(|s| {
            assert!(s.id_of("o1").is_some());
            assert!(s.id_of("o3").is_some());
            assert!(s.id_of("o2").is_none());
        });
    }

    #[test]
    fn statistics_reflect_live_documents() {
        let ix = index();
        ix.add_document("o1", "one two three").unwrap();
        ix.add_document("o2", "four five").unwrap();
        ix.delete_document("o2").unwrap();
        let st = ix.statistics();
        assert_eq!(st.doc_count, 1);
        assert_eq!(st.total_tokens, 3);
        assert_eq!(st.avg_doc_len, 3.0);
        assert!(st.postings_bytes > 0);
        assert_eq!(st.tombstones, 1);
        ix.merge();
        assert_eq!(ix.statistics().tombstones, 0);
    }

    #[test]
    fn stemming_unifies_postings() {
        let ix = index();
        ix.add_document("o1", "connecting networks").unwrap();
        // Query-side analysis happens in eval; here we check the stored
        // stemmed form directly.
        assert!(ix.term_postings("connect").is_some());
        assert!(ix.term_postings("network").is_some());
        assert!(ix.term_postings("connecting").is_none());
    }

    #[test]
    fn positions_are_preserved() {
        let ix = index();
        ix.add_document("o1", "zebra yak zebra").unwrap();
        let pl = ix.term_postings("zebra").unwrap();
        let p: Vec<Posting> = pl.iter().collect();
        assert_eq!(p[0].positions, vec![0, 2]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::analysis::{Analyzer, AnalyzerConfig};
    use proptest::prelude::*;

    fn word() -> impl Strategy<Value = String> {
        "[a-z]{3,8}"
    }

    proptest! {
        /// After any interleaving of adds and deletes, merge preserves the
        /// live set and every live term frequency.
        #[test]
        fn merge_preserves_live_state(
            docs in prop::collection::vec(prop::collection::vec(word(), 1..12), 1..20),
            delete_mask in prop::collection::vec(any::<bool>(), 1..20),
            shards in 1usize..4,
        ) {
            let ix = ShardedIndex::with_shards(
                Analyzer::new(AnalyzerConfig {
                    stem: false,
                    remove_stopwords: false,
                    ..AnalyzerConfig::default()
                }),
                shards,
            );
            for (i, words) in docs.iter().enumerate() {
                ix.add_document(&format!("k{i}"), &words.join(" ")).unwrap();
            }
            for (i, &del) in delete_mask.iter().enumerate() {
                if del && i < docs.len() {
                    ix.delete_document(&format!("k{i}")).unwrap();
                }
            }
            let mut terms: Vec<String> = Vec::new();
            ix.reader().for_each_term(|t, _| terms.push(t.to_string()));
            let freqs_before: Vec<(String, u32)> = terms
                .into_iter()
                .map(|t| {
                    let f = ix.live_doc_freq(&t);
                    (t, f)
                })
                .collect();
            let live_before = ix.with_store(|s| s.live_count());
            ix.merge();
            prop_assert_eq!(ix.with_store(|s| s.live_count()), live_before);
            prop_assert_eq!(ix.with_store(|s| s.slot_count()), live_before);
            for (t, f) in freqs_before {
                prop_assert_eq!(ix.live_doc_freq(&t), f, "term {}", t);
            }
        }
    }
}
