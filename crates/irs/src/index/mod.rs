//! The positional inverted index.
//!
//! Combines the [`Dictionary`], per-term [`PostingsList`]s and the
//! [`DocStore`]. Deletions are tombstones filtered at query time, with
//! each term's count of tombstoned postings kept up to date at delete
//! time so live document frequencies cost O(1); a
//! [`InvertedIndex::merge`] pass compacts tombstones away, re-assigning
//! dense doc ids — the equivalent of the index rebuild the paper's update
//! propagation (Section 4.6) schedules.

mod dictionary;
mod postings;
mod sharded;
mod store;
mod terms;

pub use dictionary::{Dictionary, TermId};
pub use postings::{
    read_varint, write_varint, BlockSkip, DocTfIter, Posting, PostingsCursor, PostingsIter,
    PostingsList, DEFAULT_BLOCK_SIZE,
};
pub use sharded::{ShardedIndex, ShardedReader, DEFAULT_SHARDS};
pub use store::{DocEntry, DocStore};
pub(crate) use terms::TermTable;

use std::sync::Arc;

use crate::analysis::Analyzer;
use crate::error::{IrsError, Result};

/// Read access to an index, as query evaluation needs it. Implemented by
/// the plain [`InvertedIndex`] and by [`ShardedReader`] (a lock-holding
/// view over a [`ShardedIndex`]), so the evaluator is agnostic to whether
/// the index is sharded for concurrency.
pub trait IndexReader {
    /// The analyzer used for documents and queries.
    fn analyzer(&self) -> &Analyzer;
    /// Postings of raw (already analysed) term text — a shared handle,
    /// not a copy, so shard locks need not be held across evaluation.
    fn term_postings(&self, term: &str) -> Option<Arc<PostingsList>>;
    /// The store entry for `doc` (also valid for tombstoned docs).
    fn doc_entry(&self, doc: DocId) -> &DocEntry;
    /// Whether `doc` is live (not tombstoned).
    fn is_live(&self, doc: DocId) -> bool;
    /// Number of live documents.
    fn live_count(&self) -> u32;
    /// Average live document length in tokens.
    fn avg_doc_len(&self) -> f64;
    /// Sum of live document lengths in tokens. Together with
    /// [`IndexReader::live_count`] this is the exact numerator/denominator
    /// pair behind [`IndexReader::avg_doc_len`], so partition statistics
    /// can be merged and the merged average recomputed bit-identically.
    fn total_token_len(&self) -> u64;
    /// Loose `(min, max)` bounds on live document lengths (see
    /// [`DocStore::len_bounds`]).
    fn doc_len_bounds(&self) -> (u32, u32);
    /// Ids of all live documents, ascending.
    fn live_docs(&self) -> Vec<DocId>;
    /// Whether any tombstoned documents remain. When `false`, every
    /// posting is live and the top-k engine skips its per-candidate
    /// liveness check.
    fn has_tombstones(&self) -> bool;
    /// `(live df, max_tf)` of an analysed term, `None` when the term is
    /// not in the dictionary — O(1) in every tombstone state: live `df`
    /// is the list's document count minus its count of tombstoned
    /// postings, which deletes maintain. `max_tf` comes from the list
    /// header and may be loose after deletes.
    fn term_summary(&self, term: &str) -> Option<(u32, u32)>;
}

impl IndexReader for InvertedIndex {
    fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    fn term_postings(&self, term: &str) -> Option<Arc<PostingsList>> {
        self.terms.postings(term).cloned()
    }

    fn doc_entry(&self, doc: DocId) -> &DocEntry {
        self.store.entry(doc)
    }

    fn is_live(&self, doc: DocId) -> bool {
        self.store.is_live(doc)
    }

    fn live_count(&self) -> u32 {
        self.store.live_count()
    }

    fn avg_doc_len(&self) -> f64 {
        self.store.avg_len()
    }

    fn total_token_len(&self) -> u64 {
        self.store.total_len()
    }

    fn doc_len_bounds(&self) -> (u32, u32) {
        self.store.len_bounds()
    }

    fn live_docs(&self) -> Vec<DocId> {
        self.store.iter_live().map(|(id, _)| id).collect()
    }

    fn has_tombstones(&self) -> bool {
        self.store.has_tombstones()
    }

    fn term_summary(&self, term: &str) -> Option<(u32, u32)> {
        self.terms.summary(term)
    }
}

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

/// Statistics returned by [`InvertedIndex::merge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeStats {
    /// Tombstoned documents physically removed.
    pub docs_purged: u32,
    /// Postings bytes before the merge.
    pub bytes_before: usize,
    /// Postings bytes after the merge.
    pub bytes_after: usize,
}

/// A positional inverted index over analysed text.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    analyzer: Analyzer,
    terms: TermTable,
    store: DocStore,
}

impl InvertedIndex {
    /// Create an empty index using `analyzer` for both documents and
    /// queries.
    pub fn new(analyzer: Analyzer) -> Self {
        Self::with_block_size(analyzer, DEFAULT_BLOCK_SIZE)
    }

    /// Create an empty index whose postings lists use `block_size`
    /// documents per block (clamped to at least 1). Mostly for tests that
    /// exercise block boundaries; production code uses
    /// [`DEFAULT_BLOCK_SIZE`].
    pub fn with_block_size(analyzer: Analyzer, block_size: u32) -> Self {
        InvertedIndex {
            analyzer,
            terms: TermTable::new(block_size),
            store: DocStore::new(),
        }
    }

    /// The analyzer in use.
    pub fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    /// Index `text` under external `key`. Fails with
    /// [`IrsError::DuplicateDocument`] if `key` is already live.
    pub fn add_document(&mut self, key: &str, text: &str) -> Result<DocId> {
        let terms = self.analyzer.analyze(text);
        // Document length counts all raw tokens (stopwords included) so
        // length normalisation reflects the text the user sees.
        let len = self.analyzer.token_count(text) as u32;
        let id = self
            .store
            .insert(key, len)
            .ok_or_else(|| IrsError::DuplicateDocument(key.to_string()))?;
        // Group positions per term.
        let mut per_term: std::collections::HashMap<TermId, Vec<u32>> =
            std::collections::HashMap::new();
        for t in &terms {
            let tid = self.terms.intern(&t.text);
            per_term.entry(tid).or_default().push(t.position);
        }
        // Deterministic order keeps postings layout reproducible.
        let mut entries: Vec<(TermId, Vec<u32>)> = per_term.into_iter().collect();
        entries.sort_by_key(|(tid, _)| *tid);
        for (tid, mut positions) in entries {
            positions.sort_unstable();
            self.terms.append(tid, id.0, &positions);
        }
        Ok(id)
    }

    /// Tombstone the document with external `key`.
    pub fn delete_document(&mut self, key: &str) -> Result<DocId> {
        let id = self
            .store
            .delete(key)
            .ok_or_else(|| IrsError::UnknownDocument(key.to_string()))?;
        self.terms.tombstone(id, self.store.slot_count());
        Ok(id)
    }

    /// Replace the text of `key` (delete + add).
    pub fn update_document(&mut self, key: &str, text: &str) -> Result<DocId> {
        self.delete_document(key)?;
        self.add_document(key, text)
    }

    /// Postings for raw (already analysed) term text.
    pub fn postings(&self, term: &str) -> Option<&PostingsList> {
        self.terms.postings(term).map(Arc::as_ref)
    }

    /// Live document frequency of an analysed term — tombstones excluded.
    pub fn live_doc_freq(&self, term: &str) -> u32 {
        self.term_summary(term).map_or(0, |(df, _)| df)
    }

    /// The document store.
    pub fn store(&self) -> &DocStore {
        &self.store
    }

    /// The term dictionary.
    pub fn dictionary(&self) -> &Dictionary {
        self.terms.dictionary()
    }

    /// Aggregate statistics (live documents only).
    pub fn statistics(&self) -> IndexStatistics {
        IndexStatistics::of(&self.store, self.terms.len(), self.terms.byte_size())
    }

    /// Physically remove tombstoned documents, rebuilding postings with
    /// dense doc ids. External keys survive; internal [`DocId`]s do not.
    pub fn merge(&mut self) -> MergeStats {
        let bytes_before = self.terms.byte_size();
        let docs_purged = self.store.tombstone_count();
        let (store, remap) = self.store.compacted();
        self.terms.compact(&remap);
        self.store = store;
        MergeStats {
            docs_purged,
            bytes_before,
            bytes_after: self.terms.byte_size(),
        }
    }

    /// Internal accessors used by persistence.
    pub(crate) fn parts(&self) -> (&TermTable, &DocStore) {
        (&self.terms, &self.store)
    }

    pub(crate) fn from_parts(analyzer: Analyzer, terms: TermTable, store: DocStore) -> Self {
        InvertedIndex {
            analyzer,
            terms,
            store,
        }
    }

    /// Decompose into parts, consumed when re-sharding
    /// ([`ShardedIndex::from_inverted`]).
    pub(crate) fn into_parts(self) -> (Analyzer, TermTable, DocStore) {
        (self.analyzer, self.terms, self.store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalyzerConfig;

    fn index() -> InvertedIndex {
        InvertedIndex::new(Analyzer::new(AnalyzerConfig::default()))
    }

    #[test]
    fn add_and_lookup() {
        let mut ix = index();
        ix.add_document("o1", "telnet is a protocol for remote login")
            .unwrap();
        ix.add_document("o2", "the www protocol family").unwrap();
        let pl = ix.postings("protocol").unwrap();
        assert_eq!(pl.doc_count(), 2);
        assert_eq!(ix.live_doc_freq("protocol"), 2);
        assert_eq!(ix.live_doc_freq("telnet"), 1);
        assert_eq!(ix.live_doc_freq("absent"), 0);
    }

    #[test]
    fn duplicate_key_is_error() {
        let mut ix = index();
        ix.add_document("o1", "a b").unwrap();
        assert!(matches!(
            ix.add_document("o1", "c d"),
            Err(IrsError::DuplicateDocument(_))
        ));
    }

    #[test]
    fn delete_hides_from_live_freq() {
        let mut ix = index();
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
        let mut ix = index();
        ix.add_document("o1", "telnet").unwrap();
        ix.update_document("o1", "gopher").unwrap();
        assert_eq!(ix.live_doc_freq("telnet"), 0);
        assert_eq!(ix.live_doc_freq("gopher"), 1);
    }

    #[test]
    fn merge_compacts_and_preserves_live_docs() {
        let mut ix = index();
        ix.add_document("o1", "alpha beta").unwrap();
        ix.add_document("o2", "alpha gamma").unwrap();
        ix.add_document("o3", "beta gamma").unwrap();
        ix.delete_document("o2").unwrap();
        let stats = ix.merge();
        assert_eq!(stats.docs_purged, 1);
        assert!(stats.bytes_after <= stats.bytes_before);
        assert_eq!(ix.store().live_count(), 2);
        assert_eq!(ix.store().slot_count(), 2, "ids re-densified");
        assert_eq!(ix.live_doc_freq("alpha"), 1);
        assert_eq!(ix.live_doc_freq("beta"), 2);
        // Keys survive the merge.
        assert!(ix.store().id_of("o1").is_some());
        assert!(ix.store().id_of("o3").is_some());
        assert!(ix.store().id_of("o2").is_none());
    }

    #[test]
    fn statistics_reflect_live_documents() {
        let mut ix = index();
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
        let mut ix = index();
        ix.add_document("o1", "connecting networks").unwrap();
        // Query-side analysis happens in eval; here we check the stored
        // stemmed form directly.
        assert!(ix.postings("connect").is_some());
        assert!(ix.postings("network").is_some());
        assert!(ix.postings("connecting").is_none());
    }

    #[test]
    fn positions_are_preserved() {
        let mut ix = index();
        ix.add_document("o1", "zebra yak zebra").unwrap();
        let pl = ix.postings("zebra").unwrap();
        let p: Vec<Posting> = pl.iter().collect();
        assert_eq!(p[0].positions, vec![0, 2]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::analysis::AnalyzerConfig;
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
        ) {
            let mut ix = InvertedIndex::new(crate::analysis::Analyzer::new(
                AnalyzerConfig { stem: false, remove_stopwords: false, ..AnalyzerConfig::default() }
            ));
            for (i, words) in docs.iter().enumerate() {
                ix.add_document(&format!("k{i}"), &words.join(" ")).unwrap();
            }
            for (i, &del) in delete_mask.iter().enumerate() {
                if del && i < docs.len() {
                    ix.delete_document(&format!("k{i}")).unwrap();
                }
            }
            let freqs_before: Vec<(String, u32)> = ix
                .dictionary()
                .iter()
                .map(|(_, t)| (t.to_string(), ix.live_doc_freq(t)))
                .collect();
            let live_before = ix.store().live_count();
            ix.merge();
            prop_assert_eq!(ix.store().live_count(), live_before);
            prop_assert_eq!(ix.store().slot_count(), live_before);
            for (t, f) in freqs_before {
                prop_assert_eq!(ix.live_doc_freq(&t), f, "term {}", t);
            }
        }
    }
}
