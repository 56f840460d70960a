//! A term-sharded inverted index for concurrent query serving.
//!
//! The paper requires "managing structured data in multi-user
//! environments" (Section 1.2); a single-threaded index forces the
//! coupling to serialise every `getIRSValue` call on one big lock. The
//! [`ShardedIndex`] splits the dictionary and postings into `N` shards by
//! a hash of the term text, each behind its own `RwLock`, with the
//! document store behind a separate `RwLock`:
//!
//! * **Queries** take only read locks (the store for the whole query, a
//!   shard per term), so arbitrarily many queries evaluate in parallel.
//! * **Writers** analyse text *outside* all locks (the expensive part),
//!   then apply postings under the store write lock — doc ids are handed
//!   out and postings appended in one critical section, which preserves
//!   the delta-encoded postings invariant that doc ids arrive in
//!   ascending order per term.
//! * **Deletes** set the tombstone and bump every shard's dead-postings
//!   counts in one store-write-lock critical section, so a query's
//!   O(1) live `df` always agrees with the store it pinned.
//! * **Batch indexing** ([`ShardedIndex::index_documents`]) analyses all
//!   documents across worker threads first and merges per shard
//!   afterwards — the parallel `indexObjects` path.
//!
//! Locks are always acquired store-before-shard and shards in ascending
//! index order, so the index cannot deadlock against itself.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{RwLock, RwLockReadGuard};

use crate::analysis::{AnalyzedTerm, Analyzer};
use crate::error::{IrsError, Result};
use crate::index::{
    DocEntry, DocId, DocStore, IndexStatistics, MergeStats, PostingsList, TermTable,
    DEFAULT_BLOCK_SIZE,
};

/// Default number of term shards. Eight keeps lock contention negligible
/// for typical query fan-outs while the per-shard dictionaries stay large
/// enough to amortise hashing.
pub const DEFAULT_SHARDS: usize = 8;

/// FNV-1a over the term bytes — stable across runs, so shard layout is
/// deterministic for a given shard count.
fn term_hash(term: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in term.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Shard of `term` among `n` shards.
fn shard_for(term: &str, n: usize) -> usize {
    (term_hash(term) % n as u64) as usize
}

/// A positional inverted index whose terms are hash-partitioned across
/// independently locked shards. All mutation takes `&self`; exclusive
/// access is *not* required (writers serialise on the store lock, readers
/// never block each other).
#[derive(Debug)]
pub struct ShardedIndex {
    analyzer: Analyzer,
    store: RwLock<DocStore>,
    shards: Box<[RwLock<TermTable>]>,
}

impl Clone for ShardedIndex {
    fn clone(&self) -> Self {
        let store = self.store.read();
        ShardedIndex {
            analyzer: self.analyzer.clone(),
            shards: self
                .shards
                .iter()
                .map(|s| RwLock::new(s.read().clone()))
                .collect(),
            store: RwLock::new(store.clone()),
        }
    }
}

impl ShardedIndex {
    /// Create an empty index with [`DEFAULT_SHARDS`] shards.
    pub fn new(analyzer: Analyzer) -> Self {
        Self::with_shards(analyzer, DEFAULT_SHARDS)
    }

    /// Create an empty index with `n_shards` term shards (floored at 1).
    pub fn with_shards(analyzer: Analyzer, n_shards: usize) -> Self {
        Self::with_block_size(analyzer, n_shards, DEFAULT_BLOCK_SIZE)
    }

    /// Create an empty index with `n_shards` term shards whose postings
    /// lists use `block_size` documents per block (clamped to at least 1).
    /// Mostly for tests that exercise block boundaries; production code
    /// uses [`DEFAULT_BLOCK_SIZE`].
    pub fn with_block_size(analyzer: Analyzer, n_shards: usize, block_size: u32) -> Self {
        ShardedIndex {
            analyzer,
            store: RwLock::new(DocStore::new()),
            shards: (0..n_shards.max(1))
                .map(|_| RwLock::new(TermTable::new(block_size)))
                .collect(),
        }
    }

    /// The analyzer in use.
    pub fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    /// Number of term shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Run `f` against shard `i`'s term table under its read lock — the
    /// native per-shard save path, which never merges shards.
    pub(crate) fn with_shard<R>(&self, i: usize, f: impl FnOnce(&TermTable) -> R) -> R {
        f(&self.shards[i].read())
    }

    /// Rebuild from per-shard `(term, postings)` lists saved by the native
    /// format, deriving each list's frontiers and counting its dead
    /// postings against `store` — shards in parallel, on at most one
    /// thread per available CPU. When `shard_terms.len()` matches the
    /// desired count the shards are reconstructed verbatim (terms were
    /// partitioned by [`term_hash`] when saved); otherwise terms are
    /// re-hashed into `n_shards` partitions.
    pub(crate) fn from_shard_parts(
        analyzer: Analyzer,
        store: DocStore,
        shard_terms: Vec<Vec<(String, PostingsList)>>,
        n_shards: usize,
    ) -> Self {
        let n = n_shards.max(1);
        let shard_terms = if shard_terms.len() == n {
            shard_terms
        } else {
            let mut rehashed: Vec<Vec<(String, PostingsList)>> =
                (0..n).map(|_| Vec::new()).collect();
            for (term, list) in shard_terms.into_iter().flatten() {
                rehashed[shard_for(&term, n)].push((term, list));
            }
            rehashed
        };
        // Contiguous runs of shards, one run per worker.
        let workers = std::thread::available_parallelism().map_or(1, |w| w.get());
        let run = n.div_ceil(workers.min(n));
        let mut runs = Vec::new();
        let mut rest = shard_terms;
        while !rest.is_empty() {
            let tail = rest.split_off(run.min(rest.len()));
            runs.push(std::mem::replace(&mut rest, tail));
        }
        let shards = std::thread::scope(|scope| {
            let builders: Vec<_> = runs
                .into_iter()
                .map(|run| {
                    let store = &store;
                    scope.spawn(move || {
                        run.into_iter()
                            .map(|terms| RwLock::new(TermTable::from_lists(terms, store)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            builders
                .into_iter()
                .flat_map(|b| b.join().expect("shard builder panicked"))
                .collect()
        });
        ShardedIndex {
            analyzer,
            store: RwLock::new(store),
            shards,
        }
    }

    fn shard_of(&self, term: &str) -> usize {
        shard_for(term, self.shards.len())
    }

    /// Group analysed terms into `(term, positions)` pairs, positions
    /// ascending, pairs sorted by term for deterministic shard application.
    fn group_terms(terms: &[AnalyzedTerm]) -> Vec<(&str, Vec<u32>)> {
        let mut per_term: HashMap<&str, Vec<u32>> = HashMap::new();
        for t in terms {
            per_term
                .entry(t.text.as_str())
                .or_default()
                .push(t.position);
        }
        let mut entries: Vec<(&str, Vec<u32>)> = per_term.into_iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        for (_, positions) in &mut entries {
            positions.sort_unstable();
        }
        entries
    }

    /// Append one analysed document's postings to the shards. The caller
    /// must hold the store write lock so doc ids reach each shard in
    /// ascending order.
    fn apply_to_shards(&self, doc: u32, doc_len: u32, entries: &[(&str, Vec<u32>)]) {
        let mut i = 0;
        while i < entries.len() {
            // `entries` is term-sorted, not shard-sorted; batch consecutive
            // same-shard terms under one lock acquisition.
            let shard_idx = self.shard_of(entries[i].0);
            let mut shard = self.shards[shard_idx].write();
            while i < entries.len() && self.shard_of(entries[i].0) == shard_idx {
                let tid = shard.intern(entries[i].0);
                shard.append(tid, doc, &entries[i].1, doc_len);
                i += 1;
            }
        }
    }

    /// Index `text` under external `key`. Fails with
    /// [`IrsError::DuplicateDocument`] if `key` is already live.
    ///
    /// Analysis runs outside all locks; the insert itself holds the store
    /// write lock while shard postings are appended, so concurrent
    /// writers cannot interleave doc ids out of order.
    pub fn add_document(&self, key: &str, text: &str) -> Result<DocId> {
        let terms = self.analyzer.analyze(text);
        let len = self.analyzer.token_count(text) as u32;
        let entries = Self::group_terms(&terms);
        let mut store = self.store.write();
        let id = store
            .insert(key, len)
            .ok_or_else(|| IrsError::DuplicateDocument(key.to_string()))?;
        self.apply_to_shards(id.0, len, &entries);
        Ok(id)
    }

    /// Analyse `docs` (`(key, text)` pairs) in parallel across worker
    /// threads, then insert them in order under one store lock — the
    /// batched `indexObjects` path. No document is inserted if any key is
    /// a duplicate (of a live document or within the batch).
    pub fn index_documents(&self, docs: &[(String, String)]) -> Result<Vec<DocId>> {
        if docs.is_empty() {
            return Ok(Vec::new());
        }
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(docs.len());
        let chunk = docs.len().div_ceil(workers);
        let mut analyzed: Vec<(Vec<AnalyzedTerm>, u32)> = Vec::new();
        if workers <= 1 {
            for (_, text) in docs {
                analyzed.push((
                    self.analyzer.analyze(text),
                    self.analyzer.token_count(text) as u32,
                ));
            }
        } else {
            let mut slots: Vec<Option<(Vec<AnalyzedTerm>, u32)>> = vec![None; docs.len()];
            std::thread::scope(|scope| {
                for (in_chunk, out_chunk) in docs.chunks(chunk).zip(slots.chunks_mut(chunk)) {
                    let analyzer = &self.analyzer;
                    scope.spawn(move || {
                        for ((_, text), slot) in in_chunk.iter().zip(out_chunk.iter_mut()) {
                            *slot =
                                Some((analyzer.analyze(text), analyzer.token_count(text) as u32));
                        }
                    });
                }
            });
            analyzed = slots
                .into_iter()
                .map(|s| s.expect("chunk analysed"))
                .collect();
        }

        let mut store = self.store.write();
        // Validate the whole batch before mutating anything.
        let mut batch_keys = std::collections::HashSet::new();
        for (key, _) in docs {
            if store.id_of(key).is_some() || !batch_keys.insert(key.as_str()) {
                return Err(IrsError::DuplicateDocument(key.clone()));
            }
        }
        let mut ids = Vec::with_capacity(docs.len());
        // Per-shard merge buffers: documents are processed in ascending
        // doc-id order, so each term's postings arrive ascending too.
        let mut buckets: Vec<Vec<(&str, u32, Vec<u32>)>> = vec![Vec::new(); self.shards.len()];
        for ((key, _), (terms, len)) in docs.iter().zip(analyzed.iter()) {
            let id = store.insert(key, *len).expect("batch keys pre-validated");
            ids.push(id);
            for (term, positions) in Self::group_terms(terms) {
                buckets[self.shard_of(term)].push((term, id.0, positions));
            }
        }
        for (shard, bucket) in self.shards.iter().zip(buckets) {
            if bucket.is_empty() {
                continue;
            }
            let mut shard = shard.write();
            for (term, doc, positions) in bucket {
                let tid = shard.intern(term);
                shard.append(tid, doc, &positions, store.entry(DocId(doc)).len);
            }
        }
        Ok(ids)
    }

    /// Tombstone the document with external `key`.
    ///
    /// Every shard counts the document's postings as dead before the
    /// store write lock is released, so a reader — which pins the store
    /// for its whole query — never sees a tombstone without its counts.
    pub fn delete_document(&self, key: &str) -> Result<DocId> {
        let mut store = self.store.write();
        let id = store
            .delete(key)
            .ok_or_else(|| IrsError::UnknownDocument(key.to_string()))?;
        for shard in self.shards.iter() {
            shard.write().tombstone(id, store.slot_count());
        }
        Ok(id)
    }

    /// Replace the text of `key` (delete + add).
    pub fn update_document(&self, key: &str, text: &str) -> Result<DocId> {
        self.delete_document(key)?;
        self.add_document(key, text)
    }

    /// Postings for raw (already analysed) term text — a shared handle to
    /// the list, not a copy.
    pub fn term_postings(&self, term: &str) -> Option<Arc<PostingsList>> {
        self.shards[self.shard_of(term)]
            .read()
            .postings(term)
            .cloned()
    }

    /// Live document frequency of an analysed term.
    pub fn live_doc_freq(&self, term: &str) -> u32 {
        self.reader().term_summary(term).map_or(0, |(df, _)| df)
    }

    /// Run `f` against the document store under a read lock.
    pub fn with_store<R>(&self, f: impl FnOnce(&DocStore) -> R) -> R {
        f(&self.store.read())
    }

    /// A read view pinning the store for the duration of one query.
    pub fn reader(&self) -> ShardedReader<'_> {
        ShardedReader {
            index: self,
            store: self.store.read(),
        }
    }

    /// Aggregate statistics (live documents only).
    pub fn statistics(&self) -> IndexStatistics {
        let store = self.store.read();
        let (terms, bytes) = self.shards.iter().fold((0, 0), |(terms, bytes), s| {
            let s = s.read();
            (terms + s.len(), bytes + s.byte_size())
        });
        IndexStatistics::of(&store, terms, bytes)
    }

    /// Physically remove tombstoned documents, rebuilding every shard's
    /// postings with dense doc ids. Takes all locks (stop-the-world, like
    /// the paper's scheduled index rebuild).
    pub fn merge(&self) -> MergeStats {
        let mut store = self.store.write();
        let mut shards: Vec<_> = self.shards.iter().map(|s| s.write()).collect();
        let bytes_before = shards.iter().map(|s| s.byte_size()).sum();
        let docs_purged = store.tombstone_count();
        let (compacted, remap) = store.compacted();
        for shard in shards.iter_mut() {
            shard.compact(&remap, &compacted);
        }
        *store = compacted;
        MergeStats {
            docs_purged,
            bytes_before,
            bytes_after: shards.iter().map(|s| s.byte_size()).sum(),
        }
    }
}

/// A consistent read view over a [`ShardedIndex`], as query evaluation
/// needs it: holds the store read lock for its lifetime (shard read locks
/// are taken per term lookup).
pub struct ShardedReader<'a> {
    index: &'a ShardedIndex,
    store: RwLockReadGuard<'a, DocStore>,
}

impl ShardedReader<'_> {
    /// The pinned document store.
    pub fn store(&self) -> &DocStore {
        &self.store
    }

    /// The analyzer used for documents and queries.
    pub fn analyzer(&self) -> &Analyzer {
        &self.index.analyzer
    }

    /// Postings of raw (already analysed) term text — a shared handle,
    /// not a copy, so shard locks need not be held across evaluation.
    pub fn term_postings(&self, term: &str) -> Option<Arc<PostingsList>> {
        self.index.term_postings(term)
    }

    /// The store entry for `doc` (also valid for tombstoned docs).
    pub fn doc_entry(&self, doc: DocId) -> &DocEntry {
        self.store.entry(doc)
    }

    /// Whether `doc` is live (not tombstoned).
    pub fn is_live(&self, doc: DocId) -> bool {
        self.store.is_live(doc)
    }

    /// Number of live documents.
    pub fn live_count(&self) -> u32 {
        self.store.live_count()
    }

    /// Average live document length in tokens.
    pub fn avg_doc_len(&self) -> f64 {
        self.store.avg_len()
    }

    /// Sum of live document lengths in tokens. Together with
    /// [`ShardedReader::live_count`] this is the exact
    /// numerator/denominator pair behind [`ShardedReader::avg_doc_len`],
    /// so partition statistics can be merged and the merged average
    /// recomputed bit-identically.
    pub fn total_token_len(&self) -> u64 {
        self.store.total_len()
    }

    /// Loose `(min, max)` bounds on live document lengths (see
    /// [`DocStore::len_bounds`]).
    pub fn doc_len_bounds(&self) -> (u32, u32) {
        self.store.len_bounds()
    }

    /// Ids of all live documents, ascending.
    pub fn live_docs(&self) -> Vec<DocId> {
        self.store.iter_live().map(|(id, _)| id).collect()
    }

    /// Whether any tombstoned documents remain. When `false`, every
    /// posting is live and the top-k engine skips its per-candidate
    /// liveness check.
    pub fn has_tombstones(&self) -> bool {
        self.store.has_tombstones()
    }

    /// `(live df, max_tf)` of an analysed term, `None` when the term is
    /// not in the dictionary — O(1) in every tombstone state: live `df`
    /// is the list's document count minus its count of tombstoned
    /// postings, which deletes maintain. `max_tf` comes from the list
    /// header and may be loose after deletes.
    pub fn term_summary(&self, term: &str) -> Option<(u32, u32)> {
        self.index.shards[self.index.shard_of(term)]
            .read()
            .summary(term)
    }

    /// Call `f` with every term and its postings list, shard by shard,
    /// each shard under its read lock; `f` must not look terms up
    /// through this index.
    pub(crate) fn for_each_term(&self, mut f: impl FnMut(&str, &PostingsList)) {
        for shard in self.index.shards.iter() {
            for (term, list, _) in shard.read().entries() {
                f(term, list);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalyzerConfig;
    use crate::model::InferenceModel;
    use crate::query::{evaluate, parse_query};

    fn sharded() -> ShardedIndex {
        ShardedIndex::new(Analyzer::new(AnalyzerConfig::default()))
    }

    fn no_stem_docs(n: usize) -> Vec<(String, String)> {
        (0..n)
            .map(|i| {
                (
                    format!("k{i}"),
                    format!("zebra{i} shared alpha{} beta{}", i % 3, i % 5),
                )
            })
            .collect()
    }

    #[test]
    fn add_and_lookup_across_shards() {
        let ix = sharded();
        ix.add_document("o1", "telnet is a protocol for remote login")
            .unwrap();
        ix.add_document("o2", "the www protocol family").unwrap();
        assert_eq!(ix.term_postings("protocol").unwrap().doc_count(), 2);
        assert_eq!(ix.live_doc_freq("telnet"), 1);
        assert_eq!(ix.live_doc_freq("absent"), 0);
        assert!(matches!(
            ix.add_document("o1", "dup"),
            Err(IrsError::DuplicateDocument(_))
        ));
    }

    #[test]
    fn batch_indexing_matches_serial_indexing() {
        let docs = no_stem_docs(40);
        let serial = sharded();
        for (k, t) in &docs {
            serial.add_document(k, t).unwrap();
        }
        let batched = sharded();
        let ids = batched.index_documents(&docs).unwrap();
        assert_eq!(ids.len(), docs.len());

        // Identical postings and statistics whichever path was taken.
        assert_eq!(serial.statistics(), batched.statistics());
        serial.reader().for_each_term(|term, list| {
            let pb = batched.term_postings(term).unwrap();
            assert_eq!(list, &*pb, "term {term}");
        });
    }

    #[test]
    fn batch_rejects_duplicates_atomically() {
        let ix = sharded();
        ix.add_document("live", "already here").unwrap();
        let batch = vec![
            ("fresh".to_string(), "new text".to_string()),
            ("live".to_string(), "collides".to_string()),
        ];
        assert!(matches!(
            ix.index_documents(&batch),
            Err(IrsError::DuplicateDocument(_))
        ));
        // Nothing from the failed batch was inserted.
        assert!(ix.with_store(|s| s.id_of("fresh").is_none()));
        let dup_within = vec![
            ("x".to_string(), "a".to_string()),
            ("x".to_string(), "b".to_string()),
        ];
        assert!(ix.index_documents(&dup_within).is_err());
        assert!(ix.with_store(|s| s.id_of("x").is_none()));
    }

    #[test]
    fn merge_compacts_tombstones() {
        let ix = sharded();
        ix.add_document("o1", "alpha beta").unwrap();
        ix.add_document("o2", "alpha gamma").unwrap();
        ix.add_document("o3", "beta gamma").unwrap();
        ix.delete_document("o2").unwrap();
        let stats = ix.merge();
        assert_eq!(stats.docs_purged, 1);
        assert!(stats.bytes_after <= stats.bytes_before);
        assert_eq!(ix.with_store(|s| s.slot_count()), 2);
        assert_eq!(ix.live_doc_freq("alpha"), 1);
        assert_eq!(ix.live_doc_freq("beta"), 2);
    }

    #[test]
    fn reader_evaluates_queries_like_a_plain_index() {
        // A one-shard index is the plain, unsharded layout.
        let ix = sharded();
        let plain = ShardedIndex::with_shards(ix.analyzer().clone(), 1);
        for (key, text) in [
            ("p1", "telnet is a protocol for remote login"),
            ("p2", "the www and the nii are information highways"),
        ] {
            ix.add_document(key, text).unwrap();
            plain.add_document(key, text).unwrap();
        }
        let model = InferenceModel::default();
        for q in [
            "telnet",
            "#and(www nii)",
            "\"information highways\"",
            "#near/3(www nii)",
        ] {
            let node = parse_query(q).unwrap();
            let a = evaluate(&ix.reader(), &model, &node);
            let b = evaluate(&plain.reader(), &model, &node);
            assert_eq!(a, b, "query {q}");
        }
    }

    #[test]
    fn concurrent_readers_and_a_writer() {
        let ix = sharded();
        for (k, t) in no_stem_docs(20) {
            ix.add_document(&k, &t).unwrap();
        }
        let model = InferenceModel::default();
        let node = parse_query("shared").unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (ix, model, node) = (&ix, &model, &node);
                scope.spawn(move || {
                    for _ in 0..50 {
                        let scores = evaluate(&ix.reader(), model, node);
                        assert!(scores.len() >= 20, "never observes a torn index");
                    }
                });
            }
            let ix = &ix;
            scope.spawn(move || {
                for i in 0..30 {
                    ix.add_document(&format!("w{i}"), "shared writer text")
                        .unwrap();
                }
            });
        });
        let term = ix.analyzer().analyze_term("shared");
        assert_eq!(ix.live_doc_freq(&term), 50);
    }

    #[test]
    fn concurrent_adders_never_corrupt_postings() {
        let ix = sharded();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let ix = &ix;
                scope.spawn(move || {
                    for i in 0..25 {
                        ix.add_document(&format!("t{t}d{i}"), "common unique words here")
                            .unwrap();
                    }
                });
            }
        });
        // Every postings list decodes cleanly with 100 ascending docs.
        let pl = ix.term_postings("common").unwrap();
        let docs: Vec<u32> = pl.iter().map(|p| p.doc).collect();
        assert_eq!(docs.len(), 100);
        let mut sorted = docs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(docs, sorted, "doc ids strictly ascending");
    }
}
