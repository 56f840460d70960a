//! One term table: a dictionary, its postings lists, and the live
//! statistics kept beside them.
//!
//! Both index shapes are built from it — an [`InvertedIndex`] holds one
//! table, a [`ShardedIndex`] one per shard — so appending, tombstoning
//! and compaction have one implementation.
//!
//! Deletions are tombstones in the [`DocStore`]; postings stay until a
//! merge. A term's *live* document frequency is its list's `doc_count`
//! minus the postings that point at tombstoned documents, and the table
//! keeps that second number per term (`dead`) as maintained state, so a
//! query reads live `df` in O(1) instead of decoding the list. A delete
//! must know which counts to bump, i.e. the deleted document's terms: the
//! table keeps a flat forward list (document → term ids), built from the
//! postings by the first delete that needs it and extended by every
//! append after that. An index that is never written to after loading —
//! a read replica — never builds one.
//!
//! The invariant the owners keep: `dead` changes only under the same
//! store write lock that flips the tombstone bit, so a reader that pins
//! the store sees counts that agree with [`DocStore::is_live`].
//!
//! [`InvertedIndex`]: super::InvertedIndex
//! [`ShardedIndex`]: super::ShardedIndex

use std::sync::Arc;

use super::{Dictionary, DocId, DocStore, PostingsList, TermId};

/// A dictionary with one postings list and one dead-postings count per
/// term (all three indexed by [`TermId`]).
#[derive(Debug, Clone)]
pub(crate) struct TermTable {
    dict: Dictionary,
    /// Shared so a query holds a list by refcount rather than by copy.
    /// Appends go through [`Arc::make_mut`], which copies a list only
    /// while someone else still holds it: writers append under the store
    /// write lock, which no running query holds, so on the serving path
    /// it never does.
    postings: Vec<Arc<PostingsList>>,
    /// Postings whose document is tombstoned, per term.
    dead: Vec<u32>,
    /// Term ids per document; `None` until a delete needs it, and again
    /// after a merge.
    forward: Option<ForwardTerms>,
    /// Documents per block of the lists this table creates.
    block_size: u32,
}

impl TermTable {
    /// An empty table whose new lists use `block_size` documents per
    /// block (clamped to at least 1).
    pub(crate) fn new(block_size: u32) -> Self {
        TermTable {
            dict: Dictionary::new(),
            postings: Vec::new(),
            dead: Vec::new(),
            forward: None,
            block_size: block_size.max(1),
        }
    }

    /// A table over persisted `(term, list)` pairs whose documents live
    /// in `store`, with every list's dead postings counted — one
    /// positions-skipping walk of the lists, none while the store has no
    /// tombstones.
    pub(crate) fn from_lists(
        lists: impl IntoIterator<Item = (String, PostingsList)>,
        store: &DocStore,
    ) -> Self {
        let mut table = TermTable::new(super::DEFAULT_BLOCK_SIZE);
        for (term, list) in lists {
            let dead = if store.has_tombstones() {
                list.doc_tfs()
                    .filter(|&(d, _)| !store.is_live(DocId(d)))
                    .count() as u32
            } else {
                0
            };
            table.insert(&term, Arc::new(list), dead);
        }
        table
    }

    /// The term dictionary.
    pub(crate) fn dictionary(&self) -> &Dictionary {
        &self.dict
    }

    /// Documents per block of the lists this table creates.
    pub(crate) fn block_size(&self) -> u32 {
        self.block_size
    }

    /// Number of distinct terms.
    pub(crate) fn len(&self) -> usize {
        self.dict.len()
    }

    /// Compressed postings bytes over all lists.
    pub(crate) fn byte_size(&self) -> usize {
        self.postings.iter().map(|p| p.byte_size()).sum()
    }

    /// `(term, list, dead postings)` in term-id order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (&str, &Arc<PostingsList>, u32)> {
        self.dict.iter().map(|(tid, term)| {
            (
                term,
                &self.postings[tid.0 as usize],
                self.dead[tid.0 as usize],
            )
        })
    }

    /// The postings list of an analysed term.
    pub(crate) fn postings(&self, term: &str) -> Option<&Arc<PostingsList>> {
        let tid = self.dict.get(term)?;
        Some(&self.postings[tid.0 as usize])
    }

    /// `(live df, max_tf)` of an analysed term, in O(1).
    pub(crate) fn summary(&self, term: &str) -> Option<(u32, u32)> {
        let tid = self.dict.get(term)?.0 as usize;
        let list = &self.postings[tid];
        Some((list.doc_count() - self.dead[tid], list.max_tf()))
    }

    /// Intern `term`; a new term starts with an empty list.
    pub(crate) fn intern(&mut self, term: &str) -> TermId {
        let tid = self.dict.intern(term);
        if tid.0 as usize == self.postings.len() {
            self.postings
                .push(Arc::new(PostingsList::with_block_size(self.block_size)));
            self.dead.push(0);
        }
        tid
    }

    /// Append `doc`'s positions to `tid`'s list. Doc ids must ascend
    /// across calls on one table (the postings delta encoding and the
    /// forward list's runs both rely on it).
    pub(crate) fn append(&mut self, tid: TermId, doc: u32, positions: &[u32]) {
        Arc::make_mut(&mut self.postings[tid.0 as usize]).push(doc, positions);
        if let Some(forward) = &mut self.forward {
            forward.push(doc, tid.0);
        }
    }

    /// Put a whole list under `term` with its dead-postings count —
    /// loaders and re-sharding. The forward list, if any, no longer
    /// covers every list and is dropped until the next delete.
    pub(crate) fn insert(&mut self, term: &str, list: Arc<PostingsList>, dead: u32) {
        let tid = self.intern(term).0 as usize;
        self.postings[tid] = list;
        self.dead[tid] = dead;
        self.forward = None;
    }

    /// Count `doc`, just tombstoned in a store of `slots` documents,
    /// against every list it appears in. Call under the store write lock
    /// that set the tombstone.
    pub(crate) fn tombstone(&mut self, doc: DocId, slots: u32) {
        let postings = &self.postings;
        let forward = self
            .forward
            .get_or_insert_with(|| ForwardTerms::build(postings, slots));
        for &tid in forward.terms_of(doc.0) {
            self.dead[tid as usize] += 1;
        }
    }

    /// The table's half of a merge: rewrite every list under `remap` (old
    /// doc id → new, `None` for a purged document). No posting is dead
    /// afterwards, and the forward list is dropped until the next delete.
    pub(crate) fn compact(&mut self, remap: &[Option<u32>]) {
        for list in &mut self.postings {
            let mut compacted = PostingsList::with_block_size(self.block_size);
            for p in list.iter() {
                if let Some(new_doc) = remap.get(p.doc as usize).copied().flatten() {
                    compacted.push(new_doc, &p.positions);
                }
            }
            *list = Arc::new(compacted);
        }
        self.dead.fill(0);
        self.forward = None;
    }
}

/// Term ids per document of one table, flat: document `d`'s ids are
/// `ids[starts[d]..starts[d + 1]]`, the last document's run ending at
/// `ids.len()`; a document at or past `starts.len()` has none.
#[derive(Debug, Clone)]
struct ForwardTerms {
    starts: Vec<usize>,
    ids: Vec<u32>,
}

impl ForwardTerms {
    /// Invert `postings` for a store of `slots` documents: one decode of
    /// every list's doc ids, then a counting sort of them by document.
    fn build(postings: &[Arc<PostingsList>], slots: u32) -> Self {
        let slots = slots as usize;
        let mut docs = Vec::new();
        let mut ends = Vec::with_capacity(postings.len());
        for list in postings {
            docs.extend(list.doc_tfs().map(|(d, _)| d));
            ends.push(docs.len());
        }
        // `starts[d + 1]` counts document `d`'s terms, then the prefix
        // sum turns the counts into run starts. Postings of documents
        // the store never assigned (a corrupt snapshot) are left out;
        // such a document is never live, so never deleted.
        let mut starts = vec![0usize; slots + 1];
        for &d in &docs {
            if let Some(count) = starts.get_mut(d as usize + 1) {
                *count += 1;
            }
        }
        for d in 1..=slots {
            starts[d] += starts[d - 1];
        }
        let mut ids = vec![0u32; starts[slots]];
        let mut next = starts.clone();
        let mut begin = 0;
        for (tid, &end) in ends.iter().enumerate() {
            for &d in &docs[begin..end] {
                let d = d as usize;
                if d < slots {
                    ids[next[d]] = tid as u32;
                    next[d] += 1;
                }
            }
            begin = end;
        }
        starts.pop();
        ForwardTerms { starts, ids }
    }

    /// Record that `doc` — no earlier than any document recorded so far
    /// — has term `tid`.
    fn push(&mut self, doc: u32, tid: u32) {
        debug_assert!(doc as usize + 1 >= self.starts.len(), "documents ascend");
        while self.starts.len() <= doc as usize {
            self.starts.push(self.ids.len());
        }
        self.ids.push(tid);
    }

    /// Term ids of `doc`.
    fn terms_of(&self, doc: u32) -> &[u32] {
        let d = doc as usize;
        let Some(&start) = self.starts.get(d) else {
            return &[];
        };
        let end = self.starts.get(d + 1).copied().unwrap_or(self.ids.len());
        &self.ids[start..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_of(keys: usize) -> DocStore {
        let mut store = DocStore::new();
        for k in 0..keys {
            store.insert(&format!("k{k}"), 1).unwrap();
        }
        store
    }

    #[test]
    fn forward_list_built_from_postings_matches_one_grown_by_appends() {
        // Doc 1 has no terms here (they live in another shard), doc 3
        // only the last term.
        let docs: [&[&str]; 4] = [&["a", "b"], &[], &["b", "c", "a"], &["c"]];
        let mut grown = TermTable::new(2);
        grown.forward = Some(ForwardTerms {
            starts: Vec::new(),
            ids: Vec::new(),
        });
        let mut built = TermTable::new(2);
        for (doc, terms) in docs.iter().enumerate() {
            for t in *terms {
                for table in [&mut grown, &mut built] {
                    let tid = table.intern(t);
                    table.append(tid, doc as u32, &[0]);
                }
            }
        }
        let built_forward = ForwardTerms::build(&built.postings, docs.len() as u32);
        let grown_forward = grown.forward.as_ref().unwrap();
        for doc in 0..docs.len() as u32 + 2 {
            let mut a = built_forward.terms_of(doc).to_vec();
            let mut b = grown_forward.terms_of(doc).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "doc {doc}");
        }
        assert_eq!(built_forward.terms_of(1), &[] as &[u32]);
    }

    #[test]
    fn tombstones_count_against_each_term_once() {
        let mut store = store_of(3);
        let mut table = TermTable::new(128);
        for (doc, terms) in [(0u32, ["x", "y"]), (1, ["y", "z"]), (2, ["x", "z"])] {
            for t in terms {
                let tid = table.intern(t);
                table.append(tid, doc, &[0, 1]);
            }
        }
        let id = store.delete("k1").unwrap();
        table.tombstone(id, store.slot_count());
        assert_eq!(table.summary("x"), Some((2, 2)));
        assert_eq!(table.summary("y"), Some((1, 2)));
        assert_eq!(table.summary("z"), Some((1, 2)));
        // A later document lands in the already-built forward list.
        store.insert("k3", 1).unwrap();
        let tid = table.intern("y");
        table.append(tid, 3, &[0]);
        let id = store.delete("k3").unwrap();
        table.tombstone(id, store.slot_count());
        assert_eq!(table.summary("y"), Some((1, 2)));
        assert_eq!(table.summary("absent"), None);
        // Compaction drops the dead postings and zeroes the counts.
        let (_, remap) = store.compacted();
        table.compact(&remap);
        assert_eq!(table.summary("y"), Some((1, 2)));
        assert_eq!(table.postings("y").unwrap().doc_count(), 1);
    }

    #[test]
    fn from_lists_counts_dead_postings_against_the_store() {
        let mut store = store_of(4);
        store.delete("k2").unwrap();
        let mut list = PostingsList::new();
        for doc in 0..4 {
            list.push(doc, &[doc]);
        }
        let table = TermTable::from_lists([("t".to_string(), list)], &store);
        assert_eq!(table.summary("t"), Some((3, 1)));
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use crate::analysis::{Analyzer, AnalyzerConfig};
    use crate::collection::{CollectionConfig, IrsCollection};
    use crate::index::{DocId, IndexReader, InvertedIndex, PostingsList, ShardedIndex};
    use crate::persist::{load_collection, save_collection, save_collection_flat};

    const WORDS: [&str; 8] = [
        "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "theta", "kappa",
    ];

    fn analyzer() -> Analyzer {
        Analyzer::new(AnalyzerConfig::default())
    }

    fn config(shards: usize) -> CollectionConfig {
        CollectionConfig {
            shards,
            ..CollectionConfig::default()
        }
    }

    /// Every term's O(1) live df equals its `is_live`-filtered count, and
    /// the maintained token sum equals the live documents' lengths.
    fn check(
        reader: &impl IndexReader,
        terms: &[String],
        what: &str,
    ) -> Result<Vec<u32>, TestCaseError> {
        let mut dfs = Vec::with_capacity(terms.len());
        for term in terms {
            let Some((df, _)) = reader.term_summary(term) else {
                return Err(TestCaseError::fail(format!("{what}: no term {term}")));
            };
            let list = reader
                .term_postings(term)
                .expect("a summary implies a list");
            let live = list
                .doc_tfs()
                .filter(|&(d, _)| reader.is_live(DocId(d)))
                .count() as u32;
            prop_assert_eq!(df, live, "{}: term {}", what, term);
            dfs.push(df);
        }
        let lens: u64 = reader
            .live_docs()
            .into_iter()
            .map(|d| u64::from(reader.doc_entry(d).len))
            .sum();
        prop_assert_eq!(reader.total_token_len(), lens, "{}: total tokens", what);
        Ok(dfs)
    }

    /// Round-trip both indexes through a saved collection: natively or
    /// flat, and for the sharded one under a configured shard count that
    /// differs from its own, so the loader re-hashes.
    fn save_load(
        plain: InvertedIndex,
        sharded: ShardedIndex,
        flat: bool,
        dir: &std::path::Path,
    ) -> (InvertedIndex, ShardedIndex) {
        let shards = sharded.shard_count();
        let round_trip = |coll: IrsCollection, name: &str| {
            let path = dir.join(name);
            if flat {
                save_collection_flat(&coll, &path).unwrap();
            } else {
                save_collection(&coll, &path).unwrap();
            }
            load_collection(&path).unwrap()
        };
        let plain = round_trip(IrsCollection::from_parts(config(shards), plain), "plain");
        let sharded = round_trip(
            IrsCollection::from_sharded(config(shards + 1), sharded),
            "sharded",
        );
        (plain.index_snapshot(), sharded.sharded_index().clone())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// After every step of a random add/update/delete/merge/save→load
        /// sequence, a plain and a sharded index at block sizes
        /// {1, 16, 128} report, for every dictionary term, an O(1) live
        /// df equal to the `is_live`-filtered count of its list — and so
        /// do both re-sharded to another shard count through
        /// `from_inverted` and `from_shard_parts`.
        #[test]
        fn live_df_equals_the_filtered_count_after_every_step(
            ops in prop::collection::vec(
                (any::<u8>(), prop::collection::vec(any::<u8>(), 1..8)),
                1..32,
            ),
            bs_idx in 0usize..3,
            shards in 1usize..4,
            case in 0u32..1_000_000,
        ) {
            let bs = [1u32, 16, 128][bs_idx];
            let mut plain = InvertedIndex::with_block_size(analyzer(), bs);
            let mut sharded = ShardedIndex::with_block_size(analyzer(), shards, bs);
            let dir = std::env::temp_dir().join(format!("irs-live-stats-{case}"));
            let mut live: Vec<String> = Vec::new();
            for (step, (code, words)) in ops.iter().enumerate() {
                let text: Vec<&str> =
                    words.iter().map(|&w| WORDS[w as usize % WORDS.len()]).collect();
                let text = text.join(" ");
                let pick = usize::from(code / 8);
                match code % 8 {
                    3 | 4 if !live.is_empty() => {
                        let key = &live[pick % live.len()];
                        plain.update_document(key, &text).unwrap();
                        sharded.update_document(key, &text).unwrap();
                    }
                    5 if !live.is_empty() => {
                        let key = live.swap_remove(pick % live.len());
                        plain.delete_document(&key).unwrap();
                        sharded.delete_document(&key).unwrap();
                    }
                    6 => {
                        plain.merge();
                        sharded.merge();
                    }
                    7 => {
                        let step_dir = dir.join(step.to_string());
                        std::fs::create_dir_all(&step_dir).unwrap();
                        (plain, sharded) = save_load(plain, sharded, pick % 2 == 1, &step_dir);
                    }
                    _ => {
                        let key = format!("k{step}");
                        plain.add_document(&key, &text).unwrap();
                        sharded.add_document(&key, &text).unwrap();
                        live.push(key);
                    }
                }
                let terms: Vec<String> =
                    plain.dictionary().iter().map(|(_, t)| t.to_string()).collect();
                let dfs = check(&plain, &terms, "plain")?;
                prop_assert_eq!(&check(&sharded.reader(), &terms, "sharded")?, &dfs);
                for (stats, store_tombstones) in [
                    (plain.statistics(), plain.store().tombstone_count()),
                    (sharded.statistics(), sharded.with_store(|s| s.tombstone_count())),
                ] {
                    prop_assert_eq!(stats.total_tokens, plain.total_token_len());
                    prop_assert_eq!(stats.tombstones, store_tombstones);
                }

                let resharded = ShardedIndex::from_inverted(plain.clone(), shards + 2);
                prop_assert_eq!(&check(&resharded.reader(), &terms, "from_inverted")?, &dfs);
                let parts: Vec<Vec<(String, PostingsList)>> = (0..sharded.shard_count())
                    .map(|i| {
                        sharded.with_shard(i, |table| {
                            table
                                .entries()
                                .map(|(term, list, _)| (term.to_string(), PostingsList::clone(list)))
                                .collect()
                        })
                    })
                    .collect();
                let rebuilt = ShardedIndex::from_shard_parts(
                    analyzer(),
                    sharded.with_store(|s| s.clone()),
                    parts,
                    shards + 1,
                );
                prop_assert_eq!(&check(&rebuilt.reader(), &terms, "from_shard_parts")?, &dfs);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
