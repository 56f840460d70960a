//! Document store: internal doc ids, external keys, per-document metadata.
//!
//! The paper (Section 4.3) stores the database object identifier (OID) as
//! metadata with each IRS document so that IRS results can be mapped back
//! to objects efficiently. The store keeps that external key plus the
//! document length (needed by length-normalising retrieval models) and a
//! tombstone bit for deletions.

use std::collections::HashMap;

use super::DocId;

/// Metadata kept per IRS document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocEntry {
    /// The external key — in the coupling, the OID of the database object
    /// this IRS document represents (paper Section 4.3: "each IRS document
    /// is assigned exactly one object").
    pub key: String,
    /// Document length in analysed tokens.
    pub len: u32,
    /// True once the document has been deleted (awaiting merge).
    pub deleted: bool,
}

/// The document store.
#[derive(Debug, Default, Clone)]
pub struct DocStore {
    docs: Vec<DocEntry>,
    by_key: HashMap<String, DocId>,
    live_count: u32,
    total_len: u64,
    /// Loose bounds on live document lengths: widened on insert, never
    /// narrowed on delete, so they always enclose the true live range.
    /// A merge rebuilds the store from inserts and re-tightens them.
    min_len: u32,
    max_len: u32,
}

impl DocStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new document. Returns `None` if `key` is already live.
    pub fn insert(&mut self, key: &str, len: u32) -> Option<DocId> {
        if self.by_key.contains_key(key) {
            return None;
        }
        let id = DocId(self.docs.len() as u32);
        self.docs.push(DocEntry {
            key: key.to_string(),
            len,
            deleted: false,
        });
        self.by_key.insert(key.to_string(), id);
        if self.live_count == 0 && self.docs.len() == 1 {
            self.min_len = len;
            self.max_len = len;
        } else {
            self.min_len = self.min_len.min(len);
            self.max_len = self.max_len.max(len);
        }
        self.live_count += 1;
        self.total_len += u64::from(len);
        Some(id)
    }

    /// Tombstone the document with external `key`. Returns its doc id, or
    /// `None` if the key is unknown.
    pub fn delete(&mut self, key: &str) -> Option<DocId> {
        let id = self.by_key.remove(key)?;
        let entry = &mut self.docs[id.0 as usize];
        debug_assert!(!entry.deleted);
        entry.deleted = true;
        self.live_count -= 1;
        self.total_len -= u64::from(entry.len);
        Some(id)
    }

    /// Metadata of `id` (including tombstoned entries).
    pub fn entry(&self, id: DocId) -> &DocEntry {
        &self.docs[id.0 as usize]
    }

    /// True if `id` refers to a live (non-deleted) document.
    pub fn is_live(&self, id: DocId) -> bool {
        self.docs
            .get(id.0 as usize)
            .map(|e| !e.deleted)
            .unwrap_or(false)
    }

    /// Doc id of a live document with external `key`.
    pub fn id_of(&self, key: &str) -> Option<DocId> {
        self.by_key.get(key).copied()
    }

    /// Number of live documents.
    pub fn live_count(&self) -> u32 {
        self.live_count
    }

    /// Total slots including tombstones (== next doc id to be assigned).
    pub fn slot_count(&self) -> u32 {
        self.docs.len() as u32
    }

    /// Number of tombstoned slots (awaiting a merge).
    pub(crate) fn tombstone_count(&self) -> u32 {
        self.slot_count() - self.live_count
    }

    /// Whether any tombstoned slots remain.
    pub fn has_tombstones(&self) -> bool {
        self.tombstone_count() > 0
    }

    /// The store a merge leaves behind — live documents only, re-inserted
    /// in slot order under dense ids — and the old → new id map (`None`
    /// for a purged slot) the postings are rewritten with.
    pub(crate) fn compacted(&self) -> (DocStore, Vec<Option<u32>>) {
        let mut remap = vec![None; self.docs.len()];
        let mut store = DocStore::new();
        for (old_id, entry) in self.iter_live() {
            let new_id = store
                .insert(&entry.key, entry.len)
                .expect("live keys are unique");
            remap[old_id.0 as usize] = Some(new_id.0);
        }
        (store, remap)
    }

    /// Sum of live document lengths in tokens — the numerator of
    /// [`DocStore::avg_len`], exposed so distributed scoring can merge
    /// partition statistics and recompute the exact same average.
    pub fn total_len(&self) -> u64 {
        self.total_len
    }

    /// Average length of live documents in tokens (0.0 when empty).
    pub fn avg_len(&self) -> f64 {
        if self.live_count == 0 {
            0.0
        } else {
            self.total_len as f64 / f64::from(self.live_count)
        }
    }

    /// Loose `(min, max)` bounds on live document lengths — guaranteed to
    /// enclose every live document's length, though deletions may leave
    /// them wider than the exact range. `(0, 0)` for an empty store.
    pub fn len_bounds(&self) -> (u32, u32) {
        if self.live_count == 0 {
            (0, 0)
        } else {
            (self.min_len, self.max_len)
        }
    }

    /// Iterate over live documents as `(DocId, &DocEntry)`.
    pub fn iter_live(&self) -> impl Iterator<Item = (DocId, &DocEntry)> {
        self.docs
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.deleted)
            .map(|(i, e)| (DocId(i as u32), e))
    }

    /// Fraction of slots that are tombstones (merge trigger heuristic).
    pub fn tombstone_ratio(&self) -> f64 {
        if self.docs.is_empty() {
            0.0
        } else {
            1.0 - f64::from(self.live_count) / self.docs.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_assigns_sequential_ids() {
        let mut s = DocStore::new();
        assert_eq!(s.insert("a", 10), Some(DocId(0)));
        assert_eq!(s.insert("b", 20), Some(DocId(1)));
        assert_eq!(s.live_count(), 2);
        assert_eq!(s.avg_len(), 15.0);
    }

    #[test]
    fn duplicate_key_rejected_until_deleted() {
        let mut s = DocStore::new();
        s.insert("a", 5).unwrap();
        assert_eq!(s.insert("a", 5), None);
        s.delete("a").unwrap();
        // Re-insert after delete gets a fresh slot.
        assert_eq!(s.insert("a", 7), Some(DocId(1)));
        assert_eq!(s.slot_count(), 2);
        assert_eq!(s.live_count(), 1);
    }

    #[test]
    fn delete_tombstones_and_updates_stats() {
        let mut s = DocStore::new();
        let id = s.insert("a", 10).unwrap();
        s.insert("b", 30).unwrap();
        assert_eq!(s.delete("a"), Some(id));
        assert!(!s.is_live(id));
        assert_eq!(s.live_count(), 1);
        assert_eq!(s.avg_len(), 30.0);
        assert_eq!(s.delete("a"), None, "second delete of same key fails");
        assert!((s.tombstone_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(s.tombstone_count(), 1);
    }

    #[test]
    fn iter_live_skips_tombstones() {
        let mut s = DocStore::new();
        s.insert("a", 1).unwrap();
        s.insert("b", 2).unwrap();
        s.delete("a").unwrap();
        let live: Vec<&str> = s.iter_live().map(|(_, e)| e.key.as_str()).collect();
        assert_eq!(live, vec!["b"]);
    }

    #[test]
    fn len_bounds_enclose_live_lengths() {
        let mut s = DocStore::new();
        assert_eq!(s.len_bounds(), (0, 0));
        s.insert("a", 10).unwrap();
        assert_eq!(s.len_bounds(), (10, 10));
        s.insert("b", 3).unwrap();
        s.insert("c", 40).unwrap();
        assert_eq!(s.len_bounds(), (3, 40));
        // Deletion may leave the bounds loose, but they still enclose.
        s.delete("b").unwrap();
        let (lo, hi) = s.len_bounds();
        assert!(lo <= 10 && hi >= 40);
        s.delete("a").unwrap();
        s.delete("c").unwrap();
        assert_eq!(s.len_bounds(), (0, 0), "no live docs, empty bounds");
    }

    #[test]
    fn empty_store_edge_cases() {
        let s = DocStore::new();
        assert_eq!(s.avg_len(), 0.0);
        assert_eq!(s.tombstone_ratio(), 0.0);
        assert!(!s.is_live(DocId(0)));
        assert_eq!(s.id_of("x"), None);
    }
}
