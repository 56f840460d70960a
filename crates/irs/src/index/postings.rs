//! Compressed, block-structured postings lists.
//!
//! A postings list stores, for one term, the sequence of documents the term
//! occurs in, with per-document term frequency and token positions. Doc ids
//! and positions are delta-encoded and written as LEB128 varints — the
//! classical inverted-file layout the paper's IRS generation used (inverted
//! lists stored in a file system, Section 1.1).
//!
//! The byte stream is partitioned into fixed-size *blocks* of
//! [`PostingsList::block_size`] documents (last block ragged). For each
//! block a skip header ([`BlockSkip`]) records the block's last doc id, its
//! end offset in the byte stream, and the block-local maximum term
//! frequency. The headers let a [`PostingsCursor`] seek past whole blocks
//! without decoding a single varint.
//!
//! Beside the headers, every block keeps the *frontier* of its postings'
//! `(tf, doc_len)` pairs: the Pareto set of pairs that no other posting of
//! the block beats with both a higher `tf` and a shorter document. The
//! list keeps one frontier for all its postings. Every shipped term score
//! is nondecreasing in `tf` and nonincreasing in `doc_len`, so the best
//! score over a frontier is exactly the best score of any posting behind
//! it, whatever the model and its corpus statistics — the top-k engine's
//! block-max bound (BMW-style pruning): a block whose frontier cannot
//! beat the current heap threshold is skipped outright. Frontiers are
//! derived state, never persisted: [`PostingsList::push`] maintains them,
//! and a list reassembled from disk gets them from
//! [`PostingsList::derive_frontiers`], one positions-skipping walk. A
//! posting whose document is later deleted stays in its frontier, which
//! then bounds a superset of the live postings and stays sound.
//!
//! Because every entry is delta-encoded against its predecessor, block `b`
//! decodes standalone by priming the delta base with block `b-1`'s
//! `last_doc` from the skip header (block 0 starts from 0 — the first delta
//! written is the absolute doc id). Snapshots persist the headers beside
//! the bytes, and [`PostingsList::from_raw_blocks`] reassembles a list
//! from both without decoding.

use storage::{read_varint, write_varint};

/// Default number of documents per block. 128 keeps skip headers under 1%
/// of postings bytes for realistic lists while making whole-block skips
/// worth taking.
pub const DEFAULT_BLOCK_SIZE: u32 = 128;

/// One term occurrence record during decoding: document + positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Posting {
    /// Internal document id.
    pub doc: u32,
    /// Token positions of the term within the document, ascending.
    pub positions: Vec<u32>,
}

impl Posting {
    /// Term frequency in this document.
    pub fn tf(&self) -> u32 {
        self.positions.len() as u32
    }
}

/// Skip header of one postings block: everything a reader needs to decide
/// whether to decode the block or step over it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSkip {
    /// Largest (= last) doc id in the block — the seek key, and the delta
    /// base for the *next* block.
    pub last_doc: u32,
    /// Largest per-document term frequency within the block (persisted;
    /// the score bounds read the block's frontier instead).
    pub max_tf: u32,
    /// Byte offset one past the block's last entry (the next block's
    /// start). The block's byte length is `end - previous.end`.
    pub end: usize,
}

/// A compressed, append-only postings list for a single term.
///
/// Layout per entry: `doc_delta, tf, pos_delta*` — all varints. Documents
/// must be appended in ascending doc-id order (enforced by debug assertion
/// and by the index's store write lock, under which every append runs; see
/// [`super::ShardedIndex`]). Entries are grouped
/// into blocks of [`PostingsList::block_size`] documents with one
/// [`BlockSkip`] header and one `(tf, doc_len)` frontier each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostingsList {
    bytes: Vec<u8>,
    blocks: Vec<BlockSkip>,
    block_size: u32,
    doc_count: u32,
    last_doc: u32,
    total_tf: u64,
    max_tf: u32,
    /// Every block's frontier, flat: block `b`'s points are
    /// `block_frontiers[block_frontier_ends[b - 1]..block_frontier_ends[b]]`
    /// (from 0 for block 0), each run ascending in both `tf` and
    /// `doc_len`.
    block_frontiers: Vec<(u32, u32)>,
    block_frontier_ends: Vec<u32>,
    /// The frontier of the whole list, in the same order.
    frontier: Vec<(u32, u32)>,
}

impl Default for PostingsList {
    fn default() -> Self {
        Self::with_block_size(DEFAULT_BLOCK_SIZE)
    }
}

impl PostingsList {
    /// Create an empty list with the default block size.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty list with `block_size` documents per block
    /// (clamped to at least 1).
    pub fn with_block_size(block_size: u32) -> Self {
        PostingsList {
            bytes: Vec::new(),
            blocks: Vec::new(),
            block_size: block_size.max(1),
            doc_count: 0,
            last_doc: 0,
            total_tf: 0,
            max_tf: 0,
            block_frontiers: Vec::new(),
            block_frontier_ends: Vec::new(),
            frontier: Vec::new(),
        }
    }

    /// Number of documents in the list (document frequency of the term).
    pub fn doc_count(&self) -> u32 {
        self.doc_count
    }

    /// Sum of term frequencies across all documents (collection frequency).
    pub fn total_tf(&self) -> u64 {
        self.total_tf
    }

    /// Largest per-document term frequency in the list. Feeds the top-k
    /// engine's score upper bounds; `0` for an empty list.
    pub fn max_tf(&self) -> u32 {
        self.max_tf
    }

    /// Size of the compressed representation in bytes (skip headers not
    /// included).
    pub fn byte_size(&self) -> usize {
        self.bytes.len()
    }

    /// Documents per block (the last block may hold fewer).
    pub fn block_size(&self) -> u32 {
        self.block_size
    }

    /// The per-block skip headers, in block order.
    pub fn blocks(&self) -> &[BlockSkip] {
        &self.blocks
    }

    /// The Pareto frontier of the whole list's `(tf, doc_len)` pairs,
    /// ascending in both: for every posting some point has at least its
    /// `tf` and at most its document's length.
    pub fn frontier(&self) -> &[(u32, u32)] {
        &self.frontier
    }

    /// [`Self::frontier`] of block `b`'s postings alone.
    pub fn block_frontier(&self, b: usize) -> &[(u32, u32)] {
        let start = b.checked_sub(1).map_or(0, |p| self.block_frontier_ends[p]);
        &self.block_frontiers[start as usize..self.block_frontier_ends[b] as usize]
    }

    /// Count a posting of `tf` in a document of `doc_len` tokens into the
    /// frontiers of the list and of its last block.
    fn extend_frontiers(&mut self, tf: u32, doc_len: u32) {
        let b = self.block_frontier_ends.len() - 1;
        let start = b.checked_sub(1).map_or(0, |p| self.block_frontier_ends[p]);
        // A posting off its block's frontier is off the list's too.
        if insert_pareto(&mut self.block_frontiers, start as usize, tf, doc_len) {
            self.block_frontier_ends[b] = self.block_frontiers.len() as u32;
            insert_pareto(&mut self.frontier, 0, tf, doc_len);
        }
    }

    /// Rebuild every frontier from the postings, with `doc_len(doc)` the
    /// length of document `doc` — one positions-skipping walk, for a list
    /// reassembled by [`Self::from_raw_blocks`]. `visit` sees each doc id
    /// on the way, so a caller can fold a count into the same walk.
    ///
    /// Each block is walked from its predecessor's header, as a cursor
    /// entering it would, so a decode error ends only that block: a
    /// cursor can still seek past it into the next. A posting `doc_len`
    /// has no length for (an id past the store) is left out, as no cursor
    /// delivers it as a candidate.
    pub fn derive_frontiers(
        &mut self,
        doc_len: impl Fn(u32) -> Option<u32>,
        mut visit: impl FnMut(u32),
    ) {
        self.block_frontiers.clear();
        self.block_frontier_ends.clear();
        self.frontier.clear();
        for b in 0..self.blocks.len() {
            let (mut pos, mut doc) = match b.checked_sub(1) {
                Some(p) => (self.blocks[p].end, self.blocks[p].last_doc),
                None => (0, 0),
            };
            let start = self.block_frontiers.len();
            for _ in 0..self.docs_in_block(b) {
                let bytes = &self.bytes;
                let (Some(delta), Some(tf)) =
                    (read_varint(bytes, &mut pos), read_varint(bytes, &mut pos))
                else {
                    break;
                };
                let Some(next) = doc.checked_add(delta as u32) else {
                    break;
                };
                doc = next;
                visit(doc);
                if let Some(len) = doc_len(doc) {
                    insert_pareto(&mut self.block_frontiers, start, tf as u32, len);
                }
                // Step over the positions: one varint ends at each byte
                // below 0x80.
                let mut left = tf;
                while left > 0 {
                    let Some(&byte) = bytes.get(pos) else { break };
                    pos += 1;
                    left -= u64::from(byte < 0x80);
                }
            }
            self.block_frontier_ends
                .push(self.block_frontiers.len() as u32);
            // A posting off its block's frontier is off the list's too.
            for &(tf, len) in &self.block_frontiers[start..] {
                insert_pareto(&mut self.frontier, 0, tf, len);
            }
        }
    }

    /// Number of documents stored in block `b`.
    fn docs_in_block(&self, b: usize) -> u32 {
        if b + 1 < self.blocks.len() {
            self.block_size
        } else {
            self.doc_count - b as u32 * self.block_size
        }
    }

    /// Append an occurrence record of a document `doc_len` tokens long.
    /// `positions` must be ascending and non-empty; `doc` must exceed
    /// every previously appended doc id.
    pub fn push(&mut self, doc: u32, positions: &[u32], doc_len: u32) {
        debug_assert!(!positions.is_empty(), "a posting must have >= 1 position");
        debug_assert!(
            self.doc_count == 0 || doc > self.last_doc,
            "doc ids must be appended in ascending order"
        );
        debug_assert!(positions.windows(2).all(|w| w[0] < w[1]));
        let delta = if self.doc_count == 0 {
            doc
        } else {
            doc - self.last_doc
        };
        write_varint(&mut self.bytes, u64::from(delta));
        write_varint(&mut self.bytes, positions.len() as u64);
        let mut prev = 0u32;
        for (i, &p) in positions.iter().enumerate() {
            let d = if i == 0 { p } else { p - prev };
            write_varint(&mut self.bytes, u64::from(d));
            prev = p;
        }
        let tf = positions.len() as u32;
        if self.doc_count.is_multiple_of(self.block_size) {
            self.blocks.push(BlockSkip {
                last_doc: doc,
                max_tf: tf,
                end: self.bytes.len(),
            });
            self.block_frontier_ends
                .push(self.block_frontiers.len() as u32);
        } else {
            let b = self.blocks.last_mut().expect("non-empty list has a block");
            b.last_doc = doc;
            b.max_tf = b.max_tf.max(tf);
            b.end = self.bytes.len();
        }
        self.extend_frontiers(tf, doc_len);
        self.last_doc = doc;
        self.doc_count += 1;
        self.total_tf += u64::from(tf);
        self.max_tf = self.max_tf.max(tf);
    }

    /// Iterate over the postings in doc-id order, positions materialised.
    pub fn iter(&self) -> PostingsIter<'_> {
        PostingsIter { cur: self.cursor() }
    }

    /// Iterate `(doc, tf)` pairs in doc-id order without materialising
    /// position vectors — the top-k hot path and doc-id intersection both
    /// only need frequencies, so positions are varint-skipped in place.
    pub fn doc_tfs(&self) -> DocTfIter<'_> {
        self.cursor()
    }

    /// A seekable decoding cursor: [`Iterator::next`] yields `(doc, tf)`
    /// pairs, [`PostingsCursor::seek`] skips whole blocks via the headers,
    /// [`PostingsCursor::positions`] materialises the current posting's
    /// positions on demand, and [`PostingsCursor::peek_block_for`] names
    /// the block a document would be in without decoding.
    pub fn cursor(&self) -> PostingsCursor<'_> {
        PostingsCursor {
            list: self,
            block: 0,
            entered: false,
            pos: 0,
            prev_doc: 0,
            remaining: 0,
            passed: 0,
            pending_tf: 0,
            head: None,
        }
    }

    /// Raw compressed bytes (for persistence): `(bytes, doc_count,
    /// last_doc, total_tf, max_tf)`. Block headers are exposed separately
    /// via [`PostingsList::blocks`]/[`PostingsList::block_size`].
    pub fn raw(&self) -> (&[u8], u32, u32, u64, u32) {
        (
            &self.bytes,
            self.doc_count,
            self.last_doc,
            self.total_tf,
            self.max_tf,
        )
    }

    /// Reassemble from persisted raw parts *plus* persisted skip headers
    /// — no decode pass, so the frontiers are empty until
    /// [`Self::derive_frontiers`] fills them. The headers are
    /// validated for shape (count, monotonicity, final offsets) so a
    /// corrupt-but-CRC-clean file cannot produce out-of-bounds block
    /// accesses; `None` when they are inconsistent.
    pub fn from_raw_blocks(
        bytes: Vec<u8>,
        doc_count: u32,
        last_doc: u32,
        total_tf: u64,
        max_tf: u32,
        block_size: u32,
        blocks: Vec<BlockSkip>,
    ) -> Option<Self> {
        let block_size = block_size.max(1);
        if blocks.len() != (doc_count as usize).div_ceil(block_size as usize) {
            return None;
        }
        let mut prev_end = 0usize;
        let mut prev_doc: Option<u32> = None;
        for b in &blocks {
            // Every entry is at least two bytes (doc delta + tf), and doc
            // ids strictly ascend across blocks.
            if b.end <= prev_end + 1 || b.end > bytes.len() {
                return None;
            }
            if prev_doc.is_some_and(|p| b.last_doc <= p) {
                return None;
            }
            prev_end = b.end;
            prev_doc = Some(b.last_doc);
        }
        match blocks.last() {
            Some(last) => {
                if last.end != bytes.len() || last.last_doc != last_doc {
                    return None;
                }
            }
            None => {
                if !bytes.is_empty() || doc_count != 0 {
                    return None;
                }
            }
        }
        Some(PostingsList {
            bytes,
            blocks,
            block_size,
            doc_count,
            last_doc,
            total_tf,
            max_tf,
            block_frontiers: Vec::new(),
            block_frontier_ends: Vec::new(),
            frontier: Vec::new(),
        })
    }
}

/// Add `(tf, len)` to the Pareto frontier `points[start..]` (ascending in
/// both coordinates), unless a point with at least `tf` and at most `len`
/// is there already; the points it dominates in turn are dropped. Returns
/// whether it was added.
fn insert_pareto(points: &mut Vec<(u32, u32)>, start: usize, tf: u32, len: u32) -> bool {
    let run = &points[start..];
    // First point with at least `tf`: the shortest among those.
    let at = run.partition_point(|p| p.0 < tf);
    if run.get(at).is_some_and(|p| p.1 <= len) {
        return false;
    }
    // The points below `tf` that are no shorter, and one at `tf` exactly
    // (longer, or the test above would have returned), are dominated.
    let from = run[..at].partition_point(|p| p.1 < len);
    let to = at + usize::from(run.get(at).is_some_and(|p| p.0 == tf));
    if from == to {
        points.insert(start + from, (tf, len));
    } else {
        points[start + from] = (tf, len);
        points.drain(start + from + 1..start + to);
    }
    true
}

/// Decoding iterator over a [`PostingsList`], positions materialised.
pub struct PostingsIter<'a> {
    cur: PostingsCursor<'a>,
}

impl Iterator for PostingsIter<'_> {
    type Item = Posting;

    fn next(&mut self) -> Option<Posting> {
        let (doc, _) = self.cur.next()?;
        let positions = self.cur.positions()?;
        Some(Posting { doc, positions })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.cur.size_hint()
    }
}

/// Positions-skipping decoding iterator over `(doc, tf)` pairs — the
/// seekable cursor doubles as the linear iterator.
pub type DocTfIter<'a> = PostingsCursor<'a>;

/// Seekable decoding cursor over one postings list.
///
/// [`Iterator::next`] advances one posting, yielding `(doc, tf)` and
/// varint-skipping the previous posting's positions if they were not read
/// via [`PostingsCursor::positions`]. [`PostingsCursor::seek`] uses the
/// skip headers to step over whole blocks without decoding;
/// [`PostingsCursor::peek_block_for`] advances the block pointer the same
/// way but stops short of decoding, naming the candidate block whose
/// frontier bounds it for block-max pruning.
///
/// Both seek-style calls only move forward: callers must probe ascending
/// doc ids (the document-at-a-time discipline).
pub struct PostingsCursor<'a> {
    list: &'a PostingsList,
    /// Block holding the next entry to decode (== the head's block while a
    /// head is loaded and its block is partially decoded).
    block: usize,
    /// Whether `pos`/`prev_doc`/`remaining` describe a live decode
    /// position inside `block`; false initially and after block skips.
    entered: bool,
    pos: usize,
    prev_doc: u32,
    /// Entries left to decode in the current block (valid when `entered`).
    remaining: u32,
    /// Entries decoded or skipped so far, for exact size hints.
    passed: u32,
    /// Positions of the current head not yet decoded or skipped.
    pending_tf: u32,
    head: Option<(u32, u32)>,
}

impl PostingsCursor<'_> {
    /// The most recent posting yielded by `next()`/`seek()`, if any.
    pub fn head(&self) -> Option<(u32, u32)> {
        self.head
    }

    /// Index of the block the cursor currently points into (the head's
    /// block, or the candidate block after a `peek_block_for`). Equals
    /// `blocks().len()` once exhausted.
    pub fn block_index(&self) -> usize {
        self.block
    }

    /// Decode the current posting's positions (ascending). Must follow a
    /// successful `next()`/`seek()`; a second call returns an empty
    /// vector.
    pub fn positions(&mut self) -> Option<Vec<u32>> {
        let tf = self.pending_tf as usize;
        self.pending_tf = 0;
        let mut positions = Vec::with_capacity(tf);
        let mut prev = 0u32;
        for i in 0..tf {
            let d = read_varint(&self.list.bytes, &mut self.pos)? as u32;
            let p = if i == 0 { d } else { prev + d };
            positions.push(p);
            prev = p;
        }
        Some(positions)
    }

    /// Advance to the first posting with `doc >= target`, skipping whole
    /// blocks whose `last_doc` falls short. Returns the head unchanged if
    /// it already satisfies the target. `None` when the list is exhausted
    /// before reaching `target`.
    pub fn seek(&mut self, target: u32) -> Option<(u32, u32)> {
        if let Some((d, tf)) = self.head {
            if d >= target {
                return Some((d, tf));
            }
        }
        self.skip_blocks_before(target);
        self.find(|&(d, _)| d >= target)
    }

    /// Step the block pointer to the first block that could contain
    /// `target` (or the head's block if the head already satisfies it) and
    /// return its index — without decoding anything. `None` when every
    /// remaining block ends before `target`.
    pub fn peek_block_for(&mut self, target: u32) -> Option<usize> {
        match self.head {
            Some((d, _)) if d >= target => {}
            _ => self.skip_blocks_before(target),
        }
        (self.block < self.list.blocks.len()).then_some(self.block)
    }

    /// Advance `block` past every block whose `last_doc < target`,
    /// accounting skipped entries so size hints stay exact. Never touches
    /// a block that might contain `target`.
    fn skip_blocks_before(&mut self, target: u32) {
        while let Some(skip) = self.list.blocks.get(self.block) {
            if skip.last_doc >= target {
                return;
            }
            if self.entered {
                self.passed += self.remaining;
                self.entered = false;
                self.pending_tf = 0;
            } else {
                self.passed += self.list.docs_in_block(self.block);
            }
            self.block += 1;
        }
    }

    /// Mark the cursor exhausted after a decode error (corrupt bytes).
    fn fail(&mut self) -> Option<(u32, u32)> {
        self.block = self.list.blocks.len();
        self.entered = false;
        self.pending_tf = 0;
        self.passed = self.list.doc_count;
        self.head = None;
        None
    }
}

impl Iterator for PostingsCursor<'_> {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        // Skip the previous head's positions if they were not read.
        // `pending_tf > 0` implies a live decode position (`entered`).
        for _ in 0..self.pending_tf {
            if read_varint(&self.list.bytes, &mut self.pos).is_none() {
                return self.fail();
            }
        }
        self.pending_tf = 0;
        loop {
            if !self.entered {
                if self.block >= self.list.blocks.len() {
                    self.head = None;
                    return None;
                }
                // Prime the decode state from the previous block's header:
                // the delta chain restarts from its `last_doc`/`end`.
                let (start, base) = match self.block.checked_sub(1) {
                    Some(p) => (self.list.blocks[p].end, self.list.blocks[p].last_doc),
                    None => (0, 0),
                };
                self.pos = start;
                self.prev_doc = base;
                self.remaining = self.list.docs_in_block(self.block);
                self.entered = true;
            }
            if self.remaining == 0 {
                self.block += 1;
                self.entered = false;
                continue;
            }
            let Some(delta) = read_varint(&self.list.bytes, &mut self.pos) else {
                return self.fail();
            };
            let Some(tf) = read_varint(&self.list.bytes, &mut self.pos) else {
                return self.fail();
            };
            let Some(doc) = self.prev_doc.checked_add(delta as u32) else {
                return self.fail();
            };
            self.prev_doc = doc;
            self.remaining -= 1;
            self.passed += 1;
            self.pending_tf = tf as u32;
            self.head = Some((doc, tf as u32));
            return self.head;
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.list.doc_count - self.passed) as usize;
        (left, Some(left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::read_varint_slow;

    #[test]
    fn varint_round_trip_edge_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            255,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_truncated_input_is_none() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 300);
        buf.pop();
        let mut pos = 0;
        assert_eq!(read_varint(&buf, &mut pos), None);
    }

    #[test]
    fn varint_overlong_is_rejected() {
        let buf = vec![0x80u8; 11];
        let mut pos = 0;
        assert_eq!(read_varint(&buf, &mut pos), None);
    }

    #[test]
    fn varint_padded_encodings_are_rejected() {
        // `0x80 0x00` would decode to 0 under a lenient reader; the doc
        // comment promises one spelling per value.
        for bad in [
            vec![0x80u8, 0x00],
            vec![0xffu8, 0x00],
            vec![0x80u8, 0x80, 0x00],
            vec![0x81u8, 0x80, 0x00],
        ] {
            let mut pos = 0;
            assert_eq!(read_varint(&bad, &mut pos), None, "{bad:02x?}");
        }
        // A final byte of 0 is only legal as the *whole* encoding.
        let mut pos = 0;
        assert_eq!(read_varint(&[0x00], &mut pos), Some(0));
    }

    #[test]
    fn varint_64bit_overflow_is_rejected() {
        // 10 bytes can carry at most 64 bits: the 10th byte must be 0 or 1.
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 10);
        assert_eq!(*buf.last().unwrap(), 1);
        let mut overflow = buf.clone();
        *overflow.last_mut().unwrap() = 2;
        let mut pos = 0;
        assert_eq!(read_varint(&overflow, &mut pos), None);
    }

    #[test]
    fn postings_round_trip() {
        let mut pl = PostingsList::new();
        pl.push(0, &[3, 7, 21], 10);
        pl.push(5, &[0], 10);
        pl.push(6, &[1, 2], 10);
        let decoded: Vec<Posting> = pl.iter().collect();
        assert_eq!(decoded.len(), 3);
        assert_eq!(
            decoded[0],
            Posting {
                doc: 0,
                positions: vec![3, 7, 21]
            }
        );
        assert_eq!(
            decoded[1],
            Posting {
                doc: 5,
                positions: vec![0]
            }
        );
        assert_eq!(
            decoded[2],
            Posting {
                doc: 6,
                positions: vec![1, 2]
            }
        );
        assert_eq!(pl.doc_count(), 3);
        assert_eq!(pl.total_tf(), 6);
    }

    #[test]
    fn delta_encoding_is_compact_for_dense_lists() {
        let mut pl = PostingsList::new();
        for doc in 0..1000u32 {
            pl.push(doc, &[0], 10);
        }
        // doc_delta=1|0, tf=1, pos=0 → 3 bytes per entry.
        assert!(pl.byte_size() <= 3 * 1000, "got {}", pl.byte_size());
    }

    #[test]
    fn block_headers_track_pushes() {
        let mut pl = PostingsList::with_block_size(2);
        pl.push(3, &[0, 4], 10);
        pl.push(9, &[1], 10);
        pl.push(40, &[0, 1, 2], 10);
        assert_eq!(pl.blocks().len(), 2);
        assert_eq!(pl.blocks()[0].last_doc, 9);
        assert_eq!(pl.blocks()[0].max_tf, 2);
        assert_eq!(pl.blocks()[1].last_doc, 40);
        assert_eq!(pl.blocks()[1].max_tf, 3);
        assert_eq!(pl.blocks()[1].end, pl.byte_size());
        assert!(pl.blocks()[0].end < pl.blocks()[1].end);
        assert_eq!(pl.max_tf(), 3);
    }

    #[test]
    fn frontiers_keep_the_undominated_pairs() {
        let mut pl = PostingsList::with_block_size(3);
        pl.push(0, &[0], 5);
        pl.push(1, &[0, 1, 2], 20);
        pl.push(2, &[0, 1], 8);
        // (2, 4) dominates every other pair of block 1, and (1, 5) and
        // (2, 8) of block 0 in the list's frontier.
        pl.push(3, &[0, 1], 30);
        pl.push(4, &[0, 1], 4);
        pl.push(5, &[0], 9);
        assert_eq!(pl.block_frontier(0), &[(1, 5), (2, 8), (3, 20)]);
        assert_eq!(pl.block_frontier(1), &[(2, 4)]);
        assert_eq!(pl.frontier(), &[(2, 4), (3, 20)]);
    }

    #[test]
    fn from_raw_blocks_round_trip_and_validation() {
        let mut pl = PostingsList::with_block_size(2);
        for doc in [2u32, 9, 11, 30, 31] {
            pl.push(doc, &[0, doc + 1], 10);
        }
        let (bytes, dc, last, tf, max_tf) = pl.raw();
        let mut rebuilt = PostingsList::from_raw_blocks(
            bytes.to_vec(),
            dc,
            last,
            tf,
            max_tf,
            pl.block_size(),
            pl.blocks().to_vec(),
        )
        .expect("self-consistent parts");
        assert!(rebuilt.frontier().is_empty(), "not derived yet");
        rebuilt.derive_frontiers(|_| Some(10), |_| {});
        assert_eq!(rebuilt, pl);

        // Wrong block count.
        assert!(PostingsList::from_raw_blocks(
            bytes.to_vec(),
            dc,
            last,
            tf,
            max_tf,
            pl.block_size(),
            pl.blocks()[..1].to_vec(),
        )
        .is_none());
        // Final offset not at end of bytes.
        let mut bad = pl.blocks().to_vec();
        bad.last_mut().unwrap().end -= 1;
        assert!(PostingsList::from_raw_blocks(
            bytes.to_vec(),
            dc,
            last,
            tf,
            max_tf,
            pl.block_size(),
            bad,
        )
        .is_none());
        // Non-ascending last_doc.
        let mut bad = pl.blocks().to_vec();
        bad[1].last_doc = bad[0].last_doc;
        assert!(PostingsList::from_raw_blocks(
            bytes.to_vec(),
            dc,
            last,
            tf,
            max_tf,
            pl.block_size(),
            bad,
        )
        .is_none());
        // Empty list round trip.
        let empty = PostingsList::from_raw_blocks(Vec::new(), 0, 0, 0, 0, 128, Vec::new());
        assert_eq!(empty, Some(PostingsList::new()));
    }

    #[test]
    fn cursor_mixes_skips_and_reads() {
        let mut pl = PostingsList::new();
        pl.push(0, &[3, 7, 21], 10);
        pl.push(5, &[0], 10);
        pl.push(6, &[1, 2], 10);
        let mut cur = pl.cursor();
        assert_eq!(cur.next(), Some((0, 3))); // skip positions
        assert_eq!(cur.next(), Some((5, 1)));
        assert_eq!(cur.positions(), Some(vec![0]));
        assert_eq!(cur.next(), Some((6, 2)));
        assert_eq!(cur.positions(), Some(vec![1, 2]));
        assert_eq!(cur.next(), None);
    }

    #[test]
    fn cursor_seek_skips_blocks() {
        let mut pl = PostingsList::with_block_size(2);
        for doc in [1u32, 4, 10, 12, 20, 33, 47] {
            pl.push(doc, &[0, 3], 10);
        }
        let mut cur = pl.cursor();
        assert_eq!(cur.seek(0), Some((1, 2)));
        // Seek to a present doc, skipping a whole block.
        assert_eq!(cur.seek(12), Some((12, 2)));
        assert_eq!(cur.positions(), Some(vec![0, 3]));
        // Seek to an absent doc lands on the next larger one.
        assert_eq!(cur.seek(21), Some((33, 2)));
        // A head at/past the target is returned unchanged.
        assert_eq!(cur.seek(13), Some((33, 2)));
        assert_eq!(cur.next(), Some((47, 2)));
        assert_eq!(cur.seek(48), None);
        assert_eq!(cur.next(), None);
    }

    #[test]
    fn cursor_peek_block_reports_block_max() {
        let mut pl = PostingsList::with_block_size(2);
        pl.push(1, &[0], 10);
        pl.push(4, &[0, 1, 2], 10); // block 0: max_tf 3
        pl.push(10, &[0, 1], 10);
        pl.push(12, &[0], 10); // block 1: max_tf 2
        pl.push(20, &[0, 1, 2, 3], 10); // block 2: max_tf 4
        let mut cur = pl.cursor();
        assert_eq!(cur.peek_block_for(0), Some(0));
        // Peeking does not decode: the first next() still yields doc 1.
        assert_eq!(cur.next(), Some((1, 1)));
        assert_eq!(cur.peek_block_for(11), Some(1));
        assert_eq!(cur.block_index(), 1);
        assert_eq!(cur.peek_block_for(13), Some(2));
        assert_eq!(cur.peek_block_for(21), None);
        assert_eq!(cur.next(), None);
        // Size hints stay exact across block skips.
        assert_eq!(cur.size_hint(), (0, Some(0)));
    }

    #[test]
    fn cursor_seek_after_positions_read() {
        let mut pl = PostingsList::with_block_size(2);
        for doc in [2u32, 5, 9, 14] {
            pl.push(doc, &[1, 6], 10);
        }
        let mut cur = pl.cursor();
        assert_eq!(cur.next(), Some((2, 2)));
        assert_eq!(cur.positions(), Some(vec![1, 6]));
        assert_eq!(cur.seek(14), Some((14, 2)));
        assert_eq!(cur.positions(), Some(vec![1, 6]));
    }

    /// `(doc delta, position deltas)` entries written as one block, with
    /// varint number `pad` (if any) spelled with a redundant trailing
    /// zero byte — the encoding `read_varint` must reject.
    fn single_block_list(entries: &[(u32, Vec<u32>)], pad: Option<usize>) -> PostingsList {
        let mut bytes = Vec::new();
        let mut written = 0usize;
        let mut put = |bytes: &mut Vec<u8>, v: u32| {
            write_varint(bytes, u64::from(v));
            if pad == Some(written) {
                *bytes.last_mut().unwrap() |= 0x80;
                bytes.push(0x00);
            }
            written += 1;
        };
        for (delta, positions) in entries {
            put(&mut bytes, *delta);
            put(&mut bytes, positions.len() as u32);
            for p in positions {
                put(&mut bytes, *p);
            }
        }
        let last_doc = entries.iter().map(|(d, _)| d).sum();
        let max_tf = entries.iter().map(|(_, p)| p.len() as u32).max().unwrap();
        let total_tf = entries.iter().map(|(_, p)| p.len() as u64).sum();
        let end = bytes.len();
        let blocks = vec![BlockSkip {
            last_doc,
            max_tf,
            end,
        }];
        let n = entries.len() as u32;
        PostingsList::from_raw_blocks(bytes, n, last_doc, total_tf, max_tf, n, blocks)
            .expect("shape-consistent parts")
    }

    /// What a cursor must yield, decoded with the general varint decoder
    /// only: like the cursor, an entry is delivered before its positions
    /// are skipped.
    fn slow_path_stream(pl: &PostingsList) -> Vec<(u32, u32)> {
        let (mut pos, mut doc, mut out) = (0usize, 0u32, Vec::new());
        for _ in 0..pl.doc_count() {
            let Some(delta) = read_varint_slow(&pl.bytes, &mut pos) else {
                break;
            };
            let Some(tf) = read_varint_slow(&pl.bytes, &mut pos) else {
                break;
            };
            doc += delta as u32;
            out.push((doc, tf as u32));
            if (0..tf).any(|_| read_varint_slow(&pl.bytes, &mut pos).is_none()) {
                break;
            }
        }
        out
    }

    #[test]
    fn fast_and_slow_varint_paths_yield_the_same_stream() {
        // One- and multi-byte doc deltas, tf below and above one byte,
        // one- and multi-byte position deltas.
        let entries: Vec<(u32, Vec<u32>)> = vec![
            (5, vec![0]),
            (127, vec![3, 1, 200]),
            (128, (0..127).map(|i| 1 + i % 3).collect()),
            (1, (0..128).map(|i| 1 + i % 2).collect()),
            (20_000, (0..200).map(|i| 100 + i).collect()),
            (1, vec![16_384]),
        ];
        let clean = single_block_list(&entries, None);
        let full: Vec<(u32, u32)> = clean.doc_tfs().collect();
        assert_eq!(
            full.iter().map(|e| e.1).collect::<Vec<_>>(),
            [1, 3, 127, 128, 200, 1]
        );
        assert_eq!(full.last().unwrap().0, 5 + 127 + 128 + 1 + 20_000 + 1);
        assert_eq!(full, slow_path_stream(&clean));

        // Pad every varint in turn: both paths stop at the same entry.
        let varints: usize = entries.iter().map(|(_, p)| 2 + p.len()).sum();
        for pad in 0..varints {
            let padded = single_block_list(&entries, Some(pad));
            let got: Vec<(u32, u32)> = padded.doc_tfs().collect();
            assert_eq!(got, slow_path_stream(&padded), "padded varint {pad}");
            assert!(got.len() < full.len() || pad + 1 == varints, "{pad}");
            assert_eq!(got[..], full[..got.len()], "padded varint {pad}");
        }
    }

    #[test]
    fn doc_tfs_skips_positions() {
        let mut pl = PostingsList::new();
        pl.push(0, &[3, 7, 21], 10);
        pl.push(5, &[0], 10);
        pl.push(6, &[1, 2], 10);
        let pairs: Vec<(u32, u32)> = pl.doc_tfs().collect();
        assert_eq!(pairs, vec![(0, 3), (5, 1), (6, 2)]);
        assert_eq!(pl.max_tf(), 3);
        assert_eq!(pl.doc_tfs().size_hint(), (3, Some(3)));
    }

    #[test]
    fn iterator_size_hint_is_exact() {
        let mut pl = PostingsList::new();
        pl.push(1, &[0], 10);
        pl.push(2, &[0], 10);
        let it = pl.iter();
        assert_eq!(it.size_hint(), (2, Some(2)));
    }

    #[test]
    fn empty_list_iterates_nothing() {
        let pl = PostingsList::new();
        assert_eq!(pl.iter().count(), 0);
        assert_eq!(pl.doc_count(), 0);
        assert_eq!(pl.blocks().len(), 0);
        let mut cur = pl.cursor();
        assert_eq!(cur.seek(0), None);
        assert_eq!(cur.peek_block_for(0), None);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn release_mode_marker() {}
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn varint_round_trips(v in any::<u64>()) {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            prop_assert_eq!(read_varint(&buf, &mut pos), Some(v));
            prop_assert_eq!(pos, buf.len());
        }

        /// Appending continuation-flagged zero bytes to any canonical
        /// encoding (dropping the terminator's high-bit clear) produces a
        /// padded spelling of the same value — all must be rejected.
        #[test]
        fn varint_rejects_padded_spellings(v in any::<u64>(), pad in 1usize..4) {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            if buf.len() + pad <= 10 {
                *buf.last_mut().unwrap() |= 0x80;
                buf.extend(std::iter::repeat_n(0x80, pad - 1));
                buf.push(0x00);
                let mut pos = 0;
                prop_assert_eq!(read_varint(&buf, &mut pos), None);
            }
        }

        #[test]
        fn postings_round_trip_arbitrary(
            entries in prop::collection::vec(
                (1u32..1000, prop::collection::btree_set(0u32..10_000, 1..20)),
                0..50,
            ),
            bs_idx in 0usize..4,
        ) {
            // Build strictly ascending doc ids from the random gaps.
            let block_size = [1u32, 2, 7, 128][bs_idx];
            let mut pl = PostingsList::with_block_size(block_size);
            let mut expected = Vec::new();
            let mut doc = 0u32;
            for (gap, posset) in &entries {
                doc += gap;
                let positions: Vec<u32> = posset.iter().copied().collect();
                pl.push(doc, &positions, 10);
                expected.push(Posting { doc, positions });
            }
            let decoded: Vec<Posting> = pl.iter().collect();
            let tfs: Vec<(u32, u32)> = pl.doc_tfs().collect();
            prop_assert_eq!(
                tfs,
                decoded.iter().map(|p| (p.doc, p.tf())).collect::<Vec<_>>()
            );
            prop_assert_eq!(
                pl.max_tf(),
                decoded.iter().map(|p| p.tf()).max().unwrap_or(0)
            );
            prop_assert_eq!(decoded, expected);
        }

        /// `seek(target)` agrees with a fresh linear scan for every
        /// target, under every block size, from any starting prefix.
        #[test]
        fn seek_agrees_with_linear_scan(
            gaps in prop::collection::vec((1u32..50, 1u32..5), 1..60),
            bs_idx in 0usize..4,
            advance in 0usize..8,
            targets in prop::collection::vec(0u32..3000, 1..12),
        ) {
            let block_size = [1u32, 2, 16, 128][bs_idx];
            let mut pl = PostingsList::with_block_size(block_size);
            let mut doc = 0u32;
            let mut all = Vec::new();
            for &(gap, tf) in &gaps {
                doc += gap;
                let positions: Vec<u32> = (0..tf).collect();
                pl.push(doc, &positions, 10);
                all.push((doc, tf));
            }
            // Reference model: `head` mirrors the cursor's head, `next`
            // indexes the first undelivered entry.
            let mut cur = pl.cursor();
            let mut head: Option<(u32, u32)> = None;
            let mut next = 0usize;
            for _ in 0..advance.min(all.len()) {
                head = Some(all[next]);
                next += 1;
                prop_assert_eq!(cur.next(), head);
            }
            // Seeks must probe ascending targets (the DAAT discipline).
            let mut targets = targets.clone();
            targets.sort_unstable();
            for target in targets {
                let expect = match head {
                    Some((d, tf)) if d >= target => Some((d, tf)),
                    _ => {
                        while next < all.len() && all[next].0 < target {
                            next += 1;
                        }
                        let e = all.get(next).copied();
                        if e.is_some() {
                            head = e;
                            next += 1;
                        }
                        e
                    }
                };
                prop_assert_eq!(cur.seek(target), expect, "target {}", target);
            }
        }
    }
}
