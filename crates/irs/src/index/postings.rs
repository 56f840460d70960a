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
//! without decoding a single varint, and give the top-k engine *block-max*
//! score bounds (BMW-style pruning): a block whose `max_tf` corner bound
//! cannot beat the current heap threshold is skipped outright.
//!
//! Because every entry is delta-encoded against its predecessor, block `b`
//! decodes standalone by priming the delta base with block `b-1`'s
//! `last_doc` from the skip header (block 0 starts from 0 — the first delta
//! written is the absolute doc id). The byte stream itself is identical to
//! the pre-block flat layout, which is how legacy snapshots stay readable:
//! [`PostingsList::from_raw`] rebuilds the headers with one decode pass.

/// Default number of documents per block. 128 keeps skip headers under 1%
/// of postings bytes for realistic lists while making whole-block skips
/// worth taking.
pub const DEFAULT_BLOCK_SIZE: u32 = 128;

/// Append `v` to `buf` as an unsigned LEB128 varint.
pub fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Read a varint from `buf` starting at `*pos`, advancing `*pos`.
///
/// Returns `None` on truncated input, on encodings carrying bits past the
/// 64th (including anything longer than 10 bytes), and on *padded*
/// encodings whose final byte is a zero that a shorter encoding would have
/// omitted (`0x80 0x00` is not a valid spelling of `0`): every value has
/// exactly one accepted encoding — the one [`write_varint`] produces.
///
/// Values below 128 — nearly every doc delta, `tf` and position delta in
/// a postings list — take the one-byte fast path: a lone byte without the
/// continuation bit is always canonical, so it needs none of the checks.
#[inline]
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    match buf.get(*pos) {
        Some(&byte) if byte < 0x80 => {
            *pos += 1;
            Some(u64::from(byte))
        }
        _ => read_varint_slow(buf, pos),
    }
}

/// The general decoder behind [`read_varint`]: any length, with the
/// overflow and canonical-spelling checks.
fn read_varint_slow(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return None;
        }
        if byte & 0x80 == 0 {
            if byte == 0 && shift > 0 {
                return None;
            }
            return Some(v | u64::from(byte) << shift);
        }
        v |= u64::from(byte & 0x7f) << shift;
        shift += 7;
    }
}

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
    /// Largest per-document term frequency within the block; feeds the
    /// block-max score bound.
    pub max_tf: u32,
    /// Byte offset one past the block's last entry (the next block's
    /// start). The block's byte length is `end - previous.end`.
    pub end: usize,
}

/// A compressed, append-only postings list for a single term.
///
/// Layout per entry: `doc_delta, tf, pos_delta*` — all varints. Documents
/// must be appended in ascending doc-id order (enforced by debug assertion
/// and by the single writer, [`super::InvertedIndex`]). Entries are grouped
/// into blocks of [`PostingsList::block_size`] documents with one
/// [`BlockSkip`] header each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostingsList {
    bytes: Vec<u8>,
    blocks: Vec<BlockSkip>,
    block_size: u32,
    doc_count: u32,
    last_doc: u32,
    total_tf: u64,
    max_tf: u32,
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

    /// Number of documents stored in block `b`.
    fn docs_in_block(&self, b: usize) -> u32 {
        if b + 1 < self.blocks.len() {
            self.block_size
        } else {
            self.doc_count - b as u32 * self.block_size
        }
    }

    /// Append an occurrence record. `positions` must be ascending and
    /// non-empty; `doc` must exceed every previously appended doc id.
    pub fn push(&mut self, doc: u32, positions: &[u32]) {
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
        } else {
            let b = self.blocks.last_mut().expect("non-empty list has a block");
            b.last_doc = doc;
            b.max_tf = b.max_tf.max(tf);
            b.end = self.bytes.len();
        }
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
    /// positions on demand, and [`PostingsCursor::peek_block_for`] exposes
    /// block-max metadata without decoding.
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

    /// Rebuild from persisted raw parts with the default block size. See
    /// [`PostingsList::from_raw_with_block_size`].
    pub fn from_raw(
        bytes: Vec<u8>,
        doc_count: u32,
        last_doc: u32,
        total_tf: u64,
        max_tf: Option<u32>,
    ) -> Self {
        Self::from_raw_with_block_size(
            bytes,
            doc_count,
            last_doc,
            total_tf,
            max_tf,
            DEFAULT_BLOCK_SIZE,
        )
    }

    /// Rebuild from persisted raw parts, regenerating the skip headers
    /// with one positions-skipping decode pass (formats that predate block
    /// headers carry none). Files in the legacy flat format also predate
    /// the `max_tf` statistic; pass `None` and it is recomputed by the
    /// same pass. If the bytes decode to fewer entries than `doc_count`
    /// claims (truncation/corruption), the decoded prefix wins — the
    /// counters are corrected rather than trusted.
    pub fn from_raw_with_block_size(
        bytes: Vec<u8>,
        doc_count: u32,
        last_doc: u32,
        total_tf: u64,
        max_tf: Option<u32>,
        block_size: u32,
    ) -> Self {
        let block_size = block_size.max(1);
        let mut blocks = Vec::with_capacity((doc_count as usize).div_ceil(block_size as usize));
        let mut pos = 0usize;
        let mut prev_doc = 0u32;
        let mut decoded = 0u32;
        let mut seen_max = 0u32;
        'decode: while decoded < doc_count {
            let Some(delta) = read_varint(&bytes, &mut pos) else {
                break;
            };
            let Some(tf) = read_varint(&bytes, &mut pos) else {
                break;
            };
            for _ in 0..tf {
                if read_varint(&bytes, &mut pos).is_none() {
                    break 'decode;
                }
            }
            let Some(doc) = prev_doc.checked_add(delta as u32) else {
                break;
            };
            prev_doc = doc;
            let tf = tf as u32;
            if decoded.is_multiple_of(block_size) {
                blocks.push(BlockSkip {
                    last_doc: doc,
                    max_tf: tf,
                    end: pos,
                });
            } else {
                let b = blocks.last_mut().expect("entry 0 created a block");
                b.last_doc = doc;
                b.max_tf = b.max_tf.max(tf);
                b.end = pos;
            }
            seen_max = seen_max.max(tf);
            decoded += 1;
        }
        PostingsList {
            bytes,
            blocks,
            block_size,
            doc_count: decoded,
            last_doc: if decoded > 0 { prev_doc } else { 0 },
            total_tf,
            max_tf: match max_tf {
                Some(m) if decoded == doc_count && last_doc == prev_doc => m,
                _ => seen_max,
            },
        }
    }

    /// Reassemble from persisted raw parts *plus* persisted skip headers
    /// (block-aware snapshot formats) — no decode pass. The headers are
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
        })
    }
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
/// way but stops short of decoding, exposing the candidate block's
/// `max_tf` for block-max pruning.
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
    /// return `(block_index, block_max_tf)` — without decoding anything.
    /// `None` when every remaining block ends before `target`.
    pub fn peek_block_for(&mut self, target: u32) -> Option<(usize, u32)> {
        match self.head {
            Some((d, _)) if d >= target => {}
            _ => self.skip_blocks_before(target),
        }
        let skip = self.list.blocks.get(self.block)?;
        Some((self.block, skip.max_tf))
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
        pl.push(0, &[3, 7, 21]);
        pl.push(5, &[0]);
        pl.push(6, &[1, 2]);
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
            pl.push(doc, &[0]);
        }
        // doc_delta=1|0, tf=1, pos=0 → 3 bytes per entry.
        assert!(pl.byte_size() <= 3 * 1000, "got {}", pl.byte_size());
    }

    #[test]
    fn block_headers_track_pushes() {
        let mut pl = PostingsList::with_block_size(2);
        pl.push(3, &[0, 4]);
        pl.push(9, &[1]);
        pl.push(40, &[0, 1, 2]);
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
    fn raw_round_trip() {
        let mut pl = PostingsList::new();
        pl.push(2, &[1, 5]);
        pl.push(9, &[0]);
        let (bytes, dc, last, tf, max_tf) = pl.raw();
        assert_eq!(max_tf, 2);
        let rebuilt = PostingsList::from_raw(bytes.to_vec(), dc, last, tf, Some(max_tf));
        assert_eq!(rebuilt, pl);
        assert_eq!(rebuilt.iter().count(), 2);
        // Legacy path: max_tf recomputed from the compressed bytes.
        let legacy = PostingsList::from_raw(bytes.to_vec(), dc, last, tf, None);
        assert_eq!(legacy, pl);
        assert_eq!(legacy.max_tf(), 2);
    }

    #[test]
    fn from_raw_blocks_round_trip_and_validation() {
        let mut pl = PostingsList::with_block_size(2);
        for doc in [2u32, 9, 11, 30, 31] {
            pl.push(doc, &[0, doc + 1]);
        }
        let (bytes, dc, last, tf, max_tf) = pl.raw();
        let rebuilt = PostingsList::from_raw_blocks(
            bytes.to_vec(),
            dc,
            last,
            tf,
            max_tf,
            pl.block_size(),
            pl.blocks().to_vec(),
        )
        .expect("self-consistent parts");
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
    fn from_raw_rebuilds_identical_blocks() {
        for bs in [1u32, 2, 3, 128] {
            let mut pl = PostingsList::with_block_size(bs);
            for doc in [0u32, 5, 6, 19, 300, 301, 302] {
                pl.push(doc, &[doc, doc + 2]);
            }
            let (bytes, dc, last, tf, max_tf) = pl.raw();
            let rebuilt = PostingsList::from_raw_with_block_size(
                bytes.to_vec(),
                dc,
                last,
                tf,
                Some(max_tf),
                bs,
            );
            assert_eq!(rebuilt, pl, "block size {bs}");
        }
    }

    #[test]
    fn cursor_mixes_skips_and_reads() {
        let mut pl = PostingsList::new();
        pl.push(0, &[3, 7, 21]);
        pl.push(5, &[0]);
        pl.push(6, &[1, 2]);
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
            pl.push(doc, &[0, 3]);
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
        pl.push(1, &[0]);
        pl.push(4, &[0, 1, 2]); // block 0: max_tf 3
        pl.push(10, &[0, 1]);
        pl.push(12, &[0]); // block 1: max_tf 2
        pl.push(20, &[0, 1, 2, 3]); // block 2: max_tf 4
        let mut cur = pl.cursor();
        assert_eq!(cur.peek_block_for(0), Some((0, 3)));
        // Peeking does not decode: the first next() still yields doc 1.
        assert_eq!(cur.next(), Some((1, 1)));
        assert_eq!(cur.peek_block_for(11), Some((1, 2)));
        assert_eq!(cur.block_index(), 1);
        assert_eq!(cur.peek_block_for(13), Some((2, 4)));
        assert_eq!(cur.peek_block_for(21), None);
        assert_eq!(cur.next(), None);
        // Size hints stay exact across block skips.
        assert_eq!(cur.size_hint(), (0, Some(0)));
    }

    #[test]
    fn cursor_seek_after_positions_read() {
        let mut pl = PostingsList::with_block_size(2);
        for doc in [2u32, 5, 9, 14] {
            pl.push(doc, &[1, 6]);
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
        pl.push(0, &[3, 7, 21]);
        pl.push(5, &[0]);
        pl.push(6, &[1, 2]);
        let pairs: Vec<(u32, u32)> = pl.doc_tfs().collect();
        assert_eq!(pairs, vec![(0, 3), (5, 1), (6, 2)]);
        assert_eq!(pl.max_tf(), 3);
        assert_eq!(pl.doc_tfs().size_hint(), (3, Some(3)));
    }

    #[test]
    fn iterator_size_hint_is_exact() {
        let mut pl = PostingsList::new();
        pl.push(1, &[0]);
        pl.push(2, &[0]);
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
                pl.push(doc, &positions);
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
                pl.push(doc, &positions);
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
