//! Persistent buffering of IRS results (paper Figure 3).
//!
//! "For both intra- and inter-query optimization, the results of IRS
//! calls are buffered persistently in a dictionary of type
//! `||STRING → ||IRSObjects → REAL|| ||`. Its keys are IRS queries"
//! (Section 4.2). The buffer is LRU-bounded, counts hits and misses (the
//! E4 experiment's metrics), and can be saved to / loaded from disk.
//!
//! **Validity:** a buffered result is valid exactly as long as the IRS
//! content it was computed from (Section 4.6). Every entry carries the
//! [`irs::IrsCollection::epoch`] it was computed at, and
//! [`ResultBuffer::get`] hits only when that tag equals the collection's
//! current epoch. Update propagation therefore needs no invalidation
//! call: any IRS mutation mints a new epoch, and every older entry stops
//! answering fresh lookups at once — including after a mutation whose
//! caller later failed.
//!
//! Internally the buffer is a set of independently locked LRU shards
//! (query hashed to a shard), so concurrent query threads rarely contend;
//! every operation — including `get`, which must update recency — takes
//! `&self`. Each shard is an intrusive doubly linked list over a slab, so
//! touch and eviction are O(1) instead of the previous O(n) `Vec` scan.
//! Small capacities (below [`SHARDING_THRESHOLD`]) use a single shard so
//! eviction order stays exact global LRU. Entries are shared
//! `Arc<ResultMap>`s, so a hit is a pointer bump, not a map copy.
//!
//! **Degraded-mode serving:** an entry from an older epoch stays in its
//! slot until a fresh result for the same query replaces it or LRU
//! eviction drops it. When the IRS is unavailable the collection falls
//! back to [`ResultBuffer::get_stale`], which returns the entry whatever
//! its tag — the last known result, marked with
//! [`crate::ResultOrigin::Stale`] and counted in
//! [`BufferStats::stale_hits`].

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use oodb::Oid;
use storage::codec::{put_f64, put_u64, Reader};

use crate::error::{CouplingError, Result};

/// One buffered IRS result: OID → IRS value.
pub type ResultMap = HashMap<Oid, f64>;

/// Buffer statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Lookups answered from the buffer.
    pub hits: u64,
    /// Lookups that had to call the IRS.
    pub misses: u64,
    /// Entries dropped by LRU eviction.
    pub evictions: u64,
    /// Lookups answered by an entry of any epoch while the IRS was
    /// unavailable.
    pub stale_hits: u64,
}

/// Buffers with capacity below this stay single-sharded: exact global LRU
/// matters more than lock spreading when only a handful of entries fit.
pub const SHARDING_THRESHOLD: usize = 64;

/// Shards used for large buffers.
const N_SHARDS: usize = 8;

const NIL: usize = usize::MAX;

/// The tag [`ResultBuffer::invalidate_all`] gives every entry: no IRS
/// content has epoch `0`, so a retired entry never answers fresh.
const RETIRED: u64 = 0;

/// Slab node of one shard's intrusive LRU list.
#[derive(Debug)]
struct Node {
    key: String,
    value: Arc<ResultMap>,
    /// The IRS epoch `value` was computed at.
    epoch: u64,
    prev: usize,
    next: usize,
}

/// One LRU shard: key → slab slot, plus a doubly linked recency list
/// (head = least recently used, tail = most recently used).
#[derive(Debug)]
struct LruShard {
    map: HashMap<String, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl LruShard {
    fn new(capacity: usize) -> Self {
        LruShard {
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity: capacity.max(1),
        }
    }

    /// Unlink `slot` from the recency list.
    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.nodes[slot].prev, self.nodes[slot].next);
        match prev {
            NIL => self.head = next,
            p => self.nodes[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n].prev = prev,
        }
    }

    /// Append `slot` at the tail (most recently used).
    fn push_tail(&mut self, slot: usize) {
        self.nodes[slot].prev = self.tail;
        self.nodes[slot].next = NIL;
        match self.tail {
            NIL => self.head = slot,
            t => self.nodes[t].next = slot,
        }
        self.tail = slot;
    }

    fn touch(&mut self, slot: usize) {
        if self.tail != slot {
            self.unlink(slot);
            self.push_tail(slot);
        }
    }

    /// O(1) lookup + recency update of the entry for `query` if its tag
    /// satisfies `valid`. Returns a shared pointer, so no lock is held by
    /// the caller and no map is copied.
    fn get(&mut self, query: &str, valid: impl Fn(u64) -> bool) -> Option<Arc<ResultMap>> {
        let slot = *self.map.get(query)?;
        if !valid(self.nodes[slot].epoch) {
            return None;
        }
        self.touch(slot);
        Some(Arc::clone(&self.nodes[slot].value))
    }

    /// Insert or update; returns the number of evictions performed (0/1).
    fn insert(&mut self, query: &str, epoch: u64, result: Arc<ResultMap>) -> u64 {
        if let Some(&slot) = self.map.get(query) {
            self.nodes[slot].value = result;
            self.nodes[slot].epoch = epoch;
            self.touch(slot);
            return 0;
        }
        let mut evictions = 0;
        if self.map.len() >= self.capacity {
            let victim = self.head;
            self.unlink(victim);
            let key = std::mem::take(&mut self.nodes[victim].key);
            self.nodes[victim].value = Arc::default();
            self.map.remove(&key);
            self.free.push(victim);
            evictions = 1;
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot].key = query.to_string();
                self.nodes[slot].value = result;
                self.nodes[slot].epoch = epoch;
                slot
            }
            None => {
                self.nodes.push(Node {
                    key: query.to_string(),
                    value: result,
                    epoch,
                    prev: NIL,
                    next: NIL,
                });
                self.nodes.len() - 1
            }
        };
        self.push_tail(slot);
        self.map.insert(query.to_string(), slot);
        evictions
    }
}

/// The IRS-result buffer. All operations take `&self`; shards are locked
/// individually, counters are atomics.
#[derive(Debug)]
pub struct ResultBuffer {
    shards: Box<[Mutex<LruShard>]>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    stale_hits: AtomicU64,
}

impl Default for ResultBuffer {
    fn default() -> Self {
        Self::new(256)
    }
}

/// FNV-1a — the same stable hash the sharded index uses for terms.
fn shard_hash(query: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in query.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl ResultBuffer {
    /// Create a buffer holding at most `capacity` query results in total
    /// (floored at 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let n_shards = if capacity < SHARDING_THRESHOLD {
            1
        } else {
            N_SHARDS
        };
        // Split capacity across shards, remainder to the first shards.
        let base = capacity / n_shards;
        let rem = capacity % n_shards;
        let shards = (0..n_shards)
            .map(|i| Mutex::new(LruShard::new(base + usize::from(i < rem))))
            .collect();
        ResultBuffer {
            shards,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            stale_hits: AtomicU64::new(0),
        }
    }

    fn shard(&self, query: &str) -> &Mutex<LruShard> {
        &self.shards[(shard_hash(query) % self.shards.len() as u64) as usize]
    }

    /// Number of buffered queries, whatever their epoch.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// True if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().map.is_empty())
    }

    /// The most query results the buffer holds.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.lock().capacity).sum()
    }

    /// Statistics so far.
    pub fn stats(&self) -> BufferStats {
        BufferStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            stale_hits: self.stale_hits.load(Ordering::Relaxed),
        }
    }

    /// Look up the result of `query` computed at IRS `epoch`, updating
    /// hit/miss counters and recency. An entry from any other epoch is a
    /// miss. Returns a shared pointer — callers hold no lock afterwards.
    pub fn get(&self, query: &str, epoch: u64) -> Option<Arc<ResultMap>> {
        let hit = self.shard(query).lock().get(query, |tag| tag == epoch);
        let counter = if hit.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Check presence, whatever the epoch, without touching counters or
    /// recency.
    pub fn contains(&self, query: &str) -> bool {
        self.shard(query).lock().map.contains_key(query)
    }

    /// Buffer the result of `query` computed at IRS `epoch`, replacing
    /// any older entry for it and evicting the least recently used entry
    /// of its shard if at capacity.
    pub fn insert(&self, query: &str, epoch: u64, result: Arc<ResultMap>) {
        let evicted = self.shard(query).lock().insert(query, epoch, result);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Retire every entry: fresh lookups miss until each query is
    /// recomputed, while the retired entries still answer
    /// [`ResultBuffer::get_stale`]. For changes the IRS epoch does not
    /// see, such as a new ranking cap.
    pub fn invalidate_all(&self) {
        for shard in self.shards.iter() {
            for node in shard.lock().nodes.iter_mut() {
                node.epoch = RETIRED;
            }
        }
    }

    /// Serve the buffered result of `query` whatever its epoch — the
    /// last known result. Used only when the IRS is unavailable; counted
    /// in [`BufferStats::stale_hits`] when it succeeds.
    pub fn get_stale(&self, query: &str) -> Option<Arc<ResultMap>> {
        let map = self.shard(query).lock().get(query, |_| true);
        if map.is_some() {
            self.stale_hits.fetch_add(1, Ordering::Relaxed);
        }
        map
    }

    /// Persist the buffer to `path` (the paper buffers *persistently*).
    /// Crash-safe: temp file + fsync + atomic rename with a CRC-32
    /// trailer ([`storage::atomic_write`]). Only entries computed at
    /// `epoch` — the collection's current one — are saved; older entries
    /// are a runtime-degradation artifact. The file records
    /// `index_epoch`, the epoch a load of the index saved beside it will
    /// have (what [`irs::persist::save_collection`] returns).
    pub fn save(&self, path: &Path, epoch: u64, index_epoch: u64) -> Result<()> {
        // Collect the union of all shards, sorted by key so the file is
        // deterministic and independent of shard layout.
        let mut entries: Vec<(String, Arc<ResultMap>)> = Vec::new();
        for shard in self.shards.iter() {
            let shard = shard.lock();
            for (k, &slot) in &shard.map {
                let node = &shard.nodes[slot];
                if node.epoch == epoch {
                    entries.push((k.clone(), Arc::clone(&node.value)));
                }
            }
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));

        let mut out = Vec::new();
        put_u64(&mut out, index_epoch);
        put_u64(&mut out, entries.len() as u64);
        for (key, map) in &entries {
            put_u64(&mut out, key.len() as u64);
            out.extend_from_slice(key.as_bytes());
            put_u64(&mut out, map.len() as u64);
            let mut oids: Vec<(&Oid, &f64)> = map.iter().collect();
            oids.sort_by_key(|(o, _)| **o);
            for (oid, val) in oids {
                put_u64(&mut out, oid.0);
                put_f64(&mut out, *val);
            }
        }
        Ok(storage::atomic_write(path, &out).map(drop)?)
    }

    /// Load a buffer previously written by [`ResultBuffer::save`],
    /// verifying its CRC-32 trailer, with every entry tagged `epoch` —
    /// the epoch of the IRS collection loaded beside it. A file that
    /// records another index epoch was computed from other content: its
    /// entries are decoded and dropped. Capacity and statistics start
    /// fresh.
    pub fn load(path: &Path, capacity: usize, epoch: u64) -> Result<Self> {
        let bytes = storage::read_verified(path)?;
        let mut r = Reader::new(&bytes);
        let current = r.u64("buffer index epoch")? == epoch;
        // An entry takes at least its key length and its map length; a
        // map entry is an oid and a value.
        let n = r.u64("buffer entry count")?;
        let n = r.count(n, 16, "buffer entry")?;
        let out = ResultBuffer::new(capacity);
        for _ in 0..n {
            let klen = r.u64("buffer key length")?;
            let key = r.take(r.count(klen, 1, "buffer key byte")?, "buffer key")?;
            let key = std::str::from_utf8(key).map_err(|_| {
                CouplingError::Irs(irs::IrsError::CorruptIndex("non-utf8 buffer key".into()))
            })?;
            let m = r.u64("buffer map length")?;
            let m = r.count(m, 16, "buffer map entry")?;
            let mut map = ResultMap::with_capacity(m);
            for _ in 0..m {
                let oid = Oid(r.u64("buffer oid")?);
                let val = r.f64("buffer value")?;
                map.insert(oid, val);
            }
            if current {
                out.insert(key, epoch, Arc::new(map));
            }
        }
        r.finish()?;
        out.evictions.store(0, Ordering::Relaxed);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The epoch most tests buffer under.
    const E: u64 = 7;

    fn map(pairs: &[(u64, f64)]) -> Arc<ResultMap> {
        Arc::new(pairs.iter().map(|&(o, v)| (Oid(o), v)).collect())
    }

    #[test]
    fn hit_and_miss_counting() {
        let b = ResultBuffer::new(8);
        assert!(b.get("q1", E).is_none());
        b.insert("q1", E, map(&[(1, 0.7)]));
        assert_eq!(b.get("q1", E).unwrap()[&Oid(1)], 0.7);
        let s = b.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn lru_eviction_drops_oldest() {
        let b = ResultBuffer::new(2);
        b.insert("q1", E, map(&[(1, 0.1)]));
        b.insert("q2", E, map(&[(2, 0.2)]));
        // Touch q1 so q2 becomes LRU.
        b.get("q1", E);
        b.insert("q3", E, map(&[(3, 0.3)]));
        assert!(b.contains("q1"));
        assert!(!b.contains("q2"));
        assert!(b.contains("q3"));
        assert_eq!(b.stats().evictions, 1);
    }

    #[test]
    fn lru_order_follows_every_touch() {
        let b = ResultBuffer::new(3);
        b.insert("q1", E, map(&[(1, 0.1)]));
        b.insert("q2", E, map(&[(2, 0.2)]));
        b.insert("q3", E, map(&[(3, 0.3)]));
        // Recency now q1 < q2 < q3; touch q1 then q2, leaving q3 oldest.
        b.get("q1", E);
        b.get("q2", E);
        b.insert("q4", E, map(&[(4, 0.4)]));
        assert!(!b.contains("q3"), "q3 was least recently used");
        b.insert("q5", E, map(&[(5, 0.5)]));
        assert!(!b.contains("q1"), "then q1");
        assert!(b.contains("q2") && b.contains("q4") && b.contains("q5"));
        assert_eq!(b.stats().evictions, 2);
    }

    #[test]
    fn eviction_at_capacity_is_bounded() {
        let b = ResultBuffer::new(4);
        for i in 0..20 {
            b.insert(&format!("q{i}"), E, map(&[(i, i as f64)]));
        }
        assert_eq!(b.len(), 4);
        assert_eq!(b.stats().evictions, 16);
        // The four most recent survive under single-shard global LRU.
        for i in 16..20 {
            assert!(b.contains(&format!("q{i}")), "q{i}");
        }
    }

    #[test]
    fn invalidation_clears_everything() {
        let b = ResultBuffer::new(8);
        b.insert("q1", E, map(&[(1, 0.5)]));
        b.insert("q2", E + 1, map(&[(2, 0.5)]));
        b.invalidate_all();
        // No epoch answers a retired entry fresh.
        for epoch in [E, E + 1, u64::MAX] {
            assert!(b.get("q1", epoch).is_none());
            assert!(b.get("q2", epoch).is_none());
        }
    }

    #[test]
    fn entries_answer_only_the_epoch_they_were_computed_at() {
        let b = ResultBuffer::new(8);
        b.insert("q1", E, map(&[(1, 0.5)]));
        assert!(b.get("q1", E + 1).is_none(), "the IRS moved on");
        assert_eq!(b.get("q1", E).unwrap()[&Oid(1)], 0.5);
        // Recomputing at the new epoch replaces the entry in place.
        b.insert("q1", E + 1, map(&[(1, 0.25)]));
        assert_eq!(b.len(), 1);
        assert!(b.get("q1", E).is_none());
        assert_eq!(b.get("q1", E + 1).unwrap()[&Oid(1)], 0.25);
        let s = b.stats();
        assert_eq!((s.hits, s.misses), (2, 2));
    }

    #[test]
    fn stats_after_invalidate_keep_history() {
        let b = ResultBuffer::new(8);
        b.insert("q1", E, map(&[(1, 0.5)]));
        b.get("q1", E);
        b.get("nope", E);
        b.invalidate_all();
        b.invalidate_all();
        let s = b.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        // Post-invalidation lookups miss and are counted as misses.
        assert!(b.get("q1", E).is_none());
        assert_eq!(b.stats().misses, 2);
    }

    #[test]
    fn reinsert_updates_value_without_eviction() {
        let b = ResultBuffer::new(2);
        b.insert("q1", E, map(&[(1, 0.1)]));
        b.insert("q1", E, map(&[(1, 0.9)]));
        assert_eq!(b.len(), 1);
        assert_eq!(b.get("q1", E).unwrap()[&Oid(1)], 0.9);
        assert_eq!(b.stats().evictions, 0);
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join("coupling-buffer-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("buf.bin");
        let b = ResultBuffer::new(8);
        b.insert("#and(www nii)", E, map(&[(1, 0.75), (2, 0.5)]));
        b.insert("telnet", E, map(&[(3, 0.9)]));
        b.save(&path, E, E).unwrap();
        let loaded = ResultBuffer::load(&path, 8, E).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded.get("#and(www nii)", E).unwrap()[&Oid(2)], 0.5);
        assert_eq!(loaded.get("telnet", E).unwrap()[&Oid(3)], 0.9);
    }

    /// The bytes of a hex literal.
    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// A `.buf` file is exactly these bytes (CRC-32 trailer included),
    /// and the bytes load back to the same entries.
    #[test]
    fn buf_file_bytes_are_pinned() {
        let dir = std::env::temp_dir().join("coupling-buffer-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pinned.buf");
        let b = ResultBuffer::new(8);
        b.insert("www", E, map(&[(2, 0.5), (1, 0.75)]));
        b.insert("nii", E, map(&[(3, 0.25)]));
        b.save(&path, E, E).unwrap();
        // The recorded index epoch `E`, then the entries.
        let pinned = unhex("0700000000000000020000000000000003000000000000006e696901000000000000000300000000000000000000000000d03f030000000000000077777702000000000000000100000000000000000000000000e83f0200000000000000000000000000e03fead0d1d6");
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes, pinned);
        std::fs::write(&path, &pinned).unwrap();
        let loaded = ResultBuffer::load(&path, 8, E).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded.get("www", E).unwrap(), map(&[(1, 0.75), (2, 0.5)]));
        assert_eq!(loaded.get("nii", E).unwrap(), map(&[(3, 0.25)]));
    }

    /// A CRC-valid `.buf` declaring one key with 2^40 entries is refused
    /// as corrupt before the count sizes an allocation.
    #[test]
    fn hostile_entry_count_is_refused() {
        let dir = std::env::temp_dir().join("coupling-buffer-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hostile.buf");
        // One entry: a one-byte key, then its map's entry count.
        let mut payload = Vec::new();
        put_u64(&mut payload, E);
        put_u64(&mut payload, 1);
        put_u64(&mut payload, 1);
        payload.push(b'q');
        put_u64(&mut payload, 1 << 40);
        storage::atomic_write(&path, &payload).unwrap();
        assert!(matches!(
            ResultBuffer::load(&path, 8, E),
            Err(CouplingError::Irs(irs::IrsError::CorruptIndex(_)))
        ));
    }

    #[test]
    fn sharded_save_load_round_trip() {
        // Above the sharding threshold entries spread across shards; the
        // file and reload must still contain every entry.
        let dir = std::env::temp_dir().join("coupling-buffer-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("buf_sharded.bin");
        let b = ResultBuffer::new(SHARDING_THRESHOLD * 2);
        for i in 0..40 {
            b.insert(&format!("query-{i}"), E, map(&[(i, i as f64 / 40.0)]));
        }
        b.save(&path, E, E).unwrap();
        let loaded = ResultBuffer::load(&path, SHARDING_THRESHOLD * 2, E).unwrap();
        assert_eq!(loaded.len(), 40);
        for i in 0..40 {
            assert_eq!(
                loaded.get(&format!("query-{i}"), E).unwrap()[&Oid(i)],
                i as f64 / 40.0
            );
        }
    }

    #[test]
    fn sharded_buffer_bounds_total_size() {
        let cap = SHARDING_THRESHOLD * 2;
        let b = ResultBuffer::new(cap);
        for i in 0..cap * 3 {
            b.insert(&format!("q{i}"), E, map(&[(i as u64, 0.5)]));
        }
        assert!(b.len() <= cap, "len {} exceeds capacity {cap}", b.len());
        assert!(b.stats().evictions >= (cap * 3 - cap) as u64 / 2);
    }

    #[test]
    fn load_rejects_truncated_files() {
        let dir = std::env::temp_dir().join("coupling-buffer-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trunc.bin");
        let b = ResultBuffer::new(8);
        b.insert("q", E, map(&[(1, 0.5)]));
        b.save(&path, E, E).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        assert!(ResultBuffer::load(&path, 8, E).is_err());
    }

    #[test]
    fn invalidated_entries_move_to_stale_store() {
        let b = ResultBuffer::new(8);
        b.insert("q1", E, map(&[(1, 0.5)]));
        b.insert("q2", E, map(&[(2, 0.5)]));
        b.invalidate_all();
        // Fresh lookups still miss — correctness of normal serving.
        assert!(b.get("q1", E).is_none());
        // But the stale rung can still answer in degraded mode, as it
        // answers an entry from an older epoch.
        assert_eq!(b.get_stale("q1").unwrap()[&Oid(1)], 0.5);
        b.insert("q2", E + 1, map(&[(2, 0.9)]));
        assert!(b.get("q2", E + 2).is_none());
        assert_eq!(b.get_stale("q2").unwrap()[&Oid(2)], 0.9);
        assert!(b.get_stale("q3").is_none());
        assert_eq!(b.stats().stale_hits, 2);
    }

    #[test]
    fn fresh_insert_supersedes_stale_copy() {
        let b = ResultBuffer::new(8);
        b.insert("q1", E, map(&[(1, 0.5)]));
        b.invalidate_all();
        b.insert("q1", E, map(&[(1, 0.9)]));
        assert_eq!(
            b.get_stale("q1").unwrap()[&Oid(1)],
            0.9,
            "stale copy dropped"
        );
        assert_eq!(b.get("q1", E).unwrap()[&Oid(1)], 0.9);
    }

    #[test]
    fn stale_store_is_bounded() {
        let b = ResultBuffer::new(4);
        for round in 0..10 {
            for i in 0..4 {
                b.insert(&format!("r{round}-q{i}"), round, map(&[(i, 0.5)]));
            }
        }
        // Entries of every epoch share the one LRU bound.
        assert_eq!(b.len(), 4);
        // The latest generation survives.
        assert!(b.get_stale("r9-q0").is_some());
        assert!(b.get_stale("r8-q3").is_none());
    }

    #[test]
    fn save_writes_only_entries_of_the_current_epoch() {
        let dir = std::env::temp_dir().join("coupling-buffer-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("current.buf");
        let b = ResultBuffer::new(8);
        b.insert("old", E, map(&[(1, 0.5)]));
        b.insert("new", E + 1, map(&[(2, 0.5)]));
        b.save(&path, E + 1, 42).unwrap();
        // The loaded entries take the epoch of the index loaded beside them.
        let loaded = ResultBuffer::load(&path, 8, 42).unwrap();
        assert_eq!(loaded.len(), 1);
        assert!(!loaded.contains("old"));
        assert_eq!(loaded.get("new", 42).unwrap(), map(&[(2, 0.5)]));
    }

    /// A file saved beside one index and loaded beside another keeps no
    /// entry: its answers were computed from other content.
    #[test]
    fn a_file_recording_another_index_epoch_loads_empty() {
        let dir = std::env::temp_dir().join("coupling-buffer-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("other_index.buf");
        let b = ResultBuffer::new(8);
        b.insert("q", E, map(&[(1, 0.5)]));
        b.save(&path, E, 42).unwrap();
        let loaded = ResultBuffer::load(&path, 8, 43).unwrap();
        assert!(loaded.is_empty());
        assert_eq!(ResultBuffer::load(&path, 8, 42).unwrap().len(), 1);
    }

    /// A CRC-valid `.buf` with bytes after its last entry is refused, as
    /// every other decoder refuses trailing bytes.
    #[test]
    fn trailing_bytes_after_the_last_entry_are_refused() {
        let dir = std::env::temp_dir().join("coupling-buffer-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trailing.buf");
        let b = ResultBuffer::new(8);
        b.insert("q", E, map(&[(1, 0.5)]));
        b.save(&path, E, E).unwrap();
        let mut payload = storage::read_verified(&path).unwrap();
        payload.extend_from_slice(&[0; 7]);
        storage::atomic_write(&path, &payload).unwrap();
        assert!(matches!(
            ResultBuffer::load(&path, 8, E),
            Err(CouplingError::Irs(irs::IrsError::CorruptIndex(_)))
        ));
    }

    #[test]
    fn bit_flipped_buffer_file_rejected() {
        let dir = std::env::temp_dir().join("coupling-buffer-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bitflip.bin");
        let b = ResultBuffer::new(8);
        b.insert("q", E, map(&[(1, 0.5)]));
        b.save(&path, E, E).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(ResultBuffer::load(&path, 8, E).is_err());
    }

    #[test]
    fn capacity_floor_is_one() {
        let b = ResultBuffer::new(0);
        b.insert("q1", E, map(&[(1, 0.1)]));
        b.insert("q2", E, map(&[(2, 0.2)]));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let b = ResultBuffer::new(SHARDING_THRESHOLD * 4);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let b = &b;
                scope.spawn(move || {
                    for i in 0..50 {
                        let q = format!("t{t}-q{i}");
                        b.insert(&q, E, map(&[(i, 0.5)]));
                        assert_eq!(b.get(&q, E).unwrap()[&Oid(i)], 0.5);
                    }
                });
            }
        });
        assert_eq!(b.len(), 200);
        assert_eq!(b.stats().hits, 200);
    }
}
