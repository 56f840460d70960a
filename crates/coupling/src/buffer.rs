//! Persistent buffering of IRS results (paper Figure 3).
//!
//! "For both intra- and inter-query optimization, the results of IRS
//! calls are buffered persistently in a dictionary of type
//! `||STRING → ||IRSObjects → REAL|| ||`. Its keys are IRS queries"
//! (Section 4.2). The buffer is LRU-bounded, counts hits and misses (the
//! E4 experiment's metrics), is invalidated wholesale when update
//! propagation changes the underlying IRS collection, and can be saved
//! to / loaded from disk.
//!
//! Internally the buffer is a set of independently locked LRU shards
//! (query hashed to a shard), so concurrent query threads rarely contend;
//! every operation — including `get`, which must update recency — takes
//! `&self`. Each shard is an intrusive doubly linked list over a slab, so
//! touch and eviction are O(1) instead of the previous O(n) `Vec` scan.
//! Small capacities (below [`SHARDING_THRESHOLD`]) use a single shard so
//! eviction order stays exact global LRU.
//!
//! **Degraded-mode serving:** invalidated entries are not discarded —
//! they move into a bounded *stale* side store. Fresh lookups never see
//! them ([`ResultBuffer::get`] still misses after an invalidation), but
//! when the IRS is unavailable the collection can fall back to
//! [`ResultBuffer::get_stale`] and serve the last known result, marked
//! with [`crate::ResultOrigin::Stale`] and counted in
//! [`BufferStats::stale_hits`].

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

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
    /// Whole-buffer invalidations (update propagation).
    pub invalidations: u64,
    /// Lookups served from the stale store while the IRS was unavailable.
    pub stale_hits: u64,
}

/// Buffers with capacity below this stay single-sharded: exact global LRU
/// matters more than lock spreading when only a handful of entries fit.
pub const SHARDING_THRESHOLD: usize = 64;

/// Shards used for large buffers.
const N_SHARDS: usize = 8;

const NIL: usize = usize::MAX;

/// Slab node of one shard's intrusive LRU list.
#[derive(Debug, Clone)]
struct Node {
    key: String,
    value: ResultMap,
    prev: usize,
    next: usize,
}

/// One LRU shard: key → slab slot, plus a doubly linked recency list
/// (head = least recently used, tail = most recently used).
#[derive(Debug, Clone)]
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

    /// O(1) lookup + recency update. Returns a clone so no lock is held
    /// by the caller.
    fn get(&mut self, query: &str) -> Option<ResultMap> {
        let slot = *self.map.get(query)?;
        self.touch(slot);
        Some(self.nodes[slot].value.clone())
    }

    /// Insert or update; returns the number of evictions performed (0/1).
    fn insert(&mut self, query: &str, result: ResultMap) -> u64 {
        if let Some(&slot) = self.map.get(query) {
            self.nodes[slot].value = result;
            self.touch(slot);
            return 0;
        }
        let mut evictions = 0;
        if self.map.len() >= self.capacity {
            let victim = self.head;
            self.unlink(victim);
            let key = std::mem::take(&mut self.nodes[victim].key);
            self.nodes[victim].value = ResultMap::new();
            self.map.remove(&key);
            self.free.push(victim);
            evictions = 1;
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot].key = query.to_string();
                self.nodes[slot].value = result;
                slot
            }
            None => {
                self.nodes.push(Node {
                    key: query.to_string(),
                    value: result,
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

    fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// `(key, value)` pairs in unspecified order.
    fn entries(&self) -> impl Iterator<Item = (&String, &ResultMap)> {
        self.map
            .iter()
            .map(|(k, &slot)| (k, &self.nodes[slot].value))
    }
}

/// The IRS-result buffer. All operations take `&self`; shards are locked
/// individually, counters are atomics.
#[derive(Debug)]
pub struct ResultBuffer {
    shards: Box<[Mutex<LruShard>]>,
    /// Entries displaced by [`ResultBuffer::invalidate_all`], kept for
    /// degraded-mode serving. Bounded at twice the buffer capacity.
    stale: Mutex<HashMap<String, ResultMap>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    stale_hits: AtomicU64,
}

impl Default for ResultBuffer {
    fn default() -> Self {
        Self::new(256)
    }
}

impl Clone for ResultBuffer {
    fn clone(&self) -> Self {
        let stats = self.stats();
        ResultBuffer {
            shards: self
                .shards
                .iter()
                .map(|s| Mutex::new(s.lock().clone()))
                .collect(),
            stale: Mutex::new(self.stale.lock().clone()),
            capacity: self.capacity,
            hits: AtomicU64::new(stats.hits),
            misses: AtomicU64::new(stats.misses),
            evictions: AtomicU64::new(stats.evictions),
            invalidations: AtomicU64::new(stats.invalidations),
            stale_hits: AtomicU64::new(stats.stale_hits),
        }
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
            stale: Mutex::new(HashMap::new()),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            stale_hits: AtomicU64::new(0),
        }
    }

    fn shard(&self, query: &str) -> &Mutex<LruShard> {
        &self.shards[(shard_hash(query) % self.shards.len() as u64) as usize]
    }

    /// Number of buffered queries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// True if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().map.is_empty())
    }

    /// Statistics so far.
    pub fn stats(&self) -> BufferStats {
        BufferStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            stale_hits: self.stale_hits.load(Ordering::Relaxed),
        }
    }

    /// Look up the buffered result of `query`, updating hit/miss counters
    /// and recency. Returns a clone — callers hold no lock afterwards.
    pub fn get(&self, query: &str) -> Option<ResultMap> {
        match self.shard(query).lock().get(query) {
            Some(map) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(map)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Check presence without touching counters or recency (planning).
    pub fn contains(&self, query: &str) -> bool {
        self.shard(query).lock().map.contains_key(query)
    }

    /// Buffer the result of `query`, evicting the least recently used
    /// entry of its shard if at capacity.
    pub fn insert(&self, query: &str, result: ResultMap) {
        let evicted = self.shard(query).lock().insert(query, result);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        // A fresh result supersedes any stale copy of the same query.
        self.stale.lock().remove(query);
    }

    /// Drop every fresh entry — called after the IRS collection changed.
    /// Displaced entries move into the stale store so degraded-mode
    /// serving can still answer while the IRS is down.
    pub fn invalidate_all(&self) {
        let mut drained: Vec<(String, ResultMap)> = Vec::new();
        for shard in self.shards.iter() {
            let mut shard = shard.lock();
            for (k, v) in shard.entries() {
                drained.push((k.clone(), v.clone()));
            }
            shard.clear();
        }
        {
            let mut stale = self.stale.lock();
            let fresh_keys: Vec<&String> = drained.iter().map(|(k, _)| k).collect();
            for (k, v) in &drained {
                stale.insert(k.clone(), v.clone());
            }
            // Bound the stale store: if repeated invalidations piled up
            // entries, keep only the most recently displaced generation.
            if stale.len() > self.capacity * 2 {
                let keep: HashMap<String, ResultMap> = fresh_keys
                    .iter()
                    .filter_map(|k| stale.get(*k).map(|v| ((*k).clone(), v.clone())))
                    .collect();
                *stale = keep;
            }
        }
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Serve the last known (pre-invalidation) result of `query`, if any.
    /// Used only when the IRS is unavailable; counted in
    /// [`BufferStats::stale_hits`] when it succeeds.
    pub fn get_stale(&self, query: &str) -> Option<ResultMap> {
        let map = self.stale.lock().get(query).cloned();
        if map.is_some() {
            self.stale_hits.fetch_add(1, Ordering::Relaxed);
        }
        map
    }

    /// Number of entries currently in the stale store.
    pub fn stale_len(&self) -> usize {
        self.stale.lock().len()
    }

    /// Persist the buffer to `path` (the paper buffers *persistently*).
    /// Crash-safe: temp file + fsync + atomic rename with a CRC-32
    /// trailer ([`storage::atomic_write`]). Only fresh entries are
    /// saved; the stale store is a runtime-degradation artifact.
    pub fn save(&self, path: &Path) -> Result<()> {
        // Collect the union of all shards, sorted by key so the file is
        // deterministic and independent of shard layout.
        let mut entries: Vec<(String, ResultMap)> = Vec::new();
        for shard in self.shards.iter() {
            let shard = shard.lock();
            for (k, v) in shard.entries() {
                entries.push((k.clone(), v.clone()));
            }
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));

        let mut out = Vec::new();
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
        Ok(storage::atomic_write(path, &out)?)
    }

    /// Load a buffer previously written by [`ResultBuffer::save`],
    /// verifying its CRC-32 trailer. Capacity and statistics start fresh.
    pub fn load(path: &Path, capacity: usize) -> Result<Self> {
        let bytes = storage::read_verified(path)?;
        let mut r = Reader::new(&bytes);
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
            out.insert(key, map);
        }
        out.evictions.store(0, Ordering::Relaxed);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(pairs: &[(u64, f64)]) -> ResultMap {
        pairs.iter().map(|&(o, v)| (Oid(o), v)).collect()
    }

    #[test]
    fn hit_and_miss_counting() {
        let b = ResultBuffer::new(8);
        assert!(b.get("q1").is_none());
        b.insert("q1", map(&[(1, 0.7)]));
        assert_eq!(b.get("q1").unwrap()[&Oid(1)], 0.7);
        let s = b.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn lru_eviction_drops_oldest() {
        let b = ResultBuffer::new(2);
        b.insert("q1", map(&[(1, 0.1)]));
        b.insert("q2", map(&[(2, 0.2)]));
        // Touch q1 so q2 becomes LRU.
        b.get("q1");
        b.insert("q3", map(&[(3, 0.3)]));
        assert!(b.contains("q1"));
        assert!(!b.contains("q2"));
        assert!(b.contains("q3"));
        assert_eq!(b.stats().evictions, 1);
    }

    #[test]
    fn lru_order_follows_every_touch() {
        let b = ResultBuffer::new(3);
        b.insert("q1", map(&[(1, 0.1)]));
        b.insert("q2", map(&[(2, 0.2)]));
        b.insert("q3", map(&[(3, 0.3)]));
        // Recency now q1 < q2 < q3; touch q1 then q2, leaving q3 oldest.
        b.get("q1");
        b.get("q2");
        b.insert("q4", map(&[(4, 0.4)]));
        assert!(!b.contains("q3"), "q3 was least recently used");
        b.insert("q5", map(&[(5, 0.5)]));
        assert!(!b.contains("q1"), "then q1");
        assert!(b.contains("q2") && b.contains("q4") && b.contains("q5"));
        assert_eq!(b.stats().evictions, 2);
    }

    #[test]
    fn eviction_at_capacity_is_bounded() {
        let b = ResultBuffer::new(4);
        for i in 0..20 {
            b.insert(&format!("q{i}"), map(&[(i, i as f64)]));
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
        b.insert("q1", map(&[(1, 0.5)]));
        b.invalidate_all();
        assert!(b.is_empty());
        assert!(b.get("q1").is_none());
        assert_eq!(b.stats().invalidations, 1);
    }

    #[test]
    fn stats_after_invalidate_keep_history() {
        let b = ResultBuffer::new(8);
        b.insert("q1", map(&[(1, 0.5)]));
        b.get("q1");
        b.get("nope");
        b.invalidate_all();
        b.invalidate_all(); // counted even when already empty
        let s = b.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.invalidations, 2);
        // Post-invalidation lookups miss and are counted as misses.
        assert!(b.get("q1").is_none());
        assert_eq!(b.stats().misses, 2);
    }

    #[test]
    fn reinsert_updates_value_without_eviction() {
        let b = ResultBuffer::new(2);
        b.insert("q1", map(&[(1, 0.1)]));
        b.insert("q1", map(&[(1, 0.9)]));
        assert_eq!(b.len(), 1);
        assert_eq!(b.get("q1").unwrap()[&Oid(1)], 0.9);
        assert_eq!(b.stats().evictions, 0);
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join("coupling-buffer-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("buf.bin");
        let b = ResultBuffer::new(8);
        b.insert("#and(www nii)", map(&[(1, 0.75), (2, 0.5)]));
        b.insert("telnet", map(&[(3, 0.9)]));
        b.save(&path).unwrap();
        let loaded = ResultBuffer::load(&path, 8).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded.get("#and(www nii)").unwrap()[&Oid(2)], 0.5);
        assert_eq!(loaded.get("telnet").unwrap()[&Oid(3)], 0.9);
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
        b.insert("www", map(&[(2, 0.5), (1, 0.75)]));
        b.insert("nii", map(&[(3, 0.25)]));
        b.save(&path).unwrap();
        let pinned = unhex("020000000000000003000000000000006e696901000000000000000300000000000000000000000000d03f030000000000000077777702000000000000000100000000000000000000000000e83f0200000000000000000000000000e03f218c89e0");
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes, pinned);
        std::fs::write(&path, &pinned).unwrap();
        let loaded = ResultBuffer::load(&path, 8).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded.get("www").unwrap(), map(&[(1, 0.75), (2, 0.5)]));
        assert_eq!(loaded.get("nii").unwrap(), map(&[(3, 0.25)]));
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
        put_u64(&mut payload, 1);
        put_u64(&mut payload, 1);
        payload.push(b'q');
        put_u64(&mut payload, 1 << 40);
        storage::atomic_write(&path, &payload).unwrap();
        assert!(matches!(
            ResultBuffer::load(&path, 8),
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
            b.insert(&format!("query-{i}"), map(&[(i, i as f64 / 40.0)]));
        }
        b.save(&path).unwrap();
        let loaded = ResultBuffer::load(&path, SHARDING_THRESHOLD * 2).unwrap();
        assert_eq!(loaded.len(), 40);
        for i in 0..40 {
            assert_eq!(
                loaded.get(&format!("query-{i}")).unwrap()[&Oid(i)],
                i as f64 / 40.0
            );
        }
    }

    #[test]
    fn sharded_buffer_bounds_total_size() {
        let cap = SHARDING_THRESHOLD * 2;
        let b = ResultBuffer::new(cap);
        for i in 0..cap * 3 {
            b.insert(&format!("q{i}"), map(&[(i as u64, 0.5)]));
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
        b.insert("q", map(&[(1, 0.5)]));
        b.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        assert!(ResultBuffer::load(&path, 8).is_err());
    }

    #[test]
    fn invalidated_entries_move_to_stale_store() {
        let b = ResultBuffer::new(8);
        b.insert("q1", map(&[(1, 0.5)]));
        b.invalidate_all();
        // Fresh lookups still miss — correctness of normal serving.
        assert!(b.get("q1").is_none());
        assert!(b.is_empty());
        // But the stale store can still answer in degraded mode.
        assert_eq!(b.get_stale("q1").unwrap()[&Oid(1)], 0.5);
        assert!(b.get_stale("q2").is_none());
        assert_eq!(b.stats().stale_hits, 1);
        assert_eq!(b.stale_len(), 1);
    }

    #[test]
    fn fresh_insert_supersedes_stale_copy() {
        let b = ResultBuffer::new(8);
        b.insert("q1", map(&[(1, 0.5)]));
        b.invalidate_all();
        b.insert("q1", map(&[(1, 0.9)]));
        assert!(b.get_stale("q1").is_none(), "stale copy dropped");
        assert_eq!(b.get("q1").unwrap()[&Oid(1)], 0.9);
    }

    #[test]
    fn stale_store_is_bounded() {
        let b = ResultBuffer::new(4);
        for round in 0..10 {
            for i in 0..4 {
                b.insert(&format!("r{round}-q{i}"), map(&[(i, 0.5)]));
            }
            b.invalidate_all();
        }
        assert!(
            b.stale_len() <= 8,
            "stale store {} exceeds 2x capacity",
            b.stale_len()
        );
        // The latest generation survives.
        assert!(b.get_stale("r9-q0").is_some());
    }

    #[test]
    fn bit_flipped_buffer_file_rejected() {
        let dir = std::env::temp_dir().join("coupling-buffer-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bitflip.bin");
        let b = ResultBuffer::new(8);
        b.insert("q", map(&[(1, 0.5)]));
        b.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(ResultBuffer::load(&path, 8).is_err());
    }

    #[test]
    fn capacity_floor_is_one() {
        let b = ResultBuffer::new(0);
        b.insert("q1", map(&[(1, 0.1)]));
        b.insert("q2", map(&[(2, 0.2)]));
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
                        b.insert(&q, map(&[(i, 0.5)]));
                        assert_eq!(b.get(&q).unwrap()[&Oid(i)], 0.5);
                    }
                });
            }
        });
        assert_eq!(b.len(), 200);
        assert_eq!(b.stats().hits, 200);
    }
}
