//! Shard-per-node IRS partitioning with scatter/gather top-k.
//!
//! [`crate::remote`] scales *availability*: N replicas of one index.
//! This module scales *capacity*: a collection's documents are split
//! across N **partition groups**, each group being a [`RemoteIrs`]
//! replica set of its shard — so every partition keeps the full
//! hedging/breaker/stale machinery of replica serving, and the router
//! composes partitions on top.
//!
//! # The global-statistics exchange
//!
//! Every retrieval model scores with corpus-wide statistics (`df`,
//! `n_docs`, `avg_doc_len`) that no partition knows alone; scoring each
//! partition with its *local* statistics would make scores incomparable
//! across partitions and the merged ranking diverge from a single-node
//! index. A cold read therefore runs in two scatter legs:
//!
//! 1. **Stats** — every partition reports its local
//!    [`QueryGlobals`] for the query; the router sums them
//!    ([`QueryGlobals::merge`]), which reconstructs the union index's
//!    statistics *exactly* (partitions are disjoint, so counts add).
//! 2. **Search** — every partition ranks its own documents under the
//!    merged globals and returns at most `k` candidates, pruned locally
//!    with the top-k engine's score upper bounds.
//!
//! The router then merges the per-partition lists with the engine's own
//! selection comparator — score descending, ties by ascending IRS *key
//! string* — truncates to `k`, and only then folds keys into OIDs. The
//! key-string tie-break matters: `"oid:10"` sorts before `"oid:9"`
//! lexicographically, and the single-node engine selects at the
//! k-boundary by key string, so merging by numeric OID would pick a
//! different document on score ties. Because a global top-k under one
//! comparator is always a subset of the union of per-partition top-ks,
//! the merged result is **bit-identical** to single-node evaluation —
//! the partition proptest in `tests/partition.rs` pins this.
//!
//! # Warm reads: one leg under epoch-checked statistics
//!
//! A replica stamps its answers with its content **epoch**
//! ([`irs::IrsCollection::epoch`]): equal epochs mean equal statistics,
//! and every write to the partition mints a new one.
//! The router caches every stats-leg answer per partition under that
//! epoch — the partition's counters and each term's `(df, max_tf)`, a
//! term the partition lacks as `(0, 0)`. When every term of a query
//! (compiled locally with the partitions' analyzer, [`irs::query_terms`])
//! is cached for every partition, the router rebuilds each partition's
//! [`QueryGlobals`] from the cache — the same integers leg 1 would
//! return — and sends only leg 2. Every search answer's epoch must equal
//! the epoch its statistics were cached under; a partition that answers
//! under another epoch (reopened over a new snapshot, or a different
//! replica) has its entry dropped and the read replays both legs. A
//! replica refusing the supplied statistics is a miss too, not an error.
//! A writable partition is cached like a frozen one: a write between two
//! reads costs the next read one invalidation and both legs, and the read
//! after that is one leg again.
//!
//! The two-leg path checks epochs as well: a partition whose statistics
//! and search answers come from different epochs (a write landing
//! between the legs, or a hedge, failover or latency rotation between
//! replicas during a rolling reopen) would score one state's documents
//! with another's `df`, so the read is replayed once and then fails as
//! transient — never merged.
//!
//! Each leg waits on all partitions from the calling thread through
//! [`crate::remote`]'s one fan-out loop; no thread is created per read.
//!
//! # Degradation
//!
//! A partial ranking silently missing one partition's documents would
//! be indistinguishable from a correct answer, so it is never served:
//! if any partition fails a scatter leg's hedging, the whole read
//! degrades — to the last merged result for the same `(collection,
//! query)` (marked [`ResultOrigin::Stale`]), or to the partition's
//! transient error when the store is cold.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use irs::analysis::Analyzer;
use irs::{QueryGlobals, TermGlobals};
use oodb::Oid;
use parking_lot::RwLock;

use crate::collection::ResultOrigin;
use crate::error::{CouplingError, ErrorKind, Result};
use crate::remote::{
    run_hedged, search_op, stats_op, KeyedReply, RemoteConfig, RemoteIrs, ReplicaTransport,
    StatsReply,
};
use crate::stale::StaleStore;

/// Terms cached per partition; a full entry is cleared and refilled.
const CACHED_TERMS_PER_PARTITION: usize = 1 << 16;

/// Tuning for a partitioned fan-out.
#[derive(Debug, Clone, Default)]
pub struct PartitionConfig {
    /// Hedging/breaker/retry configuration applied to *each* partition
    /// group independently (its per-group stale store is unused — stale
    /// fallback happens on the merged result instead, see
    /// [`PartitionConfig::stale_capacity`]).
    pub remote: RemoteConfig,
    /// Entries kept in the router's merged-result stale store. `None`
    /// inherits the remote config's capacity.
    pub stale_capacity: Option<usize>,
}

/// Counter snapshot of the scatter/gather router (see
/// [`PartitionedIrs::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionStats {
    /// Logical read requests (search + value) accepted by the router.
    pub requests: u64,
    /// Requests where at least one partition failed a scatter leg (the
    /// read then degraded to stale or an error — never a partial merge).
    pub scatter_failures: u64,
    /// Requests answered from the merged-result stale store.
    pub stale_serves: u64,
    /// Requests that failed outright — a partition was down and no stale
    /// entry existed.
    pub exhausted: u64,
    /// Statistics legs sent, each to every partition.
    pub stats_legs: u64,
    /// Reads answered by the search leg alone, on cached statistics.
    pub one_leg_reads: u64,
    /// Cached partition statistics dropped because a search answer came
    /// from a different epoch.
    pub cache_invalidations: u64,
    /// Two-leg rounds in which a partition answered its statistics and
    /// its search leg from different epochs (replayed once, then failed).
    pub epoch_mismatches: u64,
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    scatter_failures: AtomicU64,
    stale_serves: AtomicU64,
    exhausted: AtomicU64,
    stats_legs: AtomicU64,
    one_leg_reads: AtomicU64,
    cache_invalidations: AtomicU64,
    epoch_mismatches: AtomicU64,
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// What one partition's statistics answers said, under one epoch.
struct CachedStats {
    epoch: u64,
    analyzer: Analyzer,
    /// The partition's corpus counters, with no terms.
    corpus: QueryGlobals,
    /// Term → `(df, max_tf)`.
    terms: HashMap<String, (u32, u32)>,
}

impl CachedStats {
    fn new(reply: &StatsReply) -> CachedStats {
        CachedStats {
            epoch: reply.epoch,
            analyzer: Analyzer::new(reply.analyzer.clone()),
            corpus: QueryGlobals {
                terms: Vec::new(),
                ..reply.globals.clone()
            },
            terms: HashMap::new(),
        }
    }

    fn absorb(&mut self, globals: &QueryGlobals) {
        if self.terms.len() + globals.terms.len() > CACHED_TERMS_PER_PARTITION {
            self.terms.clear();
        }
        for t in &globals.terms {
            self.terms.insert(t.term.clone(), (t.df, t.max_tf));
        }
    }

    /// The partition's statistics for `terms`, if all are cached.
    fn globals(&self, terms: &[String]) -> Option<QueryGlobals> {
        let terms = terms
            .iter()
            .map(|term| {
                let &(df, max_tf) = self.terms.get(term)?;
                Some(TermGlobals {
                    term: term.clone(),
                    df,
                    max_tf,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(QueryGlobals {
            terms,
            ..self.corpus.clone()
        })
    }
}

/// Scatter/gather router over N partition groups, each a [`RemoteIrs`]
/// replica set of one shard of the collection (module docs have the full
/// policy).
pub struct PartitionedIrs<T> {
    groups: Vec<RemoteIrs<T>>,
    /// Per collection, one entry per partition in group order.
    cache: RwLock<HashMap<String, Vec<Option<CachedStats>>>>,
    stale: StaleStore,
    counters: Counters,
}

impl<T: ReplicaTransport> PartitionedIrs<T> {
    /// Build a router over `groups`: one inner `Vec` of `(label,
    /// transport)` replicas per partition. Partition order is fixed at
    /// construction and carries no semantics (results merge by score).
    pub fn new(groups: Vec<Vec<(String, T)>>, config: PartitionConfig) -> Self {
        let capacity = config
            .stale_capacity
            .unwrap_or(config.remote.stale_capacity);
        PartitionedIrs {
            groups: groups
                .into_iter()
                .map(|replicas| RemoteIrs::new(replicas, config.remote.clone()))
                .collect(),
            cache: RwLock::new(HashMap::new()),
            stale: StaleStore::new(capacity),
            counters: Counters::default(),
        }
    }

    /// Number of partition groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The partition groups, in construction order — for health and
    /// per-group statistics inspection.
    pub fn groups(&self) -> &[RemoteIrs<T>] {
        &self.groups
    }

    /// Entries currently held by the merged-result stale store.
    pub fn stale_len(&self) -> usize {
        self.stale.len()
    }

    /// Counter snapshot (monotonic since construction).
    pub fn stats(&self) -> PartitionStats {
        let c = &self.counters;
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        PartitionStats {
            requests: load(&c.requests),
            scatter_failures: load(&c.scatter_failures),
            stale_serves: load(&c.stale_serves),
            exhausted: load(&c.exhausted),
            stats_legs: load(&c.stats_legs),
            one_leg_reads: load(&c.one_leg_reads),
            cache_invalidations: load(&c.cache_invalidations),
            epoch_mismatches: load(&c.epoch_mismatches),
        }
    }

    /// Probe every replica of every partition (see [`RemoteIrs::probe`]).
    /// Outer order is partition order.
    pub fn probe(&self) -> Vec<Vec<(String, bool)>> {
        self.groups.iter().map(|g| g.probe()).collect()
    }

    /// Scatter/gather ranked retrieval: the `k` best `(oid, score)`
    /// pairs across all partitions, bit-identical to evaluating the
    /// union index on one node. On success the merged result refreshes
    /// the stale store; if any partition fails transiently, a stored
    /// merge for the same `(collection, query)` is served as
    /// [`ResultOrigin::Stale`].
    pub fn search_top_k(
        &self,
        collection: &str,
        query: &str,
        k: usize,
    ) -> Result<(Vec<(Oid, f64)>, ResultOrigin)> {
        bump(&self.counters.requests);
        match self.scatter_search(collection, query, k) {
            Ok(hits) => {
                self.stale.put(collection, query, hits.clone());
                Ok((hits, ResultOrigin::Fresh))
            }
            Err(e) => self
                .degrade(collection, query, e)
                .map(|hits| (hits, ResultOrigin::Stale)),
        }
    }

    /// Scatter/gather `getIRSValue`: one object's score under global
    /// statistics (`0.0` when it does not match), degrading through the
    /// merged-result stale store exactly like
    /// [`PartitionedIrs::search_top_k`].
    pub fn get_irs_value(
        &self,
        collection: &str,
        query: &str,
        oid: Oid,
    ) -> Result<(f64, ResultOrigin)> {
        bump(&self.counters.requests);
        // No top-k cut: the object's exact score must survive the merge
        // wherever it ranks.
        match self.scatter_search(collection, query, usize::MAX) {
            Ok(hits) => {
                let v = Self::lookup(&hits, oid);
                self.stale.put(collection, query, hits);
                Ok((v, ResultOrigin::Fresh))
            }
            Err(e) => self
                .degrade(collection, query, e)
                .map(|hits| (Self::lookup(&hits, oid), ResultOrigin::Stale)),
        }
    }

    fn lookup(hits: &[(Oid, f64)], oid: Oid) -> f64 {
        hits.iter()
            .find(|(o, _)| *o == oid)
            .map(|(_, s)| *s)
            .unwrap_or(0.0)
    }

    /// One scatter read (module docs): the search leg alone on cached
    /// statistics, else both legs; then the gather merge.
    fn scatter_search(&self, collection: &str, query: &str, k: usize) -> Result<Vec<(Oid, f64)>> {
        if self.groups.is_empty() {
            return Err(CouplingError::Remote {
                kind: ErrorKind::IrsDown,
                message: "no partitions configured".into(),
            });
        }
        let partials = match self.one_leg(collection, query, k) {
            Some(partials) => partials?,
            None => self.two_legs(collection, query, k)?,
        };

        // Gather: merge with the engine's selection comparator (score
        // descending, ties by ascending key string), then cut to k.
        let mut all: Vec<(String, f64)> = partials.into_iter().flat_map(|r| r.hits).collect();
        all.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        // Partitions hold disjoint documents; dedup defensively anyway
        // (first occurrence = best-ranked survives).
        let mut seen = std::collections::HashSet::new();
        all.retain(|(key, _)| seen.insert(key.clone()));
        all.truncate(k);

        // Fold keys into OIDs only after the cut (unparsable keys are
        // skipped, mirroring the single-node fold), then present in the
        // serving layer's order: score descending, ties by OID.
        let mut hits: Vec<(Oid, f64)> = all
            .into_iter()
            .filter_map(|(key, score)| Oid::parse(&key).map(|oid| (oid, score)))
            .collect();
        hits.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        Ok(hits)
    }

    /// The warm path: `None` when the statistics are not all cached, a
    /// replica refused them, or an answer's epoch invalidated its entry —
    /// the caller then runs both legs. `Some(Err)` is a transient failure
    /// of the search leg, which degrades like any other.
    fn one_leg(&self, collection: &str, query: &str, k: usize) -> Option<Result<Vec<KeyedReply>>> {
        let (epochs, merged) = self.cached_globals(collection, query)?;
        let replies = run_hedged(
            self.groups
                .iter()
                .map(|g| (g, search_op(collection, query, k, merged.clone()))),
        );
        let mut stale_epoch = false;
        for (p, reply) in replies.iter().enumerate() {
            if let Ok(reply) = reply {
                if reply.epoch != epochs[p] {
                    stale_epoch = true;
                    self.invalidate(collection, p, epochs[p]);
                }
            }
        }
        if replies
            .iter()
            .any(|r| matches!(r, Err(e) if !e.is_transient()))
        {
            return None;
        }
        let partials = match self.collect(replies) {
            Ok(partials) => partials,
            Err(e) => return Some(Err(e)),
        };
        if stale_epoch {
            return None;
        }
        bump(&self.counters.one_leg_reads);
        Some(Ok(partials))
    }

    /// Every partition's cached epoch and the merged statistics for
    /// `query`, when every partition has every term cached under one
    /// analyzer.
    fn cached_globals(&self, collection: &str, query: &str) -> Option<(Vec<u64>, QueryGlobals)> {
        let node = irs::parse_query(query).ok()?;
        let cache = self.cache.read();
        let cache = cache.get(collection)?;
        let first = cache.first()?.as_ref()?;
        let terms = irs::query_terms(&node, &first.analyzer)?;
        let mut epochs = Vec::with_capacity(cache.len());
        let mut parts = Vec::with_capacity(cache.len());
        for entry in cache.iter() {
            let entry = entry.as_ref()?;
            if entry.analyzer.config() != first.analyzer.config() {
                return None;
            }
            epochs.push(entry.epoch);
            parts.push(entry.globals(&terms)?);
        }
        QueryGlobals::merge(&parts).map(|merged| (epochs, merged))
    }

    /// Drop partition `p`'s entry if it is still the one cached under
    /// `epoch`.
    fn invalidate(&self, collection: &str, p: usize, epoch: u64) {
        let mut cache = self.cache.write();
        let Some(entries) = cache.get_mut(collection) else {
            return;
        };
        if entries[p].as_ref().is_some_and(|e| e.epoch == epoch) {
            entries[p] = None;
            bump(&self.counters.cache_invalidations);
        }
    }

    /// Cache every statistics answer under its epoch.
    fn fill(&self, collection: &str, replies: &[StatsReply]) {
        let mut cache = self.cache.write();
        let entries = cache
            .entry(collection.to_string())
            .or_insert_with(|| self.groups.iter().map(|_| None).collect());
        for (entry, reply) in entries.iter_mut().zip(replies) {
            if entry.as_ref().is_none_or(|e| e.epoch != reply.epoch) {
                *entry = Some(CachedStats::new(reply));
            }
            if let Some(e) = entry {
                e.absorb(&reply.globals);
            }
        }
    }

    /// The cold path: the statistics leg, then the search leg under the
    /// merged statistics. A partition whose two answers carry different
    /// epochs replays the read once, then fails it as transient.
    fn two_legs(&self, collection: &str, query: &str, k: usize) -> Result<Vec<KeyedReply>> {
        for _ in 0..2 {
            bump(&self.counters.stats_legs);
            let stats = self.collect(run_hedged(
                self.groups.iter().map(|g| (g, stats_op(collection, query))),
            ))?;
            self.fill(collection, &stats);
            let merged =
                QueryGlobals::merge(stats.iter().map(|s| &s.globals)).ok_or_else(|| {
                    // Permanent: partitions compiled different term lists for
                    // the same query (version/analyzer skew) — retrying or
                    // serving stale would mask real corruption.
                    CouplingError::Remote {
                        kind: ErrorKind::Other,
                        message: "partitions returned mismatched query statistics".into(),
                    }
                })?;
            let partials = self.collect(run_hedged(
                self.groups
                    .iter()
                    .map(|g| (g, search_op(collection, query, k, merged.clone()))),
            ))?;
            if stats.iter().zip(&partials).all(|(s, h)| s.epoch == h.epoch) {
                return Ok(partials);
            }
            bump(&self.counters.epoch_mismatches);
        }
        bump(&self.counters.scatter_failures);
        Err(CouplingError::Remote {
            kind: ErrorKind::IrsDown,
            message: "a partition answered the statistics and search legs from different \
                      snapshots twice"
                .into(),
        })
    }

    /// All-or-nothing gather: a permanent error wins immediately (the
    /// request itself is at fault), otherwise any transient failure
    /// fails the whole read — a merge missing one partition's documents
    /// must never pass as a full answer.
    fn collect<R>(&self, results: Vec<Result<R>>) -> Result<Vec<R>> {
        let mut ok = Vec::with_capacity(results.len());
        let mut transient: Option<CouplingError> = None;
        for r in results {
            match r {
                Ok(v) => ok.push(v),
                Err(e) if e.is_transient() => {
                    transient.get_or_insert(e);
                }
                Err(e) => {
                    bump(&self.counters.scatter_failures);
                    return Err(e);
                }
            }
        }
        if let Some(e) = transient {
            bump(&self.counters.scatter_failures);
            return Err(e);
        }
        Ok(ok)
    }

    /// Stale fallback for a failed scatter: serve the last merged result
    /// if the failure was transient and the store is warm.
    fn degrade(&self, collection: &str, query: &str, e: CouplingError) -> Result<Vec<(Oid, f64)>> {
        if !e.is_transient() {
            return Err(e);
        }
        match self.stale.get(collection, query) {
            Some(hits) => {
                bump(&self.counters.stale_serves);
                Ok(hits)
            }
            None => {
                bump(&self.counters.exhausted);
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs::analysis::AnalyzerConfig;
    use parking_lot::Mutex;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    /// Scripted fake partition: canned stats and a pre-ranked hit list,
    /// served under a switchable epoch, with per-leg call counts.
    struct FakePartition {
        stats: QueryGlobals,
        hits: Vec<(String, f64)>,
        down: AtomicBool,
        epoch: AtomicU64,
        /// Search-leg calls to refuse as a replica refuses statistics
        /// whose term list does not match the query.
        refusals: AtomicU64,
        stats_calls: AtomicU64,
        search_calls: AtomicU64,
        /// The statistics the last search leg was scored with.
        last_globals: Mutex<Option<QueryGlobals>>,
    }

    impl FakePartition {
        fn up(stats: QueryGlobals, hits: Vec<(String, f64)>) -> Arc<Self> {
            static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);
            Arc::new(FakePartition {
                stats,
                hits,
                down: AtomicBool::new(false),
                epoch: AtomicU64::new(NEXT_EPOCH.fetch_add(1, Ordering::Relaxed)),
                refusals: AtomicU64::new(0),
                stats_calls: AtomicU64::new(0),
                search_calls: AtomicU64::new(0),
                last_globals: Mutex::new(None),
            })
        }

        /// `(term_stats, search_global)` calls so far.
        fn legs(&self) -> (u64, u64) {
            (
                self.stats_calls.load(Ordering::Relaxed),
                self.search_calls.load(Ordering::Relaxed),
            )
        }

        fn check(&self) -> Result<()> {
            if self.down.load(Ordering::Relaxed) {
                return Err(CouplingError::Remote {
                    kind: ErrorKind::Io,
                    message: "fake partition down".into(),
                });
            }
            Ok(())
        }
    }

    impl ReplicaTransport for Arc<FakePartition> {
        fn search(&self, _c: &str, _q: &str) -> Result<(Vec<(Oid, f64)>, ResultOrigin)> {
            unreachable!("partitioned reads go through search_global")
        }

        fn value(&self, _c: &str, _q: &str, _o: Oid) -> Result<f64> {
            unreachable!("partitioned reads go through search_global")
        }

        fn ping(&self) -> Result<()> {
            self.check()
        }

        fn term_stats(&self, _c: &str, _q: &str) -> Result<StatsReply> {
            self.stats_calls.fetch_add(1, Ordering::Relaxed);
            self.check()?;
            Ok(StatsReply {
                globals: self.stats.clone(),
                epoch: self.epoch.load(Ordering::Relaxed),
                analyzer: AnalyzerConfig::default(),
            })
        }

        fn search_global(
            &self,
            _c: &str,
            _q: &str,
            k: usize,
            globals: &QueryGlobals,
        ) -> Result<KeyedReply> {
            self.search_calls.fetch_add(1, Ordering::Relaxed);
            self.check()?;
            let refuse = self
                .refusals
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
            if refuse.is_ok() {
                return Err(CouplingError::Remote {
                    kind: ErrorKind::Parse,
                    message: "mismatched term statistics".into(),
                });
            }
            *self.last_globals.lock() = Some(globals.clone());
            let mut hits = self.hits.clone();
            hits.truncate(k);
            Ok(KeyedReply {
                hits,
                epoch: self.epoch.load(Ordering::Relaxed),
            })
        }
    }

    fn stats_for(n_docs: u32, df: u32) -> QueryGlobals {
        QueryGlobals {
            n_docs,
            total_tokens: u64::from(n_docs) * 10,
            min_doc_len: 5,
            max_doc_len: 15,
            terms: vec![TermGlobals {
                term: "www".into(),
                df,
                max_tf: 3,
            }],
        }
    }

    fn config() -> PartitionConfig {
        PartitionConfig {
            remote: RemoteConfig {
                hedge_delay: std::time::Duration::from_millis(30),
                attempt_timeout: std::time::Duration::from_millis(200),
                ..RemoteConfig::default()
            },
            stale_capacity: None,
        }
    }

    fn router(parts: Vec<Arc<FakePartition>>) -> PartitionedIrs<Arc<FakePartition>> {
        PartitionedIrs::new(
            parts
                .into_iter()
                .enumerate()
                .map(|(i, p)| vec![(format!("p{i}"), p)])
                .collect(),
            config(),
        )
    }

    #[test]
    fn scatter_gather_merges_and_truncates_by_score() {
        let a = FakePartition::up(
            stats_for(10, 2),
            vec![("oid:1".into(), 0.9), ("oid:3".into(), 0.2)],
        );
        let b = FakePartition::up(
            stats_for(20, 1),
            vec![("oid:2".into(), 0.5), ("oid:4".into(), 0.1)],
        );
        let r = router(vec![a, b]);
        let (hits, origin) = r.search_top_k("coll", "www", 3).unwrap();
        assert_eq!(origin, ResultOrigin::Fresh);
        assert_eq!(
            hits,
            vec![(Oid(1), 0.9), (Oid(2), 0.5), (Oid(3), 0.2)],
            "merged across partitions, cut to k"
        );
        assert_eq!(r.stats().requests, 1);
        assert_eq!(r.stats().scatter_failures, 0);
    }

    #[test]
    fn score_ties_cut_by_key_string_not_numeric_oid() {
        // "oid:10" < "oid:9" lexicographically — the single-node engine
        // selects at the k-boundary by key string, so the router must
        // too, even though Oid(9) < Oid(10) numerically.
        let a = FakePartition::up(stats_for(5, 1), vec![("oid:9".into(), 0.5)]);
        let b = FakePartition::up(stats_for(5, 1), vec![("oid:10".into(), 0.5)]);
        let r = router(vec![a, b]);
        let (hits, _) = r.search_top_k("coll", "www", 1).unwrap();
        assert_eq!(hits, vec![(Oid(10), 0.5)], "key-string tie-break wins");
    }

    #[test]
    fn get_irs_value_reads_through_the_merge() {
        let a = FakePartition::up(stats_for(5, 1), vec![("oid:7".into(), 0.8)]);
        let b = FakePartition::up(stats_for(5, 1), vec![("oid:8".into(), 0.3)]);
        let r = router(vec![a, b]);
        let (v, origin) = r.get_irs_value("coll", "www", Oid(8)).unwrap();
        assert!((v - 0.3).abs() < 1e-12);
        assert_eq!(origin, ResultOrigin::Fresh);
        let (v, _) = r.get_irs_value("coll", "www", Oid(999)).unwrap();
        assert_eq!(v, 0.0, "non-matching object scores zero");
    }

    #[test]
    fn partition_down_never_yields_a_silent_partial_result() {
        let a = FakePartition::up(stats_for(5, 1), vec![("oid:1".into(), 0.9)]);
        let b = FakePartition::up(stats_for(5, 1), vec![("oid:2".into(), 0.5)]);
        let r = router(vec![Arc::clone(&a), Arc::clone(&b)]);
        // Warm the merged stale store.
        let (warm, _) = r.search_top_k("coll", "www", 10).unwrap();
        assert_eq!(warm.len(), 2);
        // One partition (all its replicas) goes down: the merged stale
        // result is served — marked — instead of a partial fresh merge.
        b.down.store(true, Ordering::Relaxed);
        let (hits, origin) = r.search_top_k("coll", "www", 10).unwrap();
        assert_eq!(origin, ResultOrigin::Stale, "degradation must be marked");
        assert_eq!(hits, warm, "stale serves the full merged result");
        assert_eq!(r.stats().stale_serves, 1);
        assert_eq!(r.stats().scatter_failures, 1);
        // A cold query cannot be answered at all — typed transient error,
        // not a partial result.
        let err = r.search_top_k("coll", "never-seen", 10).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(r.stats().exhausted, 1);
    }

    #[test]
    fn mismatched_partition_statistics_fail_permanently() {
        let a = FakePartition::up(stats_for(5, 1), vec![("oid:1".into(), 0.9)]);
        let mut other = stats_for(5, 1);
        other.terms[0].term = "different".into();
        let b = FakePartition::up(other, vec![("oid:2".into(), 0.5)]);
        let r = router(vec![a, b]);
        let err = r.search_top_k("coll", "www", 10).unwrap_err();
        assert!(!err.is_transient(), "statistics skew is not retryable");
        assert_eq!(err.kind(), ErrorKind::Other);
    }

    fn two_partitions() -> (Arc<FakePartition>, Arc<FakePartition>) {
        (
            FakePartition::up(stats_for(10, 2), vec![("oid:1".into(), 0.9)]),
            FakePartition::up(stats_for(20, 1), vec![("oid:2".into(), 0.5)]),
        )
    }

    #[test]
    fn a_cold_read_sends_both_legs_and_a_warm_one_only_the_search_leg() {
        let (a, b) = two_partitions();
        let r = router(vec![Arc::clone(&a), Arc::clone(&b)]);
        let (cold, _) = r.search_top_k("coll", "www", 5).unwrap();
        assert_eq!((a.legs(), b.legs()), ((1, 1), (1, 1)), "cold: 1 + 1");
        let leg_one = a.last_globals.lock().clone().unwrap();
        let (warm, origin) = r.search_top_k("coll", "www", 5).unwrap();
        assert_eq!((a.legs(), b.legs()), ((1, 2), (1, 2)), "warm: 0 + 1");
        assert_eq!((warm, origin), (cold, ResultOrigin::Fresh));
        assert_eq!(
            a.last_globals.lock().clone().unwrap(),
            leg_one,
            "cached statistics are the integers leg 1 returned"
        );
        // getIRSValue shares the cache.
        r.get_irs_value("coll", "www", Oid(2)).unwrap();
        assert_eq!((a.legs(), b.legs()), ((1, 3), (1, 3)));
        let s = r.stats();
        assert_eq!((s.stats_legs, s.one_leg_reads), (1, 2));
        assert_eq!((s.cache_invalidations, s.epoch_mismatches), (0, 0));
    }

    #[test]
    fn warm_reads_spawn_no_threads() {
        let (a, b) = two_partitions();
        let r = router(vec![a, b]);
        let spawned = |r: &PartitionedIrs<Arc<FakePartition>>| -> u64 {
            r.groups().iter().map(|g| g.stats().threads_spawned).sum()
        };
        r.search_top_k("coll", "www", 5).unwrap();
        let after_first = spawned(&r);
        assert!(after_first >= 1);
        for _ in 0..100 {
            r.search_top_k("coll", "www", 5).unwrap();
        }
        assert_eq!(spawned(&r), after_first, "100 warm reads, 0 new threads");
        assert_eq!(r.stats().one_leg_reads, 100);
    }

    #[test]
    fn a_new_epoch_drops_the_entry_and_replays_both_legs() {
        let (a, b) = two_partitions();
        let r = router(vec![Arc::clone(&a), Arc::clone(&b)]);
        let (before, _) = r.search_top_k("coll", "www", 5).unwrap();
        // Partition b reopens over a new snapshot.
        b.epoch.fetch_add(1000, Ordering::Relaxed);
        let (after, origin) = r.search_top_k("coll", "www", 5).unwrap();
        assert_eq!((after, origin), (before, ResultOrigin::Fresh));
        assert_eq!(b.legs(), (2, 3), "speculative leg, then both legs");
        let s = r.stats();
        assert_eq!(
            (s.cache_invalidations, s.stats_legs, s.one_leg_reads),
            (1, 2, 0)
        );
        // The replay refilled the cache under the new epoch.
        r.search_top_k("coll", "www", 5).unwrap();
        assert_eq!(b.legs(), (2, 4));
        assert_eq!(r.stats().one_leg_reads, 1);
    }

    #[test]
    fn refused_statistics_are_a_miss_not_an_error() {
        let (a, b) = two_partitions();
        let r = router(vec![a, Arc::clone(&b)]);
        let (cold, _) = r.search_top_k("coll", "www", 5).unwrap();
        b.refusals.store(1, Ordering::Relaxed);
        let (hits, origin) = r.search_top_k("coll", "www", 5).unwrap();
        assert_eq!((hits, origin), (cold, ResultOrigin::Fresh));
        assert_eq!(b.legs(), (2, 3));
        let s = r.stats();
        assert_eq!((s.stats_legs, s.scatter_failures), (2, 0));
    }

    #[test]
    fn a_warm_read_degrades_like_a_cold_one() {
        let (a, b) = two_partitions();
        let r = router(vec![a, Arc::clone(&b)]);
        let (warm, _) = r.search_top_k("coll", "www", 5).unwrap();
        b.down.store(true, Ordering::Relaxed);
        let (hits, origin) = r.search_top_k("coll", "www", 5).unwrap();
        assert_eq!((hits, origin), (warm, ResultOrigin::Stale));
        let s = r.stats();
        assert_eq!(
            (s.stats_legs, s.scatter_failures, s.stale_serves),
            (1, 1, 1)
        );
    }

    #[test]
    fn no_partitions_is_an_irs_down_error() {
        let r: PartitionedIrs<Arc<FakePartition>> = PartitionedIrs::new(vec![], config());
        let err = r.search_top_k("coll", "q", 5).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::IrsDown);
    }
}
