//! IRS collections — the unit the paper couples against.
//!
//! "Each document set is called 'collection'. … IRS-queries are given by
//! terms (words) and are against the IRS-documents within an
//! IRS-collection. The result is a set of documents … together with an IRS
//! value which indicates the supposed relevance" (Section 1.1).
//!
//! [`IrsCollection`] owns one inverted index, one analyzer and one
//! retrieval model, exposes add/update/delete plus ranked search, and
//! tracks the indexing-cost counters the update-propagation experiment
//! (E7) reports.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::analysis::{Analyzer, AnalyzerConfig};
use crate::error::{IrsError, Result};
use crate::fault::FaultPlan;
use crate::index::{DocId, DocStore, IndexStatistics, MergeStats, ShardedIndex, ShardedReader};
use crate::model::ModelKind;
use crate::query::{
    collect_globals, evaluate, evaluate_top_k_counted, parse_query, PruneStrategy, QueryGlobals,
    QueryNode, TopKCounters,
};

/// Configuration of a collection: its analysis pipeline and model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CollectionConfig {
    /// Text analysis settings.
    pub analyzer: AnalyzerConfig,
    /// Retrieval paradigm.
    pub model: ModelKind,
    /// Number of index shards; `0` (the default) picks one shard per
    /// available CPU, via [`std::thread::available_parallelism`].
    pub shards: usize,
}

impl CollectionConfig {
    /// The effective shard count: the configured value, or (when `0`) one
    /// shard per available CPU.
    pub fn resolved_shards(&self) -> usize {
        if self.shards > 0 {
            self.shards
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(crate::index::DEFAULT_SHARDS)
        }
    }
}

/// One ranked search result.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    /// External document key (the OID of the represented object in the
    /// coupling).
    pub key: String,
    /// The IRS value.
    pub score: f64,
}

/// Counters of work a collection has performed — consumed by the update
/// propagation and buffering experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectionStatistics {
    /// Documents added since creation.
    pub adds: u64,
    /// Documents deleted since creation.
    pub deletes: u64,
    /// Queries evaluated against the index.
    pub queries: u64,
    /// Merges performed.
    pub merges: u64,
    /// Cumulative wall-clock nanoseconds spent evaluating queries
    /// (`search` / `search_top_k`) — the serving layer's hook for
    /// average-IRS-latency metrics.
    pub query_nanos: u64,
    /// Live documents the pruned top-k engine enumerated from essential
    /// postings lists, summed over queries.
    pub topk_candidates: u64,
    /// Candidates the engine scored exactly.
    pub topk_exact_scored: u64,
    /// Candidates an upper bound (collection-level or block-max)
    /// rejected before exact scoring.
    pub topk_bound_rejects: u64,
    /// Rejections that also let the engine seek past a range of
    /// documents via the block skip headers.
    pub topk_range_skips: u64,
    /// Tombstoned documents awaiting a merge when the statistics were
    /// taken — a gauge read from the document store, not a counter.
    pub tombstones: u64,
}

/// Lock-free work counters: queries are counted from `&self` so searches
/// can run concurrently (relaxed ordering — counters only, no ordering
/// requirements).
#[derive(Debug, Default)]
struct WorkCounters {
    adds: AtomicU64,
    deletes: AtomicU64,
    queries: AtomicU64,
    merges: AtomicU64,
    query_nanos: AtomicU64,
    topk_candidates: AtomicU64,
    topk_exact_scored: AtomicU64,
    topk_bound_rejects: AtomicU64,
    topk_range_skips: AtomicU64,
}

impl WorkCounters {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Charge the elapsed time since `started` to query evaluation.
    fn time_query(&self, started: Instant) {
        self.query_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Add one query's engine counters.
    fn count_topk(&self, c: &TopKCounters) {
        for (total, n) in [
            (&self.topk_candidates, c.candidates),
            (&self.topk_exact_scored, c.exact_scored),
            (&self.topk_bound_rejects, c.bound_rejects),
            (&self.topk_range_skips, c.range_skips),
        ] {
            total.fetch_add(n, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> CollectionStatistics {
        CollectionStatistics {
            adds: self.adds.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            merges: self.merges.load(Ordering::Relaxed),
            query_nanos: self.query_nanos.load(Ordering::Relaxed),
            topk_candidates: self.topk_candidates.load(Ordering::Relaxed),
            topk_exact_scored: self.topk_exact_scored.load(Ordering::Relaxed),
            topk_bound_rejects: self.topk_bound_rejects.load(Ordering::Relaxed),
            topk_range_skips: self.topk_range_skips.load(Ordering::Relaxed),
            tombstones: 0,
        }
    }
}

impl Clone for WorkCounters {
    fn clone(&self) -> Self {
        let s = self.snapshot();
        WorkCounters {
            adds: AtomicU64::new(s.adds),
            deletes: AtomicU64::new(s.deletes),
            queries: AtomicU64::new(s.queries),
            merges: AtomicU64::new(s.merges),
            query_nanos: AtomicU64::new(s.query_nanos),
            topk_candidates: AtomicU64::new(s.topk_candidates),
            topk_exact_scored: AtomicU64::new(s.topk_exact_scored),
            topk_bound_rejects: AtomicU64::new(s.topk_bound_rejects),
            topk_range_skips: AtomicU64::new(s.topk_range_skips),
        }
    }
}

/// A named set of IRS documents with ranked retrieval.
///
/// Searches take `&self` — the underlying [`ShardedIndex`] serves reads
/// under shard read-locks, so any number of threads can query one shared
/// collection concurrently. Mutation keeps `&mut self` receivers to
/// preserve the single-writer discipline of the update-propagation path.
#[derive(Debug, Clone)]
pub struct IrsCollection {
    config: CollectionConfig,
    index: ShardedIndex,
    stats: WorkCounters,
    /// Optional deterministic fault schedule; consulted at the top of
    /// every fallible operation. `None` costs one branch.
    fault: Option<Arc<FaultPlan>>,
    /// Frozen-snapshot mode: mutation returns [`IrsError::ReadOnly`].
    /// Read replicas set this after loading a saved index so a stray
    /// write request can never fork a replica's state from its primary.
    read_only: bool,
    /// Identity of the content; never `0` (see [`IrsCollection::epoch`]).
    epoch: u64,
}

/// A process-unique, non-zero epoch for content built in memory:
/// the clock, the process id and a counter, mixed, so two processes
/// building different content do not collide.
fn fresh_epoch() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    let seed = nanos ^ u64::from(std::process::id()).rotate_left(32);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    crate::fault::splitmix64(seed ^ crate::fault::splitmix64(n)).max(1)
}

impl IrsCollection {
    /// Create an empty collection.
    pub fn new(config: CollectionConfig) -> Self {
        let index = ShardedIndex::with_shards(
            Analyzer::new(config.analyzer.clone()),
            config.resolved_shards(),
        );
        IrsCollection {
            config,
            index,
            stats: WorkCounters::default(),
            fault: None,
            read_only: false,
            epoch: fresh_epoch(),
        }
    }

    /// Freeze (or with `false`, thaw) the collection: while read-only,
    /// every mutating operation fails with [`IrsError::ReadOnly`] and the
    /// index keeps serving the loaded snapshot unchanged. Read replicas
    /// set this after loading a saved index so a stray write request can
    /// never fork a replica's state from its primary.
    pub fn set_read_only(&mut self, read_only: bool) {
        self.read_only = read_only;
    }

    /// The identity of the content this collection serves: equal epochs
    /// mean equal answers to every query, so a result computed under one
    /// epoch stays valid exactly while the collection reports it — the
    /// coupling's result buffer and a router's term-statistics cache
    /// both key on it. A loaded snapshot's epoch is derived from its
    /// verified bytes ([`crate::persist`]), so two replicas opened from
    /// one directory agree; a new collection, every mutation and every
    /// merge mint a process-unique one. It is never `0`.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True while the collection refuses mutation.
    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    /// Guard at the top of every document mutation: refuse while
    /// read-only, consult the fault plan, and mint a new content epoch.
    fn begin_mutation(&mut self) -> Result<()> {
        if self.read_only {
            return Err(IrsError::ReadOnly(
                "collection serves a frozen replica snapshot".into(),
            ));
        }
        self.check_fault()?;
        self.epoch = fresh_epoch();
        Ok(())
    }

    /// Attach (or with `None`, detach) a fault-injection schedule. Every
    /// fallible operation first ticks the plan and surfaces any injected
    /// [`crate::IrsError::Unavailable`].
    pub fn set_fault_plan(&mut self, plan: Option<Arc<FaultPlan>>) {
        self.fault = plan;
    }

    /// The currently attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.fault.as_ref()
    }

    /// Consult the fault plan, if attached.
    fn check_fault(&self) -> Result<()> {
        match &self.fault {
            Some(plan) => plan.tick(),
            None => Ok(()),
        }
    }

    /// The configuration the collection was created with.
    pub fn config(&self) -> &CollectionConfig {
        &self.config
    }

    /// Work counters, plus the current tombstone count.
    pub fn work_stats(&self) -> CollectionStatistics {
        CollectionStatistics {
            tombstones: u64::from(self.index.with_store(|s| s.tombstone_count())),
            ..self.stats.snapshot()
        }
    }

    /// Index statistics of the underlying inverted index.
    pub fn index_stats(&self) -> IndexStatistics {
        self.index.statistics()
    }

    /// A read view of the index that pins the document store until it is
    /// dropped — what the query evaluators and relevance feedback read
    /// through. Writers block while it lives, so hold it for one query.
    pub fn reader(&self) -> ShardedReader<'_> {
        self.index.reader()
    }

    /// Run `f` against the document store under a read lock.
    pub fn with_store<R>(&self, f: impl FnOnce(&DocStore) -> R) -> R {
        self.index.with_store(f)
    }

    /// Add a document under `key` (in the coupling: the object's OID).
    pub fn add_document(&mut self, key: &str, text: &str) -> Result<DocId> {
        self.begin_mutation()?;
        WorkCounters::bump(&self.stats.adds);
        self.index.add_document(key, text)
    }

    /// Add a batch of `(key, text)` documents, analyzing them in parallel
    /// across worker threads before merging into the index. All-or-nothing
    /// on duplicate keys.
    pub fn add_documents(&mut self, docs: &[(String, String)]) -> Result<Vec<DocId>> {
        self.begin_mutation()?;
        let ids = self.index.index_documents(docs)?;
        self.stats
            .adds
            .fetch_add(ids.len() as u64, Ordering::Relaxed);
        Ok(ids)
    }

    /// Delete the document stored under `key`.
    pub fn delete_document(&mut self, key: &str) -> Result<DocId> {
        self.begin_mutation()?;
        WorkCounters::bump(&self.stats.deletes);
        self.index.delete_document(key)
    }

    /// Replace the document stored under `key`.
    pub fn update_document(&mut self, key: &str, text: &str) -> Result<DocId> {
        self.begin_mutation()?;
        WorkCounters::bump(&self.stats.deletes);
        WorkCounters::bump(&self.stats.adds);
        self.index.update_document(key, text)
    }

    /// True if `key` currently has a live IRS document.
    pub fn contains(&self, key: &str) -> bool {
        self.index.with_store(|s| s.id_of(key).is_some())
    }

    /// Number of live documents.
    pub fn len(&self) -> usize {
        self.index.with_store(|s| s.live_count()) as usize
    }

    /// True if the collection holds no live documents.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Compact tombstones when more than 20% of slots are dead; called by
    /// [`IrsCollection::commit`].
    pub fn maybe_merge(&mut self) -> Option<MergeStats> {
        if self.index.with_store(|s| s.tombstone_ratio()) > 0.2 {
            Some(self.force_merge())
        } else {
            None
        }
    }

    /// Make pending changes durable-ready: compacts if worthwhile. The
    /// incremental index is always queryable; `commit` only optimises.
    pub fn commit(&mut self) -> Option<MergeStats> {
        self.maybe_merge()
    }

    /// Force a full compaction regardless of tombstone ratio.
    pub fn force_merge(&mut self) -> MergeStats {
        WorkCounters::bump(&self.stats.merges);
        self.epoch = fresh_epoch();
        self.index.merge()
    }

    /// Parse and evaluate `query`, returning hits sorted by descending IRS
    /// value (ties broken by key for determinism).
    pub fn search(&self, query: &str) -> Result<Vec<Hit>> {
        self.check_fault()?;
        let node = parse_query(query)?;
        let started = Instant::now();
        let hits = self.search_node(&node);
        self.stats.time_query(started);
        Ok(hits)
    }

    /// Parse and evaluate `query`, returning only the `k` best hits — the
    /// hot path for ranked retrieval with a result limit.
    ///
    /// `Term`/`And`/`Or`/`Sum`/`WSum`/`Max` trees run through the pruned
    /// document-at-a-time top-k engine
    /// ([`evaluate_top_k`](crate::query::evaluate_top_k)), which skips
    /// documents whose score upper bound cannot enter the current top-k.
    /// Trees containing `#not`/`#phrase`/`#near` (or `#wsum` with negative
    /// weights) fall back to exhaustive evaluation plus partial selection.
    /// Either path returns exactly the first `k` hits of [`Self::search`],
    /// with bit-identical scores.
    pub fn search_top_k(&self, query: &str, k: usize) -> Result<Vec<Hit>> {
        self.check_fault()?;
        let node = parse_query(query)?;
        WorkCounters::bump(&self.stats.queries);
        let started = Instant::now();
        let reader = self.index.reader();
        let model = self.config.model.as_model();
        if let Some((ranked, counters)) =
            evaluate_top_k_counted(&reader, model, &node, k, None, PruneStrategy::BlockMax)
        {
            self.stats.count_topk(&counters);
            let hits = ranked
                .into_iter()
                .map(|(doc, score)| Hit {
                    key: reader.doc_entry(doc).key.clone(),
                    score,
                })
                .collect();
            self.stats.time_query(started);
            return Ok(hits);
        }
        let scores = evaluate(&reader, model, &node);
        let mut hits: Vec<Hit> = scores
            .into_iter()
            .map(|(doc, score)| Hit {
                key: reader.doc_entry(doc).key.clone(),
                score,
            })
            .collect();
        if k < hits.len() {
            hits.select_nth_unstable_by(k, |a, b| {
                b.score.total_cmp(&a.score).then_with(|| a.key.cmp(&b.key))
            });
            hits.truncate(k);
        }
        hits.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.key.cmp(&b.key)));
        self.stats.time_query(started);
        Ok(hits)
    }

    /// Corpus statistics this collection contributes for `query` — one
    /// partition's share of the global-statistics exchange that keeps
    /// scattered scoring bit-identical to single-node scoring (see
    /// [`collect_globals`]).
    ///
    /// Queries outside the pruned top-k fragment (`#not`/`#phrase`/
    /// `#near`, negative `#wsum` weights) cannot be scattered and fail
    /// with [`IrsError::QueryParse`] — a permanent error, so routers do
    /// not retry it.
    pub fn query_globals(&self, query: &str) -> Result<QueryGlobals> {
        self.check_fault()?;
        let node = parse_query(query)?;
        let reader = self.index.reader();
        collect_globals(&reader, &node).ok_or_else(|| IrsError::QueryParse {
            reason: format!("query {query:?} is outside the partitionable operator fragment"),
            offset: 0,
        })
    }

    /// [`Self::search_top_k`] scored with *supplied* corpus statistics:
    /// `df`/`n_docs`/`avg_doc_len` come from `globals` (merged across all
    /// partitions of the collection) instead of the local index, so the
    /// local top-k is exactly what the union index would assign these
    /// documents. No exhaustive fallback exists — unsupported queries fail
    /// with [`IrsError::QueryParse`], as do globals whose term list does
    /// not match this query.
    pub fn search_top_k_global(
        &self,
        query: &str,
        k: usize,
        globals: &QueryGlobals,
    ) -> Result<Vec<Hit>> {
        self.check_fault()?;
        let node = parse_query(query)?;
        WorkCounters::bump(&self.stats.queries);
        let started = Instant::now();
        let reader = self.index.reader();
        let model = self.config.model.as_model();
        let (ranked, counters) = evaluate_top_k_counted(
            &reader,
            model,
            &node,
            k,
            Some(globals),
            PruneStrategy::BlockMax,
        )
        .ok_or_else(|| IrsError::QueryParse {
            reason: format!(
                "query {query:?} cannot be scored with supplied globals \
                     (unsupported operators or mismatched term statistics)"
            ),
            offset: 0,
        })?;
        self.stats.count_topk(&counters);
        let hits = ranked
            .into_iter()
            .map(|(doc, score)| Hit {
                key: reader.doc_entry(doc).key.clone(),
                score,
            })
            .collect();
        self.stats.time_query(started);
        Ok(hits)
    }

    /// Evaluate an already-parsed query.
    pub fn search_node(&self, node: &QueryNode) -> Vec<Hit> {
        WorkCounters::bump(&self.stats.queries);
        let reader = self.index.reader();
        let scores = evaluate(&reader, self.config.model.as_model(), node);
        let mut hits: Vec<Hit> = scores
            .into_iter()
            .map(|(doc, score)| Hit {
                key: reader.doc_entry(doc).key.clone(),
                score,
            })
            .collect();
        hits.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.key.cmp(&b.key)));
        hits
    }

    /// The sharded index — native per-shard persistence reads shards
    /// through this without merging.
    pub(crate) fn sharded_index(&self) -> &ShardedIndex {
        &self.index
    }

    /// Internal constructor used by native per-shard persistence: the
    /// index arrives already sharded, no re-partitioning, stamped with
    /// the snapshot's `epoch` (see [`IrsCollection::epoch`]).
    pub(crate) fn from_sharded(config: CollectionConfig, index: ShardedIndex, epoch: u64) -> Self {
        IrsCollection {
            config,
            index,
            stats: WorkCounters::default(),
            fault: None,
            read_only: false,
            epoch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Bm25Model, InferenceModel, VectorModel};

    fn populated(model: ModelKind) -> IrsCollection {
        let mut c = IrsCollection::new(CollectionConfig {
            model,
            ..CollectionConfig::default()
        });
        c.add_document("p1", "telnet is a protocol for remote login")
            .unwrap();
        c.add_document("p2", "the www is a hypertext system")
            .unwrap();
        c.add_document("p3", "the www and the nii together")
            .unwrap();
        c
    }

    #[test]
    fn search_returns_sorted_hits() {
        let c = populated(ModelKind::Inference(InferenceModel::default()));
        let hits = c.search("www").unwrap();
        assert_eq!(hits.len(), 2);
        assert!(hits[0].score >= hits[1].score);
    }

    #[test]
    fn ties_break_by_key_for_determinism() {
        let mut c = IrsCollection::new(CollectionConfig::default());
        c.add_document("b", "zebra").unwrap();
        c.add_document("a", "zebra").unwrap();
        let hits = c.search("zebra").unwrap();
        assert_eq!(hits[0].key, "a");
        assert_eq!(hits[1].key, "b");
    }

    #[test]
    fn every_model_kind_searches() {
        for model in [
            ModelKind::Boolean,
            ModelKind::Vector(VectorModel::default()),
            ModelKind::Bm25(Bm25Model::default()),
            ModelKind::Inference(InferenceModel::default()),
        ] {
            let c = populated(model.clone());
            let hits = c.search("#and(www nii)").unwrap();
            assert!(!hits.is_empty(), "{model:?}");
            assert_eq!(hits[0].key, "p3", "{model:?} top hit");
        }
    }

    #[test]
    fn update_changes_search_results() {
        let mut c = populated(ModelKind::default());
        c.update_document("p1", "gopher replaces telnet menus entirely")
            .unwrap();
        let telnet = c.search("telnet").unwrap();
        // p1 still matches (text mentions telnet) but via the new text.
        assert_eq!(telnet.len(), 1);
        let gopher = c.search("gopher").unwrap();
        assert_eq!(gopher[0].key, "p1");
    }

    #[test]
    fn work_stats_count_operations() {
        let mut c = populated(ModelKind::default());
        c.search("www").unwrap();
        c.search("nii").unwrap();
        c.delete_document("p1").unwrap();
        let s = c.work_stats();
        assert_eq!(s.adds, 3);
        assert_eq!(s.deletes, 1);
        assert_eq!(s.queries, 2);
        assert_eq!(s.tombstones, 1);
        c.force_merge();
        assert_eq!(c.work_stats().tombstones, 0);
    }

    #[test]
    fn work_stats_sum_the_top_k_engine_counters() {
        let c = populated(ModelKind::default());
        assert_eq!(c.work_stats().topk_candidates, 0);
        c.search_top_k("www", 1).unwrap();
        let one = c.work_stats();
        assert_eq!(one.topk_candidates, 2, "both www documents enumerated");
        assert!(one.topk_exact_scored + one.topk_bound_rejects <= one.topk_candidates);
        assert!(one.topk_range_skips <= one.topk_bound_rejects);
        c.search_top_k("www", 1).unwrap();
        assert_eq!(c.work_stats().topk_candidates, 4);
        // The exhaustive fallback is not the engine's work.
        c.search_top_k("#not(www)", 1).unwrap();
        assert_eq!(c.work_stats().topk_candidates, 4);
    }

    #[test]
    fn commit_merges_only_when_dirty_enough() {
        let mut c = populated(ModelKind::default());
        assert!(c.commit().is_none(), "no tombstones yet");
        c.delete_document("p1").unwrap();
        let merged = c.commit().expect("1/3 dead > 20%");
        assert_eq!(merged.docs_purged, 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn len_and_contains() {
        let mut c = populated(ModelKind::default());
        assert_eq!(c.len(), 3);
        assert!(c.contains("p1"));
        c.delete_document("p1").unwrap();
        assert!(!c.contains("p1"));
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }

    #[test]
    fn read_only_mode_refuses_mutation_but_serves_reads() {
        let mut c = populated(ModelKind::default());
        let before = c.search("www").unwrap();
        c.set_read_only(true);
        assert!(c.is_read_only());
        assert!(matches!(
            c.add_document("p9", "text"),
            Err(IrsError::ReadOnly(_))
        ));
        assert!(matches!(
            c.add_documents(&[("p9".into(), "text".into())]),
            Err(IrsError::ReadOnly(_))
        ));
        assert!(matches!(
            c.update_document("p1", "text"),
            Err(IrsError::ReadOnly(_))
        ));
        assert!(matches!(
            c.delete_document("p1"),
            Err(IrsError::ReadOnly(_))
        ));
        // Reads are untouched and the snapshot is unchanged.
        let after = c.search("www").unwrap();
        assert_eq!(before.len(), after.len());
        assert!(c.search_top_k("www", 1).is_ok());
        // Thawing restores writability.
        c.set_read_only(false);
        assert!(c.add_document("p9", "fresh text").is_ok());
    }

    #[test]
    fn every_mutation_mints_a_fresh_epoch() {
        let mut a = populated(ModelKind::default());
        let b = populated(ModelKind::default());
        let first = a.epoch();
        assert_ne!(first, 0);
        assert_ne!(
            first,
            b.epoch(),
            "each collection built in memory is unique"
        );
        // Freezing and thawing leave the content, and so the epoch, alone.
        a.set_read_only(true);
        assert_eq!(a.epoch(), first);
        assert!(a.delete_document("p1").is_err());
        assert_eq!(a.epoch(), first, "a refused mutation changes nothing");
        a.set_read_only(false);
        assert_eq!(a.epoch(), first);
        // Any mutation (a merge included) mints a new one.
        a.delete_document("p1").unwrap();
        let second = a.epoch();
        assert_ne!(second, first);
        assert_ne!(second, 0);
        a.force_merge();
        assert_ne!(a.epoch(), second);
        assert_ne!(a.epoch(), 0);
    }

    #[test]
    fn bad_query_surfaces_parse_error() {
        let c = populated(ModelKind::default());
        assert!(c.search("#and(").is_err());
    }

    #[test]
    fn configured_shard_count_is_resolved() {
        assert!(CollectionConfig::default().resolved_shards() >= 1);
        let fixed = CollectionConfig {
            shards: 3,
            ..CollectionConfig::default()
        };
        assert_eq!(fixed.resolved_shards(), 3);
        let c = IrsCollection::new(fixed);
        assert!(c.is_empty());
    }

    #[test]
    fn attached_fault_plan_gates_operations() {
        let mut c = populated(ModelKind::default());
        let plan = Arc::new(FaultPlan::new(0));
        c.set_fault_plan(Some(plan.clone()));
        assert!(c.search("www").is_ok());
        plan.set_down(true);
        assert!(matches!(
            c.search("www"),
            Err(crate::IrsError::Unavailable(_))
        ));
        assert!(c.add_document("p9", "text").is_err());
        assert!(c.update_document("p1", "text").is_err());
        assert!(c.delete_document("p1").is_err());
        plan.set_down(false);
        assert!(c.search("www").is_ok());
        c.set_fault_plan(None);
        assert!(c.fault_plan().is_none());
    }

    #[test]
    fn top_k_matches_full_search_prefix() {
        let mut c = IrsCollection::new(CollectionConfig::default());
        for i in 0..30 {
            let reps = (i % 5) + 1;
            let text = format!("{} padding words here", "zebra ".repeat(reps));
            c.add_document(&format!("d{i:02}"), &text).unwrap();
        }
        // Pruned-engine trees and fallback trees (#not, phrase) alike must
        // return exactly the first k hits of the full search.
        for q in [
            "zebra",
            "#or(zebra padding)",
            "#wsum(3 zebra 1 words)",
            "#and(padding #not(zebra))",
            "\"padding words\"",
        ] {
            let full = c.search(q).unwrap();
            for k in [0usize, 1, 3, 10, 30, 100] {
                let top = c.search_top_k(q, k).unwrap();
                assert_eq!(top.len(), k.min(full.len()), "q={q} k={k}");
                assert_eq!(&top[..], &full[..top.len()], "q={q} k={k} prefix equality");
            }
        }
    }
}
