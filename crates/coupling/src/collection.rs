//! The `COLLECTION` coupling class (paper Section 4.2).
//!
//! "Instances of database class COLLECTION encapsulate exactly one IRS
//! collection. The number of IRS collections in use is arbitrary."
//! A [`Collection`] owns one [`irs::IrsCollection`], remembers its
//! specification query and text mode, buffers IRS results persistently
//! (Figure 3), and implements `findIRSValue` with automatic fall-through
//! to `deriveIRSValue` for unrepresented objects.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use irs::{CollectionConfig, FaultPlan, IrsCollection};
use oodb::{Database, MethodCtx, Oid};

use crate::buffer::{ResultBuffer, ResultMap};
use crate::derive::{DerivationScheme, IrsAccess};
use crate::error::{CouplingError, Result};
use crate::retry::{self, BreakerConfig, CircuitBreaker, RetryPolicy, RetryStats};
use crate::textmode::TextMode;

/// Configuration of a coupling collection.
#[derive(Debug, Clone, Default)]
pub struct CollectionSetup {
    /// IRS-side configuration (analysis pipeline + retrieval model).
    pub irs: CollectionConfig,
    /// How `getText` extracts an object's text (the `textMode` parameter
    /// of `indexObjects`).
    pub text_mode: TextMode,
    /// How unrepresented objects derive their IRS values.
    pub derivation: DerivationScheme,
    /// Capacity of the IRS-result buffer (queries).
    pub buffer_capacity: usize,
    /// Retry/backoff policy applied to every IRS call.
    pub retry: RetryPolicy,
    /// Circuit-breaker configuration for the IRS.
    pub breaker: BreakerConfig,
    /// Rank at most this many IRS documents per query (`None` = rank
    /// everything, the paper's behavior). With a limit the IRS serves
    /// queries through its pruned top-k engine instead of scoring the
    /// whole collection; applications that only consume the best few
    /// objects (threshold predicates, first-page results) should set
    /// this. Ignored while the collection holds segmented roots —
    /// folding segment hits into per-object values needs every hit.
    pub result_limit: Option<usize>,
}

/// What a saved collection keeps besides its index and buffer: its setup
/// and what it was last indexed with. [`Collection::saved_setup`] gives
/// it and [`Collection::from_saved`] takes it back.
#[derive(Debug, Clone)]
pub struct SavedSetup {
    /// The collection's setup.
    pub setup: CollectionSetup,
    /// The specification query of the last indexing, if any.
    pub spec_query: Option<String>,
    /// The `(window, stride)` of segment indexing, if any.
    pub segment_config: Option<(usize, usize)>,
}

/// Where a `getIRSResult` answer came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResultOrigin {
    /// Evaluated by the IRS for this call.
    Fresh,
    /// Served from the result buffer, computed at the IRS content's
    /// current epoch.
    Buffered,
    /// The IRS was unavailable; served from the result buffer although
    /// the entry was computed at an older epoch — the last known result.
    Stale,
}

/// Fault-tolerance counters of one collection (retry layer + breaker +
/// degraded serving), reported by E13.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// IRS call attempts beyond the first (retries performed).
    pub retries: u64,
    /// Logical IRS calls that exhausted retries/budget.
    pub giveups: u64,
    /// Times the circuit breaker tripped open.
    pub breaker_opens: u64,
    /// Calls rejected by the open breaker without reaching the IRS.
    pub breaker_rejections: u64,
    /// Queries answered from an older buffer entry while the IRS was down.
    pub stale_serves: u64,
}

impl CollectionSetup {
    /// Setup with a given text mode and otherwise default parameters.
    pub fn with_text_mode(text_mode: TextMode) -> Self {
        CollectionSetup {
            text_mode,
            ..CollectionSetup::default()
        }
    }

    /// Cap IRS rankings at `k` results per query (builder style).
    pub fn with_result_limit(mut self, k: usize) -> Self {
        self.result_limit = Some(k);
        self
    }

    /// Start a [`CollectionSetupBuilder`] over default parameters.
    pub fn builder() -> CollectionSetupBuilder {
        CollectionSetupBuilder {
            setup: CollectionSetup::default(),
        }
    }
}

/// Fluent builder for [`CollectionSetup`] — the entry-point way to
/// configure a collection:
///
/// ```
/// use coupling::prelude::*;
///
/// let setup = CollectionSetup::builder()
///     .text_mode(TextMode::DirectText)
///     .result_limit(20)
///     .shards(4)
///     .build();
/// assert_eq!(setup.result_limit, Some(20));
/// assert_eq!(setup.irs.shards, 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CollectionSetupBuilder {
    setup: CollectionSetup,
}

impl CollectionSetupBuilder {
    /// How `getText` extracts an object's text.
    pub fn text_mode(mut self, mode: TextMode) -> Self {
        self.setup.text_mode = mode;
        self
    }

    /// Derivation scheme for unrepresented objects.
    pub fn derivation(mut self, scheme: DerivationScheme) -> Self {
        self.setup.derivation = scheme;
        self
    }

    /// Capacity of the IRS-result buffer (`0` keeps the default).
    pub fn buffer_capacity(mut self, cap: usize) -> Self {
        self.setup.buffer_capacity = cap;
        self
    }

    /// Rank at most `k` IRS documents per query (pruned top-k engine).
    pub fn result_limit(mut self, k: usize) -> Self {
        self.setup.result_limit = Some(k);
        self
    }

    /// Number of IRS index shards (`0` = one per available CPU).
    pub fn shards(mut self, shards: usize) -> Self {
        self.setup.irs.shards = shards;
        self
    }

    /// Full IRS-side configuration (analysis pipeline + retrieval
    /// model). Overwrites any earlier [`CollectionSetupBuilder::shards`].
    pub fn irs(mut self, config: CollectionConfig) -> Self {
        self.setup.irs = config;
        self
    }

    /// Retry/backoff policy applied to every IRS call.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.setup.retry = policy;
        self
    }

    /// Circuit-breaker configuration for the IRS.
    pub fn breaker(mut self, config: BreakerConfig) -> Self {
        self.setup.breaker = config;
        self
    }

    /// Finish: the configured [`CollectionSetup`].
    pub fn build(self) -> CollectionSetup {
        self.setup
    }
}

/// Work counters of the coupling layer (consumed by E4/E7).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CouplingStats {
    /// Queries actually submitted to the IRS (buffer misses).
    pub irs_calls: u64,
    /// Values answered via `deriveIRSValue`.
    pub derivations: u64,
    /// Objects (re-)indexed into the IRS collection.
    pub indexed_objects: u64,
}

/// Atomic work counters so the query path (`getIRSResult`,
/// `findIRSValue`) can count work from `&self` while threads share one
/// collection.
#[derive(Debug, Default)]
struct CouplingCounters {
    irs_calls: AtomicU64,
    derivations: AtomicU64,
    indexed_objects: AtomicU64,
}

impl CouplingCounters {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> CouplingStats {
        CouplingStats {
            irs_calls: self.irs_calls.load(Ordering::Relaxed),
            derivations: self.derivations.load(Ordering::Relaxed),
            indexed_objects: self.indexed_objects.load(Ordering::Relaxed),
        }
    }
}

/// A coupled document collection.
#[derive(Debug)]
pub struct Collection {
    name: String,
    irs: IrsCollection,
    text_mode: TextMode,
    derivation: DerivationScheme,
    buffer: ResultBuffer,
    represented: HashSet<Oid>,
    /// Root objects indexed in equal-size segments (their IRS documents
    /// are `oid:N#k` keys).
    segmented: HashSet<Oid>,
    /// `(window, stride)` used for segment/passage indexing.
    segment_config: Option<(usize, usize)>,
    /// IRS documents currently held per segmented root (for stale-tail
    /// deletion on re-index).
    segment_counts: HashMap<Oid, usize>,
    spec_query: Option<String>,
    stats: CouplingCounters,
    retry: RetryPolicy,
    breaker: CircuitBreaker,
    retry_stats: RetryStats,
    result_limit: Option<usize>,
}

impl Collection {
    /// Create an empty collection.
    pub fn new(name: &str, setup: CollectionSetup) -> Self {
        let cap = if setup.buffer_capacity == 0 {
            256
        } else {
            setup.buffer_capacity
        };
        Collection {
            name: name.to_string(),
            irs: IrsCollection::new(setup.irs),
            text_mode: setup.text_mode,
            derivation: setup.derivation,
            buffer: ResultBuffer::new(cap),
            represented: HashSet::new(),
            segmented: HashSet::new(),
            segment_config: None,
            segment_counts: HashMap::new(),
            spec_query: None,
            stats: CouplingCounters::default(),
            retry: setup.retry,
            breaker: CircuitBreaker::new(setup.breaker),
            retry_stats: RetryStats::default(),
            result_limit: setup.result_limit,
        }
    }

    /// Collection name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The specification query used by the last [`Collection::index_objects`].
    pub fn spec_query(&self) -> Option<&str> {
        self.spec_query.as_deref()
    }

    /// The derivation scheme in use.
    pub fn derivation(&self) -> &DerivationScheme {
        &self.derivation
    }

    /// The text mode in use.
    pub fn text_mode(&self) -> &TextMode {
        &self.text_mode
    }

    /// The setup this collection runs with and what it was indexed
    /// with: what [`crate::persist`] saves.
    pub fn saved_setup(&self) -> SavedSetup {
        SavedSetup {
            setup: CollectionSetup {
                irs: self.irs.config().clone(),
                text_mode: self.text_mode.clone(),
                derivation: self.derivation.clone(),
                buffer_capacity: self.buffer.capacity(),
                retry: self.retry.clone(),
                breaker: self.breaker.config().clone(),
                result_limit: self.result_limit,
            },
            spec_query: self.spec_query.clone(),
            segment_config: self.segment_config,
        }
    }

    /// Rebuild a collection from persisted parts (see
    /// [`crate::persist`]). The represented/segmented sets are
    /// reconstructed from the IRS document keys (`oid:N` vs `oid:N#k`).
    /// `saved.setup.irs` is ignored — `irs` carries its own
    /// configuration — and `buffer` must hold answers computed under
    /// `saved.setup.result_limit`.
    pub fn from_saved(
        name: &str,
        irs: IrsCollection,
        saved: SavedSetup,
        buffer: ResultBuffer,
    ) -> Self {
        let mut represented = HashSet::new();
        let mut segmented = HashSet::new();
        let mut segment_counts: HashMap<Oid, usize> = HashMap::new();
        irs.with_store(|store| {
            for (_, entry) in store.iter_live() {
                match entry.key.split_once('#') {
                    Some((prefix, k)) => {
                        if let Some(oid) = Oid::parse(prefix) {
                            segmented.insert(oid);
                            if let Ok(k) = k.parse::<usize>() {
                                let c = segment_counts.entry(oid).or_default();
                                *c = (*c).max(k + 1);
                            }
                        }
                    }
                    None => {
                        if let Some(oid) = Oid::parse(&entry.key) {
                            represented.insert(oid);
                        }
                    }
                }
            }
        });
        Collection {
            irs,
            buffer,
            represented,
            segmented,
            segment_counts,
            spec_query: saved.spec_query,
            segment_config: saved.segment_config,
            ..Collection::new(name, saved.setup)
        }
    }

    /// The `(window, stride)` of segment/passage indexing, if any.
    pub fn segment_config(&self) -> Option<(usize, usize)> {
        self.segment_config
    }

    /// Borrow the result buffer (persistence).
    pub fn buffer(&self) -> &ResultBuffer {
        &self.buffer
    }

    /// Replace the derivation scheme (e.g. to compare schemes in E3).
    pub fn set_derivation(&mut self, scheme: DerivationScheme) {
        self.derivation = scheme;
    }

    /// The per-query ranking cap, if any (see
    /// [`CollectionSetup::result_limit`]).
    pub fn result_limit(&self) -> Option<usize> {
        self.result_limit
    }

    /// Change the per-query ranking cap. The result buffer is
    /// invalidated: buffered answers were computed under the old limit,
    /// which the IRS epoch does not record.
    pub fn set_result_limit(&mut self, limit: Option<usize>) {
        if self.result_limit != limit {
            self.result_limit = limit;
            self.buffer.invalidate_all();
        }
    }

    /// Coupling work counters.
    pub fn stats(&self) -> CouplingStats {
        self.stats.snapshot()
    }

    /// Buffer statistics.
    pub fn buffer_stats(&self) -> crate::buffer::BufferStats {
        self.buffer.stats()
    }

    /// Direct access to the underlying IRS collection (index statistics,
    /// experiments).
    pub fn irs(&self) -> &IrsCollection {
        &self.irs
    }

    /// Number of represented objects.
    pub fn len(&self) -> usize {
        self.represented.len() + self.segmented.len()
    }

    /// True if nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // ------------------------------------------------------------------
    // indexObjects (paper Section 4.2)
    // ------------------------------------------------------------------

    /// Evaluate `spec_query` against the database and index every
    /// returned object: "indexObjects evaluates the specification query
    /// specQuery. The result is a set of IRSObjects. For each of these
    /// the method getText is invoked." Returns the number of objects
    /// indexed.
    pub fn index_objects(&mut self, db: &Database, spec_query: &str) -> Result<usize> {
        let rows = db.query(spec_query)?;
        let mut oids = Vec::with_capacity(rows.len());
        for row in &rows {
            let oid = row.oid().ok_or_else(|| {
                CouplingError::BadSpecQuery(format!(
                    "specification query {spec_query:?} returned a non-object row"
                ))
            })?;
            oids.push(oid);
        }
        self.spec_query = Some(spec_query.to_string());
        let ctx = db.method_ctx();
        for oid in &oids {
            self.index_one(&ctx, *oid)?;
        }
        Ok(oids.len())
    }

    /// [`Collection::index_objects`] with the not-yet-represented
    /// objects funnelled through one [`IrsCollection::add_documents`]
    /// call, amortising analysis and snapshot work across the batch —
    /// the execution path of merged `indexObjects` tasks
    /// ([`crate::tasks`]). Results are identical to the one-at-a-time
    /// path; already-represented objects still update individually.
    pub fn index_objects_batch(&mut self, db: &Database, spec_query: &str) -> Result<usize> {
        let rows = db.query(spec_query)?;
        let mut oids = Vec::with_capacity(rows.len());
        for row in &rows {
            let oid = row.oid().ok_or_else(|| {
                CouplingError::BadSpecQuery(format!(
                    "specification query {spec_query:?} returned a non-object row"
                ))
            })?;
            oids.push(oid);
        }
        self.spec_query = Some(spec_query.to_string());
        let ctx = db.method_ctx();
        let mut fresh: Vec<(Oid, (String, String))> = Vec::new();
        let mut queued: std::collections::HashSet<Oid> = std::collections::HashSet::new();
        for &oid in &oids {
            if self.represented.contains(&oid) || !queued.insert(oid) {
                // Already represented — or queued for the batch add just
                // below, which must not see the same key twice.
                if self.represented.contains(&oid) {
                    self.index_one(&ctx, oid)?;
                }
                continue;
            }
            let text = self.text_mode.get_text(&ctx, oid);
            fresh.push((oid, (oid.to_string(), text)));
        }
        if !fresh.is_empty() {
            let docs: Vec<(String, String)> = fresh.iter().map(|(_, doc)| doc.clone()).collect();
            retry::call(&self.retry, &self.breaker, &self.retry_stats, || {
                self.irs.add_documents(&docs)
            })?;
            for (oid, _) in &fresh {
                self.represented.insert(*oid);
                CouplingCounters::bump(&self.stats.indexed_objects);
            }
        }
        Ok(oids.len())
    }

    /// Index (or re-index) a single object.
    fn index_one(&mut self, ctx: &MethodCtx<'_>, oid: Oid) -> Result<()> {
        let text = self.text_mode.get_text(ctx, oid);
        let key = oid.to_string();
        if self.represented.contains(&oid) {
            retry::call(&self.retry, &self.breaker, &self.retry_stats, || {
                self.irs.update_document(&key, &text)
            })?;
        } else {
            retry::call(&self.retry, &self.breaker, &self.retry_stats, || {
                self.irs.add_document(&key, &text)
            })?;
            self.represented.insert(oid);
        }
        CouplingCounters::bump(&self.stats.indexed_objects);
        Ok(())
    }

    /// Index `roots` in fixed-size segments of `words` tokens — the
    /// [HeP93]/[Cal94] equal-length strategy ("IRS documents of
    /// approximately the same size", paper Section 4.3). Segment hits
    /// are combined back into per-object values in
    /// [`Collection::get_irs_result`].
    pub fn index_segments(&mut self, db: &Database, roots: &[Oid], words: usize) -> Result<usize> {
        self.index_passages(db, roots, words, words)
    }

    /// Index `roots` as **overlapping passages** of `window` tokens
    /// advancing by `stride` — the [SAB93] passage retrieval the paper
    /// names as "an interesting candidate" for deriving IRS values
    /// (Section 6). With a bounded model, [`Collection::get_irs_result`]
    /// folds passage hits by maximum, i.e. each object's IRS value is its
    /// *best passage* — exactly [SAB93]'s document score.
    pub fn index_passages(
        &mut self,
        db: &Database,
        roots: &[Oid],
        window: usize,
        stride: usize,
    ) -> Result<usize> {
        let window = window.max(1);
        let stride = stride.clamp(1, window);
        self.segment_config = Some((window, stride));
        let ctx = db.method_ctx();
        let mut passages = 0usize;
        for &root in roots {
            passages += self.reindex_segmented(&ctx, root)?;
        }
        Ok(passages)
    }

    /// (Re-)chunk one segmented root with the current segment config,
    /// updating existing IRS documents and deleting stale tail segments
    /// when the text shrank. Returns the number of live segments.
    fn reindex_segmented(&mut self, ctx: &MethodCtx<'_>, root: Oid) -> Result<usize> {
        let (window, stride) = self.segment_config.unwrap_or((30, 30));
        let text = self.text_mode.get_text(ctx, root);
        let tokens: Vec<&str> = text.split_whitespace().collect();
        let mut count = 0usize;
        let starts = (0..tokens.len().max(1)).step_by(stride);
        for (k, start) in starts.enumerate() {
            let end = (start + window).min(tokens.len());
            let chunk = tokens.get(start..end).unwrap_or(&[]).join(" ");
            let key = format!("{root}#{k}");
            if self.irs.contains(&key) {
                retry::call(&self.retry, &self.breaker, &self.retry_stats, || {
                    self.irs.update_document(&key, &chunk)
                })?;
            } else {
                retry::call(&self.retry, &self.breaker, &self.retry_stats, || {
                    self.irs.add_document(&key, &chunk)
                })?;
            }
            count += 1;
            // The final window covers the tail; further starts would
            // only produce sub-windows of it.
            if end == tokens.len() {
                break;
            }
        }
        // Drop stale tail segments from a previous, longer text.
        let old = self.segment_counts.insert(root, count).unwrap_or(0);
        for k in count..old {
            let key = format!("{root}#{k}");
            if self.irs.contains(&key) {
                retry::call(&self.retry, &self.breaker, &self.retry_stats, || {
                    self.irs.delete_document(&key)
                })?;
            }
        }
        self.segmented.insert(root);
        CouplingCounters::bump(&self.stats.indexed_objects);
        Ok(count)
    }

    /// True if `oid` has an IRS document (directly or via segments).
    pub fn is_represented(&self, oid: Oid) -> bool {
        self.represented.contains(&oid) || self.segmented.contains(&oid)
    }

    // ------------------------------------------------------------------
    // getIRSResult (paper Section 4.2, Figure 3)
    // ------------------------------------------------------------------

    /// Submit `query` to the IRS (through the persistent buffer) and
    /// return `OID → IRS value` for every matching object. Segment hits
    /// are folded into their root object (beliefs combine by max;
    /// unbounded scores sum, following [HeP93]). Takes `&self`: any
    /// number of threads can serve queries from one shared collection —
    /// the buffer and the sharded IRS index synchronise internally.
    pub fn get_irs_result(&self, query: &str) -> Result<ResultMap> {
        self.get_irs_result_with_origin(query).map(|(map, _)| map)
    }

    /// Like [`Collection::get_irs_result`], but also reports where the
    /// answer came from. A buffer entry answers only if it was computed
    /// at the IRS content's current epoch. When the IRS is unavailable
    /// (a transient error that survives the retry policy), the buffer's
    /// entry for `query` from an older epoch — if any — is served
    /// instead, marked [`ResultOrigin::Stale`].
    pub fn get_irs_result_with_origin(&self, query: &str) -> Result<(ResultMap, ResultOrigin)> {
        self.shared_result(query)
            .map(|(map, origin)| (Arc::unwrap_or_clone(map), origin))
    }

    /// [`Collection::get_irs_result_with_origin`] without the copy: the
    /// buffer's own shared map.
    pub(crate) fn shared_result(&self, query: &str) -> Result<(Arc<ResultMap>, ResultOrigin)> {
        let epoch = self.irs.epoch();
        if let Some(hit) = self.buffer.get(query, epoch) {
            return Ok((hit, ResultOrigin::Buffered));
        }
        match self.evaluate_uncached(query) {
            Ok(map) => {
                let map = Arc::new(map);
                self.buffer.insert(query, epoch, Arc::clone(&map));
                Ok((map, ResultOrigin::Fresh))
            }
            Err(e) if e.is_transient() => match self.buffer.get_stale(query) {
                Some(map) => Ok((map, ResultOrigin::Stale)),
                None => Err(e),
            },
            Err(e) => Err(e),
        }
    }

    /// Evaluate against the IRS without touching the buffer (used by E4's
    /// unbuffered baseline).
    pub fn evaluate_uncached(&self, query: &str) -> Result<ResultMap> {
        CouplingCounters::bump(&self.stats.irs_calls);
        let bounded = self.irs.config().model.as_model().bounded();
        // Segment-key folding (`oid:N#k` hits combining into their root)
        // needs the complete ranking, so the cap only applies while no
        // roots are segmented.
        let limit = match self.result_limit {
            Some(k) if self.segmented.is_empty() => Some(k),
            _ => None,
        };
        let hits = retry::call(
            &self.retry,
            &self.breaker,
            &self.retry_stats,
            || match limit {
                Some(k) => self.irs.search_top_k(query, k),
                None => self.irs.search(query),
            },
        )?;
        let mut map = ResultMap::new();
        for hit in hits {
            let (oid_part, _segment) = match hit.key.split_once('#') {
                Some((o, s)) => (o, Some(s)),
                None => (hit.key.as_str(), None),
            };
            let Some(oid) = Oid::parse(oid_part) else {
                continue;
            };
            let entry = map.entry(oid).or_insert(0.0);
            if bounded {
                *entry = entry.max(hit.score);
            } else {
                *entry += hit.score;
            }
        }
        Ok(map)
    }

    // ------------------------------------------------------------------
    // Partitioned (scatter/gather) serving
    // ------------------------------------------------------------------

    /// This collection's corpus statistics for `query` — what a
    /// partition contributes to the router's global-statistics exchange
    /// (see [`irs::collect_globals`]). Unscatterable queries fail with a
    /// permanent parse-class error.
    pub fn query_globals(&self, query: &str) -> Result<irs::QueryGlobals> {
        CouplingCounters::bump(&self.stats.irs_calls);
        retry::call(&self.retry, &self.breaker, &self.retry_stats, || {
            self.irs.query_globals(query)
        })
    }

    /// Rank this collection's members for `query` under *supplied* merged
    /// corpus statistics, returning raw `(IRS key, score)` pairs in the
    /// top-k engine's selection order (score descending, ties by
    /// ascending key string). The router merges partition lists with the
    /// same comparator and only then folds keys into OIDs, so the merged
    /// ranking is bit-identical to single-node evaluation.
    ///
    /// Collections with segmented members refuse: segment hits must fold
    /// into their root *before* a top-k cut, which a partition cannot do
    /// locally without seeing its siblings' segments.
    pub fn get_irs_result_global(
        &self,
        query: &str,
        k: usize,
        globals: &irs::QueryGlobals,
    ) -> Result<Vec<(String, f64)>> {
        if !self.segmented.is_empty() {
            return Err(CouplingError::Irs(irs::IrsError::QueryParse {
                reason: "collection has segmented members; scattered top-k would \
                         cut segments before folding"
                    .to_string(),
                offset: 0,
            }));
        }
        CouplingCounters::bump(&self.stats.irs_calls);
        let hits = retry::call(&self.retry, &self.breaker, &self.retry_stats, || {
            self.irs.search_top_k_global(query, k, globals)
        })?;
        Ok(hits.into_iter().map(|h| (h.key, h.score)).collect())
    }

    // ------------------------------------------------------------------
    // findIRSValue / deriveIRSValue (paper Section 4.2, Figure 3)
    // ------------------------------------------------------------------

    /// The IRS value of `oid` for `query`. "If the object is represented
    /// in the IRS collection, the IRS directly calculates the value,
    /// otherwise deriveIRSValue is invoked."
    pub fn get_irs_value(&self, ctx: &MethodCtx<'_>, query: &str, oid: Oid) -> Result<f64> {
        if self.is_represented(oid) {
            let (result, _) = self.shared_result(query)?;
            Ok(result.get(&oid).copied().unwrap_or(0.0))
        } else {
            CouplingCounters::bump(&self.stats.derivations);
            Ok(self.derivation.derive(ctx, self, query, oid))
        }
    }

    // ------------------------------------------------------------------
    // Update methods (paper Section 4.2: "One out of three update
    // methods – for insertions, modifications and deletions – has to be
    // invoked whenever a relevant update occurs.")
    // ------------------------------------------------------------------

    /// Propagate an object insertion into the IRS collection.
    pub fn on_insert(&mut self, ctx: &MethodCtx<'_>, oid: Oid) -> Result<()> {
        self.index_one(ctx, oid)
    }

    /// Propagate a text modification. Directly represented objects are
    /// re-indexed; segmented roots are re-chunked (stale tail segments
    /// are deleted).
    pub fn on_modify(&mut self, ctx: &MethodCtx<'_>, oid: Oid) -> Result<()> {
        if self.represented.contains(&oid) {
            let text = self.text_mode.get_text(ctx, oid);
            let key = oid.to_string();
            retry::call(&self.retry, &self.breaker, &self.retry_stats, || {
                self.irs.update_document(&key, &text)
            })?;
            CouplingCounters::bump(&self.stats.indexed_objects);
        }
        if self.segmented.contains(&oid) {
            self.reindex_segmented(ctx, oid)?;
        }
        Ok(())
    }

    /// The represented objects whose IRS documents contain `oid`'s text:
    /// `oid` itself plus every represented ancestor (subtree text modes
    /// embed descendants' text, so a paragraph edit stales the enclosing
    /// section and document representations too).
    pub fn affected_by_text_change(&self, ctx: &MethodCtx<'_>, oid: Oid) -> Vec<Oid> {
        let mut out = Vec::new();
        let mut cur = Some(oid);
        while let Some(o) = cur {
            if self.is_represented(o) {
                out.push(o);
            }
            cur = ctx
                .store
                .get(o)
                .ok()
                .and_then(|obj| obj.attr("parent").as_oid());
        }
        out
    }

    /// Propagate an object deletion.
    pub fn on_delete(&mut self, oid: Oid) -> Result<()> {
        if self.represented.remove(&oid) {
            let key = oid.to_string();
            let deleted = retry::call(&self.retry, &self.breaker, &self.retry_stats, || {
                self.irs.delete_document(&key)
            });
            if let Err(e) = deleted {
                // Keep the coupling's view consistent with the IRS: the
                // document is still indexed, so the object stays
                // represented.
                self.represented.insert(oid);
                return Err(e);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Fault tolerance
    // ------------------------------------------------------------------

    /// Attach (or detach, with `None`) a deterministic fault-injection
    /// plan to the underlying IRS collection. Every subsequent IRS call
    /// consults the plan; see [`irs::FaultPlan`].
    pub fn inject_faults(&mut self, plan: Option<Arc<FaultPlan>>) {
        self.irs.set_fault_plan(plan);
    }

    /// Freeze (or thaw) the underlying IRS collection. A read replica
    /// freezes every collection after loading a saved system, so stray
    /// write requests fail with [`irs::IrsError::ReadOnly`] instead of
    /// silently forking the replica's index from its primary.
    pub fn set_read_only(&mut self, read_only: bool) {
        self.irs.set_read_only(read_only);
    }

    /// True while the underlying IRS collection refuses mutation.
    pub fn is_read_only(&self) -> bool {
        self.irs.is_read_only()
    }

    /// Fault-tolerance counters: retries, give-ups, breaker activity and
    /// stale serves.
    pub fn fault_stats(&self) -> FaultStats {
        let breaker = self.breaker.stats();
        FaultStats {
            retries: self.retry_stats.retries(),
            giveups: self.retry_stats.giveups(),
            breaker_opens: breaker.opens,
            breaker_rejections: breaker.rejections,
            stale_serves: self.buffer.stats().stale_hits,
        }
    }
}

impl IrsAccess for Collection {
    fn is_represented(&self, oid: Oid) -> bool {
        Collection::is_represented(self, oid)
    }

    fn value_of(&self, _ctx: &MethodCtx<'_>, query: &str, oid: Oid) -> f64 {
        match self.shared_result(query) {
            Ok((map, _)) => map.get(&oid).copied().unwrap_or(0.0),
            Err(_) => 0.0,
        }
    }

    fn default_score(&self) -> f64 {
        self.irs.config().model.as_model().default_score()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb::{Database, Value};
    use sgml::{load_document, parse_document};

    fn db_with_docs() -> (Database, Vec<sgml::LoadedDoc>) {
        let mut db = Database::in_memory();
        db.define_class("IRSObject", None).unwrap();
        let docs = [
            "<MMFDOC><DOCTITLE>Telnet</DOCTITLE><PARA>telnet is a protocol</PARA>\
             <PARA>telnet enables remote login</PARA></MMFDOC>",
            "<MMFDOC><DOCTITLE>Web</DOCTITLE><PARA>the www connects documents</PARA>\
             <PARA>the nii is an information highway</PARA></MMFDOC>",
        ];
        let mut loaded = Vec::new();
        for d in docs {
            let tree = parse_document(d).unwrap();
            let mut txn = db.begin();
            loaded.push(load_document(&mut db, &mut txn, &tree, "IRSObject").unwrap());
            db.commit(txn).unwrap();
        }
        (db, loaded)
    }

    #[test]
    fn index_objects_via_spec_query() {
        let (db, _) = db_with_docs();
        let mut coll = Collection::new("collPara", CollectionSetup::default());
        let n = coll.index_objects(&db, "ACCESS p FROM p IN PARA").unwrap();
        assert_eq!(n, 4);
        assert_eq!(coll.len(), 4);
        assert_eq!(coll.spec_query(), Some("ACCESS p FROM p IN PARA"));
        assert_eq!(coll.stats().indexed_objects, 4);
    }

    #[test]
    fn bad_spec_query_rejected() {
        let (db, _) = db_with_docs();
        let mut coll = Collection::new("c", CollectionSetup::default());
        // Returns strings, not objects.
        let err = coll.index_objects(&db, "ACCESS p -> getAttributeValue('text') FROM p IN PARA");
        assert!(matches!(err, Err(CouplingError::BadSpecQuery(_))));
        assert!(matches!(
            coll.index_objects(&db, "ACCESS FROM"),
            Err(CouplingError::Db(_))
        ));
    }

    #[test]
    fn get_irs_result_maps_oids() {
        let (db, loaded) = db_with_docs();
        let mut coll = Collection::new("c", CollectionSetup::default());
        coll.index_objects(&db, "ACCESS p FROM p IN PARA").unwrap();
        let result = coll.get_irs_result("telnet").unwrap();
        assert_eq!(result.len(), 2, "both telnet paragraphs match");
        // All hits belong to the first document's paragraphs.
        for oid in result.keys() {
            assert!(loaded[0].elements.iter().any(|(_, o)| o == oid));
        }
    }

    #[test]
    fn buffering_avoids_repeat_irs_calls() {
        let (db, _) = db_with_docs();
        let mut coll = Collection::new("c", CollectionSetup::default());
        coll.index_objects(&db, "ACCESS p FROM p IN PARA").unwrap();
        coll.get_irs_result("telnet").unwrap();
        coll.get_irs_result("telnet").unwrap();
        coll.get_irs_result("telnet").unwrap();
        assert_eq!(coll.stats().irs_calls, 1, "one miss, two hits");
        assert_eq!(coll.buffer_stats().hits, 2);
    }

    #[test]
    fn represented_value_vs_derived_value() {
        let (db, loaded) = db_with_docs();
        let mut coll = Collection::new("c", CollectionSetup::default());
        coll.index_objects(&db, "ACCESS p FROM p IN PARA").unwrap();
        let ctx = db.method_ctx();
        // A paragraph is represented → direct value.
        let para = loaded[0]
            .elements
            .iter()
            .find(|(_, o)| coll.is_represented(*o))
            .unwrap()
            .1;
        let v = coll.get_irs_value(&ctx, "telnet", para).unwrap();
        assert!(v > 0.0);
        assert_eq!(coll.stats().derivations, 0);
        // The document root is NOT represented → derivation kicks in.
        let root = loaded[0].root;
        assert!(!coll.is_represented(root));
        let dv = coll.get_irs_value(&ctx, "telnet", root).unwrap();
        assert!(dv > 0.0, "derived from paragraph values");
        assert_eq!(coll.stats().derivations, 1);
    }

    #[test]
    fn update_methods_keep_irs_in_sync() {
        let (mut db, loaded) = db_with_docs();
        let mut coll = Collection::new("c", CollectionSetup::default());
        coll.index_objects(&db, "ACCESS p FROM p IN PARA").unwrap();
        let para = loaded[0].elements[2].1; // second PARA? index 0 is MMFDOC
                                            // Modify its text in the database, then propagate.
        let mut txn = db.begin();
        db.set_attr(
            &mut txn,
            para,
            "text",
            Value::from("gopher menus everywhere"),
        )
        .unwrap();
        db.commit(txn).unwrap();
        let ctx = db.method_ctx();
        coll.on_modify(&ctx, para).unwrap();
        let gopher = coll.get_irs_result("gopher").unwrap();
        assert_eq!(gopher.len(), 1);
        // Delete it.
        coll.on_delete(para).unwrap();
        assert!(coll.get_irs_result("gopher").unwrap().is_empty());
        // Deleting an unrepresented object is a no-op.
        coll.on_delete(Oid(99999)).unwrap();
    }

    #[test]
    fn updates_invalidate_the_buffer() {
        let (db, loaded) = db_with_docs();
        let mut coll = Collection::new("c", CollectionSetup::default());
        coll.index_objects(&db, "ACCESS p FROM p IN PARA").unwrap();
        coll.get_irs_result("telnet").unwrap();
        let epoch_before = coll.irs().epoch();
        // elements[2] is the first PARA (0 = MMFDOC, 1 = DOCTITLE).
        coll.on_delete(loaded[0].elements[2].1).unwrap();
        assert_ne!(coll.irs().epoch(), epoch_before);
        // Next query is a miss again.
        let calls_before = coll.stats().irs_calls;
        coll.get_irs_result("telnet").unwrap();
        assert_eq!(coll.stats().irs_calls, calls_before + 1);
    }

    /// An `indexObjects` whose first IRS update lands and whose second
    /// fails still changes the IRS content, so the buffered answer from
    /// before it must not be served as valid.
    #[test]
    fn a_partly_applied_update_never_leaves_a_buffered_answer_valid() {
        let (mut db, loaded) = db_with_docs();
        let mut coll = Collection::new("c", CollectionSetup::default());
        coll.index_objects(&db, "ACCESS p FROM p IN PARA").unwrap();
        assert_eq!(coll.get_irs_result("telnet").unwrap().len(), 2);
        // elements[2] and [3] are the two telnet paragraphs.
        let mut txn = db.begin();
        for (_, para) in &loaded[0].elements[2..4] {
            db.set_attr(&mut txn, *para, "text", Value::from("gopher menus"))
                .unwrap();
        }
        db.commit(txn).unwrap();
        // The first IRS update succeeds, every later one fails.
        coll.inject_faults(Some(Arc::new(FaultPlan::new(7).with_outage(1, 1_000_000))));
        assert!(coll.index_objects(&db, "ACCESS p FROM p IN PARA").is_err());
        coll.inject_faults(None);
        let (map, origin) = coll.get_irs_result_with_origin("telnet").unwrap();
        assert_eq!(origin, ResultOrigin::Fresh);
        let irs: ResultMap = coll
            .irs()
            .search("telnet")
            .unwrap()
            .into_iter()
            .map(|h| (Oid::parse(&h.key).unwrap(), h.score))
            .collect();
        assert_eq!(irs.len(), 1, "one telnet paragraph was rewritten");
        assert_eq!(map, irs);
    }

    #[test]
    fn value_lookups_share_the_buffered_map() {
        let (db, _) = db_with_docs();
        let mut coll = Collection::new("c", CollectionSetup::default());
        coll.index_objects(&db, "ACCESS p FROM p IN PARA").unwrap();
        let (first, origin) = coll.shared_result("telnet").unwrap();
        assert_eq!(origin, ResultOrigin::Fresh);
        let (second, origin) = coll.shared_result("telnet").unwrap();
        assert_eq!(origin, ResultOrigin::Buffered);
        assert!(Arc::ptr_eq(&first, &second), "no copy per lookup");
    }

    #[test]
    fn segment_indexing_folds_hits_to_roots() {
        let (db, loaded) = db_with_docs();
        let mut coll = Collection::new("seg", CollectionSetup::default());
        let roots: Vec<Oid> = loaded.iter().map(|l| l.root).collect();
        let segments = coll.index_segments(&db, &roots, 4).unwrap();
        assert!(segments >= 2, "documents split into multiple segments");
        let result = coll.get_irs_result("telnet").unwrap();
        assert_eq!(result.len(), 1);
        assert!(result.contains_key(&roots[0]));
        assert!(coll.is_represented(roots[0]));
    }

    #[test]
    fn passages_overlap_and_fold_to_best_passage() {
        let (db, loaded) = db_with_docs();
        let mut coll = Collection::new("pass", CollectionSetup::default());
        let roots: Vec<Oid> = loaded.iter().map(|l| l.root).collect();
        // Window 6, stride 3 → consecutive passages share 3 tokens.
        let n = coll.index_passages(&db, &roots, 6, 3).unwrap();
        assert!(
            n > roots.len(),
            "overlap yields more passages than documents"
        );
        let result = coll.get_irs_result("telnet").unwrap();
        assert_eq!(result.len(), 1);
        let (oid, score) = result.iter().next().unwrap();
        assert_eq!(*oid, roots[0]);
        assert!(
            (0.0..=1.0).contains(score),
            "best-passage score is a belief"
        );
        assert!(coll.is_represented(roots[0]));
    }

    #[test]
    fn passage_stride_larger_than_window_is_clamped() {
        let (db, loaded) = db_with_docs();
        let mut coll = Collection::new("pass", CollectionSetup::default());
        let roots = vec![loaded[0].root];
        // stride > window would skip text; the API clamps it to window.
        let n_clamped = coll.index_passages(&db, &roots, 4, 100).unwrap();
        let mut coll2 = Collection::new("seg", CollectionSetup::default());
        let n_exact = coll2.index_segments(&db, &roots, 4).unwrap();
        assert_eq!(n_clamped, n_exact, "clamped passages tile like segments");
    }

    #[test]
    fn transient_faults_are_retried_transparently() {
        let (db, _) = db_with_docs();
        let mut coll = Collection::new("c", CollectionSetup::default());
        coll.index_objects(&db, "ACCESS p FROM p IN PARA").unwrap();
        // The first IRS operation after injection fails; its retry lands
        // outside the outage window and succeeds.
        coll.inject_faults(Some(Arc::new(FaultPlan::new(5).with_outage(0, 1))));
        let map = coll.get_irs_result("telnet").unwrap();
        assert_eq!(map.len(), 2, "retry recovered the answer");
        let fs = coll.fault_stats();
        assert_eq!(fs.retries, 1);
        assert_eq!(fs.giveups, 0);
        assert_eq!(fs.stale_serves, 0);
    }

    #[test]
    fn irs_down_serves_stale_results_and_recovers() {
        let (db, _) = db_with_docs();
        let mut coll = Collection::new("c", CollectionSetup::default());
        coll.index_objects(&db, "ACCESS p FROM p IN PARA").unwrap();
        let fresh = coll.get_irs_result("telnet").unwrap();
        // Invalidate (as an update would), then take the IRS down.
        coll.buffer().invalidate_all();
        let plan = Arc::new(FaultPlan::new(3));
        plan.set_down(true);
        coll.inject_faults(Some(plan.clone()));
        // Degraded serving: the invalidated entry answers, marked stale.
        let (stale, origin) = coll.get_irs_result_with_origin("telnet").unwrap();
        assert_eq!(origin, ResultOrigin::Stale);
        assert_eq!(stale, fresh);
        let fs = coll.fault_stats();
        assert!(fs.stale_serves >= 1);
        assert!(fs.giveups >= 1);
        // A query never buffered has nothing stale to serve.
        assert!(coll.get_irs_result("www").unwrap_err().is_transient());
        // Recovery: IRS back up; wait out the breaker cooldown.
        plan.set_down(false);
        std::thread::sleep(std::time::Duration::from_millis(60));
        let (map, origin) = coll.get_irs_result_with_origin("telnet").unwrap();
        assert_eq!(origin, ResultOrigin::Fresh);
        assert_eq!(map, fresh);
        // And the fresh answer is buffered again.
        let (_, origin) = coll.get_irs_result_with_origin("telnet").unwrap();
        assert_eq!(origin, ResultOrigin::Buffered);
    }

    #[test]
    fn breaker_short_circuits_a_down_irs() {
        let (db, _) = db_with_docs();
        let mut coll = Collection::new("c", CollectionSetup::default());
        coll.index_objects(&db, "ACCESS p FROM p IN PARA").unwrap();
        let plan = Arc::new(FaultPlan::new(11));
        plan.set_down(true);
        coll.inject_faults(Some(plan.clone()));
        // Hammer a down IRS: after the failure threshold the breaker
        // opens and later calls never reach the IRS.
        for _ in 0..10 {
            let _ = coll.get_irs_result("telnet");
        }
        let fs = coll.fault_stats();
        assert!(fs.breaker_opens >= 1, "breaker tripped");
        assert!(fs.breaker_rejections >= 1, "calls rejected while open");
        let ops_with_breaker = plan.ops_seen();
        assert!(
            ops_with_breaker < 30,
            "breaker kept most calls off the IRS (saw {ops_with_breaker})"
        );
    }

    #[test]
    fn reindex_same_object_updates() {
        let (db, _) = db_with_docs();
        let mut coll = Collection::new("c", CollectionSetup::default());
        coll.index_objects(&db, "ACCESS p FROM p IN PARA").unwrap();
        // Second indexObjects run with the same spec query must not fail.
        let n = coll.index_objects(&db, "ACCESS p FROM p IN PARA").unwrap();
        assert_eq!(n, 4);
        assert_eq!(coll.len(), 4);
    }

    #[test]
    fn result_limit_keeps_the_best_scoring_objects() {
        let (db, _) = db_with_docs();
        let mut full = Collection::new("full", CollectionSetup::default());
        full.index_objects(&db, "ACCESS p FROM p IN PARA").unwrap();
        let mut limited = Collection::new("lim", CollectionSetup::default().with_result_limit(1));
        limited
            .index_objects(&db, "ACCESS p FROM p IN PARA")
            .unwrap();
        assert_eq!(limited.result_limit(), Some(1));

        let all = full.get_irs_result("telnet").unwrap();
        assert_eq!(all.len(), 2);
        let top = limited.get_irs_result("telnet").unwrap();
        assert_eq!(top.len(), 1, "ranking capped at one object");
        let (oid, score) = top.iter().next().unwrap();
        let best = all.values().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        assert_eq!(all.get(oid), Some(score), "same score as the full ranking");
        assert_eq!(*score, best, "the survivor is the best-scoring object");
    }

    #[test]
    fn set_result_limit_invalidates_buffered_answers() {
        let (db, _) = db_with_docs();
        let mut coll = Collection::new("c", CollectionSetup::default());
        coll.index_objects(&db, "ACCESS p FROM p IN PARA").unwrap();
        assert_eq!(coll.get_irs_result("telnet").unwrap().len(), 2);
        coll.set_result_limit(Some(1));
        // Without invalidation this would replay the buffered 2-hit map.
        assert_eq!(coll.get_irs_result("telnet").unwrap().len(), 1);
        coll.set_result_limit(None);
        assert_eq!(coll.get_irs_result("telnet").unwrap().len(), 2);
    }

    #[test]
    fn result_limit_is_ignored_for_segmented_collections() {
        let (db, loaded) = db_with_docs();
        let roots: Vec<Oid> = loaded.iter().map(|l| l.root).collect();
        let mut plain = Collection::new("plain", CollectionSetup::default());
        plain.index_segments(&db, &roots, 3).unwrap();
        let mut limited = Collection::new("lim", CollectionSetup::default().with_result_limit(1));
        limited.index_segments(&db, &roots, 3).unwrap();
        // Segment-key folding needs the complete hit list, so the limit
        // must not truncate what each root's value folds over.
        assert_eq!(
            limited.get_irs_result("telnet").unwrap(),
            plain.get_irs_result("telnet").unwrap(),
        );
    }
}
