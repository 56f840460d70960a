//! Remote IRS replicas: hedged reads, failover, and stale fallback.
//!
//! The paper's loose coupling (Figure 1, alternative 3) treats the IRS as
//! an external, independently failing component. [`crate::retry`] models
//! that failure *in process*; this module moves the IRS behind a real
//! process boundary: reads fan out across N **replicas** — identical
//! read-only copies of the IRS index — through a pluggable
//! [`ReplicaTransport`]. The engine is transport-agnostic: the `serve`
//! crate supplies a TCP transport over the framed wire protocol, and unit
//! tests here use in-process fakes.
//!
//! The read path composes four defences, applied in order:
//!
//! 1. **Hedged requests** — each read is first sent to the
//!    healthiest-looking replica; if no reply arrives within
//!    [`RemoteConfig::hedge_delay`], a *hedge* is launched to the next
//!    replica and whichever answers first wins. Hedging bounds tail
//!    latency: a stalled replica costs `hedge_delay`, not a full timeout.
//! 2. **Fast failover** — a replica that fails *quickly* (connection
//!    refused, reset) triggers an immediate launch to the next candidate
//!    without waiting for the hedge timer.
//! 3. **Per-replica circuit breakers and latency ranking** — replicas
//!    that keep failing trip a [`CircuitBreaker`] and are skipped when
//!    ranking candidates; replicas that merely stall (black holes) are
//!    charged a latency penalty when their attempt is abandoned, so
//!    they lose the primary slot and stop costing a hedge delay on
//!    every request. [`RemoteIrs::probe`] doubles as the breaker's
//!    half-open trial.
//! 4. **Stale fallback** — when every attempt fails, the last
//!    successfully fetched result for the same `(collection, query)` is
//!    served with [`ResultOrigin::Stale`], completing the paper's
//!    fallback ladder *fresh → buffered → stale*.
//!
//! Every launch is gated by the replica's breaker and accounted in
//! [`RemoteStats`]; tests assert on those counters to prove hedges fire
//! and breakers open when the fault plan says they must.
//!
//! # Threads
//!
//! Attempts run on the replica set's cached pool of attempt threads
//! (`coupling::pool`): an idle worker takes the next attempt, and a
//! thread is spawned only when none is idle, so a stalled attempt never
//! delays a hedge. The read itself waits on the calling thread: the
//! hedging policy is a per-read state machine (`Hedged`) that starts
//! the primary, handles each attempt's outcome and names its next timer
//! (hedge, backoff, deadline). One loop (`run_hedged`) drives any
//! number of such reads over one channel, so a partitioned router waits
//! on all of its partitions from the caller's thread, and a plain read
//! is the same loop with one read. A warm replica set creates no thread
//! per read ([`RemoteStats::threads_spawned`]).
//!
//! # Determinism and time
//!
//! Backoff between retry rounds uses [`RetryPolicy::backoff_for`]'s
//! seeded jitter, so a fixed configuration yields a reproducible sleep
//! schedule. Wall-clock outcomes (which replica wins a hedge race) are
//! inherently racy; tests therefore assert on *invariants* (a hedge
//! fired; the result is correct; latency stayed under the bound), not on
//! which replica won.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use irs::analysis::AnalyzerConfig;
use irs::QueryGlobals;
use oodb::Oid;

use crate::collection::ResultOrigin;
use crate::error::{CouplingError, ErrorKind, Result};
use crate::pool::AttemptPool;
use crate::retry::{BreakerConfig, BreakerStats, CircuitBreaker, RetryPolicy};
use crate::stale::StaleStore;

/// One partition's answer to the statistics leg of scatter/gather,
/// stamped with the content it was read from.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsReply {
    /// The partition's corpus statistics for the query.
    pub globals: QueryGlobals,
    /// The replica's content epoch ([`irs::IrsCollection::epoch`]):
    /// equal epochs mean equal statistics, and every write mints a new
    /// one.
    pub epoch: u64,
    /// The analyzer the replica compiles queries with.
    pub analyzer: AnalyzerConfig,
}

/// One partition's answer to the search leg of scatter/gather.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyedReply {
    /// Raw `(IRS key, score)` pairs in the top-k engine's selection
    /// order.
    pub hits: Vec<(String, f64)>,
    /// The content epoch the hits were ranked under.
    pub epoch: u64,
}

/// A connection to one IRS replica.
///
/// Implementations must bound their own blocking time (connect/read
/// timeouts): the hedging engine abandons attempts that outlive the
/// request deadline, but an abandoned call still occupies its thread
/// until the transport itself gives up.
pub trait ReplicaTransport: Send + Sync + 'static {
    /// Ranked retrieval on the replica: top-k `(oid, score)` pairs in
    /// descending score order, plus the origin the *replica* reports
    /// (a replica may itself serve buffered results).
    fn search(&self, collection: &str, query: &str) -> Result<(Vec<(Oid, f64)>, ResultOrigin)>;

    /// The paper's `getIRSValue`: the relevance of one object for a
    /// query, `0.0` when the object does not match.
    fn value(&self, collection: &str, query: &str, oid: Oid) -> Result<f64>;

    /// Cheap liveness probe (wire round-trip, no IRS work).
    fn ping(&self) -> Result<()>;

    /// The replica's corpus statistics for `query` — one partition's leg
    /// of the scatter/gather global-statistics exchange
    /// ([`crate::partition::PartitionedIrs`]). The default errors
    /// permanently: transports predating partitioned serving simply do
    /// not participate, and the error must not trigger failover.
    fn term_stats(&self, collection: &str, query: &str) -> Result<StatsReply> {
        let _ = (collection, query);
        Err(CouplingError::Remote {
            kind: ErrorKind::Other,
            message: "transport does not support the term-stats exchange".into(),
        })
    }

    /// Ranked retrieval under *supplied* merged corpus statistics,
    /// returning raw `(IRS key, score)` pairs in the top-k engine's
    /// selection order so the router can merge bit-identically. Defaults
    /// to a permanent error like [`ReplicaTransport::term_stats`].
    fn search_global(
        &self,
        collection: &str,
        query: &str,
        k: usize,
        globals: &QueryGlobals,
    ) -> Result<KeyedReply> {
        let _ = (collection, query, k, globals);
        Err(CouplingError::Remote {
            kind: ErrorKind::Other,
            message: "transport does not support globally-scored search".into(),
        })
    }
}

/// Tuning for the hedged fan-out. Defaults suit loopback tests; a real
/// deployment would scale the delays up with network RTT.
#[derive(Debug, Clone)]
pub struct RemoteConfig {
    /// How long to wait for the first reply before launching a hedge to
    /// the next-ranked replica.
    pub hedge_delay: Duration,
    /// Budget an individual attempt gets after launch. The total wait
    /// for one read is bounded by `hedge_delay + attempt_timeout`.
    pub attempt_timeout: Duration,
    /// Total launches (primary + hedge + failovers, across backoff
    /// rounds) before the engine gives up and falls back to stale.
    pub max_attempts: u32,
    /// Backoff schedule between failover rounds once every replica has
    /// been tried; jitter is seeded, hence deterministic.
    pub retry: RetryPolicy,
    /// Breaker configuration applied to each replica independently.
    pub breaker: BreakerConfig,
    /// Entries kept in the stale-result store (the least recently
    /// *refreshed* key evicts first; re-putting a key renews its slot).
    pub stale_capacity: usize,
}

impl Default for RemoteConfig {
    fn default() -> Self {
        RemoteConfig {
            hedge_delay: Duration::from_millis(30),
            attempt_timeout: Duration::from_millis(500),
            max_attempts: 4,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            stale_capacity: 256,
        }
    }
}

/// Counter snapshot of the fan-out engine (see [`RemoteIrs::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteStats {
    /// Logical read requests (search + value) accepted by the engine.
    pub requests: u64,
    /// Hedge launches fired because the hedge delay expired.
    pub hedges_fired: u64,
    /// Requests won by a launch other than the primary (hedge or
    /// failover finished first).
    pub hedge_wins: u64,
    /// Launches fired because an earlier attempt failed fast.
    pub failovers: u64,
    /// Candidate launches skipped because the replica's breaker was open.
    pub breaker_skips: u64,
    /// Requests answered from the stale store after all attempts failed.
    pub stale_serves: u64,
    /// Requests that failed outright — all attempts failed and no stale
    /// entry existed.
    pub exhausted: u64,
    /// Attempt threads started; attempts beyond these ran on reused
    /// workers.
    pub threads_spawned: u64,
}

/// Health snapshot of one replica (see [`RemoteIrs::health`]).
#[derive(Debug, Clone)]
pub struct ReplicaHealth {
    /// The label the replica was registered under.
    pub label: String,
    /// Exponentially weighted moving average of successful-attempt
    /// latency, in microseconds (`0` until the first success).
    pub ewma_us: u64,
    /// Attempts this replica answered first with a success.
    pub wins: u64,
    /// Failed or abandoned attempts charged to this replica.
    pub failures: u64,
    /// Its circuit breaker's counters and current state.
    pub breaker: BreakerStats,
}

struct Replica<T> {
    label: String,
    transport: T,
    breaker: CircuitBreaker,
    ewma_us: AtomicU64,
    wins: AtomicU64,
    failures: AtomicU64,
}

/// One EWMA step, `(old·7 + sample·3) / 10`, computed in `u128` so
/// `u64::MAX`-scale samples (a multi-hour stall measured in µs after a
/// clock step, or a hostile transport) cannot overflow. The result is a
/// weighted mean of two `u64`s, so it always fits back into `u64`.
fn ewma_blend(old: u64, sample: u64) -> u64 {
    if old == 0 {
        sample.max(1)
    } else {
        ((u128::from(old) * 7 + u128::from(sample) * 3) / 10) as u64
    }
}

impl<T> Replica<T> {
    /// Fold one latency sample into the ranking EWMA. Racy
    /// read-modify-write is fine: the EWMA is a ranking hint.
    fn charge_latency(&self, latency: Duration) {
        let sample = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        let old = self.ewma_us.load(Ordering::Relaxed);
        self.ewma_us
            .store(ewma_blend(old, sample).max(1), Ordering::Relaxed);
    }

    fn record_success(&self, latency: Duration) {
        self.wins.fetch_add(1, Ordering::Relaxed);
        self.charge_latency(latency);
    }

    fn record_failure(&self) {
        self.failures.fetch_add(1, Ordering::Relaxed);
        self.breaker.on_failure();
    }

    /// The request finished while this replica's attempt was still in
    /// the air. Not a breaker failure (a merely-slow replica must not
    /// trip open), but the elapsed time is a truthful lower bound on
    /// its latency — feeding it to the EWMA demotes the replica from
    /// the primary slot so later requests stop paying the hedge delay.
    fn record_abandon(&self, elapsed: Duration) {
        self.charge_latency(elapsed);
    }
}

/// Why a launch happened — kept so the stats can distinguish a hedge win
/// from a plain failover.
#[derive(Clone, Copy, PartialEq, Eq)]
enum LaunchKind {
    Primary,
    Hedge,
    Failover,
}

/// One attempt's result, tagged with the read (`slot`) it belongs to.
struct Outcome<R> {
    slot: usize,
    replica: usize,
    kind: LaunchKind,
    latency: Duration,
    result: Result<R>,
}

/// The call an attempt makes on a replica's transport.
pub(crate) type AttemptOp<T, R> = Arc<dyn Fn(&T) -> Result<R> + Send + Sync>;

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    hedges_fired: AtomicU64,
    hedge_wins: AtomicU64,
    failovers: AtomicU64,
    breaker_skips: AtomicU64,
    stale_serves: AtomicU64,
    exhausted: AtomicU64,
}

/// Client-side fan-out over N IRS replicas with hedged reads, failover,
/// per-replica circuit breakers, and stale fallback (module docs have
/// the full policy).
pub struct RemoteIrs<T> {
    replicas: Vec<Arc<Replica<T>>>,
    config: RemoteConfig,
    counters: Counters,
    stale: StaleStore,
    pool: AttemptPool,
}

impl<T: ReplicaTransport> RemoteIrs<T> {
    /// Build a fan-out over `replicas` (label + transport each). The
    /// order given is the tiebreak order while no latency data exists.
    pub fn new(replicas: Vec<(String, T)>, config: RemoteConfig) -> Self {
        let stale = StaleStore::new(config.stale_capacity);
        RemoteIrs {
            replicas: replicas
                .into_iter()
                .map(|(label, transport)| {
                    Arc::new(Replica {
                        label,
                        transport,
                        breaker: CircuitBreaker::new(config.breaker.clone()),
                        ewma_us: AtomicU64::new(0),
                        wins: AtomicU64::new(0),
                        failures: AtomicU64::new(0),
                    })
                })
                .collect(),
            config,
            counters: Counters::default(),
            stale,
            pool: AttemptPool::default(),
        }
    }

    /// Entries currently held by the stale-result store.
    pub fn stale_len(&self) -> usize {
        self.stale.len()
    }

    /// Counter snapshot (monotonic since construction).
    pub fn stats(&self) -> RemoteStats {
        RemoteStats {
            requests: self.counters.requests.load(Ordering::Relaxed),
            hedges_fired: self.counters.hedges_fired.load(Ordering::Relaxed),
            hedge_wins: self.counters.hedge_wins.load(Ordering::Relaxed),
            failovers: self.counters.failovers.load(Ordering::Relaxed),
            breaker_skips: self.counters.breaker_skips.load(Ordering::Relaxed),
            stale_serves: self.counters.stale_serves.load(Ordering::Relaxed),
            exhausted: self.counters.exhausted.load(Ordering::Relaxed),
            threads_spawned: self.pool.spawned(),
        }
    }

    /// Per-replica health snapshots, in registration order.
    pub fn health(&self) -> Vec<ReplicaHealth> {
        self.replicas
            .iter()
            .map(|r| ReplicaHealth {
                label: r.label.clone(),
                ewma_us: r.ewma_us.load(Ordering::Relaxed),
                wins: r.wins.load(Ordering::Relaxed),
                failures: r.failures.load(Ordering::Relaxed),
                breaker: r.breaker.stats(),
            })
            .collect()
    }

    /// Ping every replica whose breaker admits a call, updating breaker
    /// state from the outcome. This *is* the breaker's half-open trial
    /// for remote replicas: a recovered replica's first successful probe
    /// closes its breaker, restoring it to the candidate ranking.
    /// Returns `(label, reachable)` per replica; a replica skipped by an
    /// open breaker reports `false`.
    pub fn probe(&self) -> Vec<(String, bool)> {
        self.replicas
            .iter()
            .map(|r| {
                let ok = match r.breaker.try_acquire() {
                    Err(_) => false,
                    Ok(()) => match r.transport.ping() {
                        Ok(()) => {
                            r.breaker.on_success();
                            true
                        }
                        Err(_) => {
                            r.record_failure();
                            false
                        }
                    },
                };
                (r.label.clone(), ok)
            })
            .collect()
    }

    /// Hedged ranked retrieval. On success the result refreshes the
    /// stale store; once every attempt has failed, a stored result for
    /// the same `(collection, query)` is served as
    /// [`ResultOrigin::Stale`].
    pub fn search_top_k(
        &self,
        collection: &str,
        query: &str,
    ) -> Result<(Vec<(Oid, f64)>, ResultOrigin)> {
        let (c, q) = (collection.to_string(), query.to_string());
        let outcome = self.hedged(Arc::new(move |t: &T| t.search(&c, &q)));
        match outcome {
            Ok((hits, origin)) => {
                self.stale.put(collection, query, hits.clone());
                Ok((hits, origin))
            }
            Err(e) if e.is_transient() => match self.stale.get(collection, query) {
                Some(hits) => {
                    self.counters.stale_serves.fetch_add(1, Ordering::Relaxed);
                    Ok((hits, ResultOrigin::Stale))
                }
                None => {
                    self.counters.exhausted.fetch_add(1, Ordering::Relaxed);
                    Err(e)
                }
            },
            Err(e) => Err(e),
        }
    }

    /// Hedged `getIRSValue`. The stale fallback reuses the search store:
    /// a stored result for the same `(collection, query)` yields the
    /// object's stored score (or `0.0` when it did not match, mirroring
    /// the live semantics).
    pub fn get_irs_value(
        &self,
        collection: &str,
        query: &str,
        oid: Oid,
    ) -> Result<(f64, ResultOrigin)> {
        let (c, q) = (collection.to_string(), query.to_string());
        let outcome = self.hedged(Arc::new(move |t: &T| {
            t.value(&c, &q, oid).map(|v| (v, ResultOrigin::Fresh))
        }));
        match outcome {
            Ok(v) => Ok(v),
            Err(e) if e.is_transient() => match self.stale.get(collection, query) {
                Some(hits) => {
                    self.counters.stale_serves.fetch_add(1, Ordering::Relaxed);
                    let v = hits
                        .iter()
                        .find(|(o, _)| *o == oid)
                        .map(|(_, s)| *s)
                        .unwrap_or(0.0);
                    Ok((v, ResultOrigin::Stale))
                }
                None => {
                    self.counters.exhausted.fetch_add(1, Ordering::Relaxed);
                    Err(e)
                }
            },
            Err(e) => Err(e),
        }
    }

    /// Hedged term-statistics exchange: this replica group's (= this
    /// partition's) corpus statistics for `query`. No stale fallback —
    /// a router merging partition statistics must never mix a stale
    /// partition's counts into fresh ones, so degradation is handled at
    /// the merged-result level ([`crate::partition::PartitionedIrs`])
    /// instead.
    pub fn term_stats(&self, collection: &str, query: &str) -> Result<QueryGlobals> {
        self.hedged(stats_op(collection, query))
            .map(|reply| reply.globals)
    }

    /// Hedged globally-scored ranked retrieval (the gather leg of
    /// scatter/gather): top-`k` raw `(IRS key, score)` pairs of this
    /// partition under the supplied merged statistics. Like
    /// [`RemoteIrs::term_stats`], no per-group stale fallback.
    pub fn search_global(
        &self,
        collection: &str,
        query: &str,
        k: usize,
        globals: &QueryGlobals,
    ) -> Result<Vec<(String, f64)>> {
        self.hedged(search_op(collection, query, k, globals.clone()))
            .map(|reply| reply.hits)
    }

    /// Candidate order for the next round: breaker-closed replicas
    /// first, then by EWMA latency ascending (unmeasured replicas sort
    /// first so newcomers get traffic), registration order as tiebreak.
    fn ranked(&self) -> VecDeque<usize> {
        let mut order: Vec<usize> = (0..self.replicas.len()).collect();
        order.sort_by_key(|&i| {
            let r = &self.replicas[i];
            let open = r.breaker.stats().open_now;
            (open, r.ewma_us.load(Ordering::Relaxed), i)
        });
        order.into()
    }

    /// One hedged read on this replica set, driven to completion on the
    /// calling thread.
    fn hedged<R: Send + 'static>(&self, op: AttemptOp<T, R>) -> Result<R> {
        run_hedged([(self, op)])
            .pop()
            .expect("one read, one result")
    }

    /// Start a hedged read: count it and launch the primary. `Err` when
    /// it is over before it began (no replicas, every breaker open).
    fn begin<R: Send + 'static>(
        &self,
        slot: usize,
        op: AttemptOp<T, R>,
        tx: mpsc::Sender<Outcome<R>>,
    ) -> Result<Hedged<'_, T, R>> {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        if self.replicas.is_empty() {
            return Err(CouplingError::Remote {
                kind: ErrorKind::IrsDown,
                message: "no replicas configured".into(),
            });
        }
        let started = Instant::now();
        let mut read = Hedged {
            remote: self,
            slot,
            op,
            tx,
            started,
            deadline: started + self.config.hedge_delay + self.config.attempt_timeout,
            hedge_due: Some(started + self.config.hedge_delay),
            resume_at: None,
            queue: self.ranked(),
            launches: 0,
            in_flight: 0,
            outstanding: Vec::new(),
            round: 0,
            last_err: None,
        };
        if !read.launch(LaunchKind::Primary) {
            // Every replica's breaker is open: fail fast, stale fallback
            // (in the caller) is the only remaining defence.
            return Err(CouplingError::Remote {
                kind: ErrorKind::IrsDown,
                message: "all replica circuit breakers open".into(),
            });
        }
        Ok(read)
    }
}

/// The statistics-leg call, owning its arguments.
pub(crate) fn stats_op<T: ReplicaTransport>(
    collection: &str,
    query: &str,
) -> AttemptOp<T, StatsReply> {
    let (c, q) = (collection.to_string(), query.to_string());
    Arc::new(move |t: &T| t.term_stats(&c, &q))
}

/// The search-leg call, owning its arguments.
pub(crate) fn search_op<T: ReplicaTransport>(
    collection: &str,
    query: &str,
    k: usize,
    globals: QueryGlobals,
) -> AttemptOp<T, KeyedReply> {
    let (c, q) = (collection.to_string(), query.to_string());
    Arc::new(move |t: &T| t.search_global(&c, &q, k, &globals))
}

/// One hedged read in flight: the hedging policy of the module docs as
/// a state machine. [`Hedged::on_outcome`] and [`Hedged::on_timer`]
/// advance it and return the result once it is decided;
/// [`Hedged::next_timer`] says when it next needs a timer.
struct Hedged<'a, T, R> {
    remote: &'a RemoteIrs<T>,
    slot: usize,
    op: AttemptOp<T, R>,
    tx: mpsc::Sender<Outcome<R>>,
    started: Instant,
    deadline: Instant,
    /// When the hedge launches; `None` once it has.
    hedge_due: Option<Instant>,
    /// End of the backoff after an exhausted round, if in one.
    resume_at: Option<Instant>,
    /// Candidates of the current round.
    queue: VecDeque<usize>,
    launches: u32,
    in_flight: usize,
    /// Replicas with an attempt still outstanding; charged a breaker
    /// failure if the read gives up on them at the deadline, so a
    /// black-holed replica trips open even though its socket never
    /// errors.
    outstanding: Vec<usize>,
    round: u32,
    last_err: Option<CouplingError>,
}

impl<T: ReplicaTransport, R: Send + 'static> Hedged<'_, T, R> {
    /// Launch the next breaker-admitted candidate of the round on the
    /// attempt pool. Returns true if an attempt started.
    fn launch(&mut self, kind: LaunchKind) -> bool {
        let remote = self.remote;
        while let Some(i) = self.queue.pop_front() {
            if self.launches >= remote.config.max_attempts {
                return false;
            }
            if remote.replicas[i].breaker.try_acquire().is_err() {
                remote
                    .counters
                    .breaker_skips
                    .fetch_add(1, Ordering::Relaxed);
                continue;
            }
            self.launches += 1;
            self.in_flight += 1;
            self.outstanding.push(i);
            match kind {
                LaunchKind::Hedge => {
                    remote.counters.hedges_fired.fetch_add(1, Ordering::Relaxed);
                }
                LaunchKind::Failover => {
                    remote.counters.failovers.fetch_add(1, Ordering::Relaxed);
                }
                LaunchKind::Primary => {}
            }
            let replica = Arc::clone(&remote.replicas[i]);
            let op = Arc::clone(&self.op);
            let tx = self.tx.clone();
            let slot = self.slot;
            remote.pool.execute(move || {
                let t0 = Instant::now();
                let result = op(&replica.transport);
                let latency = t0.elapsed();
                Box::new(move || {
                    // The receiver may be gone (the read already won or
                    // gave up); a dead letter is fine.
                    let _ = tx.send(Outcome {
                        slot,
                        replica: i,
                        kind,
                        latency,
                        result,
                    });
                })
            });
            return true;
        }
        false
    }

    /// When this read next needs [`Hedged::on_timer`].
    fn next_timer(&self) -> Instant {
        match (self.resume_at, self.hedge_due) {
            (Some(resume), _) => resume,
            (None, Some(hedge)) => hedge.min(self.deadline),
            (None, None) => self.deadline,
        }
    }

    /// A timer fired: end a backoff, give up at the deadline, or launch
    /// the hedge.
    fn on_timer(&mut self, now: Instant) -> Option<Result<R>> {
        if let Some(resume) = self.resume_at {
            if now < resume {
                return None;
            }
            // Backoff over: re-rank — breakers opened last round now
            // sort (and are skipped) accordingly — and go again.
            self.resume_at = None;
            self.queue = self.remote.ranked();
            if !self.launch(LaunchKind::Failover) {
                return Some(self.give_up());
            }
        }
        if now >= self.deadline {
            return Some(self.give_up());
        }
        if self.hedge_due.is_some_and(|due| due <= now) {
            self.hedge_due = None;
            self.launch(LaunchKind::Hedge);
        }
        None
    }

    /// An attempt of this read finished.
    fn on_outcome(&mut self, outcome: Outcome<R>) -> Option<Result<R>> {
        let remote = self.remote;
        self.in_flight -= 1;
        self.outstanding.retain(|&r| r != outcome.replica);
        let rep = &remote.replicas[outcome.replica];
        match outcome.result {
            Ok(v) => {
                rep.breaker.on_success();
                rep.record_success(outcome.latency);
                if outcome.kind != LaunchKind::Primary {
                    remote.counters.hedge_wins.fetch_add(1, Ordering::Relaxed);
                }
                let elapsed = self.started.elapsed();
                for &slow in &self.outstanding {
                    remote.replicas[slow].record_abandon(elapsed);
                }
                Some(Ok(v))
            }
            Err(e) if e.is_transient() => {
                rep.record_failure();
                self.last_err = Some(e);
                // Fast failover: don't wait for the hedge timer, move on
                // immediately.
                if !self.launch(LaunchKind::Failover) && self.in_flight == 0 {
                    // Round exhausted with nothing in the air: back off,
                    // then re-rank and go again (see `on_timer`).
                    if self.launches >= remote.config.max_attempts {
                        return Some(self.give_up());
                    }
                    self.round += 1;
                    let backoff = remote.config.retry.backoff_for(self.round);
                    let now = Instant::now();
                    if now + backoff >= self.deadline {
                        return Some(self.give_up());
                    }
                    self.resume_at = Some(now + backoff);
                }
                None
            }
            // Permanent (parse error, unknown name, read-only write): the
            // request itself is at fault; no failover, no breaker
            // penalty.
            Err(e) => Some(Err(e)),
        }
    }

    /// Deadline (or attempts) exhausted. Attempts still in the air are
    /// abandoned; charge their replicas so stalled-but-open sockets
    /// (black holes) trip breakers and stop being ranked.
    fn give_up(&mut self) -> Result<R> {
        let remote = self.remote;
        for &i in &self.outstanding {
            remote.replicas[i].record_failure();
        }
        Err(self
            .last_err
            .take()
            .unwrap_or_else(|| CouplingError::Remote {
                kind: ErrorKind::Timeout,
                message: format!(
                    "no replica answered within {:?}",
                    remote.config.hedge_delay + remote.config.attempt_timeout
                ),
            }))
    }
}

/// Run one hedged read per `(replica set, call)` pair at once and wait
/// for all of them on the calling thread: the attempts run on each
/// set's pool and report over one channel, and the loop sleeps until
/// the next outcome or the earliest timer of any read. Results come
/// back in input order.
pub(crate) fn run_hedged<'a, T, R>(
    reads: impl IntoIterator<Item = (&'a RemoteIrs<T>, AttemptOp<T, R>)>,
) -> Vec<Result<R>>
where
    T: ReplicaTransport,
    R: Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let mut live = Vec::new();
    let mut done = Vec::new();
    for (slot, (remote, op)) in reads.into_iter().enumerate() {
        match remote.begin(slot, op, tx.clone()) {
            Ok(read) => {
                live.push(Some(read));
                done.push(None);
            }
            Err(e) => {
                live.push(None);
                done.push(Some(Err(e)));
            }
        }
    }
    drop(tx);
    loop {
        let now = Instant::now();
        let mut wake: Option<Instant> = None;
        for (slot, entry) in live.iter_mut().enumerate() {
            let Some(read) = entry else { continue };
            if read.next_timer() <= now {
                if let Some(result) = read.on_timer(now) {
                    done[slot] = Some(result);
                    *entry = None;
                    continue;
                }
            }
            let at = read.next_timer();
            wake = Some(wake.map_or(at, |w| w.min(at)));
        }
        let Some(wake) = wake else { break };
        // Every live read holds a sender, so the channel cannot close
        // while one waits; a finished read's late outcome is dropped.
        if let Ok(outcome) = rx.recv_timeout(wake.saturating_duration_since(now)) {
            let slot = outcome.slot;
            if let Some(read) = live[slot].as_mut() {
                if let Some(result) = read.on_outcome(outcome) {
                    done[slot] = Some(result);
                    live[slot] = None;
                }
            }
        }
    }
    done.into_iter()
        .map(|r| r.expect("every read finished"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::atomic::AtomicBool;

    /// Scripted fake replica: a fixed result set, optional artificial
    /// latency, and runtime-switchable failure modes.
    struct FakeReplica {
        hits: Vec<(Oid, f64)>,
        delay: Mutex<Duration>,
        down: AtomicBool,
        hang: AtomicBool,
        calls: AtomicU64,
    }

    impl FakeReplica {
        fn healthy(hits: Vec<(Oid, f64)>) -> Arc<Self> {
            Arc::new(FakeReplica {
                hits,
                delay: Mutex::new(Duration::ZERO),
                down: AtomicBool::new(false),
                hang: AtomicBool::new(false),
                calls: AtomicU64::new(0),
            })
        }

        fn answer<R>(&self, ok: impl FnOnce(&Self) -> R) -> Result<R> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            if self.hang.load(Ordering::Relaxed) {
                // A black-holed connection: the transport's own timeout
                // (simulated here) eventually fires.
                std::thread::sleep(Duration::from_millis(400));
                return Err(CouplingError::Remote {
                    kind: ErrorKind::Timeout,
                    message: "fake transport timeout".into(),
                });
            }
            if self.down.load(Ordering::Relaxed) {
                return Err(CouplingError::Remote {
                    kind: ErrorKind::Io,
                    message: "fake connection refused".into(),
                });
            }
            let delay = *self.delay.lock();
            if delay > Duration::ZERO {
                std::thread::sleep(delay);
            }
            Ok(ok(self))
        }
    }

    impl ReplicaTransport for Arc<FakeReplica> {
        fn search(&self, _c: &str, _q: &str) -> Result<(Vec<(Oid, f64)>, ResultOrigin)> {
            self.answer(|s| (s.hits.clone(), ResultOrigin::Fresh))
        }

        fn value(&self, _c: &str, _q: &str, oid: Oid) -> Result<f64> {
            self.answer(|s| {
                s.hits
                    .iter()
                    .find(|(o, _)| *o == oid)
                    .map(|(_, v)| *v)
                    .unwrap_or(0.0)
            })
        }

        fn ping(&self) -> Result<()> {
            self.answer(|_| ())
        }
    }

    fn hits() -> Vec<(Oid, f64)> {
        vec![(Oid(7), 0.9), (Oid(3), 0.5)]
    }

    fn engine(reps: Vec<Arc<FakeReplica>>, config: RemoteConfig) -> RemoteIrs<Arc<FakeReplica>> {
        let replicas = reps
            .into_iter()
            .enumerate()
            .map(|(i, r)| (format!("r{i}"), r))
            .collect();
        RemoteIrs::new(replicas, config)
    }

    fn fast_config() -> RemoteConfig {
        RemoteConfig {
            hedge_delay: Duration::from_millis(40),
            attempt_timeout: Duration::from_millis(300),
            ..RemoteConfig::default()
        }
    }

    #[test]
    fn healthy_primary_answers_without_hedging() {
        let remote = engine(
            vec![FakeReplica::healthy(hits()), FakeReplica::healthy(hits())],
            fast_config(),
        );
        let (got, origin) = remote.search_top_k("coll", "telnet").unwrap();
        assert_eq!(got, hits());
        assert_eq!(origin, ResultOrigin::Fresh);
        let s = remote.stats();
        assert_eq!(s.requests, 1);
        assert_eq!(s.hedges_fired, 0);
        assert_eq!(s.failovers, 0);
    }

    #[test]
    fn slow_primary_gets_hedged_and_the_hedge_wins() {
        let slow = FakeReplica::healthy(hits());
        // Far slower than hedge_delay but within attempt_timeout, so the
        // hedge provably finishes first.
        *slow.delay.lock() = Duration::from_millis(200);
        let fast = FakeReplica::healthy(hits());
        let remote = engine(vec![Arc::clone(&slow), fast], fast_config());
        let started = Instant::now();
        let (got, origin) = remote.search_top_k("coll", "telnet").unwrap();
        assert_eq!(got, hits());
        assert_eq!(origin, ResultOrigin::Fresh);
        assert!(
            started.elapsed() < Duration::from_millis(180),
            "hedge should win long before the slow primary finishes"
        );
        let s = remote.stats();
        assert_eq!(s.hedges_fired, 1);
        assert_eq!(s.hedge_wins, 1);
    }

    #[test]
    fn fast_failure_fails_over_before_the_hedge_timer() {
        let dead = FakeReplica::healthy(hits());
        dead.down.store(true, Ordering::Relaxed);
        let alive = FakeReplica::healthy(hits());
        let mut config = fast_config();
        // A hedge timer far beyond the attempt timeout: only immediate
        // failover can explain a fast success.
        config.hedge_delay = Duration::from_millis(250);
        let remote = engine(vec![dead, alive], config);
        let started = Instant::now();
        let (got, _) = remote.search_top_k("coll", "telnet").unwrap();
        assert_eq!(got, hits());
        assert!(
            started.elapsed() < Duration::from_millis(200),
            "failover must not wait for the hedge timer"
        );
        let s = remote.stats();
        assert_eq!(s.failovers, 1);
        assert_eq!(s.hedges_fired, 0);
        assert_eq!(s.hedge_wins, 1, "the failover launch won");
    }

    #[test]
    fn repeated_failures_trip_the_breaker_and_skip_the_replica() {
        let dead = FakeReplica::healthy(hits());
        dead.down.store(true, Ordering::Relaxed);
        let alive = FakeReplica::healthy(hits());
        let mut config = fast_config();
        config.breaker = BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_secs(60),
        };
        let remote = engine(vec![Arc::clone(&dead), Arc::clone(&alive)], config);
        for _ in 0..4 {
            remote.search_top_k("coll", "telnet").unwrap();
        }
        let health = remote.health();
        assert!(
            health[0].breaker.open_now,
            "dead replica's breaker must open"
        );
        let before = dead.calls.load(Ordering::Relaxed);
        remote.search_top_k("coll", "telnet").unwrap();
        assert_eq!(
            dead.calls.load(Ordering::Relaxed),
            before,
            "open breaker keeps traffic off the dead replica"
        );
        // Slow the healthy replica past the hedge delay: the hedge
        // considers the dead replica, finds its breaker open, and skips
        // it rather than sending traffic.
        *alive.delay.lock() = Duration::from_millis(80);
        remote.search_top_k("coll", "telnet").unwrap();
        assert!(remote.stats().breaker_skips > 0);
        assert_eq!(
            dead.calls.load(Ordering::Relaxed),
            before,
            "hedge skips the open breaker instead of probing it"
        );
    }

    #[test]
    fn all_replicas_down_serves_stale_after_a_warm_query() {
        let a = FakeReplica::healthy(hits());
        let b = FakeReplica::healthy(hits());
        let remote = engine(vec![Arc::clone(&a), Arc::clone(&b)], fast_config());
        // Warm the stale store.
        remote.search_top_k("coll", "telnet").unwrap();
        a.down.store(true, Ordering::Relaxed);
        b.down.store(true, Ordering::Relaxed);
        let (got, origin) = remote.search_top_k("coll", "telnet").unwrap();
        assert_eq!(got, hits());
        assert_eq!(origin, ResultOrigin::Stale);
        assert_eq!(remote.stats().stale_serves, 1);
        // getIRSValue degrades through the same store.
        let (v, origin) = remote.get_irs_value("coll", "telnet", Oid(7)).unwrap();
        assert!((v - 0.9).abs() < 1e-9);
        assert_eq!(origin, ResultOrigin::Stale);
        let (v, _) = remote.get_irs_value("coll", "telnet", Oid(999)).unwrap();
        assert_eq!(v, 0.0, "non-matching object scores zero even stale");
    }

    #[test]
    fn all_down_with_cold_store_reports_transient_error() {
        let a = FakeReplica::healthy(hits());
        a.down.store(true, Ordering::Relaxed);
        let b = FakeReplica::healthy(hits());
        b.down.store(true, Ordering::Relaxed);
        let remote = engine(vec![a, b], fast_config());
        let err = remote.search_top_k("coll", "never-seen").unwrap_err();
        assert!(
            err.is_transient(),
            "infrastructure failure, not a bad query"
        );
        assert_eq!(remote.stats().exhausted, 1);
    }

    #[test]
    fn permanent_errors_return_immediately_without_failover() {
        struct BadQuery;
        impl ReplicaTransport for BadQuery {
            fn search(&self, _c: &str, _q: &str) -> Result<(Vec<(Oid, f64)>, ResultOrigin)> {
                Err(CouplingError::Remote {
                    kind: ErrorKind::Parse,
                    message: "unbalanced parenthesis".into(),
                })
            }
            fn value(&self, _c: &str, _q: &str, _o: Oid) -> Result<f64> {
                unreachable!()
            }
            fn ping(&self) -> Result<()> {
                Ok(())
            }
        }
        let remote = RemoteIrs::new(
            vec![("a".into(), BadQuery), ("b".into(), BadQuery)],
            fast_config(),
        );
        let err = remote.search_top_k("coll", "((").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Parse);
        assert_eq!(remote.stats().failovers, 0, "bad queries don't fail over");
    }

    #[test]
    fn black_holed_replica_is_abandoned_within_the_deadline() {
        let hung = FakeReplica::healthy(hits());
        hung.hang.store(true, Ordering::Relaxed);
        let alive = FakeReplica::healthy(hits());
        let mut config = fast_config();
        config.hedge_delay = Duration::from_millis(30);
        let remote = engine(vec![Arc::clone(&hung), alive], config.clone());
        let started = Instant::now();
        let (got, _) = remote.search_top_k("coll", "telnet").unwrap();
        assert_eq!(got, hits());
        // The hedge answers; total latency ≈ hedge_delay, far below the
        // hung replica's 400ms stall.
        assert!(started.elapsed() < config.hedge_delay + Duration::from_millis(150));
        assert_eq!(remote.stats().hedges_fired, 1);
        // The abandoned attempt fed the hung replica's EWMA, demoting it
        // from the primary slot: the next request goes straight to the
        // healthy replica and needs no hedge at all.
        let started = Instant::now();
        remote.search_top_k("coll", "telnet").unwrap();
        assert!(started.elapsed() < Duration::from_millis(25));
        assert_eq!(remote.stats().hedges_fired, 1, "no second hedge");
    }

    #[test]
    fn probe_reports_reachability_and_closes_recovered_breakers() {
        let flaky = FakeReplica::healthy(hits());
        flaky.down.store(true, Ordering::Relaxed);
        let steady = FakeReplica::healthy(hits());
        let mut config = fast_config();
        config.breaker = BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_millis(5),
        };
        let remote = engine(vec![Arc::clone(&flaky), steady], config);
        let probes = remote.probe();
        assert_eq!(probes[0], ("r0".into(), false));
        assert_eq!(probes[1], ("r1".into(), true));
        assert!(remote.health()[0].breaker.open_now);
        // Replica recovers; after the cooldown the probe is the
        // half-open trial and closes the breaker.
        flaky.down.store(false, Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(10));
        let probes = remote.probe();
        assert_eq!(probes[0], ("r0".into(), true));
        assert!(!remote.health()[0].breaker.open_now);
    }

    #[test]
    fn stale_store_is_bounded() {
        let a = FakeReplica::healthy(hits());
        let mut config = fast_config();
        config.stale_capacity = 3;
        let remote = engine(vec![a], config);
        for i in 0..10 {
            remote.search_top_k("coll", &format!("q{i}")).unwrap();
        }
        assert_eq!(remote.stale_len(), 3);
    }

    #[test]
    fn ewma_blend_survives_u64_scale_samples() {
        // Regression: the blend used to run `(old * 7 + sample * 3) / 10`
        // in u64, overflowing (panic in debug, wraparound in release) for
        // samples above ~u64::MAX/3 and corrupting replica ranking.
        assert_eq!(ewma_blend(0, 42), 42, "first sample seeds the EWMA");
        assert_eq!(ewma_blend(0, 0), 1, "EWMA stays nonzero once seeded");
        assert_eq!(ewma_blend(10, 20), 13);
        assert_eq!(ewma_blend(u64::MAX, u64::MAX), u64::MAX);
        let demoted = ewma_blend(1, u64::MAX);
        assert!(
            demoted > u64::MAX / 4,
            "a huge sample must demote, not wrap to a tiny EWMA ({demoted})"
        );
        assert!(
            ewma_blend(u64::MAX, 1) < u64::MAX,
            "recovery pulls it back down"
        );
    }

    #[test]
    fn huge_latency_samples_do_not_panic_or_reset_the_ranking() {
        let rep = Replica {
            label: "r".into(),
            transport: FakeReplica::healthy(hits()),
            breaker: CircuitBreaker::new(BreakerConfig::default()),
            ewma_us: AtomicU64::new(0),
            wins: AtomicU64::new(0),
            failures: AtomicU64::new(0),
        };
        rep.record_success(Duration::from_micros(120));
        // A clock-step-scale stall: `Duration::MAX` clamps to u64::MAX µs.
        rep.record_success(Duration::MAX);
        rep.record_abandon(Duration::MAX);
        let ewma = rep.ewma_us.load(Ordering::Relaxed);
        assert!(
            ewma > u64::MAX / 2,
            "stalled replica must rank last, got EWMA {ewma}"
        );
        assert_eq!(rep.wins.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn sequential_reads_reuse_the_attempt_threads() {
        let remote = engine(
            vec![FakeReplica::healthy(hits()), FakeReplica::healthy(hits())],
            fast_config(),
        );
        remote.search_top_k("coll", "telnet").unwrap();
        assert_eq!(remote.stats().threads_spawned, 1);
        for _ in 0..100 {
            remote.search_top_k("coll", "telnet").unwrap();
        }
        assert_eq!(remote.stats().threads_spawned, 1, "no thread per read");
    }

    #[test]
    fn one_loop_hedges_each_read_on_its_own_timers() {
        // Two replica sets waited on together: the first answers at once,
        // the second's primary stalls and its hedge wins. Neither read
        // waits for the other's timers.
        let quick = engine(vec![FakeReplica::healthy(hits())], fast_config());
        let slow = FakeReplica::healthy(hits());
        *slow.delay.lock() = Duration::from_millis(200);
        let hedged = engine(vec![slow, FakeReplica::healthy(hits())], fast_config());
        let op: AttemptOp<Arc<FakeReplica>, Vec<(Oid, f64)>> =
            Arc::new(|t: &Arc<FakeReplica>| t.search("coll", "telnet").map(|(h, _)| h));
        let started = Instant::now();
        let results = run_hedged([(&quick, Arc::clone(&op)), (&hedged, op)]);
        assert!(started.elapsed() < Duration::from_millis(180));
        assert_eq!(results.len(), 2);
        for r in results {
            assert_eq!(r.unwrap(), hits());
        }
        assert_eq!(quick.stats().hedges_fired, 0);
        assert_eq!(
            (hedged.stats().hedges_fired, hedged.stats().hedge_wins),
            (1, 1)
        );
    }

    #[test]
    fn no_replicas_is_an_irs_down_error() {
        let remote: RemoteIrs<Arc<FakeReplica>> = RemoteIrs::new(vec![], fast_config());
        let err = remote.search_top_k("coll", "q").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::IrsDown);
    }
}
