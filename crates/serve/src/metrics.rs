//! Per-request observability for the serving layer.
//!
//! Counters are lock-free atomics bumped on the request path; the
//! latency distribution is a fixed array of power-of-two microsecond
//! buckets, so recording is one `fetch_add` and percentile estimates
//! need no sorting. [`Metrics::snapshot`] turns the live counters into
//! an immutable [`MetricsSnapshot`] for reporting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use coupling::{MixedStrategy, ResultOrigin};

/// Number of log2 latency buckets: bucket `i` holds requests whose
/// total latency (queue wait + execution) fell in `[2^i, 2^(i+1))`
/// microseconds. 40 buckets cover up to ~2^40 µs ≈ 12 days.
const BUCKETS: usize = 40;

/// Live counters of one [`crate::Server`]. Shared by all worker
/// threads; every field is updated with relaxed atomics.
#[derive(Debug)]
pub struct Metrics {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    rejected_overload: AtomicU64,
    rejected_shutdown: AtomicU64,
    deadline_timeouts: AtomicU64,
    origin_fresh: AtomicU64,
    origin_buffered: AtomicU64,
    origin_stale: AtomicU64,
    origin_none: AtomicU64,
    reads_inline: AtomicU64,
    reads_queued: AtomicU64,
    reads_in_flight: AtomicU64,
    reads_in_flight_max: AtomicU64,
    mixed_independent: AtomicU64,
    mixed_irs_first: AtomicU64,
    mixed_overridden: AtomicU64,
    latency_buckets: [AtomicU64; BUCKETS],
    latency_max_us: AtomicU64,
    latency_sum_us: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            rejected_overload: AtomicU64::new(0),
            rejected_shutdown: AtomicU64::new(0),
            deadline_timeouts: AtomicU64::new(0),
            origin_fresh: AtomicU64::new(0),
            origin_buffered: AtomicU64::new(0),
            origin_stale: AtomicU64::new(0),
            origin_none: AtomicU64::new(0),
            reads_inline: AtomicU64::new(0),
            reads_queued: AtomicU64::new(0),
            reads_in_flight: AtomicU64::new(0),
            reads_in_flight_max: AtomicU64::new(0),
            mixed_independent: AtomicU64::new(0),
            mixed_irs_first: AtomicU64::new(0),
            mixed_overridden: AtomicU64::new(0),
            latency_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            latency_max_us: AtomicU64::new(0),
            latency_sum_us: AtomicU64::new(0),
        }
    }
}

impl Metrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    pub(crate) fn request_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn request_rejected_overload(&self) {
        self.rejected_overload.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn request_rejected_shutdown(&self) {
        self.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn request_timed_out(&self) {
        self.deadline_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn request_failed(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// An admitted read: executed by its caller (`inline`) or handed to
    /// the worker pool.
    pub(crate) fn read_admitted(&self, inline: bool) {
        let counter = if inline {
            &self.reads_inline
        } else {
            &self.reads_queued
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// A read starts executing, on whichever thread.
    pub(crate) fn read_started(&self) {
        let now = self.reads_in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        self.reads_in_flight_max.fetch_max(now, Ordering::Relaxed);
    }

    /// The read counted by [`Metrics::read_started`] stopped executing.
    pub(crate) fn read_finished(&self) {
        self.reads_in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    /// A mixed query ran under `executed`, having asked for `requested`.
    pub(crate) fn mixed_executed(&self, requested: MixedStrategy, executed: MixedStrategy) {
        let counter = match executed {
            MixedStrategy::Independent => &self.mixed_independent,
            MixedStrategy::IrsFirst => &self.mixed_irs_first,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if requested != executed {
            self.mixed_overridden.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn request_completed(&self, latency: Duration, origin: Option<ResultOrigin>) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        // Every completion bumps exactly one origin counter — requests
        // without a result origin (writes, value probes) are counted
        // explicitly so the origin columns always sum to `completed`.
        let origin_counter = match origin {
            Some(ResultOrigin::Fresh) => &self.origin_fresh,
            Some(ResultOrigin::Buffered) => &self.origin_buffered,
            Some(ResultOrigin::Stale) => &self.origin_stale,
            None => &self.origin_none,
        };
        origin_counter.fetch_add(1, Ordering::Relaxed);
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        let bucket = (63 - us.max(1).leading_zeros() as usize).min(BUCKETS - 1);
        self.latency_buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.latency_sum_us.fetch_add(us, Ordering::Relaxed);
        self.latency_max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Immutable snapshot of everything counted so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let buckets: Vec<u64> = self
            .latency_buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let completed = self.completed.load(Ordering::Relaxed);
        MetricsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed,
            failed: self.failed.load(Ordering::Relaxed),
            rejected_overload: self.rejected_overload.load(Ordering::Relaxed),
            rejected_shutdown: self.rejected_shutdown.load(Ordering::Relaxed),
            deadline_timeouts: self.deadline_timeouts.load(Ordering::Relaxed),
            origin_fresh: self.origin_fresh.load(Ordering::Relaxed),
            origin_buffered: self.origin_buffered.load(Ordering::Relaxed),
            origin_stale: self.origin_stale.load(Ordering::Relaxed),
            origin_none: self.origin_none.load(Ordering::Relaxed),
            reads_inline: self.reads_inline.load(Ordering::Relaxed),
            reads_queued: self.reads_queued.load(Ordering::Relaxed),
            reads_in_flight_max: self.reads_in_flight_max.load(Ordering::Relaxed),
            mixed_independent: self.mixed_independent.load(Ordering::Relaxed),
            mixed_irs_first: self.mixed_irs_first.load(Ordering::Relaxed),
            mixed_overridden: self.mixed_overridden.load(Ordering::Relaxed),
            // Task counters live in the scheduler, not here; the server
            // overlays them via `with_tasks`.
            tasks_rejected: 0,
            tasks_failed: 0,
            tasks_succeeded: 0,
            task_batches: 0,
            tasks_merged: 0,
            task_queue_depth: 0,
            p50_us: percentile(&buckets, completed, 0.50),
            p90_us: percentile(&buckets, completed, 0.90),
            p99_us: percentile(&buckets, completed, 0.99),
            max_us: self.latency_max_us.load(Ordering::Relaxed),
            mean_us: if completed == 0 {
                0.0
            } else {
                self.latency_sum_us.load(Ordering::Relaxed) as f64 / completed as f64
            },
        }
    }
}

impl MetricsSnapshot {
    /// Overlay the task scheduler's counters (zero when the server has
    /// no scheduler, i.e. a read-only replica).
    pub(crate) fn with_tasks(mut self, stats: coupling::tasks::TaskQueueStats) -> MetricsSnapshot {
        self.tasks_rejected = stats.rejected;
        self.tasks_failed = stats.failed;
        self.tasks_succeeded = stats.succeeded;
        self.task_batches = stats.batches;
        self.tasks_merged = stats.merged;
        self.task_queue_depth = stats.depth;
        self
    }
}

/// Upper bound (µs) of the bucket containing quantile `q`, i.e. a
/// conservative percentile estimate with power-of-two resolution.
fn percentile(buckets: &[u64], total: u64, q: f64) -> u64 {
    if total == 0 {
        return 0;
    }
    let rank = ((total as f64) * q).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &count) in buckets.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return 1u64 << (i + 1).min(63);
        }
    }
    1u64 << 63
}

/// Point-in-time view of a server's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests admitted to a queue.
    pub submitted: u64,
    /// Requests that finished with `Ok`.
    pub completed: u64,
    /// Requests that finished with `Err` (other than rejection/timeout).
    pub failed: u64,
    /// Requests refused at admission because the queue was full.
    pub rejected_overload: u64,
    /// Requests refused because the server was shutting down.
    pub rejected_shutdown: u64,
    /// Requests dropped because their deadline expired before a worker
    /// picked them up.
    pub deadline_timeouts: u64,
    /// Completed reads answered fresh from the IRS.
    pub origin_fresh: u64,
    /// Completed reads answered from the result buffer.
    pub origin_buffered: u64,
    /// Completed reads answered from the stale store (IRS down).
    pub origin_stale: u64,
    /// Completed requests with no result origin (writes and value
    /// probes). `origin_fresh + origin_buffered + origin_stale +
    /// origin_none == completed` always holds.
    pub origin_none: u64,
    /// Admitted reads executed by the thread that called
    /// [`crate::Server::call`] (no queue wait, no hand-off).
    pub reads_inline: u64,
    /// Admitted reads handed to the worker pool. `reads_inline +
    /// reads_queued` is the number of reads in `submitted`.
    pub reads_queued: u64,
    /// Most reads ever executing at one instant, callers and workers
    /// together — never above `read_workers`.
    pub reads_in_flight_max: u64,
    /// Mixed queries executed extent-first.
    pub mixed_independent: u64,
    /// Mixed queries executed content-first.
    pub mixed_irs_first: u64,
    /// Mixed queries whose executed order was not the requested one.
    pub mixed_overridden: u64,
    /// Update tasks refused **at enqueue** (queue full or shutting
    /// down) — admission failures, before any work ran.
    pub tasks_rejected: u64,
    /// Update tasks that ran and **failed at execute** — distinct from
    /// `tasks_rejected` so overload and execution trouble are separable.
    pub tasks_failed: u64,
    /// Update tasks that ran and succeeded.
    pub tasks_succeeded: u64,
    /// Execution batches the scheduler claimed.
    pub task_batches: u64,
    /// Tasks that rode a batch beyond its head (executions saved by
    /// adjacent-task merging).
    pub tasks_merged: u64,
    /// Tasks currently enqueued or processing — the queue-depth gauge
    /// that makes overload visible *before* `Overloaded` fires.
    pub task_queue_depth: u64,
    /// Median latency upper bound, microseconds.
    pub p50_us: u64,
    /// 90th-percentile latency upper bound, microseconds.
    pub p90_us: u64,
    /// 99th-percentile latency upper bound, microseconds.
    pub p99_us: u64,
    /// Largest observed latency, microseconds.
    pub max_us: u64,
    /// Mean latency, microseconds.
    pub mean_us: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_percentiles() {
        let m = Metrics::new();
        m.request_submitted();
        m.request_submitted();
        m.request_completed(Duration::from_micros(3), Some(ResultOrigin::Fresh));
        m.request_completed(Duration::from_micros(1000), Some(ResultOrigin::Buffered));
        m.request_rejected_overload();
        let s = m.snapshot();
        assert_eq!(s.submitted, 2);
        assert_eq!(s.completed, 2);
        assert_eq!(s.rejected_overload, 1);
        assert_eq!(s.origin_fresh, 1);
        assert_eq!(s.origin_buffered, 1);
        // 3 µs falls in [2,4) → upper bound 4; 1000 µs in [512,1024) → 1024.
        assert_eq!(s.p50_us, 4);
        assert_eq!(s.p99_us, 1024);
        assert_eq!(s.max_us, 1000);
        assert!((s.mean_us - 501.5).abs() < 1e-9);
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let s = Metrics::new().snapshot();
        assert_eq!(s.completed, 0);
        assert_eq!(s.p50_us, 0);
        assert_eq!(s.mean_us, 0.0);
    }

    #[test]
    fn sub_microsecond_latency_lands_in_first_bucket() {
        let m = Metrics::new();
        m.request_completed(Duration::from_nanos(10), None);
        let s = m.snapshot();
        assert_eq!(s.completed, 1);
        assert_eq!(s.p50_us, 2);
    }

    #[test]
    fn origin_counters_reconcile_with_completed() {
        let m = Metrics::new();
        m.request_completed(Duration::from_micros(1), Some(ResultOrigin::Fresh));
        m.request_completed(Duration::from_micros(1), Some(ResultOrigin::Stale));
        m.request_completed(Duration::from_micros(1), None); // a write
        m.request_completed(Duration::from_micros(1), None); // a value probe
        let s = m.snapshot();
        assert_eq!(s.origin_none, 2);
        assert_eq!(
            s.origin_fresh + s.origin_buffered + s.origin_stale + s.origin_none,
            s.completed
        );
    }

    #[test]
    fn read_and_mixed_counters() {
        use MixedStrategy::{Independent, IrsFirst};
        let m = Metrics::new();
        m.read_admitted(true);
        m.read_admitted(false);
        m.read_admitted(true);
        m.read_started();
        m.read_started();
        m.read_finished();
        m.read_started();
        m.read_finished();
        m.read_finished();
        m.mixed_executed(Independent, IrsFirst);
        m.mixed_executed(IrsFirst, IrsFirst);
        m.mixed_executed(IrsFirst, Independent);
        let s = m.snapshot();
        assert_eq!((s.reads_inline, s.reads_queued), (2, 1));
        assert_eq!(s.reads_in_flight_max, 2);
        assert_eq!((s.mixed_independent, s.mixed_irs_first), (1, 2));
        assert_eq!(s.mixed_overridden, 2);
    }
}
