//! Deterministic fault injection for the IRS.
//!
//! The paper's loose coupling (Figure 1, alternative 3) keeps the IRS an
//! external component — which in production means it can fail or stall
//! independently of the OODBMS. [`FaultPlan`] simulates exactly that:
//! attached to an [`crate::IrsCollection`], it injects
//! [`crate::IrsError::Unavailable`] errors and artificial latency into IRS
//! operations on a deterministic, seeded schedule, so the coupling's
//! retry/degradation machinery can be exercised reproducibly from tests
//! and benchmarks.
//!
//! Determinism: every fallible IRS operation ticks a global operation
//! counter; whether op *n* fails is a pure function of `(seed, n)` (a
//! splitmix64 hash), plus any configured outage windows over the counter
//! and the runtime [`FaultPlan::set_down`] switch. Re-running the same
//! operation sequence against the same plan reproduces the same faults.
//!
//! The module also provides [`torn_write`] and [`flip_byte`], small
//! file-corruption helpers used by the crash-recovery test matrix.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use crate::error::{IrsError, Result};

/// splitmix64 — a tiny, high-quality mixing function. Deterministic
/// per-operation fault decisions hash the seed with the op counter; the
/// network chaos schedule and the retry jitter use it too, so one seed
/// replays every fault and every backoff bit-identically.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// An inclusive-exclusive window `[start, end)` over the operation counter
/// during which every IRS call fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageWindow {
    /// First failing operation index.
    pub start: u64,
    /// First operation index past the outage.
    pub end: u64,
}

/// A deterministic schedule of IRS faults.
///
/// Build one with [`FaultPlan::new`] and the `with_*` constructors, wrap
/// it in an `Arc`, and attach it via
/// [`crate::IrsCollection::set_fault_plan`]. All switches also work at
/// runtime through `&self` (the plan is internally atomic), so tests can
/// flip an attached plan up and down mid-scenario.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    /// Probability threshold scaled to `u64::MAX`; op fails when
    /// `splitmix64(seed ^ op) < error_threshold`.
    error_threshold: AtomicU64,
    /// Injected latency per operation, in microseconds.
    latency_us: AtomicU64,
    /// Hard down-switch: every operation fails while set.
    down: AtomicBool,
    /// Crash switch: every operation panics while set.
    panicking: AtomicBool,
    /// Operation-counter windows during which every call fails.
    outages: Vec<OutageWindow>,
    /// Operations observed so far.
    ops: AtomicU64,
    /// Faults injected so far.
    injected: AtomicU64,
}

impl FaultPlan {
    /// A plan with no faults configured (attachable baseline).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            error_threshold: AtomicU64::new(0),
            latency_us: AtomicU64::new(0),
            down: AtomicBool::new(false),
            panicking: AtomicBool::new(false),
            outages: Vec::new(),
            ops: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// Fail each operation independently with probability `rate` (clamped
    /// to `[0, 1]`), decided deterministically from the seed and the
    /// operation index.
    pub fn with_error_rate(self, rate: f64) -> Self {
        self.set_error_rate(rate);
        self
    }

    /// Add a fixed outage window over the operation counter.
    pub fn with_outage(mut self, start: u64, len: u64) -> Self {
        self.outages.push(OutageWindow {
            start,
            end: start.saturating_add(len),
        });
        self
    }

    /// Sleep `latency` before every operation (stall simulation).
    pub fn with_latency(self, latency: Duration) -> Self {
        self.latency_us
            .store(latency.as_micros() as u64, Ordering::Relaxed);
        self
    }

    /// Change the independent failure probability at runtime.
    pub fn set_error_rate(&self, rate: f64) {
        let clamped = rate.clamp(0.0, 1.0);
        let threshold = if clamped >= 1.0 {
            u64::MAX
        } else {
            (clamped * u64::MAX as f64) as u64
        };
        self.error_threshold.store(threshold, Ordering::Relaxed);
    }

    /// Force the IRS hard-down (every call fails) or back up.
    pub fn set_down(&self, down: bool) {
        self.down.store(down, Ordering::Relaxed);
    }

    /// Make every operation panic (or stop doing so): a crashing IRS
    /// binding, which whoever called it must contain, not survive by
    /// accident.
    pub fn set_panicking(&self, panicking: bool) {
        self.panicking.store(panicking, Ordering::Relaxed);
    }

    /// Operations observed so far.
    pub fn ops_seen(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Account one IRS operation: sleeps any configured latency, then
    /// either passes or returns [`IrsError::Unavailable`] according to the
    /// schedule. Collections call this at the top of every fallible
    /// operation.
    ///
    /// # Panics
    ///
    /// Panics while [`FaultPlan::set_panicking`] is on — that is the
    /// injected fault.
    pub fn tick(&self) -> Result<()> {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        assert!(
            !self.panicking.load(Ordering::Relaxed),
            "injected IRS panic at op {op}"
        );
        let latency = self.latency_us.load(Ordering::Relaxed);
        if latency > 0 {
            std::thread::sleep(Duration::from_micros(latency));
        }
        let reason = if self.down.load(Ordering::Relaxed) {
            Some("forced down".to_string())
        } else if let Some(w) = self.outages.iter().find(|w| (w.start..w.end).contains(&op)) {
            Some(format!("outage window [{}, {})", w.start, w.end))
        } else {
            let threshold = self.error_threshold.load(Ordering::Relaxed);
            (threshold > 0 && splitmix64(self.seed ^ op) < threshold)
                .then(|| format!("injected error at op {op}"))
        };
        match reason {
            Some(why) => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                Err(IrsError::Unavailable(why))
            }
            None => Ok(()),
        }
    }
}

/// Simulate a crash mid-write: atomically-written `payload` is replaced by
/// its first `keep` bytes, as if the process died before the write
/// completed. Returns the number of bytes actually kept.
pub fn torn_write(path: &Path, payload: &[u8], keep: usize) -> Result<usize> {
    let keep = keep.min(payload.len());
    std::fs::write(path, &payload[..keep])?;
    Ok(keep)
}

/// Flip one bit of the byte at `offset` in the file at `path` (in-place
/// corruption that preserves length — only a checksum can catch it).
pub fn flip_byte(path: &Path, offset: usize) -> Result<()> {
    let mut bytes = std::fs::read(path)?;
    if bytes.is_empty() {
        return Err(IrsError::CorruptIndex("flip_byte: empty file".into()));
    }
    let at = offset.min(bytes.len() - 1);
    bytes[at] ^= 0x01;
    std::fs::write(path, bytes)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Chaos schedules and retry jitter are functions of splitmix64
    /// outputs; these pin them (the first value is the reference
    /// SplitMix64 output for state 0).
    #[test]
    fn splitmix64_is_pinned() {
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(1), 0x910a_2dec_8902_5cc1);
        assert_eq!(splitmix64(0xdead_beef), 0x4adf_b90f_68c9_eb9b);
        assert_eq!(splitmix64(u64::MAX), 0xe4d9_7177_1b65_2c20);
    }

    #[test]
    fn zero_rate_plan_never_fails() {
        let plan = FaultPlan::new(7);
        for _ in 0..1000 {
            plan.tick().unwrap();
        }
        assert_eq!(plan.ops_seen(), 1000);
        assert_eq!(plan.faults_injected(), 0);
    }

    #[test]
    fn error_rate_is_deterministic_and_roughly_calibrated() {
        let run = |seed: u64| {
            let plan = FaultPlan::new(seed).with_error_rate(0.2);
            (0..2000)
                .map(|_| plan.tick().is_err())
                .collect::<Vec<bool>>()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed, same fault schedule");
        let failures = a.iter().filter(|&&f| f).count();
        assert!(
            (200..600).contains(&failures),
            "~20% of 2000 ops should fail, got {failures}"
        );
        let c = run(43);
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn outage_window_fails_exactly_inside() {
        let plan = FaultPlan::new(1).with_outage(3, 4);
        let results: Vec<bool> = (0..10).map(|_| plan.tick().is_err()).collect();
        let expected: Vec<bool> = (0..10u64).map(|op| (3..7).contains(&op)).collect();
        assert_eq!(results, expected);
        assert_eq!(plan.faults_injected(), 4);
    }

    #[test]
    fn down_switch_toggles_at_runtime() {
        let plan = FaultPlan::new(0);
        plan.tick().unwrap();
        plan.set_down(true);
        let err = plan.tick().unwrap_err();
        assert!(err.is_transient());
        plan.set_down(false);
        plan.tick().unwrap();
    }

    #[test]
    fn full_rate_always_fails() {
        let plan = FaultPlan::new(9).with_error_rate(1.0);
        for _ in 0..50 {
            assert!(plan.tick().is_err());
        }
    }

    #[test]
    fn torn_write_truncates_payload() {
        let dir = std::env::temp_dir().join("irs-fault-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.bin");
        let kept = torn_write(&path, b"hello world", 5).unwrap();
        assert_eq!(kept, 5);
        assert_eq!(std::fs::read(&path).unwrap(), b"hello");
    }

    #[test]
    fn flip_byte_changes_exactly_one_byte() {
        let dir = std::env::temp_dir().join("irs-fault-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flip.bin");
        std::fs::write(&path, b"abcd").unwrap();
        flip_byte(&path, 2).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len(), 4);
        assert_eq!(bytes[2], b'c' ^ 0x01);
        assert_eq!(&bytes[..2], b"ab");
    }
}
