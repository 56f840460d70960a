//! Run parameters shared by every workload.

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How long a workload runs: by the clock (the driver's `--seconds`) or
/// by op count (`--smoke`, which must finish fast on any machine).
#[derive(Debug, Clone, Copy)]
pub enum Plan {
    Timed { warmup: Duration, measure: Duration },
    Counted { warmup_ops: u64, ops: u64 },
}

/// The measured window of one run, fixed before the clients start so
/// every thread agrees on it.
#[derive(Debug, Clone, Copy)]
pub enum Window {
    /// Ops sent and answered between `start` and `end` are measured.
    Clock { start: Instant, end: Instant },
    /// Ops `warmup..total` of the stream are measured.
    Ops { warmup: u64, total: u64 },
}

impl Plan {
    pub fn window(&self, run_start: Instant) -> Window {
        match *self {
            Plan::Timed { warmup, measure } => Window::Clock {
                start: run_start + warmup,
                end: run_start + warmup + measure,
            },
            Plan::Counted { warmup_ops, ops } => Window::Ops {
                warmup: warmup_ops,
                total: warmup_ops + ops,
            },
        }
    }
}

impl Window {
    /// True once a timed window has ended (a counted one ends when the op
    /// source runs dry).
    pub fn is_over(&self) -> bool {
        matches!(self, Window::Clock { end, .. } if Instant::now() >= *end)
    }

    pub fn measures(&self, index: u64, sent: Instant, answered: Instant) -> bool {
        match *self {
            Window::Clock { start, end } => sent >= start && answered <= end,
            Window::Ops { warmup, .. } => index >= warmup,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Env {
    pub seed: u64,
    pub seconds: u64,
    pub docs: usize,
    /// Builds of the fixture per run; `setup_s` is their median.
    pub setup_reps: usize,
    pub plan: Plan,
    /// Answers verified against the reference after the measured window.
    pub verify_ops: u64,
    /// Ops per ladder in the traced run.
    pub trace_ops: u64,
    pub out_dir: PathBuf,
    pub corrupt_reference: bool,
}

impl Env {
    /// A scratch directory of this run's own, emptied first.
    pub fn scratch(&self, workload: &str) -> PathBuf {
        let dir = self
            .out_dir
            .join(format!("scratch-{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory under the output directory");
        dir
    }
}

/// Bytes of every file under `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}
