//! The cached thread pool behind hedged replica attempts.
//!
//! A hedged read must be able to start an attempt *now*: a stalled
//! attempt may not delay the hedge or the failover that replaces it. So
//! the pool never queues work behind a busy worker — an attempt goes to
//! an idle worker when one exists and to a newly spawned thread
//! otherwise. Workers that stay idle for [`IDLE_EXIT`] exit, and all of
//! them exit once the pool is dropped, so a burst of stalls leaves no
//! threads behind. In steady state an attempt costs a queue push and a
//! wake-up, not a thread spawn.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long an idle worker waits for the next attempt before it exits.
const IDLE_EXIT: Duration = Duration::from_secs(10);

/// One unit of work in two phases: `run` does the (possibly slow) call
/// and returns `deliver`, which publishes the outcome. The worker counts
/// itself idle between the two, so by the time anyone observes the
/// outcome the worker is already available again.
type Deliver = Box<dyn FnOnce() + Send>;
type Job = Box<dyn FnOnce() -> Deliver + Send>;

#[derive(Default)]
struct State {
    jobs: VecDeque<Job>,
    /// Workers not running a job: waiting for one, or about to.
    idle: usize,
    closed: bool,
}

#[derive(Default)]
struct Shared {
    state: Mutex<State>,
    wake: Condvar,
    spawned: AtomicU64,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A cached pool of attempt threads (module docs).
#[derive(Default)]
pub(crate) struct AttemptPool {
    shared: Arc<Shared>,
}

impl AttemptPool {
    /// Run `run` on an idle worker, or on a new thread if none is idle,
    /// then run the closure it returns on the same worker.
    pub(crate) fn execute<R>(&self, run: R)
    where
        R: FnOnce() -> Deliver + Send + 'static,
    {
        let job: Job = Box::new(run);
        let mut state = self.shared.lock();
        if state.idle > state.jobs.len() {
            state.jobs.push_back(job);
            drop(state);
            self.shared.wake.notify_one();
            return;
        }
        drop(state);
        self.shared.spawned.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::clone(&self.shared);
        std::thread::Builder::new()
            .name("irs-attempt".into())
            .spawn(move || worker(&shared, job))
            .expect("spawn an attempt thread");
    }

    /// Threads this pool has started since it was created.
    pub(crate) fn spawned(&self) -> u64 {
        self.shared.spawned.load(Ordering::Relaxed)
    }
}

impl Drop for AttemptPool {
    fn drop(&mut self) {
        self.shared.lock().closed = true;
        self.shared.wake.notify_all();
    }
}

fn worker(shared: &Shared, first: Job) {
    let mut job = first;
    loop {
        let deliver = job();
        shared.lock().idle += 1;
        deliver();
        let mut state = shared.lock();
        let idle_since = Instant::now();
        job = loop {
            if state.closed {
                state.idle -= 1;
                return;
            }
            if let Some(next) = state.jobs.pop_front() {
                state.idle -= 1;
                break next;
            }
            let Some(left) = IDLE_EXIT.checked_sub(idle_since.elapsed()) else {
                state.idle -= 1;
                return;
            };
            state = shared
                .wake
                .wait_timeout(state, left)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn send(tx: &mpsc::Sender<u32>, v: u32) -> impl FnOnce() -> Deliver + Send + 'static {
        let tx = tx.clone();
        move || -> Deliver { Box::new(move || tx.send(v).unwrap()) }
    }

    #[test]
    fn sequential_attempts_reuse_one_worker() {
        let pool = AttemptPool::default();
        let (tx, rx) = mpsc::channel();
        for i in 0..100 {
            pool.execute(send(&tx, i));
            assert_eq!(rx.recv().unwrap(), i);
        }
        assert_eq!(pool.spawned(), 1);
    }

    #[test]
    fn a_stalled_attempt_never_delays_the_next() {
        let pool = AttemptPool::default();
        let (tx, rx) = mpsc::channel();
        let (release, stalled) = mpsc::channel::<()>();
        let stall_tx = tx.clone();
        pool.execute(move || -> Deliver {
            stalled.recv().unwrap();
            Box::new(move || stall_tx.send(0).unwrap())
        });
        pool.execute(send(&tx, 1));
        assert_eq!(rx.recv().unwrap(), 1, "second attempt ran beside the stall");
        assert_eq!(pool.spawned(), 2);
        release.send(()).unwrap();
        assert_eq!(rx.recv().unwrap(), 0);
        // Both workers are idle now: two concurrent attempts spawn none.
        pool.execute(send(&tx, 2));
        pool.execute(send(&tx, 3));
        let mut got = [rx.recv().unwrap(), rx.recv().unwrap()];
        got.sort();
        assert_eq!(got, [2, 3]);
        assert_eq!(pool.spawned(), 2);
    }

    #[test]
    fn dropping_the_pool_stops_its_workers() {
        let pool = AttemptPool::default();
        let (tx, rx) = mpsc::channel();
        pool.execute(send(&tx, 7));
        assert_eq!(rx.recv().unwrap(), 7);
        let shared = Arc::clone(&pool.shared);
        drop(pool);
        let deadline = Instant::now() + Duration::from_secs(5);
        while Arc::strong_count(&shared) > 1 {
            assert!(Instant::now() < deadline, "worker outlived its pool");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(shared.lock().idle, 0);
    }
}
