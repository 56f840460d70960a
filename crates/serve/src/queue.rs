//! Bounded MPMC queue with admission control.
//!
//! The serving layer's backpressure primitive: producers never block —
//! a full queue rejects immediately ([`PushError::Full`]) so overload
//! surfaces to clients as a fast failure instead of unbounded latency.
//! Consumers block until work arrives or the queue is closed.
//!
//! The queue also owns the **execution slots**: a count of items being
//! executed right now, kept under the same mutex as the items. A
//! consumer takes a slot with the item it pops, and a producer that
//! would block on the answer anyway may take a slot *instead of*
//! queueing ([`BoundedQueue::push_or_run`]) — but only while nothing is
//! queued, so it never overtakes admitted work, and only while a slot
//! is free, so executions never exceed the slot count whoever runs them.
//!
//! Built on `std::sync::{Mutex, Condvar}` (the vendored `parking_lot`
//! shim has no condition variables). Lock poisoning is *recovered*, not
//! propagated: a worker that panics while holding the queue lock must
//! not cascade panics into every unrelated client thread blocked on the
//! same queue — the queue's invariants hold at every await point, so
//! the data behind a poisoned lock is still valid.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// A refused push. The rejected item rides along so the caller can
/// fail it with the precise reason instead of losing it.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity; the item must be rejected (or retried
    /// later).
    Full(T),
    /// The queue is closed (server shutting down).
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Execution slots currently held.
    running: usize,
}

/// A bounded multi-producer / multi-consumer queue.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
    slots: usize,
}

/// One held execution slot; dropping it frees the slot (also on unwind)
/// and wakes a consumer if work is waiting for one.
pub struct Slot<'q, T> {
    queue: &'q BoundedQueue<T>,
}

impl<T> Drop for Slot<'_, T> {
    fn drop(&mut self) {
        let mut inner = self.queue.lock();
        inner.running -= 1;
        let waiting = !inner.items.is_empty();
        drop(inner);
        if waiting {
            self.queue.ready.notify_one();
        }
    }
}

impl<T> BoundedQueue<T> {
    /// Create a queue admitting at most `capacity` queued items, with
    /// no limit on concurrent executions. A capacity of zero is rounded
    /// up to one.
    pub fn new(capacity: usize) -> Self {
        BoundedQueue::with_slots(capacity, usize::MAX)
    }

    /// Like [`BoundedQueue::new`], with at most `slots` items executing
    /// at any instant (zero is rounded up to one).
    pub fn with_slots(capacity: usize, slots: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
                running: 0,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            slots: slots.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The admission limit.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking admission: enqueue `item` or hand it back with the
    /// refusal reason.
    pub fn push(&self, item: T) -> Result<(), PushError<T>> {
        self.admit(item, false).map(|_| ())
    }

    /// Admission for a producer that will wait for the item's outcome:
    /// when nothing is queued and an execution slot is free, hand the
    /// item straight back with the slot (`Some` — the caller executes it
    /// and then drops the slot); otherwise behave as [`Self::push`].
    pub fn push_or_run(&self, item: T) -> Result<Option<(T, Slot<'_, T>)>, PushError<T>> {
        self.admit(item, true)
    }

    fn admit(&self, item: T, may_run: bool) -> Result<Option<(T, Slot<'_, T>)>, PushError<T>> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if may_run && inner.items.is_empty() && inner.running < self.slots {
            inner.running += 1;
            return Ok(Some((item, Slot { queue: self })));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.ready.notify_one();
        Ok(None)
    }

    /// Blocking removal: the oldest item together with the execution
    /// slot it runs under, once both exist. Returns `None` once the
    /// queue is closed *and* drained — consumers use that as their exit
    /// signal, so close is graceful: queued work still completes.
    pub fn pop(&self) -> Option<(T, Slot<'_, T>)> {
        let mut inner = self.lock();
        loop {
            if inner.running < self.slots {
                if let Some(item) = inner.items.pop_front() {
                    inner.running += 1;
                    return Some((item, Slot { queue: self }));
                }
            }
            if inner.closed && inner.items.is_empty() {
                return None;
            }
            inner = self.ready.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Refuse new work; wake all consumers so they can drain and exit.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Pop and release the slot at once.
    fn pop_item<T>(q: &BoundedQueue<T>) -> Option<T> {
        q.pop().map(|(item, _slot)| item)
    }

    #[test]
    fn fifo_order() {
        let q = BoundedQueue::new(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(pop_item(&q), Some(1));
        assert_eq!(pop_item(&q), Some(2));
    }

    #[test]
    fn rejects_when_full_then_admits_after_pop() {
        let q = BoundedQueue::new(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert!(matches!(q.push(3), Err(PushError::Full(3))));
        assert_eq!(pop_item(&q), Some(1));
        q.push(3).unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn close_drains_then_signals_exit() {
        let q = BoundedQueue::new(4);
        q.push(7).unwrap();
        q.close();
        assert!(matches!(q.push(8), Err(PushError::Closed(8))));
        assert_eq!(pop_item(&q), Some(7));
        assert_eq!(pop_item(&q), None);
    }

    #[test]
    fn blocked_consumers_wake_on_close() {
        let q = Arc::new(BoundedQueue::<u32>::new(1));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || pop_item(&q))
            })
            .collect();
        q.push(42).unwrap();
        q.close();
        let mut got: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        got.sort();
        assert_eq!(got, vec![None, None, Some(42)]);
    }

    #[test]
    fn poisoned_lock_is_recovered_not_cascaded() {
        let q = Arc::new(BoundedQueue::new(4));
        q.push(1).unwrap();
        // Panic while holding the queue lock, poisoning it.
        let q2 = Arc::clone(&q);
        let _ = std::thread::spawn(move || {
            let _guard = q2.inner.lock().unwrap();
            panic!("poison the queue lock");
        })
        .join();
        // Every operation still works: the queue's data was valid when
        // the panicking holder died, so recovery is safe.
        q.push(2).unwrap();
        assert_eq!(pop_item(&q), Some(1));
        assert_eq!(q.len(), 1);
        q.close();
        assert_eq!(pop_item(&q), Some(2));
        assert_eq!(pop_item(&q), None);
    }

    #[test]
    fn zero_capacity_rounds_up() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        q.push(1).unwrap();
        assert!(matches!(q.push(2), Err(PushError::Full(2))));
    }

    #[test]
    fn caller_runs_only_when_idle_and_a_slot_is_free() {
        let q = BoundedQueue::with_slots(4, 1);
        let (item, slot) = q.push_or_run(1).unwrap().expect("idle: caller runs");
        assert_eq!(item, 1);
        // The only slot is held: the next producer queues.
        assert!(q.push_or_run(2).unwrap().is_none());
        drop(slot);
        // A slot is free again, but 2 is queued: no overtaking.
        assert!(q.push_or_run(3).unwrap().is_none());
        assert_eq!(pop_item(&q), Some(2));
        assert_eq!(pop_item(&q), Some(3));
        assert!(q.push_or_run(4).unwrap().is_some());
        q.close();
        assert!(matches!(q.push_or_run(5), Err(PushError::Closed(5))));
    }

    #[test]
    fn consumers_wait_for_a_slot_not_just_for_an_item() {
        let q = Arc::new(BoundedQueue::with_slots(4, 1));
        let (_, slot) = q.push_or_run(1).unwrap().expect("idle: caller runs");
        q.push(2).unwrap();
        let (popped, was_popped) = std::sync::mpsc::channel();
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let (item, _slot) = q.pop().expect("open queue");
                popped.send(item).unwrap();
            })
        };
        // Item 2 is queued, yet the consumer may not take it while the
        // caller holds the only slot — even if it polls for a while.
        assert!(was_popped
            .recv_timeout(std::time::Duration::from_millis(50))
            .is_err());
        drop(slot);
        assert_eq!(was_popped.recv().unwrap(), 2);
        consumer.join().unwrap();
        // A slot freed by an unwinding holder is usable again.
        let q2 = Arc::clone(&q);
        let _ = std::thread::spawn(move || {
            let _held = q2.push_or_run(3).unwrap().expect("idle");
            panic!("die holding a slot");
        })
        .join();
        assert!(q.push_or_run(4).unwrap().is_some());
    }
}
