//! A bounded MPMC queue built on `std::sync::{Mutex, Condvar}`, with the
//! one compound operation the micro-batcher needs: an atomically drained
//! *batch pop* that takes what is queued, never waits for more, and
//! never mixes items of different kinds (see
//! [`BoundedQueue::pop_batch_by`]).
//!
//! Producers (HTTP connection threads) use the all-or-nothing
//! [`BoundedQueue::try_push_all`]: a request's queries either enqueue
//! together or are rejected together, so backpressure can be reported as
//! one clean `503` instead of a half-enqueued request.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Bounded multi-producer/multi-consumer FIFO queue.
///
/// Closing the queue ([`BoundedQueue::close`]) wakes every blocked
/// consumer; once closed *and* drained, [`BoundedQueue::pop_batch_by`]
/// returns `None`, which is the worker-thread exit signal.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    capacity: usize,
    not_empty: Condvar,
}

impl<T> std::fmt::Debug for BoundedQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedQueue")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity.min(1024)),
                closed: false,
            }),
            capacity,
            not_empty: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        // A consumer panicking mid-pop cannot leave the queue in an
        // inconsistent state (every mutation is a complete push/pop), so
        // poisoning is ignored.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of queued items right now (a snapshot — other threads may
    /// push/pop immediately after).
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue is empty right now (snapshot, like
    /// [`BoundedQueue::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of queued items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueues all of `items`, or none of them.
    ///
    /// Fails with [`PushError::Full`] when fewer than `items.len()` slots
    /// are free (backpressure: the caller turns this into a `503`), and
    /// with [`PushError::Closed`] after [`BoundedQueue::close`]. The
    /// rejected items are handed back in the error.
    pub fn try_push_all(&self, items: Vec<T>) -> Result<(), PushError<T>> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(PushError::Closed(items));
        }
        if inner.items.len() + items.len() > self.capacity {
            return Err(PushError::Full(items));
        }
        inner.items.extend(items);
        drop(inner);
        self.not_empty.notify_all();
        Ok(())
    }

    /// Closes the queue: future pushes fail, blocked consumers wake, and
    /// once the backlog drains [`BoundedQueue::pop_batch_by`] returns
    /// `None`.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }

    /// Atomically drains one *kind-pure* batch, work-conserving style.
    ///
    /// Blocks until at least one item is available (or the queue is
    /// closed and empty, returning `None`). The first item fixes the
    /// batch's kind (via `kind_of`); the batch then takes the items
    /// already queued behind it and never waits for more. It stops at
    /// the first of:
    ///
    /// * **max-batch flush** — `max` items collected;
    /// * **kind flush** — the next queued item has a different kind
    ///   (it stays queued for the next batch, preserving FIFO order —
    ///   link and capacitance queries are never packed together);
    /// * **dry flush** — the queue is empty.
    ///
    /// Batches still fill under load: items pile up while the consumers
    /// are busy with the previous batch.
    ///
    /// # Panics
    ///
    /// Panics if `max == 0`.
    pub fn pop_batch_by<K: PartialEq>(
        &self,
        max: usize,
        kind_of: impl Fn(&T) -> K,
    ) -> Option<Vec<T>> {
        assert!(max > 0, "batch size must be positive");
        let mut inner = self.lock();
        loop {
            if let Some(first) = inner.items.pop_front() {
                let kind = kind_of(&first);
                let mut batch = vec![first];
                while batch.len() < max {
                    match inner.items.front() {
                        Some(next) if kind_of(next) == kind => {
                            batch.push(inner.items.pop_front().expect("front checked"));
                        }
                        _ => break,
                    }
                }
                return Some(batch);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Why [`BoundedQueue::try_push_all`] rejected a push; carries the items
/// back to the caller.
pub enum PushError<T> {
    /// Not enough free slots for the whole push (backpressure).
    Full(Vec<T>),
    /// The queue was closed (server shutting down).
    Closed(Vec<T>),
}

impl<T> std::fmt::Debug for PushError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PushError::Full(v) => write!(f, "Full({} items)", v.len()),
            PushError::Closed(v) => write!(f, "Closed({} items)", v.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn max_batch_flush_drains_exactly_max_and_keeps_the_rest() {
        let q = BoundedQueue::new(64);
        q.try_push_all((0..10).collect()).unwrap();
        let batch = q.pop_batch_by(8, |_| 0u8).unwrap();
        assert_eq!(batch, (0..8).collect::<Vec<_>>());
        assert_eq!(q.len(), 2, "items beyond max stay queued");
        let rest = q.pop_batch_by(8, |_| 0u8).unwrap();
        assert_eq!(rest, vec![8, 9]);
    }

    #[test]
    fn dry_queue_flushes_a_partial_batch_and_later_pushes_start_the_next() {
        let q = BoundedQueue::new(64);
        q.try_push_all(vec![1, 2]).unwrap();
        assert_eq!(q.pop_batch_by(8, |_| 0u8).unwrap(), vec![1, 2]);
        assert!(q.is_empty());
        q.try_push_all(vec![3]).unwrap();
        assert_eq!(q.pop_batch_by(8, |_| 0u8).unwrap(), vec![3]);
        assert!(q.is_empty());
    }

    #[test]
    fn mixed_kinds_are_never_packed_into_one_batch() {
        // Kinds modelled as the parity of the item.
        let q = BoundedQueue::new(64);
        q.try_push_all(vec![0, 2, 1, 4, 6]).unwrap();
        let kind = |v: &i32| v % 2;
        assert_eq!(q.pop_batch_by(8, kind).unwrap(), vec![0, 2]);
        assert_eq!(q.pop_batch_by(8, kind).unwrap(), vec![1]);
        assert_eq!(q.pop_batch_by(8, kind).unwrap(), vec![4, 6]);
        assert!(q.is_empty());
    }

    #[test]
    fn queue_full_backpressure_is_all_or_nothing() {
        let q = BoundedQueue::new(4);
        q.try_push_all(vec![1, 2, 3]).unwrap();
        match q.try_push_all(vec![4, 5]) {
            Err(PushError::Full(items)) => assert_eq!(items, vec![4, 5]),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(q.len(), 3, "rejected push must not partially enqueue");
        q.try_push_all(vec![4]).unwrap();
        assert_eq!(q.len(), 4);
    }

    #[test]
    fn close_wakes_consumers_and_drains_backlog_first() {
        let q = BoundedQueue::new(8);
        q.try_push_all(vec![7]).unwrap();
        q.close();
        assert!(matches!(q.try_push_all(vec![8]), Err(PushError::Closed(_))));
        // Backlog still drains after close...
        assert_eq!(q.pop_batch_by(4, |_| 0u8).unwrap(), vec![7]);
        // ...then consumers get the exit signal without blocking.
        assert_eq!(q.pop_batch_by(4, |_| 0u8), None);
    }

    #[test]
    fn blocked_consumer_receives_items_pushed_later() {
        let q = std::sync::Arc::new(BoundedQueue::new(8));
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.pop_batch_by(2, |_| 0u8));
        std::thread::sleep(Duration::from_millis(10));
        q.try_push_all(vec![1, 2]).unwrap();
        assert_eq!(h.join().unwrap().unwrap(), vec![1, 2]);
    }
}
