//! The serving engine: a bounded query queue, response fan-out slots,
//! and the scheduler-worker loop that turns concurrent singleton
//! requests into packed block-diagonal batches.
//!
//! Data flow: producer threads (HTTP connections, or a bench driver)
//! call [`Engine::submit`] with one request's queries — each query
//! becomes a [`Job`] holding a shared [`ResponseSlot`]. Scheduler
//! workers loop on [`Engine::run_worker`]: take one kind-pure batch of
//! the jobs already queued (up to `max_batch`; a worker never waits for
//! more), run it through an [`InferenceSession`]'s
//! heterogeneous batch entry point, and write each result back into its
//! slot, waking the waiting producer. The producer observes exactly the
//! numbers a direct `predict_link_batch`/`predict_reg_batch` call would
//! produce — batching changes throughput, never values.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use circuitgps::{InferenceSession, Query};

use crate::metrics::Metrics;
use crate::queue::{BoundedQueue, PushError};

/// The task a query runs under. Kinds are never mixed inside one model
/// batch: link queries use the link head, coupling/ground queries the
/// regression head, and coupling vs. ground differ in sampler (1-hop
/// pair vs. 2-hop node subgraphs), so packing them would change nothing
/// semantically but would blur the per-kind latency accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Link-existence probability for a candidate pair.
    Link,
    /// Normalized coupling capacitance for a pair.
    Coupling,
    /// Normalized ground capacitance for a single node.
    Ground,
}

impl TaskKind {
    fn query(self, key: (u32, u32)) -> Query {
        match self {
            TaskKind::Link => Query::Link(key.0, key.1),
            TaskKind::Coupling => Query::Coupling(key.0, key.1),
            TaskKind::Ground => Query::Ground(key.0),
        }
    }
}

/// One enqueued query: its task, its key (`(n, n)` for ground queries),
/// where its answer goes, and when it entered the queue (for the latency
/// counters).
#[derive(Debug)]
pub struct Job {
    kind: TaskKind,
    key: (u32, u32),
    slot: Arc<ResponseSlot>,
    index: usize,
    enqueued: Instant,
}

#[derive(Debug)]
struct SlotState {
    results: Vec<f32>,
    remaining: usize,
}

/// Completion rendezvous for one submitted request: the producer blocks
/// in [`ResponseSlot::wait`] while workers fill results in, possibly
/// from several different batches (a request larger than `max_batch`
/// spans batches; two requests can land in one batch).
#[derive(Debug)]
pub struct ResponseSlot {
    state: Mutex<SlotState>,
    done: Condvar,
}

impl ResponseSlot {
    fn new(n: usize) -> Arc<Self> {
        Arc::new(ResponseSlot {
            state: Mutex::new(SlotState {
                results: vec![0.0; n],
                remaining: n,
            }),
            done: Condvar::new(),
        })
    }

    fn fill(&self, index: usize, value: f32) {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        s.results[index] = value;
        s.remaining -= 1;
        if s.remaining == 0 {
            drop(s);
            self.done.notify_all();
        }
    }

    /// Blocks until every query of the request is answered, then returns
    /// the predictions in submission order.
    pub fn wait(&self) -> Vec<f32> {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        while s.remaining > 0 {
            s = self.done.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        s.results.clone()
    }

    /// [`ResponseSlot::wait`] with a deadline: returns `None` if the
    /// request is not fully answered within `timeout` (the HTTP layer
    /// turns that into `504`). The jobs stay queued and workers still
    /// fill the slot eventually — abandoning the wait leaks nothing, the
    /// `Arc` keeps the slot alive until the last fill.
    pub fn wait_deadline(&self, timeout: Duration) -> Option<Vec<f32>> {
        let deadline = Instant::now() + timeout;
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        while s.remaining > 0 {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .done
                .wait_timeout(s, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            s = guard;
        }
        Some(s.results.clone())
    }
}

/// Rejection reasons from [`Engine::submit`].
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue lacks room for the whole request (respond `503`).
    QueueFull,
    /// The engine is shutting down.
    ShuttingDown,
    /// A pair query has identical endpoints (caught at submit time so a
    /// bad key can never panic a scheduler worker).
    IdenticalEndpoints {
        /// Index of the offending key in the submitted slice.
        index: usize,
    },
}

/// The shared serving engine; see the module docs for the data flow.
#[derive(Debug)]
pub struct Engine {
    queue: BoundedQueue<Job>,
    metrics: Metrics,
    max_batch: usize,
    /// Exponentially-weighted moving average of batch service time in
    /// µs (`new = (7·old + sample) / 8`; 0 until the first batch). The
    /// load-shedding layer uses it to predict queue sojourn and to
    /// compute the `Retry-After` it advertises on `503`.
    recent_batch_us: AtomicU64,
}

impl Engine {
    /// Creates an engine whose workers take batches of at most
    /// `max_batch` queued jobs, over a queue of `queue_capacity` jobs.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch == 0` or `queue_capacity < max_batch`.
    pub fn new(max_batch: usize, queue_capacity: usize) -> Self {
        assert!(max_batch > 0, "max_batch must be positive");
        assert!(
            queue_capacity >= max_batch,
            "queue must hold at least one full batch"
        );
        Engine {
            queue: BoundedQueue::new(queue_capacity),
            metrics: Metrics::default(),
            max_batch,
            recent_batch_us: AtomicU64::new(0),
        }
    }

    /// The engine's serving counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Current queue depth (for `/metrics`).
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The configured flush threshold.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// EWMA of batch service time in µs (0 until the first batch runs).
    pub fn recent_batch_us(&self) -> u64 {
        self.recent_batch_us.load(Ordering::Relaxed)
    }

    /// The queue's capacity — the largest request that can ever be
    /// accepted in one [`Engine::submit`] (bigger ones must be split by
    /// the caller; the HTTP layer rejects them with `400`, not `503`,
    /// because retrying cannot help).
    pub fn queue_capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Submits one request's queries; all enqueue or none do.
    ///
    /// Returns the slot to [`ResponseSlot::wait`] on.
    ///
    /// Node ids are **not** range-checked here (the engine does not know
    /// the graph); callers must validate them against the served graph,
    /// as the HTTP layer does. An out-of-range id makes the worker's
    /// prediction panic, which is answered with NaN (see
    /// [`Engine::run_worker`]) rather than crashing the daemon.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] under backpressure,
    /// [`SubmitError::ShuttingDown`] after [`Engine::shutdown`],
    /// [`SubmitError::IdenticalEndpoints`] for a pair query with
    /// `a == b`.
    pub fn submit(
        &self,
        kind: TaskKind,
        keys: &[(u32, u32)],
    ) -> Result<Arc<ResponseSlot>, SubmitError> {
        assert!(!keys.is_empty(), "a request needs at least one query");
        if !matches!(kind, TaskKind::Ground) {
            if let Some(index) = keys.iter().position(|&(a, b)| a == b) {
                return Err(SubmitError::IdenticalEndpoints { index });
            }
        }
        let slot = ResponseSlot::new(keys.len());
        let now = Instant::now();
        let jobs: Vec<Job> = keys
            .iter()
            .enumerate()
            .map(|(index, &key)| Job {
                kind,
                key,
                slot: slot.clone(),
                index,
                enqueued: now,
            })
            .collect();
        match self.queue.try_push_all(jobs) {
            Ok(()) => {
                self.metrics
                    .queries_total
                    .fetch_add(keys.len() as u64, Ordering::Relaxed);
                Ok(slot)
            }
            Err(PushError::Full(_)) => {
                Metrics::inc(&self.metrics.rejected_queue_full);
                Err(SubmitError::QueueFull)
            }
            Err(PushError::Closed(_)) => Err(SubmitError::ShuttingDown),
        }
    }

    /// Scheduler-worker loop: drains kind-pure batches and answers them
    /// through `session` until the engine shuts down and the backlog is
    /// empty. Run one worker per scheduler thread, each with its own
    /// session (sessions share the model weights via
    /// [`InferenceSession::shared`], but keep private sampler scratch
    /// and answer caches).
    ///
    /// A panic inside the prediction (e.g. an out-of-range node id from
    /// an embedder that skipped validation) is caught: every query of
    /// the failed batch is answered with `NaN`, `worker_panics_total` is
    /// bumped, and the worker keeps serving — producers blocked in
    /// [`ResponseSlot::wait`] are never stranded.
    pub fn run_worker(&self, session: &mut InferenceSession<'_>) {
        while let Some(batch) = self
            .queue
            .pop_batch_by(self.max_batch, |job: &Job| job.kind)
        {
            // Chaos hook: `delay:MS` here stalls the batch after it left
            // the queue — producers hit their request deadline (504)
            // instead of hanging.
            cirgps_failpoints::eval("serve.queue.pop");
            self.metrics.observe_batch(batch.len());
            let queries: Vec<Query> = batch.iter().map(|j| j.kind.query(j.key)).collect();
            let service_start = Instant::now();
            // The session's per-query state (cache inserts) stays
            // consistent across an unwind; no partial mutation spans
            // queries.
            let preds = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // Chaos hook: an injected panic lands inside the unwind
                // boundary, exactly like a prediction bug would.
                cirgps_failpoints::eval("serve.worker.predict");
                session.predict_batch(&queries)
            }))
            .unwrap_or_else(|_| {
                Metrics::inc(&self.metrics.worker_panics);
                vec![f32::NAN; batch.len()]
            });
            let sample_us = service_start.elapsed().as_micros() as u64;
            let old = self.recent_batch_us.load(Ordering::Relaxed);
            let ewma = if old == 0 {
                sample_us.max(1)
            } else {
                ((7 * old + sample_us) / 8).max(1)
            };
            self.recent_batch_us.store(ewma, Ordering::Relaxed);
            let now = Instant::now();
            for (job, pred) in batch.into_iter().zip(preds) {
                self.metrics.observe_latency_us(
                    now.saturating_duration_since(job.enqueued).as_micros() as u64,
                );
                job.slot.fill(job.index, pred);
            }
        }
    }

    /// Stops the engine: pending jobs still complete, then workers exit.
    pub fn shutdown(&self) {
        self.queue.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_collects_out_of_order_fills() {
        let slot = ResponseSlot::new(3);
        slot.fill(2, 0.3);
        slot.fill(0, 0.1);
        slot.fill(1, 0.2);
        assert_eq!(slot.wait(), vec![0.1, 0.2, 0.3]);
    }

    #[test]
    fn submit_is_rejected_under_backpressure_and_after_shutdown() {
        let engine = Engine::new(4, 4);
        // No worker running: jobs stay queued.
        let _slot = engine
            .submit(TaskKind::Link, &[(0, 1), (1, 2), (2, 3)])
            .unwrap();
        assert_eq!(
            engine
                .submit(TaskKind::Link, &[(3, 4), (4, 5)])
                .unwrap_err(),
            SubmitError::QueueFull
        );
        assert_eq!(
            engine.queue_depth(),
            3,
            "rejected request left no jobs behind"
        );
        assert_eq!(engine.recent_batch_us(), 0, "no batch has run yet");
        engine.shutdown();
        assert_eq!(
            engine.submit(TaskKind::Link, &[(5, 6)]).unwrap_err(),
            SubmitError::ShuttingDown
        );
    }

    #[test]
    fn identical_pair_endpoints_are_rejected_at_submit() {
        let engine = Engine::new(4, 8);
        assert_eq!(
            engine
                .submit(TaskKind::Link, &[(0, 1), (3, 3)])
                .unwrap_err(),
            SubmitError::IdenticalEndpoints { index: 1 }
        );
        assert_eq!(
            engine.submit(TaskKind::Coupling, &[(7, 7)]).unwrap_err(),
            SubmitError::IdenticalEndpoints { index: 0 }
        );
        assert_eq!(engine.queue_depth(), 0, "no jobs from rejected requests");
        // Ground queries use (n, n) keys by design.
        assert!(engine.submit(TaskKind::Ground, &[(7, 7)]).is_ok());
    }
}
