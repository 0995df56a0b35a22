//! Training loops: link-prediction pre-training, regression fine-tuning
//! (scratch / head-only / all, Section III-E) and evaluation.
//!
//! Minibatches are data-parallel: each minibatch is split into one
//! sub-batch per core, and each sub-batch's forward/backward runs on its
//! own [`par_map`] worker with its own tape; the per-sub-batch gradient
//! stores are merged in sub-batch order, averaged, clipped and applied
//! with AdamW under a cosine schedule.
//!
//! Long runs are resumable: [`train_resumable`] reports a serializable
//! [`TrainState`] (epoch counter, optimizer moments, RNG state) at every
//! epoch boundary and honors a stop flag between epochs, so an
//! interrupted run restored from its last snapshot finishes with the
//! **same final metrics** as the uninterrupted run (same seed, same
//! machine). Epoch boundaries are the only stop/snapshot points because
//! mid-epoch model/optimizer/RNG state is not a consistent triple.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

use cirgps_nn::{Adam, BufferUpdate, CosineSchedule, GradStore, Tape};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use subgraph_sample::{available_cores, par_map};

use crate::checkpoint::{read_u32, read_u64, write_u32, write_u64};
use crate::config::{FinetuneMode, TrainConfig};
use crate::metrics::{link_metrics, reg_metrics, LinkMetrics, RegMetrics};
use crate::model::CircuitGps;
use crate::plan::forward;
use crate::prepared::PreparedSample;

/// Which loss the loop optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Task {
    /// Binary link prediction (BCE) — the pre-training task.
    #[default]
    LinkPrediction,
    /// Capacitance regression (L1) — the downstream task.
    Regression,
}

/// Training failure modes.
///
/// The loop aborts *before* applying the diverged step's gradients and
/// before the epoch's `progress`/`epoch_end` callbacks run, so the model
/// holds the last finite weights and the caller's most recent snapshot
/// (epoch `epoch - 1` or earlier) is still a valid resume point.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// A minibatch produced a NaN or infinite loss — the run has
    /// diverged (bad data, too-high learning rate, or numeric blow-up)
    /// and continuing would only poison the weights.
    NonFiniteLoss {
        /// 1-based epoch in which the loss diverged.
        epoch: usize,
        /// Global optimizer step index at the divergence (0-based; the
        /// step was *not* applied).
        step: usize,
        /// The offending batch-mean loss.
        loss: f64,
    },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::NonFiniteLoss { epoch, step, loss } => write!(
                f,
                "non-finite loss {loss} at epoch {epoch} step {step}: training diverged \
                 (the last epoch-boundary snapshot is still valid)"
            ),
        }
    }
}

impl std::error::Error for TrainError {}

/// Per-epoch training record.
#[derive(Debug, Clone, Default)]
pub struct TrainHistory {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Wall-clock seconds spent in training.
    pub seconds: f64,
}

/// What the training loop reports to a progress observer after each
/// epoch (see [`train_with_progress`]).
#[derive(Debug, Clone, Copy)]
pub struct EpochProgress {
    /// 1-based epoch that just finished.
    pub epoch: usize,
    /// Total epochs this run will perform.
    pub epochs: usize,
    /// Mean training loss over the finished epoch.
    pub loss: f32,
    /// Learning rate of the epoch's last optimizer step.
    pub lr: f32,
    /// Wall-clock seconds since training started.
    pub seconds: f64,
}

/// Serializable snapshot of everything the training loop mutates between
/// epochs, captured at an epoch boundary. Persisting this next to the
/// model weights (checkpoint section
/// [`crate::TRAIN_STATE_SECTION`]) makes an interrupted run resumable
/// with bitwise-identical continuation: the RNG continues its stream,
/// the optimizer keeps its moment estimates and step counter, and the
/// cosine schedule's step index is recomputed from `epochs_done`.
///
/// The config fields (`seed`, `epochs`, …) are recorded so a resume with
/// *different* training flags is rejected by [`TrainState::check_resume`]
/// instead of silently diverging.
#[derive(Debug, Clone)]
pub struct TrainState {
    /// Which loss the interrupted run was optimizing.
    pub task: Task,
    /// `TrainConfig::seed` of the run.
    pub seed: u64,
    /// `TrainConfig::epochs` of the run (the cosine schedule's horizon —
    /// resuming with a different total would silently change every
    /// remaining learning rate).
    pub epochs: usize,
    /// `TrainConfig::batch_size` of the run.
    pub batch_size: usize,
    /// `TrainConfig::lr` of the run.
    pub lr: f32,
    /// `TrainConfig::weight_decay` of the run.
    pub weight_decay: f32,
    /// Completed epochs (the resumed run starts at this epoch index).
    pub epochs_done: usize,
    /// Mean training loss of every completed epoch.
    pub epoch_losses: Vec<f32>,
    /// Wall-clock seconds accumulated over all partial runs.
    pub seconds: f64,
    /// xoshiro256++ state of the shuffle RNG at the epoch boundary.
    pub rng_state: [u64; 4],
    /// Serialized optimizer state ([`Adam::save_state`] payload).
    pub opt: Vec<u8>,
}

const TRAIN_STATE_VERSION: u32 = 1;
const TASK_LINK: u8 = 0;
const TASK_REGRESSION: u8 = 1;

impl TrainState {
    /// Serializes the state for embedding in a checkpoint section.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(96 + self.epoch_losses.len() * 4 + self.opt.len());
        // Writing to a Vec cannot fail.
        write_u32(&mut b, TRAIN_STATE_VERSION).unwrap();
        b.push(match self.task {
            Task::LinkPrediction => TASK_LINK,
            Task::Regression => TASK_REGRESSION,
        });
        write_u64(&mut b, self.seed).unwrap();
        write_u64(&mut b, self.epochs as u64).unwrap();
        write_u64(&mut b, self.batch_size as u64).unwrap();
        b.extend_from_slice(&self.lr.to_le_bytes());
        b.extend_from_slice(&self.weight_decay.to_le_bytes());
        write_u64(&mut b, self.epochs_done as u64).unwrap();
        b.extend_from_slice(&self.seconds.to_le_bytes());
        write_u64(&mut b, self.epoch_losses.len() as u64).unwrap();
        for &loss in &self.epoch_losses {
            b.extend_from_slice(&loss.to_le_bytes());
        }
        for &s in &self.rng_state {
            write_u64(&mut b, s).unwrap();
        }
        write_u64(&mut b, self.opt.len() as u64).unwrap();
        b.extend_from_slice(&self.opt);
        b
    }

    /// Decodes a [`TrainState::to_bytes`] payload, validating structure
    /// (including a trial parse of the embedded optimizer state) so a
    /// successful decode is guaranteed to resume cleanly.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed field. (In practice the
    /// containing checkpoint's CRC already rejects corruption; this
    /// guards against logic errors and version skew.)
    pub fn from_bytes(mut bytes: &[u8]) -> Result<Self, String> {
        let r = &mut bytes;
        let io = |e: std::io::Error| format!("training state truncated: {e}");
        let version = read_u32(r).map_err(io)?;
        if version != TRAIN_STATE_VERSION {
            return Err(format!(
                "training state version {version} unsupported (expected {TRAIN_STATE_VERSION})"
            ));
        }
        let mut tag = [0u8; 1];
        std::io::Read::read_exact(r, &mut tag).map_err(io)?;
        let task = match tag[0] {
            TASK_LINK => Task::LinkPrediction,
            TASK_REGRESSION => Task::Regression,
            t => return Err(format!("unknown task tag {t}")),
        };
        let seed = read_u64(r).map_err(io)?;
        let epochs = read_u64(r).map_err(io)? as usize;
        let batch_size = read_u64(r).map_err(io)? as usize;
        let mut f4 = [0u8; 4];
        std::io::Read::read_exact(r, &mut f4).map_err(io)?;
        let lr = f32::from_le_bytes(f4);
        std::io::Read::read_exact(r, &mut f4).map_err(io)?;
        let weight_decay = f32::from_le_bytes(f4);
        let epochs_done = read_u64(r).map_err(io)? as usize;
        let mut f8 = [0u8; 8];
        std::io::Read::read_exact(r, &mut f8).map_err(io)?;
        let seconds = f64::from_le_bytes(f8);
        let n_losses = read_u64(r).map_err(io)? as usize;
        if n_losses > 1 << 24 {
            return Err(format!("unreasonable loss count {n_losses}"));
        }
        let mut epoch_losses = Vec::with_capacity(n_losses.min(1 << 16));
        for _ in 0..n_losses {
            std::io::Read::read_exact(r, &mut f4).map_err(io)?;
            epoch_losses.push(f32::from_le_bytes(f4));
        }
        let mut rng_state = [0u64; 4];
        for s in &mut rng_state {
            *s = read_u64(r).map_err(io)?;
        }
        let opt_len = read_u64(r).map_err(io)? as usize;
        if opt_len != r.len() {
            return Err(format!(
                "optimizer state length {opt_len} does not match remaining {} bytes",
                r.len()
            ));
        }
        let opt = r.to_vec();
        // Trial-parse so train_resumable can restore infallibly.
        Adam::new(0.0)
            .load_state(&opt[..])
            .map_err(|e| format!("embedded optimizer state: {e}"))?;
        Ok(TrainState {
            task,
            seed,
            epochs,
            batch_size,
            lr,
            weight_decay,
            epochs_done,
            epoch_losses,
            seconds,
            rng_state,
            opt,
        })
    }

    /// Verifies this state can resume a run with the given task/config;
    /// every mismatch is named. A resumed run MUST use the training
    /// flags of the interrupted run — anything else (a different
    /// schedule horizon, batch geometry, or seed) would produce a run
    /// that silently differs from the uninterrupted one.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first mismatched field.
    pub fn check_resume(&self, task: Task, cfg: &TrainConfig) -> Result<(), String> {
        if self.task != task {
            return Err(format!(
                "task mismatch: snapshot was {:?}, this run is {:?}",
                self.task, task
            ));
        }
        let check = |name: &str, stored: String, given: String| -> Result<(), String> {
            if stored != given {
                Err(format!(
                    "--{name} mismatch: snapshot used {stored}, this run asks for {given} \
                     (resume with the original flags)"
                ))
            } else {
                Ok(())
            }
        };
        check("seed", self.seed.to_string(), cfg.seed.to_string())?;
        check("epochs", self.epochs.to_string(), cfg.epochs.to_string())?;
        check(
            "batch-size",
            self.batch_size.to_string(),
            cfg.batch_size.to_string(),
        )?;
        check(
            "lr",
            self.lr.to_bits().to_string(),
            cfg.lr.to_bits().to_string(),
        )?;
        check(
            "weight-decay",
            self.weight_decay.to_bits().to_string(),
            cfg.weight_decay.to_bits().to_string(),
        )?;
        Ok(())
    }
}

/// Options for [`train_resumable`] beyond the model/data/config triple.
#[derive(Default)]
pub struct ResumableTrain<'a> {
    /// Which loss to optimize.
    pub task: Task,
    /// Resume from this epoch-boundary snapshot (the model must carry
    /// the matching weights — i.e. come from the same checkpoint).
    /// `None` starts from epoch 0.
    pub resume: Option<TrainState>,
    /// Checked between epochs; when set, the loop finishes the epoch in
    /// flight, reports it, and returns with
    /// [`TrainOutcome::interrupted`] = `true`. Wire
    /// [`crate::interrupt::flag`] here for SIGINT/SIGTERM handling.
    pub stop: Option<&'a AtomicBool>,
}

/// What [`train_resumable`] returns.
#[derive(Debug)]
pub struct TrainOutcome {
    /// Cumulative history — includes epochs restored from a resumed
    /// snapshot, so the record always spans epoch 1 to the last one run.
    pub history: TrainHistory,
    /// Whether the stop flag ended the run before `cfg.epochs`.
    pub interrupted: bool,
    /// Epoch-boundary state after the last completed epoch; save this
    /// (checkpoint section [`crate::TRAIN_STATE_SECTION`]) to make the
    /// interruption resumable.
    pub state: TrainState,
}

/// Trains the model on `samples` for the given task.
///
/// Returns the per-epoch loss history. Training is deterministic for a
/// fixed `TrainConfig::seed` and core count; gradients merge in
/// sub-batch order, whichever worker finishes first.
///
/// # Errors
///
/// [`TrainError::NonFiniteLoss`] if a minibatch loss goes NaN/Inf; the
/// diverged step is not applied.
pub fn train(
    model: &mut CircuitGps,
    samples: &[PreparedSample],
    task: Task,
    cfg: &TrainConfig,
) -> Result<TrainHistory, TrainError> {
    train_with_progress(model, samples, task, cfg, &mut |_, _| {})
}

/// [`train`] with a per-epoch progress observer.
///
/// After each epoch the callback receives the model (shared borrow — the
/// optimizer step for that epoch has been applied) and an
/// [`EpochProgress`] record. This is how the CLI streams per-epoch loss
/// and runs periodic held-out evaluation without the loop knowing about
/// either; the callback cannot mutate the model, so training semantics
/// (and determinism) are unaffected by whatever the observer does.
///
/// # Errors
///
/// [`TrainError::NonFiniteLoss`] if a minibatch loss goes NaN/Inf.
pub fn train_with_progress(
    model: &mut CircuitGps,
    samples: &[PreparedSample],
    task: Task,
    cfg: &TrainConfig,
    progress: &mut dyn FnMut(&CircuitGps, &EpochProgress),
) -> Result<TrainHistory, TrainError> {
    Ok(train_resumable(
        model,
        samples,
        cfg,
        ResumableTrain {
            task,
            resume: None,
            stop: None,
        },
        progress,
        &mut |_, _| {},
    )?
    .history)
}

/// The full training loop: [`train_with_progress`] plus resumability.
///
/// `epoch_end` receives a serializable [`TrainState`] after every epoch
/// (after `progress`); the CLI persists every N-th one as a rolling
/// snapshot. When `opts.resume` is set, the loop continues at
/// `state.epochs_done` with the restored optimizer/RNG state: because
/// the shuffle RNG only advances at epoch boundaries and per-step tape
/// seeds are pure functions of `(seed, epoch, step)`, the resumed run
/// replays the exact step sequence of an uninterrupted run — callers can
/// assert equal final metrics, and the chaos suite does.
///
/// The stop flag (`opts.stop`) is only honored between epochs: an
/// interrupt during epoch `e` lets `e` finish, reports it, and returns
/// `interrupted = true` with epoch `e`'s state. Mid-epoch the
/// model/optimizer/RNG triple is inconsistent, so there is nothing
/// cheaper that is also *correct* to snapshot.
///
/// # Errors
///
/// [`TrainError::NonFiniteLoss`] the moment a minibatch loss goes
/// NaN/Inf, *before* applying that step's gradients and before the
/// epoch's callbacks — so the model holds the last finite weights and
/// the caller's latest `epoch_end` snapshot is still a valid resume
/// point.
pub fn train_resumable(
    model: &mut CircuitGps,
    samples: &[PreparedSample],
    cfg: &TrainConfig,
    opts: ResumableTrain<'_>,
    progress: &mut dyn FnMut(&CircuitGps, &EpochProgress),
    epoch_end: &mut dyn FnMut(&CircuitGps, &TrainState),
) -> Result<TrainOutcome, TrainError> {
    let start = std::time::Instant::now();
    let task = opts.task;
    let mut opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);
    let steps_per_epoch = samples.len().div_ceil(cfg.batch_size).max(1);
    let schedule = CosineSchedule::new(
        cfg.lr,
        cfg.lr * 0.05,
        cfg.warmup,
        cfg.epochs * steps_per_epoch,
    );
    let mut history = TrainHistory::default();
    let (mut rng, start_epoch, base_seconds) = match &opts.resume {
        Some(st) => {
            opt.load_state(&st.opt[..])
                .expect("TrainState::from_bytes trial-parsed this");
            history.epoch_losses = st.epoch_losses.clone();
            (StdRng::from_state(st.rng_state), st.epochs_done, st.seconds)
        }
        None => (StdRng::seed_from_u64(cfg.seed), 0, 0.0),
    };
    let mut step = start_epoch * steps_per_epoch;
    let make_state =
        |epochs_done: usize, history: &TrainHistory, rng: &StdRng, opt: &Adam, elapsed: f64| {
            let mut opt_bytes = Vec::new();
            opt.save_state(&mut opt_bytes)
                .expect("writing to a Vec cannot fail");
            TrainState {
                task,
                seed: cfg.seed,
                epochs: cfg.epochs,
                batch_size: cfg.batch_size,
                lr: cfg.lr,
                weight_decay: cfg.weight_decay,
                epochs_done,
                epoch_losses: history.epoch_losses.clone(),
                seconds: base_seconds + elapsed,
                rng_state: rng.state(),
                opt: opt_bytes,
            }
        };
    let mut last_state = make_state(start_epoch, &history, &rng, &opt, 0.0);
    let mut interrupted = false;

    for epoch in start_epoch..cfg.epochs {
        if opts.stop.is_some_and(|s| s.load(Ordering::SeqCst)) {
            interrupted = true;
            break;
        }
        let mut order: Vec<usize> = (0..samples.len()).collect();
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f64;
        let mut seen = 0usize;

        for batch in order.chunks(cfg.batch_size) {
            let store = model.store();
            // The batch is split into a few sub-batches, each packed
            // block-diagonally onto one tape (so batch norm sees many
            // graphs); the sub-batch count is part of the training
            // semantics (BN statistics are per sub-batch). `par_map` runs
            // the sub-batches on scoped workers, so they train in
            // parallel on multicore hosts; the GEMM kernels inside them
            // are serial. Batch-norm running-stat updates are held back
            // per sub-batch and applied in sub-batch order below, so they
            // never depend on which worker finishes first.
            let n_sub = available_cores().clamp(1, batch.len().div_ceil(2).max(1));
            let sub_size = batch.len().div_ceil(n_sub);
            let chunks: Vec<(usize, &[usize])> = batch.chunks(sub_size).enumerate().collect();
            let results: Vec<(f64, GradStore, Vec<BufferUpdate>)> =
                par_map(&chunks, |&(ci, chunk)| {
                    let subs: Vec<&PreparedSample> = chunk.iter().map(|&i| &samples[i]).collect();
                    let mut grads = GradStore::new(store);
                    let (loss_val, updates) = {
                        // Inner scope: dropping the tape returns its pooled
                        // buffers before the next sub-batch records.
                        let mut tape = Tape::new(
                            store,
                            true,
                            cfg.seed ^ (ci as u64) ^ ((epoch as u64) << 24) ^ ((step as u64) << 40),
                        );
                        tape.defer_buffer_updates();
                        let loss = match task {
                            Task::LinkPrediction => model.loss_link_batch(&mut tape, &subs),
                            Task::Regression => model.loss_reg_batch(&mut tape, &subs),
                        };
                        tape.backward(loss, &mut grads);
                        (tape.value(loss).item(), tape.take_buffer_updates())
                    };
                    // Gradients of a per-sub-batch *mean* loss: reweight by
                    // sub-batch size so merging yields the full-batch mean.
                    grads.scale(subs.len() as f32);
                    (loss_val as f64 * subs.len() as f64, grads, updates)
                });

            let mut merged = GradStore::new(model.store());
            let mut batch_loss = 0.0f64;
            for (loss, g, updates) in results {
                batch_loss += loss;
                merged.merge(g);
                for u in &updates {
                    store.apply_buffer_update(u);
                }
            }
            merged.scale(1.0 / batch.len() as f32);
            merged.clip_global_norm(cfg.clip);

            // Chaos hook: inject a diverged batch to exercise the abort
            // path (`train.loss=error[@hit]`).
            if cirgps_failpoints::eval("train.loss").is_some() {
                batch_loss = f64::NAN;
            }
            // Divergence check before the optimizer step: a NaN/Inf loss
            // means the gradients are poison too, so abort while the
            // weights are still the last finite state.
            let batch_mean = batch_loss / batch.len() as f64;
            if !batch_mean.is_finite() {
                return Err(TrainError::NonFiniteLoss {
                    epoch: epoch + 1,
                    step,
                    loss: batch_mean,
                });
            }

            opt.set_lr(schedule.lr_at(step));
            opt.step(model.store_mut(), &merged);
            step += 1;
            epoch_loss += batch_loss;
            seen += batch.len();
        }

        let mean = (epoch_loss / seen.max(1) as f64) as f32;
        history.epoch_losses.push(mean);
        progress(
            model,
            &EpochProgress {
                epoch: epoch + 1,
                epochs: cfg.epochs,
                loss: mean,
                lr: schedule.lr_at(step.saturating_sub(1)),
                seconds: base_seconds + start.elapsed().as_secs_f64(),
            },
        );
        last_state = make_state(
            epoch + 1,
            &history,
            &rng,
            &opt,
            start.elapsed().as_secs_f64(),
        );
        epoch_end(model, &last_state);
        // Chaos hook: an injected abort here lands *after* the CLI's
        // snapshot callback — exactly the "killed right after epoch N"
        // scenario the resume path must survive.
        cirgps_failpoints::eval("train.epoch_end");
    }
    history.seconds = base_seconds + start.elapsed().as_secs_f64();
    Ok(TrainOutcome {
        history,
        interrupted,
        state: last_state,
    })
}

/// Pre-trains on link prediction (the meta-learning phase).
///
/// # Errors
///
/// [`TrainError::NonFiniteLoss`] if a minibatch loss goes NaN/Inf.
pub fn pretrain_link(
    model: &mut CircuitGps,
    samples: &[PreparedSample],
    cfg: &TrainConfig,
) -> Result<TrainHistory, TrainError> {
    train(model, samples, Task::LinkPrediction, cfg)
}

/// Fine-tunes for regression per [`FinetuneMode`]:
///
/// * `Scratch` — the caller passes a freshly initialized model;
/// * `HeadOnly` — freezes encoders + GPS layers first (fast convergence);
/// * `All` — trains every parameter from the pre-trained initialization.
///
/// # Errors
///
/// [`TrainError::NonFiniteLoss`] if a minibatch loss goes NaN/Inf.
pub fn finetune_regression(
    model: &mut CircuitGps,
    samples: &[PreparedSample],
    mode: FinetuneMode,
    cfg: &TrainConfig,
) -> Result<TrainHistory, TrainError> {
    finetune_regression_with_progress(model, samples, mode, cfg, &mut |_, _| {})
}

/// [`finetune_regression`] with a per-epoch progress observer (see
/// [`train_with_progress`] for the callback contract).
///
/// # Errors
///
/// [`TrainError::NonFiniteLoss`] if a minibatch loss goes NaN/Inf. The
/// model is unfrozen again even on the error path, so a head-only run
/// that diverges leaves the model usable.
pub fn finetune_regression_with_progress(
    model: &mut CircuitGps,
    samples: &[PreparedSample],
    mode: FinetuneMode,
    cfg: &TrainConfig,
    progress: &mut dyn FnMut(&CircuitGps, &EpochProgress),
) -> Result<TrainHistory, TrainError> {
    match mode {
        FinetuneMode::Scratch | FinetuneMode::All => {
            model.unfreeze_all();
        }
        FinetuneMode::HeadOnly => {
            model.freeze_backbone();
        }
    }
    let history = train_with_progress(model, samples, Task::Regression, cfg, progress);
    if mode == FinetuneMode::HeadOnly {
        model.unfreeze_all();
    }
    history
}

/// Evaluates link prediction (zero-shot when `samples` come from designs
/// unseen in training). Runs the query planner's forward step (the one
/// `predict` and `sweep` use) with one slice per core.
pub fn evaluate_link(model: &CircuitGps, samples: &[PreparedSample]) -> LinkMetrics {
    let scores = forward(model, samples, false, available_cores());
    let labels: Vec<f32> = samples.iter().map(|s| s.label).collect();
    link_metrics(&scores, &labels)
}

/// Evaluates regression, on the same forward step as [`evaluate_link`].
pub fn evaluate_regression(model: &CircuitGps, samples: &[PreparedSample]) -> RegMetrics {
    let preds = predict_regression(model, samples);
    let targets: Vec<f32> = samples.iter().map(|s| s.target).collect();
    reg_metrics(&preds, &targets)
}

/// Per-sample regression predictions (used by the energy-validation
/// flow), on the same forward step as [`evaluate_link`].
pub fn predict_regression(model: &CircuitGps, samples: &[PreparedSample]) -> Vec<f32> {
    forward(model, samples, true, available_cores())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use circuit_graph::{Edge, EdgeType, GraphBuilder, NodeType};
    use graph_pe::PeKind;
    use subgraph_sample::{SamplerConfig, SubgraphSampler, XcNormalizer};

    /// Builds a toy dataset where positives are graph-adjacent pairs with
    /// a shared neighborhood and negatives are distant pairs — separable
    /// from structure alone.
    fn toy_dataset() -> Vec<PreparedSample> {
        let mut b = GraphBuilder::new();
        // Two clusters of net-pin stars joined by a long path.
        let cluster = |b: &mut GraphBuilder, tag: &str| -> Vec<u32> {
            let hub = b.add_node(NodeType::Net, &format!("{tag}hub"));
            let mut out = vec![hub];
            for i in 0..6 {
                let p = b.add_node(NodeType::Pin, &format!("{tag}p{i}"));
                b.add_edge(hub, p, EdgeType::NetPin);
                out.push(p);
            }
            out
        };
        let c1 = cluster(&mut b, "a");
        let c2 = cluster(&mut b, "b");
        // Path between hubs.
        let mut prev = c1[0];
        for i in 0..4 {
            let mid = b.add_node(NodeType::Device, &format!("m{i}"));
            b.add_edge(prev, mid, EdgeType::DevicePin);
            prev = mid;
        }
        b.add_edge(prev, c2[0], EdgeType::DevicePin);
        let g = b.build();

        // Positive links: pin pairs within a cluster. Negatives: across.
        let mut links = Vec::new();
        for i in 1..5 {
            links.push((c1[i], c1[i + 1], 1.0f32));
            links.push((c2[i], c2[i + 1], 1.0f32));
            links.push((c1[i], c2[i], 0.0f32));
            links.push((c1[i + 1], c2[i], 0.0f32));
        }
        let injected: Vec<Edge> = links
            .iter()
            .map(|&(a, b2, _)| Edge {
                a,
                b: b2,
                ty: EdgeType::CouplingPinPin,
            })
            .collect();
        let aug = g.with_injected_links(&injected);
        let xcn = XcNormalizer::fit(&[&aug]);
        let mut sampler = SubgraphSampler::new(
            &aug,
            SamplerConfig {
                hops: 1,
                max_nodes: 64,
            },
        );
        links
            .iter()
            .map(|&(a, b2, y)| {
                let sub = sampler.enclosing_subgraph(a, b2);
                PreparedSample::new(sub, PeKind::Dspd, &xcn, y, y * 0.6)
            })
            .collect()
    }

    fn tiny_model() -> CircuitGps {
        CircuitGps::new(ModelConfig {
            hidden_dim: 16,
            pe_dim: 4,
            heads: 2,
            num_layers: 2,
            dropout: 0.0,
            ..Default::default()
        })
    }

    #[test]
    fn link_training_reduces_loss_and_separates() {
        let data = toy_dataset();
        let mut model = tiny_model();
        let cfg = TrainConfig {
            epochs: 30,
            batch_size: 8,
            lr: 5e-3,
            ..Default::default()
        };
        let hist = pretrain_link(&mut model, &data, &cfg).unwrap();
        let first = hist.epoch_losses[0];
        let last = *hist.epoch_losses.last().unwrap();
        assert!(last < first * 0.7, "loss did not drop: {first} -> {last}");
        let m = evaluate_link(&model, &data);
        assert!(m.accuracy > 0.8, "train accuracy {:.3}", m.accuracy);
        assert!(m.auc > 0.9, "train AUC {:.3}", m.auc);
    }

    #[test]
    fn regression_training_fits_targets() {
        let data = toy_dataset();
        let mut model = tiny_model();
        let cfg = TrainConfig {
            epochs: 40,
            batch_size: 8,
            lr: 5e-3,
            ..Default::default()
        };
        let hist = finetune_regression(&mut model, &data, FinetuneMode::Scratch, &cfg).unwrap();
        assert!(hist.epoch_losses.last().unwrap() < &0.2);
        let m = evaluate_regression(&model, &data);
        assert!(m.mae < 0.2, "MAE {:.3}", m.mae);
    }

    #[test]
    fn head_only_finetune_changes_only_head() {
        let data = toy_dataset();
        let mut model = tiny_model();
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 8,
            ..Default::default()
        };
        pretrain_link(&mut model, &data, &cfg).unwrap();

        // Snapshot a backbone parameter.
        let backbone_before: Vec<f32> = model
            .store()
            .iter()
            .find(|(_, name, _)| name.starts_with("gps.0.mpnn"))
            .map(|(_, _, t)| t.as_slice().to_vec())
            .unwrap();
        finetune_regression(&mut model, &data, FinetuneMode::HeadOnly, &cfg).unwrap();
        let backbone_after: Vec<f32> = model
            .store()
            .iter()
            .find(|(_, name, _)| name.starts_with("gps.0.mpnn"))
            .map(|(_, _, t)| t.as_slice().to_vec())
            .unwrap();
        assert_eq!(
            backbone_before, backbone_after,
            "backbone changed in head-only mode"
        );
    }

    #[test]
    fn training_is_deterministic() {
        let data = toy_dataset();
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 4,
            ..Default::default()
        };
        let mut m1 = tiny_model();
        let h1 = pretrain_link(&mut m1, &data, &cfg).unwrap();
        let mut m2 = tiny_model();
        let h2 = pretrain_link(&mut m2, &data, &cfg).unwrap();
        assert_eq!(h1.epoch_losses, h2.epoch_losses);
    }

    #[test]
    fn interrupted_run_resumed_matches_uninterrupted_bitwise() {
        let data = toy_dataset();
        let cfg = TrainConfig {
            epochs: 6,
            batch_size: 4,
            lr: 5e-3,
            ..Default::default()
        };

        // Reference: straight-through run.
        let mut clean = tiny_model();
        let clean_hist = train_with_progress(
            &mut clean,
            &data,
            Task::LinkPrediction,
            &cfg,
            &mut |_, _| {},
        )
        .unwrap();

        // Interrupted run: stop flag raised from the progress callback at
        // the end of epoch 3 — the loop must finish epoch 3, report it,
        // and return its state.
        let stop = AtomicBool::new(false);
        let mut partial = tiny_model();
        let outcome = train_resumable(
            &mut partial,
            &data,
            &cfg,
            ResumableTrain {
                task: Task::LinkPrediction,
                resume: None,
                stop: Some(&stop),
            },
            &mut |_, p| {
                if p.epoch == 3 {
                    stop.store(true, Ordering::SeqCst);
                }
            },
            &mut |_, _| {},
        )
        .unwrap();
        assert!(outcome.interrupted);
        assert_eq!(outcome.state.epochs_done, 3);
        assert_eq!(outcome.history.epoch_losses.len(), 3);
        assert_eq!(
            outcome.history.epoch_losses,
            clean_hist.epoch_losses[..3].to_vec()
        );

        // Resume through the wire format, as the CLI does.
        let restored = TrainState::from_bytes(&outcome.state.to_bytes()).unwrap();
        restored.check_resume(Task::LinkPrediction, &cfg).unwrap();
        let resumed = train_resumable(
            &mut partial,
            &data,
            &cfg,
            ResumableTrain {
                task: Task::LinkPrediction,
                resume: Some(restored),
                stop: None,
            },
            &mut |_, _| {},
            &mut |_, _| {},
        )
        .unwrap();
        assert!(!resumed.interrupted);
        assert_eq!(resumed.state.epochs_done, cfg.epochs);
        // Loss history must be bitwise-identical, including the restored
        // prefix.
        assert_eq!(resumed.history.epoch_losses, clean_hist.epoch_losses);
        // And the models must agree bitwise on every prediction.
        let a = predict_regression(&clean, &data);
        let b = predict_regression(&partial, &data);
        assert_eq!(a, b, "resumed model diverged from uninterrupted run");
    }

    #[test]
    fn non_finite_loss_aborts_before_poisoning_the_weights() {
        let mut data = toy_dataset();
        // One poisoned regression target is enough to NaN the batch loss.
        data[0].target = f32::NAN;
        let mut model = tiny_model();
        let before: Vec<u32> = model
            .store()
            .iter()
            .flat_map(|(_, _, t)| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
            .collect();
        // Whole dataset in one batch: the poisoned sample is in step 0.
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: data.len(),
            lr: 5e-3,
            ..Default::default()
        };
        let err = finetune_regression(&mut model, &data, FinetuneMode::Scratch, &cfg).unwrap_err();
        let TrainError::NonFiniteLoss { epoch, step, loss } = err.clone();
        assert_eq!(epoch, 1);
        assert_eq!(step, 0);
        assert!(loss.is_nan());
        assert!(err.to_string().contains("non-finite loss"), "{err}");
        // The diverged step was never applied: weights are bitwise
        // untouched, not NaN-poisoned.
        let after: Vec<u32> = model
            .store()
            .iter()
            .flat_map(|(_, _, t)| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
            .collect();
        assert_eq!(before, after, "diverged step mutated the weights");
    }

    #[test]
    fn train_state_round_trip_and_check_resume() {
        let opt = Adam::new(1e-3);
        let mut opt_bytes = Vec::new();
        opt.save_state(&mut opt_bytes).unwrap();
        let cfg = TrainConfig::default();
        let state = TrainState {
            task: Task::Regression,
            seed: cfg.seed,
            epochs: cfg.epochs,
            batch_size: cfg.batch_size,
            lr: cfg.lr,
            weight_decay: cfg.weight_decay,
            epochs_done: 2,
            epoch_losses: vec![0.5, 0.25],
            seconds: 1.75,
            rng_state: [1, 2, 3, 4],
            opt: opt_bytes,
        };
        let rt = TrainState::from_bytes(&state.to_bytes()).unwrap();
        assert_eq!(rt.task, state.task);
        assert_eq!(rt.seed, state.seed);
        assert_eq!(rt.epochs, state.epochs);
        assert_eq!(rt.batch_size, state.batch_size);
        assert_eq!(rt.lr.to_bits(), state.lr.to_bits());
        assert_eq!(rt.weight_decay.to_bits(), state.weight_decay.to_bits());
        assert_eq!(rt.epochs_done, 2);
        assert_eq!(rt.epoch_losses, state.epoch_losses);
        assert_eq!(rt.seconds, state.seconds);
        assert_eq!(rt.rng_state, state.rng_state);
        assert_eq!(rt.opt, state.opt);

        // Truncation and garbage are named errors, not panics.
        let bytes = state.to_bytes();
        assert!(TrainState::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(TrainState::from_bytes(&[]).is_err());

        // check_resume names the first mismatched flag.
        rt.check_resume(Task::Regression, &cfg).unwrap();
        let err = rt.check_resume(Task::LinkPrediction, &cfg).unwrap_err();
        assert!(err.contains("task mismatch"), "{err}");
        let err = rt
            .check_resume(
                Task::Regression,
                &TrainConfig {
                    epochs: cfg.epochs + 1,
                    ..cfg.clone()
                },
            )
            .unwrap_err();
        assert!(err.contains("--epochs"), "{err}");
        let err = rt
            .check_resume(
                Task::Regression,
                &TrainConfig {
                    seed: cfg.seed ^ 1,
                    ..cfg.clone()
                },
            )
            .unwrap_err();
        assert!(err.contains("--seed"), "{err}");
    }
}
