//! `train_ssram`: `pretrain_link` with the default model and training
//! configs on the SSRAM link dataset (`max_per_type` 60). The process is
//! pinned to one core (see `main`), because the trainer sizes its
//! sub-batches by `available_parallelism`, which changes both speed and
//! the trained weights. One operation is one full training from the
//! checkpoint's weights; latency percentiles are over epochs, and the
//! first epoch of the run is the untimed warm-up.

use std::time::{Duration, Instant};

use circuitgps::{
    prepare_link_dataset, train_with_progress, CircuitGps, PreparedSample, Task, TrainConfig,
};
use cirgps_nn::{Adam, CosineSchedule, GradStore, Tape};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use subgraph_sample::{CapNormalizer, DatasetConfig, LinkDataset};

use crate::probe;
use crate::replay::{self, BatchShape};
use crate::setup;
use crate::stats;
use crate::trace::Tracer;
use crate::{Config, Inputs, Outcome};

fn train_config(cfg: &Config) -> TrainConfig {
    if cfg.smoke {
        TrainConfig {
            epochs: 4,
            batch_size: 16,
            warmup: 2,
            ..TrainConfig::default()
        }
    } else {
        TrainConfig::default()
    }
}

fn fresh_model(inputs: &Inputs) -> Result<CircuitGps, String> {
    setup::load_model(inputs, &mut Tracer::new(), 0)
}

/// One training's epoch losses and epoch wall times.
struct Training {
    losses: Vec<f32>,
    epoch_secs: Vec<f64>,
}

fn library_training(
    inputs: &Inputs,
    samples: &[PreparedSample],
    tc: &TrainConfig,
) -> Result<Training, String> {
    let mut model = fresh_model(inputs)?;
    let mut epoch_secs = Vec::with_capacity(tc.epochs);
    let mut last = Instant::now();
    let history = train_with_progress(
        &mut model,
        samples,
        Task::LinkPrediction,
        tc,
        &mut |_, _| {
            epoch_secs.push(stats::secs_since(last));
            probe::tick();
            last = Instant::now();
        },
    )
    .map_err(|e| e.to_string())?;
    Ok(Training {
        losses: history.epoch_losses,
        epoch_secs,
    })
}

/// A training is correct when every epoch loss is finite, the loss
/// falls, and the final loss has the reference's exact bits.
fn training_ok(losses: &[f32], reference_bits: Option<u32>) -> bool {
    let (Some(first), Some(last)) = (losses.first(), losses.last()) else {
        return false;
    };
    losses.iter().all(|l| l.is_finite())
        && last < first
        && reference_bits.is_none_or(|b| last.to_bits() == b)
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a set-up error message.
pub fn run(cfg: &Config, inputs: &Inputs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tr = Tracer::new();
    let per_type = if cfg.smoke { 8 } else { 60 };
    let (samples, devices, nodes, edges, mean_nodes) =
        setup::repeat(&mut out, cfg.setup_repeats(), &mut tr, |tr, round| {
            let design = setup::load_design(inputs, true, tr, round)?;
            let model = setup::load_model(inputs, tr, round)?;
            let spf = design.spf.as_ref().expect("asked for the SPF");
            let ds = tr.time("dataset.build", round, || {
                LinkDataset::build(
                    &design.netlist.name,
                    &design.graph,
                    &design.netlist,
                    &design.map,
                    spf,
                    &DatasetConfig {
                        max_per_type: per_type,
                        ..DatasetConfig::default()
                    },
                )
            });
            let cap = CapNormalizer::paper_range();
            let samples = tr.time("dataset.prepare", round, || {
                prepare_link_dataset(&ds, model.cfg.pe, &design.xcn, |c| cap.encode(c))
            });
            Ok((
                samples,
                design.netlist.num_devices(),
                design.graph.num_nodes(),
                design.graph.num_edges(),
                ds.mean_subgraph_nodes,
            ))
        })?;
    out.set("netlist.devices", devices as f64);
    out.set("graph.nodes", nodes as f64);
    out.set("graph.edges", edges as f64);
    out.set("dataset.sub_nodes_mean", mean_nodes);
    if samples.is_empty() {
        return Err("the SSRAM link dataset is empty".into());
    }
    let tc = train_config(cfg);

    // The first training's first epoch is the warm-up and goes untimed;
    // its final loss is the reference every later training must
    // reproduce bit for bit.
    let t0 = Instant::now();
    let first = library_training(inputs, &samples, &tc)?;
    out.check(training_ok(&first.losses, None));
    let final_bits = first.losses.last().map(|l| l.to_bits());
    out.note(format!(
        "train_ssram: {} samples, {} epochs, {} core(s); losses {:?}",
        samples.len(),
        tc.epochs,
        stats::nproc(),
        first.losses
    ));

    if cfg.trace {
        let lib = library_training(inputs, &samples, &tc)?;
        out.check(training_ok(&lib.losses, final_bits));
        traced(
            inputs,
            &samples,
            &tc,
            &mut out,
            &mut tr,
            lib.epoch_secs.iter().sum(),
            final_bits,
        )?;
        out.tracer = Some(tr);
        return Ok(out);
    }
    let mut epochs = first.epoch_secs[1..].to_vec();
    let mut trainings = 1;
    let mut flip = cfg.flip_output_bit;
    // Whole trainings only: stop at the count whose end lies nearest to
    // the measuring window's end, but train at least twice so the final
    // losses can be compared.
    let half_training = t0.elapsed() / 2;
    while trainings < 2 || t0.elapsed() + half_training < cfg.measure {
        let mut t = library_training(inputs, &samples, &tc)?;
        if std::mem::take(&mut flip) {
            if let Some(l) = t.losses.last_mut() {
                *l = f32::from_bits(l.to_bits() ^ 1);
            }
        }
        out.check(training_ok(&t.losses, final_bits));
        epochs.extend(t.epoch_secs);
        trainings += 1;
    }
    let n = samples.len() as f64;
    let ops: Vec<(f64, f64)> = epochs.iter().map(|&s| (s, n)).collect();
    let ms: Vec<f64> = epochs.iter().map(|s| s * 1e3).collect();
    out.set("items_per_s", stats::group_rate(&ops, 1));
    out.set("p50_ms", stats::quantile(&ms, 0.50));
    out.set("p99_ms", stats::quantile(&ms, 0.99));
    out.note(format!(
        "train_ssram: {trainings} trainings, {} epochs timed (p99 over {} samples)",
        ms.len(),
        ms.len()
    ));
    Ok(out)
}

/// The training loop rebuilt from its public parts — `Tape` forward
/// (`loss_link_batch`), `Tape::backward` and `Adam::step` — each under a
/// span carrying the step number, following `train_resumable` step for
/// step so the final loss must match the library's bit for bit.
fn traced(
    inputs: &Inputs,
    samples: &[PreparedSample],
    tc: &TrainConfig,
    out: &mut Outcome,
    tr: &mut Tracer,
    lib_secs: f64,
    final_bits: Option<u32>,
) -> Result<(), String> {
    let mut model = fresh_model(inputs)?;
    let mut opt = Adam::new(tc.lr).with_weight_decay(tc.weight_decay);
    let steps_per_epoch = samples.len().div_ceil(tc.batch_size).max(1);
    let schedule = CosineSchedule::new(tc.lr, tc.lr * 0.05, tc.warmup, tc.epochs * steps_per_epoch);
    let mut rng = StdRng::seed_from_u64(tc.seed);
    let threads = stats::nproc();
    let (mut fwd, mut bwd, mut optim) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut step = 0usize;
    let mut sub_batches = 0usize;
    let mut losses = Vec::with_capacity(tc.epochs);
    let mut shapes = Vec::new();
    let mut busy = Duration::ZERO;
    for epoch in 0..tc.epochs {
        let mut order: Vec<usize> = (0..samples.len()).collect();
        order.shuffle(&mut rng);
        let (mut epoch_loss, mut seen) = (0.0f64, 0usize);
        for batch in order.chunks(tc.batch_size) {
            let started = Instant::now();
            let n_sub = threads.clamp(1, batch.len().div_ceil(2).max(1));
            let sub_size = batch.len().div_ceil(n_sub);
            let mut merged = GradStore::new(model.store());
            let mut batch_loss = 0.0f64;
            let mut subs_seen = Vec::new();
            for (ci, chunk) in batch.chunks(sub_size).enumerate() {
                let subs: Vec<&PreparedSample> = chunk.iter().map(|&i| &samples[i]).collect();
                let store = model.store();
                let mut grads = GradStore::new(store);
                let seed = tc.seed ^ (ci as u64) ^ ((epoch as u64) << 24) ^ ((step as u64) << 40);
                let mut tape = Tape::new(store, true, seed);
                let t = Instant::now();
                let loss = model.loss_link_batch(&mut tape, &subs);
                let dt = t.elapsed();
                tr.record("tape.forward", step as u64, t, dt, 1);
                fwd += dt;
                let t = Instant::now();
                tape.backward(loss, &mut grads);
                let dt = t.elapsed();
                tr.record("tape.backward", step as u64, t, dt, 1);
                bwd += dt;
                let loss_val = tape.value(loss).item();
                drop(tape);
                grads.scale(subs.len() as f32);
                batch_loss += f64::from(loss_val) * subs.len() as f64;
                merged.merge(grads);
                sub_batches += 1;
                subs_seen.push(subs);
            }
            merged.scale(1.0 / batch.len() as f32);
            merged.clip_global_norm(tc.clip);
            let t = Instant::now();
            opt.set_lr(schedule.lr_at(step));
            opt.step(model.store_mut(), &merged);
            let dt = t.elapsed();
            tr.record("optim.step", step as u64, t, dt, 1);
            optim += dt;
            busy += started.elapsed();
            if epoch == 0 {
                shapes.extend(subs_seen.iter().map(|s| BatchShape::of(s, false)));
            }
            step += 1;
            epoch_loss += batch_loss;
            seen += batch.len();
        }
        losses.push((epoch_loss / seen.max(1) as f64) as f32);
    }
    if !training_ok(&losses, final_bits) {
        out.note(format!(
            "train_ssram trace: the traced loop diverged from pretrain_link (losses {losses:?})"
        ));
    }
    out.check(training_ok(&losses, final_bits));
    let steps = step as f64;
    let per_step = |d: Duration| d.as_secs_f64() * 1e3 / steps;
    out.set("train.steps", steps);
    out.set("train.sub_batches", sub_batches as f64 / steps);
    out.set("tape.forward_ms", per_step(fwd));
    out.set("tape.backward_ms", per_step(bwd));
    out.set("optim.step_ms", per_step(optim));
    let branches = replay::replay_all(&model.cfg, &shapes, 64);
    replay::record(out, &branches, steps_per_epoch as f64);
    let rep = busy.as_secs_f64();
    out.set("trace.overhead_pct", (rep - lib_secs) / lib_secs * 100.0);
    let attributed = (fwd + bwd + optim).as_secs_f64();
    out.set("trace.unattributed_pct", (rep - attributed) / rep * 100.0);
    Ok(())
}
