//! Optimizers and learning-rate schedules.

use std::io::{self, Read, Write};

use crate::params::{read_tensor, read_u64, write_tensor, write_u64, GradStore, ParamStore};
use crate::tensor::Tensor;

/// Adam / AdamW optimizer (Kingma & Ba 2015; decoupled weight decay per
/// Loshchilov & Hutter 2019 when `weight_decay > 0`).
///
/// # Examples
///
/// ```
/// use cirgps_nn::{Adam, GradStore, ParamStore, Tensor};
///
/// let mut store = ParamStore::new();
/// let w = store.register("w", Tensor::ones(1, 1), true);
/// let mut opt = Adam::new(0.1);
/// let mut grads = GradStore::new(&store);
/// grads.accumulate(w, &Tensor::scalar(1.0));
/// opt.step(&mut store, &grads);
/// assert!(store.get(w).item() < 1.0);
/// ```
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    m: Vec<Option<Tensor>>,
    v: Vec<Option<Tensor>>,
}

impl Adam {
    /// Creates Adam with the given learning rate and default betas
    /// `(0.9, 0.999)`.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Sets decoupled weight decay (AdamW).
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Sets the learning rate (used by schedulers between steps).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Serializes the optimizer's *mutable* state — the step counter and
    /// the first/second moment estimates — so a resumed training run
    /// continues bitwise where it stopped. Hyperparameters (lr, betas,
    /// weight decay) are NOT serialized: they come from the training
    /// config, and the lr is overwritten by the schedule every step.
    ///
    /// Layout (little-endian, no magic — callers embed this in their own
    /// container): `t: u64`, `len: u64`, then `len` slots of
    /// `present: u8` followed, when `present == 1`, by a
    /// `(rows, cols, f32 data)` tensor record for `m` and another for
    /// `v`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn save_state<W: Write>(&self, mut w: W) -> io::Result<()> {
        write_u64(&mut w, self.t)?;
        write_u64(&mut w, self.m.len() as u64)?;
        for (m, v) in self.m.iter().zip(&self.v) {
            match (m, v) {
                (Some(m), Some(v)) => {
                    w.write_all(&[1])?;
                    write_tensor(&mut w, m)?;
                    write_tensor(&mut w, v)?;
                }
                _ => w.write_all(&[0])?,
            }
        }
        Ok(())
    }

    /// Restores state written by [`Adam::save_state`], replacing this
    /// optimizer's step counter and moment estimates.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the reader fails or the payload is
    /// malformed (e.g. truncated, or an absurd slot count).
    pub fn load_state<R: Read>(&mut self, mut r: R) -> io::Result<()> {
        let t = read_u64(&mut r)?;
        let len = read_u64(&mut r)? as usize;
        if len > 1 << 24 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "unreasonable optimizer slot count",
            ));
        }
        let mut m = Vec::with_capacity(len);
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            let mut present = [0u8; 1];
            r.read_exact(&mut present)?;
            match present[0] {
                0 => {
                    m.push(None);
                    v.push(None);
                }
                1 => {
                    m.push(Some(read_tensor(&mut r)?));
                    v.push(Some(read_tensor(&mut r)?));
                }
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("bad optimizer slot tag {other}"),
                    ));
                }
            }
        }
        self.t = t;
        self.m = m;
        self.v = v;
        Ok(())
    }

    /// Applies one update step. Parameters without gradients, and frozen
    /// parameters, are left untouched.
    pub fn step(&mut self, store: &mut ParamStore, grads: &GradStore) {
        if self.m.len() < store.len() {
            self.m.resize_with(store.len(), || None);
            self.v.resize_with(store.len(), || None);
        }
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        let ids: Vec<_> = store.iter().map(|(id, _, _)| id).collect();
        for id in ids {
            if !store.is_trainable(id) {
                continue;
            }
            let Some(g) = grads.get(id) else { continue };
            let shape = store.get(id).shape();
            let m = self.m[id_index(id)].get_or_insert_with(|| Tensor::zeros(shape.0, shape.1));
            let v = self.v[id_index(id)].get_or_insert_with(|| Tensor::zeros(shape.0, shape.1));
            let (b1, b2, eps, lr, wd) =
                (self.beta1, self.beta2, self.eps, self.lr, self.weight_decay);
            let gs = g.as_slice();
            // `grads` and `store` are disjoint structs, so the gradient can
            // be read while the parameter is updated — no copy needed.
            let p = store.get_mut(id);
            for (((pi, &gi), mi), vi) in p
                .as_mut_slice()
                .iter_mut()
                .zip(gs)
                .zip(m.as_mut_slice())
                .zip(v.as_mut_slice())
            {
                *mi = b1 * *mi + (1.0 - b1) * gi;
                *vi = b2 * *vi + (1.0 - b2) * gi * gi;
                let mhat = *mi / b1t;
                let vhat = *vi / b2t;
                let mut update = lr * mhat / (vhat.sqrt() + eps);
                if wd > 0.0 {
                    update += lr * wd * *pi;
                }
                *pi -= update;
            }
        }
    }
}

fn id_index(id: crate::params::ParamId) -> usize {
    // ParamId is an index newtype; this helper keeps the field private.
    id.0
}

/// Cosine-annealing learning-rate schedule with linear warmup, as used by
/// GraphGPS configs.
#[derive(Debug, Clone, Copy)]
pub struct CosineSchedule {
    base_lr: f32,
    min_lr: f32,
    warmup_steps: usize,
    total_steps: usize,
}

impl CosineSchedule {
    /// Creates a schedule ramping to `base_lr` over `warmup_steps` and
    /// annealing to `min_lr` at `total_steps`.
    pub fn new(base_lr: f32, min_lr: f32, warmup_steps: usize, total_steps: usize) -> Self {
        CosineSchedule {
            base_lr,
            min_lr,
            warmup_steps,
            total_steps,
        }
    }

    /// Learning rate at `step` (0-based).
    pub fn lr_at(&self, step: usize) -> f32 {
        if self.warmup_steps > 0 && step < self.warmup_steps {
            return self.base_lr * (step + 1) as f32 / self.warmup_steps as f32;
        }
        let progress = if self.total_steps <= self.warmup_steps {
            1.0
        } else {
            ((step - self.warmup_steps) as f32 / (self.total_steps - self.warmup_steps) as f32)
                .min(1.0)
        };
        let cos = 0.5 * (1.0 + (std::f32::consts::PI * progress).cos());
        self.min_lr + (self.base_lr - self.min_lr) * cos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::xavier_uniform;
    use crate::tape::Tape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn adam_minimizes_quadratic() {
        // Minimize ||w - target||² — Adam should converge quickly.
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let w = store.register("w", xavier_uniform(1, 4, &mut rng), true);
        let target = [0.3f32, -0.7, 1.2, 0.0];
        let mut opt = Adam::new(0.05);
        for _ in 0..300 {
            let mut grads = GradStore::new(&store);
            {
                let mut tape = Tape::new(&store, true, 0);
                let wv = tape.param(w);
                let loss = tape.mse_loss(wv, &target);
                tape.backward(loss, &mut grads);
            }
            opt.step(&mut store, &grads);
        }
        for (got, want) in store.get(w).as_slice().iter().zip(&target) {
            assert!((got - want).abs() < 1e-2, "got {got}, want {want}");
        }
    }

    #[test]
    fn adam_skips_frozen_params() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::row(&[1.0]), false);
        let mut grads = GradStore::new(&store);
        grads.accumulate(w, &Tensor::row(&[10.0]));
        let mut opt = Adam::new(0.1);
        opt.step(&mut store, &grads);
        assert_eq!(store.get(w).item(), 1.0);
    }

    #[test]
    fn adam_state_round_trip_resumes_bitwise() {
        // Two stores driven by the identical gradient sequence: A steps
        // straight through, B snapshots its optimizer halfway, restores
        // into a FRESH Adam, and continues. Divergence would mean the
        // moment estimates or step counter weren't fully captured.
        let grad_at =
            |step: usize| Tensor::row(&[0.1 + 0.03 * step as f32, -0.2, 0.05 * step as f32]);
        let mut store_a = ParamStore::new();
        let wa = store_a.register("w", Tensor::ones(1, 3), true);
        let mut store_b = ParamStore::new();
        let wb = store_b.register("w", Tensor::ones(1, 3), true);
        let mut opt_a = Adam::new(0.02).with_weight_decay(0.01);
        let mut opt_b = Adam::new(0.02).with_weight_decay(0.01);
        let do_step = |store: &mut ParamStore, opt: &mut Adam, id, step: usize| {
            let mut grads = GradStore::new(store);
            grads.accumulate(id, &grad_at(step));
            opt.step(store, &grads);
        };
        for step in 0..10 {
            do_step(&mut store_a, &mut opt_a, wa, step);
            do_step(&mut store_b, &mut opt_b, wb, step);
        }
        let mut state = Vec::new();
        opt_b.save_state(&mut state).unwrap();
        let mut opt_b2 = Adam::new(0.02).with_weight_decay(0.01);
        opt_b2.load_state(&state[..]).unwrap();
        for step in 10..20 {
            do_step(&mut store_a, &mut opt_a, wa, step);
            do_step(&mut store_b, &mut opt_b2, wb, step);
        }
        for (a, b) in store_a
            .get(wa)
            .as_slice()
            .iter()
            .zip(store_b.get(wb).as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits(), "resumed optimizer diverged");
        }
        // Truncated state is a clean error, not a partial restore.
        assert!(Adam::new(0.02)
            .load_state(&state[..state.len() / 2])
            .is_err());
    }

    #[test]
    fn cosine_schedule_shape() {
        let s = CosineSchedule::new(1.0, 0.1, 10, 110);
        assert!(s.lr_at(0) < s.lr_at(9));
        assert!((s.lr_at(9) - 1.0).abs() < 0.11);
        assert!((s.lr_at(10) - 1.0).abs() < 1e-5);
        assert!((s.lr_at(110) - 0.1).abs() < 1e-4);
        assert!(s.lr_at(60) > 0.1 && s.lr_at(60) < 1.0);
        // Never below min_lr even past the end.
        assert!(s.lr_at(10_000) >= 0.1 - 1e-6);
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::row(&[1.0]), true);
        let mut grads = GradStore::new(&store);
        grads.accumulate(w, &Tensor::row(&[0.0]));
        let mut opt = Adam::new(0.1).with_weight_decay(0.5);
        opt.step(&mut store, &grads);
        assert!(store.get(w).item() < 1.0);
    }
}
