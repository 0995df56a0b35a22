//! Standard neural-network layers built on the autograd [`Tape`].
//!
//! Layers own only [`ParamId`]/[`BufferId`] handles; the actual weights live
//! in the shared [`ParamStore`]. Constructing a layer registers its
//! parameters under a dotted name prefix so checkpoints and freeze-by-prefix
//! fine-tuning work uniformly.

use rand::rngs::StdRng;

use crate::params::{normal_init, xavier_uniform, BufferId, ParamId, ParamStore};
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

/// Activation functions selectable in [`Mlp`] and model configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    /// Rectified linear unit (the paper's default).
    #[default]
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// No activation.
    Identity,
}

impl Activation {
    /// Applies the activation on the tape.
    pub fn apply(self, tape: &mut Tape, x: Var) -> Var {
        match self {
            Activation::Relu => tape.relu(x),
            Activation::Tanh => tape.tanh(x),
            Activation::Sigmoid => tape.sigmoid(x),
            Activation::Identity => x,
        }
    }

    /// Tape-free activation (eval mode), mutating `x` in place. Uses the
    /// same elementwise kernels as the taped ops, so results are
    /// bitwise-equal.
    pub fn infer(self, x: &mut Tensor) {
        let backend = crate::simd::Backend::active();
        match self {
            Activation::Relu => crate::infer::relu_sweep_with(backend, x.as_mut_slice()),
            Activation::Tanh => {
                for v in x.as_mut_slice() {
                    *v = v.tanh();
                }
            }
            Activation::Sigmoid => crate::infer::sigmoid_sweep_with(backend, x.as_mut_slice()),
            Activation::Identity => {}
        }
    }
}

/// Fully connected layer `y = xW + b`.
///
/// # Examples
///
/// ```
/// use cirgps_nn::{Linear, ParamStore, Tape, Tensor};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut store = ParamStore::new();
/// let lin = Linear::new(&mut store, "proj", 4, 8, true, &mut rng);
/// let mut tape = Tape::new(&store, false, 0);
/// let x = tape.input(Tensor::zeros(3, 4));
/// let y = lin.forward(&mut tape, x);
/// assert_eq!(tape.shape(y), (3, 8));
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    w: ParamId,
    b: Option<ParamId>,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a new linear layer under `name`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        bias: bool,
        rng: &mut StdRng,
    ) -> Self {
        let w = store.register(
            &format!("{name}.weight"),
            xavier_uniform(in_dim, out_dim, rng),
            true,
        );
        let b =
            bias.then(|| store.register(&format!("{name}.bias"), Tensor::zeros(1, out_dim), true));
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// The weight's [`ParamId`] (for fused multi-projection ops that
    /// read several layers' weights at once, e.g. the packed QKV GEMM).
    pub(crate) fn weight_id(&self) -> ParamId {
        self.w
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Applies the layer to an `N × in_dim` input (fused matmul + bias).
    pub fn forward(&self, tape: &mut Tape, x: Var) -> Var {
        let w = tape.param(self.w);
        let b = self.b.map(|b| tape.param(b));
        tape.linear(x, w, b)
    }

    /// Applies the layer followed by a fused ReLU (`relu(xW + b)`), saving
    /// one tape op and one output buffer versus `forward` + `relu`.
    pub fn forward_relu(&self, tape: &mut Tape, x: Var) -> Var {
        let w = tape.param(self.w);
        let b = self.b.map(|b| tape.param(b));
        tape.linear_relu(x, w, b)
    }

    /// Tape-free forward (eval mode): same fused kernel as
    /// [`Linear::forward`], reading weights straight from `params`.
    pub fn infer(&self, params: &ParamStore, x: &Tensor) -> Tensor {
        crate::infer::linear_fwd(x, params.get(self.w), self.b.map(|b| params.get(b)), false)
    }

    /// Tape-free `relu(xW + b)` (eval mode).
    pub fn infer_relu(&self, params: &ParamStore, x: &Tensor) -> Tensor {
        crate::infer::linear_fwd(x, params.get(self.w), self.b.map(|b| params.get(b)), true)
    }

    /// Tape-free `(xW + b) + dx[dst] + ex[src]` with the gathered adds
    /// fused into the GEMM's store epilogue (the GatedGCN edge update).
    pub fn infer_add_gathered2(
        &self,
        params: &ParamStore,
        x: &Tensor,
        dx: &Tensor,
        dst: &[usize],
        ex: &Tensor,
        src: &[usize],
    ) -> Tensor {
        crate::infer::linear_add_gathered2(
            x,
            params.get(self.w),
            self.b.map(|b| params.get(b)),
            dx,
            dst,
            ex,
            src,
        )
    }
}

/// Lookup table mapping integer codes to dense embeddings.
#[derive(Debug, Clone)]
pub struct Embedding {
    w: ParamId,
    num: usize,
    dim: usize,
}

impl Embedding {
    /// Registers an embedding table with `num` entries of width `dim`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        num: usize,
        dim: usize,
        rng: &mut StdRng,
    ) -> Self {
        let std = 1.0 / (dim as f32).sqrt();
        let w = store.register(
            &format!("{name}.weight"),
            normal_init(num, dim, std, rng),
            true,
        );
        Embedding { w, num, dim }
    }

    /// Number of entries in the table.
    pub fn num_embeddings(&self) -> usize {
        self.num
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Looks up a batch of codes, producing an `N × dim` matrix.
    ///
    /// # Panics
    ///
    /// Panics if any code is out of range.
    pub fn forward(&self, tape: &mut Tape, codes: &[usize]) -> Var {
        for &c in codes {
            assert!(c < self.num, "embedding code {c} out of range {}", self.num);
        }
        let w = tape.param(self.w);
        tape.gather(w, std::sync::Arc::new(codes.to_vec()))
    }

    /// The embedding table itself (for inference fast paths that operate
    /// on the table's rows instead of per-lookup rows).
    pub fn table<'p>(&self, params: &'p ParamStore) -> &'p Tensor {
        params.get(self.w)
    }

    /// Tape-free lookup (eval mode).
    ///
    /// # Panics
    ///
    /// Panics if any code is out of range.
    pub fn infer(&self, params: &ParamStore, codes: &[usize]) -> Tensor {
        for &c in codes {
            assert!(c < self.num, "embedding code {c} out of range {}", self.num);
        }
        crate::infer::gather_rows(params.get(self.w), codes)
    }
}

/// Batch normalization over the row (node/sample) dimension with running
/// statistics for evaluation mode.
#[derive(Debug, Clone)]
pub struct BatchNorm1d {
    gamma: ParamId,
    beta: ParamId,
    running_mean: BufferId,
    running_var: BufferId,
    momentum: f32,
    eps: f32,
    dim: usize,
}

impl BatchNorm1d {
    /// Registers a batch-norm layer over `dim` features.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize) -> Self {
        let gamma = store.register(&format!("{name}.gamma"), Tensor::ones(1, dim), true);
        let beta = store.register(&format!("{name}.beta"), Tensor::zeros(1, dim), true);
        let running_mean =
            store.register_buffer(&format!("{name}.running_mean"), Tensor::zeros(1, dim));
        let running_var =
            store.register_buffer(&format!("{name}.running_var"), Tensor::ones(1, dim));
        BatchNorm1d {
            gamma,
            beta,
            running_mean,
            running_var,
            momentum: 0.1,
            eps: 1e-5,
            dim,
        }
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Applies batch normalization. In training mode the running statistics
    /// are updated with momentum 0.1 (PyTorch convention).
    pub fn forward(&self, tape: &mut Tape, x: Var) -> Var {
        let gamma = tape.param(self.gamma);
        let beta = tape.param(self.beta);
        if tape.is_training() {
            let (y, mean, var) = tape.batch_norm(x, gamma, beta, self.eps, None);
            tape.momentum_update(self.running_mean, mean, self.momentum);
            tape.momentum_update(self.running_var, var, self.momentum);
            y
        } else {
            let mean = tape.params().buffer(self.running_mean);
            let var = tape.params().buffer(self.running_var);
            let (y, _, _) = tape.batch_norm(x, gamma, beta, self.eps, Some((&mean, &var)));
            y
        }
    }

    /// Fused `residual + dropout(ReLU(BN(x)), p)` as one tape op
    /// ([`Tape::bn_relu_dropout_add`]); bitwise-equal to
    /// [`BatchNorm1d::forward`] followed by ReLU, dropout and the
    /// residual add. Training normalizes by batch statistics and updates
    /// the running ones as `forward` does; eval uses the running ones
    /// and no dropout.
    pub fn forward_relu_dropout_add(&self, tape: &mut Tape, x: Var, residual: Var, p: f32) -> Var {
        let gamma = tape.param(self.gamma);
        let beta = tape.param(self.beta);
        if tape.is_training() {
            let (y, mean, var) =
                tape.bn_relu_dropout_add(x, gamma, beta, residual, self.eps, p, None);
            tape.momentum_update(self.running_mean, mean, self.momentum);
            tape.momentum_update(self.running_var, var, self.momentum);
            y
        } else {
            let mean = tape.params().buffer(self.running_mean);
            let var = tape.params().buffer(self.running_var);
            let (y, _, _) = tape.bn_relu_dropout_add(
                x,
                gamma,
                beta,
                residual,
                self.eps,
                p,
                Some((&mean, &var)),
            );
            y
        }
    }

    /// What [`BatchNorm1d::forward_relu_dropout_add`] does besides
    /// building its output, for a caller that never reads that output:
    /// in training, the running-statistics update from `x`'s batch
    /// statistics and the advance of the tape's dropout RNG past the
    /// mask's draws, so later masks, the running statistics and hence
    /// checkpoints are unchanged. Eval mode does nothing.
    pub fn skip_relu_dropout_add(&self, tape: &mut Tape, x: Var, p: f32) {
        if !tape.is_training() {
            return;
        }
        let (mean, var) =
            crate::fused::batch_stats_with(crate::simd::Backend::active(), tape.value(x));
        tape.momentum_update(self.running_mean, mean, self.momentum);
        tape.momentum_update(self.running_var, var, self.momentum);
        let len = tape.value(x).len();
        tape.skip_dropout(len, p);
    }

    /// Tape-free eval-mode forward: normalizes by the running statistics
    /// with the same per-element arithmetic as the taped eval path.
    pub fn infer(&self, params: &ParamStore, x: &Tensor) -> Tensor {
        let mean = params.buffer(self.running_mean);
        let var = params.buffer(self.running_var);
        let out = crate::infer::batch_norm_eval_fwd(
            x,
            params.get(self.gamma),
            params.get(self.beta),
            self.eps,
            &mean,
            &var,
        );
        mean.recycle();
        var.recycle();
        out
    }

    /// Fused tape-free `max(BN(x), 0) + residual` (eval mode): one output
    /// sweep, bitwise-equal to `infer` + ReLU + add.
    pub fn infer_relu_add(&self, params: &ParamStore, x: &Tensor, residual: &Tensor) -> Tensor {
        let mean = params.buffer(self.running_mean);
        let var = params.buffer(self.running_var);
        let out = crate::infer::batch_norm_eval_relu_add_fwd(
            x,
            params.get(self.gamma),
            params.get(self.beta),
            self.eps,
            &mean,
            &var,
            residual,
        );
        mean.recycle();
        var.recycle();
        out
    }

    /// Fused tape-free `BN(a + b)` (eval mode): one output sweep,
    /// bitwise-equal to adding first and normalizing after.
    pub fn infer_of_sum(&self, params: &ParamStore, a: &Tensor, b: &Tensor) -> Tensor {
        let mean = params.buffer(self.running_mean);
        let var = params.buffer(self.running_var);
        let out = crate::infer::batch_norm_eval_of_sum_fwd(
            a,
            b,
            params.get(self.gamma),
            params.get(self.beta),
            self.eps,
            &mean,
            &var,
        );
        mean.recycle();
        var.recycle();
        out
    }
}

/// Multi-layer perceptron with a shared hidden width.
///
/// The paper's GPS layer uses a 2-layer MLP block; heads use deeper stacks.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    act: Activation,
    dropout: f32,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `&[64, 128, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dims: &[usize],
        act: Activation,
        dropout: f32,
        rng: &mut StdRng,
    ) -> Self {
        assert!(
            dims.len() >= 2,
            "Mlp needs at least input and output widths"
        );
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, &format!("{name}.{i}"), w[0], w[1], true, rng))
            .collect();
        Mlp {
            layers,
            act,
            dropout,
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.layers.first().map_or(0, Linear::in_dim)
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.layers.last().map_or(0, Linear::out_dim)
    }

    /// Applies the MLP; the activation and dropout are applied between
    /// layers, not after the last one. ReLU hidden layers use the fused
    /// `linear_relu` op.
    pub fn forward(&self, tape: &mut Tape, x: Var) -> Var {
        let n = self.layers.len();
        let mut h = x;
        for (i, layer) in self.layers.iter().enumerate() {
            if i + 1 < n {
                h = if self.act == Activation::Relu {
                    layer.forward_relu(tape, h)
                } else {
                    let y = layer.forward(tape, h);
                    self.act.apply(tape, y)
                };
                h = tape.dropout(h, self.dropout);
            } else {
                h = layer.forward(tape, h);
            }
        }
        h
    }

    /// Tape-free forward (eval mode: dropout is the identity). Recycles
    /// every intermediate activation, so steady-state inference allocates
    /// nothing.
    pub fn infer(&self, params: &ParamStore, x: &Tensor) -> Tensor {
        let n = self.layers.len();
        let mut cur: Option<Tensor> = None;
        for (i, layer) in self.layers.iter().enumerate() {
            let input = cur.as_ref().unwrap_or(x);
            let next = if i + 1 < n {
                if self.act == Activation::Relu {
                    layer.infer_relu(params, input)
                } else {
                    let mut y = layer.infer(params, input);
                    self.act.infer(&mut y);
                    y
                }
            } else {
                layer.infer(params, input)
            };
            if let Some(prev) = cur.replace(next) {
                prev.recycle();
            }
        }
        cur.unwrap_or_else(|| x.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::GradStore;
    use rand::SeedableRng;

    #[test]
    fn linear_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "l", 3, 5, true, &mut rng);
        let mut tape = Tape::new(&store, false, 0);
        let x = tape.input(Tensor::zeros(7, 3));
        let y = lin.forward(&mut tape, x);
        assert_eq!(tape.shape(y), (7, 5));
    }

    #[test]
    fn linear_without_bias_has_fewer_params() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        Linear::new(&mut store, "a", 3, 5, false, &mut rng);
        assert_eq!(store.num_trainable(), 15);
        Linear::new(&mut store, "b", 3, 5, true, &mut rng);
        assert_eq!(store.num_trainable(), 35);
    }

    #[test]
    fn embedding_lookup_returns_rows() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "e", 4, 6, &mut rng);
        let mut tape = Tape::new(&store, false, 0);
        let v = emb.forward(&mut tape, &[2, 2, 0]);
        assert_eq!(tape.shape(v), (3, 6));
        let t = tape.value(v);
        assert_eq!(t.row_slice(0), t.row_slice(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn embedding_rejects_bad_code() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "e", 4, 6, &mut rng);
        let mut tape = Tape::new(&store, false, 0);
        let _ = emb.forward(&mut tape, &[4]);
    }

    #[test]
    fn batch_norm_normalizes_in_training() {
        let mut store = ParamStore::new();
        let bn = BatchNorm1d::new(&mut store, "bn", 2);
        let mut tape = Tape::new(&store, true, 0);
        let x = tape.input(Tensor::from_rows(&[
            &[1.0, 10.0],
            &[3.0, 20.0],
            &[5.0, 30.0],
        ]));
        let y = bn.forward(&mut tape, x);
        let t = tape.value(y);
        // Each column should have ~zero mean and ~unit variance.
        for c in 0..2 {
            let col: Vec<f32> = (0..3).map(|r| t.get(r, c)).collect();
            let mean: f32 = col.iter().sum::<f32>() / 3.0;
            assert!(mean.abs() < 1e-5, "column {c} mean {mean}");
        }
    }

    #[test]
    fn batch_norm_eval_uses_running_stats() {
        let mut store = ParamStore::new();
        let bn = BatchNorm1d::new(&mut store, "bn", 1);
        // Run many training steps so running stats converge to data stats.
        for _ in 0..200 {
            let mut tape = Tape::new(&store, true, 0);
            let x = tape.input(Tensor::col(&[4.0, 6.0]));
            let _ = bn.forward(&mut tape, x);
        }
        let mut tape = Tape::new(&store, false, 0);
        let x = tape.input(Tensor::col(&[5.0]));
        let y = bn.forward(&mut tape, x);
        // 5.0 is the running mean, so the normalized output should be ~0.
        assert!(tape.value(y).item().abs() < 0.05);
    }

    #[test]
    fn deferred_running_stat_updates_apply_in_caller_order() {
        let batches = [
            Tensor::from_rows(&[&[1.0, -2.0], &[3.0, 0.5], &[4.0, 7.0]]),
            Tensor::from_rows(&[&[-6.0, 2.0], &[0.25, 9.0]]),
        ];
        // Reference: sub-batches forwarded one after another.
        let mut seq = ParamStore::new();
        let bn_seq = BatchNorm1d::new(&mut seq, "bn", 2);
        for b in &batches {
            let mut tape = Tape::new(&seq, true, 0);
            let x = tape.input(b.clone());
            bn_seq.forward(&mut tape, x);
        }
        // Deferred: record in reverse (a late worker finishing first),
        // then apply in sub-batch order.
        let mut par = ParamStore::new();
        let bn_par = BatchNorm1d::new(&mut par, "bn", 2);
        let mut held: Vec<_> = batches
            .iter()
            .rev()
            .map(|b| {
                let mut tape = Tape::new(&par, true, 0);
                tape.defer_buffer_updates();
                let x = tape.input(b.clone());
                bn_par.forward(&mut tape, x);
                tape.take_buffer_updates()
            })
            .collect();
        assert_eq!(par.buffer(bn_par.running_mean), Tensor::zeros(1, 2));
        held.reverse();
        for u in held.iter().flatten() {
            par.apply_buffer_update(u);
        }
        for (a, b) in [
            (bn_seq.running_mean, bn_par.running_mean),
            (bn_seq.running_var, bn_par.running_var),
        ] {
            let (want, got) = (seq.buffer(a), par.buffer(b));
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&want), bits(&got));
        }
    }

    #[test]
    fn mlp_learns_xor_direction() {
        // Not a full training test; just check gradients flow through
        // every layer of a 3-layer MLP.
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(
            &mut store,
            "mlp",
            &[2, 8, 1],
            Activation::Relu,
            0.0,
            &mut rng,
        );
        let mut tape = Tape::new(&store, true, 0);
        let x = tape.input(Tensor::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]));
        let y = mlp.forward(&mut tape, x);
        let loss = tape.mse_loss(y, &[1.0, 1.0]);
        let mut grads = GradStore::new(&store);
        tape.backward(loss, &mut grads);
        let touched = store
            .iter()
            .filter(|(id, _, _)| grads.get(*id).is_some())
            .count();
        assert_eq!(touched, 4, "all weight+bias tensors should have grads");
    }
}
