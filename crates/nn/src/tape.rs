//! Reverse-mode automatic differentiation on a per-sample tape.
//!
//! A [`Tape`] is a flat arena of operations built during a forward pass.
//! Variables are plain indices ([`Var`]), so there are no reference cycles
//! and no interior mutability during the forward pass; a tape borrows the
//! [`ParamStore`] immutably, which lets minibatch samples run on worker
//! threads in parallel. Calling [`Tape::backward`] walks the arena in
//! reverse and accumulates parameter gradients into a [`GradStore`].
//!
//! ## Buffer recycling
//!
//! Every tensor the tape creates draws its backing store from the
//! thread-local pool ([`crate::pool`]). Dropping (or [`Tape::reset`]ing)
//! the tape returns all of those buffers, so in steady-state training —
//! same model, same batch shapes — forward and backward passes perform
//! zero heap allocation per op. The backward pass recycles each upstream
//! gradient as soon as it has been consumed.
//!
//! ## Fused and in-place ops
//!
//! [`Tape::linear`] and [`Tape::linear_relu`] fuse matmul + bias
//! (+ activation) into one op, halving tape traffic on the model's hot
//! path. The `*_inplace` variants (e.g. [`Tape::add_inplace`],
//! [`Tape::relu_inplace`]) *consume* the buffer of their first operand
//! instead of allocating: the consumed [`Var`]'s value becomes
//! unreadable (reading it panics), so they must only be used when the
//! operand is not referenced again — which the layer implementations in
//! this crate guarantee.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::fused::{
    batch_stats_with, bn_backward_with, bn_relu_dropout_add_with, edge_hat_backward,
    fill_dropout_mask, gated_aggregate_backward, skip_dropout_mask, BnGrad,
};
use crate::infer::{
    add_gathered2_inplace, block_slice, block_write, colvec_zip, concat_cols as concat_cols_fwd,
    exp_sweep_with, gated_scatter, gather_rows, linear_fwd, mha_block_diag_fwd,
    performer_block_diag_bwd, performer_block_diag_fwd, qkv_pack_weights, row_sum_fwd,
    scatter_add_rows, sigmoid_sweep_with, softmax_rows_fwd, stable_sigmoid,
};
use crate::params::{BufferId, BufferUpdate, GradStore, ParamId, ParamStore};
use crate::pool;
use crate::simd::Backend;
use crate::tensor::{fast_exp, gemm_abt, gemm_atb, Tensor};

/// Handle to a value on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

#[derive(Debug)]
enum Val {
    Owned(Tensor),
    Param(ParamId),
    /// Buffer taken by an in-place op; reading the value panics.
    Consumed,
}

// `Gather.1` and `ScatterAdd.2` are recorded for Debug/audit but not read
// on the backward path (gradients re-derive them from the output shape).
#[allow(dead_code)]
#[derive(Debug)]
enum Op {
    /// Constant input; gradient is not propagated past it.
    Input,
    /// Reference to a model parameter; backward accumulates into the grad store.
    Param(ParamId),
    Matmul(Var, Var),
    /// Fused `x·W (+ b)` — one op instead of matmul + add_bias.
    Linear {
        x: Var,
        w: Var,
        b: Option<Var>,
    },
    /// Fused `relu(x·W (+ b))`.
    LinearRelu {
        x: Var,
        w: Var,
        b: Option<Var>,
    },
    Add(Var, Var),
    /// `N×d` matrix plus a `1×d` row vector broadcast over rows.
    AddBias(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Div(Var, Var),
    Scale(Var, f32),
    AddScalar(Var, f32),
    Relu(Var),
    Sigmoid(Var),
    Exp(Var),
    SoftmaxRows(Var),
    Transpose(Var),
    ConcatCols(Vec<Var>),
    ColSlice(Var, usize, usize),
    /// `out[i] = x[idx[i]]` (row gather).
    Gather(Var, Arc<Vec<usize>>),
    /// `out[idx[i]] += x[i]` into `n_out` rows (row scatter-add).
    ScatterAdd(Var, Arc<Vec<usize>>, usize),
    /// `N×1` sum over columns of each row.
    RowSum(Var),
    /// `N×d ⊙ N×1` broadcast across columns.
    MulColVec(Var, Var),
    /// `N×d − N×1` broadcast across columns.
    SubColVec(Var, Var),
    Dropout(Var, Arc<Vec<f32>>),
    BatchNorm {
        x: Var,
        gamma: Var,
        beta: Var,
        xhat: Tensor,
        invstd: Tensor,
    },
    /// GatedGCN edge assembly `ce + dx[dst] + ex[src]`.
    EdgeHat {
        ce: Var,
        dx: Var,
        ex: Var,
        dst: Arc<Vec<usize>>,
        src: Arc<Vec<usize>>,
    },
    /// GatedGCN gated aggregation `Σ σ(ê) ⊙ bx[src] / (Σ σ(ê) + ε)`
    /// into the destination rows; `den` is the saved denominator.
    GatedAggregate {
        e_hat: Var,
        bx: Var,
        src: Arc<Vec<usize>>,
        dst: Arc<Vec<usize>>,
        den: Tensor,
    },
    /// `residual + dropout(ReLU(BN(x)))`; `x̂` is recomputed from `x` in
    /// the backward, so only the statistics and the mask are saved.
    BnReluDropoutAdd {
        x: Var,
        gamma: Var,
        beta: Var,
        residual: Var,
        mean: Tensor,
        invstd: Tensor,
        mask: Option<Vec<f32>>,
    },
    BceWithLogits(Var, Arc<Vec<f32>>),
    MseLoss(Var, Arc<Vec<f32>>),
    L1Loss(Var, Arc<Vec<f32>>),
    CrossEntropy {
        logits: Var,
        labels: Arc<Vec<usize>>,
        softmax: Tensor,
    },
    /// Fused QKV projection: one GEMM against the packed `[Wq|Wk|Wv]`
    /// weight (stored for the backward) producing an `N × 3d` output.
    LinearQkv {
        x: Var,
        wq: Var,
        wk: Var,
        wv: Var,
        wcat: Tensor,
    },
    /// Fused block-diagonal multi-head softmax attention over a packed
    /// `N × 3d` QKV matrix. `attn` holds the per-block per-head
    /// attention probabilities (block-major) for the fused backward.
    AttnBlockDiag {
        qkv: Var,
        blocks: Arc<Vec<(usize, usize)>>,
        heads: usize,
        head_dim: usize,
        attn: Vec<Tensor>,
    },
    /// Fused block-diagonal Performer (FAVOR+) attention over a packed
    /// `N × 3d` QKV matrix. `phi_q`/`phi_k` hold the per-head feature
    /// maps (`N × features`) for the fused backward; the random
    /// projection `proj` is frozen by construction, so no gradient is
    /// propagated to it.
    PerformerBlockDiag {
        qkv: Var,
        proj: ParamId,
        blocks: Arc<Vec<(usize, usize)>>,
        heads: usize,
        head_dim: usize,
        features: usize,
        phi_q: Vec<Tensor>,
        phi_k: Vec<Tensor>,
    },
}

/// Forward-pass recorder and reverse-mode differentiator.
///
/// # Examples
///
/// ```
/// use cirgps_nn::{GradStore, ParamStore, Tape, Tensor, xavier_uniform};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut store = ParamStore::new();
/// let w = store.register("w", xavier_uniform(2, 1, &mut rng), true);
///
/// let mut tape = Tape::new(&store, true, 0);
/// let x = tape.input(Tensor::from_rows(&[&[1.0, 2.0]]));
/// let wv = tape.param(w);
/// let y = tape.matmul(x, wv);
/// let loss = tape.mse_loss(y, &[0.5]);
///
/// let mut grads = GradStore::new(&store);
/// tape.backward(loss, &mut grads);
/// assert!(grads.get(w).is_some());
/// ```
#[derive(Debug)]
pub struct Tape<'p> {
    params: &'p ParamStore,
    vals: Vec<Val>,
    ops: Vec<Op>,
    /// Shape per var, recorded at push time so [`Tape::shape`] works even
    /// for values consumed by in-place ops.
    shapes: Vec<(usize, usize)>,
    training: bool,
    rng: StdRng,
    /// State-buffer updates held back since
    /// [`Tape::defer_buffer_updates`]; `None` applies them at once.
    deferred: Option<Vec<BufferUpdate>>,
}

impl<'p> Tape<'p> {
    /// Creates a tape over `params`. `training` controls dropout and
    /// batch-norm statistics; `seed` makes dropout masks reproducible.
    pub fn new(params: &'p ParamStore, training: bool, seed: u64) -> Self {
        Tape {
            params,
            vals: Vec::new(),
            ops: Vec::new(),
            shapes: Vec::new(),
            training,
            rng: StdRng::seed_from_u64(seed),
            deferred: None,
        }
    }

    /// Holds back state-buffer updates (batch-norm running statistics)
    /// instead of applying them during the forward pass; collect them
    /// with [`Tape::take_buffer_updates`]. Training that records several
    /// tapes on worker threads applies the collected updates in
    /// sub-batch order, so the running statistics do not depend on
    /// which thread finishes first.
    pub fn defer_buffer_updates(&mut self) {
        self.deferred.get_or_insert_with(Vec::new);
    }

    /// Records `buf ← (1 − momentum)·buf + momentum·stat` for a state
    /// buffer: applied to the store now, or held back if
    /// [`Tape::defer_buffer_updates`] was called.
    pub fn momentum_update(&mut self, id: BufferId, stat: Tensor, momentum: f32) {
        let u = BufferUpdate { id, stat, momentum };
        match &mut self.deferred {
            Some(held) => held.push(u),
            None => self.params.apply_buffer_update(&u),
        }
    }

    /// Removes and returns the held-back buffer updates, in the order the
    /// forward pass recorded them.
    pub fn take_buffer_updates(&mut self) -> Vec<BufferUpdate> {
        self.deferred
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Whether the tape is in training mode.
    pub fn is_training(&self) -> bool {
        self.training
    }

    /// The parameter store the tape reads from.
    pub fn params(&self) -> &ParamStore {
        self.params
    }

    /// Value of a variable.
    ///
    /// # Panics
    ///
    /// Panics if the variable's buffer was consumed by an in-place op.
    pub fn value(&self, v: Var) -> &Tensor {
        match &self.vals[v.0] {
            Val::Owned(t) => t,
            Val::Param(id) => self.params.get(*id),
            Val::Consumed => panic!(
                "value of var {} was consumed by an in-place op and can no longer be read",
                v.0
            ),
        }
    }

    /// Shape of a variable (available even for consumed values).
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.shapes[v.0]
    }

    /// Clears the tape for reuse, returning every buffer it owns to the
    /// thread-local pool. The training flag and RNG state are kept.
    pub fn reset(&mut self) {
        self.recycle_storage();
    }

    fn recycle_storage(&mut self) {
        for v in self.vals.drain(..) {
            if let Val::Owned(t) = v {
                t.recycle();
            }
        }
        for op in self.ops.drain(..) {
            match op {
                Op::BatchNorm { xhat, invstd, .. } => {
                    xhat.recycle();
                    invstd.recycle();
                }
                Op::GatedAggregate { den, .. } => den.recycle(),
                Op::BnReluDropoutAdd {
                    mean, invstd, mask, ..
                } => {
                    mean.recycle();
                    invstd.recycle();
                    if let Some(m) = mask {
                        pool::put(m);
                    }
                }
                Op::CrossEntropy { softmax, .. } => softmax.recycle(),
                Op::LinearQkv { wcat, .. } => wcat.recycle(),
                Op::AttnBlockDiag { attn, .. } => {
                    for a in attn {
                        a.recycle();
                    }
                }
                Op::PerformerBlockDiag { phi_q, phi_k, .. } => {
                    for t in phi_q.into_iter().chain(phi_k) {
                        t.recycle();
                    }
                }
                // The mask is pool-backed; reclaim it unless a clone of the
                // Arc escaped the tape.
                Op::Dropout(_, mask) => {
                    if let Ok(m) = Arc::try_unwrap(mask) {
                        pool::put(m);
                    }
                }
                _ => {}
            }
        }
        self.shapes.clear();
    }

    fn push(&mut self, val: Tensor, op: Op) -> Var {
        self.shapes.push(val.shape());
        self.vals.push(Val::Owned(val));
        self.ops.push(op);
        Var(self.vals.len() - 1)
    }

    /// Takes the owned buffer of `v` (for in-place ops), leaving the var
    /// unreadable. Returns `None` for params and already-consumed vars.
    fn take_owned(&mut self, v: Var) -> Option<Tensor> {
        match &mut self.vals[v.0] {
            slot @ Val::Owned(_) => match std::mem::replace(slot, Val::Consumed) {
                Val::Owned(t) => Some(t),
                _ => unreachable!(),
            },
            _ => None,
        }
    }

    /// Registers a constant input tensor.
    pub fn input(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Input)
    }

    /// Brings a model parameter onto the tape (no copy).
    pub fn param(&mut self, id: ParamId) -> Var {
        self.shapes.push(self.params.get(id).shape());
        self.vals.push(Val::Param(id));
        self.ops.push(Op::Param(id));
        Var(self.vals.len() - 1)
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul(self.value(b));
        self.push(v, Op::Matmul(a, b))
    }

    /// Fused linear layer `x·W (+ b)`: one tape op, one output buffer.
    ///
    /// The bias (when present) seeds the output before the GEMM
    /// accumulates onto it, so no separate broadcast op is recorded.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch (`b` must be `1×n` when given).
    pub fn linear(&mut self, x: Var, w: Var, b: Option<Var>) -> Var {
        let out = self.linear_forward(x, w, b, false);
        self.push(out, Op::Linear { x, w, b })
    }

    /// Fused `relu(x·W (+ b))`.
    pub fn linear_relu(&mut self, x: Var, w: Var, b: Option<Var>) -> Var {
        let out = self.linear_forward(x, w, b, true);
        self.push(out, Op::LinearRelu { x, w, b })
    }

    fn linear_forward(&self, x: Var, w: Var, b: Option<Var>, relu: bool) -> Tensor {
        // Shared with the tape-free inference path (bitwise-equal by
        // construction; see crate::infer).
        linear_fwd(
            self.value(x),
            self.value(w),
            b.map(|bvar| self.value(bvar)),
            relu,
        )
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).add(self.value(b));
        self.push(v, Op::Add(a, b))
    }

    /// Elementwise sum that consumes `a`'s buffer (no allocation).
    ///
    /// After this call, `value(a)` panics — use only when `a` is not
    /// referenced again. Falls back to [`Tape::add`] when `a` is a
    /// parameter or aliases `b`.
    pub fn add_inplace(&mut self, a: Var, b: Var) -> Var {
        if a == b {
            return self.add(a, b);
        }
        match self.take_owned(a) {
            Some(mut t) => {
                t.add_assign(self.value(b));
                self.push(t, Op::Add(a, b))
            }
            None => self.add(a, b),
        }
    }

    /// `N×d` matrix plus `1×d` bias row, broadcast over rows.
    ///
    /// # Panics
    ///
    /// Panics if `b` is not `1×d` with matching `d`.
    pub fn add_bias(&mut self, a: Var, b: Var) -> Var {
        let out = {
            let av = self.value(a);
            let (n, d) = av.shape();
            let bv = self.value(b);
            assert_eq!(bv.shape(), (1, d), "bias must be 1x{d}");
            let mut out = pool::take_capacity(n * d);
            for r in 0..n {
                out.extend(
                    av.row_slice(r)
                        .iter()
                        .zip(bv.as_slice())
                        .map(|(&x, &y)| x + y),
                );
            }
            Tensor::from_vec(n, d, out)
        };
        self.push(out, Op::AddBias(a, b))
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).sub(self.value(b));
        self.push(v, Op::Sub(a, b))
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).mul(self.value(b));
        self.push(v, Op::Mul(a, b))
    }

    /// Elementwise quotient.
    pub fn div(&mut self, a: Var, b: Var) -> Var {
        let v = {
            let av = self.value(a);
            let bv = self.value(b);
            assert_eq!(av.shape(), bv.shape(), "div shape mismatch");
            let mut data = pool::take_capacity(av.len());
            data.extend(
                av.as_slice()
                    .iter()
                    .zip(bv.as_slice())
                    .map(|(&x, &y)| x / y),
            );
            Tensor::from_vec(av.rows(), av.cols(), data)
        };
        self.push(v, Op::Div(a, b))
    }

    /// Multiplies by a scalar constant.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let v = self.value(a).scale(s);
        self.push(v, Op::Scale(a, s))
    }

    /// Scalar multiply that consumes `a`'s buffer (no allocation).
    ///
    /// Same aliasing contract as [`Tape::add_inplace`].
    pub fn scale_inplace(&mut self, a: Var, s: f32) -> Var {
        match self.take_owned(a) {
            Some(mut t) => {
                for v in t.as_mut_slice() {
                    *v *= s;
                }
                self.push(t, Op::Scale(a, s))
            }
            None => self.scale(a, s),
        }
    }

    /// Adds a scalar constant.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let v = self.value(a).map(|x| x + s);
        self.push(v, Op::AddScalar(a, s))
    }

    /// Scalar add that consumes `a`'s buffer (no allocation).
    ///
    /// Same aliasing contract as [`Tape::add_inplace`].
    pub fn add_scalar_inplace(&mut self, a: Var, s: f32) -> Var {
        match self.take_owned(a) {
            Some(mut t) => {
                for v in t.as_mut_slice() {
                    *v += s;
                }
                self.push(t, Op::AddScalar(a, s))
            }
            None => self.add_scalar(a, s),
        }
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| x.max(0.0));
        self.push(v, Op::Relu(a))
    }

    /// ReLU that consumes `a`'s buffer (no allocation). The backward pass
    /// masks by the *output* sign, which is equivalent to masking by the
    /// input sign, so no input copy is needed.
    ///
    /// Same aliasing contract as [`Tape::add_inplace`].
    pub fn relu_inplace(&mut self, a: Var) -> Var {
        match self.take_owned(a) {
            Some(mut t) => {
                for v in t.as_mut_slice() {
                    *v = v.max(0.0);
                }
                self.push(t, Op::Relu(a))
            }
            None => self.relu(a),
        }
    }

    /// Logistic sigmoid (the dispatched sweep inference runs, bitwise-equal
    /// to `map(stable_sigmoid)` on every backend).
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let mut v = self.value(a).clone();
        sigmoid_sweep_with(Backend::active(), v.as_mut_slice());
        self.push(v, Op::Sigmoid(a))
    }

    /// Elementwise exponential (vectorized polynomial, rel. error < 1e-6;
    /// the dispatched sweep, bitwise-equal to `map(fast_exp)`).
    pub fn exp(&mut self, a: Var) -> Var {
        let mut v = self.value(a).clone();
        exp_sweep_with(Backend::active(), v.as_mut_slice());
        self.push(v, Op::Exp(a))
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let out = softmax_rows_fwd(self.value(a));
        self.push(out, Op::SoftmaxRows(a))
    }

    /// Transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let v = self.value(a).transpose();
        self.push(v, Op::Transpose(a))
    }

    /// Concatenates along columns (all inputs must share a row count).
    ///
    /// # Panics
    ///
    /// Panics if row counts differ or `vars` is empty.
    pub fn concat_cols(&mut self, vars: &[Var]) -> Var {
        let out = {
            let parts: Vec<&Tensor> = vars.iter().map(|&v| self.value(v)).collect();
            concat_cols_fwd(&parts)
        };
        self.push(out, Op::ConcatCols(vars.to_vec()))
    }

    /// Slices columns `[start, start+len)`.
    pub fn col_slice(&mut self, a: Var, start: usize, len: usize) -> Var {
        let out = {
            let t = self.value(a);
            let (n, d) = t.shape();
            assert!(start + len <= d, "col_slice out of bounds");
            let mut out = pool::take_capacity(n * len);
            for r in 0..n {
                out.extend_from_slice(&t.row_slice(r)[start..start + len]);
            }
            Tensor::from_vec(n, len, out)
        };
        self.push(out, Op::ColSlice(a, start, len))
    }

    /// Row gather: `out[i] = a[idx[i]]`.
    pub fn gather(&mut self, a: Var, idx: Arc<Vec<usize>>) -> Var {
        let out = gather_rows(self.value(a), &idx);
        self.push(out, Op::Gather(a, idx))
    }

    /// Row scatter-add into `n_out` rows: `out[idx[i]] += a[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `idx.len()` differs from the row count of `a` or an index
    /// is out of range.
    pub fn scatter_add(&mut self, a: Var, idx: Arc<Vec<usize>>, n_out: usize) -> Var {
        let out = scatter_add_rows(self.value(a), &idx, n_out);
        self.push(out, Op::ScatterAdd(a, idx, n_out))
    }

    /// Sum over columns of each row, producing an `N×1` column vector.
    pub fn row_sum(&mut self, a: Var) -> Var {
        let v = row_sum_fwd(self.value(a));
        self.push(v, Op::RowSum(a))
    }

    /// Broadcast multiply: `N×d ⊙ N×1` across columns.
    pub fn mul_colvec(&mut self, a: Var, v: Var) -> Var {
        let out = colvec_zip(self.value(a), self.value(v), |x, s| x * s);
        self.push(out, Op::MulColVec(a, v))
    }

    /// Broadcast subtract: `N×d − N×1` across columns.
    pub fn sub_colvec(&mut self, a: Var, v: Var) -> Var {
        let out = colvec_zip(self.value(a), self.value(v), |x, s| x - s);
        self.push(out, Op::SubColVec(a, v))
    }

    /// Inverted dropout with keep-probability `1 - p`. Identity in eval mode.
    pub fn dropout(&mut self, a: Var, p: f32) -> Var {
        if !self.training || p <= 0.0 {
            return a;
        }
        let n = self.value(a).len();
        // Pool-backed mask and output (the RNG needs `&mut self`, so the
        // mask is drawn before the input value is borrowed).
        let mut mask = pool::take_zeroed(n);
        fill_dropout_mask(&mut self.rng, &mut mask, p);
        let mut data = pool::take_capacity(n);
        data.extend(
            self.value(a)
                .as_slice()
                .iter()
                .zip(&mask)
                .map(|(&x, &m)| x * m),
        );
        let (rows, cols) = self.shape(a);
        let v = Tensor::from_vec(rows, cols, data);
        self.push(v, Op::Dropout(a, Arc::new(mask)))
    }

    /// Advances the dropout RNG past exactly the draws
    /// [`Tape::dropout`] would make for a `len`-element input, without
    /// building a mask: later masks on this tape come out as if that
    /// dropout had run. A no-op wherever `dropout` is the identity.
    pub fn skip_dropout(&mut self, len: usize, p: f32) {
        if self.training && p > 0.0 {
            skip_dropout_mask(&mut self.rng, len);
        }
    }

    /// Batch normalization over the row dimension.
    ///
    /// In training mode, normalizes by batch statistics and returns the
    /// `(mean, var)` actually used so the caller (the layer) can update its
    /// running estimates. In eval mode, the caller passes the running
    /// statistics via `running`.
    pub fn batch_norm(
        &mut self,
        x: Var,
        gamma: Var,
        beta: Var,
        eps: f32,
        running: Option<(&Tensor, &Tensor)>,
    ) -> (Var, Tensor, Tensor) {
        let (out, xhat, invstd, mean, var) = {
            let t = self.value(x);
            let (n, d) = t.shape();
            let (mean, var, invstd) = self.norm_stats(t, eps, running);
            let mut xhat = pool::take_capacity(n * d);
            for r in 0..n {
                xhat.extend(
                    t.row_slice(r)
                        .iter()
                        .zip(mean.as_slice())
                        .zip(invstd.as_slice())
                        .map(|((&xv, &mu), &is)| (xv - mu) * is),
                );
            }
            let gv = self.value(gamma);
            let bv = self.value(beta);
            let mut out = pool::take_capacity(n * d);
            for r in 0..n {
                out.extend(
                    xhat[r * d..(r + 1) * d]
                        .iter()
                        .zip(gv.as_slice())
                        .zip(bv.as_slice())
                        .map(|((&xh, &g), &b)| xh * g + b),
                );
            }
            (
                Tensor::from_vec(n, d, out),
                Tensor::from_vec(n, d, xhat),
                invstd,
                mean,
                var,
            )
        };
        let v = self.push(
            out,
            Op::BatchNorm {
                x,
                gamma,
                beta,
                xhat,
                invstd,
            },
        );
        (v, mean, var)
    }

    /// `(mean, var, invstd)` a batch norm normalizes `t` by: the given
    /// running statistics in eval mode, the batch's otherwise.
    fn norm_stats(
        &self,
        t: &Tensor,
        eps: f32,
        running: Option<(&Tensor, &Tensor)>,
    ) -> (Tensor, Tensor, Tensor) {
        let (mean, var) = match (self.training, running) {
            (false, Some((m, v))) => (m.clone(), v.clone()),
            _ => batch_stats_with(Backend::active(), t),
        };
        let invstd = var.map(|v| 1.0 / (v + eps).sqrt());
        (mean, var, invstd)
    }

    /// Fused `residual + dropout(ReLU(BN(x)), p)` as one op: batch
    /// normalization as in [`Tape::batch_norm`] (returning the `(mean,
    /// var)` it used), then an in-place ReLU, inverted dropout drawing
    /// the same RNG stream as [`Tape::dropout`], and the residual add.
    /// Every output and gradient element is bitwise-equal to that op
    /// chain. The backward recomputes `x̂` from `x`, so `x` must stay
    /// readable (not consumed by a later in-place op).
    ///
    /// # Panics
    ///
    /// Panics if `residual` does not match `x`'s shape.
    #[allow(clippy::too_many_arguments)]
    pub fn bn_relu_dropout_add(
        &mut self,
        x: Var,
        gamma: Var,
        beta: Var,
        residual: Var,
        eps: f32,
        p: f32,
        running: Option<(&Tensor, &Tensor)>,
    ) -> (Var, Tensor, Tensor) {
        let mask = (self.training && p > 0.0).then(|| {
            let mut m = pool::take_zeroed(self.value(x).len());
            fill_dropout_mask(&mut self.rng, &mut m, p);
            m
        });
        let (out, mean, invstd, var) = {
            let t = self.value(x);
            let (mean, var, invstd) = self.norm_stats(t, eps, running);
            let out = bn_relu_dropout_add_with(
                Backend::active(),
                t,
                self.value(residual),
                mask.as_deref(),
                &mean,
                &invstd,
                self.value(gamma),
                self.value(beta),
            );
            (out, mean, invstd, var)
        };
        let v = self.push(
            out,
            Op::BnReluDropoutAdd {
                x,
                gamma,
                beta,
                residual,
                mean: mean.clone(),
                invstd,
                mask,
            },
        );
        (v, mean, var)
    }

    /// GatedGCN edge assembly `ê = ce + dx[dst] + ex[src]` in one sweep,
    /// consuming `ce`'s buffer when it owns one (`ce` must not be read
    /// again). Bitwise-equal to two gathers and two adds; the backward
    /// passes the gradient through to `ce` and scatters it by `dst` into
    /// `dx` and by `src` into `ex`.
    ///
    /// # Panics
    ///
    /// Panics if `ce` does not have one row per edge, the widths differ
    /// or an index is out of range.
    pub fn edge_hat(
        &mut self,
        ce: Var,
        dx: Var,
        dst: Arc<Vec<usize>>,
        ex: Var,
        src: Arc<Vec<usize>>,
    ) -> Var {
        let (ne, d) = self.shape(ce);
        assert!(
            dst.len() == ne && src.len() == ne,
            "edge_hat needs one index pair per edge row"
        );
        assert!(
            self.shape(dx).1 == d && self.shape(ex).1 == d,
            "edge_hat width mismatch"
        );
        let owned = if ce == dx || ce == ex {
            None
        } else {
            self.take_owned(ce)
        };
        let base = owned.unwrap_or_else(|| self.value(ce).clone());
        let out = add_gathered2_inplace(base, self.value(dx), &dst, self.value(ex), &src);
        self.push(
            out,
            Op::EdgeHat {
                ce,
                dx,
                ex,
                dst,
                src,
            },
        )
    }

    /// GatedGCN gated aggregation into `n_out` destination rows:
    /// `η = σ(ê)`, `num = Σ η ⊙ bx[src]`, `den = Σ η + eps` (scatter-adds
    /// by `dst` in edge order), returning `num / den`. Bitwise-equal to
    /// sigmoid, gather, multiply, two scatter-adds, a scalar add and a
    /// divide; the backward makes one pass over the edges, recomputing
    /// `η` instead of saving an `E × d` tensor. `e_hat` and `bx` must
    /// stay readable.
    ///
    /// # Panics
    ///
    /// Panics on an index/row-count mismatch or an index out of range.
    pub fn gated_aggregate(
        &mut self,
        e_hat: Var,
        bx: Var,
        src: Arc<Vec<usize>>,
        dst: Arc<Vec<usize>>,
        n_out: usize,
        eps: f32,
    ) -> Var {
        let (num, den) = {
            let ev = self.value(e_hat);
            let bv = self.value(bx);
            assert!(
                src.len() == ev.rows() && dst.len() == ev.rows(),
                "gated_aggregate needs one index pair per edge row"
            );
            assert_eq!(ev.cols(), bv.cols(), "gated_aggregate width mismatch");
            assert!(
                src.iter().all(|&j| j < bv.rows()) && dst.iter().all(|&j| j < n_out),
                "gated_aggregate index out of range"
            );
            let (mut num, mut den) = gated_scatter(ev, bv, &src, &dst, n_out);
            for v in den.as_mut_slice() {
                *v += eps;
            }
            for (a, &b) in num.as_mut_slice().iter_mut().zip(den.as_slice()) {
                *a /= b;
            }
            (num, den)
        };
        self.push(
            num,
            Op::GatedAggregate {
                e_hat,
                bx,
                src,
                dst,
                den,
            },
        )
    }

    /// Mean binary-cross-entropy with logits (numerically stable).
    ///
    /// `a` must be a column of logits (`N×1`); `targets` are 0/1 labels.
    pub fn bce_with_logits(&mut self, a: Var, targets: &[f32]) -> Var {
        let t = self.value(a);
        assert_eq!(t.len(), targets.len(), "bce target length mismatch");
        let mut loss = 0.0f64;
        for (&z, &y) in t.as_slice().iter().zip(targets) {
            loss += (z.max(0.0) - z * y + (-z.abs()).exp().ln_1p()) as f64;
        }
        let v = Tensor::scalar((loss / targets.len().max(1) as f64) as f32);
        self.push(v, Op::BceWithLogits(a, Arc::new(targets.to_vec())))
    }

    /// Mean squared error against `targets`.
    pub fn mse_loss(&mut self, a: Var, targets: &[f32]) -> Var {
        let t = self.value(a);
        assert_eq!(t.len(), targets.len(), "mse target length mismatch");
        let n = targets.len().max(1) as f32;
        let loss: f32 = t
            .as_slice()
            .iter()
            .zip(targets)
            .map(|(&p, &y)| (p - y) * (p - y))
            .sum::<f32>()
            / n;
        self.push(
            Tensor::scalar(loss),
            Op::MseLoss(a, Arc::new(targets.to_vec())),
        )
    }

    /// Mean absolute error against `targets`.
    pub fn l1_loss(&mut self, a: Var, targets: &[f32]) -> Var {
        let t = self.value(a);
        assert_eq!(t.len(), targets.len(), "l1 target length mismatch");
        let n = targets.len().max(1) as f32;
        let loss: f32 = t
            .as_slice()
            .iter()
            .zip(targets)
            .map(|(&p, &y)| (p - y).abs())
            .sum::<f32>()
            / n;
        self.push(
            Tensor::scalar(loss),
            Op::L1Loss(a, Arc::new(targets.to_vec())),
        )
    }

    /// Mean cross-entropy between row-wise logits and integer class labels.
    pub fn cross_entropy(&mut self, logits: Var, labels: &[usize]) -> Var {
        let (v, softmax) = {
            let t = self.value(logits);
            let (n, c) = t.shape();
            assert_eq!(n, labels.len(), "cross_entropy label length mismatch");
            let mut softmax = Tensor::zeros(n, c);
            let mut loss = 0.0f64;
            for (r, &label) in labels.iter().enumerate() {
                softmax_into(t.row_slice(r), softmax.row_slice_mut(r));
                let p = softmax.get(r, label).max(1e-12);
                loss -= (p as f64).ln();
            }
            (Tensor::scalar((loss / n.max(1) as f64) as f32), softmax)
        };
        self.push(
            v,
            Op::CrossEntropy {
                logits,
                labels: Arc::new(labels.to_vec()),
                softmax,
            },
        )
    }

    /// Fused QKV projection: `x·[Wq|Wk|Wv]` as **one** GEMM producing an
    /// `N × 3d` output (`[Q|K|V]`), with a matching fused backward that
    /// computes `gx` and all three weight gradients from a single pair
    /// of GEMMs. Column-for-column bitwise-equal to the three separate
    /// `x·W` products (the per-element accumulation order over `k` does
    /// not depend on the output width).
    ///
    /// # Panics
    ///
    /// Panics if the three weights disagree in shape or `x`'s width does
    /// not match them.
    pub fn linear_qkv(&mut self, x: Var, wq: Var, wk: Var, wv: Var) -> Var {
        let (out, wcat) = {
            let wcat = qkv_pack_weights(self.value(wq), self.value(wk), self.value(wv));
            let out = linear_fwd(self.value(x), &wcat, None, false);
            (out, wcat)
        };
        self.push(
            out,
            Op::LinearQkv {
                x,
                wq,
                wk,
                wv,
                wcat,
            },
        )
    }

    /// Fused block-diagonal multi-head softmax attention over a packed
    /// `N × 3d` QKV matrix (see [`Tape::linear_qkv`]): per-head softmax
    /// attention within each `(first_row, row_count)` block, one tape op
    /// for the whole pack. Forward work and memory are `Σnᵢ²` per head
    /// instead of `(Σnᵢ)²`; the backward applies the fused
    /// softmax-attention gradient `dS = A ⊙ (dP − rowsum(dP ⊙ A))` per
    /// block, so no `(ΣN)²` matrix exists on either pass. Forward
    /// kernels are shared with
    /// [`crate::MultiHeadAttention::infer_blocks`], hence bitwise-equal
    /// to it by construction.
    ///
    /// # Panics
    ///
    /// Panics if `qkv` is not `N × 3·heads·head_dim` or a block reaches
    /// outside it.
    pub fn attn_block_diag(
        &mut self,
        qkv: Var,
        blocks: Arc<Vec<(usize, usize)>>,
        heads: usize,
        head_dim: usize,
    ) -> Var {
        let (out, attn) = mha_block_diag_fwd(self.value(qkv), &blocks, heads, head_dim, true);
        self.push(
            out,
            Op::AttnBlockDiag {
                qkv,
                blocks,
                heads,
                head_dim,
                attn,
            },
        )
    }

    /// Fused block-diagonal Performer (FAVOR+) attention over a packed
    /// `N × 3d` QKV matrix: the per-head feature maps run once over the
    /// whole pack, the key aggregation `φ(K)ᵀ·V` and denominators per
    /// block. One tape op for the whole pack; the backward
    /// differentiates through the per-block linear attention and the
    /// exp feature map analytically. `proj` (the stacked random
    /// projection) must be frozen — no gradient is propagated to it,
    /// matching the reference implementation's non-redrawn features.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch, a block outside `qkv`, or (debug) a
    /// trainable `proj`.
    pub fn performer_block_diag(
        &mut self,
        qkv: Var,
        proj: ParamId,
        blocks: Arc<Vec<(usize, usize)>>,
        heads: usize,
        head_dim: usize,
        features: usize,
    ) -> Var {
        debug_assert!(
            !self.params.is_trainable(proj),
            "performer projection must be frozen: its gradient is never computed"
        );
        let (out, phi_q, phi_k) = performer_block_diag_fwd(
            self.value(qkv),
            self.params.get(proj),
            &blocks,
            heads,
            head_dim,
            features,
            true,
        );
        self.push(
            out,
            Op::PerformerBlockDiag {
                qkv,
                proj,
                blocks,
                heads,
                head_dim,
                features,
                phi_q,
                phi_k,
            },
        )
    }

    /// Runs reverse-mode differentiation from `loss`, accumulating parameter
    /// gradients into `grads`.
    ///
    /// Each upstream gradient buffer is returned to the thread-local pool
    /// as soon as it has been consumed, so repeated backward passes over
    /// same-shaped tapes allocate nothing.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not on this tape.
    pub fn backward(&self, loss: Var, grads: &mut GradStore) {
        let mut local: Vec<Option<Tensor>> = (0..self.vals.len()).map(|_| None).collect();
        let (lr, lc) = self.shape(loss);
        local[loss.0] = Some(Tensor::ones(lr, lc));

        for i in (0..=loss.0).rev() {
            let g = match local[i].take() {
                Some(g) => g,
                None => continue,
            };
            match &self.ops[i] {
                Op::Input => g.recycle(),
                Op::Param(id) => {
                    if self.params.is_trainable(*id) {
                        grads.accumulate(*id, &g);
                    }
                    g.recycle();
                }
                Op::Matmul(a, b) => {
                    let ga = g.matmul_t(self.value(*b));
                    let gb = self.value(*a).t_matmul(&g);
                    acc(&mut local, *a, ga);
                    acc(&mut local, *b, gb);
                    g.recycle();
                }
                Op::Linear { x, w, b } => {
                    self.linear_backward(*x, *w, *b, &g, &mut local);
                    g.recycle();
                }
                Op::LinearRelu { x, w, b } => {
                    // Mask by the output sign (y > 0 ⇔ pre-activation > 0).
                    let y = self.value(Var(i));
                    let mut gm = pool::take_capacity(g.len());
                    gm.extend(g.as_slice().iter().zip(y.as_slice()).map(|(&gi, &yi)| {
                        if yi > 0.0 {
                            gi
                        } else {
                            0.0
                        }
                    }));
                    let gm = Tensor::from_vec(g.rows(), g.cols(), gm);
                    self.linear_backward(*x, *w, *b, &gm, &mut local);
                    gm.recycle();
                    g.recycle();
                }
                Op::Add(a, b) => {
                    acc(&mut local, *a, g.clone());
                    acc(&mut local, *b, g);
                }
                Op::AddBias(a, b) => {
                    let gb = g.col_sum();
                    acc(&mut local, *a, g);
                    acc(&mut local, *b, gb);
                }
                Op::Sub(a, b) => {
                    let gb = g.scale(-1.0);
                    acc(&mut local, *a, g);
                    acc(&mut local, *b, gb);
                }
                Op::Mul(a, b) => {
                    let ga = g.mul(self.value(*b));
                    let gb = g.mul(self.value(*a));
                    acc(&mut local, *a, ga);
                    acc(&mut local, *b, gb);
                    g.recycle();
                }
                Op::Div(a, b) => {
                    let bv = self.value(*b);
                    let cv = self.value(Var(i));
                    let ga = g.zip3(bv, |gi, bi| gi / bi);
                    let gb = g.zip3_2(cv, bv, |gi, ci, bi| -gi * ci / bi);
                    acc(&mut local, *a, ga);
                    acc(&mut local, *b, gb);
                    g.recycle();
                }
                Op::Scale(a, s) => {
                    let mut g = g;
                    for v in g.as_mut_slice() {
                        *v *= s;
                    }
                    acc(&mut local, *a, g);
                }
                Op::AddScalar(a, _) => acc(&mut local, *a, g),
                Op::Relu(a) => {
                    // Mask by the output sign so in-place ReLU (which
                    // overwrites its input) differentiates identically.
                    let y = self.value(Var(i));
                    let mut g = g;
                    for (gi, &yi) in g.as_mut_slice().iter_mut().zip(y.as_slice()) {
                        if yi <= 0.0 {
                            *gi = 0.0;
                        }
                    }
                    acc(&mut local, *a, g);
                }
                Op::Sigmoid(a) => {
                    let y = self.value(Var(i));
                    let mut g = g;
                    for (gi, &yi) in g.as_mut_slice().iter_mut().zip(y.as_slice()) {
                        *gi *= yi * (1.0 - yi);
                    }
                    acc(&mut local, *a, g);
                }
                Op::Exp(a) => {
                    let y = self.value(Var(i));
                    let mut g = g;
                    for (gi, &yi) in g.as_mut_slice().iter_mut().zip(y.as_slice()) {
                        *gi *= yi;
                    }
                    acc(&mut local, *a, g);
                }
                Op::SoftmaxRows(a) => {
                    let y = self.value(Var(i));
                    let mut g = g;
                    for r in 0..y.rows() {
                        let yr = y.row_slice(r);
                        let gr = g.row_slice_mut(r);
                        let dot: f32 = gr.iter().zip(yr).map(|(&x, &y2)| x * y2).sum();
                        for (gi, &yi) in gr.iter_mut().zip(yr) {
                            *gi = (*gi - dot) * yi;
                        }
                    }
                    acc(&mut local, *a, g);
                }
                Op::Transpose(a) => {
                    let ga = g.transpose();
                    acc(&mut local, *a, ga);
                    g.recycle();
                }
                Op::ConcatCols(vars) => {
                    let mut off = 0;
                    for &v in vars {
                        let c = self.shape(v).1;
                        let mut gv = pool::take_capacity(g.rows() * c);
                        for r in 0..g.rows() {
                            gv.extend_from_slice(&g.row_slice(r)[off..off + c]);
                        }
                        acc(&mut local, v, Tensor::from_vec(g.rows(), c, gv));
                        off += c;
                    }
                    g.recycle();
                }
                Op::ColSlice(a, start, len) => {
                    let (n, d) = self.shape(*a);
                    let mut ga = Tensor::zeros(n, d);
                    for r in 0..n {
                        ga.row_slice_mut(r)[*start..*start + *len].copy_from_slice(g.row_slice(r));
                    }
                    acc(&mut local, *a, ga);
                    g.recycle();
                }
                Op::Gather(a, idx) => {
                    let (n, d) = self.shape(*a);
                    let mut ga = Tensor::zeros(n, d);
                    for (i2, &j) in idx.iter().enumerate() {
                        for (o, &x) in ga.row_slice_mut(j).iter_mut().zip(g.row_slice(i2)) {
                            *o += x;
                        }
                    }
                    acc(&mut local, *a, ga);
                    g.recycle();
                }
                Op::ScatterAdd(a, idx, _) => {
                    let d = g.cols();
                    let mut ga = pool::take_capacity(idx.len() * d);
                    for &j in idx.iter() {
                        ga.extend_from_slice(g.row_slice(j));
                    }
                    acc(&mut local, *a, Tensor::from_vec(idx.len(), d, ga));
                    g.recycle();
                }
                Op::RowSum(a) => {
                    let (n, d) = self.shape(*a);
                    let mut ga = pool::take_capacity(n * d);
                    for r in 0..n {
                        let gv = g.get(r, 0);
                        ga.extend(std::iter::repeat_n(gv, d));
                    }
                    acc(&mut local, *a, Tensor::from_vec(n, d, ga));
                    g.recycle();
                }
                Op::MulColVec(a, v) => {
                    let av = self.value(*a);
                    let vv = self.value(*v);
                    let ga = colvec_zip(&g, vv, |gi, s| gi * s);
                    let mut gv = pool::take_capacity(vv.rows());
                    gv.extend((0..g.rows()).map(|r| {
                        g.row_slice(r)
                            .iter()
                            .zip(av.row_slice(r))
                            .map(|(&x, &y)| x * y)
                            .sum::<f32>()
                    }));
                    acc(&mut local, *a, ga);
                    acc(&mut local, *v, Tensor::from_vec(vv.rows(), 1, gv));
                    g.recycle();
                }
                Op::SubColVec(a, v) => {
                    let mut gv = pool::take_capacity(g.rows());
                    gv.extend((0..g.rows()).map(|r| -g.row_slice(r).iter().sum::<f32>()));
                    let gv = Tensor::from_vec(g.rows(), 1, gv);
                    acc(&mut local, *a, g);
                    acc(&mut local, *v, gv);
                }
                Op::Dropout(a, mask) => {
                    let mut g = g;
                    for (gi, &m) in g.as_mut_slice().iter_mut().zip(mask.iter()) {
                        *gi *= m;
                    }
                    acc(&mut local, *a, g);
                }
                Op::BatchNorm {
                    x,
                    gamma,
                    beta,
                    xhat,
                    invstd,
                } => {
                    let (n, d) = xhat.shape();
                    let src = BnGrad::Saved {
                        g: g.as_slice(),
                        xhat: xhat.as_slice(),
                    };
                    let (gx, dgamma, dbeta) = bn_backward_with(
                        Backend::active(),
                        src,
                        self.value(*gamma).as_slice(),
                        invstd.as_slice(),
                        n,
                    );
                    acc(&mut local, *x, Tensor::from_vec(n, d, gx));
                    acc(&mut local, *gamma, Tensor::from_vec(1, d, dgamma));
                    acc(&mut local, *beta, Tensor::from_vec(1, d, dbeta));
                    g.recycle();
                }
                Op::BnReluDropoutAdd {
                    x,
                    gamma,
                    beta,
                    residual,
                    mean,
                    invstd,
                    mask,
                } => {
                    let (n, d) = self.shape(*x);
                    let src = BnGrad::Fused {
                        g: g.as_slice(),
                        x: self.value(*x).as_slice(),
                        mask: mask.as_deref(),
                        mean: mean.as_slice(),
                        beta: self.value(*beta).as_slice(),
                    };
                    let (gx, dgamma, dbeta) = bn_backward_with(
                        Backend::active(),
                        src,
                        self.value(*gamma).as_slice(),
                        invstd.as_slice(),
                        n,
                    );
                    // The residual add's gradient lands first, as the
                    // unfused chain's last op (the add) did.
                    acc(&mut local, *residual, g);
                    acc(&mut local, *x, Tensor::from_vec(n, d, gx));
                    acc(&mut local, *gamma, Tensor::from_vec(1, d, dgamma));
                    acc(&mut local, *beta, Tensor::from_vec(1, d, dbeta));
                }
                Op::EdgeHat {
                    ce,
                    dx,
                    ex,
                    dst,
                    src,
                } => {
                    let (gdx, gex) =
                        edge_hat_backward(&g, dst, src, self.shape(*dx).0, self.shape(*ex).0);
                    acc(&mut local, *ce, g);
                    acc(&mut local, *ex, gex);
                    acc(&mut local, *dx, gdx);
                }
                Op::GatedAggregate {
                    e_hat,
                    bx,
                    src,
                    dst,
                    den,
                } => {
                    let (ge, gbx) = gated_aggregate_backward(
                        Backend::active(),
                        &g,
                        self.value(Var(i)),
                        den,
                        self.value(*e_hat),
                        self.value(*bx),
                        src,
                        dst,
                    );
                    acc(&mut local, *bx, gbx);
                    acc(&mut local, *e_hat, ge);
                    g.recycle();
                }
                Op::BceWithLogits(a, y) => {
                    let z = self.value(*a);
                    let gscale = g.item() / y.len().max(1) as f32;
                    let mut data = pool::take_capacity(z.len());
                    data.extend(
                        z.as_slice()
                            .iter()
                            .zip(y.iter())
                            .map(|(&zi, &yi)| (stable_sigmoid(zi) - yi) * gscale),
                    );
                    acc(&mut local, *a, Tensor::from_vec(z.rows(), z.cols(), data));
                    g.recycle();
                }
                Op::MseLoss(a, y) => {
                    let p = self.value(*a);
                    let gscale = 2.0 * g.item() / y.len().max(1) as f32;
                    let mut data = pool::take_capacity(p.len());
                    data.extend(
                        p.as_slice()
                            .iter()
                            .zip(y.iter())
                            .map(|(&pi, &yi)| (pi - yi) * gscale),
                    );
                    acc(&mut local, *a, Tensor::from_vec(p.rows(), p.cols(), data));
                    g.recycle();
                }
                Op::L1Loss(a, y) => {
                    let p = self.value(*a);
                    let gscale = g.item() / y.len().max(1) as f32;
                    let mut data = pool::take_capacity(p.len());
                    data.extend(
                        p.as_slice()
                            .iter()
                            .zip(y.iter())
                            .map(|(&pi, &yi)| (pi - yi).signum() * gscale),
                    );
                    acc(&mut local, *a, Tensor::from_vec(p.rows(), p.cols(), data));
                    g.recycle();
                }
                Op::CrossEntropy {
                    logits,
                    labels,
                    softmax,
                } => {
                    let n = softmax.rows();
                    let gscale = g.item() / n.max(1) as f32;
                    let mut ga = softmax.scale(gscale);
                    for (r, &lab) in labels.iter().enumerate() {
                        ga.set(r, lab, ga.get(r, lab) - gscale);
                    }
                    acc(&mut local, *logits, ga);
                    g.recycle();
                }
                Op::LinearQkv {
                    x,
                    wq,
                    wk,
                    wv,
                    wcat,
                } => {
                    let xv = self.value(*x);
                    let (n, d_in) = xv.shape();
                    let d3 = g.cols();
                    let d_out = d3 / 3;
                    // gx = g · Wcatᵀ: one GEMM over the packed weight.
                    let be = Backend::active();
                    let mut gx = pool::take_zeroed(n * d_in);
                    gemm_abt(be, g.as_slice(), wcat.as_slice(), &mut gx, n, d3, d_in);
                    // gWcat = xᵀ · g, then split into the three
                    // projection gradients (column blocks of the pack).
                    let mut gw = pool::take_zeroed(d_in * d3);
                    gemm_atb(be, xv.as_slice(), g.as_slice(), &mut gw, d_in, n, d3);
                    for (slot, var) in [(0usize, *wq), (1, *wk), (2, *wv)] {
                        let mut part = pool::take_capacity(d_in * d_out);
                        for r in 0..d_in {
                            let base = r * d3 + slot * d_out;
                            part.extend_from_slice(&gw[base..base + d_out]);
                        }
                        acc(&mut local, var, Tensor::from_vec(d_in, d_out, part));
                    }
                    pool::put(gw);
                    acc(&mut local, *x, Tensor::from_vec(n, d_in, gx));
                    g.recycle();
                }
                Op::AttnBlockDiag {
                    qkv,
                    blocks,
                    heads,
                    head_dim,
                    attn,
                } => {
                    let qkv_v = self.value(*qkv);
                    let (heads, dh) = (*heads, *head_dim);
                    let dim = heads * dh;
                    let scale = 1.0 / (dh as f32).sqrt();
                    let mut gq = Tensor::zeros(qkv_v.rows(), 3 * dim);
                    for (bi, &(r0, len)) in blocks.iter().enumerate() {
                        for h in 0..heads {
                            let off = h * dh;
                            let a = &attn[bi * heads + h]; // len×len probs
                            let gh = block_slice(&g, r0, len, off, dh);
                            let vh = block_slice(qkv_v, r0, len, 2 * dim + off, dh);
                            // dV = Aᵀ·gO
                            let dv = a.t_matmul(&gh);
                            // dP = gO·Vᵀ — len×len, per block only: the
                            // score-gradient matrix never exceeds one
                            // graph's quadratic footprint.
                            let mut ds = gh.matmul_t(&vh);
                            // dS = scale · A ⊙ (dP − rowsum(dP ⊙ A)):
                            // the softmax backward fused with the score
                            // scaling, in place on dP.
                            for r in 0..len {
                                let ar = a.row_slice(r);
                                let dr = ds.row_slice_mut(r);
                                let dot: f32 = dr.iter().zip(ar).map(|(&x, &y)| x * y).sum();
                                for (dsv, &av) in dr.iter_mut().zip(ar) {
                                    *dsv = (*dsv - dot) * av * scale;
                                }
                            }
                            let qh = block_slice(qkv_v, r0, len, off, dh);
                            let kh = block_slice(qkv_v, r0, len, dim + off, dh);
                            // dQ = dS·K and dK = dSᵀ·Q, written straight
                            // into the packed QKV gradient (head column
                            // ranges and blocks are disjoint).
                            let dq = ds.matmul(&kh);
                            let dk = ds.t_matmul(&qh);
                            block_write(&mut gq, &dq, r0, off);
                            block_write(&mut gq, &dk, r0, dim + off);
                            block_write(&mut gq, &dv, r0, 2 * dim + off);
                            for t in [gh, vh, qh, kh, dv, ds, dq, dk] {
                                t.recycle();
                            }
                        }
                    }
                    acc(&mut local, *qkv, gq);
                    g.recycle();
                }
                Op::PerformerBlockDiag {
                    qkv,
                    proj,
                    blocks,
                    heads,
                    head_dim,
                    features,
                    phi_q,
                    phi_k,
                } => {
                    let gq = performer_block_diag_bwd(
                        self.value(*qkv),
                        self.params.get(*proj),
                        blocks,
                        *heads,
                        *head_dim,
                        *features,
                        self.value(Var(i)),
                        &g,
                        phi_q,
                        phi_k,
                    );
                    acc(&mut local, *qkv, gq);
                    g.recycle();
                }
            }
        }
    }

    /// Shared backward for `Linear`/`LinearRelu`: `g` is the (possibly
    /// relu-masked) output gradient.
    fn linear_backward(
        &self,
        x: Var,
        w: Var,
        b: Option<Var>,
        g: &Tensor,
        local: &mut [Option<Tensor>],
    ) {
        let (gx, gw) = {
            let xv = self.value(x);
            let wv = self.value(w);
            // gx = g · Wᵀ
            let mut gx = pool::take_zeroed(xv.len());
            gemm_abt(
                Backend::active(),
                g.as_slice(),
                wv.as_slice(),
                &mut gx,
                g.rows(),
                g.cols(),
                wv.rows(),
            );
            // gW = xᵀ · g
            let mut gw = pool::take_zeroed(wv.len());
            gemm_atb(
                Backend::active(),
                xv.as_slice(),
                g.as_slice(),
                &mut gw,
                wv.rows(),
                xv.rows(),
                g.cols(),
            );
            (
                Tensor::from_vec(xv.rows(), xv.cols(), gx),
                Tensor::from_vec(wv.rows(), wv.cols(), gw),
            )
        };
        if let Some(bv) = b {
            acc(local, bv, g.col_sum());
        }
        acc(local, x, gx);
        acc(local, w, gw);
    }
}

impl Drop for Tape<'_> {
    fn drop(&mut self) {
        self.recycle_storage();
    }
}

/// Accumulates `g` into the local gradient slot for `v`; when the slot is
/// already occupied the incoming buffer is recycled after the add.
fn acc(local: &mut [Option<Tensor>], v: Var, g: Tensor) {
    match &mut local[v.0] {
        Some(t) => {
            t.add_assign(&g);
            g.recycle();
        }
        slot @ None => *slot = Some(g),
    }
}

fn softmax_into(row: &[f32], out: &mut [f32]) {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    for (o, &x) in out.iter_mut().zip(row) {
        *o = fast_exp(x - max);
    }
    let sum: f32 = out.iter().sum();
    let inv = 1.0 / sum.max(1e-30);
    for o in out.iter_mut() {
        *o *= inv;
    }
}

impl Tensor {
    fn zip3(&self, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        let mut data = pool::take_capacity(self.len());
        data.extend(
            self.as_slice()
                .iter()
                .zip(b.as_slice())
                .map(|(&x, &y)| f(x, y)),
        );
        Tensor::from_vec(self.rows(), self.cols(), data)
    }

    fn zip3_2(&self, b: &Tensor, c: &Tensor, f: impl Fn(f32, f32, f32) -> f32) -> Tensor {
        let mut data = pool::take_capacity(self.len());
        data.extend(
            self.as_slice()
                .iter()
                .zip(b.as_slice())
                .zip(c.as_slice())
                .map(|((&x, &y), &z)| f(x, y, z)),
        );
        Tensor::from_vec(self.rows(), self.cols(), data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::xavier_uniform;

    /// Finite-difference gradient check for a scalar-valued function of one
    /// parameter.
    fn grad_check<F>(shape: (usize, usize), build: F)
    where
        F: Fn(&mut Tape, Var) -> Var,
    {
        let mut rng = StdRng::seed_from_u64(42);
        let mut store = ParamStore::new();
        let init = xavier_uniform(shape.0, shape.1, &mut rng);
        let w = store.register("w", init, true);

        // analytic gradient (inner scope: Tape's Drop recycles buffers, so
        // the tape must die before the store is mutated below)
        let analytic = {
            let mut tape = Tape::new(&store, false, 0);
            let wv = tape.param(w);
            let loss = build(&mut tape, wv);
            assert_eq!(
                tape.shape(loss),
                (1, 1),
                "grad_check requires a scalar loss"
            );
            let mut grads = GradStore::new(&store);
            tape.backward(loss, &mut grads);
            grads.get(w).expect("missing gradient").clone()
        };

        // numeric gradient
        let eps = 1e-3f32;
        for idx in 0..shape.0 * shape.1 {
            let orig = store.get(w).as_slice()[idx];
            store.get_mut(w).as_mut_slice()[idx] = orig + eps;
            let lp = {
                let mut tp = Tape::new(&store, false, 0);
                let wv = tp.param(w);
                let vp = build(&mut tp, wv);
                tp.value(vp).item()
            };
            store.get_mut(w).as_mut_slice()[idx] = orig - eps;
            let lm = {
                let mut tm = Tape::new(&store, false, 0);
                let wv = tm.param(w);
                let vm = build(&mut tm, wv);
                tm.value(vm).item()
            };
            store.get_mut(w).as_mut_slice()[idx] = orig;

            let numeric = (lp - lm) / (2.0 * eps);
            let a = analytic.as_slice()[idx];
            assert!(
                (a - numeric).abs() < 2e-2 * (1.0 + a.abs().max(numeric.abs())),
                "grad mismatch at {idx}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn grad_matmul_mse() {
        grad_check((3, 2), |t, w| {
            let x = t.input(Tensor::from_rows(&[&[0.5, -1.0, 2.0]]));
            let y = t.matmul(x, w);
            t.mse_loss(y, &[0.3, -0.7])
        });
    }

    #[test]
    fn grad_fused_linear() {
        grad_check((3, 2), |t, w| {
            let x = t.input(Tensor::from_rows(&[&[0.5, -1.0, 2.0], &[1.5, 0.3, -0.8]]));
            let b = t.input(Tensor::row(&[0.2, -0.4]));
            let y = t.linear(x, w, Some(b));
            t.mse_loss(y, &[0.3, -0.7, 0.1, 0.9])
        });
    }

    #[test]
    fn grad_fused_linear_relu() {
        grad_check((3, 2), |t, w| {
            let x = t.input(Tensor::from_rows(&[&[0.5, -1.0, 2.0], &[1.5, 0.3, -0.8]]));
            let b = t.input(Tensor::row(&[0.2, -0.4]));
            let y = t.linear_relu(x, w, Some(b));
            t.mse_loss(y, &[0.3, -0.7, 0.1, 0.9])
        });
    }

    #[test]
    fn fused_linear_matches_unfused() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let w = store.register("w", xavier_uniform(4, 3, &mut rng), true);
        let b = store.register("b", xavier_uniform(1, 3, &mut rng), true);
        let x = Tensor::from_vec(5, 4, (0..20).map(|i| (i as f32 * 0.3).sin()).collect());

        let mut t1 = Tape::new(&store, false, 0);
        let (xv, wv, bv) = (t1.input(x.clone()), t1.param(w), t1.param(b));
        let y1 = t1.linear(xv, wv, Some(bv));

        let mut t2 = Tape::new(&store, false, 0);
        let (xv2, wv2, bv2) = (t2.input(x), t2.param(w), t2.param(b));
        let mm = t2.matmul(xv2, wv2);
        let y2 = t2.add_bias(mm, bv2);

        for (a, bb) in t1.value(y1).as_slice().iter().zip(t2.value(y2).as_slice()) {
            assert!((a - bb).abs() < 1e-5, "{a} vs {bb}");
        }
    }

    #[test]
    fn inplace_ops_match_plain_ops_bitwise() {
        let store = ParamStore::new();
        let x = Tensor::from_vec(3, 4, (0..12).map(|i| (i as f32 - 6.0) * 0.5).collect());
        let y = Tensor::from_vec(3, 4, (0..12).map(|i| (i as f32 * 0.7).cos()).collect());

        let mut t1 = Tape::new(&store, false, 0);
        let (a1, b1) = (t1.input(x.clone()), t1.input(y.clone()));
        let s1 = t1.add(a1, b1);
        let s1 = t1.scale(s1, 1.7);
        let s1 = t1.add_scalar(s1, -0.3);
        let s1 = t1.relu(s1);
        let out1 = t1.value(s1).clone();

        let mut t2 = Tape::new(&store, false, 0);
        let (a2, b2) = (t2.input(x), t2.input(y));
        let s2 = t2.add_inplace(a2, b2);
        let s2 = t2.scale_inplace(s2, 1.7);
        let s2 = t2.add_scalar_inplace(s2, -0.3);
        let s2 = t2.relu_inplace(s2);
        assert_eq!(out1.as_slice(), t2.value(s2).as_slice());
    }

    #[test]
    fn inplace_grads_match_plain_grads() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut store = ParamStore::new();
        let w = store.register("w", xavier_uniform(2, 3, &mut rng), true);
        let run = |inplace: bool| {
            let mut t = Tape::new(&store, false, 0);
            let wv = t.param(w);
            let x = t.input(Tensor::from_rows(&[&[1.0, -0.5], &[0.3, 2.0]]));
            let h = t.matmul(x, wv);
            let c = t.input(Tensor::from_rows(&[&[0.1, 0.2, 0.3], &[0.4, 0.5, 0.6]]));
            let s = if inplace {
                t.add_inplace(h, c)
            } else {
                t.add(h, c)
            };
            let s = if inplace {
                t.scale_inplace(s, 0.9)
            } else {
                t.scale(s, 0.9)
            };
            let s = if inplace {
                t.relu_inplace(s)
            } else {
                t.relu(s)
            };
            let loss = t.mse_loss(s, &[0.0; 6]);
            let mut grads = GradStore::new(&store);
            t.backward(loss, &mut grads);
            grads.get(w).unwrap().clone()
        };
        assert_eq!(run(false).as_slice(), run(true).as_slice());
    }

    #[test]
    #[should_panic(expected = "consumed by an in-place op")]
    fn reading_consumed_value_panics() {
        let store = ParamStore::new();
        let mut t = Tape::new(&store, false, 0);
        let a = t.input(Tensor::row(&[1.0, 2.0]));
        let b = t.input(Tensor::row(&[3.0, 4.0]));
        let _ = t.add_inplace(a, b);
        let _ = t.value(a);
    }

    #[test]
    fn shape_survives_inplace_consumption() {
        let store = ParamStore::new();
        let mut t = Tape::new(&store, false, 0);
        let a = t.input(Tensor::zeros(3, 5));
        let b = t.input(Tensor::zeros(3, 5));
        let _ = t.add_inplace(a, b);
        assert_eq!(t.shape(a), (3, 5));
    }

    #[test]
    fn tape_reuse_after_reset_is_bitwise_stable() {
        crate::pool::reset();
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let w = store.register("w", xavier_uniform(4, 4, &mut rng), true);
        let run_once = |tape: &mut Tape| -> Vec<f32> {
            let wv = tape.param(w);
            let x = tape.input(Tensor::from_vec(
                6,
                4,
                (0..24).map(|i| (i as f32 * 0.21).sin()).collect(),
            ));
            let h = tape.matmul(x, wv);
            let h = tape.relu(h);
            let s = tape.softmax_rows(h);
            tape.value(s).as_slice().to_vec()
        };
        let mut tape = Tape::new(&store, false, 0);
        let first = run_once(&mut tape);
        tape.reset();
        let second = run_once(&mut tape);
        assert_eq!(
            first, second,
            "pool-recycled rerun must be bitwise identical"
        );
        let stats = crate::pool::stats();
        assert!(stats.hits > 0, "second run should be served from the pool");
    }

    #[test]
    fn grad_sigmoid_bce() {
        grad_check((4, 1), |t, w| {
            let x = t.input(Tensor::from_rows(&[
                &[1.0, -0.5, 0.2, 0.9],
                &[0.1, 0.4, -1.2, 0.0],
            ]));
            let z = t.matmul(x, w);
            t.bce_with_logits(z, &[1.0, 0.0])
        });
    }

    #[test]
    fn grad_relu_chain() {
        grad_check((2, 3), |t, w| {
            let x = t.input(Tensor::from_rows(&[&[1.0, -2.0], &[0.5, 0.25]]));
            let h = t.matmul(x, w);
            let h = t.relu(h);
            t.mse_loss(h, &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        });
    }

    #[test]
    fn grad_softmax_rows() {
        grad_check((2, 4), |t, w| {
            let x = t.input(Tensor::from_rows(&[&[1.0, -1.0], &[2.0, 0.3], &[0.0, 1.0]]));
            let h = t.matmul(x, w);
            let s = t.softmax_rows(h);
            t.mse_loss(
                s,
                &[
                    0.1, 0.2, 0.3, 0.4, 0.25, 0.25, 0.25, 0.25, 0.7, 0.1, 0.1, 0.1,
                ],
            )
        });
    }

    #[test]
    fn grad_gather_scatter() {
        grad_check((4, 2), |t, w| {
            let idx = Arc::new(vec![0usize, 2, 2, 3, 1]);
            let gathered = t.gather(w, idx.clone());
            let back = t.scatter_add(gathered, Arc::new(vec![0usize, 1, 1, 0, 2]), 3);
            t.mse_loss(back, &[0.1; 6])
        });
    }

    #[test]
    fn grad_colvec_broadcasts() {
        grad_check((3, 3), |t, w| {
            let s = t.row_sum(w);
            let s = t.add_scalar(s, 2.0);
            let m = t.mul_colvec(w, s);
            let sub = t.sub_colvec(m, s);
            t.mse_loss(sub, &[0.0; 9])
        });
    }

    #[test]
    fn grad_batch_norm() {
        grad_check((3, 2), |t, w| {
            let gamma = t.input(Tensor::row(&[1.3, 0.7]));
            let beta = t.input(Tensor::row(&[0.1, -0.2]));
            let x = t.input(Tensor::from_rows(&[
                &[1.0, 2.0, 3.0],
                &[-1.0, 0.5, 1.5],
                &[2.0, -0.3, 0.7],
                &[0.2, 0.9, -1.1],
            ]));
            let h = t.matmul(x, w);
            let (y, _, _) = t.batch_norm(h, gamma, beta, 1e-5, None);
            t.mse_loss(y, &[0.1; 8])
        });
    }

    #[test]
    fn grad_concat_slice() {
        grad_check((2, 4), |t, w| {
            let left = t.col_slice(w, 0, 2);
            let right = t.col_slice(w, 2, 2);
            let swapped = t.concat_cols(&[right, left]);
            let act = t.sigmoid(swapped);
            t.l1_loss(act, &[0.5; 8])
        });
    }

    #[test]
    fn grad_cross_entropy() {
        grad_check((3, 3), |t, w| {
            let x = t.input(Tensor::from_rows(&[&[1.0, 0.0, -1.0], &[0.2, 0.4, 0.8]]));
            let logits = t.matmul(x, w);
            t.cross_entropy(logits, &[2, 0])
        });
    }

    #[test]
    fn grad_exp_div() {
        grad_check((2, 2), |t, w| {
            let e = t.exp(w);
            let one = t.input(Tensor::ones(2, 2));
            let s = t.add(e, one);
            let d = t.div(e, s);
            t.mse_loss(d, &[0.3, 0.4, 0.5, 0.6])
        });
    }

    #[test]
    fn grad_transpose_matmul() {
        grad_check((3, 2), |t, w| {
            let wt = t.transpose(w);
            let prod = t.matmul(w, wt);
            t.mse_loss(prod, &[1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0])
        });
    }

    #[test]
    fn dropout_eval_is_identity() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store, false, 0);
        let x = tape.input(Tensor::row(&[1.0, 2.0, 3.0]));
        let y = tape.dropout(x, 0.5);
        assert_eq!(x, y);
    }

    #[test]
    fn dropout_train_scales_by_keep() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store, true, 7);
        let x = tape.input(Tensor::ones(100, 10));
        let y = tape.dropout(x, 0.4);
        let m = tape.value(y).mean();
        // Inverted dropout preserves the expectation.
        assert!((m - 1.0).abs() < 0.15, "dropout mean {m}");
    }

    #[test]
    fn frozen_params_receive_no_grads() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let w = store.register("w", xavier_uniform(2, 2, &mut rng), false);
        let mut tape = Tape::new(&store, true, 0);
        let wv = tape.param(w);
        let loss = tape.mse_loss(wv, &[0.0; 4]);
        let mut grads = GradStore::new(&store);
        tape.backward(loss, &mut grads);
        assert!(grads.get(w).is_none());
    }
}
