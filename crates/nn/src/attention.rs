//! Global attention mechanisms for the GPS layer: exact multi-head softmax
//! attention (the paper's "Transformer" rows) and FAVOR+ linear attention
//! (the "Performer" rows).

use std::sync::Arc;

use rand::rngs::StdRng;

use crate::infer::{linear_fwd, mha_block_diag_fwd, performer_block_diag_fwd, qkv_pack_weights};
use crate::layers::Linear;
use crate::params::{normal_init, ParamId, ParamStore};
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

/// Exact multi-head softmax self-attention over all nodes of a (sub)graph.
///
/// Complexity is `O(N²·d)`; on the paper's 1-hop enclosing subgraphs
/// (hundreds of nodes) this is affordable, and Table III/VII quantify the
/// cost against the Performer variant.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    head_dim: usize,
}

impl MultiHeadAttention {
    /// Registers a new attention block with `heads` heads over width `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not divisible by `heads`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        heads: usize,
        rng: &mut StdRng,
    ) -> Self {
        assert_eq!(dim % heads, 0, "dim {dim} not divisible by heads {heads}");
        MultiHeadAttention {
            wq: Linear::new(store, &format!("{name}.wq"), dim, dim, false, rng),
            wk: Linear::new(store, &format!("{name}.wk"), dim, dim, false, rng),
            wv: Linear::new(store, &format!("{name}.wv"), dim, dim, false, rng),
            wo: Linear::new(store, &format!("{name}.wo"), dim, dim, true, rng),
            heads,
            head_dim: dim / heads,
        }
    }

    /// Number of attention heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Self-attention over an `N × dim` node-feature matrix (one block
    /// spanning every row; see [`MultiHeadAttention::forward_blocks`]).
    pub fn forward(&self, tape: &mut Tape, x: Var) -> Var {
        let n = tape.shape(x).0;
        self.forward_blocks(tape, x, Arc::new(vec![(0, n)]))
    }

    /// Taped block-diagonal self-attention over a packed batch.
    ///
    /// `x` concatenates per-graph node blocks; `blocks` lists each
    /// graph's `(first_row, row_count)`. Attention is computed within
    /// each block only — two fused tape ops (one packed QKV GEMM via
    /// [`Tape::linear_qkv`], one [`Tape::attn_block_diag`]) instead of
    /// ~10 ops per head, with hand-written backward kernels that never
    /// materialize a `(ΣN)²` matrix. The forward shares the
    /// [`MultiHeadAttention::infer_blocks`] kernels, so taped and
    /// tape-free results are bitwise-equal by construction.
    pub fn forward_blocks(&self, tape: &mut Tape, x: Var, blocks: Arc<Vec<(usize, usize)>>) -> Var {
        let wq = tape.param(self.wq.weight_id());
        let wk = tape.param(self.wk.weight_id());
        let wv = tape.param(self.wv.weight_id());
        let qkv = tape.linear_qkv(x, wq, wk, wv);
        let cat = tape.attn_block_diag(qkv, blocks, self.heads, self.head_dim);
        self.wo.forward(tape, cat)
    }

    /// Tape-free block-diagonal self-attention (eval mode).
    ///
    /// Same per-graph semantics as
    /// [`MultiHeadAttention::forward_blocks`] — a batch of packed
    /// subgraphs produces bitwise-identical rows to running the model on
    /// each subgraph alone, while the `O(N²)` score cost drops from
    /// `(Σnᵢ)²` to `Σnᵢ²`.
    ///
    /// # Panics
    ///
    /// Panics if a block reaches outside `x`.
    pub fn infer_blocks(
        &self,
        params: &ParamStore,
        x: &Tensor,
        blocks: &[(usize, usize)],
    ) -> Tensor {
        let wcat = qkv_pack_weights(
            params.get(self.wq.weight_id()),
            params.get(self.wk.weight_id()),
            params.get(self.wv.weight_id()),
        );
        let qkv = linear_fwd(x, &wcat, None, false);
        wcat.recycle();
        let (cat, _) = mha_block_diag_fwd(&qkv, blocks, self.heads, self.head_dim, false);
        qkv.recycle();
        let y = self.wo.infer(params, &cat);
        cat.recycle();
        y
    }
}

/// FAVOR+ linear attention (Performer, Choromanski et al. 2021).
///
/// Approximates softmax attention with positive random features so the cost
/// is `O(N·m·d)` instead of `O(N²·d)`. The random projection is a frozen
/// parameter (not updated by the optimizer), matching the reference
/// implementation's default of non-redrawn features.
#[derive(Debug, Clone)]
pub struct PerformerAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    proj: ParamId,
    heads: usize,
    head_dim: usize,
    features: usize,
}

impl PerformerAttention {
    /// Registers a Performer block with `features` random features per head.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not divisible by `heads`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        heads: usize,
        features: usize,
        rng: &mut StdRng,
    ) -> Self {
        assert_eq!(dim % heads, 0, "dim {dim} not divisible by heads {heads}");
        let head_dim = dim / heads;
        // One stacked projection for all heads: (heads*features) × head_dim,
        // rows are N(0, I) — frozen.
        let proj = store.register(
            &format!("{name}.proj"),
            normal_init(heads * features, head_dim, 1.0, rng),
            false,
        );
        PerformerAttention {
            wq: Linear::new(store, &format!("{name}.wq"), dim, dim, false, rng),
            wk: Linear::new(store, &format!("{name}.wk"), dim, dim, false, rng),
            wv: Linear::new(store, &format!("{name}.wv"), dim, dim, false, rng),
            wo: Linear::new(store, &format!("{name}.wo"), dim, dim, true, rng),
            proj,
            heads,
            head_dim,
            features,
        }
    }

    /// Number of random features per head.
    pub fn features(&self) -> usize {
        self.features
    }

    /// Transposed random projection `Ωᵀ` for one head (shared by the q and
    /// k feature maps, so it is materialized once per head).
    ///
    /// Only the kernel-property test composes the feature map from
    /// generic ops these days — the model path runs the fused
    /// [`Tape::performer_block_diag`] op.
    #[cfg(test)]
    fn omega_t(&self, tape: &mut Tape, head: usize) -> Var {
        let omega_all = tape.param(self.proj);
        let rows: Vec<usize> = (head * self.features..(head + 1) * self.features).collect();
        let omega = tape.gather(omega_all, Arc::new(rows));
        tape.transpose(omega)
    }

    /// φ(x) = exp(x̂ Ωᵀ − ‖x̂‖²/2 ) / √m with x̂ = x / d^{1/4}.
    #[cfg(test)]
    fn feature_map(&self, tape: &mut Tape, x: Var, omega_t: Var) -> Var {
        let scale = 1.0 / (self.head_dim as f32).powf(0.25);
        let xs = tape.scale(x, scale);
        let prod = tape.matmul(xs, omega_t); // N × m
        let sq = tape.mul(xs, xs);
        let half_norms = tape.row_sum(sq); // N × 1
        let half_norms = tape.scale(half_norms, 0.5);
        let shifted = tape.sub_colvec(prod, half_norms);
        let phi = tape.exp(shifted);
        // Stabilizer: add a tiny epsilon so the denominator never vanishes.
        // (Not in place: the exp output is read by its own backward.)
        let phi = tape.add_scalar(phi, 1e-6);
        tape.scale_inplace(phi, 1.0 / (self.features as f32).sqrt())
    }

    /// Linear-attention forward pass over an `N × dim` matrix (one block
    /// spanning every row; see [`PerformerAttention::forward_blocks`]).
    pub fn forward(&self, tape: &mut Tape, x: Var) -> Var {
        let n = tape.shape(x).0;
        self.forward_blocks(tape, x, Arc::new(vec![(0, n)]))
    }

    /// Taped block-diagonal linear attention over a packed batch.
    ///
    /// Same per-graph semantics as
    /// [`MultiHeadAttention::forward_blocks`]: two fused tape ops (the
    /// packed QKV GEMM plus [`Tape::performer_block_diag`]) replace the
    /// long per-head chain of generic ops. The feature maps φ(q̂)/φ(k̂)
    /// run once over the whole pack per head; the key aggregation
    /// `φ(K)ᵀ·V` and the denominators are per block. The forward shares
    /// the [`PerformerAttention::infer_blocks`] kernels, so taped and
    /// tape-free results are bitwise-equal by construction.
    pub fn forward_blocks(&self, tape: &mut Tape, x: Var, blocks: Arc<Vec<(usize, usize)>>) -> Var {
        let wq = tape.param(self.wq.weight_id());
        let wk = tape.param(self.wk.weight_id());
        let wv = tape.param(self.wv.weight_id());
        let qkv = tape.linear_qkv(x, wq, wk, wv);
        let cat = tape.performer_block_diag(
            qkv,
            self.proj,
            blocks,
            self.heads,
            self.head_dim,
            self.features,
        );
        self.wo.forward(tape, cat)
    }

    /// Tape-free block-diagonal linear attention (eval mode).
    ///
    /// Same contract as [`MultiHeadAttention::infer_blocks`]; shares its
    /// kernels with the taped [`PerformerAttention::forward_blocks`].
    ///
    /// # Panics
    ///
    /// Panics if a block reaches outside `x`.
    pub fn infer_blocks(
        &self,
        params: &ParamStore,
        x: &Tensor,
        blocks: &[(usize, usize)],
    ) -> Tensor {
        let wcat = qkv_pack_weights(
            params.get(self.wq.weight_id()),
            params.get(self.wk.weight_id()),
            params.get(self.wv.weight_id()),
        );
        let qkv = linear_fwd(x, &wcat, None, false);
        wcat.recycle();
        let (cat, _, _) = performer_block_diag_fwd(
            &qkv,
            params.get(self.proj),
            blocks,
            self.heads,
            self.head_dim,
            self.features,
            false,
        );
        qkv.recycle();
        let y = self.wo.infer(params, &cat);
        cat.recycle();
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::GradStore;
    use crate::tensor::Tensor;
    use rand::{Rng, SeedableRng};

    fn random_input(n: usize, d: usize, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::from_vec(n, d, (0..n * d).map(|_| rng.gen_range(-1.0..1.0)).collect())
    }

    /// Finite-difference check of every trainable parameter's gradient
    /// against the fused backward, for a scalar loss built by `build`.
    fn fd_check_all_params<F>(store: &mut ParamStore, tol: f32, build: F)
    where
        F: Fn(&mut Tape) -> Var,
    {
        let analytic: Vec<(ParamId, String, Tensor)> = {
            let mut tape = Tape::new(store, false, 0);
            let loss = build(&mut tape);
            assert_eq!(tape.shape(loss), (1, 1), "loss must be scalar");
            let mut grads = GradStore::new(store);
            tape.backward(loss, &mut grads);
            store
                .iter()
                .filter(|(id, _, _)| store.is_trainable(*id))
                .map(|(id, name, _)| {
                    (
                        id,
                        name.to_string(),
                        grads
                            .get(id)
                            .unwrap_or_else(|| panic!("no grad for {name}"))
                            .clone(),
                    )
                })
                .collect()
        };
        let eps = 1e-3f32;
        for (id, name, ga) in &analytic {
            for idx in 0..store.get(*id).len() {
                let orig = store.get(*id).as_slice()[idx];
                store.get_mut(*id).as_mut_slice()[idx] = orig + eps;
                let lp = {
                    let mut t = Tape::new(store, false, 0);
                    let l = build(&mut t);
                    t.value(l).item()
                };
                store.get_mut(*id).as_mut_slice()[idx] = orig - eps;
                let lm = {
                    let mut t = Tape::new(store, false, 0);
                    let l = build(&mut t);
                    t.value(l).item()
                };
                store.get_mut(*id).as_mut_slice()[idx] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let a = ga.as_slice()[idx];
                assert!(
                    (a - numeric).abs() < tol * (1.0 + a.abs().max(numeric.abs())),
                    "{name}[{idx}]: analytic {a} vs numeric {numeric}"
                );
            }
        }
    }

    /// Blocks of 1 / 3 / 17 rows (incl. a single-node block) over 21 rows.
    const GRADCHECK_BLOCKS: [(usize, usize); 3] = [(0, 1), (1, 3), (4, 17)];

    #[test]
    fn mha_block_diag_gradcheck() {
        // The input is itself a parameter so the finite-difference check
        // covers the fused-QKV `gx` path and the attention op's dQ/dK/dV
        // in addition to all projection weight gradients.
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let attn = MultiHeadAttention::new(&mut store, "a", 8, 2, &mut rng);
        let xid = store.register("x", random_input(21, 8, 4), true);
        let targets: Vec<f32> = (0..21 * 8)
            .map(|i| ((i as f32) * 0.13).sin() * 0.3)
            .collect();
        fd_check_all_params(&mut store, 3e-2, |tape| {
            let x = tape.param(xid);
            let blocks = Arc::new(GRADCHECK_BLOCKS.to_vec());
            let y = attn.forward_blocks(tape, x, blocks);
            tape.mse_loss(y, &targets)
        });
    }

    #[test]
    fn performer_block_diag_gradcheck() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let attn = PerformerAttention::new(&mut store, "p", 8, 2, 16, &mut rng);
        let xid = store.register("x", random_input(21, 8, 6), true);
        let targets: Vec<f32> = (0..21 * 8)
            .map(|i| ((i as f32) * 0.07).cos() * 0.3)
            .collect();
        fd_check_all_params(&mut store, 3e-2, |tape| {
            let x = tape.param(xid);
            let blocks = Arc::new(GRADCHECK_BLOCKS.to_vec());
            let y = attn.forward_blocks(tape, x, blocks);
            tape.mse_loss(y, &targets)
        });
    }

    #[test]
    fn block_diag_taped_equals_tape_free_multi_block() {
        // Bitwise: the taped fused forward and the tape-free engine share
        // their kernels, so a multi-block pack must agree bit for bit.
        let mut rng = StdRng::seed_from_u64(8);
        let mut store = ParamStore::new();
        let mha = MultiHeadAttention::new(&mut store, "a", 8, 2, &mut rng);
        let perf = PerformerAttention::new(&mut store, "p", 8, 2, 16, &mut rng);
        let x = random_input(21, 8, 9);
        let blocks = GRADCHECK_BLOCKS.to_vec();

        let taped_mha = {
            let mut tape = Tape::new(&store, false, 0);
            let xv = tape.input(x.clone());
            let y = mha.forward_blocks(&mut tape, xv, Arc::new(blocks.clone()));
            tape.value(y).as_slice().to_vec()
        };
        assert_eq!(taped_mha, mha.infer_blocks(&store, &x, &blocks).as_slice());

        let taped_perf = {
            let mut tape = Tape::new(&store, false, 0);
            let xv = tape.input(x.clone());
            let y = perf.forward_blocks(&mut tape, xv, Arc::new(blocks.clone()));
            tape.value(y).as_slice().to_vec()
        };
        assert_eq!(
            taped_perf,
            perf.infer_blocks(&store, &x, &blocks).as_slice()
        );
    }

    #[test]
    fn block_diag_equals_per_block_solo_runs() {
        // Per-graph semantics: each block's rows must equal running the
        // same attention over that block alone (bitwise).
        let mut rng = StdRng::seed_from_u64(11);
        let mut store = ParamStore::new();
        let mha = MultiHeadAttention::new(&mut store, "a", 8, 4, &mut rng);
        let x = random_input(12, 8, 12);
        let blocks = vec![(0usize, 5usize), (5, 1), (6, 6)];
        let packed = {
            let mut tape = Tape::new(&store, false, 0);
            let xv = tape.input(x.clone());
            let y = mha.forward_blocks(&mut tape, xv, Arc::new(blocks.clone()));
            tape.value(y).clone()
        };
        for &(r0, len) in &blocks {
            let solo = {
                let mut sub = crate::pool::take_capacity(len * 8);
                for r in r0..r0 + len {
                    sub.extend_from_slice(x.row_slice(r));
                }
                let sub = Tensor::from_vec(len, 8, sub);
                let mut tape = Tape::new(&store, false, 0);
                let xv = tape.input(sub);
                let y = mha.forward(&mut tape, xv);
                tape.value(y).clone()
            };
            for (r, row) in (r0..r0 + len).zip(0..len) {
                assert_eq!(
                    packed.row_slice(r),
                    solo.row_slice(row),
                    "block ({r0},{len}) row {row} diverged"
                );
            }
        }
    }

    #[test]
    fn mha_output_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let attn = MultiHeadAttention::new(&mut store, "a", 16, 4, &mut rng);
        let mut tape = Tape::new(&store, false, 0);
        let x = tape.input(random_input(9, 16, 1));
        let y = attn.forward(&mut tape, x);
        assert_eq!(tape.shape(y), (9, 16));
    }

    #[test]
    fn mha_gradients_flow() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let attn = MultiHeadAttention::new(&mut store, "a", 8, 2, &mut rng);
        let mut tape = Tape::new(&store, true, 0);
        let x = tape.input(random_input(5, 8, 2));
        let y = attn.forward(&mut tape, x);
        let loss = tape.mse_loss(y, &vec![0.1; 40]);
        let mut grads = GradStore::new(&store);
        tape.backward(loss, &mut grads);
        let touched = store
            .iter()
            .filter(|(id, _, _)| grads.get(*id).is_some())
            .count();
        assert_eq!(touched, 5, "wq, wk, wv, wo.weight, wo.bias");
    }

    #[test]
    fn performer_output_shape_and_grads() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let attn = PerformerAttention::new(&mut store, "p", 8, 2, 16, &mut rng);
        let mut tape = Tape::new(&store, true, 0);
        let x = tape.input(random_input(6, 8, 3));
        let y = attn.forward(&mut tape, x);
        assert_eq!(tape.shape(y), (6, 8));
        let loss = tape.mse_loss(y, &vec![0.0; 48]);
        let mut grads = GradStore::new(&store);
        tape.backward(loss, &mut grads);
        // The frozen projection must NOT receive a gradient.
        let frozen: Vec<_> = store
            .iter()
            .filter(|(id, name, _)| name.ends_with(".proj") && grads.get(*id).is_some())
            .collect();
        assert!(frozen.is_empty(), "projection should be frozen");
        let touched = store
            .iter()
            .filter(|(id, _, _)| grads.get(*id).is_some())
            .count();
        assert_eq!(touched, 5);
    }

    #[test]
    fn performer_approximates_softmax_attention_loosely() {
        // With many random features, Performer output should correlate with
        // exact attention when using the SAME q/k/v projections. We test the
        // kernel property directly: φ(q)·φ(k) ≈ exp(q·k/√d) on average.
        let mut rng = StdRng::seed_from_u64(9);
        let mut store = ParamStore::new();
        let attn = PerformerAttention::new(&mut store, "p", 8, 1, 512, &mut rng);
        let mut tape = Tape::new(&store, false, 0);
        let q = tape.input(random_input(4, 8, 10));
        let k = tape.input(random_input(4, 8, 11));
        let omega_t = attn.omega_t(&mut tape, 0);
        let pq = attn.feature_map(&mut tape, q, omega_t);
        let pk = attn.feature_map(&mut tape, k, omega_t);
        let pk_t = tape.transpose(pk);
        let approx = tape.matmul(pq, pk_t);
        let qv = tape.value(q).clone();
        let kv = tape.value(k).clone();
        let d = 8.0f32;
        let mut max_rel = 0.0f32;
        for i in 0..4 {
            for j in 0..4 {
                let dot: f32 = qv
                    .row_slice(i)
                    .iter()
                    .zip(kv.row_slice(j))
                    .map(|(&a, &b)| a * b)
                    .sum();
                let exact = (dot / d.sqrt()).exp();
                let got = tape.value(approx).get(i, j);
                let rel = (got - exact).abs() / exact;
                max_rel = max_rel.max(rel);
            }
        }
        assert!(max_rel < 0.6, "kernel approximation too loose: {max_rel}");
    }
}
