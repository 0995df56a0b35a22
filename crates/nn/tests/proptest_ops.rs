//! Property-based tests for the tensor and autograd layers: algebraic
//! identities on random tensors and finite-difference gradient checks on
//! random op chains.

use cirgps_nn::{GradStore, ParamStore, Tape, Tensor, Var};
use proptest::prelude::*;

fn tensor_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |v| Tensor::from_vec(rows, cols, v))
}

/// Random `(m, k, n)` matmul shapes, biased to include the degenerate
/// `1 × d` (row-vector) and `n × 1` (column-vector) edge shapes.
fn matmul_shapes() -> impl Strategy<Value = (usize, usize, usize)> {
    prop_oneof![
        (1usize..12, 1usize..12, 1usize..12),
        // k spanning multiple 128-wide blocking panels.
        (1usize..4, 120usize..200, 1usize..4),
        Just((1usize, 7usize, 5usize)), // 1×d row vector input
        Just((6usize, 1usize, 3usize)), // n×1 inner dimension
        Just((5usize, 4usize, 1usize)), // n×1 output column
        Just((1usize, 1usize, 1usize)),
    ]
}

fn random_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    // Deterministic pseudo-random fill, cheap enough for large k.
    Tensor::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|i| ((i as u64).wrapping_mul(seed + 1) % 97) as f32 * 0.04 - 1.9)
            .collect(),
    )
}

/// Naive i-j-k triple loop: the reference the optimized kernels are
/// checked against.
fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a.get(i, p) * b.get(p, j);
            }
            out[i * n + j] = acc;
        }
    }
    Tensor::from_vec(m, n, out)
}

fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
    assert_eq!(a.shape(), b.shape());
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert!((x - y).abs() < tol, "{x} vs {y} (tol {tol})");
    }
}

proptest! {
    #[test]
    fn blocked_matmul_matches_naive_reference(
        (m, k, n) in matmul_shapes(),
        seed in 0u64..1000,
    ) {
        let a = random_tensor(m, k, seed);
        let b = random_tensor(k, n, seed ^ 0x9e37);
        let reference = matmul_naive(&a, &b);
        // Tolerance scales with k: each output element sums k products of
        // values in [-2, 2].
        let tol = 1e-5 * (1.0 + k as f32);
        assert_close(&a.matmul(&b), &reference, tol);
        // Transposed variants against the same reference.
        assert_close(&a.transpose().t_matmul(&b), &reference, tol);
        assert_close(&a.matmul_t(&b.transpose()), &reference, tol);
    }

    #[test]
    fn fused_linear_matches_unfused_composition(
        (m, k, n) in matmul_shapes(),
        seed in 0u64..1000,
    ) {
        let x = random_tensor(m, k, seed);
        let w = random_tensor(k, n, seed ^ 0x2b1a);
        let bias = random_tensor(1, n, seed ^ 0x77f3);

        let store = ParamStore::new();
        let mut t1 = Tape::new(&store, false, 0);
        let (xv, wv, bv) = (t1.input(x.clone()), t1.input(w.clone()), t1.input(bias.clone()));
        let fused = t1.linear(xv, wv, Some(bv));
        let fused_relu = t1.linear_relu(xv, wv, Some(bv));

        let mut t2 = Tape::new(&store, false, 0);
        let (xv2, wv2, bv2) = (t2.input(x), t2.input(w), t2.input(bias));
        let mm = t2.matmul(xv2, wv2);
        let unfused = t2.add_bias(mm, bv2);
        let unfused_relu = t2.relu(unfused);

        let tol = 1e-5 * (1.0 + k as f32);
        assert_close(t1.value(fused), t2.value(unfused), tol);
        assert_close(t1.value(fused_relu), t2.value(unfused_relu), tol);
    }

    #[test]
    fn pooled_rerun_is_bitwise_stable(
        a in tensor_strategy(4, 6),
        b in tensor_strategy(6, 3),
    ) {
        // Running the same op chain on a fresh tape after the first tape's
        // buffers were recycled must give bit-identical results: recycled
        // buffers carry no state.
        let store = ParamStore::new();
        let run = || {
            let mut t = Tape::new(&store, false, 0);
            let (av, bv) = (t.input(a.clone()), t.input(b.clone()));
            let h = t.matmul(av, bv);
            let h = t.relu(h);
            let s = t.softmax_rows(h);
            t.value(s).as_slice().to_vec()
        };
        let first = run();
        let second = run();
        prop_assert_eq!(first, second);
    }

    #[test]
    fn matmul_is_associative_enough(
        a in tensor_strategy(3, 4),
        b in tensor_strategy(4, 2),
        c in tensor_strategy(2, 5),
    ) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_distributes_over_add(
        a in tensor_strategy(3, 3),
        b in tensor_strategy(3, 3),
        c in tensor_strategy(3, 3),
    ) {
        let left = a.add(&b).matmul(&c);
        let right = a.matmul(&c).add(&b.matmul(&c));
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn transpose_variants_agree(
        a in tensor_strategy(4, 3),
        b in tensor_strategy(4, 5),
    ) {
        // aᵀ·b three ways.
        let v1 = a.t_matmul(&b);
        let v2 = a.transpose().matmul(&b);
        prop_assert_eq!(v1.shape(), v2.shape());
        for (x, y) in v1.as_slice().iter().zip(v2.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn softmax_rows_are_distributions(a in tensor_strategy(5, 7)) {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store, false, 0);
        let x = tape.input(a);
        let s = tape.softmax_rows(x);
        let t = tape.value(s);
        for r in 0..t.rows() {
            let sum: f32 = t.row_slice(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "row {r} sums to {sum}");
            prop_assert!(t.row_slice(r).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn random_op_chain_gradcheck(
        data in proptest::collection::vec(-1.0f32..1.0, 6),
        ops in proptest::collection::vec(0u8..4, 1..5),
        targets in proptest::collection::vec(-1.0f32..1.0, 6),
    ) {
        // Build w (2x3), apply a random chain of shape-preserving unary
        // ops, take MSE against targets, compare analytic vs numeric
        // gradient at a few coordinates.
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_vec(2, 3, data.clone()), true);

        let run = |store: &ParamStore| -> (f32, Option<Tensor>) {
            let mut tape = Tape::new(store, false, 0);
            let wv = tape.param(w);
            let mut h: Var = wv;
            for &op in &ops {
                h = match op {
                    0 => tape.relu(h),
                    1 => tape.sigmoid(h),
                    2 => tape.scale(h, 0.7),
                    _ => tape.add_scalar(h, 0.3),
                };
            }
            let loss = tape.mse_loss(h, &targets);
            let mut grads = GradStore::new(store);
            tape.backward(loss, &mut grads);
            (tape.value(loss).item(), grads.get(w).cloned())
        };

        let (_, analytic) = run(&store);
        let analytic = analytic.expect("gradient must exist");
        let eps = 1e-3f32;
        for idx in [0usize, 3, 5] {
            let orig = store.get(w).as_slice()[idx];
            // ReLU kinks make finite differences unreliable near zero.
            if orig.abs() < 5e-3 {
                continue;
            }
            store.get_mut(w).as_mut_slice()[idx] = orig + eps;
            let (lp, _) = run(&store);
            store.get_mut(w).as_mut_slice()[idx] = orig - eps;
            let (lm, _) = run(&store);
            store.get_mut(w).as_mut_slice()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let a = analytic.as_slice()[idx];
            prop_assert!(
                (a - numeric).abs() < 5e-2 * (1.0 + a.abs().max(numeric.abs())),
                "ops {ops:?} idx {idx}: analytic {a} numeric {numeric}"
            );
        }
    }

    #[test]
    fn gather_scatter_inverse_on_permutations(perm_seed in 0u64..1000) {
        // scatter_add(gather(x, p), p) == x when p is a permutation.
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(perm_seed);
        let mut perm: Vec<usize> = (0..8).collect();
        perm.shuffle(&mut rng);

        let store = ParamStore::new();
        let mut tape = Tape::new(&store, false, 0);
        let xv: Vec<f32> = (0..16).map(|i| i as f32 * 0.5 - 3.0).collect();
        let x = tape.input(Tensor::from_vec(8, 2, xv.clone()));
        let g = tape.gather(x, std::sync::Arc::new(perm.clone()));
        let back = tape.scatter_add(g, std::sync::Arc::new(perm), 8);
        prop_assert_eq!(tape.value(back).as_slice(), &xv[..]);
    }

    #[test]
    fn bce_loss_is_nonnegative_and_bounded_for_confident_preds(
        logits in proptest::collection::vec(-10.0f32..10.0, 8),
        labels in proptest::collection::vec(0u8..2, 8),
    ) {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store, false, 0);
        let z = tape.input(Tensor::col(&logits));
        let y: Vec<f32> = labels.iter().map(|&l| l as f32).collect();
        let loss = tape.bce_with_logits(z, &y);
        let v = tape.value(loss).item();
        prop_assert!(v >= 0.0, "BCE {v} < 0");
        prop_assert!(v.is_finite());
    }

    #[test]
    fn tape_free_mlp_matches_taped_forward(
        (n, seed) in (1usize..12, 0u64..500),
    ) {
        // The batched inference engine runs tape-free; its value must be
        // bitwise-equal to the eval-mode taped forward (shared kernels).
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let mlp = cirgps_nn::Mlp::new(
            &mut store,
            "mlp",
            &[5, 7, 3],
            cirgps_nn::Activation::Relu,
            0.2, // dropout is the identity in eval mode
            &mut rng,
        );
        let x = random_tensor(n, 5, seed ^ 0xabcd);
        let taped = {
            let mut tape = Tape::new(&store, false, 0);
            let xv = tape.input(x.clone());
            let y = mlp.forward(&mut tape, xv);
            tape.value(y).as_slice().to_vec()
        };
        let free = mlp.infer(&store, &x);
        prop_assert_eq!(&taped[..], free.as_slice());
    }

    #[test]
    fn tape_free_attention_matches_taped_forward(
        (n, seed) in (1usize..10, 0u64..500),
    ) {
        // A single block spanning every row must reproduce the taped
        // full-graph attention bitwise, for both attention kinds.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let mha = cirgps_nn::MultiHeadAttention::new(&mut store, "a", 8, 2, &mut rng);
        let perf = cirgps_nn::PerformerAttention::new(&mut store, "p", 8, 2, 16, &mut rng);
        let x = random_tensor(n, 8, seed ^ 0x55aa);

        let taped_mha = {
            let mut tape = Tape::new(&store, false, 0);
            let xv = tape.input(x.clone());
            let y = mha.forward(&mut tape, xv);
            tape.value(y).as_slice().to_vec()
        };
        let free_mha = mha.infer_blocks(&store, &x, &[(0, n)]);
        prop_assert_eq!(&taped_mha[..], free_mha.as_slice());

        let taped_perf = {
            let mut tape = Tape::new(&store, false, 0);
            let xv = tape.input(x.clone());
            let y = perf.forward(&mut tape, xv);
            tape.value(y).as_slice().to_vec()
        };
        let free_perf = perf.infer_blocks(&store, &x, &[(0, n)]);
        prop_assert_eq!(&taped_perf[..], free_perf.as_slice());
    }

    #[test]
    fn taped_block_diag_attention_matches_tape_free(
        (n, seed) in (1usize..12, 0u64..300),
    ) {
        // Random partition of the pack into per-graph blocks: the taped
        // fused block-diagonal ops and the tape-free engine share their
        // forward kernels, so any block layout must agree bitwise for
        // both attention kinds.
        use rand::{Rng, SeedableRng};
        use std::sync::Arc;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut blocks = Vec::new();
        let mut r0 = 0usize;
        while r0 < n {
            let len = rng.gen_range(0..n - r0) + 1;
            blocks.push((r0, len));
            r0 += len;
        }

        let mut prng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x7777);
        let mut store = ParamStore::new();
        let mha = cirgps_nn::MultiHeadAttention::new(&mut store, "a", 8, 2, &mut prng);
        let perf = cirgps_nn::PerformerAttention::new(&mut store, "p", 8, 2, 16, &mut prng);
        let x = random_tensor(n, 8, seed ^ 0x33cc);

        let taped_mha = {
            let mut tape = Tape::new(&store, false, 0);
            let xv = tape.input(x.clone());
            let y = mha.forward_blocks(&mut tape, xv, Arc::new(blocks.clone()));
            tape.value(y).as_slice().to_vec()
        };
        let free_mha = mha.infer_blocks(&store, &x, &blocks);
        prop_assert_eq!(&taped_mha[..], free_mha.as_slice());

        let taped_perf = {
            let mut tape = Tape::new(&store, false, 0);
            let xv = tape.input(x.clone());
            let y = perf.forward_blocks(&mut tape, xv, Arc::new(blocks.clone()));
            tape.value(y).as_slice().to_vec()
        };
        let free_perf = perf.infer_blocks(&store, &x, &blocks);
        prop_assert_eq!(&taped_perf[..], free_perf.as_slice());
    }

    #[test]
    fn tape_free_gatedgcn_matches_taped_forward(
        (n, seed) in (2usize..9, 0u64..500),
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let layer = cirgps_nn::GatedGcn::new(&mut store, "g", 6, 0.0, &mut rng);
        // Undirected path graph, both edge directions.
        let mut src = Vec::new();
        let mut dst = Vec::new();
        for i in 1..n {
            src.push(i - 1);
            dst.push(i);
            src.push(i);
            dst.push(i - 1);
        }
        let idx = cirgps_nn::EdgeIndex::new(src, dst);
        let x = random_tensor(n, 6, seed ^ 0x1111);
        let e = random_tensor(idx.len(), 6, seed ^ 0x2222);

        let (taped_x, taped_e) = {
            let mut tape = Tape::new(&store, false, 0);
            let xv = tape.input(x.clone());
            let ev = tape.input(e.clone());
            let (x2, e2) = layer.forward(&mut tape, xv, ev, &idx);
            (
                tape.value(x2).as_slice().to_vec(),
                tape.value(e2).as_slice().to_vec(),
            )
        };
        let (free_x, free_e) = layer.infer(&store, &x, &e, &idx);
        prop_assert_eq!(&taped_x[..], free_x.as_slice());
        prop_assert_eq!(&taped_e[..], free_e.as_slice());
    }
}
