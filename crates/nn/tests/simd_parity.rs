//! Cross-backend parity matrix for the SIMD dispatch layer.
//!
//! The repo-wide bitwise-parity contract (`predict == sweep == serve`,
//! taped == tape-free) only holds if every dispatched kernel returns
//! *identical bits* on every backend the dispatcher can pick. These
//! proptests pin that contract at the kernel level: for each microkernel
//! width (N ∈ {8, 16, 32, 64, 96}), each generic/ragged shape (including
//! single-row and empty), and each fused inference op, the scalar
//! reference and every SIMD backend available on this CPU must agree
//! exactly.
//!
//! On hardware without AVX2/AVX-512 the `backends()` list degenerates to
//! `[Scalar]` and the tests check self-consistency only; CI runs the
//! matrix on AVX2 hosts (see `.github/workflows/ci.yml`).

use cirgps_nn::simd::ops;
use cirgps_nn::{Backend, Tensor};
use proptest::prelude::*;

/// Every backend this CPU can execute, scalar always included.
fn backends() -> Vec<Backend> {
    Backend::ALL
        .iter()
        .copied()
        .filter(|b| b.available())
        .collect()
}

/// Deterministic pseudo-random fill in roughly [-1.9, 1.9].
fn fill(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| ((i as u64).wrapping_mul(seed.wrapping_mul(2) + 1) % 97) as f32 * 0.04 - 1.9)
        .collect()
}

fn tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    Tensor::from_vec(rows, cols, fill(rows * cols, seed))
}

/// Asserts two f32 slices are bitwise identical (stricter than `==`:
/// distinguishes -0.0 from 0.0 and would catch NaN-vs-NaN).
fn assert_bitwise(label: &str, backend: Backend, scalar: &[f32], simd: &[f32]) {
    assert_eq!(scalar.len(), simd.len(), "{label}: length vs {backend}");
    for (i, (a, b)) in scalar.iter().zip(simd).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{label}[{i}]: scalar {a} != {backend} {b}"
        );
    }
}

/// Shapes covering the microkernel widths, ragged tails, single-row
/// activations (the serve singleton path) and empty batches.
fn gemm_shapes() -> impl Strategy<Value = (usize, usize, usize)> {
    prop_oneof![
        // The fixed-width microkernels the dispatcher specializes.
        (1usize..6, 1usize..48, Just(8usize)),
        (1usize..6, 1usize..48, Just(16usize)),
        (1usize..6, 1usize..48, Just(32usize)),
        (1usize..6, 1usize..48, Just(64usize)),
        // The packed QKV width (3·32) and another multiple of 32.
        (1usize..6, 1usize..48, Just(96usize)),
        (1usize..6, 1usize..48, Just(128usize)),
        // Ragged widths around the 8/16-lane boundaries.
        (1usize..6, 1usize..32, 1usize..20),
        // Training shapes: output rows around the `aᵀ·b` register-tile
        // heights (4 and 8 rows; 13, 15 and 17 leave a partial tile of
        // each height), k across the 128-step panel boundary and off the
        // 8-lane grid (the `a·bᵀ` lane tail), n on and off the vector
        // widths.
        (
            prop_oneof![
                Just(8usize),
                Just(13usize),
                Just(15usize),
                Just(17usize),
                Just(31usize),
                Just(32usize),
                Just(33usize),
                Just(64usize)
            ],
            1usize..600,
            prop_oneof![Just(8usize), Just(19usize), Just(32usize), Just(96usize)],
        ),
        // Single row and empty batch.
        Just((1usize, 9usize, 24usize)),
        Just((0usize, 5usize, 8usize)),
        Just((0usize, 5usize, 96usize)),
        Just((3usize, 1usize, 1usize)),
        // Empty inner dimension: every output gets `+ 0.0`.
        Just((3usize, 0usize, 40usize)),
    ]
}

/// `a·b`, `aᵀ·b` and `a·bᵀ` for one `(m, k, n)`: every backend must
/// reproduce the scalar kernel's bits.
fn check_gemm_family(m: usize, k: usize, n: usize, seed: u64) {
    let a = fill(m * k, seed);
    let b = fill(k * n, seed ^ 0x9e37);
    // aᵀ·b reads `a` stored k×m; a·bᵀ reads `b` stored n×k.
    let at = fill(k * m, seed ^ 0x1111);
    let bt = fill(n * k, seed ^ 0x2222);
    let run = |backend: Backend| {
        let mut outs = [
            vec![0.0f32; m * n],
            vec![0.0f32; m * n],
            vec![0.0f32; m * n],
        ];
        ops::gemm(backend, &a, &b, &mut outs[0], m, k, n);
        ops::gemm_atb(backend, &at, &b, &mut outs[1], m, k, n);
        ops::gemm_abt(backend, &a, &bt, &mut outs[2], m, k, n);
        outs
    };
    let scalar = run(Backend::Scalar);
    for backend in backends() {
        let simd = run(backend);
        for (label, (s, v)) in ["gemm", "gemm_atb", "gemm_abt"]
            .iter()
            .zip(scalar.iter().zip(&simd))
        {
            assert_bitwise(&format!("{label} {m}x{k}x{n}"), backend, s, v);
        }
    }
}

/// Every combination of the training-shape axes, so full and ragged
/// register tiles, panel boundaries and lane tails are all hit on every
/// run (the proptest arm samples the same axes at random k).
#[test]
fn gemm_family_training_shapes_are_bitwise_equal_across_backends() {
    for m in [8, 31, 32, 33, 64] {
        for k in [7, 133, 597] {
            for n in [8, 19, 32, 96] {
                check_gemm_family(m, k, n, (m * k + n) as u64);
            }
        }
    }
}

/// The edge-linear backward at full size (E ≈ 17k edges, d = 32): long
/// `aᵀ·b` chains over many panels and the row-parallel path.
#[test]
fn gemm_family_edge_linear_shape_is_bitwise_equal_across_backends() {
    check_gemm_family(17_000, 32, 32, 41);
    check_gemm_family(32, 17_000, 32, 43);
}

proptest! {
    #[test]
    fn gemm_family_is_bitwise_equal_across_backends(
        (m, k, n) in gemm_shapes(),
        seed in 0u64..500,
    ) {
        check_gemm_family(m, k, n, seed);
    }

    #[test]
    fn reductions_and_sweeps_are_bitwise_equal_across_backends(
        len in 0usize..200,
        seed in 0u64..500,
    ) {
        let x = fill(len, seed);
        let y = fill(len, seed ^ 0x3c3c);
        for backend in backends() {
            assert_eq!(
                ops::dot(Backend::Scalar, &x, &y).to_bits(),
                ops::dot(backend, &x, &y).to_bits(),
                "dot vs {backend}"
            );
            assert_eq!(
                ops::laned_sum(Backend::Scalar, &x).to_bits(),
                ops::laned_sum(backend, &x).to_bits(),
                "laned_sum vs {backend}"
            );

            let mut s = x.clone();
            let mut v = x.clone();
            ops::relu_sweep(Backend::Scalar, &mut s);
            ops::relu_sweep(backend, &mut v);
            assert_bitwise("relu_sweep", backend, &s, &v);

            let mut s = x.clone();
            let mut v = x.clone();
            ops::exp_sweep(Backend::Scalar, &mut s);
            ops::exp_sweep(backend, &mut v);
            assert_bitwise("exp_sweep", backend, &s, &v);

            let mut s = x.clone();
            let mut v = x.clone();
            ops::sigmoid_sweep(Backend::Scalar, &mut s);
            ops::sigmoid_sweep(backend, &mut v);
            assert_bitwise("sigmoid_sweep", backend, &s, &v);

            let mut s = x.clone();
            let mut v = x.clone();
            ops::scale_sweep(Backend::Scalar, &mut s, 0.37);
            ops::scale_sweep(backend, &mut v, 0.37);
            assert_bitwise("scale_sweep", backend, &s, &v);
        }
    }

    #[test]
    fn softmax_and_batch_norm_fusions_are_bitwise_equal_across_backends(
        (rows, cols) in (1usize..8, 1usize..40),
        seed in 0u64..500,
    ) {
        let x = tensor(rows, cols, seed);
        let residual = tensor(rows, cols, seed ^ 0x1357);
        let b2 = tensor(rows, cols, seed ^ 0x2468);
        let gamma = tensor(1, cols, seed ^ 0xaaaa);
        let beta = tensor(1, cols, seed ^ 0xbbbb);
        let mean = tensor(1, cols, seed ^ 0xcccc);
        // Variances must be non-negative.
        let var = Tensor::from_vec(
            1,
            cols,
            fill(cols, seed ^ 0xdddd).iter().map(|v| v.abs()).collect(),
        );
        let eps = 1e-5;

        for backend in backends() {
            let s = ops::softmax_rows(Backend::Scalar, &x, 0.5);
            let v = ops::softmax_rows(backend, &x, 0.5);
            assert_bitwise("softmax_rows", backend, s.as_slice(), v.as_slice());

            let s = ops::batch_norm(Backend::Scalar, &x, &gamma, &beta, eps, &mean, &var);
            let v = ops::batch_norm(backend, &x, &gamma, &beta, eps, &mean, &var);
            assert_bitwise("batch_norm", backend, s.as_slice(), v.as_slice());

            let s = ops::batch_norm_relu_add(
                Backend::Scalar, &x, &gamma, &beta, eps, &mean, &var, &residual,
            );
            let v = ops::batch_norm_relu_add(
                backend, &x, &gamma, &beta, eps, &mean, &var, &residual,
            );
            assert_bitwise("batch_norm_relu_add", backend, s.as_slice(), v.as_slice());

            let s = ops::batch_norm_of_sum(Backend::Scalar, &x, &b2, &gamma, &beta, eps, &mean, &var);
            let v = ops::batch_norm_of_sum(backend, &x, &b2, &gamma, &beta, eps, &mean, &var);
            assert_bitwise("batch_norm_of_sum", backend, s.as_slice(), v.as_slice());
        }
    }

    #[test]
    fn gated_scatter_and_add_div_are_bitwise_equal_across_backends(
        (nodes, cols, edges) in (1usize..10, 1usize..24, 0usize..30),
        seed in 0u64..500,
    ) {
        let bx = tensor(nodes, cols, seed);
        let e_hat = tensor(edges, cols, seed ^ 0x4141);
        let src: Vec<usize> = (0..edges)
            .map(|i| (i.wrapping_mul(7) ^ seed as usize) % nodes)
            .collect();
        let dst: Vec<usize> = (0..edges)
            .map(|i| (i.wrapping_mul(13) ^ (seed as usize >> 3)) % nodes)
            .collect();

        let (num_s, den_s) = ops::gated_scatter(Backend::Scalar, &e_hat, &bx, &src, &dst, nodes);
        for backend in backends() {
            let (num_v, den_v) = ops::gated_scatter(backend, &e_hat, &bx, &src, &dst, nodes);
            assert_bitwise("gated_scatter num", backend, num_s.as_slice(), num_v.as_slice());
            assert_bitwise("gated_scatter den", backend, den_s.as_slice(), den_v.as_slice());

            let ax = tensor(nodes, cols, seed ^ 0x8888);
            let s = ops::add_div(Backend::Scalar, ax.clone(), &num_s, &den_s, 1e-6);
            let v = ops::add_div(backend, ax, &num_s, &den_s, 1e-6);
            assert_bitwise("add_div", backend, s.as_slice(), v.as_slice());
        }
    }

    #[test]
    fn performer_feature_map_is_bitwise_equal_across_backends(
        (rows, dim, features) in (1usize..8, 1usize..16, 1usize..24),
        seed in 0u64..500,
    ) {
        let xs = tensor(rows, dim, seed);
        let omega_t = tensor(dim, features, seed ^ 0x6e6e);
        let s = ops::performer_feature_map(Backend::Scalar, &xs, &omega_t, features);
        for backend in backends() {
            let v = ops::performer_feature_map(backend, &xs, &omega_t, features);
            assert_bitwise("performer_feature_map", backend, s.as_slice(), v.as_slice());
        }
    }
}

/// The training batch-norm kernels — column statistics, the fused
/// BN → ReLU → dropout → residual forward, and both backwards — at the
/// row counts around the vector widths and the edge stream's size
/// (E ≈ 17k), on and off the 8/16-lane grid.
#[test]
fn training_batch_norm_kernels_are_bitwise_equal_across_backends() {
    for rows in [1, 31, 33, 17_000] {
        for cols in [8, 19, 32] {
            check_training_batch_norm(rows, cols, (rows * 7 + cols) as u64);
        }
    }
}

fn check_training_batch_norm(rows: usize, cols: usize, seed: u64) {
    let x = tensor(rows, cols, seed);
    let g = tensor(rows, cols, seed ^ 0x5151);
    let residual = tensor(rows, cols, seed ^ 0x1357);
    let gamma = tensor(1, cols, seed ^ 0xaaaa);
    let beta = tensor(1, cols, seed ^ 0xbbbb);
    // An inverted-dropout mask with p = 0.25 and a few exact zeros.
    let mask: Vec<f32> = fill(rows * cols, seed ^ 0x7777)
        .iter()
        .map(|v| if *v < -1.0 { 0.0 } else { 1.0 / 0.75 })
        .collect();
    let (mean, var) = ops::batch_stats(Backend::Scalar, &x);
    let invstd = var.map(|v| 1.0 / (v + 1e-5).sqrt());
    let xhat = ops::batch_norm(
        Backend::Scalar,
        &x,
        &Tensor::ones(1, cols),
        &Tensor::zeros(1, cols),
        1e-5,
        &mean,
        &var,
    );
    let run = |backend: Backend| {
        let (m, v) = ops::batch_stats(backend, &x);
        let mut outs = vec![m, v];
        let (gx, dg, db) = ops::batch_norm_backward(backend, &g, &xhat, &gamma, &invstd);
        outs.extend([gx, dg, db]);
        for mk in [Some(mask.as_slice()), None] {
            outs.push(ops::batch_norm_relu_dropout_add(
                backend, &x, &residual, mk, &mean, &invstd, &gamma, &beta,
            ));
            let (gx, dg, db) = ops::batch_norm_relu_dropout_add_backward(
                backend, &g, &x, mk, &mean, &invstd, &gamma, &beta,
            );
            outs.extend([gx, dg, db]);
        }
        outs
    };
    let labels = [
        "mean",
        "var",
        "bn gx",
        "bn dgamma",
        "bn dbeta",
        "fused fwd",
        "fused gx",
        "fused dgamma",
        "fused dbeta",
        "fused fwd (no mask)",
        "fused gx (no mask)",
        "fused dgamma (no mask)",
        "fused dbeta (no mask)",
    ];
    let scalar = run(Backend::Scalar);
    for backend in backends() {
        for ((label, s), v) in labels.iter().zip(&scalar).zip(run(backend)) {
            assert_bitwise(
                &format!("{label} {rows}x{cols}"),
                backend,
                s.as_slice(),
                v.as_slice(),
            );
        }
    }
}

proptest! {
    #[test]
    fn gated_aggregate_backward_is_bitwise_equal_across_backends(
        (nodes, cols, edges) in (1usize..10, 1usize..40, 0usize..30),
        seed in 0u64..500,
    ) {
        let bx = tensor(nodes, cols, seed);
        let e_hat = tensor(edges, cols, seed ^ 0x4141);
        let g = tensor(nodes, cols, seed ^ 0x4242);
        let agg = tensor(nodes, cols, seed ^ 0x4343);
        let den = Tensor::from_vec(
            nodes,
            cols,
            fill(nodes * cols, seed ^ 0x4444).iter().map(|v| v.abs() + 1e-6).collect(),
        );
        let src: Vec<usize> = (0..edges)
            .map(|i| (i.wrapping_mul(7) ^ seed as usize) % nodes)
            .collect();
        let dst: Vec<usize> = (0..edges)
            .map(|i| (i.wrapping_mul(13) ^ (seed as usize >> 3)) % nodes)
            .collect();
        let run = |backend| {
            ops::gated_aggregate_backward(backend, &g, &agg, &den, &e_hat, &bx, &src, &dst)
        };
        let (ge_s, gbx_s) = run(Backend::Scalar);
        for backend in backends() {
            let (ge_v, gbx_v) = run(backend);
            assert_bitwise("gated backward g_e", backend, ge_s.as_slice(), ge_v.as_slice());
            assert_bitwise("gated backward g_bx", backend, gbx_s.as_slice(), gbx_v.as_slice());
        }
    }
}

/// Packed-batch shapes for the fused Performer forward: one to three
/// blocks of 1–600 rows, optionally led by a 523-row hub-net block.
fn performer_packs() -> impl Strategy<Value = Vec<(usize, usize)>> {
    (proptest::collection::vec(1usize..601, 1..4), 0u8..2).prop_map(|(sizes, hub)| {
        let lead = if hub == 1 { vec![523] } else { Vec::new() };
        let mut r0 = 0;
        lead.into_iter()
            .chain(sizes)
            .map(|len| {
                r0 += len;
                (r0 - len, len)
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn performer_block_diag_is_bitwise_equal_across_backends(
        blocks in performer_packs(),
        (heads, head_dim) in prop_oneof![
            Just((4usize, 8usize)),
            Just((2usize, 16usize)),
            Just((1usize, 32usize)),
            Just((3usize, 5usize)),
        ],
        features in prop_oneof![Just(32usize), 1usize..40],
        save in 0u8..2,
        seed in 0u64..500,
    ) {
        let save = save == 1;
        let n = blocks.last().map_or(0, |&(r0, len)| r0 + len);
        let dim = heads * head_dim;
        let qkv = tensor(n, 3 * dim, seed);
        let proj = tensor(heads * features, head_dim, seed ^ 0x7f7f);
        let run = |backend| {
            ops::performer_block_diag(backend, &qkv, &proj, &blocks, heads, head_dim, features, save)
        };
        let (out_s, q_s, k_s) = run(Backend::Scalar);
        prop_assert_eq!(q_s.len(), if save { heads } else { 0 });
        for backend in backends() {
            let (out_v, q_v, k_v) = run(backend);
            assert_bitwise("performer_block_diag out", backend, out_s.as_slice(), out_v.as_slice());
            prop_assert_eq!(q_v.len(), q_s.len());
            for h in 0..q_s.len() {
                assert_bitwise("performer_block_diag phi_q", backend, q_s[h].as_slice(), q_v[h].as_slice());
                assert_bitwise("performer_block_diag phi_k", backend, k_s[h].as_slice(), k_v[h].as_slice());
            }
        }
    }
}

/// Packs for the fused Performer backward: blocks of 0–60 rows, some
/// separated by rows outside every block.
fn performer_backward_packs() -> impl Strategy<Value = (Vec<(usize, usize)>, usize)> {
    proptest::collection::vec((0usize..61, 0usize..2), 1..5).prop_map(|spans| {
        let mut r0 = 0;
        let blocks = spans
            .into_iter()
            .map(|(len, gap)| {
                r0 += gap + len;
                (r0 - len, len)
            })
            .collect();
        (blocks, r0)
    })
}

proptest! {
    #[test]
    fn performer_block_diag_backward_is_bitwise_equal_across_backends(
        (blocks, n) in performer_backward_packs(),
        (heads, head_dim) in prop_oneof![
            Just((4usize, 8usize)),
            Just((1usize, 1usize)),
            Just((2usize, 19usize)),
            Just((3usize, 5usize)),
        ],
        features in prop_oneof![Just(32usize), 1usize..40],
        seed in 0u64..500,
    ) {
        let dim = heads * head_dim;
        let qkv = tensor(n, 3 * dim, seed);
        let proj = tensor(heads * features, head_dim, seed ^ 0x7f7f);
        let g = tensor(n, dim, seed ^ 0x3c3c);
        let (y, pq, pk) =
            ops::performer_block_diag(Backend::Scalar, &qkv, &proj, &blocks, heads, head_dim, features, true);
        let run = |backend| {
            ops::performer_block_diag_backward(
                backend, &qkv, &proj, &blocks, heads, head_dim, features, &y, &g, &pq, &pk,
            )
        };
        let s = run(Backend::Scalar);
        for backend in backends() {
            let v = run(backend);
            assert_bitwise("performer_block_diag_backward", backend, s.as_slice(), v.as_slice());
        }
    }
}

/// Env-forced backends and in-process comparisons must agree: whatever
/// `Backend::active()` latched, re-running a kernel through the explicit
/// `ops` surface with that same backend reproduces the implicit path.
#[test]
fn active_backend_matches_explicit_dispatch() {
    let active = Backend::active();
    assert!(active.available(), "active backend must be executable");
    let a = tensor(3, 17, 7);
    let b = tensor(17, 24, 8);
    let implicit = a.matmul(&b);
    let mut explicit = vec![0.0f32; 3 * 24];
    ops::gemm(active, a.as_slice(), b.as_slice(), &mut explicit, 3, 17, 24);
    assert_bitwise(
        "matmul vs ops::gemm",
        active,
        implicit.as_slice(),
        &explicit,
    );
}
