//! Forward-only kernels shared by the autograd [`crate::Tape`] and the
//! tape-free inference path.
//!
//! The batched inference engine (`Linear::infer`, `Mlp::infer`,
//! `MultiHeadAttention::infer_blocks`, …) must produce **bitwise-equal**
//! outputs to the taped forward pass, so every non-trivial forward
//! computation lives here exactly once and both paths call it: the tape
//! records an op around the result, the inference path just keeps the
//! tensor. Simple elementwise ops (`add`, `mul`, `map`) go through the
//! same [`crate::Tensor`] methods on both paths.
//!
//! All outputs are pool-backed (see [`crate::pool`]); inference callers
//! recycle intermediates explicitly, so steady-state batched inference
//! performs no per-op heap allocation — and, unlike the tape, it keeps
//! no op log, no [`crate::Var`] table and no per-op shape bookkeeping.

use crate::pool;
use crate::simd::Backend;
use crate::tensor::{fast_exp, gemm, Tensor};

/// In-place `v = max(v, 0)` on an explicit backend (bitwise-equal to the
/// scalar sweep, including `-0.0 → +0.0` and `NaN → 0.0`).
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn relu_sweep_with(backend: Backend, xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if backend != Backend::Scalar {
        // SAFETY: non-scalar backends imply a successful AVX2+FMA probe.
        return unsafe { crate::simd::avx2::relu_sweep(xs) };
    }
    for v in xs.iter_mut() {
        *v = v.max(0.0);
    }
}

/// In-place `v = fast_exp(v)` on an explicit backend.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn exp_sweep_with(backend: Backend, xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if backend != Backend::Scalar {
        // SAFETY: non-scalar backends imply a successful AVX2+FMA probe.
        return unsafe { crate::simd::avx2::exp_sweep(xs) };
    }
    for v in xs.iter_mut() {
        *v = fast_exp(*v);
    }
}

/// In-place `v = stable_sigmoid(v)` on an explicit backend.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn sigmoid_sweep_with(backend: Backend, xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if backend != Backend::Scalar {
        // SAFETY: non-scalar backends imply a successful AVX2+FMA probe.
        return unsafe { crate::simd::avx2::sigmoid_sweep(xs) };
    }
    for v in xs.iter_mut() {
        *v = stable_sigmoid(*v);
    }
}

/// In-place `v *= s` on an explicit backend.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn scale_sweep_with(backend: Backend, xs: &mut [f32], s: f32) {
    #[cfg(target_arch = "x86_64")]
    if backend != Backend::Scalar {
        // SAFETY: non-scalar backends imply a successful AVX2+FMA probe.
        return unsafe { crate::simd::avx2::scale_sweep(xs, s) };
    }
    for v in xs.iter_mut() {
        *v *= s;
    }
}

/// Numerically stable sigmoid, written select-style (no branch) so the
/// `map` loops over whole tensors auto-vectorize.
#[inline]
pub fn stable_sigmoid(x: f32) -> f32 {
    // σ(-|x|) is always evaluated in the stable regime (argument ≤ 0);
    // σ(x) = 1 − σ(−x) recovers the positive side via a blend.
    let e = fast_exp(-x.abs());
    let s = e / (1.0 + e);
    if x >= 0.0 {
        1.0 - s
    } else {
        s
    }
}

/// Fused linear forward `x·W (+ b)` with optional ReLU: the bias (when
/// present) seeds the output before the GEMM accumulates onto it.
///
/// # Panics
///
/// Panics on shape mismatch (`b` must be `1×n` when given).
pub(crate) fn linear_fwd(xv: &Tensor, wv: &Tensor, bias: Option<&Tensor>, relu: bool) -> Tensor {
    let (m, k) = xv.shape();
    assert_eq!(
        k,
        wv.rows(),
        "linear shape mismatch: {:?} vs {:?}",
        xv.shape(),
        wv.shape()
    );
    let n = wv.cols();
    let mut out = pool::take_capacity(m * n);
    match bias {
        Some(bv) => {
            assert_eq!(bv.shape(), (1, n), "bias must be 1x{n}");
            for _ in 0..m {
                out.extend_from_slice(bv.as_slice());
            }
        }
        None => out.resize(m * n, 0.0),
    }
    gemm(xv.as_slice(), wv.as_slice(), &mut out, m, k, n);
    if relu {
        relu_sweep_with(Backend::active(), &mut out);
    }
    Tensor::from_vec(m, n, out)
}

/// Row-wise softmax (append-only writes, vectorizable exp pass).
///
/// The row max and the row sum stay scalar-sequential on every backend
/// so the reduction order — hence the result — is backend-invariant;
/// only the elementwise exp and normalize passes dispatch to SIMD.
pub(crate) fn softmax_rows_fwd(x: &Tensor) -> Tensor {
    softmax_rows_impl(Backend::active(), x, 1.0)
}

/// Row-wise softmax of `scale · x` on an explicit backend.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn softmax_rows_impl(backend: Backend, x: &Tensor, scale: f32) -> Tensor {
    let (n, d) = x.shape();
    // Rows are written append-only (no zero-fill pass): for an
    // N×N attention matrix the saved memset is a full extra sweep.
    let mut out = pool::take_capacity(n * d);
    out.reserve(n * d);
    for r in 0..n {
        let row = x.row_slice(r);
        let max = row
            .iter()
            .map(|&v| v * scale)
            .fold(f32::NEG_INFINITY, f32::max);
        let start = out.len();
        // Separate exp/sum/scale passes: the exp pass carries no
        // cross-iteration dependency, so it vectorizes. (`v · 1.0`
        // is exact, so the unscaled softmax shares this path.)
        #[cfg(target_arch = "x86_64")]
        if backend != Backend::Scalar {
            // SAFETY: backend probe succeeded; `reserve` above guarantees
            // capacity for the `d` raw writes before `set_len`.
            unsafe {
                crate::simd::avx2::softmax_exp_pass(out.as_mut_ptr().add(start), row, scale, max);
                out.set_len(start + d);
            }
        } else {
            out.extend(row.iter().map(|&v| fast_exp(v * scale - max)));
        }
        #[cfg(not(target_arch = "x86_64"))]
        out.extend(row.iter().map(|&v| fast_exp(v * scale - max)));
        let sum: f32 = out[start..].iter().sum();
        let inv = 1.0 / sum.max(1e-30);
        scale_sweep_with(backend, &mut out[start..], inv);
    }
    Tensor::from_vec(n, d, out)
}

/// Broadcast of a `N×1` column over the columns of a `N×d` matrix.
///
/// # Panics
///
/// Panics unless `v` is a column with `a.rows()` rows.
pub fn colvec_zip(a: &Tensor, v: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    assert_eq!(v.cols(), 1, "broadcast vector must be a column");
    assert_eq!(a.rows(), v.rows(), "broadcast row mismatch");
    let (n, d) = a.shape();
    let mut out = pool::take_capacity(n * d);
    for r in 0..n {
        let s = v.get(r, 0);
        out.extend(a.row_slice(r).iter().map(|&x| f(x, s)));
    }
    Tensor::from_vec(n, d, out)
}

/// Row gather: `out[i] = x[idx[i]]`.
pub fn gather_rows(x: &Tensor, idx: &[usize]) -> Tensor {
    let d = x.cols();
    let mut out = pool::take_capacity(idx.len() * d);
    for &j in idx {
        out.extend_from_slice(x.row_slice(j));
    }
    Tensor::from_vec(idx.len(), d, out)
}

/// Row scatter-add into `n_out` rows: `out[idx[i]] += x[i]`.
///
/// # Panics
///
/// Panics if `idx.len()` differs from the row count of `x` or an index
/// is out of range.
pub fn scatter_add_rows(x: &Tensor, idx: &[usize], n_out: usize) -> Tensor {
    assert_eq!(x.rows(), idx.len(), "scatter_add index length mismatch");
    let d = x.cols();
    let mut out = Tensor::zeros(n_out, d);
    for (i, &j) in idx.iter().enumerate() {
        assert!(j < n_out, "scatter index {j} out of range {n_out}");
        for (o, &v) in out.row_slice_mut(j).iter_mut().zip(x.row_slice(i)) {
            *o += v;
        }
    }
    out
}

/// Column concatenation of same-row-count parts (one append pass).
///
/// # Panics
///
/// Panics if row counts differ or `parts` is empty.
pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
    assert!(!parts.is_empty(), "concat_cols needs at least one input");
    let n = parts[0].rows();
    let total: usize = parts.iter().map(|p| p.cols()).sum();
    for p in parts {
        assert_eq!(p.rows(), n, "concat_cols row mismatch");
    }
    let mut out = pool::take_capacity(n * total);
    for r in 0..n {
        for p in parts {
            out.extend_from_slice(p.row_slice(r));
        }
    }
    Tensor::from_vec(n, total, out)
}

/// `N×1` sum over the columns of each row.
pub(crate) fn row_sum_fwd(x: &Tensor) -> Tensor {
    let mut data = pool::take_capacity(x.rows());
    data.extend((0..x.rows()).map(|r| x.row_slice(r).iter().sum::<f32>()));
    Tensor::from_vec(x.rows(), 1, data)
}

/// Copies the `rows × len` sub-block at `(r0, c0)` into a fresh tensor
/// (the inference analogue of a per-graph, per-head `col_slice`).
pub(crate) fn block_slice(x: &Tensor, r0: usize, rows: usize, c0: usize, len: usize) -> Tensor {
    assert!(
        r0 + rows <= x.rows() && c0 + len <= x.cols(),
        "block_slice out of bounds"
    );
    let mut out = pool::take_capacity(rows * len);
    for r in r0..r0 + rows {
        out.extend_from_slice(&x.row_slice(r)[c0..c0 + len]);
    }
    Tensor::from_vec(rows, len, out)
}

/// Writes `block` (`rows × len`) into `dst` at `(r0, c0)`.
pub(crate) fn block_write(dst: &mut Tensor, block: &Tensor, r0: usize, c0: usize) {
    let (rows, len) = block.shape();
    assert!(
        r0 + rows <= dst.rows() && c0 + len <= dst.cols(),
        "block_write out of bounds"
    );
    for r in 0..rows {
        dst.row_slice_mut(r0 + r)[c0..c0 + len].copy_from_slice(block.row_slice(r));
    }
}

/// Fused edge assembly `ce[i] += dx[dst[i]] + ex[src[i]]`, consuming
/// `ce`'s buffer: one read-modify-write sweep instead of two gather
/// writes plus two elementwise adds. Per-element arithmetic matches
/// `(ce + dx_dst) + ex_src`.
pub(crate) fn add_gathered2_inplace(
    ce: Tensor,
    dx: &Tensor,
    dst: &[usize],
    ex: &Tensor,
    src: &[usize],
) -> Tensor {
    match ce.cols() {
        16 => add_gathered2_impl::<16>(ce, dx, dst, ex, src),
        32 => add_gathered2_impl::<32>(ce, dx, dst, ex, src),
        64 => add_gathered2_impl::<64>(ce, dx, dst, ex, src),
        _ => add_gathered2_impl::<0>(ce, dx, dst, ex, src),
    }
}

/// `D = 0` means "dynamic width"; a non-zero `D` gives LLVM a constant
/// trip count for the fully-unrolled row loop.
fn add_gathered2_impl<const D: usize>(
    mut ce: Tensor,
    dx: &Tensor,
    dst: &[usize],
    ex: &Tensor,
    src: &[usize],
) -> Tensor {
    let d = if D > 0 { D } else { ce.cols() };
    debug_assert_eq!(ce.rows(), dst.len());
    debug_assert_eq!(dst.len(), src.len());
    for (i, (&j_dst, &j_src)) in dst.iter().zip(src).enumerate() {
        let dxr = &dx.row_slice(j_dst)[..d];
        let exr = &ex.row_slice(j_src)[..d];
        let cer = &mut ce.as_mut_slice()[i * d..(i + 1) * d];
        for ((c, &a), &b) in cer.iter_mut().zip(dxr).zip(exr) {
            *c = (*c + a) + b;
        }
    }
    ce
}

/// Fused GatedGCN edge projection + neighbor assembly for the dense
/// layers: `ê = (e·Cᵂ + bias) + dx[dst] + ex[src]` with the gathered
/// adds applied in the GEMM's store epilogue, so the edge stream is
/// written exactly once. Falls back to the unfused pair for widths
/// without a fixed-N microkernel. Bitwise-equal to `linear_fwd` followed
/// by [`add_gathered2_inplace`].
///
/// # Panics
///
/// Panics on shape mismatch.
pub(crate) fn linear_add_gathered2(
    e: &Tensor,
    w: &Tensor,
    bias: Option<&Tensor>,
    dx: &Tensor,
    dst: &[usize],
    ex: &Tensor,
    src: &[usize],
) -> Tensor {
    use crate::tensor::gemm_fixed_n_epilogue;

    let (m, k) = e.shape();
    assert_eq!(k, w.rows(), "linear shape mismatch");
    let n = w.cols();
    debug_assert_eq!(m, dst.len());
    // Same dispatch conditions as the gemm fast path; other shapes take
    // the two-pass route. SIMD backends always go two-pass: the vector
    // microkernel stores the plain GEMM result and the gathered adds run
    // as a second sweep — bitwise-equal to the fused store epilogue,
    // since the epilogue applies the same per-element ops to the same
    // final accumulator values.
    if Backend::active() != Backend::Scalar || k > 256 || !matches!(n, 8 | 16 | 32 | 64) {
        let ce = linear_fwd(e, w, bias, false);
        return add_gathered2_inplace(ce, dx, dst, ex, src);
    }
    let mut out = pool::take_capacity(m * n);
    match bias {
        Some(bv) => {
            assert_eq!(bv.shape(), (1, n), "bias must be 1x{n}");
            for _ in 0..m {
                out.extend_from_slice(bv.as_slice());
            }
        }
        None => out.resize(m * n, 0.0),
    }
    macro_rules! run {
        ($N:literal) => {
            gemm_fixed_n_epilogue::<$N, _>(
                e.as_slice(),
                w.as_slice(),
                &mut out,
                m,
                k,
                |i, acc: &mut [f32; $N]| {
                    let dxr = &dx.row_slice(dst[i])[..$N];
                    let exr = &ex.row_slice(src[i])[..$N];
                    for ((c, &a), &b) in acc.iter_mut().zip(dxr).zip(exr) {
                        *c = (*c + a) + b;
                    }
                },
            )
        };
    }
    match n {
        8 => run!(8),
        16 => run!(16),
        32 => run!(32),
        64 => run!(64),
        _ => unreachable!(),
    }
    Tensor::from_vec(m, n, out)
}

/// Fused first-layer edge assembly: `ê_i = table[code_i]·C-projected +
/// dx[dst_i] + ex[src_i]` written in a single pass, with `ce_table`
/// already holding the `C`-projection of the (few) edge-type rows.
/// Bitwise-equal to gathering `ce` per edge first and then running
/// [`add_gathered2_inplace`].
pub(crate) fn assemble_edge_hat_typed(
    ce_table: &Tensor,
    codes: &[usize],
    dx: &Tensor,
    dst: &[usize],
    ex: &Tensor,
    src: &[usize],
) -> Tensor {
    let d = ce_table.cols();
    debug_assert_eq!(codes.len(), dst.len());
    let mut out = pool::take_capacity(codes.len() * d);
    for ((&code, &j_dst), &j_src) in codes.iter().zip(dst).zip(src) {
        let cer = ce_table.row_slice(code);
        let dxr = dx.row_slice(j_dst);
        let exr = ex.row_slice(j_src);
        out.extend(
            cer.iter()
                .zip(dxr)
                .zip(exr)
                .map(|((&c, &a), &b)| (c + a) + b),
        );
    }
    Tensor::from_vec(codes.len(), d, out)
}

/// Fused gated aggregation of one GatedGCN layer: for each edge `i`,
/// `η = σ(ê_i)`, `num[dst[i]] += η ⊙ bx[src[i]]`, `den[dst[i]] += η`,
/// in one pass over the edge stream instead of sigmoid + gather +
/// multiply + two scatter-adds. Per-element values and the
/// per-destination edge-order accumulation are unchanged.
pub(crate) fn gated_scatter(
    e_hat: &Tensor,
    bx: &Tensor,
    src: &[usize],
    dst: &[usize],
    n_out: usize,
) -> (Tensor, Tensor) {
    gated_scatter_with(Backend::active(), e_hat, bx, src, dst, n_out)
}

/// [`gated_scatter`] on an explicit backend.
pub(crate) fn gated_scatter_with(
    backend: Backend,
    e_hat: &Tensor,
    bx: &Tensor,
    src: &[usize],
    dst: &[usize],
    n_out: usize,
) -> (Tensor, Tensor) {
    match e_hat.cols() {
        16 => gated_scatter_impl::<16>(backend, e_hat, bx, src, dst, n_out),
        32 => gated_scatter_impl::<32>(backend, e_hat, bx, src, dst, n_out),
        64 => gated_scatter_impl::<64>(backend, e_hat, bx, src, dst, n_out),
        _ => gated_scatter_impl::<0>(backend, e_hat, bx, src, dst, n_out),
    }
}

#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn gated_scatter_impl<const D: usize>(
    backend: Backend,
    e_hat: &Tensor,
    bx: &Tensor,
    src: &[usize],
    dst: &[usize],
    n_out: usize,
) -> (Tensor, Tensor) {
    let d = if D > 0 { D } else { e_hat.cols() };
    debug_assert_eq!(e_hat.rows(), src.len());
    let mut num = Tensor::zeros(n_out, d);
    let mut den = Tensor::zeros(n_out, d);
    // SIMD backends fuse sigmoid + multiply + both accumulates per edge
    // (no η staging buffer); per-element values and the per-destination
    // edge-order accumulation are identical to the scalar loop.
    #[cfg(target_arch = "x86_64")]
    if backend != Backend::Scalar {
        for (i, (&j_src, &j_dst)) in src.iter().zip(dst).enumerate() {
            let er = &e_hat.row_slice(i)[..d];
            let bxr = &bx.row_slice(j_src)[..d];
            let nr = &mut num.as_mut_slice()[j_dst * d..(j_dst + 1) * d];
            let dr = &mut den.as_mut_slice()[j_dst * d..(j_dst + 1) * d];
            // SAFETY: non-scalar backends imply a successful AVX2 probe.
            unsafe {
                crate::simd::avx2::gated_edge(er, bxr, nr, dr);
            }
        }
        return (num, den);
    }
    let mut eta = pool::take_zeroed(d);
    for (i, (&j_src, &j_dst)) in src.iter().zip(dst).enumerate() {
        let er = &e_hat.row_slice(i)[..d];
        for (g, &ev) in eta[..d].iter_mut().zip(er) {
            *g = stable_sigmoid(ev);
        }
        let bxr = &bx.row_slice(j_src)[..d];
        let nr = &mut num.as_mut_slice()[j_dst * d..(j_dst + 1) * d];
        for ((o, &g), &bv) in nr.iter_mut().zip(&eta[..d]).zip(bxr) {
            *o += g * bv;
        }
        let dr = &mut den.as_mut_slice()[j_dst * d..(j_dst + 1) * d];
        for (o, &g) in dr.iter_mut().zip(&eta[..d]) {
            *o += g;
        }
    }
    pool::put(eta);
    (num, den)
}

/// Fused `x̂ = ax + num / (den + ε)`, consuming `ax`'s buffer.
pub(crate) fn add_div_inplace(ax: Tensor, num: &Tensor, den: &Tensor, eps: f32) -> Tensor {
    add_div_inplace_with(Backend::active(), ax, num, den, eps)
}

/// [`add_div_inplace`] on an explicit backend.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn add_div_inplace_with(
    backend: Backend,
    mut ax: Tensor,
    num: &Tensor,
    den: &Tensor,
    eps: f32,
) -> Tensor {
    debug_assert_eq!(ax.shape(), num.shape());
    debug_assert_eq!(ax.shape(), den.shape());
    #[cfg(target_arch = "x86_64")]
    if backend != Backend::Scalar {
        // SAFETY: non-scalar backends imply a successful AVX2+FMA probe.
        unsafe {
            crate::simd::avx2::add_div_sweep(
                ax.as_mut_slice(),
                num.as_slice(),
                den.as_slice(),
                eps,
            );
        }
        return ax;
    }
    for ((a, &n), &d) in ax
        .as_mut_slice()
        .iter_mut()
        .zip(num.as_slice())
        .zip(den.as_slice())
    {
        *a += n / (d + eps);
    }
    ax
}

/// Fused eval-mode `max(BN(x), 0) + residual`, one output sweep. The
/// per-element sequence is the tape's `((x − μ)·invstd)·γ + β`, then
/// ReLU, then the residual add; zipped slice iteration keeps the sweep
/// vectorizable (indexed column access compiles scalar).
pub(crate) fn batch_norm_eval_relu_add_fwd(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
    mean: &Tensor,
    var: &Tensor,
    residual: &Tensor,
) -> Tensor {
    batch_norm_eval_relu_add_with(Backend::active(), x, gamma, beta, eps, mean, var, residual)
}

/// [`batch_norm_eval_relu_add_fwd`] on an explicit backend.
#[allow(clippy::too_many_arguments)]
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn batch_norm_eval_relu_add_with(
    backend: Backend,
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
    mean: &Tensor,
    var: &Tensor,
    residual: &Tensor,
) -> Tensor {
    let (n, d) = x.shape();
    debug_assert_eq!(residual.shape(), (n, d));
    let invstd = var.map(|v| 1.0 / (v + eps).sqrt());
    let mut out = pool::take_capacity(n * d);
    #[cfg(target_arch = "x86_64")]
    if backend != Backend::Scalar {
        out.reserve(n * d);
        for r in 0..n {
            let start = out.len();
            // SAFETY: backend probe succeeded; `reserve` guarantees
            // capacity for the `d` raw writes before `set_len`.
            unsafe {
                crate::simd::avx2::bn_row(
                    out.as_mut_ptr().add(start),
                    x.row_slice(r),
                    Some(residual.row_slice(r)),
                    true,
                    None,
                    mean.as_slice(),
                    invstd.as_slice(),
                    gamma.as_slice(),
                    beta.as_slice(),
                    d,
                );
                out.set_len(start + d);
            }
        }
        invstd.recycle();
        return Tensor::from_vec(n, d, out);
    }
    for r in 0..n {
        out.extend(
            x.row_slice(r)
                .iter()
                .zip(residual.row_slice(r))
                .zip(mean.as_slice())
                .zip(invstd.as_slice())
                .zip(gamma.as_slice())
                .zip(beta.as_slice())
                .map(|(((((&xv, &rv), &mu), &is), &g), &b)| {
                    (((xv - mu) * is) * g + b).max(0.0) + rv
                }),
        );
    }
    invstd.recycle();
    Tensor::from_vec(n, d, out)
}

/// Fused eval-mode `BN(a + b)`, one output sweep (the GPS layer's
/// residual-then-batch-norm tail).
pub(crate) fn batch_norm_eval_of_sum_fwd(
    a: &Tensor,
    b: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
    mean: &Tensor,
    var: &Tensor,
) -> Tensor {
    batch_norm_eval_of_sum_with(Backend::active(), a, b, gamma, beta, eps, mean, var)
}

/// [`batch_norm_eval_of_sum_fwd`] on an explicit backend.
#[allow(clippy::too_many_arguments)]
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn batch_norm_eval_of_sum_with(
    backend: Backend,
    a: &Tensor,
    b: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
    mean: &Tensor,
    var: &Tensor,
) -> Tensor {
    let (n, d) = a.shape();
    debug_assert_eq!(b.shape(), (n, d));
    let invstd = var.map(|v| 1.0 / (v + eps).sqrt());
    let mut out = pool::take_capacity(n * d);
    #[cfg(target_arch = "x86_64")]
    if backend != Backend::Scalar {
        out.reserve(n * d);
        for r in 0..n {
            let start = out.len();
            // SAFETY: backend probe succeeded; `reserve` guarantees
            // capacity for the `d` raw writes before `set_len`.
            unsafe {
                crate::simd::avx2::bn_of_sum_row(
                    out.as_mut_ptr().add(start),
                    a.row_slice(r),
                    b.row_slice(r),
                    mean.as_slice(),
                    invstd.as_slice(),
                    gamma.as_slice(),
                    beta.as_slice(),
                    d,
                );
                out.set_len(start + d);
            }
        }
        invstd.recycle();
        return Tensor::from_vec(n, d, out);
    }
    for r in 0..n {
        out.extend(
            a.row_slice(r)
                .iter()
                .zip(b.row_slice(r))
                .zip(mean.as_slice())
                .zip(invstd.as_slice())
                .zip(gamma.as_slice())
                .zip(beta.as_slice())
                .map(|(((((&av, &bv), &mu), &is), &g), &bb)| (((av + bv) - mu) * is) * g + bb),
        );
    }
    invstd.recycle();
    Tensor::from_vec(n, d, out)
}

/// Row-wise softmax of `scale · x` without materializing the scaled
/// matrix: each element is scaled identically to a separate scale pass
/// (`round(s·x)`), and scaling by a positive constant is monotonic, so
/// the row max is the scaled max — bitwise-equal to scale-then-softmax.
pub(crate) fn softmax_rows_scaled_fwd(x: &Tensor, scale: f32) -> Tensor {
    debug_assert!(scale > 0.0);
    softmax_rows_impl(Backend::active(), x, scale)
}

/// Packs the three attention projection weights `[Wq | Wk | Wv]`
/// (each `d_in × d_out`, row-major) into one `d_in × 3·d_out` matrix so
/// Q, K and V come out of a single GEMM.
///
/// Per output element the GEMM accumulates over `k` in the same order
/// regardless of the output width, so `x · pack(Wq, Wk, Wv)` is
/// bitwise-equal to the three separate `x·W` products column for column.
///
/// # Panics
///
/// Panics if the three weights disagree in shape.
pub(crate) fn qkv_pack_weights(wq: &Tensor, wk: &Tensor, wv: &Tensor) -> Tensor {
    let (d_in, d_out) = wq.shape();
    assert_eq!(wk.shape(), (d_in, d_out), "qkv weight shape mismatch");
    assert_eq!(wv.shape(), (d_in, d_out), "qkv weight shape mismatch");
    let mut out = pool::take_capacity(d_in * 3 * d_out);
    for r in 0..d_in {
        out.extend_from_slice(wq.row_slice(r));
        out.extend_from_slice(wk.row_slice(r));
        out.extend_from_slice(wv.row_slice(r));
    }
    Tensor::from_vec(d_in, 3 * d_out, out)
}

/// Fused block-diagonal multi-head softmax attention forward.
///
/// `qkv` is the packed `N × 3·dim` projection (`[Q | K | V]` with
/// `dim = heads · head_dim`); `blocks` lists each graph's
/// `(first_row, row_count)` — attention runs within each block only, so
/// a packed batch pays `Σnᵢ²` score cost instead of `(Σnᵢ)²` and no
/// `(ΣN)²` matrix is ever materialized. Returns the concatenated
/// per-head outputs (`N × dim`) plus, when `save` is set, the per-block
/// per-head attention probability matrices (ordered block-major:
/// `saved[b · heads + h]`) that the fused backward needs.
///
/// Shared by the taped op ([`crate::Tape::attn_block_diag`]) and the
/// tape-free [`crate::MultiHeadAttention::infer_blocks`], so both paths
/// are bitwise-equal by construction.
///
/// # Panics
///
/// Panics if `qkv` is not `N × 3·heads·head_dim` or a block reaches
/// outside it.
pub(crate) fn mha_block_diag_fwd(
    qkv: &Tensor,
    blocks: &[(usize, usize)],
    heads: usize,
    head_dim: usize,
    save: bool,
) -> (Tensor, Vec<Tensor>) {
    let dim = heads * head_dim;
    assert_eq!(qkv.cols(), 3 * dim, "qkv width must be 3·heads·head_dim");
    let n = qkv.rows();
    let scale = 1.0 / (head_dim as f32).sqrt();
    let mut cat = Tensor::zeros(n, dim);
    let mut saved = Vec::with_capacity(if save { blocks.len() * heads } else { 0 });
    for &(r0, len) in blocks {
        assert!(r0 + len <= n, "attention block out of range");
        for h in 0..heads {
            let off = h * head_dim;
            let qh = block_slice(qkv, r0, len, off, head_dim);
            let kh = block_slice(qkv, r0, len, dim + off, head_dim);
            let vh = block_slice(qkv, r0, len, 2 * dim + off, head_dim);
            let kt = kh.transpose();
            let scores = qh.matmul(&kt);
            // Scale fused into the softmax sweep (bitwise-equal: scaling
            // by a positive constant is monotone, so the row max is the
            // scaled max).
            let attn = softmax_rows_scaled_fwd(&scores, scale);
            let out = attn.matmul(&vh);
            block_write(&mut cat, &out, r0, off);
            for t in [qh, kh, vh, kt, scores, out] {
                t.recycle();
            }
            if save {
                saved.push(attn);
            } else {
                attn.recycle();
            }
        }
    }
    (cat, saved)
}

/// `½‖x̂‖²` with `x̂ = x·scale`: the squares summed left to right, like
/// the unfused scale → `mul` → `row_sum` → `·0.5` chain. Stays scalar
/// and sequential on every backend (order-sensitive).
pub(crate) fn half_sq_norm(x: &[f32], scale: f32) -> f32 {
    x.iter()
        .map(|&v| {
            let s = v * scale;
            s * s
        })
        .sum::<f32>()
        * 0.5
}

/// Performer feature map φ(x̂) over a pre-scaled input `xs = x / d^{1/4}`:
/// `φ = (exp(x̂ Ωᵀ − ‖x̂‖²/2) + ε) / √m`, on an explicit backend. The
/// fused forward's [`performer_phi`] kernel with `scale = 1` (exact).
pub(crate) fn performer_feature_map_with(
    backend: Backend,
    xs: &Tensor,
    omega_t: &Tensor,
    features: usize,
) -> Tensor {
    let (rows, k) = xs.shape();
    let m = omega_t.cols();
    let mut out = pool::take_zeroed(rows * m);
    let inv = 1.0 / (features as f32).sqrt();
    performer_phi(
        backend,
        xs.as_slice(),
        k,
        rows,
        k,
        1.0,
        omega_t.as_slice(),
        m,
        inv,
        &mut out,
    );
    Tensor::from_vec(rows, m, out)
}

/// Performer feature map over `rows` rows read in place (row `r` is
/// `x[r·ld .. r·ld + dh]`, scaled by `scale` as it is read) into the
/// `rows × m` buffer `dst`. Each element is the GEMM chain of
/// `x̂·Ωᵀ` (`omega_t` is `dh × m`), then `(fast_exp(· − ½‖x̂‖²) + 1e-6)·inv`.
#[allow(clippy::too_many_arguments)]
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn performer_phi(
    backend: Backend,
    x: &[f32],
    ld: usize,
    rows: usize,
    dh: usize,
    scale: f32,
    omega_t: &[f32],
    m: usize,
    inv: f32,
    dst: &mut [f32],
) {
    assert!(
        rows == 0 || x.len() >= (rows - 1) * ld + dh,
        "feature map input too short"
    );
    assert!(
        omega_t.len() >= dh * m && dst.len() >= rows * m,
        "feature map shape mismatch"
    );
    if m == 1 {
        // A one-column GEMM takes the dot-product path (`gemm`'s n == 1).
        let mut xs = pool::take_capacity(dh);
        for r in 0..rows {
            xs.clear();
            xs.extend(x[r * ld..r * ld + dh].iter().map(|&v| v * scale));
            let half = half_sq_norm(&x[r * ld..r * ld + dh], scale);
            let prod = 0.0 + crate::tensor::dot_with(backend, &xs, omega_t);
            dst[r] = (fast_exp(prod - half) + 1e-6) * inv;
        }
        pool::put(xs);
        return;
    }
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if backend != Backend::Scalar {
        // SAFETY: each backend's CPU-feature probe succeeded (AVX-512
        // implies AVX2+FMA for the 8-feature remainder); the asserts
        // above are the kernels' size requirements.
        unsafe {
            if backend == Backend::Avx512 {
                done = crate::simd::avx512::feature_map_rows(
                    x, ld, rows, dh, scale, omega_t, m, inv, dst,
                );
            }
            crate::simd::avx2::feature_map_rows(x, ld, rows, dh, scale, omega_t, m, inv, dst, done);
        }
        done = m - m % 8;
    }
    if done == m {
        return;
    }
    for r in 0..rows {
        let xr = &x[r * ld..r * ld + dh];
        let orow = &mut dst[r * m + done..(r + 1) * m];
        orow.fill(0.0);
        let mut p = 0;
        while p + 4 <= dh {
            let (a0, a1, a2, a3) = (
                xr[p] * scale,
                xr[p + 1] * scale,
                xr[p + 2] * scale,
                xr[p + 3] * scale,
            );
            let b0 = &omega_t[p * m + done..(p + 1) * m];
            let b1 = &omega_t[(p + 1) * m + done..(p + 2) * m];
            let b2 = &omega_t[(p + 2) * m + done..(p + 3) * m];
            let b3 = &omega_t[(p + 3) * m + done..(p + 4) * m];
            for ((((o, &v0), &v1), &v2), &v3) in orow.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
                let t = a1.mul_add(v1, a0.mul_add(v0, *o));
                *o = a3.mul_add(v3, a2.mul_add(v2, t));
            }
            p += 4;
        }
        while p < dh {
            let av = xr[p] * scale;
            for (o, &bv) in orow.iter_mut().zip(&omega_t[p * m + done..(p + 1) * m]) {
                *o = av.mul_add(bv, *o);
            }
            p += 1;
        }
        let half = half_sq_norm(xr, scale);
        for v in orow.iter_mut() {
            *v = (fast_exp(*v - half) + 1e-6) * inv;
        }
    }
}

/// Key sums `k_sum[f] = Σ_r pk[r, f]` over a block's `len × m` feature
/// map, each with [`crate::tensor::laned_sum_with`]'s eight-lane tree
/// (the SIMD kernel runs eight features per vector).
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn performer_key_sum(backend: Backend, pk: &[f32], len: usize, m: usize, k_sum: &mut [f32]) {
    assert!(
        pk.len() >= len * m && k_sum.len() >= m,
        "key sum shape mismatch"
    );
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if backend != Backend::Scalar {
        // SAFETY: non-scalar backends imply a successful AVX2+FMA probe;
        // the assert above is the kernel's size requirement.
        unsafe { crate::simd::avx2::performer_key_sum(pk, len, m, k_sum) };
        done = m - m % 8;
    }
    let chunks = len / 8;
    for (f, ks) in k_sum.iter_mut().enumerate().take(m).skip(done) {
        let mut lanes = [0.0f32; 8];
        for c in 0..chunks {
            for (l, lane) in lanes.iter_mut().enumerate() {
                *lane += pk[(c * 8 + l) * m + f];
            }
        }
        let mut tail = 0.0f32;
        for r in chunks * 8..len {
            tail += pk[r * m + f];
        }
        let s0 = (lanes[0] + lanes[4]) + (lanes[1] + lanes[5]);
        let s1 = (lanes[2] + lanes[6]) + (lanes[3] + lanes[7]);
        *ks = (s0 + s1) + tail;
    }
}

/// Key aggregation `kv = φ(K)ᵀ·V` for one block into the `m × dh`
/// buffer `kv`, with `gemm_atb`'s per-element chain; row `p` of `v`
/// starts at `v[p·ld]` (the packed QKV matrix read in place).
#[allow(clippy::too_many_arguments)]
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn performer_kv(
    backend: Backend,
    pk: &[f32],
    m: usize,
    v: &[f32],
    ld: usize,
    len: usize,
    dh: usize,
    kv: &mut [f32],
) {
    assert!(
        pk.len() >= len * m && kv.len() >= m * dh,
        "key aggregation shape mismatch"
    );
    assert!(
        len == 0 || v.len() >= (len - 1) * ld + dh,
        "value rows too short"
    );
    // The SIMD kernels cover features [0, fd) × columns [0, jd).
    let (mut fd, mut jd) = (0, 0);
    #[cfg(target_arch = "x86_64")]
    if backend != Backend::Scalar {
        // SAFETY: each backend's CPU-feature probe succeeded (AVX-512
        // implies AVX2+FMA for the 8-feature remainder); the asserts
        // above are the kernels' size requirements.
        unsafe {
            if backend == Backend::Avx512 {
                fd = crate::simd::avx512::performer_kv(pk, m, v, ld, len, dh, kv);
            }
            crate::simd::avx2::performer_kv(pk, m, v, ld, len, dh, kv, fd);
        }
        (fd, jd) = (m - m % 8, dh - dh % 8);
    }
    for (f, js) in (fd..m)
        .map(|f| (f, 0..dh))
        .chain((0..fd).map(|f| (f, jd..dh)))
    {
        if js.is_empty() {
            continue;
        }
        let krow = &mut kv[f * dh + js.start..f * dh + js.end];
        krow.fill(0.0);
        let vrow = |p: usize| &v[p * ld + js.start..p * ld + js.end];
        let mut p = 0;
        while p + 4 <= len {
            let (a0, a1, a2, a3) = (
                pk[p * m + f],
                pk[(p + 1) * m + f],
                pk[(p + 2) * m + f],
                pk[(p + 3) * m + f],
            );
            let (b0, b1, b2, b3) = (vrow(p), vrow(p + 1), vrow(p + 2), vrow(p + 3));
            for ((((o, &v0), &v1), &v2), &v3) in krow.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
                let t = a1.mul_add(v1, a0.mul_add(v0, *o));
                *o = a3.mul_add(v3, a2.mul_add(v2, t));
            }
            p += 4;
        }
        while p < len {
            let av = pk[p * m + f];
            for (o, &bv) in krow.iter_mut().zip(vrow(p)) {
                *o = av.mul_add(bv, *o);
            }
            p += 1;
        }
    }
}

/// One block's output rows: `out[r·ldo + j] = num / den` with
/// `num = φ(Q)·kv` (the GEMM chain; a one-column `kv` takes the dot path
/// like `gemm`'s n == 1) and `den = 0 + dot(φ(Q)[r], k_sum)`.
#[allow(clippy::too_many_arguments)]
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn performer_attend(
    backend: Backend,
    pq: &[f32],
    kv: &[f32],
    k_sum: &[f32],
    len: usize,
    m: usize,
    dh: usize,
    out: &mut [f32],
    ldo: usize,
) {
    use crate::tensor::dot_with;
    assert!(
        pq.len() >= len * m && kv.len() >= m * dh && k_sum.len() >= m,
        "attend shape mismatch"
    );
    assert!(
        len == 0 || out.len() >= (len - 1) * ldo + dh,
        "attend output too short"
    );
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if backend != Backend::Scalar && dh > 1 {
        // SAFETY: non-scalar backends imply a successful AVX2+FMA probe;
        // the asserts above are the kernel's size requirements.
        unsafe { crate::simd::avx2::performer_attend(pq, kv, k_sum, len, m, dh, out, ldo) };
        done = dh - dh % 8;
    }
    if done == dh {
        return;
    }
    for r in 0..len {
        let prow = &pq[r * m..(r + 1) * m];
        let den = 0.0 + dot_with(backend, prow, k_sum);
        let orow = &mut out[r * ldo..r * ldo + dh];
        if dh == 1 {
            orow[0] = (0.0 + dot_with(backend, prow, kv)) / den;
            continue;
        }
        for (j, o) in orow.iter_mut().enumerate().skip(done) {
            let mut acc = 0.0f32;
            let mut f = 0;
            while f + 4 <= m {
                let t =
                    prow[f + 1].mul_add(kv[(f + 1) * dh + j], prow[f].mul_add(kv[f * dh + j], acc));
                acc = prow[f + 3].mul_add(
                    kv[(f + 3) * dh + j],
                    prow[f + 2].mul_add(kv[(f + 2) * dh + j], t),
                );
                f += 4;
            }
            while f < m {
                acc = prow[f].mul_add(kv[f * dh + j], acc);
                f += 1;
            }
            *o = acc / den;
        }
    }
}

/// Fused block-diagonal Performer (FAVOR+) attention forward.
///
/// Same contract as [`mha_block_diag_fwd`], with `proj` the stacked
/// frozen random projection (`heads·features × head_dim`). Per head,
/// φ(q̂) and φ(k̂) run once over the whole pack, reading the packed `qkv`
/// in place; then per block come the key sums, the key aggregation
/// `φ(K)ᵀ·V` (also reading V in place), and one pass that forms
/// `φ(Q)·kv`, the denominators and their quotient straight into the
/// output. When `save` is set the per-head feature maps (`N × features`,
/// needed by the fused backward) are returned as `(φ_q, φ_k)` vectors
/// indexed by head; otherwise their buffers go back to the pool.
///
/// Every output element keeps the exact operation chain of the unfused
/// per-head composition (scale-copy → GEMM → feature-map sweep,
/// `gemm_atb`, `laned_sum`, GEMM, dot, divide); see `docs/perf.md`
/// ("Fused Performer forward").
///
/// # Panics
///
/// Panics on shape mismatch or a block outside `qkv`.
pub(crate) fn performer_block_diag_fwd(
    qkv: &Tensor,
    proj: &Tensor,
    blocks: &[(usize, usize)],
    heads: usize,
    head_dim: usize,
    features: usize,
    save: bool,
) -> (Tensor, Vec<Tensor>, Vec<Tensor>) {
    performer_block_diag_with(
        Backend::active(),
        qkv,
        proj,
        blocks,
        heads,
        head_dim,
        features,
        save,
    )
}

/// [`performer_block_diag_fwd`] on an explicit backend.
#[allow(clippy::too_many_arguments)]
pub(crate) fn performer_block_diag_with(
    backend: Backend,
    qkv: &Tensor,
    proj: &Tensor,
    blocks: &[(usize, usize)],
    heads: usize,
    head_dim: usize,
    features: usize,
    save: bool,
) -> (Tensor, Vec<Tensor>, Vec<Tensor>) {
    let dim = heads * head_dim;
    let (m, dh) = (features, head_dim);
    assert_eq!(qkv.cols(), 3 * dim, "qkv width must be 3·heads·head_dim");
    assert_eq!(proj.shape(), (heads * m, dh), "projection shape mismatch");
    let n = qkv.rows();
    let ld = 3 * dim;
    let x = qkv.as_slice();
    // x̂ = x/d^{1/4} is applied as each input is read.
    let scale = 1.0 / (dh as f32).powf(0.25);
    let inv = 1.0 / (m as f32).sqrt();
    let mut omega_t = pool::take_capacity(dh * m);
    let mut kv = pool::take_zeroed(m * dh);
    let mut k_sum = pool::take_zeroed(m);
    let mut cat = Tensor::zeros(n, dim);
    let mut saved_q = Vec::with_capacity(if save { heads } else { 0 });
    let mut saved_k = Vec::with_capacity(if save { heads } else { 0 });
    for h in 0..heads {
        let off = h * dh;
        // Ωᵀ for this head (`dh × m`), shared by both feature maps.
        omega_t.clear();
        for p in 0..dh {
            omega_t.extend((0..m).map(|f| proj.as_slice()[(h * m + f) * dh + p]));
        }
        // φ(q̂) and φ(k̂) over the whole pack, read in place from `qkv`.
        let [phi_q, phi_k] = [off, dim + off].map(|col| {
            let mut phi = pool::take_zeroed(n * m);
            // `min` keeps an empty pack's slice in range.
            let xh = &x[col.min(x.len())..];
            performer_phi(backend, xh, ld, n, dh, scale, &omega_t, m, inv, &mut phi);
            Tensor::from_vec(n, m, phi)
        });
        for &(r0, len) in blocks {
            assert!(r0 + len <= n, "attention block out of range");
            if len == 0 {
                continue;
            }
            let span = r0 * m..(r0 + len) * m;
            let (pq, pk) = (&phi_q.as_slice()[span.clone()], &phi_k.as_slice()[span]);
            let v = &x[r0 * ld + 2 * dim + off..];
            performer_key_sum(backend, pk, len, m, &mut k_sum);
            performer_kv(backend, pk, m, v, ld, len, dh, &mut kv);
            let out = &mut cat.as_mut_slice()[r0 * dim + off..];
            performer_attend(backend, pq, &kv, &k_sum, len, m, dh, out, dim);
        }
        if save {
            saved_q.push(phi_q);
            saved_k.push(phi_k);
        } else {
            phi_q.recycle();
            phi_k.recycle();
        }
    }
    for buf in [omega_t, kv, k_sum] {
        pool::put(buf);
    }
    (cat, saved_q, saved_k)
}

/// Eval-mode batch norm: normalizes by the given (running) statistics,
/// then applies the affine transform. Matches the tape's eval-mode
/// `batch_norm` arithmetic element for element: the inverse standard
/// deviation is materialized per column first, then each element runs
/// `((x − μ)·invstd)·γ + β`.
pub(crate) fn batch_norm_eval_fwd(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
    mean: &Tensor,
    var: &Tensor,
) -> Tensor {
    batch_norm_eval_with(Backend::active(), x, gamma, beta, eps, mean, var)
}

/// [`batch_norm_eval_fwd`] on an explicit backend.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn batch_norm_eval_with(
    backend: Backend,
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
    mean: &Tensor,
    var: &Tensor,
) -> Tensor {
    let (n, d) = x.shape();
    let invstd = var.map(|v| 1.0 / (v + eps).sqrt());
    let mut out = pool::take_capacity(n * d);
    #[cfg(target_arch = "x86_64")]
    if backend != Backend::Scalar {
        out.reserve(n * d);
        for r in 0..n {
            let start = out.len();
            // SAFETY: backend probe succeeded; `reserve` guarantees
            // capacity for the `d` raw writes before `set_len`.
            unsafe {
                crate::simd::avx2::bn_row(
                    out.as_mut_ptr().add(start),
                    x.row_slice(r),
                    None,
                    false,
                    None,
                    mean.as_slice(),
                    invstd.as_slice(),
                    gamma.as_slice(),
                    beta.as_slice(),
                    d,
                );
                out.set_len(start + d);
            }
        }
        invstd.recycle();
        return Tensor::from_vec(n, d, out);
    }
    for r in 0..n {
        out.extend(
            x.row_slice(r)
                .iter()
                .zip(mean.as_slice())
                .zip(invstd.as_slice())
                .zip(gamma.as_slice())
                .zip(beta.as_slice())
                .map(|((((&xv, &mu), &is), &g), &b)| ((xv - mu) * is) * g + b),
        );
    }
    invstd.recycle();
    Tensor::from_vec(n, d, out)
}

/// Re-export of the vectorizable exponential for probes and benches.
pub use crate::tensor::fast_exp as fast_exp_pub;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_slice_and_write_round_trip() {
        let x = Tensor::from_vec(4, 3, (0..12).map(|i| i as f32).collect());
        let b = block_slice(&x, 1, 2, 1, 2);
        assert_eq!(b.shape(), (2, 2));
        assert_eq!(b.as_slice(), &[4.0, 5.0, 7.0, 8.0]);
        let mut dst = Tensor::zeros(4, 3);
        block_write(&mut dst, &b, 1, 1);
        assert_eq!(dst.get(1, 1), 4.0);
        assert_eq!(dst.get(2, 2), 8.0);
        assert_eq!(dst.get(0, 0), 0.0);
    }

    #[test]
    fn scatter_gather_round_trip() {
        let x = Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = gather_rows(&x, &[2, 0, 2]);
        assert_eq!(g.as_slice(), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
        let s = scatter_add_rows(&g, &[0, 0, 1], 2);
        assert_eq!(s.as_slice(), &[6.0, 8.0, 5.0, 6.0]);
    }

    /// The per-head Performer forward this crate ran before the fused
    /// kernels: scaled head copies, whole-pack feature maps (GEMM, then
    /// the exp sweep), and per block `gemm_atb`, GEMM, a gathered
    /// `laned_sum` per feature, the `n = 1` GEMM and a divide.
    fn performer_reference(
        qkv: &Tensor,
        proj: &Tensor,
        blocks: &[(usize, usize)],
        heads: usize,
        dh: usize,
        m: usize,
    ) -> (Tensor, Vec<Tensor>, Vec<Tensor>) {
        use crate::tensor::{gemm_atb, laned_sum_with};
        let backend = Backend::active();
        let slice_scaled = |c0: usize, s: f32| {
            let mut out = Vec::new();
            for r in 0..qkv.rows() {
                out.extend(qkv.row_slice(r)[c0..c0 + dh].iter().map(|&v| v * s));
            }
            Tensor::from_vec(qkv.rows(), dh, out)
        };
        let feature_map = |xs: &Tensor, omega_t: &Tensor| {
            let (rows, k) = xs.shape();
            let mut prod = vec![0.0f32; rows * m];
            gemm(xs.as_slice(), omega_t.as_slice(), &mut prod, rows, k, m);
            let inv = 1.0 / (m as f32).sqrt();
            for r in 0..rows {
                let half: f32 = xs.row_slice(r).iter().map(|&v| v * v).sum::<f32>() * 0.5;
                for v in &mut prod[r * m..(r + 1) * m] {
                    *v = (fast_exp(*v - half) + 1e-6) * inv;
                }
            }
            Tensor::from_vec(rows, m, prod)
        };
        let dim = heads * dh;
        let n = qkv.rows();
        let mut cat = Tensor::zeros(n, dim);
        let (mut saved_q, mut saved_k) = (Vec::new(), Vec::new());
        for h in 0..heads {
            let rows: Vec<usize> = (h * m..(h + 1) * m).collect();
            let omega_t = gather_rows(proj, &rows).transpose();
            let off = h * dh;
            let scale = 1.0 / (dh as f32).powf(0.25);
            let phi_q = feature_map(&slice_scaled(off, scale), &omega_t);
            let phi_k = feature_map(&slice_scaled(dim + off, scale), &omega_t);
            let vh = slice_scaled(2 * dim + off, 1.0);
            for &(r0, len) in blocks {
                let pq = &phi_q.as_slice()[r0 * m..(r0 + len) * m];
                let pk = &phi_k.as_slice()[r0 * m..(r0 + len) * m];
                let vb = &vh.as_slice()[r0 * dh..(r0 + len) * dh];
                let mut kv = vec![0.0f32; m * dh];
                gemm_atb(pk, vb, &mut kv, m, len, dh);
                let mut num = vec![0.0f32; len * dh];
                gemm(pq, &kv, &mut num, len, m, dh);
                let k_sum: Vec<f32> = (0..m)
                    .map(|f| {
                        let col: Vec<f32> = (0..len).map(|r| pk[r * m + f]).collect();
                        laned_sum_with(backend, &col)
                    })
                    .collect();
                let mut den = vec![0.0f32; len];
                gemm(pq, &k_sum, &mut den, len, m, 1);
                for r in 0..len {
                    let drow = &mut cat.row_slice_mut(r0 + r)[off..off + dh];
                    for (o, &nv) in drow.iter_mut().zip(&num[r * dh..(r + 1) * dh]) {
                        *o = nv / den[r];
                    }
                }
            }
            saved_q.push(phi_q);
            saved_k.push(phi_k);
        }
        (cat, saved_q, saved_k)
    }

    fn assert_bits(label: &str, want: &[f32], got: &[f32]) {
        assert_eq!(want.len(), got.len(), "{label}: length");
        for (i, (a, b)) in want.iter().zip(got).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{label}[{i}]: {a} vs {b}");
        }
    }

    #[test]
    fn fused_performer_forward_is_bitwise_equal_to_the_per_head_reference() {
        let packs: [&[usize]; 5] = [&[523], &[7; 8], &[27, 1, 600, 9, 2], &[5, 0, 33], &[]];
        // (heads, head_dim, features): the model's 4×8 with 32 features,
        // wider heads, a ragged 3×5, and the one-column dot paths.
        let layouts = [
            (4, 8, 32),
            (2, 16, 32),
            (1, 32, 16),
            (3, 5, 13),
            (2, 1, 1),
            (1, 3, 24),
        ];
        for (pi, sizes) in packs.iter().enumerate() {
            let mut blocks = Vec::new();
            let mut r0 = 0;
            for &len in sizes.iter() {
                blocks.push((r0, len));
                r0 += len;
            }
            for &(heads, dh, m) in &layouts {
                let seed = (pi * 31 + heads * 7 + dh) as f32;
                let dim = heads * dh;
                let qkv = Tensor::from_vec(
                    r0,
                    3 * dim,
                    (0..r0 * 3 * dim)
                        .map(|i| ((i as f32 * 0.37 + seed).sin()) * 1.5)
                        .collect(),
                );
                let proj = Tensor::from_vec(
                    heads * m,
                    dh,
                    (0..heads * m * dh)
                        .map(|i| (i as f32 * 0.61 + seed).cos())
                        .collect(),
                );
                let label = format!("pack {pi}, {heads}x{dh}, m={m}");
                let (want, want_q, want_k) =
                    performer_reference(&qkv, &proj, &blocks, heads, dh, m);
                let (got, got_q, got_k) =
                    performer_block_diag_fwd(&qkv, &proj, &blocks, heads, dh, m, true);
                assert_bits(&format!("{label} out"), want.as_slice(), got.as_slice());
                assert_eq!(got_q.len(), heads);
                for h in 0..heads {
                    assert_bits(
                        &format!("{label} phi_q[{h}]"),
                        want_q[h].as_slice(),
                        got_q[h].as_slice(),
                    );
                    assert_bits(
                        &format!("{label} phi_k[{h}]"),
                        want_k[h].as_slice(),
                        got_k[h].as_slice(),
                    );
                }
                let (lean, q, k) =
                    performer_block_diag_fwd(&qkv, &proj, &blocks, heads, dh, m, false);
                assert!(q.is_empty() && k.is_empty());
                assert_bits(
                    &format!("{label} out (save off)"),
                    want.as_slice(),
                    lean.as_slice(),
                );
            }
        }
    }

    #[test]
    fn batch_norm_eval_identity_stats() {
        // mean 0 / var 1 / γ 1 / β 0 ⇒ output ≈ input (up to the ε term).
        let x = Tensor::from_vec(2, 2, vec![1.0, -2.0, 0.5, 3.0]);
        let out = batch_norm_eval_fwd(
            &x,
            &Tensor::ones(1, 2),
            &Tensor::zeros(1, 2),
            1e-5,
            &Tensor::zeros(1, 2),
            &Tensor::ones(1, 2),
        );
        for (o, i) in out.as_slice().iter().zip(x.as_slice()) {
            assert!((o - i).abs() < 1e-4, "{o} vs {i}");
        }
    }
}
