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

/// [`block_slice`] with a fused scalar multiply: `out = s · block`.
/// Bitwise-equal to slicing first and scaling after (copying is exact).
pub(crate) fn block_slice_scaled(
    x: &Tensor,
    r0: usize,
    rows: usize,
    c0: usize,
    len: usize,
    s: f32,
) -> Tensor {
    assert!(
        r0 + rows <= x.rows() && c0 + len <= x.cols(),
        "block_slice out of bounds"
    );
    let mut out = pool::take_capacity(rows * len);
    for r in r0..r0 + rows {
        out.extend(x.row_slice(r)[c0..c0 + len].iter().map(|&v| v * s));
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

/// Performer feature map φ(x̂) over a pre-scaled input `xs = x / d^{1/4}`:
/// `φ = (exp(x̂ Ωᵀ − ‖x̂‖²/2) + ε) / √m`, with the squared-norm and
/// exp/stabilize/normalize passes fused. Per-element arithmetic matches
/// the unfused exp → +ε → ·(1/√m) sequence exactly (no reassociation),
/// and the squares are summed left-to-right like a `mul` + `row_sum`.
pub(crate) fn performer_feature_map_fwd(xs: &Tensor, omega_t: &Tensor, features: usize) -> Tensor {
    performer_feature_map_with(Backend::active(), xs, omega_t, features)
}

/// [`performer_feature_map_fwd`] on an explicit backend.
pub(crate) fn performer_feature_map_with(
    backend: Backend,
    xs: &Tensor,
    omega_t: &Tensor,
    features: usize,
) -> Tensor {
    let (rows, k) = xs.shape();
    let cols = omega_t.cols();
    let mut buf = pool::take_zeroed(rows * cols);
    crate::tensor::gemm_with(
        backend,
        xs.as_slice(),
        omega_t.as_slice(),
        &mut buf,
        rows,
        k,
        cols,
    );
    let mut prod = Tensor::from_vec(rows, cols, buf);
    let inv = 1.0 / (features as f32).sqrt();
    let (n, m) = prod.shape();
    for r in 0..n {
        // The squared-norm reduction stays scalar-sequential on every
        // backend (order-sensitive); only the elementwise sweep
        // vectorizes.
        let half: f32 = xs.row_slice(r).iter().map(|&v| v * v).sum::<f32>() * 0.5;
        let row = &mut prod.as_mut_slice()[r * m..(r + 1) * m];
        #[cfg(target_arch = "x86_64")]
        if backend != Backend::Scalar {
            // SAFETY: non-scalar backends imply a successful AVX2 probe.
            unsafe {
                crate::simd::avx2::feature_map_sweep(row, half, inv);
            }
            continue;
        }
        let _ = backend;
        for v in row.iter_mut() {
            *v = (fast_exp(*v - half) + 1e-6) * inv;
        }
    }
    prod
}

/// Fused block-diagonal Performer (FAVOR+) attention forward.
///
/// Same contract as [`mha_block_diag_fwd`], with `proj` the stacked
/// frozen random projection (`heads·features × head_dim`). The row-wise
/// feature maps φ(q̂)/φ(k̂) run once over the whole packed batch per
/// head; only the key aggregation `φ(K)ᵀ·V`, the per-block key sums and
/// the denominators are per block. When `save` is set the per-head
/// feature maps (`N × features`, needed by the fused backward) are
/// returned as `(φ_q, φ_k)` vectors indexed by head.
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
    use crate::tensor::{gemm, gemm_atb, laned_sum};

    let dim = heads * head_dim;
    let (m, dh) = (features, head_dim);
    assert_eq!(qkv.cols(), 3 * dim, "qkv width must be 3·heads·head_dim");
    assert_eq!(proj.shape(), (heads * m, dh), "projection shape mismatch");
    let n = qkv.rows();
    let mut cat = Tensor::zeros(n, dim);
    let mut saved_q = Vec::with_capacity(if save { heads } else { 0 });
    let mut saved_k = Vec::with_capacity(if save { heads } else { 0 });
    for h in 0..heads {
        // Ωᵀ once per head, shared by every block and both feature maps.
        let rows: Vec<usize> = (h * m..(h + 1) * m).collect();
        let omega = gather_rows(proj, &rows);
        let omega_t = omega.transpose();
        omega.recycle();
        let off = h * dh;
        // Head slices with the x̂ = x/d^{1/4} scale fused into the copy.
        let scale = 1.0 / (dh as f32).powf(0.25);
        let xs_q = block_slice_scaled(qkv, 0, n, off, dh, scale);
        let xs_k = block_slice_scaled(qkv, 0, n, dim + off, dh, scale);
        let vh = block_slice(qkv, 0, n, 2 * dim + off, dh);
        let phi_q = performer_feature_map_fwd(&xs_q, &omega_t, m);
        let phi_k = performer_feature_map_fwd(&xs_k, &omega_t, m);
        for &(r0, len) in blocks {
            assert!(r0 + len <= n, "attention block out of range");
            let pq = &phi_q.as_slice()[r0 * m..(r0 + len) * m];
            let pk = &phi_k.as_slice()[r0 * m..(r0 + len) * m];
            let vb = &vh.as_slice()[r0 * dh..(r0 + len) * dh];
            // kv = φ(K)ᵀ·V over this block's rows (the transposing
            // kernel reads the same values in the same order as the
            // taped transpose-then-matmul).
            let mut kv = pool::take_zeroed(m * dh);
            gemm_atb(pk, vb, &mut kv, m, len, dh);
            let mut num = pool::take_zeroed(len * dh);
            gemm(pq, &kv, &mut num, len, m, dh);
            // k_sum = φ(K)ᵀ·1: a laned column sum with exactly the dot
            // kernel's summation tree (see `laned_sum`).
            let mut k_sum = pool::take_zeroed(m);
            let mut col = pool::take_zeroed(len);
            for (f, ks) in k_sum.iter_mut().enumerate() {
                for (r, c) in col.iter_mut().enumerate() {
                    *c = pk[r * m + f];
                }
                *ks = laned_sum(&col);
            }
            pool::put(col);
            // den = φ(Q)·k_sum (the n == 1 dot path), then the divide
            // writes straight into the output block.
            let mut den = pool::take_zeroed(len);
            gemm(pq, &k_sum, &mut den, len, m, 1);
            for r in 0..len {
                let drow = &mut cat.row_slice_mut(r0 + r)[off..off + dh];
                let s = den[r];
                for (o, &nv) in drow.iter_mut().zip(&num[r * dh..(r + 1) * dh]) {
                    *o = nv / s;
                }
            }
            for buf in [kv, num, k_sum, den] {
                pool::put(buf);
            }
        }
        for t in [xs_q, xs_k, vh, omega_t] {
            t.recycle();
        }
        if save {
            saved_q.push(phi_q);
            saved_k.push(phi_k);
        } else {
            phi_q.recycle();
            phi_k.recycle();
        }
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

/// Re-export of the vectorizable exponential for probes and benches.
pub use crate::tensor::fast_exp as fast_exp_pub;
