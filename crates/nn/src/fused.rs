//! Kernels of the fused training ops: the training batch norm (column
//! statistics, the fused BN → ReLU → dropout → residual forward and the
//! backward), the GatedGCN edge stream's backward and dropout masks.
//!
//! Each kernel keeps the exact per-element operation chain of the
//! unfused tape ops it replaces, so gradients, losses and checkpoints
//! are bit for bit the same: column sums run per column in row order as
//! separate multiplies and adds (no FMA), scatters start from `+0.0`
//! and add in edge order, and the ReLU masks by the sign of its own
//! output. The scalar loops are the reference; the AVX2 and AVX-512
//! kernels in [`crate::simd`] vectorize *across columns*, one lane per
//! column, so every lane runs the scalar chain (checked by
//! `tests/simd_parity.rs`).

use rand::rngs::StdRng;
use rand::{Rng, RngCore};

use crate::infer::stable_sigmoid;
use crate::pool;
use crate::simd::Backend;
use crate::tensor::Tensor;

/// Where a batch-norm backward reads each element's upstream gradient
/// `g_y` (of the normalized-and-scaled output `y = x̂·γ + β`) and its
/// normalized input `x̂`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BnGrad<'a> {
    /// Plain batch norm: `g_y = g`, `x̂` as saved by the forward.
    Saved {
        /// Gradient of the batch-norm output (`n × d`).
        g: &'a [f32],
        /// Saved normalized input (`n × d`).
        xhat: &'a [f32],
    },
    /// The fused BN → ReLU → dropout → residual op: `x̂ = (x − μ)·invstd`
    /// is recomputed from the input, and `g` (the gradient of the op's
    /// output) passes back through the dropout mask and the ReLU, which
    /// zeroes it wherever `y ≤ 0`.
    Fused {
        /// Gradient of the fused op's output (`n × d`).
        g: &'a [f32],
        /// The batch norm's input (`n × d`).
        x: &'a [f32],
        /// The inverted-dropout mask, when dropout was applied.
        mask: Option<&'a [f32]>,
        /// The mean the forward normalized by (`d`).
        mean: &'a [f32],
        /// The shift `β` (`d`).
        beta: &'a [f32],
    },
}

/// The `(g_y, x̂)` pair of element `i` (column `c`) of a batch-norm
/// backward: the scalar reference of the vector `bn_grad_pair`s.
#[inline]
pub(crate) fn bn_grad_pair(
    src: &BnGrad<'_>,
    i: usize,
    c: usize,
    gamma: &[f32],
    invstd: &[f32],
) -> (f32, f32) {
    match *src {
        BnGrad::Saved { g, xhat } => (g[i], xhat[i]),
        BnGrad::Fused {
            g,
            x,
            mask,
            mean,
            beta,
        } => {
            let xh = (x[i] - mean[c]) * invstd[c];
            let y = xh * gamma[c] + beta[c];
            let gy = match mask {
                Some(m) => g[i] * m[i],
                None => g[i],
            };
            (if y > 0.0 { gy } else { 0.0 }, xh)
        }
    }
}

/// `acc[c] += x[r, c]` over the rows of the row-major `x` (width
/// `acc.len()`), per column in row order.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn col_sums_with(backend: Backend, x: &[f32], acc: &mut [f32]) {
    if acc.is_empty() {
        return;
    }
    debug_assert_eq!(x.len() % acc.len(), 0);
    #[cfg(target_arch = "x86_64")]
    match backend {
        // SAFETY: the backend's CPU probe succeeded; `x` holds whole rows.
        Backend::Avx512 => return unsafe { crate::simd::avx512::col_sums(x, acc) },
        Backend::Avx2 => return unsafe { crate::simd::avx2::col_sums(x, acc) },
        Backend::Scalar => {}
    }
    for row in x.chunks_exact(acc.len()) {
        for (o, &v) in acc.iter_mut().zip(row) {
            *o += v;
        }
    }
}

/// Batch mean and biased variance of each column of `x`, as a training
/// batch norm normalizes by them: the mean is `Tensor::col_mean`, the
/// variance `Σ (x − μ)² · (1/n)`; both `0` for an empty batch.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn batch_stats_with(backend: Backend, x: &Tensor) -> (Tensor, Tensor) {
    let (n, d) = x.shape();
    let inv_n = if n == 0 { 0.0 } else { 1.0 / n as f32 };
    let mut mean = pool::take_zeroed(d);
    col_sums_with(backend, x.as_slice(), &mut mean);
    for m in mean.iter_mut() {
        *m *= inv_n;
    }
    let mut var = pool::take_zeroed(d);
    if d > 0 {
        sq_devs_with(backend, x.as_slice(), &mean, &mut var);
    }
    for v in var.iter_mut() {
        *v *= inv_n;
    }
    (Tensor::from_vec(1, d, mean), Tensor::from_vec(1, d, var))
}

#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn sq_devs_with(backend: Backend, x: &[f32], mean: &[f32], acc: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    match backend {
        // SAFETY: the backend's CPU probe succeeded; `x` holds whole rows.
        Backend::Avx512 => return unsafe { crate::simd::avx512::col_sq_devs(x, mean, acc) },
        Backend::Avx2 => return unsafe { crate::simd::avx2::col_sq_devs(x, mean, acc) },
        Backend::Scalar => {}
    }
    for row in x.chunks_exact(acc.len()) {
        for ((v, &xv), &mu) in acc.iter_mut().zip(row).zip(mean) {
            let diff = xv - mu;
            *v += diff * diff;
        }
    }
}

/// Batch-norm backward over `n` rows of width `d = gamma.len()`:
/// returns `(g_x, g_γ, g_β)` with
/// `g_x = (invstd/n) ⊙ ((n·g_y·γ − Σ g_y·γ) − x̂ ⊙ Σ (g_y·γ)·x̂)`,
/// `g_γ = Σ g_y·x̂` and `g_β = Σ g_y` (sums per column, in row order).
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn bn_backward_with(
    backend: Backend,
    src: BnGrad<'_>,
    gamma: &[f32],
    invstd: &[f32],
    n: usize,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let d = gamma.len();
    debug_assert_eq!(invstd.len(), d);
    let nf = n.max(1) as f32;
    let mut sums = pool::take_zeroed(4 * d);
    let mut gx = pool::take_capacity(n * d);
    #[cfg(target_arch = "x86_64")]
    if backend != Backend::Scalar && d > 0 {
        use crate::simd::{avx2, avx512};
        let k1: Vec<f32> = invstd.iter().map(|&is| is / nf).collect();
        gx.reserve(n * d);
        let out = gx.as_mut_ptr();
        // SAFETY: the backend's CPU probe succeeded; `sums` holds 4·d
        // floats and `reserve` guarantees `gx` room for the n·d writes
        // before `set_len`.
        unsafe {
            if backend == Backend::Avx512 {
                avx512::bn_backward_sums(&src, gamma, invstd, n, &mut sums);
                let (s1, s2) = sums[2 * d..].split_at(d);
                avx512::bn_backward_gx(&src, gamma, invstd, n, &k1, s1, s2, out);
            } else {
                avx2::bn_backward_sums(&src, gamma, invstd, n, &mut sums);
                let (s1, s2) = sums[2 * d..].split_at(d);
                avx2::bn_backward_gx(&src, gamma, invstd, n, &k1, s1, s2, out);
            }
            gx.set_len(n * d);
        }
        return split_sums(gx, sums, d);
    }
    {
        let (dg, rest) = sums.split_at_mut(d);
        let (db, rest) = rest.split_at_mut(d);
        let (s1, s2) = rest.split_at_mut(d);
        for r in 0..n {
            for c in 0..d {
                let (gr, xh) = bn_grad_pair(&src, r * d + c, c, gamma, invstd);
                dg[c] += gr * xh;
                db[c] += gr;
                let dxh = gr * gamma[c];
                s1[c] += dxh;
                s2[c] += dxh * xh;
            }
        }
    }
    let (s1, s2) = (&sums[2 * d..3 * d], &sums[3 * d..]);
    for r in 0..n {
        gx.extend((0..d).map(|c| {
            let (gr, xh) = bn_grad_pair(&src, r * d + c, c, gamma, invstd);
            let dxh = gr * gamma[c];
            (invstd[c] / nf) * (nf * dxh - s1[c] - xh * s2[c])
        }));
    }
    split_sums(gx, sums, d)
}

fn split_sums(gx: Vec<f32>, sums: Vec<f32>, d: usize) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let mut dgamma = pool::take_capacity(d);
    dgamma.extend_from_slice(&sums[..d]);
    let mut dbeta = pool::take_capacity(d);
    dbeta.extend_from_slice(&sums[d..2 * d]);
    pool::put(sums);
    (gx, dgamma, dbeta)
}

/// Forward of the fused op: `out = max(((x − μ)·invstd)·γ + β, 0)`, times
/// the dropout `mask` when given, plus `residual` — per element the
/// chain of batch norm, in-place ReLU, dropout and residual add.
#[allow(clippy::too_many_arguments)]
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn bn_relu_dropout_add_with(
    backend: Backend,
    x: &Tensor,
    residual: &Tensor,
    mask: Option<&[f32]>,
    mean: &Tensor,
    invstd: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
) -> Tensor {
    let (n, d) = x.shape();
    assert_eq!(residual.shape(), (n, d), "residual shape mismatch");
    let mut out = pool::take_capacity(n * d);
    #[cfg(target_arch = "x86_64")]
    if backend != Backend::Scalar {
        out.reserve(n * d);
        for r in 0..n {
            let start = out.len();
            // SAFETY: the backend's CPU probe succeeded; `reserve`
            // guarantees room for the `d` writes before `set_len`.
            unsafe {
                crate::simd::avx2::bn_row(
                    out.as_mut_ptr().add(start),
                    x.row_slice(r),
                    Some(residual.row_slice(r)),
                    true,
                    mask.map(|m| &m[r * d..(r + 1) * d]),
                    mean.as_slice(),
                    invstd.as_slice(),
                    gamma.as_slice(),
                    beta.as_slice(),
                    d,
                );
                out.set_len(start + d);
            }
        }
        return Tensor::from_vec(n, d, out);
    }
    for r in 0..n {
        let row = x
            .row_slice(r)
            .iter()
            .zip(mean.as_slice())
            .zip(invstd.as_slice())
            .zip(gamma.as_slice())
            .zip(beta.as_slice())
            .map(|((((&xv, &mu), &is), &g), &b)| (((xv - mu) * is) * g + b).max(0.0));
        let res = residual.row_slice(r);
        match mask {
            Some(m) => out.extend(
                row.zip(&m[r * d..(r + 1) * d])
                    .zip(res)
                    .map(|((t, &mv), &rv)| t * mv + rv),
            ),
            None => out.extend(row.zip(res).map(|(t, &rv)| t + rv)),
        }
    }
    Tensor::from_vec(n, d, out)
}

/// Fills `mask` with an inverted-dropout mask (`1/(1 − p)` kept, `0`
/// dropped), drawing two 24-bit uniforms per `u64` (low half first) and
/// one `f32` draw for an odd last element. The serial generator only
/// stores raw bits; the compare-and-select runs as a second,
/// vectorizable pass.
pub(crate) fn fill_dropout_mask(rng: &mut StdRng, mask: &mut [f32], p: f32) {
    let keep = 1.0 - p;
    let inv_keep = 1.0 / keep;
    let mut pairs = mask.chunks_exact_mut(2);
    for pair in &mut pairs {
        let r = rng.gen::<u64>();
        pair[0] = f32::from_bits(r as u32);
        pair[1] = f32::from_bits((r >> 32) as u32);
    }
    if let [last] = pairs.into_remainder() {
        // The bits `rng.gen::<f32>()` scales.
        *last = f32::from_bits(rng.next_u32());
    }
    for m in mask.iter_mut() {
        let u = (m.to_bits() >> 8) as f32 * (1.0 / (1u32 << 24) as f32);
        *m = if u < keep { inv_keep } else { 0.0 };
    }
}

/// Advances `rng` past exactly the draws [`fill_dropout_mask`] makes for
/// `len` elements.
pub(crate) fn skip_dropout_mask(rng: &mut StdRng, len: usize) {
    for _ in 0..len / 2 {
        rng.gen::<u64>();
    }
    if len % 2 == 1 {
        rng.gen::<f32>();
    }
}

/// Backward of the GatedGCN edge assembly `ê = ce + dx[dst] + ex[src]`:
/// scatters `g` by `dst` and by `src` into fresh `+0.0` gradients of
/// `dx` (`n_dx` rows) and `ex` (`n_ex` rows), adding in edge order.
pub(crate) fn edge_hat_backward(
    g: &Tensor,
    dst: &[usize],
    src: &[usize],
    n_dx: usize,
    n_ex: usize,
) -> (Tensor, Tensor) {
    match g.cols() {
        32 => edge_hat_backward_impl::<32>(g, dst, src, n_dx, n_ex),
        _ => edge_hat_backward_impl::<0>(g, dst, src, n_dx, n_ex),
    }
}

/// `D = 0` means "dynamic width"; a non-zero `D` fixes the row loop's
/// trip count.
fn edge_hat_backward_impl<const D: usize>(
    g: &Tensor,
    dst: &[usize],
    src: &[usize],
    n_dx: usize,
    n_ex: usize,
) -> (Tensor, Tensor) {
    let d = if D > 0 { D } else { g.cols() };
    let mut gdx = Tensor::zeros(n_dx, d);
    let mut gex = Tensor::zeros(n_ex, d);
    for (i, (&j_dst, &j_src)) in dst.iter().zip(src).enumerate() {
        let gr = &g.row_slice(i)[..d];
        for (o, &v) in gdx.row_slice_mut(j_dst)[..d].iter_mut().zip(gr) {
            *o += v;
        }
        for (o, &v) in gex.row_slice_mut(j_src)[..d].iter_mut().zip(gr) {
            *o += v;
        }
    }
    (gdx, gex)
}

/// Backward of the gated aggregation `agg = scatter(σ(ê) ⊙ bx[src]) /
/// (scatter(σ(ê)) + ε)` in one pass over the edges, given `g` (the
/// gradient of `agg`), the forward's `agg` and its denominator
/// `den = scatter(σ(ê)) + ε`. Recomputes `η = σ(ê)` per edge and returns
/// `(g_ê, g_bx)`:
///
/// ```text
/// gnum = g / den                 gden = (−g ⊙ agg) / den
/// g_ê[i]      = (gden[dst] + gnum[dst] ⊙ bx[src]) ⊙ (η ⊙ (1 − η))
/// g_bx[src]  += gnum[dst] ⊙ η    (from +0.0, in edge order)
/// ```
#[allow(clippy::too_many_arguments)]
pub(crate) fn gated_aggregate_backward(
    backend: Backend,
    g: &Tensor,
    agg: &Tensor,
    den: &Tensor,
    e_hat: &Tensor,
    bx: &Tensor,
    src: &[usize],
    dst: &[usize],
) -> (Tensor, Tensor) {
    let (ne, d) = e_hat.shape();
    let mut gnum = pool::take_capacity(g.len());
    gnum.extend(
        g.as_slice()
            .iter()
            .zip(den.as_slice())
            .map(|(&gi, &bi)| gi / bi),
    );
    let gnum = Tensor::from_vec(g.rows(), d, gnum);
    let mut gden = pool::take_capacity(g.len());
    gden.extend(
        g.as_slice()
            .iter()
            .zip(agg.as_slice())
            .zip(den.as_slice())
            .map(|((&gi, &ci), &bi)| -gi * ci / bi),
    );
    let gden = Tensor::from_vec(g.rows(), d, gden);
    let mut ge = pool::take_capacity(ne * d);
    let mut gbx = Tensor::zeros(bx.rows(), d);
    #[cfg(target_arch = "x86_64")]
    if backend != Backend::Scalar {
        ge.reserve(ne * d);
        let kernel = if backend == Backend::Avx512 {
            crate::simd::avx512::gated_edge_backward
        } else {
            crate::simd::avx2::gated_edge_backward
        };
        for (i, (&j_src, &j_dst)) in src.iter().zip(dst).enumerate() {
            // SAFETY: the backend's CPU probe succeeded; `reserve`
            // guarantees room for edge `i`'s `d` writes.
            unsafe {
                kernel(
                    e_hat.row_slice(i),
                    bx.row_slice(j_src),
                    gnum.row_slice(j_dst),
                    gden.row_slice(j_dst),
                    ge.as_mut_ptr().add(i * d),
                    gbx.row_slice_mut(j_src),
                );
            }
        }
        // SAFETY: every one of the `ne` rows was written above.
        unsafe { ge.set_len(ne * d) };
        gnum.recycle();
        gden.recycle();
        return (Tensor::from_vec(ne, d, ge), gbx);
    }
    for (i, (&j_src, &j_dst)) in src.iter().zip(dst).enumerate() {
        let (gn_r, gd_r, bx_r) = (
            gnum.row_slice(j_dst),
            gden.row_slice(j_dst),
            bx.row_slice(j_src),
        );
        let gbx_r = gbx.row_slice_mut(j_src);
        for c in 0..d {
            let eta = stable_sigmoid(e_hat.row_slice(i)[c]);
            let gn = gn_r[c];
            ge.push((gd_r[c] + gn * bx_r[c]) * (eta * (1.0 - eta)));
            gbx_r[c] += gn * eta;
        }
    }
    gnum.recycle();
    gden.recycle();
    (Tensor::from_vec(ne, d, ge), gbx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// The element-by-element mask loop `fill_dropout_mask` replaced.
    fn mask_by_pushes(rng: &mut StdRng, n: usize, p: f32) -> Vec<f32> {
        let keep = 1.0 - p;
        let inv_keep = 1.0 / keep;
        let to_unit = |bits: u32| (bits >> 8) as f32 * (1.0 / (1u32 << 24) as f32);
        let mut mask = Vec::with_capacity(n);
        while mask.len() + 2 <= n {
            let r = rng.gen::<u64>();
            mask.push(if to_unit(r as u32) < keep {
                inv_keep
            } else {
                0.0
            });
            mask.push(if to_unit((r >> 32) as u32) < keep {
                inv_keep
            } else {
                0.0
            });
        }
        if mask.len() < n {
            mask.push(if rng.gen::<f32>() < keep {
                inv_keep
            } else {
                0.0
            });
        }
        mask
    }

    #[test]
    fn dropout_mask_and_skip_match_the_per_element_draws() {
        for n in [0, 1, 2, 7, 64, 1001] {
            for p in [0.1, 0.5, 0.9] {
                let (mut want_rng, mut got_rng) =
                    (StdRng::seed_from_u64(8), StdRng::seed_from_u64(8));
                let want = mask_by_pushes(&mut want_rng, n, p);
                let mut got = vec![f32::NAN; n];
                fill_dropout_mask(&mut got_rng, &mut got, p);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&want), bits(&got), "n {n}, p {p}");
                // Drawing and skipping the mask leave the generator where
                // the per-element loop did.
                let mut skip_rng = StdRng::seed_from_u64(8);
                skip_dropout_mask(&mut skip_rng, n);
                let next = want_rng.gen::<u64>();
                assert_eq!(got_rng.gen::<u64>(), next, "n {n}, p {p}");
                assert_eq!(skip_rng.gen::<u64>(), next, "n {n}, p {p}");
            }
        }
    }
}
