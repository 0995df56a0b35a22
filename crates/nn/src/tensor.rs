//! Dense 2-D tensors of `f32` with pooled allocation and blocked kernels.
//!
//! Everything in the CirGPS model is expressible with rank-2 tensors
//! (node-feature matrices `N × d`, weight matrices, row vectors `1 × d`,
//! column vectors `n × 1`, and scalars `1 × 1`), so the tensor type is
//! deliberately restricted to two dimensions. This keeps shape handling
//! easy to audit and removes an entire class of broadcasting bugs.
//!
//! Performance notes:
//!
//! * All constructors draw their backing `Vec<f32>` from the thread-local
//!   buffer pool ([`crate::pool`]); the autograd [`crate::Tape`] returns
//!   buffers to the pool when it is dropped or reset, so steady-state
//!   training does no per-op heap allocation.
//! * The three matmul variants use cache-blocked kernels (k-panelled
//!   i-k-j loops whose inner loop is a contiguous AXPY/dot). Kernels are
//!   serial and start no threads: callers fan out over independent
//!   samples (training sub-batches, eval chunks, sweep slices, serve
//!   workers) instead — see `docs/perf.md`.

use std::fmt;

use crate::pool;
use crate::simd::Backend;

/// k-panel height for the blocked GEMM kernels. A `KC × n` panel of the
/// right-hand matrix stays cache-hot while every output row is updated,
/// without changing the per-element accumulation order (k stays
/// ascending), so blocked results are bitwise-equal to the naive i-k-j
/// loop.
const KC: usize = 128;

/// `out += a · b` for row-major `a (m×k)`, `b (k×n)`, `out (m×n)` on an
/// explicit backend.
///
/// k-panelled so a `KC × n` slab of `b` stays cache-resident across all
/// output rows, with the inner accumulation unrolled over four k-steps:
/// the output row is streamed once per four B rows instead of once per
/// row, which is what makes the small `d×d` model matmuls fast. Versus a
/// naive i-k-j loop the 4-way grouping is tolerance-equal (different f32
/// summation tree), not bitwise. The SIMD microkernels keep each output
/// element's k-accumulation order, so every backend is bitwise-equal
/// (see `crate::simd`).
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn gemm(
    backend: Backend,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if n == 1 {
        // Column-vector RHS (e.g. the d→1 output heads): one dot product
        // per output element; the AXPY loop would make k width-1 passes.
        for (i, o) in out.iter_mut().enumerate() {
            *o += dot_with(backend, &a[i * k..(i + 1) * k], b);
        }
        return;
    }
    // SIMD backends: the fixed-width microkernels cover the model's
    // power-of-two widths at any k (a straight 4-unrolled k loop equals
    // the KC-panelled one because KC % 4 == 0); everything else runs the
    // vectorized generic AXPY loop. N=8 stays on the AVX2 kernel under
    // Avx512 (one 256-bit vector per row is already optimal).
    #[cfg(target_arch = "x86_64")]
    if backend != Backend::Scalar {
        // SAFETY: a non-scalar backend is only selected after its CPU
        // feature probe succeeded (`Backend::available`).
        unsafe {
            return match (backend, n) {
                (Backend::Avx512, 16) => crate::simd::avx512::gemm_fixed::<16>(a, b, out, m, k),
                (Backend::Avx512, 32) => crate::simd::avx512::gemm_fixed::<32>(a, b, out, m, k),
                (Backend::Avx512, 64) => crate::simd::avx512::gemm_fixed::<64>(a, b, out, m, k),
                (Backend::Avx512, 96) => crate::simd::avx512::gemm_fixed::<96>(a, b, out, m, k),
                (_, 8) => crate::simd::avx2::gemm_fixed::<8>(a, b, out, m, k),
                (_, 16) => crate::simd::avx2::gemm_fixed::<16>(a, b, out, m, k),
                (_, 32) => crate::simd::avx2::gemm_fixed::<32>(a, b, out, m, k),
                (_, 64) => crate::simd::avx2::gemm_fixed::<64>(a, b, out, m, k),
                // Wider multiples of 32 (the packed QKV projection, 3·d)
                // run as 32-column panels of the register-blocked kernel
                // (an empty `a` or `out` has no panel to offset into).
                (_, n) if n % 32 == 0 && m > 0 && k > 0 => {
                    for c in (0..n).step_by(32) {
                        crate::simd::avx2::gemm_fixed_ld::<32>(
                            a,
                            &b[c..],
                            n,
                            &mut out[c..],
                            n,
                            m,
                            k,
                        );
                    }
                }
                _ => crate::simd::avx2::gemm_generic(a, b, out, m, k, n, KC),
            };
        }
    }
    // Register-blocked microkernels for the model's power-of-two widths:
    // the output row lives in a `[f32; N]` accumulator for the whole k
    // loop (one load, one store) instead of being re-streamed every four
    // k-steps. The k order, 4-way grouping and panel boundaries are
    // identical to the generic loop below, so results stay bitwise-equal;
    // the k ≤ 2·KC bound keeps the whole `b` matrix L1/L2-resident.
    if k <= 2 * KC {
        match n {
            8 => return gemm_fixed_n::<8>(a, b, out, m, k),
            16 => return gemm_fixed_n::<16>(a, b, out, m, k),
            32 => return gemm_fixed_n::<32>(a, b, out, m, k),
            64 => return gemm_fixed_n::<64>(a, b, out, m, k),
            _ => {}
        }
    }
    for p0 in (0..k).step_by(KC) {
        let p1 = (p0 + KC).min(k);
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..i * n + n];
            let mut p = p0;
            while p + 4 <= p1 {
                let (a0, a1, a2, a3) = (arow[p], arow[p + 1], arow[p + 2], arow[p + 3]);
                let b0 = &b[p * n..p * n + n];
                let b1 = &b[(p + 1) * n..(p + 1) * n + n];
                let b2 = &b[(p + 2) * n..(p + 2) * n + n];
                let b3 = &b[(p + 3) * n..(p + 3) * n + n];
                for ((((o, &v0), &v1), &v2), &v3) in orow.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
                {
                    let t = a1.mul_add(v1, a0.mul_add(v0, *o));
                    *o = a3.mul_add(v3, a2.mul_add(v2, t));
                }
                p += 4;
            }
            while p < p1 {
                let av = arow[p];
                let brow = &b[p * n..p * n + n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o = av.mul_add(bv, *o);
                }
                p += 1;
            }
        }
    }
}

/// `out += a · b` for a compile-time column count `N`: each output row
/// accumulates in registers across the whole (panelled, 4-unrolled) k
/// loop. Same per-element accumulation order as the generic kernel in
/// [`gemm`], hence bitwise-equal — just ~2× fewer loads/stores.
fn gemm_fixed_n<const N: usize>(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize) {
    gemm_fixed_n_epilogue::<N, _>(a, b, out, m, k, |_, _| {});
}

/// [`gemm_fixed_n`] with a per-row store epilogue: `epilogue(i, acc)`
/// runs after row `i`'s accumulation completes, just before the store.
/// Fusing post-GEMM elementwise work here (e.g. the GatedGCN edge
/// assembly's gathered adds) saves a full read-modify-write sweep of the
/// output and is bitwise-equal to applying the same ops afterwards.
pub(crate) fn gemm_fixed_n_epilogue<const N: usize, E>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    epilogue: E,
) where
    E: Fn(usize, &mut [f32; N]),
{
    // Two output rows per pass: the four B rows of each k-group are
    // loaded once and feed both accumulators, roughly halving the load
    // traffic per FMA. Rows are independent, so per-row arithmetic (and
    // the single-row tail) is unchanged.
    let mut i = 0;
    while i + 2 <= m {
        let arow0 = &a[i * k..(i + 1) * k];
        let arow1 = &a[(i + 1) * k..(i + 2) * k];
        let mut acc0 = [0.0f32; N];
        let mut acc1 = [0.0f32; N];
        acc0.copy_from_slice(&out[i * N..(i + 1) * N]);
        acc1.copy_from_slice(&out[(i + 1) * N..(i + 2) * N]);
        for p0 in (0..k).step_by(KC) {
            let p1 = (p0 + KC).min(k);
            let mut p = p0;
            while p + 4 <= p1 {
                let (x0, x1, x2, x3) = (arow0[p], arow0[p + 1], arow0[p + 2], arow0[p + 3]);
                let (y0, y1, y2, y3) = (arow1[p], arow1[p + 1], arow1[p + 2], arow1[p + 3]);
                let b0 = &b[p * N..p * N + N];
                let b1 = &b[(p + 1) * N..(p + 1) * N + N];
                let b2 = &b[(p + 2) * N..(p + 2) * N + N];
                let b3 = &b[(p + 3) * N..(p + 3) * N + N];
                for j in 0..N {
                    let t0 = x1.mul_add(b1[j], x0.mul_add(b0[j], acc0[j]));
                    acc0[j] = x3.mul_add(b3[j], x2.mul_add(b2[j], t0));
                    let t1 = y1.mul_add(b1[j], y0.mul_add(b0[j], acc1[j]));
                    acc1[j] = y3.mul_add(b3[j], y2.mul_add(b2[j], t1));
                }
                p += 4;
            }
            while p < p1 {
                let xv = arow0[p];
                let yv = arow1[p];
                let brow = &b[p * N..p * N + N];
                for j in 0..N {
                    acc0[j] = xv.mul_add(brow[j], acc0[j]);
                    acc1[j] = yv.mul_add(brow[j], acc1[j]);
                }
                p += 1;
            }
        }
        epilogue(i, &mut acc0);
        epilogue(i + 1, &mut acc1);
        out[i * N..(i + 1) * N].copy_from_slice(&acc0);
        out[(i + 1) * N..(i + 2) * N].copy_from_slice(&acc1);
        i += 2;
    }
    if i < m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * N..(i + 1) * N];
        let mut acc = [0.0f32; N];
        acc.copy_from_slice(orow);
        for p0 in (0..k).step_by(KC) {
            let p1 = (p0 + KC).min(k);
            let mut p = p0;
            while p + 4 <= p1 {
                let (a0, a1, a2, a3) = (arow[p], arow[p + 1], arow[p + 2], arow[p + 3]);
                let b0 = &b[p * N..p * N + N];
                let b1 = &b[(p + 1) * N..(p + 1) * N + N];
                let b2 = &b[(p + 2) * N..(p + 2) * N + N];
                let b3 = &b[(p + 3) * N..(p + 3) * N + N];
                for j in 0..N {
                    let t = a1.mul_add(b1[j], a0.mul_add(b0[j], acc[j]));
                    acc[j] = a3.mul_add(b3[j], a2.mul_add(b2[j], t));
                }
                p += 4;
            }
            while p < p1 {
                let av = arow[p];
                let brow = &b[p * N..p * N + N];
                for j in 0..N {
                    acc[j] = av.mul_add(brow[j], acc[j]);
                }
                p += 1;
            }
        }
        epilogue(i, &mut acc);
        orow.copy_from_slice(&acc);
    }
}

/// `out += aᵀ · b` for row-major `a (k×m)`, `b (k×n)`, `out (m×n)`,
/// without materializing the transpose, on an explicit backend. Every
/// element is one sequential FMA chain over `p` (the scalar loop groups
/// four k-steps per pass over the output row; the SIMD kernels hold
/// register tiles across a k-panel), so every backend is
/// bitwise-identical.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn gemm_atb(
    backend: Backend,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    #[cfg(target_arch = "x86_64")]
    if backend != Backend::Scalar {
        // SAFETY: a non-scalar backend is only selected after its CPU
        // feature probe succeeded (`Backend::available`).
        return unsafe {
            match backend {
                Backend::Avx512 => crate::simd::avx512::gemm_atb(a, b, out, m, k, n, KC),
                _ => crate::simd::avx2::gemm_atb(a, b, out, m, k, n, KC),
            }
        };
    }
    let mut p = 0;
    while p + 4 <= k {
        let b0 = &b[p * n..p * n + n];
        let b1 = &b[(p + 1) * n..(p + 1) * n + n];
        let b2 = &b[(p + 2) * n..(p + 2) * n + n];
        let b3 = &b[(p + 3) * n..(p + 3) * n + n];
        for i in 0..m {
            let a0 = a[p * m + i];
            let a1 = a[(p + 1) * m + i];
            let a2 = a[(p + 2) * m + i];
            let a3 = a[(p + 3) * m + i];
            let orow = &mut out[i * n..i * n + n];
            for ((((o, &v0), &v1), &v2), &v3) in orow.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
                let t = a1.mul_add(v1, a0.mul_add(v0, *o));
                *o = a3.mul_add(v3, a2.mul_add(v2, t));
            }
        }
        p += 4;
    }
    while p < k {
        let brow = &b[p * n..p * n + n];
        for i in 0..m {
            let av = a[p * m + i];
            let orow = &mut out[i * n..i * n + n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o = av.mul_add(bv, *o);
            }
        }
        p += 1;
    }
}

/// Eight-lane unrolled dot product on an explicit backend. The lane
/// split breaks the serial floating-point dependency chain so the scalar
/// path vectorizes; every backend keeps the same 8-lane split and
/// reduction tree (AVX-512 reuses the 8-lane AVX2 kernel), so the
/// summation order — hence the result — never changes.
#[inline]
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn dot_with(backend: Backend, x: &[f32], y: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if backend != Backend::Scalar {
        // SAFETY: non-scalar backends imply a successful AVX2+FMA probe.
        return unsafe { crate::simd::avx2::dot(x, y) };
    }
    let mut lanes = [0.0f32; 8];
    let mut xc = x.chunks_exact(8);
    let mut yc = y.chunks_exact(8);
    for (cx, cy) in (&mut xc).zip(&mut yc) {
        for l in 0..8 {
            lanes[l] = cx[l].mul_add(cy[l], lanes[l]);
        }
    }
    let mut tail = 0.0f32;
    for (&a, &b) in xc.remainder().iter().zip(yc.remainder()) {
        tail = a.mul_add(b, tail);
    }
    let s0 = (lanes[0] + lanes[4]) + (lanes[1] + lanes[5]);
    let s1 = (lanes[2] + lanes[6]) + (lanes[3] + lanes[7]);
    (s0 + s1) + tail
}

/// Eight-lane unrolled sum with exactly [`dot_with`]'s summation tree:
/// equals `dot(x, ones)` bitwise (multiplying by 1.0 is exact), letting
/// callers skip materializing an all-ones vector. Keep in sync with
/// [`dot_with`]. Same tree on every backend.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn laned_sum_with(backend: Backend, x: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if backend != Backend::Scalar {
        // SAFETY: non-scalar backends imply a successful AVX2+FMA probe.
        return unsafe { crate::simd::avx2::laned_sum(x) };
    }
    let mut lanes = [0.0f32; 8];
    let mut xc = x.chunks_exact(8);
    for cx in &mut xc {
        for l in 0..8 {
            lanes[l] += cx[l];
        }
    }
    let mut tail = 0.0f32;
    for &a in xc.remainder() {
        tail += a;
    }
    let s0 = (lanes[0] + lanes[4]) + (lanes[1] + lanes[5]);
    let s1 = (lanes[2] + lanes[6]) + (lanes[3] + lanes[7]);
    (s0 + s1) + tail
}

/// `out += a · bᵀ` for row-major `a (m×k)`, `b (n×k)`, `out (m×n)` on an
/// explicit backend: every output element is `out + dot_with(a_i, b_j)`
/// on every backend (the SIMD kernels read a pooled `k × n` transpose of
/// `b` and replay [`dot_with`]'s lanes and tree in registers), so the
/// reduction order is backend-invariant.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn gemm_abt(
    backend: Backend,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    #[cfg(target_arch = "x86_64")]
    if backend != Backend::Scalar {
        let mut bt = pool::take_zeroed(n * k);
        transpose_into(b, n, k, &mut bt);
        // SAFETY: a non-scalar backend is only selected after its CPU
        // feature probe succeeded (`Backend::available`).
        unsafe {
            match backend {
                Backend::Avx512 => crate::simd::avx512::gemm_abt(a, &bt, out, m, k, n),
                _ => crate::simd::avx2::gemm_abt(a, b, &bt, out, m, k, n),
            }
        }
        pool::put(bt);
        return;
    }
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (j, o) in orow.iter_mut().enumerate() {
            *o += dot_with(backend, arow, &b[j * k..(j + 1) * k]);
        }
    }
}

/// Cache-blocked transpose of row-major `src (r×c)` into `dst (c×r)`.
pub(crate) fn transpose_into(src: &[f32], r: usize, c: usize, dst: &mut [f32]) {
    const TB: usize = 32;
    for r0 in (0..r).step_by(TB) {
        let r1 = (r0 + TB).min(r);
        for c0 in (0..c).step_by(TB) {
            let c1 = (c0 + TB).min(c);
            for i in r0..r1 {
                for j in c0..c1 {
                    dst[j * r + i] = src[i * c + j];
                }
            }
        }
    }
}

/// Branch-free `exp(x)`: Cephes-style range reduction (`exp(x) = 2^n ·
/// exp(r)` with a Cody–Waite split of ln 2) plus a degree-6 polynomial
/// for `exp(r)` on `[-ln2/2, ln2/2]`.
///
/// Relative error stays below `1e-6` over the full range — an order of
/// magnitude inside the crate's 1e-5 numeric tolerance — and the
/// function inlines into `map` loops where the compiler auto-vectorizes
/// it, unlike a libm `expf` call. Inputs above ~88 saturate to `exp(88)`
/// (≈ 1.7e38) instead of `inf`; NaN propagates.
#[inline]
#[allow(clippy::excessive_precision)] // Cody–Waite/minimax constants are exact by design.
pub fn fast_exp(x: f32) -> f32 {
    // Bounds where the 2^n exponent construction stays in range.
    let x = x.clamp(-87.0, 88.0);
    // Round to nearest via the 1.5·2^23 magic constant: adding it pushes
    // the fraction bits out (ties to even), subtracting recovers the
    // integer. Unlike `f32::round` (a libm call LLVM cannot vectorize)
    // this is two adds; and because the biased integer `n` also sits in
    // the low mantissa bits of `x·log₂e + MAGIC`, the `2^n` scale is
    // built with pure integer ops — no saturating float→int cast, which
    // was the op that kept every exp/sigmoid/softmax sweep scalar
    // (vectorizing it cut `map(fast_exp)` from ~1.12 ms to ~0.36 ms per
    // 580k elements). Valid because |x·log₂e| ≤ 128 « 2^22.
    const MAGIC: f32 = 12_582_912.0; // 1.5 * 2^23
    let zf = x * std::f32::consts::LOG2_E + MAGIC;
    let n = zf - MAGIC;
    // Cody–Waite: subtract n·ln2 in two parts so r keeps full precision.
    const C1: f32 = 0.693_359_375;
    const C2: f32 = -2.121_944_4e-4;
    let r = x - n * C1 - n * C2;
    let z = r * r;
    let p = ((((1.987_569_2e-4 * r + 1.398_200_0e-3) * r + 8.333_452_0e-3) * r + 4.166_579_6e-2)
        * r
        + 1.666_666_5e-1)
        * r
        + 5.000_000_1e-1;
    let y = p * z + r + 1.0;
    // bits(MAGIC + n) − bits(MAGIC) = n for |n| < 2^22, so the biased
    // exponent (n + 127) << 23 comes straight from the float's bits.
    let n_i = (zf.to_bits() as i32).wrapping_sub(0x4B40_0000);
    y * f32::from_bits(((n_i + 127) << 23) as u32)
}

/// A dense, row-major 2-D tensor of `f32`.
///
/// # Examples
///
/// ```
/// use cirgps_nn::Tensor;
///
/// let t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(t.shape(), (2, 2));
/// assert_eq!(t.get(1, 0), 3.0);
/// ```
#[derive(PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        let mut data = pool::take_capacity(self.data.len());
        data.extend_from_slice(&self.data);
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}x{})", self.rows, self.cols)?;
        if self.data.len() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Tensor {
    /// Creates a tensor filled with zeros (pool-backed).
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: pool::take_zeroed(rows * cols),
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Tensor::full(rows, cols, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        let mut data = pool::take_capacity(rows * cols);
        data.resize(rows * cols, value);
        Tensor { rows, cols, data }
    }

    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "tensor data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Tensor { rows, cols, data }
    }

    /// Creates a tensor from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |x| x.len());
        let mut data = pool::take_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "inconsistent row length");
            data.extend_from_slice(row);
        }
        Tensor {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Creates a `1 × 1` scalar tensor.
    pub fn scalar(v: f32) -> Self {
        Tensor::row(&[v])
    }

    /// Creates a `1 × n` row vector.
    pub fn row(v: &[f32]) -> Self {
        let mut data = pool::take_capacity(v.len());
        data.extend_from_slice(v);
        Tensor {
            rows: 1,
            cols: v.len(),
            data,
        }
    }

    /// Creates an `n × 1` column vector.
    pub fn col(v: &[f32]) -> Self {
        let mut data = pool::take_capacity(v.len());
        data.extend_from_slice(v);
        Tensor {
            rows: v.len(),
            cols: 1,
            data,
        }
    }

    /// The `(rows, cols)` shape.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Sets element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Borrows row `r` as a slice.
    pub fn row_slice(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    pub fn row_slice_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The single value of a `1 × 1` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not `1 × 1`.
    pub fn item(&self) -> f32 {
        assert_eq!(self.data.len(), 1, "item() requires a 1x1 tensor");
        self.data[0]
    }

    fn check_matmul(&self, rhs: &Tensor) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
    }

    /// Matrix product `self × rhs` via the blocked serial kernel (the
    /// `rhs.cols() == 1` shape runs one dot product per row).
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        self.check_matmul(rhs);
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        let mut out = pool::take_zeroed(m * n);
        gemm(Backend::active(), &self.data, &rhs.data, &mut out, m, k, n);
        Tensor {
            rows: m,
            cols: n,
            data: out,
        }
    }

    /// Matrix product `selfᵀ × rhs` without materializing the transpose.
    pub fn t_matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.rows, rhs.rows, "t_matmul shape mismatch");
        let (m, k, n) = (self.cols, self.rows, rhs.cols);
        let mut out = pool::take_zeroed(m * n);
        gemm_atb(Backend::active(), &self.data, &rhs.data, &mut out, m, k, n);
        Tensor {
            rows: m,
            cols: n,
            data: out,
        }
    }

    /// Matrix product `self × rhsᵀ` without materializing the transpose.
    pub fn matmul_t(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.cols, rhs.cols, "matmul_t shape mismatch");
        let (m, k, n) = (self.rows, self.cols, rhs.rows);
        let mut out = pool::take_zeroed(m * n);
        gemm_abt(Backend::active(), &self.data, &rhs.data, &mut out, m, k, n);
        Tensor {
            rows: m,
            cols: n,
            data: out,
        }
    }

    /// Returns the transpose (cache-blocked copy).
    pub fn transpose(&self) -> Tensor {
        let (r, c) = (self.rows, self.cols);
        let mut out = pool::take_zeroed(self.data.len());
        transpose_into(&self.data, r, c, &mut out);
        Tensor {
            rows: c,
            cols: r,
            data: out,
        }
    }

    /// Elementwise sum `self + rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, rhs: &Tensor) -> Tensor {
        self.zip_with(rhs, |a, b| a + b)
    }

    /// Elementwise difference `self - rhs`.
    pub fn sub(&self, rhs: &Tensor) -> Tensor {
        self.zip_with(rhs, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, rhs: &Tensor) -> Tensor {
        self.zip_with(rhs, |a, b| a * b)
    }

    /// Elementwise scaling by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// Applies `f` to each element (pool-backed output).
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut data = pool::take_capacity(self.data.len());
        data.extend(self.data.iter().map(|&v| f(v)));
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// In-place `self += rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, rhs: &Tensor) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// In-place `self += s * rhs` (AXPY).
    pub fn axpy(&mut self, s: f32, rhs: &Tensor) {
        assert_eq!(self.shape(), rhs.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += s * b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius (L2) norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Column-wise sum, returned as a `1 × cols` row vector.
    pub fn col_sum(&self) -> Tensor {
        let mut out = pool::take_zeroed(self.cols);
        crate::fused::col_sums_with(Backend::active(), &self.data, &mut out);
        Tensor {
            rows: 1,
            cols: self.cols,
            data: out,
        }
    }

    /// Column-wise mean, returned as a `1 × cols` row vector.
    pub fn col_mean(&self) -> Tensor {
        let mut out = self.col_sum();
        let inv = if self.rows == 0 {
            0.0
        } else {
            1.0 / self.rows as f32
        };
        for o in out.data.iter_mut() {
            *o *= inv;
        }
        out
    }

    fn zip_with(&self, rhs: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "elementwise op shape mismatch: {:?} vs {:?}",
            self.shape(),
            rhs.shape()
        );
        let mut data = pool::take_capacity(self.data.len());
        data.extend(self.data.iter().zip(&rhs.data).map(|(&a, &b)| f(a, b)));
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Returns the buffer to the thread-local pool. The tape calls this
    /// when it retires intermediates; tape-free inference callers (see
    /// [`crate::infer`]) do so explicitly after each op so steady-state
    /// batched inference allocates nothing.
    pub fn recycle(self) {
        pool::put(self.data);
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn t_matmul_equals_transpose_then_matmul() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        assert_eq!(a.t_matmul(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_t_close_to_matmul_with_transpose() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0], &[9.0, 1.0]]);
        let fused = a.matmul_t(&b);
        let reference = a.matmul(&b.transpose());
        assert_eq!(fused.shape(), reference.shape());
        for (x, y) in fused.as_slice().iter().zip(reference.as_slice()) {
            assert!((x - y).abs() < 1e-5, "{x} vs {y}");
        }
    }

    #[test]
    fn blocked_gemm_matches_naive_triple_loop() {
        let (m, k, n) = (5, 200, 7);
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i * 31 % 17) as f32 - 8.0) * 0.25)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i * 13 % 23) as f32 - 11.0) * 0.125)
            .collect();
        let mut naive = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                naive[i * n + j] = acc;
            }
        }
        let t = Tensor::from_vec(m, k, a).matmul(&Tensor::from_vec(k, n, b));
        for (x, y) in t.as_slice().iter().zip(&naive) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::row(&[1.0, 2.0]);
        let b = Tensor::row(&[3.0, 5.0]);
        assert_eq!(a.add(&b).as_slice(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).as_slice(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).as_slice(), &[3.0, 10.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn col_mean_averages_rows() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 6.0]]);
        assert_eq!(a.col_mean().as_slice(), &[2.0, 4.0]);
        assert_eq!(a.col_sum().as_slice(), &[4.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_round_trips() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        // Multi-tile transpose.
        let big = Tensor::from_vec(70, 41, (0..70 * 41).map(|i| i as f32).collect());
        assert_eq!(big.transpose().transpose(), big);
        assert_eq!(big.transpose().get(3, 50), big.get(50, 3));
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(3.5).item(), 3.5);
    }

    #[test]
    fn fast_exp_matches_std_exp() {
        for i in -8700..=8800 {
            let x = i as f32 * 0.01;
            let got = fast_exp(x);
            let want = x.exp();
            let rel = (got - want).abs() / want.max(f32::MIN_POSITIVE);
            assert!(rel < 1e-6, "x={x}: fast {got} vs std {want} (rel {rel})");
        }
        assert!(fast_exp(f32::NAN).is_nan());
        assert!(fast_exp(-1000.0) >= 0.0);
        assert!(fast_exp(1000.0).is_finite(), "saturates instead of inf");
    }

    #[test]
    fn degenerate_shapes() {
        let rowvec = Tensor::row(&[1.0, 2.0, 3.0]); // 1×3
        let colvec = Tensor::col(&[4.0, 5.0, 6.0]); // 3×1
        assert_eq!(rowvec.matmul(&colvec).item(), 32.0);
        let outer = colvec.matmul(&rowvec);
        assert_eq!(outer.shape(), (3, 3));
        assert_eq!(outer.get(2, 0), 6.0);
        // Zero-row / zero-column outputs must not panic.
        let empty = Tensor::zeros(0, 4).matmul(&Tensor::zeros(4, 2));
        assert_eq!(empty.shape(), (0, 2));
        let wide = Tensor::zeros(8, 4);
        assert_eq!(wide.matmul(&Tensor::zeros(4, 0)).shape(), (8, 0));
        // n == 1 runs one dot product per output row.
        let a = Tensor::from_vec(9, 7, (0..63).map(|i| (i as f32 * 0.3).sin()).collect());
        let b = Tensor::from_vec(7, 1, (0..7).map(|i| (i as f32 * 0.7).cos()).collect());
        let out = a.matmul(&b);
        for r in 0..9 {
            assert_eq!(
                out.get(r, 0),
                dot_with(Backend::active(), a.row_slice(r), b.as_slice())
            );
        }
    }
}
