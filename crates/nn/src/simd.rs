//! Runtime-dispatched SIMD backends for the hot inference kernels.
//!
//! The release binary is no longer compiled with `-C target-cpu=native`:
//! instead, every hot kernel (the fixed-width GEMM microkernels, the
//! generic blocked GEMM, the backward `a·bᵀ`/`aᵀ·b` GEMMs, the
//! `fast_exp`/sigmoid/softmax sweeps, the fused infer epilogues, the
//! fused Performer attention forward and the training batch-norm and
//! gated-aggregation kernels) has
//! explicit `std::arch` implementations for
//! AVX2+FMA and AVX-512F, selected **once per process** by
//! [`Backend::active`] from runtime CPU-feature detection. The same
//! binary runs at full speed on machines it was not compiled on, and
//! falls back to the portable scalar kernels everywhere else.
//!
//! # Bitwise parity contract
//!
//! Every SIMD kernel is **bitwise-equal** to its scalar counterpart, not
//! merely close. This works because the scalar kernels were already
//! written with vectorization in mind:
//!
//! * GEMM accumulation chains are per-output-element (column `j` of a
//!   row never mixes with column `j+1`), so vectorizing **across
//!   columns** with per-lane FMA preserves the exact sequential k-order
//!   of every element's chain. Scalar `f32::mul_add` and `vfmaddps` are
//!   both correctly-rounded fused multiply-adds, hence identical.
//! * [`crate::tensor::fast_exp`] and the fused epilogues are pure
//!   elementwise dataflow (no cross-lane reduction), transcribed op for
//!   op: where the scalar source uses separate `*`/`+`, the SIMD kernel
//!   uses `mul_ps`/`add_ps` — never a contracting FMA.
//! * Order-sensitive reductions (softmax row sums, row-max folds) stay
//!   scalar on every backend; only the elementwise passes vectorize.
//! * The `dot`/`laned_sum` kernels keep their fixed 8-lane reduction
//!   tree on every backend (AVX-512 reuses the 8-lane kernel), so the
//!   summation order never depends on the vector width. The Performer
//!   key sums and the `a·bᵀ` GEMMs vectorize *across* features or
//!   output columns instead, each vector lane running one element's
//!   8-lane tree.
//!
//! The cross-backend parity test matrix (`crates/nn/tests/simd_parity.rs`
//! plus this module's unit tests) enforces the contract for every
//! microkernel width and fused op, including ragged shapes.
//!
//! # Selecting a backend
//!
//! * Default: best available, probed once (`Avx512` → `Avx2` → `Scalar`).
//! * `CIRGPS_FORCE_BACKEND=scalar|avx2|avx512` forces one; an
//!   unavailable forced backend **panics** at first kernel use rather
//!   than silently falling back (CI relies on this to keep its matrix
//!   legs honest).
//! * [`Backend::force`] does the same programmatically (the CLI's
//!   `--backend` flag) with a `Result` instead of a panic.
//!
//! See `docs/simd.md` for the dispatch table and measurements.

use std::sync::OnceLock;

/// Which kernel implementation set a process uses. Selected once, used
/// by every subsequent tensor/infer kernel call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar kernels (the reference semantics). `f32::mul_add`
    /// lowers to a correctly-rounded libm call on CPUs without FMA, so
    /// results are identical everywhere — only speed differs.
    Scalar,
    /// 8-lane AVX2 + FMA kernels.
    Avx2,
    /// 16-lane AVX-512F kernels for the wide GEMM microkernels, the
    /// backward GEMMs and the Performer feature maps; narrower and
    /// reduction-order-sensitive kernels reuse the AVX2 set (an AVX-512
    /// machine always has AVX2+FMA).
    Avx512,
}

static ACTIVE: OnceLock<Backend> = OnceLock::new();

impl Backend {
    /// All backends, best-first (used by tests and probes).
    pub const ALL: [Backend; 3] = [Backend::Avx512, Backend::Avx2, Backend::Scalar];

    /// The backend's lowercase name (`scalar` / `avx2` / `avx512`), as
    /// accepted by [`Backend::parse`] and `CIRGPS_FORCE_BACKEND`.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
        }
    }

    /// Parses a backend name (the `CIRGPS_FORCE_BACKEND` /
    /// `--backend` vocabulary).
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted values on unknown input.
    pub fn parse(s: &str) -> Result<Backend, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Ok(Backend::Scalar),
            "avx2" => Ok(Backend::Avx2),
            "avx512" => Ok(Backend::Avx512),
            other => Err(format!(
                "unknown backend {other:?} (expected scalar, avx2 or avx512)"
            )),
        }
    }

    /// Whether this CPU can run the backend's kernels.
    pub fn available(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => {
                is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx2")
                    && is_x86_feature_detected!("fma")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Best backend this CPU supports (ignores the env override).
    pub fn detect() -> Backend {
        *Backend::ALL
            .iter()
            .find(|b| b.available())
            .unwrap_or(&Backend::Scalar)
    }

    /// The process-wide backend every kernel dispatches on.
    ///
    /// First call wins: probes the CPU, honoring `CIRGPS_FORCE_BACKEND`
    /// if set; later calls return the cached choice.
    ///
    /// # Panics
    ///
    /// Panics if `CIRGPS_FORCE_BACKEND` names an unknown backend or one
    /// this CPU cannot run — a forced backend must never silently
    /// degrade to another implementation.
    pub fn active() -> Backend {
        *ACTIVE.get_or_init(|| match std::env::var("CIRGPS_FORCE_BACKEND") {
            Ok(name) if !name.is_empty() => {
                let b =
                    Backend::parse(&name).unwrap_or_else(|e| panic!("CIRGPS_FORCE_BACKEND: {e}"));
                assert!(
                    b.available(),
                    "CIRGPS_FORCE_BACKEND={} but this CPU does not support it \
                     (refusing to silently fall back)",
                    b.name()
                );
                b
            }
            _ => Backend::detect(),
        })
    }

    /// Selects the process-wide backend programmatically (the CLI's
    /// `--backend` flag). Must run before the first kernel dispatch.
    ///
    /// # Errors
    ///
    /// Fails if the backend is unavailable on this CPU, or if dispatch
    /// already latched a different backend (first selection wins).
    pub fn force(b: Backend) -> Result<(), String> {
        if !b.available() {
            return Err(format!(
                "backend {} is not available on this CPU (best: {})",
                b.name(),
                Backend::detect().name()
            ));
        }
        let got = *ACTIVE.get_or_init(|| b);
        if got != b {
            return Err(format!(
                "backend already selected as {} (a process picks its backend once)",
                got.name()
            ));
        }
        Ok(())
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// ---------------------------------------------------------------------------
// AVX2 + FMA kernels (8 lanes).
//
// Safety convention: every function in this module is `unsafe fn` with
// `#[target_feature(enable = "avx2,fma")]`; callers must have verified
// `Backend::Avx2.available()` (the dispatchers in `tensor`/`infer` only
// reach these arms when `Backend::active()` is Avx2/Avx512, which
// implies the probe succeeded).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
// Register-accumulator arrays are indexed by vector lane on purpose: the
// `acc[v]` form mirrors the pointer arithmetic around it.
#[allow(clippy::needless_range_loop)]
pub(crate) mod avx2 {
    use std::arch::x86_64::*;

    use crate::fused::BnGrad;

    /// `out += a · b` for compile-time width `N` (multiple of 8): the
    /// SIMD twin of `tensor::gemm_fixed_n`. Per-element k-order matches
    /// the scalar kernel: groups of four sequential FMAs, then single
    /// FMAs for the k tail.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn gemm_fixed<const N: usize>(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
    ) {
        gemm_fixed_ld::<N>(a, b, N, out, N, m, k)
    }

    /// [`gemm_fixed`] on an `N`-column panel of wider matrices: `b` and
    /// `out` advance `ldb`/`ldo` floats per row. Columns never mix, so
    /// running a wide GEMM panel by panel keeps every element's chain.
    ///
    /// # Safety
    ///
    /// Besides the CPU-feature contract, `a` must hold `m·k` floats, `b`
    /// `(k − 1)·ldb + N` and `out` `(m − 1)·ldo + N` (the debug
    /// assertions).
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn gemm_fixed_ld<const N: usize>(
        a: &[f32],
        b: &[f32],
        ldb: usize,
        out: &mut [f32],
        ldo: usize,
        m: usize,
        k: usize,
    ) {
        debug_assert_eq!(N % 8, 0);
        debug_assert!(a.len() >= m * k);
        debug_assert!(k == 0 || b.len() >= (k - 1) * ldb + N);
        debug_assert!(m == 0 || out.len() >= (m - 1) * ldo + N);
        let nv = N / 8;
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let op = out.as_mut_ptr();
        let mut i = 0;
        // Two output rows per pass while the accumulators fit the
        // register file (nv ≤ 4 ⇒ ≤ 8 live accumulators); rows are
        // independent so per-row arithmetic is unchanged.
        while nv <= 4 && i + 2 <= m {
            let ar0 = ap.add(i * k);
            let ar1 = ap.add((i + 1) * k);
            let o0 = op.add(i * ldo);
            let o1 = op.add((i + 1) * ldo);
            let mut acc0 = [_mm256_setzero_ps(); 4];
            let mut acc1 = [_mm256_setzero_ps(); 4];
            for v in 0..nv {
                acc0[v] = _mm256_loadu_ps(o0.add(v * 8));
                acc1[v] = _mm256_loadu_ps(o1.add(v * 8));
            }
            let mut p = 0;
            while p + 4 <= k {
                let x0 = _mm256_set1_ps(*ar0.add(p));
                let x1 = _mm256_set1_ps(*ar0.add(p + 1));
                let x2 = _mm256_set1_ps(*ar0.add(p + 2));
                let x3 = _mm256_set1_ps(*ar0.add(p + 3));
                let y0 = _mm256_set1_ps(*ar1.add(p));
                let y1 = _mm256_set1_ps(*ar1.add(p + 1));
                let y2 = _mm256_set1_ps(*ar1.add(p + 2));
                let y3 = _mm256_set1_ps(*ar1.add(p + 3));
                for v in 0..nv {
                    let b0 = _mm256_loadu_ps(bp.add(p * ldb + v * 8));
                    let b1 = _mm256_loadu_ps(bp.add((p + 1) * ldb + v * 8));
                    let b2 = _mm256_loadu_ps(bp.add((p + 2) * ldb + v * 8));
                    let b3 = _mm256_loadu_ps(bp.add((p + 3) * ldb + v * 8));
                    let t0 = _mm256_fmadd_ps(x1, b1, _mm256_fmadd_ps(x0, b0, acc0[v]));
                    acc0[v] = _mm256_fmadd_ps(x3, b3, _mm256_fmadd_ps(x2, b2, t0));
                    let t1 = _mm256_fmadd_ps(y1, b1, _mm256_fmadd_ps(y0, b0, acc1[v]));
                    acc1[v] = _mm256_fmadd_ps(y3, b3, _mm256_fmadd_ps(y2, b2, t1));
                }
                p += 4;
            }
            while p < k {
                let x = _mm256_set1_ps(*ar0.add(p));
                let y = _mm256_set1_ps(*ar1.add(p));
                for v in 0..nv {
                    let bv = _mm256_loadu_ps(bp.add(p * ldb + v * 8));
                    acc0[v] = _mm256_fmadd_ps(x, bv, acc0[v]);
                    acc1[v] = _mm256_fmadd_ps(y, bv, acc1[v]);
                }
                p += 1;
            }
            for v in 0..nv {
                _mm256_storeu_ps(o0.add(v * 8), acc0[v]);
                _mm256_storeu_ps(o1.add(v * 8), acc1[v]);
            }
            i += 2;
        }
        while i < m {
            let ar = ap.add(i * k);
            let o = op.add(i * ldo);
            let mut acc = [_mm256_setzero_ps(); 8];
            for v in 0..nv {
                acc[v] = _mm256_loadu_ps(o.add(v * 8));
            }
            let mut p = 0;
            while p + 4 <= k {
                let x0 = _mm256_set1_ps(*ar.add(p));
                let x1 = _mm256_set1_ps(*ar.add(p + 1));
                let x2 = _mm256_set1_ps(*ar.add(p + 2));
                let x3 = _mm256_set1_ps(*ar.add(p + 3));
                for v in 0..nv {
                    let b0 = _mm256_loadu_ps(bp.add(p * ldb + v * 8));
                    let b1 = _mm256_loadu_ps(bp.add((p + 1) * ldb + v * 8));
                    let b2 = _mm256_loadu_ps(bp.add((p + 2) * ldb + v * 8));
                    let b3 = _mm256_loadu_ps(bp.add((p + 3) * ldb + v * 8));
                    let t = _mm256_fmadd_ps(x1, b1, _mm256_fmadd_ps(x0, b0, acc[v]));
                    acc[v] = _mm256_fmadd_ps(x3, b3, _mm256_fmadd_ps(x2, b2, t));
                }
                p += 4;
            }
            while p < k {
                let x = _mm256_set1_ps(*ar.add(p));
                for v in 0..nv {
                    let bv = _mm256_loadu_ps(bp.add(p * ldb + v * 8));
                    acc[v] = _mm256_fmadd_ps(x, bv, acc[v]);
                }
                p += 1;
            }
            for v in 0..nv {
                _mm256_storeu_ps(o.add(v * 8), acc[v]);
            }
            i += 1;
        }
    }

    /// Generic `out += a · b` (any `n`): SIMD twin of the k-panelled
    /// AXPY loop in `tensor::gemm_serial`. The vector body and the
    /// scalar `mul_add` column tail use the same per-element chain.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn gemm_generic(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        kc: usize,
    ) {
        let bp = b.as_ptr();
        let mut p0 = 0;
        while p0 < k {
            let p1 = (p0 + kc).min(k);
            for i in 0..m {
                let arow = &a[i * k..(i + 1) * k];
                let orow = &mut out[i * n..i * n + n];
                let op = orow.as_mut_ptr();
                let mut p = p0;
                while p + 4 <= p1 {
                    let (a0, a1, a2, a3) = (arow[p], arow[p + 1], arow[p + 2], arow[p + 3]);
                    let va0 = _mm256_set1_ps(a0);
                    let va1 = _mm256_set1_ps(a1);
                    let va2 = _mm256_set1_ps(a2);
                    let va3 = _mm256_set1_ps(a3);
                    let b0 = bp.add(p * n);
                    let b1 = bp.add((p + 1) * n);
                    let b2 = bp.add((p + 2) * n);
                    let b3 = bp.add((p + 3) * n);
                    let mut j = 0;
                    while j + 8 <= n {
                        let o = _mm256_loadu_ps(op.add(j));
                        let t = _mm256_fmadd_ps(
                            va1,
                            _mm256_loadu_ps(b1.add(j)),
                            _mm256_fmadd_ps(va0, _mm256_loadu_ps(b0.add(j)), o),
                        );
                        let r = _mm256_fmadd_ps(
                            va3,
                            _mm256_loadu_ps(b3.add(j)),
                            _mm256_fmadd_ps(va2, _mm256_loadu_ps(b2.add(j)), t),
                        );
                        _mm256_storeu_ps(op.add(j), r);
                        j += 8;
                    }
                    while j < n {
                        let o = orow[j];
                        let t = a1.mul_add(*b1.add(j), a0.mul_add(*b0.add(j), o));
                        orow[j] = a3.mul_add(*b3.add(j), a2.mul_add(*b2.add(j), t));
                        j += 1;
                    }
                    p += 4;
                }
                while p < p1 {
                    let av = arow[p];
                    let va = _mm256_set1_ps(av);
                    let br = bp.add(p * n);
                    let mut j = 0;
                    while j + 8 <= n {
                        let o = _mm256_loadu_ps(op.add(j));
                        _mm256_storeu_ps(
                            op.add(j),
                            _mm256_fmadd_ps(va, _mm256_loadu_ps(br.add(j)), o),
                        );
                        j += 8;
                    }
                    while j < n {
                        orow[j] = av.mul_add(*br.add(j), orow[j]);
                        j += 1;
                    }
                    p += 1;
                }
            }
            p0 = p1;
        }
    }

    /// `out += aᵀ · b` for output rows `[i0, i0 + rows)` (the band
    /// `oband`), with `a` stored `k × m` and `b` `k × n`: the SIMD twin
    /// of `tensor::atb_band`. Per `kc`-row panel of `a` and `b`, each
    /// tile of up to four rows × 16 columns is loaded from `oband` once,
    /// accumulates in registers (one broadcast of `a[p·m + i]` per row
    /// and k-step) and is stored once. Every element's chain is the
    /// scalar kernel's: one FMA per `p`, ascending. The `n % 8` ragged
    /// columns run the same chain in scalar code.
    ///
    /// # Safety
    ///
    /// Besides the CPU-feature contract, `a` must hold `k·m` floats, `b`
    /// `k·n`, `oband` a multiple of `n`, and `i0 + rows ≤ m`.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub(crate) unsafe fn gemm_atb(
        a: &[f32],
        b: &[f32],
        oband: &mut [f32],
        i0: usize,
        m: usize,
        k: usize,
        n: usize,
        kc: usize,
    ) {
        let rows = oband.len().checked_div(n).unwrap_or(0);
        debug_assert!(a.len() >= k * m && b.len() >= k * n && i0 + rows <= m);
        let n8 = n - n % 8;
        let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), oband.as_mut_ptr());
        let mut p0 = 0;
        while p0 < k {
            let len = kc.min(k - p0);
            let (pa, pb) = (ap.add(p0 * m + i0), bp.add(p0 * n));
            let mut j = 0;
            while j < n8 {
                let wide = j + 16 <= n8;
                let mut i = 0;
                while i < rows {
                    let (a_, b_, o_) = (pa.add(i), pb.add(j), op.add(i * n + j));
                    i += match (rows - i, wide) {
                        (4.., true) => atb_tile::<4, 2>(a_, m, b_, n, len, o_),
                        (4.., false) => atb_tile::<4, 1>(a_, m, b_, n, len, o_),
                        (2 | 3, true) => atb_tile::<2, 2>(a_, m, b_, n, len, o_),
                        (2 | 3, false) => atb_tile::<2, 1>(a_, m, b_, n, len, o_),
                        (_, true) => atb_tile::<1, 2>(a_, m, b_, n, len, o_),
                        (_, false) => atb_tile::<1, 1>(a_, m, b_, n, len, o_),
                    };
                }
                j += if wide { 16 } else { 8 };
            }
            p0 += len;
        }
        for i in 0..rows {
            for j in n8..n {
                let mut o = oband[i * n + j];
                for p in 0..k {
                    o = (*ap.add(p * m + i0 + i)).mul_add(*bp.add(p * n + j), o);
                }
                oband[i * n + j] = o;
            }
        }
    }

    /// One `R × 8·NV` tile of [`gemm_atb`] over a `len`-row panel (`a`,
    /// `b` and `out` already offset to the tile's corner); returns `R`.
    ///
    /// # Safety
    ///
    /// As [`gemm_atb`], for the tile's rows and columns.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn atb_tile<const R: usize, const NV: usize>(
        a: *const f32,
        m: usize,
        b: *const f32,
        n: usize,
        len: usize,
        out: *mut f32,
    ) -> usize {
        let mut acc = [[_mm256_setzero_ps(); NV]; R];
        for r in 0..R {
            for v in 0..NV {
                acc[r][v] = _mm256_loadu_ps(out.add(r * n + v * 8));
            }
        }
        for p in 0..len {
            let mut bv = [_mm256_setzero_ps(); NV];
            for v in 0..NV {
                bv[v] = _mm256_loadu_ps(b.add(p * n + v * 8));
            }
            for r in 0..R {
                let x = _mm256_set1_ps(*a.add(p * m + r));
                for v in 0..NV {
                    acc[r][v] = _mm256_fmadd_ps(x, bv[v], acc[r][v]);
                }
            }
        }
        for r in 0..R {
            for v in 0..NV {
                _mm256_storeu_ps(out.add(r * n + v * 8), acc[r][v]);
            }
        }
        R
    }

    /// `out += a · bᵀ` with `a` `m × k` and `bt` the `k × n` transpose
    /// of `b` (`n × k`, kept for the ragged columns). Each output row's
    /// 8-column blocks hold [`dot`]'s eight per-lane accumulators in
    /// registers across k (lane `l` takes k-steps `8c + l`, one
    /// broadcast of `a[i, p]` each) plus the sequential tail chain, and
    /// finish with `dot`'s tree `((l0+l4) + (l1+l5)) + ((l2+l6) +
    /// (l3+l7)) + tail` before `out + r`, so every element equals
    /// `out + dot(a_i, b_j)` bit for bit. The `n % 8` ragged columns run
    /// [`dot`] itself.
    ///
    /// # Safety
    ///
    /// Besides the CPU-feature contract, `a` must hold `m·k` floats, `b`
    /// and `bt` `n·k`, and `out` `m·n`.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn gemm_abt(
        a: &[f32],
        b: &[f32],
        bt: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        debug_assert!(a.len() >= m * k && b.len() >= n * k && bt.len() >= n * k);
        debug_assert!(out.len() >= m * n);
        let n8 = n - n % 8;
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let o = out.as_mut_ptr().add(i * n);
            let mut j = 0;
            while j < n8 {
                // `wrapping_add`: with k = 0, `bt` is empty and never read.
                let r = abt_lanes(arow, bt.as_ptr().wrapping_add(j), n);
                _mm256_storeu_ps(o.add(j), _mm256_add_ps(_mm256_loadu_ps(o.add(j)), r));
                j += 8;
            }
            for j in n8..n {
                *o.add(j) += dot(arow, &b[j * k..(j + 1) * k]);
            }
        }
    }

    /// Eight columns of `dot(a_row, b_j)` read from the transposed `bt`
    /// (already offset to the first column, row stride `n`), with
    /// [`dot`]'s lane split and reduction tree per column.
    ///
    /// # Safety
    ///
    /// As [`gemm_abt`], for eight columns starting at `bt`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn abt_lanes(arow: &[f32], bt: *const f32, n: usize) -> __m256 {
        let k = arow.len();
        let k8 = k - k % 8;
        let ap = arow.as_ptr();
        let mut lanes = [_mm256_setzero_ps(); 8];
        let mut p = 0;
        while p < k8 {
            for l in 0..8 {
                let x = _mm256_set1_ps(*ap.add(p + l));
                lanes[l] = _mm256_fmadd_ps(x, _mm256_loadu_ps(bt.add((p + l) * n)), lanes[l]);
            }
            p += 8;
        }
        let mut tail = _mm256_setzero_ps();
        while p < k {
            tail = _mm256_fmadd_ps(
                _mm256_set1_ps(*ap.add(p)),
                _mm256_loadu_ps(bt.add(p * n)),
                tail,
            );
            p += 1;
        }
        let s0 = _mm256_add_ps(
            _mm256_add_ps(lanes[0], lanes[4]),
            _mm256_add_ps(lanes[1], lanes[5]),
        );
        let s1 = _mm256_add_ps(
            _mm256_add_ps(lanes[2], lanes[6]),
            _mm256_add_ps(lanes[3], lanes[7]),
        );
        _mm256_add_ps(_mm256_add_ps(s0, s1), tail)
    }

    /// Eight-lane dot product with exactly `tensor::dot`'s reduction
    /// tree: one vector FMA chain is the eight scalar lanes, the
    /// 128-bit half-add produces `[l0+l4, l1+l5, l2+l6, l3+l7]`, and the
    /// final scalar adds replay `(s0 + s1) + tail`.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn dot(x: &[f32], y: &[f32]) -> f32 {
        let len = x.len().min(y.len());
        let chunks = len / 8;
        let xp = x.as_ptr();
        let yp = y.as_ptr();
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            acc = _mm256_fmadd_ps(
                _mm256_loadu_ps(xp.add(c * 8)),
                _mm256_loadu_ps(yp.add(c * 8)),
                acc,
            );
        }
        let mut tail = 0.0f32;
        for idx in chunks * 8..len {
            tail = (*xp.add(idx)).mul_add(*yp.add(idx), tail);
        }
        let q = _mm_add_ps(_mm256_castps256_ps128(acc), _mm256_extractf128_ps(acc, 1));
        let mut lanes = [0.0f32; 4];
        _mm_storeu_ps(lanes.as_mut_ptr(), q);
        let s0 = lanes[0] + lanes[1];
        let s1 = lanes[2] + lanes[3];
        (s0 + s1) + tail
    }

    /// Eight-lane sum with `tensor::laned_sum`'s exact tree.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn laned_sum(x: &[f32]) -> f32 {
        let len = x.len();
        let chunks = len / 8;
        let xp = x.as_ptr();
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            acc = _mm256_add_ps(_mm256_loadu_ps(xp.add(c * 8)), acc);
        }
        let mut tail = 0.0f32;
        for idx in chunks * 8..len {
            tail += *xp.add(idx);
        }
        let q = _mm_add_ps(_mm256_castps256_ps128(acc), _mm256_extractf128_ps(acc, 1));
        let mut lanes = [0.0f32; 4];
        _mm_storeu_ps(lanes.as_mut_ptr(), q);
        let s0 = lanes[0] + lanes[1];
        let s1 = lanes[2] + lanes[3];
        (s0 + s1) + tail
    }

    /// Vector transcription of [`crate::tensor::fast_exp`], op for op:
    /// the clamp's operand order preserves NaN propagation, and every
    /// multiply/add stays separate (the scalar source has no `mul_add`).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::excessive_precision)] // coefficients transcribed from the scalar source
    pub(crate) unsafe fn fast_exp_v(x: __m256) -> __m256 {
        let x = _mm256_min_ps(
            _mm256_set1_ps(88.0),
            _mm256_max_ps(_mm256_set1_ps(-87.0), x),
        );
        let magic = _mm256_set1_ps(12_582_912.0);
        let zf = _mm256_add_ps(
            _mm256_mul_ps(x, _mm256_set1_ps(std::f32::consts::LOG2_E)),
            magic,
        );
        let n = _mm256_sub_ps(zf, magic);
        #[allow(clippy::excessive_precision)]
        const C1: f32 = 0.693_359_375;
        #[allow(clippy::excessive_precision)]
        const C2: f32 = -2.121_944_4e-4;
        let r = _mm256_sub_ps(
            _mm256_sub_ps(x, _mm256_mul_ps(n, _mm256_set1_ps(C1))),
            _mm256_mul_ps(n, _mm256_set1_ps(C2)),
        );
        let z = _mm256_mul_ps(r, r);
        let mut p = _mm256_set1_ps(1.987_569_2e-4);
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(1.398_200_0e-3));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(8.333_452_0e-3));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(4.166_579_6e-2));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(1.666_666_5e-1));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(5.000_000_1e-1));
        let y = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(p, z), r), _mm256_set1_ps(1.0));
        let n_i = _mm256_sub_epi32(_mm256_castps_si256(zf), _mm256_set1_epi32(0x4B40_0000));
        let scale = _mm256_castsi256_ps(_mm256_slli_epi32(
            _mm256_add_epi32(n_i, _mm256_set1_epi32(127)),
            23,
        ));
        _mm256_mul_ps(y, scale)
    }

    /// Vector `stable_sigmoid`: `e = fast_exp(-|x|)`, `s = e/(1+e)`,
    /// blended by `x ≥ 0` exactly like the scalar select.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn sigmoid_v(x: __m256) -> __m256 {
        let sign = _mm256_set1_ps(-0.0);
        let nabs = _mm256_or_ps(_mm256_andnot_ps(sign, x), sign);
        let e = fast_exp_v(nabs);
        let one = _mm256_set1_ps(1.0);
        let s = _mm256_div_ps(e, _mm256_add_ps(one, e));
        let ge = _mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_GE_OQ);
        _mm256_blendv_ps(s, _mm256_sub_ps(one, s), ge)
    }

    /// In-place `v = fast_exp(v)` sweep; ragged tail runs the scalar fn.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn exp_sweep(xs: &mut [f32]) {
        let n = xs.len();
        let p = xs.as_mut_ptr();
        let mut j = 0;
        while j + 8 <= n {
            _mm256_storeu_ps(p.add(j), fast_exp_v(_mm256_loadu_ps(p.add(j))));
            j += 8;
        }
        while j < n {
            xs[j] = crate::tensor::fast_exp(xs[j]);
            j += 1;
        }
    }

    /// In-place `v = stable_sigmoid(v)` sweep.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn sigmoid_sweep(xs: &mut [f32]) {
        let n = xs.len();
        let p = xs.as_mut_ptr();
        let mut j = 0;
        while j + 8 <= n {
            _mm256_storeu_ps(p.add(j), sigmoid_v(_mm256_loadu_ps(p.add(j))));
            j += 8;
        }
        while j < n {
            xs[j] = crate::infer::stable_sigmoid(xs[j]);
            j += 1;
        }
    }

    /// In-place `v = v.max(0.0)` sweep. `max_ps(v, 0)` matches the
    /// scalar `f32::max` bit for bit here: `-0.0 → +0.0`, `NaN → 0.0`.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn relu_sweep(xs: &mut [f32]) {
        let n = xs.len();
        let p = xs.as_mut_ptr();
        let zero = _mm256_setzero_ps();
        let mut j = 0;
        while j + 8 <= n {
            _mm256_storeu_ps(p.add(j), _mm256_max_ps(_mm256_loadu_ps(p.add(j)), zero));
            j += 8;
        }
        while j < n {
            xs[j] = xs[j].max(0.0);
            j += 1;
        }
    }

    /// In-place `v *= s` sweep (softmax's normalize pass).
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn scale_sweep(xs: &mut [f32], s: f32) {
        let n = xs.len();
        let p = xs.as_mut_ptr();
        let vs = _mm256_set1_ps(s);
        let mut j = 0;
        while j + 8 <= n {
            _mm256_storeu_ps(p.add(j), _mm256_mul_ps(_mm256_loadu_ps(p.add(j)), vs));
            j += 8;
        }
        while j < n {
            xs[j] *= s;
            j += 1;
        }
    }

    /// Softmax exp pass: writes `fast_exp(row[j]·scale − max)` to the
    /// (uninitialized) destination. `scale = 1.0` reproduces the
    /// unscaled pass (`v·1.0` is exact).
    ///
    /// # Safety
    ///
    /// Besides the CPU-feature contract, `dst` must be valid for
    /// `row.len()` writes.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn softmax_exp_pass(dst: *mut f32, row: &[f32], scale: f32, max: f32) {
        let n = row.len();
        let rp = row.as_ptr();
        let vs = _mm256_set1_ps(scale);
        let vm = _mm256_set1_ps(max);
        let mut j = 0;
        while j + 8 <= n {
            let v = _mm256_sub_ps(_mm256_mul_ps(_mm256_loadu_ps(rp.add(j)), vs), vm);
            _mm256_storeu_ps(dst.add(j), fast_exp_v(v));
            j += 8;
        }
        while j < n {
            dst.add(j)
                .write(crate::tensor::fast_exp(row[j] * scale - max));
            j += 1;
        }
    }

    /// Fused BN(+ReLU)(+dropout)+residual row: writes
    /// `((x−μ)·is)·γ + β` (+ optional ReLU, then × optional dropout
    /// mask, + optional residual) to the (uninitialized) destination
    /// row, matching the scalar sweeps in `infer.rs` and `fused.rs` op
    /// for op.
    ///
    /// # Safety
    ///
    /// Besides the CPU-feature contract, `dst` must be valid for `d`
    /// writes, and all row slices must hold at least `d` elements.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub(crate) unsafe fn bn_row(
        dst: *mut f32,
        x: &[f32],
        res: Option<&[f32]>,
        relu: bool,
        mask: Option<&[f32]>,
        mean: &[f32],
        invstd: &[f32],
        gamma: &[f32],
        beta: &[f32],
        d: usize,
    ) {
        let xp = x.as_ptr();
        let mp = mean.as_ptr();
        let ip = invstd.as_ptr();
        let gp = gamma.as_ptr();
        let bp = beta.as_ptr();
        let zero = _mm256_setzero_ps();
        let mut j = 0;
        while j + 8 <= d {
            let xv = _mm256_loadu_ps(xp.add(j));
            let t = _mm256_mul_ps(
                _mm256_mul_ps(
                    _mm256_sub_ps(xv, _mm256_loadu_ps(mp.add(j))),
                    _mm256_loadu_ps(ip.add(j)),
                ),
                _mm256_loadu_ps(gp.add(j)),
            );
            let mut t = _mm256_add_ps(t, _mm256_loadu_ps(bp.add(j)));
            if relu {
                t = _mm256_max_ps(t, zero);
            }
            if let Some(m) = mask {
                t = _mm256_mul_ps(t, _mm256_loadu_ps(m.as_ptr().add(j)));
            }
            if let Some(r) = res {
                t = _mm256_add_ps(t, _mm256_loadu_ps(r.as_ptr().add(j)));
            }
            _mm256_storeu_ps(dst.add(j), t);
            j += 8;
        }
        while j < d {
            let mut t = ((x[j] - mean[j]) * invstd[j]) * gamma[j] + beta[j];
            if relu {
                t = t.max(0.0);
            }
            if let Some(m) = mask {
                t *= m[j];
            }
            if let Some(r) = res {
                t += r[j];
            }
            dst.add(j).write(t);
            j += 1;
        }
    }

    /// Fused BN-of-sum row: `(((a+b)−μ)·is)·γ + β` into `dst`.
    ///
    /// # Safety
    ///
    /// Besides the CPU-feature contract, `dst` must be valid for `d`
    /// writes, and all row slices must hold at least `d` elements.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub(crate) unsafe fn bn_of_sum_row(
        dst: *mut f32,
        a: &[f32],
        b: &[f32],
        mean: &[f32],
        invstd: &[f32],
        gamma: &[f32],
        beta: &[f32],
        d: usize,
    ) {
        let ap = a.as_ptr();
        let b2p = b.as_ptr();
        let mp = mean.as_ptr();
        let ip = invstd.as_ptr();
        let gp = gamma.as_ptr();
        let bp = beta.as_ptr();
        let mut j = 0;
        while j + 8 <= d {
            let s = _mm256_add_ps(_mm256_loadu_ps(ap.add(j)), _mm256_loadu_ps(b2p.add(j)));
            let t = _mm256_mul_ps(
                _mm256_mul_ps(
                    _mm256_sub_ps(s, _mm256_loadu_ps(mp.add(j))),
                    _mm256_loadu_ps(ip.add(j)),
                ),
                _mm256_loadu_ps(gp.add(j)),
            );
            _mm256_storeu_ps(dst.add(j), _mm256_add_ps(t, _mm256_loadu_ps(bp.add(j))));
            j += 8;
        }
        while j < d {
            dst.add(j)
                .write((((a[j] + b[j]) - mean[j]) * invstd[j]) * gamma[j] + beta[j]);
            j += 1;
        }
    }

    /// Fused `ax += num / (den + eps)` sweep.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn add_div_sweep(ax: &mut [f32], num: &[f32], den: &[f32], eps: f32) {
        let n = ax.len();
        let ap = ax.as_mut_ptr();
        let np = num.as_ptr();
        let dp = den.as_ptr();
        let ve = _mm256_set1_ps(eps);
        let mut j = 0;
        while j + 8 <= n {
            let q = _mm256_div_ps(
                _mm256_loadu_ps(np.add(j)),
                _mm256_add_ps(_mm256_loadu_ps(dp.add(j)), ve),
            );
            _mm256_storeu_ps(ap.add(j), _mm256_add_ps(_mm256_loadu_ps(ap.add(j)), q));
            j += 8;
        }
        while j < n {
            ax[j] += num[j] / (den[j] + eps);
            j += 1;
        }
    }

    /// One gated-scatter edge: `η = σ(e)`, `num += η ⊙ bx`, `den += η`,
    /// with the scalar kernel's separate multiply-then-add (no FMA).
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn gated_edge(er: &[f32], bxr: &[f32], nr: &mut [f32], dr: &mut [f32]) {
        let d = er.len();
        let ep = er.as_ptr();
        let bp = bxr.as_ptr();
        let np = nr.as_mut_ptr();
        let dp = dr.as_mut_ptr();
        let mut j = 0;
        while j + 8 <= d {
            let g = sigmoid_v(_mm256_loadu_ps(ep.add(j)));
            let prod = _mm256_mul_ps(g, _mm256_loadu_ps(bp.add(j)));
            _mm256_storeu_ps(np.add(j), _mm256_add_ps(_mm256_loadu_ps(np.add(j)), prod));
            _mm256_storeu_ps(dp.add(j), _mm256_add_ps(_mm256_loadu_ps(dp.add(j)), g));
            j += 8;
        }
        while j < d {
            let g = crate::infer::stable_sigmoid(er[j]);
            nr[j] += g * bxr[j];
            dr[j] += g;
            j += 1;
        }
    }

    /// Backward of one gated-scatter edge (see `fused::gated_aggregate_backward`):
    /// recomputes `η = σ(ê)`, writes `g_ê = (gden + gnum ⊙ bx) ⊙ (η ⊙ (1 − η))`
    /// to `ge` and accumulates `g_bx += gnum ⊙ η`, every product and sum
    /// a separate rounding as in the scalar loop.
    ///
    /// # Safety
    ///
    /// Besides the CPU-feature contract, `ge` must be valid for
    /// `er.len()` writes and every slice must hold `er.len()` floats.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn gated_edge_backward(
        er: &[f32],
        bxr: &[f32],
        gnum: &[f32],
        gden: &[f32],
        ge: *mut f32,
        gbx: &mut [f32],
    ) {
        let d = er.len();
        let (ep, bp, np, dp, gp) = (
            er.as_ptr(),
            bxr.as_ptr(),
            gnum.as_ptr(),
            gden.as_ptr(),
            gbx.as_mut_ptr(),
        );
        let one = _mm256_set1_ps(1.0);
        let mut j = 0;
        while j + 8 <= d {
            let eta = sigmoid_v(_mm256_loadu_ps(ep.add(j)));
            let gn = _mm256_loadu_ps(np.add(j));
            let geta = _mm256_add_ps(
                _mm256_loadu_ps(dp.add(j)),
                _mm256_mul_ps(gn, _mm256_loadu_ps(bp.add(j))),
            );
            let dsig = _mm256_mul_ps(eta, _mm256_sub_ps(one, eta));
            _mm256_storeu_ps(ge.add(j), _mm256_mul_ps(geta, dsig));
            _mm256_storeu_ps(
                gp.add(j),
                _mm256_add_ps(_mm256_loadu_ps(gp.add(j)), _mm256_mul_ps(gn, eta)),
            );
            j += 8;
        }
        while j < d {
            let eta = crate::infer::stable_sigmoid(*ep.add(j));
            let gn = *np.add(j);
            ge.add(j)
                .write((*dp.add(j) + gn * *bp.add(j)) * (eta * (1.0 - eta)));
            *gp.add(j) += gn * eta;
            j += 1;
        }
    }

    /// `acc[c] += x[r, c]` over the rows of the row-major `x` (width
    /// `acc.len()`), in row order: `Tensor::col_sum`'s per-column chain,
    /// eight columns per vector.
    ///
    /// # Safety
    ///
    /// The CPU-feature contract; `x.len()` must be a multiple of a
    /// non-zero `acc.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn col_sums(x: &[f32], acc: &mut [f32]) {
        let d = acc.len();
        let ap = acc.as_mut_ptr();
        for row in x.chunks_exact(d) {
            let rp = row.as_ptr();
            let mut j = 0;
            while j + 8 <= d {
                let s = _mm256_add_ps(_mm256_loadu_ps(ap.add(j)), _mm256_loadu_ps(rp.add(j)));
                _mm256_storeu_ps(ap.add(j), s);
                j += 8;
            }
            while j < d {
                *ap.add(j) += *rp.add(j);
                j += 1;
            }
        }
    }

    /// `acc[c] += (x[r, c] − mean[c])²` over the rows of `x` in row
    /// order, the square and the sum rounded separately (no FMA).
    ///
    /// # Safety
    ///
    /// As [`col_sums`]; `mean` holds `acc.len()` floats.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn col_sq_devs(x: &[f32], mean: &[f32], acc: &mut [f32]) {
        let d = acc.len();
        let (ap, mp) = (acc.as_mut_ptr(), mean.as_ptr());
        for row in x.chunks_exact(d) {
            let rp = row.as_ptr();
            let mut j = 0;
            while j + 8 <= d {
                let diff = _mm256_sub_ps(_mm256_loadu_ps(rp.add(j)), _mm256_loadu_ps(mp.add(j)));
                let s = _mm256_add_ps(_mm256_loadu_ps(ap.add(j)), _mm256_mul_ps(diff, diff));
                _mm256_storeu_ps(ap.add(j), s);
                j += 8;
            }
            while j < d {
                let diff = *rp.add(j) - *mp.add(j);
                *ap.add(j) += diff * diff;
                j += 1;
            }
        }
    }

    /// Eight lanes of a batch-norm backward's `(g_y, x̂)` pair at element
    /// offset `off`, column `c` — the vector twin of
    /// [`crate::fused::bn_grad_pair`].
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn bn_grad_pair(
        src: &BnGrad<'_>,
        off: usize,
        c: usize,
        gamma: *const f32,
        invstd: *const f32,
    ) -> (__m256, __m256) {
        match *src {
            BnGrad::Saved { g, xhat } => (
                _mm256_loadu_ps(g.as_ptr().add(off)),
                _mm256_loadu_ps(xhat.as_ptr().add(off)),
            ),
            BnGrad::Fused {
                g,
                x,
                mask,
                mean,
                beta,
            } => {
                let xh = _mm256_mul_ps(
                    _mm256_sub_ps(
                        _mm256_loadu_ps(x.as_ptr().add(off)),
                        _mm256_loadu_ps(mean.as_ptr().add(c)),
                    ),
                    _mm256_loadu_ps(invstd.add(c)),
                );
                let y = _mm256_add_ps(
                    _mm256_mul_ps(xh, _mm256_loadu_ps(gamma.add(c))),
                    _mm256_loadu_ps(beta.as_ptr().add(c)),
                );
                let mut gy = _mm256_loadu_ps(g.as_ptr().add(off));
                if let Some(m) = mask {
                    gy = _mm256_mul_ps(gy, _mm256_loadu_ps(m.as_ptr().add(off)));
                }
                let live = _mm256_cmp_ps(y, _mm256_setzero_ps(), _CMP_GT_OQ);
                (_mm256_and_ps(live, gy), xh)
            }
        }
    }

    /// The four per-column sums of a batch-norm backward, accumulated in
    /// row order into `sums = [Σ g_y·x̂ | Σ g_y | Σ g_y·γ | Σ (g_y·γ)·x̂]`
    /// (each `d` wide): the scalar loop of `fused::bn_backward_with`,
    /// eight columns per vector.
    ///
    /// # Safety
    ///
    /// The CPU-feature contract; `src`'s slices hold `n·d` floats,
    /// `gamma`/`invstd` (and `src`'s `mean`/`beta`) `d`, `sums` `4·d`.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn bn_backward_sums(
        src: &BnGrad<'_>,
        gamma: &[f32],
        invstd: &[f32],
        n: usize,
        sums: &mut [f32],
    ) {
        let d = gamma.len();
        let (gp, ip, sp) = (gamma.as_ptr(), invstd.as_ptr(), sums.as_mut_ptr());
        let (dg, db, s1, s2) = (sp, sp.add(d), sp.add(2 * d), sp.add(3 * d));
        for r in 0..n {
            let base = r * d;
            let mut j = 0;
            while j + 8 <= d {
                let (gr, xh) = bn_grad_pair(src, base + j, j, gp, ip);
                let dxh = _mm256_mul_ps(gr, _mm256_loadu_ps(gp.add(j)));
                for (p, v) in [
                    (dg, _mm256_mul_ps(gr, xh)),
                    (db, gr),
                    (s1, dxh),
                    (s2, _mm256_mul_ps(dxh, xh)),
                ] {
                    _mm256_storeu_ps(p.add(j), _mm256_add_ps(_mm256_loadu_ps(p.add(j)), v));
                }
                j += 8;
            }
            while j < d {
                let (gr, xh) = crate::fused::bn_grad_pair(src, base + j, j, gamma, invstd);
                let dxh = gr * gamma[j];
                *dg.add(j) += gr * xh;
                *db.add(j) += gr;
                *s1.add(j) += dxh;
                *s2.add(j) += dxh * xh;
                j += 1;
            }
        }
    }

    /// The input gradient of a batch-norm backward,
    /// `gx = k1 ⊙ (((n·(g_y·γ)) − s1) − x̂ ⊙ s2)` with `k1 = invstd / n`,
    /// written to the (uninitialized) `gx`.
    ///
    /// # Safety
    ///
    /// As [`bn_backward_sums`]; `k1`/`s1`/`s2` hold `d` floats and `gx`
    /// is valid for `n·d` writes.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub(crate) unsafe fn bn_backward_gx(
        src: &BnGrad<'_>,
        gamma: &[f32],
        invstd: &[f32],
        n: usize,
        k1: &[f32],
        s1: &[f32],
        s2: &[f32],
        gx: *mut f32,
    ) {
        let d = gamma.len();
        let nf = n.max(1) as f32;
        let vn = _mm256_set1_ps(nf);
        let (gp, ip) = (gamma.as_ptr(), invstd.as_ptr());
        for r in 0..n {
            let base = r * d;
            let mut j = 0;
            while j + 8 <= d {
                let (gr, xh) = bn_grad_pair(src, base + j, j, gp, ip);
                let dxh = _mm256_mul_ps(gr, _mm256_loadu_ps(gp.add(j)));
                let t = _mm256_sub_ps(
                    _mm256_sub_ps(_mm256_mul_ps(vn, dxh), _mm256_loadu_ps(s1.as_ptr().add(j))),
                    _mm256_mul_ps(xh, _mm256_loadu_ps(s2.as_ptr().add(j))),
                );
                _mm256_storeu_ps(
                    gx.add(base + j),
                    _mm256_mul_ps(_mm256_loadu_ps(k1.as_ptr().add(j)), t),
                );
                j += 8;
            }
            while j < d {
                let (gr, xh) = crate::fused::bn_grad_pair(src, base + j, j, gamma, invstd);
                let dxh = gr * gamma[j];
                gx.add(base + j)
                    .write(k1[j] * (nf * dxh - s1[j] - xh * s2[j]));
                j += 1;
            }
        }
    }

    /// Performer feature map φ over rows read in place from the packed
    /// QKV matrix, features `[c0, m − m % 8)`:
    /// `dst[r, f] = (fast_exp(Σ_p x̂[r, p]·Ωᵀ[p, f] − half[r]) + 1e-6)·inv`
    /// with `x̂ = x·scale` and row `r`'s input at `x[r·ld .. r·ld + dh]`.
    /// The product accumulates in registers with [`gemm_fixed`]'s chain
    /// (groups of four sequential FMAs, then single FMAs) and the exp
    /// epilogue runs on the accumulators before the only store, so every
    /// element equals scale-copy → GEMM → feature-map sweep bit for bit.
    /// The caller finishes the ragged feature tail.
    ///
    /// # Safety
    ///
    /// Besides the CPU-feature contract, `x` must hold `(rows − 1)·ld +
    /// dh` floats, `omega_t` `dh·m` and `dst` `rows·m` (the debug
    /// assertions).
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub(crate) unsafe fn feature_map_rows(
        x: &[f32],
        ld: usize,
        rows: usize,
        dh: usize,
        scale: f32,
        omega_t: &[f32],
        m: usize,
        inv: f32,
        dst: &mut [f32],
        c0: usize,
    ) {
        debug_assert!(rows == 0 || x.len() >= (rows - 1) * ld + dh);
        debug_assert!(omega_t.len() >= dh * m && dst.len() >= rows * m);
        if c0 >= m - m % 8 {
            return;
        }
        let half = |r: usize| crate::infer::half_sq_norm(&x[r * ld..r * ld + dh], scale);
        let xp = x.as_ptr();
        let dp = dst.as_mut_ptr();
        let mut i = 0;
        while i + 2 <= rows {
            let h = [half(i), half(i + 1)];
            feature_map_cols::<2>(
                xp.add(i * ld),
                ld,
                dh,
                scale,
                omega_t,
                m,
                inv,
                dp.add(i * m),
                h,
                c0,
            );
            i += 2;
        }
        if i < rows {
            feature_map_cols::<1>(
                xp.add(i * ld),
                ld,
                dh,
                scale,
                omega_t,
                m,
                inv,
                dp.add(i * m),
                [half(i)],
                c0,
            );
        }
    }

    /// `R` rows of [`feature_map_rows`]: 32-feature tiles, then 8.
    ///
    /// # Safety
    ///
    /// As [`feature_map_rows`], for `R` rows starting at `x` and `dst`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn feature_map_cols<const R: usize>(
        x: *const f32,
        ld: usize,
        dh: usize,
        scale: f32,
        omega_t: &[f32],
        m: usize,
        inv: f32,
        dst: *mut f32,
        half: [f32; R],
        c0: usize,
    ) {
        let m8 = m - m % 8;
        let op = omega_t.as_ptr();
        let mut c = c0;
        while c + 32 <= m8 {
            feature_map_tile::<4, R>(x, ld, dh, scale, op.add(c), m, inv, dst.add(c), half);
            c += 32;
        }
        while c < m8 {
            feature_map_tile::<1, R>(x, ld, dh, scale, op.add(c), m, inv, dst.add(c), half);
            c += 8;
        }
    }

    /// One `R × 8·NV` tile of [`feature_map_rows`] (`om`/`dst` already
    /// offset to the tile's first feature).
    ///
    /// # Safety
    ///
    /// As [`feature_map_rows`], for `R` rows and the `8·NV` features
    /// starting at `om` and `dst`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn feature_map_tile<const NV: usize, const R: usize>(
        x: *const f32,
        ld: usize,
        dh: usize,
        scale: f32,
        om: *const f32,
        m: usize,
        inv: f32,
        dst: *mut f32,
        half: [f32; R],
    ) {
        let mut acc = [[_mm256_setzero_ps(); NV]; R];
        let mut p = 0;
        while p + 4 <= dh {
            let mut xs = [[_mm256_setzero_ps(); 4]; R];
            for r in 0..R {
                for q in 0..4 {
                    xs[r][q] = _mm256_set1_ps(*x.add(r * ld + p + q) * scale);
                }
            }
            for v in 0..NV {
                let b0 = _mm256_loadu_ps(om.add(p * m + v * 8));
                let b1 = _mm256_loadu_ps(om.add((p + 1) * m + v * 8));
                let b2 = _mm256_loadu_ps(om.add((p + 2) * m + v * 8));
                let b3 = _mm256_loadu_ps(om.add((p + 3) * m + v * 8));
                for r in 0..R {
                    let t = _mm256_fmadd_ps(xs[r][1], b1, _mm256_fmadd_ps(xs[r][0], b0, acc[r][v]));
                    acc[r][v] = _mm256_fmadd_ps(xs[r][3], b3, _mm256_fmadd_ps(xs[r][2], b2, t));
                }
            }
            p += 4;
        }
        while p < dh {
            for r in 0..R {
                let xv = _mm256_set1_ps(*x.add(r * ld + p) * scale);
                for v in 0..NV {
                    acc[r][v] =
                        _mm256_fmadd_ps(xv, _mm256_loadu_ps(om.add(p * m + v * 8)), acc[r][v]);
                }
            }
            p += 1;
        }
        let eps = _mm256_set1_ps(1e-6);
        let vi = _mm256_set1_ps(inv);
        for r in 0..R {
            let vh = _mm256_set1_ps(half[r]);
            for v in 0..NV {
                let e = fast_exp_v(_mm256_sub_ps(acc[r][v], vh));
                _mm256_storeu_ps(
                    dst.add(r * m + v * 8),
                    _mm256_mul_ps(_mm256_add_ps(e, eps), vi),
                );
            }
        }
    }

    /// Performer key sums `k_sum[f] = Σ_r pk[r, f]` over a block's
    /// `len × m` feature map, features `[0, m − m % 8)`. Eight features
    /// per vector, with [`laned_sum`]'s tree per feature: lane `l` adds
    /// rows `8c + l`, the ragged rows go to a sequential tail, then
    /// `((l0+l4) + (l1+l5)) + ((l2+l6) + (l3+l7))` plus the tail.
    ///
    /// # Safety
    ///
    /// Besides the CPU-feature contract, `pk` must hold `len·m` floats
    /// and `k_sum` `m`.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn performer_key_sum(pk: &[f32], len: usize, m: usize, k_sum: &mut [f32]) {
        debug_assert!(pk.len() >= len * m && k_sum.len() >= m);
        let chunks = len / 8;
        let mut f = 0;
        while f + 8 <= m {
            let base = pk.as_ptr().add(f);
            let mut lanes = [_mm256_setzero_ps(); 8];
            for c in 0..chunks {
                for l in 0..8 {
                    lanes[l] = _mm256_add_ps(_mm256_loadu_ps(base.add((c * 8 + l) * m)), lanes[l]);
                }
            }
            let mut tail = _mm256_setzero_ps();
            for r in chunks * 8..len {
                tail = _mm256_add_ps(tail, _mm256_loadu_ps(base.add(r * m)));
            }
            let s0 = _mm256_add_ps(
                _mm256_add_ps(lanes[0], lanes[4]),
                _mm256_add_ps(lanes[1], lanes[5]),
            );
            let s1 = _mm256_add_ps(
                _mm256_add_ps(lanes[2], lanes[6]),
                _mm256_add_ps(lanes[3], lanes[7]),
            );
            _mm256_storeu_ps(
                k_sum.as_mut_ptr().add(f),
                _mm256_add_ps(_mm256_add_ps(s0, s1), tail),
            );
            f += 8;
        }
    }

    /// Performer key aggregation `kv[f, j] = Σ_p pk[p, f]·v[p, j]` for
    /// one block, features `[f0, m − (m − f0) % 8)` × columns
    /// `[0, dh − dh % 8)`; the caller finishes the ragged tails. `pk`
    /// is the block's `len × m` feature map, row `p` of `v` starts at
    /// `v[p·ld]` (the packed QKV matrix read in place) and `kv` is
    /// `m × dh` row-major. Each accumulator holds eight features of one
    /// output column for the whole p loop, with `atb_band`'s chain
    /// (groups of four sequential FMAs, then single FMAs).
    ///
    /// # Safety
    ///
    /// Besides the CPU-feature contract, `pk` must hold `len·m` floats,
    /// `v` `(len − 1)·ld + dh` and `kv` `m·dh`.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub(crate) unsafe fn performer_kv(
        pk: &[f32],
        m: usize,
        v: &[f32],
        ld: usize,
        len: usize,
        dh: usize,
        kv: &mut [f32],
        f0: usize,
    ) {
        debug_assert!(pk.len() >= len * m && kv.len() >= m * dh);
        debug_assert!(len == 0 || v.len() >= (len - 1) * ld + dh);
        let mut f = f0;
        while f + 8 <= m {
            let mut j = 0;
            while j + 8 <= dh {
                let o = kv.as_mut_ptr().add(f * dh + j);
                kv_tile(pk.as_ptr().add(f), m, v.as_ptr().add(j), ld, len, o, dh);
                j += 8;
            }
            f += 8;
        }
    }

    /// Eight features × eight columns of [`performer_kv`], stored
    /// through a lane transpose into the row-major `kv`.
    ///
    /// # Safety
    ///
    /// As [`performer_kv`], for the eight features at `pk`, the eight
    /// columns at `v` and the output corner `kv`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn kv_tile(
        pk: *const f32,
        m: usize,
        v: *const f32,
        ld: usize,
        len: usize,
        kv: *mut f32,
        dh: usize,
    ) {
        let mut acc = [_mm256_setzero_ps(); 8];
        let mut p = 0;
        while p + 4 <= len {
            let a0 = _mm256_loadu_ps(pk.add(p * m));
            let a1 = _mm256_loadu_ps(pk.add((p + 1) * m));
            let a2 = _mm256_loadu_ps(pk.add((p + 2) * m));
            let a3 = _mm256_loadu_ps(pk.add((p + 3) * m));
            for j in 0..8 {
                let b0 = _mm256_set1_ps(*v.add(p * ld + j));
                let b1 = _mm256_set1_ps(*v.add((p + 1) * ld + j));
                let b2 = _mm256_set1_ps(*v.add((p + 2) * ld + j));
                let b3 = _mm256_set1_ps(*v.add((p + 3) * ld + j));
                let t = _mm256_fmadd_ps(a1, b1, _mm256_fmadd_ps(a0, b0, acc[j]));
                acc[j] = _mm256_fmadd_ps(a3, b3, _mm256_fmadd_ps(a2, b2, t));
            }
            p += 4;
        }
        while p < len {
            let a = _mm256_loadu_ps(pk.add(p * m));
            for j in 0..8 {
                acc[j] = _mm256_fmadd_ps(a, _mm256_set1_ps(*v.add(p * ld + j)), acc[j]);
            }
            p += 1;
        }
        store_transposed(&acc, kv, dh);
    }

    /// Stores eight column vectors of eight features each as eight rows
    /// of eight floats, `dh` apart, through an in-register 8×8 transpose.
    /// Data movement only.
    ///
    /// # Safety
    ///
    /// Besides the CPU-feature contract, `dst` must be valid for writes
    /// of eight floats at each of `dst + l·dh`, `l < 8`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn store_transposed(cols: &[__m256; 8], dst: *mut f32, dh: usize) {
        let c = cols;
        let t0 = _mm256_unpacklo_ps(c[0], c[1]);
        let t1 = _mm256_unpackhi_ps(c[0], c[1]);
        let t2 = _mm256_unpacklo_ps(c[2], c[3]);
        let t3 = _mm256_unpackhi_ps(c[2], c[3]);
        let t4 = _mm256_unpacklo_ps(c[4], c[5]);
        let t5 = _mm256_unpackhi_ps(c[4], c[5]);
        let t6 = _mm256_unpacklo_ps(c[6], c[7]);
        let t7 = _mm256_unpackhi_ps(c[6], c[7]);
        let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let s5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
        let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let s7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
        let rows = [
            _mm256_permute2f128_ps::<0x20>(s0, s4),
            _mm256_permute2f128_ps::<0x20>(s1, s5),
            _mm256_permute2f128_ps::<0x20>(s2, s6),
            _mm256_permute2f128_ps::<0x20>(s3, s7),
            _mm256_permute2f128_ps::<0x31>(s0, s4),
            _mm256_permute2f128_ps::<0x31>(s1, s5),
            _mm256_permute2f128_ps::<0x31>(s2, s6),
            _mm256_permute2f128_ps::<0x31>(s3, s7),
        ];
        for (l, &r) in rows.iter().enumerate() {
            _mm256_storeu_ps(dst.add(l * dh), r);
        }
    }

    /// Performer output rows for one block, columns `[0, dh − dh % 8)`:
    /// `out[r, j] = num / den` with `num = Σ_f pq[r, f]·kv[f, j]`
    /// ([`gemm_fixed`]'s chain) and `den = 0 + dot(pq[r], k_sum)` (the
    /// GEMM `n = 1` path), written to `out[r·ldo + j]`. Up to eight rows
    /// share each `kv` load, so eight FMA chains are in flight.
    ///
    /// # Safety
    ///
    /// Besides the CPU-feature contract, `pq` must hold `len·m` floats,
    /// `kv` `m·dh`, `k_sum` `m` and `out` `(len − 1)·ldo + dh`.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub(crate) unsafe fn performer_attend(
        pq: &[f32],
        kv: &[f32],
        k_sum: &[f32],
        len: usize,
        m: usize,
        dh: usize,
        out: &mut [f32],
        ldo: usize,
    ) {
        debug_assert!(pq.len() >= len * m && kv.len() >= m * dh && k_sum.len() >= m);
        debug_assert!(len == 0 || out.len() >= (len - 1) * ldo + dh);
        let mut i = 0;
        while i < len {
            let (p, o) = (&pq[i * m..], out.as_mut_ptr().add(i * ldo));
            i += match len - i {
                8.. => attend_tile::<8>(p, kv, k_sum, m, dh, o, ldo),
                4..=7 => attend_tile::<4>(p, kv, k_sum, m, dh, o, ldo),
                2 | 3 => attend_tile::<2>(p, kv, k_sum, m, dh, o, ldo),
                _ => attend_tile::<1>(p, kv, k_sum, m, dh, o, ldo),
            };
        }
    }

    /// `R` rows of [`performer_attend`]; returns `R`.
    ///
    /// # Safety
    ///
    /// As [`performer_attend`], for `R` rows starting at `pq` and `out`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn attend_tile<const R: usize>(
        pq: &[f32],
        kv: &[f32],
        k_sum: &[f32],
        m: usize,
        dh: usize,
        out: *mut f32,
        ldo: usize,
    ) -> usize {
        let mut den = [_mm256_setzero_ps(); R];
        for r in 0..R {
            den[r] = _mm256_set1_ps(0.0 + dot(&pq[r * m..(r + 1) * m], k_sum));
        }
        let ap = pq.as_ptr();
        let mut c = 0;
        while c + 8 <= dh {
            let kp = kv.as_ptr().add(c);
            let mut acc = [_mm256_setzero_ps(); R];
            let mut f = 0;
            while f + 4 <= m {
                let k0 = _mm256_loadu_ps(kp.add(f * dh));
                let k1 = _mm256_loadu_ps(kp.add((f + 1) * dh));
                let k2 = _mm256_loadu_ps(kp.add((f + 2) * dh));
                let k3 = _mm256_loadu_ps(kp.add((f + 3) * dh));
                for r in 0..R {
                    let a = ap.add(r * m + f);
                    let t = _mm256_fmadd_ps(
                        _mm256_set1_ps(*a.add(1)),
                        k1,
                        _mm256_fmadd_ps(_mm256_set1_ps(*a), k0, acc[r]),
                    );
                    acc[r] = _mm256_fmadd_ps(
                        _mm256_set1_ps(*a.add(3)),
                        k3,
                        _mm256_fmadd_ps(_mm256_set1_ps(*a.add(2)), k2, t),
                    );
                }
                f += 4;
            }
            while f < m {
                let k = _mm256_loadu_ps(kp.add(f * dh));
                for r in 0..R {
                    acc[r] = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add(r * m + f)), k, acc[r]);
                }
                f += 1;
            }
            for r in 0..R {
                _mm256_storeu_ps(out.add(r * ldo + c), _mm256_div_ps(acc[r], den[r]));
            }
            c += 8;
        }
        R
    }
}

// ---------------------------------------------------------------------------
// AVX-512F kernels (16 lanes) for the wide GEMM microkernels, the
// backward GEMMs and the Performer feature maps. Narrow widths and
// order-sensitive reductions delegate to the AVX2 set (see the
// dispatchers in `tensor`/`infer`).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
#[allow(clippy::needless_range_loop)] // same `acc[v]` idiom as `avx2`
pub(crate) mod avx512 {
    use std::arch::x86_64::*;

    use crate::fused::BnGrad;

    /// `out += a · b` for compile-time width `N` (multiple of 16):
    /// 16-lane twin of [`super::avx2::gemm_fixed`]; per-element k-order
    /// is identical (lanes are independent columns).
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn gemm_fixed<const N: usize>(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
    ) {
        debug_assert_eq!(N % 16, 0);
        debug_assert!(N <= 96);
        let nv = N / 16;
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let op = out.as_mut_ptr();
        let mut i = 0;
        // Two rows per pass for the narrow widths and for N = 96, the
        // packed QKV width: its 12 accumulators, 8 broadcasts and 4 B
        // vectors fit the 32-register file.
        while (nv <= 2 || nv == 6) && i + 2 <= m {
            let ar0 = ap.add(i * k);
            let ar1 = ap.add((i + 1) * k);
            let o0 = op.add(i * N);
            let o1 = op.add((i + 1) * N);
            let mut acc0 = [_mm512_setzero_ps(); 6];
            let mut acc1 = [_mm512_setzero_ps(); 6];
            for v in 0..nv {
                acc0[v] = _mm512_loadu_ps(o0.add(v * 16));
                acc1[v] = _mm512_loadu_ps(o1.add(v * 16));
            }
            let mut p = 0;
            while p + 4 <= k {
                let x0 = _mm512_set1_ps(*ar0.add(p));
                let x1 = _mm512_set1_ps(*ar0.add(p + 1));
                let x2 = _mm512_set1_ps(*ar0.add(p + 2));
                let x3 = _mm512_set1_ps(*ar0.add(p + 3));
                let y0 = _mm512_set1_ps(*ar1.add(p));
                let y1 = _mm512_set1_ps(*ar1.add(p + 1));
                let y2 = _mm512_set1_ps(*ar1.add(p + 2));
                let y3 = _mm512_set1_ps(*ar1.add(p + 3));
                for v in 0..nv {
                    let b0 = _mm512_loadu_ps(bp.add(p * N + v * 16));
                    let b1 = _mm512_loadu_ps(bp.add((p + 1) * N + v * 16));
                    let b2 = _mm512_loadu_ps(bp.add((p + 2) * N + v * 16));
                    let b3 = _mm512_loadu_ps(bp.add((p + 3) * N + v * 16));
                    let t0 = _mm512_fmadd_ps(x1, b1, _mm512_fmadd_ps(x0, b0, acc0[v]));
                    acc0[v] = _mm512_fmadd_ps(x3, b3, _mm512_fmadd_ps(x2, b2, t0));
                    let t1 = _mm512_fmadd_ps(y1, b1, _mm512_fmadd_ps(y0, b0, acc1[v]));
                    acc1[v] = _mm512_fmadd_ps(y3, b3, _mm512_fmadd_ps(y2, b2, t1));
                }
                p += 4;
            }
            while p < k {
                let x = _mm512_set1_ps(*ar0.add(p));
                let y = _mm512_set1_ps(*ar1.add(p));
                for v in 0..nv {
                    let bv = _mm512_loadu_ps(bp.add(p * N + v * 16));
                    acc0[v] = _mm512_fmadd_ps(x, bv, acc0[v]);
                    acc1[v] = _mm512_fmadd_ps(y, bv, acc1[v]);
                }
                p += 1;
            }
            for v in 0..nv {
                _mm512_storeu_ps(o0.add(v * 16), acc0[v]);
                _mm512_storeu_ps(o1.add(v * 16), acc1[v]);
            }
            i += 2;
        }
        while i < m {
            let ar = ap.add(i * k);
            let o = op.add(i * N);
            let mut acc = [_mm512_setzero_ps(); 6];
            for v in 0..nv {
                acc[v] = _mm512_loadu_ps(o.add(v * 16));
            }
            let mut p = 0;
            while p + 4 <= k {
                let x0 = _mm512_set1_ps(*ar.add(p));
                let x1 = _mm512_set1_ps(*ar.add(p + 1));
                let x2 = _mm512_set1_ps(*ar.add(p + 2));
                let x3 = _mm512_set1_ps(*ar.add(p + 3));
                for v in 0..nv {
                    let b0 = _mm512_loadu_ps(bp.add(p * N + v * 16));
                    let b1 = _mm512_loadu_ps(bp.add((p + 1) * N + v * 16));
                    let b2 = _mm512_loadu_ps(bp.add((p + 2) * N + v * 16));
                    let b3 = _mm512_loadu_ps(bp.add((p + 3) * N + v * 16));
                    let t = _mm512_fmadd_ps(x1, b1, _mm512_fmadd_ps(x0, b0, acc[v]));
                    acc[v] = _mm512_fmadd_ps(x3, b3, _mm512_fmadd_ps(x2, b2, t));
                }
                p += 4;
            }
            while p < k {
                let x = _mm512_set1_ps(*ar.add(p));
                for v in 0..nv {
                    let bv = _mm512_loadu_ps(bp.add(p * N + v * 16));
                    acc[v] = _mm512_fmadd_ps(x, bv, acc[v]);
                }
                p += 1;
            }
            for v in 0..nv {
                _mm512_storeu_ps(o.add(v * 16), acc[v]);
            }
            i += 1;
        }
    }
    /// Mask of the first `cols` lanes of a 16-lane vector (`cols ≤ 16`).
    #[inline]
    fn lane_mask(cols: usize) -> __mmask16 {
        ((1u32 << cols) - 1) as __mmask16
    }

    /// 16-lane `stable_sigmoid`: the twin of [`super::avx2::sigmoid_v`]
    /// (`e = fast_exp(−|x|)`, `s = e/(1+e)`, `1 − s` where `x ≥ 0`).
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn sigmoid_v(x: __m512) -> __m512 {
        let sign = _mm512_castps_si512(_mm512_set1_ps(-0.0));
        let nabs = _mm512_castsi512_ps(_mm512_or_si512(
            _mm512_andnot_si512(sign, _mm512_castps_si512(x)),
            sign,
        ));
        let e = fast_exp_v(nabs);
        let one = _mm512_set1_ps(1.0);
        let s = _mm512_div_ps(e, _mm512_add_ps(one, e));
        let ge = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(x, _mm512_setzero_ps());
        _mm512_mask_blend_ps(ge, s, _mm512_sub_ps(one, s))
    }

    /// 16-lane twin of [`super::avx2::gated_edge_backward`]; the ragged
    /// column tail runs in masked lanes.
    ///
    /// # Safety
    ///
    /// As [`super::avx2::gated_edge_backward`], under the AVX-512F
    /// contract.
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn gated_edge_backward(
        er: &[f32],
        bxr: &[f32],
        gnum: &[f32],
        gden: &[f32],
        ge: *mut f32,
        gbx: &mut [f32],
    ) {
        let d = er.len();
        let (ep, bp, np, dp, gp) = (
            er.as_ptr(),
            bxr.as_ptr(),
            gnum.as_ptr(),
            gden.as_ptr(),
            gbx.as_mut_ptr(),
        );
        let one = _mm512_set1_ps(1.0);
        let mut j = 0;
        while j < d {
            let k = lane_mask((d - j).min(16));
            let eta = sigmoid_v(_mm512_maskz_loadu_ps(k, ep.add(j)));
            let gn = _mm512_maskz_loadu_ps(k, np.add(j));
            let geta = _mm512_add_ps(
                _mm512_maskz_loadu_ps(k, dp.add(j)),
                _mm512_mul_ps(gn, _mm512_maskz_loadu_ps(k, bp.add(j))),
            );
            let dsig = _mm512_mul_ps(eta, _mm512_sub_ps(one, eta));
            _mm512_mask_storeu_ps(ge.add(j), k, _mm512_mul_ps(geta, dsig));
            let acc = _mm512_add_ps(_mm512_maskz_loadu_ps(k, gp.add(j)), _mm512_mul_ps(gn, eta));
            _mm512_mask_storeu_ps(gp.add(j), k, acc);
            j += 16;
        }
    }

    /// 16-lane twin of [`super::avx2::col_sums`]; the ragged column tail
    /// runs in masked lanes.
    ///
    /// # Safety
    ///
    /// As [`super::avx2::col_sums`], under the AVX-512F contract.
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn col_sums(x: &[f32], acc: &mut [f32]) {
        let d = acc.len();
        let ap = acc.as_mut_ptr();
        for row in x.chunks_exact(d) {
            let rp = row.as_ptr();
            let mut j = 0;
            while j < d {
                let k = lane_mask((d - j).min(16));
                let s = _mm512_add_ps(
                    _mm512_maskz_loadu_ps(k, ap.add(j)),
                    _mm512_maskz_loadu_ps(k, rp.add(j)),
                );
                _mm512_mask_storeu_ps(ap.add(j), k, s);
                j += 16;
            }
        }
    }

    /// 16-lane twin of [`super::avx2::col_sq_devs`].
    ///
    /// # Safety
    ///
    /// As [`super::avx2::col_sq_devs`], under the AVX-512F contract.
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn col_sq_devs(x: &[f32], mean: &[f32], acc: &mut [f32]) {
        let d = acc.len();
        let (ap, mp) = (acc.as_mut_ptr(), mean.as_ptr());
        for row in x.chunks_exact(d) {
            let rp = row.as_ptr();
            let mut j = 0;
            while j < d {
                let k = lane_mask((d - j).min(16));
                let diff = _mm512_sub_ps(
                    _mm512_maskz_loadu_ps(k, rp.add(j)),
                    _mm512_maskz_loadu_ps(k, mp.add(j)),
                );
                let s = _mm512_add_ps(
                    _mm512_maskz_loadu_ps(k, ap.add(j)),
                    _mm512_mul_ps(diff, diff),
                );
                _mm512_mask_storeu_ps(ap.add(j), k, s);
                j += 16;
            }
        }
    }

    /// 16-lane twin of the AVX2 `bn_grad_pair`, lanes outside `k` zero.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn bn_grad_pair(
        src: &BnGrad<'_>,
        k: __mmask16,
        off: usize,
        c: usize,
        gamma: *const f32,
        invstd: *const f32,
    ) -> (__m512, __m512) {
        match *src {
            BnGrad::Saved { g, xhat } => (
                _mm512_maskz_loadu_ps(k, g.as_ptr().add(off)),
                _mm512_maskz_loadu_ps(k, xhat.as_ptr().add(off)),
            ),
            BnGrad::Fused {
                g,
                x,
                mask,
                mean,
                beta,
            } => {
                let xh = _mm512_mul_ps(
                    _mm512_sub_ps(
                        _mm512_maskz_loadu_ps(k, x.as_ptr().add(off)),
                        _mm512_maskz_loadu_ps(k, mean.as_ptr().add(c)),
                    ),
                    _mm512_maskz_loadu_ps(k, invstd.add(c)),
                );
                let y = _mm512_add_ps(
                    _mm512_mul_ps(xh, _mm512_maskz_loadu_ps(k, gamma.add(c))),
                    _mm512_maskz_loadu_ps(k, beta.as_ptr().add(c)),
                );
                let mut gy = _mm512_maskz_loadu_ps(k, g.as_ptr().add(off));
                if let Some(m) = mask {
                    gy = _mm512_mul_ps(gy, _mm512_maskz_loadu_ps(k, m.as_ptr().add(off)));
                }
                let live = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(y, _mm512_setzero_ps());
                (_mm512_maskz_mov_ps(live & k, gy), xh)
            }
        }
    }

    /// 16-lane twin of [`super::avx2::bn_backward_sums`].
    ///
    /// # Safety
    ///
    /// As [`super::avx2::bn_backward_sums`], under the AVX-512F contract.
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn bn_backward_sums(
        src: &BnGrad<'_>,
        gamma: &[f32],
        invstd: &[f32],
        n: usize,
        sums: &mut [f32],
    ) {
        let d = gamma.len();
        let (gp, ip, sp) = (gamma.as_ptr(), invstd.as_ptr(), sums.as_mut_ptr());
        let (dg, db, s1, s2) = (sp, sp.add(d), sp.add(2 * d), sp.add(3 * d));
        for r in 0..n {
            let base = r * d;
            let mut j = 0;
            while j < d {
                let k = lane_mask((d - j).min(16));
                let (gr, xh) = bn_grad_pair(src, k, base + j, j, gp, ip);
                let dxh = _mm512_mul_ps(gr, _mm512_maskz_loadu_ps(k, gp.add(j)));
                for (p, v) in [
                    (dg, _mm512_mul_ps(gr, xh)),
                    (db, gr),
                    (s1, dxh),
                    (s2, _mm512_mul_ps(dxh, xh)),
                ] {
                    let s = _mm512_add_ps(_mm512_maskz_loadu_ps(k, p.add(j)), v);
                    _mm512_mask_storeu_ps(p.add(j), k, s);
                }
                j += 16;
            }
        }
    }

    /// 16-lane twin of [`super::avx2::bn_backward_gx`].
    ///
    /// # Safety
    ///
    /// As [`super::avx2::bn_backward_gx`], under the AVX-512F contract.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub(crate) unsafe fn bn_backward_gx(
        src: &BnGrad<'_>,
        gamma: &[f32],
        invstd: &[f32],
        n: usize,
        k1: &[f32],
        s1: &[f32],
        s2: &[f32],
        gx: *mut f32,
    ) {
        let d = gamma.len();
        let vn = _mm512_set1_ps(n.max(1) as f32);
        let (gp, ip) = (gamma.as_ptr(), invstd.as_ptr());
        for r in 0..n {
            let base = r * d;
            let mut j = 0;
            while j < d {
                let k = lane_mask((d - j).min(16));
                let (gr, xh) = bn_grad_pair(src, k, base + j, j, gp, ip);
                let dxh = _mm512_mul_ps(gr, _mm512_maskz_loadu_ps(k, gp.add(j)));
                let t = _mm512_sub_ps(
                    _mm512_sub_ps(
                        _mm512_mul_ps(vn, dxh),
                        _mm512_maskz_loadu_ps(k, s1.as_ptr().add(j)),
                    ),
                    _mm512_mul_ps(xh, _mm512_maskz_loadu_ps(k, s2.as_ptr().add(j))),
                );
                let out = _mm512_mul_ps(_mm512_maskz_loadu_ps(k, k1.as_ptr().add(j)), t);
                _mm512_mask_storeu_ps(gx.add(base + j), k, out);
                j += 16;
            }
        }
    }

    /// The masks of one column block of up to `16·NV` columns, `cols`
    /// of them live: full vectors first, then the ragged one.
    #[inline]
    fn block_masks<const NV: usize>(cols: usize) -> [__mmask16; NV] {
        std::array::from_fn(|v| lane_mask(cols.saturating_sub(v * 16).min(16)))
    }

    /// 16-lane twin of [`super::avx2::gemm_atb`]: per `kc`-row panel,
    /// tiles of up to eight rows × 32 columns stay in registers (16
    /// accumulators), loaded from `oband` once and stored once. Ragged
    /// columns run in masked lanes (a masked-off lane never touches
    /// memory), so every element keeps the scalar chain: one FMA per `p`,
    /// ascending.
    ///
    /// # Safety
    ///
    /// As [`super::avx2::gemm_atb`], under the AVX-512F contract.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub(crate) unsafe fn gemm_atb(
        a: &[f32],
        b: &[f32],
        oband: &mut [f32],
        i0: usize,
        m: usize,
        k: usize,
        n: usize,
        kc: usize,
    ) {
        let rows = oband.len().checked_div(n).unwrap_or(0);
        debug_assert!(a.len() >= k * m && b.len() >= k * n && i0 + rows <= m);
        let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), oband.as_mut_ptr());
        let mut p0 = 0;
        while p0 < k {
            let len = kc.min(k - p0);
            let (pa, pb) = (ap.add(p0 * m + i0), bp.add(p0 * n));
            let mut j = 0;
            while j < n {
                let cols = (n - j).min(32);
                let mut i = 0;
                while i < rows {
                    let (a_, b_, o_) = (pa.add(i), pb.add(j), op.add(i * n + j));
                    i += if cols > 16 {
                        let mk = block_masks::<2>(cols);
                        match rows - i {
                            8.. => atb_tile::<8, 2>(a_, m, b_, n, len, o_, mk),
                            4..=7 => atb_tile::<4, 2>(a_, m, b_, n, len, o_, mk),
                            2 | 3 => atb_tile::<2, 2>(a_, m, b_, n, len, o_, mk),
                            _ => atb_tile::<1, 2>(a_, m, b_, n, len, o_, mk),
                        }
                    } else {
                        let mk = block_masks::<1>(cols);
                        match rows - i {
                            8.. => atb_tile::<8, 1>(a_, m, b_, n, len, o_, mk),
                            4..=7 => atb_tile::<4, 1>(a_, m, b_, n, len, o_, mk),
                            2 | 3 => atb_tile::<2, 1>(a_, m, b_, n, len, o_, mk),
                            _ => atb_tile::<1, 1>(a_, m, b_, n, len, o_, mk),
                        }
                    };
                }
                j += cols;
            }
            p0 += len;
        }
    }

    /// One `R × 16·NV` tile of [`gemm_atb`] over a `len`-row panel (`a`,
    /// `b` and `out` already offset to the tile's corner), lanes
    /// restricted by `mask`; returns `R`.
    ///
    /// # Safety
    ///
    /// As [`gemm_atb`], for the tile's rows and live columns.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn atb_tile<const R: usize, const NV: usize>(
        a: *const f32,
        m: usize,
        b: *const f32,
        n: usize,
        len: usize,
        out: *mut f32,
        mask: [__mmask16; NV],
    ) -> usize {
        let mut acc = [[_mm512_setzero_ps(); NV]; R];
        for r in 0..R {
            for v in 0..NV {
                acc[r][v] = _mm512_maskz_loadu_ps(mask[v], out.add(r * n + v * 16));
            }
        }
        for p in 0..len {
            let mut bv = [_mm512_setzero_ps(); NV];
            for v in 0..NV {
                bv[v] = _mm512_maskz_loadu_ps(mask[v], b.add(p * n + v * 16));
            }
            for r in 0..R {
                let x = _mm512_set1_ps(*a.add(p * m + r));
                for v in 0..NV {
                    acc[r][v] = _mm512_fmadd_ps(x, bv[v], acc[r][v]);
                }
            }
        }
        for r in 0..R {
            for v in 0..NV {
                _mm512_mask_storeu_ps(out.add(r * n + v * 16), mask[v], acc[r][v]);
            }
        }
        R
    }

    /// 16-lane twin of [`super::avx2::gemm_abt`]: each output row's
    /// 32-column blocks hold 2 × 8 per-lane accumulators plus two tail
    /// chains in registers across k, with `dot`'s lane split and tree per
    /// column; ragged columns run in masked lanes, so `b` itself is never
    /// read.
    ///
    /// # Safety
    ///
    /// As [`super::avx2::gemm_abt`], under the AVX-512F contract.
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn gemm_abt(
        a: &[f32],
        bt: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        debug_assert!(a.len() >= m * k && bt.len() >= n * k && out.len() >= m * n);
        for i in 0..m {
            let ar = a.as_ptr().add(i * k);
            let o = out.as_mut_ptr().add(i * n);
            let mut j = 0;
            while j < n {
                let cols = (n - j).min(32);
                // `wrapping_add`: with k = 0, `bt` is empty and never read.
                let (b_, o_) = (bt.as_ptr().wrapping_add(j), o.add(j));
                if cols > 16 {
                    abt_tile::<2>(ar, k, b_, n, o_, block_masks(cols));
                } else {
                    abt_tile::<1>(ar, k, b_, n, o_, block_masks(cols));
                }
                j += cols;
            }
        }
    }

    /// `16·NV` columns of one [`gemm_abt`] output row (`bt` and `out`
    /// already offset to the first column), lanes restricted by `mask`.
    ///
    /// # Safety
    ///
    /// As [`gemm_abt`], for the row at `a` and the live columns.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn abt_tile<const NV: usize>(
        a: *const f32,
        k: usize,
        bt: *const f32,
        n: usize,
        out: *mut f32,
        mask: [__mmask16; NV],
    ) {
        let k8 = k - k % 8;
        let mut lanes = [[_mm512_setzero_ps(); NV]; 8];
        let mut p = 0;
        while p < k8 {
            for l in 0..8 {
                let x = _mm512_set1_ps(*a.add(p + l));
                for v in 0..NV {
                    let bv = _mm512_maskz_loadu_ps(mask[v], bt.add((p + l) * n + v * 16));
                    lanes[l][v] = _mm512_fmadd_ps(x, bv, lanes[l][v]);
                }
            }
            p += 8;
        }
        let mut tail = [_mm512_setzero_ps(); NV];
        while p < k {
            let x = _mm512_set1_ps(*a.add(p));
            for v in 0..NV {
                let bv = _mm512_maskz_loadu_ps(mask[v], bt.add(p * n + v * 16));
                tail[v] = _mm512_fmadd_ps(x, bv, tail[v]);
            }
            p += 1;
        }
        for v in 0..NV {
            let l = &lanes;
            let s0 = _mm512_add_ps(
                _mm512_add_ps(l[0][v], l[4][v]),
                _mm512_add_ps(l[1][v], l[5][v]),
            );
            let s1 = _mm512_add_ps(
                _mm512_add_ps(l[2][v], l[6][v]),
                _mm512_add_ps(l[3][v], l[7][v]),
            );
            let r = _mm512_add_ps(_mm512_add_ps(s0, s1), tail[v]);
            let o = _mm512_maskz_loadu_ps(mask[v], out.add(v * 16));
            _mm512_mask_storeu_ps(out.add(v * 16), mask[v], _mm512_add_ps(o, r));
        }
    }

    /// 16-lane twin of [`super::avx2::performer_kv`] over features
    /// `[0, m − m % 16)` × columns `[0, dh − dh % 8)`, in 32- then
    /// 16-feature tiles; every element keeps the same chain (lanes are
    /// independent features). Returns the number of features done.
    ///
    /// # Safety
    ///
    /// As [`super::avx2::performer_kv`], under the AVX-512F contract.
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn performer_kv(
        pk: &[f32],
        m: usize,
        v: &[f32],
        ld: usize,
        len: usize,
        dh: usize,
        kv: &mut [f32],
    ) -> usize {
        debug_assert!(pk.len() >= len * m && kv.len() >= m * dh);
        debug_assert!(len == 0 || v.len() >= (len - 1) * ld + dh);
        let m16 = m - m % 16;
        let mut f = 0;
        while f < m16 {
            let wide = f + 32 <= m16;
            let mut j = 0;
            while j + 8 <= dh {
                let (a, b) = (pk.as_ptr().add(f), v.as_ptr().add(j));
                let o = kv.as_mut_ptr().add(f * dh + j);
                if wide {
                    kv_tile::<2>(a, m, b, ld, len, o, dh);
                } else {
                    kv_tile::<1>(a, m, b, ld, len, o, dh);
                }
                j += 8;
            }
            f += if wide { 32 } else { 16 };
        }
        m16
    }

    /// `16·FV` features × eight columns of [`performer_kv`]: all `8·FV`
    /// accumulators stay in registers for the whole p loop, then leave
    /// through a lane transpose into the row-major `kv`.
    ///
    /// # Safety
    ///
    /// As [`performer_kv`], for the `16·FV` features at `pk`, the eight
    /// columns at `v` and the output corner `kv`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn kv_tile<const FV: usize>(
        pk: *const f32,
        m: usize,
        v: *const f32,
        ld: usize,
        len: usize,
        kv: *mut f32,
        dh: usize,
    ) {
        let mut acc = [[_mm512_setzero_ps(); 8]; FV];
        let mut p = 0;
        while p + 4 <= len {
            let mut a = [[_mm512_setzero_ps(); 4]; FV];
            for w in 0..FV {
                for q in 0..4 {
                    a[w][q] = _mm512_loadu_ps(pk.add((p + q) * m + w * 16));
                }
            }
            for j in 0..8 {
                let b0 = _mm512_set1_ps(*v.add(p * ld + j));
                let b1 = _mm512_set1_ps(*v.add((p + 1) * ld + j));
                let b2 = _mm512_set1_ps(*v.add((p + 2) * ld + j));
                let b3 = _mm512_set1_ps(*v.add((p + 3) * ld + j));
                for w in 0..FV {
                    let t = _mm512_fmadd_ps(a[w][1], b1, _mm512_fmadd_ps(a[w][0], b0, acc[w][j]));
                    acc[w][j] = _mm512_fmadd_ps(a[w][3], b3, _mm512_fmadd_ps(a[w][2], b2, t));
                }
            }
            p += 4;
        }
        while p < len {
            for w in 0..FV {
                let a = _mm512_loadu_ps(pk.add(p * m + w * 16));
                for j in 0..8 {
                    acc[w][j] = _mm512_fmadd_ps(a, _mm512_set1_ps(*v.add(p * ld + j)), acc[w][j]);
                }
            }
            p += 1;
        }
        // Each 16-feature vector leaves as two 8-feature halves.
        for w in 0..FV {
            let mut lo = [_mm256_setzero_ps(); 8];
            let mut hi = [_mm256_setzero_ps(); 8];
            for j in 0..8 {
                lo[j] = _mm512_castps512_ps256(acc[w][j]);
                hi[j] = _mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(_mm512_castps_pd(acc[w][j])));
            }
            super::avx2::store_transposed(&lo, kv.add(w * 16 * dh), dh);
            super::avx2::store_transposed(&hi, kv.add((w * 16 + 8) * dh), dh);
        }
    }

    /// 16-lane transcription of [`crate::tensor::fast_exp`], op for op
    /// like [`super::avx2::fast_exp_v`] (same clamp operand order, no
    /// contracting FMA), so every lane equals the scalar function.
    #[inline]
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::excessive_precision)] // coefficients transcribed from the scalar source
    pub(crate) unsafe fn fast_exp_v(x: __m512) -> __m512 {
        let x = _mm512_min_ps(
            _mm512_set1_ps(88.0),
            _mm512_max_ps(_mm512_set1_ps(-87.0), x),
        );
        let magic = _mm512_set1_ps(12_582_912.0);
        let zf = _mm512_add_ps(
            _mm512_mul_ps(x, _mm512_set1_ps(std::f32::consts::LOG2_E)),
            magic,
        );
        let n = _mm512_sub_ps(zf, magic);
        const C1: f32 = 0.693_359_375;
        const C2: f32 = -2.121_944_4e-4;
        let r = _mm512_sub_ps(
            _mm512_sub_ps(x, _mm512_mul_ps(n, _mm512_set1_ps(C1))),
            _mm512_mul_ps(n, _mm512_set1_ps(C2)),
        );
        let z = _mm512_mul_ps(r, r);
        let mut p = _mm512_set1_ps(1.987_569_2e-4);
        p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(1.398_200_0e-3));
        p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(8.333_452_0e-3));
        p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(4.166_579_6e-2));
        p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(1.666_666_5e-1));
        p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(5.000_000_1e-1));
        let y = _mm512_add_ps(_mm512_add_ps(_mm512_mul_ps(p, z), r), _mm512_set1_ps(1.0));
        let n_i = _mm512_sub_epi32(_mm512_castps_si512(zf), _mm512_set1_epi32(0x4B40_0000));
        let scale = _mm512_castsi512_ps(_mm512_slli_epi32::<23>(_mm512_add_epi32(
            n_i,
            _mm512_set1_epi32(127),
        )));
        _mm512_mul_ps(y, scale)
    }

    /// 16-lane twin of [`super::avx2::feature_map_rows`] over features
    /// `[0, m − m % 16)`, in 32- then 16-feature tiles, two rows per pass;
    /// same per-element chain and epilogue. Returns the number of
    /// features done.
    ///
    /// # Safety
    ///
    /// As [`super::avx2::feature_map_rows`], under the AVX-512F contract.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub(crate) unsafe fn feature_map_rows(
        x: &[f32],
        ld: usize,
        rows: usize,
        dh: usize,
        scale: f32,
        omega_t: &[f32],
        m: usize,
        inv: f32,
        dst: &mut [f32],
    ) -> usize {
        debug_assert!(rows == 0 || x.len() >= (rows - 1) * ld + dh);
        debug_assert!(omega_t.len() >= dh * m && dst.len() >= rows * m);
        let half = |r: usize| crate::infer::half_sq_norm(&x[r * ld..r * ld + dh], scale);
        let m16 = m - m % 16;
        let (xp, op, dp) = (x.as_ptr(), omega_t.as_ptr(), dst.as_mut_ptr());
        let mut i = 0;
        while i < rows {
            let two = i + 2 <= rows;
            let h = [half(i), if two { half(i + 1) } else { 0.0 }];
            let (xr, dr) = (xp.add(i * ld), dp.add(i * m));
            let mut c = 0;
            while c < m16 {
                let wide = c + 32 <= m16;
                let (o, d) = (op.add(c), dr.add(c));
                match (two, wide) {
                    (true, true) => feature_map_tile::<2, 2>(xr, ld, dh, scale, o, m, inv, d, h),
                    (true, false) => feature_map_tile::<1, 2>(xr, ld, dh, scale, o, m, inv, d, h),
                    (false, true) => {
                        feature_map_tile::<2, 1>(xr, ld, dh, scale, o, m, inv, d, [h[0]])
                    }
                    (false, false) => {
                        feature_map_tile::<1, 1>(xr, ld, dh, scale, o, m, inv, d, [h[0]])
                    }
                }
                c += if wide { 32 } else { 16 };
            }
            i += if two { 2 } else { 1 };
        }
        m16
    }

    /// One `R × 16·NV` tile of [`feature_map_rows`].
    ///
    /// # Safety
    ///
    /// As [`feature_map_rows`], for `R` rows and the `16·NV` features
    /// starting at `om` and `dst`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn feature_map_tile<const NV: usize, const R: usize>(
        x: *const f32,
        ld: usize,
        dh: usize,
        scale: f32,
        om: *const f32,
        m: usize,
        inv: f32,
        dst: *mut f32,
        half: [f32; R],
    ) {
        let mut acc = [[_mm512_setzero_ps(); NV]; R];
        let mut p = 0;
        while p + 4 <= dh {
            let mut xs = [[_mm512_setzero_ps(); 4]; R];
            for r in 0..R {
                for q in 0..4 {
                    xs[r][q] = _mm512_set1_ps(*x.add(r * ld + p + q) * scale);
                }
            }
            for v in 0..NV {
                let b0 = _mm512_loadu_ps(om.add(p * m + v * 16));
                let b1 = _mm512_loadu_ps(om.add((p + 1) * m + v * 16));
                let b2 = _mm512_loadu_ps(om.add((p + 2) * m + v * 16));
                let b3 = _mm512_loadu_ps(om.add((p + 3) * m + v * 16));
                for r in 0..R {
                    let t = _mm512_fmadd_ps(xs[r][1], b1, _mm512_fmadd_ps(xs[r][0], b0, acc[r][v]));
                    acc[r][v] = _mm512_fmadd_ps(xs[r][3], b3, _mm512_fmadd_ps(xs[r][2], b2, t));
                }
            }
            p += 4;
        }
        while p < dh {
            for r in 0..R {
                let xv = _mm512_set1_ps(*x.add(r * ld + p) * scale);
                for v in 0..NV {
                    acc[r][v] =
                        _mm512_fmadd_ps(xv, _mm512_loadu_ps(om.add(p * m + v * 16)), acc[r][v]);
                }
            }
            p += 1;
        }
        let eps = _mm512_set1_ps(1e-6);
        let vi = _mm512_set1_ps(inv);
        for r in 0..R {
            let vh = _mm512_set1_ps(half[r]);
            for v in 0..NV {
                let e = fast_exp_v(_mm512_sub_ps(acc[r][v], vh));
                _mm512_storeu_ps(
                    dst.add(r * m + v * 16),
                    _mm512_mul_ps(_mm512_add_ps(e, eps), vi),
                );
            }
        }
    }
}

/// Explicit-backend entry points for the cross-backend parity test
/// matrix and the kernel benchmarks.
///
/// Each function asserts the requested backend is available on this CPU
/// (a parity run must never silently compare a backend against itself)
/// and then runs the exact kernel the inference path would run with that
/// backend active. Production code should use the model/layer APIs,
/// which dispatch on [`Backend::active`] instead.
pub mod ops {
    use super::Backend;
    use crate::tensor::Tensor;

    fn check(backend: Backend) {
        assert!(
            backend.available(),
            "backend {backend} is not available on this CPU"
        );
    }

    /// `out += a · b` for row-major `a (m×k)`, `b (k×n)`, `out (m×n)`
    /// (auto serial/parallel; the parallel banding is bitwise-equal).
    pub fn gemm(
        backend: Backend,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        check(backend);
        assert_eq!(a.len(), m * k, "a length");
        assert_eq!(b.len(), k * n, "b length");
        assert_eq!(out.len(), m * n, "out length");
        crate::tensor::gemm_with(backend, a, b, out, m, k, n);
    }

    /// `out += aᵀ · b` for row-major `a (k×m)`, `b (k×n)`, `out (m×n)`.
    pub fn gemm_atb(
        backend: Backend,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        check(backend);
        assert_eq!(a.len(), k * m, "a length");
        assert_eq!(b.len(), k * n, "b length");
        assert_eq!(out.len(), m * n, "out length");
        crate::tensor::gemm_atb_with(backend, a, b, out, m, k, n);
    }

    /// `out += a · bᵀ` for row-major `a (m×k)`, `b (n×k)`, `out (m×n)`.
    pub fn gemm_abt(
        backend: Backend,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        check(backend);
        assert_eq!(a.len(), m * k, "a length");
        assert_eq!(b.len(), n * k, "b length");
        assert_eq!(out.len(), m * n, "out length");
        crate::tensor::gemm_abt_with(backend, a, b, out, m, k, n);
    }

    /// Eight-lane dot product (same reduction tree on every backend).
    pub fn dot(backend: Backend, x: &[f32], y: &[f32]) -> f32 {
        check(backend);
        assert_eq!(x.len(), y.len(), "dot length mismatch");
        crate::tensor::dot_with(backend, x, y)
    }

    /// Eight-lane sum with the dot kernel's reduction tree.
    pub fn laned_sum(backend: Backend, x: &[f32]) -> f32 {
        check(backend);
        crate::tensor::laned_sum_with(backend, x)
    }

    /// In-place `v = max(v, 0)`.
    pub fn relu_sweep(backend: Backend, xs: &mut [f32]) {
        check(backend);
        crate::infer::relu_sweep_with(backend, xs);
    }

    /// In-place `v = fast_exp(v)`.
    pub fn exp_sweep(backend: Backend, xs: &mut [f32]) {
        check(backend);
        crate::infer::exp_sweep_with(backend, xs);
    }

    /// In-place stable sigmoid.
    pub fn sigmoid_sweep(backend: Backend, xs: &mut [f32]) {
        check(backend);
        crate::infer::sigmoid_sweep_with(backend, xs);
    }

    /// In-place `v *= s`.
    pub fn scale_sweep(backend: Backend, xs: &mut [f32], s: f32) {
        check(backend);
        crate::infer::scale_sweep_with(backend, xs, s);
    }

    /// Row-wise softmax of `scale · x` (`scale` must be positive).
    pub fn softmax_rows(backend: Backend, x: &Tensor, scale: f32) -> Tensor {
        check(backend);
        assert!(scale > 0.0, "softmax scale must be positive");
        crate::infer::softmax_rows_impl(backend, x, scale)
    }

    /// Fused eval-mode batch norm `((x − μ)·invstd)·γ + β`.
    pub fn batch_norm(
        backend: Backend,
        x: &Tensor,
        gamma: &Tensor,
        beta: &Tensor,
        eps: f32,
        mean: &Tensor,
        var: &Tensor,
    ) -> Tensor {
        check(backend);
        crate::infer::batch_norm_eval_with(backend, x, gamma, beta, eps, mean, var)
    }

    /// Fused eval-mode `max(BN(x), 0) + residual`.
    #[allow(clippy::too_many_arguments)]
    pub fn batch_norm_relu_add(
        backend: Backend,
        x: &Tensor,
        gamma: &Tensor,
        beta: &Tensor,
        eps: f32,
        mean: &Tensor,
        var: &Tensor,
        residual: &Tensor,
    ) -> Tensor {
        check(backend);
        crate::infer::batch_norm_eval_relu_add_with(
            backend, x, gamma, beta, eps, mean, var, residual,
        )
    }

    /// Fused eval-mode `BN(a + b)`.
    #[allow(clippy::too_many_arguments)]
    pub fn batch_norm_of_sum(
        backend: Backend,
        a: &Tensor,
        b: &Tensor,
        gamma: &Tensor,
        beta: &Tensor,
        eps: f32,
        mean: &Tensor,
        var: &Tensor,
    ) -> Tensor {
        check(backend);
        crate::infer::batch_norm_eval_of_sum_with(backend, a, b, gamma, beta, eps, mean, var)
    }

    /// Fused gated aggregation: per edge `η = σ(ê)`, scatter-adds
    /// `η ⊙ Bx[src]` into `num[dst]` and `η` into `den[dst]`.
    pub fn gated_scatter(
        backend: Backend,
        e_hat: &Tensor,
        bx: &Tensor,
        src: &[usize],
        dst: &[usize],
        n_out: usize,
    ) -> (Tensor, Tensor) {
        check(backend);
        assert_eq!(e_hat.rows(), src.len(), "one e_hat row per edge");
        assert_eq!(src.len(), dst.len(), "src/dst length mismatch");
        assert!(src.iter().all(|&j| j < bx.rows()), "src index out of range");
        assert!(dst.iter().all(|&j| j < n_out), "dst index out of range");
        crate::infer::gated_scatter_with(backend, e_hat, bx, src, dst, n_out)
    }

    /// Training batch-norm statistics: each column's batch mean and
    /// biased variance (`1 × d` each), summed per column in row order.
    pub fn batch_stats(backend: Backend, x: &Tensor) -> (Tensor, Tensor) {
        check(backend);
        crate::fused::batch_stats_with(backend, x)
    }

    /// Batch-norm backward from the saved `x̂`: `(g_x, g_γ, g_β)` for the
    /// output gradient `g` (`n × d`) and `1 × d` `gamma`/`invstd`.
    pub fn batch_norm_backward(
        backend: Backend,
        g: &Tensor,
        xhat: &Tensor,
        gamma: &Tensor,
        invstd: &Tensor,
    ) -> (Tensor, Tensor, Tensor) {
        check(backend);
        assert_eq!(g.shape(), xhat.shape(), "xhat shape mismatch");
        let src = crate::fused::BnGrad::Saved {
            g: g.as_slice(),
            xhat: xhat.as_slice(),
        };
        bn_backward(backend, src, g.rows(), gamma, invstd)
    }

    /// Forward of the fused `residual + dropout(ReLU(BN(x)))` training
    /// op for given statistics and (optional) `n × d` dropout mask.
    #[allow(clippy::too_many_arguments)]
    pub fn batch_norm_relu_dropout_add(
        backend: Backend,
        x: &Tensor,
        residual: &Tensor,
        mask: Option<&[f32]>,
        mean: &Tensor,
        invstd: &Tensor,
        gamma: &Tensor,
        beta: &Tensor,
    ) -> Tensor {
        check(backend);
        assert!(mask.is_none_or(|m| m.len() == x.len()), "mask length");
        crate::fused::bn_relu_dropout_add_with(
            backend, x, residual, mask, mean, invstd, gamma, beta,
        )
    }

    /// Backward of [`batch_norm_relu_dropout_add`]: `(g_x, g_γ, g_β)`
    /// for the output gradient `g`, recomputing `x̂` from `x`.
    #[allow(clippy::too_many_arguments)]
    pub fn batch_norm_relu_dropout_add_backward(
        backend: Backend,
        g: &Tensor,
        x: &Tensor,
        mask: Option<&[f32]>,
        mean: &Tensor,
        invstd: &Tensor,
        gamma: &Tensor,
        beta: &Tensor,
    ) -> (Tensor, Tensor, Tensor) {
        check(backend);
        assert_eq!(g.shape(), x.shape(), "x shape mismatch");
        assert!(mask.is_none_or(|m| m.len() == x.len()), "mask length");
        let src = crate::fused::BnGrad::Fused {
            g: g.as_slice(),
            x: x.as_slice(),
            mask,
            mean: mean.as_slice(),
            beta: beta.as_slice(),
        };
        bn_backward(backend, src, g.rows(), gamma, invstd)
    }

    fn bn_backward(
        backend: Backend,
        src: crate::fused::BnGrad<'_>,
        n: usize,
        gamma: &Tensor,
        invstd: &Tensor,
    ) -> (Tensor, Tensor, Tensor) {
        let d = gamma.len();
        assert_eq!(invstd.len(), d, "invstd length");
        let (gx, dg, db) =
            crate::fused::bn_backward_with(backend, src, gamma.as_slice(), invstd.as_slice(), n);
        (
            Tensor::from_vec(n, d, gx),
            Tensor::from_vec(1, d, dg),
            Tensor::from_vec(1, d, db),
        )
    }

    /// Backward of the GatedGCN gated aggregation: `(g_ê, g_bx)` from
    /// the gradient `g` of `agg = num / den` and the forward's `agg` and
    /// `den` (`den` already includes ε).
    #[allow(clippy::too_many_arguments)]
    pub fn gated_aggregate_backward(
        backend: Backend,
        g: &Tensor,
        agg: &Tensor,
        den: &Tensor,
        e_hat: &Tensor,
        bx: &Tensor,
        src: &[usize],
        dst: &[usize],
    ) -> (Tensor, Tensor) {
        check(backend);
        assert_eq!(g.shape(), agg.shape(), "agg shape mismatch");
        assert_eq!(g.shape(), den.shape(), "den shape mismatch");
        assert_eq!(e_hat.rows(), src.len(), "one e_hat row per edge");
        assert_eq!(src.len(), dst.len(), "src/dst length mismatch");
        assert!(src.iter().all(|&j| j < bx.rows()), "src index out of range");
        assert!(dst.iter().all(|&j| j < g.rows()), "dst index out of range");
        crate::fused::gated_aggregate_backward(backend, g, agg, den, e_hat, bx, src, dst)
    }

    /// Fused `x̂ = ax + num / (den + ε)`, consuming `ax`.
    pub fn add_div(backend: Backend, ax: Tensor, num: &Tensor, den: &Tensor, eps: f32) -> Tensor {
        check(backend);
        assert_eq!(ax.shape(), num.shape(), "num shape mismatch");
        assert_eq!(ax.shape(), den.shape(), "den shape mismatch");
        crate::infer::add_div_inplace_with(backend, ax, num, den, eps)
    }

    /// Fused block-diagonal Performer attention forward over a packed
    /// `N × 3·heads·head_dim` QKV matrix: the concatenated head outputs
    /// plus, when `save` is set, the per-head feature maps `(φ_q, φ_k)`.
    #[allow(clippy::too_many_arguments)]
    pub fn performer_block_diag(
        backend: Backend,
        qkv: &Tensor,
        proj: &Tensor,
        blocks: &[(usize, usize)],
        heads: usize,
        head_dim: usize,
        features: usize,
        save: bool,
    ) -> (Tensor, Vec<Tensor>, Vec<Tensor>) {
        check(backend);
        crate::infer::performer_block_diag_with(
            backend, qkv, proj, blocks, heads, head_dim, features, save,
        )
    }

    /// Performer feature map `φ(x̂) = (exp(x̂Ωᵀ − ‖x̂‖²/2) + ε)/√m` over a
    /// pre-scaled input.
    pub fn performer_feature_map(
        backend: Backend,
        xs: &Tensor,
        omega_t: &Tensor,
        features: usize,
    ) -> Tensor {
        check(backend);
        assert_eq!(xs.cols(), omega_t.rows(), "projection shape mismatch");
        crate::infer::performer_feature_map_with(backend, xs, omega_t, features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_names() {
        for b in Backend::ALL {
            assert_eq!(Backend::parse(b.name()).unwrap(), b);
        }
        assert!(Backend::parse("neon").is_err());
    }

    #[test]
    fn detect_is_available_and_scalar_always_is() {
        assert!(Backend::detect().available());
        assert!(Backend::Scalar.available());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_fast_exp_matches_the_scalar_function_bitwise() {
        use std::arch::x86_64::*;
        if !Backend::Avx512.available() {
            return;
        }
        let mut xs: Vec<f32> = (-9000..=9000).map(|i| i as f32 * 0.0113).collect();
        xs.extend([
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            88.5,
            -87.5,
            1e-40,
            -1e-40,
            f32::MAX,
            f32::MIN,
        ]);
        xs.resize(xs.len().next_multiple_of(16), 0.5);
        for chunk in xs.chunks_exact(16) {
            let mut got = [0.0f32; 16];
            // SAFETY: AVX-512F was probed above; both buffers hold 16 floats.
            unsafe {
                let v = avx512::fast_exp_v(_mm512_loadu_ps(chunk.as_ptr()));
                _mm512_storeu_ps(got.as_mut_ptr(), v);
            }
            for (&x, g) in chunk.iter().zip(got) {
                let want = crate::tensor::fast_exp(x);
                assert_eq!(g.to_bits(), want.to_bits(), "x = {x}: {g} vs {want}");
            }
        }
    }

    #[test]
    fn active_is_stable_and_honors_env() {
        let a = Backend::active();
        assert_eq!(a, Backend::active());
        if let Ok(name) = std::env::var("CIRGPS_FORCE_BACKEND") {
            if !name.is_empty() {
                assert_eq!(a, Backend::parse(&name).unwrap());
            }
        }
        assert!(a.available());
    }
}
