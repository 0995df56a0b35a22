//! Per-backend microkernel sweep: the hot GEMM widths, the backward
//! `a·bᵀ`/`aᵀ·b` GEMMs at the training shapes and the elementwise
//! sweeps, each timed on every backend this CPU can execute (scalar
//! always, AVX2/AVX-512 where the feature probes pass). Bench ids carry the backend (`gemm_n32/avx2`), so the
//! output shows the dispatch win directly and a regression in either
//! path is attributable.

use cirgps_nn::simd::ops;
use cirgps_nn::{Backend, Tensor};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_simd(c: &mut Criterion) {
    const M: usize = 64;
    const K: usize = 128;
    let fill = |len: usize, seed: u64| -> Vec<f32> {
        (0..len)
            .map(|i| ((i as u64).wrapping_mul(seed * 2 + 1) % 97) as f32 * 0.04 - 1.9)
            .collect()
    };
    let backends: Vec<Backend> = Backend::ALL
        .iter()
        .copied()
        .filter(|b| b.available())
        .collect();

    let mut group = c.benchmark_group("simd_kernels");
    for &backend in &backends {
        for n in [8usize, 32, 64] {
            let a = fill(M * K, 7);
            let b_mat = fill(K * n, 11);
            group.bench_function(format!("gemm_n{n}/{backend}"), |b| {
                let mut out = vec![0.0f32; M * n];
                b.iter(|| {
                    out.iter_mut().for_each(|v| *v = 0.0);
                    ops::gemm(backend, &a, &b_mat, &mut out, M, K, n);
                    std::hint::black_box(&out);
                })
            });
        }
        // The taped backward's two GEMMs at the edge-linear shape
        // (E×32 by 32×32) and the packed-QKV shape (1600×96 by 96×32):
        // input gradients `g·Wᵀ` and weight gradients `xᵀ·g`.
        for (rows, d_out, d_in) in [(17_000usize, 32usize, 32usize), (1600, 96, 32)] {
            let g = fill(rows * d_out, 19);
            let w = fill(d_in * d_out, 23);
            let x = fill(rows * d_in, 29);
            group.bench_function(format!("gemm_abt_{rows}x{d_out}x{d_in}/{backend}"), |b| {
                let mut out = vec![0.0f32; rows * d_in];
                b.iter(|| {
                    out.iter_mut().for_each(|v| *v = 0.0);
                    ops::gemm_abt(backend, &g, &w, &mut out, rows, d_out, d_in);
                    std::hint::black_box(&out);
                })
            });
            group.bench_function(format!("gemm_atb_{d_in}x{rows}x{d_out}/{backend}"), |b| {
                let mut out = vec![0.0f32; d_in * d_out];
                b.iter(|| {
                    out.iter_mut().for_each(|v| *v = 0.0);
                    ops::gemm_atb(backend, &x, &g, &mut out, d_in, rows, d_out);
                    std::hint::black_box(&out);
                })
            });
        }
        let xs = fill(4096, 13);
        group.bench_function(format!("sigmoid_sweep_4k/{backend}"), |b| {
            let mut buf = xs.clone();
            b.iter(|| {
                buf.copy_from_slice(&xs);
                ops::sigmoid_sweep(backend, &mut buf);
                std::hint::black_box(&buf);
            })
        });
        let x = Tensor::from_vec(256, 64, fill(256 * 64, 17));
        group.bench_function(format!("softmax_rows_256x64/{backend}"), |b| {
            b.iter(|| std::hint::black_box(ops::softmax_rows(backend, &x, 0.125)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_simd);
criterion_main!(benches);
