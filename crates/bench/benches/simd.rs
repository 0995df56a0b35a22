//! Per-backend SIMD microkernels. The measurement bodies live in
//! `cirgps_bench::perf` so `bench_json` can snapshot them too.

use criterion::{criterion_group, criterion_main};

criterion_group!(benches, cirgps_bench::perf::simd_kernels_suite);
criterion_main!(benches);
