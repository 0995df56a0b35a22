//! Attention-only microbench: forward+backward of the fused
//! block-diagonal attention ops over one packed sub-batch (8 blocks of
//! 96 nodes), the fused Performer backward alone per SIMD backend at the
//! training pack shape, plus tape-free MHA and Performer inference,
//! isolated from the rest of the GPS layer. Regressions here are visible
//! without the MPNN/MLP costs averaged in.

use std::sync::Arc;

use cirgps_nn::simd::ops;
use cirgps_nn::{
    Backend, GradStore, MultiHeadAttention, ParamStore, PerformerAttention, Tape, Tensor,
};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::{Rng, SeedableRng};

fn bench_attention(c: &mut Criterion) {
    const BLOCK_N: usize = 96;
    const BLOCKS: usize = 8;
    const DIM: usize = 32;
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut store = ParamStore::new();
    let mha = MultiHeadAttention::new(&mut store, "mha", DIM, 4, &mut rng);
    let perf = PerformerAttention::new(&mut store, "perf", DIM, 4, 32, &mut rng);
    let n = BLOCK_N * BLOCKS;
    let x = Tensor::from_vec(
        n,
        DIM,
        (0..n * DIM).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    );
    let blocks: Arc<Vec<(usize, usize)>> =
        Arc::new((0..BLOCKS).map(|b| (b * BLOCK_N, BLOCK_N)).collect());
    let targets = vec![0.1f32; n * DIM];

    let mut group = c.benchmark_group("attention_micro");
    group.bench_function("mha_block_diag_fwd_bwd/pack8x96", |b| {
        b.iter(|| {
            let mut grads = GradStore::new(&store);
            let mut tape = Tape::new(&store, true, 0);
            let xv = tape.input(x.clone());
            let y = mha.forward_blocks(&mut tape, xv, blocks.clone());
            let loss = tape.mse_loss(y, &targets);
            tape.backward(loss, &mut grads);
            std::hint::black_box(&grads);
        })
    });
    group.bench_function("performer_block_diag_fwd_bwd/pack8x96", |b| {
        b.iter(|| {
            let mut grads = GradStore::new(&store);
            let mut tape = Tape::new(&store, true, 0);
            let xv = tape.input(x.clone());
            let y = perf.forward_blocks(&mut tape, xv, blocks.clone());
            let loss = tape.mse_loss(y, &targets);
            tape.backward(loss, &mut grads);
            std::hint::black_box(&grads);
        })
    });
    // The fused Performer backward alone on every backend this CPU runs
    // (scalar included), at `train_ssram`'s pack shape: 32 blocks of
    // about 51 rows (40–64), 4 heads × 8, 32 features.
    let spans: Vec<(usize, usize)> = (0..32)
        .scan(0, |r0, b| {
            let len = 40 + (b * 7) % 25;
            *r0 += len;
            Some((*r0 - len, len))
        })
        .collect();
    let rows = spans.last().map_or(0, |&(r0, len)| r0 + len);
    let mut random = |r: usize, c: usize| {
        Tensor::from_vec(r, c, (0..r * c).map(|_| rng.gen_range(-1.0..1.0)).collect())
    };
    let (qkv, proj, g) = (
        random(rows, 3 * DIM),
        random(4 * 32, DIM / 4),
        random(rows, DIM),
    );
    let (y, phi_q, phi_k) =
        ops::performer_block_diag(Backend::active(), &qkv, &proj, &spans, 4, DIM / 4, 32, true);
    for backend in Backend::ALL.into_iter().filter(|b| b.available()) {
        let name = format!("performer_block_diag_bwd/{backend}/pack32x51");
        group.bench_function(name, |b| {
            b.iter(|| {
                ops::performer_block_diag_backward(
                    backend,
                    &qkv,
                    &proj,
                    &spans,
                    4,
                    DIM / 4,
                    32,
                    &y,
                    &g,
                    &phi_q,
                    &phi_k,
                )
                .recycle()
            })
        });
    }
    group.bench_function("mha_infer_blocks/pack8x96", |b| {
        b.iter(|| std::hint::black_box(mha.infer_blocks(&store, &x, &blocks)).recycle())
    });
    // Tape-free Performer inference on the served shapes: one 523-node
    // hub-net window (`sweep_array`), eight 27-node 2-hop ground
    // subgraphs and eight 7-node link pairs (`predict_mix`).
    for (name, len, count) in [("one523", 523, 1), ("pack8x27", 27, 8), ("pack8x7", 7, 8)] {
        let rows = len * count;
        let xs = Tensor::from_vec(
            rows,
            DIM,
            (0..rows * DIM).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        );
        let spans: Vec<(usize, usize)> = (0..count).map(|b| (b * len, len)).collect();
        group.bench_function(format!("performer_infer_blocks/{name}"), |b| {
            b.iter(|| std::hint::black_box(perf.infer_blocks(&store, &xs, &spans)).recycle())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_attention);
criterion_main!(benches);
