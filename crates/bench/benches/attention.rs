//! Attention-only microbench: forward+backward of the fused
//! block-diagonal attention ops over one packed sub-batch (8 blocks of
//! 96 nodes), isolated from the rest of the GPS layer. This is the op
//! the block-diagonal rewrite targets, so regressions here are visible
//! without the MPNN/MLP costs averaged in.

use std::sync::Arc;

use cirgps_nn::{GradStore, MultiHeadAttention, ParamStore, PerformerAttention, Tape, Tensor};
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
    group.bench_function("mha_infer_blocks/pack8x96", |b| {
        b.iter(|| std::hint::black_box(mha.infer_blocks(&store, &x, &blocks)).recycle())
    });
    group.finish();
}

criterion_group!(benches, bench_attention);
criterion_main!(benches);
