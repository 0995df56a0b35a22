//! Tables III/VII "Time" column driver: forward+backward cost of one
//! training step for each GPS-layer configuration, at sub-batch sizes
//! 1/4/8 (one packed tape per sub-batch — the training loop's unit of
//! work). The size-8 rows carry no `/bs8` suffix.

use ams_datagen::{DesignKind, SizePreset};
use circuitgps::{prepare_link_dataset, CircuitGps, ModelConfig, PreparedSample};
use cirgps_bench::{default_model, layer_ablation_configs, DesignData};
use cirgps_nn::{GradStore, Tape};
use criterion::{criterion_group, criterion_main, Criterion};
use graph_pe::PeKind;
use subgraph_sample::{CapNormalizer, DatasetConfig, XcNormalizer};

fn bench_layer_step(c: &mut Criterion) {
    let d = DesignData::load(DesignKind::DigitalClkGen, SizePreset::Tiny, 7);
    let ds = d.link_dataset(&DatasetConfig {
        max_per_type: 30,
        ..Default::default()
    });
    let xcn = XcNormalizer::fit(&[&d.graph]);
    let cap = CapNormalizer::paper_range();
    let samples = prepare_link_dataset(&ds, PeKind::Dspd, &xcn, |v| cap.encode(v));

    let mut group = c.benchmark_group("table3_layer_step");
    for (mpnn_name, attn_name, mpnn, attn) in layer_ablation_configs() {
        let cfg = ModelConfig {
            mpnn,
            attn,
            ..default_model(PeKind::Dspd, 7)
        };
        let model = CircuitGps::new(cfg);
        for bs in [1usize, 4, 8] {
            let batch: Vec<&PreparedSample> = samples.iter().take(bs).collect();
            let label = if bs == 8 {
                format!("{mpnn_name}+{attn_name}")
            } else {
                format!("{mpnn_name}+{attn_name}/bs{bs}")
            };
            group.bench_function(label, |b| {
                b.iter(|| {
                    let mut grads = GradStore::new(model.store());
                    let mut tape = Tape::new(model.store(), true, 0);
                    let loss = model.loss_link_batch(&mut tape, &batch);
                    tape.backward(loss, &mut grads);
                    std::hint::black_box(&grads);
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_layer_step);
criterion_main!(benches);
