//! Table II "Time/G" column: per-subgraph positional-encoding cost for
//! every PE variant, measured on real sampled subgraphs.

use ams_datagen::{DesignKind, SizePreset};
use cirgps_bench::DesignData;
use criterion::{criterion_group, criterion_main, Criterion};
use graph_pe::{compute_pe, PeKind};
use subgraph_sample::DatasetConfig;

fn bench_pe(c: &mut Criterion) {
    let d = DesignData::load(DesignKind::DigitalClkGen, SizePreset::Tiny, 7);
    let ds = d.link_dataset(&DatasetConfig {
        max_per_type: 40,
        ..Default::default()
    });
    let subs: Vec<_> = ds
        .samples
        .iter()
        .map(|s| s.subgraph.clone())
        .take(32)
        .collect();
    assert!(!subs.is_empty());

    let mut group = c.benchmark_group("table2_pe_time_per_graph");
    for pe in PeKind::TABLE2 {
        group.bench_function(pe.paper_name(), |b| {
            b.iter(|| {
                for s in &subs {
                    std::hint::black_box(compute_pe(s, pe));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pe);
criterion_main!(benches);
