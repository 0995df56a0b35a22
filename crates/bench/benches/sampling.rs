//! Table IV driver: enclosing-subgraph sampling throughput, 64 anchors
//! per iteration as 1-hop pair and 2-hop node queries. No perfbench
//! workload isolates sampling, so a sampler regression shows here.

use ams_datagen::{DesignKind, SizePreset};
use cirgps_bench::DesignData;
use criterion::{criterion_group, criterion_main, Criterion};
use subgraph_sample::{SamplerConfig, SubgraphSampler};

fn bench_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("table4_subgraph_sampling");
    for kind in [DesignKind::TimingControl, DesignKind::Array128x32] {
        let d = DesignData::load(kind, SizePreset::Tiny, 7);
        // Pick pin/net pairs spread over the graph.
        let n = d.graph.num_nodes() as u32;
        let pairs: Vec<(u32, u32)> = (0..64)
            .map(|i| ((i * 37) % n, (i * 61 + 13) % n))
            .filter(|(a, b)| a != b)
            .collect();
        let sampler = |hops| {
            SubgraphSampler::new(
                &d.graph,
                SamplerConfig {
                    hops,
                    max_nodes: 2048,
                },
            )
        };
        let mut one_hop = sampler(1);
        group.bench_function(format!("one_hop_pairs/{}", kind.paper_name()), |b| {
            b.iter(|| {
                for &(x, y) in &pairs {
                    std::hint::black_box(one_hop.enclosing_subgraph(x, y));
                }
            })
        });
        let mut two_hop = sampler(2);
        group.bench_function(format!("two_hop_nodes/{}", kind.paper_name()), |b| {
            b.iter(|| {
                for &(x, _) in &pairs {
                    std::hint::black_box(two_hop.node_subgraph(x));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sampling);
criterion_main!(benches);
