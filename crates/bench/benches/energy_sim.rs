//! Fig. 4 driver: switch-level simulation throughput (settle iterations
//! and full energy runs on a test design).

use ams_datagen::{DesignKind, SizePreset};
use cirgps_bench::DesignData;
use criterion::{criterion_group, criterion_main, Criterion};
use mini_spice::{net_capacitances, simulate_energy, SwitchSim};

fn bench_energy(c: &mut Criterion) {
    let d = DesignData::load(DesignKind::TimingControl, SizePreset::Tiny, 7);
    let caps = net_capacitances(&d.design.netlist, &d.spf);

    let mut group = c.benchmark_group("fig4_energy_sim");
    group.bench_function("settle_once", |b| {
        let mut sim = SwitchSim::new(&d.design.netlist);
        b.iter(|| std::hint::black_box(sim.settle()))
    });
    group.bench_function("energy_16_vectors", |b| {
        b.iter(|| std::hint::black_box(simulate_energy(&d.design.netlist, &caps, 0.9, 16, 3)))
    });
    group.finish();
}

criterion_group!(benches, bench_energy);
criterion_main!(benches);
