//! Grammar-enumerator throughput driver: how fast the composition
//! grammar turns into training data. `enumerate_terms` measures pure
//! enumeration (designs/sec over the default CLI window); the
//! `build_extract` tiers measure one design's full build + parasitic
//! extraction at three device-count scales, so nodes/sec is
//! `devices / ns_per_iter` and regressions in either the builder or the
//! extractor's spatial scans show up at the tier where they bite.

use ams_datagen::enumerate::{build_term, enumerate_terms, term_extract_seed};
use ams_datagen::{extract_parasitics, ExtractConfig};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_datagen(c: &mut Criterion) {
    let mut group = c.benchmark_group("datagen_enumerate");

    group.bench_function("enumerate_terms/4000", |b| {
        b.iter(|| std::hint::black_box(enumerate_terms(None, 0, 4000).len()))
    });

    for (label, lo, hi) in [
        ("1k", 900u64, 1_100),
        ("10k", 9_000, 11_000),
        ("100k", 90_000, 120_000),
    ] {
        let terms = enumerate_terms(None, lo, hi);
        let term = terms
            .first()
            .unwrap_or_else(|| panic!("no terms in window [{lo}, {hi}]"))
            .clone();
        let cfg = ExtractConfig {
            seed: term_extract_seed(7, &term),
            ..ExtractConfig::default()
        };
        group.bench_function(format!("build_extract/{label}"), |b| {
            b.iter(|| {
                let d = build_term(&term, 7).expect("enumerated term must build");
                let spf = extract_parasitics(&d, &cfg);
                std::hint::black_box((d.netlist.num_devices(), spf.len()))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_datagen);
criterion_main!(benches);
