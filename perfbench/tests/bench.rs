//! The benchmark's own checks: every workload runs at minimal size in
//! both modes, prints every named metric with its unit, counts a flipped
//! output bit as a failure, and gets byte-identical inputs per seed.

use std::time::Duration;

use cirgps_serve::json::Json;
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::{gen, Config, Inputs, Outcome, Workload};

fn smoke(w: Workload, trace: bool, flip: bool) -> (Inputs, Outcome) {
    let inputs = gen::generate(w, 7, true).expect("smoke inputs");
    let cfg = Config {
        trace,
        smoke: true,
        flip_output_bit: flip,
        ..Config::new(w, 7, Duration::from_millis(200))
    };
    let outcome = perfbench::run(&cfg, &inputs).expect("smoke run");
    (inputs, outcome)
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// The metrics of a result line as `(name, unit, value)`.
fn printed(line: &str) -> (Json, Vec<(String, String, f64)>) {
    let doc = Json::parse(line).expect("result line is JSON");
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("no metrics object in {line}");
    };
    let rows = metrics
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            let value = m.get("value").and_then(Json::as_f64).expect("value");
            (name.clone(), unit.to_string(), value)
        })
        .collect();
    (doc, rows)
}

#[test]
fn smoke_runs_every_workload_and_prints_every_named_metric() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    let pairs = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter().map(|&(n, u)| (n.into(), u.into())).collect()
    };
    assert_eq!(
        e2e,
        pairs(END_TO_END),
        "end_to_end drifted from report::END_TO_END"
    );
    assert_eq!(
        layers,
        pairs(PER_LAYER),
        "per_layer drifted from report::PER_LAYER"
    );

    for w in Workload::ALL {
        for trace in [false, true] {
            let (_, out) = smoke(w, trace, false);
            let line = out.json_line(trace);
            assert!(out.correct(), "{} trace={trace}: {line}", w.name());
            let (doc, rows) = printed(&line);
            assert_eq!(
                doc.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{line}"
            );
            assert!(doc.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);
            let mut want = if trace { layers.clone() } else { e2e.clone() };
            want.sort();
            let mut got: Vec<(String, String)> = rows
                .iter()
                .map(|(n, u, _)| (n.clone(), u.clone()))
                .collect();
            got.sort();
            assert_eq!(got, want, "{} trace={trace}", w.name());
            if !trace {
                for (name, _, value) in &rows {
                    assert!(*value > 0.0, "{} {name} = {value}", w.name());
                }
            }
        }
    }
}

#[test]
fn a_flipped_output_bit_counts_as_a_failure() {
    for w in Workload::ALL {
        let (_, out) = smoke(w, false, true);
        assert!(out.failed >= 1, "{}: {}", w.name(), out.json_line(false));
        assert!(!out.correct());
    }
}

#[test]
fn the_generator_is_deterministic_per_seed() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-gen");
    for w in Workload::ALL {
        let a = gen::generate(w, 5, true).expect("inputs");
        let b = gen::generate(w, 5, true).expect("inputs");
        assert_eq!(a, b, "{}", w.name());
        assert_eq!(a.digest(), b.digest());
        let c = gen::generate(w, 6, true).expect("inputs");
        assert_ne!(
            a.checkpoint,
            c.checkpoint,
            "{}: the seed picks the weights",
            w.name()
        );
        if w == Workload::TrainSsram {
            assert_eq!(a.spf, c.spf, "train_ssram keeps one set of labels");
        } else {
            assert_ne!(a.spf, c.spf, "{}: the seed picks the labels", w.name());
        }
        if !a.requests.is_empty() {
            assert_ne!(
                a.requests,
                c.requests,
                "{}: the seed picks the order",
                w.name()
            );
        }
        let sub = dir.join(w.name());
        a.write_dir(&sub).expect("write inputs");
        assert_eq!(Inputs::read_dir(&sub).expect("read inputs"), a);
    }
}

#[test]
fn requests_never_repeat_a_cache_key() {
    let inputs = gen::generate(Workload::PredictMix, 3, false).expect("inputs");
    let mut keys = std::collections::HashSet::new();
    for r in &inputs.requests {
        assert_eq!(r.keys.len(), gen::REQUEST_QUERIES);
        for &k in &r.keys {
            assert!(keys.insert(k), "key {k:?} repeats");
        }
    }
    assert!(inputs.requests.len() >= 1000, "{}", inputs.requests.len());
}
