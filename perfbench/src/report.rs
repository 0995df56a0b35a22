//! Metric names, units and the result line.
//!
//! The two tables below are the benchmark's contract with
//! `BENCHMARK.json`: an untraced run prints every [`END_TO_END`] metric
//! and a traced run every [`PER_LAYER`] metric, on every workload. A
//! per-layer metric of a layer the workload does not use reads 0.

use std::collections::BTreeMap;

use crate::trace::Tracer;

/// End-to-end metrics `(name, unit)`, measured with tracing off.
///
/// `items_per_s` counts the workload's unit of work: swept pairs
/// (`sweep_array`), answered queries (`predict_mix`, `serve_mix`) or
/// trained samples (`train_ssram`). `p50_ms`/`p99_ms` are over the
/// workload's operations: requests or training epochs; on `sweep_array`
/// `p50_ms` is over whole sweeps and `p99_ms` over sweep windows.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)` from the traced run. Times are ms
/// per workload operation (per request, per full sweep, per training
/// step; per set-up round for the set-up layers), counts likewise.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.parse_ms", "ms"),
    ("netlist.devices", "count"),
    ("graph.build_ms", "ms"),
    ("graph.nodes", "count"),
    ("graph.edges", "count"),
    ("checkpoint.load_ms", "ms"),
    ("sweep.enumerate_ms", "ms"),
    ("sweep.pairs", "count"),
    ("sweep.unique_forwards", "count"),
    ("sweep.dedup_hit_ratio", "ratio"),
    ("sweep.peak_resident", "count"),
    ("sample.extract_calls", "count"),
    ("sample.extract_ms", "ms"),
    ("sample.sub_nodes_mean", "count"),
    ("sample.sub_edges_mean", "count"),
    ("sample.sub_nodes_max", "count"),
    ("pe.calls", "count"),
    ("pe.prepare_ms", "ms"),
    ("infer.calls", "count"),
    ("infer.samples_per_call", "count"),
    ("infer.forward_ms", "ms"),
    ("infer.us_per_sample", "us"),
    ("infer.gflop_per_s", "GFLOP/s"),
    ("infer.cache_hit_ratio", "ratio"),
    ("nn.encoder_ms", "ms"),
    ("nn.mpnn_ms", "ms"),
    ("nn.attn_ms", "ms"),
    ("nn.mlp_bn_ms", "ms"),
    ("nn.head_ms", "ms"),
    ("nn.mpnn_gflop_per_s", "GFLOP/s"),
    ("nn.attn_gflop_per_s", "GFLOP/s"),
    ("nn.mlp_bn_gflop_per_s", "GFLOP/s"),
    ("nn.head_gflop_per_s", "GFLOP/s"),
    ("serve.requests", "count"),
    ("serve.batches", "count"),
    ("serve.batch_occupancy", "count"),
    ("serve.engine_ms", "ms"),
    ("serve.batch_wait_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("train.steps", "count"),
    ("train.sub_batches", "count"),
    ("tape.forward_ms", "ms"),
    ("tape.backward_ms", "ms"),
    ("optim.step_ms", "ms"),
    ("dataset.build_ms", "ms"),
    ("dataset.prepare_ms", "ms"),
    ("dataset.sub_nodes_mean", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

/// What one run did and measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (sweeps and parity probes, requests, or
    /// trainings).
    pub attempted: u64,
    /// Operations whose output was wrong or missing.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result (sample counts,
    /// digests).
    pub notes: Vec<String>,
    /// Spans of a traced run.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a note line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Completes the metric set for the result line: records peak RSS,
    /// fills per-layer metrics the workload does not touch with 0, and
    /// counts a non-finite or missing end-to-end value as a failure.
    pub fn finish(&mut self, trace: bool) {
        self.set("peak_rss_mb", crate::stats::peak_rss_mb());
        let table = if trace { PER_LAYER } else { END_TO_END };
        for &(name, _) in table {
            let v = self
                .metrics
                .entry(name)
                .or_insert(if trace { 0.0 } else { f64::NAN });
            if !v.is_finite() {
                *v = 0.0;
                self.failed += 1;
            }
        }
    }

    /// Scales the end-to-end timings to a host `speed` times slower than
    /// the nominal one (see [`crate::probe`]) and notes the measured
    /// values. Set-up is CPU work on every workload; `serve_mix`'s
    /// request time is mostly a wait on the delayed-ACK timer, which the
    /// host's speed does not change, so its request metrics stay as
    /// measured.
    pub fn scale_to_host(&mut self, workload: crate::Workload, speed: f64) {
        let mut scaled = vec![("setup_s", -1)];
        if workload != crate::Workload::ServeMix {
            scaled.extend([("items_per_s", 1), ("p50_ms", -1), ("p99_ms", -1)]);
        }
        let mut measured = Vec::new();
        for (name, power) in scaled {
            if let Some(v) = self.metrics.get_mut(name) {
                measured.push(format!("{name} {v:.6}"));
                *v *= speed.powi(power);
            }
        }
        self.note(format!(
            "as measured, before scaling to the nominal host: {}",
            measured.join(", ")
        ));
    }

    /// Whether every attempted operation succeeded.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and the metrics of `table` with their units.
    pub fn json_line(&self, trace: bool) -> String {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                format!("\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;

    fn timed() -> Outcome {
        let mut out = Outcome::default();
        for (name, v) in [
            ("setup_s", 2.0),
            ("items_per_s", 100.0),
            ("p50_ms", 4.0),
            ("p99_ms", 8.0),
            ("peak_rss_mb", 50.0),
        ] {
            out.set(name, v);
        }
        out
    }

    #[test]
    fn a_slow_host_scales_timings_but_not_memory() {
        let mut out = timed();
        out.scale_to_host(Workload::PredictMix, 2.0);
        let m = &out.metrics;
        assert_eq!(
            [
                m["setup_s"],
                m["items_per_s"],
                m["p50_ms"],
                m["p99_ms"],
                m["peak_rss_mb"]
            ],
            [1.0, 200.0, 2.0, 4.0, 50.0]
        );
    }

    #[test]
    fn serve_mix_scales_only_its_set_up() {
        let mut out = timed();
        out.scale_to_host(Workload::ServeMix, 2.0);
        let m = &out.metrics;
        assert_eq!(
            [m["setup_s"], m["items_per_s"], m["p50_ms"], m["p99_ms"]],
            [1.0, 100.0, 4.0, 8.0]
        );
    }
}
