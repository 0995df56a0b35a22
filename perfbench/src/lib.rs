//! End-to-end and per-layer benchmark of the CirGPS reproduction.
//!
//! Four workloads drive the library's public entry points on seeded
//! inputs (see `README.md` in this directory for why each was chosen):
//!
//! * `sweep_array` — `sweep_pairs` over every candidate pair of
//!   ARRAY_128_32;
//! * `predict_mix` — `InferenceSession::predict_batch` on mixed-task
//!   8-query requests over TIMING_CONTROL;
//! * `serve_mix` — the same requests as `POST /v1/predict` to an
//!   in-process `Server`;
//! * `train_ssram` — `pretrain_link` on the SSRAM link dataset, pinned to
//!   one core.
//!
//! [`gen`] builds the inputs from a seed; the workload modules run them
//! and check every output; [`probe`] times the host's speed, to which an
//! untraced run scales its CPU-bound timings. With tracing on, each workload replays its
//! pipeline through the layers' public calls under in-memory spans and
//! reports per-layer metrics instead.

pub mod gen;
mod predict;
pub mod probe;
mod replay;
pub mod report;
mod serve;
mod setup;
pub mod stats;
mod sweep;
mod trace;
mod train;

use std::time::Duration;

pub use gen::Inputs;
pub use report::Outcome;

/// The benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full candidate-pair sweep of ARRAY_128_32.
    SweepArray,
    /// Mixed-task requests through `InferenceSession::predict_batch`.
    PredictMix,
    /// The same requests through the HTTP daemon.
    ServeMix,
    /// Link pre-training on SSRAM, one core.
    TrainSsram,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SweepArray,
        Workload::PredictMix,
        Workload::ServeMix,
        Workload::TrainSsram,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepArray => "sweep_array",
            Workload::PredictMix => "predict_mix",
            Workload::ServeMix => "serve_mix",
            Workload::TrainSsram => "train_ssram",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one benchmark run is sized and what it reports.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed for the model weights, query order and parasitic labels.
    pub seed: u64,
    /// Length of the timed window.
    pub measure: Duration,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Minimal sizes, for the benchmark's own tests.
    pub smoke: bool,
    /// Flip one bit of the first checked output, to prove that the
    /// checks count a wrong output as a failed operation.
    pub flip_output_bit: bool,
}

impl Config {
    /// A full-size, untraced run.
    pub fn new(workload: Workload, seed: u64, measure: Duration) -> Config {
        Config {
            workload,
            seed,
            measure,
            trace: false,
            smoke: false,
            flip_output_bit: false,
        }
    }

    /// How many times set-up runs; `setup_s` is the median.
    pub fn setup_repeats(&self) -> usize {
        if self.smoke {
            2
        } else {
            match self.workload {
                Workload::TrainSsram => 15,
                _ => 401,
            }
        }
    }
}

/// Runs `cfg.workload` on `inputs` and returns its metrics and counts.
///
/// # Errors
///
/// Returns a message when the inputs cannot be set up at all (bad text,
/// bad checkpoint, no loopback socket); a wrong output is not an error
/// but a failed operation in the outcome.
pub fn run(cfg: &Config, inputs: &Inputs) -> Result<Outcome, String> {
    let mut outcome = match cfg.workload {
        Workload::SweepArray => sweep::run(cfg, inputs)?,
        Workload::PredictMix => predict::run(cfg, inputs)?,
        Workload::ServeMix => serve::run(cfg, inputs)?,
        Workload::TrainSsram => train::run(cfg, inputs)?,
    };
    outcome.finish(cfg.trace);
    Ok(outcome)
}
