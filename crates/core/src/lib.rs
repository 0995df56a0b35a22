//! # circuitgps
//!
//! The paper's primary contribution: a few-shot graph-learning framework
//! for parasitic-capacitance prediction on AMS circuits. A hybrid
//! GraphGPS-style model (GatedGCN message passing in parallel with global
//! attention) consumes SEAL-style enclosing subgraphs with the paper's
//! DSPD positional encoding, is pre-trained on coupling link prediction,
//! and is fine-tuned (head-only or fully) for capacitance regression —
//! plus node-level ground-capacitance regression as an extension.
//!
//! ## Pipeline
//!
//! ```text
//! netlist ──ams-netlist──▶ heterogeneous graph ──subgraph-sample──▶
//! enclosing subgraphs ──graph-pe──▶ +DSPD ──circuitgps──▶
//! pre-train (link) → fine-tune (regression) → zero-shot on unseen designs
//! ```
//!
//! ## Example
//!
//! ```
//! use circuitgps::{CircuitGps, ModelConfig};
//!
//! let model = CircuitGps::new(ModelConfig {
//!     hidden_dim: 16, pe_dim: 4, heads: 2, num_layers: 1,
//!     ..ModelConfig::default()
//! });
//! assert!(model.num_params() > 0);
//! ```

#![deny(missing_docs)]

mod checkpoint;
mod config;
pub mod corpus;
mod durable;
mod infer;
pub mod interrupt;
mod metrics;
mod model;
mod plan;
mod prepared;
mod sweep;
#[cfg(test)]
mod toy;
mod train;

pub use checkpoint::{
    Checkpoint, CheckpointError, CheckpointFormat, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
    LEGACY_MAGIC, TRAIN_STATE_SECTION,
};
pub use cirgps_nn::Backend;
pub use config::{AttnKind, FinetuneMode, ModelConfig, MpnnKind, TrainConfig};
pub use durable::{crc32, write_atomic, Crc32};
pub use infer::{InferenceSession, Query};
pub use metrics::{link_metrics, mape, reg_metrics, roc_auc, LinkMetrics, RegMetrics};
pub use model::{BatchLayout, CircuitGps};
pub use prepared::{prepare_link_dataset, prepare_node_dataset, PreparedSample};
pub use sweep::{sweep_pairs, CandidatePairs, SweepConfig, SweepSink, SweepStats, SweepTask};
pub use train::{
    evaluate_link, evaluate_regression, finetune_regression, finetune_regression_with_progress,
    predict_regression, pretrain_link, train, train_resumable, train_with_progress, EpochProgress,
    ResumableTrain, Task, TrainError, TrainHistory, TrainOutcome, TrainState,
};
