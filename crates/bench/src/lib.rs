//! # cirgps-bench
//!
//! Experiment harnesses that regenerate every table and figure of the
//! paper's evaluation section. Each `table*`/`fig4` binary prints the
//! corresponding markdown table; `cargo bench` runs criterion
//! micro-benchmarks of the components no end-to-end workload isolates
//! (PE cost, training-step cost per layer combination, fused attention,
//! SIMD kernels, grammar datagen, simulator throughput). The
//! `perf_gate` binary gives the verdict of the paired end-to-end
//! benchmark gate (`tools/perf_gate.sh`, see `docs/perf.md`).
//!
//! ```bash
//! cargo run --release -p cirgps-bench --bin table2 -- --preset small --seed 7
//! ```

#![warn(missing_docs)]

pub mod data;
pub mod experiments;

pub use data::{
    fit_normalizer, markdown_table, parse_cli, test_designs, training_designs, DesignData,
};
pub use experiments::{
    default_model, fig4, layer_ablation_configs, main_comparison, table2, table3, table4, table5,
    table6, table7, table8, MainComparison, Scale,
};
