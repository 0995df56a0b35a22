//! # subgraph-sample
//!
//! Enclosing-subgraph sampling for the CirGPS reproduction (Section III-B
//! of the paper): joining SPF coupling capacitances onto heterogeneous
//! circuit-graph node pairs, structural negative-link generation,
//! `|E_n2n|` balancing, SEAL-style link injection, and parallel h-hop
//! enclosing-subgraph extraction for both link-level and node-level
//! tasks, plus the feature/target normalizers of Section IV-C.
//!
//! One extractor, [`SubgraphSampler`], builds every [`Subgraph`]:
//! training datasets, inference and the full-chip sweep run the same
//! code, with scratch reused across calls.
//!
//! ## Example
//!
//! ```
//! use ams_datagen::{generate_with_parasitics, DesignKind, SizePreset};
//! use circuit_graph::netlist_to_graph;
//! use subgraph_sample::{DatasetConfig, LinkDataset};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (design, spf) = generate_with_parasitics(DesignKind::TimingControl, SizePreset::Tiny, 0)?;
//! let (graph, map) = netlist_to_graph(&design.netlist);
//! let ds = LinkDataset::build("demo", &graph, &design.netlist, &map, &spf,
//!     &DatasetConfig::default());
//! assert!(!ds.is_empty());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod dataset;
mod links;
mod normalize;
mod subgraph;

pub use dataset::{DatasetConfig, LinkDataset, LinkSample, NodeDataset, NodeSample};
pub use links::{generate_negatives, Link, LinkSet};
pub use normalize::{CapNormalizer, XcNormalizer};
pub use subgraph::{SamplerConfig, Subgraph, SubgraphSampler, SweepSampler, UNREACHABLE};
