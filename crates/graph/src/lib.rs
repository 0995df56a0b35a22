//! # circuit-graph
//!
//! Heterogeneous circuit-graph representation for the CirGPS reproduction
//! (Section III-A of the paper): nets, devices and pins as typed nodes;
//! `device-pin`/`net-pin` schematic edges; coupling links as injectable
//! target edges; the `XC` circuit-statistics matrix of Table I; and the
//! versioned node stamps that enclosing-subgraph sampling is built on.
//!
//! ## Example
//!
//! ```
//! use ams_netlist::SpiceFile;
//! use circuit_graph::{netlist_to_graph, GraphStats, NodeType};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = "
//! .SUBCKT INV A Z VDD VSS
//! M1 Z A VSS VSS nch W=0.1u L=0.03u
//! M2 Z A VDD VDD pch W=0.4u L=0.03u
//! .ENDS
//! ";
//! let netlist = SpiceFile::parse(src)?.flatten("INV")?;
//! let (graph, _map) = netlist_to_graph(&netlist);
//! let stats = GraphStats::of("inv", &graph);
//! assert_eq!(stats.node_type_counts[NodeType::Device.code()], 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod convert;
mod graph;
mod stamp;
mod stats;
mod types;

pub use convert::{device_dims, net_dims, netlist_to_graph, NodeMap};
pub use graph::{CircuitGraph, Edge, GraphBuilder, NodeOrigin, XC_DIM};
pub use stamp::NodeStamps;
pub use stats::{human_count, GraphStats, XcSpec};
pub use types::{EdgeType, NodeType, PinKind};
