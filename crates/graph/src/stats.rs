//! Dataset-level statistics (the paper's Table IV) and the Table I
//! feature-dimension specification.

use std::fmt;

use crate::graph::{CircuitGraph, XC_DIM};
use crate::types::NodeType;

/// Human-readable specification of the `XC` circuit-statistics matrix
/// (Table I). Used by documentation, feature normalization and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XcSpec;

impl XcSpec {
    /// Number of dimensions per node row.
    pub const DIM: usize = XC_DIM;

    /// Dimension descriptions for a node type, in order.
    pub fn dims(ty: NodeType) -> &'static [&'static str] {
        match ty {
            NodeType::Net => &[
                "# of connected transistors",
                "# of connected gate terminals",
                "# of connected source/drain terminals",
                "# of connected base terminals",
                "Total width of connected transistors",
                "Total length of connected transistors",
                "# of connected capacitors",
                "Total length of connected capacitors",
                "Total # of connected capacitor fingers",
                "# of connected resistors",
                "Total width of connected resistors",
                "Total length of connected resistors",
                "# of connected ports",
            ],
            NodeType::Device => &[
                "Multiplier of transistors",
                "Length of the transistor",
                "Width of the transistor",
                "Multiplier of connected resistors",
                "Length of resistor",
                "Width of resistor",
                "Multiplier of connected capacitor",
                "Length of capacitor",
                "# of capacitor fingers",
                "# of ports in the device instance",
                "Type code of the device instance",
            ],
            NodeType::Pin => &["Pin types (G/D/S/B for MOS)"],
        }
    }
}

/// Graph-level statistics, one row of Table IV.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Design name.
    pub name: String,
    /// Total node count (paper column `N`).
    pub num_nodes: usize,
    /// Total undirected edge count (paper column `N_E`).
    pub num_edges: usize,
    /// Nodes per type `[net, device, pin]`.
    pub node_type_counts: [usize; 3],
    /// Mean degree.
    pub mean_degree: f64,
}

impl GraphStats {
    /// Computes statistics for a graph.
    pub fn of(name: &str, graph: &CircuitGraph) -> Self {
        let n = graph.num_nodes();
        let e = graph.num_edges();
        GraphStats {
            name: name.to_string(),
            num_nodes: n,
            num_edges: e,
            node_type_counts: graph.node_type_counts(),
            mean_degree: if n == 0 {
                0.0
            } else {
                2.0 * e as f64 / n as f64
            },
        }
    }
}

impl fmt::Display for GraphStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: N={} NE={} (net/dev/pin = {}/{}/{}, mean degree {:.2})",
            self.name,
            self.num_nodes,
            self.num_edges,
            self.node_type_counts[0],
            self.node_type_counts[1],
            self.node_type_counts[2],
            self.mean_degree
        )
    }
}

/// Formats a count with K/M suffixes as in the paper's Table IV.
pub fn human_count(n: usize) -> String {
    if n >= 1_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{}K", n / 1000)
    } else {
        n.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::types::EdgeType;

    #[test]
    fn spec_dimensions_match_table1() {
        assert_eq!(XcSpec::dims(NodeType::Net).len(), 13);
        assert_eq!(XcSpec::dims(NodeType::Device).len(), 11);
        assert_eq!(XcSpec::dims(NodeType::Pin).len(), 1);
        assert!(XcSpec::DIM >= XcSpec::dims(NodeType::Net).len());
    }

    #[test]
    fn stats_of_small_graph() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(NodeType::Net, "a");
        let p = b.add_node(NodeType::Pin, "p");
        let d = b.add_node(NodeType::Device, "d");
        b.add_edge(a, p, EdgeType::NetPin);
        b.add_edge(p, d, EdgeType::DevicePin);
        let g = b.build();
        let s = GraphStats::of("tiny", &g);
        assert_eq!(s.num_nodes, 3);
        assert_eq!(s.num_edges, 2);
        assert_eq!(s.node_type_counts, [1, 1, 1]);
        assert!((s.mean_degree - 4.0 / 3.0).abs() < 1e-9);
        assert!(s.to_string().contains("tiny"));
    }

    #[test]
    fn human_counts() {
        assert_eq!(human_count(87_000), "87K");
        assert_eq!(human_count(3_500_000), "3.5M");
        assert_eq!(human_count(153), "153");
    }
}
