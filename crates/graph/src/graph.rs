//! The heterogeneous circuit graph in CSR form.

use ams_netlist::{DeviceId, NetId};

use crate::types::{EdgeType, NodeType, PinKind};

/// Width of the circuit-statistics matrix `XC` (Table I: net rows use 13
/// dimensions, device rows 11, pin rows 1; all padded to 13).
pub const XC_DIM: usize = 13;

/// Where a graph node came from in the source netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeOrigin {
    /// A net node.
    Net(NetId),
    /// A device node.
    Device(DeviceId),
    /// A pin node: one per distinct `(device, connected net)` pair, labeled
    /// by the first terminal that maps to it.
    Pin {
        /// Owning device.
        device: DeviceId,
        /// The pin kind of the first terminal merged into this pin.
        kind: PinKind,
        /// The net the pin connects to.
        net: NetId,
    },
}

/// An undirected edge or injected link, for graph construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// One endpoint.
    pub a: u32,
    /// Other endpoint.
    pub b: u32,
    /// Edge/link type.
    pub ty: EdgeType,
}

/// Heterogeneous circuit graph with CSR adjacency.
///
/// Nodes are nets, devices and pins; undirected edges carry an
/// [`EdgeType`]. Coupling links (types 2–4) may be *injected* before
/// enclosing-subgraph sampling, following SEAL's protocol.
///
/// # Examples
///
/// ```
/// use circuit_graph::{CircuitGraph, EdgeType, GraphBuilder, NodeType};
///
/// let mut b = GraphBuilder::new();
/// let net = b.add_node(NodeType::Net, "n1");
/// let pin = b.add_node(NodeType::Pin, "M1:G");
/// b.add_edge(net, pin, EdgeType::NetPin);
/// let g = b.build();
/// assert_eq!(g.num_nodes(), 2);
/// assert_eq!(g.degree(net), 1);
/// ```
#[derive(Debug, Clone)]
pub struct CircuitGraph {
    node_types: Vec<NodeType>,
    node_names: Vec<String>,
    origins: Vec<Option<NodeOrigin>>,
    /// Circuit statistics, `num_nodes × XC_DIM`, row-major.
    xc: Vec<f32>,
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
    nbr_types: Vec<u8>,
    num_undirected: usize,
}

impl CircuitGraph {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.node_types.len()
    }

    /// Number of undirected edges (each stored twice internally).
    pub fn num_edges(&self) -> usize {
        self.num_undirected
    }

    /// Type of node `v`.
    pub fn node_type(&self, v: u32) -> NodeType {
        self.node_types[v as usize]
    }

    /// Name of node `v` (net name, device name, or `device:PIN`).
    pub fn node_name(&self, v: u32) -> &str {
        &self.node_names[v as usize]
    }

    /// Netlist origin of node `v`, if built from a netlist.
    pub fn origin(&self, v: u32) -> Option<NodeOrigin> {
        self.origins[v as usize]
    }

    /// Neighbor list of `v` with parallel edge-type codes.
    pub fn adjacency(&self, v: u32) -> (&[u32], &[u8]) {
        let s = self.offsets[v as usize] as usize;
        let e = self.offsets[v as usize + 1] as usize;
        (&self.neighbors[s..e], &self.nbr_types[s..e])
    }

    /// Degree of `v` (including injected links).
    pub fn degree(&self, v: u32) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Iterates over `(neighbor, edge_type)` of `v`.
    pub fn neighbors(&self, v: u32) -> impl Iterator<Item = (u32, EdgeType)> + '_ {
        let (nbrs, tys) = self.adjacency(v);
        nbrs.iter()
            .zip(tys)
            .map(|(&n, &t)| (n, EdgeType::from_code(t as usize)))
    }

    /// Whether an edge of any type exists between `a` and `b`.
    pub fn has_edge(&self, a: u32, b: u32) -> bool {
        let (da, db) = (self.degree(a), self.degree(b));
        let (v, w) = if da <= db { (a, b) } else { (b, a) };
        self.adjacency(v).0.contains(&w)
    }

    /// The circuit-statistics row (`XC`, Table I) for node `v`.
    pub fn xc_row(&self, v: u32) -> &[f32] {
        &self.xc[v as usize * XC_DIM..(v as usize + 1) * XC_DIM]
    }

    /// The full `XC` matrix, row-major `num_nodes × XC_DIM`.
    pub fn xc(&self) -> &[f32] {
        &self.xc
    }

    /// Counts nodes of each type, indexed by [`NodeType::code`].
    pub fn node_type_counts(&self) -> [usize; NodeType::COUNT] {
        let mut counts = [0usize; NodeType::COUNT];
        for t in &self.node_types {
            counts[t.code()] += 1;
        }
        counts
    }

    /// Counts undirected edges of each type, indexed by [`EdgeType::code`].
    pub fn edge_type_counts(&self) -> [usize; EdgeType::COUNT] {
        let mut counts = [0usize; EdgeType::COUNT];
        for (v, &off) in self.offsets[..self.num_nodes()].iter().enumerate() {
            let end = self.offsets[v + 1];
            for k in off..end {
                if self.neighbors[k as usize] as usize >= v {
                    counts[self.nbr_types[k as usize] as usize] += 1;
                }
            }
        }
        counts
    }

    /// Finds a node id by exact name (linear scan; intended for tests and
    /// SPF joining, which builds its own index).
    pub fn node_by_name(&self, name: &str) -> Option<u32> {
        self.node_names
            .iter()
            .position(|n| n == name)
            .map(|i| i as u32)
    }

    /// Returns a new graph with the given links added to the adjacency
    /// (SEAL-style link injection before subgraph sampling).
    ///
    /// # Panics
    ///
    /// Panics if a link endpoint is out of range or a link type is not a
    /// coupling type.
    pub fn with_injected_links(&self, links: &[Edge]) -> CircuitGraph {
        for l in links {
            assert!(l.ty.is_link(), "injected edge must be a coupling link");
            assert!((l.a as usize) < self.num_nodes() && (l.b as usize) < self.num_nodes());
        }
        let mut builder = GraphBuilder {
            node_types: self.node_types.clone(),
            node_names: self.node_names.clone(),
            origins: self.origins.clone(),
            xc: self.xc.clone(),
            edges: Vec::with_capacity(self.num_undirected + links.len()),
        };
        for (v, &off) in self.offsets[..self.num_nodes()].iter().enumerate() {
            let end = self.offsets[v + 1];
            for k in off..end {
                let n = self.neighbors[k as usize];
                if n as usize >= v {
                    builder.edges.push(Edge {
                        a: v as u32,
                        b: n,
                        ty: EdgeType::from_code(self.nbr_types[k as usize] as usize),
                    });
                }
            }
        }
        builder.edges.extend_from_slice(links);
        builder.build()
    }

    /// Breadth-first distances from `src`, up to `max_hops` (inclusive).
    /// Unreached nodes get `u32::MAX`. Allocates `O(N)`; repeated
    /// traversals should mark visits in a [`crate::NodeStamps`] instead.
    pub fn bfs_distances(&self, src: u32, max_hops: u32) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.num_nodes()];
        let mut queue = std::collections::VecDeque::new();
        dist[src as usize] = 0;
        queue.push_back(src);
        while let Some(v) = queue.pop_front() {
            let d = dist[v as usize];
            if d >= max_hops {
                continue;
            }
            for &n in self.adjacency(v).0 {
                if dist[n as usize] == u32::MAX {
                    dist[n as usize] = d + 1;
                    queue.push_back(n);
                }
            }
        }
        dist
    }
}

/// Incremental builder for [`CircuitGraph`].
#[derive(Debug, Default)]
pub struct GraphBuilder {
    node_types: Vec<NodeType>,
    node_names: Vec<String>,
    origins: Vec<Option<NodeOrigin>>,
    xc: Vec<f32>,
    edges: Vec<Edge>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node with a zeroed statistics row, returning its id.
    pub fn add_node(&mut self, ty: NodeType, name: &str) -> u32 {
        self.node_types.push(ty);
        self.node_names.push(name.to_string());
        self.origins.push(None);
        self.xc.extend(std::iter::repeat_n(0.0, XC_DIM));
        (self.node_types.len() - 1) as u32
    }

    /// Adds a node with an origin annotation.
    pub fn add_node_with_origin(&mut self, ty: NodeType, name: &str, origin: NodeOrigin) -> u32 {
        let v = self.add_node(ty, name);
        self.origins[v as usize] = Some(origin);
        v
    }

    /// Sets one entry of a node's statistics row.
    ///
    /// # Panics
    ///
    /// Panics if `dim >= XC_DIM`.
    pub fn set_xc(&mut self, v: u32, dim: usize, value: f32) {
        assert!(dim < XC_DIM, "xc dim {dim} out of range");
        self.xc[v as usize * XC_DIM + dim] = value;
    }

    /// Adds to one entry of a node's statistics row.
    pub fn add_xc(&mut self, v: u32, dim: usize, delta: f32) {
        assert!(dim < XC_DIM, "xc dim {dim} out of range");
        self.xc[v as usize * XC_DIM + dim] += delta;
    }

    /// Adds an undirected edge.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or `a == b` (self-loops are
    /// not meaningful in a circuit graph).
    pub fn add_edge(&mut self, a: u32, b: u32, ty: EdgeType) {
        let n = self.node_types.len() as u32;
        assert!(a < n && b < n, "edge endpoint out of range");
        assert_ne!(a, b, "self-loops are not allowed");
        self.edges.push(Edge { a, b, ty });
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.node_types.len()
    }

    /// Finalizes the CSR representation.
    pub fn build(self) -> CircuitGraph {
        let n = self.node_types.len();
        let mut degree = vec![0u32; n];
        for e in &self.edges {
            degree[e.a as usize] += 1;
            degree[e.b as usize] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degree[i];
        }
        let total = offsets[n] as usize;
        let mut neighbors = vec![0u32; total];
        let mut nbr_types = vec![0u8; total];
        let mut cursor = offsets.clone();
        for e in &self.edges {
            let ka = cursor[e.a as usize] as usize;
            neighbors[ka] = e.b;
            nbr_types[ka] = e.ty.code() as u8;
            cursor[e.a as usize] += 1;
            let kb = cursor[e.b as usize] as usize;
            neighbors[kb] = e.a;
            nbr_types[kb] = e.ty.code() as u8;
            cursor[e.b as usize] += 1;
        }
        CircuitGraph {
            node_types: self.node_types,
            node_names: self.node_names,
            origins: self.origins,
            xc: self.xc,
            offsets,
            neighbors,
            nbr_types,
            num_undirected: self.edges.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CircuitGraph {
        // net0 - pin1 - dev2, plus net3 isolated
        let mut b = GraphBuilder::new();
        let n0 = b.add_node(NodeType::Net, "n0");
        let p1 = b.add_node(NodeType::Pin, "M1:G");
        let d2 = b.add_node(NodeType::Device, "M1");
        let _n3 = b.add_node(NodeType::Net, "n3");
        b.add_edge(n0, p1, EdgeType::NetPin);
        b.add_edge(p1, d2, EdgeType::DevicePin);
        b.build()
    }

    #[test]
    fn csr_roundtrip() {
        let g = tiny();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(3), 0);
        let nbrs: Vec<_> = g.neighbors(1).collect();
        assert!(nbrs.contains(&(0, EdgeType::NetPin)));
        assert!(nbrs.contains(&(2, EdgeType::DevicePin)));
    }

    #[test]
    fn has_edge_is_symmetric() {
        let g = tiny();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn type_counts() {
        let g = tiny();
        assert_eq!(g.node_type_counts(), [2, 1, 1]);
        let e = g.edge_type_counts();
        assert_eq!(e[EdgeType::DevicePin.code()], 1);
        assert_eq!(e[EdgeType::NetPin.code()], 1);
    }

    #[test]
    fn inject_links() {
        let g = tiny();
        let g2 = g.with_injected_links(&[Edge {
            a: 0,
            b: 3,
            ty: EdgeType::CouplingNetNet,
        }]);
        assert_eq!(g2.num_edges(), 3);
        assert!(g2.has_edge(0, 3));
        assert_eq!(g2.edge_type_counts()[EdgeType::CouplingNetNet.code()], 1);
        // Original untouched.
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    #[should_panic(expected = "coupling link")]
    fn inject_rejects_schematic_edges() {
        let g = tiny();
        g.with_injected_links(&[Edge {
            a: 0,
            b: 3,
            ty: EdgeType::NetPin,
        }]);
    }

    #[test]
    fn bfs_distances_cap() {
        let g = tiny();
        let d = g.bfs_distances(0, 1);
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], u32::MAX); // beyond 1 hop
        assert_eq!(d[3], u32::MAX); // disconnected
        let d2 = g.bfs_distances(0, 5);
        assert_eq!(d2[2], 2);
    }

    #[test]
    fn xc_rows() {
        let mut b = GraphBuilder::new();
        let v = b.add_node(NodeType::Net, "n");
        b.set_xc(v, 0, 2.0);
        b.add_xc(v, 0, 1.0);
        b.set_xc(v, 12, 1.0);
        let g = b.build();
        assert_eq!(g.xc_row(v)[0], 3.0);
        assert_eq!(g.xc_row(v)[12], 1.0);
        assert_eq!(g.xc_row(v)[5], 0.0);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn no_self_loops() {
        let mut b = GraphBuilder::new();
        let v = b.add_node(NodeType::Net, "n");
        b.add_edge(v, v, EdgeType::NetPin);
    }
}
