//! GraphSAGE-style mean-aggregation message-passing layer used as the
//! backbone of both baselines, plus full-graph feature assembly.
//!
//! Both ParaGraph [18] and DLPL-Cap [19], as adapted by the paper for the
//! coupling task, run message passing over the *entire* circuit graph with
//! the raw circuit statistics `XC` as node features — no subgraph
//! sampling, no positional encoding (Section IV-B).

use std::sync::Arc;

use circuit_graph::{CircuitGraph, NodeType, XC_DIM};
use cirgps_nn::{Linear, ParamStore, Tape, Tensor, Var};
use rand::rngs::StdRng;
use subgraph_sample::XcNormalizer;

/// Input feature width: normalized `XC` plus a one-hot node type.
pub const INPUT_DIM: usize = XC_DIM + NodeType::COUNT;

/// Full-graph tensors shared across training steps.
#[derive(Debug, Clone)]
pub struct FullGraphInputs {
    /// Node features, `N × INPUT_DIM`.
    pub features: Tensor,
    /// Directed arc sources.
    pub src: Arc<Vec<usize>>,
    /// Directed arc destinations.
    pub dst: Arc<Vec<usize>>,
    /// Inverse in-degree per node (for mean aggregation).
    pub inv_degree: Tensor,
}

impl FullGraphInputs {
    /// Assembles features and adjacency from a circuit graph.
    pub fn new(graph: &CircuitGraph, xcn: &XcNormalizer) -> FullGraphInputs {
        let n = graph.num_nodes();
        let mut feats = vec![0.0f32; n * INPUT_DIM];
        let xc = xcn.transform(graph.xc());
        for v in 0..n {
            feats[v * INPUT_DIM..v * INPUT_DIM + XC_DIM]
                .copy_from_slice(&xc[v * XC_DIM..(v + 1) * XC_DIM]);
            let t = graph.node_type(v as u32).code();
            feats[v * INPUT_DIM + XC_DIM + t] = 1.0;
        }
        let mut src = Vec::with_capacity(2 * graph.num_edges());
        let mut dst = Vec::with_capacity(2 * graph.num_edges());
        for v in 0..n as u32 {
            for &w in graph.adjacency(v).0 {
                src.push(w as usize);
                dst.push(v as usize);
            }
        }
        let inv_degree = Tensor::col(
            &(0..n)
                .map(|v| {
                    let d = graph.degree(v as u32) as f32;
                    if d > 0.0 {
                        1.0 / d
                    } else {
                        0.0
                    }
                })
                .collect::<Vec<f32>>(),
        );
        FullGraphInputs {
            features: Tensor::from_vec(n, INPUT_DIM, feats),
            src: Arc::new(src),
            dst: Arc::new(dst),
            inv_degree,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.features.rows()
    }
}

/// One SAGE layer: `h' = ReLU(W_self·h + W_nbr·mean_{u∈N(v)} h_u)`.
#[derive(Debug, Clone)]
pub struct SageLayer {
    w_self: Linear,
    w_nbr: Linear,
}

impl SageLayer {
    /// Registers a layer mapping `in_dim → out_dim`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut StdRng,
    ) -> Self {
        SageLayer {
            w_self: Linear::new(store, &format!("{name}.self"), in_dim, out_dim, true, rng),
            w_nbr: Linear::new(store, &format!("{name}.nbr"), in_dim, out_dim, false, rng),
        }
    }

    /// Applies the layer over the full graph.
    pub fn forward(&self, tape: &mut Tape, x: Var, g: &FullGraphInputs) -> Var {
        let n = g.num_nodes();
        let msgs = tape.gather(x, g.src.clone());
        let summed = tape.scatter_add(msgs, g.dst.clone(), n);
        let inv = tape.input(g.inv_degree.clone());
        let mean = tape.mul_colvec(summed, inv);
        let h_self = self.w_self.forward(tape, x);
        let h_nbr = self.w_nbr.forward(tape, mean);
        let h = tape.add(h_self, h_nbr);
        tape.relu(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit_graph::{EdgeType, GraphBuilder};
    use rand::SeedableRng;

    fn tiny_graph() -> CircuitGraph {
        let mut b = GraphBuilder::new();
        let n = b.add_node(NodeType::Net, "n");
        let p = b.add_node(NodeType::Pin, "p");
        let d = b.add_node(NodeType::Device, "d");
        b.set_xc(n, 0, 4.0);
        b.add_edge(n, p, EdgeType::NetPin);
        b.add_edge(p, d, EdgeType::DevicePin);
        b.build()
    }

    #[test]
    fn features_concatenate_xc_and_type() {
        let g = tiny_graph();
        let xcn = XcNormalizer::fit(&[&g]);
        let inputs = FullGraphInputs::new(&g, &xcn);
        assert_eq!(inputs.features.shape(), (3, INPUT_DIM));
        // One-hot type of node 0 (net).
        assert_eq!(inputs.features.get(0, XC_DIM), 1.0);
        assert_eq!(inputs.features.get(1, XC_DIM + 2), 1.0);
        // Directed arcs: 2 undirected edges -> 4 arcs.
        assert_eq!(inputs.src.len(), 4);
    }

    #[test]
    fn sage_layer_shapes_and_grads() {
        let g = tiny_graph();
        let xcn = XcNormalizer::fit(&[&g]);
        let inputs = FullGraphInputs::new(&g, &xcn);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let layer = SageLayer::new(&mut store, "s", INPUT_DIM, 8, &mut rng);
        let mut tape = Tape::new(&store, true, 0);
        let x = tape.input(inputs.features.clone());
        let h = layer.forward(&mut tape, x, &inputs);
        assert_eq!(tape.shape(h), (3, 8));
        let loss = tape.mse_loss(h, &[0.1; 24]);
        let mut grads = cirgps_nn::GradStore::new(&store);
        tape.backward(loss, &mut grads);
        assert!(store.iter().all(|(id, _, _)| grads.get(id).is_some()));
    }

    #[test]
    fn isolated_nodes_get_zero_neighbor_term() {
        let mut b = GraphBuilder::new();
        b.add_node(NodeType::Net, "lonely");
        let g = b.build();
        let xcn = XcNormalizer::fit(&[&g]);
        let inputs = FullGraphInputs::new(&g, &xcn);
        assert_eq!(inputs.inv_degree.get(0, 0), 0.0);
    }
}
