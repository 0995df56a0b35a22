//! Shared fixtures for the crate's unit tests: a small two-cluster
//! design, its sampler config and a small model.

use circuit_graph::{CircuitGraph, Edge, EdgeType, GraphBuilder, NodeType};
use subgraph_sample::SamplerConfig;

use crate::config::{AttnKind, ModelConfig, MpnnKind};
use crate::model::CircuitGps;

/// The sampler every toy session, sweep and sample uses.
pub(crate) const TOY_CFG: SamplerConfig = SamplerConfig {
    hops: 1,
    max_nodes: 64,
};

/// [`toy_design`] with its candidate links injected as couplings, so
/// queries see a mix of repeated and distinct neighborhoods.
pub(crate) fn toy_graph_and_links() -> (CircuitGraph, Vec<(u32, u32)>) {
    let (g, links) = toy_design();
    let injected: Vec<Edge> = links
        .iter()
        .map(|&(a, b)| Edge {
            a,
            b,
            ty: EdgeType::CouplingPinPin,
        })
        .collect();
    (g.with_injected_links(&injected), links)
}

/// Two mirrored pin clusters (a hub net with six pins each; node ids
/// 0–6 and 7–13; pin `i` of a cluster carries `XC[0] = i % 3`) joined by
/// a four-device path (ids 14–17), plus candidate pin pairs within and
/// across the clusters. On this plain graph many pairs share a
/// subgraph's structure and differ only in features.
pub(crate) fn toy_design() -> (CircuitGraph, Vec<(u32, u32)>) {
    let mut b = GraphBuilder::new();
    let cluster = |b: &mut GraphBuilder, tag: &str| -> Vec<u32> {
        let hub = b.add_node(NodeType::Net, &format!("{tag}hub"));
        let mut out = vec![hub];
        for i in 0..6 {
            let p = b.add_node(NodeType::Pin, &format!("{tag}p{i}"));
            b.set_xc(p, 0, (i % 3) as f32);
            b.add_edge(hub, p, EdgeType::NetPin);
            out.push(p);
        }
        out
    };
    let c1 = cluster(&mut b, "a");
    let c2 = cluster(&mut b, "b");
    let mut prev = c1[0];
    for i in 0..4 {
        let mid = b.add_node(NodeType::Device, &format!("m{i}"));
        b.add_edge(prev, mid, EdgeType::DevicePin);
        prev = mid;
    }
    b.add_edge(prev, c2[0], EdgeType::DevicePin);
    let g = b.build();

    let mut links = Vec::new();
    for i in 1..5 {
        links.push((c1[i], c1[i + 1]));
        links.push((c2[i], c2[i + 1]));
        links.push((c1[i], c2[i]));
        links.push((c1[i + 1], c2[i]));
        links.push((c1[1], c2[i + 1]));
    }
    (g, links)
}

/// A small two-layer GatedGCN model with the given attention.
pub(crate) fn model_with(attn: AttnKind) -> CircuitGps {
    CircuitGps::new(ModelConfig {
        hidden_dim: 16,
        pe_dim: 4,
        heads: 2,
        num_layers: 2,
        mpnn: MpnnKind::GatedGcn,
        attn,
        ..Default::default()
    })
}
