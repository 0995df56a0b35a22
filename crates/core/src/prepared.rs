//! Pre-computed per-sample inputs: positional encodings and normalized
//! circuit statistics are computed once, not per epoch.

use circuit_graph::{NodeType, XC_DIM};
use graph_pe::{compute_pe, PeFeatures, PeKind};
use subgraph_sample::{par_map, LinkDataset, NodeDataset, Subgraph, XcNormalizer};

/// A training/evaluation sample with every model input materialized.
#[derive(Debug, Clone)]
pub struct PreparedSample {
    /// The subgraph structure.
    pub sub: Subgraph,
    /// Positional-encoding features.
    pub pe: PeFeatures,
    /// Min-max normalized `XC`, row-major `N × XC_DIM`.
    pub xc_norm: Vec<f32>,
    /// Pin-kind code per node (0 for non-pin nodes), for the head's pin
    /// embedding (eq. (6) third case).
    pub pin_codes: Vec<usize>,
    /// Binary link label (1 positive / 0 negative); 1.0 for node tasks.
    pub label: f32,
    /// Regression target in `[0, 1]` (normalized capacitance).
    pub target: f32,
}

impl PreparedSample {
    /// Builds a prepared sample from a subgraph and task targets.
    pub fn new(
        sub: Subgraph,
        pe_kind: PeKind,
        xcn: &XcNormalizer,
        label: f32,
        target: f32,
    ) -> PreparedSample {
        let pe = compute_pe(&sub, pe_kind);
        let xc_norm = xcn.transform(&sub.xc);
        let pin_codes = sub
            .node_types
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                if t == NodeType::Pin.code() {
                    (sub.xc[i * XC_DIM] as usize).min(circuit_graph::PinKind::COUNT - 1)
                } else {
                    0
                }
            })
            .collect();
        PreparedSample {
            sub,
            pe,
            xc_norm,
            pin_codes,
            label,
            target,
        }
    }
}

/// Prepares a link dataset for a given PE, normalizing capacitances with
/// `cap_encode` (pass `|_| 0.0` for pure link prediction).
pub fn prepare_link_dataset(
    ds: &LinkDataset,
    pe_kind: PeKind,
    xcn: &XcNormalizer,
    cap_encode: impl Fn(f64) -> f32 + Sync,
) -> Vec<PreparedSample> {
    par_map(&ds.samples, |s| {
        PreparedSample::new(
            s.subgraph.clone(),
            pe_kind,
            xcn,
            s.link.label,
            cap_encode(s.link.cap),
        )
    })
}

/// Prepares a node dataset (ground-capacitance regression).
pub fn prepare_node_dataset(
    ds: &NodeDataset,
    pe_kind: PeKind,
    xcn: &XcNormalizer,
    cap_encode: impl Fn(f64) -> f32 + Sync,
) -> Vec<PreparedSample> {
    par_map(&ds.samples, |s| {
        PreparedSample::new(s.subgraph.clone(), pe_kind, xcn, 1.0, cap_encode(s.cap))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit_graph::{EdgeType, GraphBuilder};
    use subgraph_sample::{SamplerConfig, SubgraphSampler};

    fn tiny_prepared(pe: PeKind) -> PreparedSample {
        let mut b = GraphBuilder::new();
        let n = b.add_node(NodeType::Net, "n");
        let p = b.add_node(NodeType::Pin, "p");
        let d = b.add_node(NodeType::Device, "d");
        b.set_xc(p, 0, 1.0); // gate pin
        b.set_xc(n, 0, 5.0);
        b.add_edge(n, p, EdgeType::NetPin);
        b.add_edge(p, d, EdgeType::DevicePin);
        let g = b.build();
        let xcn = XcNormalizer::fit(&[&g]);
        let mut s = SubgraphSampler::new(
            &g,
            SamplerConfig {
                hops: 2,
                max_nodes: 16,
            },
        );
        let sub = s.enclosing_subgraph(n, p);
        PreparedSample::new(sub, pe, &xcn, 1.0, 0.5)
    }

    #[test]
    fn pin_codes_only_on_pins() {
        let p = tiny_prepared(PeKind::Dspd);
        for (i, &t) in p.sub.node_types.iter().enumerate() {
            if t != NodeType::Pin.code() {
                assert_eq!(p.pin_codes[i], 0);
            } else {
                assert_eq!(p.pin_codes[i], 1, "gate pin code");
            }
        }
    }

    #[test]
    fn xc_is_normalized() {
        let p = tiny_prepared(PeKind::None);
        assert!(p.xc_norm.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn pe_matches_kind() {
        assert!(matches!(
            tiny_prepared(PeKind::Dspd).pe,
            PeFeatures::CategoricalPair { .. }
        ));
        assert!(matches!(
            tiny_prepared(PeKind::Drnl).pe,
            PeFeatures::Categorical { .. }
        ));
        assert!(matches!(
            tiny_prepared(PeKind::Rwse { k: 4 }).pe,
            PeFeatures::Dense { .. }
        ));
    }
}
