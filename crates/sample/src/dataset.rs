//! End-to-end dataset assembly: SPF join → balancing → negative
//! generation → SEAL-style link injection → parallel enclosing-subgraph
//! extraction.

use ams_netlist::{Netlist, SpfFile};
use circuit_graph::{CircuitGraph, Edge, NodeMap, NodeType};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::links::{generate_negatives, Link, LinkSet};
use crate::par::par_map;
use crate::subgraph::{SamplerConfig, Subgraph, SubgraphSampler};

/// Dataset assembly parameters.
#[derive(Debug, Clone, Copy)]
pub struct DatasetConfig {
    /// Hop count for enclosing subgraphs (paper: 1 for links, 2 for nodes).
    pub hops: u32,
    /// Subgraph size cap.
    pub max_nodes: usize,
    /// Cap on positive links sampled per type (after the paper's
    /// `|E_n2n|` balancing); bounds training cost on large designs.
    pub max_per_type: usize,
    /// Capacitance filter range, farads.
    pub cap_range: (f64, f64),
    /// RNG seed for balancing and negative generation.
    pub seed: u64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            hops: 1,
            max_nodes: 2048,
            max_per_type: 2000,
            cap_range: (1e-21, 1e-15),
            seed: 0xDA7A,
        }
    }
}

/// One link-level training/evaluation sample.
#[derive(Debug, Clone)]
pub struct LinkSample {
    /// The target link (label 1/0, capacitance).
    pub link: Link,
    /// Its enclosing subgraph (anchors at local 0 and 1).
    pub subgraph: Subgraph,
}

/// A link-level dataset for one design.
#[derive(Debug)]
pub struct LinkDataset {
    /// Design name.
    pub design: String,
    /// Samples (positives and negatives, shuffled).
    pub samples: Vec<LinkSample>,
    /// Mean subgraph node count (Table IV column `N/G¹ₘₙ`).
    pub mean_subgraph_nodes: f64,
    /// Mean subgraph undirected edge count (Table IV column `NE/G¹ₘₙ`).
    pub mean_subgraph_edges: f64,
    /// Number of positive links before balancing, per type `[p2n,p2p,n2n]`.
    pub raw_counts: [usize; 3],
}

impl LinkDataset {
    /// Selects the dataset's links without extracting anything: joins
    /// SPF couplings, balances by the rarest type, generates structural
    /// negatives and shuffles. Returns every joined coupling (the
    /// injection context [`LinkDataset::build`] needs) and the selected
    /// links in sample order.
    pub fn select_links(
        graph: &CircuitGraph,
        netlist: &Netlist,
        map: &NodeMap,
        spf: &SpfFile,
        cfg: &DatasetConfig,
    ) -> (LinkSet, Vec<Link>) {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let all = LinkSet::from_spf(spf, netlist, graph, map, cfg.cap_range);
        let per_type = all.balance_count().min(cfg.max_per_type);
        let mut links = all.balanced(per_type, &mut rng);
        links.extend(generate_negatives(graph, &links, &all, cfg.seed ^ 0x5eed));
        links.shuffle(&mut rng);
        (all, links)
    }

    /// Builds the dataset for one design.
    ///
    /// Follows the paper's protocol: select links
    /// ([`LinkDataset::select_links`]), inject *all* sampled links into
    /// the graph (SEAL setup), then extract 1-hop enclosing subgraphs in
    /// parallel.
    pub fn build(
        design: &str,
        graph: &CircuitGraph,
        netlist: &Netlist,
        map: &NodeMap,
        spf: &SpfFile,
        cfg: &DatasetConfig,
    ) -> LinkDataset {
        let (all, links) = Self::select_links(graph, netlist, map, spf, cfg);

        // SEAL link injection: ALL observed positive couplings plus the
        // sampled negatives become edges of the augmented graph (each
        // target's own edge is masked back out during extraction). The
        // full coupling context is what makes the enclosing subgraphs
        // informative — a balanced-subset injection leaves the context
        // too sparse for common-neighbor structure to emerge.
        let mut injected: Vec<Edge> = Vec::with_capacity(all.len() + links.len());
        for group in [&all.p2n, &all.p2p, &all.n2n] {
            injected.extend(group.iter().map(|l| Edge {
                a: l.a,
                b: l.b,
                ty: l.ty,
            }));
        }
        injected.extend(links.iter().filter(|l| l.label < 0.5).map(|l| Edge {
            a: l.a,
            b: l.b,
            ty: l.ty,
        }));
        let aug = graph.with_injected_links(&injected);

        let sampler_cfg = SamplerConfig {
            hops: cfg.hops,
            max_nodes: cfg.max_nodes,
        };
        let chunks: Vec<&[Link]> = links.chunks(128).collect();
        let samples: Vec<LinkSample> = par_map(&chunks, |chunk| {
            let mut sampler = SubgraphSampler::new(&aug, sampler_cfg);
            chunk
                .iter()
                .map(|&link| LinkSample {
                    link,
                    subgraph: sampler.enclosing_subgraph(link.a, link.b),
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();

        let (sum_n, sum_e) = samples.iter().fold((0usize, 0usize), |(n, e), s| {
            (n + s.subgraph.num_nodes(), e + s.subgraph.num_edges())
        });
        let count = samples.len().max(1) as f64;
        LinkDataset {
            design: design.to_string(),
            samples,
            mean_subgraph_nodes: sum_n as f64 / count,
            mean_subgraph_edges: sum_e as f64 / count,
            raw_counts: all.counts(),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// One node-level sample (ground-capacitance regression).
#[derive(Debug, Clone)]
pub struct NodeSample {
    /// Target node id in the parent graph.
    pub node: u32,
    /// Ground capacitance, farads.
    pub cap: f64,
    /// 2-hop subgraph around the node (single anchor).
    pub subgraph: Subgraph,
}

/// A node-level dataset for one design.
#[derive(Debug)]
pub struct NodeDataset {
    /// Design name.
    pub design: String,
    /// Samples.
    pub samples: Vec<NodeSample>,
}

impl NodeDataset {
    /// Builds the node-regression dataset: joins SPF *ground* capacitances
    /// onto net/pin nodes and extracts h-hop (default 2) subgraphs.
    /// No negative injection is used, matching Section IV-D.
    #[allow(clippy::too_many_arguments)] // mirrors LinkDataset::build's signature
    pub fn build(
        design: &str,
        graph: &CircuitGraph,
        netlist: &Netlist,
        map: &NodeMap,
        spf: &SpfFile,
        max_samples: usize,
        hops: u32,
        seed: u64,
    ) -> NodeDataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut targets: Vec<(u32, f64)> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for g in &spf.ground_caps {
            if g.value < 1e-21 || g.value > 1e-15 {
                continue;
            }
            let Some(v) = map.resolve(netlist, &g.node) else {
                continue;
            };
            // Only net and pin nodes carry ground-cap targets.
            if graph.node_type(v) == NodeType::Device {
                continue;
            }
            if seen.insert(v) {
                targets.push((v, g.value));
            }
        }
        targets.shuffle(&mut rng);
        targets.truncate(max_samples);

        let sampler_cfg = SamplerConfig {
            hops,
            max_nodes: 2048,
        };
        let chunks: Vec<&[(u32, f64)]> = targets.chunks(128).collect();
        let samples: Vec<NodeSample> = par_map(&chunks, |chunk| {
            let mut sampler = SubgraphSampler::new(graph, sampler_cfg);
            chunk
                .iter()
                .map(|&(node, cap)| NodeSample {
                    node,
                    cap,
                    subgraph: sampler.node_subgraph(node),
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        NodeDataset {
            design: design.to_string(),
            samples,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_datagen::{generate_with_parasitics, DesignKind, SizePreset};
    use circuit_graph::netlist_to_graph;

    fn tiny_dataset() -> LinkDataset {
        let (design, spf) =
            generate_with_parasitics(DesignKind::TimingControl, SizePreset::Tiny, 2).unwrap();
        let (graph, map) = netlist_to_graph(&design.netlist);
        LinkDataset::build(
            "TIMING_CONTROL",
            &graph,
            &design.netlist,
            &map,
            &spf,
            &DatasetConfig {
                max_per_type: 150,
                ..Default::default()
            },
        )
    }

    #[test]
    fn dataset_is_roughly_balanced() {
        let ds = tiny_dataset();
        assert!(!ds.is_empty());
        let pos = ds.samples.iter().filter(|s| s.link.label > 0.5).count();
        let neg = ds.len() - pos;
        // Negatives match positives up to retry failures.
        assert!(neg > 0);
        assert!(
            (pos as f64 - neg as f64).abs() / pos as f64 <= 0.2,
            "pos={pos} neg={neg}"
        );
    }

    #[test]
    fn target_link_is_masked_in_its_own_subgraph() {
        // SEAL protocol: other injected links provide context, but the
        // target link between the anchors is removed from its own
        // subgraph to prevent label leakage (for positives AND
        // negatives).
        let ds = tiny_dataset();
        for s in ds.samples.iter().take(50) {
            let has_anchor_link = s
                .subgraph
                .directed_edges()
                .any(|(a, b, t)| (a == 0 && b == 1 || a == 1 && b == 0) && t >= 2);
            assert!(
                !has_anchor_link,
                "label {} target link leaked into its subgraph",
                s.link.label
            );
        }
    }

    #[test]
    fn context_links_remain_injected() {
        // Links of *other* pairs must still appear somewhere: count
        // link-typed edges across all subgraphs.
        let ds = tiny_dataset();
        let context_links: usize = ds
            .samples
            .iter()
            .map(|s| {
                s.subgraph
                    .directed_edges()
                    .filter(|&(_, _, t)| t >= 2)
                    .count()
            })
            .sum();
        assert!(context_links > 0, "injection removed all coupling context");
    }

    #[test]
    fn subgraph_stats_are_positive() {
        let ds = tiny_dataset();
        assert!(ds.mean_subgraph_nodes > 3.0);
        assert!(ds.mean_subgraph_edges >= ds.mean_subgraph_nodes - 1.0);
    }

    #[test]
    fn determinism() {
        let a = tiny_dataset();
        let b = tiny_dataset();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.samples.iter().zip(&b.samples).take(20) {
            assert_eq!(x.link.a, y.link.a);
            assert_eq!(x.subgraph.nodes, y.subgraph.nodes);
        }
    }

    #[test]
    fn node_dataset_builds() {
        let (design, spf) =
            generate_with_parasitics(DesignKind::TimingControl, SizePreset::Tiny, 2).unwrap();
        let (graph, map) = netlist_to_graph(&design.netlist);
        let ds = NodeDataset::build(
            "TIMING_CONTROL",
            &graph,
            &design.netlist,
            &map,
            &spf,
            200,
            2,
            1,
        );
        assert!(!ds.is_empty());
        for s in &ds.samples {
            assert_eq!(s.subgraph.num_anchors, 1);
            assert!(s.cap > 0.0);
            assert_ne!(graph.node_type(s.node), NodeType::Device);
            assert_eq!(s.subgraph.nodes[0], s.node);
        }
    }
}
