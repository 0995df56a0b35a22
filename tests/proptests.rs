//! Property-based tests over the public API: parser/writer round trips,
//! subgraph-sampling invariants on randomized graphs, and end-to-end
//! pipeline invariants on grammar-enumerated designs.

use std::sync::OnceLock;

use cirgps::datagen::enumerate::{build_term, enumerate_terms, term_extract_seed};
use cirgps::datagen::{check_design, extract_parasitics, Design, ExtractConfig};
use cirgps::graph::{
    netlist_to_graph, CircuitGraph, Edge, EdgeType, GraphBuilder, NodeMap, NodeType,
};
use cirgps::model::CandidatePairs;
use cirgps::netlist::{format_spice_value, parse_spice_value, SpfFile, SpiceFile};
use cirgps::pe::{compute_pe, PeFeatures, PeKind};
use cirgps::sample::{LinkSet, SamplerConfig, SubgraphSampler, UNREACHABLE};
use proptest::prelude::*;

proptest! {
    #[test]
    fn spice_values_round_trip(mantissa in 1.0e-2f64..9.99e2, exp in -19i32..9) {
        let v = mantissa * 10f64.powi(exp);
        let s = format_spice_value(v);
        let back = parse_spice_value(&s).expect("formatted value must parse");
        prop_assert!(((back - v) / v).abs() < 1e-3, "{v} -> {s} -> {back}");
    }

    #[test]
    fn random_graph_subgraphs_uphold_invariants(
        edges in proptest::collection::vec((0u32..40, 0u32..40), 1..120),
        hops in 1u32..4,
    ) {
        // Build a random (multi-)graph over 40 nodes with alternating
        // types; skip self loops and duplicate edges.
        let mut b = GraphBuilder::new();
        for i in 0..40u32 {
            let ty = match i % 3 {
                0 => NodeType::Net,
                1 => NodeType::Device,
                _ => NodeType::Pin,
            };
            b.add_node(ty, &format!("v{i}"));
        }
        let mut seen = std::collections::HashSet::new();
        let mut added = Vec::new();
        for &(a, c) in &edges {
            if a == c || !seen.insert((a.min(c), a.max(c))) {
                continue;
            }
            b.add_edge(a, c, EdgeType::NetPin);
            added.push((a, c));
        }
        prop_assume!(!added.is_empty());
        let g = b.build();

        let (m, n) = added[0];
        let mut sampler = SubgraphSampler::new(&g, SamplerConfig { hops, max_nodes: 4096 });
        let sub = sampler.enclosing_subgraph(m, n);

        // Anchors first.
        prop_assert_eq!(sub.nodes[0], m);
        prop_assert_eq!(sub.nodes[1], n);
        prop_assert_eq!(sub.dist_a[0], 0);
        prop_assert_eq!(sub.dist_b[1], 0);

        // Every node is within `hops` of an anchor (union definition).
        for i in 0..sub.num_nodes() {
            let da = sub.dist_a[i];
            let db = sub.dist_b[i];
            prop_assert!(
                da.min(db) <= hops || da.min(db) == UNREACHABLE,
                "node {i}: ({da},{db}) vs hops {hops}"
            );
        }

        // Directed arcs come in reverse pairs and reference valid nodes.
        let arcs: std::collections::HashSet<(usize, usize)> =
            sub.src.iter().zip(&sub.dst).map(|(&s, &d)| (s, d)).collect();
        for &(s, d) in &arcs {
            prop_assert!(s < sub.num_nodes() && d < sub.num_nodes());
            prop_assert!(arcs.contains(&(d, s)), "missing reverse arc of ({s},{d})");
        }

        // DSPD codes stay within the embedding-table range.
        if let PeFeatures::CategoricalPair { a, b, num_classes } = compute_pe(&sub, PeKind::Dspd) {
            for (&x, &y) in a.iter().zip(&b) {
                prop_assert!(x < num_classes && y < num_classes);
            }
        } else {
            prop_assert!(false, "DSPD must produce a categorical pair");
        }

        // DRNL is consistent: same distance pair => same code.
        if let PeFeatures::Categorical { codes, .. } = compute_pe(&sub, PeKind::Drnl) {
            let mut by_pair = std::collections::HashMap::new();
            for (i, &code) in codes.iter().enumerate().skip(sub.num_anchors) {
                let key = (sub.dist_a[i], sub.dist_b[i]);
                if let Some(prev) = by_pair.insert(key, code) {
                    prop_assert_eq!(prev, code);
                }
            }
        }
    }

    #[test]
    fn shared_sweep_extraction_is_bitwise_identical_to_per_pair_sampling(
        edges in proptest::collection::vec((0u32..30, 0u32..30, 0u32..3), 1..100),
        hops in 1u32..3,
        max_nodes in 4usize..64,
    ) {
        // The sweep planner's core invariant: extracting many pairs
        // through ONE sampler into one reused `extract_into` buffer
        // (scratch and output shared across pairs) produces Subgraphs
        // bitwise-identical to a fresh sampler per pair — sharing is
        // semantics-free.
        let mut b = GraphBuilder::new();
        for i in 0..30u32 {
            let ty = match i % 3 {
                0 => NodeType::Net,
                1 => NodeType::Device,
                _ => NodeType::Pin,
            };
            let id = b.add_node(ty, &format!("v{i}"));
            if ty == NodeType::Pin {
                b.set_xc(id, 0, (i % 5) as f32);
            }
        }
        let mut seen = std::collections::HashSet::new();
        let mut added = Vec::new();
        for &(a, c, t) in &edges {
            if a == c || !seen.insert((a.min(c), a.max(c))) {
                continue;
            }
            let et = match t {
                0 => EdgeType::NetPin,
                1 => EdgeType::DevicePin,
                _ => EdgeType::CouplingPinPin,
            };
            b.add_edge(a, c, et);
            added.push((a, c));
        }
        prop_assume!(!added.is_empty());
        let g = b.build();
        let cfg = SamplerConfig { hops, max_nodes };

        let mut shared = SubgraphSampler::new(&g, cfg);
        let mut buf = shared.enclosing_subgraph(added[0].0, added[0].1);
        for &(m, n) in added.iter().take(10) {
            shared.extract_into(m, n, &mut buf);
            let want = SubgraphSampler::new(&g, cfg).enclosing_subgraph(m, n);
            prop_assert_eq!(&buf.nodes, &want.nodes);
            prop_assert_eq!(&buf.node_types, &want.node_types);
            prop_assert_eq!(&buf.src, &want.src);
            prop_assert_eq!(&buf.dst, &want.dst);
            prop_assert_eq!(&buf.edge_types, &want.edge_types);
            prop_assert_eq!(&buf.dist_a, &want.dist_a);
            prop_assert_eq!(&buf.dist_b, &want.dist_b);
            prop_assert_eq!(buf.num_anchors, want.num_anchors);
            let got_bits: Vec<u32> = buf.xc.iter().map(|v| v.to_bits()).collect();
            let want_bits: Vec<u32> = want.xc.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(got_bits, want_bits);
        }
    }

    #[test]
    fn rwse_values_are_probabilities(
        edges in proptest::collection::vec((0u32..20, 0u32..20), 1..60),
    ) {
        let mut b = GraphBuilder::new();
        for i in 0..20u32 {
            b.add_node(NodeType::Net, &format!("v{i}"));
        }
        let mut seen = std::collections::HashSet::new();
        let mut any = None;
        for &(a, c) in &edges {
            if a == c || !seen.insert((a.min(c), a.max(c))) {
                continue;
            }
            b.add_edge(a, c, EdgeType::NetPin);
            any = Some(a);
        }
        prop_assume!(any.is_some());
        let g = b.build();
        let mut sampler = SubgraphSampler::new(&g, SamplerConfig { hops: 3, max_nodes: 64 });
        let sub = sampler.node_subgraph(any.unwrap());
        if let PeFeatures::Dense { data, .. } = compute_pe(&sub, PeKind::Rwse { k: 6 }) {
            for &v in &data {
                prop_assert!((0.0..=1.0 + 1e-5).contains(&v), "rwse value {v}");
            }
        }
    }
}

/// A grammar-enumerated design carried through the full pipeline once:
/// build -> validity filter -> extraction -> graph conversion.
struct GrammarCase {
    design: Design,
    spf: SpfFile,
    graph: CircuitGraph,
    map: NodeMap,
}

/// A small corpus of designs sampled evenly across the enumeration order
/// (all families, sizes 100..2600), built once and shared by every case.
fn grammar_corpus() -> &'static [GrammarCase] {
    static CORPUS: OnceLock<Vec<GrammarCase>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let terms = enumerate_terms(None, 100, 2600);
        assert!(terms.len() >= 12, "size window too narrow: {}", terms.len());
        let stride = (terms.len() / 12).max(1);
        terms
            .iter()
            .step_by(stride)
            .take(12)
            .map(|t| {
                let design = build_term(t, 7).expect("grammar term must build");
                if let Err(v) = check_design(&design) {
                    panic!(
                        "{}: enumerated design fails validity: {}",
                        design.name, v[0]
                    );
                }
                let cfg = ExtractConfig {
                    seed: term_extract_seed(7, t),
                    ..ExtractConfig::default()
                };
                let spf = extract_parasitics(&design, &cfg);
                let (graph, map) = netlist_to_graph(&design.netlist);
                GrammarCase {
                    design,
                    spf,
                    graph,
                    map,
                }
            })
            .collect()
    })
}

proptest! {
    // The corpus designs are fixed and cached; the random input only picks
    // which design (and sampler settings) each case exercises.
    #[test]
    fn grammar_designs_survive_the_full_pipeline(idx in 0usize..12) {
        let corpus = grammar_corpus();
        let case = &corpus[idx % corpus.len()];
        let netlist = &case.design.netlist;

        // The emitted hierarchical SPICE re-parses and flattens back to a
        // netlist with the same primitive shape.
        let file = SpiceFile::parse(&case.design.spice).expect("emitted spice must parse");
        let flat = file.flatten(&case.design.name).expect("emitted spice must flatten");
        prop_assert_eq!(flat.num_devices(), netlist.num_devices());
        prop_assert_eq!(flat.num_nets(), netlist.num_nets());

        // Terminal arity matches the cell library and no terminal dangles.
        for (_, dev) in netlist.devices() {
            prop_assert_eq!(dev.terminals.len(), dev.kind.terminal_names().len());
            for &net in &dev.terminals {
                prop_assert!((net.0 as usize) < netlist.num_nets(), "dangling net in {}", dev.name);
            }
        }

        // The graph holds every net and device as a node.
        prop_assert!(case.graph.num_nodes() >= netlist.num_nets() + netlist.num_devices());

        // Every SPF node resolves to a graph node, and every value sits
        // inside the extraction clamp range.
        let (lo, hi) = ExtractConfig::default().cap_range;
        for g in &case.spf.ground_caps {
            prop_assert!(case.map.resolve(netlist, &g.node).is_some(), "unresolvable {}", g.node);
            prop_assert!(g.value > 0.0);
        }
        for c in &case.spf.coupling_caps {
            prop_assert!(case.map.resolve(netlist, &c.a).is_some(), "unresolvable {}", c.a);
            prop_assert!(case.map.resolve(netlist, &c.b).is_some(), "unresolvable {}", c.b);
            prop_assert!(c.value >= lo && c.value <= hi, "cap {} out of range", c.value);
        }
    }

    #[test]
    fn labeled_pairs_are_enumerable_after_link_injection(idx in 0usize..12) {
        // Training/eval consume SPF labels through the SEAL setup: observed
        // couplings are injected into the graph, where each labeled pair is
        // distance 1. Every labeled pair must then fall inside the candidate
        // enumeration that the sweep planner uses.
        let corpus = grammar_corpus();
        let case = &corpus[idx % corpus.len()];
        let links = LinkSet::from_spf(
            &case.spf,
            &case.design.netlist,
            &case.graph,
            &case.map,
            ExtractConfig::default().cap_range,
        );
        let injected: Vec<Edge> = links
            .p2n
            .iter()
            .chain(&links.p2p)
            .chain(&links.n2n)
            .map(|l| Edge { a: l.a, b: l.b, ty: l.ty })
            .collect();
        prop_assume!(!injected.is_empty());
        let aug = case.graph.with_injected_links(&injected);
        let candidates: std::collections::HashSet<(u32, u32)> = CandidatePairs::new(&aug, 0, 0)
            .map(|(a, b)| (a.min(b), a.max(b)))
            .collect();
        for l in &injected {
            prop_assert!(
                candidates.contains(&(l.a.min(l.b), l.a.max(l.b))),
                "labeled pair ({},{}) not enumerable in {}", l.a, l.b, case.design.name
            );
        }
    }

    #[test]
    fn sweep_sampler_matches_per_pair_sampler_on_grammar_graphs(
        idx in 0usize..12,
        hops in 1u32..3,
    ) {
        // Same sharing invariant as on random graphs, but over real
        // enumerated circuit graphs and the planner's own candidate pairs.
        let corpus = grammar_corpus();
        let case = &corpus[idx % corpus.len()];
        let pairs: Vec<(u32, u32)> = CandidatePairs::new(&case.graph, 2, 24).collect();
        prop_assume!(!pairs.is_empty());
        let cfg = SamplerConfig { hops, max_nodes: 256 };
        let mut shared = SubgraphSampler::new(&case.graph, cfg);
        let mut buf = shared.enclosing_subgraph(pairs[0].0, pairs[0].1);
        for &(m, n) in &pairs {
            shared.extract_into(m, n, &mut buf);
            let want = SubgraphSampler::new(&case.graph, cfg).enclosing_subgraph(m, n);
            prop_assert_eq!(&buf.nodes, &want.nodes);
            prop_assert_eq!(&buf.node_types, &want.node_types);
            prop_assert_eq!(&buf.src, &want.src);
            prop_assert_eq!(&buf.dst, &want.dst);
            prop_assert_eq!(&buf.edge_types, &want.edge_types);
            prop_assert_eq!(&buf.dist_a, &want.dist_a);
            prop_assert_eq!(&buf.dist_b, &want.dist_b);
            prop_assert_eq!(buf.num_anchors, want.num_anchors);
            let got_bits: Vec<u32> = buf.xc.iter().map(|v| v.to_bits()).collect();
            let want_bits: Vec<u32> = want.xc.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(got_bits, want_bits);
        }
    }
}
