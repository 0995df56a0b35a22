//! Full-chip sweep planner: batch extraction + inference over very large
//! candidate-pair sets.
//!
//! `predict`/`serve` answer one pair at a time: extract the enclosing
//! subgraph, compute the PE, run one forward. A full-chip parasitic
//! sweep asks the same model millions of questions about **one fixed
//! graph**, and the independent-query loop wastes almost all of its
//! time recomputing work that repeats across pairs. This module plans
//! the whole workload:
//!
//! 1. **Chunking** — pairs are consumed from a streaming iterator in
//!    windows of [`SweepConfig::chunk`]; only one window of prepared
//!    samples and results is ever resident, so memory is bounded by the
//!    window, not the pair count ([`SweepStats::peak_resident`] proves
//!    it).
//! 2. **Shared extraction** — one [`SubgraphSampler`] (the extractor
//!    training and `predict` use) serves every pair, reusing its stamp
//!    set, local CSR and one output [`Subgraph`]'s buffers across the
//!    sweep.
//! 3. **Neighborhood deduplication** — the model's forward pass depends
//!    only on the subgraph's *content* (types, features, arcs, anchor
//!    distances), never on parent node ids. Pairs whose enclosing
//!    subgraphs are content-identical — abundant in regular layouts,
//!    where cell neighborhoods repeat thousands of times — share one
//!    prepared sample: PE (including LapPE), normalization and the
//!    forward pass run once per *neighborhood class* and fan out to
//!    every matching pair.
//! 4. **Size-binned batching** — unique samples are ordered by node
//!    count before being packed into the block-diagonal batch
//!    machinery, keeping tiles homogeneous; [`SweepConfig::threads`]
//!    splits the batch into slices that run through the rayon shim.
//!
//! Every step is bitwise-safe: sweep output for a pair equals
//! [`InferenceSession::predict_links`] / `predict_couplings` (and hence
//! `cirgps predict`) for that pair, which the unit tests and the CI
//! smoke leg assert on the exact bits.
//!
//! [`InferenceSession::predict_links`]:
//! crate::InferenceSession::predict_links

use std::collections::HashMap;

use circuit_graph::{CircuitGraph, NodeStamps, NodeType};
use rayon::prelude::*;
use subgraph_sample::{SamplerConfig, Subgraph, SubgraphSampler, XcNormalizer};

use crate::model::CircuitGps;
use crate::prepared::PreparedSample;

/// Which per-pair quantity a sweep predicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepTask {
    /// Link-existence probability (`predict_link_batch`).
    Link,
    /// Normalized coupling capacitance (`predict_reg_batch`).
    Coupling,
}

/// Sweep planner parameters.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Predicted quantity.
    pub task: SweepTask,
    /// Enclosing-subgraph extraction parameters (must match the
    /// single-query path for the parity contract to hold).
    pub sampler: SamplerConfig,
    /// Pairs per planned window: the bounded-memory knob. Results are
    /// emitted (and memory released) once per window.
    pub chunk: usize,
    /// Slices of the batched forward, run through the rayon shim (at
    /// most one worker per core; 1 = inline).
    pub threads: usize,
    /// Deduplicate content-identical subgraphs within a window (exact
    /// byte comparison — semantics-free, disable only for measurement).
    pub dedup: bool,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            task: SweepTask::Link,
            sampler: SamplerConfig::default(),
            chunk: 4096,
            threads: 1,
            dedup: true,
        }
    }
}

/// What a finished (or aborted) sweep did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Pairs consumed from the input.
    pub pairs: usize,
    /// Windows processed (`ceil(pairs / chunk)` unless aborted).
    pub chunks: usize,
    /// Forward passes actually run (== unique neighborhood classes when
    /// dedup is on, == `pairs` when off).
    pub unique_forwards: usize,
    /// Pairs answered from a window-local duplicate (no extra forward).
    pub dedup_hits: usize,
    /// Largest number of prepared samples resident at once — bounded by
    /// [`SweepConfig::chunk`] by construction.
    pub peak_resident: usize,
    /// True if the emit callback stopped the sweep early.
    pub aborted: bool,
}

/// Serializes the forward-relevant content of a subgraph: everything
/// except the parent node ids. Two subgraphs with equal keys produce
/// bitwise-identical predictions (the forward pass never reads
/// `Subgraph::nodes`), and comparison is by full byte equality, so a
/// hash collision cannot merge distinct neighborhoods.
fn neighborhood_key(sub: &Subgraph) -> Vec<u8> {
    let n = sub.num_nodes();
    let e = sub.src.len();
    let mut key = Vec::with_capacity(16 + n * (1 + 4 * circuit_graph::XC_DIM / 4 + 2) + e * 9);
    key.extend_from_slice(&(n as u32).to_le_bytes());
    key.extend_from_slice(&(e as u32).to_le_bytes());
    key.push(sub.num_anchors as u8);
    for &t in &sub.node_types {
        key.push(t as u8);
    }
    for &x in &sub.xc {
        key.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    for &s in &sub.src {
        key.extend_from_slice(&(s as u32).to_le_bytes());
    }
    for &d in &sub.dst {
        key.extend_from_slice(&(d as u32).to_le_bytes());
    }
    for &t in &sub.edge_types {
        key.push(t as u8);
    }
    for &d in &sub.dist_a {
        key.push(d as u8);
    }
    for &d in &sub.dist_b {
        key.push(d as u8);
    }
    key
}

/// Runs the batched forward over `uniques` in size-binned order, split
/// into `threads` slices that fan out through the rayon shim, returning
/// one prediction per unique sample (in `uniques` order).
fn predict_uniques(
    model: &CircuitGps,
    uniques: &[PreparedSample],
    task: SweepTask,
    threads: usize,
) -> Vec<f32> {
    // Size binning: order by node count so each tile packs graphs of
    // similar size. Per-graph outputs are independent of batch
    // composition (block-diagonal attention, per-graph pooling), so any
    // order and any split is bitwise-equivalent.
    let mut order: Vec<usize> = (0..uniques.len()).collect();
    order.sort_by_key(|&i| (uniques[i].sub.num_nodes(), i));

    let run = |idxs: &[usize]| -> Vec<f32> {
        let refs: Vec<&PreparedSample> = idxs.iter().map(|&i| &uniques[i]).collect();
        match task {
            SweepTask::Link => model.predict_link_batch(&refs),
            SweepTask::Coupling => model.predict_reg_batch(&refs),
        }
    };

    let per = order.len().div_ceil(threads.max(1)).max(1);
    let preds: Vec<f32> = order.par_chunks(per).flat_map_iter(run).collect();
    let mut out = vec![0.0f32; uniques.len()];
    for (&i, p) in order.iter().zip(preds) {
        out[i] = p;
    }
    out
}

/// Per-window output sink for [`sweep_pairs`]: called with the window's
/// pairs (in input order) and the aligned predictions; return `false`
/// to abort the sweep.
pub type SweepSink<'a> = dyn FnMut(&[(u32, u32)], &[f32]) -> bool + 'a;

/// Executes a planned sweep over `pairs`, streaming results through
/// `emit` one window at a time.
///
/// `emit` receives the window's pairs (in input order) and the aligned
/// predictions; returning `false` aborts the sweep (the partial stats
/// are still returned, with [`SweepStats::aborted`] set). The
/// per-window contract bounds memory: nothing from a window outlives
/// its `emit` call.
///
/// Parity contract: for every pair, the emitted value is bitwise-equal
/// to what [`InferenceSession`](crate::InferenceSession) (and therefore
/// `cirgps predict`) produces for that pair over the same graph, model
/// and sampler config.
///
/// # Panics
///
/// Panics if a pair repeats an anchor (`a == b`) or references a node
/// id outside `graph`, or if [`SweepConfig::chunk`] is zero.
pub fn sweep_pairs(
    model: &CircuitGps,
    xcn: &XcNormalizer,
    graph: &CircuitGraph,
    pairs: impl IntoIterator<Item = (u32, u32)>,
    cfg: &SweepConfig,
    emit: &mut SweepSink<'_>,
) -> SweepStats {
    assert!(cfg.chunk > 0, "sweep chunk must be positive");
    let mut stats = SweepStats::default();
    let mut sampler = SubgraphSampler::new(graph, cfg.sampler);
    let mut scratch = Subgraph::default();

    let mut iter = pairs.into_iter();
    let mut window: Vec<(u32, u32)> = Vec::with_capacity(cfg.chunk);
    // Window-local state, cleared per chunk (the bounded-memory window).
    let mut memo: HashMap<Vec<u8>, usize> = HashMap::new();
    let mut uniques: Vec<PreparedSample> = Vec::new();
    let mut pair_class: Vec<usize> = Vec::with_capacity(cfg.chunk);

    loop {
        window.clear();
        while window.len() < cfg.chunk {
            match iter.next() {
                Some(p) => window.push(p),
                None => break,
            }
        }
        if window.is_empty() {
            break;
        }

        memo.clear();
        uniques.clear();
        pair_class.clear();
        for &(a, b) in &window {
            sampler.extract_into(a, b, &mut scratch);
            let class = if cfg.dedup {
                let key = neighborhood_key(&scratch);
                match memo.get(&key) {
                    Some(&c) => {
                        stats.dedup_hits += 1;
                        c
                    }
                    None => {
                        let c = uniques.len();
                        memo.insert(key, c);
                        uniques.push(PreparedSample::new(
                            scratch.clone(),
                            model.cfg.pe,
                            xcn,
                            1.0,
                            0.0,
                        ));
                        c
                    }
                }
            } else {
                uniques.push(PreparedSample::new(
                    scratch.clone(),
                    model.cfg.pe,
                    xcn,
                    1.0,
                    0.0,
                ));
                uniques.len() - 1
            };
            pair_class.push(class);
        }

        stats.peak_resident = stats.peak_resident.max(uniques.len());
        stats.unique_forwards += uniques.len();
        let class_preds = predict_uniques(model, &uniques, cfg.task, cfg.threads);
        let values: Vec<f32> = pair_class.iter().map(|&c| class_preds[c]).collect();

        stats.pairs += window.len();
        stats.chunks += 1;
        if !emit(&window, &values) {
            stats.aborted = true;
            break;
        }
    }
    stats
}

/// Streaming candidate-pair enumeration for a full-chip sweep: every
/// unordered pair `(a, b)` with `a < b`, both endpoints couplable (not
/// devices), and `b` within two hops of `a` — the neighborhood that
/// SPF coupling candidates live in.
///
/// Deterministic: anchors ascend, partners follow adjacency order
/// (distance 1 first, then distance 2). `per_node_cap` bounds partners
/// per anchor (0 = unlimited) so hub nets cannot blow up the pair
/// count quadratically; `max_pairs` caps the total (0 = unlimited).
#[derive(Debug)]
pub struct CandidatePairs<'g> {
    graph: &'g CircuitGraph,
    per_node_cap: usize,
    max_pairs: usize,
    next_anchor: u32,
    emitted: usize,
    buf: Vec<(u32, u32)>,
    pos: usize,
    seen: NodeStamps,
}

impl<'g> CandidatePairs<'g> {
    /// Creates the enumeration over `graph`.
    pub fn new(graph: &'g CircuitGraph, per_node_cap: usize, max_pairs: usize) -> Self {
        CandidatePairs {
            graph,
            per_node_cap,
            max_pairs,
            next_anchor: 0,
            emitted: 0,
            buf: Vec::new(),
            pos: 0,
            seen: NodeStamps::new(graph.num_nodes()),
        }
    }

    fn couplable(&self, v: u32) -> bool {
        self.graph.node_type(v) != NodeType::Device
    }

    /// Fills `buf` with anchor `a`'s partners (assumes `a` couplable).
    fn fill(&mut self, a: u32) {
        self.buf.clear();
        self.pos = 0;
        self.seen.begin();
        self.seen.insert(a, 0);
        let cap = if self.per_node_cap == 0 {
            usize::MAX
        } else {
            self.per_node_cap
        };
        let (nbrs, _) = self.graph.adjacency(a);
        // Distance 1, in adjacency order.
        for &w in nbrs {
            if self.buf.len() >= cap {
                return;
            }
            if self.seen.insert(w, 0) && w > a && self.couplable(w) {
                self.buf.push((a, w));
            }
        }
        // Distance 2, in adjacency order of each distance-1 node.
        for &w in nbrs {
            for &b in self.graph.adjacency(w).0 {
                if self.buf.len() >= cap {
                    return;
                }
                if self.seen.insert(b, 0) && b > a && self.couplable(b) {
                    self.buf.push((a, b));
                }
            }
        }
    }
}

impl Iterator for CandidatePairs<'_> {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        if self.max_pairs != 0 && self.emitted >= self.max_pairs {
            return None;
        }
        loop {
            if self.pos < self.buf.len() {
                let p = self.buf[self.pos];
                self.pos += 1;
                self.emitted += 1;
                return Some(p);
            }
            let a = self.next_anchor;
            if (a as usize) >= self.graph.num_nodes() {
                return None;
            }
            self.next_anchor += 1;
            if self.couplable(a) {
                self.fill(a);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AttnKind, ModelConfig, MpnnKind};
    use crate::infer::InferenceSession;
    use circuit_graph::{Edge, EdgeType, GraphBuilder};

    /// Two pin clusters joined by a device path, with injected coupling
    /// links — the same shape as the inference tests, so sweeps see a
    /// mix of repeated (dedupable) and distinct neighborhoods.
    fn toy_graph_and_links() -> (CircuitGraph, Vec<(u32, u32)>) {
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
        let injected: Vec<Edge> = links
            .iter()
            .map(|&(a, b2)| Edge {
                a,
                b: b2,
                ty: EdgeType::CouplingPinPin,
            })
            .collect();
        (g.with_injected_links(&injected), links)
    }

    fn toy_model() -> CircuitGps {
        CircuitGps::new(ModelConfig {
            hidden_dim: 16,
            pe_dim: 4,
            heads: 2,
            num_layers: 2,
            mpnn: MpnnKind::GatedGcn,
            attn: AttnKind::Performer { features: 8 },
            ..Default::default()
        })
    }

    fn collect_sweep(
        model: &CircuitGps,
        xcn: &XcNormalizer,
        g: &CircuitGraph,
        pairs: &[(u32, u32)],
        cfg: &SweepConfig,
    ) -> (Vec<f32>, SweepStats) {
        let mut got: Vec<f32> = Vec::new();
        let stats = sweep_pairs(
            model,
            xcn,
            g,
            pairs.iter().copied(),
            cfg,
            &mut |_, values| {
                got.extend_from_slice(values);
                true
            },
        );
        (got, stats)
    }

    #[test]
    fn sweep_matches_session_bitwise_for_both_tasks() {
        let (g, links) = toy_graph_and_links();
        let xcn = XcNormalizer::fit(&[&g]);
        let sampler = SamplerConfig {
            hops: 1,
            max_nodes: 64,
        };
        let model = toy_model();
        let mut session =
            InferenceSession::shared(&model, xcn.clone(), &g, sampler).with_batch_size(4);
        let want_link = session.predict_links(&links);
        let want_cap = session.predict_couplings(&links);

        for (task, want) in [
            (SweepTask::Link, &want_link),
            (SweepTask::Coupling, &want_cap),
        ] {
            for threads in [1usize, 3] {
                let cfg = SweepConfig {
                    task,
                    sampler,
                    chunk: 7, // forces several windows over 20 pairs
                    threads,
                    dedup: true,
                };
                let (got, stats) = collect_sweep(&model, &xcn, &g, &links, &cfg);
                assert_eq!(got.len(), links.len());
                assert_eq!(stats.pairs, links.len());
                for (i, (a, b)) in got.iter().zip(want).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{task:?} threads={threads} pair {i}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn dedup_is_semantics_free_and_reduces_forwards() {
        let (g, links) = toy_graph_and_links();
        let xcn = XcNormalizer::fit(&[&g]);
        // Repeat the pair list: every repeated pair must dedup within a
        // window and answer identically.
        let mut pairs = links.clone();
        pairs.extend_from_slice(&links);
        let base = SweepConfig {
            task: SweepTask::Link,
            sampler: SamplerConfig {
                hops: 1,
                max_nodes: 64,
            },
            chunk: pairs.len(),
            threads: 1,
            dedup: true,
        };
        let model = toy_model();
        let (with, stats_with) = collect_sweep(&model, &xcn, &g, &pairs, &base);
        let (without, stats_without) = collect_sweep(
            &model,
            &xcn,
            &g,
            &pairs,
            &SweepConfig {
                dedup: false,
                ..base
            },
        );
        for (a, b) in with.iter().zip(&without) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(stats_without.unique_forwards, pairs.len());
        assert!(
            stats_with.unique_forwards <= links.len(),
            "duplicated input must not add forwards: {} > {}",
            stats_with.unique_forwards,
            links.len()
        );
        assert!(stats_with.dedup_hits >= links.len());
    }

    #[test]
    fn window_bounds_resident_samples_and_preserves_order() {
        let (g, links) = toy_graph_and_links();
        let xcn = XcNormalizer::fit(&[&g]);
        let model = toy_model();
        let cfg = SweepConfig {
            task: SweepTask::Link,
            sampler: SamplerConfig {
                hops: 1,
                max_nodes: 64,
            },
            chunk: 4,
            threads: 1,
            dedup: true,
        };
        let mut seen_pairs: Vec<(u32, u32)> = Vec::new();
        let stats = sweep_pairs(
            &model,
            &xcn,
            &g,
            links.iter().copied(),
            &cfg,
            &mut |pairs, values| {
                assert!(pairs.len() <= 4);
                assert_eq!(pairs.len(), values.len());
                seen_pairs.extend_from_slice(pairs);
                true
            },
        );
        assert_eq!(seen_pairs, links, "emitted in input order");
        assert_eq!(stats.chunks, links.len().div_ceil(4));
        assert!(
            stats.peak_resident <= 4,
            "resident window {} exceeds chunk 4",
            stats.peak_resident
        );
    }

    #[test]
    fn emit_false_aborts_after_current_window() {
        let (g, links) = toy_graph_and_links();
        let xcn = XcNormalizer::fit(&[&g]);
        let model = toy_model();
        let cfg = SweepConfig {
            chunk: 5,
            sampler: SamplerConfig {
                hops: 1,
                max_nodes: 64,
            },
            ..Default::default()
        };
        let mut calls = 0;
        let stats = sweep_pairs(
            &model,
            &xcn,
            &g,
            links.iter().copied(),
            &cfg,
            &mut |_, _| {
                calls += 1;
                false
            },
        );
        assert_eq!(calls, 1);
        assert!(stats.aborted);
        assert_eq!(stats.pairs, 5);
        assert_eq!(stats.chunks, 1);
    }

    #[test]
    fn candidate_pairs_are_valid_capped_and_deterministic() {
        let (g, _) = toy_graph_and_links();
        let all: Vec<(u32, u32)> = CandidatePairs::new(&g, 0, 0).collect();
        assert!(!all.is_empty());
        for &(a, b) in &all {
            assert!(a < b, "({a},{b}) not ordered");
            assert_ne!(g.node_type(a), NodeType::Device);
            assert_ne!(g.node_type(b), NodeType::Device);
            let two_hop = g.bfs_distances(a, 2);
            assert!(two_hop[b as usize] <= 2, "({a},{b}) farther than 2 hops");
        }
        let mut seen = std::collections::HashSet::new();
        assert!(all.iter().all(|p| seen.insert(*p)), "duplicate pair");
        // Every couplable 2-hop neighbor pair is present when uncapped.
        for a in 0..g.num_nodes() as u32 {
            if g.node_type(a) == NodeType::Device {
                continue;
            }
            let dist = g.bfs_distances(a, 2);
            for b in (a + 1)..g.num_nodes() as u32 {
                if g.node_type(b) != NodeType::Device && dist[b as usize] <= 2 {
                    assert!(seen.contains(&(a, b)), "missing candidate ({a},{b})");
                }
            }
        }
        assert_eq!(
            all,
            CandidatePairs::new(&g, 0, 0).collect::<Vec<_>>(),
            "non-deterministic enumeration"
        );
        // Caps.
        let capped: Vec<(u32, u32)> = CandidatePairs::new(&g, 2, 0).collect();
        for a in capped.iter().map(|p| p.0) {
            assert!(capped.iter().filter(|p| p.0 == a).count() <= 2);
        }
        assert_eq!(CandidatePairs::new(&g, 0, 3).count(), 3);
    }

    #[test]
    fn sweeping_enumerated_pairs_streams_end_to_end() {
        let (g, _) = toy_graph_and_links();
        let xcn = XcNormalizer::fit(&[&g]);
        let model = toy_model();
        let cfg = SweepConfig {
            chunk: 8,
            sampler: SamplerConfig {
                hops: 1,
                max_nodes: 64,
            },
            ..Default::default()
        };
        let mut count = 0usize;
        let stats = sweep_pairs(
            &model,
            &xcn,
            &g,
            CandidatePairs::new(&g, 4, 0),
            &cfg,
            &mut |pairs, values| {
                count += pairs.len();
                assert!(values.iter().all(|p| (0.0..=1.0).contains(p)));
                true
            },
        );
        assert_eq!(stats.pairs, count);
        assert!(stats.unique_forwards <= stats.pairs);
        assert!(stats.peak_resident <= 8);
    }
}
