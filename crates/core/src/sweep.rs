//! Full-chip sweep: streaming inference over very large candidate-pair
//! sets, plus the candidate enumeration ([`CandidatePairs`]).
//!
//! A full-chip parasitic sweep asks the same model millions of
//! questions about **one fixed graph**. [`sweep_pairs`] consumes pairs
//! from a streaming iterator in windows of [`SweepConfig::chunk`] and
//! hands each window to the crate's one query planner, the same
//! extract → dedup → forward step that [`InferenceSession`] and the
//! evaluation functions run:
//!
//! - one reused `SubgraphSampler` extracts every pair;
//! - pairs whose enclosing subgraphs are content-identical (abundant in
//!   regular layouts, where cell neighborhoods repeat thousands of
//!   times) share one prepared sample and one forward
//!   ([`SweepConfig::dedup`]);
//! - the unique samples are forwarded sorted by node count, split into
//!   [`SweepConfig::threads`] slices that run through
//!   [`subgraph_sample::par_map`].
//!
//! Only one window of prepared samples and results is ever resident, so
//! memory is bounded by the window, not the pair count
//! ([`SweepStats::peak_resident`] shows it). Because `predict` and
//! `serve` answer through the same planner, sweep output for a pair
//! equals [`InferenceSession::predict_links`] / `predict_couplings`
//! (and hence `cirgps predict`) bit for bit by construction; the unit
//! tests and the CI smoke leg check it on the exact bits.
//!
//! [`InferenceSession`]: crate::InferenceSession
//! [`InferenceSession::predict_links`]:
//! crate::InferenceSession::predict_links

use circuit_graph::{CircuitGraph, NodeStamps, NodeType};
use subgraph_sample::{SamplerConfig, XcNormalizer};

use crate::model::CircuitGps;
use crate::plan::Planner;

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
    /// Slices of the batched forward, run through
    /// [`subgraph_sample::par_map`] (at most one worker per core;
    /// 1 = inline).
    pub threads: usize,
    /// Deduplicate content-identical subgraphs within a window (exact
    /// content comparison — semantics-free, disable only for measurement).
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
    let mut planner = Planner::new(model, xcn.clone(), graph, cfg.sampler);
    let reg = cfg.task == SweepTask::Coupling;
    let mut iter = pairs.into_iter();
    let mut window: Vec<(u32, u32)> = Vec::with_capacity(cfg.chunk);
    loop {
        window.clear();
        window.extend(iter.by_ref().take(cfg.chunk));
        if window.is_empty() {
            break;
        }
        // The planner reads `(n, n)` as a ground query; a sweep scores
        // pairs only.
        assert!(
            window.iter().all(|&(a, b)| a != b),
            "sweep pairs need two distinct nodes"
        );
        let (values, forwards) = planner.predict(&window, reg, cfg.threads, cfg.dedup);
        stats.peak_resident = stats.peak_resident.max(forwards);
        stats.unique_forwards += forwards;
        stats.dedup_hits += window.len() - forwards;
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
    use crate::config::AttnKind;
    use crate::toy::{model_with, toy_graph_and_links, TOY_CFG};

    fn toy_model() -> CircuitGps {
        model_with(AttnKind::Performer { features: 8 })
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
    fn dedup_is_semantics_free_and_reduces_forwards() {
        let (g, links) = toy_graph_and_links();
        let xcn = XcNormalizer::fit(&[&g]);
        // Repeat the pair list: every repeated pair must dedup within a
        // window and answer identically.
        let mut pairs = links.clone();
        pairs.extend_from_slice(&links);
        let base = SweepConfig {
            task: SweepTask::Link,
            sampler: TOY_CFG,
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
            sampler: TOY_CFG,
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
            sampler: TOY_CFG,
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
            sampler: TOY_CFG,
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
