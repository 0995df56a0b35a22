//! The one query planner: every way of asking the model about pairs or
//! nodes — `sweep`, `predict`, `serve` and `eval` — turns its queries
//! into forward passes here.
//!
//! [`Planner::predict`] runs one extract → dedup → forward step over a
//! slice of query keys:
//!
//! 1. **Extraction** — each key is extracted into one reused scratch
//!    [`Subgraph`]: a pair `(a, b)` through the pair sampler, a ground
//!    key `(n, n)` through a 2-hop node sampler with the same node cap
//!    (the paper's radius for node tasks).
//! 2. **Content deduplication** — the forward pass reads only a
//!    subgraph's content (types, features, arcs, anchor distances),
//!    never its parent node ids, so keys whose subgraphs are
//!    content-identical (abundant in regular layouts) share one prepared
//!    sample: PE, normalization and the forward run once per class.
//! 3. **Size-sorted forward** — [`forward`] orders the unique samples by
//!    node count, so each tile packs graphs of similar size, deals them
//!    round-robin into `threads` slices (each still size-sorted, with an
//!    even share of the work) that fan out through
//!    [`subgraph_sample::par_map`], and puts the predictions back in
//!    input order.
//!
//! A graph's prediction never depends on the rest of its batch
//! (block-diagonal attention, per-graph pooling, eval-mode batch norm),
//! so none of these steps changes a bit. Since every caller goes through
//! them, a query gets the same answer whichever entry point asks it: the
//! sweep == `predict` == `serve` parity holds by construction.

use std::collections::HashMap;

use circuit_graph::{CircuitGraph, XC_DIM};
use subgraph_sample::{par_map, SamplerConfig, Subgraph, SubgraphSampler, XcNormalizer};

use crate::model::CircuitGps;
use crate::prepared::PreparedSample;

/// Serializes the forward-relevant content of a subgraph: everything
/// except the parent node ids. Two subgraphs with equal keys produce
/// bitwise-identical predictions (the forward pass never reads
/// `Subgraph::nodes`), and comparison is by full equality, so a hash
/// collision cannot merge distinct neighborhoods.
fn neighborhood_key(sub: &Subgraph) -> Vec<u32> {
    let (n, e) = (sub.num_nodes(), sub.src.len());
    let mut key = Vec::with_capacity(3 + n * (3 + XC_DIM) + e * 3);
    key.extend([n as u32, e as u32, sub.num_anchors as u32]);
    key.extend(sub.node_types.iter().map(|&t| t as u32));
    key.extend(sub.xc.iter().map(|x| x.to_bits()));
    key.extend(sub.src.iter().map(|&s| s as u32));
    key.extend(sub.dst.iter().map(|&d| d as u32));
    key.extend(sub.edge_types.iter().map(|&t| t as u32));
    key.extend_from_slice(&sub.dist_a);
    key.extend_from_slice(&sub.dist_b);
    key
}

/// Runs the batched forward over `samples` (the link head, or the
/// regression head when `reg`) in size-sorted order, dealt into
/// `threads` slices that fan out through [`par_map`], and returns one
/// prediction per sample in `samples` order.
pub(crate) fn forward(
    model: &CircuitGps,
    samples: &[PreparedSample],
    reg: bool,
    threads: usize,
) -> Vec<f32> {
    if samples.is_empty() {
        return Vec::new();
    }
    let mut order: Vec<usize> = (0..samples.len()).collect();
    order.sort_by_key(|&i| (samples[i].sub.num_nodes(), i));
    // Deal the sorted order round-robin: every slice stays size-sorted
    // and gets an even share of the small and the large graphs.
    let t = threads.clamp(1, samples.len());
    let slices: Vec<Vec<usize>> = (0..t)
        .map(|k| order.iter().skip(k).step_by(t).copied().collect())
        .collect();

    let preds = par_map(&slices, |idxs| {
        let refs: Vec<&PreparedSample> = idxs.iter().map(|&i| &samples[i]).collect();
        if reg {
            model.predict_reg_batch(&refs)
        } else {
            model.predict_link_batch(&refs)
        }
    });
    let mut out = vec![0.0f32; samples.len()];
    for (idxs, p) in slices.iter().zip(preds) {
        for (&i, v) in idxs.iter().zip(p) {
            out[i] = v;
        }
    }
    out
}

/// The extract → dedup → forward step over one graph, with the
/// extraction scratch it reuses across calls (see the module docs).
#[derive(Debug)]
pub(crate) struct Planner<'g> {
    model: &'g CircuitGps,
    xcn: XcNormalizer,
    pair_sampler: SubgraphSampler<'g>,
    node_sampler: SubgraphSampler<'g>,
    scratch: Subgraph,
}

impl<'g> Planner<'g> {
    /// A planner over `graph`: pair keys use `sampler_cfg`, ground keys
    /// the same node cap at 2 hops.
    pub(crate) fn new(
        model: &'g CircuitGps,
        xcn: XcNormalizer,
        graph: &'g CircuitGraph,
        sampler_cfg: SamplerConfig,
    ) -> Self {
        let node_cfg = SamplerConfig {
            hops: 2,
            ..sampler_cfg
        };
        Planner {
            model,
            xcn,
            pair_sampler: SubgraphSampler::new(graph, sampler_cfg),
            node_sampler: SubgraphSampler::new(graph, node_cfg),
            scratch: Subgraph::default(),
        }
    }

    /// The model every forward runs on.
    pub(crate) fn model(&self) -> &'g CircuitGps {
        self.model
    }

    /// Predicts every key, in `keys` order: `(n, n)` is the ground query
    /// of node `n`, any other key a pair. Content-identical subgraphs
    /// share one forward when `dedup` is set. Returns the predictions and
    /// the number of forwards run; no prepared sample outlives the call.
    pub(crate) fn predict(
        &mut self,
        keys: &[(u32, u32)],
        reg: bool,
        threads: usize,
        dedup: bool,
    ) -> (Vec<f32>, usize) {
        let mut memo: HashMap<Vec<u32>, usize> = HashMap::new();
        let mut uniques: Vec<PreparedSample> = Vec::new();
        let mut classes = Vec::with_capacity(keys.len());
        for &(a, b) in keys {
            if a == b {
                self.scratch = self.node_sampler.node_subgraph(a);
            } else {
                self.pair_sampler.extract_into(a, b, &mut self.scratch);
            }
            let next = uniques.len();
            let class = if dedup {
                *memo.entry(neighborhood_key(&self.scratch)).or_insert(next)
            } else {
                next
            };
            if class == next {
                // A ground subgraph is a fresh allocation, so it moves;
                // the pair scratch is kept and copied at its exact size,
                // which keeps a sweep window's samples compact.
                let sub = if a == b {
                    std::mem::take(&mut self.scratch)
                } else {
                    self.scratch.clone()
                };
                let sample = PreparedSample::new(sub, self.model.cfg.pe, &self.xcn, 1.0, 0.0);
                uniques.push(sample);
            }
            classes.push(class);
        }
        // The keys are dead weight during the forward.
        drop(memo);
        let preds = forward(self.model, &uniques, reg, threads);
        (classes.iter().map(|&c| preds[c]).collect(), uniques.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AttnKind;
    use crate::toy::{model_with, toy_design, toy_graph_and_links, TOY_CFG};
    use crate::{
        evaluate_link, link_metrics, sweep_pairs, InferenceSession, SweepConfig, SweepTask,
    };

    /// Extracts one key's subgraph with a fresh sampler: the 2-hop node
    /// subgraph for `(n, n)`, the enclosing pair subgraph otherwise.
    fn fresh_sample(
        model: &CircuitGps,
        xcn: &XcNormalizer,
        g: &CircuitGraph,
        (a, b): (u32, u32),
        label: f32,
    ) -> PreparedSample {
        let sub = if a == b {
            SubgraphSampler::new(g, SamplerConfig { hops: 2, ..TOY_CFG }).node_subgraph(a)
        } else {
            SubgraphSampler::new(g, TOY_CFG).enclosing_subgraph(a, b)
        };
        PreparedSample::new(sub, model.cfg.pe, xcn, label, 0.0)
    }

    /// The independent reference: one key, one sample, one forward.
    fn reference(
        model: &CircuitGps,
        xcn: &XcNormalizer,
        g: &CircuitGraph,
        keys: &[(u32, u32)],
        reg: bool,
    ) -> Vec<f32> {
        keys.iter()
            .map(|&k| {
                let s = fresh_sample(model, xcn, g, k, 1.0);
                if reg {
                    model.predict_reg_batch(&[&s])[0]
                } else {
                    model.predict_link_batch(&[&s])[0]
                }
            })
            .collect()
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn neighborhood_key_tells_apart_every_forward_input() {
        let (g, links) = toy_graph_and_links();
        let (a, b) = links[0];
        let base = SubgraphSampler::new(&g, TOY_CFG).enclosing_subgraph(a, b);
        assert!(base.num_nodes() >= 2 && base.num_edges() > 0);
        let key = neighborhood_key(&base);

        // The forward pass never reads the parent ids.
        let mut moved = base.clone();
        moved.nodes.iter_mut().for_each(|n| *n += 1);
        assert_eq!(neighborhood_key(&moved), key);

        // Everything else it reads is in the key. The anchor count alone
        // tells a pair subgraph from a node subgraph of equal content,
        // which `predict_batch`'s shared coupling and ground memo needs.
        type Edit = fn(&mut Subgraph);
        let edits: [(&str, Edit); 6] = [
            ("node_types", |s| s.node_types[0] ^= 1),
            ("edge_types", |s| s.edge_types[0] ^= 1),
            ("src", |s| s.src[0] = (s.src[0] + 1) % s.num_nodes()),
            ("dst", |s| s.dst[0] = (s.dst[0] + 1) % s.num_nodes()),
            ("xc", |s| s.xc[0] += 1.0),
            ("num_anchors", |s| s.num_anchors = 1),
        ];
        for (field, edit) in edits {
            let mut changed = base.clone();
            edit(&mut changed);
            assert_ne!(neighborhood_key(&changed), key, "{field}");
        }
    }

    #[test]
    fn every_entry_point_matches_a_per_key_reference_bitwise() {
        // The plain design holds pairs that differ only in features; the
        // injected one mixes in distinct neighborhoods.
        let (plain, links) = toy_design();
        let (injected, _) = toy_graph_and_links();
        for g in [&plain, &injected] {
            check_entry_points(g, &links);
        }
    }

    /// Session, sweep and evaluation answers over `g`, each against the
    /// per-key reference.
    fn check_entry_points(g: &CircuitGraph, links: &[(u32, u32)]) {
        let xcn = XcNormalizer::fit(&[g]);
        let model = model_with(AttnKind::Performer { features: 8 });

        // Mirrored keys in the two clusters (hub + unlinked pin, and that
        // pin alone) whose subgraphs are content-identical.
        let key = |k: (u32, u32)| neighborhood_key(&fresh_sample(&model, &xcn, g, k, 1.0).sub);
        assert_eq!(key((0, 6)), key((7, 13)), "pair twins");
        assert_eq!(key((6, 6)), key((13, 13)), "ground twins");

        // The first chunk of four holds both twins and a repeated key.
        let mut pairs = vec![(0, 6), links[0], (7, 13), links[0]];
        pairs.extend_from_slice(&links[1..]);
        let nodes = [6u32, links[0].0, 13, links[0].0, 0, 16, links[3].1];
        let ground: Vec<(u32, u32)> = nodes.iter().map(|&n| (n, n)).collect();
        let want_link = bits(&reference(&model, &xcn, g, &pairs, false));
        let want_cap = bits(&reference(&model, &xcn, g, &pairs, true));

        // Session: every query kind, and the cache counts keys, not
        // forwards (the twins are two misses).
        let mut session =
            InferenceSession::shared(&model, xcn.clone(), g, TOY_CFG).with_batch_size(4);
        assert_eq!(bits(&session.predict_links(&pairs)), want_link);
        assert_eq!(session.cache_stats(), (1, pairs.len() as u64 - 1));
        assert_eq!(bits(&session.predict_couplings(&pairs)), want_cap);
        assert_eq!(
            bits(&session.predict_ground(&nodes)),
            bits(&reference(&model, &xcn, g, &ground, true))
        );

        // Sweep: both heads, dedup on and off, one and three slices.
        for (task, want) in [
            (SweepTask::Link, &want_link),
            (SweepTask::Coupling, &want_cap),
        ] {
            for dedup in [true, false] {
                for threads in [1usize, 3] {
                    let cfg = SweepConfig {
                        task,
                        sampler: TOY_CFG,
                        chunk: 7, // several windows; the first holds the twins
                        threads,
                        dedup,
                    };
                    let mut got = Vec::new();
                    let stats = sweep_pairs(
                        &model,
                        &xcn,
                        g,
                        pairs.iter().copied(),
                        &cfg,
                        &mut |_, values| {
                            got.extend_from_slice(values);
                            true
                        },
                    );
                    let at = format!("{task:?} dedup={dedup} threads={threads}");
                    assert_eq!(&bits(&got), want, "{at}");
                    assert_eq!(stats.dedup_hits >= 2, dedup, "{at}");
                    assert_eq!(stats.unique_forwards + stats.dedup_hits, pairs.len());
                }
            }
        }

        // Evaluation: pair and ground samples, scored by `evaluate_link`'s
        // forward step (one slice per core, and three).
        let keys: Vec<(u32, u32)> = pairs.iter().chain(&ground).copied().collect();
        let samples: Vec<PreparedSample> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| fresh_sample(&model, &xcn, g, k, (i % 2) as f32))
            .collect();
        let scores = reference(&model, &xcn, g, &keys, false);
        for threads in [subgraph_sample::available_cores(), 3] {
            assert_eq!(
                bits(&forward(&model, &samples, false, threads)),
                bits(&scores)
            );
        }
        let labels: Vec<f32> = samples.iter().map(|s| s.label).collect();
        assert_eq!(
            evaluate_link(&model, &samples),
            link_metrics(&scores, &labels)
        );
    }
}
