//! Tape-free batched inference: block-diagonal attention over packed
//! subgraph batches, `predict_*_batch` entry points and an
//! [`InferenceSession`] with a keyed answer cache.
//!
//! The evaluation path used to allocate a fresh autodiff tape per sample
//! and run samples one at a time. This module executes the same forward
//! pass with no tape, no gradient bookkeeping and no per-op `Var`
//! allocation, over a whole batch at once. Attention is masked
//! block-diagonally (per graph) — the same semantics the taped training
//! path uses — so a batch of `B` packed subgraphs pays `Σnᵢ²` score cost
//! instead of `(Σnᵢ)²`; and, because every kernel is shared with the
//! taped forward (see `cirgps-nn`'s `infer` module), batched predictions
//! are **bitwise-equal** to the taped [`CircuitGps::link_logits_batch`]
//! (through a sigmoid) / [`CircuitGps::reg_outputs_batch`] run on each
//! sample alone. The MPNN branch is gated per graph as well, so even a
//! zero-edge subgraph packed with edge-bearing ones predicts exactly as
//! it does solo.

use std::collections::{HashMap, HashSet, VecDeque};

use circuit_graph::{CircuitGraph, NodeType, XC_DIM};
use cirgps_nn::infer::{colvec_zip, concat_cols, gather_rows, scatter_add_rows, stable_sigmoid};
use cirgps_nn::{EdgeIndex, ParamStore, Tensor};
use subgraph_sample::{SamplerConfig, SubgraphSampler, XcNormalizer};

use crate::model::{
    assemble_batch, collect_pe_dense, collect_pe_pair, collect_pe_single, AttnBlock, BatchLayout,
    CircuitGps, GpsLayer, PeEncoder,
};
use crate::prepared::PreparedSample;

/// Overwrites the rows of zero-edge blocks in `dst` with the matching
/// rows of `src`: the per-graph MPNN gate. A zero-edge graph packed with
/// edge-bearing ones must combine exactly as it would solo (no MPNN
/// branch), so its rows are restored from the branch-free source — a
/// bitwise copy, which is what keeps packed predictions bitwise-equal to
/// per-sample ones even for edgeless subgraphs.
fn override_edgeless_blocks(
    dst: &mut Tensor,
    src: &Tensor,
    blocks: &[(usize, usize)],
    edge_counts: &[usize],
) {
    for (&(r0, len), &c) in blocks.iter().zip(edge_counts) {
        if c == 0 {
            for r in r0..r0 + len {
                dst.row_slice_mut(r).copy_from_slice(src.row_slice(r));
            }
        }
    }
}

impl GpsLayer {
    /// Tape-free eval-mode forward of one GPS layer over a packed batch.
    /// Mirrors `GpsLayer::forward` op for op (dropout is the identity in
    /// eval mode); attention runs block-diagonally and the MPNN branch
    /// is gated per graph (zero-edge blocks skip it, as they do solo).
    #[allow(clippy::too_many_arguments)] // internal: mirrors the taped signature + two fast-path flags
    fn infer(
        &self,
        params: &ParamStore,
        x: Tensor,
        e: Tensor,
        idx: &EdgeIndex,
        blocks: &[(usize, usize)],
        edge_counts: &[usize],
        typed_edges: Option<(&[usize], &Tensor)>,
        need_edge_out: bool,
    ) -> (Tensor, Tensor) {
        let (x_m, e_out) = match &self.mpnn {
            Some(g) if !idx.is_empty() => {
                let (xm, em) = g.infer_opts(params, &x, &e, idx, typed_edges, need_edge_out);
                e.recycle();
                (Some(xm), em)
            }
            _ => (None, e),
        };
        // Only a *mixed* pack (some blocks with edges, some without)
        // needs the gate; an all-edgeless pack never runs the MPNN.
        let gate = x_m.is_some() && edge_counts.contains(&0);
        let x_a = match (&self.attn, &self.bn_attn) {
            (Some(block), Some(bn)) => {
                let h = match block {
                    AttnBlock::Mha(a) => a.infer_blocks(params, &x, blocks),
                    AttnBlock::Performer(a) => a.infer_blocks(params, &x, blocks),
                };
                // Fused residual + BN (one sweep, bitwise-equal).
                let a = bn.infer_of_sum(params, &h, &x);
                h.recycle();
                Some(a)
            }
            _ => None,
        };
        let combined = match (x_m, x_a) {
            (Some(mut m), Some(a)) => {
                m.add_assign(&a);
                if gate {
                    override_edgeless_blocks(&mut m, &a, blocks, edge_counts);
                }
                a.recycle();
                x.recycle();
                m
            }
            (Some(mut m), None) => {
                if gate {
                    override_edgeless_blocks(&mut m, &x, blocks, edge_counts);
                }
                x.recycle();
                m
            }
            (None, Some(a)) => {
                x.recycle();
                a
            }
            (None, None) => x,
        };
        let h = self.mlp.infer(params, &combined);
        let x_out = self.bn_mlp.infer_of_sum(params, &h, &combined);
        h.recycle();
        combined.recycle();
        (x_out, e_out)
    }
}

impl CircuitGps {
    /// Tape-free encoder + GPS stack over a packed batch (eval mode).
    fn embed_batch_infer(&self, samples: &[&PreparedSample]) -> (Tensor, BatchLayout) {
        let inputs = assemble_batch(samples);
        let total_n = inputs.total_n;
        let params = self.store();

        // Positional encoding block.
        let mut parts: Vec<Tensor> = Vec::with_capacity(3);
        match &self.pe_enc {
            PeEncoder::None => {}
            PeEncoder::Pair { d0, d1 } => {
                let (a, b) = collect_pe_pair(samples, total_n);
                parts.push(d0.infer(params, &a));
                parts.push(d1.infer(params, &b));
            }
            PeEncoder::Single { emb } => {
                let codes = collect_pe_single(samples, total_n);
                parts.push(emb.infer(params, &codes));
            }
            PeEncoder::Dense { lin } => {
                let data = collect_pe_dense(samples, total_n, lin.in_dim());
                let pe = Tensor::from_vec(total_n, lin.in_dim(), data);
                parts.push(lin.infer(params, &pe));
                pe.recycle();
            }
        }
        parts.push(self.node_type_emb.infer(params, &inputs.node_types));
        let mut x = if parts.len() == 1 {
            parts.pop().expect("one part")
        } else {
            let refs: Vec<&Tensor> = parts.iter().collect();
            let cat = concat_cols(&refs);
            drop(refs);
            for p in parts {
                p.recycle();
            }
            cat
        };

        let idx = EdgeIndex::new(inputs.src, inputs.dst);
        let mut e = if inputs.edge_types.is_empty() {
            Tensor::zeros(0, self.cfg.hidden_dim)
        } else {
            self.edge_type_emb.infer(params, &inputs.edge_types)
        };

        let counts: Vec<f32> = samples.iter().map(|s| s.sub.num_nodes() as f32).collect();
        let layout = BatchLayout {
            graph_ids: std::sync::Arc::new(inputs.graph_ids),
            counts,
            anchor_rows: inputs.anchor_rows,
        };
        let blocks = layout.blocks();
        let edge_counts = inputs.edge_counts;
        let n_layers = self.layers.len();
        for (li, layer) in self.layers.iter().enumerate() {
            // The first layer's edge features are a gather of the
            // edge-type table, so its C·e GEMM collapses to the table's
            // few rows; the last layer's edge output is never read.
            let typed = (li == 0 && !inputs.edge_types.is_empty()).then(|| {
                (
                    inputs.edge_types.as_slice(),
                    self.edge_type_emb.table(params),
                )
            });
            let (nx, ne) = layer.infer(
                params,
                x,
                e,
                &idx,
                &blocks,
                &edge_counts,
                typed,
                li + 1 < n_layers,
            );
            x = nx;
            e = ne;
        }
        e.recycle();
        (x, layout)
    }

    /// Per-graph segment mean pooling (tape-free).
    fn segment_mean_infer(&self, x: &Tensor, layout: &BatchLayout) -> Tensor {
        let b = layout.counts.len();
        let sums = scatter_add_rows(x, &layout.graph_ids, b);
        let inv: Vec<f32> = layout.counts.iter().map(|&c| 1.0 / c.max(1.0)).collect();
        let inv = Tensor::col(&inv);
        let out = colvec_zip(&sums, &inv, |v, s| v * s);
        sums.recycle();
        inv.recycle();
        out
    }

    /// Link-existence probabilities for a batch, without building a tape.
    ///
    /// Bitwise-equal to the sigmoid of the taped
    /// [`CircuitGps::link_logits_batch`] on each sample alone (see the
    /// module docs).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or a sample's PE does not match the
    /// model's configured [`graph_pe::PeKind`].
    pub fn predict_link_batch(&self, samples: &[&PreparedSample]) -> Vec<f32> {
        self.predict_tiled(samples, |tile| self.predict_link_tile(tile))
    }

    /// Normalized capacitance predictions for a batch, without building a
    /// tape. Bitwise-equal to the taped [`CircuitGps::reg_outputs_batch`]
    /// on each sample alone.
    ///
    /// # Panics
    ///
    /// Same contracts as [`CircuitGps::predict_link_batch`].
    pub fn predict_reg_batch(&self, samples: &[&PreparedSample]) -> Vec<f32> {
        self.predict_tiled(samples, |tile| self.predict_reg_tile(tile))
    }

    /// Splits a batch into cache-sized tiles and concatenates per-tile
    /// predictions. Every graph's rows are computed independently
    /// (block-diagonal attention, per-graph pooling, eval-mode batch
    /// norm), so tiling changes nothing about the outputs — it only
    /// keeps each tile's edge/node streams L2-resident, which is worth
    /// ~15% per sample at batch 32 versus running one huge tile.
    fn predict_tiled(
        &self,
        samples: &[&PreparedSample],
        predict: impl Fn(&[&PreparedSample]) -> Vec<f32>,
    ) -> Vec<f32> {
        assert!(!samples.is_empty(), "predict needs at least one sample");
        // ~0.6 MB of f32 edge features per tile: several E×d tensors are
        // live at once per layer, and keeping the whole set inside L2 is
        // measurably faster than larger tiles on the bench workload.
        const TILE_FLOAT_BUDGET: usize = 160 * 1024;
        let d = self.cfg.hidden_dim;
        let mut out = Vec::with_capacity(samples.len());
        let mut start = 0usize;
        while start < samples.len() {
            let mut end = start;
            let mut floats = 0usize;
            while end < samples.len() {
                let s = samples[end];
                floats += (s.sub.src.len() + s.sub.num_nodes()) * d;
                if end > start && floats > TILE_FLOAT_BUDGET {
                    break;
                }
                end += 1;
            }
            out.extend(predict(&samples[start..end]));
            start = end;
        }
        out
    }

    fn predict_link_tile(&self, samples: &[&PreparedSample]) -> Vec<f32> {
        let (xl, layout) = self.embed_batch_infer(samples);
        let pooled = self.segment_mean_infer(&xl, &layout);
        xl.recycle();
        let logits = self.link_head.infer(self.store(), &pooled);
        pooled.recycle();
        let probs = logits
            .as_slice()
            .iter()
            .map(|&z| 1.0 / (1.0 + (-z).exp()))
            .collect();
        logits.recycle();
        probs
    }

    fn predict_reg_tile(&self, samples: &[&PreparedSample]) -> Vec<f32> {
        let (xl, layout) = self.embed_batch_infer(samples);
        let total_n: usize = samples.iter().map(|s| s.sub.num_nodes()).sum();
        let params = self.store();

        let mut xc_data = cirgps_nn::pool::take_capacity(total_n * XC_DIM);
        for s in samples {
            xc_data.extend_from_slice(&s.xc_norm);
        }
        let xc = Tensor::from_vec(total_n, XC_DIM, xc_data);

        // Group global node indices by type (same traversal as the taped
        // path in `reg_outputs_batch`).
        let mut net_idx = Vec::new();
        let mut dev_idx = Vec::new();
        let mut pin_idx = Vec::new();
        let mut pin_codes = Vec::new();
        let mut base = 0usize;
        for s in samples {
            for (i, &t) in s.sub.node_types.iter().enumerate() {
                let gidx = base + i;
                match t {
                    t if t == NodeType::Net.code() => net_idx.push(gidx),
                    t if t == NodeType::Device.code() => dev_idx.push(gidx),
                    _ => {
                        pin_idx.push(gidx);
                        pin_codes.push(s.pin_codes[i]);
                    }
                }
            }
            base += s.sub.num_nodes();
        }

        // C: per-type projection scattered back to node order (eq. (6)).
        let mut c = Tensor::zeros(total_n, self.cfg.hidden_dim);
        for (idx, proj) in [
            (&net_idx, &self.reg_head.net_proj),
            (&dev_idx, &self.reg_head.dev_proj),
        ] {
            if idx.is_empty() {
                continue;
            }
            let rows = gather_rows(&xc, idx);
            let proj_rows = proj.infer(params, &rows);
            rows.recycle();
            let scattered = scatter_add_rows(&proj_rows, idx, total_n);
            proj_rows.recycle();
            c.add_assign(&scattered);
            scattered.recycle();
        }
        if !pin_idx.is_empty() {
            let emb = self.reg_head.pin_emb.infer(params, &pin_codes);
            let scattered = scatter_add_rows(&emb, &pin_idx, total_n);
            emb.recycle();
            c.add_assign(&scattered);
            scattered.recycle();
        }
        xc.recycle();

        // XH = Pool(XL + C) plus the anchor skip-connection (eq. (7)).
        c.add_assign(&xl);
        xl.recycle();
        let sum = c;
        let pooled = self.segment_mean_infer(&sum, &layout);
        let mut readout = gather_rows(&sum, &layout.anchor_rows);
        readout.add_assign(&pooled);
        sum.recycle();
        pooled.recycle();
        let out = self.reg_head.mlp.infer(params, &readout);
        readout.recycle();
        let preds = out.as_slice().iter().map(|&v| stable_sigmoid(v)).collect();
        out.recycle();
        preds
    }
}

/// How an [`InferenceSession`] refers to its model: owning it (the
/// classic single-session setup) or borrowing one shared, read-only
/// model (a serving daemon runs one session per scheduler worker, all
/// against the same weights — see `cirgps-serve`).
#[derive(Debug)]
enum ModelRef<'g> {
    Owned(Box<CircuitGps>),
    Shared(&'g CircuitGps),
}

impl ModelRef<'_> {
    fn get(&self) -> &CircuitGps {
        match self {
            ModelRef::Owned(m) => m,
            ModelRef::Shared(m) => m,
        }
    }
}

/// One prediction request against an [`InferenceSession`], used by the
/// heterogeneous batch entry point
/// [`InferenceSession::predict_batch`]. The three variants map onto the
/// session's task-specific methods; a mixed slice is routed per variant
/// while preserving the caller's ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Query {
    /// Link-existence probability for the candidate pair `(a, b)`.
    Link(u32, u32),
    /// Normalized coupling-capacitance prediction for the pair `(a, b)`.
    Coupling(u32, u32),
    /// Normalized ground-capacitance prediction for one node.
    Ground(u32),
}

impl Query {
    /// The answer-cache key: the sample (`(n, n)` for ground queries,
    /// matching [`InferenceSession::predict_ground`]) and whether the
    /// regression head answers it.
    fn key(self) -> (u32, u32, bool) {
        match self {
            Query::Link(a, b) => (a, b, false),
            Query::Coupling(a, b) => (a, b, true),
            Query::Ground(n) => (n, n, true),
        }
    }
}

/// A long-lived inference engine over one design: the model (owned or
/// shared), the fitted [`XcNormalizer`], a subgraph sampler and a
/// FIFO-bounded cache of *answers* keyed by `(a, b, head)`, so a repeated
/// query skips subgraph extraction, PE and the forward pass entirely.
///
/// Caching answers is exact: a batched forward is bitwise equal to the
/// per-sample one, so an answer does not depend on which batch computed
/// it. Prepared samples live only while their chunk is forwarded.
///
/// # Examples
///
/// ```no_run
/// # use circuitgps::{CircuitGps, InferenceSession, ModelConfig};
/// # use subgraph_sample::{SamplerConfig, XcNormalizer};
/// # fn demo(graph: &circuit_graph::CircuitGraph) {
/// let model = CircuitGps::new(ModelConfig::default());
/// let xcn = XcNormalizer::fit(&[graph]);
/// let cfg = SamplerConfig { hops: 1, max_nodes: 2048 };
/// let mut session = InferenceSession::new(model, xcn, graph, cfg).with_batch_size(32);
/// let probs = session.predict_links(&[(0, 5), (2, 7)]);
/// # let _ = probs;
/// # }
/// ```
#[derive(Debug)]
pub struct InferenceSession<'g> {
    model: ModelRef<'g>,
    xcn: XcNormalizer,
    /// Enclosing-subgraph sampler for pair (link/coupling) queries.
    sampler: SubgraphSampler<'g>,
    /// Node-subgraph sampler for ground-capacitance queries — separate
    /// because the paper uses 1-hop subgraphs for links but 2-hop for
    /// node tasks.
    node_sampler: SubgraphSampler<'g>,
    /// Answers keyed by `(a, b, reg)`: the sample (`(n, n)` for a ground
    /// query) and whether the regression head produced the value, so a
    /// link probability and a coupling prediction never alias.
    answers: HashMap<(u32, u32, bool), f32>,
    fifo: VecDeque<(u32, u32, bool)>,
    cache_capacity: usize,
    batch_size: usize,
    hits: u64,
    misses: u64,
}

impl<'g> InferenceSession<'g> {
    /// Creates a session over `graph` with default batch size 32 and a
    /// cache capacity of 65 536 answers. `sampler_cfg` drives
    /// the pair queries; node (ground-capacitance) queries default to
    /// 2-hop subgraphs with the same node cap, matching the training
    /// pipeline's convention.
    pub fn new(
        model: CircuitGps,
        xcn: XcNormalizer,
        graph: &'g CircuitGraph,
        sampler_cfg: SamplerConfig,
    ) -> Self {
        Self::with_model_ref(ModelRef::Owned(Box::new(model)), xcn, graph, sampler_cfg)
    }

    /// Creates a session that *borrows* a shared, read-only model instead
    /// of owning one. Defaults match [`InferenceSession::new`].
    ///
    /// This is the serving-daemon constructor: `CircuitGps` forward
    /// passes take `&self`, so one model can back many concurrent
    /// sessions (one per scheduler worker, each with its own sampler
    /// scratch and answer cache) without duplicating weights.
    /// The session is `Send`, so it can be handed to a worker thread.
    pub fn shared(
        model: &'g CircuitGps,
        xcn: XcNormalizer,
        graph: &'g CircuitGraph,
        sampler_cfg: SamplerConfig,
    ) -> Self {
        Self::with_model_ref(ModelRef::Shared(model), xcn, graph, sampler_cfg)
    }

    fn with_model_ref(
        model: ModelRef<'g>,
        xcn: XcNormalizer,
        graph: &'g CircuitGraph,
        sampler_cfg: SamplerConfig,
    ) -> Self {
        let node_cfg = SamplerConfig {
            hops: 2,
            ..sampler_cfg
        };
        InferenceSession {
            model,
            xcn,
            sampler: SubgraphSampler::new(graph, sampler_cfg),
            node_sampler: SubgraphSampler::new(graph, node_cfg),
            answers: HashMap::new(),
            fifo: VecDeque::new(),
            cache_capacity: 65_536,
            batch_size: 32,
            hits: 0,
            misses: 0,
        }
    }

    /// Sets the batch size used by the `predict_*` methods.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_batch_size(mut self, n: usize) -> Self {
        assert!(n > 0, "batch size must be positive");
        self.batch_size = n;
        self
    }

    /// Bounds the answer cache (FIFO eviction; `0` caches nothing).
    pub fn with_cache_capacity(mut self, n: usize) -> Self {
        self.cache_capacity = n;
        self
    }

    /// The wrapped model (owned or shared).
    pub fn model(&self) -> &CircuitGps {
        self.model.get()
    }

    /// `(hits, misses)` of the answer cache. A key repeated within one
    /// batch is one miss (one forward) plus a hit per repeat.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of cached answers.
    pub fn cache_len(&self) -> usize {
        self.answers.len()
    }

    /// Drops every cached answer (e.g. after swapping model weights).
    pub fn clear_cache(&mut self) {
        self.answers.clear();
        self.fifo.clear();
    }

    /// Link-existence probability for each `(a, b)` candidate pair.
    ///
    /// # Panics
    ///
    /// Panics if a pair has `a == b` (use
    /// [`InferenceSession::predict_ground`] for node queries).
    pub fn predict_links(&mut self, pairs: &[(u32, u32)]) -> Vec<f32> {
        assert!(
            pairs.iter().all(|&(a, b)| a != b),
            "link queries need two distinct nodes"
        );
        self.predict_keys(pairs, false)
    }

    /// Normalized coupling-capacitance prediction for each candidate pair.
    ///
    /// # Panics
    ///
    /// Panics if a pair has `a == b`.
    pub fn predict_couplings(&mut self, pairs: &[(u32, u32)]) -> Vec<f32> {
        assert!(
            pairs.iter().all(|&(a, b)| a != b),
            "coupling queries need two distinct nodes"
        );
        self.predict_keys(pairs, true)
    }

    /// Normalized ground-capacitance prediction for each node (2-hop node
    /// subgraphs, cached under the key `(n, n)`).
    pub fn predict_ground(&mut self, nodes: &[u32]) -> Vec<f32> {
        let keys: Vec<(u32, u32)> = nodes.iter().map(|&n| (n, n)).collect();
        self.predict_keys(&keys, true)
    }

    /// Predictions for a heterogeneous batch of queries, in query order.
    ///
    /// Link and regression (coupling/ground) queries run through
    /// different task heads, so they are split into separate model
    /// batches internally — a mixed slice is never packed into one
    /// forward pass — and the results are re-interleaved to match
    /// `queries`. This is the entry point a serving scheduler uses when
    /// a drained batch is not known to be task-pure.
    ///
    /// # Panics
    ///
    /// Panics if a pair query has `a == b` (use [`Query::Ground`] for
    /// node queries).
    pub fn predict_batch(&mut self, queries: &[Query]) -> Vec<f32> {
        assert!(
            queries.iter().all(|q| match *q {
                Query::Link(a, b) | Query::Coupling(a, b) => a != b,
                Query::Ground(_) => true,
            }),
            "pair queries need two distinct nodes"
        );
        let mut out = vec![0.0f32; queries.len()];
        for reg in [false, true] {
            let (pos, keys): (Vec<usize>, Vec<(u32, u32)>) = queries
                .iter()
                .enumerate()
                .filter_map(|(i, q)| {
                    let (a, b, r) = q.key();
                    (r == reg).then_some((i, (a, b)))
                })
                .unzip();
            for (i, p) in pos.into_iter().zip(self.predict_keys(&keys, reg)) {
                out[i] = p;
            }
        }
        out
    }

    fn predict_keys(&mut self, keys: &[(u32, u32)], reg: bool) -> Vec<f32> {
        let mut out = Vec::with_capacity(keys.len());
        for chunk in keys.chunks(self.batch_size) {
            // The chunk's misses, each forwarded once however often it
            // repeats; the repeats count as hits.
            let mut seen = HashSet::new();
            let misses: Vec<(u32, u32)> = chunk
                .iter()
                .copied()
                .filter(|&(a, b)| !self.answers.contains_key(&(a, b, reg)) && seen.insert((a, b)))
                .collect();
            self.misses += misses.len() as u64;
            self.hits += (chunk.len() - misses.len()) as u64;
            if !misses.is_empty() {
                let samples: Vec<PreparedSample> =
                    misses.iter().map(|&k| self.prepare(k)).collect();
                let batch: Vec<&PreparedSample> = samples.iter().collect();
                let model = self.model.get();
                let preds = if reg {
                    model.predict_reg_batch(&batch)
                } else {
                    model.predict_link_batch(&batch)
                };
                // Answers enter the cache only after the forward returned,
                // so a panic mid-chunk leaves the cache untouched.
                for (&(a, b), p) in misses.iter().zip(preds) {
                    self.answers.insert((a, b, reg), p);
                    self.fifo.push_back((a, b, reg));
                }
            }
            out.extend(chunk.iter().map(|&(a, b)| self.answers[&(a, b, reg)]));
            let excess = self.fifo.len().saturating_sub(self.cache_capacity);
            for old in self.fifo.drain(..excess) {
                self.answers.remove(&old);
            }
        }
        out
    }

    /// Extracts and prepares the subgraph for one query key: the 2-hop
    /// node subgraph for `(n, n)`, the enclosing pair subgraph otherwise.
    fn prepare(&mut self, (a, b): (u32, u32)) -> PreparedSample {
        let sub = if a == b {
            self.node_sampler.node_subgraph(a)
        } else {
            self.sampler.enclosing_subgraph(a, b)
        };
        PreparedSample::new(sub, self.model.get().cfg.pe, &self.xcn, 1.0, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AttnKind, ModelConfig, MpnnKind};
    use circuit_graph::{Edge, EdgeType, GraphBuilder};
    use cirgps_nn::Tape;
    use graph_pe::PeKind;

    /// The taped reference for one sample: the link logit of a
    /// one-sample eval tape through a sigmoid.
    fn taped_link(model: &CircuitGps, s: &PreparedSample) -> f32 {
        let mut tape = Tape::new(model.store(), false, 0);
        let logit = model.link_logits_batch(&mut tape, &[s]);
        let z = tape.value(logit).item();
        1.0 / (1.0 + (-z).exp())
    }

    /// The taped reference for one sample's regression output.
    fn taped_reg(model: &CircuitGps, s: &PreparedSample) -> f32 {
        let mut tape = Tape::new(model.store(), false, 0);
        let out = model.reg_outputs_batch(&mut tape, &[s]);
        tape.value(out).item()
    }

    /// Builds a graph with two pin clusters and a connecting path, plus
    /// the candidate links used to derive ≥ 17 distinct samples.
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

    /// The sampler every toy session and sample uses.
    const TOY_CFG: SamplerConfig = SamplerConfig {
        hops: 1,
        max_nodes: 64,
    };

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn toy_samples(n: usize) -> Vec<PreparedSample> {
        let (g, links) = toy_graph_and_links();
        let xcn = XcNormalizer::fit(&[&g]);
        let mut sampler = SubgraphSampler::new(&g, TOY_CFG);
        links
            .iter()
            .take(n)
            .map(|&(a, b)| {
                let sub = sampler.enclosing_subgraph(a, b);
                PreparedSample::new(sub, PeKind::Dspd, &xcn, 1.0, 0.4)
            })
            .collect()
    }

    fn model_with(attn: AttnKind) -> CircuitGps {
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

    fn attn_kinds() -> [AttnKind; 2] {
        [AttnKind::Transformer, AttnKind::Performer { features: 8 }]
    }

    #[test]
    fn batched_link_predictions_are_bitwise_equal_to_per_sample() {
        let samples = toy_samples(17);
        assert_eq!(samples.len(), 17, "toy dataset too small");
        for attn in attn_kinds() {
            let model = model_with(attn);
            let per_sample: Vec<f32> = samples.iter().map(|s| taped_link(&model, s)).collect();
            for bs in [1usize, 3, 17] {
                for (ci, chunk) in samples.chunks(bs).enumerate() {
                    let refs: Vec<&PreparedSample> = chunk.iter().collect();
                    let batched = model.predict_link_batch(&refs);
                    for (i, (b, s)) in batched
                        .iter()
                        .zip(&per_sample[ci * bs..ci * bs + chunk.len()])
                        .enumerate()
                    {
                        assert_eq!(
                            b.to_bits(),
                            s.to_bits(),
                            "{attn:?} bs={bs} chunk={ci} sample={i}: {b} vs {s}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batched_reg_predictions_are_bitwise_equal_to_per_sample() {
        let samples = toy_samples(17);
        for attn in attn_kinds() {
            let model = model_with(attn);
            let per_sample: Vec<f32> = samples.iter().map(|s| taped_reg(&model, s)).collect();
            for bs in [1usize, 3, 17] {
                let mut batched = Vec::new();
                for chunk in samples.chunks(bs) {
                    let refs: Vec<&PreparedSample> = chunk.iter().collect();
                    batched.extend(model.predict_reg_batch(&refs));
                }
                for (i, (b, s)) in batched.iter().zip(&per_sample).enumerate() {
                    assert_eq!(
                        b.to_bits(),
                        s.to_bits(),
                        "{attn:?} bs={bs} sample={i}: {b} vs {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_predictions_match_without_mpnn() {
        let samples = toy_samples(5);
        let model = CircuitGps::new(ModelConfig {
            hidden_dim: 16,
            pe_dim: 4,
            heads: 2,
            num_layers: 1,
            mpnn: MpnnKind::None,
            attn: AttnKind::Transformer,
            ..Default::default()
        });
        let refs: Vec<&PreparedSample> = samples.iter().collect();
        let batched = model.predict_link_batch(&refs);
        for (b, s) in batched.iter().zip(&samples) {
            assert_eq!(b.to_bits(), taped_link(&model, s).to_bits());
        }
    }

    #[test]
    fn zero_edge_subgraph_packed_matches_solo_bitwise() {
        // PR 2 caveat, resolved: a zero-edge subgraph packed with
        // edge-bearing ones used to take the MPNN branch unlike its solo
        // prediction. The per-graph MPNN gate restores solo semantics,
        // so packed predictions are bitwise-equal again.
        let mut b = GraphBuilder::new();
        let hub = b.add_node(NodeType::Net, "hub");
        for i in 0..5 {
            let p = b.add_node(NodeType::Pin, &format!("p{i}"));
            b.set_xc(p, 0, i as f32);
            b.add_edge(hub, p, EdgeType::NetPin);
        }
        let iso = b.add_node(NodeType::Net, "iso");
        let g = b.build();
        let xcn = XcNormalizer::fit(&[&g]);
        let mut pair_sampler = SubgraphSampler::new(&g, TOY_CFG);
        let mut node_sampler = SubgraphSampler::new(&g, SamplerConfig { hops: 2, ..TOY_CFG });
        let samples: Vec<PreparedSample> = vec![
            PreparedSample::new(
                pair_sampler.enclosing_subgraph(hub, 1),
                PeKind::Dspd,
                &xcn,
                1.0,
                0.3,
            ),
            // The isolated node's 2-hop subgraph has zero edges.
            PreparedSample::new(
                node_sampler.node_subgraph(iso),
                PeKind::Dspd,
                &xcn,
                0.0,
                0.5,
            ),
            PreparedSample::new(
                pair_sampler.enclosing_subgraph(2, 3),
                PeKind::Dspd,
                &xcn,
                1.0,
                0.7,
            ),
        ];
        assert_eq!(samples[1].sub.src.len(), 0, "expected a zero-edge subgraph");

        for attn in [
            AttnKind::Transformer,
            AttnKind::Performer { features: 8 },
            AttnKind::None,
        ] {
            let model = CircuitGps::new(ModelConfig {
                hidden_dim: 16,
                pe_dim: 4,
                heads: 2,
                num_layers: 2,
                mpnn: MpnnKind::GatedGcn,
                attn,
                ..Default::default()
            });
            let refs: Vec<&PreparedSample> = samples.iter().collect();
            for (solo, packed) in samples
                .iter()
                .map(|s| taped_link(&model, s))
                .zip(model.predict_link_batch(&refs))
            {
                assert_eq!(
                    packed.to_bits(),
                    solo.to_bits(),
                    "{attn:?} link: {packed} vs {solo}"
                );
            }
            for (solo, packed) in samples
                .iter()
                .map(|s| taped_reg(&model, s))
                .zip(model.predict_reg_batch(&refs))
            {
                assert_eq!(
                    packed.to_bits(),
                    solo.to_bits(),
                    "{attn:?} reg: {packed} vs {solo}"
                );
            }
        }
    }

    #[test]
    fn session_caches_and_matches_direct_prediction() {
        let (g, links) = toy_graph_and_links();
        let xcn = XcNormalizer::fit(&[&g]);
        let model = model_with(AttnKind::Performer { features: 8 });
        let direct = {
            let mut sampler = SubgraphSampler::new(&g, TOY_CFG);
            let prepared: Vec<PreparedSample> = links
                .iter()
                .map(|&(a, b)| {
                    let sub = sampler.enclosing_subgraph(a, b);
                    PreparedSample::new(sub, model.cfg.pe, &xcn, 1.0, 0.0)
                })
                .collect();
            prepared
                .iter()
                .map(|s| taped_link(&model, s))
                .collect::<Vec<f32>>()
        };

        let mut session = InferenceSession::new(model, xcn, &g, TOY_CFG).with_batch_size(4);
        let first = session.predict_links(&links);
        for (a, b) in first.iter().zip(&direct) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let (h0, m0) = session.cache_stats();
        assert_eq!(h0, 0);
        assert_eq!(m0, links.len() as u64);

        // Second pass: every sample comes from the cache, same outputs.
        let second = session.predict_links(&links);
        assert_eq!(first, second);
        let (h1, m1) = session.cache_stats();
        assert_eq!(h1, links.len() as u64);
        assert_eq!(m1, m0);
    }

    #[test]
    fn shared_sessions_match_owned_and_are_send() {
        fn assert_send<T: Send>(_: &T) {}

        let (g, links) = toy_graph_and_links();
        let xcn = XcNormalizer::fit(&[&g]);
        let model = model_with(AttnKind::Transformer);
        let owned = {
            let m2 = {
                let mut bytes = Vec::new();
                model.save_checkpoint(&mut bytes).unwrap();
                CircuitGps::load_checkpoint(&bytes[..]).unwrap().0
            };
            let mut session = InferenceSession::new(m2, xcn.clone(), &g, TOY_CFG);
            session.predict_links(&links)
        };

        // Two concurrent shared sessions over one model, as a serving
        // daemon's scheduler workers would run them.
        let halves: Vec<Vec<f32>> = std::thread::scope(|s| {
            let handles: Vec<_> = links
                .chunks(links.len() / 2)
                .map(|chunk| {
                    let mut session = InferenceSession::shared(&model, xcn.clone(), &g, TOY_CFG);
                    assert_send(&session);
                    s.spawn(move || session.predict_links(chunk))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let shared: Vec<f32> = halves.into_iter().flatten().collect();
        assert_eq!(owned.len(), shared.len());
        for (a, b) in owned.iter().zip(&shared) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn heterogeneous_predict_batch_matches_task_specific_calls() {
        let (g, links) = toy_graph_and_links();
        let xcn = XcNormalizer::fit(&[&g]);
        let model = model_with(AttnKind::Performer { features: 8 });
        let mut session =
            InferenceSession::shared(&model, xcn.clone(), &g, TOY_CFG).with_batch_size(4);
        let want_links = session.predict_links(&links[..4]);
        let want_caps = session.predict_couplings(&links[4..8]);
        let want_ground = session.predict_ground(&[links[0].0, links[1].0]);

        // Interleave the three kinds; results must come back in order.
        let mut session2 = InferenceSession::shared(&model, xcn, &g, TOY_CFG).with_batch_size(4);
        let queries: Vec<Query> = vec![
            Query::Link(links[0].0, links[0].1),
            Query::Coupling(links[4].0, links[4].1),
            Query::Ground(links[0].0),
            Query::Link(links[1].0, links[1].1),
            Query::Coupling(links[5].0, links[5].1),
            Query::Link(links[2].0, links[2].1),
            Query::Ground(links[1].0),
            Query::Coupling(links[6].0, links[6].1),
            Query::Link(links[3].0, links[3].1),
            Query::Coupling(links[7].0, links[7].1),
        ];
        let got = session2.predict_batch(&queries);
        let want = [
            want_links[0],
            want_caps[0],
            want_ground[0],
            want_links[1],
            want_caps[1],
            want_links[2],
            want_ground[1],
            want_caps[2],
            want_links[3],
            want_caps[3],
        ];
        assert_eq!(got.len(), want.len());
        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "query {i}: {a} vs {b}");
        }
    }

    #[test]
    fn session_cache_eviction_is_bounded_and_exact() {
        let (g, links) = toy_graph_and_links();
        let xcn = XcNormalizer::fit(&[&g]);
        let model = model_with(AttnKind::Transformer);
        let mut session = InferenceSession::new(model, xcn, &g, TOY_CFG)
            .with_batch_size(4)
            .with_cache_capacity(4);
        let first = session.predict_links(&links);
        assert!(session.cache_len() <= 4, "cache exceeded its capacity");
        // Evicted answers are recomputed bit for bit.
        assert_eq!(bits(&session.predict_links(&links)), bits(&first));
        assert!(session.cache_len() <= 4, "cache exceeded its capacity");

        // Ground (node) predictions share the cache under (n, n) keys.
        let regs = session.predict_ground(&[links[0].0, links[1].0]);
        assert_eq!(regs.len(), 2);
        assert!(regs
            .iter()
            .all(|v| v.is_finite() && (0.0..=1.0).contains(v)));
        assert!(session.cache_len() <= 4, "cache exceeded its capacity");
    }

    #[test]
    fn link_and_coupling_answers_for_one_pair_never_alias() {
        let (g, links) = toy_graph_and_links();
        let xcn = XcNormalizer::fit(&[&g]);
        let model = model_with(AttnKind::Performer { features: 8 });
        let (a, b) = links[0];
        let sub = SubgraphSampler::new(&g, TOY_CFG).enclosing_subgraph(a, b);
        let sample = PreparedSample::new(sub, model.cfg.pe, &xcn, 1.0, 0.0);
        let want = [
            model.predict_link_batch(&[&sample])[0],
            model.predict_reg_batch(&[&sample])[0],
        ];
        assert_ne!(want[0].to_bits(), want[1].to_bits(), "heads must differ");
        let mut session = InferenceSession::shared(&model, xcn, &g, TOY_CFG);
        // The second pass answers from the cache, still per head.
        for _ in 0..2 {
            let got = session.predict_batch(&[Query::Link(a, b), Query::Coupling(a, b)]);
            assert_eq!(bits(&got), bits(&want));
        }
        assert_eq!(session.cache_stats(), (2, 2));
    }

    #[test]
    fn key_repeated_within_a_chunk_is_forwarded_once() {
        let (g, links) = toy_graph_and_links();
        let xcn = XcNormalizer::fit(&[&g]);
        let model = model_with(AttnKind::Transformer);
        let mut session = InferenceSession::shared(&model, xcn, &g, TOY_CFG).with_batch_size(4);
        let got = session.predict_links(&[links[0], links[1], links[0]]);
        assert_eq!(got[0].to_bits(), got[2].to_bits());
        // Three queries, two forwards: the repeat is a hit, not a miss.
        assert_eq!(session.cache_stats(), (1, 2));
        assert_eq!(session.cache_len(), 2);
    }
}
