//! The CircuitGPS model: type/PE encoders, a stack of GPS layers
//! (parallel MPNN + global attention, Section III-D) and the two task
//! heads (link-prediction head for pre-training, regression head with
//! circuit-statistics injection per eq. (6)–(7)).

use std::sync::Arc;

use circuit_graph::{NodeType, PinKind, XC_DIM};
use cirgps_nn::{
    Activation, BatchNorm1d, EdgeIndex, Embedding, GatedGcn, Linear, Mlp, MultiHeadAttention,
    ParamStore, PerformerAttention, Tape, Tensor, Var,
};
use graph_pe::PeFeatures;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{AttnKind, ModelConfig, MpnnKind};
use crate::prepared::PreparedSample;

/// Positional-encoding encoder: turns [`PeFeatures`] into a dense
/// `N × 2·pe_dim` block concatenated before the node-type embedding.
#[derive(Debug, Clone)]
pub(crate) enum PeEncoder {
    None,
    /// DSPD: two distance-embedding tables `D0`, `D1` (eq. (1)).
    Pair {
        d0: Embedding,
        d1: Embedding,
    },
    /// DRNL: one label-embedding table.
    Single {
        emb: Embedding,
    },
    /// Dense PEs (RWSE / LapPE / XC): linear projection.
    Dense {
        lin: Linear,
    },
}

/// One branch of global attention.
#[derive(Debug, Clone)]
pub(crate) enum AttnBlock {
    Mha(MultiHeadAttention),
    Performer(PerformerAttention),
}

/// One GPS layer (eq. (2)–(5)): parallel MPNN + attention, fused by a
/// 2-layer MLP, with residual connections and batch norm.
#[derive(Debug, Clone)]
pub(crate) struct GpsLayer {
    pub(crate) mpnn: Option<GatedGcn>,
    pub(crate) attn: Option<AttnBlock>,
    pub(crate) bn_attn: Option<BatchNorm1d>,
    pub(crate) mlp: Mlp,
    pub(crate) bn_mlp: BatchNorm1d,
    pub(crate) dropout: f32,
}

impl GpsLayer {
    /// `need_edge_out = false` skips the MPNN's edge output (see
    /// [`GatedGcn::forward_opts`]); the last layer's is never read.
    #[allow(clippy::too_many_arguments)] // internal: the infer twin's signature
    fn forward(
        &self,
        tape: &mut Tape,
        x: Var,
        e: Var,
        idx: &EdgeIndex,
        blocks: &Arc<Vec<(usize, usize)>>,
        edge_counts: &[usize],
        need_edge_out: bool,
    ) -> (Var, Var) {
        let (x_m, e_out) = match &self.mpnn {
            Some(g) if !idx.is_empty() => {
                let (xm, em) = g.forward_opts(tape, x, e, idx, need_edge_out);
                (Some(xm), em)
            }
            _ => (None, e),
        };
        // Per-graph MPNN gate: a zero-edge block's rows must combine
        // exactly as they would solo (no MPNN branch), even when packed
        // with edge-bearing graphs. The mask is built only for such
        // mixed packs — never in ordinary training, where every
        // enclosing subgraph carries edges.
        let gate = (x_m.is_some() && edge_counts.contains(&0)).then(|| {
            let n = tape.shape(x).0;
            let mut mask = vec![0.0f32; n];
            for (&(r0, len), &c) in blocks.iter().zip(edge_counts) {
                if c > 0 {
                    mask[r0..r0 + len].fill(1.0);
                }
            }
            mask
        });
        let x_a = match (&self.attn, &self.bn_attn) {
            (Some(block), Some(bn)) => {
                let h = match block {
                    AttnBlock::Mha(a) => a.forward_blocks(tape, x, blocks.clone()),
                    AttnBlock::Performer(a) => a.forward_blocks(tape, x, blocks.clone()),
                };
                // The attention output (a Linear output, whose backward
                // never reads its own value) is single-use: consume it in
                // the residual add. `x` stays readable for the backbone.
                let h = tape.dropout(h, self.dropout);
                let s = tape.add_inplace(h, x);
                Some(bn.forward(tape, s))
            }
            _ => None,
        };
        let combined = match (x_m, x_a) {
            // Both branch outputs are single-use BN/residual results.
            (Some(m), Some(a)) => match &gate {
                Some(mask) => {
                    let mk = tape.input(Tensor::col(mask));
                    let mm = tape.mul_colvec(m, mk);
                    tape.add_inplace(mm, a)
                }
                None => tape.add_inplace(m, a),
            },
            (Some(m), None) => match &gate {
                Some(mask) => {
                    let inv: Vec<f32> = mask.iter().map(|&v| 1.0 - v).collect();
                    let mk = tape.input(Tensor::col(mask));
                    let ik = tape.input(Tensor::col(&inv));
                    let mm = tape.mul_colvec(m, mk);
                    let xx = tape.mul_colvec(x, ik);
                    tape.add_inplace(mm, xx)
                }
                None => m,
            },
            (None, Some(a)) => a,
            (None, None) => x,
        };
        // `combined` must stay readable: the MLP's fused-linear backward
        // reads its input value. Only the MLP output is consumed.
        let h = self.mlp.forward(tape, combined);
        let h = tape.dropout(h, self.dropout);
        let s = tape.add_inplace(h, combined);
        let x_out = self.bn_mlp.forward(tape, s);
        (x_out, e_out)
    }
}

/// Node-to-graph assignment of a block-diagonally packed batch.
#[derive(Debug, Clone)]
pub struct BatchLayout {
    /// Graph id per concatenated node row.
    pub graph_ids: Arc<Vec<usize>>,
    /// Node count per graph.
    pub counts: Vec<f32>,
    /// Row index of each graph's first (anchor) node.
    pub anchor_rows: Vec<usize>,
}

impl BatchLayout {
    /// Per-graph `(first_row, row_count)` blocks of the packed batch
    /// (the block-diagonal attention layout).
    pub fn blocks(&self) -> Vec<(usize, usize)> {
        self.anchor_rows
            .iter()
            .zip(&self.counts)
            .map(|(&r0, &c)| (r0, c as usize))
            .collect()
    }
}

/// Concatenated node/edge inputs of a block-diagonally packed batch,
/// shared by the taped [`CircuitGps::embed_batch`] and the tape-free
/// inference path so both assemble identical buffers.
pub(crate) struct BatchInputs {
    pub(crate) total_n: usize,
    pub(crate) node_types: Vec<usize>,
    pub(crate) graph_ids: Vec<usize>,
    pub(crate) src: Vec<usize>,
    pub(crate) dst: Vec<usize>,
    pub(crate) edge_types: Vec<usize>,
    pub(crate) anchor_rows: Vec<usize>,
    /// Per-graph directed-edge counts (for the per-graph MPNN gate).
    pub(crate) edge_counts: Vec<usize>,
}

pub(crate) fn assemble_batch(samples: &[&PreparedSample]) -> BatchInputs {
    assert!(!samples.is_empty(), "embed_batch needs at least one sample");
    let total_n: usize = samples.iter().map(|s| s.sub.num_nodes()).sum();
    let mut node_types = Vec::with_capacity(total_n);
    let mut graph_ids = Vec::with_capacity(total_n);
    let mut src = Vec::new();
    let mut dst = Vec::new();
    let mut edge_types = Vec::new();
    let mut anchor_rows = Vec::with_capacity(samples.len());
    let mut edge_counts = Vec::with_capacity(samples.len());
    let mut offset = 0usize;
    for (gi, s) in samples.iter().enumerate() {
        node_types.extend(s.sub.node_types.iter().copied());
        graph_ids.extend(std::iter::repeat_n(gi, s.sub.num_nodes()));
        src.extend(s.sub.src.iter().map(|&x| x + offset));
        dst.extend(s.sub.dst.iter().map(|&x| x + offset));
        edge_types.extend(s.sub.edge_types.iter().copied());
        anchor_rows.push(offset);
        edge_counts.push(s.sub.src.len());
        offset += s.sub.num_nodes();
    }
    BatchInputs {
        total_n,
        node_types,
        graph_ids,
        src,
        dst,
        edge_types,
        anchor_rows,
        edge_counts,
    }
}

/// Concatenated categorical-pair PE codes (DSPD).
///
/// # Panics
///
/// Panics if a sample's PE is not [`PeFeatures::CategoricalPair`].
pub(crate) fn collect_pe_pair(
    samples: &[&PreparedSample],
    total_n: usize,
) -> (Vec<usize>, Vec<usize>) {
    let mut a = Vec::with_capacity(total_n);
    let mut b = Vec::with_capacity(total_n);
    for s in samples {
        match &s.pe {
            PeFeatures::CategoricalPair { a: pa, b: pb, .. } => {
                a.extend_from_slice(pa);
                b.extend_from_slice(pb);
            }
            other => panic!(
                "PE features {other:?} do not match the model's encoder (DSPD); \
                 prepare the dataset with the model's PeKind"
            ),
        }
    }
    (a, b)
}

/// Concatenated categorical PE codes (DRNL).
///
/// # Panics
///
/// Panics if a sample's PE is not [`PeFeatures::Categorical`].
pub(crate) fn collect_pe_single(samples: &[&PreparedSample], total_n: usize) -> Vec<usize> {
    let mut codes = Vec::with_capacity(total_n);
    for s in samples {
        match &s.pe {
            PeFeatures::Categorical { codes: c, .. } => codes.extend_from_slice(c),
            other => panic!(
                "PE features {other:?} do not match the model's encoder (DRNL); \
                 prepare the dataset with the model's PeKind"
            ),
        }
    }
    codes
}

/// Concatenated dense PE features (RWSE / LapPE / XC), pool-backed.
///
/// # Panics
///
/// Panics if a sample's PE is not dense with width `dim`.
pub(crate) fn collect_pe_dense(
    samples: &[&PreparedSample],
    total_n: usize,
    dim: usize,
) -> Vec<f32> {
    // Pool-backed: the consumer recycles the buffer, so per-batch PE
    // assembly stops reallocating.
    let mut data = cirgps_nn::pool::take_capacity(total_n * dim);
    for s in samples {
        match &s.pe {
            PeFeatures::Dense { data: d, dim: sd } if *sd == dim => data.extend_from_slice(d),
            other => panic!(
                "PE features {other:?} do not match the model's encoder \
                 (dense, dim {dim}); prepare the dataset with the model's PeKind"
            ),
        }
    }
    data
}

/// Regression head with per-type circuit-statistics projection (eq. (6)).
#[derive(Debug, Clone)]
pub(crate) struct RegHead {
    pub(crate) net_proj: Linear,
    pub(crate) dev_proj: Linear,
    pub(crate) pin_emb: Embedding,
    pub(crate) mlp: Mlp,
}

/// The CircuitGPS model.
///
/// Owns its [`ParamStore`]; forward passes borrow the store immutably so
/// minibatch samples can be evaluated on worker threads.
#[derive(Debug)]
pub struct CircuitGps {
    /// The configuration the model was built with.
    pub cfg: ModelConfig,
    pub(crate) store: ParamStore,
    pub(crate) pe_enc: PeEncoder,
    pub(crate) node_type_emb: Embedding,
    pub(crate) edge_type_emb: Embedding,
    pub(crate) layers: Vec<GpsLayer>,
    pub(crate) link_head: Mlp,
    pub(crate) reg_head: RegHead,
}

impl CircuitGps {
    /// Builds a model with freshly initialized parameters.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`ModelConfig::validate`]).
    pub fn new(cfg: ModelConfig) -> Self {
        cfg.validate();
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let d = cfg.hidden_dim;
        let pe_total = match cfg.pe {
            graph_pe::PeKind::None => 0,
            _ => 2 * cfg.pe_dim,
        };

        let pe_enc = match cfg.pe {
            graph_pe::PeKind::None => PeEncoder::None,
            graph_pe::PeKind::Dspd => PeEncoder::Pair {
                d0: Embedding::new(
                    &mut store,
                    "enc.pe.d0",
                    graph_pe::DIST_CLASSES,
                    cfg.pe_dim,
                    &mut rng,
                ),
                d1: Embedding::new(
                    &mut store,
                    "enc.pe.d1",
                    graph_pe::DIST_CLASSES,
                    cfg.pe_dim,
                    &mut rng,
                ),
            },
            graph_pe::PeKind::Drnl => {
                // DRNL table size is the clamped-distance worst case; keep
                // in sync with graph_pe::drnl.
                let worst = {
                    let ur = subgraph_sample::UNREACHABLE as usize;
                    let half = (2 * (ur - 1)) / 2;
                    2 + ur + half * (half - 1)
                };
                PeEncoder::Single {
                    emb: Embedding::new(&mut store, "enc.pe.drnl", worst, 2 * cfg.pe_dim, &mut rng),
                }
            }
            graph_pe::PeKind::Rwse { k } => PeEncoder::Dense {
                lin: Linear::new(&mut store, "enc.pe.rwse", k, 2 * cfg.pe_dim, true, &mut rng),
            },
            graph_pe::PeKind::LapPe { k } => PeEncoder::Dense {
                lin: Linear::new(&mut store, "enc.pe.lap", k, 2 * cfg.pe_dim, true, &mut rng),
            },
            graph_pe::PeKind::Xc => PeEncoder::Dense {
                lin: Linear::new(
                    &mut store,
                    "enc.pe.xc",
                    XC_DIM,
                    2 * cfg.pe_dim,
                    true,
                    &mut rng,
                ),
            },
        };

        let node_type_emb = Embedding::new(
            &mut store,
            "enc.node_type",
            NodeType::COUNT,
            d - pe_total,
            &mut rng,
        );
        let edge_type_emb = Embedding::new(
            &mut store,
            "enc.edge_type",
            circuit_graph::EdgeType::COUNT,
            d,
            &mut rng,
        );

        let layers = (0..cfg.num_layers)
            .map(|l| {
                let name = format!("gps.{l}");
                let mpnn = match cfg.mpnn {
                    MpnnKind::GatedGcn => Some(GatedGcn::new(
                        &mut store,
                        &format!("{name}.mpnn"),
                        d,
                        cfg.dropout,
                        &mut rng,
                    )),
                    MpnnKind::None => None,
                };
                let (attn, bn_attn) = match cfg.attn {
                    AttnKind::Transformer => (
                        Some(AttnBlock::Mha(MultiHeadAttention::new(
                            &mut store,
                            &format!("{name}.attn"),
                            d,
                            cfg.heads,
                            &mut rng,
                        ))),
                        Some(BatchNorm1d::new(&mut store, &format!("{name}.bn_attn"), d)),
                    ),
                    AttnKind::Performer { features } => (
                        Some(AttnBlock::Performer(PerformerAttention::new(
                            &mut store,
                            &format!("{name}.attn"),
                            d,
                            cfg.heads,
                            features,
                            &mut rng,
                        ))),
                        Some(BatchNorm1d::new(&mut store, &format!("{name}.bn_attn"), d)),
                    ),
                    AttnKind::None => (None, None),
                };
                GpsLayer {
                    mpnn,
                    attn,
                    bn_attn,
                    mlp: Mlp::new(
                        &mut store,
                        &format!("{name}.mlp"),
                        &[d, 2 * d, d],
                        Activation::Relu,
                        cfg.dropout,
                        &mut rng,
                    ),
                    bn_mlp: BatchNorm1d::new(&mut store, &format!("{name}.bn_mlp"), d),
                    dropout: cfg.dropout,
                }
            })
            .collect();

        let link_head = Mlp::new(
            &mut store,
            "head_link.mlp",
            &[d, d, 1],
            Activation::Relu,
            cfg.dropout,
            &mut rng,
        );
        let reg_head = RegHead {
            net_proj: Linear::new(&mut store, "head_reg.net", XC_DIM, d, true, &mut rng),
            dev_proj: Linear::new(&mut store, "head_reg.dev", XC_DIM, d, true, &mut rng),
            pin_emb: Embedding::new(&mut store, "head_reg.pin", PinKind::COUNT, d, &mut rng),
            mlp: Mlp::new(
                &mut store,
                "head_reg.mlp",
                &[d, d, 1],
                Activation::Relu,
                cfg.dropout,
                &mut rng,
            ),
        };

        CircuitGps {
            cfg,
            store,
            pe_enc,
            node_type_emb,
            edge_type_emb,
            layers,
            link_head,
            reg_head,
        }
    }

    /// The parameter store (borrow for forward passes).
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Mutable parameter store (for the optimizer).
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Number of trainable scalar parameters (Table III's `#Param.`).
    pub fn num_params(&self) -> usize {
        self.store.num_trainable()
    }

    /// Freezes encoders and GPS layers for head-only fine-tuning.
    /// Returns the number of frozen tensors.
    pub fn freeze_backbone(&mut self) -> usize {
        self.store.set_trainable_by_prefix("enc.", false)
            + self.store.set_trainable_by_prefix("gps.", false)
    }

    /// Unfreezes every parameter (undo [`CircuitGps::freeze_backbone`]).
    pub fn unfreeze_all(&mut self) {
        self.store.set_trainable_by_prefix("", true);
        // Performer projections must stay frozen.
        self.store.set_trainable_by_prefix_proj_frozen();
    }

    /// Runs the encoder + GPS stack over a *batch* of subgraphs packed
    /// block-diagonally (the GraphGPS batching scheme: batch norm sees
    /// every node of the minibatch, pooling is per-graph segment mean,
    /// and global attention is **block-diagonal** — each graph attends
    /// only to its own nodes, exactly like the tape-free inference
    /// engine, so training and serving share one semantics).
    ///
    /// Returns the concatenated node features and the per-node graph ids.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or a sample's PE does not match the
    /// model's configured [`graph_pe::PeKind`].
    pub fn embed_batch(&self, tape: &mut Tape, samples: &[&PreparedSample]) -> (Var, BatchLayout) {
        let inputs = assemble_batch(samples);
        let total_n = inputs.total_n;
        let counts: Vec<f32> = samples.iter().map(|s| s.sub.num_nodes() as f32).collect();
        let layout = BatchLayout {
            graph_ids: Arc::new(inputs.graph_ids),
            counts,
            anchor_rows: inputs.anchor_rows,
        };
        // One derivation of the block-diagonal layout for both engines
        // (the tape-free path calls the same accessor).
        let blocks = Arc::new(layout.blocks());
        let edge_counts = inputs.edge_counts;

        // Positional encoding block.
        let mut parts: Vec<Var> = Vec::with_capacity(3);
        match &self.pe_enc {
            PeEncoder::None => {}
            PeEncoder::Pair { d0, d1 } => {
                let (a, b) = collect_pe_pair(samples, total_n);
                parts.push(d0.forward(tape, &a));
                parts.push(d1.forward(tape, &b));
            }
            PeEncoder::Single { emb } => {
                let codes = collect_pe_single(samples, total_n);
                parts.push(emb.forward(tape, &codes));
            }
            PeEncoder::Dense { lin } => {
                // Pool-backed buffer; the tape recycles it on drop.
                let data = collect_pe_dense(samples, total_n, lin.in_dim());
                let x = tape.input(Tensor::from_vec(total_n, lin.in_dim(), data));
                parts.push(lin.forward(tape, x));
            }
        }
        parts.push(self.node_type_emb.forward(tape, &inputs.node_types));
        let mut x = if parts.len() == 1 {
            parts[0]
        } else {
            tape.concat_cols(&parts)
        };

        let idx = EdgeIndex {
            src: Arc::new(inputs.src),
            dst: Arc::new(inputs.dst),
        };
        let mut e = if inputs.edge_types.is_empty() {
            tape.input(Tensor::zeros(0, self.cfg.hidden_dim))
        } else {
            self.edge_type_emb.forward(tape, &inputs.edge_types)
        };
        // The last layer's edge output is never read.
        let n_layers = self.layers.len();
        for (li, layer) in self.layers.iter().enumerate() {
            let (nx, ne) =
                layer.forward(tape, x, e, &idx, &blocks, &edge_counts, li + 1 < n_layers);
            x = nx;
            e = ne;
        }

        (x, layout)
    }

    /// Per-graph segment mean pooling.
    fn segment_mean(&self, tape: &mut Tape, x: Var, layout: &BatchLayout) -> Var {
        let b = layout.counts.len();
        let sums = tape.scatter_add(x, layout.graph_ids.clone(), b);
        let inv: Vec<f32> = layout.counts.iter().map(|&c| 1.0 / c.max(1.0)).collect();
        let inv = tape.input(Tensor::col(&inv));
        tape.mul_colvec(sums, inv)
    }

    /// Link-existence logits for a batch (`B × 1`).
    ///
    /// Per Observation 1, the link head uses *only* structural embeddings
    /// (no circuit statistics).
    pub fn link_logits_batch(&self, tape: &mut Tape, samples: &[&PreparedSample]) -> Var {
        let (xl, layout) = self.embed_batch(tape, samples);
        let pooled = self.segment_mean(tape, xl, &layout);
        self.link_head.forward(tape, pooled)
    }

    /// Regression outputs in `[0, 1]` for a batch (`B × 1`), using the
    /// task head with circuit statistics injected per eq. (6)–(7).
    pub fn reg_outputs_batch(&self, tape: &mut Tape, samples: &[&PreparedSample]) -> Var {
        let (xl, layout) = self.embed_batch(tape, samples);
        let total_n: usize = samples.iter().map(|s| s.sub.num_nodes()).sum();

        let mut xc_data = cirgps_nn::pool::take_capacity(total_n * XC_DIM);
        for s in samples {
            xc_data.extend_from_slice(&s.xc_norm);
        }
        let xc = tape.input(Tensor::from_vec(total_n, XC_DIM, xc_data));

        // Group global node indices by type.
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
        // Each accumulation consumes the previous `c` buffer in place.
        let mut c = tape.input(Tensor::zeros(total_n, self.cfg.hidden_dim));
        for (idx, proj) in [
            (&net_idx, &self.reg_head.net_proj),
            (&dev_idx, &self.reg_head.dev_proj),
        ] {
            if idx.is_empty() {
                continue;
            }
            let rows = tape.gather(xc, Arc::new(idx.clone()));
            let proj_rows = proj.forward(tape, rows);
            let scattered = tape.scatter_add(proj_rows, Arc::new(idx.clone()), total_n);
            c = tape.add_inplace(c, scattered);
        }
        if !pin_idx.is_empty() {
            let emb = self.reg_head.pin_emb.forward(tape, &pin_codes);
            let scattered = tape.scatter_add(emb, Arc::new(pin_idx), total_n);
            c = tape.add_inplace(c, scattered);
        }

        // XH = Pool(XL + C) (eq. (7)) plus an anchor skip-connection: the
        // target node's own row is added to the pooled readout. Without
        // it, mean pooling over 2-hop node-task subgraphs dilutes the
        // anchor whose capacitance is being predicted (see DESIGN.md).
        let sum = tape.add_inplace(c, xl);
        let pooled = self.segment_mean(tape, sum, &layout);
        let anchors = tape.gather(sum, Arc::new(layout.anchor_rows.clone()));
        let readout = tape.add_inplace(anchors, pooled);
        let out = self.reg_head.mlp.forward(tape, readout);
        tape.sigmoid(out)
    }

    /// Mean BCE pre-training loss over a batch.
    pub fn loss_link_batch(&self, tape: &mut Tape, samples: &[&PreparedSample]) -> Var {
        let logits = self.link_logits_batch(tape, samples);
        let labels: Vec<f32> = samples.iter().map(|s| s.label).collect();
        tape.bce_with_logits(logits, &labels)
    }

    /// Mean L1 regression loss over a batch.
    pub fn loss_reg_batch(&self, tape: &mut Tape, samples: &[&PreparedSample]) -> Var {
        let outs = self.reg_outputs_batch(tape, samples);
        let targets: Vec<f32> = samples.iter().map(|s| s.target).collect();
        tape.l1_loss(outs, &targets)
    }
}

/// Helper trait impl: keep Performer random projections frozen after a
/// global unfreeze.
trait FreezeProj {
    fn set_trainable_by_prefix_proj_frozen(&mut self);
}

impl FreezeProj for ParamStore {
    fn set_trainable_by_prefix_proj_frozen(&mut self) {
        let ids: Vec<_> = self
            .iter()
            .filter(|(_, name, _)| name.ends_with(".proj"))
            .map(|(id, _, _)| id)
            .collect();
        for id in ids {
            self.set_trainable(id, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepared::PreparedSample;
    use circuit_graph::{EdgeType, GraphBuilder};
    use cirgps_nn::GradStore;
    use graph_pe::PeKind;
    use subgraph_sample::{SamplerConfig, SubgraphSampler, XcNormalizer};

    fn sample_with(pe: PeKind) -> PreparedSample {
        let mut b = GraphBuilder::new();
        let n1 = b.add_node(NodeType::Net, "n1");
        let p1 = b.add_node(NodeType::Pin, "p1");
        let d1 = b.add_node(NodeType::Device, "d1");
        let p2 = b.add_node(NodeType::Pin, "p2");
        let n2 = b.add_node(NodeType::Net, "n2");
        b.set_xc(p1, 0, 1.0);
        b.set_xc(p2, 0, 0.0);
        b.set_xc(n1, 0, 3.0);
        b.add_edge(n1, p1, EdgeType::NetPin);
        b.add_edge(p1, d1, EdgeType::DevicePin);
        b.add_edge(d1, p2, EdgeType::DevicePin);
        b.add_edge(p2, n2, EdgeType::NetPin);
        let g = b.build();
        let g = g.with_injected_links(&[circuit_graph::Edge {
            a: n1,
            b: n2,
            ty: EdgeType::CouplingNetNet,
        }]);
        let xcn = XcNormalizer::fit(&[&g]);
        let mut s = SubgraphSampler::new(
            &g,
            SamplerConfig {
                hops: 2,
                max_nodes: 32,
            },
        );
        let sub = s.enclosing_subgraph(n1, n2);
        PreparedSample::new(sub, pe, &xcn, 1.0, 0.42)
    }

    fn configs_under_test() -> Vec<ModelConfig> {
        let base = ModelConfig {
            hidden_dim: 16,
            pe_dim: 4,
            heads: 2,
            num_layers: 2,
            ..Default::default()
        };
        vec![
            ModelConfig {
                mpnn: MpnnKind::GatedGcn,
                attn: AttnKind::None,
                ..base.clone()
            },
            ModelConfig {
                mpnn: MpnnKind::None,
                attn: AttnKind::Transformer,
                ..base.clone()
            },
            ModelConfig {
                mpnn: MpnnKind::GatedGcn,
                attn: AttnKind::Performer { features: 8 },
                ..base.clone()
            },
        ]
    }

    #[test]
    fn forward_shapes_for_all_layer_configs() {
        let s = sample_with(PeKind::Dspd);
        for cfg in configs_under_test() {
            let model = CircuitGps::new(cfg.clone());
            let mut tape = Tape::new(model.store(), false, 0);
            let logit = model.link_logits_batch(&mut tape, &[&s]);
            assert_eq!(tape.shape(logit), (1, 1), "{cfg:?}");
            let mut tape2 = Tape::new(model.store(), false, 0);
            let reg = model.reg_outputs_batch(&mut tape2, &[&s]);
            let v = tape2.value(reg).item();
            assert!((0.0..=1.0).contains(&v), "{cfg:?} produced {v}");
        }
    }

    #[test]
    fn forward_works_for_all_pe_kinds() {
        for pe in PeKind::TABLE2 {
            let s = sample_with(pe);
            let model = CircuitGps::new(ModelConfig {
                hidden_dim: 16,
                pe_dim: 4,
                heads: 2,
                num_layers: 1,
                pe,
                ..Default::default()
            });
            let p = model.predict_link_batch(&[&s])[0];
            assert!(p.is_finite() && (0.0..=1.0).contains(&p), "{pe:?} -> {p}");
        }
    }

    #[test]
    #[should_panic(expected = "do not match the model's encoder")]
    fn mismatched_pe_panics() {
        let s = sample_with(PeKind::Drnl);
        let model = CircuitGps::new(ModelConfig {
            hidden_dim: 16,
            pe_dim: 4,
            heads: 2,
            num_layers: 1,
            pe: PeKind::Dspd,
            ..Default::default()
        });
        let _ = model.predict_link_batch(&[&s]);
    }

    #[test]
    fn gradients_flow_to_heads_and_backbone() {
        let s = sample_with(PeKind::Dspd);
        let model = CircuitGps::new(ModelConfig {
            hidden_dim: 16,
            pe_dim: 4,
            heads: 2,
            num_layers: 2,
            ..Default::default()
        });
        let mut tape = Tape::new(model.store(), true, 1);
        let loss = model.loss_link_batch(&mut tape, &[&s]);
        let mut grads = GradStore::new(model.store());
        tape.backward(loss, &mut grads);
        for prefix in ["enc.pe.d0", "enc.node_type", "gps.0.mpnn", "head_link"] {
            let hit = model
                .store()
                .iter()
                .any(|(id, name, _)| name.starts_with(prefix) && grads.get(id).is_some());
            assert!(hit, "no gradient under {prefix}");
        }
    }

    #[test]
    fn head_only_freeze_blocks_backbone_grads() {
        let s = sample_with(PeKind::Dspd);
        let mut model = CircuitGps::new(ModelConfig {
            hidden_dim: 16,
            pe_dim: 4,
            heads: 2,
            num_layers: 1,
            ..Default::default()
        });
        let frozen = model.freeze_backbone();
        assert!(frozen > 0);
        let mut grads = GradStore::new(model.store());
        {
            let mut tape = Tape::new(model.store(), true, 1);
            let loss = model.loss_reg_batch(&mut tape, &[&s]);
            tape.backward(loss, &mut grads);
        }
        let backbone_hit = model.store().iter().any(|(id, name, _)| {
            (name.starts_with("enc.") || name.starts_with("gps.")) && grads.get(id).is_some()
        });
        assert!(!backbone_hit, "frozen backbone received gradients");
        let head_hit = model
            .store()
            .iter()
            .any(|(id, name, _)| name.starts_with("head_reg") && grads.get(id).is_some());
        assert!(head_hit, "head should train");
        model.unfreeze_all();
        assert!(model.num_params() > 0);
    }

    #[test]
    fn mixed_zero_edge_pack_trains_through_per_graph_gate() {
        // A pack mixing zero-edge and edge-bearing subgraphs exercises
        // the taped per-graph MPNN gate: the loss must stay finite and
        // gradients must still reach MPNN, attention and the heads.
        let normal = sample_with(PeKind::Dspd);
        let zero = {
            let mut b = GraphBuilder::new();
            let _n1 = b.add_node(NodeType::Net, "n1");
            let iso = b.add_node(NodeType::Net, "iso");
            let g = b.build();
            let xcn = XcNormalizer::fit(&[&g]);
            let mut s = SubgraphSampler::new(
                &g,
                SamplerConfig {
                    hops: 2,
                    max_nodes: 8,
                },
            );
            PreparedSample::new(s.node_subgraph(iso), PeKind::Dspd, &xcn, 0.0, 0.1)
        };
        assert_eq!(zero.sub.src.len(), 0, "expected a zero-edge subgraph");
        let model = CircuitGps::new(ModelConfig {
            hidden_dim: 16,
            pe_dim: 4,
            heads: 2,
            num_layers: 2,
            ..Default::default()
        });
        let mut tape = Tape::new(model.store(), true, 1);
        let loss = model.loss_link_batch(&mut tape, &[&normal, &zero, &normal]);
        assert!(tape.value(loss).item().is_finite());
        let mut grads = GradStore::new(model.store());
        tape.backward(loss, &mut grads);
        for prefix in ["gps.0.mpnn", "gps.0.attn", "head_link"] {
            let hit = model
                .store()
                .iter()
                .any(|(id, name, _)| name.starts_with(prefix) && grads.get(id).is_some());
            assert!(hit, "no gradient under {prefix}");
        }
    }

    /// The pinned-digest pack: 3-, 17- and 51-node blocks, each a ring
    /// plus one chord per node in both directions, with wave-valued
    /// node and edge features of width `d`.
    struct PinnedPack {
        blocks: Arc<Vec<(usize, usize)>>,
        idx: EdgeIndex,
        edge_counts: Vec<usize>,
        x0: Tensor,
        e0: Tensor,
    }

    fn wave(len: usize, f: f32) -> Vec<f32> {
        (0..len).map(|i| (i as f32 * f).sin() * 0.8).collect()
    }

    fn pinned_pack(d: usize) -> PinnedPack {
        let blocks = Arc::new(vec![(0, 3), (3, 17), (20, 51)]);
        let (mut src, mut dst, mut edge_counts) = (Vec::new(), Vec::new(), Vec::new());
        for &(r0, len) in blocks.iter() {
            let before = src.len();
            for i in 0..len {
                for j in [(i + 1) % len, (i * 7 + 3) % len] {
                    if j != i {
                        src.extend([r0 + i, r0 + j]);
                        dst.extend([r0 + j, r0 + i]);
                    }
                }
            }
            edge_counts.push(src.len() - before);
        }
        let (n, ne) = (71, src.len());
        PinnedPack {
            blocks,
            idx: EdgeIndex::new(src, dst),
            edge_counts,
            x0: Tensor::from_vec(n, d, wave(n * d, 0.37)),
            e0: Tensor::from_vec(ne, d, wave(ne * d, 0.23)),
        }
    }

    /// Folds `bytes` into an FNV-1a digest.
    fn fnv(digest: &mut u64, bytes: &[u8]) {
        for &byte in bytes {
            *digest = (*digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// FNV-1a digest of every parameter gradient's bits, in store
    /// order, and the number of parameters that got one.
    fn grad_digest(model: &CircuitGps, grads: &GradStore) -> (u64, usize) {
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut touched = 0;
        for (id, _, _) in model.store().iter() {
            if let Some(g) = grads.get(id) {
                touched += 1;
                for v in g.as_slice() {
                    fnv(&mut digest, &v.to_bits().to_le_bytes());
                }
            }
        }
        (digest, touched)
    }

    /// Bits of every parameter gradient of one taped train step of a
    /// default-dims GPS layer (GatedGCN + Performer) on a pack of 3-,
    /// 17- and 51-node blocks, folded into an FNV-1a digest. The GEMM,
    /// sweep and attention kernels are bitwise-equal on every backend,
    /// so the scalar, AVX2 and AVX-512 runs must all reproduce it.
    #[test]
    fn gps_layer_train_step_gradients_are_pinned() {
        let model = CircuitGps::new(ModelConfig::default());
        let layer = &model.layers[0];
        let p = pinned_pack(model.cfg.hidden_dim);
        let targets = wave(p.x0.len(), 0.11);
        let mut grads = GradStore::new(model.store());
        {
            let mut tape = Tape::new(model.store(), true, 7);
            let x = tape.input(p.x0);
            let e = tape.input(p.e0);
            let (x_out, _) =
                layer.forward(&mut tape, x, e, &p.idx, &p.blocks, &p.edge_counts, false);
            let loss = tape.mse_loss(x_out, &targets);
            tape.backward(loss, &mut grads);
        }
        let (digest, touched) = grad_digest(&model, &grads);
        assert!(touched > 10, "only {touched} parameters got a gradient");
        assert_eq!(
            digest, 0x0327_79d9_2539_409e,
            "gradient digest {digest:#018x}"
        );
    }

    /// Two stacked default GPS layers (dropout 0.1) on the same pack,
    /// with a loss reading both the node and the edge output, so the
    /// edge stream's batch-norm, ReLU, dropout and residual backward all
    /// contribute. Digests every parameter gradient, the loss and the
    /// saved store (its batch-norm running statistics); the value was
    /// recorded with the unfused GatedGCN op chain.
    #[test]
    fn two_gps_layer_train_step_with_edge_loss_is_pinned() {
        let model = CircuitGps::new(ModelConfig::default());
        let p = pinned_pack(model.cfg.hidden_dim);
        let x_targets = wave(p.x0.len(), 0.11);
        let e_targets = wave(p.e0.len(), 0.05);
        let mut grads = GradStore::new(model.store());
        let loss_bits = {
            let mut tape = Tape::new(model.store(), true, 7);
            let x = tape.input(p.x0);
            let e = tape.input(p.e0);
            let (l0, l1) = (&model.layers[0], &model.layers[1]);
            let (x1, e1) = l0.forward(&mut tape, x, e, &p.idx, &p.blocks, &p.edge_counts, true);
            let (x2, e2) = l1.forward(&mut tape, x1, e1, &p.idx, &p.blocks, &p.edge_counts, true);
            let lx = tape.mse_loss(x2, &x_targets);
            let le = tape.mse_loss(e2, &e_targets);
            let loss = tape.add(lx, le);
            tape.backward(loss, &mut grads);
            tape.value(loss).item().to_bits()
        };
        let (mut digest, touched) = grad_digest(&model, &grads);
        fnv(&mut digest, &loss_bits.to_le_bytes());
        let mut blob = Vec::new();
        model.store().save_blob(&mut blob).unwrap();
        fnv(&mut digest, &blob);
        assert!(touched > 20, "only {touched} parameters got a gradient");
        assert_eq!(
            digest, 0x40b4_d468_37a4_cebf,
            "gradient digest {digest:#018x}"
        );
    }

    #[test]
    fn save_load_round_trip_preserves_predictions() {
        let s = sample_with(PeKind::Dspd);
        let cfg = ModelConfig {
            hidden_dim: 16,
            pe_dim: 4,
            heads: 2,
            num_layers: 1,
            ..Default::default()
        };
        let model = CircuitGps::new(cfg.clone());
        let p1 = model.predict_link_batch(&[&s])[0];
        let mut bytes = Vec::new();
        model.store().save_blob(&mut bytes).unwrap();
        let mut model2 = CircuitGps::new(ModelConfig { seed: 999, ..cfg });
        assert_ne!(model2.predict_link_batch(&[&s])[0], p1);
        model2.store_mut().load_blob(&bytes[..]).unwrap();
        let p2 = model2.predict_link_batch(&[&s])[0];
        assert!((p1 - p2).abs() < 1e-6, "{p1} vs {p2}");
    }
}
