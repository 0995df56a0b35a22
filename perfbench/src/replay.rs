//! Per-branch attribution of the forward pass.
//!
//! The model's forward is one call (`predict_*_batch`), so its branches
//! cannot be timed from outside. Instead the traced run records the shape
//! of every batch it sends through the engine, and [`Replayer`] replays
//! those batches through standalone copies of the model's public layers
//! at the model's dimensions: the encoder embeddings,
//! `GatedGcn::infer_opts`, `PerformerAttention::infer_blocks`,
//! `BatchNorm1d::infer_of_sum` + `Mlp::infer`, and the heads.
//!
//! Operation counts are derived from tensor shapes and model dims (GEMM
//! multiply-adds × 2); they are computed, not read from hardware
//! counters, and the rates they give are for the CPU the run used.

use std::time::{Duration, Instant};

use circuit_graph::{EdgeType, NodeType, PinKind, XC_DIM};
use circuitgps::{AttnKind, ModelConfig, MpnnKind, PreparedSample};
use cirgps_nn::infer::{colvec_zip, concat_cols, gather_rows, scatter_add_rows};
use cirgps_nn::{
    Activation, BatchNorm1d, EdgeIndex, Embedding, GatedGcn, Linear, Mlp, ParamStore,
    PerformerAttention, Tensor,
};
use graph_pe::PeFeatures;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The structure of one engine batch, enough to replay it.
#[derive(Debug, Clone)]
pub struct BatchShape {
    /// Regression head (coupling/ground) rather than link head.
    pub reg: bool,
    /// `(first row, rows)` per graph.
    pub blocks: Vec<(usize, usize)>,
    /// Graph index per row.
    pub graph_ids: Vec<usize>,
    /// Directed edges, batch-global row ids.
    pub src: Vec<usize>,
    /// Directed edge targets.
    pub dst: Vec<usize>,
    /// Edge type code per directed edge.
    pub edge_types: Vec<usize>,
    /// Node type code per row.
    pub node_types: Vec<usize>,
    /// DSPD distance codes to the two anchors (empty for other PEs).
    pub pe_a: Vec<usize>,
    /// See `pe_a`.
    pub pe_b: Vec<usize>,
    /// Pin-kind code per row.
    pub pin_codes: Vec<usize>,
    /// Normalized circuit statistics, `rows × XC_DIM`.
    pub xc: Vec<f32>,
}

impl BatchShape {
    /// Records the batch `samples` as the engine would pack it.
    pub fn of(samples: &[&PreparedSample], reg: bool) -> BatchShape {
        let mut b = BatchShape {
            reg,
            blocks: Vec::with_capacity(samples.len()),
            graph_ids: Vec::new(),
            src: Vec::new(),
            dst: Vec::new(),
            edge_types: Vec::new(),
            node_types: Vec::new(),
            pe_a: Vec::new(),
            pe_b: Vec::new(),
            pin_codes: Vec::new(),
            xc: Vec::new(),
        };
        let mut offset = 0;
        for (gi, s) in samples.iter().enumerate() {
            let n = s.sub.num_nodes();
            b.blocks.push((offset, n));
            b.graph_ids.extend(std::iter::repeat_n(gi, n));
            b.src.extend(s.sub.src.iter().map(|&x| x + offset));
            b.dst.extend(s.sub.dst.iter().map(|&x| x + offset));
            b.edge_types.extend_from_slice(&s.sub.edge_types);
            b.node_types.extend_from_slice(&s.sub.node_types);
            if let PeFeatures::CategoricalPair { a, b: pb, .. } = &s.pe {
                b.pe_a.extend_from_slice(a);
                b.pe_b.extend_from_slice(pb);
            }
            b.pin_codes.extend_from_slice(&s.pin_codes);
            b.xc.extend_from_slice(&s.xc_norm);
            offset += n;
        }
        b
    }

    /// Records `samples` as the engine's tiles: `predict_*_batch` splits
    /// a batch once its node and edge rows pass about 160 Ki floats of
    /// features at width `d`, and runs each tile on its own.
    pub fn tiles(samples: &[&PreparedSample], reg: bool, d: usize) -> Vec<BatchShape> {
        const TILE_FLOATS: usize = 160 * 1024;
        let mut out = Vec::new();
        let mut start = 0;
        while start < samples.len() {
            let (mut end, mut floats) = (start, 0);
            while end < samples.len() {
                floats += (samples[end].sub.src.len() + samples[end].sub.num_nodes()) * d;
                if end > start && floats > TILE_FLOATS {
                    break;
                }
                end += 1;
            }
            out.push(BatchShape::of(&samples[start..end], reg));
            start = end;
        }
        out
    }

    /// Rows (nodes) in the batch.
    pub fn rows(&self) -> usize {
        self.node_types.len()
    }

    /// Graphs in the batch.
    pub fn graphs(&self) -> usize {
        self.blocks.len()
    }
}

/// Busy time and computed FLOPs per forward branch.
#[derive(Debug, Default, Clone, Copy)]
pub struct Branches {
    /// Encoder embeddings (gathers: no FLOPs counted).
    pub encoder: Duration,
    /// GatedGCN message passing.
    pub mpnn: Duration,
    /// Performer attention.
    pub attn: Duration,
    /// Residual batch norms and the MLP.
    pub mlp_bn: Duration,
    /// Pooling and the task head.
    pub head: Duration,
    /// FLOPs of `mpnn`.
    pub mpnn_flop: f64,
    /// FLOPs of `attn`.
    pub attn_flop: f64,
    /// FLOPs of `mlp_bn`.
    pub mlp_bn_flop: f64,
    /// FLOPs of `head`.
    pub head_flop: f64,
}

struct Layer {
    mpnn: Option<GatedGcn>,
    attn: Option<(PerformerAttention, BatchNorm1d)>,
    mlp: Mlp,
    bn_mlp: BatchNorm1d,
}

/// Standalone layers at a model's dimensions.
pub struct Replayer {
    store: ParamStore,
    d: usize,
    features: usize,
    pe: Option<(Embedding, Embedding)>,
    node_emb: Embedding,
    edge_emb: Embedding,
    layers: Vec<Layer>,
    link_head: Mlp,
    net_proj: Linear,
    dev_proj: Linear,
    pin_emb: Embedding,
    reg_head: Mlp,
}

impl Replayer {
    /// Builds layers shaped like a model with config `cfg`.
    pub fn new(cfg: &ModelConfig) -> Replayer {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let s = &mut store;
        let d = cfg.hidden_dim;
        let pe = (cfg.pe == graph_pe::PeKind::Dspd).then(|| {
            let classes = graph_pe::DIST_CLASSES;
            (
                Embedding::new(s, "pe.d0", classes, cfg.pe_dim, &mut rng),
                Embedding::new(s, "pe.d1", classes, cfg.pe_dim, &mut rng),
            )
        });
        let pe_total = if pe.is_some() { 2 * cfg.pe_dim } else { 0 };
        let node_emb = Embedding::new(s, "node", NodeType::COUNT, d - pe_total, &mut rng);
        let edge_emb = Embedding::new(s, "edge", EdgeType::COUNT, d, &mut rng);
        let features = match cfg.attn {
            AttnKind::Performer { features } => features,
            _ => 0,
        };
        let layers = (0..cfg.num_layers)
            .map(|l| Layer {
                mpnn: (cfg.mpnn == MpnnKind::GatedGcn)
                    .then(|| GatedGcn::new(s, &format!("g{l}"), d, 0.0, &mut rng)),
                attn: (features > 0).then(|| {
                    (
                        PerformerAttention::new(
                            s,
                            &format!("a{l}"),
                            d,
                            cfg.heads,
                            features,
                            &mut rng,
                        ),
                        BatchNorm1d::new(s, &format!("ba{l}"), d),
                    )
                }),
                mlp: Mlp::new(
                    s,
                    &format!("m{l}"),
                    &[d, 2 * d, d],
                    Activation::Relu,
                    0.0,
                    &mut rng,
                ),
                bn_mlp: BatchNorm1d::new(s, &format!("bm{l}"), d),
            })
            .collect();
        let link_head = Mlp::new(s, "hl", &[d, d, 1], Activation::Relu, 0.0, &mut rng);
        let net_proj = Linear::new(s, "hn", XC_DIM, d, true, &mut rng);
        let dev_proj = Linear::new(s, "hd", XC_DIM, d, true, &mut rng);
        let pin_emb = Embedding::new(s, "hp", PinKind::COUNT, d, &mut rng);
        let reg_head = Mlp::new(s, "hr", &[d, d, 1], Activation::Relu, 0.0, &mut rng);
        Replayer {
            store,
            d,
            features,
            pe,
            node_emb,
            edge_emb,
            layers,
            link_head,
            net_proj,
            dev_proj,
            pin_emb,
            reg_head,
        }
    }

    /// Replays one batch, adding each branch's busy time and FLOPs to
    /// `acc`. Mirrors the engine's order of operations, including the
    /// first layer's typed-edge fast path and the skipped edge output of
    /// the last layer.
    pub fn replay(&self, b: &BatchShape, acc: &mut Branches) {
        let p = &self.store;
        let (n, e, g) = (b.rows() as f64, b.src.len() as f64, b.graphs() as f64);
        let d = self.d as f64;

        let t = Instant::now();
        let mut parts = Vec::with_capacity(3);
        if let Some((d0, d1)) = &self.pe {
            parts.push(d0.infer(p, &b.pe_a));
            parts.push(d1.infer(p, &b.pe_b));
        }
        parts.push(self.node_emb.infer(p, &b.node_types));
        let refs: Vec<&Tensor> = parts.iter().collect();
        let mut x = concat_cols(&refs);
        drop(refs);
        parts.into_iter().for_each(Tensor::recycle);
        let mut ef = self.edge_emb.infer(p, &b.edge_types);
        acc.encoder += t.elapsed();

        let idx = EdgeIndex::new(b.src.clone(), b.dst.clone());
        let last = self.layers.len().saturating_sub(1);
        for (li, layer) in self.layers.iter().enumerate() {
            let t = Instant::now();
            let xm = match &layer.mpnn {
                Some(gcn) if !b.src.is_empty() => {
                    let typed =
                        (li == 0).then(|| (b.edge_types.as_slice(), self.edge_emb.table(p)));
                    let (xm, em) = gcn.infer_opts(p, &x, &ef, &idx, typed, li < last);
                    std::mem::replace(&mut ef, em).recycle();
                    let edge_rows = if li == 0 { EdgeType::COUNT as f64 } else { e };
                    acc.mpnn_flop += 2.0 * (4.0 * n + edge_rows) * d * d;
                    Some(xm)
                }
                _ => None,
            };
            acc.mpnn += t.elapsed();

            let t = Instant::now();
            let h = layer
                .attn
                .as_ref()
                .map(|(a, _)| a.infer_blocks(p, &x, &b.blocks));
            acc.attn += t.elapsed();
            if h.is_some() {
                acc.attn_flop += 2.0 * (4.0 * n * d * d + 4.0 * n * self.features as f64 * d);
            }

            let t = Instant::now();
            let xa = h.map(|h| {
                let (_, bn) = layer.attn.as_ref().expect("attention ran");
                let a = bn.infer_of_sum(p, &h, &x);
                h.recycle();
                a
            });
            let combined = match (xm, xa) {
                (Some(mut m), Some(a)) => {
                    m.add_assign(&a);
                    a.recycle();
                    m
                }
                (Some(m), None) => m,
                (None, Some(a)) => a,
                (None, None) => x.clone(),
            };
            x.recycle();
            let h = layer.mlp.infer(p, &combined);
            x = layer.bn_mlp.infer_of_sum(p, &h, &combined);
            h.recycle();
            combined.recycle();
            acc.mlp_bn += t.elapsed();
            acc.mlp_bn_flop += 2.0 * 4.0 * n * d * d;
        }
        ef.recycle();

        let t = Instant::now();
        let counts: Vec<f32> = b
            .blocks
            .iter()
            .map(|&(_, len)| 1.0 / len.max(1) as f32)
            .collect();
        let inv = Tensor::col(&counts);
        if b.reg {
            let mut c = Tensor::zeros(b.rows(), self.d);
            let xc = Tensor::from_vec(b.rows(), XC_DIM, b.xc.clone());
            let rows_of = |ty: NodeType| -> Vec<usize> {
                (0..b.rows())
                    .filter(|&i| b.node_types[i] == ty.code())
                    .collect()
            };
            for (ty, proj) in [
                (NodeType::Net, &self.net_proj),
                (NodeType::Device, &self.dev_proj),
            ] {
                let rows = rows_of(ty);
                if rows.is_empty() {
                    continue;
                }
                let picked = gather_rows(&xc, &rows);
                let out = proj.infer(p, &picked);
                let back = scatter_add_rows(&out, &rows, b.rows());
                c.add_assign(&back);
                acc.head_flop += 2.0 * rows.len() as f64 * XC_DIM as f64 * d;
                for t in [picked, out, back] {
                    t.recycle();
                }
            }
            let pins = rows_of(NodeType::Pin);
            if !pins.is_empty() {
                let codes: Vec<usize> = pins.iter().map(|&i| b.pin_codes[i]).collect();
                let emb = self.pin_emb.infer(p, &codes);
                let back = scatter_add_rows(&emb, &pins, b.rows());
                c.add_assign(&back);
                emb.recycle();
                back.recycle();
            }
            c.add_assign(&x);
            let sums = scatter_add_rows(&c, &b.graph_ids, b.graphs());
            let pooled = colvec_zip(&sums, &inv, |v, s| v * s);
            let anchors: Vec<usize> = b.blocks.iter().map(|&(r0, _)| r0).collect();
            let mut readout = gather_rows(&c, &anchors);
            readout.add_assign(&pooled);
            let out = self.reg_head.infer(p, &readout);
            for t in [c, xc, sums, pooled, readout, out] {
                t.recycle();
            }
        } else {
            let sums = scatter_add_rows(&x, &b.graph_ids, b.graphs());
            let pooled = colvec_zip(&sums, &inv, |v, s| v * s);
            let out = self.link_head.infer(p, &pooled);
            for t in [sums, pooled, out] {
                t.recycle();
            }
        }
        inv.recycle();
        x.recycle();
        acc.head += t.elapsed();
        acc.head_flop += 2.0 * g * (d * d + d);
    }
}

/// Computed forward FLOPs of a batch, without running it.
pub fn forward_flop(cfg: &ModelConfig, b: &BatchShape) -> f64 {
    let (n, e, g) = (b.rows() as f64, b.src.len() as f64, b.graphs() as f64);
    let d = cfg.hidden_dim as f64;
    let mut flop = 0.0;
    for li in 0..cfg.num_layers {
        if cfg.mpnn == MpnnKind::GatedGcn && e > 0.0 {
            let edge_rows = if li == 0 { EdgeType::COUNT as f64 } else { e };
            flop += 2.0 * (4.0 * n + edge_rows) * d * d;
        }
        if let AttnKind::Performer { features } = cfg.attn {
            flop += 2.0 * (4.0 * n * d * d + 4.0 * n * features as f64 * d);
        }
        flop += 2.0 * 4.0 * n * d * d;
    }
    if b.reg {
        let typed = b
            .node_types
            .iter()
            .filter(|&&t| t == NodeType::Net.code() || t == NodeType::Device.code())
            .count() as f64;
        flop += 2.0 * typed * XC_DIM as f64 * d;
    }
    flop + 2.0 * g * (d * d + d)
}

/// Replays `batches` (at most `limit`, evenly strided) and returns the
/// summed branch times scaled to all of them.
pub fn replay_all(cfg: &ModelConfig, batches: &[BatchShape], limit: usize) -> Branches {
    let mut acc = Branches::default();
    if batches.is_empty() {
        return acc;
    }
    let replayer = Replayer::new(cfg);
    let step = batches.len().div_ceil(limit.max(1));
    let picked: Vec<&BatchShape> = batches.iter().step_by(step).collect();
    // One untimed pass warms the buffer pool and caches.
    replayer.replay(picked[0], &mut Branches::default());
    for b in &picked {
        replayer.replay(b, &mut acc);
    }
    let scale = batches.len() as f64 / picked.len() as f64;
    let s = |dur: Duration| dur.mul_f64(scale);
    Branches {
        encoder: s(acc.encoder),
        mpnn: s(acc.mpnn),
        attn: s(acc.attn),
        mlp_bn: s(acc.mlp_bn),
        head: s(acc.head),
        mpnn_flop: acc.mpnn_flop * scale,
        attn_flop: acc.attn_flop * scale,
        mlp_bn_flop: acc.mlp_bn_flop * scale,
        head_flop: acc.head_flop * scale,
    }
}

/// Records the `nn.*` metrics: branch ms per workload operation and each
/// branch's computed GFLOP/s.
pub fn record(out: &mut crate::Outcome, br: &Branches, ops: f64) {
    let ms = |d: Duration| d.as_secs_f64() * 1e3 / ops.max(1.0);
    let rate = |flop: f64, d: Duration| {
        let s = d.as_secs_f64();
        if s > 0.0 {
            flop / s / 1e9
        } else {
            0.0
        }
    };
    out.set("nn.encoder_ms", ms(br.encoder));
    out.set("nn.mpnn_ms", ms(br.mpnn));
    out.set("nn.attn_ms", ms(br.attn));
    out.set("nn.mlp_bn_ms", ms(br.mlp_bn));
    out.set("nn.head_ms", ms(br.head));
    out.set("nn.mpnn_gflop_per_s", rate(br.mpnn_flop, br.mpnn));
    out.set("nn.attn_gflop_per_s", rate(br.attn_flop, br.attn));
    out.set("nn.mlp_bn_gflop_per_s", rate(br.mlp_bn_flop, br.mlp_bn));
    out.set("nn.head_gflop_per_s", rate(br.head_flop, br.head));
}
