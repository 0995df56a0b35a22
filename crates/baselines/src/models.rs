//! The two baselines of Tables V/VI/VIII.
//!
//! **ParaGraph** (Ren et al., DAC 2020) — heterogeneous MPNN over the full
//! schematic graph with an *ensemble* of three magnitude sub-models whose
//! outputs are blended by a learned gate.
//!
//! **DLPL-Cap** (Shen et al., GLSVLSI 2024) — a GNN *router* that
//! classifies each target into one of five capacitance-magnitude classes,
//! followed by five expert regressors; the paper notes this data-sensitive
//! routing limits cross-design generalization.
//!
//! Both are adapted to the coupling task exactly as the paper describes:
//! full-graph input, circuit statistics `XC` as features, no subgraph
//! sampling, no positional encoding. Pair scores are computed from the
//! Hadamard product of endpoint embeddings.

use std::sync::Arc;

use cirgps_nn::{Activation, Linear, Mlp, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::sage::{FullGraphInputs, SageLayer, INPUT_DIM};

/// Number of ensemble sub-models in ParaGraph.
pub const PARAGRAPH_ENSEMBLE: usize = 3;
/// Number of expert regressors in DLPL-Cap.
pub const DLPL_EXPERTS: usize = 5;

/// Which baseline architecture to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaselineKind {
    /// ParaGraph \[18\].
    ParaGraph,
    /// DLPL-Cap \[19\].
    DlplCap,
}

impl BaselineKind {
    /// Display name used in the tables.
    pub fn paper_name(self) -> &'static str {
        match self {
            BaselineKind::ParaGraph => "ParaGraph",
            BaselineKind::DlplCap => "DLPL-Cap",
        }
    }
}

/// Hyperparameters shared by both baselines.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Hidden width.
    pub hidden_dim: usize,
    /// Message-passing depth.
    pub num_layers: usize,
    /// Parameter-init seed.
    pub seed: u64,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            hidden_dim: 16,
            num_layers: 3,
            seed: 0xBA5E,
        }
    }
}

/// A baseline model instance.
#[derive(Debug)]
pub struct Baseline {
    /// Which architecture this is.
    pub kind: BaselineKind,
    /// Configuration.
    pub cfg: BaselineConfig,
    store: ParamStore,
    layers: Vec<SageLayer>,
    /// Pair scorer for link prediction: MLP over h_m ⊙ h_n.
    link_mlp: Mlp,
    /// Gate / router over experts (pair or node embedding → expert logits).
    gate: Linear,
    /// Expert regression heads.
    experts: Vec<Mlp>,
}

impl Baseline {
    /// Builds a baseline with fresh parameters.
    pub fn new(kind: BaselineKind, cfg: BaselineConfig) -> Baseline {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let d = cfg.hidden_dim;
        let mut layers = Vec::new();
        for l in 0..cfg.num_layers {
            let in_dim = if l == 0 { INPUT_DIM } else { d };
            layers.push(SageLayer::new(
                &mut store,
                &format!("sage.{l}"),
                in_dim,
                d,
                &mut rng,
            ));
        }
        let n_experts = match kind {
            BaselineKind::ParaGraph => PARAGRAPH_ENSEMBLE,
            BaselineKind::DlplCap => DLPL_EXPERTS,
        };
        let link_mlp = Mlp::new(
            &mut store,
            "link",
            &[d, d, 1],
            Activation::Relu,
            0.0,
            &mut rng,
        );
        let gate = Linear::new(&mut store, "gate", d, n_experts, true, &mut rng);
        let experts = (0..n_experts)
            .map(|e| {
                Mlp::new(
                    &mut store,
                    &format!("expert.{e}"),
                    &[d, d, 1],
                    Activation::Relu,
                    0.0,
                    &mut rng,
                )
            })
            .collect();
        Baseline {
            kind,
            cfg,
            store,
            layers,
            link_mlp,
            gate,
            experts,
        }
    }

    /// The parameter store.
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Mutable store for the optimizer.
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Trainable parameter count.
    pub fn num_params(&self) -> usize {
        self.store.num_trainable()
    }

    /// Full-graph node embeddings (`N × d`).
    pub fn node_embeddings(&self, tape: &mut Tape, g: &FullGraphInputs) -> Var {
        let mut h = tape.input(g.features.clone());
        for layer in &self.layers {
            h = layer.forward(tape, h, g);
        }
        h
    }

    /// Pair embeddings for target links: `h_m ⊙ h_n` (`P × d`).
    pub fn pair_embeddings(&self, tape: &mut Tape, h: Var, pairs: &[(u32, u32)]) -> Var {
        let ms: Vec<usize> = pairs.iter().map(|&(m, _)| m as usize).collect();
        let ns: Vec<usize> = pairs.iter().map(|&(_, n)| n as usize).collect();
        let hm = tape.gather(h, Arc::new(ms));
        let hn = tape.gather(h, Arc::new(ns));
        tape.mul(hm, hn)
    }

    /// Link-existence logits for target pairs (`P × 1`).
    pub fn link_logits(&self, tape: &mut Tape, g: &FullGraphInputs, pairs: &[(u32, u32)]) -> Var {
        let h = self.node_embeddings(tape, g);
        let pe = self.pair_embeddings(tape, h, pairs);
        self.link_mlp.forward(tape, pe)
    }

    /// Regression outputs in `[0, 1]` from an embedding matrix (`P × d`):
    /// gated mixture of experts (soft routing keeps DLPL-Cap's
    /// classify-then-regress scheme differentiable end to end).
    pub fn expert_outputs(&self, tape: &mut Tape, emb: Var) -> Var {
        let gate_logits = self.gate.forward(tape, emb);
        let weights = tape.softmax_rows(gate_logits); // P × E
        let mut total: Option<Var> = None;
        for (e, expert) in self.experts.iter().enumerate() {
            let pred = expert.forward(tape, emb); // P × 1
            let w = tape.col_slice(weights, e, 1); // P × 1
            let contrib = tape.mul(pred, w);
            total = Some(match total {
                Some(t) => tape.add(t, contrib),
                None => contrib,
            });
        }
        let out = total.expect("at least one expert");
        tape.sigmoid(out)
    }

    /// Edge-regression predictions for pairs (`P × 1`, in `[0, 1]`).
    pub fn reg_outputs(&self, tape: &mut Tape, g: &FullGraphInputs, pairs: &[(u32, u32)]) -> Var {
        let h = self.node_embeddings(tape, g);
        let pe = self.pair_embeddings(tape, h, pairs);
        self.expert_outputs(tape, pe)
    }

    /// Node-regression predictions for nodes (`P × 1`, in `[0, 1]`).
    pub fn node_reg_outputs(&self, tape: &mut Tape, g: &FullGraphInputs, nodes: &[u32]) -> Var {
        let h = self.node_embeddings(tape, g);
        let idx: Vec<usize> = nodes.iter().map(|&v| v as usize).collect();
        let emb = tape.gather(h, Arc::new(idx));
        self.expert_outputs(tape, emb)
    }

    /// Router-assignment auxiliary loss for DLPL-Cap: cross-entropy of the
    /// gate against magnitude-bin labels. ParaGraph trains its gate end to
    /// end only.
    pub fn router_loss(&self, tape: &mut Tape, emb: Var, bins: &[usize]) -> Var {
        let gate_logits = self.gate.forward(tape, emb);
        tape.cross_entropy(gate_logits, bins)
    }

    /// The magnitude bin of a normalized target for router supervision.
    pub fn magnitude_bin(&self, target: f32) -> usize {
        let n = self.experts.len();
        ((target * n as f32) as usize).min(n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit_graph::{EdgeType, GraphBuilder, NodeType};
    use subgraph_sample::XcNormalizer;

    fn inputs() -> FullGraphInputs {
        let mut b = GraphBuilder::new();
        let mut prev = b.add_node(NodeType::Net, "n0");
        for i in 1..8 {
            let v = b.add_node(
                if i % 2 == 0 {
                    NodeType::Net
                } else {
                    NodeType::Pin
                },
                &format!("v{i}"),
            );
            b.add_edge(prev, v, EdgeType::NetPin);
            prev = v;
        }
        let g = b.build();
        let xcn = XcNormalizer::fit(&[&g]);
        FullGraphInputs::new(&g, &xcn)
    }

    #[test]
    fn paragraph_shapes() {
        let g = inputs();
        let m = Baseline::new(BaselineKind::ParaGraph, BaselineConfig::default());
        let mut tape = Tape::new(m.store(), false, 0);
        let logits = m.link_logits(&mut tape, &g, &[(0, 3), (1, 5)]);
        assert_eq!(tape.shape(logits), (2, 1));
        let mut tape2 = Tape::new(m.store(), false, 0);
        let regs = m.reg_outputs(&mut tape2, &g, &[(0, 3)]);
        let v = tape2.value(regs).item();
        assert!((0.0..=1.0).contains(&v));
    }

    #[test]
    fn dlpl_has_five_experts_and_router() {
        let g = inputs();
        let m = Baseline::new(BaselineKind::DlplCap, BaselineConfig::default());
        assert_eq!(m.experts.len(), DLPL_EXPERTS);
        assert_eq!(m.magnitude_bin(0.0), 0);
        assert_eq!(m.magnitude_bin(0.99), 4);
        let mut tape = Tape::new(m.store(), true, 0);
        let h = m.node_embeddings(&mut tape, &g);
        let emb = m.pair_embeddings(&mut tape, h, &[(0, 2), (3, 5)]);
        let loss = m.router_loss(&mut tape, emb, &[0, 4]);
        assert!(tape.value(loss).item() > 0.0);
    }

    #[test]
    fn node_regression_path() {
        let g = inputs();
        let m = Baseline::new(BaselineKind::DlplCap, BaselineConfig::default());
        let mut tape = Tape::new(m.store(), false, 0);
        let out = m.node_reg_outputs(&mut tape, &g, &[1, 4, 6]);
        assert_eq!(tape.shape(out), (3, 1));
    }

    #[test]
    fn param_counts_differ_by_expert_count() {
        let p = Baseline::new(BaselineKind::ParaGraph, BaselineConfig::default());
        let d = Baseline::new(BaselineKind::DlplCap, BaselineConfig::default());
        assert!(d.num_params() > p.num_params());
    }
}
