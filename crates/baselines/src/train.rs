//! Full-batch training and evaluation for the baselines.
//!
//! The baselines train on entire circuit graphs (one gradient step per
//! design per epoch), exactly the adaptation the paper describes — no
//! subgraph sampling means every step pays the full-graph forward cost,
//! which is also why these models cannot exploit the paper's few-shot
//! pre-training.

use circuitgps::{link_metrics, reg_metrics, LinkMetrics, RegMetrics};
use cirgps_nn::{Adam, GradStore, Tape, Var};
use subgraph_sample::Link;

use crate::models::{Baseline, BaselineKind};
use crate::sage::FullGraphInputs;

/// Target pairs (or nodes) with labels for one design.
#[derive(Debug, Clone, Default)]
pub struct PairTask {
    /// Endpoint node ids.
    pub pairs: Vec<(u32, u32)>,
    /// Binary existence labels.
    pub labels: Vec<f32>,
    /// Normalized capacitance targets in `[0, 1]`.
    pub targets: Vec<f32>,
}

impl PairTask {
    /// Builds a pair task from balanced links with a capacitance encoder.
    pub fn from_links(links: &[Link], encode: impl Fn(f64) -> f32) -> PairTask {
        PairTask {
            pairs: links.iter().map(|l| (l.a, l.b)).collect(),
            labels: links.iter().map(|l| l.label).collect(),
            targets: links.iter().map(|l| encode(l.cap)).collect(),
        }
    }

    /// Number of targets.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether there are no targets.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// Node-level targets for one design.
#[derive(Debug, Clone, Default)]
pub struct NodeTask {
    /// Target node ids.
    pub nodes: Vec<u32>,
    /// Normalized ground-capacitance targets.
    pub targets: Vec<f32>,
}

/// Baseline training hyperparameters.
#[derive(Debug, Clone)]
pub struct BaselineTrainConfig {
    /// Full-batch epochs (per design).
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Gradient clip.
    pub clip: f32,
    /// Router auxiliary-loss weight (DLPL-Cap only).
    pub router_weight: f32,
}

impl Default for BaselineTrainConfig {
    fn default() -> Self {
        BaselineTrainConfig {
            epochs: 60,
            lr: 5e-3,
            clip: 1.0,
            router_weight: 0.3,
        }
    }
}

/// Trains link prediction over one or more training designs.
///
/// Returns the final mean loss.
pub fn train_link(
    model: &mut Baseline,
    designs: &[(&FullGraphInputs, &PairTask)],
    cfg: &BaselineTrainConfig,
) -> f32 {
    train_full_batch(
        model,
        designs,
        cfg,
        PairTask::is_empty,
        |m, tape, g, task| {
            let logits = m.link_logits(tape, g, &task.pairs);
            tape.bce_with_logits(logits, &task.labels)
        },
    )
}

/// Trains edge regression (with DLPL-Cap's router supervision).
pub fn train_regression(
    model: &mut Baseline,
    designs: &[(&FullGraphInputs, &PairTask)],
    cfg: &BaselineTrainConfig,
) -> f32 {
    train_full_batch(
        model,
        designs,
        cfg,
        PairTask::is_empty,
        |m, tape, g, task| {
            let h = m.node_embeddings(tape, g);
            let emb = m.pair_embeddings(tape, h, &task.pairs);
            let outs = m.expert_outputs(tape, emb);
            let loss = tape.l1_loss(outs, &task.targets);
            if m.kind != BaselineKind::DlplCap || cfg.router_weight <= 0.0 {
                return loss;
            }
            let bins: Vec<usize> = task.targets.iter().map(|&t| m.magnitude_bin(t)).collect();
            let aux = m.router_loss(tape, emb, &bins);
            let aux = tape.scale(aux, cfg.router_weight);
            tape.add(loss, aux)
        },
    )
}

/// Trains node-level ground-capacitance regression.
pub fn train_node_regression(
    model: &mut Baseline,
    designs: &[(&FullGraphInputs, &NodeTask)],
    cfg: &BaselineTrainConfig,
) -> f32 {
    let is_empty = |task: &NodeTask| task.nodes.is_empty();
    train_full_batch(model, designs, cfg, is_empty, |m, tape, g, task| {
        let outs = m.node_reg_outputs(tape, g, &task.nodes);
        tape.l1_loss(outs, &task.targets)
    })
}

/// The trainers' shared loop: every epoch, one Adam step per non-empty
/// design on the clipped gradient of `loss`. Returns the last epoch's
/// summed loss over the number of designs.
fn train_full_batch<T>(
    model: &mut Baseline,
    designs: &[(&FullGraphInputs, &T)],
    cfg: &BaselineTrainConfig,
    is_empty: impl Fn(&T) -> bool,
    loss: impl Fn(&Baseline, &mut Tape, &FullGraphInputs, &T) -> Var,
) -> f32 {
    let mut opt = Adam::new(cfg.lr);
    let mut last = f32::NAN;
    for _ in 0..cfg.epochs {
        let mut total = 0.0f32;
        for &(g, task) in designs {
            if is_empty(task) {
                continue;
            }
            let mut grads = GradStore::new(model.store());
            {
                // Inner scope: the tape borrows the store and recycles its
                // buffers on drop, so it must die before the optimizer step.
                let mut tape = Tape::new(model.store(), true, 0);
                let l = loss(model, &mut tape, g, task);
                tape.backward(l, &mut grads);
                total += tape.value(l).item();
            }
            grads.clip_global_norm(cfg.clip);
            opt.step(model.store_mut(), &grads);
        }
        last = total / designs.len().max(1) as f32;
    }
    last
}

/// Zero-shot link evaluation on a test design.
pub fn evaluate_link(model: &Baseline, g: &FullGraphInputs, task: &PairTask) -> LinkMetrics {
    let mut tape = Tape::new(model.store(), false, 0);
    let logits = model.link_logits(&mut tape, g, &task.pairs);
    let scores: Vec<f32> = tape
        .value(logits)
        .as_slice()
        .iter()
        .map(|&z| 1.0 / (1.0 + (-z).exp()))
        .collect();
    link_metrics(&scores, &task.labels)
}

/// Zero-shot edge-regression evaluation.
pub fn evaluate_regression(model: &Baseline, g: &FullGraphInputs, task: &PairTask) -> RegMetrics {
    let mut tape = Tape::new(model.store(), false, 0);
    let outs = model.reg_outputs(&mut tape, g, &task.pairs);
    reg_metrics(tape.value(outs).as_slice(), &task.targets)
}

/// Zero-shot node-regression evaluation.
pub fn evaluate_node_regression(
    model: &Baseline,
    g: &FullGraphInputs,
    task: &NodeTask,
) -> RegMetrics {
    let mut tape = Tape::new(model.store(), false, 0);
    let outs = model.node_reg_outputs(&mut tape, g, &task.nodes);
    reg_metrics(tape.value(outs).as_slice(), &task.targets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::BaselineConfig;
    use circuit_graph::{EdgeType, GraphBuilder, NodeType};
    use subgraph_sample::XcNormalizer;

    /// Two hub clusters whose nodes carry *different circuit statistics*
    /// (wide vs narrow devices): positives couple wide-to-wide, negatives
    /// wide-to-narrow. Note that a purely structural version of this task
    /// (isomorphic clusters, no feature difference) is provably
    /// unlearnable for a full-graph MPNN — which is exactly the
    /// limitation CircuitGPS's enclosing subgraphs address.
    fn toy() -> (FullGraphInputs, PairTask) {
        let mut b = GraphBuilder::new();
        let make_cluster = |b: &mut GraphBuilder, tag: &str, width: f32| -> Vec<u32> {
            let hub = b.add_node(NodeType::Net, &format!("{tag}h"));
            b.set_xc(hub, 4, width * 3.0);
            let mut v = vec![hub];
            for i in 0..5 {
                let p = b.add_node(NodeType::Pin, &format!("{tag}{i}"));
                b.set_xc(p, 0, width);
                b.add_edge(hub, p, EdgeType::NetPin);
                v.push(p);
            }
            v
        };
        let c1 = make_cluster(&mut b, "a", 4.0);
        let c2 = make_cluster(&mut b, "b", 0.5);
        let g = b.build();
        let xcn = XcNormalizer::fit(&[&g]);
        let inputs = FullGraphInputs::new(&g, &xcn);
        let mut task = PairTask::default();
        for i in 1..5 {
            task.pairs.push((c1[i], c1[i + 1]));
            task.labels.push(1.0);
            task.targets.push(0.8);
            task.pairs.push((c1[i], c2[i]));
            task.labels.push(0.0);
            task.targets.push(0.0);
        }
        (inputs, task)
    }

    #[test]
    fn baseline_link_training_learns_toy_task() {
        let (g, task) = toy();
        let mut m = Baseline::new(BaselineKind::ParaGraph, BaselineConfig::default());
        let cfg = BaselineTrainConfig {
            epochs: 150,
            lr: 1e-2,
            ..Default::default()
        };
        let loss = train_link(&mut m, &[(&g, &task)], &cfg);
        assert!(loss < 0.5, "loss {loss}");
        let metrics = evaluate_link(&m, &g, &task);
        assert!(metrics.accuracy > 0.7, "accuracy {:.3}", metrics.accuracy);
    }

    #[test]
    fn baseline_regression_fits() {
        let (g, task) = toy();
        let mut m = Baseline::new(BaselineKind::DlplCap, BaselineConfig::default());
        let cfg = BaselineTrainConfig {
            epochs: 200,
            lr: 1e-2,
            ..Default::default()
        };
        train_regression(&mut m, &[(&g, &task)], &cfg);
        let metrics = evaluate_regression(&m, &g, &task);
        assert!(metrics.mae < 0.25, "mae {:.3}", metrics.mae);
    }

    #[test]
    fn node_regression_round_trip() {
        let (g, _) = toy();
        let task = NodeTask {
            nodes: vec![0, 1, 2],
            targets: vec![0.2, 0.5, 0.7],
        };
        let mut m = Baseline::new(BaselineKind::ParaGraph, BaselineConfig::default());
        let cfg = BaselineTrainConfig {
            epochs: 150,
            lr: 1e-2,
            ..Default::default()
        };
        train_node_regression(&mut m, &[(&g, &task)], &cfg);
        let metrics = evaluate_node_regression(&m, &g, &task);
        assert!(metrics.mae < 0.3, "mae {:.3}", metrics.mae);
    }
}
