//! Zero-shot coupling prediction: pre-train on one design archetype,
//! evaluate on a completely unseen one (the paper's Table V setting).
//!
//! ```bash
//! cargo run --release --example link_prediction
//! ```

use cirgps::datagen::{generate_with_parasitics, DesignKind, SizePreset};
use cirgps::graph::netlist_to_graph;
use cirgps::model::{
    evaluate_link, prepare_link_dataset, train_with_progress, CircuitGps, ModelConfig, Task,
    TrainConfig,
};
use cirgps::pe::PeKind;
use cirgps::sample::{CapNormalizer, DatasetConfig, LinkDataset, XcNormalizer};

fn build(
    kind: DesignKind,
    seed: u64,
) -> Result<(cirgps::graph::CircuitGraph, LinkDataset), Box<dyn std::error::Error>> {
    let (design, spf) = generate_with_parasitics(kind, SizePreset::Tiny, seed)?;
    let (graph, map) = netlist_to_graph(&design.netlist);
    let ds = LinkDataset::build(
        kind.paper_name(),
        &graph,
        &design.netlist,
        &map,
        &spf,
        &DatasetConfig {
            max_per_type: 120,
            ..Default::default()
        },
    );
    Ok((graph, ds))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Train on the SSRAM archetype; never show the model the clock
    // generator.
    let (train_graph, train_ds) = build(DesignKind::Ssram, 7)?;
    let (_, test_ds) = build(DesignKind::DigitalClkGen, 8)?;

    // Normalizers are fitted on training data only.
    let xcn = XcNormalizer::fit(&[&train_graph]);
    let cap = CapNormalizer::paper_range();
    let train = prepare_link_dataset(&train_ds, PeKind::Dspd, &xcn, |c| cap.encode(c));
    let test = prepare_link_dataset(&test_ds, PeKind::Dspd, &xcn, |c| cap.encode(c));

    let mut model = CircuitGps::new(ModelConfig::default());
    println!("pre-training on {} SSRAM link samples...", train.len());
    train_with_progress(
        &mut model,
        &train,
        Task::LinkPrediction,
        &TrainConfig {
            epochs: 5,
            ..Default::default()
        },
        &mut |_, p| eprintln!("epoch {:>3}: loss {:.4}", p.epoch, p.loss),
    )
    .expect("training diverged");

    // Save the meta-learner checkpoint, as the paper does before
    // fine-tuning or zero-shot transfer.
    let mut checkpoint = Vec::new();
    model.save_checkpoint(&mut checkpoint)?;
    println!("checkpoint: {} bytes", checkpoint.len());

    let train_m = evaluate_link(&model, &train);
    let test_m = evaluate_link(&model, &test);
    println!(
        "train (SSRAM):             acc {:.3}  F1 {:.3}  AUC {:.3}",
        train_m.accuracy, train_m.f1, train_m.auc
    );
    println!(
        "zero-shot (DIGITAL_CLK_GEN): acc {:.3}  F1 {:.3}  AUC {:.3}",
        test_m.accuracy, test_m.f1, test_m.auc
    );
    Ok(())
}
