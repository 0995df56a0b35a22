//! Coupling-capacitance regression with the paper's three adaptation
//! strategies: training from scratch, head-only fine-tuning, and
//! all-parameters fine-tuning from a link-prediction checkpoint
//! (Table VI).
//!
//! ```bash
//! cargo run --release --example capacitance_regression
//! ```

use cirgps::datagen::{generate_with_parasitics, DesignKind, SizePreset};
use cirgps::graph::netlist_to_graph;
use cirgps::model::{
    evaluate_regression, finetune_regression, prepare_link_dataset, pretrain_link, CircuitGps,
    FinetuneMode, ModelConfig, TrainConfig,
};
use cirgps::pe::PeKind;
use cirgps::sample::{CapNormalizer, DatasetConfig, LinkDataset, XcNormalizer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (design, spf) = generate_with_parasitics(DesignKind::Ssram, SizePreset::Tiny, 7)?;
    let (graph, map) = netlist_to_graph(&design.netlist);
    let ds = LinkDataset::build(
        "SSRAM",
        &graph,
        &design.netlist,
        &map,
        &spf,
        &DatasetConfig {
            max_per_type: 120,
            ..Default::default()
        },
    );
    let xcn = XcNormalizer::fit(&[&graph]);
    let cap = CapNormalizer::paper_range();
    // Targets: log-min-max normalized capacitance; negatives are zero.
    let samples = prepare_link_dataset(&ds, PeKind::Dspd, &xcn, |c| cap.encode(c));
    let (train, test) = samples.split_at(samples.len() * 4 / 5);
    let tcfg = TrainConfig {
        epochs: 5,
        ..Default::default()
    };

    // Strategy 1: from scratch.
    let mut scratch = CircuitGps::new(ModelConfig::default());
    finetune_regression(&mut scratch, train, FinetuneMode::Scratch, &tcfg)?;
    let m1 = evaluate_regression(&scratch, test);

    // Pre-train a meta-learner for the fine-tuning strategies.
    let mut pretrained = CircuitGps::new(ModelConfig::default());
    pretrain_link(&mut pretrained, train, &tcfg)?;
    let mut checkpoint = Vec::new();
    pretrained.save_checkpoint(&mut checkpoint)?;

    // Strategy 2: freeze encoders + GPS layers, train only the head.
    let (mut head_ft, _) = CircuitGps::load_checkpoint(&checkpoint[..])?;
    finetune_regression(&mut head_ft, train, FinetuneMode::HeadOnly, &tcfg)?;
    let m2 = evaluate_regression(&head_ft, test);

    // Strategy 3: fine-tune everything from the pre-trained init.
    let (mut all_ft, _) = CircuitGps::load_checkpoint(&checkpoint[..])?;
    finetune_regression(&mut all_ft, train, FinetuneMode::All, &tcfg)?;
    let m3 = evaluate_regression(&all_ft, test);

    println!("capacitance regression on held-out SSRAM links:");
    println!(
        "  scratch : MAE {:.3}  RMSE {:.3}  R2 {:.3}",
        m1.mae, m1.rmse, m1.r2
    );
    println!(
        "  head-ft : MAE {:.3}  RMSE {:.3}  R2 {:.3}",
        m2.mae, m2.rmse, m2.r2
    );
    println!(
        "  all-ft  : MAE {:.3}  RMSE {:.3}  R2 {:.3}",
        m3.mae, m3.rmse, m3.r2
    );

    // Decode one prediction back to farads.
    if let Some(s) = test.first() {
        let pred = all_ft.predict_reg_batch(&[s])[0];
        println!(
            "sample link: predicted {:.3e} F, ground truth {:.3e} F",
            cap.decode(pred),
            cap.decode(s.target)
        );
    }
    Ok(())
}
