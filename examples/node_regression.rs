//! Node-level ground-capacitance regression (the paper's Section IV-D
//! extension): 2-hop subgraphs around a single anchor, DSPD degenerating
//! to `D0 = D1`.
//!
//! ```bash
//! cargo run --release --example node_regression
//! ```

use cirgps::datagen::{generate_with_parasitics, DesignKind, SizePreset};
use cirgps::graph::netlist_to_graph;
use cirgps::model::{
    evaluate_regression, finetune_regression_with_progress, prepare_node_dataset, CircuitGps,
    FinetuneMode, ModelConfig, TrainConfig,
};
use cirgps::pe::PeKind;
use cirgps::sample::{CapNormalizer, NodeDataset, XcNormalizer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (design, spf) = generate_with_parasitics(DesignKind::Ssram, SizePreset::Tiny, 7)?;
    let (graph, map) = netlist_to_graph(&design.netlist);

    // Ground capacitance per net/pin, 2-hop subgraphs, no negatives.
    let ds = NodeDataset::build("SSRAM", &graph, &design.netlist, &map, &spf, 400, 2, 7);
    println!("node dataset: {} net/pin targets", ds.len());

    let xcn = XcNormalizer::fit(&[&graph]);
    let cap = CapNormalizer::paper_range();
    let samples = prepare_node_dataset(&ds, PeKind::Dspd, &xcn, |c| cap.encode(c));
    let (train, test) = samples.split_at(samples.len() * 4 / 5);

    let mut model = CircuitGps::new(ModelConfig::default());
    finetune_regression_with_progress(
        &mut model,
        train,
        FinetuneMode::Scratch,
        &TrainConfig {
            epochs: 6,
            ..Default::default()
        },
        &mut |_, p| {
            if p.epoch % 2 == 0 {
                eprintln!("epoch {:>3}: loss {:.4}", p.epoch, p.loss);
            }
        },
    )?;
    let m = evaluate_regression(&model, test);
    println!(
        "ground-capacitance regression: MAE {:.3}  RMSE {:.3}  R2 {:.3}",
        m.mae, m.rmse, m.r2
    );

    // Show a few decoded predictions.
    let shown: Vec<_> = test.iter().take(5).collect();
    for (s, pred) in shown.iter().zip(model.predict_reg_batch(&shown)) {
        let (pred, truth) = (cap.decode(pred), cap.decode(s.target));
        println!("  predicted {:9.3e} F   truth {:9.3e} F", pred, truth);
    }
    Ok(())
}
