//! Quickstart: the whole CirGPS pipeline on a small synthetic design in
//! under a minute.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use cirgps::datagen::{generate_with_parasitics, DesignKind, SizePreset};
use cirgps::graph::{netlist_to_graph, GraphStats};
use cirgps::model::{
    evaluate_link, prepare_link_dataset, train_with_progress, CircuitGps, ModelConfig, Task,
    TrainConfig,
};
use cirgps::pe::PeKind;
use cirgps::sample::{CapNormalizer, DatasetConfig, LinkDataset, XcNormalizer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Generate a synthetic AMS design and its parasitic ground truth
    //    (stands in for a real netlist + post-layout SPF).
    let (design, spf) = generate_with_parasitics(DesignKind::TimingControl, SizePreset::Tiny, 7)?;
    println!(
        "design {}: {} devices, {} nets, {} couplings extracted",
        design.name,
        design.netlist.num_devices(),
        design.netlist.num_nets(),
        spf.coupling_caps.len()
    );

    // 2. Convert the netlist to a heterogeneous graph (nets/devices/pins).
    let (graph, map) = netlist_to_graph(&design.netlist);
    println!("{}", GraphStats::of(&design.name, &graph));

    // 3. Build the link-prediction dataset: join SPF couplings, balance,
    //    generate structural negatives, inject links, sample 1-hop
    //    enclosing subgraphs.
    let ds = LinkDataset::build(
        &design.name,
        &graph,
        &design.netlist,
        &map,
        &spf,
        &DatasetConfig {
            max_per_type: 100,
            ..Default::default()
        },
    );
    println!(
        "dataset: {} samples, mean subgraph {:.0} nodes / {:.0} edges",
        ds.len(),
        ds.mean_subgraph_nodes,
        ds.mean_subgraph_edges
    );

    // 4. Prepare model inputs: DSPD positional encoding + normalized XC.
    let xcn = XcNormalizer::fit(&[&graph]);
    let cap_norm = CapNormalizer::paper_range();
    let samples = prepare_link_dataset(&ds, PeKind::Dspd, &xcn, |c| cap_norm.encode(c));

    // 5. Pre-train CircuitGPS on link prediction.
    let mut model = CircuitGps::new(ModelConfig::default());
    println!("model: {} trainable parameters", model.num_params());
    let history = train_with_progress(
        &mut model,
        &samples,
        Task::LinkPrediction,
        &TrainConfig {
            epochs: 4,
            ..Default::default()
        },
        &mut |_, p| eprintln!("epoch {:>3}: loss {:.4}", p.epoch, p.loss),
    )
    .expect("training diverged");
    println!("trained in {:.1}s", history.seconds);

    // 6. Evaluate.
    let metrics = evaluate_link(&model, &samples);
    println!(
        "link prediction: accuracy {:.3}, F1 {:.3}, AUC {:.3}",
        metrics.accuracy, metrics.f1, metrics.auc
    );
    Ok(())
}
