//! End-to-end experiment runners, one per table/figure of the paper.
//!
//! Every runner returns formatted markdown so the `table*`/`fig4`
//! binaries stay trivial. Scale is controlled by [`SizePreset`]; the
//! `small` default reproduces the *shape* of each result on a laptop-class
//! CPU, `paper` approaches the paper's dataset sizes.

use std::time::Instant;

use ams_datagen::{DesignKind, SizePreset};
use circuitgps::{
    evaluate_link, evaluate_regression, finetune_regression, predict_regression,
    prepare_link_dataset, prepare_node_dataset, pretrain_link, AttnKind, CircuitGps, FinetuneMode,
    LinkMetrics, ModelConfig, MpnnKind, PreparedSample, RegMetrics, TrainConfig,
};
use cirgps_baselines::{
    Baseline, BaselineConfig, BaselineKind, BaselineTrainConfig, FullGraphInputs, NodeTask,
    PairTask,
};
use graph_pe::{compute_pe, PeKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use subgraph_sample::{generate_negatives, CapNormalizer, DatasetConfig, LinkSet, XcNormalizer};

use crate::data::{fit_normalizer, markdown_table, test_designs, training_designs, DesignData};

/// Per-preset experiment scale.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Positive links sampled per type per design.
    pub max_per_type: usize,
    /// Training epochs for CircuitGPS.
    pub epochs: usize,
    /// Full-batch epochs for baselines.
    pub baseline_epochs: usize,
    /// Node-regression samples per design.
    pub node_samples: usize,
    /// Input vectors for the energy simulation.
    pub energy_vectors: usize,
    /// Cap on couplings predicted for Fig. 4 (0 = all).
    pub fig4_max_couplings: usize,
}

impl Scale {
    /// Scale for a preset.
    pub fn for_preset(preset: SizePreset) -> Scale {
        match preset {
            SizePreset::Tiny => Scale {
                max_per_type: 60,
                epochs: 4,
                baseline_epochs: 30,
                node_samples: 150,
                energy_vectors: 24,
                fig4_max_couplings: 400,
            },
            SizePreset::Small => Scale {
                max_per_type: 150,
                epochs: 4,
                baseline_epochs: 30,
                node_samples: 400,
                energy_vectors: 32,
                fig4_max_couplings: 1500,
            },
            SizePreset::Paper => Scale {
                max_per_type: 1200,
                epochs: 8,
                baseline_epochs: 60,
                node_samples: 2500,
                energy_vectors: 96,
                fig4_max_couplings: 0,
            },
        }
    }
}

/// Default CircuitGPS architecture (the paper's GatedGCN + Performer
/// configuration from Table II).
pub fn default_model(pe: PeKind, seed: u64) -> ModelConfig {
    ModelConfig {
        hidden_dim: 32,
        num_layers: 3,
        heads: 4,
        mpnn: MpnnKind::GatedGcn,
        attn: AttnKind::Performer { features: 32 },
        pe,
        pe_dim: 8,
        dropout: 0.1,
        seed,
    }
}

fn dataset_cfg(scale: &Scale, seed: u64) -> DatasetConfig {
    DatasetConfig {
        max_per_type: scale.max_per_type,
        seed,
        ..Default::default()
    }
}

fn train_cfg(scale: &Scale, seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: scale.epochs,
        seed,
        ..Default::default()
    }
}

fn fmt_m(m: &LinkMetrics) -> [String; 3] {
    [
        format!("{:.3}", m.accuracy),
        format!("{:.3}", m.f1),
        format!("{:.3}", m.auc),
    ]
}

fn fmt_r(m: &RegMetrics) -> [String; 3] {
    [
        format!("{:.3}", m.mae),
        format!("{:.3}", m.rmse),
        format!("{:.3}", m.r2),
    ]
}

/// Builds prepared link samples for several designs under one PE.
fn prepared_links(
    designs: &[DesignData],
    scale: &Scale,
    pe: PeKind,
    xcn: &XcNormalizer,
    cap_norm: &CapNormalizer,
    seed: u64,
) -> Vec<PreparedSample> {
    let mut out = Vec::new();
    for d in designs {
        let ds = d.link_dataset(&dataset_cfg(scale, seed));
        out.extend(prepare_link_dataset(&ds, pe, xcn, |cap| {
            cap_norm.encode(cap)
        }));
    }
    out
}

/// Table II: PE comparison on link prediction (train SSRAM, zero-shot
/// test on DIGITAL_CLK_GEN), plus per-graph PE computation time.
pub fn table2(preset: SizePreset, seed: u64) -> String {
    let scale = Scale::for_preset(preset);
    let train_d = DesignData::load(DesignKind::Ssram, preset, seed);
    let test_d = DesignData::load(DesignKind::DigitalClkGen, preset, seed);
    let xcn = fit_normalizer(std::slice::from_ref(&train_d));
    let cap_norm = CapNormalizer::paper_range();

    let train_ds = train_d.link_dataset(&dataset_cfg(&scale, seed));
    let test_ds = test_d.link_dataset(&dataset_cfg(&scale, seed ^ 1));

    let mut rows = Vec::new();
    for pe in PeKind::TABLE2 {
        let train = prepare_link_dataset(&train_ds, pe, &xcn, |c| cap_norm.encode(c));
        let test = prepare_link_dataset(&test_ds, pe, &xcn, |c| cap_norm.encode(c));

        // Time/G: PE computation time per subgraph (the paper's column).
        let t0 = Instant::now();
        for s in test_ds.samples.iter() {
            std::hint::black_box(compute_pe(&s.subgraph, pe));
        }
        let per_graph = t0.elapsed().as_secs_f64() / test_ds.samples.len().max(1) as f64;

        let mut model = CircuitGps::new(default_model(pe, seed));
        pretrain_link(&mut model, &train, &train_cfg(&scale, seed)).expect("training diverged");
        let m = evaluate_link(&model, &test);
        let [acc, f1, auc] = fmt_m(&m);
        let time_cell = if matches!(pe, PeKind::None | PeKind::Xc) {
            "N/A".to_string()
        } else {
            format!("{:.4}", per_graph)
        };
        rows.push(vec![pe.paper_name().to_string(), acc, f1, auc, time_cell]);
    }
    format!(
        "### Table II: Comparison of Different PEs in Link Prediction\n\n{}",
        markdown_table(&["PE", "Acc.", "F1", "AUC", "Time/G (s)"], &rows)
    )
}

/// The five GPS-layer configurations of Tables III and VII.
pub fn layer_ablation_configs() -> Vec<(&'static str, &'static str, MpnnKind, AttnKind)> {
    vec![
        (
            "None",
            "Performer",
            MpnnKind::None,
            AttnKind::Performer { features: 32 },
        ),
        ("None", "Transformer", MpnnKind::None, AttnKind::Transformer),
        (
            "GatedGCN",
            "Performer",
            MpnnKind::GatedGcn,
            AttnKind::Performer { features: 32 },
        ),
        (
            "GatedGCN",
            "Transformer",
            MpnnKind::GatedGcn,
            AttnKind::Transformer,
        ),
        ("GatedGCN", "None", MpnnKind::GatedGcn, AttnKind::None),
    ]
}

/// Table III: GPS-layer ablation on link prediction.
pub fn table3(preset: SizePreset, seed: u64) -> String {
    let scale = Scale::for_preset(preset);
    let train_d = DesignData::load(DesignKind::Ssram, preset, seed);
    let test_d = DesignData::load(DesignKind::DigitalClkGen, preset, seed);
    let xcn = fit_normalizer(std::slice::from_ref(&train_d));
    let cap_norm = CapNormalizer::paper_range();
    let train_ds = train_d.link_dataset(&dataset_cfg(&scale, seed));
    let test_ds = test_d.link_dataset(&dataset_cfg(&scale, seed ^ 1));
    let train = prepare_link_dataset(&train_ds, PeKind::Dspd, &xcn, |c| cap_norm.encode(c));
    let test = prepare_link_dataset(&test_ds, PeKind::Dspd, &xcn, |c| cap_norm.encode(c));

    let mut rows = Vec::new();
    for (mpnn_name, attn_name, mpnn, attn) in layer_ablation_configs() {
        let cfg = ModelConfig {
            mpnn,
            attn,
            ..default_model(PeKind::Dspd, seed)
        };
        let mut model = CircuitGps::new(cfg);
        let hist =
            pretrain_link(&mut model, &train, &train_cfg(&scale, seed)).expect("training diverged");
        let m = evaluate_link(&model, &test);
        let [acc, f1, auc] = fmt_m(&m);
        rows.push(vec![
            mpnn_name.to_string(),
            attn_name.to_string(),
            acc,
            f1,
            auc,
            format!("{:.1}", hist.seconds),
            format!("{}", model.num_params()),
        ]);
    }
    format!(
        "### Table III: Ablation of GPS Layer Configurations on Link Prediction\n\n{}",
        markdown_table(
            &[
                "MPNN",
                "Attention",
                "Acc.",
                "F1",
                "AUC",
                "Time(s)",
                "#Param."
            ],
            &rows
        )
    )
}

/// Table IV: dataset statistics.
pub fn table4(preset: SizePreset, seed: u64) -> String {
    let scale = Scale::for_preset(preset);
    let mut rows = Vec::new();
    for kind in DesignKind::ALL {
        let d = DesignData::load(kind, preset, seed);
        let ds = d.link_dataset(&dataset_cfg(&scale, seed));
        let stats = d.stats();
        let raw_links: usize = ds.raw_counts.iter().sum();
        rows.push(vec![
            if kind.is_training() { "Train" } else { "Test" }.to_string(),
            kind.paper_name().to_string(),
            circuit_graph::human_count(stats.num_nodes),
            circuit_graph::human_count(stats.num_edges),
            circuit_graph::human_count(raw_links),
            format!("{:.0}", ds.mean_subgraph_nodes),
            format!("{:.0}", ds.mean_subgraph_edges),
        ]);
    }
    format!(
        "### Table IV: AMS Circuit Dataset Statistics\n\n{}",
        markdown_table(
            &["Split", "Dataset", "N", "NE", "#Links", "N/G1mn", "NE/G1mn"],
            &rows
        )
    )
}

/// Shared state for Tables V and VI (training is expensive; both tables
/// reuse the same pre-trained model and baselines).
pub struct MainComparison {
    /// Zero-shot link metrics per test design: `[paragraph, dlpl, cirgps]`.
    pub link_rows: Vec<[LinkMetrics; 3]>,
    /// Regression metrics per test design:
    /// `[paragraph, dlpl, scratch, head_ft, all_ft]`.
    pub reg_rows: Vec<[RegMetrics; 5]>,
    /// Test design names.
    pub names: Vec<String>,
    /// The all-parameters fine-tuned model (used by Fig. 4).
    pub model_all_ft: CircuitGps,
    /// Shared normalizers.
    pub xcn: XcNormalizer,
    /// Capacitance normalizer.
    pub cap_norm: CapNormalizer,
}

/// Runs the full training/evaluation for Tables V + VI.
pub fn main_comparison(preset: SizePreset, seed: u64) -> MainComparison {
    let scale = Scale::for_preset(preset);
    let train_designs_v = training_designs(preset, seed);
    let test_designs_v = test_designs(preset, seed);
    let xcn = fit_normalizer(&train_designs_v);
    let cap_norm = CapNormalizer::paper_range();

    // --- CircuitGPS datasets ---------------------------------------------
    let train = prepared_links(
        &train_designs_v,
        &scale,
        PeKind::Dspd,
        &xcn,
        &cap_norm,
        seed,
    );
    let tests: Vec<Vec<PreparedSample>> = test_designs_v
        .iter()
        .map(|d| {
            let ds = d.link_dataset(&dataset_cfg(&scale, seed ^ 1));
            prepare_link_dataset(&ds, PeKind::Dspd, &xcn, |c| cap_norm.encode(c))
        })
        .collect();

    // --- Baseline inputs ---------------------------------------------------
    let mut rng = StdRng::seed_from_u64(seed);
    let make_pair_task = |d: &DesignData, rng: &mut StdRng| -> PairTask {
        let all = LinkSet::from_spf(&d.spf, &d.design.netlist, &d.graph, &d.map, (1e-21, 1e-15));
        let pos = all.balanced(all.balance_count().min(scale.max_per_type), rng);
        let neg = generate_negatives(&d.graph, &pos, &all, seed ^ 0xbb);
        let mut links = pos;
        links.extend(neg);
        PairTask::from_links(&links, |c| cap_norm.encode(c))
    };
    let train_graphs: Vec<(FullGraphInputs, PairTask)> = train_designs_v
        .iter()
        .map(|d| {
            (
                FullGraphInputs::new(&d.graph, &xcn),
                make_pair_task(d, &mut rng),
            )
        })
        .collect();
    let test_graphs: Vec<(FullGraphInputs, PairTask)> = test_designs_v
        .iter()
        .map(|d| {
            (
                FullGraphInputs::new(&d.graph, &xcn),
                make_pair_task(d, &mut rng),
            )
        })
        .collect();
    let bl_train: Vec<(&FullGraphInputs, &PairTask)> =
        train_graphs.iter().map(|(g, t)| (g, t)).collect();
    let bl_cfg = BaselineTrainConfig {
        epochs: scale.baseline_epochs,
        ..Default::default()
    };

    // --- Train the three main models ---------------------------------------
    eprintln!("[main] training ParaGraph (link)...");
    let mut paragraph = Baseline::new(
        BaselineKind::ParaGraph,
        BaselineConfig {
            seed: seed ^ 0xAA,
            ..Default::default()
        },
    );
    cirgps_baselines::train_link(&mut paragraph, &bl_train, &bl_cfg);
    eprintln!("[main] training DLPL-Cap (link)...");
    let mut dlpl = Baseline::new(
        BaselineKind::DlplCap,
        BaselineConfig {
            seed: seed ^ 0xD1,
            ..Default::default()
        },
    );
    cirgps_baselines::train_link(&mut dlpl, &bl_train, &bl_cfg);
    eprintln!(
        "[main] pre-training CircuitGPS ({} samples)...",
        train.len()
    );
    let mut cirgps = CircuitGps::new(default_model(PeKind::Dspd, seed));
    pretrain_link(&mut cirgps, &train, &train_cfg(&scale, seed)).expect("training diverged");

    let link_rows: Vec<[LinkMetrics; 3]> = test_designs_v
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let (g, task) = &test_graphs[i];
            [
                cirgps_baselines::evaluate_link(&paragraph, g, task),
                cirgps_baselines::evaluate_link(&dlpl, g, task),
                evaluate_link(&cirgps, &tests[i]),
            ]
        })
        .collect();

    // --- Regression ---------------------------------------------------------
    eprintln!("[main] training ParaGraph (regression)...");
    let mut paragraph_r = Baseline::new(
        BaselineKind::ParaGraph,
        BaselineConfig {
            seed: seed ^ 0xAB,
            ..Default::default()
        },
    );
    cirgps_baselines::train_regression(&mut paragraph_r, &bl_train, &bl_cfg);
    eprintln!("[main] training DLPL-Cap (regression)...");
    let mut dlpl_r = Baseline::new(
        BaselineKind::DlplCap,
        BaselineConfig {
            seed: seed ^ 0xD2,
            ..Default::default()
        },
    );
    cirgps_baselines::train_regression(&mut dlpl_r, &bl_train, &bl_cfg);

    eprintln!("[main] CircuitGPS regression from scratch...");
    let mut scratch = CircuitGps::new(default_model(PeKind::Dspd, seed ^ 2));
    finetune_regression(
        &mut scratch,
        &train,
        FinetuneMode::Scratch,
        &train_cfg(&scale, seed),
    )
    .expect("training diverged");

    eprintln!("[main] CircuitGPS head-only fine-tune...");
    let mut bytes = Vec::new();
    cirgps.save_checkpoint(&mut bytes).expect("checkpoint");
    let (mut head_ft, _) = CircuitGps::load_checkpoint(&bytes[..]).expect("load checkpoint");
    finetune_regression(
        &mut head_ft,
        &train,
        FinetuneMode::HeadOnly,
        &train_cfg(&scale, seed),
    )
    .expect("training diverged");

    eprintln!("[main] CircuitGPS all-parameters fine-tune...");
    let (mut all_ft, _) = CircuitGps::load_checkpoint(&bytes[..]).expect("load checkpoint");
    finetune_regression(
        &mut all_ft,
        &train,
        FinetuneMode::All,
        &train_cfg(&scale, seed),
    )
    .expect("training diverged");

    let reg_rows: Vec<[RegMetrics; 5]> = test_designs_v
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let (g, task) = &test_graphs[i];
            [
                cirgps_baselines::evaluate_regression(&paragraph_r, g, task),
                cirgps_baselines::evaluate_regression(&dlpl_r, g, task),
                evaluate_regression(&scratch, &tests[i]),
                evaluate_regression(&head_ft, &tests[i]),
                evaluate_regression(&all_ft, &tests[i]),
            ]
        })
        .collect();

    MainComparison {
        link_rows,
        reg_rows,
        names: test_designs_v
            .iter()
            .map(|d| d.kind.paper_name().to_string())
            .collect(),
        model_all_ft: all_ft,
        xcn,
        cap_norm,
    }
}

/// Table V markdown from a [`MainComparison`].
pub fn table5(cmp: &MainComparison) -> String {
    let mut rows = Vec::new();
    for (mi, name) in ["ParaGraph", "DLPL-Cap", "CircuitGPS"].iter().enumerate() {
        let mut row = vec![name.to_string()];
        for dr in &cmp.link_rows {
            let [acc, f1, auc] = fmt_m(&dr[mi]);
            row.extend([acc, f1, auc]);
        }
        rows.push(row);
    }
    let headers: Vec<String> = std::iter::once("Method".to_string())
        .chain(
            cmp.names
                .iter()
                .flat_map(|n| [format!("{n} Acc."), format!("{n} F1"), format!("{n} AUC")]),
        )
        .collect();
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    format!(
        "### Table V: Accuracy Comparison on Link Prediction (zero-shot)\n\n{}",
        markdown_table(&headers_ref, &rows)
    )
}

/// Table VI markdown from a [`MainComparison`].
pub fn table6(cmp: &MainComparison) -> String {
    let mut rows = Vec::new();
    let method_names = [
        "ParaGraph",
        "DLPL-Cap",
        "CircuitGPS",
        "CircuitGPS head-ft",
        "CircuitGPS all-ft",
    ];
    for (mi, name) in method_names.iter().enumerate() {
        let mut row = vec![name.to_string()];
        for dr in &cmp.reg_rows {
            let [mae, rmse, r2] = fmt_r(&dr[mi]);
            row.extend([mae, rmse, r2]);
        }
        rows.push(row);
    }
    let headers: Vec<String> = std::iter::once("Method".to_string())
        .chain(
            cmp.names
                .iter()
                .flat_map(|n| [format!("{n} MAE"), format!("{n} RMSE"), format!("{n} R2")]),
        )
        .collect();
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    format!(
        "### Table VI: Error Comparison on Edge Regression (zero-shot / fine-tuned)\n\n{}",
        markdown_table(&headers_ref, &rows)
    )
}

/// Table VII: GPS-layer ablation on edge regression.
pub fn table7(preset: SizePreset, seed: u64) -> String {
    let scale = Scale::for_preset(preset);
    let train_d = DesignData::load(DesignKind::Ssram, preset, seed);
    let test_d = DesignData::load(DesignKind::DigitalClkGen, preset, seed);
    let xcn = fit_normalizer(std::slice::from_ref(&train_d));
    let cap_norm = CapNormalizer::paper_range();
    let train_ds = train_d.link_dataset(&dataset_cfg(&scale, seed));
    let test_ds = test_d.link_dataset(&dataset_cfg(&scale, seed ^ 1));
    let train = prepare_link_dataset(&train_ds, PeKind::Dspd, &xcn, |c| cap_norm.encode(c));
    let test = prepare_link_dataset(&test_ds, PeKind::Dspd, &xcn, |c| cap_norm.encode(c));

    let mut rows = Vec::new();
    for (mpnn_name, attn_name, mpnn, attn) in layer_ablation_configs() {
        let cfg = ModelConfig {
            mpnn,
            attn,
            ..default_model(PeKind::Dspd, seed)
        };
        let mut model = CircuitGps::new(cfg);
        let hist = finetune_regression(
            &mut model,
            &train,
            FinetuneMode::Scratch,
            &train_cfg(&scale, seed),
        )
        .expect("training diverged");
        let m = evaluate_regression(&model, &test);
        let [mae, rmse, r2] = fmt_r(&m);
        rows.push(vec![
            mpnn_name.to_string(),
            attn_name.to_string(),
            mae,
            rmse,
            r2,
            format!("{:.1}", hist.seconds),
            format!("{}", model.num_params()),
        ]);
    }
    format!(
        "### Table VII: Ablation of GPS Layer Configurations on Edge Regression\n\n{}",
        markdown_table(
            &[
                "MPNN",
                "Attention",
                "MAE",
                "RMSE",
                "R2",
                "Time(s)",
                "#Param."
            ],
            &rows
        )
    )
}

/// Table VIII: node-level ground-capacitance regression.
pub fn table8(preset: SizePreset, seed: u64) -> String {
    let scale = Scale::for_preset(preset);
    let train_designs_v = training_designs(preset, seed);
    let test_designs_v = test_designs(preset, seed);
    let xcn = fit_normalizer(&train_designs_v);
    let cap_norm = CapNormalizer::paper_range();

    // CircuitGPS: 2-hop single-anchor subgraphs, no negative injection.
    let mut train = Vec::new();
    for d in &train_designs_v {
        let ds = d.node_dataset(scale.node_samples, 2, seed);
        train.extend(prepare_node_dataset(&ds, PeKind::Dspd, &xcn, |c| {
            cap_norm.encode(c)
        }));
    }
    let tests: Vec<Vec<PreparedSample>> = test_designs_v
        .iter()
        .map(|d| {
            let ds = d.node_dataset(scale.node_samples, 2, seed ^ 1);
            prepare_node_dataset(&ds, PeKind::Dspd, &xcn, |c| cap_norm.encode(c))
        })
        .collect();
    eprintln!(
        "[table8] training CircuitGPS node regression ({} samples)...",
        train.len()
    );
    let mut cirgps = CircuitGps::new(default_model(PeKind::Dspd, seed));
    finetune_regression(
        &mut cirgps,
        &train,
        FinetuneMode::Scratch,
        &train_cfg(&scale, seed),
    )
    .expect("training diverged");

    // Baselines: node tasks over full graphs.
    let make_node_task = |d: &DesignData| -> NodeTask {
        let ds = d.node_dataset(scale.node_samples, 2, seed);
        NodeTask {
            nodes: ds.samples.iter().map(|s| s.node).collect(),
            targets: ds.samples.iter().map(|s| cap_norm.encode(s.cap)).collect(),
        }
    };
    let train_graphs: Vec<(FullGraphInputs, NodeTask)> = train_designs_v
        .iter()
        .map(|d| (FullGraphInputs::new(&d.graph, &xcn), make_node_task(d)))
        .collect();
    let test_graphs: Vec<(FullGraphInputs, NodeTask)> = test_designs_v
        .iter()
        .map(|d| (FullGraphInputs::new(&d.graph, &xcn), make_node_task(d)))
        .collect();
    let bl_train: Vec<(&FullGraphInputs, &NodeTask)> =
        train_graphs.iter().map(|(g, t)| (g, t)).collect();
    let bl_cfg = BaselineTrainConfig {
        epochs: scale.baseline_epochs,
        ..Default::default()
    };
    eprintln!("[table8] training baselines...");
    let mut paragraph = Baseline::new(
        BaselineKind::ParaGraph,
        BaselineConfig {
            seed: seed ^ 0xAC,
            ..Default::default()
        },
    );
    cirgps_baselines::train_node_regression(&mut paragraph, &bl_train, &bl_cfg);
    let mut dlpl = Baseline::new(
        BaselineKind::DlplCap,
        BaselineConfig {
            seed: seed ^ 0xD3,
            ..Default::default()
        },
    );
    cirgps_baselines::train_node_regression(&mut dlpl, &bl_train, &bl_cfg);

    let mut rows = Vec::new();
    for (name, which) in [("ParaGraph", 0), ("DLPL-Cap", 1), ("CircuitGPS", 2)] {
        let mut row = vec![name.to_string()];
        for (i, _) in test_designs_v.iter().enumerate() {
            let m = match which {
                0 => cirgps_baselines::evaluate_node_regression(
                    &paragraph,
                    &test_graphs[i].0,
                    &test_graphs[i].1,
                ),
                1 => cirgps_baselines::evaluate_node_regression(
                    &dlpl,
                    &test_graphs[i].0,
                    &test_graphs[i].1,
                ),
                _ => evaluate_regression(&cirgps, &tests[i]),
            };
            let [mae, rmse, r2] = fmt_r(&m);
            row.extend([mae, rmse, r2]);
        }
        rows.push(row);
    }
    let headers: Vec<String> = std::iter::once("Method".to_string())
        .chain(test_designs_v.iter().flat_map(|d| {
            let n = d.kind.paper_name();
            [format!("{n} MAE"), format!("{n} RMSE"), format!("{n} R2")]
        }))
        .collect();
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    format!(
        "### Table VIII: Error Comparison on Node Regression (ground capacitance)\n\n{}",
        markdown_table(&headers_ref, &rows)
    )
}

/// Fig. 4: switch-level energy with ground-truth vs predicted coupling
/// capacitance; returns the markdown plus the MAPE.
pub fn fig4(preset: SizePreset, seed: u64, cmp: &MainComparison) -> String {
    let scale = Scale::for_preset(preset);
    let test_designs_v = test_designs(preset, seed);
    let mut rows = Vec::new();
    let mut gts = Vec::new();
    let mut preds = Vec::new();

    for d in &test_designs_v {
        eprintln!("[fig4] predicting couplings for {}...", d.kind.paper_name());
        // Predict a capacitance for every resolvable coupling entry.
        let limit = if scale.fig4_max_couplings == 0 {
            usize::MAX
        } else {
            scale.fig4_max_couplings
        };
        let mut link_edges = Vec::new();
        let mut entries = Vec::new(); // (spf index, a, b)
        for (ci, c) in d.spf.coupling_caps.iter().enumerate() {
            if entries.len() >= limit {
                break;
            }
            let (Some(a), Some(b)) = (
                d.map.resolve(&d.design.netlist, &c.a),
                d.map.resolve(&d.design.netlist, &c.b),
            ) else {
                continue;
            };
            if a == b {
                continue;
            }
            let Some(ty) =
                circuit_graph::EdgeType::link_between(d.graph.node_type(a), d.graph.node_type(b))
            else {
                continue;
            };
            link_edges.push(circuit_graph::Edge { a, b, ty });
            entries.push((ci, a, b));
        }
        let aug = d.graph.with_injected_links(&link_edges);
        let sampler_cfg = subgraph_sample::SamplerConfig {
            hops: 1,
            max_nodes: 2048,
        };
        let chunks: Vec<&[(usize, u32, u32)]> = entries.chunks(64).collect();
        let samples: Vec<PreparedSample> = subgraph_sample::par_map(&chunks, |chunk| {
            let mut sampler = subgraph_sample::SubgraphSampler::new(&aug, sampler_cfg);
            chunk
                .iter()
                .map(|&(_, a, b)| {
                    let sub = sampler.enclosing_subgraph(a, b);
                    PreparedSample::new(sub, PeKind::Dspd, &cmp.xcn, 1.0, 0.0)
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        let outputs = predict_regression(&cmp.model_all_ft, &samples);
        let predicted: std::collections::HashMap<usize, f64> = entries
            .iter()
            .zip(outputs)
            .map(|(&(ci, _, _), p)| (ci, cmp.cap_norm.decode(p)))
            .collect();

        // Assemble per-net capacitances (gt vs predicted couplings).
        let caps_gt = mini_spice::net_capacitances(&d.design.netlist, &d.spf);
        let mut idx = 0usize;
        let caps_pred = mini_spice::net_capacitances_with(&d.design.netlist, &d.spf, |c| {
            let v = predicted.get(&idx).copied().unwrap_or(c.value);
            idx += 1;
            v
        });

        let e_gt = mini_spice::simulate_energy(
            &d.design.netlist,
            &caps_gt,
            0.9,
            scale.energy_vectors,
            seed,
        );
        let e_pred = mini_spice::simulate_energy(
            &d.design.netlist,
            &caps_pred,
            0.9,
            scale.energy_vectors,
            seed,
        );
        let norm_pred = if e_gt.energy > 0.0 {
            e_pred.energy / e_gt.energy
        } else {
            0.0
        };
        gts.push(1.0);
        preds.push(norm_pred);
        rows.push(vec![
            d.kind.paper_name().to_string(),
            "1.000".to_string(),
            format!("{:.3}", norm_pred),
            format!("{}", e_gt.total_toggles),
        ]);
    }
    let mape = circuitgps::mape(&preds, &gts);
    format!(
        "### Fig. 4: Simulated Energy, Ground Truth vs CircuitGPS Prediction\n\n{}\nMean absolute percentage error across test cases: **{:.1}%**\n",
        markdown_table(&["Design", "Norm. Energy (GT)", "Norm. Energy (Pred)", "Toggles"], &rows),
        mape
    )
}
