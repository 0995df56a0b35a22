//! The program side's set-up: SPICE (and SPF) text → parsed netlist →
//! circuit graph → feature normalizer, and checkpoint bytes → model.
//! `setup_s` times exactly these steps (plus each workload's own
//! additions), repeated several times per run.

use std::time::Instant;

use ams_netlist::{Netlist, SpfFile, SpiceFile};
use circuit_graph::{netlist_to_graph, CircuitGraph, NodeMap};
use circuitgps::CircuitGps;
use subgraph_sample::{SamplerConfig, XcNormalizer};

use crate::probe;
use crate::report::Outcome;
use crate::stats;
use crate::trace::Tracer;
use crate::Inputs;

/// Pair-query extraction, as `cirgps predict`, `sweep` and `serve` use it.
pub const SAMPLER: SamplerConfig = SamplerConfig {
    hops: 1,
    max_nodes: 2048,
};

/// A parsed design with its graph and the normalizer fitted on it.
#[derive(Debug)]
pub struct Design {
    /// Flattened netlist.
    pub netlist: Netlist,
    /// Parsed SPF labels (only when asked for).
    pub spf: Option<SpfFile>,
    /// Heterogeneous circuit graph.
    pub graph: CircuitGraph,
    /// Netlist-to-graph node map.
    pub map: NodeMap,
    /// `XC` normalizer fitted on `graph`.
    pub xcn: XcNormalizer,
}

/// Parses the inputs' netlist (and SPF when `with_spf`), builds the graph
/// and fits the normalizer, under `netlist.parse` and `graph.build`
/// spans of set-up round `round`.
///
/// # Errors
///
/// Returns the parser's message for malformed text.
pub fn load_design(
    inputs: &Inputs,
    with_spf: bool,
    tr: &mut Tracer,
    round: u64,
) -> Result<Design, String> {
    let (netlist, spf) = tr.time("netlist.parse", round, || {
        let netlist = SpiceFile::parse(&inputs.spice)
            .and_then(|f| f.flatten(&inputs.top))
            .map_err(|e| format!("netlist: {e}"))?;
        let spf = if with_spf {
            Some(SpfFile::parse(&inputs.spf).map_err(|e| format!("spf: {e}"))?)
        } else {
            None
        };
        Ok::<_, String>((netlist, spf))
    })?;
    let (graph, map, xcn) = tr.time("graph.build", round, || {
        let (graph, map) = netlist_to_graph(&netlist);
        let xcn = XcNormalizer::fit(&[&graph]);
        (graph, map, xcn)
    });
    Ok(Design {
        netlist,
        spf,
        graph,
        map,
        xcn,
    })
}

/// Loads the checkpoint under a `checkpoint.load` span.
///
/// # Errors
///
/// Returns the checkpoint reader's message.
pub fn load_model(inputs: &Inputs, tr: &mut Tracer, round: u64) -> Result<CircuitGps, String> {
    tr.time("checkpoint.load", round, || {
        CircuitGps::load_checkpoint(&inputs.checkpoint[..])
            .map(|(m, _)| m)
            .map_err(|e| format!("checkpoint: {e}"))
    })
}

/// Runs `once` `rounds` times, records `setup_s` as the median wall time
/// and the set-up layers' per-round metrics, and returns the last
/// round's product.
///
/// # Errors
///
/// Propagates the first failing round's error.
pub fn repeat<T>(
    out: &mut Outcome,
    rounds: usize,
    tr: &mut Tracer,
    mut once: impl FnMut(&mut Tracer, u64) -> Result<T, String>,
) -> Result<T, String> {
    let mut times = Vec::with_capacity(rounds);
    let mut last = None;
    for round in 0..rounds.max(1) {
        // Free the previous round's product first, so rounds do not
        // stack up in memory.
        drop(last.take());
        let t = Instant::now();
        last = Some(once(tr, round as u64)?);
        times.push(stats::secs_since(t));
        probe::tick();
    }
    let n = times.len() as f64;
    out.set("setup_s", stats::median(&times));
    for (metric, span) in [
        ("netlist.parse_ms", "netlist.parse"),
        ("graph.build_ms", "graph.build"),
        ("checkpoint.load_ms", "checkpoint.load"),
        ("dataset.build_ms", "dataset.build"),
        ("dataset.prepare_ms", "dataset.prepare"),
    ] {
        out.set(metric, tr.total_ms(span) / n);
    }
    out.note(format!(
        "setup: {} rounds, median {:.4} s",
        times.len(),
        stats::median(&times)
    ));
    Ok(last.expect("at least one round"))
}

/// Records the design-size counters.
pub fn record_design(out: &mut Outcome, design: &Design) {
    out.set("netlist.devices", design.netlist.num_devices() as f64);
    out.set("graph.nodes", design.graph.num_nodes() as f64);
    out.set("graph.edges", design.graph.num_edges() as f64);
}
