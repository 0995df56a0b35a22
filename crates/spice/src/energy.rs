//! Switching-energy estimation from toggle activity and parasitic
//! capacitance (the Fig. 4 validation flow).
//!
//! `E = Σ_v ½ · C_v · V² · toggles_v` — with activity fixed by the
//! switch-level simulation, the energy is a linear functional of the
//! per-net capacitance, so comparing ground-truth against predicted
//! capacitances isolates exactly the prediction error the paper's Fig. 4
//! visualizes.

use std::collections::HashMap;

use ams_netlist::{Netlist, SpfFile, SpfNode};

use crate::sim::{Logic, SwitchSim};

/// Per-net lumped capacitance assembled from an SPF file: the net's
/// ground capacitance, its pins' ground capacitances, and half of every
/// incident coupling capacitance (the other half belongs to the
/// aggressor; supply-referenced halves simply load the rail).
pub fn net_capacitances(netlist: &Netlist, spf: &SpfFile) -> Vec<f64> {
    net_capacitances_with(netlist, spf, |c| c.value)
}

/// Like [`net_capacitances`], but coupling values are replaced by a
/// caller-supplied function (e.g. model predictions per coupling entry,
/// in SPF order).
pub fn net_capacitances_with(
    netlist: &Netlist,
    spf: &SpfFile,
    mut coupling_value: impl FnMut(&ams_netlist::CouplingCap) -> f64,
) -> Vec<f64> {
    let mut caps = vec![0.0f64; netlist.num_nets()];
    // Device-name → device for pin resolution.
    let dev_net: HashMap<&str, &ams_netlist::Device> = netlist
        .devices()
        .map(|(_, d)| (d.name.as_str(), d))
        .collect();
    let resolve = |node: &SpfNode| -> Option<usize> {
        match node {
            SpfNode::Net(name) => netlist.net_id(name).map(|id| id.0 as usize),
            SpfNode::Pin { device, pin } => {
                let d = dev_net.get(device.as_str())?;
                let ti = d.kind.terminal_names().iter().position(|t| t == pin)?;
                Some(d.terminals[ti].0 as usize)
            }
        }
    };
    for g in &spf.ground_caps {
        if let Some(v) = resolve(&g.node) {
            caps[v] += g.value;
        }
    }
    for c in &spf.coupling_caps {
        let value = coupling_value(c);
        if let Some(v) = resolve(&c.a) {
            caps[v] += 0.5 * value;
        }
        if let Some(v) = resolve(&c.b) {
            caps[v] += 0.5 * value;
        }
    }
    caps
}

/// Result of one energy simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyResult {
    /// Total switching energy, joules (V = `vdd`).
    pub energy: f64,
    /// Total toggle count across nets.
    pub total_toggles: u64,
    /// Number of input vectors applied.
    pub vectors: usize,
}

/// Runs the switch-level simulation with random vectors and integrates
/// switching energy with the given per-net capacitances.
///
/// Ports other than supply rails are treated as primary inputs.
pub fn simulate_energy(
    netlist: &Netlist,
    caps: &[f64],
    vdd: f64,
    vectors: usize,
    seed: u64,
) -> EnergyResult {
    let mut sim = SwitchSim::new(netlist);
    let inputs: Vec<String> = netlist
        .nets()
        .filter(|(_, n)| {
            n.is_port
                && !matches!(n.name.as_str(), "VDD" | "VSS" | "VDDL" | "VDDH" | "0")
                && !n.name.eq_ignore_ascii_case("gnd")
        })
        .map(|(_, n)| n.name.clone())
        .collect();
    // Warm up into a defined state, then measure.
    for name in &inputs {
        sim.drive(name, Logic::Zero);
    }
    for _ in 0..4 {
        sim.settle();
    }
    sim.reset_toggles();
    sim.run_random_vectors(&inputs, vectors, seed);

    let mut energy = 0.0f64;
    let mut total = 0u64;
    for (v, &t) in sim.toggles().iter().enumerate() {
        total += t;
        energy += 0.5 * caps.get(v).copied().unwrap_or(0.0) * vdd * vdd * t as f64;
    }
    EnergyResult {
        energy,
        total_toggles: total,
        vectors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_netlist::{CouplingCap, GroundCap, SpiceFile};

    const BUF: &str = "
.GLOBAL VDD VSS
.SUBCKT BUF A Z VDD VSS
M1 mid A VSS VSS nch W=0.1u L=0.03u
M2 mid A VDD VDD pch W=0.2u L=0.03u
M3 Z mid VSS VSS nch W=0.1u L=0.03u
M4 Z mid VDD VDD pch W=0.2u L=0.03u
.ENDS
";

    fn buf_with_spf() -> (Netlist, SpfFile) {
        let nl = SpiceFile::parse(BUF).unwrap().flatten("BUF").unwrap();
        let mut spf = SpfFile::new("BUF");
        spf.ground_caps.push(GroundCap {
            node: SpfNode::Net("mid".into()),
            value: 1e-16,
        });
        spf.ground_caps.push(GroundCap {
            node: SpfNode::Net("Z".into()),
            value: 2e-16,
        });
        spf.coupling_caps.push(CouplingCap {
            a: SpfNode::Net("mid".into()),
            b: SpfNode::Net("Z".into()),
            value: 4e-17,
        });
        spf.coupling_caps.push(CouplingCap {
            a: SpfNode::Pin {
                device: "M1".into(),
                pin: "G".into(),
            },
            b: SpfNode::Net("mid".into()),
            value: 2e-17,
        });
        (nl, spf)
    }

    #[test]
    fn cap_assembly_splits_couplings() {
        let (nl, spf) = buf_with_spf();
        let caps = net_capacitances(&nl, &spf);
        let mid = nl.net_id("mid").unwrap().0 as usize;
        let z = nl.net_id("Z").unwrap().0 as usize;
        let a = nl.net_id("A").unwrap().0 as usize;
        assert!((caps[mid] - (1e-16 + 2e-17 + 1e-17)).abs() < 1e-22);
        assert!((caps[z] - (2e-16 + 2e-17)).abs() < 1e-22);
        // Pin M1:G sits on net A.
        assert!((caps[a] - 1e-17).abs() < 1e-22);
    }

    #[test]
    fn energy_scales_linearly_with_caps() {
        let (nl, spf) = buf_with_spf();
        let caps = net_capacitances(&nl, &spf);
        let e1 = simulate_energy(&nl, &caps, 0.9, 40, 3);
        let doubled: Vec<f64> = caps.iter().map(|c| 2.0 * c).collect();
        let e2 = simulate_energy(&nl, &doubled, 0.9, 40, 3);
        assert!(e1.energy > 0.0);
        assert_eq!(
            e1.total_toggles, e2.total_toggles,
            "activity must not depend on caps"
        );
        assert!((e2.energy / e1.energy - 2.0).abs() < 1e-9);
    }

    #[test]
    fn predicted_coupling_override() {
        let (nl, spf) = buf_with_spf();
        let gt = net_capacitances(&nl, &spf);
        let pred = net_capacitances_with(&nl, &spf, |c| c.value * 1.5);
        let mid = nl.net_id("mid").unwrap().0 as usize;
        assert!(pred[mid] > gt[mid]);
        // Ground caps are untouched by the override.
        let z = nl.net_id("Z").unwrap().0 as usize;
        assert!((pred[z] - (2e-16 + 1.5 * 2e-17)).abs() < 1e-22);
    }

    #[test]
    fn deterministic_energy() {
        let (nl, spf) = buf_with_spf();
        let caps = net_capacitances(&nl, &spf);
        let a = simulate_energy(&nl, &caps, 0.9, 20, 11);
        let b = simulate_energy(&nl, &caps, 0.9, 20, 11);
        assert_eq!(a, b);
    }
}
