//! Switch-level logic simulation of MOS netlists.
//!
//! The paper validates predicted capacitances by SPICE-simulating energy
//! consumption. A full analog solver is out of scope (and unnecessary:
//! switching energy is `Σ α·C·V²`, a linear functional of the per-net
//! capacitances under fixed activity), so this module implements the
//! classic switch-level abstraction (IRSIM-style): transistors are
//! voltage-controlled switches, nets take values {0, 1, X}, undriven nets
//! retain charge, and per-net toggle counts provide the activity factors
//! `α`.

use std::collections::VecDeque;

use ams_netlist::{DeviceKind, Netlist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Logic value of a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Logic {
    /// Driven (or retained) low.
    Zero,
    /// Driven (or retained) high.
    One,
    /// Unknown / conflict.
    X,
}

/// A channel (source-drain) edge controlled by a gate net, or an
/// always-on resistive connection.
#[derive(Debug, Clone, Copy)]
struct Channel {
    a: usize,
    b: usize,
    /// Gate net; `None` conducts unconditionally (resistors).
    gate: Option<usize>,
    /// Conducts when the gate is high (NMOS) or low (PMOS).
    on_high: bool,
}

/// Switch-level simulator for a flattened netlist.
///
/// # Examples
///
/// ```
/// use ams_netlist::SpiceFile;
/// use mini_spice::{Logic, SwitchSim};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let src = "
/// .GLOBAL VDD VSS
/// .SUBCKT INV A Z VDD VSS
/// M1 Z A VSS VSS nch W=0.1u L=0.03u
/// M2 Z A VDD VDD pch W=0.2u L=0.03u
/// .ENDS
/// ";
/// let nl = SpiceFile::parse(src)?.flatten("INV")?;
/// let mut sim = SwitchSim::new(&nl);
/// sim.drive("A", Logic::Zero);
/// sim.settle();
/// assert_eq!(sim.value("Z"), Logic::One);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SwitchSim {
    net_names: Vec<String>,
    values: Vec<Logic>,
    driven: Vec<Option<Logic>>,
    supply_high: Vec<usize>,
    supply_low: Vec<usize>,
    channels: Vec<Channel>,
    /// Channels incident to each net (for propagation).
    incident: Vec<Vec<usize>>,
    toggles: Vec<u64>,
}

fn is_high_rail(name: &str) -> bool {
    matches!(name, "VDD" | "VDDH" | "VDDL" | "VCC")
}

fn is_low_rail(name: &str) -> bool {
    name == "VSS" || name == "0" || name.eq_ignore_ascii_case("gnd")
}

impl SwitchSim {
    /// Builds a simulator over a flattened netlist.
    pub fn new(netlist: &Netlist) -> SwitchSim {
        let n = netlist.num_nets();
        let mut channels = Vec::new();
        for (_, dev) in netlist.devices() {
            match dev.kind {
                DeviceKind::Nmos | DeviceKind::Pmos => {
                    // Terminals: D G S B.
                    let d = dev.terminals[0].0 as usize;
                    let g = dev.terminals[1].0 as usize;
                    let s = dev.terminals[2].0 as usize;
                    channels.push(Channel {
                        a: d,
                        b: s,
                        gate: Some(g),
                        on_high: dev.kind == DeviceKind::Nmos,
                    });
                }
                DeviceKind::Resistor => {
                    let a = dev.terminals[0].0 as usize;
                    let b = dev.terminals[1].0 as usize;
                    channels.push(Channel {
                        a,
                        b,
                        gate: None,
                        on_high: true,
                    });
                }
                // Capacitors and diodes do not form logic paths.
                DeviceKind::Capacitor | DeviceKind::Diode => {}
            }
        }
        let mut incident = vec![Vec::new(); n];
        for (ci, ch) in channels.iter().enumerate() {
            incident[ch.a].push(ci);
            incident[ch.b].push(ci);
        }
        let mut supply_high = Vec::new();
        let mut supply_low = Vec::new();
        // Floating nets start at a deterministic pseudo-random 0/1 rather
        // than X: an all-X start deadlocks (X gates conduct nothing), and
        // real switch-level simulators likewise randomize initial charge.
        let mut values: Vec<Logic> = netlist
            .nets()
            .map(|(_, net)| {
                let mut h: u64 = 0xcbf29ce484222325;
                for b in net.name.bytes() {
                    h = (h ^ b as u64).wrapping_mul(0x100000001b3);
                }
                if h & 1 == 0 {
                    Logic::Zero
                } else {
                    Logic::One
                }
            })
            .collect();
        for (id, net) in netlist.nets() {
            if is_high_rail(&net.name) {
                supply_high.push(id.0 as usize);
                values[id.0 as usize] = Logic::One;
            } else if is_low_rail(&net.name) {
                supply_low.push(id.0 as usize);
                values[id.0 as usize] = Logic::Zero;
            }
        }
        SwitchSim {
            net_names: netlist.nets().map(|(_, net)| net.name.clone()).collect(),
            values,
            driven: vec![None; n],
            supply_high,
            supply_low,
            channels,
            incident,
            toggles: vec![0; n],
        }
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.values.len()
    }

    /// Drives a net (by name) to a value until released.
    ///
    /// # Panics
    ///
    /// Panics if the net does not exist.
    pub fn drive(&mut self, net: &str, value: Logic) {
        let id = self
            .net_index(net)
            .unwrap_or_else(|| panic!("unknown net {net:?}"));
        self.driven[id] = Some(value);
    }

    /// Releases an input (the net then floats / retains charge).
    pub fn release(&mut self, net: &str) {
        if let Some(id) = self.net_index(net) {
            self.driven[id] = None;
        }
    }

    /// Current value of a net by name.
    ///
    /// # Panics
    ///
    /// Panics if the net does not exist.
    pub fn value(&self, net: &str) -> Logic {
        self.values[self
            .net_index(net)
            .unwrap_or_else(|| panic!("unknown net {net:?}"))]
    }

    /// Toggle count (0↔1 transitions observed by [`SwitchSim::settle`])
    /// per net, indexed by `NetId`.
    pub fn toggles(&self) -> &[u64] {
        &self.toggles
    }

    /// Clears toggle counters (e.g. after warm-up vectors).
    pub fn reset_toggles(&mut self) {
        self.toggles.iter_mut().for_each(|t| *t = 0);
    }

    fn net_index(&self, name: &str) -> Option<usize> {
        self.net_names.iter().position(|n| n == name)
    }

    /// Propagates rail and input drive through conducting channels until
    /// the network stabilizes, counting 0↔1 toggles against the previous
    /// stable state. Returns the number of relaxation iterations used.
    pub fn settle(&mut self) -> usize {
        let prev = self.values.clone();
        let mut iterations = 0;
        // Gate states change conduction, so relax to a fixpoint. The cap
        // is prime so free-running oscillators don't alias to a no-toggle
        // state across consecutive settle() calls.
        for _ in 0..23 {
            iterations += 1;
            let new_values = self.solve_once();
            let changed = new_values != self.values;
            self.values = new_values;
            if !changed {
                break;
            }
        }
        for (v, (&old, &new)) in prev.iter().zip(&self.values).enumerate() {
            let flipped = matches!(
                (old, new),
                (Logic::Zero, Logic::One) | (Logic::One, Logic::Zero)
            );
            if flipped {
                self.toggles[v] += 1;
            }
        }
        iterations
    }

    /// One propagation pass: multi-source BFS from rails and driven nets
    /// across conducting channels; conflicting drivers yield `X`;
    /// unreached nets retain their previous value (charge storage).
    fn solve_once(&self) -> Vec<Logic> {
        let n = self.values.len();
        // 0 = none, 1 = zero, 2 = one, 3 = conflict
        let mut mark = vec![0u8; n];
        let mut queue: VecDeque<usize> = VecDeque::new();
        let set = |mark: &mut Vec<u8>, queue: &mut VecDeque<usize>, v: usize, m: u8| {
            let cur = mark[v];
            let new = cur | m;
            if new != cur {
                mark[v] = new;
                queue.push_back(v);
            }
        };
        for &v in &self.supply_low {
            set(&mut mark, &mut queue, v, 1);
        }
        for &v in &self.supply_high {
            set(&mut mark, &mut queue, v, 2);
        }
        for (v, d) in self.driven.iter().enumerate() {
            match d {
                Some(Logic::Zero) => set(&mut mark, &mut queue, v, 1),
                Some(Logic::One) => set(&mut mark, &mut queue, v, 2),
                Some(Logic::X) => set(&mut mark, &mut queue, v, 3),
                None => {}
            }
        }
        while let Some(v) = queue.pop_front() {
            let m = mark[v];
            for &ci in &self.incident[v] {
                let ch = &self.channels[ci];
                let conducting = match ch.gate {
                    None => true,
                    Some(g) => match self.values[g] {
                        Logic::One => ch.on_high,
                        Logic::Zero => !ch.on_high,
                        Logic::X => false,
                    },
                };
                if !conducting {
                    continue;
                }
                let other = if ch.a == v { ch.b } else { ch.a };
                set(&mut mark, &mut queue, other, m);
            }
        }
        (0..n)
            .map(|v| match mark[v] {
                0 => self.values[v], // charge retention
                1 => Logic::Zero,
                2 => Logic::One,
                _ => Logic::X,
            })
            .collect()
    }

    /// Applies `vectors` random input patterns to the given input nets
    /// (toggling any net whose name contains `CLK` every vector), settling
    /// after each. Returns the total settle iterations.
    pub fn run_random_vectors(&mut self, inputs: &[String], vectors: usize, seed: u64) -> usize {
        let mut rng = StdRng::seed_from_u64(seed);
        let clk_nets: Vec<String> = self
            .net_names
            .iter()
            .filter(|n| n.contains("CLK") && !n.contains('.'))
            .cloned()
            .collect();
        let mut total = 0;
        for step in 0..vectors {
            for name in inputs {
                if rng.gen_bool(0.35) {
                    let v = if rng.gen_bool(0.5) {
                        Logic::One
                    } else {
                        Logic::Zero
                    };
                    self.drive(name, v);
                }
            }
            for clk in &clk_nets {
                self.drive(
                    clk,
                    if step % 2 == 0 {
                        Logic::One
                    } else {
                        Logic::Zero
                    },
                );
            }
            total += self.settle();
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_netlist::SpiceFile;

    fn sim_of(src: &str, top: &str) -> (Netlist, SwitchSim) {
        let nl = SpiceFile::parse(src).unwrap().flatten(top).unwrap();
        let sim = SwitchSim::new(&nl);
        (nl, sim)
    }

    const INV: &str = "
.GLOBAL VDD VSS
.SUBCKT INV A Z VDD VSS
M1 Z A VSS VSS nch W=0.1u L=0.03u
M2 Z A VDD VDD pch W=0.2u L=0.03u
.ENDS
";

    #[test]
    fn inverter_inverts() {
        let (_, mut sim) = sim_of(INV, "INV");
        sim.drive("A", Logic::Zero);
        sim.settle();
        assert_eq!(sim.value("Z"), Logic::One);
        sim.drive("A", Logic::One);
        sim.settle();
        assert_eq!(sim.value("Z"), Logic::Zero);
    }

    #[test]
    fn toggles_are_counted() {
        let (nl, mut sim) = sim_of(INV, "INV");
        sim.drive("A", Logic::Zero);
        sim.settle();
        sim.reset_toggles();
        for i in 0..6 {
            sim.drive("A", if i % 2 == 0 { Logic::One } else { Logic::Zero });
            sim.settle();
        }
        let z = nl.net_id("Z").unwrap();
        assert_eq!(sim.toggles()[z.0 as usize], 6);
    }

    const NAND: &str = "
.GLOBAL VDD VSS
.SUBCKT NAND2 A B Z VDD VSS
M1 Z A mid VSS nch W=0.2u L=0.03u
M2 mid B VSS VSS nch W=0.2u L=0.03u
M3 Z A VDD VDD pch W=0.2u L=0.03u
M4 Z B VDD VDD pch W=0.2u L=0.03u
.ENDS
";

    #[test]
    fn nand_truth_table() {
        let (_, mut sim) = sim_of(NAND, "NAND2");
        for (a, b, want) in [
            (Logic::Zero, Logic::Zero, Logic::One),
            (Logic::Zero, Logic::One, Logic::One),
            (Logic::One, Logic::Zero, Logic::One),
            (Logic::One, Logic::One, Logic::Zero),
        ] {
            sim.drive("A", a);
            sim.drive("B", b);
            sim.settle();
            assert_eq!(sim.value("Z"), want, "A={a:?} B={b:?}");
        }
    }

    const LATCH: &str = "
.GLOBAL VDD VSS
.SUBCKT CELL BL WL VDD VSS
M1 q qb VSS VSS nch W=0.14u L=0.03u
M2 q qb VDD VDD pch W=0.1u L=0.03u
M3 qb q VSS VSS nch W=0.14u L=0.03u
M4 qb q VDD VDD pch W=0.1u L=0.03u
M5 BL WL q VSS nch W=0.12u L=0.03u
.ENDS
";

    #[test]
    fn bitcell_stores_written_value() {
        let (_, mut sim) = sim_of(LATCH, "CELL");
        // Write 1 through the access transistor.
        sim.drive("WL", Logic::One);
        sim.drive("BL", Logic::One);
        for _ in 0..4 {
            sim.settle();
        }
        // Close the wordline and release the bitline: the cross-coupled
        // pair must hold the state.
        sim.drive("WL", Logic::Zero);
        sim.release("BL");
        for _ in 0..4 {
            sim.settle();
        }
        assert_eq!(sim.value("q"), Logic::One);
        assert_eq!(sim.value("qb"), Logic::Zero);
    }

    #[test]
    fn ring_oscillator_activity() {
        // Three-inverter ring with an enable NAND: when enabled the
        // relaxation never reaches a stable point within an iteration
        // budget, so values keep toggling across settle() calls.
        let src = "
.GLOBAL VDD VSS
.SUBCKT RING EN VDD VSS
M1 r0 EN m VSS nch W=0.2u L=0.03u
M2 m r2 VSS VSS nch W=0.2u L=0.03u
M3 r0 EN VDD VDD pch W=0.2u L=0.03u
M4 r0 r2 VDD VDD pch W=0.2u L=0.03u
M5 r1 r0 VSS VSS nch W=0.1u L=0.03u
M6 r1 r0 VDD VDD pch W=0.2u L=0.03u
M7 r2 r1 VSS VSS nch W=0.1u L=0.03u
M8 r2 r1 VDD VDD pch W=0.2u L=0.03u
.ENDS
";
        let (nl, mut sim) = sim_of(src, "RING");
        sim.drive("EN", Logic::One);
        for _ in 0..8 {
            sim.settle();
        }
        let toggles = sim.toggles();
        let r2 = nl.net_id("r2").unwrap();
        assert!(toggles[r2.0 as usize] > 0, "oscillator never toggled");
    }

    #[test]
    fn random_vectors_run() {
        let (nl, mut sim) = sim_of(NAND, "NAND2");
        let iters = sim.run_random_vectors(&["A".into(), "B".into()], 32, 7);
        assert!(iters >= 32);
        let z = nl.net_id("Z").unwrap();
        assert!(sim.toggles()[z.0 as usize] > 0);
    }
}
