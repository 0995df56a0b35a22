//! In-memory representation of a (flattened) AMS schematic netlist.

use std::collections::HashMap;
use std::fmt;

/// Index of a net within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

/// Index of a device within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub u32);

/// The kind of a primitive device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// N-channel MOSFET.
    Nmos,
    /// P-channel MOSFET.
    Pmos,
    /// Resistor.
    Resistor,
    /// Capacitor (intentional, not parasitic).
    Capacitor,
    /// Diode.
    Diode,
}

impl DeviceKind {
    /// Canonical terminal (pin) names in SPICE order.
    ///
    /// MOSFETs use D/G/S/B; two-terminal devices use P/N; diodes use A/C.
    pub fn terminal_names(self) -> &'static [&'static str] {
        match self {
            DeviceKind::Nmos | DeviceKind::Pmos => &["D", "G", "S", "B"],
            DeviceKind::Resistor | DeviceKind::Capacitor => &["P", "N"],
            DeviceKind::Diode => &["A", "C"],
        }
    }

    /// Whether this is a MOS transistor.
    pub fn is_mos(self) -> bool {
        matches!(self, DeviceKind::Nmos | DeviceKind::Pmos)
    }
}

impl fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeviceKind::Nmos => "nmos",
            DeviceKind::Pmos => "pmos",
            DeviceKind::Resistor => "resistor",
            DeviceKind::Capacitor => "capacitor",
            DeviceKind::Diode => "diode",
        };
        f.write_str(s)
    }
}

/// Geometry / sizing parameters of a device instance.
///
/// Fields not meaningful for a device kind are zero (e.g. `fingers` on a
/// resistor). Lengths and widths are in meters, `value` in SI units of the
/// device (ohms or farads).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeviceParams {
    /// Channel / body width in meters.
    pub width: f64,
    /// Channel / body length in meters.
    pub length: f64,
    /// Instance multiplier (`M=`).
    pub multiplier: f64,
    /// Number of fingers (`NF=`), for MOS and MOM/MIM capacitors.
    pub fingers: f64,
    /// Primitive value (resistance in ohms, capacitance in farads).
    pub value: f64,
}

/// A primitive device instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    /// Instance name (hierarchical names are joined with `.`).
    pub name: String,
    /// Device kind.
    pub kind: DeviceKind,
    /// Model name as written in the netlist (e.g. `nch_lvt`), if any.
    pub model: String,
    /// Connected net per terminal, in [`DeviceKind::terminal_names`] order.
    pub terminals: Vec<NetId>,
    /// Sizing parameters.
    pub params: DeviceParams,
}

/// A net (electrical node) in the netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct Net {
    /// Net name (hierarchical names are joined with `.`).
    pub name: String,
    /// Whether the net is a port of the top cell (or a global like `VDD`).
    pub is_port: bool,
}

/// A flattened schematic netlist: nets plus primitive devices.
///
/// # Examples
///
/// ```
/// use ams_netlist::{DeviceKind, DeviceParams, Netlist};
///
/// let mut nl = Netlist::new("buffer");
/// let a = nl.add_net("A", true);
/// let z = nl.add_net("Z", true);
/// let vdd = nl.add_net("VDD", true);
/// nl.add_device("M1", DeviceKind::Pmos, "pch", &[z, a, vdd, vdd],
///     DeviceParams { width: 4e-7, length: 3e-8, multiplier: 1.0, ..Default::default() });
/// assert_eq!(nl.num_nets(), 3);
/// assert_eq!(nl.num_devices(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    /// Cell name.
    pub name: String,
    nets: Vec<Net>,
    devices: Vec<Device>,
    net_index: HashMap<String, NetId>,
}

impl Netlist {
    /// Creates an empty netlist for cell `name`.
    pub fn new(name: &str) -> Self {
        Netlist {
            name: name.to_string(),
            ..Default::default()
        }
    }

    /// Adds a net (or returns the existing id if the name is known).
    pub fn add_net(&mut self, name: &str, is_port: bool) -> NetId {
        if let Some(&id) = self.net_index.get(name) {
            if is_port {
                self.nets[id.0 as usize].is_port = true;
            }
            return id;
        }
        let id = NetId(self.nets.len() as u32);
        self.nets.push(Net {
            name: name.to_string(),
            is_port,
        });
        self.net_index.insert(name.to_string(), id);
        id
    }

    /// Adds a device instance, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if the terminal count does not match the device kind.
    pub fn add_device(
        &mut self,
        name: &str,
        kind: DeviceKind,
        model: &str,
        terminals: &[NetId],
        params: DeviceParams,
    ) -> DeviceId {
        assert_eq!(
            terminals.len(),
            kind.terminal_names().len(),
            "device {name} of kind {kind} expects {} terminals",
            kind.terminal_names().len()
        );
        let id = DeviceId(self.devices.len() as u32);
        self.devices.push(Device {
            name: name.to_string(),
            kind,
            model: model.to_string(),
            terminals: terminals.to_vec(),
            params,
        });
        id
    }

    /// Looks up a net by name.
    pub fn net_id(&self, name: &str) -> Option<NetId> {
        self.net_index.get(name).copied()
    }

    /// Borrows a net.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.0 as usize]
    }

    /// Borrows a device.
    pub fn device(&self, id: DeviceId) -> &Device {
        &self.devices[id.0 as usize]
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Iterates over `(NetId, &Net)`.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets
            .iter()
            .enumerate()
            .map(|(i, n)| (NetId(i as u32), n))
    }

    /// Iterates over `(DeviceId, &Device)`.
    pub fn devices(&self) -> impl Iterator<Item = (DeviceId, &Device)> {
        self.devices
            .iter()
            .enumerate()
            .map(|(i, d)| (DeviceId(i as u32), d))
    }

    /// Finds a device by instance name (linear scan; test/debug helper).
    pub fn device_by_name(&self, name: &str) -> Option<(DeviceId, &Device)> {
        self.devices().find(|(_, d)| d.name == name)
    }

    /// Rebuilds the name index (needed after deserializing).
    pub fn rebuild_index(&mut self) {
        self.net_index = self
            .nets
            .iter()
            .enumerate()
            .map(|(i, n)| (n.name.clone(), NetId(i as u32)))
            .collect();
    }

    /// Total transistor count (devices with MOS kind, weighted by multiplier).
    pub fn transistor_count(&self) -> usize {
        self.devices
            .iter()
            .filter(|d| d.kind.is_mos())
            .map(|d| d.params.multiplier.max(1.0) as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_net_list() -> Netlist {
        let mut nl = Netlist::new("t");
        nl.add_net("a", false);
        nl.add_net("b", true);
        nl
    }

    #[test]
    fn add_net_deduplicates() {
        let mut nl = two_net_list();
        let a1 = nl.add_net("a", false);
        let a2 = nl.add_net("a", false);
        assert_eq!(a1, a2);
        assert_eq!(nl.num_nets(), 2);
    }

    #[test]
    fn add_net_promotes_to_port() {
        let mut nl = two_net_list();
        let a = nl.add_net("a", true);
        assert!(nl.net(a).is_port);
    }

    #[test]
    #[should_panic(expected = "expects 4 terminals")]
    fn add_device_validates_terminal_count() {
        let mut nl = two_net_list();
        let a = nl.net_id("a").unwrap();
        nl.add_device(
            "M1",
            DeviceKind::Nmos,
            "nch",
            &[a, a],
            DeviceParams::default(),
        );
    }

    #[test]
    fn rebuild_index_restores_lookup() {
        let mut nl = two_net_list();
        nl.net_index.clear();
        assert!(nl.net_id("a").is_none());
        nl.rebuild_index();
        assert_eq!(nl.net_id("a"), Some(NetId(0)));
    }

    #[test]
    fn transistor_count_respects_multiplier() {
        let mut nl = two_net_list();
        let a = nl.net_id("a").unwrap();
        let b = nl.net_id("b").unwrap();
        nl.add_device(
            "M1",
            DeviceKind::Nmos,
            "nch",
            &[a, b, a, a],
            DeviceParams {
                multiplier: 4.0,
                ..Default::default()
            },
        );
        nl.add_device(
            "R1",
            DeviceKind::Resistor,
            "rpoly",
            &[a, b],
            DeviceParams {
                value: 100.0,
                ..Default::default()
            },
        );
        assert_eq!(nl.transistor_count(), 4);
    }
}
