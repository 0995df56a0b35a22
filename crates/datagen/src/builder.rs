//! Design builder: composes library cells into a placed top-level design.
//!
//! The builder produces real hierarchical SPICE (the top cell instantiates
//! library subcircuits), flattens it through `ams-netlist`, and records a
//! floorplan position for every instance so the layout-proxy extractor can
//! synthesize geometric parasitics.

use std::collections::HashMap;
use std::fmt;

use ams_netlist::{Netlist, SpiceFile};

use crate::cells;

/// A placed, flattened synthetic design.
#[derive(Debug, Clone)]
pub struct Design {
    /// Design name (e.g. `SSRAM`).
    pub name: String,
    /// Flattened primitive netlist.
    pub netlist: Netlist,
    /// Floorplan position of each top-level instance, microns.
    pub placement: Placement,
    /// The hierarchical SPICE source the design was flattened from.
    pub spice: String,
}

/// Floorplan positions for instances and an accessor that resolves any
/// flattened device name to a deterministic position.
#[derive(Debug, Clone, Default)]
pub struct Placement {
    positions: HashMap<String, (f64, f64)>,
}

impl Placement {
    /// Records the position of a top-level instance (or a top-level device).
    pub fn place(&mut self, instance: &str, x: f64, y: f64) {
        self.positions.insert(instance.to_string(), (x, y));
    }

    /// Number of placed instances.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether no instance has been placed.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Resolves a flattened device name (`Xinst.M1` or `M1`) to a position.
    ///
    /// The instance part (first path segment) gives the base position; the
    /// remainder adds a small deterministic jitter so devices inside one
    /// cell do not collapse onto a single point. Unplaced devices fall back
    /// to a hash-derived position, keeping extraction total.
    pub fn device_position(&self, device_name: &str) -> (f64, f64) {
        let first = device_name.split('.').next().unwrap_or(device_name);
        let base = self
            .positions
            .get(first)
            .or_else(|| self.positions.get(device_name));
        let (bx, by) = match base {
            Some(&(x, y)) => (x, y),
            None => {
                let h = fxhash(device_name);
                (
                    ((h >> 8) % 4096) as f64 * 0.5,
                    ((h >> 20) % 4096) as f64 * 0.5,
                )
            }
        };
        let h = fxhash(device_name);
        let jx = ((h & 0xf) as f64) * 0.05;
        let jy = (((h >> 4) & 0xf) as f64) * 0.05;
        (bx + jx, by + jy)
    }
}

/// Deterministic 64-bit string hash (FNV-1a).
fn fxhash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Error from design construction.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildDesignError {
    /// Explanation.
    pub message: String,
}

impl fmt::Display for BuildDesignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "design build error: {}", self.message)
    }
}

impl std::error::Error for BuildDesignError {}

/// Incrementally builds a top-level design out of library cells.
///
/// # Examples
///
/// ```
/// use ams_datagen::DesignBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = DesignBuilder::new("DEMO");
/// b.port("IN"); b.port("OUT"); b.port("VDD"); b.port("VSS");
/// b.instance("Xb", "BUF", &["IN", "OUT", "VDD", "VSS"], 0.0, 0.0)?;
/// let design = b.finish()?;
/// assert_eq!(design.netlist.num_devices(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DesignBuilder {
    name: String,
    ports: Vec<String>,
    lines: Vec<String>,
    placement: Placement,
    instance_count: usize,
}

impl DesignBuilder {
    /// Starts a design named `name`.
    pub fn new(name: &str) -> Self {
        DesignBuilder {
            name: name.to_string(),
            ports: Vec::new(),
            lines: Vec::new(),
            placement: Placement::default(),
            instance_count: 0,
        }
    }

    /// Declares a top-level port net.
    pub fn port(&mut self, name: &str) {
        if !self.ports.iter().any(|p| p == name) {
            self.ports.push(name.to_string());
        }
    }

    /// Instantiates a library cell at floorplan position `(x, y)` µm.
    ///
    /// # Errors
    ///
    /// Returns an error if the cell is unknown or the connection count does
    /// not match the cell's port list.
    pub fn instance(
        &mut self,
        inst: &str,
        cell: &str,
        nets: &[&str],
        x: f64,
        y: f64,
    ) -> Result<(), BuildDesignError> {
        let ports = cells::cell_ports(cell).ok_or_else(|| BuildDesignError {
            message: format!("unknown cell {cell:?}"),
        })?;
        if ports.len() != nets.len() {
            return Err(BuildDesignError {
                message: format!(
                    "{inst}: cell {cell} has {} ports, got {} connections",
                    ports.len(),
                    nets.len()
                ),
            });
        }
        self.lines.push(format!("{inst} {} {cell}", nets.join(" ")));
        self.placement.place(inst, x, y);
        self.instance_count += 1;
        Ok(())
    }

    /// Adds a raw top-level device card (e.g. a decap or bus resistor).
    pub fn raw_device(&mut self, card: &str, x: f64, y: f64) {
        let name = card.split_whitespace().next().unwrap_or("").to_string();
        self.lines.push(card.to_string());
        self.placement.place(&name, x, y);
    }

    /// Number of instances added so far.
    pub fn instance_count(&self) -> usize {
        self.instance_count
    }

    /// Emits SPICE, flattens it, and returns the placed design.
    ///
    /// # Errors
    ///
    /// Propagates SPICE parse/flatten failures (which indicate a generator
    /// bug, e.g. a port-count mismatch).
    pub fn finish(self) -> Result<Design, BuildDesignError> {
        let mut spice = String::new();
        spice.push_str("* generated design: ");
        spice.push_str(&self.name);
        spice.push('\n');
        spice.push_str(".GLOBAL VDD VSS\n");
        spice.push_str(cells::library_spice());
        spice.push('\n');
        spice.push_str(&format!(".SUBCKT {} {}\n", self.name, self.ports.join(" ")));
        for line in &self.lines {
            spice.push_str(line);
            spice.push('\n');
        }
        spice.push_str(".ENDS\n");

        let file = SpiceFile::parse(&spice).map_err(|e| BuildDesignError {
            message: e.to_string(),
        })?;
        let netlist = file.flatten(&self.name).map_err(|e| BuildDesignError {
            message: e.to_string(),
        })?;
        Ok(Design {
            name: self.name,
            netlist,
            placement: self.placement,
            spice,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_flattens() {
        let mut b = DesignBuilder::new("T");
        b.port("A");
        b.port("Z");
        b.instance("Xi", "INV", &["A", "Z", "VDD", "VSS"], 1.0, 2.0)
            .unwrap();
        let d = b.finish().unwrap();
        assert_eq!(d.netlist.num_devices(), 2);
        assert!(d.netlist.device_by_name("Xi.M1").is_some());
        let (x, y) = d.placement.device_position("Xi.M1");
        assert!((1.0..2.0).contains(&x));
        assert!((2.0..3.0).contains(&y));
    }

    #[test]
    fn rejects_unknown_cell() {
        let mut b = DesignBuilder::new("T");
        assert!(b.instance("X1", "NOPE", &[], 0.0, 0.0).is_err());
    }

    #[test]
    fn rejects_bad_connection_count() {
        let mut b = DesignBuilder::new("T");
        assert!(b.instance("X1", "INV", &["A"], 0.0, 0.0).is_err());
    }

    #[test]
    fn positions_are_deterministic() {
        let mut p = Placement::default();
        p.place("Xa", 10.0, 20.0);
        assert_eq!(p.device_position("Xa.M1"), p.device_position("Xa.M1"));
        assert_ne!(p.device_position("Xa.M1"), p.device_position("Xa.M2"));
        // Unplaced devices still get a stable position.
        assert_eq!(p.device_position("ghost"), p.device_position("ghost"));
    }

    #[test]
    fn raw_devices_are_placed() {
        let mut b = DesignBuilder::new("T");
        b.port("A");
        b.raw_device("Cdec A VSS 10f", 5.0, 5.0);
        let d = b.finish().unwrap();
        assert_eq!(d.netlist.num_devices(), 1);
        let (x, _) = d.placement.device_position("Cdec");
        assert!(x >= 5.0);
    }
}
