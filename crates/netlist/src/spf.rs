//! Simplified DSPF (Detailed Standard Parasitic Format) reader/writer.
//!
//! Post-layout extraction tools report two kinds of parasitic capacitance:
//! *ground* capacitance from a node to the substrate, and *coupling*
//! capacitance between two signal nodes. The paper extracts its ground-truth
//! labels and targets from SPF files; this module provides the same
//! interchange format for the synthetic extraction flow in `ams-datagen`.
//!
//! A node is either a net (by name) or a device pin written `device:PIN`
//! (e.g. `Xbit0.M1:G`), matching industry DSPF pin naming.

use std::fmt;
use std::fmt::Write as _;

use crate::units::{format_spice_value, parse_spice_value};

/// A parasitic node: a net or a device pin.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpfNode {
    /// A net, by flattened name.
    Net(String),
    /// A device pin, `device:pin` (pin is `G`/`D`/`S`/`B`/`P`/`N`/`A`/`C`).
    Pin {
        /// Flattened device instance name.
        device: String,
        /// Terminal name.
        pin: String,
    },
}

impl SpfNode {
    /// Parses `netname` or `device:PIN` notation.
    pub fn parse(s: &str) -> SpfNode {
        match s.rsplit_once(':') {
            Some((device, pin)) if !device.is_empty() && !pin.is_empty() => SpfNode::Pin {
                device: device.to_string(),
                pin: pin.to_string(),
            },
            _ => SpfNode::Net(s.to_string()),
        }
    }
}

impl fmt::Display for SpfNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpfNode::Net(n) => f.write_str(n),
            SpfNode::Pin { device, pin } => write!(f, "{device}:{pin}"),
        }
    }
}

/// Ground capacitance entry: node to substrate.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundCap {
    /// The node.
    pub node: SpfNode,
    /// Capacitance to ground, farads.
    pub value: f64,
}

/// Coupling capacitance entry between two nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct CouplingCap {
    /// First node.
    pub a: SpfNode,
    /// Second node.
    pub b: SpfNode,
    /// Coupling capacitance, farads.
    pub value: f64,
}

/// A parsed SPF file: design name plus parasitic capacitances.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpfFile {
    /// Design name from the `*|DESIGN` header.
    pub design: String,
    /// Node-to-substrate capacitances.
    pub ground_caps: Vec<GroundCap>,
    /// Node-to-node coupling capacitances.
    pub coupling_caps: Vec<CouplingCap>,
}

/// Error parsing an SPF file.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseSpfError {
    /// 1-based line number.
    pub line: usize,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for ParseSpfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spf parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseSpfError {}

impl SpfFile {
    /// Creates an empty SPF container for `design`.
    pub fn new(design: &str) -> Self {
        SpfFile {
            design: design.to_string(),
            ..Default::default()
        }
    }

    /// Total number of capacitance entries.
    pub fn len(&self) -> usize {
        self.ground_caps.len() + self.coupling_caps.len()
    }

    /// Whether the file holds no parasitics.
    pub fn is_empty(&self) -> bool {
        self.ground_caps.is_empty() && self.coupling_caps.is_empty()
    }

    /// Parses SPF text.
    ///
    /// Capacitor cards whose second node is `0` (or `GND`) are ground caps;
    /// any other pair is a coupling cap.
    ///
    /// # Errors
    ///
    /// Returns [`ParseSpfError`] on malformed capacitor cards.
    pub fn parse(source: &str) -> Result<Self, ParseSpfError> {
        let mut out = SpfFile::default();
        for (i, raw) in source.lines().enumerate() {
            let lineno = i + 1;
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("*|DESIGN") {
                out.design = rest.trim().trim_matches('"').to_string();
                continue;
            }
            if line.starts_with('*') || line.starts_with('.') {
                continue;
            }
            let tokens: Vec<&str> = line.split_whitespace().collect();
            if !tokens[0].to_ascii_uppercase().starts_with('C') {
                return Err(ParseSpfError {
                    line: lineno,
                    message: format!("unexpected card {:?}", tokens[0]),
                });
            }
            if tokens.len() < 4 {
                return Err(ParseSpfError {
                    line: lineno,
                    message: "capacitor card needs two nodes and a value".into(),
                });
            }
            let value = parse_spice_value(tokens[3]).map_err(|e| ParseSpfError {
                line: lineno,
                message: e.to_string(),
            })?;
            let a = SpfNode::parse(tokens[1]);
            let is_ground = tokens[2] == "0" || tokens[2].eq_ignore_ascii_case("gnd");
            if is_ground {
                out.ground_caps.push(GroundCap { node: a, value });
            } else {
                let b = SpfNode::parse(tokens[2]);
                out.coupling_caps.push(CouplingCap { a, b, value });
            }
        }
        Ok(out)
    }

    /// Renders the file as SPF text (parseable by [`SpfFile::parse`]).
    pub fn to_text(&self) -> String {
        // ~64 bytes/line: saves ~30 doubling reallocs on multi-hundred-MB
        // outputs from million-node designs.
        let mut out =
            String::with_capacity(64 * (self.ground_caps.len() + self.coupling_caps.len()) + 128);
        let _ = writeln!(out, "*|DSPF 1.5");
        let _ = writeln!(out, "*|DESIGN \"{}\"", self.design);
        let _ = writeln!(out, "* ground capacitances: {}", self.ground_caps.len());
        for (i, g) in self.ground_caps.iter().enumerate() {
            let _ = writeln!(out, "Cg{} {} 0 {}", i, g.node, format_spice_value(g.value));
        }
        let _ = writeln!(out, "* coupling capacitances: {}", self.coupling_caps.len());
        for (i, c) in self.coupling_caps.iter().enumerate() {
            let _ = writeln!(
                out,
                "Cc{} {} {} {}",
                i,
                c.a,
                c.b,
                format_spice_value(c.value)
            );
        }
        let _ = writeln!(out, ".END");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_parse_forms() {
        assert_eq!(SpfNode::parse("netA"), SpfNode::Net("netA".into()));
        assert_eq!(
            SpfNode::parse("Xb.M1:G"),
            SpfNode::Pin {
                device: "Xb.M1".into(),
                pin: "G".into()
            }
        );
        // Degenerate colon forms fall back to net names.
        assert_eq!(SpfNode::parse(":G"), SpfNode::Net(":G".into()));
    }

    #[test]
    fn parse_classifies_ground_vs_coupling() {
        let src = "*|DSPF 1.5\n*|DESIGN \"d\"\nC1 a 0 1f\nC2 a b 2f\nC3 a GND 3f\n.END\n";
        let f = SpfFile::parse(src).unwrap();
        assert_eq!(f.design, "d");
        assert_eq!(f.ground_caps.len(), 2);
        assert_eq!(f.coupling_caps.len(), 1);
        assert_eq!(f.coupling_caps[0].value, 2e-15);
    }

    #[test]
    fn round_trip() {
        let mut f = SpfFile::new("rt");
        f.ground_caps.push(GroundCap {
            node: SpfNode::Net("n1".into()),
            value: 2.5e-16,
        });
        f.coupling_caps.push(CouplingCap {
            a: SpfNode::Net("n1".into()),
            b: SpfNode::Pin {
                device: "M3".into(),
                pin: "D".into(),
            },
            value: 7.5e-18,
        });
        let text = f.to_text();
        let back = SpfFile::parse(&text).unwrap();
        assert_eq!(back.design, "rt");
        assert_eq!(back.ground_caps.len(), 1);
        assert_eq!(back.coupling_caps.len(), 1);
        assert!((back.coupling_caps[0].value - 7.5e-18).abs() / 7.5e-18 < 1e-3);
        assert_eq!(back.coupling_caps[0].b, f.coupling_caps[0].b);
    }

    #[test]
    fn rejects_malformed_cards() {
        assert!(SpfFile::parse("C1 a b\n").is_err());
        assert!(SpfFile::parse("R1 a b 1\n").is_err());
        assert!(SpfFile::parse("C1 a b xyz\n").is_err());
    }
}
