//! Node, edge and link type codes of the heterogeneous circuit graph.
//!
//! These integer codes follow Section III-A of the paper exactly: nets are
//! type 0, devices type 1, pins type 2; schematic edges are `device-pin`
//! (0) and `net-pin` (1); prediction targets ("links", only observable in
//! the post-layout netlist) are `pin-net` (2), `pin-pin` (3) and `net-net`
//! (4) couplings.

use std::fmt;

/// Heterogeneous node type (`xi` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum NodeType {
    /// A net (green circle in Fig. 1); `xi = 0`.
    Net = 0,
    /// A device instance (orange square); `xi = 1`.
    Device = 1,
    /// A device pin (yellow circle); `xi = 2`.
    Pin = 2,
}

impl NodeType {
    /// Number of node types.
    pub const COUNT: usize = 3;

    /// The integer code.
    pub fn code(self) -> usize {
        self as usize
    }

    /// Decodes an integer code.
    ///
    /// # Panics
    ///
    /// Panics if `code > 2`.
    pub fn from_code(code: usize) -> Self {
        match code {
            0 => NodeType::Net,
            1 => NodeType::Device,
            2 => NodeType::Pin,
            _ => panic!("invalid node type code {code}"),
        }
    }
}

impl fmt::Display for NodeType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NodeType::Net => "net",
            NodeType::Device => "device",
            NodeType::Pin => "pin",
        };
        f.write_str(s)
    }
}

/// Edge/link type code (`ei` in the paper).
///
/// Values 0–1 are schematic topology edges; 2–4 are coupling links (the
/// prediction targets, present only after link injection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum EdgeType {
    /// Device-to-pin connection; `ei = 0`.
    DevicePin = 0,
    /// Net-to-pin connection; `ei = 1`.
    NetPin = 1,
    /// Pin-to-net coupling link; `ei = 2`.
    CouplingPinNet = 2,
    /// Pin-to-pin coupling link; `ei = 3`.
    CouplingPinPin = 3,
    /// Net-to-net coupling link; `ei = 4`.
    CouplingNetNet = 4,
}

impl EdgeType {
    /// Number of edge types (including link types).
    pub const COUNT: usize = 5;

    /// The integer code.
    pub fn code(self) -> usize {
        self as usize
    }

    /// Decodes an integer code.
    ///
    /// # Panics
    ///
    /// Panics if `code > 4`.
    pub fn from_code(code: usize) -> Self {
        match code {
            0 => EdgeType::DevicePin,
            1 => EdgeType::NetPin,
            2 => EdgeType::CouplingPinNet,
            3 => EdgeType::CouplingPinPin,
            4 => EdgeType::CouplingNetNet,
            _ => panic!("invalid edge type code {code}"),
        }
    }

    /// Whether this is a coupling link (prediction target) rather than a
    /// schematic edge.
    pub fn is_link(self) -> bool {
        self.code() >= 2
    }

    /// The link type implied by the node types of its two endpoints.
    ///
    /// Returns `None` for endpoint combinations that cannot couple (e.g.
    /// anything involving a device body).
    pub fn link_between(a: NodeType, b: NodeType) -> Option<EdgeType> {
        match (a, b) {
            (NodeType::Pin, NodeType::Net) | (NodeType::Net, NodeType::Pin) => {
                Some(EdgeType::CouplingPinNet)
            }
            (NodeType::Pin, NodeType::Pin) => Some(EdgeType::CouplingPinPin),
            (NodeType::Net, NodeType::Net) => Some(EdgeType::CouplingNetNet),
            _ => None,
        }
    }
}

impl fmt::Display for EdgeType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EdgeType::DevicePin => "device-pin",
            EdgeType::NetPin => "net-pin",
            EdgeType::CouplingPinNet => "p2n",
            EdgeType::CouplingPinPin => "p2p",
            EdgeType::CouplingNetNet => "n2n",
        };
        f.write_str(s)
    }
}

/// Pin terminal codes used as the pin-node circuit statistic (Table I,
/// `xi = 2` row: "Pin types (G/D/S/B for MOS)").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum PinKind {
    /// MOS drain.
    Drain = 0,
    /// MOS gate.
    Gate = 1,
    /// MOS source.
    Source = 2,
    /// MOS bulk/body.
    Bulk = 3,
    /// Two-terminal device positive terminal.
    Positive = 4,
    /// Two-terminal device negative terminal.
    Negative = 5,
    /// Diode anode.
    Anode = 6,
    /// Diode cathode.
    Cathode = 7,
}

impl PinKind {
    /// Number of pin kinds.
    pub const COUNT: usize = 8;

    /// The integer code.
    pub fn code(self) -> usize {
        self as usize
    }

    /// Maps a terminal name (as in [`ams_netlist::DeviceKind::terminal_names`])
    /// to its kind.
    ///
    /// # Panics
    ///
    /// Panics on an unknown terminal name.
    pub fn from_terminal(name: &str) -> Self {
        match name {
            "D" => PinKind::Drain,
            "G" => PinKind::Gate,
            "S" => PinKind::Source,
            "B" => PinKind::Bulk,
            "P" => PinKind::Positive,
            "N" => PinKind::Negative,
            "A" => PinKind::Anode,
            "C" => PinKind::Cathode,
            other => panic!("unknown terminal name {other:?}"),
        }
    }

    /// The terminal name.
    pub fn terminal_name(self) -> &'static str {
        match self {
            PinKind::Drain => "D",
            PinKind::Gate => "G",
            PinKind::Source => "S",
            PinKind::Bulk => "B",
            PinKind::Positive => "P",
            PinKind::Negative => "N",
            PinKind::Anode => "A",
            PinKind::Cathode => "C",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for c in 0..NodeType::COUNT {
            assert_eq!(NodeType::from_code(c).code(), c);
        }
        for c in 0..EdgeType::COUNT {
            assert_eq!(EdgeType::from_code(c).code(), c);
        }
    }

    #[test]
    fn link_type_inference() {
        assert_eq!(
            EdgeType::link_between(NodeType::Pin, NodeType::Net),
            Some(EdgeType::CouplingPinNet)
        );
        assert_eq!(
            EdgeType::link_between(NodeType::Net, NodeType::Pin),
            Some(EdgeType::CouplingPinNet)
        );
        assert_eq!(
            EdgeType::link_between(NodeType::Net, NodeType::Net),
            Some(EdgeType::CouplingNetNet)
        );
        assert_eq!(
            EdgeType::link_between(NodeType::Device, NodeType::Net),
            None
        );
    }

    #[test]
    fn schematic_vs_link_edges() {
        assert!(!EdgeType::DevicePin.is_link());
        assert!(!EdgeType::NetPin.is_link());
        assert!(EdgeType::CouplingPinNet.is_link());
        assert!(EdgeType::CouplingNetNet.is_link());
    }

    #[test]
    fn pin_kind_names_round_trip() {
        for code in 0..PinKind::COUNT as u8 {
            let k = match code {
                0 => PinKind::Drain,
                1 => PinKind::Gate,
                2 => PinKind::Source,
                3 => PinKind::Bulk,
                4 => PinKind::Positive,
                5 => PinKind::Negative,
                6 => PinKind::Anode,
                _ => PinKind::Cathode,
            };
            assert_eq!(PinKind::from_terminal(k.terminal_name()), k);
        }
    }
}
