//! Generators for the six AMS design archetypes used by the paper's
//! evaluation (Table IV): three training designs (SSRAM, ULTRA8T,
//! SANDWICH-RAM) and three test designs (DIGITAL_CLK_GEN, TIMING_CONTROL,
//! ARRAY_128_32).
//!
//! The proprietary originals are unavailable; these generators reproduce
//! the structural archetypes — SRAM arrays with their periphery, digital
//! standard-cell control logic and analog support blocks — at configurable
//! scale, which is what the graph-learning pipeline actually consumes
//! (topology + device geometry statistics).

mod array;
mod clkgen;
mod sandwich;

mod ssram;
mod timing;
mod ultra8t;

use crate::builder::{BuildDesignError, Design};

/// Which archetype to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignKind {
    /// Energy-efficient SRAM macro: 6T array + full digital periphery
    /// (training design, paper's SSRAM \[23\]).
    Ssram,
    /// Multi-voltage sub-threshold 8T SRAM with analog leakage detection
    /// (training design, paper's ULTRA8T \[29\]).
    Ultra8t,
    /// Compute-in-memory sandwich: two SRAM banks around an adder/PWM
    /// compute layer (training design, paper's SANDWICH-RAM \[30\]).
    SandwichRam,
    /// Internal clock generator: ring oscillator, dividers and an SRAM
    /// replica column (test design).
    DigitalClkGen,
    /// SRAM timing controller from standard digital cells (test design).
    TimingControl,
    /// Bare 128-row 32-column 6T SRAM array (test design).
    Array128x32,
}

impl DesignKind {
    /// All six archetypes in Table IV order.
    pub const ALL: [DesignKind; 6] = [
        DesignKind::Ssram,
        DesignKind::Ultra8t,
        DesignKind::SandwichRam,
        DesignKind::DigitalClkGen,
        DesignKind::TimingControl,
        DesignKind::Array128x32,
    ];

    /// The paper's dataset name.
    pub fn paper_name(self) -> &'static str {
        match self {
            DesignKind::Ssram => "SSRAM",
            DesignKind::Ultra8t => "ULTRA8T",
            DesignKind::SandwichRam => "SANDWICH-RAM",
            DesignKind::DigitalClkGen => "DIGITAL_CLK_GEN",
            DesignKind::TimingControl => "TIMING_CONTROL",
            DesignKind::Array128x32 => "ARRAY_128_32",
        }
    }

    /// Whether the paper uses this design for training (vs zero-shot test).
    pub fn is_training(self) -> bool {
        matches!(
            self,
            DesignKind::Ssram | DesignKind::Ultra8t | DesignKind::SandwichRam
        )
    }
}

/// Generation scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SizePreset {
    /// Minimal sizes for unit tests (hundreds of devices).
    Tiny,
    /// Default sizes: every experiment finishes on a laptop-class CPU.
    #[default]
    Small,
    /// Paper-comparable sizes (Table IV node counts within ~2×).
    Paper,
}

/// Generates a placed design for `kind` at the given scale.
///
/// Generation is deterministic for a given `(kind, preset)`.
///
/// # Errors
///
/// Returns a [`BuildDesignError`] only on internal generator bugs (cell
/// port mismatches); a successful return is structurally valid.
pub fn generate(kind: DesignKind, preset: SizePreset) -> Result<Design, BuildDesignError> {
    match kind {
        DesignKind::Ssram => ssram::generate(preset),
        DesignKind::Ultra8t => ultra8t::generate(preset),
        DesignKind::SandwichRam => sandwich::generate(preset),
        DesignKind::DigitalClkGen => clkgen::generate(preset),
        DesignKind::TimingControl => timing::generate(preset),
        DesignKind::Array128x32 => array::generate(preset),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_archetypes_generate_at_tiny_scale() {
        for kind in DesignKind::ALL {
            let d = generate(kind, SizePreset::Tiny).unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert!(d.netlist.num_devices() > 20, "{kind:?} too small");
            assert!(d.netlist.num_nets() > 10, "{kind:?} has too few nets");
            assert!(!d.placement.is_empty(), "{kind:?} has no placement");
        }
    }

    #[test]
    fn small_is_larger_than_tiny() {
        for kind in [DesignKind::Ssram, DesignKind::DigitalClkGen] {
            let t = generate(kind, SizePreset::Tiny).unwrap();
            let s = generate(kind, SizePreset::Small).unwrap();
            assert!(
                s.netlist.num_devices() > t.netlist.num_devices(),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(DesignKind::TimingControl, SizePreset::Tiny).unwrap();
        let b = generate(DesignKind::TimingControl, SizePreset::Tiny).unwrap();
        assert_eq!(a.spice, b.spice);
    }

    #[test]
    fn training_split_matches_paper() {
        assert!(DesignKind::Ssram.is_training());
        assert!(DesignKind::Ultra8t.is_training());
        assert!(DesignKind::SandwichRam.is_training());
        assert!(!DesignKind::DigitalClkGen.is_training());
        assert!(!DesignKind::TimingControl.is_training());
        assert!(!DesignKind::Array128x32.is_training());
    }
}
