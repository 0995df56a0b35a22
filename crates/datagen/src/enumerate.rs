//! Lowers grammar [`Term`]s to placed designs and exposes the
//! deterministic design-space iterator behind `cirgps datagen`.
//!
//! The pipeline is: [`crate::grammar::family_workload`] (symbolic
//! enumeration) → size window filter → sort by `(size, name)` →
//! [`build_term`] (SPICE + placement) → [`crate::filters::check_design`]
//! (electrical validity) → [`GeneratedDesign`].
//!
//! Everything downstream (CLI, pretrain corpus loading, benches, CI
//! smoke) consumes [`DesignEnumerator`]; designs only touch disk when
//! the CLI explicitly writes them via [`crate::emit`].

use ams_netlist::SpfFile;

use crate::builder::{BuildDesignError, Design, DesignBuilder};
use crate::filters::check_design;
use crate::grammar::{family_workload, Family, Filter, Term};
use crate::tiles::{
    bitcell_array_6t, bitcell_array_8t, column_periphery, row_decoder, CELL_H, CELL_W,
};
use crate::{extract_parasitics, ExtractConfig};

/// What to enumerate: a size window over one family (or all six) plus
/// the corpus seed.
#[derive(Debug, Clone)]
pub struct EnumerateConfig {
    /// Restrict to one family; `None` enumerates all six.
    pub family: Option<Family>,
    /// Corpus seed: feeds the per-design extraction seed (the SPICE
    /// structure is a pure function of the term; the parasitic jitter is
    /// a pure function of `(seed, term)`).
    pub seed: u64,
    /// Keep terms with `size_estimate <= max_size`.
    pub max_size: u64,
    /// Keep terms with `size_estimate >= min_size` (0 = no lower bound).
    pub min_size: u64,
    /// Stop after this many designs (`None` = the whole window).
    pub count: Option<usize>,
}

impl Default for EnumerateConfig {
    fn default() -> Self {
        EnumerateConfig {
            family: None,
            seed: 7,
            max_size: 4_000,
            min_size: 0,
            count: None,
        }
    }
}

/// One enumerated design: the term it came from plus the built artifact.
#[derive(Debug, Clone)]
pub struct GeneratedDesign {
    /// The grammar term.
    pub term: Term,
    /// The built, placed, flattened design.
    pub design: Design,
    /// The extraction seed derived from `(corpus seed, term)`.
    pub extract_seed: u64,
}

impl GeneratedDesign {
    /// Runs the layout-proxy extractor with this design's derived seed,
    /// producing the SPF half of the SPICE+SPF pair.
    pub fn extract(&self) -> SpfFile {
        let cfg = ExtractConfig {
            seed: self.extract_seed,
            ..Default::default()
        };
        extract_parasitics(&self.design, &cfg)
    }
}

/// The terms of the configured window, sorted by `(size, name)` — the
/// canonical enumeration order every consumer sees.
pub fn enumerate_terms(family: Option<Family>, min_size: u64, max_size: u64) -> Vec<Term> {
    let families: &[Family] = match family {
        Some(ref f) => std::slice::from_ref(f),
        None => &Family::ALL,
    };
    let mut terms: Vec<Term> = families
        .iter()
        .flat_map(|&f| {
            family_workload(f)
                .filter(Filter::MaxSize(max_size))
                .filter(Filter::MinSize(min_size))
                .terms()
        })
        .collect();
    terms.sort_by_cached_key(|t| (t.size_estimate(), t.name()));
    terms
}

/// SplitMix64 finalizer: derives the per-design extraction seed from the
/// corpus seed and the term name, so every design in a corpus gets
/// independent — but exactly reproducible — parasitic jitter.
pub fn term_extract_seed(corpus_seed: u64, term: &Term) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ corpus_seed;
    for b in term.name().bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Iterator over the configured design window in canonical order.
///
/// Terms whose built design fails the electrical filters are skipped
/// (and counted in [`DesignEnumerator::skipped`]); with the shipped
/// grammar this never happens — the datagen tests assert as much — but
/// the contract keeps future productions honest.
#[derive(Debug)]
pub struct DesignEnumerator {
    terms: std::vec::IntoIter<Term>,
    seed: u64,
    remaining: Option<usize>,
    skipped: usize,
}

impl DesignEnumerator {
    /// Designs dropped by the validity filters so far.
    pub fn skipped(&self) -> usize {
        self.skipped
    }
}

impl Iterator for DesignEnumerator {
    type Item = GeneratedDesign;

    fn next(&mut self) -> Option<GeneratedDesign> {
        if self.remaining == Some(0) {
            return None;
        }
        for term in self.terms.by_ref() {
            let design = match build_term(&term, self.seed) {
                Ok(d) => d,
                Err(_) => {
                    self.skipped += 1;
                    continue;
                }
            };
            if check_design(&design).is_err() {
                self.skipped += 1;
                continue;
            }
            if let Some(n) = self.remaining.as_mut() {
                *n -= 1;
            }
            let extract_seed = term_extract_seed(self.seed, &term);
            return Some(GeneratedDesign {
                term,
                design,
                extract_seed,
            });
        }
        None
    }
}

/// Enumerates the configured design window: the Rust-API twin of
/// `cirgps datagen`.
pub fn enumerate_designs(cfg: &EnumerateConfig) -> DesignEnumerator {
    DesignEnumerator {
        terms: enumerate_terms(cfg.family, cfg.min_size, cfg.max_size).into_iter(),
        seed: cfg.seed,
        remaining: cfg.count,
        skipped: 0,
    }
}

/// Builds the placed design for one term. The SPICE structure is a pure
/// function of the term (the corpus seed only flows into extraction), so
/// the same term always emits byte-identical SPICE.
///
/// # Errors
///
/// Returns a [`BuildDesignError`] only on a generator bug (the grammar
/// guarantees cell/port agreement).
pub fn build_term(term: &Term, _corpus_seed: u64) -> Result<Design, BuildDesignError> {
    let mut b = DesignBuilder::new(&term.name());
    match *term {
        Term::Chain { cell, len } => build_chain(&mut b, cell, len, "", 0.0, 0.0, true)?,
        Term::Tree { depth, fanout } => build_tree(&mut b, depth, fanout)?,
        Term::Bus {
            cell,
            lanes,
            stages,
        } => build_bus(&mut b, cell, lanes, stages)?,
        Term::Mux { bits, lanes } => build_mux(&mut b, bits, lanes)?,
        Term::Decoder { bits } => build_decoder(&mut b, bits)?,
        Term::Array {
            eight_t,
            rows,
            cols,
            periphery,
        } => build_array(&mut b, eight_t, rows, cols, periphery)?,
        Term::Sandwich { rows, cols } => build_sandwich(&mut b, rows, cols)?,
    }
    b.finish()
}

/// Wires one chain stage of `cell` from `prev` to `next`. Non-datapath
/// inputs tie to the stage-support nets (`{p}TIE1`/`{p}TIE0`/`{p}CLK`)
/// created by [`build_chain`] / [`build_bus`].
fn stage_nets<'a>(
    cell: &str,
    prev: &'a str,
    next: &'a str,
    tie1: &'a str,
    tie0: &'a str,
    clk: &'a str,
) -> Vec<&'a str> {
    match cell {
        "NAND2" => vec![prev, tie1, next, "VDD", "VSS"],
        "NOR2" | "XOR2" => vec![prev, tie0, next, "VDD", "VSS"],
        "DFF" => vec![prev, clk, next, "VDD", "VSS"],
        // INV / INVX4 / BUF / RCDELAY
        _ => vec![prev, next, "VDD", "VSS"],
    }
}

/// Whether `cell` needs the TIE1/TIE0/CLK support nets.
fn stage_support(cell: &str) -> (bool, bool, bool) {
    match cell {
        "NAND2" => (true, false, false),
        "NOR2" | "XOR2" => (false, true, false),
        "DFF" => (false, false, true),
        _ => (false, false, false),
    }
}

/// A `len`-stage chain of `cell` between ports `{p}IN` and `{p}OUT`,
/// meander-placed in a square-ish block at `(x0, y0)`. With `own_ports`
/// the chain declares its boundary nets (and any support nets) as
/// top-level ports; bus lanes share support nets instead.
fn build_chain(
    b: &mut DesignBuilder,
    cell: &'static str,
    len: u32,
    p: &str,
    x0: f64,
    y0: f64,
    own_ports: bool,
) -> Result<(), BuildDesignError> {
    let input = format!("{p}IN");
    let output = format!("{p}OUT");
    let (tie1, tie0, clk) = (format!("{p}TIE1"), format!("{p}TIE0"), format!("{p}CLK"));
    if own_ports {
        b.port(&input);
        b.port(&output);
        let (need1, need0, needck) = stage_support(cell);
        if need1 || need0 {
            // TIE1 = INV(IN); TIE0 = INV(TIE1): both driven, no floats.
            b.instance("Xtie1", "INV", &[&input, &tie1, "VDD", "VSS"], x0 - 1.0, y0)?;
            if need0 {
                b.instance(
                    "Xtie0",
                    "INV",
                    &[&tie1, &tie0, "VDD", "VSS"],
                    x0 - 1.0,
                    y0 + 0.3,
                )?;
            }
        }
        if needck {
            b.port(&clk);
        }
    }
    // Meander over a square-ish grid so the coupling radius sees
    // neighboring stages in both directions.
    let row_w = (len as f64).sqrt().ceil() as u32;
    let net = |i: u32| -> String {
        if i == 0 {
            input.clone()
        } else if i == len {
            output.clone()
        } else {
            format!("{p}c{i}")
        }
    };
    for i in 0..len {
        let (prev, next) = (net(i), net(i + 1));
        let nets = stage_nets(cell, &prev, &next, &tie1, &tie0, &clk);
        let (r, c) = (i / row_w, i % row_w);
        b.instance(
            &format!("X{p}s{i}"),
            cell,
            &nets,
            x0 + c as f64 * CELL_W,
            y0 + r as f64 * CELL_H,
        )?;
    }
    Ok(())
}

/// A buffer fan-out tree: `CK` at the root, one BUF per node, an INV
/// load on every leaf whose output becomes a port.
fn build_tree(b: &mut DesignBuilder, depth: u32, fanout: u32) -> Result<(), BuildDesignError> {
    b.port("CK");
    b.instance("Xroot", "BUF", &["CK", "t0_0", "VDD", "VSS"], 0.0, 0.0)?;
    let mut level_width = 1u32;
    for l in 1..=depth {
        level_width *= fanout;
        for k in 0..level_width {
            let parent = format!("t{}_{}", l - 1, k / fanout);
            let own = format!("t{l}_{k}");
            b.instance(
                &format!("Xb{l}_{k}"),
                "BUF",
                &[&parent, &own, "VDD", "VSS"],
                k as f64 * CELL_W * 2.0,
                l as f64 * 1.5,
            )?;
        }
    }
    for k in 0..level_width {
        let leaf = format!("L{k}");
        b.port(&leaf);
        b.instance(
            &format!("Xl{k}"),
            "INV",
            &[&format!("t{depth}_{k}"), &leaf, "VDD", "VSS"],
            k as f64 * CELL_W * 2.0,
            (depth + 1) as f64 * 1.5,
        )?;
    }
    Ok(())
}

/// `lanes` parallel chains at bitcell pitch, sharing one set of support
/// nets, so adjacent lanes couple along their whole length.
fn build_bus(
    b: &mut DesignBuilder,
    cell: &'static str,
    lanes: u32,
    stages: u32,
) -> Result<(), BuildDesignError> {
    let (need1, need0, needck) = stage_support(cell);
    if need1 || need0 {
        b.instance("Xtie1", "INV", &["l0_IN", "TIE1", "VDD", "VSS"], -1.0, 0.0)?;
        if need0 {
            b.instance("Xtie0", "INV", &["TIE1", "TIE0", "VDD", "VSS"], -1.0, 0.3)?;
        }
    }
    if needck {
        b.port("CLK");
    }
    for l in 0..lanes {
        let p = format!("l{l}_");
        b.port(&format!("{p}IN"));
        b.port(&format!("{p}OUT"));
        let net = |i: u32| -> String {
            if i == 0 {
                format!("{p}IN")
            } else if i == stages {
                format!("{p}OUT")
            } else {
                format!("{p}c{i}")
            }
        };
        for i in 0..stages {
            let (prev, next) = (net(i), net(i + 1));
            let nets = stage_nets(cell, &prev, &next, "TIE1", "TIE0", "CLK");
            b.instance(
                &format!("X{p}s{i}"),
                cell,
                &nets,
                i as f64 * CELL_W,
                l as f64 * CELL_H,
            )?;
        }
    }
    Ok(())
}

/// `lanes` binary MUX2 selection trees over `2^bits` inputs, sharing a
/// buffered select bus.
fn build_mux(b: &mut DesignBuilder, bits: u32, lanes: u32) -> Result<(), BuildDesignError> {
    for bit in 0..bits {
        let sel = format!("S{bit}");
        b.port(&sel);
        b.instance(
            &format!("Xsb{bit}"),
            "BUF",
            &[&sel, &format!("sb{bit}"), "VDD", "VSS"],
            -2.0,
            bit as f64 * 0.5,
        )?;
    }
    let inputs = 1u32 << bits;
    for l in 0..lanes {
        for i in 0..inputs {
            b.port(&format!("D{l}_{i}"));
        }
        b.port(&format!("Y{l}"));
        // Level b reduces 2^(bits-b) nets to 2^(bits-b-1).
        for bit in 0..bits {
            let width = 1u32 << (bits - bit - 1);
            for k in 0..width {
                let pick = |j: u32| -> String {
                    if bit == 0 {
                        format!("D{l}_{j}")
                    } else {
                        format!("m{l}_{bit}_{j}")
                    }
                };
                let out = if bit == bits - 1 {
                    format!("Y{l}")
                } else {
                    format!("m{l}_{}_{k}", bit + 1)
                };
                b.instance(
                    &format!("Xm{l}_{bit}_{k}"),
                    "MUX2",
                    &[
                        &pick(2 * k),
                        &pick(2 * k + 1),
                        &format!("sb{bit}"),
                        &out,
                        "VDD",
                        "VSS",
                    ],
                    bit as f64 * 1.2,
                    (l * inputs + k * (inputs / width)) as f64 * CELL_H,
                )?;
            }
        }
    }
    Ok(())
}

/// A `2^bits`-row address decoder driving a two-column bitcell slice.
fn build_decoder(b: &mut DesignBuilder, bits: u32) -> Result<(), BuildDesignError> {
    let rows = 1usize << bits;
    for bit in 0..bits {
        b.port(&format!("A{bit}"));
    }
    b.port("PCB");
    row_decoder(b, "", rows, "", 0.0, 0.0)?;
    bitcell_array_6t(b, "", rows, 2, 2.0, 0.0)?;
    for c in 0..2 {
        b.instance(
            &format!("Xpch{c}"),
            "PRECH",
            &[&format!("BL{c}"), &format!("BLB{c}"), "PCB", "VDD"],
            2.0 + c as f64 * CELL_W,
            rows as f64 * CELL_H + 0.5,
        )?;
    }
    Ok(())
}

/// An SRAM bitcell tiling; bare arrays terminate their bitlines and
/// wordlines in ports, `periphery` adds column periphery + row decoder
/// (6T only — the grammar never emits an 8T periphery term).
fn build_array(
    b: &mut DesignBuilder,
    eight_t: bool,
    rows: u32,
    cols: u32,
    periphery: bool,
) -> Result<(), BuildDesignError> {
    let (rows, cols) = (rows as usize, cols as usize);
    if eight_t {
        for r in 0..rows {
            b.port(&format!("WWL{r}"));
            b.port(&format!("RWL{r}"));
        }
        for c in 0..cols {
            b.port(&format!("WBL{c}"));
            b.port(&format!("WBLB{c}"));
            b.port(&format!("RBL{c}"));
        }
        bitcell_array_8t(b, "", rows, cols, 0.0, 0.0)?;
        return Ok(());
    }
    if !periphery {
        for r in 0..rows {
            b.port(&format!("WL{r}"));
        }
        for c in 0..cols {
            b.port(&format!("BL{c}"));
            b.port(&format!("BLB{c}"));
        }
        bitcell_array_6t(b, "", rows, cols, 0.0, 0.0)?;
        return Ok(());
    }
    let abits = rows.next_power_of_two().trailing_zeros().max(1);
    for bit in 0..abits {
        b.port(&format!("A{bit}"));
    }
    for name in ["PCB", "WEN", "SAE", "CSEL0", "CSEL1"] {
        b.port(name);
    }
    for c in 0..cols {
        b.port(&format!("D{c}"));
    }
    for g in 0..cols.div_ceil(4).max(1) {
        b.port(&format!("SA{g}"));
        b.port(&format!("SAB{g}"));
    }
    bitcell_array_6t(b, "", rows, cols, 0.0, 0.0)?;
    column_periphery(b, "", cols, 0.0, rows as f64 * CELL_H)?;
    row_decoder(b, "", rows, "", -1.0, 0.0)?;
    Ok(())
}

/// Two 6T banks around a FULLADD compute layer: each bank's columns are
/// sensed, the two sense outputs per column feed an adder, and the
/// carries ripple across columns — the SANDWICH-RAM archetype as a
/// parameterized production.
fn build_sandwich(b: &mut DesignBuilder, rows: u32, cols: u32) -> Result<(), BuildDesignError> {
    let (rows, cols) = (rows as usize, cols as usize);
    let bank_h = rows as f64 * CELL_H;
    for r in 0..rows {
        b.port(&format!("b_WL{r}"));
        b.port(&format!("t_WL{r}"));
    }
    b.port("SAE");
    b.port("CI");
    b.port("CO");
    for c in 0..cols {
        b.port(&format!("SUM{c}"));
    }
    // Bottom bank at y=0, compute layer above it, top bank above that.
    bitcell_array_6t(b, "b_", rows, cols, 0.0, 0.0)?;
    bitcell_array_6t(b, "t_", rows, cols, 0.0, bank_h + 4.0)?;
    let carry = |c: usize| -> String {
        if c == 0 {
            "CI".to_string()
        } else if c == cols {
            "CO".to_string()
        } else {
            format!("cy{c}")
        }
    };
    for c in 0..cols {
        let x = c as f64 * CELL_W;
        for (p, y) in [("b_", bank_h + 0.5), ("t_", bank_h + 3.5)] {
            b.instance(
                &format!("X{p}sa{c}"),
                "SENSEAMP",
                &[
                    &format!("{p}BL{c}"),
                    &format!("{p}BLB{c}"),
                    "SAE",
                    &format!("{p}SA{c}"),
                    &format!("{p}SAB{c}"),
                    "VDD",
                    "VSS",
                ],
                x,
                y,
            )?;
        }
        b.instance(
            &format!("Xadd{c}"),
            "FULLADD",
            &[
                &format!("t_SA{c}"),
                &format!("b_SA{c}"),
                &carry(c),
                &format!("SUM{c}"),
                &carry(c + 1),
                "VDD",
                "VSS",
            ],
            x,
            bank_h + 2.0,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_builds_and_passes_filters_at_small_size() {
        for f in Family::ALL {
            let cfg = EnumerateConfig {
                family: Some(f),
                max_size: 2_500,
                count: Some(8),
                ..Default::default()
            };
            let mut e = enumerate_designs(&cfg);
            let built: Vec<_> = e.by_ref().collect();
            assert!(!built.is_empty(), "{f}: nothing enumerated");
            assert_eq!(e.skipped(), 0, "{f}: designs failed validity filters");
            for g in &built {
                assert_eq!(g.design.name, g.term.name());
                assert!(g.design.netlist.num_devices() > 0);
            }
        }
    }

    #[test]
    fn size_estimate_is_within_2x_of_real_node_count() {
        // Node count proxy: devices*(1+terminals) + nets, matching the
        // heterogeneous graph (device + pin-per-terminal + net nodes).
        for f in Family::ALL {
            let cfg = EnumerateConfig {
                family: Some(f),
                max_size: 3_000,
                min_size: 100,
                count: Some(4),
                ..Default::default()
            };
            for g in enumerate_designs(&cfg) {
                let nl = &g.design.netlist;
                let pins: usize = nl.devices().map(|(_, d)| d.terminals.len()).sum();
                let real = (nl.num_devices() + pins + nl.num_nets()) as u64;
                let est = g.term.size_estimate();
                assert!(
                    est >= real / 2 && est <= real * 2,
                    "{}: estimate {est} vs real {real}",
                    g.term.name()
                );
            }
        }
    }

    #[test]
    fn one_seed_enumerates_a_thousand_distinct_valid_terms() {
        let terms = enumerate_terms(None, 0, 4_000);
        let names: std::collections::BTreeSet<String> = terms.iter().map(|t| t.name()).collect();
        assert_eq!(names.len(), terms.len(), "duplicate names in enumeration");
        assert!(
            terms.len() >= 1_000,
            "only {} terms at max_size=4000",
            terms.len()
        );
        // Spot-build a deterministic sample across the whole window; every
        // one must pass the electrical filters.
        for term in terms.iter().step_by(83) {
            let d = build_term(term, 7).unwrap_or_else(|e| panic!("{}: {e}", term.name()));
            if let Err(v) = check_design(&d) {
                panic!("{}: {} violations, first: {}", term.name(), v.len(), v[0]);
            }
        }
    }

    #[test]
    fn enumeration_order_and_content_are_deterministic() {
        let cfg = EnumerateConfig {
            family: Some(Family::Chain),
            max_size: 1_500,
            count: Some(12),
            ..Default::default()
        };
        let a: Vec<_> = enumerate_designs(&cfg).collect();
        let b: Vec<_> = enumerate_designs(&cfg).collect();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.term, y.term);
            assert_eq!(x.design.spice, y.design.spice);
            assert_eq!(x.extract().to_text(), y.extract().to_text());
        }
    }

    #[test]
    fn count_truncates_and_min_size_offsets_the_window() {
        let all = enumerate_terms(Some(Family::Array), 0, 50_000);
        let tail = enumerate_terms(Some(Family::Array), 10_000, 50_000);
        assert!(tail.len() < all.len());
        assert!(tail.iter().all(|t| t.size_estimate() >= 10_000));
        let cfg = EnumerateConfig {
            family: Some(Family::Array),
            max_size: 50_000,
            count: Some(3),
            ..Default::default()
        };
        assert_eq!(enumerate_designs(&cfg).count(), 3);
    }
}
