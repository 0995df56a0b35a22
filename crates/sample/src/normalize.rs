//! Feature and target normalization (Section IV-C: `XC` and capacitance
//! values are normalized to `[0, 1]` to avoid numerical instability).

use circuit_graph::{CircuitGraph, XC_DIM};

/// Min-max normalizer for the circuit-statistics matrix `XC`, fitted on
/// the training designs and reused unchanged on test designs (no test-set
/// leakage).
#[derive(Debug, Clone, PartialEq)]
pub struct XcNormalizer {
    min: Vec<f32>,
    max: Vec<f32>,
}

impl XcNormalizer {
    /// Fits per-dimension min/max over the nodes of the given graphs.
    ///
    /// # Panics
    ///
    /// Panics if `graphs` is empty.
    pub fn fit(graphs: &[&CircuitGraph]) -> Self {
        assert!(!graphs.is_empty(), "need at least one graph to fit");
        let mut min = vec![f32::MAX; XC_DIM];
        let mut max = vec![f32::MIN; XC_DIM];
        for g in graphs {
            for row in g.xc().chunks_exact(XC_DIM) {
                for (d, &v) in row.iter().enumerate() {
                    min[d] = min[d].min(v);
                    max[d] = max[d].max(v);
                }
            }
        }
        XcNormalizer { min, max }
    }

    /// Normalizes one `XC` row into `out` (both `XC_DIM` long). Values
    /// outside the fitted range clamp to `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths differ from [`XC_DIM`].
    pub fn transform_into(&self, row: &[f32], out: &mut [f32]) {
        assert_eq!(row.len(), XC_DIM);
        assert_eq!(out.len(), XC_DIM);
        for d in 0..XC_DIM {
            let range = self.max[d] - self.min[d];
            out[d] = if range > 0.0 {
                ((row[d] - self.min[d]) / range).clamp(0.0, 1.0)
            } else {
                0.0
            };
        }
    }

    /// Normalizes a full row-major `XC` matrix.
    pub fn transform(&self, xc: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; xc.len()];
        for (r, o) in xc.chunks_exact(XC_DIM).zip(out.chunks_exact_mut(XC_DIM)) {
            self.transform_into(r, o);
        }
        out
    }
}

/// Log-scale min-max normalizer for capacitance targets.
///
/// The paper clamps targets to `1e-21..1e-15` F and normalizes to
/// `[0, 1]`. Because the values span six decades, we normalize
/// `log10(cap)`; a linear min-max would collapse almost all targets
/// against 0 and make the reported MAE meaningless. Negative links carry
/// zero capacitance and map to exactly 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapNormalizer {
    log_min: f64,
    log_max: f64,
}

impl CapNormalizer {
    /// Creates a normalizer for the paper's clamp range.
    pub fn paper_range() -> Self {
        CapNormalizer::from_range(1e-21, 1e-15)
    }

    /// Creates a normalizer for an arbitrary positive range.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < lo < hi`.
    pub fn from_range(lo: f64, hi: f64) -> Self {
        assert!(lo > 0.0 && hi > lo, "invalid capacitance range");
        CapNormalizer {
            log_min: lo.log10(),
            log_max: hi.log10(),
        }
    }

    /// Encodes a capacitance (farads) to a `[0, 1]` target.
    pub fn encode(&self, cap: f64) -> f32 {
        if cap <= 0.0 {
            return 0.0;
        }
        (((cap.log10() - self.log_min) / (self.log_max - self.log_min)).clamp(0.0, 1.0)) as f32
    }

    /// Decodes a `[0, 1]` prediction back to farads.
    pub fn decode(&self, y: f32) -> f64 {
        10f64.powf(self.log_min + (self.log_max - self.log_min) * y.clamp(0.0, 1.0) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit_graph::{EdgeType, GraphBuilder, NodeType};

    #[test]
    fn xc_normalizer_scales_to_unit() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(NodeType::Net, "a");
        let c = b.add_node(NodeType::Net, "c");
        b.set_xc(a, 0, 2.0);
        b.set_xc(c, 0, 10.0);
        b.set_xc(a, 1, 5.0);
        b.set_xc(c, 1, 5.0);
        b.add_edge(a, c, EdgeType::NetPin);
        let g = b.build();
        let norm = XcNormalizer::fit(&[&g]);
        let t = norm.transform(g.xc());
        assert_eq!(t[0], 0.0);
        assert_eq!(t[XC_DIM], 1.0);
        // Constant dimension maps to 0, not NaN.
        assert_eq!(t[1], 0.0);
        assert!(t.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn xc_normalizer_clamps_unseen_values() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(NodeType::Net, "a");
        let c = b.add_node(NodeType::Net, "c");
        b.set_xc(a, 0, 0.0);
        b.set_xc(c, 0, 1.0);
        b.add_edge(a, c, EdgeType::NetPin);
        let g = b.build();
        let norm = XcNormalizer::fit(&[&g]);
        let mut out = vec![0.0; XC_DIM];
        let mut row = vec![0.0; XC_DIM];
        row[0] = 5.0; // outside fitted range
        norm.transform_into(&row, &mut out);
        assert_eq!(out[0], 1.0);
    }

    #[test]
    fn cap_normalizer_round_trips() {
        let n = CapNormalizer::paper_range();
        for cap in [1e-21, 1e-18, 3.7e-17, 1e-15] {
            let y = n.encode(cap);
            let back = n.decode(y);
            assert!(
                (back.log10() - cap.log10()).abs() < 1e-3,
                "{cap} -> {y} -> {back}"
            );
        }
    }

    #[test]
    fn cap_normalizer_boundaries() {
        let n = CapNormalizer::paper_range();
        assert_eq!(n.encode(0.0), 0.0);
        assert_eq!(n.encode(1e-21), 0.0);
        assert_eq!(n.encode(1e-15), 1.0);
        assert!(n.encode(1e-10) <= 1.0);
        let mid = n.encode(1e-18);
        assert!(
            mid > 0.4 && mid < 0.6,
            "1e-18 should be mid-range, got {mid}"
        );
    }
}
