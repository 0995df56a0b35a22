//! # graph-pe
//!
//! Positional/structural encodings for sampled circuit subgraphs
//! (Section III-C of the paper and its Table II comparison):
//!
//! * **DSPD** — the paper's double-anchor shortest-path distance: each
//!   node carries its distance pair to the two subgraph anchors (cheap,
//!   and the most accurate in Table II);
//! * **DRNL** — SEAL's double-radius node labeling hash;
//! * **RWSE** — random-walk return probabilities `diag(P^t)`, `t = 1..k`;
//! * **LapPE** — eigenvectors of the normalized Laplacian;
//! * **XC** — the raw circuit statistics used *as* a PE (the paper's
//!   Observation 1 shows this hurts generalization);
//! * **None** — no positional encoding.
//!
//! ## Example
//!
//! ```
//! use circuit_graph::{EdgeType, GraphBuilder, NodeType};
//! use graph_pe::{compute_pe, PeKind};
//! use subgraph_sample::{SamplerConfig, SubgraphSampler};
//!
//! let mut b = GraphBuilder::new();
//! let a = b.add_node(NodeType::Net, "a");
//! let p = b.add_node(NodeType::Pin, "p");
//! b.add_edge(a, p, EdgeType::NetPin);
//! let g = b.build();
//! let mut s = SubgraphSampler::new(&g, SamplerConfig::default());
//! let sub = s.enclosing_subgraph(a, p);
//!
//! let pe = compute_pe(&sub, PeKind::Dspd);
//! assert_eq!(pe.num_nodes(), 2);
//! ```

#![warn(missing_docs)]

mod lappe;

use circuit_graph::XC_DIM;
use subgraph_sample::{Subgraph, UNREACHABLE};

pub use lappe::lap_pe;

/// Which positional encoding to compute (Table II rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PeKind {
    /// No PE.
    None,
    /// Circuit statistics `XC` used as the PE (Observation 1 baseline).
    Xc,
    /// SEAL's double-radius node labeling.
    Drnl,
    /// Random-walk structural encoding with `k` steps.
    Rwse {
        /// Number of random-walk steps.
        k: usize,
    },
    /// Laplacian eigenvector PE with `k` eigenvectors.
    LapPe {
        /// Number of non-trivial eigenvectors.
        k: usize,
    },
    /// The paper's double-anchor shortest-path distance.
    Dspd,
}

impl PeKind {
    /// All Table II variants in row order.
    pub const TABLE2: [PeKind; 6] = [
        PeKind::None,
        PeKind::Xc,
        PeKind::Drnl,
        PeKind::Rwse { k: 8 },
        PeKind::LapPe { k: 4 },
        PeKind::Dspd,
    ];

    /// Display name matching the paper's Table II.
    pub fn paper_name(self) -> &'static str {
        match self {
            PeKind::None => "w/o PE",
            PeKind::Xc => "XC",
            PeKind::Drnl => "DRNL",
            PeKind::Rwse { .. } => "RWSE",
            PeKind::LapPe { .. } => "LapPE",
            PeKind::Dspd => "DSPD",
        }
    }
}

/// Computed PE features for one subgraph.
#[derive(Debug, Clone, PartialEq)]
pub enum PeFeatures {
    /// No features.
    None {
        /// Node count (kept so `num_nodes` is total).
        n: usize,
    },
    /// One categorical index per node (DRNL), plus the table size.
    Categorical {
        /// Per-node class index.
        codes: Vec<usize>,
        /// Number of classes (embedding-table size).
        num_classes: usize,
    },
    /// Two categorical indices per node (DSPD distance pair).
    CategoricalPair {
        /// Distance-to-anchor-0 codes.
        a: Vec<usize>,
        /// Distance-to-anchor-1 codes.
        b: Vec<usize>,
        /// Number of classes per code.
        num_classes: usize,
    },
    /// Dense per-node features (RWSE, LapPE, XC), row-major `N × dim`.
    Dense {
        /// Feature matrix.
        data: Vec<f32>,
        /// Feature width.
        dim: usize,
    },
}

impl PeFeatures {
    /// Number of nodes covered.
    pub fn num_nodes(&self) -> usize {
        match self {
            PeFeatures::None { n } => *n,
            PeFeatures::Categorical { codes, .. } => codes.len(),
            PeFeatures::CategoricalPair { a, .. } => a.len(),
            PeFeatures::Dense { data, dim } => {
                if *dim == 0 {
                    0
                } else {
                    data.len() / dim
                }
            }
        }
    }
}

/// Number of distance classes for DSPD/DRNL embeddings: distances are
/// clamped to [`UNREACHABLE`].
pub const DIST_CLASSES: usize = UNREACHABLE as usize + 1;

/// Computes the requested PE for a subgraph.
pub fn compute_pe(sub: &Subgraph, kind: PeKind) -> PeFeatures {
    match kind {
        PeKind::None => PeFeatures::None { n: sub.num_nodes() },
        PeKind::Xc => PeFeatures::Dense {
            data: sub.xc.clone(),
            dim: XC_DIM,
        },
        PeKind::Dspd => dspd(sub),
        PeKind::Drnl => drnl(sub),
        PeKind::Rwse { k } => PeFeatures::Dense {
            data: rwse(sub, k),
            dim: k,
        },
        PeKind::LapPe { k } => PeFeatures::Dense {
            data: lap_pe(sub, k),
            dim: k,
        },
    }
}

/// DSPD: the distance pair `(d(i, m), d(i, n))`, clamped, stored as two
/// embedding codes per node (the model learns `D0` and `D1` tables and
/// concatenates them with the node-type embedding, eq. (1)).
pub fn dspd(sub: &Subgraph) -> PeFeatures {
    let clamp = |d: u32| (d.min(UNREACHABLE)) as usize;
    PeFeatures::CategoricalPair {
        a: sub.dist_a.iter().map(|&d| clamp(d)).collect(),
        b: sub.dist_b.iter().map(|&d| clamp(d)).collect(),
        num_classes: DIST_CLASSES,
    }
}

/// DRNL: SEAL's closed-form double-radius hash
/// `f(i) = 1 + min(da, db) + (d/2)·(⌈d/2⌉ + (d mod 2) − 1)` with
/// `d = da + db`; anchors get label 1, unreachable nodes label 0.
pub fn drnl(sub: &Subgraph) -> PeFeatures {
    let mut codes = Vec::with_capacity(sub.num_nodes());
    let mut max_code = 1usize;
    for i in 0..sub.num_nodes() {
        let da = sub.dist_a[i];
        let db = sub.dist_b[i];
        let code = if i < sub.num_anchors {
            1
        } else if da >= UNREACHABLE || db >= UNREACHABLE {
            0
        } else {
            let d = (da + db) as usize;
            let half = d / 2;
            1 + (da.min(db) as usize) + half * (half + d % 2 - 1)
        };
        max_code = max_code.max(code);
        codes.push(code);
    }
    // Table size covers the clamped-distance worst case.
    let worst = {
        let d = 2 * (UNREACHABLE as usize - 1);
        let half = d / 2;
        2 + (UNREACHABLE as usize) + half * (half - 1)
    };
    PeFeatures::Categorical {
        codes,
        num_classes: worst.max(max_code + 1),
    }
}

/// RWSE: `diag(P^t)` for `t = 1..=k`, where `P = D⁻¹A` is the random-walk
/// transition matrix, computed with a dense `N × N` power sequence.
pub fn rwse(sub: &Subgraph, k: usize) -> Vec<f32> {
    let n = sub.num_nodes();
    let mut out = vec![0.0f32; n * k];
    if n == 0 || k == 0 {
        return out;
    }
    let mut degree = vec![0.0f32; n];
    for &s in &sub.src {
        degree[s] += 1.0;
    }
    let inv_deg: Vec<f32> = degree
        .iter()
        .map(|&d| if d > 0.0 { 1.0 / d } else { 0.0 })
        .collect();

    // cur = P^t (row-major), starting from identity.
    let mut cur = vec![0.0f32; n * n];
    for i in 0..n {
        cur[i * n + i] = 1.0;
    }
    let mut next = vec![0.0f32; n * n];
    for t in 0..k {
        next.iter_mut().for_each(|v| *v = 0.0);
        // P[d][s] = 1/deg(d) for each arc s->d (arcs are symmetric), so
        // next row d accumulates cur row s scaled by 1/deg(d).
        for (&s, &d) in sub.src.iter().zip(&sub.dst) {
            let w = inv_deg[d];
            let src_row = &cur[s * n..(s + 1) * n];
            let dst_row = &mut next[d * n..(d + 1) * n];
            for (o, &x) in dst_row.iter_mut().zip(src_row) {
                *o += w * x;
            }
        }
        std::mem::swap(&mut cur, &mut next);
        for i in 0..n {
            out[i * k + t] = cur[i * n + i];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit_graph::{EdgeType, GraphBuilder, NodeType};
    use subgraph_sample::{SamplerConfig, SubgraphSampler};

    fn triangle_plus_tail() -> Subgraph {
        // 0-1, 1-2, 2-0 triangle with tail 2-3.
        let mut b = GraphBuilder::new();
        let ids: Vec<u32> = (0..4)
            .map(|i| b.add_node(NodeType::Net, &format!("v{i}")))
            .collect();
        b.add_edge(ids[0], ids[1], EdgeType::NetPin);
        b.add_edge(ids[1], ids[2], EdgeType::NetPin);
        b.add_edge(ids[2], ids[0], EdgeType::NetPin);
        b.add_edge(ids[2], ids[3], EdgeType::NetPin);
        let g = b.build();
        let mut s = SubgraphSampler::new(
            &g,
            SamplerConfig {
                hops: 8,
                max_nodes: 64,
            },
        );
        s.enclosing_subgraph(0, 1)
    }

    #[test]
    fn dspd_pairs_match_bfs() {
        let sub = triangle_plus_tail();
        let pe = compute_pe(&sub, PeKind::Dspd);
        let PeFeatures::CategoricalPair { a, b, num_classes } = pe else {
            panic!("wrong variant")
        };
        assert_eq!(num_classes, DIST_CLASSES);
        assert_eq!(a[0], 0); // anchor m
        assert_eq!(b[0], 1);
        assert_eq!(a[1], 1); // anchor n
        assert_eq!(b[1], 0);
    }

    #[test]
    fn drnl_anchor_labels_are_one() {
        let sub = triangle_plus_tail();
        let PeFeatures::Categorical { codes, num_classes } = compute_pe(&sub, PeKind::Drnl) else {
            panic!("wrong variant")
        };
        assert_eq!(codes[0], 1);
        assert_eq!(codes[1], 1);
        assert!(codes.iter().all(|&c| c < num_classes));
        // Non-anchor labels exceed 1.
        assert!(codes[2..].iter().all(|&c| c != 1));
    }

    #[test]
    fn drnl_is_a_perfect_hash_of_distance_pairs() {
        // Nodes with identical (da, db) get identical labels and distinct
        // pairs get distinct labels (on reachable nodes).
        let sub = triangle_plus_tail();
        let PeFeatures::Categorical { codes, .. } = compute_pe(&sub, PeKind::Drnl) else {
            panic!()
        };
        let mut seen: std::collections::HashMap<(u32, u32), usize> =
            std::collections::HashMap::new();
        for (i, &code) in codes.iter().enumerate().skip(sub.num_anchors) {
            let key = (sub.dist_a[i], sub.dist_b[i]);
            if key.0 >= UNREACHABLE || key.1 >= UNREACHABLE {
                continue;
            }
            if let Some(&prev) = seen.get(&key) {
                assert_eq!(prev, code);
            } else {
                for (&k2, &c2) in &seen {
                    if k2 != key {
                        assert_ne!(c2, code, "collision between {key:?} and {k2:?}");
                    }
                }
                seen.insert(key, code);
            }
        }
    }

    #[test]
    fn rwse_first_step_is_zero_without_self_loops() {
        let sub = triangle_plus_tail();
        let data = rwse(&sub, 3);
        // diag(P^1) = 0 on simple graphs.
        for i in 0..sub.num_nodes() {
            assert_eq!(data[i * 3], 0.0);
        }
        // diag(P^2) > 0 for nodes with any neighbor.
        for i in 0..sub.num_nodes() {
            assert!(data[i * 3 + 1] > 0.0, "node {i}");
        }
    }

    #[test]
    fn rwse_rows_are_return_probabilities() {
        let sub = triangle_plus_tail();
        let data = rwse(&sub, 6);
        assert!(data.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn xc_pe_passes_statistics_through() {
        let sub = triangle_plus_tail();
        let PeFeatures::Dense { data, dim } = compute_pe(&sub, PeKind::Xc) else {
            panic!()
        };
        assert_eq!(dim, XC_DIM);
        assert_eq!(data.len(), sub.num_nodes() * XC_DIM);
    }

    #[test]
    fn none_pe_has_node_count() {
        let sub = triangle_plus_tail();
        assert_eq!(compute_pe(&sub, PeKind::None).num_nodes(), sub.num_nodes());
    }

    #[test]
    fn table2_names() {
        let names: Vec<&str> = PeKind::TABLE2.iter().map(|k| k.paper_name()).collect();
        assert_eq!(names, ["w/o PE", "XC", "DRNL", "RWSE", "LapPE", "DSPD"]);
    }
}
