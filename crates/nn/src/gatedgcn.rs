//! Residual Gated Graph ConvNet (GatedGCN, Bresson & Laurent 2017) with edge
//! features, as used inside GraphGPS and this paper's MPNN branch.
//!
//! Update rule (for an edge `j → i` with feature `e_ij`):
//!
//! ```text
//! ê_ij = C·e_ij + D·x_i + E·x_j
//! η_ij = σ(ê_ij)
//! x̂_i  = A·x_i + Σ_j η_ij ⊙ (B·x_j)  /  (Σ_j η_ij + ε)
//! x'   = x + ReLU(BN(x̂))     e' = e + ReLU(BN(ê))
//! ```
//!
//! Edges must be provided in *directed* form; undirected graphs list each
//! edge twice (both directions), which is what
//! [`circuit-graph`](https://crates.io/crates/circuit-graph)'s CSR export does.

use std::sync::Arc;

use rand::rngs::StdRng;

use crate::infer::{add_div_inplace, assemble_edge_hat_typed, gated_scatter};
use crate::layers::{BatchNorm1d, Linear};
use crate::params::ParamStore;
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

/// Directed edge index shared by all GatedGCN layers of a model.
///
/// `src[k] → dst[k]` is the k-th message; both arrays index node rows.
#[derive(Debug, Clone)]
pub struct EdgeIndex {
    /// Source node of each directed edge.
    pub src: Arc<Vec<usize>>,
    /// Destination node of each directed edge.
    pub dst: Arc<Vec<usize>>,
}

impl EdgeIndex {
    /// Creates an edge index from parallel source/destination arrays.
    ///
    /// # Panics
    ///
    /// Panics if the arrays differ in length.
    pub fn new(src: Vec<usize>, dst: Vec<usize>) -> Self {
        assert_eq!(src.len(), dst.len(), "edge index arrays must be parallel");
        EdgeIndex {
            src: Arc::new(src),
            dst: Arc::new(dst),
        }
    }

    /// Number of directed edges.
    pub fn len(&self) -> usize {
        self.src.len()
    }

    /// Whether there are no edges.
    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }

    /// Largest node index referenced by any edge, or `None` for an empty
    /// index. Lets callers validate the index against their node count
    /// before gather/scatter panics deep inside a kernel.
    pub fn max_node(&self) -> Option<usize> {
        self.src.iter().chain(self.dst.iter()).copied().max()
    }
}

/// One GatedGCN layer with residual connections and batch norm on both the
/// node and the edge stream.
#[derive(Debug, Clone)]
pub struct GatedGcn {
    a: Linear,
    b: Linear,
    c: Linear,
    d: Linear,
    e: Linear,
    bn_x: BatchNorm1d,
    bn_e: BatchNorm1d,
    dropout: f32,
    eps: f32,
}

impl GatedGcn {
    /// Registers a GatedGCN layer over node/edge width `dim`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        dropout: f32,
        rng: &mut StdRng,
    ) -> Self {
        GatedGcn {
            a: Linear::new(store, &format!("{name}.A"), dim, dim, true, rng),
            b: Linear::new(store, &format!("{name}.B"), dim, dim, true, rng),
            c: Linear::new(store, &format!("{name}.C"), dim, dim, true, rng),
            d: Linear::new(store, &format!("{name}.D"), dim, dim, true, rng),
            e: Linear::new(store, &format!("{name}.E"), dim, dim, true, rng),
            bn_x: BatchNorm1d::new(store, &format!("{name}.bn_x"), dim),
            bn_e: BatchNorm1d::new(store, &format!("{name}.bn_e"), dim),
            dropout,
            eps: 1e-6,
        }
    }

    /// Applies the layer.
    ///
    /// * `x` — `N × d` node features
    /// * `e` — `E × d` directed-edge features (one row per directed edge)
    /// * `index` — directed edge index with `E` entries
    ///
    /// Returns `(x', e')`.
    pub fn forward(&self, tape: &mut Tape, x: Var, e: Var, index: &EdgeIndex) -> (Var, Var) {
        self.forward_opts(tape, x, e, index, true)
    }

    /// [`GatedGcn::forward`] on three fused tape ops: the edge assembly
    /// [`Tape::edge_hat`], the gated aggregation
    /// [`Tape::gated_aggregate`] and, per stream,
    /// [`BatchNorm1d::forward_relu_dropout_add`]. Outputs, gradients,
    /// running statistics and dropout draws are bitwise-equal to the
    /// unfused op chain.
    ///
    /// `need_edge_out = false` skips the edge stream's output (returning
    /// an empty `0 × d` var); use it on the last layer, whose edge
    /// output nobody reads. The edge batch norm's running statistics
    /// are still updated and the dropout RNG still advances, so a
    /// training step stays bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `e` does not have one row per edge or the index
    /// references a node outside `x`.
    pub fn forward_opts(
        &self,
        tape: &mut Tape,
        x: Var,
        e: Var,
        index: &EdgeIndex,
        need_edge_out: bool,
    ) -> (Var, Var) {
        let (n, d) = tape.shape(x);
        let ne = tape.shape(e).0;
        assert_eq!(ne, index.len(), "edge feature count must match edge index");
        if let Some(max) = index.max_node() {
            assert!(
                max < n,
                "edge index references node {max} but only {n} nodes exist"
            );
        }

        // Edge update ê = C e + D x_dst + E x_src; `ce` is consumed.
        let ce = self.c.forward(tape, e);
        let dx = self.d.forward(tape, x);
        let ex = self.e.forward(tape, x);
        let e_hat = tape.edge_hat(ce, dx, index.dst.clone(), ex, index.src.clone());

        // Node update: x̂_i = A x_i + Σ η ⊙ (B x_src) / (Σ η + ε).
        let bx = self.b.forward(tape, x);
        let agg =
            tape.gated_aggregate(e_hat, bx, index.src.clone(), index.dst.clone(), n, self.eps);
        let ax = self.a.forward(tape, x);
        let x_hat = tape.add_inplace(ax, agg);

        // Residual + BN + ReLU (+ dropout) on both streams, node stream
        // first (the dropout RNG order). `x`/`e` stay intact for the
        // Linear backward.
        let x_out = self
            .bn_x
            .forward_relu_dropout_add(tape, x_hat, x, self.dropout);
        let e_out = if need_edge_out {
            self.bn_e
                .forward_relu_dropout_add(tape, e_hat, e, self.dropout)
        } else {
            self.bn_e.skip_relu_dropout_add(tape, e_hat, self.dropout);
            tape.input(Tensor::zeros(0, d))
        };
        (x_out, e_out)
    }

    /// Tape-free forward (eval mode: dropout is the identity, batch norm
    /// uses running statistics). Mirrors [`GatedGcn::forward`] op for op,
    /// so outputs are bitwise-equal to the taped eval-mode pass.
    ///
    /// # Panics
    ///
    /// Same contracts as [`GatedGcn::forward`].
    pub fn infer(
        &self,
        params: &ParamStore,
        x: &Tensor,
        e: &Tensor,
        index: &EdgeIndex,
    ) -> (Tensor, Tensor) {
        self.infer_opts(params, x, e, index, None, true)
    }

    /// [`GatedGcn::infer`] with the inference-engine fast paths:
    ///
    /// * `typed_edges` — when `e` is a row gather of an embedding table
    ///   (the first GPS layer's edge features), pass `(codes, table)` and
    ///   the `C·e` GEMM collapses to one GEMM over the table's few rows
    ///   plus a gather. Per-row results are unchanged (GEMM rows are
    ///   independent), so this is bitwise-equal.
    /// * `need_edge_out = false` — skips the edge stream's BN/ReLU/
    ///   residual output sweep and returns an empty edge tensor; use on
    ///   the last layer, whose edge output nobody reads.
    ///
    /// # Panics
    ///
    /// Same contracts as [`GatedGcn::forward`].
    pub fn infer_opts(
        &self,
        params: &ParamStore,
        x: &Tensor,
        e: &Tensor,
        index: &EdgeIndex,
        typed_edges: Option<(&[usize], &Tensor)>,
        need_edge_out: bool,
    ) -> (Tensor, Tensor) {
        let n = x.rows();
        assert_eq!(
            e.rows(),
            index.len(),
            "edge feature count must match edge index"
        );
        if let Some(max) = index.max_node() {
            assert!(
                max < n,
                "edge index references node {max} but only {n} nodes exist"
            );
        }

        // Edge update ê = C e + D x_dst + E x_src, assembled in one fused
        // sweep over the edge stream.
        let dx = self.d.infer(params, x);
        let ex = self.e.infer(params, x);
        let e_hat = match typed_edges {
            Some((codes, table)) => {
                debug_assert_eq!(codes.len(), e.rows());
                // C·e collapses to the table's few rows; the per-edge rows
                // are read straight out of the projected table during the
                // single assembly pass.
                let ce_table = self.c.infer(params, table);
                let e_hat =
                    assemble_edge_hat_typed(&ce_table, codes, &dx, &index.dst, &ex, &index.src);
                ce_table.recycle();
                e_hat
            }
            None => self
                .c
                .infer_add_gathered2(params, e, &dx, &index.dst, &ex, &index.src),
        };
        dx.recycle();
        ex.recycle();

        // Gates + node aggregation, fused: η = σ(ê) is computed per edge
        // and scattered into the numerator/denominator in edge order.
        let bx = self.b.infer(params, x);
        let (num, den) = gated_scatter(&e_hat, &bx, &index.src, &index.dst, n);
        bx.recycle();
        let x_hat = add_div_inplace(self.a.infer(params, x), &num, &den, self.eps);
        num.recycle();
        den.recycle();

        // Residual + BN + ReLU on both streams (eval: no dropout), one
        // fused output sweep per stream.
        let x_out = self.bn_x.infer_relu_add(params, &x_hat, x);
        let e_out = if need_edge_out {
            self.bn_e.infer_relu_add(params, &e_hat, e)
        } else {
            Tensor::zeros(0, e.cols())
        };
        x_hat.recycle();
        e_hat.recycle();
        (x_out, e_out)
    }
}

#[cfg(test)]
impl GatedGcn {
    /// The unfused op chain [`GatedGcn::forward`] replaced: gathers,
    /// adds, sigmoid, multiply, scatter-adds, divide, then batch norm,
    /// in-place ReLU, dropout and residual add per stream. The bitwise
    /// reference of the fused ops.
    fn forward_unfused(&self, tape: &mut Tape, x: Var, e: Var, index: &EdgeIndex) -> (Var, Var) {
        let n = tape.shape(x).0;
        let ce = self.c.forward(tape, e);
        let dx = self.d.forward(tape, x);
        let ex = self.e.forward(tape, x);
        let dx_dst = tape.gather(dx, index.dst.clone());
        let ex_src = tape.gather(ex, index.src.clone());
        let tmp = tape.add_inplace(ce, dx_dst);
        let e_hat = tape.add_inplace(tmp, ex_src);
        let eta = tape.sigmoid(e_hat);
        let bx = self.b.forward(tape, x);
        let bx_src = tape.gather(bx, index.src.clone());
        let weighted = tape.mul(eta, bx_src);
        let num = tape.scatter_add(weighted, index.dst.clone(), n);
        let den = tape.scatter_add(eta, index.dst.clone(), n);
        let den = tape.add_scalar_inplace(den, self.eps);
        let agg = tape.div(num, den);
        let ax = self.a.forward(tape, x);
        let x_hat = tape.add_inplace(ax, agg);
        let stream = |tape: &mut Tape, bn: &BatchNorm1d, h: Var, res: Var| {
            let b = bn.forward(tape, h);
            let r = tape.relu_inplace(b);
            let dr = tape.dropout(r, self.dropout);
            if dr == r {
                tape.add(dr, res)
            } else {
                tape.add_inplace(dr, res)
            }
        };
        let x_out = stream(tape, &self.bn_x, x_hat, x);
        let e_out = stream(tape, &self.bn_e, e_hat, e);
        (x_out, e_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::GradStore;
    use crate::tensor::Tensor;
    use rand::{Rng, SeedableRng};

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Everything one train step of a layer leaves behind: the outputs,
    /// the loss, every gradient (parameters and the `x`/`e` inputs,
    /// registered as parameters so theirs are kept), the running-stat
    /// updates and the dropout RNG's next draws.
    #[derive(Debug, PartialEq)]
    struct StepBits {
        x_out: Vec<u32>,
        e_out: Option<Vec<u32>>,
        loss: u32,
        grads: Vec<(String, Option<Vec<u32>>)>,
        updates: Vec<(Vec<u32>, u32)>,
        rng_probe: Vec<u32>,
    }

    #[derive(Clone, Copy, PartialEq)]
    enum Path {
        Unfused,
        Fused,
        /// Fused, skipping the edge output.
        FusedNoEdgeOut,
    }

    fn step(
        path: Path,
        idx: &EdgeIndex,
        n: usize,
        d: usize,
        dropout: f32,
        training: bool,
    ) -> StepBits {
        let mut rng = StdRng::seed_from_u64(17);
        let mut store = ParamStore::new();
        let layer = GatedGcn::new(&mut store, "g", d, dropout, &mut rng);
        let wave = |len: usize, f: f32| -> Vec<f32> {
            (0..len).map(|i| (i as f32 * f).sin() * 1.3).collect()
        };
        let ne = idx.len();
        let xp = store.register("x", Tensor::from_vec(n, d, wave(n * d, 0.37)), true);
        let ep = store.register("e", Tensor::from_vec(ne, d, wave(ne * d, 0.23)), true);
        let mut grads = GradStore::new(&store);
        let mut tape = Tape::new(&store, training, 5);
        tape.defer_buffer_updates();
        let x = tape.param(xp);
        let e = tape.param(ep);
        let (x_out, e_out) = match path {
            Path::Unfused => layer.forward_unfused(&mut tape, x, e, idx),
            Path::Fused => layer.forward(&mut tape, x, e, idx),
            Path::FusedNoEdgeOut => layer.forward_opts(&mut tape, x, e, idx, false),
        };
        let mut loss = tape.mse_loss(x_out, &wave(n * d, 0.11));
        let edge_loss = path != Path::FusedNoEdgeOut;
        if edge_loss {
            let le = tape.mse_loss(e_out, &wave(ne * d, 0.05));
            loss = tape.add(loss, le);
        } else {
            assert_eq!(tape.shape(e_out), (0, d));
        }
        tape.backward(loss, &mut grads);
        let probe = tape.input(Tensor::ones(1, 7));
        let probe = tape.dropout(probe, 0.5);
        StepBits {
            x_out: bits(tape.value(x_out)),
            e_out: edge_loss.then(|| bits(tape.value(e_out))),
            loss: tape.value(loss).item().to_bits(),
            grads: store
                .iter()
                .map(|(id, name, _)| (name.to_string(), grads.get(id).map(bits)))
                .collect(),
            updates: tape
                .take_buffer_updates()
                .iter()
                .map(|u| (bits(&u.stat), u.momentum.to_bits()))
                .collect(),
            rng_probe: bits(tape.value(probe)),
        }
    }

    fn star_graph(leaves: usize) -> EdgeIndex {
        let (mut src, mut dst) = (Vec::new(), Vec::new());
        for leaf in 1..=leaves {
            src.extend([0, leaf]);
            dst.extend([leaf, 0]);
        }
        EdgeIndex::new(src, dst)
    }

    /// Graphs covering a hub (star: one node with many incoming edges,
    /// so scatter order matters), a path, two components, an isolated
    /// node and no edges at all, each with its node count.
    fn reference_graphs() -> Vec<(&'static str, EdgeIndex, usize)> {
        let disconnected = EdgeIndex::new(vec![0, 1, 3, 4, 5, 4], vec![1, 0, 4, 3, 4, 5]);
        vec![
            ("path", path_graph(6), 6),
            ("star", star_graph(7), 8),
            ("disconnected", disconnected, 6),
            ("isolated node", EdgeIndex::new(vec![0], vec![1]), 3),
            ("no edges", EdgeIndex::new(vec![], vec![]), 3),
        ]
    }

    #[test]
    fn fused_forward_is_bitwise_equal_to_the_unfused_chain() {
        for (name, idx, n) in reference_graphs() {
            for d in [8, 19, 32] {
                for dropout in [0.0, 0.1] {
                    for training in [true, false] {
                        let want = step(Path::Unfused, &idx, n, d, dropout, training);
                        let got = step(Path::Fused, &idx, n, d, dropout, training);
                        assert!(
                            want == got,
                            "{name}, d {d}, dropout {dropout}, training {training}:\n\
                             unfused {want:?}\nfused {got:?}"
                        );
                    }
                }
            }
        }
    }

    /// Skipping the edge output changes nothing a step keeps: the node
    /// output, every gradient, the edge batch norm's running-stat
    /// update and the dropout RNG's position all match the full chain
    /// whose edge output goes unread.
    #[test]
    fn skipped_edge_output_keeps_the_step_bitwise_equal() {
        for (name, idx, n) in reference_graphs() {
            for d in [8, 19, 32] {
                for dropout in [0.0, 0.1] {
                    for training in [true, false] {
                        let reference = step(Path::Fused, &idx, n, d, dropout, training);
                        let skipped = step(Path::FusedNoEdgeOut, &idx, n, d, dropout, training);
                        let ctx = format!("{name}, d {d}, dropout {dropout}, training {training}");
                        assert_eq!(reference.x_out, skipped.x_out, "{ctx}: x_out");
                        assert_eq!(reference.updates, skipped.updates, "{ctx}: updates");
                        assert_eq!(reference.rng_probe, skipped.rng_probe, "{ctx}: rng");
                        assert_eq!(skipped.e_out, None);
                    }
                }
            }
        }
    }

    #[test]
    fn skipped_edge_output_matches_an_unread_unfused_edge_stream() {
        // The gradient half of the skip contract: with the edge output
        // unread, both paths must differentiate only the node loss.
        let (idx, n, d) = (star_graph(7), 8, 32);
        let run = |fused: bool| {
            let mut rng = StdRng::seed_from_u64(3);
            let mut store = ParamStore::new();
            let layer = GatedGcn::new(&mut store, "g", d, 0.1, &mut rng);
            let xv: Vec<f32> = (0..n * d).map(|i| (i as f32 * 0.3).cos()).collect();
            let ev: Vec<f32> = (0..idx.len() * d).map(|i| (i as f32 * 0.7).sin()).collect();
            let xp = store.register("x", Tensor::from_vec(n, d, xv), true);
            let ep = store.register("e", Tensor::from_vec(idx.len(), d, ev), true);
            let mut grads = GradStore::new(&store);
            let mut tape = Tape::new(&store, true, 9);
            let (x, e) = (tape.param(xp), tape.param(ep));
            let (x_out, _) = if fused {
                layer.forward_opts(&mut tape, x, e, &idx, false)
            } else {
                layer.forward_unfused(&mut tape, x, e, &idx)
            };
            let loss = tape.mse_loss(x_out, &vec![0.25; n * d]);
            tape.backward(loss, &mut grads);
            store
                .iter()
                .map(|(id, _, _)| grads.get(id).map(bits))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    fn path_graph(n: usize) -> EdgeIndex {
        // Undirected path 0-1-2-...-n stored as both directions. Iterating
        // from 1 avoids the `0..n - 1` underflow when `n == 0`.
        let mut src = Vec::new();
        let mut dst = Vec::new();
        for i in 1..n {
            src.push(i - 1);
            dst.push(i);
            src.push(i);
            dst.push(i - 1);
        }
        EdgeIndex::new(src, dst)
    }

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let layer = GatedGcn::new(&mut store, "g", 8, 0.0, &mut rng);
        let idx = path_graph(5);
        let mut tape = Tape::new(&store, false, 0);
        let x = tape.input(Tensor::ones(5, 8));
        let e = tape.input(Tensor::ones(idx.len(), 8));
        let (x2, e2) = layer.forward(&mut tape, x, e, &idx);
        assert_eq!(tape.shape(x2), (5, 8));
        assert_eq!(tape.shape(e2), (idx.len(), 8));
    }

    #[test]
    fn gradients_reach_all_five_linears() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let layer = GatedGcn::new(&mut store, "g", 4, 0.0, &mut rng);
        let idx = path_graph(4);
        let mut tape = Tape::new(&store, true, 0);
        let xv: Vec<f32> = (0..16).map(|i| (i as f32 * 0.37).sin()).collect();
        let ev: Vec<f32> = (0..idx.len() * 4)
            .map(|i| (i as f32 * 0.11).cos())
            .collect();
        let x = tape.input(Tensor::from_vec(4, 4, xv));
        let e = tape.input(Tensor::from_vec(idx.len(), 4, ev));
        let (x2, _e2) = layer.forward(&mut tape, x, e, &idx);
        let loss = tape.mse_loss(x2, &[0.0; 16]);
        let mut grads = GradStore::new(&store);
        tape.backward(loss, &mut grads);
        for tag in ["g.A", "g.B", "g.C", "g.D", "g.E"] {
            let found = store
                .iter()
                .any(|(id, name, _)| name.starts_with(tag) && grads.get(id).is_some());
            assert!(found, "no gradient reached {tag}");
        }
    }

    #[test]
    fn empty_edge_index_is_guarded() {
        // path_graph(1) has a single node and no edges — the former
        // `0..n - 1` underflow case.
        let idx = path_graph(1);
        assert!(idx.is_empty());
        assert_eq!(idx.max_node(), None);

        let mut rng = StdRng::seed_from_u64(9);
        let mut store = ParamStore::new();
        let layer = GatedGcn::new(&mut store, "g", 4, 0.0, &mut rng);
        let mut tape = Tape::new(&store, false, 0);
        let x = tape.input(Tensor::ones(3, 4));
        let e = tape.input(Tensor::zeros(0, 4));
        let (x2, e2) = layer.forward(&mut tape, x, e, &idx);
        assert_eq!(tape.shape(x2), (3, 4));
        assert_eq!(tape.shape(e2), (0, 4));
        assert!(tape.value(x2).as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "edge index references node")]
    fn out_of_range_edge_index_panics_clearly() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut store = ParamStore::new();
        let layer = GatedGcn::new(&mut store, "g", 4, 0.0, &mut rng);
        let idx = EdgeIndex::new(vec![0], vec![5]);
        let mut tape = Tape::new(&store, false, 0);
        let x = tape.input(Tensor::ones(3, 4));
        let e = tape.input(Tensor::ones(1, 4));
        let _ = layer.forward(&mut tape, x, e, &idx);
    }

    #[test]
    fn isolated_node_keeps_residual_value() {
        // A node with no incoming edges must still produce finite output
        // (the ε in the denominator guards the 0/0 case).
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let layer = GatedGcn::new(&mut store, "g", 4, 0.0, &mut rng);
        // Single directed edge 0 → 1 leaves node 2 isolated.
        let idx = EdgeIndex::new(vec![0], vec![1]);
        let mut tape = Tape::new(&store, false, 0);
        let x = tape.input(Tensor::ones(3, 4));
        let e = tape.input(Tensor::ones(1, 4));
        let (x2, _) = layer.forward(&mut tape, x, e, &idx);
        assert!(tape.value(x2).as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn deeper_stack_stays_finite() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let layers: Vec<GatedGcn> = (0..4)
            .map(|i| GatedGcn::new(&mut store, &format!("l{i}"), 8, 0.0, &mut rng))
            .collect();
        let idx = path_graph(6);
        let mut tape = Tape::new(&store, true, 0);
        let mut rng2 = StdRng::seed_from_u64(4);
        let xv: Vec<f32> = (0..48).map(|_| rng2.gen_range(-1.0..1.0)).collect();
        let mut x = tape.input(Tensor::from_vec(6, 8, xv));
        let mut e = tape.input(Tensor::ones(idx.len(), 8));
        for layer in &layers {
            let (nx, ne) = layer.forward(&mut tape, x, e, &idx);
            x = nx;
            e = ne;
        }
        assert!(tape.value(x).as_slice().iter().all(|v| v.is_finite()));
    }
}
