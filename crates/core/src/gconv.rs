//! Graph convolution on the autodiff tape (Eq. 12 / Eq. 14):
//! `Z = S ⋆_G x_t = A' x_t S`, with k-hop diffusion and support for both
//! static (`[N, N]`) and per-timestamp batched (`[B, N, N]`) adjacencies —
//! the latter is what DAMGN produces.

use enhancenet_autodiff::{Graph, Var};
use enhancenet_tensor::{CsrMatrix, TopkPattern};
use std::cell::RefCell;
use std::sync::Arc;

/// An adjacency bound into the current graph.
#[derive(Debug, Clone)]
pub enum GcSupport {
    /// Time-invariant adjacency `[N, N]`, shared across the batch.
    Static(Var),
    /// Per-sample adjacency `[B, N, N]` (e.g. DAMGN's `A'` which includes
    /// the time-specific `C_t`).
    Dynamic(Var),
    /// Time-invariant sparse adjacency applied via CSR SpMM (`csr_t` is the
    /// transpose, pre-built so the backward pass allocates nothing new).
    Sparse { csr: Arc<CsrMatrix>, csr_t: Arc<CsrMatrix> },
    /// DAMGN's combined adjacency on the sub-quadratic path, split by
    /// linearity: `A'·x = λ_A·(A_s·x) + (vals·x)` where `A_s` is the
    /// constant CSR base support and `vals = λ_B·B ⊕ λ_C·C_t` are the
    /// learned `[B, N, K]` (or `[N, K]`) values on the shared top-k
    /// `pattern`.
    SparseDynamic {
        csr: Arc<CsrMatrix>,
        csr_t: Arc<CsrMatrix>,
        lambda_a: Var,
        vals: Var,
        pattern: Arc<TopkPattern>,
    },
}

impl GcSupport {
    /// One diffusion step `A · x` for `x ∈ [B, N, C]`.
    pub fn apply(&self, g: &mut Graph, x: Var) -> Var {
        match self {
            GcSupport::Static(a) => g.matmul_broadcast_left(*a, x),
            GcSupport::Dynamic(a) => g.bmm(*a, x),
            GcSupport::Sparse { csr, csr_t } => g.spmm_csr(csr.clone(), csr_t.clone(), x),
            GcSupport::SparseDynamic { csr, csr_t, lambda_a, vals, pattern } => {
                let ax = g.spmm_csr(csr.clone(), csr_t.clone(), x);
                let wax = g.mul(*lambda_a, ax);
                let lx = g.spmm_topk(*vals, x, pattern.clone());
                g.add(wax, lx)
            }
        }
    }
}

/// Graph convolution in the DCRNN formulation: concatenate
/// `[x, S₁x, S₁²x, …, S₂x, …]` along the feature axis (identity hop plus
/// `k` hops per support) and apply one linear map `w` of shape
/// `[(1 + |S|·k)·C, C']` (optionally per-entity `[N, (1+|S|·k)·C, C']`).
///
/// `x` is `[B, N, C]`; the result is `[B, N, C']`. This is [`diffuse`]
/// followed by the filter map; callers that apply several filters to one
/// input share the diffusion through a [`DiffusionMemo`].
pub fn graph_conv(
    g: &mut Graph,
    supports: &[GcSupport],
    x: Var,
    w: Var,
    bias: Option<Var>,
    k_hops: usize,
) -> Var {
    let feats = diffuse(g, supports, x, k_hops);
    gc_filter(g, feats, w, bias, supports.len(), k_hops)
}

/// Diffusion half of [`graph_conv`]: the concatenated features
/// `[x, S₁x, S₁²x, …, S₂x, …]` of `x ∈ [B, N, C]`, shape
/// `[B, N, (1 + |S|·k)·C]`.
pub fn diffuse(g: &mut Graph, supports: &[GcSupport], x: Var, k_hops: usize) -> Var {
    assert!(k_hops >= 1, "graph_conv needs at least 1 hop");
    assert_eq!(g.value(x).rank(), 3, "graph_conv expects x of rank 3 [B,N,C]");
    let mut feats = vec![x];
    for s in supports {
        let mut cur = x;
        for _ in 0..k_hops {
            cur = s.apply(g, cur);
            feats.push(cur);
        }
    }
    g.concat(&feats, -1) // [B, N, (1+S·k)·C]
}

/// Filter half of [`graph_conv`]: applies `w` (`[In, C']`, or per-entity
/// `[N, In, C']`) and the optional bias to features produced by
/// [`diffuse`] over `num_supports` supports and `k_hops` hops.
///
/// # Panics
///
/// Panics when `w`'s input dim is not [`gc_input_dim`] of the features.
fn gc_filter(
    g: &mut Graph,
    feats: Var,
    w: Var,
    bias: Option<Var>,
    num_supports: usize,
    k_hops: usize,
) -> Var {
    let expected = g.value(feats).shape()[2];
    let c_in = expected / (1 + num_supports * k_hops);
    let w_shape = g.value(w).shape().to_vec();
    let w_in = match w_shape.len() {
        2 => w_shape[0],
        3 => w_shape[1],
        r => panic!("graph_conv weight must be rank 2 [In, Out] or rank 3 [N, In, Out], got rank {r} ({w_shape:?})"),
    };
    assert_eq!(
        w_in, expected,
        "graph_conv weight input dim mismatch: expected {expected} = (1 + {num_supports} supports × {k_hops} hops) × {c_in} features, got {w_in} from weight shape {w_shape:?}",
    );
    let y = enhancenet_nn::apply_entity_filter(g, feats, w);
    match bias {
        Some(b) => g.add(y, b),
        None => y,
    }
}

/// Supports bound for one diffusion scope (a whole forward over static
/// supports, or one timestep of DAMGN adjacencies) with [`diffuse`]
/// memoised per input `Var`. A GRU cell step filters `x` three times and
/// `h` twice; through the memo each distinct input is diffused once, and
/// its VJP chain runs once on backward. Forward values are those of
/// per-filter [`graph_conv`] calls, bit for bit.
///
/// The memo is valid only on the graph it was filled on.
#[derive(Debug)]
pub struct DiffusionMemo {
    supports: Vec<GcSupport>,
    k_hops: usize,
    feats: RefCell<Vec<(Var, Var)>>,
}

impl DiffusionMemo {
    /// An empty memo over `supports` with `k_hops` hops each.
    pub fn new(supports: Vec<GcSupport>, k_hops: usize) -> Self {
        Self { supports, k_hops, feats: RefCell::new(Vec::new()) }
    }

    /// [`diffuse`] of `x`, recorded on the first call for `x` and reused
    /// afterwards.
    fn features(&self, g: &mut Graph, x: Var) -> Var {
        if let Some(&(_, f)) = self.feats.borrow().iter().find(|&&(v, _)| v == x) {
            return f;
        }
        let f = diffuse(g, &self.supports, x, self.k_hops);
        self.feats.borrow_mut().push((x, f));
        f
    }

    /// [`graph_conv`] of `x` through the memoised features.
    pub fn conv(&self, g: &mut Graph, x: Var, w: Var, bias: Option<Var>) -> Var {
        let feats = self.features(g, x);
        gc_filter(g, feats, w, bias, self.supports.len(), self.k_hops)
    }
}

/// Feature width entering the linear map of [`graph_conv`]:
/// `(1 + num_supports · k_hops) · c_in`.
pub fn gc_input_dim(c_in: usize, num_supports: usize, k_hops: usize) -> usize {
    (1 + num_supports * k_hops) * c_in
}

#[cfg(test)]
mod tests {
    use super::*;
    use enhancenet_tensor::{Tensor, TensorRng};

    #[test]
    fn identity_support_with_identity_weight_is_duplication() {
        // With A = I and w stacking [x, Ax] -> x via [[I],[0]], the output
        // equals x.
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[1, 3, 2]));
        let a = g.constant(Tensor::eye(3));
        // w: [(1+1)*2, 2] selecting the first copy.
        let w = g.constant(Tensor::from_vec(
            vec![
                1.0, 0.0, //
                0.0, 1.0, //
                0.0, 0.0, //
                0.0, 0.0,
            ],
            &[4, 2],
        ));
        let y = graph_conv(&mut g, &[GcSupport::Static(a)], x, w, None, 1);
        assert!(g.value(y).allclose(g.value(x), 1e-5));
    }

    #[test]
    fn neighbor_aggregation_with_chain_graph() {
        // Chain 0 -> 1 -> 2 (row-normalized already). Select the "one hop"
        // block so output(i) = x(neighbor of i).
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_vec(vec![10.0, 20.0, 30.0], &[1, 3, 1]));
        let a = g.constant(Tensor::from_rows(&[
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
            vec![0.0, 0.0, 0.0],
        ]));
        let w = g.constant(Tensor::from_vec(vec![0.0, 1.0], &[2, 1]));
        let y = graph_conv(&mut g, &[GcSupport::Static(a)], x, w, None, 1);
        assert_eq!(g.value(y).data(), &[20.0, 30.0, 0.0]);
    }

    #[test]
    fn two_hops_reach_further() {
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_vec(vec![10.0, 20.0, 30.0], &[1, 3, 1]));
        let a = g.constant(Tensor::from_rows(&[
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
            vec![0.0, 0.0, 0.0],
        ]));
        // Select the 2-hop block (features ordering: [x, Ax, A²x]).
        let w = g.constant(Tensor::from_vec(vec![0.0, 0.0, 1.0], &[3, 1]));
        let y = graph_conv(&mut g, &[GcSupport::Static(a)], x, w, None, 2);
        // A²x: node 0 sees node 2.
        assert_eq!(g.value(y).data(), &[30.0, 0.0, 0.0]);
    }

    #[test]
    fn dynamic_support_differs_per_batch_element() {
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_vec(vec![1.0, 2.0, 1.0, 2.0], &[2, 2, 1]));
        // Batch 0: swap nodes; batch 1: identity.
        let a =
            g.constant(Tensor::from_vec(vec![0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0], &[2, 2, 2]));
        let w = g.constant(Tensor::from_vec(vec![0.0, 1.0], &[2, 1]));
        let y = graph_conv(&mut g, &[GcSupport::Dynamic(a)], x, w, None, 1);
        assert_eq!(g.value(y).data(), &[2.0, 1.0, 1.0, 2.0]);
    }

    #[test]
    fn multiple_supports_concatenate() {
        let mut g = Graph::new();
        let x = g.constant(Tensor::ones(&[1, 2, 1]));
        let a1 = g.constant(Tensor::eye(2));
        let a2 = g.constant((&Tensor::eye(2) * 2.0).clone());
        // Width = (1 + 2 supports * 1 hop) * 1 = 3; sum all blocks.
        let w = g.constant(Tensor::from_vec(vec![1.0, 1.0, 1.0], &[3, 1]));
        let y = graph_conv(&mut g, &[GcSupport::Static(a1), GcSupport::Static(a2)], x, w, None, 1);
        // x + Ix + 2Ix = 4.
        assert!(g.value(y).allclose(&Tensor::full(&[1, 2, 1], 4.0), 1e-5));
    }

    #[test]
    fn per_entity_gc_weight_is_accepted() {
        // Rank-3 weight [N, gc_in, C'] routes through the per-entity path.
        let mut g = Graph::new();
        let mut rng = TensorRng::seed(2);
        let x = g.constant(rng.normal(&[2, 3, 2], 0.0, 1.0));
        let a = g.constant(Tensor::eye(3));
        let w = g.constant(rng.normal(&[3, gc_input_dim(2, 1, 2), 4], 0.0, 0.5));
        let y = graph_conv(&mut g, &[GcSupport::Static(a)], x, w, None, 2);
        assert_eq!(g.value(y).shape(), &[2, 3, 4]);
    }

    #[test]
    fn bias_is_added() {
        let mut g = Graph::new();
        let x = g.constant(Tensor::zeros(&[1, 2, 1]));
        let a = g.constant(Tensor::eye(2));
        let w = g.constant(Tensor::zeros(&[2, 3]));
        let b = g.constant(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]));
        let y = graph_conv(&mut g, &[GcSupport::Static(a)], x, w, Some(b), 1);
        assert_eq!(g.value(y).data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn gc_input_dim_formula() {
        assert_eq!(gc_input_dim(2, 2, 2), 10);
        assert_eq!(gc_input_dim(1, 1, 1), 2);
        assert_eq!(gc_input_dim(64, 2, 2), 320);
    }

    #[test]
    #[should_panic(expected = "weight input dim mismatch: expected 6")]
    fn mismatched_weight_input_dim_panics_with_expected_and_actual() {
        // 1 support × 2 hops × 2 features ⇒ expected (1+2)·2 = 6; pass 4.
        let mut g = Graph::new();
        let mut rng = TensorRng::seed(3);
        let x = g.constant(rng.normal(&[1, 3, 2], 0.0, 1.0));
        let a = g.constant(Tensor::eye(3));
        let w = g.constant(rng.normal(&[4, 2], 0.0, 0.5));
        let _ = graph_conv(&mut g, &[GcSupport::Static(a)], x, w, None, 2);
    }

    #[test]
    #[should_panic(expected = "weight input dim mismatch")]
    fn per_entity_weight_with_wrong_input_dim_panics() {
        let mut g = Graph::new();
        let mut rng = TensorRng::seed(3);
        let x = g.constant(rng.normal(&[1, 3, 2], 0.0, 1.0));
        let a = g.constant(Tensor::eye(3));
        // Rank-3 per-entity weight whose middle dim ignores the support hop.
        let w = g.constant(rng.normal(&[3, 2, 4], 0.0, 0.5));
        let _ = graph_conv(&mut g, &[GcSupport::Static(a)], x, w, None, 1);
    }

    fn csr_pair(t: &Tensor) -> GcSupport {
        let csr = Arc::new(CsrMatrix::from_dense(t));
        let csr_t = Arc::new(csr.transpose());
        GcSupport::Sparse { csr, csr_t }
    }

    #[test]
    fn sparse_support_matches_static_support() {
        let mut g = Graph::new();
        let mut rng = TensorRng::seed(4);
        let a_t = rng.uniform(&[4, 4], 0.0, 1.0);
        let x = g.constant(rng.normal(&[2, 4, 3], 0.0, 1.0));
        let w = g.constant(rng.normal(&[gc_input_dim(3, 1, 2), 5], 0.0, 0.5));
        let a = g.constant(a_t.clone());
        let dense = graph_conv(&mut g, &[GcSupport::Static(a)], x, w, None, 2);
        let sparse = graph_conv(&mut g, &[csr_pair(&a_t)], x, w, None, 2);
        assert!(g.value(sparse).allclose(g.value(dense), 1e-5));
    }

    #[test]
    fn sparse_dynamic_support_matches_dense_dynamic() {
        // λ_A·(A_s·x) + (vals·x) must equal bmm(λ_A·A_s + scatter(vals), x).
        let mut g = Graph::new();
        let mut rng = TensorRng::seed(9);
        let n = 5;
        let a_t = rng.uniform(&[n, n], 0.0, 1.0);
        let scores = rng.normal(&[n, n], 0.0, 1.0);
        let pattern = Arc::new(TopkPattern::from_dense_topk(&scores, 2));
        let vals_t = rng.uniform(&[2, n, 2], 0.1, 1.0);
        let x = g.constant(rng.normal(&[2, n, 3], 0.0, 1.0));
        let w = g.constant(rng.normal(&[gc_input_dim(3, 1, 1), 4], 0.0, 0.5));
        let lam = 0.7f32;
        let dense_a = {
            let scat = pattern.scatter_to_dense(&vals_t);
            let mut d = Tensor::zeros(&[2, n, n]);
            for b in 0..2 {
                for i in 0..n {
                    for j in 0..n {
                        *dmut(&mut d, &[b, i, j]) = lam * a_t.at(&[i, j]) + scat.at(&[b, i, j]);
                    }
                }
            }
            d
        };
        let da = g.constant(dense_a);
        let dense = graph_conv(&mut g, &[GcSupport::Dynamic(da)], x, w, None, 1);
        let csr = Arc::new(CsrMatrix::from_dense(&a_t));
        let csr_t = Arc::new(csr.transpose());
        let lambda_a = g.constant(Tensor::scalar(lam));
        let vals = g.constant(vals_t);
        let support = GcSupport::SparseDynamic { csr, csr_t, lambda_a, vals, pattern };
        let sparse = graph_conv(&mut g, &[support], x, w, None, 1);
        assert!(g.value(sparse).allclose(g.value(dense), 1e-5));
    }

    /// Mutable scalar access helper for test fixtures.
    fn dmut<'a>(t: &'a mut Tensor, idx: &[usize]) -> &'a mut f32 {
        let shape = t.shape().to_vec();
        let mut flat = 0;
        for (d, &i) in idx.iter().enumerate() {
            flat = flat * shape[d] + i;
        }
        &mut t.data_mut()[flat]
    }

    #[test]
    fn gradients_flow_through_dynamic_adjacency() {
        let mut g = Graph::new();
        let mut rng = TensorRng::seed(5);
        let x = g.constant(rng.normal(&[1, 3, 2], 0.0, 1.0));
        let a_t = rng.normal(&[1, 3, 3], 0.0, 1.0);
        let a = g.constant(a_t);
        let w = g.constant(rng.normal(&[4, 2], 0.0, 0.5));
        let y = graph_conv(&mut g, &[GcSupport::Dynamic(a)], x, w, None, 1);
        let sq = g.square(y);
        let loss = g.sum_all(sq);
        g.backward(loss);
        assert!(g.grad(a).unwrap().norm() > 0.0, "no grad into the adjacency");
    }
}
