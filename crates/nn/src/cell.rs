//! Recurrent-cell gate algebra, written once and reused by every model
//! flavour.
//!
//! The paper's Eq. 3–6 define a GRU in terms of a *fundamental operation* —
//! multiplying an input (or hidden state) by a filter. The host models
//! differ only in what that operation is:
//!
//! * RNN — shared matmul,
//! * D-RNN — per-entity matmul with DFGN-generated filters (Eq. 10),
//! * GRNN — graph convolution `W ⋆_G x` (Section V-C1),
//! * DA-GRNN — graph convolution over the DAMGN adjacency (Eq. 14).
//!
//! [`gru_step`] and [`lstm_step`] therefore take closures for the x-side and
//! h-side transforms, indexed by which [`Gate`] is being computed.

use enhancenet_autodiff::{Graph, Var};

/// Which gate a transform is computing; appliers use this to select the
/// corresponding filter (e.g. `W_r` vs `W_u` vs `W_h`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Reset gate `r_t` (Eq. 3).
    Reset,
    /// Update gate `u_t` (Eq. 4).
    Update,
    /// Candidate state `ĥ_t` (Eq. 5) — also the LSTM cell candidate.
    Candidate,
    /// Output gate (LSTM only).
    Output,
}

/// One GRU step (Eq. 3–6):
///
/// ```text
/// r_t = σ(Wr·x_t + Ur·h_{t-1} [+ br])
/// u_t = σ(Wu·x_t + Uu·h_{t-1} [+ bu])
/// ĥ_t = tanh(Wh·x_t + Uh·(r_t ⊙ h_{t-1}) [+ bh])
/// h_t = u_t ⊙ h_{t-1} + (1 − u_t) ⊙ ĥ_t
/// ```
///
/// `apply_x(g, x, gate)` must return the x-side transform for `gate`, and
/// `apply_h` the h-side transform. `bias(g, gate)` may return `None` for an
/// unbiased cell. All transforms must produce the hidden shape.
///
/// `apply_x` is called three times (reset, update, candidate), each time
/// with the same `x`; `apply_h` is called twice with `h_prev` (reset,
/// update) and once with `r_t ⊙ h_{t-1}` (candidate). Appliers may
/// therefore memoise per-input work by `Var` — the graph-convolutional
/// hosts diffuse each distinct input once and apply only the per-gate
/// filter per call.
pub fn gru_step(
    g: &mut Graph,
    x: Var,
    h_prev: Var,
    mut apply_x: impl FnMut(&mut Graph, Var, Gate) -> Var,
    mut apply_h: impl FnMut(&mut Graph, Var, Gate) -> Var,
    mut bias: impl FnMut(&mut Graph, Gate) -> Option<Var>,
) -> Var {
    let mut pre_gate = |g: &mut Graph, xin: Var, hin: Var, gate: Gate| {
        let xa = apply_x(g, xin, gate);
        let hb = apply_h(g, hin, gate);
        let mut pre = g.add(xa, hb);
        if let Some(b) = bias(g, gate) {
            pre = g.add(pre, b);
        }
        pre
    };

    let r_pre = pre_gate(g, x, h_prev, Gate::Reset);
    let r = g.sigmoid(r_pre);
    let u_pre = pre_gate(g, x, h_prev, Gate::Update);
    let u = g.sigmoid(u_pre);

    let rh = g.mul(r, h_prev);
    let c_pre = pre_gate(g, x, rh, Gate::Candidate);
    let c = g.tanh(c_pre);

    // h = u ⊙ h_prev + (1 − u) ⊙ c  =  c + u ⊙ (h_prev − c)
    let diff = g.sub(h_prev, c);
    let scaled = g.mul(u, diff);
    g.add(c, scaled)
}

/// One LSTM step (Hochreiter & Schmidhuber, the paper's LSTM baseline):
///
/// ```text
/// i = σ(Wi·x + Ui·h [+ bi])        (Gate::Update slot)
/// f = σ(Wf·x + Uf·h [+ bf])        (Gate::Reset slot)
/// o = σ(Wo·x + Uo·h [+ bo])        (Gate::Output slot)
/// ĉ = tanh(Wc·x + Uc·h [+ bc])     (Gate::Candidate slot)
/// c' = f ⊙ c + i ⊙ ĉ
/// h' = o ⊙ tanh(c')
/// ```
///
/// Returns `(h', c')`.
pub fn lstm_step(
    g: &mut Graph,
    x: Var,
    h_prev: Var,
    c_prev: Var,
    mut apply_x: impl FnMut(&mut Graph, Var, Gate) -> Var,
    mut apply_h: impl FnMut(&mut Graph, Var, Gate) -> Var,
    mut bias: impl FnMut(&mut Graph, Gate) -> Option<Var>,
) -> (Var, Var) {
    let mut pre_gate = |g: &mut Graph, gate: Gate| {
        let xa = apply_x(g, x, gate);
        let hb = apply_h(g, h_prev, gate);
        let mut pre = g.add(xa, hb);
        if let Some(b) = bias(g, gate) {
            pre = g.add(pre, b);
        }
        pre
    };
    let f_pre = pre_gate(g, Gate::Reset);
    let i_pre = pre_gate(g, Gate::Update);
    let o_pre = pre_gate(g, Gate::Output);
    let c_pre = pre_gate(g, Gate::Candidate);

    let f = g.sigmoid(f_pre);
    let i = g.sigmoid(i_pre);
    let o = g.sigmoid(o_pre);
    let chat = g.tanh(c_pre);

    let keep = g.mul(f, c_prev);
    let write = g.mul(i, chat);
    let c_new = g.add(keep, write);
    let ct = g.tanh(c_new);
    let h_new = g.mul(o, ct);
    (h_new, c_new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use enhancenet_autodiff::Graph;
    use enhancenet_tensor::Tensor;

    /// Reference GRU computed with plain tensor math for a 1-dim state,
    /// scalar weights wx (x side) and uh (h side), no bias.
    fn reference_gru(x: f32, h: f32, wx: f32, uh: f32) -> f32 {
        let sig = |v: f32| 1.0 / (1.0 + (-v).exp());
        let r = sig(wx * x + uh * h);
        let u = sig(wx * x + uh * h);
        let c = (wx * x + uh * (r * h)).tanh();
        u * h + (1.0 - u) * c
    }

    #[test]
    fn gru_step_matches_reference_scalar() {
        let (x_val, h_val, wx, uh) = (0.7f32, -0.3f32, 0.5f32, 1.25f32);
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_vec(vec![x_val], &[1]));
        let h = g.constant(Tensor::from_vec(vec![h_val], &[1]));
        let out = gru_step(
            &mut g,
            x,
            h,
            |g, v, _| g.mul_scalar(v, wx),
            |g, v, _| g.mul_scalar(v, uh),
            |_, _| None,
        );
        let expected = reference_gru(x_val, h_val, wx, uh);
        assert!((g.value(out).item() - expected).abs() < 1e-5);
    }

    #[test]
    fn gru_zero_update_gate_keeps_candidate() {
        // With apply_* returning strongly negative update-gate pre-activation
        // the gate closes and h ≈ candidate.
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_vec(vec![2.0], &[1]));
        let h = g.constant(Tensor::from_vec(vec![5.0], &[1]));
        let out = gru_step(
            &mut g,
            x,
            h,
            |g, v, gate| match gate {
                Gate::Update => g.mul_scalar(v, -100.0), // u → 0
                _ => g.mul_scalar(v, 0.0),
            },
            |g, v, _| g.mul_scalar(v, 0.0),
            |_, _| None,
        );
        // candidate = tanh(0) = 0, so h_new ≈ 0 regardless of h_prev = 5.
        assert!(g.value(out).item().abs() < 1e-4);
    }

    #[test]
    fn gru_full_update_gate_keeps_history() {
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_vec(vec![2.0], &[1]));
        let h = g.constant(Tensor::from_vec(vec![5.0], &[1]));
        let out = gru_step(
            &mut g,
            x,
            h,
            |g, v, gate| match gate {
                Gate::Update => g.mul_scalar(v, 100.0), // u → 1
                _ => g.mul_scalar(v, 0.0),
            },
            |g, v, _| g.mul_scalar(v, 0.0),
            |_, _| None,
        );
        assert!((g.value(out).item() - 5.0).abs() < 1e-4);
    }

    #[test]
    fn gru_output_bounded_by_tanh_and_history() {
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_vec(vec![10.0, -10.0], &[1, 2]));
        let h = g.constant(Tensor::from_vec(vec![0.5, -0.5], &[1, 2]));
        let out = gru_step(
            &mut g,
            x,
            h,
            |g, v, _| g.mul_scalar(v, 1.0),
            |g, v, _| g.mul_scalar(v, 1.0),
            |_, _| None,
        );
        // New state is a convex combination of h_prev (|.|<=0.5) and tanh
        // candidate (|.|<=1), so bounded by 1.
        assert!(g.value(out).data().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn lstm_step_gates_behave() {
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_vec(vec![1.0], &[1]));
        let h = g.constant(Tensor::from_vec(vec![0.2], &[1]));
        let c = g.constant(Tensor::from_vec(vec![0.8], &[1]));
        // Forget gate forced open, input gate forced shut: c' = c.
        let (h2, c2) = lstm_step(
            &mut g,
            x,
            h,
            c,
            |g, v, gate| match gate {
                Gate::Reset => g.mul_scalar(v, 100.0),   // f → 1
                Gate::Update => g.mul_scalar(v, -100.0), // i → 0
                Gate::Output => g.mul_scalar(v, 100.0),  // o → 1
                Gate::Candidate => g.mul_scalar(v, 0.0),
            },
            |g, v, _| g.mul_scalar(v, 0.0),
            |_, _| None,
        );
        assert!((g.value(c2).item() - 0.8).abs() < 1e-4);
        assert!((g.value(h2).item() - 0.8f32.tanh()).abs() < 1e-4);
    }

    #[test]
    fn gradients_flow_through_gru_chain() {
        // Unroll 3 steps and confirm the input at t=0 still receives grad.
        let mut g = Graph::new();
        let x0 = g.constant(Tensor::from_vec(vec![0.5], &[1]));
        let mut h = g.constant(Tensor::zeros(&[1]));
        for _ in 0..3 {
            h = gru_step(
                &mut g,
                x0,
                h,
                |g, v, _| g.mul_scalar(v, 0.8),
                |g, v, _| g.mul_scalar(v, 0.9),
                |_, _| None,
            );
        }
        let loss = g.sum_all(h);
        g.backward(loss);
        assert!(g.grad(x0).unwrap().norm() > 0.0);
    }
}
