//! GRU encoder–decoder forecasters: the RNN and GRNN families and all
//! their plugin-enhanced variants.
//!
//! One struct covers six of the paper's models, switched by two
//! orthogonal modes:
//!
//! * [`TemporalMode`] — shared filters vs DFGN-generated per-entity filters
//!   (the `D-` prefix),
//! * [`GraphMode`] — no graph convolution (RNN), ordinary GC over static
//!   supports (GRNN — this is exactly the DCRNN architecture \[21\]), or GC
//!   over DAMGN-generated dynamic adjacencies (the `DA-` prefix).
//!
//! The decoder consumes its own previous prediction (or, with scheduled
//! sampling during training, the ground truth) and is initialized with the
//! encoder's final hidden states, as in the paper's encoder–decoder setup.

use crate::config::{GraphMode, ModelDims, TemporalMode};
use enhancenet::dfgn::{gru_filter_dim_general, split_gru_filters_general, FilterCache};
use enhancenet::{Damgn, Dfgn, DiffusionMemo, Forecaster, ForwardCtx, GcSupport, StaticFoldCache};
use enhancenet_autodiff::{Graph, ParamId, ParamStore, PlanCache, Var};
use enhancenet_graph::build_supports;
use enhancenet_nn::cell::{gru_step, Gate};
use enhancenet_nn::{apply_entity_filter, Linear};
use enhancenet_tensor::{Tensor, TensorRng};

/// Per-layer GRU weights: plain parameters (shared or per-entity) or a
/// DFGN generator.
enum CellWeights {
    Shared {
        w: [ParamId; 3],
        u: [ParamId; 3],
    },
    /// Stored per-entity filters `[N, c, C']` — the straightforward method.
    Straightforward {
        w: [ParamId; 3],
        u: [ParamId; 3],
    },
    Generated(Dfgn),
}

struct GruLayer {
    weights: CellWeights,
    /// Prediction-phase cache of DFGN-generated filters (§VI-B4).
    cache: FilterCache,
    biases: [ParamId; 3],
    /// Effective x-side input width (includes GC hop expansion).
    c_x: usize,
    /// Effective h-side input width.
    c_h: usize,
    /// Output (hidden) width.
    c_out: usize,
}

/// Weights bound into the active tape.
struct BoundLayer {
    w: [Var; 3],
    u: [Var; 3],
    b: [Var; 3],
}

fn gate_index(gate: Gate) -> usize {
    match gate {
        Gate::Reset => 0,
        Gate::Update => 1,
        Gate::Candidate => 2,
        Gate::Output => unreachable!("GRU has no output gate"),
    }
}

impl GruLayer {
    #[allow(clippy::too_many_arguments)]
    fn new(
        store: &mut ParamStore,
        rng: &mut TensorRng,
        name: &str,
        c_x: usize,
        c_h: usize,
        c_out: usize,
        temporal: &TemporalMode,
        shared_memory: Option<ParamId>,
        num_entities: Option<usize>,
    ) -> Self {
        let weights = match temporal {
            TemporalMode::Shared => {
                let gates = ["r", "u", "h"];
                let w = std::array::from_fn(|i| {
                    store.add(
                        format!("{name}.w_{}", gates[i]),
                        rng.xavier(&[c_x, c_out], c_x, c_out),
                    )
                });
                let u = std::array::from_fn(|i| {
                    store.add(
                        format!("{name}.u_{}", gates[i]),
                        rng.xavier(&[c_h, c_out], c_h, c_out),
                    )
                });
                CellWeights::Shared { w, u }
            }
            TemporalMode::Straightforward => {
                let n = num_entities.expect("straightforward mode requires the entity count");
                let gates = ["r", "u", "h"];
                let w = std::array::from_fn(|i| {
                    store.add(
                        format!("{name}.w_{}", gates[i]),
                        rng.xavier(&[n, c_x, c_out], c_x, c_out),
                    )
                });
                let u = std::array::from_fn(|i| {
                    store.add(
                        format!("{name}.u_{}", gates[i]),
                        rng.xavier(&[n, c_h, c_out], c_h, c_out),
                    )
                });
                CellWeights::Straightforward { w, u }
            }
            TemporalMode::Distinct(cfg) => {
                let o = gru_filter_dim_general(c_x, c_h, c_out);
                let memory = shared_memory.expect("distinct mode requires a shared memory table");
                CellWeights::Generated(Dfgn::with_shared_memory(
                    store,
                    rng,
                    &format!("{name}.dfgn"),
                    memory,
                    o,
                    *cfg,
                ))
            }
        };
        let gates = ["r", "u", "h"];
        let biases = std::array::from_fn(|i| {
            store.add(format!("{name}.b_{}", gates[i]), Tensor::zeros(&[c_out]))
        });
        Self { weights, cache: FilterCache::new(), biases, c_x, c_h, c_out }
    }

    fn bind(&self, g: &mut Graph, store: &ParamStore, training: bool) -> BoundLayer {
        let b = std::array::from_fn(|i| g.param(store, self.biases[i]));
        match &self.weights {
            CellWeights::Shared { w, u } | CellWeights::Straightforward { w, u } => BoundLayer {
                w: std::array::from_fn(|i| g.param(store, w[i])),
                u: std::array::from_fn(|i| g.param(store, u[i])),
                b,
            },
            CellWeights::Generated(dfgn) => {
                let generated = dfgn.generate_cached(g, store, &self.cache, training);
                let f = split_gru_filters_general(g, generated, self.c_x, self.c_h, self.c_out);
                BoundLayer { w: f.w, u: f.u, b }
            }
        }
    }

    /// One GRU step for `x ∈ [B, N, c_in]`, `h ∈ [B, N, C']`. When a
    /// diffusion scope is given, every filter application is a graph
    /// convolution (§V-C1's replacement of matrix multiplication by `⋆_G`):
    /// each distinct input (`x`, `h`, `r ⊙ h`) is diffused once through the
    /// scope's memo and every gate applies its own filter to those features.
    fn step(
        &self,
        g: &mut Graph,
        bound: &BoundLayer,
        x: Var,
        h: Var,
        scope: Option<&DiffusionMemo>,
    ) -> Var {
        gru_step(
            g,
            x,
            h,
            |g, v, gate| match scope {
                None => apply_entity_filter(g, v, bound.w[gate_index(gate)]),
                Some(m) => m.conv(g, v, bound.w[gate_index(gate)], None),
            },
            |g, v, gate| match scope {
                None => apply_entity_filter(g, v, bound.u[gate_index(gate)]),
                Some(m) => m.conv(g, v, bound.u[gate_index(gate)], None),
            },
            |_, gate| Some(bound.b[gate_index(gate)]),
        )
    }
}

/// Static graph pieces owned by the model.
struct GraphParts {
    /// Normalized base supports (constants bound per tape).
    supports: Vec<Tensor>,
    k_hops: usize,
    damgn: Option<Damgn>,
    /// Eval-path cache of the DAMGN static fold `λ_A·A_s + λ_B·B`,
    /// invalidated by weight updates via the store version.
    fold_cache: StaticFoldCache,
}

/// GRU encoder–decoder forecaster (RNN / GRNN family).
pub struct GruSeq2Seq {
    name: String,
    store: ParamStore,
    dims: ModelDims,
    enc: Vec<GruLayer>,
    dec: Vec<GruLayer>,
    head: Linear,
    graph: Option<GraphParts>,
    /// Compiled eval-forward plans, keyed by input shape and store version.
    plan_cache: PlanCache,
}

impl GruSeq2Seq {
    /// A pure temporal model: `RNN` (shared filters) or `D-RNN` (DFGN).
    pub fn rnn(dims: ModelDims, num_layers: usize, temporal: TemporalMode, seed: u64) -> Self {
        Self::build(dims, num_layers, temporal, GraphMode::None, None, seed)
    }

    /// A graph-convolutional model: `GRNN`, `D-GRNN`, `DA-GRNN` or
    /// `D-DA-GRNN` depending on the modes. `adjacency` is the raw
    /// distance-derived matrix `A`; supports are derived per `graph_mode`.
    pub fn grnn(
        dims: ModelDims,
        num_layers: usize,
        temporal: TemporalMode,
        graph_mode: GraphMode,
        adjacency: &Tensor,
        seed: u64,
    ) -> Self {
        assert!(graph_mode.uses_graph(), "grnn requires a graph mode");
        Self::build(dims, num_layers, temporal, graph_mode, Some(adjacency), seed)
    }

    /// Paper preset `RNN`: shared filters, no graph convolution.
    pub fn paper_rnn(dims: ModelDims, num_layers: usize, seed: u64) -> Self {
        Self::rnn(dims, num_layers, TemporalMode::Shared, seed)
    }

    /// Paper preset `D-RNN`: DFGN per-entity filters, no graph convolution.
    pub fn paper_d_rnn(dims: ModelDims, num_layers: usize, seed: u64) -> Self {
        Self::rnn(dims, num_layers, TemporalMode::Distinct(enhancenet::DfgnConfig::default()), seed)
    }

    /// Paper preset `GRNN` (DCRNN): shared filters, static dual-transition
    /// supports.
    pub fn paper_grnn(dims: ModelDims, num_layers: usize, adjacency: &Tensor, seed: u64) -> Self {
        Self::grnn(
            dims,
            num_layers,
            TemporalMode::Shared,
            GraphMode::paper_static(),
            adjacency,
            seed,
        )
    }

    /// Paper preset `D-GRNN`: DFGN filters over static supports.
    pub fn paper_d_grnn(dims: ModelDims, num_layers: usize, adjacency: &Tensor, seed: u64) -> Self {
        Self::grnn(
            dims,
            num_layers,
            TemporalMode::Distinct(enhancenet::DfgnConfig::default()),
            GraphMode::paper_static(),
            adjacency,
            seed,
        )
    }

    /// Paper preset `DA-GRNN`: shared filters over DAMGN dynamic
    /// adjacencies.
    pub fn paper_da_grnn(
        dims: ModelDims,
        num_layers: usize,
        adjacency: &Tensor,
        seed: u64,
    ) -> Self {
        Self::grnn(
            dims,
            num_layers,
            TemporalMode::Shared,
            GraphMode::paper_dynamic(),
            adjacency,
            seed,
        )
    }

    /// Paper preset `D-DA-GRNN`: both plugins — the paper's strongest RNN
    /// variant.
    pub fn paper_d_da_grnn(
        dims: ModelDims,
        num_layers: usize,
        adjacency: &Tensor,
        seed: u64,
    ) -> Self {
        Self::grnn(
            dims,
            num_layers,
            TemporalMode::Distinct(enhancenet::DfgnConfig::default()),
            GraphMode::paper_dynamic(),
            adjacency,
            seed,
        )
    }

    fn build(
        dims: ModelDims,
        num_layers: usize,
        temporal: TemporalMode,
        graph_mode: GraphMode,
        adjacency: Option<&Tensor>,
        seed: u64,
    ) -> Self {
        assert!(num_layers >= 1, "need at least one GRU layer");
        let mut store = ParamStore::new();
        let mut rng = TensorRng::seed(seed);
        let n = dims.num_entities;

        // Shared entity-memory table for all DFGNs in this model.
        let shared_memory = match &temporal {
            TemporalMode::Distinct(cfg) => {
                let bound = 1.0 / (cfg.memory_dim as f32).sqrt();
                Some(store.add("memory", rng.uniform(&[n, cfg.memory_dim], -bound, bound)))
            }
            TemporalMode::Shared | TemporalMode::Straightforward => None,
        };

        // Graph pieces.
        let (graph, num_supports, k_hops) = match graph_mode {
            GraphMode::None => (None, 0, 0),
            GraphMode::Static { kind, k_hops } => {
                let a = adjacency.expect("static graph mode requires an adjacency");
                let supports = build_supports(a, kind);
                let count = supports.len();
                let parts = GraphParts {
                    supports,
                    k_hops,
                    damgn: None,
                    fold_cache: StaticFoldCache::new(),
                };
                (Some(parts), count, k_hops)
            }
            GraphMode::Dynamic { kind, k_hops, damgn } => {
                let a = adjacency.expect("dynamic graph mode requires an adjacency");
                let supports = build_supports(a, kind);
                let count = supports.len();
                // DAMGN attends over the target feature (see DESIGN.md):
                // one embedding size works for both encoder and decoder.
                let damgn = Damgn::new(&mut store, &mut rng, "damgn", n, 1, damgn);
                let parts = GraphParts {
                    supports,
                    k_hops,
                    damgn: Some(damgn),
                    fold_cache: StaticFoldCache::new(),
                };
                (Some(parts), count, k_hops)
            }
            GraphMode::AdaptiveStatic { .. } => {
                panic!("AdaptiveStatic is a WaveNet-family mode (Graph WaveNet baseline)")
            }
        };
        let expand = |c: usize| {
            if num_supports == 0 {
                c
            } else {
                (1 + num_supports * k_hops) * c
            }
        };

        let hidden = dims.hidden;
        let make_stack = |store: &mut ParamStore, rng: &mut TensorRng, tag: &str, c0: usize| {
            (0..num_layers)
                .map(|l| {
                    let c_in = if l == 0 { c0 } else { hidden };
                    GruLayer::new(
                        store,
                        rng,
                        &format!("{tag}{l}"),
                        expand(c_in),
                        expand(hidden),
                        hidden,
                        &temporal,
                        shared_memory,
                        Some(n),
                    )
                })
                .collect::<Vec<_>>()
        };
        let enc = make_stack(&mut store, &mut rng, "enc", dims.in_features);
        let dec = make_stack(&mut store, &mut rng, "dec", 1);
        let head = Linear::new(&mut store, &mut rng, "head", hidden, 1, true);

        let name = match graph_mode {
            GraphMode::None => format!("{}RNN", temporal.prefix()),
            _ => format!("{}{}GRNN", temporal.prefix(), graph_mode.prefix()),
        };
        Self { name, store, dims, enc, dec, head, graph, plan_cache: PlanCache::new() }
    }

    /// The diffusion scope for one timestep: a fresh memo over the DAMGN
    /// dynamic adjacencies derived from the target-feature signal
    /// `signal_t`, or `None` when the supports are static (the caller then
    /// uses its forward-wide static scope, whose memo spans timesteps).
    fn dynamic_scope_at(
        &self,
        g: &mut Graph,
        binding: &Option<enhancenet::DamgnBinding>,
        signal_t: Var,
    ) -> Option<DiffusionMemo> {
        let parts = self.graph.as_ref()?;
        let (damgn, binding) = (parts.damgn.as_ref()?, binding.as_ref()?);
        let supports = damgn
            .dynamic_supports_at(g, binding, signal_t)
            .into_iter()
            .map(GcSupport::Dynamic)
            .collect();
        Some(DiffusionMemo::new(supports, parts.k_hops))
    }

    /// The DFGN memory parameter, when this is a `D-` variant (Figure 10).
    pub fn memory_id(&self) -> Option<ParamId> {
        match &self.enc[0].weights {
            CellWeights::Generated(dfgn) => Some(dfgn.memory_id()),
            _ => None,
        }
    }

    /// The DAMGN module, when this is a `DA-` variant (Figure 12).
    pub fn damgn(&self) -> Option<&Damgn> {
        self.graph.as_ref()?.damgn.as_ref()
    }
}

impl Forecaster for GruSeq2Seq {
    fn name(&self) -> &str {
        &self.name
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn horizon(&self) -> usize {
        self.dims.output_len
    }

    fn input_shape(&self) -> Option<[usize; 3]> {
        Some([self.dims.input_len, self.dims.num_entities, self.dims.in_features])
    }

    fn damgn(&self) -> Option<&Damgn> {
        GruSeq2Seq::damgn(self)
    }

    fn memory_id(&self) -> Option<ParamId> {
        GruSeq2Seq::memory_id(self)
    }

    fn plan_cache(&self) -> Option<&PlanCache> {
        Some(&self.plan_cache)
    }

    fn forward(&self, g: &mut Graph, x: &Tensor, ctx: &mut ForwardCtx) -> Var {
        let (b, h_len, n, c) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        assert_eq!(n, self.dims.num_entities, "entity count mismatch");
        assert_eq!(c, self.dims.in_features, "feature count mismatch");
        assert_eq!(h_len, self.dims.input_len, "input length mismatch");
        let f_len = self.dims.output_len;

        // Bind graph constants and the DAMGN static mix once per tape.
        let base_supports: Option<Vec<Var>> = self
            .graph
            .as_ref()
            .map(|parts| parts.supports.iter().map(|s| g.constant(s.clone())).collect());
        let damgn_binding = match (&self.graph, &base_supports) {
            (Some(parts), Some(base)) => parts.damgn.as_ref().map(|damgn| {
                damgn.bind_cached(g, &self.store, base, &parts.fold_cache, ctx.training)
            }),
            _ => None,
        };
        let enc_bound: Vec<BoundLayer> =
            self.enc.iter().map(|l| l.bind(g, &self.store, ctx.training)).collect();
        let dec_bound: Vec<BoundLayer> =
            self.dec.iter().map(|l| l.bind(g, &self.store, ctx.training)).collect();
        // Static supports bind one diffusion scope for the whole forward, so
        // `hidden[l]` is diffused once for layer l+1's x-side at `t` and
        // layer l's h-side at `t+1`; DAMGN hosts get a scope per timestep.
        let static_scope = match (&self.graph, &base_supports, &damgn_binding) {
            (Some(parts), Some(base), None) => Some(DiffusionMemo::new(
                base.iter().map(|&v| GcSupport::Static(v)).collect(),
                parts.k_hops,
            )),
            _ => None,
        };

        // Eval traces read the window through a single input leaf so the
        // trace compiles to a reusable plan ([`PlanCache`]); training keeps
        // the cheaper per-timestep constants (graph-level slicing would
        // drag the whole window through every backward step).
        let xin = (!ctx.training).then(|| g.input(x.clone()));

        // ---------------------------------------------------------- encoder
        let mut hidden: Vec<Var> = (0..self.enc.len())
            .map(|_| g.constant(Tensor::zeros(&[b, n, self.dims.hidden])))
            .collect();
        for t in 0..h_len {
            let xt = match xin {
                Some(xv) => g.index_axis(xv, 1, t), // [B, N, C]
                None => g.constant(x.index_axis(1, t)),
            };
            let signal = g.slice_axis(xt, -1, 0, 1); // target feature
            let step_scope = self.dynamic_scope_at(g, &damgn_binding, signal);
            let scope = step_scope.as_ref().or(static_scope.as_ref());
            let mut input = xt;
            for (l, layer) in self.enc.iter().enumerate() {
                hidden[l] = layer.step(g, &enc_bound[l], input, hidden[l], scope);
                input = hidden[l];
            }
        }

        // ---------------------------------------------------------- decoder
        let mut dec_hidden = hidden; // warm start from the encoder
        let mut dec_in = g.constant(Tensor::zeros(&[b, n, 1])); // GO token
        let mut outputs = Vec::with_capacity(f_len);
        for t in 0..f_len {
            let step_scope = self.dynamic_scope_at(g, &damgn_binding, dec_in);
            let scope = step_scope.as_ref().or(static_scope.as_ref());
            let mut input = dec_in;
            for (l, layer) in self.dec.iter().enumerate() {
                dec_hidden[l] = layer.step(g, &dec_bound[l], input, dec_hidden[l], scope);
                input = dec_hidden[l];
            }
            let pred = self.head.forward(g, &self.store, input); // [B, N, 1]
            outputs.push(g.reshape(pred, &[b, 1, n]));
            dec_in = if ctx.use_teacher() {
                let teacher = ctx.teacher.expect("use_teacher implies teacher");
                g.constant(teacher.index_axis(1, t).reshape(&[b, n, 1]))
            } else {
                pred
            };
        }
        g.concat(&outputs, 1) // [B, F, N]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enhancenet::{DamgnConfig, DfgnConfig};
    use enhancenet_graph::SupportKind;

    fn dims(n: usize, c: usize) -> ModelDims {
        ModelDims { num_entities: n, in_features: c, hidden: 8, input_len: 4, output_len: 3 }
    }

    fn small_dfgn() -> DfgnConfig {
        DfgnConfig { memory_dim: 4, hidden1: 8, hidden2: 3 }
    }

    fn ring_adjacency(n: usize) -> Tensor {
        let mut a = Tensor::zeros(&[n, n]);
        for i in 0..n {
            a.set(&[i, (i + 1) % n], 1.0);
            a.set(&[(i + 1) % n, i], 0.5);
        }
        a
    }

    fn forward_shape(model: &GruSeq2Seq, b: usize) {
        let x = TensorRng::seed(9).normal(&[b, 4, 5, 2], 0.0, 1.0);
        let mut g = Graph::new();
        let mut rng = TensorRng::seed(1);
        let mut ctx = ForwardCtx::eval(&mut rng);
        let y = model.forward(&mut g, &x, &mut ctx);
        assert_eq!(g.value(y).shape(), &[b, 3, 5]);
        assert!(!g.value(y).has_non_finite());
    }

    #[test]
    fn rnn_forward_shape_and_name() {
        let m = GruSeq2Seq::rnn(dims(5, 2), 2, TemporalMode::Shared, 1);
        assert_eq!(m.name(), "RNN");
        assert!(m.memory_id().is_none());
        forward_shape(&m, 3);
    }

    #[test]
    fn drnn_forward_shape_and_name() {
        let m = GruSeq2Seq::rnn(dims(5, 2), 2, TemporalMode::Distinct(small_dfgn()), 1);
        assert_eq!(m.name(), "D-RNN");
        assert!(m.memory_id().is_some());
        forward_shape(&m, 2);
    }

    #[test]
    fn grnn_variants_name_and_shape() {
        let a = ring_adjacency(5);
        let combos: Vec<(TemporalMode, GraphMode, &str)> = vec![
            (TemporalMode::Shared, GraphMode::paper_static(), "GRNN"),
            (TemporalMode::Distinct(small_dfgn()), GraphMode::paper_static(), "D-GRNN"),
            (TemporalMode::Shared, GraphMode::paper_dynamic(), "DA-GRNN"),
            (TemporalMode::Distinct(small_dfgn()), GraphMode::paper_dynamic(), "D-DA-GRNN"),
        ];
        for (t, gm, expected) in combos {
            let m = GruSeq2Seq::grnn(dims(5, 2), 2, t, gm, &a, 1);
            assert_eq!(m.name(), expected);
            forward_shape(&m, 2);
        }
    }

    #[test]
    fn da_variant_exposes_damgn() {
        let a = ring_adjacency(5);
        let m = GruSeq2Seq::grnn(
            dims(5, 2),
            1,
            TemporalMode::Shared,
            GraphMode::Dynamic {
                kind: SupportKind::SingleTransition,
                k_hops: 1,
                damgn: DamgnConfig { b_memory_dim: 3, embed_dim: 2, top_k: None },
            },
            &a,
            1,
        );
        assert!(m.damgn().is_some());
    }

    #[test]
    fn dfgn_reduces_parameters_vs_wide_shared() {
        // The paper's Table I point: D-RNN with C' = 16 has far fewer
        // parameters than RNN with C' = 64.
        let mut wide = dims(50, 2);
        wide.hidden = 64;
        let mut narrow = dims(50, 2);
        narrow.hidden = 16;
        let base = GruSeq2Seq::rnn(wide, 2, TemporalMode::Shared, 1);
        let d = GruSeq2Seq::rnn(narrow, 2, TemporalMode::Distinct(DfgnConfig::default()), 1);
        assert!(
            d.num_parameters() < base.num_parameters(),
            "D-RNN {} should be smaller than RNN {}",
            d.num_parameters(),
            base.num_parameters()
        );
    }

    #[test]
    fn gradients_flow_to_every_parameter_rnn() {
        let m = GruSeq2Seq::rnn(dims(4, 1), 2, TemporalMode::Shared, 2);
        check_all_grads(m);
    }

    #[test]
    fn gradients_flow_to_every_parameter_d_da_grnn() {
        let a = ring_adjacency(4);
        let m = GruSeq2Seq::grnn(
            ModelDims { num_entities: 4, in_features: 1, hidden: 6, input_len: 4, output_len: 3 },
            2,
            TemporalMode::Distinct(small_dfgn()),
            GraphMode::paper_dynamic(),
            &a,
            // Seed 2 draws generator weights whose tiny (8->3) ReLU stack is
            // fully dead for this 4-entity config, making zero generator
            // grads a property of the draw rather than a bug; seed 3 keeps
            // every unit alive so the test checks what it means to.
            3,
        );
        check_all_grads(m);
    }

    fn check_all_grads(mut m: GruSeq2Seq) {
        let n = m.dims.num_entities;
        let c = m.dims.in_features;
        let x = TensorRng::seed(3).normal(&[2, 4, n, c], 0.0, 1.0);
        let mut g = Graph::new();
        let mut rng = TensorRng::seed(4);
        let pred = {
            let mut ctx = ForwardCtx::eval(&mut rng);
            m.forward(&mut g, &x, &mut ctx)
        };
        let target = Tensor::ones(&[2, 3, n]);
        let mask = Tensor::ones(&[2, 3, n]);
        let loss = g.masked_mae(pred, &target, &mask);
        g.backward(loss);
        m.store_mut().zero_grad();
        g.write_grads(m.store_mut());
        let mut missing = Vec::new();
        for id in m.store().ids() {
            if m.store().grad(id).norm() == 0.0 {
                missing.push(m.store().name(id).to_string());
            }
        }
        assert!(missing.is_empty(), "params with zero grad: {missing:?}");
    }

    #[test]
    fn teacher_forcing_changes_training_forward() {
        let m = GruSeq2Seq::rnn(dims(5, 2), 1, TemporalMode::Shared, 5);
        let x = TensorRng::seed(10).normal(&[1, 4, 5, 2], 0.0, 1.0);
        let teacher = TensorRng::seed(11).normal(&[1, 3, 5], 0.0, 1.0);

        let mut g1 = Graph::new();
        let mut rng1 = TensorRng::seed(12);
        let mut ctx1 = ForwardCtx::train(&mut rng1, &teacher, 1.0);
        let y_forced = m.forward(&mut g1, &x, &mut ctx1);

        let mut g2 = Graph::new();
        let mut rng2 = TensorRng::seed(12);
        let mut ctx2 = ForwardCtx::train(&mut rng2, &teacher, 0.0);
        let y_free = m.forward(&mut g2, &x, &mut ctx2);

        // First step is identical (GO token), later steps diverge.
        assert!(!g1.value(y_forced).allclose(g2.value(y_free), 1e-6));
        let first_forced = g1.value(y_forced).index_axis(1, 0);
        let first_free = g2.value(y_free).index_axis(1, 0);
        assert!(first_forced.allclose(&first_free, 1e-6));
    }

    #[test]
    fn straightforward_mode_name_shape_and_param_ordering() {
        // §IV's three methods at a realistic N: naive < DFGN < straightforward.
        let n = 80;
        let d =
            ModelDims { num_entities: n, in_features: 1, hidden: 8, input_len: 4, output_len: 3 };
        let naive = GruSeq2Seq::rnn(d, 1, TemporalMode::Shared, 1);
        let dfgn = GruSeq2Seq::rnn(d, 1, TemporalMode::Distinct(small_dfgn()), 1);
        let straightforward = GruSeq2Seq::rnn(d, 1, TemporalMode::Straightforward, 1);
        assert_eq!(straightforward.name(), "S-RNN");
        assert!(naive.num_parameters() < dfgn.num_parameters());
        assert!(dfgn.num_parameters() < straightforward.num_parameters());
        // And it runs.
        let x = TensorRng::seed(2).normal(&[2, 4, n, 1], 0.0, 1.0);
        let mut g = Graph::new();
        let mut rng = TensorRng::seed(3);
        let mut ctx = ForwardCtx::eval(&mut rng);
        let y = straightforward.forward(&mut g, &x, &mut ctx);
        assert_eq!(g.value(y).shape(), &[2, 3, n]);
    }

    #[test]
    fn eval_filter_cache_matches_tracked_path() {
        // Two eval forwards (second served from the cache) must agree
        // bit-for-bit, and training afterwards must still move parameters.
        let m = GruSeq2Seq::rnn(dims(5, 1), 2, TemporalMode::Distinct(small_dfgn()), 13);
        let x = TensorRng::seed(20).normal(&[1, 4, 5, 1], 0.0, 1.0);
        let run = || {
            let mut g = Graph::new();
            let mut rng = TensorRng::seed(21);
            let mut ctx = ForwardCtx::eval(&mut rng);
            let y = m.forward(&mut g, &x, &mut ctx);
            g.value(y).clone()
        };
        let first = run();
        let second = run(); // cache hit
        assert!(first.allclose(&second, 0.0));
    }

    #[test]
    fn paper_presets_match_explicit_modes() {
        let a = ring_adjacency(5);
        let cases: Vec<(GruSeq2Seq, &str)> = vec![
            (GruSeq2Seq::paper_rnn(dims(5, 2), 2, 1), "RNN"),
            (GruSeq2Seq::paper_d_rnn(dims(5, 2), 2, 1), "D-RNN"),
            (GruSeq2Seq::paper_grnn(dims(5, 2), 2, &a, 1), "GRNN"),
            (GruSeq2Seq::paper_d_grnn(dims(5, 2), 2, &a, 1), "D-GRNN"),
            (GruSeq2Seq::paper_da_grnn(dims(5, 2), 2, &a, 1), "DA-GRNN"),
            (GruSeq2Seq::paper_d_da_grnn(dims(5, 2), 2, &a, 1), "D-DA-GRNN"),
        ];
        for (m, expected) in cases {
            assert_eq!(m.name(), expected);
            assert_eq!(m.input_shape(), Some([4, 5, 2]));
            forward_shape(&m, 2);
        }
    }

    #[test]
    fn eval_damgn_fold_cache_matches_tracked_path() {
        // Second eval forward serves the folded static mix from the cache;
        // outputs must agree bit-for-bit with the first (tracked) pass.
        let a = ring_adjacency(5);
        let m = GruSeq2Seq::paper_da_grnn(dims(5, 2), 1, &a, 17);
        let x = TensorRng::seed(22).normal(&[1, 4, 5, 2], 0.0, 1.0);
        let run = || {
            let mut g = Graph::new();
            let mut rng = TensorRng::seed(23);
            let mut ctx = ForwardCtx::eval(&mut rng);
            let y = m.forward(&mut g, &x, &mut ctx);
            g.value(y).clone()
        };
        let first = run();
        let second = run();
        assert!(first.allclose(&second, 0.0));
    }

    #[test]
    fn predict_serves_eval_forward_without_tape_access() {
        let a = ring_adjacency(5);
        let m = GruSeq2Seq::paper_da_grnn(dims(5, 2), 1, &a, 19);
        let x = TensorRng::seed(24).normal(&[4, 5, 2], 0.0, 1.0);
        let p = m.predict(&x).unwrap();
        assert_eq!(p.shape(), &[3, 5]);
        match m.predict(&TensorRng::seed(25).normal(&[4, 9, 2], 0.0, 1.0)) {
            Err(enhancenet::EnhanceNetError::InputShape { expected, .. }) => {
                assert_eq!(expected, vec![4, 5, 2]);
            }
            other => panic!("expected InputShape, got {other:?}"),
        }
    }

    #[test]
    fn per_entity_filters_give_entity_specific_behaviour() {
        // With distinct filters, feeding identical series to every entity
        // must still produce different predictions per entity, which shared
        // filters cannot do (they are permutation-equivariant).
        let m_shared = GruSeq2Seq::rnn(dims(5, 1), 1, TemporalMode::Shared, 7);
        let m_distinct = GruSeq2Seq::rnn(dims(5, 1), 1, TemporalMode::Distinct(small_dfgn()), 7);
        let mut x = Tensor::zeros(&[1, 4, 5, 1]);
        for t in 0..4 {
            for e in 0..5 {
                x.set(&[0, t, e, 0], (t as f32 * 0.4).sin());
            }
        }
        let spread = |m: &GruSeq2Seq| -> f32 {
            let mut g = Graph::new();
            let mut rng = TensorRng::seed(8);
            let mut ctx = ForwardCtx::eval(&mut rng);
            let y = m.forward(&mut g, &x, &mut ctx);
            // Std over the entity axis at the last horizon.
            let last = g.value(y).index_axis(1, 2);
            let mean = last.mean_all();
            last.map(|v| (v - mean) * (v - mean)).mean_all().sqrt()
        };
        assert!(spread(&m_shared) < 1e-6, "shared filters must be entity-symmetric");
        assert!(spread(&m_distinct) > 1e-6, "distinct filters must break symmetry");
    }

    // ------------------------------------------------ shared diffusion step

    use enhancenet::gconv::{diffuse, gc_input_dim};
    use enhancenet::graph_conv;
    use enhancenet_tensor::{CsrMatrix, TopkPattern};
    use std::sync::Arc;

    const STEP_B: usize = 2;
    const STEP_N: usize = 5;
    const STEP_C: usize = 2;
    const STEP_HIDDEN: usize = 3;
    const STEP_K: usize = 2;

    #[derive(Clone, Copy, Debug)]
    enum SupportCase {
        Static,
        Dynamic,
        SparseDynamic,
    }

    impl SupportCase {
        /// Tape nodes one `GcSupport::apply` records.
        fn nodes_per_hop(self) -> usize {
            match self {
                SupportCase::Static | SupportCase::Dynamic => 1,
                SupportCase::SparseDynamic => 4,
            }
        }
    }

    /// Two supports of `case`, drawn from fixed seeds so every tape gets the
    /// same values, plus the leaves that carry their gradients.
    fn bind_supports(g: &mut Graph, case: SupportCase) -> (Vec<GcSupport>, Vec<Var>) {
        let mut rng = TensorRng::seed(40);
        let mut supports = Vec::new();
        let mut leaves = Vec::new();
        for _ in 0..2 {
            match case {
                SupportCase::Static => {
                    let a = g.constant(rng.uniform(&[STEP_N, STEP_N], 0.0, 0.5));
                    leaves.push(a);
                    supports.push(GcSupport::Static(a));
                }
                SupportCase::Dynamic => {
                    let a = g.constant(rng.uniform(&[STEP_B, STEP_N, STEP_N], 0.0, 0.5));
                    leaves.push(a);
                    supports.push(GcSupport::Dynamic(a));
                }
                SupportCase::SparseDynamic => {
                    let dense = rng.uniform(&[STEP_N, STEP_N], -0.5, 0.5).map(|v| v.max(0.0));
                    let csr = Arc::new(CsrMatrix::from_dense(&dense));
                    let csr_t = Arc::new(csr.transpose());
                    let scores = rng.normal(&[STEP_N, STEP_N], 0.0, 1.0);
                    let pattern = Arc::new(TopkPattern::from_dense_topk(&scores, 2));
                    let lambda_a = g.constant(Tensor::scalar(0.6));
                    let vals = g.constant(rng.uniform(&[STEP_B, STEP_N, 2], 0.0, 0.5));
                    leaves.extend([lambda_a, vals]);
                    supports.push(GcSupport::SparseDynamic { csr, csr_t, lambda_a, vals, pattern });
                }
            }
        }
        (supports, leaves)
    }

    /// A graph-conv GRU layer (input width `STEP_C`) with its own store.
    fn step_layer(temporal: &TemporalMode) -> (ParamStore, GruLayer) {
        let mut store = ParamStore::new();
        let mut rng = TensorRng::seed(41);
        let memory = matches!(temporal, TemporalMode::Distinct(_))
            .then(|| store.add("memory", rng.uniform(&[STEP_N, 4], -0.5, 0.5)));
        let expand = |c: usize| gc_input_dim(c, 2, STEP_K);
        let layer = GruLayer::new(
            &mut store,
            &mut rng,
            "cell",
            expand(STEP_C),
            expand(STEP_HIDDEN),
            STEP_HIDDEN,
            temporal,
            memory,
            Some(STEP_N),
        );
        (store, layer)
    }

    /// Reference cell step: every gate and side calls `graph_conv` on its
    /// own, diffusing its input anew.
    fn per_gate_step(
        g: &mut Graph,
        bound: &BoundLayer,
        x: Var,
        h: Var,
        supports: &[GcSupport],
    ) -> Var {
        gru_step(
            g,
            x,
            h,
            |g, v, gate| graph_conv(g, supports, v, bound.w[gate_index(gate)], None, STEP_K),
            |g, v, gate| graph_conv(g, supports, v, bound.u[gate_index(gate)], None, STEP_K),
            |_, gate| Some(bound.b[gate_index(gate)]),
        )
    }

    /// One traced step and its backward: output, tape nodes the step
    /// recorded, gradients of `[x, h, support leaves…]` and of every
    /// parameter in store order.
    struct StepRun {
        out: Tensor,
        step_nodes: usize,
        input_grads: Vec<Option<Tensor>>,
        param_grads: Vec<Tensor>,
    }

    fn run_step(case: SupportCase, temporal: &TemporalMode, shared: bool) -> StepRun {
        let (mut store, layer) = step_layer(temporal);
        let mut g = Graph::new();
        let (supports, leaves) = bind_supports(&mut g, case);
        let mut rng = TensorRng::seed(42);
        let x = g.constant(rng.normal(&[STEP_B, STEP_N, STEP_C], 0.0, 1.0));
        let h = g.constant(rng.normal(&[STEP_B, STEP_N, STEP_HIDDEN], 0.0, 1.0));
        let bound = layer.bind(&mut g, &store, true);
        let before = g.len();
        let y = if shared {
            let scope = DiffusionMemo::new(supports, STEP_K);
            layer.step(&mut g, &bound, x, h, Some(&scope))
        } else {
            per_gate_step(&mut g, &bound, x, h, &supports)
        };
        let step_nodes = g.len() - before;
        let sq = g.square(y);
        let loss = g.sum_all(sq);
        g.backward(loss);
        store.zero_grad();
        g.write_grads(&mut store);
        let input_grads = [x, h].iter().chain(&leaves).map(|&v| g.grad(v).cloned()).collect();
        let param_grads = store.ids().map(|id| store.grad(id).clone()).collect();
        StepRun { out: g.value(y).clone(), step_nodes, input_grads, param_grads }
    }

    fn assert_bitwise(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape");
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b), "{what}: values differ");
    }

    fn assert_rel_close(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape");
        let diff = a.data().iter().zip(b.data()).map(|(x, y)| (x - y) * (x - y)).sum::<f32>();
        let scale = a.norm().max(b.norm()).max(f32::MIN_POSITIVE);
        assert!(diff.sqrt() <= 1e-5 * scale, "{what}: |Δ| {} vs scale {scale}", diff.sqrt());
    }

    /// Tape nodes one `diffuse` call records for `case`'s supports.
    fn diffusion_chain_nodes(case: SupportCase) -> usize {
        let mut g = Graph::new();
        let (supports, _) = bind_supports(&mut g, case);
        let x = g.constant(Tensor::ones(&[STEP_B, STEP_N, STEP_C]));
        let before = g.len();
        diffuse(&mut g, &supports, x, STEP_K);
        g.len() - before
    }

    #[test]
    fn shared_diffusion_step_matches_per_gate_graph_conv() {
        let temporals = [TemporalMode::Shared, TemporalMode::Distinct(small_dfgn())];
        for case in [SupportCase::Static, SupportCase::Dynamic, SupportCase::SparseDynamic] {
            let chain = diffusion_chain_nodes(case);
            // |S|·K support applications plus the concat.
            assert_eq!(chain, 2 * STEP_K * case.nodes_per_hop() + 1, "{case:?}");
            for temporal in &temporals {
                let what = format!("{case:?} / {}", temporal.prefix());
                let shared = run_step(case, temporal, true);
                let reference = run_step(case, temporal, false);
                assert_bitwise(&shared.out, &reference.out, &what);
                // x is diffused once instead of three times, h once instead
                // of twice; r ⊙ h once either way.
                assert_eq!(reference.step_nodes - shared.step_nodes, 3 * chain, "{what}");
                for (i, (a, b)) in shared.input_grads.iter().zip(&reference.input_grads).enumerate()
                {
                    match (a, b) {
                        (Some(a), Some(b)) => assert_rel_close(a, b, &format!("{what} input {i}")),
                        (None, None) => {}
                        _ => panic!("{what}: input {i} gradient reached only one tape"),
                    }
                }
                for (i, (a, b)) in shared.param_grads.iter().zip(&reference.param_grads).enumerate()
                {
                    assert!(a.norm() > 0.0, "{what}: param {i} got no gradient");
                    assert_rel_close(a, b, &format!("{what} param {i}"));
                }
            }
        }
    }

    #[test]
    fn static_scope_shares_hidden_diffusion_across_layers_and_timesteps() {
        // Two stacked layers unrolled over T steps on static supports. With
        // one forward-wide scope, `hidden[0]` at t is diffused once for
        // layer 1's x-side at t and reused by layer 0's h-side at t+1:
        // 5 diffusions per step (+1 for the initial h of layer 0) against
        // the per-gate reference's 12.
        const T: usize = 4;
        let temporal = TemporalMode::Shared;
        let unroll = |shared: bool| {
            let (store0, layer0) = step_layer(&temporal);
            let mut store1 = ParamStore::new();
            let layer1 = {
                let mut rng = TensorRng::seed(43);
                let expand = |c: usize| gc_input_dim(c, 2, STEP_K);
                GruLayer::new(
                    &mut store1,
                    &mut rng,
                    "cell1",
                    expand(STEP_HIDDEN),
                    expand(STEP_HIDDEN),
                    STEP_HIDDEN,
                    &temporal,
                    None,
                    Some(STEP_N),
                )
            };
            let mut g = Graph::new();
            let (supports, _) = bind_supports(&mut g, SupportCase::Static);
            let bound = [layer0.bind(&mut g, &store0, true), layer1.bind(&mut g, &store1, true)];
            let layers = [&layer0, &layer1];
            let scope = DiffusionMemo::new(supports.clone(), STEP_K);
            let mut rng = TensorRng::seed(44);
            let mut hidden: Vec<Var> =
                (0..2).map(|_| g.constant(Tensor::zeros(&[STEP_B, STEP_N, STEP_HIDDEN]))).collect();
            let before = g.len();
            for _ in 0..T {
                let mut input = g.constant(rng.normal(&[STEP_B, STEP_N, STEP_C], 0.0, 1.0));
                for l in 0..2 {
                    hidden[l] = if shared {
                        layers[l].step(&mut g, &bound[l], input, hidden[l], Some(&scope))
                    } else {
                        per_gate_step(&mut g, &bound[l], input, hidden[l], &supports)
                    };
                    input = hidden[l];
                }
            }
            // Subtract the T input leaves, which both unrolls record.
            let nodes = g.len() - before - T;
            (g.value(hidden[1]).clone(), nodes)
        };
        let (shared_out, shared_nodes) = unroll(true);
        let (reference_out, reference_nodes) = unroll(false);
        assert_bitwise(&shared_out, &reference_out, "two-layer static stack");
        let chain = diffusion_chain_nodes(SupportCase::Static);
        let saved = 12 * T - (5 * T + 1);
        assert_eq!(reference_nodes - shared_nodes, saved * chain);
    }
}
