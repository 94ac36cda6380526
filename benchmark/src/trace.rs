//! The traced run: per-layer metrics, timed from the benchmark's own code
//! around calls into each layer's public functions.
//!
//! Every traced run reports every per-layer metric. A layer the workload
//! exercises is probed at the workload's own shapes (DFGN, DAMGN and graph
//! conv on the workload's model or a generator of the same size); a layer
//! off the workload's path is probed at the shapes of the workload that
//! exercises it: `nn.gru_step_ms` and `tensor.gemm_gflops` at `train-la`
//! shapes, `tensor.spmm_ms` at `grid-4k` shapes, and the `serve.*` probe on
//! a `serve-us` fleet.

use crate::openloop;
use crate::report::Report;
use crate::setup::{self, TrainSetup, MODEL_SEED, SWAP_MODEL_SEED};
use crate::stats::{mean, median, quantile, sub_seed, SplitMix};
use crate::workloads::{self, train_config, ServeSetup, RATE_HIGH};
use enhancenet::prelude::*;
use enhancenet::{graph_conv, ForwardCtx, GcSupport};
use enhancenet_autodiff::{Graph, ParamStore};
use enhancenet_nn::optim::{clip_grad_norm, Adam, Optimizer};
use enhancenet_nn::{apply_entity_filter, causal_conv_taps, gru_step, ScheduledSampler};
use enhancenet_tensor::{CsrMatrix, Tensor, TensorRng};
use std::sync::Arc;
use std::time::Instant;

/// Largest allowed gap, in percent of the untraced step time, between the
/// untraced training step and the sum of its traced forward, backward and
/// optimizer phases. The remainder is batch assembly, mask preparation and
/// freeing the tape.
pub const RECONCILE_TOLERANCE_PCT: f64 = 15.0;

/// Times `f` at least `min_reps` times and for at least `min_secs`;
/// returns the median milliseconds per call. The result goes through
/// `black_box` (and is dropped inside the timed region).
fn bench_ms<R>(min_reps: usize, min_secs: f64, mut f: impl FnMut() -> R) -> f64 {
    let started = Instant::now();
    let mut ms = Vec::new();
    while ms.len() < min_reps || started.elapsed().as_secs_f64() < min_secs {
        let t0 = Instant::now();
        std::hint::black_box(f());
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    median(&ms)
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Phase times of one hand-driven training step (zero when untraced).
#[derive(Default, Clone, Copy)]
struct StepTimes {
    data_ms: f64,
    forward_ms: f64,
    backward_ms: f64,
    optimizer_ms: f64,
    total_ms: f64,
    tape_nodes: usize,
    loss: f32,
}

/// A training loop driven by hand that mirrors `Trainer::train`'s serial
/// step: the same RNG stream, shuffled batch order, scheduled sampling,
/// masked-MAE loss, gradient clip and Adam update. Its first loss
/// therefore equals the trainer's bit for bit, which the traced run checks.
struct HandTrainer<'a> {
    data: &'a WindowDataset,
    config: TrainConfig,
    rng: TensorRng,
    optimizer: Adam,
    sampler: ScheduledSampler,
    batches: BatchIterator<'a>,
}

impl<'a> HandTrainer<'a> {
    fn new(data: &'a WindowDataset, config: TrainConfig) -> Self {
        let mut rng = TensorRng::seed(config.seed);
        let batches =
            BatchIterator::shuffled(data, data.split.train.clone(), config.batch_size, &mut rng);
        let sampler = ScheduledSampler::new(config.sampler_tau);
        Self { data, config, rng, optimizer: Adam::new(), sampler, batches }
    }

    /// One step; `traced` times its phases separately.
    fn step<M: Forecaster>(&mut self, model: &mut M, traced: bool) -> StepTimes {
        let mark = || traced.then(Instant::now);
        let since = |t: Option<Instant>| t.map_or(0.0, ms_since);
        let step_start = Instant::now();
        let mut times = StepTimes::default();

        let t = mark();
        let batch = match self.batches.next() {
            Some(batch) => batch,
            None => {
                self.batches = BatchIterator::shuffled(
                    self.data,
                    self.data.split.train.clone(),
                    self.config.batch_size,
                    &mut self.rng,
                );
                self.batches.next().expect("training split holds a batch")
            }
        };
        times.data_ms = since(t);

        let tf_prob = self.sampler.teacher_forcing_prob();
        let mask = batch.y_raw.map(|v| if v.is_finite() && v != 0.0 { 1.0 } else { 0.0 });
        let target = batch.y_scaled.map(|v| if v.is_finite() { v } else { 0.0 });

        let t = mark();
        let mut g = Graph::new();
        let pred = {
            let mut ctx = ForwardCtx::train(&mut self.rng, &target, tf_prob);
            model.forward(&mut g, &batch.x, &mut ctx)
        };
        let loss = g.masked_mae(pred, &target, &mask);
        times.loss = g.value(loss).item();
        times.forward_ms = since(t);
        times.tape_nodes = g.len();
        if times.loss.is_finite() {
            let t = mark();
            g.backward(loss);
            times.backward_ms = since(t);
            let t = mark();
            let store = model.store_mut();
            store.zero_grad();
            g.write_grads(store);
            clip_grad_norm(store, self.config.clip_norm);
            self.optimizer.step(store, self.config.schedule.lr_at(0));
            times.optimizer_ms = since(t);
        }
        self.sampler.advance();
        drop(g);
        times.total_ms = ms_since(step_start);
        times
    }
}

/// Hand-driven training on `model` (fresh, with the same weights as
/// `reference`): checks the mirror against `Trainer::train`, alternates
/// untraced and traced steps, and reports the `data.*`, `autodiff.*`,
/// `nn.optimizer_ms`, `step.*` and overhead metrics.
fn training_probes<M: Forecaster>(
    report: &mut Report,
    data: &WindowDataset,
    model: &mut M,
    mut reference: M,
    batch: usize,
    budget_s: f64,
) {
    let config = train_config(batch, 1, 1, 0);
    let trainer_loss = Trainer::new(config.clone()).train(&mut reference, data).train_loss[0];
    drop(reference);
    let mut hand = HandTrainer::new(data, config);
    let first = hand.step(model, false);
    report.check(
        first.loss.to_bits() == trainer_loss.to_bits(),
        format!(
            "hand-driven step mirrors Trainer::train (first loss {} vs {trainer_loss})",
            first.loss
        ),
    );

    let started = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    while traced.len() < 2 || started.elapsed().as_secs_f64() < budget_s {
        untraced.push(hand.step(model, false));
        traced.push(hand.step(model, true));
    }
    let all_finite = untraced.iter().chain(&traced).all(|s| s.loss.is_finite());
    report.check(all_finite && first.loss.is_finite(), "hand-driven training losses are finite");
    report.ops(1 + (untraced.len() + traced.len()) as u64, 0);

    let med = |f: fn(&StepTimes) -> f64, steps: &[StepTimes]| {
        median(&steps.iter().map(f).collect::<Vec<_>>())
    };
    let step_ms = med(|s| s.total_ms, &untraced);
    let traced_ms = med(|s| s.total_ms, &traced);
    let forward = med(|s| s.forward_ms, &traced);
    let backward = med(|s| s.backward_ms, &traced);
    let optimizer = med(|s| s.optimizer_ms, &traced);
    // Each traced step is compared with the untraced step just before it,
    // so slow drift in the host's speed cancels out of the ratios.
    let pairs = || untraced.iter().zip(&traced);
    let pct = |v: Vec<f64>| median(&v) * 100.0;
    let unattributed_pct = pct(pairs()
        .map(|(u, t)| (u.total_ms - t.forward_ms - t.backward_ms - t.optimizer_ms) / u.total_ms)
        .collect());
    let overhead_pct = pct(pairs().map(|(u, t)| (t.total_ms - u.total_ms) / u.total_ms).collect());
    eprintln!(
        "steps: {} untraced, {} traced; untraced {step_ms:.3} ms, traced {traced_ms:.3} ms, \
         forward {forward:.3} + backward {backward:.3} + optimizer {optimizer:.3} ms",
        untraced.len(),
        traced.len()
    );
    report.check(
        unattributed_pct.abs() <= RECONCILE_TOLERANCE_PCT,
        format!(
            "forward + backward + optimizer within {RECONCILE_TOLERANCE_PCT}% of the untraced \
             step ({unattributed_pct:+.2}% unattributed)"
        ),
    );
    report.metric("data.batch_ms", med(|s| s.data_ms, &traced), "ms");
    report.metric("autodiff.forward_ms", forward, "ms");
    report.metric("autodiff.backward_ms", backward, "ms");
    report.metric("autodiff.tape_nodes", med(|s| s.tape_nodes as f64, &traced), "count");
    report.metric("nn.optimizer_ms", optimizer, "ms");
    report.metric("step.untraced_ms", step_ms, "ms");
    report.metric("step.unattributed_pct", unattributed_pct, "%");
    report.metric("telemetry.overhead_pct", overhead_pct, "%");
}

/// The widest DFGN generator output of `model` (filters per entity).
fn dfgn_out_dim(store: &ParamStore) -> usize {
    let hidden2 = DfgnConfig::default().hidden2;
    store
        .ids()
        .filter(|&id| store.name(id).contains("dfgn"))
        .map(|id| store.value(id).shape())
        .filter(|shape| shape.len() == 2 && shape[0] == hidden2)
        .map(|shape| shape[1])
        .max()
        .unwrap_or(64)
}

/// `dfgn.generate_ms`: `Dfgn::generate` plus its backward, for a generator
/// the size of the model's widest one at the workload's N.
fn dfgn_probe(report: &mut Report, model: &dyn Forecaster, n: usize) {
    let mut store = ParamStore::new();
    let mut rng = TensorRng::seed(11);
    let out_dim = dfgn_out_dim(model.store());
    let dfgn = Dfgn::new(&mut store, &mut rng, "probe", n, out_dim, DfgnConfig::default());
    let ms = bench_ms(5, 0.3, || {
        let mut g = Graph::new();
        let filters = dfgn.generate(&mut g, &store);
        let total = g.sum_all(filters);
        g.backward(total);
        g
    });
    report.metric("dfgn.generate_ms", ms, "ms");
}

/// `damgn.*`: Eq. 15 (`B`) and Eq. 16 (`C_t`) forwards on the model's own
/// DAMGN, dense or top-k as the model is configured, and the top-k pattern
/// build at k = 32.
fn damgn_probe(report: &mut Report, model: &dyn Forecaster, x_t: &Tensor) {
    let damgn = model.damgn().expect("workload model carries a DAMGN");
    let store = model.store();
    // `C_t` embeds the attributes the host feeds DAMGN (the width of θ).
    let features = store
        .ids()
        .find(|&id| store.name(id).ends_with(".theta"))
        .map_or(x_t.shape()[2], |id| store.value(id).shape()[0]);
    let x_t = &x_t.slice_axis(2, 0, features);
    let pattern = damgn.topk_pattern(store, setup::GRID_TOP_K);
    let sparse = damgn.top_k().is_some();
    let static_b = bench_ms(5, 0.3, || {
        let mut g = Graph::new();
        if sparse {
            damgn.static_b_topk(&mut g, store, &pattern);
        } else {
            damgn.static_b(&mut g, store);
        }
        g
    });
    let dynamic_c = bench_ms(5, 0.3, || {
        let mut g = Graph::new();
        let x = g.constant(x_t.clone());
        if sparse {
            damgn.dynamic_c_topk(&mut g, store, x, &pattern);
        } else {
            damgn.dynamic_c(&mut g, store, x);
        }
        g
    });
    let mut nnz = 0;
    let build = bench_ms(3, 0.3, || nnz = damgn.topk_pattern(store, setup::GRID_TOP_K).nnz());
    report.metric("damgn.static_b_ms", static_b, "ms");
    report.metric("damgn.dynamic_c_ms", dynamic_c, "ms");
    report.metric("damgn.topk_build_ms", build, "ms");
    report.metric("damgn.topk_nnz", nnz as f64, "count");
}

/// `gconv.ms`: a 2-hop graph-conv forward over the workload's supports
/// (dense `[N, N]` or CSR) with `[B, N, C]` input and a `C → C` map.
fn gconv_probe(report: &mut Report, supports: &[Tensor], csr: &[CsrMatrix], x: &Tensor) {
    let c = x.shape()[2];
    let num_supports = supports.len().max(csr.len());
    let mut rng = TensorRng::seed(12);
    let w = rng.xavier(&[(1 + num_supports * 2) * c, c], c, c);
    let csr: Vec<(Arc<CsrMatrix>, Arc<CsrMatrix>)> =
        csr.iter().map(|m| (Arc::new(m.clone()), Arc::new(m.transpose()))).collect();
    let ms = bench_ms(5, 0.3, || {
        let mut g = Graph::new();
        let xv = g.constant(x.clone());
        let wv = g.constant(w.clone());
        let bound: Vec<GcSupport> = if csr.is_empty() {
            supports.iter().map(|s| GcSupport::Static(g.constant(s.clone()))).collect()
        } else {
            csr.iter()
                .map(|(m, t)| GcSupport::Sparse { csr: m.clone(), csr_t: t.clone() })
                .collect()
        };
        graph_conv(&mut g, &bound, xv, wv, None, 2);
        g
    });
    report.metric("gconv.ms", ms, "ms");
}

/// `nn.gru_step_ms`: one GRU step forward at `train-la` shapes
/// (`[8, 207, 2]` input, hidden 16, shared weights).
fn gru_probe(report: &mut Report) {
    let (b, n, c, h) = (setup::LA_BATCH, 207, 2, setup::LA_HIDDEN);
    let mut rng = TensorRng::seed(13);
    let x = rng.normal(&[b, n, c], 0.0, 1.0);
    let h0 = rng.normal(&[b, n, h], 0.0, 1.0);
    let wx = rng.xavier(&[c, h], c, h);
    let wh = rng.xavier(&[h, h], h, h);
    let ms = bench_ms(20, 0.3, || {
        let mut g = Graph::new();
        let (xv, hv) = (g.constant(x.clone()), g.constant(h0.clone()));
        let (wxv, whv) = (g.constant(wx.clone()), g.constant(wh.clone()));
        gru_step(
            &mut g,
            xv,
            hv,
            |g, x, _| apply_entity_filter(g, x, wxv),
            |g, h, _| apply_entity_filter(g, h, whv),
            |_, _| None,
        );
        g
    });
    report.metric("nn.gru_step_ms", ms, "ms");
}

/// `nn.causal_conv_ms`: one dilated causal convolution (K = 2, d = 2)
/// forward over `[B, N, T, C]`: taps, per-tap `C → C` map, sum.
fn causal_conv_probe(report: &mut Report, shape: [usize; 4]) {
    let [b, n, t, c] = shape;
    let mut rng = TensorRng::seed(14);
    let x = rng.normal(&shape, 0.0, 1.0);
    let w = [rng.xavier(&[c, c], c, c), rng.xavier(&[c, c], c, c)];
    let ms = bench_ms(10, 0.3, || {
        let mut g = Graph::new();
        let xv = g.constant(x.clone());
        let taps = causal_conv_taps(&mut g, xv, 2, 2, 2);
        let mut acc = None;
        for (tap, w) in taps.into_iter().zip(&w) {
            let flat = g.reshape(tap, &[b * n * t, c]);
            let wv = g.constant(w.clone());
            let y = g.matmul(flat, wv);
            acc = Some(match acc {
                None => y,
                Some(a) => g.add(a, y),
            });
        }
        g
    });
    report.metric("nn.causal_conv_ms", ms, "ms");
}

/// `tensor.gemm_gflops`: batched GEMM at `train-la`'s diffusion shape,
/// `[8, 207, 207] × [8, 207, 32]` (the per-sample dynamic support times
/// the concatenated input and hidden state).
fn gemm_probe(report: &mut Report) {
    let (b, n, c) = (setup::LA_BATCH, 207, 2 * setup::LA_HIDDEN);
    let mut rng = TensorRng::seed(15);
    let a = rng.normal(&[b, n, n], 0.0, 1.0);
    let x = rng.normal(&[b, n, c], 0.0, 1.0);
    let mut out = Tensor::default();
    let ms = bench_ms(20, 0.3, || {
        a.bmm_into(&x, &mut out);
        out.data()[0]
    });
    let flops = 2.0 * (b * n * n * c) as f64;
    report.metric("tensor.gemm_gflops", flops / (ms * 1e-3) / 1e9, "GFLOP/s");
}

/// `tensor.spmm_ms`: CSR SpMM at `grid-4k` shapes: a random `[4000, 4000]`
/// matrix with 32 entries per row times a `[4, 4000, 8]` signal.
fn spmm_probe(report: &mut Report, seed: u64) {
    let (n, k) = (setup::GRID_N, setup::GRID_TOP_K);
    let mut pick = SplitMix::new(seed);
    let rows: Vec<Vec<(u32, f32)>> = (0..n)
        .map(|_| {
            let mut cols: Vec<u32> = Vec::with_capacity(k);
            while cols.len() < k {
                let col = pick.index(n) as u32;
                if !cols.contains(&col) {
                    cols.push(col);
                }
            }
            cols.sort_unstable();
            cols.into_iter().map(|col| (col, 1.0 / k as f32)).collect()
        })
        .collect();
    let csr = CsrMatrix::from_rows(n, n, &rows);
    let x = TensorRng::seed(16).normal(&[setup::GRID_BATCH, n, setup::GRID_HIDDEN], 0.0, 1.0);
    let mut out = Tensor::default();
    let ms = bench_ms(20, 0.3, || {
        csr.spmm_into(&x, &mut out);
        out.data()[0]
    });
    report.metric("tensor.spmm_ms", ms, "ms");
}

/// `plan.compile_ms.b{1,8}` and `plan.exec_ms.b{1,8}` on the workload's
/// model: `Forecaster::compile_eval_plan`, then warm `predict_into`.
fn plan_probe(report: &mut Report, model: &dyn Forecaster, pool: &[Tensor]) {
    for b in [1, setup::FLEET_MAX_BATCH] {
        let x = setup::batch_of(pool, b);
        let compile = bench_ms(1, 0.5, || {
            model.compile_eval_plan(&x).0.expect("workload model is plannable")
        });
        let mut out = Tensor::default();
        model.predict_into(&x, &mut out).expect("batch fits the model");
        let exec = bench_ms(3, 0.5, || model.predict_into(&x, &mut out).expect("warm predict"));
        report.metric(format!("plan.compile_ms.b{b}"), compile, "ms");
        report.metric(format!("plan.exec_ms.b{b}"), exec, "ms");
    }
}

/// Seconds of open-loop load in the `serve.*` probe.
const SERVE_PROBE_SECS: f64 = 4.0;

/// `serve.*` and `gen.*`: open-loop load at `RATE_HIGH` on a warmed fleet,
/// then a hot swap.
///
/// Queue wait is each reply's latency (from its due time) minus the warm
/// single-call plan time at the batch size that served it; batch sizes are
/// recovered from reply timing (`openloop::served_batches`).
fn serve_probe(report: &mut Report, serve: ServeSetup, seed: u64) {
    let exec_ms: Vec<f64> = (1..=setup::FLEET_MAX_BATCH)
        .map(|b| {
            let x = setup::batch_of(&serve.pool, b);
            let mut out = Tensor::default();
            serve.twin.predict_into(&x, &mut out).expect("batch fits the model");
            bench_ms(5, 0.1, || serve.twin.predict_into(&x, &mut out).expect("warm predict"))
        })
        .collect();
    let phase = openloop::run_phase(
        &serve.fleet,
        &serve.pool,
        RATE_HIGH,
        SERVE_PROBE_SECS,
        sub_seed(seed, 4000),
        8,
    );
    let mut waits = Vec::new();
    let mut batch_sizes = Vec::new();
    for batch in openloop::served_batches(&phase) {
        for &i in &batch {
            waits.push(phase.completions[i].latency_ms - exec_ms[batch.len() - 1]);
            batch_sizes.push(batch.len() as f64);
        }
    }
    let parity = openloop::parity(&phase, &serve.pool, &serve.twin);
    report.check(
        parity.compared > 0 && parity.mismatched == 0,
        format!(
            "serve probe: {} fleet answers bitwise equal to offline predict of their batch \
             ({} differ)",
            parity.compared, parity.mismatched
        ),
    );
    report.metric("serve.unbatched_differs", parity.unbatched_differs as f64, "count");
    report.ops(phase.completions.len() as u64, phase.failed);
    report.metric("serve.queue_wait_ms", median(&waits), "ms");
    report.metric("serve.batch_size_mean", mean(&batch_sizes), "count");
    report.metric("serve.rejected", phase.rejected as f64, "count");
    report.metric("gen.late_ms.p99", quantile(&phase.late_ms, 0.99), "ms");
    report.metric("gen.late_ms.max", quantile(&phase.late_ms, 1.0), "ms");

    // Hot swap: publish fresh weights, then time the first forecast after
    // it (the worker adopts the snapshot and recompiles its plan).
    let swapped = setup::us_model(&serve.us, SWAP_MODEL_SEED);
    let publisher = serve.fleet.publisher();
    let t0 = Instant::now();
    let epoch = publisher.publish(swapped.store()).expect("same architecture");
    let publish_ms = ms_since(t0);
    let t0 = Instant::now();
    let reply = serve
        .fleet
        .submit(&serve.pool[0])
        .and_then(|p| p.wait(openloop::DEADLINE * 30))
        .expect("post-swap forecast");
    let first_ms = ms_since(t0);
    // Values of that forecast that differ from the offline predict on the
    // new weights. A correct swap gives 0; the count is reported rather
    // than checked because the fleet currently answers with neither the
    // old nor the new weights for DFGN/DAMGN models (see README.md).
    let offline = swapped.predict(&serve.pool[0]).expect("pool window fits the model");
    report.check(epoch == 1, format!("hot swap published epoch 1 (got {epoch})"));
    let stale = reply.data().iter().zip(offline.data()).filter(|(a, b)| a != b).count();
    report.metric("serve.swap_mismatch", stale as f64, "count");
    report.metric("serve.publish_ms", publish_ms, "ms");
    report.metric("serve.first_after_swap_ms", first_ms, "ms");
    serve.fleet.shutdown(ShutdownMode::Drain);
}

/// Days of weather generated for the `serve.*` probe of the workloads that
/// do not serve (the probe needs windows and a scaler, not five years).
const SERVE_PROBE_DAYS: usize = 60;

/// What the model-level probes run on: one workload's data, model and
/// graph supports.
struct Target<'a, M> {
    data: &'a WindowDataset,
    model: M,
    /// A fresh model with the same initial weights as `model`.
    reference: M,
    batch: usize,
    hidden: usize,
    supports: &'a [Tensor],
    csr: &'a [CsrMatrix],
    /// `[B, N, T, C]` of the causal-convolution probe.
    conv_shape: [usize; 4],
}

/// The training-step, DFGN, DAMGN, graph-conv, causal-conv and plan probes.
fn model_probes<M: Forecaster>(report: &mut Report, t: Target<'_, M>, step_budget: f64) {
    let Target { data, mut model, reference, batch, hidden, supports, csr, conv_shape } = t;
    training_probes(report, data, &mut model, reference, batch, step_budget);
    let pool = setup::window_pool(data, 8);
    let x_t = setup::batch_of(&pool, batch).index_axis(1, data.h - 1);
    let n = data.num_entities();
    dfgn_probe(report, &model, n);
    damgn_probe(report, &model, &x_t);
    let signal = TensorRng::seed(17).normal(&[batch, n, hidden], 0.0, 1.0);
    gconv_probe(report, supports, csr, &signal);
    causal_conv_probe(report, conv_shape);
    plan_probe(report, &model, &pool);
}

/// Model-level probes of a training workload.
fn probe_training<M: Forecaster>(
    report: &mut Report,
    setup: TrainSetup<M>,
    hidden: usize,
    conv_shape: [usize; 4],
    step_budget: f64,
) {
    let TrainSetup { data, model, batch, supports, sparse_supports, rebuild } = setup;
    let target = Target {
        data: &data,
        model,
        reference: rebuild(),
        batch,
        hidden,
        supports: &supports,
        csr: &sparse_supports,
        conv_shape,
    };
    model_probes(report, target, step_budget);
}

/// The traced run of `workload`.
pub fn run(workload: &str, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let step_budget = seconds * 0.5;
    match workload {
        "serve-us" => {
            let serve = workloads::serve_setup(seed, None);
            report.check(serve.warmed, "every batch size 1..=8 warmed on every fleet worker");
            let data = &serve.us.data;
            let supports = enhancenet_graph::build_supports(
                &serve.us.adjacency,
                enhancenet_graph::SupportKind::DoubleTransition,
            );
            let target = Target {
                data,
                model: setup::us_model(&serve.us, MODEL_SEED),
                reference: setup::us_model(&serve.us, MODEL_SEED),
                batch: setup::FLEET_MAX_BATCH,
                hidden: setup::US_HIDDEN,
                supports: &supports,
                csr: &[],
                conv_shape: [setup::FLEET_MAX_BATCH, data.num_entities(), 12, setup::US_HIDDEN],
            };
            model_probes(&mut report, target, step_budget);
            serve_probe(&mut report, serve, seed);
        }
        _ => {
            if workload == "train-la" {
                // Causal convolution is off `train-la`'s path: probed at
                // `serve-us` shapes.
                let conv_shape = [setup::FLEET_MAX_BATCH, 36, 12, setup::US_HIDDEN];
                let la = setup::la_setup(seed);
                probe_training(&mut report, la, setup::LA_HIDDEN, conv_shape, step_budget);
            } else {
                let conv_shape =
                    [setup::GRID_BATCH, setup::GRID_N, setup::GRID_H, setup::GRID_HIDDEN];
                let grid = setup::grid_setup(seed);
                probe_training(&mut report, grid, setup::GRID_HIDDEN, conv_shape, step_budget);
            }
            let serve = workloads::serve_setup(seed, Some(SERVE_PROBE_DAYS));
            serve_probe(&mut report, serve, seed);
        }
    }
    gru_probe(&mut report);
    gemm_probe(&mut report);
    spmm_probe(&mut report, sub_seed(seed, 18));
    report
}
