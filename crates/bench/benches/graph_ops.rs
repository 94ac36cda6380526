//! Benchmarks of the graph substrate: adjacency construction,
//! normalization, support building, tape-level graph convolution, and one
//! graph-convolutional GRU cell step with its diffusion shared across gates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use enhancenet::gconv::gc_input_dim;
use enhancenet::{graph_conv, DiffusionMemo, GcSupport};
use enhancenet_autodiff::Graph;
use enhancenet_graph::{
    build_supports, gaussian_kernel_adjacency, normalize_rows, pairwise_euclidean, AdjacencyConfig,
    SupportKind,
};
use enhancenet_nn::cell::{gru_step, Gate};
use enhancenet_tensor::TensorRng;
use std::hint::black_box;

fn bench_adjacency_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("adjacency_from_coords");
    for &n in &[50usize, 207] {
        let coords = TensorRng::seed(1).uniform(&[n, 2], 0.0, 50.0);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let d = pairwise_euclidean(&coords);
                black_box(gaussian_kernel_adjacency(&d, AdjacencyConfig::default()))
            });
        });
    }
    group.finish();
}

fn bench_normalization(c: &mut Criterion) {
    let a = TensorRng::seed(2).uniform(&[207, 207], 0.0, 1.0);
    c.bench_function("normalize_rows_207", |b| b.iter(|| black_box(normalize_rows(&a))));
    c.bench_function("double_transition_supports_207", |b| {
        b.iter(|| black_box(build_supports(&a, SupportKind::DoubleTransition)));
    });
}

fn bench_graph_conv(c: &mut Criterion) {
    // Static vs dynamic supports at the paper's LA size (207 entities).
    let n = 207;
    let (bsz, cin, cout, hops) = (4usize, 16usize, 16usize, 2usize);
    let mut rng = TensorRng::seed(3);
    let a_t = rng.uniform(&[n, n], 0.0, 0.1);
    let x_t = rng.normal(&[bsz, n, cin], 0.0, 1.0);
    let w_t = rng.normal(&[gc_input_dim(cin, 1, hops), cout], 0.0, 0.3);
    let a_dyn_t = rng.uniform(&[bsz, n, n], 0.0, 0.1);

    c.bench_function("graph_conv_static_207", |b| {
        b.iter(|| {
            let mut g = Graph::new();
            let a = g.constant(a_t.clone());
            let x = g.constant(x_t.clone());
            let w = g.constant(w_t.clone());
            black_box(graph_conv(&mut g, &[GcSupport::Static(a)], x, w, None, hops))
        });
    });
    c.bench_function("graph_conv_dynamic_207", |b| {
        b.iter(|| {
            let mut g = Graph::new();
            let a = g.constant(a_dyn_t.clone());
            let x = g.constant(x_t.clone());
            let w = g.constant(w_t.clone());
            black_box(graph_conv(&mut g, &[GcSupport::Dynamic(a)], x, w, None, hops))
        });
    });
}

fn bench_graph_conv_backward(c: &mut Criterion) {
    let n = 100;
    let (bsz, cin, cout, hops) = (4usize, 16usize, 16usize, 2usize);
    let mut rng = TensorRng::seed(4);
    let a_t = rng.uniform(&[n, n], 0.0, 0.1);
    let x_t = rng.normal(&[bsz, n, cin], 0.0, 1.0);
    let w_t = rng.normal(&[gc_input_dim(cin, 1, hops), cout], 0.0, 0.3);
    c.bench_function("graph_conv_fwd_bwd_100", |b| {
        b.iter(|| {
            let mut g = Graph::new();
            let a = g.constant(a_t.clone());
            let x = g.constant(x_t.clone());
            let w = g.constant(w_t.clone());
            let y = graph_conv(&mut g, &[GcSupport::Static(a)], x, w, None, hops);
            let loss = g.sum_all(y);
            g.backward(loss);
            black_box(g.grad(w).is_some())
        });
    });
}

fn bench_gru_cell_dynamic(c: &mut Criterion) {
    // One D-DA-GRNN encoder cell step (forward + backward) at the paper's
    // LA shapes: batch 8, N = 207, 2 input features, hidden 16, per-entity
    // filters, 2 per-sample supports × 2 hops. `x`, `h` and `r ⊙ h` are each
    // diffused once and shared by the gates' filters.
    let n = 207;
    let (bsz, cin, hidden, hops, num_supports) = (8usize, 2usize, 16usize, 2usize, 2usize);
    let mut rng = TensorRng::seed(5);
    let supports_t: Vec<_> =
        (0..num_supports).map(|_| rng.uniform(&[bsz, n, n], 0.0, 2.0 / n as f32)).collect();
    let x_t = rng.normal(&[bsz, n, cin], 0.0, 1.0);
    let h_t = rng.normal(&[bsz, n, hidden], 0.0, 0.5);
    let gc_x = gc_input_dim(cin, num_supports, hops);
    let gc_h = gc_input_dim(hidden, num_supports, hops);
    let w_t: Vec<_> = (0..3).map(|_| rng.normal(&[n, gc_x, hidden], 0.0, 0.2)).collect();
    let u_t: Vec<_> = (0..3).map(|_| rng.normal(&[n, gc_h, hidden], 0.0, 0.1)).collect();
    let gate = |g: Gate| match g {
        Gate::Reset => 0,
        Gate::Update => 1,
        _ => 2,
    };
    c.bench_function("gru_cell_dynamic_207", |b| {
        b.iter(|| {
            let mut g = Graph::new();
            let supports = supports_t.iter().map(|a| GcSupport::Dynamic(g.constant(a.clone())));
            let scope = DiffusionMemo::new(supports.collect(), hops);
            let x = g.constant(x_t.clone());
            let h = g.constant(h_t.clone());
            let w: Vec<_> = w_t.iter().map(|t| g.constant(t.clone())).collect();
            let u: Vec<_> = u_t.iter().map(|t| g.constant(t.clone())).collect();
            let h_next = gru_step(
                &mut g,
                x,
                h,
                |g, v, k| scope.conv(g, v, w[gate(k)], None),
                |g, v, k| scope.conv(g, v, u[gate(k)], None),
                |_, _| None,
            );
            let loss = g.sum_all(h_next);
            g.backward(loss);
            black_box(g.grad(h).is_some())
        });
    });
}

criterion_group!(
    benches,
    bench_adjacency_construction,
    bench_normalization,
    bench_graph_conv,
    bench_graph_conv_backward,
    bench_gru_cell_dynamic,
);
criterion_main!(benches);
