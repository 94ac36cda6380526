//! Overhead of the telemetry primitives: the disabled fast path (one
//! relaxed atomic load — what every kernel call pays in production) vs.
//! the enabled path (mutexed registry update), and a small instrumented
//! matmul with telemetry off vs. on. Covers the span guard with counters
//! and with histogram `observe`.

use criterion::{criterion_group, criterion_main, Criterion};
use enhancenet_tensor::TensorRng;
use std::hint::black_box;

fn bench_telemetry(c: &mut Criterion) {
    enhancenet_telemetry::set_enabled(false);
    c.bench_function("telemetry/disabled/span+count", |b| {
        b.iter(|| {
            let _s = enhancenet_telemetry::span(black_box("bench.span"));
            enhancenet_telemetry::count(black_box("bench.counter"), 1);
        });
    });

    enhancenet_telemetry::set_enabled(true);
    c.bench_function("telemetry/enabled/span+count", |b| {
        b.iter(|| {
            let _s = enhancenet_telemetry::span(black_box("bench.span"));
            enhancenet_telemetry::count(black_box("bench.counter"), 1);
        });
    });
    enhancenet_telemetry::set_enabled(false);
    enhancenet_telemetry::reset();

    c.bench_function("telemetry/disabled/span+observe", |b| {
        b.iter(|| {
            let _s = enhancenet_telemetry::span(black_box("bench.span"));
            enhancenet_telemetry::observe(black_box("bench.histogram"), black_box(42.0));
        });
    });
    enhancenet_telemetry::set_enabled(true);
    c.bench_function("telemetry/enabled/span+observe", |b| {
        b.iter(|| {
            let _s = enhancenet_telemetry::span(black_box("bench.span"));
            enhancenet_telemetry::observe(black_box("bench.histogram"), black_box(42.0));
        });
    });
    enhancenet_telemetry::set_enabled(false);
    enhancenet_telemetry::reset();

    let mut rng = TensorRng::seed(7);
    let a = rng.normal(&[64, 64], 0.0, 1.0);
    let b_mat = rng.normal(&[64, 64], 0.0, 1.0);
    c.bench_function("telemetry/matmul64/disabled", |b| {
        b.iter(|| black_box(a.matmul(&b_mat)));
    });
    enhancenet_telemetry::set_enabled(true);
    c.bench_function("telemetry/matmul64/enabled", |b| {
        b.iter(|| black_box(a.matmul(&b_mat)));
    });
    enhancenet_telemetry::set_enabled(false);
    enhancenet_telemetry::reset();
}

criterion_group!(benches, bench_telemetry);
criterion_main!(benches);
