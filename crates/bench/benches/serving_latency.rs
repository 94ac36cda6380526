//! Serving-path latency, LA-shaped (207 entities, 12 -> 12):
//!
//! * `round_trip_batch1` vs `direct_predict` — the full single-worker
//!   [`FleetService`] tenant round-trip (queue, worker thread, scaler
//!   inverse) must not regress against a bare `predict` call for a lone
//!   request.
//! * `microbatch{8,32}` vs `sequential{8,32}` — N concurrent submissions
//!   answered by one batched forward pass vs N sequential `predict`
//!   calls, on two host families (GRU and WaveNet).
//! * `plan_predict` vs `tape_predict` — the compiled-plan serving path
//!   (`predict`, arena execution) against the define-by-run reference
//!   (`predict_tape`, fresh graph per call) on both hosts.
//!
//! p50/p95 percentile tables (burst sizes 1/8/32, then plan vs tape) are
//! printed before the Criterion runs. Set
//! `ENHANCENET_PLAN_TELEMETRY_OUT=<path>` to also record the plan/tape
//! latency samples as telemetry histograms and dump them as JSONL —
//! `scripts/bench_summary` turns that into `BENCH_serving_plan.json`.

use criterion::{criterion_group, Criterion};
use enhancenet::prelude::*;
use enhancenet_models::{GruSeq2Seq, ModelDims, TemporalMode, WaveNet, WaveNetConfig};
use enhancenet_tensor::{Tensor, TensorRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

const LA_N: usize = 207;

fn la_dims(hidden: usize) -> ModelDims {
    ModelDims { num_entities: LA_N, in_features: 1, hidden, input_len: 12, output_len: 12 }
}

fn la_scaler() -> StandardScaler {
    let mut rng = TensorRng::seed(5);
    let history = rng.normal(&[64, LA_N, 1], 60.0, 8.0);
    StandardScaler::fit(&history, 48).unwrap()
}

fn gru_host() -> Box<dyn Forecaster + Send> {
    Box::new(GruSeq2Seq::rnn(la_dims(16), 1, TemporalMode::Shared, 1))
}

fn wavenet_host() -> Box<dyn Forecaster + Send> {
    let config = WaveNetConfig {
        dilations: vec![1, 2, 1, 2, 1, 2, 1, 2],
        kernel: 2,
        end_hidden: 32,
        dropout: 0.3,
    };
    Box::new(WaveNet::tcn(la_dims(16), config, TemporalMode::Shared, 1))
}

fn la_service(
    model: Box<dyn Forecaster + Send>,
    max_batch: usize,
    max_wait: Duration,
) -> FleetService {
    ServeConfig::builder()
        .workers(1)
        .max_batch(max_batch)
        .max_wait(max_wait)
        .queue_capacity(128)
        .deadline(Duration::from_secs(30))
        .target_feature(0)
        .spawn_fleet(model, la_scaler())
        .unwrap()
}

fn la_windows(count: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = TensorRng::seed(seed);
    (0..count).map(|_| rng.normal(&[12, LA_N, 1], 0.0, 1.0)).collect()
}

/// Burst of `batch` submissions answered through the micro-batch worker.
fn burst(svc: &FleetService, windows: &[Tensor]) {
    let pendings: Vec<_> = windows.iter().map(|w| svc.submit(w).unwrap()).collect();
    for pending in pendings {
        black_box(pending.wait(Duration::from_secs(30)).unwrap());
    }
}

/// Lone-request round trip (ingested state, full raw-scale API) vs a bare
/// `predict` on the identical scaled window.
fn bench_single_round_trip(c: &mut Criterion) {
    let svc = la_service(gru_host(), 1, Duration::ZERO);
    let stream = svc.tenant("la");
    let mut window = SlidingWindow::new(12, LA_N, 1);
    let mut rng = TensorRng::seed(7);
    for t in 0..12 {
        let row = rng.normal(&[LA_N], 60.0, 8.0);
        stream.ingest_row(t, row.data()).unwrap();
        window.ingest_row(t, row.data()).unwrap();
    }
    c.bench_function("serve/round_trip_batch1_RNN_207", |b| {
        b.iter(|| black_box(stream.forecast().unwrap()));
    });

    let direct = gru_host();
    let scaled = la_scaler().transform(&window.window().unwrap()).unwrap();
    c.bench_function("serve/direct_predict_RNN_207", |b| {
        b.iter(|| black_box(direct.predict(&scaled).unwrap()));
    });
}

fn bench_micro_batching_host(
    c: &mut Criterion,
    name: &str,
    make: &dyn Fn() -> Box<dyn Forecaster + Send>,
) {
    for &batch in &[8usize, 32] {
        let windows = la_windows(batch, 9);
        let svc = la_service(make(), batch, Duration::from_millis(20));
        c.bench_function(format!("serve/microbatch{batch}_{name}_207"), |b| {
            b.iter(|| burst(&svc, &windows));
        });
        let direct = make();
        c.bench_function(format!("serve/sequential{batch}_{name}_207"), |b| {
            b.iter(|| {
                for window in &windows {
                    black_box(direct.predict(window).unwrap());
                }
            });
        });
        svc.shutdown(ShutdownMode::Drain);
    }
}

fn bench_micro_batching(c: &mut Criterion) {
    bench_micro_batching_host(c, "RNN", &gru_host);
    bench_micro_batching_host(c, "TCN", &wavenet_host);
}

/// Compiled plan vs tape on a bare rank-3 `predict` — the serving fast
/// path this bench file exists to defend.
type HostFactory = fn() -> Box<dyn Forecaster + Send>;

fn bench_plan_vs_tape(c: &mut Criterion) {
    for (name, make) in [("RNN", gru_host as HostFactory), ("TCN", wavenet_host as HostFactory)] {
        let model = make();
        let window = &la_windows(1, 13)[0];
        let mut out = Tensor::default();
        model.predict_into(window, &mut out).unwrap(); // compile outside the timer
        c.bench_function(format!("serve/plan_predict_{name}_207"), |b| {
            b.iter(|| {
                model.predict_into(window, &mut out).unwrap();
                black_box(&out);
            });
        });
        c.bench_function(format!("serve/tape_predict_{name}_207"), |b| {
            b.iter(|| black_box(model.predict_tape(window).unwrap()));
        });
    }
}

/// Explicit burst-latency percentiles (the SLO view Criterion's summary
/// does not give directly).
fn percentile_report() {
    println!("serve burst latency (GRU host, {LA_N} entities), 50 bursts each:");
    for &batch in &[1usize, 8, 32] {
        let windows = la_windows(batch, 11);
        let svc = la_service(gru_host(), batch.max(1), Duration::from_millis(20));
        // Warm-up burst so thread spawn and first-tape costs are excluded.
        burst(&svc, &windows);
        let mut samples: Vec<Duration> = (0..50)
            .map(|_| {
                let started = Instant::now();
                burst(&svc, &windows);
                started.elapsed()
            })
            .collect();
        samples.sort();
        let p50 = samples[samples.len() / 2];
        let p95 = samples[samples.len() * 95 / 100];
        println!(
            "  batch={batch:<3} p50 {:>8.3} ms   p95 {:>8.3} ms   per-window p50 {:>8.3} ms",
            p50.as_secs_f64() * 1e3,
            p95.as_secs_f64() * 1e3,
            p50.as_secs_f64() * 1e3 / batch as f64,
        );
        svc.shutdown(ShutdownMode::Drain);
    }
}

/// Plan-vs-tape percentiles on a bare `predict`, per host. With
/// `ENHANCENET_PLAN_TELEMETRY_OUT=<path>` the samples are also recorded
/// as `plan.predict_ns.*` / `plan.tape_ns.*` histograms and dumped as
/// telemetry JSONL for `scripts/bench_summary`.
fn plan_vs_tape_report() {
    let telemetry_out = std::env::var_os("ENHANCENET_PLAN_TELEMETRY_OUT");
    if telemetry_out.is_some() {
        enhancenet_telemetry::set_enabled(true);
    }
    println!("plan vs tape predict latency ({LA_N} entities), 50 calls each:");
    let hosts: [(&str, HostFactory, &str, &str); 2] = [
        ("RNN", gru_host, "plan.predict_ns.RNN", "plan.tape_ns.RNN"),
        ("TCN", wavenet_host, "plan.predict_ns.TCN", "plan.tape_ns.TCN"),
    ];
    for (name, make, plan_label, tape_label) in hosts {
        let model = make();
        let window = &la_windows(1, 13)[0];
        let mut out = Tensor::default();
        // Compile + warm the arena and scratch pool outside the samples.
        for _ in 0..3 {
            model.predict_into(window, &mut out).unwrap();
        }
        let measure = |label: &str, f: &mut dyn FnMut()| -> (Duration, Duration) {
            let mut samples: Vec<Duration> = (0..50)
                .map(|_| {
                    let started = Instant::now();
                    f();
                    let elapsed = started.elapsed();
                    enhancenet_telemetry::observe(label, elapsed.as_nanos() as f64);
                    elapsed
                })
                .collect();
            samples.sort();
            (samples[samples.len() / 2], samples[samples.len() * 95 / 100])
        };
        let (plan_p50, plan_p95) = measure(plan_label, &mut || {
            model.predict_into(window, &mut out).unwrap();
            black_box(&out);
        });
        let (tape_p50, tape_p95) = measure(tape_label, &mut || {
            black_box(model.predict_tape(window).unwrap());
        });
        println!(
            "  {name:<4} plan p50 {:>8.3} ms  p95 {:>8.3} ms   tape p50 {:>8.3} ms  p95 {:>8.3} ms   speedup p50 {:.2}x",
            plan_p50.as_secs_f64() * 1e3,
            plan_p95.as_secs_f64() * 1e3,
            tape_p50.as_secs_f64() * 1e3,
            tape_p95.as_secs_f64() * 1e3,
            tape_p50.as_secs_f64() / plan_p50.as_secs_f64(),
        );
    }
    if let Some(path) = telemetry_out {
        let path = std::path::PathBuf::from(path);
        enhancenet_telemetry::write_jsonl(&path).expect("telemetry JSONL is writable");
        println!("plan/tape telemetry written to {}", path.display());
        enhancenet_telemetry::set_enabled(false);
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_single_round_trip, bench_micro_batching, bench_plan_vs_tape
}

fn main() {
    percentile_report();
    plan_vs_tape_report();
    benches();
    Criterion::default().configure_from_args().final_summary();
}
