//! Hot swap under load: publishing new weights to a running
//! [`FleetService`] must be invisible to tenants — zero degraded
//! forecasts attributable to the swap — and every post-swap answer must
//! match the offline [`Forecaster::predict`] on the new weights bit for
//! bit, exactly as every pre-swap answer matches the old weights. That
//! holds for plugin hosts too, whose plans carry values derived from the
//! weights at trace time (DFGN filters, the DAMGN static fold and top-k
//! pattern).

use enhancenet::prelude::*;
use enhancenet_graph::{gaussian_kernel_adjacency, AdjacencyConfig};
use enhancenet_models::{GraphMode, GruSeq2Seq, ModelDims, TemporalMode, WaveNet};
use enhancenet_tensor::Tensor;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const H: usize = 12;
const F: usize = 12;
const N: usize = 8;

/// Same constructor arguments → bit-identical parameters: seed 3 is "the
/// model the fleet was launched with", seed 4 is "the retrained weights"
/// (same architecture, so the snapshot layout contract holds).
fn model(seed: u64) -> GruSeq2Seq {
    GruSeq2Seq::rnn(dims(), 1, TemporalMode::Shared, seed)
}

fn dims() -> ModelDims {
    ModelDims { num_entities: N, in_features: 1, hidden: 8, input_len: H, output_len: F }
}

#[test]
fn hot_swap_under_load_is_invisible_and_bitwise_correct() {
    let series = generate_traffic(&TrafficConfig::tiny(N, 2));
    let data = WindowDataset::from_series(&series, H, F).unwrap();
    let (n, c) = (series.num_entities(), series.num_features());

    // Generous deadline: this test asserts *zero* degraded responses, so
    // scheduler hiccups on a loaded runner must not masquerade as swap
    // fallout.
    let fleet = ServeConfig::builder()
        .workers(2)
        .deadline(Duration::from_secs(10))
        .spawn_fleet(Box::new(model(3)), data.scaler.clone())
        .unwrap();
    let old = model(3);
    let new = model(4);
    let publisher = fleet.publisher();

    let swap_at = 30;
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Background load: a second tenant hammering its (static) window
        // through the whole run, including the swap instant.
        let hammer = scope.spawn(|| {
            let tenant = fleet.tenant("hammer");
            for t in 0..H {
                let row = &series.values.data()[t * n * c..(t + 1) * n * c];
                tenant.ingest_row(t as i64, row).unwrap();
            }
            let mut served = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let forecast = tenant.forecast().expect("forecasts never error");
                assert!(
                    !forecast.is_degraded(),
                    "hammer tenant degraded mid-run: {:?}",
                    forecast.degraded
                );
                served += 1;
            }
            served
        });

        // Foreground stream: every answer compared bitwise against the
        // offline predict on whichever weights are live.
        let tenant = fleet.tenant("stream");
        let mut compared_old = 0;
        let mut compared_new = 0;
        for t in 0..60 {
            if t == swap_at {
                assert_eq!(fleet.epoch(), 0);
                let epoch = publisher.publish(new.store()).unwrap();
                assert_eq!(epoch, 1);
                assert_eq!(fleet.epoch(), 1);
            }
            let row = &series.values.data()[t * n * c..(t + 1) * n * c];
            tenant.ingest_row(t as i64, row).unwrap();
            if !tenant.is_ready() {
                continue;
            }
            let served = tenant.forecast().unwrap();
            assert!(!served.is_degraded(), "degraded at t={t}: {:?}", served.degraded);

            let raw = series.values.slice_axis(0, t + 1 - H, t + 1);
            let scaled = data.scaler.transform(&raw).unwrap();
            let live = if t < swap_at { &old } else { &new };
            let expected = data.scaler.inverse_feature(&live.predict(&scaled).unwrap(), 0);
            assert_eq!(
                served.values.data(),
                expected.data(),
                "served diverged from offline predict on the live weights at t={t}"
            );
            if t >= swap_at {
                // The swap visibly changed the answers: the old weights
                // would have said something else for the same window.
                let stale = data.scaler.inverse_feature(&old.predict(&scaled).unwrap(), 0);
                assert_ne!(served.values.data(), stale.data(), "swap never took effect at t={t}");
                compared_new += 1;
            } else {
                compared_old += 1;
            }
        }
        assert!(compared_old >= 15, "only {compared_old} pre-swap forecasts compared");
        assert!(compared_new >= 25, "only {compared_new} post-swap forecasts compared");

        stop.store(true, Ordering::Relaxed);
        let served = hammer.join().expect("hammer thread ran");
        assert!(served > 0, "background tenant never got a forecast through");
    });

    // No tenant saw ANY degradation or throttling across the swap, and a
    // drain shutdown completes with nothing shed.
    for report in fleet.tenant_reports() {
        assert_eq!(report.degraded, 0, "tenant {} degraded", report.tenant);
        assert_eq!(report.throttled, 0, "tenant {} throttled", report.tenant);
        assert_eq!(report.slo.degraded_rate, 0.0);
    }
    let shutdown = fleet.shutdown(ShutdownMode::Drain);
    assert_eq!(shutdown.shed, 0, "drain shutdown must not shed");
}

/// Streams the series into one tenant of a fleet launched with
/// `make(3)`, publishes `make(4)`'s weights half way, and checks every
/// answer bitwise against the offline predict of the live weights.
fn assert_swap_serves_new_weights<M>(make: impl Fn(u64) -> M)
where
    M: Forecaster + Send + 'static,
{
    let series = generate_traffic(&TrafficConfig::tiny(N, 2));
    let data = WindowDataset::from_series(&series, H, F).unwrap();
    let (n, c) = (series.num_entities(), series.num_features());
    let fleet = ServeConfig::builder()
        .deadline(Duration::from_secs(10))
        .spawn_fleet(Box::new(make(3)), data.scaler.clone())
        .unwrap();
    let (old, new) = (make(3), make(4));
    let name = old.name().to_string();
    let tenant = fleet.tenant("stream");
    let swap_at = H + 3;
    let mut compared_new = 0;
    for t in 0..H + 8 {
        if t == swap_at {
            assert_eq!(fleet.publisher().publish(new.store()).unwrap(), 1);
        }
        let row = &series.values.data()[t * n * c..(t + 1) * n * c];
        tenant.ingest_row(t as i64, row).unwrap();
        if !tenant.is_ready() {
            continue;
        }
        let served = tenant.forecast().unwrap();
        assert!(!served.is_degraded(), "{name} degraded at t={t}: {:?}", served.degraded);
        let raw = series.values.slice_axis(0, t + 1 - H, t + 1);
        let scaled = data.scaler.transform(&raw).unwrap();
        let offline = |model: &M| -> Tensor {
            data.scaler.inverse_feature(&model.predict(&scaled).unwrap(), 0)
        };
        let live = if t < swap_at { &old } else { &new };
        let mismatched = served
            .values
            .data()
            .iter()
            .zip(offline(live).data())
            .filter(|(a, b)| a.to_bits() != b.to_bits())
            .count();
        assert_eq!(
            mismatched,
            0,
            "{name} at t={t}: {mismatched} of {} served values differ from offline predict \
             on the live weights",
            served.values.numel()
        );
        if t >= swap_at {
            assert_ne!(served.values.data(), offline(&old).data(), "{name}: swap ignored");
            compared_new += 1;
        }
    }
    assert!(compared_new >= 5, "{name}: only {compared_new} post-swap forecasts compared");
    assert_eq!(fleet.shutdown(ShutdownMode::Drain).shed, 0);
}

fn adjacency() -> Tensor {
    let series = generate_traffic(&TrafficConfig::tiny(N, 2));
    gaussian_kernel_adjacency(&series.distances, AdjacencyConfig::default())
}

#[test]
fn hot_swap_recompiles_dfgn_filters_from_new_weights() {
    assert_swap_serves_new_weights(|seed| GruSeq2Seq::paper_d_rnn(dims(), 1, seed));
}

#[test]
fn hot_swap_recompiles_damgn_static_fold_from_new_weights() {
    let adjacency = adjacency();
    assert_swap_serves_new_weights(|seed| WaveNet::paper_d_da_gtcn(dims(), &adjacency, seed));
}

#[test]
fn hot_swap_recompiles_damgn_topk_pattern_from_new_weights() {
    let adjacency = adjacency();
    assert_swap_serves_new_weights(|seed| {
        GruSeq2Seq::grnn(
            dims(),
            1,
            TemporalMode::Shared,
            GraphMode::paper_dynamic_topk(3),
            &adjacency,
            seed,
        )
    });
}
