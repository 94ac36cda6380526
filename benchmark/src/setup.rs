//! Workload set-up: data generation and model construction. Every input
//! is generated from the workload seed; the library sees only the
//! generated data.

use crate::stats::sub_seed;
use enhancenet::prelude::*;
use enhancenet_data::{generate_grid_series, GridConfig};
use enhancenet_graph::{
    build_supports, build_supports_csr, gaussian_kernel_adjacency, AdjacencyConfig, SupportKind,
};
use enhancenet_models::{GraphMode, GruSeq2Seq, ModelDims, TemporalMode, WaveNet, WaveNetConfig};
use enhancenet_tensor::{CsrMatrix, Tensor};
use std::time::Instant;

/// Sub-seed streams of the workload seed: the inputs (generated data and
/// request arrival times).
pub const DATA_STREAM: u64 = 1;
pub const ARRIVAL_STREAM: u64 = 4;

/// Model initialisation and training-order seeds are part of the workload
/// definition, not of its inputs: with them fixed, `val_mae` moves by
/// ~0.3 % across data seeds (interquartile range over median, ten seeds on
/// `grid-4k`), against ~25 % when the workload seed also re-draws the
/// initial weights and the first batches.
pub const MODEL_SEED: u64 = 7;
pub const TRAIN_SEED: u64 = 3;
/// Initialisation seed of the weights published in the hot-swap probe.
pub const SWAP_MODEL_SEED: u64 = 8;

/// `train-la`: D-DA-GRNN (2 layers, hidden 16) at batch 8.
pub const LA_BATCH: usize = 8;
pub const LA_HIDDEN: usize = 16;
pub const LA_LAYERS: usize = 2;

/// `serve-us`: D-DA-GTCN (hidden 16, paper dilations) behind the fleet.
pub const US_HIDDEN: usize = 16;
pub const FLEET_WORKERS: usize = 2;
pub const FLEET_MAX_BATCH: usize = 8;
pub const FLEET_QUEUE: usize = 256;

/// `grid-4k`: sparse D-DA-GTCN, top-k 32, the `graph_scaling` small config
/// (on 200 steps of data, so the validation split holds 20 windows).
pub const GRID_N: usize = 4000;
pub const GRID_STEPS: usize = 200;
pub const GRID_H: usize = 4;
pub const GRID_F: usize = 2;
pub const GRID_HIDDEN: usize = 8;
pub const GRID_TOP_K: usize = 32;
pub const GRID_BATCH: usize = 4;

/// Runs `f` and returns its result with the elapsed wall seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// The training set-up shared by `train-la` and `grid-4k`.
pub struct TrainSetup<M> {
    pub data: WindowDataset,
    pub model: M,
    pub batch: usize,
    /// Dense normalized supports (`train-la`), for the graph-conv probe.
    pub supports: Vec<Tensor>,
    /// CSR supports (`grid-4k`), for the graph-conv and SpMM probes.
    pub sparse_supports: Vec<CsrMatrix>,
    /// Builds a fresh model with the same initial weights as `model`.
    pub rebuild: Box<dyn Fn() -> M>,
}

/// `train-la` data: the LA traffic analogue (N = 207, C = 2, H = F = 12).
pub fn la_setup(seed: u64) -> TrainSetup<GruSeq2Seq> {
    let series = generate_traffic(&TrafficConfig {
        seed: sub_seed(seed, DATA_STREAM),
        ..TrafficConfig::la()
    });
    let adjacency = gaussian_kernel_adjacency(&series.distances, AdjacencyConfig::default());
    let data = WindowDataset::from_series(&series, 12, 12).expect("LA series covers H + F");
    drop(series);
    let dims = ModelDims::paper(data.num_entities(), data.num_features(), LA_HIDDEN);
    let supports = build_supports(&adjacency, SupportKind::DoubleTransition);
    let rebuild: Box<dyn Fn() -> GruSeq2Seq> =
        Box::new(move || GruSeq2Seq::paper_d_da_grnn(dims, LA_LAYERS, &adjacency, MODEL_SEED));
    let model = rebuild();
    TrainSetup { data, model, batch: LA_BATCH, supports, sparse_supports: Vec::new(), rebuild }
}

fn grid_model(bases: Vec<CsrMatrix>, seed: u64) -> WaveNet {
    let dims = ModelDims {
        num_entities: GRID_N,
        in_features: 1,
        hidden: GRID_HIDDEN,
        input_len: GRID_H,
        output_len: GRID_F,
    };
    let config = WaveNetConfig { dilations: vec![1, 2], kernel: 2, end_hidden: 16, dropout: 0.0 };
    WaveNet::gtcn_sparse(
        dims,
        config,
        TemporalMode::Distinct(DfgnConfig::default()),
        GraphMode::paper_dynamic_topk(GRID_TOP_K),
        bases,
        seed,
    )
}

/// `grid-4k` data: a jittered-grid series at N = 4000 with CSR
/// dual-transition supports (no dense `[N, N]` anywhere).
pub fn grid_setup(seed: u64) -> TrainSetup<WaveNet> {
    let series = generate_grid_series(&GridConfig {
        seed: sub_seed(seed, DATA_STREAM),
        ..GridConfig::new(GRID_N, GRID_STEPS)
    });
    let data =
        WindowDataset::from_values(&series.values, GRID_H, GRID_F).expect("grid covers H + F");
    let bases = build_supports_csr(&series.adjacency, SupportKind::DoubleTransition);
    let model_bases = bases.clone();
    let rebuild: Box<dyn Fn() -> WaveNet> =
        Box::new(move || grid_model(model_bases.clone(), MODEL_SEED));
    let model = rebuild();
    TrainSetup {
        data,
        model,
        batch: GRID_BATCH,
        supports: Vec::new(),
        sparse_supports: bases,
        rebuild,
    }
}

/// `serve-us` data and model: the US weather analogue (N = 36, C = 6).
pub struct UsSetup {
    pub data: WindowDataset,
    pub adjacency: Tensor,
}

pub fn us_data(seed: u64, days: Option<usize>) -> UsSetup {
    let base = WeatherConfig::us();
    let config = WeatherConfig {
        seed: sub_seed(seed, DATA_STREAM),
        num_days: days.unwrap_or(base.num_days),
        ..base
    };
    let series = generate_weather(&config);
    let adjacency = gaussian_kernel_adjacency(&series.distances, AdjacencyConfig::default());
    let data = WindowDataset::from_series(&series, 12, 12).expect("US series covers H + F");
    UsSetup { data, adjacency }
}

/// The served D-DA-GTCN; the same `model_seed` always gives the same
/// weights, which is how the offline twin of the fleet's model is built.
pub fn us_model(us: &UsSetup, model_seed: u64) -> WaveNet {
    let dims = ModelDims::paper(us.data.num_entities(), us.data.num_features(), US_HIDDEN);
    WaveNet::paper_d_da_gtcn(dims, &us.adjacency, model_seed)
}

/// A two-worker fleet with `max_batch` 8 over `model`.
pub fn spawn_fleet(model: WaveNet, scaler: StandardScaler) -> FleetService {
    ServeConfig::builder()
        .workers(FLEET_WORKERS)
        .max_batch(FLEET_MAX_BATCH)
        .queue_capacity(FLEET_QUEUE)
        .spawn_fleet(Box::new(model), scaler)
        .expect("fleet config is valid and the GTCN is plannable")
}

/// `count` scaled input windows from the test split, spread evenly.
pub fn window_pool(data: &WindowDataset, count: usize) -> Vec<Tensor> {
    let test = data.split.test.clone();
    let stride = (test.len() / count).max(1);
    test.step_by(stride).take(count).map(|start| data.input_window(start)).collect()
}

/// Stacks `b` windows of `pool` into a `[b, H, N, C]` batch.
pub fn batch_of(pool: &[Tensor], b: usize) -> Tensor {
    let parts: Vec<&Tensor> = pool.iter().cycle().take(b).collect();
    Tensor::stack(&parts)
}
