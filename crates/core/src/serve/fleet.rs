//! [`FleetService`]: the serving runtime. Every stream is a tenant of a
//! fleet of `K` worker threads (`K = 1` serves a single stream), with
//! zero-downtime hot swap and per-tenant backpressure.
//!
//! Architecture (DESIGN §6h):
//!
//! * **Sharding** — `K` worker threads, each owning its own bounded request
//!   queue. A tenant is pinned to one shard round-robin at first use, so a
//!   tenant's requests always batch on the same worker, whose *private*
//!   plan-executor map stays warm for that tenant's window shape. Workers
//!   never share an executor, so there is no cross-worker mutex on the hot
//!   path (the model's own [`PlanCache`] would serialize them — see
//!   [`Forecaster::compile_eval_plan`]).
//! * **Hot swap** — workers execute compiled plans against the *currently
//!   published* [`ParamStore`] snapshot, loaded from a
//!   [`SnapshotCell`](super::snapshot::SnapshotCell) once per batch.
//!   [`FleetService::publisher`] hands a background trainer a
//!   [`SnapshotPublisher`]; publishing swaps an `Arc` and bumps an epoch —
//!   in-flight batches finish on the old weights, the next batch adopts
//!   the new ones. No queue is paused, no request dropped.
//! * **Backpressure** — each tenant optionally carries a token bucket
//!   ([`TenantQuota`]); a bursting tenant is throttled at the door
//!   (degraded [`DegradedCause::QuotaExceeded`] persistence forecast)
//!   before its burst can occupy the shared queues, preserving the other
//!   tenants' deadline hit-rate. The queue's shed-on-full policy remains
//!   the global safety net behind it.
//!
//! [`PlanCache`]: enhancenet_autodiff::PlanCache
//! [`ParamStore`]: enhancenet_autodiff::ParamStore
//! [`TenantQuota`]: super::TenantQuota

use super::config::ServeConfig;
use super::reply::{PendingForecast, ReplySlot};
use super::snapshot::{Snapshot, SnapshotCell, SnapshotPublisher};
use super::tenant::{Tenant, TenantReport, TenantState, TokenBucket};
use super::worker::{self, BatchRequest, ShutdownState};
use super::{DegradedCause, Forecast, RequestTiming, ShutdownMode, ShutdownReport};
use crate::error::EnhanceNetError;
use crate::forecaster::Forecaster;
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use enhancenet_autodiff::PlanExecutor;
use enhancenet_data::{SlidingWindow, StandardScaler};
use enhancenet_telemetry::{MetricsServer, SloReport, SloWindow};
use enhancenet_tensor::Tensor;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Refreshes the `serve.slo.*` gauges from a rolling-window report.
fn publish_slo_gauges(report: &SloReport) {
    enhancenet_telemetry::gauge("serve.slo.p50_ns", report.latency_p50_ns);
    enhancenet_telemetry::gauge("serve.slo.p95_ns", report.latency_p95_ns);
    enhancenet_telemetry::gauge("serve.slo.p99_ns", report.latency_p99_ns);
    enhancenet_telemetry::gauge("serve.slo.deadline_hit_rate", report.deadline_hit_rate);
    enhancenet_telemetry::gauge("serve.slo.degraded_rate", report.degraded_rate);
    enhancenet_telemetry::gauge("serve.slo.error_budget_burn", report.error_budget_burn);
    enhancenet_telemetry::gauge("serve.slo.window_requests", report.requests as f64);
}

/// One worker shard: its queue's sending half and the thread handle.
struct Shard {
    tx: Option<Sender<BatchRequest>>,
    worker: Option<JoinHandle<()>>,
}

/// The fleet's model, which workers touch only to compile plans.
///
/// Tracing `forward` reads the model's *own* store, and some values are
/// baked into the plan as constants at trace time: DFGN's cached filters,
/// DAMGN's static fold, its top-k pattern and fallback rows. So before a
/// compile the worker loads the snapshot it serves into the model; the
/// store version bumps, those eval caches invalidate, and the plan matches
/// the snapshot exactly.
struct CompileModel {
    model: Box<dyn Forecaster + Send>,
    /// Epoch of the snapshot whose values the model's store holds.
    epoch: u64,
}

impl CompileModel {
    /// Compiles an eval plan for batched input `x` against `snapshot`.
    fn compile(&mut self, snapshot: &Snapshot, x: &Tensor) -> Option<PlanExecutor> {
        if self.epoch != snapshot.epoch {
            let store = self.model.store_mut();
            for id in snapshot.store.ids() {
                store.value_mut(id).copy_from(snapshot.store.value(id));
            }
            self.epoch = snapshot.epoch;
        }
        self.model.compile_eval_plan(x).0.ok().map(PlanExecutor::new)
    }
}

/// The serving runtime: a multi-tenant, multi-worker forecasting endpoint
/// over a shared model snapshot; spawn through
/// [`ServeConfig::builder`](super::ServeConfig::builder)`.…spawn_fleet(model, scaler)`.
///
/// Interact per tenant: [`FleetService::tenant`] returns a [`Tenant`]
/// handle for ingest/forecast (a single stream is one tenant of a
/// `workers(1)` fleet); [`FleetService::publisher`] returns the hot-swap
/// handle for a background trainer; [`FleetService::shutdown`] drains or
/// sheds the fleet. The raw [`FleetService::submit`] path takes
/// pre-scaled windows for benchmarks and fan-out frontends.
pub struct FleetService {
    shards: Vec<Shard>,
    scaler: StandardScaler,
    config: ServeConfig,
    input: [usize; 3],
    horizon: usize,
    next_request_id: AtomicU64,
    next_shard: AtomicUsize,
    tenants: Mutex<HashMap<String, Arc<Mutex<TenantState>>>>,
    snapshots: Arc<SnapshotCell>,
    publisher: SnapshotPublisher,
    shutdown: Arc<ShutdownState>,
    /// Fleet-wide rolling SLO window (tenants also keep their own).
    slo: Mutex<SloWindow>,
    live_workers: Arc<AtomicUsize>,
    metrics: Option<MetricsServer>,
}

impl FleetService {
    /// The spawn path behind [`super::ServeConfigBuilder::spawn_fleet`];
    /// assumes `config` already passed validation.
    ///
    /// Fails with [`EnhanceNetError::UnknownInputShape`] when the model
    /// does not report its `[H, N, C]` input shape (needed to size each
    /// tenant's sliding window), and with
    /// [`EnhanceNetError::InvalidConfig`] for an out-of-range
    /// `target_feature`, an unbindable metrics address, or a model that is
    /// not *plannable*: workers serve exclusively through compiled plans
    /// resolved against published snapshots (the tape path reads the
    /// model's own store and cannot see hot-swapped weights), so a model
    /// whose eval trace cannot compile is rejected up front.
    pub(crate) fn from_config(
        model: Box<dyn Forecaster + Send>,
        scaler: StandardScaler,
        config: ServeConfig,
    ) -> Result<Self, EnhanceNetError> {
        let input = model.input_shape().ok_or_else(|| EnhanceNetError::UnknownInputShape {
            model: model.name().to_string(),
        })?;
        if config.target_feature >= input[2] {
            return Err(EnhanceNetError::InvalidConfig {
                field: "target_feature",
                reason: format!("must be < {} features, got {}", input[2], config.target_feature),
            });
        }
        // Probe-compile a batch-1 trace: fail fast if this model can never
        // serve hot-swapped weights.
        let probe = Tensor::zeros(&[1, input[0], input[1], input[2]]);
        if let (Err(e), _) = model.compile_eval_plan(&probe) {
            return Err(EnhanceNetError::InvalidConfig {
                field: "model",
                reason: format!("`{}` cannot be compiled for fleet serving: {e}", model.name()),
            });
        }
        let horizon = model.horizon();
        let snapshots = Arc::new(SnapshotCell::new(model.store()));
        let publisher = SnapshotPublisher::new(Arc::clone(&snapshots), model.store());
        let model = Arc::new(Mutex::new(CompileModel { model, epoch: 0 }));
        let shutdown = Arc::new(ShutdownState::new());
        let live_workers = Arc::new(AtomicUsize::new(config.workers));
        let mut shards = Vec::with_capacity(config.workers);
        for index in 0..config.workers {
            let (tx, rx) = bounded(config.queue_capacity);
            let ctx = WorkerCtx {
                model: Arc::clone(&model),
                snapshots: Arc::clone(&snapshots),
                rx,
                max_batch: config.max_batch,
                max_wait: config.max_wait,
                shutdown: Arc::clone(&shutdown),
                live: Arc::clone(&live_workers),
            };
            let worker = std::thread::Builder::new()
                .name(format!("forecast-fleet-{index}"))
                .spawn(move || fleet_worker_loop(ctx))
                .expect("failed to spawn fleet worker thread");
            shards.push(Shard { tx: Some(tx), worker: Some(worker) });
        }
        let metrics = match &config.metrics_addr {
            Some(addr) => {
                let (live, workers) = (Arc::clone(&live_workers), config.workers);
                let probe: enhancenet_telemetry::ReadyProbe =
                    Arc::new(move || live.load(Ordering::Relaxed) == workers);
                Some(MetricsServer::bind(addr.as_str(), probe).map_err(|e| {
                    EnhanceNetError::InvalidConfig {
                        field: "metrics_addr",
                        reason: format!("cannot bind {addr}: {e}"),
                    }
                })?)
            }
            None => None,
        };
        let slo =
            Mutex::new(SloWindow::new(config.slo_window, config.slo_slots, config.slo_target));
        enhancenet_telemetry::gauge("serve.fleet.workers", config.workers as f64);
        enhancenet_telemetry::gauge("serve.swap.epoch", 0.0);
        Ok(Self {
            shards,
            scaler,
            config,
            input,
            horizon,
            next_request_id: AtomicU64::new(0),
            next_shard: AtomicUsize::new(0),
            tenants: Mutex::new(HashMap::new()),
            snapshots,
            publisher,
            shutdown,
            slo,
            live_workers,
            metrics,
        })
    }

    /// The `[H, N, C]` window shape every tenant's stream assembles.
    pub fn input_shape(&self) -> [usize; 3] {
        self.input
    }

    /// Forecast horizon `F`.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// The serving policy this fleet was spawned with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Worker shard count.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Worker threads currently running (all of them, in a healthy fleet).
    pub fn workers_alive(&self) -> usize {
        self.live_workers.load(Ordering::Relaxed)
    }

    /// The epoch of the currently served snapshot (0 = spawn weights).
    pub fn epoch(&self) -> u64 {
        self.snapshots.epoch()
    }

    /// A [`SnapshotPublisher`] for hot-swapping weights from another
    /// thread; cloneable, and valid for the fleet's lifetime.
    pub fn publisher(&self) -> SnapshotPublisher {
        self.publisher.clone()
    }

    /// Address of the embedded metrics server, when
    /// [`ServeConfig::metrics_addr`] was set (resolves port 0). Ready ⇔
    /// every worker thread is alive; per-stream warmth is
    /// [`Tenant::is_ready`] and the `serve.fallback.cold` counter.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics.as_ref().map(MetricsServer::local_addr)
    }

    /// Fleet-wide rolling SLO statistics (across all tenants).
    pub fn slo_report(&self) -> SloReport {
        super::lock(&self.slo).report()
    }

    /// The handle for `name`'s stream, creating the tenant on first use:
    /// a fresh sliding window, a token bucket from
    /// [`ServeConfig::tenant_quota`], and a round-robin shard assignment
    /// that is stable for the fleet's lifetime.
    pub fn tenant(&self, name: &str) -> Tenant<'_> {
        let mut tenants = super::lock(&self.tenants);
        let state = match tenants.entry(name.to_string()) {
            Entry::Occupied(entry) => Arc::clone(entry.get()),
            Entry::Vacant(entry) => {
                let shard = self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len();
                let config = &self.config;
                let state = Arc::new(Mutex::new(TenantState {
                    name: name.to_string(),
                    shard,
                    buffer: SlidingWindow::new(self.input[0], self.input[1], self.input[2]),
                    bucket: config.tenant_quota.map(TokenBucket::new),
                    slo: SloWindow::new(config.slo_window, config.slo_slots, config.slo_target),
                    requests: 0,
                    throttled: 0,
                    degraded: 0,
                }));
                Arc::clone(entry.insert(state))
            }
        };
        enhancenet_telemetry::gauge("serve.tenant.active", tenants.len() as f64);
        drop(tenants);
        Tenant { fleet: self, state }
    }

    /// Reports for every tenant the fleet has seen, sorted by name.
    pub fn tenant_reports(&self) -> Vec<TenantReport> {
        let tenants = super::lock(&self.tenants);
        let mut reports: Vec<TenantReport> =
            tenants.values().map(|state| super::lock(state).report()).collect();
        reports.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        reports
    }

    /// Submits a pre-scaled `[H, N, C]` window to shard
    /// `request_id % workers` without blocking; pair with
    /// [`PendingForecast::wait`]. The raw fan-out path for callers
    /// managing their own windows.
    pub fn submit(&self, scaled_window: &Tensor) -> Result<PendingForecast, EnhanceNetError> {
        let id = self.next_request_id.fetch_add(1, Ordering::Relaxed);
        self.submit_to_shard(id as usize % self.shards.len(), scaled_window, id)
    }

    fn submit_to_shard(
        &self,
        shard: usize,
        scaled_window: &Tensor,
        id: u64,
    ) -> Result<PendingForecast, EnhanceNetError> {
        if scaled_window.shape() != self.input {
            return Err(EnhanceNetError::InputShape {
                expected: self.input.to_vec(),
                got: scaled_window.shape().to_vec(),
            });
        }
        let tx = self.shards[shard].tx.as_ref().ok_or(EnhanceNetError::ServiceStopped)?;
        enhancenet_telemetry::gauge("serve.queue.depth", tx.len() as f64);
        let (reply, slot) = ReplySlot::pair();
        let submitted = Instant::now();
        let request = BatchRequest { id, window: scaled_window.clone(), submitted, reply };
        match tx.try_send(request) {
            Ok(()) => Ok(PendingForecast { slot, submitted, id }),
            Err(TrySendError::Full(_)) => {
                enhancenet_telemetry::count("serve.queue.rejected", 1);
                Err(EnhanceNetError::Overloaded { capacity: self.config.queue_capacity })
            }
            Err(TrySendError::Disconnected(_)) => Err(EnhanceNetError::ServiceStopped),
        }
    }

    /// The forecast path behind [`Tenant::forecast`].
    ///
    /// Errors only when *nothing* can be served: the tenant has never
    /// ingested an observation ([`EnhanceNetError::NotReady`]) or the
    /// scaler rejects the window. Every other failure — dry quota, cold
    /// window, full queue, missed deadline, worker panic — returns a
    /// persistence forecast tagged with its [`DegradedCause`].
    pub(crate) fn tenant_forecast(
        &self,
        state: &Arc<Mutex<TenantState>>,
    ) -> Result<Forecast, EnhanceNetError> {
        enhancenet_telemetry::count("serve.request", 1);
        enhancenet_telemetry::count("serve.tenant.requests", 1);
        let id = self.next_request_id.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        // Hold the tenant lock only through admission + window assembly;
        // the wait for the worker parks outside it, so one tenant's slow
        // request never blocks its neighbors' ingest.
        let (shard, anchor, admitted) = {
            let mut tenant = super::lock(state);
            tenant.requests += 1;
            let throttled = tenant.bucket.as_mut().is_some_and(|bucket| !bucket.try_take());
            let admitted = if throttled {
                tenant.throttled += 1;
                enhancenet_telemetry::count("serve.tenant.throttled", 1);
                Err(DegradedCause::QuotaExceeded)
            } else {
                tenant.buffer.window().ok_or(DegradedCause::ColdWindow)
            };
            (tenant.shard, tenant.buffer.latest_timestamp(), admitted)
        };
        let raw = match admitted {
            Ok(raw) => raw,
            Err(cause) => return self.fallback(state, id, anchor, started, cause),
        };
        let scaled = self.scaler.transform(&raw)?;
        let reply = self
            .submit_to_shard(shard, &scaled, id)
            .and_then(|pending| pending.wait_reply(self.config.deadline));
        let cause = match reply {
            Ok(reply) => {
                let values = self.scaler.inverse_feature(&reply.values, self.config.target_feature);
                let timing = RequestTiming {
                    queue_wait_ns: reply.queue_wait_ns,
                    forward_ns: reply.forward_ns,
                    total_ns: 0,
                };
                let forecast = Forecast { values, degraded: None, anchor, request_id: id, timing };
                return Ok(self.finish(state, forecast, started));
            }
            Err(EnhanceNetError::Overloaded { .. }) => DegradedCause::QueueFull,
            Err(EnhanceNetError::DeadlineExceeded { .. }) => DegradedCause::Deadline,
            Err(_) => DegradedCause::WorkerPanic,
        };
        self.fallback(state, id, anchor, started, cause)
    }

    /// Serves the tenant's persistence forecast, tagged with `cause`.
    fn fallback(
        &self,
        state: &Mutex<TenantState>,
        id: u64,
        anchor: Option<i64>,
        started: Instant,
        cause: DegradedCause,
    ) -> Result<Forecast, EnhanceNetError> {
        let values = {
            let tenant = super::lock(state);
            tenant.buffer.persistence_forecast(self.horizon, self.config.target_feature).ok_or(
                EnhanceNetError::NotReady { have: tenant.buffer.len(), need: self.input[0] },
            )?
        };
        enhancenet_telemetry::count("serve.fallback", 1);
        enhancenet_telemetry::count(cause.counter_label(), 1);
        let timing = RequestTiming::default();
        let forecast = Forecast { values, degraded: Some(cause), anchor, request_id: id, timing };
        Ok(self.finish(state, forecast, started))
    }

    /// Stamps the end-to-end latency on `forecast` and records the outcome
    /// in the fleet-wide and the tenant's rolling SLO windows. Deadline
    /// attainment is judged on latency alone — a fast fallback still "hit"
    /// its deadline; degradation is tracked as its own rate.
    fn finish(
        &self,
        state: &Mutex<TenantState>,
        mut forecast: Forecast,
        started: Instant,
    ) -> Forecast {
        let total_ns = started.elapsed().as_nanos() as u64;
        forecast.timing.total_ns = total_ns;
        enhancenet_telemetry::observe("serve.latency_ns", total_ns as f64);
        let hit = u128::from(total_ns) <= self.config.deadline.as_nanos();
        let degraded = forecast.is_degraded();
        let report = {
            let mut slo = super::lock(&self.slo);
            slo.record(total_ns as f64, hit, degraded);
            enhancenet_telemetry::enabled().then(|| slo.report())
        };
        if let Some(report) = report {
            publish_slo_gauges(&report);
        }
        super::lock(state).record(total_ns, hit, degraded);
        forecast
    }

    /// Stops every worker and joins them. [`ShutdownMode::Drain`] answers
    /// all queued requests on the current snapshot first;
    /// [`ShutdownMode::Now`] sheds them as `ServiceStopped` (tenant
    /// forecasts waiting on them degrade). Dropping the fleet without
    /// calling this drains implicitly.
    pub fn shutdown(mut self, mode: ShutdownMode) -> ShutdownReport {
        self.stop(mode);
        self.shutdown.report()
    }

    fn stop(&mut self, mode: ShutdownMode) {
        self.shutdown.begin(mode);
        for shard in &mut self.shards {
            drop(shard.tx.take());
        }
        for shard in &mut self.shards {
            if let Some(worker) = shard.worker.take() {
                let _ = worker.join();
            }
        }
        // Joining the exporter last lets a scraper observe the final
        // not-ready state before the listener goes away.
        drop(self.metrics.take());
    }
}

impl Drop for FleetService {
    fn drop(&mut self) {
        self.stop(ShutdownMode::Drain);
    }
}

/// Everything one fleet worker thread owns.
struct WorkerCtx {
    model: Arc<Mutex<CompileModel>>,
    snapshots: Arc<SnapshotCell>,
    rx: Receiver<BatchRequest>,
    max_batch: usize,
    max_wait: std::time::Duration,
    shutdown: Arc<ShutdownState>,
    live: Arc<AtomicUsize>,
}

/// Decrements the live-worker count when the worker exits — even by panic.
struct LiveGuard(Arc<AtomicUsize>);

impl Drop for LiveGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The fleet worker loop: assemble a batch, load the current snapshot,
/// execute a worker-private compiled plan against it.
///
/// Plan executors are keyed by batched input shape and scoped to the
/// snapshot epoch they were compiled under: a hot swap clears the map
/// (counted once per worker as `serve.swap.adopted`) and the next batch
/// per shape recompiles against the new snapshot (see [`CompileModel`]).
/// Hits and misses feed the same `plan.cache.*` counters as
/// [`Forecaster::predict`], so the CI metric contract holds for both.
fn fleet_worker_loop(ctx: WorkerCtx) {
    let _guard = LiveGuard(Arc::clone(&ctx.live));
    // Batch input and prediction buffers live for the whole worker: once a
    // plan serves a given batch size, re-serving it touches no heap.
    let mut batch_x = Tensor::default();
    let mut pred = Tensor::default();
    let mut epoch = ctx.snapshots.epoch();
    let mut execs: HashMap<Vec<usize>, PlanExecutor> = HashMap::new();
    while let Some(batch) = worker::next_batch(&ctx.rx, ctx.max_batch, ctx.max_wait) {
        match ctx.shutdown.mode() {
            Some(ShutdownMode::Now) => worker::shed_batch(batch, &ctx.shutdown),
            mode => {
                let snapshot = ctx.snapshots.load();
                if snapshot.epoch != epoch {
                    execs.clear();
                    epoch = snapshot.epoch;
                    enhancenet_telemetry::count("serve.swap.adopted", 1);
                }
                let n = batch.len() as u64;
                worker::serve_batch(
                    |x, out| run_on_snapshot(&ctx.model, &snapshot, &mut execs, x, out),
                    batch,
                    &mut batch_x,
                    &mut pred,
                );
                if mode == Some(ShutdownMode::Drain) {
                    ctx.shutdown.note_drained(n);
                    enhancenet_telemetry::count("serve.shutdown.drained", n);
                }
            }
        }
    }
}

/// Executes one batched forward for a fleet worker: look up (or compile)
/// the plan for this batch shape, then run it against the snapshot store.
fn run_on_snapshot(
    model: &Mutex<CompileModel>,
    snapshot: &Snapshot,
    execs: &mut HashMap<Vec<usize>, PlanExecutor>,
    x: &Tensor,
    out: &mut Tensor,
) -> Result<(), EnhanceNetError> {
    let exec = match execs.entry(x.shape().to_vec()) {
        Entry::Occupied(entry) => {
            enhancenet_telemetry::count("plan.cache.hits", 1);
            entry.into_mut()
        }
        Entry::Vacant(entry) => {
            enhancenet_telemetry::count("plan.cache.misses", 1);
            // A panicking compile poisons the lock; the model itself is
            // intact (its store is rewritten before every compile that
            // needs different values), so later compiles reuse it.
            let compiled =
                model.lock().unwrap_or_else(PoisonError::into_inner).compile(snapshot, x);
            // Probed plannable at spawn; a shape-dependent compile failure
            // degrades this batch instead of killing the worker.
            entry.insert(compiled.ok_or(EnhanceNetError::ServiceStopped)?)
        }
    };
    exec.run(&snapshot.store, x, out);
    Ok(())
}
