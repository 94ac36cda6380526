//! Per-tenant serving state: token-bucket quotas, sliding windows, and the
//! [`Tenant`] handle callers ingest and forecast through.
//!
//! A fleet serves many independent streams ("tenants" — a city's sensor
//! grid, one customer's fleet of devices). Each tenant owns its sliding
//! window, its SLO window, and optionally a token bucket. The bucket is
//! the backpressure layer *in front of* the shared worker queues: a
//! bursting tenant exhausts its own tokens and degrades to persistence
//! forecasts ([`super::DegradedCause::QuotaExceeded`]) before its burst
//! can fill the queues every other tenant shares, keeping the quiet
//! tenants' deadline hit-rate intact. That is the per-tenant counterpart
//! of the queue's shed-on-full policy: quotas shed *fairly*, the queue
//! sheds *globally*.

use super::fleet::FleetService;
use super::Forecast;
use crate::error::EnhanceNetError;
use enhancenet_data::SlidingWindow;
use enhancenet_telemetry::{SloReport, SloWindow};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// A per-tenant request-rate quota, enforced by a token bucket.
///
/// The bucket holds at most `burst` tokens, refills at `rate` tokens per
/// second, and each forecast request takes one token. A tenant that stays
/// under `rate` requests/sec never observes the quota; a burst beyond
/// `burst` requests is throttled until tokens accrue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantQuota {
    /// Sustained requests per second (must be finite and > 0).
    pub rate: f64,
    /// Bucket capacity — the burst size absorbed without throttling
    /// (must be finite and ≥ 1).
    pub burst: f64,
}

impl TenantQuota {
    /// A quota sustaining `rate` requests/sec with a one-second burst
    /// allowance (`burst = max(rate, 1)`).
    pub fn per_second(rate: f64) -> Self {
        Self { rate, burst: rate.max(1.0) }
    }

    /// Replaces the burst capacity.
    pub fn with_burst(mut self, burst: f64) -> Self {
        self.burst = burst;
        self
    }

    /// The quota checks [`super::ServeConfigBuilder::build`] applies.
    pub(crate) fn validate(&self) -> Result<(), EnhanceNetError> {
        if !(self.rate.is_finite() && self.rate > 0.0) {
            return Err(EnhanceNetError::InvalidConfig {
                field: "tenant_quota",
                reason: format!("rate must be finite and > 0, got {}", self.rate),
            });
        }
        if !(self.burst.is_finite() && self.burst >= 1.0) {
            return Err(EnhanceNetError::InvalidConfig {
                field: "tenant_quota",
                reason: format!("burst must be finite and >= 1, got {}", self.burst),
            });
        }
        Ok(())
    }
}

/// The classic token bucket: starts full, refills continuously.
pub(crate) struct TokenBucket {
    quota: TenantQuota,
    tokens: f64,
    refilled: Instant,
}

impl TokenBucket {
    pub(crate) fn new(quota: TenantQuota) -> Self {
        Self { quota, tokens: quota.burst, refilled: Instant::now() }
    }

    /// Takes one token if available; refills lazily from elapsed time.
    pub(crate) fn try_take(&mut self) -> bool {
        let now = Instant::now();
        let accrued = now.duration_since(self.refilled).as_secs_f64() * self.quota.rate;
        self.tokens = (self.tokens + accrued).min(self.quota.burst);
        self.refilled = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Everything the fleet tracks per tenant, behind one mutex.
pub(crate) struct TenantState {
    pub(crate) name: String,
    /// The worker shard this tenant's requests route to (assigned
    /// round-robin at first use, stable thereafter — tenant affinity keeps
    /// a tenant's batches on one worker's warm plan executors).
    pub(crate) shard: usize,
    pub(crate) buffer: SlidingWindow,
    pub(crate) bucket: Option<TokenBucket>,
    pub(crate) slo: SloWindow,
    pub(crate) requests: u64,
    pub(crate) throttled: u64,
    pub(crate) degraded: u64,
}

impl TenantState {
    /// Records one answered request into the tenant's SLO window and
    /// counters.
    pub(crate) fn record(&mut self, total_ns: u64, deadline_hit: bool, degraded: bool) {
        self.slo.record(total_ns as f64, deadline_hit, degraded);
        if degraded {
            self.degraded += 1;
            enhancenet_telemetry::count("serve.tenant.degraded", 1);
        }
    }

    pub(crate) fn report(&self) -> TenantReport {
        TenantReport {
            tenant: self.name.clone(),
            shard: self.shard,
            requests: self.requests,
            throttled: self.throttled,
            degraded: self.degraded,
            slo: self.slo.report(),
        }
    }

    /// Publishes how full the sliding window is (1.0 = warm) after every
    /// ingest or eviction.
    fn refresh_fill(&self) {
        let fill = self.buffer.len() as f64 / self.buffer.horizon() as f64;
        enhancenet_telemetry::gauge("serve.window.fill", fill);
    }
}

/// Point-in-time statistics for one tenant; see [`Tenant::report`].
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// The tenant's name.
    pub tenant: String,
    /// The worker shard serving this tenant.
    pub shard: usize,
    /// Forecast requests this tenant has made.
    pub requests: u64,
    /// Requests rejected by the tenant's token bucket.
    pub throttled: u64,
    /// Requests answered by a persistence fallback (any cause).
    pub degraded: u64,
    /// The tenant's rolling SLO window.
    pub slo: SloReport,
}

/// A handle to one tenant's stream within a [`FleetService`]; obtained
/// from [`FleetService::tenant`], cheap to re-acquire.
///
/// State, quota, and SLO accounting are all per-tenant, and requests route
/// to the tenant's assigned worker shard.
pub struct Tenant<'a> {
    pub(crate) fleet: &'a FleetService,
    pub(crate) state: Arc<Mutex<TenantState>>,
}

impl std::fmt::Debug for Tenant<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.lock();
        f.debug_struct("Tenant")
            .field("name", &state.name)
            .field("shard", &state.shard)
            .field("requests", &state.requests)
            .finish_non_exhaustive()
    }
}

impl Tenant<'_> {
    fn lock(&self) -> MutexGuard<'_, TenantState> {
        super::lock(&self.state)
    }

    /// The worker shard this tenant's requests route to.
    pub fn shard(&self) -> usize {
        self.lock().shard
    }

    /// True once enough history is buffered for a model forecast.
    pub fn is_ready(&self) -> bool {
        self.lock().buffer.is_ready()
    }

    /// Ingests one entity's raw observation at `timestamp`; see
    /// [`SlidingWindow::ingest`].
    pub fn ingest(
        &self,
        timestamp: i64,
        entity: usize,
        features: &[f32],
    ) -> Result<(), EnhanceNetError> {
        let mut state = self.lock();
        state.buffer.ingest(timestamp, entity, features)?;
        state.refresh_fill();
        Ok(())
    }

    /// Ingests a full raw snapshot row (`N * C` values) at `timestamp`.
    pub fn ingest_row(&self, timestamp: i64, row: &[f32]) -> Result<(), EnhanceNetError> {
        let mut state = self.lock();
        state.buffer.ingest_row(timestamp, row)?;
        state.refresh_fill();
        Ok(())
    }

    /// Drops buffered history older than `cutoff`.
    pub fn evict_before(&self, cutoff: i64) {
        let mut state = self.lock();
        state.buffer.evict_before(cutoff);
        state.refresh_fill();
    }

    /// Forecasts the next `F` steps from this tenant's window, degrading to
    /// a persistence forecast when the model cannot answer in time.
    ///
    /// Errors only when *nothing* can be served: no observation has ever
    /// been ingested ([`EnhanceNetError::NotReady`]) or the scaler rejects
    /// the window shape. Every other failure path — warming window, missed
    /// deadline, full queue, worker panic, or a dry token bucket
    /// ([`super::DegradedCause::QuotaExceeded`]; the request never reaches
    /// the shared queues) — returns a degraded forecast tagged with its
    /// [`super::DegradedCause`].
    pub fn forecast(&self) -> Result<Forecast, EnhanceNetError> {
        self.fleet.tenant_forecast(&self.state)
    }

    /// Point-in-time statistics: request/throttle/degraded counts and the
    /// tenant's rolling SLO window.
    pub fn report(&self) -> TenantReport {
        self.lock().report()
    }
}
