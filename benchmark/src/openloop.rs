//! Open-loop load against a [`FleetService`]: requests are sent on a
//! seeded Poisson schedule whether or not earlier ones have finished, and
//! every latency is timed from the request's *due* time, so a stall in the
//! generator or the fleet shows up in the latencies of the requests queued
//! behind it.
//!
//! One generator thread calls [`FleetService::submit`]; one collector
//! thread per fleet worker waits on that worker's replies in submission
//! order (each worker answers its queue first-in first-out).

use crate::setup::{FLEET_MAX_BATCH, FLEET_WORKERS};
use crate::stats::{median, quantile, SplitMix};
use enhancenet::prelude::*;
use enhancenet_tensor::Tensor;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A request not answered this long after submission counts as failed.
pub const DEADLINE: Duration = Duration::from_secs(1);

/// The latency limit of the capacity search (on the p99).
pub const P99_LIMIT_MS: f64 = 100.0;

/// Largest share of failed requests a passing ladder rate may have.
pub const MAX_FAILED_SHARE: f64 = 0.01;

/// Warms every batch size `1..=max_batch` on every fleet worker, so no
/// plan is compiled while load is being timed.
///
/// Each round parks one blocker request per worker, then queues `b`
/// requests per worker behind it; the worker drains them as one batch of
/// exactly `b` when the blocker finishes. The fleet's own
/// `plan.cache.misses` counter (read with collection switched on only for
/// the warm-up) confirms that all `workers × max_batch` plans exist.
/// Returns whether they do.
pub fn warm_fleet(fleet: &FleetService, pool: &[Tensor]) -> bool {
    let wanted = (FLEET_WORKERS * FLEET_MAX_BATCH) as u64;
    enhancenet_telemetry::set_enabled(true);
    let before = enhancenet_telemetry::counter_value("plan.cache.misses");
    let mut warmed = false;
    for _round in 0..4 {
        for b in 1..=FLEET_MAX_BATCH {
            let mut pending: Vec<PendingForecast> = (0..FLEET_WORKERS)
                .map(|i| fleet.submit(&pool[i % pool.len()]).expect("warm-up blocker accepted"))
                .collect();
            std::thread::sleep(Duration::from_millis(2));
            pending.extend(
                (0..FLEET_WORKERS * b).map(|i| {
                    fleet.submit(&pool[i % pool.len()]).expect("warm-up request accepted")
                }),
            );
            for p in pending {
                p.wait(DEADLINE * 30).expect("warm-up forecast answered");
            }
        }
        if enhancenet_telemetry::counter_value("plan.cache.misses") - before >= wanted {
            warmed = true;
            break;
        }
    }
    enhancenet_telemetry::set_enabled(false);
    enhancenet_telemetry::reset();
    warmed
}

/// One request's fate.
pub struct Completion {
    /// Index into the schedule (due order).
    pub index: usize,
    /// Which pool window was sent.
    pub window: usize,
    /// Worker queue the request went to.
    pub shard: usize,
    /// Milliseconds from due time to the reply; `INFINITY` when failed.
    pub latency_ms: f64,
    /// Milliseconds from phase start to the reply (for batch grouping).
    pub done_ms: f64,
    /// The reply, kept for every `keep_every`-th request.
    pub values: Option<Tensor>,
}

/// Everything one fixed-rate phase observed.
pub struct Phase {
    pub rate: f64,
    pub completions: Vec<Completion>,
    /// How late the generator sent each request, in milliseconds.
    pub late_ms: Vec<f64>,
    pub rejected: u64,
    pub failed: u64,
    /// Seconds from the first due time to the last reply.
    pub span_s: f64,
}

impl Phase {
    pub fn latencies(&self) -> Vec<f64> {
        self.completions.iter().map(|c| c.latency_ms).collect()
    }

    pub fn p(&self, q: f64) -> f64 {
        quantile(&self.latencies(), q)
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.completions.len() as f64
    }

    /// True when the queue grew over the phase: the last quarter of
    /// requests (in due order) waited clearly longer than the first.
    pub fn backlog_growing(&self) -> bool {
        let lat = self.latencies();
        let q = (lat.len() / 4).max(1);
        let head = median(&lat[..q]);
        let tail = median(&lat[lat.len() - q..]);
        tail > 2.0 * head + 10.0
    }

    /// The capacity-search condition: p99 within the limit, no growing
    /// backlog, at most 1 % failed.
    pub fn meets_slo(&self) -> bool {
        self.p(0.99) <= P99_LIMIT_MS
            && !self.backlog_growing()
            && self.failed_share() <= MAX_FAILED_SHARE
    }

    /// Successful replies per second over the phase.
    pub fn goodput(&self) -> f64 {
        (self.completions.len() as u64 - self.failed) as f64 / self.span_s
    }
}

/// A collector's record of one reply: schedule index, shard, arrival time
/// and the forecast (`None` when the request failed).
type Reply = (usize, usize, Instant, Option<Tensor>);

/// Sends `rate × secs` requests with exponential inter-arrival times drawn
/// from `seed`, scaled so the phase offers exactly `rate` requests per
/// second on average over `secs`, and collects every reply.
pub fn run_phase(
    fleet: &FleetService,
    pool: &[Tensor],
    rate: f64,
    secs: f64,
    seed: u64,
    keep_every: usize,
) -> Phase {
    let mut rng = SplitMix::new(seed);
    let count = ((rate * secs).round() as usize).max(1);
    let gaps: Vec<f64> = (0..=count).map(|_| rng.exponential()).collect();
    let scale = secs / gaps.iter().sum::<f64>();
    let mut offsets = Vec::with_capacity(count);
    let mut t = 0.0;
    for gap in &gaps[..count] {
        t += gap * scale;
        offsets.push(Duration::from_secs_f64(t));
    }
    let windows: Vec<usize> = (0..count).map(|_| rng.index(pool.len())).collect();

    let start = Instant::now() + Duration::from_millis(5);
    let mut late_ms = Vec::with_capacity(count);
    let mut early: Vec<Completion> = Vec::new();
    let mut rejected = 0u64;
    let mut collected: Vec<Vec<Reply>> = Vec::new();
    std::thread::scope(|scope| {
        let mut senders = Vec::with_capacity(FLEET_WORKERS);
        let mut handles = Vec::with_capacity(FLEET_WORKERS);
        for shard in 0..FLEET_WORKERS {
            let (tx, rx) = mpsc::channel::<(usize, PendingForecast)>();
            senders.push(tx);
            handles.push(scope.spawn(move || {
                let mut out = Vec::new();
                for (index, pending) in rx {
                    let reply = pending.wait(DEADLINE);
                    let done = Instant::now();
                    out.push((index, shard, done, reply.ok()));
                }
                out
            }));
        }
        for (index, offset) in offsets.iter().enumerate() {
            let due = start + *offset;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            match fleet.submit(&pool[windows[index]]) {
                Ok(pending) => {
                    let shard = pending.request_id() as usize % FLEET_WORKERS;
                    senders[shard].send((index, pending)).expect("collector is alive");
                }
                Err(err) => {
                    if matches!(err, EnhanceNetError::Overloaded { .. }) {
                        rejected += 1;
                    }
                    early.push(Completion {
                        index,
                        window: windows[index],
                        shard: usize::MAX,
                        latency_ms: f64::INFINITY,
                        done_ms: (Instant::now() - start).as_secs_f64() * 1e3,
                        values: None,
                    });
                }
            }
        }
        drop(senders);
        collected = handles.into_iter().map(|h| h.join().expect("collector ran")).collect();
    });

    let mut completions = early;
    let mut last_done = start;
    for (index, shard, done, reply) in collected.into_iter().flatten() {
        let due = start + offsets[index];
        let ok = reply.is_some();
        if ok {
            last_done = last_done.max(done);
        }
        completions.push(Completion {
            index,
            window: windows[index],
            shard,
            latency_ms: if ok { (done - due).as_secs_f64() * 1e3 } else { f64::INFINITY },
            done_ms: (done - start).as_secs_f64() * 1e3,
            values: reply.filter(|_| index % keep_every == 0),
        });
    }
    completions.sort_by_key(|c| c.index);
    let failed = completions.iter().filter(|c| c.latency_ms.is_infinite()).count() as u64;
    let span_s = (last_done - (start + offsets[0])).as_secs_f64().max(1e-9);
    Phase { rate, completions, late_ms, rejected, failed, span_s }
}

/// The batches each worker formed, as lists of indices into
/// `phase.completions` in the order the worker stacked them.
///
/// A worker drains its queue first-in first-out, so a batch is a run of
/// consecutive requests of one shard; it answers a batch's requests back to
/// back, and consecutive batches are at least one forward pass (several
/// milliseconds) apart. Runs are therefore split where the reply times of
/// consecutive requests jump, and at `max_batch`.
pub fn served_batches(phase: &Phase) -> Vec<Vec<usize>> {
    const SAME_BATCH_MS: f64 = 2.0;
    let mut batches = Vec::new();
    for shard in 0..FLEET_WORKERS {
        let mut current: Vec<usize> = Vec::new();
        let mut prev = f64::NEG_INFINITY;
        for (i, c) in phase.completions.iter().enumerate() {
            if c.shard != shard || c.latency_ms.is_infinite() {
                continue;
            }
            if c.done_ms - prev > SAME_BATCH_MS || current.len() == FLEET_MAX_BATCH {
                batches.push(std::mem::take(&mut current));
            }
            current.push(i);
            prev = c.done_ms;
        }
        batches.push(current);
    }
    batches.retain(|b| !b.is_empty());
    batches
}

/// The offline forecast of `pos` within the batch of `members`' windows.
fn offline_row(
    twin: &dyn Forecaster,
    pool: &[Tensor],
    phase: &Phase,
    members: &[usize],
    pos: usize,
) -> Tensor {
    let windows: Vec<&Tensor> =
        members.iter().map(|&i| &pool[phase.completions[i].window]).collect();
    let batched = twin.predict(&Tensor::stack(&windows)).expect("pool windows fit the model");
    batched.index_axis(0, pos)
}

/// Outcome of the bitwise output check.
pub struct Parity {
    /// Replies compared.
    pub compared: usize,
    /// Replies equal to no offline forecast of their batch.
    pub mismatched: usize,
    /// Replies that differ from the single-window offline forecast (a
    /// micro-batched forward need not round like a batch of one).
    pub unbatched_differs: usize,
}

/// Checks every kept reply bitwise against the twin's offline
/// `Forecaster::predict` of the same window, stacked with the requests its
/// worker batched it with. Should the reply-timing grouping have split or
/// merged a batch, every run of up to `max_batch` consecutive requests of
/// the shard that contains the reply is tried before it counts as a
/// mismatch.
pub fn parity(phase: &Phase, pool: &[Tensor], twin: &dyn Forecaster) -> Parity {
    let mut parity = Parity { compared: 0, mismatched: 0, unbatched_differs: 0 };
    for batch in served_batches(phase) {
        for (pos, &i) in batch.iter().enumerate() {
            let c = &phase.completions[i];
            let Some(values) = &c.values else { continue };
            parity.compared += 1;
            let single = twin.predict(&pool[c.window]).expect("pool window fits the model");
            if single.data() != values.data() {
                parity.unbatched_differs += 1;
            }
            if offline_row(twin, pool, phase, &batch, pos).data() == values.data() {
                continue;
            }
            let shard: Vec<usize> = (0..phase.completions.len())
                .filter(|&j| {
                    let d = &phase.completions[j];
                    d.shard == c.shard && d.latency_ms.is_finite()
                })
                .collect();
            let at = shard.iter().position(|&j| j == i).expect("reply belongs to its shard");
            let found = (1..=FLEET_MAX_BATCH).any(|len| {
                (at.saturating_sub(len - 1)..=at).filter(|&s| s + len <= shard.len()).any(|s| {
                    offline_row(twin, pool, phase, &shard[s..s + len], at - s).data()
                        == values.data()
                })
            });
            if !found {
                parity.mismatched += 1;
            }
        }
    }
    parity
}
