//! Copy-on-write model snapshots and the epoch cell that publishes them.
//!
//! Each worker loads the *current snapshot* — an immutable [`ParamStore`]
//! copy behind an `Arc` — once per batch, and compiled plans resolve
//! parameters live from that store at execution time (see
//! `enhancenet_autodiff::Plan`: params are indexed by [`ParamId`]). Values
//! the model derives from its weights at trace time are a different
//! matter: DFGN's cached filters, DAMGN's static fold, its top-k pattern
//! and fallback rows enter the plan as constants. A worker therefore
//! compiles every plan from a model whose store holds the snapshot's
//! values (see `fleet::CompileModel`), so those constants match the
//! weights the plan runs on.
//!
//! A background trainer hot-swaps weights by handing
//! [`SnapshotPublisher::publish`] a new store: the cell swaps the `Arc`
//! under a short lock and bumps the epoch counter. In-flight batches
//! finish on the `Arc` they already cloned — zero downtime, no reader ever
//! blocks on a writer for longer than the pointer swap — and workers adopt
//! the new epoch at their next batch boundary, dropping the plan executors
//! compiled for the old one.
//!
//! This is the `ArcSwap` idiom built from `std` primitives (the repo
//! vendors no atomics crate): load = lock, clone `Arc`, unlock — a few
//! nanoseconds, amortized to nothing against a batched forward.

use crate::error::EnhanceNetError;
use enhancenet_autodiff::{ParamId, ParamStore};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One immutable published model state.
pub(crate) struct Snapshot {
    /// Epoch 0 is the weights the fleet was spawned with; each publish
    /// increments.
    pub(crate) epoch: u64,
    /// The parameter values compiled plans resolve against.
    pub(crate) store: ParamStore,
}

/// The shared cell workers load from and the publisher swaps into.
pub(crate) struct SnapshotCell {
    current: Mutex<Arc<Snapshot>>,
    epoch: AtomicU64,
}

impl SnapshotCell {
    /// Seeds the cell at epoch 0 with the fleet model's own weights.
    pub(crate) fn new(base: &ParamStore) -> Self {
        let store = clone_store(base);
        Self {
            current: Mutex::new(Arc::new(Snapshot { epoch: 0, store })),
            epoch: AtomicU64::new(0),
        }
    }

    /// The currently published snapshot; a short-lock `Arc` clone.
    pub(crate) fn load(&self) -> Arc<Snapshot> {
        Arc::clone(&super::lock(&self.current))
    }

    /// The epoch of the currently published snapshot, lock-free.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Swaps in `store` as the new current snapshot; returns its epoch.
    pub(crate) fn publish(&self, store: ParamStore) -> u64 {
        let mut current = super::lock(&self.current);
        let epoch = current.epoch + 1;
        *current = Arc::new(Snapshot { epoch, store });
        // Epoch is advertised only after the snapshot is visible, so a
        // worker that observes the new epoch always loads the new store.
        self.epoch.store(epoch, Ordering::SeqCst);
        epoch
    }
}

/// A deep value copy of `base`: same [`ParamId`] assignment (ids are
/// allocated sequentially by insertion order), same names, same shapes —
/// exactly what a plan compiled against `base` needs to resolve against
/// the copy.
pub(crate) fn clone_store(base: &ParamStore) -> ParamStore {
    let mut store = ParamStore::new();
    for id in base.ids() {
        store.add(base.name(id), base.value(id).clone());
    }
    store
}

/// Handle a background trainer uses to hot-swap the fleet's weights; see
/// [`super::FleetService::publisher`]. Cloneable and `Send`, so it can
/// move to the training thread while the fleet keeps serving.
#[derive(Clone)]
pub struct SnapshotPublisher {
    pub(crate) cell: Arc<SnapshotCell>,
    /// `(id, shape)` contract the fleet's compiled plans assume; publishes
    /// are validated against it so a mismatched store fails typed instead
    /// of corrupting a forward pass.
    pub(crate) contract: Arc<Vec<(ParamId, Vec<usize>)>>,
}

impl std::fmt::Debug for SnapshotPublisher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotPublisher")
            .field("epoch", &self.cell.epoch())
            .field("params", &self.contract.len())
            .finish()
    }
}

impl SnapshotPublisher {
    /// Builds a publisher over `cell` whose contract is `base`'s layout.
    pub(crate) fn new(cell: Arc<SnapshotCell>, base: &ParamStore) -> Self {
        let contract = base.ids().map(|id| (id, base.value(id).shape().to_vec())).collect();
        Self { cell, contract: Arc::new(contract) }
    }

    /// The epoch of the currently published snapshot (0 = spawn weights).
    pub fn epoch(&self) -> u64 {
        self.cell.epoch()
    }

    /// Publishes `store`'s current values as the fleet's new weights and
    /// returns the new epoch.
    ///
    /// The store must match the serving model's parameter layout — same
    /// parameter count, same per-id shapes — because compiled plans index
    /// parameters by id. A trainer that trained a *fresh instance of the
    /// same architecture* satisfies this by construction; anything else
    /// fails with [`EnhanceNetError::InvalidConfig`] and leaves the
    /// current snapshot serving.
    ///
    /// In-flight batches finish on the old snapshot; workers pick the new
    /// one up at their next batch boundary (counted as
    /// `serve.swap.adopted`). Counters: `serve.swap.published`; gauge
    /// `serve.swap.epoch`.
    pub fn publish(&self, store: &ParamStore) -> Result<u64, EnhanceNetError> {
        let got: Vec<(ParamId, Vec<usize>)> =
            store.ids().map(|id| (id, store.value(id).shape().to_vec())).collect();
        if got != *self.contract {
            return Err(EnhanceNetError::InvalidConfig {
                field: "snapshot",
                reason: format!(
                    "published store layout ({} params) does not match the serving model ({} params with identical ids/shapes required)",
                    got.len(),
                    self.contract.len()
                ),
            });
        }
        let epoch = self.cell.publish(clone_store(store));
        enhancenet_telemetry::count("serve.swap.published", 1);
        enhancenet_telemetry::gauge("serve.swap.epoch", epoch as f64);
        Ok(epoch)
    }
}
