//! One-shot reply delivery between the batch worker and a waiting caller.
//!
//! Earlier revisions carried replies on a per-request bounded channel — a
//! full MPMC structure (queue, capacity accounting, two condvars) allocated
//! and torn down for every single request, and the deadline wait degenerated
//! into repeated short-timeout polls. [`ReplySlot`] is the purpose-built
//! replacement: one `Mutex<Option<..>>` plus one `Condvar`. The waiter
//! parks on the condvar until the worker delivers or disconnects —
//! **no spinning, no timed re-polling** — so a queue-heavy load test with
//! thousands of outstanding waiters burns no CPU while parked, and the
//! per-request allocation drops to a single `Arc`.

use super::worker::BatchReply;
use crate::error::EnhanceNetError;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// What the worker half observes and the waiter half consumes.
struct SlotState {
    /// The reply, once delivered. Stays in place until the waiter takes it,
    /// so a late `wait` after a timely delivery still succeeds.
    value: Option<Result<BatchReply, EnhanceNetError>>,
    /// True once the worker half is gone (delivered or dropped); a closed
    /// slot with no value means the worker died before answering.
    closed: bool,
}

/// The shared one-shot cell; see the module docs.
pub(crate) struct ReplySlot {
    state: Mutex<SlotState>,
    delivered: Condvar,
}

impl ReplySlot {
    /// A fresh slot split into its worker half ([`ReplyHandle`]) and the
    /// shared cell the waiter parks on.
    pub(crate) fn pair() -> (ReplyHandle, Arc<ReplySlot>) {
        let slot = Arc::new(ReplySlot {
            state: Mutex::new(SlotState { value: None, closed: false }),
            delivered: Condvar::new(),
        });
        (ReplyHandle { slot: Arc::clone(&slot), sent: false }, slot)
    }

    fn deliver(&self, value: Result<BatchReply, EnhanceNetError>) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.value = Some(value);
        state.closed = true;
        drop(state);
        self.delivered.notify_all();
    }

    fn close(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.closed = true;
        drop(state);
        self.delivered.notify_all();
    }

    /// Parks until a reply is delivered, the worker disconnects, or
    /// `remaining` elapses. An already-delivered reply is returned even
    /// when `remaining` is zero (the late-wait poll contract).
    fn wait_remaining(&self, remaining: Duration) -> Result<BatchReply, EnhanceNetError> {
        let deadline = Instant::now() + remaining;
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(value) = state.value.take() {
                return value;
            }
            if state.closed {
                return Err(EnhanceNetError::ServiceStopped);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(EnhanceNetError::DeadlineExceeded { deadline: remaining });
            }
            let (next, _timeout) = self
                .delivered
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            state = next;
        }
    }
}

/// The worker's sending half. Exactly one reply may be sent; dropping the
/// handle without sending closes the slot so the waiter observes
/// [`EnhanceNetError::ServiceStopped`] instead of parking forever.
pub(crate) struct ReplyHandle {
    slot: Arc<ReplySlot>,
    sent: bool,
}

impl ReplyHandle {
    /// Delivers the reply and wakes the waiter.
    pub(crate) fn send(mut self, value: Result<BatchReply, EnhanceNetError>) {
        self.sent = true;
        self.slot.deliver(value);
    }
}

impl Drop for ReplyHandle {
    fn drop(&mut self) {
        if !self.sent {
            self.slot.close();
        }
    }
}

impl std::fmt::Debug for ReplyHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplyHandle").field("sent", &self.sent).finish_non_exhaustive()
    }
}

/// Handle to an in-flight prediction submitted with
/// [`super::FleetService::submit`].
pub struct PendingForecast {
    pub(crate) slot: Arc<ReplySlot>,
    /// When the request entered the queue. The deadline clock starts here,
    /// not at [`PendingForecast::wait`]: time spent queued behind other
    /// requests counts against the latency budget, matching what the caller
    /// actually experiences.
    pub(crate) submitted: Instant,
    pub(crate) id: u64,
}

impl std::fmt::Debug for PendingForecast {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingForecast")
            .field("id", &self.id)
            .field("submitted", &self.submitted)
            .finish_non_exhaustive()
    }
}

impl PendingForecast {
    /// The monotonic request id assigned at submission.
    pub fn request_id(&self) -> u64 {
        self.id
    }

    /// Waits until `deadline` *measured from submission* for the scaled
    /// `[F, N]` prediction.
    ///
    /// The budget starts when the submit call accepted the request, so
    /// queue time already spent is subtracted; calling `wait` after the
    /// deadline has lapsed still polls once for an already-delivered reply
    /// before giving up. The wait parks on the slot's condvar — it burns
    /// no CPU while the worker computes.
    ///
    /// Returns [`EnhanceNetError::DeadlineExceeded`] on timeout and
    /// [`EnhanceNetError::ServiceStopped`] when the worker is gone (or shed
    /// this request during a [`super::ShutdownMode::Now`] shutdown); a
    /// late-arriving reply after a timeout is dropped harmlessly.
    pub fn wait(&self, deadline: Duration) -> Result<enhancenet_tensor::Tensor, EnhanceNetError> {
        self.wait_reply(deadline).map(|reply| reply.values)
    }

    /// [`PendingForecast::wait`] keeping the worker-side timing breakdown.
    pub(crate) fn wait_reply(&self, deadline: Duration) -> Result<BatchReply, EnhanceNetError> {
        let remaining = deadline.saturating_sub(self.submitted.elapsed());
        match self.slot.wait_remaining(remaining) {
            Err(EnhanceNetError::DeadlineExceeded { .. }) => {
                Err(EnhanceNetError::DeadlineExceeded { deadline })
            }
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enhancenet_tensor::Tensor;

    #[test]
    fn delivered_reply_wakes_waiter() {
        let (handle, slot) = ReplySlot::pair();
        let waiter = std::thread::spawn(move || slot.wait_remaining(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        handle.send(Ok(BatchReply {
            values: Tensor::zeros(&[2, 2]),
            queue_wait_ns: 1,
            forward_ns: 2,
        }));
        let reply = waiter.join().unwrap().unwrap();
        assert_eq!(reply.queue_wait_ns, 1);
        assert_eq!(reply.forward_ns, 2);
    }

    #[test]
    fn dropped_handle_reports_service_stopped() {
        let (handle, slot) = ReplySlot::pair();
        drop(handle);
        match slot.wait_remaining(Duration::from_secs(5)) {
            Err(EnhanceNetError::ServiceStopped) => {}
            other => panic!("expected ServiceStopped, got {other:?}"),
        }
    }

    #[test]
    fn timeout_expires_without_delivery() {
        let (_handle, slot) = ReplySlot::pair();
        let started = Instant::now();
        match slot.wait_remaining(Duration::from_millis(30)) {
            Err(EnhanceNetError::DeadlineExceeded { .. }) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(started.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn late_wait_still_collects_delivered_reply() {
        let (handle, slot) = ReplySlot::pair();
        handle.send(Ok(BatchReply {
            values: Tensor::zeros(&[1]),
            queue_wait_ns: 0,
            forward_ns: 0,
        }));
        // Zero budget left: the wait must still poll the delivered value.
        assert!(slot.wait_remaining(Duration::ZERO).is_ok());
    }
}
