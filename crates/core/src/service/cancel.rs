//! Cooperative cancellation: the stop flag a running [`crate::Machine`]'s
//! run hook checks at tick boundaries.
//!
//! A [`CancelToken`] is the one communication channel between the control
//! plane (the job service, a timeout, a client pressing ^C) and a
//! simulation in flight. The runner's run hook
//! ([`crate::RunRequest::run_with_recovery`]) polls [`CancelToken::check`]
//! at every workload tick boundary — the natural quiescent point where
//! all pending shootdowns are drained — and stops the run cooperatively,
//! returning the statistics accumulated so far. Nothing is ever detached
//! or killed: a cancelled run unwinds through the normal return path
//! within one tick.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const LIVE: u8 = 0;
const CANCELLED: u8 = 1;
const TIMED_OUT: u8 = 2;

/// Why a run was asked to stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCause {
    /// A client (or the service) cancelled the job explicitly.
    Cancelled,
    /// The job's cooperative deadline passed.
    TimedOut,
}

impl StopCause {
    /// Stable identifier used in logs and JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            StopCause::Cancelled => "cancelled",
            StopCause::TimedOut => "timed-out",
        }
    }
}

#[derive(Debug, Default)]
struct TokenInner {
    /// Latched stop state (`LIVE`/`CANCELLED`/`TIMED_OUT`). Once set to a
    /// terminal value it never changes, so the cause a machine observed at
    /// its stop point is the cause everyone else sees afterwards.
    state: AtomicU8,
    /// Cooperative deadline; checked (and latched into `state`) by
    /// [`CancelToken::check`].
    deadline: Mutex<Option<Instant>>,
}

/// A shared, cloneable stop flag with an optional deadline.
///
/// Cancellation is *cooperative*: calling [`CancelToken::cancel`] (or the
/// deadline passing) only marks the token; the running machine observes it
/// at its next tick boundary and stops there. The token latches the first
/// cause — a cancel racing a timeout resolves deterministically to
/// whichever marked the token first.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl CancelToken {
    /// A live token with no deadline.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Marks the token cancelled. Idempotent; a no-op if the deadline
    /// already fired.
    pub fn cancel(&self) {
        let _ =
            self.inner
                .state
                .compare_exchange(LIVE, CANCELLED, Ordering::AcqRel, Ordering::Acquire);
    }

    /// Arms (or re-arms) the cooperative deadline.
    pub fn set_deadline(&self, at: Instant) {
        *self.inner.deadline.lock().expect("deadline lock") = Some(at);
    }

    /// The stop cause, if any — checking (and latching) the deadline as a
    /// side effect. This is the call the runner's tick hook makes.
    #[must_use]
    pub fn check(&self) -> Option<StopCause> {
        match self.inner.state.load(Ordering::Acquire) {
            CANCELLED => return Some(StopCause::Cancelled),
            TIMED_OUT => return Some(StopCause::TimedOut),
            _ => {}
        }
        let due = {
            let deadline = self.inner.deadline.lock().expect("deadline lock");
            matches!(*deadline, Some(at) if Instant::now() >= at)
        };
        if due {
            let _ = self.inner.state.compare_exchange(
                LIVE,
                TIMED_OUT,
                Ordering::AcqRel,
                Ordering::Acquire,
            );
            // Re-read: a racing cancel() may have latched first; report
            // whatever won.
            return match self.inner.state.load(Ordering::Acquire) {
                CANCELLED => Some(StopCause::Cancelled),
                _ => Some(StopCause::TimedOut),
            };
        }
        None
    }

    /// True when the token has latched a stop cause (does not arm the
    /// deadline check).
    #[must_use]
    pub fn is_stopped(&self) -> bool {
        self.inner.state.load(Ordering::Acquire) != LIVE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn token_latches_cancel() {
        let t = CancelToken::new();
        assert_eq!(t.check(), None);
        assert!(!t.is_stopped());
        t.cancel();
        assert_eq!(t.check(), Some(StopCause::Cancelled));
        assert!(t.is_stopped());
        // Latched: a later deadline cannot repaint the cause.
        t.set_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(t.check(), Some(StopCause::Cancelled));
    }

    #[test]
    fn deadline_latches_timeout() {
        let t = CancelToken::new();
        t.set_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(t.check(), Some(StopCause::TimedOut));
        // Latched: cancel after the fact does not repaint.
        t.cancel();
        assert_eq!(t.check(), Some(StopCause::TimedOut));
    }

    #[test]
    fn future_deadline_stays_live() {
        let t = CancelToken::new();
        t.set_deadline(Instant::now() + Duration::from_secs(3600));
        assert_eq!(t.check(), None);
        assert!(!t.is_stopped());
    }

    #[test]
    fn clones_share_state() {
        let t = CancelToken::new();
        let u = t.clone();
        t.cancel();
        assert_eq!(u.check(), Some(StopCause::Cancelled));
    }
}
