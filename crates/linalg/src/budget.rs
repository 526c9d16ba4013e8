//! Cooperative cancellation budgets for iterative kernels.
//!
//! The iterative algorithms in this stack — Sinkhorn balancing, the Jacobi,
//! Golub–Reinsch and dqds SVD loops — can legitimately spin for their full
//! iteration budget on adversarial inputs. A [`Budget`] bounds that in
//! *wall-clock* terms: it carries an optional deadline and an optional shared
//! [`CancelToken`], and the kernels poll [`Budget::check`] once per
//! iteration/sweep, returning
//! [`LinAlgError::DeadlineExceeded`] (with the iterations completed and the
//! residual at the point of cancellation) when either trips.
//!
//! Every iterating kernel takes the budget as an `Option<&Budget>` argument
//! just before its workspace. `None` polls nothing and pays nothing, so
//! unbudgeted numerical results are bit-for-bit those of a budgeted run that
//! does not trip.

use crate::error::LinAlgError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A clonable cancellation flag shared between a requester and a running kernel.
///
/// Cloning is cheap (one `Arc`); any clone can [`cancel`](CancelToken::cancel)
/// and every holder observes it on the next [`Budget::check`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cooperative cancellation.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A wall-clock deadline plus optional cancellation flag for iterative kernels.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
}

impl Budget {
    /// A budget that never expires (checks always pass).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A budget expiring `timeout` from now.
    pub fn with_deadline(timeout: Duration) -> Self {
        Self::with_deadline_at(Instant::now() + timeout)
    }

    /// A budget expiring at `deadline`.
    pub fn with_deadline_at(deadline: Instant) -> Self {
        Budget {
            deadline: Some(deadline),
            cancel: None,
        }
    }

    /// Attaches a cancellation token (builder style).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Time until the deadline: `None` when unlimited, zero when expired.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Whether the deadline has passed or cancellation was requested.
    pub fn is_exhausted(&self) -> bool {
        if let Some(tok) = &self.cancel {
            if tok.is_cancelled() {
                return true;
            }
        }
        matches!(self.deadline, Some(d) if Instant::now() >= d)
    }

    /// Polls the budget from inside an iterative kernel.
    ///
    /// `iterations` and `residual` describe the progress made so far; they are
    /// carried into the [`LinAlgError::DeadlineExceeded`] error so callers can
    /// report partial-progress diagnostics.
    pub fn check(
        &self,
        op: &'static str,
        iterations: usize,
        residual: f64,
    ) -> Result<(), LinAlgError> {
        if self.is_exhausted() {
            Err(LinAlgError::DeadlineExceeded {
                op,
                iterations,
                residual,
            })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let b = Budget::unlimited();
        assert!(!b.is_exhausted());
        assert!(b.check("op", 3, 0.5).is_ok());
        assert_eq!(b.remaining(), None);
    }

    #[test]
    fn expired_deadline_trips_with_progress() {
        let b = Budget::with_deadline_at(Instant::now() - Duration::from_millis(1));
        assert!(b.is_exhausted());
        match b.check("sinkhorn-balance", 42, 1e-3) {
            Err(LinAlgError::DeadlineExceeded {
                op,
                iterations,
                residual,
            }) => {
                assert_eq!(op, "sinkhorn-balance");
                assert_eq!(iterations, 42);
                assert_eq!(residual, 1e-3);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(b.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn future_deadline_passes() {
        let b = Budget::with_deadline(Duration::from_secs(3600));
        assert!(b.check("op", 0, 0.0).is_ok());
        assert!(b.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn cancel_token_trips_all_clones() {
        let tok = CancelToken::new();
        let b = Budget::unlimited().with_cancel(tok.clone());
        assert!(b.check("op", 0, 0.0).is_ok());
        tok.cancel();
        assert!(tok.is_cancelled());
        assert!(b.is_exhausted());
        assert!(b.check("op", 7, 0.25).is_err());
    }
}
