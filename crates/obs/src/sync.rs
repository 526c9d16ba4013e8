//! Poison-recovering synchronization helpers.
//!
//! A panicking thread poisons every `std::sync::Mutex` it holds. For the
//! workspace's shared state — result caches, metrics registries, work queues,
//! per-column rotation locks — poisoning is not a correctness signal worth
//! dying for: every protected structure is either valid at all times (atomic
//! counters, intrusive lists repaired on next use) or safe to serve slightly
//! stale (caches). These helpers recover the guard via
//! [`std::sync::PoisonError::into_inner`] instead of propagating the panic,
//! and count every recovery in the global metrics registry under
//! `lock_poison_recovered_total` so operators can see that a panic happened.

use std::sync::{Condvar, Mutex, MutexGuard, TryLockError, WaitTimeoutResult};
use std::time::Duration;

fn note_recovery() {
    crate::obs_counter!("lock_poison_recovered_total").inc();
}

/// Locks `m`, recovering (and counting) a poisoned guard instead of panicking.
///
/// The poison flag is cleared on recovery, so one panic costs one recovery —
/// subsequent locks are ordinary.
pub fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => {
            note_recovery();
            m.clear_poison();
            poisoned.into_inner()
        }
    }
}

/// [`lock_recover`] that never waits: `None` while another holder has `m`.
pub fn try_lock_recover<T>(m: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
    match m.try_lock() {
        Ok(g) => Some(g),
        Err(TryLockError::WouldBlock) => None,
        Err(TryLockError::Poisoned(poisoned)) => {
            note_recovery();
            m.clear_poison();
            Some(poisoned.into_inner())
        }
    }
}

/// [`lock_recover`] with a repair hook: `repair` runs on the recovered value
/// only when the lock was poisoned, letting callers reset state a panicking
/// holder may have left half-updated (e.g. clearing a cache). Clearing the
/// poison flag makes the repair run exactly once per poisoning, not on every
/// later lock.
pub fn lock_recover_then<T, F: FnOnce(&mut T)>(m: &Mutex<T>, repair: F) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => {
            note_recovery();
            m.clear_poison();
            let mut g = poisoned.into_inner();
            repair(&mut g);
            g
        }
    }
}

/// [`Condvar::wait`] that recovers a poisoned guard instead of panicking.
pub fn wait_recover<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    match cv.wait(guard) {
        Ok(g) => g,
        Err(poisoned) => {
            note_recovery();
            poisoned.into_inner()
        }
    }
}

/// [`Condvar::wait_timeout`] that recovers a poisoned guard instead of panicking.
pub fn wait_timeout_recover<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    dur: Duration,
) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
    match cv.wait_timeout(guard, dur) {
        Ok(r) => r,
        Err(poisoned) => {
            note_recovery();
            poisoned.into_inner()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_recover_survives_poison() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        let mut g = lock_recover(&m);
        assert_eq!(*g, 7);
        *g = 8;
        drop(g);
        // Recovery cleared the poison: later locks are ordinary again.
        assert!(!m.is_poisoned());
        assert_eq!(*m.lock().unwrap(), 8);
    }

    #[test]
    fn lock_recover_then_repairs_only_on_poison() {
        let m = Arc::new(Mutex::new(vec![1, 2, 3]));
        // Healthy lock: repair must not run.
        let g = lock_recover_then(&m, |v| v.clear());
        assert_eq!(g.len(), 3);
        drop(g);
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        let g = lock_recover_then(&m, |v| v.clear());
        assert!(g.is_empty(), "repair must run after poisoning");
        drop(g);
        // One panic, one repair: the next lock is healthy and must not repair.
        let mut g = lock_recover_then(&m, |v| v.push(9));
        assert!(g.is_empty());
        g.push(4);
        drop(g);
        assert_eq!(lock_recover_then(&m, |v| v.clear()).as_slice(), &[4]);
    }

    #[test]
    fn try_lock_recover_reports_a_held_lock_and_recovers_poison() {
        let m = Arc::new(Mutex::new(1u32));
        let held = lock_recover(&m);
        assert!(
            try_lock_recover(&m).is_none(),
            "a held lock is reported, not awaited"
        );
        drop(held);
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert_eq!(try_lock_recover(&m).map(|g| *g), Some(1));
        assert!(!m.is_poisoned());
    }

    #[test]
    fn wait_timeout_recover_returns_after_poison() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let _ = std::thread::spawn(move || {
            let _g = p2.0.lock().unwrap();
            panic!("poison it");
        })
        .join();
        let (m, cv) = (&pair.0, &pair.1);
        let g = lock_recover(m);
        let (g, timed_out) = wait_timeout_recover(cv, g, Duration::from_millis(1));
        assert!(timed_out.timed_out());
        assert!(!*g);
    }
}
