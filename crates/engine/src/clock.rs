//! Time abstracted behind a trait, so every time-driven decision in
//! the engine can be driven deterministically in tests: ticket
//! deadlines, per-tenant quota windows and token buckets, admission
//! wait timeouts, queue-wait measurements and trace span timings.
//!
//! Production code uses [`MonotonicClock`], a thin wrapper over
//! [`Instant`]. Tests use [`ManualClock`] and advance time explicitly:
//! no wall-clock sleeps, no flaky timing assertions — a deadline either
//! has or has not passed after an `advance`, decidable exactly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonic time source.
///
/// Implementations report elapsed time since an arbitrary fixed epoch
/// (their own construction, typically). Only differences between two
/// readings are meaningful; readings never decrease.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Time elapsed since the clock's epoch.
    fn now(&self) -> Duration;

    /// Upper bound on how long a waiter may park (in *real* time) on a
    /// condvar before re-reading this clock, given it wants to wait
    /// `requested` of clock time.
    ///
    /// A real clock advances while a thread sleeps, so the default
    /// parks for the whole interval. A [`ManualClock`] only moves when
    /// a test thread advances it: its waiters must park in short
    /// real-time slices and poll the manual time, otherwise a timeout
    /// measured on the engine clock would never fire.
    fn park_slice(&self, requested: Duration) -> Duration {
        requested
    }
}

/// The production clock: wall-clock monotonic time via [`Instant`],
/// with the clock's construction as epoch.
#[derive(Debug)]
pub struct MonotonicClock {
    epoch: Instant,
}

impl MonotonicClock {
    /// A clock whose epoch is "now".
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }
}

/// A test clock that only moves when told to.
///
/// Starts at zero; [`advance`](Self::advance) moves it forward. Shared
/// freely across threads (readings are a single atomic load), so a test
/// can hold one `Arc<ManualClock>` and hand a clone to the engine.
///
/// ```
/// use std::time::Duration;
/// use skyline_engine::{Clock, ManualClock};
///
/// let clock = ManualClock::new();
/// assert_eq!(clock.now(), Duration::ZERO);
/// clock.advance(Duration::from_secs(3));
/// assert_eq!(clock.now(), Duration::from_secs(3));
/// ```
#[derive(Debug, Default)]
pub struct ManualClock {
    nanos: AtomicU64,
}

impl ManualClock {
    /// A clock standing at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// A shared clock standing at zero (the common test setup).
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Moves the clock forward by `by`.
    pub fn advance(&self, by: Duration) {
        self.nanos
            .fetch_add(by.as_nanos().min(u64::MAX as u128) as u64, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::SeqCst))
    }

    /// Manual time stands still while waiters sleep; park at most a
    /// millisecond of real time, then re-read.
    fn park_slice(&self, requested: Duration) -> Duration {
        requested.min(Duration::from_millis(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_never_regresses() {
        let clock = MonotonicClock::new();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_moves_only_on_advance() {
        let clock = ManualClock::new();
        assert_eq!(clock.now(), Duration::ZERO);
        clock.advance(Duration::from_millis(250));
        clock.advance(Duration::from_millis(750));
        assert_eq!(clock.now(), Duration::from_secs(1));
    }

    #[test]
    fn manual_clock_is_shared_across_threads() {
        let clock = ManualClock::shared();
        let seen = {
            let clock = Arc::clone(&clock);
            std::thread::spawn(move || {
                clock.advance(Duration::from_secs(2));
                clock.now()
            })
            .join()
            .unwrap()
        };
        assert_eq!(seen, Duration::from_secs(2));
        assert_eq!(clock.now(), Duration::from_secs(2));
    }

    #[test]
    fn clock_trait_objects_are_usable() {
        let clocks: Vec<Arc<dyn Clock>> =
            vec![Arc::new(MonotonicClock::new()), ManualClock::shared()];
        for c in &clocks {
            let _ = c.now();
        }
    }
}
