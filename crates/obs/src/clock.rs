//! Injectable time source: monotonic nanoseconds in binaries, a
//! deterministic mock in tests.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// A monotonic nanosecond source. Implementations must be non-decreasing:
/// a later call never returns a smaller value than an earlier one.
pub trait Clock: Send + Sync {
    /// Nanoseconds since an arbitrary (per-clock) epoch.
    fn now_ns(&self) -> u64;
}

/// The process-wide real clock: nanoseconds since the first observation in
/// this process (so traces start near zero and `u64` never overflows).
struct MonotonicClock;

fn anchor() -> &'static Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    ANCHOR.get_or_init(Instant::now)
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        // A u64 of nanoseconds lasts ~584 years of process uptime.
        anchor().elapsed().as_nanos() as u64
    }
}

/// A deterministic clock for tests: every reading advances time by a fixed
/// step, so any fixed sequence of instrumented operations produces a
/// byte-identical trace on every run.
#[derive(Debug)]
pub struct MockClock {
    step_ns: u64,
    now: AtomicU64,
}

impl MockClock {
    /// A mock clock starting at 0 that advances `step_ns` per reading.
    pub fn new(step_ns: u64) -> Self {
        MockClock {
            step_ns,
            now: AtomicU64::new(0),
        }
    }
}

impl Clock for MockClock {
    fn now_ns(&self) -> u64 {
        self.now.fetch_add(self.step_ns, Ordering::Relaxed)
    }
}

thread_local! {
    static LOCAL_CLOCK: RefCell<Option<Arc<dyn Clock>>> = const { RefCell::new(None) };
}

/// The active clock's current reading: the thread-local override installed
/// by [`with_clock`] if any, else the process-wide monotonic clock.
pub fn now_ns() -> u64 {
    LOCAL_CLOCK.with(|c| match &*c.borrow() {
        Some(clock) => clock.now_ns(),
        None => MonotonicClock.now_ns(),
    })
}

/// The thread-local clock override installed by [`with_clock`], if any.
/// Used to hand the caller's time source to worker threads (see
/// `SpanHandle`), so a mock clock governs an entire parallel section.
pub(crate) fn current() -> Option<Arc<dyn Clock>> {
    LOCAL_CLOCK.with(|c| c.borrow().clone())
}

/// Runs `f` with `clock` as this thread's time source, restoring the
/// previous source afterwards (also on panic).
pub fn with_clock<R>(clock: Arc<dyn Clock>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<dyn Clock>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            LOCAL_CLOCK.with(|c| *c.borrow_mut() = prev);
        }
    }
    let prev = LOCAL_CLOCK.with(|c| c.borrow_mut().replace(clock));
    let _restore = Restore(prev);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_is_nondecreasing() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn mock_clock_is_deterministic_and_scoped() {
        let readings = with_clock(Arc::new(MockClock::new(10)), || {
            [now_ns(), now_ns(), now_ns()]
        });
        assert_eq!(readings, [0, 10, 20]);
        // Outside the scope the real clock is back (values far above 20 are
        // not guaranteed, but determinism of the mock must not leak).
        let again = with_clock(Arc::new(MockClock::new(10)), now_ns);
        assert_eq!(again, 0);
    }
}
