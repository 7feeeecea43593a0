//! Wall-clock abstraction keeping `libra-core` deterministic.
//!
//! The control plane and its helpers must never read the machine clock:
//! the sim-vs-live fidelity test replays identical event sequences and
//! asserts identical action traces, which only holds if nothing in this
//! crate observes wall time. Components that *measure* their own overhead
//! (the profiler's train timer, the sharded scheduler's decision latency)
//! take a [`Clock`] instead; deterministic substrates pass [`NullClock`]
//! and the live/bench crates supply a real `std::time::Instant`-backed
//! implementation on their side of the boundary.

/// A monotonic microsecond clock. Implementations outside the deterministic
/// crates may read wall time; inside them only [`NullClock`] is used.
pub trait Clock: Send + Sync {
    /// Microseconds since an arbitrary (per-clock) epoch.
    fn now_micros(&self) -> u64;
}

/// The deterministic no-op clock: always reports `0`.
///
/// Durations measured against it are `0`, which is exactly what replayable
/// runs want — self-measured overhead is an observability concern, not an
/// input to any decision, and must not perturb traces.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullClock;

impl Clock for NullClock {
    fn now_micros(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_clock_is_frozen() {
        let c = NullClock;
        assert_eq!(c.now_micros(), 0);
        assert_eq!(c.now_micros(), 0);
    }
}
