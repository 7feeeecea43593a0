//! Ground-truth behaviour of function invocations.
//!
//! The simulator separates *what an invocation would do on real hardware*
//! (its true CPU peak, memory peak and duration, a function of its input)
//! from *what the platform believes about it* (the profiler's predictions).
//! A [`DemandModel`] supplies the former; platforms may only observe it
//! indirectly through usage monitoring and post-completion actuals — exactly
//! the visibility a provider has through cgroups on a real cluster.

use crate::resources::ResourceVec;
use crate::time::SimDuration;

/// Metadata about an invocation's input data. The platform may inspect the
/// *size* (it is visible on the wire) but never the content — Libra treats
/// content as protected (§4). The `content_seed` deterministically drives the
/// content-dependent behaviour of input-size-unrelated functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InputMeta {
    /// Input size in application-specific units (bytes, pages, vertices...).
    pub size: u64,
    /// Opaque handle standing in for the (hidden) input content.
    pub content_seed: u64,
}

impl InputMeta {
    /// Convenience constructor.
    pub fn new(size: u64, content_seed: u64) -> Self {
        InputMeta { size, content_seed }
    }
}

/// What an invocation would consume if granted at least its peak demands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrueDemand {
    /// Highest number of busy millicores during execution (§4.3.1 "usage peak").
    pub cpu_peak_millis: u64,
    /// Highest memory footprint in MB.
    pub mem_peak_mb: u64,
    /// Execution duration when fully provisioned (CPU ≥ peak, memory ≥ peak).
    pub base_duration: SimDuration,
}

impl TrueDemand {
    /// Total CPU work, in millicore-microseconds. Execution completes once
    /// this much work has been accumulated at the effective rate.
    pub fn work(&self) -> u128 {
        self.cpu_peak_millis as u128 * self.base_duration.as_micros() as u128
    }

    /// Peak demands as a resource vector.
    pub fn peak(&self) -> ResourceVec {
        ResourceVec::new(self.cpu_peak_millis, self.mem_peak_mb)
    }
}

/// Ground-truth model of one function: input → true demand.
///
/// Implementations live in `libra-workloads` (the ten SeBS-like applications
/// of Table 1). Implementations must be deterministic in `input` so that the
/// speedup metric (Eq. 1) can compare the same invocation across platforms.
pub trait DemandModel: Send + Sync {
    /// The true demand of an invocation with the given input.
    fn demand(&self, input: &InputMeta) -> TrueDemand;
}

/// A trivially constant demand model, useful in tests.
#[derive(Clone, Debug)]
pub struct ConstantDemand(pub TrueDemand);

impl DemandModel for ConstantDemand {
    fn demand(&self, _input: &InputMeta) -> TrueDemand {
        self.0
    }
}

/// A demand model driven by closures, useful in tests and ad-hoc experiments.
pub struct FnDemand<F: Fn(&InputMeta) -> TrueDemand + Send + Sync>(pub F);

impl<F: Fn(&InputMeta) -> TrueDemand + Send + Sync> DemandModel for FnDemand<F> {
    fn demand(&self, input: &InputMeta) -> TrueDemand {
        (self.0)(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_is_peak_times_duration() {
        let d = TrueDemand {
            cpu_peak_millis: 4000,
            mem_peak_mb: 512,
            base_duration: SimDuration::from_secs(2),
        };
        assert_eq!(d.work(), 4000u128 * 2_000_000u128);
        assert_eq!(d.peak(), ResourceVec::new(4000, 512));
    }

    #[test]
    fn fn_demand_delegates() {
        let model = FnDemand(|i: &InputMeta| TrueDemand {
            cpu_peak_millis: i.size,
            mem_peak_mb: 128,
            base_duration: SimDuration::from_millis(i.size),
        });
        let d = model.demand(&InputMeta::new(500, 0));
        assert_eq!(d.cpu_peak_millis, 500);
        assert_eq!(d.base_duration, SimDuration::from_millis(500));
    }

    #[test]
    fn constant_demand_ignores_input() {
        let base = TrueDemand {
            cpu_peak_millis: 1000,
            mem_peak_mb: 64,
            base_duration: SimDuration::from_secs(1),
        };
        let model = ConstantDemand(base);
        assert_eq!(model.demand(&InputMeta::new(1, 2)), base);
        assert_eq!(model.demand(&InputMeta::new(999, 42)), base);
    }
}
