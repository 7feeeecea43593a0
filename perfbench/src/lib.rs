//! End-to-end and per-layer benchmark for the Libra reproduction.
//!
//! One binary runs one named workload per invocation (see `README.md` in
//! this directory). Untraced runs print the end-to-end metrics; traced runs
//! print the per-layer ones, measured from outside the program: a timing
//! shim around the simulator's `Platform`, the platforms' public counters,
//! and the gateway's `GET /metrics`.

mod gateway;
pub mod report;
pub mod shim;
pub mod sim;
mod stats;

use report::Outcome;
use sim::SimWorkload;

/// The workloads, by the names `--workload` takes.
pub const WORKLOADS: [&str; 3] = ["default-huge", "libra-sebs", "gateway-loopback"];

/// Run workload `name` for `seconds`; `None` for an unknown name.
pub fn run(name: &str, seed: u64, seconds: f64, traced: bool) -> Option<Outcome> {
    let sim = |w| Some(sim::run(w, seed, seconds, traced));
    let mut out = match name {
        "default-huge" => sim(SimWorkload::DefaultHuge),
        "libra-sebs" => sim(SimWorkload::LibraSebs),
        "gateway-loopback" => Some(gateway::run(seed, seconds, traced)),
        _ => None,
    }?;
    if !traced {
        let ok = out.attempted.saturating_sub(out.failed) as f64;
        out.set("ok_share", ok / out.attempted.max(1) as f64);
    }
    Some(out)
}
