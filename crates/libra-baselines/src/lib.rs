//! # libra-baselines — comparison platforms and schedulers
//!
//! The systems Libra is evaluated against:
//!
//! * [`openwhisk`] — the OpenWhisk default platform (fixed user allocations,
//!   hash scheduling),
//! * [`freyr`] — a behaviourally-faithful stand-in for Freyr \[49\], the
//!   closest prior work (history-only estimates, no timeliness awareness,
//!   non-preemptive safeguard — see §9 and DESIGN.md §1),
//! * [`schedulers`] — Round-Robin, Join-the-Shortest-Queue and
//!   Min-Worker-Set node selectors, pluggable under Libra's harvesting for
//!   the §8.4 scheduling comparison,
//! * [`registry`] — [`PlatformKind`], the one name → constructor table for
//!   these platforms and Libra's variants, shared by the experiments and
//!   the CLI.

#![warn(missing_docs)]

pub mod freyr;
pub mod openwhisk;
pub mod registry;
pub mod schedulers;

pub use freyr::Freyr;
pub use openwhisk::OpenWhiskDefault;
pub use registry::PlatformKind;
pub use schedulers::{JoinShortestQueue, MinWorkerSet, RoundRobin};
