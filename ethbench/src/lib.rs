//! `ethbench`: the ethmeter simulator's end-to-end and per-layer
//! benchmark.
//!
//! Three workloads ([`Workload`]) each run a fixed scenario shape from a
//! seed, a number of times set by the run's nominal length. Untraced runs report what a user of the
//! simulator feels — simulated seconds per wall second, set-up time, peak
//! heap, per-campaign wall time. Traced runs drive the same scenarios
//! through the simulator's public phases with a timing wrapper around the
//! world ([`trace::Traced`]) and report a per-layer table. Every campaign
//! passes a correctness gate; failures are counted, never hidden.

pub mod alloc;
pub mod host;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

pub use report::{Metric, Report};
pub use workloads::{Opts, Workload};
