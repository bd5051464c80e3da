//! The repository benchmark: three workloads over the public API of the
//! Gaussian Cube simulator, the FTGCR router and the `gcube serve`
//! daemon, with per-layer timing taken from the benchmark's own code.
//!
//! The binary (`src/main.rs`) drives the workloads; this library holds
//! what the binary and the tests share: the workload definitions, the
//! delegating timing wrapper around a [`RoutingAlgorithm`], and the
//! statistics helpers.

pub mod stats;
pub mod timed;
pub mod workload;

pub use timed::TimedRouting;
pub use workload::Workload;
