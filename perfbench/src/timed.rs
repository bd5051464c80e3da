//! A [`RoutingAlgorithm`] that delegates every method to another one and
//! times `plan_route`, the call the engine makes at every planning site.
//!
//! The shard engine calls `plan_route` from every worker thread at once,
//! so all counters are atomics: totals come out the same for any
//! interleaving, as the trait's concurrency contract asks. The wrapper
//! changes no route, so a run through it simulates exactly what a run
//! without it does (`tests/timed_wrapper.rs` checks this).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use gcube_routing::{CacheStats, FaultSet, Route, RoutingError};
use gcube_sim::{PlannedRoute, RoutingAlgorithm, TreeHealth};
use gcube_topology::{GaussianCube, NodeId};

/// Sub-buckets per power of two in the latency histogram (about 6%
/// resolution).
const SUB: u64 = 16;
/// Values below this are bucketed exactly.
const LINEAR: u64 = 4 * SUB;
/// Enough buckets for any `u64` nanosecond count.
const BUCKETS: usize = (LINEAR + (64 - 6) * SUB) as usize;

fn bucket_of(v: u64) -> usize {
    if v < LINEAR {
        return v as usize;
    }
    let exp = 63 - u64::from(v.leading_zeros());
    let mantissa = (v >> (exp - 4)) & (SUB - 1);
    (LINEAR + (exp - 6) * SUB + mantissa) as usize
}

/// The smallest value that falls into bucket `b`.
fn bucket_floor(b: usize) -> u64 {
    let b = b as u64;
    if b < LINEAR {
        return b;
    }
    let exp = (b - LINEAR) / SUB + 6;
    let mantissa = (b - LINEAR) % SUB;
    (SUB + mantissa) << (exp - 4)
}

/// Plan-time counters at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PlanStats {
    /// `plan_route` calls.
    pub calls: u64,
    /// Calls that returned an error.
    pub failures: u64,
    /// Summed wall time inside `plan_route`, nanoseconds.
    pub nanos: u64,
    /// Median call time, nanoseconds (interpolated in the histogram).
    pub p50_ns: f64,
    /// 99th-percentile call time, nanoseconds (interpolated in the
    /// histogram).
    pub p99_ns: f64,
}

impl PlanStats {
    /// Mean call time in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        self.nanos as f64 / self.calls.max(1) as f64
    }

    /// Failed calls over all calls.
    pub fn fail_ratio(&self) -> f64 {
        self.failures as f64 / self.calls.max(1) as f64
    }
}

/// The timing wrapper. Wrap a strategy, run the simulator on the wrapper,
/// read [`TimedRouting::stats`].
pub struct TimedRouting<'a> {
    inner: &'a dyn RoutingAlgorithm,
    calls: AtomicU64,
    failures: AtomicU64,
    nanos: AtomicU64,
    hist: Vec<AtomicU64>,
}

impl<'a> TimedRouting<'a> {
    /// Wrap `inner`.
    pub fn new(inner: &'a dyn RoutingAlgorithm) -> TimedRouting<'a> {
        TimedRouting {
            inner,
            calls: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
            hist: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Counters so far. Read after the run: the loads are independent,
    /// so a read racing with planners may mix two moments.
    pub fn stats(&self) -> PlanStats {
        let counts: Vec<u64> = self
            .hist
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let calls = self.calls.load(Ordering::Relaxed);
        // Interpolate linearly inside the bucket holding the rank.
        let at = |p: f64| {
            let rank = p * calls as f64;
            let mut seen = 0.0;
            for (b, &c) in counts.iter().enumerate() {
                if c > 0 && seen + c as f64 >= rank {
                    let width = bucket_floor(b + 1).saturating_sub(bucket_floor(b)) as f64;
                    return bucket_floor(b) as f64 + width * (rank - seen) / c as f64;
                }
                seen += c as f64;
            }
            0.0
        };
        PlanStats {
            calls,
            failures: self.failures.load(Ordering::Relaxed),
            nanos: self.nanos.load(Ordering::Relaxed),
            p50_ns: at(0.5),
            p99_ns: at(0.99),
        }
    }
}

impl RoutingAlgorithm for TimedRouting<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn compute_route(
        &self,
        gc: &GaussianCube,
        faults: &FaultSet,
        s: NodeId,
        d: NodeId,
    ) -> Result<Route, RoutingError> {
        self.inner.compute_route(gc, faults, s, d)
    }

    fn plan_route(
        &self,
        gc: &GaussianCube,
        faults: &FaultSet,
        s: NodeId,
        d: NodeId,
    ) -> Result<PlannedRoute, RoutingError> {
        let start = Instant::now();
        let planned = self.inner.plan_route(gc, faults, s, d);
        let ns = start.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.nanos.fetch_add(ns, Ordering::Relaxed);
        self.hist[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        if planned.is_err() {
            self.failures.fetch_add(1, Ordering::Relaxed);
        }
        planned
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.cache_stats()
    }

    fn survives_bound_exceeded(&self) -> bool {
        self.inner.survives_bound_exceeded()
    }

    fn tree_health(&self, gc: &GaussianCube, faults: &FaultSet) -> Option<Vec<TreeHealth>> {
        self.inner.tree_health(gc, faults)
    }

    fn wire_spec(&self) -> Option<(&'static str, usize)> {
        self.inner.wire_spec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_tight() {
        let mut last = 0;
        for v in (0..5000u64).chain([1 << 20, 123_456_789, u64::MAX]) {
            let b = bucket_of(v);
            assert!(b >= last && b < BUCKETS, "bucket order at {v}");
            let floor = bucket_floor(b);
            assert!(
                floor <= v && v - floor <= v / SUB,
                "bucket of {v}: floor {floor}"
            );
            last = b;
        }
    }
}
