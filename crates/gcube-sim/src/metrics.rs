//! Simulation metrics, matching the paper's definitions, plus the
//! degradation counters introduced by dynamic fault injection and the
//! latency/hop distributions introduced by the flight recorder.

use gcube_routing::faults::FaultBudget;

use crate::injection::FaultEvent;

/// Buckets per [`Histogram`]: exact counts for values `0..=62`, one
/// saturated bucket for everything larger.
pub const HIST_BUCKETS: usize = 64;

/// Fixed-bucket histogram of small non-negative integers (latencies in
/// cycles, hop counts).
///
/// Buckets `0..HIST_BUCKETS-1` each hold exactly one value; the last
/// bucket absorbs every sample `>= HIST_BUCKETS - 1`. The exact maximum is
/// tracked separately, so a percentile that resolves to the saturated top
/// bucket reports that maximum (an upper bound) rather than a fabricated
/// mid-bucket value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let idx = (v as usize).min(HIST_BUCKETS - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Raw bucket counts (`buckets()[i]` counts samples equal to `i`;
    /// the last bucket counts samples `>= HIST_BUCKETS - 1`).
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// The `p`-quantile (`p` in `[0, 1]`): the smallest value `v` whose
    /// cumulative count reaches `ceil(p * count)`. `None` when empty.
    /// A quantile landing in the saturated top bucket returns the exact
    /// maximum (see the type docs).
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= rank {
                return if i == HIST_BUCKETS - 1 {
                    Some(self.max)
                } else {
                    Some(i as u64)
                };
            }
        }
        Some(self.max)
    }

    /// Median (`None` when empty).
    pub fn p50(&self) -> Option<u64> {
        self.percentile(0.50)
    }

    /// 95th percentile (`None` when empty).
    pub fn p95(&self) -> Option<u64> {
        self.percentile(0.95)
    }

    /// 99th percentile (`None` when empty).
    pub fn p99(&self) -> Option<u64> {
        self.percentile(0.99)
    }

    /// Rebuild a histogram from its checkpointed parts ([`buckets`],
    /// [`count`], [`max`] — the full observable state).
    ///
    /// [`buckets`]: Histogram::buckets
    /// [`count`]: Histogram::count
    /// [`max`]: Histogram::max
    pub fn from_parts(buckets: [u64; HIST_BUCKETS], count: u64, max: u64) -> Histogram {
        Histogram {
            buckets,
            count,
            max,
        }
    }

    /// Merge another histogram into this one (bucket-wise sum).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }
}

/// Aggregated statistics of one simulation run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Metrics {
    /// Packets injected (after warm-up).
    pub injected: u64,
    /// Packets delivered (after warm-up).
    pub delivered: u64,
    /// Sum of per-packet latencies, in cycles (`LP` in the paper).
    pub total_latency: u64,
    /// Sum of per-packet hop counts.
    pub total_hops: u64,
    /// Packets whose route computation failed (unreachable destination) —
    /// zero under the theorem preconditions.
    pub route_failures: u64,
    /// Injections refused because the source buffer was full (only with
    /// finite buffers; zero under the paper's eager-readership model).
    pub blocked_injections: u64,
    /// Injections suppressed because the source had no usable destination:
    /// a permutation pattern whose partner is faulty (or is the source
    /// itself), or — under extreme fault density — no healthy destination
    /// at all. Offered load silently shrank by this many packets; compare
    /// throughput across fault counts with this column in view.
    pub suppressed_injections: u64,
    /// Packets still in flight when the simulation ended.
    pub in_flight_at_end: u64,
    /// Measured cycles (`PT` basis; injection + drain, minus warm-up).
    pub cycles: u64,
    /// Nodes in the network.
    pub nodes: u64,
    /// Packets lost to dynamic faults, all causes. Partitioned exactly by
    /// [`Metrics::dropped_stranded`], [`Metrics::dropped_unrecoverable`]
    /// and [`Metrics::ttl_expired`].
    pub dropped: u64,
    /// Drops caused specifically by the per-packet hop budget.
    pub ttl_expired: u64,
    /// Drops of packets stranded on a node that died under them.
    pub dropped_stranded: u64,
    /// Drops with no recovery route or an exhausted re-route budget.
    pub dropped_unrecoverable: u64,
    /// Packets that performed at least one mid-flight local re-route,
    /// counted once per packet at its final resolution (delivery or
    /// drop), not per re-route event.
    pub rerouted_packets: u64,
    /// Extra links traversed beyond each delivered packet's
    /// injection-time plan (detour cost of online recovery).
    pub rerouted_hops: u64,
    /// Fault events (failures and repairs) applied during the run.
    pub fault_events: u64,
    /// Whole-run count of link traversals, warm-up included. Unlike
    /// [`Metrics::total_hops`] (summed per delivered packet, measured
    /// window only), this ledger counts every forwarded hop the moment it
    /// happens — the ground truth the telemetry per-dimension counters
    /// must reconcile with exactly.
    pub forwarded_hops_total: u64,
    /// Times the fault-budget monitor changed health state (including
    /// the initial classification when the run starts faulty).
    pub health_transitions: u64,
    /// Cycles during which at least one fault was not yet reflected in
    /// the routing view (stale-knowledge exposure).
    pub stale_cycles: u64,
    /// Times the routing view re-converged onto the ground truth.
    pub reconvergences: u64,
    /// Whole-run packet ledger: every successful injection, warm-up
    /// included (unlike [`Metrics::injected`], which starts counting
    /// after warm-up). Satisfies
    /// `injected_total == delivered_total + dropped_total + in_flight_at_end`.
    pub injected_total: u64,
    /// Whole-run deliveries, warm-up included.
    pub delivered_total: u64,
    /// Whole-run drops, warm-up included.
    pub dropped_total: u64,
    /// Whole-run route-computation failures, warm-up included. These
    /// never create packets, so they sit outside the conservation sum.
    pub route_failures_total: u64,
    /// Whole-run suppressed injections, warm-up included. Like route
    /// failures, these never create packets.
    pub suppressed_injections_total: u64,
    /// Whole-run plans carried by each spanning tree, indexed by tree
    /// (multitree strategies only — zero elsewhere). Exhausted plans
    /// (FTGCR fallback) are *not* counted here; see
    /// [`Metrics::tree_exhausted`].
    pub tree_routes: [u64; MAX_TREES],
    /// Whole-run tree switches: trees tried and rejected (faulty
    /// component on the path) before a plan succeeded, summed over all
    /// planning sites (injection and mid-flight recovery).
    pub tree_switches: u64,
    /// Whole-run plans that exhausted every spanning tree and fell back
    /// to FTGCR.
    pub tree_exhausted: u64,
    /// Collective operations launched (broadcast / multicast / gather
    /// rounds). Counted once per operation by the launch site, so the
    /// sharded reduction leaves worker copies at zero.
    pub collective_ops: u64,
    /// Collective operations skipped because every candidate root in the
    /// scheduled ending class was faulty at launch time.
    pub collective_skipped: u64,
    /// Per-target collective packets injected, whole run. These live in
    /// the `*_total` ledger too (conservation covers them) but are kept
    /// out of the measured unicast counters — a broadcast wave would
    /// otherwise swamp the paper-figure latency statistics.
    pub collective_injected: u64,
    /// Collective packets delivered, whole run.
    pub collective_delivered: u64,
    /// Collective packets dropped, whole run.
    pub collective_dropped: u64,
    /// Broadcast-tree repairs that re-grafted orphaned subtrees in place
    /// (the cheap path: the cached tree survived the fault generation).
    pub tree_regrafts: u64,
    /// Broadcast-tree repairs that rebuilt the tree from scratch (root
    /// died, or no cached tree existed for the new fault generation).
    pub tree_rebuilds: u64,
    /// Healthy nodes a tree repair could not reattach (disconnected from
    /// the root by the live fault set), summed over repairs.
    pub tree_lost_nodes: u64,
    /// Distribution of per-packet latency over measured deliveries — the
    /// tail the paper's average hides (B/C-fault degradation spikes).
    pub latency_hist: Histogram,
    /// Distribution of per-packet hop counts over measured deliveries.
    pub hops_hist: Histogram,
}

/// Width of the per-tree counter array in [`Metrics`] — an upper bound on
/// any strategy's tree count, not a promise that many can be built.
pub const MAX_TREES: usize = 8;

impl Metrics {
    /// Average latency `LP / DP` in cycles (paper, Figure 5/7).
    pub fn avg_latency(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.delivered as f64
        }
    }

    /// Throughput `DP / PT` in packets per cycle (paper, Figure 6/8).
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.delivered as f64 / self.cycles as f64
        }
    }

    /// `log2` of throughput — the paper plots this "for clearer
    /// comparison". `None` when nothing was delivered (the logarithm is
    /// undefined); callers decide how to render that, instead of having
    /// `-inf` leak into tables.
    pub fn log2_throughput(&self) -> Option<f64> {
        let t = self.throughput();
        (t > 0.0).then(|| t.log2())
    }

    /// Mean hops per delivered packet.
    pub fn avg_hops(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.total_hops as f64 / self.delivered as f64
        }
    }

    /// Measured packets that reached a final outcome: delivered or
    /// dropped. Excludes packets still in flight at the end of the run.
    pub fn resolved(&self) -> u64 {
        self.delivered + self.dropped
    }

    /// Delivered over *resolved* (delivered + dropped) packets; `1.0`
    /// when nothing resolved. Sums to one with [`Metrics::drop_ratio`],
    /// even on runs that end with packets still in flight. (The old
    /// injected-based semantics live on as
    /// [`Metrics::completion_ratio`].)
    pub fn delivery_ratio(&self) -> f64 {
        let resolved = self.resolved();
        if resolved == 0 {
            1.0
        } else {
            self.delivered as f64 / resolved as f64
        }
    }

    /// Dropped over resolved packets; complements
    /// [`Metrics::delivery_ratio`] to one.
    pub fn drop_ratio(&self) -> f64 {
        let resolved = self.resolved();
        if resolved == 0 {
            0.0
        } else {
            self.dropped as f64 / resolved as f64
        }
    }

    /// Delivered over *injected* packets — the pre-flight-recorder
    /// `delivery_ratio` semantics, kept because it is the right question
    /// for "did the run drain?": packets still in flight at the end count
    /// against it, so it under-reports on truncated runs by design.
    pub fn completion_ratio(&self) -> f64 {
        if self.injected == 0 {
            1.0
        } else {
            self.delivered as f64 / self.injected as f64
        }
    }

    /// Fold another ledger into this one: every additive counter is
    /// summed and the histograms merged bucket-wise. A sharded run
    /// reduces worker ledgers with this; the run-level fields shard 0
    /// sets exactly once — [`Metrics::nodes`],
    /// [`Metrics::cycles`], [`Metrics::in_flight_at_end`] — are left
    /// untouched.
    pub fn absorb(&mut self, other: &Metrics) {
        self.injected += other.injected;
        self.delivered += other.delivered;
        self.total_latency += other.total_latency;
        self.total_hops += other.total_hops;
        self.route_failures += other.route_failures;
        self.blocked_injections += other.blocked_injections;
        self.suppressed_injections += other.suppressed_injections;
        self.dropped += other.dropped;
        self.ttl_expired += other.ttl_expired;
        self.dropped_stranded += other.dropped_stranded;
        self.dropped_unrecoverable += other.dropped_unrecoverable;
        self.rerouted_packets += other.rerouted_packets;
        self.rerouted_hops += other.rerouted_hops;
        self.fault_events += other.fault_events;
        self.forwarded_hops_total += other.forwarded_hops_total;
        self.health_transitions += other.health_transitions;
        self.stale_cycles += other.stale_cycles;
        self.reconvergences += other.reconvergences;
        self.injected_total += other.injected_total;
        self.delivered_total += other.delivered_total;
        self.dropped_total += other.dropped_total;
        self.route_failures_total += other.route_failures_total;
        self.suppressed_injections_total += other.suppressed_injections_total;
        for (a, b) in self.tree_routes.iter_mut().zip(&other.tree_routes) {
            *a += b;
        }
        self.tree_switches += other.tree_switches;
        self.tree_exhausted += other.tree_exhausted;
        self.collective_ops += other.collective_ops;
        self.collective_skipped += other.collective_skipped;
        self.collective_injected += other.collective_injected;
        self.collective_delivered += other.collective_delivered;
        self.collective_dropped += other.collective_dropped;
        self.tree_regrafts += other.tree_regrafts;
        self.tree_rebuilds += other.tree_rebuilds;
        self.tree_lost_nodes += other.tree_lost_nodes;
        self.latency_hist.merge(&other.latency_hist);
        self.hops_hist.merge(&other.hops_hist);
    }

    /// Fraction of collective targets reached:
    /// `collective_delivered / collective_injected`, `1.0` when no
    /// collective traffic ran. Injected-based (not resolved-based) on
    /// purpose: a collective target the packet never reached is a
    /// coverage failure whether the packet died or is still in flight.
    pub fn collective_coverage(&self) -> f64 {
        if self.collective_injected == 0 {
            1.0
        } else {
            self.collective_delivered as f64 / self.collective_injected as f64
        }
    }
}

/// Sum `src`'s per-window counters into `dst`, index by index. The shard
/// engine gives every shard identical window boundaries, so the reduction
/// is positional; boundary agreement is checked in debug builds.
pub fn merge_windows(dst: &mut [WindowStat], src: &[WindowStat]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        debug_assert_eq!((d.start, d.end), (s.start, s.end));
        d.injected += s.injected;
        d.delivered += s.delivered;
        d.dropped += s.dropped;
        d.tree_switches += s.tree_switches;
        d.collective_delivered += s.collective_delivered;
    }
}

/// Sum `src`'s per-operation collective counters into `dst`, index by
/// index. Every shard plans the same operations from the same replicated
/// view, so the per-op metadata (`op`, `root`, `started`, `expected`) is
/// identical across shards and only the outcome counters differ; the
/// agreement is checked in debug builds.
pub fn merge_ops(dst: &mut [OpStat], src: &[OpStat]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        debug_assert_eq!(
            (d.op, d.root, d.started, d.expected),
            (s.op, s.root, s.started, s.expected)
        );
        d.delivered += s.delivered;
        d.dropped += s.dropped;
        d.last_delivery = d.last_delivery.max(s.last_delivery);
    }
}

/// Delivery statistics over one fixed-width window of cycles.
///
/// Windows count *every* packet (warm-up included) because they describe
/// the run as a time series, not the steady state.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WindowStat {
    /// First cycle of the window (inclusive).
    pub start: u64,
    /// Last cycle of the window (exclusive).
    pub end: u64,
    /// Packets injected during the window.
    pub injected: u64,
    /// Packets delivered during the window (counted at arrival time).
    pub delivered: u64,
    /// Packets dropped during the window.
    pub dropped: u64,
    /// Tree switches performed by plans computed during the window
    /// (multitree strategies only).
    pub tree_switches: u64,
    /// Collective packets delivered during the window — the coverage
    /// time series a clustered fault burst dents and a tree repair
    /// restores.
    pub collective_delivered: u64,
}

impl WindowStat {
    /// Delivered over delivered-plus-dropped: the fraction of packets
    /// *resolved* this window that made it. `1.0` for an idle window.
    pub fn delivery_ratio(&self) -> f64 {
        let resolved = self.delivered + self.dropped;
        if resolved == 0 {
            1.0
        } else {
            self.delivered as f64 / resolved as f64
        }
    }
}

/// One collective operation's completion record.
///
/// `Metrics` stays `Copy`, so the variable-length per-op series lives on
/// [`ChurnReport`] instead: one entry per launched operation, in launch
/// order (skipped operations — dead root class — produce no entry).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpStat {
    /// Operation index in the launch schedule.
    pub op: u64,
    /// Concrete root node the operation ran from.
    pub root: u64,
    /// Cycle the operation's packets were injected.
    pub started: u64,
    /// Targets covered by the (repaired) broadcast tree at launch: the
    /// packets injected for this operation.
    pub expected: u64,
    /// Targets actually reached.
    pub delivered: u64,
    /// Per-target packets lost en route (faults after launch).
    pub dropped: u64,
    /// Cycle of the last delivery — `started` subtracted gives the
    /// operation's completion time.
    pub last_delivery: u64,
}

impl OpStat {
    /// Fraction of this operation's targets reached.
    pub fn coverage(&self) -> f64 {
        if self.expected == 0 {
            1.0
        } else {
            self.delivered as f64 / self.expected as f64
        }
    }
}

/// Full outcome of a churn run: steady-state metrics plus the time
/// series needed to see degradation and recovery.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChurnReport {
    /// Aggregate counters (identical to what [`crate::Simulator::run`]
    /// returns).
    pub metrics: Metrics,
    /// Per-window delivery statistics, in time order.
    pub windows: Vec<WindowStat>,
    /// Every fault event applied, in application order.
    pub trace: Vec<FaultEvent>,
    /// The network's final Theorem-3 standing: the live fault set at the
    /// end of the run classified against `N(α,k)` / `T(GC)`.
    pub budget: FaultBudget,
    /// Per-tree survival against the final fault set — `Some` only when
    /// the run's strategy routes over independent spanning trees.
    pub tree_health: Option<Vec<gcube_routing::multitree::TreeHealth>>,
    /// Per-operation collective completion records, in launch order.
    /// Empty unless the run carried collective traffic.
    pub collectives: Vec<OpStat>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities() {
        let m = Metrics {
            injected: 100,
            delivered: 80,
            total_latency: 800,
            total_hops: 400,
            in_flight_at_end: 20,
            cycles: 40,
            nodes: 64,
            ..Metrics::default()
        };
        assert_eq!(m.avg_latency(), 10.0);
        assert_eq!(m.throughput(), 2.0);
        assert_eq!(m.log2_throughput(), Some(1.0));
        assert_eq!(m.avg_hops(), 5.0);
        // Ratios are over resolved packets: the 20 still in flight no
        // longer distort them.
        assert_eq!(m.delivery_ratio(), 1.0);
        assert_eq!(m.drop_ratio(), 0.0);
        // The old injected-based semantics survive under their real name.
        assert_eq!(m.completion_ratio(), 0.8);
    }

    #[test]
    fn ratios_sum_to_one_with_drops() {
        let m = Metrics {
            injected: 100,
            delivered: 60,
            dropped: 20,
            in_flight_at_end: 20,
            ..Metrics::default()
        };
        assert_eq!(m.resolved(), 80);
        assert!((m.delivery_ratio() - 0.75).abs() < 1e-12);
        assert!((m.drop_ratio() - 0.25).abs() < 1e-12);
        assert!((m.delivery_ratio() + m.drop_ratio() - 1.0).abs() < 1e-12);
        assert!((m.completion_ratio() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_run_is_safe() {
        let m = Metrics::default();
        assert_eq!(m.avg_latency(), 0.0);
        assert_eq!(m.throughput(), 0.0);
        assert_eq!(m.log2_throughput(), None, "no -inf for silent runs");
        assert_eq!(m.delivery_ratio(), 1.0);
        assert_eq!(m.drop_ratio(), 0.0);
        assert_eq!(m.completion_ratio(), 1.0);
        assert_eq!(m.latency_hist.percentile(0.5), None);
    }

    #[test]
    fn window_ratio_counts_resolved_packets() {
        let w = WindowStat {
            start: 0,
            end: 100,
            injected: 50,
            delivered: 30,
            dropped: 10,
            ..WindowStat::default()
        };
        assert!((w.delivery_ratio() - 0.75).abs() < 1e-12);
        let idle = WindowStat {
            start: 100,
            end: 200,
            ..WindowStat::default()
        };
        assert_eq!(idle.delivery_ratio(), 1.0);
    }

    #[test]
    fn absorb_sums_counters_and_merges_histograms() {
        let mut coord = Metrics {
            nodes: 64,
            cycles: 100,
            in_flight_at_end: 3,
            injected: 10,
            delivered: 8,
            injected_total: 12,
            delivered_total: 9,
            ..Metrics::default()
        };
        let mut worker = Metrics {
            injected: 5,
            delivered: 4,
            total_latency: 40,
            dropped: 1,
            ttl_expired: 1,
            dropped_total: 1,
            injected_total: 5,
            delivered_total: 4,
            forwarded_hops_total: 20,
            ..Metrics::default()
        };
        worker.latency_hist.record(10);
        coord.absorb(&worker);
        assert_eq!(coord.injected, 15);
        assert_eq!(coord.delivered, 12);
        assert_eq!(coord.total_latency, 40);
        assert_eq!(coord.dropped, 1);
        assert_eq!(coord.injected_total, 17);
        assert_eq!(coord.latency_hist.count(), 1);
        // Coordinator-owned run-level fields stay put.
        assert_eq!(coord.nodes, 64);
        assert_eq!(coord.cycles, 100);
        assert_eq!(coord.in_flight_at_end, 3);
    }

    #[test]
    fn merge_windows_is_positional() {
        let mut dst = vec![
            WindowStat {
                start: 0,
                end: 50,
                injected: 3,
                delivered: 2,
                dropped: 0,
                tree_switches: 3,
                collective_delivered: 1,
            },
            WindowStat {
                start: 50,
                end: 100,
                injected: 1,
                delivered: 1,
                dropped: 1,
                tree_switches: 1,
                collective_delivered: 0,
            },
        ];
        let src = vec![
            WindowStat {
                start: 0,
                end: 50,
                injected: 2,
                delivered: 1,
                dropped: 1,
                tree_switches: 2,
                collective_delivered: 2,
            },
            WindowStat {
                start: 50,
                end: 100,
                injected: 0,
                delivered: 2,
                dropped: 0,
                tree_switches: 0,
                collective_delivered: 0,
            },
        ];
        merge_windows(&mut dst, &src);
        assert_eq!(
            (dst[0].injected, dst[0].delivered, dst[0].dropped),
            (5, 3, 1)
        );
        assert_eq!(
            (dst[1].injected, dst[1].delivered, dst[1].dropped),
            (1, 3, 1)
        );
        assert_eq!((dst[0].start, dst[0].end), (0, 50), "boundaries untouched");
        assert_eq!(
            (dst[0].tree_switches, dst[1].tree_switches),
            (5, 1),
            "tree switches merge positionally too"
        );
        assert_eq!(
            (dst[0].collective_delivered, dst[1].collective_delivered),
            (3, 0),
            "collective deliveries merge positionally too"
        );
    }

    #[test]
    fn merge_ops_sums_outcomes_and_keeps_metadata() {
        let meta = OpStat {
            op: 2,
            root: 5,
            started: 100,
            expected: 60,
            ..OpStat::default()
        };
        let mut dst = vec![OpStat {
            delivered: 20,
            dropped: 1,
            last_delivery: 104,
            ..meta
        }];
        let src = vec![OpStat {
            delivered: 39,
            dropped: 0,
            last_delivery: 107,
            ..meta
        }];
        merge_ops(&mut dst, &src);
        assert_eq!(dst[0].delivered, 59);
        assert_eq!(dst[0].dropped, 1);
        assert_eq!(dst[0].last_delivery, 107);
        assert_eq!((dst[0].op, dst[0].root, dst[0].started), (2, 5, 100));
        assert!((dst[0].coverage() - 59.0 / 60.0).abs() < 1e-12);
        assert_eq!(
            OpStat::default().coverage(),
            1.0,
            "empty op covers trivially"
        );
    }

    #[test]
    fn collective_coverage_is_injected_based() {
        let m = Metrics {
            collective_injected: 200,
            collective_delivered: 199,
            collective_dropped: 1,
            ..Metrics::default()
        };
        assert!((m.collective_coverage() - 0.995).abs() < 1e-12);
        assert_eq!(Metrics::default().collective_coverage(), 1.0);
    }

    #[test]
    fn absorb_sums_collective_counters() {
        let mut a = Metrics {
            collective_ops: 3,
            collective_injected: 10,
            tree_regrafts: 1,
            ..Metrics::default()
        };
        let b = Metrics {
            collective_injected: 5,
            collective_delivered: 5,
            collective_dropped: 2,
            collective_skipped: 1,
            tree_rebuilds: 2,
            tree_lost_nodes: 4,
            ..Metrics::default()
        };
        a.absorb(&b);
        assert_eq!(a.collective_ops, 3);
        assert_eq!(a.collective_injected, 15);
        assert_eq!(a.collective_delivered, 5);
        assert_eq!(a.collective_dropped, 2);
        assert_eq!(a.collective_skipped, 1);
        assert_eq!(
            (a.tree_regrafts, a.tree_rebuilds, a.tree_lost_nodes),
            (1, 2, 4)
        );
    }

    // --- histogram ------------------------------------------------------

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.p50(), None);
        assert_eq!(h.p99(), None);
    }

    #[test]
    fn histogram_single_sample() {
        let mut h = Histogram::new();
        h.record(17);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 17);
        // Every quantile of a single sample is that sample.
        assert_eq!(h.percentile(0.0), Some(17));
        assert_eq!(h.p50(), Some(17));
        assert_eq!(h.p99(), Some(17));
        assert_eq!(h.percentile(1.0), Some(17));
    }

    #[test]
    fn histogram_bucket_boundaries() {
        let mut h = Histogram::new();
        // 0 and HIST_BUCKETS-2 are the last exactly-resolved values;
        // HIST_BUCKETS-1 and beyond share the saturated top bucket.
        let top = (HIST_BUCKETS - 1) as u64;
        h.record(0);
        h.record(top - 1);
        h.record(top);
        h.record(top + 100);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[HIST_BUCKETS - 2], 1);
        assert_eq!(h.buckets()[HIST_BUCKETS - 1], 2, "top bucket saturates");
        assert_eq!(h.max(), top + 100);
    }

    #[test]
    fn histogram_percentiles_exact_region() {
        let mut h = Histogram::new();
        for v in 1..=10u64 {
            h.record(v);
        }
        assert_eq!(h.p50(), Some(5));
        assert_eq!(h.percentile(0.1), Some(1));
        assert_eq!(h.percentile(1.0), Some(10));
        assert_eq!(h.p99(), Some(10));
    }

    #[test]
    fn histogram_saturated_top_reports_exact_max() {
        let mut h = Histogram::new();
        h.record(5);
        h.record(500); // deep in the saturated bucket
        assert_eq!(h.p50(), Some(5));
        // p99's rank-2 sample sits in the top bucket: report the true max,
        // not the bucket's lower bound.
        assert_eq!(h.p99(), Some(500));
        assert_eq!(h.max(), 500);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(1);
        a.record(2);
        b.record(2);
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.max(), 100);
        assert_eq!(a.buckets()[2], 2);
        assert_eq!(a.p50(), Some(2));
    }
}
