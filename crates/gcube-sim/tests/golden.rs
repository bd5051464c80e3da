//! Output stability across commits: six small configurations whose
//! `Metrics` and observer streams are pinned to recorded values.
//!
//! The seq≡sharded, replay and checkpoint suites compare two runs of the
//! *same* build against each other; nothing there notices a change that
//! moves both engines the same way. These goldens do: each configuration
//! pins the `Metrics` `Debug` text plus FNV-1a digests of the trace
//! JSONL, the telemetry CSV and the profiler's deterministic JSONL. A
//! refactor that claims "same behaviour" must leave every one unchanged.
//!
//! Together the configurations cover static FFGCR, static FTGCR with
//! faults, PaperDelay churn in which all three drop causes fire, a
//! broadcast collective under churn, multitree routing around clustered
//! faults (with tree switches and exhaustion), and finite buffers. Every
//! shardable configuration is also run on two threads and must produce
//! the identical record.
//!
//! A second table pins the stepper and checkpoint path: each
//! configuration is stepped to a fixed mid-run cycle with a trace sink
//! attached, and the FNV-1a digest of its checkpoint text is pinned.
//! The stepped run is then finished and must reproduce the metrics and
//! the trace of the run-to-completion record.
//!
//! A mismatch prints the recorded and the produced values, digests in
//! hex, so an intended behaviour change is re-recorded by pasting the
//! `got` values — but only with a changelog entry explaining why the
//! outputs moved.

use std::cell::Cell;

use gcube_sim::{
    trace, CachedFtgcr, CategoryMix, CollectiveOp, FaultFreeGcr, FaultKind, FaultSchedule,
    FaultTarget, FaultTolerantGcr, KnowledgeModel, MemorySink, Metrics, MultiTreeStrategy,
    ProfileCollector, RoutingAlgorithm, SimConfig, Simulator, TelemetryCollector, TimedFault,
    TraceEvent, TraceSink,
};
use gcube_topology::NodeId;

/// 64-bit FNV-1a. Written out here because `DefaultHasher` is not
/// stable across toolchains.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// What one run produced, reduced to comparable values.
#[derive(Debug, PartialEq, Eq)]
struct Record {
    metrics: String,
    trace: u64,
    telemetry: u64,
    profile: u64,
}

impl Record {
    fn show(&self) -> String {
        format!(
            "metrics: {:?}, trace: {:#018x}, telemetry: {:#018x}, profile: {:#018x}",
            self.metrics, self.trace, self.telemetry, self.profile
        )
    }
}

struct Golden {
    name: &'static str,
    metrics: &'static str,
    trace: u64,
    telemetry: u64,
    profile: u64,
}

fn record(cfg: &SimConfig, algo: &dyn RoutingAlgorithm, threads: usize) -> (Metrics, Record) {
    let sim = Simulator::new(cfg.clone(), algo);
    let mut sink = MemorySink::new();
    let mut telem = TelemetryCollector::new(sim.cube(), sim.config().telemetry_interval);
    let mut prof = ProfileCollector::new(1 << sim.cube().alpha(), 25);
    let report = sim
        .session()
        .threads(threads)
        .trace(&mut sink)
        .telemetry(&mut telem)
        .profile(&mut prof)
        .run();
    let rec = Record {
        metrics: format!("{:?}", report.metrics),
        trace: fnv1a(trace::to_jsonl(sink.events()).as_bytes()),
        telemetry: fnv1a(telem.to_csv().as_bytes()),
        profile: fnv1a(prof.deterministic_jsonl().as_bytes()),
    };
    (report.metrics, rec)
}

fn churn(rate: f64, repair_after: u64, node_fraction: f64) -> FaultSchedule {
    FaultSchedule::Bernoulli {
        rate,
        kind: FaultKind::Transient { repair_after },
        mix: CategoryMix::default(),
        node_fraction,
    }
}

fn base() -> SimConfig {
    SimConfig::new(6, 2)
        .with_cycles(200, 2_000, 20)
        .with_rate(0.05)
        .with_window(50)
        .with_telemetry_interval(25)
}

/// A tight cluster of node failures around node 9, staggered so the
/// view lags each one.
fn clustered() -> FaultSchedule {
    let at = |cycle: u64, v: u64| TimedFault {
        cycle,
        target: FaultTarget::Node(NodeId(v)),
        kind: FaultKind::Transient { repair_after: 90 },
    };
    FaultSchedule::Scripted(vec![
        at(60, 9),
        at(64, 11),
        at(68, 13),
        at(72, 25),
        at(76, 8),
        at(150, 41),
        at(152, 43),
    ])
}

/// One golden configuration: its name, config, a fresh-strategy
/// factory, whether it may shard, and a check that the run exercises
/// what the configuration is there to cover.
type Case = (
    &'static str,
    SimConfig,
    fn() -> Box<dyn RoutingAlgorithm>,
    bool,
    fn(&Metrics) -> bool,
);

fn cases() -> Vec<Case> {
    vec![
        (
            "static-ffgcr",
            base(),
            || Box::new(FaultFreeGcr),
            true,
            |m| m.delivered > 0 && m.delivered == m.injected,
        ),
        (
            "static-ftgcr-faults",
            base().with_faults(2).with_seed(7),
            || Box::new(CachedFtgcr::new()),
            true,
            |m| m.delivered > 0 && m.delivered == m.injected,
        ),
        (
            "paper-delay-churn-drops",
            SimConfig::new(6, 2)
                .with_cycles(400, 3_000, 50)
                .with_rate(0.1)
                .with_seed(0xf116)
                .with_knowledge(KnowledgeModel::PaperDelay)
                .with_reroute_budget(1)
                .with_ttl(8)
                .with_window(100)
                .with_telemetry_interval(50)
                .with_schedule(churn(0.05, 80, 1.0)),
            || Box::new(CachedFtgcr::new()),
            true,
            |m| m.ttl_expired > 0 && m.dropped_stranded > 0 && m.dropped_unrecoverable > 0,
        ),
        (
            "broadcast-churn",
            SimConfig::new(6, 2)
                .with_cycles(300, 3_000, 40)
                .with_rate(0.08)
                .with_knowledge(KnowledgeModel::PaperDelay)
                .with_reroute_budget(2)
                .with_window(100)
                .with_telemetry_interval(50)
                .with_schedule(churn(0.02, 60, 0.7))
                .with_collective(CollectiveOp::Broadcast)
                .with_collective_interval(40),
            || Box::new(FaultTolerantGcr),
            true,
            |m| {
                m.collective_ops > 0
                    && m.collective_delivered > 0
                    && m.tree_regrafts + m.tree_rebuilds > 0
            },
        ),
        (
            "multitree-clustered",
            SimConfig::new(6, 2)
                .with_cycles(300, 3_000, 30)
                .with_rate(0.08)
                .with_faults(2)
                .with_seed(0xc1)
                .with_knowledge(KnowledgeModel::PaperDelay)
                .with_window(100)
                .with_telemetry_interval(50)
                .with_schedule(clustered()),
            || Box::new(MultiTreeStrategy::new(2)),
            true,
            |m| m.tree_switches > 0 && m.tree_exhausted > 0,
        ),
        (
            "finite-buffers",
            SimConfig::new(6, 2)
                .with_cycles(200, 600, 0)
                .with_rate(0.2)
                .with_window(100)
                .with_telemetry_interval(50)
                .with_buffer_capacity(2),
            || Box::new(FaultFreeGcr),
            false,
            |m| m.blocked_injections > 0 && m.in_flight_at_end > 0,
        ),
    ]
}

const GOLDEN: &[Golden] = &[
    Golden {
        name: "static-ffgcr",
        metrics: "Metrics { injected: 610, delivered: 610, total_latency: 2542, total_hops: 2276, route_failures: 0, blocked_injections: 0, suppressed_injections: 0, in_flight_at_end: 0, cycles: 184, nodes: 64, dropped: 0, ttl_expired: 0, dropped_stranded: 0, dropped_unrecoverable: 0, rerouted_packets: 0, rerouted_hops: 0, fault_events: 0, forwarded_hops_total: 2536, health_transitions: 0, stale_cycles: 0, reconvergences: 0, injected_total: 672, delivered_total: 672, dropped_total: 0, route_failures_total: 0, suppressed_injections_total: 0, tree_routes: [0, 0, 0, 0, 0, 0, 0, 0], tree_switches: 0, tree_exhausted: 0, collective_ops: 0, collective_skipped: 0, collective_injected: 0, collective_delivered: 0, collective_dropped: 0, tree_regrafts: 0, tree_rebuilds: 0, tree_lost_nodes: 0, latency_hist: Histogram { buckets: [0, 39, 77, 96, 138, 127, 77, 43, 10, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], count: 610, max: 13 }, hops_hist: Histogram { buckets: [0, 42, 85, 125, 167, 135, 46, 10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], count: 610, max: 7 } }",
        trace: 0x7396686547e43fb4,
        telemetry: 0x24a58647a2954ad9,
        profile: 0x833d4422aac98fb2,
    },
    Golden {
        name: "static-ftgcr-faults",
        metrics: "Metrics { injected: 602, delivered: 602, total_latency: 2614, total_hops: 2364, route_failures: 0, blocked_injections: 0, suppressed_injections: 0, in_flight_at_end: 0, cycles: 187, nodes: 64, dropped: 0, ttl_expired: 0, dropped_stranded: 0, dropped_unrecoverable: 0, rerouted_packets: 0, rerouted_hops: 0, fault_events: 0, forwarded_hops_total: 2581, health_transitions: 1, stale_cycles: 0, reconvergences: 0, injected_total: 656, delivered_total: 656, dropped_total: 0, route_failures_total: 0, suppressed_injections_total: 0, tree_routes: [0, 0, 0, 0, 0, 0, 0, 0], tree_switches: 0, tree_exhausted: 0, collective_ops: 0, collective_skipped: 0, collective_injected: 0, collective_delivered: 0, collective_dropped: 0, tree_regrafts: 0, tree_rebuilds: 0, tree_lost_nodes: 0, latency_hist: Histogram { buckets: [0, 30, 61, 109, 119, 153, 69, 33, 13, 9, 2, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], count: 602, max: 11 }, hops_hist: Histogram { buckets: [0, 32, 78, 124, 154, 141, 45, 19, 5, 2, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], count: 602, max: 11 } }",
        trace: 0xb04f603eaa3526ed,
        telemetry: 0xe5256f77b47ceb73,
        profile: 0x82e5ef2af635bf79,
    },
    Golden {
        name: "paper-delay-churn-drops",
        metrics: "Metrics { injected: 2120, delivered: 2039, total_latency: 11084, total_hops: 8777, route_failures: 12, blocked_injections: 0, suppressed_injections: 0, in_flight_at_end: 0, cycles: 359, nodes: 64, dropped: 81, ttl_expired: 63, dropped_stranded: 6, dropped_unrecoverable: 12, rerouted_packets: 24, rerouted_hops: 22, fault_events: 37, forwarded_hops_total: 9985, health_transitions: 3, stale_cycles: 136, reconvergences: 28, injected_total: 2425, delivered_total: 2340, dropped_total: 85, route_failures_total: 12, suppressed_injections_total: 0, tree_routes: [0, 0, 0, 0, 0, 0, 0, 0], tree_switches: 0, tree_exhausted: 0, collective_ops: 0, collective_skipped: 0, collective_injected: 0, collective_delivered: 0, collective_dropped: 0, tree_regrafts: 0, tree_rebuilds: 0, tree_lost_nodes: 0, latency_hist: Histogram { buckets: [0, 73, 160, 226, 322, 359, 292, 223, 152, 99, 52, 39, 20, 8, 6, 4, 1, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], count: 2039, max: 20 }, hops_hist: Histogram { buckets: [0, 117, 224, 396, 528, 440, 226, 63, 45, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], count: 2039, max: 8 } }",
        trace: 0x5868dde3427a92d8,
        telemetry: 0x9050abe15d4330b6,
        profile: 0x52f661c7c0834877,
    },
    Golden {
        name: "broadcast-churn",
        metrics: "Metrics { injected: 1344, delivered: 1341, total_latency: 21957, total_hops: 7195, route_failures: 2, blocked_injections: 0, suppressed_injections: 0, in_flight_at_end: 0, cycles: 449, nodes: 64, dropped: 3, ttl_expired: 0, dropped_stranded: 1, dropped_unrecoverable: 2, rerouted_packets: 10, rerouted_hops: 22, fault_events: 25, forwarded_hops_total: 8325, health_transitions: 7, stale_cycles: 92, reconvergences: 19, injected_total: 2044, delivered_total: 2033, dropped_total: 11, route_failures_total: 2, suppressed_injections_total: 0, tree_routes: [0, 0, 0, 0, 0, 0, 0, 0], tree_switches: 0, tree_exhausted: 0, collective_ops: 8, collective_skipped: 0, collective_injected: 488, collective_delivered: 480, collective_dropped: 8, tree_regrafts: 6, tree_rebuilds: 0, tree_lost_nodes: 5, latency_hist: Histogram { buckets: [0, 48, 103, 162, 223, 227, 179, 136, 70, 25, 18, 6, 6, 1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 3, 118], count: 1341, max: 276 }, hops_hist: Histogram { buckets: [0, 69, 143, 275, 359, 291, 137, 38, 14, 7, 5, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], count: 1341, max: 15 } }",
        trace: 0x288ef116f5468e57,
        telemetry: 0x9a9791e80e8f0404,
        profile: 0x5586f2242e7f66a0,
    },
    Golden {
        name: "multitree-clustered",
        metrics: "Metrics { injected: 1276, delivered: 1267, total_latency: 10166, total_hops: 7423, route_failures: 4, blocked_injections: 0, suppressed_injections: 0, in_flight_at_end: 0, cycles: 279, nodes: 64, dropped: 9, ttl_expired: 0, dropped_stranded: 1, dropped_unrecoverable: 8, rerouted_packets: 10, rerouted_hops: 28, fault_events: 14, forwarded_hops_total: 8381, health_transitions: 1, stale_cycles: 46, reconvergences: 3, injected_total: 1432, delivered_total: 1423, dropped_total: 9, route_failures_total: 4, suppressed_injections_total: 0, tree_routes: [671, 665, 0, 0, 0, 0, 0, 0], tree_switches: 436, tree_exhausted: 107, collective_ops: 0, collective_skipped: 0, collective_injected: 0, collective_delivered: 0, collective_dropped: 0, tree_regrafts: 0, tree_rebuilds: 0, tree_lost_nodes: 0, latency_hist: Histogram { buckets: [0, 36, 51, 65, 89, 104, 115, 148, 132, 104, 103, 97, 66, 47, 36, 25, 20, 13, 4, 5, 0, 4, 2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], count: 1267, max: 24 }, hops_hist: Histogram { buckets: [0, 64, 71, 109, 148, 188, 182, 180, 112, 117, 61, 26, 8, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], count: 1267, max: 13 } }",
        trace: 0xfc9c12671578f06e,
        telemetry: 0x0e99a82b9174bfe1,
        profile: 0xd4709d491bf13c2d,
    },
    Golden {
        name: "finite-buffers",
        metrics: "Metrics { injected: 183, delivered: 55, total_latency: 243, total_hops: 291, route_failures: 0, blocked_injections: 2419, suppressed_injections: 0, in_flight_at_end: 128, cycles: 800, nodes: 64, dropped: 0, ttl_expired: 0, dropped_stranded: 0, dropped_unrecoverable: 0, rerouted_packets: 0, rerouted_hops: 0, fault_events: 0, forwarded_hops_total: 291, health_transitions: 0, stale_cycles: 0, reconvergences: 0, injected_total: 183, delivered_total: 55, dropped_total: 0, route_failures_total: 0, suppressed_injections_total: 0, tree_routes: [0, 0, 0, 0, 0, 0, 0, 0], tree_switches: 0, tree_exhausted: 0, collective_ops: 0, collective_skipped: 0, collective_injected: 0, collective_delivered: 0, collective_dropped: 0, tree_regrafts: 0, tree_rebuilds: 0, tree_lost_nodes: 0, latency_hist: Histogram { buckets: [0, 6, 3, 8, 18, 8, 3, 3, 1, 3, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], count: 55, max: 11 }, hops_hist: Histogram { buckets: [0, 8, 5, 16, 13, 12, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], count: 55, max: 6 } }",
        trace: 0x03f42f7deb26bd2a,
        telemetry: 0x21ed2e7272ec1481,
        profile: 0xa67cbd971487f361,
    },
];

#[test]
fn outputs_match_the_recorded_goldens() {
    let mut mismatches = Vec::new();
    for (name, cfg, algo, shardable, covers) in cases() {
        let (metrics, rec) = record(&cfg, &*algo(), 1);
        assert!(
            covers(&metrics),
            "{name}: the run misses what it covers: {metrics:?}"
        );
        if shardable {
            let (_, par) = record(&cfg, &*algo(), 2);
            assert_eq!(rec, par, "{name}: the 2-thread run diverged");
        }
        let want = GOLDEN
            .iter()
            .find(|g| g.name == name)
            .unwrap_or_else(|| panic!("{name}: no golden recorded"));
        let want = Record {
            metrics: want.metrics.to_string(),
            trace: want.trace,
            telemetry: want.telemetry,
            profile: want.profile,
        };
        if want != rec {
            mismatches.push(format!(
                "{name}:\n  want {}\n  got  {}",
                want.show(),
                rec.show()
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// The cycle every stepped run pauses at to take its checkpoint.
const PAUSE: u64 = 100;

/// FNV-1a digests of `checkpoint(mark).to_text()` at cycle [`PAUSE`],
/// where `mark` is the number of trace events emitted so far.
const CHECKPOINTS: &[(&str, u64)] = &[
    ("static-ffgcr", 0xb8c92233cae1cba1),
    ("static-ftgcr-faults", 0xd60cec2cf0811f79),
    ("paper-delay-churn-drops", 0x7dfe80dc77d8c3ef),
    ("broadcast-churn", 0x9bcf60d01575febc),
    ("multitree-clustered", 0x038641f1b263ccf3),
    ("finite-buffers", 0x14ff9627faf8485f),
];

/// A memory sink that also counts its events where the test can read
/// the count while a stepper holds the sink.
struct Counted<'c> {
    sink: MemorySink,
    count: &'c Cell<u64>,
}

impl TraceSink for Counted<'_> {
    fn record(&mut self, event: &TraceEvent) {
        self.count.set(self.count.get() + 1);
        self.sink.record(event);
    }
}

#[test]
fn stepped_checkpoints_match_the_recorded_goldens() {
    let mut mismatches = Vec::new();
    for (name, cfg, algo, _, _) in cases() {
        let (metrics, rec) = record(&cfg, &*algo(), 1);
        let algo = algo();
        let sim = Simulator::new(cfg, &*algo);
        let count = Cell::new(0);
        let mut sink = Counted {
            sink: MemorySink::new(),
            count: &count,
        };
        let mut stepper = sim.session().trace(&mut sink).stepper();
        assert!(!stepper.step_many(PAUSE), "{name}: ended before the pause");
        let text = stepper
            .checkpoint(count.get())
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .to_text();
        while !stepper.step() {}
        let stepped = stepper.finish().metrics;
        assert_eq!(stepped, metrics, "{name}: the stepped run diverged");
        let stepped_trace = fnv1a(trace::to_jsonl(sink.sink.events()).as_bytes());
        assert_eq!(
            stepped_trace, rec.trace,
            "{name}: the stepped trace diverged"
        );
        let got = fnv1a(text.as_bytes());
        let want = CHECKPOINTS
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, d)| d);
        if want != Some(got) {
            mismatches.push(format!("{name}: want {want:#018x?} got {got:#018x}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
