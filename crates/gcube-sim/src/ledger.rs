//! The packet ledger: which counters each packet event moves.
//!
//! Every shard accounts through its own [`PacketLedger`]. It owns the
//! shard's [`Metrics`], the [`WindowStat`] series, the collective
//! [`OpTracker`] and a [`ShardTelemetry`] delta, and each method
//! accounts one packet event in all of them and narrates the
//! [`TraceEvent`] it implies into the caller's [`TraceSink`].
//!
//! The telemetry delta is the only way per-packet counts reach a
//! [`TelemetrySink`]: the engine absorbs it once per cycle, before
//! `end_cycle`, and resets it — so it is empty at every step boundary
//! and never needs to ride a checkpoint.

use gcube_routing::faults::HealthState;
use gcube_routing::FaultSet;
use gcube_topology::{GaussianCube, NodeId};

use crate::collective::{is_collective, LaunchPlan, OpTracker, RepairLedger};
use crate::engine::Simulator;
use crate::metrics::{merge_ops, merge_windows, Metrics, WindowStat, MAX_TREES};
use crate::packet::Packet;
use crate::replica::Advance;
use crate::strategy::TreeChoice;
use crate::telemetry::{FaultBudgetMonitor, ShardTelemetry, TelemetrySink};
use crate::trace::{DropCause, TraceEvent, TraceEventKind, TraceSink, NETWORK_EVENT_PACKET};

/// The fields of a packet leaving the network that the ledger reads.
#[derive(Clone, Copy)]
pub(crate) struct Exit {
    pub id: u64,
    pub injected_at: u64,
    pub hops: u64,
    pub detour: u64,
    pub reroutes: u32,
}

impl From<&Packet> for Exit {
    fn from(p: &Packet) -> Exit {
        Exit {
            id: p.id,
            injected_at: p.injected_at,
            hops: p.hops_taken,
            detour: p.detour_hops(),
            reroutes: p.reroutes,
        }
    }
}

/// One run's (or one shard's) packet accounting.
pub(crate) struct PacketLedger {
    pub(crate) metrics: Metrics,
    pub(crate) windows: Vec<WindowStat>,
    pub(crate) ops: OpTracker,
    pub(crate) delta: ShardTelemetry,
    warmup: u64,
    window: u64,
    /// The cycle being accounted, set by [`PacketLedger::begin`].
    cycle: u64,
    widx: usize,
    measuring: bool,
}

impl PacketLedger {
    pub(crate) fn new(sim: &Simulator) -> PacketLedger {
        PacketLedger {
            metrics: Metrics::default(),
            windows: Vec::new(),
            ops: OpTracker::new(),
            delta: ShardTelemetry::new(sim.gc.n() as usize),
            warmup: sim.config.warmup_cycles.min(sim.config.inject_cycles),
            window: sim.config.window.max(1),
            cycle: 0,
            widx: 0,
            measuring: false,
        }
    }

    /// Record `kind` for `packet` at `node` in the current cycle, if the
    /// sink is on.
    #[inline]
    pub(crate) fn say<S: TraceSink>(
        &self,
        sink: &mut S,
        packet: u64,
        node: NodeId,
        kind: TraceEventKind,
    ) {
        if sink.enabled() {
            sink.record(&TraceEvent {
                cycle: self.cycle,
                packet,
                node,
                kind,
            });
        }
    }

    /// Open `cycle`: later events land in its window, and count towards
    /// the measured metrics once the warm-up is over.
    pub(crate) fn begin(&mut self, cycle: u64) {
        self.cycle = cycle;
        self.measuring = cycle >= self.warmup;
        self.widx = (cycle / self.window) as usize;
        if self.windows.len() <= self.widx {
            self.windows.push(WindowStat {
                start: self.widx as u64 * self.window,
                end: (self.widx as u64 + 1) * self.window,
                ..WindowStat::default()
            });
        }
    }

    /// A unicast packet entered the network on a route of `planned_hops`
    /// hops, planned with tree choice `tree` (multitree strategies). A
    /// zero-hop route sinks at once; the caller queues any other.
    #[inline]
    pub(crate) fn inject<S: TraceSink>(
        &mut self,
        id: u64,
        src: NodeId,
        dst: NodeId,
        planned_hops: u64,
        tree: Option<TreeChoice>,
        sink: &mut S,
    ) {
        self.metrics.injected_total += 1;
        self.delta.injected += 1;
        if self.measuring {
            self.metrics.injected += 1;
        }
        self.windows[self.widx].injected += 1;
        let kind = TraceEventKind::Inject { dst, planned_hops };
        self.say(sink, id, src, kind);
        if let Some(tc) = tree {
            self.tree_choice(tc, id, src, sink);
        }
        if planned_hops == 0 {
            let exit = Exit {
                id,
                injected_at: self.cycle,
                hops: 0,
                detour: 0,
                reroutes: 0,
            };
            self.deliver(exit, 0, src, sink);
        }
    }

    /// A collective wave packet entered the network.
    pub(crate) fn inject_collective<S: TraceSink>(
        &mut self,
        id: u64,
        src: NodeId,
        dst: NodeId,
        planned_hops: u64,
        sink: &mut S,
    ) {
        self.metrics.injected_total += 1;
        self.metrics.collective_injected += 1;
        self.delta.injected += 1;
        self.windows[self.widx].injected += 1;
        let kind = TraceEventKind::Inject { dst, planned_hops };
        self.say(sink, id, src, kind);
    }

    /// A due collective operation launched with `plan`, or was skipped
    /// (`None`). Counts a tree transition once, through `repairs`.
    pub(crate) fn launch<S: TraceSink, T: TelemetrySink>(
        &mut self,
        plan: Option<&LaunchPlan>,
        repairs: &mut RepairLedger,
        sink: &mut S,
        telem: &mut T,
    ) {
        let Some(plan) = plan else {
            self.metrics.collective_skipped += 1;
            return;
        };
        if let Some(rep) = repairs.note(plan) {
            if rep.rebuilt {
                self.metrics.tree_rebuilds += 1;
            } else {
                self.metrics.tree_regrafts += 1;
            }
            self.metrics.tree_lost_nodes += rep.lost_nodes;
            telem.tree_repair(rep.rebuilt);
            let kind = TraceEventKind::TreeRepair {
                regrafted: rep.regrafted_subtrees,
                reattached: rep.reattached_nodes,
                lost: rep.lost_nodes,
                rebuilt: rep.rebuilt,
            };
            self.say(sink, NETWORK_EVENT_PACKET, plan.root, kind);
        }
        self.metrics.collective_ops += 1;
    }

    /// A packet reached its destination `node` after `latency` cycles.
    #[inline]
    pub(crate) fn deliver<S: TraceSink>(
        &mut self,
        p: Exit,
        latency: u64,
        node: NodeId,
        sink: &mut S,
    ) {
        self.metrics.delivered_total += 1;
        self.delta.delivered += 1;
        self.windows[self.widx].delivered += 1;
        if is_collective(p.id) {
            self.metrics.collective_delivered += 1;
            self.windows[self.widx].collective_delivered += 1;
            self.delta.collective_delivered += 1;
            self.ops.deliver(p.id, self.cycle);
        } else if self.measuring && p.injected_at >= self.warmup {
            self.metrics.delivered += 1;
            self.metrics.total_latency += latency;
            self.metrics.latency_hist.record(latency);
            self.metrics.hops_hist.record(p.hops);
            self.metrics.rerouted_hops += p.detour;
            if p.reroutes > 0 {
                self.metrics.rerouted_packets += 1;
            }
        }
        let kind = TraceEventKind::Deliver {
            latency,
            hops: p.hops,
        };
        self.say(sink, p.id, node, kind);
    }

    /// A packet died at `node`.
    ///
    /// A packet that ever re-routed counts towards `rerouted_packets`
    /// here — at its final resolution — so packets rerouted more than
    /// once, or dropped after rerouting, are counted exactly once. The
    /// per-cause counters partition `dropped` exactly.
    #[inline]
    pub(crate) fn drop_packet<S: TraceSink>(
        &mut self,
        p: Exit,
        cause: DropCause,
        node: NodeId,
        sink: &mut S,
    ) {
        self.windows[self.widx].dropped += 1;
        self.metrics.dropped_total += 1;
        self.delta.dropped += 1;
        if is_collective(p.id) {
            // Collective packets keep the whole-run and window ledgers but
            // stay out of the measured unicast drop taxonomy.
            self.metrics.collective_dropped += 1;
            self.ops.dropped(p.id);
        } else if self.measuring && p.injected_at >= self.warmup {
            self.metrics.dropped += 1;
            match cause {
                DropCause::TtlExpired => self.metrics.ttl_expired += 1,
                DropCause::Stranded => self.metrics.dropped_stranded += 1,
                DropCause::Unrecoverable => self.metrics.dropped_unrecoverable += 1,
            }
            if p.reroutes > 0 {
                self.metrics.rerouted_packets += 1;
            }
        }
        self.say(sink, p.id, node, TraceEventKind::Drop { cause });
    }

    /// A multitree plan for packet `id` at `node` chose a tree. Counted
    /// unconditionally, like the `*_total` counters, so telemetry totals
    /// reconcile exactly; traced only when it switched or exhausted.
    pub(crate) fn tree_choice<S: TraceSink>(
        &mut self,
        tc: TreeChoice,
        id: u64,
        node: NodeId,
        sink: &mut S,
    ) {
        if tc.exhausted {
            self.metrics.tree_exhausted += 1;
            self.delta.tree_exhausted += 1;
        } else {
            self.metrics.tree_routes[tc.tree as usize % MAX_TREES] += 1;
        }
        self.metrics.tree_switches += u64::from(tc.switches);
        self.windows[self.widx].tree_switches += u64::from(tc.switches);
        self.delta.tree_switches += u64::from(tc.switches);
        if tc.switches > 0 || tc.exhausted {
            let kind = TraceEventKind::TreeSwitch {
                tree: tc.tree,
                switches: tc.switches,
                exhausted: tc.exhausted,
            };
            self.say(sink, id, node, kind);
        }
    }

    /// An injection attempt found no route.
    pub(crate) fn route_failure(&mut self) {
        self.metrics.route_failures_total += 1;
        if self.measuring {
            self.metrics.route_failures += 1;
        }
    }

    /// An injection draw found no destination, shrinking the offered
    /// load by one packet.
    pub(crate) fn suppressed(&mut self) {
        self.metrics.suppressed_injections_total += 1;
        if self.measuring {
            self.metrics.suppressed_injections += 1;
        }
    }

    /// A full source buffer refused an injection (finite buffers only).
    pub(crate) fn blocked(&mut self) {
        if self.measuring {
            self.metrics.blocked_injections += 1;
        }
    }

    /// A packet left a node over a link in dimension `dim`.
    #[inline]
    pub(crate) fn forward(&mut self, dim: u32) {
        self.metrics.forwarded_hops_total += 1;
        self.delta.dim_hops[dim as usize] += 1;
    }

    /// Packet `id`, injected at `injected_at`, arrived at `node` over a
    /// link from the node `from` returns (looked up only when traced).
    #[inline]
    pub(crate) fn hop<S: TraceSink>(
        &mut self,
        id: u64,
        injected_at: u64,
        node: NodeId,
        from: impl FnOnce() -> NodeId,
        sink: &mut S,
    ) {
        if self.measuring && injected_at >= self.warmup {
            self.metrics.total_hops += 1;
        }
        if sink.enabled() {
            self.say(sink, id, node, TraceEventKind::Hop { from: from() });
        }
    }

    /// The fault-budget monitor moved from `from` to `to` with `faults`
    /// live faulty components.
    pub(crate) fn health<S: TraceSink, T: TelemetrySink>(
        &mut self,
        (from, to): (HealthState, HealthState),
        faults: u64,
        sink: &mut S,
        telem: &mut T,
    ) {
        self.metrics.health_transitions += 1;
        telem.health_transition(self.cycle, from, to);
        let kind = TraceEventKind::Health { state: to, faults };
        self.say(sink, NETWORK_EVENT_PACKET, NodeId(0), kind);
    }

    /// Account phase 0: the cycle's fault events, re-classifying the
    /// `truth` against the Theorem 3 budget only when it changed, and
    /// whether the routing view caught up with it.
    pub(crate) fn faults<S: TraceSink, T: TelemetrySink>(
        &mut self,
        adv: &Advance,
        monitor: &mut FaultBudgetMonitor,
        gc: &GaussianCube,
        truth: &FaultSet,
        sink: &mut S,
        telem: &mut T,
    ) {
        if adv.applied > 0 {
            self.metrics.fault_events += adv.applied as u64;
            telem.fault_events(adv.applied as u64);
            if let Some(change) = monitor.update(gc, truth) {
                self.health(change, truth.len() as u64, sink, telem);
            }
        }
        if adv.reconverged {
            self.metrics.reconvergences += 1;
            telem.reconvergence();
        } else if adv.stale {
            self.metrics.stale_cycles += 1;
            telem.stale_cycle();
        }
    }

    /// Fold another shard's ledger into this one.
    pub(crate) fn absorb(&mut self, other: &PacketLedger) {
        self.metrics.absorb(&other.metrics);
        merge_windows(&mut self.windows, &other.windows);
        merge_ops(self.ops.ops_mut(), other.ops.ops());
    }

    /// Close out a run that ended at `ended_at` with `in_flight` packets
    /// still in the network.
    pub(crate) fn close(&mut self, ended_at: u64, in_flight: u64) {
        self.metrics.cycles = ended_at - self.warmup;
        self.metrics.in_flight_at_end = in_flight;
        self.windows
            .truncate((ended_at as usize).div_ceil(self.window as usize));
        if let Some(last) = self.windows.last_mut() {
            last.end = last.end.min(ended_at);
        }
    }
}
