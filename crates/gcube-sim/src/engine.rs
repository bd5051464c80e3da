//! The cycle-driven simulation engine.
//!
//! Store-and-forward with FIFO queues: each cycle, every node may forward
//! the head of its queue onto the requested output link; each *directed*
//! link carries at most one packet per cycle; a packet reaching its
//! destination is sinked immediately (eager readership). Node service
//! order rotates each cycle so no node is systematically favoured.
//!
//! Buffers are unbounded by default — the paper's eager-readership model.
//! With [`crate::config::SimConfig::with_buffer_capacity`] the engine
//! switches to backpressure: packets move only into queues with room and
//! full sources refuse injections. That mode exists to *demonstrate* the
//! assumption's importance: tight buffers genuinely deadlock under load
//! (see `finite_buffers_apply_backpressure_and_can_deadlock`).
//!
//! # Dynamic faults and online recovery
//!
//! With a [`FaultSchedule`](crate::injection::FaultSchedule), the network
//! changes *while packets are in flight*. A `FaultReplica` then tracks
//! the **truth** (what is actually broken) and the **view** (what routing
//! decisions see, lagging each fault event by the paper's claim-4
//! exchange delay or by the measured protocol rounds, so packets are
//! planned against stale knowledge).
//!
//! A packet whose next hop is dead in the truth cannot move. Its holder
//! observes the failure and the engine applies the recovery rule
//! (`replica::recover`): the failure enters the view, and the
//! packet is replanned from its current node, burning one cycle and one
//! unit of its re-route budget — or dropped when the budget or the TTL is
//! spent or no recovery route exists. Packets also drop when the node
//! buffering them dies.
//!
//! # The steppable core
//!
//! The sequential loop lives in [`EngineCore`]: all of a run's mutable
//! state in one struct, advanced one cycle at a time by
//! [`EngineCore::step`]. Every counter a packet event moves goes through
//! its `PacketLedger` — the same ledger each shard of the shard engine
//! ([`crate::shard`]) keeps. A stepped core can be parked between
//! requests (the daemon, [`crate::server`]), checkpointed mid-run
//! ([`crate::checkpoint`]), and resumed bitwise.

use std::mem;
use std::sync::Arc;
use std::time::Instant;

use gcube_routing::faults::fault_budget;
use gcube_routing::knowledge::exchange_rounds;
use gcube_routing::plan_cache::PlanCache;
use gcube_routing::{CacheStats, FaultSet};
use gcube_topology::{GaussianCube, NodeId, Topology};

use crate::collective::{CollectivePlanner, RepairLedger};
use crate::config::{KnowledgeModel, SimConfig};
use crate::error::SimError;
use crate::ledger::PacketLedger;
use crate::metrics::ChurnReport;
use crate::profiler::{ProfSample, ProfilerSink};
use crate::replica::{recover, Blocked, FaultReplica};
use crate::session::SimSession;
use crate::soa::Buffers;
use crate::strategy::RoutingAlgorithm;
use crate::telemetry::{CycleView, FaultBudgetMonitor, Phase, TelemetrySink};
use crate::trace::{DropCause, TraceSink};
use crate::traffic::{place_node_faults, TrafficGen};

/// A deterministic cycle-driven simulator for one `GC(n, M)` instance.
pub struct Simulator<'a> {
    pub(crate) gc: GaussianCube,
    pub(crate) faults: FaultSet,
    pub(crate) config: SimConfig,
    pub(crate) algorithm: &'a dyn RoutingAlgorithm,
}

impl<'a> Simulator<'a> {
    /// Build a simulator; places `config.faulty_nodes` node faults.
    ///
    /// Panics on an invalid configuration (bad cube parameters or an
    /// out-of-range injection rate); use [`Simulator::try_new`] to handle
    /// those as errors.
    pub fn new(config: SimConfig, algorithm: &'a dyn RoutingAlgorithm) -> Simulator<'a> {
        match Self::try_new(config, algorithm) {
            Ok(sim) => sim,
            Err(e) => panic!("invalid simulation config: {e}"),
        }
    }

    /// Fallible constructor: validates the configuration (including the
    /// injection rate, which used to be silently clamped) before building
    /// anything.
    pub fn try_new(
        config: SimConfig,
        algorithm: &'a dyn RoutingAlgorithm,
    ) -> Result<Simulator<'a>, SimError> {
        config.validate()?;
        let gc =
            GaussianCube::new(config.n, config.modulus).map_err(|e| SimError::InvalidTopology {
                n: config.n,
                modulus: config.modulus,
                reason: e.to_string(),
            })?;
        let faults = place_node_faults(&gc, config.faulty_nodes, config.seed);
        Ok(Simulator {
            gc,
            faults,
            config,
            algorithm,
        })
    }

    /// The fault set in effect at cycle zero (for inspection).
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// The simulated cube.
    pub fn cube(&self) -> &GaussianCube {
        &self.gc
    }

    /// The configuration this simulator was built from.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The routing algorithm this simulator plans with.
    pub fn algorithm(&self) -> &'a dyn RoutingAlgorithm {
        self.algorithm
    }

    /// The view's convergence lag after a fault event, in cycles.
    pub(crate) fn knowledge_delay(&self, truth: &FaultSet) -> u64 {
        match self.config.knowledge {
            KnowledgeModel::Oracle => 0,
            KnowledgeModel::PaperDelay => {
                // Claim 4: at most ⌈n/2^α⌉ + 1 exchange rounds.
                let d = 1u64 << self.gc.alpha();
                u64::from(self.gc.n()).div_ceil(d) + 1
            }
            KnowledgeModel::Measured => exchange_rounds(&self.gc, truth).rounds().max(1) as u64,
        }
    }

    /// Start building a run: the single composable front door.
    ///
    /// ```text
    /// sim.session().threads(4).trace(&mut sink).telemetry(&mut telem).run()
    /// ```
    ///
    /// Thread count, trace sink, telemetry sink and profiler are each one
    /// builder call. See [`SimSession`].
    pub fn session(&self) -> SimSession<'_, 'a> {
        SimSession::new(self)
    }

    /// The sequential cycle loop — the reference semantics. The session
    /// builder dispatches here for single-threaded runs; the sharded
    /// engine ([`crate::shard`]) reproduces this loop's output bit for
    /// bit. Trace events, metrics, and windows are identical across all
    /// sink combinations — observers never steer.
    pub(crate) fn run_sequential<S: TraceSink, T: TelemetrySink, P: ProfilerSink>(
        &self,
        sink: &mut S,
        telem: &mut T,
        prof: &mut P,
    ) -> ChurnReport {
        let mut core = EngineCore::new(self, sink, telem);
        while !core.step(self, sink, telem, prof) {}
        core.finish(self, telem, prof)
    }

    /// The run's report, from its closed-out ledger and final replica.
    pub(crate) fn report(&self, ledger: PacketLedger, replica: &FaultReplica) -> ChurnReport {
        ChurnReport {
            metrics: ledger.metrics,
            windows: ledger.windows,
            trace: replica.injector.trace().to_vec(),
            budget: fault_budget(&self.gc, &replica.truth),
            tree_health: self.algorithm.tree_health(&self.gc, &replica.truth),
            collectives: ledger.ops.into_ops(),
        }
    }
}

/// All mutable state of one sequential run, advanced cycle by cycle.
///
/// Everything the loop needs between cycles lives here, so a run can be
/// suspended (the daemon parks sessions this way) and serialized mid-run
/// ([`crate::checkpoint`]). All fields are `pub(crate)` because
/// checkpointing is a whole-state concern.
pub(crate) struct EngineCore {
    pub(crate) bufs: Buffers,
    pub(crate) traffic: TrafficGen,
    pub(crate) ledger: PacketLedger,
    pub(crate) next_id: u64,
    pub(crate) total_cycles: u64,
    pub(crate) ttl: u64,
    pub(crate) replica: FaultReplica,
    pub(crate) monitor: FaultBudgetMonitor,
    pub(crate) collective: Option<CollectivePlanner>,
    pub(crate) repair_ledger: RepairLedger,
    /// Per-cycle scratch, allocated once for the whole run: `moves` holds
    /// the arena slots that advanced this cycle; `scan` snapshots the
    /// occupied nodes in service order (exact: the scan pops only at the
    /// visited node and buffers every push until the drain).
    pub(crate) moves: Vec<u32>,
    pub(crate) scan: Vec<u32>,
    /// Backpressure scratch: arrivals granted this cycle per node, with a
    /// touched-list so resetting costs O(arrivals), not O(nodes). Only
    /// materialised when finite buffers are on.
    pub(crate) arriving: Vec<u32>,
    pub(crate) arrival_nodes: Vec<usize>,
    pub(crate) capacity: Option<usize>,
    /// The next cycle [`EngineCore::step`] will execute.
    pub(crate) cycle: u64,
    pub(crate) ended_at: u64,
    pub(crate) done: bool,
}

impl EngineCore {
    /// Initialise a run: cycle-zero state, including the initial
    /// fault-budget classification (trace event and counter) for runs
    /// that start faulty. Checkpoint restore must *not* call this with a
    /// live sink — the cycle-0 health event would be re-emitted.
    pub(crate) fn new<S: TraceSink, T: TelemetrySink>(
        sim: &Simulator,
        sink: &mut S,
        telem: &mut T,
    ) -> EngineCore {
        let n_nodes = sim.gc.num_nodes();
        let capacity = sim.config.buffer_capacity;
        let total_cycles = sim.config.inject_cycles + sim.config.drain_cycles;
        let mut ledger = PacketLedger::new(sim);
        ledger.metrics.nodes = n_nodes;
        let replica = FaultReplica::new(sim);

        // The Theorem-3 fault-budget monitor runs whether or not
        // telemetry is attached: health transitions are trace events and
        // metric counters, so replay verification covers them. A run that
        // starts faulty reports its initial classification at cycle 0.
        let mut monitor = FaultBudgetMonitor::for_strategy(sim.algorithm.survives_bound_exceeded());
        if let Some(change) = monitor.update(&sim.gc, &replica.truth) {
            ledger.health(change, replica.truth.len() as u64, sink, telem);
        }

        EngineCore {
            bufs: Buffers::new(n_nodes, sim.gc.alpha()),
            traffic: TrafficGen::with_pattern(
                sim.config.seed,
                sim.config.injection_rate,
                sim.config.pattern,
            ),
            ledger,
            next_id: 0,
            total_cycles,
            ttl: sim.config.effective_ttl(),
            replica,
            monitor,
            collective: sim.config.collective.map(|op| {
                CollectivePlanner::new(
                    op,
                    sim.config.collective_interval,
                    sim.config.seed,
                    Arc::new(PlanCache::new(&sim.gc)),
                )
            }),
            repair_ledger: RepairLedger::new(1 << sim.gc.alpha()),
            moves: Vec::new(),
            scan: Vec::new(),
            // At GC(20) a dense array would cost 4 MiB for a mode that
            // cannot engage.
            arriving: if capacity.is_some() {
                vec![0; n_nodes as usize]
            } else {
                Vec::new()
            },
            arrival_nodes: Vec::new(),
            capacity,
            cycle: 0,
            ended_at: total_cycles,
            done: false,
        }
    }

    /// Whether the run has executed its last cycle.
    pub(crate) fn is_done(&self) -> bool {
        self.done
    }

    /// Packets in the network. Every live packet sits in a queue between
    /// steps.
    pub(crate) fn in_flight(&self) -> u64 {
        self.bufs.queued
    }

    /// Execute one cycle. Returns `true` once the run is complete (all
    /// cycles executed, or injection over and the network drained); calling
    /// again after that is a no-op returning `true`.
    pub(crate) fn step<S: TraceSink, T: TelemetrySink, P: ProfilerSink>(
        &mut self,
        sim: &Simulator,
        sink: &mut S,
        telem: &mut T,
        prof: &mut P,
    ) -> bool {
        if self.done || self.cycle >= self.total_cycles {
            self.done = true;
            return true;
        }
        let n_nodes = sim.gc.num_nodes();
        // Phase profiling is wall-clock and report-only; the timers exist
        // when either a telemetry sink or a profiler is attached, so
        // `--profile` works without `--telemetry`.
        let profiling = telem.enabled() || prof.enabled();
        let cycle = self.cycle;
        self.ledger.begin(cycle);

        // Per-cycle deterministic profiler counters; the guarded
        // increments monomorphise away with `NullProfiler`.
        let mut cycle_injected = 0u64;

        // 0. Fault events: mutate the truth, strand queued packets on
        //    dead nodes, advance the knowledge exchange.
        let phase_started = profiling.then(Instant::now);
        let adv = self.replica.advance(sim, cycle);
        let truth = &self.replica.truth;
        self.ledger
            .faults(&adv, &mut self.monitor, &sim.gc, truth, sink, telem);
        if adv.applied > 0 {
            let (ledger, links) = (&mut self.ledger, &self.replica.links);
            self.bufs.strand(
                &mut self.scan,
                |v| links.node_faulty(v),
                |v, _, pkt| ledger.drop_packet((&pkt).into(), DropCause::Stranded, NodeId(v), sink),
            );
        }
        if let Some(t) = phase_started {
            let nanos = t.elapsed().as_nanos() as u64;
            telem.phase_time(Phase::Reconvergence, nanos);
            prof.phase_time(Phase::Reconvergence, nanos);
        }

        // 1. Injection phase. Sources route on the *view*: right after a
        //    fault event they may plan through a dead component and only
        //    find out en route.
        let phase_started = profiling.then(Instant::now);

        // 1a. Collective launch: before unicast injection, so the
        //     per-node queue order (collective wave first) matches the
        //     sharded engine exactly. The plan routes on the view; sources
        //     are filtered by the ground truth (a dead node cannot
        //     transmit, whatever the view believes).
        if let Some(cp) = &self.collective {
            if let Some(op_index) = cp.due(cycle, sim.config.inject_cycles) {
                let links = &self.replica.links;
                let view = &self.replica.view;
                let dead = |v: NodeId| links.node_faulty(v.0);
                let plan = cp.plan(&sim.gc, view, view.generation(), dead, op_index);
                self.ledger
                    .launch(plan.as_ref(), &mut self.repair_ledger, sink, telem);
                if let Some(plan) = plan {
                    self.ledger.ops.begin(&plan, cycle);
                    for pkt in plan.packets {
                        let hops = pkt.route.hops() as u64;
                        let dst = pkt.route.dest();
                        self.ledger
                            .inject_collective(pkt.id, pkt.src, dst, hops, sink);
                        let slot = self.bufs.store.alloc(pkt.id, cycle, pkt.route);
                        self.bufs.push(pkt.src.0 as usize, slot);
                    }
                }
            }
        }

        if cycle < sim.config.inject_cycles {
            for v in 0..n_nodes {
                let src = NodeId(v);
                if self.replica.links.node_faulty(v) || !self.traffic.fires() {
                    continue;
                }
                if let Some(cap) = self.capacity {
                    if self.bufs.queues.len(v as usize) >= cap {
                        // Backpressure: the source buffer is full.
                        self.ledger.blocked();
                        continue;
                    }
                }
                let Some(dst) = self.traffic.pick_dest(&sim.gc, &self.replica.view, src) else {
                    // The offered load just shrank by one packet — count
                    // it instead of silently skewing throughput
                    // comparisons (permutation partner faulty/self, or no
                    // healthy destination at all).
                    self.ledger.suppressed();
                    continue;
                };
                // Packet ids are assigned per injection *attempt*: a
                // failed route consumes the id too, so ids are a pure
                // function of the traffic stream — what lets the sharded
                // engine preassign them before planning.
                let id = self.next_id;
                self.next_id += 1;
                if prof.enabled() {
                    cycle_injected += 1;
                }
                match sim
                    .algorithm
                    .plan_route(&sim.gc, &self.replica.view, src, dst)
                {
                    Ok(planned) => {
                        let hops = planned.route.hops() as u64;
                        self.ledger.inject(id, src, dst, hops, planned.tree, sink);
                        // A zero-hop route sank at once (src == dst cannot
                        // happen, but it would never touch the arena).
                        if hops > 0 {
                            let slot = self.bufs.store.alloc(id, cycle, planned.route);
                            self.bufs.push(v as usize, slot);
                        }
                    }
                    Err(_) => self.ledger.route_failure(),
                }
            }
        }

        if let Some(t) = phase_started {
            let nanos = t.elapsed().as_nanos() as u64;
            telem.phase_time(Phase::Planning, nanos);
            prof.phase_time(Phase::Planning, nanos);
        }

        // 2. Forwarding phase: each node may forward its queue head. One
        //    packet per directed link per cycle holds by construction — a
        //    link's sending endpoint serves at most one packet per cycle.
        //    Rotate the service order for fairness.
        let phase_started = profiling.then(Instant::now);
        let offset = (cycle % n_nodes) as usize;
        // Word-scan the occupancy bitset in rotated service order: the
        // cost is O(words + occupied nodes), not O(nodes).
        self.bufs
            .queues
            .collect_occupied_rotated(offset, &mut self.scan);
        for &vq in &self.scan {
            let v = vq as usize;
            let Some(head) = self.bufs.queues.front(v) else {
                continue;
            };
            let store = &self.bufs.store;
            let from = store.current(head);
            let Some(to) = store.next_hop(head) else {
                // A recovery replan can find the packet already at its
                // destination (the original route passed through it on
                // the way elsewhere): sink it instead of forwarding.
                let pkt = self.bufs.pop_packet(v);
                let latency = cycle - pkt.injected_at;
                self.ledger
                    .deliver((&pkt).into(), latency, pkt.current(), sink);
                continue;
            };
            let dim = (from.0 ^ to.0).trailing_zeros();
            if self.replica.dynamic && !self.replica.links.link_usable(from, to, dim) {
                // The planned hop is dead: the holder observes the failure
                // and the engine recovers or drops. Either way this packet
                // spends the cycle here.
                let blocked = Blocked {
                    exit: store.exit(head),
                    from,
                    to,
                    dest: store.route(head).dest(),
                };
                let (_, route) = recover(
                    sim,
                    &mut self.replica,
                    &blocked,
                    &mut self.ledger,
                    sink,
                    telem,
                );
                self.bufs.resolve(v, route);
                continue;
            }
            // The TTL applies to static runs too: a packet out of hop
            // budget dies here whether or not faults are in play.
            if u64::from(store.hops_taken[head as usize]) >= self.ttl {
                let pkt = self.bufs.pop_packet(v);
                self.ledger
                    .drop_packet((&pkt).into(), DropCause::TtlExpired, from, sink);
                continue;
            }
            if let Some(cap) = self.capacity {
                // A packet sinking at its destination always fits (eager
                // readership at the consumer); otherwise the target buffer
                // must have room. Arrivals granted this cycle count against
                // the room; departures free their slot next cycle —
                // conservative store-and-forward.
                let sinks =
                    store.hop_idx[head as usize] as usize + 2 == store.route(head).nodes().len();
                let t = to.0 as usize;
                if !sinks {
                    if self.bufs.queues.len(t) + self.arriving[t] as usize >= cap {
                        continue; // backpressure: wait for room
                    }
                    if self.arriving[t] == 0 {
                        self.arrival_nodes.push(t);
                    }
                    self.arriving[t] += 1;
                }
            }
            self.ledger.forward(dim);
            let slot = self.bufs.pop(v);
            self.bufs.store.advance(slot);
            self.moves.push(slot);
        }
        for &slot in &self.moves {
            let store = &self.bufs.store;
            let cur = store.current(slot);
            let (id, injected_at) = (store.id[slot as usize], store.injected_at[slot as usize]);
            self.ledger
                .hop(id, injected_at, cur, || store.previous(slot), sink);
            if store.arrived(slot) {
                let latency = cycle + 1 - injected_at;
                self.ledger.deliver(store.exit(slot), latency, cur, sink);
                self.bufs.store.discard(slot);
            } else {
                // Keep FIFO order at the receiving node; the packet can
                // move again no earlier than next cycle.
                self.bufs.push(cur.0 as usize, slot);
            }
        }
        // Captured before the clear: one entry per forwarded hop, the
        // profiler's deterministic "moved" counter.
        let cycle_moved = self.moves.len() as u64;
        self.moves.clear();
        for &t in &self.arrival_nodes {
            self.arriving[t] = 0;
        }
        self.arrival_nodes.clear();
        if let Some(t) = phase_started {
            let nanos = t.elapsed().as_nanos() as u64;
            telem.phase_time(Phase::Forwarding, nanos);
            prof.phase_time(Phase::Forwarding, nanos);
        }

        // 3. Telemetry sampling (guarded so the telemetry-off engine pays
        //    nothing). The cycle's per-packet counts arrive as one delta,
        //    exactly as each shard's do. Cache statistics take a lock, so
        //    they are fetched only at window boundaries.
        if telem.enabled() {
            let sample_started = Instant::now();
            telem.absorb_shard(&self.ledger.delta);
            let cache = if telem.wants_sample(cycle) {
                sim.algorithm.cache_stats()
            } else {
                None
            };
            telem.end_cycle(self.cycle_view(cycle, cache));
            telem.phase_time(Phase::Telemetry, sample_started.elapsed().as_nanos() as u64);
        }
        // Empty at every step boundary, so checkpoints never carry it.
        self.ledger.delta.reset();

        // 4. Profiler sampling: same guard discipline as telemetry — the
        //    deterministic counters mirror the sharded Round-D reduction
        //    exactly (end-of-cycle class snapshots, cache stats fetched
        //    only when asked for, at a quiescent point).
        if prof.enabled() {
            let sample_started = Instant::now();
            let cache = if prof.wants_cache(cycle) {
                sim.algorithm.cache_stats()
            } else {
                None
            };
            prof.cycle_sample(&ProfSample {
                cycle,
                injected: cycle_injected,
                moved: cycle_moved,
                in_flight: self.in_flight(),
                class_queued: &self.bufs.class_queued,
                class_occupied: &self.bufs.class_occupied,
                cache,
            });
            prof.phase_time(Phase::Telemetry, sample_started.elapsed().as_nanos() as u64);
        }

        self.cycle += 1;
        if cycle >= sim.config.inject_cycles && self.in_flight() == 0 {
            self.ended_at = cycle + 1;
            self.done = true;
        } else if self.cycle >= self.total_cycles {
            self.done = true;
        }
        self.done
    }

    /// The network state a telemetry sink samples at `cycle`.
    fn cycle_view(&self, cycle: u64, cache: Option<CacheStats>) -> CycleView<'_> {
        CycleView {
            cycle,
            class_queued: &self.bufs.class_queued,
            class_occupied: &self.bufs.class_occupied,
            in_flight: self.in_flight(),
            health: self.monitor.state(),
            live_faults: self.replica.truth.len() as u64,
            cache,
        }
    }

    /// Close out the run and build its report. Call once, after
    /// [`EngineCore::step`] returned `true`; the core's accumulators are
    /// drained into the report.
    pub(crate) fn finish<T: TelemetrySink, P: ProfilerSink>(
        &mut self,
        sim: &Simulator,
        telem: &mut T,
        prof: &mut P,
    ) -> ChurnReport {
        if telem.enabled() {
            telem.finish(self.cycle_view(self.ended_at, sim.algorithm.cache_stats()));
        }
        if prof.enabled() {
            prof.finish_run(self.ended_at, 1);
        }
        self.ledger.close(self.ended_at, self.in_flight());
        let ledger = mem::replace(&mut self.ledger, PacketLedger::new(sim));
        sim.report(ledger, &self.replica)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::injection::{FaultKind, FaultTarget, TimedFault};
    use crate::strategy::{FaultFreeGcr, FaultTolerantGcr};

    fn small_config() -> SimConfig {
        SimConfig::new(6, 2)
            .with_cycles(200, 2_000, 20)
            .with_rate(0.02)
    }

    #[test]
    fn conservation_packets_in_equals_out() {
        let sim = Simulator::new(small_config(), &FaultFreeGcr);
        let m = sim.session().run().metrics;
        assert!(m.injected > 0, "workload must inject packets");
        assert_eq!(m.route_failures, 0);
        // Every measured packet is either delivered or still in flight.
        assert_eq!(m.in_flight_at_end, 0, "drain period must empty the network");
        assert_eq!(m.delivered, m.injected);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Simulator::new(small_config(), &FaultFreeGcr)
            .session()
            .run()
            .metrics;
        let b = Simulator::new(small_config(), &FaultFreeGcr)
            .session()
            .run()
            .metrics;
        assert_eq!(a, b);
        let c = Simulator::new(small_config().with_seed(777), &FaultFreeGcr)
            .session()
            .run()
            .metrics;
        assert_ne!(a, c);
    }

    #[test]
    fn static_runs_report_no_churn_counters() {
        let r = Simulator::new(small_config(), &FaultFreeGcr)
            .session()
            .run();
        let m = r.metrics;
        assert_eq!(
            (
                m.dropped,
                m.ttl_expired,
                m.rerouted_packets,
                m.rerouted_hops
            ),
            (0, 0, 0, 0)
        );
        assert_eq!(
            (m.fault_events, m.stale_cycles, m.reconvergences),
            (0, 0, 0)
        );
        assert!(r.trace.is_empty());
        assert!(!r.windows.is_empty());
        let resolved: u64 = r.windows.iter().map(|w| w.delivered).sum();
        assert!(resolved >= m.delivered, "windows count warm-up packets too");
    }

    #[test]
    fn latency_at_least_route_length() {
        // Latency per packet ≥ hops; with low load close to hops.
        let sim = Simulator::new(small_config().with_rate(0.001), &FaultFreeGcr);
        let m = sim.session().run().metrics;
        assert!(m.avg_latency() >= m.avg_hops());
        // Uncongested: latency within 1.5x of hop count.
        assert!(m.avg_latency() <= 1.5 * m.avg_hops() + 1.0);
    }

    #[test]
    fn faulty_network_still_delivers_with_ftgcr() {
        let cfg = small_config().with_faults(1);
        let sim = Simulator::new(cfg, &FaultTolerantGcr);
        assert_eq!(sim.faults().faulty_nodes().count(), 1);
        let m = sim.session().run().metrics;
        assert_eq!(m.delivered, m.injected, "FTGCR must deliver all packets");
        assert_eq!(m.route_failures, 0);
    }

    #[test]
    fn fault_raises_latency_on_average() {
        // The Figure 7 effect, in miniature: faults force detours, so mean
        // latency (averaged over seeds — a single seed is noisy because the
        // faulty node also stops injecting) must not drop.
        let mean = |faults: usize| -> f64 {
            let mut total = 0.0;
            for seed in 0..6u64 {
                let cfg = small_config().with_seed(1000 + seed).with_faults(faults);
                total += Simulator::new(cfg, &FaultTolerantGcr)
                    .session()
                    .run()
                    .metrics
                    .avg_latency();
            }
            total / 6.0
        };
        let base = mean(0);
        let faulty = mean(2);
        assert!(
            faulty >= base * 0.98,
            "mean latency should not drop with faults: base={base:.3} faulty={faulty:.3}"
        );
    }

    #[test]
    fn permutation_traffic_runs_and_drains() {
        use crate::traffic::TrafficPattern;
        for pat in [
            TrafficPattern::BitComplement,
            TrafficPattern::BitReversal,
            TrafficPattern::Transpose,
        ] {
            let cfg = small_config().with_pattern(pat);
            let m = Simulator::new(cfg, &FaultFreeGcr).session().run().metrics;
            assert!(m.injected > 0, "{pat:?} must inject");
            assert_eq!(m.delivered, m.injected, "{pat:?} must drain fully");
        }
    }

    #[test]
    fn bit_complement_has_longest_latency() {
        use crate::traffic::TrafficPattern;
        // Complement partners are at maximal distance: latency must exceed
        // the uniform workload's at equal rate.
        let uni = Simulator::new(small_config(), &FaultFreeGcr)
            .session()
            .run()
            .metrics;
        let comp = Simulator::new(
            small_config().with_pattern(TrafficPattern::BitComplement),
            &FaultFreeGcr,
        )
        .session()
        .run()
        .metrics;
        assert!(
            comp.avg_hops() > uni.avg_hops(),
            "complement hops {} must exceed uniform {}",
            comp.avg_hops(),
            uni.avg_hops()
        );
    }

    #[test]
    fn finite_buffers_apply_backpressure_and_can_deadlock() {
        // This test documents WHY the paper assumes eager readership
        // (assumption 2 of §6): with tight finite buffers and no consumption
        // guarantee, store-and-forward traffic deadlocks — head packets
        // point at each other's full queues and nothing ever moves again.
        // (warmup = 0 so the conservation ledger covers every packet.)
        let cfg = SimConfig::new(6, 2)
            .with_cycles(200, 2_000, 0)
            .with_rate(0.2)
            .with_buffer_capacity(2);
        let m = Simulator::new(cfg, &FaultFreeGcr).session().run().metrics;
        assert!(
            m.blocked_injections > 0,
            "tight buffers must block injections"
        );
        assert_eq!(m.delivered + m.in_flight_at_end, m.injected, "conservation");
        assert!(
            m.in_flight_at_end > 0,
            "expected a buffer deadlock at this load; delivered={} injected={}",
            m.delivered,
            m.injected
        );
        // Unbounded buffers (the paper's model): same load, no blocking,
        // full drain.
        let m2 = Simulator::new(
            SimConfig::new(6, 2)
                .with_cycles(200, 2_000, 0)
                .with_rate(0.2),
            &FaultFreeGcr,
        )
        .session()
        .run()
        .metrics;
        assert_eq!(m2.blocked_injections, 0);
        assert_eq!(m2.in_flight_at_end, 0);
        assert_eq!(m2.delivered, m2.injected);
    }

    #[test]
    fn backpressure_conserves_packets_at_gentle_load() {
        // At loads where no deadlock forms, finite buffers still deliver
        // everything they accepted.
        for cap in [4usize, 8] {
            let cfg = SimConfig::new(6, 2)
                .with_cycles(200, 4_000, 0)
                .with_rate(0.005)
                .with_buffer_capacity(cap);
            let m = Simulator::new(cfg, &FaultFreeGcr).session().run().metrics;
            assert_eq!(m.delivered + m.in_flight_at_end, m.injected, "cap {cap}");
            assert_eq!(m.in_flight_at_end, 0, "cap {cap}: gentle load must drain");
        }
    }

    #[test]
    fn higher_load_does_not_lower_throughput() {
        let low = Simulator::new(small_config().with_rate(0.002), &FaultFreeGcr)
            .session()
            .run()
            .metrics;
        let high = Simulator::new(small_config().with_rate(0.02), &FaultFreeGcr)
            .session()
            .run()
            .metrics;
        assert!(high.throughput() > low.throughput());
    }

    // --- dynamic fault tests -------------------------------------------

    /// A scripted mid-run permanent node fault with a stale view: packets
    /// already in flight (or planned before the view converges) must be
    /// re-routed around it, and traffic keeps being delivered afterwards.
    #[test]
    fn midrun_node_fault_triggers_online_recovery() {
        use crate::injection::FaultSchedule;
        let victim = NodeId(9);
        let cfg = SimConfig::new(6, 2)
            .with_cycles(600, 4_000, 0)
            .with_rate(0.05)
            .with_knowledge(KnowledgeModel::PaperDelay)
            .with_schedule(FaultSchedule::Scripted(vec![TimedFault {
                cycle: 300,
                target: FaultTarget::Node(victim),
                kind: FaultKind::Permanent,
            }]));
        let r = Simulator::new(cfg, &FaultTolerantGcr).session().run();
        let m = r.metrics;
        assert_eq!(r.trace.len(), 1, "exactly one event must apply");
        assert_eq!(m.fault_events, 1);
        assert!(m.stale_cycles > 0, "PaperDelay must expose a stale window");
        assert_eq!(m.reconvergences, 1);
        assert!(
            m.rerouted_packets > 0 || m.dropped > 0,
            "in-flight traffic must hit the dead node and recover or drop"
        );
        assert!(
            m.delivered + m.dropped + m.in_flight_at_end == m.injected,
            "conservation with drops: {} + {} + {} != {}",
            m.delivered,
            m.dropped,
            m.in_flight_at_end,
            m.injected
        );
        assert!(
            m.delivery_ratio() > 0.9,
            "one dead node must not collapse delivery: {}",
            m.delivery_ratio()
        );
        // After reconvergence the network routes around the fault: the
        // final window must be fully delivered again.
        let last = r.windows.last().unwrap();
        assert!(
            last.delivery_ratio() > 0.99,
            "delivery must recover after reconvergence: {:?}",
            last
        );
    }

    /// ISSUE acceptance: a transient link fault causes a delivery dip in
    /// its windows and full recovery after its repair.
    #[test]
    fn transient_fault_dips_then_recovers() {
        use crate::injection::FaultSchedule;
        let victim = NodeId(9);
        let cfg = SimConfig::new(6, 2)
            .with_cycles(900, 4_000, 0)
            .with_rate(0.05)
            .with_window(300)
            .with_reroute_budget(0) // no recovery: staleness shows as drops
            .with_knowledge(KnowledgeModel::PaperDelay)
            .with_schedule(FaultSchedule::Scripted(vec![TimedFault {
                cycle: 300,
                target: FaultTarget::Node(victim),
                kind: FaultKind::Transient { repair_after: 150 },
            }]));
        let r = Simulator::new(cfg, &FaultTolerantGcr).session().run();
        assert_eq!(r.trace.len(), 2, "failure and repair must both apply");
        let dip = &r.windows[1]; // cycles 300..600: the fault is live
        assert!(
            dip.dropped > 0 && dip.delivery_ratio() < 1.0,
            "the faulty window must show a dip: {dip:?}"
        );
        // All post-repair windows are clean again.
        for w in &r.windows[2..] {
            assert!(
                w.delivery_ratio() > 0.995,
                "delivery must fully recover after repair: {w:?}"
            );
        }
        assert_eq!(r.metrics.in_flight_at_end, 0);
    }

    /// Same seed and schedule ⇒ identical event trace, metrics, and
    /// windows, bit for bit (ISSUE acceptance).
    #[test]
    fn churn_runs_are_deterministic() {
        use crate::injection::{CategoryMix, FaultSchedule};
        let cfg = || {
            SimConfig::new(6, 2)
                .with_cycles(400, 4_000, 0)
                .with_rate(0.03)
                .with_knowledge(KnowledgeModel::Measured)
                .with_schedule(FaultSchedule::Bernoulli {
                    rate: 0.01,
                    kind: FaultKind::Transient { repair_after: 80 },
                    mix: CategoryMix::default(),
                    node_fraction: 0.5,
                })
        };
        let a = Simulator::new(cfg(), &FaultTolerantGcr).session().run();
        let b = Simulator::new(cfg(), &FaultTolerantGcr).session().run();
        assert!(!a.trace.is_empty(), "the Bernoulli schedule must fire");
        assert_eq!(a, b, "same seed + schedule must reproduce bit for bit");
        let c = Simulator::new(cfg().with_seed(99), &FaultTolerantGcr)
            .session()
            .run();
        assert_ne!(
            a.trace, c.trace,
            "a different seed must change the event trace"
        );
    }

    /// Empty schedule + oracle view must reproduce the static engine
    /// exactly — the dynamic loop is a strict superset, not a fork.
    #[test]
    fn empty_schedule_matches_static_run() {
        let static_cfg = small_config().with_faults(1);
        let m1 = Simulator::new(static_cfg.clone(), &FaultTolerantGcr)
            .session()
            .run()
            .metrics;
        let m2 = Simulator::new(
            static_cfg.with_knowledge(KnowledgeModel::Oracle),
            &FaultTolerantGcr,
        )
        .session()
        .run()
        .metrics;
        assert_eq!(m1, m2);
    }

    /// The TTL genuinely bounds packet lifetimes: with a hostile tiny TTL
    /// packets die instead of wandering forever.
    #[test]
    fn ttl_bounds_packet_lifetimes() {
        use crate::injection::FaultSchedule;
        let cfg = SimConfig::new(6, 2)
            .with_cycles(400, 2_000, 0)
            .with_rate(0.05)
            .with_ttl(2) // shorter than most routes
            .with_schedule(FaultSchedule::Scripted(vec![TimedFault {
                cycle: 0,
                target: FaultTarget::Node(NodeId(9)),
                kind: FaultKind::Permanent,
            }]))
            .with_knowledge(KnowledgeModel::PaperDelay);
        let r = Simulator::new(cfg, &FaultTolerantGcr).session().run();
        assert!(r.metrics.ttl_expired > 0, "a 2-hop TTL must expire packets");
        assert_eq!(
            r.metrics.delivered + r.metrics.dropped + r.metrics.in_flight_at_end,
            r.metrics.injected,
            "conservation with TTL drops"
        );
        assert_eq!(
            r.metrics.in_flight_at_end, 0,
            "expired packets must not linger"
        );
    }

    /// The TTL applies to *static* runs too: a hop budget shorter than the
    /// routes must expire packets even with no fault schedule (previously
    /// the check only ran in dynamic mode, silently ignoring the setting).
    #[test]
    fn static_ttl_is_enforced() {
        let cfg = SimConfig::new(6, 2)
            .with_cycles(200, 2_000, 0)
            .with_rate(0.05)
            .with_ttl(2);
        let r = Simulator::new(cfg, &FaultFreeGcr).session().run();
        let m = r.metrics;
        assert!(
            m.ttl_expired > 0,
            "a 2-hop TTL must expire packets in a static run"
        );
        assert_eq!(m.dropped, m.ttl_expired, "TTL is the only drop cause here");
        assert_eq!(
            m.delivered + m.dropped + m.in_flight_at_end,
            m.injected,
            "conservation with static TTL drops"
        );
        // Short routes still make it through.
        assert!(m.delivered > 0, "routes within the TTL must still deliver");
    }

    /// The cached strategies are drop-in replacements: same seed and
    /// config must reproduce the uncached engine output bit for bit, both
    /// fault-free and under churn.
    #[test]
    fn cached_strategies_match_uncached_in_engine() {
        use crate::injection::FaultSchedule;
        use crate::strategy::{CachedFfgcr, CachedFtgcr};

        let a = Simulator::new(small_config(), &FaultFreeGcr)
            .session()
            .run();
        let b = Simulator::new(small_config(), &CachedFfgcr::new())
            .session()
            .run();
        assert_eq!(a, b, "cached FFGCR must match uncached in the engine");

        let churn_cfg = || {
            SimConfig::new(6, 2)
                .with_cycles(600, 4_000, 0)
                .with_rate(0.05)
                .with_knowledge(KnowledgeModel::PaperDelay)
                .with_schedule(FaultSchedule::Scripted(vec![TimedFault {
                    cycle: 300,
                    target: FaultTarget::Node(NodeId(9)),
                    kind: FaultKind::Permanent,
                }]))
        };
        let c = Simulator::new(churn_cfg(), &FaultTolerantGcr)
            .session()
            .run();
        let cached = CachedFtgcr::new();
        let d = Simulator::new(churn_cfg(), &cached).session().run();
        assert_eq!(c, d, "cached FTGCR must match uncached under churn");
        let stats = cached.stats().expect("cache was used");
        assert!(stats.hits > 0, "repeat pairs must hit the cache");
    }

    /// The whole-run ledger balances exactly, warm-up included, and the
    /// window time series sums to the same totals.
    #[test]
    fn whole_run_ledger_balances() {
        use crate::injection::FaultSchedule;
        let cfg = SimConfig::new(6, 2)
            .with_cycles(600, 4_000, 100)
            .with_rate(0.05)
            .with_knowledge(KnowledgeModel::PaperDelay)
            .with_schedule(FaultSchedule::Scripted(vec![TimedFault {
                cycle: 300,
                target: FaultTarget::Node(NodeId(9)),
                kind: FaultKind::Permanent,
            }]));
        let r = Simulator::new(cfg, &FaultTolerantGcr).session().run();
        let m = r.metrics;
        assert!(
            m.injected_total > m.injected,
            "warm-up packets must appear in the total but not the measured count"
        );
        assert_eq!(
            m.injected_total,
            m.delivered_total + m.dropped_total + m.in_flight_at_end,
            "whole-run conservation"
        );
        assert_eq!(
            r.windows.iter().map(|w| w.injected).sum::<u64>(),
            m.injected_total
        );
        assert_eq!(
            r.windows.iter().map(|w| w.delivered).sum::<u64>(),
            m.delivered_total
        );
        assert_eq!(
            r.windows.iter().map(|w| w.dropped).sum::<u64>(),
            m.dropped_total
        );
    }

    /// `rerouted_packets` counts each re-routed packet exactly once at its
    /// final resolution, so it can never exceed the resolved-packet count
    /// and never misses a packet that recovered while queued.
    #[test]
    fn rerouted_packets_counted_per_packet() {
        use crate::injection::FaultSchedule;
        // High rate so recovery often happens behind another queued packet
        // (the case the old queue-head heuristic missed).
        let cfg = SimConfig::new(6, 2)
            .with_cycles(600, 4_000, 0)
            .with_rate(0.2)
            .with_knowledge(KnowledgeModel::PaperDelay)
            .with_schedule(FaultSchedule::Scripted(vec![TimedFault {
                cycle: 300,
                target: FaultTarget::Node(NodeId(9)),
                kind: FaultKind::Permanent,
            }]));
        let m = Simulator::new(cfg, &FaultTolerantGcr)
            .session()
            .run()
            .metrics;
        assert!(m.rerouted_packets > 0, "the dead node must force re-routes");
        assert!(
            m.rerouted_packets <= m.delivered + m.dropped,
            "a packet resolves once: rerouted {} > resolved {}",
            m.rerouted_packets,
            m.delivered + m.dropped
        );
        // Every re-routed packet took at least one detour hop, so the hop
        // total must cover the packet count.
        assert!(m.rerouted_hops >= m.rerouted_packets);
    }

    /// A permutation source whose partner is faulty stays silent — that
    /// used to vanish without a trace; now it is counted.
    #[test]
    fn suppressed_injections_are_counted() {
        use crate::traffic::TrafficPattern;
        // Under BitComplement on GC(6,2), every node with a faulty
        // complement is silenced; four static faults guarantee silenced
        // sources that still fire at rate 1.
        let cfg = small_config()
            .with_rate(1.0)
            .with_pattern(TrafficPattern::BitComplement)
            .with_faults(4);
        let m = Simulator::new(cfg, &FaultTolerantGcr)
            .session()
            .run()
            .metrics;
        assert!(
            m.suppressed_injections_total > 0,
            "faulty complements must suppress injections"
        );
        assert!(m.suppressed_injections > 0, "some must land post-warm-up");
        assert!(m.suppressed_injections <= m.suppressed_injections_total);
        // Fault-free uniform traffic never suppresses.
        let clean = Simulator::new(small_config(), &FaultFreeGcr)
            .session()
            .run()
            .metrics;
        assert_eq!(clean.suppressed_injections_total, 0);
    }
}
