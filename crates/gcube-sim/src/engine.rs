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
//! With a [`FaultSchedule`](crate::injection::FaultSchedule) the network
//! changes while packets are in flight: routing plans on a lagging view
//! of the faults, and a packet whose next hop is dead is recovered or
//! dropped where it stands ([`crate::replica`]).
//!
//! # The one cycle kernel
//!
//! [`EngineCore::step`] advances a run one cycle, for any thread count.
//! The core owns the network-global state (the traffic stream, packet
//! ids, the health monitor, the collective repair ledger, the cycle
//! counters) and shard 0 of the run's ending-class partition
//! ([`crate::shard`]). A sequential run is the partition into one shard:
//! the core steps it alone, with no threads, barriers or locks, and its
//! trace events reach the caller's sink directly. A sharded run passes
//! its exchange into each step, and the same kernel runs the round
//! protocol with the worker shards. A one-shard core can be parked
//! between requests ([`crate::server`]), checkpointed mid-run
//! ([`crate::checkpoint`]), and resumed bitwise.

use std::mem;
use std::time::Instant;

use gcube_routing::faults::fault_budget;
use gcube_routing::knowledge::exchange_rounds;
use gcube_routing::{CacheStats, FaultSet};
use gcube_topology::{GaussianCube, NodeId, Topology};

use crate::collective::RepairLedger;
use crate::config::{KnowledgeModel, SimConfig};
use crate::error::SimError;
use crate::ledger::PacketLedger;
use crate::metrics::ChurnReport;
use crate::profiler::{ProfSample, ProfilerSink};
use crate::replica::Blocked;
use crate::session::SimSession;
use crate::shard::{Direct, Exchange, InjectReq, Keyed, Narrate, PlanUnit, Shard, SUB_HEALTH};
use crate::strategy::RoutingAlgorithm;
use crate::telemetry::{CycleView, FaultBudgetMonitor, Phase, TelemetrySink};
use crate::trace::{TraceEvent, TraceSink};
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
}

/// All mutable state of one run, advanced cycle by cycle: shard 0 plus
/// the network-global state.
///
/// Everything the loop needs between cycles lives here, so a run can be
/// suspended (the daemon parks sessions this way) and serialized mid-run
/// ([`crate::checkpoint`]). The core borrows nothing: a sharded run
/// passes its [`Exchange`] into every [`EngineCore::step`]. All fields
/// are `pub(crate)` because checkpointing is a whole-state concern.
pub(crate) struct EngineCore {
    /// Shard 0: the node-local state of the nodes it owns — every node
    /// in a one-shard run.
    pub(crate) shard: Shard,
    pub(crate) traffic: TrafficGen,
    pub(crate) next_id: u64,
    pub(crate) monitor: FaultBudgetMonitor,
    pub(crate) repair_ledger: RepairLedger,
    /// The cycle's injection requests, staged per plan unit.
    units: Vec<PlanUnit>,
    /// Sharded-run scratch: shard 0's keyed trace events and the
    /// gathered recovery candidates.
    events: Vec<(u64, TraceEvent)>,
    candidates: Vec<(u32, Blocked)>,
    /// Global end-of-cycle class snapshots of a sharded run, assembled
    /// from every shard's Round D cells (a one-shard run samples its
    /// buffers directly).
    class_queued: Vec<u64>,
    class_occupied: Vec<u64>,
    pub(crate) total_cycles: u64,
    /// The next cycle [`EngineCore::step`] will execute.
    pub(crate) cycle: u64,
    pub(crate) ended_at: u64,
    pub(crate) done: bool,
    /// Packets in the network after the last executed cycle.
    pub(crate) in_flight: u64,
}

impl EngineCore {
    /// Initialise a run over `shards` shards: cycle-zero state, including
    /// the initial fault-budget classification (trace event and counter)
    /// for runs that start faulty. Checkpoint restore must *not* call
    /// this with a live sink — the cycle-0 health event would be
    /// re-emitted.
    pub(crate) fn new<S: TraceSink, T: TelemetrySink>(
        sim: &Simulator,
        shards: usize,
        sink: &mut S,
        telem: &mut T,
    ) -> EngineCore {
        let total_cycles = sim.config.inject_cycles + sim.config.drain_cycles;
        let mut shard = Shard::new(sim, 0, shards, None);
        shard.ledger.metrics.nodes = sim.gc.num_nodes();

        // The Theorem-3 fault-budget monitor runs whether or not
        // telemetry is attached: health transitions are trace events and
        // metric counters, so replay verification covers them. A run that
        // starts faulty reports its initial classification at cycle 0.
        let mut monitor = FaultBudgetMonitor::for_strategy(sim.algorithm.survives_bound_exceeded());
        let truth = &shard.replica.truth;
        if let Some(change) = monitor.update(&sim.gc, truth) {
            let faults = truth.len() as u64;
            shard.ledger.health(change, faults, sink, telem);
        }

        let classes = 1usize << sim.gc.alpha();
        EngineCore {
            traffic: TrafficGen::with_pattern(
                sim.config.seed,
                sim.config.injection_rate,
                sim.config.pattern,
            ),
            next_id: 0,
            monitor,
            repair_ledger: RepairLedger::new(classes),
            units: (0..shard.unit_mask + 1).map(|_| Vec::new()).collect(),
            events: Vec::new(),
            candidates: Vec::new(),
            class_queued: vec![0; classes],
            class_occupied: vec![0; classes],
            total_cycles,
            cycle: 0,
            ended_at: total_cycles,
            done: false,
            in_flight: 0,
            shard,
        }
    }

    /// Execute one cycle — on shard 0 alone when `ex` is `None`, in
    /// lockstep with the workers of a sharded run otherwise. Returns
    /// `true` once the run is complete (all cycles executed, or injection
    /// over and the network drained); calling again after that is a
    /// no-op returning `true`.
    ///
    /// One shard narrates straight into `sink`; a sharded cycle buffers
    /// every shard's events under their sort keys and emits them here,
    /// in the same order. Trace events, metrics and windows are
    /// identical across all sink combinations — observers never steer.
    pub(crate) fn step<S: TraceSink, T: TelemetrySink, P: ProfilerSink>(
        &mut self,
        sim: &Simulator,
        ex: Option<&Exchange>,
        sink: &mut S,
        telem: &mut T,
        prof: &mut P,
    ) -> bool {
        if self.done || self.cycle >= self.total_cycles {
            self.done = true;
            return true;
        }
        debug_assert_eq!(ex.is_some(), self.shard.shards > 1);
        let cycle = self.cycle;
        match ex {
            None => self.run_cycle(sim, None, &mut Direct(sink), telem, prof),
            Some(ex) => {
                let mut events = mem::take(&mut self.events);
                let ev = &mut Keyed {
                    buf: &mut events,
                    on: sink.enabled(),
                    key: 0,
                };
                self.run_cycle(sim, Some(ex), ev, telem, prof);
                if sink.enabled() {
                    ex.collect_events((cycle & 1) as usize, &mut events);
                    events.sort_unstable_by_key(|&(key, _)| key);
                    for (_, e) in events.drain(..) {
                        sink.record(&e);
                    }
                }
                self.events = events;
            }
        }
        self.cycle += 1;
        if cycle >= sim.config.inject_cycles && self.in_flight == 0 {
            self.ended_at = cycle + 1;
            self.done = true;
        } else if self.cycle >= self.total_cycles {
            self.done = true;
        }
        self.done
    }

    /// The cycle kernel: phase 0, injection, forwarding, observers.
    fn run_cycle<E: Narrate, T: TelemetrySink, P: ProfilerSink>(
        &mut self,
        sim: &Simulator,
        ex: Option<&Exchange>,
        ev: &mut E,
        telem: &mut T,
        prof: &mut P,
    ) {
        let cycle = self.cycle;
        let parity = (cycle & 1) as usize;
        // Phase profiling is wall-clock and report-only; the timers exist
        // when either a telemetry sink or a profiler is attached, so
        // `--profile` works without `--telemetry`.
        let profiled = prof.enabled();
        let profiling = telem.enabled() || profiled;
        let shard = &mut self.shard;
        if profiled {
            shard.profile.cycles = cycle + 1;
        }
        // 0. Fault events: mutate the truth, account them, strand queued
        //    packets on dead nodes, advance the knowledge exchange.
        let phase_started = profiling.then(Instant::now);
        let adv = shard.advance(sim, cycle);
        {
            let (monitor, truth) = (&mut self.monitor, &shard.replica.truth);
            let mut health = ev.at(SUB_HEALTH, 0, 0);
            let ledger = &mut shard.ledger;
            ledger.faults(&adv, monitor, &sim.gc, truth, &mut health, telem);
        }
        if adv.applied > 0 {
            shard.strand(ev);
        }
        phase_time(phase_started, Phase::Reconvergence, telem, prof);

        // 1. Injection. Sources route on the *view*: right after a fault
        //    event they may plan through a dead component and only find
        //    out en route. The collective wave goes first.
        let phase_started = profiling.then(Instant::now);
        let repairs = Some(&mut self.repair_ledger);
        shard.launch_collective(sim, cycle, ev, telem, repairs);
        let mut cycle_injected = 0;
        if cycle < sim.config.inject_cycles {
            let first_id = self.next_id;
            self.draw(sim);
            cycle_injected = self.next_id - first_id;
            let shard = &mut self.shard;
            match ex {
                None => {
                    let unit = &mut self.units[0];
                    shard.plan_unit(sim, unit);
                    shard.account_unit(cycle, unit, ev);
                }
                Some(ex) => {
                    ex.stage_units(&mut self.units);
                    shard.round_a(sim, cycle, ex, ev, profiled);
                }
            }
        }
        phase_time(phase_started, Phase::Planning, telem, prof);

        // 2. Forwarding: the scan, then the move drain, then (sharded)
        //    the move exchange and central recovery.
        let phase_started = profiling.then(Instant::now);
        let shard = &mut self.shard;
        shard.scan(sim, cycle, ev, telem);
        shard.drain_moves(cycle, ev);
        let mut cycle_moved = shard.hops;
        self.in_flight = match ex {
            None => {
                shard.push_arrivals();
                shard.bufs.queued
            }
            Some(ex) => {
                let (contrib, hops) = shard.exchange_moves(ex, parity, profiled);
                cycle_moved = hops;
                let mut drops = 0;
                if shard.recovers() {
                    drops = ex.resolve(sim, cycle, shard, &mut self.candidates, ev, telem);
                    shard.barrier_wait(ex, profiled); // Round C: verdicts published.
                    shard.apply_verdicts(cycle, ex);
                }
                contrib - drops
            }
        };
        phase_time(phase_started, Phase::Forwarding, telem, prof);

        // 3. Observers (guarded so the observer-off engine pays nothing).
        //    The cycle's per-packet counts arrive as one delta per shard.
        //    Cache statistics take a lock, so they are fetched only when
        //    asked for, at a quiescent point; one fetch serves both.
        if profiling {
            let sample_started = Instant::now();
            match ex {
                None if telem.enabled() => telem.absorb_shard(&self.shard.ledger.delta),
                None => {}
                Some(ex) => {
                    self.shard.publish_telemetry(ex);
                    self.shard.barrier_wait(ex, profiled); // Round D: all cells published.
                    ex.gather(telem, &mut self.class_queued, &mut self.class_occupied);
                }
            }
            let want_telem = telem.enabled() && telem.wants_sample(cycle);
            let want_prof = profiled && prof.wants_cache(cycle);
            let cache = if want_telem || want_prof {
                sim.algorithm.cache_stats()
            } else {
                None
            };
            if telem.enabled() {
                telem.end_cycle(self.cycle_view(cycle, cache.filter(|_| want_telem)));
            }
            if profiled {
                let (class_queued, class_occupied) = self.classes();
                prof.cycle_sample(&ProfSample {
                    cycle,
                    injected: cycle_injected,
                    moved: cycle_moved,
                    in_flight: self.in_flight,
                    class_queued,
                    class_occupied,
                    cache: cache.filter(|_| want_prof),
                });
            }
            if let Some(ex) = ex {
                self.shard.barrier_wait(ex, profiled); // Round D: core folded and sampled.
            }
            phase_time(Some(sample_started), Phase::Telemetry, telem, prof);
        }
        // Empty at every step boundary, so checkpoints never carry it.
        self.shard.ledger.delta.reset();
    }

    /// Draw the cycle's injection requests from the single traffic
    /// stream, in node order, into the plan units.
    fn draw(&mut self, sim: &Simulator) {
        let shard = &mut self.shard;
        for v in 0..shard.n_nodes {
            let src = NodeId(v);
            if shard.replica.links.node_faulty(v) || !self.traffic.fires() {
                continue;
            }
            if let Some(cap) = shard.capacity {
                if shard.bufs.queues.len(v as usize) >= cap {
                    // Backpressure: the source buffer is full.
                    shard.ledger.blocked();
                    continue;
                }
            }
            let Some(dst) = self.traffic.pick_dest(&sim.gc, &shard.replica.view, src) else {
                // The offered load just shrank by one packet — count it
                // instead of silently skewing throughput comparisons
                // (permutation partner faulty/self, or no healthy
                // destination at all).
                shard.ledger.suppressed();
                continue;
            };
            // Packet ids are assigned per injection *attempt*: a failed
            // route consumes the id too, so ids are a pure function of
            // the traffic stream, fixed before planning.
            let id = self.next_id;
            self.next_id += 1;
            self.units[v as usize & shard.unit_mask].push(InjectReq {
                src: v,
                dst,
                id,
                plan: None,
            });
        }
    }

    /// The end-of-cycle ending-class snapshots: shard 0's own buffers in
    /// a one-shard run, the gathered global copy otherwise.
    fn classes(&self) -> (&[u64], &[u64]) {
        if self.shard.shards == 1 {
            (
                &self.shard.bufs.class_queued,
                &self.shard.bufs.class_occupied,
            )
        } else {
            (&self.class_queued, &self.class_occupied)
        }
    }

    /// The network state a telemetry sink samples at `cycle`.
    fn cycle_view(&self, cycle: u64, cache: Option<CacheStats>) -> CycleView<'_> {
        let (class_queued, class_occupied) = self.classes();
        CycleView {
            cycle,
            class_queued,
            class_occupied,
            in_flight: self.in_flight,
            health: self.monitor.state(),
            live_faults: self.shard.replica.truth.len() as u64,
            cache,
        }
    }

    /// Close out the run and build its report. Call once, after
    /// [`EngineCore::step`] returned `true`, with the same `ex`; a
    /// sharded run folds every worker's ledger in first. The core's
    /// accumulators are drained into the report.
    pub(crate) fn finish<T: TelemetrySink, P: ProfilerSink>(
        &mut self,
        sim: &Simulator,
        ex: Option<&Exchange>,
        telem: &mut T,
        prof: &mut P,
    ) -> ChurnReport {
        if telem.enabled() {
            telem.finish(self.cycle_view(self.ended_at, sim.algorithm.cache_stats()));
        }
        if let Some(ex) = ex {
            if prof.enabled() {
                prof.shard_profile(0, &self.shard.profile);
            }
            ex.reduce(&mut self.shard.ledger, prof);
        }
        if prof.enabled() {
            prof.finish_run(self.ended_at, self.shard.shards);
        }
        self.shard.ledger.close(self.ended_at, self.in_flight);
        let ledger = mem::replace(&mut self.shard.ledger, PacketLedger::new(sim));
        let truth = &self.shard.replica.truth;
        ChurnReport {
            metrics: ledger.metrics,
            windows: ledger.windows,
            trace: self.shard.replica.injector.trace().to_vec(),
            budget: fault_budget(&sim.gc, truth),
            tree_health: sim.algorithm.tree_health(&sim.gc, truth),
            collectives: ledger.ops.into_ops(),
        }
    }
}

/// Record a phase's wall-clock time in both observers, if it was timed.
fn phase_time<T: TelemetrySink, P: ProfilerSink>(
    started: Option<Instant>,
    phase: Phase,
    telem: &mut T,
    prof: &mut P,
) {
    if let Some(t) = started {
        let nanos = t.elapsed().as_nanos() as u64;
        telem.phase_time(phase, nanos);
        prof.phase_time(phase, nanos);
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
