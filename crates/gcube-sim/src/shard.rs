//! Shards: the node-local half of the cycle kernel, and the lockstep
//! protocol that runs several of them on threads.
//!
//! Theorem 2 makes ending classes the natural shard key: a hop over a
//! dimension `>= α` stays inside the sender's ending class, so
//! partitioning the nodes by ending class puts every intra-class hop
//! shard-local and confines cross-shard traffic to the low `α`
//! dimensions. A run has `T = min(threads, 2^α)` shards, each owning a
//! contiguous chunk of classes; a sequential run is the partition into
//! one shard. A [`Shard`] holds its nodes' packet [`Buffers`], a
//! [`FaultReplica`], a [`PacketLedger`] and scan scratch, and each
//! per-cycle operation on that state exists once, as a `Shard` method.
//!
//! [`EngineCore::step`] is the one cycle driver: it steps shard 0 and the
//! network-global state. One shard runs alone on the calling thread,
//! with no barriers or locks. With `T > 1`, shards `1..T` run
//! [`run_worker`] on scoped threads and meet the core in barriered
//! rounds through a shared [`Exchange`] of preallocated mailbox cells:
//!
//! 1. **Phase 0 (replicated).** Every shard steps an identical replica,
//!    so fault events and reconvergence need no communication; each
//!    strands its own dead queues.
//! 2. **Round A — injection.** The core draws the single traffic stream
//!    in node order into one plan unit per ending class; every thread
//!    steals whole units off an atomic cursor and plans them against its
//!    own view replica (the plan-cache key includes the source class, so
//!    the cache counters stay deterministic); owners then account their
//!    classes. A one-shard run has a single unit, accounted in node
//!    order.
//! 3. **Scan and Round B — moves.** Each shard scans its nodes in the
//!    global rotated service order. A move into a node the shard owns
//!    stays an arena slot; a cross-shard move is materialised as a
//!    [`Packet`] into the receiver's mailbox (double-buffered on cycle
//!    parity), and each receiver merges its arrivals with its kept slots
//!    by `(service index, packet id)` — the one-shard push order.
//! 4. **Round C — recovery.** One shard recovers a blocked head on the
//!    spot. Sharded, blocked heads are shipped to the core as snapshots;
//!    it rules on them in service order with [`recover`] and broadcasts
//!    the verdicts and view mutations, so the replicas stay identical.
//! 5. **Round D — observers.** Only when a telemetry sink or a profiler
//!    is attached: workers publish their telemetry delta and class
//!    snapshot, and the core samples between two barriers, while every
//!    plan cache is quiescent.
//!
//! The output is bitwise identical for every thread count: ledgers are
//! commutative sums merged at the end, packet ids are a pure function of
//! the traffic stream, and each shard narrates into a keyed buffer
//! ([`Keyed`]) that the core sorts into the one-shard emission order.
//! Wall-clock timings are report-only.
//!
//! [`EngineCore::step`]: crate::engine::EngineCore::step

use std::mem;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use gcube_routing::plan_cache::PlanCache;
use gcube_routing::Route;
use gcube_topology::{NodeId, Topology};

use crate::collective::{CollectivePlanner, RepairLedger};
use crate::engine::{EngineCore, Simulator};
use crate::ledger::PacketLedger;
use crate::metrics::ChurnReport;
use crate::packet::Packet;
use crate::profiler::{ProfilerSink, ShardProfile};
use crate::replica::{recover, Advance, Blocked, FaultReplica, ViewOp};
use crate::soa::Buffers;
use crate::strategy::PlannedRoute;
use crate::telemetry::{NullTelemetry, ShardTelemetry, TelemetrySink};
use crate::trace::{DropCause, TraceEvent, TraceSink};

/// Trace-stream tags for the per-cycle merge key, in emission order:
/// network health, stranding drops, collective launch, injection,
/// forwarding-scan resolutions (including recovery), move drain.
pub(crate) const SUB_HEALTH: u64 = 0;
const SUB_STRAND: u64 = 1;
const SUB_LAUNCH: u64 = 2;
const SUB_INJECT: u64 = 3;
pub(crate) const SUB_SCAN: u64 = 4;
const SUB_MOVE: u64 = 5;

/// Sort key reproducing the one-shard trace order within one cycle:
/// stream tag, then node id (streams 1–2) or service index (streams
/// 3–4), then event sequence within that slot.
#[inline]
fn ekey(sub: u64, idx: u64, seq: u64) -> u64 {
    debug_assert!(idx < 1 << 40 && seq < 1 << 20);
    (sub << 60) | (idx << 20) | seq
}

/// Where a shard's ledger narrates trace events. A one-shard run writes
/// straight into the caller's sink ([`Direct`]), since its events
/// already come in order; a shard of a sharded run keys each event into
/// a buffer ([`Keyed`]) that the core sorts into that order.
pub(crate) trait Narrate {
    type Sink<'e>: TraceSink
    where
        Self: 'e;

    /// The sink for events in slot `(sub, idx)`, starting at `seq`.
    fn at(&mut self, sub: u64, idx: u64, seq: u64) -> Self::Sink<'_>;
}

/// Narrate into the caller's sink, ignoring the slot.
pub(crate) struct Direct<'a, S>(pub &'a mut S);

impl<S: TraceSink> Narrate for Direct<'_, S> {
    type Sink<'e>
        = &'e mut S
    where
        Self: 'e;

    #[inline]
    fn at(&mut self, _: u64, _: u64, _: u64) -> &mut S {
        self.0
    }
}

/// A trace sink buffering events under their sort key. Consecutive
/// events in one slot take consecutive keys, so they keep their emission
/// order in the merge. As a [`Narrate`], it hands out a reborrow keyed
/// to the requested slot.
pub(crate) struct Keyed<'b> {
    pub buf: &'b mut Vec<(u64, TraceEvent)>,
    pub on: bool,
    pub key: u64,
}

impl TraceSink for Keyed<'_> {
    #[inline]
    fn enabled(&self) -> bool {
        self.on
    }

    fn record(&mut self, event: &TraceEvent) {
        self.buf.push((self.key, *event));
        self.key += 1;
    }
}

impl Narrate for Keyed<'_> {
    type Sink<'e>
        = Keyed<'e>
    where
        Self: 'e;

    #[inline]
    fn at(&mut self, sub: u64, idx: u64, seq: u64) -> Keyed<'_> {
        Keyed {
            buf: self.buf,
            on: self.on,
            key: ekey(sub, idx, seq),
        }
    }
}

/// A sense-reversing hybrid barrier. With enough cores for every shard,
/// waiters spin (briefly yielding between probes), microseconds cheaper
/// per round than parking on a `std::sync::Barrier`. On an
/// oversubscribed host waiters park on a condvar instead: a yield loop
/// there keeps pre-empting the one thread everyone is waiting on.
struct SpinBarrier {
    count: AtomicUsize,
    generation: AtomicUsize,
    total: usize,
    /// Spin before probing again; false parks waiters on the condvar.
    spin: bool,
    lock: Mutex<()>,
    parked: Condvar,
}

impl SpinBarrier {
    fn new(total: usize) -> SpinBarrier {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        SpinBarrier {
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            total,
            spin: cores >= total,
            lock: Mutex::new(()),
            parked: Condvar::new(),
        }
    }

    /// Block until all `total` threads arrive. Memory ordering: every
    /// write before any thread's `wait` is visible to every thread after
    /// its `wait` (the arrivals form a release sequence on `count`; the
    /// last arriver publishes via a release store of `generation`).
    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.count.store(0, Ordering::Relaxed);
            // Publish under the lock so a parking waiter cannot check
            // the generation and then miss the wakeup.
            let guard = self.lock.lock().expect("barrier poisoned");
            self.generation.fetch_add(1, Ordering::Release);
            drop(guard);
            self.parked.notify_all();
            return;
        }
        if self.spin {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        } else {
            let mut guard = self.lock.lock().expect("barrier poisoned");
            while self.generation.load(Ordering::Acquire) == gen {
                guard = self.parked.wait(guard).expect("barrier poisoned");
            }
        }
    }
}

/// One injection request: the core drew the traffic stream, any thread
/// may plan it, the owning shard accounts it. `plan` stays `None` when
/// planning failed (accounted as a route failure by the owner).
pub(crate) struct InjectReq {
    pub src: u64,
    pub dst: NodeId,
    pub id: u64,
    pub plan: Option<PlannedRoute>,
}

/// One plan unit: the injection requests planned together.
pub(crate) type PlanUnit = Vec<InjectReq>;

/// Round D cell: a worker's per-cycle counter delta and its owned slice
/// of the ending-class snapshot, copied into pre-sized buffers.
struct TelemetryCell {
    delta: ShardTelemetry,
    classes: Range<usize>,
    class_queued: Vec<u64>,
    class_occupied: Vec<u64>,
}

/// One mailbox cell per shard (or per sender-receiver pair).
type Cells<T> = Vec<Mutex<Vec<T>>>;

/// The shared-memory mailbox grid of a sharded run. Everything is
/// preallocated; per-cycle traffic is mutex-swaps of `Vec`s whose
/// capacities circulate between senders and cells. A cell written before
/// a round barrier and read after it with no later barrier in the same
/// cycle could be refilled for cycle `c+1` by a fast shard while a slow
/// one still drains cycle `c`, so such cells are double-buffered on
/// cycle parity.
pub(crate) struct Exchange {
    barrier: SpinBarrier,
    shards: usize,
    /// `moves[parity][sender * shards + receiver]`: packets the sender
    /// moved into the receiver's shard this cycle, tagged with the
    /// sender-side service index.
    moves: [Cells<(u32, Packet)>; 2],
    /// Per-sender recovery candidates for the core. Only written in
    /// cycles where Round C runs (its barrier gates the reuse), so no
    /// parity split is needed.
    candidates: Cells<(u32, Blocked)>,
    /// Per-sender `(sort key, event)` buffers for the core's merge.
    events: [Cells<(u64, TraceEvent)>; 2],
    /// Per-sender in-flight contributions for the cooperative exit test.
    contrib: [Vec<AtomicU64>; 2],
    /// Round A work-stealing: one unit per ending class, claimed whole
    /// off the cursor.
    plan_units: Vec<Mutex<PlanUnit>>,
    plan_cursor: AtomicUsize,
    /// Round C broadcast: per-shard `(service index, new route)` verdicts
    /// (`None` marks a drop the core already accounted) plus the shared
    /// ordered view-op list (read in place by every worker).
    verdicts: Cells<(u32, Option<Route>)>,
    view_ops: Mutex<Vec<ViewOp>>,
    verdict_drops: AtomicU64,
    telemetry: Vec<Mutex<TelemetryCell>>,
    /// Per-sender forwarded-hop counts for the profiler's `moved`
    /// counter, published alongside `contrib` (profiled runs only).
    hops: [Vec<AtomicU64>; 2],
    /// Each worker's ledger and profile, for the final reduction.
    finals: Cells<(PacketLedger, ShardProfile)>,
}

impl Exchange {
    fn new(shards: usize, classes: usize, n_dims: usize) -> Exchange {
        fn cells<T>(count: usize) -> Cells<T> {
            (0..count).map(|_| Mutex::new(Vec::new())).collect()
        }
        fn counters(count: usize) -> Vec<AtomicU64> {
            (0..count).map(|_| AtomicU64::new(0)).collect()
        }
        Exchange {
            barrier: SpinBarrier::new(shards),
            shards,
            moves: [cells(shards * shards), cells(shards * shards)],
            candidates: cells(shards),
            events: [cells(shards), cells(shards)],
            contrib: [counters(shards), counters(shards)],
            plan_units: cells(classes),
            plan_cursor: AtomicUsize::new(0),
            verdicts: cells(shards),
            view_ops: Mutex::new(Vec::new()),
            verdict_drops: AtomicU64::new(0),
            hops: [counters(shards), counters(shards)],
            telemetry: class_ranges(classes, shards)
                .into_iter()
                .map(|(lo, hi)| {
                    Mutex::new(TelemetryCell {
                        delta: ShardTelemetry::new(n_dims),
                        classes: lo..hi,
                        class_queued: vec![0; classes],
                        class_occupied: vec![0; classes],
                    })
                })
                .collect(),
            finals: cells(shards),
        }
    }

    /// Swap this sender's non-empty per-receiver buffers into the
    /// mailbox grid, taking the cells' drained (empty, capacity-bearing)
    /// vectors back — the steady state allocates nothing.
    fn publish_moves(&self, parity: usize, me: usize, out: &mut [Vec<(u32, Packet)>]) {
        for (r, buf) in out.iter_mut().enumerate() {
            if buf.is_empty() {
                continue;
            }
            let mut cell = self.moves[parity][me * self.shards + r]
                .lock()
                .expect("mailbox poisoned");
            debug_assert!(cell.is_empty(), "receiver must have drained last use");
            mem::swap(&mut *cell, buf);
        }
    }

    /// Drain every sender's mailbox for this receiver into `arrivals`.
    fn drain_moves(&self, parity: usize, me: usize, arrivals: &mut Vec<(u32, Packet)>) {
        for s in (0..self.shards).filter(|&s| s != me) {
            let mut cell = self.moves[parity][s * self.shards + me]
                .lock()
                .expect("mailbox poisoned");
            arrivals.append(&mut cell);
        }
    }

    /// Stage the core's filled plan units for Round A, taking the
    /// drained ones back.
    pub(crate) fn stage_units(&self, units: &mut [PlanUnit]) {
        for (cell, unit) in self.plan_units.iter().zip(units) {
            let mut cell = cell.lock().expect("plan unit poisoned");
            debug_assert!(cell.is_empty(), "owner must have drained last cycle");
            mem::swap(&mut *cell, unit);
        }
        self.plan_cursor.store(0, Ordering::Relaxed);
    }

    /// Round C, core side: rule on every shard's recovery candidates in
    /// service order with [`recover`] — the exact interleaving of view
    /// discovery, replan and drop accounting a one-shard scan performs
    /// inline — and publish the verdicts and view mutations. Returns
    /// how many candidates dropped.
    pub(crate) fn resolve<E: Narrate, T: TelemetrySink>(
        &self,
        sim: &Simulator,
        cycle: u64,
        shard: &mut Shard,
        candidates: &mut Vec<(u32, Blocked)>,
        ev: &mut E,
        telem: &mut T,
    ) -> u64 {
        for cell in &self.candidates {
            candidates.append(&mut cell.lock().expect("candidates poisoned"));
        }
        candidates.sort_unstable_by_key(|&(svc, ref b)| (svc, b.exit.id));
        let mut view_ops = self.view_ops.lock().expect("view ops poisoned");
        view_ops.clear();
        let mut drops = 0u64;
        for (svc, blocked) in candidates.drain(..) {
            let mut sink = ev.at(SUB_SCAN, u64::from(svc), 0);
            let (op, route) = recover(
                sim,
                &mut shard.replica,
                &blocked,
                &mut shard.ledger,
                &mut sink,
                telem,
            );
            view_ops.push(op);
            // The core accounted any drop, wherever the packet lives;
            // the owner only mutates its queue.
            drops += u64::from(route.is_none());
            let node = shard.node_at(cycle, svc);
            self.verdicts[shard.class_owner[node & shard.cmask]]
                .lock()
                .expect("verdicts poisoned")
                .push((svc, route));
        }
        drop(view_ops);
        self.verdict_drops.store(drops, Ordering::Relaxed);
        drops
    }

    /// Round D, core side (after the first barrier): fold every shard's
    /// delta into `telem` and its class slice into the global snapshot.
    pub(crate) fn gather<T: TelemetrySink>(
        &self,
        telem: &mut T,
        class_queued: &mut [u64],
        class_occupied: &mut [u64],
    ) {
        for cell in &self.telemetry {
            let cell = cell.lock().expect("telemetry poisoned");
            if telem.enabled() {
                telem.absorb_shard(&cell.delta);
            }
            let r = cell.classes.clone();
            class_queued[r.clone()].copy_from_slice(&cell.class_queued[r.clone()]);
            class_occupied[r.clone()].copy_from_slice(&cell.class_occupied[r]);
        }
    }

    /// Append every worker's buffered trace events for this cycle.
    pub(crate) fn collect_events(&self, parity: usize, events: &mut Vec<(u64, TraceEvent)>) {
        for cell in self.events[parity].iter().skip(1) {
            events.append(&mut cell.lock().expect("events poisoned"));
        }
    }

    /// The final reduction, core side: wait for every worker's payload,
    /// fold its ledger into `ledger` and hand its profile to `prof`.
    pub(crate) fn reduce<P: ProfilerSink>(&self, ledger: &mut PacketLedger, prof: &mut P) {
        self.barrier.wait();
        for (s, cell) in self.finals.iter().enumerate().skip(1) {
            let (other, profile) = cell
                .lock()
                .expect("finals poisoned")
                .pop()
                .expect("worker published its final payload");
            if prof.enabled() {
                prof.shard_profile(s, &profile);
            }
            ledger.absorb(&other);
        }
    }
}

/// Split `num_classes` ending classes into `shards` contiguous chunks
/// (first `num_classes % shards` chunks one class larger). Each entry is
/// the half-open class range `[lo, hi)` owned by that shard. Exported so
/// the CLI health report can print the layout.
pub fn class_ranges(num_classes: usize, shards: usize) -> Vec<(usize, usize)> {
    let base = num_classes / shards;
    let rem = num_classes % shards;
    let mut start = 0;
    (0..shards)
        .map(|s| {
            let len = base + usize::from(s < rem);
            let range = (start, start + len);
            start += len;
            range
        })
        .collect()
}

/// One shard's replicated state plus the node-local state it owns. The
/// core drives shard 0 and owns everything network-global
/// ([`EngineCore`]); workers drive the rest.
pub(crate) struct Shard {
    me: usize,
    pub(crate) shards: usize,
    class_owner: Vec<usize>,
    cmask: usize,
    pub(crate) n_nodes: u64,
    /// The ending classes this shard owns.
    pub(crate) classes: Range<usize>,
    /// Maps a node to its plan unit: one unit per ending class when
    /// sharded, a single unit (accounted in node order) otherwise.
    pub(crate) unit_mask: usize,
    ttl: u64,
    /// The source-buffer capacity, when finite buffers are on.
    pub(crate) capacity: Option<usize>,
    pub(crate) bufs: Buffers,
    pub(crate) replica: FaultReplica,
    pub(crate) ledger: PacketLedger,
    /// The collective planner, sharing one tree cache across all shards
    /// (the plan itself is replicated, so cache races only ever produce
    /// identical trees).
    pub(crate) collective: Option<CollectivePlanner>,
    /// Scratch for occupancy-bitset scans (stranding and forwarding).
    scan: Vec<u32>,
    /// `(service index, slot)` of the packets forwarded this cycle;
    /// after the drain, only those staying on this shard, still slots.
    moves: Vec<(u32, u32)>,
    /// Forwarded hops this cycle (the profiler's `moved` counter).
    pub(crate) hops: u64,
    candidates: Vec<(u32, Blocked)>,
    out_moves: Vec<Vec<(u32, Packet)>>,
    arrivals: Vec<(u32, Packet)>,
    /// Backpressure scratch: arrivals granted this cycle per node, with a
    /// touched-list so resetting costs O(arrivals), not O(nodes). Only
    /// materialised when finite buffers are on.
    arriving: Vec<u32>,
    arrival_nodes: Vec<usize>,
    /// Whole-run report-only profiler counters for this shard.
    pub(crate) profile: ShardProfile,
}

impl Shard {
    /// Shard `me` of `shards`; `cache` is the collective tree cache the
    /// run's shards share (`None` builds a fresh one).
    pub(crate) fn new(
        sim: &Simulator,
        me: usize,
        shards: usize,
        cache: Option<Arc<PlanCache>>,
    ) -> Shard {
        let classes = 1usize << sim.gc.alpha();
        let ranges = class_ranges(classes, shards);
        let mut class_owner = vec![0; classes];
        for (s, &(lo, hi)) in ranges.iter().enumerate() {
            class_owner[lo..hi].fill(s);
        }
        let n_nodes = sim.gc.num_nodes();
        let capacity = sim.config.buffer_capacity;
        Shard {
            me,
            shards,
            class_owner,
            cmask: classes - 1,
            n_nodes,
            classes: ranges[me].0..ranges[me].1,
            unit_mask: if shards == 1 { 0 } else { classes - 1 },
            ttl: sim.config.effective_ttl(),
            capacity,
            bufs: Buffers::new(n_nodes, sim.gc.alpha()),
            replica: FaultReplica::new(sim),
            ledger: PacketLedger::new(sim),
            collective: sim.config.collective.map(|op| {
                let cache = cache.unwrap_or_else(|| Arc::new(PlanCache::new(&sim.gc)));
                CollectivePlanner::new(op, sim.config.collective_interval, sim.config.seed, cache)
            }),
            scan: Vec::new(),
            moves: Vec::new(),
            hops: 0,
            candidates: Vec::new(),
            out_moves: (0..shards).map(|_| Vec::new()).collect(),
            arrivals: Vec::new(),
            // At GC(20) a dense array would cost 4 MiB for a mode that
            // cannot engage.
            arriving: vec![
                0;
                if capacity.is_some() {
                    n_nodes as usize
                } else {
                    0
                }
            ],
            arrival_nodes: Vec::new(),
            profile: ShardProfile::default(),
        }
    }

    /// The node at service index `svc` under `cycle`'s rotation.
    fn node_at(&self, cycle: u64, svc: u32) -> usize {
        let n = self.n_nodes as usize;
        (svc as usize + (cycle % self.n_nodes) as usize) % n
    }

    /// Phase 0: open the cycle's ledger window and replicate the fault
    /// step. The caller strands this shard's dead queues when events
    /// applied, after the core has accounted them.
    pub(crate) fn advance(&mut self, sim: &Simulator, cycle: u64) -> Advance {
        self.ledger.begin(cycle);
        self.replica.advance(sim, cycle)
    }

    /// Drop every packet queued on a node the truth reports dead — nodes
    /// ascending, each queue front to back.
    pub(crate) fn strand<E: Narrate>(&mut self, ev: &mut E) {
        let (ledger, links) = (&mut self.ledger, &self.replica.links);
        self.bufs.strand(
            &mut self.scan,
            |v| links.node_faulty(v),
            |v, i, pkt| {
                let mut sink = ev.at(SUB_STRAND, v, i);
                ledger.drop_packet((&pkt).into(), DropCause::Stranded, NodeId(v), &mut sink);
            },
        );
    }

    /// The replicated collective launch, ahead of the cycle's unicast
    /// injection so per-node queues hold the wave first. Every shard
    /// computes the same plan (the planner is RNG-free and routes on the
    /// identical view replica; sources are filtered by the ground truth,
    /// since a dead node cannot transmit) and injects only the wave
    /// packets whose source it owns. Shard 0 alone passes the `repairs`
    /// ledger, so every launch, skip and tree transition is counted once.
    pub(crate) fn launch_collective<E: Narrate, T: TelemetrySink>(
        &mut self,
        sim: &Simulator,
        cycle: u64,
        ev: &mut E,
        telem: &mut T,
        repairs: Option<&mut RepairLedger>,
    ) {
        let Some(cp) = &self.collective else {
            return;
        };
        let Some(op_index) = cp.due(cycle, sim.config.inject_cycles) else {
            return;
        };
        let (view, links) = (&self.replica.view, &self.replica.links);
        let dead = |v: NodeId| links.node_faulty(v.0);
        let plan = cp.plan(&sim.gc, view, view.generation(), dead, op_index);
        if let Some(repairs) = repairs {
            let mut sink = ev.at(SUB_LAUNCH, 0, 0);
            self.ledger.launch(plan.as_ref(), repairs, &mut sink, telem);
        }
        let Some(plan) = plan else {
            return;
        };
        self.ledger.ops.begin(&plan, cycle);
        for pkt in plan.packets {
            let vu = pkt.src.0 as usize;
            if self.class_owner[vu & self.cmask] != self.me {
                continue;
            }
            let (dst, hops) = (pkt.route.dest(), pkt.route.hops() as u64);
            let mut sink = ev.at(SUB_LAUNCH, u64::from(pkt.rank), 0);
            self.ledger
                .inject_collective(pkt.id, pkt.src, dst, hops, &mut sink);
            let slot = self.bufs.store.alloc(pkt.id, cycle, pkt.route);
            self.bufs.push(vu, slot);
        }
    }

    /// Plan every request of `unit` against this shard's view replica.
    /// All replicas are identical while units are planned, so the routes
    /// are independent of who plans them.
    pub(crate) fn plan_unit(&self, sim: &Simulator, unit: &mut PlanUnit) {
        let view = &self.replica.view;
        for req in unit {
            let planned = sim
                .algorithm
                .plan_route(&sim.gc, view, NodeId(req.src), req.dst);
            req.plan = planned.ok();
        }
    }

    /// Account a planned unit's injections in request order and drain
    /// it. A one-shard run's single unit is in node order, the trace
    /// order; sharded, events are merged by their `(stream, node)` key.
    pub(crate) fn account_unit<E: Narrate>(&mut self, cycle: u64, unit: &mut PlanUnit, ev: &mut E) {
        for req in unit.drain(..) {
            let Some(planned) = req.plan else {
                self.ledger.route_failure();
                continue;
            };
            let (src, hops) = (NodeId(req.src), planned.route.hops() as u64);
            let mut sink = ev.at(SUB_INJECT, req.src, 0);
            self.ledger
                .inject(req.id, src, req.dst, hops, planned.tree, &mut sink);
            // A zero-hop route sank at once (src == dst cannot happen,
            // but it would never touch the arena).
            if hops > 0 {
                let slot = self.bufs.store.alloc(req.id, cycle, planned.route);
                self.bufs.push(req.src as usize, slot);
            }
        }
    }

    /// Round A, once the core has staged the units: every thread steals
    /// whole units off the shared cursor and plans them, then each owner
    /// accounts its classes' units. Unit granularity is an ending class,
    /// so concurrent units hit disjoint plan-cache keys and the cache
    /// counters stay deterministic.
    pub(crate) fn round_a<E: Narrate>(
        &mut self,
        sim: &Simulator,
        cycle: u64,
        ex: &Exchange,
        ev: &mut E,
        profiled: bool,
    ) {
        self.barrier_wait(ex, profiled); // Round A: units staged.
        loop {
            let u = ex.plan_cursor.fetch_add(1, Ordering::Relaxed);
            let Some(cell) = ex.plan_units.get(u) else {
                break;
            };
            let mut unit = cell.lock().expect("plan unit poisoned");
            if profiled {
                // Report-only: which thread wins a unit races on the
                // cursor, so per-shard claims never enter the
                // deterministic stream.
                self.profile.steal_units += 1;
                self.profile.planned_reqs += unit.len() as u64;
            }
            self.plan_unit(sim, &mut unit);
        }
        self.barrier_wait(ex, profiled); // Round A: every unit planned.
        for u in self.classes.clone() {
            let mut unit = ex.plan_units[u].lock().expect("plan unit poisoned");
            self.account_unit(cycle, &mut unit, ev);
        }
    }

    /// The forwarding scan over this shard's own nodes, in the global
    /// rotated service order. Each node may forward its queue head, so a
    /// directed link carries at most one packet per cycle. Forwarded
    /// packets land in `moves` for [`Shard::drain_moves`].
    pub(crate) fn scan<E: Narrate, T: TelemetrySink>(
        &mut self,
        sim: &Simulator,
        cycle: u64,
        ev: &mut E,
        telem: &mut T,
    ) {
        let n = self.n_nodes as usize;
        let offset = (cycle % self.n_nodes) as usize;
        // Word-scan the occupancy bitset in rotated service order: the
        // cost is O(words + occupied nodes), not O(nodes).
        let mut buf = mem::take(&mut self.scan);
        self.bufs.queues.collect_occupied_rotated(offset, &mut buf);
        // Locals stay in registers across the calls below.
        let mut moves = mem::take(&mut self.moves);
        let (ttl, capacity, one_shard) = (self.ttl, self.capacity, self.shards == 1);
        let dynamic = self.replica.dynamic;
        for &vq in &buf {
            let v = vq as usize;
            let Some(head) = self.bufs.queues.front(v) else {
                continue;
            };
            // Global service index of node v under this cycle's rotation.
            let svc = (if v >= offset {
                v - offset
            } else {
                v + n - offset
            }) as u64;
            let store = &self.bufs.store;
            let from = store.current(head);
            let Some(to) = store.next_hop(head) else {
                // A recovery replan can find the packet already at its
                // destination (the original route passed through it on
                // the way elsewhere): sink it instead of forwarding.
                let pkt = self.bufs.pop_packet(v);
                let latency = cycle - pkt.injected_at;
                let mut sink = ev.at(SUB_SCAN, svc, 0);
                self.ledger
                    .deliver((&pkt).into(), latency, pkt.current(), &mut sink);
                continue;
            };
            let dim = (from.0 ^ to.0).trailing_zeros();
            if dynamic && !self.replica.links.link_usable(from, to, dim) {
                // The planned hop is dead: the holder observes the
                // failure and the packet spends the cycle here. Sharded,
                // the core rules in Round C so view mutations keep their
                // one-shard order.
                let blocked = Blocked {
                    exit: store.exit(head),
                    from,
                    to,
                    dest: store.route(head).dest(),
                };
                if !one_shard {
                    self.candidates.push((svc as u32, blocked));
                    continue;
                }
                let mut sink = ev.at(SUB_SCAN, svc, 0);
                let ledger = &mut self.ledger;
                let (_, route) =
                    recover(sim, &mut self.replica, &blocked, ledger, &mut sink, telem);
                self.bufs.resolve(v, route);
                continue;
            }
            // The TTL applies to static runs too: a packet out of hop
            // budget dies here whether or not faults are in play.
            if u64::from(store.hops_taken[head as usize]) >= ttl {
                let pkt = self.bufs.pop_packet(v);
                let mut sink = ev.at(SUB_SCAN, svc, 0);
                self.ledger
                    .drop_packet((&pkt).into(), DropCause::TtlExpired, from, &mut sink);
                continue;
            }
            if let Some(cap) = capacity {
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
            moves.push((svc as u32, slot));
        }
        self.scan = buf;
        self.moves = moves;
        for &t in &self.arrival_nodes {
            self.arriving[t] = 0;
        }
        self.arrival_nodes.clear();
    }

    /// After the scan: narrate every forwarded packet's hop and sink the
    /// ones that arrived. A move into a node this shard owns stays an
    /// arena slot in `moves`; only a cross-shard move is materialised as
    /// a [`Packet`] for its owner's mailbox.
    pub(crate) fn drain_moves<E: Narrate>(&mut self, cycle: u64, ev: &mut E) {
        // A local list and flag stay in registers across the calls below.
        let mut moves = mem::take(&mut self.moves);
        let one_shard = self.shards == 1;
        self.hops = moves.len() as u64;
        let mut kept = 0;
        for i in 0..moves.len() {
            let (svc, slot) = moves[i];
            let store = &self.bufs.store;
            let cur = store.current(slot);
            let (id, injected_at) = (store.id[slot as usize], store.injected_at[slot as usize]);
            let mut sink = ev.at(SUB_MOVE, u64::from(svc), 0);
            self.ledger
                .hop(id, injected_at, cur, || store.previous(slot), &mut sink);
            if store.arrived(slot) {
                // One cycle of latency for the hop itself.
                let latency = cycle + 1 - injected_at;
                self.ledger
                    .deliver(store.exit(slot), latency, cur, &mut sink);
                self.bufs.store.discard(slot);
                continue;
            }
            let v = cur.0 as usize;
            if one_shard {
                // Nothing arrives from elsewhere: queue it in drain order.
                self.bufs.push(v, slot);
                continue;
            }
            let owner = self.class_owner[v & self.cmask];
            if owner == self.me {
                moves[kept] = (svc, slot);
                kept += 1;
            } else {
                // Materialising moves the route (a pointer), not a clone.
                let pkt = self.bufs.store.remove(slot);
                self.out_moves[owner].push((svc, pkt));
            }
        }
        moves.truncate(kept);
        self.moves = moves;
    }

    /// Queue this cycle's arrivals at their nodes' FIFO tails: the kept
    /// slots (already in service order) merged with the packets other
    /// shards sent, by `(service index, packet id)` — the order a
    /// one-shard drain pushes them. Service indices are unique by
    /// construction; the id tiebreak keeps an unstable sort
    /// deterministic anyway.
    pub(crate) fn push_arrivals(&mut self) {
        self.arrivals
            .sort_unstable_by_key(|&(svc, ref pkt)| (svc, pkt.id));
        let bufs = &mut self.bufs;
        let mut remote = self.arrivals.drain(..).peekable();
        let push_remote = |bufs: &mut Buffers, pkt: Packet| {
            let cur = pkt.current().0 as usize;
            let slot = bufs.store.insert(pkt);
            bufs.push(cur, slot);
        };
        for &(svc, slot) in &self.moves {
            let key = (svc, bufs.store.id[slot as usize]);
            while let Some((_, pkt)) = remote.next_if(|(s, p)| (*s, p.id) < key) {
                push_remote(bufs, pkt);
            }
            let cur = bufs.store.current(slot).0 as usize;
            bufs.push(cur, slot);
        }
        for (_, pkt) in remote {
            push_remote(bufs, pkt);
        }
        self.moves.clear();
    }

    /// A barrier wait, timed when the profiler is attached: the
    /// accumulated wait is the shard's coordination overhead
    /// (report-only — wall clock).
    #[inline]
    pub(crate) fn barrier_wait(&mut self, ex: &Exchange, profiled: bool) {
        if profiled {
            let t = Instant::now();
            ex.barrier.wait();
            self.profile.barrier_nanos += t.elapsed().as_nanos() as u64;
        } else {
            ex.barrier.wait();
        }
    }

    /// Round B: publish this shard's cross-shard moves, its recovery
    /// candidates and its in-flight contribution — packets in its queues
    /// (candidates included) plus the moves it is still carrying — wait
    /// for every shard, then merge the moves sent here. Returns the
    /// network-wide contribution and (when profiled) forwarded hops.
    pub(crate) fn exchange_moves(
        &mut self,
        ex: &Exchange,
        parity: usize,
        profiled: bool,
    ) -> (u64, u64) {
        let sent: u64 = self.out_moves.iter().map(|m| m.len() as u64).sum();
        let kept = self.moves.len() as u64;
        if profiled {
            self.profile.moves_self += kept;
            self.profile.moves_out += sent;
            ex.hops[parity][self.me].store(self.hops, Ordering::Relaxed);
        }
        ex.publish_moves(parity, self.me, &mut self.out_moves);
        if !self.candidates.is_empty() {
            ex.candidates[self.me]
                .lock()
                .expect("candidates poisoned")
                .append(&mut self.candidates);
        }
        let contrib = self.bufs.queued + kept + sent;
        ex.contrib[parity][self.me].store(contrib, Ordering::Relaxed);
        self.barrier_wait(ex, profiled); // Round B: all mailboxes published.
        let sum = |cells: &[AtomicU64]| cells.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        let totals = (sum(&ex.contrib[parity]), sum(&ex.hops[parity]));
        ex.drain_moves(parity, self.me, &mut self.arrivals);
        self.push_arrivals();
        totals
    }

    /// Round C, after the verdict barrier: apply the verdicts for this
    /// shard's candidates. Drops were fully accounted by the core; only
    /// the queue state changes here.
    pub(crate) fn apply_verdicts(&mut self, cycle: u64, ex: &Exchange) {
        let mut cell = ex.verdicts[self.me].lock().expect("verdicts poisoned");
        for (svc, route) in cell.drain(..) {
            let v = self.node_at(cycle, svc);
            self.bufs.resolve(v, route);
        }
    }

    /// Whether Round C runs this cycle: only a dynamic run with live
    /// faults can block a packet. Every replica agrees.
    pub(crate) fn recovers(&self) -> bool {
        self.replica.dynamic && !self.replica.truth.is_empty()
    }

    /// Round D: copy the ledger's telemetry delta and the owned
    /// class-range snapshot into this shard's pre-sized exchange cell
    /// (post-verdict, post-arrival — end-of-cycle state).
    pub(crate) fn publish_telemetry(&mut self, ex: &Exchange) {
        let r = self.classes.clone();
        let mut cell = ex.telemetry[self.me].lock().expect("telemetry poisoned");
        cell.delta.copy_from(&self.ledger.delta);
        cell.class_queued[r.clone()].copy_from_slice(&self.bufs.class_queued[r.clone()]);
        cell.class_occupied[r.clone()].copy_from_slice(&self.bufs.class_occupied[r]);
        self.ledger.delta.reset();
    }
}

/// Run the simulation over `shards > 1` lockstepped shards: the calling
/// thread steps the core (shard 0) to completion while scoped threads
/// run the other shards' half of the protocol.
pub(crate) fn run_sharded<S: TraceSink, T: TelemetrySink, P: ProfilerSink>(
    sim: &Simulator<'_>,
    shards: usize,
    sink: &mut S,
    telem: &mut T,
    prof: &mut P,
) -> ChurnReport {
    debug_assert!(shards > 1);
    let ex = Exchange::new(shards, 1 << sim.gc.alpha(), sim.gc.n() as usize);
    let mut core = EngineCore::new(sim, shards, sink, telem);
    let cache = core.shard.collective.as_ref().map(|cp| cp.cache().clone());
    let flags = (sink.enabled(), telem.enabled(), prof.enabled());
    std::thread::scope(|scope| {
        for me in 1..shards {
            let shard = Shard::new(sim, me, shards, cache.clone());
            let ex = &ex;
            scope.spawn(move || run_worker(sim, shard, ex, flags));
        }
        let started = Instant::now();
        while !core.step(sim, Some(&ex), sink, telem, prof) {}
        if prof.enabled() {
            core.shard.profile.run_nanos = started.elapsed().as_nanos() as u64;
        }
        core.finish(sim, Some(&ex), telem, prof)
    })
}

/// A worker shard's whole run: lockstep with the core, no access to the
/// sinks, pure node-local work plus the round protocol.
fn run_worker(
    sim: &Simulator<'_>,
    mut shard: Shard,
    ex: &Exchange,
    (tracing_on, telemetry_on, profiling_on): (bool, bool, bool),
) {
    let me = shard.me;
    let inject_cycles = sim.config.inject_cycles;
    let total_cycles = inject_cycles + sim.config.drain_cycles;
    let run_started = profiling_on.then(Instant::now);
    let mut events = Vec::new();
    for cycle in 0..total_cycles {
        let parity = (cycle & 1) as usize;
        if profiling_on {
            shard.profile.cycles = cycle + 1;
        }
        let ev = &mut Keyed {
            buf: &mut events,
            on: tracing_on,
            key: 0,
        };
        if shard.advance(sim, cycle).applied > 0 {
            shard.strand(ev);
        }
        // The repair ledger and op counters are the core's; a worker
        // only injects its own share of the wave.
        shard.launch_collective(sim, cycle, ev, &mut NullTelemetry, None);
        if cycle < inject_cycles {
            shard.round_a(sim, cycle, ex, ev, profiling_on);
        }
        shard.scan(sim, cycle, ev, &mut NullTelemetry);
        shard.drain_moves(cycle, ev);
        if tracing_on && !events.is_empty() {
            shard.profile.events_out += events.len() as u64;
            ex.events[parity][me]
                .lock()
                .expect("events poisoned")
                .append(&mut events);
        }
        let (contrib, _) = shard.exchange_moves(ex, parity, profiling_on);
        let mut verdict_drops = 0u64;
        if shard.recovers() {
            shard.barrier_wait(ex, profiling_on); // Round C: verdicts published.
            verdict_drops = ex.verdict_drops.load(Ordering::Relaxed);
            for &op in ex.view_ops.lock().expect("view ops poisoned").iter() {
                shard.replica.apply(op);
            }
            shard.apply_verdicts(cycle, ex);
        }
        if telemetry_on || profiling_on {
            shard.publish_telemetry(ex);
            shard.barrier_wait(ex, profiling_on); // Round D: all cells published.
            shard.barrier_wait(ex, profiling_on); // Round D: core folded and sampled.
        }
        if cycle >= inject_cycles && contrib - verdict_drops == 0 {
            break;
        }
    }
    if let Some(t) = run_started {
        shard.profile.run_nanos = t.elapsed().as_nanos() as u64;
    }
    ex.finals[me]
        .lock()
        .expect("finals poisoned")
        .push((shard.ledger, shard.profile));
    ex.barrier.wait(); // Final reduction: all shards published.
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{KnowledgeModel, SimConfig};
    use crate::injection::{CategoryMix, FaultKind, FaultSchedule};
    use crate::strategy::{CachedFtgcr, FaultFreeGcr, FaultTolerantGcr};
    use crate::telemetry::TelemetryCollector;
    use crate::trace::MemorySink;

    #[test]
    fn class_ranges_cover_contiguously() {
        for (nc, t) in [(4usize, 2usize), (4, 3), (16, 7), (8, 8), (2, 2)] {
            let ranges = class_ranges(nc, t);
            assert_eq!(ranges.len(), t);
            assert_eq!(ranges[0].0, 0);
            assert_eq!(ranges[t - 1].1, nc);
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0, "chunks must be contiguous");
                assert!(w[0].1 > w[0].0, "every shard owns at least one class");
            }
        }
    }

    #[test]
    fn spin_barrier_synchronises_rounds() {
        use std::sync::atomic::AtomicU64;
        let barrier = SpinBarrier::new(4);
        let counter = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for round in 0..100u64 {
                        counter.fetch_add(1, Ordering::Relaxed);
                        barrier.wait();
                        // Between barriers every thread sees all 4
                        // increments of the finished round.
                        assert!(counter.load(Ordering::Relaxed) >= (round + 1) * 4);
                        barrier.wait();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 400);
    }

    /// The arrival merge orders by the full `(service index, packet id)`
    /// key: artificial collisions on the service index — impossible in a
    /// real run, but exactly what an unstable sort would scramble — must
    /// come out in packet-id order.
    #[test]
    fn arrival_merge_breaks_service_ties_by_packet_id() {
        use gcube_routing::Route;
        let cfg = SimConfig::new(6, 2).with_cycles(10, 10, 0).with_rate(0.0);
        let sim = Simulator::new(cfg, &FaultFreeGcr);
        let mut shard = Shard::new(&sim, 0, 1, None);
        let dest = 4u64; // even node, class 0
        let mk = |id: u64| {
            let mut p = Packet::new(id, 0, Route::new(vec![NodeId(6), NodeId(dest)]));
            p.hop_idx = 1; // sitting at the destination of its hop
            p
        };
        // Same service index from "different shards", ids out of order,
        // plus a later service index that must stay last.
        shard.arrivals.push((7, mk(30)));
        shard.arrivals.push((7, mk(10)));
        shard.arrivals.push((7, mk(20)));
        shard.arrivals.push((9, mk(5)));
        shard.push_arrivals();
        let mut ids = Vec::new();
        while let Some(head) = shard.bufs.queues.front(dest as usize) {
            ids.push(shard.bufs.store.id[head as usize]);
            shard.bufs.pop_packet(dest as usize);
        }
        assert_eq!(ids, vec![10, 20, 30, 5], "ties break by packet id");
    }

    fn churn_config() -> SimConfig {
        SimConfig::new(6, 2)
            .with_cycles(300, 3_000, 40)
            .with_rate(0.08)
            .with_knowledge(KnowledgeModel::PaperDelay)
            .with_reroute_budget(2)
            .with_schedule(FaultSchedule::Bernoulli {
                rate: 0.02,
                kind: FaultKind::Transient { repair_after: 60 },
                mix: CategoryMix::default(),
                node_fraction: 0.7,
            })
    }

    #[test]
    fn sharded_matches_sequential_static() {
        let sim = Simulator::new(
            SimConfig::new(6, 2)
                .with_cycles(200, 2_000, 20)
                .with_rate(0.05),
            &FaultFreeGcr,
        );
        let seq = sim.session().run();
        for threads in [2, 4] {
            let par = sim.session().threads(threads).run();
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn sharded_matches_sequential_under_churn_with_observers() {
        let sim = Simulator::new(churn_config(), &FaultTolerantGcr);
        let mut seq_sink = MemorySink::new();
        let mut seq_tel = TelemetryCollector::new(sim.cube(), sim.config().telemetry_interval);
        let seq = sim
            .session()
            .trace(&mut seq_sink)
            .telemetry(&mut seq_tel)
            .run();
        assert!(seq.metrics.fault_events > 0, "churn must fire");
        for threads in [2, 3, 4] {
            let mut par_sink = MemorySink::new();
            let mut par_tel = TelemetryCollector::new(sim.cube(), sim.config().telemetry_interval);
            let par = sim
                .session()
                .threads(threads)
                .trace(&mut par_sink)
                .telemetry(&mut par_tel)
                .run();
            assert_eq!(seq, par, "report mismatch at threads={threads}");
            assert_eq!(
                seq_sink.events(),
                par_sink.events(),
                "trace mismatch at threads={threads}"
            );
            assert_eq!(
                seq_tel.to_csv(),
                par_tel.to_csv(),
                "telemetry mismatch at threads={threads}"
            );
        }
    }

    #[test]
    fn sharded_matches_sequential_with_collectives() {
        use crate::config::CollectiveOp;
        for op in [
            CollectiveOp::Broadcast,
            CollectiveOp::Multicast,
            CollectiveOp::Gather,
        ] {
            let cfg = churn_config()
                .with_collective(op)
                .with_collective_interval(40);
            let sim = Simulator::new(cfg, &FaultTolerantGcr);
            let mut seq_sink = MemorySink::new();
            let mut seq_tel = TelemetryCollector::new(sim.cube(), sim.config().telemetry_interval);
            let seq = sim
                .session()
                .trace(&mut seq_sink)
                .telemetry(&mut seq_tel)
                .run();
            assert!(seq.metrics.collective_ops > 0, "{op:?}: ops must launch");
            assert!(
                seq.metrics.collective_injected > 0,
                "{op:?}: wave must inject"
            );
            assert_eq!(
                seq.collectives.len() as u64,
                seq.metrics.collective_ops,
                "{op:?}: one record per op"
            );
            for threads in [2, 4] {
                let mut par_sink = MemorySink::new();
                let mut par_tel =
                    TelemetryCollector::new(sim.cube(), sim.config().telemetry_interval);
                let par = sim
                    .session()
                    .threads(threads)
                    .trace(&mut par_sink)
                    .telemetry(&mut par_tel)
                    .run();
                assert_eq!(seq, par, "{op:?}: report mismatch at threads={threads}");
                assert_eq!(
                    seq_sink.events(),
                    par_sink.events(),
                    "{op:?}: trace mismatch at threads={threads}"
                );
                assert_eq!(
                    seq_tel.to_csv(),
                    par_tel.to_csv(),
                    "{op:?}: telemetry mismatch at threads={threads}"
                );
            }
        }
    }

    #[test]
    fn sharded_matches_sequential_with_plan_cache() {
        let cached_a = CachedFtgcr::new();
        let sim = Simulator::new(churn_config().with_faults(2), &cached_a);
        let seq = sim.session().run();
        let cached_b = CachedFtgcr::new();
        let sim2 = Simulator::new(churn_config().with_faults(2), &cached_b);
        let par = sim2.session().threads(4).run();
        assert_eq!(seq, par, "cached strategy must shard deterministically");
    }
}
