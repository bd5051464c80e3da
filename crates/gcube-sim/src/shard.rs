//! The deterministic multi-threaded shard engine.
//!
//! Theorem 2 makes ending classes the natural shard key: a hop over a
//! dimension `>= α` stays inside the sender's ending class, so
//! partitioning the nodes by ending class puts every intra-class hop
//! shard-local and confines cross-shard traffic to the low `α`
//! dimensions. Each of the `T = min(threads, 2^α)` shards owns a
//! contiguous chunk of classes and runs the same cycle loop as the
//! sequential engine over its own nodes — on the same structure-of-arrays
//! packet state ([`crate::soa`]), accounting through the same
//! [`PacketLedger`] and stepping the same [`FaultReplica`] the sequential
//! engine uses. Only the cycle driver is this module's own.
//!
//! # Lockstep protocol
//!
//! Shard 0 is the *coordinator* and runs on the calling thread (it alone
//! touches the caller's trace and telemetry sinks, so the worker threads
//! need no `Send` bounds on the sinks); shards `1..T` are workers on
//! `std::thread::scope` threads. All cross-shard traffic flows through a
//! shared [`Exchange`]: preallocated mailbox cells synchronised by a
//! spinning [`SpinBarrier`] — no channels, no per-cycle allocation, no
//! cloned fault views. Every cycle proceeds in barriered rounds:
//!
//! 1. **Phase 0 (replicated, no communication).** Every shard owns an
//!    identical [`FaultReplica`] (seeded deterministically), so fault
//!    events, stranding of its own nodes, and view reconvergence are
//!    computed locally and identically everywhere.
//! 2. **Round A — injection (work-stealing).** The coordinator runs the
//!    single traffic RNG over all nodes in node order (preserving the
//!    sequential draw sequence exactly) and groups the requests by
//!    *ending class* into shared plan units. After a barrier, **every**
//!    thread steals whole units off an atomic cursor and plans them
//!    against its own (identical) view replica — so a skewed class
//!    doesn't serialise on its owner. After a second barrier, owners
//!    account their classes' outcomes. Stealing is deterministic: the
//!    plan-cache key includes the source ending class, so concurrent
//!    units touch disjoint key sets and the hit/miss counters match the
//!    sequential run for any thread count.
//! 3. **Forward scan (parallel).** Each shard walks its occupancy bitset
//!    in the global rotated service order. Head classification reads
//!    only the packet and the truth — never the view — so it is
//!    order-independent. Blocked heads become *recovery candidates*
//!    (snapshot shipped to the coordinator, queue untouched); everything
//!    else is delivered, dropped, or moved exactly as in the sequential
//!    scan.
//! 4. **Round B — move exchange.** Each sender swaps its per-receiver
//!    move buffer into the exchange's double-buffered mailbox grid
//!    (indexed by cycle parity, so a fast shard's next-cycle publish
//!    never races a slow shard's current-cycle drain); after the barrier
//!    each receiver drains its column and merges arrivals by
//!    `(service index, packet id)` — the exact sequential drain order.
//! 5. **Round C — recovery resolution.** The coordinator resolves all
//!    candidates in service order with [`recover`], the sequential
//!    engine's recovery rule — exactly the sequential interleaving of
//!    local discovery and replanning — and publishes the verdicts plus
//!    the ordered view mutations in shared cells; every shard applies
//!    them so the view replicas stay identical.
//! 6. **Round D — observers.** Only when a telemetry sink *or a
//!    profiler* is attached (both sides derive the gate from the same
//!    flags, so the barrier counts always agree): workers copy their
//!    ledger's per-cycle telemetry delta and ending-class snapshots into
//!    pre-sized exchange cells; the coordinator folds them in and
//!    samples between two barriers (so the plan caches are quiescent
//!    and the cells are never overwritten mid-read).
//!
//! # Determinism
//!
//! The output is bitwise identical to [`Simulator::run_sequential`] for
//! every thread count: shard ledgers are commutative sums merged at the
//! end; each shard hands its ledger a keyed trace sink whose
//! `(stream, index, seq)` sort key reproduces the exact sequential
//! emission order; packet ids are a pure
//! function of the traffic stream (assigned per injection attempt by the
//! coordinator); and the arrival merge sorts by the explicit
//! `(service index, packet id)` key, restoring the sequential FIFO push
//! order even if two shards ever produced the same service index.
//! Wall-clock phase timings are coordinator-only and never enter the
//! deterministic exports.

use std::mem;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use gcube_routing::plan_cache::PlanCache;
use gcube_routing::Route;
use gcube_topology::{NodeId, Topology};

use crate::collective::{CollectivePlanner, LaunchPlan, RepairLedger};
use crate::engine::Simulator;
use crate::ledger::PacketLedger;
use crate::metrics::ChurnReport;
use crate::packet::Packet;
use crate::profiler::{ProfSample, ProfilerSink, ShardProfile};
use crate::replica::{recover, Advance, Blocked, FaultReplica, ViewOp};
use crate::soa::Buffers;
use crate::strategy::PlannedRoute;
use crate::telemetry::{CycleView, FaultBudgetMonitor, Phase, ShardTelemetry, TelemetrySink};
use crate::trace::{DropCause, TraceEvent, TraceSink};
use crate::traffic::TrafficGen;

/// Trace-stream tags for the per-cycle merge key, in sequential emission
/// order: network health, stranding drops, collective launch, injection,
/// forwarding-scan resolutions (including recovery), move drain.
const SUB_HEALTH: u64 = 0;
const SUB_STRAND: u64 = 1;
const SUB_LAUNCH: u64 = 2;
const SUB_INJECT: u64 = 3;
const SUB_SCAN: u64 = 4;
const SUB_MOVE: u64 = 5;

/// Sort key reproducing the sequential trace order within one cycle:
/// stream tag, then node id (streams 1–2) or service index (streams
/// 3–4), then event sequence within that slot.
#[inline]
fn ekey(sub: u64, idx: u64, seq: u64) -> u64 {
    debug_assert!(idx < 1 << 40 && seq < 1 << 20);
    (sub << 60) | (idx << 20) | seq
}

/// A sense-reversing hybrid barrier. With enough cores for every shard,
/// waiters spin (briefly yielding between probes) — a handful of atomic
/// operations per round, microseconds cheaper than parking on a
/// `std::sync::Barrier`, which matters at thousands of rounds per
/// second. On an oversubscribed host (more shards than cores) waiters
/// park on a condvar instead: a yield loop there keeps pre-empting the
/// one thread everyone is waiting on, turning each round into a storm
/// of context switches.
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

/// One injection request: the coordinator drew the traffic stream, any
/// thread may plan it, the owning shard accounts it.
struct InjectReq {
    src: u64,
    dst: NodeId,
    id: u64,
}

/// One ending class's injection requests plus the planned routes filled
/// in by whichever thread stole the unit. `plans[i]` is `None` when
/// planning failed (accounted as a route failure by the owner).
#[derive(Default)]
struct PlanUnit {
    reqs: Vec<InjectReq>,
    plans: Vec<Option<PlannedRoute>>,
}

/// Round D cell: a worker's per-cycle counter delta and ending-class
/// snapshot, copied into pre-sized buffers (no per-window clones).
struct TelemetryCell {
    delta: ShardTelemetry,
    class_queued: Vec<u64>,
    class_occupied: Vec<u64>,
}

/// A mailbox cell of `(service index, packet)` pairs.
type PacketCell = Mutex<Vec<(u32, Packet)>>;
/// A recovery-verdict cell of `(service index, new route)` pairs; `None`
/// marks a drop the coordinator already accounted.
type VerdictCell = Mutex<Vec<(u32, Option<Route>)>>;
/// A buffered-trace cell of `(sort key, event)` pairs.
type EventCell = Mutex<Vec<(u64, TraceEvent)>>;
/// A shard's end-of-run payload for the final reduction.
type FinalCell = Mutex<Option<(Box<PacketLedger>, ShardProfile)>>;

/// The shared-memory mailbox grid replacing the old per-cycle `mpsc`
/// batches. Everything is preallocated; per-cycle traffic is mutex-swaps
/// of `Vec`s whose capacities circulate between senders and cells.
///
/// Cells written before a barrier and read after it are race-free by
/// construction. Cells that a fast shard could refill for cycle `c+1`
/// while a slow shard still drains cycle `c` (the move grid, the event
/// cells, the contribution counters — anything written *before* the
/// round barrier and read *after* it with no later barrier in the same
/// cycle) are double-buffered on cycle parity.
struct Exchange {
    barrier: SpinBarrier,
    shards: usize,
    /// `moves[parity][sender * shards + receiver]`: packets the sender
    /// moved into the receiver's shard this cycle, tagged with the
    /// sender-side service index.
    moves: [Vec<PacketCell>; 2],
    /// Per-sender recovery candidates for the coordinator. Only written
    /// in cycles where Round C runs (its barrier gates the reuse), so no
    /// parity split is needed.
    candidates: Vec<PacketCell>,
    /// Per-sender buffered trace events for the coordinator's merge.
    events: [Vec<EventCell>; 2],
    /// Per-sender in-flight contributions for the cooperative exit test.
    contrib: [Vec<AtomicU64>; 2],
    /// Round A work-stealing: one unit per ending class, claimed whole
    /// off the cursor.
    plan_units: Vec<Mutex<PlanUnit>>,
    plan_cursor: AtomicUsize,
    /// Round C broadcast: per-shard verdicts plus the shared ordered
    /// view-op list (read in place — the old engine cloned it per
    /// worker per cycle).
    verdicts: Vec<VerdictCell>,
    view_ops: Mutex<Vec<ViewOp>>,
    verdict_drops: AtomicU64,
    telemetry: Vec<Mutex<TelemetryCell>>,
    /// Per-sender forwarded-hop counts for the profiler's deterministic
    /// `moved` counter, published alongside `contrib` (so the same
    /// Round B barrier orders them) and parity-buffered for the same
    /// reason. Written only when a profiler is attached.
    hops: [Vec<AtomicU64>; 2],
    finals: Vec<FinalCell>,
}

impl Exchange {
    fn new(shards: usize, classes: usize, n_dims: usize) -> Exchange {
        fn cells<T>(count: usize) -> Vec<Mutex<Vec<T>>> {
            (0..count).map(|_| Mutex::new(Vec::new())).collect()
        }
        Exchange {
            barrier: SpinBarrier::new(shards),
            shards,
            moves: [cells(shards * shards), cells(shards * shards)],
            candidates: cells(shards),
            events: [cells(shards), cells(shards)],
            contrib: [
                (0..shards).map(|_| AtomicU64::new(0)).collect(),
                (0..shards).map(|_| AtomicU64::new(0)).collect(),
            ],
            plan_units: (0..classes)
                .map(|_| Mutex::new(PlanUnit::default()))
                .collect(),
            plan_cursor: AtomicUsize::new(0),
            verdicts: cells(shards),
            view_ops: Mutex::new(Vec::new()),
            verdict_drops: AtomicU64::new(0),
            hops: [
                (0..shards).map(|_| AtomicU64::new(0)).collect(),
                (0..shards).map(|_| AtomicU64::new(0)).collect(),
            ],
            telemetry: (0..shards)
                .map(|_| {
                    Mutex::new(TelemetryCell {
                        delta: ShardTelemetry::new(n_dims),
                        class_queued: vec![0; classes],
                        class_occupied: vec![0; classes],
                    })
                })
                .collect(),
            finals: (0..shards).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Swap this sender's non-empty per-receiver buffers into the
    /// mailbox grid, taking the cells' drained (empty, capacity-bearing)
    /// vectors back — the steady state allocates nothing.
    fn publish_moves(&self, parity: usize, me: usize, out: &mut [Vec<(u32, Packet)>]) {
        for (r, buf) in out.iter_mut().enumerate() {
            if r == me || buf.is_empty() {
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
        for s in 0..self.shards {
            if s == me {
                continue;
            }
            let mut cell = self.moves[parity][s * self.shards + me]
                .lock()
                .expect("mailbox poisoned");
            arrivals.append(&mut cell);
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

/// A trace sink buffering events under the sort key that reproduces the
/// sequential emission order. Consecutive events in one slot take
/// consecutive keys, so they keep their emission order in the merge.
struct Keyed<'b> {
    buf: &'b mut Vec<(u64, TraceEvent)>,
    on: bool,
    key: u64,
}

impl<'b> Keyed<'b> {
    fn new(buf: &'b mut Vec<(u64, TraceEvent)>, on: bool, key: u64) -> Keyed<'b> {
        Keyed { buf, on, key }
    }
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

/// One shard's replicated state plus the node-local state it owns. Both
/// the coordinator and the workers drive one of these; everything
/// network-global (traffic RNG, health monitor, sinks, recovery
/// resolution) lives in [`run_coordinator`] itself.
struct Shard<'s, 'a> {
    sim: &'s Simulator<'a>,
    me: usize,
    class_owner: &'s [usize],
    cmask: usize,
    n_nodes: u64,
    bufs: Buffers,
    replica: FaultReplica,
    ledger: PacketLedger,
    /// Scratch for occupancy-bitset scans (stranding and forwarding).
    scan_buf: Vec<u32>,
    class_range: (usize, usize),
    ttl: u64,
    events: Vec<(u64, TraceEvent)>,
    candidates: Vec<(u32, Packet)>,
    out_moves: Vec<Vec<(u32, Packet)>>,
    arrivals: Vec<(u32, Packet)>,
    tracing_on: bool,
    profiling_on: bool,
    /// Whole-run report-only profiler counters for this shard.
    profile: ShardProfile,
    /// Forwarded hops this cycle, published pre-Round-B so the
    /// coordinator can fold the deterministic global total.
    cycle_hops: u64,
    /// The collective planner, sharing one tree cache across all shards
    /// (the plan itself is replicated, so cache races only ever produce
    /// identical trees).
    collective: Option<CollectivePlanner>,
}

impl<'s, 'a> Shard<'s, 'a> {
    fn new(
        sim: &'s Simulator<'a>,
        me: usize,
        shards: usize,
        class_owner: &'s [usize],
        tracing_on: bool,
        profiling_on: bool,
        collective_cache: Option<Arc<PlanCache>>,
    ) -> Shard<'s, 'a> {
        let cmask = (1usize << sim.gc.alpha()) - 1;
        Shard {
            sim,
            me,
            class_owner,
            cmask,
            n_nodes: sim.gc.num_nodes(),
            bufs: Buffers::new(sim.gc.num_nodes(), sim.gc.alpha()),
            replica: FaultReplica::new(sim),
            ledger: PacketLedger::new(sim),
            scan_buf: Vec::new(),
            class_range: class_ranges(cmask + 1, shards)[me],
            ttl: sim.config.effective_ttl(),
            events: Vec::new(),
            candidates: Vec::new(),
            out_moves: (0..shards).map(|_| Vec::new()).collect(),
            arrivals: Vec::new(),
            tracing_on,
            profiling_on,
            profile: ShardProfile::default(),
            cycle_hops: 0,
            collective: collective_cache.map(|cache| {
                CollectivePlanner::new(
                    sim.config
                        .collective
                        .expect("cache is only built for collective runs"),
                    sim.config.collective_interval,
                    sim.config.seed,
                    cache,
                )
            }),
        }
    }

    /// The replicated collective launch: every shard computes the same
    /// plan (the planner is RNG-free and routes on the identical view
    /// replica) and injects only the wave packets whose source it owns —
    /// before Round A, so per-node queues hold the collective wave ahead
    /// of the cycle's unicast injection, exactly like the sequential
    /// engine. Returns `None` when no op is due, `Some(None)` for a
    /// skipped op (dead root class or nothing to send), and the drained
    /// plan otherwise so the coordinator can run the repair ledger.
    fn launch_collective(&mut self, cycle: u64, inject_cycles: u64) -> Option<Option<LaunchPlan>> {
        let plan = {
            let cp = self.collective.as_ref()?;
            let op_index = cp.due(cycle, inject_cycles)?;
            let (view, links) = (&self.replica.view, &self.replica.links);
            let dead = |v: NodeId| links.node_faulty(v.0);
            cp.plan(&self.sim.gc, view, view.generation(), dead, op_index)
        };
        let Some(mut plan) = plan else {
            return Some(None);
        };
        self.ledger.ops.begin(&plan, cycle);
        for pkt in plan.packets.drain(..) {
            let vu = pkt.src.0 as usize;
            if self.class_owner[vu & self.cmask] != self.me {
                continue;
            }
            let (dst, hops) = (pkt.route.dest(), pkt.route.hops() as u64);
            let mut sink = Keyed::new(
                &mut self.events,
                self.tracing_on,
                ekey(SUB_LAUNCH, u64::from(pkt.rank), 0),
            );
            self.ledger
                .inject_collective(pkt.id, pkt.src, dst, hops, &mut sink);
            let slot = self.bufs.store.alloc(pkt.id, cycle, pkt.route);
            self.bufs.push(vu, slot);
        }
        Some(Some(plan))
    }

    /// Phase 0: open the cycle's ledger window, then replicate the fault
    /// step and strand this shard's own dead queues. Every shard computes
    /// the identical outcome; only the coordinator accounts it.
    fn begin_cycle(&mut self, cycle: u64) -> Advance {
        self.ledger.begin(cycle);
        let adv = self.replica.advance(self.sim, cycle);
        if adv.applied > 0 {
            // The occupancy bitset holds exactly this shard's non-empty
            // nodes, in ascending order — the sequential stranding order.
            let (ledger, links) = (&mut self.ledger, &self.replica.links);
            let (events, on) = (&mut self.events, self.tracing_on);
            self.bufs.strand(
                &mut self.scan_buf,
                |v| links.node_faulty(v),
                |v, i, pkt| {
                    let mut sink = Keyed::new(events, on, ekey(SUB_STRAND, v, i));
                    let exit = (&pkt).into();
                    ledger.drop_packet(exit, DropCause::Stranded, NodeId(v), &mut sink);
                },
            );
        }
        adv
    }

    /// Round A, stealing side: claim whole plan units off the shared
    /// cursor and plan their requests against this shard's view replica.
    /// All replicas are identical between the two Round A barriers, so
    /// the routes are independent of who plans them; unit granularity is
    /// an ending class, so concurrent units hit disjoint plan-cache keys
    /// and the cache counters stay deterministic.
    fn plan_stolen_units(&mut self, ex: &Exchange) {
        loop {
            let u = ex.plan_cursor.fetch_add(1, Ordering::Relaxed);
            if u >= ex.plan_units.len() {
                break;
            }
            let mut unit = ex.plan_units[u].lock().expect("plan unit poisoned");
            let unit = &mut *unit;
            if self.profiling_on {
                // Report-only: which thread wins a unit races on the
                // cursor, so per-shard claims never enter the
                // deterministic stream.
                self.profile.steal_units += 1;
                self.profile.planned_reqs += unit.reqs.len() as u64;
            }
            unit.plans.clear();
            let view = &self.replica.view;
            for req in &unit.reqs {
                let src = NodeId(req.src);
                let planned = self
                    .sim
                    .algorithm
                    .plan_route(&self.sim.gc, view, src, req.dst);
                unit.plans.push(planned.ok());
            }
        }
    }

    /// Round A, owner side: account this shard's classes' planned
    /// injections. Within a class the requests are in the coordinator's
    /// node order; across classes the order differs from the sequential
    /// interleaving, which is invisible — the counters are additive, at
    /// most one injection per node per cycle touches each queue, and
    /// trace events are merged by their `(stream, node)` key.
    fn account_own_units(&mut self, cycle: u64, ex: &Exchange) {
        let (lo, hi) = self.class_range;
        for c in lo..hi {
            let mut unit = ex.plan_units[c].lock().expect("plan unit poisoned");
            let unit = &mut *unit;
            debug_assert_eq!(unit.reqs.len(), unit.plans.len());
            for (req, plan) in unit.reqs.iter().zip(unit.plans.iter_mut()) {
                let Some(planned) = plan.take() else {
                    self.ledger.route_failure();
                    continue;
                };
                let (src, hops) = (NodeId(req.src), planned.route.hops() as u64);
                let mut sink = Keyed::new(
                    &mut self.events,
                    self.tracing_on,
                    ekey(SUB_INJECT, req.src, 0),
                );
                self.ledger
                    .inject(req.id, src, req.dst, hops, planned.tree, &mut sink);
                if hops > 0 {
                    let slot = self.bufs.store.alloc(req.id, cycle, planned.route);
                    self.bufs.push(req.src as usize, slot);
                }
            }
            unit.reqs.clear();
            unit.plans.clear();
        }
    }

    /// The forwarding scan over this shard's own nodes, in the global
    /// rotated service order (the occupancy bitset holds only owned
    /// nodes). Fills `candidates` (blocked heads, queues untouched) and
    /// `out_moves` (per destination shard).
    fn scan(&mut self, cycle: u64) {
        let n = self.n_nodes as usize;
        let offset = (cycle % self.n_nodes) as usize;
        let mut buf = mem::take(&mut self.scan_buf);
        self.bufs.queues.collect_occupied_rotated(offset, &mut buf);
        for &vq in &buf {
            let v = vq as usize;
            // Global service index of node v under this cycle's rotation.
            let svc = ((v + n - offset) % n) as u64;
            let Some(head) = self.bufs.queues.front(v) else {
                continue;
            };
            let from = self.bufs.store.current(head);
            let Some(to) = self.bufs.store.next_hop(head) else {
                // Already at its destination after a replan: sink it.
                let pkt = self.bufs.pop_packet(v);
                let latency = cycle - pkt.injected_at;
                let mut sink =
                    Keyed::new(&mut self.events, self.tracing_on, ekey(SUB_SCAN, svc, 0));
                self.ledger
                    .deliver((&pkt).into(), latency, pkt.current(), &mut sink);
                continue;
            };
            let dim = (from.0 ^ to.0).trailing_zeros();
            if self.replica.dynamic && !self.replica.links.link_usable(from, to, dim) {
                // Recovery is resolved centrally (Round C) so view
                // mutations keep their sequential order. The queue is
                // untouched; the coordinator rules on a snapshot.
                self.candidates
                    .push((svc as u32, self.bufs.store.snapshot(head)));
                continue;
            }
            if u64::from(self.bufs.store.hops_taken[head as usize]) >= self.ttl {
                let pkt = self.bufs.pop_packet(v);
                let mut sink =
                    Keyed::new(&mut self.events, self.tracing_on, ekey(SUB_SCAN, svc, 0));
                let cause = DropCause::TtlExpired;
                self.ledger
                    .drop_packet((&pkt).into(), cause, from, &mut sink);
                continue;
            }
            self.ledger.forward(dim);
            if self.profiling_on {
                self.cycle_hops += 1;
            }
            let slot = self.bufs.pop(v);
            self.bufs.store.advance(slot);
            let store = &self.bufs.store;
            let cur = store.current(slot);
            let (id, injected_at) = (store.id[slot as usize], store.injected_at[slot as usize]);
            let mut sink = Keyed::new(&mut self.events, self.tracing_on, ekey(SUB_MOVE, svc, 0));
            self.ledger
                .hop(id, injected_at, cur, || store.previous(slot), &mut sink);
            if store.arrived(slot) {
                // The sender accounts the delivery — exactly the
                // sequential drain's bookkeeping, one cycle of latency
                // for the hop itself.
                let latency = cycle + 1 - injected_at;
                self.ledger
                    .deliver(store.exit(slot), latency, cur, &mut sink);
                self.bufs.store.discard(slot);
            } else {
                let dest_shard = self.class_owner[cur.0 as usize & self.cmask];
                // Materialising moves the route (a pointer), not a clone;
                // self-destined moves round-trip through the same path so
                // the arrival merge sees one uniform stream.
                self.out_moves[dest_shard].push((svc as u32, self.bufs.store.remove(slot)));
            }
        }
        self.scan_buf = buf;
    }

    /// This shard's in-flight contribution for the cooperative exit
    /// test: packets still in its queues (candidates included) plus the
    /// non-arrived moves it is sending this cycle.
    fn contrib(&self) -> u64 {
        self.bufs.queued + self.out_moves.iter().map(|m| m.len() as u64).sum::<u64>()
    }

    /// Move this shard's self-destined moves into the arrival buffer.
    fn queue_self_moves(&mut self) {
        let mut own = mem::take(&mut self.out_moves[self.me]);
        self.arrivals.append(&mut own);
        self.out_moves[self.me] = own;
    }

    /// Merge all arrivals in the explicit `(service index, packet id)`
    /// order — the exact order the sequential drain pushes them — and
    /// append to the FIFO queues. The packet id tiebreak is defensive:
    /// service indices are unique network-wide by construction, but an
    /// unstable sort must never be handed a collision it could order
    /// differently across runs.
    fn push_arrivals(&mut self) {
        self.arrivals
            .sort_unstable_by_key(|&(svc, ref pkt)| (svc, pkt.id));
        for (_, pkt) in self.arrivals.drain(..) {
            let cur = pkt.current().0 as usize;
            let slot = self.bufs.store.insert(pkt);
            self.bufs.push(cur, slot);
        }
    }

    /// Apply the verdicts for this shard's candidates. Drops were fully
    /// accounted by the coordinator; only the queue state changes here.
    fn apply_verdicts(&mut self, cycle: u64, verdicts: Vec<(u32, Option<Route>)>) {
        let n = self.n_nodes as usize;
        let offset = (cycle % self.n_nodes) as usize;
        for (svc, route) in verdicts {
            self.bufs.resolve((svc as usize + offset) % n, route);
        }
    }

    /// A barrier wait, timed when the profiler is attached: the
    /// accumulated wait is the shard's coordination overhead
    /// (report-only — wall clock).
    #[inline]
    fn barrier_wait(&mut self, ex: &Exchange) {
        if self.profiling_on {
            let t = Instant::now();
            ex.barrier.wait();
            self.profile.barrier_nanos += t.elapsed().as_nanos() as u64;
        } else {
            ex.barrier.wait();
        }
    }

    /// Pre-publish profiler accounting, called right before
    /// [`Exchange::publish_moves`] while the outgoing buffers are still
    /// full: mailbox volumes (report-only) plus this cycle's hop count,
    /// stored pre-Round-B so the coordinator can fold the deterministic
    /// global `moved` total after the barrier.
    fn note_published(&mut self, ex: &Exchange, parity: usize) {
        if !self.profiling_on {
            return;
        }
        for (r, buf) in self.out_moves.iter().enumerate() {
            let n = buf.len() as u64;
            if r == self.me {
                self.profile.moves_self += n;
            } else {
                self.profile.moves_out += n;
            }
        }
        self.profile.events_out += self.events.len() as u64;
        ex.hops[parity][self.me].store(self.cycle_hops, Ordering::Relaxed);
        self.cycle_hops = 0;
    }

    /// Round D, worker side: copy the ledger's telemetry delta and the
    /// owned class-range snapshot into this shard's pre-sized exchange
    /// cell (post-verdict, post-arrival — end-of-cycle state).
    fn publish_telemetry(&mut self, ex: &Exchange) {
        let (lo, hi) = self.class_range;
        let mut cell = ex.telemetry[self.me].lock().expect("telemetry poisoned");
        cell.delta.copy_from(&self.ledger.delta);
        cell.class_queued[lo..hi].copy_from_slice(&self.bufs.class_queued[lo..hi]);
        cell.class_occupied[lo..hi].copy_from_slice(&self.bufs.class_occupied[lo..hi]);
        self.ledger.delta.reset();
    }
}

/// Run the simulation over `shards > 1` lockstepped shards; the output
/// is bitwise identical to [`Simulator::run_sequential`].
pub(crate) fn run_sharded<S: TraceSink, T: TelemetrySink, P: ProfilerSink>(
    sim: &Simulator<'_>,
    shards: usize,
    sink: &mut S,
    telem: &mut T,
    prof: &mut P,
) -> ChurnReport {
    debug_assert!(shards > 1);
    let cmask = (1usize << sim.gc.alpha()) - 1;
    let class_owner: Vec<usize> = {
        let mut owner = vec![0; cmask + 1];
        for (s, (lo, hi)) in class_ranges(cmask + 1, shards).into_iter().enumerate() {
            owner[lo..hi].fill(s);
        }
        owner
    };
    let tracing_on = sink.enabled();
    let telemetry_on = telem.enabled();
    let profiling_on = prof.enabled();

    let ex = Exchange::new(shards, cmask + 1, sim.gc.n() as usize);
    // One tree cache shared by every shard's collective planner: the
    // plan is replicated, so concurrent fills only ever race to insert
    // identical trees (losers adopt the winner's entry).
    let collective_cache = sim
        .config
        .collective
        .map(|_| Arc::new(PlanCache::new(&sim.gc)));

    std::thread::scope(|scope| {
        for me in 1..shards {
            let ex = &ex;
            let class_owner = &class_owner;
            let shard = Shard::new(
                sim,
                me,
                shards,
                class_owner,
                tracing_on,
                profiling_on,
                collective_cache.clone(),
            );
            scope.spawn(move || run_worker(shard, ex, telemetry_on));
        }
        let coord = Shard::new(
            sim,
            0,
            shards,
            &class_owner,
            tracing_on,
            profiling_on,
            collective_cache,
        );
        run_coordinator(coord, &ex, sink, telem, prof)
    })
}

/// A worker shard's whole run: lockstep with the coordinator, no access
/// to the sinks, pure node-local work plus the round protocol.
fn run_worker(mut shard: Shard<'_, '_>, ex: &Exchange, telemetry_on: bool) {
    let me = shard.me;
    let profiling_on = shard.profiling_on;
    let total_cycles = shard.sim.config.inject_cycles + shard.sim.config.drain_cycles;
    let inject_cycles = shard.sim.config.inject_cycles;
    let run_started = profiling_on.then(Instant::now);
    for cycle in 0..total_cycles {
        let parity = (cycle & 1) as usize;
        if profiling_on {
            shard.profile.cycles = cycle + 1;
        }
        shard.begin_cycle(cycle);
        // The repair ledger and op counters are the coordinator's; a
        // worker only injects its own share of the wave.
        let _ = shard.launch_collective(cycle, inject_cycles);
        if cycle < inject_cycles {
            shard.barrier_wait(ex); // Round A: units filled by the coordinator.
            shard.plan_stolen_units(ex);
            shard.barrier_wait(ex); // Round A: every unit planned.
            shard.account_own_units(cycle, ex);
        }
        shard.scan(cycle);
        let contrib = shard.contrib();
        shard.note_published(ex, parity);
        ex.publish_moves(parity, me, &mut shard.out_moves);
        if !shard.candidates.is_empty() {
            ex.candidates[me]
                .lock()
                .expect("candidates poisoned")
                .append(&mut shard.candidates);
        }
        if shard.tracing_on && !shard.events.is_empty() {
            ex.events[parity][me]
                .lock()
                .expect("events poisoned")
                .append(&mut shard.events);
        }
        ex.contrib[parity][me].store(contrib, Ordering::Relaxed);
        shard.barrier_wait(ex); // Round B: all mailboxes published.
        let mut total_contrib = 0u64;
        for c in &ex.contrib[parity] {
            total_contrib += c.load(Ordering::Relaxed);
        }
        shard.queue_self_moves();
        ex.drain_moves(parity, me, &mut shard.arrivals);
        shard.push_arrivals();
        let mut verdict_drops = 0u64;
        if shard.replica.dynamic && !shard.replica.truth.is_empty() {
            shard.barrier_wait(ex); // Round C: verdicts published.
            verdict_drops = ex.verdict_drops.load(Ordering::Relaxed);
            for &op in ex.view_ops.lock().expect("view ops poisoned").iter() {
                shard.replica.apply(op);
            }
            let mine = mem::take(&mut *ex.verdicts[me].lock().expect("verdicts poisoned"));
            shard.apply_verdicts(cycle, mine);
        }
        if telemetry_on || profiling_on {
            shard.publish_telemetry(ex);
            shard.barrier_wait(ex); // Round D: all cells published.
            shard.barrier_wait(ex); // Round D: coordinator folded and sampled.
        }
        if cycle >= inject_cycles && total_contrib - verdict_drops == 0 {
            break;
        }
    }
    if let Some(t) = run_started {
        shard.profile.run_nanos = t.elapsed().as_nanos() as u64;
    }
    *ex.finals[me].lock().expect("finals poisoned") = Some((Box::new(shard.ledger), shard.profile));
    ex.barrier.wait(); // Final reduction: all shards published.
}

/// The coordinator: shard 0's node-local work plus everything
/// network-global — the traffic RNG, the health monitor, recovery
/// resolution, trace-stream merging, telemetry sampling, and the final
/// ledger reduction.
fn run_coordinator<S: TraceSink, T: TelemetrySink, P: ProfilerSink>(
    mut coord: Shard<'_, '_>,
    ex: &Exchange,
    sink: &mut S,
    telem: &mut T,
    prof: &mut P,
) -> ChurnReport {
    let sim = coord.sim;
    let shards = ex.shards;
    let n_nodes = coord.n_nodes;
    let total_cycles = sim.config.inject_cycles + sim.config.drain_cycles;
    let inject_cycles = sim.config.inject_cycles;
    let tracing_on = coord.tracing_on;
    let telemetry_on = telem.enabled();
    let profiling_on = coord.profiling_on;
    coord.ledger.metrics.nodes = n_nodes;
    let mut repair_ledger = RepairLedger::new(1 << sim.gc.alpha());
    let mut traffic = TrafficGen::with_pattern(
        sim.config.seed,
        sim.config.injection_rate,
        sim.config.pattern,
    );
    let mut next_id = 0u64;
    let ranges = class_ranges(coord.cmask + 1, shards);

    let mut monitor = FaultBudgetMonitor::for_strategy(sim.algorithm.survives_bound_exceeded());
    if let Some(change) = monitor.update(&sim.gc, &coord.replica.truth) {
        let faults = coord.replica.truth.len() as u64;
        coord.ledger.health(change, faults, sink, telem);
    }
    let profiling = telemetry_on || profiling_on;

    // Global end-of-cycle class snapshots for telemetry sampling,
    // assembled from every shard's Round D cells.
    let mut global_cq: Vec<u64> = vec![0; coord.cmask + 1];
    let mut global_co: Vec<u64> = vec![0; coord.cmask + 1];
    // Per-class request staging, swapped whole into the plan units each
    // cycle (the swapped-back vectors keep their capacities).
    let mut class_fill: Vec<Vec<InjectReq>> = (0..coord.cmask + 1).map(|_| Vec::new()).collect();
    let mut cycle_events: Vec<(u64, TraceEvent)> = Vec::new();
    let mut candidates: Vec<(u32, Packet)> = Vec::new();
    let mut global_in_flight = 0u64;
    let mut ended_at = total_cycles;
    let run_started = profiling_on.then(Instant::now);

    for cycle in 0..total_cycles {
        let parity = (cycle & 1) as usize;
        let mut cycle_injected = 0u64;
        if profiling_on {
            coord.profile.cycles = cycle + 1;
        }

        // Phase 0: shard-local replica step, then the network-global
        // accounting the workers leave to the coordinator.
        let phase_started = profiling.then(Instant::now);
        let adv = coord.begin_cycle(cycle);
        let truth = &coord.replica.truth;
        let mut health = Keyed::new(&mut coord.events, tracing_on, ekey(SUB_HEALTH, 0, 0));
        coord
            .ledger
            .faults(&adv, &mut monitor, &sim.gc, truth, &mut health, telem);
        if let Some(t) = phase_started {
            let nanos = t.elapsed().as_nanos() as u64;
            telem.phase_time(Phase::Reconvergence, nanos);
            prof.phase_time(Phase::Reconvergence, nanos);
        }

        // Round A: the coordinator alone draws the traffic stream, in
        // node order, preserving the sequential RNG sequence; packet ids
        // are preassigned per attempt. Planning is then stolen by every
        // thread at ending-class granularity.
        let phase_started = profiling.then(Instant::now);
        // Collective launch: replicated planning plus the coordinator's
        // exclusive repair-ledger accounting (so every tree transition
        // is counted exactly once, whatever the thread count).
        if let Some(plan) = coord.launch_collective(cycle, inject_cycles) {
            let mut sink = Keyed::new(&mut coord.events, tracing_on, ekey(SUB_LAUNCH, 0, 0));
            coord
                .ledger
                .launch(plan.as_ref(), &mut repair_ledger, &mut sink, telem);
        }
        if cycle < inject_cycles {
            for v in 0..n_nodes {
                let src = NodeId(v);
                if coord.replica.links.node_faulty(v) || !traffic.fires() {
                    continue;
                }
                let Some(dst) = traffic.pick_dest(&sim.gc, &coord.replica.view, src) else {
                    coord.ledger.suppressed();
                    continue;
                };
                let id = next_id;
                next_id += 1;
                if profiling_on {
                    cycle_injected += 1;
                }
                class_fill[v as usize & coord.cmask].push(InjectReq { src: v, dst, id });
            }
            for (c, fill) in class_fill.iter_mut().enumerate() {
                let mut unit = ex.plan_units[c].lock().expect("plan unit poisoned");
                debug_assert!(unit.reqs.is_empty(), "owner must have drained last cycle");
                mem::swap(&mut unit.reqs, fill);
            }
            ex.plan_cursor.store(0, Ordering::Relaxed);
            coord.barrier_wait(ex); // Round A: units filled.
            coord.plan_stolen_units(ex);
            coord.barrier_wait(ex); // Round A: every unit planned.
            coord.account_own_units(cycle, ex);
        }
        if let Some(t) = phase_started {
            let nanos = t.elapsed().as_nanos() as u64;
            telem.phase_time(Phase::Planning, nanos);
            prof.phase_time(Phase::Planning, nanos);
        }

        // Forward scan + Round B.
        let phase_started = profiling.then(Instant::now);
        coord.scan(cycle);
        let contrib = coord.contrib();
        coord.note_published(ex, parity);
        ex.publish_moves(parity, 0, &mut coord.out_moves);
        ex.contrib[parity][0].store(contrib, Ordering::Relaxed);
        coord.barrier_wait(ex); // Round B: all mailboxes published.
        let mut total_contrib = 0u64;
        for c in &ex.contrib[parity] {
            total_contrib += c.load(Ordering::Relaxed);
        }
        // Every shard published its forwarded-hop count alongside its
        // mailboxes, so the post-Round-B sum equals the sequential
        // engine's `moves.len()` for this cycle.
        let mut cycle_moved = 0u64;
        if profiling_on {
            for h in &ex.hops[parity] {
                cycle_moved += h.load(Ordering::Relaxed);
            }
        }
        coord.queue_self_moves();
        ex.drain_moves(parity, 0, &mut coord.arrivals);
        coord.push_arrivals();

        // Round C: centralized recovery resolution in service order —
        // the exact sequential interleaving of view discovery, replan,
        // and drop accounting. Workers are parked at the Round C
        // barrier, so the shared verdict and view-op cells are the
        // coordinator's alone until it arrives there too.
        let mut verdict_drops = 0u64;
        if coord.replica.dynamic && !coord.replica.truth.is_empty() {
            candidates.append(&mut coord.candidates);
            for cell in ex.candidates.iter().skip(1) {
                candidates.append(&mut cell.lock().expect("candidates poisoned"));
            }
            candidates.sort_unstable_by_key(|&(svc, ref pkt)| (svc, pkt.id));
            let mut view_ops = ex.view_ops.lock().expect("view ops poisoned");
            view_ops.clear();
            let offset = (cycle % n_nodes) as usize;
            for (svc, pkt) in candidates.drain(..) {
                let node = (svc as usize + offset) % n_nodes as usize;
                let blocked = Blocked {
                    exit: (&pkt).into(),
                    from: pkt.current(),
                    to: pkt
                        .next_hop()
                        .expect("candidates were blocked on a next hop"),
                    dest: pkt.dest(),
                };
                let mut sink = Keyed::new(
                    &mut cycle_events,
                    tracing_on,
                    ekey(SUB_SCAN, u64::from(svc), 0),
                );
                let (op, route) = recover(
                    sim,
                    &mut coord.replica,
                    &blocked,
                    &mut coord.ledger,
                    &mut sink,
                    telem,
                );
                view_ops.push(op);
                // The coordinator accounted any drop, wherever the packet
                // lives; the owner only mutates its queue.
                verdict_drops += u64::from(route.is_none());
                ex.verdicts[coord.class_owner[node & coord.cmask]]
                    .lock()
                    .expect("verdicts poisoned")
                    .push((svc, route));
            }
            drop(view_ops);
            ex.verdict_drops.store(verdict_drops, Ordering::Relaxed);
            coord.barrier_wait(ex); // Round C: verdicts published.
            let own = mem::take(&mut *ex.verdicts[0].lock().expect("verdicts poisoned"));
            coord.apply_verdicts(cycle, own);
        }
        global_in_flight = total_contrib - verdict_drops;

        // Merge the cycle's trace streams into the sequential order.
        if tracing_on {
            cycle_events.append(&mut coord.events);
            for cell in ex.events[parity].iter().skip(1) {
                cycle_events.append(&mut cell.lock().expect("events poisoned"));
            }
            cycle_events.sort_unstable_by_key(|&(key, _)| key);
            for (_, ev) in cycle_events.drain(..) {
                sink.record(&ev);
            }
        }
        if let Some(t) = phase_started {
            let nanos = t.elapsed().as_nanos() as u64;
            telem.phase_time(Phase::Forwarding, nanos);
            prof.phase_time(Phase::Forwarding, nanos);
        }

        // Round D: fold in every shard's ledger delta and class snapshot,
        // then sample — the same per-cycle absorb the sequential engine
        // does with its one ledger. Between the two barriers the cells
        // belong to the coordinator and all planning is quiescent, so
        // cache counters are race-free and cycle-exact. The profiler
        // rides the same round: its cycle sample wants the same global
        // class snapshot, and the gate must match the workers'
        // (`telemetry_on || profiling_on`) or they deadlock.
        if telemetry_on || profiling_on {
            let sample_started = Instant::now();
            if telemetry_on {
                telem.absorb_shard(&coord.ledger.delta);
            }
            coord.ledger.delta.reset();
            let (lo, hi) = coord.class_range;
            global_cq[lo..hi].copy_from_slice(&coord.bufs.class_queued[lo..hi]);
            global_co[lo..hi].copy_from_slice(&coord.bufs.class_occupied[lo..hi]);
            coord.barrier_wait(ex); // Round D: all cells published.
            for (s, cell) in ex.telemetry.iter().enumerate().skip(1) {
                let cell = cell.lock().expect("telemetry poisoned");
                if telemetry_on {
                    telem.absorb_shard(&cell.delta);
                }
                let (lo, hi) = ranges[s];
                global_cq[lo..hi].copy_from_slice(&cell.class_queued[lo..hi]);
                global_co[lo..hi].copy_from_slice(&cell.class_occupied[lo..hi]);
            }
            // One cache fetch serves both consumers, at the same
            // quiescent point the sequential engine reads it.
            let want_telem_cache = telemetry_on && telem.wants_sample(cycle);
            let want_prof_cache = profiling_on && prof.wants_cache(cycle);
            let cache = if want_telem_cache || want_prof_cache {
                sim.algorithm.cache_stats()
            } else {
                None
            };
            if telemetry_on {
                telem.end_cycle(CycleView {
                    cycle,
                    class_queued: &global_cq,
                    class_occupied: &global_co,
                    in_flight: global_in_flight,
                    health: monitor.state(),
                    live_faults: coord.replica.truth.len() as u64,
                    cache: if want_telem_cache { cache } else { None },
                });
            }
            if profiling_on {
                prof.cycle_sample(&ProfSample {
                    cycle,
                    injected: cycle_injected,
                    moved: cycle_moved,
                    in_flight: global_in_flight,
                    class_queued: &global_cq,
                    class_occupied: &global_co,
                    cache: if want_prof_cache { cache } else { None },
                });
            }
            coord.barrier_wait(ex); // Round D: coordinator folded and sampled.
            let nanos = sample_started.elapsed().as_nanos() as u64;
            telem.phase_time(Phase::Telemetry, nanos);
            prof.phase_time(Phase::Telemetry, nanos);
        }

        if cycle >= inject_cycles && global_in_flight == 0 {
            ended_at = cycle + 1;
            break;
        }
    }

    if telemetry_on {
        telem.finish(CycleView {
            cycle: ended_at,
            class_queued: &global_cq,
            class_occupied: &global_co,
            in_flight: global_in_flight,
            health: monitor.state(),
            live_faults: coord.replica.truth.len() as u64,
            cache: sim.algorithm.cache_stats(),
        });
    }

    // Reduce: the workers' ledgers fold into the coordinator's — all
    // additive counters, so the merged totals equal the sequential
    // engine's.
    coord.barrier_wait(ex); // Final reduction: all shards published.
    if let Some(t) = run_started {
        coord.profile.run_nanos = t.elapsed().as_nanos() as u64;
    }
    if profiling_on {
        prof.shard_profile(0, &coord.profile);
    }
    for (s, cell) in ex.finals.iter().enumerate().skip(1) {
        let (ledger, profile) = cell
            .lock()
            .expect("finals poisoned")
            .take()
            .expect("worker published its final payload");
        if profiling_on {
            prof.shard_profile(s, &profile);
        }
        coord.ledger.absorb(&ledger);
    }
    if profiling_on {
        prof.finish_run(ended_at, shards);
    }
    coord.ledger.close(ended_at, global_in_flight);
    sim.report(coord.ledger, &coord.replica)
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
        let class_owner = vec![0usize, 0];
        let mut shard = Shard::new(&sim, 0, 1, &class_owner, false, false, None);
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
