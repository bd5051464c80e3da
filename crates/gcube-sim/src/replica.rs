//! The fault replica and the recovery rule.
//!
//! A [`FaultReplica`] holds the two fault sets of a dynamic run — the
//! ground **truth** and the routing **view** — plus the injector that
//! mutates the truth, the bitset mirror of the truth, and the pending
//! reconvergence deadline. [`FaultReplica::advance`] is the whole of the
//! cycle's phase 0: it applies the cycle's fault events and decides when
//! the view catches up with the truth (immediately under the oracle,
//! after the paper's claim-4 exchange delay otherwise). Every shard owns
//! an identical replica.
//!
//! [`recover`] is FTGCR's recovery rule for a packet whose next hop
//! proved dead: the holder's local discovery enters the view, then the
//! TTL check, then the re-route budget check, then a replan from the
//! packet's current node. A one-shard run applies it inline during the
//! forwarding scan; a sharded run applies it on shard 0, which
//! broadcasts the view mutations it returns.

use gcube_routing::{FaultSet, Route};
use gcube_topology::{LinkId, NodeId, Topology};

use crate::engine::Simulator;
use crate::injection::FaultInjector;
use crate::ledger::{Exit, PacketLedger};
use crate::soa::LinkTable;
use crate::telemetry::TelemetrySink;
use crate::trace::{DropCause, TraceEventKind, TraceSink};

/// What phase 0 did this cycle.
pub(crate) struct Advance {
    /// Fault events applied to the truth.
    pub applied: usize,
    /// The view caught up with the truth.
    pub reconverged: bool,
    /// The view still lags the truth.
    pub stale: bool,
}

/// Ground truth, routing view, and the machinery that moves them.
pub(crate) struct FaultReplica {
    pub(crate) truth: FaultSet,
    pub(crate) view: FaultSet,
    /// Generation stamps of (truth, view) at the last sync: when neither
    /// set changed since, reconvergence skips the copy entirely.
    pub(crate) synced: (u64, u64),
    pub(crate) injector: FaultInjector,
    /// Bitset mirror of the truth: dead-node word probes for injection,
    /// dead-link word probes for the forwarding scan. Resynced only when
    /// the truth's generation stamp moves.
    pub(crate) links: LinkTable,
    pub(crate) converge_at: Option<u64>,
    /// Whether the run has a fault schedule at all.
    pub(crate) dynamic: bool,
}

impl FaultReplica {
    /// The cycle-zero replica. With no schedule and an oracle view the
    /// two sets stay identical to the static fault set for the whole run.
    pub(crate) fn new(sim: &Simulator) -> FaultReplica {
        let truth = sim.faults.clone();
        let view = sim.faults.clone();
        let synced = (truth.generation(), view.generation());
        let mut links = LinkTable::new(sim.gc.num_nodes(), sim.gc.n());
        links.sync(&truth);
        FaultReplica {
            truth,
            view,
            synced,
            injector: FaultInjector::new(&sim.gc, sim.config.schedule.clone(), sim.config.seed),
            links,
            converge_at: None,
            dynamic: !sim.config.schedule.is_none(),
        }
    }

    /// Phase 0: apply `cycle`'s fault events to the truth and advance the
    /// view-reconvergence state machine. The caller strands queued
    /// packets on newly dead nodes when `applied > 0`.
    pub(crate) fn advance(&mut self, sim: &Simulator, cycle: u64) -> Advance {
        let mut step = Advance {
            applied: 0,
            reconverged: false,
            stale: false,
        };
        if !self.dynamic {
            return step;
        }
        step.applied = self.injector.step(cycle, &mut self.truth);
        if step.applied > 0 {
            self.links.sync(&self.truth);
            let delay = sim.knowledge_delay(&self.truth);
            if delay == 0 {
                self.sync_view();
            } else {
                // A new event during an ongoing exchange restarts it:
                // convergence is measured from the last change.
                self.converge_at = Some(cycle + delay);
            }
        }
        if let Some(t) = self.converge_at {
            if cycle >= t {
                self.sync_view();
                self.converge_at = None;
                step.reconverged = true;
            } else {
                step.stale = true;
            }
        }
        step
    }

    /// Re-synchronise the view onto the truth, skipping the copy when
    /// neither set changed since the last sync.
    fn sync_view(&mut self) {
        if self.synced != (self.truth.generation(), self.view.generation()) {
            self.view.sync_from(&self.truth);
            self.synced = (self.truth.generation(), self.view.generation());
        }
    }

    /// Publish one discovered failure into the view.
    pub(crate) fn apply(&mut self, op: ViewOp) {
        match op {
            ViewOp::Node(n) => self.view.add_node(n),
            ViewOp::Link(l) => self.view.add_link(l),
        }
    }
}

/// A routing-view mutation discovered during recovery. Shard 0 of a
/// sharded run publishes each one so every replica applies them in the
/// same order.
#[derive(Clone, Copy)]
pub(crate) enum ViewOp {
    Node(NodeId),
    Link(LinkId),
}

/// A queued packet whose next hop `to` proved dead in the truth.
pub(crate) struct Blocked {
    pub exit: Exit,
    pub from: NodeId,
    pub to: NodeId,
    pub dest: NodeId,
}

/// Rule on a blocked packet: publish the holder's discovery into the
/// view (and a stale-view exposure into the trace — the packet was
/// planned against knowledge that missed this fault), then drop it if
/// its TTL or re-route budget is spent, else replan it from where it
/// stands. Returns the view mutation and the new route, or `None` once
/// the drop is accounted.
pub(crate) fn recover<S: TraceSink, T: TelemetrySink>(
    sim: &Simulator,
    replica: &mut FaultReplica,
    b: &Blocked,
    ledger: &mut PacketLedger,
    sink: &mut S,
    telem: &mut T,
) -> (ViewOp, Option<Route>) {
    // Local discovery: the blocked node learns exactly which component
    // failed and that knowledge enters the routing view at once.
    let op = if replica.links.node_faulty(b.to.0) {
        ViewOp::Node(b.to)
    } else {
        ViewOp::Link(LinkId::new(b.from, (b.from.0 ^ b.to.0).trailing_zeros()))
    };
    replica.apply(op);
    telem.stale_view();
    let id = b.exit.id;
    ledger.say(
        sink,
        id,
        b.from,
        TraceEventKind::StaleView { blocked: b.to },
    );
    let budget = sim.config.reroute_budget;
    let verdict = if b.exit.hops >= sim.config.effective_ttl() {
        Err(DropCause::TtlExpired)
    } else if b.exit.reroutes >= budget {
        Err(DropCause::Unrecoverable)
    } else {
        sim.algorithm
            .plan_route(&sim.gc, &replica.view, b.from, b.dest)
            .map_err(|_| DropCause::Unrecoverable)
    };
    match verdict {
        Ok(planned) => {
            telem.reroute();
            let budget_left = budget - (b.exit.reroutes + 1);
            ledger.say(sink, id, b.from, TraceEventKind::Reroute { budget_left });
            if let Some(tc) = planned.tree {
                ledger.tree_choice(tc, id, b.from, sink);
            }
            (op, Some(planned.route))
        }
        Err(cause) => {
            ledger.drop_packet(b.exit, cause, b.from, sink);
            (op, None)
        }
    }
}
