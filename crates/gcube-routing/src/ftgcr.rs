//! The full fault-tolerant Gaussian Cube routing strategy (paper §5,
//! Theorem 5) — the headline contribution.
//!
//! FTGCR executes FFGCR's source-computed plan (tree walk + per-class
//! dimension flips), absorbing faults with the two substrates:
//!
//! * **A-category faults** (links in dimensions `≥ α`) perturb the flip
//!   stages inside a `GEEC(α,k,t)` subcube; adaptive fault-tolerant
//!   hypercube routing ([`crate::hypercube_ft`]) routes around them
//!   (Theorem 3).
//! * **B/C-category faults** can block a Gaussian-tree edge crossing; the
//!   crossing neighbourhood is an exchanged hypercube
//!   (`EH(|Dim(p)|, |Dim(q)|)`), so the FREH mechanics
//!   ([`crate::freh::route_crossing`]) cross at a spare column and bounce to
//!   restore perturbed coordinates (Theorems 4 and 5).
//!
//! Both substrates run only where a fault sits: a segment whose subcube or
//! crossing block holds no fault is exactly the ascending bit flips they
//! would return there, and is appended as such (DESIGN.md §8).
//!
//! **Flip scheduling (our addition).** The paper's proof sketch walks the
//! packet through exact intermediate corners (the node of class `k` whose
//! `Dim(k)` bits are already final); it does not address the case where such
//! a corner is itself a faulty *node*. We close that gap at plan time: the
//! source simulates the corner sequence and, if a corner is faulty,
//! reschedules flips across multiple visits of the class (inserting a
//! two-hop bounce to create a second visit when necessary). Each repair
//! costs at most two extra hops per faulty corner, preserving the spirit of
//! the paper's `F`-bounded overhead. This uses exactly the fault knowledge
//! the paper grants a source (assumption 4 of §6: status of B/C faults for
//! same-ending nodes).

use std::collections::{BTreeSet, HashSet};

use gcube_topology::classes::{dim_mask, dims};
use gcube_topology::{GaussianCube, GaussianTree, LinkId, LinkMask, NodeId, Topology};

use crate::faults::FaultSet;
use crate::ffgcr;
use crate::freh::{route_crossing, CrossingStats};
use crate::hypercube_ft::{route_adaptive, to_host_path, VirtualCube, MAX_CUBE_DIMS};
use crate::plan_cache::PlanCache;
use crate::route::{Route, RoutingError};

/// Statistics aggregated over a full FTGCR route.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FtgcrStats {
    /// Exchange-link traversals (≥ walk length − 1; extras are fault
    /// bounces).
    pub crossings: u32,
    /// Crossing columns masked due to faults.
    pub masked_columns: u32,
    /// Whether any crossing needed the whole-block BFS fallback (never,
    /// under the Theorem-5 preconditions).
    pub bfs_fallback: bool,
    /// Plan repairs: flip moves between visits due to faulty corners.
    pub flip_moves: u32,
    /// Plan repairs: two-hop bounces inserted to create extra visits.
    pub bounces_inserted: u32,
}

impl FtgcrStats {
    fn absorb(&mut self, cs: &CrossingStats) {
        self.crossings += cs.crossings;
        self.masked_columns += cs.masked_columns;
        self.bfs_fallback |= cs.bfs_fallback;
    }
}

/// An executable plan: tree walk plus a flip mask per walk position.
#[derive(Clone, Debug)]
struct ExecPlan {
    walk: Vec<u64>,
    flips_at: Vec<u64>,
}

impl ExecPlan {
    /// The corner the packet occupies after the crossing into walk position
    /// `i` and that position's flips.
    fn corners(&self, gc: &GaussianCube, s: NodeId) -> Vec<NodeId> {
        let tree = GaussianTree::new(gc.alpha()).expect("alpha within cap");
        let mut state = s.0;
        let mut out = Vec::with_capacity(self.walk.len());
        for (i, &k) in self.walk.iter().enumerate() {
            if i > 0 {
                let c0 = tree
                    .edge_dim(NodeId(self.walk[i - 1]), NodeId(k))
                    .expect("walk follows tree edges");
                state ^= 1u64 << c0;
            }
            state ^= self.flips_at[i];
            out.push(NodeId(state));
        }
        out
    }
}

/// Build the default schedule (all flips at the first visit of each class)
/// from the FFGCR plan.
fn default_exec_plan(plan: &ffgcr::Plan) -> ExecPlan {
    let walk: Vec<u64> = plan.tree_walk.iter().map(|n| n.0).collect();
    let mut flips_at = vec![0u64; walk.len()];
    let mut seen: HashSet<u64> = HashSet::new();
    for (i, &k) in walk.iter().enumerate() {
        if seen.insert(k) {
            if let Some(ds) = plan.flips.get(&k) {
                flips_at[i] = ds.iter().fold(0u64, |m, &c| m | (1u64 << c));
            }
        }
    }
    ExecPlan { walk, flips_at }
}

/// Repair the schedule so every corner is a healthy node: move single flips
/// between visits of the same class, inserting a bounce (q → r → q) when a
/// class needs a second visit. Returns the repaired plan with its corners
/// and records repair counts, or `None` when no healthy schedule was found
/// within the search budget.
fn repair_exec_plan(
    gc: &GaussianCube,
    faults: &FaultSet,
    s: NodeId,
    mut ep: ExecPlan,
    stats: &mut FtgcrStats,
) -> Option<(ExecPlan, Vec<NodeId>)> {
    let tree = GaussianTree::new(gc.alpha()).expect("alpha within cap");
    let mut bounces = 0;
    'outer: for _attempt in 0..32 {
        let corners = ep.corners(gc, s);
        let bad_i = match corners.iter().position(|&c| faults.is_node_faulty(c)) {
            None => return Some((ep, corners)),
            Some(i) => i,
        };
        let q = ep.walk[bad_i];
        // Candidate moves: shift one dim of class kk between two of its
        // visits a ≤ bad_i < b; this toggles that bit in corners[a..b].
        let visit_indices = |kk: u64, ep: &ExecPlan| -> Vec<usize> {
            ep.walk
                .iter()
                .enumerate()
                .filter(|(_, &w)| w == kk)
                .map(|(i, _)| i)
                .collect()
        };
        // Deterministic candidate order: HashSet iteration order varies
        // per instance, which would make repeated calls repair the same
        // plan differently.
        let classes: BTreeSet<u64> = ep.walk.iter().copied().collect();
        for &kk in &classes {
            let vis = visit_indices(kk, &ep);
            for &a in &vis {
                for &b in &vis {
                    if a >= b || b <= bad_i || a > bad_i {
                        continue;
                    }
                    // Try moving each dim currently at `a` to `b`, and each
                    // dim at `b` to `a`.
                    for (from, to) in [(a, b), (b, a)] {
                        let mut mask = ep.flips_at[from];
                        while mask != 0 {
                            let c = mask.trailing_zeros();
                            mask &= mask - 1;
                            let mut cand = ep.clone();
                            cand.flips_at[from] &= !(1u64 << c);
                            cand.flips_at[to] |= 1u64 << c;
                            let ok = cand
                                .corners(gc, s)
                                .iter()
                                .all(|&x| !faults.is_node_faulty(x));
                            if ok {
                                stats.flip_moves += 1;
                                ep = cand;
                                continue 'outer;
                            }
                        }
                    }
                }
            }
        }
        // Spare pairs: temporarily flip an *extra* dimension `c ∈ Dim(kk)`
        // at one visit of `kk` and undo it at a later visit — toggling bit
        // `c` in every corner between. This is the only device that can
        // clear a *forced* corner (e.g. the pre-final corner `d ⊕ 2^c₀`
        // when that node is the faulty one); cost: 2 extra hops.
        for &kk in &classes {
            let vis = visit_indices(kk, &ep);
            for &a in &vis {
                for &b in &vis {
                    if a > bad_i || b <= bad_i {
                        continue;
                    }
                    for c in dims(gc.n(), gc.alpha(), kk) {
                        let bit = 1u64 << c;
                        if ep.flips_at[a] & bit != 0 || ep.flips_at[b] & bit != 0 {
                            continue; // not a spare at these visits
                        }
                        let mut cand = ep.clone();
                        cand.flips_at[a] |= bit;
                        cand.flips_at[b] |= bit;
                        let ok = cand
                            .corners(gc, s)
                            .iter()
                            .all(|&x| !faults.is_node_faulty(x));
                        if ok {
                            stats.flip_moves += 1;
                            ep = cand;
                            continue 'outer;
                        }
                    }
                }
            }
        }
        // No single move fixes everything at once: take any move that fixes
        // THIS corner (progress), or insert a bounce to create a later visit
        // for q.
        for &kk in &classes {
            let vis = visit_indices(kk, &ep);
            for &a in &vis {
                for &b in &vis {
                    if a > bad_i || b <= bad_i {
                        continue;
                    }
                    let mut mask = ep.flips_at[a];
                    while mask != 0 {
                        let c = mask.trailing_zeros();
                        mask &= mask - 1;
                        let mut cand = ep.clone();
                        cand.flips_at[a] &= !(1u64 << c);
                        cand.flips_at[b] |= 1u64 << c;
                        let fixed = !faults.is_node_faulty(cand.corners(gc, s)[bad_i]);
                        if fixed {
                            stats.flip_moves += 1;
                            ep = cand;
                            continue 'outer;
                        }
                    }
                }
            }
        }
        // Insert a bounce after bad_i: … q r q … (r = any tree neighbour).
        if bounces >= 4 {
            return None;
        }
        let qn = NodeId(q);
        let neighbour = tree
            .neighbors(qn)
            .into_iter()
            .next()
            .expect("every tree node has a neighbour for α ≥ 1");
        ep.walk.insert(bad_i + 1, q);
        ep.walk.insert(bad_i + 1, neighbour.0);
        ep.flips_at.insert(bad_i + 1, 0);
        ep.flips_at.insert(bad_i + 1, 0);
        bounces += 1;
        stats.bounces_inserted += 1;
    }
    None
}

/// Route from `s` to `d` in `GC(n, 2^α)` under the fault set.
///
/// Returns the route and detour statistics. With an empty fault set this
/// degenerates to FFGCR (optimal); under the Theorem-3/5 preconditions it
/// always delivers, livelock-free (masked spare columns and dimensions),
/// with bounded detour overhead (see the hop-bound tests and
/// EXPERIMENTS.md).
pub fn route(
    gc: &GaussianCube,
    faults: &FaultSet,
    s: NodeId,
    d: NodeId,
) -> Result<(Route, FtgcrStats), RoutingError> {
    route_impl(gc, faults, s, d, None)
}

/// FTGCR with the plan stage served from a [`PlanCache`]: identical output
/// to [`route`] (property-tested), with the tree walk and the `Dim(k)`
/// masks memoised instead of recomputed per packet. The cache is keyed
/// purely by topology, so fault events never invalidate it.
///
/// Fault handling needs no cache: plan repair runs per packet, and each
/// segment whose block holds no fault replays as plain bit flips. Only a
/// segment whose block holds a fault builds a virtual cube and runs the
/// adaptive router or FREH, against that block's faults alone
/// (DESIGN.md §8).
pub fn route_cached(
    gc: &GaussianCube,
    faults: &FaultSet,
    s: NodeId,
    d: NodeId,
    cache: &PlanCache,
) -> Result<(Route, FtgcrStats), RoutingError> {
    route_impl(gc, faults, s, d, Some(cache))
}

fn route_impl(
    gc: &GaussianCube,
    faults: &FaultSet,
    s: NodeId,
    d: NodeId,
    cache: Option<&PlanCache>,
) -> Result<(Route, FtgcrStats), RoutingError> {
    if !gc.contains(s) {
        return Err(RoutingError::OutOfRange(s));
    }
    if !gc.contains(d) {
        return Err(RoutingError::OutOfRange(d));
    }
    if faults.is_node_faulty(s) {
        return Err(RoutingError::SourceFaulty(s));
    }
    if faults.is_node_faulty(d) {
        return Err(RoutingError::DestFaulty(d));
    }
    let mut stats = FtgcrStats::default();
    let (n, alpha) = (gc.n(), gc.alpha());

    // α = 0: GC(n,1) is the binary hypercube; route adaptively in one cube.
    if alpha == 0 {
        let all = (1u64 << n) - 1;
        let local = BlockFaults::collect(faults, s, all);
        if local.is_empty() {
            let mut nodes = vec![s];
            push_flips(&mut nodes, s, s.0 ^ d.0);
            return Ok((Route::new(nodes), stats));
        }
        if n > MAX_CUBE_DIMS {
            return Err(RoutingError::BlockTooLarge { dims: n });
        }
        let all_dims: Vec<u32> = (0..n).collect();
        let vc = VirtualCube::from_host(gc, &local, s, &all_dims);
        let (coords, _) = route_adaptive(&vc, vc.coord(s), vc.coord(d))
            .ok_or(RoutingError::Unreachable { from: s, to: d })?;
        return Ok((Route::new(to_host_path(&vc, &coords)), stats));
    }

    // The default schedule flips each class's pending dimensions at its
    // first visit, whether replayed from the cache or rebuilt from scratch
    // — both paths produce the identical ExecPlan.
    let active = cache.filter(|c| c.is_active() && c.matches(gc));
    let class_mask = |k: u64| match active {
        Some(c) => c.class_dims(k),
        None => dim_mask(n, alpha, k),
    };
    let (ep, plan_hops) = match active {
        Some(c) => {
            let (walk, high) = c.walk_and_flips(gc, s, d);
            let mut flips_at = vec![0u64; walk.classes.len()];
            for (i, &k) in walk.classes.iter().enumerate() {
                if walk.first_visit[i] {
                    flips_at[i] = c.class_dims(k) & high;
                }
            }
            let plan_hops = walk.tree_hops() + high.count_ones() as usize;
            let ep = ExecPlan {
                walk: walk.classes.clone(),
                flips_at,
            };
            (ep, plan_hops)
        }
        None => {
            let plan = ffgcr::plan(gc, s, d);
            let hops = plan.hops();
            (default_exec_plan(&plan), hops)
        }
    };
    let (ep, corners) = repair_exec_plan(gc, faults, s, ep, &mut stats)
        .ok_or(RoutingError::Unreachable { from: s, to: d })?;
    debug_assert_eq!(*corners.last().unwrap(), d, "schedule must end at d");

    let tree = GaussianTree::new(alpha).expect("alpha within cap");
    let mut nodes = Vec::with_capacity(plan_hops + 1);
    nodes.push(s);
    let mut cur = s;

    // Per-crossing hop budget: plan size + generous fault allowance.
    let budget = (plan_hops + 2 * faults.len() + 8) * 4 + 16;

    // Each segment runs inside one block: the GEEC subcube `Dim(k)` for the
    // source-class flips, the exchanged crossing `Dim(p) ∪ Dim(q) ∪ {c₀}`
    // for a tree step. On a fault-free block the adaptive router and FREH
    // both reduce to the plain ascending bit flips (DESIGN.md §8), so only
    // blocks that hold a fault pay for a virtual cube, and they route
    // against the block's own short fault list.
    for (i, &k) in ep.walk.iter().enumerate() {
        let target = corners[i];
        if i == 0 {
            if target != cur {
                // Flips at the source's own class, via adaptive subcube
                // routing (A faults tolerated).
                let block = class_mask(k);
                let local = BlockFaults::collect(faults, cur, block);
                if local.is_empty() {
                    push_flips(&mut nodes, cur, cur.0 ^ target.0);
                } else {
                    let dim_set = dims(n, alpha, k);
                    let vc = VirtualCube::from_host(gc, &local, cur, &dim_set);
                    let (coords, _) = route_adaptive(&vc, vc.coord(cur), vc.coord(target))
                        .ok_or(RoutingError::Unreachable { from: s, to: d })?;
                    let seg = to_host_path(&vc, &coords);
                    nodes.extend_from_slice(&seg[1..]);
                }
                cur = target;
            }
            continue;
        }
        let p = ep.walk[i - 1];
        let c0 = tree
            .edge_dim(NodeId(p), NodeId(k))
            .expect("plan walk follows tree edges");
        let (mask_p, mask_q) = (class_mask(p), class_mask(k));
        let local = BlockFaults::collect(faults, cur, mask_p | mask_q | 1u64 << c0);
        if local.is_empty() {
            let landing = cur.flip(c0);
            nodes.push(landing);
            push_flips(&mut nodes, landing, landing.0 ^ target.0);
            stats.crossings += 1;
            cur = target;
            continue;
        }
        let dims_p = dims(n, alpha, p);
        let dims_q = dims(n, alpha, k);
        // `route_crossing` keys the sides off bit c₀ of the node.
        let (dims0, dims1) = if NodeId(p).bit(c0) {
            (dims_q, dims_p)
        } else {
            (dims_p, dims_q)
        };
        let (seg, cs) = route_crossing(gc, &local, &dims0, &dims1, c0, cur, target, budget)
            .ok_or(RoutingError::Unreachable { from: s, to: d })?;
        stats.absorb(&cs);
        nodes.extend_from_slice(&seg[1..]);
        cur = target;
    }

    debug_assert_eq!(cur, d, "plan execution must land on the destination");
    if cur != d {
        return Err(RoutingError::DetourBudgetExceeded { stuck_at: cur });
    }
    Ok((Route::new(nodes), stats))
}

/// Append the walk from `from` that flips the dimensions in `mask` in
/// ascending order.
fn push_flips(nodes: &mut Vec<NodeId>, from: NodeId, mut mask: u64) {
    let mut cur = from;
    while mask != 0 {
        cur = cur.flip(mask.trailing_zeros());
        nodes.push(cur);
        mask &= mask - 1;
    }
}

/// The faults inside one block: the block's faulty nodes and its faulty
/// links along the block's dimensions.
///
/// A segment routed inside a block queries only these, so it sees the same
/// answers from this short list as from the whole fault set, at the cost of
/// a linear scan instead of a hash lookup.
#[derive(Debug, Default)]
struct BlockFaults {
    nodes: Vec<NodeId>,
    links: Vec<LinkId>,
}

impl BlockFaults {
    /// The faults of the block through `member` spanning the dimensions in
    /// `block`. The method suits the input: scan the fault set when it is
    /// smaller than the block, otherwise probe the block's nodes and links.
    fn collect(faults: &FaultSet, member: NodeId, block: u64) -> BlockFaults {
        let b = block.count_ones();
        // 2^b nodes plus b·2^(b−1) links.
        let components = (2 + u128::from(b)) << b >> 1;
        if (faults.len() as u128) < components {
            BlockFaults::scan(faults, member, block)
        } else {
            BlockFaults::probe(faults, member, block)
        }
    }

    /// [`BlockFaults::collect`] by one pass over the fault set.
    fn scan(faults: &FaultSet, member: NodeId, block: u64) -> BlockFaults {
        let base = member.0 & !block;
        BlockFaults {
            nodes: faults
                .faulty_nodes()
                .filter(|v| v.0 & !block == base)
                .collect(),
            links: faults
                .faulty_links()
                .filter(|l| block >> l.dim & 1 == 1 && l.lo.0 & !block == base)
                .collect(),
        }
    }

    /// [`BlockFaults::collect`] by one lookup per node and link of the
    /// block.
    fn probe(faults: &FaultSet, member: NodeId, block: u64) -> BlockFaults {
        let base = member.0 & !block;
        let mut out = BlockFaults::default();
        // Walk every subset of `block`; each link is probed from its bit-0
        // end.
        let mut sub = 0u64;
        loop {
            let v = NodeId(base | sub);
            if faults.is_node_faulty(v) {
                out.nodes.push(v);
            }
            let mut up = block & !sub;
            while up != 0 {
                let l = LinkId::new(v, up.trailing_zeros());
                if faults.is_link_faulty(l) {
                    out.links.push(l);
                }
                up &= up - 1;
            }
            sub = sub.wrapping_sub(block) & block;
            if sub == 0 {
                return out;
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.nodes.is_empty() && self.links.is_empty()
    }
}

impl LinkMask for BlockFaults {
    #[inline]
    fn node_ok(&self, node: NodeId) -> bool {
        !self.nodes.contains(&node)
    }
    #[inline]
    fn link_ok(&self, link: LinkId) -> bool {
        !self.links.contains(&link)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{theorem3_precondition_guaranteed, theorem5_precondition};
    use gcube_topology::search;
    use gcube_topology::{LinkId, NoFaults};

    /// Deterministic xorshift for reproducible fault sampling.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    #[test]
    fn fault_free_ftgcr_equals_ffgcr() {
        for (n, m) in [(6u32, 2u64), (7, 4), (6, 8), (8, 2)] {
            let gc = GaussianCube::new(n, m).unwrap();
            let f = FaultSet::new();
            for s in (0..gc.num_nodes()).step_by(5) {
                for d in (0..gc.num_nodes()).step_by(7) {
                    let (r, stats) = route(&gc, &f, NodeId(s), NodeId(d)).unwrap();
                    r.validate(&gc, &f).unwrap();
                    let ff = ffgcr::route(&gc, NodeId(s), NodeId(d)).unwrap();
                    assert_eq!(r.hops(), ff.hops(), "GC({n},{m}) {s}->{d}");
                    assert!(!stats.bfs_fallback);
                    assert_eq!(stats.masked_columns, 0);
                    assert_eq!(stats.flip_moves, 0);
                }
            }
        }
    }

    #[test]
    fn alpha_zero_is_adaptive_hypercube() {
        let gc = GaussianCube::new(6, 1).unwrap();
        let mut f = FaultSet::new();
        f.add_node(NodeId(7));
        f.add_link(LinkId::new(NodeId(0), 3));
        for s in 0..64u64 {
            if f.is_node_faulty(NodeId(s)) {
                continue;
            }
            for d in (0..64u64).step_by(3) {
                if f.is_node_faulty(NodeId(d)) {
                    continue;
                }
                let (r, _) = route(&gc, &f, NodeId(s), NodeId(d)).unwrap();
                r.validate(&gc, &f).unwrap();
            }
        }
    }

    #[test]
    fn theorem3_regime_delivery_and_detour_bound() {
        // Only A-category link faults, below the guaranteed per-GEEC bound:
        // delivery for every healthy pair with bounded detours and no BFS
        // fallback. Detour accounting: each fault can force one spare
        // (2 hops) in each leg that meets it; legs per class ≤ 2, so the
        // conservative bound is 4 hops per fault.
        let gc = GaussianCube::new(9, 2).unwrap();
        let mut rng = Rng(0xabcdef1234567890);
        let mut tested = 0;
        let mut worst_extra = 0usize;
        for _trial in 0..60 {
            let mut f = FaultSet::new();
            for _ in 0..1 + (rng.next() % 3) {
                let v = NodeId(rng.next() % gc.num_nodes());
                let high: Vec<u32> = gc.link_dims(v).into_iter().filter(|&c| c >= 1).collect();
                if high.is_empty() {
                    continue;
                }
                let dim = high[(rng.next() % high.len() as u64) as usize];
                f.add_link(LinkId::new(v, dim));
            }
            if !theorem3_precondition_guaranteed(&gc, &f) {
                continue;
            }
            tested += 1;
            let fcount = f.len();
            for s in (0..gc.num_nodes()).step_by(11) {
                for d in (0..gc.num_nodes()).step_by(13) {
                    let (r, stats) = route(&gc, &f, NodeId(s), NodeId(d))
                        .unwrap_or_else(|e| panic!("{s}->{d}: {e} with {f:?}"));
                    r.validate(&gc, &f).unwrap();
                    let opt = ffgcr::route_len(&gc, NodeId(s), NodeId(d)) as usize;
                    worst_extra = worst_extra.max(r.hops() - opt.min(r.hops()));
                    assert!(
                        r.hops() <= opt + 4 * fcount,
                        "detour bound: {s}->{d} hops={} opt={opt} F={fcount}",
                        r.hops()
                    );
                    assert!(!stats.bfs_fallback, "fallback fired in Theorem-3 regime");
                }
            }
        }
        assert!(
            tested >= 20,
            "sampler produced too few valid fault sets ({tested})"
        );
    }

    #[test]
    fn theorem5_regime_mixed_faults() {
        // Mixed node + link faults satisfying the Theorem-5 crossing
        // precondition: delivery for every healthy pair with bounded
        // detours.
        let gc = GaussianCube::new(10, 2).unwrap();
        let mut rng = Rng(0x1234567890abcdef);
        let mut tested = 0;
        for _trial in 0..70 {
            let mut f = FaultSet::new();
            f.add_node(NodeId(rng.next() % gc.num_nodes()));
            for _ in 0..rng.next() % 3 {
                let v = NodeId(rng.next() % gc.num_nodes());
                let ds = gc.link_dims(v);
                f.add_link(LinkId::new(v, ds[(rng.next() % ds.len() as u64) as usize]));
            }
            if !theorem5_precondition(&gc, &f) {
                continue;
            }
            tested += 1;
            let fcount = f.len();
            for s in (0..gc.num_nodes()).step_by(37) {
                if f.is_node_faulty(NodeId(s)) {
                    continue;
                }
                for d in (0..gc.num_nodes()).step_by(41) {
                    if f.is_node_faulty(NodeId(d)) {
                        continue;
                    }
                    let (r, _stats) = route(&gc, &f, NodeId(s), NodeId(d))
                        .unwrap_or_else(|e| panic!("{s}->{d}: {e} with {f:?}"));
                    r.validate(&gc, &f).unwrap();
                    let opt = ffgcr::route_len(&gc, NodeId(s), NodeId(d)) as usize;
                    assert!(
                        r.hops() <= opt + 6 * fcount + 6,
                        "detour bound: {s}->{d} hops={} opt={opt} F={fcount}",
                        r.hops()
                    );
                }
            }
        }
        assert!(
            tested >= 15,
            "sampler produced too few valid fault sets ({tested})"
        );
    }

    #[test]
    fn single_faulty_node_everywhere() {
        // The simulation scenario of Figures 7/8: exactly one faulty node.
        // Every healthy pair must remain routable whenever the precondition
        // holds.
        let gc = GaussianCube::new(7, 2).unwrap();
        for fv in (0..gc.num_nodes()).step_by(17) {
            let mut f = FaultSet::new();
            f.add_node(NodeId(fv));
            if !theorem5_precondition(&gc, &f) {
                continue;
            }
            for s in 0..gc.num_nodes() {
                if s == fv {
                    continue;
                }
                for d in (0..gc.num_nodes()).step_by(5) {
                    if d == fv {
                        continue;
                    }
                    let (r, _) = route(&gc, &f, NodeId(s), NodeId(d))
                        .unwrap_or_else(|e| panic!("fault {fv}: {s}->{d}: {e}"));
                    r.validate(&gc, &f).unwrap();
                }
            }
        }
    }

    #[test]
    fn routes_avoid_faults_entirely() {
        let gc = GaussianCube::new(8, 4).unwrap();
        let mut f = FaultSet::new();
        f.add_node(NodeId(0b0110));
        f.add_link(LinkId::new(NodeId(0b10), 2));
        if theorem5_precondition(&gc, &f) {
            let (r, _) = route(&gc, &f, NodeId(0), NodeId(255)).unwrap();
            r.validate(&gc, &f).unwrap();
            assert!(r.nodes().iter().all(|&v| v != NodeId(0b0110)));
        }
    }

    #[test]
    fn cached_ftgcr_equals_uncached_under_faults() {
        use crate::plan_cache::PlanCache;
        let gc = GaussianCube::new(8, 4).unwrap();
        let cache = PlanCache::new(&gc);
        let mut rng = Rng(0xfeedface12345678);
        for _trial in 0..40 {
            let mut f = FaultSet::new();
            for _ in 0..rng.next() % 3 {
                f.add_node(NodeId(rng.next() % gc.num_nodes()));
            }
            for _ in 0..rng.next() % 3 {
                let v = NodeId(rng.next() % gc.num_nodes());
                let ds = gc.link_dims(v);
                f.add_link(LinkId::new(v, ds[(rng.next() % ds.len() as u64) as usize]));
            }
            for s in (0..gc.num_nodes()).step_by(23) {
                for d in (0..gc.num_nodes()).step_by(31) {
                    let plain = route(&gc, &f, NodeId(s), NodeId(d));
                    let cached = route_cached(&gc, &f, NodeId(s), NodeId(d), &cache);
                    match (plain, cached) {
                        (Ok((r1, st1)), Ok((r2, st2))) => {
                            assert_eq!(r1.nodes(), r2.nodes(), "{s}->{d} with {f:?}");
                            assert_eq!(st1, st2);
                        }
                        (Err(e1), Err(e2)) => assert_eq!(
                            format!("{e1}"),
                            format!("{e2}"),
                            "{s}->{d}: error paths must agree"
                        ),
                        (a, b) => panic!("{s}->{d}: cached/uncached diverge: {a:?} vs {b:?}"),
                    }
                }
            }
        }
        let st = cache.stats();
        assert!(st.hits > 0, "repeat keys must hit the cache: {st:?}");
    }

    #[test]
    fn block_faults_match_brute_force() {
        // Random fault sets against random blocks: class blocks, crossing
        // blocks and arbitrary dimension masks. Both methods and the
        // dispatcher must find exactly the faults that enumerating the
        // block's nodes and links finds.
        let gc = GaussianCube::new(8, 4).unwrap();
        let mut rng = Rng(0x5eed_b10c_c0ff_ee11);
        let mut branches = [0usize; 2];
        let sorted = |mut bf: BlockFaults| {
            bf.nodes.sort_unstable();
            bf.links.sort_unstable();
            (bf.nodes, bf.links)
        };
        for _trial in 0..400 {
            let mut f = FaultSet::new();
            for _ in 0..rng.next() % 40 {
                let v = NodeId(rng.next() % gc.num_nodes());
                if rng.next() & 1 == 0 {
                    f.add_node(v);
                } else {
                    f.add_link(LinkId::new(v, (rng.next() % 8) as u32));
                }
            }
            let member = NodeId(rng.next() % gc.num_nodes());
            let k = member.low_bits(2);
            let block = match rng.next() % 3 {
                0 => dim_mask(8, 2, k),
                1 => dim_mask(8, 2, k) | dim_mask(8, 2, k ^ 1) | 1,
                _ => rng.next() & 0xff,
            };
            let base = member.0 & !block;
            let members: Vec<NodeId> = (0..gc.num_nodes())
                .filter(|&v| v & !block == base)
                .map(NodeId)
                .collect();
            let nodes: Vec<NodeId> = members
                .iter()
                .copied()
                .filter(|&v| f.is_node_faulty(v))
                .collect();
            let links: BTreeSet<LinkId> = members
                .iter()
                .flat_map(|&v| (0..8).map(move |c| LinkId::new(v, c)))
                .filter(|l| block >> l.dim & 1 == 1 && f.is_link_faulty(*l))
                .collect();
            let want = (nodes, links.into_iter().collect::<Vec<_>>());
            assert_eq!(sorted(BlockFaults::scan(&f, member, block)), want);
            assert_eq!(sorted(BlockFaults::probe(&f, member, block)), want);
            assert_eq!(sorted(BlockFaults::collect(&f, member, block)), want);
            let b = block.count_ones();
            branches[usize::from(f.len() < (2 + b as usize) << b >> 1)] += 1;
        }
        assert!(
            branches[0] > 20 && branches[1] > 20,
            "both methods dispatched: {branches:?}"
        );
    }

    #[test]
    fn wide_binary_hypercube_routes_or_errors_without_panicking() {
        // GC(26,1) is Q_26: too large to materialise as a virtual cube.
        let gc = GaussianCube::new(26, 1).unwrap();
        let (r, stats) = route(&gc, &FaultSet::new(), NodeId(0), NodeId(3)).unwrap();
        assert_eq!(r.nodes(), [NodeId(0), NodeId(1), NodeId(3)]);
        assert_eq!(stats, FtgcrStats::default());
        let mut f = FaultSet::new();
        f.add_node(NodeId(1 << 20));
        assert_eq!(
            route(&gc, &f, NodeId(0), NodeId(3)),
            Err(RoutingError::BlockTooLarge { dims: 26 })
        );
    }

    #[test]
    fn rejects_faulty_endpoints() {
        let gc = GaussianCube::new(6, 2).unwrap();
        let mut f = FaultSet::new();
        f.add_node(NodeId(9));
        assert!(matches!(
            route(&gc, &f, NodeId(9), NodeId(0)),
            Err(RoutingError::SourceFaulty(_))
        ));
        assert!(matches!(
            route(&gc, &f, NodeId(0), NodeId(9)),
            Err(RoutingError::DestFaulty(_))
        ));
    }

    #[test]
    fn hops_never_below_bfs_distance() {
        // Sanity: the masked BFS distance is a lower bound for any valid
        // route through healthy components.
        let gc = GaussianCube::new(8, 2).unwrap();
        let mut f = FaultSet::new();
        f.add_node(NodeId(100));
        for (s, d) in [(0u64, 255u64), (3, 200), (17, 18)] {
            let (r, _) = route(&gc, &f, NodeId(s), NodeId(d)).unwrap();
            let lower = search::distance(&gc, NodeId(s), NodeId(d), &f).unwrap();
            assert!(r.hops() as u32 >= lower);
            let ff = search::distance(&gc, NodeId(s), NodeId(d), &NoFaults).unwrap();
            assert!(r.hops() as u32 >= ff);
        }
    }
}

/// Ignored diagnostic: sweeps single A-category faults over GC(9,2) and
/// reports the worst detour overhead with its trace. Run with
/// `cargo test -p gcube-routing ftgcr::diagnostics -- --ignored --nocapture`.
#[cfg(test)]
mod diagnostics {
    use super::*;
    use gcube_topology::LinkId;

    #[test]
    #[ignore]
    fn scan_single_a_fault_extras() {
        let gc = GaussianCube::new(9, 2).unwrap();
        let mut worst = 0usize;
        let mut worst_case = None;
        for v in (0..gc.num_nodes()).step_by(13) {
            let high: Vec<u32> = gc
                .link_dims(NodeId(v))
                .into_iter()
                .filter(|&c| c >= 1)
                .collect();
            if high.is_empty() {
                continue;
            }
            for &dim in &high {
                let mut f = FaultSet::new();
                f.add_link(LinkId::new(NodeId(v), dim));
                for s in (0..gc.num_nodes()).step_by(11) {
                    for d in (0..gc.num_nodes()).step_by(13) {
                        let (r, stats) = route(&gc, &f, NodeId(s), NodeId(d)).unwrap();
                        let opt = ffgcr::route_len(&gc, NodeId(s), NodeId(d)) as usize;
                        let extra = r.hops() - opt.min(r.hops());
                        if extra > worst {
                            worst = extra;
                            worst_case = Some((v, dim, s, d, r.hops(), opt, stats));
                        }
                    }
                }
            }
        }
        println!("worst extra = {worst}, case = {worst_case:?}");
        if let Some((v, dim, s, d, _, _, _)) = worst_case {
            let mut f = FaultSet::new();
            f.add_link(LinkId::new(NodeId(v), dim));
            let (r, _) = route(&gc, &f, NodeId(s), NodeId(d)).unwrap();
            println!("route: {r}");
            let plan = ffgcr::plan(&gc, NodeId(s), NodeId(d));
            println!("plan walk: {:?}, flips: {:?}", plan.tree_walk, plan.flips);
        }
    }
}
