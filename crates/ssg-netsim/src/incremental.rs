//! The incremental recolor step of the corridor simulation
//! ([`Policy::Incremental`]): [`GraphDelta`] patching and region
//! recoloring instead of per-epoch rebuilds.
//!
//! The from-scratch policies rebuild the whole conflict graph and resolve
//! every epoch — `O(n)` work no matter how small the churn. This step keeps
//! one persistent slot-indexed conflict graph across the epochs of
//! [`simulate_corridor_with`] and, per epoch:
//!
//! 1. translates departures/arrivals into a [`GraphDelta`] (departed
//!    stations become *tombstone* slots — their incident edges are removed
//!    and the slot is recycled for a later arrival, so survivor vertex ids
//!    never move, which is the id-stability contract `apply_delta` needs);
//! 2. patches the CSR in place via [`Graph::apply_delta_with`];
//! 3. computes the dirty region (arrival seeds closed to distance `t`) and
//!    hands the frozen coloring to
//!    [`IncrementalSolver`], whose span
//!    gate against a cached clique witness certifies every accepted patch
//!    as optimal — epochs where the witness died or the region grew too
//!    big fall back to the Figure-1 solve, which also refreshes the
//!    witness.
//!
//! Per-epoch arrival wiring uses a uniform bucket grid over positions
//! (cell width `2·range_max`, the maximum conflict reach), so discovering
//! an arrival's edges costs `O(local density)`, not `O(n)`.
//!
//! The epoch loop, and with it every RNG draw, is shared with the
//! from-scratch policies, so under one seed the fleets are identical —
//! the tests pin per-epoch span equality with [`Policy::OptimalL1`].

use crate::dynamics::{
    simulate_corridor_with, ChurnReport, DynamicsConfig, EpochOutcome, Member, Policy, RecolorStep,
};
use crate::scenario::Station;
use rand::Rng;
use ssg_graph::traversal::UNREACHABLE;
use ssg_graph::{dirty_region_into, BfsScratch, DeltaScratch, Graph, GraphDelta, Vertex};
use ssg_intervals::IntervalRepresentation;
use ssg_labeling::interval::l1_coloring_ws;
use ssg_labeling::{FallbackReason, IncrementalSolver, Labeling, Workspace, UNCOLORED};
use ssg_telemetry::Metrics;
use std::cmp::Ordering;
use std::collections::VecDeque;

/// Persistent slot-indexed corridor state: the patched conflict graph,
/// per-slot stations/colors, tombstone free list, and the position grid.
struct SlotCorridor {
    /// `stations[v]` is the live station occupying graph vertex `v`, or a
    /// tombstone (`None`) whose slot is waiting on the free list.
    stations: Vec<Option<Station>>,
    /// Per-slot channel; tombstones are parked at 0 so they never lift the
    /// span, arrivals start at [`UNCOLORED`].
    colors: Vec<u32>,
    /// Per-slot cached left endpoint (`position - range`), refreshed when
    /// the slot is claimed; stale for tombstones, which are never ordered.
    lefts: Vec<f64>,
    free: Vec<Vertex>,
    graph: Graph,
    /// Bucket grid over positions: cell width `2·range_max` bounds the
    /// conflict reach, so overlap candidates live in adjacent cells only.
    grid: Vec<Vec<Vertex>>,
    cell_width: f64,
}

impl SlotCorridor {
    fn new(range_max: f64) -> Self {
        SlotCorridor {
            stations: Vec::new(),
            colors: Vec::new(),
            lefts: Vec::new(),
            free: Vec::new(),
            graph: Graph::from_edges(0, &[]).expect("empty graph"),
            grid: Vec::new(),
            cell_width: 2.0 * range_max,
        }
    }

    fn cell_of(&self, position: f64) -> usize {
        (position / self.cell_width).max(0.0) as usize
    }

    fn live(&self) -> usize {
        self.stations.iter().flatten().count()
    }

    /// Conflict test mirroring `IntervalRepresentation::from_floats`'s
    /// closed-interval semantics on `[p - r, p + r]` footprints.
    fn conflicts(a: Station, b: Station) -> bool {
        (a.position - b.position).abs() <= a.range + b.range
    }

    /// Slots conflicting with `s`, via the grid: `O(local density)`.
    fn overlaps_of(&self, s: Station, out: &mut Vec<Vertex>) {
        out.clear();
        let c = self.cell_of(s.position);
        for cell in c.saturating_sub(1)..=c + 1 {
            let Some(bucket) = self.grid.get(cell) else {
                continue;
            };
            for &u in bucket {
                if let Some(other) = self.stations[u as usize] {
                    if Self::conflicts(s, other) {
                        out.push(u);
                    }
                }
            }
        }
    }

    /// Claims a slot for an arrival: recycle a tombstone or grow by one.
    /// Returns the slot id; `delta.add_vertices` is bumped when growing.
    fn claim_slot(&mut self, s: Station, delta: &mut GraphDelta) -> Vertex {
        let v = match self.free.pop() {
            Some(v) => {
                self.stations[v as usize] = Some(s);
                self.colors[v as usize] = UNCOLORED;
                self.lefts[v as usize] = s.position - s.range;
                v
            }
            None => {
                let v = self.stations.len() as Vertex;
                self.stations.push(Some(s));
                self.colors.push(UNCOLORED);
                self.lefts.push(s.position - s.range);
                delta.add_vertices += 1;
                v
            }
        };
        let cell = self.cell_of(s.position);
        if cell >= self.grid.len() {
            self.grid.resize_with(cell + 1, Vec::new);
        }
        self.grid[cell].push(v);
        v
    }

    /// Releases a departed station's slot: drop its incident edges into
    /// the delta, park the color at 0, tombstone the slot.
    fn release_slot(&mut self, v: Vertex, delta: &mut GraphDelta) {
        let s = self.stations[v as usize].take().expect("slot is live");
        for &u in self.graph.neighbors(v) {
            delta.remove_edge(v, u);
        }
        self.colors[v as usize] = 0;
        let cell = self.cell_of(s.position);
        self.grid[cell].retain(|&u| u != v);
        self.free.push(v);
    }
}

/// Rebuilds the clique witness with a prefix-ball sweep (Lemma 3)
/// directly on the patched slot graph: [`prefix_ball_best`] over every
/// live slot, `O(n · ball)` with no representation rebuild — much cheaper
/// than the Figure-1 resolve it saves, which is what keeps the span lower
/// bound alive across epochs whose churn kills the cached witness.
/// Tombstone slots are isolated and skipped, so no walk ever reaches one
/// and their stale cached endpoints are never read.
///
/// Also returns a stack of *backups*: equal-sized maximum cliques pairwise
/// vertex-disjoint from the primary and each other, drawn from the sweep's
/// ties. Departures rarely hit every clique in one window, so the stack
/// turns most witness-death epochs into a promotion instead of a resweep.
fn slot_clique_witness(
    graph: &Graph,
    stations: &[Option<Station>],
    lefts: &[f64],
    t: u32,
    dist: &mut Vec<u32>,
) -> (Vec<Vertex>, Vec<Vec<Vertex>>) {
    let n = graph.num_vertices();
    let live = (0..n as Vertex).filter(|&v| stations[v as usize].is_some());
    let (best, ties) = prefix_ball_best(graph, live, lefts, t, dist);
    // Backups: ties whose prefix balls are vertex-disjoint from the
    // primary (so the departure that kills the primary cannot take the
    // whole stack with it — overlap *between* backups is acceptable
    // redundancy). An equal size is required — a smaller clique's bound
    // would just trip the span gate later.
    let mut in_primary = vec![false; n];
    for &u in &best {
        in_primary[u as usize] = true;
    }
    let mut queue = VecDeque::new();
    let mut ball: Vec<Vertex> = Vec::new();
    let mut backups: Vec<Vec<Vertex>> = Vec::new();
    for &v in &ties {
        if backups.len() >= 8 {
            break;
        }
        ball_walk(graph, v, t, dist, &mut queue, &mut ball);
        let prefix: Vec<Vertex> = ball
            .iter()
            .copied()
            .filter(|&u| left_order(lefts, u, v).is_le())
            .collect();
        for &u in &ball {
            dist[u as usize] = UNREACHABLE;
        }
        if prefix.len() == best.len() && prefix.iter().all(|&u| !in_primary[u as usize]) {
            let mut b = prefix;
            b.sort_unstable();
            backups.push(b);
        }
    }
    (best, backups)
}

/// Truncated BFS collecting the distance-`<= t` ball of `v` into `ball`.
/// The caller owns the `dist` invariant: all-`UNREACHABLE` on entry, and
/// resets the ball's entries after reading it (ball-local resets keep a
/// sweep `O(n · ball)` instead of `O(n²)`).
fn ball_walk(
    graph: &Graph,
    v: Vertex,
    t: u32,
    dist: &mut [u32],
    queue: &mut VecDeque<Vertex>,
    ball: &mut Vec<Vertex>,
) {
    ball.clear();
    queue.clear();
    dist[v as usize] = 0;
    queue.push_back(v);
    while let Some(u) = queue.pop_front() {
        ball.push(u);
        let du = dist[u as usize];
        if du >= t {
            continue;
        }
        for &w in graph.neighbors(u) {
            if dist[w as usize] == UNREACHABLE {
                dist[w as usize] = du + 1;
                queue.push_back(w);
            }
        }
    }
}

/// Largest prefix ball whose closing vertex lies in `centers`, sorted,
/// plus up to 64 later centers whose prefix balls tie its size (backup
/// candidates). The prefix ball of `v` is its distance-`<= t` ball
/// filtered to slots at or before `v` in [`left_order`] — no sorted order
/// needs maintaining. Arrivals can only grow the graph's maximum clique via
/// cliques that touch the epoch's dirty region (every new edge is incident
/// to a seed), so sweeping just the region's vertices after a patch keeps
/// an inherited witness *exact* for `O(|region| · ball)` — the global
/// resweep is then only ever paid when churn kills every cached clique.
fn prefix_ball_best(
    graph: &Graph,
    centers: impl IntoIterator<Item = Vertex>,
    lefts: &[f64],
    t: u32,
    dist: &mut Vec<u32>,
) -> (Vec<Vertex>, Vec<Vertex>) {
    let n = graph.num_vertices();
    dist.clear();
    dist.resize(n, UNREACHABLE);
    let mut queue = VecDeque::new();
    let mut ball: Vec<Vertex> = Vec::new();
    let mut best: Vec<Vertex> = Vec::new();
    let mut ties: Vec<Vertex> = Vec::new();
    for v in centers {
        ball_walk(graph, v, t, dist, &mut queue, &mut ball);
        let in_prefix = |&&u: &&Vertex| left_order(lefts, u, v).is_le();
        let prefix = ball.iter().filter(in_prefix).count();
        if prefix > best.len() {
            best.clear();
            best.extend(ball.iter().filter(in_prefix));
            ties.clear();
        } else if prefix == best.len() && ties.len() < 64 {
            ties.push(v);
        }
        for &u in &ball {
            dist[u as usize] = UNREACHABLE;
        }
    }
    best.sort_unstable();
    (best, ties)
}

/// Bumps the live-color histogram, growing it to fit color `c`.
fn bump_color(counts: &mut Vec<u32>, c: u32) {
    let i = c as usize;
    if counts.len() <= i {
        counts.resize(i + 1, 0);
    }
    counts[i] += 1;
}

/// Exact liveness check for a cached clique on the patched graph: every
/// member must still be pairwise within distance `t`. `O(|W| · ball)` —
/// cliques are small, so this is far cheaper than a resweep.
fn clique_intact(
    graph: &Graph,
    clique: &[Vertex],
    t: u32,
    bfs: &mut BfsScratch,
    scratch: &mut Vec<Vertex>,
) -> bool {
    for &w in clique {
        dirty_region_into(graph, &[w], t, bfs, scratch);
        for &u in clique {
            if scratch.binary_search(&u).is_err() {
                return false;
            }
        }
    }
    true
}

/// The canonical interval ordering of slots: cached left endpoint, ties
/// by slot id. Sorting by it is adaptive (stable sort), so re-sorting a
/// nearly-sorted order costs roughly `O(n + moved · log n)`, not a full
/// `n log n`.
fn left_order(lefts: &[f64], u: Vertex, v: Vertex) -> Ordering {
    lefts[u as usize]
        .total_cmp(&lefts[v as usize])
        .then(u.cmp(&v))
}

/// [`simulate_corridor_with`] under [`Policy::Incremental`], by the name
/// the repository benchmark's `churn` workload calls.
pub fn simulate_corridor_incremental_with<R: Rng>(
    cfg: DynamicsConfig,
    rng: &mut R,
    metrics: &Metrics,
) -> ChurnReport {
    simulate_corridor_with(cfg, Policy::Incremental, rng, metrics)
}

/// Sets up [`Policy::Incremental`] on the epoch-0 `fleet` and returns its
/// recolor step. Setup claims a slot per member (kept in its `tag`), wires
/// the slot graph, colors it once with Figure 1 and sweeps the first clique
/// witness. Each step then patches the epoch's departures and arrivals
/// into the slot graph and recolors the dirty region; see the module docs.
pub(crate) fn incremental_step<'m>(
    fleet: &mut [Member],
    t: u32,
    range_max: f64,
    metrics: &'m Metrics,
) -> RecolorStep<'m> {
    let mut corridor = SlotCorridor::new(range_max);
    let mut inc = IncrementalSolver::new();
    let mut ws = Workspace::new();
    let mut delta_scratch = DeltaScratch::new();
    let mut bfs = BfsScratch::new();
    let mut overlap_buf: Vec<Vertex> = Vec::new();
    let mut dirty: Vec<Vertex> = Vec::new();
    let mut seeds: Vec<Vertex> = Vec::new();
    let mut retry_seeds: Vec<Vertex> = Vec::new();
    let mut delta = GraphDelta::new();
    // Cached clique witness: slot ids of a clique in the *current* graph,
    // proving span >= len-1. Arrivals can only tighten distances, so they
    // never invalidate it; removal churn near it does. `backups` is a
    // stack of equal-sized pairwise-disjoint cliques promoted when the
    // primary dies, so a resweep is only paid when churn exhausts them.
    let mut witness: Vec<Vertex> = Vec::new();
    let mut dead_witness: Vec<Vertex> = Vec::new();
    let mut backups: Vec<Vec<Vertex>> = Vec::new();
    let mut backup_suspects: Vec<bool> = Vec::new();
    let mut color_order: Vec<Vertex> = Vec::new();
    let mut wit_dist: Vec<u32> = Vec::new();
    // Live-color histogram: counts per color over live slots, kept in sync
    // with every commit so the epoch span is its length, not an O(n) scan.
    let mut color_counts: Vec<u32> = Vec::new();

    for m in fleet.iter_mut() {
        m.tag = corridor.claim_slot(m.station, &mut delta);
    }
    // Wire the initial fleet through the same delta path as later epochs.
    for &Member { station, tag: v } in fleet.iter() {
        corridor.overlaps_of(station, &mut overlap_buf);
        for &u in &overlap_buf {
            if u != v {
                delta.add_edge(v, u);
            }
        }
    }
    corridor
        .graph
        .apply_delta_with(&delta, &mut delta_scratch, metrics)
        .expect("initial delta is valid");
    delta.clear();
    // Color the initial fleet once, before the first epoch: this is setup
    // (the from-scratch policies start from an equally solved state
    // conceptually — they recompute everything anyway), so epoch 1 patches
    // a valid coloring instead of being forced into a full resolve by the
    // all-UNCOLORED start.
    if !fleet.is_empty() {
        let live: Vec<(Vertex, Station)> = corridor
            .stations
            .iter()
            .enumerate()
            .filter_map(|(v, s)| s.map(|s| (v as Vertex, s)))
            .collect();
        let rep = IntervalRepresentation::from_floats(
            &live
                .iter()
                .map(|(_, s)| (s.position - s.range, s.position + s.range))
                .collect::<Vec<_>>(),
        )
        .expect("positive ranges yield valid intervals");
        let out = l1_coloring_ws(&rep, t, &mut ws, metrics);
        for v in 0..live.len() as Vertex {
            let (slot, _) = live[rep.original_index(v)];
            corridor.colors[slot as usize] = out.labeling.colors()[v as usize];
        }
        for &(slot, _) in &live {
            bump_color(&mut color_counts, corridor.colors[slot as usize]);
        }
        (witness, backups) = slot_clique_witness(
            &corridor.graph,
            &corridor.stations,
            &corridor.lefts,
            t,
            &mut wit_dist,
        );
        ws.recycle(out.labeling);
    }

    let step = move |fleet: &mut [Member], departed: &[Member], survivors: usize| {
        // Epoch delta: tombstone the departed, wire the arrived. Witness
        // liveness: a departing member kills the clique outright (checked
        // before its slot can be recycled by an arrival); removal churn
        // within radius t of the clique (closure on the pre-patch graph)
        // can stretch member distances, so such a witness is *suspect* and
        // gets exactly re-verified on the patched graph below instead of
        // being discarded. Arrivals only tighten distances — no check.
        let mut witness_suspect = false;
        backup_suspects.clear();
        // Whether this epoch's bound is a fresh sweep maximum (exact λ*)
        // rather than an inherited clique that may have gone stale-low.
        let mut bound_exact = false;
        let mut swept_in_retry = false;
        let departs = |c: &[Vertex]| departed.iter().any(|d| c.binary_search(&d.tag).is_ok());
        if !witness.is_empty() && departs(&witness) {
            // Keep the corpse: its survivors seed the local repair sweep.
            std::mem::swap(&mut dead_witness, &mut witness);
            witness.clear();
        }
        backups.retain(|b| !departs(b));
        for &Member { tag: v, .. } in departed {
            // Histogram upkeep must read the color before the release
            // zeroes the slot.
            let c = corridor.colors[v as usize];
            if c != UNCOLORED {
                color_counts[c as usize] -= 1;
            }
            corridor.release_slot(v, &mut delta);
        }
        if (!witness.is_empty() || !backups.is_empty()) && !delta.remove_edges.is_empty() {
            let rm_seeds = delta.removal_seeds(&corridor.graph);
            dirty_region_into(&corridor.graph, &rm_seeds, t, &mut bfs, &mut dirty);
            witness_suspect = witness.iter().any(|w| dirty.binary_search(w).is_ok());
            backup_suspects.extend(
                backups
                    .iter()
                    .map(|b| b.iter().any(|w| dirty.binary_search(w).is_ok())),
            );
        }
        seeds.clear();
        for m in &mut fleet[survivors..] {
            // Query the grid before inserting so earlier arrivals of this
            // epoch are seen too (the grid holds them already).
            corridor.overlaps_of(m.station, &mut overlap_buf);
            let v = corridor.claim_slot(m.station, &mut delta);
            for &u in &overlap_buf {
                delta.add_edge(v, u);
            }
            seeds.push(v);
            m.tag = v;
        }
        corridor
            .graph
            .apply_delta_with(&delta, &mut delta_scratch, metrics)
            .expect("epoch delta is valid");
        delta.clear();

        #[cfg(debug_assertions)]
        debug_check_graph_parity(&corridor);

        // A suspect clique survives iff its members are still pairwise
        // within distance t on the patched graph — an exact check costing
        // O(|W| · ball), and |W| is a clique so it is small.
        if witness_suspect
            && !witness.is_empty()
            && !clique_intact(&corridor.graph, &witness, t, &mut bfs, &mut dirty)
        {
            std::mem::swap(&mut dead_witness, &mut witness);
            witness.clear();
        }
        if !backup_suspects.is_empty() {
            let mut i = 0;
            backups.retain(|b| {
                let keep = !backup_suspects[i]
                    || clique_intact(&corridor.graph, b, t, &mut bfs, &mut dirty);
                i += 1;
                keep
            });
        }
        // Dead primary: promote a (verified) backup when one is alive —
        // an equal-sized clique proves the same bound for free.
        if witness.is_empty() {
            if let Some(b) = backups.pop() {
                witness = b;
            }
        }
        // Every cached clique is dead. Try a local repair before paying a
        // global resweep: a dense clique that lost a member usually has an
        // equal-sized replacement in its own neighborhood (the survivors
        // close with a nearby vertex). Removals can only lower the
        // optimum, so an equal-or-larger clique found near the corpse pins
        // λ* exactly; arrival-driven growth is caught by the region-local
        // sweep below either way.
        if witness.is_empty() && !dead_witness.is_empty() {
            retry_seeds.clear();
            retry_seeds.extend(
                dead_witness
                    .iter()
                    .copied()
                    .filter(|&v| corridor.stations[v as usize].is_some()),
            );
            if !retry_seeds.is_empty() {
                dirty_region_into(&corridor.graph, &retry_seeds, t, &mut bfs, &mut dirty);
                let (cand, _) = prefix_ball_best(
                    &corridor.graph,
                    dirty.iter().copied(),
                    &corridor.lefts,
                    t,
                    &mut wit_dist,
                );
                if cand.len() + 1 >= dead_witness.len() && !cand.is_empty() {
                    witness = cand;
                }
            }
        }
        // Repair came up short => no trustworthy lower bound => every
        // epoch would fall back. The prefix-ball sweep rebuilds the
        // witness and its backup stack in O(n · ball), far cheaper than
        // the Figure-1 resolve it saves.
        if witness.is_empty() && corridor.live() > 0 {
            (witness, backups) = slot_clique_witness(
                &corridor.graph,
                &corridor.stations,
                &corridor.lefts,
                t,
                &mut wit_dist,
            );
            bound_exact = true;
        }

        // Region resolve against the frozen survivors. Stage 1 must be
        // *sound*, not just span-equal: seeds alone are not enough, because
        // an arrival bridging two frozen survivors creates a new conflict
        // between two vertices the solver never looks at. Every pair newly
        // within distance ≤ t reached that distance through a seed, so one
        // endpoint always sits within ⌊t/2⌋ of a seed:
        //  - t == 1: new constraints are seed-incident edges; seeds alone
        //    are sound.
        //  - t == 2: the new pairs are exactly co-neighbors of a seed, and
        //    (since the previous coloring was valid, previously-close pairs
        //    already differ) the *violating* ones are exactly the
        //    equal-colored live pairs among each seed's neighbors — a cheap
        //    O(Σ deg²) pre-scan names them, and recoloring one endpoint per
        //    pair restores soundness at nearly seeds-only cost.
        //  - t >= 3: fall back to the radius-⌊t/2⌋ closure.
        // The span gate still decides whether the region was *wide* enough;
        // only gate trips pay for wider regions.
        let sep = ssg_labeling::SeparationVector::all_ones(t);
        if t == 2 {
            dirty.clear();
            dirty.extend_from_slice(&seeds);
            for &m in &seeds {
                let nbrs = corridor.graph.neighbors(m);
                for (i, &u) in nbrs.iter().enumerate() {
                    let cu = corridor.colors[u as usize];
                    if cu == UNCOLORED {
                        continue;
                    }
                    for &w in &nbrs[i + 1..] {
                        if corridor.colors[w as usize] == cu {
                            dirty.push(w);
                        }
                    }
                }
            }
            dirty.sort_unstable();
            dirty.dedup();
        } else if t < 2 {
            dirty.clear();
            dirty.extend_from_slice(&seeds);
            dirty.sort_unstable();
        } else {
            dirty_region_into(&corridor.graph, &seeds, t / 2, &mut bfs, &mut dirty);
        }
        // Color the region in left-endpoint order: greedy first-fit along
        // the interval ordering mirrors the Figure-1 sweep, so large
        // patches land on the witness bound instead of tripping the span
        // gate the way slot-id order does.
        color_order.clear();
        color_order.extend_from_slice(&dirty);
        color_order.sort_by(|&a, &b| left_order(&corridor.lefts, a, b));
        let bound = (!witness.is_empty()).then(|| witness.len() as u32 - 1);
        let SlotCorridor {
            ref graph,
            ref stations,
            ref colors,
            ref lefts,
            ..
        } = corridor;
        let attempt = inc
            .try_patch_ordered(
                graph,
                &sep,
                colors,
                &dirty,
                &color_order,
                bound,
                &mut ws,
                metrics,
            )
            .or_else(|reason| {
                if reason != FallbackReason::SpanAboveBound {
                    return Err(reason);
                }
                // Stage 2: widen to the t-closure so the seeds' frozen
                // neighborhoods can move too.
                dirty_region_into(graph, &seeds, t, &mut bfs, &mut dirty);
                color_order.clear();
                color_order.extend_from_slice(&dirty);
                color_order.sort_by(|&a, &b| left_order(lefts, a, b));
                inc.try_patch_ordered(
                    graph,
                    &sep,
                    colors,
                    &dirty,
                    &color_order,
                    bound,
                    &mut ws,
                    metrics,
                )
            })
            .or_else(|reason| {
                if reason != FallbackReason::SpanAboveBound {
                    return Err(reason);
                }
                // First suspect the bound itself: an inherited clique can
                // go stale-low when arrivals grow a denser clique
                // elsewhere, and no region retry can pass a too-small
                // bound. A resweep costs ~a patch, not a full resolve.
                let mut b = bound.expect("SpanAboveBound implies a bound");
                if !bound_exact {
                    (witness, backups) =
                        slot_clique_witness(graph, stations, lefts, t, &mut wit_dist);
                    swept_in_retry = true;
                    let fresh = witness.len() as u32 - 1;
                    if fresh > b {
                        b = fresh;
                        // The bound rose: the original patch may pass
                        // unchanged against the exact optimum.
                        if let Ok(o) = inc.try_patch_ordered(
                            graph,
                            &sep,
                            colors,
                            &dirty,
                            &color_order,
                            Some(b),
                            &mut ws,
                            metrics,
                        ) {
                            return Ok(o);
                        }
                    }
                }
                // The bound held but the patch overshot it. Two causes,
                // two fixes, both sound (any superset of the t-closure
                // is a valid region):
                // * departures lowered the optimum, so frozen vertices
                //   far from the seeds still wear colors above the fresh
                //   bound — pull every such vertex into the region;
                // * the frozen boundary pinned the greedy above the
                //   optimum — widen the region to radius 2t so the
                //   boundary colors themselves can move.
                // Either retry is churn-sized, an order of magnitude
                // cheaper than the full resolve it usually avoids.
                retry_seeds.clear();
                retry_seeds.extend_from_slice(&seeds);
                for (v, &c) in colors.iter().enumerate() {
                    if c != UNCOLORED && c > b && stations[v].is_some() {
                        retry_seeds.push(v as Vertex);
                    }
                }
                retry_seeds.sort_unstable();
                retry_seeds.dedup();
                let stale_high = retry_seeds.len() > seeds.len();
                let radius = if stale_high { t } else { 2 * t };
                dirty_region_into(graph, &retry_seeds, radius, &mut bfs, &mut dirty);
                color_order.clear();
                color_order.extend_from_slice(&dirty);
                color_order.sort_by(|&a, &b| left_order(lefts, a, b));
                inc.try_patch_ordered(
                    graph,
                    &sep,
                    colors,
                    &dirty,
                    &color_order,
                    Some(b),
                    &mut ws,
                    metrics,
                )
                .or_else(|second| {
                    if second != FallbackReason::SpanAboveBound || !stale_high {
                        return Err(second);
                    }
                    dirty_region_into(graph, &retry_seeds, 2 * t, &mut bfs, &mut dirty);
                    color_order.clear();
                    color_order.extend_from_slice(&dirty);
                    color_order.sort_by(|&a, &b| left_order(lefts, a, b));
                    inc.try_patch_ordered(
                        graph,
                        &sep,
                        colors,
                        &dirty,
                        &color_order,
                        Some(b),
                        &mut ws,
                        metrics,
                    )
                })
            });
        let outcome = match attempt {
            Ok(outcome) => outcome,
            Err(reason) => inc.fallback_resolve(
                reason,
                dirty.len(),
                |ws, m| {
                    // Full resolve: Figure-1 solve on the live stations,
                    // mapped back to slots. The witness is resweeped after
                    // the outcome lands (rank sweep on the slot graph — far
                    // cheaper than an `interval_clique_witness` here, which
                    // would rebuild the CSR from the representation).
                    let live: Vec<(Vertex, Station)> = stations
                        .iter()
                        .enumerate()
                        .filter_map(|(v, s)| s.map(|s| (v as Vertex, s)))
                        .collect();
                    let rep = IntervalRepresentation::from_floats(
                        &live
                            .iter()
                            .map(|(_, s)| (s.position - s.range, s.position + s.range))
                            .collect::<Vec<_>>(),
                    )
                    .expect("positive ranges yield valid intervals");
                    let out = l1_coloring_ws(&rep, t, ws, m);
                    let mut slot_colors = vec![0u32; stations.len()];
                    for v in 0..live.len() as Vertex {
                        let (slot, _) = live[rep.original_index(v)];
                        slot_colors[slot as usize] = out.labeling.colors()[v as usize];
                    }
                    ws.recycle(out.labeling);
                    Labeling::new(slot_colors)
                },
                &mut ws,
                metrics,
            ),
        };
        let full_resolve = outcome.full_resolve();
        if full_resolve {
            // The gate tripped, so the cached witness under-estimated the
            // new optimum: resweep it so the next epochs can patch again
            // (unless the retry chain already swept this epoch's graph).
            if !swept_in_retry {
                (witness, backups) = slot_clique_witness(
                    &corridor.graph,
                    &corridor.stations,
                    &corridor.lefts,
                    t,
                    &mut wit_dist,
                );
            }
        }
        let recolored = outcome.recolored.min(corridor.live());
        let frozen = outcome.frozen;

        // Commit colors; account span and churn against the live-color
        // histogram so patch epochs do O(|region|) bookkeeping instead of
        // an O(n) rescan. A patch changes colors only inside `dirty`; a
        // full resolve may move anything, so it rebuilds the histogram.
        // Seed slots were parked at UNCOLORED when claimed, so that test
        // alone separates survivors from this epoch's arrivals.
        let mut retunes = 0usize;
        if full_resolve {
            color_counts.clear();
            for (v, &c) in outcome.labeling.colors().iter().enumerate() {
                if corridor.stations[v].is_none() {
                    continue;
                }
                bump_color(&mut color_counts, c);
                let was = corridor.colors[v];
                if was != UNCOLORED && was != c {
                    retunes += 1;
                }
            }
        } else {
            let new_colors = outcome.labeling.colors();
            for &v in &dirty {
                let c = new_colors[v as usize];
                let was = corridor.colors[v as usize];
                if was != UNCOLORED {
                    color_counts[was as usize] -= 1;
                    if was != c {
                        retunes += 1;
                    }
                }
                bump_color(&mut color_counts, c);
            }
        }
        while color_counts.last() == Some(&0) {
            color_counts.pop();
        }
        let span = color_counts.len().saturating_sub(1) as u32;
        let recycled = std::mem::replace(&mut corridor.colors, outcome.labeling.into_colors());
        ws.recycle_colors(recycled);
        #[cfg(debug_assertions)]
        debug_check_committed_coloring(&corridor, t, span);
        EpochOutcome {
            span,
            retunes,
            recolored,
            frozen,
            full_resolve,
        }
    };
    Box::new(step)
}

/// Debug-build oracle: the incrementally patched slot graph must equal the
/// from-scratch conflict graph of the live stations. Quadratic, so capped;
/// every debug run of the sim (i.e. every test) gets graph-wiring coverage
/// the delta-layer proptests can't give (they trust the sim's deltas).
#[cfg(debug_assertions)]
fn debug_check_graph_parity(corridor: &SlotCorridor) {
    let n = corridor.stations.len();
    if n > 2048 {
        return;
    }
    for a in 0..n {
        let Some(sa) = corridor.stations[a] else {
            continue;
        };
        for b in (a + 1)..n {
            let Some(sb) = corridor.stations[b] else {
                continue;
            };
            let expected = SlotCorridor::conflicts(sa, sb);
            let got = corridor.graph.neighbors(a as Vertex).contains(&(b as Vertex));
            assert_eq!(
                expected, got,
                "slot graph drifted from the conflict predicate at ({a}, {b})"
            );
        }
    }
}

/// Debug-build oracle: the committed per-epoch coloring must be a valid
/// `L(1,...,1)` assignment (distinct colors within distance `t`) and the
/// histogram-derived `span` must equal the true max live color. This is
/// what catches an unsound dirty region: a patch can pass the solver's
/// region-local checks and the span gate while leaving two *frozen*
/// vertices in conflict — only a whole-graph sweep sees that.
#[cfg(debug_assertions)]
fn debug_check_committed_coloring(corridor: &SlotCorridor, t: u32, span: u32) {
    use std::collections::VecDeque;
    let n = corridor.stations.len();
    let actual = (0..n)
        .filter(|&v| corridor.stations[v].is_some())
        .map(|v| corridor.colors[v])
        .max()
        .unwrap_or(0);
    assert_eq!(span, actual, "histogram span drifted from the max live color");
    let mut dist = vec![u32::MAX; n];
    let mut queue = VecDeque::new();
    let mut ball = Vec::new();
    for v in 0..n as Vertex {
        if corridor.stations[v as usize].is_none() {
            continue;
        }
        dist[v as usize] = 0;
        queue.push_back(v);
        ball.push(v);
        while let Some(x) = queue.pop_front() {
            if dist[x as usize] >= t {
                continue;
            }
            for &y in corridor.graph.neighbors(x) {
                if dist[y as usize] == u32::MAX {
                    dist[y as usize] = dist[x as usize] + 1;
                    queue.push_back(y);
                    ball.push(y);
                }
            }
        }
        for &y in &ball {
            assert!(
                y == v || corridor.colors[y as usize] != corridor.colors[v as usize],
                "slots {v} and {y} share color {} at distance <= {t}",
                corridor.colors[v as usize]
            );
            dist[y as usize] = u32::MAX;
        }
        ball.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::{simulate_corridor, Policy};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssg_telemetry::{Counter, Hist};

    fn cfg(initial: usize, epochs: usize, p_depart: f64, arrivals_max: usize) -> DynamicsConfig {
        DynamicsConfig::default()
            .initial(initial)
            .epochs(epochs)
            .p_depart(p_depart)
            .arrivals_max(arrivals_max)
            .corridor_len(60.0)
            .range_min(1.0)
            .range_max(3.0)
            .t(2)
    }

    /// The heavyweight end-to-end guarantee: under the same seed, every
    /// epoch of the incremental run has exactly the span the from-scratch
    /// optimal run produces, and Greedy sees the same fleets. Seed 141 of
    /// each config is pinned exactly per policy — spans, station counts,
    /// recolored counts, retunes and full resolves — so any drift in the
    /// fleet draws or the churn accounting of the epoch loop shows here.
    #[test]
    fn per_epoch_spans_match_full_simulation() {
        // Dense corridor: big overlapping balls, regions rub against the
        // fallback threshold. Sparse corridor (the `ssg churn --incremental`
        // demo config): tiny cliques, where an arrival bridging two frozen
        // survivors once slipped past a seeds-only dirty region as a
        // span-invisible conflict — the sparse/seed-42 case is the
        // regression pin for that.
        let sparse = DynamicsConfig::default()
            .initial(100)
            .p_depart(0.04)
            .arrivals_max(4)
            .corridor_len(400.0)
            .range_min(1.0)
            .range_max(2.0)
            .t(2);
        // Seed 141: (spans shared by every policy, stations per epoch,
        // incremental recolored per epoch, retunes of [OptimalL1, Greedy,
        // incremental], incremental full resolves).
        let dense_141 = (
            [
                8, 8, 9, 7, 8, 7, 9, 9, 8, 8, 8, 8, 8, 9, 7, 9, 9, 8, 8, 8, 8, 8, 8, 8, 7,
            ],
            [
                42, 42, 41, 42, 42, 38, 41, 42, 42, 41, 43, 41, 40, 42, 40, 39, 37, 36, 39, 38, 37,
                36, 34, 32, 28,
            ],
            [
                42, 3, 41, 42, 6, 38, 41, 3, 42, 21, 3, 1, 1, 4, 40, 15, 0, 9, 7, 38, 0, 3, 2, 0,
                16,
            ],
            [423, 342, 249],
            8,
        );
        let sparse_141 = (
            [
                4, 4, 4, 4, 4, 5, 5, 4, 4, 4, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 3, 3, 3,
            ],
            [
                96, 94, 96, 96, 96, 95, 93, 92, 93, 91, 85, 83, 81, 79, 81, 80, 80, 75, 76, 77, 78,
                75, 76, 76, 77,
            ],
            [
                4, 1, 3, 4, 4, 17, 0, 11, 4, 2, 4, 1, 1, 0, 10, 1, 4, 0, 3, 13, 4, 0, 14, 2, 4,
            ],
            [91, 92, 33],
            0,
        );
        for (c, seeds, pin) in [
            (cfg(40, 25, 0.1, 6), [140u64, 141, 142], dense_141),
            (sparse.epochs(25), [42u64, 141, 142], sparse_141),
        ] {
            for seed in seeds {
                let mut rng = StdRng::seed_from_u64(seed);
                let full = simulate_corridor(c, Policy::OptimalL1, &mut rng);
                let mut rng = StdRng::seed_from_u64(seed);
                let greedy = simulate_corridor(c, Policy::Greedy, &mut rng);
                let mut rng = StdRng::seed_from_u64(seed);
                let inc = simulate_corridor_incremental_with(c, &mut rng, &Metrics::disabled());
                assert_eq!(inc.epoch_spans, full.epoch_spans, "seed {seed}");
                assert_eq!(inc.mean_stations, full.mean_stations, "seed {seed}");
                assert_eq!(inc.max_span, full.max_span, "seed {seed}");
                assert_eq!(greedy.epoch_recolored, full.epoch_recolored, "seed {seed}");
                if seed != 141 {
                    continue;
                }
                let (spans, stations, recolored, retunes, inc_resolves) = pin;
                for rep in [&full, &greedy, &inc] {
                    assert_eq!(rep.epoch_spans, spans);
                }
                assert_eq!(full.epoch_recolored, stations);
                assert_eq!(inc.epoch_recolored, recolored);
                assert_eq!(
                    [full.total_retunes, greedy.total_retunes, inc.total_retunes],
                    retunes
                );
                assert_eq!([full.full_resolves, greedy.full_resolves], [25, 25]);
                assert_eq!(inc.full_resolves, inc_resolves);
            }
        }
    }

    /// Report bookkeeping: one entry per epoch everywhere, churn in range.
    #[test]
    fn report_fields_are_coherent() {
        let c = cfg(30, 20, 0.15, 5);
        let mut rng = StdRng::seed_from_u64(143);
        let rep = simulate_corridor(c, Policy::Incremental, &mut rng);
        assert_eq!(rep.epochs, 20);
        assert!(rep.mean_span > 0.0);
        assert!((0.0..=1.0).contains(&rep.mean_churn));
        assert_eq!(rep.epoch_spans.len(), 20);
        assert_eq!(rep.epoch_recolored.len(), 20);
        assert_eq!(rep.epoch_frozen.len(), 20);
        assert_eq!(rep.epoch_solve_ns.len(), 20);
        assert!(rep.full_resolves <= rep.epochs);
    }

    /// At low churn most epochs patch a small region: recoloring touches
    /// far fewer stations than freezing spares, and full resolves are the
    /// exception, not the rule.
    #[test]
    fn low_churn_mostly_freezes() {
        // Sparse corridor: distance-2 balls stay small, so regions stay
        // under the fallback threshold and patches dominate.
        let c = DynamicsConfig::default()
            .initial(120)
            .epochs(30)
            .p_depart(0.02)
            .arrivals_max(2)
            .corridor_len(600.0)
            .range_min(1.0)
            .range_max(2.0)
            .t(2);
        let mut rng = StdRng::seed_from_u64(144);
        let m = Metrics::enabled();
        let rep = simulate_corridor_incremental_with(c, &mut rng, &m);
        let recolored: usize = rep.epoch_recolored.iter().sum();
        let frozen: usize = rep.epoch_frozen.iter().sum();
        assert!(
            frozen > recolored,
            "expected mostly-frozen epochs: frozen={frozen} recolored={recolored}"
        );
        assert!(
            rep.full_resolves < rep.epochs,
            "full resolves should be the exception: {}/{}",
            rep.full_resolves,
            rep.epochs
        );
        let snap = m.snapshot();
        assert!(snap.counter(Counter::DeltaApplied) >= rep.epochs as u64);
        assert_eq!(
            snap.counter(Counter::RegionRecolors) + snap.counter(Counter::FullResolves),
            rep.epochs as u64
        );
        assert_eq!(
            snap.hist(Hist::RegionSize).count(),
            rep.epochs as u64,
            "one region observation per epoch"
        );
    }

    /// Dirty-vertex totals scale with churn pressure, not fleet size.
    #[test]
    fn dirty_vertices_scale_with_churn() {
        let quiet = Metrics::enabled();
        let mut rng = StdRng::seed_from_u64(145);
        simulate_corridor_incremental_with(cfg(100, 20, 0.01, 1), &mut rng, &quiet);
        let busy = Metrics::enabled();
        let mut rng = StdRng::seed_from_u64(145);
        simulate_corridor_incremental_with(cfg(100, 20, 0.25, 12), &mut rng, &busy);
        let q = quiet.snapshot().counter(Counter::DirtyVertices);
        let b = busy.snapshot().counter(Counter::DirtyVertices);
        assert!(
            b > q,
            "higher churn must dirty more vertices: quiet={q} busy={b}"
        );
    }

    /// All-departure epochs (no survivors) stay coherent through slot
    /// recycling.
    #[test]
    fn total_turnover_is_survived() {
        let c = DynamicsConfig::default()
            .initial(5)
            .epochs(8)
            .p_depart(1.0)
            .arrivals_max(3)
            .corridor_len(10.0)
            .range_min(1.0)
            .range_max(2.0)
            .t(1);
        let mut rng = StdRng::seed_from_u64(146);
        let rep = simulate_corridor(c, Policy::Incremental, &mut rng);
        assert_eq!(rep.epochs, 8);
        assert_eq!(rep.total_retunes, 0, "no survivors => no retunes");
        assert!(rep.mean_stations >= 1.0);
    }

}
