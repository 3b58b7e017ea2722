//! Incremental dynamic channel assignment: the corridor epoch loop
//! rebuilt around [`GraphDelta`] patching and region recoloring.
//!
//! [`simulate_corridor`](crate::dynamics::simulate_corridor) rebuilds the
//! whole conflict graph and resolves from scratch every epoch — `O(n)`
//! work no matter how small the churn. [`simulate_corridor_incremental`]
//! keeps one persistent slot-indexed conflict graph and, per epoch:
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
//! The RNG call sequence exactly mirrors the from-scratch simulation, so
//! the two runs see identical fleets under the same seed — the tests pin
//! per-epoch span equality on that.

use crate::dynamics::{mean, ChurnReport, DynamicsConfig};
use crate::scenario::Station;
use rand::Rng;
use ssg_graph::traversal::UNREACHABLE;
use ssg_graph::{dirty_region_into, BfsScratch, DeltaScratch, Graph, GraphDelta, Vertex};
use ssg_intervals::IntervalRepresentation;
use ssg_labeling::interval::l1_coloring_ws;
use ssg_labeling::{FallbackReason, IncrementalSolver, Labeling, Workspace, UNCOLORED};
use ssg_telemetry::hist::Histogram;
use ssg_telemetry::{Hist, Metrics};
use std::collections::VecDeque;
use std::time::Instant;

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

/// Rebuilds the clique witness with a prefix-ball sweep (Lemma 3) directly
/// on the patched slot graph: the prefix ball of slot `v` is its
/// distance-`<= t` ball filtered to slots at or before `v` in the interval
/// ordering, decided by comparing cached left endpoints (ties by slot id) —
/// no sorted order needs maintaining. `O(n · ball)` with no representation
/// rebuild — much cheaper than the Figure-1 resolve it saves, which is what
/// keeps the span lower bound alive across epochs whose churn kills the
/// cached witness. Tombstone slots are isolated and skipped, so no walk
/// ever reaches one and their stale cached endpoints are never read.
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
    dist.clear();
    dist.resize(n, UNREACHABLE);
    // Interval-order comparison on cached endpoints: `u` is in `v`'s prefix
    // iff it starts no later (slot id breaks exact ties deterministically).
    let before = |u: Vertex, v: Vertex| {
        lefts[u as usize]
            .total_cmp(&lefts[v as usize])
            .then(u.cmp(&v))
            .is_le()
    };
    let mut queue = VecDeque::new();
    let mut ball: Vec<Vertex> = Vec::new();
    let mut best: Vec<Vertex> = Vec::new();
    // Sweep centers tying the running maximum — backup candidates.
    let mut ties: Vec<Vertex> = Vec::new();
    for v in 0..n as Vertex {
        if stations[v as usize].is_none() {
            continue;
        }
        ball_walk(graph, v, t, dist, &mut queue, &mut ball);
        let prefix = ball.iter().filter(|&&u| before(u, v)).count();
        if prefix > best.len() {
            best.clear();
            best.extend(ball.iter().copied().filter(|&u| before(u, v)));
            ties.clear();
        } else if prefix == best.len() && ties.len() < 64 {
            ties.push(v);
        }
        for &u in &ball {
            dist[u as usize] = UNREACHABLE;
        }
    }
    // Backups: ties whose prefix balls are vertex-disjoint from the
    // primary (so the departure that kills the primary cannot take the
    // whole stack with it — overlap *between* backups is acceptable
    // redundancy). An equal size is required — a smaller clique's bound
    // would just trip the span gate later.
    let mut in_primary = vec![false; n];
    for &u in &best {
        in_primary[u as usize] = true;
    }
    let mut backups: Vec<Vec<Vertex>> = Vec::new();
    for &v in &ties {
        if backups.len() >= 8 {
            break;
        }
        ball_walk(graph, v, t, dist, &mut queue, &mut ball);
        let prefix: Vec<Vertex> = ball.iter().copied().filter(|&u| before(u, v)).collect();
        for &u in &ball {
            dist[u as usize] = UNREACHABLE;
        }
        if prefix.len() == best.len() && prefix.iter().all(|&u| !in_primary[u as usize]) {
            let mut b = prefix;
            b.sort_unstable();
            backups.push(b);
        }
    }
    best.sort_unstable();
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

/// Largest prefix ball whose closing vertex lies in `centers`. Arrivals
/// can only grow the graph's maximum clique via cliques that touch the
/// epoch's dirty region (every new edge is incident to a seed), so
/// sweeping just the region's vertices after a patch keeps an inherited
/// witness *exact* for `O(|region| · ball)` — the global resweep is then
/// only ever paid when churn kills every cached clique.
fn prefix_ball_best(
    graph: &Graph,
    centers: &[Vertex],
    lefts: &[f64],
    t: u32,
    dist: &mut Vec<u32>,
) -> Vec<Vertex> {
    let n = graph.num_vertices();
    dist.clear();
    dist.resize(n, UNREACHABLE);
    let before = |u: Vertex, v: Vertex| {
        lefts[u as usize]
            .total_cmp(&lefts[v as usize])
            .then(u.cmp(&v))
            .is_le()
    };
    let mut queue = VecDeque::new();
    let mut ball: Vec<Vertex> = Vec::new();
    let mut best: Vec<Vertex> = Vec::new();
    for &v in centers {
        ball_walk(graph, v, t, dist, &mut queue, &mut ball);
        let prefix = ball.iter().filter(|&&u| before(u, v)).count();
        if prefix > best.len() {
            best.clear();
            best.extend(ball.iter().copied().filter(|&u| before(u, v)));
        }
        for &u in &ball {
            dist[u as usize] = UNREACHABLE;
        }
    }
    best.sort_unstable();
    best
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

/// Sorts slot ids by cached left endpoint (ties by slot id) — the
/// canonical interval ordering. The stable sort is adaptive, so
/// re-sorting a nearly-sorted order costs roughly `O(n + moved · log n)`,
/// not a full `n log n`.
fn sort_by_left(slots: &mut [Vertex], lefts: &[f64]) {
    slots.sort_by(|&a, &b| {
        lefts[a as usize]
            .total_cmp(&lefts[b as usize])
            .then(a.cmp(&b))
    });
}

/// [`simulate_corridor_incremental_with`] without telemetry.
pub fn simulate_corridor_incremental<R: Rng>(cfg: DynamicsConfig, rng: &mut R) -> ChurnReport {
    simulate_corridor_incremental_with(cfg, rng, &Metrics::disabled())
}

/// Runs the corridor dynamics with delta patching and region recoloring
/// instead of per-epoch rebuilds. Spans are certified: every epoch's
/// assignment has exactly the optimal `L(1,...,1)` span (accepted patches
/// are pinned to a clique-witness lower bound; everything else re-runs the
/// Figure-1 solver). Under the same seed the fleet evolution is identical
/// to [`simulate_corridor`](crate::dynamics::simulate_corridor) with
/// [`Policy::OptimalL1`](crate::dynamics::Policy::OptimalL1).
pub fn simulate_corridor_incremental_with<R: Rng>(
    cfg: DynamicsConfig,
    rng: &mut R,
    metrics: &Metrics,
) -> ChurnReport {
    let DynamicsConfig {
        initial,
        epochs,
        p_depart,
        arrivals_max,
        corridor_len,
        range_min,
        range_max,
        t,
    } = cfg;
    assert!((0.0..=1.0).contains(&p_depart));
    assert!(corridor_len > 0.0 && range_min > 0.0 && range_max >= range_min);
    let mut next_id: u64 = 0;
    let mut new_station = |rng: &mut R| {
        let id = next_id;
        next_id += 1;
        (
            id,
            Station {
                position: rng.gen_range(0.0..corridor_len),
                range: rng.gen_range(range_min..=range_max),
            },
        )
    };

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

    // The fleet mirrors the from-scratch simulation exactly (same Vec
    // order, same RNG call sequence); `slot` tracks each entry's vertex.
    let mut fleet: Vec<(u64, Station, Vertex)> = Vec::with_capacity(initial);
    for _ in 0..initial {
        let (id, s) = new_station(rng);
        let v = corridor.claim_slot(s, &mut delta);
        fleet.push((id, s, v));
    }
    // Wire the initial fleet through the same delta path as later epochs.
    for &(_, s, v) in &fleet {
        corridor.overlaps_of(s, &mut overlap_buf);
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
    // Color the initial fleet once, outside the epoch loop: this is setup
    // (the from-scratch simulation starts from an equally solved state
    // conceptually — it recomputes everything anyway), so epoch 1 patches
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

    let mut spans = Vec::with_capacity(epochs);
    let mut epoch_spans = Vec::with_capacity(epochs);
    let mut epoch_recolored = Vec::with_capacity(epochs);
    let mut epoch_frozen = Vec::with_capacity(epochs);
    let mut churns = Vec::with_capacity(epochs);
    let mut sizes = Vec::with_capacity(epochs);
    let mut total_retunes = 0usize;
    let mut full_resolves = 0usize;
    let mut max_span = 0u32;
    let epoch_hist = Histogram::new();
    let mut epoch_solve_ns = Vec::with_capacity(epochs);

    for _ in 0..epochs {
        let _epoch_span = metrics.span("netsim.epoch.incremental");
        // Departures and arrivals — identical RNG sequence to the
        // from-scratch loop (retain, then arrival count, then stations).
        let mut departed: Vec<Vertex> = Vec::new();
        fleet.retain(|&(_, _, v)| {
            let stays = !rng.gen_bool(p_depart);
            if !stays {
                departed.push(v);
            }
            stays
        });
        let arrivals = rng.gen_range(0..=arrivals_max);
        let mut arrived: Vec<(u64, Station)> = (0..arrivals).map(|_| new_station(rng)).collect();
        if fleet.is_empty() && arrived.is_empty() {
            arrived.push(new_station(rng));
        }
        sizes.push((fleet.len() + arrived.len()) as f64);

        let solve_start = Instant::now();
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
        if !witness.is_empty() && departed.iter().any(|d| witness.binary_search(d).is_ok()) {
            // Keep the corpse: its survivors seed the local repair sweep.
            std::mem::swap(&mut dead_witness, &mut witness);
            witness.clear();
        }
        backups.retain(|b| !departed.iter().any(|d| b.binary_search(d).is_ok()));
        for &v in &departed {
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
        for (id, s) in arrived {
            // Query the grid before inserting so earlier arrivals of this
            // epoch are seen too (the grid holds them already).
            corridor.overlaps_of(s, &mut overlap_buf);
            let v = corridor.claim_slot(s, &mut delta);
            for &u in &overlap_buf {
                delta.add_edge(v, u);
            }
            seeds.push(v);
            fleet.push((id, s, v));
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
                let cand =
                    prefix_ball_best(&corridor.graph, &dirty, &corridor.lefts, t, &mut wit_dist);
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
        sort_by_left(&mut color_order, &corridor.lefts);
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
                sort_by_left(&mut color_order, lefts);
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
                sort_by_left(&mut color_order, lefts);
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
                    sort_by_left(&mut color_order, lefts);
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
        if outcome.full_resolve() {
            full_resolves += 1;
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
        epoch_recolored.push(outcome.recolored.min(corridor.live()));
        epoch_frozen.push(outcome.frozen);

        // Commit colors; account span and churn against the live-color
        // histogram so patch epochs do O(|region|) bookkeeping instead of
        // an O(n) rescan. A patch changes colors only inside `dirty`; a
        // full resolve may move anything, so it rebuilds the histogram.
        // Seed slots were parked at UNCOLORED when claimed, so that test
        // alone separates survivors from this epoch's arrivals.
        let mut retunes = 0usize;
        let survivors = fleet.len() - seeds.len();
        if outcome.full_resolve() {
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
        let solve_ns = u64::try_from(solve_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        epoch_hist.record(solve_ns);
        epoch_solve_ns.push(solve_ns);
        metrics.observe_ns(Hist::SolverSolve, solve_ns);
        max_span = max_span.max(span);
        spans.push(span as f64);
        epoch_spans.push(span);
        total_retunes += retunes;
        churns.push(if survivors == 0 {
            0.0
        } else {
            retunes as f64 / survivors as f64
        });
    }

    ChurnReport {
        epochs,
        mean_span: mean(&spans),
        max_span,
        mean_churn: mean(&churns),
        total_retunes,
        mean_stations: mean(&sizes),
        epoch_solve: epoch_hist.snapshot(),
        epoch_solve_ns,
        epoch_spans,
        epoch_recolored,
        epoch_frozen,
        full_resolves,
    }
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
    use ssg_telemetry::Counter;

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
    /// optimal run produces.
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
        for (c, seeds) in [
            (cfg(40, 25, 0.1, 6), [140u64, 141, 142]),
            (sparse.epochs(25), [42u64, 141, 142]),
        ] {
            for seed in seeds {
                let mut rng = StdRng::seed_from_u64(seed);
                let full = simulate_corridor(c, Policy::OptimalL1, &mut rng);
                let mut rng = StdRng::seed_from_u64(seed);
                let inc = simulate_corridor_incremental(c, &mut rng);
                assert_eq!(inc.epoch_spans, full.epoch_spans, "seed {seed}");
                assert_eq!(inc.mean_stations, full.mean_stations, "seed {seed}");
                assert_eq!(inc.max_span, full.max_span, "seed {seed}");
            }
        }
    }

    /// Report bookkeeping: one entry per epoch everywhere, churn in range.
    #[test]
    fn report_fields_are_coherent() {
        let c = cfg(30, 20, 0.15, 5);
        let mut rng = StdRng::seed_from_u64(143);
        let rep = simulate_corridor_incremental(c, &mut rng);
        assert_eq!(rep.epochs, 20);
        assert!(rep.mean_span > 0.0);
        assert!((0.0..=1.0).contains(&rep.mean_churn));
        assert_eq!(rep.epoch_spans.len(), 20);
        assert_eq!(rep.epoch_recolored.len(), 20);
        assert_eq!(rep.epoch_frozen.len(), 20);
        assert_eq!(rep.epoch_solve.count(), 20);
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
        let rep = simulate_corridor_incremental(c, &mut rng);
        assert_eq!(rep.epochs, 8);
        assert_eq!(rep.total_retunes, 0, "no survivors => no retunes");
        assert!(rep.mean_stations >= 1.0);
    }

}
