//! Incremental recoloring: patch a valid labeling after a graph delta
//! instead of resolving from scratch.
//!
//! The epoch loops in `ssg-netsim` used to pay a full `O(nt)` resolve per
//! epoch no matter how small the churn. [`IncrementalSolver`] turns that
//! into `O(churn)`: colors outside the delta's *dirty region* are frozen,
//! the region is recolored greedily against the frozen boundary palette,
//! and the patched coloring is accepted only when two independent checks
//! pass — a local validity re-scan of every recolored constraint, and a
//! span gate against a certified lower bound (a still-valid
//! [`CliqueWitness`](crate::certificate::CliqueWitness) from
//! `certificate.rs`). Anything short of that falls back to the caller's
//! full resolve, so the outcome is *provably* as good as a fresh solve:
//!
//! * **Dirty-region rule.** For an `L(δ1,…,δt)` instance, any constraint a
//!   delta can newly violate joins two vertices within distance `t` of an
//!   added edge or vertex (`ssg_graph::dirty_region` over
//!   [`GraphDelta::addition_seeds`](ssg_graph::GraphDelta::addition_seeds)
//!   with `radius = t`, computed on the patched graph). Removals only
//!   *relax* constraints (every `δi > 0`, vector non-increasing), so a
//!   frozen coloring stays valid outside the region.
//! * **Span-equality guarantee.** A still-valid witness clique proves
//!   `λ*_new >= L`. Any valid coloring therefore has span `>= L`; the gate
//!   accepts a patch only at span `<= L`, i.e. exactly `L = λ*_new` — the
//!   same span an optimal full resolve would return. When the gate (or
//!   any other precondition) fails, the full resolve runs instead, so
//!   *every* outcome span equals the fresh-solve span.
//!
//! Telemetry: one [`Counter::RegionRecolors`] or [`Counter::FullResolves`]
//! per outcome, [`Counter::DirtyVertices`] summed over region sizes, and
//! the [`Hist::RegionSize`] distribution (in vertices, not nanoseconds).

use crate::spec::{Labeling, SeparationVector};
use crate::workspace::Workspace;
use ssg_graph::{Graph, Vertex, UNREACHABLE};
use ssg_telemetry::{Counter, Hist, Metrics};
use std::collections::VecDeque;

/// Color value marking a vertex with no inherited color (a fresh arrival);
/// such vertices must lie inside the dirty region.
pub const UNCOLORED: u32 = u32::MAX;

/// Fall back to a full resolve when the dirty region exceeds this fraction
/// of the vertex count. Every patch is certificate-gated, so a generous cap
/// is safe: past half the graph a fresh solve genuinely is cheaper, but
/// below that the patch (and a caller's staged retries) should get their
/// chance.
const REGION_THRESHOLD: f64 = 0.5;

/// Why an incremental attempt fell back to the full resolve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// No certified span lower bound was supplied (e.g. the cached witness
    /// was invalidated by the delta's removal closure).
    NoLowerBound,
    /// The dirty region exceeded half the vertex count.
    RegionTooLarge,
    /// A vertex outside the dirty region carried no color.
    UncoloredOutsideRegion,
    /// The patched region failed the local validity re-scan (defensive —
    /// the greedy patch is valid by construction).
    InvalidPatch,
    /// The patched span exceeded the certified lower bound, so optimality
    /// could not be proven.
    SpanAboveBound,
}

/// Result of one [`IncrementalSolver::resolve_with`] call.
#[derive(Debug)]
pub struct IncrementalOutcome {
    /// The certified coloring (patched or fully resolved).
    pub labeling: Labeling,
    /// Size of the dirty region the delta induced.
    pub dirty: usize,
    /// Vertices whose colors this call (re)assigned.
    pub recolored: usize,
    /// Vertices whose colors were kept frozen.
    pub frozen: usize,
    /// `None` when the region patch was accepted; otherwise why the full
    /// resolve ran instead.
    pub fallback: Option<FallbackReason>,
}

impl IncrementalOutcome {
    /// Whether the full resolve ran.
    pub fn full_resolve(&self) -> bool {
        self.fallback.is_some()
    }
}

/// Region recoloring layer: freezes colors outside a dirty region,
/// recolors inside it against the frozen boundary, and falls back to the
/// caller's full resolve whenever it cannot *prove* the patch matches a
/// fresh solve. Owns its own ball/window scratch (reset by
/// touched-entry lists, so a solve costs `O(region balls)`, not `O(n)`);
/// borrows color buffers from the shared [`Workspace`] arena.
#[derive(Debug, Default)]
pub struct IncrementalSolver {
    /// Truncated-BFS distances, all-[`UNREACHABLE`] between solves.
    dist: Vec<u32>,
    queue: VecDeque<Vertex>,
    /// Visited list of the current ball (also the reset list for `dist`).
    ball: Vec<Vertex>,
    /// Forbidden color windows `[lo, hi]` around one vertex.
    windows: Vec<(u32, u32)>,
    grow_events: u64,
}

impl IncrementalSolver {
    /// A solver with empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many times any scratch buffer had to grow; stable across warm
    /// same-sized solves.
    pub fn grow_events(&self) -> u64 {
        self.grow_events
    }

    /// Sum of scratch buffer capacities in elements.
    pub fn capacity_footprint(&self) -> usize {
        self.dist.capacity() + self.queue.capacity() + self.ball.capacity() + self.windows.capacity()
    }

    /// Patches `prev` over the dirty region of the (already patched) graph
    /// `g`, or runs `full` when the patch cannot be certified: one
    /// [`try_patch_ordered`](Self::try_patch_ordered) attempt in vertex-id
    /// order, finished by [`fallback_resolve`](Self::fallback_resolve) on
    /// failure.
    ///
    /// * `prev` — one color per vertex of `g`, valid for `sep` on every
    ///   pair outside the dirty region; [`UNCOLORED`] marks fresh vertices
    ///   (allowed only inside `dirty`).
    /// * `dirty` — the sorted dirty region: the delta's addition seeds
    ///   closed to distance `sep.t()` on `g` (see
    ///   [`ssg_graph::dirty_region_into`]).
    /// * `lower_bound` — a certified span lower bound for `g` (a surviving
    ///   clique witness), or `None` to force the full resolve.
    /// * `full` — the from-scratch solve; must return an optimal labeling
    ///   for the span-equality guarantee to hold.
    #[allow(clippy::too_many_arguments)]
    pub fn resolve_with<F>(
        &mut self,
        g: &Graph,
        sep: &SeparationVector,
        prev: &[u32],
        dirty: &[Vertex],
        lower_bound: Option<u32>,
        full: F,
        ws: &mut Workspace,
        metrics: &Metrics,
    ) -> IncrementalOutcome
    where
        F: FnOnce(&mut Workspace, &Metrics) -> Labeling,
    {
        match self.try_patch_ordered(g, sep, prev, dirty, dirty, lower_bound, ws, metrics) {
            Ok(outcome) => outcome,
            Err(reason) => self.fallback_resolve(reason, dirty.len(), full, ws, metrics),
        }
    }

    /// One certified patch *attempt*: recolors the region and returns
    /// `Err(reason)` instead of running a full resolve when the patch
    /// cannot be certified. `dirty` is the sorted region membership;
    /// `order` must be a permutation of it and controls only the sequence
    /// greedy first-fit assigns colors in. Structure-aware callers exploit
    /// this: coloring an interval region by left endpoint mirrors the
    /// optimal Figure-1 sweep, so large patches hit the witness bound far
    /// more often than in vertex-id order. Callers that can cheaply improve
    /// their odds — e.g. by retrying with a wider region (any superset of
    /// the distance-t closure is sound) or a refreshed bound — chain
    /// attempts and finish with [`fallback_resolve`](Self::fallback_resolve),
    /// which keeps the per-outcome telemetry contract intact: a failed
    /// attempt records *nothing*, a successful one records the region
    /// counters and one [`Counter::RegionRecolors`].
    #[allow(clippy::too_many_arguments)]
    pub fn try_patch_ordered(
        &mut self,
        g: &Graph,
        sep: &SeparationVector,
        prev: &[u32],
        dirty: &[Vertex],
        order: &[Vertex],
        lower_bound: Option<u32>,
        ws: &mut Workspace,
        metrics: &Metrics,
    ) -> Result<IncrementalOutcome, FallbackReason> {
        let n = g.num_vertices();
        debug_assert_eq!(order.len(), dirty.len(), "order must cover the region");
        debug_assert!(
            order.iter().all(|v| dirty.binary_search(v).is_ok()),
            "order must be a permutation of the region"
        );
        assert_eq!(prev.len(), n, "one previous color per vertex");
        debug_assert!(dirty.windows(2).all(|w| w[0] < w[1]), "dirty not sorted");
        if let Some(reason) = self.try_patch_preconditions(n, prev, dirty, lower_bound) {
            return Err(reason);
        }
        let bound = lower_bound.expect("checked by preconditions");
        // Freeze everything, blank the region.
        let mut colors = ws.take_colors(n, 0);
        colors.copy_from_slice(prev);
        for &v in dirty {
            colors[v as usize] = UNCOLORED;
        }
        self.ensure_dist(n);
        let t = sep.t();
        let mut probes = 0u64;
        let mut visits = 0u64;
        // Greedy first-fit inside the region, in caller order. Every
        // constraint between a region vertex and a colored vertex (frozen,
        // or region-and-already-patched) is enforced at assignment time;
        // region pairs where both are still blank are enforced when the
        // second one is assigned — so the patch is valid by construction.
        for &v in order {
            self.walk_ball(g, v, t, &mut visits);
            self.windows.clear();
            for &u in &self.ball {
                let c = colors[u as usize];
                if u == v || c == UNCOLORED {
                    continue;
                }
                let req = sep.delta(self.dist[u as usize]);
                self.windows
                    .push((c.saturating_sub(req - 1), c.saturating_add(req - 1)));
            }
            probes += self.windows.len() as u64;
            self.windows.sort_unstable();
            let mut c = 0u32;
            for &(lo, hi) in &self.windows {
                if lo > c {
                    break;
                }
                if c <= hi {
                    c = hi + 1;
                }
            }
            colors[v as usize] = c;
            self.reset_ball();
        }
        // Local validity re-scan of every recolored constraint (defensive;
        // pairs with both endpoints outside the region are untouched and
        // were valid before the delta).
        let mut valid = true;
        'scan: for &v in dirty {
            self.walk_ball(g, v, t, &mut visits);
            for &u in &self.ball {
                if u == v {
                    continue;
                }
                let gap = colors[v as usize].abs_diff(colors[u as usize]);
                if gap < sep.delta(self.dist[u as usize]) {
                    valid = false;
                    self.reset_ball();
                    break 'scan;
                }
            }
            self.reset_ball();
        }
        if metrics.is_enabled() {
            metrics.add(Counter::PaletteProbes, probes);
            metrics.add(Counter::BfsNodeVisits, visits);
            metrics.add(Counter::NeighborScans, visits);
        }
        if !valid {
            ws.recycle_colors(colors);
            return Err(FallbackReason::InvalidPatch);
        }
        // Span gate: accepting only at the certified lower bound makes the
        // patch provably optimal (see module docs).
        let span = colors.iter().copied().max().unwrap_or(0);
        if span > bound {
            ws.recycle_colors(colors);
            return Err(FallbackReason::SpanAboveBound);
        }
        if metrics.is_enabled() {
            metrics.add(Counter::DirtyVertices, dirty.len() as u64);
            metrics.observe_ns(Hist::RegionSize, dirty.len() as u64);
            metrics.add(Counter::RegionRecolors, 1);
        }
        Ok(IncrementalOutcome {
            labeling: Labeling::new(colors),
            dirty: dirty.len(),
            recolored: dirty.len(),
            frozen: n - dirty.len(),
            fallback: None,
        })
    }

    /// Terminal full resolve of an attempt chain: records the region
    /// counters for the last attempted region plus one
    /// [`Counter::FullResolves`], and wraps the caller's from-scratch
    /// labeling in an [`IncrementalOutcome`]. [`resolve_with`](Self::resolve_with)
    /// routes every failed attempt through here, so telemetry stays
    /// one-outcome-per-epoch however many attempts a caller chains.
    pub fn fallback_resolve<F>(
        &mut self,
        reason: FallbackReason,
        dirty_len: usize,
        full: F,
        ws: &mut Workspace,
        metrics: &Metrics,
    ) -> IncrementalOutcome
    where
        F: FnOnce(&mut Workspace, &Metrics) -> Labeling,
    {
        if metrics.is_enabled() {
            metrics.add(Counter::DirtyVertices, dirty_len as u64);
            metrics.observe_ns(Hist::RegionSize, dirty_len as u64);
        }
        self.fall_back(reason, dirty_len, full, ws, metrics)
    }

    /// Checks everything that must hold before a patch is even attempted.
    fn try_patch_preconditions(
        &self,
        n: usize,
        prev: &[u32],
        dirty: &[Vertex],
        lower_bound: Option<u32>,
    ) -> Option<FallbackReason> {
        if lower_bound.is_none() {
            return Some(FallbackReason::NoLowerBound);
        }
        if dirty.len() as f64 > REGION_THRESHOLD * n as f64 {
            return Some(FallbackReason::RegionTooLarge);
        }
        let mut di = 0usize;
        for (v, &c) in prev.iter().enumerate() {
            while di < dirty.len() && (dirty[di] as usize) < v {
                di += 1;
            }
            let in_region = di < dirty.len() && dirty[di] as usize == v;
            if c == UNCOLORED && !in_region {
                return Some(FallbackReason::UncoloredOutsideRegion);
            }
        }
        None
    }

    fn fall_back<F>(
        &mut self,
        reason: FallbackReason,
        dirty: usize,
        full: F,
        ws: &mut Workspace,
        metrics: &Metrics,
    ) -> IncrementalOutcome
    where
        F: FnOnce(&mut Workspace, &Metrics) -> Labeling,
    {
        let labeling = full(ws, metrics);
        if metrics.is_enabled() {
            metrics.add(Counter::FullResolves, 1);
        }
        let n = labeling.len();
        IncrementalOutcome {
            labeling,
            dirty,
            recolored: n,
            frozen: 0,
            fallback: Some(reason),
        }
    }

    /// Grows the distance array to at least `n`, keeping the all-reset
    /// invariant (entries are only ever dirtied and re-reset ball by ball).
    fn ensure_dist(&mut self, n: usize) {
        if self.dist.len() < n {
            if self.dist.capacity() < n {
                self.grow_events += 1;
            }
            self.dist.resize(n, UNREACHABLE);
        }
    }

    /// Truncated BFS from `v`, leaving distances in `self.dist` and the
    /// visited vertices (including `v`) in `self.ball`. Costs `O(ball)`,
    /// not `O(n)` — the caller must [`reset_ball`](Self::reset_ball) before
    /// the next walk.
    fn walk_ball(&mut self, g: &Graph, v: Vertex, t: u32, visits: &mut u64) {
        self.ball.clear();
        self.queue.clear();
        self.dist[v as usize] = 0;
        self.queue.push_back(v);
        while let Some(u) = self.queue.pop_front() {
            self.ball.push(u);
            *visits += 1;
            let du = self.dist[u as usize];
            if du >= t {
                continue;
            }
            for &w in g.neighbors(u) {
                if self.dist[w as usize] == UNREACHABLE {
                    self.dist[w as usize] = du + 1;
                    self.queue.push_back(w);
                }
            }
        }
    }

    fn reset_ball(&mut self) {
        for &u in &self.ball {
            self.dist[u as usize] = UNREACHABLE;
        }
    }
}

/// Convenience for callers tracking colors slot-by-slot: re-runs
/// [`verify_labeling`](crate::spec::verify_labeling)-style checks only
/// inside `region` (each region vertex against its distance-≤`t` ball), in
/// `O(region · ball)` instead of `O(n · ball)`. Returns the first violated
/// pair as `(u, v)`.
pub fn verify_region(
    g: &Graph,
    sep: &SeparationVector,
    colors: &[u32],
    region: &[Vertex],
) -> Result<(), (Vertex, Vertex)> {
    assert_eq!(colors.len(), g.num_vertices());
    let t = sep.t();
    let mut dist = vec![UNREACHABLE; g.num_vertices()];
    let mut queue = VecDeque::new();
    for &v in region {
        ssg_graph::traversal::bfs_distances_bounded_into(g, v, t, &mut dist, &mut queue);
        for (u, &d) in dist.iter().enumerate() {
            if d == 0 || d == UNREACHABLE {
                continue;
            }
            if colors[v as usize].abs_diff(colors[u]) < sep.delta(d) {
                return Err((v, u as Vertex));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_min_span;
    use crate::spec::verify_labeling;
    use ssg_graph::{dirty_region, GraphBuilder, GraphDelta};

    fn path(n: usize) -> Graph {
        let edges: Vec<_> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    /// Full pipeline: color a path, chord it into a triangle, patch the
    /// region. The new triangle is a clique witness certifying `λ* >= 2`,
    /// the patch lands exactly there, so no full resolve is needed.
    #[test]
    fn patch_on_path_is_optimal_without_full_resolve() {
        let sep = SeparationVector::all_ones(1);
        let g_old = path(20);
        let (old_lab, old_span) = exact_min_span(&g_old, &sep);
        assert_eq!(old_span, 1);
        let mut delta = GraphDelta::new();
        delta.add_edge(4, 6);
        let g_new = GraphBuilder::rebuild_region(&g_old, &delta).unwrap();
        let dirty = dirty_region(&g_new, &delta.addition_seeds(20), sep.t());
        assert_eq!(dirty, vec![3, 4, 5, 6, 7]);
        // The added chord closes the triangle {4, 5, 6}: a certified lower
        // bound of 2 on the patched graph.
        let bound = crate::certificate::CliqueWitness {
            vertices: vec![4, 5, 6],
            t: 1,
        }
        .span_lower_bound();
        assert_eq!(bound, 2);
        let mut inc = IncrementalSolver::new();
        let mut ws = Workspace::new();
        let m = Metrics::enabled();
        let outcome = inc.resolve_with(
            &g_new,
            &sep,
            old_lab.colors(),
            &dirty,
            Some(bound),
            |_, _| panic!("full resolve must not run"),
            &mut ws,
            &m,
        );
        assert_eq!(outcome.fallback, None);
        assert!(verify_labeling(&g_new, &sep, outcome.labeling.colors()).is_ok());
        let (_, fresh_span) = exact_min_span(&g_new, &sep);
        assert_eq!(outcome.labeling.span(), fresh_span);
        assert_eq!(outcome.recolored, dirty.len());
        assert_eq!(outcome.frozen, 20 - dirty.len());
        let snap = m.snapshot();
        assert_eq!(snap.counter(Counter::RegionRecolors), 1);
        assert_eq!(snap.counter(Counter::FullResolves), 0);
        assert_eq!(snap.counter(Counter::DirtyVertices), dirty.len() as u64);
        assert_eq!(snap.hist(Hist::RegionSize).count(), 1);
        assert_eq!(snap.hist(Hist::RegionSize).max(), dirty.len() as u64);
    }

    #[test]
    fn no_lower_bound_forces_full_resolve() {
        let sep = SeparationVector::all_ones(2);
        let g = path(6);
        let (lab, span) = exact_min_span(&g, &sep);
        let mut inc = IncrementalSolver::new();
        let mut ws = Workspace::new();
        let m = Metrics::enabled();
        let outcome = inc.resolve_with(
            &g,
            &sep,
            lab.colors(),
            &[],
            None,
            |_ws, m| {
                let (lab, _) = crate::exact::exact_min_span_with(&g, &sep, m);
                lab
            },
            &mut ws,
            &m,
        );
        assert_eq!(outcome.fallback, Some(FallbackReason::NoLowerBound));
        assert_eq!(outcome.labeling.span(), span);
        assert_eq!(m.snapshot().counter(Counter::FullResolves), 1);
        assert_eq!(m.snapshot().counter(Counter::RegionRecolors), 0);
    }

    #[test]
    fn oversized_region_falls_back() {
        let sep = SeparationVector::all_ones(1);
        let g = path(8);
        let prev = vec![0u32; 8];
        let dirty: Vec<Vertex> = (0..8).collect();
        let mut inc = IncrementalSolver::new();
        let mut ws = Workspace::new();
        let outcome = inc.resolve_with(
            &g,
            &sep,
            &prev,
            &dirty,
            Some(1),
            |_ws, m| {
                let (lab, _) = crate::exact::exact_min_span_with(&g, &sep, m);
                lab
            },
            &mut ws,
            &Metrics::disabled(),
        );
        assert_eq!(outcome.fallback, Some(FallbackReason::RegionTooLarge));
        assert!(verify_labeling(&g, &sep, outcome.labeling.colors()).is_ok());
    }

    #[test]
    fn uncolored_outside_region_falls_back() {
        let sep = SeparationVector::all_ones(1);
        let g = path(4);
        let prev = vec![0, UNCOLORED, 1, 0];
        let mut inc = IncrementalSolver::new();
        let mut ws = Workspace::new();
        let outcome = inc.resolve_with(
            &g,
            &sep,
            &prev,
            &[3],
            Some(1),
            |_ws, m| {
                let (lab, _) = crate::exact::exact_min_span_with(&g, &sep, m);
                lab
            },
            &mut ws,
            &Metrics::disabled(),
        );
        assert_eq!(
            outcome.fallback,
            Some(FallbackReason::UncoloredOutsideRegion)
        );
    }

    #[test]
    fn span_above_bound_falls_back_to_full() {
        // Join two colored halves with a new edge; freezing everything
        // outside a tiny region cannot reach the bound, so the gate trips.
        let sep = SeparationVector::all_ones(1);
        let g_old = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        // Valid for the old graph: the components are independent.
        let prev = vec![0, 1, 1, 0];
        let mut delta = GraphDelta::new();
        delta.add_edge(1, 2);
        let g_new = GraphBuilder::rebuild_region(&g_old, &delta).unwrap();
        let dirty = dirty_region(&g_new, &delta.addition_seeds(4), sep.t());
        let mut inc = IncrementalSolver::new();
        let mut ws = Workspace::new();
        let m = Metrics::enabled();
        let outcome = inc.resolve_with(
            &g_new,
            &sep,
            &prev,
            &dirty,
            Some(1),
            |_ws, m| {
                let (lab, _) = crate::exact::exact_min_span_with(&g_new, &sep, m);
                lab
            },
            &mut ws,
            &m,
        );
        // The region cap or the span gate trips — either way the full
        // resolve must run and win.
        assert!(outcome.full_resolve());
        assert!(verify_labeling(&g_new, &sep, outcome.labeling.colors()).is_ok());
        let (_, fresh) = exact_min_span(&g_new, &sep);
        assert_eq!(outcome.labeling.span(), fresh);
        assert_eq!(m.snapshot().counter(Counter::FullResolves), 1);
    }

    #[test]
    fn warm_solver_scratch_does_not_regrow() {
        let sep = SeparationVector::two(2, 1).unwrap();
        let g = path(30);
        let (lab, span) = exact_min_span(&g, &sep);
        let mut inc = IncrementalSolver::new();
        let mut ws = Workspace::new();
        let dirty = dirty_region(&g, &[14, 15], sep.t());
        let run = |inc: &mut IncrementalSolver, ws: &mut Workspace| {
            let outcome = inc.resolve_with(
                &g,
                &sep,
                lab.colors(),
                &dirty,
                Some(span),
                |_, _| panic!("patch expected"),
                ws,
                &Metrics::disabled(),
            );
            ws.recycle(outcome.labeling);
        };
        run(&mut inc, &mut ws);
        let grows = inc.grow_events();
        let footprint = inc.capacity_footprint();
        for _ in 0..5 {
            run(&mut inc, &mut ws);
        }
        assert_eq!(inc.grow_events(), grows);
        assert_eq!(inc.capacity_footprint(), footprint);
    }

    #[test]
    fn verify_region_finds_local_violations() {
        let sep = SeparationVector::two(2, 1).unwrap();
        let g = path(5);
        let good = [0, 2, 4, 0, 2];
        assert!(verify_region(&g, &sep, &good, &[0, 1, 2, 3, 4]).is_ok());
        let bad = [0, 1, 4, 0, 2];
        assert_eq!(verify_region(&g, &sep, &bad, &[0]), Err((0, 1)));
        // A region that excludes both endpoints misses it by design.
        assert!(verify_region(&g, &sep, &bad, &[3, 4]).is_ok());
    }
}
