//! # ssg-simplicial
//!
//! The paper's §2 theory: `t`-simplicial and strongly-simplicial vertices,
//! elimination orders built from them, and the generic Lemma-2 greedy solver
//! for optimal `L(1,...,1)`-colorings on any graph class in which every
//! induced subgraph has a `t`-simplicial vertex.
//!
//! A vertex `x` is *t-simplicial* when every two vertices within distance
//! `t` of `x` are also within distance `t` of each other (equivalently,
//! `N_t[x]` is a clique of the augmented graph `A_{G,t}`). It is
//! *strongly-simplicial* when it is `t`-simplicial for every `t`.
//!
//! These definitions are implemented directly (BFS-based, polynomial) and
//! serve as the *oracle layer*: the fast specialized algorithms in
//! `ssg-labeling` are differentially tested against [`peel_l1_coloring`],
//! which is a literal rendering of Lemma 2's inductive argument.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ssg_graph::scratch::BfsScratch;
use ssg_graph::traversal::{bfs_distances_bounded_into, eccentricity, UNREACHABLE};
use ssg_graph::{Graph, Vertex};
use ssg_telemetry::{Counter, Metrics};
use std::collections::VecDeque;

/// Reusable scratch arena for [`peel_l1_coloring_ws`]: the color output
/// pool, the active-prefix mask, the mex bitmap and the truncated-BFS
/// buffers. A warm scratch re-runs the peel on a same-sized graph with
/// zero heap allocation; the `Workspace` arena in `ssg-labeling` embeds
/// one and threads it through the registry's Lemma-2 solver.
#[derive(Debug, Default)]
pub struct PeelScratch {
    free: Vec<Vec<u32>>,
    active: Vec<bool>,
    forbidden: Vec<bool>,
    bfs: BfsScratch,
    solves: u64,
    grow_events: u64,
}

impl PeelScratch {
    /// An empty scratch; all buffers are grown on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the start of one solve. The second and later calls on the
    /// same scratch record one [`Counter::WorkspaceReuses`] each: the
    /// arena is warm and the solve amortizes its allocations.
    pub fn begin_solve(&mut self, metrics: &Metrics) {
        if self.solves > 0 && metrics.is_enabled() {
            metrics.add(Counter::WorkspaceReuses, 1);
        }
        self.solves += 1;
    }

    /// Number of solves started on this scratch.
    pub fn solve_count(&self) -> u64 {
        self.solves
    }

    /// How many times a buffer had to grow beyond its capacity. Stable
    /// across warm same-sized solves.
    pub fn grow_events(&self) -> u64 {
        self.grow_events + self.bfs.grow_events()
    }

    /// Sum of all buffer capacities in elements — equal footprints across
    /// repeated same-sized solves certify zero reallocation.
    pub fn capacity_footprint(&self) -> usize {
        self.free.capacity()
            + self.free.iter().map(Vec::capacity).sum::<usize>()
            + self.active.capacity()
            + self.forbidden.capacity()
            + self.bfs.capacity_footprint()
    }

    /// A color buffer of length `n` filled with `u32::MAX`, drawn from the
    /// free list when possible.
    fn take_colors(&mut self, n: usize) -> Vec<u32> {
        let mut v = match self.free.pop() {
            Some(v) => v,
            None => {
                self.grow_events += 1;
                Vec::new()
            }
        };
        if v.capacity() < n {
            self.grow_events += 1;
        }
        v.clear();
        v.resize(n, u32::MAX);
        v
    }

    /// Returns a color buffer (e.g. the output of a previous
    /// [`peel_l1_coloring_ws`] call) to the free list for reuse.
    pub fn recycle_colors(&mut self, mut colors: Vec<u32>) {
        colors.clear();
        self.free.push(colors);
    }
}

/// Whether `x` is `t`-simplicial in `g`: all pairs in the distance-`t` ball
/// of `x` are mutually within distance `t`. `O(|ball| * (n + m))`.
///
/// ```
/// use ssg_graph::generators;
/// use ssg_simplicial::is_t_simplicial;
/// let p4 = generators::path(4);
/// assert!(is_t_simplicial(&p4, 0, 1));   // a leaf
/// assert!(!is_t_simplicial(&p4, 1, 1));  // an inner vertex
/// assert!(is_t_simplicial(&p4, 1, 3));   // ...until t spans the graph
/// ```
pub fn is_t_simplicial(g: &Graph, x: Vertex, t: u32) -> bool {
    assert!(t >= 1);
    let n = g.num_vertices();
    let mut dist = vec![UNREACHABLE; n];
    let mut queue = VecDeque::new();
    bfs_distances_bounded_into(g, x, t, &mut dist, &mut queue);
    let ball: Vec<Vertex> = (0..n as Vertex)
        .filter(|&v| v != x && dist[v as usize] != UNREACHABLE)
        .collect();
    let mut d2 = vec![UNREACHABLE; n];
    for (idx, &u) in ball.iter().enumerate() {
        bfs_distances_bounded_into(g, u, t, &mut d2, &mut queue);
        for &v in &ball[idx + 1..] {
            if d2[v as usize] == UNREACHABLE {
                return false;
            }
        }
    }
    true
}

/// Whether `x` is strongly-simplicial: `t`-simplicial for every `t >= 1`.
/// Only `t` up to the eccentricity of `x` matter (larger radii change
/// nothing: the ball is the whole component and stays one), so those are the
/// values checked.
pub fn is_strongly_simplicial(g: &Graph, x: Vertex) -> bool {
    let ecc = eccentricity(g, x).max(1);
    (1..=ecc).all(|t| is_t_simplicial(g, x, t))
}

/// Finds any `t`-simplicial vertex of `g`, or `None` if there is none
/// (e.g. `C_8` with `t = 1`).
pub fn find_t_simplicial(g: &Graph, t: u32) -> Option<Vertex> {
    g.vertices().find(|&v| is_t_simplicial(g, v, t))
}

/// A `t`-simplicial elimination order: processing the returned order
/// forwards peels a `t`-simplicial vertex of the *remaining* induced
/// subgraph each time. Returns `None` when some intermediate induced
/// subgraph has no `t`-simplicial vertex.
///
/// This is the existence test behind Lemma 2: classes closed under induced
/// subgraphs whose members always have a `t`-simplicial vertex (trees,
/// interval graphs) always yield an order. Cost is heavily superlinear —
/// oracle/test use only.
pub fn t_simplicial_elimination_order(g: &Graph, t: u32) -> Option<Vec<Vertex>> {
    let n = g.num_vertices();
    let mut order = Vec::with_capacity(n);
    let mut current = g.clone();
    // map current-graph index -> original vertex
    let mut names: Vec<Vertex> = (0..n as Vertex).collect();
    let mut remaining: Vec<Vertex> = Vec::with_capacity(n);
    while !names.is_empty() {
        let found = (0..names.len() as Vertex).find(|&v| is_t_simplicial(&current, v, t))?;
        order.push(names[found as usize]);
        remaining.clear();
        remaining.extend((0..names.len() as Vertex).filter(|&v| v != found));
        let (next, kept) = current.induced_subgraph(&remaining);
        names = kept.iter().map(|&v| names[v as usize]).collect();
        current = next;
    }
    Some(order)
}

/// Whether removing `x` preserves the distance-`t` relation among the other
/// vertices: every pair `u, w != x` with `d_G(u, w) <= t` still satisfies
/// `d_{G-x}(u, w) <= t`.
///
/// This is an *implicit* precondition of the paper's Lemma 2 that the stated
/// proof glosses over: a merely `t`-simplicial vertex can be a distance
/// cut-vertex (the center of a star is 2-simplicial, yet removing it leaves
/// the leaves — pairwise at distance 2 — mutually unreachable, so the
/// inductive coloring of `G'` is free to reuse one color on all of them and
/// the extension is illegal in `G`). The vertices the paper actually peels —
/// the max-left-endpoint interval (Lemma 3) and the deepest tree vertex
/// (Lemma 5) — always satisfy this extra property, so Theorems 1 and 4 are
/// unaffected; the generic oracle must check it explicitly.
pub fn is_distance_safe_removal(g: &Graph, x: Vertex, t: u32) -> bool {
    let n = g.num_vertices();
    let mut dist = vec![UNREACHABLE; n];
    let mut queue = VecDeque::new();
    bfs_distances_bounded_into(g, x, t, &mut dist, &mut queue);
    let ball: Vec<Vertex> = (0..n as Vertex)
        .filter(|&v| v != x && dist[v as usize] != UNREACHABLE)
        .collect();
    // Only pairs inside the ball of x can have a (<= t)-path through x, so it
    // suffices to check those against BFS in G - x.
    let mut d2 = vec![UNREACHABLE; n];
    let mut dg = vec![UNREACHABLE; n];
    for (idx, &u) in ball.iter().enumerate() {
        bfs_distances_bounded_into(g, u, t, &mut dg, &mut queue);
        // BFS from u avoiding x.
        d2.fill(UNREACHABLE);
        queue.clear();
        d2[u as usize] = 0;
        queue.push_back(u);
        while let Some(a) = queue.pop_front() {
            let da = d2[a as usize];
            if da >= t {
                continue;
            }
            for &b in g.neighbors(a) {
                if b != x && d2[b as usize] == UNREACHABLE {
                    d2[b as usize] = da + 1;
                    queue.push_back(b);
                }
            }
        }
        for &w in &ball[idx + 1..] {
            if dg[w as usize] != UNREACHABLE && d2[w as usize] == UNREACHABLE {
                return false;
            }
        }
    }
    true
}

/// Like [`t_simplicial_elimination_order`] but each peeled vertex must also
/// pass [`is_distance_safe_removal`], which is what Lemma 2's induction
/// actually needs (see that function's docs). Orders returned here make
/// [`peel_l1_coloring`] provably optimal.
pub fn safe_t_simplicial_elimination_order(g: &Graph, t: u32) -> Option<Vec<Vertex>> {
    let n = g.num_vertices();
    let mut order = Vec::with_capacity(n);
    let mut current = g.clone();
    let mut names: Vec<Vertex> = (0..n as Vertex).collect();
    let mut remaining: Vec<Vertex> = Vec::with_capacity(n);
    while !names.is_empty() {
        let found = (0..names.len() as Vertex).find(|&v| {
            is_t_simplicial(&current, v, t) && is_distance_safe_removal(&current, v, t)
        })?;
        order.push(names[found as usize]);
        remaining.clear();
        remaining.extend((0..names.len() as Vertex).filter(|&v| v != found));
        let (next, kept) = current.induced_subgraph(&remaining);
        names = kept.iter().map(|&v| names[v as usize]).collect();
        current = next;
    }
    Some(order)
}

/// The coloring produced by Lemma 2's induction: vertices of `insertion`
/// are added one at a time (each must be `t`-simplicial in the graph induced
/// by the prefix including it, *and* its removal from that prefix must be
/// distance-safe — see [`is_distance_safe_removal`]), and each new vertex
/// receives the smallest color unused within distance `t` **in the
/// prefix-induced subgraph**.
///
/// When the precondition holds, the result is an optimal
/// `L(1,...,1)`-coloring (Lemma 2). The precondition is *not* checked here —
/// pass orders from [`safe_t_simplicial_elimination_order`] (reversed), tree
/// BFS orders (Lemma 5), or interval left-endpoint orders (Lemma 3); the
/// latter two preserve prefix distances structurally.
///
/// Returns `(colors, span)`. `O(n * ball_t)` time.
pub fn peel_l1_coloring(g: &Graph, t: u32, insertion: &[Vertex]) -> (Vec<u32>, u32) {
    peel_l1_coloring_ws(
        g,
        t,
        insertion,
        &mut PeelScratch::new(),
        &Metrics::disabled(),
    )
}

/// [`peel_l1_coloring`] on a caller-owned [`PeelScratch`], with telemetry:
/// records one [`Counter::PeelSteps`] per inserted vertex, one
/// [`Counter::BfsNodeVisits`] and one [`Counter::NeighborScans`] per vertex
/// dequeued by the prefix-restricted BFS runs (each dequeue walks one
/// contiguous CSR neighbor slice), and one [`Counter::PaletteProbes`] per
/// slot examined by the minimum-excludant color scan. Repeated solves on
/// same-sized graphs reuse every buffer (zero heap allocation once warm)
/// and record [`Counter::WorkspaceReuses`]. Hand the returned color buffer
/// back via [`PeelScratch::recycle_colors`] to keep the warm path
/// allocation-free.
pub fn peel_l1_coloring_ws(
    g: &Graph,
    t: u32,
    insertion: &[Vertex],
    ws: &mut PeelScratch,
    metrics: &Metrics,
) -> (Vec<u32>, u32) {
    assert!(t >= 1);
    ws.begin_solve(metrics);
    let n = g.num_vertices();
    assert_eq!(
        insertion.len(),
        n,
        "insertion order must cover all vertices"
    );
    let mut colors = ws.take_colors(n);
    let PeelScratch {
        active,
        forbidden,
        bfs,
        grow_events,
        ..
    } = ws;
    if active.capacity() < n {
        *grow_events += 1;
    }
    active.clear();
    active.resize(n, false);
    if forbidden.capacity() < n + 1 {
        *grow_events += 1;
    }
    let (dist, queue) = bfs.buffers(n);
    let mut span = 0u32;
    let mut bfs_visits = 0u64;
    let mut mex_probes = 0u64;
    for &v in insertion {
        assert!(!active[v as usize], "duplicate vertex in insertion order");
        active[v as usize] = true;
        // BFS from v restricted to active vertices, truncated at t.
        dist.fill(UNREACHABLE);
        queue.clear();
        dist[v as usize] = 0;
        queue.push_back(v);
        forbidden.clear();
        forbidden.resize(n + 1, false);
        while let Some(u) = queue.pop_front() {
            bfs_visits += 1;
            let du = dist[u as usize];
            if du >= t {
                continue;
            }
            for &w in g.neighbors(u) {
                if active[w as usize] && dist[w as usize] == UNREACHABLE {
                    dist[w as usize] = du + 1;
                    queue.push_back(w);
                    let c = colors[w as usize];
                    if c != u32::MAX {
                        forbidden[c as usize] = true;
                    }
                }
            }
        }
        let mex = forbidden
            .iter()
            .position(|&b| !b)
            .expect("n+1 slots always leave a free color") as u32;
        mex_probes += mex as u64 + 1;
        colors[v as usize] = mex;
        span = span.max(mex);
    }
    if metrics.is_enabled() {
        metrics.add(Counter::PeelSteps, n as u64);
        metrics.add(Counter::BfsNodeVisits, bfs_visits);
        metrics.add(Counter::NeighborScans, bfs_visits);
        metrics.add(Counter::PaletteProbes, mex_probes);
    }
    (colors, span)
}

/// Optimal `L(1,...,1)` span via peeling: convenience wrapper returning only
/// the span (`λ*_{G,t}` whenever `insertion` satisfies Lemma 2).
pub fn peel_lambda_star(g: &Graph, t: u32, insertion: &[Vertex]) -> u32 {
    peel_l1_coloring(g, t, insertion).1
}

/// Lemma 1: the largest color of any `L(δ1,...,δt)`-coloring is at least
/// `max_i δi * λ*_{G,i}`. The caller supplies `lambda_star[i - 1] = λ*_{G,i}`
/// for `i = 1..=t` (computed with whatever exact method suits the class).
pub fn lemma1_lower_bound(deltas: &[u32], lambda_star: &[u32]) -> u64 {
    assert_eq!(deltas.len(), lambda_star.len());
    deltas
        .iter()
        .zip(lambda_star)
        .map(|(&d, &l)| d as u64 * l as u64)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssg_graph::generators;

    #[test]
    fn leaf_of_path_is_strongly_simplicial() {
        let g = generators::path(6);
        assert!(is_strongly_simplicial(&g, 0));
        assert!(is_strongly_simplicial(&g, 5));
        // Interior vertex 2: neighbors 1 and 3 are at distance 2 from each
        // other — not 1-simplicial.
        assert!(!is_t_simplicial(&g, 2, 1));
        // But it is 5-simplicial (whole graph within distance 5).
        assert!(is_t_simplicial(&g, 2, 5));
    }

    #[test]
    fn cycle_has_no_small_t_simplicial_vertex() {
        let g = generators::cycle(8);
        for t in 1..=2u32 {
            assert_eq!(find_t_simplicial(&g, t), None, "t={t}");
        }
        // t = 4 >= diameter: every vertex qualifies.
        assert!(is_t_simplicial(&g, 0, 4));
    }

    #[test]
    fn complete_graph_every_vertex_strongly_simplicial() {
        let g = generators::complete(5);
        for v in 0..5 {
            assert!(is_strongly_simplicial(&g, v));
        }
    }

    #[test]
    fn paper_lemma5_deepest_tree_vertex() {
        // Lemma 5: any deepest vertex of a tree is strongly-simplicial.
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..15 {
            let g = generators::random_tree(25, &mut rng);
            let tree = ssg_tree::RootedTree::bfs_canonical(&g, 0).unwrap();
            // Deepest canonical vertex is the last one; map back to g's ids.
            let deepest = tree.original_id(tree.len() as Vertex - 1);
            assert!(is_strongly_simplicial(&g, deepest));
        }
    }

    #[test]
    fn paper_lemma3_max_left_endpoint_interval_vertex() {
        // Lemma 3: the interval with maximum left endpoint is
        // strongly-simplicial.
        let mut rng = StdRng::seed_from_u64(32);
        for _ in 0..15 {
            let rep = ssg_intervals::gen::random_connected_intervals(20, 0.8, 1.0, 4.0, &mut rng);
            let g = rep.to_graph();
            // Vertices are numbered by increasing left endpoint: the last one.
            assert!(is_strongly_simplicial(&g, 19));
        }
    }

    #[test]
    fn elimination_order_exists_for_trees_and_intervals() {
        let mut rng = StdRng::seed_from_u64(33);
        for t in 1..=3u32 {
            let g = generators::random_tree(12, &mut rng);
            assert!(
                t_simplicial_elimination_order(&g, t).is_some(),
                "tree t={t}"
            );
            let rep = ssg_intervals::gen::random_connected_intervals(10, 0.7, 1.0, 3.0, &mut rng);
            assert!(
                t_simplicial_elimination_order(&rep.to_graph(), t).is_some(),
                "interval t={t}"
            );
        }
        assert!(t_simplicial_elimination_order(&generators::cycle(8), 1).is_none());
    }

    #[test]
    fn peeling_reaches_clique_lower_bound_on_small_classes() {
        let mut rng = StdRng::seed_from_u64(34);
        for _ in 0..10 {
            let g = generators::random_tree(14, &mut rng);
            for t in 1..=3u32 {
                let order = {
                    let mut o = safe_t_simplicial_elimination_order(&g, t).unwrap();
                    o.reverse(); // insertion order = reverse elimination
                    o
                };
                let (colors, span) = peel_l1_coloring(&g, t, &order);
                // legal w.r.t. A_{G,t}: distinct colors within distance t.
                let a = ssg_graph::augmented_graph(&g, t);
                for (u, v) in a.edges() {
                    assert_ne!(colors[u as usize], colors[v as usize]);
                }
                let omega = ssg_graph::power::max_clique_bruteforce(&a) as u32;
                assert_eq!(span + 1, omega, "span must equal clique bound, t={t}");
            }
        }
    }

    #[test]
    fn peeling_interval_left_endpoint_order_is_optimal() {
        let mut rng = StdRng::seed_from_u64(35);
        for _ in 0..10 {
            let rep = ssg_intervals::gen::random_connected_intervals(12, 0.8, 1.0, 4.0, &mut rng);
            let g = rep.to_graph();
            for t in 1..=3u32 {
                // Lemma 3: identity order (increasing left endpoints) works.
                let order: Vec<Vertex> = (0..12).collect();
                let (_, span) = peel_l1_coloring(&g, t, &order);
                let a = ssg_graph::augmented_graph(&g, t);
                let omega = ssg_graph::power::max_clique_bruteforce(&a) as u32;
                assert_eq!(span + 1, omega, "t={t}");
            }
        }
    }

    #[test]
    fn star_center_shows_lemma2_needs_distance_safety() {
        // The center of K_{1,4} is 2-simplicial (every pair of leaves is at
        // distance 2), but removing it disconnects the leaves: a plain
        // t-simplicial peel would color all leaves 0 and then fail. This is
        // the counterexample motivating is_distance_safe_removal.
        let g = generators::star(5);
        assert!(is_t_simplicial(&g, 0, 2));
        assert!(!is_distance_safe_removal(&g, 0, 2));
        // Leaves are safe to remove.
        assert!(is_distance_safe_removal(&g, 3, 2));
        // And the illegal coloring really happens with the naive order
        // "center last": leaves first (all color 0), then the center.
        let (colors, _) = peel_l1_coloring(&g, 2, &[1, 2, 3, 4, 0]);
        let a = ssg_graph::augmented_graph(&g, 2);
        let illegal = a
            .edges()
            .any(|(u, v)| colors[u as usize] == colors[v as usize]);
        assert!(illegal, "naive Lemma-2 order must misbehave here");
        // With the safe order (delivered by safe_t_simplicial_elimination_
        // order) the coloring is legal and optimal.
        let mut safe = safe_t_simplicial_elimination_order(&g, 2).unwrap();
        safe.reverse();
        let (colors, span) = peel_l1_coloring(&g, 2, &safe);
        for (u, v) in a.edges() {
            assert_ne!(colors[u as usize], colors[v as usize]);
        }
        assert_eq!(span, 4); // K_{1,4} at t=2 is K_5
    }

    #[test]
    fn lemma1_bound_values() {
        assert_eq!(lemma1_lower_bound(&[2, 1], &[3, 5]), 6);
        assert_eq!(lemma1_lower_bound(&[5, 1], &[1, 9]), 9);
        assert_eq!(lemma1_lower_bound(&[], &[]), 0);
    }

    #[test]
    #[should_panic(expected = "insertion order must cover all vertices")]
    fn peel_rejects_short_orders() {
        let g = generators::path(3);
        peel_l1_coloring(&g, 1, &[0, 1]);
    }

    #[test]
    fn warm_peel_scratch_is_bit_identical_and_allocation_free() {
        let g = generators::path(40);
        let order: Vec<Vertex> = (0..40).collect();
        let baseline_metrics = Metrics::enabled();
        let baseline =
            peel_l1_coloring_ws(&g, 2, &order, &mut PeelScratch::new(), &baseline_metrics);
        let baseline_snap = baseline_metrics.snapshot();

        let mut ws = PeelScratch::new();
        // Cold solve: identical outputs and counters, no reuse recorded.
        let cold_metrics = Metrics::enabled();
        let cold = peel_l1_coloring_ws(&g, 2, &order, &mut ws, &cold_metrics);
        assert_eq!(cold, baseline);
        assert_eq!(cold_metrics.snapshot(), baseline_snap);
        ws.recycle_colors(cold.0);
        let footprint = ws.capacity_footprint();
        let grows = ws.grow_events();

        // Warm solves: same outputs/counters plus one WorkspaceReuses, and
        // no buffer growth.
        for _ in 0..3 {
            let m = Metrics::enabled();
            let warm = peel_l1_coloring_ws(&g, 2, &order, &mut ws, &m);
            assert_eq!(warm.0, baseline.0);
            assert_eq!(warm.1, baseline.1);
            let snap = m.snapshot();
            assert_eq!(snap.counter(Counter::WorkspaceReuses), 1);
            for c in [Counter::PeelSteps, Counter::BfsNodeVisits, Counter::PaletteProbes] {
                assert_eq!(snap.counter(c), baseline_snap.counter(c));
            }
            ws.recycle_colors(warm.0);
            assert_eq!(ws.capacity_footprint(), footprint);
            assert_eq!(ws.grow_events(), grows);
        }
    }
}
