//! The paper's interval-graph algorithms:
//!
//! * [`l1_coloring`] — `Interval-L(1,...,1)-coloring` (Figure 1, Theorem 1):
//!   optimal, `O(nt)` given the sorted interval representation.
//! * [`approx_delta1_coloring`] — `Interval-L(δ1,1,...,1)-coloring`
//!   (§3.2, Theorem 2): legal coloring with largest color at most
//!   `λ*_{G,t} + 2(δ1-1) λ*_{G,1}`, a 3-approximation.
//! * [`lambda_star`] — the optimal span `λ*_{G,t}` alone, counted in
//!   `O(nt)` without a palette.
//!
//! Both sweeps color a disconnected input in one pass. Vertices of
//! different components are never within distance `t`, so at a *gap* (a
//! left endpoint with no interval open) a sweep restarts its palettes
//! exactly as a run on the next component alone would start them, and
//! keeps only the largest color and the probe tallies.

use crate::spec::{theorem_bound, Labeling};
use crate::workspace::{ensure_u32, Workspace};
use ssg_graph::Vertex;
use ssg_intervals::{Endpoint, IntervalRepresentation};
use ssg_telemetry::{Counter, Metrics};

/// Result of the optimal `L(1,...,1)` interval coloring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalL1Output {
    /// The coloring (indexed by the representation's vertex numbering).
    pub labeling: Labeling,
    /// `λ*_{G,t}` — the optimal span (equals `labeling.span()` whenever the
    /// graph is non-empty).
    pub lambda_star: u32,
}

/// `Interval-L(1,...,1)-coloring` (Figure 1). Optimal for any interval
/// graph; each component of a disconnected input is colored as it would be
/// on its own, from a shared color pool, which is optimal because vertices
/// of different components are never within distance `t`.
///
/// `O(nt)` after the `O(n log n)` normalization already stored in `rep`.
///
/// ```
/// use ssg_intervals::IntervalRepresentation;
/// use ssg_labeling::interval::l1_coloring;
/// // Three mutually overlapping intervals and a fourth further out.
/// let rep = IntervalRepresentation::from_floats(&[
///     (0.0, 3.0), (1.0, 4.0), (2.0, 5.0), (4.5, 6.0),
/// ]).unwrap();
/// let out = l1_coloring(&rep, 1);
/// assert_eq!(out.lambda_star, 2); // clique of size 3
/// let out = l1_coloring(&rep, 2);
/// assert_eq!(out.lambda_star, 3); // everything within distance 2
/// ```
pub fn l1_coloring(rep: &IntervalRepresentation, t: u32) -> IntervalL1Output {
    l1_coloring_ws(rep, t, &mut Workspace::new(), &Metrics::disabled())
}

/// [`l1_coloring`] on a caller-owned [`Workspace`], with telemetry: records
/// one [`Counter::PeelSteps`] per colored vertex and the palette probes of
/// the sweep on `metrics`. Repeated solves on same-sized representations,
/// connected or not, reuse every scratch buffer (zero heap allocation once
/// warm) and record [`Counter::WorkspaceReuses`]. Recycle the output via
/// [`Workspace::recycle`] to keep the warm path allocation-free.
pub fn l1_coloring_ws(
    rep: &IntervalRepresentation,
    t: u32,
    ws: &mut Workspace,
    metrics: &Metrics,
) -> IntervalL1Output {
    assert!(t >= 1, "interference radius t must be >= 1");
    ws.begin_solve(metrics);
    let _span = metrics.span("interval.sweep");
    let n = rep.len();
    let mut colors = ws.take_colors(n, u32::MAX);
    let Workspace {
        palette: palettes,
        deps,
        grow_events,
        ..
    } = ws;
    palettes.reset(0);
    // L_v: colors currently "depending on" interval v. A component grows at
    // most one color per vertex, so colors stay below n.
    deps.reset(n, n, grow_events);
    let mut lambda_star = 0u32;
    let mut max_r = 0u32;
    let mut deep: Vertex = 0;
    let mut open = 0usize;
    for &ev in rep.events() {
        match ev {
            Endpoint::Left(v) => {
                if open == 0 && v > 0 {
                    palettes.restart(0); // a gap: the next component starts afresh
                }
                if palettes.is_empty() {
                    // The new color's id is this component's λ so far.
                    lambda_star = lambda_star.max(palettes.grow());
                }
                let c = palettes.pop().expect("P_0 was just refilled");
                colors[v as usize] = c;
                palettes.set_level(c, t);
                deps.push(v, c);
                if rep.right(v) > max_r {
                    max_r = rep.right(v);
                    deep = v;
                }
                open += 1;
            }
            Endpoint::Right(v) => {
                open -= 1;
                while let Some(c) = deps.pop_front(v) {
                    if palettes.descend(c) == 0 {
                        palettes.link(c);
                    } else if deep != v {
                        deps.push(deep, c);
                    } else {
                        // deep == v only when v closes its component: the
                        // color will not be needed again there, so dropping
                        // the dependency is safe.
                        debug_assert_eq!(open, 0);
                    }
                }
            }
        }
    }
    if metrics.is_enabled() {
        metrics.add(Counter::PeelSteps, n as u64);
        metrics.add(Counter::PaletteProbes, palettes.probe_count());
        metrics.add(Counter::PaletteWordScans, palettes.word_scan_count());
    }
    IntervalL1Output {
        labeling: Labeling::new(colors),
        lambda_star,
    }
}

/// The optimal span `λ*_{G,t}`, counted without coloring in `O(nt)`. By
/// Theorem 1 and Lemma 3 it is the size of the largest prefix ball
/// `{u <= v : d(u, v) <= t}`, minus one: the clique that
/// [`interval_clique_witness`](crate::certificate::interval_clique_witness)
/// extracts.
///
/// ```
/// use ssg_intervals::IntervalRepresentation;
/// use ssg_labeling::interval::{l1_coloring, lambda_star};
/// let rep = IntervalRepresentation::from_floats(&[
///     (0.0, 3.0), (1.0, 4.0), (2.0, 5.0), (4.5, 6.0),
/// ]).unwrap();
/// assert_eq!(lambda_star(&rep, 1), 2);
/// assert_eq!(lambda_star(&rep, 2), l1_coloring(&rep, 2).lambda_star);
/// ```
pub fn lambda_star(rep: &IntervalRepresentation, t: u32) -> u32 {
    count_lambda_star(rep, t, &mut Workspace::new()).0
}

/// [`lambda_star`] on the workspace's rank buffers, returned with
/// `λ*_{G,1} = ω(G) - 1`, which the reach pass counts on the way.
///
/// Let `R⁰(u) = right(u)`, and let `Rⁱ(u)` be the largest right endpoint
/// among the intervals that open before `Rⁱ⁻¹(u)`. Vertices `u < v` are
/// within distance `t` iff `left(v) < R^{t-1}(u)`, so the prefix ball of
/// `v` is the set of ranges `[left(u), R^{t-1}(u))` open at `left(v)`. One
/// pass records the prefix maxima `reach` and the widest clique, and one
/// sweep opens each range at its left endpoint and closes it at its reach.
fn count_lambda_star(rep: &IntervalRepresentation, t: u32, ws: &mut Workspace) -> (u32, u32) {
    assert!(t >= 1, "interference radius t must be >= 1");
    let events = rep.events();
    // Both halves are indexed by rank 1..=2n; event k has rank k + 1.
    let ranks = events.len() + 1;
    let Workspace {
        ranks: buf,
        grow_events,
        ..
    } = ws;
    ensure_u32(buf, 2 * ranks, 0, grow_events);
    let (reach, closes) = buf.split_at_mut(ranks);
    // reach[k]: the largest right endpoint among intervals opening before k.
    // Both passes are branch-free in the endpoint kind: a right endpoint's
    // interval opened earlier, so it never raises `max_r`, and no range
    // closes at a left endpoint, so `closes` is zero there.
    let mut max_r = 0;
    let (mut open, mut clique) = (0u32, 0u32);
    for (k, &ev) in events.iter().enumerate() {
        reach[k + 1] = max_r;
        let (v, left) = split(ev);
        max_r = max_r.max(rep.right(v));
        open = open + 2 * u32::from(left) - 1;
        clique = clique.max(open);
    }
    let mut widest = 0u32;
    for (k, &ev) in events.iter().enumerate() {
        let (u, left) = split(ev);
        open = open + u32::from(left) - closes[k + 1];
        widest = widest.max(open);
        let mut r = rep.right(u);
        for _ in 1..t {
            let next = reach[r as usize];
            if next == r {
                break; // no interval reaches further
            }
            r = next;
        }
        closes[r as usize] += u32::from(left);
    }
    (widest.saturating_sub(1), clique.saturating_sub(1))
}

/// An endpoint's vertex, and whether it is a left endpoint.
#[inline]
fn split(ev: Endpoint) -> (Vertex, bool) {
    match ev {
        Endpoint::Left(v) => (v, true),
        Endpoint::Right(v) => (v, false),
    }
}

/// The profile `[λ*_{G,1}, λ*_{G,2}, ..., λ*_{G,t_max}]` of optimal
/// `L(1,...,1)` spans — the ingredients of Lemma 1's lower bound
/// `max_i δi λ*_{G,i}` for any separation vector of length `<= t_max`.
///
/// ```
/// use ssg_intervals::IntervalRepresentation;
/// use ssg_labeling::interval::lambda_profile;
/// let rep = IntervalRepresentation::from_floats(&[
///     (0.0, 3.0), (1.0, 4.0), (2.0, 5.0), (4.5, 6.0),
/// ]).unwrap();
/// assert_eq!(lambda_profile(&rep, 3), vec![2, 3, 3]);
/// ```
pub fn lambda_profile(rep: &IntervalRepresentation, t_max: u32) -> Vec<u32> {
    let mut ws = Workspace::new();
    (1..=t_max)
        .map(|t| count_lambda_star(rep, t, &mut ws).0)
        .collect()
}

/// Result of the approximate `L(δ1,1,...,1)` interval coloring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalApproxOutput {
    /// The coloring.
    pub labeling: Labeling,
    /// `λ*_{G,t}`, counted by [`lambda_star`].
    pub lambda_t: u32,
    /// `λ*_{G,1} = ω(G) - 1`, counted in the same pass.
    pub lambda_1: u32,
    /// Theorem 2's guaranteed largest color
    /// `U = λ*_{G,t} + 2(δ1-1) λ*_{G,1}`.
    pub upper_bound: u32,
}

/// `Interval-L(δ1,1,...,1)-coloring` (§3.2, Theorem 2).
///
/// Counts `λ*_{G,t}` and `λ*_{G,1} = ω(G) - 1` (see [`lambda_star`]), then
/// repeats the Figure 1 sweep with `P_0` pre-filled with
/// `{0, ..., U = λ*_{G,t} + 2(δ1-1)λ*_{G,1}}`. When a color `c` is assigned,
/// the `2(δ1-1)` colors nearest to `c` are *blocked* until the interval
/// closes. A per-color block counter generalizes the paper's "insert them
/// into `P_1`" description to the case where a color is within `δ1` of
/// several open intervals or still descending through the palettes — the
/// counting argument of Theorem 2 (at most `λ*_{G,t}` colors held by
/// distance plus at most `2(δ1-1)λ*_{G,1}` blocked) is unchanged, so `P_0`
/// is never empty.
///
/// Each vertex takes the *smallest* color of `P_0`, an occupancy bitmap
/// over the pool. `P_0` at `v` is exactly the set of colors that greedy
/// first fit may give `v` in left-endpoint order (a color returns to `P_0`
/// when its holder leaves distance `t` of every later vertex, and the open
/// intervals are `v`'s earlier neighbours), so the labeling is greedy's
/// and its span is at most `U`.
///
/// `O(n (t + δ1 + U/64))`. Panics when `U` does not fit in `u32`.
pub fn approx_delta1_coloring(
    rep: &IntervalRepresentation,
    t: u32,
    delta1: u32,
) -> IntervalApproxOutput {
    approx_delta1_coloring_ws(rep, t, delta1, &mut Workspace::new(), &Metrics::disabled())
}

/// [`approx_delta1_coloring`] on a caller-owned [`Workspace`] (see
/// [`l1_coloring_ws`] for the reuse contract), with telemetry: records one
/// [`Counter::PeelSteps`] per colored vertex and the palette probes of the
/// sweep. The `λ*` count colors nothing and records no counter.
pub fn approx_delta1_coloring_ws(
    rep: &IntervalRepresentation,
    t: u32,
    delta1: u32,
    ws: &mut Workspace,
    metrics: &Metrics,
) -> IntervalApproxOutput {
    assert!(t >= 1, "interference radius t must be >= 1");
    assert!(delta1 >= 1, "delta1 must be >= 1");
    ws.begin_solve(metrics);
    let (lambda_t, lambda_1) = {
        let _span = metrics.span("interval.lambda_bounds");
        count_lambda_star(rep, t, ws)
    };
    let upper_bound = theorem_bound(
        "Theorem 2's U = λ*ₜ + 2(δ1−1)λ*₁",
        u128::from(lambda_t) + 2 * u128::from(delta1 - 1) * u128::from(lambda_1),
    );
    let _span = metrics.span("interval.approx_sweep");
    let n = rep.len();
    let pool = upper_bound as usize + 1;
    let mut colors = ws.take_colors(n, u32::MAX);
    let Workspace {
        first_fit: palette,
        deps,
        grow_events,
        ..
    } = ws;
    palette.reset(pool, grow_events);
    deps.reset(n, pool, grow_events);
    let mut max_r = 0u32;
    let mut deep: Vertex = 0;
    let mut open = 0usize;
    // The colors within δ1 - 1 of c, which c's holder blocks while open.
    // Blocking c itself changes nothing: c stays out of P_0 until its
    // holder closes, and the release follows the close.
    let window = |c: u32| {
        let lo = c.saturating_sub(delta1 - 1);
        let hi = c.saturating_add(delta1 - 1).min(upper_bound);
        (lo, hi)
    };
    for &ev in rep.events() {
        match ev {
            Endpoint::Left(v) => {
                if open == 0 && v > 0 {
                    palette.restart(); // a gap: the next component starts afresh
                }
                let c = palette
                    .take_lowest(t)
                    .expect("Theorem 2: pool {0..=U} cannot be exhausted");
                colors[v as usize] = c;
                deps.push(v, c);
                if delta1 > 1 {
                    let (lo, hi) = window(c);
                    palette.block(lo, hi);
                }
                if rep.right(v) > max_r {
                    max_r = rep.right(v);
                    deep = v;
                }
                open += 1;
            }
            Endpoint::Right(v) => {
                open -= 1;
                while let Some(c) = deps.pop_front(v) {
                    if palette.descend(c) > 0 {
                        if deep != v {
                            deps.push(deep, c);
                        } else {
                            debug_assert_eq!(open, 0);
                        }
                    }
                }
                if delta1 > 1 {
                    let (lo, hi) = window(colors[v as usize]);
                    palette.release(lo, hi);
                }
            }
        }
    }
    if metrics.is_enabled() {
        metrics.add(Counter::PeelSteps, n as u64);
        metrics.add(Counter::PaletteProbes, palette.probe_count());
        metrics.add(Counter::PaletteWordScans, palette.word_scan_count());
    }
    IntervalApproxOutput {
        labeling: Labeling::new(colors),
        lambda_t,
        lambda_1,
        upper_bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{verify_labeling, SeparationVector};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssg_intervals::gen::{random_connected_intervals, random_intervals};

    #[test]
    fn t1_equals_clique_minus_one() {
        let mut rng = StdRng::seed_from_u64(50);
        for _ in 0..30 {
            let rep = random_intervals(40, 20.0, 0.5, 4.0, &mut rng);
            let out = l1_coloring(&rep, 1);
            assert_eq!(out.lambda_star as usize + 1, rep.max_clique());
            let g = rep.to_graph();
            verify_labeling(&g, &SeparationVector::all_ones(1), out.labeling.colors())
                .expect("legal proper coloring");
            assert_eq!(out.labeling.span(), out.lambda_star);
        }
    }

    #[test]
    fn l1_matches_peel_oracle_all_t() {
        let mut rng = StdRng::seed_from_u64(51);
        for round in 0..25 {
            let rep = random_connected_intervals(18, 0.8, 1.0, 4.0, &mut rng);
            let g = rep.to_graph();
            for t in 1..=5u32 {
                let out = l1_coloring(&rep, t);
                verify_labeling(&g, &SeparationVector::all_ones(t), out.labeling.colors())
                    .unwrap_or_else(|viol| panic!("round {round} t={t}: {viol}"));
                // Lemma 3: identity order is a valid Lemma-2 insertion order.
                let order: Vec<u32> = (0..18).collect();
                let (_, oracle) = ssg_simplicial::peel_l1_coloring(&g, t, &order);
                assert_eq!(out.lambda_star, oracle, "round {round} t={t}");
            }
        }
    }

    #[test]
    fn l1_optimal_vs_bruteforce_clique() {
        let mut rng = StdRng::seed_from_u64(52);
        for _ in 0..15 {
            let rep = random_connected_intervals(12, 0.6, 1.0, 3.0, &mut rng);
            let g = rep.to_graph();
            for t in 1..=4u32 {
                let out = l1_coloring(&rep, t);
                let a = ssg_graph::augmented_graph(&g, t);
                let omega = ssg_graph::power::max_clique_bruteforce(&a) as u32;
                assert_eq!(out.lambda_star + 1, omega, "t={t}");
            }
        }
    }

    #[test]
    fn l1_handles_disconnected_and_degenerate() {
        let rep = IntervalRepresentation::from_floats(&[]).unwrap();
        assert_eq!(l1_coloring(&rep, 3).lambda_star, 0);
        let rep = IntervalRepresentation::from_floats(&[(0.0, 1.0)]).unwrap();
        let out = l1_coloring(&rep, 2);
        assert_eq!(out.lambda_star, 0);
        assert_eq!(out.labeling.colors(), &[0]);
        // Two far-apart cliques of different sizes.
        let rep = IntervalRepresentation::from_floats(&[
            (0.0, 1.0),
            (0.2, 1.2),
            (10.0, 11.0),
            (10.2, 11.2),
            (10.4, 11.4),
        ])
        .unwrap();
        let out = l1_coloring(&rep, 2);
        let g = rep.to_graph();
        verify_labeling(&g, &SeparationVector::all_ones(2), out.labeling.colors()).unwrap();
        assert_eq!(out.lambda_star, 2, "bigger component dominates");
    }

    #[test]
    fn approx_is_legal_and_within_theorem2_bound() {
        let mut rng = StdRng::seed_from_u64(53);
        for round in 0..20 {
            let rep = random_connected_intervals(25, 0.8, 1.0, 4.0, &mut rng);
            let g = rep.to_graph();
            for t in 1..=3u32 {
                for delta1 in 1..=5u32 {
                    let out = approx_delta1_coloring(&rep, t, delta1);
                    let sep = SeparationVector::delta1_then_ones(delta1, t).unwrap();
                    verify_labeling(&g, &sep, out.labeling.colors())
                        .unwrap_or_else(|viol| panic!("round {round} t={t} d1={delta1}: {viol}"));
                    assert!(
                        out.labeling.span() <= out.upper_bound,
                        "round {round} t={t} d1={delta1}: span {} > U {}",
                        out.labeling.span(),
                        out.upper_bound
                    );
                }
            }
        }
    }

    #[test]
    fn approx_with_delta1_equal_1_is_optimal() {
        let mut rng = StdRng::seed_from_u64(54);
        let rep = random_connected_intervals(30, 0.7, 1.0, 3.0, &mut rng);
        for t in 1..=4u32 {
            let a = approx_delta1_coloring(&rep, t, 1);
            let o = l1_coloring(&rep, t);
            assert_eq!(a.upper_bound, o.lambda_star);
            assert!(a.labeling.span() <= o.lambda_star);
        }
    }

    #[test]
    fn approx_ratio_never_exceeds_three() {
        // Theorem 2's ratio U / max(δ1 λ*_1, λ*_t) <= 3.
        let mut rng = StdRng::seed_from_u64(55);
        for _ in 0..20 {
            let rep = random_connected_intervals(30, 0.8, 1.0, 5.0, &mut rng);
            for t in 2..=4u32 {
                for delta1 in 2..=6u32 {
                    let out = approx_delta1_coloring(&rep, t, delta1);
                    let lower = (delta1 as u64 * out.lambda_1 as u64).max(out.lambda_t as u64);
                    assert!(lower > 0);
                    let ratio = out.labeling.span() as f64 / lower as f64;
                    assert!(ratio <= 3.0, "ratio {ratio} > 3");
                }
            }
        }
    }

    #[test]
    fn warm_disconnected_solves_do_not_grow_the_workspace() {
        let mut rng = StdRng::seed_from_u64(56);
        let rep = random_intervals(300, 600.0, 0.5, 4.0, &mut rng);
        assert!(rep.components().len() > 10);
        let mut ws = Workspace::new();
        let m = Metrics::disabled();
        for round in 0..3 {
            let grows = ws.grow_events();
            let footprint = ws.capacity_footprint();
            for t in 1..=3 {
                let a1 = l1_coloring_ws(&rep, t, &mut ws, &m);
                ws.recycle(a1.labeling);
                let a2 = approx_delta1_coloring_ws(&rep, t, 3, &mut ws, &m);
                ws.recycle(a2.labeling);
            }
            if round > 0 {
                assert_eq!(ws.grow_events(), grows, "round {round}: a buffer grew");
                assert_eq!(ws.capacity_footprint(), footprint, "round {round}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "Theorem 2's U = λ*ₜ + 2(δ1−1)λ*₁ = 4294967298 overflows u32")]
    fn approx_names_an_overflowing_bound() {
        // λ*₁ = λ*ₜ = 2 and 2(δ1−1)λ*₁ = 2³², so U does not fit in u32.
        let rep =
            IntervalRepresentation::from_floats(&[(0.0, 3.0), (1.0, 4.0), (2.0, 5.0)]).unwrap();
        approx_delta1_coloring(&rep, 1, (1 << 30) + 1);
    }

    #[test]
    fn approx_disconnected() {
        let rep = IntervalRepresentation::from_floats(&[
            (0.0, 1.0),
            (0.5, 1.5),
            (9.0, 10.0),
            (9.5, 10.5),
        ])
        .unwrap();
        let out = approx_delta1_coloring(&rep, 2, 3);
        let g = rep.to_graph();
        let sep = SeparationVector::delta1_then_ones(3, 2).unwrap();
        verify_labeling(&g, &sep, out.labeling.colors()).unwrap();
        assert!(out.labeling.span() <= out.upper_bound);
    }
}
