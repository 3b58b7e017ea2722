//! The paper's interval-graph algorithms:
//!
//! * [`l1_coloring`] — `Interval-L(1,...,1)-coloring` (Figure 1, Theorem 1):
//!   optimal, `O(nt)` given the sorted interval representation.
//! * [`approx_delta1_coloring`] — `Interval-L(δ1,1,...,1)-coloring`
//!   (§3.2, Theorem 2): legal coloring with largest color at most
//!   `λ*_{G,t} + 2(δ1-1) λ*_{G,1}`, a 3-approximation.

use crate::spec::Labeling;
use crate::workspace::{ensure_dep, ensure_u32, Workspace};
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
/// graph; disconnected inputs are handled by coloring each component
/// independently from a shared color pool, which is optimal because
/// vertices of different components are never within distance `t`.
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
/// the sweep on `metrics`. Repeated solves on same-sized representations
/// reuse every scratch buffer (zero heap allocation once warm; disconnected
/// inputs still allocate their per-component sub-representations) and
/// record [`Counter::WorkspaceReuses`]. Recycle the output via
/// [`Workspace::recycle`] to keep the warm path allocation-free.
pub fn l1_coloring_ws(
    rep: &IntervalRepresentation,
    t: u32,
    ws: &mut Workspace,
    metrics: &Metrics,
) -> IntervalL1Output {
    assert!(t >= 1, "interference radius t must be >= 1");
    ws.begin_solve(metrics);
    l1_inner(rep, t, ws, metrics)
}

/// [`l1_coloring_ws`] without the `begin_solve` announcement — the shared
/// body used by A2/A3 subruns so that one public solve records at most one
/// workspace reuse.
pub(crate) fn l1_inner(
    rep: &IntervalRepresentation,
    t: u32,
    ws: &mut Workspace,
    metrics: &Metrics,
) -> IntervalL1Output {
    let n = rep.len();
    if n == 0 {
        return IntervalL1Output {
            labeling: Labeling::new(Vec::new()),
            lambda_star: 0,
        };
    }
    if rep.is_connected() {
        let _span = metrics.span("interval.sweep");
        let mut colors = ws.take_colors(n, u32::MAX);
        let lambda = l1_connected(rep, t, ws, &mut colors, metrics);
        return IntervalL1Output {
            labeling: Labeling::new(colors),
            lambda_star: lambda,
        };
    }
    let _span = metrics.span("interval.components");
    let mut colors = ws.take_colors(n, 0);
    let mut lambda = 0u32;
    for (comp, verts) in rep.components() {
        let mut cc = ws.take_colors(comp.len(), u32::MAX);
        let cl = l1_connected(&comp, t, ws, &mut cc, metrics);
        lambda = lambda.max(cl);
        for (i, &v) in verts.iter().enumerate() {
            colors[v as usize] = cc[i];
        }
        ws.recycle_colors(cc);
    }
    IntervalL1Output {
        labeling: Labeling::new(colors),
        lambda_star: lambda,
    }
}

/// Figure 1 on a connected representation, writing into `colors` (length
/// `n`, pre-filled with `u32::MAX`). Returns `λ*_{G,t}`.
fn l1_connected(
    rep: &IntervalRepresentation,
    t: u32,
    ws: &mut Workspace,
    colors: &mut [u32],
    metrics: &Metrics,
) -> u32 {
    let n = rep.len();
    debug_assert!(rep.is_connected());
    let Workspace {
        palette: palettes,
        dep,
        drained,
        grow_events,
        ..
    } = ws;
    palettes.reset(t, 0);
    // L_v: colors currently "depending on" interval v.
    ensure_dep(dep, n, grow_events);
    let mut lambda: i64 = -1;
    let mut max_r = 0u32;
    let mut deep: Vertex = 0;
    let mut open = 0usize;
    for &ev in rep.events() {
        match ev {
            Endpoint::Left(v) => {
                if palettes.is_empty(0) {
                    lambda += 1;
                    let c = palettes.grow();
                    debug_assert_eq!(c as i64, lambda);
                }
                let c = palettes.pop(0).expect("P_0 was just refilled");
                colors[v as usize] = c;
                palettes.link(t, c);
                dep[v as usize].push(c);
                if rep.right(v) > max_r {
                    max_r = rep.right(v);
                    deep = v;
                }
                open += 1;
            }
            Endpoint::Right(v) => {
                open -= 1;
                drained.clear();
                drained.append(&mut dep[v as usize]);
                for &c in drained.iter() {
                    let j = palettes.level_of(c);
                    debug_assert!(j >= 1, "colors in L lists sit in P_1..P_t");
                    palettes.move_to(c, j - 1);
                    if j > 1 {
                        if deep != v {
                            dep[deep as usize].push(c);
                        } else {
                            // deep == v only once all intervals have closed
                            // (connected input): the color will not be needed
                            // again, so dropping the dependency is safe.
                            debug_assert_eq!(open, 0);
                        }
                    }
                }
            }
        }
    }
    let lambda = lambda.max(0) as u32;
    if metrics.is_enabled() {
        metrics.add(Counter::PeelSteps, n as u64);
        metrics.add(Counter::PaletteProbes, palettes.probe_count());
        metrics.add(Counter::PaletteWordScans, palettes.word_scan_count());
    }
    lambda
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
    (1..=t_max)
        .map(|i| l1_coloring(rep, i).lambda_star)
        .collect()
}

/// Result of the approximate `L(δ1,1,...,1)` interval coloring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalApproxOutput {
    /// The coloring.
    pub labeling: Labeling,
    /// `λ*_{G,t}` computed by the optimal subroutine.
    pub lambda_t: u32,
    /// `λ*_{G,1}` computed by the optimal subroutine.
    pub lambda_1: u32,
    /// Theorem 2's guaranteed largest color
    /// `U = λ*_{G,t} + 2(δ1-1) λ*_{G,1}`.
    pub upper_bound: u32,
}

/// `Interval-L(δ1,1,...,1)-coloring` (§3.2, Theorem 2).
///
/// Runs [`l1_coloring`] twice to obtain `λ*_{G,1}` and `λ*_{G,t}`, then
/// repeats the Figure 1 sweep with `P_0` pre-filled with
/// `{0, ..., λ*_{G,t} + 2(δ1-1)λ*_{G,1}}`. When a color `c` is assigned, the
/// `2(δ1-1)` colors nearest to `c` are *blocked* until the interval closes.
/// A per-color block counter generalizes the paper's "insert them into
/// `P_1`" description to the case where a color is within `δ1` of several
/// open intervals or still descending through the palettes — the counting
/// argument of Theorem 2 (at most `λ*_{G,t}` colors held by distance plus at
/// most `2(δ1-1)λ*_{G,1}` blocked) is unchanged, so the pool never runs dry.
///
/// `O(n (t + δ1))`.
pub fn approx_delta1_coloring(
    rep: &IntervalRepresentation,
    t: u32,
    delta1: u32,
) -> IntervalApproxOutput {
    approx_delta1_coloring_ws(rep, t, delta1, &mut Workspace::new(), &Metrics::disabled())
}

/// [`approx_delta1_coloring`] on a caller-owned [`Workspace`] (see
/// [`l1_coloring_ws`] for the reuse contract), with telemetry. The two
/// optimal subruns that compute `λ*_{G,1}` and `λ*_{G,t}` are real work of
/// the algorithm, so their peel steps and palette probes are recorded on
/// `metrics` too.
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
    let n = rep.len();
    if n == 0 {
        return IntervalApproxOutput {
            labeling: Labeling::new(Vec::new()),
            lambda_t: 0,
            lambda_1: 0,
            upper_bound: 0,
        };
    }
    let (lambda_t, lambda_1) = {
        let _span = metrics.span("interval.lambda_bounds");
        let sub = l1_inner(rep, t, ws, metrics);
        let lambda_t = sub.lambda_star;
        ws.recycle(sub.labeling);
        let sub = l1_inner(rep, 1, ws, metrics);
        let lambda_1 = sub.lambda_star;
        ws.recycle(sub.labeling);
        (lambda_t, lambda_1)
    };
    let upper_bound = lambda_t + 2 * (delta1 - 1) * lambda_1;
    let mut colors = ws.take_colors(n, 0);
    {
        let _span = metrics.span("interval.approx_sweep");
        if rep.is_connected() {
            approx_connected(rep, t, delta1, upper_bound, ws, &mut colors, metrics);
        } else {
            for (comp, verts) in rep.components() {
                let mut cc = ws.take_colors(comp.len(), u32::MAX);
                approx_connected(&comp, t, delta1, upper_bound, ws, &mut cc, metrics);
                for (i, &v) in verts.iter().enumerate() {
                    colors[v as usize] = cc[i];
                }
                ws.recycle_colors(cc);
            }
        }
    }
    IntervalApproxOutput {
        labeling: Labeling::new(colors),
        lambda_t,
        lambda_1,
        upper_bound,
    }
}

/// §3.2 sweep on a connected representation with a fixed pool `{0..=bound}`,
/// writing into `colors` (length `n`; every entry is assigned).
fn approx_connected(
    rep: &IntervalRepresentation,
    t: u32,
    delta1: u32,
    bound: u32,
    ws: &mut Workspace,
    colors: &mut [u32],
    metrics: &Metrics,
) {
    let n = rep.len();
    let pool = bound as usize + 1;
    let Workspace {
        palette: palettes,
        dep,
        drained,
        block,
        grow_events,
        ..
    } = ws;
    palettes.reset(t, pool);
    // block[c] = number of open intervals whose color is within delta1-1 of c.
    ensure_u32(block, pool, 0, grow_events);
    ensure_dep(dep, n, grow_events);
    let mut max_r = 0u32;
    let mut deep: Vertex = 0;
    let mut open = 0usize;
    let window = |c: u32| {
        let lo = c.saturating_sub(delta1 - 1);
        let hi = (c + delta1 - 1).min(bound);
        (lo..=hi).filter(move |&x| x != c)
    };
    for &ev in rep.events() {
        match ev {
            Endpoint::Left(v) => {
                // P_0 holds exactly the unblocked level-0 colors; Theorem 2
                // guarantees it is non-empty here.
                let c = palettes
                    .pop(0)
                    .expect("Theorem 2: pool {0..=U} cannot be exhausted");
                colors[v as usize] = c;
                palettes.link(t, c);
                dep[v as usize].push(c);
                if delta1 > 1 {
                    for w in window(c) {
                        block[w as usize] += 1;
                        if block[w as usize] == 1
                            && palettes.level_of(w) == 0
                            && palettes.is_linked(w)
                        {
                            palettes.unlink(w); // park until unblocked
                        }
                    }
                }
                if rep.right(v) > max_r {
                    max_r = rep.right(v);
                    deep = v;
                }
                open += 1;
            }
            Endpoint::Right(v) => {
                open -= 1;
                drained.clear();
                drained.append(&mut dep[v as usize]);
                for &c in drained.iter() {
                    let j = palettes.level_of(c);
                    debug_assert!(j >= 1);
                    palettes.unlink(c);
                    if j - 1 == 0 && block[c as usize] > 0 {
                        palettes.set_parked_level(c, 0); // blocked: park at 0
                    } else {
                        palettes.link(j - 1, c);
                    }
                    if j > 1 {
                        if deep != v {
                            dep[deep as usize].push(c);
                        } else {
                            debug_assert_eq!(open, 0);
                        }
                    }
                }
                if delta1 > 1 {
                    let c = colors[v as usize];
                    for w in window(c) {
                        block[w as usize] -= 1;
                        if block[w as usize] == 0
                            && palettes.level_of(w) == 0
                            && !palettes.is_linked(w)
                        {
                            palettes.link(0, w); // unparked: usable again
                        }
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
