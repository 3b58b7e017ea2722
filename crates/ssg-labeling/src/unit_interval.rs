//! `Unit-Interval-L(δ1,δ2)-coloring` (paper §3.3, Figure 2, Theorem 3).
//!
//! The algorithm colors vertices (numbered by left endpoint) with a cyclic
//! sequence whose period is tied to `λ*₁ = ω(G) - 1`:
//!
//! * **`δ1 <= 2δ2`** — Figure 2's closed form
//!   `f(v) = (2 δ2 v) mod ((2λ*₁ + 3) δ2)`, span `2δ2(λ*₁ + 1)`, implemented
//!   verbatim (and provably correct as published).
//! * **`δ1 > 2δ2`** — the published comb sequence
//!   `0, δ1, ..., λ*₁δ1, δ2, δ1+δ2, ..., λ*₁δ1+δ2` has a **bug**: the colors
//!   `jδ1` and `(j-1)δ1+δ2` differ by `δ1 - δ2 < δ1` yet sit at vertex
//!   offset exactly `λ*₁`, and wherever the maximum clique is realized the
//!   pair `v, v+λ*₁` *is* adjacent, violating the `δ1` separation. (The
//!   proof of Theorem 3 checks only the `c ± δ2` colors and overlooks
//!   `c - δ1 + δ2`.) We therefore:
//!   - keep the published scheme when the graph is *slack* (no vertex is
//!     adjacent to `v + λ*₁`), where it is correct with span `λ*₁ δ1 + δ2`
//!     — ratio ≤ 3/2 as the paper claims; and
//!   - otherwise use a **pair-comb** sequence
//!     `0, δ1+δ2, 2(δ1+δ2), ..., λ*₁(δ1+δ2), δ2, (δ1+δ2)+δ2, ...` in which
//!     every pair of colors closer than `δ1` is antipodal in the period
//!     (offset `λ*₁ + 1`, never adjacent by the clique bound). Span
//!     `λ*₁(δ1+δ2) + δ2`, ratio `1 + δ2/δ1 (1 + 1/λ*₁) < 7/4` — the overall
//!     3-approximation of Theorem 3 is preserved.
//!
//! [`figure2_literal`] exposes the uncorrected published scheme so the flaw
//! can be demonstrated (see the crate tests and experiment E3).
//!
//! Paths are routed to the exact DP of [`crate::exact::path_optimal`], as
//! the paper prescribes ("assume the graph is not a path, otherwise \[10\]").

use crate::exact::path_optimal_with;
use crate::spec::{theorem_bound, Labeling};
use crate::workspace::Workspace;
use ssg_intervals::UnitIntervalRepresentation;
use ssg_telemetry::{Counter, Metrics};

/// Which cyclic scheme colored (a component of) the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitScheme {
    /// Figure 2's `δ1 <= 2δ2` closed form (published, correct).
    ModularSmallDelta1,
    /// Published `δ1 > 2δ2` comb (kept only when it verifies on the
    /// instance — see module docs).
    PaperCombs,
    /// Corrected pair-comb for tight graphs with `δ1 > 2δ2`.
    PairCombs,
    /// Exact path DP (the `[10]` fallback).
    PathExact,
    /// Trivial single vertex.
    Singleton,
}

/// Result of the unit-interval `L(δ1,δ2)` coloring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitIntervalOutput {
    /// The coloring, indexed by the representation's vertex numbering.
    pub labeling: Labeling,
    /// `λ*₁ = ω(G) - 1` (whole graph).
    pub lambda_1: u32,
    /// Largest color the chosen schemes guarantee (`>= labeling.span()`).
    pub guaranteed_bound: u32,
    /// Scheme used per connected component, in sweep order.
    pub schemes: Vec<UnitScheme>,
}

/// `Unit-Interval-L(δ1,δ2)-coloring` with the corrections described in the
/// module docs. Handles disconnected inputs per component. `O(n)` after the
/// `λ*₁` count. Panics when the chosen scheme's bound does not fit in `u32`.
pub fn l_delta1_delta2_coloring(
    rep: &UnitIntervalRepresentation,
    delta1: u32,
    delta2: u32,
) -> UnitIntervalOutput {
    l_delta1_delta2_coloring_ws(
        rep,
        delta1,
        delta2,
        &mut Workspace::new(),
        &Metrics::disabled(),
    )
}

/// [`l_delta1_delta2_coloring`] on a caller-owned [`Workspace`], with
/// telemetry: records one [`Counter::PeelSteps`] per colored vertex and
/// counts the scheme-verification comparisons and path-DP work against the
/// other counters. Color buffers draw from the arena, and solves after the
/// first record one [`Counter::WorkspaceReuses`]. A connected input is
/// colored in place; a disconnected one is split into its components.
pub fn l_delta1_delta2_coloring_ws(
    rep: &UnitIntervalRepresentation,
    delta1: u32,
    delta2: u32,
    ws: &mut Workspace,
    metrics: &Metrics,
) -> UnitIntervalOutput {
    assert!(delta1 >= delta2 && delta2 >= 1, "need δ1 >= δ2 >= 1");
    ws.begin_solve(metrics);
    let n = rep.len();
    let lambda_1 = rep.lambda1() as u32;
    if n == 0 {
        return UnitIntervalOutput {
            labeling: Labeling::new(Vec::new()),
            lambda_1,
            guaranteed_bound: 0,
            schemes: Vec::new(),
        };
    }
    let _span = metrics.span("unit_interval.components");
    if rep.is_connected() {
        let (colors, scheme, bound) = color_component(rep, lambda_1, delta1, delta2, ws, metrics);
        return UnitIntervalOutput {
            labeling: Labeling::new(colors),
            lambda_1,
            guaranteed_bound: bound,
            schemes: vec![scheme],
        };
    }
    let mut colors = ws.take_colors(n, 0);
    let mut schemes = Vec::new();
    let mut bound = 0u32;
    for (comp, verts) in rep.as_interval().components() {
        let comp = UnitIntervalRepresentation::from_representation(comp)
            .expect("components of a proper representation stay proper");
        let l1 = comp.lambda1() as u32;
        let (cc, scheme, b) = color_component(&comp, l1, delta1, delta2, ws, metrics);
        bound = bound.max(b);
        schemes.push(scheme);
        for (i, &v) in verts.iter().enumerate() {
            colors[v as usize] = cc[i];
        }
        ws.recycle_colors(cc);
    }
    UnitIntervalOutput {
        labeling: Labeling::new(colors),
        lambda_1,
        guaranteed_bound: bound,
        schemes,
    }
}

/// Colors one connected component whose `λ*₁` is `l1`; returns `(colors,
/// scheme, bound)`. The color buffer is drawn from the arena — callers
/// hand it back with [`Workspace::recycle_colors`] once done with it.
fn color_component(
    comp: &UnitIntervalRepresentation,
    l1: u32,
    delta1: u32,
    delta2: u32,
    ws: &mut Workspace,
    metrics: &Metrics,
) -> (Vec<u32>, UnitScheme, u32) {
    let m = comp.len();
    debug_assert!(comp.is_connected());
    if metrics.is_enabled() {
        metrics.add(Counter::PeelSteps, m as u64);
    }
    if m == 1 {
        return (ws.take_colors(1, 0), UnitScheme::Singleton, 0);
    }
    if l1 < 2 {
        // A connected graph with ω = 2 is a path.
        let (lab, span) = path_optimal_with(m, delta1, delta2, metrics);
        return (lab.into_colors(), UnitScheme::PathExact, span);
    }
    let mut colors = ws.take_colors(m, 0);
    if small_delta1(delta1, delta2) {
        // Figure 2, second branch (0-indexed vertices).
        let span = modular_span(l1, delta2);
        for (v, c) in colors.iter_mut().enumerate() {
            *c = modular_color(v, l1, delta2);
        }
        return (colors, UnitScheme::ModularSmallDelta1, span);
    }
    // Try the published comb first; keep it when the instance's tight runs
    // happen to avoid the conflicting period offsets (see module docs).
    let paper_span = comb_span(l1, delta1, delta2);
    for (v, c) in colors.iter_mut().enumerate() {
        *c = comb_color(v as u32, l1, delta1, delta2);
    }
    let mut reach1 = ws.take_colors(m, 0);
    let (verified, comparisons) =
        scheme_verifies_counted(comp, &colors, delta1, delta2, &mut reach1);
    ws.recycle_colors(reach1);
    if metrics.is_enabled() {
        metrics.add(Counter::PaletteProbes, comparisons);
    }
    if verified {
        (colors, UnitScheme::PaperCombs, paper_span)
    } else {
        // Pair combs: provably legal on every unit interval graph.
        let span = theorem_bound(
            "Theorem 3's pair-comb span λ*₁(δ1 + δ2) + δ2",
            u128::from(l1) * (u128::from(delta1) + u128::from(delta2)) + u128::from(delta2),
        );
        let step = delta1 + delta2; // at most the span, since λ*₁ >= 1
        for (v, c) in colors.iter_mut().enumerate() {
            *c = comb_color_step(v as u32, l1, step, delta2);
        }
        (colors, UnitScheme::PairCombs, span)
    }
}

/// Whether `δ1 <= 2δ2`, the regime of Figure 2's closed form.
fn small_delta1(delta1: u32, delta2: u32) -> bool {
    u64::from(delta1) <= 2 * u64::from(delta2)
}

/// The closed form's span `2δ2(λ*₁ + 1)`.
fn modular_span(lambda1: u32, delta2: u32) -> u32 {
    theorem_bound(
        "Theorem 3's span 2δ2(λ*₁ + 1)",
        2 * u128::from(delta2) * (u128::from(lambda1) + 1),
    )
}

/// Figure 2's `(2δ2·v) mod ((2λ*₁ + 3)δ2)`, reduced before multiplying as
/// `δ2·((2v) mod (2λ*₁ + 3))`: the same value, and never above
/// [`modular_span`], so it cannot wrap where the bound fits.
fn modular_color(v: usize, lambda1: u32, delta2: u32) -> u32 {
    let period = 2 * lambda1 as usize + 3;
    delta2 * ((2 * v) % period) as u32
}

/// The published comb's span `λ*₁δ1 + δ2`.
fn comb_span(lambda1: u32, delta1: u32, delta2: u32) -> u32 {
    theorem_bound(
        "Theorem 3's comb span λ*₁δ1 + δ2",
        u128::from(lambda1) * u128::from(delta1) + u128::from(delta2),
    )
}

/// Fast `L(δ1,δ2)` legality check exploiting the unit-interval structure:
/// with vertices in left-endpoint order, `reach1[v]` = rightmost neighbor of
/// `v`, and `d(v, w) <= 2` iff `w <= reach1[reach1[v]]`. `O(n + Σ ball₂)`.
/// Also returns the number of pairwise color comparisons made — the
/// "palette probe" work of this algorithm's verification pass.
fn scheme_verifies_counted(
    comp: &UnitIntervalRepresentation,
    colors: &[u32],
    delta1: u32,
    delta2: u32,
    reach1: &mut [u32],
) -> (bool, u64) {
    let rep = comp.as_interval();
    let m = comp.len() as u32;
    debug_assert_eq!(reach1.len(), m as usize);
    let mut comparisons = 0u64;
    // reach1[v]: rightmost u with left(u) < right(v); nondecreasing in v.
    let mut u = 0u32;
    for v in 0..m {
        if u < v {
            u = v;
        }
        while u + 1 < m && rep.left(u + 1) < rep.right(v) {
            u += 1;
        }
        reach1[v as usize] = u;
    }
    for v in 0..m {
        let r1 = reach1[v as usize];
        let r2 = reach1[r1 as usize];
        for w in (v + 1)..=r2 {
            comparisons += 1;
            let need = if w <= r1 { delta1 } else { delta2 };
            if colors[v as usize].abs_diff(colors[w as usize]) < need {
                return (false, comparisons);
            }
        }
    }
    (true, comparisons)
}

/// Published comb: position `p = v mod (2λ*₁+2)` gets `p·δ1` in the first
/// half and `(p - λ*₁ - 1)·δ1 + δ2` in the second.
fn comb_color(v: u32, lambda1: u32, delta1: u32, delta2: u32) -> u32 {
    let p = v % (2 * lambda1 + 2);
    if p <= lambda1 {
        p * delta1
    } else {
        (p - lambda1 - 1) * delta1 + delta2
    }
}

/// Pair comb with stride `step = δ1 + δ2`: like [`comb_color`] but the combs
/// advance by `step`, so cross-comb colors at non-antipodal offsets are at
/// least `δ1` apart.
fn comb_color_step(v: u32, lambda1: u32, step: u32, delta2: u32) -> u32 {
    let p = v % (2 * lambda1 + 2);
    if p <= lambda1 {
        p * step
    } else {
        (p - lambda1 - 1) * step + delta2
    }
}

/// The **literal published Figure 2** (`δ1 > 2δ2` branch uses the comb
/// sequence of Theorem 3's proof; `δ1 <= 2δ2` the modular formula), with no
/// slackness check and no path fallback. On tight graphs with `δ1 > 2δ2`
/// this produces δ1-separation violations — kept for demonstrating the
/// published bug (experiment E3).
pub fn figure2_literal(rep: &UnitIntervalRepresentation, delta1: u32, delta2: u32) -> Labeling {
    assert!(delta1 >= delta2 && delta2 >= 1);
    let lambda1 = rep.lambda1() as u32;
    let n = rep.len();
    // Each scheme's span is checked only so that no color can wrap.
    let colors = if small_delta1(delta1, delta2) {
        modular_span(lambda1, delta2);
        (0..n).map(|v| modular_color(v, lambda1, delta2)).collect()
    } else {
        comb_span(lambda1, delta1, delta2);
        (0..n as u32)
            .map(|v| comb_color(v, lambda1, delta1, delta2))
            .collect()
    };
    Labeling::new(colors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{verify_labeling, SeparationVector};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use ssg_intervals::gen::{corridor_unit_intervals, random_connected_unit_intervals};

    fn check_legal(rep: &UnitIntervalRepresentation, d1: u32, d2: u32) -> UnitIntervalOutput {
        let out = l_delta1_delta2_coloring(rep, d1, d2);
        let g = rep.to_graph();
        let sep = SeparationVector::two(d1, d2).unwrap();
        verify_labeling(&g, &sep, out.labeling.colors())
            .unwrap_or_else(|v| panic!("d=({d1},{d2}): {v}"));
        assert!(out.labeling.span() <= out.guaranteed_bound);
        out
    }

    #[test]
    fn legal_on_random_graphs_both_regimes() {
        let mut rng = StdRng::seed_from_u64(60);
        for round in 0..25 {
            let rep = random_connected_unit_intervals(40, 0.6, &mut rng);
            for (d1, d2) in [
                (1, 1),
                (2, 1),
                (3, 1),
                (4, 1),
                (3, 2),
                (5, 2),
                (4, 3),
                (7, 3),
            ] {
                let _ = round;
                check_legal(&rep, d1, d2);
            }
        }
    }

    #[test]
    fn legal_on_tight_corridors() {
        // Corridors realize v ~ v+λ*₁ everywhere: the hardest case.
        let mut rng = StdRng::seed_from_u64(61);
        for k in [2usize, 3, 5] {
            let rep = corridor_unit_intervals(60, k, &mut rng);
            for (d1, d2) in [(2, 1), (3, 1), (5, 1), (5, 2), (9, 2)] {
                let out = check_legal(&rep, d1, d2);
                if d1 > 2 * d2 {
                    assert!(
                        out.schemes.contains(&UnitScheme::PairCombs),
                        "tight corridor must use the corrected scheme (k={k}, d1={d1}, d2={d2})"
                    );
                }
            }
        }
    }

    #[test]
    fn published_figure2_violates_delta1_on_tight_graphs() {
        // Reproduces the bug in Theorem 3's δ1 > 2δ2 case: colors jδ1 and
        // (j-1)δ1 + δ2 are δ1-δ2 apart at vertex offset λ*₁, adjacent in a
        // tight corridor.
        let mut rng = StdRng::seed_from_u64(62);
        let rep = corridor_unit_intervals(40, 3, &mut rng);
        let lab = figure2_literal(&rep, 5, 1);
        let g = rep.to_graph();
        let sep = SeparationVector::two(5, 1).unwrap();
        let err = verify_labeling(&g, &sep, lab.colors())
            .expect_err("published scheme must violate δ1 here");
        assert_eq!(err.distance, 1);
        assert_eq!(err.gap, 5 - 1, "the gap is exactly δ1 - δ2");
    }

    #[test]
    fn published_figure2_is_correct_when_slack_or_small_delta1() {
        let mut rng = StdRng::seed_from_u64(63);
        // δ1 <= 2δ2: always correct.
        for _ in 0..10 {
            let rep = random_connected_unit_intervals(30, 0.5, &mut rng);
            let lab = figure2_literal(&rep, 3, 2);
            let g = rep.to_graph();
            verify_labeling(&g, &SeparationVector::two(3, 2).unwrap(), lab.colors()).unwrap();
        }
    }

    #[test]
    fn spans_match_theorem3_formulas() {
        let mut rng = StdRng::seed_from_u64(64);
        // Tight corridor, many vertices: every color of the period is used.
        let rep = corridor_unit_intervals(100, 4, &mut rng);
        let l1 = rep.lambda1() as u32;
        assert_eq!(l1, 4);
        // δ1 <= 2δ2 regime: span = 2δ2(λ*₁+1).
        let out = l_delta1_delta2_coloring(&rep, 4, 2);
        assert_eq!(out.labeling.span(), 2 * 2 * (l1 + 1));
        // δ1 > 2δ2 tight: span = λ*₁(δ1+δ2) + δ2.
        let out = l_delta1_delta2_coloring(&rep, 5, 1);
        assert_eq!(out.labeling.span(), l1 * 6 + 1);
    }

    #[test]
    fn sakai_ratio_at_l21() {
        // Paper §3.3 closing remark: at (δ1,δ2) = (2,1) the ratio becomes
        // (2λ*₁+2)/(2λ*₁), matching Sakai's bound for unit interval graphs.
        let mut rng = StdRng::seed_from_u64(65);
        let rep = corridor_unit_intervals(80, 3, &mut rng);
        let l1 = rep.lambda1() as u32;
        let out = l_delta1_delta2_coloring(&rep, 2, 1);
        assert_eq!(out.labeling.span(), 2 * l1 + 2);
        // Lemma 1 lower bound: δ1 λ*₁ = 2λ*₁.
        let lower = 2 * l1;
        assert!(out.labeling.span() <= lower * 3 / 2 + 2);
    }

    #[test]
    fn ratio_against_exact_on_small_graphs() {
        let mut rng = StdRng::seed_from_u64(66);
        for _ in 0..8 {
            let rep = random_connected_unit_intervals(9, 0.45, &mut rng);
            let g = rep.to_graph();
            for (d1, d2) in [(2, 1), (3, 1), (4, 1), (3, 2), (5, 2)] {
                let out = l_delta1_delta2_coloring(&rep, d1, d2);
                let sep = SeparationVector::two(d1, d2).unwrap();
                let (_, opt) = crate::exact::exact_min_span(&g, &sep);
                assert!(
                    out.labeling.span() as f64 <= 3.0 * opt.max(1) as f64,
                    "span {} vs opt {opt} (d1={d1}, d2={d2})",
                    out.labeling.span()
                );
            }
        }
    }

    #[test]
    fn exhaustive_grid_tight_corridors() {
        // The corrected pair-comb scheme replaces a published algorithm, so
        // sweep the full (k, δ1, δ2) grid on tight corridors — the exact
        // family the published scheme fails on — and verify every coloring.
        let mut rng = StdRng::seed_from_u64(67);
        for k in 2..=6usize {
            let rep = corridor_unit_intervals(50, k, &mut rng);
            assert_eq!(rep.lambda1(), k);
            for d1 in 1..=9u32 {
                for d2 in 1..=d1.min(4) {
                    let out = check_legal(&rep, d1, d2);
                    // Span formula check per regime (period fully used at n=50
                    // only when period <= 50; guard).
                    let l1 = k as u32;
                    let period = 2 * l1 + 2;
                    if d1 > 2 * d2 && 50 >= period {
                        assert_eq!(
                            out.labeling.span(),
                            l1 * (d1 + d2) + d2,
                            "k={k} d=({d1},{d2})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn published_scheme_kept_opportunistically_on_lucky_instances() {
        // A single clique starting at period offset 0 is a lucky instance:
        // the tight run carries colors 0..λ*₁δ1 whose pairwise gaps are all
        // >= δ1, so the published comb verifies and is kept (smaller span).
        let rep = UnitIntervalRepresentation::from_centers(&[0.0, 0.1, 0.2, 0.3]).unwrap();
        assert_eq!(rep.lambda1(), 3);
        let out = check_legal(&rep, 5, 1);
        assert_eq!(out.schemes, vec![UnitScheme::PaperCombs]);
        assert_eq!(out.labeling.span(), 15); // λ*₁ δ1 = 15 on K_4
                                             // An unlucky instance (long tight corridor) must fall back.
        let mut rng = StdRng::seed_from_u64(68);
        let tight = corridor_unit_intervals(40, 3, &mut rng);
        let out = check_legal(&tight, 5, 1);
        assert_eq!(out.schemes, vec![UnitScheme::PairCombs]);
    }

    #[test]
    fn scheme_verifier_agrees_with_full_verifier() {
        // The O(n·λ*₁) structural check must agree with the definition-level
        // BFS verifier on arbitrary colorings.
        let mut rng = StdRng::seed_from_u64(69);
        for _ in 0..20 {
            let rep = random_connected_unit_intervals(20, 0.6, &mut rng);
            let g = rep.to_graph();
            let sep = SeparationVector::two(4, 2).unwrap();
            let colors: Vec<u32> = (0..20).map(|_| rng.gen_range(0..30)).collect();
            let mut reach1 = [0u32; 20];
            let (fast, comparisons) =
                super::scheme_verifies_counted(&rep, &colors, 4, 2, &mut reach1);
            assert!(comparisons >= 1);
            let slow = verify_labeling(&g, &sep, &colors).is_ok();
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn closed_form_does_not_wrap() {
        // 2δ2·v passes 2³² at v = 8 on this chain of 4-cliques; reducing
        // first keeps Figure 2's (2δ2·v) mod ((2λ*₁ + 3)δ2) exact.
        let d: u32 = 1 << 28;
        let centers: Vec<f64> = (0..12).map(|i| f64::from(i) * 0.3).collect();
        let rep = UnitIntervalRepresentation::from_centers(&centers).unwrap();
        assert_eq!(rep.lambda1(), 3);
        let out = check_legal(&rep, d, d);
        let exact: Vec<u32> = (0..12u64)
            .map(|v| (2 * u64::from(d) * v % (9 * u64::from(d))) as u32)
            .collect();
        assert_eq!(out.labeling.colors(), &exact[..]);
        assert_eq!(figure2_literal(&rep, d, d).colors(), &exact[..]);
        assert_eq!(out.guaranteed_bound, 8 * d);
    }

    #[test]
    #[should_panic(expected = "Theorem 3's span 2δ2(λ*₁ + 1) = 21474836480 overflows u32")]
    fn names_an_overflowing_span() {
        let rep = UnitIntervalRepresentation::from_centers(&[0.0, 0.1, 0.2, 0.3, 0.4]).unwrap();
        assert_eq!(rep.lambda1(), 4);
        l_delta1_delta2_coloring(&rep, 1 << 31, 1 << 31);
    }

    #[test]
    fn paths_use_exact_dp() {
        let rep =
            UnitIntervalRepresentation::from_centers(&[0.0, 0.9, 1.8, 2.7, 3.6, 4.5]).unwrap();
        let out = l_delta1_delta2_coloring(&rep, 2, 1);
        assert_eq!(out.schemes, vec![UnitScheme::PathExact]);
        assert_eq!(out.labeling.span(), 4); // λ(P_6; 2,1) = 4
    }

    #[test]
    fn disconnected_components_colored_independently() {
        let rep =
            UnitIntervalRepresentation::from_centers(&[0.0, 0.3, 0.6, 10.0, 10.5, 20.0]).unwrap();
        let out = l_delta1_delta2_coloring(&rep, 3, 1);
        let g = rep.to_graph();
        verify_labeling(
            &g,
            &SeparationVector::two(3, 1).unwrap(),
            out.labeling.colors(),
        )
        .unwrap();
        assert_eq!(out.schemes.len(), 3);
        assert!(out.schemes.contains(&UnitScheme::Singleton));
    }
}
