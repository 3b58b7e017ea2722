//! Property tests for the interval sweeps on arbitrary float interval
//! sets:
//!
//! * the `λ*_{G,t}` count must equal the span of Figure 1's optimal
//!   coloring and the size, minus one, of the prefix-ball clique that
//!   certifies it;
//! * the §3.2 approximation must give exactly greedy first fit's labeling
//!   in vertex (left-endpoint) order, computed independently on the
//!   interval graph, within Theorem 2's `U`.

use proptest::prelude::*;
use ssg_intervals::IntervalRepresentation;
use ssg_labeling::baseline::greedy_first_fit;
use ssg_labeling::certificate::interval_clique_witness;
use ssg_labeling::interval::{approx_delta1_coloring, l1_coloring, lambda_profile, lambda_star};
use ssg_labeling::SeparationVector;

/// Up to 30 intervals with left endpoints in `[0, spread)`: a small spread
/// packs them into one component, a large one leaves gaps.
fn arb_intervals() -> impl Strategy<Value = Vec<(f64, f64)>> {
    (5.0f64..150.0).prop_flat_map(|spread| {
        prop::collection::vec((0.0..spread, 0.05f64..10.0), 1..30)
            .prop_map(|v| v.into_iter().map(|(l, len)| (l, l + len)).collect())
    })
}

/// Up to 40 intervals on the integer grid `-4..=12`, so endpoint values tie
/// often and touching intervals meet at shared endpoints.
fn arb_tied_intervals() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((-4i32..=8, 1i32..=4), 0..41).prop_map(|v| {
        v.into_iter()
            .map(|(l, len)| (f64::from(l), f64::from(l + len)))
            .collect()
    })
}

/// Up to 40 intervals in up to five clusters 100 apart, so the graph has
/// at least as many components as clusters used.
fn arb_clustered_intervals() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0u32..5, 0.0f64..6.0, 0.1f64..3.0), 1..41).prop_map(|v| {
        v.into_iter()
            .map(|(k, l, len)| {
                let l = f64::from(k) * 100.0 + l;
                (l, l + len)
            })
            .collect()
    })
}

fn check_count(intervals: &[(f64, f64)]) {
    let rep = IntervalRepresentation::from_floats(intervals).unwrap();
    let profile = lambda_profile(&rep, 6);
    for t in 1..=6u32 {
        let count = lambda_star(&rep, t);
        assert_eq!(count, profile[t as usize - 1], "t={t}");
        assert_eq!(count, l1_coloring(&rep, t).lambda_star, "t={t}");
        if !rep.is_empty() {
            let witness = interval_clique_witness(&rep, t);
            assert_eq!(count, witness.span_lower_bound(), "t={t}");
        }
    }
}

fn check_first_fit(intervals: &[(f64, f64)]) {
    let rep = IntervalRepresentation::from_floats(intervals).unwrap();
    let g = rep.to_graph();
    let order: Vec<u32> = (0..rep.len() as u32).collect();
    for t in 1..=4u32 {
        for delta1 in 1..=5u32 {
            let out = approx_delta1_coloring(&rep, t, delta1);
            let sep = SeparationVector::delta1_then_ones(delta1, t).unwrap();
            let greedy = greedy_first_fit(&g, &sep, Some(&order));
            assert_eq!(out.labeling, greedy, "t={t} δ1={delta1}");
            assert!(
                out.labeling.span() <= out.upper_bound,
                "t={t} δ1={delta1}: span {} > U {}",
                out.labeling.span(),
                out.upper_bound
            );
            assert_eq!(
                out.lambda_1 as usize,
                rep.max_clique().saturating_sub(1),
                "t={t} δ1={delta1}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn count_matches_figure1_and_witness(intervals in arb_intervals()) {
        check_count(&intervals);
    }

    #[test]
    fn count_matches_figure1_and_witness_with_ties(intervals in arb_tied_intervals()) {
        check_count(&intervals);
    }

    #[test]
    fn approx_is_greedy_first_fit(intervals in arb_intervals()) {
        check_first_fit(&intervals);
    }

    #[test]
    fn approx_is_greedy_first_fit_with_ties(intervals in arb_tied_intervals()) {
        check_first_fit(&intervals);
    }

    #[test]
    fn approx_is_greedy_first_fit_across_components(intervals in arb_clustered_intervals()) {
        check_first_fit(&intervals);
    }
}
