//! Property tests for the interval `λ*_{G,t}` count: on arbitrary float
//! interval sets it must equal the span of Figure 1's optimal coloring and
//! the size, minus one, of the prefix-ball clique that certifies it.

use proptest::prelude::*;
use ssg_intervals::IntervalRepresentation;
use ssg_labeling::certificate::interval_clique_witness;
use ssg_labeling::interval::{l1_coloring, lambda_profile, lambda_star};

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
}
