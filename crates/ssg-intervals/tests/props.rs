//! Property tests for interval representations against pairwise references.

use proptest::prelude::*;
use ssg_intervals::{Endpoint, IntervalRepresentation, UnitIntervalRepresentation};

fn arb_intervals() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0.0f64..50.0, 0.05f64..10.0), 1..24)
        .prop_map(|v| v.into_iter().map(|(l, len)| (l, l + len)).collect())
}

/// Up to 40 intervals on the integer grid `-4..=8`, so endpoint values tie often,
/// with a zero endpoint drawn as `-0.0` or `+0.0` at random.
fn arb_tied_intervals() -> impl Strategy<Value = Vec<(f64, f64)>> {
    let grid = |x: i32, negative_zero: bool| {
        if x == 0 && negative_zero {
            -0.0
        } else {
            f64::from(x)
        }
    };
    prop::collection::vec((-4i32..=4, 1i32..=4, any::<bool>(), any::<bool>()), 0..41).prop_map(
        move |v| {
            v.into_iter()
                .map(|(l, len, zl, zr)| (grid(l, zl), grid(l + len, zr)))
                .collect()
        },
    )
}

/// Up to 300 intervals around stations listed in position order, as a
/// corridor generates them, then left in order, nearly in order (random
/// adjacent swaps) or reversed. With `tied` every value lies on the integer
/// grid and gaps of zero are common, so endpoints tie often.
fn arb_listed_intervals() -> impl Strategy<Value = Vec<(f64, f64)>> {
    let stations = prop::collection::vec((0u32..3, 1u32..9, 0.0f64..1.0), 0..300);
    let swaps = prop::collection::vec(0usize..1 << 16, 0..40);
    (stations, any::<bool>(), 0u8..3, swaps).prop_map(|(stations, tied, listing, swaps)| {
        let mut x = 0.0f64;
        let mut intervals: Vec<(f64, f64)> = stations
            .into_iter()
            .map(|(gap, range, jitter)| {
                let (gap, range) = (f64::from(gap), f64::from(range));
                x += if tied { gap } else { gap + jitter };
                let r = if tied { range } else { range * (0.5 + jitter) };
                (x - r, x + r)
            })
            .collect();
        match listing {
            0 => {}
            1 if intervals.len() > 1 => {
                for i in swaps {
                    let i = i % (intervals.len() - 1);
                    intervals.swap(i, i + 1);
                }
            }
            _ => intervals.reverse(),
        }
        intervals
    })
}

/// One normalized representation as plain vectors: `left`, `right` and
/// `original` per vertex, plus the sweep events.
type Parts = (Vec<u32>, Vec<u32>, Vec<usize>, Vec<Endpoint>);

fn parts_of(rep: &IntervalRepresentation) -> Parts {
    let verts = 0..rep.len() as u32;
    (
        verts.clone().map(|v| rep.left(v)).collect(),
        verts.clone().map(|v| rep.right(v)).collect(),
        verts.map(|v| rep.original_index(v)).collect(),
        rep.events().to_vec(),
    )
}

/// Reference normalization: rank all `2n` endpoints by (value, left before
/// right, input index) with a float comparator, then number the vertices
/// by left rank.
fn reference_parts(intervals: &[(f64, f64)]) -> Parts {
    let mut points: Vec<(f64, u8, usize)> = Vec::new();
    for (i, &(l, r)) in intervals.iter().enumerate() {
        points.push((l, 0, i));
        points.push((r, 1, i));
    }
    points.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .unwrap()
            .then(a.1.cmp(&b.1))
            .then(a.2.cmp(&b.2))
    });
    ranked_parts(
        intervals.len(),
        points.iter().map(|&(_, kind, i)| (kind, i)),
    )
}

/// Turns endpoints listed in rank order (`(0, i)` = left of input `i`,
/// `(1, i)` = its right) into [`Parts`] with vertices sorted by left rank.
fn ranked_parts(n: usize, ranked: impl Iterator<Item = (u8, usize)>) -> Parts {
    let mut left_rank = vec![0u32; n];
    let mut right_rank = vec![0u32; n];
    for (rank0, (kind, i)) in ranked.enumerate() {
        let rank = rank0 as u32 + 1;
        if kind == 0 {
            left_rank[i] = rank;
        } else {
            right_rank[i] = rank;
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| left_rank[i]);
    let left: Vec<u32> = order.iter().map(|&i| left_rank[i]).collect();
    let right: Vec<u32> = order.iter().map(|&i| right_rank[i]).collect();
    let mut events = vec![Endpoint::Left(0); 2 * n];
    for v in 0..n {
        events[left[v] as usize - 1] = Endpoint::Left(v as u32);
        events[right[v] as usize - 1] = Endpoint::Right(v as u32);
    }
    (left, right, order, events)
}

/// Reference component split: cut the sweep wherever no interval is open,
/// then re-rank each part from its own endpoints.
fn reference_components(rep: &IntervalRepresentation) -> Vec<(Parts, Vec<u32>)> {
    let mut parts: Vec<Vec<u32>> = Vec::new();
    let mut open = 0usize;
    for &ev in rep.events() {
        match ev {
            Endpoint::Left(v) => {
                if open == 0 {
                    parts.push(Vec::new());
                }
                parts.last_mut().unwrap().push(v);
                open += 1;
            }
            Endpoint::Right(_) => open -= 1,
        }
    }
    parts
        .into_iter()
        .map(|verts| {
            let mut points: Vec<(u32, u8, usize)> = Vec::new();
            for (i, &v) in verts.iter().enumerate() {
                points.push((rep.left(v), 0, i));
                points.push((rep.right(v), 1, i));
            }
            points.sort_unstable();
            let parts = ranked_parts(verts.len(), points.iter().map(|&(_, kind, i)| (kind, i)));
            (parts, verts)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn graph_edges_iff_pairwise_intersection(intervals in arb_intervals()) {
        let rep = IntervalRepresentation::from_floats(&intervals).unwrap();
        let g = rep.to_graph();
        for u in 0..rep.len() as u32 {
            for v in (u + 1)..rep.len() as u32 {
                prop_assert_eq!(g.has_edge(u, v), rep.intersects(u, v));
            }
        }
    }

    #[test]
    fn normalization_preserves_input_intersections(intervals in arb_intervals()) {
        let rep = IntervalRepresentation::from_floats(&intervals).unwrap();
        // Compare against the closed-interval float semantics directly.
        for u in 0..rep.len() as u32 {
            for v in (u + 1)..rep.len() as u32 {
                let (iu, iv) = (rep.original_index(u), rep.original_index(v));
                let (al, ar) = intervals[iu];
                let (bl, br) = intervals[iv];
                let float_overlap = al <= br && bl <= ar;
                prop_assert_eq!(rep.intersects(u, v), float_overlap,
                    "u={} v={} a=({},{}) b=({},{})", u, v, al, ar, bl, br);
            }
        }
    }

    #[test]
    fn max_clique_matches_point_stabbing(intervals in arb_intervals()) {
        let rep = IntervalRepresentation::from_floats(&intervals).unwrap();
        // Reference: max over endpoints of the number of stabbing intervals.
        let mut best = 0usize;
        for &(p, _) in &intervals {
            let stab = intervals.iter().filter(|&&(l, r)| l <= p && p <= r).count();
            best = best.max(stab);
        }
        prop_assert_eq!(rep.max_clique(), best);
    }

    #[test]
    fn components_partition_vertices(intervals in arb_intervals()) {
        let rep = IntervalRepresentation::from_floats(&intervals).unwrap();
        let comps = rep.components();
        let mut all: Vec<u32> = comps.iter().flat_map(|(_, vs)| vs.clone()).collect();
        all.sort_unstable();
        let expect: Vec<u32> = (0..rep.len() as u32).collect();
        prop_assert_eq!(all, expect);
        for (sub, _) in &comps {
            prop_assert!(sub.is_connected());
        }
        prop_assert_eq!(comps.len() == 1, rep.is_connected() || rep.is_empty());
    }

    #[test]
    fn tied_floats_normalize_like_the_reference(intervals in arb_tied_intervals()) {
        let rep = IntervalRepresentation::from_floats(&intervals).unwrap();
        prop_assert_eq!(parts_of(&rep), reference_parts(&intervals));
    }

    #[test]
    fn listed_stations_normalize_like_the_reference(intervals in arb_listed_intervals()) {
        let rep = IntervalRepresentation::from_floats(&intervals).unwrap();
        prop_assert_eq!(parts_of(&rep), reference_parts(&intervals));
    }

    #[test]
    fn components_match_the_reference_split(intervals in arb_tied_intervals()) {
        let rep = IntervalRepresentation::from_floats(&intervals).unwrap();
        let got: Vec<(Parts, Vec<u32>)> = rep
            .components()
            .iter()
            .map(|(sub, verts)| (parts_of(sub), verts.clone()))
            .collect();
        prop_assert_eq!(got, reference_components(&rep));
    }

    #[test]
    fn unit_centers_always_proper(centers in prop::collection::vec(0.0f64..40.0, 1..24)) {
        let u = UnitIntervalRepresentation::from_centers(&centers).unwrap();
        prop_assert!(u.as_interval().is_proper());
        prop_assert!(u.consecutive_cliques_hold());
    }

    #[test]
    fn recognition_roundtrip(centers in prop::collection::vec(0.0f64..15.0, 1..18)) {
        let src = UnitIntervalRepresentation::from_centers(&centers).unwrap();
        let g = src.to_graph();
        let (order, rep) = ssg_intervals::recognize::recognize_unit_interval(&g)
            .expect("unit interval graphs must be recognized");
        let h = rep.to_graph();
        prop_assert_eq!(h.num_edges(), g.num_edges());
        let edges: Vec<_> = h.edges().collect();
        for (a, b) in edges {
            prop_assert!(g.has_edge(order[a as usize], order[b as usize]));
        }
    }
}
