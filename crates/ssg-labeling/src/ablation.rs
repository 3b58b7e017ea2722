//! Ablation variants of the Figure 1 sweep, isolating the palette data
//! structure that Theorem 1's `O(nt)` argument depends on:
//!
//! * [`l1_coloring_btreeset`] — palettes as `BTreeSet<u32>` (`O(log n)` per
//!   move, pop-min extraction). The natural "just use a sorted set" choice a
//!   practitioner would reach for.
//! * [`l1_coloring_scan`] — a single `free: Vec<bool>` with linear mex scans
//!   (the textbook greedy). `O(n · span)` worst case.
//!
//! Both produce optimal spans (any extraction policy from `P_0` works);
//! `bench_ablation` measures what the intrusive linked list of
//! [`crate::palette::PaletteFamily`] actually buys.

use crate::spec::Labeling;
use ssg_intervals::{Endpoint, IntervalRepresentation};
use std::collections::BTreeSet;

/// Figure 1 with `BTreeSet` palettes and smallest-color extraction.
/// Optimal span, `O(nt log n)`. Like [`crate::interval::l1_coloring`], it
/// restarts its palettes at each gap between components.
pub fn l1_coloring_btreeset(rep: &IntervalRepresentation, t: u32) -> (Labeling, u32) {
    assert!(t >= 1);
    let n = rep.len();
    let mut palettes: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); t as usize + 1];
    let mut level = vec![0u32; n + 1]; // level per color; colors < n+1
    let mut dep: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut colors = vec![u32::MAX; n];
    let mut next_color = 0u32; // colors introduced in this component
    let mut lambda = 0u32;
    let mut max_r = 0u32;
    let mut deep = 0u32;
    let mut open = 0usize;
    for &ev in rep.events() {
        match ev {
            Endpoint::Left(v) => {
                if open == 0 && v > 0 {
                    palettes.iter_mut().for_each(BTreeSet::clear);
                    next_color = 0;
                }
                if palettes[0].is_empty() {
                    palettes[0].insert(next_color);
                    lambda = lambda.max(next_color);
                    next_color += 1;
                }
                let c = *palettes[0].iter().next().expect("refilled");
                palettes[0].remove(&c);
                colors[v as usize] = c;
                palettes[t as usize].insert(c);
                level[c as usize] = t;
                dep[v as usize].push(c);
                if rep.right(v) > max_r {
                    max_r = rep.right(v);
                    deep = v;
                }
                open += 1;
            }
            Endpoint::Right(v) => {
                open -= 1;
                let drained = std::mem::take(&mut dep[v as usize]);
                for c in drained {
                    let j = level[c as usize];
                    debug_assert!(j >= 1);
                    palettes[j as usize].remove(&c);
                    palettes[j as usize - 1].insert(c);
                    level[c as usize] = j - 1;
                    if j > 1 && deep != v {
                        dep[deep as usize].push(c);
                    }
                }
            }
        }
    }
    (Labeling::new(colors), lambda)
}

/// Textbook greedy on the sweep: for each opening interval take the mex of
/// the colors currently "blocked" (held by the same `L_v` bookkeeping), via
/// a boolean scan. Optimal span, but `O(n · span + nt)`.
pub fn l1_coloring_scan(rep: &IntervalRepresentation, t: u32) -> (Labeling, u32) {
    assert!(t >= 1);
    let n = rep.len();
    // busy[c] > 0 <=> color c sits in some P_j with j >= 1 (blocked).
    let mut busy: Vec<bool> = Vec::new();
    let mut level = vec![0u32; n + 1];
    let mut dep: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut colors = vec![u32::MAX; n];
    let mut lambda = 0u32;
    let mut max_r = 0u32;
    let mut deep = 0u32;
    let mut open = 0usize;
    for &ev in rep.events() {
        match ev {
            Endpoint::Left(v) => {
                if open == 0 && v > 0 {
                    busy.clear(); // a gap: the next component starts afresh
                }
                let c = busy.iter().position(|&b| !b).unwrap_or_else(|| {
                    busy.push(false);
                    busy.len() - 1
                }) as u32;
                busy[c as usize] = true;
                lambda = lambda.max(c);
                colors[v as usize] = c;
                level[c as usize] = t;
                dep[v as usize].push(c);
                if rep.right(v) > max_r {
                    max_r = rep.right(v);
                    deep = v;
                }
                open += 1;
            }
            Endpoint::Right(v) => {
                open -= 1;
                let drained = std::mem::take(&mut dep[v as usize]);
                for c in drained {
                    let j = level[c as usize];
                    level[c as usize] = j - 1;
                    if j == 1 {
                        busy[c as usize] = false;
                    } else if deep != v {
                        dep[deep as usize].push(c);
                    }
                }
            }
        }
    }
    (Labeling::new(colors), lambda)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::l1_coloring;
    use crate::spec::{verify_labeling, SeparationVector};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssg_intervals::gen::random_intervals;

    #[test]
    fn all_variants_agree_on_span_and_are_legal() {
        let mut rng = StdRng::seed_from_u64(120);
        for round in 0..20 {
            let rep = random_intervals(60, 25.0, 0.5, 4.0, &mut rng);
            let g = rep.to_graph();
            for t in 1..=4u32 {
                let reference = l1_coloring(&rep, t);
                let (bt_lab, bt_span) = l1_coloring_btreeset(&rep, t);
                let (sc_lab, sc_span) = l1_coloring_scan(&rep, t);
                assert_eq!(
                    bt_span, reference.lambda_star,
                    "btreeset round {round} t={t}"
                );
                assert_eq!(sc_span, reference.lambda_star, "scan round {round} t={t}");
                let sep = SeparationVector::all_ones(t);
                verify_labeling(&g, &sep, bt_lab.colors()).unwrap();
                verify_labeling(&g, &sep, sc_lab.colors()).unwrap();
            }
        }
    }

    #[test]
    fn btreeset_extracts_smallest_color_first() {
        // With pop-min, the first interval always gets color 0 and a chain
        // gets 0,1,0,1,... at t=1.
        let rep =
            IntervalRepresentation::from_floats(&[(0.0, 2.0), (1.0, 3.0), (2.5, 4.5), (4.0, 6.0)])
                .unwrap();
        let (lab, span) = l1_coloring_btreeset(&rep, 1);
        assert_eq!(span, 1);
        assert_eq!(lab.colors(), &[0, 1, 0, 1]);
    }

    #[test]
    fn empty_and_singleton() {
        let rep = IntervalRepresentation::from_floats(&[]).unwrap();
        assert_eq!(l1_coloring_btreeset(&rep, 2).1, 0);
        assert_eq!(l1_coloring_scan(&rep, 2).1, 0);
        let rep = IntervalRepresentation::from_floats(&[(0.0, 1.0)]).unwrap();
        assert_eq!(l1_coloring_btreeset(&rep, 2).0.colors(), &[0]);
        assert_eq!(l1_coloring_scan(&rep, 2).0.colors(), &[0]);
    }
}
