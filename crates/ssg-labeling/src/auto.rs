//! Class detection and automatic algorithm dispatch: the entry point for
//! callers holding a bare [`Graph`] of unknown provenance.
//!
//! [`classify`] certifies the input as a tree, a proper interval graph, or a
//! chordal graph (in that order of preference); [`auto_coloring`] then
//! routes to the strongest applicable algorithm from the paper (the table is
//! [`auto_route`](crate::solver::auto_route)) and reports exactly which
//! guarantee the caller obtained.
//!
//! These free functions are transient-workspace wrappers over
//! [`default_registry`]: repeated callers should hold a
//! [`Workspace`] and call the registry's
//! [`auto_coloring`](crate::solver::SolverRegistry::auto_coloring)
//! directly for the warm zero-allocation path.

use crate::solver::default_registry;
use crate::spec::{Labeling, SeparationVector};
use crate::workspace::Workspace;
use ssg_graph::Graph;
use ssg_telemetry::Metrics;

/// The class of an instance: what [`classify`] certified a bare graph as,
/// or what the structure of a shaped instance (an interval, unit-interval or
/// tree representation) guarantees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphClass {
    /// Connected and acyclic.
    Tree,
    /// Acyclic but disconnected.
    Forest,
    /// An interval graph given by its representation. [`classify`] never
    /// returns it: it recognises only proper interval graphs.
    Interval,
    /// Proper (= unit) interval graph, certified by an umbrella ordering.
    ProperInterval,
    /// Chordal (certified by a perfect elimination order) but not one of
    /// the above.
    Chordal,
    /// None of the recognized classes.
    Unknown,
}

/// What guarantee the dispatched algorithm carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Guarantee {
    /// The span is provably minimal.
    Optimal,
    /// Within the stated factor of the optimum (paper Theorems 2/3/5).
    Approximation(u32),
    /// Legal but unbounded (greedy fallback).
    Heuristic,
}

/// Result of automatic dispatch.
#[derive(Debug, Clone)]
pub struct AutoOutput {
    /// The coloring, indexed by the input graph's own vertex ids.
    pub labeling: Labeling,
    /// The class the input was certified as.
    pub class: GraphClass,
    /// Short name of the algorithm that ran.
    pub algorithm: &'static str,
    /// The guarantee that algorithm carries for this input.
    pub guarantee: Guarantee,
}

/// Certifies the strongest class this library can exploit. Cost: `O(n + m)`
/// for trees, three Lex-BFS sweeps for proper interval, one for chordal.
///
/// ```
/// use ssg_graph::generators;
/// use ssg_labeling::auto::{classify, GraphClass};
/// assert_eq!(classify(&generators::path(5)), GraphClass::Tree);
/// assert_eq!(classify(&generators::complete(4)), GraphClass::ProperInterval);
/// assert_eq!(classify(&generators::cycle(7)), GraphClass::Unknown);
/// ```
pub fn classify(g: &Graph) -> GraphClass {
    default_registry().classify(g)
}

/// Automatic dispatch on a bare graph: [`classify`] it, then run the solver
/// [`auto_route`](crate::solver::auto_route) picks for its class under
/// `sep` (the route table is documented there), or greedy BFS first-fit
/// (legal, no guarantee) when there is none.
pub fn auto_coloring(g: &Graph, sep: &SeparationVector) -> AutoOutput {
    default_registry().auto_coloring(g, sep, &mut Workspace::new(), &Metrics::disabled())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval as interval_mod;
    use crate::spec::verify_labeling;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssg_graph::generators;
    use ssg_tree::RootedTree;

    #[test]
    fn classifies_known_families() {
        let mut rng = StdRng::seed_from_u64(110);
        assert_eq!(
            classify(&generators::random_tree(20, &mut rng)),
            GraphClass::Tree
        );
        assert_eq!(
            classify(&generators::complete(5)),
            GraphClass::ProperInterval
        );
        // The claw is chordal but neither a tree (it is — wait, K_{1,3} IS a
        // tree). Use a chordal non-interval graph: two triangles sharing a
        // vertex plus a pendant making it non-proper...
        // Simplest: star + triangle glued: vertices 0..4, star edges 0-1,0-2,
        // 0-3 and triangle 1-2 gives a chordal graph that is interval but
        // not proper (claw K_{1,3} inside? 0 adjacent to 1,2,3; 1-2 edge;
        // claw on {0,3,1_or_2, ...}). classify returns Chordal only when not
        // proper interval.
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]).unwrap();
        assert_eq!(classify(&g), GraphClass::Chordal);
        assert_eq!(classify(&generators::cycle(6)), GraphClass::Unknown);
    }

    #[test]
    fn auto_l1_on_trees_is_optimal() {
        let mut rng = StdRng::seed_from_u64(111);
        for _ in 0..5 {
            let g = generators::random_tree(30, &mut rng);
            for t in 1..=3u32 {
                let out = auto_coloring(&g, &SeparationVector::all_ones(t));
                assert_eq!(out.class, GraphClass::Tree);
                assert_eq!(out.guarantee, Guarantee::Optimal);
                verify_labeling(&g, &SeparationVector::all_ones(t), out.labeling.colors()).unwrap();
                let order: Vec<u32> = (0..30).collect();
                // BFS order on the ORIGINAL ids need not satisfy Lemma 2,
                // so compare spans via the canonical-order peel instead.
                let tr = RootedTree::bfs_canonical(&g, 0).unwrap();
                let cg = tr.to_graph();
                let canon: Vec<u32> = (0..30).collect();
                let oracle = ssg_simplicial::peel_lambda_star(&cg, t, &canon);
                let _ = order;
                assert_eq!(out.labeling.span(), oracle);
            }
        }
    }

    #[test]
    fn auto_l1_on_unit_interval_graphs_is_optimal() {
        let mut rng = StdRng::seed_from_u64(112);
        for _ in 0..5 {
            let src = ssg_intervals::gen::random_connected_unit_intervals(20, 0.6, &mut rng);
            let g = src.to_graph();
            for t in 1..=3u32 {
                let out = auto_coloring(&g, &SeparationVector::all_ones(t));
                assert_eq!(out.class, GraphClass::ProperInterval, "t={t}");
                assert_eq!(out.guarantee, Guarantee::Optimal);
                verify_labeling(&g, &SeparationVector::all_ones(t), out.labeling.colors()).unwrap();
                // Optimality vs the source representation's own run.
                let direct = interval_mod::l1_coloring(src.as_interval(), t).lambda_star;
                assert_eq!(out.labeling.span(), direct, "t={t}");
            }
        }
    }

    #[test]
    fn auto_l1_on_chordal_at_t1_matches_clique() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]).unwrap();
        let out = auto_coloring(&g, &SeparationVector::all_ones(1));
        assert_eq!(out.class, GraphClass::Chordal);
        assert_eq!(out.guarantee, Guarantee::Optimal);
        verify_labeling(&g, &SeparationVector::all_ones(1), out.labeling.colors()).unwrap();
        assert_eq!(out.labeling.span(), 2); // ω = 3
                                            // Same graph, t = 2: falls back to greedy (still legal).
        let out = auto_coloring(&g, &SeparationVector::all_ones(2));
        assert_eq!(out.guarantee, Guarantee::Heuristic);
        verify_labeling(&g, &SeparationVector::all_ones(2), out.labeling.colors()).unwrap();
    }

    #[test]
    fn auto_coloring_routes_separations() {
        let mut rng = StdRng::seed_from_u64(113);
        let tree = generators::random_tree(25, &mut rng);
        let sep = SeparationVector::delta1_then_ones(3, 2).unwrap();
        let out = auto_coloring(&tree, &sep);
        assert_eq!(out.algorithm, "tree-approx-d1 (Theorem 5)");
        verify_labeling(&tree, &sep, out.labeling.colors()).unwrap();

        let src = ssg_intervals::gen::random_connected_unit_intervals(18, 0.6, &mut rng);
        let g = src.to_graph();
        // Every L(δ1, δ2) on a unit-interval graph goes to A3, δ2 = 1
        // included: the engine routes unit-interval requests the same way.
        for (d1, d2) in [(4, 2), (2, 1), (5, 1)] {
            let sep = SeparationVector::two(d1, d2).unwrap();
            let out = auto_coloring(&g, &sep);
            assert_eq!(out.algorithm, "unit-l-d1d2 (Theorem 3)", "L({d1},{d2})");
            assert_eq!(out.guarantee, Guarantee::Approximation(3));
            verify_labeling(&g, &sep, out.labeling.colors()).unwrap();
        }

        let sep = SeparationVector::delta1_then_ones(3, 3).unwrap();
        let out = auto_coloring(&g, &sep);
        assert_eq!(out.algorithm, "interval-approx-d1 (Theorem 2)");
        verify_labeling(&g, &sep, out.labeling.colors()).unwrap();

        let cyc = generators::cycle(8);
        let sep = SeparationVector::two(2, 1).unwrap();
        let out = auto_coloring(&cyc, &sep);
        assert_eq!(out.guarantee, Guarantee::Heuristic);
        verify_labeling(&cyc, &sep, out.labeling.colors()).unwrap();
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, &[]).unwrap();
        let out = auto_coloring(&g, &SeparationVector::all_ones(2));
        assert!(out.labeling.is_empty());
    }
}
