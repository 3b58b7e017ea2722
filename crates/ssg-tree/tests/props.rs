//! Property tests for the rooted-tree machinery against naive references.

use proptest::prelude::*;
use ssg_graph::Graph;
use ssg_tree::{explore_descendents, f_t_size, tree_lambda_star, up_neighborhood, RootedTree};

fn arb_tree() -> impl Strategy<Value = RootedTree> {
    (2usize..24).prop_flat_map(|n| {
        prop::collection::vec(0..n as u32, n - 2).prop_map(move |pruefer| {
            let edges = ssg_graph::generators::prufer_to_edges(n, &pruefer);
            let g = Graph::from_edges(n, &edges).unwrap();
            RootedTree::bfs_canonical(&g, 0).unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn lca_and_distance_match_bfs(tree in arb_tree()) {
        let g = tree.to_graph();
        for u in 0..tree.len() as u32 {
            let d = ssg_graph::traversal::bfs_distances(&g, u);
            for v in 0..tree.len() as u32 {
                prop_assert_eq!(tree.distance(u, v), d[v as usize]);
                let a = tree.lca(u, v);
                prop_assert!(tree.is_ancestor(a, u) && tree.is_ancestor(a, v));
                // LCA maximality: its children that are ancestors of u are
                // not ancestors of v (and vice versa) unless u == v side.
                let du = tree.level(u) - tree.level(a);
                let dv = tree.level(v) - tree.level(a);
                prop_assert_eq!(tree.distance(u, v), du + dv);
            }
        }
    }

    #[test]
    fn descendant_ranges_equal_figure3_lists(tree in arb_tree(), t in 1u32..5) {
        let lists = explore_descendents(&tree, t);
        for x in 0..tree.len() as u32 {
            for i in 0..=t {
                let range: Vec<u32> = tree.descendant_range(x, i).collect();
                prop_assert_eq!(lists.get(x, i), range.as_slice());
            }
        }
    }

    #[test]
    fn f_t_counts_vertices_within_t_in_truncated_tree(tree in arb_tree(), t in 1u32..6) {
        for y in 0..tree.len() as u32 {
            let expect = (0..tree.len() as u32)
                .filter(|&u| u != y
                    && tree.level(u) <= tree.level(y)
                    && tree.distance(u, y) <= t)
                .count();
            prop_assert_eq!(f_t_size(&tree, y, t), expect, "y={} t={}", y, t);
            let up = t.min(tree.level(y));
            prop_assert_eq!(up_neighborhood(&tree, y, up, t).len(), expect);
        }
    }

    #[test]
    fn lambda_star_is_the_largest_f_t(tree in arb_tree(), t in 1u32..8) {
        let largest = (0..tree.len() as u32).map(|y| f_t_size(&tree, y, t)).max();
        prop_assert_eq!(tree_lambda_star(&tree, t), largest.unwrap_or(0), "t={}", t);
    }

    #[test]
    fn levels_are_contiguous_and_sorted(tree in arb_tree()) {
        let mut covered = 0u32;
        for l in 0..=tree.height() {
            let r = tree.level_range(l);
            prop_assert_eq!(r.start, covered);
            covered = r.end;
        }
        prop_assert_eq!(covered as usize, tree.len());
    }
}
