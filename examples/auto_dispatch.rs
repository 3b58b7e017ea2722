//! Automatic class detection and algorithm dispatch: feed bare graphs of
//! different classes to `auto_coloring` and see which paper algorithm (and
//! guarantee) each one gets.
//!
//! ```sh
//! cargo run --example auto_dispatch
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use strongly_simplicial::labeling::auto::{auto_coloring, Guarantee};
use strongly_simplicial::labeling::{verify_labeling, SeparationVector};
use strongly_simplicial::prelude::*;

fn main() {
    let mut rng = StdRng::seed_from_u64(2026);
    let inputs: Vec<(&str, Graph)> = vec![
        (
            "random tree",
            strongly_simplicial::graph::generators::random_tree(60, &mut rng),
        ),
        (
            "two-tree forest",
            Graph::from_edges(9, &[(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (5, 8)])
                .unwrap(),
        ),
        (
            "vehicle platoon (unit interval)",
            strongly_simplicial::intervals::gen::corridor_unit_intervals(50, 4, &mut rng)
                .to_graph(),
        ),
        (
            "chordal non-interval",
            Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]).unwrap(),
        ),
        (
            "8-cycle (outside every class)",
            strongly_simplicial::graph::generators::cycle(8),
        ),
    ];

    for sep in [
        SeparationVector::all_ones(2),
        SeparationVector::two(2, 1).unwrap(),
        SeparationVector::delta1_then_ones(3, 2).unwrap(),
    ] {
        println!("=== separation {sep} ===");
        for (name, g) in &inputs {
            let out = auto_coloring(g, &sep);
            verify_labeling(g, &sep, out.labeling.colors()).expect("dispatch output is legal");
            let guarantee = match out.guarantee {
                Guarantee::Optimal => "optimal".to_string(),
                Guarantee::Approximation(f) => format!("{f}-approx"),
                Guarantee::Heuristic => "heuristic".to_string(),
            };
            // The derived `Debug` ignores a width, so pad its rendering.
            println!(
                "  {name:<34} -> {:<14} {:<34} span {:>3}  [{guarantee}]",
                format!("{:?}", out.class),
                out.algorithm,
                out.labeling.span()
            );
        }
    }
}
