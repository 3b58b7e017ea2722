//! # ssg-labeling
//!
//! The core contribution of *Channel Assignment on Strongly-Simplicial
//! Graphs* (Bertossi–Pinotti–Rizzi, IPPS 2003): optimal and approximate
//! `L(δ1,...,δt)`-colorings of interval graphs, unit interval graphs and
//! trees.
//!
//! | Module | Paper artifact | Guarantee |
//! |---|---|---|
//! | [`interval::l1_coloring`] | Figure 1, Theorem 1 | optimal, `O(nt)` |
//! | [`interval::lambda_star`] | Theorem 1, Lemma 3 | `λ*_{G,t}` without coloring, `O(nt)` |
//! | [`interval::approx_delta1_coloring`] | §3.2, Theorem 2 | span ≤ `λ*_t + 2(δ1-1)λ*₁`, ≤ 3·OPT |
//! | [`unit_interval::l_delta1_delta2_coloring`] | Figure 2, Theorem 3 | span per Theorem 3 (δ1>2δ2 case corrected — see module docs), ≤ 3·OPT |
//! | [`tree::l1_coloring`] | Figures 3–5, Theorem 4 | optimal, `O(nt)` |
//! | [`tree::approx_delta1_coloring`] | §4.2, Theorem 5 | span ≤ `λ* + 2(δ1-1)`, ≤ 3·OPT |
//!
//! Supporting machinery: validated [`SeparationVector`]s, the
//! definition-level [`verify_labeling`] checker, exact oracles
//! ([`exact::exact_min_span`], [`exact::path_optimal`] standing in for the
//! Van den Heuvel–Leese–Shepherd path algorithm the paper cites as reference 10),
//! greedy baselines ([`baseline`]), and the palette-family data structure of
//! Theorem 1's complexity argument ([`palette`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod auto;
pub mod baseline;
pub mod certificate;
pub mod exact;
pub mod incremental;
pub mod interval;
pub mod palette;
pub mod solver;
pub mod spec;
pub mod tree;
pub mod unit_interval;
pub mod workspace;

pub use incremental::{FallbackReason, IncrementalOutcome, IncrementalSolver, UNCOLORED};
pub use solver::{InstanceKind, Problem, ProblemInstance, Solver, SolverRegistry};
pub use spec::{
    all_violations, verify_labeling, Labeling, SeparationError, SeparationVector, Violation,
};
pub use ssg_error::SsgError;
pub use workspace::{Workspace, WorkspacePool};
