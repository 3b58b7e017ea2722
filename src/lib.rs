//! # strongly-simplicial
//!
//! A complete Rust implementation of *Channel Assignment on
//! Strongly-Simplicial Graphs* (A.A. Bertossi, M.C. Pinotti, R. Rizzi,
//! IPPS 2003): optimal `L(1,...,1)`-colorings and approximate
//! `L(δ1,1,...,1)` / `L(δ1,δ2)`-colorings of trees, interval graphs and unit
//! interval graphs, together with the full substrate the algorithms stand on
//! (graphs, interval models, rooted-tree machinery, t-simplicial theory) and
//! a synthetic wireless-network workload generator.
//!
//! This facade crate re-exports every workspace crate under one roof:
//!
//! * [`graph`] — CSR graphs, traversal, `A_{G,t}` powers, generators.
//! * [`intervals`] — interval / unit-interval representations and sweeps.
//! * [`tree`] — rooted trees, BFS orders, `D_i(x)` descendant lists and
//!   `F_t(y)` up-neighborhoods (paper Figures 3–4).
//! * [`simplicial`] — t-simplicial vertex theory and the generic Lemma-2
//!   peeling solver.
//! * [`labeling`] — the paper's algorithms A1–A5 plus exact oracles and
//!   baselines.
//! * [`engine`] — the sharded batch labeling engine (bounded work-stealing
//!   queues, per-worker workspaces, panic isolation, deadlines).
//! * [`error`] — the unified [`SsgError`](error::SsgError) every public
//!   fallible entry point returns.
//! * [`net`] — the TCP front door (`ssg serve`): the `ssg-proto/1` line
//!   protocol plus minimal HTTP/1.1 on one sniffed port, and the
//!   open-loop `ssg loadgen` load generator (see `PROTOCOL.md`).
//! * [`netsim`] — synthetic wireless workloads and the rayon-parallel
//!   experiment harness.
//! * [`lab`] — the declarative scenario lab behind `ssg lab`: parameter-grid
//!   specs expanded into deterministic cells, resumable run directories,
//!   and the committed-baseline regression gate.
//! * [`telemetry`] — zero-dependency work counters, phase timers, latency
//!   histograms, tracing spans, the flight recorder, and the hand-rolled
//!   JSON writer behind `ssg bench --format json`, plus the Chrome
//!   trace-event exporter and self-time profiler behind `ssg trace` and
//!   `ssg profile`.
//! * [`bench`](mod@bench) — the `ssg bench` harness producing
//!   `ssg-bench/v2` reports over the five paper algorithms.
//!
//! ## Quickstart
//!
//! ```
//! use strongly_simplicial::prelude::*;
//!
//! // A small interval graph: five stations along a corridor.
//! let spec = vec![(0.0, 2.5), (1.0, 3.5), (3.0, 6.0), (5.0, 8.0), (7.0, 9.0)];
//! let rep = IntervalRepresentation::from_floats(&spec).unwrap();
//!
//! // Optimal L(1,1)-coloring (t = 2): stations within two hops get distinct
//! // channels.
//! let out = interval_l1_coloring(&rep, 2);
//! let g = rep.to_graph();
//! assert!(verify_labeling(&g, &SeparationVector::all_ones(2), out.labeling.colors()).is_ok());
//! ```

#![forbid(unsafe_code)]

pub use ssg_engine as engine;
pub use ssg_error as error;
pub use ssg_graph as graph;
pub use ssg_intervals as intervals;
pub use ssg_lab as lab;
pub use ssg_labeling as labeling;
pub use ssg_net as net;
pub use ssg_netsim as netsim;
pub use ssg_simplicial as simplicial;
pub use ssg_telemetry as telemetry;
pub use ssg_tree as tree;

pub mod bench;

/// Convenient glob-import surface covering the most common types and entry
/// points from every crate.
pub mod prelude {
    pub use ssg_engine::{Backpressure, Engine, LabelRequest, LabelResponse, RequestInstance};
    pub use ssg_error::SsgError;
    pub use ssg_graph::{augmented_graph, Graph, GraphBuilder, Vertex};
    pub use ssg_intervals::{IntervalRepresentation, UnitIntervalRepresentation};
    pub use ssg_labeling::interval::{approx_delta1_coloring, l1_coloring as interval_l1_coloring};
    pub use ssg_labeling::solver::{default_registry, Problem, ProblemInstance, Solver};
    pub use ssg_labeling::tree::{
        approx_delta1_coloring as tree_approx_delta1_coloring, l1_coloring as tree_l1_coloring,
    };
    pub use ssg_labeling::unit_interval::l_delta1_delta2_coloring;
    pub use ssg_labeling::{
        verify_labeling, Labeling, SeparationVector, SolverRegistry, Workspace, WorkspacePool,
    };
    pub use ssg_net::{run_loadgen, LoadgenConfig, Server, ServerConfig};
    pub use ssg_simplicial::{is_strongly_simplicial, is_t_simplicial, peel_l1_coloring};
    pub use ssg_tree::RootedTree;
}
