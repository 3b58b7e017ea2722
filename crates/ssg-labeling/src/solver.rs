//! The unified [`Solver`] trait and [`SolverRegistry`] dispatcher.
//!
//! Every algorithm has a `*_ws(..., &mut Workspace, &Metrics)` entry point;
//! this module gives them a common *shape*. A [`Problem`] bundles an instance (bare
//! graph, interval representation, unit-interval representation, or rooted
//! tree) with the separation vector to enforce; a [`Solver`] consumes a
//! problem plus a [`Workspace`] arena and produces a [`Labeling`]:
//!
//! ```text
//! fn solve_with(&self, problem: &Problem, ws: &mut Workspace, m: &Metrics) -> Labeling
//! ```
//!
//! The [`SolverRegistry`] owns the solver set **and** the graph-class
//! dispatch: [`SolverRegistry::classify`] certifies the strongest class of
//! a bare graph, and [`auto_route`] is the one table that picks a solver for
//! a class and a separation vector. [`SolverRegistry::auto_coloring`] runs
//! that pick on a bare graph, threading one warm workspace through whichever
//! algorithm runs; the batch engine consults [`auto_route`] directly for
//! requests that arrive already shaped as an interval, unit-interval or tree
//! instance. [`crate::auto`]'s free functions are thin transient-workspace
//! wrappers over [`default_registry`].
//!
//! Solver names double as the bench-report algorithm ids
//! (`interval_l1`, `tree_approx_delta1`, ...), so a report row can be
//! replayed by name: `registry.get(id).solve_with(...)`.
//!
//! See `ARCHITECTURE.md` for the "adding a new solver" recipe.

use crate::auto::{AutoOutput, GraphClass, Guarantee};
use crate::spec::{Labeling, SeparationVector};
use crate::workspace::Workspace;
use crate::{baseline, exact, interval, tree, unit_interval};
use ssg_graph::ordering::{is_perfect_elimination_order, lex_bfs};
use ssg_graph::recognition::{is_forest, is_tree, proper_interval_order};
use ssg_error::SsgError;
use ssg_graph::{Graph, Vertex};
use ssg_intervals::recognize::recognize_unit_interval;
use ssg_intervals::{IntervalRepresentation, UnitIntervalRepresentation};
use ssg_telemetry::{Hist, Metrics};
use ssg_tree::RootedTree;
use std::sync::OnceLock;

/// The structure a [`Problem`] presents its instance in. Each solver
/// documents which variants it accepts and panics on the others — feeding a
/// solver the wrong structure is a caller bug, not a runtime condition.
/// (Callers routing *untrusted* structure, like the batch engine, use
/// [`SolverRegistry::try_solve`], which refuses mismatches with a
/// [`SsgError::ClassMismatch`] instead of panicking.)
#[derive(Debug, Clone, Copy)]
pub enum ProblemInstance<'a> {
    /// A bare graph (greedy baselines, the Lemma-2 peel, forests, exact).
    Graph(&'a Graph),
    /// An interval representation in left-endpoint order (A1, A2).
    Interval(&'a IntervalRepresentation),
    /// A proper/unit interval representation (A3).
    UnitInterval(&'a UnitIntervalRepresentation),
    /// A BFS-canonical rooted tree (A4, A5).
    Tree(&'a RootedTree),
}

/// The *shape* of a [`ProblemInstance`], without the borrowed payload:
/// what a [`Solver`] declares it consumes via [`Solver::instance_kind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceKind {
    /// A bare graph.
    Graph,
    /// An interval representation.
    Interval,
    /// A proper/unit interval representation.
    UnitInterval,
    /// A BFS-canonical rooted tree.
    Tree,
}

impl InstanceKind {
    /// Human-readable name used in mismatch diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            InstanceKind::Graph => "graph",
            InstanceKind::Interval => "interval",
            InstanceKind::UnitInterval => "unit-interval",
            InstanceKind::Tree => "tree",
        }
    }
}

impl ProblemInstance<'_> {
    /// The shape of this instance.
    pub fn kind(&self) -> InstanceKind {
        match self {
            ProblemInstance::Graph(_) => InstanceKind::Graph,
            ProblemInstance::Interval(_) => InstanceKind::Interval,
            ProblemInstance::UnitInterval(_) => InstanceKind::UnitInterval,
            ProblemInstance::Tree(_) => InstanceKind::Tree,
        }
    }
}

/// One channel-assignment instance: what to color and under which
/// `L(δ1,...,δt)` constraints.
#[derive(Debug, Clone, Copy)]
pub struct Problem<'a> {
    /// The instance structure.
    pub instance: ProblemInstance<'a>,
    /// The separation vector to enforce.
    pub sep: &'a SeparationVector,
}

impl<'a> Problem<'a> {
    /// A problem over a bare graph.
    pub fn graph(g: &'a Graph, sep: &'a SeparationVector) -> Self {
        Self {
            instance: ProblemInstance::Graph(g),
            sep,
        }
    }

    /// A problem over an interval representation.
    pub fn interval(rep: &'a IntervalRepresentation, sep: &'a SeparationVector) -> Self {
        Self {
            instance: ProblemInstance::Interval(rep),
            sep,
        }
    }

    /// A problem over a unit-interval representation.
    pub fn unit_interval(rep: &'a UnitIntervalRepresentation, sep: &'a SeparationVector) -> Self {
        Self {
            instance: ProblemInstance::UnitInterval(rep),
            sep,
        }
    }

    /// A problem over a BFS-canonical rooted tree.
    pub fn tree(t: &'a RootedTree, sep: &'a SeparationVector) -> Self {
        Self {
            instance: ProblemInstance::Tree(t),
            sep,
        }
    }
}

/// A channel-assignment algorithm behind a uniform entry point.
///
/// Implementations borrow every scratch buffer from the [`Workspace`], so a
/// caller that holds one workspace across solves gets the warm zero-
/// allocation path, and telemetry (including
/// [`Counter::WorkspaceReuses`](ssg_telemetry::Counter::WorkspaceReuses))
/// lands on `m` exactly as it does for the direct `*_ws` entry points —
/// [`Solver::solve_with`] **is** the direct entry point, reshaped.
pub trait Solver: Send + Sync {
    /// Stable identifier; doubles as the bench-report algorithm id.
    fn name(&self) -> &'static str;

    /// The instance shape this solver consumes. [`SolverRegistry::try_solve`]
    /// checks it before dispatch so mismatches surface as
    /// [`SsgError::ClassMismatch`] instead of a panic.
    fn instance_kind(&self) -> InstanceKind;

    /// Solves `problem` using `ws` for scratch space, recording telemetry
    /// on `m`. Panics when `problem.instance` is a structure this solver
    /// does not accept (see each solver's docs).
    fn solve_with(&self, problem: &Problem, ws: &mut Workspace, m: &Metrics) -> Labeling;
}

fn wrong_instance(name: &str, wants: &str) -> ! {
    panic!("solver `{name}` requires a {wants} instance");
}

/// A1 — `Interval-L(1,...,1)-coloring` (Figure 1, Theorem 1). Optimal.
/// Accepts [`ProblemInstance::Interval`] (the registry also hands it a
/// [`ProblemInstance::UnitInterval`] as its interval representation); uses
/// `sep.t()`.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntervalL1;

impl Solver for IntervalL1 {
    fn name(&self) -> &'static str {
        "interval_l1"
    }

    fn instance_kind(&self) -> InstanceKind {
        InstanceKind::Interval
    }

    fn solve_with(&self, problem: &Problem, ws: &mut Workspace, m: &Metrics) -> Labeling {
        match problem.instance {
            ProblemInstance::Interval(rep) => {
                interval::l1_coloring_ws(rep, problem.sep.t(), ws, m).labeling
            }
            _ => wrong_instance(self.name(), "interval"),
        }
    }
}

/// A2 — `Interval-L(δ1,1,...,1)-coloring` (§3.2, Theorem 2).
/// 3-approximation. Accepts [`ProblemInstance::Interval`] (and, through the
/// registry, [`ProblemInstance::UnitInterval`], as A1); uses `sep.t()` and
/// `sep.delta(1)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntervalApproxDelta1;

impl Solver for IntervalApproxDelta1 {
    fn name(&self) -> &'static str {
        "interval_approx_delta1"
    }

    fn instance_kind(&self) -> InstanceKind {
        InstanceKind::Interval
    }

    fn solve_with(&self, problem: &Problem, ws: &mut Workspace, m: &Metrics) -> Labeling {
        match problem.instance {
            ProblemInstance::Interval(rep) => {
                interval::approx_delta1_coloring_ws(rep, problem.sep.t(), problem.sep.delta(1), ws, m)
                    .labeling
            }
            _ => wrong_instance(self.name(), "interval"),
        }
    }
}

/// A3 — `Unit-Interval-L(δ1,δ2)-coloring` (Figure 2, Theorem 3, with the
/// pair-comb correction). Accepts [`ProblemInstance::UnitInterval`] with
/// `sep.t() == 2`.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitIntervalLDelta1Delta2;

impl Solver for UnitIntervalLDelta1Delta2 {
    fn name(&self) -> &'static str {
        "unit_interval_l_delta1_delta2"
    }

    fn instance_kind(&self) -> InstanceKind {
        InstanceKind::UnitInterval
    }

    fn solve_with(&self, problem: &Problem, ws: &mut Workspace, m: &Metrics) -> Labeling {
        assert_eq!(problem.sep.t(), 2, "A3 handles exactly L(δ1,δ2)");
        match problem.instance {
            ProblemInstance::UnitInterval(rep) => unit_interval::l_delta1_delta2_coloring_ws(
                rep,
                problem.sep.delta(1),
                problem.sep.delta(2),
                ws,
                m,
            )
            .labeling,
            _ => wrong_instance(self.name(), "unit-interval"),
        }
    }
}

/// A4 — `Tree-L(1,...,1)-coloring` (Figure 5, Theorem 4). Optimal.
/// Accepts [`ProblemInstance::Tree`]; colors are in the tree's canonical
/// numbering ([`tree::to_original_ids`] maps back).
#[derive(Debug, Clone, Copy, Default)]
pub struct TreeL1;

impl Solver for TreeL1 {
    fn name(&self) -> &'static str {
        "tree_l1"
    }

    fn instance_kind(&self) -> InstanceKind {
        InstanceKind::Tree
    }

    fn solve_with(&self, problem: &Problem, ws: &mut Workspace, m: &Metrics) -> Labeling {
        match problem.instance {
            ProblemInstance::Tree(t) => tree::l1_coloring_ws(t, problem.sep.t(), ws, m).labeling,
            _ => wrong_instance(self.name(), "tree"),
        }
    }
}

/// A5 — `Tree-L(δ1,1,...,1)-coloring` (§4.2, Theorem 5). 3-approximation.
/// Accepts [`ProblemInstance::Tree`] (canonical numbering, as [`TreeL1`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct TreeApproxDelta1;

impl Solver for TreeApproxDelta1 {
    fn name(&self) -> &'static str {
        "tree_approx_delta1"
    }

    fn instance_kind(&self) -> InstanceKind {
        InstanceKind::Tree
    }

    fn solve_with(&self, problem: &Problem, ws: &mut Workspace, m: &Metrics) -> Labeling {
        match problem.instance {
            ProblemInstance::Tree(t) => {
                tree::approx_delta1_coloring_ws(t, problem.sep.t(), problem.sep.delta(1), ws, m)
                    .labeling
            }
            _ => wrong_instance(self.name(), "tree"),
        }
    }
}

/// Figure 5 per component over a shared color pool. Optimal on forests.
/// Accepts [`ProblemInstance::Graph`] that certifies as a forest.
#[derive(Debug, Clone, Copy, Default)]
pub struct ForestL1;

impl Solver for ForestL1 {
    fn name(&self) -> &'static str {
        "forest_l1"
    }

    fn instance_kind(&self) -> InstanceKind {
        InstanceKind::Graph
    }

    fn solve_with(&self, problem: &Problem, ws: &mut Workspace, m: &Metrics) -> Labeling {
        match problem.instance {
            ProblemInstance::Graph(g) => tree::l1_coloring_forest_ws(g, problem.sep.t(), ws, m)
                .expect("solver `forest_l1` requires a forest")
                .labeling,
            _ => wrong_instance(self.name(), "graph"),
        }
    }
}

/// Lemma-2 peel along a Lex-BFS order. Optimal on chordal graphs at
/// `t = 1` (and on strongly-simplicial inputs whose peel stays
/// distance-safe). Accepts [`ProblemInstance::Graph`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Lemma2Peel;

impl Solver for Lemma2Peel {
    fn name(&self) -> &'static str {
        "lemma2_peel"
    }

    fn instance_kind(&self) -> InstanceKind {
        InstanceKind::Graph
    }

    fn solve_with(&self, problem: &Problem, ws: &mut Workspace, m: &Metrics) -> Labeling {
        match problem.instance {
            ProblemInstance::Graph(g) => {
                ws.begin_solve(m);
                let insertion = lex_bfs(g, 0);
                let (colors, _) =
                    ssg_simplicial::peel_l1_coloring_ws(g, problem.sep.t(), &insertion, &mut ws.peel, m);
                Labeling::new(colors)
            }
            _ => wrong_instance(self.name(), "graph"),
        }
    }
}

/// Exact branch-and-bound minimum span (the small-`n` oracle). Accepts
/// [`ProblemInstance::Graph`]; exponential — keep instances small.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactBranchAndBound;

impl Solver for ExactBranchAndBound {
    fn name(&self) -> &'static str {
        "exact_bb"
    }

    fn instance_kind(&self) -> InstanceKind {
        InstanceKind::Graph
    }

    fn solve_with(&self, problem: &Problem, ws: &mut Workspace, m: &Metrics) -> Labeling {
        match problem.instance {
            ProblemInstance::Graph(g) => {
                ws.begin_solve(m);
                let (labeling, _) = exact::exact_min_span_with(g, problem.sep, m);
                labeling
            }
            _ => wrong_instance(self.name(), "graph"),
        }
    }
}

/// Greedy first-fit in BFS order — the structure-blind baseline. Accepts
/// [`ProblemInstance::Graph`]; legal on anything, no guarantee.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyBfs;

impl Solver for GreedyBfs {
    fn name(&self) -> &'static str {
        "greedy_bfs"
    }

    fn instance_kind(&self) -> InstanceKind {
        InstanceKind::Graph
    }

    fn solve_with(&self, problem: &Problem, ws: &mut Workspace, m: &Metrics) -> Labeling {
        match problem.instance {
            ProblemInstance::Graph(g) => baseline::greedy_bfs_order_ws(g, problem.sep, ws, m),
            _ => wrong_instance(self.name(), "graph"),
        }
    }
}

/// The solver set plus the graph-class dispatch built on it. One registry
/// serves any number of solves; pair it with one [`Workspace`] per thread
/// for warm repeated dispatch.
pub struct SolverRegistry {
    solvers: Vec<Box<dyn Solver>>,
}

impl std::fmt::Debug for SolverRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverRegistry")
            .field("solvers", &self.names())
            .finish()
    }
}

impl Default for SolverRegistry {
    fn default() -> Self {
        Self::with_paper_algorithms()
    }
}

impl SolverRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self {
            solvers: Vec::new(),
        }
    }

    /// A registry holding every algorithm in this crate: A1–A5, the forest
    /// variant, the Lemma-2 peel, the exact oracle, and the greedy
    /// baseline.
    pub fn with_paper_algorithms() -> Self {
        let mut r = Self::new();
        r.register(Box::new(IntervalL1));
        r.register(Box::new(IntervalApproxDelta1));
        r.register(Box::new(UnitIntervalLDelta1Delta2));
        r.register(Box::new(TreeL1));
        r.register(Box::new(TreeApproxDelta1));
        r.register(Box::new(ForestL1));
        r.register(Box::new(Lemma2Peel));
        r.register(Box::new(ExactBranchAndBound));
        r.register(Box::new(GreedyBfs));
        r
    }

    /// Adds a solver. Later registrations shadow earlier ones of the same
    /// name in [`get`](Self::get).
    pub fn register(&mut self, solver: Box<dyn Solver>) {
        self.solvers.push(solver);
    }

    /// Looks a solver up by its [`Solver::name`].
    pub fn get(&self, name: &str) -> Option<&dyn Solver> {
        self.solvers
            .iter()
            .rev()
            .find(|s| s.name() == name)
            .map(Box::as_ref)
    }

    /// The registered solver names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.solvers.iter().map(|s| s.name()).collect()
    }

    /// [`get`](Self::get) + [`Solver::solve_with`], panicking on an unknown
    /// name with the list of known ones.
    pub fn solve(
        &self,
        name: &str,
        problem: &Problem,
        ws: &mut Workspace,
        m: &Metrics,
    ) -> Labeling {
        let solver = self
            .get(name)
            .unwrap_or_else(|| panic!("no solver named `{name}` (have {:?})", self.names()));
        dispatch(solver, problem, ws, m)
    }

    /// Fallible dispatch for callers routing *untrusted* names and
    /// structures (the batch engine, the CLI): an unknown name becomes
    /// [`SsgError::UnknownSolver`] and an instance shape the solver does
    /// not accept becomes [`SsgError::ClassMismatch`] — both checked before
    /// any solving starts. An interval solver accepts a unit-interval
    /// instance (it is solved as its interval representation). A solver's
    /// own internal panics (e.g. A3's `t == 2` assertion) are *not* caught
    /// here; the engine isolates those with `catch_unwind`.
    pub fn try_solve(
        &self,
        name: &str,
        problem: &Problem,
        ws: &mut Workspace,
        m: &Metrics,
    ) -> Result<Labeling, SsgError> {
        let _span = m.span("registry.try_solve");
        let solver = self.get(name).ok_or_else(|| SsgError::UnknownSolver {
            name: name.to_string(),
            known: self.names().iter().map(|s| s.to_string()).collect(),
        })?;
        let wants = solver.instance_kind();
        if reshape(problem, wants).is_none() {
            return Err(SsgError::ClassMismatch {
                expected: wants.name(),
                found: format!(
                    "{} instance (solver `{name}`)",
                    problem.instance.kind().name()
                ),
            });
        }
        Ok(dispatch(solver, problem, ws, m))
    }

    /// Certifies the strongest class this library can exploit. Cost:
    /// `O(n + m)` for trees, three Lex-BFS sweeps for proper interval, one
    /// for chordal.
    pub fn classify(&self, g: &Graph) -> GraphClass {
        if g.num_vertices() == 0 {
            return GraphClass::Unknown;
        }
        if is_tree(g) {
            return GraphClass::Tree;
        }
        if is_forest(g) {
            return GraphClass::Forest;
        }
        if proper_interval_order(g).is_some() {
            return GraphClass::ProperInterval;
        }
        let mut order = lex_bfs(g, 0);
        order.reverse();
        if is_perfect_elimination_order(g, &order) {
            return GraphClass::Chordal;
        }
        GraphClass::Unknown
    }

    /// Automatic dispatch on a bare graph: [`classify`](Self::classify) it,
    /// run the solver [`auto_route`] picks for its class on the class's
    /// representation, and map the labeling back to `g`'s own vertex ids.
    /// A class with no route under `sep` falls back to greedy BFS.
    pub fn auto_coloring(
        &self,
        g: &Graph,
        sep: &SeparationVector,
        ws: &mut Workspace,
        m: &Metrics,
    ) -> AutoOutput {
        let class = self.classify(g);
        let route = auto_route(class, sep);
        let solver = route.unwrap_or("greedy_bfs");
        let labeling = match class {
            GraphClass::Tree if route.is_some() => {
                let tree = RootedTree::bfs_canonical(g, 0).expect("certified tree");
                let lab = self.solve(solver, &Problem::tree(&tree, sep), ws, m);
                let mapped = tree::to_original_ids(&tree, &lab);
                ws.recycle(lab);
                mapped
            }
            GraphClass::ProperInterval if route.is_some() => {
                let (order, rep) = recognize_unit_interval(g).expect("certified proper interval");
                let lab = self.solve(solver, &Problem::unit_interval(&rep, sep), ws, m);
                let mapped = map_back(g, &order, &lab, rep.as_interval());
                ws.recycle(lab);
                mapped
            }
            _ => self.solve(solver, &Problem::graph(g, sep), ws, m),
        };
        let (algorithm, guarantee) = describe(solver);
        AutoOutput {
            labeling,
            class,
            algorithm,
            guarantee,
        }
    }
}

/// The solver automatic dispatch runs on an instance of class `class`
/// under `sep`, or `None` when no paper algorithm covers the pair. This is
/// the one route table: [`SolverRegistry::auto_coloring`] consults it after
/// [`classify`](SolverRegistry::classify), and the batch engine consults it
/// for requests that arrive already shaped. What a caller does without a
/// route is its own policy.
///
/// | class | all-ones | `(δ1,1,…,1)` | other |
/// |---|---|---|---|
/// | tree | `tree_l1` (A4) | `tree_approx_delta1` (A5) | — |
/// | forest | `forest_l1` | — | — |
/// | interval | `interval_l1` (A1) | `interval_approx_delta1` (A2) | — |
/// | proper interval, `t = 2` | `interval_l1` (A1) | `unit_interval_l_delta1_delta2` (A3) | A3 |
/// | proper interval, `t ≠ 2` | `interval_l1` (A1) | `interval_approx_delta1` (A2) | — |
/// | chordal, `t = 1` | `lemma2_peel` | — | — |
///
/// ```
/// use ssg_labeling::auto::GraphClass;
/// use ssg_labeling::solver::auto_route;
/// use ssg_labeling::SeparationVector;
/// let l21 = SeparationVector::two(2, 1).unwrap();
/// assert_eq!(auto_route(GraphClass::ProperInterval, &l21), Some("unit_interval_l_delta1_delta2"));
/// assert_eq!(auto_route(GraphClass::Interval, &l21), Some("interval_approx_delta1"));
/// assert_eq!(auto_route(GraphClass::Unknown, &l21), None);
/// ```
pub fn auto_route(class: GraphClass, sep: &SeparationVector) -> Option<&'static str> {
    let ones = sep.is_all_ones();
    let tail_ones = (2..=sep.t()).all(|i| sep.delta(i) == 1);
    Some(match class {
        GraphClass::Tree if ones => "tree_l1",
        GraphClass::Tree if tail_ones => "tree_approx_delta1",
        GraphClass::Forest if ones => "forest_l1",
        GraphClass::Interval | GraphClass::ProperInterval if ones => "interval_l1",
        GraphClass::ProperInterval if sep.t() == 2 => "unit_interval_l_delta1_delta2",
        GraphClass::Interval | GraphClass::ProperInterval if tail_ones => "interval_approx_delta1",
        GraphClass::Chordal if ones && sep.t() == 1 => "lemma2_peel",
        _ => return None,
    })
}

/// What [`AutoOutput`] reports for `solver`: a short description of the
/// algorithm and the guarantee it carries on the classes [`auto_route`]
/// sends to it.
fn describe(solver: &str) -> (&'static str, Guarantee) {
    match solver {
        "tree_l1" => ("tree-l1 (Figure 5)", Guarantee::Optimal),
        "forest_l1" => ("tree-l1 per component (Figure 5)", Guarantee::Optimal),
        "interval_l1" => ("interval-l1 (Figure 1)", Guarantee::Optimal),
        "lemma2_peel" => ("chordal-peel (Lemma 2)", Guarantee::Optimal),
        "tree_approx_delta1" => ("tree-approx-d1 (Theorem 5)", Guarantee::Approximation(3)),
        "interval_approx_delta1" => (
            "interval-approx-d1 (Theorem 2)",
            Guarantee::Approximation(3),
        ),
        "unit_interval_l_delta1_delta2" => ("unit-l-d1d2 (Theorem 3)", Guarantee::Approximation(3)),
        _ => ("greedy-bfs", Guarantee::Heuristic),
    }
}

/// `problem` presented as the shape `wants`, or `None` when it cannot be.
/// A unit-interval representation is an interval representation, so an
/// interval solver takes it via `as_interval()`.
fn reshape<'a>(problem: &Problem<'a>, wants: InstanceKind) -> Option<Problem<'a>> {
    match (wants, problem.instance) {
        (InstanceKind::Interval, ProblemInstance::UnitInterval(rep)) => {
            Some(Problem::interval(rep.as_interval(), problem.sep))
        }
        (wants, instance) if wants == instance.kind() => Some(*problem),
        _ => None,
    }
}

/// Every registry solve funnels through here: the span is named after the
/// solver (so trace dumps show which of A1–A5 ran) and its duration feeds
/// the per-solver latency histogram.
fn dispatch(solver: &dyn Solver, problem: &Problem, ws: &mut Workspace, m: &Metrics) -> Labeling {
    let _span = m.span_hist(solver.name(), Hist::SolverSolve);
    // A shape that cannot be reshaped goes through unchanged, so the
    // solver's own mismatch panic names it.
    let problem = reshape(problem, solver.instance_kind()).unwrap_or(*problem);
    solver.solve_with(&problem, ws, m)
}

/// The process-wide registry of paper algorithms, built once on first use.
/// Dispatch sites that do not need custom solvers share this instance.
pub fn default_registry() -> &'static SolverRegistry {
    static REGISTRY: OnceLock<SolverRegistry> = OnceLock::new();
    REGISTRY.get_or_init(SolverRegistry::with_paper_algorithms)
}

/// Re-indexes a labeling from representation numbering back to `g`'s ids:
/// the recognized representation's vertex `i` corresponds to `order[j]`
/// where `j` is the position the representation kept as
/// `original_index(i)`.
pub(crate) fn map_back(
    g: &Graph,
    order: &[Vertex],
    labeling: &Labeling,
    rep: &IntervalRepresentation,
) -> Labeling {
    let mut colors = vec![0u32; g.num_vertices()];
    for i in 0..labeling.len() as Vertex {
        let order_pos = rep.original_index(i);
        colors[order[order_pos] as usize] = labeling.color(i);
    }
    Labeling::new(colors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::verify_labeling;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssg_graph::generators;
    use ssg_telemetry::Counter;

    #[test]
    fn registry_knows_all_paper_algorithms() {
        let r = SolverRegistry::with_paper_algorithms();
        for name in [
            "interval_l1",
            "interval_approx_delta1",
            "unit_interval_l_delta1_delta2",
            "tree_l1",
            "tree_approx_delta1",
            "forest_l1",
            "lemma2_peel",
            "exact_bb",
            "greedy_bfs",
        ] {
            let s = r.get(name).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(s.name(), name);
        }
        assert!(r.get("no_such_solver").is_none());
        assert_eq!(default_registry().names(), r.names());
    }

    #[test]
    fn registry_solves_match_direct_entry_points() {
        let mut rng = StdRng::seed_from_u64(120);
        let r = default_registry();
        let mut ws = Workspace::new();

        let g = generators::random_tree(30, &mut rng);
        let tree = RootedTree::bfs_canonical(&g, 0).unwrap();
        let sep = SeparationVector::all_ones(2);
        let lab = r.solve("tree_l1", &Problem::tree(&tree, &sep), &mut ws, &Metrics::disabled());
        assert_eq!(lab, tree::l1_coloring(&tree, 2).labeling);

        let src = ssg_intervals::gen::random_connected_unit_intervals(25, 0.5, &mut rng);
        let lab = r.solve(
            "interval_l1",
            &Problem::interval(src.as_interval(), &sep),
            &mut ws,
            &Metrics::disabled(),
        );
        assert_eq!(lab, interval::l1_coloring(src.as_interval(), 2).labeling);
        // An interval solver takes a unit-interval problem as its interval
        // representation, through `solve` and `try_solve` alike.
        let unit = Problem::unit_interval(&src, &sep);
        let m = Metrics::disabled();
        assert_eq!(r.solve("interval_l1", &unit, &mut ws, &m), lab);
        assert_eq!(r.try_solve("interval_l1", &unit, &mut ws, &m).unwrap(), lab);

        let sep2 = SeparationVector::two(4, 2).unwrap();
        let lab = r.solve(
            "unit_interval_l_delta1_delta2",
            &Problem::unit_interval(&src, &sep2),
            &mut ws,
            &Metrics::disabled(),
        );
        assert_eq!(lab, unit_interval::l_delta1_delta2_coloring(&src, 4, 2).labeling);
    }

    #[test]
    fn registry_auto_matches_auto_module() {
        let mut rng = StdRng::seed_from_u64(121);
        let r = default_registry();
        let mut ws = Workspace::new();
        let m = Metrics::enabled();
        for g in [
            generators::random_tree(20, &mut rng),
            generators::cycle(9),
            generators::complete(5),
        ] {
            for t in 1..=2u32 {
                let sep = SeparationVector::all_ones(t);
                let a = crate::auto::auto_coloring(&g, &sep);
                let b = r.auto_coloring(&g, &sep, &mut ws, &m);
                assert_eq!(a.labeling, b.labeling);
                assert_eq!(a.class, b.class);
                assert_eq!(a.algorithm, b.algorithm);
            }
        }
        // The shared workspace saw several solves: reuses were recorded.
        assert!(m.snapshot().counter(Counter::WorkspaceReuses) >= 1);
    }

    #[test]
    fn solved_outputs_are_legal() {
        let mut rng = StdRng::seed_from_u64(122);
        let r = default_registry();
        let mut ws = Workspace::new();
        let g = generators::random_connected(18, 30, &mut rng);
        let sep = SeparationVector::two(3, 1).unwrap();
        for name in ["greedy_bfs", "exact_bb"] {
            let lab = r.solve(name, &Problem::graph(&g, &sep), &mut ws, &Metrics::disabled());
            verify_labeling(&g, &sep, lab.colors()).unwrap_or_else(|v| panic!("{name}: {v}"));
        }
    }

    #[test]
    fn try_solve_reports_unknown_and_mismatched() {
        let r = default_registry();
        let mut ws = Workspace::new();
        let g = generators::path(4);
        let sep = SeparationVector::all_ones(1);
        let problem = Problem::graph(&g, &sep);

        let err = r
            .try_solve("no_such_solver", &problem, &mut ws, &Metrics::disabled())
            .unwrap_err();
        assert!(matches!(&err, SsgError::UnknownSolver { name, known }
            if name == "no_such_solver" && known.iter().any(|k| k == "tree_l1")));

        let err = r
            .try_solve("tree_l1", &problem, &mut ws, &Metrics::disabled())
            .unwrap_err();
        assert!(matches!(&err, SsgError::ClassMismatch { expected: "tree", .. }));

        let lab = r
            .try_solve("greedy_bfs", &problem, &mut ws, &Metrics::disabled())
            .unwrap();
        assert_eq!(lab.len(), 4);
    }

    #[test]
    fn dispatch_records_solver_latency_and_spans() {
        use ssg_telemetry::Hist;
        let mut rng = StdRng::seed_from_u64(123);
        let r = default_registry();
        let mut ws = Workspace::new();
        let m = ssg_telemetry::Metrics::with_tracing(256);
        let g = generators::random_connected(20, 30, &mut rng);
        let sep = SeparationVector::all_ones(1);
        let _scope = m.trace_scope(77);
        r.try_solve("greedy_bfs", &Problem::graph(&g, &sep), &mut ws, &m)
            .unwrap();
        // Every registry solve lands in the per-solver histogram...
        assert_eq!(m.snapshot().hist(Hist::SolverSolve).count(), 1);
        // ...and the trace shows the dispatch chain under the request id.
        let events = m.recorder().unwrap().events_for(77);
        let names: Vec<&str> = events.iter().map(|e| e.name).collect();
        assert!(names.contains(&"registry.try_solve"), "{names:?}");
        assert!(names.contains(&"greedy_bfs"), "{names:?}");
        let outer = events.iter().find(|e| e.name == "registry.try_solve").unwrap();
        let inner = events.iter().find(|e| e.name == "greedy_bfs").unwrap();
        assert_eq!(inner.parent_id, outer.span_id);

        // Errors still close the try_solve span cleanly.
        assert!(r
            .try_solve("no_such_solver", &Problem::graph(&g, &sep), &mut ws, &m)
            .is_err());
        assert_eq!(m.snapshot().hist(Hist::SolverSolve).count(), 1);
    }

    #[test]
    fn a1_a5_phase_spans_appear_in_traces() {
        let mut rng = StdRng::seed_from_u64(124);
        let r = default_registry();
        let mut ws = Workspace::new();
        let m = ssg_telemetry::Metrics::with_tracing(1024);

        let src = ssg_intervals::gen::random_connected_unit_intervals(25, 0.5, &mut rng);
        let sep = SeparationVector::all_ones(2);
        r.solve("interval_l1", &Problem::interval(src.as_interval(), &sep), &mut ws, &m);
        let sep_d1 = SeparationVector::two(3, 1).unwrap();
        r.solve(
            "interval_approx_delta1",
            &Problem::interval(src.as_interval(), &sep_d1),
            &mut ws,
            &m,
        );
        let sep2 = SeparationVector::two(4, 2).unwrap();
        r.solve(
            "unit_interval_l_delta1_delta2",
            &Problem::unit_interval(&src, &sep2),
            &mut ws,
            &m,
        );
        let g = generators::random_tree(30, &mut rng);
        let tree = RootedTree::bfs_canonical(&g, 0).unwrap();
        r.solve("tree_l1", &Problem::tree(&tree, &sep), &mut ws, &m);
        // A corridor with a gap: A1 and A2 cross it inside their sweeps.
        let gapped = IntervalRepresentation::from_floats(&[
            (0.0, 2.0),
            (1.0, 3.0),
            (2.5, 4.0),
            (10.0, 12.0),
            (11.0, 13.0),
        ])
        .unwrap();
        assert!(!gapped.is_connected());
        r.solve("interval_l1", &Problem::interval(&gapped, &sep), &mut ws, &m);
        r.solve(
            "interval_approx_delta1",
            &Problem::interval(&gapped, &sep_d1),
            &mut ws,
            &m,
        );

        let names: Vec<&str> = m.recorder().unwrap().events().iter().map(|e| e.name).collect();
        for expected in [
            "interval.sweep",
            "interval.lambda_bounds",
            "interval.approx_sweep",
            "unit_interval.components",
            "tree.color_levels",
            "tree.lambda_star",
        ] {
            assert!(names.contains(&expected), "missing {expected} in {names:?}");
        }
        assert!(!names.contains(&"interval.components"), "{names:?}");
    }

    #[test]
    #[should_panic(expected = "requires a tree")]
    fn wrong_instance_panics() {
        let g = generators::path(4);
        let sep = SeparationVector::all_ones(1);
        default_registry().solve(
            "tree_l1",
            &Problem::graph(&g, &sep),
            &mut Workspace::new(),
            &Metrics::disabled(),
        );
    }
}
