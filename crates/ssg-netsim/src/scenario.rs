//! Synthetic wireless-network scenarios shaped like the paper's motivating
//! domain (§1): stations whose hearing ranges overlap must receive
//! well-separated channels.
//!
//! Three families:
//!
//! * [`CorridorNetwork`] — stations along a highway/corridor with
//!   heterogeneous ranges; the conflict graph is an **interval graph**.
//! * [`VehicularNetwork`] — equal-power transmitters along a road; the
//!   conflict graph is a **unit interval graph**.
//! * [`BackboneNetwork`] — a hierarchical (tree) backbone, e.g. a sensor
//!   network aggregation tree.
//!
//! Each scenario knows how to run the paper's algorithm for its class, the
//! greedy baseline, and to audit the result against the interference model.

use rand::Rng;
use rand_distr_exp::sample_exp;
use ssg_graph::Graph;
use ssg_intervals::{IntervalRepresentation, UnitIntervalRepresentation};
use ssg_labeling::baseline::greedy_bfs_order;
use ssg_labeling::interval::{approx_delta1_coloring, l1_coloring};
use ssg_labeling::tree::{self, to_original_ids};
use ssg_labeling::unit_interval::l_delta1_delta2_coloring;
use ssg_labeling::{verify_labeling, Labeling, SeparationVector};
use ssg_tree::RootedTree;
use std::sync::OnceLock;

/// Tiny inline exponential sampler (keeps `rand` the only RNG dependency).
mod rand_distr_exp {
    use rand::Rng;

    /// Samples `Exp(1/mean)` by inversion.
    pub fn sample_exp<R: Rng>(mean: f64, rng: &mut R) -> f64 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        -mean * u.ln()
    }
}

/// A radio station on the corridor line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Station {
    /// Position along the corridor.
    pub position: f64,
    /// Hearing radius: stations hear each other when their
    /// `[position - range, position + range]` footprints overlap.
    pub range: f64,
}

/// What an assignment run produced, ready for experiment tables.
#[derive(Debug, Clone, PartialEq)]
pub struct AssignmentReport {
    /// Which algorithm produced it.
    pub algorithm: String,
    /// Number of stations.
    pub n: usize,
    /// Edges in the conflict graph.
    pub conflicts: usize,
    /// Largest channel used (the span `λ`).
    pub span: u32,
    /// Channels actually assigned.
    pub distinct_channels: usize,
    /// A class-specific lower bound on the optimal span (clique-based).
    pub lower_bound: u32,
    /// Whether the full interference audit passed.
    pub verified: bool,
}

impl AssignmentReport {
    fn build(
        algorithm: &str,
        g: &Graph,
        sep: &SeparationVector,
        labeling: &Labeling,
        lower_bound: u32,
    ) -> Self {
        AssignmentReport {
            algorithm: algorithm.to_string(),
            n: g.num_vertices(),
            conflicts: g.num_edges(),
            span: labeling.span(),
            distinct_channels: labeling.distinct_colors(),
            lower_bound,
            verified: verify_labeling(g, sep, labeling.colors()).is_ok(),
        }
    }
}

impl AssignmentReport {
    /// CSV header matching [`AssignmentReport::to_csv_row`].
    pub fn csv_header() -> &'static str {
        "algorithm,n,conflicts,span,distinct_channels,lower_bound,verified"
    }

    /// One CSV row (no trailing newline).
    pub fn to_csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{}",
            self.algorithm,
            self.n,
            self.conflicts,
            self.span,
            self.distinct_channels,
            self.lower_bound,
            self.verified
        )
    }
}

/// Corridor of stations with heterogeneous ranges (interval conflict graph).
/// The conflict graph is built from the representation on the first
/// [`CorridorNetwork::graph`] call.
#[derive(Debug, Clone)]
pub struct CorridorNetwork {
    stations: Vec<Station>,
    rep: IntervalRepresentation,
    graph: OnceLock<Graph>,
}

impl CorridorNetwork {
    /// Generates `n` stations with exponential position gaps (mean
    /// `mean_gap`) and ranges uniform in `[range_min, range_max]`.
    pub fn generate<R: Rng>(
        n: usize,
        mean_gap: f64,
        range_min: f64,
        range_max: f64,
        rng: &mut R,
    ) -> Self {
        assert!(mean_gap > 0.0 && range_min > 0.0 && range_max >= range_min);
        let mut x = 0.0f64;
        let stations: Vec<Station> = (0..n)
            .map(|_| {
                x += sample_exp(mean_gap, rng);
                Station {
                    position: x,
                    range: rng.gen_range(range_min..=range_max),
                }
            })
            .collect();
        Self::from_stations(stations)
    }

    /// Builds the network from explicit stations.
    pub fn from_stations(stations: Vec<Station>) -> Self {
        let intervals: Vec<(f64, f64)> = stations
            .iter()
            .map(|s| (s.position - s.range, s.position + s.range))
            .collect();
        let rep = IntervalRepresentation::from_floats(&intervals)
            .expect("positive ranges yield valid intervals");
        CorridorNetwork {
            stations,
            rep,
            graph: OnceLock::new(),
        }
    }

    /// The stations, in generation order.
    pub fn stations(&self) -> &[Station] {
        &self.stations
    }

    /// The interval representation (vertices ordered by left endpoint).
    pub fn representation(&self) -> &IntervalRepresentation {
        &self.rep
    }

    /// Moves the interval representation out, dropping the stations.
    pub fn into_representation(self) -> IntervalRepresentation {
        self.rep
    }

    /// The conflict graph, built on the first call.
    pub fn graph(&self) -> &Graph {
        self.graph.get_or_init(|| self.rep.to_graph())
    }

    /// Optimal `L(1,...,1)` assignment (paper Figure 1).
    pub fn assign_l1(&self, t: u32) -> AssignmentReport {
        let out = l1_coloring(&self.rep, t);
        let sep = SeparationVector::all_ones(t);
        AssignmentReport::build(
            "interval-l1",
            self.graph(),
            &sep,
            &out.labeling,
            out.lambda_star,
        )
    }

    /// Approximate `L(δ1,1,...,1)` assignment (paper §3.2).
    pub fn assign_delta1(&self, t: u32, delta1: u32) -> AssignmentReport {
        let out = approx_delta1_coloring(&self.rep, t, delta1);
        let sep = SeparationVector::delta1_then_ones(delta1, t).expect("valid separations");
        let lower = (delta1 * out.lambda_1).max(out.lambda_t);
        AssignmentReport::build(
            "interval-approx-d1",
            self.graph(),
            &sep,
            &out.labeling,
            lower,
        )
    }

    /// Greedy BFS-order baseline for the same separation vector.
    pub fn assign_greedy(&self, sep: &SeparationVector) -> AssignmentReport {
        let lab = greedy_bfs_order(self.graph(), sep);
        let lower = l1_coloring(&self.rep, sep.t()).lambda_star;
        AssignmentReport::build("greedy-bfs", self.graph(), sep, &lab, lower)
    }
}

/// Vehicles with equal radio power (unit interval conflict graph). The
/// conflict graph is built from the representation on the first
/// [`VehicularNetwork::graph`] call.
#[derive(Debug, Clone)]
pub struct VehicularNetwork {
    rep: UnitIntervalRepresentation,
    graph: OnceLock<Graph>,
}

impl VehicularNetwork {
    /// `n` vehicles whose successive gaps are uniform in `(0, max_gap]`
    /// hearing-range units, `max_gap < 1` keeping the platoon connected.
    pub fn generate<R: Rng>(n: usize, max_gap: f64, rng: &mut R) -> Self {
        let rep = ssg_intervals::gen::random_connected_unit_intervals(n, max_gap, rng);
        VehicularNetwork {
            rep,
            graph: OnceLock::new(),
        }
    }

    /// A dense platoon where every vehicle conflicts with its `k` closest
    /// predecessors (clique number exactly `k + 1`).
    pub fn platoon<R: Rng>(n: usize, k: usize, rng: &mut R) -> Self {
        let rep = ssg_intervals::gen::corridor_unit_intervals(n, k, rng);
        VehicularNetwork {
            rep,
            graph: OnceLock::new(),
        }
    }

    /// The unit interval representation.
    pub fn representation(&self) -> &UnitIntervalRepresentation {
        &self.rep
    }

    /// Moves the unit interval representation out.
    pub fn into_representation(self) -> UnitIntervalRepresentation {
        self.rep
    }

    /// The conflict graph, built on the first call.
    pub fn graph(&self) -> &Graph {
        self.graph.get_or_init(|| self.rep.to_graph())
    }

    /// `L(δ1,δ2)` assignment (paper Figure 2 / Theorem 3, corrected).
    pub fn assign_l_delta(&self, delta1: u32, delta2: u32) -> AssignmentReport {
        let out = l_delta1_delta2_coloring(&self.rep, delta1, delta2);
        let sep = SeparationVector::two(delta1, delta2).expect("valid separations");
        let lambda2 = l1_coloring(self.rep.as_interval(), 2).lambda_star;
        let lower = (delta1 * out.lambda_1).max(delta2 * lambda2);
        AssignmentReport::build("unit-l-d1d2", self.graph(), &sep, &out.labeling, lower)
    }

    /// Greedy baseline.
    pub fn assign_greedy(&self, delta1: u32, delta2: u32) -> AssignmentReport {
        let sep = SeparationVector::two(delta1, delta2).expect("valid separations");
        let lab = greedy_bfs_order(self.graph(), &sep);
        let lambda2 = l1_coloring(self.rep.as_interval(), 2).lambda_star;
        let lower = (delta1 * self.rep.lambda1() as u32).max(delta2 * lambda2);
        AssignmentReport::build("greedy-bfs", self.graph(), &sep, &lab, lower)
    }
}

/// A hierarchical backbone (tree conflict graph).
#[derive(Debug, Clone)]
pub struct BackboneNetwork {
    graph: Graph,
    tree: RootedTree,
}

impl BackboneNetwork {
    /// Random backbone: a degree-bounded random tree rooted at the gateway
    /// (vertex 0).
    pub fn generate<R: Rng>(n: usize, max_degree: usize, rng: &mut R) -> Self {
        let graph = ssg_graph::generators::random_bounded_degree_tree(n, max_degree, rng);
        let tree = RootedTree::bfs_canonical(&graph, 0).expect("generated graph is a tree");
        BackboneNetwork { graph, tree }
    }

    /// The underlying tree (BFS-canonical).
    pub fn tree(&self) -> &RootedTree {
        &self.tree
    }

    /// Moves the BFS-canonical tree out, dropping the graph.
    pub fn into_tree(self) -> RootedTree {
        self.tree
    }

    /// The conflict graph, in the original vertex numbering.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Optimal `L(1,...,1)` assignment (paper Figure 5).
    pub fn assign_l1(&self, t: u32) -> AssignmentReport {
        let out = tree::l1_coloring(&self.tree, t);
        let lab = to_original_ids(&self.tree, &out.labeling);
        let sep = SeparationVector::all_ones(t);
        AssignmentReport::build("tree-l1", &self.graph, &sep, &lab, out.lambda_star)
    }

    /// Approximate `L(δ1,1,...,1)` assignment (paper §4.2).
    pub fn assign_delta1(&self, t: u32, delta1: u32) -> AssignmentReport {
        let out = tree::approx_delta1_coloring(&self.tree, t, delta1);
        let lab = to_original_ids(&self.tree, &out.labeling);
        let sep = SeparationVector::delta1_then_ones(delta1, t).expect("valid separations");
        let lower = delta1.max(out.lambda_star); // λ*_{T,1} = 1 on trees
        AssignmentReport::build("tree-approx-d1", &self.graph, &sep, &lab, lower)
    }

    /// Greedy baseline.
    pub fn assign_greedy(&self, sep: &SeparationVector) -> AssignmentReport {
        let lab = greedy_bfs_order(&self.graph, sep);
        let lower = tree::l1_coloring(&self.tree, sep.t()).lambda_star;
        AssignmentReport::build("greedy-bfs", &self.graph, sep, &lab, lower)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn corridor_graph_round_trips_through_builder() {
        // The conflict graph cached by `from_stations` comes out of the
        // interval sweep's `GraphBuilder`; rebuilding it from its own CSR
        // neighbor slices must reproduce it exactly, and the flat layout
        // must report a real arena footprint for churn accounting.
        let mut rng = StdRng::seed_from_u64(95);
        let net = CorridorNetwork::generate(40, 1.0, 1.0, 4.0, &mut rng);
        let g = net.graph();
        let mut builder = ssg_graph::GraphBuilder::with_capacity(g.num_vertices(), g.num_edges());
        for v in g.vertices() {
            for &w in g.neighbors(v) {
                if v < w {
                    builder.add_edge(v, w);
                }
            }
        }
        let rebuilt = builder.build().unwrap();
        assert_eq!(rebuilt.num_edges(), g.num_edges());
        for v in g.vertices() {
            assert_eq!(rebuilt.neighbors(v), g.neighbors(v), "v={v}");
        }
        assert!(g.capacity_footprint() >= g.num_vertices() + 2 * g.num_edges());
    }

    #[test]
    fn corridor_assignments_verify_and_bound() {
        let mut rng = StdRng::seed_from_u64(90);
        let net = CorridorNetwork::generate(80, 1.0, 1.0, 4.0, &mut rng);
        assert_eq!(net.stations().len(), 80);
        for t in 1..=3u32 {
            let r = net.assign_l1(t);
            assert!(r.verified, "t={t}");
            assert_eq!(r.span, r.lower_bound, "optimal algorithm meets its bound");
            let r = net.assign_delta1(t, 3);
            assert!(r.verified);
            assert!(r.span as u64 <= 3 * r.lower_bound.max(1) as u64);
            let g = net.assign_greedy(&SeparationVector::all_ones(t));
            assert!(g.verified);
            assert!(g.span >= r.lower_bound.min(g.span)); // sanity
        }
    }

    #[test]
    fn vehicular_assignments() {
        let mut rng = StdRng::seed_from_u64(91);
        let net = VehicularNetwork::generate(60, 0.5, &mut rng);
        for (d1, d2) in [(2, 1), (3, 1), (3, 2)] {
            let r = net.assign_l_delta(d1, d2);
            assert!(r.verified, "d=({d1},{d2})");
            assert!(r.span as u64 <= 3 * r.lower_bound.max(1) as u64);
            let g = net.assign_greedy(d1, d2);
            assert!(g.verified);
        }
        let platoon = VehicularNetwork::platoon(50, 4, &mut rng);
        assert_eq!(platoon.representation().max_clique(), 5);
        let r = platoon.assign_l_delta(5, 1);
        assert!(r.verified);
    }

    #[test]
    fn backbone_assignments() {
        let mut rng = StdRng::seed_from_u64(92);
        let net = BackboneNetwork::generate(100, 4, &mut rng);
        for t in 1..=4u32 {
            let r = net.assign_l1(t);
            assert!(r.verified, "t={t}");
            assert_eq!(r.span, r.lower_bound);
            let a = net.assign_delta1(t, 4);
            assert!(a.verified);
            let g = net.assign_greedy(&SeparationVector::all_ones(t));
            assert!(g.verified);
            assert!(g.span >= r.span, "greedy cannot beat the optimum");
        }
    }

    #[test]
    fn report_csv_roundtrip() {
        let mut rng = StdRng::seed_from_u64(94);
        let net = BackboneNetwork::generate(15, 3, &mut rng);
        let r = net.assign_l1(2);
        let row = r.to_csv_row();
        assert_eq!(
            row.split(',').count(),
            AssignmentReport::csv_header().split(',').count()
        );
        assert!(row.starts_with("tree-l1,15,14,"));
    }

    #[test]
    fn reports_carry_metadata() {
        let mut rng = StdRng::seed_from_u64(93);
        let net = BackboneNetwork::generate(20, 3, &mut rng);
        let r = net.assign_l1(2);
        assert_eq!(r.n, 20);
        assert_eq!(r.conflicts, 19);
        assert_eq!(r.algorithm, "tree-l1");
        assert!(r.distinct_channels <= r.span as usize + 1);
    }
}
