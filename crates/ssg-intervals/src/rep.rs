//! Interval representations with the paper's normalization: `n` intervals
//! whose `2n` endpoints are distinct and indexed `1..=2n`, vertices numbered
//! by increasing left endpoint (paper §3).

use ssg_graph::{Graph, Vertex};
use std::fmt;

/// One scan event of the left-to-right endpoint sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// Endpoint `k` is the left endpoint of this vertex.
    Left(Vertex),
    /// Endpoint `k` is the right endpoint of this vertex.
    Right(Vertex),
}

/// Errors when building an [`IntervalRepresentation`].
#[derive(Debug, Clone, PartialEq)]
pub enum IntervalError {
    /// An interval had `left >= right` (after tie-breaking, for floats: a NaN
    /// or an empty interval).
    Degenerate {
        /// Index of the offending interval in the input order.
        index: usize,
    },
    /// Input endpoint was NaN.
    NotFinite {
        /// Index of the offending interval in the input order.
        index: usize,
    },
}

impl fmt::Display for IntervalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntervalError::Degenerate { index } => {
                write!(f, "interval #{index} is empty (left >= right)")
            }
            IntervalError::NotFinite { index } => {
                write!(f, "interval #{index} has a non-finite endpoint")
            }
        }
    }
}

impl std::error::Error for IntervalError {}

impl From<IntervalError> for ssg_error::SsgError {
    fn from(e: IntervalError) -> Self {
        ssg_error::SsgError::Spec(e.to_string())
    }
}

/// A normalized interval representation.
///
/// Invariants (checked at construction):
/// * there are `n` intervals and `2n` **distinct** endpoint ranks `1..=2n`;
/// * vertex `v`'s endpoints satisfy `left(v) < right(v)`;
/// * vertices are numbered by increasing left endpoint:
///   `left(0) < left(1) < ... < left(n-1)`.
///
/// Vertex `u` and `v` are adjacent in the intersection graph iff their rank
/// intervals `[left, right]` overlap. Because the construction breaks value
/// ties by putting left endpoints first, *closed*-interval semantics are used
/// for tied float inputs (touching intervals intersect).
#[derive(Clone, PartialEq, Eq)]
pub struct IntervalRepresentation {
    left: Vec<u32>,
    right: Vec<u32>,
    /// `events[k - 1]` is the endpoint with rank `k`, `k = 1..=2n`.
    events: Vec<Endpoint>,
    /// `original[v]` = position of vertex `v` in the caller's input order.
    original: Vec<usize>,
}

impl fmt::Debug for IntervalRepresentation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IntervalRepresentation(n={})", self.len())
    }
}

impl IntervalRepresentation {
    /// Builds a representation from float intervals `(l, r)`.
    ///
    /// Ties between endpoint values are broken so that left endpoints precede
    /// right endpoints (closed-interval semantics); ties within the same kind
    /// are broken by input index (deterministic).
    ///
    /// ```
    /// use ssg_intervals::IntervalRepresentation;
    /// let rep = IntervalRepresentation::from_floats(&[(2.0, 5.0), (0.0, 3.0)]).unwrap();
    /// // Vertices are renumbered by increasing left endpoint:
    /// assert_eq!(rep.original_index(0), 1);
    /// assert!(rep.intersects(0, 1));
    /// assert_eq!(rep.max_clique(), 2);
    /// ```
    pub fn from_floats(intervals: &[(f64, f64)]) -> Result<Self, IntervalError> {
        for (i, &(l, r)) in intervals.iter().enumerate() {
            if !l.is_finite() || !r.is_finite() {
                return Err(IntervalError::NotFinite { index: i });
            }
            if l >= r {
                return Err(IntervalError::Degenerate { index: i });
            }
        }
        let n = intervals.len();
        // One key per endpoint, `order_key(value) << 64 | kind | index`,
        // with the kind bit set on right endpoints: the keys are distinct and
        // ordered as (value, left before right, input index). Each side is
        // sorted on its own and one merge ranks every endpoint.
        const RIGHT: u128 = 1 << 63;
        let mut lefts: Vec<u128> = Vec::with_capacity(n);
        let mut rights: Vec<u128> = Vec::with_capacity(n);
        for (i, &(l, r)) in intervals.iter().enumerate() {
            lefts.push(u128::from(order_key(l)) << 64 | i as u128);
            rights.push(u128::from(order_key(r)) << 64 | RIGHT | i as u128);
        }
        sort_nearly_sorted(&mut lefts);
        sort_nearly_sorted(&mut rights);
        let input_index = |key: u128| (key & (RIGHT - 1)) as usize;
        // Vertex `a` is the `a`-th left endpoint in rank order. An interval
        // closes after it opens, so at most `a` right endpoints precede the
        // `a`-th left one: while a left endpoint remains, so does a right.
        let mut left = Vec::with_capacity(n);
        let mut right = vec![0u32; n];
        let mut original = Vec::with_capacity(n);
        let mut vertex_of = vec![0 as Vertex; n];
        let mut events = Vec::with_capacity(2 * n);
        let ranks = u32::try_from(2 * n).expect("2n endpoint ranks fit in u32");
        let (mut a, mut b) = (0usize, 0usize);
        for rank in 1..=ranks {
            if a < n && lefts[a] < rights[b] {
                let i = input_index(lefts[a]);
                vertex_of[i] = a as Vertex;
                left.push(rank);
                original.push(i);
                events.push(Endpoint::Left(a as Vertex));
                a += 1;
            } else {
                let v = vertex_of[input_index(rights[b])];
                right[v as usize] = rank;
                events.push(Endpoint::Right(v));
                b += 1;
            }
        }
        Ok(IntervalRepresentation {
            left,
            right,
            events,
            original,
        })
    }

    /// Number of intervals (vertices).
    #[inline]
    pub fn len(&self) -> usize {
        self.left.len()
    }

    /// Whether the representation is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.left.is_empty()
    }

    /// Left endpoint rank of vertex `v` (1-based, in `1..=2n`).
    #[inline]
    pub fn left(&self, v: Vertex) -> u32 {
        self.left[v as usize]
    }

    /// Right endpoint rank of vertex `v`.
    #[inline]
    pub fn right(&self, v: Vertex) -> u32 {
        self.right[v as usize]
    }

    /// The sweep events in rank order `1..=2n`.
    #[inline]
    pub fn events(&self) -> &[Endpoint] {
        &self.events
    }

    /// Maps vertex `v` back to the position of its interval in the input
    /// given to the constructor.
    #[inline]
    pub fn original_index(&self, v: Vertex) -> usize {
        self.original[v as usize]
    }

    /// Whether intervals `u` and `v` intersect.
    #[inline]
    pub fn intersects(&self, u: Vertex, v: Vertex) -> bool {
        self.left(u) < self.right(v) && self.left(v) < self.right(u)
    }

    /// Whether no interval is properly contained in another (the *proper* /
    /// unit-interval property).
    pub fn is_proper(&self) -> bool {
        // Vertices are sorted by left endpoint, so containment of u in v
        // requires v < u with right(u) < right(v). Proper iff right ranks are
        // increasing along the vertex order.
        self.right.windows(2).all(|w| w[0] < w[1])
    }

    /// Builds the intersection graph via a left-to-right sweep: when an
    /// interval opens it is connected to every currently open interval.
    /// Edges stream straight into a [`GraphBuilder`] — no intermediate
    /// adjacency lists. `O(n + m)`.
    ///
    /// [`GraphBuilder`]: ssg_graph::GraphBuilder
    pub fn to_graph(&self) -> Graph {
        let n = self.len();
        let mut builder = ssg_graph::GraphBuilder::new(n);
        let mut open: Vec<Vertex> = Vec::new();
        let mut pos_in_open = vec![usize::MAX; n];
        for &ev in &self.events {
            match ev {
                Endpoint::Left(v) => {
                    for &u in &open {
                        builder.add_edge(u, v);
                    }
                    pos_in_open[v as usize] = open.len();
                    open.push(v);
                }
                Endpoint::Right(v) => {
                    let p = pos_in_open[v as usize];
                    let last = open.len() - 1;
                    open.swap(p, last);
                    pos_in_open[open[p] as usize] = p;
                    open.pop();
                }
            }
        }
        builder.build().expect("sweep produces valid edges")
    }

    /// Checks that this representation realizes exactly the edge set of `g`
    /// under the identity vertex mapping.
    pub fn represents(&self, g: &Graph) -> bool {
        if g.num_vertices() != self.len() {
            return false;
        }
        self.to_graph() == *g
    }

    /// Maximum number of simultaneously open intervals = exact clique number
    /// of the interval graph. `O(n)`.
    pub fn max_clique(&self) -> usize {
        let mut open = 0usize;
        let mut best = 0usize;
        for &ev in &self.events {
            match ev {
                Endpoint::Left(_) => {
                    open += 1;
                    best = best.max(open);
                }
                Endpoint::Right(_) => open -= 1,
            }
        }
        best
    }

    /// Whether the interval graph is connected: scanning by rank, every left
    /// endpoint after the first must fall inside some already-open interval.
    pub fn is_connected(&self) -> bool {
        let mut open = 0usize;
        for (idx, &ev) in self.events.iter().enumerate() {
            match ev {
                Endpoint::Left(_) => {
                    if idx > 0 && open == 0 {
                        return false;
                    }
                    open += 1;
                }
                Endpoint::Right(_) => open -= 1,
            }
        }
        true
    }

    /// Splits the representation into connected components, each a fresh
    /// normalized representation plus the list of this representation's
    /// vertices it covers (in the component's vertex order).
    ///
    /// Vertices are numbered by left endpoint, so a component that opens at
    /// event index `s` covers a contiguous vertex range `v0..v0 + m` and
    /// exactly the ranks `s + 1..=s + 2m`: each part is a shifted copy of a
    /// slice of this representation. `O(n)`.
    pub fn components(&self) -> Vec<(IntervalRepresentation, Vec<Vertex>)> {
        let mut out = Vec::new();
        let mut start = 0usize;
        let mut open = 0usize;
        for (idx, &ev) in self.events.iter().enumerate() {
            match ev {
                Endpoint::Left(_) => open += 1,
                Endpoint::Right(_) => {
                    open -= 1;
                    if open == 0 {
                        out.push(self.component(start, idx + 1));
                        start = idx + 1;
                    }
                }
            }
        }
        out
    }

    /// The component spanning `events[start..end]` (no interval open at
    /// either cut), renumbered from rank 1 and vertex 0.
    fn component(&self, start: usize, end: usize) -> (IntervalRepresentation, Vec<Vertex>) {
        let Endpoint::Left(v0) = self.events[start] else {
            unreachable!("a component opens with a left endpoint");
        };
        let m = (end - start) / 2;
        let shift = |ranks: &[u32]| -> Vec<u32> {
            ranks[v0 as usize..v0 as usize + m]
                .iter()
                .map(|&r| r - start as u32)
                .collect()
        };
        let rep = IntervalRepresentation {
            left: shift(&self.left),
            right: shift(&self.right),
            events: self.events[start..end]
                .iter()
                .map(|&ev| match ev {
                    Endpoint::Left(v) => Endpoint::Left(v - v0),
                    Endpoint::Right(v) => Endpoint::Right(v - v0),
                })
                .collect(),
            original: (0..m).collect(),
        };
        (rep, (v0..v0 + m as Vertex).collect())
    }
}

/// Insertion moves per key that [`sort_nearly_sorted`] may spend before it
/// falls back to `sort_unstable`. Corridor endpoints need about 0.7.
const INSERTION_MOVES_PER_KEY: usize = 4;

/// Sorts `keys` by insertion while they are nearly in order, as the
/// endpoints of stations listed in position order are: a left or right
/// endpoint is out of place only where a longer range reaches past a shorter
/// one. Once insertion has moved [`INSERTION_MOVES_PER_KEY`] keys per key,
/// the rest falls to `sort_unstable`, so an input in any order costs at most
/// `O(n)` moves on top of that sort.
fn sort_nearly_sorted(keys: &mut [u128]) {
    let mut budget = keys.len() * INSERTION_MOVES_PER_KEY;
    for i in 1..keys.len() {
        let key = keys[i];
        let mut j = i;
        while j > 0 && keys[j - 1] > key {
            keys[j] = keys[j - 1];
            j -= 1;
        }
        keys[j] = key;
        let Some(rest) = budget.checked_sub(i - j) else {
            keys.sort_unstable();
            return;
        };
        budget = rest;
    }
}

/// Order-preserving bit pattern of a finite float: `a < b` iff
/// `order_key(a) < order_key(b)`, and the keys are equal exactly where the
/// values compare equal (adding `0.0` folds `-0.0` into `+0.0`).
fn order_key(x: f64) -> u64 {
    let bits = (x + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_and_orders_by_left_endpoint() {
        let rep =
            IntervalRepresentation::from_floats(&[(5.0, 9.0), (1.0, 3.0), (2.0, 6.0)]).unwrap();
        assert_eq!(rep.len(), 3);
        // Vertex 0 = input 1 (left=1.0), vertex 1 = input 2, vertex 2 = input 0.
        assert_eq!(rep.original_index(0), 1);
        assert_eq!(rep.original_index(1), 2);
        assert_eq!(rep.original_index(2), 0);
        assert!(rep.left(0) < rep.left(1) && rep.left(1) < rep.left(2));
        // Ranks are a permutation of 1..=6.
        let mut all: Vec<u32> = (0..3).flat_map(|v| [rep.left(v), rep.right(v)]).collect();
        all.sort_unstable();
        assert_eq!(all, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn closed_semantics_for_touching_floats() {
        let rep = IntervalRepresentation::from_floats(&[(0.0, 1.0), (1.0, 2.0)]).unwrap();
        let g = rep.to_graph();
        assert_eq!(g.num_edges(), 1, "touching intervals must intersect");
    }

    #[test]
    fn rejects_degenerate_and_nan() {
        assert!(matches!(
            IntervalRepresentation::from_floats(&[(1.0, 1.0)]),
            Err(IntervalError::Degenerate { index: 0 })
        ));
        assert!(matches!(
            IntervalRepresentation::from_floats(&[(0.0, 2.0), (f64::NAN, 1.0)]),
            Err(IntervalError::NotFinite { index: 1 })
        ));
    }

    #[test]
    fn intersection_graph_matches_pairwise_test() {
        let rep = IntervalRepresentation::from_floats(&[
            (0.0, 4.0),
            (1.0, 2.5),
            (2.0, 6.0),
            (5.0, 8.0),
            (7.0, 9.0),
        ])
        .unwrap();
        let g = rep.to_graph();
        for u in 0..5 as Vertex {
            for v in (u + 1)..5 as Vertex {
                assert_eq!(g.has_edge(u, v), rep.intersects(u, v), "{u},{v}");
            }
        }
    }

    #[test]
    fn max_clique_and_connectivity() {
        let rep = IntervalRepresentation::from_floats(&[
            (0.0, 3.0),
            (1.0, 4.0),
            (2.0, 5.0),
            (10.0, 12.0),
        ])
        .unwrap();
        assert_eq!(rep.max_clique(), 3);
        assert!(!rep.is_connected());
        let conn =
            IntervalRepresentation::from_floats(&[(0.0, 3.0), (2.0, 5.0), (4.0, 7.0)]).unwrap();
        assert!(conn.is_connected());
    }

    #[test]
    fn proper_detection() {
        let proper =
            IntervalRepresentation::from_floats(&[(0.0, 2.0), (1.0, 3.0), (2.5, 4.5)]).unwrap();
        assert!(proper.is_proper());
        let contained = IntervalRepresentation::from_floats(&[(0.0, 10.0), (1.0, 2.0)]).unwrap();
        assert!(!contained.is_proper());
    }

    #[test]
    fn components_split_and_cover() {
        let rep = IntervalRepresentation::from_floats(&[
            (0.0, 1.0),
            (0.5, 2.0),
            (5.0, 6.0),
            (7.0, 8.0),
            (7.5, 9.0),
        ])
        .unwrap();
        let comps = rep.components();
        assert_eq!(comps.len(), 3);
        let sizes: Vec<usize> = comps.iter().map(|(r, _)| r.len()).collect();
        assert_eq!(sizes, vec![2, 1, 2]);
        // Coverage: all original vertices exactly once.
        let mut all: Vec<Vertex> = comps.iter().flat_map(|(_, vs)| vs.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
        // Each component representation is itself connected.
        for (r, _) in &comps {
            assert!(r.is_connected());
        }
    }

    #[test]
    fn represents_checks_identity_mapping() {
        let rep =
            IntervalRepresentation::from_floats(&[(0.0, 2.0), (1.0, 3.0), (2.5, 4.0)]).unwrap();
        let g = rep.to_graph();
        assert!(rep.represents(&g));
        let other = Graph::from_edges(3, &[(0, 2)]).unwrap();
        assert!(!rep.represents(&other));
    }

    #[test]
    fn empty_representation() {
        let rep = IntervalRepresentation::from_floats(&[]).unwrap();
        assert!(rep.is_empty());
        assert_eq!(rep.max_clique(), 0);
        assert!(rep.is_connected());
        assert_eq!(rep.to_graph().num_vertices(), 0);
        assert!(rep.components().is_empty());
    }
}
