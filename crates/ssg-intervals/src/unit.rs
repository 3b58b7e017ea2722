//! Unit (proper) interval representations — §3.3 of the paper.
//!
//! A unit interval graph is an interval graph realizable with equal-length
//! intervals; equivalently, with no interval properly contained in another.
//! The paper's `Unit-Interval-L(δ1,δ2)-coloring` algorithm only needs the
//! vertex numbering by left endpoint and the clique bound `λ*_{G,1}`, both of
//! which this type guarantees.

use crate::rep::{IntervalError, IntervalRepresentation};
use ssg_graph::{Graph, Vertex};

/// A validated proper (unit) interval representation.
///
/// Wraps an [`IntervalRepresentation`] whose right endpoints are increasing
/// in vertex order (no containment), which is equivalent to unit-interval
/// realizability (Roberts' theorem).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitIntervalRepresentation {
    rep: IntervalRepresentation,
}

/// Errors when building a [`UnitIntervalRepresentation`].
#[derive(Debug, Clone, PartialEq)]
pub enum UnitIntervalError {
    /// The underlying interval construction failed.
    Interval(IntervalError),
    /// Some interval is properly contained in another.
    NotProper {
        /// A witness vertex (by left-endpoint numbering) containing the next.
        container: Vertex,
    },
}

impl std::fmt::Display for UnitIntervalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnitIntervalError::Interval(e) => write!(f, "{e}"),
            UnitIntervalError::NotProper { container } => {
                write!(
                    f,
                    "interval of vertex {container} properly contains a later one"
                )
            }
        }
    }
}

impl std::error::Error for UnitIntervalError {}

impl From<UnitIntervalError> for ssg_error::SsgError {
    fn from(e: UnitIntervalError) -> Self {
        ssg_error::SsgError::Spec(e.to_string())
    }
}

impl From<IntervalError> for UnitIntervalError {
    fn from(e: IntervalError) -> Self {
        UnitIntervalError::Interval(e)
    }
}

impl UnitIntervalRepresentation {
    /// Builds a unit representation from unit-length intervals centered at
    /// `centers` (each interval is `[c - 1/2, c + 1/2]`).
    pub fn from_centers(centers: &[f64]) -> Result<Self, UnitIntervalError> {
        let intervals: Vec<(f64, f64)> = centers.iter().map(|&c| (c - 0.5, c + 0.5)).collect();
        Self::from_intervals(&intervals)
    }

    /// Builds from arbitrary float intervals, validating properness.
    pub fn from_intervals(intervals: &[(f64, f64)]) -> Result<Self, UnitIntervalError> {
        let rep = IntervalRepresentation::from_floats(intervals)?;
        Self::from_representation(rep)
    }

    /// Wraps an existing representation, validating properness.
    pub fn from_representation(rep: IntervalRepresentation) -> Result<Self, UnitIntervalError> {
        for v in 1..rep.len() as Vertex {
            if rep.right(v) < rep.right(v - 1) {
                return Err(UnitIntervalError::NotProper { container: v - 1 });
            }
        }
        Ok(UnitIntervalRepresentation { rep })
    }

    /// The underlying normalized interval representation.
    #[inline]
    pub fn as_interval(&self) -> &IntervalRepresentation {
        &self.rep
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.rep.len()
    }

    /// Whether empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rep.is_empty()
    }

    /// Intersection graph.
    pub fn to_graph(&self) -> Graph {
        self.rep.to_graph()
    }

    /// Exact clique number (max simultaneously open intervals).
    pub fn max_clique(&self) -> usize {
        self.rep.max_clique()
    }

    /// `λ*_{G,1}` = clique number − 1 (optimal `L(1)` span; proper coloring
    /// of an interval graph needs exactly ω colors).
    pub fn lambda1(&self) -> usize {
        self.max_clique().saturating_sub(1)
    }

    /// Whether connected.
    pub fn is_connected(&self) -> bool {
        self.rep.is_connected()
    }

    /// In a unit interval graph, the main structural property the paper uses:
    /// if `v < u` and `vu ∈ E` then `{v, v+1, ..., u}` is a clique. This
    /// checks the property (for tests).
    pub fn consecutive_cliques_hold(&self) -> bool {
        let g = self.to_graph();
        for u in 0..self.len() as Vertex {
            for &w in g.neighbors(u) {
                if w <= u {
                    continue;
                }
                for a in u..=w {
                    for b in (a + 1)..=w {
                        if !g.has_edge(a, b) {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn centers_build_unit_graphs() {
        let u = UnitIntervalRepresentation::from_centers(&[0.0, 0.4, 0.8, 2.0]).unwrap();
        let g = u.to_graph();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(0, 2)); // |0.8 - 0.0| < 1
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(2, 3));
        assert_eq!(u.max_clique(), 3);
        assert_eq!(u.lambda1(), 2);
    }

    #[test]
    fn rejects_containment() {
        let err =
            UnitIntervalRepresentation::from_intervals(&[(0.0, 10.0), (1.0, 2.0)]).unwrap_err();
        assert!(matches!(err, UnitIntervalError::NotProper { container: 0 }));
    }

    #[test]
    fn accepts_proper_non_unit_lengths() {
        // Proper but unequal lengths is fine — proper = unit-realizable.
        let u = UnitIntervalRepresentation::from_intervals(&[(0.0, 2.0), (1.0, 3.5), (3.0, 5.0)])
            .unwrap();
        assert_eq!(u.len(), 3);
    }

    #[test]
    fn consecutive_clique_property() {
        let u = UnitIntervalRepresentation::from_centers(&[0.0, 0.2, 0.5, 0.9, 1.3, 1.6]).unwrap();
        assert!(u.consecutive_cliques_hold());
    }

    #[test]
    fn closed_touching_centers() {
        // Centers exactly 1 apart touch (closed semantics) => adjacent.
        let u = UnitIntervalRepresentation::from_centers(&[0.0, 1.0]).unwrap();
        assert_eq!(u.to_graph().num_edges(), 1);
    }
}
