//! Separation vectors, labelings and the full verifier.

use ssg_graph::traversal::{bfs_distances_bounded_into, UNREACHABLE};
use ssg_graph::{Graph, Vertex};
use std::collections::VecDeque;
use std::fmt;

/// A separation vector `(δ1, δ2, ..., δt)` of non-increasing positive
/// integers (paper §1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SeparationVector {
    deltas: Vec<u32>,
}

/// Errors when building a [`SeparationVector`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeparationError {
    /// The vector was empty.
    Empty,
    /// Some `δi` was zero.
    ZeroSeparation {
        /// 1-based position of the zero entry.
        position: usize,
    },
    /// The entries increased at some point.
    NotNonIncreasing {
        /// 1-based position where `δ(i) < δ(i+1)`.
        position: usize,
    },
}

impl fmt::Display for SeparationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeparationError::Empty => write!(f, "separation vector must be non-empty"),
            SeparationError::ZeroSeparation { position } => {
                write!(f, "δ{position} is zero; separations must be positive")
            }
            SeparationError::NotNonIncreasing { position } => {
                write!(
                    f,
                    "δ{position} < δ{}; separations must be non-increasing",
                    position + 1
                )
            }
        }
    }
}

impl std::error::Error for SeparationError {}

impl From<SeparationError> for ssg_error::SsgError {
    fn from(e: SeparationError) -> Self {
        ssg_error::SsgError::Spec(e.to_string())
    }
}

impl SeparationVector {
    /// Builds a validated separation vector.
    pub fn new(deltas: Vec<u32>) -> Result<Self, SeparationError> {
        if deltas.is_empty() {
            return Err(SeparationError::Empty);
        }
        for (i, &d) in deltas.iter().enumerate() {
            if d == 0 {
                return Err(SeparationError::ZeroSeparation { position: i + 1 });
            }
        }
        for (i, w) in deltas.windows(2).enumerate() {
            if w[0] < w[1] {
                return Err(SeparationError::NotNonIncreasing { position: i + 1 });
            }
        }
        Ok(SeparationVector { deltas })
    }

    /// `(1, 1, ..., 1)` of length `t` — the `L(1,...,1)` problem.
    pub fn all_ones(t: u32) -> Self {
        assert!(t >= 1);
        SeparationVector {
            deltas: vec![1; t as usize],
        }
    }

    /// `(δ1, 1, ..., 1)` of length `t` — §3.2 / §4.2.
    pub fn delta1_then_ones(delta1: u32, t: u32) -> Result<Self, SeparationError> {
        assert!(t >= 1);
        let mut v = vec![1u32; t as usize];
        v[0] = delta1;
        SeparationVector::new(v)
    }

    /// `(δ1, δ2)` — §3.3.
    pub fn two(delta1: u32, delta2: u32) -> Result<Self, SeparationError> {
        SeparationVector::new(vec![delta1, delta2])
    }

    /// `t`, the interference radius.
    #[inline]
    pub fn t(&self) -> u32 {
        self.deltas.len() as u32
    }

    /// `δi` for `1 <= i <= t`.
    #[inline]
    pub fn delta(&self, i: u32) -> u32 {
        self.deltas[i as usize - 1]
    }

    /// The raw non-increasing entries.
    #[inline]
    pub fn deltas(&self) -> &[u32] {
        &self.deltas
    }

    /// Whether this is the pure `L(1,...,1)` problem.
    pub fn is_all_ones(&self) -> bool {
        self.deltas.iter().all(|&d| d == 1)
    }
}

impl fmt::Display for SeparationVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L(")?;
        for (i, d) in self.deltas.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

/// A channel assignment: one non-negative color per vertex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Labeling {
    colors: Vec<u32>,
}

impl Labeling {
    /// Wraps a color vector.
    pub fn new(colors: Vec<u32>) -> Self {
        Labeling { colors }
    }

    /// Color of vertex `v`.
    #[inline]
    pub fn color(&self, v: Vertex) -> u32 {
        self.colors[v as usize]
    }

    /// All colors, indexed by vertex.
    #[inline]
    pub fn colors(&self) -> &[u32] {
        &self.colors
    }

    /// Consumes the labeling, returning the color buffer — used by
    /// [`Workspace::recycle`](crate::workspace::Workspace::recycle) to
    /// return output buffers to the arena.
    #[inline]
    pub fn into_colors(self) -> Vec<u32> {
        self.colors
    }

    /// Number of labelled vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.colors.len()
    }

    /// Whether no vertices are labelled.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.colors.is_empty()
    }

    /// The span `λ` = largest color used (0 for empty labelings).
    pub fn span(&self) -> u32 {
        self.colors.iter().copied().max().unwrap_or(0)
    }

    /// Number of *distinct* colors actually assigned (the paper notes this
    /// can be less than `span + 1`).
    pub fn distinct_colors(&self) -> usize {
        let mut cs: Vec<u32> = self.colors.clone();
        cs.sort_unstable();
        cs.dedup();
        cs.len()
    }
}

/// A theorem's largest color, computed wide so that nothing wraps: `value`
/// as a `u32`, or a panic naming the bound when it does not fit. Every
/// color a solver assigns is at most its bound, so checking the bound once
/// keeps the per-vertex arithmetic in range.
pub(crate) fn theorem_bound(name: &str, value: u128) -> u32 {
    u32::try_from(value).unwrap_or_else(|_| panic!("{name} = {value} overflows u32"))
}

/// A violated constraint found by [`verify_labeling`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// First endpoint.
    pub u: Vertex,
    /// Second endpoint.
    pub v: Vertex,
    /// Their graph distance (`<= t`).
    pub distance: u32,
    /// `|f(u) - f(v)|`.
    pub gap: u32,
    /// The required separation `δ_distance`.
    pub required: u32,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "vertices {} and {} at distance {} have colors {} apart (need >= {})",
            self.u, self.v, self.distance, self.gap, self.required
        )
    }
}

/// Checks every pair at distance `<= t` against the separation vector.
/// Returns the first violation found, as an error. `O(n * ball_t)` — this is
/// the trusted, slow, definition-level verifier used throughout the tests
/// and benches.
///
/// ```
/// use ssg_graph::generators;
/// use ssg_labeling::{verify_labeling, SeparationVector};
/// let p4 = generators::path(4);
/// let sep = SeparationVector::two(2, 1).unwrap();
/// assert!(verify_labeling(&p4, &sep, &[0, 2, 4, 0]).is_ok());
/// let err = verify_labeling(&p4, &sep, &[0, 1, 4, 0]).unwrap_err();
/// assert_eq!((err.u, err.v, err.required), (0, 1, 2));
/// ```
pub fn verify_labeling(g: &Graph, sep: &SeparationVector, colors: &[u32]) -> Result<(), Violation> {
    assert_eq!(colors.len(), g.num_vertices(), "one color per vertex");
    let t = sep.t();
    let n = g.num_vertices();
    let mut dist = vec![UNREACHABLE; n];
    let mut queue = VecDeque::new();
    for u in 0..n as Vertex {
        bfs_distances_bounded_into(g, u, t, &mut dist, &mut queue);
        for v in (u + 1)..n as Vertex {
            let d = dist[v as usize];
            if d == UNREACHABLE || d == 0 {
                continue;
            }
            let required = sep.delta(d);
            let gap = colors[u as usize].abs_diff(colors[v as usize]);
            if gap < required {
                return Err(Violation {
                    u,
                    v,
                    distance: d,
                    gap,
                    required,
                });
            }
        }
    }
    Ok(())
}

/// Collects **all** violations instead of stopping at the first.
pub fn all_violations(g: &Graph, sep: &SeparationVector, colors: &[u32]) -> Vec<Violation> {
    assert_eq!(colors.len(), g.num_vertices());
    let t = sep.t();
    let n = g.num_vertices();
    let mut dist = vec![UNREACHABLE; n];
    let mut queue = VecDeque::new();
    let mut out = Vec::new();
    for u in 0..n as Vertex {
        bfs_distances_bounded_into(g, u, t, &mut dist, &mut queue);
        for v in (u + 1)..n as Vertex {
            let d = dist[v as usize];
            if d == UNREACHABLE || d == 0 {
                continue;
            }
            let required = sep.delta(d);
            let gap = colors[u as usize].abs_diff(colors[v as usize]);
            if gap < required {
                out.push(Violation {
                    u,
                    v,
                    distance: d,
                    gap,
                    required,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssg_graph::generators;

    #[test]
    fn separation_vector_validation() {
        assert!(SeparationVector::new(vec![2, 1, 1]).is_ok());
        assert_eq!(SeparationVector::new(vec![]), Err(SeparationError::Empty));
        assert_eq!(
            SeparationVector::new(vec![1, 0]),
            Err(SeparationError::ZeroSeparation { position: 2 })
        );
        assert_eq!(
            SeparationVector::new(vec![1, 2]),
            Err(SeparationError::NotNonIncreasing { position: 1 })
        );
        let s = SeparationVector::all_ones(3);
        assert!(s.is_all_ones());
        assert_eq!(s.t(), 3);
        assert_eq!(s.delta(2), 1);
        let s = SeparationVector::delta1_then_ones(4, 3).unwrap();
        assert_eq!(s.deltas(), &[4, 1, 1]);
        assert!(!s.is_all_ones());
        assert!(SeparationVector::two(1, 2).is_err());
        assert_eq!(
            format!("{}", SeparationVector::two(2, 1).unwrap()),
            "L(2,1)"
        );
    }

    #[test]
    fn labeling_stats() {
        let l = Labeling::new(vec![0, 3, 3, 7]);
        assert_eq!(l.span(), 7);
        assert_eq!(l.distinct_colors(), 3);
        assert_eq!(l.color(1), 3);
        assert!(!l.is_empty());
        assert_eq!(Labeling::new(vec![]).span(), 0);
    }

    #[test]
    fn verifier_accepts_valid_l21_on_path() {
        // P4, L(2,1): 0-2-4-... classic: f = [0, 2, 4, 0]? check 3: d(2,3)=1
        // |4-0|=4 ok; d(1,3)=2 |2-0|=2>=1 ok; d(0,3)=3 unconstrained.
        let g = generators::path(4);
        let sep = SeparationVector::two(2, 1).unwrap();
        assert!(verify_labeling(&g, &sep, &[0, 2, 4, 0]).is_ok());
    }

    #[test]
    fn verifier_catches_distance1_and_distance2_violations() {
        let g = generators::path(3);
        let sep = SeparationVector::two(2, 1).unwrap();
        // d(0,1)=1 but |0-1|=1 < 2.
        let v = verify_labeling(&g, &sep, &[0, 1, 3]).unwrap_err();
        assert_eq!((v.u, v.v, v.distance, v.gap, v.required), (0, 1, 1, 1, 2));
        // d(0,2)=2 but equal colors.
        let v = verify_labeling(&g, &sep, &[0, 2, 0]).unwrap_err();
        assert_eq!((v.u, v.v, v.distance), (0, 2, 2));
        assert_eq!(v.required, 1);
    }

    #[test]
    fn verifier_ignores_pairs_beyond_t() {
        let g = generators::path(5);
        let sep = SeparationVector::all_ones(2);
        // vertices 0 and 3 share a color: distance 3 > t = 2, fine.
        assert!(verify_labeling(&g, &sep, &[0, 1, 2, 0, 1]).is_ok());
    }

    #[test]
    fn all_violations_collects_everything() {
        let g = generators::complete(3);
        let sep = SeparationVector::all_ones(1);
        let vs = all_violations(&g, &sep, &[0, 0, 0]);
        assert_eq!(vs.len(), 3);
        assert!(all_violations(&g, &sep, &[0, 1, 2]).is_empty());
    }

    #[test]
    fn display_formats() {
        let v = Violation {
            u: 1,
            v: 2,
            distance: 2,
            gap: 0,
            required: 1,
        };
        let s = format!("{v}");
        assert!(s.contains("distance 2"));
        assert_eq!(
            format!("{}", SeparationError::NotNonIncreasing { position: 1 }),
            "δ1 < δ2; separations must be non-increasing"
        );
    }
}
