//! Paths: traversable sequences of segments with sub-path slicing.

use crate::types::EdgeId;
use std::fmt;
use std::ops::Range;

/// Error produced when constructing an invalid path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathError {
    /// Paths must contain at least one segment.
    Empty,
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathError::Empty => write!(f, "a path must contain at least one segment"),
        }
    }
}

impl std::error::Error for PathError {}

/// A traversable sequence of segments `P = ⟨e₀, e₁, …, e_{l−1}⟩` with
/// `|P| = l` (paper, Section 2.2).
///
/// `Path` stores only edge ids; whether consecutive edges actually connect is
/// a property of a specific [`crate::RoadNetwork`] and can be checked with
/// [`crate::RoadNetwork::validate_path`]. This mirrors the paper's layering:
/// the FM-index works on edge-id strings and never consults the graph.
///
/// The sub-path `⟨e_i, …, e_{j−1}⟩` is written `P[i, j)` in the paper and
/// obtained here with [`Path::sub_path`].
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Path {
    edges: Vec<EdgeId>,
}

impl Path {
    /// Creates a path from an edge sequence.
    ///
    /// # Panics
    /// Panics if `edges` is empty; use [`Path::try_new`] for fallible
    /// construction.
    pub fn new(edges: Vec<EdgeId>) -> Self {
        Path::try_new(edges).expect("a path must contain at least one segment")
    }

    /// Fallible construction.
    pub fn try_new(edges: Vec<EdgeId>) -> Result<Self, PathError> {
        if edges.is_empty() {
            return Err(PathError::Empty);
        }
        Ok(Path { edges })
    }

    /// Creates a single-segment path.
    pub fn single(edge: EdgeId) -> Self {
        Path { edges: vec![edge] }
    }

    /// Number of segments `|P| = l`.
    #[inline]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the path has no segments. Always `false` for constructed
    /// paths; exists to satisfy the `len`/`is_empty` convention.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The underlying edge sequence.
    #[inline]
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// First segment `e₀`.
    #[inline]
    pub fn first(&self) -> EdgeId {
        self.edges[0]
    }

    /// Last segment `e_{l−1}`.
    #[inline]
    pub fn last(&self) -> EdgeId {
        *self.edges.last().expect("paths are non-empty")
    }

    /// The sub-path `P[i, j) = ⟨e_i, …, e_{j−1}⟩` with `0 ≤ i < j ≤ l`.
    ///
    /// # Panics
    /// Panics if the range is empty or out of bounds.
    pub fn sub_path(&self, range: Range<usize>) -> Path {
        assert!(
            range.start < range.end && range.end <= self.edges.len(),
            "invalid sub-path range {range:?} for path of length {}",
            self.edges.len()
        );
        Path {
            edges: self.edges[range].to_vec(),
        }
    }

    /// Splits the path into `(P[0, m), P[m, l))`.
    ///
    /// # Panics
    /// Panics unless `1 ≤ m < l`.
    pub fn split_at(&self, m: usize) -> (Path, Path) {
        assert!(m >= 1 && m < self.len(), "split point {m} out of range");
        (self.sub_path(0..m), self.sub_path(m..self.len()))
    }
}

impl fmt::Debug for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{e:?}")?;
        }
        write!(f, "⟩")
    }
}

impl From<Vec<EdgeId>> for Path {
    fn from(edges: Vec<EdgeId>) -> Self {
        Path::new(edges)
    }
}

impl<'a> IntoIterator for &'a Path {
    type Item = &'a EdgeId;
    type IntoIter = std::slice::Iter<'a, EdgeId>;
    fn into_iter(self) -> Self::IntoIter {
        self.edges.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(ids: &[u32]) -> Path {
        Path::new(ids.iter().map(|&i| EdgeId(i)).collect())
    }

    #[test]
    fn construction_rejects_empty() {
        assert_eq!(Path::try_new(vec![]), Err(PathError::Empty));
        assert!(Path::try_new(vec![EdgeId(0)]).is_ok());
    }

    #[test]
    fn sub_path_matches_paper_notation() {
        // P = ⟨A,C,D,E⟩ with A=0, C=2, D=3, E=4 (example ids).
        let path = p(&[0, 2, 3, 4]);
        assert_eq!(path.sub_path(0..2), p(&[0, 2]));
        assert_eq!(path.sub_path(2..4), p(&[3, 4]));
        assert_eq!(path.sub_path(0..4), path);
    }

    #[test]
    #[should_panic(expected = "invalid sub-path range")]
    fn empty_sub_path_panics() {
        p(&[0, 1]).sub_path(1..1);
    }

    #[test]
    fn split_at_halves() {
        let path = p(&[0, 2, 3, 4]);
        let (a, b) = path.split_at(2);
        assert_eq!(a, p(&[0, 2]));
        assert_eq!(b, p(&[3, 4]));
    }

    #[test]
    fn debug_format_uses_angle_brackets() {
        assert_eq!(format!("{:?}", p(&[0, 1])), "⟨e0,e1⟩");
    }
}
