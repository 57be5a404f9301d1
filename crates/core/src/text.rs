//! Trajectory-string construction: mapping trajectories to the FM-index
//! alphabet.
//!
//! The trajectory set is serialized as `T = P_tr0 $ P_tr1 $ … $ P_trn−1 $`
//! over the alphabet `Σ = E ∪ {$}` with `$` lexicographically smallest
//! (paper, Section 4.1.1). Symbol `0` is `$` and edge `e` maps to `e + 1`.

use tthr_network::{EdgeId, Path};
use tthr_trajectory::Trajectory;

/// The `$` terminator symbol.
pub(crate) const TERMINATOR: u32 = 0;

/// The FM-index symbol of an edge.
#[inline]
pub(crate) fn edge_symbol(e: EdgeId) -> u32 {
    e.0 + 1
}

/// The alphabet size for a network with `num_edges` edges: `|E| + 1`.
#[inline]
pub(crate) fn alphabet_size(num_edges: usize) -> u32 {
    num_edges as u32 + 1
}

/// A path as an FM-index pattern.
pub(crate) fn path_symbols(path: &Path) -> Vec<u32> {
    path.edges().iter().map(|&e| edge_symbol(e)).collect()
}

/// [`path_symbols`] into a caller-owned buffer (cleared first) — the
/// query hot path re-uses one buffer per query instead of allocating a
/// pattern `Vec` per `getISARange` dispatch.
pub(crate) fn path_symbols_into(path: &Path, out: &mut Vec<u32>) {
    out.clear();
    out.extend(path.edges().iter().map(|&e| edge_symbol(e)));
}

/// Builds the trajectory string for a sequence of trajectories, returning
/// the symbols and, for each trajectory (in input order), the text position
/// of its first traversal. Traversal `k` of trajectory `i` sits at
/// `starts[i] + k`.
pub(crate) fn build_text<'a, I>(trajectories: I) -> (Vec<u32>, Vec<usize>)
where
    I: IntoIterator<Item = &'a Trajectory>,
{
    let mut text = Vec::new();
    let mut starts = Vec::new();
    for tr in trajectories {
        starts.push(text.len());
        text.extend(tr.entries().iter().map(|e| edge_symbol(e.edge)));
        text.push(TERMINATOR);
    }
    (text, starts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tthr_trajectory::examples::example_trajectories;

    #[test]
    fn example_set_builds_figure3_string() {
        // T = ABE$ACDE$ABF$ABE$ with A=1 … F=6.
        let set = example_trajectories();
        let (text, starts) = build_text(set.iter());
        assert_eq!(
            text,
            vec![1, 2, 5, 0, 1, 3, 4, 5, 0, 1, 2, 6, 0, 1, 2, 5, 0]
        );
        assert_eq!(starts, vec![0, 4, 9, 13]);
    }

    #[test]
    fn symbols_shift_by_one() {
        assert_eq!(edge_symbol(EdgeId(0)), 1);
        assert_eq!(edge_symbol(EdgeId(41)), 42);
        assert_eq!(alphabet_size(6), 7);
        let p = Path::new(vec![EdgeId(0), EdgeId(4)]);
        assert_eq!(path_symbols(&p), vec![1, 5]);
    }

    #[test]
    fn empty_input_builds_empty_text() {
        let (text, starts) = build_text(std::iter::empty());
        assert!(text.is_empty());
        assert!(starts.is_empty());
    }
}
