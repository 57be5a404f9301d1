//! Temporal index substrate: per-segment indexes keyed by traversal
//! timestamp.
//!
//! The SNT-index keeps one temporal index per road segment (`F = {Φe | e ∈
//! E}`, paper Section 4.1.2). Each leaf maps an entry timestamp to the
//! extended record `(isa, d, TT, a, seq, w)` of Section 4.1.3 — the ISA
//! value for spatial filtering, the trajectory id, the traversal time, the
//! running travel-time aggregate, the sequence number, and the temporal
//! partition id.
//!
//! Two interchangeable tree implementations are provided, both from scratch:
//!
//! * [`BPlusTree`] — a classic in-memory B+-tree multimap (the paper's
//!   baseline, cpp-btree style) supporting arbitrary-order inserts.
//! * [`CssTree`] — a cache-sensitive search tree (Rao & Ross, 1999): a
//!   pointerless directory over a sorted array, append-only, with
//!   logarithmic-time range *counting* used by the CSS-mode cardinality
//!   estimators (paper, Section 4.3.1). The array is held as a dense key
//!   column plus a column of the leaves without their key (40 bytes per
//!   leaf either way), so searches and window bounds read keys only.
//!
//! Both implement [`TemporalIndex`]; the SNT layer assembles them into
//! per-segment forests. A periodic predicate is a sequence of ascending
//! daily windows: [`TemporalIndex::scan_range_from`] scans them with one
//! cursor, and the CSS-tree then walks forward from each window's end to
//! the next window's start instead of descending its directory per day.
//! Both trees persist the same 38-byte [`LeafEntry`] record per leaf.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bplus;
mod css;
mod entry;

pub use bplus::BPlusTree;
pub use css::CssTree;
pub use entry::LeafEntry;

use std::ops::ControlFlow;

/// Common interface of the temporal tree implementations.
pub trait TemporalIndex {
    /// Number of stored entries.
    fn len(&self) -> usize;

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Smallest timestamp in the index (`F[e]_min`, used by the time-frame
    /// selectivity formula 3).
    fn min_key(&self) -> Option<i64>;

    /// Largest timestamp in the index (`F[e]_max`).
    fn max_key(&self) -> Option<i64>;

    /// Visits entries with `lo ≤ t < hi` in ascending timestamp order until
    /// the callback breaks. Returns the callback's final flow state.
    fn scan_range(
        &self,
        lo: i64,
        hi: i64,
        f: &mut dyn FnMut(&LeafEntry) -> ControlFlow<()>,
    ) -> ControlFlow<()>;

    /// [`TemporalIndex::scan_range`] for one window of an ascending
    /// sequence, resuming from the cursor `from` (start it at 0 and pass
    /// the same one to every window). A periodic predicate visits one
    /// window per day; when each window starts at or after the previous
    /// one's end, the CSS-tree searches forward from where the previous
    /// window stopped instead of descending its directory again. Visits
    /// exactly the entries, in the same order, that `scan_range(lo, hi)`
    /// visits, whatever `from` holds; the B+-tree keeps the per-window
    /// descent.
    fn scan_range_from(
        &self,
        from: &mut usize,
        lo: i64,
        hi: i64,
        f: &mut dyn FnMut(&LeafEntry) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let _ = from;
        self.scan_range(lo, hi, f)
    }

    /// Number of entries with `lo ≤ t < hi`.
    ///
    /// The CSS-tree answers this in `O(log n)` via its directory — the
    /// property the CSS-mode cardinality estimators exploit; the B+-tree
    /// falls back to a counting scan.
    fn range_count(&self, lo: i64, hi: i64) -> usize;

    /// Approximate heap footprint in bytes (Figure 10a `Forest` accounting).
    fn size_bytes(&self) -> usize;

    /// Collects a range into a vector (convenience for tests and examples).
    fn collect_range(&self, lo: i64, hi: i64) -> Vec<LeafEntry> {
        let mut out = Vec::new();
        let _ = self.scan_range(lo, hi, &mut |e| {
            out.push(*e);
            ControlFlow::Continue(())
        });
        out
    }
}
