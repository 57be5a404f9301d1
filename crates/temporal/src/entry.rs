//! The extended temporal-leaf record of the paper's Section 4.1.3.

use tthr_store::{ByteReader, ByteWriter, Persist, StoreError};

/// One temporal-index leaf: a segment traversal, keyed by entry timestamp.
///
/// Beyond the original SNT-index leaf `(t → isa, d)`, the paper adds the
/// traversal time `TT`, the sequence number `seq`, and the running aggregate
/// `a = Σ_{i ≤ seq} TTᵢ`, so that the travel time of a whole query path can
/// be produced from two index scans without touching the trajectories
/// (Figure 4). The temporal-partitioning extension (Section 4.3.2) adds the
/// partition id `w`, because every partition's FM-index assigns different
/// ISA values to the same path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LeafEntry {
    /// Entry timestamp `t` (seconds since data set epoch) — the key.
    pub time: i64,
    /// Travel-time aggregate `a`: prefix sum of the trajectory's traversal
    /// times up to and including this segment.
    pub aggregate: f64,
    /// Traversal time `TT` of this segment, in seconds.
    pub travel_time: f64,
    /// Inverse-suffix-array value of this traversal's position in its
    /// partition's trajectory string.
    pub isa: u32,
    /// Trajectory identifier `d`.
    pub traj: u32,
    /// Sequence number of the segment within the trajectory (0-based).
    pub seq: u32,
    /// Temporal partition id `w`.
    pub partition: u16,
}

impl LeafEntry {
    /// The travel-time aggregate *before* entering this segment:
    /// `a − TT`, the `diff` value stored in the probe table (Procedure 3).
    #[inline]
    pub fn antecedent(&self) -> f64 {
        self.aggregate - self.travel_time
    }

    /// Logical record size in bytes, with or without the partition id —
    /// the paper reports ≈ 300 MiB saved on its data set by dropping `w`
    /// from the leaves (Section 6.3). Used by the Figure 10a accounting.
    pub const fn logical_size(with_partition: bool) -> usize {
        // t + a + TT + isa + d + seq (+ w)
        8 + 8 + 8 + 4 + 4 + 4 + if with_partition { 2 } else { 0 }
    }
}

impl LeafEntry {
    /// Decodes a length-prefixed sequence in one pass over the raw bytes.
    ///
    /// The wire record is fixed-width, so the whole payload can be sliced
    /// up front and parsed with `chunks_exact` — one bounds check per
    /// record instead of one per field. Forests hold millions of leaves;
    /// this is the hot loop of a snapshot load. Each tree collects the
    /// records into its own layout.
    pub(crate) fn records<'a>(
        r: &mut ByteReader<'a>,
    ) -> Result<impl ExactSizeIterator<Item = LeafEntry> + 'a, StoreError> {
        const WIRE: usize = LeafEntry::logical_size(true);
        let n = r.get_len(WIRE)?;
        let bytes = r.get_bytes(n * WIRE)?;
        Ok(bytes.chunks_exact(WIRE).map(|c| LeafEntry {
            time: i64::from_le_bytes(c[0..8].try_into().expect("8 bytes")),
            aggregate: f64::from_bits(u64::from_le_bytes(c[8..16].try_into().expect("8 bytes"))),
            travel_time: f64::from_bits(u64::from_le_bytes(c[16..24].try_into().expect("8 bytes"))),
            isa: u32::from_le_bytes(c[24..28].try_into().expect("4 bytes")),
            traj: u32::from_le_bytes(c[28..32].try_into().expect("4 bytes")),
            seq: u32::from_le_bytes(c[32..36].try_into().expect("4 bytes")),
            partition: u16::from_le_bytes(c[36..38].try_into().expect("2 bytes")),
        }))
    }
}

/// Wire form: the logical record of [`LeafEntry::logical_size`]`(true)` —
/// `t` (i64), `a` (f64), `TT` (f64), `isa` (u32), `d` (u32), `seq` (u32),
/// `w` (u16) — 38 bytes, fixed width.
impl Persist for LeafEntry {
    #[inline]
    fn persist(&self, w: &mut ByteWriter) {
        w.put_i64(self.time);
        w.put_f64(self.aggregate);
        w.put_f64(self.travel_time);
        w.put_u32(self.isa);
        w.put_u32(self.traj);
        w.put_u32(self.seq);
        w.put_u16(self.partition);
    }

    #[inline]
    fn restore(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        Ok(LeafEntry {
            time: r.get_i64()?,
            aggregate: r.get_f64()?,
            travel_time: r.get_f64()?,
            isa: r.get_u32()?,
            traj: r.get_u32()?,
            seq: r.get_u32()?,
            partition: r.get_u16()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_form_is_the_logical_record() {
        let e = LeafEntry {
            time: -5,
            aggregate: 10.5,
            travel_time: 4.5,
            isa: 7,
            traj: 3,
            seq: 2,
            partition: 1,
        };
        let mut w = ByteWriter::new();
        e.persist(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), LeafEntry::logical_size(true));
        let mut r = ByteReader::new(&bytes);
        assert_eq!(LeafEntry::restore(&mut r).unwrap(), e);
        r.expect_exhausted("leaf").unwrap();
    }

    #[test]
    fn antecedent_is_aggregate_minus_travel_time() {
        let e = LeafEntry {
            time: 100,
            aggregate: 10.5,
            travel_time: 4.5,
            isa: 7,
            traj: 3,
            seq: 2,
            partition: 0,
        };
        assert_eq!(e.antecedent(), 6.0);
    }

    #[test]
    fn logical_sizes() {
        assert_eq!(LeafEntry::logical_size(true), 38);
        assert_eq!(LeafEntry::logical_size(false), 36);
    }
}
