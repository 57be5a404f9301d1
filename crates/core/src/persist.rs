//! Snapshot and WAL-record serialization of the SNT-index.
//!
//! The index is decomposed into the six CRC-guarded sections below (see
//! `tthr-store` for the container layout and `docs/storage-format.md` for
//! the full specification). Restoring cross-validates the sections
//! against the `SECTION_META` header — component counts, tree/wavelet
//! kinds, and entry totals must all agree — so a snapshot assembled from
//! mismatched pieces is rejected with a typed error instead of producing
//! an index that answers queries incorrectly.
//!
//! | id  | section     | contents                                        |
//! |-----|-------------|-------------------------------------------------|
//! | 1   | `META`      | config, data span, entry/trajectory/edge counts |
//! | 2   | `FMINDEX`   | one FM-index (C array + wavelet BWT) per partition |
//! | 3   | `FOREST`    | the per-segment temporal trees                  |
//! | 4   | `USERS`     | the dense `d → u` user table                    |
//! | 5   | `TOD`       | optional time-of-day histogram store            |
//! | 6   | `ESTIMATES` | per-edge speed-limit travel-time estimates      |
//! | 7   | `HOT`       | pending hot-tail batches (raw trajectories)     |
//!
//! The `HOT` section carries absorbed-but-unsealed batches as raw
//! trajectory payloads (their lanes and histograms are rebuilt on
//! restore); `META`'s trajectory count covers them — the user table
//! already does — while its entry count covers the immutable forest
//! only. Snapshots written before the section existed restore with an
//! empty hot tail.

use crate::snt::{FmVariant, Forest, TodStore};
use crate::{SntConfig, SntIndex, TreeKind, WaveletKind};
use tthr_fmindex::{FmIndex, HuffmanWaveletTree, WaveletMatrix};
use tthr_histogram::TimeOfDayHistogram;
use tthr_store::snapshot::{SectionId, SnapshotArchive, SnapshotBuilder};
use tthr_store::{ByteReader, ByteWriter, Persist, StoreError};
use tthr_temporal::{BPlusTree, CssTree, TemporalIndex};
use tthr_trajectory::{TrajEntry, TrajId, Trajectory, UserId};

/// Header section: construction config, data span, component counts.
pub(crate) const SECTION_META: SectionId = SectionId(1);
/// Per-partition FM-indexes.
pub(crate) const SECTION_FMINDEX: SectionId = SectionId(2);
/// The temporal forest.
pub(crate) const SECTION_FOREST: SectionId = SectionId(3);
/// The `U : d → u` user table.
pub(crate) const SECTION_USERS: SectionId = SectionId(4);
/// The optional time-of-day histogram store.
pub(crate) const SECTION_TOD: SectionId = SectionId(5);
/// Per-edge speed-limit estimates.
pub(crate) const SECTION_ESTIMATES: SectionId = SectionId(6);
/// Pending hot-tail batches (raw trajectories, absorb order).
pub(crate) const SECTION_HOT: SectionId = SectionId(7);

/// Wire form: tree kind (u8), wavelet kind (u8), optional partition
/// width in days, optional ToD bucket width in seconds.
impl Persist for SntConfig {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_u8(match self.tree {
            TreeKind::Css => 0,
            TreeKind::BPlus => 1,
        });
        w.put_u8(match self.wavelet {
            WaveletKind::Huffman => 0,
            WaveletKind::Matrix => 1,
        });
        self.partition_days.persist(w);
        self.tod_bucket_secs.persist(w);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        let tree = match r.get_u8()? {
            0 => TreeKind::Css,
            1 => TreeKind::BPlus,
            other => return Err(StoreError::corrupt(format!("tree kind tag {other}"))),
        };
        let wavelet = match r.get_u8()? {
            0 => WaveletKind::Huffman,
            1 => WaveletKind::Matrix,
            other => return Err(StoreError::corrupt(format!("wavelet kind tag {other}"))),
        };
        Ok(SntConfig {
            tree,
            wavelet,
            partition_days: Option::restore(r)?,
            tod_bucket_secs: Option::restore(r)?,
        })
    }
}

/// Wire form: wavelet kind tag (u8) then the FM-index payload.
impl Persist for FmVariant {
    fn persist(&self, w: &mut ByteWriter) {
        match self {
            FmVariant::Huffman(fm) => {
                w.put_u8(0);
                fm.persist(w);
            }
            FmVariant::Matrix(fm) => {
                w.put_u8(1);
                fm.persist(w);
            }
        }
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        match r.get_u8()? {
            0 => Ok(FmVariant::Huffman(FmIndex::<HuffmanWaveletTree>::restore(
                r,
            )?)),
            1 => Ok(FmVariant::Matrix(FmIndex::<WaveletMatrix>::restore(r)?)),
            other => Err(StoreError::corrupt(format!("fm variant tag {other}"))),
        }
    }
}

/// Wire form: tree kind tag (u8) then one tree per edge.
impl Persist for Forest {
    fn persist(&self, w: &mut ByteWriter) {
        match self {
            Forest::Css(trees) => {
                w.put_u8(0);
                w.put_seq(trees);
            }
            Forest::BPlus(trees) => {
                w.put_u8(1);
                w.put_seq(trees);
            }
        }
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        match r.get_u8()? {
            0 => Ok(Forest::Css(r.get_seq::<CssTree>()?)),
            1 => Ok(Forest::BPlus(r.get_seq::<BPlusTree>()?)),
            other => Err(StoreError::corrupt(format!("forest kind tag {other}"))),
        }
    }
}

/// Wire form: bucket width (u32), then `partitions × edges` optional
/// histograms in row-major order.
impl Persist for TodStore {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_u32(self.bucket_secs);
        w.put_len(self.hists.len());
        for row in &self.hists {
            w.put_seq(row);
        }
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        let bucket_secs = r.get_u32()?;
        let rows = r.get_len(1)?;
        let mut hists = Vec::with_capacity(rows);
        for _ in 0..rows {
            hists.push(r.get_seq::<Option<TimeOfDayHistogram>>()?);
        }
        Ok(TodStore { bucket_secs, hists })
    }
}

impl Forest {
    fn tree_count(&self) -> usize {
        match self {
            Forest::Css(trees) => trees.len(),
            Forest::BPlus(trees) => trees.len(),
        }
    }

    fn entry_count(&self) -> usize {
        match self {
            Forest::Css(trees) => trees.iter().map(|t| t.len()).sum(),
            Forest::BPlus(trees) => trees.iter().map(|t| t.len()).sum(),
        }
    }

    fn kind(&self) -> TreeKind {
        match self {
            Forest::Css(_) => TreeKind::Css,
            Forest::BPlus(_) => TreeKind::BPlus,
        }
    }
}

impl FmVariant {
    fn kind(&self) -> WaveletKind {
        match self {
            FmVariant::Huffman(_) => WaveletKind::Huffman,
            FmVariant::Matrix(_) => WaveletKind::Matrix,
        }
    }

    fn alphabet_size(&self) -> u32 {
        match self {
            FmVariant::Huffman(fm) => fm.alphabet_size(),
            FmVariant::Matrix(fm) => fm.alphabet_size(),
        }
    }
}

impl SntIndex {
    /// Serializes the whole index into a snapshot container (see the
    /// module docs for the section layout).
    ///
    /// ```
    /// use tthr_core::{SntConfig, SntIndex, Spq, TimeInterval};
    /// use tthr_network::examples::{example_network, EDGE_A, EDGE_B};
    /// use tthr_network::Path;
    /// use tthr_trajectory::examples::example_trajectories;
    ///
    /// let network = example_network();
    /// let index = SntIndex::build(&network, &example_trajectories(), SntConfig::default());
    /// let bytes = index.to_snapshot_bytes();
    /// let restored = SntIndex::from_snapshot_bytes(&bytes)?;
    /// let spq = Spq::new(Path::new(vec![EDGE_A, EDGE_B]), TimeInterval::fixed(0, 15));
    /// assert_eq!(
    ///     restored.get_travel_times(&spq).sorted(),
    ///     index.get_travel_times(&spq).sorted(),
    /// );
    /// # Ok::<(), tthr_store::StoreError>(())
    /// ```
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        self.snapshot_builder().into_bytes()
    }

    /// Streams the snapshot container into a writer without materializing
    /// the concatenated file in memory (the per-section buffers still
    /// are); the service's snapshot path writes straight to the temp file
    /// through this.
    pub fn write_snapshot_to<W: std::io::Write>(&self, out: &mut W) -> Result<(), StoreError> {
        self.snapshot_builder().write_to(out)
    }

    fn snapshot_builder(&self) -> SnapshotBuilder {
        let mut builder = SnapshotBuilder::new();

        let mut meta = ByteWriter::new();
        self.config.persist(&mut meta);
        meta.put_i64(self.data_min);
        meta.put_i64(self.data_max);
        meta.put_len(self.total_entries);
        meta.put_len(self.user_table.len());
        meta.put_len(self.partitions.len());
        meta.put_len(self.estimate_tt.len());
        builder.add_section(SECTION_META, meta.into_bytes());

        let mut fm = ByteWriter::new();
        fm.put_seq(&self.partitions);
        builder.add_section(SECTION_FMINDEX, fm.into_bytes());

        let mut forest = ByteWriter::new();
        self.forest.persist(&mut forest);
        builder.add_section(SECTION_FOREST, forest.into_bytes());

        let mut users = ByteWriter::new();
        users.put_seq(&self.user_table);
        builder.add_section(SECTION_USERS, users.into_bytes());

        let mut tod = ByteWriter::new();
        self.tod.persist(&mut tod);
        builder.add_section(SECTION_TOD, tod.into_bytes());

        let mut est = ByteWriter::new();
        est.put_seq(&self.estimate_tt);
        builder.add_section(SECTION_ESTIMATES, est.into_bytes());

        let mut hot = ByteWriter::new();
        // Raw payloads only — lanes and histograms are rebuilt on restore.
        hot.put_len(self.hot_batches().len());
        for batch in self.hot_batches() {
            hot.put_u32(batch.first_id);
            put_trajectories(
                &mut hot,
                batch.trajs.iter().map(|t| (t.user(), t.entries())),
            );
        }
        builder.add_section(SECTION_HOT, hot.into_bytes());

        builder
    }

    /// Reassembles an index from a snapshot container, verifying the
    /// magic, version, per-section checksums, and the cross-section
    /// invariants (component counts and kinds against `SECTION_META`).
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        Self::restore_suffixes(bytes, |trajs| Ok(vec![0; trajs.len()]))
    }

    /// [`SntIndex::from_snapshot_bytes`] of an index whose leaves of a
    /// trajectory start at the position `starts` gives for it (see
    /// [`crate::snt::suffix_leaves`]; a cluster node's, from its routing
    /// table): the `HOT` section holds whole trajectories, and the
    /// re-absorbed batches keep the suffixes they were absorbed with. An
    /// error from `starts` fails the restore.
    pub(crate) fn restore_suffixes(
        bytes: &[u8],
        starts: impl Fn(&[Trajectory]) -> Result<Vec<u32>, StoreError>,
    ) -> Result<Self, StoreError> {
        let archive = SnapshotArchive::from_bytes(bytes)?;

        let mut meta = archive.section(SECTION_META)?;
        let config = SntConfig::restore(&mut meta)?;
        let data_min = meta.get_i64()?;
        let data_max = meta.get_i64()?;
        let total_entries = meta.get_u64()? as usize;
        let num_trajectories = meta.get_u64()? as usize;
        let num_partitions = meta.get_u64()? as usize;
        let num_edges = meta.get_u64()? as usize;
        meta.expect_exhausted("meta section")?;

        let mut fm = archive.section(SECTION_FMINDEX)?;
        let partitions: Vec<FmVariant> = fm.get_seq()?;
        fm.expect_exhausted("fmindex section")?;
        if partitions.len() != num_partitions {
            return Err(StoreError::corrupt(format!(
                "meta promises {num_partitions} partitions, fmindex section has {}",
                partitions.len()
            )));
        }
        for (w, p) in partitions.iter().enumerate() {
            if p.kind() != config.wavelet {
                return Err(StoreError::corrupt(format!(
                    "partition {w} wavelet kind disagrees with config"
                )));
            }
            if p.alphabet_size() != num_edges as u32 + 1 {
                return Err(StoreError::corrupt(format!(
                    "partition {w} alphabet does not match {num_edges} edges"
                )));
            }
        }

        let mut fr = archive.section(SECTION_FOREST)?;
        let forest = Forest::restore(&mut fr)?;
        fr.expect_exhausted("forest section")?;
        if forest.kind() != config.tree {
            return Err(StoreError::corrupt("forest kind disagrees with config"));
        }
        if forest.tree_count() != num_edges {
            return Err(StoreError::corrupt(format!(
                "forest has {} trees for {num_edges} edges",
                forest.tree_count()
            )));
        }
        if forest.entry_count() != total_entries {
            return Err(StoreError::corrupt(format!(
                "forest holds {} entries, meta promises {total_entries}",
                forest.entry_count()
            )));
        }

        let mut us = archive.section(SECTION_USERS)?;
        let user_table: Vec<UserId> = us.get_seq()?;
        us.expect_exhausted("users section")?;
        if user_table.len() != num_trajectories {
            return Err(StoreError::corrupt(format!(
                "user table has {} entries for {num_trajectories} trajectories",
                user_table.len()
            )));
        }

        let mut td = archive.section(SECTION_TOD)?;
        let tod: Option<TodStore> = Option::restore(&mut td)?;
        td.expect_exhausted("tod section")?;
        match (&tod, config.tod_bucket_secs) {
            (None, None) => {}
            (Some(store), Some(bucket)) => {
                if store.bucket_secs != bucket {
                    return Err(StoreError::corrupt(
                        "tod bucket width disagrees with config",
                    ));
                }
                if store.hists.len() != num_partitions
                    || store.hists.iter().any(|row| row.len() != num_edges)
                {
                    return Err(StoreError::corrupt("tod store shape mismatch"));
                }
            }
            _ => {
                return Err(StoreError::corrupt(
                    "tod store presence disagrees with config",
                ))
            }
        }

        let mut es = archive.section(SECTION_ESTIMATES)?;
        let estimate_tt: Vec<f64> = es.get_seq()?;
        es.expect_exhausted("estimates section")?;
        if estimate_tt.len() != num_edges {
            return Err(StoreError::corrupt(format!(
                "{} speed-limit estimates for {num_edges} edges",
                estimate_tt.len()
            )));
        }

        let mut index = SntIndex {
            config,
            partitions,
            forest,
            user_table,
            census: Default::default(),
            tod,
            estimate_tt,
            data_min,
            data_max,
            max_span: 0,
            part_newest: Vec::new(),
            total_entries,
            scratch_id: crate::snt::next_scratch_id(),
            hot: Default::default(),
            mutation_stamp: 0,
        };
        // The census and the leaf bounds are derived state, recounted
        // from the forest (the hot batches re-absorbed below join the
        // census and `part_newest` when they are sealed, and the span
        // bound as they are absorbed).
        index.census = index.recount_census();
        index.recount_leaf_bounds();

        // Pending hot batches (absent in pre-lifecycle snapshots → empty
        // tail). The user table and data span already cover them; only the
        // tail state is rebuilt. Ids must tile `..num_trajectories` exactly.
        match archive.section(SECTION_HOT) {
            Err(StoreError::MissingSection(_)) => {}
            Err(e) => return Err(e),
            Ok(mut hs) => {
                let n = hs.get_len(1)?;
                let mut expect_end = num_trajectories as u32;
                let mut raw = Vec::with_capacity(n);
                for _ in 0..n {
                    raw.push((hs.get_u32()?, get_trajectories(&mut hs)?));
                }
                hs.expect_exhausted("hot section")?;
                for (first_id, trajectories) in raw.iter().rev() {
                    let end = first_id
                        .checked_add(trajectories.len() as u32)
                        .ok_or_else(|| StoreError::corrupt("hot batch id overflow"))?;
                    if end != expect_end {
                        return Err(StoreError::corrupt(format!(
                            "hot batch ids end at {end}, expected {expect_end}"
                        )));
                    }
                    expect_end = *first_id;
                }
                for (first_id, trajectories) in raw {
                    let trajs = prepare_batch(first_id, index.estimate_tt.len(), &trajectories)?;
                    let starts = starts(&trajs)?;
                    index.restore_hot_batch(first_id, trajs, starts);
                }
            }
        }
        Ok(index)
    }
}

/// The one validation of a raw trajectory payload, run by every tier
/// before a batch is logged or applied: edge ids must fit the network (an
/// out-of-range id would panic deep in the append — per-edge forests, FM
/// alphabet) and each entry sequence must form a valid [`Trajectory`].
/// Ids are assigned densely from `from`; validation never depends on it.
pub fn prepare_batch(
    from: u32,
    num_edges: usize,
    trajectories: &[(UserId, Vec<TrajEntry>)],
) -> Result<Vec<Trajectory>, StoreError> {
    trajectories
        .iter()
        .enumerate()
        .map(|(i, (user, entries))| {
            if let Some(bad) = entries.iter().find(|e| e.edge.index() >= num_edges) {
                return Err(StoreError::corrupt(format!(
                    "wal trajectory {i}: edge {} out of range for {num_edges} edges",
                    bad.edge.0
                )));
            }
            Trajectory::new(TrajId(from + i as u32), *user, entries.clone())
                .map_err(|e| StoreError::corrupt(format!("wal trajectory {i}: {e}")))
        })
        .collect()
}

/// The one trajectory-payload wire form every WAL record flavor and the
/// snapshot's `HOT` section share: a count, then per trajectory a user id
/// and the `(e, t, TT)` entry sequence.
pub(crate) fn put_trajectories<'a>(
    w: &mut ByteWriter,
    trajectories: impl ExactSizeIterator<Item = (UserId, &'a [TrajEntry])>,
) {
    w.put_len(trajectories.len());
    for (user, entries) in trajectories {
        user.persist(w);
        w.put_seq(entries);
    }
}

/// Reads what [`put_trajectories`] wrote.
pub(crate) fn get_trajectories(
    r: &mut ByteReader<'_>,
) -> Result<Vec<(UserId, Vec<TrajEntry>)>, StoreError> {
    let n = r.get_len(1)?;
    let mut trajectories = Vec::with_capacity(n);
    for _ in 0..n {
        trajectories.push((UserId::restore(r)?, r.get_seq()?));
    }
    Ok(trajectories)
}

/// One write-ahead-log record: the trajectories a single append added,
/// stamped with the trajectory count the index had *before* the batch.
///
/// The stamp makes replay idempotent: a snapshot taken after the batch
/// has `num_trajectories() > base`, so the record is skipped; a record
/// with `base` *beyond* the index state reveals a missing predecessor
/// ([`StoreError::WalGap`]).
#[derive(Clone, Debug, PartialEq)]
pub struct WalBatch {
    /// `num_trajectories()` of the index the batch was appended to.
    pub base: u64,
    /// The appended trajectories, in id order.
    pub trajectories: Vec<(UserId, Vec<TrajEntry>)>,
}

impl WalBatch {
    /// Writes the record logging `batch` appended at trajectory count
    /// `base` — the bytes [`Persist::persist`] writes for the same batch,
    /// straight from the prepared trajectories.
    pub fn encode(base: u64, batch: &[Trajectory], w: &mut ByteWriter) {
        w.put_u64(base);
        put_trajectories(w, batch.iter().map(|t| (t.user(), t.entries())));
    }
}

/// Wire form: base stamp (u64), then the shared trajectory payload.
impl Persist for WalBatch {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_u64(self.base);
        put_trajectories(w, self.trajectories.iter().map(|(u, e)| (*u, e.as_slice())));
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        Ok(WalBatch {
            base: r.get_u64()?,
            trajectories: get_trajectories(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Spq, TimeInterval};
    use tthr_network::examples::{example_network, EDGE_A, EDGE_B, EDGE_E};
    use tthr_network::Path;
    use tthr_trajectory::examples::example_trajectories;

    fn build(config: SntConfig) -> SntIndex {
        SntIndex::build(&example_network(), &example_trajectories(), config)
    }

    fn workload() -> Vec<Spq> {
        vec![
            Spq::new(
                Path::new(vec![EDGE_A, EDGE_B, EDGE_E]),
                TimeInterval::fixed(0, 15),
            )
            .with_beta(2),
            Spq::new(Path::new(vec![EDGE_A, EDGE_B]), TimeInterval::fixed(0, 15)),
            Spq::new(Path::new(vec![EDGE_E]), TimeInterval::periodic(0, 900)).with_beta(3),
        ]
    }

    /// Validate, then seal — what WAL replay does with a record's payload.
    fn replay(index: &mut SntIndex, raw: &[(UserId, Vec<TrajEntry>)]) -> Result<usize, StoreError> {
        let from = index.num_trajectories() as u32;
        Ok(index.ingest(prepare_batch(from, index.num_edges(), raw)?, true))
    }

    fn assert_equivalent(a: &SntIndex, b: &SntIndex) {
        assert_eq!(a.num_partitions(), b.num_partitions());
        assert_eq!(a.num_trajectories(), b.num_trajectories());
        assert_eq!(a.data_min(), b.data_min());
        assert_eq!(a.data_max(), b.data_max());
        for spq in workload() {
            let x = a.get_travel_times(&spq);
            let y = b.get_travel_times(&spq);
            // Byte-identical: compare the raw bit patterns in scan order.
            let xb: Vec<u64> = x.values.iter().map(|v| v.to_bits()).collect();
            let yb: Vec<u64> = y.values.iter().map(|v| v.to_bits()).collect();
            assert_eq!(xb, yb, "{spq:?}");
            assert_eq!(x.fallback, y.fallback);
        }
    }

    #[test]
    fn snapshot_round_trip_all_configs() {
        for tree in [TreeKind::Css, TreeKind::BPlus] {
            for wavelet in [WaveletKind::Huffman, WaveletKind::Matrix] {
                for tod_bucket_secs in [None, Some(600)] {
                    let config = SntConfig {
                        tree,
                        wavelet,
                        partition_days: Some(1),
                        tod_bucket_secs,
                    };
                    let index = build(config);
                    let bytes = index.to_snapshot_bytes();
                    let restored = SntIndex::from_snapshot_bytes(&bytes).unwrap();
                    assert_equivalent(&index, &restored);
                    assert_eq!(restored.config.tree, tree);
                    assert_eq!(restored.tod_bucket_secs(), tod_bucket_secs);
                }
            }
        }
    }

    #[test]
    fn snapshot_of_empty_index_round_trips() {
        let index = SntIndex::build(
            &example_network(),
            &tthr_trajectory::TrajectorySet::new(),
            SntConfig::default(),
        );
        let bytes = index.to_snapshot_bytes();
        let restored = SntIndex::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(restored.num_trajectories(), 0);
        assert_eq!(restored.num_partitions(), 1);
    }

    #[test]
    fn restored_index_accepts_appends() {
        let index = build(SntConfig::default());
        let mut restored = SntIndex::from_snapshot_bytes(&index.to_snapshot_bytes()).unwrap();
        let appended = replay(
            &mut restored,
            &[(
                UserId(7),
                vec![
                    TrajEntry::new(EDGE_A, 100, 3.0),
                    TrajEntry::new(EDGE_B, 103, 4.0),
                ],
            )],
        )
        .unwrap();
        assert_eq!(appended, 1);
        assert_eq!(restored.num_trajectories(), 5);
        assert_eq!(restored.num_partitions(), 2);
        assert_eq!(restored.user_of(4), UserId(7));
        let spq = Spq::new(
            Path::new(vec![EDGE_A, EDGE_B]),
            TimeInterval::fixed(0, 1000),
        );
        assert_eq!(restored.get_travel_times(&spq).len(), 4);
    }

    #[test]
    fn invalid_wal_trajectories_are_typed_errors() {
        let mut index = build(SntConfig::default());
        // Empty entry list violates the trajectory invariant.
        let result = replay(&mut index, &[(UserId(0), vec![])]);
        assert!(matches!(result, Err(StoreError::Corrupt { .. })));
        // An edge id past the network's range would panic deep inside the
        // append (per-edge forests, FM alphabet); it must be typed too.
        let result = replay(
            &mut index,
            &[(
                UserId(0),
                vec![TrajEntry::new(tthr_network::EdgeId(9999), 0, 1.0)],
            )],
        );
        assert!(matches!(result, Err(StoreError::Corrupt { .. })));
        // The failed batches must not have touched the index.
        assert_eq!(index.num_trajectories(), 4);
        assert_eq!(index.num_partitions(), 1);
    }

    #[test]
    fn mismatched_sections_are_rejected() {
        // Swap the users section between two indexes of different sizes:
        // every section passes its CRC, but the cross-validation fails.
        let small = build(SntConfig::default());
        let mut set = example_trajectories();
        set.push(UserId(3), vec![TrajEntry::new(EDGE_A, 50, 3.0)])
            .unwrap();
        let big = SntIndex::build(&example_network(), &set, SntConfig::default());

        let small_bytes = small.to_snapshot_bytes();
        let big_bytes = big.to_snapshot_bytes();
        let big_archive = SnapshotArchive::from_bytes(&big_bytes).unwrap();
        let mut users = big_archive.section(SECTION_USERS).unwrap();
        let stolen = users.get_bytes(users.remaining()).unwrap().to_vec();

        let small_archive = SnapshotArchive::from_bytes(&small_bytes).unwrap();
        let mut rebuilt = SnapshotBuilder::new();
        for &id in &[
            SECTION_META,
            SECTION_FMINDEX,
            SECTION_FOREST,
            SECTION_TOD,
            SECTION_ESTIMATES,
        ] {
            let mut r = small_archive.section(id).unwrap();
            rebuilt.add_section(id, r.get_bytes(r.remaining()).unwrap().to_vec());
        }
        rebuilt.add_section(SECTION_USERS, stolen);
        let result = SntIndex::from_snapshot_bytes(&rebuilt.into_bytes());
        assert!(matches!(result, Err(StoreError::Corrupt { .. })));
    }

    #[test]
    fn wal_batch_round_trip() {
        let set = example_trajectories();
        let delta: Vec<Trajectory> = set.iter().skip(2).cloned().collect();
        let batch = WalBatch {
            base: 2,
            trajectories: delta
                .iter()
                .map(|t| (t.user(), t.entries().to_vec()))
                .collect(),
        };
        assert_eq!(batch.trajectories.len(), 2);
        let mut w = ByteWriter::new();
        batch.persist(&mut w);
        let bytes = w.into_bytes();
        // The borrowed encoder writes the same record.
        let mut direct = ByteWriter::new();
        WalBatch::encode(2, &delta, &mut direct);
        assert_eq!(direct.into_bytes(), bytes);
        let mut r = ByteReader::new(&bytes);
        let restored = WalBatch::restore(&mut r).unwrap();
        r.expect_exhausted("wal batch").unwrap();
        assert_eq!(restored, batch);
    }
}
