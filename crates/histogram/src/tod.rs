//! Per-segment time-of-day histograms for selectivity estimation.

use tthr_store::{ByteReader, ByteWriter, Persist, StoreError};

/// Seconds in a day.
const DAY: i64 = 86_400;

/// A histogram of traversal counts over the time of day.
///
/// The accurate cardinality estimator modes (`BT-Acc`, `CSS-Acc`) replace
/// the uniform time-of-day assumption with
/// `sel = B(Hₑ, [ts, te)) / B(Hₑ, [0, 24h))` (paper, Section 4.4,
/// formula 2). One such histogram is kept per segment (and per temporal
/// partition when partitioning is enabled), which is exactly the memory
/// trade-off Figure 10b quantifies.
#[derive(Clone, Debug, PartialEq)]
pub struct TimeOfDayHistogram {
    bucket_secs: u32,
    counts: Vec<u32>,
    total: u64,
}

impl TimeOfDayHistogram {
    /// Creates an empty histogram with the given bucket width in seconds.
    ///
    /// # Panics
    /// Panics unless the bucket width is positive and divides 24 hours.
    pub fn new(bucket_secs: u32) -> Self {
        assert!(
            bucket_secs > 0 && DAY % bucket_secs as i64 == 0,
            "bucket width must divide 24 hours"
        );
        TimeOfDayHistogram {
            bucket_secs,
            counts: vec![0; (DAY / bucket_secs as i64) as usize],
            total: 0,
        }
    }

    /// Records a traversal at an absolute timestamp.
    pub fn add(&mut self, timestamp: i64) {
        let sod = timestamp.rem_euclid(DAY);
        self.counts[(sod / self.bucket_secs as i64) as usize] += 1;
        self.total += 1;
    }

    /// `B(H, [start, end))` over seconds-of-day, with midnight wrap-around
    /// when `start ≥ end` (a periodic interval like 23:50–00:20).
    pub(crate) fn count_range(&self, start_sod: i64, end_sod: i64) -> u64 {
        let start = start_sod.rem_euclid(DAY);
        // An end on a day boundary means "until midnight", not an empty
        // window — unless the window itself is zero-length.
        let mut end = end_sod.rem_euclid(DAY);
        if end == 0 && end_sod != start_sod {
            end = DAY;
        }
        if start < end {
            self.sum_buckets(start, end)
        } else if start == end {
            // A zero-length window counts nothing; full-day windows are
            // passed as [0, 86400).
            0
        } else {
            self.sum_buckets(start, DAY) + self.sum_buckets(0, end)
        }
    }

    /// Selectivity of a time-of-day window: `B(H, [s, e)) / B(H, [0, 24h))`.
    /// Returns 0 for an empty histogram.
    pub fn selectivity(&self, start_sod: i64, end_sod: i64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.count_range(start_sod, end_sod) as f64 / self.total as f64
    }

    /// Sums buckets whose lower edge lies in `[lo, hi)`, `0 ≤ lo ≤ hi ≤ DAY`.
    fn sum_buckets(&self, lo: i64, hi: i64) -> u64 {
        let w = self.bucket_secs as i64;
        let from = ((lo + w - 1) / w) as usize;
        let to = (((hi + w - 1) / w) as usize).min(self.counts.len());
        if from >= to {
            return 0;
        }
        self.counts[from..to].iter().map(|&c| c as u64).sum()
    }

    /// Heap size in bytes (Figure 10b accounting).
    pub fn size_bytes(&self) -> usize {
        self.counts.capacity() * std::mem::size_of::<u32>()
    }
}

/// Wire form: bucket width (`u32`) then the bucket counts; the total is a
/// sum and is recomputed on restore.
impl Persist for TimeOfDayHistogram {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_u32(self.bucket_secs);
        w.put_seq(&self.counts);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        let bucket_secs = r.get_u32()?;
        if bucket_secs == 0 || DAY % bucket_secs as i64 != 0 {
            return Err(StoreError::corrupt(format!(
                "tod bucket width {bucket_secs} does not divide 24 hours"
            )));
        }
        let counts: Vec<u32> = r.get_seq()?;
        if counts.len() as i64 != DAY / bucket_secs as i64 {
            return Err(StoreError::corrupt(format!(
                "tod histogram has {} buckets for width {bucket_secs}",
                counts.len()
            )));
        }
        let total = counts.iter().map(|&c| c as u64).sum();
        Ok(TimeOfDayHistogram {
            bucket_secs,
            counts,
            total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_by_time_of_day() {
        let mut h = TimeOfDayHistogram::new(3600); // hourly buckets
        h.add(8 * 3600 + 100); // 08:01
        h.add(8 * 3600 + 200);
        h.add(17 * 3600); // 17:00
        h.add(DAY + 8 * 3600); // next day, 08:00
        assert_eq!(h.total, 4);
        assert_eq!(h.count_range(8 * 3600, 9 * 3600), 3);
        assert_eq!(h.count_range(17 * 3600, 18 * 3600), 1);
        assert_eq!(h.count_range(0, DAY), 4);
    }

    #[test]
    fn midnight_wraparound() {
        let mut h = TimeOfDayHistogram::new(600);
        h.add(23 * 3600 + 55 * 60); // 23:55
        h.add(10 * 60); // 00:10
        h.add(12 * 3600); // noon
                          // Window 23:50 → 00:20 catches the two boundary traversals.
        assert_eq!(h.count_range(23 * 3600 + 50 * 60, 20 * 60), 2);
        assert!((h.selectivity(23 * 3600 + 50 * 60, 20 * 60) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn selectivity_of_empty_histogram_is_zero() {
        let h = TimeOfDayHistogram::new(900);
        assert_eq!(h.selectivity(0, 3600), 0.0);
    }

    #[test]
    fn negative_timestamps_wrap() {
        let mut h = TimeOfDayHistogram::new(3600);
        h.add(-3600); // 23:00 the day before epoch
        assert_eq!(h.count_range(23 * 3600, DAY), 1);
    }

    #[test]
    #[should_panic(expected = "divide 24 hours")]
    fn bucket_width_must_divide_day() {
        let _ = TimeOfDayHistogram::new(7);
    }

    #[test]
    fn size_scales_with_bucket_width() {
        // Figure 10b: smaller buckets = more memory.
        let fine = TimeOfDayHistogram::new(60);
        let coarse = TimeOfDayHistogram::new(600);
        assert!(fine.size_bytes() > coarse.size_bytes());
        assert_eq!(fine.size_bytes(), 1440 * 4);
    }

    #[test]
    fn persist_round_trip_recomputes_total() {
        let mut h = TimeOfDayHistogram::new(600);
        for t in [0i64, 3600, 3600, DAY - 1, 2 * DAY + 12 * 3600] {
            h.add(t);
        }
        let mut w = tthr_store::ByteWriter::new();
        h.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = tthr_store::ByteReader::new(&bytes);
        let restored = TimeOfDayHistogram::restore(&mut r).unwrap();
        r.expect_exhausted("tod histogram").unwrap();
        assert_eq!(restored, h);
        assert_eq!(restored.total, 5);
    }

    #[test]
    fn persist_rejects_bad_bucket_width() {
        let mut w = tthr_store::ByteWriter::new();
        w.put_u32(7); // does not divide 86 400
        w.put_seq::<u32>(&[]);
        let bytes = w.into_bytes();
        let result = TimeOfDayHistogram::restore(&mut tthr_store::ByteReader::new(&bytes));
        assert!(matches!(
            result,
            Err(tthr_store::StoreError::Corrupt { .. })
        ));
    }

    proptest::proptest! {
        #[test]
        fn count_range_matches_reference(
            times in proptest::collection::vec(0i64..(3 * DAY), 0..200),
            windows in proptest::collection::vec((0i64..DAY, 0i64..DAY), 1..10),
        ) {
            let w = 600u32;
            let mut h = TimeOfDayHistogram::new(w);
            for &t in &times {
                h.add(t);
            }
            for (s, e) in windows {
                // Reference: count timestamps whose bucket's lower edge lies
                // in the (possibly wrapped) window.
                let bucket_edge = |t: i64| (t.rem_euclid(DAY) / w as i64) * w as i64;
                let ceil_edge = |t: i64| ((t + w as i64 - 1) / w as i64) * w as i64;
                let in_window = |edge: i64| if s < e {
                    // Buckets fully identified by lower edge; the window is
                    // rounded up to bucket boundaries on both sides.
                    edge >= ceil_edge(s) && edge < ceil_edge(e)
                } else if s == e {
                    false
                } else {
                    edge >= ceil_edge(s) || edge < ceil_edge(e)
                };
                let want = times.iter().filter(|&&t| in_window(bucket_edge(t))).count() as u64;
                proptest::prop_assert_eq!(h.count_range(s, e), want, "window [{}, {})", s, e);
            }
        }
    }
}
