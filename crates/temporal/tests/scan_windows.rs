//! Window-cursor oracle for the temporal trees.
//!
//! A periodic predicate is scanned as a sequence of ascending daily
//! windows with one cursor threaded through them
//! ([`TemporalIndex::scan_range_from`]). Whatever the cursor does, the
//! sequence must visit exactly the leaves, in the same order, that one
//! [`TemporalIndex::scan_range`] per window visits — on both tree kinds,
//! with duplicate keys, empty and touching windows, a random starting
//! cursor, and a callback that breaks mid-window. The CSS-tree's
//! column layout must also leave its disk record untouched: persist →
//! restore → persist writes the bytes of the plain 38-byte
//! [`LeafEntry`] sequence.
//!
//! Generation is seeded from each property's name; `TTHR_DIFF_SEED`
//! re-seeds it, which the nightly CI job does with a fresh value.

use proptest::{collection, Strategy, TestRng, CASES};
use std::ops::ControlFlow;
use tthr_store::{ByteReader, ByteWriter, Persist};
use tthr_temporal::{BPlusTree, CssTree, LeafEntry, TemporalIndex};

/// Runs `case` over [`CASES`] generated inputs.
fn cases(name: &str, mut case: impl FnMut(&mut TestRng)) {
    let seed = std::env::var("TTHR_DIFF_SEED").unwrap_or_default();
    let mut rng = TestRng::from_name(&format!("{name}-{seed}"));
    for _ in 0..CASES {
        case(&mut rng);
    }
}

/// Up to 600 time-sorted leaves over `[0, span)`; a short span makes
/// long runs of equal keys. Every leaf is distinct beyond its key, so a
/// visit sequence pins the tie order too.
fn leaves(rng: &mut TestRng, span: i64) -> Vec<LeafEntry> {
    let mut times = collection::vec(0..span, 0..600).sample(rng);
    times.sort_unstable();
    times
        .iter()
        .enumerate()
        .map(|(i, &time)| LeafEntry {
            time,
            aggregate: i as f64 * 0.5,
            travel_time: 1.0 + (i % 7) as f64,
            isa: (i * 31 % 97) as u32,
            traj: i as u32,
            seq: (i % 5) as u32,
            partition: (i % 3) as u16,
        })
        .collect()
}

/// Ascending, disjoint windows: one fixed window, or a periodic-shaped
/// run — a window of `len ≤ period` every `period`, the first starting
/// before the data. `len = 0` gives empty windows, `len = period`
/// windows that touch.
fn windows(rng: &mut TestRng, span: i64) -> Vec<(i64, i64)> {
    if (0u32..4).sample(rng) == 0 {
        let lo = (-100..span + 100).sample(rng);
        return vec![(lo, lo + (0..span + 1).sample(rng))];
    }
    let period = (1i64..400).sample(rng);
    let len = (0..period + 1).sample(rng);
    let mut lo = (0..period).sample(rng) - period;
    let mut out = Vec::new();
    while lo <= span {
        out.push((lo, lo + len));
        lo += period;
    }
    out
}

/// Scans `windows` in order, per window or with one cursor starting at
/// `from`; the callback breaks on the `stop`-th leaf it sees. Returns
/// the leaves seen and whether the sequence ended in a break.
fn visit(
    tree: &dyn TemporalIndex,
    windows: &[(i64, i64)],
    stop: usize,
    mut from: Option<usize>,
) -> (Vec<LeafEntry>, bool) {
    let mut seen = Vec::new();
    let mut f = |e: &LeafEntry| {
        seen.push(*e);
        if seen.len() == stop {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    };
    let mut broke = false;
    for &(lo, hi) in windows {
        let flow = match from.as_mut() {
            Some(from) => tree.scan_range_from(from, lo, hi, &mut f),
            None => tree.scan_range(lo, hi, &mut f),
        };
        if flow.is_break() {
            broke = true;
            break;
        }
    }
    (seen, broke)
}

#[test]
fn cursor_scans_visit_what_per_window_scans_visit() {
    let mut breaks = 0;
    cases("cursor_scans_visit_what_per_window_scans_visit", |rng| {
        let span = (1i64..2000).sample(rng);
        let leaves = leaves(rng, span);
        let windows = windows(rng, span);
        let in_windows: Vec<LeafEntry> = windows
            .iter()
            .flat_map(|&(lo, hi)| leaves.iter().filter(move |e| lo <= e.time && e.time < hi))
            .copied()
            .collect();
        let css = CssTree::from_sorted(leaves.clone());
        let bplus = BPlusTree::from_sorted(leaves.clone());
        for (label, tree) in [("css", &css as &dyn TemporalIndex), ("b+", &bplus)] {
            // Every leaf of every window, in window order.
            let (all, broke) = visit(tree, &windows, usize::MAX, None);
            assert_eq!(all, in_windows, "{label}: {windows:?}");
            assert!(!broke);
            // A break anywhere (or nowhere), from any starting cursor.
            let stop = (1..in_windows.len() + 2).sample(rng);
            let start = (0..leaves.len() + 3).sample(rng);
            let want = visit(tree, &windows, stop, None);
            for from in [0, start] {
                let got = visit(tree, &windows, stop, Some(from));
                assert_eq!(
                    got, want,
                    "{label}: stop {stop}, cursor {from}, {windows:?}"
                );
            }
            breaks += usize::from(want.1);
        }
    });
    assert!(
        breaks > CASES / 2,
        "only {breaks} sequences ended in a break"
    );
}

#[test]
fn css_round_trip_writes_the_leaf_records() {
    cases("css_round_trip_writes_the_leaf_records", |rng| {
        let span = (1i64..2000).sample(rng);
        let leaves = leaves(rng, span);
        // Grown, not only bulk-loaded: a random half merged into the
        // other (overlapping batch), then appends past the maximum.
        let (base, batch): (Vec<LeafEntry>, Vec<LeafEntry>) =
            leaves.iter().partition(|_| (0u32..2).sample(rng) == 0);
        let mut css = CssTree::from_sorted(base);
        css.extend_sorted(batch);
        for (k, leaf) in leaves.iter().take(20).enumerate() {
            css.append(LeafEntry {
                time: span + k as i64 / 3,
                ..*leaf
            });
        }

        let mut records = ByteWriter::new();
        records.put_seq(&css.iter().collect::<Vec<_>>());
        let records = records.into_bytes();
        let mut w = ByteWriter::new();
        css.persist(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes, records, "the column split leaks into the record");

        let mut r = ByteReader::new(&bytes);
        let restored = CssTree::restore(&mut r).unwrap();
        r.expect_exhausted("css tree").unwrap();
        let mut again = ByteWriter::new();
        restored.persist(&mut again);
        assert_eq!(again.into_bytes(), bytes);

        // The B+-tree writes the same record for the same leaves.
        let mut bplus = ByteWriter::new();
        BPlusTree::from_sorted(css.iter().collect()).persist(&mut bplus);
        assert_eq!(bplus.into_bytes(), bytes);
    });
}
