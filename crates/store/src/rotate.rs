//! Snapshot rotation: the one crash-safe way a store directory moves from
//! "old snapshot + a log of what happened since" to "new snapshot + empty
//! log". Every persistent tier — the service directory and each shard
//! node's — rotates through [`rotate`], so they share one ordering
//! argument and one crash battery.

use crate::error::StoreError;
use crate::wal::WalWriter;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Replaces `dir/snapshot_name` with what `write_snapshot` streams and
/// starts a fresh, empty `dir/wal_name`; returns the snapshot's size in
/// bytes and the open writer of the new log. `dir` is created if missing.
///
/// The sequence, and what a crash after each step leaves for the next
/// open:
///
/// 1. write `<snapshot_name>.tmp`, flush, fsync — the old snapshot and the
///    old log are untouched; the stray tmp file is ignored (**pre-state**);
/// 2. rename it over the snapshot, fsync the directory — the new snapshot
///    sits next to the full old log, whose records it already contains;
///    replay skips them all by base stamp (**post-state**). The directory
///    fsync comes *before* the log reset: if the truncation hit disk first
///    and power failed, a reboot would pair the OLD snapshot with a NEW
///    empty log — losing every batch the old log held;
/// 3. recreate the log (truncate + header), fsync the directory — a torn
///    header reads as an empty log (**post-state**).
///
/// The caller must keep appenders out for the duration: a record logged
/// between the snapshot capture and the log reset would be in neither.
pub fn rotate(
    dir: &Path,
    snapshot_name: &str,
    wal_name: &str,
    write_snapshot: impl FnOnce(&mut BufWriter<File>) -> Result<(), StoreError>,
) -> Result<(u64, WalWriter), StoreError> {
    std::fs::create_dir_all(dir)?;
    let tmp = dir.join(format!("{snapshot_name}.tmp"));
    let mut out = BufWriter::new(File::create(&tmp)?);
    write_snapshot(&mut out)?;
    out.flush()?;
    let file = out.get_ref();
    let bytes = file.metadata()?.len();
    file.sync_all()?;
    drop(out);
    std::fs::rename(&tmp, dir.join(snapshot_name))?;
    sync_dir(dir)?;
    let wal = WalWriter::create(&dir.join(wal_name))?;
    sync_dir(dir)?;
    Ok((bytes, wal))
}

/// Fsyncs a directory so renames and file creations inside it are
/// durable. Some platforms refuse to sync a directory handle; treat
/// "unsupported" as best-effort rather than failing the rotation.
fn sync_dir(dir: &Path) -> Result<(), StoreError> {
    match File::open(dir)?.sync_all() {
        Err(e) if e.kind() != std::io::ErrorKind::Unsupported => Err(e.into()),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::read_wal;

    const SNAP: &str = "state.snap";
    const WAL: &str = "state.wal";

    /// The toy store every tier's `open` reduces to: the snapshot is a
    /// list of values, a log record is `[stamp, value]`, and replay skips
    /// the records the snapshot already covers.
    fn open(dir: &Path) -> Vec<u8> {
        let mut state = std::fs::read(dir.join(SNAP)).unwrap();
        for record in read_wal(&dir.join(WAL)).unwrap().records {
            if record[0] as usize == state.len() {
                state.push(record[1]);
            }
        }
        state
    }

    /// A process killed at any point of a rotation — simulated by copying
    /// the directory there — reopens to the pre- or the post-state, which
    /// are the same logical state; a failed snapshot write changes nothing.
    #[test]
    fn a_crash_at_any_point_of_a_rotation_opens_to_the_same_state() {
        let root = std::env::temp_dir().join(format!("tthr-store-rotate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (dir, killed) = (root.join("live"), root.join("killed"));
        let kill = |file: &str| {
            std::fs::create_dir_all(&killed).unwrap();
            std::fs::copy(dir.join(file), killed.join(file)).unwrap();
        };
        let (_, mut wal) = rotate(&dir, SNAP, WAL, |out| Ok(out.write_all(&[7])?)).unwrap();
        wal.append(&[1, 8]).unwrap();
        wal.append(&[2, 9]).unwrap();
        let state = [7, 8, 9];
        assert_eq!(open(&dir), state);
        let failed = rotate(&dir, SNAP, WAL, |_| Err(StoreError::corrupt("gave up")));
        assert!(failed.is_err());
        assert_eq!(open(&dir), state, "old snapshot and log untouched");

        // Killed after the tmp write: old snapshot + full log (pre-state).
        let (bytes, mut wal) = rotate(&dir, SNAP, WAL, |out| {
            out.write_all(&state)?;
            out.flush()?;
            [SNAP, WAL, "state.snap.tmp"].into_iter().for_each(kill);
            Ok(())
        })
        .unwrap();
        assert_eq!(bytes, 3);
        assert_eq!(std::fs::read(killed.join(SNAP)).unwrap(), [7]);
        assert_eq!(open(&killed), state, "stray tmp ignored, log replayed");
        // Killed after the rename: the new snapshot next to the full old
        // log (rename and truncate are each atomic, so this pairing is the
        // only intermediate state) — or next to a log reset torn mid-header.
        kill(SNAP);
        assert_eq!(open(&killed), state, "stale records skip by stamp");
        std::fs::write(killed.join(WAL), b"TTHRW").unwrap();
        assert_eq!(open(&killed), state, "torn header reads as empty");
        // Not killed: new snapshot + empty log (post-state), no tmp left,
        // and the returned writer is the fresh log's.
        assert!(!dir.join("state.snap.tmp").exists());
        assert!(read_wal(&dir.join(WAL)).unwrap().records.is_empty());
        wal.append(&[3, 10]).unwrap();
        assert_eq!(open(&dir), [7, 8, 9, 10]);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
