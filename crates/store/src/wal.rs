//! The append-only write-ahead log (see the crate docs for the byte
//! layout): a fixed header followed by length- and CRC-prefixed records.
//!
//! Records are opaque byte payloads at this layer; `tthr-core` defines the
//! batch record the service logs. Reading tolerates a *torn tail* — the
//! partially written final record a crash can leave behind — by stopping
//! at the first incomplete or checksum-failing record and reporting the
//! offset the log should be truncated to before further appends.

use crate::crc::crc32;
use crate::error::StoreError;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

/// Magic bytes opening every WAL file.
pub(crate) const WAL_MAGIC: [u8; 8] = *b"TTHRWAL1";

/// Newest WAL format version this build reads and writes.
pub(crate) const WAL_VERSION: u32 = 1;

/// Header length in bytes (magic + version).
const HEADER_BYTES: u64 = 12;

/// The outcome of scanning a WAL file.
pub struct WalRecovery {
    /// Every intact record payload, in append order.
    pub records: Vec<Vec<u8>>,
    /// File offset just past the last intact record — the length the file
    /// must be truncated to before appending after a crash.
    pub(crate) valid_len: u64,
    /// Whether bytes past `valid_len` were discarded (torn tail).
    pub torn: bool,
}

/// Reads every intact record of a WAL file.
///
/// * A missing file is not an error: an empty recovery is returned (a
///   fresh service simply has no log yet).
/// * A bad magic or unsupported version is a typed error — that file is
///   not ours to truncate.
/// * A torn tail (incomplete length/CRC/payload, or a payload failing its
///   CRC) ends the scan; everything before it is returned and
///   [`WalRecovery::torn`] is set.
pub(crate) fn read_wal(path: &Path) -> Result<WalRecovery, StoreError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    if bytes.len() < HEADER_BYTES as usize {
        // No file yet, or a header torn mid-write: nothing recoverable,
        // rewrite from scratch.
        return Ok(WalRecovery {
            records: Vec::new(),
            valid_len: 0,
            torn: !bytes.is_empty(),
        });
    }
    if bytes[..8] != WAL_MAGIC {
        return Err(StoreError::BadMagic { kind: "wal" });
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != WAL_VERSION {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: WAL_VERSION,
        });
    }
    let mut records = Vec::new();
    let mut pos = HEADER_BYTES as usize;
    loop {
        if bytes.len() - pos < 8 {
            break; // no room for a record header: end (or torn tail)
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let stored_crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if bytes.len() - pos - 8 < len {
            break; // payload torn
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != stored_crc {
            break; // payload corrupted mid-flush
        }
        records.push(payload.to_vec());
        pos += 8 + len;
    }
    Ok(WalRecovery {
        torn: pos != bytes.len(),
        records,
        valid_len: pos as u64,
    })
}

/// An open WAL with append and sync.
pub struct WalWriter {
    file: File,
    /// Set when a failed append could not be rolled back: the tail may
    /// hold a torn frame, and writing past it would strand every later
    /// record behind the tear at recovery time. Further appends refuse.
    poisoned: bool,
}

impl WalWriter {
    /// Creates (or truncates) the log at `path`, writing a fresh header.
    pub fn create(path: &Path) -> Result<Self, StoreError> {
        let mut file = File::create(path)?;
        file.write_all(&WAL_MAGIC)?;
        file.write_all(&WAL_VERSION.to_le_bytes())?;
        file.sync_all()?;
        Ok(WalWriter {
            file,
            poisoned: false,
        })
    }

    /// Opens an existing log for appending, truncating a torn tail first.
    /// A missing file is created fresh. Returns the writer and the intact
    /// records found (the caller replays them).
    pub fn open(path: &Path) -> Result<(Self, WalRecovery), StoreError> {
        let recovery = read_wal(path)?;
        if recovery.valid_len == 0 {
            let writer = Self::create(path)?;
            return Ok((writer, recovery));
        }
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(recovery.valid_len)?;
        let mut writer = WalWriter {
            file,
            poisoned: false,
        };
        // Position at the (possibly truncated) end for appends.
        writer.file.seek(SeekFrom::End(0))?;
        Ok((writer, recovery))
    }

    /// Appends one record (length, CRC, payload) with one write and one
    /// fsync — when this returns `Ok`, the record survives a crash. This
    /// is the only code that writes records: every WAL in the system
    /// (service, sharded service, shard node) appends through here.
    ///
    /// A failed write (e.g. a full disk) is rolled back by truncating the
    /// file to its pre-append length, so the log stays well-formed and no
    /// caller can observe a partially durable record through an `Ok`. If
    /// even the rollback fails, the writer poisons itself and every
    /// further append is an I/O error — the alternative would be fsynced
    /// records stranded behind a torn frame that recovery (rightly) stops
    /// at.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), StoreError> {
        if self.poisoned {
            return Err(StoreError::Io(std::io::Error::other(
                "wal writer poisoned by an earlier unrolled-back append failure",
            )));
        }
        let len: u32 = payload
            .len()
            .try_into()
            .map_err(|_| StoreError::corrupt("wal record over 4 GiB"))?;
        let mut framed = Vec::with_capacity(8 + payload.len());
        framed.extend_from_slice(&len.to_le_bytes());
        framed.extend_from_slice(&crc32(payload).to_le_bytes());
        framed.extend_from_slice(payload);
        let start = self.file.metadata()?.len();
        let result = self
            .file
            .write_all(&framed)
            .and_then(|()| self.file.sync_all());
        match result {
            Ok(()) => Ok(()),
            Err(e) => {
                if self.file.set_len(start).is_err() || self.file.seek(SeekFrom::End(0)).is_err() {
                    self.poisoned = true;
                }
                Err(e.into())
            }
        }
    }

    /// Test seam: puts the writer in the state an unrolled-back write
    /// failure leaves it in, so every later append errors out.
    #[doc(hidden)]
    pub fn poison(&mut self) {
        self.poisoned = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tthr-store-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&dir);
        dir
    }

    #[test]
    fn append_and_replay() {
        let path = temp_path("append");
        let mut w = WalWriter::create(&path).unwrap();
        w.append(b"first").unwrap();
        w.append(b"").unwrap();
        w.append(b"third record").unwrap();
        drop(w);
        let rec = read_wal(&path).unwrap();
        assert_eq!(
            rec.records,
            vec![b"first".to_vec(), Vec::new(), b"third record".to_vec()]
        );
        assert!(!rec.torn);
        std::fs::remove_file(&path).unwrap();
    }

    /// A writer that could not roll a failed append back refuses every
    /// later append with an I/O error — the log can no longer be made
    /// durable, which is the server's fault, not the caller's payload.
    #[test]
    fn poisoned_writer_refuses_appends_as_io_errors() {
        let path = temp_path("poisoned");
        let mut w = WalWriter::create(&path).unwrap();
        w.append(b"kept").unwrap();
        w.poison();
        assert!(matches!(w.append(b"refused"), Err(StoreError::Io(_))));
        drop(w);
        assert_eq!(read_wal(&path).unwrap().records, vec![b"kept".to_vec()]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_empty_recovery() {
        let rec = read_wal(&temp_path("missing")).unwrap();
        assert!(rec.records.is_empty());
        assert!(!rec.torn);
        assert_eq!(rec.valid_len, 0);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let path = temp_path("torn");
        let mut w = WalWriter::create(&path).unwrap();
        w.append(b"keep me").unwrap();
        drop(w);
        // Simulate a crash mid-append: half a record header.
        let mut bytes = std::fs::read(&path).unwrap();
        let intact = bytes.len() as u64;
        bytes.extend_from_slice(&[0xDE, 0xAD, 0xBE]);
        std::fs::write(&path, &bytes).unwrap();

        let (mut w, rec) = WalWriter::open(&path).unwrap();
        assert_eq!(rec.records, vec![b"keep me".to_vec()]);
        assert!(rec.torn);
        assert_eq!(rec.valid_len, intact);
        // Appending after recovery lands after the intact prefix.
        w.append(b"after crash").unwrap();
        drop(w);
        let rec = read_wal(&path).unwrap();
        assert_eq!(
            rec.records,
            vec![b"keep me".to_vec(), b"after crash".to_vec()]
        );
        assert!(!rec.torn);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_payload_stops_replay_at_the_flip() {
        let path = temp_path("flip");
        let mut w = WalWriter::create(&path).unwrap();
        w.append(b"alpha").unwrap();
        w.append(b"beta").unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0x01; // inside "beta"
        std::fs::write(&path, &bytes).unwrap();
        let rec = read_wal(&path).unwrap();
        assert_eq!(rec.records, vec![b"alpha".to_vec()]);
        assert!(rec.torn);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn foreign_files_are_rejected() {
        let path = temp_path("foreign");
        std::fs::write(&path, b"GIF89a, definitely not a wal").unwrap();
        assert!(matches!(
            read_wal(&path),
            Err(StoreError::BadMagic { kind: "wal" })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn future_version_is_rejected() {
        let path = temp_path("version");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WAL_MAGIC);
        bytes.extend_from_slice(&2u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_wal(&path),
            Err(StoreError::UnsupportedVersion { found: 2, .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
