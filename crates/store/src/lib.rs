//! Persistent storage substrate: a versioned, checksummed binary snapshot
//! container and an append-only write-ahead log (WAL).
//!
//! The SNT-index is expensive to build (suffix arrays, wavelet trees,
//! temporal forests over millions of traversals) but consists entirely of
//! flat, immutable-after-build structures — exactly the shape that
//! serializes well. This crate provides the format layer that lets a
//! service restart skip the rebuild: every index component implements
//! [`Persist`], components are packed into CRC-guarded *sections* of a
//! [`snapshot`] container, and update batches appended after the snapshot
//! are made durable through the [`wal`] module.
//!
//! This crate knows nothing about trajectories or indexes; it only moves
//! bytes. The index layers (`tthr-fmindex`, `tthr-temporal`,
//! `tthr-histogram`, `tthr-core`) implement [`Persist`] for their types,
//! and `tthr-service` wires snapshot + WAL into `QueryService::open` /
//! `QueryService::save_snapshot`.
//!
//! The complete on-disk layout is specified below; `docs/storage-format.md`
//! in the repository mirrors this specification for review outside rustdoc.
//!
//! # On-disk format, version 1
//!
//! All integers are **little-endian**. Floating-point values are stored as
//! the little-endian bytes of their IEEE-754 bit pattern
//! ([`f64::to_bits`]), so round-trips are bit-exact. There is no alignment
//! or padding anywhere; offsets are byte offsets from the start of the
//! file.
//!
//! ## Snapshot container (`snapshot.tthr`)
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------
//!      0     8  magic  = b"TTHRSNAP"
//!      8     4  format version (u32) = 1
//!     12     4  section count N (u32)
//!     16  24·N  section table, N entries of 24 bytes each:
//!               +0  4  section id (u32)
//!               +4  8  payload offset (u64, from file start)
//!              +12  8  payload length (u64, bytes)
//!              +20  4  CRC-32 of the payload (u32)
//!  16+24N     …  section payloads, in table order, no padding
//! ```
//!
//! * The magic rejects foreign files ([`StoreError::BadMagic`]); the
//!   version gates incompatible layout changes
//!   ([`StoreError::UnsupportedVersion`]).
//! * Every section payload is independently protected by a CRC-32
//!   (ISO-HDLC, polynomial `0xEDB88320`, the zlib/PNG variant — see
//!   [`crc32`]). A mismatch yields [`StoreError::ChecksumMismatch`]
//!   naming the section.
//! * A file shorter than its own section table claims is
//!   [`StoreError::Truncated`]; readers never index past the buffer.
//! * Unknown section ids are *ignored* by readers (forward compatibility:
//!   a newer writer may add sections); missing required sections yield
//!   [`StoreError::MissingSection`].
//!
//! Section ids and their payload layouts are owned by the layer that
//! writes them (`tthr-core` for the SNT-index; see
//! `tthr_core::SntIndex::to_snapshot_bytes`). Payloads are sequences of
//! [`Persist`]-encoded values; the primitive wire forms are:
//!
//! ```text
//! u8/u16/u32/u64/i64      little-endian, fixed width
//! f64                     u64 of to_bits()
//! bool                    u8, 0 or 1 (other values are Corrupt)
//! Option<T>               u8 tag (0 = None, 1 = Some) then T
//! sequence of T           u64 count, then each T in order
//! ```
//!
//! ## Write-ahead log (`wal.tthr`)
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------
//!      0     8  magic  = b"TTHRWAL1"
//!      8     4  format version (u32) = 1
//!     12     …  records, back to back:
//!               +0  4  payload length L (u32)
//!               +4  4  CRC-32 of the payload (u32)
//!               +8  L  payload bytes
//! ```
//!
//! A crash can tear the **tail** of the log (a partially flushed record).
//! `wal::read_wal` therefore stops at the first incomplete or
//! CRC-mismatching record, reports everything before it as intact, and
//! returns the byte offset the log should be truncated to before further
//! appends ([`wal::WalRecovery`]). Records are opaque bytes at this layer;
//! `tthr-core` defines the batch payload (`WalBatch`).
//!
//! # Example: a snapshot container round-trip
//!
//! ```
//! use tthr_store::snapshot::{SectionId, SnapshotArchive, SnapshotBuilder};
//! use tthr_store::{ByteWriter, StoreError};
//!
//! const GREETING: SectionId = SectionId(7);
//!
//! let mut builder = SnapshotBuilder::new();
//! let mut w = ByteWriter::new();
//! w.put_u32(1234);
//! builder.add_section(GREETING, w.into_bytes());
//! let bytes = builder.into_bytes();
//!
//! let archive = SnapshotArchive::from_bytes(&bytes)?;
//! let mut r = archive.section(GREETING)?;
//! assert_eq!(r.get_u32()?, 1234);
//! // A flipped payload bit is caught by the section CRC.
//! let mut corrupt = bytes.clone();
//! *corrupt.last_mut().unwrap() ^= 1;
//! assert!(matches!(
//!     SnapshotArchive::from_bytes(&corrupt),
//!     Err(StoreError::ChecksumMismatch { .. })
//! ));
//! # Ok::<(), StoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod crc;
mod error;
mod rotate;
pub mod snapshot;
pub mod wal;

pub use codec::{ByteReader, ByteWriter};
pub use crc::crc32;
pub use error::StoreError;
pub use rotate::rotate;

/// A type with a stable binary wire form.
///
/// `restore(persist(x)) == x` up to derived (recomputed) acceleration
/// structures: implementations serialize the *logical* content and rebuild
/// rank directories, tree shapes, and totals deterministically, so a
/// restored index answers queries byte-identically to the original.
///
/// `restore` must never panic on malformed input; it returns
/// [`StoreError`] instead. Sections are CRC-guarded, so validation here is
/// a second line of defense (bounds and invariant checks), not full
/// adversarial hardening.
pub trait Persist: Sized {
    /// Appends the wire form of `self` to the writer.
    fn persist(&self, w: &mut ByteWriter);

    /// Reads one value back from the reader.
    fn restore(r: &mut ByteReader<'_>) -> Result<Self, StoreError>;
}
