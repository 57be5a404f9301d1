//! The sectioned snapshot container (see the crate docs for the byte
//! layout): magic, version, section table, per-section CRC-32.

use crate::codec::{ByteReader, ByteWriter};
use crate::crc::crc32;
use crate::error::StoreError;

/// Magic bytes opening every snapshot file.
pub(crate) const SNAPSHOT_MAGIC: [u8; 8] = *b"TTHRSNAP";

/// Newest container format version this build reads and writes.
pub(crate) const SNAPSHOT_VERSION: u32 = 1;

/// Bytes per section-table entry: id (4) + offset (8) + length (8) + CRC (4).
const TABLE_ENTRY_BYTES: usize = 24;

/// Identifier of one snapshot section.
///
/// Ids are owned by the layer writing the snapshot (`tthr-core` for the
/// SNT-index). Readers ignore unknown ids, so new sections can be added
/// without a version bump as long as existing payloads are unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SectionId(pub u32);

/// Accumulates sections and serializes the container.
#[derive(Default, Debug)]
pub struct SnapshotBuilder {
    sections: Vec<(SectionId, Vec<u8>)>,
}

impl SnapshotBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a section; order is preserved in the file.
    ///
    /// # Panics
    /// Panics if the id was already added — duplicate sections are a
    /// writer bug, not a recoverable condition.
    pub fn add_section(&mut self, id: SectionId, payload: Vec<u8>) {
        assert!(
            self.sections.iter().all(|(existing, _)| *existing != id),
            "duplicate snapshot section {id:?}"
        );
        self.sections.push((id, payload));
    }

    /// Streams the container — header, section table, payloads — into a
    /// writer without concatenating the payloads first; peak memory stays
    /// at one copy of the sections (snapshots are index-sized, so the
    /// avoided concat copy is substantial).
    pub fn write_to<W: std::io::Write>(&self, out: &mut W) -> Result<(), StoreError> {
        let mut header = ByteWriter::new();
        header.put_bytes(&SNAPSHOT_MAGIC);
        header.put_u32(SNAPSHOT_VERSION);
        header.put_u32(self.sections.len() as u32);
        let mut offset = (16 + self.sections.len() * TABLE_ENTRY_BYTES) as u64;
        for (id, payload) in &self.sections {
            header.put_u32(id.0);
            header.put_u64(offset);
            header.put_u64(payload.len() as u64);
            header.put_u32(crc32(payload));
            offset += payload.len() as u64;
        }
        out.write_all(&header.into_bytes())?;
        for (_, payload) in &self.sections {
            out.write_all(payload)?;
        }
        Ok(())
    }

    /// Serializes the container into one byte vector.
    pub fn into_bytes(self) -> Vec<u8> {
        let total: usize = 16
            + self.sections.len() * TABLE_ENTRY_BYTES
            + self.sections.iter().map(|(_, p)| p.len()).sum::<usize>();
        let mut out = Vec::with_capacity(total);
        self.write_to(&mut out)
            .expect("writing to a Vec cannot fail");
        out
    }
}

/// A parsed, checksum-verified snapshot container.
///
/// Construction validates the magic, the version, every table entry's
/// bounds, and every section's CRC — a corrupt file never produces an
/// archive.
pub struct SnapshotArchive<'a> {
    sections: Vec<(SectionId, &'a [u8])>,
}

impl<'a> SnapshotArchive<'a> {
    /// Parses and verifies a container.
    pub fn from_bytes(bytes: &'a [u8]) -> Result<Self, StoreError> {
        let mut r = ByteReader::new(bytes);
        let magic = r.get_bytes(8).map_err(|_| StoreError::Truncated {
            context: "snapshot header",
        })?;
        if magic != SNAPSHOT_MAGIC {
            return Err(StoreError::BadMagic { kind: "snapshot" });
        }
        let version = r.get_u32().map_err(|_| StoreError::Truncated {
            context: "snapshot header",
        })?;
        if version != SNAPSHOT_VERSION {
            return Err(StoreError::UnsupportedVersion {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        let count = r.get_u32().map_err(|_| StoreError::Truncated {
            context: "snapshot header",
        })? as usize;
        if count * TABLE_ENTRY_BYTES > r.remaining() {
            return Err(StoreError::Truncated {
                context: "snapshot section table",
            });
        }
        let mut sections = Vec::with_capacity(count);
        for _ in 0..count {
            let id = SectionId(r.get_u32()?);
            let offset = r.get_u64()? as usize;
            let len = r.get_u64()? as usize;
            let stored_crc = r.get_u32()?;
            let end = offset.checked_add(len).ok_or(StoreError::Truncated {
                context: "snapshot section bounds",
            })?;
            if end > bytes.len() {
                return Err(StoreError::Truncated {
                    context: "snapshot section payload",
                });
            }
            let payload = &bytes[offset..end];
            if crc32(payload) != stored_crc {
                return Err(StoreError::ChecksumMismatch {
                    context: format!("snapshot section {}", id.0),
                });
            }
            sections.push((id, payload));
        }
        Ok(SnapshotArchive { sections })
    }

    /// Number of sections in the container.
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// Whether the container has no sections.
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// A reader over a required section's payload.
    pub fn section(&self, id: SectionId) -> Result<ByteReader<'a>, StoreError> {
        self.sections
            .iter()
            .find(|(sid, _)| *sid == id)
            .map(|(_, payload)| ByteReader::new(payload))
            .ok_or(StoreError::MissingSection(id.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut b = SnapshotBuilder::new();
        b.add_section(SectionId(1), vec![1, 2, 3, 4]);
        b.add_section(SectionId(2), b"payload two".to_vec());
        b.add_section(SectionId(9), Vec::new());
        b.into_bytes()
    }

    #[test]
    fn round_trip() {
        let bytes = sample();
        let archive = SnapshotArchive::from_bytes(&bytes).unwrap();
        assert_eq!(archive.len(), 3);
        let mut r = archive.section(SectionId(2)).unwrap();
        assert_eq!(r.get_bytes(11).unwrap(), b"payload two");
        assert!(archive.section(SectionId(9)).unwrap().is_exhausted());
        assert!(matches!(
            archive.section(SectionId(42)),
            Err(StoreError::MissingSection(42))
        ));
    }

    #[test]
    fn bad_magic() {
        let mut bytes = sample();
        bytes[0] = b'X';
        assert!(matches!(
            SnapshotArchive::from_bytes(&bytes),
            Err(StoreError::BadMagic { kind: "snapshot" })
        ));
    }

    #[test]
    fn unsupported_version() {
        let mut bytes = sample();
        bytes[8] = 99; // little-endian version field
        assert!(matches!(
            SnapshotArchive::from_bytes(&bytes),
            Err(StoreError::UnsupportedVersion { found: 99, .. })
        ));
    }

    #[test]
    fn truncation_at_every_length_is_typed() {
        let bytes = sample();
        for len in 0..bytes.len() {
            match SnapshotArchive::from_bytes(&bytes[..len]) {
                Err(StoreError::Truncated { .. }) => {}
                Err(other) => panic!("truncated to {len}: unexpected {other}"),
                Ok(_) => panic!("truncated to {len}: accepted"),
            }
        }
        // The intact file parses.
        assert!(SnapshotArchive::from_bytes(&bytes).is_ok());
    }

    #[test]
    fn payload_bit_flip_fails_crc() {
        let mut bytes = sample();
        let n = bytes.len();
        bytes[n - 3] ^= 0x10; // inside section 2's payload
        assert!(matches!(
            SnapshotArchive::from_bytes(&bytes),
            Err(StoreError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "duplicate snapshot section")]
    fn duplicate_sections_panic() {
        let mut b = SnapshotBuilder::new();
        b.add_section(SectionId(1), vec![]);
        b.add_section(SectionId(1), vec![]);
    }
}
