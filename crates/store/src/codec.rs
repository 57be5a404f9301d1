//! Little-endian byte-level encoding primitives.
//!
//! All multi-byte integers are little-endian; `f64` travels as the raw
//! bits of [`f64::to_bits`] so floating-point round-trips are bit-exact
//! (NaN payloads included). See the crate docs for the full wire grammar.

use crate::error::StoreError;
use crate::Persist;

/// An append-only byte buffer with typed `put_*` methods.
#[derive(Default, Debug)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the accumulated bytes.
    #[inline]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends raw bytes verbatim.
    #[inline]
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u8`.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    #[inline]
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as the little-endian bytes of its bit pattern.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `usize` as a `u64` (the wire form is width-independent).
    #[inline]
    pub fn put_len(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a length-prefixed sequence of [`Persist`] values.
    #[inline]
    pub fn put_seq<T: Persist>(&mut self, items: &[T]) {
        self.put_len(items.len());
        for item in items {
            item.persist(self);
        }
    }
}

/// A bounds-checked cursor over a byte slice with typed `get_*` methods.
///
/// Every read is validated against the remaining input and fails with
/// [`StoreError::Truncated`] instead of panicking.
#[derive(Clone, Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over the whole slice.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Whether every byte has been consumed.
    #[inline]
    pub(crate) fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes the next `n` raw bytes.
    #[inline]
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Truncated {
                context: "raw bytes",
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    #[inline]
    fn take<const N: usize>(&mut self, context: &'static str) -> Result<[u8; N], StoreError> {
        if self.remaining() < N {
            return Err(StoreError::Truncated { context });
        }
        let mut out = [0u8; N];
        out.copy_from_slice(&self.bytes[self.pos..self.pos + N]);
        self.pos += N;
        Ok(out)
    }

    /// Reads a `u8`.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take::<1>("u8")?[0])
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn get_u16(&mut self) -> Result<u16, StoreError> {
        Ok(u16::from_le_bytes(self.take("u16")?))
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take("u32")?))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take("u64")?))
    }

    /// Reads a little-endian `i64`.
    #[inline]
    pub fn get_i64(&mut self) -> Result<i64, StoreError> {
        Ok(i64::from_le_bytes(self.take("i64")?))
    }

    /// Reads an `f64` from its bit pattern.
    #[inline]
    pub fn get_f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a sequence length, validating it against the bytes actually
    /// remaining (`min_item_size` per element) so corrupt counts cannot
    /// trigger huge allocations.
    #[inline]
    pub fn get_len(&mut self, min_item_size: usize) -> Result<usize, StoreError> {
        let n = self.get_u64()?;
        let n: usize = n
            .try_into()
            .map_err(|_| StoreError::corrupt("sequence length exceeds address space"))?;
        if n.checked_mul(min_item_size.max(1))
            .map(|need| need > self.remaining())
            .unwrap_or(true)
        {
            return Err(StoreError::Truncated {
                context: "length-prefixed sequence",
            });
        }
        Ok(n)
    }

    /// Reads a length-prefixed sequence of [`Persist`] values.
    #[inline]
    pub fn get_seq<T: Persist>(&mut self) -> Result<Vec<T>, StoreError> {
        // Every wire form is at least one byte, which bounds the
        // allocation by the remaining input.
        let n = self.get_len(1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::restore(self)?);
        }
        Ok(out)
    }

    /// Fails unless every input byte was consumed — catches payloads with
    /// trailing garbage (a symptom of mismatched format expectations).
    #[inline]
    pub fn expect_exhausted(&self, context: &'static str) -> Result<(), StoreError> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(StoreError::corrupt(format!(
                "{context}: {} trailing bytes",
                self.remaining()
            )))
        }
    }
}

macro_rules! persist_prim {
    ($ty:ty, $put:ident, $get:ident) => {
        impl Persist for $ty {
            #[inline]
            fn persist(&self, w: &mut ByteWriter) {
                w.$put(*self);
            }
            #[inline]
            fn restore(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
                r.$get()
            }
        }
    };
}

persist_prim!(u8, put_u8, get_u8);
persist_prim!(u16, put_u16, get_u16);
persist_prim!(u32, put_u32, get_u32);
persist_prim!(u64, put_u64, get_u64);
persist_prim!(i64, put_i64, get_i64);
persist_prim!(f64, put_f64, get_f64);

impl Persist for bool {
    #[inline]
    fn persist(&self, w: &mut ByteWriter) {
        w.put_u8(*self as u8);
    }
    #[inline]
    fn restore(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(StoreError::corrupt(format!("bool byte {other}"))),
        }
    }
}

impl<T: Persist> Persist for Option<T> {
    fn persist(&self, w: &mut ByteWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.persist(w);
            }
        }
    }
    fn restore(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::restore(r)?)),
            other => Err(StoreError::corrupt(format!("Option tag {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u16(65_000);
        w.put_u32(1 << 30);
        w.put_u64(u64::MAX - 3);
        w.put_i64(-42);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 65_000);
        assert_eq!(r.get_u32().unwrap(), 1 << 30);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_i64().unwrap(), -42);
        // Bit-exact float round-trips, -0.0 and NaN included.
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.get_f64().unwrap().is_nan());
        assert!(r.is_exhausted());
        r.expect_exhausted("test").unwrap();
    }

    #[test]
    fn truncated_reads_are_typed_errors() {
        let bytes = [1u8, 2, 3];
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.get_u64(), Err(StoreError::Truncated { .. })));
        // The failed read consumed nothing.
        assert_eq!(r.remaining(), 3);
    }

    #[test]
    fn sequences_round_trip_and_reject_absurd_lengths() {
        let mut w = ByteWriter::new();
        w.put_seq(&[3u32, 1, 4, 1, 5]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_seq::<u32>().unwrap(), vec![3, 1, 4, 1, 5]);

        // A corrupt length larger than the remaining input must fail
        // before allocating.
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_seq::<u8>().is_err());
    }

    #[test]
    fn options_and_bools() {
        let mut w = ByteWriter::new();
        Some(9u32).persist(&mut w);
        Option::<u32>::None.persist(&mut w);
        true.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(Option::<u32>::restore(&mut r).unwrap(), Some(9));
        assert_eq!(Option::<u32>::restore(&mut r).unwrap(), None);
        assert!(bool::restore(&mut r).unwrap());

        let mut r = ByteReader::new(&[2u8]);
        assert!(matches!(
            Option::<u32>::restore(&mut r),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let bytes = [0u8; 3];
        let mut r = ByteReader::new(&bytes);
        let _ = r.get_u8().unwrap();
        assert!(matches!(
            r.expect_exhausted("payload"),
            Err(StoreError::Corrupt { .. })
        ));
    }

    proptest::proptest! {
        #[test]
        fn arbitrary_f64_bits_round_trip(bits in 0u64..u64::MAX) {
            let mut w = ByteWriter::new();
            w.put_f64(f64::from_bits(bits));
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            proptest::prop_assert_eq!(r.get_f64().unwrap().to_bits(), bits);
        }
    }
}
