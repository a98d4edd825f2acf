//! The bounded byte reader every stored and wire format decodes through.
//!
//! Record payloads, index nodes, heap pages, engine and application
//! metadata, optimizer statistics and protocol frames all read
//! length-prefixed bytes. Each read here checks its bounds (with overflow
//! checked arithmetic) before it slices, so a length, offset or count read
//! from damaged bytes becomes a [`DecodeError`] instead of an out-of-range
//! index. Integers are little-endian; the big-endian wire protocol reads
//! them as `u32::from_be_bytes(r.array()?)`. The success path allocates
//! nothing.

use std::fmt;

/// A read that does not fit the input: `wanted` bytes at `offset`, where
/// only `present` remain. [`ByteReader::finish`] reports leftover bytes the
/// same way, with `wanted == 0`. Each layer converts it into its own error
/// type through `From`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// Where the failing read started.
    pub offset: usize,
    /// Bytes the read needed.
    pub wanted: usize,
    /// Bytes the input had left at `offset`.
    pub present: usize,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.present < self.wanted {
            write!(
                f,
                "truncated: wanted {} bytes at offset {}, have {}",
                self.wanted, self.offset, self.present
            )
        } else {
            write!(f, "{} trailing bytes at offset {}", self.present, self.offset)
        }
    }
}

impl std::error::Error for DecodeError {}

/// For codecs whose error is a plain message.
impl From<DecodeError> for String {
    fn from(e: DecodeError) -> String {
        e.to_string()
    }
}

/// A cursor over a byte slice whose every read is bounds-checked.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Start reading at the front of `bytes`.
    pub fn new(bytes: &'a [u8]) -> ByteReader<'a> {
        ByteReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next byte, without consuming it.
    pub fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Consume the next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        match self.pos.checked_add(n).and_then(|end| self.bytes.get(self.pos..end)) {
            Some(out) => {
                self.pos += n;
                Ok(out)
            }
            None => Err(DecodeError { offset: self.pos, wanted: n, present: self.remaining() }),
        }
    }

    /// Consume the next `N` bytes as an array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Consume one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        self.array().map(|[b]| b)
    }

    /// Consume a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Consume a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Consume a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Succeed only if every byte was consumed.
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            present => Err(DecodeError { offset: self.pos, wanted: 0, present }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_little_endian_in_order() {
        let bytes = [7, 1, 0, 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0xAA, 0xBB];
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(1));
        assert_eq!(r.u32(), Ok(2));
        assert_eq!(r.u64(), Ok(3));
        assert_eq!(r.peek(), Some(0xAA));
        assert_eq!(r.array::<2>(), Ok([0xAA, 0xBB]));
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.peek(), None);
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn short_reads_report_offset_wanted_and_present() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.take(1), Ok(&[1u8][..]));
        let err = r.u32().unwrap_err();
        assert_eq!(err, DecodeError { offset: 1, wanted: 4, present: 2 });
        assert_eq!(err.to_string(), "truncated: wanted 4 bytes at offset 1, have 2");
        // A failed read consumes nothing.
        assert_eq!(r.remaining(), 2);
        assert_eq!(r.take(2), Ok(&[2u8, 3][..]));
    }

    #[test]
    fn huge_lengths_do_not_overflow() {
        let mut r = ByteReader::new(&[0; 4]);
        r.take(2).unwrap();
        assert_eq!(
            r.take(usize::MAX),
            Err(DecodeError { offset: 2, wanted: usize::MAX, present: 2 })
        );
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        r.u8().unwrap();
        let err = r.finish().unwrap_err();
        assert_eq!(err, DecodeError { offset: 1, wanted: 0, present: 2 });
        assert_eq!(err.to_string(), "2 trailing bytes at offset 1");
        assert_eq!(String::from(err), "2 trailing bytes at offset 1");
    }

    #[test]
    fn empty_input_and_zero_length_reads() {
        let mut r = ByteReader::new(&[]);
        assert_eq!(r.take(0), Ok(&[][..]));
        assert_eq!(r.array::<0>(), Ok([]));
        assert!(r.u8().is_err());
        assert_eq!(r.finish(), Ok(()));
    }
}
