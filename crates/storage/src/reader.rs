//! [`Reader`]: the one way storage decodes bytes. Every read is
//! fallible — running off the end is a [`StorageError::Corrupt`], never
//! a panic — so a decoder built from these reads is total by
//! construction. The varint, count, string and list readers live beside
//! the LEB128 writers in [`crate::varint`]. The primitives are
//! `#[inline]` and build their error in a `#[cold]` helper, so record
//! faults, footer parses and full loads pay a bounds check per read.

use crate::error::{Result, StorageError};

/// A read cursor over borrowed bytes.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    #[inline]
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    /// Bytes left to read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// The next `n` bytes, borrowed.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        let Some((head, rest)) = self.buf.split_at_checked(n) else {
            return Err(truncated(n, self.buf.len()));
        };
        self.buf = rest;
        Ok(head)
    }

    /// The next `N` bytes, copied.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let Some((head, rest)) = self.buf.split_first_chunk::<N>() else {
            return Err(truncated(N, self.buf.len()));
        };
        self.buf = rest;
        Ok(*head)
    }

    /// The bytes left, not consumed.
    #[inline]
    pub(crate) fn rest(&self) -> &'a [u8] {
        self.buf
    }

    /// The next byte if there is one and `take` accepts it; otherwise
    /// `None`, and nothing is consumed.
    #[inline]
    pub(crate) fn u8_if(&mut self, take: impl FnOnce(u8) -> bool) -> Option<u8> {
        match self.buf.split_first() {
            Some((&byte, rest)) if take(byte) => {
                self.buf = rest;
                Some(byte)
            }
            _ => None,
        }
    }

    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        let Some((&byte, rest)) = self.buf.split_first() else {
            return Err(truncated(1, 0));
        };
        self.buf = rest;
        Ok(byte)
    }

    #[inline]
    pub fn u32_le(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    #[inline]
    pub fn u64_le(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Fail unless every byte was read: trailing bytes inside a framed
    /// structure are corruption, named by `what`.
    pub fn finish(&self, what: &str) -> Result<()> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(StorageError::Corrupt(format!(
                "{} trailing bytes inside {what}",
                self.remaining()
            )))
        }
    }
}

#[cold]
#[inline(never)]
pub(crate) fn truncated(wanted: usize, left: usize) -> StorageError {
    StorageError::Corrupt(format!(
        "truncated input: {wanted} bytes wanted, {left} left"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_advance_in_order() {
        let data = [7u8, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, b'x', b'y'];
        let mut r = Reader::new(&data);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32_le().unwrap(), 1);
        assert_eq!(r.u64_le().unwrap(), 2);
        assert_eq!(r.remaining(), 2);
        assert!(r.finish("frame").is_err(), "two bytes left");
        assert_eq!(r.bytes(2).unwrap(), b"xy");
        r.finish("frame").unwrap();
        assert_eq!(r.bytes(0).unwrap(), b"");
    }

    #[test]
    fn overreads_are_errors_not_panics() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert!(r.u32_le().is_err());
        assert!(r.array::<8>().is_err());
        assert!(r.bytes(4).is_err());
        assert_eq!(r.remaining(), 3, "a failed read consumes nothing");
        assert_eq!(r.bytes(3).unwrap(), [1, 2, 3]);
        assert!(r.u8().is_err());
    }
}
