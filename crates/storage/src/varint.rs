//! LEB128 variable-length integers (unsigned) with zigzag for signed,
//! plus the length-prefixed strings and lists built on them: the
//! writers append to a `Vec<u8>`, the readers are methods of
//! [`Reader`].

use crate::error::{Result, StorageError};
use crate::reader::Reader;

/// Append an unsigned varint.
pub fn put_u64(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = v.to_le_bytes()[0] & 0x7f;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Append an in-memory length or count. Lossless on every supported
/// target (usize ≤ 64 bits); spelled as `try_from` rather than `as` so
/// the codec stays free of silently-truncating casts (`xtask lint`
/// enforces this).
pub fn put_len(buf: &mut Vec<u8>, n: usize) {
    put_u64(buf, u64::try_from(n).unwrap_or(u64::MAX));
}

/// Zigzag-encode a signed varint.
pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    put_u64(buf, ((v << 1) ^ (v >> 63)).cast_unsigned());
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_len(buf, s.len());
    buf.extend_from_slice(s.as_bytes());
}

impl Reader<'_> {
    /// Read an unsigned varint.
    #[inline]
    pub fn var_u64(&mut self) -> Result<u64> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 64 {
                return Err(StorageError::Corrupt("varint overflows u64".into()));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Read a varint that must fit in `u32` (node ids, invocation ids,
    /// execution numbers). A wider value is corruption, not something
    /// to wrap.
    #[inline]
    pub fn var_u32(&mut self) -> Result<u32> {
        let raw = self.var_u64()?;
        u32::try_from(raw)
            .map_err(|_| StorageError::Corrupt(format!("value {raw} overflows 32-bit field")))
    }

    /// Read a zigzag-encoded signed varint.
    pub fn var_i64(&mut self) -> Result<i64> {
        let z = self.var_u64()?;
        Ok((z >> 1).cast_signed() ^ -(z & 1).cast_signed())
    }

    /// Read a count that prefixes `count` encoded elements, each at
    /// least one byte long. A declared count larger than the remaining
    /// input can only come from corruption — rejecting it here caps
    /// what a `Vec::with_capacity` sized from it can allocate.
    #[inline]
    pub fn count(&mut self) -> Result<usize> {
        let n = self.var_u64()?;
        match usize::try_from(n) {
            Ok(n) if n <= self.remaining() => Ok(n),
            _ => Err(StorageError::Corrupt(format!(
                "declared count {n} exceeds {} remaining bytes",
                self.remaining()
            ))),
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let len = self.count()?;
        let bytes = self.bytes(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| StorageError::Corrupt("invalid UTF-8".into()))
    }

    /// Read a count, then that many elements with `item`, each at least
    /// `min_width` bytes long. The reservation is capped at what the
    /// remaining input can hold, so a corrupt count sizes nothing larger
    /// than the bytes themselves and a valid list never reallocates.
    pub fn list<T>(
        &mut self,
        min_width: usize,
        mut item: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        let n = self.count()?;
        let mut out = Vec::with_capacity(n.min(self.remaining() / min_width.max(1)));
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn u64_round_trip_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            let mut b = Vec::new();
            put_u64(&mut b, v);
            assert_eq!(Reader::new(&b).var_u64().unwrap(), v);
        }
    }

    #[test]
    fn i64_round_trip_boundaries() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -64, 63] {
            let mut b = Vec::new();
            put_i64(&mut b, v);
            assert_eq!(Reader::new(&b).var_i64().unwrap(), v);
        }
    }

    #[test]
    fn truncated_varint_is_error() {
        let mut b = Vec::new();
        put_u64(&mut b, u64::MAX);
        assert!(Reader::new(&b[..b.len() - 1]).var_u64().is_err());
    }

    #[test]
    fn string_round_trip() {
        let mut b = Vec::new();
        put_str(&mut b, "héllo ⊗ wörld");
        assert_eq!(Reader::new(&b).str().unwrap(), "héllo ⊗ wörld");
    }

    #[test]
    fn truncated_string_is_error() {
        let mut b = Vec::new();
        put_str(&mut b, "abcdef");
        assert!(Reader::new(&b[..3]).str().is_err());
    }

    proptest! {
        #[test]
        fn u64_round_trip(v: u64) {
            let mut b = Vec::new();
            put_u64(&mut b, v);
            prop_assert_eq!(Reader::new(&b).var_u64().unwrap(), v);
        }

        #[test]
        fn i64_round_trip(v: i64) {
            let mut b = Vec::new();
            put_i64(&mut b, v);
            prop_assert_eq!(Reader::new(&b).var_i64().unwrap(), v);
        }
    }
}
