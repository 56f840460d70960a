//! The byte codec under every binary format: little-endian fixed-width
//! integers, `f64` as IEEE-754 bits, varints, UTF-8 strings behind a
//! `u32` or a varint length, and byte strings behind a varint length. Writers are free `put_*`
//! functions on a `Vec<u8>` (varints are [`write_varint`]); every format
//! reads through one bounded [`Reader`].
//!
//! Every read is bounds-checked. A failure is an
//! [`io::ErrorKind::InvalidData`] error naming the field and the offset,
//! which each caller's error type maps to its own "corrupt" variant; the
//! message is built only on failure. An element count read from the bytes
//! passes [`Reader::count`] before it sizes an allocation, so a hostile
//! count cannot reserve more than the input could hold.

use std::io;

use crate::varint::{read_varint, write_varint};

/// Append `v` as 2 little-endian bytes.
#[inline]
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append `v` as 4 little-endian bytes.
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append `v` as 8 little-endian bytes.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append `v`'s IEEE-754 bits as 8 little-endian bytes.
#[inline]
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Append `s` behind a `u32` length.
#[inline]
pub fn put_str_u32(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Append `bytes` behind a varint length.
#[inline]
pub fn put_bytes_varint(buf: &mut Vec<u8>, bytes: &[u8]) {
    write_varint(buf, bytes.len() as u64);
    buf.extend_from_slice(bytes);
}

/// Append `s` behind a varint length.
#[inline]
pub fn put_str_varint(buf: &mut Vec<u8>, s: &str) {
    put_bytes_varint(buf, s.as_bytes());
}

/// An [`io::ErrorKind::InvalidData`] error: bytes that do not decode.
#[cold]
pub fn invalid_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// A bounds-checked cursor over a byte slice. `what` names the field
/// being read, for the error.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize, what: &'static str) -> io::Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(invalid_data(format!(
                "truncated {what}: need {n} bytes at offset {}, {} left",
                self.pos,
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    #[inline]
    fn array<const N: usize>(&mut self, what: &'static str) -> io::Result<[u8; N]> {
        Ok(self.take(N, what)?.try_into().expect("N bytes"))
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, what: &'static str) -> io::Result<u8> {
        Ok(self.array::<1>(what)?[0])
    }

    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self, what: &'static str) -> io::Result<u16> {
        Ok(u16::from_le_bytes(self.array(what)?))
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, what: &'static str) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, what: &'static str) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    /// An `f64` from its little-endian IEEE-754 bits.
    #[inline]
    pub fn f64(&mut self, what: &'static str) -> io::Result<f64> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// A canonical varint ([`read_varint`]).
    #[inline]
    pub fn varint(&mut self, what: &'static str) -> io::Result<u64> {
        let at = self.pos;
        read_varint(self.buf, &mut self.pos)
            .ok_or_else(|| invalid_data(format!("bad or truncated varint {what} at offset {at}")))
    }

    /// A strict boolean byte: 0 or 1, anything else is an error.
    #[inline]
    pub fn flag(&mut self, what: &'static str) -> io::Result<bool> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(invalid_data(format!(
                "{what} flag is {b} at offset {}",
                self.pos - 1
            ))),
        }
    }

    /// Bytes behind a varint length.
    #[inline]
    pub fn bytes_varint(&mut self, what: &'static str) -> io::Result<&'a [u8]> {
        let n = self.varint(what)?;
        self.take(usize::try_from(n).unwrap_or(usize::MAX), what)
    }

    /// A UTF-8 string behind a `u32` length.
    #[inline]
    pub fn str_u32(&mut self, what: &'static str) -> io::Result<&'a str> {
        let at = self.pos;
        let n = self.u32(what)?;
        utf8(self.take(n as usize, what)?, what, at)
    }

    /// A UTF-8 string behind a varint length.
    #[inline]
    pub fn str_varint(&mut self, what: &'static str) -> io::Result<&'a str> {
        let at = self.pos;
        utf8(self.bytes_varint(what)?, what, at)
    }

    /// Bound an element count `n`, already read, by the bytes left: each
    /// element takes at least `min_elem_len` bytes (0 counts as 1). The
    /// result never exceeds `remaining() / min_elem_len`, so it may size
    /// an allocation.
    #[inline]
    pub fn count(&self, n: u64, min_elem_len: usize, what: &'static str) -> io::Result<usize> {
        let left = self.remaining();
        match usize::try_from(n) {
            Ok(n) if n.saturating_mul(min_elem_len.max(1)) <= left => Ok(n),
            _ => Err(invalid_data(format!(
                "{what} count {n} cannot fit in the {left} bytes left at offset {}",
                self.pos
            ))),
        }
    }

    /// Succeed only if every byte was consumed.
    #[inline]
    pub fn finish(&self) -> io::Result<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(invalid_data(format!(
                "{n} trailing bytes at offset {}",
                self.pos
            ))),
        }
    }
}

#[inline]
fn utf8<'a>(bytes: &'a [u8], what: &'static str, at: usize) -> io::Result<&'a str> {
    std::str::from_utf8(bytes)
        .map_err(|_| invalid_data(format!("{what} at offset {at} is not valid UTF-8")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint("v").unwrap(), v);
            r.finish().unwrap();
        }
    }

    #[test]
    fn bytes_and_strings_round_trip() {
        let mut buf = Vec::new();
        put_str_varint(&mut buf, "hello");
        put_bytes_varint(&mut buf, &[1, 2, 3]);
        put_str_u32(&mut buf, "wälz");
        put_str_u32(&mut buf, "");
        put_u16(&mut buf, 0x0102);
        put_u32(&mut buf, 0x0304_0506);
        put_u64(&mut buf, u64::MAX);
        put_f64(&mut buf, -0.5);
        buf.extend_from_slice(&[1, 0]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.str_varint("s").unwrap(), "hello");
        assert_eq!(r.bytes_varint("b").unwrap(), [1, 2, 3]);
        assert_eq!(r.str_u32("s").unwrap(), "wälz");
        assert_eq!(r.str_u32("s").unwrap(), "");
        assert_eq!(r.u16("u16").unwrap(), 0x0102);
        assert_eq!(r.u32("u32").unwrap(), 0x0304_0506);
        assert_eq!(r.u64("u64").unwrap(), u64::MAX);
        assert_eq!(r.f64("f64").unwrap(), -0.5);
        assert!(r.flag("t").unwrap());
        assert!(!r.flag("f").unwrap());
        assert_eq!(r.pos(), buf.len());
        r.finish().unwrap();
    }

    #[test]
    fn truncated_reads_fail() {
        let mut buf = Vec::new();
        put_str_varint(&mut buf, "hello");
        buf.pop();
        let err = Reader::new(&buf).str_varint("greeting").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            err.to_string(),
            "truncated greeting: need 5 bytes at offset 1, 4 left"
        );
        assert!(Reader::new(&[1, 2, 3]).u32("n").is_err());
        assert!(Reader::new(&[0x80]).varint("n").is_err());
    }

    #[test]
    fn invalid_utf8_string_fails() {
        let mut buf = Vec::new();
        put_bytes_varint(&mut buf, &[0xff, 0xfe]);
        let err = Reader::new(&buf).str_varint("name").unwrap_err();
        assert_eq!(err.to_string(), "name at offset 0 is not valid UTF-8");
    }

    #[test]
    fn flags_are_strict_and_trailing_bytes_refused() {
        let err = Reader::new(&[2]).flag("stem").unwrap_err();
        assert_eq!(err.to_string(), "stem flag is 2 at offset 0");
        let mut r = Reader::new(&[7, 8]);
        r.u8("tag").unwrap();
        assert_eq!(
            r.finish().unwrap_err().to_string(),
            "1 trailing bytes at offset 1"
        );
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_left() {
        let r = Reader::new(&[0; 16]);
        assert_eq!(r.count(2, 8, "pairs").unwrap(), 2);
        assert!(r.count(3, 8, "pairs").is_err());
        assert_eq!(r.count(16, 0, "bytes").unwrap(), 16);
        assert!(r.count(u64::MAX, 1, "bytes").is_err());
        assert_eq!(
            r.count(1 << 40, 16, "entries").unwrap_err().to_string(),
            "entries count 1099511627776 cannot fit in the 16 bytes left at offset 0"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any sequence of reads over arbitrary bytes returns or errs,
        /// never panics, and never moves past the end; `count` never
        /// admits more elements than the bytes left could hold.
        #[test]
        fn reader_never_panics_and_counts_stay_bounded(
            bytes in prop::collection::vec(any::<u8>(), 0..48),
            ops in prop::collection::vec(0u8..12, 0..24),
            n in any::<u64>(),
            min_elem_len in 0usize..24,
        ) {
            let mut r = Reader::new(&bytes);
            for op in ops {
                let _ = match op {
                    0 => r.u8("x").map(drop),
                    1 => r.u16("x").map(drop),
                    2 => r.u32("x").map(drop),
                    3 => r.u64("x").map(drop),
                    4 => r.f64("x").map(drop),
                    5 => r.varint("x").map(drop),
                    6 => r.flag("x").map(drop),
                    7 => r.bytes_varint("x").map(drop),
                    8 => r.str_u32("x").map(drop),
                    9 => r.str_varint("x").map(drop),
                    10 => r.take(usize::from(op), "x").map(drop),
                    _ => r.finish(),
                };
                prop_assert!(r.pos() <= bytes.len());
                let left = r.remaining();
                if let Ok(c) = r.count(n, min_elem_len, "x") {
                    prop_assert!(c <= left / min_elem_len.max(1));
                }
            }
        }
    }
}
