//! The one byte reader of every binary format in the workspace: ledger
//! entries, cold-tier segments, RPC bodies, fan-in frames, DAG
//! checkpoints, telemetry and metadata values are little-endian integers
//! and length-prefixed byte runs, written through [`bytes::BufMut`] (and
//! [`put_str`]) and read through [`Reader`]. Every read is bounds-checked
//! and `None` past the end, so a decoder built on it cannot panic or read
//! outside its input.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use bytes::BufMut;

/// Borrowing cursor over a byte buffer: an accepted read moves it on and
/// borrows what it returns from the buffer; a refused read moves nothing.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, at: 0 }
    }

    /// Read all of `buf` with `read`: `None` unless it accepts the bytes
    /// and consumes every one (a fixed-width value of the wrong length).
    #[inline]
    pub fn read_all<T>(buf: &'a [u8], read: impl FnOnce(&mut Self) -> Option<T>) -> Option<T> {
        let mut r = Self::new(buf);
        let value = read(&mut r)?;
        (r.remaining() == 0).then_some(value)
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    /// The next `len` bytes. They start `input.len() - remaining()` into
    /// the input, for a caller that slices a refcounted copy of it.
    #[inline]
    pub fn bytes(&mut self, len: usize) -> Option<&'a [u8]> {
        if len > self.remaining() {
            return None;
        }
        let start = self.at;
        self.at += len;
        self.buf.get(start..self.at)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.bytes(N)?.try_into().ok()
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Option<u8> {
        self.array().map(u8::from_le_bytes)
    }

    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Option<u16> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// A `u16`-length-prefixed UTF-8 string, as [`put_str`] writes it.
    /// Refused whole: a string cut short or not UTF-8 consumes nothing.
    #[inline]
    pub fn str(&mut self) -> Option<&'a str> {
        let mut r = self.clone();
        let len = r.u16()? as usize;
        let s = std::str::from_utf8(r.bytes(len)?).ok()?;
        *self = r;
        Some(s)
    }
}

/// Append `s` behind its `u16` length. A string past 65 535 bytes is cut
/// at the last character boundary at or below that, so what is written
/// is always UTF-8 that [`Reader::str`] accepts.
#[inline]
pub fn put_str(out: &mut impl BufMut, s: &str) {
    let len = s.floor_char_boundary(u16::MAX as usize);
    out.put_u16_le(len as u16);
    out.put_slice(&s.as_bytes()[..len]);
}

#[cfg(test)]
mod tests {
    use proptest::collection::vec;
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn reads_what_bufmut_writes() {
        let mut out = Vec::new();
        out.put_u8(7);
        out.put_u16_le(0xBEEF);
        out.put_u32_le(0xDEAD_BEEF);
        out.put_u64_le(u64::MAX - 1);
        put_str(&mut out, "näme");
        out.put_slice(b"tail");
        let mut r = Reader::new(&out);
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.u16(), Some(0xBEEF));
        assert_eq!(r.u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.u64(), Some(u64::MAX - 1));
        assert_eq!(r.str(), Some("näme"));
        assert_eq!(r.remaining(), 4);
        assert_eq!(r.bytes(4), Some(&b"tail"[..]));
        assert_eq!(
            (r.u8(), r.bytes(0), r.remaining()),
            (None, Some(&[][..]), 0)
        );
    }

    #[test]
    fn read_all_refuses_a_short_or_a_long_value() {
        let u32_of = |b: &[u8]| Reader::read_all(b, Reader::u32);
        assert_eq!(u32_of(&5u32.to_le_bytes()), Some(5));
        assert_eq!(u32_of(&[5, 0, 0]), None);
        assert_eq!(u32_of(&[5, 0, 0, 0, 0]), None);
        assert_eq!(u32_of(&[]), None);
    }

    #[test]
    fn a_long_string_is_cut_at_a_char_boundary() {
        for (s, kept) in [
            ("é".repeat(35_000), 32_767 * 2),
            ("n".repeat(70_000), 65_535),
            ("ab".to_string(), 2),
        ] {
            let mut out = Vec::new();
            put_str(&mut out, &s);
            assert_eq!(out.len(), 2 + kept);
            let mut r = Reader::new(&out);
            assert_eq!(r.str(), Some(&s[..kept]));
            assert_eq!(r.remaining(), 0);
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Bytes(usize),
        U8,
        U16,
        U32,
        U64,
        Str,
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..6, 0usize..24).prop_map(|(kind, len)| match kind {
            0 => Op::Bytes(len),
            1 => Op::U8,
            2 => Op::U16,
            3 => Op::U32,
            4 => Op::U64,
            _ => Op::Str,
        })
    }

    proptest! {
        /// Any sequence of reads over any bytes: nothing panics, an
        /// accepted read takes exactly the bytes at the cursor (its width,
        /// or a string's prefix and body), a refused read is one the bytes
        /// left cannot back and moves nothing, and consumed plus remaining
        /// is always the input.
        #[test]
        fn hostile_reads_stay_inside_the_buffer(
            buf in vec(any::<u8>(), 0..48),
            ops in vec(op(), 0..24),
        ) {
            let (mut r, mut consumed) = (Reader::new(&buf), 0);
            for op in ops {
                let (at, left) = (consumed, r.remaining());
                let want = |w: usize| buf.get(at..at + w);
                let took = match op {
                    Op::Bytes(n) => r.bytes(n).map(|b| {
                        assert_eq!(Some(b), want(n));
                        n
                    }),
                    Op::U8 => r.u8().map(|v| {
                        assert_eq!(Some(&[v][..]), want(1));
                        1
                    }),
                    Op::U16 => r.u16().map(|v| {
                        assert_eq!(Some(&v.to_le_bytes()[..]), want(2));
                        2
                    }),
                    Op::U32 => r.u32().map(|v| {
                        assert_eq!(Some(&v.to_le_bytes()[..]), want(4));
                        4
                    }),
                    Op::U64 => r.u64().map(|v| {
                        assert_eq!(Some(&v.to_le_bytes()[..]), want(8));
                        8
                    }),
                    Op::Str => r.str().map(|s| {
                        assert_eq!(Some(s.as_bytes()), buf.get(at + 2..at + 2 + s.len()));
                        2 + s.len()
                    }),
                };
                match took {
                    Some(n) => consumed += n,
                    None => {
                        let width = match op {
                            Op::Bytes(n) => n,
                            Op::U8 => 1,
                            Op::U16 | Op::Str => 2,
                            Op::U32 => 4,
                            Op::U64 => 8,
                        };
                        // Only a string may be refused with its prefix in
                        // reach: for its body, or for bytes that are not UTF-8.
                        prop_assert!(width > left || matches!(op, Op::Str));
                    }
                }
                prop_assert_eq!(consumed + r.remaining(), buf.len());
            }
        }
    }
}
