//! Shared offset-table framing.
//!
//! Both the ledger entry codec ([`crate::entry`]) and the cold-tier
//! segment codec ([`crate::tiering`]) frame N variable-length items the
//! same way: a table of `u32` *exclusive end offsets* (relative to the
//! start of the packed item bytes) followed by the items back to back.
//! Item `i` spans `ends[i-1]..ends[i]` (0 for the first), so random access
//! is O(1) once the table's position is known.
//!
//! [`OffsetTable`] is that knowledge, parsed and validated **once per
//! buffer**: it remembers where the table lives and how
//! many items there are, so every subsequent item access is two table
//! reads — no re-walk, no copy, no re-validation. This is the cached
//! index behind [`EntryView`](crate::message::EntryView), whose payloads
//! borrow the item range it returns.

use bytes::{BufMut, Bytes, BytesMut};
use taureau_core::wire::Reader;

/// Bytes the items occupy packed back to back — the last end offset —
/// or `None` when that passes what a `u32` offset can address. Callers
/// check this before sizing a buffer for the frame.
pub(crate) fn packed_len(mut lens: impl Iterator<Item = usize>) -> Option<u32> {
    lens.try_fold(0u32, |end, len| end.checked_add(u32::try_from(len).ok()?))
}

/// Append the end-offset table for the given item lengths.
///
/// The caller writes its own header (count, timestamp, flags) first,
/// calls this, then appends the item bytes back to back. `None` (with a
/// partial table left in `buf`) when an end offset would pass `u32::MAX`:
/// a wrapped table is one [`OffsetTable::parse`] refuses, after the
/// entry is already in a ledger.
pub(crate) fn put_ends(buf: &mut BytesMut, lens: impl Iterator<Item = usize>) -> Option<()> {
    let mut end = 0u32;
    for len in lens {
        end = end.checked_add(u32::try_from(len).ok()?)?;
        buf.put_u32_le(end);
    }
    Some(())
}

/// A parsed-and-validated offset table: the per-buffer cached index.
///
/// Construction ([`OffsetTable::parse`]) checks — once — that the table
/// fits in the buffer, that the offsets are monotone, and that the last
/// item ends inside the buffer. After that, [`OffsetTable::item_range`]
/// and [`OffsetTable::slice`] are infallible for in-range indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OffsetTable {
    /// Number of items framed.
    count: u32,
    /// Byte offset of the end-offset table within the buffer.
    ends_at: usize,
}

impl OffsetTable {
    /// Parse the table of `count` end offsets starting at byte `ends_at`
    /// of `bytes`, validating bounds and monotonicity. Returns `None` for
    /// truncated or corrupt framing.
    pub(crate) fn parse(bytes: &[u8], count: u32, ends_at: usize) -> Option<Self> {
        let mut r = Reader::new(bytes);
        r.bytes(ends_at)?;
        let last = (0..count).try_fold(0, |last, _| r.u32().filter(|&end| end >= last))?;
        // The ends are monotone, so the last item inside the buffer is
        // every item inside it.
        r.bytes(last as usize)?;
        Some(Self { count, ends_at })
    }

    /// Number of items framed.
    pub(crate) fn count(&self) -> u32 {
        self.count
    }

    /// Byte offset of the end-offset table within the buffer.
    pub(crate) fn ends_at(&self) -> usize {
        self.ends_at
    }

    /// Byte offset of the packed item bytes, just past the table.
    #[inline]
    fn base(&self) -> usize {
        self.ends_at + 4 * self.count as usize
    }

    /// Exclusive end offset of item `i`, relative to the item base.
    #[inline]
    fn end(&self, bytes: &[u8], i: u32) -> usize {
        let at = self.ends_at + 4 * i as usize;
        u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize
    }

    /// Byte range of item `i` within the buffer (absolute offsets).
    #[inline]
    pub(crate) fn item_range(&self, bytes: &[u8], i: u32) -> (usize, usize) {
        debug_assert!(i < self.count, "item index out of range");
        let start = if i == 0 { 0 } else { self.end(bytes, i - 1) };
        let base = self.base();
        (base + start, base + self.end(bytes, i))
    }

    /// Item `i` as a refcount-only slice of the buffer: O(1), no copy,
    /// no allocation.
    #[inline]
    pub(crate) fn slice(&self, bytes: &Bytes, i: u32) -> Bytes {
        let (start, end) = self.item_range(bytes, i);
        bytes.slice(start..end)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn frame(items: &[&[u8]]) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u32_le(items.len() as u32);
        put_ends(&mut buf, items.iter().map(|i| i.len())).expect("small items");
        for i in items {
            buf.put_slice(i);
        }
        buf.freeze()
    }

    #[test]
    fn roundtrip_with_empty_items() {
        let items: [&[u8]; 4] = [b"alpha", b"", b"bc", b"final"];
        let bytes = frame(&items);
        let t = OffsetTable::parse(&bytes, items.len() as u32, 4).expect("valid");
        assert_eq!(t.count(), 4);
        for (i, item) in items.iter().enumerate() {
            assert_eq!(&t.slice(&bytes, i as u32)[..], *item);
        }
    }

    #[test]
    fn parse_rejects_truncation_and_corruption() {
        let items: [&[u8]; 2] = [b"aa", b"bbb"];
        let bytes = frame(&items);
        // Truncated table.
        assert!(OffsetTable::parse(&bytes[..8], 2, 4).is_none());
        // Last item claims bytes past the buffer.
        let mut corrupt = bytes.to_vec();
        corrupt[8..12].copy_from_slice(&100u32.to_le_bytes());
        assert!(OffsetTable::parse(&corrupt, 2, 4).is_none());
        // Non-monotone ends.
        let mut swapped = bytes.to_vec();
        swapped[4..8].copy_from_slice(&5u32.to_le_bytes());
        swapped[8..12].copy_from_slice(&2u32.to_le_bytes());
        assert!(OffsetTable::parse(&swapped, 2, 4).is_none());
        // Count overflowing the buffer.
        assert!(OffsetTable::parse(&bytes, u32::MAX, 4).is_none());
    }

    #[test]
    fn offsets_past_u32_are_refused_not_wrapped() {
        // Lengths only: nobody has to own 4 GiB to ask.
        let max = u32::MAX as usize;
        for lens in [vec![max, 1], vec![max + 1], vec![1 << 31, 1 << 31, 5]] {
            assert_eq!(packed_len(lens.iter().copied()), None, "{lens:?}");
            let mut buf = BytesMut::new();
            assert_eq!(put_ends(&mut buf, lens.iter().copied()), None, "{lens:?}");
        }
        let mut buf = BytesMut::new();
        assert_eq!(packed_len([max - 1, 1, 0].into_iter()), Some(u32::MAX));
        assert_eq!(put_ends(&mut buf, [max - 1, 1, 0].into_iter()), Some(()));
        assert_eq!(buf[8..], u32::MAX.to_le_bytes());
    }

    proptest! {
        /// Any buffer, any claimed count, any table position — including
        /// ones whose sum wraps — never panics, and a table that parses
        /// hands out only monotone ranges inside the buffer.
        #[test]
        fn hostile_tables_are_refused_or_stay_inside_the_buffer(
            bytes in proptest::collection::vec(any::<u8>(), 0..64),
            count in any::<u32>(),
            ends_at in any::<usize>(),
            shift in 0u32..64,
        ) {
            // Shifted down so small counts and in-buffer positions are as
            // likely as absurd ones.
            let (count, ends_at) = (count >> (shift % 32), ends_at >> shift);
            if let Some(t) = OffsetTable::parse(&bytes, count, ends_at) {
                let mut at = t.base();
                for i in 0..t.count() {
                    let (start, end) = t.item_range(&bytes, i);
                    prop_assert!(at == start && start <= end && end <= bytes.len());
                    at = end;
                }
            }
        }
    }

    #[test]
    fn zero_items_is_valid() {
        let bytes = frame(&[]);
        let t = OffsetTable::parse(&bytes, 0, 4).expect("valid");
        assert_eq!(t.count(), 0);
    }
}
