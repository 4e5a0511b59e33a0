//! Length-prefixed framing for fan-out/fan-in payloads.
//!
//! Parallel branches and Map stages need to pass *lists* of byte payloads
//! between black-box functions. The wire format is:
//!
//! ```text
//! [count: u32 le] ([len: u32 le] [bytes])*
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::ops::Range;

use bytes::{BufMut, Bytes};
use taureau_core::wire::Reader;

/// Pack a list of payloads into one framed buffer. This is the fan-in
/// point of the data plane and it *copies*: the branches' refcounted
/// outputs are glued into one contiguous buffer so a black-box function
/// can consume the list as a single payload. (The reverse direction —
/// [`unpack_bytes`] — is zero-copy.)
pub fn pack<T: AsRef<[u8]>>(items: &[T]) -> Vec<u8> {
    let total: usize = 4 + items.iter().map(|i| 4 + i.as_ref().len()).sum::<usize>();
    let mut out = Vec::with_capacity(total);
    out.put_u32_le(items.len() as u32);
    for item in items {
        let item = item.as_ref();
        out.put_u32_le(item.len() as u32);
        out.put_slice(item);
    }
    out
}

/// Unpack a framed buffer; `None` if malformed.
pub fn unpack(bytes: &[u8]) -> Option<Vec<Vec<u8>>> {
    walk(bytes, |range| bytes[range].to_vec())
}

/// Unpack a framed buffer into refcounted views of it — zero-copy: each
/// item shares the input's storage. `None` if malformed.
pub fn unpack_bytes(bytes: &Bytes) -> Option<Vec<Bytes>> {
    walk(bytes, |range| bytes.slice(range))
}

/// The one decoder behind both unpackers: walk the frame, turning each
/// item's byte range into an output item. `None` for a frame that is cut
/// short, claims an item past its end, or has trailing bytes. The claimed
/// count sizes the output only up to 1 024 items, so a hostile count
/// cannot reserve memory the buffer does not back.
fn walk<T>(bytes: &[u8], mut item: impl FnMut(Range<usize>) -> T) -> Option<Vec<T>> {
    let mut r = Reader::new(bytes);
    let count = r.u32()? as usize;
    let mut items = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let (len, at) = (r.u32()? as usize, bytes.len() - r.remaining());
        r.bytes(len)?;
        items.push(item(at..at + len));
    }
    (r.remaining() == 0).then_some(items)
}

#[cfg(test)]
mod tests {
    use proptest::collection::vec;
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn roundtrip() {
        let items = vec![b"one".to_vec(), Vec::new(), vec![0u8; 1000]];
        assert_eq!(unpack(&pack(&items)), Some(items));
        assert_eq!(unpack(&pack::<Vec<u8>>(&[])), Some(Vec::new()));
    }

    #[test]
    fn unpack_bytes_is_zero_copy() {
        let items = vec![b"alpha".to_vec(), b"beta".to_vec()];
        let framed = Bytes::from(pack(&items));
        let views = unpack_bytes(&framed).unwrap();
        assert_eq!(views.len(), 2);
        for (v, want) in views.iter().zip(&items) {
            assert_eq!(&v[..], &want[..]);
            let base = framed.as_ref().as_ptr() as usize;
            let vp = v.as_ref().as_ptr() as usize;
            assert!(vp >= base && vp < base + framed.len(), "item copied");
        }
        assert_eq!(unpack_bytes(&Bytes::new()), None);
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert_eq!(unpack(b""), None);
        assert_eq!(unpack(b"abc"), None);
        // Claims one item but has no length header.
        assert_eq!(unpack(&1u32.to_le_bytes()), None);
        // Claims a longer item than present.
        let mut bad = pack(&[b"x".to_vec()]);
        bad[4] = 200;
        assert_eq!(unpack(&bad), None);
        // Trailing garbage.
        let mut trailing = pack(&[b"x".to_vec()]);
        trailing.push(0);
        assert_eq!(unpack(&trailing), None);
    }

    proptest! {
        /// Arbitrary bytes — raw, and packed frames cut short and with a
        /// byte flipped — never panic either unpacker, and the two agree
        /// item for item. An untouched frame unpacks to what was packed;
        /// what is accepted lies inside the buffer and accounts for every
        /// byte of it.
        #[test]
        fn hostile_frames_unpack_alike_and_stay_inside_the_buffer(
            raw in vec(any::<u8>(), 0..64),
            items in vec(vec(any::<u8>(), 0..9), 0..6),
            packed in any::<bool>(),
            cut in 0usize..96,
            flip in (0usize..96, any::<u8>()),
        ) {
            let formed = pack(&items);
            if packed {
                prop_assert_eq!(unpack(&formed), Some(items.clone()));
            }
            let mut bytes = if packed { formed } else { raw };
            bytes.truncate(cut);
            if let Some(b) = bytes.get_mut(flip.0) {
                *b ^= flip.1;
            }
            let shared = Bytes::from(bytes.clone());
            let (owned, views) = (unpack(&bytes), unpack_bytes(&shared));
            let views_read = views.as_ref().map(|v| v.iter().map(|b| b.to_vec()).collect());
            prop_assert_eq!(&owned, &views_read);
            if let Some(views) = views {
                let buf = shared.as_ptr_range();
                for v in views.iter().filter(|v| !v.is_empty()) {
                    let at = v.as_ptr_range();
                    prop_assert!(buf.start <= at.start && at.end <= buf.end);
                }
                let framed = 4 + views.iter().map(|v| 4 + v.len()).sum::<usize>();
                prop_assert_eq!(framed, bytes.len());
            }
        }
    }
}
