//! Tiny length-prefixed framing for envelope bodies.
//!
//! Services exchange requests as a flat list of byte frames (`u32`
//! little-endian length before each frame). Decoding borrows: a frame is a
//! `&[u8]` inside the envelope body, and nothing is built to hold the list.
//! A receiver that keeps a frame (a consumed payload, the invoke payload
//! handed to FaaS, the invoke output) takes a [`Bytes::slice_ref`] of the
//! body, so a payload travels client → broker → bookie without being
//! copied out of its original allocation, as ledger entries do.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use bytes::{BufMut, Bytes};
use taureau_core::id::LedgerId;
use taureau_core::wire::Reader;
use taureau_pulsar::message::MessageId;

use crate::error::{ClusterError, Result};

fn malformed(what: &str) -> ClusterError {
    ClusterError::Wire(what.into())
}

/// Append one frame to a body under construction.
pub(crate) fn put_frame(out: &mut Vec<u8>, frame: &[u8]) {
    out.put_u32_le(frame.len() as u32);
    out.put_slice(frame);
}

/// Encode frames into one body.
pub(crate) fn enc<T: AsRef<[u8]>>(frames: &[T]) -> Bytes {
    let total: usize = frames.iter().map(|f| 4 + f.as_ref().len()).sum();
    let mut out = Vec::with_capacity(total);
    for f in frames {
        put_frame(&mut out, f.as_ref());
    }
    Bytes::from(out)
}

/// A service response built in place: `ok` then the frames `fill` appends,
/// or, when it fails, `err` and the message (also handed back).
pub(crate) fn reply(fill: impl FnOnce(&mut Vec<u8>) -> Result<()>) -> (Bytes, Option<String>) {
    let mut body = Vec::with_capacity(128);
    put_frame(&mut body, b"ok");
    let err = fill(&mut body).err().map(|e| e.to_string());
    if let Some(msg) = &err {
        body.clear();
        put_frame(&mut body, b"err");
        put_frame(&mut body, msg.as_bytes());
    }
    (Bytes::from(body), err)
}

/// The frames of a body, in order, each borrowed from it.
pub(crate) fn frames(body: &[u8]) -> Frames<'_> {
    Frames(Reader::new(body))
}

/// Iterator over a body's frames: each item is a frame, or a
/// [`ClusterError::Wire`] at the first truncated length or frame, after
/// which it ends.
pub(crate) struct Frames<'a>(Reader<'a>);

impl<'a> Iterator for Frames<'a> {
    type Item = Result<&'a [u8]>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.0.remaining() == 0 {
            return None;
        }
        let frame = match self.0.u32() {
            None => Err(malformed("truncated frame length")),
            Some(len) => self
                .0
                .bytes(len as usize)
                .ok_or_else(|| malformed("truncated frame body")),
        };
        if frame.is_err() {
            self.0 = Reader::new(&[]);
        }
        Some(frame)
    }
}

/// Expect exactly `N` frames.
pub(crate) fn dec_n<const N: usize>(body: &[u8]) -> Result<[&[u8]; N]> {
    let mut out = [&[][..]; N];
    let mut n = 0;
    for frame in frames(body) {
        let frame = frame?;
        if let Some(slot) = out.get_mut(n) {
            *slot = frame;
        }
        n += 1;
    }
    if n != N {
        return Err(ClusterError::Wire(format!("expected {N} frames, got {n}")));
    }
    Ok(out)
}

/// Decode a frame as UTF-8 (borrowed from the frame).
pub(crate) fn as_str(frame: &[u8]) -> Result<&str> {
    std::str::from_utf8(frame).map_err(|_| malformed("frame is not utf-8"))
}

/// Decode a frame as a little-endian `u64`.
pub(crate) fn as_u64(frame: &[u8]) -> Result<u64> {
    Reader::read_all(frame, Reader::u64).ok_or_else(|| malformed("frame is not a u64"))
}

/// Encode a `u64` frame.
pub(crate) fn u64_frame(v: u64) -> [u8; 8] {
    v.to_le_bytes()
}

/// Wire form of a [`MessageId`]: `partition, ledger, entry, batch_index,
/// batch_size` packed little-endian.
pub(crate) fn enc_msg_id(id: &MessageId) -> [u8; 28] {
    let mut out = [0u8; 28];
    let mut w = &mut out[..];
    w.put_u32_le(id.partition);
    w.put_u64_le(id.ledger.raw());
    w.put_u64_le(id.entry);
    w.put_u32_le(id.batch_index);
    w.put_u32_le(id.batch_size);
    out
}

/// Decode a [`MessageId`] frame.
pub(crate) fn dec_msg_id(frame: &[u8]) -> Result<MessageId> {
    Reader::read_all(frame, |r| {
        Some(MessageId {
            partition: r.u32()?,
            ledger: LedgerId(r.u64()?),
            entry: r.u64()?,
            batch_index: r.u32()?,
            batch_size: r.u32()?,
        })
    })
    .ok_or_else(|| malformed("message id frame must be 28 bytes"))
}

#[cfg(test)]
mod tests {
    use proptest::collection::vec;
    use proptest::prelude::*;

    use super::*;

    fn all(body: &[u8]) -> Result<Vec<&[u8]>> {
        frames(body).collect()
    }

    #[test]
    fn roundtrip_frames() {
        let body = enc(&[b"hello".as_ref(), b"", b"world"]);
        let frames = all(&body).unwrap();
        assert_eq!(frames, [&b"hello"[..], b"", b"world"]);
        let [first, empty, last] = dec_n(&body).unwrap();
        assert_eq!(
            (first, empty, last),
            (&b"hello"[..], &b""[..], &b"world"[..])
        );
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let body = enc(&[b"hello".as_ref()]);
        assert!(matches!(
            all(&body[..body.len() - 1]),
            Err(ClusterError::Wire(_))
        ));
        assert!(matches!(all(&body[..2]), Err(ClusterError::Wire(_))));
        // The error ends the iteration.
        let mut it = frames(&body[..2]);
        assert!(it.next().is_some_and(|f| f.is_err()));
        assert!(it.next().is_none());
    }

    #[test]
    fn msg_id_roundtrip() {
        let id = MessageId {
            partition: 3,
            ledger: LedgerId(77),
            entry: 12,
            batch_index: 2,
            batch_size: 5,
        };
        assert_eq!(dec_msg_id(&enc_msg_id(&id)).unwrap(), id);
    }

    /// `dec_n::<N>` as a list, to compare with the frames it checked.
    fn arity<const N: usize>(body: &[u8]) -> Result<Vec<&[u8]>> {
        dec_n::<N>(body).map(|frames| frames.to_vec())
    }

    proptest! {
        /// Arbitrary bytes — raw, and framed bodies cut short and with a
        /// byte flipped — never panic the body or id decoders. An accepted
        /// body's frames lie inside it, in order, and account for every
        /// byte of it; `dec_n` gives those frames at their arity and a
        /// `Wire` error at any other; an accepted id is the 28 bytes it
        /// re-encodes to.
        #[test]
        fn hostile_bodies_and_ids_stay_inside_the_buffer(
            raw in vec(any::<u8>(), 0..64),
            frames in vec(vec(any::<u8>(), 0..9), 0..6),
            framed in any::<bool>(),
            cut in 0usize..96,
            flip in (0usize..96, any::<u8>()),
        ) {
            let mut bytes = if framed { enc(&frames).to_vec() } else { raw };
            if framed {
                let sent: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
                prop_assert_eq!(all(&bytes).ok(), Some(sent));
            }
            bytes.truncate(cut);
            if let Some(b) = bytes.get_mut(flip.0) {
                *b ^= flip.1;
            }
            let body = &bytes[..];
            let decoded = all(body);
            if let Ok(frames) = &decoded {
                let buf = body.as_ptr_range();
                let mut at = buf.start;
                for f in frames {
                    let range = f.as_ptr_range();
                    // Each frame starts just past its own 4-byte length.
                    prop_assert!(f.is_empty() || range.start == at.wrapping_add(4));
                    prop_assert!(f.is_empty() || range.end <= buf.end);
                    at = at.wrapping_add(4 + f.len());
                }
                prop_assert_eq!(frames.iter().map(|f| 4 + f.len()).sum::<usize>(), body.len());
            }
            for (n, checked) in [(0, arity::<0>(body)), (2, arity::<2>(body)), (3, arity::<3>(body))] {
                match (&decoded, checked) {
                    (Ok(frames), Ok(got)) => prop_assert!(frames.len() == n && got == *frames),
                    (Ok(frames), Err(e)) => {
                        prop_assert!(frames.len() != n && matches!(e, ClusterError::Wire(_)))
                    }
                    (Err(_), checked) => prop_assert!(matches!(checked, Err(ClusterError::Wire(_)))),
                }
            }
            match dec_msg_id(body) {
                Ok(id) => prop_assert_eq!(&enc_msg_id(&id)[..], body),
                Err(e) => prop_assert!(body.len() != 28 && matches!(e, ClusterError::Wire(_))),
            }
        }
    }
}
