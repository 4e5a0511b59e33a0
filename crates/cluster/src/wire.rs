//! Tiny length-prefixed framing for envelope bodies.
//!
//! Services exchange requests as a flat list of byte frames (`u32`
//! little-endian length before each frame). Decoding is zero-copy:
//! frames are [`Bytes::slice`] views into the envelope body, so a
//! payload travels client → broker → bookie without being copied out of
//! its original allocation — the same discipline the PR-5 zero-copy work
//! established for ledger entries.

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

/// Decode a body into its frames (zero-copy slices).
pub(crate) fn dec(body: &Bytes) -> Result<Vec<Bytes>> {
    let mut frames = Vec::new();
    let mut r = Reader::new(body);
    while r.remaining() > 0 {
        let len = r.u32().ok_or_else(|| malformed("truncated frame length"))? as usize;
        let at = body.len() - r.remaining();
        r.bytes(len)
            .ok_or_else(|| malformed("truncated frame body"))?;
        frames.push(body.slice(at..at + len));
    }
    Ok(frames)
}

/// Expect exactly `n` frames.
pub(crate) fn dec_n(body: &Bytes, n: usize) -> Result<Vec<Bytes>> {
    let frames = dec(body)?;
    if frames.len() != n {
        return Err(ClusterError::Wire(format!(
            "expected {n} frames, got {}",
            frames.len()
        )));
    }
    Ok(frames)
}

/// Decode a frame as UTF-8 (borrowed from the frame).
pub(crate) fn as_str(frame: &Bytes) -> Result<&str> {
    std::str::from_utf8(frame).map_err(|_| malformed("frame is not utf-8"))
}

/// Decode a frame as a little-endian `u64`.
pub(crate) fn as_u64(frame: &Bytes) -> Result<u64> {
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
pub(crate) fn dec_msg_id(frame: &Bytes) -> Result<MessageId> {
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

    #[test]
    fn roundtrip_frames() {
        let body = enc(&[b"hello".as_ref(), b"", b"world"]);
        let frames = dec(&body).unwrap();
        assert_eq!(frames.len(), 3);
        assert_eq!(&frames[0][..], b"hello");
        assert!(frames[1].is_empty());
        assert_eq!(&frames[2][..], b"world");
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let body = enc(&[b"hello".as_ref()]);
        let cut = body.slice(0..body.len() - 1);
        assert!(matches!(dec(&cut), Err(ClusterError::Wire(_))));
        let cut = body.slice(0..2);
        assert!(matches!(dec(&cut), Err(ClusterError::Wire(_))));
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
        let enc = enc_msg_id(&id);
        assert_eq!(dec_msg_id(&Bytes::copy_from_slice(&enc)).unwrap(), id);
    }

    proptest! {
        /// Arbitrary bytes — raw, and framed bodies cut short and with a
        /// byte flipped — never panic the body or id decoders. An accepted
        /// body's frames lie inside it, in order, and account for every
        /// byte of it; an accepted id is the 28 bytes it re-encodes to.
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
                prop_assert_eq!(dec(&Bytes::from(bytes.clone())).ok(), Some(
                    frames.iter().map(|f| Bytes::from(f.clone())).collect::<Vec<_>>()
                ));
            }
            bytes.truncate(cut);
            if let Some(b) = bytes.get_mut(flip.0) {
                *b ^= flip.1;
            }
            let body = Bytes::from(bytes);
            if let Ok(frames) = dec(&body) {
                let buf = body.as_ptr_range();
                let mut at = buf.start;
                for f in &frames {
                    let range = f.as_ptr_range();
                    // Each frame starts just past its own 4-byte length.
                    prop_assert!(f.is_empty() || range.start == at.wrapping_add(4));
                    prop_assert!(f.is_empty() || range.end <= buf.end);
                    at = at.wrapping_add(4 + f.len());
                }
                prop_assert_eq!(frames.iter().map(|f| 4 + f.len()).sum::<usize>(), body.len());
            }
            match dec_msg_id(&body) {
                Ok(id) => prop_assert_eq!(&enc_msg_id(&id)[..], &body[..]),
                Err(e) => prop_assert!(body.len() != 28 && matches!(e, ClusterError::Wire(_))),
            }
        }
    }
}
