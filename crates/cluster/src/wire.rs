//! Tiny length-prefixed framing for envelope bodies.
//!
//! Services exchange requests as a flat list of byte frames (`u32`
//! little-endian length before each frame). Decoding is zero-copy:
//! frames are [`Bytes::slice`] views into the envelope body, so a
//! payload travels client → broker → bookie without being copied out of
//! its original allocation — the same discipline the PR-5 zero-copy work
//! established for ledger entries.

use bytes::Bytes;

use crate::error::{ClusterError, Result};

/// Append one frame to a body under construction.
pub fn put_frame(out: &mut Vec<u8>, frame: &[u8]) {
    out.extend_from_slice(&(frame.len() as u32).to_le_bytes());
    out.extend_from_slice(frame);
}

/// Encode frames into one body.
pub fn enc<T: AsRef<[u8]>>(frames: &[T]) -> Bytes {
    let total: usize = frames.iter().map(|f| 4 + f.as_ref().len()).sum();
    let mut out = Vec::with_capacity(total);
    for f in frames {
        put_frame(&mut out, f.as_ref());
    }
    Bytes::from(out)
}

/// A service response built in place: `ok` then the frames `fill` appends,
/// or, when it fails, `err` and the message (also handed back).
pub fn reply(fill: impl FnOnce(&mut Vec<u8>) -> Result<()>) -> (Bytes, Option<String>) {
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
pub fn dec(body: &Bytes) -> Result<Vec<Bytes>> {
    let mut frames = Vec::new();
    let mut off = 0usize;
    let buf = body.as_ref();
    while off < buf.len() {
        if off + 4 > buf.len() {
            return Err(ClusterError::Wire("truncated frame length".into()));
        }
        let len = u32::from_le_bytes(buf[off..off + 4].try_into().expect("4 bytes")) as usize;
        off += 4;
        if off + len > buf.len() {
            return Err(ClusterError::Wire("truncated frame body".into()));
        }
        frames.push(body.slice(off..off + len));
        off += len;
    }
    Ok(frames)
}

/// Expect exactly `n` frames.
pub fn dec_n(body: &Bytes, n: usize) -> Result<Vec<Bytes>> {
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
pub fn as_str(frame: &Bytes) -> Result<&str> {
    std::str::from_utf8(frame).map_err(|_| ClusterError::Wire("frame is not utf-8".into()))
}

/// Decode a frame as a little-endian `u64`.
pub fn as_u64(frame: &Bytes) -> Result<u64> {
    let arr: [u8; 8] = frame
        .as_ref()
        .try_into()
        .map_err(|_| ClusterError::Wire("frame is not a u64".into()))?;
    Ok(u64::from_le_bytes(arr))
}

/// Encode a `u64` frame.
pub fn u64_frame(v: u64) -> [u8; 8] {
    v.to_le_bytes()
}

/// Wire form of a [`taureau_pulsar::message::MessageId`]:
/// `partition, ledger, entry, batch_index, batch_size` packed
/// little-endian.
pub fn enc_msg_id(id: &taureau_pulsar::message::MessageId) -> [u8; 28] {
    let mut out = [0u8; 28];
    out[..4].copy_from_slice(&id.partition.to_le_bytes());
    out[4..12].copy_from_slice(&id.ledger.raw().to_le_bytes());
    out[12..20].copy_from_slice(&id.entry.to_le_bytes());
    out[20..24].copy_from_slice(&id.batch_index.to_le_bytes());
    out[24..28].copy_from_slice(&id.batch_size.to_le_bytes());
    out
}

/// Decode a [`taureau_pulsar::message::MessageId`] frame.
pub fn dec_msg_id(frame: &Bytes) -> Result<taureau_pulsar::message::MessageId> {
    let b: &[u8] = frame.as_ref();
    if b.len() != 28 {
        return Err(ClusterError::Wire(
            "message id frame must be 28 bytes".into(),
        ));
    }
    Ok(taureau_pulsar::message::MessageId {
        partition: u32::from_le_bytes(b[..4].try_into().expect("4")),
        ledger: taureau_core::id::LedgerId(u64::from_le_bytes(b[4..12].try_into().expect("8"))),
        entry: u64::from_le_bytes(b[12..20].try_into().expect("8")),
        batch_index: u32::from_le_bytes(b[20..24].try_into().expect("4")),
        batch_size: u32::from_le_bytes(b[24..28].try_into().expect("4")),
    })
}

#[cfg(test)]
mod tests {
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
        let id = taureau_pulsar::message::MessageId {
            partition: 3,
            ledger: taureau_core::id::LedgerId(77),
            entry: 12,
            batch_index: 2,
            batch_size: 5,
        };
        let enc = enc_msg_id(&id);
        assert_eq!(dec_msg_id(&Bytes::copy_from_slice(&enc)).unwrap(), id);
    }
}
