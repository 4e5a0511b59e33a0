//! The ledger entry: one format for every publish.
//!
//! `send`, `send_keyed` and `send_batch` all write the same entry — a single
//! message is a batch of one:
//!
//! ```text
//! [count u32 | flags u8 | publish_nanos u64 |
//!  ctx: 16 bytes         (flag TRACED) |
//!  key_len u32 | key     (flag KEYED)  |
//!  end_offset u32 × count | payload bytes…]
//! ```
//!
//! The end-offset table is [`crate::framing`]'s: payload `i` spans
//! `end_offset[i-1]..end_offset[i]` of the payload section, so reading a
//! message is O(1) once the table is validated. The messages of one entry
//! share its key, its trace context and its publish timestamp (the group
//! commit persists them at the same instant). The context rides in the
//! header, never in a payload: payload bytes are the same traced or not.
//!
//! [`ParsedEntry::parse`] is the one place an entry's bytes are read, and
//! [`encode`] the one place they are written.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use bytes::{BufMut, Bytes, BytesMut};
use taureau_core::trace::SpanContext;
use taureau_core::wire::Reader;

use crate::error::{PulsarError, Result};
use crate::framing::{packed_len, put_ends, OffsetTable};

/// Bytes of the fixed header: count, flags, publish timestamp.
const HEADER: usize = 13;
/// Flag: a [`SpanContext`] follows the header.
const TRACED: u8 = 1;
/// Flag: a length-prefixed key follows the header (and the context).
const KEYED: u8 = 2;

/// Frame `payloads` as one entry; refused — before any buffer is sized for
/// it — when the payloads or the key pass the 4 GiB a `u32` offset can
/// address. An empty key is written as none, so it reads back as none.
pub(crate) fn encode<T: AsRef<[u8]>>(
    key: Option<&[u8]>,
    ctx: Option<SpanContext>,
    publish_nanos: u64,
    payloads: &[T],
) -> Result<Bytes> {
    let lens = || payloads.iter().map(|p| p.as_ref().len());
    let too_large = || PulsarError::BatchTooLarge {
        messages: payloads.len(),
    };
    let key = key.filter(|k| !k.is_empty());
    let count = u32::try_from(payloads.len()).map_err(|_| too_large())?;
    let key_len = key.map(|k| u32::try_from(k.len())).transpose();
    let key_len = key_len.map_err(|_| too_large())?;
    let total = packed_len(lens()).ok_or_else(too_large)?;
    let mut flags = 0;
    let mut len = HEADER + 4 * payloads.len() + total as usize;
    if ctx.is_some() {
        flags |= TRACED;
        len += SpanContext::WIRE_LEN;
    }
    if let Some(key_len) = key_len {
        flags |= KEYED;
        len += 4 + key_len as usize;
    }
    let mut buf = BytesMut::with_capacity(len);
    buf.put_u32_le(count);
    buf.put_u8(flags);
    buf.put_u64_le(publish_nanos);
    if let Some(ctx) = ctx {
        buf.put_slice(&ctx.to_bytes());
    }
    if let (Some(key), Some(key_len)) = (key, key_len) {
        buf.put_u32_le(key_len);
        buf.put_slice(key);
    }
    put_ends(&mut buf, lens()).ok_or_else(too_large)?;
    for p in payloads {
        buf.put_slice(p.as_ref());
    }
    Ok(buf.freeze())
}

/// A read cache's slot: the entry parsed, or the bytes its parse refused.
pub(crate) type Cached = std::result::Result<ParsedEntry, Bytes>;

/// A ledger entry parsed **once, where a read cache is filled**: the
/// buffer, the header's fields and the validated offset table. Ledger
/// entries are immutable, so nothing derived from their bytes can go
/// stale; a dispatch scan clones this (one refcount bump and a few words)
/// into each [`EntryView`](crate::message::EntryView) instead of
/// re-proving the framing on every pass.
#[derive(Debug, Clone)]
pub(crate) struct ParsedEntry {
    /// The whole entry buffer; keys and payloads are ranges of it.
    raw: Bytes,
    /// The publish span's context from the header. A traced broker
    /// restamps a view's copy with its dispatch span's.
    pub(crate) ctx: Option<SpanContext>,
    publish_nanos: u64,
    /// Length of the key, which ends where the offset table starts.
    key_len: Option<u32>,
    table: OffsetTable,
}

impl ParsedEntry {
    /// Parse `bytes` as an entry. Truncated or corrupt framing — a table
    /// that leaves the buffer, unknown flags — is refused, and the bytes
    /// come back as the error: a read cache keeps them in the entry's slot,
    /// and dispatch answers `EntryUnavailable` there.
    pub(crate) fn parse(bytes: &Bytes) -> Cached {
        Self::read(bytes).ok_or_else(|| bytes.clone())
    }

    fn read(bytes: &Bytes) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let count = r.u32()?;
        let flags = r.u8()?;
        let publish_nanos = r.u64()?;
        if flags & !(TRACED | KEYED) != 0 {
            return None;
        }
        let mut ctx = None;
        if flags & TRACED != 0 {
            ctx = Some(SpanContext::from_bytes(r.bytes(SpanContext::WIRE_LEN)?)?);
        }
        let mut key_len = None;
        if flags & KEYED != 0 {
            let len = r.u32()?;
            r.bytes(len as usize)?;
            key_len = Some(len);
        }
        let table = OffsetTable::parse(bytes, count, bytes.len() - r.remaining())?;
        Some(Self {
            raw: bytes.clone(),
            ctx,
            publish_nanos,
            key_len,
            table,
        })
    }

    /// The whole entry buffer.
    pub(crate) fn raw(&self) -> &Bytes {
        &self.raw
    }

    /// How many messages the entry holds.
    pub(crate) fn count(&self) -> u32 {
        self.table.count()
    }

    /// Publish timestamp shared by the entry's messages.
    pub(crate) fn publish_nanos(&self) -> u64 {
        self.publish_nanos
    }

    /// Byte range of the key within [`Self::raw`], if the entry has one.
    pub(crate) fn key_range(&self) -> Option<(usize, usize)> {
        let end = self.table.ends_at();
        self.key_len.map(|len| (end - len as usize, end))
    }

    /// Byte range of message `i`'s payload within [`Self::raw`].
    #[inline]
    pub(crate) fn item_range(&self, i: u32) -> (usize, usize) {
        self.table.item_range(&self.raw, i)
    }
}
