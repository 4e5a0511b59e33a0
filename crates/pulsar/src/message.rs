//! Messages, message identities, and whole-entry consumer views.

use bytes::Bytes;
use serde::{Deserialize, Serialize};
use taureau_core::id::LedgerId;
use taureau_core::trace::SpanContext;

use crate::framing::OffsetTable;

/// A message's durable address: which ledger segment and entry it was
/// persisted as, plus the partition it belongs to. Totally ordered within a
/// partition (ledger ids grow over segment rollovers; entry ids grow within
/// a ledger; batch indices grow within a batched entry).
///
/// Producer-side batching packs several messages into one ledger entry, so
/// an id also carries its position inside that entry: `batch_index` of
/// `batch_size`. Unbatched messages are the degenerate batch `0 of 1`,
/// which keeps ids from before batching existed bit-compatible — the
/// derived `Ord`/`Eq` and the entry-level cursor format are unchanged for
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MessageId {
    /// Topic partition index.
    pub partition: u32,
    /// Ledger segment holding the entry.
    pub ledger: LedgerId,
    /// Entry index within the ledger.
    pub entry: u64,
    /// Position within the batched entry (0 for unbatched messages).
    pub batch_index: u32,
    /// Number of messages sharing this entry (1 for unbatched messages).
    pub batch_size: u32,
}

impl MessageId {
    /// Id of an unbatched message: the degenerate batch `0 of 1`.
    pub fn new(partition: u32, ledger: LedgerId, entry: u64) -> Self {
        Self {
            partition,
            ledger,
            entry,
            batch_index: 0,
            batch_size: 1,
        }
    }

    /// Id of message `batch_index` inside a `batch_size`-message entry.
    pub fn in_batch(
        partition: u32,
        ledger: LedgerId,
        entry: u64,
        batch_index: u32,
        batch_size: u32,
    ) -> Self {
        debug_assert!(batch_index < batch_size.max(1));
        Self {
            partition,
            ledger,
            entry,
            batch_index,
            batch_size,
        }
    }

    /// The entry-level (batch-erased) form of this id: what cursors,
    /// entry-level ack sets, and the `"p;l;e"` persistence format track.
    pub fn canonical(&self) -> Self {
        Self::new(self.partition, self.ledger, self.entry)
    }
}

/// A message delivered to a consumer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Durable identity (used for acknowledgment).
    pub id: MessageId,
    /// Optional partition key the producer supplied.
    pub key: Option<Bytes>,
    /// Payload bytes.
    pub payload: Bytes,
    /// Publish timestamp (clock time at the broker).
    pub publish_time: std::time::Duration,
    /// Causal trace context carried through the broker: the dispatch
    /// span's identity when the broker is traced (itself a child of the
    /// producer's publish span, recovered from the entry header), or the
    /// publish span's identity verbatim when only the producer side is
    /// traced. `None` for untraced publishes and pre-context entries.
    /// Consumers hand this to `Tracer::span_child_of` (or
    /// `FaasPlatform::invoke_traced`) so the processing hop joins the
    /// publisher's trace instead of rooting a new one.
    pub ctx: Option<SpanContext>,
}

impl Message {
    /// Payload as UTF-8, if valid (convenience for text-stream functions).
    pub fn payload_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.payload).ok()
    }
}

// --------------------------------------------------------------------------
// Whole-entry views: the batched ledger entry as the unit of dispatch.

/// A whole batched ledger entry handed to a consumer as one unit.
///
/// The entry's framing — trace-context header, batch marker, count,
/// publish timestamp, offset table — is parsed **exactly once**, when the
/// entry enters the broker's read cache (a view carries a copy of that
/// result, however often the entry is replayed); every message inside is
/// then an O(1)
/// refcount-only [`Bytes::slice`] against the shared buffer plus a lazy
/// id/publish-time materialization. This is the decode-amortized
/// counterpart of per-message [`Message`] delivery: with producer-side
/// batching at 64, one parse serves 64 messages.
///
/// A view covers a contiguous *delivered range* of the entry
/// (`[first, end)` in batch-index terms, minus any already-acked
/// `skips`): `receive_entries(max)` may cut the last entry short to honor
/// `max`, and a resumed scan may start mid-entry. [`EntryView::is_whole`]
/// tells the two apart.
///
/// **Redelivery contract:** acknowledging a view ([`crate::Consumer::ack_entries`])
/// acks exactly its delivered messages. A view that is dropped without
/// ack — including across a broker crash/failover — redelivers under the
/// entry-level cursor rules: once any message of the entry is unacked,
/// the *whole entry* comes back (at-least-once, same contract as
/// per-message delivery with batched cursors).
#[derive(Debug, Clone)]
pub struct EntryView {
    /// The entry buffer with any trace-context header already peeled.
    pub(crate) raw: Bytes,
    /// Publish-span context carried in the entry header (or, once the
    /// broker stamps the view, the dispatch span's context).
    pub(crate) ctx: Option<SpanContext>,
    pub(crate) partition: u32,
    pub(crate) ledger: LedgerId,
    pub(crate) entry: u64,
    pub(crate) publish_nanos: u64,
    /// Producer key (unbatched entries only; batches are key-less).
    pub(crate) key: Option<Bytes>,
    /// Payload offset within `raw` for unbatched entries.
    pub(crate) body_at: usize,
    /// Cached offset-table index for batched entries; `None` = unbatched.
    pub(crate) batch: Option<OffsetTable>,
    /// Total messages in the entry (1 for unbatched).
    pub(crate) batch_size: u32,
    /// First delivered batch index.
    pub(crate) first: u32,
    /// One past the last delivered batch index.
    pub(crate) end: u32,
    /// Already-acked batch indices inside `[first, end)`, sorted. Almost
    /// always empty; non-empty only when resuming a partially-acked entry.
    pub(crate) skips: Vec<u32>,
}

impl EntryView {
    /// The entry-level (batch-erased) identity of this view: partition,
    /// ledger, entry — what cursors track.
    pub fn entry_id(&self) -> MessageId {
        MessageId::new(self.partition, self.ledger, self.entry)
    }

    /// Total number of messages packed in the underlying entry.
    pub fn batch_size(&self) -> u32 {
        self.batch_size
    }

    /// Number of messages this view delivers.
    pub fn len(&self) -> usize {
        (self.end - self.first) as usize - self.skips.len()
    }

    /// Whether the view delivers no messages.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the view covers the *entire* entry: every message, none
    /// previously acked. Whole views ack (and redeliver) as one unit.
    pub fn is_whole(&self) -> bool {
        self.first == 0 && self.end == self.batch_size && self.skips.is_empty()
    }

    /// Trace context for this entry: the broker's per-entry dispatch span
    /// when tracing is on, else the publish span recovered from the entry
    /// header, else `None`. Shared by every message in the view.
    pub fn ctx(&self) -> Option<SpanContext> {
        self.ctx
    }

    /// Publish timestamp shared by the entry's messages (group commit
    /// persists them at the same instant).
    pub fn publish_time(&self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.publish_nanos)
    }

    /// Iterate the delivered messages as lazy [`MessageView`]s, in batch
    /// order.
    pub fn messages(&self) -> Messages<'_> {
        Messages {
            view: self,
            next: self.first,
            skip_at: 0,
        }
    }

    /// Iterate the delivered [`MessageId`]s, in batch order.
    pub fn ids(&self) -> impl Iterator<Item = MessageId> + '_ {
        self.messages().map(|m| m.id())
    }
}

/// Iterator over the delivered messages of an [`EntryView`].
pub struct Messages<'a> {
    view: &'a EntryView,
    next: u32,
    skip_at: usize,
}

impl<'a> Iterator for Messages<'a> {
    type Item = MessageView<'a>;

    fn next(&mut self) -> Option<MessageView<'a>> {
        while self.next < self.view.end {
            let index = self.next;
            self.next += 1;
            if self
                .view
                .skips
                .get(self.skip_at)
                .is_some_and(|&s| s == index)
            {
                self.skip_at += 1;
                continue;
            }
            return Some(MessageView {
                view: self.view,
                index,
            });
        }
        None
    }
}

/// One message inside an [`EntryView`]: an index plus the shared parsed
/// framing. Everything here is lazy — [`MessageView::payload`] is a
/// refcount-only slice, [`MessageView::id`] is arithmetic — so iterating
/// a view and reading payloads allocates nothing.
#[derive(Clone, Copy)]
pub struct MessageView<'a> {
    view: &'a EntryView,
    index: u32,
}

impl MessageView<'_> {
    /// Durable identity (used for acknowledgment).
    pub fn id(&self) -> MessageId {
        MessageId::in_batch(
            self.view.partition,
            self.view.ledger,
            self.view.entry,
            self.index,
            self.view.batch_size,
        )
    }

    /// Batch index of this message within its entry.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// Payload bytes: an O(1) zero-copy slice of the entry buffer.
    pub fn payload(&self) -> Bytes {
        match &self.view.batch {
            Some(table) => table.slice(&self.view.raw, self.index),
            None => self.view.raw.slice(self.view.body_at..),
        }
    }

    /// Producer key, if any (always `None` for batched messages).
    pub fn key(&self) -> Option<Bytes> {
        self.view.key.clone()
    }

    /// Publish timestamp (the entry's group-commit instant).
    pub fn publish_time(&self) -> std::time::Duration {
        self.view.publish_time()
    }

    /// Trace context (the entry's — see [`EntryView::ctx`]).
    pub fn ctx(&self) -> Option<SpanContext> {
        self.view.ctx
    }

    /// Materialize an owned [`Message`] equal to what per-message delivery
    /// would have produced for this position.
    pub fn to_message(&self) -> Message {
        Message {
            id: self.id(),
            key: self.key(),
            payload: self.payload(),
            publish_time: self.publish_time(),
            ctx: self.view.ctx,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_ids_order_within_partition() {
        let a = MessageId::new(0, LedgerId(1), 5);
        let b = MessageId::new(0, LedgerId(1), 6);
        let c = MessageId::new(0, LedgerId(2), 0);
        assert!(a < b && b < c);
    }

    #[test]
    fn batch_ids_order_within_entry_and_canonicalize() {
        let a = MessageId::in_batch(0, LedgerId(1), 5, 0, 3);
        let b = MessageId::in_batch(0, LedgerId(1), 5, 1, 3);
        let c = MessageId::in_batch(0, LedgerId(1), 5, 2, 3);
        let next = MessageId::new(0, LedgerId(1), 6);
        assert!(a < b && b < c && c < next);
        assert_eq!(a.canonical(), b.canonical());
        // An unbatched id is already canonical.
        let plain = MessageId::new(2, LedgerId(9), 7);
        assert_eq!(plain.canonical(), plain);
    }

    #[test]
    fn payload_str_roundtrip() {
        let m = Message {
            id: MessageId::new(0, LedgerId(0), 0),
            key: None,
            payload: Bytes::from_static(b"hello"),
            publish_time: std::time::Duration::ZERO,
            ctx: None,
        };
        assert_eq!(m.payload_str(), Some("hello"));
        let bin = Message {
            payload: Bytes::from_static(&[0xff, 0xfe]),
            ..m
        };
        assert_eq!(bin.payload_str(), None);
    }
}
