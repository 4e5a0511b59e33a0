//! Messages, message identities, and whole-entry consumer views.

use std::fmt;
use std::ops::Deref;

use bytes::Bytes;
use serde::{Deserialize, Serialize};
use taureau_core::id::LedgerId;
use taureau_core::trace::SpanContext;

use crate::entry::ParsedEntry;

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
    pub(crate) fn new(partition: u32, ledger: LedgerId, entry: u64) -> Self {
        Self {
            partition,
            ledger,
            entry,
            batch_index: 0,
            batch_size: 1,
        }
    }

    /// Id of message `batch_index` inside a `batch_size`-message entry.
    pub(crate) fn in_batch(
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
    pub(crate) fn canonical(&self) -> Self {
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

/// A message borrowed from its entry: the fields of a [`Message`], with
/// the key and payload as [`Payload`]s of the entry buffer rather than
/// owned [`Bytes`]. The Functions runtime hands a body one of these, so
/// running a body over a message touches no refcount.
#[derive(Debug, Clone, Copy)]
pub struct MessageRef<'a> {
    /// Durable identity (used for acknowledgment).
    pub id: MessageId,
    /// Optional partition key the producer supplied.
    pub key: Option<Payload<'a>>,
    /// Payload bytes.
    pub payload: Payload<'a>,
    /// Publish timestamp (clock time at the broker).
    pub publish_time: std::time::Duration,
    /// Causal trace context, as [`Message::ctx`].
    pub ctx: Option<SpanContext>,
}

// --------------------------------------------------------------------------
// Whole-entry views: the batched ledger entry as the unit of dispatch.

/// A whole ledger entry handed to a consumer as one unit.
///
/// The entry's framing — count, flags, publish timestamp, trace context,
/// key, offset table ([`crate::entry`]) — is parsed **exactly once**, when the
/// entry enters the broker's read cache (a view carries a copy of that
/// result, however often the entry is replayed); every message inside is
/// then a [`Payload`] borrowed from the shared buffer (two offsets, no
/// refcount) plus a lazy id/publish-time materialization. This is the
/// decode-amortized counterpart of per-message [`Message`] delivery: with
/// producer-side batching at 64, one parse serves 64 messages.
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
    /// The entry as the read cache parsed it. Its `ctx` is the publish
    /// span's, or, once a traced broker stamps the view, the dispatch
    /// span's.
    pub(crate) parsed: ParsedEntry,
    pub(crate) partition: u32,
    pub(crate) ledger: LedgerId,
    pub(crate) entry: u64,
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
    pub(crate) fn entry_id(&self) -> MessageId {
        MessageId::new(self.partition, self.ledger, self.entry)
    }

    /// Total number of messages packed in the underlying entry.
    pub fn batch_size(&self) -> u32 {
        self.parsed.count()
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
        self.first == 0 && self.end == self.batch_size() && self.skips.is_empty()
    }

    /// Trace context for this entry: the broker's per-entry dispatch span
    /// when tracing is on, else the publish span recovered from the entry
    /// header, else `None`. Shared by every message in the view.
    pub fn ctx(&self) -> Option<SpanContext> {
        self.parsed.ctx
    }

    /// Publish timestamp shared by the entry's messages (group commit
    /// persists them at the same instant).
    pub(crate) fn publish_time(&self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.parsed.publish_nanos())
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
    pub(crate) fn ids(&self) -> impl Iterator<Item = MessageId> + '_ {
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
/// framing. Everything here is lazy — [`MessageView::payload`] borrows
/// the entry buffer, [`MessageView::id`] is arithmetic — so iterating a
/// view and reading payloads allocates nothing and writes no shared
/// refcount.
#[derive(Clone, Copy)]
pub struct MessageView<'a> {
    view: &'a EntryView,
    index: u32,
}

impl<'a> MessageView<'a> {
    /// Durable identity (used for acknowledgment).
    pub fn id(&self) -> MessageId {
        MessageId::in_batch(
            self.view.partition,
            self.view.ledger,
            self.view.entry,
            self.index,
            self.view.batch_size(),
        )
    }

    /// Payload bytes, borrowed from the entry buffer for as long as the
    /// [`EntryView`] lives. `Bytes::from` it to keep them past the view.
    pub fn payload(&self) -> Payload<'a> {
        self.range(self.view.parsed.item_range(self.index))
    }

    /// Producer key, if any (`send_batch` writes none),
    /// borrowed from the entry buffer like the payload.
    pub(crate) fn key(&self) -> Option<Payload<'a>> {
        self.view.parsed.key_range().map(|range| self.range(range))
    }

    fn range(&self, (start, end): (usize, usize)) -> Payload<'a> {
        Payload {
            buf: self.view.parsed.raw(),
            start,
            end,
        }
    }

    /// Publish timestamp (the entry's group-commit instant).
    pub(crate) fn publish_time(&self) -> std::time::Duration {
        self.view.publish_time()
    }

    /// This position as a [`MessageRef`]: the fields of
    /// [`to_message`](Self::to_message), borrowed from the entry buffer.
    pub fn to_ref(&self) -> MessageRef<'a> {
        MessageRef {
            id: self.id(),
            key: self.key(),
            payload: self.payload(),
            publish_time: self.publish_time(),
            ctx: self.view.ctx(),
        }
    }

    /// Materialize an owned [`Message`] equal to what per-message delivery
    /// would have produced for this position.
    pub fn to_message(&self) -> Message {
        Message {
            id: self.id(),
            key: self.key().map(Bytes::from),
            payload: self.payload().into(),
            publish_time: self.publish_time(),
            ctx: self.view.ctx(),
        }
    }
}

/// A [`MessageView`]'s payload: a range of its entry's buffer, borrowed.
/// It derefs to the bytes, so reading it touches no refcount; converting
/// it into [`Bytes`] takes one shared slice of the buffer (no copy), for
/// callers that keep the payload past the view.
#[derive(Clone, Copy)]
pub struct Payload<'a> {
    buf: &'a Bytes,
    start: usize,
    end: usize,
}

impl Deref for Payload<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }
}

impl AsRef<[u8]> for Payload<'_> {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl fmt::Debug for Payload<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl From<Payload<'_>> for Bytes {
    fn from(p: Payload<'_>) -> Bytes {
        p.buf.slice(p.start..p.end)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::collection::vec;
    use proptest::prelude::*;
    use taureau_core::clock::WallClock;
    use taureau_core::trace::Tracer;

    use super::*;
    use crate::broker::{Consumer, PulsarCluster, PulsarConfig, SubscriptionMode};

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

    /// What each published message was: its key, its payload, and
    /// whether its entry carries a trace context.
    type Sent = BTreeMap<MessageId, (Option<Vec<u8>>, Vec<u8>, bool)>;

    /// Scan at `budget` until nothing is left, checking every delivered
    /// message's borrows against what was published and against
    /// `to_message`. Returns how many messages were delivered.
    fn scan_and_check(
        consumer: &mut Consumer,
        budget: usize,
        sent: &Sent,
    ) -> Result<usize, String> {
        let (mut delivered, mut views) = (0, Vec::new());
        while consumer.receive_entries_into(budget, &mut views).unwrap() > 0 {
            for view in &views {
                let buf = view.parsed.raw().as_ptr_range();
                for m in view.messages() {
                    let (key, published, traced) = &sent[&m.id()];
                    prop_assert_eq!(view.ctx().is_some(), *traced, "{:?}: ctx", m.id());
                    let msg = m.to_message();
                    let payload = m.payload();
                    prop_assert_eq!(&*payload, &published[..]);
                    prop_assert_eq!(&*payload, &msg.payload[..]);
                    // Kept, the payload shares the entry buffer: no copy.
                    let kept = Bytes::from(payload);
                    prop_assert_eq!(&kept, &msg.payload);
                    let at = kept.as_ptr_range();
                    prop_assert!(
                        buf.start <= at.start && at.end <= buf.end,
                        "{:?} was copied",
                        m.id()
                    );
                    prop_assert_eq!(
                        m.key().map(|k| k.to_vec()),
                        msg.key.as_ref().map(|k| k.to_vec())
                    );
                    prop_assert_eq!(m.key().map(|k| k.to_vec()), key.clone());
                    delivered += 1;
                }
            }
        }
        Ok(delivered)
    }

    proptest! {
        /// A borrowed payload reads exactly the bytes `to_message` owns,
        /// and keeping it slices the entry buffer instead of copying it;
        /// a borrowed key is the message's key. Over arbitrary batch cuts
        /// (scan budgets that split entries), resumes of partially-acked
        /// entries (views with `skips`), keyed single-message entries,
        /// entries published traced (a context read at cache fill), and
        /// caches rebuilt from the bookies after a restart.
        #[test]
        fn borrowed_payloads_and_keys_match_the_owned_message(
            entries in vec((0usize..5, vec(any::<u8>(), 0..24), any::<bool>()), 1..30),
            acks in vec((0usize..64, 0u32..4), 0..8),
            budget in 1usize..12,
        ) {
            let c = PulsarCluster::new(
                PulsarConfig {
                    max_entries_per_ledger: 4,
                    ..PulsarConfig::default()
                },
                WallClock::shared(),
            );
            let tracer = Tracer::new(WallClock::shared());
            c.create_topic("t", 1).unwrap();
            let producer = c.producer("t").unwrap();
            let mut consumer = c.subscribe("t", "s", SubscriptionMode::Exclusive).unwrap();

            let mut sent = Sent::new();
            let mut batched: Vec<Vec<MessageId>> = Vec::new();
            for (n, payload, traced) in &entries {
                if *traced {
                    c.set_tracer(tracer.clone());
                }
                match n {
                    0 => {
                        let id = producer.send_keyed(b"key", payload).unwrap();
                        sent.insert(id, (Some(b"key".to_vec()), payload.clone(), *traced));
                    }
                    1 => {
                        let id = producer.send(payload).unwrap();
                        sent.insert(id, (None, payload.clone(), *traced));
                    }
                    _ => {
                        let batch: Vec<Vec<u8>> = (0..*n)
                            .map(|i| payload.iter().copied().chain([i as u8]).collect())
                            .collect();
                        let ids = producer.send_batch(&batch).unwrap();
                        for (&id, p) in ids.iter().zip(batch) {
                            sent.insert(id, (None, p, *traced));
                        }
                        batched.push(ids);
                    }
                }
                c.set_tracer(Tracer::disabled());
            }
            prop_assert_eq!(scan_and_check(&mut consumer, budget, &sent)?, sent.len());

            // Ack a few batch indices on their own, never a whole entry:
            // the rescan resumes those entries around `skips`.
            let mut partly: Vec<MessageId> = Vec::new();
            for &(pick, index) in &acks {
                let Some(ids) = batched.get(pick % batched.len().max(1)) else { break };
                let id = ids[index as usize % ids.len()];
                let acked_of_entry = partly.iter().filter(|a| a.canonical() == id.canonical()).count();
                if !partly.contains(&id) && acked_of_entry + 1 < ids.len() {
                    partly.push(id);
                }
            }
            partly.iter().for_each(|&id| consumer.ack(id).unwrap());
            consumer.redeliver_unacked().unwrap();
            let unacked = sent.len() - partly.len();
            prop_assert_eq!(scan_and_check(&mut consumer, budget, &sent)?, unacked);

            // The same reads off caches rebuilt from the ledgers.
            c.restart_broker();
            partly.iter().for_each(|&id| consumer.ack(id).unwrap());
            prop_assert_eq!(scan_and_check(&mut consumer, budget, &sent)?, unacked);
        }
    }

    /// A `Payload` borrows the `EntryView`, not the `MessageView` it came
    /// from: payloads collected off a view's iterator stay readable after
    /// the iterator and every `MessageView` are gone.
    #[test]
    fn payloads_outlive_their_message_views() {
        let c = PulsarCluster::new(PulsarConfig::default(), WallClock::shared());
        c.create_topic("t", 1).unwrap();
        let producer = c.producer("t").unwrap();
        producer
            .send_batch(&[b"ab".as_slice(), b"", b"cde"])
            .unwrap();
        producer.send(b"alone").unwrap();
        let mut consumer = c.subscribe("t", "s", SubscriptionMode::Exclusive).unwrap();
        let views = consumer.receive_entries(8).unwrap();
        let payloads: Vec<Payload<'_>> = views
            .iter()
            .flat_map(|v| v.messages())
            .map(|m| m.payload())
            .collect();
        let read: Vec<&[u8]> = payloads.iter().map(|p| &**p).collect();
        assert_eq!(read, [b"ab".as_slice(), b"", b"cde", b"alone"]);
        assert_eq!(
            format!("{:?}", payloads[0]),
            format!("{:?}", b"ab".as_slice())
        );
    }
}
