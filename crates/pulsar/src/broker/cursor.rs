//! A subscription's cursor, as a value: the one piece of broker state that
//! must outlive the broker (§4.3). It reaches storage only through [`Log`].
//! Every position is a `(ledger, entry)` pair; ledger ids are drawn from one
//! cluster-wide sequence, so they grow within a partition, trimming moves no
//! position, and [`land`] is the one rule that places a position.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use taureau_core::id::LedgerId;

use super::SubscriptionMode;
use crate::entry::{Cached, ParsedEntry};
use crate::error::{PulsarError, Result};
use crate::message::{EntryView, MessageId};

/// What the cursor reads of a topic's storage, partition by partition.
pub(super) trait Log {
    /// Ledger ids of partition `p`'s segments, oldest first. The ids
    /// grow, and every segment but the last is sealed.
    fn segments(&self, p: usize) -> &[LedgerId];

    /// The entries of segment `lid` when they are in memory: the open
    /// tail, or a sealed segment's built snapshot.
    fn cached(&self, p: usize, lid: LedgerId) -> Option<&[Cached]>;

    /// How many entries segment `lid` stores, when `cached` does not hold
    /// them.
    fn stored_len(&self, p: usize, lid: LedgerId) -> u64;

    /// Read sealed segment `lid` into memory, so that `cached` holds it.
    fn load(&mut self, p: usize, lid: LedgerId) -> Result<()>;
}

/// Next position a subscription will read in one partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ReadPos {
    ledger: LedgerId,
    entry: u64,
    /// Message index within a batched entry (0 for unbatched entries or at
    /// an entry boundary).
    batch: u32,
}

impl ReadPos {
    /// First message of entry `entry` of ledger `ledger`.
    fn at(ledger: LedgerId, entry: u64) -> Self {
        Self {
            ledger,
            entry,
            batch: 0,
        }
    }

    /// Just after `mark_delete`; without one, the start of the partition
    /// (no ledger id is below 0).
    fn after(mark_delete: Option<MessageId>) -> Self {
        match mark_delete {
            Some(md) => Self::at(md.ledger, md.entry + 1),
            None => Self::at(LedgerId(0), 0),
        }
    }

    fn next_entry(self) -> Self {
        Self::at(self.ledger, self.entry + 1)
    }
}

/// Where a position fell: the position, its segment's entries when they
/// are in memory, and its segment's length (the partition is read to its
/// end when the position's entry is not below it).
type Landing<'a> = (ReadPos, Option<&'a [Cached]>, u64);

/// The one position rule: where `at` falls in partition `p`'s log now.
/// That is the first segment whose ledger is `at.ledger` or later (so a
/// position in a trimmed ledger falls on the oldest survivor), at entry 0
/// unless it is `at`'s own ledger, and past a sealed segment's end, entry
/// 0 of the next. `None` while no segment is at or after `at.ledger`.
///
/// This, [`SubState::covers`] and the per-partition scan are forced inline:
/// left as calls, they made a one-message receive (four partitions) about
/// 10 % slower than the single-function scan they replaced.
#[inline(always)]
fn land<L: Log + ?Sized>(log: &L, p: usize, at: ReadPos) -> Option<Landing<'_>> {
    let segments = log.segments(p);
    let mut seg = segments.partition_point(|&l| l < at.ledger);
    let mut pos = match *segments.get(seg)? {
        l if l == at.ledger => at,
        l => ReadPos::at(l, 0),
    };
    loop {
        let cached = log.cached(p, pos.ledger);
        let len = cached.map_or_else(|| log.stored_len(p, pos.ledger), |e| e.len() as u64);
        match segments.get(seg + 1) {
            Some(&next) if pos.entry >= len => {
                seg += 1;
                pos = ReadPos::at(next, 0);
            }
            _ => return Some((pos, cached, len)),
        }
    }
}

fn unavailable(pos: ReadPos) -> PulsarError {
    PulsarError::EntryUnavailable {
        ledger: pos.ledger,
        entry: pos.entry,
    }
}

/// Key of `subscription`'s persisted cursor on partition `p`.
pub(super) fn cursor_key(topic: &str, p: usize, subscription: &str) -> String {
    format!("/topics/{topic}/{p}/cursor/{subscription}")
}

/// One unit of an ack call: what [`Consumer::ack`](super::Consumer::ack),
/// [`Consumer::ack_batch`](super::Consumer::ack_batch) and
/// [`Consumer::ack_entries`](super::Consumer::ack_entries) hand the ack
/// fold.
#[derive(Clone, Copy)]
pub(super) enum AckUnit<'a> {
    /// Every message a delivered view covers: a whole view is one
    /// entry-granular ack (its canonical id and message count), a cut one
    /// acks its ids one by one.
    View(&'a EntryView),
    /// One message, by the id the consumer holds.
    Id(MessageId),
}

/// One subscription of a topic: its mode, its consumers and its cursor.
#[derive(Debug)]
pub(super) struct SubState {
    pub(super) mode: SubscriptionMode,
    /// Per-partition read position.
    read: Vec<ReadPos>,
    /// Per-partition mark-delete: everything at or before this is acked.
    pub(super) mark_delete: Vec<Option<MessageId>>,
    /// Individually acked messages above the mark-delete position. Always
    /// entry-level ([`MessageId::canonical`]) ids: a batched entry enters
    /// this set only once *all* its messages are acked.
    pub(super) acked: BTreeSet<MessageId>,
    /// Delivered-but-unacked message counts, **entry-granular**, one
    /// ordered queue per partition: dispatch bumps one counter per *entry*
    /// at the back, acks decrement (in-order ones at the front), and
    /// redelivery forgets the lot. See [`PendingQueue`].
    pub(super) pending: Vec<PendingQueue>,
    /// Sum of the `pending` counts — what redelivery reports, maintained
    /// incrementally so it never needs a walk.
    pub(super) pending_total: u64,
    /// Acked message indices of partially-acked batched entries, keyed by
    /// the entry's canonical id. In-memory only: a broker restart forgets
    /// partial acks and redelivers the whole entry — the same at-least-once
    /// contract unacked messages already have.
    pub(super) partial: BTreeMap<MessageId, BTreeSet<u32>>,
    /// Attached consumers (by id); order matters for failover.
    pub(super) consumers: Vec<u64>,
    /// Key of each partition's persisted cursor, built once so an
    /// ack that moves the cursor formats nothing.
    cursor_keys: Vec<String>,
    /// Partitions whose mark-delete the running ack call has moved and
    /// not yet persisted; all `false` between calls, so an ack allocates
    /// no record of its own.
    dirty: Vec<bool>,
}

impl SubState {
    /// Subscription `name` of `topic` over `partitions` partitions, with
    /// nothing delivered or individually acked. Each partition's
    /// mark-delete is what `persisted` reads under its cursor key (`None`
    /// for a new subscription), and it reads next just after it: the
    /// rewind [`SubState::rewind`] does. A broker restart is this
    /// constructor over the persisted cursors.
    pub(super) fn new(
        topic: &str,
        name: &str,
        mode: SubscriptionMode,
        partitions: usize,
        persisted: impl Fn(&str) -> Option<MessageId>,
    ) -> Self {
        let cursor_keys: Vec<String> = (0..partitions)
            .map(|p| cursor_key(topic, p, name))
            .collect();
        let mut sub = Self {
            mode,
            read: vec![ReadPos::after(None); partitions],
            mark_delete: cursor_keys.iter().map(|key| persisted(key)).collect(),
            acked: BTreeSet::new(),
            pending: vec![PendingQueue::default(); partitions],
            pending_total: 0,
            partial: BTreeMap::new(),
            consumers: Vec::new(),
            cursor_keys,
            dirty: vec![false; partitions],
        };
        sub.rewind();
        sub
    }

    /// Forget every delivery not acked yet: each partition reads next just
    /// after its mark-delete again (acked entries past it are stepped over
    /// by the scan). Returns how many messages were outstanding.
    pub(super) fn rewind(&mut self) -> usize {
        let outstanding = self.pending_total as usize;
        for (read, &md) in self.read.iter_mut().zip(&self.mark_delete) {
            *read = ReadPos::after(md);
        }
        self.pending.iter_mut().for_each(PendingQueue::clear);
        self.pending_total = 0;
        outstanding
    }

    /// Whether the canonical entry `id` is acked: at or below its
    /// partition's mark-delete, or in the acked set above it.
    #[inline(always)]
    fn covers(&self, id: MessageId) -> bool {
        self.mark_delete[id.partition as usize]
            .is_some_and(|md| (md.ledger, md.entry) >= (id.ledger, id.entry))
            || self.acked.contains(&id)
    }

    /// The cursor walk of a dispatch scan: from partition `*start_part`
    /// (moved past each partition that delivers), advance over up to `max`
    /// messages, pushing one pending view per entry onto `out`. Acked
    /// entries are stepped over, and a sealed segment is loaded only once
    /// an entry in it is wanted. A failover consumer other than the active
    /// (first attached) one gets nothing. A read error stops the walk: what
    /// was collected is returned, and the next scan meets the error.
    pub(super) fn scan<L: Log + ?Sized>(
        &mut self,
        log: &mut L,
        consumer: u64,
        start_part: &mut usize,
        max: usize,
        out: &mut Vec<EntryView>,
    ) -> Result<usize> {
        if self.mode == SubscriptionMode::Failover && self.consumers.first() != Some(&consumer) {
            return Ok(0);
        }
        let nparts = self.read.len();
        let mut delivered = 0;
        for scan in 0..nparts {
            if delivered >= max {
                break;
            }
            let p = (*start_part + scan) % nparts;
            let before = delivered;
            let walked = self.scan_partition(log, p, max, &mut delivered, out);
            if delivered > before {
                *start_part = (p + 1) % nparts;
            }
            if let Err(e) = walked {
                return if delivered == 0 {
                    Err(e)
                } else {
                    Ok(delivered)
                };
            }
        }
        Ok(delivered)
    }

    /// Partition `p`'s share of [`SubState::scan`]: one run of entries
    /// per segment, until `*delivered` reaches `max` or the partition is
    /// read to its end.
    #[inline(always)]
    fn scan_partition<L: Log + ?Sized>(
        &mut self,
        log: &mut L,
        p: usize,
        max: usize,
        delivered: &mut usize,
        out: &mut Vec<EntryView>,
    ) -> Result<()> {
        'runs: while *delivered < max {
            let Some((mut pos, cached, len)) = land(&*log, p, self.read[p]) else {
                return Ok(()); // nothing ever written here
            };
            self.read[p] = pos;
            if pos.entry >= len {
                return Ok(()); // caught up on this partition
            }
            while pos.entry < len && *delivered < max {
                if self.covers(MessageId::new(p as u32, pos.ledger, pos.entry)) {
                    pos = pos.next_entry();
                    self.read[p] = pos;
                    continue;
                }
                let Some(entries) = cached else {
                    // First entry wanted from a sealed segment with no
                    // snapshot: build it, then take the run again from
                    // memory.
                    log.load(p, pos.ledger)?;
                    continue 'runs;
                };
                let entry = entries
                    .get(pos.entry as usize)
                    .and_then(|entry| entry.as_ref().ok())
                    .ok_or_else(|| unavailable(pos))?;
                let (next, taken) = self.deliver(p, pos, entry, max - *delivered, out);
                pos = next;
                self.read[p] = pos;
                *delivered += taken;
            }
        }
        Ok(())
    }

    /// Deliver what is left of `entry`, at `pos` of partition `p`, up to
    /// `budget` messages: push its view onto `out`, count it as pending,
    /// and return the position after it with the messages delivered. The
    /// delivery resumes past the entry's acked indices and lists the acked
    /// ones inside the delivered range as skips; an entry with no unacked
    /// index left yields no view.
    fn deliver(
        &mut self,
        p: usize,
        pos: ReadPos,
        entry: &ParsedEntry,
        budget: usize,
        out: &mut Vec<EntryView>,
    ) -> (ReadPos, usize) {
        let n = entry.count();
        let done = if self.partial.is_empty() {
            None
        } else {
            self.partial
                .get(&MessageId::new(p as u32, pos.ledger, pos.entry))
        };
        let acked = |i: u32| done.is_some_and(|d| d.contains(&i));
        let mut first = pos.batch;
        while first < n && acked(first) {
            first += 1;
        }
        if first >= n {
            return (pos.next_entry(), 0);
        }
        // Extend the delivered range up to the budget, recording
        // already-acked indices inside it.
        let (mut taken, mut end, mut skips) = (0usize, first, Vec::new());
        while end < n && taken < budget {
            if acked(end) {
                skips.push(end);
            } else {
                taken += 1;
            }
            end += 1;
        }
        self.pend(p, pos, taken as u32);
        let next = if end < n {
            ReadPos { batch: end, ..pos }
        } else {
            pos.next_entry()
        };
        out.push(EntryView {
            parsed: entry.clone(),
            partition: p as u32,
            ledger: pos.ledger,
            entry: pos.entry,
            first,
            end,
            skips,
        });
        (next, taken)
    }

    /// Count `n` more outstanding deliveries of the entry at `pos`.
    fn pend(&mut self, p: usize, pos: ReadPos, n: u32) {
        self.pending[p].add(pos.ledger, pos.entry, n);
        self.pending_total += u64::from(n);
    }

    /// The ack fold. One unit that [`SubState::check`] refuses refuses the
    /// whole call before anything changes. The units then fold in order —
    /// a whole view as one pending decrement and one entry-granular fold,
    /// each id (of a cut view, or given) through [`SubState::apply_ack`] —
    /// and `persist` gets each moved mark-delete once, with its key.
    pub(super) fn ack<'a, L: Log + ?Sized>(
        &mut self,
        log: &L,
        units: impl Iterator<Item = AckUnit<'a>> + Clone,
        mut persist: impl FnMut(&str, &MessageId),
    ) -> Result<()> {
        for unit in units.clone() {
            self.check(log, unit)?;
        }
        for unit in units {
            match unit {
                AckUnit::View(view) if view.is_whole() => {
                    let id = view.entry_id();
                    self.unpend(id, view.batch_size());
                    self.partial.remove(&id);
                    if !self.covers(id) {
                        self.fold_entry_ack(log, id);
                    }
                }
                AckUnit::View(view) => view.ids().for_each(|id| self.apply_ack(log, id)),
                AckUnit::Id(id) => self.apply_ack(log, id),
            }
        }
        for (p, dirty) in self.dirty.iter_mut().enumerate() {
            if std::mem::take(dirty) {
                let md = self.mark_delete[p].expect("cursor just advanced");
                persist(&self.cursor_keys[p], &md);
            }
        }
        Ok(())
    }

    /// Refuse ([`PulsarError::InvalidMessageId`]) an id whose partition is
    /// past the topic's, whose batch index is past its batch, or whose
    /// batch size is not its entry's message count while the entry is in
    /// memory (a cold one is taken at its word). A view's ids pass: the
    /// scan read them off the entry.
    fn check<L: Log + ?Sized>(&self, log: &L, unit: AckUnit<'_>) -> Result<()> {
        let id = match unit {
            AckUnit::View(view) => view.entry_id(),
            AckUnit::Id(id) => id,
        };
        let p = id.partition as usize;
        let refused = p >= self.read.len()
            || id.batch_index >= id.batch_size
            || matches!(unit, AckUnit::Id(_))
                && log
                    .cached(p, id.ledger)
                    .and_then(|entries| entries.get(id.entry as usize)?.as_ref().ok())
                    .is_some_and(|entry| entry.count() != id.batch_size);
        if refused {
            return Err(PulsarError::InvalidMessageId(id));
        }
        Ok(())
    }

    /// Ack one message id, already checked: pending removal, the
    /// partial-batch record, and the cursor fold once its entry is
    /// complete. Batched messages ack at message granularity, but the
    /// cursor is entry-granular: an index joins `partial`, and the
    /// canonical entry id is folded only once every index is acked. The
    /// pending queue is entry-granular too, and is decremented only for
    /// *new* acks, so duplicates cannot drive the outstanding count below
    /// reality.
    fn apply_ack<L: Log + ?Sized>(&mut self, log: &L, id: MessageId) {
        let entry = id.canonical();
        if self.covers(entry) {
            return; // a duplicate, or the ack of a completed batch
        }
        if id.batch_size > 1 {
            let done = self.partial.entry(entry).or_default();
            if !done.insert(id.batch_index) {
                return; // duplicate ack within a still-partial batch
            }
            let complete = (done.len() as u32) >= id.batch_size;
            self.unpend(entry, 1);
            if !complete {
                return; // batch still partially unacked
            }
            self.partial.remove(&entry);
        } else {
            self.unpend(entry, 1);
        }
        self.fold_entry_ack(log, entry);
    }

    /// Drop up to `n` outstanding deliveries of the canonical entry `id`
    /// from its partition's pending queue (clamped — a duplicate or
    /// never-delivered ack cannot underflow the count).
    fn unpend(&mut self, id: MessageId, n: u32) {
        let taken = self.pending[id.partition as usize].take(id.ledger, id.entry, n);
        self.pending_total -= u64::from(taken);
    }

    /// Fold a completed ack of the canonical entry `id`, which nothing
    /// covers yet: advance the mark-delete while the next stored position
    /// is acked, marking the partition dirty when it moved. `id` is held
    /// aside rather than inserted, because an in-order ack is the next
    /// position and never enters the acked set; it joins the set only if
    /// the advance stops short of it.
    fn fold_entry_ack<L: Log + ?Sized>(&mut self, log: &L, id: MessageId) {
        let p = id.partition as usize;
        let mut held = Some(id);
        while let Some((pos, _, len)) = land(log, p, ReadPos::after(self.mark_delete[p])) {
            if pos.entry >= len {
                break;
            }
            let next = MessageId::new(id.partition, pos.ledger, pos.entry);
            if held == Some(next) {
                held = None;
            } else if !self.acked.remove(&next) {
                break;
            }
            self.mark_delete[p] = Some(next);
            self.dirty[p] = true;
        }
        if let Some(id) = held {
            self.acked.insert(id);
        }
    }
}

/// One partition's delivered-but-unacked entries: `(ledger, entry,
/// outstanding messages)` in dispatch order, which within a partition is
/// `(ledger, entry)` order — ledger ids grow over rollovers. The common
/// cases touch only the ends (dispatch pushes at the back or re-bumps it,
/// an in-order ack decrements the front); anything else is a binary
/// search. An entry acked out of order from the middle stays as a
/// zero-count tombstone rather than shifting the queue; the ends are
/// never tombstones, so the queue is empty exactly when nothing is
/// outstanding, and its buffer is reused across redeliveries.
#[derive(Debug, Clone, Default)]
pub(super) struct PendingQueue(pub(super) VecDeque<(LedgerId, u64, u32)>);

impl PendingQueue {
    fn find(&self, ledger: LedgerId, entry: u64) -> std::result::Result<usize, usize> {
        self.0
            .binary_search_by_key(&(ledger, entry), |&(l, e, _)| (l, e))
    }

    /// Record `n` more outstanding deliveries of one entry.
    pub(super) fn add(&mut self, ledger: LedgerId, entry: u64, n: u32) {
        if n == 0 {
            return;
        }
        match self.0.back_mut() {
            None => self.0.push_back((ledger, entry, n)),
            Some(back) if (back.0, back.1) == (ledger, entry) => back.2 += n,
            Some(back) if (back.0, back.1) < (ledger, entry) => {
                self.0.push_back((ledger, entry, n));
            }
            Some(_) => match self.find(ledger, entry) {
                Ok(at) => self.0[at].2 += n,
                Err(at) => self.0.insert(at, (ledger, entry, n)),
            },
        }
    }

    /// Drop up to `n` outstanding deliveries of one entry; returns how
    /// many there were to drop (a duplicate or never-delivered ack finds
    /// fewer, or none).
    pub(super) fn take(&mut self, ledger: LedgerId, entry: u64, n: u32) -> u32 {
        let at = match self.0.front() {
            Some(front) if (front.0, front.1) == (ledger, entry) => 0,
            _ => match self.find(ledger, entry) {
                Ok(at) => at,
                Err(_) => return 0,
            },
        };
        let count = &mut self.0[at].2;
        let taken = (*count).min(n);
        *count -= taken;
        if *count == 0 {
            if at == 0 {
                self.0.pop_front();
                while self.0.front().is_some_and(|f| f.2 == 0) {
                    self.0.pop_front();
                }
            } else if at + 1 == self.0.len() {
                self.0.pop_back();
                while self.0.back().is_some_and(|b| b.2 == 0) {
                    self.0.pop_back();
                }
            }
        }
        taken
    }

    /// Forget everything (redelivery); the buffer stays.
    pub(super) fn clear(&mut self) {
        self.0.clear();
    }
}
