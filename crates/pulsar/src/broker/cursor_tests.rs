//! What the ack path must keep exactly: the cursor fold against its
//! reference (insert the id, then drain the acked set while the next
//! position is in it), the pending queues against the ordered map they
//! replaced, the persisted cursor bytes, and the metadata parses on bytes
//! nobody vouches for. The fold is driven on the cursor alone, over a log
//! held in memory; the pending queues through a whole cluster.

use std::collections::{BTreeMap, BTreeSet};

use proptest::collection::vec;
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::Rng;
use taureau_core::rng::det_rng;
use taureau_core::wire::Reader;

use super::cursor::{cursor_key, AckUnit, PendingQueue};
use super::*;
use crate::metadata::tests::bytes_of;

const TOPIC: &str = "t";
const SUB: &str = "s";

/// The reference fold over one subscription, told only what was published
/// (in order, per partition) and what was acked.
#[derive(Default)]
struct Model {
    /// Canonical entry ids in publish order, per partition.
    order: Vec<Vec<MessageId>>,
    /// Index into `order[p]` of the mark-delete position.
    mark_delete: Vec<Option<usize>>,
    /// Completed entries above the mark-delete position.
    acked: BTreeSet<MessageId>,
    /// Acked indices of entries some of whose messages are still unacked.
    partial: BTreeMap<MessageId, BTreeSet<u32>>,
    /// Messages per published entry.
    sizes: BTreeMap<MessageId, u32>,
    /// Delivered-but-unacked messages per entry: the map the broker's
    /// pending queues must stay equal to, zero counts removed.
    pending: BTreeMap<MessageId, u32>,
}

impl Model {
    fn new(partitions: usize) -> Self {
        Self {
            order: vec![Vec::new(); partitions],
            mark_delete: vec![None; partitions],
            ..Self::default()
        }
    }

    fn published(&mut self, id: MessageId) {
        let p = id.partition as usize;
        if self.order[p].last() != Some(&id.canonical()) {
            self.order[p].push(id.canonical());
        }
        self.sizes.insert(id.canonical(), id.batch_size);
    }

    /// A view was handed to the consumer.
    fn delivered(&mut self, view: &EntryView) {
        if !view.is_empty() {
            *self.pending.entry(view.entry_id()).or_insert(0) += view.len() as u32;
        }
    }

    /// Up to `n` deliveries of `entry` are no longer outstanding.
    fn unpend(&mut self, entry: MessageId, n: u32) {
        if let Some(count) = self.pending.get_mut(&entry) {
            *count = count.saturating_sub(n);
            if *count == 0 {
                self.pending.remove(&entry);
            }
        }
    }

    fn covered(&self, entry: MessageId) -> bool {
        let p = entry.partition as usize;
        let at = self.order[p]
            .iter()
            .position(|&e| e == entry)
            .expect("acked ids were published");
        self.mark_delete[p].is_some_and(|md| at <= md) || self.acked.contains(&entry)
    }

    fn ack(&mut self, id: MessageId) {
        let entry = id.canonical();
        if self.covered(entry) {
            return;
        }
        if id.batch_size > 1 {
            let done = self.partial.entry(entry).or_default();
            if !done.insert(id.batch_index) {
                return;
            }
            let complete = (done.len() as u32) >= id.batch_size;
            self.unpend(entry, 1);
            if !complete {
                return;
            }
            self.partial.remove(&entry);
        } else {
            self.unpend(entry, 1);
        }
        self.complete(entry);
    }

    /// Every message of `entry` acked in one go (`ack_entries` on a whole
    /// view).
    fn ack_whole(&mut self, entry: MessageId) {
        self.unpend(entry, self.sizes[&entry]);
        self.partial.remove(&entry);
        if !self.covered(entry) {
            self.complete(entry);
        }
    }

    /// `entry` has no unacked message left: fold it into the cursor.
    fn complete(&mut self, entry: MessageId) {
        let p = entry.partition as usize;
        // The reference fold: insert, then drain while the next position
        // is present.
        self.acked.insert(entry);
        loop {
            let next = self.mark_delete[p].map_or(0, |md| md + 1);
            match self.order[p].get(next) {
                Some(e) if self.acked.remove(e) => self.mark_delete[p] = Some(next),
                _ => break,
            }
        }
    }

    /// `ack_entries`: whole views ack their entry, cut ones id by id.
    fn ack_entries(&mut self, views: &[EntryView]) {
        for view in views {
            if view.is_whole() {
                self.ack_whole(view.entry_id());
            } else {
                view.ids().for_each(|id| self.ack(id));
            }
        }
    }

    /// A broker restart keeps what was persisted — the cursors — and
    /// forgets individual and partial acks and what was outstanding.
    fn restart(&mut self) {
        self.acked.clear();
        self.partial.clear();
        self.pending.clear();
    }

    /// `redeliver_unacked`: reports what was outstanding and forgets it.
    fn redeliver(&mut self) -> usize {
        std::mem::take(&mut self.pending).values().sum::<u32>() as usize
    }

    /// Every message not acked yet, in delivery order per partition: what
    /// a rewound subscription has to deliver.
    fn unacked(&self) -> BTreeSet<MessageId> {
        let mut out = BTreeSet::new();
        for (p, order) in self.order.iter().enumerate() {
            let resume = self.mark_delete[p].map_or(0, |md| md + 1);
            for entry in order[resume..].iter().filter(|e| !self.acked.contains(e)) {
                let n = self.sizes[entry];
                let done = self.partial.get(entry);
                out.extend(
                    (0..n)
                        .filter(|i| !done.is_some_and(|d| d.contains(i)))
                        .map(|i| MessageId::in_batch(p as u32, entry.ledger, entry.entry, i, n)),
                );
            }
        }
        out
    }

    fn cursor(&self, p: usize) -> Option<MessageId> {
        self.mark_delete[p].map(|md| self.order[p][md])
    }

    /// The persisted form, spelled out field by field: the bytes the
    /// cursor's encoder must produce.
    fn cursor_bytes(&self, p: usize) -> Option<Vec<u8>> {
        self.cursor(p).map(|id| cursor_bytes(&id))
    }
}

/// A persisted cursor: `partition u32 | ledger u64 | entry u64`,
/// little-endian.
fn cursor_bytes(id: &MessageId) -> Vec<u8> {
    let (p, ledger, entry) = (id.partition, id.ledger.raw(), id.entry);
    [
        &p.to_le_bytes()[..],
        &ledger.to_le_bytes(),
        &entry.to_le_bytes(),
    ]
    .concat()
}

/// A topic's log held in memory, for driving a cursor with no cluster:
/// per partition, segments of `per_ledger` parsed entries, with ledger
/// ids from one counter, as from the metadata sequence. What a restart
/// unloads, the cursor must `load` to read.
struct MemLog {
    segments: Vec<Vec<LedgerId>>,
    /// Every segment ever written, trimmed ones included.
    entries: BTreeMap<LedgerId, Vec<Cached>>,
    loaded: BTreeSet<LedgerId>,
    per_ledger: usize,
}

impl Log for MemLog {
    fn segments(&self, p: usize) -> &[LedgerId] {
        &self.segments[p]
    }

    fn cached(&self, p: usize, lid: LedgerId) -> Option<&[Cached]> {
        let held = self.loaded.contains(&lid) && self.segments[p].contains(&lid);
        held.then(|| self.entries[&lid].as_slice())
    }

    fn stored_len(&self, _: usize, lid: LedgerId) -> u64 {
        self.entries[&lid].len() as u64
    }

    fn load(&mut self, _: usize, lid: LedgerId) -> Result<()> {
        self.loaded.insert(lid);
        Ok(())
    }
}

impl MemLog {
    fn new(partitions: usize, per_ledger: usize) -> Self {
        Self {
            segments: vec![Vec::new(); partitions],
            entries: BTreeMap::new(),
            loaded: BTreeSet::new(),
            per_ledger,
        }
    }

    /// Append one entry of `n` messages to partition `p`, as `send_batch`
    /// frames them.
    fn publish(&mut self, p: usize, n: usize, tag: u8) -> Vec<MessageId> {
        let open = self.segments[p].last().copied();
        let lid = match open.filter(|l| self.entries[l].len() < self.per_ledger) {
            Some(lid) => lid,
            None => {
                let lid = LedgerId(self.entries.len() as u64);
                self.segments[p].push(lid);
                self.loaded.insert(lid);
                lid
            }
        };
        let payloads: Vec<[u8; 2]> = (0..n).map(|i| [tag, i as u8]).collect();
        let raw = entry::encode(None, None, 0, &payloads).unwrap();
        let entries = self.entries.entry(lid).or_default();
        entries.push(ParsedEntry::parse(&raw));
        let (entry, n) = (entries.len() as u64 - 1, n as u32);
        (0..n)
            .map(|i| MessageId::in_batch(p as u32, lid, entry, i, n))
            .collect()
    }

    /// `trim_consumed` for one subscription: drop each oldest segment the
    /// mark-delete has left, but never the last.
    fn trim(&mut self, mark_delete: &[Option<MessageId>]) {
        for (segments, md) in self.segments.iter_mut().zip(mark_delete) {
            while segments.len() > 1 && md.is_some_and(|md| md.ledger != segments[0]) {
                segments.remove(0);
            }
        }
    }
}

/// The subscription under test, its mark-deletes read through `persisted`.
fn subscription(persisted: impl Fn(&str) -> Option<MessageId>) -> SubState {
    SubState::new(TOPIC, SUB, SubscriptionMode::Exclusive, 2, persisted)
}

/// Every view the subscription has to deliver now, in scans of 64 from
/// partition 0 (one scan may stop short of a partition it did not start
/// on).
fn scan_all(sub: &mut SubState, log: &mut MemLog) -> Vec<EntryView> {
    let (mut start, mut views, mut out) = (0, Vec::new(), Vec::new());
    while sub.scan(log, 0, &mut start, 64, &mut views).unwrap() > 0 {
        out.append(&mut views);
    }
    out
}

/// `sub`'s cursor state, and the cursor text persisted for each
/// partition, against the reference.
fn cursor_agrees(
    sub: &SubState,
    persisted: impl Fn(usize) -> Option<Vec<u8>>,
    model: &Model,
    step: &str,
) -> std::result::Result<(), String> {
    fn same<T: PartialEq + std::fmt::Debug>(
        what: &str,
        step: &str,
        cursor: T,
        reference: T,
    ) -> std::result::Result<(), String> {
        prop_assert!(
            cursor == reference,
            "{what} {step}: cursor {cursor:?}, reference {reference:?}"
        );
        Ok(())
    }
    for (p, &md) in sub.mark_delete.iter().enumerate() {
        same("mark-delete", step, md, model.cursor(p))?;
        same("cursor bytes", step, persisted(p), model.cursor_bytes(p))?;
    }
    same("acked-set residue", step, &sub.acked, &model.acked)?;
    same("partial acks", step, &sub.partial, &model.partial)
}

fn assert_agrees(c: &PulsarCluster, model: &Model, step: &str) -> std::result::Result<(), String> {
    c.with_topic(TOPIC, |_, t| {
        let stored = |p| c.metadata().get(&cursor_key(TOPIC, p, SUB)).map(|v| v.data);
        Ok(cursor_agrees(&t.subs[SUB], stored, model, step))
    })
    .unwrap()
}

/// The broker's acked set for the subscription under test.
fn broker_acked(c: &PulsarCluster) -> BTreeSet<MessageId> {
    c.with_topic(TOPIC, |_, t| Ok(t.subs[SUB].acked.clone()))
        .unwrap()
}

/// The broker's outstanding deliveries for the subscription under test:
/// the live (non-tombstone) queue entries as the map they replaced, the
/// running total, and each partition's queue length — `None` for a queue
/// that begins or ends with a tombstone.
fn broker_pending(c: &PulsarCluster) -> (BTreeMap<MessageId, u32>, u64, Vec<Option<usize>>) {
    c.with_topic(TOPIC, |_, t| {
        let sub = &t.subs[SUB];
        let live = sub
            .pending
            .iter()
            .enumerate()
            .flat_map(|(p, q)| {
                q.0.iter()
                    .filter(|&&(_, _, n)| n > 0)
                    .map(move |&(l, e, n)| (MessageId::new(p as u32, l, e), n))
            })
            .collect();
        let lens = sub
            .pending
            .iter()
            .map(|q| {
                let ends_live = [q.0.front(), q.0.back()]
                    .iter()
                    .all(|end| end.is_none_or(|&(_, _, n)| n > 0));
                ends_live.then_some(q.0.len())
            })
            .collect();
        Ok((live, sub.pending_total, lens))
    })
    .unwrap()
}

fn assert_pending_agrees(
    c: &PulsarCluster,
    model: &Model,
    step: &str,
) -> std::result::Result<(), String> {
    let (live, total, lens) = broker_pending(c);
    prop_assert!(
        live == model.pending,
        "pending {step}: broker {live:?}, reference {:?}",
        model.pending
    );
    prop_assert_eq!(
        total,
        model.pending.values().map(|&n| u64::from(n)).sum::<u64>()
    );
    // Tombstones never outlive what surrounds them: no queue begins or
    // ends with one, so a partition with nothing outstanding holds an
    // empty queue.
    for (p, len) in lens.iter().enumerate() {
        let outstanding = model.pending.keys().any(|id| id.partition as usize == p);
        prop_assert!(
            len.is_some_and(|len| (len > 0) == outstanding),
            "queue of partition {p} {step}: {len:?}"
        );
    }
    Ok(())
}

proptest! {
    /// Any ack order — in order, reversed, shuffled, with duplicates,
    /// batched entries index by index — leaves the cursor where the
    /// reference fold leaves the model after every single ack: same
    /// mark-delete, same residue in the acked set, same cursor text
    /// persisted; across segment rollovers (4 entries a ledger), trims
    /// and restarts from the persisted text. A restarted cursor then
    /// resumes each partition at the entry after its mark-delete.
    #[test]
    fn ack_fold_matches_the_reference_fold(
        batch_sizes in vec(1usize..4, 6..40),
        order_kind in 0usize..3,
        seed in any::<u64>(),
        duplicate_every in 2usize..9,
        disturb_every in 3usize..17,
    ) {
        let mut log = MemLog::new(2, 4);
        let mut model = Model::new(2);
        let mut ids = Vec::new();
        for (i, &n) in batch_sizes.iter().enumerate() {
            // Some single messages go to one partition, as a key pins
            // them; the rest alternate.
            let p = if n == 1 && i % 3 == 0 { 0 } else { i % 2 };
            for id in log.publish(p, n, i as u8) {
                model.published(id);
                ids.push(id);
            }
        }
        let mut sub = subscription(|_| None);
        let delivered: usize = scan_all(&mut sub, &mut log).iter().map(EntryView::len).sum();
        prop_assert_eq!(delivered, ids.len());

        let mut rng = det_rng(seed);
        match order_kind {
            0 => {}
            1 => ids.reverse(),
            _ => ids.shuffle(&mut rng),
        }
        let mut acks = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            acks.push(id);
            if i % duplicate_every == 0 {
                acks.push(ids[rng.gen_range(0..=i)]);
            }
        }

        // The metadata store: cursor bytes by key.
        let mut stored: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        let restored = |stored: &BTreeMap<String, Vec<u8>>| {
            subscription(|key| Reader::read_all(stored.get(key)?, read_cursor))
        };
        for (i, &id) in acks.iter().enumerate() {
            sub.ack(&log, std::iter::once(AckUnit::Id(id)), |key, md| {
                stored.insert(key.to_string(), bytes_of(|out| put_cursor(out, md)));
            })
            .unwrap();
            model.ack(id);
            let persisted = |p| stored.get(&cursor_key(TOPIC, p, SUB)).cloned();
            cursor_agrees(&sub, persisted, &model, &format!("after ack {i} ({id:?})"))?;
            if i % disturb_every == disturb_every - 1 {
                let step = if rng.gen_bool(0.5) {
                    log.trim(&sub.mark_delete);
                    format!("after the trim at ack {i}")
                } else {
                    log.loaded.clear();
                    sub = restored(&stored);
                    model.restart();
                    format!("after the restart at ack {i}")
                };
                cursor_agrees(&sub, persisted, &model, &step)?;
            }
        }
        // Everything was acked at least once, but a restart forgot the
        // individual acks above the cursor of its day: what a restarted
        // cursor delivers first, per partition, is the entry after its
        // mark-delete — in the model as in the store.
        log.loaded.clear();
        let mut sub = restored(&stored);
        model.restart();
        let mut first_delivered: Vec<Option<MessageId>> = vec![None; model.order.len()];
        for view in scan_all(&mut sub, &mut log) {
            first_delivered[view.partition as usize].get_or_insert(view.entry_id());
        }
        for (p, first) in first_delivered.into_iter().enumerate() {
            let resume = model.mark_delete[p].map_or(0, |md| md + 1);
            prop_assert_eq!(first, model.order[p].get(resume).copied());
        }
    }

    /// The per-partition pending queues are the `BTreeMap<MessageId, u32>`
    /// they replaced: under random interleavings of publishes (batched or
    /// not, two partitions, 4 entries a ledger), scans at arbitrary
    /// budgets (so last views are cut), acks of delivered, duplicate and
    /// never-delivered ids through `ack`, `ack_batch` and `ack_entries`,
    /// malformed ids (refused whole, nothing moves), trims, restarts and
    /// `redeliver_unacked`, the live queue entries, the running total and
    /// the cursor state equal the reference after every step;
    /// `redeliver_unacked` returns the reference's count and the rewound
    /// subscription then delivers exactly the unacked messages.
    #[test]
    fn pending_queues_match_the_reference_map(
        ops in vec((0usize..11, 0usize..64), 40..160),
        seed in any::<u64>(),
    ) {
        let cfg = PulsarConfig {
            bookies: 3,
            ledger: LedgerConfig::default(),
            max_entries_per_ledger: 4,
        };
        let c = PulsarCluster::new(cfg, WallClock::shared());
        c.create_topic(TOPIC, 2).unwrap();
        let producer = c.producer(TOPIC).unwrap();
        let mut consumer = c.subscribe(TOPIC, SUB, SubscriptionMode::Exclusive).unwrap();
        let mut model = Model::new(2);
        let mut rng = det_rng(seed);
        // Every id published, and the views received since the last rewind.
        let mut ids: Vec<MessageId> = Vec::new();
        let mut held: Vec<EntryView> = Vec::new();
        let mut views = Vec::new();

        for (step, &(op, arg)) in ops.iter().enumerate() {
            let step = format!("after step {step} (op {op}, arg {arg})");
            match op {
                // Publish: one to four messages an entry, some keyed.
                0..=2 => {
                    let n = arg % 4 + 1;
                    let payloads: Vec<Vec<u8>> = (0..n).map(|k| vec![arg as u8, k as u8]).collect();
                    let sent = if n == 1 && arg % 3 == 0 {
                        vec![producer.send_keyed(b"k", &payloads[0]).unwrap()]
                    } else {
                        producer.send_batch(&payloads).unwrap()
                    };
                    for id in sent {
                        model.published(id);
                        ids.push(id);
                    }
                }
                // Scan at an arbitrary budget.
                3 | 4 => {
                    consumer.receive_entries_into(arg % 9 + 1, &mut views).unwrap();
                    for view in &views {
                        // Nothing acked is ever delivered again.
                        for id in view.ids() {
                            prop_assert!(model.unacked().contains(&id), "{id:?} delivered {step}");
                        }
                        model.delivered(view);
                    }
                    held.append(&mut views);
                }
                // Ack one id, maybe for the second time: one out of a
                // view held (so queue entries empty from the middle), or
                // any published one, delivered or not.
                5 | 6 if !ids.is_empty() => {
                    let id = match held.get(arg % (held.len() + 1)) {
                        Some(view) => view.ids().nth(arg % view.len()).expect("in the view"),
                        None => ids[arg % ids.len()],
                    };
                    consumer.ack(id).unwrap();
                    model.ack(id);
                }
                // Ack a batch: a whole entry's ids in order, then strays.
                7 if !ids.is_empty() => {
                    let pick = ids[arg % ids.len()];
                    let mut batch: Vec<MessageId> = (0..pick.batch_size)
                        .map(|i| MessageId { batch_index: i, ..pick })
                        .collect();
                    for _ in 0..arg % 3 {
                        batch.push(ids[rng.gen_range(0..ids.len())]);
                    }
                    if arg % 5 == 0 {
                        batch.shuffle(&mut rng);
                    }
                    consumer.ack_batch(&batch).unwrap();
                    batch.iter().for_each(|&id| model.ack(id));
                }
                // Ack some of the views held, whole and cut alike.
                8 if !held.is_empty() => {
                    let from = arg % held.len();
                    let some: Vec<EntryView> = held.drain(from..).collect();
                    consumer.ack_entries(&some).unwrap();
                    model.ack_entries(&some);
                }
                9 if arg % 8 == 0 => {
                    c.restart_broker();
                    model.restart();
                    held.clear();
                }
                9 if arg % 2 == 0 => {
                    c.trim_consumed(TOPIC).unwrap();
                }
                // A malformed id — a partition past the topic's two, an
                // index past its batch, an empty batch — alone through
                // `ack`, or after a valid id in `ack_batch`: the call is
                // refused whole and the model does not move (the checks
                // after the match hold the broker to that).
                10 if !ids.is_empty() => {
                    let valid = ids[arg % ids.len()];
                    let bad = match arg % 3 {
                        0 => MessageId { partition: 2 + arg as u32, ..valid },
                        1 => MessageId { batch_index: valid.batch_size + arg as u32 % 2, ..valid },
                        _ => MessageId { batch_index: 0, batch_size: 0, ..valid },
                    };
                    let got = if arg % 2 == 0 {
                        consumer.ack(bad)
                    } else {
                        consumer.ack_batch(&[valid, bad])
                    };
                    prop_assert_eq!(got, Err(PulsarError::InvalidMessageId(bad)));
                }
                9 => {
                    prop_assert_eq!(consumer.redeliver_unacked().unwrap(), model.redeliver());
                    assert_pending_agrees(&c, &model, &format!("{step}, rewound"))?;
                    held.clear();
                    let mut redelivered = BTreeSet::new();
                    loop {
                        consumer.receive_entries_into(arg % 9 + 1, &mut views).unwrap();
                        if views.is_empty() {
                            break;
                        }
                        for view in &views {
                            model.delivered(view);
                            redelivered.extend(view.ids());
                        }
                        held.append(&mut views);
                    }
                    prop_assert_eq!(redelivered, model.unacked());
                }
                _ => {}
            }
            assert_pending_agrees(&c, &model, &step)?;
            assert_agrees(&c, &model, &step)?;
        }
    }

    /// One queue against one map, no broker in between: adds in any order
    /// (dispatch only ever adds at or past the back; the queue does not
    /// rely on it) and clamped takes leave the same live counts, and
    /// neither end is ever a tombstone.
    #[test]
    fn a_pending_queue_is_an_ordered_map(
        ops in vec((any::<bool>(), 0u64..3, 0u64..6, 0u32..4), 0..200),
    ) {
        let mut queue = PendingQueue::default();
        let mut map: BTreeMap<(LedgerId, u64), u32> = BTreeMap::new();
        for (add, ledger, entry, n) in ops {
            let key = (LedgerId(ledger), entry);
            if add {
                queue.add(key.0, key.1, n);
                if n > 0 {
                    *map.entry(key).or_insert(0) += n;
                }
            } else {
                let had = map.get(&key).copied().unwrap_or(0);
                prop_assert_eq!(queue.take(key.0, key.1, n), had.min(n));
                if had > n {
                    map.insert(key, had - n);
                } else {
                    map.remove(&key);
                }
            }
            let live: BTreeMap<(LedgerId, u64), u32> = queue
                .0
                .iter()
                .filter(|&&(_, _, n)| n > 0)
                .map(|&(l, e, n)| ((l, e), n))
                .collect();
            prop_assert_eq!(&live, &map);
            prop_assert!(queue.0.iter().is_sorted_by_key(|&(l, e, _)| (l, e)));
            for end in [queue.0.front(), queue.0.back()] {
                prop_assert!(end.is_none_or(|&(_, _, n)| n > 0), "tombstone at an end: {queue:?}");
            }
        }
        queue.clear();
        prop_assert!(queue.0.is_empty());
    }

    /// A cursor rewritten in place over whatever its node held is the
    /// 20 bytes of its three fields, and reads back as itself.
    #[test]
    fn cursor_round_trips(
        partition in any::<u32>(),
        ledger in any::<u64>(),
        entry in any::<u64>(),
        stale in vec(any::<u8>(), 0..40),
    ) {
        let id = MessageId::new(partition, LedgerId(ledger), entry);
        let meta = MetadataStore::new();
        meta.write("/c", |out| *out = stale);
        meta.write("/c", |out| put_cursor(out, &id));
        prop_assert_eq!(meta.get("/c").map(|v| v.data), Some(cursor_bytes(&id)));
        prop_assert_eq!(meta.read("/c", read_cursor), Some(id));
    }

    #[test]
    fn segment_list_round_trips(raw in vec(any::<u64>(), 0..24)) {
        let segs: Vec<LedgerId> = raw.into_iter().map(LedgerId).collect();
        let bytes = bytes_of(|out| put_segments(out, &segs));
        prop_assert_eq!(bytes.len(), 8 * segs.len());
        prop_assert_eq!(Reader::read_all(&bytes, read_segments), Some(segs));
    }

    /// Arbitrary bytes — raw, and a valid cursor or segment list cut short
    /// and with a byte flipped — never panic either parse, and what one
    /// accepts is the one encoding of what it returns: a segment list is
    /// bounded by the bytes given, never by a number read in them.
    #[test]
    fn hostile_bytes_do_not_move_the_cursor_decoders(
        raw in vec(any::<u8>(), 0..64),
        segs in vec(any::<u64>(), 0..6),
        cut in 0usize..56,
        flip in (0usize..56, any::<u8>()),
    ) {
        let damaged = |mut bytes: Vec<u8>| {
            bytes.truncate(cut);
            if let Some(b) = bytes.get_mut(flip.0) {
                *b ^= flip.1;
            }
            bytes
        };
        let cursor = damaged(cursor_bytes(&MessageId::new(1, LedgerId(7), 41)));
        let segs: Vec<LedgerId> = segs.into_iter().map(LedgerId).collect();
        let list = damaged(bytes_of(|out| put_segments(out, &segs)));
        for bytes in [&raw, &cursor, &list] {
            if let Some(id) = Reader::read_all(bytes, read_cursor) {
                prop_assert_eq!(&cursor_bytes(&id), bytes);
            }
            if let Some(segs) = Reader::read_all(bytes, read_segments) {
                prop_assert_eq!(&bytes_of(|out| put_segments(out, &segs)), bytes);
            }
        }
    }
}

/// A read position in a ledger trimmed behind it lands on entry 0 of the
/// oldest surviving segment, not at its old offset there. The scan stops
/// at the end of ledger 0; acks of entries never delivered move the
/// mark-delete to entry 0 of ledger 1; a trim drops ledger 0; the next
/// scan delivers entry 1 of ledger 1.
#[test]
fn a_read_position_in_a_trimmed_ledger_lands_on_the_oldest_survivor() {
    let mut log = MemLog::new(1, 4);
    let mut sub = SubState::new(TOPIC, SUB, SubscriptionMode::Exclusive, 1, |_| None);
    let mut ids: Vec<MessageId> = (0..4).flat_map(|i| log.publish(0, 1, i)).collect();
    assert_eq!(scan_all(&mut sub, &mut log).len(), 4);
    ids.extend((4..6).flat_map(|i| log.publish(0, 1, i)));
    let acks = ids[..5].iter().map(|&id| AckUnit::Id(id));
    sub.ack(&log, acks, |_, _| {}).unwrap();
    assert_eq!(sub.mark_delete[0], Some(ids[4]));
    log.trim(&sub.mark_delete);
    assert_eq!(log.segments(0), &[ids[4].ledger]);
    let delivered: Vec<MessageId> = scan_all(&mut sub, &mut log)
        .iter()
        .map(EntryView::entry_id)
        .collect();
    assert_eq!(delivered, vec![ids[5]]);
}

#[test]
fn malformed_cursors_and_segment_lists_decode_to_nothing() {
    let cursor = cursor_bytes(&MessageId::new(0, LedgerId(7), 41));
    for len in 0..cursor.len() {
        assert_eq!(
            Reader::read_all(&cursor[..len], read_cursor),
            None,
            "{len} bytes"
        );
    }
    let long = [&cursor[..], &[0]].concat();
    assert_eq!(Reader::read_all(&long, read_cursor), None);
    // A segment list is whole ids: 0, 8, 16… bytes.
    for len in [1, 7, 9, 15, 20] {
        assert_eq!(
            Reader::read_all(&long[..len], read_segments),
            None,
            "{len} bytes"
        );
    }
    assert_eq!(Reader::read_all(&[], read_segments), Some(Vec::new()));
    assert_eq!(
        Reader::read_all(&long[..16], read_segments),
        Some(vec![LedgerId(7 << 32), LedgerId(41 << 32)])
    );
}

/// The persisted cursor, pinned as bytes: 42 unbatched messages on one
/// partition, acked in order, leave partition 0, ledger 7, entry 41 — and
/// each in-order ack bumped the node's version by exactly one.
#[test]
fn in_order_acks_persist_the_literal_cursor_bytes() {
    let c = PulsarCluster::new(PulsarConfig::default(), WallClock::shared());
    // Seven ledgers' worth of ids go to other topics first.
    for i in 0..7 {
        let name = format!("other-{i}");
        c.create_topic(&name, 1).unwrap();
        c.producer(&name).unwrap().send(b"x").unwrap();
    }
    c.create_topic(TOPIC, 1).unwrap();
    let producer = c.producer(TOPIC).unwrap();
    let mut consumer = c
        .subscribe(TOPIC, SUB, SubscriptionMode::Exclusive)
        .unwrap();
    for i in 0..42u8 {
        producer.send(&[i]).unwrap();
    }
    let key = cursor_key(TOPIC, 0, SUB);
    assert_eq!(key, "/topics/t/0/cursor/s");
    for i in 0..42u64 {
        let m = consumer.receive().unwrap().unwrap();
        consumer.ack(m.id).unwrap();
        assert_eq!(c.metadata().get(&key).unwrap().version, i);
    }
    let cursor = |entry| cursor_bytes(&MessageId::new(0, LedgerId(7), entry));
    assert_eq!(c.metadata().get(&key).unwrap().data, cursor(41));
    // An out-of-order ack parks in the acked set and writes nothing.
    let ids: Vec<MessageId> = (0..3u8).map(|i| producer.send(&[i]).unwrap()).collect();
    consumer.ack(ids[2]).unwrap();
    assert_eq!(c.metadata().get(&key).unwrap().version, 41);
    assert_eq!(broker_acked(&c), BTreeSet::from([ids[2]]));
    // Filling the gap drains it: one write for the whole advance.
    consumer.ack(ids[0]).unwrap();
    consumer.ack(ids[1]).unwrap();
    let node = c.metadata().get(&key).unwrap();
    assert_eq!((node.data, node.version), (cursor(44), 43));
    assert!(broker_acked(&c).is_empty());
}

const ENTRIES: usize = 64;
const BATCH: usize = 64;
const MESSAGES: usize = ENTRIES * BATCH;

/// `ENTRIES` × `send_batch(BATCH)` on one partition, 16 entries a
/// ledger, so the log has sealed segments behind its open tail.
fn batched_log() -> (PulsarCluster, Vec<MessageId>) {
    let c = PulsarCluster::new(
        PulsarConfig {
            max_entries_per_ledger: 16,
            ..PulsarConfig::default()
        },
        WallClock::shared(),
    );
    c.create_topic(TOPIC, 1).unwrap();
    let producer = c.producer(TOPIC).unwrap();
    let mut ids = Vec::with_capacity(MESSAGES);
    for entry in 0..ENTRIES {
        let batch = [[entry as u8; 8]; BATCH];
        ids.extend(producer.send_batch(&batch).unwrap());
    }
    (c, ids)
}

/// A batched publish is one ledger entry: 4 096 messages name 64 entries.
#[test]
fn each_send_batch_appends_exactly_one_entry() {
    let (_c, ids) = batched_log();
    assert_eq!(ids.len(), MESSAGES);
    let entries: BTreeSet<(LedgerId, u64)> = ids.iter().map(|id| (id.ledger, id.entry)).collect();
    assert_eq!(entries.len(), ENTRIES);
}

/// The cursor is written once per completed entry, whatever the consumer
/// batch: draining 64 batched entries through each receive/ack path
/// leaves the node at version 63 — 64 writes for 4 096 messages.
#[test]
fn draining_a_batched_log_writes_the_cursor_once_per_entry() {
    type Drain = fn(&mut Consumer) -> usize;
    let one_by_one: Drain = |consumer| {
        let mut n = 0;
        while let Some(m) = consumer.receive().unwrap() {
            consumer.ack(m.id).unwrap();
            n += 1;
        }
        n
    };
    let batched: Drain = |consumer| {
        let mut n = 0;
        loop {
            let ms = consumer.receive_batch(BATCH).unwrap();
            if ms.is_empty() {
                return n;
            }
            let ids: Vec<MessageId> = ms.iter().map(|m| m.id).collect();
            consumer.ack_batch(&ids).unwrap();
            n += ms.len();
        }
    };
    let entry_views: Drain = |consumer| {
        let (mut n, mut views) = (0, Vec::new());
        loop {
            let got = consumer.receive_entries_into(BATCH, &mut views).unwrap();
            if got == 0 {
                return n;
            }
            consumer.ack_entries(&views).unwrap();
            n += got;
        }
    };
    for (path, drain) in [
        ("receive + ack", one_by_one),
        ("receive_batch + ack_batch", batched),
        ("receive_entries_into + ack_entries", entry_views),
    ] {
        let (c, ids) = batched_log();
        let mut consumer = c
            .subscribe(TOPIC, SUB, SubscriptionMode::Exclusive)
            .unwrap();
        assert_eq!(drain(&mut consumer), MESSAGES, "{path}");
        let node = c.metadata().get(&cursor_key(TOPIC, 0, SUB)).unwrap();
        assert_eq!(node.version, ENTRIES as u64 - 1, "{path}");
        let last = ids.last().unwrap().canonical();
        assert_eq!(node.data, cursor_bytes(&last), "{path}");
    }
}

/// A replay pass served from the read caches reads no ledger entry: with
/// dispatch profiling on, warm passes add exactly 0 to `read_ns`, and the
/// first pass after a broker restart, which refills the caches from the
/// bookies, adds more than 0.
#[test]
fn warm_replay_passes_read_no_entries() {
    let (c, _) = batched_log();
    let mut consumer = c
        .subscribe(TOPIC, SUB, SubscriptionMode::Exclusive)
        .unwrap();
    c.set_dispatch_profiling(true);
    let mut views = Vec::new();
    let mut pass = || {
        let before = c.dispatch_profile().read_ns;
        let mut n = 0;
        loop {
            let got = consumer.receive_entries_into(MESSAGES, &mut views).unwrap();
            if got == 0 {
                break;
            }
            n += got;
        }
        assert_eq!(n, MESSAGES);
        assert_eq!(consumer.redeliver_unacked().unwrap(), MESSAGES);
        c.dispatch_profile().read_ns - before
    };
    for warm in 0..4 {
        assert_eq!(pass(), 0, "warm pass {warm}");
    }
    c.restart_broker();
    assert!(pass() > 0, "the pass after a restart refills the caches");
    assert_eq!(pass(), 0, "and the one after it is warm again");
}
