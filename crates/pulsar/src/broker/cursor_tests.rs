//! What the ack path must keep exactly: the cursor fold against its
//! reference (insert the id, then drain the acked set while the next
//! position is in it), the pending queues against the ordered map they
//! replaced, the persisted cursor text, and the metadata decoders on bytes
//! nobody vouches for.

use proptest::collection::vec;
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::Rng;
use taureau_core::rng::det_rng;

use super::*;

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
    /// view, or `ack_batch` on a run covering every index in order).
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

    /// `ack_batch`: a run covering every index of one entry in order is
    /// one whole-entry ack, anything else goes id by id — the split
    /// `ack_many` makes.
    fn ack_batch(&mut self, ids: &[MessageId]) {
        let mut i = 0;
        while i < ids.len() {
            let id = ids[i];
            let n = id.batch_size as usize;
            let whole = id.batch_size > 1
                && ids.get(i..i + n).is_some_and(|run| {
                    run.iter()
                        .enumerate()
                        .all(|(k, x)| x.canonical() == id.canonical() && x.batch_index == k as u32)
                });
            if whole {
                self.ack_whole(id.canonical());
                i += n;
            } else {
                self.ack(id);
                i += 1;
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

    /// The persisted form, as `format!` prints it: the text
    /// `write_cursor` must produce byte for byte.
    fn cursor_text(&self, p: usize) -> Option<Vec<u8>> {
        self.cursor(p)
            .map(|id| format!("{};{};{}", id.partition, id.ledger.raw(), id.entry).into_bytes())
    }
}

/// The broker's cursor state for the one subscription under test.
fn broker_cursors(c: &PulsarCluster) -> (Vec<Option<MessageId>>, BTreeSet<MessageId>) {
    c.with_topic(TOPIC, |_, t| {
        let sub = &t.subs[SUB];
        Ok((sub.mark_delete.clone(), sub.acked.clone()))
    })
    .unwrap()
}

fn assert_agrees(c: &PulsarCluster, model: &Model, step: &str) -> std::result::Result<(), String> {
    fn same<T: PartialEq + std::fmt::Debug>(
        what: &str,
        step: &str,
        broker: T,
        reference: T,
    ) -> std::result::Result<(), String> {
        prop_assert!(
            broker == reference,
            "{what} {step}: broker {broker:?}, reference {reference:?}"
        );
        Ok(())
    }
    let (mark_delete, acked) = broker_cursors(c);
    for (p, &cursor) in mark_delete.iter().enumerate() {
        same("mark-delete", step, cursor, model.cursor(p))?;
        let stored = c.metadata().get(&cursor_key(TOPIC, p, SUB)).map(|v| v.data);
        same("cursor bytes", step, stored, model.cursor_text(p))?;
    }
    same("acked-set residue", step, &acked, &model.acked)
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

/// Everything the subscription has to deliver right now (one scan may
/// stop short of a partition it did not start on).
fn receive_all(consumer: &mut Consumer) -> Vec<Message> {
    let mut out = Vec::new();
    loop {
        let batch = consumer.receive_batch(64).unwrap();
        if batch.is_empty() {
            return out;
        }
        out.extend(batch);
    }
}

proptest! {
    /// Any ack order — in order, reversed, shuffled, with duplicates,
    /// batched entries index by index — leaves the broker where the
    /// reference fold leaves the model after every single ack: same
    /// mark-delete, same residue in the acked set, same bytes in the
    /// metadata store; across segment rollovers (4 entries a ledger),
    /// trims and broker restarts. A restarted broker then resumes each
    /// partition at the entry after its cursor.
    #[test]
    fn ack_fold_matches_the_reference_fold(
        batch_sizes in vec(1usize..4, 6..40),
        order_kind in 0usize..3,
        seed in any::<u64>(),
        duplicate_every in 2usize..9,
        disturb_every in 3usize..17,
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
        let mut ids = Vec::new();
        for (i, &n) in batch_sizes.iter().enumerate() {
            let payloads: Vec<Vec<u8>> = (0..n).map(|k| vec![i as u8, k as u8]).collect();
            // One payload takes the unbatched path (`send`), as `n == 1`
            // does inside `send_batch`; a key pins some to one partition.
            let sent = if n == 1 && i % 3 == 0 {
                vec![producer.send_keyed(b"k", &payloads[0]).unwrap()]
            } else {
                producer.send_batch(&payloads).unwrap()
            };
            for id in sent {
                model.published(id);
                ids.push(id);
            }
        }
        prop_assert_eq!(receive_all(&mut consumer).len(), ids.len());

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

        for (i, &id) in acks.iter().enumerate() {
            consumer.ack(id).unwrap();
            model.ack(id);
            assert_agrees(&c, &model, &format!("after ack {i} ({id:?})"))?;
            if i % disturb_every == disturb_every - 1 {
                if rng.gen_bool(0.5) {
                    c.trim_consumed(TOPIC).unwrap();
                    assert_agrees(&c, &model, &format!("after the trim at ack {i}"))?;
                } else {
                    c.restart_broker();
                    model.restart();
                    assert_agrees(&c, &model, &format!("after the restart at ack {i}"))?;
                }
            }
        }
        // Everything was acked at least once, but a restart forgot the
        // individual acks above the cursor of its day: what a restarted
        // broker delivers first, per partition, is the entry after the
        // cursor — in the model as in the store.
        c.restart_broker();
        model.restart();
        let mut first_delivered: Vec<Option<MessageId>> = vec![None; model.order.len()];
        for m in receive_all(&mut consumer) {
            first_delivered[m.id.partition as usize].get_or_insert(m.id.canonical());
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
    /// trims, restarts and `redeliver_unacked`, the live queue entries, the
    /// running total and the cursor state equal the reference after every
    /// step; `redeliver_unacked` returns the reference's count and the
    /// rewound subscription then delivers exactly the unacked messages.
    #[test]
    fn pending_queues_match_the_reference_map(
        ops in vec((0usize..10, 0usize..64), 40..160),
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
                    model.ack_batch(&batch);
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

    /// `write_cursor` is the `p;ledger;entry` text `decode_cursor` reads,
    /// digit for digit what `format!` printed, into a buffer that held
    /// anything before.
    #[test]
    fn cursor_text_round_trips(
        partition in any::<u32>(),
        ledger in any::<u64>(),
        entry in any::<u64>(),
        shift in 0u32..64,
        stale in vec(any::<u8>(), 0..40),
    ) {
        // Shifted down so short numbers (and the digit-count boundaries
        // below) are as likely as 20-digit ones.
        let id = MessageId::new(partition >> (shift % 32), LedgerId(ledger >> shift), entry >> shift);
        let mut buf = stale;
        write_cursor(&mut buf, &id);
        prop_assert_eq!(
            &buf,
            &format!("{};{};{}", id.partition, id.ledger.raw(), id.entry).into_bytes()
        );
        prop_assert_eq!(decode_cursor(&buf), Some(id));
    }

    #[test]
    fn segment_list_round_trips(raw in vec(any::<u64>(), 0..24)) {
        let segs: Vec<LedgerId> = raw.into_iter().map(LedgerId).collect();
        prop_assert_eq!(decode_segments(&encode_segments(&segs)), segs);
    }

    /// Arbitrary bytes — raw, and drawn from the decoders' own alphabet so
    /// that the structured paths are reached — never panic, and what comes
    /// back is bounded by the bytes given, never by a number read in them.
    #[test]
    fn hostile_bytes_do_not_move_the_cursor_decoders(
        raw in vec(any::<u8>(), 0..64),
        picks in vec(0usize..16, 0..64),
    ) {
        const ALPHABET: &[u8; 16] = b"0123456789;;,,-\xff";
        let shaped: Vec<u8> = picks.iter().map(|&i| ALPHABET[i]).collect();
        for bytes in [&raw, &shaped] {
            let _ = decode_cursor(bytes);
            prop_assert!(decode_segments(bytes).len() <= bytes.len());
        }
    }
}

#[test]
fn cursor_text_at_the_digit_boundaries() {
    let mut buf = Vec::new();
    for (id, text) in [
        (MessageId::new(0, LedgerId(0), 0), &b"0;0;0"[..]),
        (MessageId::new(3, LedgerId(9), 10), b"3;9;10"),
        (MessageId::new(10, LedgerId(99), 100), b"10;99;100"),
        (
            MessageId::new(u32::MAX, LedgerId(u64::MAX), u64::MAX),
            b"4294967295;18446744073709551615;18446744073709551615",
        ),
        // A shorter text over a longer one leaves no tail behind.
        (MessageId::new(1, LedgerId(2), 3), b"1;2;3"),
    ] {
        write_cursor(&mut buf, &id);
        assert_eq!(buf, text);
    }
}

#[test]
fn malformed_cursors_and_segment_lists_decode_to_nothing() {
    for bad in [
        &b""[..],
        b";",
        b"0;7",
        b"0;7;",
        b"-1;7;41",
        b"0;7;4x",
        b"4294967296;7;41",
        b"0;18446744073709551616;41",
        b"0;7;41\xff",
    ] {
        assert_eq!(decode_cursor(bad), None, "{bad:?}");
    }
    // Fields past the third are ignored, as they always were.
    assert_eq!(
        decode_cursor(b"0;7;41;junk"),
        Some(MessageId::new(0, LedgerId(7), 41))
    );
    assert_eq!(decode_segments(b"\xff\xfe"), Vec::new());
    assert_eq!(
        decode_segments(b",,3,x,18446744073709551616,5,"),
        vec![LedgerId(3), LedgerId(5)]
    );
}

/// The persisted cursor, pinned as bytes: 42 unbatched messages on one
/// partition, acked in order, leave partition 0, ledger 7, entry 41 — and
/// each in-order ack bumped the node's version by exactly one.
#[test]
fn in_order_acks_persist_the_literal_cursor_text() {
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
    assert_eq!(c.metadata().get(&key).unwrap().data, b"0;7;41");
    // An out-of-order ack parks in the acked set and writes nothing.
    let ids: Vec<MessageId> = (0..3u8).map(|i| producer.send(&[i]).unwrap()).collect();
    consumer.ack(ids[2]).unwrap();
    assert_eq!(c.metadata().get(&key).unwrap().version, 41);
    assert_eq!(broker_cursors(&c).1, BTreeSet::from([ids[2]]));
    // Filling the gap drains it: one write for the whole advance.
    consumer.ack(ids[0]).unwrap();
    consumer.ack(ids[1]).unwrap();
    let node = c.metadata().get(&key).unwrap();
    assert_eq!((node.data.as_slice(), node.version), (&b"0;7;44"[..], 43));
    assert!(broker_cursors(&c).1.is_empty());
}
