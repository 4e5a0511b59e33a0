//! The partition read caches hold entries parsed once, at fill. What that
//! must not change: a log reads the same whichever way its cache was
//! filled, the one parse left stops hostile bytes, and a scan that meets
//! an unreadable entry keeps what it already collected.

use proptest::collection::vec;
use proptest::prelude::*;
use taureau_core::latency::LatencyModel;
use taureau_core::trace::SpanContext;

use super::cursor::cursor_key;
use super::*;

const TOPIC: &str = "t";
const SUB: &str = "s";

/// Everything a consumer can read off one view.
#[derive(Debug, PartialEq)]
struct Seen {
    entry: MessageId,
    batch_size: u32,
    ctx: Option<SpanContext>,
    publish_time: std::time::Duration,
    range: (u32, u32),
    skips: Vec<u32>,
    whole: bool,
    /// `(id, key, payload)` of each delivered message.
    messages: Vec<(MessageId, Option<Vec<u8>>, Vec<u8>)>,
}

fn seen(view: &EntryView) -> Seen {
    Seen {
        entry: view.entry_id(),
        batch_size: view.batch_size(),
        ctx: view.ctx(),
        publish_time: view.publish_time(),
        range: (view.first, view.end),
        skips: view.skips.clone(),
        whole: view.is_whole(),
        messages: view
            .messages()
            .map(|m| (m.id(), m.key().map(|k| k.to_vec()), m.payload().to_vec()))
            .collect(),
    }
}

/// Scan until nothing is left, `budget` messages a scan.
fn read_all(consumer: &mut Consumer, budget: usize) -> Vec<Seen> {
    let mut out = Vec::new();
    let mut views = Vec::new();
    while consumer.receive_entries_into(budget, &mut views).unwrap() > 0 {
        out.extend(views.iter().map(seen));
    }
    out
}

/// 4 entries a ledger, a zero-latency cold tier.
fn tiered_cluster() -> PulsarCluster {
    let c = PulsarCluster::new(
        PulsarConfig {
            max_entries_per_ledger: 4,
            ..PulsarConfig::default()
        },
        WallClock::shared(),
    );
    let blob = Arc::new(taureau_baas::BlobStore::with_latency(
        WallClock::shared(),
        LatencyModel::zero(),
        LatencyModel::zero(),
    ));
    c.enable_tiering(blob, "cold");
    c
}

proptest! {
    /// One log, four cache fills, one reading. Each entry is read from
    /// the open tail right after its publish; the whole log again once
    /// rollovers have moved most of it into `seal_tail`-inherited
    /// snapshots; after `restart_broker`, from snapshots `build_sealed`
    /// rebuilt off the bookies; and after `offload_sealed`, from the cold
    /// tier. Ids, trace context, publish time, keys, every payload byte,
    /// delivered ranges and `skips` (some batch indices are acked on their
    /// own first) agree, at an arbitrary scan budget.
    #[test]
    fn a_log_reads_the_same_from_every_cache_fill(
        entries in vec((0usize..5, vec(any::<u8>(), 0..24)), 1..30),
        acks in vec((0usize..64, 0u32..4), 0..8),
        budget in 1usize..12,
        traced in any::<bool>(),
    ) {
        let c = tiered_cluster();
        let tracer = Tracer::new(WallClock::shared());
        c.create_topic(TOPIC, 1).unwrap();
        let producer = c.producer(TOPIC).unwrap();
        let mut consumer = c.subscribe(TOPIC, SUB, SubscriptionMode::Exclusive).unwrap();

        let mut batched: Vec<Vec<MessageId>> = Vec::new();
        let mut from_tail = Vec::new();
        for (n, payload) in &entries {
            // Traced while publishing only: an untraced broker hands the
            // publish context through verbatim, so it can be compared.
            if traced {
                c.set_tracer(tracer.clone());
            }
            match n {
                0 => drop(producer.send_keyed(b"key", payload).unwrap()),
                1 => drop(producer.send(payload).unwrap()),
                _ => {
                    let batch: Vec<Vec<u8>> = (0..*n)
                        .map(|i| payload.iter().copied().chain([i as u8]).collect())
                        .collect();
                    batched.push(producer.send_batch(&batch).unwrap());
                }
            }
            c.set_tracer(Tracer::disabled());
            from_tail.extend(read_all(&mut consumer, usize::MAX));
        }
        prop_assert_eq!(from_tail.len(), entries.len());
        prop_assert!(from_tail.iter().all(|s| s.whole && s.ctx.is_some() == traced));

        prop_assert_eq!(consumer.redeliver_unacked().unwrap(), from_tail.iter().map(|s| s.messages.len()).sum::<usize>());
        let from_inherited = read_all(&mut consumer, usize::MAX);
        prop_assert_eq!(&from_inherited, &from_tail);

        // Ack a few batch indices on their own — never a whole entry, so
        // no cursor moves — and read again: views now carry `skips`.
        let mut partly: Vec<MessageId> = Vec::new();
        for &(pick, index) in &acks {
            let Some(ids) = batched.get(pick % batched.len().max(1)) else { break };
            let id = ids[index as usize % ids.len()];
            let acked_of_entry = partly.iter().filter(|a| a.canonical() == id.canonical()).count();
            if !partly.contains(&id) && acked_of_entry + 1 < ids.len() {
                partly.push(id);
            }
        }
        let ack_partly = |consumer: &Consumer| partly.iter().for_each(|&id| consumer.ack(id).unwrap());
        ack_partly(&consumer);
        consumer.redeliver_unacked().unwrap();
        let inherited = read_all(&mut consumer, budget);
        let delivered: Vec<MessageId> =
            inherited.iter().flat_map(|s| s.messages.iter().map(|m| m.0)).collect();
        let expected: Vec<MessageId> = from_tail
            .iter()
            .flat_map(|s| s.messages.iter().map(|m| m.0))
            .filter(|id| !partly.contains(id))
            .collect();
        prop_assert_eq!(delivered, expected);

        // A restart forgets partial acks along with the caches.
        c.restart_broker();
        ack_partly(&consumer);
        let rebuilt = read_all(&mut consumer, budget);
        prop_assert_eq!(&rebuilt, &inherited);

        prop_assert!(c.offload_sealed(TOPIC).unwrap() > 0);
        consumer.redeliver_unacked().unwrap();
        let from_tier = read_all(&mut consumer, budget);
        prop_assert!(c.metrics().counter("tier_reads").get() > 0);
        prop_assert_eq!(&from_tier, &inherited);
    }

    /// Arbitrary bytes — raw, and well-formed entries (keyed, batched,
    /// traced) cut short and with a byte flipped, so the structured paths
    /// are reached — never panic the one parse that everything downstream
    /// trusts. Whatever it accepts has its key and every payload inside
    /// the buffer it was given; whatever it refuses comes back whole.
    #[test]
    fn hostile_bytes_stop_at_the_cache_fill(
        raw in vec(any::<u8>(), 0..80),
        lens in vec(0usize..9, 0..7),
        shape in 0usize..4,
        cut in 0usize..240,
        flip in (0usize..240, any::<u8>()),
    ) {
        let payloads: Vec<Vec<u8>> = lens.iter().map(|&n| vec![0xab; n]).collect();
        let ctx = SpanContext::from_bytes(&[7u8; SpanContext::WIRE_LEN]);
        let key = &raw[..raw.len().min(9)];
        let formed = match shape {
            0 => Bytes::from(raw.clone()),
            1 => entry::encode(Some(key), None, 42, &[raw.as_slice()]).unwrap(),
            2 => entry::encode(None, None, 42, &payloads).unwrap(),
            _ => entry::encode(Some(key), ctx, 42, &payloads).unwrap(),
        };
        let mut bytes = formed.to_vec();
        bytes.truncate(cut.max(1));
        if let Some(b) = bytes.get_mut(flip.0) {
            *b ^= flip.1;
        }
        let bytes = Bytes::from(bytes);

        match ParsedEntry::parse(&bytes) {
            Ok(parsed) => {
                prop_assert_eq!(parsed.raw(), &bytes);
                if let Some((start, end)) = parsed.key_range() {
                    prop_assert!(start <= end && end <= bytes.len());
                }
                let mut at = 0;
                for i in 0..parsed.count() {
                    let (start, end) = parsed.item_range(i);
                    prop_assert!(at <= start && start <= end && end <= bytes.len());
                    at = end;
                }
            }
            Err(refused) => prop_assert_eq!(refused, bytes),
        }
    }
}

/// A batched entry whose offset table is corrupt, read back from a
/// bookie: it is cached refused, and dispatch answers `EntryUnavailable`
/// at that entry, every time, after delivering what precedes it.
#[test]
fn a_corrupt_batch_off_a_bookie_is_refused_not_cached() {
    let c = tiered_cluster();
    c.create_topic(TOPIC, 1).unwrap();
    c.producer(TOPIC).unwrap().send(b"published").unwrap();
    // A ledger nobody published through the broker, spliced into the
    // segment list the next owner loads.
    let mut w = c
        .bookkeeper()
        .create_ledger(LedgerConfig::default())
        .unwrap();
    let mut corrupt = entry::encode(None, None, 9, &[b"aa".as_slice(), b"bbb"])
        .unwrap()
        .to_vec();
    corrupt[17..21].copy_from_slice(&100u32.to_le_bytes()); // ends past the buffer
    let corrupt = Bytes::from(corrupt);
    w.append(entry::encode(None, None, 7, &[b"fine"]).unwrap())
        .unwrap();
    w.append(corrupt.clone()).unwrap();
    w.append(entry::encode(None, None, 8, &[b"beyond"]).unwrap())
        .unwrap();
    w.close().unwrap();
    let key = format!("/topics/{TOPIC}/0/segments");
    let mut segments = c.metadata().read(&key, read_segments).unwrap();
    segments.push(w.id());
    c.metadata().write(&key, |out| put_segments(out, &segments));
    c.restart_broker();

    let mut consumer = c
        .subscribe(TOPIC, SUB, SubscriptionMode::Exclusive)
        .unwrap();
    let views = consumer.receive_entries(100).unwrap();
    let payloads: Vec<Vec<u8>> = views
        .iter()
        .flat_map(|v| v.messages().map(|m| m.payload().to_vec()))
        .collect();
    assert_eq!(payloads, [b"published".to_vec(), b"fine".to_vec()]);
    let refused = PulsarError::EntryUnavailable {
        ledger: w.id(),
        entry: 1,
    };
    for _ in 0..2 {
        assert_eq!(consumer.receive_entries(100).unwrap_err(), refused);
        assert_eq!(consumer.receive().unwrap_err(), refused);
    }
    let cached = c
        .with_topic(TOPIC, |_, t| Ok(t.partitions[0].sealed[&w.id()][1].clone()))
        .unwrap();
    let kept = cached.expect_err("no table is cached for it");
    assert_eq!(kept, corrupt);
    // What was delivered acks normally; the refusal stays where it is.
    consumer.ack_entries(&views).unwrap();
    assert_eq!(consumer.redeliver_unacked().unwrap(), 0);
    assert_eq!(consumer.receive_entries(100).unwrap_err(), refused);
}

/// A scan that cannot read its second segment (bookies down, no cold
/// tier) still hands over the first segment's views: they moved the
/// cursor and are pending, so failing the whole scan would strand them
/// until the next `redeliver_unacked`. The error is the next scan's.
#[test]
fn a_mid_scan_read_error_keeps_what_the_scan_delivered() {
    let c = PulsarCluster::new(
        PulsarConfig {
            max_entries_per_ledger: 4,
            ..PulsarConfig::default()
        },
        WallClock::shared(),
    );
    c.create_topic(TOPIC, 1).unwrap();
    let producer = c.producer(TOPIC).unwrap();
    for i in 0..6u8 {
        producer.send_batch(&[[i, 0], [i, 1]]).unwrap();
    }
    // Nothing cached; then the first segment's snapshot alone is built.
    c.restart_broker();
    let mut consumer = c
        .subscribe(TOPIC, SUB, SubscriptionMode::Exclusive)
        .unwrap();
    assert_eq!(consumer.receive_entries(8).unwrap().len(), 4);
    assert_eq!(consumer.redeliver_unacked().unwrap(), 8);
    c.bookies().iter().for_each(|b| b.crash());

    let views = consumer.receive_entries(100).unwrap();
    assert_eq!(views.len(), 4);
    assert_eq!(views.iter().map(EntryView::len).sum::<usize>(), 8);
    assert!(matches!(
        consumer.receive_entries(100),
        Err(PulsarError::EntryUnavailable { entry: 0, .. })
    ));
    // The delivered views ack normally: the cursor reaches the end of
    // the first segment and nothing is left outstanding.
    consumer.ack_entries(&views).unwrap();
    let cursor = c.metadata().read(&cursor_key(TOPIC, 0, SUB), read_cursor);
    assert_eq!(cursor, Some(views[3].entry_id()));
    assert_eq!(consumer.redeliver_unacked().unwrap(), 0);
    // The bookies return, and so does the rest of the log.
    c.bookies().iter().for_each(|b| b.restart());
    let rest = consumer.receive_entries(100).unwrap();
    assert_eq!(rest.iter().map(EntryView::len).sum::<usize>(), 4);
    assert_ne!(rest[0].entry_id().ledger, views[3].entry_id().ledger);
}
