//! Property tests for the messaging layer: ledgers never lose or reorder
//! entries under arbitrary batching, and a subscription delivers exactly
//! the published sequence regardless of segment size or ack pattern.

use std::sync::Arc;

use bytes::Bytes;
use proptest::collection::vec;
use proptest::prelude::*;

use taureau_core::clock::WallClock;
use taureau_pulsar::bookie::Bookie;
use taureau_pulsar::broker::{PulsarCluster, PulsarConfig, SubscriptionMode};
use taureau_pulsar::ledger::{BookKeeper, LedgerConfig};
use taureau_pulsar::metadata::MetadataStore;

fn bookkeeper(n: usize) -> BookKeeper {
    let bookies: Arc<Vec<Arc<Bookie>>> =
        Arc::new((0..n).map(|i| Arc::new(Bookie::new(i))).collect());
    BookKeeper::new(bookies, Arc::new(MetadataStore::new()))
}

proptest! {
    /// Whatever is appended to a ledger reads back identically, entry by
    /// entry, for any replication parameters and entry contents.
    #[test]
    fn ledger_append_read_roundtrip(
        entries in vec(vec(any::<u8>(), 0..64), 1..60),
        ensemble in 1usize..5,
        wq_off in 0usize..4,
        aq_off in 0usize..4,
    ) {
        let write_quorum = (1 + wq_off % ensemble).min(ensemble);
        let ack_quorum = (1 + aq_off % write_quorum).min(write_quorum);
        let bk = bookkeeper(5);
        let cfg = LedgerConfig { ensemble, write_quorum, ack_quorum };
        let mut w = bk.create_ledger(cfg).unwrap();
        for e in &entries {
            w.append(Bytes::from(e.clone())).unwrap();
        }
        w.close().unwrap();
        for (i, e) in entries.iter().enumerate() {
            prop_assert_eq!(&bk.read_entry(w.id(), i as u64).unwrap()[..], &e[..]);
        }
        prop_assert_eq!(bk.last_entry(w.id()).unwrap(), Some(entries.len() as u64 - 1));
    }

    /// A single-partition topic delivers exactly the published payloads in
    /// order, for any segment-rollover size.
    #[test]
    fn topic_delivery_is_exact_and_ordered(
        payloads in vec(vec(any::<u8>(), 0..32), 1..80),
        max_per_ledger in 1u64..20,
    ) {
        let cfg = PulsarConfig {
            bookies: 3,
            ledger: LedgerConfig::default(),
            max_entries_per_ledger: max_per_ledger,
        };
        let c = PulsarCluster::new(cfg, WallClock::shared());
        c.create_topic("t", 1).unwrap();
        let p = c.producer("t").unwrap();
        for payload in &payloads {
            p.send(payload).unwrap();
        }
        let mut consumer = c.subscribe("t", "s", SubscriptionMode::Exclusive).unwrap();
        let got: Vec<Vec<u8>> = consumer
            .drain()
            .unwrap()
            .into_iter()
            .map(|m| m.payload.to_vec())
            .collect();
        prop_assert_eq!(got, payloads);
    }

    /// Acking an arbitrary subset and redelivering yields exactly the
    /// unacked remainder (no loss, no duplicates).
    #[test]
    fn redelivery_covers_exactly_the_unacked(
        n in 1usize..40,
        ack_mask in vec(any::<bool>(), 40),
    ) {
        let c = PulsarCluster::new(
            PulsarConfig { max_entries_per_ledger: 7, ..Default::default() },
            WallClock::shared(),
        );
        c.create_topic("t", 1).unwrap();
        let p = c.producer("t").unwrap();
        for i in 0..n as u64 {
            p.send(&i.to_le_bytes()).unwrap();
        }
        let mut consumer = c.subscribe("t", "s", SubscriptionMode::Exclusive).unwrap();
        let mut unacked = Vec::new();
        let mut idx = 0;
        while let Some(m) = consumer.receive().unwrap() {
            if ack_mask[idx % ack_mask.len()] {
                consumer.ack(m.id).unwrap();
            } else {
                unacked.push(m.payload.to_vec());
            }
            idx += 1;
        }
        consumer.redeliver_unacked().unwrap();
        let mut redelivered = Vec::new();
        while let Some(m) = consumer.receive().unwrap() {
            consumer.ack(m.id).unwrap();
            redelivered.push(m.payload.to_vec());
        }
        prop_assert_eq!(redelivered, unacked);
    }

    /// Batched publish/dispatch is observationally equivalent to unbatched:
    /// the same payload sequence split into arbitrary batch boundaries, read
    /// back with arbitrary `receive_batch` chunk sizes, yields the identical
    /// per-partition payload sequence, and acking by the returned
    /// (batch-indexed) `MessageId`s fully advances the cursor.
    #[test]
    fn batched_publish_dispatch_equals_unbatched(
        payloads in vec(vec(any::<u8>(), 0..24), 1..60),
        cuts in vec(1usize..8, 1..20),
        chunk in 1usize..9,
        max_per_ledger in 1u64..10,
    ) {
        let make = || {
            let cfg = PulsarConfig {
                bookies: 3,
                ledger: LedgerConfig::default(),
                max_entries_per_ledger: max_per_ledger,
            };
            let c = PulsarCluster::new(cfg, WallClock::shared());
            c.create_topic("t", 1).unwrap();
            c
        };
        // Reference: unbatched sends, one-at-a-time receive.
        let reference = make();
        let p = reference.producer("t").unwrap();
        for payload in &payloads {
            p.send(payload).unwrap();
        }
        let mut consumer = reference.subscribe("t", "s", SubscriptionMode::Exclusive).unwrap();
        let want: Vec<Vec<u8>> = consumer
            .drain()
            .unwrap()
            .into_iter()
            .map(|m| m.payload.to_vec())
            .collect();
        prop_assert_eq!(&want, &payloads);
        // Batched: same payloads split at arbitrary boundaries.
        let batched = make();
        let p = batched.producer("t").unwrap();
        let mut rest = &payloads[..];
        let mut cut = cuts.iter().cycle();
        let mut all_ids = Vec::new();
        while !rest.is_empty() {
            let take = (*cut.next().unwrap()).min(rest.len());
            let (head, tail) = rest.split_at(take);
            all_ids.extend(p.send_batch(head).unwrap());
            rest = tail;
        }
        prop_assert_eq!(all_ids.len(), payloads.len());
        let mut consumer = batched.subscribe("t", "s", SubscriptionMode::Exclusive).unwrap();
        let mut got = Vec::new();
        let mut got_ids = Vec::new();
        loop {
            let ms = consumer.receive_batch(chunk).unwrap();
            if ms.is_empty() {
                break;
            }
            for m in ms {
                consumer.ack(m.id).unwrap();
                got_ids.push(m.id);
                got.push(m.payload.to_vec());
            }
        }
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(got_ids, all_ids);
        // Every message was acked by its batch-indexed id: nothing left.
        prop_assert_eq!(consumer.redeliver_unacked().unwrap(), 0);
        prop_assert!(consumer.receive().unwrap().is_none());
    }

    /// Entry-view delivery is observationally equivalent to per-message
    /// delivery: two subscriptions over the same batched topic — one
    /// draining via `receive_batch`, one via `receive_entries` +
    /// `MessageView::to_message` — observe identical payloads, identical
    /// batch-indexed `MessageId` coordinates, identical keys and publish
    /// times, and the same trace linkage (both paths either carry no
    /// context or carry a context in the producer's trace), for arbitrary
    /// batch cuts, chunk sizes, and ctx-header presence.
    #[test]
    fn entry_view_delivery_equals_per_message_delivery(
        payloads in vec(vec(any::<u8>(), 0..24), 1..60),
        cuts in vec(1usize..8, 1..20),
        chunk in 1usize..9,
        traced in any::<bool>(),
    ) {
        use taureau_core::trace::Tracer;

        let c = PulsarCluster::new(
            PulsarConfig { max_entries_per_ledger: 6, ..Default::default() },
            WallClock::shared(),
        );
        let tracer = if traced {
            let t = Tracer::new(WallClock::shared());
            c.set_tracer(t.clone());
            Some(t)
        } else {
            None
        };
        c.create_topic("t", 1).unwrap();
        // Subscribe both BEFORE publishing so each starts at the head.
        let mut by_msg = c.subscribe("t", "a", SubscriptionMode::Exclusive).unwrap();
        let mut by_entry = c.subscribe("t", "b", SubscriptionMode::Exclusive).unwrap();
        let p = c.producer("t").unwrap();
        let mut rest = &payloads[..];
        let mut cut = cuts.iter().cycle();
        while !rest.is_empty() {
            let take = (*cut.next().unwrap()).min(rest.len());
            let (head, tail) = rest.split_at(take);
            p.send_batch(head).unwrap();
            rest = tail;
        }
        // Reference drain: per-message dispatch.
        let mut want = Vec::new();
        loop {
            let ms = by_msg.receive_batch(chunk).unwrap();
            if ms.is_empty() {
                break;
            }
            for m in ms {
                by_msg.ack(m.id).unwrap();
                want.push(m);
            }
        }
        // Entry-view drain with the same per-call message budget.
        let mut got = Vec::new();
        loop {
            let views = by_entry.receive_entries(chunk).unwrap();
            if views.is_empty() {
                break;
            }
            for view in &views {
                for mv in view.messages() {
                    got.push(mv.to_message());
                }
            }
            by_entry.ack_entries(&views).unwrap();
        }
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.id, w.id);
            prop_assert_eq!(&g.payload[..], &w.payload[..]);
            prop_assert_eq!(&g.key, &w.key);
            prop_assert_eq!(g.publish_time, w.publish_time);
            // Trace linkage: untraced publishes carry no context on either
            // path; traced ones carry a context rooted in the same trace.
            prop_assert_eq!(g.ctx.is_some(), traced);
            prop_assert_eq!(w.ctx.is_some(), traced);
            if let (Some(gc), Some(wc)) = (&g.ctx, &w.ctx) {
                prop_assert_eq!(gc.trace_id, wc.trace_id);
            }
        }
        drop(tracer);
        // Both cursors fully advanced: nothing redeliverable on either sub.
        prop_assert_eq!(by_msg.redeliver_unacked().unwrap(), 0);
        prop_assert_eq!(by_entry.redeliver_unacked().unwrap(), 0);
        prop_assert!(by_entry.receive().unwrap().is_none());
    }

    /// The Functions runtime (entry-view scans, one ack per scan) is
    /// observationally a sequential per-message loop: for arbitrary
    /// interleavings of `send`, `send_batch(1..=64)` and `run_available`
    /// over 1-3 input topics of 1-4 partitions, the body sees every
    /// message exactly once and in per-partition publish order, the output
    /// topic holds `f(input)` for exactly the inputs that produce one (in
    /// processing order), `processed` and the state counter equal the
    /// number sent, and nothing is left unacked.
    #[test]
    fn function_runtime_equals_per_message_model(
        parts in vec(1u32..5, 1..4),
        ops in vec((0usize..3, 0usize..66), 1..40),
    ) {
        use std::collections::BTreeMap;
        use parking_lot::Mutex;
        use taureau_jiffy::Jiffy;
        use taureau_pulsar::{FunctionConfig, FunctionRuntime};

        let c = PulsarCluster::new(
            PulsarConfig { max_entries_per_ledger: 9, ..Default::default() },
            WallClock::shared(),
        );
        let inputs: Vec<String> = (0..parts.len()).map(|t| format!("in-{t}")).collect();
        for (name, &n) in inputs.iter().zip(&parts) {
            c.create_topic(name, n).unwrap();
        }
        c.create_topic("out", 1).unwrap();
        let mut out = c.subscribe("out", "check", SubscriptionMode::Exclusive).unwrap();
        let rt = FunctionRuntime::new(c.clone(), Jiffy::with_defaults());
        // Payload = [topic, seq as u32 LE]; every third message is filtered.
        let emits = |payload: &[u8]| !payload[1].is_multiple_of(3);
        let seen = Arc::new(Mutex::new(Vec::<(u32, Vec<u8>)>::new()));
        let body_seen = Arc::clone(&seen);
        rt.register(
            FunctionConfig { name: "f".into(), inputs: inputs.clone(), output: Some("out".into()) },
            Box::new(move |msg, ctx| {
                body_seen.lock().push((msg.id.partition, msg.payload.to_vec()));
                ctx.increment(b"n", 1);
                emits(&msg.payload).then(|| [&msg.payload[..], &[0xAA]].concat())
            }),
        )
        .unwrap();
        let producers: Vec<_> = inputs.iter().map(|t| c.producer(t).unwrap()).collect();

        // Model: publish order per (topic, partition), from the returned ids.
        let mut published: BTreeMap<(u8, u32), Vec<Vec<u8>>> = BTreeMap::new();
        let mut sent = 0u32;
        let mut ran = 0usize;
        for &(topic, n) in &ops {
            let t = topic % inputs.len();
            if n == 0 {
                ran += rt.run_available("f").unwrap();
                continue;
            }
            let batch: Vec<Vec<u8>> = (0..n.max(2) - 1)
                .map(|_| {
                    sent += 1;
                    [&[t as u8][..], &sent.to_le_bytes()].concat()
                })
                .collect();
            let ids = if n == 1 {
                vec![producers[t].send(&batch[0]).unwrap()]
            } else {
                producers[t].send_batch(&batch).unwrap()
            };
            for (id, payload) in ids.iter().zip(batch) {
                published.entry((t as u8, id.partition)).or_default().push(payload);
            }
        }
        ran += rt.run_available("f").unwrap();

        prop_assert_eq!(ran, sent as usize);
        prop_assert_eq!(rt.processed("f").unwrap(), sent as u64);
        let seen = seen.lock();
        let mut got: BTreeMap<(u8, u32), Vec<Vec<u8>>> = BTreeMap::new();
        for (partition, payload) in seen.iter() {
            got.entry((payload[0], *partition)).or_default().push(payload.clone());
        }
        prop_assert_eq!(&got, &published);
        let want_out: Vec<Vec<u8>> = seen
            .iter()
            .filter(|(_, p)| emits(p))
            .map(|(_, p)| [&p[..], &[0xAA]].concat())
            .collect();
        let got_out: Vec<Vec<u8>> =
            out.drain().unwrap().into_iter().map(|m| m.payload.to_vec()).collect();
        prop_assert_eq!(got_out, want_out);
        let counter = rt
            .jiffy()
            .open_kv("/pulsar-functions/f/state")
            .unwrap()
            .get(b"n")
            .unwrap()
            .map(|v| i64::from_le_bytes(v[..].try_into().unwrap()));
        prop_assert_eq!(counter.unwrap_or(0), sent as i64);
        // Every scan was committed: the function's shared subscription has
        // nothing pending and nothing left to deliver on any input.
        for t in &inputs {
            let mut probe = c.subscribe(t, "fn-f", SubscriptionMode::Shared).unwrap();
            prop_assert_eq!(probe.redeliver_unacked().unwrap(), 0);
            prop_assert!(probe.receive().unwrap().is_none());
        }
    }

    /// Broker restart at any point preserves exactly the unconsumed suffix.
    #[test]
    fn restart_preserves_unconsumed_suffix(
        n in 1usize..50,
        consume in 0usize..50,
    ) {
        let consume = consume.min(n);
        let c = PulsarCluster::new(
            PulsarConfig { max_entries_per_ledger: 5, ..Default::default() },
            WallClock::shared(),
        );
        c.create_topic("t", 1).unwrap();
        let p = c.producer("t").unwrap();
        for i in 0..n as u64 {
            p.send(&i.to_le_bytes()).unwrap();
        }
        let mut consumer = c.subscribe("t", "s", SubscriptionMode::Exclusive).unwrap();
        for _ in 0..consume {
            let m = consumer.receive().unwrap().unwrap();
            consumer.ack(m.id).unwrap();
        }
        drop(consumer);
        c.restart_broker();
        let mut fresh = c.subscribe("t", "s", SubscriptionMode::Exclusive).unwrap();
        let rest: Vec<u64> = fresh
            .drain()
            .unwrap()
            .iter()
            .map(|m| u64::from_le_bytes(m.payload[..].try_into().unwrap()))
            .collect();
        prop_assert_eq!(rest, (consume as u64..n as u64).collect::<Vec<_>>());
    }
}
