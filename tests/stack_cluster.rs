//! Integration: the multi-node cluster fabric. Broker failover under a
//! mid-stream kill (at-least-once, no entry loss), causal trace contexts
//! and batch message identities surviving failover redelivery,
//! idempotent acks across the ownership move, bookie replacement with
//! background re-replication, and elastic Jiffy membership — all over
//! the simulated network.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use taureau::cluster::{ClusterStack, ClusterStackConfig, LinkFaults};
use taureau::core::clock::VirtualClock;
use taureau::core::trace::Tracer;
use taureau::prelude::*;
use taureau::pulsar::bookie::Bookie;
use taureau::pulsar::metadata::MetadataStore;

// ---------------------------------------------------------------------------
// Full-fabric scenarios (requests cross the simulated network).
// ---------------------------------------------------------------------------

#[test]
fn owner_kill_mid_stream_is_at_least_once_with_no_loss() {
    let mut s = ClusterStack::new(ClusterStackConfig {
        brokers: 5,
        ..Default::default()
    });
    // A lossy, jittery network underneath everything.
    s.fabric().net().set_default_faults(LinkFaults {
        latency: Duration::from_micros(500),
        jitter: Duration::from_micros(300),
        drop_p: 0.01,
        dup_p: 0.01,
    });
    s.create_topic("stream", 1).unwrap();

    let mut published = Vec::new();
    for i in 0..60u64 {
        if i == 30 {
            // Kill the topic owner mid-stream; the next publishes ride
            // through detection, lease failover, and cursor rebuild.
            let owner = s.pulsar().owner("stream").unwrap();
            s.kill(owner);
        }
        s.publish("stream", &i.to_le_bytes(), None).unwrap();
        published.push(i);
    }

    let mut got = std::collections::BTreeSet::new();
    let mut redelivered = 0u64;
    loop {
        let msgs = s.consume("stream", "s", 64, None).unwrap();
        if msgs.is_empty() {
            break;
        }
        for m in msgs {
            let mut b = [0u8; 8];
            b.copy_from_slice(&m.payload[..8]);
            if !got.insert(u64::from_le_bytes(b)) {
                redelivered += 1;
            }
            s.ack("stream", "s", m.id, None).unwrap();
        }
    }
    // At-least-once: every entry arrives; duplicates are allowed (and
    // expected — a retried publish after failover re-appends).
    for v in published {
        assert!(got.contains(&v), "entry {v} lost across failover");
    }
    let _ = redelivered; // informational: may be zero on clean schedules
}

#[test]
fn one_trace_spans_publish_failover_dispatch_and_invoke() {
    let mut s = ClusterStack::new(ClusterStackConfig::default());
    s.create_topic("orders", 1).unwrap();
    s.register_function(FunctionSpec::new("handle", "tenant", |ctx| {
        Ok(ctx.payload.to_vec())
    }))
    .unwrap();

    let tracer = s.fabric().tracer().clone();
    let root_ctx = {
        let mut root = tracer.span("stack-cluster-test", "e2e.request");
        root.attr("test", "trace-across-failover");
        root.context().expect("tracer enabled")
    };

    // Publish with the root context; the entry header stores the publish
    // span, a child of the client's root.
    s.publish("orders", b"order-1", Some(root_ctx)).unwrap();

    // Kill the owner BEFORE dispatch: the consumer that delivers the
    // message lives on a different broker node than the one that stored
    // it.
    let owner = s.pulsar().owner("orders").unwrap();
    s.kill(owner);
    s.run_for(Duration::from_millis(150));

    let msgs = s.consume("orders", "s", 8, None).unwrap();
    assert_eq!(msgs.len(), 1);
    let m = &msgs[0];
    let msg_ctx = m
        .ctx
        .expect("traced publish must carry ctx through failover");
    assert_eq!(
        msg_ctx.trace_id, root_ctx.trace_id,
        "dispatch hop lost the publish trace"
    );

    // The invocation joins the same trace, on yet another node.
    s.invoke("handle", &m.payload, m.ctx).unwrap();

    let spans = tracer.spans();
    let in_trace: Vec<_> = spans
        .iter()
        .filter(|sp| sp.trace_id == root_ctx.trace_id)
        .collect();
    let systems: std::collections::BTreeSet<&str> = in_trace.iter().map(|sp| sp.system).collect();
    assert!(
        systems.contains("taureau-pulsar") && systems.contains("taureau-faas"),
        "trace must cross pulsar and faas: {systems:?}"
    );
    assert!(
        in_trace.len() >= 4,
        "expected publish + cluster + dispatch + invoke spans, got {}",
        in_trace.len()
    );
    assert_eq!(tracer.dropped_spans(), 0);
}

#[test]
fn bookie_replacement_rereplicates_in_background() {
    let mut s = ClusterStack::new(ClusterStackConfig::default());
    s.create_topic("t", 1).unwrap();
    for i in 0..80u64 {
        s.publish("t", &i.to_le_bytes(), None).unwrap();
    }
    let victim = s.pulsar().bookie_nodes()[1];
    s.kill(victim);
    assert!(s.pulsar().underreplicated() > 0);

    // Repair happens in chunks across maintenance rounds, not at once.
    let first = s.maintain();
    assert_eq!(first.bookies_replaced, 1);
    let rounds = s.repair_until_replicated(500);
    assert!(rounds < 500, "repair never converged");
    assert_eq!(s.pulsar().underreplicated(), 0);

    // Durability: the full stream survives losing the original bookie
    // permanently, served from the restored replication factor.
    let mut seen = 0;
    loop {
        let msgs = s.consume("t", "verify", 64, None).unwrap();
        if msgs.is_empty() {
            break;
        }
        seen += msgs.len();
        for m in msgs {
            s.ack("t", "verify", m.id, None).unwrap();
        }
    }
    assert_eq!(seen, 80);
}

#[test]
fn jiffy_membership_join_leave_under_load() {
    let mut s = ClusterStack::new(ClusterStackConfig::default());
    let kv = s.jiffy().jiffy().create_kv("/app/state", 2).unwrap();
    for i in 0..48u64 {
        kv.put(&i.to_le_bytes(), &[3u8; 128]).unwrap();
    }
    let joined = s.join_memory_node();
    let leaving = s.jiffy().memory_nodes()[0];
    let report = s.leave_memory_node(leaving).unwrap();
    assert!(report.freed_blocks + report.blocks_moved > 0);
    s.run_for(Duration::from_millis(30));
    // Data intact; survivors absorbed the modeled transfer traffic.
    for i in 0..48u64 {
        assert!(kv.get(&i.to_le_bytes()).unwrap().is_some(), "lost key {i}");
    }
    if report.blocks_moved > 0 {
        let absorbed: u64 = s
            .jiffy()
            .memory_nodes()
            .iter()
            .map(|&n| s.jiffy().received_blocks(n))
            .sum();
        assert_eq!(absorbed, report.blocks_moved);
    }
    assert!(s.fabric().is_alive(joined));
}

// ---------------------------------------------------------------------------
// Two brokers over shared bookies/metadata: the precise failover
// semantics the fabric relies on, pinned without network noise.
// ---------------------------------------------------------------------------

/// Two broker instances over one bookie fleet + metadata store, with a
/// flip-able owner cell driving both fence checks.
fn shared_pair() -> (PulsarCluster, PulsarCluster, Arc<AtomicU64>, Tracer) {
    let clock: SharedClock = VirtualClock::shared();
    let tracer = Tracer::new(clock.clone());
    let cfg = PulsarConfig {
        bookies: 3,
        max_entries_per_ledger: 4,
        ..Default::default()
    };
    let bookies: Arc<Vec<Arc<Bookie>>> =
        Arc::new((0..3).map(|_| Arc::new(Bookie::new())).collect());
    let meta = Arc::new(MetadataStore::new());
    let a = PulsarCluster::with_shared(cfg.clone(), clock.clone(), bookies.clone(), meta.clone());
    let b = PulsarCluster::with_shared(cfg, clock, bookies, meta);
    a.set_tracer(tracer.clone());
    b.set_tracer(tracer.clone());
    let owner = Arc::new(AtomicU64::new(0));
    let (oa, ob) = (owner.clone(), owner.clone());
    a.set_fence_check(Arc::new(move |_t| oa.load(Ordering::SeqCst) == 0));
    b.set_fence_check(Arc::new(move |_t| ob.load(Ordering::SeqCst) == 1));
    (a, b, owner, tracer)
}

#[test]
fn failover_redelivery_preserves_ctx_and_batch_identity_and_ack_idempotence() {
    let (a, b, owner, _tracer) = shared_pair();
    a.create_topic("t", 1).unwrap();

    // Publish a batch under an open trace: each message gets a distinct
    // MessageId within the shared entry, and the entry header carries
    // the publish span context.
    let producer = a.producer("t").unwrap();
    let ids = producer.send_batch(&[b"m0", b"m1", b"m2"]).unwrap();
    assert_eq!(ids.len(), 3);
    assert!(ids.iter().all(|id| id.batch_size == 3));

    // Deliver on A without acking, capturing the pre-failover identity.
    let mut ca = a.subscribe("t", "s", SubscriptionMode::Shared).unwrap();
    let before = ca.receive_batch(8).unwrap();
    assert_eq!(before.len(), 3);
    let ctx_before: Vec<_> = before.iter().map(|m| m.ctx).collect();
    assert!(
        ctx_before.iter().all(|c| c.is_some()),
        "traced publish must stamp every batched message"
    );

    // Ownership moves to B. A is fenced; B rebuilds the subscription
    // from the metadata cursor and redelivers the unacked entry.
    owner.store(1, Ordering::SeqCst);
    assert!(matches!(
        a.producer("t").and_then(|p| p.send(b"zombie")),
        Err(taureau::pulsar::PulsarError::Fenced(_))
    ));
    let mut cb = b.subscribe("t", "s", SubscriptionMode::Shared).unwrap();
    let after = cb.receive_batch(8).unwrap();
    assert_eq!(
        after.len(),
        3,
        "unacked batch must redeliver after failover"
    );

    for (i, (pre, post)) in before.iter().zip(after.iter()).enumerate() {
        // Identity: the redelivered message is THE SAME message — same
        // ledger/entry/batch coordinates — so acks correlate across the
        // failover.
        assert_eq!(pre.id, post.id, "message {i} changed identity");
        assert_eq!(post.id.batch_index, i as u32);
        assert_eq!(post.id.batch_size, 3);
        assert_eq!(pre.payload, post.payload);
        // Causality: the trace context recovered from the entry header
        // names the same trace on both sides of the failover.
        let (pc, qc) = (pre.ctx.unwrap(), post.ctx.unwrap());
        assert_eq!(pc.trace_id, qc.trace_id, "message {i} lost its trace");
    }

    // Ack idempotence across the move: double-acks (client retried after
    // the failover) are absorbed, the cursor advances, storage reclaims.
    for m in &after {
        cb.ack(m.id).unwrap();
        cb.ack(m.id).unwrap(); // duplicate ack must be a no-op
    }
    assert_eq!(cb.redeliver_unacked().unwrap(), 0);
    assert!(cb.receive_batch(8).unwrap().is_empty());
}

#[test]
fn batched_cursor_commit_preserves_at_least_once_across_failover() {
    let (a, b, owner, _tracer) = shared_pair();
    a.create_topic("t", 1).unwrap();
    let producer = a.producer("t").unwrap();
    for i in 0..12u64 {
        producer.send(&i.to_le_bytes()).unwrap();
    }
    let mut ca = a.subscribe("t", "s", SubscriptionMode::Shared).unwrap();
    let mut msgs = Vec::new();
    while msgs.len() < 12 {
        let got = ca.receive_batch(64).unwrap();
        assert!(!got.is_empty(), "expected 12 messages, got {}", msgs.len());
        msgs.extend(got);
    }
    // One batched commit covers the first five messages: a single durable
    // cursor write instead of five.
    let first: Vec<_> = msgs.iter().take(5).map(|m| m.id).collect();
    ca.ack_batch(&first).unwrap();

    // Ownership moves before the rest is acked. The batched commit must
    // already be durable (nothing before it redelivers) and everything
    // after it must redeliver on the new owner: at-least-once, no loss.
    owner.store(1, Ordering::SeqCst);
    let mut cb = b.subscribe("t", "s", SubscriptionMode::Shared).unwrap();
    let mut redelivered = Vec::new();
    loop {
        let got = cb.receive_batch(64).unwrap();
        if got.is_empty() {
            break;
        }
        redelivered.extend(got);
    }
    let values: Vec<u64> = redelivered
        .iter()
        .map(|m| u64::from_le_bytes(m.payload[..8].try_into().unwrap()))
        .collect();
    assert_eq!(
        values,
        (5..12).collect::<Vec<_>>(),
        "batched commit lost or duplicated messages across failover"
    );
    let rest: Vec<_> = redelivered.iter().map(|m| m.id).collect();
    cb.ack_batch(&rest).unwrap();
    assert!(cb.receive_batch(64).unwrap().is_empty());
}

#[test]
fn partially_consumed_entry_view_redelivers_whole_entry_after_failover() {
    let (a, b, owner, _tracer) = shared_pair();
    a.create_topic("t", 1).unwrap();

    // One six-message batch = one ledger entry.
    let producer = a.producer("t").unwrap();
    let payloads: Vec<Vec<u8>> = (0..6u64).map(|i| i.to_le_bytes().to_vec()).collect();
    let ids = producer.send_batch(&payloads).unwrap();
    assert_eq!(ids.len(), 6);

    // A message budget of 4 cuts the entry mid-way: the consumer gets a
    // partial view over messages 0..4 of the 6-message entry, then dies
    // before acking anything.
    let mut ca = a.subscribe("t", "s", SubscriptionMode::Shared).unwrap();
    let views = ca.receive_entries(4).unwrap();
    assert_eq!(views.len(), 1);
    assert_eq!(views[0].batch_size(), 6);
    assert_eq!(views[0].len(), 4, "budget must cut the view short");
    assert!(!views[0].is_whole());
    drop(views);
    drop(ca);

    // Ownership moves. Nothing was acked, so the durable cursor still
    // points before the entry: the new owner must redeliver the WHOLE
    // entry as one whole view — at-least-once at entry granularity, the
    // partially-consumed prefix included.
    owner.store(1, Ordering::SeqCst);
    let mut cb = b.subscribe("t", "s", SubscriptionMode::Shared).unwrap();
    let after = cb.receive_entries(64).unwrap();
    assert_eq!(after.len(), 1, "whole entry must redeliver as one view");
    let view = &after[0];
    assert!(
        view.is_whole(),
        "redelivered view must cover the full entry"
    );
    assert_eq!(view.len(), 6);
    for (i, mv) in view.messages().enumerate() {
        assert_eq!(mv.id(), ids[i], "message {i} changed identity");
        assert_eq!(&mv.payload()[..], &payloads[i][..]);
    }

    // Entry-granular ack fully retires it: nothing left, nothing pending.
    cb.ack_entries(&after).unwrap();
    assert!(cb.receive_entries(8).unwrap().is_empty());
    assert_eq!(cb.redeliver_unacked().unwrap(), 0);
}

#[test]
fn cursor_survives_trim_plus_failover_without_skipping_entries() {
    let (a, b, owner, _tracer) = shared_pair();
    a.create_topic("t", 1).unwrap();
    let producer = a.producer("t").unwrap();
    // 12 entries at 4/ledger = 3 full segments.
    for i in 0..12u64 {
        producer.send(&i.to_le_bytes()).unwrap();
    }
    let mut ca = a.subscribe("t", "s", SubscriptionMode::Shared).unwrap();
    // Consume + ack the first segment and a bit of the second, then trim:
    // the first segment's ledger disappears from the topic.
    for _ in 0..5 {
        let m = ca.receive().unwrap().unwrap();
        ca.ack(m.id).unwrap();
    }
    a.trim_consumed("t").unwrap();

    // Failover. The new owner restores the cursor from the persisted
    // mark-delete, whose segment may have been trimmed — it must resume
    // exactly at the first unconsumed entry, not skip a segment.
    owner.store(1, Ordering::SeqCst);
    let mut cb = b.subscribe("t", "s", SubscriptionMode::Shared).unwrap();
    let rest = cb.receive_batch(64).unwrap();
    let values: Vec<u64> = rest
        .iter()
        .map(|m| {
            let mut x = [0u8; 8];
            x.copy_from_slice(&m.payload[..8]);
            u64::from_le_bytes(x)
        })
        .collect();
    assert_eq!(
        values,
        (5..12).collect::<Vec<u64>>(),
        "post-trim resume lost entries"
    );
    for m in &rest {
        cb.ack(m.id).unwrap();
    }
    assert!(cb.receive_batch(8).unwrap().is_empty());
}
