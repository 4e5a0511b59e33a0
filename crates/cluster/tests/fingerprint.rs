//! A pinned virtual-time fingerprint of one scripted run.
//!
//! Everything asserted here is a function of the seed and the script
//! alone — virtual time, envelope counts, the control-plane epoch, which
//! messages the client was served, the membership transitions each node's
//! detector reported — and none of it
//! may move when the *wall* cost of running the fabric changes. The
//! constants were captured on the commit before membership became
//! incremental state (PR 12) — and, for the telemetry plane's own traffic,
//! on the commit before agents encoded events at record time and the
//! collector read batches in place (PR 16); a PR that shifts any of them
//! has changed behaviour, not just speed.

use std::time::Duration;

use taureau_cluster::{ClusterStack, ClusterStackConfig, LinkFaults, LossAccounting, ObsEvent};
use taureau_core::hash::fnv;
use taureau_faas::FunctionSpec;

const TOPIC: &str = "fp";
const SUB: &str = "s";

/// Consume, invoke and ack until the subscription runs dry; the payload
/// sequence numbers served, in order.
fn drain(s: &mut ClusterStack) -> Vec<u64> {
    let mut served = Vec::new();
    loop {
        let msgs = s.consume(TOPIC, SUB, 8, None).expect("consume");
        if msgs.is_empty() {
            return served;
        }
        for m in msgs {
            let out = s.invoke("echo", &m.payload, m.ctx).expect("invoke");
            served.push(u64::from_le_bytes(out[..8].try_into().expect("8 bytes")));
            s.ack(TOPIC, SUB, m.id, None).expect("ack");
        }
    }
}

#[test]
fn scripted_failover_has_a_fixed_virtual_time_fingerprint() {
    let mut s = ClusterStack::new(ClusterStackConfig {
        seed: 0x12,
        observability: true,
        rpc_attempts: 6,
        ..ClusterStackConfig::default()
    });
    // Jitter, drops and duplicates draw from the transport's one random
    // stream in send order, so the fingerprint also pins the order in
    // which the pump lets nodes handle (and answer) their mail.
    s.fabric().net().set_default_faults(LinkFaults {
        latency: Duration::from_micros(500),
        jitter: Duration::from_micros(200),
        drop_p: 0.01,
        dup_p: 0.05,
    });
    s.create_topic(TOPIC, 1).expect("topic");
    s.register_function(FunctionSpec::new("echo", "fp", |ctx| {
        Ok(ctx.payload.to_vec())
    }))
    .expect("register");

    for i in 0..120u64 {
        s.publish(TOPIC, &i.to_le_bytes(), None).expect("publish");
    }
    let before = drain(&mut s);
    let victim = s.pulsar().owner(TOPIC).expect("owner");
    s.kill(victim);
    for i in 120..160u64 {
        s.publish(TOPIC, &i.to_le_bytes(), None).expect("publish");
    }
    let after = drain(&mut s);
    s.revive(victim);
    s.run_for(Duration::from_millis(300));
    assert!(s.drain_telemetry(Duration::from_secs(5)), "telemetry sync");

    let stats = s.fabric().net().stats();
    let epoch = s.fabric().control().lock().epoch();
    let membership: Vec<String> = s
        .obs()
        .expect("plane")
        .collector()
        .events()
        .into_iter()
        .filter_map(|e| match e.event {
            ObsEvent::Membership { peer, up } => Some(format!(
                "{}us n{} {} n{peer}",
                e.hlc.time().as_micros(),
                e.node.raw(),
                if up { "up" } else { "down" },
            )),
            _ => None,
        })
        .collect();
    let served = format!("{before:?} / {after:?}");
    let fingerprint = (
        s.now().as_micros(),
        stats.sent,
        stats.delivered,
        epoch,
        (before.len(), after.len(), fnv(served.as_bytes())),
        (membership.len(), fnv(membership.join("\n").as_bytes())),
    );
    println!("fingerprint: {fingerprint:?}");
    println!("served: {served}");
    println!("{}", membership.join("\n"));

    // At-least-once, so the served counts are not 120 and 40: a publish
    // retried after a dropped response is served twice, and a message
    // whose `recv` response was lost stays pending until a later failover.
    assert_eq!(
        fingerprint,
        (
            4_342_000,
            40_589,
            42_121,
            6,
            (125, 35, 157_083_589_142_476_016),
            (521, 5_765_538_494_904_698_432)
        ),
        "(now µs, sent, delivered, epoch, served (before, after, hash), membership events (count, hash))"
    );
    // The first transition is the echo function's cold start moving the
    // shared virtual clock past every deadline at once; the last is the
    // revived broker re-admitting its final peer.
    // When agents flush and what the network does to their batches: the
    // telemetry plane sends on the same links and draws from the same
    // random stream as everything else, so its cadence is pinned too.
    let obs = s.obs().expect("plane");
    assert_eq!(
        (
            obs.collector().batches_received(),
            obs.collector().events_received(),
            obs.loss_accounting(),
        ),
        (
            1_431,
            3_251,
            LossAccounting {
                sent: 3_304,
                received: 3_251,
                dropped: 53,
                pending: 0,
                pending_lost: 0,
                batches_sent: 1_443,
                batches_received: 1_431,
            }
        ),
        "(batches received, events received, loss accounting)"
    );
    assert_eq!(membership[0], "1693000us n0 down n1");
    assert_eq!(membership[membership.len() - 1], "4060000us n0 up n14");
}
