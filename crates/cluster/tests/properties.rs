//! Property tests for the cluster fabric's two foundational guarantees:
//!
//! 1. **Per-link FIFO**: whatever the fault schedule does — latency,
//!    jitter, drops, duplicates, partitions — the messages a link
//!    *delivers* are never reordered. The delivered sequence numbers on
//!    any directed link are non-decreasing, and strictly increasing once
//!    duplicates are collapsed.
//! 2. **Partition-heal convergence**: after an arbitrary sequence of
//!    partitions ends with a heal and the cluster runs quietly, every
//!    live node's membership view converges to the same single view —
//!    the full live set.
//! 3. **HLC causal ordering**: hybrid logical clock stamps order every
//!    send before its receive in the merged timeline, whatever the
//!    SimNet delivery delays and per-node clock skews do — the
//!    observability plane's merged event stream depends on it.
//! 4. **Lease views are read whole**: a [`LeaseReader`] racing the
//!    control plane sees only views the control plane published, in
//!    epoch order — the broker fence check depends on it.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Duration;

use bytes::Bytes;
use proptest::collection::vec;
use proptest::prelude::*;

use taureau_cluster::fabric::{ClusterFabric, NodeRole};
use taureau_cluster::membership::{ControlPlane, LeaseView, MembershipConfig};
use taureau_cluster::transport::{Delivery, LinkFaults, SimNet};
use taureau_core::id::NodeId;
use taureau_core::trace::{HlcClock, HlcStamp};

/// One step of an arbitrary fault schedule.
#[derive(Debug, Clone)]
enum FaultStep {
    /// Send a message on link (from, to) out of 4 nodes.
    Send(u8, u8),
    /// Advance time by this many milliseconds.
    Advance(u8),
    /// Re-roll the default fault model.
    Faults {
        drop_pct: u8,
        dup_pct: u8,
        jitter_ms: u8,
    },
    /// Split nodes {0,1} | {2,3}.
    PartitionHalves,
    /// Heal any partition.
    Heal,
}

fn fault_step() -> impl Strategy<Value = FaultStep> {
    prop_oneof![
        (0u8..4, 0u8..4).prop_map(|(a, b)| FaultStep::Send(a, b)),
        (1u8..20).prop_map(FaultStep::Advance),
        (0u8..60, 0u8..60, 0u8..10).prop_map(|(drop_pct, dup_pct, jitter_ms)| FaultStep::Faults {
            drop_pct,
            dup_pct,
            jitter_ms
        }),
        Just(FaultStep::PartitionHalves),
        Just(FaultStep::Heal),
    ]
}

proptest! {
    /// Delivered messages on every directed link carry non-decreasing
    /// per-link sequence numbers (FIFO), with repeats only from
    /// duplication — under any schedule of sends, advances, fault
    /// re-rolls, partitions, and heals.
    #[test]
    fn delivered_messages_are_per_link_fifo(
        seed in any::<u64>(),
        steps in vec(fault_step(), 1..120),
    ) {
        let net = SimNet::new(seed);
        let mut delivered: HashMap<(NodeId, NodeId), Vec<u64>> = HashMap::new();
        let mut advance = |net: &SimNet, d: Duration| {
            net.advance_with(d, |delivery| {
                if let Delivery::Env(env) = delivery {
                    delivered.entry((env.from, env.to)).or_default().push(env.seq);
                }
            });
        };
        for step in steps {
            match step {
                FaultStep::Send(a, b) if a != b => {
                    net.send(NodeId(a as u64), NodeId(b as u64), 0, "m", Bytes::new(), None);
                }
                FaultStep::Send(..) => {}
                FaultStep::Advance(ms) => advance(&net, Duration::from_millis(ms as u64)),
                FaultStep::Faults { drop_pct, dup_pct, jitter_ms } => {
                    net.set_default_faults(LinkFaults {
                        latency: Duration::from_micros(500),
                        jitter: Duration::from_millis(jitter_ms as u64),
                        drop_p: drop_pct as f64 / 100.0,
                        dup_p: dup_pct as f64 / 100.0,
                    });
                }
                FaultStep::PartitionHalves => {
                    net.partition(&[&[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)]]);
                }
                FaultStep::Heal => net.heal(),
            }
        }
        // Flush everything still in flight.
        advance(&net, Duration::from_secs(10));
        for ((from, to), seqs) in &delivered {
            // Non-decreasing: FIFO with duplicates adjacent-or-later.
            prop_assert!(
                seqs.windows(2).all(|w| w[0] <= w[1]),
                "link {from}->{to} reordered: {seqs:?}"
            );
            // Collapsing duplicates gives strictly increasing sequence
            // numbers: no phantom or resurrected messages.
            let mut uniq = seqs.clone();
            uniq.dedup();
            prop_assert!(
                uniq.windows(2).all(|w| w[0] < w[1]),
                "link {from}->{to} duplicated non-adjacently: {seqs:?}"
            );
        }
    }

    /// After an arbitrary partition schedule ends in a heal and the
    /// fabric runs quietly past the failure timeout, every live node's
    /// failure detector and the control plane agree on one view: all
    /// live nodes.
    #[test]
    fn partition_heal_converges_membership_to_single_view(
        seed in any::<u64>(),
        splits in vec((0u8..3, 1u8..10), 0..8),
    ) {
        let mcfg = MembershipConfig {
            heartbeat_every: Duration::from_millis(10),
            failure_timeout: Duration::from_millis(60),
        };
        let mut fabric = ClusterFabric::with_membership(seed, mcfg);
        let nodes: Vec<NodeId> = (0..5).map(|_| fabric.add_node(NodeRole::Broker)).collect();
        fabric.run_for(Duration::from_millis(150));

        for (shape, run_ms) in splits {
            match shape {
                0 => fabric.net().partition(&[
                    &[nodes[0], nodes[1]],
                    &[nodes[2], nodes[3], nodes[4]],
                ]),
                1 => fabric.net().partition(&[
                    &[nodes[0]],
                    &[nodes[1], nodes[2], nodes[3], nodes[4]],
                ]),
                _ => fabric.net().heal(),
            }
            fabric.run_for(Duration::from_millis(run_ms as u64 * 20));
        }

        fabric.net().heal();
        // Quiet period: several heartbeat rounds past the failure timeout.
        fabric.run_for(Duration::from_millis(300));

        let view = fabric.control().lock().view().clone();
        prop_assert_eq!(view.len(), 5, "control view not full: {:?}", view);
        prop_assert!(
            fabric.control().lock().epoch() > 0,
            "epoch never advanced"
        );
    }

    /// HLC stamps order causally: for every message carried over the
    /// SimNet — arbitrary latency and jitter, arbitrary per-node physical
    /// clock skew — the receive stamp strictly exceeds the send stamp, so
    /// sorting the merged timeline by HLC never shows an effect before
    /// its cause. All stamps across all nodes are also pairwise distinct
    /// (node id breaks ties), so the merged order is total.
    #[test]
    fn hlc_merged_timeline_orders_sends_before_receives(
        seed in any::<u64>(),
        skews in (0u64..2_000, 0u64..2_000, 0u64..2_000, 0u64..2_000)
            .prop_map(|(a, b, c, d)| [a, b, c, d]),
        latency_us in 1u64..5_000,
        jitter_us in 0u64..5_000,
        steps in vec((0u8..4, 0u8..4, 1u8..10), 1..80),
    ) {
        let net = SimNet::new(seed);
        net.set_default_faults(LinkFaults {
            latency: Duration::from_micros(latency_us),
            jitter: Duration::from_micros(jitter_us),
            drop_p: 0.0,
            dup_p: 0.0,
        });
        let mut clocks: Vec<HlcClock> = (0..4).map(|n| HlcClock::new(n as u64)).collect();
        let local = |now: Duration, node: usize| now.as_micros() as u64 + skews[node];
        // msg seq (per link) -> send stamp; merged timeline of all stamps.
        let mut in_flight: HashMap<(NodeId, NodeId, u64), HlcStamp> = HashMap::new();
        let mut timeline: Vec<(HlcStamp, &'static str)> = Vec::new();
        let advance = |net: &SimNet,
                       d: Duration,
                       clocks: &mut Vec<HlcClock>,
                       in_flight: &mut HashMap<(NodeId, NodeId, u64), HlcStamp>,
                       timeline: &mut Vec<(HlcStamp, &'static str)>|
         -> Result<(), String> {
            let mut delivered = Vec::new();
            net.advance_with(d, |delivery| {
                if let Delivery::Env(env) = delivery {
                    delivered.push(env);
                }
            });
            let now = net.now();
            for env in delivered {
                let node = env.to.raw() as usize;
                let sent = HlcStamp::from_bytes(&env.body).expect("stamp frame");
                let recv = clocks[node].observe(local(now, node), sent);
                prop_assert!(
                    sent < recv,
                    "receive {recv:?} does not follow send {sent:?} (skews {skews:?})"
                );
                if let Some(orig) = in_flight.remove(&(env.from, env.to, env.seq)) {
                    prop_assert_eq!(orig, sent, "stamp mutated in flight");
                }
                timeline.push((recv, "recv"));
            }
            Ok(())
        };
        for (a, b, advance_ms) in steps {
            if a != b {
                let now = net.now();
                let stamp = clocks[a as usize].tick(local(now, a as usize));
                timeline.push((stamp, "send"));
                let body = Bytes::copy_from_slice(&stamp.to_bytes());
                if let Some(seq) =
                    net.send(NodeId(a as u64), NodeId(b as u64), 0, "hlc", body, None)
                {
                    in_flight.insert((NodeId(a as u64), NodeId(b as u64), seq), stamp);
                }
            }
            let d = Duration::from_millis(advance_ms as u64);
            advance(&net, d, &mut clocks, &mut in_flight, &mut timeline)?;
        }
        let d = Duration::from_secs(60);
        advance(&net, d, &mut clocks, &mut in_flight, &mut timeline)?;
        prop_assert!(in_flight.is_empty(), "lossless net must deliver everything");
        // Total order: stamps are pairwise distinct, so the HLC-sorted
        // merged timeline is unambiguous.
        let mut stamps: Vec<HlcStamp> = timeline.iter().map(|&(s, _)| s).collect();
        stamps.sort();
        prop_assert!(
            stamps.windows(2).all(|w| w[0] < w[1]),
            "merged timeline has colliding stamps"
        );
    }
}

const LEASE_TOPICS: [&str; 3] = ["a", "b", "c"];
const LEASE_NODES: [NodeId; 4] = [NodeId(0), NodeId(1), NodeId(2), NodeId(3)];

/// Everything a reader can ask of one [`LeaseView`]: the fence check's
/// answer for every topic and node. It takes both `by_topic` (who owns
/// it) and `view` (is the owner alive), so a view mixing two publications
/// answers differently from either.
fn lease_answers(v: &LeaseView) -> Vec<bool> {
    let mut out = Vec::new();
    for t in LEASE_TOPICS {
        out.extend(LEASE_NODES.map(|n| v.holds_topic(t, n)));
    }
    out
}

/// Step `i` of the writer's script: install a (never empty) membership
/// view derived from `seed`, then re-lease every topic against it,
/// calling `published` after each mutation.
fn lease_step(cp: &mut ControlPlane, i: u64, seed: u8, mut published: impl FnMut(&ControlPlane)) {
    let mask = u64::from(seed) ^ i.wrapping_mul(0x9e37_79b9);
    let view: BTreeSet<NodeId> = LEASE_NODES
        .into_iter()
        .filter(|n| n.raw() == i % 4 || mask >> n.raw() & 1 == 1)
        .collect();
    cp.update_view(view);
    published(cp);
    for t in LEASE_TOPICS {
        cp.ensure_lease(&format!("topic/{t}"), &LEASE_NODES);
        published(cp);
    }
}

proptest! {
    /// `LeaseReader` reads are linearizable against a single-threaded
    /// model of the same script: every view a reader takes while the
    /// control plane mutates is exactly one the control plane published
    /// (`by_topic` and `view` from the same epoch, never torn),
    /// and each reader's observed epoch is monotone.
    #[test]
    fn lease_reads_linearizable_against_single_threaded_model(
        n_steps in 1u64..24,
        seed in any::<u8>(),
    ) {
        // The model: replay the script alone, recording what each epoch's
        // publication answers.
        let mut model: HashMap<u64, Vec<bool>> = HashMap::new();
        let mut reference = ControlPlane::new();
        let reference_reader = reference.reader();
        model.insert(0, lease_answers(&reference_reader.view()));
        for i in 1..=n_steps {
            lease_step(&mut reference, i, seed, |cp| {
                let v = reference_reader.view();
                assert_eq!(v.epoch, cp.epoch());
                let answers = lease_answers(&v);
                // A call that changed nothing republishes nothing new.
                assert_eq!(model.entry(v.epoch).or_insert_with(|| answers.clone()), &answers);
            });
        }

        let mut cp = ControlPlane::new();
        let reader = cp.reader();
        let (start, done) = (Barrier::new(3), AtomicBool::new(false));
        std::thread::scope(|s| {
            for _ in 0..2 {
                let (reader, model, start, done) = (reader.clone(), &model, &start, &done);
                s.spawn(move || {
                    start.wait();
                    let mut last = 0u64;
                    loop {
                        // Read the flag first: the pass that sees it set
                        // still checks the final publication.
                        let finished = done.load(Ordering::Acquire);
                        let v = reader.view();
                        assert!(v.epoch >= last, "lease epoch went backwards");
                        last = v.epoch;
                        assert_eq!(
                            Some(&lease_answers(&v)),
                            model.get(&v.epoch),
                            "torn lease view at epoch {}",
                            v.epoch
                        );
                        if finished {
                            assert_eq!(v.epoch, model.keys().copied().max().unwrap());
                            break;
                        }
                    }
                });
            }
            start.wait();
            for i in 1..=n_steps {
                lease_step(&mut cp, i, seed, |_| {});
            }
            done.store(true, Ordering::Release);
        });
        prop_assert_eq!(cp.epoch(), reference.epoch());
    }
}
