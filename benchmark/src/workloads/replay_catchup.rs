//! `replay_catchup`: ephemeral compute over a durable log. One client scans
//! a retained log of 2 560 batch-64 entries (two sealed ledgers + open
//! tail) 256 entries at a time with `receive_entries_into` and reads every
//! `MessageView`; nothing is acked, `redeliver_unacked` rewinds after each
//! full pass, and every 8th pass starts cold via `restart_broker` +
//! re-subscribe. The sealed-segment snapshot cache, the `OffsetTable` parse
//! and the entry-granular pending map do nearly all the work.

use taureau_core::clock::WallClock;
use taureau_pulsar::{Consumer, EntryView, PulsarCluster, PulsarConfig, SubscriptionMode};

use super::{derive_dispatch, dispatch_counters, ledger_probe};
use crate::gen::{checksum_of, EventPool, Rng};
use crate::harness::{Finish, Window, Workload};
use crate::trace::{span, Layer};

const TOPIC: &str = "bench/log";
const SUBSCRIPTION: &str = "replay";
const EVENT: usize = 128;
const BATCH: usize = 64;
const ENTRIES: usize = 2560;
/// Messages every pass must see.
pub const LOG_MESSAGES: u64 = (ENTRIES * BATCH) as u64;
const SCAN_ENTRIES: usize = 256;
const COLD_EVERY: u64 = 8;
const POOL: usize = 16_384;

pub struct ReplayCatchup {
    cluster: PulsarCluster,
    /// Checksum of the whole log, from the generator's side.
    reference_sum: u64,
    ledger: Vec<(&'static str, f64)>,
}

pub struct Client {
    consumer: Option<Consumer>,
    views: Vec<EntryView>,
    passes: u64,
    bad_passes: u64,
    pass_messages: u64,
    pass_sum: u64,
    /// The previous request completed a pass: rewind before scanning.
    rewind: bool,
}

fn subscribe(cluster: &PulsarCluster) -> Consumer {
    cluster
        .subscribe(TOPIC, SUBSCRIPTION, SubscriptionMode::Exclusive)
        .expect("subscribe")
}

impl Workload for ReplayCatchup {
    const NAME: &'static str = "replay_catchup";
    const WARMUP: usize = 320;
    const EXACT: u64 = 160;
    type Client = Client;

    fn setup(seed: u64, _threads: usize, traced: bool) -> (Self, Vec<Client>) {
        let events = EventPool::new(
            &mut Rng::stream(seed, Self::NAME, "events"),
            POOL,
            EVENT,
            1024,
            0.99,
            0,
        );
        let cluster = PulsarCluster::new(
            PulsarConfig {
                max_entries_per_ledger: 1024,
                ..PulsarConfig::default()
            },
            WallClock::shared(),
        );
        cluster.create_topic(TOPIC, 1).expect("topic");
        cluster.set_dispatch_profiling(traced);
        let producer = cluster.producer(TOPIC).expect("producer");
        let mut reference_sum = 0u64;
        let mut prefill = || {
            for entry in 0..ENTRIES {
                let batch: [&[u8]; BATCH] = std::array::from_fn(|i| events.get(entry * BATCH + i));
                for e in batch {
                    reference_sum = reference_sum.wrapping_add(checksum_of(e));
                }
                producer.send_batch(&batch).expect("prefill");
            }
        };
        let ledger = if traced {
            ledger_probe(
                &cluster,
                TOPIC,
                LOG_MESSAGES,
                LOG_MESSAGES * EVENT as u64,
                prefill,
            )
        } else {
            prefill();
            Vec::new()
        };
        let client = Client {
            consumer: Some(subscribe(&cluster)),
            views: Vec::new(),
            passes: 0,
            bad_passes: 0,
            pass_messages: 0,
            pass_sum: 0,
            rewind: false,
        };
        let w = Self {
            cluster,
            reference_sum,
            ledger,
        };
        (w, vec![client])
    }

    fn request(&self, c: &mut Client) -> bool {
        if c.rewind {
            c.rewind = false;
            if c.passes.is_multiple_of(COLD_EVERY) {
                // Cold pass: the broker forgets everything and rebuilds
                // from metadata + ledgers.
                let _s = span(Layer::PulsarReload);
                c.consumer = None;
                self.cluster.restart_broker();
                c.consumer = Some(subscribe(&self.cluster));
            } else {
                let _s = span(Layer::PulsarRedeliver);
                let consumer = c.consumer.as_ref().expect("consumer");
                if consumer.redeliver_unacked().is_err() {
                    return false;
                }
            }
        }
        let scanned = {
            let _s = span(Layer::PulsarReceive);
            let consumer = c.consumer.as_mut().expect("consumer");
            consumer.receive_entries_into(SCAN_ENTRIES * BATCH, &mut c.views)
        };
        let Ok(scanned) = scanned else { return false };
        {
            let _s = span(Layer::PulsarViewIter);
            for view in &c.views {
                for m in view.messages() {
                    c.pass_sum = c.pass_sum.wrapping_add(checksum_of(&m.payload()));
                    c.pass_messages += 1;
                }
            }
        }
        if scanned > 0 && c.pass_messages < LOG_MESSAGES {
            return true;
        }
        // The pass is over (log exhausted): check it against the reference.
        let good = c.pass_messages == LOG_MESSAGES && c.pass_sum == self.reference_sum;
        c.passes += 1;
        c.bad_passes += u64::from(!good);
        (c.pass_messages, c.pass_sum, c.rewind) = (0, 0, true);
        good
    }

    fn raw(&self, _c: &Client) -> Vec<u64> {
        dispatch_counters(&self.cluster)
    }

    fn derive(&self, d: &[u64], _w: &Window) -> Vec<(&'static str, f64)> {
        derive_dispatch(d)
    }

    fn finish(self, clients: Vec<Client>, _traced: bool) -> Finish {
        let mut fin = Finish::default();
        let c = &clients[0];
        fin.check(
            c.bad_passes == 0 && c.passes > 0,
            format!(
                "{} passes (1 in {COLD_EVERY} cold) each saw {LOG_MESSAGES} messages with the reference checksum ({} did not)",
                c.passes, c.bad_passes
            ),
        );
        fin.layer = self.ledger;
        fin
    }
}
