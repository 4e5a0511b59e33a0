//! The six workloads, and the counter plumbing they share. Everything here
//! reaches the stack through public functions only.

use std::time::Duration;

use std::sync::Arc;

use taureau_core::latency::LatencyModel;
use taureau_core::sync::{ContentionProfiler, LockSite};
use taureau_faas::{FaasPlatform, PlatformConfig};
use taureau_pulsar::PulsarCluster;

use crate::harness::Window;

pub mod cluster_stack;
pub mod dag_spill;
pub mod pipeline_contended;
pub mod pipeline_small;
pub mod replay_catchup;
pub mod stream_sketch;

/// FaaS with no injected start-up delay: what is timed is our code.
pub fn faas_config() -> PlatformConfig {
    PlatformConfig {
        cold_start: LatencyModel::Constant(Duration::ZERO),
        warm_start: LatencyModel::Constant(Duration::ZERO),
        ..PlatformConfig::default()
    }
}

/// `[cold starts, warm starts]`.
pub fn faas_counters(faas: &FaasPlatform) -> Vec<u64> {
    let (cold, warm) = faas.start_counts();
    vec![cold, warm]
}

pub fn derive_faas(d: &[u64]) -> Vec<(&'static str, f64)> {
    let (cold, warm) = (d[0] as f64, d[1] as f64);
    vec![
        ("faas.cold_starts", cold),
        ("faas.warm_ratio", warm / (cold + warm).max(1.0)),
    ]
}

/// `[wall, lock, cursor, read, decode, deliver]` nanoseconds of the
/// broker's own dispatch-phase profile.
pub fn dispatch_counters(cluster: &PulsarCluster) -> Vec<u64> {
    let p = cluster.dispatch_profile();
    vec![
        p.wall_ns,
        p.lock_ns,
        p.cursor_ns,
        p.read_ns,
        p.decode_ns,
        p.deliver_ns,
    ]
}

pub fn derive_dispatch(d: &[u64]) -> Vec<(&'static str, f64)> {
    let share = |ns: u64| ns as f64 / d[0].max(1) as f64;
    vec![
        ("pulsar.dispatch.lock_share", share(d[1])),
        ("pulsar.dispatch.cursor_share", share(d[2])),
        ("pulsar.dispatch.read_share", share(d[3])),
        ("pulsar.dispatch.decode_share", share(d[4])),
        ("pulsar.dispatch.deliver_share", share(d[5])),
    ]
}

/// Attach the `pulsar.topics` lock site (traced runs only: the profiler
/// adds counting to every topic-shard acquisition).
pub fn topic_lock_site(cluster: &PulsarCluster, traced: bool) -> Option<Arc<LockSite>> {
    traced.then(|| cluster.enable_contention_profiling(&ContentionProfiler::new()))
}

/// `[acquisitions, contended acquisitions, nanoseconds waited]`.
pub fn lock_counters(site: &Option<Arc<LockSite>>) -> Vec<u64> {
    site.as_ref().map_or(vec![0; 3], |site| {
        let s = site.snapshot();
        vec![s.acquisitions, s.contended, s.wait_total.as_nanos() as u64]
    })
}

pub fn derive_lock(d: &[u64], w: &Window) -> Vec<(&'static str, f64)> {
    vec![
        (
            "core.sync.pulsar_topics.wait_share",
            d[2] as f64 / 1e9 / (w.wall_s * w.clients as f64),
        ),
        (
            "core.sync.pulsar_topics.contended_ratio",
            d[1] as f64 / d[0].max(1) as f64,
        ),
    ]
}

/// What `publish` adds to the ledgers, as exact counts: bytes stored on
/// all bookies per user byte, and ledger entries per message. Run on an
/// idle topic after the window, so trimming cannot hide anything.
pub fn ledger_probe(
    cluster: &PulsarCluster,
    topic: &str,
    messages: u64,
    user_bytes: u64,
    publish: impl FnOnce(),
) -> Vec<(&'static str, f64)> {
    let stored = || {
        cluster
            .bookies()
            .iter()
            .map(|b| b.stored_bytes())
            .sum::<u64>()
    };
    let entries = || cluster.retained_entries(topic).expect("retained");
    let (bytes0, entries0) = (stored(), entries());
    publish();
    vec![
        (
            "pulsar.ledger.stored_bytes_per_user_byte",
            (stored() - bytes0) as f64 / user_bytes as f64,
        ),
        (
            "pulsar.ledger.entries_per_msg",
            (entries() - entries0) as f64 / messages as f64,
        ),
    ]
}
