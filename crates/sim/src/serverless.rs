//! Serverless fleet simulation.
//!
//! Replays a [`Workload`] against a simulated FaaS control plane: each
//! request either reuses a warm container (if one is idle and within its
//! keep-alive window) or pays a cold start. Capacity is demand-driven and
//! unbounded (the provider's promise), billing is fine-grained per request,
//! and the outcome carries everything E1/E2/E11 report: cost, cold-start
//! fraction, latency percentiles, and container-seconds (the provider-side
//! resource footprint).

use std::collections::BinaryHeap;
use std::time::Duration;

use taureau_core::cost::{Dollars, FaasPricing};
use taureau_core::latency::LatencyModel;
use taureau_core::metrics::{Histogram, MetricsRegistry};
use taureau_core::rng::det_rng;

use crate::workload::Workload;

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct ServerlessConfig {
    /// Billing model.
    pub pricing: FaasPricing,
    /// Warm keep-alive window.
    pub keep_alive: Duration,
    /// Cold-start latency model.
    pub cold_start: LatencyModel,
    /// Warm-dispatch latency model.
    pub warm_start: LatencyModel,
    /// Containers pinned warm (provisioned concurrency), never reaped.
    pub provisioned: u32,
    /// RNG seed for latency sampling.
    pub seed: u64,
}

impl Default for ServerlessConfig {
    fn default() -> Self {
        Self {
            pricing: FaasPricing::default(),
            keep_alive: Duration::from_secs(600),
            cold_start: taureau_core::latency::profiles::cold_start(),
            warm_start: taureau_core::latency::profiles::warm_start(),
            provisioned: 0,
            seed: 0xFAA5,
        }
    }
}

/// Results of replaying a workload on the serverless fleet.
#[derive(Debug)]
pub struct ServerlessOutcome {
    /// Requests served.
    pub requests: u64,
    /// Requests that paid a cold start.
    pub cold_starts: u64,
    /// Total dollars billed to the user.
    pub cost: Dollars,
    /// End-to-end latency (startup + execution), microseconds histogram.
    pub latency_us: Histogram,
    /// Total container-seconds the provider ran (busy + idle-warm) — the
    /// provider-side footprint that multiplexing reduces.
    pub container_seconds: f64,
    /// Peak simultaneous containers.
    pub(crate) peak_containers: u64,
}

impl ServerlessOutcome {
    /// Fraction of requests that were cold.
    pub fn cold_fraction(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.cold_starts as f64 / self.requests as f64
        }
    }

    /// Publish this outcome into a metrics registry: request/cold-start
    /// counters, peak-container and container-second gauges, and the
    /// end-to-end latency histogram.
    pub fn export_metrics(&self, registry: &MetricsRegistry) {
        registry.counter("requests").add(self.requests);
        registry.counter("cold_starts").add(self.cold_starts);
        registry
            .gauge("peak_containers")
            .set(self.peak_containers as i64);
        registry
            .gauge("container_seconds")
            .set(self.container_seconds.round() as i64);
        registry
            .histogram("latency_us")
            .merge_from(&self.latency_us);
    }
}

/// A container's lifecycle record during simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct IdleContainer {
    /// When the container last became idle.
    idle_since_ns: u64,
    /// When it was created.
    created_ns: u64,
}

/// Replay a workload against a serverless fleet.
///
/// The matching is greedy in arrival order: a request takes the
/// most-recently-idled warm container (LIFO — maximising reuse, which is
/// what real schedulers do), otherwise cold-starts a new one. Containers
/// idle past `keep_alive` are reaped, closing their billing window for
/// container-seconds.
pub fn simulate_serverless(workload: &Workload, cfg: &ServerlessConfig) -> ServerlessOutcome {
    let mut rng = det_rng(cfg.seed);
    let keep_alive_ns = cfg.keep_alive.as_nanos() as u64;

    // Busy containers as a min-heap of (free_at_ns, created_ns).
    let mut busy: BinaryHeap<std::cmp::Reverse<(u64, u64)>> = BinaryHeap::new();
    // Idle warm containers, most recently idled last (LIFO reuse).
    let mut idle: Vec<IdleContainer> = Vec::new();

    let mut cold_starts = 0u64;
    let mut cost = 0.0;
    let latency_us = Histogram::new();
    let mut container_seconds = 0.0f64;
    let mut peak = 0u64;

    // Provisioned containers exist from t=0 and never expire.
    for _ in 0..cfg.provisioned {
        idle.push(IdleContainer {
            idle_since_ns: 0,
            created_ns: 0,
        });
    }
    let provisioned = cfg.provisioned as usize;

    for req in &workload.requests {
        let now_ns = req.at.as_nanos() as u64;

        // Move containers whose work finished before now to the idle list.
        while let Some(&std::cmp::Reverse((free_at, created))) = busy.peek() {
            if free_at <= now_ns {
                busy.pop();
                idle.push(IdleContainer {
                    idle_since_ns: free_at,
                    created_ns: created,
                });
            } else {
                break;
            }
        }
        idle.sort_by_key(|c| c.idle_since_ns);
        // Reap expired warm containers (beyond the provisioned floor).
        let mut i = 0;
        while idle.len() > provisioned && i < idle.len() {
            let c = idle[i];
            if now_ns.saturating_sub(c.idle_since_ns) > keep_alive_ns {
                // Container dies at idle_since + keep_alive.
                let death_ns = c.idle_since_ns + keep_alive_ns;
                container_seconds += (death_ns - c.created_ns) as f64 / 1e9;
                idle.remove(i);
            } else {
                i += 1;
            }
        }

        let (startup, created_ns) = match idle.pop() {
            Some(c) => (cfg.warm_start.sample(&mut rng), c.created_ns),
            None => {
                cold_starts += 1;
                (cfg.cold_start.sample(&mut rng), now_ns)
            }
        };
        let latency = startup + req.duration;
        latency_us.record(latency.as_micros() as u64);
        cost += cfg.pricing.invocation_cost(req.memory, req.duration);
        let free_at = now_ns + latency.as_nanos() as u64;
        busy.push(std::cmp::Reverse((free_at, created_ns)));
        peak = peak.max((busy.len() + idle.len()) as u64);
    }

    // Account container-seconds for everything still alive at the end of
    // the trace: busy containers until they free, idle ones until their
    // keep-alive lapses (capped at the horizon).
    let end_ns = workload.horizon.as_nanos() as u64;
    for std::cmp::Reverse((free_at, created)) in busy.drain() {
        container_seconds += (free_at.max(created) - created) as f64 / 1e9;
    }
    for c in idle.drain(..) {
        let death = (c.idle_since_ns + keep_alive_ns).min(end_ns.max(c.idle_since_ns));
        container_seconds += (death - c.created_ns) as f64 / 1e9;
    }

    ServerlessOutcome {
        requests: workload.requests.len() as u64,
        cold_starts,
        cost,
        latency_us,
        container_seconds,
        peak_containers: peak,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Request, WorkloadSpec};
    use taureau_core::bytesize::ByteSize;

    fn det_cfg(keep_alive: Duration) -> ServerlessConfig {
        ServerlessConfig {
            keep_alive,
            cold_start: LatencyModel::Constant(Duration::from_millis(200)),
            warm_start: LatencyModel::Constant(Duration::from_millis(2)),
            ..ServerlessConfig::default()
        }
    }

    fn workload_at(times_ms: &[u64], dur_ms: u64) -> Workload {
        Workload {
            requests: times_ms
                .iter()
                .map(|&t| Request {
                    at: Duration::from_millis(t),
                    duration: Duration::from_millis(dur_ms),
                    memory: ByteSize::mb(512),
                })
                .collect(),
            horizon: Duration::from_secs(3600),
        }
    }

    #[test]
    fn sequential_requests_reuse_one_container() {
        // Requests spaced wider than their duration: one container, one
        // cold start.
        let w = workload_at(&[0, 1000, 2000, 3000], 100);
        let o = simulate_serverless(&w, &det_cfg(Duration::from_secs(60)));
        assert_eq!(o.requests, 4);
        assert_eq!(o.cold_starts, 1);
        assert_eq!(o.peak_containers, 1);
    }

    #[test]
    fn concurrent_burst_scales_out() {
        // Four simultaneous requests need four containers.
        let w = workload_at(&[0, 0, 0, 0], 500);
        let o = simulate_serverless(&w, &det_cfg(Duration::from_secs(60)));
        assert_eq!(o.cold_starts, 4);
        assert_eq!(o.peak_containers, 4);
    }

    #[test]
    fn keep_alive_expiry_forces_new_cold_start() {
        let keep = Duration::from_secs(10);
        // Second request arrives 30 s later: the warm container is gone.
        let w = workload_at(&[0, 30_000], 100);
        let o = simulate_serverless(&w, &det_cfg(keep));
        assert_eq!(o.cold_starts, 2);
        // Within keep-alive it would have been warm:
        let w2 = workload_at(&[0, 5_000], 100);
        let o2 = simulate_serverless(&w2, &det_cfg(keep));
        assert_eq!(o2.cold_starts, 1);
    }

    #[test]
    fn provisioned_concurrency_removes_cold_starts() {
        let w = workload_at(&[0, 0, 1000], 100);
        let mut cfg = det_cfg(Duration::from_secs(60));
        cfg.provisioned = 2;
        let o = simulate_serverless(&w, &cfg);
        assert_eq!(o.cold_starts, 0);
    }

    #[test]
    fn billing_matches_hand_computation() {
        let w = workload_at(&[0, 1000], 250);
        let o = simulate_serverless(&w, &det_cfg(Duration::from_secs(60)));
        let per =
            FaasPricing::default().invocation_cost(ByteSize::mb(512), Duration::from_millis(250));
        assert!((o.cost - 2.0 * per).abs() < 1e-12);
    }

    #[test]
    fn cold_fraction_drops_with_longer_keep_alive() {
        let spec = WorkloadSpec::Poisson { rate: 2.0 };
        let w = spec.generate(
            Duration::from_secs(3600),
            &LatencyModel::Constant(Duration::from_millis(100)),
            ByteSize::mb(512),
            42,
        );
        let short = simulate_serverless(&w, &det_cfg(Duration::from_secs(5)));
        let long = simulate_serverless(&w, &det_cfg(Duration::from_secs(600)));
        assert!(
            long.cold_fraction() < short.cold_fraction(),
            "short {} long {}",
            short.cold_fraction(),
            long.cold_fraction()
        );
        // And longer keep-alive costs the provider more container-seconds.
        assert!(long.container_seconds > short.container_seconds);
    }

    #[test]
    fn export_metrics_mirrors_outcome() {
        let w = workload_at(&[0, 1000, 2000], 100);
        let o = simulate_serverless(&w, &det_cfg(Duration::from_secs(60)));
        let reg = MetricsRegistry::new();
        o.export_metrics(&reg);
        assert_eq!(reg.counter("requests").get(), o.requests);
        assert_eq!(reg.counter("cold_starts").get(), o.cold_starts);
        assert_eq!(reg.gauge("peak_containers").get(), o.peak_containers as i64);
        let h = reg.histogram("latency_us");
        assert_eq!(h.count(), o.latency_us.count());
        assert_eq!(h.max(), o.latency_us.max());
        assert_eq!(h.p50(), o.latency_us.p50());
    }

    #[test]
    fn latency_histogram_separates_cold_and_warm() {
        let w = workload_at(&[0, 1000, 2000, 3000, 4000], 50);
        let o = simulate_serverless(&w, &det_cfg(Duration::from_secs(60)));
        // Max latency includes the 200 ms cold start; min only the 2 ms
        // warm dispatch.
        assert!(o.latency_us.max() >= 250_000);
        assert!(o.latency_us.min() <= 60_000);
    }
}
