//! Serverless at the edge (§1: "the serverless paradigm is being extended
//! to … networking and the edge", citing NFaaS, SNF, and Hall &
//! Ramachandran's edge execution model).
//!
//! The edge trade: running a function at a point of presence near the user
//! cuts the network RTT from tens of milliseconds to single digits, but
//! edge PoPs have little capacity and keeping containers warm there is
//! expensive per-unit; the central cloud has the opposite profile. This
//! module replays a geo-distributed request trace under three placement
//! policies and reports the latency/cost frontier (experiment E21).

use std::collections::HashMap;
use std::time::Duration;

use taureau_core::latency::LatencyModel;
use taureau_core::metrics::Histogram;
use taureau_core::rng::det_rng;

/// One request in a geo trace.
#[derive(Debug, Clone, Copy)]
pub struct EdgeRequest {
    /// Arrival time.
    pub(crate) at: Duration,
    /// Which region's user issued it.
    pub(crate) region: u32,
    /// Service time.
    pub(crate) duration: Duration,
}

/// The geography: per-region RTTs to the central cloud; edge PoPs sit in
/// the user's own region.
#[derive(Debug, Clone)]
pub struct Geography {
    /// RTT from each region to the central cloud.
    pub(crate) cloud_rtt: Vec<Duration>,
    /// RTT from a user to their regional edge PoP.
    pub(crate) edge_rtt: Duration,
}

impl Geography {
    /// A typical continental layout: edge at 5 ms, cloud at 30–120 ms
    /// depending on region.
    pub fn continental(regions: usize) -> Self {
        Self {
            cloud_rtt: (0..regions)
                .map(|i| Duration::from_millis(30 + 90 * i as u64 / regions.max(1) as u64))
                .collect(),
            edge_rtt: Duration::from_millis(5),
        }
    }

    /// Number of regions.
    pub(crate) fn regions(&self) -> usize {
        self.cloud_rtt.len()
    }
}

/// Placement policies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgePolicy {
    /// Everything runs in the central cloud.
    CloudOnly,
    /// Everything runs at the user's regional edge PoP.
    EdgeOnly,
    /// Run at the edge only in regions whose request rate amortises the
    /// keep-warm cost; cold regions fall back to the cloud (Hall &
    /// Ramachandran's adaptive model, simplified).
    Adaptive {
        /// Minimum requests/hour for a region to earn an edge deployment.
        min_rate_per_hour: f64,
    },
}

/// Outcome of replaying a trace under a policy.
#[derive(Debug)]
pub struct EdgeOutcome {
    /// End-to-end latency (network + startup + service), µs histogram.
    pub latency_us: Histogram,
    /// Regions given an edge deployment.
    pub edge_regions: usize,
    /// Keep-warm container-hours across all sites (the cost proxy; edge
    /// container-hours are typically priced at a multiple of cloud ones).
    pub edge_container_hours: f64,
    /// Requests served at the edge.
    pub edge_served: u64,
}

/// Generate a geo trace with a popularity skew across regions.
pub fn geo_trace(
    regions: usize,
    horizon: Duration,
    rates_per_hour: &[f64],
    seed: u64,
) -> Vec<EdgeRequest> {
    assert_eq!(rates_per_hour.len(), regions);
    use rand::Rng;
    let mut rng = det_rng(seed);
    let mut out = Vec::new();
    for (region, &rate) in rates_per_hour.iter().enumerate() {
        if rate <= 0.0 {
            continue;
        }
        let per_sec = rate / 3600.0;
        let mut t = 0.0;
        loop {
            t += -rng.gen_range(f64::MIN_POSITIVE..1.0f64).ln() / per_sec;
            if t >= horizon.as_secs_f64() {
                break;
            }
            out.push(EdgeRequest {
                at: Duration::from_secs_f64(t),
                region: region as u32,
                duration: Duration::from_millis(rng.gen_range(20..120)),
            });
        }
    }
    out.sort_by_key(|r| r.at);
    out
}

/// Replay a trace under a placement policy. Warm behaviour is simplified:
/// an edge deployment keeps one container warm for the whole horizon (the
/// keep-warm cost); the cloud is always warm (its keep-alive cost is
/// amortised across all tenants).
pub fn simulate_edge(
    trace: &[EdgeRequest],
    geo: &Geography,
    policy: EdgePolicy,
    horizon: Duration,
    warm_start: &LatencyModel,
) -> EdgeOutcome {
    let mut rng = det_rng(0xED6E);
    // Which regions get an edge deployment?
    let mut rates: HashMap<u32, u64> = HashMap::new();
    for r in trace {
        *rates.entry(r.region).or_insert(0) += 1;
    }
    let hours = horizon.as_secs_f64() / 3600.0;
    let edge_regions: Vec<u32> = match policy {
        EdgePolicy::CloudOnly => Vec::new(),
        EdgePolicy::EdgeOnly => (0..geo.regions() as u32).collect(),
        EdgePolicy::Adaptive { min_rate_per_hour } => rates
            .iter()
            .filter(|(_, &n)| n as f64 / hours >= min_rate_per_hour)
            .map(|(&r, _)| r)
            .collect(),
    };
    let latency_us = Histogram::new();
    let mut edge_served = 0u64;
    for req in trace {
        let at_edge = edge_regions.contains(&req.region);
        let rtt = if at_edge {
            geo.edge_rtt
        } else {
            geo.cloud_rtt[req.region as usize]
        };
        let latency = rtt + warm_start.sample(&mut rng) + req.duration;
        latency_us.record(latency.as_micros() as u64);
        if at_edge {
            edge_served += 1;
        }
    }
    EdgeOutcome {
        latency_us,
        edge_regions: edge_regions.len(),
        edge_container_hours: edge_regions.len() as f64 * hours,
        edge_served,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn warm() -> LatencyModel {
        LatencyModel::Constant(Duration::from_millis(2))
    }

    fn skewed_trace(geo: &Geography, horizon: Duration) -> Vec<EdgeRequest> {
        // One hot region, many cold ones.
        let mut rates = vec![2.0; geo.regions()];
        rates[0] = 2000.0;
        geo_trace(geo.regions(), horizon, &rates, 7)
    }

    #[test]
    fn edge_only_minimizes_latency_but_maximizes_deployments() {
        let geo = Geography::continental(8);
        let horizon = Duration::from_secs(3600);
        let trace = skewed_trace(&geo, horizon);
        let cloud = simulate_edge(&trace, &geo, EdgePolicy::CloudOnly, horizon, &warm());
        let edge = simulate_edge(&trace, &geo, EdgePolicy::EdgeOnly, horizon, &warm());
        assert!(edge.latency_us.p50() < cloud.latency_us.p50());
        assert_eq!(edge.edge_regions, 8);
        assert_eq!(cloud.edge_regions, 0);
        assert_eq!(cloud.edge_container_hours, 0.0);
        assert!(edge.edge_container_hours > cloud.edge_container_hours);
    }

    #[test]
    fn adaptive_gets_most_of_the_latency_at_fraction_of_the_cost() {
        let geo = Geography::continental(8);
        let horizon = Duration::from_secs(3600);
        let trace = skewed_trace(&geo, horizon);
        let edge = simulate_edge(&trace, &geo, EdgePolicy::EdgeOnly, horizon, &warm());
        let adaptive = simulate_edge(
            &trace,
            &geo,
            EdgePolicy::Adaptive {
                min_rate_per_hour: 100.0,
            },
            horizon,
            &warm(),
        );
        // Only the hot region earned a PoP…
        assert_eq!(adaptive.edge_regions, 1);
        // …which serves the overwhelming majority of requests…
        let share = adaptive.edge_served as f64 / trace.len() as f64;
        assert!(share > 0.95, "edge share {share}");
        // …so the median matches edge-everywhere at 1/8th the keep-warm.
        assert_eq!(adaptive.latency_us.p50(), edge.latency_us.p50());
        assert!(adaptive.edge_container_hours <= edge.edge_container_hours / 8.0 + 1e-9);
    }

    #[test]
    fn trace_generation_is_deterministic_and_sorted() {
        let rates = vec![100.0, 50.0, 0.0];
        let a = geo_trace(3, Duration::from_secs(600), &rates, 1);
        let b = geo_trace(3, Duration::from_secs(600), &rates, 1);
        assert_eq!(a.len(), b.len());
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(
            a.iter().all(|r| r.region < 2),
            "rate-0 region produced traffic"
        );
    }
}
