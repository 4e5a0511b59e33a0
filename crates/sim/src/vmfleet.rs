//! The server-centric baseline: a VM fleet.
//!
//! §2: in "the server-centric model … users have to reserve server
//! resources regardless of whether or not they use it." This module
//! simulates that model against the same workload traces as the serverless
//! fleet:
//!
//! - a **fixed** fleet (provisioned for peak — no queueing, maximum waste),
//!   or
//! - a **reactive autoscaler** (scales on measured demand with a boot
//!   delay — cheaper, but queueing during ramp-up shows up in the latency
//!   tail).
//!
//! Requests queue FIFO when all VM slots are busy; each VM serves
//! `capacity` requests concurrently and bills per hour from boot to
//! shutdown.

use std::collections::BinaryHeap;
use std::time::Duration;

use taureau_core::cost::{Dollars, VmPricing};
use taureau_core::metrics::Histogram;

use crate::workload::Workload;

/// Fleet sizing policies.
#[derive(Debug, Clone, Copy)]
pub enum VmScalingPolicy {
    /// Enough instances for the trace's peak concurrency, up the whole
    /// time. (What an on-prem deployment provisioned for Black Friday
    /// looks like.)
    FixedAtPeak,
    /// A fixed instance count.
    Fixed(u32),
    /// Reactive: every `check_interval`, resize toward
    /// `observed_demand / target_utilization`, new capacity arriving after
    /// the boot delay. `min_instances` is the floor.
    Reactive {
        /// Desired busy-slot fraction.
        target_utilization: f64,
        /// How often the autoscaler evaluates.
        check_interval: Duration,
        /// Floor on fleet size.
        min_instances: u32,
    },
}

/// Fleet configuration.
#[derive(Debug, Clone)]
pub struct VmFleetConfig {
    /// Per-instance pricing and capacity.
    pub pricing: VmPricing,
    /// Sizing policy.
    pub policy: VmScalingPolicy,
}

impl Default for VmFleetConfig {
    fn default() -> Self {
        Self {
            pricing: VmPricing::default(),
            policy: VmScalingPolicy::FixedAtPeak,
        }
    }
}

/// Results of replaying a workload on the VM fleet.
#[derive(Debug)]
pub struct VmFleetOutcome {
    /// Total dollars for instance-hours.
    pub cost: Dollars,
    /// End-to-end latency including queueing, µs histogram.
    pub latency_us: Histogram,
    /// Mean busy-slot utilisation over the horizon.
    pub mean_utilization: f64,
}

/// Capacity (slot count) as a step function over time.
#[derive(Debug)]
struct CapacityTimeline {
    /// (start, slots) steps sorted by start; slots hold until next step.
    steps: Vec<(Duration, u64)>,
}

impl CapacityTimeline {
    fn at(&self, t: Duration) -> u64 {
        match self.steps.binary_search_by(|(s, _)| s.cmp(&t)) {
            Ok(i) => self.steps[i].1,
            Err(0) => 0,
            Err(i) => self.steps[i - 1].1,
        }
    }

    /// Integral of instance count (slots / per_instance) over the horizon,
    /// in instance-hours.
    fn instance_hours(&self, horizon: Duration, per_instance: u32) -> f64 {
        let mut total = 0.0;
        for (i, &(start, slots)) in self.steps.iter().enumerate() {
            let end = self
                .steps
                .get(i + 1)
                .map(|&(s, _)| s)
                .unwrap_or(horizon)
                .min(horizon);
            if end > start {
                let instances = slots.div_ceil(per_instance as u64) as f64;
                total += instances * (end - start).as_secs_f64() / 3600.0;
            }
        }
        total
    }

    #[cfg(test)]
    fn peak_instances(&self, per_instance: u32) -> u32 {
        self.steps
            .iter()
            .map(|&(_, slots)| slots.div_ceil(per_instance as u64) as u32)
            .max()
            .unwrap_or(0)
    }
}

fn build_timeline(workload: &Workload, cfg: &VmFleetConfig) -> CapacityTimeline {
    let per = cfg.pricing.capacity as u64;
    match cfg.policy {
        VmScalingPolicy::FixedAtPeak => {
            let instances = cfg.pricing.instances_for(workload.peak_concurrency());
            CapacityTimeline {
                steps: vec![(Duration::ZERO, instances as u64 * per)],
            }
        }
        VmScalingPolicy::Fixed(n) => CapacityTimeline {
            steps: vec![(Duration::ZERO, n as u64 * per)],
        },
        VmScalingPolicy::Reactive {
            target_utilization,
            check_interval,
            min_instances,
        } => {
            // Offered in-flight demand per interval from the trace.
            let horizon = workload.horizon;
            let n_intervals = (horizon.as_nanos() / check_interval.as_nanos()).max(1) as usize + 1;
            let mut demand = vec![0f64; n_intervals];
            let iv = check_interval.as_secs_f64();
            for r in &workload.requests {
                // Spread the request's busy time over the intervals it
                // overlaps.
                let mut t = r.at.as_secs_f64();
                let end = t + r.duration.as_secs_f64();
                while t < end {
                    let idx = ((t / iv) as usize).min(n_intervals - 1);
                    let iv_end = (idx as f64 + 1.0) * iv;
                    let span = end.min(iv_end) - t;
                    demand[idx] += span / iv; // mean in-flight contribution
                    t = iv_end;
                }
            }
            // Scale decisions lag by one interval (the autoscaler reacts to
            // the last observation) plus the boot delay for scale-ups.
            let boot = cfg.pricing.boot_time;
            let mut steps: Vec<(Duration, u64)> = Vec::new();
            let mut current = min_instances.max(1) as u64 * per;
            steps.push((Duration::ZERO, current));
            for (i, &d) in demand.iter().enumerate() {
                let desired_slots =
                    ((d / target_utilization).ceil() as u64).max(min_instances.max(1) as u64 * per);
                let desired = desired_slots.div_ceil(per) * per;
                if desired == current {
                    continue;
                }
                let decision_at = check_interval * (i as u32 + 1);
                let effective_at = if desired > current {
                    decision_at + boot
                } else {
                    decision_at
                };
                steps.push((effective_at, desired));
                current = desired;
            }
            steps.sort_by_key(|&(t, _)| t);
            CapacityTimeline { steps }
        }
    }
}

/// Replay a workload against the VM fleet.
pub fn simulate_vm_fleet(workload: &Workload, cfg: &VmFleetConfig) -> VmFleetOutcome {
    let timeline = build_timeline(workload, cfg);
    let latency_us = Histogram::new();
    // Min-heap of slot-finish times (ns).
    let mut busy: BinaryHeap<std::cmp::Reverse<u64>> = BinaryHeap::new();
    let mut busy_seconds = 0.0f64;

    for req in &workload.requests {
        let now = req.at;
        let now_ns = now.as_nanos() as u64;
        while let Some(&std::cmp::Reverse(f)) = busy.peek() {
            if f <= now_ns {
                busy.pop();
            } else {
                break;
            }
        }
        let cap = timeline.at(now).max(1);
        let start_ns = if (busy.len() as u64) < cap {
            now_ns
        } else {
            // FIFO: wait for the earliest slot to free.
            let std::cmp::Reverse(f) = busy.pop().expect("cap >= 1 implies busy non-empty");
            f.max(now_ns)
        };
        let finish_ns = start_ns + req.duration.as_nanos() as u64;
        busy.push(std::cmp::Reverse(finish_ns));
        let latency = Duration::from_nanos(finish_ns - now_ns);
        latency_us.record(latency.as_micros() as u64);
        busy_seconds += req.duration.as_secs_f64();
    }

    let instance_hours = timeline.instance_hours(workload.horizon, cfg.pricing.capacity);
    let slot_hours = instance_hours * cfg.pricing.capacity as f64;
    VmFleetOutcome {
        cost: cfg.pricing.per_hour * instance_hours,
        latency_us,
        mean_utilization: if slot_hours > 0.0 {
            (busy_seconds / 3600.0) / slot_hours
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Request, WorkloadSpec};
    use taureau_core::bytesize::ByteSize;
    use taureau_core::latency::LatencyModel;

    fn req(at_ms: u64, dur_ms: u64) -> Request {
        Request {
            at: Duration::from_millis(at_ms),
            duration: Duration::from_millis(dur_ms),
            memory: ByteSize::mb(512),
        }
    }

    fn one_slot_pricing() -> VmPricing {
        VmPricing {
            capacity: 1,
            ..VmPricing::default()
        }
    }

    #[test]
    fn fixed_fleet_bills_full_horizon() {
        let w = Workload {
            requests: vec![req(0, 100)],
            horizon: Duration::from_secs(3600),
        };
        let cfg = VmFleetConfig {
            pricing: VmPricing::default(),
            policy: VmScalingPolicy::Fixed(2),
        };
        let o = simulate_vm_fleet(&w, &cfg);
        assert!((o.cost - 2.0 * 0.096).abs() < 1e-9);
        // One 100 ms request on an idle fleet: no queueing.
        assert!(o.latency_us.max() <= 101_000);
        // Utilisation is tiny.
        assert!(o.mean_utilization < 0.001);
    }

    #[test]
    fn queueing_shows_when_underprovisioned() {
        // Two simultaneous 1 s requests on a single-slot fleet: the second
        // waits a full second.
        let w = Workload {
            requests: vec![req(0, 1000), req(0, 1000)],
            horizon: Duration::from_secs(10),
        };
        let cfg = VmFleetConfig {
            pricing: one_slot_pricing(),
            policy: VmScalingPolicy::Fixed(1),
        };
        let o = simulate_vm_fleet(&w, &cfg);
        assert!(
            o.latency_us.max() >= 1_999_000,
            "max {}",
            o.latency_us.max()
        );
        assert!(o.latency_us.min() <= 1_001_000);
    }

    #[test]
    fn fixed_at_peak_avoids_queueing() {
        let w = Workload {
            requests: (0..10).map(|i| req(i * 10, 500)).collect(),
            horizon: Duration::from_secs(60),
        };
        let cfg = VmFleetConfig {
            pricing: one_slot_pricing(),
            policy: VmScalingPolicy::FixedAtPeak,
        };
        let o = simulate_vm_fleet(&w, &cfg);
        // All requests overlap => peak concurrency 10 => 10 instances.
        assert_eq!(build_timeline(&w, &cfg).peak_instances(1), 10);
        // No request waited.
        assert!(o.latency_us.max() <= 501_000);
    }

    #[test]
    fn reactive_scaler_tracks_load_and_costs_less_than_peak() {
        let spec = WorkloadSpec::diurnal_with_peak_ratio(20.0, 8.0, Duration::from_secs(900));
        let w = spec.generate(
            Duration::from_secs(3600),
            &LatencyModel::Constant(Duration::from_millis(200)),
            ByteSize::mb(512),
            5,
        );
        let peak_cfg = VmFleetConfig {
            pricing: VmPricing::default(),
            policy: VmScalingPolicy::FixedAtPeak,
        };
        let reactive_cfg = VmFleetConfig {
            pricing: VmPricing::default(),
            policy: VmScalingPolicy::Reactive {
                target_utilization: 0.6,
                check_interval: Duration::from_secs(60),
                min_instances: 1,
            },
        };
        let peak = simulate_vm_fleet(&w, &peak_cfg);
        let reactive = simulate_vm_fleet(&w, &reactive_cfg);
        assert!(
            reactive.cost < peak.cost,
            "reactive {} vs peak {}",
            reactive.cost,
            peak.cost
        );
        assert!(reactive.mean_utilization > peak.mean_utilization);
        // The price of reacting: worse tail latency than peak provisioning.
        assert!(
            reactive.latency_us.p99() >= peak.latency_us.p99(),
            "reactive p99 {} peak p99 {}",
            reactive.latency_us.p99(),
            peak.latency_us.p99()
        );
    }

    #[test]
    fn capacity_timeline_lookup() {
        let tl = CapacityTimeline {
            steps: vec![
                (Duration::ZERO, 2),
                (Duration::from_secs(10), 5),
                (Duration::from_secs(20), 1),
            ],
        };
        assert_eq!(tl.at(Duration::ZERO), 2);
        assert_eq!(tl.at(Duration::from_secs(9)), 2);
        assert_eq!(tl.at(Duration::from_secs(10)), 5);
        assert_eq!(tl.at(Duration::from_secs(25)), 1);
        // 10 s at 2 slots + 10 s at 5 + 10 s at 1, capacity 1/instance.
        let ih = tl.instance_hours(Duration::from_secs(30), 1);
        assert!((ih - (10.0 * 2.0 + 10.0 * 5.0 + 10.0 * 1.0) / 3600.0).abs() < 1e-9);
        assert_eq!(tl.peak_instances(1), 5);
    }
}
