//! Synthetic workload generation.
//!
//! §3.2 characterises serverless applications by "variable load over time,
//! with the peak load being several times higher than the mean, and the
//! minimum often being zero". The generators here produce exactly those
//! shapes, deterministically from a seed:
//!
//! - [`WorkloadSpec::Poisson`]: constant-rate baseline.
//! - [`WorkloadSpec::Diurnal`]: sinusoidal day/night cycle with a
//!   configurable peak-to-mean ratio.
//! - [`WorkloadSpec::Bursty`]: ON/OFF process — long quiet stretches, then
//!   bursts (the "minimum often zero" case).

use std::time::Duration;

use rand::Rng;
use taureau_core::bytesize::ByteSize;
use taureau_core::latency::LatencyModel;
use taureau_core::rng::det_rng;

/// One request in a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Request {
    /// Arrival offset from trace start.
    pub(crate) at: Duration,
    /// Execution duration (service time).
    pub(crate) duration: Duration,
    /// Memory the request's function is configured with.
    pub(crate) memory: ByteSize,
}

/// A generated trace: requests sorted by arrival time.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Requests in arrival order.
    pub(crate) requests: Vec<Request>,
    /// Trace horizon.
    pub(crate) horizon: Duration,
}

impl Workload {
    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Mean arrival rate over the horizon (req/s).
    #[cfg(test)]
    pub(crate) fn mean_rate(&self) -> f64 {
        self.requests.len() as f64 / self.horizon.as_secs_f64()
    }

    /// Peak arrival rate over 1-second windows (req/s).
    #[cfg(test)]
    pub(crate) fn peak_rate(&self) -> f64 {
        let secs = self.horizon.as_secs() as usize + 1;
        let mut buckets = vec![0u32; secs];
        for r in &self.requests {
            buckets[r.at.as_secs() as usize] += 1;
        }
        buckets.iter().copied().max().unwrap_or(0) as f64
    }

    /// Maximum concurrent in-flight requests at any instant (what a
    /// peak-provisioned fleet must be sized for).
    pub fn peak_concurrency(&self) -> u64 {
        let mut events: Vec<(Duration, i64)> = Vec::with_capacity(self.requests.len() * 2);
        for r in &self.requests {
            events.push((r.at, 1));
            events.push((r.at + r.duration, -1));
        }
        events.sort();
        let mut cur = 0i64;
        let mut peak = 0i64;
        for (_, d) in events {
            cur += d;
            peak = peak.max(cur);
        }
        peak as u64
    }
}

/// Arrival-process shapes.
#[derive(Debug, Clone)]
pub enum WorkloadSpec {
    /// Constant-rate Poisson arrivals.
    Poisson {
        /// Mean requests per second.
        rate: f64,
    },
    /// Sinusoidal rate: `mean * (1 + amplitude * sin(2πt/period))`,
    /// clamped at 0. `amplitude` near 1 gives a peak/mean ratio near 2;
    /// use [`WorkloadSpec::diurnal_with_peak_ratio`] for larger ratios.
    Diurnal {
        /// Mean requests per second.
        mean_rate: f64,
        /// Relative swing (0..).
        amplitude: f64,
        /// Cycle length.
        period: Duration,
    },
    /// ON/OFF bursts: Poisson at `on_rate` during ON windows, silence
    /// during OFF windows.
    Bursty {
        /// Rate inside a burst.
        on_rate: f64,
        /// Mean ON window length.
        on_mean: Duration,
        /// Mean OFF window length.
        off_mean: Duration,
    },
}

impl WorkloadSpec {
    /// A diurnal spec whose peak/mean ratio is approximately `ratio`
    /// (clamped ≥ 1): rate swings between ~0 and `ratio * mean`.
    pub fn diurnal_with_peak_ratio(mean_rate: f64, ratio: f64, period: Duration) -> Self {
        let ratio = ratio.max(1.0);
        WorkloadSpec::Diurnal {
            mean_rate,
            amplitude: ratio - 1.0,
            period,
        }
    }

    fn rate_at(&self, t: f64) -> f64 {
        match self {
            WorkloadSpec::Poisson { rate } => *rate,
            WorkloadSpec::Diurnal {
                mean_rate,
                amplitude,
                period,
            } => {
                let phase = std::f64::consts::TAU * t / period.as_secs_f64();
                (mean_rate * (1.0 + amplitude * phase.sin())).max(0.0)
            }
            WorkloadSpec::Bursty { .. } => unreachable!("bursty uses its own generator"),
        }
    }

    fn max_rate(&self) -> f64 {
        match self {
            WorkloadSpec::Poisson { rate } => *rate,
            WorkloadSpec::Diurnal {
                mean_rate,
                amplitude,
                ..
            } => mean_rate * (1.0 + amplitude),
            WorkloadSpec::Bursty { on_rate, .. } => *on_rate,
        }
    }

    /// Generate a trace over `horizon`, with service times drawn from
    /// `duration_model` and the given per-request memory.
    pub fn generate(
        &self,
        horizon: Duration,
        duration_model: &LatencyModel,
        memory: ByteSize,
        seed: u64,
    ) -> Workload {
        let mut rng = det_rng(seed);
        let h = horizon.as_secs_f64();
        let mut arrivals: Vec<f64> = Vec::new();
        match self {
            WorkloadSpec::Bursty {
                on_rate,
                on_mean,
                off_mean,
            } => {
                // Alternate ON/OFF windows with exponential lengths.
                let mut t = 0.0;
                let mut on = true;
                while t < h {
                    let mean = if on { on_mean } else { off_mean }.as_secs_f64();
                    let window = -rng.gen_range(f64::MIN_POSITIVE..1.0f64).ln() * mean;
                    let end = (t + window).min(h);
                    if on {
                        let mut a = t;
                        loop {
                            a += -rng.gen_range(f64::MIN_POSITIVE..1.0f64).ln() / on_rate;
                            if a >= end {
                                break;
                            }
                            arrivals.push(a);
                        }
                    }
                    t = end;
                    on = !on;
                }
            }
            _ => {
                // Thinning (Lewis–Shedler) against the max rate.
                let lambda_max = self.max_rate();
                let mut t = 0.0;
                while t < h {
                    t += -rng.gen_range(f64::MIN_POSITIVE..1.0f64).ln() / lambda_max;
                    if t >= h {
                        break;
                    }
                    if rng.gen::<f64>() * lambda_max <= self.rate_at(t) {
                        arrivals.push(t);
                    }
                }
            }
        }
        let requests = arrivals
            .into_iter()
            .map(|a| Request {
                at: Duration::from_secs_f64(a),
                duration: duration_model.sample(&mut rng),
                memory,
            })
            .collect();
        Workload { requests, horizon }
    }
}

/// The workspace-standard service-time model: log-normal with ~120 ms
/// median and a tail to seconds, matching published Lambda duration
/// distributions.
pub fn typical_duration_model() -> LatencyModel {
    LatencyModel::LogNormal {
        mu: 11.7,
        sigma: 0.8,
    } // exp(11.7) µs ≈ 120 ms
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hour() -> Duration {
        Duration::from_secs(3600)
    }

    #[test]
    fn poisson_rate_matches() {
        let w = WorkloadSpec::Poisson { rate: 20.0 }.generate(
            hour(),
            &LatencyModel::Constant(Duration::from_millis(100)),
            ByteSize::mb(512),
            1,
        );
        assert!(
            (w.mean_rate() - 20.0).abs() / 20.0 < 0.05,
            "{}",
            w.mean_rate()
        );
        // Sorted arrivals.
        assert!(w.requests.windows(2).all(|p| p[0].at <= p[1].at));
    }

    #[test]
    fn diurnal_peak_to_mean_ratio() {
        let spec = WorkloadSpec::diurnal_with_peak_ratio(10.0, 5.0, Duration::from_secs(600));
        let w = spec.generate(
            hour(),
            &LatencyModel::Constant(Duration::from_millis(50)),
            ByteSize::mb(512),
            2,
        );
        let ratio = w.peak_rate() / w.mean_rate();
        // 1-second buckets are noisy; just require a clearly spiky shape.
        assert!(ratio > 2.5, "peak/mean ratio {ratio}");
    }

    #[test]
    fn bursty_has_quiet_stretches() {
        let spec = WorkloadSpec::Bursty {
            on_rate: 50.0,
            on_mean: Duration::from_secs(10),
            off_mean: Duration::from_secs(60),
        };
        let w = spec.generate(
            hour(),
            &LatencyModel::Constant(Duration::from_millis(100)),
            ByteSize::mb(512),
            3,
        );
        // Mean rate is far below the ON rate…
        assert!(w.mean_rate() < 25.0, "mean {}", w.mean_rate());
        // …and there exist multi-second gaps with zero arrivals.
        let max_gap = w
            .requests
            .windows(2)
            .map(|p| p[1].at - p[0].at)
            .max()
            .unwrap();
        assert!(max_gap > Duration::from_secs(20), "max gap {max_gap:?}");
    }

    #[test]
    fn determinism_per_seed() {
        let spec = WorkloadSpec::Poisson { rate: 5.0 };
        let model = typical_duration_model();
        let a = spec.generate(hour(), &model, ByteSize::mb(512), 7);
        let b = spec.generate(hour(), &model, ByteSize::mb(512), 7);
        let c = spec.generate(hour(), &model, ByteSize::mb(512), 8);
        assert_eq!(a.requests, b.requests);
        assert_ne!(a.requests, c.requests);
    }

    #[test]
    fn peak_concurrency_counts_overlap() {
        let w = Workload {
            requests: vec![
                Request {
                    at: Duration::ZERO,
                    duration: Duration::from_secs(10),
                    memory: ByteSize::mb(1),
                },
                Request {
                    at: Duration::from_secs(1),
                    duration: Duration::from_secs(10),
                    memory: ByteSize::mb(1),
                },
                Request {
                    at: Duration::from_secs(20),
                    duration: Duration::from_secs(1),
                    memory: ByteSize::mb(1),
                },
            ],
            horizon: Duration::from_secs(30),
        };
        assert_eq!(w.peak_concurrency(), 2);
    }
}
