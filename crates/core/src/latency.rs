//! Injected latency models.
//!
//! Wherever the stack simulates a delay that would be real in production —
//! container cold starts, S3-style persistent storage, cross-node network
//! hops — it samples from a [`LatencyModel`] defined here. Centralising the
//! distributions makes every simulated number traceable to a named
//! calibration constant, per the substitution policy in `DESIGN.md`.
//!
//! Calibration sources:
//! - Cold/warm start: Wang et al., "Peeking Behind the Curtains of
//!   Serverless Platforms" (ATC'18) measured AWS Lambda median cold starts
//!   around 160–250 ms with heavy tails to seconds, warm starts under 25 ms.
//! - S3: public measurements put small-object GET/PUT first-byte latency in
//!   the 10–30 ms range with long tails.
//! - Intra-DC network RTT: 50–500 µs.

use std::time::Duration;

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A distribution over durations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LatencyModel {
    /// Always exactly this value. Used for deterministic tests.
    Constant(Duration),
    /// Uniform over `[lo, hi]`.
    Uniform {
        /// Lower bound.
        lo: Duration,
        /// Upper bound (inclusive).
        hi: Duration,
    },
    /// Log-normal with the given parameters of the underlying normal, in
    /// microsecond scale: `exp(mu + sigma * N(0,1))` microseconds. Heavy
    /// right tail — the right shape for cold starts and storage latencies.
    LogNormal {
        /// Mean of the underlying normal (of ln-microseconds).
        mu: f64,
        /// Standard deviation of the underlying normal.
        sigma: f64,
    },
    /// Shifted log-normal: `base + LogNormal(mu, sigma)`.
    ShiftedLogNormal {
        /// Deterministic floor added to every sample.
        base: Duration,
        /// Mean of the underlying normal (of ln-microseconds).
        mu: f64,
        /// Standard deviation of the underlying normal.
        sigma: f64,
    },
}

impl LatencyModel {
    /// Zero latency (for tests that want no injected delay).
    pub const fn zero() -> Self {
        LatencyModel::Constant(Duration::ZERO)
    }

    /// Sample one delay.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Duration {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform { lo, hi } => {
                debug_assert!(lo <= hi);
                let span = (hi - lo).as_nanos() as u64;
                lo + Duration::from_nanos(if span == 0 {
                    0
                } else {
                    rng.gen_range(0..=span)
                })
            }
            LatencyModel::LogNormal { mu, sigma } => {
                Duration::from_micros(sample_lognormal_us(rng, mu, sigma))
            }
            LatencyModel::ShiftedLogNormal { base, mu, sigma } => {
                base + Duration::from_micros(sample_lognormal_us(rng, mu, sigma))
            }
        }
    }

    /// The distribution mean (exact for constant/uniform, analytic for
    /// log-normal). Used by the DES when it wants expected service times.
    pub fn mean(&self) -> Duration {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform { lo, hi } => (lo + hi) / 2,
            LatencyModel::LogNormal { mu, sigma } => {
                Duration::from_micros((mu + sigma * sigma / 2.0).exp() as u64)
            }
            LatencyModel::ShiftedLogNormal { base, mu, sigma } => {
                base + Duration::from_micros((mu + sigma * sigma / 2.0).exp() as u64)
            }
        }
    }
}

fn sample_lognormal_us<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> u64 {
    let n = crate::rng::standard_normal(rng);
    (mu + sigma * n).exp().round().max(0.0) as u64
}

/// Named calibration profiles used across the stack.
pub mod profiles {
    use super::*;

    /// AWS-Lambda-like container cold start: ~200 ms median, tail to ~1.5 s.
    /// (ln(180_000 µs) ≈ 12.1)
    pub fn cold_start() -> LatencyModel {
        LatencyModel::ShiftedLogNormal {
            base: Duration::from_millis(50),
            mu: 11.9,
            sigma: 0.55,
        }
    }

    /// Warm-container dispatch: single-digit milliseconds.
    pub fn warm_start() -> LatencyModel {
        LatencyModel::ShiftedLogNormal {
            base: Duration::from_micros(500),
            mu: 7.6, // ~2 ms median
            sigma: 0.4,
        }
    }

    /// S3-like persistent store small-object GET.
    pub fn persistent_read() -> LatencyModel {
        LatencyModel::ShiftedLogNormal {
            base: Duration::from_millis(5),
            mu: 9.4, // ~12 ms median
            sigma: 0.5,
        }
    }

    /// S3-like persistent store small-object PUT.
    pub fn persistent_write() -> LatencyModel {
        LatencyModel::ShiftedLogNormal {
            base: Duration::from_millis(8),
            mu: 9.6, // ~15 ms median
            sigma: 0.5,
        }
    }

    /// In-memory store op (Jiffy-class): tens of microseconds.
    pub fn memory_op() -> LatencyModel {
        LatencyModel::Uniform {
            lo: Duration::from_micros(10),
            hi: Duration::from_micros(80),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(42)
    }

    #[test]
    fn constant_is_constant() {
        let m = LatencyModel::Constant(Duration::from_millis(7));
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(m.sample(&mut r), Duration::from_millis(7));
        }
        assert_eq!(m.mean(), Duration::from_millis(7));
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let lo = Duration::from_micros(100);
        let hi = Duration::from_micros(200);
        let m = LatencyModel::Uniform { lo, hi };
        let mut r = rng();
        for _ in 0..1000 {
            let s = m.sample(&mut r);
            assert!(s >= lo && s <= hi);
        }
        assert_eq!(m.mean(), Duration::from_micros(150));
    }

    #[test]
    fn lognormal_empirical_mean_close_to_analytic() {
        let m = LatencyModel::LogNormal {
            mu: 10.0,
            sigma: 0.5,
        };
        let mut r = rng();
        let n = 200_000;
        let total: f64 = (0..n).map(|_| m.sample(&mut r).as_micros() as f64).sum();
        let empirical = total / n as f64;
        let analytic = m.mean().as_micros() as f64;
        let err = (empirical - analytic).abs() / analytic;
        assert!(err < 0.05, "empirical {empirical} analytic {analytic}");
    }

    #[test]
    fn cold_start_profile_is_slower_than_warm() {
        let mut r = rng();
        let cold = profiles::cold_start();
        let warm = profiles::warm_start();
        let avg = |m: &LatencyModel, r: &mut ChaCha8Rng| {
            (0..2000)
                .map(|_| m.sample(r).as_micros() as u64)
                .sum::<u64>()
                / 2000
        };
        let c = avg(&cold, &mut r);
        let w = avg(&warm, &mut r);
        assert!(
            c > 10 * w,
            "cold starts should dominate warm starts: cold={c}us warm={w}us"
        );
        // Cold start median should land in the 100ms..1s band the
        // literature reports.
        assert!(c > 100_000 && c < 1_000_000, "cold mean {c}us out of band");
    }

    #[test]
    fn persistent_store_slower_than_memory() {
        let mem = profiles::memory_op().mean();
        let disk = profiles::persistent_read().mean();
        assert!(disk > 50 * mem, "persistent {disk:?} vs memory {mem:?}");
    }

    #[test]
    fn shifted_lognormal_respects_floor() {
        let base = Duration::from_millis(50);
        let m = LatencyModel::ShiftedLogNormal {
            base,
            mu: 8.0,
            sigma: 1.0,
        };
        let mut r = rng();
        for _ in 0..1000 {
            assert!(m.sample(&mut r) >= base);
        }
    }
}
