//! Monte Carlo simulation on serverless (§5).
//!
//! "Massively parallel applications — be it the traditional Monte Carlo
//! simulation or the contemporary hyperparameter tuning — lend themselves
//! naturally to the serverless paradigm." Each FaaS invocation runs an
//! independently-seeded batch of trials and returns a partial sum; the
//! driver aggregates. Two classic estimators:
//!
//! - [`estimate_pi`]: unit-circle hit counting;
//! - [`price_european_call`]: risk-neutral option pricing under geometric
//!   Brownian motion (the workload HPC shops actually burst to the cloud).
//!
//! Error shrinks as `O(1/√(workers × trials))`, so fan-out buys accuracy at
//! constant wall-clock — the serverless pitch in one line.

use std::sync::Arc;

use taureau_faas::{FaasPlatform, FunctionSpec};

/// Outcome of a fan-out Monte Carlo job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloOutcome {
    /// The aggregated estimate.
    pub(crate) estimate: f64,
    /// Total trials across all workers.
    pub(crate) trials: u64,
    /// FaaS invocations used.
    pub(crate) invocations: u64,
}

use taureau_core::rng::standard_normal;

/// Estimate π with `workers × trials_per_worker` dart throws, one FaaS
/// invocation per worker.
pub fn estimate_pi(
    platform: &FaasPlatform,
    workers: u32,
    trials_per_worker: u64,
    seed: u64,
) -> MonteCarloOutcome {
    assert!(workers >= 1 && trials_per_worker >= 1);
    let fn_name = "mc-pi";
    let _ = platform.deregister(fn_name);
    platform
        .register(FunctionSpec::new(fn_name, "montecarlo", move |ctx| {
            use rand::Rng;
            let worker: u64 = ctx
                .payload_str()
                .and_then(|s| s.parse().ok())
                .ok_or("bad id")?;
            let mut rng = taureau_core::rng::det_rng(seed ^ (worker + 1).wrapping_mul(0x9e37));
            let mut hits = 0u64;
            for _ in 0..trials_per_worker {
                let x: f64 = rng.gen_range(-1.0..1.0);
                let y: f64 = rng.gen_range(-1.0..1.0);
                if x * x + y * y <= 1.0 {
                    hits += 1;
                }
            }
            Ok(hits.to_le_bytes().to_vec())
        }))
        .expect("register");
    let mut hits = 0u64;
    for w in 0..workers {
        let r = platform
            .invoke(fn_name, w.to_string().into_bytes())
            .expect("worker invocation");
        hits += u64::from_le_bytes(r.output[..].try_into().expect("8 bytes"));
    }
    let trials = workers as u64 * trials_per_worker;
    let _ = platform.deregister(fn_name);
    MonteCarloOutcome {
        estimate: 4.0 * hits as f64 / trials as f64,
        trials,
        invocations: workers as u64,
    }
}

/// Parameters of a European call option.
#[derive(Debug, Clone, Copy)]
pub struct CallOption {
    /// Spot price.
    pub(crate) spot: f64,
    /// Strike price.
    pub(crate) strike: f64,
    /// Risk-free rate (annualised).
    pub(crate) rate: f64,
    /// Volatility (annualised).
    pub(crate) volatility: f64,
    /// Time to expiry in years.
    pub(crate) expiry: f64,
}

/// Black–Scholes closed form (the oracle the Monte Carlo estimate is
/// validated against).
#[cfg(test)]
pub(crate) fn black_scholes_call(o: &CallOption) -> f64 {
    let d1 = ((o.spot / o.strike).ln() + (o.rate + o.volatility * o.volatility / 2.0) * o.expiry)
        / (o.volatility * o.expiry.sqrt());
    let d2 = d1 - o.volatility * o.expiry.sqrt();
    o.spot * phi(d1) - o.strike * (-o.rate * o.expiry).exp() * phi(d2)
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation
/// (|error| < 1.5e-7, ample for validating a Monte Carlo estimate).
#[cfg(test)]
fn phi(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

#[cfg(test)]
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Price a European call by risk-neutral simulation across FaaS workers.
pub fn price_european_call(
    platform: &FaasPlatform,
    option: CallOption,
    workers: u32,
    trials_per_worker: u64,
    seed: u64,
) -> MonteCarloOutcome {
    assert!(workers >= 1 && trials_per_worker >= 1);
    let fn_name = "mc-option";
    let opt = Arc::new(option);
    let _ = platform.deregister(fn_name);
    platform
        .register(FunctionSpec::new(fn_name, "montecarlo", move |ctx| {
            let worker: u64 = ctx
                .payload_str()
                .and_then(|s| s.parse().ok())
                .ok_or("bad id")?;
            let mut rng = taureau_core::rng::det_rng(seed ^ (worker + 1).wrapping_mul(0xACE1));
            let o = *opt;
            let drift = (o.rate - o.volatility * o.volatility / 2.0) * o.expiry;
            let vol = o.volatility * o.expiry.sqrt();
            let mut payoff_sum = 0.0f64;
            for _ in 0..trials_per_worker {
                let z = standard_normal(&mut rng);
                let terminal = o.spot * (drift + vol * z).exp();
                payoff_sum += (terminal - o.strike).max(0.0);
            }
            Ok(payoff_sum.to_le_bytes().to_vec())
        }))
        .expect("register");
    let mut total_payoff = 0.0;
    for w in 0..workers {
        let r = platform
            .invoke(fn_name, w.to_string().into_bytes())
            .expect("worker invocation");
        total_payoff += f64::from_le_bytes(r.output[..].try_into().expect("8 bytes"));
    }
    let trials = workers as u64 * trials_per_worker;
    let discounted = (total_payoff / trials as f64) * (-option.rate * option.expiry).exp();
    let _ = platform.deregister(fn_name);
    MonteCarloOutcome {
        estimate: discounted,
        trials,
        invocations: workers as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taureau_core::clock::VirtualClock;
    use taureau_faas::PlatformConfig;

    fn platform() -> FaasPlatform {
        FaasPlatform::new(PlatformConfig::deterministic(), VirtualClock::shared())
    }

    #[test]
    fn pi_converges() {
        let p = platform();
        let out = estimate_pi(&p, 8, 50_000, 1);
        assert_eq!(out.invocations, 8);
        assert_eq!(out.trials, 400_000);
        assert!(
            (out.estimate - std::f64::consts::PI).abs() < 0.02,
            "pi estimate {}",
            out.estimate
        );
    }

    #[test]
    fn more_workers_tighter_estimate() {
        let p = platform();
        let small = estimate_pi(&p, 1, 2_000, 2);
        let big = estimate_pi(&p, 32, 2_000, 2);
        let err_small = (small.estimate - std::f64::consts::PI).abs();
        let err_big = (big.estimate - std::f64::consts::PI).abs();
        assert!(
            err_big < err_small,
            "fan-out should tighten the estimate: {err_small} -> {err_big}"
        );
    }

    #[test]
    fn phi_known_values() {
        assert!((phi(0.0) - 0.5).abs() < 1e-7);
        assert!((phi(1.96) - 0.975).abs() < 1e-3);
        assert!((phi(-1.96) - 0.025).abs() < 1e-3);
    }

    #[test]
    fn option_price_matches_black_scholes() {
        let p = platform();
        let option = CallOption {
            spot: 100.0,
            strike: 105.0,
            rate: 0.05,
            volatility: 0.2,
            expiry: 1.0,
        };
        let closed_form = black_scholes_call(&option);
        let mc = price_european_call(&p, option, 16, 50_000, 3);
        let rel_err = (mc.estimate - closed_form).abs() / closed_form;
        assert!(
            rel_err < 0.02,
            "MC {} vs BS {closed_form} (rel err {rel_err})",
            mc.estimate
        );
        // Sanity: a 5%-OTM one-year call at 20% vol prices near $8.
        assert!((6.0..11.0).contains(&closed_form), "BS {closed_form}");
    }

    #[test]
    fn workers_are_billed() {
        let p = platform();
        estimate_pi(&p, 4, 100, 5);
        assert_eq!(p.billing().invocations("montecarlo"), 4);
    }
}
