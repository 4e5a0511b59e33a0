//! Declarative SLO policies and the alert events they produce.
//!
//! Policies are written in a one-line syntax (also accepted by
//! [`SloPolicy::parse`]):
//!
//! ```text
//! p99 faas.invoke < 60ms            latency quantile threshold
//! error_rate faas.invoke < 5%       error ratio over the fast window
//! burn_rate faas.invoke budget 1% factor 14
//! ```
//!
//! A burn-rate policy implements the multi-window error-budget pattern:
//! it fires when the error rate exceeds `factor ×` the budget over *both*
//! a fast and a slow window (fast for responsiveness, slow to suppress
//! blips), and resolves when the fast window recovers.

use std::fmt;
use std::time::Duration;

use taureau_sketches::KllSketch;

use crate::fold::{SpanSample, KLL_K};
use crate::window::{quantile, Window};

/// One declarative service-level objective over a traced operation.
#[derive(Debug, Clone, PartialEq)]
pub enum SloPolicy {
    /// `p<q> <op> < <duration>`: the windowed latency quantile of `op`
    /// must stay below `max`.
    LatencyQuantile {
        /// Operation (span name), e.g. `faas.invoke`.
        op: String,
        /// Quantile in (0, 1], e.g. 0.99.
        q: f64,
        /// Latency threshold.
        max: Duration,
    },
    /// `error_rate <op> < <pct>%`: the fraction of `op` events with
    /// `outcome=error` over the fast window must stay below `max_ratio`.
    ErrorRate {
        /// Operation (span name).
        op: String,
        /// Maximum error fraction in [0, 1].
        max_ratio: f64,
    },
    /// `burn_rate <op> budget <pct>% factor <n>`: error-budget burn rate
    /// (error rate ÷ budget) must stay below `factor` on both the fast
    /// and the slow window.
    BurnRate {
        /// Operation (span name).
        op: String,
        /// Error budget as a fraction, e.g. 0.01 for a 99% SLO.
        budget: f64,
        /// Burn-rate multiple that pages, e.g. 14.
        factor: f64,
    },
}

impl SloPolicy {
    /// The operation this policy watches.
    pub(crate) fn op(&self) -> &str {
        match self {
            Self::LatencyQuantile { op, .. }
            | Self::ErrorRate { op, .. }
            | Self::BurnRate { op, .. } => op,
        }
    }

    /// Stable human-readable identity, used as the alert id.
    pub(crate) fn name(&self) -> String {
        match self {
            Self::LatencyQuantile { op, q, max } => {
                format!("p{}-{}-lt-{}us", fmt_q(*q), op, max.as_micros())
            }
            Self::ErrorRate { op, max_ratio } => {
                format!("error-rate-{}-lt-{:.4}", op, max_ratio)
            }
            Self::BurnRate { op, budget, factor } => {
                format!("burn-rate-{}-budget-{:.4}-x{}", op, budget, factor)
            }
        }
    }

    /// Parse the one-line policy syntax (see module docs). Whitespace
    /// separated; durations accept `us`, `ms` and `s` suffixes.
    pub fn parse(s: &str) -> Result<Self, SloParseError> {
        let tokens: Vec<&str> = s.split_whitespace().collect();
        let err = || SloParseError {
            input: s.to_string(),
        };
        match tokens.as_slice() {
            [q, op, "<", dur] if q.starts_with('p') => {
                let pct: f64 = q[1..].parse().map_err(|_| err())?;
                if !(0.0..=100.0).contains(&pct) || pct == 0.0 {
                    return Err(err());
                }
                Ok(Self::LatencyQuantile {
                    op: op.to_string(),
                    q: pct / 100.0,
                    max: parse_duration(dur).ok_or_else(err)?,
                })
            }
            ["error_rate", op, "<", pct] => Ok(Self::ErrorRate {
                op: op.to_string(),
                max_ratio: parse_percent(pct).ok_or_else(err)?,
            }),
            ["burn_rate", op, "budget", pct, "factor", factor] => Ok(Self::BurnRate {
                op: op.to_string(),
                budget: parse_percent(pct).ok_or_else(err)?,
                factor: factor.parse().map_err(|_| err())?,
            }),
            _ => Err(err()),
        }
    }
}

impl fmt::Display for SloPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::LatencyQuantile { op, q, max } => {
                write!(f, "p{} {} < {:?}", fmt_q(*q), op, max)
            }
            Self::ErrorRate { op, max_ratio } => {
                write!(f, "error_rate {} < {}%", op, max_ratio * 100.0)
            }
            Self::BurnRate { op, budget, factor } => {
                write!(
                    f,
                    "burn_rate {} budget {}% factor {}",
                    op,
                    budget * 100.0,
                    factor
                )
            }
        }
    }
}

/// Render a quantile fraction the way it appears in policy syntax
/// (0.99 → "99", 0.999 → "99.9").
fn fmt_q(q: f64) -> String {
    let pct = q * 100.0;
    if (pct - pct.round()).abs() < 1e-9 {
        format!("{}", pct.round() as u64)
    } else {
        format!("{pct}")
    }
}

fn parse_duration(s: &str) -> Option<Duration> {
    let (num, unit) = s.split_at(s.find(|c: char| c.is_ascii_alphabetic())?);
    let value: f64 = num.parse().ok()?;
    if value < 0.0 {
        return None;
    }
    let micros = match unit {
        "us" => value,
        "ms" => value * 1_000.0,
        "s" => value * 1_000_000.0,
        _ => return None,
    };
    Some(Duration::from_micros(micros as u64))
}

fn parse_percent(s: &str) -> Option<f64> {
    let ratio: f64 = s.strip_suffix('%')?.parse().ok()?;
    if !(0.0..=100.0).contains(&ratio) {
        return None;
    }
    Some(ratio / 100.0)
}

/// A policy string that did not match the grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloParseError {
    /// The offending input.
    pub(crate) input: String,
}

impl fmt::Display for SloParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unparseable SLO policy: {:?}", self.input)
    }
}

impl std::error::Error for SloParseError {}

/// Whether an alert is currently breaching or has recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// The policy transitioned into breach.
    Firing,
    /// The policy transitioned back to healthy.
    Resolved,
}

impl fmt::Display for AlertState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Firing => "FIRING",
            Self::Resolved => "RESOLVED",
        })
    }
}

/// One transition on the alert stream. The evaluator only emits
/// *transitions* — a breach fires exactly once and resolves exactly once,
/// however many evaluation rounds it spans.
#[derive(Debug, Clone)]
pub struct AlertEvent {
    /// Clock time of the transition.
    pub at: Duration,
    /// [`SloPolicy::name`] of the policy that transitioned.
    pub(crate) policy: String,
    /// Direction of the transition.
    pub state: AlertState,
    /// Observed value at the transition (µs for latency policies, ratio
    /// for error-rate, burn multiple for burn-rate).
    pub(crate) value: f64,
    /// The policy threshold in the same unit as `value`.
    pub(crate) threshold: f64,
}

impl fmt::Display for AlertEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>10.3}s] {:8} {} (value {:.1}, threshold {:.1})",
            self.at.as_secs_f64(),
            self.state.to_string(),
            self.policy,
            self.value,
            self.threshold
        )
    }
}

/// `(events, errors)` in one window slice.
type Tally = (u64, u64);

fn tally(w: &mut Window<Tally>, at: Duration, error: bool) {
    let slice = w.slice(at, || (0, 0));
    slice.0 += 1;
    slice.1 += u64::from(error);
}

/// Events and the error ratio over the window ending at `now`.
fn error_ratio(w: &mut Window<Tally>, now: Duration) -> (u64, f64) {
    let (total, errors) = w.live(now).fold((0, 0), |a, s| (a.0 + s.0, a.1 + s.1));
    (total, errors as f64 / total.max(1) as f64)
}

/// One policy under evaluation: the windows it reads, fed every span of
/// its op, and whether it is firing.
pub(crate) struct Watch {
    pub(crate) policy: SloPolicy,
    pub(crate) firing: bool,
    fast: Window<Tally>,
    /// Burn-rate policies only.
    slow: Option<Window<Tally>>,
    /// Latency policies only.
    latencies: Option<Window<KllSketch>>,
}

impl Watch {
    /// Watch `policy` with windows of `fast` and `slow` clock time, each
    /// split into `slices`.
    pub(crate) fn new(policy: SloPolicy, fast: Duration, slow: Duration, slices: usize) -> Self {
        let is_latency = matches!(policy, SloPolicy::LatencyQuantile { .. });
        let is_burn = matches!(policy, SloPolicy::BurnRate { .. });
        Self {
            policy,
            firing: false,
            fast: Window::new(fast, slices),
            slow: is_burn.then(|| Window::new(slow, slices)),
            latencies: is_latency.then(|| Window::new(fast, slices)),
        }
    }

    /// Take in one span of the watched op.
    pub(crate) fn record(&mut self, s: &SpanSample) {
        let at = Duration::from_micros(s.end_us);
        tally(&mut self.fast, at, s.error);
        if let Some(slow) = &mut self.slow {
            tally(slow, at, s.error);
        }
        if let Some(w) = &mut self.latencies {
            w.slice(at, || KllSketch::new(KLL_K))
                .update(s.latency_us as f64);
        }
    }

    /// Evaluate at `now`; the transition, if the policy crossed its
    /// threshold either way. A window with fewer than `min_samples`
    /// events never breaches.
    pub(crate) fn evaluate(&mut self, now: Duration, min_samples: u64) -> Option<AlertEvent> {
        let (mut n, ratio) = error_ratio(&mut self.fast, now);
        let (breaching, value, threshold) = match &self.policy {
            SloPolicy::LatencyQuantile { q, max, .. } => {
                let latencies = self.latencies.as_mut().expect("a latency policy's window");
                let value = quantile(latencies, now, *q).1.unwrap_or(0.0);
                let threshold = max.as_micros() as f64;
                (value > threshold, value, threshold)
            }
            SloPolicy::ErrorRate { max_ratio, .. } => (ratio > *max_ratio, ratio, *max_ratio),
            SloPolicy::BurnRate { budget, factor, .. } => {
                let slow = self.slow.as_mut().expect("a burn-rate policy's window");
                let (slow_n, slow_ratio) = error_ratio(slow, now);
                n = n.min(slow_n);
                let (fast_burn, slow_burn) = (ratio / budget, slow_ratio / budget);
                // Fire only when both windows burn hot (slow suppresses
                // blips); resolve once the fast window recovers (it ages
                // out first).
                let breaching = fast_burn > *factor && (self.firing || slow_burn > *factor);
                (breaching, fast_burn, *factor)
            }
        };
        let (breaching, value) = if n < min_samples {
            (false, 0.0)
        } else {
            (breaching, value)
        };
        if breaching == self.firing {
            return None;
        }
        self.firing = breaching;
        Some(AlertEvent {
            at: now,
            policy: self.policy.name(),
            state: if breaching {
                AlertState::Firing
            } else {
                AlertState::Resolved
            },
            value,
            threshold,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_latency_quantile() {
        let p = SloPolicy::parse("p99 faas.invoke < 250ms").unwrap();
        assert_eq!(
            p,
            SloPolicy::LatencyQuantile {
                op: "faas.invoke".to_string(),
                q: 0.99,
                max: Duration::from_millis(250),
            }
        );
        assert_eq!(p.op(), "faas.invoke");
        assert!(p.name().contains("p99-faas.invoke"));
        // Fractional quantiles and other units parse too.
        match SloPolicy::parse("p99.9 x < 1s").unwrap() {
            SloPolicy::LatencyQuantile { op, q, max } => {
                assert_eq!(op, "x");
                assert!((q - 0.999).abs() < 1e-12);
                assert_eq!(max, Duration::from_secs(1));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            SloPolicy::parse("p50 x < 500us").unwrap(),
            SloPolicy::LatencyQuantile {
                op: "x".to_string(),
                q: 0.5,
                max: Duration::from_micros(500),
            }
        );
    }

    #[test]
    fn parses_error_rate_and_burn_rate() {
        assert_eq!(
            SloPolicy::parse("error_rate faas.invoke < 5%").unwrap(),
            SloPolicy::ErrorRate {
                op: "faas.invoke".to_string(),
                max_ratio: 0.05,
            }
        );
        assert_eq!(
            SloPolicy::parse("burn_rate faas.invoke budget 1% factor 14").unwrap(),
            SloPolicy::BurnRate {
                op: "faas.invoke".to_string(),
                budget: 0.01,
                factor: 14.0,
            }
        );
    }

    #[test]
    fn rejects_malformed_policies() {
        for bad in [
            "",
            "p99 faas.invoke",
            "p0 x < 10ms",
            "p101 x < 10ms",
            "pxx x < 10ms",
            "p99 x < 10lightyears",
            "error_rate x < 5",
            "error_rate x < 200%",
            "burn_rate x budget 1% factor nope",
            "utterly wrong",
        ] {
            assert!(SloPolicy::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn display_roundtrips_through_parse() {
        for src in [
            "p99 faas.invoke < 250ms",
            "error_rate faas.invoke < 5%",
            "burn_rate faas.invoke budget 1% factor 14",
        ] {
            let p = SloPolicy::parse(src).unwrap();
            let reparsed = SloPolicy::parse(&p.to_string());
            assert_eq!(reparsed.unwrap(), p, "display {:?} reparses", p.to_string());
        }
    }
}
