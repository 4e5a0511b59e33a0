//! Time-windowed statistics the SLO evaluator folds telemetry into.
//!
//! Both structures here are *bucketed* rings over clock time: the window
//! is split into a fixed number of slices, events land in the slice their
//! timestamp falls into, and slices older than the window are evicted on
//! the next touch. That gives O(slices) memory regardless of event rate,
//! and — crucially for alerting — lets breached statistics *recover* once
//! the bad interval ages out, so alerts can transition back to resolved
//! (a cumulative sketch would stay polluted forever).

use std::collections::VecDeque;
use std::time::Duration;

use taureau_sketches::{KllSketch, Mergeable};

/// Count of events over a sliding time window, bucketed into slices.
#[derive(Debug, Clone)]
pub(crate) struct RateWindow {
    slice_us: u64,
    slices: usize,
    /// (slice index, count) pairs, oldest first.
    buckets: VecDeque<(u64, u64)>,
}

impl RateWindow {
    /// A window covering `window` of clock time, split into `slices`
    /// buckets (both must be non-zero).
    pub(crate) fn new(window: Duration, slices: usize) -> Self {
        assert!(slices >= 1, "rate window needs at least one slice");
        let slice_us = (window.as_micros() as u64 / slices as u64).max(1);
        Self {
            slice_us,
            slices,
            buckets: VecDeque::new(),
        }
    }

    fn slice_of(&self, at: Duration) -> u64 {
        at.as_micros() as u64 / self.slice_us
    }

    fn evict(&mut self, current: u64) {
        while let Some(&(idx, _)) = self.buckets.front() {
            if idx + self.slices as u64 <= current {
                self.buckets.pop_front();
            } else {
                break;
            }
        }
    }

    /// Record `n` events at clock time `at`.
    pub(crate) fn record(&mut self, at: Duration, n: u64) {
        let idx = self.slice_of(at);
        self.evict(idx);
        match self.buckets.back_mut() {
            Some((last, count)) if *last == idx => *count += n,
            _ => self.buckets.push_back((idx, n)),
        }
    }

    /// Events inside the window ending at clock time `now`.
    pub(crate) fn count(&mut self, now: Duration) -> u64 {
        let current = self.slice_of(now);
        self.evict(current);
        self.buckets.iter().map(|&(_, c)| c).sum()
    }
}

/// Quantiles over a sliding time window: one small KLL sketch per time
/// slice, merged on query. Recording is O(1) amortized; querying merges
/// at most `slices` sketches.
#[derive(Debug, Clone)]
pub(crate) struct RollingQuantile {
    k: usize,
    slice_us: u64,
    slices: usize,
    /// (slice index, sketch) pairs, oldest first.
    ring: VecDeque<(u64, KllSketch)>,
}

impl RollingQuantile {
    /// A rolling window covering `window`, split into `slices` sub-sketches
    /// of accuracy `k` (see [`KllSketch::new`]).
    pub(crate) fn new(window: Duration, slices: usize, k: usize) -> Self {
        assert!(slices >= 1, "rolling quantile needs at least one slice");
        let slice_us = (window.as_micros() as u64 / slices as u64).max(1);
        Self {
            k,
            slice_us,
            slices,
            ring: VecDeque::new(),
        }
    }

    fn slice_of(&self, at: Duration) -> u64 {
        at.as_micros() as u64 / self.slice_us
    }

    fn evict(&mut self, current: u64) {
        while let Some(&(idx, _)) = self.ring.front() {
            if idx + self.slices as u64 <= current {
                self.ring.pop_front();
            } else {
                break;
            }
        }
    }

    /// Record one sample observed at clock time `at`.
    pub(crate) fn record(&mut self, at: Duration, value: f64) {
        let idx = self.slice_of(at);
        self.evict(idx);
        match self.ring.back_mut() {
            Some((last, sketch)) if *last == idx => sketch.update(value),
            _ => {
                let mut sketch = KllSketch::new(self.k);
                sketch.update(value);
                self.ring.push_back((idx, sketch));
            }
        }
    }

    /// Samples inside the window ending at `now`.
    pub(crate) fn count(&mut self, now: Duration) -> u64 {
        let current = self.slice_of(now);
        self.evict(current);
        self.ring.iter().map(|(_, s)| s.total()).sum()
    }

    /// Quantile estimate over the window ending at `now`; `None` when the
    /// window holds no samples.
    pub(crate) fn quantile(&mut self, now: Duration, q: f64) -> Option<f64> {
        let current = self.slice_of(now);
        self.evict(current);
        let mut iter = self.ring.iter();
        let mut merged = iter.next()?.1.clone();
        for (_, sketch) in iter {
            // Same `k` everywhere by construction, so merge cannot fail.
            merged.merge(sketch).expect("uniform k across slices");
        }
        merged.quantile(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn rate_window_counts_and_evicts() {
        let mut w = RateWindow::new(ms(10), 5);
        w.record(ms(0), 3);
        w.record(ms(4), 2);
        assert_eq!(w.count(ms(4)), 5);
        // 12ms: the slice containing t=0 aged out, t=4 still in.
        assert_eq!(w.count(ms(12)), 2);
        // 30ms: everything aged out.
        assert_eq!(w.count(ms(30)), 0);
    }

    #[test]
    fn rate_window_merges_same_slice_records() {
        let mut w = RateWindow::new(ms(10), 2);
        for _ in 0..100 {
            w.record(ms(1), 1);
        }
        assert_eq!(w.count(ms(1)), 100);
    }

    #[test]
    fn rolling_quantile_recovers_after_bad_interval() {
        let mut rq = RollingQuantile::new(ms(100), 10, 64);
        // Healthy traffic: 5ms latencies.
        for t in 0..50u64 {
            rq.record(ms(t * 2), 5_000.0);
        }
        let healthy = rq.quantile(ms(100), 0.99).unwrap();
        assert!((healthy - 5_000.0).abs() < 1.0);
        // Fault: 150ms latencies for a while.
        for t in 50..100u64 {
            rq.record(ms(t * 2), 150_000.0);
        }
        assert!(rq.quantile(ms(200), 0.99).unwrap() > 100_000.0);
        // Fault clears; once the window slides past it, p99 recovers.
        for t in 100..200u64 {
            rq.record(ms(t * 2), 5_000.0);
        }
        let recovered = rq.quantile(ms(400), 0.99).unwrap();
        assert!((recovered - 5_000.0).abs() < 1.0, "p99 was {recovered}");
    }

    #[test]
    fn rolling_quantile_empty_window_is_none() {
        let mut rq = RollingQuantile::new(Duration::from_millis(10), 2, 64);
        assert_eq!(rq.quantile(Duration::ZERO, 0.5), None);
        rq.record(Duration::ZERO, 1.0);
        assert!(rq.quantile(Duration::ZERO, 0.5).is_some());
        assert_eq!(rq.count(Duration::ZERO), 1);
        // Far in the future the sample has aged out.
        assert_eq!(rq.quantile(Duration::from_secs(1), 0.5), None);
    }
}
