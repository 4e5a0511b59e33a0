//! The sliding windows an SLO policy reads.
//!
//! A [`Window`] is a *bucketed* ring over clock time: the window is split
//! into a fixed number of slices, a sample lands in the slice its
//! timestamp falls into, and slices older than the window are evicted on
//! the next touch. That gives O(slices) memory regardless of event rate,
//! and — crucially for alerting — lets breached statistics *recover* once
//! the bad interval ages out, so alerts can transition back to resolved
//! (a cumulative sketch would stay polluted forever).

use std::collections::VecDeque;
use std::time::Duration;

use taureau_sketches::{KllSketch, Mergeable};

/// One value per time slice over a sliding window: a count, a tally or a
/// small sketch.
#[derive(Debug, Clone)]
pub(crate) struct Window<T> {
    slice_us: u64,
    slices: usize,
    /// (slice index, value) pairs, oldest first.
    ring: VecDeque<(u64, T)>,
}

impl<T> Window<T> {
    /// A window covering `window` of clock time, split into `slices`
    /// buckets (both must be non-zero).
    pub(crate) fn new(window: Duration, slices: usize) -> Self {
        assert!(slices >= 1, "a window needs at least one slice");
        let slice_us = (window.as_micros() as u64 / slices as u64).max(1);
        Self {
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

    /// The value of the slice clock time `at` falls into, opened with
    /// `open` when the slice is new.
    pub(crate) fn slice(&mut self, at: Duration, open: impl FnOnce() -> T) -> &mut T {
        let idx = self.slice_of(at);
        self.evict(idx);
        if self.ring.back().is_none_or(|&(last, _)| last != idx) {
            self.ring.push_back((idx, open()));
        }
        &mut self.ring.back_mut().expect("just pushed").1
    }

    /// The values inside the window ending at clock time `now`, oldest
    /// first.
    pub(crate) fn live(&mut self, now: Duration) -> impl Iterator<Item = &T> {
        let current = self.slice_of(now);
        self.evict(current);
        self.ring.iter().map(|(_, value)| value)
    }
}

/// Samples and a quantile estimate over the window ending at `now`;
/// `None` when the window holds no samples.
pub(crate) fn quantile(w: &mut Window<KllSketch>, now: Duration, q: f64) -> (u64, Option<f64>) {
    let mut live = w.live(now);
    let Some(first) = live.next() else {
        return (0, None);
    };
    let mut merged = first.clone();
    for sketch in live {
        // Same `k` everywhere by construction, so merge cannot fail.
        merged.merge(sketch).expect("uniform k across slices");
    }
    (merged.total(), merged.quantile(q))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn count(w: &mut Window<u64>, now: Duration) -> u64 {
        w.live(now).sum()
    }

    #[test]
    fn rate_window_counts_and_evicts() {
        let mut w = Window::new(ms(10), 5);
        *w.slice(ms(0), || 0) += 3;
        *w.slice(ms(4), || 0) += 2;
        assert_eq!(count(&mut w, ms(4)), 5);
        // 12ms: the slice containing t=0 aged out, t=4 still in.
        assert_eq!(count(&mut w, ms(12)), 2);
        // 30ms: everything aged out.
        assert_eq!(count(&mut w, ms(30)), 0);
    }

    #[test]
    fn rate_window_merges_same_slice_records() {
        let mut w = Window::new(ms(10), 2);
        for _ in 0..100 {
            *w.slice(ms(1), || 0) += 1;
        }
        assert_eq!(count(&mut w, ms(1)), 100);
        assert_eq!(w.ring.len(), 1);
    }

    fn record(w: &mut Window<KllSketch>, at: Duration, value: f64) {
        w.slice(at, || KllSketch::new(64)).update(value);
    }

    #[test]
    fn rolling_quantile_recovers_after_bad_interval() {
        let mut rq = Window::new(ms(100), 10);
        // Healthy traffic: 5ms latencies.
        for t in 0..50u64 {
            record(&mut rq, ms(t * 2), 5_000.0);
        }
        let healthy = quantile(&mut rq, ms(100), 0.99).1.unwrap();
        assert!((healthy - 5_000.0).abs() < 1.0);
        // Fault: 150ms latencies for a while.
        for t in 50..100u64 {
            record(&mut rq, ms(t * 2), 150_000.0);
        }
        assert!(quantile(&mut rq, ms(200), 0.99).1.unwrap() > 100_000.0);
        // Fault clears; once the window slides past it, p99 recovers.
        for t in 100..200u64 {
            record(&mut rq, ms(t * 2), 5_000.0);
        }
        let recovered = quantile(&mut rq, ms(400), 0.99).1.unwrap();
        assert!((recovered - 5_000.0).abs() < 1.0, "p99 was {recovered}");
    }

    #[test]
    fn rolling_quantile_empty_window_is_none() {
        let mut rq = Window::new(ms(10), 2);
        assert_eq!(quantile(&mut rq, Duration::ZERO, 0.5), (0, None));
        record(&mut rq, Duration::ZERO, 1.0);
        assert_eq!(quantile(&mut rq, Duration::ZERO, 0.5), (1, Some(1.0)));
        // Far in the future the sample has aged out.
        assert_eq!(quantile(&mut rq, Duration::from_secs(1), 0.5), (0, None));
    }
}
