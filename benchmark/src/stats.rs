//! Percentiles, medians and the median-of-segments summary every
//! throughput/latency metric is reported as.

/// `q`-quantile of an ascending slice, linearly interpolated between the
/// two closest ranks (so the value is not quantized to one sample).
pub fn percentile(sorted: &[u32], q: f64) -> f64 {
    assert!(!sorted.is_empty() && (0.0..=1.0).contains(&q));
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    f64::from(sorted[lo]) * (1.0 - frac) + f64::from(sorted[hi]) * frac
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty());
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A metric as reported: `value` is what the gate sees, `min`..`max` its
/// range over everything measured (all segments, all set-ups), kept as the
/// run's own noise estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    fn ranging(value: f64, over: &[f64]) -> Self {
        Self {
            value,
            min: over.iter().copied().fold(f64::INFINITY, f64::min),
            max: over.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    pub fn min_of(values: &[f64]) -> Self {
        let s = Self::ranging(0.0, values);
        Self { value: s.min, ..s }
    }
}

/// One measured segment: what every client completed inside it.
#[derive(Debug, Default, Clone)]
pub struct Segment {
    /// Latency of each completed request, nanoseconds.
    pub latencies_ns: Vec<u32>,
    /// Length of the segment, seconds.
    pub seconds: f64,
}

impl Segment {
    pub fn throughput(&self) -> f64 {
        self.latencies_ns.len() as f64 / self.seconds
    }
}

/// The three timing metrics of one run, taken over its quiet segments.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub throughput_rps: Summary,
    pub latency_p50_us: Summary,
    pub latency_p99_us: Summary,
    /// Median throughput of all segments, quiet or not: how far below the
    /// reported value it lies says how much of the window was disturbed.
    pub all_segments_rps: f64,
    /// Latency samples behind the percentiles (p99 wants >= 1 000).
    pub samples: usize,
}

/// Summarize a window over its `keep` segments of highest throughput.
///
/// On a shared host a window is a patchwork of plateaus: seconds at full
/// speed, then seconds at 0.6-0.7 of it while a neighbour has the core's
/// other hardware thread, and a run may be mostly one or mostly the other.
/// A median over all segments then reports whichever plateau was longer.
/// The segments of highest throughput are the ones the host left alone:
/// throughput is their median, and the latency percentiles are taken over
/// their pooled samples (not per segment, so that p99 keeps enough samples
/// beyond it). `keep == segments.len()` keeps the whole window.
pub fn summarize(segments: &mut [Segment], keep: usize) -> Timing {
    let mut thr = Vec::new();
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    for s in segments.iter_mut() {
        s.latencies_ns.sort_unstable();
        thr.push(s.throughput());
        // A segment the host stalled through completed nothing: it counts
        // as throughput 0 and has no latency to report.
        if s.latencies_ns.is_empty() {
            continue;
        }
        p50.push(percentile(&s.latencies_ns, 0.50) / 1e3);
        p99.push(percentile(&s.latencies_ns, 0.99) / 1e3);
    }
    let mut by_throughput: Vec<&Segment> = segments.iter().collect();
    by_throughput.sort_by(|a, b| b.throughput().total_cmp(&a.throughput()));
    by_throughput.truncate(keep);
    let quiet_thr: Vec<f64> = by_throughput.iter().map(|s| s.throughput()).collect();
    let mut pooled: Vec<u32> = by_throughput
        .iter()
        .flat_map(|s| s.latencies_ns.iter().copied())
        .collect();
    pooled.sort_unstable();
    assert!(
        !pooled.is_empty(),
        "no request completed inside the measured window"
    );
    Timing {
        throughput_rps: Summary::ranging(median(&quiet_thr), &thr),
        latency_p50_us: Summary::ranging(percentile(&pooled, 0.50) / 1e3, &p50),
        latency_p99_us: Summary::ranging(percentile(&pooled, 0.99) / 1e3, &p99),
        all_segments_rps: median(&thr),
        samples: pooled.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert!((percentile(&v, 0.50) - 50.5).abs() < 1e-9);
        assert!((percentile(&v, 0.99) - 99.01).abs() < 1e-9);
        assert_eq!(percentile(&[7], 0.99), 7.0);
    }

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    fn segment(latency_ns: u32, count: usize) -> Segment {
        Segment {
            latencies_ns: vec![latency_ns; count],
            seconds: 1.0,
        }
    }

    #[test]
    fn empty_segment_counts_as_zero_throughput_and_no_latency() {
        let mut segs = vec![segment(2000, 10), segment(0, 0), segment(2000, 10)];
        let t = summarize(&mut segs, 3);
        assert_eq!(t.throughput_rps.min, 0.0);
        assert_eq!(t.throughput_rps.value, 10.0);
        assert_eq!((t.latency_p50_us.min, t.latency_p50_us.max), (2.0, 2.0));
        assert_eq!(t.samples, 20);
    }

    #[test]
    fn whole_window_ignores_one_bad_segment() {
        // Four quiet segments and one that a noisy neighbour slowed 3x.
        let mut segs: Vec<Segment> = (0..5)
            .map(|i| {
                if i == 2 {
                    segment(3000, 400)
                } else {
                    segment(1000, 1200)
                }
            })
            .collect();
        let t = summarize(&mut segs, 5);
        assert_eq!(t.throughput_rps.value, 1200.0);
        assert_eq!(t.throughput_rps.min, 400.0);
        assert_eq!(t.latency_p50_us.value, 1.0);
        assert_eq!(t.latency_p50_us.max, 3.0);
        assert_eq!(t.samples, 5200);
    }

    #[test]
    fn quiet_segments_survive_a_mostly_disturbed_window() {
        // Seven of ten segments on the slow plateau: the median of all
        // reports the plateau, the three quiet segments report the program.
        let mut segs: Vec<Segment> = (0..10)
            .map(|i| {
                if i % 4 == 1 {
                    segment(1000, 1000)
                } else {
                    segment(1500, 650)
                }
            })
            .collect();
        let t = summarize(&mut segs, 3);
        assert_eq!(t.throughput_rps.value, 1000.0);
        assert_eq!(t.all_segments_rps, 650.0);
        assert_eq!(t.latency_p50_us.value, 1.0);
        assert_eq!(t.latency_p99_us.value, 1.0);
        assert_eq!((t.latency_p99_us.min, t.latency_p99_us.max), (1.0, 1.5));
        assert_eq!(t.samples, 3000);
    }
}
