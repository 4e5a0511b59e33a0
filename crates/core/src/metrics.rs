//! Counters, gauges and histograms.
//!
//! The stack records every latency and billing event through these types, and
//! the benchmark harness reads them back to print the experiment tables.
//! [`Histogram`] is a log-linear bucketed histogram (HDR-style: power-of-two
//! magnitude, linear sub-buckets), giving bounded relative error on quantile
//! queries without storing raw samples.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::sync::{ShardedMap, StripedCounter};

/// Number of linear sub-buckets per power-of-two magnitude. 16 sub-buckets
/// gives a worst-case relative error of 1/16 ≈ 6% on quantiles, ample for
/// latency reporting.
const SUB_BUCKETS: usize = 16;
const SUB_BUCKET_BITS: u32 = 4; // log2(SUB_BUCKETS)
/// Magnitudes 2^0 .. 2^63.
const MAGNITUDES: usize = 64;

/// A monotonically increasing counter.
///
/// Internally striped across per-thread cells
/// ([`StripedCounter`]): increments are a single uncontended
/// `fetch_add` on a cache line the incrementing thread effectively owns,
/// and [`Counter::get`] folds the cells into the total. Hot paths on many
/// threads never serialize on a shared line.
#[derive(Debug, Default)]
pub struct Counter {
    value: StripedCounter,
}

impl Counter {
    /// New counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.add(n);
    }

    /// Current value (folds the per-thread cells).
    pub fn get(&self) -> u64 {
        self.value.get()
    }
}

/// A gauge that can move both ways (e.g. live containers, allocated blocks).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// New gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increase by `n`.
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Decrease by `n`.
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Set to an absolute value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Log-linear bucketed histogram over `u64` values.
///
/// Values are assigned to one of `64 * SUB_BUCKETS` buckets; the bucket's
/// representative value (its upper bound) is returned from quantile queries,
/// so quantiles are over-estimates by at most one sub-bucket width.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    min: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Self {
        let mut buckets = Vec::with_capacity(MAGNITUDES * SUB_BUCKETS);
        buckets.resize_with(MAGNITUDES * SUB_BUCKETS, AtomicU64::default);
        Self {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
        }
    }

    fn bucket_index(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let magnitude = 63 - value.leading_zeros();
        let shift = magnitude - SUB_BUCKET_BITS;
        let sub = ((value >> shift) as usize) & (SUB_BUCKETS - 1);
        ((magnitude - SUB_BUCKET_BITS + 1) as usize) * SUB_BUCKETS + sub
    }

    fn bucket_upper_bound(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            return index as u64;
        }
        let magnitude = (index / SUB_BUCKETS) as u32 + SUB_BUCKET_BITS - 1;
        let sub = (index % SUB_BUCKETS) as u128;
        let base = 1u128 << magnitude;
        let width = 1u128 << (magnitude - SUB_BUCKET_BITS);
        // The very top sub-bucket's bound is 2^64, one past u64::MAX;
        // saturate so bucket_index(u64::MAX) round-trips without overflow.
        (base + (sub + 1) * width - 1).min(u64::MAX as u128) as u64
    }

    /// Record one value.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        // The bounds settle after a few samples: read them, and write
        // (a read-modify-write on a line every recorder shares) only when
        // this value moves one.
        if value > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(value, Ordering::Relaxed);
        }
        if value < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(value, Ordering::Relaxed);
        }
    }

    /// Record a duration in microseconds, saturating at `u64::MAX` for
    /// durations too large to represent (rather than silently truncating).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Fold another histogram's population into this one (used to publish
    /// a locally-built histogram into a registry).
    pub fn merge_from(&self, other: &Histogram) {
        for (bucket, other_bucket) in self.buckets.iter().zip(&other.buckets) {
            let n = other_bucket.load(Ordering::Relaxed);
            if n > 0 {
                bucket.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean of recorded values, or 0 if empty.
    pub fn mean(&self) -> f64 {
        let c = self.count();
        if c == 0 {
            0.0
        } else {
            self.sum() as f64 / c as f64
        }
    }

    /// Largest recorded value, or 0 if empty.
    pub fn max(&self) -> u64 {
        if self.count() == 0 {
            0
        } else {
            self.max.load(Ordering::Relaxed)
        }
    }

    /// Smallest recorded value, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count() == 0 {
            0
        } else {
            self.min.load(Ordering::Relaxed)
        }
    }

    /// Value at quantile `q` in `[0, 1]` (upper bound of the containing
    /// bucket). Returns 0 for an empty histogram.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_upper_bound(i).min(self.max());
            }
        }
        self.max()
    }

    /// Convenience: p50.
    pub fn p50(&self) -> u64 {
        self.value_at_quantile(0.50)
    }

    /// Convenience: p99.
    pub fn p99(&self) -> u64 {
        self.value_at_quantile(0.99)
    }

    /// Duration view of a quantile, assuming microsecond recordings.
    pub fn quantile_duration(&self, q: f64) -> Duration {
        Duration::from_micros(self.value_at_quantile(q))
    }

    /// Quantile estimate from the bucket bounds — the monitoring-facing
    /// alias for [`Histogram::value_at_quantile`].
    pub fn quantile(&self, q: f64) -> u64 {
        self.value_at_quantile(q)
    }

    /// One-line health summary (`count/p50/p90/p99/max`), the form used
    /// by health-report renderers.
    pub fn summary(&self) -> String {
        format!(
            "count={} p50={} p90={} p99={} max={}",
            self.count(),
            self.value_at_quantile(0.50),
            self.value_at_quantile(0.90),
            self.value_at_quantile(0.99),
            self.max(),
        )
    }
}

/// Point-in-time snapshot of a histogram for reporting.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Sample count.
    pub count: u64,
    /// Mean value.
    pub mean: f64,
    /// Minimum value.
    pub min: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Maximum value.
    pub max: u64,
}

impl Histogram {
    /// Take a snapshot of the common reporting quantiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            mean: self.mean(),
            min: self.min(),
            p50: self.value_at_quantile(0.50),
            p90: self.value_at_quantile(0.90),
            p99: self.value_at_quantile(0.99),
            max: self.max(),
        }
    }
}

/// A named registry of metrics, shared across a subsystem.
///
/// Lookups create on first use, so call sites never have to pre-register.
/// The name→metric maps are sharded ([`ShardedMap`]): concurrent lookups
/// of different metric names lock different stripes, so the registry no
/// longer serializes every hot path that touches any metric. Report-time
/// accessors still return name-sorted vectors.
#[derive(Debug, Default, Clone)]
pub struct MetricsRegistry {
    inner: Arc<RegistryShards>,
}

#[derive(Debug, Default)]
struct RegistryShards {
    counters: ShardedMap<String, Arc<Counter>>,
    gauges: ShardedMap<String, Arc<Gauge>>,
    histograms: ShardedMap<String, Arc<Histogram>>,
}

/// Collect a sharded name→metric map into a name-sorted projection.
fn sorted_view<M, T>(
    map: &ShardedMap<String, Arc<M>>,
    project: impl Fn(&Arc<M>) -> T,
) -> Vec<(String, T)> {
    let mut out = Vec::new();
    map.for_each(|k, v| out.push((k.clone(), project(v))));
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Get-or-create on a sharded metric map without allocating on the hot
/// path: the steady state is "metric already exists", which `entry()`
/// would pay an unconditional `name.to_string()` for on *every* call —
/// the dominant cost e25 measured on `metrics_counter`-adjacent paths.
/// Only the first touch of a name (the miss) allocates.
fn get_or_create<M>(
    map: &ShardedMap<String, Arc<M>>,
    name: &str,
    create: impl FnOnce() -> M,
) -> Arc<M> {
    map.with(name, |shard| {
        if let Some(existing) = shard.get(name) {
            return Arc::clone(existing);
        }
        let created = Arc::new(create());
        shard.insert(name.to_string(), Arc::clone(&created));
        created
    })
}

impl MetricsRegistry {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create a counter.
    #[inline]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create(&self.inner.counters, name, Counter::new)
    }

    /// Get or create a gauge.
    #[inline]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create(&self.inner.gauges, name, Gauge::new)
    }

    /// Get or create a histogram.
    #[inline]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_create(&self.inner.histograms, name, Histogram::new)
    }

    /// Names and values of all counters, sorted by name.
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        sorted_view(&self.inner.counters, |c| c.get())
    }

    /// Names and snapshots of all histograms, sorted by name.
    pub fn histogram_snapshots(&self) -> Vec<(String, HistogramSnapshot)> {
        sorted_view(&self.inner.histograms, |h| h.snapshot())
    }

    /// Names and one-line [`Histogram::summary`] strings of all
    /// histograms, sorted by name — the form health reports embed.
    pub fn histogram_summaries(&self) -> Vec<(String, String)> {
        sorted_view(&self.inner.histograms, |h| h.summary())
    }

    /// Names and values of all gauges, sorted by name.
    pub fn gauge_values(&self) -> Vec<(String, i64)> {
        sorted_view(&self.inner.gauges, |g| g.get())
    }

    /// Render every metric in the Prometheus text exposition format.
    ///
    /// Counters and gauges become single samples; histograms become
    /// summaries (`{quantile="..."}` samples plus `_sum` and `_count`).
    pub fn render_prometheus(&self) -> String {
        self.render_prometheus_prefixed("")
    }

    /// [`render_prometheus`](Self::render_prometheus) with every metric
    /// name prefixed (e.g. a subsystem name), so expositions from several
    /// registries can be concatenated without collisions.
    pub fn render_prometheus_prefixed(&self, prefix: &str) -> String {
        self.render_prometheus_labeled(prefix, &[])
    }

    /// [`render_prometheus_prefixed`](Self::render_prometheus_prefixed)
    /// with a shared label set attached to every sample (e.g.
    /// `instance`/`tenant` identity when several processes' expositions
    /// are scraped together). Label *names* must already be valid
    /// Prometheus identifiers; label *values* are arbitrary and escaped
    /// per the text-format spec (backslash, double-quote, line feed).
    /// Every metric family gets `# HELP` and `# TYPE` comment lines.
    pub fn render_prometheus_labeled(&self, prefix: &str, labels: &[(&str, &str)]) -> String {
        fn sanitize(prefix: &str, name: &str) -> String {
            let mut out = String::with_capacity(prefix.len() + name.len());
            for (i, c) in prefix.chars().chain(name.chars()).enumerate() {
                match c {
                    'a'..='z' | 'A'..='Z' | '_' | ':' => out.push(c),
                    '0'..='9' if i > 0 => out.push(c),
                    _ => out.push('_'),
                }
            }
            out
        }

        use std::fmt::Write as _;
        let shared = labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
            .collect::<Vec<_>>()
            .join(",");
        // Label block for plain samples; empty when there are no labels.
        let base = if shared.is_empty() {
            String::new()
        } else {
            format!("{{{shared}}}")
        };
        let with_quantile = |q: f64| {
            if shared.is_empty() {
                format!("{{quantile=\"{q}\"}}")
            } else {
                format!("{{{shared},quantile=\"{q}\"}}")
            }
        };

        let mut out = String::new();
        for (orig, value) in self.counter_values() {
            let name = sanitize(prefix, &orig);
            let _ = writeln!(out, "# HELP {name} Counter `{}`.", escape_help(&orig));
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name}{base} {value}");
        }
        for (orig, value) in self.gauge_values() {
            let name = sanitize(prefix, &orig);
            let _ = writeln!(out, "# HELP {name} Gauge `{}`.", escape_help(&orig));
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name}{base} {value}");
        }
        for (orig, h) in sorted_view(&self.inner.histograms, Arc::clone) {
            let name = sanitize(prefix, &orig);
            let _ = writeln!(
                out,
                "# HELP {name} Histogram `{}` quantile summary.",
                escape_help(&orig)
            );
            let _ = writeln!(out, "# TYPE {name} summary");
            for q in [0.5, 0.9, 0.99] {
                let _ = writeln!(out, "{name}{} {}", with_quantile(q), h.value_at_quantile(q));
            }
            let _ = writeln!(out, "{name}_sum{base} {}", h.sum());
            let _ = writeln!(out, "{name}_count{base} {}", h.count());
        }
        out
    }
}

/// Escape a Prometheus label value per the text exposition format:
/// backslash → `\\`, double-quote → `\"`, line feed → `\n`. All other
/// bytes pass through untouched (values are arbitrary UTF-8).
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escape `# HELP` text per the exposition format: backslash → `\\` and
/// line feed → `\n` (quotes are legal in help text and stay literal).
fn escape_help(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::new();
        g.add(10);
        g.sub(3);
        assert_eq!(g.get(), 7);
        g.set(-2);
        assert_eq!(g.get(), -2);
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn histogram_exact_for_small_values() {
        let h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
        assert_eq!(h.value_at_quantile(1.0), 15);
        assert_eq!(h.value_at_quantile(0.0), 0);
    }

    #[test]
    fn histogram_quantile_relative_error_bounded() {
        let h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for q in [0.5, 0.9, 0.99, 0.999] {
            let expect = (q * 100_000.0) as u64;
            let got = h.value_at_quantile(q);
            let err = (got as f64 - expect as f64).abs() / expect as f64;
            assert!(err < 0.07, "q={q}: got {got}, expect {expect}, err {err}");
            assert!(got >= expect, "quantile should be an upper bound");
        }
    }

    #[test]
    fn histogram_bucket_roundtrip_upper_bound_contains_value() {
        for v in [0u64, 1, 15, 16, 17, 255, 256, 1 << 20, u64::MAX / 2] {
            let idx = Histogram::bucket_index(v);
            let ub = Histogram::bucket_upper_bound(idx);
            assert!(ub >= v, "value {v} above bucket upper bound {ub}");
        }
    }

    #[test]
    fn histogram_summary_line_and_quantile_alias() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), h.value_at_quantile(0.5));
        let s = h.summary();
        assert!(s.starts_with("count=100 "));
        assert!(s.contains("p50="));
        assert!(s.contains("p90="));
        assert!(s.contains("p99="));
        assert!(s.contains("max="));
        let empty = Histogram::new();
        assert_eq!(empty.summary(), "count=0 p50=0 p90=0 p99=0 max=0");
    }

    /// `record` as it was before it learned to skip the bound updates:
    /// every field written unconditionally. The oracle for the proptest.
    fn record_unconditionally(h: &Histogram, value: u64) {
        h.buckets[Histogram::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(value, Ordering::Relaxed);
        h.max.fetch_max(value, Ordering::Relaxed);
        h.min.fetch_min(value, Ordering::Relaxed);
    }

    fn everything(h: &Histogram) -> (u64, u64, u64, u64, Vec<u64>) {
        let quantiles = (0..=100).map(|q| h.value_at_quantile(f64::from(q) / 100.0));
        (h.count(), h.sum(), h.min(), h.max(), quantiles.collect())
    }

    proptest::proptest! {
        /// Skipping `fetch_max`/`fetch_min` when the value moves no bound
        /// changes nothing a reader can see: count, sum, min, max and
        /// every quantile match the unconditional writes, recorded on one
        /// thread or split across four.
        #[test]
        fn histogram_record_matches_unconditional_writes(
            values in proptest::collection::vec(
                proptest::prop_oneof![0u64..64, 0u64..100_000, proptest::arbitrary::any::<u64>()],
                0..400,
            ),
        ) {
            let want = Histogram::new();
            for &v in &values {
                // Sums may wrap on arbitrary u64s; both sides wrap alike.
                record_unconditionally(&want, v);
            }
            let one = Histogram::new();
            values.iter().for_each(|&v| one.record(v));
            proptest::prop_assert_eq!(everything(&one), everything(&want));

            let four = Histogram::new();
            std::thread::scope(|s| {
                for chunk in values.chunks(values.len().div_ceil(4).max(1)) {
                    let four = &four;
                    s.spawn(move || chunk.iter().for_each(|&v| four.record(v)));
                }
            });
            proptest::prop_assert_eq!(everything(&four), everything(&want));
        }
    }

    #[test]
    fn histogram_mean_and_sum() {
        let h = Histogram::new();
        h.record(10);
        h.record(20);
        h.record(30);
        assert_eq!(h.sum(), 60);
        assert!((h.mean() - 20.0).abs() < f64::EPSILON);
    }

    #[test]
    fn record_duration_saturates_instead_of_truncating() {
        let h = Histogram::new();
        // 2^64 µs does not fit in u64; a silent `as u64` cast would wrap
        // this to a tiny value. It must land at the very top instead.
        let big = Duration::from_secs(u64::MAX / 1_000_000 + 1);
        assert!(big.as_micros() > u64::MAX as u128);
        h.record_duration(big);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.value_at_quantile(1.0), u64::MAX);
    }

    #[test]
    fn bucket_index_of_u64_max_round_trips() {
        let idx = Histogram::bucket_index(u64::MAX);
        assert!(idx < MAGNITUDES * SUB_BUCKETS);
        // Must not overflow, and must still contain the value.
        assert_eq!(Histogram::bucket_upper_bound(idx), u64::MAX);
        let h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.value_at_quantile(0.5), u64::MAX);
    }

    #[test]
    fn gauge_values_reports_all_gauges() {
        let r = MetricsRegistry::new();
        r.gauge("live_containers").set(4);
        r.gauge("allocated_blocks").add(7);
        assert_eq!(
            r.gauge_values(),
            vec![
                ("allocated_blocks".to_string(), 7),
                ("live_containers".to_string(), 4)
            ]
        );
    }

    #[test]
    fn prometheus_exposition_format() {
        let r = MetricsRegistry::new();
        r.counter("invocations").add(3);
        r.gauge("pool.size").set(-2);
        r.histogram("latency_us").record(100);
        let text = r.render_prometheus_prefixed("faas_");
        assert!(text.contains("# TYPE faas_invocations counter\nfaas_invocations 3\n"));
        // Dots are sanitized to underscores.
        assert!(text.contains("# TYPE faas_pool_size gauge\nfaas_pool_size -2\n"));
        assert!(text.contains("# TYPE faas_latency_us summary"));
        assert!(text.contains("faas_latency_us{quantile=\"0.5\"} "));
        assert!(text.contains("faas_latency_us_sum 100\n"));
        assert!(text.contains("faas_latency_us_count 1\n"));
        // Every non-comment line is `name value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.split_whitespace();
            assert!(parts.next().is_some(), "bad line: {line}");
            let val = parts.next().expect("value field");
            assert!(val.parse::<f64>().is_ok(), "unparsable value in: {line}");
            assert_eq!(parts.next(), None, "trailing fields in: {line}");
        }
    }

    #[test]
    fn prometheus_help_lines_precede_type_lines() {
        let r = MetricsRegistry::new();
        r.counter("invocations").inc();
        r.gauge("pool.size").set(1);
        r.histogram("latency_us").record(5);
        let text = r.render_prometheus_prefixed("faas_");
        for family in ["faas_invocations", "faas_pool_size", "faas_latency_us"] {
            let help = text.find(&format!("# HELP {family} ")).unwrap();
            let typ = text.find(&format!("# TYPE {family} ")).unwrap();
            assert!(help < typ, "{family}: HELP must precede TYPE");
        }
        // Help text echoes the original (pre-sanitize) metric name.
        assert!(text.contains("# HELP faas_pool_size Gauge `pool.size`."));
    }

    #[test]
    fn prometheus_label_values_are_escaped() {
        let r = MetricsRegistry::new();
        r.counter("hits").add(2);
        r.histogram("lat").record(9);
        let text =
            r.render_prometheus_labeled("", &[("path", "C:\\tmp\\\"x\"\nend"), ("plain", "ok")]);
        let want = "path=\"C:\\\\tmp\\\\\\\"x\\\"\\nend\",plain=\"ok\"";
        assert!(
            text.contains(&format!("hits{{{want}}} 2")),
            "counter sample missing escaped labels:\n{text}"
        );
        // Histogram quantile samples merge shared labels with `quantile`.
        assert!(text.contains(&format!("lat{{{want},quantile=\"0.5\"}} ")));
        assert!(text.contains(&format!("lat_sum{{{want}}} 9")));
        assert!(text.contains(&format!("lat_count{{{want}}} 1")));
        // No raw (unescaped) newline may survive inside a sample line.
        for line in text.lines() {
            assert!(!line.is_empty(), "escaping must not split sample lines");
        }
        assert_eq!(escape_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
    }

    #[test]
    fn registry_shares_handles() {
        let r = MetricsRegistry::new();
        r.counter("invocations").add(3);
        r.counter("invocations").add(2);
        assert_eq!(r.counter("invocations").get(), 5);
        r.histogram("latency_us").record(100);
        assert_eq!(r.histogram("latency_us").count(), 1);
        let names: Vec<String> = r.counter_values().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["invocations".to_string()]);
    }
}
