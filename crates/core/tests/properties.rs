//! Property tests for the core substrate: histogram quantile bounds,
//! byte-size arithmetic, billing rounding, and sampler invariants.

use proptest::collection::vec;
use proptest::prelude::*;
use std::time::Duration;

use taureau_core::bytesize::ByteSize;
use taureau_core::cost::FaasPricing;
use taureau_core::metrics::Histogram;
use taureau_core::rng::{det_rng, Zipf};

proptest! {
    /// Histogram quantiles never under-report: the value at quantile q is
    /// >= the true q-th order statistic, and within the bucket relative
    /// error of ~1/16 above it.
    #[test]
    fn histogram_quantile_bounds(values in vec(1u64..1_000_000, 1..500)) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let got = h.value_at_quantile(q);
            prop_assert!(got >= exact, "q={q}: got {got} < exact {exact}");
            prop_assert!(
                got as f64 <= exact as f64 * 1.07 + 1.0,
                "q={q}: got {got} too far above exact {exact}"
            );
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.max(), *sorted.last().unwrap());
        prop_assert_eq!(h.min(), sorted[0]);
    }

    /// ByteSize block math: blocks_of is exact ceiling division.
    #[test]
    fn bytesize_blocks_roundtrip(bytes in 0u64..1_000_000_000, block in 1u64..1_000_000) {
        let n = ByteSize::b(bytes).blocks_of(ByteSize::b(block));
        prop_assert!(n * block >= bytes);
        prop_assert!(n == 0 || (n - 1) * block < bytes);
    }

    /// Billing is monotone in duration and memory, and billed duration is
    /// always a granule multiple at least as large as the raw duration.
    #[test]
    fn billing_monotone(
        ms_a in 0u64..100_000,
        ms_b in 0u64..100_000,
        mem_mb in 64u64..4096,
    ) {
        let p = FaasPricing::default();
        let (lo, hi) = (ms_a.min(ms_b), ms_a.max(ms_b));
        let c_lo = p.invocation_cost(ByteSize::mb(mem_mb), Duration::from_millis(lo));
        let c_hi = p.invocation_cost(ByteSize::mb(mem_mb), Duration::from_millis(hi));
        prop_assert!(c_hi >= c_lo);
        let billed = p.billed_duration(Duration::from_millis(hi));
        prop_assert!(billed >= Duration::from_millis(hi).min(p.billing_granularity));
        prop_assert_eq!(
            billed.as_millis() % p.billing_granularity.as_millis(),
            0
        );
        // More memory never costs less.
        let c_big = p.invocation_cost(ByteSize::mb(mem_mb * 2), Duration::from_millis(hi));
        prop_assert!(c_big >= c_hi);
    }

    /// Zipf probabilities are a valid, monotonically non-increasing
    /// distribution for any size and skew.
    #[test]
    fn zipf_is_a_distribution(n in 1usize..500, s in 0.0f64..3.0) {
        let z = Zipf::new(n, s);
        let total: f64 = (0..n).map(|i| z.prob(i)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        for i in 1..n {
            prop_assert!(
                z.prob(i) <= z.prob(i - 1) + 1e-12,
                "p({i}) > p({})", i - 1
            );
        }
        // Samples always in range.
        let mut rng = det_rng(1);
        for _ in 0..100 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }
}

use taureau_core::sync::StripedCounter;

proptest! {
    /// A striped counter folds to the exact sum of all increments, no
    /// matter how the adds are spread across threads.
    #[test]
    fn striped_counter_is_exact(adds in vec(0u64..10_000, 1..64)) {
        let counter = StripedCounter::new();
        std::thread::scope(|s| {
            for chunk in adds.chunks(8) {
                let counter = &counter;
                s.spawn(move || {
                    for &n in chunk {
                        counter.add(n);
                    }
                });
            }
        });
        prop_assert_eq!(counter.get(), adds.iter().sum::<u64>());
    }
}
