//! Billing models.
//!
//! §2 of the paper identifies *cost efficiency through fine-grained billing*
//! as the key economic incentive for serverless; experiment E1 quantifies it.
//! This module holds the pricing arithmetic for both sides of that
//! comparison:
//!
//! - [`FaasPricing`]: pay per request plus per GB-second, with duration
//!   rounded up to a billing granularity (AWS Lambda billed per 100 ms when
//!   the paper was written).
//! - [`VmPricing`]: pay per instance-hour regardless of utilisation — the
//!   "server-centric model, where the users have to reserve server resources
//!   regardless of whether or not they use it".
//!
//! Default constants are calibrated to public AWS prices circa 2020
//! (us-east-1): Lambda \$0.20 per 1M requests + \$0.0000166667 per GB-s;
//! m5.large at \$0.096/h. Absolute dollars are not the point — the *shape*
//! of the serverless-vs-VM crossover is.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::bytesize::ByteSize;

/// Dollars, as f64. All experiment outputs are relative, so floating point
/// is fine here.
pub type Dollars = f64;

/// FaaS (Lambda-style) pricing: per-request fee plus GB-seconds of memory,
/// with execution duration rounded *up* to `billing_granularity`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaasPricing {
    /// Dollars charged per single request.
    pub(crate) per_request: Dollars,
    /// Dollars charged per GB-second of configured memory.
    pub(crate) per_gb_second: Dollars,
    /// Billing granularity; durations round up to a multiple of this.
    pub billing_granularity: Duration,
}

impl Default for FaasPricing {
    fn default() -> Self {
        Self {
            per_request: 0.20 / 1_000_000.0,
            per_gb_second: 0.000_016_666_7,
            billing_granularity: Duration::from_millis(100),
        }
    }
}

impl FaasPricing {
    /// The duration actually billed for an execution of `d` (rounded up to
    /// the billing granularity, minimum one granule).
    pub fn billed_duration(&self, d: Duration) -> Duration {
        let g = self.billing_granularity.as_nanos();
        if g == 0 {
            return d;
        }
        let n = d.as_nanos().div_ceil(g).max(1);
        Duration::from_nanos((n * g) as u64)
    }

    /// Cost of one invocation of a function configured with `memory`,
    /// running for `duration`.
    pub fn invocation_cost(&self, memory: ByteSize, duration: Duration) -> Dollars {
        let billed = self.billed_duration(duration);
        self.per_request + self.per_gb_second * memory.as_gb_f64() * billed.as_secs_f64()
    }
}

/// Server-centric (VM) pricing: a flat rate per instance-hour, billed for
/// the full time the instance is up whether or not it serves requests.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VmPricing {
    /// Dollars per instance-hour.
    pub per_hour: Dollars,
    /// Memory provisioned per instance (used to size fleets comparably to a
    /// FaaS memory configuration).
    pub memory: ByteSize,
    /// Requests one instance can serve concurrently.
    pub capacity: u32,
    /// Time to boot an instance; during scale-up this is dead, billed time.
    pub boot_time: Duration,
}

impl Default for VmPricing {
    fn default() -> Self {
        Self {
            per_hour: 0.096,
            memory: ByteSize::gb(8),
            capacity: 16,
            boot_time: Duration::from_secs(60),
        }
    }
}

impl VmPricing {
    /// Instances needed to serve `concurrent` simultaneous requests.
    pub fn instances_for(&self, concurrent: u64) -> u32 {
        assert!(self.capacity > 0);
        u32::try_from(concurrent.div_ceil(self.capacity as u64)).unwrap_or(u32::MAX)
    }
}

/// A running bill: accumulates invocation line items so billing audits
/// (experiment E7's no-double-billing property) can inspect totals.
#[derive(Debug, Default, Clone)]
pub struct Bill {
    items: Vec<LineItem>,
}

/// One billed execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LineItem {
    /// Memory configured for the billed function.
    pub(crate) memory: ByteSize,
    /// Raw (un-rounded) execution duration.
    pub(crate) duration: Duration,
    /// Dollars charged.
    pub cost: Dollars,
}

impl Bill {
    /// New empty bill.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one execution under the given pricing.
    pub fn charge(&mut self, pricing: &FaasPricing, memory: ByteSize, duration: Duration) {
        self.items.push(LineItem {
            memory,
            duration,
            cost: pricing.invocation_cost(memory, duration),
        });
    }

    /// Total dollars on the bill.
    pub fn total(&self) -> Dollars {
        self.items.iter().map(|i| i.cost).sum()
    }

    /// Number of line items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the bill is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// All line items.
    pub fn items(&self) -> &[LineItem] {
        &self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn billed_duration_rounds_up_to_granule() {
        let p = FaasPricing::default();
        assert_eq!(
            p.billed_duration(Duration::from_millis(1)),
            Duration::from_millis(100)
        );
        assert_eq!(
            p.billed_duration(Duration::from_millis(100)),
            Duration::from_millis(100)
        );
        assert_eq!(
            p.billed_duration(Duration::from_millis(101)),
            Duration::from_millis(200)
        );
        // Zero-duration invocations still bill one granule.
        assert_eq!(
            p.billed_duration(Duration::ZERO),
            Duration::from_millis(100)
        );
    }

    #[test]
    fn invocation_cost_matches_hand_computation() {
        let p = FaasPricing::default();
        // 1 GB for exactly 1 s => per_request + per_gb_second.
        let c = p.invocation_cost(ByteSize::gb(1), Duration::from_secs(1));
        let expect = 0.20 / 1_000_000.0 + 0.000_016_666_7;
        assert!((c - expect).abs() < 1e-12);
    }

    #[test]
    fn instances_for_rounds_up() {
        let p = VmPricing {
            capacity: 16,
            ..VmPricing::default()
        };
        assert_eq!(p.instances_for(0), 0);
        assert_eq!(p.instances_for(1), 1);
        assert_eq!(p.instances_for(16), 1);
        assert_eq!(p.instances_for(17), 2);
    }

    #[test]
    fn bill_accumulates() {
        let p = FaasPricing::default();
        let mut b = Bill::new();
        assert!(b.is_empty());
        b.charge(&p, ByteSize::mb(512), Duration::from_millis(250));
        b.charge(&p, ByteSize::mb(512), Duration::from_millis(50));
        assert_eq!(b.len(), 2);
        let expect = p.invocation_cost(ByteSize::mb(512), Duration::from_millis(250))
            + p.invocation_cost(ByteSize::mb(512), Duration::from_millis(50));
        assert!((b.total() - expect).abs() < 1e-15);
    }

    #[test]
    fn serverless_beats_vm_at_low_utilization() {
        // The paper's headline economics: at low, spiky utilisation the
        // fine-grained bill is far below a peak-provisioned fleet.
        let faas = FaasPricing::default();
        let vm = VmPricing::default();
        // 10k requests/day, 200 ms each, 1 GB.
        let faas_cost: Dollars =
            10_000.0 * faas.invocation_cost(ByteSize::gb(1), Duration::from_millis(200));
        // Peak of 100 concurrent => 7 VMs up all day.
        let vm_cost = vm.per_hour * f64::from(vm.instances_for(100)) * 24.0;
        assert!(faas_cost < vm_cost / 10.0, "faas={faas_cost} vm={vm_cost}");
    }
}
