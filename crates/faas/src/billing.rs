//! Per-tenant billing meters.
//!
//! §2: "the key economic incentive for the users stems from the
//! cost-savings due to fine-grained billing … users only pay for the
//! resources they actually use, and for the duration that they use it."
//! Every invocation lands here as a charge against its tenant's account:
//! a running total and an invocation count, not a line item kept forever.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use parking_lot::{Mutex, RwLock};
use taureau_core::bytesize::ByteSize;
use taureau_core::cost::{Dollars, FaasPricing};
use taureau_core::ratelimit::TokenBucket;

/// One tenant's standing with the platform: what it has been billed and,
/// where the platform rate-limits tenants, its admission budget. Every
/// function of the tenant holds the same account, so an invocation charges
/// and throttles through a pointer it already has.
#[derive(Default)]
pub(crate) struct TenantAccount {
    /// (total billed, invocations billed). The total is the left-to-right
    /// f64 sum of the charges, in charge order.
    billed: Mutex<(Dollars, usize)>,
    /// Set when the tenant's first function registers, if the platform
    /// rate-limits tenants.
    pub(crate) limiter: OnceLock<TokenBucket>,
}

impl TenantAccount {
    /// Record one billed execution; returns its cost.
    pub(crate) fn charge(
        &self,
        pricing: &FaasPricing,
        memory: ByteSize,
        duration: Duration,
    ) -> Dollars {
        let cost = pricing.invocation_cost(memory, duration);
        let mut billed = self.billed.lock();
        billed.0 += cost;
        billed.1 += 1;
        cost
    }
}

/// Thread-safe per-tenant billing.
pub struct BillingMeter {
    pricing: FaasPricing,
    accounts: RwLock<HashMap<String, Arc<TenantAccount>>>,
}

impl std::fmt::Debug for BillingMeter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BillingMeter")
            .field("pricing", &self.pricing)
            .field("tenants", &self.accounts.read().len())
            .finish()
    }
}

impl BillingMeter {
    /// Meter under the given pricing.
    pub fn new(pricing: FaasPricing) -> Self {
        Self {
            pricing,
            accounts: RwLock::new(HashMap::new()),
        }
    }

    /// The pricing in force.
    pub fn pricing(&self) -> &FaasPricing {
        &self.pricing
    }

    /// The tenant's account, opened on first use.
    pub(crate) fn account(&self, tenant: &str) -> Arc<TenantAccount> {
        if let Some(account) = self.accounts.read().get(tenant) {
            return Arc::clone(account);
        }
        Arc::clone(self.accounts.write().entry(tenant.to_string()).or_default())
    }

    /// Record one billed execution; returns its cost.
    pub fn charge(&self, tenant: &str, memory: ByteSize, duration: Duration) -> Dollars {
        self.account(tenant).charge(&self.pricing, memory, duration)
    }

    fn billed(&self, tenant: &str) -> (Dollars, usize) {
        self.accounts
            .read()
            .get(tenant)
            .map_or((0.0, 0), |a| *a.billed.lock())
    }

    /// A tenant's total to date.
    pub fn total(&self, tenant: &str) -> Dollars {
        self.billed(tenant).0
    }

    /// A tenant's invocation count.
    pub fn invocations(&self, tenant: &str) -> usize {
        self.billed(tenant).1
    }

    /// Grand total across tenants.
    pub fn grand_total(&self) -> Dollars {
        self.accounts
            .read()
            .values()
            .map(|a| a.billed.lock().0)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_tenant() {
        let m = BillingMeter::new(FaasPricing::default());
        let c1 = m.charge("alice", ByteSize::gb(1), Duration::from_millis(100));
        let c2 = m.charge("alice", ByteSize::gb(1), Duration::from_millis(100));
        m.charge("bob", ByteSize::mb(128), Duration::from_millis(50));
        assert!((m.total("alice") - (c1 + c2)).abs() < 1e-15);
        assert_eq!(m.invocations("alice"), 2);
        assert_eq!(m.invocations("bob"), 1);
        assert_eq!(m.invocations("carol"), 0);
        assert!(m.grand_total() > m.total("alice"));
    }

    #[test]
    fn rounding_matches_pricing_granularity() {
        let m = BillingMeter::new(FaasPricing::default());
        // 1 ms and 99 ms bill identically (both round to 100 ms).
        let a = m.charge("t", ByteSize::gb(1), Duration::from_millis(1));
        let b = m.charge("t", ByteSize::gb(1), Duration::from_millis(99));
        assert!((a - b).abs() < 1e-15);
        // 101 ms bills twice the duration component.
        let c = m.charge("t", ByteSize::gb(1), Duration::from_millis(101));
        assert!(c > a);
    }

    /// The running totals are what a line-item `Bill` would add up to,
    /// bit for bit: same charges, same left-to-right f64 sum.
    #[test]
    fn totals_equal_a_line_item_bill_bit_for_bit() {
        use rand::Rng;
        use taureau_core::cost::Bill;
        let pricing = FaasPricing::default();
        let m = BillingMeter::new(pricing);
        let mut bill = Bill::new();
        let mut rng = taureau_core::rng::det_rng(0xB111);
        for _ in 0..10_000 {
            let memory = ByteSize::mb(rng.gen_range(64..=4096));
            let duration = Duration::from_micros(rng.gen_range(0..5_000_000));
            let cost = m.charge("t", memory, duration);
            bill.charge(&pricing, memory, duration);
            let item = bill.items().last().expect("just charged");
            assert_eq!(cost.to_bits(), item.cost.to_bits());
        }
        assert_eq!(m.total("t").to_bits(), bill.total().to_bits());
        assert_eq!(m.invocations("t"), bill.len());
        assert_eq!(m.grand_total().to_bits(), bill.total().to_bits());
    }
}
