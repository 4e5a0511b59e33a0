//! Namespace leases — Jiffy's lifetime-management mechanism.
//!
//! The paper: "namespaces naturally enable lifetime management using a
//! namespace-granularity leasing mechanism [Gray & Cheriton]". A lease binds
//! a TTL to a namespace; any access renews it; when it lapses, the
//! controller reclaims the namespace's blocks. This decouples the lifetime
//! of shared state from the producer function that wrote it — state lives
//! until consumed (consumers keep renewing) or abandoned (lease lapses).

use std::collections::HashMap;
use std::time::Duration;

use crate::path::JPath;

/// A lease record for one namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    /// Time-to-live granted at each renewal.
    pub ttl: Duration,
    /// Clock timestamp of the last renewal.
    pub renewed_at: Duration,
}

impl Lease {
    /// When this lease lapses.
    pub fn expires_at(&self) -> Duration {
        self.renewed_at + self.ttl
    }
}

/// Tracks leases for top-level (application) namespaces.
///
/// Lease state is kept per *application* namespace: reclaiming an app
/// reclaims its whole sub-tree, which matches the paper's model of state
/// belonging to an application's task hierarchy.
#[derive(Debug, Default)]
pub struct LeaseManager {
    leases: HashMap<JPath, Lease>,
}

impl LeaseManager {
    /// Empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grant (or re-grant) a lease at `now` with the given TTL.
    pub fn grant(&mut self, path: JPath, ttl: Duration, now: Duration) {
        self.leases.insert(
            path,
            Lease {
                ttl,
                renewed_at: now,
            },
        );
    }

    /// Renew the lease covering `path` (i.e. the lease on `path` itself or
    /// its closest leased ancestor). Returns whether a lease was found.
    pub fn renew(&mut self, path: &JPath, now: Duration) -> bool {
        // Dominant layout: ONE lease in the table (the application lease on
        // the app root) covering every deeper object path. Serve it with a
        // prefix compare — no path hashing at all. This sits on every
        // KV/queue/file data-path call.
        if self.leases.len() == 1 {
            let (p, l) = self.leases.iter_mut().next().expect("len checked");
            if p.is_prefix_of(path) {
                l.renewed_at = now;
                return true;
            }
            return false;
        }
        // Exact match first, then the deepest leased ancestor. This sits on
        // every KV/queue/file data-path call, so it must not build candidate
        // paths: a `JPath` clone per ancestor would dominate a warm `get`.
        if let Some(l) = self.leases.get_mut(path) {
            l.renewed_at = now;
            return true;
        }
        if let Some((_, l)) = self
            .leases
            .iter_mut()
            .filter(|(p, _)| p.is_prefix_of(path))
            .max_by_key(|(p, _)| p.depth())
        {
            l.renewed_at = now;
            return true;
        }
        false
    }

    /// Fold externally observed activity (direct-path KV ops, which never
    /// take the app shard lock) into lease renewal: every lease's
    /// `renewed_at` advances to at least `at`. Called by the reaper before
    /// expiry checks, so direct-path reads and writes count as renewals
    /// without a per-op shard-lock acquisition.
    pub fn observe_activity(&mut self, at: Duration) {
        for l in self.leases.values_mut() {
            if l.renewed_at < at {
                l.renewed_at = at;
            }
        }
    }

    /// The lease on exactly `path`, if any.
    pub fn get(&self, path: &JPath) -> Option<Lease> {
        self.leases.get(path).copied()
    }

    /// Drop the lease on `path` (used when a namespace is removed
    /// explicitly).
    pub fn release(&mut self, path: &JPath) {
        self.leases.remove(path);
    }

    /// Remove and return all paths whose leases lapsed at or before `now`.
    pub fn reap(&mut self, now: Duration) -> Vec<JPath> {
        let expired: Vec<JPath> = self
            .leases
            .iter()
            .filter(|(_, l)| l.expires_at() <= now)
            .map(|(p, _)| p.clone())
            .collect();
        for p in &expired {
            self.leases.remove(p);
        }
        expired
    }

    /// Number of live leases.
    pub fn len(&self) -> usize {
        self.leases.len()
    }

    /// Whether no leases are held.
    pub fn is_empty(&self) -> bool {
        self.leases.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> Duration {
        Duration::from_secs(s)
    }

    #[test]
    fn grant_and_expiry() {
        let mut lm = LeaseManager::new();
        lm.grant(JPath::parse("/app"), secs(10), secs(0));
        assert!(lm.reap(secs(9)).is_empty());
        let dead = lm.reap(secs(10));
        assert_eq!(dead, vec![JPath::parse("/app")]);
        assert!(lm.is_empty());
    }

    #[test]
    fn renewal_extends_life() {
        let mut lm = LeaseManager::new();
        lm.grant(JPath::parse("/app"), secs(10), secs(0));
        assert!(lm.renew(&JPath::parse("/app"), secs(8)));
        assert!(lm.reap(secs(15)).is_empty());
        assert_eq!(lm.reap(secs(18)).len(), 1);
    }

    #[test]
    fn renewing_child_path_renews_ancestor_lease() {
        let mut lm = LeaseManager::new();
        lm.grant(JPath::parse("/app"), secs(10), secs(0));
        // A write deep in the tree keeps the app alive.
        assert!(lm.renew(&JPath::parse("/app/stage/task-4"), secs(9)));
        assert!(lm.reap(secs(12)).is_empty());
    }

    #[test]
    fn renew_without_lease_reports_false() {
        let mut lm = LeaseManager::new();
        assert!(!lm.renew(&JPath::parse("/ghost"), secs(1)));
    }

    #[test]
    fn release_forgets() {
        let mut lm = LeaseManager::new();
        lm.grant(JPath::parse("/app"), secs(1), secs(0));
        lm.release(&JPath::parse("/app"));
        assert!(lm.reap(secs(100)).is_empty());
    }

    #[test]
    fn independent_apps_expire_independently() {
        let mut lm = LeaseManager::new();
        lm.grant(JPath::parse("/a"), secs(5), secs(0));
        lm.grant(JPath::parse("/b"), secs(50), secs(0));
        let dead = lm.reap(secs(10));
        assert_eq!(dead, vec![JPath::parse("/a")]);
        assert_eq!(lm.len(), 1);
        assert!(lm.get(&JPath::parse("/b")).is_some());
    }
}
