//! # taureau-prof
//!
//! Causal trace analysis for the Le Taureau stack. The instrumented
//! subsystems ([`Tracer`][taureau_core::trace::Tracer] spans with
//! cross-component parent links, [`LockSite`][taureau_core::sync::LockSite]
//! contention counters) produce raw observations; this crate turns them
//! into answers:
//!
//! - [`TraceGraph`] rebuilds the causal DAG from a flat span dump —
//!   parent links resolved, children ordered, self-time computed.
//! - [`CriticalPath`] walks a trace backwards from its root's end and
//!   attributes every nanosecond of end-to-end latency to exactly one
//!   span's self-work: the chain you must shorten to make the whole
//!   request faster. Attribution rolls up per span name and per
//!   subsystem.
//! - [`ContentionReport`] merges [`LockSiteSnapshot`]s into a ranked
//!   where-do-we-block summary.
//! - [`render`] turns any of the above into text trees, attribution
//!   tables, or a `chrome://tracing` / Perfetto JSON dump.
//!
//! The analyzers are pure functions over plain data — they never touch
//! the live system, so they can run in-process after an experiment or
//! offline over spans shipped through the telemetry pump.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub(crate) mod critical;
pub(crate) mod graph;
pub mod render;

pub use critical::CriticalPath;
pub use graph::TraceGraph;

use taureau_core::sync::LockSiteSnapshot;

/// Merged view over lock-contention snapshots, ranked by total wait time:
/// where threads actually block, which is not necessarily where they
/// acquire most often.
#[derive(Debug, Clone)]
pub struct ContentionReport {
    sites: Vec<LockSiteSnapshot>,
}

impl ContentionReport {
    /// Build a report; sites are ranked by total wait time, descending.
    pub fn new(mut sites: Vec<LockSiteSnapshot>) -> Self {
        sites.sort_by_key(|s| std::cmp::Reverse(s.wait_total));
        Self { sites }
    }

    /// Ranked sites, hottest first.
    pub fn sites(&self) -> &[LockSiteSnapshot] {
        &self.sites
    }

    /// The site threads spend the most time blocked on, if any waited.
    #[cfg(test)]
    pub(crate) fn top(&self) -> Option<&LockSiteSnapshot> {
        self.sites
            .first()
            .filter(|s| s.wait_total > std::time::Duration::ZERO)
    }

    /// Total wait time across every site.
    #[cfg(test)]
    pub(crate) fn total_wait(&self) -> std::time::Duration {
        self.sites.iter().map(|s| s.wait_total).sum()
    }

    /// One line per site: name, acquisitions, contention ratio, wait
    /// total, estimated hold total.
    pub fn render(&self) -> String {
        let mut out = String::from("lock contention (by total wait)\n");
        if self.sites.is_empty() {
            out.push_str("  (no sites profiled)\n");
            return out;
        }
        for s in &self.sites {
            out.push_str(&format!(
                "  {:<24} acq {:>8}  contended {:>6} ({:>5.1}%)  wait {:>10.3?}  hold~ {:>10.3?}\n",
                s.name,
                s.acquisitions,
                s.contended,
                s.contention_ratio() * 100.0,
                s.wait_total,
                s.hold_total_estimate(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::collections::HashMap;
    use taureau_core::sync::ContentionProfiler;

    #[test]
    fn contention_report_ranks_by_wait() {
        let prof = ContentionProfiler::new();
        let quiet = prof.site("quiet");
        let busy = prof.site("busy");
        let map: Mutex<HashMap<u64, u64>> = Mutex::default();
        // Manufacture contention on the one lock.
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..200u64 {
                        busy.timed(&map, |map| {
                            map.insert(i, i);
                            std::thread::sleep(std::time::Duration::from_micros(5));
                        });
                    }
                });
            }
        });
        let report = ContentionReport::new(prof.snapshots());
        assert_eq!(report.sites().len(), 2);
        let top = report.top().expect("busy site waited");
        assert_eq!(top.name, "busy");
        assert!(report.total_wait() >= top.wait_total);
        let text = report.render();
        assert!(text.contains("busy") && text.contains("quiet"));
        // Unprofiled world: report renders, names no top site.
        let empty = ContentionReport::new(vec![quiet.snapshot()]);
        assert!(empty.top().is_none());
    }
}
