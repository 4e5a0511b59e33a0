//! Event sources — the "demand-driven execution" side of §2.
//!
//! §3's applications are "handled entirely in an event-driven fashion":
//! web requests, storage events, schedules. This module provides the two
//! trigger shapes the examples need:
//!
//! - `ScheduleTrigger`: invoke a function every interval (the paper's
//!   "periodic invocation" pattern, Hong et al.'s pattern 1).
//! - `QueueTrigger`: invoke a function for each payload in a queue (the
//!   "event-driven" and "data transformation" patterns).
//!
//! The [`TriggerManager`] pumps due triggers against a platform; tests and
//! simulations drive it from a virtual clock.

use std::collections::VecDeque;
use std::time::Duration;

use parking_lot::Mutex;

use crate::error::Result;
use crate::platform::{FaasPlatform, InvocationResult};

/// Fire a function every `every` interval.
#[derive(Debug)]
pub(crate) struct ScheduleTrigger {
    function: String,
    every: Duration,
    next_due: Duration,
    payload: Vec<u8>,
}

/// Fire a function per queued payload.
#[derive(Debug)]
pub(crate) struct QueueTrigger {
    function: String,
    queue: VecDeque<Vec<u8>>,
}

/// Registry and pump for triggers.
pub struct TriggerManager {
    platform: FaasPlatform,
    schedules: Mutex<Vec<ScheduleTrigger>>,
    queues: Mutex<Vec<QueueTrigger>>,
}

impl TriggerManager {
    /// Manager bound to a platform.
    pub fn new(platform: FaasPlatform) -> Self {
        Self {
            platform,
            schedules: Mutex::new(Vec::new()),
            queues: Mutex::new(Vec::new()),
        }
    }

    /// Register a periodic schedule starting one interval from now.
    #[cfg(test)]
    pub(crate) fn add_schedule(&self, function: &str, every: Duration, payload: &[u8]) {
        let now = self.platform.clock().now();
        self.schedules.lock().push(ScheduleTrigger {
            function: function.to_string(),
            every,
            next_due: now + every,
            payload: payload.to_vec(),
        });
    }

    /// Register a queue trigger; returns its index for enqueueing.
    pub fn add_queue(&self, function: &str) -> usize {
        let mut queues = self.queues.lock();
        queues.push(QueueTrigger {
            function: function.to_string(),
            queue: VecDeque::new(),
        });
        queues.len() - 1
    }

    /// Enqueue an event for a queue trigger.
    pub fn enqueue(&self, queue_idx: usize, payload: &[u8]) {
        self.queues.lock()[queue_idx]
            .queue
            .push_back(payload.to_vec());
    }

    /// Pending events in a queue trigger.
    #[cfg(test)]
    pub(crate) fn queue_depth(&self, queue_idx: usize) -> usize {
        self.queues.lock()[queue_idx].queue.len()
    }

    /// Fire everything due: catches up schedules past their due time
    /// (multiple firings if several intervals elapsed) and drains queues.
    /// Returns the completed invocations; individual failures are skipped
    /// (the platform's retry policy is the caller's choice).
    pub fn run_due(&self) -> Result<Vec<InvocationResult>> {
        let mut results = Vec::new();
        let now = self.platform.clock().now();
        {
            let mut schedules = self.schedules.lock();
            for s in schedules.iter_mut() {
                while s.next_due <= now {
                    if let Ok(r) = self.platform.invoke(&s.function, s.payload.clone()) {
                        results.push(r);
                    }
                    s.next_due += s.every;
                }
            }
        }
        loop {
            // Pop one event at a time so a long queue cannot hold the lock
            // across invocations.
            let next = {
                let mut queues = self.queues.lock();
                queues.iter_mut().find_map(|q| {
                    q.queue
                        .pop_front()
                        .map(|payload| (q.function.clone(), payload))
                })
            };
            match next {
                Some((function, payload)) => {
                    if let Ok(r) = self.platform.invoke(&function, payload) {
                        results.push(r);
                    }
                }
                None => break,
            }
        }
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PlatformConfig;
    use crate::types::FunctionSpec;
    use std::sync::Arc;
    use taureau_core::clock::VirtualClock;

    fn setup() -> (TriggerManager, FaasPlatform, Arc<VirtualClock>) {
        let clock = VirtualClock::shared();
        let p = FaasPlatform::new(PlatformConfig::deterministic(), clock.clone());
        p.register(FunctionSpec::new("tick", "t", |ctx| {
            Ok(ctx.payload.to_vec())
        }))
        .unwrap();
        (TriggerManager::new(p.clone()), p, clock)
    }

    #[test]
    fn schedule_fires_once_per_interval() {
        let (tm, _, clock) = setup();
        tm.add_schedule("tick", Duration::from_secs(60), b"cron");
        assert_eq!(tm.run_due().unwrap().len(), 0);
        clock.advance(Duration::from_secs(61));
        assert_eq!(tm.run_due().unwrap().len(), 1);
        // No double-fire without time passing.
        assert_eq!(tm.run_due().unwrap().len(), 0);
    }

    #[test]
    fn schedule_catches_up_missed_intervals() {
        let (tm, _, clock) = setup();
        tm.add_schedule("tick", Duration::from_secs(10), b"x");
        clock.advance(Duration::from_secs(35));
        // Due at t=10, 20, 30 → three firings.
        assert_eq!(tm.run_due().unwrap().len(), 3);
    }

    #[test]
    fn queue_trigger_drains_events() {
        let (tm, _, _) = setup();
        let q = tm.add_queue("tick");
        for i in 0..5u8 {
            tm.enqueue(q, &[i]);
        }
        assert_eq!(tm.queue_depth(q), 5);
        let results = tm.run_due().unwrap();
        assert_eq!(results.len(), 5);
        assert_eq!(tm.queue_depth(q), 0);
        let outputs: Vec<u8> = results.iter().map(|r| r.output[0]).collect();
        assert_eq!(outputs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn mixed_triggers_fire_together() {
        let (tm, _, clock) = setup();
        tm.add_schedule("tick", Duration::from_secs(5), b"s");
        let q = tm.add_queue("tick");
        tm.enqueue(q, b"q");
        clock.advance(Duration::from_secs(6));
        let results = tm.run_due().unwrap();
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn billing_flows_through_triggered_invocations() {
        let (tm, p, _) = setup();
        let q = tm.add_queue("tick");
        for _ in 0..10 {
            tm.enqueue(q, b"e");
        }
        tm.run_due().unwrap();
        assert_eq!(p.billing().invocations("t"), 10);
        assert!(p.billing().total("t") > 0.0);
    }
}
