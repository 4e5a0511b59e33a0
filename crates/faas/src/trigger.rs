//! Event sources — the "demand-driven execution" side of §2.
//!
//! §3's applications are "handled entirely in an event-driven fashion":
//! web requests, storage events, schedules. This module provides the one
//! trigger shape the applications use: a queue trigger invokes a function
//! for each payload in its queue (the "event-driven" and "data
//! transformation" patterns).
//!
//! The [`TriggerManager`] drains queued events against a platform.

use std::collections::VecDeque;

use parking_lot::Mutex;

use crate::error::Result;
use crate::platform::{FaasPlatform, InvocationResult};

/// Fire a function per queued payload.
#[derive(Debug)]
pub(crate) struct QueueTrigger {
    function: String,
    queue: VecDeque<Vec<u8>>,
}

/// Registry and pump for triggers.
pub struct TriggerManager {
    platform: FaasPlatform,
    queues: Mutex<Vec<QueueTrigger>>,
}

impl TriggerManager {
    /// Manager bound to a platform.
    pub fn new(platform: FaasPlatform) -> Self {
        Self {
            platform,
            queues: Mutex::new(Vec::new()),
        }
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

    /// Drain every queue. Returns the completed invocations; individual
    /// failures are skipped (the platform's retry policy is the caller's
    /// choice).
    pub fn run_due(&self) -> Result<Vec<InvocationResult>> {
        let mut results = Vec::new();
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
    use taureau_core::clock::VirtualClock;

    fn setup() -> (TriggerManager, FaasPlatform) {
        let p = FaasPlatform::new(PlatformConfig::deterministic(), VirtualClock::shared());
        p.register(FunctionSpec::new("tick", "t", |ctx| {
            Ok(ctx.payload.to_vec())
        }))
        .unwrap();
        (TriggerManager::new(p.clone()), p)
    }

    #[test]
    fn queue_trigger_drains_events() {
        let (tm, _) = setup();
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
    fn billing_flows_through_triggered_invocations() {
        let (tm, p) = setup();
        let q = tm.add_queue("tick");
        for _ in 0..10 {
            tm.enqueue(q, b"e");
        }
        tm.run_due().unwrap();
        assert_eq!(p.billing().invocations("t"), 10);
        assert!(p.billing().total("t") > 0.0);
    }
}
