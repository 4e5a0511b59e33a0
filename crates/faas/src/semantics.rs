//! A formal model of serverless execution (§1: "even formal models of
//! serverless have been proposed", citing Jangda et al., OOPSLA'19).
//!
//! Jangda et al. give an operational semantics (λ⁂) where the platform may
//! *cold-start new instances at will, reuse warm instances (with their
//! instance-local state), crash and retry requests* — and prove their key
//! theorem: for handlers that do not rely on instance-local state
//! ("safe" handlers), the serverless semantics is **weakly equivalent** to
//! a naive semantics that runs each request exactly once on a fresh
//! interpreter.
//!
//! This module reproduces that result mechanically: a bounded
//! **model checker** ([`check_equivalence`]) exhaustively explores every
//! platform schedule (cold start / warm reuse / crash-and-retry) up to a
//! depth bound and compares each trace's observable request→response map
//! against the naive semantics. For safe handlers it verifies equivalence
//! over the whole schedule space; for handlers that read instance-local
//! state it produces a concrete counterexample schedule — the formal
//! justification for the paper's "functions are stateless" requirement.

use std::collections::BTreeMap;

/// A modelled handler: a pure function of `(request, instance_state)`
/// returning `(response, new_instance_state)`.
///
/// Instance state models everything that survives in a warm container
/// (globals, `/tmp`, caches). A handler is *safe* in Jangda et al.'s sense
/// iff its response ignores the instance state it is given.
pub(crate) type ModelHandler = fn(request: u8, instance_state: u64) -> (u8, u64);

/// The observable behaviour of one execution: request id → response.
pub(crate) type Observation = BTreeMap<u8, u8>;

/// Naive semantics: each request runs exactly once, on a fresh instance.
pub(crate) fn naive_semantics(handler: ModelHandler, requests: &[u8]) -> Observation {
    requests
        .iter()
        .map(|&r| {
            let (resp, _) = handler(r, 0);
            (r, resp)
        })
        .collect()
}

/// One platform step the scheduler may take for the next pending request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Run on a fresh instance (cold start).
    Cold,
    /// Run on an existing warm instance (index into the warm pool).
    Warm(usize),
    /// Run, but crash before responding; the platform will retry (the
    /// instance keeps any state the crashed attempt wrote — the at-least-
    /// once hazard).
    CrashThenRetry(usize),
}

/// A schedule that distinguishes serverless from naive execution.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Human-readable schedule description.
    pub schedule: Vec<String>,
}

/// Result of checking a handler.
#[derive(Debug)]
pub struct CheckReport {
    /// Schedules explored.
    pub schedules_explored: u64,
    /// First counterexample, if any schedule diverged from naive.
    pub counterexample: Option<Counterexample>,
}

impl CheckReport {
    /// Whether the handler is observationally equivalent to naive
    /// execution over the explored schedule space.
    pub fn equivalent(&self) -> bool {
        self.counterexample.is_none()
    }
}

struct Explorer {
    handler: ModelHandler,
    requests: Vec<u8>,
    naive: Observation,
    max_crashes: u32,
    explored: u64,
    counterexample: Option<Counterexample>,
}

impl Explorer {
    /// Depth-first exploration over all platform choices.
    fn explore(
        &mut self,
        next: usize,
        warm: Vec<u64>,
        crashes_left: u32,
        observation: Observation,
        schedule: Vec<String>,
    ) {
        if self.counterexample.is_some() {
            return; // first counterexample is enough
        }
        if next == self.requests.len() {
            self.explored += 1;
            if observation != self.naive {
                self.counterexample = Some(Counterexample { schedule });
            }
            return;
        }
        let request = self.requests[next];
        // Enumerate the platform's choices for this request.
        let mut steps = vec![Step::Cold];
        for i in 0..warm.len() {
            steps.push(Step::Warm(i));
        }
        if crashes_left > 0 {
            // A crash can happen on a cold instance (index = fresh) or any
            // warm instance; model the warm case, which is where state
            // leaks bite.
            for i in 0..warm.len() {
                steps.push(Step::CrashThenRetry(i));
            }
        }
        for step in steps {
            let mut warm2 = warm.clone();
            let mut obs2 = observation.clone();
            let mut sched2 = schedule.clone();
            let mut crashes2 = crashes_left;
            match step {
                Step::Cold => {
                    let (resp, st) = (self.handler)(request, 0);
                    obs2.insert(request, resp);
                    warm2.push(st);
                    sched2.push(format!("req {request}: cold start"));
                    self.explore(next + 1, warm2, crashes2, obs2, sched2);
                }
                Step::Warm(i) => {
                    let (resp, st) = (self.handler)(request, warm2[i]);
                    obs2.insert(request, resp);
                    warm2[i] = st;
                    sched2.push(format!("req {request}: warm reuse of instance {i}"));
                    self.explore(next + 1, warm2, crashes2, obs2, sched2);
                }
                Step::CrashThenRetry(i) => {
                    crashes2 -= 1;
                    // First attempt runs to completion of its state write,
                    // then crashes before the response is recorded.
                    let (_, st) = (self.handler)(request, warm2[i]);
                    warm2[i] = st;
                    // Retry on the same (now-mutated) instance.
                    let (resp, st2) = (self.handler)(request, warm2[i]);
                    obs2.insert(request, resp);
                    warm2[i] = st2;
                    sched2.push(format!(
                        "req {request}: crash on instance {i}, retried there"
                    ));
                    self.explore(next + 1, warm2, crashes2, obs2, sched2);
                }
            }
        }
    }
}

/// Exhaustively check a handler against the naive semantics over every
/// schedule with up to `max_crashes` crash-retries.
pub fn check_equivalence(handler: ModelHandler, requests: &[u8], max_crashes: u32) -> CheckReport {
    let naive = naive_semantics(handler, requests);
    let mut ex = Explorer {
        handler,
        requests: requests.to_vec(),
        naive,
        max_crashes,
        explored: 0,
        counterexample: None,
    };
    let crashes = ex.max_crashes;
    ex.explore(0, Vec::new(), crashes, Observation::new(), Vec::new());
    CheckReport {
        schedules_explored: ex.explored,
        counterexample: ex.counterexample,
    }
}

// ---------------------------------------------------------------------------
// Example handlers for the theorem's two sides.

/// A safe handler: response depends only on the request. (It may *use*
/// instance state as a cache, as long as the response is unaffected.)
pub fn safe_handler(request: u8, instance_state: u64) -> (u8, u64) {
    // Response: pure function of request. State: a hit counter (cache-like,
    // never observable).
    (request.wrapping_mul(2).wrapping_add(1), instance_state + 1)
}

/// An unsafe handler: leaks the warm instance's request counter into its
/// response — the "works in testing, flaky in production" bug class the
/// statelessness requirement exists to prevent.
pub fn unsafe_handler(request: u8, instance_state: u64) -> (u8, u64) {
    (
        request.wrapping_add(instance_state as u8),
        instance_state + 1,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_semantics_is_deterministic() {
        let a = naive_semantics(safe_handler, &[1, 2, 3]);
        let b = naive_semantics(safe_handler, &[1, 2, 3]);
        assert_eq!(a, b);
        assert_eq!(a[&1], 3);
        assert_eq!(a[&2], 5);
    }

    #[test]
    fn safe_handler_is_equivalent_over_all_schedules() {
        // Jangda et al.'s theorem, mechanically: every cold/warm/crash
        // schedule of a safe handler observes exactly the naive mapping.
        let report = check_equivalence(safe_handler, &[1, 2, 3, 4], 1);
        assert!(report.equivalent(), "{:?}", report.counterexample);
        // The schedule space is non-trivial: dozens of interleavings.
        assert!(
            report.schedules_explored > 30,
            "only {} schedules explored",
            report.schedules_explored
        );
    }

    #[test]
    fn unsafe_handler_has_a_counterexample() {
        let report = check_equivalence(unsafe_handler, &[1, 2], 0);
        let cex = report.counterexample.expect("state leak must be found");
        // The counterexample necessarily involves a warm reuse.
        assert!(
            cex.schedule.iter().any(|s| s.contains("warm")),
            "{:?}",
            cex.schedule
        );
    }

    #[test]
    fn crash_retry_alone_is_harmless_for_safe_handlers() {
        let report = check_equivalence(safe_handler, &[7], 2);
        assert!(report.equivalent());
    }

    #[test]
    fn unsafe_handler_caught_even_through_crash_path() {
        // With crashes enabled, the double-execution path mutates state
        // twice — still caught.
        let report = check_equivalence(unsafe_handler, &[1, 2], 1);
        assert!(!report.equivalent());
    }

    #[test]
    fn single_request_cold_only_is_trivially_equivalent() {
        // One request with no warm pool and no crashes has exactly one
        // schedule: the naive one.
        let report = check_equivalence(unsafe_handler, &[5], 0);
        assert!(report.equivalent());
        assert_eq!(report.schedules_explored, 1);
    }
}
