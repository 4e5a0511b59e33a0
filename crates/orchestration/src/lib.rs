//! # taureau-orchestration
//!
//! FaaS orchestration, per §4.2 of *Le Taureau*: "orchestration frameworks
//! allow users to compose multiple functions to enable more complex
//! application semantics" (AWS Step Functions, IBM Composer, Azure Durable
//! Functions). The crate implements the three properties Lopez et al.
//! require of such frameworks, and the tests and experiment E7 verify
//! them:
//!
//! 1. **Black box**: [`Composition::Task`] invokes a function by name —
//!    composing requires no knowledge or modification of the function's
//!    inner workings.
//! 2. **Closure**: "the composition of several functions defined in the
//!    orchestration should also be a function" —
//!    [`Orchestrator::register_composition`] registers a composition under
//!    a name, and [`Composition::Named`] invokes it anywhere a basic
//!    function could appear, nesting arbitrarily.
//! 3. **No double billing**: "a user should only be charged for the basic
//!    functions, not the composition as well" — the orchestrator runs
//!    client-side against the platform, adds no billed invocations of its
//!    own, and every [`ExecutionReport`] carries the audit: total billed
//!    cost equals the sum over basic function executions. The audit is
//!    exact under [`Composition::Retry`] too: an attempt that failed or
//!    timed out was billed by the platform, so the report records it with
//!    what the platform charged, and the platform's billed delta equals
//!    [`ExecutionReport::total_cost`] whatever the retries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod frame;
pub mod statemachine;

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;

use taureau_core::cost::Dollars;
use taureau_core::metrics::MetricsRegistry;
use taureau_faas::{FaasError, FaasPlatform};

/// A predicate over input bytes, used by [`Composition::Choice`].
pub(crate) type Predicate = Arc<dyn Fn(&[u8]) -> bool + Send + Sync>;

/// A composition of serverless functions.
///
/// Functions are referenced by name (black-box property); compositions can
/// reference other registered compositions by name too (closure property).
#[derive(Clone)]
pub enum Composition {
    /// Invoke one basic platform function.
    Task(String),
    /// Invoke a named, previously-registered composition.
    Named(String),
    /// Run stages left to right, piping each output into the next input.
    Sequence(Vec<Composition>),
    /// Run branches on the same input; outputs are framed into one payload
    /// (see [`frame`]).
    Parallel(Vec<Composition>),
    /// Run `then` if the predicate holds on the input, else `otherwise`.
    Choice {
        /// Branch condition evaluated on the input bytes.
        predicate: Predicate,
        /// Taken when the predicate is true.
        then: Box<Composition>,
        /// Taken when the predicate is false.
        otherwise: Box<Composition>,
    },
    /// Treat the input as a framed list and apply the body to each element,
    /// producing a framed list of outputs (fan-out / fan-in).
    Map(Box<Composition>),
    /// Re-run the inner composition on failure, up to `attempts` total.
    Retry {
        /// The composition to guard.
        inner: Box<Composition>,
        /// Total attempts; a run refuses 0 with an error.
        attempts: u32,
    },
}

impl Composition {
    /// Convenience: a sequence of named tasks.
    pub fn pipeline<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Composition::Sequence(
            names
                .into_iter()
                .map(|n| Composition::Task(n.into()))
                .collect(),
        )
    }

    /// Convenience: a choice on a plain closure.
    pub fn choice(
        predicate: impl Fn(&[u8]) -> bool + Send + Sync + 'static,
        then: Composition,
        otherwise: Composition,
    ) -> Self {
        Composition::Choice {
            predicate: Arc::new(predicate),
            then: Box::new(then),
            otherwise: Box::new(otherwise),
        }
    }
}

/// The result of running a composition.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// Final output bytes (refcounted: the last stage's output is shared,
    /// not copied, into the report).
    pub output: Bytes,
    /// Dollars billed for each basic function execution, failed attempts
    /// included, in completion order.
    pub(crate) invocations: Vec<Dollars>,
}

impl ExecutionReport {
    /// Total dollars billed — by construction, the sum over basic
    /// functions only (the no-double-billing audit).
    pub fn total_cost(&self) -> Dollars {
        self.invocations.iter().sum()
    }

    /// Number of billed basic function executions, failed attempts
    /// included.
    pub fn invocation_count(&self) -> usize {
        self.invocations.len()
    }
}

/// Executes compositions against a FaaS platform.
#[derive(Clone)]
pub struct Orchestrator {
    platform: FaasPlatform,
    named: Arc<RwLock<HashMap<String, Composition>>>,
    metrics: Arc<MetricsRegistry>,
}

impl Orchestrator {
    /// Orchestrator over a platform.
    pub fn new(platform: FaasPlatform) -> Self {
        Self {
            platform,
            named: Arc::new(RwLock::new(HashMap::new())),
            metrics: Arc::new(MetricsRegistry::new()),
        }
    }

    /// Metrics registry (compositions run, tasks invoked, retries, task
    /// execution times).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Register a composition under a name (the closure property: it can
    /// now be used wherever a function can).
    pub fn register_composition(&self, name: &str, comp: Composition) {
        self.named.write().insert(name.to_string(), comp);
    }

    /// Run a composition on an input.
    pub fn run(&self, comp: &Composition, input: &[u8]) -> Result<ExecutionReport, FaasError> {
        self.metrics.counter("compositions_run").inc();
        let mut report = ExecutionReport {
            output: Bytes::new(),
            invocations: Vec::new(),
        };
        report.output = self.eval(comp, Bytes::copy_from_slice(input), &mut report)?;
        Ok(report)
    }

    fn eval(
        &self,
        comp: &Composition,
        input: Bytes,
        report: &mut ExecutionReport,
    ) -> Result<Bytes, FaasError> {
        match comp {
            Composition::Task(name) => {
                self.metrics.counter("tasks_invoked").inc();
                let r = match self.platform.invoke(name, input) {
                    Ok(r) => r,
                    Err(e) => {
                        self.metrics.counter("task_failures").inc();
                        report.invocations.extend(e.billed());
                        return Err(e);
                    }
                };
                self.metrics
                    .histogram("task_exec_us")
                    .record_duration(r.exec_duration);
                report.invocations.push(r.cost);
                Ok(r.output)
            }
            Composition::Named(name) => {
                let comp = self
                    .named
                    .read()
                    .get(name)
                    .cloned()
                    .ok_or_else(|| FaasError::FunctionNotFound(name.clone()))?;
                self.eval(&comp, input, report)
            }
            Composition::Sequence(stages) => {
                let mut cur = input;
                for stage in stages {
                    cur = self.eval(stage, cur, report)?;
                }
                Ok(cur)
            }
            Composition::Parallel(branches) => {
                let mut outputs = Vec::with_capacity(branches.len());
                for branch in branches {
                    outputs.push(self.eval(branch, input.clone(), report)?);
                }
                Ok(Bytes::from(frame::pack(&outputs)))
            }
            Composition::Choice {
                predicate,
                then,
                otherwise,
            } => {
                if predicate(&input) {
                    self.eval(then, input, report)
                } else {
                    self.eval(otherwise, input, report)
                }
            }
            Composition::Map(body) => {
                let items =
                    frame::unpack_bytes(&input).ok_or_else(|| FaasError::ExecutionFailed {
                        function: "<map>".to_string(),
                        reason: "map input is not a framed list".to_string(),
                        billed: 0.0,
                    })?;
                let mut outputs = Vec::with_capacity(items.len());
                for item in items {
                    outputs.push(self.eval(body, item, report)?);
                }
                Ok(Bytes::from(frame::pack(&outputs)))
            }
            Composition::Retry { inner, attempts } => {
                if *attempts == 0 {
                    return Err(FaasError::ExecutionFailed {
                        function: "<retry>".to_string(),
                        reason: "retry needs at least one attempt".to_string(),
                        billed: 0.0,
                    });
                }
                let mut last = None;
                for attempt in 1..=*attempts {
                    match self.eval(inner, input.clone(), report) {
                        Ok(out) => return Ok(out),
                        Err(
                            e @ (FaasError::ExecutionFailed { .. } | FaasError::Timeout { .. }),
                        ) => {
                            if attempt < *attempts {
                                self.metrics.counter("retries").inc();
                            }
                            last = Some(e);
                        }
                        Err(e) => return Err(e),
                    }
                }
                Err(last.expect("attempts >= 1"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taureau_core::clock::VirtualClock;
    use taureau_faas::{FunctionSpec, PlatformConfig};

    fn setup() -> (Orchestrator, FaasPlatform) {
        let clock = VirtualClock::shared();
        let p = FaasPlatform::new(PlatformConfig::deterministic(), clock);
        for (name, op) in [("inc", 1u8), ("double", 0)] {
            p.register(FunctionSpec::new(name, "tenant", move |ctx| {
                let v = ctx.payload.first().copied().unwrap_or(0);
                Ok(vec![if op == 1 { v + 1 } else { v * 2 }])
            }))
            .unwrap();
        }
        (Orchestrator::new(p.clone()), p)
    }

    #[test]
    fn sequence_pipes_outputs() {
        let (o, _) = setup();
        // (3 + 1) * 2 = 8
        let comp = Composition::pipeline(["inc", "double"]);
        let r = o.run(&comp, &[3]).unwrap();
        assert_eq!(r.output, vec![8]);
        assert_eq!(r.invocation_count(), 2);
    }

    #[test]
    fn parallel_frames_outputs() {
        let (o, _) = setup();
        let comp = Composition::Parallel(vec![
            Composition::Task("inc".into()),
            Composition::Task("double".into()),
        ]);
        let r = o.run(&comp, &[5]).unwrap();
        let outs = frame::unpack(&r.output).unwrap();
        assert_eq!(outs, vec![vec![6], vec![10]]);
    }

    #[test]
    fn choice_branches_on_predicate() {
        let (o, _) = setup();
        let comp = Composition::choice(
            |input| input[0] > 10,
            Composition::Task("double".into()),
            Composition::Task("inc".into()),
        );
        assert_eq!(o.run(&comp, &[20]).unwrap().output, vec![40]);
        assert_eq!(o.run(&comp, &[2]).unwrap().output, vec![3]);
    }

    #[test]
    fn map_fans_out_over_framed_list() {
        let (o, _) = setup();
        let comp = Composition::Map(Box::new(Composition::Task("inc".into())));
        let input = frame::pack(&[vec![1], vec![2], vec![3]]);
        let r = o.run(&comp, &input).unwrap();
        assert_eq!(
            frame::unpack(&r.output).unwrap(),
            vec![vec![2], vec![3], vec![4]]
        );
        assert_eq!(r.invocation_count(), 3);
    }

    #[test]
    fn map_rejects_unframed_input() {
        let (o, _) = setup();
        let comp = Composition::Map(Box::new(Composition::Task("inc".into())));
        assert!(o.run(&comp, b"not framed").is_err());
    }

    #[test]
    fn closure_property_named_compositions_nest() {
        let (o, _) = setup();
        // inc_twice is a composition…
        o.register_composition("inc_twice", Composition::pipeline(["inc", "inc"]));
        // …used as a function inside another composition.
        let comp = Composition::Sequence(vec![
            Composition::Named("inc_twice".into()),
            Composition::Task("double".into()),
            Composition::Named("inc_twice".into()),
        ]);
        // ((1+2)*2)+2 = 8
        let r = o.run(&comp, &[1]).unwrap();
        assert_eq!(r.output, vec![8]);
        assert_eq!(r.invocation_count(), 5);
    }

    #[test]
    fn no_double_billing_audit() {
        let (o, p) = setup();
        o.register_composition("nested", Composition::pipeline(["inc", "double"]));
        let comp = Composition::Parallel(vec![
            Composition::Named("nested".into()),
            Composition::Task("inc".into()),
        ]);
        let before = p.billing().total("tenant");
        let r = o.run(&comp, &[1]).unwrap();
        let after = p.billing().total("tenant");
        // Platform charged exactly the sum of basic function costs: the
        // composition added nothing.
        let billed_delta = after - before;
        assert!((billed_delta - r.total_cost()).abs() < 1e-15);
        assert_eq!(r.invocation_count(), 3);

        // Under `Retry` the platform bills the failed attempts too, and so
        // does the report.
        p.register(flaky("flaky", "tenant", 2)).unwrap();
        let comp = Composition::Sequence(vec![
            Composition::Task("inc".into()),
            Composition::Retry {
                inner: Box::new(Composition::Task("flaky".into())),
                attempts: 5,
            },
        ]);
        let (before, runs_before) = (
            p.billing().total("tenant"),
            p.billing().invocations("tenant"),
        );
        let r = o.run(&comp, &[1]).unwrap();
        let billed_delta = p.billing().total("tenant") - before;
        assert!((billed_delta - r.total_cost()).abs() < 1e-15);
        assert_eq!(p.billing().invocations("tenant") - runs_before, 4);
        assert_eq!(r.invocation_count(), 4);
    }

    /// A function that fails its first `failures` calls, then echoes.
    fn flaky(name: &str, tenant: &str, failures: u32) -> FunctionSpec {
        use std::sync::atomic::{AtomicU32, Ordering};
        let remaining = AtomicU32::new(failures);
        FunctionSpec::new(name, tenant, move |ctx| {
            if remaining
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
            {
                Err("transient".into())
            } else {
                Ok(ctx.payload.to_vec())
            }
        })
    }

    #[test]
    fn retry_recovers_transient_failures() {
        let clock = VirtualClock::shared();
        let p = FaasPlatform::new(PlatformConfig::deterministic(), clock);
        p.register(flaky("flaky", "t", 2)).unwrap();
        let o = Orchestrator::new(p);
        let comp = Composition::Retry {
            inner: Box::new(Composition::Task("flaky".into())),
            attempts: 5,
        };
        let r = o.run(&comp, b"ok").unwrap();
        assert_eq!(r.output, b"ok");
        assert_eq!(o.metrics().counter("retries").get(), 2);
        // All three executions (two failed, one ok) were billed, and are
        // recorded.
        assert_eq!(r.invocation_count(), 3);
    }

    #[test]
    fn retry_with_no_attempts_is_refused() {
        let (o, p) = setup();
        let comp = Composition::Retry {
            inner: Box::new(Composition::Task("inc".into())),
            attempts: 0,
        };
        assert!(matches!(
            o.run(&comp, &[1]),
            Err(FaasError::ExecutionFailed { ref function, .. }) if function == "<retry>"
        ));
        assert_eq!(p.billing().invocations("tenant"), 0);
    }

    #[test]
    fn retry_exhaustion_propagates() {
        let clock = VirtualClock::shared();
        let p = FaasPlatform::new(PlatformConfig::deterministic(), clock);
        p.register(FunctionSpec::new("dead", "t", |_| Err("no".into())))
            .unwrap();
        let o = Orchestrator::new(p);
        let comp = Composition::Retry {
            inner: Box::new(Composition::Task("dead".into())),
            attempts: 3,
        };
        assert!(matches!(
            o.run(&comp, &[]),
            Err(FaasError::ExecutionFailed { .. })
        ));
        // Three failed attempts are two re-executions.
        assert_eq!(o.metrics().counter("retries").get(), 2);
    }

    #[test]
    fn unknown_names_error() {
        let (o, _) = setup();
        assert!(matches!(
            o.run(&Composition::Task("ghost".into()), &[]),
            Err(FaasError::FunctionNotFound(_))
        ));
        assert!(matches!(
            o.run(&Composition::Named("ghost".into()), &[]),
            Err(FaasError::FunctionNotFound(_))
        ));
    }
}
