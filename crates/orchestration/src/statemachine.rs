//! State-machine orchestration — Hong et al.'s serverless design pattern 5
//! (§3.2 of the paper) and the programming model of AWS Step Functions
//! (§4.2).
//!
//! A [`StateMachine`] is a set of named states; each state invokes one
//! black-box function and routes its *output* through a transition rule to
//! the next state (or terminates). Unlike [`crate::Composition`] — which is
//! a static dataflow — a state machine branches on runtime values and may
//! loop, with a transition budget standing in for Step Functions'
//! execution-history limit.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use taureau_faas::{FaasError, FaasPlatform};

/// A branch predicate over a state's output bytes.
pub(crate) type OutputPredicate = Arc<dyn Fn(&[u8]) -> bool + Send + Sync>;

/// Routes a state's output to the next state.
pub enum Transition {
    /// Always go to the named state.
    Always(String),
    /// First matching predicate wins; falls back to the `otherwise` state.
    Branch {
        /// `(predicate on output, next state)` pairs, tried in order.
        arms: Vec<(OutputPredicate, String)>,
        /// State when no arm matches.
        otherwise: String,
    },
    /// Terminate successfully; the state's output is the machine's output.
    End,
}

impl Transition {
    /// Convenience: a single-predicate branch.
    pub fn branch(
        predicate: impl Fn(&[u8]) -> bool + Send + Sync + 'static,
        then: impl Into<String>,
        otherwise: impl Into<String>,
    ) -> Self {
        Transition::Branch {
            arms: vec![(Arc::new(predicate), then.into())],
            otherwise: otherwise.into(),
        }
    }
}

/// One state: invoke `function`, then follow `next`.
pub struct State {
    /// Function to invoke with the current payload.
    pub function: String,
    /// Where the output goes.
    pub next: Transition,
}

/// Errors from state-machine execution. Every variant names the state the
/// machine was in when it failed, so a report pinpoints the failing state
/// rather than just the last one visited.
#[derive(Debug)]
pub enum StateMachineError {
    /// A named state does not exist.
    UnknownState {
        /// The missing state.
        state: String,
        /// The state whose transition routed here (`None` when the start
        /// state itself is missing).
        from: Option<String>,
    },
    /// The transition budget was exhausted (runaway loop guard).
    TransitionLimit {
        /// The configured budget.
        limit: u32,
        /// The state the machine was about to enter when the budget ran
        /// out — the head of the runaway loop, not merely the last state
        /// that happened to run.
        at_state: String,
    },
    /// The underlying function invocation failed.
    Invocation {
        /// The state whose invocation failed.
        state: String,
        /// The function that state invokes.
        function: String,
        /// The platform error.
        source: FaasError,
    },
}

impl std::fmt::Display for StateMachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateMachineError::UnknownState { state, from } => match from {
                Some(from) => write!(f, "unknown state: {state} (routed from {from})"),
                None => write!(f, "unknown start state: {state}"),
            },
            StateMachineError::TransitionLimit { limit, at_state } => {
                write!(f, "exceeded {limit} transitions at state {at_state}")
            }
            StateMachineError::Invocation {
                state,
                function,
                source,
            } => write!(f, "state {state} (function {function}) failed: {source}"),
        }
    }
}

impl std::error::Error for StateMachineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StateMachineError::Invocation { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The result of running a state machine.
#[derive(Debug)]
pub struct StateMachineReport {
    /// Final output (refcounted; shared with the last step's result).
    pub output: Bytes,
}

/// The runaway-loop budget: transitions one run may take.
const MAX_TRANSITIONS: u32 = 1000;

/// A named-state workflow over black-box functions.
pub struct StateMachine {
    states: HashMap<String, State>,
    start: String,
}

impl StateMachine {
    /// Build a machine starting at `start`.
    pub fn new(start: impl Into<String>) -> Self {
        Self {
            states: HashMap::new(),
            start: start.into(),
        }
    }

    /// Add a state.
    pub fn state(mut self, name: impl Into<String>, s: State) -> Self {
        self.states.insert(name.into(), s);
        self
    }

    /// Execute against a platform.
    pub fn run(
        &self,
        platform: &FaasPlatform,
        input: &[u8],
    ) -> Result<StateMachineReport, StateMachineError> {
        let mut current = self.start.clone();
        let mut previous: Option<String> = None;
        let mut payload = Bytes::copy_from_slice(input);
        for _ in 0..MAX_TRANSITIONS {
            let state =
                self.states
                    .get(&current)
                    .ok_or_else(|| StateMachineError::UnknownState {
                        state: current.clone(),
                        from: previous.clone(),
                    })?;
            let r = platform
                .invoke(&state.function, payload.clone())
                .map_err(|source| StateMachineError::Invocation {
                    state: current.clone(),
                    function: state.function.clone(),
                    source,
                })?;
            payload = r.output;
            previous = Some(current.clone());
            current = match &state.next {
                Transition::End => {
                    return Ok(StateMachineReport { output: payload });
                }
                Transition::Always(next) => next.clone(),
                Transition::Branch { arms, otherwise } => arms
                    .iter()
                    .find(|(p, _)| p(&payload))
                    .map(|(_, next)| next.clone())
                    .unwrap_or_else(|| otherwise.clone()),
            };
        }
        Err(StateMachineError::TransitionLimit {
            limit: MAX_TRANSITIONS,
            at_state: current,
        })
    }

    /// View this machine as a linear chain of `(state, function)` stages:
    /// `Some` exactly when every state reachable from the start routes via
    /// [`Transition::Always`] (ending in [`Transition::End`]) and no state
    /// repeats. Linear machines are degenerate DAGs — a chain — and can be
    /// handed to a DAG executor to share one execution engine across both
    /// workflow models.
    pub fn linear_chain(&self) -> Option<Vec<(String, String)>> {
        let mut chain = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let mut current = self.start.clone();
        loop {
            if !seen.insert(current.clone()) {
                return None; // a revisit means a loop, not a chain
            }
            let state = self.states.get(&current)?;
            chain.push((current.clone(), state.function.clone()));
            match &state.next {
                Transition::End => return Some(chain),
                Transition::Always(next) => current = next.clone(),
                Transition::Branch { .. } => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taureau_core::clock::VirtualClock;
    use taureau_faas::{FunctionSpec, PlatformConfig};

    fn platform() -> FaasPlatform {
        let p = FaasPlatform::new(PlatformConfig::deterministic(), VirtualClock::shared());
        p.register(FunctionSpec::new("inc", "t", |ctx| {
            Ok(vec![ctx.payload[0] + 1])
        }))
        .unwrap();
        p.register(FunctionSpec::new("double", "t", |ctx| {
            Ok(vec![ctx.payload[0] * 2])
        }))
        .unwrap();
        p.register(FunctionSpec::new("noop", "t", |ctx| {
            Ok(ctx.payload.to_vec())
        }))
        .unwrap();
        p
    }

    #[test]
    fn linear_machine_terminates() {
        let p = platform();
        let m = StateMachine::new("a")
            .state(
                "a",
                State {
                    function: "inc".into(),
                    next: Transition::Always("b".into()),
                },
            )
            .state(
                "b",
                State {
                    function: "double".into(),
                    next: Transition::End,
                },
            );
        let r = m.run(&p, &[3]).unwrap();
        assert_eq!(r.output, vec![8]); // (3+1)*2
        assert_eq!(p.billing().invocations("t"), 2);
    }

    #[test]
    fn loop_until_condition() {
        // Keep incrementing until the value reaches 10 (a retry/poll loop,
        // the classic state-machine use).
        let p = platform();
        let m = StateMachine::new("bump")
            .state(
                "bump",
                State {
                    function: "inc".into(),
                    next: Transition::branch(|out| out[0] >= 10, "done", "bump"),
                },
            )
            .state(
                "done",
                State {
                    function: "noop".into(),
                    next: Transition::End,
                },
            );
        let r = m.run(&p, &[0]).unwrap();
        assert_eq!(r.output, vec![10]);
        assert_eq!(p.billing().invocations("t"), 11); // 10 bumps + done
    }

    #[test]
    fn transition_budget_stops_runaway_loops() {
        let p = platform();
        let m = StateMachine::new("spin").state(
            "spin",
            State {
                function: "noop".into(),
                next: Transition::Always("spin".into()),
            },
        );
        assert!(matches!(
            m.run(&p, &[0]),
            Err(StateMachineError::TransitionLimit { limit: MAX_TRANSITIONS, ref at_state })
                if at_state == "spin"
        ));
        // Exactly the budget's executions were billed (failed machines
        // still pay for what ran — as Step Functions does).
        assert_eq!(p.billing().invocations("t"), MAX_TRANSITIONS as usize);
    }

    #[test]
    fn unknown_state_is_reported() {
        let p = platform();
        let m = StateMachine::new("ghost");
        assert!(matches!(
            m.run(&p, &[0]),
            Err(StateMachineError::UnknownState { ref state, from: None }) if state == "ghost"
        ));
        // A dangling transition names both ends of the broken edge.
        let m = StateMachine::new("a").state(
            "a",
            State {
                function: "noop".into(),
                next: Transition::Always("nowhere".into()),
            },
        );
        let err = m.run(&p, &[0]).unwrap_err();
        assert!(matches!(
            err,
            StateMachineError::UnknownState { ref state, from: Some(ref f) }
                if state == "nowhere" && f == "a"
        ));
        assert_eq!(err.to_string(), "unknown state: nowhere (routed from a)");
    }

    #[test]
    fn invocation_errors_name_the_failing_state() {
        let p = platform();
        p.register(FunctionSpec::new("boom", "t", |_| Err("kaput".into())))
            .unwrap();
        // Three states; the middle one fails. The error must name "b",
        // not merely whatever state happened to be last.
        let m = StateMachine::new("a")
            .state(
                "a",
                State {
                    function: "inc".into(),
                    next: Transition::Always("b".into()),
                },
            )
            .state(
                "b",
                State {
                    function: "boom".into(),
                    next: Transition::Always("c".into()),
                },
            )
            .state(
                "c",
                State {
                    function: "inc".into(),
                    next: Transition::End,
                },
            );
        let err = m.run(&p, &[0]).unwrap_err();
        match &err {
            StateMachineError::Invocation {
                state,
                function,
                source,
            } => {
                assert_eq!(state, "b");
                assert_eq!(function, "boom");
                assert!(matches!(source, FaasError::ExecutionFailed { .. }));
            }
            other => panic!("expected Invocation, got {other:?}"),
        }
        assert!(err.to_string().contains("state b (function boom)"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn linear_chain_view() {
        let m = StateMachine::new("a")
            .state(
                "a",
                State {
                    function: "inc".into(),
                    next: Transition::Always("b".into()),
                },
            )
            .state(
                "b",
                State {
                    function: "double".into(),
                    next: Transition::End,
                },
            );
        assert_eq!(
            m.linear_chain(),
            Some(vec![
                ("a".to_string(), "inc".to_string()),
                ("b".to_string(), "double".to_string()),
            ])
        );
        // Branching machines are not chains.
        let branching = StateMachine::new("route").state(
            "route",
            State {
                function: "noop".into(),
                next: Transition::branch(|o| o[0] > 1, "a", "b"),
            },
        );
        assert_eq!(branching.linear_chain(), None);
        // Looping machines are not chains.
        let looping = StateMachine::new("spin").state(
            "spin",
            State {
                function: "noop".into(),
                next: Transition::Always("spin".into()),
            },
        );
        assert_eq!(looping.linear_chain(), None);
        // Dangling machines are not chains.
        let dangling = StateMachine::new("ghost");
        assert_eq!(dangling.linear_chain(), None);
    }

    #[test]
    fn branch_arms_tried_in_order() {
        let p = platform();
        for tag in ["big", "medium", "small"] {
            p.register(FunctionSpec::new(tag, "t", move |_| Ok(tag.into())))
                .unwrap();
        }
        let m = StateMachine::new("route")
            .state(
                "route",
                State {
                    function: "noop".into(),
                    next: Transition::Branch {
                        arms: vec![
                            (Arc::new(|o: &[u8]| o[0] > 100), "big".into()),
                            (Arc::new(|o: &[u8]| o[0] > 10), "medium".into()),
                        ],
                        otherwise: "small".into(),
                    },
                },
            )
            .state(
                "big",
                State {
                    function: "big".into(),
                    next: Transition::End,
                },
            )
            .state(
                "medium",
                State {
                    function: "medium".into(),
                    next: Transition::End,
                },
            )
            .state(
                "small",
                State {
                    function: "small".into(),
                    next: Transition::End,
                },
            );
        assert_eq!(m.run(&p, &[200]).unwrap().output, &b"big"[..]);
        assert_eq!(m.run(&p, &[50]).unwrap().output, &b"medium"[..]);
        assert_eq!(m.run(&p, &[5]).unwrap().output, &b"small"[..]);
    }

    #[test]
    fn no_double_billing_for_machines() {
        let p = platform();
        let m = StateMachine::new("a")
            .state(
                "a",
                State {
                    function: "inc".into(),
                    next: Transition::Always("b".into()),
                },
            )
            .state(
                "b",
                State {
                    function: "inc".into(),
                    next: Transition::End,
                },
            );
        let bill = p.billing();
        m.run(&p, &[0]).unwrap();
        // One billed execution per state visited; the machine adds none.
        assert_eq!(bill.invocations("t"), 2);
        let one = p.invoke("inc", &[0][..]).unwrap().cost;
        assert!((bill.total("t") - 3.0 * one).abs() < 1e-15);
    }
}
