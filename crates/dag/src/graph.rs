//! DAG construction and validation: builder, cycle detection, topological
//! frontiers, and the critical path.
//!
//! A workflow is a set of named nodes, each invoking one FaaS function and
//! depending on zero or more other nodes. Validation happens once at
//! [`DagBuilder::build`], which also derives everything a run reads —
//! levels, [sinks](Dag::sinks), [frontiers](Dag::frontiers) (the first
//! holds the roots); a constructed [`Dag`] is immutable and
//! guaranteed acyclic, so the executor can count dependencies down
//! without re-checking or re-deriving anything.

use std::collections::HashMap;
use std::sync::Arc;

use taureau_orchestration::statemachine::StateMachine;

use crate::error::DagError;

/// One workflow node: invoke `function` once every dependency's output is
/// available.
#[derive(Debug, Clone)]
pub(crate) struct DagNode {
    /// Unique node name within the DAG.
    pub(crate) name: String,
    /// Registered FaaS function this node invokes.
    pub(crate) function: String,
    /// Names of nodes whose outputs this node consumes, in the order the
    /// node wants them framed (see the executor's input-assembly rules).
    pub(crate) deps: Vec<String>,
}

/// Incrementally declares nodes, then validates the whole graph at once.
#[derive(Debug, Clone, Default)]
pub struct DagBuilder {
    nodes: Vec<DagNode>,
}

impl DagBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a node. `deps` name nodes this one waits for; order matters
    /// for multi-parent input framing.
    pub fn node(
        mut self,
        name: impl Into<String>,
        function: impl Into<String>,
        deps: &[&str],
    ) -> Self {
        self.nodes.push(DagNode {
            name: name.into(),
            function: function.into(),
            deps: deps.iter().map(|d| d.to_string()).collect(),
        });
        self
    }

    /// Validate and freeze the graph: rejects empty graphs, duplicate
    /// names, unknown or self dependencies, and cycles.
    pub fn build(self) -> Result<Dag, DagError> {
        if self.nodes.is_empty() {
            return Err(DagError::Empty);
        }
        let mut index = HashMap::with_capacity(self.nodes.len());
        for (i, node) in self.nodes.iter().enumerate() {
            if index.insert(node.name.clone(), i).is_some() {
                return Err(DagError::DuplicateNode(node.name.clone()));
            }
        }
        let mut deps = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let mut resolved = Vec::with_capacity(node.deps.len());
            for dep in &node.deps {
                if dep == &node.name {
                    return Err(DagError::SelfDependency(node.name.clone()));
                }
                let &di = index.get(dep).ok_or_else(|| DagError::UnknownDependency {
                    node: node.name.clone(),
                    dep: dep.clone(),
                })?;
                resolved.push(di);
            }
            deps.push(resolved);
        }
        let mut dependents = vec![Vec::new(); self.nodes.len()];
        for (i, ds) in deps.iter().enumerate() {
            for &d in ds {
                dependents[d].push(i);
            }
        }
        // Kahn's algorithm: peel zero-in-degree nodes; anything left over
        // sits on (or behind) a cycle. A node is peeled after all of its
        // dependencies, so its level — one more than the deepest of them —
        // is final by then.
        let n = self.nodes.len();
        let mut indegree: Vec<usize> = deps.iter().map(Vec::len).collect();
        let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut level = vec![0usize; n];
        let mut ordered = 0usize;
        while let Some(i) = ready.pop() {
            ordered += 1;
            for &j in &dependents[i] {
                level[j] = level[j].max(level[i] + 1);
                indegree[j] -= 1;
                if indegree[j] == 0 {
                    ready.push(j);
                }
            }
        }
        if ordered < n {
            let stuck = (0..n)
                .filter(|&i| indegree[i] > 0)
                .map(|i| self.nodes[i].name.clone())
                .collect();
            return Err(DagError::Cycle(stuck));
        }
        let depth = level.iter().copied().max().map_or(0, |m| m + 1);
        let mut frontiers = vec![Vec::new(); depth];
        for (i, &l) in level.iter().enumerate() {
            frontiers[l].push(i);
        }
        let labels = self
            .nodes
            .iter()
            .map(|node| (node.name.as_str().into(), node.function.as_str().into()))
            .collect();
        Ok(Dag(Arc::new(Graph {
            sinks: (0..n).filter(|&i| dependents[i].is_empty()).collect(),
            nodes: self.nodes,
            labels,
            deps,
            dependents,
            level,
            frontiers,
        })))
    }
}

/// A validated, immutable, acyclic workflow graph. A handle: cloning it
/// shares the graph.
#[derive(Debug, Clone)]
pub struct Dag(Arc<Graph>);

/// What [`DagBuilder::build`] validated and derived, once.
#[derive(Debug)]
struct Graph {
    nodes: Vec<DagNode>,
    /// Each node's (name, function) as shared strings: a run's outcomes
    /// carry them without copying.
    labels: Vec<(Arc<str>, Arc<str>)>,
    deps: Vec<Vec<usize>>,
    dependents: Vec<Vec<usize>>,
    /// Earliest-start level of each node: 0 for roots, otherwise one more
    /// than the deepest dependency.
    level: Vec<usize>,
    sinks: Vec<usize>,
    frontiers: Vec<Vec<usize>>,
}

impl Dag {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.0.nodes.len()
    }

    /// Whether the DAG has no nodes (never true for a built DAG).
    pub fn is_empty(&self) -> bool {
        self.0.nodes.is_empty()
    }

    /// The node at `i`.
    #[cfg(test)]
    pub(crate) fn node(&self, i: usize) -> &DagNode {
        &self.0.nodes[i]
    }

    /// Node `i`'s (name, function), shared.
    pub(crate) fn labels(&self, i: usize) -> &(Arc<str>, Arc<str>) {
        &self.0.labels[i]
    }

    /// Dependency indices of node `i`, in declared order.
    pub fn deps_of(&self, i: usize) -> &[usize] {
        &self.0.deps[i]
    }

    /// Indices of nodes that depend on node `i`.
    pub fn dependents_of(&self, i: usize) -> &[usize] {
        &self.0.dependents[i]
    }

    /// Nodes nothing depends on (their outputs form the workflow output).
    pub(crate) fn sinks(&self) -> &[usize] {
        &self.0.sinks
    }

    /// Node `i`'s level: the length of its longest dependency chain.
    pub(crate) fn level_of(&self, i: usize) -> usize {
        self.0.level[i]
    }

    /// Topological frontiers: frontier `k` holds every node of level `k`,
    /// in declaration order. All nodes in one frontier are mutually
    /// independent; together the frontiers cover every node exactly once.
    pub fn frontiers(&self) -> &[Vec<usize>] {
        &self.0.frontiers
    }

    /// One longest dependency chain (root → … → sink), as node indices.
    /// Its length is the number of sequential steps no amount of
    /// parallelism can remove — the denominator of critical-path
    /// efficiency.
    pub fn critical_path(&self) -> Vec<usize> {
        let level = &self.0.level;
        let Some(end) = (0..self.len()).max_by_key(|&i| level[i]) else {
            return Vec::new();
        };
        let mut path = vec![end];
        let mut cur = end;
        while level[cur] > 0 {
            let &prev = self.0.deps[cur]
                .iter()
                .find(|&&d| level[d] + 1 == level[cur])
                .expect("a node above level 0 has a deepest dependency");
            path.push(prev);
            cur = prev;
        }
        path.reverse();
        path
    }

    /// A linear chain DAG: each stage depends on the previous one.
    pub fn chain(stages: &[(&str, &str)]) -> Result<Dag, DagError> {
        let mut b = DagBuilder::new();
        let mut prev: Option<&str> = None;
        for (name, function) in stages {
            b = match prev {
                Some(p) => b.node(*name, *function, &[p]),
                None => b.node(*name, *function, &[]),
            };
            prev = Some(name);
        }
        b.build()
    }

    /// Express a linear [`StateMachine`] as a chain-DAG, so both workflow
    /// models run on one executor. Fails with [`DagError::NotAChain`] for
    /// machines that branch, loop, or dangle — those need the state
    /// machine's runtime routing.
    pub fn from_state_machine(m: &StateMachine) -> Result<Dag, DagError> {
        let chain = m.linear_chain().ok_or(DagError::NotAChain)?;
        let stages: Vec<(&str, &str)> = chain
            .iter()
            .map(|(s, f)| (s.as_str(), f.as_str()))
            .collect();
        Dag::chain(&stages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Dag {
        DagBuilder::new()
            .node("a", "f", &[])
            .node("b", "f", &["a"])
            .node("c", "f", &["a"])
            .node("d", "f", &["b", "c"])
            .build()
            .unwrap()
    }

    #[test]
    fn diamond_frontiers_and_paths() {
        let dag = diamond();
        assert_eq!(dag.len(), 4);
        assert_eq!(dag.frontiers()[0], vec![0], "the roots");
        assert_eq!(dag.sinks(), vec![3]);
        assert_eq!(dag.frontiers(), vec![vec![0], vec![1, 2], vec![3]]);
        let cp = dag.critical_path();
        assert_eq!(cp.len(), 3);
        assert_eq!((cp[0], cp[2]), (0, 3));
        assert_eq!(dag.deps_of(3), &[1, 2]);
        assert_eq!(dag.dependents_of(0), &[1, 2]);
    }

    #[test]
    fn validation_rejects_malformed_graphs() {
        assert!(matches!(DagBuilder::new().build(), Err(DagError::Empty)));
        assert!(matches!(
            DagBuilder::new()
                .node("a", "f", &[])
                .node("a", "g", &[])
                .build(),
            Err(DagError::DuplicateNode(ref n)) if n == "a"
        ));
        assert!(matches!(
            DagBuilder::new().node("a", "f", &["ghost"]).build(),
            Err(DagError::UnknownDependency { ref node, ref dep }) if node == "a" && dep == "ghost"
        ));
        assert!(matches!(
            DagBuilder::new().node("a", "f", &["a"]).build(),
            Err(DagError::SelfDependency(ref n)) if n == "a"
        ));
        let cyclic = DagBuilder::new()
            .node("a", "f", &["c"])
            .node("b", "f", &["a"])
            .node("c", "f", &["b"])
            .build();
        match cyclic {
            Err(DagError::Cycle(names)) => assert_eq!(names.len(), 3),
            other => panic!("expected cycle, got {other:?}"),
        }
    }

    #[test]
    fn cycle_error_names_only_stuck_nodes() {
        // An acyclic prefix feeding a cycle: the prefix is peeled off, the
        // cycle members remain.
        let r = DagBuilder::new()
            .node("pre", "f", &[])
            .node("x", "f", &["pre", "y"])
            .node("y", "f", &["x"])
            .build();
        match r {
            Err(DagError::Cycle(mut names)) => {
                names.sort();
                assert_eq!(names, vec!["x".to_string(), "y".to_string()]);
            }
            other => panic!("expected cycle, got {other:?}"),
        }
    }

    #[test]
    fn chain_and_state_machine_conversion() {
        let dag = Dag::chain(&[("extract", "fx"), ("transform", "ft"), ("load", "fl")]).unwrap();
        assert_eq!(dag.frontiers(), vec![vec![0], vec![1], vec![2]]);
        assert_eq!(dag.critical_path(), vec![0, 1, 2]);

        use taureau_orchestration::statemachine::{State, Transition};
        let m = StateMachine::new("s1")
            .state(
                "s1",
                State {
                    function: "f1".into(),
                    next: Transition::Always("s2".into()),
                },
            )
            .state(
                "s2",
                State {
                    function: "f2".into(),
                    next: Transition::End,
                },
            );
        let dag = Dag::from_state_machine(&m).unwrap();
        assert_eq!(dag.len(), 2);
        assert_eq!(dag.node(0).function, "f1");
        assert_eq!(dag.node(1).deps, vec!["s1".to_string()]);

        let looping = StateMachine::new("spin").state(
            "spin",
            State {
                function: "f".into(),
                next: Transition::Always("spin".into()),
            },
        );
        assert!(matches!(
            Dag::from_state_machine(&looping),
            Err(DagError::NotAChain)
        ));
    }
}
