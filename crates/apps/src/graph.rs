//! Serverless graph processing (§5.1).
//!
//! "Toader et al. presented a serverless approach to graph processing. It
//! employs the Pregel computation model as its execution model and uses a
//! memory engine … to store intermediate state during graph processing."
//!
//! This module is that system: a Pregel engine whose workers are **FaaS
//! invocations** (one per graph partition per superstep) and whose vertex
//! state and message inboxes live in **Jiffy** (the "memory engine" —
//! Graphless used Redis; the substitution is documented in `DESIGN.md`).
//! Three vertex programs — PageRank, single-source shortest paths, and
//! connected components — plus sequential reference implementations the
//! tests validate against.

use std::sync::Arc;

use bytes::BufMut;
use taureau_core::wire::Reader;
use taureau_faas::{FaasPlatform, FunctionSpec};
use taureau_jiffy::{Jiffy, QueueHandle};

/// A directed weighted graph in adjacency-list form.
#[derive(Debug, Clone)]
pub struct Graph {
    adj: Vec<Vec<(u32, f64)>>,
}

impl Graph {
    /// Graph with `n` vertices and no edges.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            adj: vec![Vec::new(); n],
        }
    }

    /// Build from an edge list.
    pub fn from_edges(n: usize, edges: &[(u32, u32, f64)]) -> Self {
        let mut g = Self::new(n);
        for &(u, v, w) in edges {
            g.add_edge(u, v, w);
        }
        g
    }

    /// Add a directed edge.
    pub(crate) fn add_edge(&mut self, u: u32, v: u32, w: f64) {
        assert!((u as usize) < self.adj.len() && (v as usize) < self.adj.len());
        self.adj[u as usize].push((v, w));
    }

    /// Random G(n, m) multigraph-free digraph, deterministic per seed.
    pub fn random(n: usize, m: usize, seed: u64) -> Self {
        use rand::Rng;
        let mut rng = taureau_core::rng::det_rng(seed);
        let mut g = Self::new(n);
        let mut seen = std::collections::HashSet::new();
        while seen.len() < m {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u != v && seen.insert((u, v)) {
                g.add_edge(u, v, rng.gen_range(1.0..10.0));
            }
        }
        g
    }

    /// Vertex count.
    pub fn n(&self) -> usize {
        self.adj.len()
    }

    /// Edge count.
    pub fn m(&self) -> usize {
        self.adj.iter().map(Vec::len).sum()
    }

    /// Out-neighbors of `u`.
    pub(crate) fn neighbors(&self, u: u32) -> &[(u32, f64)] {
        &self.adj[u as usize]
    }

    /// Out-degree of `u`.
    pub(crate) fn out_degree(&self, u: u32) -> usize {
        self.adj[u as usize].len()
    }
}

/// A Pregel vertex program over `f64` vertex values and messages.
pub trait VertexProgram: Send + Sync + 'static {
    /// Initial vertex value.
    fn init(&self, vertex: u32, graph: &Graph) -> f64;

    /// One superstep for `vertex`: current value and (combined) incoming
    /// messages in; returns the new value and the messages to send as
    /// `(destination, message)` pairs. Returning no messages everywhere
    /// ends the computation.
    fn compute(
        &self,
        vertex: u32,
        value: f64,
        messages: &[f64],
        step: u32,
        graph: &Graph,
    ) -> (f64, Vec<(u32, f64)>);

    /// Upper bound on supersteps (safety valve).
    fn max_steps(&self) -> u32 {
        100
    }

    /// Whether vertices compute every superstep even without incoming
    /// messages. Fixed-iteration algorithms (PageRank) need this;
    /// convergence algorithms (SSSP, WCC) use vote-to-halt instead.
    fn always_active(&self) -> bool {
        false
    }
}

/// PageRank with damping `d`, run for exactly `iters` supersteps.
pub struct PageRank {
    /// Damping factor (0.85 classically).
    pub d: f64,
    /// Iterations to run.
    pub iters: u32,
}

impl VertexProgram for PageRank {
    fn init(&self, _vertex: u32, graph: &Graph) -> f64 {
        1.0 / graph.n() as f64
    }

    fn compute(
        &self,
        vertex: u32,
        value: f64,
        messages: &[f64],
        step: u32,
        graph: &Graph,
    ) -> (f64, Vec<(u32, f64)>) {
        let n = graph.n() as f64;
        let new_value = if step == 0 {
            value
        } else {
            (1.0 - self.d) / n + self.d * messages.iter().sum::<f64>()
        };
        if step >= self.iters {
            return (new_value, Vec::new());
        }
        let deg = graph.out_degree(vertex);
        if deg == 0 {
            return (new_value, Vec::new());
        }
        let share = new_value / deg as f64;
        (
            new_value,
            graph
                .neighbors(vertex)
                .iter()
                .map(|&(v, _)| (v, share))
                .collect(),
        )
    }

    fn max_steps(&self) -> u32 {
        self.iters + 1
    }

    fn always_active(&self) -> bool {
        true
    }
}

/// Single-source shortest paths from `source` (Bellman-Ford style Pregel).
pub struct Sssp {
    /// Source vertex.
    pub source: u32,
}

impl VertexProgram for Sssp {
    fn init(&self, vertex: u32, _graph: &Graph) -> f64 {
        if vertex == self.source {
            0.0
        } else {
            f64::INFINITY
        }
    }

    fn compute(
        &self,
        vertex: u32,
        value: f64,
        messages: &[f64],
        step: u32,
        graph: &Graph,
    ) -> (f64, Vec<(u32, f64)>) {
        let best_incoming = messages.iter().copied().fold(f64::INFINITY, f64::min);
        let new_value = value.min(best_incoming);
        let improved = new_value < value || (step == 0 && new_value.is_finite());
        if !improved {
            return (new_value, Vec::new());
        }
        (
            new_value,
            graph
                .neighbors(vertex)
                .iter()
                .map(|&(v, w)| (v, new_value + w))
                .collect(),
        )
    }

    fn max_steps(&self) -> u32 {
        10_000
    }
}

/// Connected components on the underlying undirected graph: min-label
/// propagation. (Feed a symmetrised graph for the classic semantics.)
pub struct Wcc;

impl VertexProgram for Wcc {
    fn init(&self, vertex: u32, _graph: &Graph) -> f64 {
        vertex as f64
    }

    fn compute(
        &self,
        vertex: u32,
        value: f64,
        messages: &[f64],
        step: u32,
        graph: &Graph,
    ) -> (f64, Vec<(u32, f64)>) {
        let best = messages.iter().copied().fold(value, f64::min);
        let changed = best < value || step == 0;
        if !changed {
            return (value, Vec::new());
        }
        let _ = vertex;
        (
            best,
            graph
                .neighbors(vertex)
                .iter()
                .map(|&(v, _)| (v, best))
                .collect(),
        )
    }

    fn max_steps(&self) -> u32 {
        10_000
    }
}

// ---------------------------------------------------------------------------
// Sequential references.

/// Sequential PageRank (the test oracle).
pub fn pagerank_seq(graph: &Graph, d: f64, iters: u32) -> Vec<f64> {
    let n = graph.n();
    let mut rank = vec![1.0 / n as f64; n];
    for _ in 0..iters {
        let mut next = vec![(1.0 - d) / n as f64; n];
        for (u, r) in rank.iter().enumerate() {
            let deg = graph.out_degree(u as u32);
            if deg == 0 {
                continue;
            }
            let share = d * r / deg as f64;
            for &(v, _) in graph.neighbors(u as u32) {
                next[v as usize] += share;
            }
        }
        rank = next;
    }
    rank
}

/// Sequential Dijkstra (the SSSP oracle).
pub fn sssp_seq(graph: &Graph, source: u32) -> Vec<f64> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let n = graph.n();
    let mut dist = vec![f64::INFINITY; n];
    dist[source as usize] = 0.0;
    let mut heap = BinaryHeap::new();
    heap.push(Reverse((ordered_float(0.0), source)));
    while let Some(Reverse((d, u))) = heap.pop() {
        let d = d as f64 / 1e9;
        if d > dist[u as usize] {
            continue;
        }
        for &(v, w) in graph.neighbors(u) {
            let nd = d + w;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((ordered_float(nd), v)));
            }
        }
    }
    dist
}

fn ordered_float(f: f64) -> u64 {
    (f * 1e9) as u64
}

/// Sequential union-find components over the directed edges (the WCC
/// oracle when the input graph is symmetrised).
#[cfg(test)]
pub(crate) fn wcc_seq(graph: &Graph) -> Vec<u32> {
    let n = graph.n();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], x: u32) -> u32 {
        let mut root = x;
        while parent[root as usize] != root {
            root = parent[root as usize];
        }
        let mut cur = x;
        while parent[cur as usize] != root {
            let next = parent[cur as usize];
            parent[cur as usize] = root;
            cur = next;
        }
        root
    }
    for u in 0..n as u32 {
        for &(v, _) in graph.neighbors(u) {
            let ru = find(&mut parent, u);
            let rv = find(&mut parent, v);
            if ru != rv {
                parent[ru.max(rv) as usize] = ru.min(rv);
            }
        }
    }
    (0..n as u32).map(|v| find(&mut parent, v)).collect()
}

// ---------------------------------------------------------------------------
// The serverless Pregel engine.

/// Outcome of a serverless Pregel run.
#[derive(Debug)]
pub struct PregelOutcome {
    /// Final vertex values.
    pub values: Vec<f64>,
    /// Supersteps executed.
    pub supersteps: u32,
    /// FaaS invocations used (partitions × supersteps).
    pub invocations: u64,
    /// Messages exchanged through Jiffy.
    pub messages: u64,
}

fn encode_msgs(msgs: &[(u32, f64)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(msgs.len() * 12);
    for &(dst, val) in msgs {
        out.put_u32_le(dst);
        out.put_u64_le(val.to_bits());
    }
    out
}

/// The whole `(dst u32, value f64)` pairs of `bytes`, in order.
fn decode_msgs(bytes: &[u8]) -> Vec<(u32, f64)> {
    let mut r = Reader::new(bytes);
    std::iter::from_fn(|| Some((r.u32()?, f64::from_bits(r.u64()?)))).collect()
}

fn inbox(jiffy: &Jiffy, job: &str, part: usize, step: u32) -> QueueHandle {
    let path = format!("/{job}/inbox-{part}-{step}");
    jiffy
        .open_queue(path.as_str())
        .or_else(|_| jiffy.create_queue(path.as_str()))
        .expect("inbox queue")
}

/// Run a vertex program over the graph as a serverless job: `partitions`
/// FaaS invocations per superstep, vertex state in Jiffy KV, messages in
/// Jiffy queues.
pub fn run_pregel<P: VertexProgram>(
    platform: &FaasPlatform,
    jiffy: &Jiffy,
    graph: Arc<Graph>,
    program: Arc<P>,
    partitions: usize,
    job: &str,
) -> PregelOutcome {
    assert!(partitions >= 1);
    let n = graph.n();
    let state = jiffy
        .create_kv(format!("/{job}/state").as_str(), partitions)
        .expect("state kv");
    for v in 0..n as u32 {
        state
            .put(&v.to_le_bytes(), &program.init(v, &graph).to_le_bytes())
            .expect("seed state");
    }

    // The partition worker: payload "part,step".
    let fn_name = format!("pregel-{job}");
    let g = Arc::clone(&graph);
    let prog = Arc::clone(&program);
    let jf = jiffy.clone();
    let job_owned = job.to_string();
    let parts = partitions;
    let _ = platform.deregister(&fn_name);
    platform
        .register(FunctionSpec::new(&fn_name, "pregel", move |ctx| {
            let text = ctx.payload_str().ok_or("bad payload")?;
            let (part, step) = text
                .split_once(',')
                .and_then(|(a, b)| Some((a.parse::<usize>().ok()?, b.parse::<u32>().ok()?)))
                .ok_or("bad coords")?;
            let state = jf
                .open_kv(format!("/{job_owned}/state").as_str())
                .map_err(|e| e.to_string())?;
            // Drain this partition's inbox for this step, grouping by
            // destination vertex.
            let q = inbox(&jf, &job_owned, part, step);
            let mut by_vertex: std::collections::HashMap<u32, Vec<f64>> =
                std::collections::HashMap::new();
            while let Ok(Some(payload)) = q.pop() {
                for (dst, val) in decode_msgs(&payload) {
                    by_vertex.entry(dst).or_default().push(val);
                }
            }
            // Compute every vertex of this partition that is active:
            // at step 0 all are; later only those with messages.
            let mut outgoing: Vec<Vec<(u32, f64)>> = vec![Vec::new(); parts];
            let mut sent = 0u64;
            let my_vertices = (0..g.n() as u32).filter(|v| (*v as usize) % parts == part);
            let always_active = prog.always_active();
            for v in my_vertices {
                let msgs = by_vertex.remove(&v);
                if step > 0 && msgs.is_none() && !always_active {
                    continue; // vote-to-halt: inactive without messages
                }
                let cur = state
                    .get(&v.to_le_bytes())
                    .map_err(|e| e.to_string())?
                    .map(|b| f64::from_le_bytes(b[..].try_into().expect("8 bytes")))
                    .ok_or("missing vertex state")?;
                let (new_val, out) = prog.compute(v, cur, &msgs.unwrap_or_default(), step, &g);
                state
                    .put(&v.to_le_bytes(), &new_val.to_le_bytes())
                    .map_err(|e| e.to_string())?;
                for (dst, m) in out {
                    outgoing[(dst as usize) % parts].push((dst, m));
                    sent += 1;
                }
            }
            // Ship messages to next-step inboxes.
            for (dst_part, msgs) in outgoing.iter().enumerate() {
                if !msgs.is_empty() {
                    let q = inbox(&jf, &job_owned, dst_part, step + 1);
                    q.push(&encode_msgs(msgs)).map_err(|e| e.to_string())?;
                }
            }
            Ok(sent.to_le_bytes().to_vec())
        }))
        .expect("register pregel worker");

    let mut invocations = 0u64;
    let mut messages = 0u64;
    let mut step = 0u32;
    loop {
        let mut sent_this_step = 0u64;
        for part in 0..partitions {
            let r = platform
                .invoke(&fn_name, format!("{part},{step}").into_bytes())
                .expect("superstep invocation");
            invocations += 1;
            sent_this_step += u64::from_le_bytes(r.output[..].try_into().expect("8 bytes"));
        }
        messages += sent_this_step;
        step += 1;
        if sent_this_step == 0 || step >= program.max_steps() {
            break;
        }
    }

    let values = (0..n as u32)
        .map(|v| {
            state
                .get(&v.to_le_bytes())
                .expect("state read")
                .map(|b| f64::from_le_bytes(b[..].try_into().expect("8 bytes")))
                .expect("vertex present")
        })
        .collect();
    let _ = platform.deregister(&fn_name);
    let _ = jiffy.remove_namespace(format!("/{job}").as_str());
    PregelOutcome {
        values,
        supersteps: step,
        invocations,
        messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taureau_core::clock::VirtualClock;
    use taureau_faas::PlatformConfig;
    use taureau_jiffy::JiffyConfig;

    fn setup() -> (FaasPlatform, Jiffy) {
        let clock = VirtualClock::shared();
        (
            FaasPlatform::new(PlatformConfig::deterministic(), clock.clone()),
            Jiffy::new(JiffyConfig::default(), clock),
        )
    }

    fn symmetrize(g: &Graph) -> Graph {
        let mut s = Graph::new(g.n());
        for u in 0..g.n() as u32 {
            for &(v, w) in g.neighbors(u) {
                s.add_edge(u, v, w);
                s.add_edge(v, u, w);
            }
        }
        s
    }

    #[test]
    fn pagerank_serverless_matches_sequential() {
        let (platform, jiffy) = setup();
        let g = Arc::new(Graph::random(60, 300, 1));
        let seq = pagerank_seq(&g, 0.85, 10);
        let out = run_pregel(
            &platform,
            &jiffy,
            Arc::clone(&g),
            Arc::new(PageRank { d: 0.85, iters: 10 }),
            4,
            "pr-test",
        );
        for (v, (a, b)) in out.values.iter().zip(&seq).enumerate() {
            assert!((a - b).abs() < 1e-9, "vertex {v}: {a} vs {b}");
        }
        assert!(out.invocations >= 4 * 10);
    }

    #[test]
    fn sssp_serverless_matches_dijkstra() {
        let (platform, jiffy) = setup();
        let g = Arc::new(Graph::random(50, 250, 2));
        let seq = sssp_seq(&g, 0);
        let out = run_pregel(
            &platform,
            &jiffy,
            Arc::clone(&g),
            Arc::new(Sssp { source: 0 }),
            4,
            "sssp-test",
        );
        for (v, (a, b)) in out.values.iter().zip(&seq).enumerate() {
            if b.is_infinite() {
                assert!(a.is_infinite(), "vertex {v} should be unreachable");
            } else {
                assert!((a - b).abs() < 1e-6, "vertex {v}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn wcc_serverless_matches_union_find() {
        let (platform, jiffy) = setup();
        let base = Graph::from_edges(
            8,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (3, 4, 1.0),
                (5, 6, 1.0),
                (6, 7, 1.0),
            ],
        );
        let g = Arc::new(symmetrize(&base));
        let seq = wcc_seq(&g);
        let out = run_pregel(
            &platform,
            &jiffy,
            Arc::clone(&g),
            Arc::new(Wcc),
            3,
            "wcc-test",
        );
        let got: Vec<u32> = out.values.iter().map(|&v| v as u32).collect();
        assert_eq!(got, seq);
        // Three components: {0,1,2}, {3,4}, {5,6,7}.
        assert_eq!(got, vec![0, 0, 0, 3, 3, 5, 5, 5]);
    }

    #[test]
    fn sssp_halts_before_max_steps_on_small_graph() {
        let (platform, jiffy) = setup();
        let g = Arc::new(Graph::from_edges(
            4,
            &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)],
        ));
        let out = run_pregel(
            &platform,
            &jiffy,
            Arc::clone(&g),
            Arc::new(Sssp { source: 0 }),
            2,
            "halt-test",
        );
        // Path graph of length 3: needs ~5 supersteps, far below the cap.
        assert!(out.supersteps < 10, "supersteps {}", out.supersteps);
        assert_eq!(out.values, vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn single_partition_degenerates_to_sequential() {
        let (platform, jiffy) = setup();
        let g = Arc::new(Graph::random(20, 60, 3));
        let seq = pagerank_seq(&g, 0.85, 5);
        let out = run_pregel(
            &platform,
            &jiffy,
            Arc::clone(&g),
            Arc::new(PageRank { d: 0.85, iters: 5 }),
            1,
            "single-part",
        );
        for (a, b) in out.values.iter().zip(&seq) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn job_cleans_up_ephemeral_state() {
        let (platform, jiffy) = setup();
        let g = Arc::new(Graph::random(10, 20, 4));
        run_pregel(&platform, &jiffy, g, Arc::new(Wcc), 2, "cleanup-test");
        assert!(!jiffy.exists("/cleanup-test"));
        assert_eq!(jiffy.blocks_held_by("cleanup-test"), 0);
    }

    #[test]
    fn pagerank_sums_to_one() {
        let g = Graph::random(100, 500, 5);
        let pr = pagerank_seq(&g, 0.85, 20);
        let total: f64 = pr.iter().sum();
        // With no dangling-mass correction the sum stays near 1 for graphs
        // whose vertices mostly have out-edges.
        assert!((total - 1.0).abs() < 0.2, "sum {total}");
    }
}
