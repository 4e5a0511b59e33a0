//! Bin-packing placement — §6's look-forward.
//!
//! "Future research may explore bin-packing techniques that 'pack'
//! different functions together based on heuristics that ensure performance
//! isolation, e.g., by packing together functions that have complementary
//! … resource requirements (e.g., CPU/GPU/TPU), ensuring they do not
//! contend with each other."
//!
//! This module implements that experiment (E12): function instances with
//! two-dimensional demands (CPU, memory) are placed onto nodes by one of
//! several heuristics, and the outcome reports node count, fragmentation,
//! and per-dimension *imbalance* (the contention proxy: a node maxed on
//! CPU with idle memory means CPU-bound functions are contending while
//! memory sits stranded).

use serde::{Deserialize, Serialize};

/// A function instance's resource demand, normalised to node capacity
/// (each dimension in `(0, 1]`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Demand {
    /// CPU share.
    pub(crate) cpu: f64,
    /// Memory share.
    pub(crate) mem: f64,
}

impl Demand {
    /// A demand; panics outside `(0, 1]`.
    pub fn new(cpu: f64, mem: f64) -> Self {
        assert!(cpu > 0.0 && cpu <= 1.0, "cpu {cpu}");
        assert!(mem > 0.0 && mem <= 1.0, "mem {mem}");
        Self { cpu, mem }
    }
}

/// Placement heuristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackingPolicy {
    /// First node with room.
    FirstFit,
    /// Node left tightest (minimum remaining capacity) after placement.
    BestFit,
    /// Node left loosest after placement.
    WorstFit,
    /// §6's proposal: prefer the node where the item's demand most evens
    /// out the node's CPU/memory usage (pack CPU-heavy with memory-heavy).
    Complementary,
}

/// One node's running totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct NodeLoad {
    /// Sum of placed CPU shares.
    pub(crate) cpu: f64,
    /// Sum of placed memory shares.
    pub(crate) mem: f64,
}

impl NodeLoad {
    fn fits(&self, d: Demand) -> bool {
        self.cpu + d.cpu <= 1.0 + 1e-9 && self.mem + d.mem <= 1.0 + 1e-9
    }

    fn add(&mut self, d: Demand) {
        self.cpu += d.cpu;
        self.mem += d.mem;
    }

    /// |cpu - mem| after hypothetically adding `d` — the balance score the
    /// complementary policy minimises.
    fn imbalance_with(&self, d: Demand) -> f64 {
        ((self.cpu + d.cpu) - (self.mem + d.mem)).abs()
    }

    /// Remaining capacity (sum over dimensions).
    fn slack(&self) -> f64 {
        (1.0 - self.cpu) + (1.0 - self.mem)
    }
}

/// The result of packing a set of demands.
#[derive(Debug, Clone)]
pub struct PackingOutcome {
    /// Per-node loads (length = nodes used).
    pub(crate) nodes: Vec<NodeLoad>,
}

impl PackingOutcome {
    /// Nodes used.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Mean per-node |cpu − mem| imbalance: high means nodes are maxed on
    /// one dimension with the other stranded (the contention proxy).
    pub fn mean_imbalance(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        self.nodes
            .iter()
            .map(|n| (n.cpu - n.mem).abs())
            .sum::<f64>()
            / self.nodes.len() as f64
    }

    /// Stranded capacity: total unused resource on used nodes, as a
    /// fraction of the total deployed (fragmentation measure).
    pub fn stranded_fraction(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        let unused: f64 = self.nodes.iter().map(NodeLoad::slack).sum();
        unused / (2.0 * self.nodes.len() as f64)
    }
}

/// Pack `items` onto as few unit-capacity nodes as the policy manages,
/// in the given order (online packing).
pub fn pack(items: &[Demand], policy: PackingPolicy) -> PackingOutcome {
    let mut nodes: Vec<NodeLoad> = Vec::new();
    for &item in items {
        let candidate = match policy {
            PackingPolicy::FirstFit => nodes.iter().position(|n| n.fits(item)),
            PackingPolicy::BestFit => nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| n.fits(item))
                .min_by(|a, b| {
                    let sa = a.1.slack();
                    let sb = b.1.slack();
                    sa.partial_cmp(&sb).expect("no NaN")
                })
                .map(|(i, _)| i),
            PackingPolicy::WorstFit => nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| n.fits(item))
                .max_by(|a, b| {
                    let sa = a.1.slack();
                    let sb = b.1.slack();
                    sa.partial_cmp(&sb).expect("no NaN")
                })
                .map(|(i, _)| i),
            PackingPolicy::Complementary => nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| n.fits(item))
                .min_by(|a, b| {
                    let ia = a.1.imbalance_with(item);
                    let ib = b.1.imbalance_with(item);
                    ia.partial_cmp(&ib).expect("no NaN")
                })
                .map(|(i, _)| i),
        };
        let idx = match candidate {
            Some(i) => i,
            None => {
                nodes.push(NodeLoad::default());
                nodes.len() - 1
            }
        };
        nodes[idx].add(item);
    }
    PackingOutcome { nodes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use taureau_core::rng::det_rng;

    fn cpu_heavy() -> Demand {
        Demand::new(0.6, 0.1)
    }

    fn mem_heavy() -> Demand {
        Demand::new(0.1, 0.6)
    }

    #[test]
    fn capacity_is_respected_by_all_policies() {
        let mut rng = det_rng(1);
        let items: Vec<Demand> = (0..200)
            .map(|_| Demand::new(rng.gen_range(0.05..0.5), rng.gen_range(0.05..0.5)))
            .collect();
        for policy in [
            PackingPolicy::FirstFit,
            PackingPolicy::BestFit,
            PackingPolicy::WorstFit,
            PackingPolicy::Complementary,
        ] {
            let out = pack(&items, policy);
            for (i, n) in out.nodes.iter().enumerate() {
                assert!(n.cpu <= 1.0 + 1e-9, "{policy:?} node {i} cpu {}", n.cpu);
                assert!(n.mem <= 1.0 + 1e-9, "{policy:?} node {i} mem {}", n.mem);
            }
        }
    }

    #[test]
    fn complementary_pairs_cpu_with_mem_heavy() {
        // Alternate CPU-heavy and memory-heavy items. Complementary
        // packing should co-locate opposites: ~1 node per pair.
        let mut items = Vec::new();
        for _ in 0..10 {
            items.push(cpu_heavy());
            items.push(mem_heavy());
        }
        let comp = pack(&items, PackingPolicy::Complementary);
        assert!(
            comp.mean_imbalance() < 0.2,
            "complementary imbalance {}",
            comp.mean_imbalance()
        );
        // Pairing means one node holds a cpu-heavy and a mem-heavy item:
        // node usage (0.7, 0.7). 20 items → ~10 nodes.
        assert!(comp.node_count() <= 12, "nodes {}", comp.node_count());
    }

    #[test]
    fn complementary_beats_firstfit_on_imbalance_for_skewed_mix() {
        // All CPU-heavy first, then all memory-heavy: first-fit fills nodes
        // with same-kind items; complementary mixes once the second wave
        // arrives… with online arrival it can only do better or equal.
        let mut rng = det_rng(2);
        let mut items = Vec::new();
        for _ in 0..60 {
            if rng.gen::<bool>() {
                items.push(Demand::new(
                    rng.gen_range(0.4..0.7),
                    rng.gen_range(0.05..0.15),
                ));
            } else {
                items.push(Demand::new(
                    rng.gen_range(0.05..0.15),
                    rng.gen_range(0.4..0.7),
                ));
            }
        }
        let ff = pack(&items, PackingPolicy::FirstFit);
        let comp = pack(&items, PackingPolicy::Complementary);
        assert!(
            comp.mean_imbalance() <= ff.mean_imbalance() + 1e-9,
            "comp {} vs ff {}",
            comp.mean_imbalance(),
            ff.mean_imbalance()
        );
    }

    #[test]
    fn bestfit_uses_no_more_nodes_than_worstfit_on_uniform_items() {
        let mut rng = det_rng(3);
        let items: Vec<Demand> = (0..100)
            .map(|_| {
                let s = rng.gen_range(0.2..0.45);
                Demand::new(s, s)
            })
            .collect();
        let bf = pack(&items, PackingPolicy::BestFit);
        let wf = pack(&items, PackingPolicy::WorstFit);
        assert!(bf.node_count() <= wf.node_count());
    }

    #[test]
    fn single_oversized_item_gets_own_node() {
        let items = vec![Demand::new(1.0, 1.0), Demand::new(0.5, 0.5)];
        let out = pack(&items, PackingPolicy::FirstFit);
        assert_eq!(out.node_count(), 2);
    }

    #[test]
    fn stranded_fraction_reflects_waste() {
        // One tiny item on one node: nearly everything stranded.
        let out = pack(&[Demand::new(0.1, 0.1)], PackingPolicy::FirstFit);
        assert!(out.stranded_fraction() > 0.85);
        // Perfectly filled node: nothing stranded.
        let out = pack(
            &[Demand::new(0.5, 0.5), Demand::new(0.5, 0.5)],
            PackingPolicy::FirstFit,
        );
        assert!(out.stranded_fraction() < 1e-9);
    }
}
