//! Heterogeneous placement — §6's "Hardware Heterogeneity" look-forward.
//!
//! "Existing platforms mainly cater to users with general-purpose compute
//! needs, but largely ignore users that rely on specialized compute
//! resources like GPUs, TPUs and FPGAs. … the lack of these resources in
//! the serverless ecosystem is not fundamental."
//!
//! This module extends the bin-packing experiment to a fleet with
//! *accelerator* nodes: demands carry a third dimension (GPU share), only
//! accelerator nodes can host GPU work, and the interesting failure mode
//! is **accelerator stranding** — CPU-only functions filling up expensive
//! GPU nodes so GPU work cannot place. The accelerator-aware policy keeps
//! GPU nodes for GPU work unless the CPU fleet is exhausted.

use serde::{Deserialize, Serialize};

/// A function instance's demand across three resource dimensions,
/// normalised to node capacity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HeteroDemand {
    /// CPU share in `(0, 1]`.
    pub(crate) cpu: f64,
    /// Memory share in `(0, 1]`.
    pub(crate) mem: f64,
    /// GPU share in `[0, 1]` (0 = CPU-only function).
    pub(crate) gpu: f64,
}

impl HeteroDemand {
    /// A demand; panics outside the valid ranges.
    pub fn new(cpu: f64, mem: f64, gpu: f64) -> Self {
        assert!(cpu > 0.0 && cpu <= 1.0);
        assert!(mem > 0.0 && mem <= 1.0);
        assert!((0.0..=1.0).contains(&gpu));
        Self { cpu, mem, gpu }
    }

    /// Whether this function needs an accelerator.
    pub(crate) fn needs_gpu(&self) -> bool {
        self.gpu > 0.0
    }
}

/// Node flavours in the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum NodeKind {
    /// General-purpose node: no GPU.
    Cpu,
    /// Accelerator node: one GPU's worth of capacity, plus CPU/memory.
    Gpu,
}

/// A node's load across the three dimensions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct HeteroNode {
    /// Flavour.
    pub(crate) kind: NodeKind,
    /// CPU used.
    pub(crate) cpu: f64,
    /// Memory used.
    pub(crate) mem: f64,
    /// GPU used (always 0 on CPU nodes).
    pub(crate) gpu: f64,
}

impl HeteroNode {
    fn new(kind: NodeKind) -> Self {
        Self {
            kind,
            cpu: 0.0,
            mem: 0.0,
            gpu: 0.0,
        }
    }

    fn fits(&self, d: HeteroDemand) -> bool {
        if d.needs_gpu() && self.kind != NodeKind::Gpu {
            return false;
        }
        self.cpu + d.cpu <= 1.0 + 1e-9
            && self.mem + d.mem <= 1.0 + 1e-9
            && self.gpu + d.gpu <= 1.0 + 1e-9
    }

    fn add(&mut self, d: HeteroDemand) {
        self.cpu += d.cpu;
        self.mem += d.mem;
        self.gpu += d.gpu;
    }
}

/// Heterogeneous placement policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeteroPolicy {
    /// First fit over all nodes, oblivious to flavour (CPU work happily
    /// lands on GPU nodes).
    Oblivious,
    /// Accelerator-aware: CPU-only work prefers CPU nodes, opening a GPU
    /// node only when no CPU node fits; GPU work packs GPU nodes first-fit.
    AcceleratorAware,
}

/// Per-hour node prices used by the cost report (GPU nodes cost a
/// multiple of CPU nodes — p3 vs m5 class).
#[derive(Debug, Clone, Copy)]
pub struct HeteroPricing {
    /// Dollars per CPU-node hour.
    pub(crate) cpu_node: f64,
    /// Dollars per GPU-node hour.
    pub(crate) gpu_node: f64,
}

impl Default for HeteroPricing {
    fn default() -> Self {
        Self {
            cpu_node: 0.096,
            gpu_node: 3.06,
        }
    }
}

/// Outcome of heterogeneous packing.
#[derive(Debug)]
pub struct HeteroOutcome {
    /// Nodes opened.
    pub(crate) nodes: Vec<HeteroNode>,
    /// Item → node index; `None` if the item could not be placed (GPU
    /// work with all accelerators stranded).
    pub(crate) assignment: Vec<Option<usize>>,
}

impl HeteroOutcome {
    /// Nodes of each flavour opened.
    pub fn node_counts(&self) -> (usize, usize) {
        let cpu = self
            .nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Cpu)
            .count();
        (cpu, self.nodes.len() - cpu)
    }

    /// Items that failed to place.
    pub fn unplaced(&self) -> usize {
        self.assignment.iter().filter(|a| a.is_none()).count()
    }

    /// GPU capacity stranded: unused GPU on opened accelerator nodes whose
    /// CPU or memory is ≥ 80% full (i.e. blocked by non-GPU colonists).
    pub fn stranded_gpu(&self) -> f64 {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Gpu && (n.cpu >= 0.8 || n.mem >= 0.8))
            .map(|n| 1.0 - n.gpu)
            .sum()
    }

    /// Fleet cost per hour.
    pub fn hourly_cost(&self, pricing: HeteroPricing) -> f64 {
        let (cpu, gpu) = self.node_counts();
        cpu as f64 * pricing.cpu_node + gpu as f64 * pricing.gpu_node
    }
}

/// Pack items online onto an elastic fleet (nodes open on demand, at most
/// `max_gpu_nodes` accelerators).
pub fn pack_hetero(
    items: &[HeteroDemand],
    policy: HeteroPolicy,
    max_gpu_nodes: usize,
) -> HeteroOutcome {
    let mut nodes: Vec<HeteroNode> = Vec::new();
    let mut assignment = Vec::with_capacity(items.len());
    for &item in items {
        let slot = match policy {
            HeteroPolicy::Oblivious => nodes.iter().position(|n| n.fits(item)),
            HeteroPolicy::AcceleratorAware => {
                if item.needs_gpu() {
                    nodes
                        .iter()
                        .position(|n| n.kind == NodeKind::Gpu && n.fits(item))
                } else {
                    // CPU work never colonises accelerator nodes: CPU
                    // capacity is elastic (a new node is cheaper than a
                    // stranded GPU).
                    nodes
                        .iter()
                        .position(|n| n.kind == NodeKind::Cpu && n.fits(item))
                }
            }
        };
        let idx = match slot {
            Some(i) => Some(i),
            None => {
                // Open a new node of the cheapest adequate flavour.
                let gpu_nodes = nodes.iter().filter(|n| n.kind == NodeKind::Gpu).count();
                if item.needs_gpu() {
                    if gpu_nodes < max_gpu_nodes {
                        nodes.push(HeteroNode::new(NodeKind::Gpu));
                        Some(nodes.len() - 1)
                    } else {
                        None // accelerators exhausted
                    }
                } else {
                    nodes.push(HeteroNode::new(NodeKind::Cpu));
                    Some(nodes.len() - 1)
                }
            }
        };
        if let Some(i) = idx {
            nodes[i].add(item);
        }
        assignment.push(idx);
    }
    HeteroOutcome { nodes, assignment }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu_job() -> HeteroDemand {
        HeteroDemand::new(0.5, 0.5, 0.0)
    }

    fn gpu_job() -> HeteroDemand {
        HeteroDemand::new(0.2, 0.2, 0.25)
    }

    #[test]
    fn gpu_work_only_lands_on_gpu_nodes() {
        let out = pack_hetero(&[gpu_job(), cpu_job()], HeteroPolicy::Oblivious, 4);
        for (i, a) in out.assignment.iter().enumerate() {
            let node = out.nodes[a.unwrap()];
            if out.nodes[a.unwrap()].gpu > 0.0 {
                assert_eq!(node.kind, NodeKind::Gpu, "item {i}");
            }
        }
    }

    #[test]
    fn oblivious_placement_strands_accelerators() {
        // CPU jobs arrive first and (obliviously) colonise the GPU nodes
        // opened by early GPU work; later GPU jobs cannot place.
        let mut items = vec![gpu_job()];
        items.extend(std::iter::repeat_n(cpu_job(), 8));
        items.extend(std::iter::repeat_n(gpu_job(), 3));
        let oblivious = pack_hetero(&items, HeteroPolicy::Oblivious, 1);
        let aware = pack_hetero(&items, HeteroPolicy::AcceleratorAware, 1);
        // The oblivious packer filled the single GPU node's CPU with
        // general work, so at least one GPU job failed.
        assert!(oblivious.unplaced() > 0, "expected stranding");
        assert_eq!(aware.unplaced(), 0, "aware policy must place everything");
    }

    #[test]
    fn aware_policy_is_cheaper_on_mixed_fleets() {
        use rand::Rng;
        let mut rng = taureau_core::rng::det_rng(7);
        let items: Vec<HeteroDemand> = (0..200)
            .map(|_| {
                if rng.gen::<f64>() < 0.2 {
                    HeteroDemand::new(
                        rng.gen_range(0.1..0.3),
                        rng.gen_range(0.1..0.3),
                        rng.gen_range(0.3..0.6),
                    )
                } else {
                    HeteroDemand::new(rng.gen_range(0.2..0.5), rng.gen_range(0.2..0.5), 0.0)
                }
            })
            .collect();
        let oblivious = pack_hetero(&items, HeteroPolicy::Oblivious, 1000);
        let aware = pack_hetero(&items, HeteroPolicy::AcceleratorAware, 1000);
        assert_eq!(aware.unplaced(), 0);
        let pricing = HeteroPricing::default();
        assert!(
            aware.hourly_cost(pricing) <= oblivious.hourly_cost(pricing),
            "aware {} vs oblivious {}",
            aware.hourly_cost(pricing),
            oblivious.hourly_cost(pricing)
        );
        // And it strands less GPU capacity.
        assert!(aware.stranded_gpu() <= oblivious.stranded_gpu());
    }

    #[test]
    fn capacity_respected_in_all_dimensions() {
        use rand::Rng;
        let mut rng = taureau_core::rng::det_rng(8);
        let items: Vec<HeteroDemand> = (0..300)
            .map(|_| {
                HeteroDemand::new(
                    rng.gen_range(0.05..0.6),
                    rng.gen_range(0.05..0.6),
                    if rng.gen::<bool>() {
                        rng.gen_range(0.1..0.6)
                    } else {
                        0.0
                    },
                )
            })
            .collect();
        for policy in [HeteroPolicy::Oblivious, HeteroPolicy::AcceleratorAware] {
            let out = pack_hetero(&items, policy, 1000);
            for n in &out.nodes {
                assert!(n.cpu <= 1.0 + 1e-9 && n.mem <= 1.0 + 1e-9 && n.gpu <= 1.0 + 1e-9);
                if n.kind == NodeKind::Cpu {
                    assert_eq!(n.gpu, 0.0);
                }
            }
        }
    }
}
