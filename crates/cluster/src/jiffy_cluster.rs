//! Jiffy memory nodes mapped onto the fabric: elastic join/leave with
//! controller-driven block migration.
//!
//! The Jiffy controller (PR-scope: `taureau-jiffy`) already knows how to
//! grow the pool ([`Jiffy::add_memory_node`]) and gracefully drain a node
//! ([`Jiffy::decommission_memory_node`] — every application block it
//! hosts is copied to survivors before it retires). This module binds
//! those operations to fabric nodes and models the evacuation traffic:
//! one transfer envelope per migrated block from the leaving node to a
//! surviving peer, so the network sees (and can delay, drop-and-we-don't-
//! care — the copy already happened synchronously in the controller) the
//! bytes a real migration would move.

use std::collections::HashMap;

use taureau_core::id::NodeId;
use taureau_jiffy::{Jiffy, JiffyConfig, MigrationReport};

use crate::error::{ClusterError, Result};
use crate::fabric::{ClusterFabric, NodeRole};
use crate::transport::Envelope;
use crate::wire;

/// The clustered Jiffy tier: one shared controller, fabric-visible
/// memory nodes.
pub struct JiffyFabric {
    jiffy: Jiffy,
    /// fabric node → pool node.
    nodes: HashMap<NodeId, NodeId>,
    order: Vec<NodeId>,
    /// Transfer envelopes received per node (evacuation traffic sink).
    received_blocks: HashMap<NodeId, u64>,
}

impl JiffyFabric {
    /// Deploy a Jiffy controller whose initial pool nodes are fabric
    /// nodes. `cfg.memory_nodes` fabric nodes are created.
    pub(crate) fn new(fabric: &mut ClusterFabric, cfg: JiffyConfig) -> Self {
        let n = cfg.memory_nodes;
        let jiffy = Jiffy::new(cfg, fabric.clock());
        jiffy.set_tracer(fabric.tracer().clone());
        let mut nodes = HashMap::new();
        let mut order = Vec::new();
        for i in 0..n {
            let node = fabric.add_node(NodeRole::Memory);
            nodes.insert(node, NodeId(i as u64));
            order.push(node);
        }
        Self {
            jiffy,
            nodes,
            order,
            received_blocks: HashMap::new(),
        }
    }

    /// The shared controller.
    pub fn jiffy(&self) -> &Jiffy {
        &self.jiffy
    }

    /// Memory-node fabric nodes currently in the pool, in join order.
    pub fn memory_nodes(&self) -> &[NodeId] {
        &self.order
    }

    /// A fabric node joins the pool: new capacity serves immediately.
    pub(crate) fn join(&mut self, fabric: &mut ClusterFabric) -> NodeId {
        let node = fabric.add_node(NodeRole::Memory);
        let pool = self.jiffy.add_memory_node();
        self.nodes.insert(node, pool);
        self.order.push(node);
        node
    }

    /// A fabric node leaves gracefully: drain + migrate via the
    /// controller, emit one transfer envelope per moved block to a
    /// surviving peer, then kill the node. Returns what moved.
    pub(crate) fn leave(
        &mut self,
        fabric: &mut ClusterFabric,
        node: NodeId,
    ) -> Result<MigrationReport> {
        let &pool = self
            .nodes
            .get(&node)
            .ok_or_else(|| ClusterError::Remote(format!("{node} is not a memory node")))?;
        let report = self
            .jiffy
            .decommission_memory_node(pool)
            .map_err(|e| ClusterError::Remote(e.to_string()))?;
        self.order.retain(|&n| n != node);
        self.nodes.remove(&node);
        // Model the evacuation on the wire: moved blocks stream to the
        // surviving peers round-robin. The controller already copied the
        // data; these envelopes are the traffic shape, so link faults and
        // the experiment's latency accounting see the migration.
        let survivors: Vec<NodeId> = self
            .order
            .iter()
            .copied()
            .filter(|&n| fabric.is_alive(n))
            .collect();
        if !survivors.is_empty() {
            let block = self.jiffy.config().block_size.as_u64();
            for i in 0..report.blocks_moved {
                let to = survivors[(i % survivors.len() as u64) as usize];
                fabric.send(
                    node,
                    to,
                    0,
                    "xfer",
                    wire::enc(&[wire::u64_frame(block)]),
                    None,
                );
            }
        }
        fabric.kill(node);
        Ok(report)
    }

    /// Handle a transfer envelope on a surviving node (count it).
    pub(crate) fn handle(&mut self, _fabric: &ClusterFabric, env: &Envelope) {
        if env.kind == "xfer" {
            *self.received_blocks.entry(env.to).or_insert(0) += 1;
        }
    }

    /// Transfer envelopes each node has absorbed.
    pub fn received_blocks(&self, node: NodeId) -> u64 {
        self.received_blocks.get(&node).copied().unwrap_or(0)
    }
}
