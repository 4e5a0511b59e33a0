//! FaaS workers mapped onto fabric nodes.
//!
//! Each worker node hosts a full [`FaasPlatform`] (its own warm-container
//! pool and billing meter). The stack routes invocations to live workers
//! round-robin and fails over to the next worker when one is dead or
//! unreachable — the paper's observation that function invocations are
//! stateless makes worker failover trivial compared to broker failover:
//! there is no lease to move, only warm capacity to lose (the replacement
//! worker pays cold starts).
//!
//! The envelope's [`SpanContext`] rides into
//! [`FaasPlatform::invoke_traced`], so an invocation triggered by a
//! message that survived a broker failover still joins the message's
//! original trace.

use std::collections::HashMap;

use taureau_core::id::NodeId;
use taureau_faas::{FaasPlatform, FunctionSpec, PlatformConfig};

use crate::error::{ClusterError, Result};
use crate::fabric::{ClusterFabric, NodeRole};
use crate::transport::Envelope;
use crate::wire;

/// The clustered FaaS tier.
pub struct ClusterFaas {
    workers: HashMap<NodeId, FaasPlatform>,
    order: Vec<NodeId>,
}

impl ClusterFaas {
    /// Deploy `n` worker nodes, each with its own platform on the fabric
    /// clock and tracer.
    pub fn new(fabric: &mut ClusterFabric, n: usize, cfg: PlatformConfig) -> Self {
        let clock = fabric.clock();
        let tracer = fabric.tracer().clone();
        let mut workers = HashMap::new();
        let mut order = Vec::new();
        for _ in 0..n {
            let node = fabric.add_node(NodeRole::Worker);
            let p = FaasPlatform::new(cfg.clone(), clock.clone());
            p.set_tracer(tracer.clone());
            workers.insert(node, p);
            order.push(node);
        }
        Self { workers, order }
    }

    /// The platform running on a worker node.
    pub fn platform(&self, node: NodeId) -> Option<&FaasPlatform> {
        self.workers.get(&node)
    }

    /// Register a function on every worker (fleet-wide deployment).
    pub fn register(&self, spec: FunctionSpec) -> Result<()> {
        for p in self.workers.values() {
            p.register(spec.clone())
                .map_err(|e| ClusterError::Remote(e.to_string()))?;
        }
        Ok(())
    }

    /// Live workers after `preferred`, wrapping — the failover order the
    /// stack walks when invoking.
    pub fn route(&self, fabric: &ClusterFabric, preferred: usize) -> Vec<NodeId> {
        let n = self.order.len();
        (0..n)
            .map(|i| self.order[(preferred + i) % n])
            .filter(|&w| fabric.is_alive(w))
            .collect()
    }

    /// Handle one `invoke` envelope on a worker node, responding with the
    /// handler output (or the platform error).
    pub fn handle(&mut self, fabric: &ClusterFabric, env: &Envelope) {
        let node = env.to;
        let Some(platform) = self.workers.get(&node) else {
            return;
        };
        if env.kind != "invoke" {
            return;
        }
        let (body, _) = wire::reply(|out| {
            let frames = wire::dec_n(&env.body, 2)?;
            let function = wire::as_str(&frames[0])?;
            let res = platform
                .invoke_traced(function, frames[1].clone(), env.ctx)
                .map_err(|e| ClusterError::Remote(e.to_string()))?;
            wire::put_frame(out, &res.output);
            Ok(())
        });
        fabric.send(node, env.from, env.req, "resp", body, env.ctx);
    }
}
