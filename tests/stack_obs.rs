//! Integration: the cluster observability plane. A cross-node trace
//! (client → broker → failover → new owner → worker) reassembles from
//! collector captures with zero orphan spans; telemetry loss accounting
//! reconciles exactly under injected drops; a broker failover dumps the
//! reconstructed incident timeline and collector trace to the Jiffy
//! blackbox; and the cluster health report carries per-node labels.

use std::time::Duration;

use taureau::cluster::obs::{IncidentKind, IncidentSpec};
use taureau::cluster::{ClusterStack, ClusterStackConfig, LinkFaults};
use taureau::prelude::*;

fn obs_stack() -> ClusterStack {
    ClusterStack::new(ClusterStackConfig {
        observability: true,
        ..Default::default()
    })
}

#[test]
fn cross_node_trace_reassembles_from_collector_with_zero_orphans() {
    let mut s = obs_stack();
    s.create_topic("orders", 1).unwrap();
    s.register_function(FunctionSpec::new("handle", "tenant", |ctx| {
        Ok(ctx.payload.to_vec())
    }))
    .unwrap();

    let tracer = s.fabric().tracer().clone();
    let root_ctx = {
        let mut root = tracer.span("stack-obs-test", "e2e.request");
        root.attr("test", "collector-reassembly");
        root.context().expect("tracer enabled")
    };

    // Publish under the root trace, let the owner's agent flush the
    // publish-side spans, then kill the owner: the consume and invoke
    // hops happen on different nodes than the one that stored the entry.
    s.publish("orders", b"order-1", Some(root_ctx)).unwrap();
    s.run_for(Duration::from_millis(20));
    let owner = s.pulsar().owner("orders").unwrap();
    s.kill(owner);
    s.run_for(Duration::from_millis(150));

    let msgs = s.consume("orders", "s", 8, None).unwrap();
    assert_eq!(msgs.len(), 1);
    let m = &msgs[0];
    let msg_ctx = m.ctx.expect("traced publish carries ctx through failover");
    assert_eq!(msg_ctx.trace_id, root_ctx.trace_id);
    s.invoke("handle", &m.payload, m.ctx).unwrap();

    // Ship everything that is still buffered (the dead owner's agent is
    // gone, but its spans were flushed before the kill).
    assert!(
        s.drain_telemetry(Duration::from_secs(2)),
        "telemetry must sync on a healthy network"
    );

    // Reassemble the trace purely from what crossed the wire to the
    // collector — not from the in-process tracer ring.
    let records = s.obs().unwrap().collector().span_records();
    let graph = TraceGraph::build(records);
    let in_trace: Vec<_> = graph
        .spans()
        .iter()
        .filter(|sp| sp.trace_id == root_ctx.trace_id)
        .collect();
    let systems: std::collections::BTreeSet<&str> = in_trace.iter().map(|sp| sp.system).collect();
    assert!(
        systems.contains("taureau-pulsar") && systems.contains("taureau-faas"),
        "collector capture must cross pulsar and faas: {systems:?}"
    );
    assert!(
        in_trace.len() >= 4,
        "expected publish + cluster + dispatch + invoke spans at the collector, got {}",
        in_trace.len()
    );
    assert_eq!(
        graph.orphans(),
        Vec::<usize>::new(),
        "every captured span's parent must also have been captured"
    );
}

/// With the plane deployed, its sink is the fabric tracer's only
/// recorder: across warm requests the tracer's ring takes no span, and the
/// collector alone holds a trace that crossed the client, a broker and a
/// worker.
#[test]
fn the_plane_is_the_only_span_recorder() {
    let mut s = obs_stack();
    s.create_topic("orders", 1).unwrap();
    s.register_function(FunctionSpec::new("handle", "tenant", |ctx| {
        Ok(ctx.payload.to_vec())
    }))
    .unwrap();
    let tracer = s.fabric().tracer().clone();
    let root = tracer.span("stack-obs-test", "e2e.request").context();
    let root = root.expect("tracer enabled");
    for i in 0..20u64 {
        s.publish("orders", &i.to_le_bytes(), Some(root)).unwrap();
        let m = s.consume("orders", "s", 1, Some(root)).unwrap().remove(0);
        s.invoke("handle", &m.payload, m.ctx).unwrap();
        s.ack("orders", "s", m.id, Some(root)).unwrap();
    }
    assert_eq!((tracer.span_count(), tracer.dropped_spans()), (0, 0));

    assert!(s.drain_telemetry(Duration::from_secs(2)));
    let graph = TraceGraph::build(s.obs().unwrap().collector().span_records());
    let in_trace: Vec<_> = graph
        .spans()
        .iter()
        .filter(|sp| sp.trace_id == root.trace_id)
        .collect();
    let names: std::collections::BTreeSet<&str> = in_trace.iter().map(|sp| sp.name).collect();
    for name in [
        "e2e.request",
        "cluster.pub",
        "cluster.recv",
        "cluster.ack",
        "faas.invoke",
    ] {
        assert!(names.contains(name), "{name} missing from {names:?}");
    }
    // The broker's spans name their node (as text, off the wire).
    let owner = s.pulsar().owner("orders").unwrap().raw().to_string();
    assert!(in_trace
        .iter()
        .any(|sp| sp.attr("node").map(ToString::to_string) == Some(owner.clone())));
    assert_eq!(graph.orphans(), Vec::<usize>::new());
}

#[test]
fn loss_accounting_is_exact_under_injected_drops() {
    let mut s = obs_stack();
    let collector = s.obs().unwrap().collector_node();
    let client = s.client_node();
    // A third of telemetry batches from the client vanish in flight.
    let lossy = LinkFaults {
        latency: Duration::from_micros(500),
        jitter: Duration::ZERO,
        drop_p: 0.34,
        dup_p: 0.1,
    };
    s.fabric().net().set_link_faults(client, collector, lossy);

    s.create_topic("t", 1).unwrap();
    for i in 0..40u64 {
        s.publish("t", &i.to_le_bytes(), None).unwrap();
    }
    s.run_for(Duration::from_millis(100));

    // Heal the link; sync batches then carry the final cumulative counts
    // through, making the books balance exactly.
    s.fabric()
        .net()
        .set_link_faults(client, collector, LinkFaults::default());
    assert!(
        s.drain_telemetry(Duration::from_secs(5)),
        "agents must sync once the link heals"
    );

    let loss = s.obs().unwrap().loss_accounting();
    assert!(loss.sent > 0, "{loss:?}");
    assert!(
        loss.dropped > 0,
        "a 34% drop rate must lose at least one batch: {loss:?}"
    );
    assert!(loss.exact(), "books must balance: {loss:?}");
    assert_eq!(
        loss.dropped,
        loss.sent - loss.received,
        "every sent event is received or detected-dropped: {loss:?}"
    );
}

#[test]
fn failover_dumps_incident_blackbox_to_jiffy() {
    let mut s = obs_stack();
    s.create_topic("stream", 1).unwrap();
    for i in 0..10u64 {
        s.publish("stream", &i.to_le_bytes(), None).unwrap();
    }
    let owner = s.pulsar().owner("stream").unwrap();
    s.kill(owner);
    // The next publish rides through detection + failover; the
    // maintenance round that moves the lease also fires the dump.
    s.publish("stream", b"after", None).unwrap();

    assert_eq!(s.obs().unwrap().dump_errors(), 0);
    let jiffy = s.jiffy().jiffy();
    let incidents = jiffy.list("/blackbox").expect("blackbox dir exists");
    assert!(
        incidents.iter().any(|e| e.contains("incident-1")),
        "failover must dump an incident: {incidents:?}"
    );
    let timeline = jiffy
        .open_file("/blackbox/incident-1/timeline.txt")
        .unwrap();
    let text = String::from_utf8(timeline.read(0, 1 << 20).unwrap().to_vec()).unwrap();
    assert!(text.contains("broker node"), "{text}");
    assert!(text.contains("telemetry:"), "{text}");
    let trace = jiffy.open_file("/blackbox/incident-1/trace.json").unwrap();
    let json = String::from_utf8(trace.read(0, 1 << 22).unwrap().to_vec()).unwrap();
    assert!(json.contains("\"trace_id\""), "trace dump must hold spans");
}

#[test]
fn incident_timeline_attribution_explains_most_of_the_outage() {
    let mut s = obs_stack();
    s.create_topic("jobs", 1).unwrap();
    for i in 0..10u64 {
        s.publish("jobs", &i.to_le_bytes(), None).unwrap();
    }
    let owner = s.pulsar().owner("jobs").unwrap();
    let fault_at = s.now();
    s.kill(owner);
    s.publish("jobs", b"recovery-probe", None).unwrap();
    let msgs = s.consume("jobs", "s", 16, None).unwrap();
    assert!(!msgs.is_empty());
    let recovered_at = s.now();

    assert!(s.drain_telemetry(Duration::from_secs(2)));
    let spec = IncidentSpec {
        id: "kill-1".into(),
        node: owner,
        kind: IncidentKind::Broker,
        fault_at,
        recovered_at,
    };
    let timeline = s.obs().unwrap().timeline(&[spec]);
    let inc = &timeline.incidents[0];
    let mttd = inc.mttd().expect("membership must report the dead owner");
    assert!(
        mttd <= Duration::from_millis(150),
        "detection took {mttd:?} with a 100ms failure timeout"
    );
    assert!(inc.released_at.is_some(), "lease move must be captured");
    assert!(inc.explained() <= inc.wall());
    assert!(
        inc.explained_fraction() >= 0.9,
        "attribution must explain ≥90% of the window: {:.3} of {:?}\n{}",
        inc.explained_fraction(),
        inc.wall(),
        timeline.render_text()
    );
}

#[test]
fn health_report_merges_collector_state_with_node_labels() {
    let mut s = obs_stack();
    s.create_topic("t", 1).unwrap();
    for i in 0..20u64 {
        s.publish("t", &i.to_le_bytes(), None).unwrap();
    }
    assert!(s.drain_telemetry(Duration::from_secs(2)));

    let report = s.health_report().expect("plane deployed");
    let remote_op = report
        .ops
        .iter()
        .find(|op| op.node.is_some() && op.count > 0)
        .expect("collector must hold per-node op rows");
    let prom = report.render_prometheus();
    assert!(
        prom.contains(&format!("node=\"{}\"", remote_op.node.unwrap())),
        "prometheus rendering must label remote ops with their node"
    );
    let counters: std::collections::HashMap<_, _> = report
        .counters
        .iter()
        .map(|(k, v)| (k.as_str(), *v))
        .collect();
    assert!(counters["cluster.telemetry_events_received"] > 0);
    assert_eq!(counters["cluster.telemetry_dropped_detected"], 0);
    // No grey flags on a healthy, uniform network.
    assert!(
        report.active_alerts.is_empty(),
        "healthy run must not flag grey nodes: {:?}",
        report.active_alerts
    );
}
