//! Integration: causal context propagation across the deconstructed
//! stack, and the taureau-prof analyzers over the resulting trace. One
//! published message must yield ONE trace that follows
//! publish → dispatch → invoke across crates — every hop sharing the
//! publish span's trace id with correct parent links — and the trace
//! graph / critical-path / contention reports must be computable from it.

use std::sync::Arc;

use taureau::core::trace::SpanRecord;
use taureau::prelude::*;
use taureau::prof::render;

struct Stack {
    tracer: Tracer,
    pulsar: PulsarCluster,
    faas: FaasPlatform,
}

/// Pulsar + FaaS on one wall clock sharing one tracer, with an echo
/// function registered. Wall time (not virtual) so spans have real,
/// nonzero durations for the analyzers to attribute.
fn traced_stack() -> Stack {
    let clock: SharedClock = WallClock::shared();
    let tracer = Tracer::new(clock.clone());
    let pulsar = PulsarCluster::new(PulsarConfig::default(), clock.clone());
    pulsar.set_tracer(tracer.clone());
    let faas = FaasPlatform::new(PlatformConfig::deterministic(), clock);
    faas.set_tracer(tracer.clone());
    faas.register(FunctionSpec::new("handle", "tenant", |ctx| {
        Ok(ctx.payload.to_vec())
    }))
    .unwrap();
    pulsar.create_topic("jobs", 1).unwrap();
    Stack {
        tracer,
        pulsar,
        faas,
    }
}

fn by_name<'a>(spans: &'a [SpanRecord], name: &str) -> Vec<&'a SpanRecord> {
    spans.iter().filter(|s| s.name == name).collect()
}

#[test]
fn one_trace_follows_publish_dispatch_invoke_across_crates() {
    let stack = traced_stack();
    let producer = stack.pulsar.producer("jobs").unwrap();
    let mut consumer = stack
        .pulsar
        .subscribe("jobs", "workers", SubscriptionMode::Exclusive)
        .unwrap();

    producer.send(b"job-1").unwrap();
    let msg = consumer.receive().unwrap().unwrap();
    let ctx = msg.ctx.expect("traced broker must stamp message context");
    // The consumer-side function invocation adopts the message context.
    stack
        .faas
        .invoke_traced("handle", msg.payload.clone(), Some(ctx))
        .unwrap();

    let spans = stack.tracer.spans();
    let publish = by_name(&spans, "pulsar.publish")[0];
    let dispatch = by_name(&spans, "pulsar.dispatch_entry")[0];
    let invoke = by_name(&spans, "faas.invoke")[0];

    // One trace end to end, rooted at the publish.
    assert_eq!(publish.parent, None);
    assert_eq!(dispatch.trace_id, publish.trace_id);
    assert_eq!(invoke.trace_id, publish.trace_id);
    // Correct hop-by-hop parent links: publish → dispatch → invoke.
    assert_eq!(dispatch.parent, Some(publish.span_id));
    assert_eq!(invoke.parent, Some(dispatch.span_id));
    // The invocation's nested platform spans ride in the same trace, so
    // the trace really does cross the crate boundary with structure.
    let execute = by_name(&spans, "faas.execute")[0];
    assert_eq!(execute.trace_id, publish.trace_id);
    assert_eq!(execute.parent, Some(invoke.span_id));

    // The analyzers consume the trace: the flat profile sees every hop...
    let trace_id = publish.trace_id;
    let graph = TraceGraph::build(spans.clone());
    let flat = graph.self_time_by_name();
    for hop in ["pulsar.publish", "pulsar.dispatch_entry", "faas.invoke"] {
        assert!(flat.iter().any(|(n, _)| n == hop), "{hop} missing");
    }
    // ...the critical path attributes the root's full latency...
    let cp = CriticalPath::compute(&graph, trace_id).unwrap();
    let attributed: std::time::Duration = cp.segments.iter().map(|s| s.duration()).sum();
    assert_eq!(attributed, cp.total);
    assert!(cp.top_name(&graph).is_some());
    // ...and both renderers produce non-degenerate output.
    let report = render::render_critical_path(&graph, &cp);
    assert!(report.contains("critical path of trace"));
    let tree = render::render_tree(&graph, trace_id, Some(&cp));
    assert!(tree.contains("pulsar.publish"));
    let json = render::chrome_trace(&graph);
    assert!(json.starts_with('[') && json.contains("pulsar.dispatch_entry"));
}

#[test]
fn batched_publish_shares_one_dispatch_entry_span() {
    let stack = traced_stack();
    let producer = stack.pulsar.producer("jobs").unwrap();
    let mut consumer = stack
        .pulsar
        .subscribe("jobs", "workers", SubscriptionMode::Exclusive)
        .unwrap();
    producer.send_batch(&[b"a".as_slice(), b"b", b"c"]).unwrap();
    let got = consumer.receive_batch(10).unwrap();
    assert_eq!(got.len(), 3);
    let spans = stack.tracer.spans();
    let publish = by_name(&spans, "pulsar.publish_batch")[0];
    // All three messages decode out of ONE ledger entry, and share its
    // one dispatch span in the batch's publish trace.
    let entry = by_name(&spans, "pulsar.dispatch_entry");
    assert_eq!(entry.len(), 1, "one entry, one dispatch span");
    assert_eq!(entry[0].trace_id, publish.trace_id);
    assert_eq!(entry[0].parent, Some(publish.span_id));
    for m in &got {
        assert_eq!(m.ctx.unwrap().span_id, entry[0].span_id);
    }
}

#[test]
fn contention_profiler_reports_through_the_stack() {
    let stack = traced_stack();
    let prof = taureau::core::sync::ContentionProfiler::new();
    let site = stack.pulsar.enable_contention_profiling(&prof);
    let producer = stack.pulsar.producer("jobs").unwrap();
    // Hammer one topic from several threads so acquisitions
    // actually contend.
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..100 {
                    producer.send(b"x").unwrap();
                }
            });
        }
    });
    let snap = site.snapshot();
    assert!(snap.acquisitions >= 400);
    // Ranking is by observed wait time, so the topic lock's position
    // depends on how much the threads actually overlapped; assert presence,
    // not rank.
    let report = ContentionReport::new(prof.snapshots());
    assert!(report.sites().iter().any(|s| s.name == "pulsar.topics"));
    let text = report.render();
    assert!(text.contains("pulsar.topics"), "{text}");
    drop(Arc::clone(&site));
}
