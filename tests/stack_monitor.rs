//! Integration: the self-monitoring loop over the full stack. The FaaS
//! platform emits telemetry through a sink, a pump ships it over Pulsar,
//! and the monitor folds it into SLO verdicts and blackbox dumps — all on
//! one virtual clock, fully deterministic.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use taureau::monitor::{AlertState, TELEMETRY_TOPIC};
use taureau::prelude::*;

/// The full stack with telemetry enabled: one shared tracer feeding a
/// sink, a pump onto the cluster's telemetry topics, and a monitor with
/// test-sized windows consuming them.
struct MonitoredStack {
    clock: Arc<VirtualClock>,
    tracer: Tracer,
    faas: FaasPlatform,
    jiffy: Jiffy,
    pump: TelemetryPump,
    monitor: Monitor,
}

fn monitored_stack(policy: &str) -> MonitoredStack {
    let clock = Arc::new(VirtualClock::new());
    let tracer = Tracer::new(clock.clone());
    let sink = TelemetrySink::new(65_536);
    tracer.set_telemetry(sink.clone());

    let faas = FaasPlatform::new(PlatformConfig::deterministic(), clock.clone());
    faas.set_tracer(tracer.clone());
    let jiffy = Jiffy::new(JiffyConfig::default(), clock.clone());
    jiffy.set_tracer(tracer.clone());
    let cluster = PulsarCluster::new(PulsarConfig::default(), clock.clone());
    cluster.set_tracer(tracer.clone());

    let pump = TelemetryPump::new(sink, &cluster).unwrap();
    let cfg = MonitorConfig {
        fast_window: Duration::from_millis(100),
        slow_window: Duration::from_millis(400),
        min_samples: 3,
        ..MonitorConfig::default()
    };
    let monitor = Monitor::with_config(&cluster, clock.clone(), cfg)
        .unwrap()
        .with_policy(SloPolicy::parse(policy).unwrap())
        .with_flight_recorder(&tracer)
        .with_blackbox(&jiffy);
    MonitoredStack {
        clock,
        tracer,
        faas,
        jiffy,
        pump,
        monitor,
    }
}

#[test]
fn slo_breach_over_the_full_stack_fires_once_and_resolves_once() {
    let mut s = monitored_stack("p99 faas.invoke < 10ms");
    // A handler whose latency degrades while the fault flag is set:
    // 1 ms normally, 30 ms during the fault (plus the platform's fixed
    // 2 ms warm dispatch either way).
    let fault = Arc::new(AtomicBool::new(false));
    let handler_fault = fault.clone();
    let handler_clock = s.clock.clone();
    s.faas
        .register(FunctionSpec::new("api", "tenant", move |_ctx| {
            let latency = if handler_fault.load(Ordering::Relaxed) {
                Duration::from_millis(30)
            } else {
                Duration::from_millis(1)
            };
            handler_clock.advance(latency);
            Ok(Vec::new())
        }))
        .unwrap();
    // Pre-warm so the one-off 200 ms cold start cannot masquerade as an
    // SLO breach of its own.
    s.faas.provision("api", 1).unwrap();

    for round in 0..120 {
        fault.store((40..60).contains(&round), Ordering::Relaxed);
        s.faas.invoke("api", Vec::new()).unwrap();
        s.clock.advance(Duration::from_millis(2));
        s.pump.pump();
        s.monitor.poll().unwrap();
    }

    let alerts = s.monitor.alerts();
    assert_eq!(
        alerts.len(),
        2,
        "exactly one fire + one resolve, got {alerts:#?}"
    );
    assert_eq!(alerts[0].state, AlertState::Firing);
    assert_eq!(alerts[1].state, AlertState::Resolved);
    assert!(alerts[0].at < alerts[1].at);
    assert!(s.monitor.active_alerts().is_empty());
    // The firing alert left a blackbox dump with recent history.
    let dumps = s.monitor.dump_ids();
    assert_eq!(dumps.len(), 1);
    assert!(dumps[0].starts_with("alert-1-p99-faas.invoke"), "{dumps:?}");
    assert!(s
        .jiffy
        .exists(format!("/blackbox/{}/summary.txt", dumps[0]).as_str()));
    // Nothing was shed anywhere along the pipeline.
    assert_eq!(s.tracer.dropped_spans(), 0);
    assert_eq!(s.pump.publish_errors(), 0);
    assert_eq!(s.monitor.decode_errors(), 0);
}

#[test]
fn failed_invocation_dumps_its_complete_span_tree() {
    let mut s = monitored_stack("error_rate faas.invoke < 50%");
    // The handler stages state in (traced) Jiffy, then fails — the dump
    // must show the whole causal tree, not just the failing root.
    let kv = s.jiffy.create_kv("/app/state", 1).unwrap();
    s.faas
        .register(FunctionSpec::new("ingest", "tenant", move |ctx| {
            kv.put(b"last", &ctx.payload).map_err(|e| e.to_string())?;
            Err("downstream unavailable".to_string())
        }))
        .unwrap();

    assert!(s.faas.invoke("ingest", vec![1, 2, 3]).is_err());
    s.pump.pump();
    let summary = s.monitor.poll().unwrap();
    assert_eq!(summary.dumps.len(), 1);
    let id = &summary.dumps[0];
    assert!(id.starts_with("invoke-failure-"), "{id}");

    let read = |name: &str| {
        let bytes = s
            .jiffy
            .open_file(format!("/blackbox/{id}/{name}").as_str())
            .unwrap()
            .contents()
            .unwrap();
        String::from_utf8(bytes.to_vec()).unwrap()
    };
    let text = read("summary.txt");
    // Causally complete: the invoke root, the platform's internal phases,
    // and the handler's cross-subsystem Jiffy call are all present.
    for span in [
        "faas.invoke",
        "faas.admission",
        "faas.startup",
        "faas.execute",
        "jiffy.kv_put",
    ] {
        assert!(text.contains(span), "missing {span} in dump:\n{text}");
    }
    assert!(text.contains("outcome=error"));
    assert!(text.contains("function=ingest"));
    let json = read("trace.json");
    assert!(json.contains("\"name\":\"faas.invoke\""));
    assert!(json.contains("\"name\":\"jiffy.kv_put\""));
    assert!(json.contains("\"parent_span_id\""));
    // The same failure never dumps twice.
    assert!(s.monitor.poll().unwrap().dumps.is_empty());
}

#[test]
fn disabled_telemetry_leaves_no_pulsar_footprint() {
    // The stack without any sink/pump/monitor attached: same workload,
    // zero telemetry surface.
    let clock: SharedClock = Arc::new(VirtualClock::new());
    let tracer = Tracer::new(clock.clone());
    let faas = FaasPlatform::new(PlatformConfig::deterministic(), clock.clone());
    faas.set_tracer(tracer.clone());
    let cluster = PulsarCluster::new(PulsarConfig::default(), clock.clone());
    cluster.set_tracer(tracer.clone());

    faas.register(FunctionSpec::new("api", "tenant", |_ctx| Ok(Vec::new())))
        .unwrap();
    for _ in 0..50 {
        faas.invoke("api", Vec::new()).unwrap();
    }

    // No sink attached: the tracer hands out no telemetry handle and the
    // telemetry topic was never created on the cluster.
    assert!(tracer.telemetry().is_none());
    assert!(cluster.partitions(TELEMETRY_TOPIC).is_err());
    // Tracing itself still works — only the monitoring plane is off.
    assert!(tracer.span_count() > 0);
    assert_eq!(tracer.dropped_spans(), 0);
}
