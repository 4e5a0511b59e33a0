//! Integration: end-to-end request tracing across the deconstructed
//! stack. One FaaS invocation whose handler synchronously stages state in
//! Jiffy and publishes to Pulsar must produce a single causally-linked
//! span tree covering all three subsystems, and the exporters (Chrome
//! trace-event JSON, flame summary, Prometheus text format) must be
//! well-formed.

use std::sync::Arc;

use taureau::core::trace::SpanRecord;
use taureau::prelude::*;

/// Build the full stack on one virtual clock with one shared tracer, and
/// run `invocations` requests through a handler that touches Jiffy (kv
/// put + get) and Pulsar (publish) on the invoking thread.
fn traced_stack(invocations: u64) -> (Tracer, FaasPlatform, PulsarCluster, Jiffy) {
    let clock: SharedClock = Arc::new(VirtualClock::new());
    let tracer = Tracer::new(clock.clone());

    let faas = FaasPlatform::new(PlatformConfig::deterministic(), clock.clone());
    faas.set_tracer(tracer.clone());
    let pulsar = PulsarCluster::new(PulsarConfig::default(), clock.clone());
    pulsar.set_tracer(tracer.clone());
    pulsar.create_topic("events", 1).unwrap();
    let jiffy = Jiffy::new(JiffyConfig::default(), clock);
    jiffy.set_tracer(tracer.clone());

    let producer = pulsar.producer("events").unwrap();
    let kv = jiffy.create_kv("/trace/state", 1).unwrap();
    faas.register(FunctionSpec::new("pipeline", "tenant", move |ctx| {
        kv.put(b"last", &ctx.payload).map_err(|e| e.to_string())?;
        let staged = kv
            .get(b"last")
            .map_err(|e| e.to_string())?
            .unwrap_or_default();
        producer.send(&staged).map_err(|e| e.to_string())?;
        Ok(staged.to_vec())
    }))
    .unwrap();

    for i in 0..invocations {
        faas.invoke("pipeline", i.to_le_bytes().to_vec()).unwrap();
    }
    (tracer, faas, pulsar, jiffy)
}

/// All spans reachable from `root` by parent links (excluding the root).
fn descendants<'a>(spans: &'a [SpanRecord], root: &SpanRecord) -> Vec<&'a SpanRecord> {
    let mut out = Vec::new();
    let mut frontier = vec![root.span_id];
    while let Some(id) = frontier.pop() {
        for child in spans.iter().filter(|s| s.parent == Some(id)) {
            out.push(child);
            frontier.push(child.span_id);
        }
    }
    out
}

#[test]
fn one_invocation_yields_one_tree_spanning_three_systems() {
    let (tracer, _faas, _pulsar, _jiffy) = traced_stack(3);
    let spans = tracer.spans();
    let roots: Vec<_> = spans.iter().filter(|s| s.name == "faas.invoke").collect();
    assert_eq!(roots.len(), 3);
    for root in roots {
        assert_eq!(root.parent, None, "faas.invoke must root its trace");
        let kids = descendants(&spans, root);
        // Every descendant stays in the root's trace.
        assert!(kids.iter().all(|s| s.trace_id == root.trace_id));
        // The tree covers compute, messaging, and ephemeral state.
        for system in ["taureau-faas", "taureau-pulsar", "taureau-jiffy"] {
            assert!(
                kids.iter().any(|s| s.system == system),
                "no {system} span under faas.invoke"
            );
        }
        // Cross-crate nesting: the bookie append hangs under the publish,
        // which hangs (transitively) under the invocation.
        let publish = kids.iter().find(|s| s.name == "pulsar.publish").unwrap();
        assert!(kids
            .iter()
            .any(|s| s.name == "pulsar.bookie_append" && s.parent == Some(publish.span_id)));
        // Timestamps stay within the root's window.
        assert!(kids
            .iter()
            .all(|s| root.start <= s.start && s.end <= root.end));
    }
    // The three invocations are three distinct traces.
    let mut trace_ids: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "faas.invoke")
        .map(|s| s.trace_id)
        .collect();
    trace_ids.dedup();
    assert_eq!(trace_ids.len(), 3);
}

#[test]
fn chrome_export_is_well_formed_json_with_parent_links() {
    let (tracer, _faas, _pulsar, _jiffy) = traced_stack(1);
    let json = tracer.chrome_trace_json();
    assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(json.ends_with("]}"));
    // Braces and brackets balance (no raw quotes/escapes leak: every
    // span name and attr in this test is ASCII identifier-like).
    let depth = json.chars().fold(0i64, |d, c| match c {
        '{' | '[' => d + 1,
        '}' | ']' => d - 1,
        _ => d,
    });
    assert_eq!(depth, 0, "unbalanced JSON braces");
    // One complete event per recorded span.
    assert_eq!(json.matches("\"ph\":\"X\"").count(), tracer.span_count());
    // Child spans carry their causal link.
    assert!(json.contains("\"parent_span_id\""));
    // Attributes ride along in args.
    assert!(json.contains("\"topic\":\"events\""));
}

#[test]
fn flame_summary_folds_cross_crate_paths() {
    let (tracer, _faas, _pulsar, _jiffy) = traced_stack(2);
    let flame = tracer.flame_summary();
    // The folded path walks from the FaaS root through the handler into
    // the other subsystems.
    assert!(flame
        .lines()
        .any(|l| l.starts_with("faas.invoke;faas.execute;jiffy.kv_put ")));
    assert!(flame
        .lines()
        .any(|l| l.starts_with("faas.invoke;faas.execute;pulsar.publish;pulsar.bookie_append ")));
    // Lines are `path count total_us` with numeric fields.
    for line in flame.lines() {
        let mut parts = line.rsplitn(3, ' ');
        let total: u64 = parts.next().unwrap().parse().unwrap();
        let count: u64 = parts.next().unwrap().parse().unwrap();
        assert!(count >= 1);
        let _ = total;
        assert!(!parts.next().unwrap().is_empty());
    }
}

#[test]
fn prometheus_snapshot_concatenates_across_registries() {
    let (_tracer, faas, pulsar, jiffy) = traced_stack(4);
    let mut out = String::new();
    out.push_str(&faas.metrics().render_prometheus_prefixed("faas_"));
    out.push_str(&pulsar.metrics().render_prometheus_prefixed("pulsar_"));
    out.push_str(&jiffy.metrics().render_prometheus_prefixed("jiffy_"));
    // Every subsystem contributed samples under its own prefix.
    for needle in [
        "faas_invocations_ok 4",
        "pulsar_messages_published 4",
        "jiffy_kv_puts 4",
    ] {
        assert!(out.contains(needle), "missing `{needle}` in:\n{out}");
    }
    // Text-format discipline: every non-comment line is `name[labels] value`.
    for line in out.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (name, value) = line.rsplit_once(' ').expect("sample line");
        assert!(!name.is_empty());
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable sample value in `{line}`"
        );
        let bare = name.split('{').next().unwrap();
        assert!(
            bare.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "invalid metric name `{bare}`"
        );
    }
}

#[test]
fn detached_tracer_stops_recording() {
    let (tracer, faas, _pulsar, _jiffy) = traced_stack(1);
    let faas_spans = |t: &Tracer| {
        t.spans()
            .iter()
            .filter(|s| s.system == "taureau-faas")
            .count()
    };
    let before = faas_spans(&tracer);
    assert!(before > 0);
    // Detach the platform's tracer: further invocations add no FaaS
    // spans. (Pulsar/Jiffy still hold the shared tracer, so their spans —
    // now roots of their own traces — keep appearing.)
    faas.set_tracer(Tracer::disabled());
    faas.invoke("pipeline", vec![9]).unwrap();
    assert_eq!(faas_spans(&tracer), before);
    assert!(tracer
        .spans()
        .iter()
        .any(|s| s.system == "taureau-jiffy" && s.parent.is_none()));
}

/// The three tracer cells are re-settable under live traffic: two workers
/// run the whole request path (publish, `receive_entries_into`,
/// `ack_entries`, invoke, Jiffy get + put + `add_i64`) on shared objects
/// while a third thread flips every subsystem's tracer on and off. An op
/// that held a tracer read guard across a nested read of the same cell
/// would deadlock against a flip (the lock prefers writers); the watchdog
/// turns that into a failure instead of a hang.
#[test]
fn tracers_flip_under_live_traffic_without_stalling_or_losing_messages() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;
    use taureau::core::latency::LatencyModel;

    const FLIPS: usize = 1_000;
    const OPS: u64 = 4_000;

    let clock: SharedClock = WallClock::shared();
    let tracer = Tracer::new(clock.clone());
    let instant = LatencyModel::Constant(Duration::ZERO);
    let faas = FaasPlatform::new(
        PlatformConfig {
            cold_start: instant.clone(),
            warm_start: instant,
            ..PlatformConfig::default()
        },
        clock.clone(),
    );
    faas.register(FunctionSpec::new("echo", "tenant", |ctx| {
        Ok(ctx.payload.to_vec())
    }))
    .unwrap();
    let pulsar = PulsarCluster::new(PulsarConfig::default(), clock.clone());
    pulsar.create_topic("events", 1).unwrap();
    let jiffy = Jiffy::new(JiffyConfig::default(), clock);
    let kv = jiffy.create_kv("/flip/state", 1).unwrap();

    let start = Arc::new(Barrier::new(3));
    let workers_left = Arc::new(AtomicUsize::new(2));
    let (done_tx, done_rx) = mpsc::channel();
    let mut threads = Vec::new();
    for w in 0..2u64 {
        let (faas, kv, start, workers_left, done_tx) = (
            faas.clone(),
            kv.clone(),
            start.clone(),
            workers_left.clone(),
            done_tx.clone(),
        );
        let producer = pulsar.producer("events").unwrap();
        let mut consumer = pulsar
            .subscribe("events", "workers", SubscriptionMode::Shared)
            .unwrap();
        threads.push(std::thread::spawn(move || {
            let (mut sent, mut seen, mut views) = (Vec::new(), Vec::new(), Vec::new());
            let mut take = |consumer: &mut taureau::pulsar::Consumer| {
                let n = consumer.receive_entries_into(64, &mut views).unwrap();
                seen.extend(views.iter().flat_map(|v| v.messages()).map(|m| m.payload()));
                consumer.ack_entries(&views).unwrap();
                n
            };
            start.wait();
            for i in 0..OPS {
                let payload = (w << 32 | i).to_le_bytes();
                producer.send(&payload).unwrap();
                sent.push(payload);
                take(&mut consumer);
                let out = faas.invoke("echo", payload.to_vec()).unwrap();
                assert_eq!(&out.output[..], &payload);
                kv.put(&[b'w', w as u8], &payload).unwrap();
                let got = kv.get(&[b'w', w as u8]).unwrap();
                assert_eq!(got.as_deref(), Some(&payload[..]));
                kv.add_i64(b"ops", 1).unwrap();
            }
            // Everything this worker sent is out or available by now.
            while take(&mut consumer) > 0 {}
            workers_left.fetch_sub(1, Ordering::Release);
            done_tx.send(()).unwrap();
            (sent, seen)
        }));
    }
    let flipper = {
        let (tracer, faas, pulsar, jiffy) =
            (tracer.clone(), faas.clone(), pulsar.clone(), jiffy.clone());
        let start = start.clone();
        std::thread::spawn(move || {
            start.wait();
            // At least FLIPS, and for as long as there is traffic.
            let mut flip = 0;
            while flip < FLIPS || workers_left.load(Ordering::Acquire) > 0 {
                let t = if flip % 2 == 0 {
                    tracer.clone()
                } else {
                    Tracer::disabled()
                };
                pulsar.set_tracer(t.clone());
                faas.set_tracer(t.clone());
                jiffy.set_tracer(t);
                flip += 1;
                std::thread::yield_now();
            }
            done_tx.send(()).unwrap();
        })
    };
    // Watchdog. A deadlocked thread cannot be joined, so on a timeout the
    // test fails here and leaves the threads behind.
    for _ in 0..3 {
        done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("a thread stalled while tracers were being flipped");
    }
    flipper.join().unwrap();
    let (mut sent, mut seen) = (Vec::new(), Vec::new());
    for t in threads {
        let (s, r) = t.join().unwrap();
        sent.extend(s);
        seen.extend(r.iter().map(|p| <[u8; 8]>::try_from(&p[..]).unwrap()));
    }
    // Nothing is redelivered here, so at-least-once is exactly-once.
    sent.sort_unstable();
    seen.sort_unstable();
    assert_eq!(seen, sent, "a message was lost or duplicated");
    assert_eq!(
        kv.get(b"ops").unwrap().as_deref(),
        Some(&(sent.len() as i64).to_le_bytes()[..])
    );
    assert!(!tracer.spans().is_empty(), "no span recorded while on");
}
