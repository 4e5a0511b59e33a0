//! The experiment harness: regenerates every table in `EXPERIMENTS.md`.
//!
//! ```text
//! cargo run -p taureau-bench --release --bin experiments -- all
//! cargo run -p taureau-bench --release --bin experiments -- e1 e4
//! cargo run -p taureau-bench --release --bin experiments -- e22 \
//!     --trace-out trace.json --metrics-out metrics.prom
//! ```
//!
//! `--trace-out PATH` dumps E22's Chrome trace-event JSON (open it at
//! <https://ui.perfetto.dev>); `--metrics-out PATH` dumps a Prometheus
//! text-format snapshot of every subsystem's metrics registry. Either
//! flag implies running E22.
//!
//! Each experiment is keyed to a claim in the paper; see `DESIGN.md` §5
//! for the claim → experiment mapping. Everything printed is seeded and
//! deterministic: the output of `e1` … `e24` is `crates/bench/golden.txt`
//! byte for byte, which `tests/golden.rs` diffs against. E3 and E23 each
//! time one measurement on the wall clock, but only to `assert!` a claim's
//! threshold; they print the verdict, not the figure. No experiment
//! writes a file unless one of the two flags above asks it to.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use taureau_baas::BlobStore;
use taureau_bench::{fmt_dur, fmt_usd, Table};
use taureau_cluster::{
    ClusterStack, ClusterStackConfig, IncidentKind, IncidentSpec, LinkFaults, OutagePhase,
};
use taureau_core::bytesize::ByteSize;
use taureau_core::clock::{SharedClock, VirtualClock, WallClock};
use taureau_core::cost::VmPricing;
use taureau_core::latency::LatencyModel;
use taureau_core::metrics::MetricsRegistry;
use taureau_core::rng::{det_rng, Zipf};
use taureau_core::trace::{TelemetrySink, Tracer};
use taureau_dag::{Dag, DagBuilder, DagError, DagExecutor, ExecutorConfig, RetryPolicy};
use taureau_faas::{FaasPlatform, FunctionSpec, PlatformConfig};
use taureau_jiffy::baseline::{GlobalStore, PersistentStore};
use taureau_jiffy::{Jiffy, JiffyConfig};
use taureau_monitor::{Monitor, MonitorConfig, SloPolicy, TelemetryPump};
use taureau_orchestration::statemachine::{State, StateMachine, Transition};
use taureau_orchestration::{frame, Composition, Orchestrator};
use taureau_pulsar::{
    FunctionConfig, FunctionRuntime, PulsarCluster, PulsarConfig, SubscriptionMode,
};
use taureau_sim::scheduler::{pack, Demand, PackingPolicy};
use taureau_sim::serverless::{simulate_serverless, ServerlessConfig};
use taureau_sim::vmfleet::{simulate_vm_fleet, VmFleetConfig, VmScalingPolicy};
use taureau_sim::workload::{typical_duration_model, WorkloadSpec};
use taureau_sketches::CountMinSketch;

const KNOWN: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e15", "e16", "e17",
    "e18", "e19", "e20", "e21", "e22", "e23", "e24", "e28", "e29",
];

fn main() {
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut args: Vec<String> = Vec::new();
    let mut raw = std::env::args().skip(1);
    while let Some(a) = raw.next() {
        if let Some(v) = a.strip_prefix("--trace-out=") {
            trace_out = Some(v.to_string());
        } else if a == "--trace-out" {
            trace_out = Some(raw.next().unwrap_or_else(|| {
                eprintln!("--trace-out needs a path");
                std::process::exit(2);
            }));
        } else if let Some(v) = a.strip_prefix("--metrics-out=") {
            metrics_out = Some(v.to_string());
        } else if a == "--metrics-out" {
            metrics_out = Some(raw.next().unwrap_or_else(|| {
                eprintln!("--metrics-out needs a path");
                std::process::exit(2);
            }));
        } else {
            args.push(a);
        }
    }
    let unknown: Vec<&String> = args
        .iter()
        .filter(|a| *a != "all" && !KNOWN.contains(&a.as_str()))
        .collect();
    if !unknown.is_empty() {
        eprintln!(
            "unknown experiment id(s): {} — known: {} or `all`",
            unknown
                .iter()
                .map(|s| s.as_str())
                .collect::<Vec<_>>()
                .join(", "),
            KNOWN.join(", ")
        );
        std::process::exit(2);
    }
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |id: &str| all || args.iter().any(|a| a == id);

    if want("e1") {
        e1_cost_vs_load_shape();
    }
    if want("e2") {
        e2_cold_starts();
    }
    if want("e3") {
        e3_state_exchange();
    }
    if want("e4") {
        e4_isolation();
    }
    if want("e5") {
        e5_multiplexing();
    }
    if want("e6") {
        e6_countmin_function();
    }
    if want("e7") {
        e7_orchestration_billing();
    }
    if want("e8") {
        e8_ml_stragglers();
    }
    if want("e9") {
        e9_matmul();
    }
    if want("e10") {
        e10_graph();
    }
    if want("e11") {
        e11_autoscaling();
    }
    if want("e12") {
        e12_binpacking();
    }
    if want("e15") {
        e15_transactional_retry_safety();
    }
    if want("e16") {
        e16_tiered_storage();
    }
    if want("e17") {
        e17_oram_overhead();
    }
    if want("e18") {
        e18_hetero_packing();
    }
    if want("e19") {
        e19_sand_sandboxing();
    }
    if want("e20") {
        e20_formal_semantics();
    }
    if want("e21") {
        e21_edge_placement();
    }
    // The two dump flags imply the traced experiment.
    if want("e22") || trace_out.is_some() || metrics_out.is_some() {
        e22_traced_pipeline(trace_out.as_deref(), metrics_out.as_deref());
    }
    if want("e23") {
        e23_dag_engine();
    }
    if want("e24") {
        e24_self_monitoring();
    }
    if want("e28") {
        e28_cluster_failover();
    }
    if want("e29") {
        e29_cluster_observability();
    }
}

/// E23 — the "Look Forward" composition layer: DAG-structured workflows
/// (Carver et al.) scheduled frontier-parallel against the FaaS pool,
/// with Zhang et al.-style retry + checkpoint fault tolerance. Four
/// workloads: a fan-out-8 makespan comparison on the wall clock (only its
/// verdict is printed), a
/// MapReduce wordcount under injected failures, the ETL chain run on both
/// the state-machine and DAG engines, and a tiled matmul whose
/// intermediates spill through Jiffy.
fn e23_dag_engine() {
    banner(
        "E23",
        "DAG engine: parallel frontiers ≥2x faster than sequential chains; retry/checkpoint recovery reproduces the failure-free output hash",
    );

    // -- (a) fan-out-8 makespan, wall clock ------------------------------
    // Start latencies are zeroed so the comparison isolates scheduling:
    // 10 stages of 25 ms of compute, shaped prep → 8 workers → gather.
    // The makespans are wall time, so the table states the DAG's exact
    // shape and the line below only the verdict on the measured ratio.
    let platform = FaasPlatform::new(
        PlatformConfig {
            cold_start: LatencyModel::Constant(Duration::ZERO),
            warm_start: LatencyModel::Constant(Duration::ZERO),
            ..PlatformConfig::default()
        },
        Arc::new(WallClock::new()),
    );
    let work = Duration::from_millis(25);
    platform
        .register(FunctionSpec::new("stage", "wf", move |ctx| {
            ctx.burn(work);
            Ok(ctx.payload.to_vec())
        }))
        .expect("register");
    platform
        .register(FunctionSpec::new("gather", "wf", move |ctx| {
            ctx.burn(work);
            let parts = frame::unpack(&ctx.payload).ok_or("malformed frame")?;
            Ok(parts.concat())
        }))
        .expect("register");
    let workers: Vec<String> = (0..8).map(|i| format!("w{i}")).collect();
    let mut b = DagBuilder::new().node("prep", "stage", &[]);
    for w in &workers {
        b = b.node(w.as_str(), "stage", &["prep"]);
    }
    let worker_refs: Vec<&str> = workers.iter().map(String::as_str).collect();
    let fan_out = b
        .node("gather", "gather", &worker_refs)
        .build()
        .expect("dag");
    let run_at = |parallelism: usize| {
        DagExecutor::new(&platform)
            .with_config(ExecutorConfig {
                max_parallelism: parallelism,
                retry: RetryPolicy::none(),
                checkpoint: false,
                ..ExecutorConfig::default()
            })
            .run(&fan_out, &format!("fan-p{parallelism}"), b"payload")
            .expect("fan-out run")
    };
    let sequential = run_at(1);
    let parallel = run_at(8);
    assert_eq!(sequential.output, parallel.output);
    let speedup = sequential.makespan.as_secs_f64() / parallel.makespan.as_secs_f64();
    let (stages, critical) = (fan_out.len(), fan_out.critical_path().len());
    let mut t = Table::new(["stages", "critical path", "ideal speedup"]);
    t.row([
        stages.to_string(),
        format!("{critical} stages"),
        format!("{:.2}x", stages as f64 / critical as f64),
    ]);
    t.print();
    assert!(
        speedup >= 2.0,
        "fan-out-8: parallel DAG only {speedup:.2}x faster than sequential chain (claim: ≥2x)"
    );
    println!("fan-out-8: parallel DAG ≥2x faster than sequential chain: yes");

    // -- (b) MapReduce wordcount under injected failures -----------------
    // Deterministic virtual clock; one executor with Jiffy checkpoints and
    // Pulsar completion events. Three scenarios must agree on the output
    // hash: failure-free, transient mapper fault (in-run retry), and a
    // permanent reducer fault (crash, then resume from the checkpoint).
    let clock = VirtualClock::shared();
    let platform = FaasPlatform::new(PlatformConfig::deterministic(), clock.clone());
    let jiffy = Jiffy::new(JiffyConfig::default(), clock.clone());
    let pulsar = PulsarCluster::new(PulsarConfig::default(), clock.clone());
    pulsar.create_topic("dag/completions", 2).expect("topic");
    let mut audit = pulsar
        .subscribe("dag/completions", "audit", SubscriptionMode::Exclusive)
        .expect("subscribe");

    const MAPPERS: usize = 8;
    platform
        .register(FunctionSpec::new("split", "wc", |ctx| {
            let text = String::from_utf8(ctx.payload.to_vec()).map_err(|e| e.to_string())?;
            let words: Vec<&str> = text.split_whitespace().collect();
            let chunks: Vec<Vec<u8>> = words
                .chunks(words.len().div_ceil(MAPPERS).max(1))
                .map(|c| c.join(" ").into_bytes())
                .collect();
            Ok(frame::pack(&chunks))
        }))
        .expect("register");
    let mapper_faults = Arc::new(AtomicU32::new(0));
    for i in 0..MAPPERS {
        let faults = mapper_faults.clone();
        platform
            .register(FunctionSpec::new(format!("count-{i}"), "wc", move |ctx| {
                if i == 3
                    && faults
                        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                        .is_ok()
                {
                    return Err("injected mapper fault".into());
                }
                let chunks = frame::unpack(&ctx.payload).ok_or("malformed frame")?;
                let n = chunks
                    .get(i)
                    .map(|c| {
                        std::str::from_utf8(c)
                            .map(|s| s.split_whitespace().count())
                            .unwrap_or(0)
                    })
                    .unwrap_or(0) as u32;
                Ok(n.to_le_bytes().to_vec())
            }))
            .expect("register");
    }
    let reducer_down = Arc::new(AtomicU32::new(0));
    let down = reducer_down.clone();
    platform
        .register(FunctionSpec::new("sum", "wc", move |ctx| {
            if down.load(Ordering::SeqCst) == 1 {
                return Err("injected reducer crash".into());
            }
            let parts = frame::unpack(&ctx.payload).ok_or("malformed frame")?;
            let total: u32 = parts
                .iter()
                .filter_map(|p| {
                    p.get(..4)
                        .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
                })
                .sum();
            Ok(total.to_le_bytes().to_vec())
        }))
        .expect("register");

    let mut b = DagBuilder::new().node("split", "split", &[]);
    let mappers: Vec<String> = (0..MAPPERS).map(|i| format!("map-{i}")).collect();
    for (i, m) in mappers.iter().enumerate() {
        b = b.node(m.as_str(), format!("count-{i}"), &["split"]);
    }
    let mapper_refs: Vec<&str> = mappers.iter().map(String::as_str).collect();
    let wordcount = b.node("reduce", "sum", &mapper_refs).build().expect("dag");
    let exec = DagExecutor::new(&platform)
        .with_state(&jiffy)
        .with_events(pulsar.producer("dag/completions").expect("producer"));
    let text: Vec<u8> = (0..200)
        .map(|i| format!("word{}", i % 17))
        .collect::<Vec<_>>()
        .join(" ")
        .into_bytes();
    let hash = |out: &[u8]| taureau_core::hash::hash64(0x5EED, out);

    let clean = exec.run(&wordcount, "wc-clean", &text).expect("clean run");
    let clean_hash = hash(&clean.output);
    assert_eq!(clean.output, 200u32.to_le_bytes().to_vec());

    mapper_faults.store(1, Ordering::SeqCst);
    let retried = exec.run(&wordcount, "wc-retry", &text).expect("retry run");

    reducer_down.store(1, Ordering::SeqCst);
    let crashed = exec.run(&wordcount, "wc-crash", &text);
    assert!(
        matches!(crashed, Err(DagError::NodeFailed { ref node, .. }) if node == "reduce"),
        "reducer crash expected"
    );
    reducer_down.store(0, Ordering::SeqCst);
    let resumed = exec.run(&wordcount, "wc-crash", &text).expect("resume run");

    let mut t = Table::new([
        "scenario",
        "invocations",
        "retries",
        "resumed nodes",
        "output",
        "hash == clean",
    ]);
    for (name, r) in [
        ("failure-free", &clean),
        ("transient mapper fault", &retried),
        ("reducer crash + resume", &resumed),
    ] {
        t.row([
            name.to_string(),
            r.invocations.to_string(),
            r.retries.to_string(),
            r.resumed.to_string(),
            u32::from_le_bytes(r.output[..4].try_into().unwrap()).to_string(),
            (hash(&r.output) == clean_hash).to_string(),
        ]);
    }
    t.print();
    assert!(retried.retries >= 1 && hash(&retried.output) == clean_hash);
    assert!(resumed.resumed == 1 + MAPPERS && resumed.invocations == 1);
    assert!(hash(&resumed.output) == clean_hash);
    // Drain the audit topic as whole-entry views: counting events needs
    // the cached batch index, never a payload decode.
    let mut events = 0usize;
    loop {
        let views = audit.receive_entries(64).expect("receive_entries");
        if views.is_empty() {
            break;
        }
        events += views.iter().map(|v| v.len()).sum::<usize>();
        audit.ack_entries(&views).expect("ack_entries");
    }
    println!(
        "completion events on dag/completions: {events} (3 full runs + crashed frontier prefix)"
    );

    // -- (c) the linear ETL chain on both engines ------------------------
    platform
        .register(FunctionSpec::new("etl-parse", "etl", |ctx| {
            let lines = String::from_utf8(ctx.payload.to_vec()).map_err(|e| e.to_string())?;
            let vals: Vec<Vec<u8>> = lines
                .lines()
                .filter(|l| !l.contains("bad"))
                .map(|l| l.trim().as_bytes().to_vec())
                .collect();
            Ok(frame::pack(&vals))
        }))
        .expect("register");
    platform
        .register(FunctionSpec::new("etl-clean", "etl", |ctx| {
            let rows = frame::unpack(&ctx.payload).ok_or("malformed frame")?;
            let upper: Vec<Vec<u8>> = rows.iter().map(|r| r.to_ascii_uppercase()).collect();
            Ok(frame::pack(&upper))
        }))
        .expect("register");
    platform
        .register(FunctionSpec::new("etl-store", "etl", |ctx| {
            let rows = frame::unpack(&ctx.payload).ok_or("malformed frame")?;
            Ok((rows.len() as u32).to_le_bytes().to_vec())
        }))
        .expect("register");
    let machine = StateMachine::new("extract")
        .state(
            "extract",
            State {
                function: "etl-parse".into(),
                next: Transition::Always("transform".into()),
            },
        )
        .state(
            "transform",
            State {
                function: "etl-clean".into(),
                next: Transition::Always("load".into()),
            },
        )
        .state(
            "load",
            State {
                function: "etl-store".into(),
                next: Transition::End,
            },
        );
    let input = b"alpha\nbad row\nbravo\ncharlie\nbad again\ndelta\n";
    let sm = machine.run(&platform, input).expect("state machine run");
    let chain = Dag::from_state_machine(&machine).expect("linear machine");
    let dg = DagExecutor::new(&platform)
        .run(&chain, "etl", input)
        .expect("chain-dag run");
    println!(
        "ETL chain: StateMachine output == chain-DAG output: {} ({} rows loaded)",
        sm.output == dg.output,
        u32::from_le_bytes(dg.output[..4].try_into().unwrap())
    );
    assert_eq!(sm.output, dg.output);

    // -- (d) tiled matmul: large intermediates spill through Jiffy -------
    use taureau_apps::matmul::Matrix;
    let (n, grid) = (192usize, 2usize);
    let tile = n / grid;
    let a = Arc::new(Matrix::random(n, n, 11));
    let bm = Arc::new(Matrix::random(n, n, 13));
    let mut builder = DagBuilder::new();
    let mut tiles = Vec::new();
    for ti in 0..grid {
        for tj in 0..grid {
            let name = format!("tile-{ti}{tj}");
            let function = format!("mm-{ti}{tj}");
            let (a, bm) = (a.clone(), bm.clone());
            platform
                .register(FunctionSpec::new(function.as_str(), "mm", move |_| {
                    let row_band = a.block(ti * tile, 0, tile, n);
                    let col_band = bm.block(0, tj * tile, n, tile);
                    Ok(row_band.mul_naive(&col_band).to_bytes())
                }))
                .expect("register");
            builder = builder.node(name.as_str(), function.as_str(), &[]);
            tiles.push(name);
        }
    }
    platform
        .register(FunctionSpec::new("mm-assemble", "mm", move |ctx| {
            let parts = frame::unpack(&ctx.payload).ok_or("malformed frame")?;
            let mut c = Matrix::zeros(n, n);
            for (k, part) in parts.iter().enumerate() {
                let block = Matrix::from_bytes(part).ok_or("malformed tile")?;
                c.set_block((k / grid) * tile, (k % grid) * tile, &block);
            }
            Ok(c.to_bytes())
        }))
        .expect("register");
    let tile_refs: Vec<&str> = tiles.iter().map(String::as_str).collect();
    let matmul = builder
        .node("assemble", "mm-assemble", &tile_refs)
        .build()
        .expect("dag");
    let report = DagExecutor::new(&platform)
        .with_state(&jiffy)
        .run(&matmul, "mm", b"")
        .expect("matmul run");
    let c = Matrix::from_bytes(&report.output).expect("result matrix");
    let diff = c.max_abs_diff(&a.mul_naive(&bm)).expect("same shape");
    let spilled_tiles = report.nodes.iter().filter(|nd| nd.spilled).count();
    println!(
        "matmul {n}x{n} in {grid}x{grid} tiles: {spilled_tiles} outputs spilled \
         ({} through Jiffy: {grid}x{grid} tiles + the assembled result), \
         max |Δ| vs naive = {diff:.2e}",
        ByteSize::b(report.spilled_bytes)
    );
    assert!(spilled_tiles == grid * grid + 1 && diff < 1e-9);
}

/// E22 — observability across the deconstructed stack: one FaaS
/// invocation synchronously touches Pulsar (publish → bookie append) and
/// Jiffy (state put/get), and the tracer stitches all of it into one
/// causally-linked span tree. Every subsystem also exposes a metrics
/// registry rendered in Prometheus text format.
fn e22_traced_pipeline(trace_out: Option<&str>, metrics_out: Option<&str>) {
    banner(
        "E22",
        "end-to-end tracing: FaaS → Pulsar → Jiffy span trees; Prometheus metrics from every subsystem",
    );
    let clock: SharedClock = Arc::new(VirtualClock::new());
    let tracer = Tracer::new(clock.clone());

    let faas = FaasPlatform::new(PlatformConfig::default(), clock.clone());
    faas.set_tracer(tracer.clone());
    let pulsar = PulsarCluster::new(PulsarConfig::default(), clock.clone());
    pulsar.set_tracer(tracer.clone());
    pulsar.create_topic("pipeline/events", 1).expect("topic");
    let jiffy = Jiffy::new(JiffyConfig::default(), clock.clone());
    jiffy.set_tracer(tracer.clone());
    let blob = Arc::new(BlobStore::new(clock.clone()));
    blob.create_bucket("archive");

    // The pipeline function: stage state in Jiffy, publish the event to
    // Pulsar, archive the payload to the blob store.
    let producer = pulsar.producer("pipeline/events").expect("producer");
    let kv = jiffy.create_kv("/pipeline/state", 2).expect("kv");
    let blob_h = blob.clone();
    faas.register(FunctionSpec::new("ingest", "tenant", move |ctx| {
        kv.put(b"last", &ctx.payload).map_err(|e| e.to_string())?;
        let staged = kv
            .get(b"last")
            .map_err(|e| e.to_string())?
            .unwrap_or_default();
        producer.send(&staged).map_err(|e| e.to_string())?;
        blob_h.put("archive", b"last", &staged);
        Ok(staged.to_vec())
    }))
    .expect("register");

    // Drive it through the orchestrator so composition metrics appear too.
    let orch = Orchestrator::new(faas.clone());
    for i in 0..8u64 {
        orch.run(&Composition::pipeline(["ingest"]), &i.to_le_bytes())
            .expect("pipeline run");
    }
    // Drain the topic: dispatch spans + delivery counters.
    let mut consumer = pulsar
        .subscribe("pipeline/events", "archiver", SubscriptionMode::Exclusive)
        .expect("subscribe");
    let delivered = consumer.drain().expect("drain").len();

    // A small fleet simulation contributes the sim crate's registry.
    let workload = WorkloadSpec::Poisson { rate: 5.0 }.generate(
        Duration::from_secs(600),
        &typical_duration_model(),
        ByteSize::mb(512),
        7,
    );
    let sim_metrics = MetricsRegistry::new();
    simulate_serverless(&workload, &ServerlessConfig::default()).export_metrics(&sim_metrics);

    // Span tree summary per subsystem.
    let spans = tracer.spans();
    let mut t = Table::new(["system", "spans", "operations", "total time"]);
    for system in ["taureau-faas", "taureau-pulsar", "taureau-jiffy"] {
        let sys_spans: Vec<_> = spans.iter().filter(|s| s.system == system).collect();
        let total: Duration = sys_spans.iter().map(|s| s.duration()).sum();
        let mut names: Vec<&str> = sys_spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        t.row([
            system.to_string(),
            sys_spans.len().to_string(),
            names.join(" "),
            fmt_dur(total),
        ]);
    }
    t.print();

    // The acceptance check: at least one faas.invoke root whose descendant
    // set contains spans from both Pulsar and Jiffy.
    let cross_linked = spans
        .iter()
        .filter(|s| s.name == "faas.invoke")
        .any(|root| {
            let (mut has_pulsar, mut has_jiffy) = (false, false);
            let mut frontier = vec![root.span_id];
            while let Some(id) = frontier.pop() {
                for child in spans.iter().filter(|s| s.parent == Some(id)) {
                    match child.system {
                        "taureau-pulsar" => has_pulsar = true,
                        "taureau-jiffy" => has_jiffy = true,
                        _ => {}
                    }
                    frontier.push(child.span_id);
                }
            }
            has_pulsar && has_jiffy
        });
    println!(
        "one invocation, one tree: faas.invoke with pulsar + jiffy descendants: {}",
        if cross_linked { "yes" } else { "NO" }
    );
    println!("pulsar deliveries drained: {delivered}");

    // Gauges surfaced alongside the counters (satellite: gauge exposition).
    let pool = jiffy.pool_stats();
    jiffy
        .metrics()
        .gauge("allocated_blocks")
        .set(pool.allocated_blocks as i64);
    jiffy
        .metrics()
        .gauge("peak_allocated_blocks")
        .set(pool.peak_allocated_blocks as i64);
    let mut g = Table::new(["gauge", "value"]);
    for (prefix, reg) in [
        ("jiffy_", jiffy.metrics()),
        ("baas_", blob.metrics()),
        ("sim_", &sim_metrics),
    ] {
        for (name, value) in reg.gauge_values() {
            g.row([format!("{prefix}{name}"), value.to_string()]);
        }
    }
    g.print();

    // Heaviest call paths, folded flamegraph-style.
    let flame = tracer.flame_summary();
    println!("heaviest call paths (path count total_us):");
    for line in flame.lines().take(5) {
        println!("  {line}");
    }

    if let Some(path) = metrics_out {
        let mut out = String::new();
        out.push_str(&faas.metrics().render_prometheus_prefixed("faas_"));
        out.push_str(&pulsar.metrics().render_prometheus_prefixed("pulsar_"));
        out.push_str(&jiffy.metrics().render_prometheus_prefixed("jiffy_"));
        out.push_str(&blob.metrics().render_prometheus_prefixed("baas_"));
        out.push_str(&orch.metrics().render_prometheus_prefixed("orchestration_"));
        out.push_str(&sim_metrics.render_prometheus_prefixed("sim_"));
        std::fs::write(path, &out).expect("write metrics snapshot");
        println!("metrics snapshot written to {path}");
    }
    if let Some(path) = trace_out {
        std::fs::write(path, tracer.chrome_trace_json()).expect("write trace");
        println!(
            "chrome trace written to {path} ({} spans) — open in https://ui.perfetto.dev",
            tracer.span_count()
        );
    }
}

/// E21 — §1: serverless at the edge. Placement policies on a skewed geo
/// trace: the latency/keep-warm frontier.
fn e21_edge_placement() {
    banner(
        "E21",
        "edge placement: cloud-only vs edge-everywhere vs adaptive (1 hot region of 8)",
    );
    use taureau_sim::edge::{geo_trace, simulate_edge, EdgePolicy, Geography};
    let geo = Geography::continental(8);
    let horizon = Duration::from_secs(3600);
    let mut rates = vec![5.0; 8];
    rates[0] = 3000.0;
    let trace = geo_trace(8, horizon, &rates, 0xE21);
    let warm = LatencyModel::Constant(Duration::from_millis(2));
    let mut t = Table::new([
        "policy",
        "edge PoPs",
        "edge share",
        "p50",
        "p99",
        "edge container-h",
    ]);
    for (name, policy) in [
        ("cloud only", EdgePolicy::CloudOnly),
        ("edge everywhere", EdgePolicy::EdgeOnly),
        (
            "adaptive (>=100 req/h)",
            EdgePolicy::Adaptive {
                min_rate_per_hour: 100.0,
            },
        ),
    ] {
        let out = simulate_edge(&trace, &geo, policy, horizon, &warm);
        t.row([
            name.to_string(),
            out.edge_regions.to_string(),
            format!(
                "{:.1}%",
                100.0 * out.edge_served as f64 / trace.len() as f64
            ),
            fmt_dur(out.latency_us.quantile_duration(0.5)),
            fmt_dur(out.latency_us.quantile_duration(0.99)),
            format!("{:.0}", out.edge_container_hours),
        ]);
    }
    t.print();
}

/// E20 — §1 cites formal models of serverless (Jangda et al.): stateless
/// handlers are weakly equivalent to run-once execution; stateful ones are
/// not. Verified by bounded model checking.
fn e20_formal_semantics() {
    banner(
        "E20",
        "formal semantics: bounded model check of serverless vs naive execution",
    );
    use taureau_faas::semantics::{check_equivalence, safe_handler, unsafe_handler};
    let requests = [1u8, 2, 3, 4];
    let mut t = Table::new(["handler", "schedules explored", "equivalent to naive?"]);
    let safe = check_equivalence(safe_handler, &requests, 1);
    t.row([
        "stateless (safe)".to_string(),
        safe.schedules_explored.to_string(),
        safe.equivalent().to_string(),
    ]);
    let unsafe_r = check_equivalence(unsafe_handler, &requests, 1);
    t.row([
        "reads instance state".to_string(),
        unsafe_r.schedules_explored.to_string(),
        unsafe_r.equivalent().to_string(),
    ]);
    t.print();
    if let Some(cex) = unsafe_r.counterexample {
        println!("counterexample schedule:");
        for step in cex.schedule {
            println!("  {step}");
        }
    }
}

/// E19 — §1 cites SAND: application-level sandboxing lets a chain of
/// different functions in one application share warm sandboxes.
fn e19_sand_sandboxing() {
    banner(
        "E19",
        "SAND-style app sandboxes: startup latency of a 5-function chain",
    );
    let run_chain = |shared: bool| -> (Duration, u64) {
        let clock = VirtualClock::shared();
        let platform = FaasPlatform::new(PlatformConfig::deterministic(), clock);
        for i in 0..5 {
            let mut spec =
                FunctionSpec::new(format!("stage-{i}"), "t", |ctx| Ok(ctx.payload.to_vec()));
            if shared {
                spec = spec.with_app("pipeline");
            }
            platform.register(spec).expect("register");
        }
        let mut startup = Duration::ZERO;
        for i in 0..5 {
            let r = platform
                .invoke(&format!("stage-{i}"), &b"x"[..])
                .expect("invoke");
            startup += r.startup_latency;
        }
        (startup, platform.start_counts().0)
    };
    let (lambda_startup, lambda_colds) = run_chain(false);
    let (sand_startup, sand_colds) = run_chain(true);
    let mut t = Table::new(["isolation", "cold starts", "total startup latency"]);
    t.row([
        "per-function (Lambda-style)".to_string(),
        lambda_colds.to_string(),
        fmt_dur(lambda_startup),
    ]);
    t.row([
        "per-application (SAND-style)".to_string(),
        sand_colds.to_string(),
        fmt_dur(sand_startup),
    ]);
    t.print();
}

/// E15 — §4.1: "transactional semantics offered by serverless database
/// services can be crucial for ensuring correctness" under transparent
/// re-execution.
fn e15_transactional_retry_safety() {
    banner(
        "E15",
        "at-least-once re-execution: naive KV transfer vs transactional transfer",
    );
    use std::sync::atomic::{AtomicBool, Ordering};
    use taureau_baas::ServerlessDb;

    let clock: SharedClock = Arc::new(VirtualClock::new());
    let platform = FaasPlatform::new(PlatformConfig::deterministic(), clock);
    let mut t = Table::new(["mode", "attempts", "alice", "bob", "total (invariant: 100)"]);

    // Naive: two independent auto-commits with a crash in between; the
    // retry re-runs the debit.
    let db = ServerlessDb::new();
    db.put(b"alice", &50u64.to_le_bytes());
    db.put(b"bob", &50u64.to_le_bytes());
    let crashed = Arc::new(AtomicBool::new(false));
    let (dbf, cf) = (db.clone(), crashed.clone());
    platform
        .register(FunctionSpec::new("transfer-naive", "bank", move |_| {
            let read = |k: &[u8]| u64::from_le_bytes(dbf.get(k).unwrap().try_into().unwrap());
            dbf.put(b"alice", &(read(b"alice") - 10).to_le_bytes());
            if !cf.swap(true, Ordering::SeqCst) {
                return Err("crashed between debit and credit".into());
            }
            dbf.put(b"bob", &(read(b"bob") + 10).to_le_bytes());
            Ok(vec![])
        }))
        .expect("register");
    let r = platform
        .invoke_with_retries("transfer-naive", &[][..], 3)
        .expect("eventually succeeds");
    let read =
        |db: &ServerlessDb, k: &[u8]| u64::from_le_bytes(db.get(k).unwrap().try_into().unwrap());
    let (a, b) = (read(&db, b"alice"), read(&db, b"bob"));
    t.row([
        "naive KV".to_string(),
        r.attempts.to_string(),
        a.to_string(),
        b.to_string(),
        format!("{} {}", a + b, if a + b == 100 { "OK" } else { "VIOLATED" }),
    ]);

    // Transactional: the same logic inside run_transaction — the crashed
    // attempt's buffered writes never commit.
    let db = ServerlessDb::new();
    db.put(b"alice", &50u64.to_le_bytes());
    db.put(b"bob", &50u64.to_le_bytes());
    let crashed = Arc::new(AtomicBool::new(false));
    let (dbf, cf) = (db.clone(), crashed.clone());
    platform
        .register(FunctionSpec::new("transfer-txn", "bank", move |_| {
            dbf.run_transaction(5, |txn| {
                let a = u64::from_le_bytes(txn.get(b"alice").unwrap().try_into().unwrap());
                txn.put(b"alice", &(a - 10).to_le_bytes());
                if !cf.swap(true, Ordering::SeqCst) {
                    return Err(taureau_baas::DbError::Aborted(
                        "crashed mid-transfer".into(),
                    ));
                }
                let b = u64::from_le_bytes(txn.get(b"bob").unwrap().try_into().unwrap());
                txn.put(b"bob", &(b + 10).to_le_bytes());
                Ok(())
            })
            .map_err(|e| e.to_string())?;
            Ok(vec![])
        }))
        .expect("register");
    let r = platform
        .invoke_with_retries("transfer-txn", &[][..], 3)
        .expect("eventually succeeds");
    let (a, b) = (read(&db, b"alice"), read(&db, b"bob"));
    t.row([
        "transactional".to_string(),
        r.attempts.to_string(),
        a.to_string(),
        b.to_string(),
        format!("{} {}", a + b, if a + b == 100 { "OK" } else { "VIOLATED" }),
    ]);
    t.print();
}

/// E16 — §4.3: tiered storage moves sealed segments to the cheap cold
/// tier; consumers read through at cold-tier latency.
fn e16_tiered_storage() {
    banner(
        "E16",
        "tiered storage: bookie footprint, blob footprint, and read-through latency",
    );
    use taureau_baas::BlobStore;
    use taureau_pulsar::SubscriptionMode;
    let clock: SharedClock = Arc::new(VirtualClock::new());
    let cluster = PulsarCluster::new(
        PulsarConfig {
            max_entries_per_ledger: 64,
            ..Default::default()
        },
        clock.clone(),
    );
    let blob = Arc::new(BlobStore::new(clock.clone())); // S3-calibrated latency
    cluster.enable_tiering(blob.clone(), "pulsar-cold");
    cluster.create_topic("t", 1).expect("topic");
    let p = cluster.producer("t").expect("producer");
    let n = 1024u64;
    for i in 0..n {
        p.send(&vec![i as u8; 256]).expect("send");
    }
    let hot_before: u64 = cluster.bookies().iter().map(|b| b.stored_bytes()).sum();
    let offloaded = cluster.offload_sealed("t").expect("offload");
    let hot_after: u64 = cluster.bookies().iter().map(|b| b.stored_bytes()).sum();

    let t0 = clock.now();
    let mut consumer = cluster
        .subscribe("t", "s", SubscriptionMode::Exclusive)
        .expect("subscribe");
    let got = consumer.drain().expect("drain").len() as u64;
    let cold_read_time = clock.now() - t0;

    let mut t = Table::new(["metric", "value"]);
    t.row(["messages published", &n.to_string()]);
    t.row(["segments offloaded", &offloaded.to_string()]);
    t.row(["bookie bytes before", &ByteSize::b(hot_before).to_string()]);
    t.row(["bookie bytes after", &ByteSize::b(hot_after).to_string()]);
    t.row(["blob bytes (cold tier)", &blob.bytes_stored().to_string()]);
    t.row(["messages consumed (read-through)", &got.to_string()]);
    t.row([
        "consume time (cold-tier latency model)",
        &fmt_dur(cold_read_time),
    ]);
    t.row([
        "cold-tier reads",
        &cluster.metrics().counter("tier_reads").get().to_string(),
    ]);
    t.print();
}

/// E17 — §6: ORAM hides storage access patterns, at a bandwidth cost.
fn e17_oram_overhead() {
    banner(
        "E17",
        "Path ORAM: pattern-hiding at Z*(log N + 1) bandwidth overhead",
    );
    use taureau_secure::PathOram;
    let mut t = Table::new(["N blocks", "buckets/access"]);
    for n in [256usize, 4096] {
        let mut oram = PathOram::new(n, 0xE17);
        for id in 0..n as u32 {
            oram.write(id, vec![0u8; 64]);
        }
        let before = oram.store().accesses;
        let ops = 20_000u64;
        for i in 0..ops {
            oram.read((i % n as u64) as u32);
        }
        let per_access = (oram.store().accesses - before) / ops;
        t.row([n.to_string(), per_access.to_string()]);
    }
    t.print();
    println!("(pattern-hiding property is asserted by taureau-secure's uniformity tests)");
}

/// E18 — §6: hardware heterogeneity; accelerator-aware placement.
fn e18_hetero_packing() {
    banner(
        "E18",
        "heterogeneous fleet: oblivious vs accelerator-aware placement (20% GPU functions)",
    );
    use rand::Rng;
    use taureau_sim::hetero::{pack_hetero, HeteroDemand, HeteroPolicy, HeteroPricing};
    let mut rng = det_rng(0xE18);
    let items: Vec<HeteroDemand> = (0..500)
        .map(|_| {
            if rng.gen::<f64>() < 0.2 {
                HeteroDemand::new(
                    rng.gen_range(0.1..0.3),
                    rng.gen_range(0.1..0.3),
                    rng.gen_range(0.25..0.5),
                )
            } else {
                HeteroDemand::new(rng.gen_range(0.2..0.5), rng.gen_range(0.2..0.5), 0.0)
            }
        })
        .collect();
    let pricing = HeteroPricing::default();
    let mut t = Table::new([
        "policy",
        "cpu nodes",
        "gpu nodes",
        "unplaced gpu jobs",
        "stranded gpu",
        "$/hour",
    ]);
    for (name, policy) in [
        ("oblivious", HeteroPolicy::Oblivious),
        ("accelerator-aware (§6)", HeteroPolicy::AcceleratorAware),
    ] {
        let out = pack_hetero(&items, policy, 60);
        let (cpu, gpu) = out.node_counts();
        t.row([
            name.to_string(),
            cpu.to_string(),
            gpu.to_string(),
            out.unplaced().to_string(),
            format!("{:.2}", out.stranded_gpu().max(0.0)),
            format!("{:.2}", out.hourly_cost(pricing)),
        ]);
    }
    t.print();
}

fn banner(id: &str, claim: &str) {
    println!("\n=== {id}: {claim}");
}

/// E1 — §2/§3.2: fine-grained billing beats reserved capacity under
/// variable load; the crossover appears as load flattens.
fn e1_cost_vs_load_shape() {
    banner(
        "E1",
        "serverless vs server-centric cost across peak/mean ratios (24h, diurnal)",
    );
    let day = Duration::from_secs(24 * 3600);
    let mut t = Table::new([
        "peak/mean",
        "requests",
        "serverless",
        "vm@peak",
        "vm reactive",
        "winner",
    ]);
    for ratio in [1.0, 2.0, 5.0, 10.0, 50.0] {
        // Mean rate fixed; only the shape varies.
        let spec = WorkloadSpec::diurnal_with_peak_ratio(2.0, ratio, Duration::from_secs(6 * 3600));
        let w = spec.generate(day, &typical_duration_model(), ByteSize::mb(512), 0xE1);
        let sl = simulate_serverless(&w, &ServerlessConfig::default());
        let peak = simulate_vm_fleet(
            &w,
            &VmFleetConfig {
                policy: VmScalingPolicy::FixedAtPeak,
                ..Default::default()
            },
        );
        let reactive = simulate_vm_fleet(
            &w,
            &VmFleetConfig {
                policy: VmScalingPolicy::Reactive {
                    target_utilization: 0.6,
                    check_interval: Duration::from_secs(300),
                    min_instances: 1,
                },
                ..Default::default()
            },
        );
        let winner = if sl.cost < peak.cost.min(reactive.cost) {
            "serverless"
        } else if reactive.cost < peak.cost {
            "vm reactive"
        } else {
            "vm@peak"
        };
        t.row([
            format!("{ratio:.0}"),
            w.len().to_string(),
            fmt_usd(sl.cost),
            fmt_usd(peak.cost),
            fmt_usd(reactive.cost),
            winner.to_string(),
        ]);
    }
    // The crossover: sustained saturating load.
    let spec = WorkloadSpec::Poisson { rate: 300.0 };
    let w = spec.generate(
        Duration::from_secs(3600),
        &LatencyModel::Constant(Duration::from_millis(500)),
        ByteSize::gb(1),
        0xE1B,
    );
    let sl = simulate_serverless(&w, &ServerlessConfig::default());
    let peak = simulate_vm_fleet(
        &w,
        &VmFleetConfig {
            policy: VmScalingPolicy::FixedAtPeak,
            ..Default::default()
        },
    );
    t.row([
        "sustained".to_string(),
        w.len().to_string(),
        fmt_usd(sl.cost),
        fmt_usd(peak.cost),
        "-".to_string(),
        if peak.cost < sl.cost {
            "vm@peak"
        } else {
            "serverless"
        }
        .to_string(),
    ]);
    t.print();
}

/// E2 — §5.2 (Ishakian et al.): cold starts add significant overhead;
/// keep-alive and provisioned concurrency are the mitigations.
fn e2_cold_starts() {
    banner(
        "E2",
        "cold vs warm start latency and the keep-alive / pre-warming ablation",
    );
    let spec = WorkloadSpec::Poisson { rate: 0.5 };
    let w = spec.generate(
        Duration::from_secs(2 * 3600),
        &typical_duration_model(),
        ByteSize::mb(512),
        0xE2,
    );
    let mut t = Table::new([
        "keep-alive",
        "provisioned",
        "cold %",
        "p50",
        "p99",
        "container-s",
    ]);
    for (keep, prov) in [
        (Duration::from_secs(10), 0),
        (Duration::from_secs(60), 0),
        (Duration::from_secs(600), 0),
        (Duration::from_secs(600), 4),
    ] {
        let cfg = ServerlessConfig {
            keep_alive: keep,
            provisioned: prov,
            ..Default::default()
        };
        let out = simulate_serverless(&w, &cfg);
        t.row([
            format!("{}s", keep.as_secs()),
            prov.to_string(),
            format!("{:.1}%", out.cold_fraction() * 100.0),
            fmt_dur(out.latency_us.quantile_duration(0.5)),
            fmt_dur(out.latency_us.quantile_duration(0.99)),
            format!("{:.0}", out.container_seconds),
        ]);
    }
    t.print();
}

/// E3 — §4.4: persistent stores lack the performance ephemeral state
/// exchange needs; Jiffy is the in-memory answer. The S3 columns are a
/// calibrated latency model on a virtual clock. Jiffy's gets are timed on
/// the wall clock only to assert the claim: at every size they are
/// ≥ 100x faster than the model's.
fn e3_state_exchange() {
    banner(
        "E3",
        "ephemeral state exchange: S3-class persistent store (calibrated model) vs Jiffy",
    );
    let clock: SharedClock = Arc::new(VirtualClock::new());
    let persistent = PersistentStore::new(clock.clone());
    let jiffy = Jiffy::new(
        JiffyConfig {
            block_size: ByteSize::mb(2),
            blocks_per_node: 4096,
            ..Default::default()
        },
        Arc::new(WallClock::new()),
    );
    let kv = jiffy.create_kv("/bench/exchange", 8).expect("kv");
    let mut t = Table::new(["object size", "s3-model put", "s3-model get"]);
    for size in [1024usize, 64 * 1024, 1024 * 1024] {
        let payload = vec![0xABu8; size];
        let iters = 200;
        for i in 0..iters {
            kv.put(&(i as u64).to_le_bytes(), &payload).expect("put");
        }
        let t0 = Instant::now();
        for i in 0..iters {
            let _ = kv.get(&(i as u64).to_le_bytes()).expect("get");
        }
        let j_get = t0.elapsed() / iters;
        let v0 = clock.now();
        for i in 0..iters {
            persistent.put(&(i as u64).to_le_bytes(), &payload);
        }
        let s_put = (clock.now() - v0) / iters;
        let v0 = clock.now();
        for i in 0..iters {
            let _ = persistent.get(&(i as u64).to_le_bytes());
        }
        let s_get = (clock.now() - v0) / iters;
        let speedup = s_get.as_secs_f64() / j_get.as_secs_f64().max(1e-12);
        assert!(
            speedup >= 100.0,
            "{size}-byte jiffy get only {speedup:.0}x faster than the s3 model (claim: ≥100x)"
        );
        t.row([
            ByteSize::b(size as u64).to_string(),
            fmt_dur(s_put),
            fmt_dur(s_get),
        ]);
    }
    t.print();
    println!("jiffy get ≥ 100x faster than the s3 model at every size: yes");
}

/// E4 — §4.4 insight 2: hierarchical namespaces confine re-partitioning to
/// the scaling tenant; a global address space disturbs everyone.
fn e4_isolation() {
    banner(
        "E4",
        "scaling tenant A: bytes moved, and how many belong to tenant B",
    );
    let keys_per_tenant = 2000u64;
    let value = vec![0u8; 64];

    // Jiffy: per-tenant KV objects.
    let jiffy = Jiffy::new(
        JiffyConfig {
            blocks_per_node: 4096,
            ..Default::default()
        },
        VirtualClock::shared(),
    );
    let a = jiffy.create_kv("/tenant-a/state", 4).expect("kv a");
    let b = jiffy.create_kv("/tenant-b/state", 4).expect("kv b");
    for i in 0..keys_per_tenant {
        a.put(&i.to_le_bytes(), &value).expect("put");
        b.put(&i.to_le_bytes(), &value).expect("put");
    }
    let jiffy_moved = a.scale_to(8).expect("scale");

    // Global store: one keyspace.
    let global = GlobalStore::new(4);
    for i in 0..keys_per_tenant {
        global.put("tenant-a", &i.to_le_bytes(), &value);
        global.put("tenant-b", &i.to_le_bytes(), &value);
    }
    let report = global.scale_to("tenant-a", 8);

    let mut t = Table::new(["system", "total bytes moved", "tenant B bytes moved"]);
    t.row([
        "jiffy (namespaces)".to_string(),
        jiffy_moved.to_string(),
        "0".to_string(),
    ]);
    t.row([
        "global address space".to_string(),
        report.total_moved.to_string(),
        report.other_tenants_moved.to_string(),
    ]);
    t.print();
}

/// E5 — §4.4 insight 1: short-lived working sets multiplex in the shared
/// pool; peak << sum of per-app peaks.
fn e5_multiplexing() {
    banner(
        "E5",
        "shared-pool peak vs sum of per-application peaks (staggered ephemeral jobs)",
    );
    let jiffy = Jiffy::new(
        JiffyConfig {
            memory_nodes: 4,
            blocks_per_node: 4096,
            block_size: ByteSize::kb(64),
            ..Default::default()
        },
        VirtualClock::shared(),
    );
    let apps = 12;
    let blob = vec![0u8; 48 * 64 * 1024]; // 48 blocks per app
    for i in 0..apps {
        let path = format!("/app-{i}/scratch");
        let f = jiffy.create_file(path.as_str()).expect("file");
        f.append(&blob).expect("write");
        // Job finishes; ephemeral state is consumed and removed before the
        // next job starts (the time-multiplexing the paper describes).
        jiffy
            .remove_namespace(format!("/app-{i}").as_str())
            .expect("rm");
    }
    let (pool_peak, sum_peaks) = jiffy.multiplexing_report();
    let mut t = Table::new(["metric", "blocks", "memory"]);
    t.row([
        "shared-pool peak".to_string(),
        pool_peak.to_string(),
        (ByteSize::kb(64) * pool_peak).to_string(),
    ]);
    t.row([
        "sum of per-app peaks (static provisioning)".to_string(),
        sum_peaks.to_string(),
        (ByteSize::kb(64) * sum_peaks).to_string(),
    ]);
    t.row([
        "multiplexing saving".to_string(),
        format!("{:.1}x", sum_peaks as f64 / pool_peak.max(1) as f64),
        "-".to_string(),
    ]);
    t.print();
}

/// E6 — Figure 3: the Count-Min Pulsar function; accuracy vs the analytic
/// bound, and the function run over the stream through the runtime.
fn e6_countmin_function() {
    banner(
        "E6",
        "Count-Min as a Pulsar function: estimate error vs eps*N bound (Zipf stream)",
    );
    let n_events = 100_000usize;
    let universe = 10_000;
    let zipf = Zipf::new(universe, 1.05);
    let mut rng = det_rng(0xE6);
    let stream: Vec<u64> = (0..n_events)
        .map(|_| zipf.sample(&mut rng) as u64)
        .collect();
    let mut truth = vec![0u64; universe];
    for &i in &stream {
        truth[i as usize] += 1;
    }

    let mut t = Table::new([
        "eps",
        "width x depth",
        "sketch bytes",
        "mean overest",
        "max overest",
        "bound eps*N",
    ]);
    for eps in [0.01, 0.001, 0.0001] {
        let mut cm = CountMinSketch::with_error_bounds(eps, 0.01, 128);
        for &i in &stream {
            cm.add(&i.to_le_bytes(), 1);
        }
        let mut total_err = 0u64;
        let mut max_err = 0u64;
        for (i, &tr) in truth.iter().enumerate() {
            let est = cm.estimate(&(i as u64).to_le_bytes());
            let err = est - tr;
            total_err += err;
            max_err = max_err.max(err);
        }
        t.row([
            format!("{eps}"),
            format!("{}x{}", cm.width(), cm.depth()),
            cm.size_bytes().to_string(),
            format!("{:.2}", total_err as f64 / universe as f64),
            max_err.to_string(),
            format!("{:.0}", eps * n_events as f64),
        ]);
    }
    t.print();

    // End-to-end through the Pulsar function runtime, on a virtual clock.
    let clock = VirtualClock::shared();
    let cluster = PulsarCluster::new(PulsarConfig::default(), clock.clone());
    let rt = FunctionRuntime::new(cluster.clone(), Jiffy::new(JiffyConfig::default(), clock));
    cluster.create_topic("events", 1).expect("topic");
    let mut sketch = CountMinSketch::with_error_bounds(0.001, 0.01, 128);
    rt.register(
        FunctionConfig {
            name: "cm".into(),
            inputs: vec!["events".into()],
            output: None,
        },
        Box::new(move |msg, _| {
            sketch.add(&msg.payload, 1);
            let _ = sketch.estimate(&msg.payload);
            None
        }),
    )
    .expect("register");
    let producer = cluster.producer("events").expect("producer");
    let publish_n = 20_000;
    for &i in stream.iter().take(publish_n) {
        producer.send(&i.to_le_bytes()).expect("send");
    }
    let processed = rt.run_available("cm").expect("pump");
    assert_eq!(processed, publish_n, "function processed every message");
    println!("function processed {processed} of {publish_n} messages");
}

/// E7 — §4.2 (Lopez et al.): composition billing audit.
fn e7_orchestration_billing() {
    banner(
        "E7",
        "no-double-billing audit: platform bill delta == sum of basic function costs",
    );
    let clock: SharedClock = Arc::new(VirtualClock::new());
    let platform = FaasPlatform::new(PlatformConfig::deterministic(), clock);
    for name in ["parse", "enrich", "store", "notify"] {
        platform
            .register(FunctionSpec::new(name, "tenant", |ctx| {
                Ok(ctx.payload.to_vec())
            }))
            .expect("register");
    }
    let orch = Orchestrator::new(platform.clone());
    orch.register_composition(
        "ingest",
        Composition::pipeline(["parse", "enrich", "store"]),
    );
    let comp = Composition::Sequence(vec![
        Composition::Map(Box::new(Composition::Named("ingest".into()))),
        Composition::Task("notify".into()),
    ]);
    let batch: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i]).collect();
    let before = platform.billing().total("tenant");
    let report = orch.run(&comp, &frame::pack(&batch)).expect("run");
    let after = platform.billing().total("tenant");

    let mut t = Table::new(["metric", "value"]);
    t.row([
        "basic function executions",
        &report.invocation_count().to_string(),
    ]);
    t.row(["sum of basic costs", &fmt_usd(report.total_cost())]);
    t.row(["platform bill delta", &fmt_usd(after - before)]);
    t.row([
        "orchestration surcharge",
        &fmt_usd((after - before) - report.total_cost()),
    ]);
    t.print();
}

/// E8 — §5.2 (Gupta et al.): coded redundancy vs stragglers.
fn e8_ml_stragglers() {
    banner(
        "E8",
        "parameter-server training: straggler impact and coded-gradient mitigation",
    );
    use taureau_apps::ml::{synthetic_logreg, train_serverless, TrainingConfig};
    let clock = VirtualClock::shared();
    let platform = FaasPlatform::new(PlatformConfig::deterministic(), clock.clone());
    let jiffy = Jiffy::new(JiffyConfig::default(), clock);
    let (ds, _) = synthetic_logreg(2000, 8, 0xE8);
    let ds = Arc::new(ds);
    let mut t = Table::new([
        "straggler p",
        "redundancy",
        "job time",
        "final loss",
        "invocations",
    ]);
    for (p, r) in [(0.0, 1), (0.2, 1), (0.2, 2), (0.2, 3), (0.4, 1), (0.4, 3)] {
        let cfg = TrainingConfig {
            lr: 0.5,
            epochs: 15,
            workers: 8,
            straggler_prob: p,
            straggler_slowdown: 8.0,
            redundancy: r,
            compute_per_example: Duration::from_micros(50),
            seed: 0x5EED,
        };
        let out = train_serverless(
            &platform,
            &jiffy,
            Arc::clone(&ds),
            &cfg,
            &format!("e8-{p}-{r}"),
        );
        t.row([
            format!("{p}"),
            r.to_string(),
            fmt_dur(out.total_time()),
            format!("{:.4}", out.loss_history.last().unwrap()),
            out.invocations.to_string(),
        ]);
    }
    t.print();
}

/// E9 — §5.1 (Werner et al.): matmul algorithms and the distributed run
/// with ephemeral intermediates.
fn e9_matmul() {
    banner(
        "E9",
        "matrix multiply: local algorithms and the serverless tiled job",
    );
    use taureau_apps::matmul::{distributed_multiply, Matrix};
    let mut t = Table::new(["n", "max |diff| naive vs blocked(32), strassen"]);
    for n in [128usize, 256] {
        let a = Matrix::random(n, n, 0xA);
        let b = Matrix::random(n, n, 0xB);
        let c_naive = a.mul_naive(&b);
        let diff = c_naive
            .max_abs_diff(&a.mul_blocked(&b, 32))
            .unwrap()
            .max(c_naive.max_abs_diff(&a.strassen(&b)).unwrap());
        t.row([n.to_string(), format!("{diff:.1e}")]);
    }
    t.print();

    let clock = VirtualClock::shared();
    let platform = FaasPlatform::new(PlatformConfig::deterministic(), clock.clone());
    let jiffy = Jiffy::new(
        JiffyConfig {
            blocks_per_node: 8192,
            ..Default::default()
        },
        clock,
    );
    let n = 128;
    let a = Matrix::random(n, n, 1);
    let b = Matrix::random(n, n, 2);
    let mut t = Table::new(["grid", "tile invocations", "billed", "correct"]);
    for grid in [2usize, 4, 8] {
        let before = platform.billing().total("matmul");
        let (c, inv) = distributed_multiply(&platform, &jiffy, &a, &b, grid);
        let cost = platform.billing().total("matmul") - before;
        let ok = a.mul_naive(&b).max_abs_diff(&c).unwrap() < 1e-9;
        t.row([
            format!("{grid}x{grid}"),
            inv.to_string(),
            fmt_usd(cost),
            ok.to_string(),
        ]);
    }
    t.print();
}

/// E10 — §5.1 (Toader et al.): Pregel over serverless workers + Jiffy.
fn e10_graph() {
    banner(
        "E10",
        "serverless Pregel: PageRank and SSSP vs sequential references",
    );
    use taureau_apps::graph::{pagerank_seq, run_pregel, sssp_seq, Graph, PageRank, Sssp};
    let clock = VirtualClock::shared();
    let platform = FaasPlatform::new(PlatformConfig::deterministic(), clock.clone());
    let jiffy = Jiffy::new(
        JiffyConfig {
            blocks_per_node: 8192,
            ..Default::default()
        },
        clock,
    );
    let g = Arc::new(Graph::random(2000, 16_000, 0xE10));
    let mut t = Table::new([
        "algorithm",
        "partitions",
        "supersteps",
        "invocations",
        "messages",
        "max err vs seq",
    ]);
    for parts in [4usize, 16] {
        let out = run_pregel(
            &platform,
            &jiffy,
            Arc::clone(&g),
            Arc::new(PageRank { d: 0.85, iters: 10 }),
            parts,
            &format!("e10-pr-{parts}"),
        );
        let seq = pagerank_seq(&g, 0.85, 10);
        let err = out
            .values
            .iter()
            .zip(&seq)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        t.row([
            "pagerank".to_string(),
            parts.to_string(),
            out.supersteps.to_string(),
            out.invocations.to_string(),
            out.messages.to_string(),
            format!("{err:.1e}"),
        ]);
    }
    let out = run_pregel(
        &platform,
        &jiffy,
        Arc::clone(&g),
        Arc::new(Sssp { source: 0 }),
        8,
        "e10-sssp",
    );
    let seq = sssp_seq(&g, 0);
    let err = out
        .values
        .iter()
        .zip(&seq)
        .filter(|(_, b)| b.is_finite())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    t.row([
        "sssp".to_string(),
        "8".to_string(),
        out.supersteps.to_string(),
        out.invocations.to_string(),
        out.messages.to_string(),
        format!("{err:.1e}"),
    ]);
    t.print();
}

/// E11 — §2 demand-driven execution / §6 SLA: autoscaler policy trade-offs.
fn e11_autoscaling() {
    banner(
        "E11",
        "VM autoscaling policies vs serverless under bursty load: cost, tail latency, utilization",
    );
    let spec = WorkloadSpec::Bursty {
        on_rate: 300.0,
        on_mean: Duration::from_secs(60),
        off_mean: Duration::from_secs(300),
    };
    let w = spec.generate(
        Duration::from_secs(6 * 3600),
        &typical_duration_model(),
        ByteSize::mb(512),
        0xE11,
    );
    let mut t = Table::new(["policy", "cost", "p50", "p99", "utilization"]);
    let fixed_peak = simulate_vm_fleet(
        &w,
        &VmFleetConfig {
            policy: VmScalingPolicy::FixedAtPeak,
            ..Default::default()
        },
    );
    t.row([
        "vm fixed@peak".to_string(),
        fmt_usd(fixed_peak.cost),
        fmt_dur(fixed_peak.latency_us.quantile_duration(0.5)),
        fmt_dur(fixed_peak.latency_us.quantile_duration(0.99)),
        format!("{:.1}%", fixed_peak.mean_utilization * 100.0),
    ]);
    let small = simulate_vm_fleet(
        &w,
        &VmFleetConfig {
            pricing: VmPricing::default(),
            policy: VmScalingPolicy::Fixed(1),
        },
    );
    t.row([
        "vm fixed@1".to_string(),
        fmt_usd(small.cost),
        fmt_dur(small.latency_us.quantile_duration(0.5)),
        fmt_dur(small.latency_us.quantile_duration(0.99)),
        format!("{:.1}%", small.mean_utilization * 100.0),
    ]);
    for target in [0.5, 0.8] {
        let r = simulate_vm_fleet(
            &w,
            &VmFleetConfig {
                policy: VmScalingPolicy::Reactive {
                    target_utilization: target,
                    check_interval: Duration::from_secs(60),
                    min_instances: 1,
                },
                ..Default::default()
            },
        );
        t.row([
            format!("vm reactive@{target}"),
            fmt_usd(r.cost),
            fmt_dur(r.latency_us.quantile_duration(0.5)),
            fmt_dur(r.latency_us.quantile_duration(0.99)),
            format!("{:.1}%", r.mean_utilization * 100.0),
        ]);
    }
    let sl = simulate_serverless(&w, &ServerlessConfig::default());
    t.row([
        "serverless".to_string(),
        fmt_usd(sl.cost),
        fmt_dur(sl.latency_us.quantile_duration(0.5)),
        fmt_dur(sl.latency_us.quantile_duration(0.99)),
        format!("({:.1}% cold)", sl.cold_fraction() * 100.0),
    ]);
    t.print();
}

/// E12 — §6 look-forward: complementary bin-packing.
fn e12_binpacking() {
    banner(
        "E12",
        "function placement: packing policies on a CPU-heavy/memory-heavy mix",
    );
    use rand::Rng;
    let mut rng = det_rng(0xE12);
    let items: Vec<Demand> = (0..400)
        .map(|_| {
            if rng.gen::<bool>() {
                Demand::new(rng.gen_range(0.35..0.65), rng.gen_range(0.05..0.20))
            } else {
                Demand::new(rng.gen_range(0.05..0.20), rng.gen_range(0.35..0.65))
            }
        })
        .collect();
    let mut t = Table::new([
        "policy",
        "nodes used",
        "mean |cpu-mem| imbalance",
        "stranded",
    ]);
    for (name, policy) in [
        ("first-fit", PackingPolicy::FirstFit),
        ("best-fit", PackingPolicy::BestFit),
        ("worst-fit", PackingPolicy::WorstFit),
        ("complementary (§6)", PackingPolicy::Complementary),
    ] {
        let out = pack(&items, policy);
        t.row([
            name.to_string(),
            out.node_count().to_string(),
            format!("{:.3}", out.mean_imbalance()),
            format!("{:.1}%", out.stranded_fraction() * 100.0),
        ]);
    }
    t.print();
}

/// E24 — the stack monitoring itself: telemetry from a mixed FaaS
/// workload is pumped over Pulsar into a monitor that folds it into KLL
/// latency sketches, evaluates an SLO through an injected latency fault
/// (the alert must fire exactly once and resolve exactly once), and
/// flight-records a failed invocation into the Jiffy blackbox.
fn e24_self_monitoring() {
    banner(
        "E24",
        "self-monitoring: SLO alert fires+resolves around an injected fault; sketch quantiles match exact within rank-error bound; failures leave a blackbox dump",
    );

    // -- (a) mixed workload with a mid-run latency fault -----------------
    let clock = VirtualClock::shared();
    let tracer = Tracer::new(clock.clone());
    let sink = TelemetrySink::new(65_536);
    tracer.set_telemetry(sink.clone());
    let platform = FaasPlatform::new(PlatformConfig::deterministic(), clock.clone());
    platform.set_tracer(tracer.clone());
    let jiffy = Jiffy::new(JiffyConfig::default(), clock.clone());
    jiffy.set_tracer(tracer.clone());
    let cluster = PulsarCluster::new(PulsarConfig::default(), clock.clone());
    let mut pump = TelemetryPump::new(sink, &cluster).expect("pump");
    let mut monitor = Monitor::with_config(
        &cluster,
        clock.clone(),
        MonitorConfig {
            fast_window: Duration::from_millis(200),
            slow_window: Duration::from_millis(800),
            min_samples: 5,
            ..MonitorConfig::default()
        },
    )
    .expect("monitor")
    .with_policy(SloPolicy::parse("p99 faas.invoke < 12ms").expect("policy"))
    .with_policy(SloPolicy::parse("error_rate faas.invoke < 25%").expect("policy"))
    .with_flight_recorder(&tracer)
    .with_blackbox(&jiffy);

    let fault = Arc::new(AtomicBool::new(false));
    let api_fault = fault.clone();
    let api_clock = clock.clone();
    platform
        .register(FunctionSpec::new("api", "tenant", move |_ctx| {
            api_clock.advance(if api_fault.load(Ordering::Relaxed) {
                Duration::from_millis(25)
            } else {
                Duration::from_millis(1)
            });
            Ok(Vec::new())
        }))
        .expect("register");
    let batch_clock = clock.clone();
    platform
        .register(FunctionSpec::new("batch", "tenant", move |_ctx| {
            batch_clock.advance(Duration::from_millis(8));
            Ok(Vec::new())
        }))
        .expect("register");
    platform
        .register(FunctionSpec::new("flaky", "tenant", |_ctx| {
            Err("injected handler failure".to_string())
        }))
        .expect("register");
    for f in ["api", "batch", "flaky"] {
        platform.provision(f, 1).expect("provision");
    }

    const ROUNDS: u32 = 240;
    const FAULT: std::ops::Range<u32> = 100..140;
    for round in 0..ROUNDS {
        fault.store(FAULT.contains(&round), Ordering::Relaxed);
        platform.invoke("api", Vec::new()).expect("api");
        if round % 4 == 0 {
            platform.invoke("batch", Vec::new()).expect("batch");
        }
        if round == 150 {
            assert!(platform.invoke("flaky", Vec::new()).is_err());
        }
        clock.advance(Duration::from_millis(2));
        pump.pump();
        monitor.poll().expect("poll");
    }

    println!(
        "workload: {ROUNDS} rounds ({} invocations), latency fault in rounds {}..{}, 1 injected handler failure",
        monitor.op_count("faas.invoke"),
        FAULT.start,
        FAULT.end
    );
    println!("\nalert timeline:");
    for event in monitor.alerts() {
        println!("  {event}");
    }
    let fired = monitor
        .alerts()
        .iter()
        .filter(|a| matches!(a.state, taureau_monitor::AlertState::Firing))
        .count();
    let resolved = monitor.alerts().len() - fired;
    assert_eq!(fired, 1, "latency alert must fire exactly once");
    assert_eq!(resolved, 1, "latency alert must resolve exactly once");
    assert!(monitor.active_alerts().is_empty(), "run ends healthy");

    // -- (b) sketch quantiles vs exact, from the flight recorder ---------
    // The tracer ring holds every span of the run (no drops below the
    // retention cap), so exact per-op latency distributions are in hand
    // to grade the monitor's KLL estimates.
    assert_eq!(tracer.dropped_spans(), 0, "retention cap not hit");
    let spans = tracer.spans();
    let mut t = Table::new([
        "op",
        "events",
        "p50 sketch",
        "p50 exact",
        "p99 sketch",
        "p99 exact",
        "max rank err",
    ]);
    // Rank error with tie awareness: the workload's latencies are heavily
    // discretized (most invokes take exactly warm + handler time), so an
    // estimate equal to a mass point spans a whole rank interval. Error is
    // the distance from q·n to the interval [#exact < est, #exact ≤ est].
    let rank_err = |exact: &[f64], est: f64, q: f64| -> f64 {
        let n = exact.len() as f64;
        let lo = exact.iter().filter(|&&v| v < est).count() as f64;
        let hi = exact.iter().filter(|&&v| v <= est).count() as f64;
        let target = q * n;
        ((lo - target).max(target - hi).max(0.0)) / n
    };
    for op in ["faas.invoke", "faas.execute", "faas.startup"] {
        let mut exact: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == op)
            .map(|s| s.duration().as_micros() as f64)
            .collect();
        exact.sort_by(f64::total_cmp);
        assert_eq!(
            monitor.op_count(op),
            exact.len() as u64,
            "monitor saw every {op} span"
        );
        let p50 = monitor.quantile_us(op, 0.50).expect("p50");
        let p99 = monitor.quantile_us(op, 0.99).expect("p99");
        let worst = rank_err(&exact, p50, 0.50).max(rank_err(&exact, p99, 0.99));
        // KLL with k=200 has rank error well under 1%; 4% is generous.
        assert!(worst <= 0.04, "{op}: rank error {worst:.4} out of bound");
        t.row([
            op.to_string(),
            exact.len().to_string(),
            fmt_dur(Duration::from_micros(p50 as u64)),
            fmt_dur(Duration::from_micros(exact[exact.len() / 2] as u64)),
            fmt_dur(Duration::from_micros(p99 as u64)),
            fmt_dur(Duration::from_micros(
                exact[(exact.len() - 1).min((0.99 * exact.len() as f64) as usize)] as u64,
            )),
            format!("{:.4}", worst),
        ]);
    }
    t.print();

    // -- (c) the blackbox --------------------------------------------------
    println!("\nblackbox dumps under /blackbox:");
    for id in monitor.dump_ids() {
        let summary = jiffy
            .open_file(format!("/blackbox/{id}/summary.txt").as_str())
            .expect("dump summary")
            .contents()
            .expect("dump contents");
        println!("  /blackbox/{id}  (summary.txt {} bytes)", summary.len());
    }
    assert!(
        monitor.dump_ids().iter().any(|d| d.starts_with("alert-")),
        "firing alert dumped recent history"
    );
    assert!(
        monitor
            .dump_ids()
            .iter()
            .any(|d| d.starts_with("invoke-failure-")),
        "failed invocation dumped its trace"
    );

    println!("\nhealth report:");
    for line in monitor.health_report().render_text().lines() {
        println!("  {line}");
    }
}

/// E28 — the multi-node cluster fabric under rolling failures: 5 brokers
/// behind a lossy simulated network serve a publish → dispatch → invoke
/// loop while one broker at a time is killed (rolling, at most 1-of-5
/// down) and one bookie dies permanently mid-run. Reports virtual-time
/// tail latency (the p99/max capture failover windows), end-to-end
/// operation availability (asserted ≥99%), background re-replication
/// converging back to the replication factor before the run ends, one
/// causal trace spanning the failover, and an elastic Jiffy leave with
/// no data loss. Deterministic in virtual time, so every gate is an
/// `assert!`.
fn e28_cluster_failover() {
    banner(
        "E28",
        "cluster fabric: ≥99% op availability and bounded tails under rolling 1-of-5 broker kills; re-replication restores the replication factor before the run ends",
    );

    const REQUESTS: usize = 300;
    const KILL_EVERY: usize = 60; // broker kills at 60/120/180/240
    const BOOKIE_KILL_AT: usize = 150;

    let mut s = ClusterStack::new(ClusterStackConfig {
        seed: 0xE28,
        brokers: 5,
        ..ClusterStackConfig::default()
    });
    s.fabric().net().set_default_faults(LinkFaults {
        latency: Duration::from_micros(500),
        jitter: Duration::from_micros(200),
        drop_p: 0.005,
        dup_p: 0.005,
    });
    s.create_topic("e28", 1).expect("topic");
    s.register_function(FunctionSpec::new("handle", "e28", |ctx| {
        Ok(ctx.payload.to_vec())
    }))
    .expect("register");
    let tracer = s.fabric().tracer().clone();

    let mut e2e: Vec<Duration> = Vec::with_capacity(REQUESTS);
    let mut publish_lat: Vec<Duration> = Vec::with_capacity(REQUESTS);
    let mut attempts = 0u64;
    let mut successes = 0u64;
    let mut broker_kills = 0u32;
    let mut bookie_kills = 0u32;
    let mut killed: Vec<taureau_core::id::NodeId> = Vec::new();
    // The request fired immediately after the first broker kill is traced:
    // its publish retries through detection and lands on the new owner, so
    // one trace should span the failover across nodes and subsystems.
    let mut sentinel_trace: Option<taureau_core::trace::TraceId> = None;
    let mut underreplicated_peak = 0usize;

    for i in 0..REQUESTS {
        if i > 0 && i % KILL_EVERY == 0 {
            // Rolling: restore the previous victim, then kill the current
            // topic owner — at most one broker of five is ever down.
            if let Some(prev) = killed.last().copied() {
                s.revive(prev);
            }
            let owner = s.pulsar().owner("e28").expect("owner");
            s.kill(owner);
            killed.push(owner);
            broker_kills += 1;
        }
        if i == BOOKIE_KILL_AT {
            // Permanent bookie loss: the spare is activated and ledger
            // repair runs in the background from here on.
            let victim = s.pulsar().bookie_nodes()[0];
            s.kill(victim);
            bookie_kills += 1;
            underreplicated_peak = s.pulsar().underreplicated();
        }

        let ctx = if i > 0 && i % KILL_EVERY == 0 {
            let mut root = tracer.span("taureau-bench", "e28.request");
            root.attr("request", i);
            let c = root.context();
            if sentinel_trace.is_none() {
                sentinel_trace = c.map(|c| c.trace_id);
            }
            c
        } else {
            None
        };

        let t0 = s.now();
        attempts += 1;
        let published = s.publish("e28", &(i as u64).to_le_bytes(), ctx);
        let publish_ok = published.is_ok();
        if publish_ok {
            successes += 1;
            publish_lat.push(s.now() - t0);
        }

        // Drain until the entry just published is dispatched (duplicates
        // from earlier retried publishes may arrive first), invoke on it,
        // ack everything seen.
        let mut dispatched_and_invoked = false;
        'drain: for _ in 0..50 {
            attempts += 1;
            let msgs = match s.consume("e28", "s", 32, ctx) {
                Ok(m) => {
                    successes += 1;
                    m
                }
                Err(_) => break 'drain,
            };
            if msgs.is_empty() && dispatched_and_invoked {
                break 'drain;
            }
            for m in msgs {
                let mut b = [0u8; 8];
                b.copy_from_slice(&m.payload[..8]);
                let v = u64::from_le_bytes(b) as usize;
                if v == i && !dispatched_and_invoked {
                    attempts += 1;
                    if s.invoke("handle", &m.payload, m.ctx).is_ok() {
                        successes += 1;
                        dispatched_and_invoked = true;
                    }
                }
                attempts += 1;
                if s.ack("e28", "s", m.id, ctx).is_ok() {
                    successes += 1;
                }
            }
        }
        if publish_ok && dispatched_and_invoked {
            e2e.push(s.now() - t0);
        }
    }

    // -- background re-replication converges before the experiment ends --
    let repair_rounds = s.repair_until_replicated(2_000);
    let underreplicated_end = s.pulsar().underreplicated();

    // -- elastic Jiffy membership rides the same fabric ------------------
    let kv = s.jiffy().jiffy().create_kv("/e28/state", 2).expect("kv");
    for i in 0..32u64 {
        kv.put(&i.to_le_bytes(), &[7u8; 64]).expect("put");
    }
    s.join_memory_node();
    let leaving = s.jiffy().memory_nodes()[0];
    let migration = s.leave_memory_node(leaving).expect("leave");
    let jiffy_intact = (0..32u64).all(|i| {
        kv.get(&i.to_le_bytes())
            .ok()
            .flatten()
            .is_some_and(|v| v == [7u8; 64])
    });

    // -- one causal trace spans the failover -----------------------------
    let sentinel = sentinel_trace.expect("sentinel trace recorded");
    let spans = tracer.spans();
    let in_trace: Vec<_> = spans.iter().filter(|sp| sp.trace_id == sentinel).collect();
    let systems: std::collections::BTreeSet<&str> = in_trace.iter().map(|sp| sp.system).collect();
    let cross_failover_trace_ok =
        systems.contains("taureau-pulsar") && systems.contains("taureau-faas");
    let dropped = tracer.dropped_spans();

    let pct = |sorted: &[Duration], q: f64| -> Duration {
        if sorted.is_empty() {
            return Duration::ZERO;
        }
        let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
        sorted[idx]
    };
    let mut e2e_sorted = e2e.clone();
    e2e_sorted.sort();
    let mut pub_sorted = publish_lat.clone();
    pub_sorted.sort();
    let availability = successes as f64 / attempts.max(1) as f64;

    let mut t = Table::new(["stage (virtual time)", "p50", "p99", "max"]);
    t.row([
        "publish".into(),
        fmt_dur(pct(&pub_sorted, 0.50)),
        fmt_dur(pct(&pub_sorted, 0.99)),
        fmt_dur(pub_sorted.last().copied().unwrap_or_default()),
    ]);
    t.row([
        "publish→dispatch→invoke".into(),
        fmt_dur(pct(&e2e_sorted, 0.50)),
        fmt_dur(pct(&e2e_sorted, 0.99)),
        fmt_dur(e2e_sorted.last().copied().unwrap_or_default()),
    ]);
    t.print();
    println!(
        "{REQUESTS} requests, {broker_kills} rolling broker kills + {bookie_kills} bookie loss: \
         {successes}/{attempts} ops succeeded ({:.3}% availability, gate ≥99%)",
        100.0 * availability
    );
    println!(
        "re-replication: {underreplicated_peak} under-replicated ledgers after bookie loss → \
         {underreplicated_end} after {repair_rounds} maintenance rounds (gate: 0)"
    );
    println!(
        "cross-failover trace: {} spans across {:?} (pulsar+faas required: {}); \
         jiffy leave moved {} blocks, data intact: {jiffy_intact}",
        in_trace.len(),
        systems,
        cross_failover_trace_ok,
        migration.blocks_moved
    );

    assert!(
        availability >= 0.99,
        "availability {:.3}% < 99% under rolling 1-of-5 broker kills",
        100.0 * availability
    );
    assert_eq!(
        underreplicated_end, 0,
        "{underreplicated_end} ledgers still under-replicated at experiment end"
    );
    assert!(
        cross_failover_trace_ok,
        "no single trace spans publish -> failover -> dispatch -> invoke"
    );
    assert_eq!(dropped, 0, "{dropped} spans dropped during the cluster run");
}

/// E29 — the cluster observability plane under rolling failures: 5
/// brokers serve 8 topics over a lossy network while one broker is made
/// grey-slow (client links only — heartbeats unaffected), three rolling
/// owner kills and one permanent bookie loss are injected, and the
/// collector — fed exclusively by telemetry that rode the same faulty
/// wire — reconstructs every incident. Reports per-incident MTTD/MTTR
/// with phase attribution (asserted: phases partition each
/// unavailability window, and explain ≥90% of it), grey-detector lead
/// time and precision (asserted: zero false positives on the healthy
/// phase, grey broker flagged while heartbeats still vouch for it), and
/// exact telemetry loss accounting (asserted: sent = received +
/// detected-dropped after sync).
fn e29_cluster_observability() {
    banner(
        "E29",
        "observability plane: MTTD/MTTR attribution explains ≥90% of every outage window; grey broker flagged before any heartbeat suspicion; telemetry loss accounting exact under drops",
    );

    const TOPICS: usize = 8;
    const HEALTHY_ROUNDS: usize = 30;
    const GREY_ROUNDS: usize = 60;
    const BROKER_KILLS: usize = 3;

    let mut s = ClusterStack::new(ClusterStackConfig {
        seed: 0xE29,
        brokers: 5,
        observability: true,
        ..ClusterStackConfig::default()
    });
    let lossy = LinkFaults {
        latency: Duration::from_micros(500),
        jitter: Duration::from_micros(200),
        drop_p: 0.005,
        dup_p: 0.005,
    };
    s.fabric().net().set_default_faults(lossy);
    let topics: Vec<String> = (0..TOPICS).map(|i| format!("t{i}")).collect();
    for t in &topics {
        s.create_topic(t, 1).expect("topic");
    }
    let client = s.client_node();

    // -- phase 1: healthy baseline — the grey detector must stay silent --
    for round in 0..HEALTHY_ROUNDS {
        for t in &topics {
            let _ = s.publish(t, &(round as u64).to_le_bytes(), None);
        }
    }
    s.run_for(Duration::from_millis(50));
    let healthy_false_positives = s.obs().expect("plane").collector().grey_flags().len();

    // -- phase 2: one grey-slow broker ----------------------------------
    // Slow only the client<->grey links: broker<->broker heartbeats keep
    // flowing at normal latency, so the membership detector never fires —
    // the classic grey failure heartbeats cannot see.
    let t0_owner = s.pulsar().owner("t0").expect("owner");
    let grey_topic = topics
        .iter()
        .skip(1)
        .find(|t| s.pulsar().owner(t).ok() != Some(t0_owner))
        .cloned()
        .expect("8 topics over 5 brokers must use >1 owner");
    let grey = s.pulsar().owner(&grey_topic).expect("owner");
    let slow = LinkFaults {
        latency: Duration::from_millis(8),
        jitter: Duration::from_micros(200),
        drop_p: 0.005,
        dup_p: 0.0,
    };
    s.fabric().net().set_link_faults(client, grey, slow);
    s.fabric().net().set_link_faults(grey, client, slow);
    let grey_injected_at = s.now();
    let mut grey_flag_at: Option<Duration> = None;
    let mut control_alive_at_flag = false;
    for round in 0..GREY_ROUNDS {
        for t in &topics {
            let _ = s.publish(t, &(round as u64).to_le_bytes(), None);
        }
        if grey_flag_at.is_none() {
            if let Some(&at) = s
                .obs()
                .expect("plane")
                .collector()
                .grey_flags()
                .get(&grey.raw())
            {
                grey_flag_at = Some(at);
                // Heartbeats still vouch for the grey broker: detection
                // beat the failure detector (which never fires at all).
                control_alive_at_flag = s.fabric().control().lock().view().contains(&grey);
                break;
            }
        }
    }
    s.fabric().net().set_link_faults(client, grey, lossy);
    s.fabric().net().set_link_faults(grey, client, lossy);
    let grey_lead = grey_flag_at.map(|at| at.saturating_sub(grey_injected_at));

    // -- phase 3: rolling owner kills — MTTD/MTTR per incident -----------
    let mut specs: Vec<IncidentSpec> = Vec::new();
    let mut killed: Vec<taureau_core::id::NodeId> = Vec::new();
    for k in 0..BROKER_KILLS {
        if let Some(prev) = killed.last().copied() {
            s.revive(prev);
            s.run_for(Duration::from_millis(30));
        }
        let owner = s.pulsar().owner("t0").expect("owner");
        let fault_at = s.now();
        s.kill(owner);
        killed.push(owner);
        // Client-side ground truth: the window closes when a publish AND
        // a consume (subscription rebuilt on the new owner) both succeed.
        s.publish("t0", b"probe", None).expect("probe publish");
        let msgs = s.consume("t0", "s", 64, None).expect("probe consume");
        let recovered_at = s.now();
        for m in msgs {
            let _ = s.ack("t0", "s", m.id, None);
        }
        specs.push(IncidentSpec {
            id: format!("kill-{}", k + 1),
            node: owner,
            kind: IncidentKind::Broker,
            fault_at,
            recovered_at,
        });
    }

    // -- phase 4: permanent bookie loss — re-replication drain -----------
    let bookie = s.pulsar().bookie_nodes()[0];
    let bookie_fault_at = s.now();
    s.kill(bookie);
    s.publish("t0", b"probe-bookie", None)
        .expect("publish during repair");
    let repair_rounds = s.repair_until_replicated(2_000);
    let bookie_recovered_at = s.now();
    specs.push(IncidentSpec {
        id: "bookie-1".to_string(),
        node: bookie,
        kind: IncidentKind::Bookie,
        fault_at: bookie_fault_at,
        recovered_at: bookie_recovered_at,
    });

    // -- drain: revive the last victim so every agent can sync ------------
    if let Some(prev) = killed.last().copied() {
        s.revive(prev);
    }
    let synced = s.drain_telemetry(Duration::from_secs(10));
    let loss = s.obs().expect("plane").loss_accounting();
    let timeline = s.obs().expect("plane").timeline(&specs);
    let report = s.health_report().expect("plane");
    let blackbox_dumps = s
        .jiffy()
        .jiffy()
        .list("/blackbox")
        .map(|entries| entries.len())
        .unwrap_or(0);
    let flagged: Vec<u64> = s
        .obs()
        .expect("plane")
        .collector()
        .grey_flags()
        .keys()
        .copied()
        .collect();
    let grey_precision = if flagged.is_empty() {
        0.0
    } else {
        flagged.iter().filter(|&&n| n == grey.raw()).count() as f64 / flagged.len() as f64
    };

    // -- report -----------------------------------------------------------
    let mut t = Table::new([
        "incident",
        "MTTD",
        "MTTR",
        "detect",
        "re-lease",
        "rebuild",
        "drain",
        "unattrib",
        "explained",
    ]);
    for inc in &timeline.incidents {
        t.row([
            inc.id.clone(),
            inc.mttd().map(fmt_dur).unwrap_or_else(|| "n/a".into()),
            fmt_dur(inc.mttr()),
            fmt_dur(inc.phase(OutagePhase::Detection)),
            fmt_dur(inc.phase(OutagePhase::Release)),
            fmt_dur(inc.phase(OutagePhase::SubscriptionRebuild)),
            fmt_dur(inc.phase(OutagePhase::RereplicationDrain)),
            fmt_dur(inc.phase(OutagePhase::Unattributed)),
            format!("{:.1}%", inc.explained_fraction() * 100.0),
        ]);
    }
    t.print();
    let min_explained = timeline.min_explained_fraction();
    println!(
        "attribution: worst incident explains {:.1}% of its window (gate ≥90%); \
         mean MTTD {} mean MTTR {}",
        min_explained * 100.0,
        timeline
            .mean_mttd()
            .map(fmt_dur)
            .unwrap_or_else(|| "n/a".into()),
        timeline
            .mean_mttr()
            .map(fmt_dur)
            .unwrap_or_else(|| "n/a".into()),
    );
    println!(
        "grey detector: broker n{} flagged {} after injection (heartbeats still vouching: {}); \
         healthy-phase false positives: {healthy_false_positives} (gate 0); precision {:.2}",
        grey.raw(),
        grey_lead.map(fmt_dur).unwrap_or_else(|| "NEVER".into()),
        control_alive_at_flag,
        grey_precision,
    );
    println!(
        "telemetry: {} sent, {} received, {} detected-dropped, {} died-with-process \
         (synced: {synced}, books exact: {})",
        loss.sent,
        loss.received,
        loss.dropped,
        loss.pending_lost,
        loss.exact(),
    );
    println!(
        "collector: {} per-(op,node) rows, {} active alerts, {blackbox_dumps} blackbox dump(s); \
         repair converged in {repair_rounds} rounds",
        report.ops.len(),
        report.active_alerts.len(),
    );

    for inc in &timeline.incidents {
        let phases: Duration = inc.phases.iter().map(|&(_, d)| d).sum();
        assert_eq!(
            phases,
            inc.wall(),
            "incident {} phases sum to {phases:?} != wall {:?}",
            inc.id,
            inc.wall()
        );
    }
    assert!(
        min_explained >= 0.9,
        "worst incident explains {:.1}% < 90% of its outage window",
        100.0 * min_explained
    );
    assert!(
        grey_flag_at.is_some() && control_alive_at_flag,
        "grey-slow broker not flagged while heartbeats still vouched for it"
    );
    assert_eq!(
        healthy_false_positives, 0,
        "grey detector flagged {healthy_false_positives} node(s) on the healthy phase"
    );
    assert!(
        synced && loss.exact() && loss.sent == loss.received + loss.dropped,
        "telemetry loss accounting did not reconcile exactly"
    );
    assert!(
        blackbox_dumps >= 1,
        "no blackbox incident dump was written on failover"
    );
}
