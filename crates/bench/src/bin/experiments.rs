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
//! for the claim → experiment mapping. Everything is seeded and
//! deterministic except where wall-clock throughput is explicitly
//! reported.

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
use taureau_core::sync::ContentionProfiler;
use taureau_core::trace::{TelemetrySink, Tracer};
use taureau_dag::{
    Dag, DagBuilder, DagError, DagExecutor, DataPassing, ExecutorConfig, RetryPolicy,
};
use taureau_faas::{FaasPlatform, FunctionSpec, PlatformConfig};
use taureau_jiffy::baseline::{GlobalStore, PersistentStore};
use taureau_jiffy::{Jiffy, JiffyConfig};
use taureau_monitor::{Monitor, MonitorConfig, SloPolicy, TelemetryPump};
use taureau_orchestration::statemachine::{State, StateMachine, Transition};
use taureau_orchestration::{frame, Composition, Orchestrator};
use taureau_prof::{render, ContentionReport, CriticalPath, TraceGraph};
use taureau_pulsar::{
    EntryView, FunctionConfig, FunctionRuntime, PulsarCluster, PulsarConfig, SubscriptionMode,
};
use taureau_sim::scheduler::{pack, Demand, PackingPolicy};
use taureau_sim::serverless::{simulate_serverless, ServerlessConfig};
use taureau_sim::vmfleet::{simulate_vm_fleet, VmFleetConfig, VmScalingPolicy};
use taureau_sim::workload::{typical_duration_model, WorkloadSpec};
use taureau_sketches::CountMinSketch;

// ---------------------------------------------------------------------------
// Counting allocator: E26 reads call/byte deltas around hot loops to report
// allocations per operation. Two relaxed atomic adds per allocation; every
// other experiment is unaffected beyond that.
// ---------------------------------------------------------------------------

static ALLOC_CALLS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static ALLOC_BYTES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates every operation to `System`; the counters are
// side-effect-only.
unsafe impl std::alloc::GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        std::alloc::System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        std::alloc::System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        std::alloc::System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL_ALLOC: CountingAllocator = CountingAllocator;

/// Run `f` and return the (allocation calls, allocated bytes) it performed.
fn alloc_delta(f: impl FnOnce()) -> (u64, u64) {
    let c0 = ALLOC_CALLS.load(Ordering::Relaxed);
    let b0 = ALLOC_BYTES.load(Ordering::Relaxed);
    f();
    (
        ALLOC_CALLS.load(Ordering::Relaxed) - c0,
        ALLOC_BYTES.load(Ordering::Relaxed) - b0,
    )
}

const KNOWN: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e15", "e16", "e17",
    "e18", "e19", "e20", "e21", "e22", "e23", "e24", "e25", "e26", "e27", "e28", "e29", "e30",
    "e31",
];

/// Default path for the machine-readable benchmark numbers E25 (and E24's
/// overhead coda) emit; overridden by `--bench-json PATH`.
const BENCH_JSON_DEFAULT: &str = "BENCH_e25.json";

fn main() {
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut bench_json: Option<String> = None;
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
        } else if let Some(v) = a.strip_prefix("--bench-json=") {
            bench_json = Some(v.to_string());
        } else if a == "--bench-json" {
            bench_json = Some(raw.next().unwrap_or_else(|| {
                eprintln!("--bench-json needs a path");
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
    // (key, JSON value) fragments assembled into the bench-JSON file.
    let mut bench_parts: Vec<(String, String)> = Vec::new();

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
        e24_self_monitoring(&mut bench_parts);
    }
    if want("e25") {
        e25_contention_scaling(&mut bench_parts);
    }
    if want("e26") {
        e26_zero_copy_batching(&mut bench_parts);
    }
    if want("e27") {
        e27_observability_pipeline(&mut bench_parts);
    }
    if want("e28") {
        e28_cluster_failover(&mut bench_parts);
    }
    if want("e29") {
        e29_cluster_observability(&mut bench_parts);
    }
    if want("e30") {
        e30_read_path(&mut bench_parts);
    }
    if want("e31") {
        e31_entry_view_dispatch(&mut bench_parts);
    }
    // E25 always persists its numbers (the CI scaling gate reads them);
    // other fragments (E24's overhead coda, E26's batching numbers) ride
    // along, or are written on their own when `--bench-json` is given
    // explicitly.
    if want("e25") || (bench_json.is_some() && !bench_parts.is_empty()) {
        let path = bench_json.as_deref().unwrap_or(BENCH_JSON_DEFAULT);
        let body = bench_parts
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(",\n");
        let json = format!("{{\n{body}\n}}\n");
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        });
        println!("\nbench JSON written to {path}");
    }
}

/// E23 — the "Look Forward" composition layer: DAG-structured workflows
/// (Carver et al.) scheduled frontier-parallel against the FaaS pool,
/// with Zhang et al.-style retry + checkpoint fault tolerance. Four
/// workloads: a fan-out-8 makespan comparison on the wall clock, a
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
    let critical: Duration = fan_out
        .critical_path()
        .iter()
        .map(|&i| parallel.nodes[i].exec)
        .sum();
    let mut t = Table::new([
        "mode",
        "makespan",
        "Σ exec",
        "cost",
        "speedup",
        "CP efficiency",
    ]);
    for (mode, r) in [
        ("sequential chain", &sequential),
        ("parallel DAG (8)", &parallel),
    ] {
        t.row([
            mode.to_string(),
            fmt_dur(r.makespan),
            fmt_dur(r.total_exec()),
            fmt_usd(r.total_cost()),
            format!(
                "{:.2}x",
                sequential.makespan.as_secs_f64() / r.makespan.as_secs_f64()
            ),
            format!(
                "{:.0}%",
                100.0 * critical.as_secs_f64() / r.makespan.as_secs_f64()
            ),
        ]);
    }
    t.print();
    println!(
        "fan-out-8: parallel DAG {speedup:.2}x faster than sequential chain (claim: ≥2x): {}",
        if speedup >= 2.0 { "yes" } else { "NO" }
    );
    assert!(speedup >= 2.0, "fan-out-8 speedup regressed below 2x");

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
        let mut names: Vec<&str> = sys_spans.iter().map(|s| s.name.as_str()).collect();
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
    use std::collections::HashMap;
    use taureau_secure::PathOram;
    let mut t = Table::new([
        "N blocks",
        "buckets/access",
        "oram ns/op",
        "hashmap ns/op",
        "slowdown",
    ]);
    for n in [256usize, 4096] {
        let mut oram = PathOram::new(n, 0xE17);
        for id in 0..n as u32 {
            oram.write(id, vec![0u8; 64]);
        }
        let before = oram.store().accesses;
        let ops = 20_000u64;
        let t0 = Instant::now();
        for i in 0..ops {
            oram.read((i % n as u64) as u32);
        }
        let oram_ns = t0.elapsed().as_nanos() as u64 / ops;
        let per_access = (oram.store().accesses - before) / ops;

        let mut map: HashMap<u32, Vec<u8>> = HashMap::new();
        for id in 0..n as u32 {
            map.insert(id, vec![0u8; 64]);
        }
        let t0 = Instant::now();
        let mut sink = 0usize;
        for i in 0..ops {
            sink += map.get(&((i % n as u64) as u32)).map_or(0, Vec::len);
        }
        let map_ns = (t0.elapsed().as_nanos() as u64 / ops).max(1);
        std::hint::black_box(sink);
        t.row([
            n.to_string(),
            per_access.to_string(),
            oram_ns.to_string(),
            map_ns.to_string(),
            format!("{:.0}x", oram_ns as f64 / map_ns as f64),
        ]);
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
/// exchange needs; Jiffy is the in-memory answer.
fn e3_state_exchange() {
    banner(
        "E3",
        "ephemeral state exchange: Jiffy (measured) vs S3-class persistent store (calibrated model)",
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
    let mut t = Table::new([
        "object size",
        "jiffy put",
        "jiffy get",
        "s3-model put",
        "s3-model get",
        "speedup",
    ]);
    for size in [1024usize, 64 * 1024, 1024 * 1024] {
        let payload = vec![0xABu8; size];
        let iters = 200;
        // Jiffy: measured wall time of the real in-memory implementation.
        let t0 = Instant::now();
        for i in 0..iters {
            kv.put(&(i as u64).to_le_bytes(), &payload).expect("put");
        }
        let j_put = t0.elapsed() / iters;
        let t0 = Instant::now();
        for i in 0..iters {
            let _ = kv.get(&(i as u64).to_le_bytes()).expect("get");
        }
        let j_get = t0.elapsed() / iters;
        // Persistent store: injected S3-calibrated latency on a virtual
        // clock (the model is the measurement).
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
        t.row([
            ByteSize::b(size as u64).to_string(),
            fmt_dur(j_put),
            fmt_dur(j_get),
            fmt_dur(s_put),
            fmt_dur(s_get),
            format!("{speedup:.0}x (get)"),
        ]);
    }
    t.print();
    println!("(jiffy columns: measured wall time; s3 columns: calibrated latency model)");
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
        Arc::new(WallClock::new()),
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
        Arc::new(WallClock::new()),
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
/// bound and raw sketch throughput.
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

    // End-to-end through the Pulsar function runtime, wall-clock.
    let cluster = PulsarCluster::new(PulsarConfig::default(), Arc::new(WallClock::new()));
    let jiffy = Jiffy::with_defaults();
    let rt = FunctionRuntime::new(cluster.clone(), jiffy);
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
    let t0 = Instant::now();
    for &i in stream.iter().take(publish_n) {
        producer.send(&i.to_le_bytes()).expect("send");
    }
    let publish_elapsed = t0.elapsed();
    let t0 = Instant::now();
    rt.run_available("cm").expect("pump");
    let process_elapsed = t0.elapsed();
    println!(
        "pipeline throughput: publish {:.0} msg/s, function {:.0} msg/s (wall-clock, {} messages)",
        publish_n as f64 / publish_elapsed.as_secs_f64(),
        publish_n as f64 / process_elapsed.as_secs_f64(),
        publish_n
    );
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
        "matrix multiply: local algorithms (wall time) and the serverless tiled job",
    );
    use taureau_apps::matmul::{distributed_multiply, Matrix};
    let mut t = Table::new(["n", "naive", "blocked(32)", "strassen", "max |diff|"]);
    for n in [128usize, 256] {
        let a = Matrix::random(n, n, 0xA);
        let b = Matrix::random(n, n, 0xB);
        let t0 = Instant::now();
        let c_naive = a.mul_naive(&b);
        let naive = t0.elapsed();
        let t0 = Instant::now();
        let c_blocked = a.mul_blocked(&b, 32);
        let blocked = t0.elapsed();
        let t0 = Instant::now();
        let c_str = a.strassen(&b);
        let strassen = t0.elapsed();
        let diff = c_naive
            .max_abs_diff(&c_blocked)
            .unwrap()
            .max(c_naive.max_abs_diff(&c_str).unwrap());
        t.row([
            n.to_string(),
            fmt_dur(naive),
            fmt_dur(blocked),
            fmt_dur(strassen),
            format!("{diff:.1e}"),
        ]);
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
/// flight-records a failed invocation into the Jiffy blackbox. A wall
/// clock coda measures the per-invoke cost of the telemetry sink.
fn e24_self_monitoring(bench: &mut Vec<(String, String)>) {
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

    // -- (d) per-invoke overhead of the telemetry sink, wall clock --------
    // Zero-latency platform, trivial handler: the loop is almost pure
    // platform overhead, the worst case for the sink's relative cost.
    let overhead_run = |telemetry: bool| -> Duration {
        let clock = Arc::new(WallClock::new());
        let tracer = Tracer::new(clock.clone());
        let cluster = PulsarCluster::new(PulsarConfig::default(), clock.clone());
        let mut pump = None;
        if telemetry {
            let sink = TelemetrySink::new(1 << 20);
            tracer.set_telemetry(sink.clone());
            pump = Some(TelemetryPump::new(sink, &cluster).expect("pump"));
        }
        let platform = FaasPlatform::new(
            PlatformConfig {
                cold_start: LatencyModel::Constant(Duration::ZERO),
                warm_start: LatencyModel::Constant(Duration::ZERO),
                ..PlatformConfig::default()
            },
            clock,
        );
        platform.set_tracer(tracer);
        platform
            .register(FunctionSpec::new("noop", "tenant", |_ctx| Ok(Vec::new())))
            .expect("register");
        const N: u32 = 10_000;
        let t0 = Instant::now();
        for i in 0..N {
            platform.invoke("noop", Vec::new()).expect("invoke");
            if telemetry && i % 1_000 == 999 {
                if let Some(p) = pump.as_mut() {
                    p.pump();
                }
            }
        }
        t0.elapsed() / N
    };
    // Two disabled runs bracket the measurement noise: the disabled path
    // (one `Option<TelemetrySink>` check, the PR-2 tracing baseline) must
    // sit inside that bracket, while the enabled path pays for real work.
    let off1 = overhead_run(false);
    let off2 = overhead_run(false);
    let on = overhead_run(true);
    bench.push((
        "e24_overhead".to_string(),
        format!(
            "{{\"per_invoke_ns\": {{\"disabled_run1\": {}, \"disabled_run2\": {}, \"sink_and_pump\": {}}}}}",
            off1.as_nanos(),
            off2.as_nanos(),
            on.as_nanos()
        ),
    ));
    let delta = |d: Duration| {
        format!(
            "{:+.1}%",
            100.0 * (d.as_secs_f64() - off1.as_secs_f64()) / off1.as_secs_f64().max(1e-12)
        )
    };
    let mut t = Table::new(["telemetry", "per-invoke", "delta"]);
    t.row([
        "disabled (run 1)".to_string(),
        fmt_dur(off1),
        "baseline".to_string(),
    ]);
    t.row(["disabled (run 2)".to_string(), fmt_dur(off2), delta(off2)]);
    t.row(["sink + pump".to_string(), fmt_dur(on), delta(on)]);
    t.print();
    println!("(disabled run 2 vs run 1 is the noise floor; the disabled path adds one None check over the tracing-only baseline)");
}

/// E25 — the sharded concurrency core: 1/2/4/8 threads drive each
/// subsystem's hot path, sharded implementation vs the retained
/// coarse-lock path. With striped locks, disjoint keys (different apps,
/// topics, functions, counter stripes) proceed in parallel; the coarse
/// baseline serializes every operation on one mutex. On a multi-core
/// machine the sharded column scales toward the core count while the
/// coarse column stays flat; on a single core both are flat (thread
/// parallelism cannot exceed the hardware), so the CI gate runs on
/// multi-core runners.
fn e25_contention_scaling(bench: &mut Vec<(String, String)>) {
    banner(
        "E25",
        "contention scaling: sharded locks scale with threads on disjoint keys; the coarse-lock baseline serializes",
    );
    const THREADS: &[usize] = &[1, 2, 4, 8];
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("(hardware threads available: {cores})");

    /// Run `threads` workers, each performing `ops_per_thread` calls of
    /// `op(worker_index, iteration)`; aggregate wall-clock ops/sec.
    fn drive(threads: usize, ops_per_thread: u64, op: impl Fn(usize, u64) + Sync) -> f64 {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for t in 0..threads {
                let op = &op;
                s.spawn(move || {
                    for i in 0..ops_per_thread {
                        op(t, i);
                    }
                });
            }
        });
        (threads as u64 * ops_per_thread) as f64 / t0.elapsed().as_secs_f64().max(1e-9)
    }

    fn fmt_ops(v: f64) -> String {
        if v >= 1e6 {
            format!("{:.2}M/s", v / 1e6)
        } else {
            format!("{:.1}k/s", v / 1e3)
        }
    }

    let max_threads = *THREADS.last().expect("thread counts");
    let value = vec![0u8; 64];

    // -- Jiffy KV: per-app namespaces (sharded) vs baseline::GlobalStore --
    let jiffy = Jiffy::new(
        JiffyConfig {
            blocks_per_node: 4096,
            ..Default::default()
        },
        Arc::new(WallClock::new()),
    );
    let kvs: Vec<_> = (0..max_threads)
        .map(|t| {
            jiffy
                .create_kv(format!("/e25-app{t}/kv").as_str(), 4)
                .expect("create kv")
        })
        .collect();
    let jiffy_run = |threads: usize| {
        drive(threads, 20_000, |t, i| {
            let key = (i % 256).to_le_bytes();
            kvs[t].put(&key, &value).expect("put");
            let _ = kvs[t].get(&key).expect("get");
        })
    };
    let global = GlobalStore::new(4);
    let tenants: Vec<String> = (0..max_threads).map(|t| format!("e25-app{t}")).collect();
    let jiffy_coarse_run = |threads: usize| {
        drive(threads, 20_000, |t, i| {
            let key = (i % 256).to_le_bytes();
            global.put(&tenants[t], &key, &value);
            let _ = global.get(&tenants[t], &key);
        })
    };

    // -- Pulsar publish: sharded topic/ledger maps vs one global mutex ----
    let cluster = PulsarCluster::new(
        PulsarConfig {
            max_entries_per_ledger: 1 << 20,
            ..PulsarConfig::default()
        },
        WallClock::shared(),
    );
    let producers: Vec<_> = (0..max_threads)
        .map(|t| {
            let topic = format!("e25/t{t}");
            cluster.create_topic(&topic, 1).expect("topic");
            cluster.producer(&topic).expect("producer")
        })
        .collect();
    let pulsar_run = |threads: usize| {
        drive(threads, 10_000, |t, i| {
            producers[t].send(&i.to_le_bytes()).expect("publish");
        })
    };
    let coarse_cluster = PulsarCluster::new(
        PulsarConfig {
            max_entries_per_ledger: 1 << 20,
            ..PulsarConfig::default()
        },
        WallClock::shared(),
    );
    let coarse_producers: Vec<_> = (0..max_threads)
        .map(|t| {
            let topic = format!("e25c/t{t}");
            coarse_cluster.create_topic(&topic, 1).expect("topic");
            coarse_cluster.producer(&topic).expect("producer")
        })
        .collect();
    let publish_gate = std::sync::Mutex::new(());
    let pulsar_coarse_run = |threads: usize| {
        drive(threads, 10_000, |t, i| {
            let _g = publish_gate.lock().expect("gate");
            coarse_producers[t].send(&i.to_le_bytes()).expect("publish");
        })
    };

    // -- FaaS invoke: sharded warm pool vs one global mutex ---------------
    let platform = FaasPlatform::new(
        PlatformConfig {
            cold_start: LatencyModel::Constant(Duration::ZERO),
            warm_start: LatencyModel::Constant(Duration::ZERO),
            ..PlatformConfig::default()
        },
        Arc::new(WallClock::new()),
    );
    for t in 0..max_threads {
        platform
            .register(FunctionSpec::new(
                format!("f{t}"),
                "e25",
                |_| Ok(Vec::new()),
            ))
            .expect("register");
    }
    let fnames: Vec<String> = (0..max_threads).map(|t| format!("f{t}")).collect();
    let faas_run = |threads: usize| {
        drive(threads, 5_000, |t, _| {
            platform.invoke(&fnames[t], Vec::new()).expect("invoke");
        })
    };
    let invoke_gate = std::sync::Mutex::new(());
    let faas_coarse_run = |threads: usize| {
        drive(threads, 5_000, |t, _| {
            let _g = invoke_gate.lock().expect("gate");
            platform.invoke(&fnames[t], Vec::new()).expect("invoke");
        })
    };

    // -- Metrics counters: striped cells vs a mutex-guarded u64 -----------
    let registry = MetricsRegistry::new();
    let counter = registry.counter("e25_ops");
    let metrics_run = |threads: usize| drive(threads, 500_000, |_, _| counter.inc());
    let coarse_count = std::sync::Mutex::new(0u64);
    let metrics_coarse_run = |threads: usize| {
        drive(threads, 500_000, |_, _| {
            *coarse_count.lock().expect("count") += 1;
        })
    };

    // -- drive everything and report --------------------------------------
    let subsystems: Vec<(&str, Vec<f64>, Vec<f64>)> = vec![
        (
            "jiffy kv",
            THREADS.iter().map(|&n| jiffy_run(n)).collect(),
            THREADS.iter().map(|&n| jiffy_coarse_run(n)).collect(),
        ),
        (
            "pulsar publish",
            THREADS.iter().map(|&n| pulsar_run(n)).collect(),
            THREADS.iter().map(|&n| pulsar_coarse_run(n)).collect(),
        ),
        (
            "faas invoke",
            THREADS.iter().map(|&n| faas_run(n)).collect(),
            THREADS.iter().map(|&n| faas_coarse_run(n)).collect(),
        ),
        (
            "metrics counter",
            THREADS.iter().map(|&n| metrics_run(n)).collect(),
            THREADS.iter().map(|&n| metrics_coarse_run(n)).collect(),
        ),
    ];

    let scaling = |rates: &[f64]| rates[2] / rates[0].max(1e-9); // 1 → 4 threads
    let mut t = Table::new([
        "subsystem",
        "variant",
        "1 thr",
        "2 thr",
        "4 thr",
        "8 thr",
        "1→4 scaling",
    ]);
    for (name, sharded, coarse) in &subsystems {
        t.row([
            name.to_string(),
            "sharded".to_string(),
            fmt_ops(sharded[0]),
            fmt_ops(sharded[1]),
            fmt_ops(sharded[2]),
            fmt_ops(sharded[3]),
            format!("{:.2}x", scaling(sharded)),
        ]);
        t.row([
            name.to_string(),
            "coarse lock".to_string(),
            fmt_ops(coarse[0]),
            fmt_ops(coarse[1]),
            fmt_ops(coarse[2]),
            fmt_ops(coarse[3]),
            format!("{:.2}x", scaling(coarse)),
        ]);
    }
    t.print();
    println!(
        "(jiffy coarse baseline is baseline::GlobalStore — the retained single-mutex path; \
         other coarse rows drive the same code through one global mutex)"
    );

    let json_rates = |rates: &[f64]| {
        rates
            .iter()
            .map(|r| format!("{r:.1}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let subsystem_json = subsystems
        .iter()
        .map(|(name, sharded, coarse)| {
            let key = name.replace(' ', "_");
            format!(
                "    \"{key}\": {{\"sharded_ops_per_sec\": [{}], \"coarse_ops_per_sec\": [{}], \
                 \"sharded_scaling_1_to_4\": {:.3}, \"coarse_scaling_1_to_4\": {:.3}}}",
                json_rates(sharded),
                json_rates(coarse),
                scaling(sharded),
                scaling(coarse)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    bench.push((
        "e25".to_string(),
        format!(
            "{{\n    \"cores\": {cores},\n    \"threads\": [1, 2, 4, 8],\n    \
             \"subsystems\": {{\n{subsystem_json}\n    }}\n  }}"
        ),
    ));
}

/// E26 — the data plane moves payloads by reference and the broker
/// amortises ledger group commits across producer-side batches: publish
/// throughput grows with batch size, a Jiffy read allocates nothing, and a
/// DAG fan-out passes one buffer to every child instead of one copy each.
fn e26_zero_copy_batching(bench: &mut Vec<(String, String)>) {
    banner(
        "E26",
        "zero-copy data plane: batched publish amortises ledger appends; Jiffy reads and DAG fan-out edges allocate nothing per payload",
    );

    const BATCH_SIZES: &[usize] = &[1, 8, 64, 256];
    // Large enough that each throughput point measures tens of
    // milliseconds rather than single-digit noise.
    const MSGS: usize = 65536;
    const PAYLOAD: usize = 256;

    let payloads: Vec<Vec<u8>> = (0..MSGS)
        .map(|i| {
            let mut v = vec![0u8; PAYLOAD];
            v[..8].copy_from_slice(&(i as u64).to_le_bytes());
            v
        })
        .collect();

    // -- Pulsar: publish + dispatch throughput vs producer batch size -----
    let mut publish_rates: Vec<f64> = Vec::new();
    let mut dispatch_rates: Vec<f64> = Vec::new();
    let mut appends_per_msg: Vec<f64> = Vec::new();
    let mut publish_alloc_b_per_msg: Vec<f64> = Vec::new();
    for &b in BATCH_SIZES {
        let cluster = PulsarCluster::new(
            PulsarConfig {
                max_entries_per_ledger: 1 << 20,
                ..PulsarConfig::default()
            },
            WallClock::shared(),
        );
        cluster.create_topic("e26", 1).expect("topic");
        let p = cluster.producer("e26").expect("producer");
        let t0 = Instant::now();
        let (_, alloc_bytes) = alloc_delta(|| {
            for chunk in payloads.chunks(b) {
                if b == 1 {
                    p.send(&chunk[0]).expect("send");
                } else {
                    p.send_batch(chunk).expect("send_batch");
                }
            }
        });
        publish_rates.push(MSGS as f64 / t0.elapsed().as_secs_f64().max(1e-9));
        publish_alloc_b_per_msg.push(alloc_bytes as f64 / MSGS as f64);
        let appended = if b == 1 {
            MSGS as u64
        } else {
            cluster.metrics().counter("batch_entries_appended").get()
        };
        appends_per_msg.push(appended as f64 / MSGS as f64);

        let mut consumer = cluster
            .subscribe("e26", "s", SubscriptionMode::Exclusive)
            .expect("subscribe");
        let t1 = Instant::now();
        let mut got = 0usize;
        loop {
            let ms = consumer.receive_batch(512).expect("receive_batch");
            if ms.is_empty() {
                break;
            }
            for m in &ms {
                assert_eq!(m.payload.len(), PAYLOAD);
                consumer.ack(m.id).expect("ack");
            }
            got += ms.len();
        }
        assert_eq!(got, MSGS);
        dispatch_rates.push(MSGS as f64 / t1.elapsed().as_secs_f64().max(1e-9));
    }

    let fmt_rate = |v: f64| {
        if v >= 1e6 {
            format!("{:.2}M/s", v / 1e6)
        } else {
            format!("{:.1}k/s", v / 1e3)
        }
    };
    let mut t = Table::new([
        "batch",
        "publish",
        "dispatch",
        "ledger appends/msg",
        "alloc B/msg (publish)",
    ]);
    for (i, &b) in BATCH_SIZES.iter().enumerate() {
        t.row([
            format!("{b}"),
            fmt_rate(publish_rates[i]),
            fmt_rate(dispatch_rates[i]),
            format!("{:.4}", appends_per_msg[i]),
            format!("{:.0}", publish_alloc_b_per_msg[i]),
        ]);
    }
    t.print();
    println!(
        "(one ledger entry per batch: a batch of {} costs {:.1}% of the appends \
         unbatched publishing pays; payload {} B, {} messages per point)",
        64,
        100.0 * appends_per_msg[2] / appends_per_msg[0],
        PAYLOAD,
        MSGS
    );

    // -- Jiffy: allocations per read on the refcounted block store --------
    let jiffy = Jiffy::new(
        JiffyConfig {
            blocks_per_node: 4096,
            ..Default::default()
        },
        Arc::new(WallClock::new()),
    );
    let kv = jiffy.create_kv("/e26/kv", 2).expect("kv");
    for k in 0u64..256 {
        kv.put(&k.to_le_bytes(), &payloads[0]).expect("put");
    }
    const OPS: u64 = 50_000;
    let (get_allocs, _) = alloc_delta(|| {
        for i in 0..OPS {
            let v = kv.get(&(i % 256).to_le_bytes()).expect("get").expect("hit");
            std::hint::black_box(&v);
        }
    });
    let file = jiffy.create_file("/e26/file").expect("file");
    file.append(&vec![7u8; 64 * 1024]).expect("append");
    let (read_allocs, _) = alloc_delta(|| {
        for i in 0..OPS {
            let v = file.read((i % 60) * 1024, 4096).expect("read");
            std::hint::black_box(&v);
        }
    });
    let get_per_op = get_allocs as f64 / OPS as f64;
    let read_per_op = read_allocs as f64 / OPS as f64;
    println!(
        "\njiffy allocations/op over {OPS} warm ops: kv get {get_per_op:.3}, \
         file read (4 KB within a chunk) {read_per_op:.3} \
         (a get clones a refcount, not the value; a within-chunk read is a slice)"
    );

    // -- DAG fan-out: bytes allocated per root-payload byte ---------------
    // One root produces an N-byte buffer; eight children each digest it;
    // a sink gathers the digests. With refcounted edges the run's
    // payload-proportional allocation is the root's own buffer — a copy
    // factor near 1.0. Per-edge copies would push it toward 1 + width.
    let platform = FaasPlatform::new(
        PlatformConfig {
            cold_start: LatencyModel::Constant(Duration::ZERO),
            warm_start: LatencyModel::Constant(Duration::ZERO),
            ..PlatformConfig::default()
        },
        Arc::new(WallClock::new()),
    );
    platform
        .register(FunctionSpec::new("produce", "e26", |ctx| {
            let n = u64::from_le_bytes(ctx.payload[..].try_into().map_err(|_| "bad input")?);
            Ok(vec![5u8; n as usize])
        }))
        .expect("register");
    platform
        .register(FunctionSpec::new("digest", "e26", |ctx| {
            let sum: u64 = ctx.payload.iter().map(|&b| b as u64).sum();
            Ok(sum.to_le_bytes().to_vec())
        }))
        .expect("register");
    platform
        .register(FunctionSpec::new("gather", "e26", |ctx| {
            let parts = frame::unpack(&ctx.payload).ok_or("malformed frame")?;
            Ok(parts.concat())
        }))
        .expect("register");
    const WIDTH: usize = 8;
    let children: Vec<String> = (0..WIDTH).map(|i| format!("d{i}")).collect();
    let mut builder = DagBuilder::new().node("root", "produce", &[]);
    for c in &children {
        builder = builder.node(c.as_str(), "digest", &["root"]);
    }
    let child_refs: Vec<&str> = children.iter().map(String::as_str).collect();
    let dag = builder
        .node("gather", "gather", &child_refs)
        .build()
        .expect("dag");
    let executor = DagExecutor::new(&platform).with_config(ExecutorConfig {
        max_parallelism: 1,
        retry: RetryPolicy::none(),
        checkpoint: false,
        data_passing: DataPassing::Inline,
    });
    let run_bytes = |label: &str, n: u64| {
        let (_, bytes) = alloc_delta(|| {
            executor
                .run(&dag, label, &n.to_le_bytes())
                .expect("fan-out run");
        });
        bytes as f64
    };
    // Warm the container pool so the measured runs pay no one-time setup.
    let _ = run_bytes("e26-warmup", 4096);
    let small = 4096u64;
    let large = 262_144u64;
    let b_small = run_bytes("e26-small", small);
    let b_large = run_bytes("e26-large", large);
    let copy_factor = (b_large - b_small) / (large - small) as f64;
    println!(
        "dag fan-out (width {WIDTH}): {:.2} bytes allocated per root-payload byte \
         (1.0 = the root buffer itself; per-edge copying would cost ~{}.0)",
        copy_factor,
        1 + WIDTH
    );

    bench.push((
        "e26".to_string(),
        format!(
            "{{\n    \"payload_bytes\": {PAYLOAD},\n    \"messages\": {MSGS},\n    \
             \"batch_sizes\": [1, 8, 64, 256],\n    \
             \"publish_msgs_per_sec\": [{}],\n    \
             \"dispatch_msgs_per_sec\": [{}],\n    \
             \"ledger_appends_per_msg\": [{}],\n    \
             \"publish_alloc_bytes_per_msg\": [{}],\n    \
             \"jiffy_get_allocs_per_op\": {get_per_op:.3},\n    \
             \"jiffy_read_allocs_per_op\": {read_per_op:.3},\n    \
             \"dag_fanout_width\": {WIDTH},\n    \
             \"dag_fanout_alloc_bytes_per_payload_byte\": {copy_factor:.3}\n  }}",
            publish_rates
                .iter()
                .map(|r| format!("{r:.1}"))
                .collect::<Vec<_>>()
                .join(", "),
            dispatch_rates
                .iter()
                .map(|r| format!("{r:.1}"))
                .collect::<Vec<_>>()
                .join(", "),
            appends_per_msg
                .iter()
                .map(|r| format!("{r:.4}"))
                .collect::<Vec<_>>()
                .join(", "),
            publish_alloc_b_per_msg
                .iter()
                .map(|r| format!("{r:.1}"))
                .collect::<Vec<_>>()
                .join(", "),
        ),
    ));
}

/// Fixed output path for E27's machine-readable numbers: CI gates read it
/// even when the combined `--bench-json` file is not requested.
const BENCH_E27_PATH: &str = "BENCH_e27.json";

/// E27 — the observability pipeline over the E26 data plane: (a) the
/// always-on lock profiler costs <5% on the publish hot path, (b) one
/// causal trace follows publish → dispatch → invoke across crates and the
/// critical-path analyzer attributes the consumer hop, (c) dispatch-side
/// phase attribution names the bottleneck (cursor bookkeeping vs. the
/// topic-shard lock vs. entry read/decode/deliver) with per-lock wait
/// times from the contention profiler.
fn e27_observability_pipeline(bench: &mut Vec<(String, String)>) {
    banner(
        "E27",
        "observability pipeline: <5% profiler overhead, causal publish→dispatch→invoke traces, and a named dispatch-side bottleneck",
    );

    const MSGS: usize = 8192;
    const PAYLOAD: usize = 256;
    const REPS: usize = 7;
    const BATCH: usize = 64;
    const TRACED: usize = 256;

    let payloads: Vec<Vec<u8>> = (0..MSGS)
        .map(|i| {
            let mut v = vec![0u8; PAYLOAD];
            v[..8].copy_from_slice(&(i as u64).to_le_bytes());
            v
        })
        .collect();

    // -- (a) profiler overhead on the E26 unbatched publish workload ------
    // A LockSite is attached per cluster (set-once), so each run gets a
    // fresh cluster; runs are interleaved and the minimum over REPS taken
    // so the comparison measures the instrumentation, not scheduler noise.
    // An unattached site is the same code path the `lock-prof` feature
    // compiles out entirely (one relaxed pointer load), so attached vs.
    // unattached bounds the feature-on vs. feature-off cost from above.
    let run_publish = |profiled: bool| -> Duration {
        let cluster = PulsarCluster::new(
            PulsarConfig {
                max_entries_per_ledger: 1 << 20,
                ..PulsarConfig::default()
            },
            WallClock::shared(),
        );
        let prof = ContentionProfiler::new();
        if profiled {
            cluster.enable_contention_profiling(&prof);
        }
        cluster.create_topic("e27", 1).expect("topic");
        let p = cluster.producer("e27").expect("producer");
        let t0 = Instant::now();
        for pl in &payloads {
            p.send(pl).expect("send");
        }
        t0.elapsed()
    };
    let mut base = Duration::MAX;
    let mut instr = Duration::MAX;
    for _ in 0..REPS {
        base = base.min(run_publish(false));
        instr = instr.min(run_publish(true));
    }
    let overhead_pct = (instr.as_secs_f64() / base.as_secs_f64() - 1.0) * 100.0;
    let fmt_rate = |d: Duration| {
        let v = MSGS as f64 / d.as_secs_f64().max(1e-9);
        if v >= 1e6 {
            format!("{:.2}M/s", v / 1e6)
        } else {
            format!("{:.1}k/s", v / 1e3)
        }
    };
    let mut t = Table::new(["profiler", "publish (min of 7)", "rate"]);
    t.row(["off".into(), fmt_dur(base), fmt_rate(base)]);
    t.row(["on".into(), fmt_dur(instr), fmt_rate(instr)]);
    t.print();
    println!(
        "lock-profiler overhead: {overhead_pct:+.2}% on {MSGS} unbatched publishes \
         (gate: <5%; an unattached site ≈ the compiled-out `lock-prof` path)"
    );

    // -- (b) causal trace + critical path across the crates ---------------
    let clock: SharedClock = WallClock::shared();
    let tracer = Tracer::new(clock.clone());
    let cluster = PulsarCluster::new(PulsarConfig::default(), clock.clone());
    cluster.set_tracer(tracer.clone());
    let faas = FaasPlatform::new(PlatformConfig::deterministic(), clock);
    faas.set_tracer(tracer.clone());
    faas.register(FunctionSpec::new("handle", "e27", |ctx| {
        Ok(ctx.payload.to_vec())
    }))
    .expect("register");
    cluster.create_topic("jobs", 1).expect("topic");
    let p = cluster.producer("jobs").expect("producer");
    let mut consumer = cluster
        .subscribe("jobs", "workers", SubscriptionMode::Exclusive)
        .expect("subscribe");
    for pl in payloads.iter().take(TRACED) {
        p.send(pl).expect("send");
    }
    let mut invoked = 0usize;
    loop {
        let ms = consumer.receive_batch(64).expect("receive_batch");
        if ms.is_empty() {
            break;
        }
        for m in &ms {
            faas.invoke_traced("handle", m.payload.clone(), m.ctx)
                .expect("invoke");
            consumer.ack(m.id).expect("ack");
            invoked += 1;
        }
    }
    assert_eq!(invoked, TRACED);
    let spans = tracer.spans();
    let graph = TraceGraph::build(spans);
    let traces = graph.traces().len();
    println!(
        "\ntraced {TRACED} messages end to end: {} spans across {traces} traces",
        graph.len()
    );
    let flat = graph.self_time_by_name();
    let mut t = Table::new(["span (flat profile)", "self time"]);
    for (name, d) in flat.iter().take(6) {
        t.row([name.clone(), fmt_dur(*d)]);
    }
    t.print();
    // The publish root's window closes before the consumer hop starts, so
    // the interesting path is the invoke subtree: analyze the slowest one.
    let invoke_idx = (0..graph.len())
        .filter(|&i| graph.span(i).name == "faas.invoke")
        .max_by_key(|&i| graph.span(i).duration())
        .expect("faas.invoke span");
    let cp = CriticalPath::compute_from(&graph, invoke_idx);
    let cp_total = cp.total;
    let cp_top = cp
        .top_name(&graph)
        .map(|(n, _)| n)
        .unwrap_or_else(|| "none".into());
    println!("\n{}", render::render_critical_path(&graph, &cp));

    // -- (c) dispatch-side attribution under concurrent publishers --------
    // Batched producers on four threads race the draining consumer for the
    // topic-shard lock, so both profilers see real contention. The phase
    // clock's checkpoint intervals are disjoint within the measured wall,
    // so `explained ≤ wall` by construction and the ≥80% gate is a real
    // measurement of attribution coverage, not an identity.
    let cluster = PulsarCluster::new(
        PulsarConfig {
            max_entries_per_ledger: 1 << 20,
            ..PulsarConfig::default()
        },
        WallClock::shared(),
    );
    let lock_prof = ContentionProfiler::new();
    let site = cluster.enable_contention_profiling(&lock_prof);
    cluster.set_dispatch_profiling(true);
    cluster.create_topic("e27", 1).expect("topic");
    let producer = cluster.producer("e27").expect("producer");
    let mut consumer = cluster
        .subscribe("e27", "s", SubscriptionMode::Exclusive)
        .expect("subscribe");
    const WRITERS: usize = 4;
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let producer = &producer;
            let payloads = &payloads;
            s.spawn(move || {
                for chunk in
                    payloads[w * (MSGS / WRITERS)..(w + 1) * (MSGS / WRITERS)].chunks(BATCH)
                {
                    producer.send_batch(chunk).expect("send_batch");
                }
            });
        }
        let mut got = 0usize;
        while got < MSGS {
            let ms = consumer.receive_batch(512).expect("receive_batch");
            if ms.is_empty() {
                std::thread::yield_now();
                continue;
            }
            for m in &ms {
                consumer.ack(m.id).expect("ack");
            }
            got += ms.len();
        }
    });
    let dp = cluster.dispatch_profile();
    let explained = dp.explained_fraction();
    let (top_phase, top_ns) = dp.top_phase();
    let mut t = Table::new(["dispatch phase", "time", "% of wall"]);
    for (name, ns) in dp.phases() {
        t.row([
            name.to_string(),
            fmt_dur(Duration::from_nanos(ns)),
            format!("{:.1}%", 100.0 * ns as f64 / dp.wall_ns.max(1) as f64),
        ]);
    }
    t.print();
    println!(
        "dispatch wall {} over {} scans / {} messages; {:.1}% attributed \
         (gate: ≥80%); bottleneck: {top_phase} ({})",
        fmt_dur(Duration::from_nanos(dp.wall_ns)),
        dp.scans,
        dp.messages,
        100.0 * explained,
        fmt_dur(Duration::from_nanos(top_ns)),
    );
    let snap = site.snapshot();
    let report = ContentionReport::new(lock_prof.snapshots());
    println!("\n{}", report.render());

    let phase_json = dp
        .phases()
        .iter()
        .map(|(name, ns)| format!("\"{name}\": {ns}"))
        .collect::<Vec<_>>()
        .join(", ");
    let fragment = format!(
        "{{\n    \"overhead_msgs\": {MSGS},\n    \"overhead_reps\": {REPS},\n    \
         \"profiling_overhead_pct\": {overhead_pct:.2},\n    \
         \"traced_messages\": {TRACED},\n    \"spans_recorded\": {},\n    \
         \"traces\": {traces},\n    \
         \"invoke_critical_path_us\": {:.1},\n    \
         \"invoke_critical_path_top\": \"{cp_top}\",\n    \
         \"dispatch_messages\": {},\n    \"dispatch_scans\": {},\n    \
         \"dispatch_wall_ns\": {},\n    \
         \"dispatch_explained_fraction\": {explained:.4},\n    \
         \"dispatch_phase_ns\": {{{phase_json}}},\n    \
         \"top_dispatch_phase\": \"{top_phase}\",\n    \
         \"lock_site\": \"{}\",\n    \"lock_acquisitions\": {},\n    \
         \"lock_contended\": {},\n    \"lock_wait_ns\": {},\n    \
         \"lock_hold_ns_estimate\": {}\n  }}",
        graph.len(),
        cp_total.as_secs_f64() * 1e6,
        dp.messages,
        dp.scans,
        dp.wall_ns,
        snap.name,
        snap.acquisitions,
        snap.contended,
        snap.wait_total.as_nanos(),
        snap.hold_total_estimate().as_nanos(),
    );
    std::fs::write(BENCH_E27_PATH, format!("{{\n  \"e27\": {fragment}\n}}\n")).unwrap_or_else(
        |e| {
            eprintln!("failed to write {BENCH_E27_PATH}: {e}");
            std::process::exit(1);
        },
    );
    println!("bench JSON written to {BENCH_E27_PATH}");
    bench.push(("e27".to_string(), fragment));
}

const BENCH_E28_PATH: &str = "BENCH_e28.json";

/// E28 — the multi-node cluster fabric under rolling failures: 5 brokers
/// behind a lossy simulated network serve a publish → dispatch → invoke
/// loop while one broker at a time is killed (rolling, at most 1-of-5
/// down) and one bookie dies permanently mid-run. Reports virtual-time
/// tail latency (the p99/max capture failover windows), end-to-end
/// operation availability (gate: ≥99%), background re-replication
/// converging back to the replication factor before the run ends, one
/// causal trace spanning the failover, and an elastic Jiffy leave with
/// no data loss.
fn e28_cluster_failover(bench: &mut Vec<(String, String)>) {
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

    let fragment = format!(
        "{{\n    \"requests\": {REQUESTS},\n    \"broker_kills\": {broker_kills},\n    \
         \"bookie_kills\": {bookie_kills},\n    \"ops_attempted\": {attempts},\n    \
         \"ops_succeeded\": {successes},\n    \"availability\": {availability:.5},\n    \
         \"publish_p50_us\": {},\n    \"publish_p99_us\": {},\n    \"publish_max_us\": {},\n    \
         \"e2e_p50_us\": {},\n    \"e2e_p99_us\": {},\n    \"e2e_max_us\": {},\n    \
         \"underreplicated_peak\": {underreplicated_peak},\n    \
         \"underreplicated_end\": {underreplicated_end},\n    \
         \"repair_rounds\": {repair_rounds},\n    \
         \"cross_failover_trace_ok\": {cross_failover_trace_ok},\n    \
         \"trace_spans\": {},\n    \"dropped_spans\": {dropped},\n    \
         \"jiffy_blocks_moved\": {},\n    \"jiffy_data_intact\": {jiffy_intact}\n  }}",
        pct(&pub_sorted, 0.50).as_micros(),
        pct(&pub_sorted, 0.99).as_micros(),
        pub_sorted.last().copied().unwrap_or_default().as_micros(),
        pct(&e2e_sorted, 0.50).as_micros(),
        pct(&e2e_sorted, 0.99).as_micros(),
        e2e_sorted.last().copied().unwrap_or_default().as_micros(),
        in_trace.len(),
        migration.blocks_moved,
    );
    std::fs::write(BENCH_E28_PATH, format!("{{\n  \"e28\": {fragment}\n}}\n")).unwrap_or_else(
        |e| {
            eprintln!("failed to write {BENCH_E28_PATH}: {e}");
            std::process::exit(1);
        },
    );
    println!("bench JSON written to {BENCH_E28_PATH}");
    bench.push(("e28".to_string(), fragment));
}

const BENCH_E29_PATH: &str = "BENCH_e29.json";

/// E29 — the cluster observability plane under rolling failures: 5
/// brokers serve 8 topics over a lossy network while one broker is made
/// grey-slow (client links only — heartbeats unaffected), three rolling
/// owner kills and one permanent bookie loss are injected, and the
/// collector — fed exclusively by telemetry that rode the same faulty
/// wire — reconstructs every incident. Reports per-incident MTTD/MTTR
/// with phase attribution (gate: explained ≥90% of each unavailability
/// window), grey-detector lead time and precision (gates: zero false
/// positives on the healthy phase, grey broker flagged while heartbeats
/// still vouch for it), and exact telemetry loss accounting (gate:
/// sent = received + detected-dropped after sync).
fn e29_cluster_observability(bench: &mut Vec<(String, String)>) {
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

    let incidents_json = timeline
        .incidents
        .iter()
        .map(|inc| {
            format!(
                "{{\n      \"id\": \"{}\",\n      \"kind\": \"{}\",\n      \
                 \"mttd_us\": {},\n      \"mttr_us\": {},\n      \"wall_us\": {},\n      \
                 \"detection_us\": {},\n      \"release_us\": {},\n      \
                 \"rebuild_us\": {},\n      \"drain_us\": {},\n      \
                 \"unattributed_us\": {},\n      \"explained_fraction\": {:.5}\n    }}",
                inc.id,
                match inc.kind {
                    IncidentKind::Broker => "broker",
                    IncidentKind::Bookie => "bookie",
                },
                inc.mttd().map(|d| d.as_micros()).unwrap_or(0),
                inc.mttr().as_micros(),
                inc.wall().as_micros(),
                inc.phase(OutagePhase::Detection).as_micros(),
                inc.phase(OutagePhase::Release).as_micros(),
                inc.phase(OutagePhase::SubscriptionRebuild).as_micros(),
                inc.phase(OutagePhase::RereplicationDrain).as_micros(),
                inc.phase(OutagePhase::Unattributed).as_micros(),
                inc.explained_fraction(),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n    ");
    let fragment = format!(
        "{{\n    \"incidents\": [\n    {incidents_json}\n    ],\n    \
         \"attribution_min_fraction\": {min_explained:.5},\n    \
         \"mean_mttd_us\": {},\n    \"mean_mttr_us\": {},\n    \
         \"grey_flagged\": {},\n    \"grey_lead_ms\": {:.3},\n    \
         \"grey_control_alive_at_flag\": {control_alive_at_flag},\n    \
         \"grey_precision\": {grey_precision:.3},\n    \
         \"healthy_false_positives\": {healthy_false_positives},\n    \
         \"telemetry_sent\": {},\n    \"telemetry_received\": {},\n    \
         \"telemetry_dropped\": {},\n    \"telemetry_pending_lost\": {},\n    \
         \"telemetry_synced\": {synced},\n    \"loss_exact\": {},\n    \
         \"blackbox_dumps\": {blackbox_dumps},\n    \
         \"repair_rounds\": {repair_rounds}\n  }}",
        timeline.mean_mttd().map(|d| d.as_micros()).unwrap_or(0),
        timeline.mean_mttr().map(|d| d.as_micros()).unwrap_or(0),
        grey_flag_at.is_some(),
        grey_lead.map(|d| d.as_secs_f64() * 1e3).unwrap_or(-1.0),
        loss.sent,
        loss.received,
        loss.dropped,
        loss.pending_lost,
        loss.exact(),
    );
    std::fs::write(BENCH_E29_PATH, format!("{{\n  \"e29\": {fragment}\n}}\n")).unwrap_or_else(
        |e| {
            eprintln!("failed to write {BENCH_E29_PATH}: {e}");
            std::process::exit(1);
        },
    );
    println!("bench JSON written to {BENCH_E29_PATH}");
    bench.push(("e29".to_string(), fragment));
}

const BENCH_E30_PATH: &str = "BENCH_e30.json";

/// E30 — the read-mostly data plane (the ISSUE 9 refactor, ROADMAP item
/// 3): consumers commit their cursor once per `receive_batch` instead of
/// once per message and entry reads serve from immutable segment caches.
/// Three measurements gate it: (a) dispatch throughput must scale with
/// consumer batch size, (b) the dispatch-phase profile must no longer top
/// out in `entry_read` (E27's bottleneck), and (c) Jiffy's warm KV get —
/// the bound object's lock, past the control plane — must allocate nothing.
fn e30_read_path(bench: &mut Vec<(String, String)>) {
    banner(
        "E30",
        "read-mostly data plane: batched cursor commits, cached entry reads, alloc-free warm get",
    );

    const BATCH_SIZES: &[usize] = &[1, 8, 64, 256];
    // Large enough that each throughput point measures tens of
    // milliseconds — the batch-speedup gate rides on the batch-1 point,
    // which is noise-prone on small windows.
    const MSGS: usize = 65536;
    const PAYLOAD: usize = 256;
    let payloads: Vec<Vec<u8>> = (0..MSGS)
        .map(|i| {
            let mut v = vec![0u8; PAYLOAD];
            v[..8].copy_from_slice(&(i as u64).to_le_bytes());
            v
        })
        .collect();

    // -- (a) dispatch throughput vs consumer batch size -------------------
    // Publishing is batched at 64 throughout; only the consumer-side batch
    // (and with it the cursor-commit granularity: one durable write per
    // `ack_batch`) varies. E26 measured this flat at ~1.5M msgs/s because
    // every message paid its own cursor persistence.
    let mut dispatch_rates: Vec<f64> = Vec::new();
    for &b in BATCH_SIZES {
        let cluster = PulsarCluster::new(
            PulsarConfig {
                max_entries_per_ledger: 1 << 20,
                ..PulsarConfig::default()
            },
            WallClock::shared(),
        );
        cluster.create_topic("e30", 1).expect("topic");
        let p = cluster.producer("e30").expect("producer");
        for chunk in payloads.chunks(64) {
            p.send_batch(chunk).expect("send_batch");
        }
        let mut consumer = cluster
            .subscribe("e30", "s", SubscriptionMode::Exclusive)
            .expect("subscribe");
        let t0 = Instant::now();
        let mut got = 0usize;
        loop {
            let ms = consumer.receive_batch(b).expect("receive_batch");
            if ms.is_empty() {
                break;
            }
            let ids: Vec<_> = ms.iter().map(|m| m.id).collect();
            consumer.ack_batch(&ids).expect("ack_batch");
            got += ms.len();
        }
        assert_eq!(got, MSGS);
        dispatch_rates.push(MSGS as f64 / t0.elapsed().as_secs_f64().max(1e-9));
    }
    let batch_speedup = dispatch_rates[2] / dispatch_rates[0].max(1e-9);

    let fmt_rate = |v: f64| {
        if v >= 1e6 {
            format!("{:.2}M/s", v / 1e6)
        } else {
            format!("{:.1}k/s", v / 1e3)
        }
    };
    let mut t = Table::new(["consumer batch", "dispatch", "cursor commits/msg"]);
    for (i, &b) in BATCH_SIZES.iter().enumerate() {
        t.row([
            format!("{b}"),
            fmt_rate(dispatch_rates[i]),
            format!("{:.4}", 1.0 / b as f64),
        ]);
    }
    t.print();
    println!(
        "dispatch at batch 64 is {batch_speedup:.2}x batch 1 (gate: >= 3x); \
         one ack-bookkeeping write per receive_batch"
    );

    // -- (b) dispatch-phase re-attribution (E27's shape, new read path) ---
    let cluster = PulsarCluster::new(
        PulsarConfig {
            max_entries_per_ledger: 1 << 20,
            ..PulsarConfig::default()
        },
        WallClock::shared(),
    );
    cluster.set_dispatch_profiling(true);
    cluster.create_topic("e30", 1).expect("topic");
    let producer = cluster.producer("e30").expect("producer");
    let mut consumer = cluster
        .subscribe("e30", "s", SubscriptionMode::Exclusive)
        .expect("subscribe");
    const WRITERS: usize = 4;
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let producer = &producer;
            let payloads = &payloads;
            s.spawn(move || {
                for chunk in payloads[w * (MSGS / WRITERS)..(w + 1) * (MSGS / WRITERS)].chunks(64) {
                    producer.send_batch(chunk).expect("send_batch");
                }
            });
        }
        let mut got = 0usize;
        while got < MSGS {
            let ms = consumer.receive_batch(512).expect("receive_batch");
            if ms.is_empty() {
                std::thread::yield_now();
                continue;
            }
            let ids: Vec<_> = ms.iter().map(|m| m.id).collect();
            consumer.ack_batch(&ids).expect("ack_batch");
            got += ms.len();
        }
    });
    let dp = cluster.dispatch_profile();
    let (top_phase, top_ns) = dp.top_phase();
    let mut t = Table::new(["dispatch phase", "time", "% of wall"]);
    for (name, ns) in dp.phases() {
        t.row([
            name.to_string(),
            fmt_dur(Duration::from_nanos(ns)),
            format!("{:.1}%", 100.0 * ns as f64 / dp.wall_ns.max(1) as f64),
        ]);
    }
    t.print();
    println!(
        "bottleneck: {top_phase} ({}); gate: entry_read no longer the top phase \
         (E27 attributed {} of {} to it)",
        fmt_dur(Duration::from_nanos(top_ns)),
        fmt_dur(Duration::from_micros(2692)),
        fmt_dur(Duration::from_micros(6029)),
    );

    // -- (c) allocation gate ------------------------------------------------
    // Jiffy's warm KV get: a bound handle locks its object directly and
    // hands out a refcounted view of the stored value.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    const ALLOC_OPS: u64 = 50_000;
    let jiffy = Jiffy::new(
        JiffyConfig {
            blocks_per_node: 4096,
            ..Default::default()
        },
        Arc::new(WallClock::new()),
    );
    let kv = jiffy.create_kv("/e30/kv", 4).expect("kv");
    for k in 0u64..256 {
        kv.put(&k.to_le_bytes(), &payloads[0]).expect("put");
    }
    let (kv_allocs, _) = alloc_delta(|| {
        for i in 0..ALLOC_OPS {
            let v = kv.get(&(i % 256).to_le_bytes()).expect("get").expect("hit");
            std::hint::black_box(&v);
        }
    });

    println!(
        "jiffy warm get: {:.4} allocs/op ({cores} cores; gate: 0)",
        kv_allocs as f64 / ALLOC_OPS as f64,
    );

    let rates_json = dispatch_rates
        .iter()
        .map(|r| format!("{r:.1}"))
        .collect::<Vec<_>>()
        .join(", ");
    let phase_json = dp
        .phases()
        .iter()
        .map(|(name, ns)| format!("\"{name}\": {ns}"))
        .collect::<Vec<_>>()
        .join(", ");
    let fragment = format!(
        "{{\n    \"batch_sizes\": [1, 8, 64, 256],\n    \
         \"dispatch_msgs_per_sec\": [{rates_json}],\n    \
         \"dispatch_batch64_over_batch1\": {batch_speedup:.3},\n    \
         \"dispatch_messages\": {},\n    \"dispatch_scans\": {},\n    \
         \"dispatch_wall_ns\": {},\n    \
         \"dispatch_phase_ns\": {{{phase_json}}},\n    \
         \"top_dispatch_phase\": \"{top_phase}\",\n    \
         \"cores\": {cores},\n    \
         \"jiffy_warm_get_allocs_per_op\": {:.4}\n  }}",
        dp.messages,
        dp.scans,
        dp.wall_ns,
        kv_allocs as f64 / ALLOC_OPS as f64,
    );
    std::fs::write(BENCH_E30_PATH, format!("{{\n  \"e30\": {fragment}\n}}\n")).unwrap_or_else(
        |e| {
            eprintln!("failed to write {BENCH_E30_PATH}: {e}");
            std::process::exit(1);
        },
    );
    println!("bench JSON written to {BENCH_E30_PATH}");
    bench.push(("e30".to_string(), fragment));
}

const BENCH_E31_PATH: &str = "BENCH_e31.json";

/// E31 — decode-amortized delivery (ISSUE 10): the batched ledger entry
/// is the unit of dispatch. `receive_entries` parses each entry's framing
/// exactly once into an [`EntryView`]; every message inside is an O(1)
/// refcount-only slice, and cursor bookkeeping is the only work left
/// under the topic-shard lock. Three measurements gate it: (a) dispatch
/// throughput at consumer batch 64 must reach 5x batch 1 (E30 stalled at
/// ~3.4x because decode and per-message spans still ran under the lock),
/// (b) the decode phase must account for < 15% of dispatch wall and must
/// not be the top phase, and (c) iterating an already-received view's
/// payloads and ids must allocate nothing.
fn e31_entry_view_dispatch(bench: &mut Vec<(String, String)>) {
    banner(
        "E31",
        "decode-amortized delivery: whole-entry views, out-of-lock dispatch",
    );

    const BATCH_SIZES: &[usize] = &[1, 8, 64, 256];
    const MSGS: usize = 65536;
    const PAYLOAD: usize = 256;
    let payloads: Vec<Vec<u8>> = (0..MSGS)
        .map(|i| {
            let mut v = vec![0u8; PAYLOAD];
            v[..8].copy_from_slice(&(i as u64).to_le_bytes());
            v
        })
        .collect();
    let make_loaded = || {
        let cluster = PulsarCluster::new(
            PulsarConfig {
                max_entries_per_ledger: 1 << 20,
                ..PulsarConfig::default()
            },
            WallClock::shared(),
        );
        cluster.create_topic("e31", 1).expect("topic");
        let p = cluster.producer("e31").expect("producer");
        for chunk in payloads.chunks(64) {
            p.send_batch(chunk).expect("send_batch");
        }
        cluster
    };

    // -- (a) entry-view dispatch throughput vs consumer batch size --------
    // Publishing is batched at 64 throughout; the consumer pulls whole
    // entry views, touches every payload (the consumer-side read), and
    // acks entry-at-a-time. One framing parse and one pending-map update
    // per ENTRY, not per message.
    let mut dispatch_rates: Vec<f64> = Vec::new();
    let mut views: Vec<EntryView> = Vec::new();
    for &b in BATCH_SIZES {
        let cluster = make_loaded();
        let mut consumer = cluster
            .subscribe("e31", "s", SubscriptionMode::Exclusive)
            .expect("subscribe");
        let t0 = Instant::now();
        let mut got = 0usize;
        loop {
            let n = consumer
                .receive_entries_into(b, &mut views)
                .expect("receive_entries");
            if n == 0 {
                break;
            }
            for view in &views {
                for mv in view.messages() {
                    std::hint::black_box(&mv.payload()[..]);
                }
            }
            consumer.ack_entries(&views).expect("ack_entries");
            got += n;
        }
        assert_eq!(got, MSGS);
        dispatch_rates.push(MSGS as f64 / t0.elapsed().as_secs_f64().max(1e-9));
    }
    let batch_speedup = dispatch_rates[2] / dispatch_rates[0].max(1e-9);

    let fmt_rate = |v: f64| {
        if v >= 1e6 {
            format!("{:.2}M/s", v / 1e6)
        } else {
            format!("{:.1}k/s", v / 1e3)
        }
    };
    let mut t = Table::new(["consumer batch", "dispatch", "framing parses/msg"]);
    for (i, &b) in BATCH_SIZES.iter().enumerate() {
        t.row([
            format!("{b}"),
            fmt_rate(dispatch_rates[i]),
            format!("{:.4}", 1.0 / (b.min(64)) as f64),
        ]);
    }
    t.print();
    println!(
        "dispatch at batch 64 is {batch_speedup:.2}x batch 1 (gate: >= 5x; \
         E30's per-message pipeline reached 3.37x)"
    );

    // -- (b) dispatch-phase attribution on the entry-view path ------------
    // Same profile counters as E27/E30, but decode is now the
    // once-per-entry framing parse, out from under the per-message loop:
    // its share of the end-to-end dispatch wall (receive + payload
    // iteration + entry-granular ack) must collapse.
    let cluster = make_loaded();
    cluster.set_dispatch_profiling(true);
    let mut consumer = cluster
        .subscribe("e31", "s", SubscriptionMode::Exclusive)
        .expect("subscribe");
    let loop_t0 = Instant::now();
    let mut got = 0usize;
    while got < MSGS {
        let n = consumer
            .receive_entries_into(512, &mut views)
            .expect("receive_entries");
        assert!(n > 0, "expected {MSGS} messages, got {got}");
        for view in &views {
            for mv in view.messages() {
                std::hint::black_box(&mv.payload()[..]);
            }
        }
        consumer.ack_entries(&views).expect("ack_entries");
        got += n;
    }
    let loop_wall_ns = loop_t0.elapsed().as_nanos() as u64;
    let dp = cluster.dispatch_profile();
    let (top_phase, top_ns) = dp.top_phase();
    let decode_share = dp.decode_ns as f64 / loop_wall_ns.max(1) as f64;
    let mut t = Table::new(["dispatch phase", "time", "% of scan wall"]);
    for (name, ns) in dp.phases() {
        t.row([
            name.to_string(),
            fmt_dur(Duration::from_nanos(ns)),
            format!("{:.1}%", 100.0 * ns as f64 / dp.wall_ns.max(1) as f64),
        ]);
    }
    t.print();
    println!(
        "decode (once-per-entry framing parse) is {:.1}% of the {} dispatch \
         loop (gate: < 15%); top scan phase: {top_phase} ({})",
        100.0 * decode_share,
        fmt_dur(Duration::from_nanos(loop_wall_ns)),
        fmt_dur(Duration::from_nanos(top_ns)),
    );

    // -- (c) zero-allocation view iteration -------------------------------
    // Consuming an already-received view — payload slices and batch-indexed
    // ids — must be pure pointer work. Receive once, then measure only the
    // iteration.
    let cluster = make_loaded();
    let mut consumer = cluster
        .subscribe("e31", "s", SubscriptionMode::Exclusive)
        .expect("subscribe");
    let n = consumer
        .receive_entries_into(MSGS, &mut views)
        .expect("receive_entries");
    assert_eq!(n, MSGS);
    let held = std::mem::take(&mut views);
    const ITERS: u64 = 64;
    let (iter_allocs, _) = alloc_delta(|| {
        for _ in 0..ITERS {
            for view in &held {
                for mv in view.messages() {
                    std::hint::black_box(&mv.payload()[..]);
                    std::hint::black_box(mv.id());
                }
            }
        }
    });
    let iter_ops = ITERS * MSGS as u64;
    let iter_allocs_per_op = iter_allocs as f64 / iter_ops as f64;
    println!(
        "view iteration: {iter_allocs} allocs over {iter_ops} message visits \
         ({iter_allocs_per_op:.6}/op; gate: 0)"
    );

    let rates_json = dispatch_rates
        .iter()
        .map(|r| format!("{r:.1}"))
        .collect::<Vec<_>>()
        .join(", ");
    let phase_json = dp
        .phases()
        .iter()
        .map(|(name, ns)| format!("\"{name}\": {ns}"))
        .collect::<Vec<_>>()
        .join(", ");
    let fragment = format!(
        "{{\n    \"batch_sizes\": [1, 8, 64, 256],\n    \
         \"dispatch_msgs_per_sec\": [{rates_json}],\n    \
         \"dispatch_batch64_over_batch1\": {batch_speedup:.3},\n    \
         \"dispatch_messages\": {},\n    \"dispatch_scans\": {},\n    \
         \"dispatch_wall_ns\": {},\n    \
         \"dispatch_loop_wall_ns\": {loop_wall_ns},\n    \
         \"dispatch_phase_ns\": {{{phase_json}}},\n    \
         \"top_dispatch_phase\": \"{top_phase}\",\n    \
         \"decode_share\": {decode_share:.4},\n    \
         \"view_iter_allocs_per_op\": {iter_allocs_per_op:.6}\n  }}",
        dp.messages, dp.scans, dp.wall_ns,
    );
    std::fs::write(BENCH_E31_PATH, format!("{{\n  \"e31\": {fragment}\n}}\n")).unwrap_or_else(
        |e| {
            eprintln!("failed to write {BENCH_E31_PATH}: {e}");
            std::process::exit(1);
        },
    );
    println!("bench JSON written to {BENCH_E31_PATH}");
    bench.push(("e31".to_string(), fragment));
}
