//! `benchmark`: one wall-clock benchmark for the whole Le Taureau stack.
//!
//! ```text
//! benchmark run (--all | --workload NAME) [--seed N] [--duration S]
//! benchmark aa  [--sets 2] [--seed N] [--duration S]
//! benchmark one --workload NAME --seed N --seconds S --trace 0|1
//! benchmark manifest
//! ```
//!
//! `run` measures each workload untraced, checks its outputs against a
//! reference model, runs it again traced, and prints every metric by name
//! with its unit. `aa` runs complete sets back to back on one build and
//! fails if two sets of the same code disagree by more than the bounds.
//! `one` is the driver's entry point (`BENCHMARK.json`): one workload, one
//! mode, one JSON line. `manifest` prints `BENCHMARK.json`.

mod affinity;
mod alloc;
mod gen;
mod harness;
mod report;
mod schema;
mod stats;
mod trace;
mod workloads;

use std::collections::HashMap;
use std::process::ExitCode;

use harness::{measure, Opts, RunResult};
use schema::{END_TO_END, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Window of the traced second run in `run`/`aa` (traced part plus its
/// untraced reference).
const TRACED_SECONDS: f64 = 6.0;
/// `setup_s` differences below this are noise whatever their ratio.
const SETUP_FLOOR_S: f64 = 0.05;

/// Run the workload called `name` (one of `schema::WORKLOADS`).
fn run_named(name: &'static str, opts: &Opts) -> RunResult {
    use workloads::*;
    match name {
        "pipeline_small" => measure::<pipeline_small::PipelineSmall>(opts),
        "pipeline_contended" => measure::<pipeline_contended::PipelineContended>(opts),
        "stream_sketch" => measure::<stream_sketch::StreamSketch>(opts),
        "replay_catchup" => measure::<replay_catchup::ReplayCatchup>(opts),
        "dag_spill" => measure::<dag_spill::DagSpill>(opts),
        "cluster_stack" => measure::<cluster_stack::ClusterWorkload>(opts),
        other => unreachable!("`{other}` is not in schema::WORKLOADS"),
    }
}

/// `T = min(nproc, 4)`: never more threads than cores.
fn threads() -> usize {
    report::nproc().min(4)
}

struct Args(HashMap<String, String>);

impl Args {
    /// `--key value` pairs; a bare `--flag` maps to the empty string.
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut map = HashMap::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{a}`"))?;
            let value = it.next_if(|v| !v.starts_with("--")).cloned();
            map.insert(key.to_string(), value.unwrap_or_default());
        }
        Ok(Self(map))
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.0.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse `{v}`")),
        }
    }

    fn workload(&self) -> Result<&'static str, String> {
        let name = self.0.get("workload").ok_or("--workload is required")?;
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .find(|n| n == name)
            .ok_or_else(|| format!("unknown workload `{name}`"))
    }
}

/// Untraced then traced run of one workload, printed as it goes.
fn run_pair(name: &'static str, seed: u64, duration: f64) -> (RunResult, RunResult) {
    let mut opts = Opts {
        seed,
        seconds: duration,
        threads: threads(),
        traced: false,
    };
    let untraced = run_named(name, &opts);
    report::print_end_to_end(&untraced);
    opts.traced = true;
    opts.seconds = TRACED_SECONDS.min(duration);
    let traced = run_named(name, &opts);
    report::print_budget(&traced);
    for note in traced.notes.iter().filter(|n| n.starts_with("FAIL")) {
        println!("  oracle (traced run): {note}");
    }
    let path = report::write_trace(&traced);
    println!(
        "  {} sampled spans -> {}",
        traced.spans.len(),
        path.display()
    );
    (untraced, traced)
}

fn run_set(names: &[&'static str], seed: u64, duration: f64) -> Vec<(RunResult, RunResult)> {
    names
        .iter()
        .map(|name| run_pair(name, seed, duration))
        .collect()
}

fn any_failed(set: &[(RunResult, RunResult)]) -> bool {
    set.iter().any(|(u, t)| u.failed + t.failed > 0)
}

fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let seed = args.get("seed", 1u64)?;
    let duration = args.get("duration", schema::RUN_SECONDS as f64)?;
    let names: Vec<&'static str> = if args.0.contains_key("all") {
        WORKLOADS.iter().map(|w| w.name).collect()
    } else {
        vec![args.workload()?]
    };
    let env = report::Environment::capture(seed, threads());
    env.print();
    let set = run_set(&names, seed, duration);
    let path = report::write_results(&env, &set);
    println!("\nresults -> {}", path.display());
    if any_failed(&set) {
        println!("FAILED: at least one request or oracle check failed");
        return Ok(ExitCode::FAILURE);
    }
    println!("all oracles passed, fail_ratio == 0 on every workload");
    Ok(ExitCode::SUCCESS)
}

/// A/A check: complete sets of the same code must agree within the bounds,
/// and exact counts must be identical.
fn cmd_aa(args: &Args) -> Result<ExitCode, String> {
    let seed = args.get("seed", 1u64)?;
    let duration = args.get("duration", schema::RUN_SECONDS as f64)?;
    let sets = args.get("sets", 2usize)?.max(2);
    let names: Vec<&'static str> = WORKLOADS.iter().map(|w| w.name).collect();
    report::Environment::capture(seed, threads()).print();
    let results: Vec<_> = (0..sets)
        .map(|i| {
            println!("\n######## set {} of {sets} ########", i + 1);
            run_set(&names, seed, duration)
        })
        .collect();

    let mut outside = 0;
    println!("\n######## A/A: set 1 against each later set ########");
    println!(
        "{:<20} {:<36} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "set 1", "set n", "diff", "bound"
    );
    let mut row = |workload: &str, metric: &str, a: f64, b: f64, bound: f64, floor: f64| {
        let diff = (b - a) / a.abs().max(f64::MIN_POSITIVE);
        let ok = diff.abs() <= bound || (b - a).abs() <= floor;
        outside += usize::from(!ok);
        println!(
            "{workload:<20} {metric:<36} {a:>14.4} {b:>14.4} {:>+8.2}% {:>6.1}%{}",
            100.0 * diff,
            100.0 * bound,
            if ok { "" } else { "  OUTSIDE" }
        );
    };
    for later in &results[1..] {
        for ((u1, t1), (u2, t2)) in results[0].iter().zip(later) {
            for m in END_TO_END {
                let floor = if m.name == "setup_s" {
                    SETUP_FLOOR_S
                } else {
                    0.0
                };
                let (a, b) = (
                    report::end_to_end(u1, m.name).value,
                    report::end_to_end(u2, m.name).value,
                );
                row(u1.workload, m.name, a, b, m.bound, floor);
            }
            // Any increase of fail_ratio is a regression.
            row(
                u1.workload,
                "fail_ratio",
                u1.fail_ratio(),
                u2.fail_ratio(),
                0.0,
                0.0,
            );
            if let (Some(a), Some(b)) = (u1.recovery_ms(), u2.recovery_ms()) {
                row(
                    u1.workload,
                    "recovery_ms",
                    a,
                    b,
                    schema::RECOVERY_BOUND,
                    0.0,
                );
            }
            for &(name, tolerance) in schema::EXACT {
                if let (Some(&a), Some(&b)) = (t1.layer.get(name), t2.layer.get(name)) {
                    if u1.clients == 1 {
                        row(u1.workload, name, a, b, tolerance, 0.0);
                    }
                }
            }
        }
    }
    let failed = results.iter().any(|set| any_failed(set));
    if failed {
        println!("FAILED: at least one request or oracle check failed");
    }
    if outside > 0 {
        println!("FAILED: {outside} gating pair(s) outside their bound");
    }
    if failed || outside > 0 {
        return Ok(ExitCode::FAILURE);
    }
    println!("A/A passed: every gating pair within its bound, exact counts identical");
    Ok(ExitCode::SUCCESS)
}

/// The driver's entry point; the result is the last line of stdout.
fn cmd_one(args: &Args) -> Result<ExitCode, String> {
    let name = args.workload()?;
    let opts = Opts {
        seed: args.get("seed", 1u64)?,
        seconds: args.get("seconds", schema::RUN_SECONDS as f64)?,
        threads: threads(),
        traced: args.get("trace", 0u8)? != 0,
    };
    let r = run_named(name, &opts);
    report::print_end_to_end(&r);
    if r.traced {
        report::print_budget(&r);
        report::write_trace(&r);
    }
    println!("{}", report::driver_line(&r));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match argv.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => ("", &[][..]),
    };
    let outcome = Args::parse(rest).and_then(|args| match cmd {
        "run" => cmd_run(&args),
        "aa" => cmd_aa(&args),
        "one" => cmd_one(&args),
        "manifest" => {
            print!("{}", schema::manifest());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`")),
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("usage: benchmark run (--all | --workload NAME) [--seed N] [--duration S]");
        eprintln!("       benchmark aa [--sets 2] [--seed N] [--duration S]");
        eprintln!("       benchmark one --workload NAME --seed N --seconds S --trace 0|1");
        eprintln!("       benchmark manifest");
        ExitCode::from(2)
    })
}
