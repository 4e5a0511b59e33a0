//! What the benchmark prints and writes: every metric by name with its
//! unit, the per-layer budget table, the environment a number was taken
//! in, and the machine-readable forms (driver line, results file).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;

use crate::harness::{RunResult, SEGMENTS};
use crate::schema::{self, END_TO_END};
use crate::stats::Summary;
use crate::trace::{self, Layer};

/// Where a number was taken: a result without this is not comparable.
pub struct Environment {
    pub nproc: usize,
    pub threads: usize,
    pub loadavg_1m: f64,
    pub rustc: String,
    pub commit: String,
    pub seed: u64,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Environment {
    pub fn capture(seed: u64, threads: usize) -> Self {
        let loadavg_1m = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok())
            .unwrap_or(-1.0);
        Self {
            nproc: nproc(),
            threads,
            loadavg_1m,
            rustc: command_line("rustc", &["-V"]),
            commit: command_line("git", &["rev-parse", "HEAD"]),
            seed,
        }
    }

    pub fn print(&self) {
        println!(
            "environment: nproc {}  T {}  loadavg(1m) {:.2}  {}  commit {}  seed {}",
            self.nproc, self.threads, self.loadavg_1m, self.rustc, self.commit, self.seed
        );
    }

    fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"T\": {}, \"loadavg_1m\": {}, \"rustc\": \"{}\", \"commit\": \"{}\", \"seed\": {}}}",
            self.nproc, self.threads, self.loadavg_1m, self.rustc, self.commit, self.seed
        )
    }
}

/// Directory for traces and results (`benchmark/out/`, git-ignored).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// The end-to-end value of `name` in a run, with its in-run noise range.
pub fn end_to_end(r: &RunResult, name: &str) -> Summary {
    match name {
        "throughput_rps" => r.timing.throughput_rps,
        "setup_s" => Summary::min_of(&r.setups),
        other => panic!("unknown end-to-end metric {other}"),
    }
}

/// The client-observed latencies: reported, not gated (`schema::END_TO_END`).
fn latencies(r: &RunResult) -> [(&'static str, Summary); 2] {
    [
        ("latency_p50_us", r.timing.latency_p50_us),
        ("latency_p99_us", r.timing.latency_p99_us),
    ]
}

pub fn is_degenerate(r: &RunResult) -> bool {
    r.workload == "pipeline_contended" && r.clients == 1
}

pub fn print_end_to_end(r: &RunResult) {
    println!(
        "\n== {} ==  closed loop, {} client(s), T = {}{}",
        r.workload,
        r.clients,
        r.threads,
        if is_degenerate(r) {
            "  ** DEGENERATE: nproc == 1, nothing contends; this regime was NOT measured **"
        } else {
            ""
        }
    );
    for m in END_TO_END {
        let s = end_to_end(r, m.name);
        println!(
            "  {:<16} {:>14.4} {:<4} ({} {:.4} .. {:.4})",
            m.name,
            s.value,
            m.unit,
            if m.name == "setup_s" {
                "set-ups"
            } else {
                "segments"
            },
            s.min,
            s.max
        );
    }
    for (name, s) in latencies(r) {
        println!(
            "  {name:<16} {:>14.4} us   (segments {:.4} .. {:.4}; not gated)",
            s.value, s.min, s.max
        );
    }
    println!(
        "  {:<16} {:>14.6} ratio ({} failed of {} attempted)",
        "fail_ratio",
        r.fail_ratio(),
        r.failed,
        r.attempted
    );
    if let Some(ms) = r.recovery_ms() {
        println!("  {:<16} {:>14.4} ms   (virtual time)", "recovery_ms", ms);
    }
    println!(
        "  {} of {SEGMENTS} segments kept; all segments' median throughput {:.4} ({:.0} % of the kept ones')",
        r.quiet.min(SEGMENTS),
        r.timing.all_segments_rps,
        100.0 * r.timing.all_segments_rps / r.timing.throughput_rps.value
    );
    println!(
        "  cpu steal during the run {:.2} %;  {} latency samples{}",
        100.0 * r.steal_share,
        r.timing.samples,
        if r.timing.samples < 1000 {
            "  ** fewer than 1000: p99 is under-sampled **"
        } else {
            ""
        }
    );
    for note in &r.notes {
        println!("  oracle: {note}");
    }
}

/// The traced run's budget: `layer | calls/req | self µs/req | share`.
pub fn print_budget(r: &RunResult) {
    let get = |k: &str| r.layer.get(k).copied().unwrap_or(0.0);
    let mut rows: Vec<(&str, f64, f64)> = Layer::ALL
        .iter()
        .map(|l| {
            (
                l.name(),
                get(&format!("{}.calls", l.name())),
                get(&format!("{}.us", l.name())),
            )
        })
        .filter(|row| row.1 > 0.0)
        .collect();
    rows.sort_by(|a, b| b.2.total_cmp(&a.2));
    let total: f64 = rows.iter().map(|row| row.2).sum();
    println!("\n  -- {} per-layer budget (traced run) --", r.workload);
    println!(
        "  {:<24} {:>12} {:>14} {:>8}",
        "layer", "calls/req", "self us/req", "share"
    );
    for (name, calls, us) in &rows {
        println!(
            "  {name:<24} {calls:>12.4} {us:>14.4} {:>7.1}%",
            100.0 * us / total.max(f64::MIN_POSITIVE)
        );
    }
    println!(
        "  trace.explained {:.3}{}   trace.overhead {:.3}   traced throughput {:.1} req/s",
        get("trace.explained"),
        if r.clients == 1 && get("trace.explained") < 0.90 {
            " ** below the 0.90 bar **"
        } else {
            ""
        },
        get("trace.overhead"),
        r.timing.throughput_rps.value,
    );
    for (k, v) in &r.layer {
        let is_span = k.ends_with(".us") || k.ends_with(".calls");
        if !is_span && !k.starts_with("trace.") {
            println!("  {k:<44} {v:>16.6}");
        }
    }
}

/// The driver's last line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn driver_line(r: &RunResult) -> String {
    let mut metrics = String::new();
    let mut push = |name: &str, value: f64, unit: &str| {
        if !metrics.is_empty() {
            metrics.push_str(", ");
        }
        write!(
            metrics,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("write");
    };
    if r.traced {
        for m in schema::per_layer() {
            // A layer a workload never enters did 0 µs of work in 0 calls.
            push(
                &m.name,
                r.layer.get(&m.name).copied().unwrap_or(0.0),
                m.unit,
            );
        }
    } else {
        for m in END_TO_END {
            push(m.name, end_to_end(r, m.name).value, m.unit);
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed
    )
}

pub fn write_trace(r: &RunResult) -> PathBuf {
    let path = out_dir().join(format!("trace-{}.json", r.workload));
    std::fs::write(&path, trace::chrome_json(&r.spans)).expect("write trace");
    path
}

fn result_json(untraced: &RunResult, traced: &RunResult) -> String {
    let mut s = format!(
        "    {{\"workload\": \"{}\", \"clients\": {}, \"T\": {}, \"degenerate\": {}, \"attempted\": {}, \"failed\": {}, \"fail_ratio\": {},\n     \"end_to_end\": {{",
        untraced.workload,
        untraced.clients,
        untraced.threads,
        is_degenerate(untraced),
        untraced.attempted + traced.attempted,
        untraced.failed + traced.failed,
        untraced.fail_ratio().max(traced.fail_ratio()),
    );
    for (i, m) in END_TO_END.iter().enumerate() {
        let v = end_to_end(untraced, m.name);
        let sep = if i > 0 { ", " } else { "" };
        write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"min\": {}, \"max\": {}}}",
            m.name, v.value, m.unit, v.min, v.max
        )
        .expect("write");
    }
    for (name, v) in latencies(untraced) {
        write!(
            s,
            ", \"{name}\": {{\"value\": {}, \"unit\": \"us\", \"min\": {}, \"max\": {}, \"gated\": false}}",
            v.value, v.min, v.max
        )
        .expect("write");
    }
    if let Some(ms) = untraced.recovery_ms() {
        write!(
            s,
            ", \"recovery_ms\": {{\"value\": {ms}, \"unit\": \"ms\"}}"
        )
        .expect("write");
    }
    s.push_str("},\n     \"per_layer\": {");
    for (i, (k, v)) in traced.layer.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        write!(s, "{sep}\"{k}\": {v}").expect("write");
    }
    s.push_str("}}");
    s
}

/// `benchmark/out/results.json`: every metric of every workload, with the
/// environment. This issue claims no gain, so the file ends `"claim": null`.
pub fn write_results(env: &Environment, runs: &[(RunResult, RunResult)]) -> PathBuf {
    let rows: Vec<String> = runs.iter().map(|(u, t)| result_json(u, t)).collect();
    let body = format!(
        "{{\n  \"environment\": {},\n  \"results\": [\n{}\n  ],\n  \"claim\": null\n}}\n",
        env.json(),
        rows.join(",\n")
    );
    let path = out_dir().join("results.json");
    std::fs::write(&path, body).expect("write results");
    path
}
