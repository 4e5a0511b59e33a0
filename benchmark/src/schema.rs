//! The benchmark's contract as data: workload names with their reasons,
//! end-to-end metrics with their bounds, per-layer metrics. `BENCHMARK.json`
//! is generated from these tables (`benchmark manifest`) and a test keeps
//! the committed file equal to them.

use crate::trace::Layer;

/// Seconds one driver run measures (`run_seconds` in `BENCHMARK.json`), and
/// the default window of `run` and `aa`. 15 s in 60 segments keeps ≥ 2 000
/// latency samples in the six kept ones on the slowest workload
/// (`cluster_stack`).
pub const RUN_SECONDS: u64 = 15;

pub struct WorkloadDoc {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDoc] = &[
    WorkloadDoc {
        name: "pipeline_small",
        why: "one logical write per request (publish, receive, invoke, KV get+put, ack): every layer pays its per-message fixed cost, nothing is amortized or contended",
    },
    WorkloadDoc {
        name: "pipeline_contended",
        why: "T clients share one topic, one KV object and one function with batched publish and entry-view dispatch: the only place the sharded/lock-free machinery meets real sharing",
    },
    WorkloadDoc {
        name: "stream_sketch",
        why: "the paper's Fig. 3 Count-Min function on the Pulsar-Functions runtime: publish amortized 64x, wall sits in the runtime's receive/ack loop and function state; FaaS and DAG idle",
    },
    WorkloadDoc {
        name: "replay_catchup",
        why: "entry-view scans over a retained log, every 8th pass cold after a broker restart: snapshot cache, offset-table parse and pending map do the work; publish, FaaS, Jiffy idle",
    },
    WorkloadDoc {
        name: "dag_spill",
        why: "prep, 8 maps, gather with 64 KiB intermediates spilled through Jiffy files, checkpoints and completion events: scheduling vs invocation vs data movement, large values",
    },
    WorkloadDoc {
        name: "cluster_stack",
        why: "publish, consume, invoke, ack as four RPCs over a zero-latency SimNet with 5 brokers: prices envelope/codec/lease/membership code; a fixed fault phase yields recovery time",
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference value by which the metric may get worse
    /// before it counts as a regression.
    pub bound: f64,
}

/// The gated metrics: work completed per second, which is what a closed
/// loop measures (`choosing-metrics`: latency limits belong to systems
/// serving requests as they arrive), and set-up time. Both bounds are the
/// contract's maximum, 25 %. The issue asked for 10 %; the 2-vCPU sandbox
/// does not resolve that: between a quiet and a busy half hour of the host
/// the medians of ten runs of unchanged code move by up to 15 % on
/// throughput and 24 % on set-up (the README lists the measured spreads).
///
/// `latency_p50_us` and `latency_p99_us` are measured and printed but
/// **not gated**. With one client waiting for each reply, p50 is
/// throughput told again (mean latency = clients / throughput), so gating
/// it adds a second draw from the same noise and no second fact: in one
/// busy half hour `pipeline_small` spread 19 % on throughput and 26 % on
/// p50. p99 moves 48 % on `cluster_stack` between the two kinds of half
/// hour, twice the widest bound the contract allows. The issue's rule for
/// a metric that cannot meet its bound is to take it out of the gate and
/// say so, not to widen the bound. The driver still records both, from the
/// traced run, as the per-layer metrics `client.latency_p50_us` and
/// `client.latency_p99_us`.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "throughput_rps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Bound on `recovery_ms` in `run`/`aa`: virtual time, seeded and
/// single-threaded, so it repeats exactly and 1 % is already generous.
pub const RECOVERY_BOUND: f64 = 0.01;

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// Counter- and report-derived layer metrics (everything that is not a
/// span's `.us`/`.calls`).
const COUNTERS: &[(&str, &str, Better)] = &[
    ("pulsar.dispatch.lock_share", "ratio", Better::Lower),
    ("pulsar.dispatch.cursor_share", "ratio", Better::Lower),
    ("pulsar.dispatch.read_share", "ratio", Better::Lower),
    ("pulsar.dispatch.decode_share", "ratio", Better::Lower),
    ("pulsar.dispatch.deliver_share", "ratio", Better::Lower),
    (
        "pulsar.ledger.stored_bytes_per_user_byte",
        "ratio",
        Better::Lower,
    ),
    ("pulsar.ledger.entries_per_msg", "ratio", Better::Lower),
    ("faas.cold_starts", "count", Better::Lower),
    ("faas.warm_ratio", "ratio", Better::Higher),
    ("jiffy.file_appends_per_run", "count", Better::Lower),
    ("jiffy.file_reads_per_run", "count", Better::Lower),
    ("jiffy.pool.peak_blocks", "count", Better::Lower),
    ("dag.sched_us", "us", Better::Lower),
    ("dag.spills_per_run", "count", Better::Lower),
    ("dag.retries", "count", Better::Lower),
    ("dag.event_errors", "count", Better::Lower),
    ("core.sync.pulsar_topics.wait_share", "ratio", Better::Lower),
    (
        "core.sync.pulsar_topics.contended_ratio",
        "ratio",
        Better::Lower,
    ),
    ("core.alloc.allocs_per_req", "count", Better::Lower),
    ("core.alloc.bytes_per_req", "bytes", Better::Lower),
    ("cluster.virtual_ms_per_req", "ms", Better::Lower),
    ("cluster.net.envelopes_per_req", "count", Better::Lower),
    ("cluster.recovery_ms", "ms", Better::Lower),
    ("cluster.failover.detect_ms", "ms", Better::Lower),
    ("cluster.failover.release_ms", "ms", Better::Lower),
    ("cluster.failover.rebuild_ms", "ms", Better::Lower),
    ("cluster.failover.explained", "ratio", Better::Higher),
    ("cluster.dup_ratio", "ratio", Better::Lower),
    ("client.latency_p50_us", "us", Better::Lower),
    ("client.latency_p99_us", "us", Better::Lower),
    ("trace.explained", "ratio", Better::Higher),
    ("trace.overhead", "ratio", Better::Lower),
    ("proc.peak_rss_mb", "MB", Better::Lower),
    ("proc.cpu_steal_share", "ratio", Better::Lower),
];

/// Counts that must repeat across runs with one seed, with the tolerance
/// `aa` allows (all other layer metrics are timings or depend on thread
/// interleaving). Allocation counts are not quite exact: Jiffy's read
/// cache and leases refresh on the wall clock, and the DAG executor spawns
/// threads, so a few allocations in 10^5 depend on timing.
pub const EXACT: &[(&str, f64)] = &[
    ("pulsar.ledger.entries_per_msg", 0.0),
    ("pulsar.ledger.stored_bytes_per_user_byte", 0.0),
    ("dag.spills_per_run", 0.0),
    ("cluster.virtual_ms_per_req", 0.0),
    ("core.alloc.allocs_per_req", 0.001),
];

pub fn per_layer() -> Vec<PerLayer> {
    let mut out = Vec::new();
    for l in Layer::ALL {
        out.push(PerLayer {
            name: format!("{}.us", l.name()),
            unit: "us",
            better: Better::Lower,
        });
        out.push(PerLayer {
            name: format!("{}.calls", l.name()),
            unit: "count",
            better: Better::Lower,
        });
    }
    out.extend(COUNTERS.iter().map(|&(name, unit, better)| PerLayer {
        name: name.to_string(),
        unit,
        better,
    }));
    out
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"one\"],\n  \
         \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_limits_meet_the_contract() {
        let layers = per_layer();
        assert!((1..=128).contains(&layers.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(layers.iter().map(|m| m.name.as_str()));
        for n in &names {
            assert!(valid_name(n), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for w in WORKLOADS {
            // One line, and nothing `manifest` would have to escape.
            assert!(w.why.len() <= 200, "{}", w.name);
            assert!(!w.why.contains(['\n', '"', '\\']), "{}", w.name);
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(layers.iter().map(|m| m.unit));
        for u in units {
            assert!(u.len() <= 16);
            assert!(u
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(manifest().len() < 64 * 1024);
        for (e, _) in EXACT {
            assert!(layers.iter().any(|m| m.name == *e), "unknown exact {e}");
        }
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `benchmark manifest > BENCHMARK.json`"
        );
    }
}
