//! The closed-loop runner shared by all workloads: repeated timed set-up,
//! fixed warm-up, a measured window split into short segments,
//! the traced second look, and the oracle.
//!
//! Load model: closed loop. Each in-process client sends its next request
//! only after the previous one completed and was verified; the stack has
//! no admission queue of its own to overrun.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::stats::{self, Segment, Timing};
use crate::trace::{self, SpanRecord};
use crate::{alloc, schema};

/// Back-to-back segments per measured window (0.25 s each at the default
/// 15 s). Many short ones: the host's slow plateaus last seconds, and short
/// segments fall on one side of a plateau's edge or the other.
pub const SEGMENTS: usize = 60;
/// Segments a window's summary keeps unless the workload says otherwise:
/// the tenth of highest throughput (see `stats::summarize`).
pub const QUIET_SEGMENTS: usize = SEGMENTS / 10;
/// The untraced window is measured in this many stretches with one timed
/// set-up between each two, and two more before and after: seven set-ups
/// at five moments spread over the run, so that one slow plateau of the
/// host does not hold them all. `setup_s` is the fastest of them.
const STRETCHES: usize = 4;
/// Set-ups before the window (the last one's instance is the one
/// measured) and after the oracle.
const SETUPS_AROUND: usize = 2;
/// Share of a traced run spent untraced, right after the traced window
/// and on the same instance, to have a throughput taken under the same
/// conditions to compare the traced one with (`trace.overhead`).
const REFERENCE_SHARE: f64 = 0.3;

/// What a workload's counters were measured over.
pub struct Window {
    pub requests: u64,
    pub wall_s: f64,
    pub clients: usize,
}

/// What the oracle found after the window.
#[derive(Default)]
pub struct Finish {
    /// Requests issued after the window (drains, the fault phase).
    pub attempted: u64,
    /// Requests or oracle checks that failed.
    pub failed: u64,
    /// One line per oracle, for the report.
    pub notes: Vec<String>,
    /// Layer metrics only known at the end (`cluster.recovery_ms`, …).
    pub layer: Vec<(&'static str, f64)>,
}

impl Finish {
    /// Record one oracle check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, what: String) {
        self.failed += u64::from(!ok);
        self.notes
            .push(format!("{} {what}", if ok { "ok  " } else { "FAIL" }));
    }
}

pub trait Workload: Sync + Sized {
    const NAME: &'static str;
    /// Requests of the fixed warm-up, counted into `setup_s`.
    const WARMUP: usize;
    /// With one client the state after warm-up is a function of the seed,
    /// so counters read over the first `EXACT` traced requests repeat
    /// exactly; 0 when there is no such window (more than one client).
    const EXACT: u64;
    /// Segments of a window its summary keeps. A workload whose throughput
    /// moves with regimes of its own, not only with the host, keeps all.
    const QUIET: usize = QUIET_SEGMENTS;
    type Client: Send;

    /// Build the stack from the seed: construct, register, prefill.
    /// `threads` is `T`; `traced` turns on the stack's own profilers.
    fn setup(seed: u64, threads: usize, traced: bool) -> (Self, Vec<Self::Client>);
    /// One closed-loop request; true when it completed and verified.
    fn request(&self, client: &mut Self::Client) -> bool;
    /// Cumulative counters from the stack's public accessors.
    fn raw(&self, _client: &Self::Client) -> Vec<u64> {
        Vec::new()
    }
    /// Layer metrics from a counter delta over `window`.
    fn derive(&self, _delta: &[u64], _window: &Window) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
    /// The oracle: compare final state with the reference model.
    fn finish(self, clients: Vec<Self::Client>, traced: bool) -> Finish;
}

#[derive(Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub threads: usize,
    pub traced: bool,
}

pub struct RunResult {
    pub workload: &'static str,
    pub traced: bool,
    pub clients: usize,
    pub threads: usize,
    /// Segments the timing was taken over (`Workload::QUIET`).
    pub quiet: usize,
    /// Every timed set-up; `setup_s` is the fastest.
    pub setups: Vec<f64>,
    /// Share of the machine's CPU time the hypervisor stole during the run.
    pub steal_share: f64,
    pub timing: Timing,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// Span and counter metrics on traced runs; end-of-run ones always.
    pub layer: BTreeMap<String, f64>,
    pub spans: Vec<SpanRecord>,
}

impl RunResult {
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn recovery_ms(&self) -> Option<f64> {
        self.layer.get("cluster.recovery_ms").copied()
    }
}

struct ClientOut {
    segments: Vec<Vec<u32>>,
    attempted: u64,
    failed: u64,
}

/// Cumulative counters at one instant: the window's start, its end, or
/// (client 0, single-client workloads) its `EXACT`-th traced request.
struct Snap {
    raw: Vec<u64>,
    allocs: (u64, u64),
}

fn client_loop<W: Workload>(
    w: &W,
    c: &mut W::Client,
    index: usize,
    bounds: &[Instant],
    reserve: usize,
    mut exact: Option<&mut Option<Snap>>,
) -> ClientOut {
    let nseg = bounds.len() - 1;
    let mut out = ClientOut {
        segments: (0..nseg).map(|_| Vec::with_capacity(reserve)).collect(),
        attempted: 0,
        failed: 0,
    };
    let mut seg = 0;
    loop {
        trace::begin_request(((index as u64) << 48) | out.attempted);
        let t0 = Instant::now();
        let ok = w.request(c);
        let t1 = Instant::now();
        out.attempted += 1;
        out.failed += u64::from(!ok);
        while seg < nseg && t1 >= bounds[seg + 1] {
            seg += 1;
        }
        if seg == nseg {
            break; // completed after the window closed: verified, not timed
        }
        let ns = (t1 - t0).as_nanos().min(u128::from(u32::MAX)) as u32;
        out.segments[seg].push(ns);
        if out.attempted == W::EXACT {
            if let Some(slot) = exact.as_deref_mut() {
                *slot = Some(Snap {
                    raw: w.raw(c),
                    allocs: alloc::counts(),
                });
            }
        }
    }
    trace::flush_thread();
    out
}

struct Measured {
    segments: Vec<Segment>,
    attempted: u64,
    failed: u64,
    wall_s: f64,
    exact: Option<Snap>,
}

/// One measured window of `seconds`, split into `nseg` segments, on every
/// client at once.
fn window<W: Workload>(
    w: &W,
    clients: &mut [W::Client],
    seconds: f64,
    nseg: usize,
    rate_hint: f64,
    want_exact: bool,
) -> Measured {
    let seg_len = Duration::from_secs_f64(seconds / nseg as f64);
    let reserve = (rate_hint * seg_len.as_secs_f64() * 2.0) as usize / clients.len() + 4096;
    let mut exact = None;
    let start = Instant::now();
    let bounds: Vec<Instant> = (0..=nseg).map(|i| start + seg_len * i as u32).collect();
    let outs: Vec<ClientOut> = if let [only] = clients {
        let slot = (want_exact && W::EXACT > 0).then_some(&mut exact);
        vec![client_loop(w, only, 0, &bounds, reserve, slot)]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(i, c)| {
                    let bounds = &bounds;
                    s.spawn(move || client_loop(w, c, i, bounds, reserve, None))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    };
    let wall_s = start.elapsed().as_secs_f64();
    let mut segments: Vec<Segment> = (0..nseg)
        .map(|_| Segment {
            latencies_ns: Vec::new(),
            seconds: seg_len.as_secs_f64(),
        })
        .collect();
    let (mut attempted, mut failed) = (0, 0);
    for out in outs {
        attempted += out.attempted;
        failed += out.failed;
        for (dst, src) in segments.iter_mut().zip(out.segments) {
            dst.latencies_ns.extend(src);
        }
    }
    Measured {
        segments,
        attempted,
        failed,
        wall_s,
        exact,
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, total)` CPU ticks of the whole machine so far. Steal is time
/// the hypervisor ran someone else: noise no median can fully remove, so
/// every result says how much of it the run saw.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (
        fields.get(7).copied().unwrap_or(0),
        fields.iter().take(8).sum(),
    )
}

/// The traced window and its untraced reference, on a warmed-up instance:
/// span and counter metrics into `layer`, sampled span records returned.
fn traced_window<W: Workload>(
    w: &W,
    clients: &mut [W::Client],
    seconds: f64,
    rate_hint: f64,
    layer: &mut BTreeMap<String, f64>,
) -> (Measured, Measured, Vec<SpanRecord>) {
    let snap = |w: &W, clients: &[W::Client]| Snap {
        raw: w.raw(&clients[0]),
        allocs: alloc::counts(),
    };
    let start = snap(w, clients);
    alloc::set_counting(true);
    trace::set_enabled(true);
    let traced_s = seconds * (1.0 - REFERENCE_SHARE);
    let mut m = window(w, clients, traced_s, SEGMENTS, rate_hint, true);
    trace::set_enabled(false);
    alloc::set_counting(false);
    let data = trace::take();

    // Counters: over the exact window when there is one, so that counts
    // repeat; otherwise over everything traced.
    let (end, requests) = match m.exact.take() {
        Some(exact) => (exact, W::EXACT),
        None => (snap(w, clients), m.attempted),
    };
    let win = Window {
        requests,
        wall_s: m.wall_s * requests as f64 / m.attempted as f64,
        clients: clients.len(),
    };
    let raw: Vec<u64> = end
        .raw
        .iter()
        .zip(&start.raw)
        .map(|(e, s)| e.saturating_sub(*s))
        .collect();
    for (name, v) in w.derive(&raw, &win) {
        layer.insert(name.to_string(), v);
    }
    let per_req = |end: u64, start: u64| (end - start) as f64 / requests as f64;
    layer.insert(
        "core.alloc.allocs_per_req".into(),
        per_req(end.allocs.0, start.allocs.0),
    );
    layer.insert(
        "core.alloc.bytes_per_req".into(),
        per_req(end.allocs.1, start.allocs.1),
    );

    // Spans: over everything traced.
    let mut self_ns = 0u64;
    for (l, agg) in &data.layers {
        self_ns += agg.self_ns;
        let per_req = |v: u64| v as f64 / m.attempted as f64;
        layer.insert(format!("{}.us", l.name()), per_req(agg.self_ns) / 1e3);
        layer.insert(format!("{}.calls", l.name()), per_req(agg.calls));
    }
    layer.insert(
        "trace.explained".into(),
        self_ns as f64 / 1e9 / (m.wall_s * clients.len() as f64),
    );

    let reference = window(w, clients, seconds * REFERENCE_SHARE, 1, rate_hint, false);
    let rps = |m: &Measured| m.attempted as f64 / m.wall_s;
    layer.insert("trace.overhead".into(), 1.0 - rps(&m) / rps(&reference));
    (m, reference, data.records)
}

/// One timed set-up with its fixed warm-up: the instance and the warm-up's
/// request rate (a hint for sizing the sample buffers).
fn set_up<W: Workload>(
    opts: &Opts,
    setups: &mut Vec<f64>,
    failed: &mut u64,
) -> (W, Vec<W::Client>, f64) {
    let t0 = Instant::now();
    let (w, mut clients) = W::setup(opts.seed, opts.threads, opts.traced);
    let warm0 = Instant::now();
    for i in 0..W::WARMUP {
        let n = clients.len();
        *failed += u64::from(!w.request(&mut clients[i % n]));
    }
    setups.push(t0.elapsed().as_secs_f64());
    let warm_rate = W::WARMUP as f64 / warm0.elapsed().as_secs_f64();
    (w, clients, warm_rate)
}

pub fn measure<W: Workload>(opts: &Opts) -> RunResult {
    let ticks0 = cpu_ticks();
    // Set up several times; keep the last instance. An instance is dropped
    // outside the timed region.
    let mut setups = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut kept = None;
    for _ in 0..SETUPS_AROUND {
        drop(kept.take());
        kept = Some(set_up::<W>(opts, &mut setups, &mut failed));
    }
    let (w, mut clients, warm_rate) = kept.expect("at least one set-up");
    let nclients = clients.len();

    let mut layer = BTreeMap::new();
    let mut spans = Vec::new();
    let m = if opts.traced {
        let (m, reference, records) =
            traced_window(&w, &mut clients, opts.seconds, warm_rate, &mut layer);
        attempted += reference.attempted;
        failed += reference.failed;
        spans = records;
        m
    } else {
        let (seconds, nseg) = (opts.seconds / STRETCHES as f64, SEGMENTS / STRETCHES);
        let mut whole = window(&w, &mut clients, seconds, nseg, warm_rate, false);
        for _ in 1..STRETCHES {
            drop(set_up::<W>(opts, &mut setups, &mut failed));
            let next = window(&w, &mut clients, seconds, nseg, warm_rate, false);
            whole.segments.extend(next.segments);
            whole.attempted += next.attempted;
            whole.failed += next.failed;
            whole.wall_s += next.wall_s;
        }
        whole
    };
    attempted += m.attempted;
    failed += m.failed;
    let mut segments = m.segments;
    let timing = stats::summarize(&mut segments, W::QUIET);

    let fin = w.finish(clients, opts.traced);
    attempted += fin.attempted;
    failed += fin.failed;
    for _ in 0..SETUPS_AROUND {
        drop(set_up::<W>(opts, &mut setups, &mut failed));
    }
    attempted += (setups.len() * W::WARMUP) as u64;
    // End-of-run layer metrics are kept on untraced runs too: `run` and
    // `aa` gate `cluster.recovery_ms` there.
    for (name, v) in fin.layer {
        layer.insert(name.to_string(), v);
    }
    let ticks1 = cpu_ticks();
    let steal_share = (ticks1.0 - ticks0.0) as f64 / (ticks1.1 - ticks0.1).max(1) as f64;
    if opts.traced {
        layer.insert("client.latency_p50_us".into(), timing.latency_p50_us.value);
        layer.insert("client.latency_p99_us".into(), timing.latency_p99_us.value);
        layer.insert("proc.peak_rss_mb".into(), peak_rss_mb());
        layer.insert("proc.cpu_steal_share".into(), steal_share);
    }
    // A metric the schema does not list would silently miss the driver line.
    let listed = schema::per_layer();
    assert!(layer.keys().all(|k| listed.iter().any(|m| &m.name == k)));

    RunResult {
        workload: W::NAME,
        traced: opts.traced,
        clients: nclients,
        threads: opts.threads,
        quiet: W::QUIET,
        steal_share,
        setups,
        timing,
        attempted,
        failed,
        notes: fin.notes,
        layer,
        spans,
    }
}
