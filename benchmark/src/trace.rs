//! Spans recorded from the benchmark's own files, around each call into a
//! layer. A span has a name (its [`Layer`]), start, end, parent and request
//! id; a layer's *self time* is its span's duration minus the part of that
//! interval its child spans cover. Aggregates (self time, calls) are kept
//! for every request; full span records only for sampled requests, held in
//! memory and written as Chrome-trace JSON when the run ends.
//!
//! Off (the untraced run), a span costs one relaxed load.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

macro_rules! layers {
    ($($variant:ident => $name:literal,)*) => {
        /// One span name per call boundary the benchmark wraps.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum Layer { $($variant,)* }

        impl Layer {
            pub const ALL: &'static [Layer] = &[$(Layer::$variant,)*];
            pub fn name(self) -> &'static str {
                match self { $(Layer::$variant => $name,)* }
            }
        }
    };
}

layers! {
    PulsarPublish => "pulsar.publish",
    PulsarReceive => "pulsar.receive",
    PulsarAck => "pulsar.ack",
    PulsarFunctions => "pulsar.functions",
    PulsarViewIter => "pulsar.view_iter",
    PulsarRedeliver => "pulsar.redeliver",
    PulsarReload => "pulsar.reload",
    PulsarTrim => "pulsar.trim",
    FaasInvoke => "faas.invoke",
    FaasHandler => "faas.handler",
    JiffyKvGet => "jiffy.kv_get",
    JiffyKvPut => "jiffy.kv_put",
    JiffyFnState => "jiffy.fn_state",
    CountminAdd => "sketches.countmin_add",
    DagRun => "dag.run",
    RpcPub => "cluster.rpc_pub",
    RpcRecv => "cluster.rpc_recv",
    RpcInvoke => "cluster.rpc_invoke",
    RpcAck => "cluster.rpc_ack",
}

const N: usize = Layer::ALL.len();

/// Full span records are kept for one request in this many.
pub const SAMPLE_EVERY: u64 = 1024;

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    pub self_ns: u64,
    pub calls: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u32,
    pub request: u64,
    pub id: u32,
    /// Id of the enclosing span on the same thread; 0 for a root.
    pub parent: u32,
}

struct Open {
    layer: Layer,
    start_ns: u64,
    child_ns: u64,
    id: u32,
}

/// Per-thread recorder. The arithmetic takes explicit timestamps so the
/// self-time subtraction is unit-testable without a clock.
struct Recorder {
    thread: u32,
    /// Client threads call [`begin_request`]; any other thread (a DAG
    /// worker the executor spawned) is foreign and hands its root spans to
    /// the client's adopting span.
    client: bool,
    stack: Vec<Open>,
    agg: [Agg; N],
    request: u64,
    sampled: bool,
    next_id: u32,
    records: Vec<SpanRecord>,
}

impl Recorder {
    fn new(thread: u32) -> Self {
        Self {
            thread,
            client: false,
            stack: Vec::with_capacity(8),
            agg: [Agg::default(); N],
            request: 0,
            sampled: false,
            next_id: 0,
            records: Vec::new(),
        }
    }

    fn enter_at(&mut self, layer: Layer, now_ns: u64) {
        self.next_id += 1;
        self.stack.push(Open {
            layer,
            start_ns: now_ns,
            child_ns: 0,
            id: self.next_id,
        });
    }

    /// Close the innermost span. `foreign_ns` is time inside the span that
    /// adopted spans of other threads cover. Returns the closed interval
    /// when the span was a root.
    fn exit_at(&mut self, now_ns: u64, foreign_ns: u64) -> Option<(u64, u64)> {
        let open = self.stack.pop().expect("exit without enter");
        let dur = now_ns.saturating_sub(open.start_ns);
        let a = &mut self.agg[open.layer as usize];
        a.self_ns += dur.saturating_sub(open.child_ns + foreign_ns);
        a.calls += 1;
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.id
        });
        if self.sampled {
            self.records.push(SpanRecord {
                layer: open.layer,
                start_ns: open.start_ns,
                end_ns: now_ns,
                thread: self.thread,
                request: self.request,
                id: open.id,
                parent: parent.unwrap_or(0),
            });
        }
        parent.is_none().then_some((open.start_ns, now_ns))
    }

    fn flush(&mut self) {
        let mut g = GLOBAL.lock().expect("trace sink");
        for (dst, src) in g.agg.iter_mut().zip(self.agg.iter_mut()) {
            dst.self_ns += src.self_ns;
            dst.calls += src.calls;
            *src = Agg::default();
        }
        g.records.append(&mut self.records);
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Part of `[lo, hi]` covered by the union of `intervals`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut edge) = (0, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(edge), e.min(hi));
        if e > s {
            total += e - s;
            edge = e;
        }
    }
    total
}

struct Global {
    agg: [Agg; N],
    records: Vec<SpanRecord>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);
/// Request id and sampling decision of the single client, for foreign threads.
static CLIENT_REQUEST: AtomicU64 = AtomicU64::new(0);
static GLOBAL: Mutex<Global> = Mutex::new(Global {
    agg: [Agg {
        self_ns: 0,
        calls: 0,
    }; N],
    records: Vec::new(),
});
/// Root spans closed on foreign threads, waiting for the adopting span.
static ORPHANS: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: RefCell<Recorder> =
        RefCell::new(Recorder::new(NEXT_THREAD.fetch_add(1, Ordering::Relaxed)));
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn set_enabled(on: bool) {
    now_ns(); // pin the epoch before the first span
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Mark the start of request `id` on this client thread.
pub fn begin_request(id: u64) {
    if !enabled() {
        return;
    }
    CLIENT_REQUEST.store(id, Ordering::Relaxed);
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.client = true;
        l.request = id;
        l.sampled = id.is_multiple_of(SAMPLE_EVERY);
    });
}

/// An open span; closes when dropped.
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    active: bool,
    adopts: bool,
}

pub fn span(layer: Layer) -> Span {
    open(layer, false)
}

/// A span on the client thread that adopts the root spans other threads
/// close while it is open (the DAG executor runs handlers on its own
/// worker threads): their union counts as child time, not self time.
pub fn span_adopting(layer: Layer) -> Span {
    open(layer, true)
}

fn open(layer: Layer, adopts: bool) -> Span {
    if !enabled() {
        return Span {
            active: false,
            adopts,
        };
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if !l.client {
            l.request = CLIENT_REQUEST.load(Ordering::Relaxed);
            l.sampled = l.request.is_multiple_of(SAMPLE_EVERY);
        }
        l.enter_at(layer, now_ns());
    });
    Span {
        active: true,
        adopts,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end = now_ns();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let foreign_ns = if self.adopts {
                let start = l.stack.last().expect("open span").start_ns;
                let mut orphans = std::mem::take(&mut *ORPHANS.lock().expect("orphans"));
                covered(&mut orphans, start, end)
            } else {
                0
            };
            let root = l.exit_at(end, foreign_ns);
            if let (Some(interval), false) = (root, l.client) {
                ORPHANS.lock().expect("orphans").push(interval);
            }
        });
    }
}

/// Fold this thread's aggregates into the global sink (threads also do so
/// when they exit).
pub fn flush_thread() {
    LOCAL.with(|l| l.borrow_mut().flush());
}

/// Everything recorded since the last call.
pub struct TraceData {
    pub layers: Vec<(Layer, Agg)>,
    pub records: Vec<SpanRecord>,
}

pub fn take() -> TraceData {
    flush_thread();
    ORPHANS.lock().expect("orphans").clear();
    let mut g = GLOBAL.lock().expect("trace sink");
    let layers = Layer::ALL
        .iter()
        .map(|&l| (l, std::mem::take(&mut g.agg[l as usize])))
        .collect();
    TraceData {
        layers,
        records: std::mem::take(&mut g.records),
    }
}

/// Chrome-trace ("Trace Event Format") JSON of the sampled span records.
pub fn chrome_json(records: &[SpanRecord]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"request\":{},\"span\":{},\"parent\":{}}}}}",
            r.layer.name(),
            r.thread,
            r.start_ns as f64 / 1e3,
            (r.end_ns - r.start_ns) as f64 / 1e3,
            r.request,
            r.id,
            r.parent,
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut r = Recorder::new(1);
        // invoke [0,100] ⊃ handler [10,90] ⊃ get [20,40], put [50,70]
        r.enter_at(Layer::FaasInvoke, 0);
        r.enter_at(Layer::FaasHandler, 10);
        r.enter_at(Layer::JiffyKvGet, 20);
        assert_eq!(r.exit_at(40, 0), None);
        r.enter_at(Layer::JiffyKvPut, 50);
        assert_eq!(r.exit_at(70, 0), None);
        assert_eq!(r.exit_at(90, 0), None);
        assert_eq!(r.exit_at(100, 0), Some((0, 100)));
        let agg = |l: Layer| r.agg[l as usize];
        assert_eq!(
            agg(Layer::JiffyKvGet),
            Agg {
                self_ns: 20,
                calls: 1
            }
        );
        assert_eq!(
            agg(Layer::JiffyKvPut),
            Agg {
                self_ns: 20,
                calls: 1
            }
        );
        assert_eq!(
            agg(Layer::FaasHandler),
            Agg {
                self_ns: 40,
                calls: 1
            }
        );
        assert_eq!(
            agg(Layer::FaasInvoke),
            Agg {
                self_ns: 20,
                calls: 1
            }
        );
        // Self times add up to the root's duration: nothing counted twice.
        let total: u64 = r.agg.iter().map(|a| a.self_ns).sum();
        assert_eq!(total, 100);
        r.agg = [Agg::default(); N]; // nothing to flush into the global sink
    }

    #[test]
    fn sampled_requests_keep_parent_links() {
        let mut r = Recorder::new(9);
        r.sampled = true;
        r.request = 2048;
        r.enter_at(Layer::FaasInvoke, 5);
        r.enter_at(Layer::FaasHandler, 6);
        r.exit_at(8, 0);
        r.exit_at(9, 0);
        let recs = std::mem::take(&mut r.records);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].layer, Layer::FaasHandler);
        assert_eq!(recs[0].parent, recs[1].id);
        assert_eq!(recs[1].parent, 0);
        assert!(recs.iter().all(|s| s.request == 2048 && s.thread == 9));
        let json = chrome_json(&recs);
        assert!(json.contains("\"name\":\"faas.handler\""));
        assert!(json.contains("\"ts\":0.006"));
        r.agg = [Agg::default(); N];
    }

    #[test]
    fn adopted_foreign_spans_count_as_their_union() {
        // Two overlapping worker spans and one partly outside the parent.
        let mut iv = vec![(10, 30), (20, 50), (90, 140)];
        assert_eq!(covered(&mut iv, 0, 100), 40 + 10);
        assert_eq!(covered(&mut [], 0, 100), 0);
        let mut r = Recorder::new(1);
        r.enter_at(Layer::DagRun, 0);
        r.exit_at(100, 50);
        assert_eq!(r.agg[Layer::DagRun as usize].self_ns, 50);
        r.agg = [Agg::default(); N];
    }

    #[test]
    fn layer_names_are_unique() {
        let mut names: Vec<_> = Layer::ALL.iter().map(|l| l.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), N);
    }
}
