//! The one fold of the telemetry stream. The [`Monitor`](crate::Monitor)
//! calls it for each batch it reads off `_telemetry`, the cluster
//! collector for each batch a SimNet envelope delivers, and it alone
//! builds a [`HealthReport`].
//!
//! A batch is read once, in place: each event is validated and staged as
//! it is read, and the staged fold is committed only when the whole batch
//! has parsed, so a batch folds whole or not at all. The staging buffers
//! are reused across batches: a warm fold allocates nothing. What the fold
//! does not keep itself (each span for a policy's windows, RPC samples,
//! control-plane events, failed invocations) it hands to its caller in a
//! [`Folded`] view of the batch.

use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Duration;

use taureau_core::hash::FnvHashMap;
use taureau_core::id::NodeId;
use taureau_sketches::{KllSketch, SpaceSaving};

use crate::report::{HealthReport, OpHealth};
use crate::wire::{read_event, BatchHeader, BatchRef, EventRef, ObsEvent, StampedEvent};

/// KLL accuracy parameter of every latency sketch (rank error ~O(1/k)).
pub(crate) const KLL_K: usize = 200;
/// How many hot functions space-saving tracks.
const TOP_K: usize = 8;

/// Per-sender receive ledger.
#[derive(Debug, Clone, Copy, Default)]
struct Ledger {
    /// Events received (batches deduplicated by sequence number).
    received: u64,
    /// Highest `cum_events` seen from the sender.
    last_cum: u64,
    /// Highest batch sequence folded.
    last_seq: Option<u64>,
}

/// All-time latency and error aggregate of one `(op, node)` row.
struct OpAgg {
    sketch: KllSketch,
    count: u64,
    errors: u64,
    max_us: f64,
}

impl OpAgg {
    fn add(&mut self, span: &SpanSample) {
        let latency = span.latency_us as f64;
        self.sketch.update(latency);
        self.count += 1;
        self.max_us = self.max_us.max(latency);
        self.errors += u64::from(span.error);
    }
}

/// One span of a folded batch, as a policy's windows take it.
#[derive(Debug, Clone)]
pub(crate) struct SpanSample {
    /// Where the span's name lies in the batch.
    name: Range<usize>,
    pub(crate) end_us: u64,
    pub(crate) latency_us: u64,
    pub(crate) error: bool,
}

/// What one batch will fold, staged while the batch is read. Strings are
/// kept as ranges into the batch.
#[derive(Default)]
struct Staged {
    spans: Vec<SpanSample>,
    /// `(name, delta)` of each metric.
    metrics: Vec<(Range<usize>, u64)>,
    /// The `function` of each `faas.invoke` span.
    functions: Vec<Range<usize>>,
    /// Trace ids of `faas.invoke` spans with `outcome=error`.
    failed_invokes: Vec<u64>,
    /// `faas.startup` spans, and how many were cold.
    startups: (u64, u64),
    /// `(role, target, latency µs)` of each successful RPC.
    rpcs: Vec<(u8, u64, u64)>,
    control: Vec<StampedEvent>,
    /// Spans, metrics and RPC samples.
    data_events: u64,
}

impl Staged {
    fn clear(&mut self) {
        self.spans.clear();
        self.metrics.clear();
        self.functions.clear();
        self.failed_invokes.clear();
        self.startups = (0, 0);
        self.rpcs.clear();
        self.control.clear();
        self.data_events = 0;
    }
}

/// The range `s` occupies in `buf` (`s` borrows from `buf`).
fn range_in(buf: &[u8], s: &str) -> Range<usize> {
    let at = s.as_ptr() as usize - buf.as_ptr() as usize;
    at..at + s.len()
}

/// The string a staged range names; the batch was validated when staged.
fn str_at<'a>(buf: &'a [u8], r: &Range<usize>) -> &'a str {
    std::str::from_utf8(&buf[r.clone()]).expect("staged from a validated batch")
}

/// The folded state of one telemetry stream.
#[derive(Default)]
pub struct TelemetryFold {
    ledgers: FnvHashMap<NodeId, Ledger>,
    /// origin → op name → aggregate.
    rows: BTreeMap<Option<u64>, FnvHashMap<String, OpAgg>>,
    counters: BTreeMap<String, u64>,
    /// Opened by the first `faas.invoke` with a `function`.
    hot_functions: Option<SpaceSaving>,
    startups: u64,
    cold_starts: u64,
    events_received: u64,
    batches_received: u64,
    decode_errors: u64,
    staged: Staged,
}

/// One folded batch: what the fold handed back rather than kept. Empty
/// for a duplicate batch.
pub struct Folded<'a> {
    batch: &'a [u8],
    staged: &'a mut Staged,
}

impl Folded<'_> {
    /// `(role, target, latency µs)` of each successful RPC sample.
    pub fn rpcs(&self) -> &[(u8, u64, u64)] {
        &self.staged.rpcs
    }

    /// The batch's control-plane events, for the caller to keep.
    pub fn control(&mut self) -> &mut Vec<StampedEvent> {
        &mut self.staged.control
    }

    /// Spans, metrics and RPC samples the batch carried.
    pub fn data_events(&self) -> u64 {
        self.staged.data_events
    }

    /// Each span's name and sample.
    pub(crate) fn spans(&self) -> impl Iterator<Item = (&str, &SpanSample)> {
        let batch = self.batch;
        let spans = self.staged.spans.iter();
        spans.map(move |s| (str_at(batch, &s.name), s))
    }

    /// Trace ids of the batch's failed invocations.
    pub(crate) fn failed_invokes(&self) -> &[u64] {
        &self.staged.failed_invokes
    }
}

impl TelemetryFold {
    /// Fold one batch. Its op rows are labelled `origin`: the node the
    /// transport says sent it (SimNet), or none (a Pulsar topic does not
    /// say who published). `None`, with nothing but the decode-error count
    /// changed, unless every event parses.
    pub fn ingest<'a>(&'a mut self, batch: &'a [u8], origin: Option<NodeId>) -> Option<Folded<'a>> {
        self.staged.clear();
        let Some(header) = stage(batch, &mut self.staged) else {
            self.decode_errors += 1;
            return None;
        };
        self.commit(header, origin.map(NodeId::raw), batch);
        Some(Folded {
            batch,
            staged: &mut self.staged,
        })
    }

    /// Fold the whole staged batch, unless its sender already sent it.
    fn commit(&mut self, header: BatchHeader, origin: Option<u64>, batch: &[u8]) {
        let staged = &mut self.staged;
        let ledger = self.ledgers.entry(header.node).or_default();
        // Delivery is FIFO per sender, so a duplicate (same seq) or stale
        // batch always arrives at or after the original: drop it.
        if ledger.last_seq.is_some_and(|s| header.batch_seq <= s) {
            staged.clear();
            return;
        }
        ledger.last_seq = Some(header.batch_seq);
        ledger.last_cum = ledger.last_cum.max(header.cum_events);
        ledger.received += u64::from(header.count);
        self.batches_received += 1;
        self.events_received += u64::from(header.count);
        if !staged.spans.is_empty() {
            let ops = self.rows.entry(origin).or_default();
            for span in &staged.spans {
                let name = str_at(batch, &span.name);
                if let Some(agg) = ops.get_mut(name) {
                    agg.add(span);
                } else {
                    let mut agg = OpAgg {
                        sketch: KllSketch::new(KLL_K),
                        count: 0,
                        errors: 0,
                        max_us: 0.0,
                    };
                    agg.add(span);
                    ops.insert(name.to_string(), agg);
                }
            }
        }
        for (name, delta) in &staged.metrics {
            let name = str_at(batch, name);
            match self.counters.get_mut(name) {
                Some(value) => *value += delta,
                None => {
                    self.counters.insert(name.to_string(), *delta);
                }
            }
        }
        for function in &staged.functions {
            let hot = self
                .hot_functions
                .get_or_insert_with(|| SpaceSaving::new(TOP_K));
            hot.add(&batch[function.clone()], 1);
        }
        self.startups += staged.startups.0;
        self.cold_starts += staged.startups.1;
    }

    /// Telemetry batches refused as malformed, all-time.
    pub fn decode_errors(&self) -> u64 {
        self.decode_errors
    }

    /// Events folded (duplicate batches excluded).
    pub fn events_received(&self) -> u64 {
        self.events_received
    }

    /// Batches folded (duplicates excluded).
    pub fn batches_received(&self) -> u64 {
        self.batches_received
    }

    /// The highest cumulative sent count `node` has reported.
    pub fn cumulative(&self, node: NodeId) -> u64 {
        self.ledgers.get(&node).map_or(0, |l| l.last_cum)
    }

    /// Events known lost: for each sender, the highest cumulative sent
    /// count it reported minus what actually arrived. Exact once every
    /// sender's final count has arrived.
    pub fn detected_dropped(&self) -> u64 {
        self.ledgers
            .values()
            .map(|l| l.last_cum.saturating_sub(l.received))
            .sum()
    }

    /// The unlabelled row of `op` (what the monitor folds).
    fn row(&self, op: &str) -> Option<&OpAgg> {
        self.rows.get(&None)?.get(op)
    }

    /// All-time latency quantile (µs) of `op`'s unlabelled row.
    pub(crate) fn quantile_us(&self, op: &str, q: f64) -> Option<f64> {
        self.row(op)?.sketch.quantile(q)
    }

    /// All-time event count of `op`'s unlabelled row.
    pub(crate) fn op_count(&self, op: &str) -> u64 {
        self.row(op).map_or(0, |agg| agg.count)
    }

    /// Folded counter metrics, by name.
    pub(crate) fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// Snapshot of everything folded. Alerts are the readers': the report
    /// comes back with none.
    pub fn health_report(&self, now: Duration) -> HealthReport {
        let mut ops = Vec::new();
        for (&node, rows) in &self.rows {
            for (op, agg) in rows {
                let q = |q| agg.sketch.quantile(q).unwrap_or(0.0);
                ops.push(OpHealth {
                    op: op.clone(),
                    node,
                    count: agg.count,
                    p50_us: q(0.50),
                    p90_us: q(0.90),
                    p99_us: q(0.99),
                    max_us: agg.max_us,
                    error_rate: ratio(agg.errors, agg.count),
                });
            }
        }
        ops.sort_by(|a, b| (&a.op, a.node).cmp(&(&b.op, b.node)));
        let mut top_functions: Vec<(String, u64)> = self
            .hot_functions
            .iter()
            .flat_map(SpaceSaving::heavy_hitters)
            .map(|h| (String::from_utf8_lossy(&h.item).into_owned(), h.count))
            .collect();
        top_functions.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        HealthReport {
            at: now,
            ops,
            top_functions,
            counters: self.counters.clone().into_iter().collect(),
            active_alerts: Vec::new(),
            alerts: Vec::new(),
            cold_start_rate: ratio(self.cold_starts, self.startups),
            decode_errors: self.decode_errors,
        }
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The one walk over a batch: validate every event and stage what it
/// folds. `None` unless all `count` events parse.
fn stage(batch: &[u8], staged: &mut Staged) -> Option<BatchHeader> {
    let (header, mut r) = BatchRef::header_of(batch)?;
    for _ in 0..header.count {
        let (mut outcome, mut function, mut kind) = (None, None, None);
        let (hlc, event) = read_event(&mut r, |k, v| {
            let slot = match k {
                "outcome" => &mut outcome,
                "function" => &mut function,
                "kind" => &mut kind,
                _ => return,
            };
            slot.get_or_insert(v);
        })?;
        match event {
            EventRef::Span(span) => {
                let error = outcome == Some("error");
                staged.spans.push(SpanSample {
                    name: range_in(batch, span.name),
                    end_us: span.end_us,
                    latency_us: span.end_us.saturating_sub(span.start_us),
                    error,
                });
                match span.name {
                    "faas.invoke" => {
                        if let Some(function) = function {
                            staged.functions.push(range_in(batch, function));
                        }
                        if error {
                            staged.failed_invokes.push(span.trace_id);
                        }
                    }
                    "faas.startup" => {
                        staged.startups.0 += 1;
                        staged.startups.1 += u64::from(kind == Some("cold"));
                    }
                    _ => {}
                }
                staged.data_events += 1;
            }
            EventRef::Metric { name, delta } => {
                // A `*_us` metric is a latency sample, not a count: the
                // span of its op already carries it.
                if !name.ends_with("_us") {
                    staged.metrics.push((range_in(batch, name), delta));
                }
                staged.data_events += 1;
            }
            // Only successful RPCs are staged: timeouts to a *dead* node
            // are the heartbeat detector's business; grey means
            // slow-but-answering.
            EventRef::Other(ObsEvent::Rpc {
                target,
                role,
                latency_us,
                ok,
            }) => {
                if ok {
                    staged.rpcs.push((role, target, latency_us));
                }
                staged.data_events += 1;
            }
            EventRef::Other(event) => staged.control.push(StampedEvent {
                node: header.node,
                hlc,
                event,
            }),
        }
    }
    Some(header)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::tests::stamp;
    use crate::wire::BatchWriter;
    use bytes::Bytes;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use rand::Rng;
    use taureau_core::rng::det_rng;
    use taureau_core::trace::{AttrValue, SpanId, SpanRecord, TraceId};

    /// The fold as a reader would write it first: decode each batch whole
    /// into owned values, then fold those.
    #[derive(Default)]
    struct Reference {
        ledgers: BTreeMap<NodeId, (u64, u64, u64)>, // (last seq, last cum, received)
        rows: BTreeMap<(String, Option<u64>), OpAgg>,
        counters: BTreeMap<String, u64>,
        hot: Option<SpaceSaving>,
        startups: (u64, u64),
        failed_invokes: Vec<u64>,
        control: Vec<StampedEvent>,
        decode_errors: u64,
        events_received: u64,
    }

    impl Reference {
        fn ingest(&mut self, body: &[u8], origin: Option<u64>) {
            let Some(batch) = BatchRef::parse(body) else {
                self.decode_errors += 1;
                return;
            };
            let h = batch.header;
            let ledger = self.ledgers.get(&h.node).copied();
            if ledger.is_some_and(|(seq, _, _)| h.batch_seq <= seq) {
                return;
            }
            let (_, cum, received) = ledger.unwrap_or_default();
            let count = u64::from(h.count);
            self.ledgers.insert(
                h.node,
                (h.batch_seq, cum.max(h.cum_events), received + count),
            );
            self.events_received += count;
            for (hlc, event) in batch.events() {
                let span = match event {
                    EventRef::Span(span) => span,
                    EventRef::Metric { name, .. } if name.ends_with("_us") => continue,
                    EventRef::Metric { name, delta } => {
                        *self.counters.entry(name.to_string()).or_default() += delta;
                        continue;
                    }
                    EventRef::Other(ObsEvent::Rpc { .. }) => continue,
                    EventRef::Other(event) => {
                        let node = h.node;
                        self.control.push(StampedEvent { node, hlc, event });
                        continue;
                    }
                };
                let attr = |key| span.attrs().find(|&(k, _)| k == key).map(|(_, v)| v);
                let error = attr("outcome") == Some("error");
                let row = (span.name.to_string(), origin);
                let agg = self.rows.entry(row).or_insert_with(|| OpAgg {
                    sketch: KllSketch::new(KLL_K),
                    count: 0,
                    errors: 0,
                    max_us: 0.0,
                });
                let latency = span.end_us.saturating_sub(span.start_us) as f64;
                agg.sketch.update(latency);
                agg.count += 1;
                agg.errors += u64::from(error);
                agg.max_us = f64::max(agg.max_us, latency);
                if span.name == "faas.invoke" {
                    if let Some(function) = attr("function") {
                        let hot = self.hot.get_or_insert_with(|| SpaceSaving::new(TOP_K));
                        hot.add(function.as_bytes(), 1);
                    }
                    if error {
                        self.failed_invokes.push(span.trace_id);
                    }
                }
                if span.name == "faas.startup" {
                    self.startups.0 += 1;
                    self.startups.1 += u64::from(attr("kind") == Some("cold"));
                }
            }
        }

        /// What a health report says, row by row, as text.
        fn report(&self) -> Vec<String> {
            let mut out: Vec<String> = self
                .rows
                .iter()
                .map(|((op, node), agg)| {
                    let q = |q| agg.sketch.quantile(q).unwrap_or(0.0);
                    let (count, max) = (agg.count, agg.max_us);
                    let rate = agg.errors as f64 / count as f64;
                    let qs = (q(0.5), q(0.9), q(0.99));
                    format!("{op} {node:?} {count} {qs:?} {max} {rate}")
                })
                .collect();
            let mut hot: Vec<(String, u64)> = self
                .hot
                .iter()
                .flat_map(SpaceSaving::heavy_hitters)
                .map(|h| (String::from_utf8(h.item).unwrap(), h.count))
                .collect();
            hot.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            let dropped: u64 = self.ledgers.values().map(|l| l.1.saturating_sub(l.2)).sum();
            let cold = ratio(self.startups.1, self.startups.0);
            out.push(format!("{:?} {hot:?} {cold}", self.counters));
            out.push(format!("{} {dropped}", self.events_received));
            out
        }
    }

    fn report(fold: &TelemetryFold) -> Vec<String> {
        let r = fold.health_report(Duration::ZERO);
        let mut out: Vec<String> = r
            .ops
            .iter()
            .map(|op| {
                let (count, max, rate) = (op.count, op.max_us, op.error_rate);
                let qs = (op.p50_us, op.p90_us, op.p99_us);
                format!("{} {:?} {count} {qs:?} {max} {rate}", op.op, op.node)
            })
            .collect();
        let counters: BTreeMap<String, u64> = r.counters.into_iter().collect();
        let (hot, cold) = (r.top_functions, r.cold_start_rate);
        out.push(format!("{counters:?} {hot:?} {cold}"));
        let (received, dropped) = (fold.events_received(), fold.detected_dropped());
        out.push(format!("{received} {dropped}"));
        out
    }

    /// A span of a watched op or not, with the attributes the fold reads
    /// among others, non-ASCII and past the `u16` length included. There
    /// are fourteen distinct function values, so the top-K evicts.
    fn random_span(rng: &mut impl Rng) -> SpanRecord {
        use std::sync::LazyLock;
        static LONG: LazyLock<String> = LazyLock::new(|| "é".repeat(40_000));
        const NAMES: [&str; 5] = ["faas.invoke", "faas.startup", "cluster.pub", "", "öp"];
        const KEYS: [&str; 5] = ["outcome", "function", "kind", "node", "ключ"];
        const VALUES: [&str; 12] = [
            "error", "ok", "cold", "warm", "api", "тема", "batch", "thumb", "resize", "etl", "ml",
            "video",
        ];
        let name = match rng.gen_range(0..12usize) {
            0 => LONG.as_str(),
            n => NAMES[n % NAMES.len()],
        };
        let attrs = (0..rng.gen_range(0..8))
            .map(|_| {
                let value: AttrValue = match rng.gen_range(0..4) {
                    0 => rng.gen_range(0..2u64).into(),
                    _ => VALUES[rng.gen_range(0..VALUES.len())].into(),
                };
                (KEYS[rng.gen_range(0..KEYS.len())], value)
            })
            .collect();
        let start = rng.gen_range(0..1_000_000u64);
        SpanRecord {
            trace_id: TraceId(rng.gen()),
            span_id: SpanId(rng.gen()),
            parent: None,
            name,
            system: "taureau-faas",
            start: Duration::from_micros(start),
            end: Duration::from_micros(start + rng.gen_range(0..5_000u64)),
            attrs,
        }
    }

    /// `n` random events into `writer`: spans, metrics, control events and
    /// RPC samples.
    fn write_events(rng: &mut impl Rng, writer: &mut BatchWriter, node: u64, n: usize) {
        for i in 0..n as u64 {
            let hlc = stamp(node, rng.gen_range(0..1_000u64) + i);
            match rng.gen_range(0..6) {
                0..=2 => writer.push_span(hlc, &random_span(rng)),
                3 => {
                    let names = ["faas.warm_starts", "", "mètre", "faas.invoke_latency_us"];
                    let name = names[rng.gen_range(0..names.len())];
                    writer.push_metric(hlc, name, rng.gen_range(0..9));
                }
                4 => {
                    let peer = rng.gen_range(0..9);
                    writer.push(
                        hlc,
                        &ObsEvent::Membership {
                            peer,
                            up: rng.gen(),
                        },
                    );
                }
                _ => {
                    let rpc = ObsEvent::Rpc {
                        target: rng.gen_range(0..9),
                        role: rng.gen_range(0..3),
                        latency_us: rng.gen_range(0..9_000),
                        ok: rng.gen(),
                    };
                    writer.push(hlc, &rpc);
                }
            }
        }
    }

    proptest! {
        /// Over any delivery of any senders' batches — interleaved, with
        /// gaps, duplicates, stale repeats and corrupted bodies — the fold
        /// that stages in place reports what the reference reports, and
        /// hands back each batch's failed invocations and control events.
        #[test]
        fn the_fold_agrees_with_its_reference_model(
            seed in any::<u64>(),
            labelled in any::<bool>(),
            plan in vec((0u64..4, 0usize..9, 0u8..12), 1..80),
        ) {
            let mut rng = det_rng(seed);
            let mut fold = TelemetryFold::default();
            let mut reference = Reference::default();
            let mut writers: Vec<BatchWriter> = (0..4).map(|n| BatchWriter::new(NodeId(n))).collect();
            let (mut failed, mut control) = (Vec::new(), Vec::new());
            let mut delivered: Vec<(u64, Bytes)> = Vec::new();
            let mut deliver = |from: u64, body: &[u8]| {
                let origin = labelled.then_some(NodeId(from));
                if let Some(mut folded) = fold.ingest(body, origin) {
                    failed.extend_from_slice(folded.failed_invokes());
                    control.append(folded.control());
                }
                reference.ingest(body, origin.map(NodeId::raw));
            };
            for (sender, n_events, fate) in plan {
                write_events(&mut rng, &mut writers[sender as usize], sender, n_events);
                let mut body = writers[sender as usize].take(n_events);
                let copies = match fate {
                    0 => 0, // lost: a gap
                    1 => 2, // duplicated
                    2 => {
                        // Corrupted: cut short, or a stray byte in the middle.
                        let mut raw = body.to_vec();
                        let at = rng.gen_range(0..raw.len());
                        if rng.gen() { raw.truncate(at) } else { raw[at] ^= 0x5A }
                        body = Bytes::from(raw);
                        1
                    }
                    3 if !delivered.is_empty() => {
                        // A stale repeat of something delivered earlier.
                        let (from, old) = delivered[rng.gen_range(0..delivered.len())].clone();
                        deliver(from, &old);
                        1
                    }
                    _ => 1,
                };
                for _ in 0..copies {
                    deliver(sender, &body);
                    delivered.push((sender, body.clone()));
                }
            }
            prop_assert_eq!(report(&fold), reference.report());
            prop_assert_eq!(fold.decode_errors(), reference.decode_errors);
            prop_assert_eq!(failed, reference.failed_invokes);
            prop_assert_eq!(control, reference.control);
        }

        /// A valid batch with one byte damaged, after some history: the
        /// fold either refuses it, counting one decode error and changing
        /// nothing else, or folds all of it exactly as the reference does.
        /// The one walk stages; it never folds.
        #[test]
        fn a_damaged_batch_folds_whole_or_changes_nothing(
            seed in any::<u64>(),
            n_events in 1usize..16,
        ) {
            let mut rng = det_rng(seed);
            let mut fold = TelemetryFold::default();
            let mut reference = Reference::default();
            let mut writer = BatchWriter::new(NodeId(2));
            for _ in 0..2 {
                write_events(&mut rng, &mut writer, 2, n_events);
                let body = writer.take(n_events);
                fold.ingest(&body, Some(NodeId(2)));
                reference.ingest(&body, Some(2));
            }
            write_events(&mut rng, &mut writer, 2, n_events);
            let mut raw = writer.take(n_events).to_vec();
            let at = rng.gen_range(0..raw.len());
            raw[at] = raw[at].wrapping_add(rng.gen_range(1..=255u8));
            let before = report(&fold);
            let folded = fold.ingest(&raw, Some(NodeId(2))).is_some();
            reference.ingest(&raw, Some(2));
            prop_assert_eq!(fold.decode_errors(), reference.decode_errors);
            if folded {
                prop_assert_eq!(report(&fold), reference.report());
            } else {
                prop_assert_eq!(fold.decode_errors(), 1);
                prop_assert_eq!(report(&fold), before);
            }
        }
    }
}
