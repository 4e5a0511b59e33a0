//! Ships telemetry events from the in-process sink onto Pulsar, one batch
//! per message.
//!
//! The pump is the *only* component that creates the telemetry topic:
//! with no pump attached, instrumented subsystems run with zero Pulsar
//! footprint (the zero-overhead-when-disabled property the integration
//! tests pin down). Publishing happens inside
//! [`suppress_telemetry`] so shipping telemetry over an instrumented
//! Pulsar cluster does not generate telemetry about the shipping — the
//! feedback loop that would otherwise grow without bound.

use std::sync::atomic::{AtomicU64, Ordering};

use taureau_core::id::NodeId;
use taureau_core::trace::{suppress_telemetry, HlcClock, TelemetryEvent, TelemetrySink};
use taureau_pulsar::{Producer, PulsarCluster, PulsarError};

use crate::wire::BatchWriter;

/// The topic carrying telemetry batches. The `_telemetry` prefix keeps
/// monitoring traffic out of user tenants' quotas.
pub const TELEMETRY_TOPIC: &str = "_telemetry";

/// Events drained from the sink into one batch.
const BATCH_EVENTS: usize = 256;

/// Tells the pumps of one process apart in the batches they write: a
/// consumer deduplicates batches by sender and sequence number.
static NEXT_PUMP: AtomicU64 = AtomicU64::new(0);

/// Drains a [`TelemetrySink`] and publishes its events onto the telemetry
/// topic. Create one per sink; call [`TelemetryPump::pump`] periodically
/// (or after each workload phase in deterministic tests).
pub struct TelemetryPump {
    sink: TelemetrySink,
    producer: Producer,
    batches: BatchWriter,
    /// The pump has no clock of its own: a span is stamped at its end, a
    /// metric just after the stamp before it.
    hlc: HlcClock,
    publish_errors: u64,
}

impl TelemetryPump {
    /// Connect a sink to `cluster`, creating the telemetry topic if it
    /// does not exist yet (one partition — ordering matters more than
    /// parallelism for a monitoring stream).
    pub fn new(sink: TelemetrySink, cluster: &PulsarCluster) -> Result<Self, PulsarError> {
        if cluster.partitions(TELEMETRY_TOPIC).is_err() {
            cluster.create_topic(TELEMETRY_TOPIC, 1)?;
        }
        let id = NEXT_PUMP.fetch_add(1, Ordering::Relaxed);
        Ok(Self {
            sink,
            producer: cluster.producer(TELEMETRY_TOPIC)?,
            batches: BatchWriter::new(NodeId(id)),
            hlc: HlcClock::new(id),
            publish_errors: 0,
        })
    }

    /// Drain every queued event and publish it. Returns the number of
    /// events shipped. A failed publish drops its batch and counts the
    /// batch's events in [`TelemetryPump::publish_errors`] — a broken
    /// monitoring transport must not wedge the sink (it would fill and
    /// start dropping on the producer side instead).
    pub fn pump(&mut self) -> usize {
        suppress_telemetry(|| {
            let mut shipped = 0;
            loop {
                let (batches, hlc) = (&mut self.batches, &mut self.hlc);
                self.sink.drain_with(BATCH_EVENTS, |event| match event {
                    TelemetryEvent::Span(record) => {
                        let stamp = hlc.tick(record.end.as_micros() as u64);
                        batches.push_span(stamp, record);
                    }
                    &TelemetryEvent::Metric { name, delta } => {
                        batches.push_metric(hlc.tick(0), name, delta);
                    }
                });
                let events = self.batches.pending();
                if events == 0 {
                    return shipped;
                }
                match self.producer.send(&self.batches.take(events)) {
                    Ok(_) => shipped += events,
                    Err(_) => self.publish_errors += events as u64,
                }
            }
        })
    }

    /// Events dropped because publishing failed.
    pub fn publish_errors(&self) -> u64 {
        self.publish_errors
    }
}

impl std::fmt::Debug for TelemetryPump {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryPump")
            .field("sent", &self.batches.sent())
            .field("publish_errors", &self.publish_errors)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{BatchRef, EventRef};
    use std::sync::Arc;
    use taureau_core::clock::VirtualClock;
    use taureau_core::trace::Tracer;
    use taureau_pulsar::{PulsarConfig, SubscriptionMode};

    fn cluster() -> (PulsarCluster, Arc<VirtualClock>) {
        let clock = Arc::new(VirtualClock::new());
        (
            PulsarCluster::new(PulsarConfig::default(), clock.clone()),
            clock,
        )
    }

    #[test]
    fn pump_creates_topics_and_ships_events() {
        let (cluster, clock) = cluster();
        assert!(cluster.partitions(TELEMETRY_TOPIC).is_err());
        let sink = TelemetrySink::new(1024);
        let mut pump = TelemetryPump::new(sink.clone(), &cluster).unwrap();
        assert_eq!(cluster.partitions(TELEMETRY_TOPIC).unwrap(), 1);

        let tracer = Tracer::new(clock.clone());
        tracer.set_telemetry(sink.clone());
        drop(tracer.span("sys", "op.a"));
        sink.metric("sys.counter", 3);
        assert_eq!(pump.pump(), 2);
        assert_eq!(pump.batches.sent(), (2, 1));
        assert_eq!(pump.publish_errors(), 0);
        assert!(sink.is_empty());

        let mut consumer = cluster
            .subscribe(TELEMETRY_TOPIC, "test", SubscriptionMode::Exclusive)
            .unwrap();
        let messages = consumer.drain().unwrap();
        assert_eq!(messages.len(), 1, "one message per batch");
        let batch = BatchRef::parse(&messages[0].payload).unwrap();
        let events: Vec<_> = batch.events().map(|(_, ev)| ev).collect();
        assert!(matches!(
            &events[..],
            [EventRef::Span(span), EventRef::Metric { name: "sys.counter", delta: 3 }]
                if span.name == "op.a"
        ));
    }

    #[test]
    fn pumping_over_a_traced_cluster_does_not_feed_back() {
        let (cluster, clock) = cluster();
        let tracer = Tracer::new(clock.clone());
        let sink = TelemetrySink::new(1024);
        tracer.set_telemetry(sink.clone());
        // The telemetry transport itself is instrumented with the same
        // sink-bearing tracer — the worst case for feedback.
        cluster.set_tracer(tracer.clone());
        let mut pump = TelemetryPump::new(sink.clone(), &cluster).unwrap();

        drop(tracer.span("sys", "user.work"));
        assert_eq!(pump.pump(), 1);
        // Publishing created pulsar spans in the recorder, but none of
        // them re-entered the sink: a second pump ships nothing.
        assert_eq!(pump.pump(), 0);
        assert!(sink.is_empty());
        assert!(tracer.span_count() > 1, "transport spans still recorded");
    }

    #[test]
    fn second_pump_reuses_existing_topics() {
        let (cluster, _clock) = cluster();
        let mut first = TelemetryPump::new(TelemetrySink::new(8), &cluster).unwrap();
        // Re-attaching (e.g. after a monitor restart) must not fail on
        // TopicExists, and the two pumps' batches stay apart.
        let mut second = TelemetryPump::new(TelemetrySink::new(8), &cluster).unwrap();
        assert_ne!(first.hlc.tick(0).node, second.hlc.tick(0).node);
    }
}
