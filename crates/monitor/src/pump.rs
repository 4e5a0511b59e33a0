//! Ships telemetry events from the in-process sink onto Pulsar topics.
//!
//! The pump is the *only* component that creates the telemetry topics:
//! with no pump attached, instrumented subsystems run with zero Pulsar
//! footprint (the zero-overhead-when-disabled property the integration
//! tests pin down). Publishing happens inside
//! [`suppress_telemetry`] so shipping telemetry over an instrumented
//! Pulsar cluster does not generate telemetry about the shipping — the
//! feedback loop that would otherwise grow without bound.

use taureau_core::sync::ContentionProfiler;
use taureau_core::trace::{suppress_telemetry, TelemetryEvent, TelemetrySink};
use taureau_pulsar::{Producer, PulsarCluster, PulsarError};

use crate::wire;

/// Topic carrying framed span events. The `_telemetry` tenant prefix
/// keeps monitoring traffic out of user tenants' quotas.
pub const SPANS_TOPIC: &str = "_telemetry/spans";
/// Topic carrying framed metric-delta events.
pub const METRICS_TOPIC: &str = "_telemetry/metrics";

/// Drains a [`TelemetrySink`] and publishes its events onto the telemetry
/// topics. Create one per sink; call [`TelemetryPump::pump`] periodically
/// (or after each workload phase in deterministic tests).
pub struct TelemetryPump {
    sink: TelemetrySink,
    spans: Producer,
    metrics: Producer,
    contention: Option<ContentionProfiler>,
    published_spans: u64,
    published_metrics: u64,
    publish_errors: u64,
}

impl TelemetryPump {
    /// Connect a sink to `cluster`, creating the telemetry topics if they
    /// do not exist yet (single partition each — ordering matters more
    /// than parallelism for a monitoring stream).
    pub fn new(sink: TelemetrySink, cluster: &PulsarCluster) -> Result<Self, PulsarError> {
        for topic in [SPANS_TOPIC, METRICS_TOPIC] {
            if cluster.partitions(topic).is_err() {
                cluster.create_topic(topic, 1)?;
            }
        }
        Ok(Self {
            sink,
            spans: cluster.producer(SPANS_TOPIC)?,
            metrics: cluster.producer(METRICS_TOPIC)?,
            contention: None,
            published_spans: 0,
            published_metrics: 0,
            publish_errors: 0,
        })
    }

    /// Attach a lock-contention profiler: each [`TelemetryPump::pump`]
    /// first flushes the profiler's per-site deltas
    /// (`lock.<site>.{acquisitions,contended,wait_ns}`) into the sink as
    /// metric events, so contention rides the same `_telemetry/metrics`
    /// stream as every other counter.
    #[cfg(test)]
    pub(crate) fn attach_contention(&mut self, profiler: ContentionProfiler) -> &mut Self {
        self.contention = Some(profiler);
        self
    }

    /// Drain every queued event and publish it. Returns the number of
    /// events shipped. Publish failures drop the event and count it in
    /// [`TelemetryPump::publish_errors`] — a broken monitoring transport
    /// must not wedge the sink (it would fill and start dropping on the
    /// producer side instead).
    pub fn pump(&mut self) -> usize {
        if let Some(prof) = &self.contention {
            prof.flush_to_sink(&self.sink);
        }
        suppress_telemetry(|| {
            let mut shipped = 0;
            let mut frame = Vec::new();
            loop {
                let batch = self.sink.drain(256);
                if batch.is_empty() {
                    return shipped;
                }
                for event in batch {
                    let result = match &event {
                        TelemetryEvent::Span(record) => {
                            frame.clear();
                            wire::encode_record(record, &mut frame);
                            self.spans.send(&frame)
                        }
                        TelemetryEvent::Metric { name, delta } => {
                            self.metrics.send(&wire::encode_metric(name, *delta))
                        }
                    };
                    match (result, &event) {
                        (Ok(_), TelemetryEvent::Span(_)) => {
                            self.published_spans += 1;
                            shipped += 1;
                        }
                        (Ok(_), TelemetryEvent::Metric { .. }) => {
                            self.published_metrics += 1;
                            shipped += 1;
                        }
                        (Err(_), _) => self.publish_errors += 1,
                    }
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
            .field("published_spans", &self.published_spans)
            .field("published_metrics", &self.published_metrics)
            .field("publish_errors", &self.publish_errors)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert!(cluster.partitions(SPANS_TOPIC).is_err());
        let sink = TelemetrySink::new(1024);
        let mut pump = TelemetryPump::new(sink.clone(), &cluster).unwrap();
        assert_eq!(cluster.partitions(SPANS_TOPIC).unwrap(), 1);
        assert_eq!(cluster.partitions(METRICS_TOPIC).unwrap(), 1);

        let tracer = Tracer::new(clock.clone());
        tracer.set_telemetry(sink.clone());
        drop(tracer.span("sys", "op.a"));
        sink.metric("sys.counter", 3);
        assert_eq!(pump.pump(), 2);
        assert_eq!(pump.published_spans, 1);
        assert_eq!(pump.published_metrics, 1);
        assert_eq!(pump.publish_errors(), 0);
        assert!(sink.is_empty());

        let mut consumer = cluster
            .subscribe(SPANS_TOPIC, "test", SubscriptionMode::Exclusive)
            .unwrap();
        let messages = consumer.drain().unwrap();
        assert_eq!(messages.len(), 1);
        let ev = wire::decode_span(&messages[0].payload).unwrap();
        assert_eq!(ev.name, "op.a");
    }

    #[test]
    fn pump_ships_contention_deltas_as_metric_events() {
        let (cluster, _clock) = cluster();
        let sink = TelemetrySink::new(1024);
        let mut pump = TelemetryPump::new(sink.clone(), &cluster).unwrap();
        let prof = ContentionProfiler::new();
        let site = cluster.enable_contention_profiling(&prof);
        pump.attach_contention(prof);
        cluster.create_topic("t", 1).unwrap();
        let p = cluster.producer("t").unwrap();
        for _ in 0..3 {
            p.send(b"x").unwrap();
        }
        assert!(site.snapshot().acquisitions >= 3);
        let shipped = pump.pump();
        assert!(shipped > 0, "contention deltas must ride the pump");
        let mut consumer = cluster
            .subscribe(METRICS_TOPIC, "test", SubscriptionMode::Exclusive)
            .unwrap();
        let names: Vec<String> = consumer
            .drain()
            .unwrap()
            .iter()
            .map(|m| wire::decode_metric(&m.payload).unwrap().0)
            .collect();
        assert!(
            names.iter().any(|n| n == "lock.pulsar.topics.acquisitions"),
            "got {names:?}"
        );
        // Idle lock: the next pump ships no stale zero-deltas for it (the
        // pump's own publishes touch the topic shard, so only assert the
        // sink got drained, not that nothing new arrived).
        assert!(sink.is_empty());
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
        let _first = TelemetryPump::new(TelemetrySink::new(8), &cluster).unwrap();
        // Re-attaching (e.g. after a monitor restart) must not fail on
        // TopicExists.
        let _second = TelemetryPump::new(TelemetrySink::new(8), &cluster).unwrap();
    }
}
