//! Per-namespace notifications.
//!
//! The paper: "signaling to applications when relevant state is ready for
//! processing using a per-namespace notification mechanism" (citing SNS and
//! Redis keyspace notifications). A consumer function subscribes to a
//! namespace prefix and receives an [`Event`] for every mutation in that
//! sub-tree — the mechanism that lets a downstream task start the moment
//! its input state lands, instead of polling a persistent store.

use crossbeam_channel::{unbounded, Receiver, Sender};

use crate::path::JPath;

/// What happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A namespace was created.
    Created,
    /// A namespace (and its sub-tree) was removed.
    Removed,
    /// A key was written in a KV object.
    KvPut {
        /// The key written.
        key: Vec<u8>,
    },
    /// An element was pushed to a queue object.
    QueuePush,
    /// Bytes were appended to a file object.
    FileWrite {
        /// New file length after the write.
        len: u64,
    },
    /// The namespace's lease lapsed and its state was reclaimed.
    LeaseExpired,
}

/// A notification delivered to subscribers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// The namespace the mutation happened at.
    pub(crate) path: JPath,
    /// What happened.
    pub kind: EventKind,
}

/// A live subscription to a namespace prefix.
#[derive(Debug)]
pub struct Subscription {
    rx: Receiver<Event>,
}

impl Subscription {
    /// Non-blocking poll.
    pub(crate) fn try_recv(&self) -> Option<Event> {
        self.rx.try_recv().ok()
    }

    /// Drain everything currently queued.
    pub fn drain(&self) -> Vec<Event> {
        let mut out = Vec::new();
        while let Some(e) = self.try_recv() {
            out.push(e);
        }
        out
    }
}

/// Fan-out bus routing events to prefix subscribers.
#[derive(Debug, Default)]
pub(crate) struct NotificationBus {
    subscribers: Vec<(JPath, Sender<Event>)>,
}

impl NotificationBus {
    /// Empty bus.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Subscribe to all events at or under `prefix`.
    pub(crate) fn subscribe(&mut self, prefix: JPath) -> Subscription {
        let (tx, rx) = unbounded();
        self.subscribers.push((prefix, tx));
        Subscription { rx }
    }

    /// Publish an event; it is delivered to every subscription whose prefix
    /// covers the event path. Dead subscriptions are pruned lazily.
    pub(crate) fn publish(&mut self, event: Event) {
        self.subscribers.retain(|(prefix, tx)| {
            if prefix.is_prefix_of(&event.path) {
                // Drop subscriptions whose receiver has been dropped.
                tx.send(event.clone()).is_ok()
            } else {
                true
            }
        });
    }

    /// Number of live subscriptions.
    pub(crate) fn len(&self) -> usize {
        self.subscribers.len()
    }

    /// Whether there are no subscriptions.
    pub(crate) fn is_empty(&self) -> bool {
        self.subscribers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(path: &str, kind: EventKind) -> Event {
        Event {
            path: JPath::parse(path),
            kind,
        }
    }

    #[test]
    fn exact_prefix_delivery() {
        let mut bus = NotificationBus::new();
        let sub = bus.subscribe(JPath::parse("/app"));
        bus.publish(event("/app/stage", EventKind::QueuePush));
        bus.publish(event("/other", EventKind::QueuePush));
        let got = sub.drain();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].path, JPath::parse("/app/stage"));
    }

    #[test]
    fn root_subscription_sees_everything() {
        let mut bus = NotificationBus::new();
        let sub = bus.subscribe(JPath::parse("/"));
        bus.publish(event("/a", EventKind::Created));
        bus.publish(event("/b/c", EventKind::Removed));
        assert_eq!(sub.drain().len(), 2);
    }

    #[test]
    fn multiple_subscribers_each_get_a_copy() {
        let mut bus = NotificationBus::new();
        let s1 = bus.subscribe(JPath::parse("/app"));
        let s2 = bus.subscribe(JPath::parse("/app"));
        bus.publish(event("/app/x", EventKind::KvPut { key: b"k".to_vec() }));
        assert_eq!(s1.drain().len(), 1);
        assert_eq!(s2.drain().len(), 1);
    }

    #[test]
    fn try_recv_on_empty_is_none() {
        let mut bus = NotificationBus::new();
        let sub = bus.subscribe(JPath::parse("/app"));
        assert_eq!(sub.try_recv(), None);
    }

    #[test]
    fn events_arrive_in_order() {
        let mut bus = NotificationBus::new();
        let sub = bus.subscribe(JPath::parse("/q"));
        for i in 0..10u64 {
            bus.publish(event("/q", EventKind::FileWrite { len: i }));
        }
        let lens: Vec<u64> = sub
            .drain()
            .into_iter()
            .map(|e| match e.kind {
                EventKind::FileWrite { len } => len,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(lens, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cross_thread_delivery() {
        let mut bus = NotificationBus::new();
        let sub = bus.subscribe(JPath::parse("/app"));
        std::thread::spawn(move || bus.publish(event("/app/t", EventKind::Created)))
            .join()
            .unwrap();
        assert_eq!(sub.drain(), vec![event("/app/t", EventKind::Created)]);
    }
}
