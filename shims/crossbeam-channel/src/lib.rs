//! Offline shim for `crossbeam-channel`: an unbounded MPMC channel built
//! on `Mutex` + `Condvar`. Supports the blocking/timeout/non-blocking
//! receive surface the workspace uses; not a performance stand-in.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

struct Shared<T> {
    inner: Mutex<State<T>>,
    ready: Condvar,
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

/// Sending half; cheap to clone.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// Receiving half; cheap to clone.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Error returned when all receivers are gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error returned when the channel is empty and all senders are gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Error for [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// No message arrived within the timeout.
    Timeout,
    /// All senders disconnected and the queue is drained.
    Disconnected,
}

/// Error for [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// The queue is currently empty.
    Empty,
    /// All senders disconnected and the queue is drained.
    Disconnected,
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sending on a disconnected channel")
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Sender { .. }")
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Receiver { .. }")
    }
}

/// Create an unbounded channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        inner: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
        }),
        ready: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Enqueue a message; fails only if every receiver is gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut st = self.shared.inner.lock().unwrap();
        if st.receivers == 0 {
            return Err(SendError(value));
        }
        st.queue.push_back(value);
        drop(st);
        self.shared.ready.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.inner.lock().unwrap().senders += 1;
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.shared.inner.lock().unwrap();
        st.senders -= 1;
        let last = st.senders == 0;
        drop(st);
        if last {
            self.shared.ready.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Block until a message arrives or all senders disconnect.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut st = self.shared.inner.lock().unwrap();
        loop {
            if let Some(v) = st.queue.pop_front() {
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvError);
            }
            st = self.shared.ready.wait(st).unwrap();
        }
    }

    /// Block up to `timeout` for a message.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = std::time::Instant::now() + timeout;
        let mut st = self.shared.inner.lock().unwrap();
        loop {
            if let Some(v) = st.queue.pop_front() {
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            let (guard, res) = self.shared.ready.wait_timeout(st, deadline - now).unwrap();
            st = guard;
            if res.timed_out() && st.queue.is_empty() {
                return if st.senders == 0 {
                    Err(RecvTimeoutError::Disconnected)
                } else {
                    Err(RecvTimeoutError::Timeout)
                };
            }
        }
    }

    /// Pop a message if one is ready.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut st = self.shared.inner.lock().unwrap();
        match st.queue.pop_front() {
            Some(v) => Ok(v),
            None if st.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.shared.inner.lock().unwrap().queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.inner.lock().unwrap().receivers += 1;
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.inner.lock().unwrap().receivers -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_recv_fifo() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn disconnect_is_observed() {
        let (tx, rx) = unbounded::<u8>();
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn timeout_fires() {
        let (tx, rx) = unbounded::<u8>();
        let err = rx.recv_timeout(Duration::from_millis(5));
        assert_eq!(err, Err(RecvTimeoutError::Timeout));
        drop(tx);
    }

    #[test]
    fn cross_thread_delivery() {
        let (tx, rx) = unbounded();
        let h = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        h.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }
}
