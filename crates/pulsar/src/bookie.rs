//! Bookies — the durable storage nodes of Figure 1.
//!
//! "Pulsar's storage nodes are called bookies, and are based on Apache
//! BookKeeper, a distributed write-ahead log system" (§4.3). A bookie
//! stores entries for many ledger fragments. Bookies are fail-stop: a
//! crashed bookie rejects reads and writes until restarted (its data
//! survives, as BookKeeper journals do), which is what the ledger layer's
//! quorum replication is tested against.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

use bytes::Bytes;
use parking_lot::Mutex;
use taureau_core::hash::FnvHashMap;
use taureau_core::id::LedgerId;

/// What one bookie holds for one ledger. The fence bit lives beside the
/// entries so that an append's fence check and its insert are one critical
/// section under the bookie's ledger lock: once [`Bookie::fence`] returns,
/// no append can land, so the tail a recovering owner reads next is final.
#[derive(Debug, Default)]
struct LedgerStore {
    fenced: bool,
    entries: BTreeMap<u64, Bytes>,
}

/// One storage node. Its ledgers live in one map behind one lock, a leaf:
/// nothing that runs under it takes another lock.
#[derive(Debug)]
pub struct Bookie {
    alive: AtomicBool,
    ledgers: Mutex<FnvHashMap<LedgerId, LedgerStore>>,
}

impl Default for Bookie {
    fn default() -> Self {
        Self::new()
    }
}

impl Bookie {
    /// New live bookie.
    pub fn new() -> Self {
        Self {
            alive: AtomicBool::new(true),
            ledgers: Mutex::default(),
        }
    }

    /// Whether the bookie is serving requests.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Fail-stop crash: requests fail until [`Bookie::restart`].
    pub fn crash(&self) {
        self.alive.store(false, Ordering::SeqCst);
    }

    /// Bring the bookie back (its stored entries survive, like a journal
    /// replay).
    pub fn restart(&self) {
        self.alive.store(true, Ordering::SeqCst);
    }

    /// Store an entry. Returns `false` if the bookie is down or the ledger
    /// has been fenced here by a recovering writer.
    pub(crate) fn add_entry(&self, ledger: LedgerId, entry: u64, data: Bytes) -> bool {
        if !self.is_alive() {
            return false;
        }
        let mut ledgers = self.ledgers.lock();
        let store = ledgers.entry(ledger).or_default();
        if store.fenced {
            return false;
        }
        store.entries.insert(entry, data);
        true
    }

    /// Store an entry copied by the re-replication worker. Unlike
    /// [`Bookie::add_entry`] this ignores the fence mark: fencing stops
    /// *writers*, while repair copies entries of an already-closed ledger.
    pub(crate) fn store_recovered(&self, ledger: LedgerId, entry: u64, data: Bytes) -> bool {
        if !self.is_alive() {
            return false;
        }
        self.ledgers
            .lock()
            .entry(ledger)
            .or_default()
            .entries
            .insert(entry, data);
        true
    }

    /// Fence a ledger: reject all future appends for it on this bookie.
    ///
    /// Recovery fences the ensemble *before* reading the tail, so a deposed
    /// writer that still believes it owns the ledger can no longer reach the
    /// ack quorum. The mark survives crashes (it lives in the journal, like
    /// BookKeeper's fence bit) and is only cleared by ledger deletion.
    pub(crate) fn fence(&self, ledger: LedgerId) {
        self.ledgers.lock().entry(ledger).or_default().fenced = true;
    }

    /// Whether appends to this ledger are fenced off on this bookie.
    #[cfg(test)]
    pub(crate) fn is_fenced(&self, ledger: LedgerId) -> bool {
        self.ledgers.lock().get(&ledger).is_some_and(|l| l.fenced)
    }

    /// Read an entry. `None` if down or absent.
    pub(crate) fn read_entry(&self, ledger: LedgerId, entry: u64) -> Option<Bytes> {
        if !self.is_alive() {
            return None;
        }
        self.ledgers
            .lock()
            .get(&ledger)?
            .entries
            .get(&entry)
            .cloned()
    }

    /// Highest entry id stored for a ledger (for recovery).
    pub(crate) fn last_entry(&self, ledger: LedgerId) -> Option<u64> {
        if !self.is_alive() {
            return None;
        }
        self.ledgers
            .lock()
            .get(&ledger)?
            .entries
            .keys()
            .next_back()
            .copied()
    }

    /// Drop all entries of a ledger (ledger deletion).
    pub(crate) fn delete_ledger(&self, ledger: LedgerId) {
        self.ledgers.lock().remove(&ledger);
    }

    /// Ids of all ledgers with entries stored on this bookie (journal scan;
    /// works even when crashed — re-replication reads the survivors, not
    /// the corpse, but the repair planner may still enumerate it).
    #[cfg(test)]
    pub(crate) fn ledger_ids(&self) -> Vec<LedgerId> {
        // A ledger fenced here before it stored anything has a record but
        // no entries; it is not listed.
        self.ledgers
            .lock()
            .iter()
            .filter(|(_, l)| !l.entries.is_empty())
            .map(|(id, _)| *id)
            .collect()
    }

    /// Number of entries stored for a ledger (test/metrics hook; works even
    /// when crashed, as it inspects the journal, not the serving path).
    #[cfg(test)]
    pub(crate) fn entry_count(&self, ledger: LedgerId) -> usize {
        self.ledgers
            .lock()
            .get(&ledger)
            .map_or(0, |l| l.entries.len())
    }

    /// Total bytes stored on this bookie.
    pub fn stored_bytes(&self) -> u64 {
        self.ledgers
            .lock()
            .values()
            .flat_map(|l| l.entries.values())
            .map(|b| b.len() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_read() {
        let b = Bookie::new();
        assert!(b.add_entry(LedgerId(1), 0, Bytes::from_static(b"e0")));
        assert!(b.add_entry(LedgerId(1), 1, Bytes::from_static(b"e1")));
        assert_eq!(
            b.read_entry(LedgerId(1), 0),
            Some(Bytes::from_static(b"e0"))
        );
        assert_eq!(b.read_entry(LedgerId(1), 9), None);
        assert_eq!(b.last_entry(LedgerId(1)), Some(1));
        assert_eq!(b.entry_count(LedgerId(1)), 2);
    }

    #[test]
    fn crash_rejects_requests_but_preserves_data() {
        let b = Bookie::new();
        b.add_entry(LedgerId(1), 0, Bytes::from_static(b"x"));
        b.crash();
        assert!(!b.add_entry(LedgerId(1), 1, Bytes::from_static(b"y")));
        assert_eq!(b.read_entry(LedgerId(1), 0), None);
        assert_eq!(b.last_entry(LedgerId(1)), None);
        b.restart();
        assert_eq!(b.read_entry(LedgerId(1), 0), Some(Bytes::from_static(b"x")));
    }

    #[test]
    fn fence_rejects_appends_but_serves_reads() {
        let b = Bookie::new();
        assert!(b.add_entry(LedgerId(1), 0, Bytes::from_static(b"x")));
        b.fence(LedgerId(1));
        assert!(!b.add_entry(LedgerId(1), 1, Bytes::from_static(b"y")));
        assert_eq!(b.read_entry(LedgerId(1), 0), Some(Bytes::from_static(b"x")));
        // Other ledgers are unaffected.
        assert!(b.add_entry(LedgerId(2), 0, Bytes::from_static(b"z")));
        // Deletion clears the fence mark.
        b.delete_ledger(LedgerId(1));
        assert!(!b.is_fenced(LedgerId(1)));
    }

    #[test]
    fn a_fence_mark_is_not_an_entry() {
        let b = Bookie::new();
        // Fenced before anything was stored: a record, but no entries.
        b.fence(LedgerId(7));
        assert!(b.is_fenced(LedgerId(7)));
        assert!(b.ledger_ids().is_empty());
        assert_eq!(b.last_entry(LedgerId(7)), None);
        assert_eq!(b.entry_count(LedgerId(7)), 0);
        // Repair copies into a fenced ledger; writers stay out.
        assert!(b.store_recovered(LedgerId(7), 0, Bytes::from_static(b"r")));
        assert!(!b.add_entry(LedgerId(7), 1, Bytes::from_static(b"w")));
        assert_eq!(b.ledger_ids(), vec![LedgerId(7)]);
        assert_eq!(b.last_entry(LedgerId(7)), Some(0));
        // The mark survives a crash, not a deletion.
        b.crash();
        b.restart();
        assert!(b.is_fenced(LedgerId(7)));
        b.delete_ledger(LedgerId(7));
        assert!(!b.is_fenced(LedgerId(7)));
        assert!(b.add_entry(LedgerId(7), 0, Bytes::from_static(b"w")));
    }

    /// A recovering owner fences, then reads the tail; whatever it reads is
    /// the ledger's final length. An append that checked the fence before
    /// `fence()` but inserted after the tail read would be an acked entry
    /// past `last_entry` — the check and the insert must be one critical
    /// section.
    #[test]
    fn no_append_lands_after_the_recovery_read() {
        use std::sync::atomic::AtomicU64;
        use std::sync::Barrier;
        for round in 0..400u64 {
            let b = Bookie::new();
            let ledger = LedgerId(round);
            let appended = AtomicU64::new(0);
            let start = Barrier::new(2);
            let recovered = std::thread::scope(|s| {
                s.spawn(|| {
                    start.wait();
                    let mut entry = 0u64;
                    while b.add_entry(ledger, entry, Bytes::from_static(b"e")) {
                        entry += 1;
                        appended.store(entry, Ordering::Release);
                    }
                });
                let recovery = s.spawn(|| {
                    start.wait();
                    // Let the writer get going so the fence lands mid-stream.
                    while appended.load(Ordering::Acquire) < 1 + round % 16 {
                        std::hint::spin_loop();
                    }
                    b.fence(ledger);
                    b.last_entry(ledger)
                });
                recovery.join().expect("recovery thread")
            });
            assert_eq!(
                b.last_entry(ledger),
                recovered,
                "round {round}: an append landed after the recovery read"
            );
        }
    }

    #[test]
    fn delete_ledger_reclaims() {
        let b = Bookie::new();
        b.add_entry(LedgerId(1), 0, Bytes::from(vec![0u8; 100]));
        assert_eq!(b.stored_bytes(), 100);
        b.delete_ledger(LedgerId(1));
        assert_eq!(b.stored_bytes(), 0);
        assert_eq!(b.read_entry(LedgerId(1), 0), None);
    }
}
