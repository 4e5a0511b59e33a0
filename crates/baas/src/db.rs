//! A serverless transactional database (Aurora-Serverless class).
//!
//! Multi-version concurrency control with **snapshot isolation**:
//! transactions read a consistent snapshot (the state as of their begin
//! timestamp) and buffer writes; commit performs optimistic validation
//! (first-committer-wins on write-write conflicts). Write skew is
//! permitted, as real SI databases permit it.
//!
//! The serverless tie-in (§4.1): FaaS platforms re-execute functions on
//! failure, so any multi-step state mutation must be wrapped in a
//! transaction to stay correct under at-least-once execution.
//! [`ServerlessDb::run_transaction`] is the retry loop applications use.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use parking_lot::Mutex;

/// Commit timestamp (monotone).
type Ts = u64;

/// Transaction errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// Another transaction committed a conflicting change first; retry.
    Conflict {
        /// The key that conflicted.
        key: Vec<u8>,
    },
    /// The retry budget of [`ServerlessDb::run_transaction`] was exhausted.
    RetriesExhausted {
        /// Attempts made.
        attempts: u32,
    },
    /// The transaction body itself failed (application error).
    Aborted(String),
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Conflict { key } => {
                write!(
                    f,
                    "optimistic conflict on key {:?}",
                    String::from_utf8_lossy(key)
                )
            }
            DbError::RetriesExhausted { attempts } => {
                write!(f, "transaction failed after {attempts} attempts")
            }
            DbError::Aborted(reason) => write!(f, "transaction aborted: {reason}"),
        }
    }
}

impl std::error::Error for DbError {}

#[derive(Debug, Default)]
struct DbState {
    /// key -> versions sorted by commit ts; `None` value is a tombstone.
    versions: HashMap<Vec<u8>, BTreeMap<Ts, Option<Vec<u8>>>>,
    /// Last committed timestamp.
    last_commit: Ts,
    /// Committed transactions kept for validation: commit_ts -> write set.
    commit_log: BTreeMap<Ts, HashSet<Vec<u8>>>,
    reads: u64,
    writes: u64,
    commits: u64,
    aborts: u64,
}

/// The database handle. Cheap to clone; clones share state.
#[derive(Clone, Default)]
pub struct ServerlessDb {
    state: Arc<Mutex<DbState>>,
}

/// An open transaction: a snapshot timestamp plus buffered writes.
pub struct Txn {
    db: ServerlessDb,
    snapshot: Ts,
    write_set: HashMap<Vec<u8>, Option<Vec<u8>>>,
}

impl ServerlessDb {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Begin a snapshot-isolation transaction.
    pub fn begin(&self) -> Txn {
        let snapshot = self.state.lock().last_commit;
        Txn {
            db: self.clone(),
            snapshot,
            write_set: HashMap::new(),
        }
    }

    /// Auto-committed single read (sees the latest committed state).
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let mut st = self.state.lock();
        st.reads += 1;
        read_at(&st, key, Ts::MAX)
    }

    /// Auto-committed single write.
    pub fn put(&self, key: &[u8], value: &[u8]) {
        let mut txn = self.begin();
        txn.put(key, value);
        txn.commit()
            .expect("single-key auto-commit cannot conflict");
    }

    /// Run `body` as a transaction, retrying on optimistic conflicts up to
    /// `max_attempts` — the safe pattern for at-least-once function
    /// execution.
    pub fn run_transaction<T>(
        &self,
        max_attempts: u32,
        mut body: impl FnMut(&mut Txn) -> Result<T, DbError>,
    ) -> Result<T, DbError> {
        assert!(max_attempts >= 1);
        for _ in 0..max_attempts {
            let mut txn = self.begin();
            let out = body(&mut txn)?;
            match txn.commit() {
                Ok(()) => return Ok(out),
                Err(DbError::Conflict { .. }) => continue,
                Err(e) => return Err(e),
            }
        }
        Err(DbError::RetriesExhausted {
            attempts: max_attempts,
        })
    }

    /// (reads, writes, commits, aborts) counters for billing/metrics.
    pub fn op_counts(&self) -> (u64, u64, u64, u64) {
        let st = self.state.lock();
        (st.reads, st.writes, st.commits, st.aborts)
    }
}

fn read_at(st: &DbState, key: &[u8], ts: Ts) -> Option<Vec<u8>> {
    st.versions
        .get(key)?
        .range(..=ts)
        .next_back()
        .and_then(|(_, v)| v.clone())
}

impl Txn {
    /// Read a key: own writes first, then the snapshot.
    pub fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        if let Some(buffered) = self.write_set.get(key) {
            return buffered.clone();
        }
        let mut st = self.db.state.lock();
        st.reads += 1;
        read_at(&st, key, self.snapshot)
    }

    /// Buffer a write.
    pub fn put(&mut self, key: &[u8], value: &[u8]) {
        self.write_set.insert(key.to_vec(), Some(value.to_vec()));
    }

    /// Buffer a delete.
    pub fn delete(&mut self, key: &[u8]) {
        self.write_set.insert(key.to_vec(), None);
    }

    /// Validate and commit.
    ///
    /// # Errors
    /// [`DbError::Conflict`] if another transaction committed a write to a
    /// key in this transaction's write set after this transaction's
    /// snapshot.
    pub fn commit(self) -> Result<(), DbError> {
        let mut st = self.db.state.lock();
        if self.write_set.is_empty() {
            // Read-only transactions saw a consistent snapshot; they can
            // always commit.
            st.commits += 1;
            return Ok(());
        }
        // Validation against everything committed after our snapshot.
        for key in self.write_set.keys() {
            let newer = st
                .commit_log
                .range(self.snapshot + 1..)
                .any(|(_, writes)| writes.contains(key));
            if newer {
                st.aborts += 1;
                return Err(DbError::Conflict { key: key.clone() });
            }
        }
        let ts = st.last_commit + 1;
        st.last_commit = ts;
        let mut written = HashSet::with_capacity(self.write_set.len());
        for (key, value) in self.write_set {
            st.writes += 1;
            st.versions
                .entry(key.clone())
                .or_default()
                .insert(ts, value);
            written.insert(key);
        }
        st.commit_log.insert(ts, written);
        st.commits += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn autocommit_roundtrip() {
        let db = ServerlessDb::new();
        db.put(b"k", b"v1");
        assert_eq!(db.get(b"k"), Some(b"v1".to_vec()));
        db.put(b"k", b"v2");
        assert_eq!(db.get(b"k"), Some(b"v2".to_vec()));
        assert_eq!(db.get(b"missing"), None);
    }

    #[test]
    fn snapshot_reads_ignore_concurrent_commits() {
        let db = ServerlessDb::new();
        db.put(b"k", b"old");
        let mut reader = db.begin();
        // A concurrent writer commits…
        db.put(b"k", b"new");
        // …but the reader's snapshot predates it.
        assert_eq!(reader.get(b"k"), Some(b"old".to_vec()));
        // A fresh transaction sees the new value.
        let mut fresh = db.begin();
        assert_eq!(fresh.get(b"k"), Some(b"new".to_vec()));
    }

    #[test]
    fn reads_see_own_writes() {
        let db = ServerlessDb::new();
        let mut txn = db.begin();
        txn.put(b"k", b"mine");
        assert_eq!(txn.get(b"k"), Some(b"mine".to_vec()));
        txn.delete(b"k");
        assert_eq!(txn.get(b"k"), None);
        txn.commit().unwrap();
        assert_eq!(db.get(b"k"), None);
    }

    #[test]
    fn write_write_conflict_first_committer_wins() {
        let db = ServerlessDb::new();
        db.put(b"k", b"base");
        let mut t1 = db.begin();
        let mut t2 = db.begin();
        t1.put(b"k", b"one");
        t2.put(b"k", b"two");
        t1.commit().unwrap();
        assert!(matches!(t2.commit(), Err(DbError::Conflict { .. })));
        assert_eq!(db.get(b"k"), Some(b"one".to_vec()));
    }

    #[test]
    fn lost_update_prevented() {
        // Classic read-modify-write race: both read 10, both add 5; the
        // second committer must conflict rather than lose an update.
        let db = ServerlessDb::new();
        db.put(b"counter", &10u64.to_le_bytes());
        let bump = |txn: &mut Txn| {
            let v = u64::from_le_bytes(txn.get(b"counter").unwrap().try_into().unwrap());
            txn.put(b"counter", &(v + 5).to_le_bytes());
        };
        let mut t1 = db.begin();
        let mut t2 = db.begin();
        bump(&mut t1);
        bump(&mut t2);
        t1.commit().unwrap();
        assert!(t2.commit().is_err());
        let v = u64::from_le_bytes(db.get(b"counter").unwrap().try_into().unwrap());
        assert_eq!(v, 15);
    }

    #[test]
    fn run_transaction_retries_to_success() {
        let db = ServerlessDb::new();
        db.put(b"counter", &0u64.to_le_bytes());
        // Interleave 10 logical increments with deliberate conflicts by
        // running pairs and retrying.
        for _ in 0..10 {
            db.run_transaction(5, |txn| {
                let v = u64::from_le_bytes(txn.get(b"counter").unwrap().try_into().unwrap());
                txn.put(b"counter", &(v + 1).to_le_bytes());
                Ok(())
            })
            .unwrap();
        }
        let v = u64::from_le_bytes(db.get(b"counter").unwrap().try_into().unwrap());
        assert_eq!(v, 10);
    }

    #[test]
    fn concurrent_increments_are_exact() {
        let db = ServerlessDb::new();
        db.put(b"n", &0u64.to_le_bytes());
        let mut handles = vec![];
        for _ in 0..8 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    db.run_transaction(1000, |txn| {
                        let v = u64::from_le_bytes(txn.get(b"n").unwrap().try_into().unwrap());
                        txn.put(b"n", &(v + 1).to_le_bytes());
                        Ok(())
                    })
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let v = u64::from_le_bytes(db.get(b"n").unwrap().try_into().unwrap());
        assert_eq!(v, 800, "increments lost or duplicated");
    }

    #[test]
    fn write_skew_is_allowed_under_snapshot_isolation() {
        // Two doctors on call; each checks "at least one other on call"
        // then signs off. SI lets both commit (write skew).
        let db = ServerlessDb::new();
        db.put(b"alice", b"on");
        db.put(b"bob", b"on");
        let mut t1 = db.begin();
        let mut t2 = db.begin();
        // Alice signs off if Bob is on.
        let bob_on = t1.get(b"bob") == Some(b"on".to_vec());
        if bob_on {
            t1.put(b"alice", b"off");
        }
        // Bob signs off if Alice is on.
        let alice_on = t2.get(b"alice") == Some(b"on".to_vec());
        if alice_on {
            t2.put(b"bob", b"off");
        }
        assert!(
            t1.commit().is_ok() && t2.commit().is_ok(),
            "SI permits write skew (both commit)"
        );
    }

    #[test]
    fn read_only_transactions_never_conflict() {
        let db = ServerlessDb::new();
        db.put(b"k", b"v");
        let mut t = db.begin();
        let _ = t.get(b"k");
        db.put(b"k", b"v2"); // concurrent write to the read key
        t.commit().unwrap(); // read-only: still fine
    }

    #[test]
    fn tombstones_delete_across_transactions() {
        let db = ServerlessDb::new();
        db.put(b"k", b"v");
        let mut t = db.begin();
        t.delete(b"k");
        t.commit().unwrap();
        assert_eq!(db.get(b"k"), None);
        // Old snapshot still sees it (MVCC).
        let st = db.state.lock();
        assert_eq!(read_at(&st, b"k", 1), Some(b"v".to_vec()));
    }

    #[test]
    fn op_counters_track_activity() {
        let db = ServerlessDb::new();
        db.put(b"k", b"v");
        let _ = db.get(b"k");
        let mut t1 = db.begin();
        let mut t2 = db.begin();
        t1.put(b"k", b"a");
        t2.put(b"k", b"b");
        t1.commit().unwrap();
        let _ = t2.commit();
        let (reads, writes, commits, aborts) = db.op_counts();
        assert!(reads >= 1);
        assert_eq!(writes, 2); // the auto-commit + t1
        assert_eq!(commits, 2);
        assert_eq!(aborts, 1);
    }
}
