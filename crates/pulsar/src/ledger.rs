//! Ledgers — the BookKeeper client layer.
//!
//! §4.3: "A ledger is an append-only data structure with a single writer
//! that is assigned to multiple bookies, and their entries are replicated
//! to multiple bookie nodes. … a process can create a ledger, append
//! entries and close the ledger. After the ledger has been closed, either
//! explicitly or because the writer process crashed, it can only be opened
//! in read-only mode."
//!
//! Replication follows BookKeeper's model: each ledger has an *ensemble* of
//! bookies; each entry is written to a *write quorum* of them (chosen
//! round-robin by entry id) and acknowledged once an *ack quorum* of those
//! writes succeed. Closing records the last acknowledged entry in metadata
//! (fencing); recovery after writer crash reads the highest entry visible
//! on the ensemble.

use std::sync::Arc;

use bytes::Bytes;
use taureau_core::id::LedgerId;

use crate::bookie::Bookie;
use crate::error::{PulsarError, Result};
use crate::metadata::MetadataStore;

/// Replication parameters for new ledgers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerConfig {
    /// Bookies assigned to the ledger.
    pub ensemble: usize,
    /// Replicas written per entry.
    pub write_quorum: usize,
    /// Acks required before an append succeeds.
    pub ack_quorum: usize,
}

impl Default for LedgerConfig {
    fn default() -> Self {
        Self {
            ensemble: 3,
            write_quorum: 2,
            ack_quorum: 2,
        }
    }
}

impl LedgerConfig {
    fn validate(&self) {
        assert!(self.ensemble >= 1);
        assert!(self.write_quorum >= 1 && self.write_quorum <= self.ensemble);
        assert!(self.ack_quorum >= 1 && self.ack_quorum <= self.write_quorum);
    }
}

/// Ledger metadata persisted in the metadata store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerMeta {
    /// Bookie indices in the ensemble.
    pub ensemble: Vec<usize>,
    /// Replicas per entry.
    pub write_quorum: usize,
    /// Whether the ledger is sealed.
    pub closed: bool,
    /// Last entry id if closed and non-empty.
    pub last_entry: Option<u64>,
}

impl LedgerMeta {
    fn encode(&self) -> Vec<u8> {
        let ens: Vec<String> = self.ensemble.iter().map(usize::to_string).collect();
        format!(
            "{};{};{};{}",
            if self.closed { "closed" } else { "open" },
            self.last_entry.map_or("-".to_string(), |e| e.to_string()),
            self.write_quorum,
            ens.join(",")
        )
        .into_bytes()
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let s = std::str::from_utf8(bytes).ok()?;
        let mut parts = s.split(';');
        let closed = parts.next()? == "closed";
        let last = parts.next()?;
        let last_entry = if last == "-" {
            None
        } else {
            Some(last.parse().ok()?)
        };
        let write_quorum = parts.next()?.parse().ok()?;
        let ensemble = parts
            .next()?
            .split(',')
            .filter(|x| !x.is_empty())
            .map(|x| x.parse().ok())
            .collect::<Option<Vec<usize>>>()?;
        Some(Self {
            ensemble,
            write_quorum,
            closed,
            last_entry,
        })
    }
}

/// The BookKeeper client: creates, reads, and recovers ledgers over a set
/// of bookies, with metadata in the coordination store.
#[derive(Clone)]
pub struct BookKeeper {
    bookies: Arc<Vec<Arc<Bookie>>>,
    meta: Arc<MetadataStore>,
}

fn meta_key(id: LedgerId) -> String {
    format!("/ledgers/{}", id.raw())
}

impl BookKeeper {
    /// Client over the given bookies and metadata store.
    pub fn new(bookies: Arc<Vec<Arc<Bookie>>>, meta: Arc<MetadataStore>) -> Self {
        Self { bookies, meta }
    }

    /// Create a new ledger with the given replication config.
    pub fn create_ledger(&self, cfg: LedgerConfig) -> Result<LedgerWriter> {
        cfg.validate();
        let alive: Vec<usize> = self
            .bookies
            .iter()
            .enumerate()
            .filter(|(_, b)| b.is_alive())
            .map(|(i, _)| i)
            .collect();
        if alive.len() < cfg.ensemble {
            return Err(PulsarError::InsufficientBookies {
                needed: cfg.ensemble,
                alive: alive.len(),
            });
        }
        let id = LedgerId(self.meta.next_sequence());
        // Rotate the ensemble start by ledger id so load spreads.
        let start = (id.raw() as usize) % alive.len();
        let ensemble: Vec<usize> = (0..cfg.ensemble)
            .map(|i| alive[(start + i) % alive.len()])
            .collect();
        let meta = LedgerMeta {
            ensemble: ensemble.clone(),
            write_quorum: cfg.write_quorum,
            closed: false,
            last_entry: None,
        };
        self.meta.create(&meta_key(id), meta.encode())?;
        Ok(LedgerWriter {
            bk: self.clone(),
            id,
            ensemble,
            cfg,
            next_entry: 0,
            closed: false,
        })
    }

    /// Fetch ledger metadata.
    pub fn ledger_meta(&self, id: LedgerId) -> Result<LedgerMeta> {
        let v = self
            .meta
            .get(&meta_key(id))
            .ok_or(PulsarError::LedgerNotFound(id))?;
        LedgerMeta::decode(&v.data).ok_or(PulsarError::LedgerNotFound(id))
    }

    fn replicas_for(meta: &LedgerMeta, entry: u64) -> impl Iterator<Item = usize> + '_ {
        let n = meta.ensemble.len();
        let start = (entry as usize) % n;
        (0..meta.write_quorum).map(move |i| meta.ensemble[(start + i) % n])
    }

    /// One entry from the first replica `meta` names that is alive and
    /// has it.
    fn read_replica(&self, meta: &LedgerMeta, id: LedgerId, entry: u64) -> Option<Bytes> {
        Self::replicas_for(meta, entry).find_map(|i| self.bookies[i].read_entry(id, entry))
    }

    /// Read one entry, trying each replica until a live bookie has it.
    pub fn read_entry(&self, id: LedgerId, entry: u64) -> Result<Bytes> {
        let meta = self.ledger_meta(id)?;
        self.read_replica(&meta, id, entry)
            .ok_or(PulsarError::EntryUnavailable { ledger: id, entry })
    }

    /// Read entries `0..=last` in order: [`BookKeeper::read_entry`] for
    /// each, with the ledger metadata fetched and decoded once for the
    /// ledger instead of once per entry. An entry the ensemble of that one
    /// fetch cannot serve is retried against fresh metadata (a repair may
    /// have moved it meanwhile) before the read fails.
    pub fn read_through(&self, id: LedgerId, last: u64) -> Result<Vec<Bytes>> {
        let meta = self.ledger_meta(id)?;
        (0..=last)
            .map(|entry| match self.read_replica(&meta, id, entry) {
                Some(data) => Ok(data),
                None => self.read_entry(id, entry),
            })
            .collect()
    }

    /// Last confirmed entry of a ledger: from metadata if closed, otherwise
    /// by polling the ensemble (recovery read).
    pub fn last_entry(&self, id: LedgerId) -> Result<Option<u64>> {
        let meta = self.ledger_meta(id)?;
        if meta.closed {
            return Ok(meta.last_entry);
        }
        Ok(meta
            .ensemble
            .iter()
            .filter_map(|&i| self.bookies[i].last_entry(id))
            .max())
    }

    /// Fence and close a ledger whose writer crashed: record the highest
    /// entry visible on the ensemble as the final length.
    ///
    /// The ensemble is fenced *before* the recovery read, so a deposed
    /// writer that is still running cannot reach its ack quorum after the
    /// new owner has decided the ledger's final length.
    pub fn recover_and_close(&self, id: LedgerId) -> Result<Option<u64>> {
        let mut meta = self.ledger_meta(id)?;
        if meta.closed {
            return Ok(meta.last_entry);
        }
        for &i in &meta.ensemble {
            self.bookies[i].fence(id);
        }
        let last = meta
            .ensemble
            .iter()
            .filter_map(|&i| self.bookies[i].last_entry(id))
            .max();
        meta.closed = true;
        meta.last_entry = last;
        self.meta.put(&meta_key(id), meta.encode());
        Ok(last)
    }

    /// Delete a ledger's entries and metadata ("when the entries … are no
    /// longer needed, the whole ledger can be deleted").
    pub fn delete_ledger(&self, id: LedgerId) -> Result<()> {
        let meta = self.ledger_meta(id)?;
        for &i in &meta.ensemble {
            self.bookies[i].delete_ledger(id);
        }
        self.meta.delete(&meta_key(id));
        Ok(())
    }

    /// Ids of every ledger known to the metadata store.
    pub fn all_ledgers(&self) -> Vec<LedgerId> {
        let prefix = "/ledgers/";
        let mut ids: Vec<LedgerId> = self
            .meta
            .list_prefix(prefix)
            .into_iter()
            .filter_map(|k| k[prefix.len()..].parse().ok().map(LedgerId))
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Ledgers whose ensemble includes the given bookie index.
    pub fn ledgers_on(&self, bookie: usize) -> Vec<LedgerId> {
        self.all_ledgers()
            .into_iter()
            .filter(|&id| {
                self.ledger_meta(id)
                    .map(|m| m.ensemble.contains(&bookie))
                    .unwrap_or(false)
            })
            .collect()
    }

    /// Ledgers that currently have at least one dead bookie in their
    /// ensemble — i.e. entries stored below the replication factor. The
    /// re-replication worker drains this to zero.
    pub fn underreplicated_ledgers(&self) -> Vec<LedgerId> {
        self.all_ledgers()
            .into_iter()
            .filter(|&id| {
                self.ledger_meta(id)
                    .map(|m| m.ensemble.iter().any(|&i| !self.bookies[i].is_alive()))
                    .unwrap_or(false)
            })
            .collect()
    }

    /// Repair one ledger after a bookie failure: copy every entry the dead
    /// bookie was a replica for onto `target`, then swap `dead` → `target`
    /// in the ensemble metadata.
    ///
    /// The ledger is fenced and closed first (its writer, if any, has lost
    /// its quorum anyway), so the entry set being copied is final. Swapping
    /// by ensemble *position* preserves the round-robin placement function:
    /// `replicas_for` keeps mapping each entry to the same slots, with the
    /// new bookie standing in the dead one's slot.
    pub fn rereplicate_ledger(&self, id: LedgerId, dead: usize, target: usize) -> Result<u64> {
        let mut meta = self.ledger_meta(id)?;
        if !meta.ensemble.contains(&dead) {
            return Ok(0);
        }
        if !meta.closed {
            self.recover_and_close(id)?;
            meta = self.ledger_meta(id)?;
        }
        let mut copied = 0u64;
        if let Some(last) = meta.last_entry {
            for entry in 0..=last {
                if !Self::replicas_for(&meta, entry).any(|i| i == dead) {
                    continue;
                }
                // Read from any surviving replica; the dead bookie simply
                // returns None so the iteration skips it.
                let data = self.read_entry(id, entry)?;
                if !self.bookies[target].store_recovered(id, entry, data) {
                    return Err(PulsarError::QuorumUnavailable { needed: 1, got: 0 });
                }
                copied += 1;
            }
        }
        // The ledger is closed: fence the replacement too so a zombie
        // writer cannot append through the new replica.
        self.bookies[target].fence(id);
        for slot in meta.ensemble.iter_mut() {
            if *slot == dead {
                *slot = target;
            }
        }
        self.meta.put(&meta_key(id), meta.encode());
        Ok(copied)
    }

    /// Re-replicate every ledger that had `dead` in its ensemble onto
    /// `target`. Returns `(ledgers_repaired, entries_copied)`.
    pub fn rereplicate_from(&self, dead: usize, target: usize) -> Result<(usize, u64)> {
        let mut ledgers = 0usize;
        let mut entries = 0u64;
        for id in self.ledgers_on(dead) {
            entries += self.rereplicate_ledger(id, dead, target)?;
            ledgers += 1;
        }
        Ok((ledgers, entries))
    }
}

/// The single writer of an open ledger.
pub struct LedgerWriter {
    bk: BookKeeper,
    id: LedgerId,
    ensemble: Vec<usize>,
    cfg: LedgerConfig,
    next_entry: u64,
    closed: bool,
}

impl LedgerWriter {
    /// Ledger id.
    pub fn id(&self) -> LedgerId {
        self.id
    }

    /// Entries appended so far.
    pub fn len(&self) -> u64 {
        self.next_entry
    }

    /// Whether no entries were appended.
    pub fn is_empty(&self) -> bool {
        self.next_entry == 0
    }

    /// Append an entry, replicating to the write quorum.
    ///
    /// # Errors
    /// [`PulsarError::LedgerClosed`] after close;
    /// [`PulsarError::QuorumUnavailable`] if fewer than `ack_quorum`
    /// replicas accepted the write (the entry id is *not* consumed — the
    /// broker responds by rolling over to a new ledger).
    pub fn append(&mut self, data: Bytes) -> Result<u64> {
        if self.closed {
            return Err(PulsarError::LedgerClosed(self.id));
        }
        let entry = self.next_entry;
        let n = self.ensemble.len();
        let start = (entry as usize) % n;
        let mut acks = 0;
        for i in 0..self.cfg.write_quorum {
            let bk_idx = self.ensemble[(start + i) % n];
            // `data.clone()` is a refcount bump, not a byte copy: every
            // replica in the write quorum stores a view of the SAME
            // allocation (`replicas_share_one_entry_allocation` pins this
            // down). Replicating an entry is O(quorum), not O(quorum·len).
            if self.bk.bookies[bk_idx].add_entry(self.id, entry, data.clone()) {
                acks += 1;
            }
        }
        if acks < self.cfg.ack_quorum {
            return Err(PulsarError::QuorumUnavailable {
                needed: self.cfg.ack_quorum,
                got: acks,
            });
        }
        self.next_entry += 1;
        Ok(entry)
    }

    /// Seal the ledger; subsequent appends fail and readers see the final
    /// length in metadata.
    pub fn close(&mut self) -> Result<()> {
        if self.closed {
            return Ok(());
        }
        self.closed = true;
        // Recovery (a new topic owner, or bookie-failure re-replication)
        // fences the ensemble and closes the metadata behind a writer that
        // is still running; the writer only notices on its next append.
        // That recovered state — the final length, possibly a repaired
        // ensemble — must win: overwriting it here would put a dead bookie
        // back into the ensemble and silently undo the re-replication.
        if matches!(self.bk.ledger_meta(self.id), Ok(m) if m.closed) {
            return Ok(());
        }
        let meta = LedgerMeta {
            ensemble: self.ensemble.clone(),
            write_quorum: self.cfg.write_quorum,
            closed: true,
            last_entry: self.next_entry.checked_sub(1),
        };
        self.bk.meta.put(&meta_key(self.id), meta.encode());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use proptest::collection::vec;
    use proptest::prelude::*;

    use super::*;

    fn cluster(n: usize) -> (BookKeeper, Arc<Vec<Arc<Bookie>>>) {
        let bookies: Arc<Vec<Arc<Bookie>>> =
            Arc::new((0..n).map(|i| Arc::new(Bookie::new(i))).collect());
        let meta = Arc::new(MetadataStore::new());
        (BookKeeper::new(bookies.clone(), meta), bookies)
    }

    #[test]
    fn meta_codec_roundtrip() {
        for meta in [
            LedgerMeta {
                ensemble: vec![0, 2, 4],
                write_quorum: 2,
                closed: false,
                last_entry: None,
            },
            LedgerMeta {
                ensemble: vec![1],
                write_quorum: 1,
                closed: true,
                last_entry: Some(41),
            },
            LedgerMeta {
                ensemble: vec![0, 1],
                write_quorum: 2,
                closed: true,
                last_entry: None,
            },
        ] {
            assert_eq!(LedgerMeta::decode(&meta.encode()), Some(meta));
        }
    }

    proptest! {
        #[test]
        fn meta_codec_roundtrips_any_meta(
            ensemble in vec(any::<usize>(), 0..12),
            write_quorum in any::<usize>(),
            closed in any::<bool>(),
            last in any::<u64>(),
            has_last in any::<bool>(),
        ) {
            let meta = LedgerMeta {
                ensemble,
                write_quorum,
                closed,
                last_entry: has_last.then_some(last),
            };
            prop_assert_eq!(LedgerMeta::decode(&meta.encode()), Some(meta));
        }

        /// Arbitrary bytes, raw and drawn from the codec's own alphabet,
        /// never panic the decoder, and the ensemble it returns is bounded
        /// by the bytes given — never by a number read in them.
        #[test]
        fn meta_decode_survives_hostile_bytes(
            raw in vec(any::<u8>(), 0..64),
            picks in vec(0usize..8, 0..12),
        ) {
            const WORDS: [&str; 8] = ["open", "closed", ";", ",", "-", "7", "18446744073709551616", "\u{fffd}x"];
            let shaped: String = picks.iter().map(|&i| WORDS[i]).collect();
            for bytes in [&raw[..], shaped.as_bytes()] {
                if let Some(meta) = LedgerMeta::decode(bytes) {
                    prop_assert!(meta.ensemble.len() <= bytes.len());
                }
            }
        }
    }

    #[test]
    fn malformed_meta_decodes_to_nothing() {
        for bad in [
            &b""[..],
            b"open",
            b"open;-",
            b"open;-;2",
            b"open;x;2;0,1",
            b"open;-;-2;0,1",
            b"open;-;2;0,x",
            b"closed;18446744073709551616;2;0,1",
            b"open;-;2;0,1\xff",
        ] {
            assert_eq!(LedgerMeta::decode(bad), None, "{bad:?}");
        }
        // Anything but "closed" reads as open; empty ensemble slots and
        // fields past the fourth are skipped, as they always were.
        assert_eq!(
            LedgerMeta::decode(b"?;5;2;,0,,1,;junk"),
            Some(LedgerMeta {
                ensemble: vec![0, 1],
                write_quorum: 2,
                closed: false,
                last_entry: Some(5),
            })
        );
    }

    #[test]
    fn append_read_roundtrip() {
        let (bk, _) = cluster(3);
        let mut w = bk.create_ledger(LedgerConfig::default()).unwrap();
        for i in 0..10u64 {
            let e = w.append(Bytes::from(i.to_le_bytes().to_vec())).unwrap();
            assert_eq!(e, i);
        }
        for i in 0..10u64 {
            let data = bk.read_entry(w.id(), i).unwrap();
            assert_eq!(data, Bytes::from(i.to_le_bytes().to_vec()));
        }
    }

    #[test]
    fn fenced_writer_close_cannot_clobber_recovered_meta() {
        let (bk, bookies) = cluster(4);
        let mut w = bk.create_ledger(LedgerConfig::default()).unwrap();
        for i in 0..6u64 {
            w.append(Bytes::from(i.to_le_bytes().to_vec())).unwrap();
        }
        // A bookie in the ensemble dies; repair fences + closes the open
        // tail and swaps the dead slot for the spare — all while the
        // original writer is still open and unaware.
        let meta_before = bk.ledger_meta(w.id()).unwrap();
        let dead = meta_before.ensemble[0];
        let spare = (0..4).find(|i| !meta_before.ensemble.contains(i)).unwrap();
        bookies[dead].crash();
        bk.rereplicate_ledger(w.id(), dead, spare).unwrap();
        let repaired = bk.ledger_meta(w.id()).unwrap();
        assert!(repaired.closed);
        assert!(!repaired.ensemble.contains(&dead));

        // The deposed writer notices only on its next append (fenced),
        // and seals. Its stale view must NOT overwrite the repair.
        assert!(matches!(
            w.append(Bytes::from_static(b"zombie")),
            Err(PulsarError::QuorumUnavailable { .. })
        ));
        w.close().unwrap();
        assert_eq!(bk.ledger_meta(w.id()).unwrap(), repaired);
        assert!(bk.underreplicated_ledgers().is_empty());
    }

    #[test]
    fn entries_are_replicated_write_quorum_times() {
        let (bk, bookies) = cluster(3);
        let cfg = LedgerConfig {
            ensemble: 3,
            write_quorum: 2,
            ack_quorum: 2,
        };
        let mut w = bk.create_ledger(cfg).unwrap();
        for _ in 0..30 {
            w.append(Bytes::from_static(b"x")).unwrap();
        }
        let total: usize = bookies.iter().map(|b| b.entry_count(w.id())).sum();
        assert_eq!(total, 60, "each entry stored write_quorum=2 times");
    }

    #[test]
    fn replicas_share_one_entry_allocation() {
        // Group commit only pays off if replication doesn't multiply the
        // memcpy: the same refcounted buffer must back every replica.
        let (bk, bookies) = cluster(3);
        let cfg = LedgerConfig {
            ensemble: 3,
            write_quorum: 3,
            ack_quorum: 2,
        };
        let mut w = bk.create_ledger(cfg).unwrap();
        let data = Bytes::from(vec![7u8; 4096]);
        let src = data.as_ref().as_ptr();
        let entry = w.append(data).unwrap();
        let ptrs: Vec<*const u8> = bookies
            .iter()
            .map(|b| {
                b.read_entry(w.id(), entry)
                    .expect("replica stored")
                    .as_ref()
                    .as_ptr()
            })
            .collect();
        assert_eq!(ptrs.len(), 3);
        for p in &ptrs {
            assert_eq!(*p, src, "replica copied the entry instead of sharing it");
        }
    }

    #[test]
    fn close_seals_ledger() {
        let (bk, _) = cluster(3);
        let mut w = bk.create_ledger(LedgerConfig::default()).unwrap();
        w.append(Bytes::from_static(b"a")).unwrap();
        w.close().unwrap();
        assert!(matches!(
            w.append(Bytes::from_static(b"b")),
            Err(PulsarError::LedgerClosed(_))
        ));
        let meta = bk.ledger_meta(w.id()).unwrap();
        assert!(meta.closed);
        assert_eq!(meta.last_entry, Some(0));
        assert_eq!(bk.last_entry(w.id()).unwrap(), Some(0));
    }

    #[test]
    fn reads_survive_one_bookie_crash() {
        let (bk, bookies) = cluster(3);
        let cfg = LedgerConfig {
            ensemble: 3,
            write_quorum: 2,
            ack_quorum: 2,
        };
        let mut w = bk.create_ledger(cfg).unwrap();
        for i in 0..20u64 {
            w.append(Bytes::from(vec![i as u8])).unwrap();
        }
        bookies[1].crash();
        for i in 0..20u64 {
            assert_eq!(
                bk.read_entry(w.id(), i).unwrap(),
                Bytes::from(vec![i as u8])
            );
        }
    }

    #[test]
    fn writes_fail_when_quorum_lost() {
        let (bk, bookies) = cluster(3);
        let cfg = LedgerConfig {
            ensemble: 3,
            write_quorum: 3,
            ack_quorum: 2,
        };
        let mut w = bk.create_ledger(cfg).unwrap();
        w.append(Bytes::from_static(b"ok")).unwrap();
        bookies[0].crash();
        bookies[1].crash();
        assert!(matches!(
            w.append(Bytes::from_static(b"fails")),
            Err(PulsarError::QuorumUnavailable { needed: 2, got: 1 })
        ));
    }

    #[test]
    fn recovery_closes_orphaned_ledger() {
        let (bk, _) = cluster(3);
        let mut w = bk.create_ledger(LedgerConfig::default()).unwrap();
        for _ in 0..5 {
            w.append(Bytes::from_static(b"e")).unwrap();
        }
        let id = w.id();
        drop(w); // writer "crashes" without closing
        let last = bk.recover_and_close(id).unwrap();
        assert_eq!(last, Some(4));
        let meta = bk.ledger_meta(id).unwrap();
        assert!(meta.closed);
        // Recovery is idempotent.
        assert_eq!(bk.recover_and_close(id).unwrap(), Some(4));
    }

    #[test]
    fn create_fails_without_enough_bookies() {
        let (bk, bookies) = cluster(3);
        bookies[0].crash();
        let cfg = LedgerConfig {
            ensemble: 3,
            write_quorum: 2,
            ack_quorum: 1,
        };
        assert!(matches!(
            bk.create_ledger(cfg),
            Err(PulsarError::InsufficientBookies {
                needed: 3,
                alive: 2
            })
        ));
    }

    #[test]
    fn recovery_fences_out_deposed_writer() {
        let (bk, _) = cluster(3);
        let cfg = LedgerConfig {
            ensemble: 3,
            write_quorum: 2,
            ack_quorum: 2,
        };
        let mut w = bk.create_ledger(cfg).unwrap();
        w.append(Bytes::from_static(b"before")).unwrap();
        // New owner recovers the ledger while the old writer still runs.
        assert_eq!(bk.recover_and_close(w.id()).unwrap(), Some(0));
        // The zombie writer can no longer reach its ack quorum.
        assert!(matches!(
            w.append(Bytes::from_static(b"zombie")),
            Err(PulsarError::QuorumUnavailable { .. })
        ));
        assert_eq!(bk.last_entry(w.id()).unwrap(), Some(0));
    }

    #[test]
    fn rereplication_restores_replication_factor() {
        let bookies: Arc<Vec<Arc<Bookie>>> =
            Arc::new((0..4).map(|i| Arc::new(Bookie::new(i))).collect());
        bookies[3].crash(); // spare, not yet provisioned
        let meta = Arc::new(MetadataStore::new());
        let bk = BookKeeper::new(bookies.clone(), meta);
        let cfg = LedgerConfig {
            ensemble: 3,
            write_quorum: 2,
            ack_quorum: 2,
        };
        let mut w = bk.create_ledger(cfg).unwrap();
        for i in 0..30u64 {
            w.append(Bytes::from(vec![i as u8])).unwrap();
        }
        w.close().unwrap();
        let id = w.id();
        let dead = 1usize;
        bookies[dead].crash();
        assert_eq!(bk.underreplicated_ledgers(), vec![id]);
        // Provision the spare and repair onto it.
        bookies[3].restart();
        let (ledgers, entries) = bk.rereplicate_from(dead, 3).unwrap();
        assert_eq!(ledgers, 1);
        // write_quorum=2 over a 3-ensemble: the dead slot held 2/3 of entries.
        assert_eq!(entries, 20);
        assert!(bk.underreplicated_ledgers().is_empty());
        // Every entry is back at full replication on live bookies.
        let m = bk.ledger_meta(id).unwrap();
        assert!(!m.ensemble.contains(&dead));
        for entry in 0..30u64 {
            let copies = BookKeeper::replicas_for(&m, entry)
                .filter(|&i| bookies[i].read_entry(id, entry).is_some())
                .count();
            assert_eq!(copies, 2, "entry {entry} below replication factor");
        }
    }

    #[test]
    fn delete_ledger_reclaims_storage() {
        let (bk, bookies) = cluster(3);
        let mut w = bk.create_ledger(LedgerConfig::default()).unwrap();
        w.append(Bytes::from(vec![0u8; 1000])).unwrap();
        w.close().unwrap();
        let id = w.id();
        assert!(bookies.iter().map(|b| b.stored_bytes()).sum::<u64>() > 0);
        bk.delete_ledger(id).unwrap();
        assert_eq!(bookies.iter().map(|b| b.stored_bytes()).sum::<u64>(), 0);
        assert!(matches!(
            bk.read_entry(id, 0),
            Err(PulsarError::LedgerNotFound(_))
        ));
    }
}
