//! Tiered storage — one of the "key features of Pulsar" §4.3 lists.
//!
//! Sealed ledger segments migrate from the bookies (hot, replicated,
//! memory-priced) to a BaaS blob store (cold, cheap, S3-priced). Consumers
//! read through transparently: the broker's read path falls back to the
//! cold tier when a ledger is no longer on the bookies. Offloading is
//! driven explicitly by [`crate::broker::PulsarCluster::offload_sealed`],
//! mirroring Pulsar's offload policies.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};
use taureau_baas::BlobStore;
use taureau_core::id::LedgerId;
use taureau_core::wire::Reader;

use crate::error::{PulsarError, Result};
use crate::framing::{packed_len, put_ends, OffsetTable};
use crate::metadata::MetadataStore;

/// The cold-tier backend configured on a cluster.
#[derive(Clone)]
pub(crate) struct TierBackend {
    /// The blob store holding offloaded segments.
    pub(crate) blob: Arc<BlobStore>,
    /// Bucket for segment objects.
    pub(crate) bucket: String,
}

fn offload_meta_key(id: LedgerId) -> String {
    format!("/offload/{}", id.raw())
}

fn object_key(id: LedgerId) -> Vec<u8> {
    format!("segment/{}", id.raw()).into_bytes()
}

/// Encode a sealed segment's entries with the shared offset-table
/// framing ([`crate::framing`]):
/// `[count u32 | end_offset u32 × count | entry bytes…]` — the same
/// end-offset layout ledger entries use, so a segment read is
/// one table parse plus an O(1) slice per entry instead of a linear walk
/// over length prefixes. `None` for entries past the 4 GiB a `u32` offset
/// can address, which a ledger rolls over long before it holds.
pub(crate) fn encode_segment(entries: &[Bytes]) -> Option<Vec<u8>> {
    let total = packed_len(entries.iter().map(Bytes::len))?;
    let mut buf = BytesMut::with_capacity(4 + 4 * entries.len() + total as usize);
    buf.put_u32_le(u32::try_from(entries.len()).ok()?);
    put_ends(&mut buf, entries.iter().map(Bytes::len))?;
    for e in entries {
        buf.put_slice(e);
    }
    Some(buf.to_vec())
}

fn decode_entry(bytes: &Bytes, index: u64) -> Option<Bytes> {
    let count = Reader::new(bytes).u32()?;
    if index >= u64::from(count) {
        return None;
    }
    let table = OffsetTable::parse(bytes, count, 4)?;
    Some(table.slice(bytes, index as u32))
}

impl TierBackend {
    /// New backend writing to `bucket`.
    pub(crate) fn new(blob: Arc<BlobStore>, bucket: impl Into<String>) -> Self {
        let bucket = bucket.into();
        blob.create_bucket(&bucket);
        Self { blob, bucket }
    }

    /// Record an offloaded segment: blob object plus metadata (entry
    /// count, a `u32` as in the segment), so readers can find it after the
    /// bookies forget it. Refused, storing nothing, past 4 GiB.
    pub(crate) fn store_segment(
        &self,
        meta: &MetadataStore,
        id: LedgerId,
        entries: &[Bytes],
    ) -> Result<()> {
        let segment = encode_segment(entries).ok_or(PulsarError::BatchTooLarge {
            messages: entries.len(),
        })?;
        self.blob.put(&self.bucket, &object_key(id), &segment);
        meta.write(&offload_meta_key(id), |out| {
            out.put_u32_le(entries.len() as u32)
        });
        Ok(())
    }

    /// Whether a ledger was offloaded, and its entry count if so.
    pub(crate) fn offloaded_len(&self, meta: &MetadataStore, id: LedgerId) -> Option<u64> {
        meta.read(&offload_meta_key(id), |r| r.u32()).map(u64::from)
    }

    /// Read one entry of an offloaded segment (pays cold-tier latency).
    pub(crate) fn read_entry(
        &self,
        meta: &MetadataStore,
        id: LedgerId,
        entry: u64,
    ) -> Option<Bytes> {
        self.offloaded_len(meta, id)?;
        let bytes = Bytes::from(self.blob.get(&self.bucket, &object_key(id))?);
        decode_entry(&bytes, entry)
    }

    /// Remove an offloaded segment (topic trim of cold data).
    pub(crate) fn delete_segment(&self, meta: &MetadataStore, id: LedgerId) {
        self.blob.delete(&self.bucket, &object_key(id));
        meta.delete(&offload_meta_key(id));
    }
}

#[cfg(test)]
mod tests {
    use proptest::collection::vec;
    use proptest::prelude::*;

    use super::*;
    use taureau_core::clock::VirtualClock;
    use taureau_core::latency::LatencyModel;

    fn backend() -> (TierBackend, Arc<MetadataStore>) {
        let blob = Arc::new(BlobStore::with_latency(
            VirtualClock::shared(),
            LatencyModel::zero(),
            LatencyModel::zero(),
        ));
        (
            TierBackend::new(blob, "pulsar-cold"),
            Arc::new(MetadataStore::new()),
        )
    }

    #[test]
    fn segment_codec_roundtrip() {
        let entries: Vec<Bytes> = vec![
            Bytes::from_static(b"first"),
            Bytes::new(),
            Bytes::from(vec![9u8; 1000]),
        ];
        let enc = Bytes::from(encode_segment(&entries).unwrap());
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(decode_entry(&enc, i as u64).as_ref(), Some(e));
        }
        assert_eq!(decode_entry(&enc, 3), None);
        // Decoded entries are zero-copy slices of the one segment buffer.
        let first = decode_entry(&enc, 0).unwrap();
        let base = enc.as_ref().as_ptr() as usize;
        let fp = first.as_ref().as_ptr() as usize;
        assert!(fp >= base && fp < base + enc.len());
    }

    #[test]
    fn store_and_read_back() {
        let (tier, meta) = backend();
        let id = LedgerId(7);
        let entries: Vec<Bytes> = (0..5u8).map(|i| Bytes::from(vec![i; 10])).collect();
        tier.store_segment(&meta, id, &entries).unwrap();
        assert_eq!(tier.offloaded_len(&meta, id), Some(5));
        assert_eq!(
            tier.read_entry(&meta, id, 3),
            Some(Bytes::from(vec![3u8; 10]))
        );
        assert_eq!(tier.read_entry(&meta, id, 9), None);
        assert_eq!(tier.read_entry(&meta, LedgerId(99), 0), None);
        tier.delete_segment(&meta, id);
        assert_eq!(tier.offloaded_len(&meta, id), None);
    }

    proptest! {
        /// Arbitrary bytes — raw, and encoded segments cut short and with
        /// a byte flipped — never panic the entry decode at any index. An
        /// untouched segment hands back every entry and nothing past its
        /// count; whatever is accepted is a slice of the segment buffer.
        #[test]
        fn hostile_segments_decode_inside_the_buffer(
            raw in vec(any::<u8>(), 0..64),
            entries in vec(vec(any::<u8>(), 0..9), 0..6),
            encoded in any::<bool>(),
            cut in 0usize..96,
            flip in (0usize..96, any::<u8>()),
            index in 0u64..8,
        ) {
            let entries: Vec<Bytes> = entries.into_iter().map(Bytes::from).collect();
            let formed = encode_segment(&entries).unwrap();
            if encoded {
                let whole = Bytes::from(formed.clone());
                for (i, e) in entries.iter().enumerate() {
                    prop_assert_eq!(decode_entry(&whole, i as u64), Some(e.clone()));
                }
                prop_assert_eq!(decode_entry(&whole, entries.len() as u64), None);
            }
            let mut bytes = if encoded { formed } else { raw };
            bytes.truncate(cut);
            if let Some(b) = bytes.get_mut(flip.0) {
                *b ^= flip.1;
            }
            let segment = Bytes::from(bytes);
            if let Some(entry) = decode_entry(&segment, index) {
                let (buf, at) = (segment.as_ptr_range(), entry.as_ptr_range());
                prop_assert!(entry.is_empty() || (buf.start <= at.start && at.end <= buf.end));
                prop_assert!(index < u64::from(Reader::new(&segment).u32().unwrap()));
            }
        }
    }
}
