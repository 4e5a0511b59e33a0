//! Tiered storage — one of the "key features of Pulsar" §4.3 lists.
//!
//! Sealed ledger segments migrate from the bookies (hot, replicated,
//! memory-priced) to a BaaS blob store (cold, cheap, S3-priced). Consumers
//! read through transparently: the broker's read path falls back to the
//! cold tier when a ledger is no longer on the bookies. Offloading is
//! driven explicitly by [`crate::broker::PulsarCluster::offload_sealed`],
//! mirroring Pulsar's offload policies.

use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};
use taureau_baas::BlobStore;
use taureau_core::id::LedgerId;

use crate::framing::{packed_len, put_ends, OffsetTable};
use crate::metadata::MetadataStore;

/// The cold-tier backend configured on a cluster.
#[derive(Clone)]
pub struct TierBackend {
    /// The blob store holding offloaded segments.
    pub blob: Arc<BlobStore>,
    /// Bucket for segment objects.
    pub bucket: String,
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
/// end-offset layout batched broker entries use, so a segment read is
/// one table parse plus an O(1) slice per entry instead of a linear walk
/// over length prefixes.
pub(crate) fn encode_segment(entries: &[Bytes]) -> Vec<u8> {
    // A ledger rolls over long before it holds 4 GiB of entries.
    let total = packed_len(entries.iter().map(Bytes::len)).expect("sealed segment under 4 GiB");
    let mut buf = BytesMut::with_capacity(4 + 4 * entries.len() + total as usize);
    buf.put_u32_le(entries.len() as u32);
    put_ends(&mut buf, entries.iter().map(Bytes::len)).expect("sealed segment under 4 GiB");
    for e in entries {
        buf.put_slice(e);
    }
    buf.to_vec()
}

fn decode_entry(bytes: &Bytes, index: u64) -> Option<Bytes> {
    let count = u32::from_le_bytes(bytes.get(0..4)?.try_into().ok()?);
    if index >= count as u64 {
        return None;
    }
    let table = OffsetTable::parse(bytes, count, 4)?;
    Some(table.slice(bytes, index as u32))
}

impl TierBackend {
    /// New backend writing to `bucket`.
    pub fn new(blob: Arc<BlobStore>, bucket: impl Into<String>) -> Self {
        let bucket = bucket.into();
        blob.create_bucket(&bucket);
        Self { blob, bucket }
    }

    /// Record an offloaded segment: blob object plus metadata (entry
    /// count), so readers can find it after the bookies forget it.
    pub(crate) fn store_segment(&self, meta: &MetadataStore, id: LedgerId, entries: &[Bytes]) {
        self.blob
            .put(&self.bucket, &object_key(id), &encode_segment(entries));
        meta.put(
            &offload_meta_key(id),
            entries.len().to_string().into_bytes(),
        );
    }

    /// Whether a ledger was offloaded, and its entry count if so.
    pub(crate) fn offloaded_len(&self, meta: &MetadataStore, id: LedgerId) -> Option<u64> {
        let v = meta.get(&offload_meta_key(id))?;
        std::str::from_utf8(&v.data).ok()?.parse().ok()
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
        let enc = Bytes::from(encode_segment(&entries));
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
        tier.store_segment(&meta, id, &entries);
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
}
