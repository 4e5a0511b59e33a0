//! Seeded 64-bit hashing for sketches.
//!
//! Sketches need families of independent hash functions. We derive them from
//! one strong 64-bit hash (a wyhash-style multiply-mix over 8-byte chunks)
//! using the Kirsch–Mitzenmacher construction: `g_i(x) = h1(x) + i·h2(x)`,
//! which preserves the asymptotic guarantees of Bloom filters and Count-Min
//! while costing one hash of the input.

/// A seeded 64-bit hash over a byte slice.
///
/// Not cryptographic; chosen for speed, full 64-bit avalanche, and
/// reproducibility across runs (no per-process randomness, so sketches built
/// in different function instances with the same seed are mergeable).
///
/// `#[inline]` because every caller sits in another crate and most pass a
/// key of constant length (`u32`/`u64` keys, `&payload[..4]`): inlined, the
/// chunk loop and the tail collapse to one or two loads.
#[inline]
pub fn hash64(seed: u64, bytes: &[u8]) -> u64 {
    const P0: u64 = 0xa076_1d64_78bd_642f;
    const P1: u64 = 0xe703_7ed1_a0b4_28db;
    const P2: u64 = 0x8ebc_6af0_9c88_c6e3;

    let mut acc = seed ^ P0;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let v = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        acc = mix(acc ^ v, P1);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        acc = mix(acc ^ tail_le(rem), P2);
    }
    mix(acc ^ (bytes.len() as u64), P1)
}

/// The 1–7 trailing bytes as a zero-extended little-endian integer.
///
/// Built from fixed-width reads (the wyhash 4+4 / 3-byte trick) rather than
/// a copy into a zeroed `[u8; 8]`: a copy of run-time length compiles to a
/// call to libc `memcpy`, which cost more than the rest of the hash.
#[inline]
fn tail_le(rem: &[u8]) -> u64 {
    let n = rem.len();
    debug_assert!((1..8).contains(&n));
    if n >= 4 {
        // Two 4-byte reads that overlap in the middle; overlapping bytes
        // land on the same bit positions, so `|` is exact.
        let lo = u32::from_le_bytes(rem[..4].try_into().expect("4 bytes"));
        let hi = u32::from_le_bytes(rem[n - 4..].try_into().expect("4 bytes"));
        lo as u64 | (hi as u64) << ((n - 4) * 8)
    } else {
        // First, middle and last byte: for n = 1 all three are byte 0, for
        // n = 2 middle and last are byte 1.
        rem[0] as u64 | (rem[n / 2] as u64) << (n / 2 * 8) | (rem[n - 1] as u64) << ((n - 1) * 8)
    }
}

/// 128-bit multiply folding (the wyhash "mum" primitive).
#[inline]
fn mix(a: u64, b: u64) -> u64 {
    let r = (a as u128).wrapping_mul(b as u128);
    (r >> 64) as u64 ^ r as u64
}

/// FNV-1a over a byte slice.
///
/// Used for shard selection in [`crate::sync`]: cheaper than [`hash64`] on
/// the short keys (topic names, namespace paths, function names) that pick a
/// lock stripe, and its low bits are well distributed for power-of-two
/// shard counts after the final xor-fold.
#[inline]
pub fn fnv(bytes: &[u8]) -> u64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET_BASIS;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    // Fold the high bits down: FNV's low bits alone are weak for
    // power-of-two masking.
    h ^ (h >> 32)
}

/// An incremental FNV-1a [`std::hash::Hasher`].
///
/// The default `HashMap` hasher (SipHash-1-3) is keyed against HashDoS and
/// costs tens of nanoseconds per short key — measurable on the data-plane
/// hot paths (`ShardedMap` lookups, metrics-registry name lookups) where
/// keys are short, trusted strings. FNV-1a is a handful of multiply-xors
/// and, with the same xor-fold as [`fnv`], spreads short keys well under
/// power-of-two table masks. Use only for maps whose keys are not
/// attacker-controlled.
#[derive(Debug, Clone)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    #[inline]
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl std::hash::Hasher for FnvHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
        self.0 = h;
    }

    #[inline]
    fn finish(&self) -> u64 {
        // Same fold as `fnv`: FNV's low bits alone are weak for
        // power-of-two masking.
        self.0 ^ (self.0 >> 32)
    }
}

/// `BuildHasher` for [`FnvHasher`]; plugs into
/// `HashMap::with_hasher(FnvBuildHasher::default())`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FnvBuildHasher;

impl std::hash::BuildHasher for FnvBuildHasher {
    type Hasher = FnvHasher;

    #[inline]
    fn build_hasher(&self) -> FnvHasher {
        FnvHasher::default()
    }
}

/// A `HashMap` keyed by trusted, short keys, hashed with FNV-1a.
pub type FnvHashMap<K, V> = std::collections::HashMap<K, V, FnvBuildHasher>;

/// A pair of independent hashes of the same input, from which a whole family
/// `g_i = h1 + i * h2` can be derived (Kirsch–Mitzenmacher).
#[derive(Debug, Clone, Copy)]
pub struct HashPair {
    /// First base hash.
    pub h1: u64,
    /// Second base hash (forced odd so `g_i` cycles through all residues).
    pub h2: u64,
}

impl HashPair {
    /// Hash `bytes` under the family identified by `seed`.
    pub fn new(seed: u64, bytes: &[u8]) -> Self {
        let h1 = hash64(seed, bytes);
        let h2 = hash64(seed ^ 0x9e37_79b9_7f4a_7c15, bytes) | 1;
        Self { h1, h2 }
    }

    /// The `i`-th derived hash.
    #[inline]
    pub fn derive(&self, i: u64) -> u64 {
        self.h1.wrapping_add(i.wrapping_mul(self.h2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic() {
        assert_eq!(hash64(1, b"hello"), hash64(1, b"hello"));
        assert_ne!(hash64(1, b"hello"), hash64(2, b"hello"));
        assert_ne!(hash64(1, b"hello"), hash64(1, b"hellp"));
    }

    /// The implementation this module shipped until the tail stopped
    /// going through `copy_from_slice`; kept as the oracle.
    fn hash64_reference(seed: u64, bytes: &[u8]) -> u64 {
        const P0: u64 = 0xa076_1d64_78bd_642f;
        const P1: u64 = 0xe703_7ed1_a0b4_28db;
        const P2: u64 = 0x8ebc_6af0_9c88_c6e3;
        let mut acc = seed ^ P0;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            acc = mix(acc ^ u64::from_le_bytes(c.try_into().unwrap()), P1);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            acc = mix(acc ^ u64::from_le_bytes(tail), P2);
        }
        mix(acc ^ (bytes.len() as u64), P1)
    }

    /// Every stored sketch cell, Jiffy partition pick and Pulsar key route
    /// is one of these values: they must never move.
    #[test]
    fn known_answers_for_every_tail_length() {
        const SEEDS: [u64; 3] = [0, 7, 0x9e37_79b9_7f4a_7c15];
        #[rustfmt::skip]
        const WANT: [[u64; 18]; 3] = [
            [0x1ff5c2923a788d2c, 0xf9cbd107522d9304, 0xa3187dee7db10b0c, 0xf52fda7819f505ba, 0x0d6d5d40f566e35f, 0xf2d4a4550d5d5971, 0x36d68a408a1ab63f, 0x3a868f876da4f513, 0x8fe6d7e9aac42b95, 0x976129becd06fb58, 0x20ccd6b4e205fb2c, 0x0cc112837ebcc410, 0xf531d0d4be9042e1, 0x345330eab850bc8a, 0x4de3c855edbedea5, 0xca8fef196e8ce441, 0xde793ec2bff0df75, 0xdd141e75476be765],
            [0xaeec5559c50a6f2b, 0xa28a3b69796bf9c4, 0x573389fd0508e431, 0x56e03cf63d6f6568, 0x931eb73c9f254524, 0x1abd7f8149c8f6b3, 0x2e5de27ac3ac7bfe, 0x784469c9137c10ad, 0x2978b65b4887e096, 0xd4fa2d8193500fdd, 0xf9511199c0314c57, 0x038ed929ae51f181, 0xb0c020f18a696723, 0x35d693ca1375f83a, 0xca5a87bcbaa33135, 0x8ff00a43efbb71e9, 0xe70f19b0b4cd7e42, 0x7a1326174e3d4abc],
            [0x7f40f5117e11298b, 0xa53bdc074a11756c, 0xe589c54e346e76e7, 0x40f995bbbbd40358, 0xde6c3eeb11b2fac3, 0xc8fa250c218731cd, 0xed0d87cee0be1bec, 0x46d9a47d6dfc9ac6, 0xa0e30ed6fdef55df, 0x4d237721d5706a53, 0x17da0098c92d11e6, 0x990b41a06b0c02be, 0x455ffc27a33372ca, 0x328b41e8bb742167, 0x86b16dcf92d838b4, 0xccb622fc7d5a75ea, 0xca7d34fde346d237, 0x5c400d4596bf9e2a],
        ];
        for (seed, want) in SEEDS.iter().zip(&WANT) {
            for (n, want) in want.iter().enumerate() {
                let bytes: Vec<u8> = (0..n as u8)
                    .map(|i| i.wrapping_mul(37).wrapping_add(11))
                    .collect();
                assert_eq!(hash64(*seed, &bytes), *want, "seed {seed:#x} len {n}");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn hash64_equals_the_reference(
            seed in proptest::arbitrary::any::<u64>(),
            bytes in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..65),
        ) {
            proptest::prop_assert_eq!(hash64(seed, &bytes), hash64_reference(seed, &bytes));
        }
    }

    #[test]
    fn empty_and_boundary_lengths() {
        // Lengths around the 8-byte chunk boundary must all hash distinctly.
        let inputs: Vec<Vec<u8>> = (0..=17).map(|n| vec![0xABu8; n]).collect();
        let hashes: HashSet<u64> = inputs.iter().map(|b| hash64(7, b)).collect();
        assert_eq!(hashes.len(), inputs.len());
    }

    #[test]
    fn avalanche_rough_check() {
        // Flipping one input bit should flip roughly half the output bits.
        let a = hash64(0, b"abcdefgh");
        let b = hash64(0, b"abcdefgi");
        let flipped = (a ^ b).count_ones();
        assert!((16..=48).contains(&flipped), "flipped {flipped} bits");
    }

    #[test]
    fn distribution_over_buckets_is_balanced() {
        let n = 100_000u64;
        let buckets = 64usize;
        let mut counts = vec![0u64; buckets];
        for i in 0..n {
            let h = hash64(3, &i.to_le_bytes());
            counts[(h % buckets as u64) as usize] += 1;
        }
        let expect = n as f64 / buckets as f64;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.15, "bucket {i} count {c} deviates {dev}");
        }
    }

    #[test]
    fn hash_pair_derives_distinct_rows() {
        let p = HashPair::new(9, b"item");
        let derived: HashSet<u64> = (0..16).map(|i| p.derive(i)).collect();
        assert_eq!(derived.len(), 16);
    }

    #[test]
    fn fnv_is_deterministic_and_spreads() {
        assert_eq!(fnv(b"topic-a"), fnv(b"topic-a"));
        assert_ne!(fnv(b"topic-a"), fnv(b"topic-b"));
        // Short sequential keys (the shard-selection workload) must not
        // collapse onto a few stripes under a power-of-two mask.
        let mask = 15u64;
        let mut hit = HashSet::new();
        for i in 0..64u64 {
            hit.insert(fnv(format!("fn-{i}").as_bytes()) & mask);
        }
        assert!(hit.len() >= 12, "only {} of 16 stripes hit", hit.len());
    }

    #[test]
    fn fnv_hasher_matches_oneshot_fnv() {
        use std::hash::Hasher;
        for key in ["", "a", "topic-a", "/jiffy/app/obj", "0123456789abcdef"] {
            let mut h = FnvHasher::default();
            h.write(key.as_bytes());
            assert_eq!(h.finish(), fnv(key.as_bytes()), "key {key:?}");
        }
    }

    #[test]
    fn fnv_hashmap_behaves_like_std() {
        let mut m: FnvHashMap<String, u32> = FnvHashMap::default();
        for i in 0..100u32 {
            m.insert(format!("k{i}"), i);
        }
        for i in 0..100u32 {
            assert_eq!(m.get(&format!("k{i}")), Some(&i));
        }
        assert_eq!(m.len(), 100);
    }

    #[test]
    fn h2_is_odd() {
        for i in 0..100u64 {
            let p = HashPair::new(5, &i.to_le_bytes());
            assert_eq!(p.h2 & 1, 1);
        }
    }
}
