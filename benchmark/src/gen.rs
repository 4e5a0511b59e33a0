//! Seeded input generator: `--seed` fully determines keys, payloads and the
//! kill schedule. The stack only ever sees the generated inputs, never the
//! seed. Self-contained (SplitMix64 + a CDF Zipf) so the benchmark's inputs
//! cannot drift when a crate under test changes its own samplers.

/// SplitMix64: tiny, full-period, and good enough to decorrelate streams.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, workload, purpose)`: the names are
    /// hashed into the state so two workloads never share a sequence.
    pub fn stream(seed: u64, workload: &str, purpose: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
        for b in workload.bytes().chain([0xff]).chain(purpose.bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        let mut r = Rng(h ^ seed.rotate_left(32));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (multiply-shift; bias is < 2^-32 for our `n`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

/// Zipf over `{0..n}` with exponent `s`: precomputed CDF, binary search.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0);
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|i| {
                acc += 1.0 / (i as f64).powf(s);
                acc
            })
            .collect();
        for v in &mut cdf {
            *v /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Offset of the `u32` key index inside every generated event.
pub const KEY_AT: usize = 0;
/// Offset of the op byte (`pipeline_contended`: 1 = put, 0 = get).
pub const OP_AT: usize = 4;
/// Offset of the 8 random bytes every oracle uses as the event checksum.
pub const SUM_AT: usize = 8;

/// A pool of pre-generated events, cycled by the workloads so that input
/// generation costs nothing inside a timed request. Event layout:
/// `[key u32 | op u8 | 3 random | checksum u64 | random…]`.
pub struct EventPool {
    bytes: Vec<u8>,
    event_len: usize,
}

impl EventPool {
    /// `count` events of `event_len` bytes; keys are Zipf(`skew`) over
    /// `keys`, and one event in `put_every` carries the put op (0 = none).
    pub fn new(
        rng: &mut Rng,
        count: usize,
        event_len: usize,
        keys: usize,
        skew: f64,
        put_every: u64,
    ) -> Self {
        assert!(event_len >= SUM_AT + 8);
        let zipf = Zipf::new(keys, skew);
        let mut bytes = vec![0u8; count * event_len];
        rng.fill(&mut bytes);
        for ev in bytes.chunks_mut(event_len) {
            let key = zipf.sample(rng) as u32;
            ev[KEY_AT..KEY_AT + 4].copy_from_slice(&key.to_le_bytes());
            ev[OP_AT] = u8::from(put_every > 0 && rng.below(put_every) == 0);
        }
        Self { bytes, event_len }
    }

    pub fn len(&self) -> usize {
        self.bytes.len() / self.event_len
    }

    /// Event `i`, wrapping around the pool.
    pub fn get(&self, i: usize) -> &[u8] {
        let at = (i % self.len()) * self.event_len;
        &self.bytes[at..at + self.event_len]
    }

    /// The whole pool, for byte-identity tests.
    #[cfg(test)]
    pub fn raw(&self) -> &[u8] {
        &self.bytes
    }
}

pub fn key_of(event: &[u8]) -> u32 {
    u32::from_le_bytes(event[KEY_AT..KEY_AT + 4].try_into().expect("4 bytes"))
}

pub fn checksum_of(event: &[u8]) -> u64 {
    u64::from_le_bytes(event[SUM_AT..SUM_AT + 8].try_into().expect("8 bytes"))
}

/// Kill schedule for the fault phase: one kill per `every`-request window,
/// at a seeded offset inside the window's first half. Returned indices are
/// strictly increasing and at least `every / 2` requests apart: an incident
/// is closed by the first request served after its kill, and with kills on
/// adjacent requests a single unserved request leaves one open for good.
pub fn kill_schedule(rng: &mut Rng, requests: usize, every: usize) -> Vec<usize> {
    let span = every.div_ceil(2) as u64;
    (0..requests / every)
        .map(|w| w * every + rng.below(span) as usize)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(seed: u64) -> EventPool {
        let mut rng = Rng::stream(seed, "w", "events");
        EventPool::new(&mut rng, 512, 64, 100, 0.99, 10)
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        assert_eq!(pool(7).raw(), pool(7).raw());
        let a = kill_schedule(&mut Rng::stream(7, "w", "kills"), 3000, 100);
        let b = kill_schedule(&mut Rng::stream(7, "w", "kills"), 3000, 100);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_or_stream_gives_different_inputs() {
        assert_ne!(pool(7).raw(), pool(8).raw());
        let a = kill_schedule(&mut Rng::stream(7, "w", "kills"), 3000, 100);
        let b = kill_schedule(&mut Rng::stream(8, "w", "kills"), 3000, 100);
        assert_ne!(a, b);
        assert_ne!(
            Rng::stream(7, "a", "x").next_u64(),
            Rng::stream(7, "b", "x").next_u64()
        );
    }

    #[test]
    fn events_carry_valid_keys_and_ops() {
        let p = pool(3);
        let mut puts = 0;
        for i in 0..p.len() {
            assert!(key_of(p.get(i)) < 100);
            puts += usize::from(p.get(i)[OP_AT]);
        }
        // one in ten on average
        assert!((20..90).contains(&puts), "puts = {puts}");
        assert_eq!(p.get(0), p.get(p.len()));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = Rng::stream(1, "z", "z");
        let mut head = 0;
        for _ in 0..10_000 {
            let s = z.sample(&mut rng);
            assert!(s < 1000);
            head += usize::from(s < 10);
        }
        assert!(head > 3000, "top-10 of 1000 keys drew {head}/10000");
    }

    #[test]
    fn kill_schedule_has_one_kill_per_window() {
        let k = kill_schedule(&mut Rng::stream(5, "c", "kills"), 3000, 100);
        assert_eq!(k.len(), 30);
        for (w, &at) in k.iter().enumerate() {
            assert!((w * 100..(w + 1) * 100).contains(&at));
        }
        assert!(k.windows(2).all(|p| p[1] - p[0] >= 50));
    }
}
