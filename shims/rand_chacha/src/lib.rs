//! Offline shim for `rand_chacha`: a from-scratch ChaCha8 keystream
//! generator implementing the `rand` shim's `RngCore`/`SeedableRng`.
//! Deterministic for a given seed (the workspace's reproducibility tests
//! rely on that, not on matching upstream rand_chacha's exact stream).

use rand::{RngCore, SeedableRng};

const CHACHA_ROUNDS: usize = 8;

/// A ChaCha8-based deterministic random number generator.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    /// Key (8 words) as seeded.
    key: [u32; 8],
    /// 64-bit block counter.
    counter: u64,
    /// Current output block.
    block: [u32; 16],
    /// Next word index within `block` (16 = exhausted).
    index: usize,
}

fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl ChaCha8Rng {
    fn refill(&mut self) {
        let mut state: [u32; 16] = [
            0x6170_7865,
            0x3320_646e,
            0x7962_2d32,
            0x6b20_6574,
            self.key[0],
            self.key[1],
            self.key[2],
            self.key[3],
            self.key[4],
            self.key[5],
            self.key[6],
            self.key[7],
            self.counter as u32,
            (self.counter >> 32) as u32,
            0,
            0,
        ];
        let input = state;
        for _ in 0..CHACHA_ROUNDS / 2 {
            // Column round.
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            // Diagonal round.
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (out, inp) in state.iter_mut().zip(input.iter()) {
            *out = out.wrapping_add(*inp);
        }
        self.block = state;
        self.counter = self.counter.wrapping_add(1);
        self.index = 0;
    }

    fn next_word(&mut self) -> u32 {
        if self.index >= 16 {
            self.refill();
        }
        let w = self.block[self.index];
        self.index += 1;
        w
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        self.next_word()
    }

    fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.next_word());
        let hi = u64::from(self.next_word());
        lo | (hi << 32)
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (k, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes(chunk.try_into().unwrap());
        }
        Self {
            key,
            counter: 0,
            block: [0; 16],
            index: 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn deterministic_per_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(7);
        let mut b = ChaCha8Rng::seed_from_u64(7);
        let va: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        assert_eq!(va, vb);
        let mut c = ChaCha8Rng::seed_from_u64(8);
        assert_ne!(va, (0..64).map(|_| c.next_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn unit_floats_look_uniform() {
        let mut r = ChaCha8Rng::seed_from_u64(1234);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        let ones = (0..n).filter(|_| r.gen::<bool>()).count() as f64 / n as f64;
        assert!((ones - 0.5).abs() < 0.01, "bool rate {ones}");
    }

    #[test]
    fn fill_bytes_covers_tail() {
        let mut r = ChaCha8Rng::seed_from_u64(5);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
