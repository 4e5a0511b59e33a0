//! Offline shim for `rand` 0.8: the trait surface the workspace uses
//! (`RngCore`, the `Rng` extension trait, `SeedableRng`, and
//! `seq::SliceRandom`), with uniform sampling over integer and float
//! ranges. Concrete generators live in the `rand_chacha` shim.

use std::ops::{Range, RangeInclusive};

/// Core source of randomness.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;

    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// Types that can be sampled uniformly from the full value space
/// (unit-interval for floats), backing [`Rng::gen`].
pub trait Standard: Sized {
    /// Draw one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges that [`Rng::gen_range`] accepts.
pub trait SampleRange<T> {
    /// Draw one value uniformly from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (u128::from(rng.next_u64()) % span) as i128;
                (self.start as i128 + v) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let v = (u128::from(rng.next_u64()) % span) as i128;
                (lo as i128 + v) as $t
            }
        }
    )*};
}

range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let unit: $t = Standard::sample(rng);
                self.start + unit * (self.end - self.start)
            }
        }
    )*};
}

range_float!(f32, f64);

/// Extension methods over any [`RngCore`] (the rand 0.8 `Rng` trait).
pub trait Rng: RngCore {
    /// Sample a value of type `T` from its standard distribution.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Sample uniformly from `range`.
    fn gen_range<T, Rr: SampleRange<T>>(&mut self, range: Rr) -> T {
        range.sample_single(self)
    }

    /// Bernoulli draw with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        let unit: f64 = self.gen();
        unit < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Generators constructible from a seed.
pub trait SeedableRng: Sized {
    /// Raw seed type (a byte array).
    type Seed: AsMut<[u8]> + Default;

    /// Construct from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Construct from a `u64` by expanding it with SplitMix64.
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut x = state;
        for chunk in seed.as_mut().chunks_mut(8) {
            // SplitMix64 step.
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let bytes = z.to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// Slice shuffling and sampling.
pub mod seq {
    use super::Rng;

    /// Extension trait adding in-place shuffling to slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

        /// A uniformly random element, or `None` if empty.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                self.swap(i, j);
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                let i = (rng.next_u64() % self.len() as u64) as usize;
                self.get(i)
            }
        }
    }
}

/// The crate prelude, mirroring `rand::prelude`.
pub mod prelude {
    pub use crate::seq::SliceRandom;
    pub use crate::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Lcg(u64);
    impl RngCore for Lcg {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Lcg(42);
        for _ in 0..1000 {
            let v: u64 = r.gen_range(10..20);
            assert!((10..20).contains(&v));
            let f: f64 = r.gen_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&f));
            let i: usize = r.gen_range(0..=5);
            assert!(i <= 5);
            let u: f64 = r.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        use seq::SliceRandom;
        let mut v: Vec<u32> = (0..100).collect();
        let mut r = Lcg(7);
        v.shuffle(&mut r);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}
