//! KLL quantile sketch (Karnin, Lang, Liberty, 2016) — simplified.
//!
//! A hierarchy of *compactors*: level `l` holds items each representing
//! `2^l` stream elements. When a compactor overflows, it is sorted and
//! every other element (random parity) is promoted to the next level.
//! Capacities decay geometrically from the top (`k, 2k/3, 4k/9, …`, floor 2),
//! giving `O(k log(n/k))` space and additive rank error `O(n/k)`.

use serde::{Deserialize, Serialize};

use crate::{MergeError, Mergeable};

/// Streaming quantile sketch over `f64` values.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KllSketch {
    k: usize,
    compactors: Vec<Vec<f64>>,
    /// Total stream length.
    total: u64,
    /// Items currently stored across all compactors.
    stored: usize,
    /// Cheap deterministic coin state for compaction parity.
    coin_state: u64,
    /// `caps[l]`: capacity of level `l` at the current height. A function
    /// of `k` and the level count alone, so rebuilt only when a level is
    /// added ([`Self::grow`]).
    caps: Vec<usize>,
    /// `caps` summed: the `stored` bound that triggers a compaction.
    max_stored: usize,
}

impl KllSketch {
    /// Create with accuracy parameter `k` (bigger = more accurate; 200 is a
    /// common default giving ~1% rank error).
    pub fn new(k: usize) -> Self {
        assert!(k >= 8, "k must be at least 8");
        let mut s = Self {
            k,
            compactors: Vec::new(),
            total: 0,
            stored: 0,
            coin_state: 0x243f_6a88_85a3_08d3,
            caps: Vec::new(),
            max_stored: 0,
        };
        s.grow(1);
        s
    }

    /// Stream length observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of compactor levels.
    pub fn levels(&self) -> usize {
        self.compactors.len()
    }

    /// Add empty levels up to `levels` and recompute every capacity: `k`
    /// at the top, two thirds per level below it, rounded up.
    fn grow(&mut self, levels: usize) {
        if self.compactors.len() >= levels {
            return;
        }
        self.compactors.resize_with(levels, Vec::new);
        let k = self.k as f64;
        self.caps.clear();
        self.caps.extend(
            (0..levels).map(|level| {
                (k * (2.0f64 / 3.0).powi((levels - 1 - level) as i32)).ceil() as usize
            }),
        );
        self.max_stored = self.caps.iter().sum();
    }

    fn coin(&mut self) -> bool {
        // xorshift64*
        let mut x = self.coin_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.coin_state = x;
        (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 63) == 1
    }

    /// Observe one value.
    pub fn update(&mut self, value: f64) {
        debug_assert!(!value.is_nan(), "NaN has no rank");
        self.compactors[0].push(value);
        self.stored += 1;
        self.total += 1;
        if self.stored > self.max_stored {
            self.compress();
        }
    }

    fn compress(&mut self) {
        let Some(level) =
            (0..self.compactors.len()).find(|&l| self.compactors[l].len() > self.caps[l])
        else {
            return;
        };
        self.grow(level + 2);
        let parity = usize::from(self.coin());
        // Promote in place: the level keeps its buffer for the next fill.
        let (below, above) = self.compactors.split_at_mut(level + 1);
        let (items, next) = (&mut below[level], &mut above[0]);
        items.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let before = next.len();
        next.extend(items.iter().skip(parity).step_by(2));
        self.stored -= items.len() - (next.len() - before);
        items.clear();
        // One compaction per call keeps amortised cost low (lazy KLL).
    }

    /// Estimated rank of `value`: number of stream elements ≤ `value`.
    pub fn rank(&self, value: f64) -> u64 {
        let mut r = 0u64;
        for (level, items) in self.compactors.iter().enumerate() {
            let w = 1u64 << level;
            r += w * items.iter().filter(|&&x| x <= value).count() as u64;
        }
        r
    }

    /// Estimated quantile `q ∈ [0,1]`. Returns `None` on an empty sketch.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let mut weighted: Vec<(f64, u64)> = Vec::with_capacity(self.stored);
        for (level, items) in self.compactors.iter().enumerate() {
            let w = 1u64 << level;
            weighted.extend(items.iter().map(|&x| (x, w)));
        }
        weighted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN"));
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (x, w) in &weighted {
            acc += w;
            if acc >= target {
                return Some(*x);
            }
        }
        weighted.last().map(|(x, _)| *x)
    }
}

impl Mergeable for KllSketch {
    fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.k != other.k {
            return Err(MergeError::new("k mismatch"));
        }
        self.grow(other.compactors.len());
        for (level, items) in other.compactors.iter().enumerate() {
            self.compactors[level].extend_from_slice(items);
            self.stored += items.len();
        }
        self.total += other.total;
        while self.stored > self.max_stored {
            let before = self.stored;
            self.compress();
            if self.stored == before {
                break;
            }
        }
        Ok(())
    }
}

/// Build a sketch from an iterator (convenience for tests and benches).
impl FromIterator<f64> for KllSketch {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = KllSketch::new(200);
        for v in iter {
            s.update(v);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::seq::SliceRandom;
    use taureau_core::rng::det_rng;

    #[test]
    fn empty_sketch() {
        let s = KllSketch::new(64);
        assert_eq!(s.total(), 0);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.rank(10.0), 0);
    }

    #[test]
    fn exact_for_small_streams() {
        let mut s = KllSketch::new(200);
        for i in 1..=100 {
            s.update(i as f64);
        }
        assert_eq!(s.quantile(0.5), Some(50.0));
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(100.0));
        assert_eq!(s.rank(50.0), 50);
    }

    #[test]
    fn rank_error_bounded_on_large_stream() {
        let n = 200_000u64;
        let mut values: Vec<f64> = (0..n).map(|i| i as f64).collect();
        values.shuffle(&mut det_rng(7));
        let mut s = KllSketch::new(200);
        for v in values {
            s.update(v);
        }
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let est = s.quantile(q).unwrap();
            let err = (est - q * n as f64).abs() / n as f64;
            assert!(err < 0.02, "q={q} est={est} err={err}");
        }
    }

    #[test]
    fn space_is_sublinear() {
        let mut s = KllSketch::new(128);
        for i in 0..1_000_000 {
            s.update((i % 10_000) as f64);
        }
        assert!(
            s.stored < 5_000,
            "stored {} items for a 1M stream",
            s.stored
        );
        assert!(s.levels() > 5);
    }

    #[test]
    fn merge_approximates_union() {
        let n = 50_000;
        let mut a = KllSketch::new(200);
        let mut b = KllSketch::new(200);
        let mut values: Vec<f64> = (0..2 * n).map(|i| i as f64).collect();
        values.shuffle(&mut det_rng(9));
        for (i, v) in values.iter().enumerate() {
            if i % 2 == 0 {
                a.update(*v);
            } else {
                b.update(*v);
            }
        }
        a.merge(&b).unwrap();
        assert_eq!(a.total(), 2 * n as u64);
        for q in [0.1, 0.5, 0.9] {
            let est = a.quantile(q).unwrap();
            let expect = q * (2 * n) as f64;
            let err = (est - expect).abs() / (2 * n) as f64;
            assert!(err < 0.03, "q={q} est={est}");
        }
    }

    #[test]
    fn merge_rejects_k_mismatch() {
        let mut a = KllSketch::new(64);
        let b = KllSketch::new(128);
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn skewed_distribution_quantiles() {
        // Exponential-ish data: check monotonicity of quantile estimates.
        let mut s = KllSketch::new(256);
        let mut r = det_rng(11);
        use rand::Rng;
        for _ in 0..100_000 {
            let u: f64 = r.gen_range(1e-9..1.0);
            s.update(-u.ln());
        }
        let qs: Vec<f64> = [0.1, 0.3, 0.5, 0.7, 0.9, 0.99]
            .iter()
            .map(|&q| s.quantile(q).unwrap())
            .collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "{qs:?}");
        // Median of Exp(1) is ln 2 ≈ 0.693.
        assert!((qs[2] - 0.693).abs() < 0.05, "median {}", qs[2]);
    }

    /// The sketch as it was before its capacities were cached and its
    /// compactions promoted in place: every capacity recomputed on every
    /// update, every compaction through a fresh `Vec`. The sketch must
    /// stay bit-identical to it.
    #[derive(Clone)]
    struct Reference {
        k: usize,
        compactors: Vec<Vec<f64>>,
        total: u64,
        stored: usize,
        coin_state: u64,
    }

    impl Reference {
        fn new(k: usize) -> Self {
            Self {
                k,
                compactors: vec![Vec::new()],
                total: 0,
                stored: 0,
                coin_state: 0x243f_6a88_85a3_08d3,
            }
        }

        fn capacity(&self, level: usize) -> usize {
            let h = self.compactors.len();
            let depth = (h - 1 - level) as i32;
            ((self.k as f64) * (2.0f64 / 3.0).powi(depth)).ceil() as usize
        }

        fn max_stored(&self) -> usize {
            (0..self.compactors.len()).map(|l| self.capacity(l)).sum()
        }

        fn coin(&mut self) -> bool {
            let mut x = self.coin_state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.coin_state = x;
            (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 63) == 1
        }

        fn update(&mut self, value: f64) {
            self.compactors[0].push(value);
            self.stored += 1;
            self.total += 1;
            if self.stored > self.max_stored() {
                self.compress();
            }
        }

        fn compress(&mut self) {
            for level in 0..self.compactors.len() {
                if self.compactors[level].len() > self.capacity(level) {
                    if level + 1 == self.compactors.len() {
                        self.compactors.push(Vec::new());
                    }
                    let parity = usize::from(self.coin());
                    let mut items = std::mem::take(&mut self.compactors[level]);
                    items.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
                    let promoted: Vec<f64> =
                        items.iter().skip(parity).step_by(2).copied().collect();
                    self.stored -= items.len();
                    self.stored += promoted.len();
                    self.compactors[level + 1].extend(promoted);
                    return;
                }
            }
        }

        fn merge(&mut self, other: &Self) {
            while self.compactors.len() < other.compactors.len() {
                self.compactors.push(Vec::new());
            }
            for (level, items) in other.compactors.iter().enumerate() {
                self.compactors[level].extend_from_slice(items);
                self.stored += items.len();
            }
            self.total += other.total;
            while self.stored > self.max_stored() {
                let before = self.stored;
                self.compress();
                if self.stored == before {
                    break;
                }
            }
        }

        fn quantile(&self, q: f64) -> Option<f64> {
            if self.total == 0 {
                return None;
            }
            let q = q.clamp(0.0, 1.0);
            let mut weighted: Vec<(f64, u64)> = Vec::with_capacity(self.stored);
            for (level, items) in self.compactors.iter().enumerate() {
                let w = 1u64 << level;
                weighted.extend(items.iter().map(|&x| (x, w)));
            }
            weighted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN"));
            let target = (q * self.total as f64).ceil().max(1.0) as u64;
            let mut acc = 0u64;
            for (x, w) in &weighted {
                acc += w;
                if acc >= target {
                    return Some(*x);
                }
            }
            weighted.last().map(|(x, _)| *x)
        }
    }

    /// Same compactor bits, counters, coin state and quantiles.
    fn same(s: &KllSketch, r: &Reference) -> Result<(), String> {
        let bits = |c: &[Vec<f64>]| -> Vec<Vec<u64>> {
            c.iter()
                .map(|l| l.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        if bits(&s.compactors) != bits(&r.compactors) {
            return Err(format!(
                "compactor contents differ (levels {} vs {}, total {})",
                s.levels(),
                r.compactors.len(),
                r.total
            ));
        }
        let counters = (s.stored, s.total(), s.levels(), s.coin_state);
        let want = (r.stored, r.total, r.compactors.len(), r.coin_state);
        if counters != want {
            return Err(format!(
                "(stored, total, levels, coin) {counters:?} vs {want:?}"
            ));
        }
        for i in 0..=40 {
            let q = f64::from(i) / 40.0;
            let (got, want) = (s.quantile(q), r.quantile(q));
            if got.map(f64::to_bits) != want.map(f64::to_bits) {
                return Err(format!("quantile({q}) {got:?} vs {want:?}"));
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #[test]
        fn cached_capacities_and_in_place_promotion_match_the_reference(
            k in 8usize..400,
            n in 0usize..50_000,
            seed in proptest::prelude::any::<u64>(),
        ) {
            use rand::Rng;
            let mut rng = det_rng(seed);
            // Few distinct values (runs of duplicates) up to almost none alike.
            let spread = [4u64, 1_000, 1 << 40][rng.gen_range(0..3usize)];
            let mut pairs: Vec<(KllSketch, Reference)> =
                (0..3).map(|_| (KllSketch::new(k), Reference::new(k))).collect();
            for _ in 0..n {
                let i = rng.gen_range(0..3usize);
                if rng.gen_bool(0.001) {
                    // Merge another sketch in; half the time that one
                    // starts over, so later merges meet unequal heights.
                    let j = (i + rng.gen_range(1..3usize)) % 3;
                    let (src, src_ref) = pairs[j].clone();
                    pairs[i].0.merge(&src).map_err(|e| e.to_string())?;
                    pairs[i].1.merge(&src_ref);
                    same(&pairs[i].0, &pairs[i].1)?;
                    if rng.gen_bool(0.5) {
                        pairs[j] = (KllSketch::new(k), Reference::new(k));
                    }
                } else {
                    let v = match rng.gen_range(0..50u32) {
                        0 => -0.0,
                        1 => 0.0,
                        _ => rng.gen_range(0..spread) as f64 - (spread / 2) as f64,
                    };
                    pairs[i].0.update(v);
                    pairs[i].1.update(v);
                }
            }
            for (s, r) in &pairs {
                same(s, r)?;
            }
        }
    }
}
