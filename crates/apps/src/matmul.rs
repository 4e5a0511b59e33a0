//! Matrix multiplication in a serverless setting (§5.1).
//!
//! "Werner et al. illustrated distributed execution of Strassen's algorithm
//! for MATMUL in a serverless setting" — with the observation that
//! "distributed execution … requires support for ephemeral storage of
//! intermediate results (refer to §4.4)". This module provides:
//!
//! - a dense [`Matrix`] with three local algorithms: naive triple loop,
//!   cache-blocked, and [`Matrix::strassen`] (the paper's reference [170]);
//! - [`distributed_multiply`]: a tiled multiply where each output tile is
//!   computed by a *serverless function invocation* that reads its operand
//!   panels from **Jiffy** and writes its tile back — the exact
//!   ephemeral-intermediate pattern the paper describes.

use bytes::BufMut;
use taureau_core::wire::Reader;
use taureau_faas::{FaasPlatform, FunctionSpec};
use taureau_jiffy::Jiffy;

/// A dense row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// From row-major data.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols);
        Self { rows, cols, data }
    }

    /// Deterministic pseudo-random matrix in `[-1, 1)`.
    pub fn random(rows: usize, cols: usize, seed: u64) -> Self {
        use rand::Rng;
        let mut rng = taureau_core::rng::det_rng(seed);
        Self {
            rows,
            cols,
            data: (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        }
    }

    /// Row count.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    #[inline]
    pub(crate) fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Element write.
    #[inline]
    pub(crate) fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Maximum absolute element difference; `None` if shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> Option<f64> {
        if self.rows != other.rows || self.cols != other.cols {
            return None;
        }
        Some(
            self.data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max),
        )
    }

    /// Serialize to bytes: `[rows u32][cols u32][f64 le]*` — the wire form
    /// stored in Jiffy between serverless tasks.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.data.len() * 8);
        out.put_u32_le(self.rows as u32);
        out.put_u32_le(self.cols as u32);
        self.data.iter().for_each(|v| out.put_u64_le(v.to_bits()));
        out
    }

    /// Deserialize; `None` if malformed.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        Reader::read_all(bytes, |r| {
            let (rows, cols) = (r.u32()? as usize, r.u32()? as usize);
            let cells = rows.checked_mul(cols)?;
            let data = (0..cells).map(|_| r.u64().map(f64::from_bits));
            Some(Self {
                rows,
                cols,
                data: data.collect::<Option<_>>()?,
            })
        })
    }

    /// Sub-matrix copy.
    pub fn block(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> Matrix {
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                out.set(r, c, self.get(r0 + r, c0 + c));
            }
        }
        out
    }

    /// Write a block into place.
    pub fn set_block(&mut self, r0: usize, c0: usize, block: &Matrix) {
        for r in 0..block.rows {
            for c in 0..block.cols {
                self.set(r0 + r, c0 + c, block.get(r, c));
            }
        }
    }

    /// Naive O(n³) multiply (the correctness reference).
    pub fn mul_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(r, k);
                if a == 0.0 {
                    continue;
                }
                for c in 0..other.cols {
                    out.data[r * out.cols + c] += a * other.get(k, c);
                }
            }
        }
        out
    }

    /// Cache-blocked multiply with `bs`-sized tiles.
    pub fn mul_blocked(&self, other: &Matrix, bs: usize) -> Matrix {
        assert_eq!(self.cols, other.rows, "shape mismatch");
        assert!(bs > 0);
        let mut out = Matrix::zeros(self.rows, other.cols);
        for rb in (0..self.rows).step_by(bs) {
            for kb in (0..self.cols).step_by(bs) {
                for cb in (0..other.cols).step_by(bs) {
                    let rmax = (rb + bs).min(self.rows);
                    let kmax = (kb + bs).min(self.cols);
                    let cmax = (cb + bs).min(other.cols);
                    for r in rb..rmax {
                        for k in kb..kmax {
                            let a = self.get(r, k);
                            for c in cb..cmax {
                                out.data[r * out.cols + c] += a * other.get(k, c);
                            }
                        }
                    }
                }
            }
        }
        out
    }

    fn add(&self, other: &Matrix) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    fn sub(&self, other: &Matrix) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }

    fn pad_to(&self, n: usize) -> Matrix {
        let mut out = Matrix::zeros(n, n);
        out.set_block(0, 0, self);
        out
    }

    /// Strassen's algorithm (reference [170] of the paper): 7 recursive
    /// multiplications instead of 8, with a cutoff to blocked multiply.
    pub fn strassen(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "shape mismatch");
        const CUTOFF: usize = 64;
        let n = self.rows.max(self.cols).max(other.cols);
        let size = n.next_power_of_two().max(CUTOFF);
        let a = self.pad_to(size);
        let b = other.pad_to(size);
        let c = strassen_square(&a, &b, CUTOFF);
        c.block(0, 0, self.rows, other.cols)
    }
}

fn strassen_square(a: &Matrix, b: &Matrix, cutoff: usize) -> Matrix {
    let n = a.rows;
    if n <= cutoff {
        return a.mul_blocked(b, 32);
    }
    let h = n / 2;
    let a11 = a.block(0, 0, h, h);
    let a12 = a.block(0, h, h, h);
    let a21 = a.block(h, 0, h, h);
    let a22 = a.block(h, h, h, h);
    let b11 = b.block(0, 0, h, h);
    let b12 = b.block(0, h, h, h);
    let b21 = b.block(h, 0, h, h);
    let b22 = b.block(h, h, h, h);

    let m1 = strassen_square(&a11.add(&a22), &b11.add(&b22), cutoff);
    let m2 = strassen_square(&a21.add(&a22), &b11, cutoff);
    let m3 = strassen_square(&a11, &b12.sub(&b22), cutoff);
    let m4 = strassen_square(&a22, &b21.sub(&b11), cutoff);
    let m5 = strassen_square(&a11.add(&a12), &b22, cutoff);
    let m6 = strassen_square(&a21.sub(&a11), &b11.add(&b12), cutoff);
    let m7 = strassen_square(&a12.sub(&a22), &b21.add(&b22), cutoff);

    let c11 = m1.add(&m4).sub(&m5).add(&m7);
    let c12 = m3.add(&m5);
    let c21 = m2.add(&m4);
    let c22 = m1.sub(&m2).add(&m3).add(&m6);

    let mut c = Matrix::zeros(n, n);
    c.set_block(0, 0, &c11);
    c.set_block(0, h, &c12);
    c.set_block(h, 0, &c21);
    c.set_block(h, h, &c22);
    c
}

/// Multiply `a × b` as a serverless job: operand panels go into Jiffy, one
/// FaaS invocation computes each `grid × grid` output tile, and the driver
/// assembles the result. Returns the product and the number of function
/// invocations used.
pub fn distributed_multiply(
    platform: &FaasPlatform,
    jiffy: &Jiffy,
    a: &Matrix,
    b: &Matrix,
    grid: usize,
) -> (Matrix, usize) {
    assert_eq!(a.cols(), b.rows(), "shape mismatch");
    assert!(grid >= 1 && grid <= a.rows() && grid <= b.cols());
    let job = "/matmul-job";
    // Stage operand panels as ephemeral state.
    let rows_per = a.rows().div_ceil(grid);
    let cols_per = b.cols().div_ceil(grid);
    for i in 0..grid {
        let r0 = i * rows_per;
        let rows = rows_per.min(a.rows() - r0);
        let panel = a.block(r0, 0, rows, a.cols());
        let f = jiffy
            .create_file(format!("{job}/a/{i}").as_str())
            .expect("stage A panel");
        f.append(&panel.to_bytes()).expect("write A panel");
    }
    for j in 0..grid {
        let c0 = j * cols_per;
        let cols = cols_per.min(b.cols() - c0);
        let panel = b.block(0, c0, b.rows(), cols);
        let f = jiffy
            .create_file(format!("{job}/b/{j}").as_str())
            .expect("stage B panel");
        f.append(&panel.to_bytes()).expect("write B panel");
    }

    // The tile worker: payload "i,j" → reads panels, writes tile.
    let jiffy_for_fn = jiffy.clone();
    let spec = FunctionSpec::new("matmul-tile", "matmul", move |ctx| {
        let text = ctx.payload_str().ok_or("bad payload")?;
        let (i, j) = text
            .split_once(',')
            .and_then(|(a, b)| Some((a.parse::<usize>().ok()?, b.parse::<usize>().ok()?)))
            .ok_or("bad tile coords")?;
        let a_bytes = jiffy_for_fn
            .open_file(format!("{job}/a/{i}").as_str())
            .and_then(|f| f.contents())
            .map_err(|e| e.to_string())?;
        let b_bytes = jiffy_for_fn
            .open_file(format!("{job}/b/{j}").as_str())
            .and_then(|f| f.contents())
            .map_err(|e| e.to_string())?;
        let pa = Matrix::from_bytes(&a_bytes).ok_or("corrupt A panel")?;
        let pb = Matrix::from_bytes(&b_bytes).ok_or("corrupt B panel")?;
        let tile = pa.mul_blocked(&pb, 32);
        let out = jiffy_for_fn
            .create_file(format!("{job}/c/{i}-{j}").as_str())
            .map_err(|e| e.to_string())?;
        out.append(&tile.to_bytes()).map_err(|e| e.to_string())?;
        Ok(Vec::new())
    });
    // Re-register fresh per job (ignore duplicate error from prior jobs).
    let _ = platform.deregister("matmul-tile");
    platform.register(spec).expect("register tile worker");

    let mut invocations = 0;
    for i in 0..grid {
        for j in 0..grid {
            platform
                .invoke("matmul-tile", format!("{i},{j}").into_bytes())
                .expect("tile invocation");
            invocations += 1;
        }
    }

    // Assemble.
    let mut c = Matrix::zeros(a.rows(), b.cols());
    for i in 0..grid {
        for j in 0..grid {
            let bytes = jiffy
                .open_file(format!("{job}/c/{i}-{j}").as_str())
                .and_then(|f| f.contents())
                .expect("read C tile");
            let tile = Matrix::from_bytes(&bytes).expect("corrupt C tile");
            c.set_block(i * rows_per, j * cols_per, &tile);
        }
    }
    // Ephemeral state is consumed; release it.
    let _ = jiffy.remove_namespace(job);
    (c, invocations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use taureau_core::bytesize::ByteSize;
    use taureau_core::clock::VirtualClock;
    use taureau_faas::PlatformConfig;
    use taureau_jiffy::JiffyConfig;

    #[test]
    fn naive_known_product() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.mul_naive(&b);
        assert_eq!(c, Matrix::from_vec(2, 2, vec![58.0, 64.0, 139.0, 154.0]));
    }

    #[test]
    fn blocked_matches_naive() {
        let a = Matrix::random(37, 53, 1);
        let b = Matrix::random(53, 29, 2);
        let naive = a.mul_naive(&b);
        for bs in [1, 8, 16, 64] {
            let blocked = a.mul_blocked(&b, bs);
            assert!(naive.max_abs_diff(&blocked).unwrap() < 1e-9, "bs={bs}");
        }
    }

    #[test]
    fn strassen_matches_naive_on_nonsquare_and_non_pow2() {
        for (m, k, n, seed) in [(65, 70, 80, 3), (100, 100, 100, 4), (17, 33, 9, 5)] {
            let a = Matrix::random(m, k, seed);
            let b = Matrix::random(k, n, seed + 100);
            let diff = a.mul_naive(&b).max_abs_diff(&a.strassen(&b)).unwrap();
            assert!(diff < 1e-6, "({m},{k},{n}): diff {diff}");
        }
    }

    #[test]
    fn bytes_roundtrip() {
        let m = Matrix::random(7, 5, 9);
        assert_eq!(Matrix::from_bytes(&m.to_bytes()), Some(m));
        assert_eq!(Matrix::from_bytes(b"junk"), None);
    }

    #[test]
    fn distributed_matches_local() {
        let clock = VirtualClock::shared();
        let platform = FaasPlatform::new(PlatformConfig::deterministic(), clock.clone());
        let jiffy = Jiffy::new(
            JiffyConfig {
                block_size: ByteSize::kb(64),
                ..JiffyConfig::default()
            },
            clock,
        );
        let a = Matrix::random(48, 32, 11);
        let b = Matrix::random(32, 40, 12);
        let (c, invocations) = distributed_multiply(&platform, &jiffy, &a, &b, 4);
        assert_eq!(invocations, 16);
        let reference = a.mul_naive(&b);
        assert!(reference.max_abs_diff(&c).unwrap() < 1e-9);
        // The job cleaned up its ephemeral state.
        assert!(!jiffy.exists("/matmul-job"));
        // And every tile was billed as a serverless invocation.
        assert_eq!(platform.billing().invocations("matmul"), 16);
    }

    #[test]
    fn distributed_handles_uneven_grids() {
        let clock = VirtualClock::shared();
        let platform = FaasPlatform::new(PlatformConfig::deterministic(), clock.clone());
        let jiffy = Jiffy::new(JiffyConfig::default(), clock);
        let a = Matrix::random(10, 6, 21);
        let b = Matrix::random(6, 7, 22);
        let (c, _) = distributed_multiply(&platform, &jiffy, &a, &b, 3);
        assert!(a.mul_naive(&b).max_abs_diff(&c).unwrap() < 1e-9);
    }
}
