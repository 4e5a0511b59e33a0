//! Byte quantities.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A quantity of bytes with convenient constructors and arithmetic.
///
/// Used throughout the stack for block sizes, payload sizes, memory pools
/// and billing (GB-seconds).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ByteSize(pub u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// `n` bytes.
    pub const fn b(n: u64) -> Self {
        ByteSize(n)
    }

    /// `n` kibibytes.
    pub const fn kb(n: u64) -> Self {
        ByteSize(n * 1024)
    }

    /// `n` mebibytes.
    pub const fn mb(n: u64) -> Self {
        ByteSize(n * 1024 * 1024)
    }

    /// `n` gibibytes.
    pub const fn gb(n: u64) -> Self {
        ByteSize(n * 1024 * 1024 * 1024)
    }

    /// Raw byte count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Fractional gibibytes, for billing arithmetic.
    pub fn as_gb_f64(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0 * 1024.0)
    }

    /// Number of `block`-sized blocks needed to hold this many bytes
    /// (ceiling division).
    pub fn blocks_of(self, block: ByteSize) -> u64 {
        assert!(block.0 > 0, "block size must be non-zero");
        self.0.div_ceil(block.0)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(rhs.0))
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 - rhs.0)
    }
}

impl SubAssign for ByteSize {
    fn sub_assign(&mut self, rhs: ByteSize) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for ByteSize {
    type Output = ByteSize;
    fn mul(self, rhs: u64) -> ByteSize {
        ByteSize(self.0 * rhs)
    }
}

impl Div<u64> for ByteSize {
    type Output = ByteSize;
    fn div(self, rhs: u64) -> ByteSize {
        ByteSize(self.0 / rhs)
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        iter.fold(ByteSize::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const UNITS: [(&str, u64); 4] = [
            ("GiB", 1 << 30),
            ("MiB", 1 << 20),
            ("KiB", 1 << 10),
            ("B", 1),
        ];
        for (name, scale) in UNITS {
            if self.0 >= scale {
                let v = self.0 as f64 / scale as f64;
                return if (v - v.round()).abs() < 1e-9 {
                    write!(f, "{} {}", v.round() as u64, name)
                } else {
                    write!(f, "{v:.2} {name}")
                };
            }
        }
        write!(f, "0 B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(ByteSize::kb(1).as_u64(), 1024);
        assert_eq!(ByteSize::mb(2).as_u64(), 2 * 1024 * 1024);
        assert_eq!(ByteSize::gb(1).as_gb_f64(), 1.0);
    }

    #[test]
    fn arithmetic() {
        let a = ByteSize::kb(4);
        let b = ByteSize::kb(1);
        assert_eq!(a + b, ByteSize::kb(5));
        assert_eq!(a - b, ByteSize::kb(3));
        assert_eq!(a * 2, ByteSize::kb(8));
        assert_eq!(a / 2, ByteSize::kb(2));
        assert_eq!(b.saturating_sub(a), ByteSize::ZERO);
    }

    #[test]
    fn blocks_of_rounds_up() {
        assert_eq!(ByteSize::b(0).blocks_of(ByteSize::kb(4)), 0);
        assert_eq!(ByteSize::b(1).blocks_of(ByteSize::kb(4)), 1);
        assert_eq!(ByteSize::kb(4).blocks_of(ByteSize::kb(4)), 1);
        assert_eq!(ByteSize::b(4097).blocks_of(ByteSize::kb(4)), 2);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(ByteSize::b(512).to_string(), "512 B");
        assert_eq!(ByteSize::kb(4).to_string(), "4 KiB");
        assert_eq!(ByteSize::mb(3).to_string(), "3 MiB");
        assert_eq!(ByteSize::b(1536).to_string(), "1.50 KiB");
    }

    #[test]
    fn sum_iterates() {
        let total: ByteSize = (1..=4).map(ByteSize::kb).sum();
        assert_eq!(total, ByteSize::kb(10));
    }
}
