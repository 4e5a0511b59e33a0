//! Offline shim for the `bytes` crate: cheap-to-clone immutable byte
//! buffers (`Bytes`) over an `Arc<Vec<u8>>`, plus a growable `BytesMut`
//! builder with the little-endian `BufMut` put-methods the workspace uses.
//!
//! The backing store is an `Arc<Vec<u8>>` rather than an `Arc<[u8]>` on
//! purpose: `Vec<u8> -> Bytes` then reuses the vector's heap buffer (one
//! small `Arc` header allocation, no byte copy), which is what makes the
//! handler-output -> `Bytes` conversion at the FaaS `Ok` boundary free.
//! An empty buffer has no backing store at all: as in the real crate,
//! `Bytes::new()` and `Bytes::from(Vec::new())` do not allocate.
//!
//! The leaf accessors are `#[inline]`: they are non-generic one-liners, and
//! a build without LTO (the benchmark's default release profile) otherwise
//! pays a real call for every `payload[..]`, `len()` and `put_u32_le` in
//! every codec of every crate.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable slice of bytes.
#[derive(Clone)]
pub struct Bytes {
    /// `None` for a buffer created empty.
    data: Option<Arc<Vec<u8>>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// The empty buffer.
    #[inline]
    pub fn new() -> Self {
        Self {
            data: None,
            start: 0,
            end: 0,
        }
    }

    /// Buffer over a static slice (copied; the shim has no zero-copy
    /// static storage, which is invisible to callers).
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Self::copy_from_slice(bytes)
    }

    /// Copy a slice into a new buffer.
    #[inline]
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Self::from(data.to_vec())
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-slice sharing the same backing storage.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or inverted.
    #[inline]
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            lo <= hi && hi <= self.len(),
            "slice {lo}..{hi} out of bounds of {}",
            self.len()
        );
        Self {
            data: self.data.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// The sub-slice of `self` that `subset` borrows from it, sharing the
    /// same backing storage: a frame a decoder found in `self` becomes a
    /// handle the caller can keep. An empty `subset` gives an empty buffer.
    ///
    /// # Panics
    /// Panics if a non-empty `subset` does not lie inside `self`.
    #[inline]
    pub fn slice_ref(&self, subset: &[u8]) -> Self {
        if subset.is_empty() {
            return Self::new();
        }
        let base = self.as_ref().as_ptr() as usize;
        let lo = (subset.as_ptr() as usize).wrapping_sub(base);
        assert!(
            lo <= self.len() && subset.len() <= self.len() - lo,
            "subset is not inside this buffer"
        );
        self.slice(lo..lo + subset.len())
    }

    /// The contents as a plain slice.
    #[inline]
    pub fn as_ref(&self) -> &[u8] {
        match &self.data {
            Some(data) => &data[self.start..self.end],
            None => &[],
        }
    }

    /// The contents for writing, when this handle is the buffer's only
    /// owner: no clone, no slice of it, nothing else can observe the
    /// write. `None` when the storage is shared (or the buffer is empty) —
    /// the caller then builds a fresh buffer, and every view handed out
    /// earlier keeps reading what it read.
    #[inline]
    pub fn unique_mut(&mut self) -> Option<&mut [u8]> {
        let (start, end) = (self.start, self.end);
        Arc::get_mut(self.data.as_mut()?).map(|v| &mut v[start..end])
    }

    /// Copy the contents into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_ref()
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        Bytes::as_ref(self)
    }
}

impl From<Vec<u8>> for Bytes {
    #[inline]
    fn from(v: Vec<u8>) -> Self {
        // Takes ownership of the vector's buffer: no byte copy.
        if v.is_empty() {
            return Self::new();
        }
        let end = v.len();
        Self {
            data: Some(Arc::new(v)),
            start: 0,
            end,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Self::copy_from_slice(s)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Self::from(s.into_bytes())
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Self::copy_from_slice(s.as_bytes())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_ref() == *other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_ref() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Bytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_ref() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_ref() == other.as_slice()
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_ref()
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_ref().cmp(other.as_ref())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_ref() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        Bytes::as_ref(self).iter()
    }
}

/// A growable byte buffer that freezes into [`Bytes`].
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct BytesMut {
    vec: Vec<u8>,
}

impl BytesMut {
    /// New empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// New empty buffer with reserved capacity.
    #[inline]
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            vec: Vec::with_capacity(cap),
        }
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.vec.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.vec.is_empty()
    }

    /// Convert into an immutable [`Bytes`].
    #[inline]
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.vec)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.vec
    }
}

impl AsRef<[u8]> for BytesMut {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        &self.vec
    }
}

/// Write-side extension methods (the subset of `bytes::BufMut` the
/// workspace calls, all little-endian).
pub trait BufMut {
    /// Append a raw slice.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a `u16`, little-endian.
    #[inline]
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a `u32`, little-endian.
    #[inline]
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    #[inline]
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.vec.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// Writes fill the slice from the front and advance it past what they
/// wrote; writing past its end panics, as in `bytes`.
impl BufMut for &mut [u8] {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        let (head, rest) = std::mem::take(self).split_at_mut(src.len());
        head.copy_from_slice(src);
        *self = rest;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_shares_and_bounds() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        let tail = b.slice(3..);
        assert_eq!(&tail[..], &[4, 5]);
        assert_eq!(b.slice(..).len(), 5);
    }

    #[test]
    fn slice_ref_shares_what_it_borrows() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]).slice(1..);
        let kept = b.slice_ref(&b[1..3]);
        assert_eq!(&kept[..], &[3, 4]);
        assert_eq!(kept.as_ref().as_ptr(), b[1..].as_ptr());
        assert_eq!(b.slice_ref(&b[4..]).len(), 0);
        assert!(b.slice_ref(&[]).is_empty());
        let other = [3u8, 4];
        assert!(std::panic::catch_unwind(|| b.slice_ref(&other)).is_err());
    }

    #[test]
    fn unique_mut_writes_only_what_nobody_else_can_see() {
        let mut b = Bytes::from(vec![1, 2, 3, 4]);
        let at = b.as_ref().as_ptr();
        b.unique_mut().expect("sole owner")[0] = 9;
        assert_eq!((&b[..], b.as_ref().as_ptr()), (&[9, 2, 3, 4][..], at));
        // A clone or a slice shares the storage: no writer until it is gone.
        let view = b.slice(1..3);
        assert!(b.unique_mut().is_none());
        drop(view);
        let mut tail = b.slice(2..);
        drop(b);
        tail.unique_mut().expect("sole owner again").fill(0);
        assert_eq!(&tail[..], &[0, 0]);
        assert!(Bytes::new().unique_mut().is_none());
    }

    #[test]
    fn bytesmut_builds_and_freezes() {
        let mut m = BytesMut::with_capacity(16);
        m.put_u32_le(7);
        m.put_slice(b"ab");
        m.put_u64_le(9);
        let b = m.freeze();
        assert_eq!(b.len(), 4 + 2 + 8);
        assert_eq!(&b[0..4], &7u32.to_le_bytes());
        assert_eq!(&b[4..6], b"ab");
    }

    #[test]
    fn a_slice_fills_from_the_front() {
        let mut out = [0u8; 6];
        let mut w = &mut out[..];
        w.put_u16_le(0x0201);
        w.put_u8(3);
        assert_eq!(w.len(), 3);
        assert_eq!(out, [1, 2, 3, 0, 0, 0]);
    }
}
