//! Per-thread stripes for the state every warm invoke writes.
//!
//! The warm pool and the tenant bill are split into [`STRIPES`] cells, each
//! on its own cache line. A thread works in the cell its
//! [`taureau_core::sync::stripe_id`] picks — the same id a
//! `StripedCounter` picks its cell with — so two invoking threads write
//! different lines. Threads whose ids differ by a multiple of [`STRIPES`]
//! share a cell, and each cell is still a lock, so sharing costs only
//! contention.

use std::ops::Deref;

/// Cells per striped structure.
pub(crate) const STRIPES: usize = 16;

/// The calling thread's cell index, in `0..STRIPES`.
#[inline]
pub(crate) fn own_stripe() -> usize {
    taureau_core::sync::stripe_id() % STRIPES
}

/// A value alone on its cache line: nothing written beside it invalidates
/// it, and writing it invalidates nothing beside it.
#[repr(align(64))]
#[derive(Debug, Default)]
pub(crate) struct CachePadded<T>(pub(crate) T);

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}
