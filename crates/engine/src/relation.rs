//! Relations: fixed-width tuples in backend memory.
//!
//! The engine is column-oriented in spirit (like the paper's Monet
//! platform): a [`Relation`] is a single dense array of `n` fixed-width
//! tuples whose first 8 bytes are a `u64` key and whose remaining
//! `w − 8` bytes are payload. That layout is exactly a data region in the
//! model's sense (§3.1), and every relation carries its [`Region`].
//!
//! A relation is addressed by `base + i·w` offsets into whichever
//! [`MemoryBackend`](crate::backend::MemoryBackend) allocated it —
//! simulated arena or native buffer — so the same `Relation` value works
//! unchanged on either substrate (both use the same [`Addr`] space and
//! bump-allocation rules).

use gcm_core::Region;
use gcm_sim::Addr;

/// Minimum tuple width: the 8-byte key.
pub const KEY_BYTES: u64 = 8;

/// [`Relation::key_bound`] of a relation nothing is known about.
pub const UNKNOWN_KEY_BOUND: u64 = u64::MAX;

/// A dense table of fixed-width tuples in simulated memory.
#[derive(Debug, Clone)]
pub struct Relation {
    base: Addr,
    n: u64,
    w: u64,
    key_bound: u64,
    region: Region,
}

impl Relation {
    /// Wrap an allocated range as a relation. `w ≥ 8` (the key).
    pub fn new(name: impl Into<String>, base: Addr, n: u64, w: u64) -> Relation {
        assert!(w >= KEY_BYTES, "tuple width must hold the 8-byte key");
        Relation {
            base,
            n,
            w,
            key_bound: UNKNOWN_KEY_BOUND,
            region: Region::new(name, n, w),
        }
    }

    /// The same relation with an exclusive upper bound on its key values
    /// recorded (see [`Relation::key_bound`]).
    pub fn with_key_bound(mut self, bound: u64) -> Relation {
        self.key_bound = bound;
        self
    }

    /// Exclusive upper bound on the key values: every key is
    /// `< key_bound()`, so the relation holds at most that many distinct
    /// keys. Taken from the data (recorded when keys are loaded and
    /// narrowed by the operators that derive a relation), never from
    /// catalog statistics; [`UNKNOWN_KEY_BOUND`] when nothing is known.
    pub fn key_bound(&self) -> u64 {
        self.key_bound
    }

    /// Base address of the first tuple.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Tuple count `R.n`.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Tuple width `R.w` in bytes.
    pub fn w(&self) -> u64 {
        self.w
    }

    /// Total size `||R||` in bytes.
    pub fn bytes(&self) -> u64 {
        self.n * self.w
    }

    /// The model region describing this relation.
    pub fn region(&self) -> &Region {
        &self.region
    }

    /// Address of tuple `i`.
    #[inline]
    pub fn tuple(&self, i: u64) -> Addr {
        debug_assert!(i < self.n, "tuple index {i} out of {}", self.n);
        self.base + i * self.w
    }

    /// Address of tuple `i`'s key (same as [`Relation::tuple`]).
    #[inline]
    pub fn key_addr(&self, i: u64) -> Addr {
        self.tuple(i)
    }

    /// A view of the contiguous sub-range `[first, first+count)` as a
    /// relation sharing this relation's region identity (a model slice).
    pub fn subrange(&self, first: u64, count: u64) -> Relation {
        assert!(first + count <= self.n);
        Relation {
            base: self.base + first * self.w,
            n: count,
            w: self.w,
            key_bound: self.key_bound,
            region: self.region.slice_items(count),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addressing() {
        let r = Relation::new("R", 4096, 10, 16);
        assert_eq!(r.tuple(0), 4096);
        assert_eq!(r.tuple(3), 4096 + 48);
        assert_eq!(r.bytes(), 160);
        assert_eq!(r.region().n, 10);
        assert_eq!(r.region().w, 16);
    }

    #[test]
    fn subrange_shares_region_identity() {
        let r = Relation::new("R", 4096, 100, 16);
        let s = r.subrange(10, 20);
        assert_eq!(s.base(), 4096 + 160);
        assert_eq!(s.n(), 20);
        assert_eq!(s.region().id(), r.region().id());
        assert_eq!(s.region().root_bytes(), 1600);
    }

    #[test]
    fn key_bound_defaults_to_unknown_and_survives_subrange() {
        let r = Relation::new("R", 4096, 100, 16);
        assert_eq!(r.key_bound(), UNKNOWN_KEY_BOUND);
        let r = r.with_key_bound(40);
        assert_eq!(r.subrange(10, 20).key_bound(), 40);
    }

    #[test]
    #[should_panic(expected = "tuple width must hold")]
    fn narrow_tuples_rejected() {
        let _ = Relation::new("bad", 0, 1, 4);
    }
}
