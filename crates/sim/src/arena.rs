//! The simulated address space.
//!
//! A bump allocator over a real `Vec<u8>` backing store: simulated
//! addresses are offsets into the store, so database operators read and
//! write real bytes (their results are testable) while the
//! [`crate::MemorySystem`] accounts for the cache behaviour of every
//! access.

use crate::Addr;

/// Base of the simulated address space. Non-zero so that address 0 can act
/// as a null pointer in engine data structures (e.g. hash-chain ends).
pub const ARENA_BASE: Addr = 4096;

/// A growable simulated address space with real backing bytes.
#[derive(Debug, Default)]
pub struct Arena {
    data: Vec<u8>,
    next: Addr,
}

impl Arena {
    /// An empty arena.
    pub fn new() -> Self {
        Arena {
            data: Vec::new(),
            next: ARENA_BASE,
        }
    }

    /// Allocate `bytes` bytes aligned to `align` (must be a power of two).
    /// Returns the simulated address of the first byte.
    pub fn alloc(&mut self, bytes: u64, align: u64) -> Addr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let addr = (self.next + align - 1) & !(align - 1);
        self.next = addr + bytes;
        let needed = (self.next - ARENA_BASE) as usize;
        if self.data.len() < needed {
            self.data.resize(needed, 0);
        }
        addr
    }

    /// Allocate with a deliberate byte offset past an `align`-boundary:
    /// `alloc_offset(n, 64, 3)` returns an address `≡ 3 (mod 64)`.
    ///
    /// The alignment experiments of the paper's §4.2 (Figure 5) place a
    /// region at every possible offset within a cache line; this is the
    /// hook that makes that possible.
    pub fn alloc_offset(&mut self, bytes: u64, align: u64, offset: u64) -> Addr {
        let base = self.alloc(bytes + offset, align);
        base + offset
    }

    /// Give back the tail `[end, tip)` of the most recent allocation:
    /// the next allocation starts from `end`, exactly as if the last
    /// allocation had been sized to stop there. Operators that learn
    /// their output size in the charged pass reserve a bound at the tip
    /// and release what they did not write. The released bytes must
    /// still be zero (every allocation promises zeroed memory).
    pub fn release_tail(&mut self, end: Addr) {
        assert!(
            (ARENA_BASE..=self.next).contains(&end),
            "release point {end} outside the allocated range"
        );
        debug_assert!(
            self.data[self.idx(end)..self.idx(self.next)]
                .iter()
                .all(|&b| b == 0),
            "released tail was written"
        );
        self.next = end;
    }

    /// Total bytes allocated so far.
    pub fn allocated(&self) -> u64 {
        self.next - ARENA_BASE
    }

    /// First address past the allocated space.
    pub fn high_water(&self) -> Addr {
        self.next
    }

    #[inline]
    fn idx(&self, addr: Addr) -> usize {
        debug_assert!(addr >= ARENA_BASE, "address {addr} below arena base");
        (addr - ARENA_BASE) as usize
    }

    /// Read `buf.len()` bytes starting at `addr` (host-side; no simulation).
    pub fn read_bytes(&self, addr: Addr, buf: &mut [u8]) {
        let i = self.idx(addr);
        buf.copy_from_slice(&self.data[i..i + buf.len()]);
    }

    /// Write `buf` starting at `addr` (host-side; no simulation).
    pub fn write_bytes(&mut self, addr: Addr, buf: &[u8]) {
        let i = self.idx(addr);
        self.data[i..i + buf.len()].copy_from_slice(buf);
    }

    /// Read a little-endian `u64` at `addr` (host-side).
    #[inline]
    pub fn read_u64(&self, addr: Addr) -> u64 {
        let i = self.idx(addr);
        u64::from_le_bytes(self.data[i..i + 8].try_into().expect("8 bytes"))
    }

    /// Write a little-endian `u64` at `addr` (host-side).
    #[inline]
    pub fn write_u64(&mut self, addr: Addr, v: u64) {
        let i = self.idx(addr);
        self.data[i..i + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Read a little-endian `u32` at `addr` (host-side).
    #[inline]
    pub fn read_u32(&self, addr: Addr) -> u32 {
        let i = self.idx(addr);
        u32::from_le_bytes(self.data[i..i + 4].try_into().expect("4 bytes"))
    }

    /// Write a little-endian `u32` at `addr` (host-side).
    #[inline]
    pub fn write_u32(&mut self, addr: Addr, v: u32) {
        let i = self.idx(addr);
        self.data[i..i + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Copy `len` bytes from `src` to `dst` within the arena (host-side).
    pub fn copy(&mut self, src: Addr, dst: Addr, len: u64) {
        let s = self.idx(src);
        let d = self.idx(dst);
        self.data.copy_within(s..s + len as usize, d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_respects_alignment() {
        let mut a = Arena::new();
        let p1 = a.alloc(10, 64);
        assert_eq!(p1 % 64, 0);
        let p2 = a.alloc(1, 128);
        assert_eq!(p2 % 128, 0);
        assert!(p2 >= p1 + 10);
    }

    #[test]
    fn alloc_offset_lands_off_boundary() {
        let mut a = Arena::new();
        for off in 0..32 {
            let p = a.alloc_offset(100, 32, off);
            assert_eq!(p % 32, off);
        }
    }

    #[test]
    fn u64_roundtrip() {
        let mut a = Arena::new();
        let p = a.alloc(64, 8);
        a.write_u64(p, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(a.read_u64(p), 0xDEAD_BEEF_CAFE_F00D);
        a.write_u64(p + 8, 42);
        assert_eq!(a.read_u64(p), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(a.read_u64(p + 8), 42);
    }

    #[test]
    fn u32_roundtrip() {
        let mut a = Arena::new();
        let p = a.alloc(16, 4);
        a.write_u32(p, 0x1234_5678);
        a.write_u32(p + 4, 0x9ABC_DEF0);
        assert_eq!(a.read_u32(p), 0x1234_5678);
        assert_eq!(a.read_u32(p + 4), 0x9ABC_DEF0);
    }

    #[test]
    fn byte_roundtrip_and_copy() {
        let mut a = Arena::new();
        let src = a.alloc(16, 8);
        let dst = a.alloc(16, 8);
        a.write_bytes(src, b"hello world!!!!!");
        a.copy(src, dst, 16);
        let mut buf = [0u8; 16];
        a.read_bytes(dst, &mut buf);
        assert_eq!(&buf, b"hello world!!!!!");
    }

    #[test]
    fn zero_initialised() {
        let mut a = Arena::new();
        let p = a.alloc(32, 8);
        assert_eq!(a.read_u64(p), 0);
        assert_eq!(a.read_u64(p + 24), 0);
    }

    #[test]
    fn release_tail_rewinds_the_tip() {
        let mut a = Arena::new();
        let p = a.alloc(256, 64);
        a.write_u64(p, 7);
        a.release_tail(p + 8);
        // The next allocation lands where an exact 8-byte one would
        // have put it, and the reused bytes read as zero.
        let q = a.alloc(16, 8);
        assert_eq!(q, p + 8);
        assert_eq!(a.read_u64(q), 0);
        assert_eq!(a.read_u64(p), 7);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "released tail was written")]
    fn release_tail_rejects_written_bytes() {
        let mut a = Arena::new();
        let p = a.alloc(64, 8);
        a.write_u64(p + 16, 1);
        a.release_tail(p + 8);
    }

    #[test]
    fn allocated_tracks_high_water() {
        let mut a = Arena::new();
        assert_eq!(a.allocated(), 0);
        a.alloc(100, 1);
        assert_eq!(a.allocated(), 100);
        assert_eq!(a.high_water(), ARENA_BASE + 100);
    }
}
