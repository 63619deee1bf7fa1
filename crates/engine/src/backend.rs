//! The pluggable memory substrate every operator executes against.
//!
//! The engine's operators are generic over a [`MemoryBackend`]: the same
//! algorithm code runs either on the **simulated** hierarchy
//! ([`SimBackend`], i.e. [`gcm_sim::MemorySystem`] — deterministic
//! per-level miss counters and a charged-latency clock) or on the
//! **native** memory of the host machine
//! ([`NativeBackend`](crate::native::NativeBackend) — real buffers, real
//! loads and stores, wall-clock time). Results are bit-identical across
//! backends because only the substrate differs, never the algorithm;
//! what differs is *what can be measured*:
//!
//! | capability                | sim                  | native            |
//! |---------------------------|----------------------|-------------------|
//! | per-level miss counters   | exact                | not observable    |
//! | elapsed time              | charged (Eq 3.1)     | wall clock        |
//! | `host_*` setup accesses   | free (uncounted)     | real, timed       |
//! | cold caches               | exact flush          | eviction sweep    |
//!
//! This closes the paper's loop: the cost model is calibrated on and
//! validated against the *actual* machine (§6), not only the simulator.

use gcm_core::CpuCost;
use gcm_sim::{Addr, MemorySystem, MissTrace};

/// The simulated backend: the deterministic measurement substrate the
/// validation experiments use (bit-for-bit the engine's historical
/// behaviour).
pub type SimBackend = MemorySystem;

/// A memory substrate operators can run on.
///
/// *Charged* accesses ([`touch`](MemoryBackend::touch),
/// [`read_u64`](MemoryBackend::read_u64), …) are part of the algorithm
/// and must be accounted (simulated or actually performed); `host_*`
/// accesses are setup bookkeeping (table loads, sentinel fills, result
/// read-back, prefetch peeks) that the simulator leaves uncounted (on
/// native memory they are real accesses like any other — wall clock
/// cannot be told to ignore them, so operators keep them out of their
/// passes over the data).
pub trait MemoryBackend {
    /// Interval counters of one run: per-level [`gcm_sim::Snapshot`] for
    /// the simulator, elapsed wall time for native memory.
    type Counters: Clone + std::fmt::Debug + Send;

    /// Allocate `bytes` zeroed bytes aligned to `align` (a power of two).
    fn alloc(&mut self, bytes: u64, align: u64) -> Addr;

    /// Give back the never-written tail `[end, tip)` of the most recent
    /// allocation, so the next allocation lands exactly where it would
    /// have had the last one been sized to stop at `end`. Debug builds
    /// assert the released bytes are still zero, because
    /// [`alloc`](MemoryBackend::alloc) promises zeroed memory.
    fn release_tail(&mut self, end: Addr);

    /// Preferred relation alignment (the largest cache line the backend
    /// knows about).
    fn line_align(&self) -> u64;

    /// Charged access touching `[addr, addr+len)` (read/write symmetric,
    /// paper §2.2).
    fn touch(&mut self, addr: Addr, len: u64);

    /// Charged read of a little-endian `u64`.
    fn read_u64(&mut self, addr: Addr) -> u64;

    /// Charged write of a little-endian `u64`.
    fn write_u64(&mut self, addr: Addr, v: u64);

    /// Charged copy of `len` bytes (reads source, writes destination).
    fn copy(&mut self, src: Addr, dst: Addr, len: u64);

    /// Charged swap of two `w`-byte tuples.
    fn swap(&mut self, a: Addr, b: Addr, w: u64) {
        self.touch(a, w);
        self.touch(b, w);
        let mut ta = vec![0u8; w as usize];
        let mut tb = vec![0u8; w as usize];
        self.host_read_bytes(a, &mut ta);
        self.host_read_bytes(b, &mut tb);
        self.host_write_bytes(a, &tb);
        self.host_write_bytes(b, &ta);
    }

    /// Hint that the line holding `addr` will soon be **read**. Never
    /// charged, never required for correctness: the simulator's charged
    /// clock already prices every future access, so its hint is a no-op;
    /// the native backend forwards it to the hardware prefetcher.
    fn prefetch_read(&mut self, _addr: Addr) {}

    /// Hint that the line holding `addr` will soon be **written**.
    /// Uncharged no-op by default, like
    /// [`prefetch_read`](MemoryBackend::prefetch_read).
    fn prefetch_write(&mut self, _addr: Addr) {}

    /// How many items ahead operators should issue software prefetches
    /// on this backend. `0` disables prefetching entirely (the
    /// simulator's default — hints would neither help nor be priced);
    /// the native backend derives a positive distance from the
    /// calibrated latency/bandwidth ratio.
    fn prefetch_distance(&self) -> u64 {
        0
    }

    /// Charged bulk scan: touch `u` bytes of each of `n` `w`-byte tuples
    /// starting at `base` and return the wrapping sum of their 8-byte
    /// keys. The default performs exactly the per-tuple charged loop the
    /// scalar scan operator historically ran (one
    /// [`touch`](MemoryBackend::touch) plus one uncharged key read per
    /// tuple), so simulated counters are bit-identical whether or not an
    /// operator routes through this entry point; vectorizing backends
    /// override it with real SIMD sweeps that preserve the same
    /// access/line accounting.
    fn scan_sum_bulk(&mut self, base: Addr, n: u64, w: u64, u: u64) -> u64 {
        let mut sum = 0u64;
        for i in 0..n {
            let addr = base + i * w;
            self.touch(addr, u);
            sum = sum.wrapping_add(self.host_read_u64(addr));
        }
        sum
    }

    /// Charged bulk filter: read each of `n` `w`-byte tuples at `src`
    /// and copy those with key `< threshold` densely into `dst`
    /// (`dst_w`-byte slots); returns the number of hits. The default is
    /// exactly the scalar selection loop (per-tuple full-width
    /// [`touch`](MemoryBackend::touch), then a charged
    /// [`copy`](MemoryBackend::copy) of `min(w, dst_w)` bytes per hit);
    /// overrides must preserve that accounting.
    fn select_lt_bulk(
        &mut self,
        src: Addr,
        n: u64,
        w: u64,
        threshold: u64,
        dst: Addr,
        dst_w: u64,
    ) -> u64 {
        let cw = w.min(dst_w);
        let mut hits = 0u64;
        for i in 0..n {
            let addr = src + i * w;
            self.touch(addr, w);
            let key = self.host_read_u64(addr);
            if key < threshold {
                self.copy(addr, dst + hits * dst_w, cw);
                hits += 1;
            }
        }
        hits
    }

    /// Charged bulk hash-scatter: append each of `n` `w`-byte tuples at
    /// `src` to its output buffer in `dst`, where `buckets[i]` names
    /// tuple `i`'s buffer and `cursors[b]` is buffer `b`'s running write
    /// position (a tuple index into `dst`, advanced by the call). The
    /// default is exactly the scalar partition scatter (per-tuple
    /// full-width [`touch`](MemoryBackend::touch) of the input, then a
    /// charged [`copy`](MemoryBackend::copy) to the destination);
    /// overrides must preserve that accounting.
    fn partition_scatter_bulk(
        &mut self,
        src: Addr,
        n: u64,
        w: u64,
        dst: Addr,
        buckets: &[u32],
        cursors: &mut [u64],
    ) {
        debug_assert_eq!(buckets.len() as u64, n);
        for i in 0..n {
            let from = src + i * w;
            self.touch(from, w);
            let b = buckets[i as usize] as usize;
            self.copy(from, dst + cursors[b] * w, w);
            cursors[b] += 1;
        }
    }

    /// Uncharged (setup) read of a `u64`.
    fn host_read_u64(&self, addr: Addr) -> u64;

    /// Uncharged (setup) write of a `u64`.
    fn host_write_u64(&mut self, addr: Addr, v: u64);

    /// Uncharged read into `buf`.
    fn host_read_bytes(&self, addr: Addr, buf: &mut [u8]);

    /// Uncharged write of `buf`.
    fn host_write_bytes(&mut self, addr: Addr, buf: &[u8]);

    /// Current cumulative counters (monotone; diff two with
    /// [`counters_since`](MemoryBackend::counters_since) for an interval).
    fn counters(&self) -> Self::Counters;

    /// Counters accumulated since `earlier`.
    fn counters_since(&self, earlier: &Self::Counters) -> Self::Counters;

    /// Elapsed (charged or wall-clock) nanoseconds of an interval.
    fn elapsed_ns(c: &Self::Counters) -> f64;

    /// Charged accesses of an interval, when the backend counts them
    /// (the simulator's first-level probe count; `None` on backends
    /// without access counters).
    fn counter_accesses(c: &Self::Counters) -> Option<u64> {
        let _ = c;
        None
    }

    /// Per-cache-level `(name, misses)` of an interval. Empty on
    /// backends without per-level counters (native memory): callers
    /// treat "no rows" as "not observable", never as "zero misses".
    fn counter_level_misses(&self, c: &Self::Counters) -> Vec<(String, u64)> {
        let _ = c;
        Vec::new()
    }

    /// Attach a bounded miss trace of `capacity` events, replacing any
    /// existing one. Returns whether the backend records traces at all
    /// — `false` (the default) on backends without observable misses,
    /// where attach/take are documented no-ops.
    fn attach_miss_trace(&mut self, capacity: usize) -> bool {
        let _ = capacity;
        false
    }

    /// Detach and return the miss trace. Check
    /// [`MissTrace::dropped`] before trusting it: a full ring drops
    /// (and counts) events rather than growing.
    fn take_miss_trace(&mut self) -> Option<MissTrace> {
        None
    }

    /// Events dropped by the currently attached trace, if one exists —
    /// exposed separately so truncation can be monitored without
    /// detaching the trace.
    fn miss_trace_dropped(&self) -> Option<u64> {
        None
    }

    /// Measured total time of an interval under a per-op CPU calibration
    /// — the engine-side Eq 6.1 (`T = T_mem + T_cpu`), routed through
    /// [`CpuCost::eq61_ns`]. Backends whose elapsed time already
    /// *includes* CPU work (wall clocks) override this to return the
    /// elapsed time alone.
    fn total_ns(c: &Self::Counters, ops: u64, per_op_ns: f64) -> f64 {
        CpuCost::per_op(per_op_ns).eq61_ns(Self::elapsed_ns(c), ops)
    }

    /// Restore the paper's §4.5 initial condition ("initially empty
    /// caches") as well as the backend can: the simulator flushes
    /// exactly, native memory runs an eviction sweep.
    fn cold_caches(&mut self);
}

impl MemoryBackend for MemorySystem {
    type Counters = gcm_sim::Snapshot;

    fn alloc(&mut self, bytes: u64, align: u64) -> Addr {
        MemorySystem::alloc(self, bytes, align)
    }

    fn release_tail(&mut self, end: Addr) {
        MemorySystem::release_tail(self, end);
    }

    fn line_align(&self) -> u64 {
        self.spec()
            .data_caches()
            .map(|l| l.line)
            .max()
            .unwrap_or(64)
    }

    fn touch(&mut self, addr: Addr, len: u64) {
        MemorySystem::touch(self, addr, len);
    }

    fn read_u64(&mut self, addr: Addr) -> u64 {
        MemorySystem::read_u64(self, addr)
    }

    fn write_u64(&mut self, addr: Addr, v: u64) {
        MemorySystem::write_u64(self, addr, v);
    }

    fn copy(&mut self, src: Addr, dst: Addr, len: u64) {
        MemorySystem::copy(self, src, dst, len);
    }

    fn host_read_u64(&self, addr: Addr) -> u64 {
        self.host().read_u64(addr)
    }

    fn host_write_u64(&mut self, addr: Addr, v: u64) {
        self.host_mut().write_u64(addr, v);
    }

    fn host_read_bytes(&self, addr: Addr, buf: &mut [u8]) {
        self.host().read_bytes(addr, buf);
    }

    fn host_write_bytes(&mut self, addr: Addr, buf: &[u8]) {
        self.host_mut().write_bytes(addr, buf);
    }

    fn counters(&self) -> gcm_sim::Snapshot {
        self.snapshot()
    }

    fn counters_since(&self, earlier: &gcm_sim::Snapshot) -> gcm_sim::Snapshot {
        self.delta_since(earlier)
    }

    fn elapsed_ns(c: &gcm_sim::Snapshot) -> f64 {
        c.clock_ns
    }

    fn counter_accesses(c: &gcm_sim::Snapshot) -> Option<u64> {
        // Every charged access probes the first level exactly once.
        c.levels.first().map(|l| l.accesses)
    }

    fn counter_level_misses(&self, c: &gcm_sim::Snapshot) -> Vec<(String, u64)> {
        self.spec()
            .levels()
            .iter()
            .zip(&c.levels)
            .map(|(level, stats)| (level.name.clone(), stats.misses()))
            .collect()
    }

    fn attach_miss_trace(&mut self, capacity: usize) -> bool {
        MemorySystem::attach_trace(self, capacity);
        true
    }

    fn take_miss_trace(&mut self) -> Option<MissTrace> {
        MemorySystem::take_trace(self)
    }

    fn miss_trace_dropped(&self) -> Option<u64> {
        self.trace().map(|t| t.dropped())
    }

    fn cold_caches(&mut self) {
        self.flush_caches();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcm_hardware::presets;

    /// Drive a backend through the trait only (the way generic operators
    /// see it) and check the sim impl forwards faithfully.
    fn roundtrip<B: MemoryBackend>(mem: &mut B) {
        let a = mem.alloc(64, 8);
        let b = mem.alloc(64, 8);
        mem.write_u64(a, 7);
        assert_eq!(mem.read_u64(a), 7);
        mem.host_write_u64(b, 9);
        assert_eq!(mem.host_read_u64(b), 9);
        mem.copy(a, b, 16);
        assert_eq!(mem.host_read_u64(b), 7);
        mem.host_write_u64(a + 8, 1);
        mem.host_write_u64(b + 8, 2);
        mem.swap(a, b, 16);
        assert_eq!(mem.host_read_u64(a + 8), 2);
        assert_eq!(mem.host_read_u64(b + 8), 1);
    }

    #[test]
    fn sim_backend_roundtrips_through_the_trait() {
        let mut mem = MemorySystem::new(presets::tiny());
        roundtrip(&mut mem);
        // Charged accesses moved the charged clock; interval diffs work.
        let before = MemoryBackend::counters(&mem);
        assert!(MemorySystem::clock_ns(&mem) > 0.0);
        MemoryBackend::read_u64(&mut mem, 4096);
        let d = mem.counters_since(&before);
        assert!(<MemorySystem as MemoryBackend>::elapsed_ns(&d) >= 0.0);
    }

    #[test]
    fn sim_line_align_is_the_largest_data_line() {
        let mem = MemorySystem::new(presets::tiny()); // L1 32 B, L2 64 B
        assert_eq!(mem.line_align(), 64);
    }

    #[test]
    fn default_total_ns_is_eq61() {
        let mem = MemorySystem::new(presets::tiny());
        let c = gcm_sim::Snapshot {
            levels: mem.snapshot().levels,
            clock_ns: 100.0,
        };
        let t = <MemorySystem as MemoryBackend>::total_ns(&c, 50, 2.0);
        assert!((t - 200.0).abs() < 1e-12);
    }
}
