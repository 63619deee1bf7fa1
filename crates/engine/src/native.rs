//! The native backend: operators on the **real** memory of the host.
//!
//! [`NativeBackend`] allocates real buffers, performs real loads and
//! stores, and reports elapsed wall-clock time via [`std::time::Instant`]
//! — the measured side of the paper's §6 validation on an actual machine
//! instead of the simulator. Addressing mirrors the simulator's arena
//! exactly (bump allocation from the same base, same alignment rules), so
//! a physical plan executed on both backends performs the identical
//! sequence of logical accesses and produces byte-identical results; only
//! the substrate underneath — and therefore the *measurement* — differs.
//!
//! What native can and cannot count (see the table in
//! [`crate::backend`]): by default it measures wall time plus logical
//! access/line totals — wall time includes CPU work and output
//! allocation (operators make no host-side sizing pass; see
//! [`MemoryBackend::release_tail`]), so comparisons against the model use
//! generous documented bounds, while *result* comparisons against the
//! sim backend are exact. On a perf-capable Linux host,
//! [`NativeBackend::attach_pmu`] additionally opens the hardware
//! counter group of [`gcm_obs::pmu`]: counter snapshots then carry
//! real L1D/LLC/dTLB miss counts, and
//! [`MemoryBackend::counter_level_misses`] reports them as per-level
//! rows (`"L1d"`, `"LLC"`, `"dTLB"`) — the measured side of the
//! paper's Eq 6.1 *miss* predictions on real silicon. Where the
//! kernel or platform forbids counting the attach reports
//! [`PmuStatus::Unavailable`] and snapshots simply carry no PMU block;
//! absence of rows means "not observable", never "zero misses".
//!
//! Charged accesses go through [`std::hint::black_box`] so the optimizer
//! cannot elide the loads the access-pattern language describes;
//! [`NativeBackend::cold_caches`] approximates the paper's "initially
//! empty caches" (§4.5) by sweeping an eviction buffer larger than any
//! LLC we expect to meet.

use crate::backend::MemoryBackend;
use crate::ctx::ExecContext;
use crate::kernels;
use gcm_hardware::stride;
use gcm_obs::pmu::{PmuGroup, PmuSample, PmuStatus};
use gcm_sim::Addr;
use std::hint::black_box;
use std::time::Instant;

/// Base of the native address space — identical to the simulator's
/// [`gcm_sim::arena::ARENA_BASE`] so allocation sequences produce the
/// same addresses on both backends.
const NATIVE_BASE: Addr = 4096;

/// Line granularity of charged accesses (one real load per line), the
/// ubiquitous 64-byte cache line of current hardware.
const NATIVE_LINE: u64 = 64;

/// Default eviction-sweep size: comfortably past typical LLCs.
const DEFAULT_WIPE_BYTES: usize = 32 << 20;

/// Interval counters of a native run.
///
/// Always counts elapsed wall time plus the logical access/line totals
/// the operators drove through the charged interface (useful to
/// confirm two backends performed the same logical work). With a PMU
/// group attached ([`NativeBackend::attach_pmu`]) each snapshot also
/// carries the cumulative hardware sample, so interval diffs expose
/// real per-level miss counts; without one the field is `None` —
/// honestly unobservable, not zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NativeCounters {
    /// Elapsed wall-clock nanoseconds.
    pub elapsed_ns: f64,
    /// Charged accesses performed.
    pub accesses: u64,
    /// Cache lines touched by charged accesses (with re-touches; this is
    /// traffic, not a miss count).
    pub lines: u64,
    /// Hardware counter sample (cumulative in [`MemoryBackend::counters`]
    /// snapshots, interval in [`MemoryBackend::counters_since`] diffs)
    /// when a PMU group is attached and readable.
    pub pmu: Option<PmuSample>,
}

/// Real host memory behind the engine's backend interface.
#[derive(Debug)]
pub struct NativeBackend {
    data: Vec<u8>,
    next: Addr,
    t0: Instant,
    accesses: u64,
    lines: u64,
    wipe: Vec<u8>,
    /// Route dense bulk operations through the vectorized kernels of
    /// [`crate::kernels`] (on by default). Off = the per-tuple scalar
    /// reference path, byte-identical in results and counters.
    use_kernels: bool,
    /// N-ahead software-prefetch distance advertised to operators.
    prefetch_dist: u64,
    /// Hardware counter group, when [`NativeBackend::attach_pmu`]
    /// succeeded on this thread. Enabled for its whole lifetime;
    /// snapshots read cumulative values and diffs scope them.
    pmu: Option<PmuGroup>,
}

impl Default for NativeBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl NativeBackend {
    /// A fresh native address space (grows on demand), with the
    /// vectorized kernel path enabled and the fallback prefetch
    /// distance ([`kernels::DEFAULT_PREFETCH_DISTANCE`]).
    pub fn new() -> NativeBackend {
        NativeBackend {
            data: Vec::new(),
            next: NATIVE_BASE,
            t0: Instant::now(),
            accesses: 0,
            lines: 0,
            wipe: Vec::new(),
            use_kernels: true,
            prefetch_dist: kernels::DEFAULT_PREFETCH_DISTANCE,
            pmu: None,
        }
    }

    /// Pre-reserve `bytes` of backing store so mid-measurement
    /// allocations do not pay a reallocation (they still pay the zeroing
    /// of their own pages — as any real allocator would).
    pub fn with_capacity(bytes: usize) -> NativeBackend {
        let mut b = NativeBackend::new();
        b.data.reserve(bytes);
        b
    }

    /// A backend pinned to the scalar reference path: bulk operations
    /// run the per-tuple trait defaults and no prefetch distance is
    /// advertised. This is the baseline of the `kernel_throughput`
    /// bench and of the kernel-identity tests — it executes exactly the
    /// loops the paper's Eq 6.1 assumes.
    pub fn scalar_reference() -> NativeBackend {
        let mut b = NativeBackend::new();
        b.use_kernels = false;
        b.prefetch_dist = 0;
        b
    }

    /// Enable or disable the vectorized kernel path (disabling also
    /// silences [`MemoryBackend::prefetch_distance`]).
    pub fn set_use_kernels(&mut self, on: bool) {
        self.use_kernels = on;
    }

    /// Whether the vectorized kernel path is active.
    pub fn kernels_enabled(&self) -> bool {
        self.use_kernels
    }

    /// Override the N-ahead prefetch distance (e.g. with a calibrated
    /// value from [`kernels::prefetch_distance_for`]).
    pub fn set_prefetch_distance(&mut self, items: u64) {
        self.prefetch_dist = items;
    }

    /// Total bytes allocated so far.
    pub fn allocated(&self) -> u64 {
        self.next - NATIVE_BASE
    }

    /// Attach the standard hardware counter group
    /// ([`gcm_obs::pmu::PMU_EVENTS`]) to **this thread** and start it
    /// counting; subsequent counter snapshots carry a [`PmuSample`]
    /// and [`MemoryBackend::counter_level_misses`] reports real
    /// per-level miss rows. Returns the attach outcome: on
    /// [`PmuStatus::Unavailable`] (paranoid kernel, no PMU in this
    /// VM, non-Linux platform) the backend simply stays in the
    /// wall-clock-only mode and the reason says why.
    pub fn attach_pmu(&mut self) -> PmuStatus {
        match PmuGroup::standard() {
            Ok(group) => {
                group.enable();
                self.pmu = Some(group);
                PmuStatus::Available
            }
            Err(status) => {
                self.pmu = None;
                status
            }
        }
    }

    /// Close the attached counter group (snapshots stop carrying PMU
    /// samples). A no-op when none is attached.
    pub fn detach_pmu(&mut self) {
        self.pmu = None;
    }

    /// Whether a hardware counter group is currently attached.
    pub fn pmu_attached(&self) -> bool {
        self.pmu.is_some()
    }

    #[inline]
    fn idx(&self, addr: Addr) -> usize {
        debug_assert!(addr >= NATIVE_BASE, "address {addr} below native base");
        (addr - NATIVE_BASE) as usize
    }

    /// One real 8-byte load per touched line, via the shared
    /// [`stride::sweep_fold`] walk (the very loop the calibrator times),
    /// black-boxed so the loads cannot be elided.
    #[inline]
    fn touch_lines(&mut self, addr: Addr, len: u64) {
        let first = (addr & !(NATIVE_LINE - 1)).max(NATIVE_BASE);
        let last = (addr + len - 1) & !(NATIVE_LINE - 1);
        let lo = self.idx(first);
        let hi = self.idx(last) + 8; // alloc pads a line past the end
        let (acc, steps) = stride::sweep_fold(&self.data[lo..hi], NATIVE_LINE as usize);
        black_box(acc);
        self.lines += steps;
        self.accesses += 1;
    }
}

impl MemoryBackend for NativeBackend {
    type Counters = NativeCounters;

    fn alloc(&mut self, bytes: u64, align: u64) -> Addr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let addr = (self.next + align - 1) & !(align - 1);
        self.next = addr + bytes;
        // Pad past the last line so per-line 8-byte reads stay in bounds.
        let needed = (self.next - NATIVE_BASE) as usize + NATIVE_LINE as usize;
        if self.data.len() < needed {
            self.data.resize(needed, 0);
        }
        addr
    }

    fn release_tail(&mut self, end: Addr) {
        assert!(
            (NATIVE_BASE..=self.next).contains(&end),
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

    fn line_align(&self) -> u64 {
        NATIVE_LINE
    }

    fn touch(&mut self, addr: Addr, len: u64) {
        if len == 0 {
            return;
        }
        self.touch_lines(addr, len);
    }

    fn read_u64(&mut self, addr: Addr) -> u64 {
        let i = self.idx(addr);
        self.accesses += 1;
        // An 8-byte access straddling a line boundary touches two lines.
        self.lines += stride::lines_touched(addr, 8, NATIVE_LINE);
        black_box(u64::from_le_bytes(
            self.data[i..i + 8].try_into().expect("8 bytes"),
        ))
    }

    fn write_u64(&mut self, addr: Addr, v: u64) {
        let i = self.idx(addr);
        self.accesses += 1;
        self.lines += stride::lines_touched(addr, 8, NATIVE_LINE);
        self.data[i..i + 8].copy_from_slice(&v.to_le_bytes());
    }

    fn prefetch_read(&mut self, addr: Addr) {
        if addr >= NATIVE_BASE {
            let i = (addr - NATIVE_BASE) as usize;
            if i < self.data.len() {
                stride::prefetch_read(self.data.as_ptr().wrapping_add(i));
            }
        }
    }

    fn prefetch_write(&mut self, addr: Addr) {
        if addr >= NATIVE_BASE {
            let i = (addr - NATIVE_BASE) as usize;
            if i < self.data.len() {
                stride::prefetch_write(self.data.as_ptr().wrapping_add(i));
            }
        }
    }

    fn prefetch_distance(&self) -> u64 {
        if self.use_kernels {
            self.prefetch_dist
        } else {
            0
        }
    }

    /// Dense scans (`w == u == 8`, word-aligned) run the SIMD sweep of
    /// [`kernels::sum_words`]; everything else runs the per-tuple
    /// reference loop with an N-ahead read prefetch. Both paths charge
    /// exactly what the trait default would: one access per tuple, and
    /// the lines each touch spans (an aligned 8-byte read never
    /// straddles, so the dense path is one line per tuple).
    fn scan_sum_bulk(&mut self, base: Addr, n: u64, w: u64, u: u64) -> u64 {
        if self.use_kernels && w == 8 && u == 8 && base.is_multiple_of(8) && n > 0 {
            let lo = self.idx(base);
            let hi = lo + (n * 8) as usize;
            let sum = kernels::sum_words(&self.data[lo..hi]);
            self.accesses += n;
            self.lines += n;
            return sum;
        }
        let dist = self.prefetch_distance();
        let mut sum = 0u64;
        for i in 0..n {
            if dist > 0 && i + dist < n {
                self.prefetch_read(base + (i + dist) * w);
            }
            let addr = base + i * w;
            self.touch(addr, u);
            sum = sum.wrapping_add(self.host_read_u64(addr));
        }
        sum
    }

    /// Dense selections (`w == dst_w == 8`, word-aligned) evaluate the
    /// predicate with the SIMD comparator [`kernels::lt_mask`] over
    /// 64-key blocks and copy qualifying keys from the mask bits; other
    /// shapes run the reference loop with read prefetch. Accounting
    /// matches the trait default: one access/line per tuple touched,
    /// two accesses/lines per hit copied (aligned 8-byte transfers).
    fn select_lt_bulk(
        &mut self,
        src: Addr,
        n: u64,
        w: u64,
        threshold: u64,
        dst: Addr,
        dst_w: u64,
    ) -> u64 {
        if self.use_kernels
            && w == 8
            && dst_w == 8
            && src.is_multiple_of(8)
            && dst.is_multiple_of(8)
        {
            let mut hits = 0u64;
            let mut i = 0u64;
            while i < n {
                let chunk = (n - i).min(64);
                let s = self.idx(src + i * 8);
                let mut m = kernels::lt_mask(&self.data[s..s + (chunk * 8) as usize], threshold);
                while m != 0 {
                    let j = m.trailing_zeros() as u64;
                    let from = s + (j * 8) as usize;
                    let to = self.idx(dst + hits * 8);
                    self.data.copy_within(from..from + 8, to);
                    hits += 1;
                    m &= m - 1;
                }
                i += chunk;
            }
            self.accesses += n + 2 * hits;
            self.lines += n + 2 * hits;
            return hits;
        }
        let dist = self.prefetch_distance();
        let cw = w.min(dst_w);
        let mut hits = 0u64;
        for i in 0..n {
            if dist > 0 && i + dist < n {
                self.prefetch_read(src + (i + dist) * w);
            }
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

    /// Dense scatters (`w == 8`, word-aligned) run a raw copy loop with
    /// an N-ahead write prefetch of the destination cursor of the tuple
    /// `dist` ahead — the open-buffer stores are the partition pattern's
    /// random component, so hiding their miss is the whole game; other
    /// shapes run the reference loop. Accounting matches the trait
    /// default: one access/line touching each input tuple, two
    /// accesses/lines per charged copy (aligned 8-byte transfers).
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
        if self.use_kernels && w == 8 && src.is_multiple_of(8) && dst.is_multiple_of(8) {
            let dist = self.prefetch_dist as usize;
            let s0 = self.idx(src);
            let d0 = self.idx(dst);
            for i in 0..n as usize {
                if dist > 0 && i + dist < n as usize {
                    let ba = buckets[i + dist] as usize;
                    let di = d0 + cursors[ba] as usize * 8;
                    if di < self.data.len() {
                        stride::prefetch_write(self.data.as_ptr().wrapping_add(di));
                    }
                }
                let b = buckets[i] as usize;
                let to = d0 + cursors[b] as usize * 8;
                self.data.copy_within(s0 + i * 8..s0 + i * 8 + 8, to);
                cursors[b] += 1;
            }
            self.accesses += 3 * n;
            self.lines += 3 * n;
            return;
        }
        for i in 0..n {
            let from = src + i * w;
            self.touch(from, w);
            let b = buckets[i as usize] as usize;
            self.copy(from, dst + cursors[b] * w, w);
            cursors[b] += 1;
        }
    }

    fn copy(&mut self, src: Addr, dst: Addr, len: u64) {
        let s = self.idx(src);
        let d = self.idx(dst);
        self.data.copy_within(s..s + len as usize, d);
        self.accesses += 2;
        self.lines += 2 * len.div_ceil(NATIVE_LINE).max(1);
    }

    fn swap(&mut self, a: Addr, b: Addr, w: u64) {
        if a == b {
            // A self-swap is a harmless no-op on the sim backend (its
            // default reads and rewrites the tuple); keep the backends
            // behaviourally identical.
            self.touch(a, w);
            self.touch(b, w);
            return;
        }
        let (ai, bi) = (self.idx(a), self.idx(b));
        let (lo, hi) = if ai < bi { (ai, bi) } else { (bi, ai) };
        assert!(lo + w as usize <= hi, "tuples overlap");
        let (front, back) = self.data.split_at_mut(hi);
        front[lo..lo + w as usize].swap_with_slice(&mut back[..w as usize]);
        self.accesses += 2;
        self.lines += 2 * w.div_ceil(NATIVE_LINE).max(1);
    }

    fn host_read_u64(&self, addr: Addr) -> u64 {
        let i = self.idx(addr);
        u64::from_le_bytes(self.data[i..i + 8].try_into().expect("8 bytes"))
    }

    fn host_write_u64(&mut self, addr: Addr, v: u64) {
        let i = self.idx(addr);
        self.data[i..i + 8].copy_from_slice(&v.to_le_bytes());
    }

    fn host_read_bytes(&self, addr: Addr, buf: &mut [u8]) {
        let i = self.idx(addr);
        buf.copy_from_slice(&self.data[i..i + buf.len()]);
    }

    fn host_write_bytes(&mut self, addr: Addr, buf: &[u8]) {
        let i = self.idx(addr);
        self.data[i..i + buf.len()].copy_from_slice(buf);
    }

    fn counters(&self) -> NativeCounters {
        NativeCounters {
            elapsed_ns: self.t0.elapsed().as_secs_f64() * 1e9,
            accesses: self.accesses,
            lines: self.lines,
            pmu: self.pmu.as_ref().and_then(|g| g.read()),
        }
    }

    fn counters_since(&self, earlier: &NativeCounters) -> NativeCounters {
        let now = self.counters();
        NativeCounters {
            elapsed_ns: now.elapsed_ns - earlier.elapsed_ns,
            accesses: now.accesses - earlier.accesses,
            lines: now.lines - earlier.lines,
            // A group attached mid-interval has no baseline: its full
            // cumulative reading IS the interval.
            pmu: match (now.pmu, earlier.pmu) {
                (Some(a), Some(b)) => Some(a.since(&b)),
                (Some(a), None) => Some(a),
                _ => None,
            },
        }
    }

    fn elapsed_ns(c: &NativeCounters) -> f64 {
        c.elapsed_ns
    }

    fn counter_accesses(c: &NativeCounters) -> Option<u64> {
        Some(c.accesses)
    }

    /// Real per-level miss rows from the attached PMU group — the
    /// hardware's answer to the question the sim backend answers
    /// exactly. Without an attached (and readable) group this is
    /// empty, which every consumer treats as "not observable".
    fn counter_level_misses(&self, c: &NativeCounters) -> Vec<(String, u64)> {
        match &c.pmu {
            Some(s) => s
                .level_misses()
                .iter()
                .map(|(name, misses)| (name.to_string(), *misses))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Documented no-op: real hardware does not expose *which access*
    /// missed at which level, so native memory cannot record a
    /// per-access miss trace (aggregate per-level counts are a
    /// different story — see [`NativeBackend::attach_pmu`]). Attach
    /// reports `false`, take yields `None`, and trace consumers fall
    /// back to wall-clock-only attribution.
    fn attach_miss_trace(&mut self, _capacity: usize) -> bool {
        false
    }

    /// The wall clock already includes every nanosecond of CPU work:
    /// charging `per_op_ns × ops` on top would double-count `T_cpu`, so
    /// native total time is the elapsed time alone.
    fn total_ns(c: &NativeCounters, _ops: u64, _per_op_ns: f64) -> f64 {
        c.elapsed_ns
    }

    /// Best-effort cold caches: stream a buffer larger than any LLC we
    /// expect, with writes, so the working set of the next measurement
    /// starts (mostly) evicted. Unlike the simulator's exact flush this
    /// is approximate — another reason native timing assertions use
    /// generous bounds.
    fn cold_caches(&mut self) {
        if self.wipe.is_empty() {
            self.wipe = vec![1u8; DEFAULT_WIPE_BYTES];
        }
        let mut acc = 0u64;
        for i in (0..self.wipe.len()).step_by(NATIVE_LINE as usize) {
            acc = acc.wrapping_add(self.wipe[i] as u64);
            self.wipe[i] = acc as u8;
        }
        black_box(acc);
    }
}

impl ExecContext<NativeBackend> {
    /// An execution context on the host's real memory.
    pub fn native() -> ExecContext<NativeBackend> {
        ExecContext::with_backend(NativeBackend::new())
    }

    /// A native context with `bytes` of backing store pre-reserved.
    pub fn native_with_capacity(bytes: usize) -> ExecContext<NativeBackend> {
        ExecContext::with_backend(NativeBackend::with_capacity(bytes))
    }

    /// A native context pinned to the scalar reference path
    /// ([`NativeBackend::scalar_reference`]): no SIMD kernels, no
    /// prefetch — the measured baseline the vectorized path is compared
    /// against.
    pub fn native_scalar() -> ExecContext<NativeBackend> {
        ExecContext::with_backend(NativeBackend::scalar_reference())
    }
}

/// Calibrate the native per-logical-op CPU charge the way the paper
/// calibrates `T_cpu` (§6.1): run an operator over an in-cache working
/// set, warm, and divide elapsed wall time by the logical ops performed.
/// Used to *predict* native totals from the cost model's `T_mem` plus
/// `per_op_ns × ops`.
///
/// The probe runs on the **scalar reference** path: a logical op is one
/// per-tuple pass through the charged operator glue, which is what
/// every non-kernelized operator (hash upserts, partition scatters,
/// probes) pays per op. Calibrating on the vectorized kernels instead
/// would divide a SIMD scan's wall time over the same op count and
/// underprice every per-tuple operator several-fold.
pub fn calibrate_per_op_ns() -> f64 {
    per_op_probe(ExecContext::native_scalar())
}

/// Kernel-path companion of [`calibrate_per_op_ns`]: the same in-cache
/// probe through the vectorized kernels. This is the per-op CPU charge
/// of the *fast path* — the value to combine with the overlap
/// extension of Eq 6.1 when predicting kernelized operators (a logical
/// op the scalar glue prices at several ns costs a fraction of one
/// inside a SIMD loop).
pub fn calibrate_kernel_per_op_ns() -> f64 {
    per_op_probe(ExecContext::native())
}

fn per_op_probe(mut ctx: ExecContext<NativeBackend>) -> f64 {
    let keys: Vec<u64> = (0..2048).collect();
    let rel = ctx.relation_from_keys("cal", &keys, 8);
    // Warm the (16 KB, L1/L2-resident) working set.
    crate::ops::scan::scan_sum(&mut ctx, &rel, 8);
    let (_, stats) = ctx.measure(|c| {
        let mut acc = 0u64;
        for _ in 0..64 {
            acc = acc.wrapping_add(crate::ops::scan::scan_sum(c, &rel, 8));
        }
        black_box(acc);
    });
    (NativeBackend::elapsed_ns(&stats.mem) / stats.ops.max(1) as f64).max(0.01)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use gcm_workload::Workload;

    #[test]
    fn native_roundtrip_and_alignment() {
        let mut m = NativeBackend::new();
        let a = MemoryBackend::alloc(&mut m, 100, 64);
        assert_eq!(a % 64, 0);
        assert_eq!(a, NATIVE_BASE);
        m.write_u64(a, 0xDEAD_BEEF);
        assert_eq!(MemoryBackend::read_u64(&mut m, a), 0xDEAD_BEEF);
        m.host_write_u64(a + 8, 7);
        assert_eq!(m.host_read_u64(a + 8), 7);
        let b = MemoryBackend::alloc(&mut m, 16, 8);
        MemoryBackend::copy(&mut m, a, b, 16);
        assert_eq!(m.host_read_u64(b), 0xDEAD_BEEF);
    }

    #[test]
    fn addresses_mirror_the_sim_arena() {
        use gcm_sim::Arena;
        let mut native = NativeBackend::new();
        let mut sim = Arena::new();
        for (bytes, align) in [(100, 64), (8, 8), (4096, 128), (1, 8)] {
            assert_eq!(
                MemoryBackend::alloc(&mut native, bytes, align),
                sim.alloc(bytes, align),
                "alloc({bytes}, {align})"
            );
        }
    }

    #[test]
    fn counters_advance_monotonically() {
        let mut m = NativeBackend::new();
        let a = MemoryBackend::alloc(&mut m, 4096, 64);
        let before = m.counters();
        MemoryBackend::touch(&mut m, a, 4096);
        let d = m.counters_since(&before);
        assert_eq!(d.lines, 64);
        assert_eq!(d.accesses, 1);
        assert!(d.elapsed_ns >= 0.0);
    }

    #[test]
    fn native_context_runs_real_operators() {
        let mut ctx = ExecContext::native();
        let keys = Workload::new(9).shuffled_keys(1000);
        let rel = ctx.relation_from_keys("U", &keys, 8);
        let (sum, stats) = ctx.measure(|c| ops::scan::scan_sum(c, &rel, 8));
        assert_eq!(sum, (0..1000).sum::<u64>());
        assert_eq!(stats.ops, 1000);
        assert!(stats.total_ns(4.0) > 0.0, "wall clock must advance");
        ops::sort::quick_sort(&mut ctx, &rel);
        for i in 0..1000 {
            assert_eq!(ctx.mem.host_read_u64(rel.tuple(i)), i);
        }
    }

    #[test]
    fn native_total_ns_is_wall_clock_only() {
        let c = NativeCounters {
            elapsed_ns: 500.0,
            accesses: 1,
            lines: 1,
            pmu: None,
        };
        assert_eq!(NativeBackend::total_ns(&c, 1_000_000, 100.0), 500.0);
    }

    #[test]
    fn swap_rejects_overlap_and_swaps_payload() {
        let mut ctx = ExecContext::native();
        let rel = ctx.relation_from_keys("R", &[1, 2], 16);
        ctx.mem.host_write_u64(rel.tuple(0) + 8, 111);
        ctx.swap_tuples(&rel, 0, 1);
        assert_eq!(ctx.mem.host_read_u64(rel.tuple(0)), 2);
        assert_eq!(ctx.mem.host_read_u64(rel.tuple(1)), 1);
        assert_eq!(ctx.mem.host_read_u64(rel.tuple(1) + 8), 111);
        // Self-swap: a no-op on both backends, never a panic.
        ctx.swap_tuples(&rel, 1, 1);
        assert_eq!(ctx.mem.host_read_u64(rel.tuple(1)), 1);
    }

    #[test]
    fn per_op_calibration_is_positive_and_small() {
        let per_op = calibrate_per_op_ns();
        // An in-cache logical op costs somewhere between a fraction of a
        // ns and (on a wildly loaded CI box) a few hundred ns.
        assert!(per_op > 0.0 && per_op < 1000.0, "per_op = {per_op}");
    }

    #[test]
    fn straddling_word_access_counts_both_lines() {
        // Regression: an 8-byte access crossing a 64-B boundary used to
        // be charged one line. 4 bytes into the last word of a line it
        // spans two.
        let mut m = NativeBackend::new();
        let a = MemoryBackend::alloc(&mut m, 128, 64);
        m.host_write_u64(a + 60, 99);
        let before = m.counters();
        assert_eq!(MemoryBackend::read_u64(&mut m, a + 60), 99);
        let d = m.counters_since(&before);
        assert_eq!((d.accesses, d.lines), (1, 2));
        let before = m.counters();
        MemoryBackend::write_u64(&mut m, a + 60, 7);
        let d = m.counters_since(&before);
        assert_eq!((d.accesses, d.lines), (1, 2));
        // Aligned and in-line accesses still count one line.
        for off in [0, 8, 56] {
            let before = m.counters();
            MemoryBackend::read_u64(&mut m, a + off);
            assert_eq!(m.counters_since(&before).lines, 1, "offset {off}");
        }
    }

    #[test]
    fn prefetch_hints_are_uncharged_and_safe() {
        let mut m = NativeBackend::new();
        let a = MemoryBackend::alloc(&mut m, 256, 64);
        assert!(m.prefetch_distance() > 0);
        let before = m.counters();
        m.prefetch_read(a);
        m.prefetch_write(a + 64);
        // Out-of-slab and below-base addresses must be harmless no-ops.
        m.prefetch_read(a + (1 << 30));
        m.prefetch_write(0);
        let d = m.counters_since(&before);
        assert_eq!((d.accesses, d.lines), (0, 0));
        // The scalar reference advertises no distance.
        assert_eq!(NativeBackend::scalar_reference().prefetch_distance(), 0);
        m.set_use_kernels(false);
        assert_eq!(m.prefetch_distance(), 0);
        m.set_use_kernels(true);
        m.set_prefetch_distance(16);
        assert_eq!(m.prefetch_distance(), 16);
    }

    #[test]
    fn bulk_kernels_match_the_scalar_reference_exactly() {
        // Same relation on a kernel backend and a scalar-reference
        // backend: identical sums, hits, output bytes, AND identical
        // access/line accounting.
        let keys: Vec<u64> = (0..1000u64).map(|i| i.wrapping_mul(0x9E37)).collect();
        let run = |mem: &mut NativeBackend| {
            let src = MemoryBackend::alloc(mem, 1000 * 8, 64);
            let dst = MemoryBackend::alloc(mem, 1000 * 8, 64);
            for (i, k) in keys.iter().enumerate() {
                mem.host_write_u64(src + (i as u64) * 8, *k);
            }
            let c0 = mem.counters();
            let sum = mem.scan_sum_bulk(src, 1000, 8, 8);
            let hits = mem.select_lt_bulk(src, 1000, 8, 0x9E37 * 500, dst, 8);
            let d = mem.counters_since(&c0);
            let mut out = vec![0u8; (hits * 8) as usize];
            mem.host_read_bytes(dst, &mut out);
            (sum, hits, out, d.accesses, d.lines)
        };
        let kernel = run(&mut NativeBackend::new());
        let scalar = run(&mut NativeBackend::scalar_reference());
        assert_eq!(kernel, scalar);
        assert!(kernel.1 > 0, "the filter must select something");
        // Non-dense widths route both backends down the same strided
        // loop and still agree.
        let run_wide = |mem: &mut NativeBackend| {
            let src = MemoryBackend::alloc(mem, 100 * 32, 64);
            for i in 0..100u64 {
                mem.host_write_u64(src + i * 32, i * 3);
            }
            let c0 = mem.counters();
            let sum = mem.scan_sum_bulk(src, 100, 32, 16);
            let d = mem.counters_since(&c0);
            (sum, d.accesses, d.lines)
        };
        assert_eq!(
            run_wide(&mut NativeBackend::new()),
            run_wide(&mut NativeBackend::scalar_reference())
        );
    }

    #[test]
    fn pmu_attach_is_honest_about_availability() {
        let mut m = NativeBackend::new();
        assert!(!m.pmu_attached());
        // Without a group, snapshots carry no PMU block and per-level
        // misses are "not observable" (empty), never zero rows.
        let c = m.counters();
        assert_eq!(c.pmu, None);
        assert!(m.counter_level_misses(&c).is_empty());
        match m.attach_pmu() {
            PmuStatus::Available => {
                assert!(m.pmu_attached());
                let before = m.counters();
                assert!(before.pmu.is_some());
                let a = MemoryBackend::alloc(&mut m, 1 << 20, 64);
                MemoryBackend::touch(&mut m, a, 1 << 20);
                let d = m.counters_since(&before);
                let rows = m.counter_level_misses(&d);
                let names: Vec<&str> = rows.iter().map(|(n, _)| n.as_str()).collect();
                assert_eq!(names, ["L1d", "LLC", "dTLB"]);
                m.detach_pmu();
                assert_eq!(m.counters().pmu, None);
            }
            PmuStatus::Unavailable { reason } => {
                eprintln!(
                    "SKIPPED pmu_attach_is_honest_about_availability: pmu unavailable: {reason}"
                );
                println!(
                    "SKIPPED pmu_attach_is_honest_about_availability: pmu unavailable: {reason}"
                );
                assert!(!m.pmu_attached());
                assert_eq!(m.counters().pmu, None);
            }
        }
    }

    #[test]
    fn counters_since_adopts_a_mid_interval_pmu_attach() {
        // Synthetic check of the diff rule: (Some, None) keeps the
        // cumulative sample as the interval.
        let sample = gcm_obs::pmu::PmuSample {
            l1d_miss: 7,
            ..Default::default()
        };
        let before = NativeCounters {
            elapsed_ns: 0.0,
            accesses: 0,
            lines: 0,
            pmu: None,
        };
        let now = NativeCounters {
            elapsed_ns: 10.0,
            accesses: 1,
            lines: 1,
            pmu: Some(sample),
        };
        // Reuse the same arithmetic counters_since applies.
        let d_pmu = match (now.pmu, before.pmu) {
            (Some(a), Some(b)) => Some(a.since(&b)),
            (Some(a), None) => Some(a),
            _ => None,
        };
        assert_eq!(d_pmu.unwrap().l1d_miss, 7);
    }

    #[test]
    fn cold_caches_is_callable_and_preserves_data() {
        let mut ctx = ExecContext::native();
        let rel = ctx.relation_from_keys("R", &[42], 8);
        ctx.cold_caches();
        assert_eq!(ctx.mem.host_read_u64(rel.tuple(0)), 42);
    }
}
