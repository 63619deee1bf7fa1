//! Execution context: the engine's handle on a machine's memory.
//!
//! [`ExecContext`] wraps any [`MemoryBackend`] — the simulated hierarchy
//! ([`SimBackend`], the default) or the host's real memory
//! ([`NativeBackend`](crate::native::NativeBackend)) — and counts
//! *logical CPU operations* (comparisons, swaps, hash computations,
//! tuple moves). The paper's Eq 6.1 splits total time into
//! `T_mem + T_cpu` with `T_cpu` calibrated per algorithm in an in-cache
//! setting; the measured analogue is the backend's elapsed time plus
//! `per_op_ns × ops` (on native memory the wall clock already contains
//! `T_cpu`, see [`MemoryBackend::total_ns`]).

use crate::backend::{MemoryBackend, SimBackend};
use crate::relation::Relation;
use gcm_hardware::HardwareSpec;
use gcm_sim::MemorySystem;

/// Measured counters of one operator run on backend `B`.
pub struct RunStats<B: MemoryBackend = SimBackend> {
    /// Backend interval counters: per-level misses and charged memory
    /// nanoseconds on the simulator, wall-clock time on native memory.
    pub mem: B::Counters,
    /// Logical CPU operations performed.
    pub ops: u64,
}

impl<B: MemoryBackend> Clone for RunStats<B> {
    fn clone(&self) -> Self {
        RunStats {
            mem: self.mem.clone(),
            ops: self.ops,
        }
    }
}

impl<B: MemoryBackend> std::fmt::Debug for RunStats<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunStats")
            .field("mem", &self.mem)
            .field("ops", &self.ops)
            .finish()
    }
}

impl<B: MemoryBackend> RunStats<B> {
    /// Measured total time under a per-op CPU calibration (the
    /// engine-side Eq 6.1; wall-clock backends return elapsed time alone
    /// — see [`MemoryBackend::total_ns`]).
    pub fn total_ns(&self, per_op_ns: f64) -> f64 {
        B::total_ns(&self.mem, self.ops, per_op_ns)
    }

    /// Elapsed (charged or wall-clock) nanoseconds.
    pub fn elapsed_ns(&self) -> f64 {
        B::elapsed_ns(&self.mem)
    }
}

impl RunStats<SimBackend> {
    /// Misses at spec level `idx` (simulated runs only: native memory
    /// has no per-level counters).
    pub fn misses_at(&self, idx: usize) -> u64 {
        self.mem.levels[idx].seq_misses + self.mem.levels[idx].rand_misses
    }
}

/// The engine's execution environment over a pluggable memory backend.
#[derive(Debug)]
pub struct ExecContext<B: MemoryBackend = SimBackend> {
    /// The memory substrate (public: operators drive it directly).
    pub mem: B,
    ops: u64,
}

impl ExecContext<SimBackend> {
    /// A context on the given simulated machine.
    pub fn new(spec: HardwareSpec) -> ExecContext<SimBackend> {
        ExecContext::with_backend(MemorySystem::new(spec))
    }

    /// A simulated context with `[HS89]` miss classification enabled.
    pub fn with_classification(spec: HardwareSpec) -> ExecContext<SimBackend> {
        ExecContext::with_backend(MemorySystem::with_classification(spec))
    }
}

impl<B: MemoryBackend> ExecContext<B> {
    /// A context over an explicit backend (the generic constructor; see
    /// [`ExecContext::new`] for the simulator and
    /// [`ExecContext::native`](crate::native) for host memory).
    pub fn with_backend(mem: B) -> ExecContext<B> {
        ExecContext { mem, ops: 0 }
    }

    /// Allocate a zeroed relation of `n` tuples × `w` bytes, aligned to
    /// the largest cache line (so regions start line-aligned unless an
    /// experiment asks otherwise).
    pub fn relation(&mut self, name: &str, n: u64, w: u64) -> Relation {
        let align = self.mem.line_align();
        let base = self.mem.alloc((n * w).max(1), align);
        Relation::new(name, base, n, w)
    }

    /// Allocate a relation and fill its keys host-side (setup data does
    /// not perturb the simulator's counters; payload bytes stay zero).
    /// The copy also records the keys' exclusive upper bound `max + 1`
    /// ([`Relation::key_bound`]).
    pub fn relation_from_keys(&mut self, name: &str, keys: &[u64], w: u64) -> Relation {
        let rel = self.relation(name, keys.len() as u64, w);
        let mut bound = 0u64;
        for (i, &k) in keys.iter().enumerate() {
            self.mem.host_write_u64(rel.tuple(i as u64), k);
            bound = bound.max(k.saturating_add(1));
        }
        rel.with_key_bound(bound)
    }

    /// Grow `out` — an output reserved with [`ExecContext::relation`]
    /// and still the most recent allocation — in place to `n > out.n()`
    /// tuples. The extension is contiguous because nothing was
    /// allocated past it. Callers pick the growth step: the joins
    /// double, `select_lt` adds one input chunk at a time.
    pub fn grow_output(&mut self, out: &Relation, n: u64) -> Relation {
        assert!(n > out.n(), "growth must add tuples");
        let end = out.base() + out.bytes();
        // An empty reservation still holds one placeholder byte.
        self.mem.release_tail(end);
        let at = self.mem.alloc((n - out.n()) * out.w(), 1);
        assert_eq!(at, end, "only the most recent allocation grows in place");
        Relation::new(out.region().name(), out.base(), n, out.w()).with_key_bound(out.key_bound())
    }

    /// Cut `out` — a reservation that is still the most recent
    /// allocation — to its first `n` (written) tuples and give the
    /// unwritten tail back, so the next allocation lands exactly where
    /// it would have after an exact-size [`ExecContext::relation`].
    pub fn finish_output(&mut self, out: &Relation, n: u64) -> Relation {
        debug_assert!(n <= out.n(), "finished past the reservation");
        self.mem.release_tail(out.base() + (n * out.w()).max(1));
        Relation::new(out.region().name(), out.base(), n, out.w()).with_key_bound(out.key_bound())
    }

    /// Read a relation's full content host-side, as raw bytes — the
    /// result-equality surface: two backends executing the same plan must
    /// produce byte-identical relation contents.
    pub fn relation_bytes(&self, rel: &Relation) -> Vec<u8> {
        let mut buf = vec![0u8; rel.bytes() as usize];
        if !buf.is_empty() {
            self.mem.host_read_bytes(rel.base(), &mut buf);
        }
        buf
    }

    /// Read tuple `i`'s key (charged access).
    #[inline]
    pub fn read_key(&mut self, rel: &Relation, i: u64) -> u64 {
        self.mem.read_u64(rel.key_addr(i))
    }

    /// Write tuple `i`'s key (charged access).
    #[inline]
    pub fn write_key(&mut self, rel: &Relation, i: u64, key: u64) {
        self.mem.write_u64(rel.key_addr(i), key);
    }

    /// Touch tuple `i` entirely (charged read of all `w` bytes) and
    /// return its key.
    #[inline]
    pub fn read_tuple(&mut self, rel: &Relation, i: u64) -> u64 {
        let addr = rel.tuple(i);
        self.mem.touch(addr, rel.w());
        self.mem.host_read_u64(addr)
    }

    /// Write tuple `i` entirely (charged write of all `w` bytes), with
    /// the given key and zero payload.
    #[inline]
    pub fn write_tuple(&mut self, rel: &Relation, i: u64, key: u64) {
        let addr = rel.tuple(i);
        self.mem.touch(addr, rel.w());
        self.mem.host_write_u64(addr, key);
    }

    /// Copy tuple `src_i` of `src` to `dst_i` of `dst` (charged).
    pub fn copy_tuple(&mut self, src: &Relation, src_i: u64, dst: &Relation, dst_i: u64) {
        let n = src.w().min(dst.w());
        self.mem.copy(src.tuple(src_i), dst.tuple(dst_i), n);
    }

    /// Swap tuples `i` and `j` in place (charged read+write of both).
    pub fn swap_tuples(&mut self, rel: &Relation, i: u64, j: u64) {
        self.mem.swap(rel.tuple(i), rel.tuple(j), rel.w());
    }

    /// Count `k` logical CPU operations.
    #[inline]
    pub fn count_ops(&mut self, k: u64) {
        self.ops += k;
    }

    /// Logical CPU operations so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Run `f`, returning its result and the interval counters (backend
    /// counters and logical ops) it produced.
    pub fn measure<T>(&mut self, f: impl FnOnce(&mut ExecContext<B>) -> T) -> (T, RunStats<B>) {
        let before_mem = self.mem.counters();
        let before_ops = self.ops;
        let out = f(self);
        let stats = RunStats {
            mem: self.mem.counters_since(&before_mem),
            ops: self.ops - before_ops,
        };
        (out, stats)
    }

    /// Restore cold caches as well as the backend can (paper §4.5
    /// assumes initially empty caches before each experiment; the
    /// simulator flushes exactly, native memory sweeps an eviction
    /// buffer).
    pub fn cold_caches(&mut self) {
        self.mem.cold_caches();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcm_hardware::presets;
    use gcm_sim::Snapshot;

    fn ctx() -> ExecContext {
        ExecContext::new(presets::tiny())
    }

    #[test]
    fn relation_setup_does_not_charge() {
        let mut c = ctx();
        let keys: Vec<u64> = (0..100).collect();
        let rel = c.relation_from_keys("R", &keys, 16);
        assert_eq!(c.mem.clock_ns(), 0.0);
        assert_eq!(c.mem.host().read_u64(rel.tuple(7)), 7);
    }

    #[test]
    fn relation_from_keys_records_the_key_bound() {
        let mut c = ctx();
        assert_eq!(c.relation_from_keys("R", &[3, 9, 1], 8).key_bound(), 10);
        assert_eq!(c.relation_from_keys("E", &[], 8).key_bound(), 0);
    }

    #[test]
    fn reserved_output_grows_then_finishes_at_the_exact_tip() {
        let mut c = ctx();
        let out = c.relation("W", 2, 16);
        let out = c.grow_output(&out, 4);
        assert_eq!(out.n(), 4);
        c.mem.host_mut().write_u64(out.tuple(2), 5);
        let out = c.finish_output(&out, 3);
        assert_eq!(out.n(), 3);
        assert_eq!(c.mem.alloc(8, 8), out.base() + 48);
        // An empty reservation grows from its placeholder byte.
        let empty = c.relation("E", 0, 8);
        let grown = c.grow_output(&empty, 1);
        assert_eq!((grown.base(), grown.n()), (empty.base(), 1));
    }

    #[test]
    fn read_key_is_simulated() {
        let mut c = ctx();
        let rel = c.relation_from_keys("R", &[5, 6, 7], 16);
        assert_eq!(c.read_key(&rel, 2), 7);
        assert!(c.mem.clock_ns() > 0.0);
    }

    #[test]
    fn swap_tuples_swaps_whole_tuples() {
        let mut c = ctx();
        let rel = c.relation_from_keys("R", &[1, 2], 16);
        c.mem.host_mut().write_u64(rel.tuple(0) + 8, 111); // payload of t0
        c.swap_tuples(&rel, 0, 1);
        assert_eq!(c.mem.host().read_u64(rel.tuple(0)), 2);
        assert_eq!(c.mem.host().read_u64(rel.tuple(1)), 1);
        assert_eq!(c.mem.host().read_u64(rel.tuple(1) + 8), 111);
    }

    #[test]
    fn measure_isolates_intervals() {
        let mut c = ctx();
        let rel = c.relation_from_keys("R", &(0..64u64).collect::<Vec<_>>(), 8);
        let (_, warm) = c.measure(|c| {
            for i in 0..64 {
                c.read_key(&rel, i);
            }
            c.count_ops(64);
        });
        assert_eq!(warm.ops, 64);
        assert!(warm.mem.clock_ns > 0.0);
        // A second identical run hits the warm cache.
        let (_, rerun) = c.measure(|c| {
            for i in 0..64 {
                c.read_key(&rel, i);
            }
        });
        assert_eq!(rerun.mem.total_misses(), 0);
        assert_eq!(rerun.mem.clock_ns, 0.0);
        assert_eq!(rerun.elapsed_ns(), 0.0);
    }

    #[test]
    fn cold_caches_restores_misses() {
        let mut c = ctx();
        let rel = c.relation_from_keys("R", &[1, 2, 3], 8);
        c.read_key(&rel, 0);
        c.cold_caches();
        let (_, s) = c.measure(|c| {
            c.read_key(&rel, 0);
        });
        assert!(s.mem.total_misses() > 0);
    }

    #[test]
    fn run_stats_total_time() {
        let s: RunStats = RunStats {
            mem: Snapshot {
                levels: vec![],
                clock_ns: 100.0,
            },
            ops: 50,
        };
        assert!((s.total_ns(2.0) - 200.0).abs() < 1e-12);
        let s2 = s.clone();
        assert_eq!(s2.ops, 50);
        assert!(format!("{s2:?}").contains("RunStats"));
    }

    #[test]
    fn copy_tuple_moves_data() {
        let mut c = ctx();
        let a = c.relation_from_keys("A", &[42], 16);
        let b = c.relation("B", 1, 16);
        c.copy_tuple(&a, 0, &b, 0);
        assert_eq!(c.mem.host().read_u64(b.tuple(0)), 42);
    }

    #[test]
    fn relation_bytes_reads_whole_content() {
        let mut c = ctx();
        let rel = c.relation_from_keys("R", &[1, 2], 16);
        let bytes = c.relation_bytes(&rel);
        assert_eq!(bytes.len(), 32);
        assert_eq!(u64::from_le_bytes(bytes[0..8].try_into().unwrap()), 1);
        assert_eq!(u64::from_le_bytes(bytes[16..24].try_into().unwrap()), 2);
        let empty = c.relation("E", 0, 8);
        assert!(c.relation_bytes(&empty).is_empty());
    }
}
