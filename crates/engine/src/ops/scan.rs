//! Table scan, selection and projection: the purely sequential unary
//! operators (paper §3.2).

use crate::backend::MemoryBackend;
use crate::ctx::ExecContext;
use crate::relation::{Relation, KEY_BYTES};
use gcm_core::{library, Pattern, Region};

/// Scan the relation and sum the keys, touching `u` bytes of each tuple
/// (`u = 8` reads just the key; `u = rel.w()` reads whole tuples).
///
/// Routed through [`MemoryBackend::scan_sum_bulk`]: the simulator's
/// default replays the historical per-tuple charged loop bit-for-bit,
/// while the native backend substitutes a SIMD sweep for the dense
/// key-only case. Logical ops: one per tuple, on every backend.
pub fn scan_sum<B: MemoryBackend>(ctx: &mut ExecContext<B>, rel: &Relation, u: u64) -> u64 {
    let u = u.clamp(KEY_BYTES, rel.w());
    let sum = ctx.mem.scan_sum_bulk(rel.base(), rel.n(), rel.w(), u);
    ctx.count_ops(rel.n());
    sum
}

/// Pattern of [`scan_sum`]: `s_trav(U, u)`, with `u` clamped to the
/// *same* `[8, w]` range the executor enforces (it must read the 8-byte
/// key of every tuple, so `u < 8` still touches 8 bytes) — model and
/// executor can never disagree on the touched width.
pub fn scan_pattern(input: &Region, u: u64) -> Pattern {
    let lo = KEY_BYTES.min(input.w.max(1));
    Pattern::s_trav_u(input.clone(), u.clamp(lo, input.w.max(lo)))
}

/// Input tuples [`select_lt`] filters per step of its output
/// reservation.
const SELECT_CHUNK: u64 = 1 << 14;

/// Select tuples with `key < threshold` into a fresh output relation,
/// in one charged pass over chunks of the input. Before each chunk the
/// output, the most recent allocation, grows in place to hold the chunk
/// if every tuple qualified ([`ExecContext::grow_output`]); after the
/// last, the unwritten tail is released ([`ExecContext::finish_output`]).
/// The reservation so never exceeds the output by more than one chunk,
/// and later allocations land where an exact-size output would have put
/// them. The output's key bound is `min(bound, threshold)`.
pub fn select_lt<B: MemoryBackend>(
    ctx: &mut ExecContext<B>,
    rel: &Relation,
    threshold: u64,
    out_name: &str,
) -> Relation {
    let w = rel.w();
    let mut out = ctx
        .relation(out_name, rel.n().min(SELECT_CHUNK), w)
        .with_key_bound(rel.key_bound().min(threshold));
    let mut hits = 0u64;
    let mut i = 0u64;
    while i < rel.n() {
        let len = (rel.n() - i).min(SELECT_CHUNK);
        if hits + len > out.n() {
            out = ctx.grow_output(&out, hits + len);
        }
        // The backend's bulk filter: the default is the per-tuple
        // touch-then-copy loop; the native backend vectorizes the
        // predicate. Chunks are multiples of its 64-key blocks.
        hits += ctx
            .mem
            .select_lt_bulk(rel.tuple(i), len, w, threshold, out.base() + hits * w, w);
        i += len;
    }
    // Logical ops: one per input tuple.
    ctx.count_ops(rel.n());
    ctx.finish_output(&out, hits)
}

/// Pattern of [`select_lt`]: `s_trav(U) ⊙ s_trav(W)`.
pub fn select_pattern(input: &Region, output: &Region) -> Pattern {
    library::select(input.clone(), output.clone())
}

/// Project the first `u` bytes of every tuple into an output relation of
/// width `u`.
pub fn project<B: MemoryBackend>(
    ctx: &mut ExecContext<B>,
    rel: &Relation,
    u: u64,
    out_name: &str,
) -> Relation {
    assert!((8..=rel.w()).contains(&u), "projection width must be 8..=w");
    let out = ctx
        .relation(out_name, rel.n(), u)
        .with_key_bound(rel.key_bound());
    for i in 0..rel.n() {
        let src = rel.tuple(i);
        ctx.mem.touch(src, u);
        let dst = out.tuple(i);
        ctx.mem.touch(dst, u);
        let key = ctx.mem.host_read_u64(src);
        ctx.mem.host_write_u64(dst, key);
        ctx.count_ops(1);
    }
    out
}

/// Pattern of [`project`]: `s_trav(U, u) ⊙ s_trav(W)`.
pub fn project_pattern(input: &Region, u: u64, output: &Region) -> Pattern {
    library::project(input.clone(), u, output.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcm_hardware::presets;

    fn ctx() -> ExecContext {
        ExecContext::new(presets::tiny())
    }

    #[test]
    fn scan_sums_keys() {
        let mut c = ctx();
        let rel = c.relation_from_keys("R", &[1, 2, 3, 4], 16);
        assert_eq!(scan_sum(&mut c, &rel, 8), 10);
        assert_eq!(c.ops(), 4);
    }

    #[test]
    fn scan_narrow_touch_misses_less() {
        // u = 8 on wide tuples must touch fewer lines than u = w.
        let mut c = ctx();
        let keys: Vec<u64> = (0..512).collect();
        let rel = c.relation_from_keys("R", &keys, 128);
        let (_, narrow) = c.measure(|c| {
            scan_sum(c, &rel, 8);
        });
        c.cold_caches();
        let (_, full) = c.measure(|c| {
            scan_sum(c, &rel, 128);
        });
        assert!(narrow.mem.total_misses() < full.mem.total_misses());
    }

    #[test]
    fn select_filters_correctly() {
        let mut c = ctx();
        let rel = c.relation_from_keys("R", &[5, 1, 9, 3, 7], 16);
        let out = select_lt(&mut c, &rel, 6, "W");
        assert_eq!(out.n(), 3);
        let got: Vec<u64> = (0..3)
            .map(|i| c.mem.host().read_u64(out.tuple(i)))
            .collect();
        assert_eq!(got, [5, 1, 3]);
    }

    #[test]
    fn select_empty_result() {
        let mut c = ctx();
        let rel = c.relation_from_keys("R", &[5, 6], 16);
        let out = select_lt(&mut c, &rel, 0, "W");
        assert_eq!(out.n(), 0);
    }

    #[test]
    fn project_copies_keys() {
        let mut c = ctx();
        let rel = c.relation_from_keys("R", &[4, 5, 6], 32);
        let out = project(&mut c, &rel, 8, "P");
        assert_eq!(out.w(), 8);
        for i in 0..3 {
            assert_eq!(c.mem.host().read_u64(out.tuple(i)), 4 + i);
        }
    }

    #[test]
    fn pattern_clamp_matches_executor_clamp() {
        // Regression: the executor reads at least the 8-byte key per
        // tuple, so the model must price u < 8 as u = 8 — previously it
        // clamped to [1, w] and under-predicted narrow scans.
        let r = Region::new("R", 1024, 128);
        for u in [0u64, 1, 4, 7] {
            assert_eq!(
                scan_pattern(&r, u).to_string(),
                scan_pattern(&r, 8).to_string(),
                "u = {u} must price like u = 8"
            );
        }
        // In range and above-w clamps are unchanged.
        assert_eq!(scan_pattern(&r, 64).to_string(), "s_trav(R, u=64)");
        // Clamped to u = w, which renders as a plain full-width s_trav.
        assert_eq!(scan_pattern(&r, 4096).to_string(), "s_trav(R)");
    }

    #[test]
    fn patterns_render() {
        let mut c = ctx();
        let rel = c.relation_from_keys("R", &[1, 2], 16);
        assert_eq!(scan_pattern(rel.region(), 8).to_string(), "s_trav(R, u=8)");
        let out = c.relation("W", 2, 16);
        assert!(select_pattern(rel.region(), out.region())
            .to_string()
            .contains("⊙"));
    }
}
