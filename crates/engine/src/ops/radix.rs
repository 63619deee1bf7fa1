//! Multi-pass radix partitioning — the `[MBK00a]` answer to the
//! Figure-7d cliff.
//!
//! Single-pass partitioning thrashes once the fan-out `m` exceeds a
//! level's line/entry count (`nest` with `m > #`, §4.7). Radix
//! clustering reaches a large total fan-out `2^bits` in `p` passes of
//! fan-out `2^(bits/p)` each: every pass keeps its open-line working set
//! below the cliffs, at the price of re-reading the data once per pass.
//! The cost model prices exactly that trade-off:
//!
//! ```text
//! radix(U, bits, p) = ⊕_{i=1}^{p} ( s_trav(U) ⊙ nest(W, 2^{bits/p}, s_trav, rnd) )
//! ```
//!
//! Each pass sizes its sub-clusters with a host-side histogram before
//! the scatter. That counting is real radix-cluster work, not a
//! cardinality oracle, yet the pattern above does not price it; charging
//! it is what remains of the single-pass operator work listed in
//! ROADMAP.md (see [`crate::ops::partition`]).

use crate::backend::MemoryBackend;
use crate::ctx::ExecContext;
use crate::ops::mix;
use crate::ops::partition::Partitioned;
use crate::relation::Relation;
use gcm_core::{library, Pattern, Region};

/// The radix "digit" of a key for a pass covering `bits` bits ending
/// `shift` bits from the top of the mixed key.
#[inline]
fn digit(key: u64, shift: u32, bits: u32) -> u64 {
    (mix(key) << shift) >> (64 - bits)
}

/// Radix-partition `input` into `2^bits` clusters using `passes` passes
/// of (roughly) equal per-pass fan-out. `passes = 1` degenerates to
/// plain hash partitioning on the top `bits` bits.
///
/// Returns the fully clustered output; cluster `j` holds the tuples
/// whose top `bits` mixed-key bits equal `j`.
pub fn radix_partition<B: MemoryBackend>(
    ctx: &mut ExecContext<B>,
    input: &Relation,
    bits: u32,
    passes: u32,
    out_name: &str,
) -> Partitioned {
    assert!((1..=32).contains(&bits), "1..=32 radix bits");
    assert!(passes >= 1 && passes <= bits, "1..=bits passes");
    let n = input.n();
    let w = input.w();

    // Per-pass bit widths (earlier passes take the larger share).
    let base = bits / passes;
    let extra = bits % passes;
    let pass_bits: Vec<u32> = (0..passes).map(|p| base + u32::from(p < extra)).collect();

    // Ping-pong buffers. The first pass reads `input`; later passes read
    // the previous output. Cluster boundaries refine every pass.
    let mut src = input.clone();
    let mut bounds: Vec<u64> = vec![0, n]; // current cluster boundaries
    let mut done_bits = 0u32;
    let mut out = input.clone(); // replaced in the first pass
    for (p, &pb) in pass_bits.iter().enumerate() {
        let fanout = 1u64 << pb;
        out = ctx
            .relation(&format!("{out_name}.p{p}"), n, w)
            .with_key_bound(input.key_bound());
        let mut new_bounds = Vec::with_capacity((bounds.len() - 1) * fanout as usize + 1);
        new_bounds.push(0);
        // Process each existing cluster independently: its tuples are
        // scattered over `fanout` sub-clusters. Only `fanout` output
        // cursors are ever open at once — that is the whole trick.
        for c in 0..bounds.len() - 1 {
            let (lo, hi) = (bounds[c], bounds[c + 1]);
            // Host-side histogram per cluster: a real step of radix
            // clustering that stays uncharged, as in ops::partition
            // (its module docs say why).
            let mut counts = vec![0u64; fanout as usize];
            for i in lo..hi {
                let key = ctx.mem.host_read_u64(src.tuple(i));
                counts[digit(key, done_bits, pb) as usize] += 1;
            }
            let mut cursors = Vec::with_capacity(fanout as usize);
            let mut acc = lo;
            for &cnt in &counts {
                cursors.push(acc);
                acc += cnt;
                new_bounds.push(acc);
            }
            // Scatter, software-prefetching the destination cursor of
            // the tuple N ahead for write: with a large open fan-out
            // the scattered stores are the cache-hostile part, and the
            // hint is computed from the same digit function the scatter
            // itself uses (uncharged; distance 0 on the simulator).
            let dist = ctx.mem.prefetch_distance();
            for i in lo..hi {
                if dist > 0 && i + dist < hi {
                    let ahead = ctx.mem.host_read_u64(src.tuple(i + dist));
                    let da = digit(ahead, done_bits, pb) as usize;
                    ctx.mem.prefetch_write(out.tuple(cursors[da]));
                }
                let key = ctx.read_tuple(&src, i);
                ctx.count_ops(1);
                let d = digit(key, done_bits, pb) as usize;
                let dst = cursors[d];
                cursors[d] += 1;
                ctx.copy_tuple(&src, i, &out, dst);
            }
        }
        bounds = new_bounds;
        done_bits += pb;
        src = out.clone();
    }
    Partitioned {
        rel: out,
        offsets: bounds,
    }
}

/// Pattern of [`radix_partition`]: one `s_trav ⊙ nest` phase per pass,
/// each with only the per-pass fan-out open.
pub fn radix_partition_pattern(input: &Region, output: &Region, bits: u32, passes: u32) -> Pattern {
    let base = bits / passes;
    let extra = bits % passes;
    let phases = (0..passes)
        .map(|p| {
            let pb = base + u32::from(p < extra);
            library::partition(input.clone(), output.clone(), 1u64 << pb)
        })
        .collect();
    Pattern::seq(phases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcm_hardware::presets;
    use gcm_workload::Workload;

    fn ctx() -> ExecContext {
        ExecContext::new(presets::tiny())
    }

    #[test]
    fn clusters_are_digit_homogeneous() {
        let mut c = ctx();
        let keys = Workload::new(1).shuffled_keys(2000);
        let input = c.relation_from_keys("U", &keys, 8);
        let bits = 6;
        let parts = radix_partition(&mut c, &input, bits, 2, "R");
        assert_eq!(parts.m(), 64);
        for j in 0..parts.m() {
            let p = parts.part(j);
            for i in 0..p.n() {
                let k = c.mem.host().read_u64(p.tuple(i));
                assert_eq!(digit(k, 0, bits), j, "tuple in wrong cluster");
            }
        }
    }

    #[test]
    fn multiset_preserved_across_passes() {
        let mut c = ctx();
        let keys = Workload::new(2).shuffled_keys(1500);
        let input = c.relation_from_keys("U", &keys, 8);
        let parts = radix_partition(&mut c, &input, 8, 3, "R");
        let mut got: Vec<u64> = (0..1500)
            .map(|i| c.mem.host().read_u64(parts.rel.tuple(i)))
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..1500).collect::<Vec<u64>>());
    }

    #[test]
    fn one_pass_matches_hash_partition_semantics() {
        let mut c = ctx();
        let keys = Workload::new(3).shuffled_keys(500);
        let input = c.relation_from_keys("U", &keys, 8);
        let parts = radix_partition(&mut c, &input, 4, 1, "R");
        assert_eq!(parts.m(), 16);
        assert_eq!(*parts.offsets.last().unwrap(), 500);
    }

    #[test]
    fn two_passes_beat_one_pass_past_the_cliff() {
        // tiny TLB: 8 entries; L1: 64 lines. A 4096-way single pass is
        // far past both cliffs; 2 passes of 64 stay under the L1 cliff.
        let run = |passes: u32| {
            let mut c = ctx();
            let keys = Workload::new(4).shuffled_keys(16_384);
            let input = c.relation_from_keys("U", &keys, 8);
            c.cold_caches();
            let (_, stats) = c.measure(|c| {
                radix_partition(c, &input, 12, passes, "R");
            });
            stats.mem.clock_ns
        };
        let single = run(1);
        let multi = run(2);
        assert!(
            multi < single,
            "2-pass radix must beat 1-pass 4096-way: {multi} vs {single}"
        );
    }

    #[test]
    fn model_prices_the_same_tradeoff() {
        // The pattern description reproduces the measured preference.
        let model = gcm_core::CostModel::new(presets::tiny());
        let u = Region::new("U", 16_384, 8);
        let w = Region::new("W", 16_384, 8);
        let single = model.mem_ns(&radix_partition_pattern(&u, &w, 12, 1));
        let multi = model.mem_ns(&radix_partition_pattern(&u, &w, 12, 2));
        assert!(multi < single, "model: {multi} vs {single}");
    }

    #[test]
    fn pattern_renders_passes() {
        let u = Region::new("U", 1000, 8);
        let w = Region::new("W", 1000, 8);
        let p = radix_partition_pattern(&u, &w, 8, 2);
        let s = p.to_string();
        assert_eq!(s.matches("nest").count(), 2);
        assert!(s.contains("nest(W, 16"));
    }

    #[test]
    fn uneven_bit_split() {
        let mut c = ctx();
        let keys = Workload::new(5).shuffled_keys(400);
        let input = c.relation_from_keys("U", &keys, 8);
        // 7 bits over 2 passes: 4 + 3.
        let parts = radix_partition(&mut c, &input, 7, 2, "R");
        assert_eq!(parts.m(), 128);
    }
}
