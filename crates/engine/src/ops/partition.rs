//! Partitioning (paper §6.2, Figure 7d).
//!
//! The input is read sequentially; each tuple is appended to one of `m`
//! output buffers. Within each buffer writes are sequential; the buffer
//! *order* follows the hash of the keys, i.e. is random. That is exactly
//! the interleaved multi-cursor pattern:
//!
//! ```text
//! partition(U, m) = s_trav(U) ⊙ nest(W, m, s_trav, rnd)
//! ```
//!
//! The famous result this reproduces: the cost cliffs each time `m`
//! exceeds a level's line/entry count (TLB entries, then L1 lines, then
//! L2 lines), because every open output line gets evicted between two
//! writes to the same buffer.
//!
//! Buffer sizes come from a host-side counting pass before the
//! scatter. Unlike the sizing passes the other operators dropped, this
//! histogram is a real step of radix partitioning (MonetDB's radix
//! cluster runs it too), but it is still uncharged: the paper's §6.2
//! experiment models and measures the scatter alone, and we follow the
//! paper. Pricing the histogram re-prices the Figure 7d/7e
//! reproductions; it is what remains of the single-pass operator work
//! listed in ROADMAP.md.

use crate::backend::MemoryBackend;
use crate::ctx::ExecContext;
use crate::ops::mix;
use crate::relation::Relation;
use gcm_core::{library, Pattern, Region};

/// A partitioned relation: one dense output region holding the `m`
/// buffers back to back.
#[derive(Debug)]
pub struct Partitioned {
    /// The output region (all buffers, contiguous).
    pub rel: Relation,
    /// Partition boundaries: buffer `j` spans
    /// `offsets[j] .. offsets[j+1]` (tuple indices), `m + 1` entries.
    pub offsets: Vec<u64>,
}

impl Partitioned {
    /// Number of partitions.
    pub fn m(&self) -> u64 {
        (self.offsets.len() - 1) as u64
    }

    /// Partition `j` as a relation view (shares the output's region
    /// identity).
    pub fn part(&self, j: u64) -> Relation {
        let first = self.offsets[j as usize];
        let count = self.offsets[j as usize + 1] - first;
        self.rel.subrange(first, count)
    }
}

/// Bucket of a key for fan-out `m`.
#[inline]
pub fn bucket_of(key: u64, m: u64) -> u64 {
    // Use the high bits of the mixed key: independent from the low bits
    // the hash table uses, so partitioned hash-join sub-tables stay
    // uniform.
    ((mix(key) >> 32) * m) >> 32
}

/// Hash-partition `input` into `m` buffers.
pub fn hash_partition<B: MemoryBackend>(
    ctx: &mut ExecContext<B>,
    input: &Relation,
    m: u64,
    out_name: &str,
) -> Partitioned {
    assert!(m >= 1 && m <= u32::MAX as u64);
    // Host-side histogram (real, still uncharged — see the module
    // docs); the per-tuple bucket is remembered so the scatter need not
    // re-hash.
    let mut counts = vec![0u64; m as usize];
    let mut buckets = Vec::with_capacity(input.n() as usize);
    for i in 0..input.n() {
        let key = ctx.mem.host_read_u64(input.tuple(i));
        let b = bucket_of(key, m);
        counts[b as usize] += 1;
        buckets.push(b as u32);
    }
    let mut offsets = Vec::with_capacity(m as usize + 1);
    let mut acc = 0u64;
    offsets.push(0);
    for c in &counts {
        acc += c;
        offsets.push(acc);
    }

    let out = ctx
        .relation(out_name, input.n(), input.w())
        .with_key_bound(input.key_bound());
    let mut cursors: Vec<u64> = offsets[..m as usize].to_vec();
    // One logical op per tuple (the bucket decision); the scatter routes
    // through the backend's bulk entry point, where the native kernel
    // issues an N-ahead write prefetch of the destination cursor of the
    // future tuple — the open-buffer stores are the nest() pattern's
    // random component (uncharged hint; the simulator runs the
    // reference loop with identical accounting).
    if input.n() > 0 {
        ctx.count_ops(input.n());
        ctx.mem.partition_scatter_bulk(
            input.tuple(0),
            input.n(),
            input.w(),
            out.tuple(0),
            &buckets,
            &mut cursors,
        );
    }
    Partitioned { rel: out, offsets }
}

/// Pattern of [`hash_partition`]: `s_trav(U) ⊙ nest(W, m, s_trav, rnd)`.
pub fn partition_pattern(input: &Region, output: &Region, m: u64) -> Pattern {
    library::partition(input.clone(), output.clone(), m)
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
    fn partitions_preserve_multiset() {
        let mut c = ctx();
        let keys = Workload::new(8).shuffled_keys(1000);
        let input = c.relation_from_keys("U", &keys, 8);
        let parts = hash_partition(&mut c, &input, 7, "W");
        assert_eq!(parts.m(), 7);
        assert_eq!(*parts.offsets.last().unwrap(), 1000);
        let mut out_keys: Vec<u64> = (0..1000)
            .map(|i| c.mem.host().read_u64(parts.rel.tuple(i)))
            .collect();
        out_keys.sort_unstable();
        assert_eq!(out_keys, (0..1000).collect::<Vec<u64>>());
    }

    #[test]
    fn every_tuple_lands_in_its_bucket() {
        let mut c = ctx();
        let keys = Workload::new(9).shuffled_keys(500);
        let input = c.relation_from_keys("U", &keys, 8);
        let m = 5;
        let parts = hash_partition(&mut c, &input, m, "W");
        for j in 0..m {
            let p = parts.part(j);
            for i in 0..p.n() {
                let k = c.mem.host().read_u64(p.tuple(i));
                assert_eq!(bucket_of(k, m), j);
            }
        }
    }

    #[test]
    fn single_partition_is_a_copy() {
        let mut c = ctx();
        let keys = vec![5, 3, 8, 1];
        let input = c.relation_from_keys("U", &keys, 8);
        let parts = hash_partition(&mut c, &input, 1, "W");
        let got: Vec<u64> = (0..4)
            .map(|i| c.mem.host().read_u64(parts.rel.tuple(i)))
            .collect();
        assert_eq!(got, keys); // order preserved within the single bucket
    }

    #[test]
    fn buckets_are_reasonably_balanced() {
        let mut c = ctx();
        let keys = Workload::new(10).shuffled_keys(8000);
        let input = c.relation_from_keys("U", &keys, 8);
        let parts = hash_partition(&mut c, &input, 8, "W");
        for j in 0..8 {
            let size = parts.part(j).n();
            assert!((700..1300).contains(&size), "bucket {j} has {size}");
        }
    }

    #[test]
    fn fanout_cliff_in_tlb_misses() {
        // tiny TLB: 8 entries. m = 4 keeps all open pages mapped; m = 64
        // thrashes the TLB — the Figure 7d effect.
        let tlb_misses = |m: u64| {
            let mut c = ctx();
            let keys = Workload::new(11).shuffled_keys(16_384); // 128 KB
            let input = c.relation_from_keys("U", &keys, 8);
            c.cold_caches();
            let (_, stats) = c.measure(|c| {
                hash_partition(c, &input, m, "W");
            });
            let tlb = c.mem.spec().level_index("TLB").unwrap();
            stats.misses_at(tlb)
        };
        let low = tlb_misses(4);
        let high = tlb_misses(64);
        assert!(high > 3 * low, "TLB cliff: {low} -> {high}");
    }

    #[test]
    fn pattern_renders() {
        let mut c = ctx();
        let u = c.relation("U", 100, 8);
        let w = c.relation("W", 100, 8);
        assert_eq!(
            partition_pattern(u.region(), w.region(), 64).to_string(),
            "s_trav(U) ⊙ nest(W, 64, s_trav, rnd)"
        );
    }

    #[test]
    fn empty_input() {
        let mut c = ctx();
        let input = c.relation("U", 0, 8);
        let parts = hash_partition(&mut c, &input, 4, "W");
        assert_eq!(parts.m(), 4);
        assert_eq!(*parts.offsets.last().unwrap(), 0);
    }
}
