//! Merge-join over sorted inputs (paper §6.2, Figure 7b): three
//! concurrent sequential traversals, `s_trav(U) ⊙ s_trav(V) ⊙ s_trav(W)`.

use crate::backend::MemoryBackend;
use crate::ctx::ExecContext;
use crate::relation::Relation;
use gcm_core::{library, Pattern, Region};

/// Join two key-sorted relations; emits one output tuple per matching
/// pair `(u.key == v.key)` into a fresh relation of width `out_w`
/// (key + zero payload). Handles duplicate keys on both sides.
///
/// One charged pass: the output reserves `u.n()` tuples at the
/// allocation tip, grows in place past that on duplicate keys
/// ([`ExecContext::grow_output`]) and is cut to size at the end
/// ([`ExecContext::finish_output`]).
///
/// Logical ops: one per cursor advance and one per emitted tuple.
pub fn merge_join<B: MemoryBackend>(
    ctx: &mut ExecContext<B>,
    u: &Relation,
    v: &Relation,
    out_name: &str,
    out_w: u64,
) -> Relation {
    // Unsorted inputs would silently produce garbage (the cursors only
    // move forward); fail fast in debug builds. Host-side reads, so the
    // check never perturbs the release-mode counters.
    debug_assert!(
        is_sorted_host(ctx, u),
        "merge_join: outer input {:?} is not key-sorted (sort it first, \
         or plan a Merge join with sort_u = true)",
        u.region().name()
    );
    debug_assert!(
        is_sorted_host(ctx, v),
        "merge_join: inner input {:?} is not key-sorted (sort it first, \
         or plan a Merge join with sort_v = true)",
        v.region().name()
    );
    let mut out = ctx
        .relation(out_name, u.n(), out_w)
        .with_key_bound(u.key_bound().min(v.key_bound()));

    let (mut i, mut j, mut o) = (0u64, 0u64, 0u64);
    while i < u.n() && j < v.n() {
        let ku = ctx.read_key(u, i);
        let kv = ctx.read_key(v, j);
        ctx.count_ops(1);
        if ku < kv {
            i += 1;
        } else if ku > kv {
            j += 1;
        } else {
            // Emit the full group product for duplicate keys.
            let j_start = j;
            let mut jj = j_start;
            while jj < v.n() && ctx.read_key(v, jj) == ku {
                if o == out.n() {
                    out = ctx.grow_output(&out, 2 * o);
                }
                ctx.write_tuple(&out, o, ku);
                ctx.count_ops(1);
                o += 1;
                jj += 1;
            }
            i += 1;
            // Advance j only when u has no duplicate of this key left.
            if i >= u.n() || ctx.mem.host_read_u64(u.tuple(i)) != ku {
                j = jj;
            }
        }
    }
    ctx.finish_output(&out, o)
}

/// Host-side sortedness check backing the debug assertions above
/// (branch-eliminated, but still referenced, in release builds).
fn is_sorted_host<B: MemoryBackend>(ctx: &ExecContext<B>, rel: &Relation) -> bool {
    (1..rel.n())
        .all(|i| ctx.mem.host_read_u64(rel.tuple(i - 1)) <= ctx.mem.host_read_u64(rel.tuple(i)))
}

/// Pattern of [`merge_join`]: `s_trav(U) ⊙ s_trav(V) ⊙ s_trav(W)`.
pub fn merge_join_pattern(u: &Region, v: &Region, w: &Region) -> Pattern {
    library::merge_join(u.clone(), v.clone(), w.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcm_hardware::presets;

    fn ctx() -> ExecContext {
        ExecContext::new(presets::tiny())
    }

    #[test]
    fn one_to_one_match() {
        let mut c = ctx();
        let u = c.relation_from_keys("U", &[1, 2, 3, 4, 5], 8);
        let v = c.relation_from_keys("V", &[1, 2, 3, 4, 5], 8);
        let w = merge_join(&mut c, &u, &v, "W", 16);
        assert_eq!(w.n(), 5);
        for i in 0..5 {
            assert_eq!(c.mem.host().read_u64(w.tuple(i)), i + 1);
        }
    }

    #[test]
    fn partial_overlap() {
        let mut c = ctx();
        let u = c.relation_from_keys("U", &[1, 3, 5, 7], 8);
        let v = c.relation_from_keys("V", &[2, 3, 4, 7, 9], 8);
        let w = merge_join(&mut c, &u, &v, "W", 16);
        assert_eq!(w.n(), 2);
        assert_eq!(c.mem.host().read_u64(w.tuple(0)), 3);
        assert_eq!(c.mem.host().read_u64(w.tuple(1)), 7);
    }

    #[test]
    fn duplicates_produce_products() {
        let mut c = ctx();
        let u = c.relation_from_keys("U", &[2, 2, 3], 8);
        let v = c.relation_from_keys("V", &[2, 2, 2, 3], 8);
        let w = merge_join(&mut c, &u, &v, "W", 16);
        // 2×3 for key 2 plus 1×1 for key 3.
        assert_eq!(w.n(), 7);
    }

    #[test]
    fn disjoint_inputs_produce_nothing() {
        let mut c = ctx();
        let u = c.relation_from_keys("U", &[1, 2], 8);
        let v = c.relation_from_keys("V", &[3, 4], 8);
        let w = merge_join(&mut c, &u, &v, "W", 16);
        assert_eq!(w.n(), 0);
    }

    #[test]
    fn empty_input() {
        let mut c = ctx();
        let u = c.relation("U", 0, 8);
        let v = c.relation_from_keys("V", &[1], 8);
        let w = merge_join(&mut c, &u, &v, "W", 16);
        assert_eq!(w.n(), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "is not key-sorted")]
    fn unsorted_input_is_rejected_in_debug() {
        let mut c = ctx();
        let u = c.relation_from_keys("U", &[3, 1, 2], 8);
        let v = c.relation_from_keys("V", &[1, 2, 3], 8);
        let _ = merge_join(&mut c, &u, &v, "W", 16);
    }

    #[test]
    fn misses_are_sequential_and_linear() {
        // Merge-join's accesses are pure streams: sequential misses
        // dominate and cost scales linearly with input size (§6.2).
        let mut c = ctx();
        let keys: Vec<u64> = (0..4096).collect();
        let u = c.relation_from_keys("U", &keys, 8);
        let v = c.relation_from_keys("V", &keys, 8);
        let (_, stats) = c.measure(|c| {
            merge_join(c, &u, &v, "W", 16);
        });
        let l1 = c.mem.spec().level_index("L1").unwrap();
        let s = stats.mem.levels[l1];
        assert!(
            s.seq_misses > 10 * s.rand_misses,
            "sequential misses must dominate: {s}"
        );
    }

    #[test]
    fn pattern_renders() {
        let mut c = ctx();
        let u = c.relation("U", 10, 8);
        let v = c.relation("V", 10, 8);
        let w = c.relation("W", 10, 16);
        assert_eq!(
            merge_join_pattern(u.region(), v.region(), w.region()).to_string(),
            "s_trav(U) ⊙ s_trav(V) ⊙ s_trav(W)"
        );
    }
}
