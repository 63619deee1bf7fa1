//! Nested-loop join: the baseline join (paper §3.2's binary-operator
//! discussion): the outer input is swept once, the inner input once per
//! outer tuple — `s_trav(U) ⊙ rs_trav(U.n, uni, V) ⊙ s_trav(W)`.

use crate::backend::MemoryBackend;
use crate::ctx::ExecContext;
use crate::relation::Relation;
use gcm_core::{library, Pattern, Region};

/// Join `u ⋈ v` by scanning `v` once per tuple of `u`. Quadratic: use
/// only as the model's baseline comparator. The output is reserved at
/// the allocation tip for `u.n()` tuples, grown in place on duplicate
/// matches ([`ExecContext::grow_output`]) and cut to size at the end
/// ([`ExecContext::finish_output`]), all within the one charged pass.
pub fn nested_loop_join<B: MemoryBackend>(
    ctx: &mut ExecContext<B>,
    u: &Relation,
    v: &Relation,
    out_name: &str,
    out_w: u64,
) -> Relation {
    let mut out = ctx
        .relation(out_name, u.n(), out_w)
        .with_key_bound(u.key_bound().min(v.key_bound()));
    let mut cursor = 0u64;
    for i in 0..u.n() {
        let ku = ctx.read_tuple(u, i);
        for j in 0..v.n() {
            let kv = ctx.read_tuple(v, j);
            ctx.count_ops(1);
            if kv == ku {
                if cursor == out.n() {
                    out = ctx.grow_output(&out, 2 * cursor);
                }
                ctx.write_tuple(&out, cursor, ku);
                cursor += 1;
            }
        }
    }
    ctx.finish_output(&out, cursor)
}

/// Pattern of [`nested_loop_join`]:
/// `s_trav(U) ⊙ rs_trav(U.n, uni, V) ⊙ s_trav(W)`.
pub fn nested_loop_join_pattern(u: &Region, v: &Region, w: &Region) -> Pattern {
    library::nested_loop_join(u.clone(), v.clone(), w.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcm_hardware::presets;

    fn ctx() -> ExecContext {
        ExecContext::new(presets::tiny())
    }

    #[test]
    fn finds_all_matches() {
        let mut c = ctx();
        let u = c.relation_from_keys("U", &[1, 2, 2, 9], 8);
        let v = c.relation_from_keys("V", &[2, 1, 2], 8);
        let out = nested_loop_join(&mut c, &u, &v, "W", 16);
        // key 1: 1 match; each key-2 outer tuple: 2 matches → 5 total.
        assert_eq!(out.n(), 5);
    }

    #[test]
    fn no_matches() {
        let mut c = ctx();
        let u = c.relation_from_keys("U", &[1], 8);
        let v = c.relation_from_keys("V", &[2], 8);
        assert_eq!(nested_loop_join(&mut c, &u, &v, "W", 16).n(), 0);
    }

    #[test]
    fn inner_fitting_cache_pays_once() {
        // Inner table within L1: repeated sweeps cost no further misses
        // (the rs_trav branch of Eq 4.6).
        let mut c = ctx();
        let uk: Vec<u64> = (0..64).collect();
        let vk: Vec<u64> = (0..64).collect();
        let u = c.relation_from_keys("U", &uk, 8);
        let v = c.relation_from_keys("V", &vk, 8); // 512 B < 2 KB L1
        c.cold_caches();
        let (_, stats) = c.measure(|c| {
            nested_loop_join(c, &u, &v, "W", 16);
        });
        let l1 = c.mem.spec().level_index("L1").unwrap();
        // v: 16 lines once; u: 16 lines; out: 64 tuples × 16 B = 32 lines.
        assert!(
            stats.misses_at(l1) < 100,
            "L1 misses {} should stay near compulsory",
            stats.misses_at(l1)
        );
    }

    #[test]
    fn pattern_renders() {
        let mut c = ctx();
        let u = c.relation("U", 10, 8);
        let v = c.relation("V", 20, 8);
        let w = c.relation("W", 10, 16);
        assert_eq!(
            nested_loop_join_pattern(u.region(), v.region(), w.region()).to_string(),
            "s_trav(U) ⊙ rs_trav(10, uni, V) ⊙ s_trav(W)"
        );
    }
}
