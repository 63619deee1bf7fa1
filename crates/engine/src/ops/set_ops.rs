//! Set operations over sorted inputs (paper §3.2: "the appropriate
//! treatment of union, intersection and set-difference can be derived
//! respectively" from the binary-operator discussion).
//!
//! All three are single merge passes — three concurrent sequential
//! traversals, like merge-join:
//!
//! ```text
//! union/intersect/diff(U, V) = s_trav(U) ⊙ s_trav(V) ⊙ s_trav(W)
//! ```
//!
//! only the output cardinality differs (which the logical-cost oracle
//! provides, §1).

use crate::backend::MemoryBackend;
use crate::ctx::ExecContext;
use crate::relation::Relation;
use gcm_core::{library, Pattern, Region};

/// Which set operation a merge pass performs (set semantics: inputs are
/// treated as sets; duplicates within an input collapse).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOp {
    /// Keys present in either input.
    Union,
    /// Keys present in both inputs.
    Intersect,
    /// Keys present in the left input but not the right.
    Difference,
}

fn advance_dups<B: MemoryBackend>(
    ctx: &ExecContext<B>,
    rel: &Relation,
    mut i: u64,
    key: u64,
) -> u64 {
    while i < rel.n() && ctx.mem.host_read_u64(rel.tuple(i)) == key {
        i += 1;
    }
    i
}

/// Execute `op` over two key-sorted relations, producing a sorted,
/// duplicate-free output of the same tuple width as `u`.
pub fn set_op<B: MemoryBackend>(
    ctx: &mut ExecContext<B>,
    u: &Relation,
    v: &Relation,
    op: SetOp,
    out_name: &str,
) -> Relation {
    // Reserve the largest possible output at the allocation tip and cut
    // it to size after the charged merge pass.
    let bound = match op {
        SetOp::Union => u.n() + v.n(),
        SetOp::Intersect | SetOp::Difference => u.n(),
    };
    let out = ctx.relation(out_name, bound, u.w());
    let (mut i, mut j, mut cursor) = (0u64, 0u64, 0u64);
    let emit = |ctx: &mut ExecContext<B>, key: u64, cursor: &mut u64| {
        ctx.write_tuple(&out, *cursor, key);
        ctx.count_ops(1);
        *cursor += 1;
    };
    while i < u.n() || j < v.n() {
        let ku = (i < u.n()).then(|| ctx.read_key(u, i));
        let kv = (j < v.n()).then(|| ctx.read_key(v, j));
        ctx.count_ops(1);
        match (ku, kv) {
            (Some(a), Some(b)) if a == b => {
                if matches!(op, SetOp::Union | SetOp::Intersect) {
                    emit(ctx, a, &mut cursor);
                }
                i = advance_dups(ctx, u, i, a);
                j = advance_dups(ctx, v, j, b);
            }
            (Some(a), Some(b)) if a < b => {
                if matches!(op, SetOp::Union | SetOp::Difference) {
                    emit(ctx, a, &mut cursor);
                }
                i = advance_dups(ctx, u, i, a);
            }
            (Some(_), Some(b)) => {
                if matches!(op, SetOp::Union) {
                    emit(ctx, b, &mut cursor);
                }
                j = advance_dups(ctx, v, j, b);
            }
            (Some(a), None) => {
                if matches!(op, SetOp::Union | SetOp::Difference) {
                    emit(ctx, a, &mut cursor);
                }
                i = advance_dups(ctx, u, i, a);
            }
            (None, Some(b)) => {
                if matches!(op, SetOp::Union) {
                    emit(ctx, b, &mut cursor);
                }
                j = advance_dups(ctx, v, j, b);
            }
            (None, None) => unreachable!("loop condition"),
        }
    }
    ctx.finish_output(&out, cursor)
}

/// Pattern of any [`set_op`]: `s_trav(U) ⊙ s_trav(V) ⊙ s_trav(W)` —
/// identical to merge-join's; only `W.n` differs.
pub fn set_op_pattern(u: &Region, v: &Region, w: &Region) -> Pattern {
    library::merge_join(u.clone(), v.clone(), w.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcm_hardware::presets;

    fn ctx() -> ExecContext {
        ExecContext::new(presets::tiny())
    }

    fn keys_of(c: &ExecContext, rel: &Relation) -> Vec<u64> {
        (0..rel.n())
            .map(|i| c.mem.host().read_u64(rel.tuple(i)))
            .collect()
    }

    #[test]
    fn union_merges_and_dedups() {
        let mut c = ctx();
        let u = c.relation_from_keys("U", &[1, 3, 3, 5], 8);
        let v = c.relation_from_keys("V", &[2, 3, 6], 8);
        let w = set_op(&mut c, &u, &v, SetOp::Union, "W");
        assert_eq!(keys_of(&c, &w), [1, 2, 3, 5, 6]);
    }

    #[test]
    fn intersect_keeps_common() {
        let mut c = ctx();
        let u = c.relation_from_keys("U", &[1, 2, 4, 8], 8);
        let v = c.relation_from_keys("V", &[2, 3, 4, 9], 8);
        let w = set_op(&mut c, &u, &v, SetOp::Intersect, "W");
        assert_eq!(keys_of(&c, &w), [2, 4]);
    }

    #[test]
    fn difference_keeps_left_only() {
        let mut c = ctx();
        let u = c.relation_from_keys("U", &[1, 2, 4, 8], 8);
        let v = c.relation_from_keys("V", &[2, 3, 4], 8);
        let w = set_op(&mut c, &u, &v, SetOp::Difference, "W");
        assert_eq!(keys_of(&c, &w), [1, 8]);
    }

    #[test]
    fn empty_sides() {
        let mut c = ctx();
        let u = c.relation_from_keys("U", &[1, 2], 8);
        let e = c.relation("E", 0, 8);
        let w1 = set_op(&mut c, &u, &e, SetOp::Union, "W1");
        assert_eq!(keys_of(&c, &w1), [1, 2]);
        assert_eq!(set_op(&mut c, &u, &e, SetOp::Intersect, "W2").n(), 0);
        let w3 = set_op(&mut c, &u, &e, SetOp::Difference, "W3");
        assert_eq!(keys_of(&c, &w3), [1, 2]);
        let w4 = set_op(&mut c, &e, &u, SetOp::Union, "W4");
        assert_eq!(keys_of(&c, &w4), [1, 2]);
        assert_eq!(set_op(&mut c, &e, &u, SetOp::Difference, "W5").n(), 0);
    }

    #[test]
    fn identical_inputs() {
        let mut c = ctx();
        let u = c.relation_from_keys("U", &[1, 2, 3], 8);
        let v = c.relation_from_keys("V", &[1, 2, 3], 8);
        assert_eq!(set_op(&mut c, &u, &v, SetOp::Union, "W1").n(), 3);
        assert_eq!(set_op(&mut c, &u, &v, SetOp::Intersect, "W2").n(), 3);
        assert_eq!(set_op(&mut c, &u, &v, SetOp::Difference, "W3").n(), 0);
    }

    #[test]
    fn misses_match_merge_model() {
        // Like merge-join, set ops are pure streams: model must be exact.
        let spec = presets::tiny();
        let mut c = ExecContext::new(spec.clone());
        let a: Vec<u64> = (0..4096).map(|i| i * 2).collect(); // evens
        let b: Vec<u64> = (0..4096).map(|i| i * 2 + 1).collect(); // odds
        let u = c.relation_from_keys("U", &a, 8);
        let v = c.relation_from_keys("V", &b, 8);
        let (w, stats) = c.measure(|c| set_op(c, &u, &v, SetOp::Union, "W"));
        assert_eq!(w.n(), 8192);
        let model = gcm_core::CostModel::new(spec.clone());
        let report = model.report(&set_op_pattern(u.region(), v.region(), w.region()));
        let l1 = spec.level_index("L1").unwrap();
        let measured = (stats.mem.levels[l1].seq_misses + stats.mem.levels[l1].rand_misses) as f64;
        let predicted = report.levels[l1].misses();
        assert!(
            (predicted / measured - 1.0).abs() < 0.15,
            "L1: measured {measured} predicted {predicted}"
        );
    }
}
