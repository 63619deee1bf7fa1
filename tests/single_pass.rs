//! Single-pass operators: `select_lt`, `hash_group_count`,
//! `sort_dedup`, the hash probe, `merge_join`, `nested_loop_join` and
//! the sorted set operations size their output from a bound they already hold, fill it in their
//! one charged pass, and release the unwritten tail of the arena.
//!
//! For each operator, over seeded random inputs (empty results,
//! all-qualifying selects, duplicate build keys that force the joins to
//! grow past their reservation, sparse group-by key ranges):
//!
//! * the output bytes equal a plain host-side reference;
//! * the simulator and the native backend (kernel and scalar paths)
//!   charge the same line-granular accesses and logical ops, and the
//!   two native paths the same access calls;
//! * the next allocation lands exactly where it would after an
//!   exact-size output (the tip-release contract);
//!
//! and a group-by input whose key bound is deliberately wrong trips the
//! load-factor assertion instead of probing forever.

use gcm_engine::ops::set_ops::{self, SetOp};
use gcm_engine::ops::{self, aggregate, hash, merge_join, nl_join, scan};
use gcm_engine::{ExecContext, MemoryBackend, NativeBackend, Relation};
use gcm_hardware::presets;
use gcm_sim::{Addr, MemorySystem};
use gcm_workload::Workload;
use proptest::prelude::*;

/// Output tuple width of the joins.
const OUT_W: u64 = 16;

#[derive(Debug, Clone, Copy)]
enum Op {
    Select(u64),
    GroupCount,
    Dedup,
    HashJoin,
    MergeJoin,
    NestedLoopJoin,
    Set(SetOp),
}

/// What one operator run produced on one backend.
#[derive(Debug, PartialEq)]
struct Outcome {
    bytes: Vec<u8>,
    n: u64,
    ops: u64,
    /// Charged accesses at cache-line granularity (64-byte lines on
    /// both backends here).
    lines: u64,
    /// Charged access calls (native only; the simulator counts lines).
    calls: Option<u64>,
    /// First address after the operator, and where an exact-size
    /// output would have left it.
    tip: (Addr, Addr),
}

fn run<B: MemoryBackend>(
    mut ctx: ExecContext<B>,
    op: Op,
    u: &[u64],
    v: &[u64],
    w: u64,
    counts: impl Fn(&B::Counters) -> (u64, Option<u64>),
) -> Outcome {
    let ur = ctx.relation_from_keys("U", u, w);
    let vr = ctx.relation_from_keys("V", v, w);
    let (out, stats) = ctx.measure(|c| match op {
        Op::Select(t) => scan::select_lt(c, &ur, t, "W"),
        Op::GroupCount => aggregate::hash_group_count(c, &ur, "G"),
        Op::Dedup => aggregate::sort_dedup(c, &ur, "D"),
        Op::HashJoin => hash::hash_join(c, &ur, &vr, "W", OUT_W),
        Op::MergeJoin => merge_join::merge_join(c, &ur, &vr, "W", OUT_W),
        Op::NestedLoopJoin => nl_join::nested_loop_join(c, &ur, &vr, "W", OUT_W),
        Op::Set(set) => set_ops::set_op(c, &ur, &vr, set, "S"),
    });
    let exact_end = out.base() + out.bytes().max(1);
    let next = ctx.mem.alloc(1, 1);
    let (lines, calls) = counts(&stats.mem);
    Outcome {
        bytes: ctx.relation_bytes(&out),
        n: out.n(),
        ops: stats.ops,
        lines,
        calls,
        tip: (next, exact_end),
    }
}

fn run_sim(op: Op, u: &[u64], v: &[u64], w: u64) -> Outcome {
    // All levels have 64-byte lines, so the first level's probe count
    // is the line-granular access count the native backend reports.
    let ctx = ExecContext::new(presets::modern_commodity());
    run(ctx, op, u, v, w, |c| {
        (
            <MemorySystem as MemoryBackend>::counter_accesses(c).expect("sim counts"),
            None,
        )
    })
}

fn run_native(ctx: ExecContext<NativeBackend>, op: Op, u: &[u64], v: &[u64], w: u64) -> Outcome {
    run(ctx, op, u, v, w, |c| (c.lines, Some(c.accesses)))
}

/// A `w`-byte tuple holding `key` and a zero payload.
fn tuple(out: &mut Vec<u8>, key: u64, w: u64) {
    out.extend_from_slice(&key.to_le_bytes());
    out.resize(out.len() + (w - 8) as usize, 0);
}

/// Plain host-side reference output of `op`.
fn reference(op: Op, u: &[u64], v: &[u64], w: u64) -> Vec<u8> {
    let mut out = Vec::new();
    match op {
        Op::Select(t) => u
            .iter()
            .filter(|&&k| k < t)
            .for_each(|&k| tuple(&mut out, k, w)),
        Op::Dedup => {
            let mut keys = u.to_vec();
            keys.sort_unstable();
            keys.dedup();
            keys.iter().for_each(|&k| tuple(&mut out, k, w));
        }
        Op::GroupCount => {
            // Linear probing into a table sized from the key bound,
            // emitted in slot order.
            let bound = u.iter().map(|&k| k + 1).max().unwrap_or(0);
            let slots = aggregate::group_table_slots(u.len() as u64, bound);
            let mut table: Vec<Option<(u64, u64)>> = vec![None; slots as usize];
            for &k in u {
                let mut s = (ops::mix(k) & (slots - 1)) as usize;
                loop {
                    match &mut table[s] {
                        Some((key, count)) if *key == k => {
                            *count += 1;
                            break;
                        }
                        Some(_) => s = (s + 1) & (slots as usize - 1),
                        empty @ None => {
                            *empty = Some((k, 1));
                            break;
                        }
                    }
                }
            }
            for (k, c) in table.into_iter().flatten() {
                out.extend_from_slice(&k.to_le_bytes());
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
        Op::Set(set) => {
            use std::collections::BTreeSet;
            let (a, b): (BTreeSet<u64>, BTreeSet<u64>) =
                (u.iter().copied().collect(), v.iter().copied().collect());
            let keys: Vec<u64> = match set {
                SetOp::Union => a.union(&b).copied().collect(),
                SetOp::Intersect => a.intersection(&b).copied().collect(),
                SetOp::Difference => a.difference(&b).copied().collect(),
            };
            keys.iter().for_each(|&k| tuple(&mut out, k, w));
        }
        // Every join emits, per outer tuple in order, one key-only tuple
        // per matching inner tuple.
        Op::HashJoin | Op::MergeJoin | Op::NestedLoopJoin => {
            for &k in u {
                for _ in v.iter().filter(|&&x| x == k) {
                    tuple(&mut out, k, OUT_W);
                }
            }
        }
    }
    out
}

/// Run `op` on every backend and check the three contracts.
fn check(op: Op, u: &[u64], v: &[u64], w: u64) -> Result<(), TestCaseError> {
    let (mut u, mut v) = (u.to_vec(), v.to_vec());
    if let Op::MergeJoin | Op::Set(_) = op {
        u.sort_unstable();
        v.sort_unstable();
    }
    let sim = run_sim(op, &u, &v, w);
    let native = run_native(ExecContext::native(), op, &u, &v, w);
    let scalar = run_native(ExecContext::native_scalar(), op, &u, &v, w);
    let want = reference(op, &u, &v, w);
    prop_assert_eq!(&sim.bytes, &want, "{:?}: sim output vs reference", op);
    prop_assert_eq!(&native.bytes, &want, "{:?}: native output vs reference", op);
    prop_assert_eq!(&scalar.bytes, &want, "{:?}: scalar output vs reference", op);
    for (name, o) in [("sim", &sim), ("native", &native), ("scalar", &scalar)] {
        prop_assert_eq!(o.tip.0, o.tip.1, "{:?} on {}: tip not released", op, name);
    }
    prop_assert_eq!(
        (sim.ops, sim.lines),
        (native.ops, native.lines),
        "{:?}: sim vs native charged ops/lines",
        op
    );
    prop_assert_eq!(
        (native.ops, native.lines, native.calls),
        (scalar.ops, scalar.lines, scalar.calls),
        "{:?}: kernel vs scalar charged ops/lines/accesses",
        op
    );
    Ok(())
}

/// `n` keys from `universe` values spaced `stride` apart: small
/// universes give duplicates, large strides sparse key ranges.
fn keys(seed: u64, n: usize, universe: u64, stride: u64) -> Vec<u64> {
    Workload::new(seed)
        .uniform_keys_bounded(n, universe)
        .into_iter()
        .map(|k| k * stride)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Selects from empty to all-qualifying (thresholds past the key
    /// range), on every supported tuple width.
    #[test]
    fn select_is_single_pass(
        seed in 0u64..10_000,
        n in 0usize..400,
        universe in 1u64..200,
        stride in 1u64..50,
        pct in 0u64..130,
        w_log in 0u32..3,
    ) {
        let u = keys(seed, n, universe, stride);
        let t = universe * stride * pct / 100;
        check(Op::Select(t), &u, &[], 8 << w_log)?;
    }

    /// Group-by over dense and sparse key ranges (a sparse range sizes
    /// the table from `n`, a dense one from the key bound).
    #[test]
    fn group_count_is_single_pass(
        seed in 0u64..10_000,
        n in 0usize..400,
        universe in 1u64..300,
        stride in 1u64..1_000,
        w_log in 0u32..3,
    ) {
        let u = keys(seed, n, universe, stride);
        check(Op::GroupCount, &u, &[], 8 << w_log)?;
    }

    #[test]
    fn dedup_is_single_pass(
        seed in 0u64..10_000,
        n in 0usize..400,
        universe in 1u64..300,
        w_log in 0u32..3,
    ) {
        check(Op::Dedup, &keys(seed, n, universe, 1), &[], 8 << w_log)?;
    }

    /// Joins whose inner side repeats keys, so outputs regularly
    /// outgrow the `u.n()` reservation; empty sides included.
    #[test]
    fn joins_are_single_pass(
        seed in 0u64..10_000,
        nu in 0usize..150,
        nv in 0usize..150,
        universe in 1u64..80,
        algo in 0usize..3,
    ) {
        let u = keys(seed, nu, universe, 1);
        let v = keys(seed + 1, nv, universe, 1);
        let op = [Op::HashJoin, Op::MergeJoin, Op::NestedLoopJoin][algo];
        check(op, &u, &v, 8)?;
    }

    /// Sorted set operations, with overlapping and disjoint inputs.
    #[test]
    fn set_ops_are_single_pass(
        seed in 0u64..10_000,
        nu in 0usize..150,
        nv in 0usize..150,
        universe in 1u64..300,
        which in 0usize..3,
        w_log in 0u32..3,
    ) {
        let u = keys(seed, nu, universe, 1);
        let v = keys(seed + 1, nv, universe, 1);
        let set = [SetOp::Union, SetOp::Intersect, SetOp::Difference][which];
        check(Op::Set(set), &u, &v, 8 << w_log)?;
    }
}

#[test]
fn select_grows_its_reservation_across_input_chunks() {
    // Several of select_lt's reservation steps, with a ragged tail.
    let u = keys(7, 3 * (1 << 14) + 100, 1_000, 1);
    for t in [0, 1, 500, 1_000] {
        check(Op::Select(t), &u, &[], 8).unwrap();
    }
    check(Op::Select(500), &u, &[], 32).unwrap();
}

#[test]
fn duplicate_build_keys_grow_every_join_past_its_reservation() {
    // Two outer tuples, four matches each: the output (8) is four times
    // the reservation (2), so every join grows twice in place.
    let (u, v) = ([7u64, 7], [3u64, 7, 7, 7, 7]);
    for op in [Op::HashJoin, Op::MergeJoin, Op::NestedLoopJoin] {
        check(op, &u, &v, 8).unwrap();
        assert_eq!(run_sim(op, &u, &v, 8).n, 8, "{op:?}");
    }
}

#[test]
fn empty_outputs_release_to_the_placeholder_byte() {
    let u = [5u64, 6, 9];
    for op in [
        Op::Select(0),
        Op::HashJoin,
        Op::MergeJoin,
        Op::NestedLoopJoin,
    ] {
        check(op, &u, &[1, 2], 8).unwrap();
        assert_eq!(run_sim(op, &u, &[1, 2], 8).n, 0, "{op:?}");
    }
    check(Op::GroupCount, &[], &[], 8).unwrap();
    check(Op::Dedup, &[], &[], 8).unwrap();
}

#[test]
#[should_panic(expected = "past load factor 1/2")]
fn group_count_rejects_an_understated_key_bound() {
    // 64 distinct keys under a claimed bound of 4: an 8-slot table.
    let mut ctx = ExecContext::new(presets::tiny());
    let keys: Vec<u64> = (0..64).collect();
    let wrong: Relation = ctx.relation_from_keys("U", &keys, 8).with_key_bound(4);
    aggregate::hash_group_count(&mut ctx, &wrong, "G");
}
