//! Aggregation and duplicate elimination (paper §3.2: "usually
//! implemented using sorting or hashing; thus, they perform the
//! respective patterns").

use crate::backend::MemoryBackend;
use crate::ctx::ExecContext;
use crate::ops::hash::{table_slots, HashTable, EMPTY};
use crate::ops::sort::quick_sort;
use crate::relation::Relation;
use gcm_core::{library, Pattern, Region};

/// Slots of the counting table [`hash_group_count`] allocates for an
/// `n`-tuple input whose keys are all `< key_bound`: sized for
/// `min(n, key_bound)` groups, a bound on the distinct keys the input
/// can hold. The one sizing rule shared by the operator, the plan
/// executor's pattern and the optimizer's pricing, so the region that
/// gets priced is the region that runs.
pub fn group_table_slots(n: u64, key_bound: u64) -> u64 {
    table_slots(n.min(key_bound))
}

/// Hash-based group-by count: returns a relation of `(group_key, count)`
/// pairs (width 16), in table order.
///
/// One charged pass: the table is sized from the input's key bound
/// ([`group_table_slots`]), the groups are counted as they are
/// inserted, and the output is allocated at its exact size afterwards.
/// A key bound below the input's real distinct count would overfill
/// the table; that fails loudly on the load-factor assertion instead of
/// probing forever.
pub fn hash_group_count<B: MemoryBackend>(
    ctx: &mut ExecContext<B>,
    input: &Relation,
    out_name: &str,
) -> Relation {
    let table = HashTable::alloc(
        ctx,
        &format!("H({out_name})"),
        input.n().min(input.key_bound()),
    );
    // Aggregate: probe; on hit increment the count in place, else insert
    // 1. The upsert's random table line N tuples ahead is
    // software-prefetched for write (uncharged hint; distance 0 on the
    // simulator skips it).
    let dist = ctx.mem.prefetch_distance();
    let mask = table.capacity() - 1;
    let mut groups = 0u64;
    for i in 0..input.n() {
        if dist > 0 && i + dist < input.n() {
            let ahead = ctx.mem.host_read_u64(input.tuple(i + dist));
            ctx.mem
                .prefetch_write(table.slot_addr(crate::ops::mix(ahead) & mask));
        }
        let key = ctx.read_tuple(input, i);
        ctx.count_ops(1);
        if upsert_count(ctx, &table, key) {
            groups += 1;
            assert!(
                2 * groups <= table.capacity(),
                "group-count table past load factor 1/2: key bound {} of {:?} \
                 understates its distinct keys",
                input.key_bound(),
                input.region().name()
            );
        }
    }
    // Emit: sweep the table, writing occupied slots out sequentially.
    let out = ctx
        .relation(out_name, groups, 16)
        .with_key_bound(input.key_bound());
    let mut cursor = 0u64;
    for s in 0..table.capacity() {
        let addr = table.slot_addr(s);
        let key = ctx.mem.read_u64(addr);
        if key != EMPTY {
            let count = ctx.mem.read_u64(addr + 8);
            ctx.mem.touch(out.tuple(cursor), 16);
            ctx.mem.host_write_u64(out.tuple(cursor), key);
            ctx.mem.host_write_u64(out.tuple(cursor) + 8, count);
            ctx.count_ops(1);
            cursor += 1;
        }
    }
    debug_assert_eq!(cursor, groups);
    out
}

/// Count one more `key` in a counting hash table, inserting the key if
/// absent (simulated accesses; linear probing); returns whether the key
/// was inserted.
fn upsert_count<B: MemoryBackend>(ctx: &mut ExecContext<B>, table: &HashTable, key: u64) -> bool {
    let mask = table.capacity() - 1;
    let mut slot = crate::ops::mix(key) & mask;
    loop {
        let addr = table.slot_addr(slot);
        let resident = ctx.mem.read_u64(addr);
        ctx.count_ops(1);
        if resident == key {
            let c = ctx.mem.read_u64(addr + 8);
            ctx.mem.write_u64(addr + 8, c + 1);
            return false;
        }
        if resident == EMPTY {
            ctx.mem.touch(addr, 16);
            ctx.mem.host_write_u64(addr, key);
            ctx.mem.host_write_u64(addr + 8, 1);
            return true;
        }
        slot = (slot + 1) & mask;
    }
}

/// Pattern of [`hash_group_count`]:
/// `s_trav(U) ⊙ r_acc(H, U.n) ⊕ s_trav(H) ⊙ s_trav(W)`.
pub fn hash_group_pattern(input: &Region, h: &Region, output: &Region) -> Pattern {
    library::hash_aggregate(input.clone(), h.clone(), output.clone())
}

/// Sort-based duplicate elimination: sorts the input in place, then
/// emits each distinct key once. The output reserves all `n` input
/// tuples at the allocation tip and releases the unwritten tail after
/// the charged pass ([`ExecContext::finish_output`]).
pub fn sort_dedup<B: MemoryBackend>(
    ctx: &mut ExecContext<B>,
    input: &Relation,
    out_name: &str,
) -> Relation {
    quick_sort(ctx, input);
    let out = ctx
        .relation(out_name, input.n(), input.w())
        .with_key_bound(input.key_bound());
    let mut cursor = 0u64;
    let mut prev = None;
    for i in 0..input.n() {
        let k = ctx.read_tuple(input, i);
        ctx.count_ops(1);
        if prev != Some(k) {
            ctx.copy_tuple(input, i, &out, cursor);
            cursor += 1;
            prev = Some(k);
        }
    }
    ctx.finish_output(&out, cursor)
}

/// Pattern of [`sort_dedup`]: `quick_sort(U) ⊕ s_trav(U) ⊙ s_trav(W)`.
pub fn sort_dedup_pattern(input: &Region, output: &Region) -> Pattern {
    library::sort_aggregate(input.clone(), output.clone())
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
    fn group_counts_are_exact() {
        let mut c = ctx();
        let input = c.relation_from_keys("U", &[3, 1, 3, 2, 3, 1], 8);
        let out = hash_group_count(&mut c, &input, "G");
        assert_eq!(out.n(), 3);
        let mut groups: Vec<(u64, u64)> = (0..3)
            .map(|i| {
                (
                    c.mem.host().read_u64(out.tuple(i)),
                    c.mem.host().read_u64(out.tuple(i) + 8),
                )
            })
            .collect();
        groups.sort_unstable();
        assert_eq!(groups, [(1, 2), (2, 1), (3, 3)]);
    }

    #[test]
    fn group_count_skewed_input() {
        let mut c = ctx();
        let keys = Workload::new(30).zipf_keys(2000, 50, 1.0);
        let input = c.relation_from_keys("U", &keys, 8);
        let out = hash_group_count(&mut c, &input, "G");
        let total: u64 = (0..out.n())
            .map(|i| c.mem.host().read_u64(out.tuple(i) + 8))
            .sum();
        assert_eq!(total, 2000);
    }

    #[test]
    fn dedup_removes_duplicates() {
        let mut c = ctx();
        let input = c.relation_from_keys("U", &[5, 1, 5, 2, 1, 1], 8);
        let out = sort_dedup(&mut c, &input, "D");
        assert_eq!(out.n(), 3);
        let got: Vec<u64> = (0..3)
            .map(|i| c.mem.host().read_u64(out.tuple(i)))
            .collect();
        assert_eq!(got, [1, 2, 5]);
    }

    #[test]
    fn dedup_of_distinct_keys_is_identity_sized() {
        let mut c = ctx();
        let keys = Workload::new(31).shuffled_keys(500);
        let input = c.relation_from_keys("U", &keys, 8);
        let out = sort_dedup(&mut c, &input, "D");
        assert_eq!(out.n(), 500);
    }

    #[test]
    fn patterns_render() {
        let mut c = ctx();
        let u = c.relation("U", 100, 8);
        let h = c.relation("H", 64, 16);
        let w = c.relation("W", 32, 16);
        assert!(hash_group_pattern(u.region(), h.region(), w.region())
            .to_string()
            .contains("r_acc(H"));
        assert!(sort_dedup_pattern(u.region(), w.region())
            .to_string()
            .contains("⊕"));
    }
}
