//! Hash table and hash-join (paper §6.2, Figure 7c).
//!
//! The hash table is a single open-addressing region `H` (linear probing,
//! load factor ≤ ½) of 16-byte entries `[key, value]`. A "good" hash
//! function destroys any input order, so both building and probing hop
//! through `H` at effectively random positions — which is exactly how the
//! model describes them (§3.2):
//!
//! ```text
//! hash_join(U, V) = s_trav(V) ⊙ r_trav(H)            (build)
//!                 ⊕ s_trav(U) ⊙ r_acc(H, U.n) ⊙ s_trav(W)   (probe)
//! ```

use crate::backend::MemoryBackend;
use crate::ctx::ExecContext;
use crate::ops::mix;
use crate::relation::Relation;
use gcm_core::{library, Pattern, Region};

/// Sentinel key marking an empty slot. Workload keys must differ from it.
pub const EMPTY: u64 = u64::MAX;

/// Entry width: `[key: u64, value: u64]`.
pub const ENTRY_BYTES: u64 = 16;

/// Table capacity in slots for `items` entries at load factor ≤ ½: the
/// next power of two ≥ 2·items. The one sizing rule shared by the real
/// tables ([`HashTable::alloc`]) and every model-side table region, so
/// predictions can never drift from the executed table size.
pub fn table_slots(items: u64) -> u64 {
    (2 * items.max(1)).next_power_of_two()
}

/// An open-addressing hash table in simulated memory.
#[derive(Debug)]
pub struct HashTable {
    slots: Relation,
    mask: u64,
}

impl HashTable {
    /// Allocate an empty table sized for `items` entries at load factor
    /// ≤ ½ (capacity = next power of two ≥ 2·items). The empty-slot
    /// sentinel fill is host-side setup.
    pub fn alloc<B: MemoryBackend>(ctx: &mut ExecContext<B>, name: &str, items: u64) -> HashTable {
        let capacity = table_slots(items);
        let slots = ctx.relation(name, capacity, ENTRY_BYTES);
        for i in 0..capacity {
            ctx.mem.host_write_u64(slots.tuple(i), EMPTY);
        }
        HashTable {
            slots,
            mask: capacity - 1,
        }
    }

    /// Table capacity in slots.
    pub fn capacity(&self) -> u64 {
        self.mask + 1
    }

    /// The model region describing the table.
    pub fn region(&self) -> &Region {
        self.slots.region()
    }

    /// Size in bytes, `||H||`.
    pub fn bytes(&self) -> u64 {
        self.slots.bytes()
    }

    /// Address of slot `slot` (for operators updating entries in place).
    pub fn slot_addr(&self, slot: u64) -> gcm_sim::Addr {
        self.slots.tuple(slot)
    }

    /// Insert `key → value` (simulated accesses; linear probing).
    /// Duplicate keys are stored in separate slots.
    pub fn insert<B: MemoryBackend>(
        ctx: &mut ExecContext<B>,
        table: &HashTable,
        key: u64,
        value: u64,
    ) {
        debug_assert_ne!(key, EMPTY);
        let mut slot = mix(key) & table.mask;
        loop {
            let addr = table.slots.tuple(slot);
            let resident = ctx.mem.read_u64(addr);
            ctx.count_ops(1);
            if resident == EMPTY {
                ctx.mem.touch(addr, ENTRY_BYTES);
                ctx.mem.host_write_u64(addr, key);
                ctx.mem.host_write_u64(addr + 8, value);
                return;
            }
            slot = (slot + 1) & table.mask;
        }
    }

    /// Probe for `key`; returns the first matching value (simulated).
    pub fn probe<B: MemoryBackend>(
        ctx: &mut ExecContext<B>,
        table: &HashTable,
        key: u64,
    ) -> Option<u64> {
        let mut slot = mix(key) & table.mask;
        loop {
            let addr = table.slots.tuple(slot);
            let resident = ctx.mem.read_u64(addr);
            ctx.count_ops(1);
            if resident == key {
                return Some(ctx.mem.read_u64(addr + 8));
            }
            if resident == EMPTY {
                return None;
            }
            slot = (slot + 1) & table.mask;
        }
    }

    /// Probe for `key`, visiting *all* matches (duplicate build keys) via
    /// `visit(value)` (simulated).
    pub fn probe_all<B: MemoryBackend>(
        ctx: &mut ExecContext<B>,
        table: &HashTable,
        key: u64,
        mut visit: impl FnMut(&mut ExecContext<B>, u64),
    ) {
        let mut slot = mix(key) & table.mask;
        loop {
            let addr = table.slots.tuple(slot);
            let resident = ctx.mem.read_u64(addr);
            ctx.count_ops(1);
            if resident == EMPTY {
                return;
            }
            if resident == key {
                let v = ctx.mem.read_u64(addr + 8);
                visit(ctx, v);
            }
            slot = (slot + 1) & table.mask;
        }
    }
}

/// CPU-operation estimate of the build phase over `items` inner tuples
/// — the build's share of the planner's hash-join `ops` (read + hash +
/// probe step + store per tuple). The service subtracts exactly this
/// share when a query reuses a shared build instead of building.
pub fn build_ops(items: u64) -> u64 {
    4 * items
}

/// The slot array `[key₀, value₀, key₁, value₁, …]` (EMPTY-filled) that
/// [`build_hash`] over a relation with these keys produces — computed
/// host-side, a **pure function of the key sequence**. Because the
/// layout is deterministic, co-admitted queries probing the same table
/// can share one immutable build and still produce byte-identical join
/// output (probing visits slots in the same order either way).
pub fn build_layout(keys: &[u64]) -> Vec<u64> {
    let capacity = table_slots(keys.len() as u64);
    let mask = capacity - 1;
    // Empty slots carry the EMPTY key and a zero value word — the same
    // bytes [`HashTable::alloc`] leaves behind (it sentinel-fills only
    // the key word of each slot; fresh memory is zeroed).
    let mut slots = vec![0u64; 2 * capacity as usize];
    for i in 0..capacity as usize {
        slots[2 * i] = EMPTY;
    }
    for (i, &key) in keys.iter().enumerate() {
        debug_assert_ne!(key, EMPTY);
        let mut slot = mix(key) & mask;
        while slots[2 * slot as usize] != EMPTY {
            slot = (slot + 1) & mask;
        }
        slots[2 * slot as usize] = key;
        slots[2 * slot as usize + 1] = i as u64;
    }
    slots
}

impl HashTable {
    /// Materialize a pre-computed [`build_layout`] into memory as
    /// host-side setup — the reuse path of a shared build: no charged
    /// build accesses, identical bytes to what [`build_hash`] would
    /// have produced.
    pub fn from_layout<B: MemoryBackend>(
        ctx: &mut ExecContext<B>,
        name: &str,
        layout: &[u64],
    ) -> HashTable {
        let capacity = (layout.len() / 2) as u64;
        debug_assert!(capacity.is_power_of_two());
        let slots = ctx.relation(name, capacity, ENTRY_BYTES);
        for (i, pair) in layout.chunks_exact(2).enumerate() {
            let addr = slots.tuple(i as u64);
            ctx.mem.host_write_u64(addr, pair[0]);
            ctx.mem.host_write_u64(addr + 8, pair[1]);
        }
        HashTable {
            slots,
            mask: capacity - 1,
        }
    }
}

/// Build a hash table over `v` (value = tuple index), reading the full
/// inner tuples sequentially.
///
/// On backends that advertise a prefetch distance, the home slot of the
/// key N tuples ahead is software-prefetched before each insert — the
/// build's table stores land at effectively random lines, so the hint
/// overlaps their misses with the current insert's work. (Peeking the
/// future key is an uncharged hint computation; the charged accesses
/// are unchanged, and the simulator's distance of 0 skips it entirely.)
pub fn build_hash<B: MemoryBackend>(
    ctx: &mut ExecContext<B>,
    v: &Relation,
    name: &str,
) -> HashTable {
    let table = HashTable::alloc(ctx, name, v.n());
    let dist = ctx.mem.prefetch_distance();
    for i in 0..v.n() {
        if dist > 0 && i + dist < v.n() {
            let ahead = ctx.mem.host_read_u64(v.tuple(i + dist));
            ctx.mem
                .prefetch_write(table.slots.tuple(mix(ahead) & table.mask));
        }
        let key = ctx.read_tuple(v, i);
        HashTable::insert(ctx, &table, key, i);
    }
    table
}

/// Hash-join `u ⋈ v` (equal keys): builds on `v`, probes with `u`, writes
/// one `out_w`-byte tuple per match.
pub fn hash_join<B: MemoryBackend>(
    ctx: &mut ExecContext<B>,
    u: &Relation,
    v: &Relation,
    out_name: &str,
    out_w: u64,
) -> Relation {
    let table = build_hash(ctx, v, &format!("H({out_name})"));
    hash_join_with_table(ctx, u, &table, out_name, out_w)
        .with_key_bound(u.key_bound().min(v.key_bound()))
}

/// The probe phase only, against a pre-built table.
///
/// One charged pass: the output reserves `u.n()` tuples at the
/// allocation tip (one match per probe, the common key/foreign-key
/// case), grows in place when duplicate build keys overflow that
/// ([`ExecContext::grow_output`]), and releases the unwritten tail at
/// the end ([`ExecContext::finish_output`]). The output keeps the probe
/// side's key bound; callers that hold the build side narrow it.
pub fn hash_join_with_table<B: MemoryBackend>(
    ctx: &mut ExecContext<B>,
    u: &Relation,
    table: &HashTable,
    out_name: &str,
    out_w: u64,
) -> Relation {
    let dist = ctx.mem.prefetch_distance();
    let mut out = ctx
        .relation(out_name, u.n(), out_w)
        .with_key_bound(u.key_bound());
    let mut cursor = 0u64;
    // Probe with N-ahead software prefetch of the home slot of the key
    // `dist` tuples ahead: the probe's dependent random table loads are
    // exactly what the paper prices as `r_acc(H)`, and the hint is what
    // lets an out-of-order core overlap them.
    for i in 0..u.n() {
        if dist > 0 && i + dist < u.n() {
            let ahead = ctx.mem.host_read_u64(u.tuple(i + dist));
            ctx.mem
                .prefetch_read(table.slots.tuple(mix(ahead) & table.mask));
        }
        let key = ctx.read_tuple(u, i);
        HashTable::probe_all(ctx, table, key, |ctx, _v| {
            if cursor == out.n() {
                out = ctx.grow_output(&out, 2 * cursor);
            }
            ctx.write_tuple(&out, cursor, key);
            ctx.count_ops(1);
            cursor += 1;
        });
    }
    ctx.finish_output(&out, cursor)
}

/// Pattern of [`build_hash`]: `s_trav(V) ⊙ r_trav(H)`.
pub fn build_hash_pattern(v: &Region, h: &Region) -> Pattern {
    library::build_hash(v.clone(), h.clone())
}

/// Pattern of [`hash_join`]:
/// `s_trav(V) ⊙ r_trav(H) ⊕ s_trav(U) ⊙ r_acc(H, U.n) ⊙ s_trav(W)`.
pub fn hash_join_pattern(u: &Region, v: &Region, h: &Region, w: &Region) -> Pattern {
    library::hash_join(u.clone(), v.clone(), h.clone(), w.clone())
}

/// Pattern of [`hash_join_with_table`] — the probe phase alone, for a
/// query reusing a shared build: `s_trav(U) ⊙ r_acc(H, U.n) ⊙ s_trav(W)`.
pub fn probe_hash_pattern(u: &Region, h: &Region, w: &Region) -> Pattern {
    library::probe_hash(u.clone(), h.clone(), w.clone())
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
    fn insert_then_probe() {
        let mut c = ctx();
        let t = HashTable::alloc(&mut c, "H", 16);
        HashTable::insert(&mut c, &t, 42, 7);
        HashTable::insert(&mut c, &t, 43, 8);
        assert_eq!(HashTable::probe(&mut c, &t, 42), Some(7));
        assert_eq!(HashTable::probe(&mut c, &t, 43), Some(8));
        assert_eq!(HashTable::probe(&mut c, &t, 44), None);
    }

    #[test]
    fn capacity_is_power_of_two_with_headroom() {
        let mut c = ctx();
        let t = HashTable::alloc(&mut c, "H", 100);
        assert_eq!(t.capacity(), 256);
        assert!(t.capacity().is_power_of_two());
    }

    #[test]
    fn many_inserts_all_findable() {
        let mut c = ctx();
        let t = HashTable::alloc(&mut c, "H", 1000);
        for k in 0..1000 {
            HashTable::insert(&mut c, &t, k, k * 3);
        }
        for k in 0..1000 {
            assert_eq!(HashTable::probe(&mut c, &t, k), Some(k * 3));
        }
        assert_eq!(HashTable::probe(&mut c, &t, 1001), None);
    }

    #[test]
    fn duplicate_keys_all_visited() {
        let mut c = ctx();
        let t = HashTable::alloc(&mut c, "H", 8);
        HashTable::insert(&mut c, &t, 5, 10);
        HashTable::insert(&mut c, &t, 5, 11);
        let mut seen = Vec::new();
        HashTable::probe_all(&mut c, &t, 5, |_, v| seen.push(v));
        seen.sort_unstable();
        assert_eq!(seen, [10, 11]);
    }

    #[test]
    fn hash_join_one_to_one() {
        let mut c = ctx();
        let mut wl = Workload::new(5);
        let (uk, vk) = wl.join_pair(500);
        let u = c.relation_from_keys("U", &uk, 8);
        let v = c.relation_from_keys("V", &vk, 8);
        let out = hash_join(&mut c, &u, &v, "W", 16);
        assert_eq!(out.n(), 500);
        let mut keys: Vec<u64> = (0..500)
            .map(|i| c.mem.host().read_u64(out.tuple(i)))
            .collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..500).collect::<Vec<u64>>());
    }

    #[test]
    fn hash_join_partial_match() {
        let mut c = ctx();
        let u = c.relation_from_keys("U", &[1, 2, 3, 100], 8);
        let v = c.relation_from_keys("V", &[2, 3, 4], 8);
        let out = hash_join(&mut c, &u, &v, "W", 16);
        assert_eq!(out.n(), 2);
    }

    #[test]
    fn hash_join_empty_sides() {
        let mut c = ctx();
        let u = c.relation("U", 0, 8);
        let v = c.relation_from_keys("V", &[1], 8);
        assert_eq!(hash_join(&mut c, &u, &v, "W", 16).n(), 0);
        let u2 = c.relation_from_keys("U2", &[1], 8);
        let v2 = c.relation("V2", 0, 8);
        assert_eq!(hash_join(&mut c, &u2, &v2, "W2", 16).n(), 1 - 1);
    }

    #[test]
    fn probe_misses_jump_when_table_exceeds_cache() {
        // The Fig 7c cliff, in miniature: per-probe misses grow once
        // ||H|| > C2 (tiny L2 = 16 KB).
        let per_probe_l2 = |n: u64| {
            let mut c = ctx();
            let mut wl = Workload::new(6);
            let (uk, vk) = wl.join_pair(n as usize);
            let u = c.relation_from_keys("U", &uk, 8);
            let v = c.relation_from_keys("V", &vk, 8);
            // Probe against the still-warm table (the paper's hash-join
            // probes right after building): a fitting table then probes
            // nearly free, an oversized one misses per probe.
            let table = build_hash(&mut c, &v, "H");
            let (_, stats) = c.measure(|c| {
                for i in 0..u.n() {
                    let key = c.read_tuple(&u, i);
                    HashTable::probe(c, &table, key);
                }
            });
            let l2 = c.mem.spec().level_index("L2").unwrap();
            stats.misses_at(l2) as f64 / n as f64
        };
        let small = per_probe_l2(256); // H = 16 KB·½ — fits L2
        let large = per_probe_l2(8192); // H = 512 KB ≫ L2
        assert!(
            large > 4.0 * small,
            "per-probe L2 misses must cliff: {small:.3} -> {large:.3}"
        );
    }

    #[test]
    fn layout_is_byte_identical_to_a_charged_build() {
        // The shared-build contract: materializing `build_layout` must
        // reproduce a charged `build_hash` bit for bit, so sharing a
        // build can never change join results.
        let mut c = ctx();
        let mut wl = Workload::new(11);
        let keys = wl.shuffled_keys(1_000);
        let v = c.relation_from_keys("V", &keys, 8);
        let built = build_hash(&mut c, &v, "H");
        let layout = build_layout(&keys);
        let shared = HashTable::from_layout(&mut c, "Hs", &layout);
        assert_eq!(built.capacity(), shared.capacity());
        assert_eq!(
            c.relation_bytes(&built.slots),
            c.relation_bytes(&shared.slots),
            "layout must match the charged build byte for byte"
        );
        // And the layout probes correctly.
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(HashTable::probe(&mut c, &shared, k), Some(i as u64));
        }
    }

    #[test]
    fn pattern_renders() {
        let mut c = ctx();
        let u = c.relation("U", 10, 8);
        let v = c.relation("V", 10, 8);
        let h = c.relation("H", 32, 16);
        let w = c.relation("W", 10, 16);
        let p = hash_join_pattern(u.region(), v.region(), h.region(), w.region());
        assert_eq!(
            p.to_string(),
            "s_trav(V) ⊙ r_trav(H) ⊕ s_trav(U) ⊙ r_acc(H, 10) ⊙ s_trav(W)"
        );
    }
}
