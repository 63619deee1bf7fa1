//! The shared build-side registry: one immutable hash-join build per
//! (table, statistics epoch), reused by every co-admitted query that
//! probes the same table.
//!
//! A hash-join build over a base table is a **pure function of the
//! table's key sequence** ([`gcm_engine::ops::hash::build_layout`]), so
//! queries joining the same table at the same statistics epoch can probe
//! one immutable slot array instead of each building their own — and
//! still produce byte-identical join output (probing visits slots in the
//! same order either way). The registry hands all of them the same
//! [`SharedBuild`], whose **canonical [`Region`]** is the model-side
//! identity of the shared data: every sharer's pattern references the
//! *same* region id, which is what lets the admission controller's
//! ⊙-composition count the build's footprint once across the batch
//! (Eq 5.3 via [`gcm_core::CostModel::batch_cost_shared`]) instead of
//! once per member.
//!
//! Storage is a [`TrieMap`] keyed by (table, epoch): lookups on the
//! submit path are wait-free snapshot reads, concurrent registrations
//! collapse to one build per key, and a statistics-epoch bump retires
//! stale builds the same way the plan cache retires stale plans.

use gcm_core::{Pattern, Region, RegionId};
use gcm_engine::ops::hash::{self, ENTRY_BYTES};
use gcm_trie::TrieMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Rewrite a whole-plan pattern for a query reusing a shared build over
/// the base table whose stat region is named `table_region`: find the
/// hash-join **build phase** `s_trav(T) ⊙ r_trav(H)` (the one 2-child
/// shape the optimizer emits, [`gcm_core::library::build_hash`]), drop
/// it, and substitute `H` with the build's canonical region in every
/// remaining leaf (the probe's `r_acc`) — so the sharer's pattern prices
/// the probe against the *shared* region id and skips the build
/// entirely, exactly what its execution does. Returns `None` when no
/// such phase exists (the pattern then stays un-rewritten and the build
/// is not attached, keeping prediction and execution consistent).
pub fn strip_build_phase(
    pattern: &Pattern,
    table_region: &str,
    shared: &Region,
) -> Option<Pattern> {
    let Pattern::Seq(phases) = pattern else {
        return None;
    };
    let (idx, h_id) = phases.iter().enumerate().find_map(|(i, ph)| {
        let Pattern::Conc(cs) = ph else { return None };
        let [Pattern::STrav { r: rv, .. }, Pattern::RTrav { r: rh, .. }] = cs.as_slice() else {
            return None;
        };
        // The build phase over *this* table with a table sized like the
        // shared layout (same slot rule ⇒ same bytes).
        (rv.name() == table_region && rh.bytes() == shared.bytes()).then(|| (i, rh.id()))
    })?;
    let rewritten = phases
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != idx)
        .map(|(_, ph)| substitute_region(ph, h_id, shared))
        .collect();
    Some(Pattern::seq(rewritten))
}

/// Replace every leaf over region `from` with the same access over
/// `to` (same counts and widths, the shared region's identity).
fn substitute_region(p: &Pattern, from: RegionId, to: &Region) -> Pattern {
    match p {
        Pattern::Seq(ps) => {
            Pattern::Seq(ps.iter().map(|q| substitute_region(q, from, to)).collect())
        }
        Pattern::Conc(ps) => {
            Pattern::Conc(ps.iter().map(|q| substitute_region(q, from, to)).collect())
        }
        Pattern::Repeat { k, inner } => Pattern::Repeat {
            k: *k,
            inner: Box::new(substitute_region(inner, from, to)),
        },
        basic => {
            if basic.region().is_some_and(|r| r.id() == from) {
                let mut swapped = basic.clone();
                match &mut swapped {
                    Pattern::STrav { r, .. }
                    | Pattern::RsTrav { r, .. }
                    | Pattern::RTrav { r, .. }
                    | Pattern::RrTrav { r, .. }
                    | Pattern::RAcc { r, .. }
                    | Pattern::Nest { r, .. } => *r = to.clone(),
                    Pattern::Seq(_) | Pattern::Conc(_) | Pattern::Repeat { .. } => {
                        unreachable!("basic pattern")
                    }
                }
                swapped
            } else {
                basic.clone()
            }
        }
    }
}

/// One immutable, shareable hash-join build side.
#[derive(Debug)]
pub struct SharedBuild {
    /// Catalog index of the built table.
    pub table: usize,
    /// Statistics epoch the build belongs to.
    pub epoch: u64,
    /// The canonical model region for the slot array. Every query
    /// reusing this build substitutes this region (same id) into its
    /// probe pattern, so ⊙-pricing recognizes the data as shared.
    pub region: Region,
    /// The slot array ([`hash::build_layout`]): `[key, value]` pairs,
    /// EMPTY-keyed in vacant slots. Workers materialize it host-side
    /// ([`gcm_engine::plan::PrebuiltBuild`]) without charged accesses.
    pub layout: Arc<Vec<u64>>,
}

/// Registry of shared builds keyed by (table, epoch).
#[derive(Debug, Default)]
pub struct BuildRegistry {
    entries: TrieMap<(usize, u64), Arc<SharedBuild>>,
    built: AtomicU64,
    reused: AtomicU64,
}

impl BuildRegistry {
    /// An empty registry.
    pub fn new() -> BuildRegistry {
        BuildRegistry::default()
    }

    /// The shared build for `table` at `epoch`, computing the layout on
    /// first request, plus whether *this* call computed it. The first
    /// requester (`true`) has just registered the layout — it still owes
    /// the build work itself, so its own pattern keeps the charged build
    /// phase; later requesters (`false`) probe the registered layout and
    /// skip the build. The hit path is a wait-free snapshot read; two
    /// concurrent first requests may both compute the layout but publish
    /// (and hand out) exactly one build.
    pub fn get_or_build(&self, table: usize, epoch: u64, keys: &[u64]) -> (Arc<SharedBuild>, bool) {
        if let Some(b) = self.entries.snapshot().get(&(table, epoch)) {
            self.reused.fetch_add(1, Ordering::Relaxed);
            return (Arc::clone(b), false);
        }
        let mut computed = false;
        let b = self.entries.get_or_insert_with((table, epoch), || {
            computed = true;
            let slots = hash::table_slots(keys.len() as u64);
            Arc::new(SharedBuild {
                table,
                epoch,
                region: Region::new(format!("H#{table}@{epoch}"), slots, ENTRY_BYTES),
                layout: Arc::new(hash::build_layout(keys)),
            })
        });
        if computed {
            self.built.fetch_add(1, Ordering::Relaxed);
        } else {
            self.reused.fetch_add(1, Ordering::Relaxed);
        }
        (b, computed)
    }

    /// Drop builds from statistics epochs before `epoch` (their tables'
    /// data changed). Returns how many were retired.
    pub fn retire_epochs_before(&self, epoch: u64) -> u64 {
        self.entries.retain(|(_, e), _| *e >= epoch) as u64
    }

    /// Drop every build of `table` (its data changed, whether or not
    /// the statistics epoch moved). Returns how many were retired.
    pub fn retire_table(&self, table: usize) -> u64 {
        self.entries.retain(|(t, _), _| *t != table) as u64
    }

    /// Number of builds currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no builds are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Builds computed (registry misses).
    pub fn built(&self) -> u64 {
        self.built.load(Ordering::Relaxed)
    }

    /// Requests served from an existing build (reuses).
    pub fn reused(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_returns_the_same_build() {
        let reg = BuildRegistry::new();
        let keys: Vec<u64> = (0..500).map(|i| (i * 7) % 400).collect();
        let (a, first) = reg.get_or_build(0, 0, &keys);
        let (b, second) = reg.get_or_build(0, 0, &keys);
        assert!(first, "first request computes");
        assert!(!second, "second request reuses");
        assert!(Arc::ptr_eq(&a, &b), "one build per (table, epoch)");
        assert_eq!(a.region.id(), b.region.id(), "one canonical region");
        assert_eq!(reg.built(), 1);
        assert_eq!(reg.reused(), 1);
        // A different epoch is a different build with its own region.
        let (c, _) = reg.get_or_build(0, 1, &keys);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_ne!(a.region.id(), c.region.id());
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn layout_matches_the_pure_function() {
        let reg = BuildRegistry::new();
        let keys: Vec<u64> = (0..300).map(|i| (i * 13) % 250).collect();
        let (b, _) = reg.get_or_build(2, 5, &keys);
        assert_eq!(*b.layout, hash::build_layout(&keys));
        assert_eq!(b.region.bytes(), b.layout.len() as u64 * 8);
        assert_eq!(b.table, 2);
        assert_eq!(b.epoch, 5);
    }

    #[test]
    fn retire_drops_stale_epochs_only() {
        let reg = BuildRegistry::new();
        let keys = vec![1, 2, 3];
        reg.get_or_build(0, 0, &keys);
        reg.get_or_build(1, 0, &keys);
        reg.get_or_build(0, 1, &keys);
        assert_eq!(reg.retire_epochs_before(1), 2);
        assert_eq!(reg.len(), 1);
        assert!(!reg.is_empty());
        assert_eq!(reg.retire_epochs_before(1), 0);
    }

    #[test]
    fn retire_table_drops_every_epoch_of_that_table_only() {
        let reg = BuildRegistry::new();
        let keys = vec![1, 2, 3];
        reg.get_or_build(0, 0, &keys);
        reg.get_or_build(0, 1, &keys);
        reg.get_or_build(1, 1, &keys);
        assert_eq!(reg.retire_table(0), 2);
        assert_eq!(reg.len(), 1);
        // The next request rebuilds from the keys it is given.
        let (b, computed) = reg.get_or_build(0, 1, &[4, 5]);
        assert!(computed);
        assert_eq!(*b.layout, hash::build_layout(&[4, 5]));
    }

    #[test]
    fn strip_build_phase_drops_the_build_and_renames_the_probe() {
        // σ(T0) ⋈H T1 as the optimizer composes it.
        let t1 = Region::new("T1", 400, 8);
        let s = Region::new("S", 500, 8);
        let h = Region::new("H", hash::table_slots(400), ENTRY_BYTES);
        let j = Region::new("J", 500, 16);
        let select = Pattern::s_trav(Region::new("T0", 2_000, 8));
        let pattern = Pattern::seq(vec![
            select.clone(),
            gcm_core::library::hash_join(s.clone(), t1.clone(), h.clone(), j.clone()),
        ]);
        let canon = Region::new("H#1@0", hash::table_slots(400), ENTRY_BYTES);
        let stripped = strip_build_phase(&pattern, "T1", &canon).unwrap();
        let text = stripped.to_string();
        assert!(
            !text.contains("r_trav(H"),
            "build phase must be gone: {text}"
        );
        assert!(
            text.contains("r_acc(H#1@0"),
            "probe must use the canonical region: {text}"
        );
        assert!(gcm_core::references_region(&stripped, canon.id()));
        assert!(!gcm_core::references_region(&stripped, h.id()));
        // A pattern without a matching build phase is left alone.
        assert!(strip_build_phase(&pattern, "T9", &canon).is_none());
        assert!(strip_build_phase(&select, "T1", &canon).is_none());
        // A mis-sized canonical region (stale layout) refuses to match.
        let wrong = Region::new("H#1@0", 8, ENTRY_BYTES);
        assert!(strip_build_phase(&pattern, "T1", &wrong).is_none());
    }

    #[test]
    fn concurrent_requests_share_one_build() {
        let reg = Arc::new(BuildRegistry::new());
        let keys: Vec<u64> = (0..200).collect();
        let builds: Vec<Arc<SharedBuild>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let reg = Arc::clone(&reg);
                    let keys = keys.clone();
                    s.spawn(move || reg.get_or_build(3, 7, &keys).0)
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let first = &builds[0];
        for b in &builds {
            assert!(Arc::ptr_eq(first, b), "all threads must get one build");
        }
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.built() + reg.reused(), 8);
    }
}
