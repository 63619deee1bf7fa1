//! Ready-made hardware descriptions.
//!
//! [`origin2000`] reproduces the paper's Table 3 (the SGI Origin2000 the
//! experiments in §6 ran on). [`tiny`] is a deliberately small machine used
//! throughout the test suites so cache cliffs are reachable with a few
//! kilobytes of data. [`modern_commodity`] is a contemporary three-cache-
//! level machine, and [`with_buffer_pool`] demonstrates the unified-model
//! claim that disk I/O is just one more level (paper §7).

use crate::level::{Associativity, CacheLevel, LevelKind, Sharing};
use crate::spec::HardwareSpec;
use crate::{kib, mib};

/// The paper's experimentation platform (Table 3): SGI Origin2000,
/// MIPS R10000 at 250 MHz.
///
/// | level | capacity | line | lines | l_s | l_r |
/// |-------|----------|------|-------|-----|-----|
/// | L1    | 32 KB    | 32 B | 1024  | 8 ns (2 cy) | 24 ns (6 cy) |
/// | L2    | 4 MB     | 128 B| 32768 | 188 ns (47 cy) | 400 ns (100 cy) |
/// | TLB   | 64 × 16 KB pages = 1 MB | 16 KB | 64 | 228 ns (57 cy) | 228 ns |
pub fn origin2000() -> HardwareSpec {
    HardwareSpec::new(
        "SGI Origin2000 (MIPS R10000, 250 MHz)",
        250.0,
        vec![
            CacheLevel {
                name: "L1".into(),
                kind: LevelKind::Cache,
                capacity: kib(32),
                line: 32,
                assoc: Associativity::Ways(2),
                seq_miss_ns: 8.0,
                rand_miss_ns: 24.0,
                sharing: Sharing::Private,
            },
            CacheLevel {
                name: "L2".into(),
                kind: LevelKind::Cache,
                capacity: mib(4),
                line: 128,
                assoc: Associativity::Ways(2),
                seq_miss_ns: 188.0,
                rand_miss_ns: 400.0,
                sharing: Sharing::Private,
            },
            CacheLevel {
                name: "TLB".into(),
                kind: LevelKind::Tlb,
                capacity: 64 * kib(16),
                line: kib(16),
                assoc: Associativity::Full,
                seq_miss_ns: 228.0,
                rand_miss_ns: 228.0,
                sharing: Sharing::Private,
            },
        ],
    )
    .expect("origin2000 preset is valid")
}

/// The Origin2000 with *fully associative* data caches.
///
/// The analytical model ignores conflict misses (it models a fully
/// associative cache); this preset lets experiments separate capacity from
/// conflict effects (used by the associativity ablation bench).
pub fn origin2000_full_assoc() -> HardwareSpec {
    let base = origin2000();
    let levels = base
        .levels()
        .iter()
        .cloned()
        .map(|mut l| {
            l.assoc = Associativity::Full;
            l
        })
        .collect();
    HardwareSpec::new(
        format!("{} [fully associative]", base.name),
        base.cpu_mhz,
        levels,
    )
    .expect("valid")
}

/// A small machine for unit tests: cliffs are reachable with kilobytes of
/// data, so debug-mode tests stay fast.
///
/// | level | capacity | line | lines |
/// |-------|----------|------|-------|
/// | L1    | 2 KB     | 32 B | 64    |
/// | L2    | 16 KB    | 64 B | 256   |
/// | TLB   | 8 × 1 KB pages = 8 KB | 1 KB | 8 |
pub fn tiny() -> HardwareSpec {
    HardwareSpec::new(
        "tiny test machine",
        100.0,
        vec![
            CacheLevel {
                name: "L1".into(),
                kind: LevelKind::Cache,
                capacity: kib(2),
                line: 32,
                assoc: Associativity::Ways(2),
                seq_miss_ns: 5.0,
                rand_miss_ns: 15.0,
                sharing: Sharing::Private,
            },
            CacheLevel {
                name: "L2".into(),
                kind: LevelKind::Cache,
                capacity: kib(16),
                line: 64,
                assoc: Associativity::Ways(4),
                seq_miss_ns: 50.0,
                rand_miss_ns: 150.0,
                sharing: Sharing::Private,
            },
            CacheLevel {
                name: "TLB".into(),
                kind: LevelKind::Tlb,
                capacity: 8 * kib(1),
                line: kib(1),
                assoc: Associativity::Full,
                seq_miss_ns: 100.0,
                rand_miss_ns: 100.0,
                sharing: Sharing::Private,
            },
        ],
    )
    .expect("tiny preset is valid")
}

/// The tiny machine with fully-associative caches (for model-vs-simulator
/// agreement tests, where conflict misses would add noise the analytical
/// model deliberately does not predict).
pub fn tiny_full_assoc() -> HardwareSpec {
    let base = tiny();
    let levels = base
        .levels()
        .iter()
        .cloned()
        .map(|mut l| {
            l.assoc = Associativity::Full;
            l
        })
        .collect();
    HardwareSpec::new(
        format!("{} [fully associative]", base.name),
        base.cpu_mhz,
        levels,
    )
    .expect("valid")
}

/// A contemporary commodity machine: three data-cache levels plus TLB.
/// Latencies are rounded from published figures for a ~3 GHz desktop part.
pub fn modern_commodity() -> HardwareSpec {
    HardwareSpec::new(
        "modern commodity (3 GHz, 3-level cache)",
        3000.0,
        vec![
            CacheLevel {
                name: "L1".into(),
                kind: LevelKind::Cache,
                capacity: kib(32),
                line: 64,
                assoc: Associativity::Ways(8),
                seq_miss_ns: 2.0,
                rand_miss_ns: 4.0,
                sharing: Sharing::Private,
            },
            CacheLevel {
                name: "L2".into(),
                kind: LevelKind::Cache,
                capacity: mib(1),
                line: 64,
                assoc: Associativity::Ways(16),
                seq_miss_ns: 8.0,
                rand_miss_ns: 14.0,
                sharing: Sharing::Private,
            },
            CacheLevel {
                name: "L3".into(),
                kind: LevelKind::Cache,
                capacity: mib(32),
                line: 64,
                assoc: Associativity::Ways(16),
                seq_miss_ns: 25.0,
                rand_miss_ns: 90.0,
                // The LLC of a commodity part serves all cores; with the
                // default single core this is purely descriptive.
                sharing: Sharing::Shared,
            },
            CacheLevel {
                name: "TLB".into(),
                kind: LevelKind::Tlb,
                capacity: 1536 * kib(4),
                line: kib(4),
                assoc: Associativity::Full,
                seq_miss_ns: 30.0,
                rand_miss_ns: 30.0,
                sharing: Sharing::Private,
            },
        ],
    )
    .expect("modern preset is valid")
}

/// Extend a machine with a buffer-pool level: main memory of `pool_bytes`
/// acting as a cache for `page` -sized disk pages.
///
/// This realises the paper's unified-model claim (§2.3, §7): viewing the
/// buffer pool as a cache for I/O operations, disk cost falls out of the
/// same formulas. Default latencies model a ~2002 disk: sequential
/// transfer-bound pages vs seek-bound random pages.
pub fn with_buffer_pool(base: HardwareSpec, pool_bytes: u64, page: u64) -> HardwareSpec {
    // 8 KB page: sequential ≈ 80 µs (100 MB/s stream), random adds a
    // ~6 ms seek+rotate.
    let transfer_ns = page as f64 / 100e6 * 1e9;
    pooled(base, pool_bytes, page, "disk", transfer_ns, 6.0e6)
}

/// Shared buffer-pool construction of [`with_buffer_pool`] /
/// [`with_ssd_buffer_pool`]: one more [`BufferPool`](LevelKind) level
/// below the caches, charged `transfer_ns` per sequential page and an
/// extra `access_ns` per random one.
fn pooled(
    base: HardwareSpec,
    pool_bytes: u64,
    page: u64,
    suffix: &str,
    transfer_ns: f64,
    access_ns: f64,
) -> HardwareSpec {
    let mut levels: Vec<CacheLevel> = base.levels().to_vec();
    levels.push(CacheLevel {
        name: "BP".into(),
        kind: LevelKind::BufferPool,
        capacity: pool_bytes,
        line: page,
        // The buffer pool replacement policy approximates full associativity.
        assoc: Associativity::Full,
        seq_miss_ns: transfer_ns,
        rand_miss_ns: access_ns + transfer_ns,
        // Main memory is one instance regardless of core count.
        sharing: Sharing::Shared,
    });
    let cores = base.cores();
    HardwareSpec::new(format!("{} + {suffix}", base.name), base.cpu_mhz, levels)
        .expect("valid")
        .with_cores(cores)
        .expect("valid core count")
}

/// Extend a machine with an SSD-backed buffer-pool level — the same
/// unified-model construction as [`with_buffer_pool`], with flash-era
/// latencies: page transfers ≈ 400 MB/s sequential, and a ~100 µs access
/// overhead instead of a mechanical seek, so random pages cost about 5×
/// sequential ones rather than the disk's ~75×. The serving-layer
/// experiments run on this level: its milder random/sequential skew
/// keeps model-vs-simulator agreement tight at query scale while
/// capacity contention between coexisting queries still dominates
/// everything else on the machine.
pub fn with_ssd_buffer_pool(base: HardwareSpec, pool_bytes: u64, page: u64) -> HardwareSpec {
    // 8 KB page: sequential ≈ 20 µs (400 MB/s stream), random adds a
    // ~100 µs flash access.
    let transfer_ns = page as f64 / 400e6 * 1e9;
    pooled(base, pool_bytes, page, "ssd", transfer_ns, 100_000.0)
}

/// The tiny test machine as a `cores`-way SMP: per-core (private) L1 and
/// TLB, one shared L2. The multi-core analogue of [`tiny`] — cache
/// cliffs *and* sharing effects are reachable with kilobytes of data, so
/// multi-core model and service tests stay fast.
pub fn tiny_smp(cores: u32) -> HardwareSpec {
    let base = tiny();
    let levels = base
        .levels()
        .iter()
        .cloned()
        .map(|mut l| {
            if l.name == "L2" {
                l.sharing = Sharing::Shared;
            }
            l
        })
        .collect();
    HardwareSpec::new(
        format!("tiny test machine ({cores}-core SMP)"),
        base.cpu_mhz,
        levels,
    )
    .expect("tiny_smp preset is valid")
    .with_cores(cores)
    .expect("valid core count")
}

/// The modern commodity machine as a `cores`-way SMP: private L1/L2/TLB
/// per core, the 32 MB L3 shared by all cores — the shape of a current
/// desktop/server part. The ≥4-core preset of the service experiments.
pub fn modern_smp(cores: u32) -> HardwareSpec {
    let base = modern_commodity();
    HardwareSpec::new(
        format!("modern commodity ({cores}-core SMP)"),
        base.cpu_mhz,
        base.levels().to_vec(),
    )
    .expect("modern_smp preset is valid")
    .with_cores(cores)
    .expect("valid core count")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin2000_matches_table3() {
        let hw = origin2000();
        let l1 = hw.level("L1").unwrap();
        assert_eq!(l1.capacity, 32 * 1024);
        assert_eq!(l1.line, 32);
        assert_eq!(l1.lines(), 1024);
        let l2 = hw.level("L2").unwrap();
        assert_eq!(l2.capacity, 4 * 1024 * 1024);
        assert_eq!(l2.line, 128);
        assert_eq!(l2.lines(), 32768);
        let tlb = hw.level("TLB").unwrap();
        assert_eq!(tlb.lines(), 64);
        assert_eq!(tlb.line, 16 * 1024);
        assert_eq!(tlb.capacity, 1024 * 1024); // "(virtual) capacity 1 MB"

        // Latency table: 2/6 cycles L1, 47/100 cycles L2, 57 cycles TLB.
        assert!((hw.ns_to_cycles(l1.seq_miss_ns) - 2.0).abs() < 1e-9);
        assert!((hw.ns_to_cycles(l1.rand_miss_ns) - 6.0).abs() < 1e-9);
        assert!((hw.ns_to_cycles(l2.seq_miss_ns) - 47.0).abs() < 1e-9);
        assert!((hw.ns_to_cycles(l2.rand_miss_ns) - 100.0).abs() < 1e-9);
        assert!((hw.ns_to_cycles(tlb.seq_miss_ns) - 57.0).abs() < 1e-9);
    }

    #[test]
    fn table3_bandwidths() {
        // Paper Table 3: L1 miss bandwidth 3815 MB/s seq / 1272 MB/s rand,
        // L2 555 MB/s seq / 246 MB/s rand. (B/l in bytes/ns = GB/s.)
        let hw = origin2000();
        let l1 = hw.level("L1").unwrap();
        let l2 = hw.level("L2").unwrap();
        assert!((l1.seq_bandwidth() * 1000.0 - 4000.0).abs() < 200.0); // ≈3815 MB/s
        assert!((l1.rand_bandwidth() * 1000.0 - 1333.0).abs() < 70.0); // ≈1272 MB/s
        assert!((l2.seq_bandwidth() * 1000.0 - 681.0).abs() < 130.0); // ≈555 MB/s
        assert!((l2.rand_bandwidth() * 1000.0 - 320.0).abs() < 80.0); // ≈246 MB/s
    }

    #[test]
    fn tiny_is_small_and_valid() {
        let hw = tiny();
        assert!(hw.level("L1").unwrap().capacity <= 4096);
        assert_eq!(hw.tlbs().count(), 1);
    }

    #[test]
    fn modern_has_three_cache_levels() {
        assert_eq!(modern_commodity().data_caches().count(), 3);
    }

    #[test]
    fn smp_presets_mark_sharing() {
        let t = tiny_smp(4);
        assert_eq!(t.cores(), 4);
        assert_eq!(t.level("L1").unwrap().sharing, Sharing::Private);
        assert_eq!(t.level("L2").unwrap().sharing, Sharing::Shared);
        assert_eq!(t.level("TLB").unwrap().sharing, Sharing::Private);
        let m = modern_smp(8);
        assert_eq!(m.cores(), 8);
        assert_eq!(m.level("L3").unwrap().sharing, Sharing::Shared);
        assert_eq!(m.level("L2").unwrap().sharing, Sharing::Private);
        // Single-core presets stay single-core.
        assert_eq!(tiny().cores(), 1);
        assert_eq!(origin2000().cores(), 1);
    }

    #[test]
    fn thread_view_of_tiny_smp_splits_l2() {
        let t = tiny_smp(4);
        let view = t.thread_view(4);
        assert_eq!(view.level("L1").unwrap().capacity, kib(2));
        assert_eq!(view.level("L2").unwrap().capacity, kib(4));
    }

    #[test]
    fn buffer_pool_extends_hierarchy() {
        let hw = with_buffer_pool(origin2000(), 64 * 1024 * 1024, 8192);
        let bp = hw.level("BP").unwrap();
        assert_eq!(bp.kind, LevelKind::BufferPool);
        assert!(bp.rand_miss_ns > bp.seq_miss_ns * 10.0); // seek dominates
        assert_eq!(hw.levels().len(), 4);
    }

    #[test]
    fn ssd_pool_is_shared_and_mildly_skewed() {
        let hw = with_ssd_buffer_pool(modern_smp(4), 112 * 8192, 8192);
        assert_eq!(hw.cores(), 4);
        let bp = hw.level("BP").unwrap();
        assert_eq!(bp.kind, LevelKind::BufferPool);
        assert_eq!(bp.sharing, Sharing::Shared);
        assert_eq!(bp.lines(), 112);
        // Flash skew: random ≈ 5–6× sequential, nothing like a seek.
        let skew = bp.rand_miss_ns / bp.seq_miss_ns;
        assert!((3.0..10.0).contains(&skew), "skew {skew}");
        let disk = with_buffer_pool(modern_smp(4), 112 * 8192, 8192);
        assert!(disk.level("BP").unwrap().rand_miss_ns > 10.0 * bp.rand_miss_ns);
    }

    #[test]
    fn full_assoc_variants() {
        for l in origin2000_full_assoc().levels() {
            assert_eq!(l.assoc, Associativity::Full);
        }
        for l in tiny_full_assoc().levels() {
            assert_eq!(l.assoc, Associativity::Full);
        }
    }
}
