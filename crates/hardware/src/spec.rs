//! A complete machine description: CPU speed plus a hierarchy of cache
//! levels (paper §2.3, "Unified Hardware Model").

use crate::error::HardwareError;
use crate::level::{CacheLevel, LevelKind, Sharing};
use std::fmt;

/// A complete hardware description.
///
/// Levels are ordered from closest-to-CPU outward (L1, L2, …, then the TLB,
/// then optionally a buffer-pool level for disk I/O). The paper's cost model
/// treats all levels "individually, though equally" (Eq 3.1): the total
/// memory cost is the sum over all levels of misses scored by miss latency,
/// so the order only matters for the simulator, not for the model.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareSpec {
    /// Machine name for reports.
    pub name: String,
    /// CPU clock speed in MHz; used to convert calibrated CPU cycles to
    /// nanoseconds (paper Eq 6.1).
    pub cpu_mhz: f64,
    levels: Vec<CacheLevel>,
    cores: u32,
}

impl HardwareSpec {
    /// Build and validate a hardware description (single-core; use
    /// [`with_cores`](HardwareSpec::with_cores) for SMP machines).
    pub fn new(
        name: impl Into<String>,
        cpu_mhz: f64,
        levels: Vec<CacheLevel>,
    ) -> Result<Self, HardwareError> {
        let spec = HardwareSpec {
            name: name.into(),
            cpu_mhz,
            levels,
            cores: 1,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// The same machine with `cores` identical cores. Levels marked
    /// [`Sharing::Private`] exist once per core; [`Sharing::Shared`]
    /// levels are contended by all cores.
    pub fn with_cores(mut self, cores: u32) -> Result<Self, HardwareError> {
        if cores == 0 {
            return Err(HardwareError::BadCoreCount { cores });
        }
        self.cores = cores;
        Ok(self)
    }

    /// Number of cores (1 unless set via
    /// [`with_cores`](HardwareSpec::with_cores)).
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// The machine as seen by **one of `dop` concurrently running
    /// threads**: private levels keep their full capacity (every core has
    /// its own), while each shared level is cut to a `1/dop` share
    /// (rounded down to whole lines, at least one line) — the §5.2
    /// concurrent-execution rule applied across cores with equal shares.
    ///
    /// The view is a single-core machine: the service optimizes plans on
    /// `thread_view(1)`, and each batch member runs on a view of its own.
    pub fn thread_view(&self, dop: u32) -> HardwareSpec {
        let dop = dop.max(1);
        let levels = self
            .levels
            .iter()
            .map(|l| {
                if l.sharing == Sharing::Shared && dop > 1 {
                    let mut v = l.clone();
                    let lines = (l.lines() / u64::from(dop)).max(1);
                    v.capacity = lines * l.line;
                    v
                } else {
                    l.clone()
                }
            })
            .collect();
        HardwareSpec {
            name: format!("{} [1/{dop} thread view]", self.name),
            cpu_mhz: self.cpu_mhz,
            levels,
            cores: 1,
        }
    }

    fn validate(&self) -> Result<(), HardwareError> {
        if !(self.cpu_mhz.is_finite() && self.cpu_mhz > 0.0) {
            return Err(HardwareError::BadCpuSpeed { mhz: self.cpu_mhz });
        }
        if self.levels.is_empty() {
            return Err(HardwareError::NoLevels);
        }
        for l in &self.levels {
            if l.capacity == 0 {
                return Err(HardwareError::ZeroCapacity {
                    level: l.name.clone(),
                });
            }
            if l.line == 0 {
                return Err(HardwareError::ZeroLine {
                    level: l.name.clone(),
                });
            }
            if !l.line.is_power_of_two() {
                return Err(HardwareError::LineNotPowerOfTwo {
                    level: l.name.clone(),
                    line: l.line,
                });
            }
            if l.capacity % l.line != 0 {
                return Err(HardwareError::LineDoesNotDivideCapacity {
                    level: l.name.clone(),
                    capacity: l.capacity,
                    line: l.line,
                });
            }
            for v in [l.seq_miss_ns, l.rand_miss_ns] {
                if !(v.is_finite() && v > 0.0) {
                    return Err(HardwareError::BadLatency {
                        level: l.name.clone(),
                        value: v,
                    });
                }
            }
        }
        // Data-cache inclusion: line sizes must not shrink outward.
        let caches: Vec<&CacheLevel> = self
            .levels
            .iter()
            .filter(|l| l.kind == LevelKind::Cache)
            .collect();
        for pair in caches.windows(2) {
            if pair[1].line < pair[0].line {
                return Err(HardwareError::LineShrinks {
                    outer: pair[1].name.clone(),
                    inner: pair[0].name.clone(),
                });
            }
        }
        Ok(())
    }

    /// All levels, ordered inside-out.
    pub fn levels(&self) -> &[CacheLevel] {
        &self.levels
    }

    /// Only the data-cache levels (excluding TLBs and buffer pool),
    /// ordered inside-out.
    pub fn data_caches(&self) -> impl Iterator<Item = &CacheLevel> {
        self.levels.iter().filter(|l| l.kind == LevelKind::Cache)
    }

    /// The TLB levels (usually zero or one).
    pub fn tlbs(&self) -> impl Iterator<Item = &CacheLevel> {
        self.levels.iter().filter(|l| l.kind == LevelKind::Tlb)
    }

    /// Look a level up by name.
    pub fn level(&self, name: &str) -> Option<&CacheLevel> {
        self.levels.iter().find(|l| l.name == name)
    }

    /// Index of a level by name.
    pub fn level_index(&self, name: &str) -> Option<usize> {
        self.levels.iter().position(|l| l.name == name)
    }

    /// Convert CPU cycles to nanoseconds at this machine's clock speed.
    pub fn cycles_to_ns(&self, cycles: f64) -> f64 {
        cycles * 1000.0 / self.cpu_mhz
    }

    /// Convert nanoseconds to CPU cycles at this machine's clock speed.
    pub fn ns_to_cycles(&self, ns: f64) -> f64 {
        ns * self.cpu_mhz / 1000.0
    }

    /// A copy of this spec in which every level's capacity is scaled by
    /// `num/denom` (see [`CacheLevel::scaled`]). Used by the
    /// concurrent-execution combinator.
    pub fn scaled(&self, num: f64, denom: f64) -> HardwareSpec {
        HardwareSpec {
            name: self.name.clone(),
            cpu_mhz: self.cpu_mhz,
            levels: self.levels.iter().map(|l| l.scaled(num, denom)).collect(),
            cores: self.cores,
        }
    }

    /// Render the paper's Table 1 / Table 3 style characteristics table.
    pub fn characteristics_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "machine: {}\nCPU speed: {} MHz\n",
            self.name, self.cpu_mhz
        ));
        if self.cores > 1 {
            out.push_str(&format!("cores: {}\n", self.cores));
        }
        out.push_str(
            "level      kind         C [bytes]      B [bytes]  #lines     assoc            l_s [ns]  l_r [ns]\n",
        );
        for l in &self.levels {
            out.push_str(&format!(
                "{:<10} {:<12} {:>14} {:>14} {:>7}    {:<16} {:>8}  {:>8}\n",
                l.name,
                l.kind.to_string(),
                l.capacity,
                l.line,
                l.lines(),
                l.assoc.to_string(),
                l.seq_miss_ns,
                l.rand_miss_ns,
            ));
        }
        out
    }
}

impl fmt::Display for HardwareSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.characteristics_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::Associativity;

    fn lvl(name: &str, cap: u64, line: u64, kind: LevelKind) -> CacheLevel {
        CacheLevel {
            name: name.into(),
            kind,
            capacity: cap,
            line,
            assoc: Associativity::Ways(2),
            seq_miss_ns: 10.0,
            rand_miss_ns: 20.0,
            sharing: Sharing::Private,
        }
    }

    #[test]
    fn valid_spec_builds() {
        let hw = HardwareSpec::new(
            "test",
            100.0,
            vec![
                lvl("L1", 1024, 32, LevelKind::Cache),
                lvl("L2", 8192, 64, LevelKind::Cache),
                lvl("TLB", 4096, 1024, LevelKind::Tlb),
            ],
        )
        .unwrap();
        assert_eq!(hw.data_caches().count(), 2);
        assert_eq!(hw.tlbs().count(), 1);
        assert_eq!(hw.level("L2").unwrap().lines(), 128);
        assert_eq!(hw.level_index("TLB"), Some(2));
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(
            HardwareSpec::new("x", 100.0, vec![]),
            Err(HardwareError::NoLevels)
        );
    }

    #[test]
    fn rejects_zero_capacity() {
        let e = HardwareSpec::new("x", 100.0, vec![lvl("L1", 0, 32, LevelKind::Cache)]);
        assert!(matches!(e, Err(HardwareError::ZeroCapacity { .. })));
    }

    #[test]
    fn rejects_non_pow2_line() {
        let e = HardwareSpec::new("x", 100.0, vec![lvl("L1", 96, 24, LevelKind::Cache)]);
        assert!(matches!(e, Err(HardwareError::LineNotPowerOfTwo { .. })));
    }

    #[test]
    fn rejects_indivisible_line() {
        let e = HardwareSpec::new("x", 100.0, vec![lvl("L1", 100, 32, LevelKind::Cache)]);
        assert!(matches!(
            e,
            Err(HardwareError::LineDoesNotDivideCapacity { .. })
        ));
    }

    #[test]
    fn rejects_shrinking_cache_lines_but_not_tlb() {
        let e = HardwareSpec::new(
            "x",
            100.0,
            vec![
                lvl("L1", 1024, 64, LevelKind::Cache),
                lvl("L2", 8192, 32, LevelKind::Cache),
            ],
        );
        assert!(matches!(e, Err(HardwareError::LineShrinks { .. })));
        // A TLB with a big "line" (page) between caches is fine.
        let ok = HardwareSpec::new(
            "x",
            100.0,
            vec![
                lvl("L1", 1024, 32, LevelKind::Cache),
                lvl("TLB", 4096, 2048, LevelKind::Tlb),
                lvl("L2", 8192, 64, LevelKind::Cache),
            ],
        );
        assert!(ok.is_ok());
    }

    #[test]
    fn rejects_bad_latency_and_cpu() {
        let mut bad = lvl("L1", 1024, 32, LevelKind::Cache);
        bad.rand_miss_ns = -1.0;
        assert!(matches!(
            HardwareSpec::new("x", 100.0, vec![bad]),
            Err(HardwareError::BadLatency { .. })
        ));
        assert!(matches!(
            HardwareSpec::new("x", 0.0, vec![lvl("L1", 1024, 32, LevelKind::Cache)]),
            Err(HardwareError::BadCpuSpeed { .. })
        ));
    }

    #[test]
    fn cycle_conversion_roundtrip() {
        let hw =
            HardwareSpec::new("x", 250.0, vec![lvl("L1", 1024, 32, LevelKind::Cache)]).unwrap();
        // 250 MHz: 1 cycle = 4 ns.
        assert!((hw.cycles_to_ns(1.0) - 4.0).abs() < 1e-12);
        assert!((hw.ns_to_cycles(hw.cycles_to_ns(123.0)) - 123.0).abs() < 1e-9);
    }

    #[test]
    fn scaled_halves_capacity() {
        let hw =
            HardwareSpec::new("x", 100.0, vec![lvl("L1", 1024, 32, LevelKind::Cache)]).unwrap();
        let half = hw.scaled(1.0, 2.0);
        assert_eq!(half.levels()[0].capacity, 512);
    }

    #[test]
    fn cores_default_and_builder() {
        let hw =
            HardwareSpec::new("x", 100.0, vec![lvl("L1", 1024, 32, LevelKind::Cache)]).unwrap();
        assert_eq!(hw.cores(), 1);
        let smp = hw.clone().with_cores(8).unwrap();
        assert_eq!(smp.cores(), 8);
        assert_eq!(
            hw.with_cores(0),
            Err(HardwareError::BadCoreCount { cores: 0 })
        );
    }

    #[test]
    fn thread_view_scales_only_shared_levels() {
        let mut l2 = lvl("L2", 8192, 64, LevelKind::Cache);
        l2.sharing = Sharing::Shared;
        let hw = HardwareSpec::new("x", 100.0, vec![lvl("L1", 1024, 32, LevelKind::Cache), l2])
            .unwrap()
            .with_cores(4)
            .unwrap();
        let view = hw.thread_view(4);
        assert_eq!(view.cores(), 1);
        // Private L1 keeps its full capacity; shared L2 is quartered.
        assert_eq!(view.level("L1").unwrap().capacity, 1024);
        assert_eq!(view.level("L2").unwrap().capacity, 2048);
        // dop = 1 leaves everything intact.
        assert_eq!(hw.thread_view(1).level("L2").unwrap().capacity, 8192);
        // Extreme dop floors at one line.
        assert_eq!(hw.thread_view(1_000_000).level("L2").unwrap().capacity, 64);
    }

    #[test]
    fn characteristics_table_reports_cores() {
        let hw = HardwareSpec::new("x", 100.0, vec![lvl("L1", 1024, 32, LevelKind::Cache)])
            .unwrap()
            .with_cores(4)
            .unwrap();
        assert!(hw.characteristics_table().contains("cores: 4"));
        // Single-core specs keep the original table shape.
        let single = HardwareSpec::new("x", 100.0, vec![lvl("L1", 1024, 32, LevelKind::Cache)]);
        assert!(!single.unwrap().characteristics_table().contains("cores:"));
    }
}
