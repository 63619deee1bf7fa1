//! The whole-plan cost-based optimizer.
//!
//! For each join node the optimizer asks the per-node costing engine
//! ([`crate::planner::join_candidates`]) for every algorithm's pattern
//! description; for each open partition node it derives candidate
//! fan-outs from the cache hierarchy. Alternatives are combined across
//! the tree (beam-pruned at every node to keep enumeration tractable),
//! and each surviving *complete* tree is priced as **one** composed
//! pattern `node₁ ⊕ node₂ ⊕ …` in execution order — so the cache-state
//! threading of Eq 5.2 (a consumer reading its producer's still-cached
//! output) and the footprint sharing of Eq 5.3 (concurrent cursors
//! inside each node) decide the ranking, not per-operator cold-cache
//! sums.
//!
//! The logical-statistics side (cardinalities, key bounds, sortedness)
//! is the component the paper assumes a perfect oracle for (§1); here
//! it is propagated from per-table [`TableStats`] under a
//! uniform-independent-keys assumption.

use super::logical::LogicalPlan;
use super::physical::PhysicalPlan;
use super::OUT_TUPLE_BYTES;
use crate::ops;
use crate::planner::{self, JoinInputs};
use gcm_core::distinct::expected_distinct;
use gcm_core::{CacheState, CostModel, CpuCost, Pattern, Region};
use std::fmt;

/// Why a plan could not be produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A scan references a catalog index outside the provided tables.
    UnknownTable {
        /// The offending catalog index.
        table: usize,
        /// Number of tables actually provided.
        tables: usize,
    },
    /// A node produced no physical candidate (e.g. no admissible
    /// partition fan-out on a degenerate hierarchy).
    NoCandidates,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::UnknownTable { table, tables } => {
                write!(f, "plan references table {table} but only {tables} exist")
            }
            PlanError::NoCandidates => write!(f, "a plan node has no physical candidate"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Logical statistics of one base relation — the optimizer's stand-in
/// for the paper's perfect logical-cost oracle (§1). Keys are assumed
/// uniform over `[0, key_bound)`.
#[derive(Debug, Clone)]
pub struct TableStats {
    /// Cardinality.
    pub n: u64,
    /// Tuple width in bytes.
    pub w: u64,
    /// Exclusive upper bound on key values.
    pub key_bound: u64,
    /// Expected number of distinct keys.
    pub distinct: f64,
    /// Whether the relation is key-sorted.
    pub sorted: bool,
    /// Region identity to use for this table, if pinned (see
    /// [`TableStats::pinned`]); fresh per enumeration otherwise.
    pub region: Option<Region>,
}

impl TableStats {
    /// A column of `n` uniform draws from `[0, key_bound)` — e.g. a
    /// fact table's foreign keys. The distinct count follows the §4.6
    /// occupancy expectation.
    pub fn uniform(n: u64, w: u64, key_bound: u64, sorted: bool) -> TableStats {
        TableStats {
            n,
            w,
            key_bound,
            distinct: expected_distinct(key_bound, n),
            sorted,
            region: None,
        }
    }

    /// A column holding each key of `0..n` exactly once — e.g. a
    /// dimension table's primary keys.
    pub fn key_column(n: u64, w: u64, sorted: bool) -> TableStats {
        TableStats {
            n,
            w,
            key_bound: n,
            distinct: n as f64,
            sorted,
            region: None,
        }
    }

    /// Pin the table to an existing region identity — e.g. the region
    /// of the actual [`crate::Relation`] — so a warm
    /// [`Optimizer::with_initial_state`] can refer to it.
    pub fn pinned(mut self, region: &Region) -> TableStats {
        self.region = Some(region.clone());
        self
    }
}

/// Derived statistics of an intermediate result, threaded bottom-up.
#[derive(Debug, Clone)]
struct NodeStats {
    n: u64,
    w: u64,
    key_bound: u64,
    distinct: f64,
    sorted: bool,
    /// The region this node's output occupies — shared (by id) with
    /// every pattern that reads it, which is what lets Eq 5.2 price the
    /// producer→consumer reuse.
    region: Region,
}

/// One priced complete plan.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// The executable plan.
    pub plan: PhysicalPlan,
    /// The whole-plan composed pattern (estimated cardinalities).
    pub pattern: Pattern,
    /// Predicted memory time, ns: Eq 3.1 threaded stage by stage
    /// (Eq 5.2).
    pub mem_ns: f64,
    /// Predicted CPU time (Eq 6.1), ns.
    pub cpu_ns: f64,
    /// Estimated logical operations across all nodes.
    pub ops: u64,
}

impl PlannedQuery {
    /// Predicted total elapsed time (Eq 6.1), ns.
    pub fn total_ns(&self) -> f64 {
        self.mem_ns + self.cpu_ns
    }
}

/// One stage of a physical alternative: one operator's pattern plus
/// its logical-op estimate.
#[derive(Debug, Clone)]
struct Stage {
    pattern: Pattern,
    ops: u64,
}

/// One in-progress alternative for a subtree.
#[derive(Debug, Clone)]
struct Alt {
    plan: PhysicalPlan,
    /// Stages in execution order.
    stages: Vec<Stage>,
    stats: NodeStats,
    /// Staged memory price, filled by [`Optimizer::prune`] and reused
    /// by [`Optimizer::enumerate`] when the subtree is the whole plan.
    /// Every `apply_*` constructor resets it to `None`, so a stale
    /// subtree price can never leak into a larger tree.
    priced_mem: Option<f64>,
}

impl Alt {
    fn total_ops(&self) -> u64 {
        self.stages.iter().map(|s| s.ops).sum()
    }
}

/// The whole-plan optimizer. Construct with [`Optimizer::new`], then
/// [`enumerate`](Optimizer::enumerate) or
/// [`optimize`](Optimizer::optimize).
#[derive(Debug)]
pub struct Optimizer<'a> {
    model: &'a CostModel,
    cpu: CpuCost,
    beam: usize,
    initial_state: CacheState,
}

impl<'a> Optimizer<'a> {
    /// An optimizer over the given machine model, with the default CPU
    /// calibration, a beam width of 8 alternatives per node, and cold
    /// starting caches. Every plan it emits runs serially on one core:
    /// the machine's core count does not enter planning (concurrency
    /// across cores is priced between queries, by the service's
    /// admission controller).
    pub fn new(model: &'a CostModel) -> Optimizer<'a> {
        Optimizer {
            model,
            cpu: CpuCost::default_planner(),
            beam: 8,
            initial_state: CacheState::cold(),
        }
    }

    /// Use a calibrated CPU cost instead of the default per-op
    /// constant.
    pub fn with_cpu(mut self, cpu: CpuCost) -> Optimizer<'a> {
        self.cpu = cpu;
        self
    }

    /// Keep at most `beam` alternatives per node (≥ 1). Wider beams
    /// enumerate more complete plans at higher optimization cost.
    pub fn with_beam(mut self, beam: usize) -> Optimizer<'a> {
        self.beam = beam.max(1);
        self
    }

    /// Price plans as if they start from `state` instead of cold caches
    /// (Eq 5.2 across *queries*: e.g. a plan running right after
    /// another one).
    pub fn with_initial_state(mut self, state: CacheState) -> Optimizer<'a> {
        self.initial_state = state;
        self
    }

    /// Enumerate complete physical plans (at most the beam width),
    /// each priced as one composed pattern, cheapest first.
    pub fn enumerate(
        &self,
        plan: &LogicalPlan,
        tables: &[TableStats],
    ) -> Result<Vec<PlannedQuery>, PlanError> {
        // One region per base table for the whole enumeration: a table
        // scanned twice (e.g. a self-join) must keep one identity, or
        // Eq 5.2 cannot price the rescan reuse.
        let regions: Vec<Region> = tables
            .iter()
            .enumerate()
            .map(|(i, t)| {
                t.region
                    .clone()
                    .unwrap_or_else(|| Region::new(format!("T{i}"), t.n, t.w))
            })
            .collect();
        let alts = self.alts(plan, tables, &regions)?;
        let mut out: Vec<PlannedQuery> = alts
            .into_iter()
            .map(|a| {
                let mem_ns = a.priced_mem.unwrap_or_else(|| self.price_mem(&a.stages));
                let cpu_ns = self.price_cpu(&a.stages);
                let ops = a.total_ops();
                PlannedQuery {
                    plan: a.plan,
                    pattern: Pattern::seq(a.stages.into_iter().map(|s| s.pattern).collect()),
                    mem_ns,
                    cpu_ns,
                    ops,
                }
            })
            .collect();
        out.sort_by(|a, b| a.total_ns().total_cmp(&b.total_ns()));
        Ok(out)
    }

    /// Memory time of a stage list: states threaded level by level
    /// across stages (Eq 5.2).
    fn price_mem(&self, stages: &[Stage]) -> f64 {
        let mut st = self.model.staged(&self.initial_state);
        stages.iter().fold(0.0, |mem, stage| {
            mem + self.model.advance(&stage.pattern, &mut st).mem_ns
        })
    }

    /// CPU time: the fixed charge plus every stage's logical ops.
    fn price_cpu(&self, stages: &[Stage]) -> f64 {
        stages.iter().fold(self.cpu.fixed_ns, |ns, stage| {
            ns + self.cpu.per_op_ns * stage.ops as f64
        })
    }

    /// The cheapest complete plan by whole-plan predicted cost.
    pub fn optimize(
        &self,
        plan: &LogicalPlan,
        tables: &[TableStats],
    ) -> Result<PlannedQuery, PlanError> {
        self.enumerate(plan, tables)?
            .into_iter()
            .next()
            .ok_or(PlanError::NoCandidates)
    }

    /// Alternatives for a subtree, beam-pruned by composed-subtree
    /// predicted cost.
    fn alts(
        &self,
        node: &LogicalPlan,
        tables: &[TableStats],
        regions: &[Region],
    ) -> Result<Vec<Alt>, PlanError> {
        let alts = match node {
            LogicalPlan::Scan { table } => {
                let t = tables.get(*table).ok_or(PlanError::UnknownTable {
                    table: *table,
                    tables: tables.len(),
                })?;
                vec![Alt {
                    priced_mem: None,
                    plan: PhysicalPlan::scan(*table),
                    stages: Vec::new(),
                    stats: NodeStats {
                        n: t.n,
                        w: t.w,
                        key_bound: t.key_bound,
                        distinct: t.distinct,
                        sorted: t.sorted,
                        region: regions[*table].clone(),
                    },
                }]
            }
            LogicalPlan::Select { input, threshold } => self
                .alts(input, tables, regions)?
                .into_iter()
                .map(|a| self.apply_select(a, *threshold))
                .collect(),
            LogicalPlan::Join { left, right } => {
                let ls = self.alts(left, tables, regions)?;
                let rs = self.alts(right, tables, regions)?;
                let mut out = Vec::new();
                for l in &ls {
                    for r in &rs {
                        out.extend(self.apply_join(l, r));
                    }
                }
                out
            }
            LogicalPlan::Aggregate { input } => self
                .alts(input, tables, regions)?
                .into_iter()
                .map(|a| self.apply_aggregate(a))
                .collect(),
            LogicalPlan::Sort { input } => self
                .alts(input, tables, regions)?
                .into_iter()
                .map(|a| self.apply_sort(a))
                .collect(),
            LogicalPlan::Dedup { input } => self
                .alts(input, tables, regions)?
                .into_iter()
                .map(|a| self.apply_dedup(a))
                .collect(),
            LogicalPlan::Partition { input, m } => {
                let mut out = Vec::new();
                for a in self.alts(input, tables, regions)? {
                    out.extend(self.apply_partition(&a, *m));
                }
                out
            }
        };
        if alts.is_empty() {
            return Err(PlanError::NoCandidates);
        }
        Ok(self.prune(alts))
    }

    /// Keep the `beam` cheapest alternatives by staged-subtree cost.
    /// The computed memory price is cached on each survivor, so the
    /// root-level [`Optimizer::enumerate`] does not price it again.
    fn prune(&self, mut alts: Vec<Alt>) -> Vec<Alt> {
        if alts.len() <= self.beam {
            return alts;
        }
        let mut priced: Vec<(f64, Alt)> = alts
            .drain(..)
            .map(|mut a| {
                let mem = self.price_mem(&a.stages);
                a.priced_mem = Some(mem);
                (mem + self.price_cpu(&a.stages), a)
            })
            .collect();
        priced.sort_by(|a, b| a.0.total_cmp(&b.0));
        priced.truncate(self.beam);
        priced.into_iter().map(|(_, a)| a).collect()
    }

    fn apply_select(&self, input: Alt, threshold: u64) -> Alt {
        let s = input.stats;
        let ratio = if s.key_bound == 0 {
            0.0
        } else {
            (threshold as f64 / s.key_bound as f64).min(1.0)
        };
        let out_n = (s.n as f64 * ratio).round() as u64;
        let region = Region::new("S", out_n, s.w);
        let mut stages = input.stages;
        stages.push(Stage {
            pattern: ops::scan::select_pattern(&s.region, &region),
            ops: s.n,
        });
        Alt {
            priced_mem: None,
            plan: input.plan.select_lt(threshold),
            stats: NodeStats {
                n: out_n,
                w: s.w,
                key_bound: s.key_bound.min(threshold),
                distinct: (s.distinct * ratio).min(out_n as f64),
                sorted: s.sorted,
                region,
            },
            stages,
        }
    }

    fn apply_join(&self, left: &Alt, right: &Alt) -> Vec<Alt> {
        let (l, r) = (&left.stats, &right.stats);
        let max_bound = l.key_bound.max(r.key_bound).max(1);
        let out_n = (l.n as f64 * r.n as f64 / max_bound as f64).round() as u64;
        let inputs = JoinInputs {
            u: l.region.clone(),
            v: r.region.clone(),
            out_w: OUT_TUPLE_BYTES,
            out_n,
            u_sorted: l.sorted,
            v_sorted: r.sorted,
        };
        let out_region = Region::new("J", out_n, OUT_TUPLE_BYTES);
        let mut out = Vec::new();
        for cand in planner::join_candidates(self.model, &inputs, &out_region) {
            let sorted = match cand.algorithm {
                planner::JoinAlgorithm::Merge { .. } => true,
                planner::JoinAlgorithm::NestedLoop | planner::JoinAlgorithm::Hash => l.sorted,
                planner::JoinAlgorithm::PartitionedHash { .. } => false,
            };
            let stats = NodeStats {
                n: out_n,
                w: OUT_TUPLE_BYTES,
                key_bound: l.key_bound.min(r.key_bound),
                distinct: l.distinct.min(r.distinct).min(out_n as f64),
                sorted,
                region: out_region.clone(),
            };
            let mut stages = left.stages.clone();
            stages.extend(right.stages.iter().cloned());
            stages.push(Stage {
                pattern: cand.pattern,
                ops: cand.ops,
            });
            out.push(Alt {
                priced_mem: None,
                plan: left
                    .plan
                    .clone()
                    .join_with(right.plan.clone(), cand.algorithm),
                stages,
                stats,
            });
        }
        out
    }

    fn apply_aggregate(&self, input: Alt) -> Alt {
        let s = input.stats;
        let out_n = (s.distinct.round() as u64).min(s.n);
        let region = Region::new("G", out_n, OUT_TUPLE_BYTES);
        let h = Region::new(
            "H",
            ops::aggregate::group_table_slots(s.n, s.key_bound),
            ops::hash::ENTRY_BYTES,
        );
        let mut stages = input.stages;
        stages.push(Stage {
            pattern: ops::aggregate::hash_group_pattern(&s.region, &h, &region),
            ops: 2 * s.n + out_n,
        });
        Alt {
            priced_mem: None,
            plan: input.plan.group_count(),
            stats: NodeStats {
                n: out_n,
                w: OUT_TUPLE_BYTES,
                key_bound: s.key_bound,
                distinct: out_n as f64,
                sorted: false,
                region,
            },
            stages,
        }
    }

    fn apply_sort(&self, input: Alt) -> Alt {
        let s = input.stats;
        let mut stages = input.stages;
        stages.push(Stage {
            pattern: ops::sort::quick_sort_pattern(&s.region),
            ops: ops::sort::quick_sort_expected_ops(s.n),
        });
        Alt {
            priced_mem: None,
            plan: input.plan.sort(),
            stats: NodeStats { sorted: true, ..s },
            stages,
        }
    }

    fn apply_dedup(&self, input: Alt) -> Alt {
        let s = &input.stats;
        let out_n = (s.distinct.round() as u64).min(s.n);
        let region = Region::new("D", out_n, s.w);
        let mut stages = input.stages;
        stages.push(Stage {
            pattern: ops::aggregate::sort_dedup_pattern(&s.region, &region),
            ops: ops::sort::quick_sort_expected_ops(s.n) + s.n + out_n,
        });
        Alt {
            priced_mem: None,
            plan: input.plan.dedup(),
            stats: NodeStats {
                n: out_n,
                w: s.w,
                key_bound: s.key_bound,
                distinct: out_n as f64,
                sorted: true,
                region,
            },
            stages,
        }
    }

    fn apply_partition(&self, input: &Alt, m: Option<u64>) -> Vec<Alt> {
        let fanouts: Vec<u64> = match m {
            Some(m) => vec![m.max(1)],
            None => self.candidate_fanouts(&input.stats),
        };
        let s = &input.stats;
        fanouts
            .into_iter()
            .map(|m| {
                let region = Region::new("P", s.n, s.w);
                let mut stages = input.stages.clone();
                stages.push(Stage {
                    pattern: ops::partition::partition_pattern(&s.region, &region, m),
                    ops: s.n,
                });
                Alt {
                    priced_mem: None,
                    plan: input.plan.clone().partition(m),
                    stages,
                    stats: NodeStats {
                        n: s.n,
                        w: s.w,
                        key_bound: s.key_bound,
                        distinct: s.distinct,
                        sorted: false,
                        region,
                    },
                }
            })
            .collect()
    }

    /// Candidate fan-outs for an open partition node: per cache level,
    /// the smallest power of two that makes one partition fit the
    /// level ([`planner::fitting_fanout`]). When the input fits every
    /// level, a minimal two-way split remains the single candidate (the
    /// node still has to partition).
    fn candidate_fanouts(&self, s: &NodeStats) -> Vec<u64> {
        let bytes = s.n.saturating_mul(s.w).max(1);
        let mut out: Vec<u64> = self
            .model
            .spec()
            .data_caches()
            .filter_map(|lvl| planner::fitting_fanout(self.model, bytes, lvl))
            .collect();
        out.sort_unstable();
        out.dedup();
        if out.is_empty() {
            out.push(2);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::JoinAlgorithm;
    use gcm_hardware::presets;

    fn model() -> CostModel {
        CostModel::new(presets::origin2000())
    }

    fn star_stats(fact_n: u64, dim_n: u64) -> Vec<TableStats> {
        vec![
            TableStats::uniform(fact_n, 8, dim_n, false),
            TableStats::key_column(dim_n, 8, false),
            TableStats::key_column(dim_n, 8, false),
        ]
    }

    fn star_query(threshold: u64) -> LogicalPlan {
        LogicalPlan::scan(0)
            .select_lt(threshold)
            .join(LogicalPlan::scan(1))
            .join(LogicalPlan::scan(2))
            .group_count()
    }

    #[test]
    fn enumerates_multiple_complete_plans() {
        let m = model();
        let q = star_query(6000);
        let plans = Optimizer::new(&m)
            .enumerate(&q, &star_stats(48_000, 12_000))
            .unwrap();
        assert!(plans.len() >= 4, "only {} plans", plans.len());
        // Every plan is complete: two join algorithms chosen.
        for p in &plans {
            assert_eq!(p.plan.join_algorithms().len(), 2);
            assert!(p.total_ns() > 0.0);
        }
        // Sorted cheapest-first.
        for w in plans.windows(2) {
            assert!(w[0].total_ns() <= w[1].total_ns());
        }
        // Alternatives genuinely differ.
        let first = plans[0].plan.to_string();
        assert!(plans.iter().any(|p| p.plan.to_string() != first));
    }

    #[test]
    fn whole_plan_cost_is_not_the_cold_sum() {
        // The composed pattern must price below the sum of its phases
        // priced cold: the consumer finds the producer's output (partly)
        // cached (Eq 5.2).
        let m = model();
        let q = LogicalPlan::scan(0)
            .select_lt(2_000)
            .join(LogicalPlan::scan(1))
            .group_count();
        let stats = vec![
            TableStats::uniform(20_000, 8, 10_000, false),
            TableStats::key_column(10_000, 8, false),
        ];
        let best = Optimizer::new(&m).optimize(&q, &stats).unwrap();
        let composed = best.mem_ns;
        let cold_sum: f64 = match &best.pattern {
            Pattern::Seq(phases) => phases.iter().map(|p| m.mem_ns(p)).sum(),
            p => m.mem_ns(p),
        };
        assert!(
            composed < 0.95 * cold_sum,
            "composed {composed:.0} ns should undercut cold sum {cold_sum:.0} ns"
        );
    }

    #[test]
    fn l1_resident_dimensions_choose_hash_joins() {
        // Dimension hash tables fit L1 on the Origin2000 (512 keys →
        // 16 KB table): probes are nearly free, while merge would pay
        // an n·log n sort of the fact side. Hash must win both joins.
        let m = model();
        let best = Optimizer::new(&m)
            .optimize(&star_query(256), &star_stats(48_000, 512))
            .unwrap();
        for algo in best.plan.join_algorithms() {
            assert!(
                matches!(algo, JoinAlgorithm::Hash),
                "expected hash join, got {algo} in {}",
                best.plan
            );
        }
    }

    #[test]
    fn streaming_scale_chooses_merge_joins() {
        // At half-million-row fact tables with 512 KB+ dimension hash
        // tables, random probe traffic loses to sequential sort+merge
        // sweeps (the §6.2 economics) — and nested loop never appears.
        let m = model();
        let plans = Optimizer::new(&m)
            .enumerate(&star_query(6000), &star_stats(480_000, 120_000))
            .unwrap();
        assert!(matches!(
            plans[0].plan.join_algorithms()[0],
            JoinAlgorithm::Merge { .. }
        ));
        for p in &plans {
            assert!(
                !p.plan
                    .join_algorithms()
                    .iter()
                    .any(|a| matches!(a, JoinAlgorithm::NestedLoop)),
                "nested loop survived the beam: {}",
                p.plan
            );
        }
    }

    #[test]
    fn sorted_dimensions_steer_to_merge() {
        // Pre-sorted inputs flip the first join to merge without sorts.
        let m = model();
        let q = LogicalPlan::scan(0).join(LogicalPlan::scan(1));
        let stats = vec![
            TableStats::key_column(4_000_000, 8, true),
            TableStats::key_column(4_000_000, 8, true),
        ];
        let best = Optimizer::new(&m).optimize(&q, &stats).unwrap();
        assert!(matches!(
            best.plan.join_algorithms()[0],
            JoinAlgorithm::Merge {
                sort_u: false,
                sort_v: false
            }
        ));
    }

    #[test]
    fn beam_truncates_enumeration() {
        let m = model();
        let q = star_query(6000);
        let stats = star_stats(48_000, 12_000);
        let wide = Optimizer::new(&m)
            .with_beam(8)
            .enumerate(&q, &stats)
            .unwrap();
        let narrow = Optimizer::new(&m)
            .with_beam(2)
            .enumerate(&q, &stats)
            .unwrap();
        assert!(wide.len() > narrow.len());
        assert_eq!(narrow.len(), 2);
        // The winner survives narrowing.
        assert_eq!(wide[0].plan, narrow[0].plan);
    }

    #[test]
    fn open_partition_fanouts_are_enumerated() {
        let m = model();
        let q = LogicalPlan::scan(0).partition(None);
        let stats = vec![TableStats::uniform(2_000_000, 8, 1 << 40, false)];
        let plans = Optimizer::new(&m).enumerate(&q, &stats).unwrap();
        assert!(!plans.is_empty());
        let mut fanouts = Vec::new();
        for p in &plans {
            match &p.plan {
                PhysicalPlan::Partition { m, .. } => fanouts.push(*m),
                other => panic!("expected partition root, got {other}"),
            }
        }
        // Fan-outs stay below the TLB entry count (64): the Figure 7d
        // cliff is respected.
        assert!(fanouts.iter().all(|&m| (2..=64).contains(&m)));
    }

    #[test]
    fn self_join_scans_share_one_region_identity() {
        // Both scans of table 0 must carry the same region id, or Eq 5.2
        // cannot price the rescan reuse.
        let m = CostModel::new(presets::tiny());
        let q = LogicalPlan::scan(0).join(LogicalPlan::scan(0));
        let stats = vec![TableStats::key_column(1_000, 8, false)];
        let best = Optimizer::new(&m).optimize(&q, &stats).unwrap();
        let base_ids: std::collections::HashSet<_> = best
            .pattern
            .leaves()
            .into_iter()
            .filter_map(|l| l.region())
            .filter(|r| r.name() == "T0")
            .map(gcm_core::Region::id)
            .collect();
        assert_eq!(base_ids.len(), 1, "expected one shared T0 identity");
    }

    #[test]
    fn unknown_table_is_reported() {
        let m = model();
        let q = LogicalPlan::scan(5);
        let err = Optimizer::new(&m)
            .optimize(&q, &star_stats(100, 10))
            .unwrap_err();
        assert_eq!(
            err,
            PlanError::UnknownTable {
                table: 5,
                tables: 3
            }
        );
        assert!(err.to_string().contains("table 5"));
    }

    #[test]
    fn planning_does_not_depend_on_core_count() {
        // Every plan runs serially, so a multi-core machine must plan
        // exactly like its single-thread view: same plans, same prices.
        let join = || LogicalPlan::scan(0).join(LogicalPlan::scan(1));
        let join_stats = |n: u64| {
            vec![
                TableStats::key_column(n, 8, false),
                TableStats::key_column(n, 8, false),
            ]
        };
        let cases = [
            (join(), join_stats(65_536)),
            (join(), join_stats(256)),
            (
                LogicalPlan::scan(0).select_lt(500_000).group_count(),
                vec![TableStats::uniform(1_000_000, 8, 1_000_000, false)],
            ),
            (star_query(6000), star_stats(48_000, 12_000)),
        ];
        let summary = |plans: Vec<PlannedQuery>| -> Vec<(String, u64, u64, u64)> {
            plans
                .into_iter()
                .map(|p| {
                    let plan = p.plan.to_string();
                    (plan, p.mem_ns.to_bits(), p.cpu_ns.to_bits(), p.ops)
                })
                .collect()
        };
        for spec in [presets::tiny_smp(4), presets::modern_smp(4)] {
            let multi = CostModel::new(spec.clone());
            let single = CostModel::new(spec.thread_view(1));
            for (q, stats) in &cases {
                let a = Optimizer::new(&multi).enumerate(q, stats).unwrap();
                let b = Optimizer::new(&single).enumerate(q, stats).unwrap();
                assert_eq!(summary(a), summary(b), "{q} on {}", spec.name);
            }
        }
    }

    #[test]
    fn warm_initial_state_discounts_resident_tables() {
        // Pricing from a state where the (pinned) inputs are resident
        // must be cheaper than pricing cold.
        let m = CostModel::new(presets::tiny());
        let q = LogicalPlan::scan(0).join(LogicalPlan::scan(1));
        let fact = Region::new("F", 1_000, 8);
        let dim = Region::new("D", 500, 8);
        let stats = vec![
            TableStats::uniform(1_000, 8, 500, false).pinned(&fact),
            TableStats::key_column(500, 8, false).pinned(&dim),
        ];
        let cold = Optimizer::new(&m).optimize(&q, &stats).unwrap();
        let mut warm = CacheState::cold();
        warm.set(&fact, 1.0);
        warm.set(&dim, 1.0);
        let warmed = Optimizer::new(&m)
            .with_initial_state(warm)
            .optimize(&q, &stats)
            .unwrap();
        assert!(
            warmed.mem_ns < cold.mem_ns,
            "warm {} vs cold {}",
            warmed.mem_ns,
            cold.mem_ns
        );
    }
}
