//! Query plans: a tree IR, a whole-plan cost-based optimizer, and an
//! executor (the paper's motivating use-case, §1, grown to whole
//! queries, §6).
//!
//! The subsystem replaces per-operator costing with *whole-plan*
//! costing: every node of a plan tree describes itself in the access-
//! pattern language, the tree's patterns are composed with `⊕` in
//! execution order, and the composed pattern is priced in one shot — so
//! the cache-state threading of Eq 5.2 (an operator reading what its
//! producer just wrote may find it cached) and the footprint sharing of
//! Eq 5.3 (concurrent cursors inside a node compete for capacity)
//! decide between plans, not per-operator cold-cache sums.
//!
//! * [`logical`] — the algorithm-free plan tree ([`LogicalPlan`]):
//!   scan / select / join / aggregate / sort / dedup / partition over
//!   any number of base relations.
//! * [`physical`] — the executable tree ([`PhysicalPlan`]): every join
//!   node carries a [`JoinAlgorithm`](crate::planner::JoinAlgorithm),
//!   every partition node a concrete fan-out.
//! * [`optimizer`] — enumerates physical alternatives per node (via the
//!   per-node costing engine in [`crate::planner`]), prices each
//!   complete tree stage by stage, and ranks them ([`Optimizer`]).
//! * [`exec`] — the one executor: lowers a physical plan onto the real
//!   operators in [`crate::ops`], serially on one core, returning the
//!   actual result *and* the compound pattern with actual intermediate
//!   cardinalities ([`execute`]). Concurrency across cores is a
//!   property of the service's batches, not of a plan: its admission
//!   controller prices co-running queries with `⊙`
//!   ([`gcm_core::CostModel::batch_cost_shared`]).
//!
//! ```
//! use gcm_core::CostModel;
//! use gcm_engine::plan::{execute, LogicalPlan, Optimizer, TableStats};
//! use gcm_engine::ExecContext;
//! use gcm_hardware::presets;
//! use gcm_workload::Workload;
//!
//! // σ(F.key < 200) ⋈ D — fact table with FK draws, dimension with PKs.
//! let logical = LogicalPlan::scan(0).select_lt(200).join(LogicalPlan::scan(1));
//!
//! let mut wl = Workload::new(7);
//! let star = wl.star_scenario(2000, 400, 1);
//! let stats = [
//!     TableStats::uniform(2000, 8, 400, false),
//!     TableStats::key_column(400, 8, false),
//! ];
//!
//! // The optimizer picks the physical plan with the cheapest
//! // whole-tree predicted cost...
//! let spec = presets::tiny();
//! let model = CostModel::new(spec.clone());
//! let best = Optimizer::new(&model).optimize(&logical, &stats).unwrap();
//!
//! // ...and the executor runs it for real over the simulator.
//! let mut ctx = ExecContext::new(spec);
//! let tables = [
//!     ctx.relation_from_keys("F", &star.fact, 8),
//!     ctx.relation_from_keys("D", &star.dims[0], 8),
//! ];
//! let run = execute(&mut ctx, &best.plan, &tables).unwrap();
//! assert!(run.output.n() > 0);
//! ```

pub mod catalog;
pub mod exec;
pub mod explain;
pub mod logical;
pub mod optimizer;
pub mod physical;

/// Width of join and aggregate output tuples: the 8-byte key plus an
/// 8-byte payload/count (the engine's `(key, value)` convention).
pub const OUT_TUPLE_BYTES: u64 = 16;

pub use catalog::{StatsCatalog, StatsSnapshot};
pub use exec::{
    execute, execute_traced, execute_with_builds, run_on, BuildSource, ExecTracer, NoPrebuilt,
    NoTrace, PlanRun, PrebuiltBuild, SpanTracer, TableDef,
};
pub use explain::{explain_analyze, plan_classes, ExplainNode, ExplainReport};
pub use logical::LogicalPlan;
pub use optimizer::{Optimizer, PlanError, PlannedQuery, TableStats};
pub use physical::PhysicalPlan;

/// The reusable optimize-to-executable entry point: enumerate physical
/// plans for `plan` under `tables` with the default optimizer
/// configuration (default CPU calibration, beam 8, cold caches) and
/// return the cheapest one, ready for [`execute`]. This is the single
/// path a caching layer memoizes — one deterministic function from
/// (logical plan, statistics) to ([`PhysicalPlan`], predicted cost) —
/// so a cache hit is guaranteed to return exactly what a fresh
/// optimization would have produced.
pub fn optimize_and_lower(
    model: &gcm_core::CostModel,
    plan: &LogicalPlan,
    tables: &[TableStats],
) -> Result<PlannedQuery, PlanError> {
    Optimizer::new(model).optimize(plan, tables)
}
