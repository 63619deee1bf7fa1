//! # gcm-service — a cache-contention-aware query service
//!
//! The paper's `⊙` operator (§5.2, Eq 5.3) prices access patterns that
//! *coexist* in one cache hierarchy. This crate applies it **between
//! queries**: a concurrent service that accepts logical plans over
//! registered relations and lets the cost model itself decide how the
//! machine is shared. Three cooperating components:
//!
//! * a **plan cache** ([`cache::PlanCache`]) memoizing
//!   [`optimize_and_lower`] per (plan fingerprint, statistics epoch) —
//!   statistics drift past the [`StatsCatalog`] threshold bumps the
//!   epoch and forces re-optimization;
//! * a **⊙-priced admission controller** ([`admission`]) that greedily
//!   forms the next batch from the pending queue, admitting a query
//!   only while the `⊙`-composed batch wall time
//!   ([`gcm_core::CostModel::batch_cost`]) beats appending the query
//!   serially — the model decides the concurrency degree across
//!   queries, while each query's plan runs serially on one core;
//! * an **executor pool** ([`executor`]) of [`std::thread::scope`]
//!   workers, each running one admitted query with the shared builds
//!   admission priced, on a simulated hierarchy view or on host memory
//!   (the path `gcm-net` serves), with the same bookkeeping on both:
//!   records in [`ServiceMetrics`], execute spans and drift samples.
//!
//! ```
//! use gcm_engine::plan::LogicalPlan;
//! use gcm_hardware::presets;
//! use gcm_service::QueryService;
//! use gcm_workload::Workload;
//!
//! let mut svc = QueryService::new(presets::modern_smp(4));
//! let mut wl = Workload::new(7);
//! let star = wl.star_scenario(4_000, 512, 1);
//! let fact = svc.register_table("F", star.fact, 8);
//! let dim = svc.register_table("D", star.dims[0].clone(), 8);
//!
//! // Two scans and a join land in the queue...
//! for cut in [128, 256] {
//!     svc.submit(LogicalPlan::scan(fact).select_lt(cut).group_count())
//!         .unwrap();
//! }
//! svc.submit(
//!     LogicalPlan::scan(fact)
//!         .select_lt(256)
//!         .join(LogicalPlan::scan(dim))
//!         .group_count(),
//! )
//! .unwrap();
//!
//! // ...and the service batches and executes them.
//! svc.run().unwrap();
//! let m = svc.metrics();
//! assert_eq!(m.queries.len(), 3);
//! assert!(m.total_wall_ns() > 0.0);
//! ```

pub mod admission;
pub mod builds;
pub mod cache;
pub mod executor;
pub mod metrics;
pub mod mix;
pub mod recalibrate;

pub use admission::{AdmissionConfig, BatchDecision, SloPolicy, DEFAULT_DISPATCH_NS};
pub use builds::{strip_build_phase, BuildRegistry, SharedBuild};
#[cfg(feature = "mutex-baseline")]
pub use cache::MutexPlanCache;
pub use cache::{PlanCache, PlanKey};
pub use executor::ExecutedQuery;
pub use metrics::{BatchRecord, QueryRecord, ServiceMetrics, ShedRecord};
pub use mix::{plan_for, TenantTables};
pub use recalibrate::{Recalibration, Recalibrator};

use builds::shared_regions;
use executor::{BatchBackend, ExecutedBatch, Member};
use gcm_core::{CostModel, CpuCost, Pattern};
use gcm_engine::ops::hash::build_ops;
use gcm_engine::plan::{
    catalog::DEFAULT_DRIFT_THRESHOLD, explain_analyze, optimize_and_lower, plan_classes,
    ExplainReport, LogicalPlan, PhysicalPlan, PlanError, PlannedQuery, StatsCatalog, TableDef,
    TableStats,
};
use gcm_engine::{ExecContext, NativeBackend, SimBackend};
use gcm_hardware::HardwareSpec;
use gcm_obs::pmu::PmuStatus;
use gcm_obs::{DriftMonitor, FlightRecorder, Span, SpanKind, SpanRecorder};
use gcm_workload::TenantClass;
use std::collections::VecDeque;
use std::sync::Arc;

/// Service knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Hard cap on batch size; 0 means "the machine's core count".
    pub max_batch: usize,
    /// CPU calibration: nanoseconds per logical operation (used both
    /// for predictions and for scoring measured runs, Eq 6.1).
    pub per_op_ns: f64,
    /// Per-worker dispatch charge, ns (see [`AdmissionConfig`]).
    pub dispatch_ns: f64,
    /// Statistics drift fraction beyond which cached plans go stale
    /// (see [`StatsCatalog`]).
    pub drift_threshold: f64,
    /// Per-class sojourn budgets turning admission into overload
    /// shedding ([`QueryService::next_batch_at`]); `None` (the
    /// default) never sheds.
    pub slo: Option<SloPolicy>,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            max_batch: 0,
            per_op_ns: CpuCost::DEFAULT_PLANNER_PER_OP_NS,
            dispatch_ns: DEFAULT_DISPATCH_NS,
            drift_threshold: DEFAULT_DRIFT_THRESHOLD,
            slo: None,
        }
    }
}

/// One pending (optimized, not yet executed) query.
#[derive(Debug, Clone)]
struct Pending {
    id: u64,
    planned: Arc<PlannedQuery>,
    /// The pattern the admission controller prices: the planned pattern
    /// with every shared build phase stripped and the probe redirected
    /// at the build's canonical region ([`strip_build_phase`]); the
    /// planned pattern unchanged when nothing is shared.
    pattern: Arc<Pattern>,
    /// Predicted CPU time matching `pattern`: the planned `cpu_ns`
    /// minus the build share of every stripped build phase.
    cpu_ns: f64,
    /// The shared builds this query probes instead of building.
    builds: Vec<Arc<SharedBuild>>,
    /// The submitter's tenant class ([`QueryService::submit_classed`]):
    /// `None` for plain [`QueryService::submit`], which exempts the
    /// query from shedding and sorts it behind every classed one.
    class: Option<TenantClass>,
    /// When the query arrived, in the caller's clock (ns) — the sojourn
    /// the shed pass projects starts here.
    arrival_ns: u64,
    /// Predicted stand-alone time (planned memory + serving-path CPU),
    /// ns — the query's contribution to the backlog projection.
    solo_ns: f64,
    /// The shed gate already evaluated this query and kept it. A
    /// committed query is never re-judged — the shed/serve decision is
    /// made exactly once, at arrival cost, which is what makes shed
    /// responses *fast* (a late re-shed would cost the client the very
    /// sojourn the budget was supposed to cap).
    committed: bool,
}

/// An admitted batch, ready to execute. Produced by
/// [`QueryService::next_batch`], consumed by
/// [`QueryService::execute_batch`].
#[derive(Debug, Clone)]
pub struct Batch {
    entries: Vec<Pending>,
    /// Predicted wall time (⊙-composed slowest member + dispatch), ns.
    pub predicted_wall_ns: f64,
    /// Predicted serial fallback for the same members, ns.
    pub predicted_serial_ns: f64,
    per_query_ns: Vec<f64>,
}

impl Batch {
    /// Number of member queries.
    pub fn size(&self) -> usize {
        self.entries.len()
    }

    /// Member query ids, in batch order.
    pub fn ids(&self) -> Vec<u64> {
        self.entries.iter().map(|p| p.id).collect()
    }

    /// Member physical plans, in batch order.
    pub fn plans(&self) -> Vec<&PhysicalPlan> {
        self.entries.iter().map(|p| &p.planned.plan).collect()
    }

    /// Predicted batching speedup over serial execution (1.0 for a
    /// singleton).
    pub fn predicted_speedup(&self) -> f64 {
        if self.predicted_wall_ns > 0.0 {
            self.predicted_serial_ns / self.predicted_wall_ns
        } else {
            1.0
        }
    }
}

/// The query service: registered relations on one shared machine, a
/// plan cache, the ⊙-priced batch scheduler, and the executor pool.
/// See the [crate docs](crate) for the architecture.
#[derive(Debug)]
pub struct QueryService {
    spec: HardwareSpec,
    /// Prices batches: the shared machine with its `Sharing`
    /// attributes (the `⊙`-across-cores rule needs them).
    batch_model: CostModel,
    /// Prices and optimizes single plans: one core's full-capacity
    /// view. The service spends its concurrency budget *across*
    /// queries, so plans are optimized serial (one core per query).
    plan_model: CostModel,
    catalog: StatsCatalog,
    tables: Vec<Arc<TableDef>>,
    cache: Arc<PlanCache>,
    builds: Arc<BuildRegistry>,
    queue: VecDeque<Pending>,
    cfg: ServiceConfig,
    next_id: u64,
    metrics: ServiceMetrics,
    /// The service trace: control-path spans (optimize / build-attach /
    /// admission) and the per-operator execute spans batch workers hand
    /// back ([`executor::execute_batch`]), recorded by the service
    /// thread into one fixed-capacity buffer (overflow dropped and
    /// counted).
    spans: SpanRecorder,
    /// Per-operator-class measured/predicted drift
    /// ([`DriftMonitor::needs_recalibration`] asks for a re-calibrate).
    drift: DriftMonitor,
    /// Closes the drift loop when installed
    /// ([`QueryService::set_recalibrator`]): a raised flag triggers a
    /// background probe run whose result is swapped in atomically.
    recal: Option<Recalibrator>,
    /// Completed recalibrations applied to this service.
    recalibrations: u64,
    /// Post-hoc debugging ring: the last
    /// [`FLIGHT_CAPACITY`](QueryService::FLIGHT_CAPACITY) EXPLAIN
    /// ANALYZE reports ([`QueryService::explain_analyze`]).
    flight: FlightRecorder,
    /// EWMA of the admission controller's predicted batch speedup —
    /// the ⊙-informed drain rate the shed projection divides the
    /// backlog by.
    drain_speedup: f64,
    /// EWMA of measured-wall / predicted-wall over executed batches:
    /// the bridge from model nanoseconds to the caller's clock in the
    /// shed projection. Seeded by the first executed batch.
    wall_scale: f64,
    wall_scale_seeded: bool,
}

impl QueryService {
    /// A service on the given machine with the default configuration.
    pub fn new(spec: HardwareSpec) -> QueryService {
        QueryService::with_config(spec, ServiceConfig::default())
    }

    /// A service with explicit knobs.
    pub fn with_config(spec: HardwareSpec, cfg: ServiceConfig) -> QueryService {
        let plan_model = CostModel::new(spec.thread_view(1));
        let batch_model = CostModel::new(spec.clone());
        QueryService {
            spec,
            batch_model,
            plan_model,
            catalog: StatsCatalog::new(Vec::new()).with_drift_threshold(cfg.drift_threshold),
            tables: Vec::new(),
            cache: Arc::new(PlanCache::new()),
            builds: Arc::new(BuildRegistry::new()),
            queue: VecDeque::new(),
            cfg,
            next_id: 0,
            metrics: ServiceMetrics::default(),
            spans: SpanRecorder::new(),
            drift: DriftMonitor::new(),
            recal: None,
            recalibrations: 0,
            flight: FlightRecorder::new(QueryService::FLIGHT_CAPACITY),
            drain_speedup: 1.0,
            wall_scale: 1.0,
            wall_scale_seeded: false,
        }
    }

    /// EXPLAIN ANALYZE reports kept in the [`flight`](QueryService::flight)
    /// ring before the oldest is evicted.
    pub const FLIGHT_CAPACITY: usize = 32;

    /// Record a control-path span (optimize / build-attach / admission)
    /// in the service trace. A no-op when tracing is off.
    fn ctl_span(&self, name: String, kind: SpanKind, start_ns: u64, end_ns: u64, ops: u64) {
        self.spans.record(Span {
            name,
            kind,
            start_ns,
            end_ns,
            elapsed_ns: end_ns.saturating_sub(start_ns) as f64,
            accesses: 0,
            level_misses: Vec::new(),
            ops,
        });
    }

    /// Register a relation (a key column of `w`-byte tuples), deriving
    /// its [`TableStats`] from the data. Returns the catalog index
    /// submitted plans reference.
    pub fn register_table(&mut self, name: &str, keys: Vec<u64>, w: u64) -> usize {
        let stats = derive_stats(&keys, w);
        let idx = self.catalog.push(stats);
        self.tables.push(Arc::new(TableDef::new(name, keys, w)));
        idx
    }

    /// Replace a registered relation's data, refreshing its statistics.
    /// Returns `true` when the stats drifted past the threshold and
    /// bumped the epoch (stale plan-cache entries are retired). The
    /// table's shared builds are retired either way: a build is a
    /// function of the data, not of the statistics, so one that
    /// survived a below-threshold update would serve the old keys.
    pub fn update_table(&mut self, idx: usize, keys: Vec<u64>) -> bool {
        let w = self.tables[idx].w;
        let stats = derive_stats(&keys, w);
        self.tables[idx] = Arc::new(TableDef::new(self.tables[idx].name.clone(), keys, w));
        self.builds.retire_table(idx);
        let bumped = self.catalog.update(idx, stats);
        if bumped {
            let epoch = self.catalog.epoch();
            self.cache.retire_epochs_before(epoch);
            self.builds.retire_epochs_before(epoch);
        }
        bumped
    }

    /// Submit a logical plan: optimize it (through the plan cache,
    /// against a consistent statistics snapshot) and append it to the
    /// pending queue, attaching the shared build side of every hash
    /// join over a base table ([`BuildRegistry`]). Returns the query id.
    pub fn submit(&mut self, plan: LogicalPlan) -> Result<u64, PlanError> {
        self.submit_inner(plan, None, 0)
    }

    /// Submit a logical plan on behalf of a tenant class, stamping its
    /// arrival time (in the caller's clock, ns). Classed submissions
    /// participate in SLO shedding and priority ordering when
    /// [`ServiceConfig::slo`] is set and the queue is drained through
    /// [`QueryService::next_batch_at`]; plain
    /// [`submit`](QueryService::submit)s never shed.
    pub fn submit_classed(
        &mut self,
        plan: LogicalPlan,
        class: TenantClass,
        arrival_ns: u64,
    ) -> Result<u64, PlanError> {
        self.submit_inner(plan, Some(class), arrival_ns)
    }

    fn submit_inner(
        &mut self,
        plan: LogicalPlan,
        class: Option<TenantClass>,
        arrival_ns: u64,
    ) -> Result<u64, PlanError> {
        let snap = self.catalog.snapshot();
        let key = (plan.fingerprint(), snap.epoch());
        let t0 = self.spans.now_ns();
        let planned = self.cache.get_or_optimize(key, &plan, || {
            optimize_and_lower(&self.plan_model, &plan, snap.tables())
        })?;
        let t1 = self.spans.now_ns();
        let (pattern, cpu_ns, builds) = self.attach_shared_builds(&planned, snap.epoch());
        let t2 = self.spans.now_ns();
        let id = self.next_id;
        self.next_id += 1;
        self.ctl_span(format!("optimize q{id}"), SpanKind::Optimize, t0, t1, 0);
        self.ctl_span(
            format!("attach-builds q{id}"),
            SpanKind::Build,
            t1,
            t2,
            builds.len() as u64,
        );
        let solo_ns = planned.mem_ns + cpu_ns;
        self.queue.push_back(Pending {
            id,
            planned,
            pattern,
            cpu_ns,
            builds,
            class,
            arrival_ns,
            solo_ns,
            committed: false,
        });
        let depth = self.queue.len() as f64;
        self.metrics.registry.set_gauge(metrics::QUEUE_DEPTH, depth);
        self.metrics
            .registry
            .gauge_max(metrics::QUEUE_DEPTH_PEAK, depth);
        Ok(id)
    }

    /// Register (or reuse) a shared build for every hash join in the
    /// planned query whose build side is a base-table scan, returning
    /// the query's serving-path pattern, its matching CPU prediction,
    /// and the builds to hand the executor. The *first* query to request
    /// a (table, epoch) build registers the layout but keeps its charged
    /// build phase — somebody has to pay for the build, and it is the
    /// builder. Every later query at the same key reuses: its build
    /// phase is stripped, its probe redirected at the canonical shared
    /// region, and the planner's build share subtracted from its CPU
    /// prediction (via [`build_ops`] — the same term the planner
    /// charged). A rewrite that does not match keeps the planned pattern
    /// for that join, so prediction and execution never disagree.
    fn attach_shared_builds(
        &self,
        planned: &PlannedQuery,
        epoch: u64,
    ) -> (Arc<Pattern>, f64, Vec<Arc<SharedBuild>>) {
        let mut pattern = planned.pattern.clone();
        let mut cpu_ns = planned.cpu_ns;
        let mut builds: Vec<Arc<SharedBuild>> = Vec::new();
        for t in planned
            .plan
            .nodes()
            .into_iter()
            .filter_map(PhysicalPlan::shared_build_table)
        {
            let Some(data) = self.tables.get(t) else {
                continue;
            };
            let (b, computed) = self.builds.get_or_build(t, epoch, data);
            if computed {
                continue;
            }
            if let Some(stripped) = strip_build_phase(&pattern, &format!("T{t}"), &b.region) {
                pattern = stripped;
                cpu_ns -= CpuCost::default_planner().ns(build_ops(data.keys.len() as u64));
                builds.push(b);
            }
        }
        (Arc::new(pattern), cpu_ns.max(0.0), builds)
    }

    /// Number of queries waiting for admission.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Ask the admission controller for the next batch, removing the
    /// admitted queries from the queue. `None` when the queue is empty.
    /// The decision is pure pricing — callers may inspect the batch
    /// (sizes, predicted times) without executing it.
    pub fn next_batch(&mut self) -> Option<Batch> {
        let order: Vec<usize> = (0..self.queue.len()).collect();
        self.form_batch(&order)
    }

    /// The SLO-aware scheduling step: run the shed pass at `now_ns`
    /// (the caller's clock, same units as the `arrival_ns` handed to
    /// [`submit_classed`](QueryService::submit_classed)), then form the
    /// next batch from the surviving queue in class-priority order.
    /// Returns the queries shed this turn — the caller owes each a
    /// fail-fast response — and the batch (`None` when the queue is
    /// empty).
    ///
    /// The shed predicate is a ⊙ sojourn projection. Walking the queue
    /// in ([`TenantClass::priority`], arrival) order and keeping a
    /// running sum of predicted stand-alone work `cum`, a query `q` is
    /// shed iff
    ///
    /// ```text
    /// waited(q) + scale · (cum + solo(q)) / speedup  >  budget(class(q))
    /// ```
    ///
    /// where `speedup` is the EWMA of the admission controller's
    /// ⊙-priced batch speedup (how much faster than serial the service
    /// drains when the model lets queries coexist) and `scale` the
    /// EWMA of measured-wall / predicted-wall (model nanoseconds →
    /// caller-clock nanoseconds). Unclassed queries never shed but
    /// their work still counts toward the backlog.
    ///
    /// The decision is made **once**, at the query's first pass: shed
    /// now (the fail-fast reply costs one projection, no execution) or
    /// commit to serving it even if the projection later sours. Without
    /// commitment the steady-state backlog hovers exactly at the
    /// budget, every borderline query is kept and re-judged until its
    /// deadline passes, and "shed" responses arrive as late as served
    /// ones — the opposite of fail-fast.
    ///
    /// Without an [`SloPolicy`] installed this degenerates to
    /// [`next_batch`](QueryService::next_batch) in arrival order and
    /// sheds nothing.
    pub fn next_batch_at(&mut self, now_ns: u64) -> (Vec<ShedRecord>, Option<Batch>) {
        if self.cfg.slo.is_none() {
            return (Vec::new(), self.next_batch());
        }
        let shed = self.shed_pass(now_ns);
        let order = self.priority_order();
        let batch = self.form_batch(&order);
        (shed, batch)
    }

    /// Queue indices in ([`TenantClass::priority`], arrival) order;
    /// unclassed queries sort behind every classed one.
    fn priority_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.queue.len()).collect();
        order.sort_by_key(|&i| self.queue[i].class.map_or(u8::MAX, TenantClass::priority));
        order
    }

    /// Shed every classed query whose projected sojourn overruns its
    /// class budget (see [`next_batch_at`](QueryService::next_batch_at)
    /// for the predicate), removing it from the queue and recording it
    /// into [`ServiceMetrics`].
    fn shed_pass(&mut self, now_ns: u64) -> Vec<ShedRecord> {
        let Some(slo) = self.cfg.slo else {
            return Vec::new();
        };
        let speedup = self.drain_speedup.max(1.0);
        let scale = self.wall_scale;
        let mut cum = 0.0f64;
        let mut doomed: Vec<usize> = Vec::new();
        let mut records: Vec<ShedRecord> = Vec::new();
        for i in self.priority_order() {
            let p = &self.queue[i];
            let Some(class) = p.class else {
                cum += p.solo_ns;
                continue;
            };
            // Already judged and kept: it counts toward the backlog
            // but is never shed (see the method docs — re-judging is
            // what makes sheds slow).
            if p.committed {
                cum += p.solo_ns;
                continue;
            }
            let waited = now_ns.saturating_sub(p.arrival_ns) as f64;
            let projected = waited + scale * (cum + p.solo_ns) / speedup;
            let budget = slo.budget_ns(class);
            if projected > budget {
                doomed.push(i);
                records.push(ShedRecord {
                    id: p.id,
                    class,
                    waited_ns: waited as u64,
                    projected_ns: projected,
                    budget_ns: budget,
                });
            } else {
                cum += p.solo_ns;
                self.queue[i].committed = true;
            }
        }
        doomed.sort_unstable_by(|a, b| b.cmp(a));
        for i in doomed {
            self.queue.remove(i);
        }
        for r in &records {
            self.metrics.record_shed(r.clone());
        }
        self.metrics
            .registry
            .set_gauge(metrics::QUEUE_DEPTH, self.queue.len() as f64);
        records
    }

    /// Form a batch from the queue considered in `order` (indices into
    /// the queue), removing the admitted queries.
    fn form_batch(&mut self, order: &[usize]) -> Option<Batch> {
        let t0 = self.spans.now_ns();
        let candidates: Vec<admission::Candidate<'_>> = order
            .iter()
            .map(|&i| {
                let p = &self.queue[i];
                admission::Candidate {
                    pattern: &p.pattern,
                    cpu_ns: p.cpu_ns,
                }
            })
            .collect();
        let shared = shared_regions(self.queue.iter().flat_map(|p| &p.builds));
        let cfg = AdmissionConfig {
            max_batch: if self.cfg.max_batch == 0 {
                self.spec.cores() as usize
            } else {
                self.cfg.max_batch
            },
            dispatch_ns: self.cfg.dispatch_ns,
        };
        let decision = admission::next_batch(&self.batch_model, &candidates, &cfg, &shared)?;
        // `admitted` indexes into `order`; map back to queue indices,
        // remove back to front so earlier indices stay valid, then
        // restore admission order.
        let chosen: Vec<usize> = decision.admitted.iter().map(|&k| order[k]).collect();
        let mut by_desc = chosen.clone();
        by_desc.sort_unstable_by(|a, b| b.cmp(a));
        let mut removed: Vec<(usize, Pending)> = by_desc
            .into_iter()
            .map(|i| (i, self.queue.remove(i).expect("admitted index in queue")))
            .collect();
        let entries: Vec<Pending> = chosen
            .iter()
            .map(|i| {
                let pos = removed
                    .iter()
                    .position(|(j, _)| j == i)
                    .expect("admitted exactly once");
                removed.swap_remove(pos).1
            })
            .collect();
        // Fold the decision's ⊙ speedup into the drain-rate EWMA the
        // shed projection divides by.
        self.drain_speedup = 0.7 * self.drain_speedup + 0.3 * decision.predicted_speedup();
        self.metrics
            .registry
            .set_gauge(metrics::QUEUE_DEPTH, self.queue.len() as f64);
        let t1 = self.spans.now_ns();
        self.ctl_span(
            format!("admission[{}]", entries.len()),
            SpanKind::Admission,
            t0,
            t1,
            entries.len() as u64,
        );
        Some(Batch {
            entries,
            predicted_wall_ns: decision.predicted_wall_ns,
            predicted_serial_ns: decision.predicted_serial_ns,
            per_query_ns: decision.per_query_ns,
        })
    }

    /// Execute an admitted batch on the simulated worker pool and record
    /// it. Returns the index of the new
    /// [`BatchRecord`](ServiceMetrics::batches).
    pub fn execute_batch(&mut self, batch: Batch) -> Result<usize, PlanError> {
        self.run_batch::<SimBackend>(batch)?;
        Ok(self.metrics.batches.len() - 1)
    }

    /// Execute an admitted batch on the **host's real memory** (the path
    /// behind the network front end): the same results and bookkeeping as
    /// [`execute_batch`](QueryService::execute_batch), wall-clock
    /// latencies, and each run paired with its query id for routing.
    pub fn execute_batch_native_observed(
        &mut self,
        batch: Batch,
    ) -> Result<Vec<(u64, ExecutedQuery)>, PlanError> {
        self.run_batch::<NativeBackend>(batch)
    }

    /// Run a batch on backend `B` ([`executor::execute_batch`]) and do all
    /// its bookkeeping: spans, [`QueryRecord`]s, drift samples, the
    /// [`BatchRecord`], the wall-scale EWMA, recalibration and counters.
    fn run_batch<B: BatchBackend>(
        &mut self,
        batch: Batch,
    ) -> Result<Vec<(u64, ExecutedQuery)>, PlanError> {
        let members: Vec<Member<'_>> = batch
            .entries
            .iter()
            .map(|p| Member {
                plan: &p.planned.plan,
                pattern: &p.pattern,
                builds: &p.builds,
            })
            .collect();
        let ExecutedBatch {
            queries: runs,
            spans,
            wall_ns,
        } = executor::execute_batch::<B>(
            &self.spec,
            &self.tables,
            &members,
            self.cfg.per_op_ns,
            self.cfg.dispatch_ns,
            &self.spans,
        )?;
        for span in spans {
            self.spans.record(span);
        }
        let batch_idx = self.metrics.batches.len();
        for ((pending, run), predicted_ns) in
            batch.entries.iter().zip(&runs).zip(&batch.per_query_ns)
        {
            // Service-level drift: the whole-query measured/predicted
            // ratio, attributed to every operator class the plan
            // contains (once per class). Coarser than the per-node
            // attribution of `explain_analyze` — here a stale class
            // shows up on every plan shape that uses it, which is the
            // signal the recalibration flag needs.
            let mut classes = plan_classes(&pending.planned.plan);
            classes.sort_unstable();
            classes.dedup();
            for class in classes {
                self.drift.observe(class, run.measured_ns, *predicted_ns);
            }
            self.metrics.record_query(QueryRecord {
                id: pending.id,
                batch: batch_idx,
                predicted_ns: *predicted_ns,
                measured_ns: run.measured_ns,
                output_n: run.output_n,
                output_hash: run.output_hash,
            });
        }
        self.metrics.record_batch(BatchRecord {
            ids: batch.ids(),
            predicted_wall_ns: batch.predicted_wall_ns,
            predicted_serial_ns: batch.predicted_serial_ns,
            measured_wall_ns: wall_ns,
        });
        self.observe_wall_scale(wall_ns, batch.predicted_wall_ns);
        // Close the drift loop without stalling the serving path: a
        // raised flag starts a background probe, and any probe that
        // finished since the last batch is applied now.
        self.pump_recalibration(false);
        self.sync_cache_counters();
        Ok(batch.ids().into_iter().zip(runs).collect())
    }

    /// Fold one measured/predicted batch-wall ratio into the
    /// [`wall_scale`](QueryService::wall_scale) EWMA (seeded by the
    /// first observation, clamped to keep one outlier batch from
    /// poisoning the projection).
    fn observe_wall_scale(&mut self, measured_wall_ns: f64, predicted_wall_ns: f64) {
        let ratio = measured_wall_ns / predicted_wall_ns.max(1.0);
        self.wall_scale = if self.wall_scale_seeded {
            0.8 * self.wall_scale + 0.2 * ratio
        } else {
            ratio
        };
        self.wall_scale_seeded = true;
        self.wall_scale = self.wall_scale.clamp(1e-4, 1e4);
    }

    /// The current model-ns → caller-clock EWMA the shed projection
    /// multiplies predicted work by (1.0 until a batch has been
    /// observed).
    pub fn wall_scale(&self) -> f64 {
        self.wall_scale
    }

    /// Replace the SLO policy, returning the previous one. A server
    /// front end uses this to run its warmup traffic unshedded (the
    /// wall-scale EWMA is unseeded until the first measured batch, so
    /// projections would be nonsense) and to A/B the shed gate.
    pub fn set_slo(&mut self, slo: Option<SloPolicy>) -> Option<SloPolicy> {
        std::mem::replace(&mut self.cfg.slo, slo)
    }

    /// Drain the queue: form and execute batches until nothing is
    /// pending.
    pub fn run(&mut self) -> Result<(), PlanError> {
        while let Some(batch) = self.next_batch() {
            self.execute_batch(batch)?;
        }
        self.sync_cache_counters();
        Ok(())
    }

    /// The accumulated report.
    pub fn metrics(&mut self) -> &ServiceMetrics {
        self.sync_cache_counters();
        &self.metrics
    }

    /// The shared plan cache.
    pub fn cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// The shared build-side registry.
    pub fn builds(&self) -> &Arc<BuildRegistry> {
        &self.builds
    }

    /// The statistics catalog (epoch, per-table stats).
    pub fn catalog(&self) -> &StatsCatalog {
        &self.catalog
    }

    /// The machine the service runs on.
    pub fn spec(&self) -> &HardwareSpec {
        &self.spec
    }

    /// The span trace: drain with
    /// [`SpanRecorder::drain`](gcm_obs::SpanRecorder::drain), toggle
    /// with [`set_tracing`](QueryService::set_tracing).
    pub fn spans(&self) -> &SpanRecorder {
        &self.spans
    }

    /// Turn span recording on or off at runtime (on by default; off
    /// costs one relaxed atomic load per would-be span).
    pub fn set_tracing(&self, on: bool) {
        self.spans.set_enabled(on);
    }

    /// The per-operator-class model-drift monitor. When
    /// [`needs_recalibration`](DriftMonitor::needs_recalibration)
    /// reports `true` and a [`Recalibrator`] is installed, the service
    /// re-probes and swaps the refreshed calibration in on its own;
    /// without one, re-run the calibrate workflow manually and rebuild
    /// the service with the refreshed `per_op_ns` / hardware spec.
    pub fn drift(&self) -> &DriftMonitor {
        &self.drift
    }

    /// The EXPLAIN ANALYZE flight recorder: the last
    /// [`FLIGHT_CAPACITY`](QueryService::FLIGHT_CAPACITY) reports, as
    /// dumpable JSON lines — what the service was thinking when a
    /// regression landed, without re-running anything.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// EXPLAIN ANALYZE `plan` against the service's registered tables
    /// on **host memory**, with PMU counters attached when the host
    /// allows them — per-node predicted-vs-measured miss rows, the
    /// ground truth the simulator's charged counters approximate (see
    /// [`NativeBackend::attach_pmu`](gcm_engine::native::NativeBackend::attach_pmu)).
    /// The report is recorded into the [`flight`](QueryService::flight)
    /// ring and returned alongside the PMU status the run observed
    /// (`Unavailable` means the rows are honestly absent, never zero).
    ///
    /// This is a diagnostic run outside the serving path: it executes
    /// the plan once on the caller's thread, unbatched and without
    /// shared builds, priced with the calibration currently in force.
    pub fn explain_analyze(
        &mut self,
        plan: &LogicalPlan,
    ) -> Result<(ExplainReport, PmuStatus), PlanError> {
        let snap = self.catalog.snapshot();
        let planned = optimize_and_lower(&self.plan_model, plan, snap.tables())?;
        let mut ctx = ExecContext::native();
        let pmu = ctx.mem.attach_pmu();
        let rels = executor::materialize(&mut ctx, &self.tables, &planned.plan);
        let cpu = CpuCost::per_op(self.cfg.per_op_ns);
        let (_run, report) = explain_analyze(
            &mut ctx,
            &planned.plan,
            &rels,
            &self.plan_model,
            &cpu,
            self.cfg.per_op_ns,
        )?;
        self.flight
            .record(&format!("fp{:016x}", plan.fingerprint()), &report.to_json());
        Ok((report, pmu))
    }

    /// Install the auto-recalibration loop: from now on a raised drift
    /// flag triggers `recal`'s probe on a background thread, and each
    /// completed probe atomically updates the CPU calibration (and the
    /// spec, when the probe refreshes it), force-bumps the statistics
    /// epoch so every cached plan re-prices, and resets the drift
    /// monitor. A probe result equal to the calibration in force only
    /// resets the monitor.
    pub fn set_recalibrator(&mut self, recal: Recalibrator) {
        self.recal = Some(recal);
    }

    /// Completed recalibrations that changed this service's calibration
    /// (a probe result equal to the one in force is not counted).
    pub fn recalibrations(&self) -> u64 {
        self.recalibrations
    }

    /// The CPU calibration currently in force (the `CpuCost::per_op`
    /// parameter measured runs are scored with). Changes when a
    /// recalibration lands.
    pub fn cpu_per_op_ns(&self) -> f64 {
        self.cfg.per_op_ns
    }

    /// Synchronously drive the recalibration loop: trigger a probe if
    /// the drift flag is raised (or collect the one already running),
    /// block until it finishes, and apply it. Returns `true` when a
    /// recalibration changed the calibration. The asynchronous path is
    /// automatic — [`execute_batch`](QueryService::execute_batch) pumps the loop
    /// without blocking; this entry point is for tests and shutdown
    /// paths that must observe the swap.
    pub fn recalibrate_now(&mut self) -> bool {
        self.pump_recalibration(true)
    }

    /// One turn of the recalibration loop. `block` waits for the probe
    /// thread; otherwise only a finished probe is collected. Returns
    /// `true` when a result changed the calibration.
    fn pump_recalibration(&mut self, block: bool) -> bool {
        let stale = self.drift.stale_classes();
        let Some(recal) = self.recal.as_mut() else {
            return false;
        };
        if !stale.is_empty() {
            recal.trigger(&stale);
        }
        let done = if block { recal.wait() } else { recal.poll() };
        done.is_some_and(|(_, result)| self.apply_recalibration(result))
    }

    /// Atomically swap a probe result into the serving path: replace
    /// the CPU calibration (and models/spec when the probe refreshed
    /// the hierarchy), force-bump the statistics epoch so every cached
    /// plan and shared build re-prices under the new parameters, and
    /// reset the drift monitor to judge the new calibration from
    /// scratch. A result equal to the calibration in force only resets
    /// the monitor: nothing would re-price, so the caches stay. Returns
    /// whether the calibration changed.
    fn apply_recalibration(&mut self, r: Recalibration) -> bool {
        self.drift.reset();
        let same_spec = r.spec.as_ref().is_none_or(|spec| *spec == self.spec);
        if r.per_op_ns == self.cfg.per_op_ns && same_spec {
            return false;
        }
        self.cfg.per_op_ns = r.per_op_ns;
        if let Some(spec) = r.spec {
            self.plan_model = CostModel::new(spec.thread_view(1));
            self.batch_model = CostModel::new(spec.clone());
            self.spec = spec;
        }
        let epoch = self.catalog.force_epoch_bump();
        self.cache.retire_epochs_before(epoch);
        self.builds.retire_epochs_before(epoch);
        self.recalibrations += 1;
        true
    }

    fn sync_cache_counters(&mut self) {
        self.metrics.cache_hits = self.cache.hits();
        self.metrics.cache_misses = self.cache.misses();
        self.metrics.optimizer_runs = self.cache.optimizer_runs();
        self.metrics.cache_retired = self.cache.retired();
        self.metrics.builds_built = self.builds.built();
        self.metrics.builds_reused = self.builds.reused();
        let r = &self.metrics.registry;
        r.set_counter("gcm_service_cache_hits_total", self.metrics.cache_hits);
        r.set_counter("gcm_service_cache_misses_total", self.metrics.cache_misses);
        r.set_counter(
            "gcm_service_optimizer_runs_total",
            self.metrics.optimizer_runs,
        );
        r.set_counter(
            "gcm_service_cache_retired_total",
            self.metrics.cache_retired,
        );
        r.set_counter("gcm_service_builds_built_total", self.metrics.builds_built);
        r.set_counter(
            "gcm_service_builds_reused_total",
            self.metrics.builds_reused,
        );
        r.set_counter("gcm_service_spans_dropped_total", self.spans.dropped());
        r.set_counter("gcm_service_recalibrations_total", self.recalibrations);
        r.set_gauge("gcm_service_cpu_per_op_ns", self.cfg.per_op_ns);
        let depth = self.queue.len() as f64;
        r.set_gauge(metrics::QUEUE_DEPTH, depth);
        r.gauge_max(metrics::QUEUE_DEPTH_PEAK, depth);
        // Per-class drift ratios + stale count + flag, as gauges.
        self.drift.export_gauges(r, "gcm_service_drift");
    }
}

/// Derive a relation's [`TableStats`] from its actual key column — the
/// service's statistics collector (exact, since the data is at hand).
pub fn derive_stats(keys: &[u64], w: u64) -> TableStats {
    let n = keys.len() as u64;
    let key_bound = keys.iter().copied().max().map_or(1, |m| m + 1);
    let distinct = {
        let mut seen = std::collections::HashSet::with_capacity(keys.len());
        keys.iter().filter(|k| seen.insert(**k)).count() as f64
    };
    let sorted = keys.windows(2).all(|p| p[0] <= p[1]);
    TableStats {
        n,
        w,
        key_bound,
        distinct,
        sorted,
        region: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcm_hardware::presets;
    use gcm_workload::Workload;
    use std::sync::Mutex;

    fn service() -> QueryService {
        let mut svc = QueryService::new(presets::tiny_smp(4));
        let mut wl = Workload::new(42);
        let star = wl.star_scenario(3_000, 500, 1);
        svc.register_table("F", star.fact, 8);
        svc.register_table("D", star.dims[0].clone(), 8);
        svc
    }

    #[test]
    fn derive_stats_reads_the_data() {
        let s = derive_stats(&[3, 1, 4, 1, 5], 8);
        assert_eq!(s.n, 5);
        assert_eq!(s.key_bound, 6);
        assert_eq!(s.distinct, 4.0);
        assert!(!s.sorted);
        let sorted = derive_stats(&[1, 2, 3], 16);
        assert!(sorted.sorted);
        assert_eq!(sorted.w, 16);
        let empty = derive_stats(&[], 8);
        assert_eq!(empty.key_bound, 1);
    }

    #[test]
    fn submit_caches_repeated_plans() {
        let mut svc = service();
        let plan = LogicalPlan::scan(0).select_lt(100).group_count();
        for _ in 0..5 {
            svc.submit(plan.clone()).unwrap();
        }
        assert_eq!(svc.queue_len(), 5);
        assert_eq!(svc.cache().optimizer_runs(), 1);
        assert_eq!(svc.cache().hits(), 4);
    }

    #[test]
    fn run_drains_the_queue_and_records_metrics() {
        let mut svc = service();
        for cut in [100, 200, 100, 200] {
            svc.submit(LogicalPlan::scan(0).select_lt(cut).group_count())
                .unwrap();
        }
        svc.run().unwrap();
        assert_eq!(svc.queue_len(), 0);
        let m = svc.metrics();
        assert_eq!(m.queries.len(), 4);
        assert!(!m.batches.is_empty());
        assert!((m.hit_rate() - 0.5).abs() < 1e-9);
        // Ids cover every submission exactly once.
        let mut ids: Vec<u64> = m.queries.iter().map(|q| q.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        // Measured latencies are real.
        assert!(m.queries.iter().all(|q| q.measured_ns > 0.0));
    }

    #[test]
    fn scan_mix_batches_above_one() {
        let mut svc = service();
        // Four identical broad scans: streaming footprints must batch.
        for _ in 0..4 {
            svc.submit(LogicalPlan::scan(0).select_lt(400).group_count())
                .unwrap();
        }
        let batch = svc.next_batch().unwrap();
        assert!(batch.size() > 1, "scan batch size {}", batch.size());
        assert!(batch.predicted_speedup() > 1.0);
        svc.execute_batch(batch).unwrap();
        assert!(svc.metrics().max_batch_size() > 1);
    }

    #[test]
    fn stats_drift_retires_cached_plans() {
        let mut svc = service();
        let plan = LogicalPlan::scan(0).select_lt(100).group_count();
        svc.submit(plan.clone()).unwrap();
        assert_eq!(svc.cache().optimizer_runs(), 1);
        // Small drift: same epoch, cache still hot.
        let mut wl = Workload::new(43);
        let same = wl.star_scenario(3_100, 500, 1);
        assert!(!svc.update_table(0, same.fact));
        svc.submit(plan.clone()).unwrap();
        assert_eq!(svc.cache().optimizer_runs(), 1);
        // Past-threshold drift: epoch bumps, next submit re-optimizes.
        let big = wl.star_scenario(9_000, 500, 1);
        assert!(svc.update_table(0, big.fact));
        assert_eq!(svc.catalog().epoch(), 1);
        svc.submit(plan).unwrap();
        assert_eq!(svc.cache().optimizer_runs(), 2);
        svc.run().unwrap();
    }

    #[test]
    fn unknown_table_submission_errors() {
        let mut svc = service();
        let err = svc.submit(LogicalPlan::scan(5)).unwrap_err();
        assert!(matches!(err, PlanError::UnknownTable { table: 5, .. }));
        assert_eq!(svc.queue_len(), 0);
    }

    #[test]
    fn spans_cover_the_whole_query_lifecycle() {
        let mut svc = service();
        for cut in [100, 200] {
            svc.submit(
                LogicalPlan::scan(0)
                    .select_lt(cut)
                    .join(LogicalPlan::scan(1))
                    .group_count(),
            )
            .unwrap();
        }
        svc.run().unwrap();
        let spans = svc.spans().drain();
        let kind_count = |k: gcm_obs::SpanKind| spans.iter().filter(|s| s.kind == k).count();
        assert_eq!(kind_count(gcm_obs::SpanKind::Optimize), 2);
        assert_eq!(kind_count(gcm_obs::SpanKind::Build), 2);
        assert!(kind_count(gcm_obs::SpanKind::Admission) >= 1);
        // Per-operator execute spans: each query ran select + join +
        // aggregate at least.
        assert!(kind_count(gcm_obs::SpanKind::Execute) >= 6, "{spans:#?}");
        // Execute spans carry the sim backend's per-level miss deltas.
        assert!(spans
            .iter()
            .filter(|s| s.kind == gcm_obs::SpanKind::Execute)
            .all(|s| !s.level_misses.is_empty()));
        assert_eq!(svc.spans().dropped(), 0);
    }

    #[test]
    fn tracing_off_is_byte_identical_and_spanless() {
        let run_with = |tracing: bool| -> (Vec<(u64, u64)>, usize) {
            let mut svc = service();
            svc.set_tracing(tracing);
            for cut in [50, 150] {
                svc.submit(
                    LogicalPlan::scan(0)
                        .select_lt(cut)
                        .join(LogicalPlan::scan(1))
                        .group_count(),
                )
                .unwrap();
            }
            svc.run().unwrap();
            let mut out: Vec<(u64, u64)> = svc
                .metrics()
                .queries
                .iter()
                .map(|q| (q.output_n, q.output_hash))
                .collect();
            out.sort_unstable();
            let n_spans = svc.spans().drain().len();
            (out, n_spans)
        };
        let (on, spans_on) = run_with(true);
        let (off, spans_off) = run_with(false);
        assert_eq!(on, off, "tracing must not change results");
        assert_eq!(spans_off, 0);
        assert!(spans_on > 0);
    }

    #[test]
    fn drift_monitor_flags_a_miscalibrated_cpu_charge() {
        // Same queue twice: once with the calibration the planner
        // predicts with, once with the measured CPU charge lowballed
        // 4× under it — the monitor must stay quiet on the honest run
        // and raise the flag on the skewed one.
        let run_with = |per_op_ns: f64| -> (bool, Vec<String>) {
            let mut svc = QueryService::with_config(
                presets::tiny_smp(4),
                ServiceConfig {
                    max_batch: 1, // predicted == serial per-query price
                    per_op_ns,
                    ..ServiceConfig::default()
                },
            );
            let mut wl = Workload::new(45);
            let star = wl.star_scenario(3_000, 500, 1);
            svc.register_table("F", star.fact, 8);
            svc.register_table("D", star.dims[0].clone(), 8);
            for i in 0..10 {
                svc.submit(LogicalPlan::scan(0).select_lt(100 + 10 * i).group_count())
                    .unwrap();
            }
            svc.run().unwrap();
            (
                svc.drift().needs_recalibration(),
                svc.drift().stale_classes(),
            )
        };
        let honest = CpuCost::DEFAULT_PLANNER_PER_OP_NS;
        let (flag_honest, stale_honest) = run_with(honest);
        assert!(!flag_honest, "honest calibration flagged: {stale_honest:?}");
        let (flag_skewed, stale_skewed) = run_with(honest * 64.0);
        assert!(flag_skewed, "64× CPU skew must flag");
        assert!(
            stale_skewed
                .iter()
                .any(|c| c == "select" || c == "aggregate"),
            "{stale_skewed:?}"
        );
    }

    #[test]
    fn explain_analyze_records_into_the_flight_ring() {
        let mut svc = service();
        assert!(svc.flight().is_empty());
        let q1 = LogicalPlan::scan(0).select_lt(100).group_count();
        let q2 = LogicalPlan::scan(0).select_lt(300).group_count();
        let (report, pmu) = svc.explain_analyze(&q1).unwrap();
        let root = report.root.measured.as_ref().expect("operator root");
        assert!(root.ops > 0, "{report:?}");
        if !pmu.is_available() {
            // Host without perf counters: rows must be honestly absent.
            assert!(root.level_misses.is_empty());
        }
        svc.explain_analyze(&q2).unwrap();
        assert_eq!(svc.flight().len(), 2);
        let dump = svc.flight().dump_json_lines();
        assert_eq!(dump.lines().count(), 2);
        assert!(dump.contains("\"plan\""), "{dump}");
        assert!(
            dump.contains(&format!("fp{:016x}", q1.fingerprint())),
            "{dump}"
        );
    }

    #[test]
    fn drift_flag_triggers_recalibration_that_updates_cpu_cost() {
        // The full closed loop, pinned: a 64× CPU miscalibration raises
        // the drift flag mid-run, the installed recalibrator probes on
        // a background thread (a fake probe here, so the test is
        // deterministic), and applying the result swaps the honest
        // charge back in, bumps the stats epoch so cached plans
        // re-price, and resets the monitor.
        let honest = CpuCost::DEFAULT_PLANNER_PER_OP_NS;
        let mut svc = QueryService::with_config(
            presets::tiny_smp(4),
            ServiceConfig {
                max_batch: 1,
                per_op_ns: honest * 64.0,
                ..ServiceConfig::default()
            },
        );
        let probed = Arc::new(Mutex::new(Vec::<String>::new()));
        let probed2 = Arc::clone(&probed);
        svc.set_recalibrator(Recalibrator::new(move |stale| {
            probed2.lock().unwrap().extend(stale.iter().cloned());
            Recalibration {
                per_op_ns: CpuCost::DEFAULT_PLANNER_PER_OP_NS,
                spec: None,
            }
        }));
        let mut wl = Workload::new(45);
        let star = wl.star_scenario(3_000, 500, 1);
        svc.register_table("F", star.fact, 8);
        svc.register_table("D", star.dims[0].clone(), 8);
        let epoch_before = svc.catalog().epoch();
        for i in 0..10 {
            svc.submit(LogicalPlan::scan(0).select_lt(100 + 10 * i).group_count())
                .unwrap();
        }
        svc.run().unwrap();
        // The async pump may have landed the swap already; flush any
        // probe still in flight so the assertion is deterministic.
        if svc.recalibrations() == 0 {
            assert!(svc.recalibrate_now(), "drift flag never raised a probe");
        }
        assert!(svc.recalibrations() >= 1);
        assert_eq!(
            svc.cpu_per_op_ns(),
            honest,
            "recalibration must replace the optimizer's CpuCost charge"
        );
        assert!(
            svc.catalog().epoch() > epoch_before,
            "epoch must bump so cached plans re-price"
        );
        assert!(
            !svc.drift().needs_recalibration(),
            "monitor resets after the swap"
        );
        let probed = probed.lock().unwrap();
        assert!(
            probed.iter().any(|c| c == "select" || c == "aggregate"),
            "probe must receive the stale classes: {probed:?}"
        );
        let prom = svc.metrics().to_prometheus();
        assert!(prom.contains("gcm_service_recalibrations_total"), "{prom}");
    }

    #[test]
    fn recalibration_to_the_calibration_in_force_keeps_the_caches() {
        // A 64× CPU miscalibration raises the drift flag, but the probe
        // measures the same charge and spec already in force: nothing
        // would re-price, so only the monitor resets. No epoch bump, no
        // retired plans or builds, no counted recalibration.
        let skewed = CpuCost::DEFAULT_PLANNER_PER_OP_NS * 64.0;
        let spec = presets::modern_smp(4);
        let mut svc = QueryService::with_config(
            spec.clone(),
            ServiceConfig {
                max_batch: 1,
                per_op_ns: skewed,
                ..ServiceConfig::default()
            },
        );
        let probes = Arc::new(Mutex::new(0u32));
        let probes2 = Arc::clone(&probes);
        svc.set_recalibrator(Recalibrator::new(move |_stale| {
            *probes2.lock().unwrap() += 1;
            Recalibration {
                per_op_ns: skewed,
                spec: Some(spec.clone()),
            }
        }));
        // The tables of `queued_join_outlives_its_build`, on which the
        // optimizer hash-joins over scan(D).
        svc.register_table("F", (0..4_000).map(|i| (i * 7) % 1_000).collect(), 8);
        svc.register_table("D", (0..1_000).collect(), 8);
        let join = LogicalPlan::scan(0)
            .join(LogicalPlan::scan(1))
            .group_count();
        for _ in 0..2 {
            svc.submit(join.clone()).unwrap();
        }
        for i in 0..10 {
            svc.submit(LogicalPlan::scan(0).select_lt(100 + 10 * i).group_count())
                .unwrap();
        }
        let (plans, builds) = (svc.cache().len(), svc.builds().len());
        assert!(builds > 0, "the repeated join registers a shared build");
        let epoch = svc.catalog().epoch();
        svc.run().unwrap();
        svc.recalibrate_now();
        assert!(
            *probes.lock().unwrap() >= 1,
            "drift flag never raised a probe"
        );
        assert!(!svc.drift().needs_recalibration(), "monitor resets");
        assert_eq!(svc.recalibrations(), 0);
        assert_eq!(svc.cpu_per_op_ns(), skewed);
        assert_eq!(svc.catalog().epoch(), epoch, "no epoch bump");
        assert_eq!(svc.cache().retired(), 0);
        assert_eq!(svc.cache().len(), plans);
        assert_eq!(svc.builds().len(), builds);
        // The cached plan still serves.
        let runs = svc.cache().optimizer_runs();
        svc.submit(join).unwrap();
        assert_eq!(svc.cache().optimizer_runs(), runs);
    }

    #[test]
    fn metrics_export_prometheus_and_json() {
        let mut svc = service();
        for cut in [100, 200, 300] {
            svc.submit(LogicalPlan::scan(0).select_lt(cut).group_count())
                .unwrap();
        }
        svc.run().unwrap();
        let m = svc.metrics();
        let (p50, p99, p999) = m.latency_quantiles().unwrap();
        assert!(p50 > 0 && p50 <= p99 && p99 <= p999);
        let prom = m.to_prometheus();
        assert!(
            prom.contains("# TYPE gcm_service_query_latency_ns summary"),
            "{prom}"
        );
        assert!(prom.contains("gcm_service_queries_total 3"), "{prom}");
        assert!(prom.contains("gcm_service_spans_dropped_total 0"), "{prom}");
        let json = m.to_json_lines();
        assert!(json.lines().count() >= 5, "{json}");
    }

    fn classed_service(slo: SloPolicy) -> (QueryService, TenantTables) {
        let mut svc = QueryService::with_config(
            presets::tiny_smp(4),
            ServiceConfig {
                slo: Some(slo),
                ..ServiceConfig::default()
            },
        );
        let mut wl = Workload::new(42);
        let star = wl.star_scenario(3_000, 500, 1);
        svc.register_table("F", star.fact, 8);
        svc.register_table("D", star.dims[0].clone(), 8);
        (
            svc,
            TenantTables {
                fact: 0,
                dim: 1,
                key_bound: 500,
            },
        )
    }

    fn request(class: TenantClass) -> gcm_workload::QueryRequest {
        gcm_workload::QueryRequest {
            tenant: 0,
            class,
            selectivity: class.selectivity_buckets()[0],
        }
    }

    #[test]
    fn shed_pass_sheds_the_class_whose_budget_is_blown() {
        // Joins get an impossible budget, point lookups an unlimited
        // one: the join sheds, the point lookup is served.
        let (mut svc, t) = classed_service(SloPolicy {
            point_lookup_ns: f64::MAX,
            scan_heavy_ns: f64::MAX,
            join_heavy_ns: 1.0,
        });
        let point = svc
            .submit_classed(
                plan_for(&request(TenantClass::PointLookup), &t),
                TenantClass::PointLookup,
                0,
            )
            .unwrap();
        let join = svc
            .submit_classed(
                plan_for(&request(TenantClass::JoinHeavy), &t),
                TenantClass::JoinHeavy,
                0,
            )
            .unwrap();
        let (shed, batch) = svc.next_batch_at(100);
        assert_eq!(shed.len(), 1);
        assert_eq!(shed[0].id, join);
        assert_eq!(shed[0].class, TenantClass::JoinHeavy);
        assert!(shed[0].projected_ns > shed[0].budget_ns);
        let batch = batch.unwrap();
        assert!(batch.ids().contains(&point));
        assert!(!batch.ids().contains(&join));
        // The record and the labeled counter both landed.
        let m = svc.metrics();
        assert_eq!(m.shed_total(), 1);
        assert_eq!(m.shed_for_class(TenantClass::JoinHeavy), 1);
        assert_eq!(
            m.registry
                .counter("gcm_service_shed_total{class=\"join_heavy\"}"),
            Some(1)
        );
        assert_eq!(m.registry.gauge("gcm_service_queue_depth"), Some(0.0));
        assert!(m.registry.gauge("gcm_service_queue_depth_peak").unwrap() >= 2.0);
    }

    #[test]
    fn unclassed_submissions_never_shed() {
        // A zero budget sheds every classed query instantly — but a
        // plain submit is exempt no matter how stale it is.
        let (mut svc, t) = classed_service(SloPolicy::uniform(0.0));
        let plain = svc
            .submit(plan_for(&request(TenantClass::ScanHeavy), &t))
            .unwrap();
        let classed = svc
            .submit_classed(
                plan_for(&request(TenantClass::JoinHeavy), &t),
                TenantClass::JoinHeavy,
                0,
            )
            .unwrap();
        let (shed, batch) = svc.next_batch_at(1_000_000);
        assert_eq!(shed.len(), 1);
        assert_eq!(shed[0].id, classed);
        let ids = batch.unwrap().ids();
        assert_eq!(ids, vec![plain]);
    }

    #[test]
    fn priority_order_serves_point_lookups_before_joins() {
        // Joins arrive first but point lookups outrank them: the batch
        // head (admission always admits the first candidate) must be
        // the point lookup.
        let (mut svc, t) = classed_service(SloPolicy::uniform(f64::MAX));
        let join = svc
            .submit_classed(
                plan_for(&request(TenantClass::JoinHeavy), &t),
                TenantClass::JoinHeavy,
                0,
            )
            .unwrap();
        let point = svc
            .submit_classed(
                plan_for(&request(TenantClass::PointLookup), &t),
                TenantClass::PointLookup,
                5,
            )
            .unwrap();
        let (shed, batch) = svc.next_batch_at(10);
        assert!(shed.is_empty());
        let ids = batch.unwrap().ids();
        assert_eq!(ids[0], point, "{ids:?}");
        // The join is either in this batch behind the point lookup or
        // still queued — never lost.
        assert!(ids.contains(&join) || svc.queue_len() == 1);
    }

    #[test]
    fn without_slo_next_batch_at_is_plain_next_batch() {
        let mut svc = service();
        svc.submit(LogicalPlan::scan(0).select_lt(100).group_count())
            .unwrap();
        let (shed, batch) = svc.next_batch_at(u64::MAX);
        assert!(shed.is_empty());
        assert_eq!(batch.unwrap().size(), 1);
    }

    #[test]
    fn native_observed_execution_routes_ids_and_seeds_wall_scale() {
        // The native serving path returns the simulator's results, routed
        // by id, and records them the same way: query and batch records in
        // the one metric family, execute spans, drift samples and the
        // wall-scale EWMA (seeded by the first batch).
        let run = |native: bool| {
            let (mut svc, t) = classed_service(SloPolicy::uniform(f64::MAX));
            for class in [TenantClass::PointLookup, TenantClass::ScanHeavy] {
                svc.submit_classed(plan_for(&request(class), &t), class, 0)
                    .unwrap();
            }
            let mut routed = Vec::new();
            while let (_, Some(batch)) = svc.next_batch_at(0) {
                if native {
                    let runs = svc.execute_batch_native_observed(batch).unwrap();
                    routed.extend(
                        runs.into_iter()
                            .map(|(id, r)| (id, r.output_n, r.output_hash)),
                    );
                } else {
                    svc.execute_batch(batch).unwrap();
                }
            }
            let spans = svc.spans().drain();
            assert!(spans.iter().any(|s| s.kind == SpanKind::Execute));
            assert!(!svc.drift().status().is_empty(), "drift samples");
            assert!(svc.wall_scale() > 0.0 && svc.wall_scale() != 1.0);
            let m = svc.metrics();
            assert_eq!(m.registry.counter(metrics::QUERIES_TOTAL), Some(2));
            let batches = m.registry.counter(metrics::BATCHES_TOTAL);
            assert_eq!(batches, Some(m.batches.len() as u64));
            let recorded: Vec<(u64, u64, u64)> = m
                .queries
                .iter()
                .map(|q| (q.id, q.output_n, q.output_hash))
                .collect();
            (routed, recorded)
        };
        let (routed, native) = run(true);
        assert_eq!(routed, native, "routed runs are the recorded ones");
        assert_eq!(native, run(false).1, "backends must agree");
    }

    /// Two identical joins queue up, the second attaching the first's
    /// shared build over D; then D's last key is rewritten 999 → 1000,
    /// still sorted and distinct, so the statistics epoch stays put. The
    /// queued sharer must see the new keys, not the build it attached
    /// before the write, and later joins probe a build of the new keys.
    fn queued_join_outlives_its_build(native: bool) {
        let fact: Vec<u64> = (0..4_000).map(|i| (i * 7) % 1_000).collect();
        let old_dim: Vec<u64> = (0..1_000).collect();
        let mut new_dim = old_dim.clone();
        new_dim[999] = 1_000;
        let join = LogicalPlan::scan(0)
            .join(LogicalPlan::scan(1))
            .group_count();
        // On this machine the optimizer joins with a plain hash join
        // over scan(D): the shape a shared build serves.
        let service_over = |dim: Vec<u64>| {
            let mut svc = QueryService::new(presets::modern_smp(4));
            svc.register_table("F", fact.clone(), 8);
            svc.register_table("D", dim, 8);
            svc
        };
        // Submit `n` joins and drain the queue: every result so far, and
        // the labels of the join nodes just run.
        let run_joins = |svc: &mut QueryService, n: usize| {
            for _ in 0..n {
                svc.submit(join.clone()).unwrap();
            }
            while let Some(batch) = svc.next_batch() {
                if native {
                    svc.execute_batch_native_observed(batch).unwrap();
                } else {
                    svc.execute_batch(batch).unwrap();
                }
            }
            let spans = svc.spans().drain().into_iter();
            let mut joins: Vec<String> = spans
                .filter(|s| s.kind == SpanKind::Execute && s.name.starts_with("join"))
                .map(|s| s.name)
                .collect();
            joins.sort_unstable();
            let queries = &svc.metrics().queries;
            let results: Vec<(u64, u64)> = queries
                .iter()
                .map(|q| (q.output_n, q.output_hash))
                .collect();
            (results, joins)
        };
        let expected = run_joins(&mut service_over(new_dim.clone()), 1).0[0];
        assert_eq!(expected.0, 999, "keys 0..999 match the fact table");

        let mut svc = service_over(old_dim);
        for _ in 0..2 {
            svc.submit(join.clone()).unwrap();
        }
        assert_eq!(svc.builds().reused(), 1, "the second join attached");
        assert!(!svc.update_table(1, new_dim));
        assert_eq!(svc.catalog().epoch(), 0);
        let (results, joins) = run_joins(&mut svc, 0);
        assert_eq!(results, vec![expected; 2]);
        assert_eq!(joins, ["join[hash]", "join[hash]"], "stale build dropped");
        let (results, joins) = run_joins(&mut svc, 2);
        assert_eq!(results, vec![expected; 4]);
        assert_eq!(joins, ["join[hash,shared]", "join[hash]"]);
    }

    #[test]
    fn below_threshold_update_retires_the_tables_shared_builds() {
        queued_join_outlives_its_build(false);
    }

    #[test]
    fn below_threshold_update_retires_the_tables_shared_builds_native() {
        queued_join_outlives_its_build(true);
    }

    #[test]
    fn results_match_between_batched_and_serial_scheduling() {
        // The same queue drained with batching and with max_batch 1
        // must produce identical per-query outputs.
        let run_with = |max_batch: usize| -> Vec<(u64, u64)> {
            let mut svc = QueryService::with_config(
                presets::tiny_smp(4),
                ServiceConfig {
                    max_batch,
                    ..ServiceConfig::default()
                },
            );
            let mut wl = Workload::new(44);
            let star = wl.star_scenario(2_000, 400, 1);
            svc.register_table("F", star.fact, 8);
            svc.register_table("D", star.dims[0].clone(), 8);
            for cut in [50, 150, 250] {
                svc.submit(
                    LogicalPlan::scan(0)
                        .select_lt(cut)
                        .join(LogicalPlan::scan(1))
                        .group_count(),
                )
                .unwrap();
            }
            svc.run().unwrap();
            let mut out: Vec<(u64, u64)> = svc
                .metrics()
                .queries
                .iter()
                .map(|q| (q.id, q.output_n))
                .collect();
            out.sort_unstable();
            out
        };
        assert_eq!(run_with(4), run_with(1));
    }
}
