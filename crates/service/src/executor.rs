//! The executor pool: running an admitted batch on real worker
//! threads, one query per worker, on either memory backend.
//!
//! The measured side of the multi-core model: a batch of `d` queries
//! runs as `d` [`std::thread::scope`] workers, each executing its
//! physical plan through the plan executor over its own
//! [`ExecContext`] and probing the shared builds admission priced.
//! [`execute_batch`] does this on both backends; [`BatchBackend`] holds
//! the two things that differ:
//!
//! * **A worker's context.** On the simulator each worker runs on its
//!   own view of the machine: full private levels, plus the slice of
//!   every shared level the scheduler *allocated* to it. Allocations are
//!   footprint-proportional ([`member_views`]), i.e. the service enforces
//!   exactly the Eq 5.3 shares the admission controller priced (the way a
//!   real serving system partitions its buffer pool or LLC ways among
//!   admitted queries). On native memory each worker gets real buffers
//!   and the hardware shares its caches itself.
//! * **The batch's measured wall.** On the simulator, the slowest
//!   member's charged memory time plus per-op CPU charge (Eq 6.1) — what
//!   the `⊙` composition predicted — plus the dispatch admission charged;
//!   on native memory, the host clock around the whole batch.

use crate::builds::{shared_regions, SharedBuild};
use gcm_core::{
    footprint_lines, footprint_lines_excluding, references_region, Geometry, Pattern, Region,
    RegionId,
};
use gcm_engine::plan::{
    self, BuildSource, ExecTracer, PhysicalPlan, PlanError, PrebuiltBuild, SpanTracer, TableDef,
};
use gcm_engine::{ExecContext, MemoryBackend, NativeBackend, Relation, SimBackend};
use gcm_hardware::{HardwareSpec, Sharing};
use gcm_obs::{Span, SpanRecorder};
use std::sync::Arc;
use std::time::Instant;

/// The builds one batch member probes, as a [`BuildSource`] for the
/// plan executor.
struct MemberBuilds(Vec<Arc<SharedBuild>>);

impl BuildSource for MemberBuilds {
    fn prebuilt(&self, table: usize) -> Option<PrebuiltBuild> {
        self.0
            .iter()
            .find(|b| b.table == table)
            .map(|b| PrebuiltBuild {
                region: b.region.clone(),
                layout: Arc::clone(&b.layout),
            })
    }
}

/// One admitted query, as the executor receives it.
#[derive(Debug, Clone, Copy)]
pub struct Member<'a> {
    /// The physical plan to run.
    pub plan: &'a PhysicalPlan,
    /// The whole-plan pattern admission priced.
    pub pattern: &'a Pattern,
    /// The shared builds attached at submit, probed instead of built.
    pub builds: &'a [Arc<SharedBuild>],
}

/// One executed batch.
#[derive(Debug)]
pub struct ExecutedBatch {
    /// Per-member results, in batch order.
    pub queries: Vec<ExecutedQuery>,
    /// Every member's per-node execute spans, in batch order.
    pub spans: Vec<Span>,
    /// The batch's measured wall ([`BatchBackend::batch_wall_ns`]), ns.
    pub wall_ns: f64,
}

/// What batch execution does differently per memory backend.
pub trait BatchBackend: MemoryBackend + Sized {
    /// One context maker per member, in batch order, given the members'
    /// priced `patterns` and the canonical regions of the builds they
    /// probe. Each worker calls its maker on its own thread, so the
    /// context's arena comes from that thread's allocator.
    fn contexts(
        spec: &HardwareSpec,
        tables: &[Arc<TableDef>],
        patterns: &[&Pattern],
        shared: &[Region],
    ) -> Vec<impl FnOnce() -> ExecContext<Self> + Send>;

    /// The batch's measured wall from its slowest member, the host clock
    /// around the batch and the dispatch admission charged for it, ns.
    fn batch_wall_ns(slowest_ns: f64, host_ns: f64, dispatch_ns: f64) -> f64;
}

impl BatchBackend for SimBackend {
    /// Each member runs on its own view of the machine
    /// ([`member_views`]).
    fn contexts(
        spec: &HardwareSpec,
        _tables: &[Arc<TableDef>],
        patterns: &[&Pattern],
        shared: &[Region],
    ) -> Vec<impl FnOnce() -> ExecContext<SimBackend> + Send> {
        let views = member_views(spec, patterns, shared);
        views
            .into_iter()
            .map(|v| move || ExecContext::new(v))
            .collect()
    }

    /// The simulator cannot measure dispatch (it is host-side thread
    /// bring-up, not simulated memory traffic), so the wall carries the
    /// same constant the admission predicate charged: both sides account
    /// dispatch identically and the accuracy ratio reflects model
    /// quality, not bookkeeping.
    fn batch_wall_ns(slowest_ns: f64, _host_ns: f64, dispatch_ns: f64) -> f64 {
        slowest_ns + dispatch_ns
    }
}

impl BatchBackend for NativeBackend {
    /// Arenas pre-sized from the catalog footprint so the measured
    /// interval contains no growth reallocations: inputs plus headroom
    /// for partitions/hash tables/outputs (≈4× input bytes covers every
    /// plan shape the planner emits).
    fn contexts(
        _spec: &HardwareSpec,
        tables: &[Arc<TableDef>],
        patterns: &[&Pattern],
        _shared: &[Region],
    ) -> Vec<impl FnOnce() -> ExecContext<NativeBackend> + Send> {
        let table_bytes: u64 = tables.iter().map(|t| t.keys.len() as u64 * t.w).sum();
        let arena = (4 * table_bytes).clamp(1 << 16, 1 << 30) as usize;
        let make = move || ExecContext::native_with_capacity(arena);
        vec![make; patterns.len()]
    }

    fn batch_wall_ns(_slowest_ns: f64, host_ns: f64, _dispatch_ns: f64) -> f64 {
        host_ns
    }
}

/// One query's measured execution inside a batch.
#[derive(Debug, Clone)]
pub struct ExecutedQuery {
    /// Output cardinality.
    pub output_n: u64,
    /// FNV-1a hash of the output relation's raw bytes — the
    /// result-equality surface: two executions of the same query agree
    /// byte for byte iff their hashes agree (with or without shared
    /// builds, on any backend).
    pub output_hash: u64,
    /// Measured elapsed time, ns: simulated memory latency plus
    /// `per_op_ns ×` logical ops (Eq 6.1), or native wall clock.
    pub measured_ns: f64,
    /// Logical CPU operations the query performed.
    pub ops: u64,
}

/// FNV-1a over a byte slice (order-sensitive, so tuple order matters —
/// exactly what byte identity means).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The per-member machine views of a batch: each member keeps every
/// [`Private`](Sharing::Private) level whole and receives, at every
/// [`Shared`](Sharing::Shared) level, a capacity slice proportional to
/// its pattern's footprint there — the allocation rule of Eq 5.3, which
/// is also what the admission controller's
/// [`batch_cost`](gcm_core::CostModel::batch_cost) priced. A singleton
/// batch sees the whole machine.
///
/// Regions in `shared` (immutable builds several members probe,
/// distinct as [`shared_regions`] returns them) are counted once in
/// each shared level's allocation denominator, mirroring the pricing
/// rule of [`gcm_core::CostModel::batch_cost_shared`] — so the
/// enforcement stays exactly what the admission controller priced. A
/// member's own claim (numerator) keeps its full footprint, clamped at
/// the whole level.
pub fn member_views(
    spec: &HardwareSpec,
    patterns: &[&Pattern],
    shared: &[Region],
) -> Vec<HardwareSpec> {
    let d = patterns.len();
    if d <= 1 {
        return patterns.iter().map(|_| spec.thread_view(1)).collect();
    }
    let shared_ids: Vec<RegionId> = shared.iter().map(|r| r.id()).collect();
    // Full footprint of every member at every level (its claim), and the
    // capacity denominator with shared regions counted once.
    let feet: Vec<Vec<f64>> = patterns
        .iter()
        .map(|p| {
            spec.levels()
                .iter()
                .map(|lvl| footprint_lines(p, &Geometry::of(lvl)))
                .collect()
        })
        .collect();
    let denom: Vec<f64> = spec
        .levels()
        .iter()
        .map(|lvl| {
            let geo = Geometry::of(lvl);
            let mut total: f64 = patterns
                .iter()
                .map(|p| footprint_lines_excluding(p, &geo, &shared_ids))
                .sum();
            for r in shared {
                if patterns.iter().any(|p| references_region(p, r.id())) {
                    total += r.lines(geo.b as u64).max(1.0);
                }
            }
            total
        })
        .collect();
    (0..d)
        .map(|i| {
            let levels = spec
                .levels()
                .iter()
                .enumerate()
                .map(|(l, lvl)| {
                    if lvl.sharing != Sharing::Shared {
                        return lvl.clone();
                    }
                    let share = if denom[l] > 0.0 {
                        (feet[i][l] / denom[l]).min(1.0)
                    } else {
                        1.0 / d as f64
                    };
                    let mut v = lvl.clone();
                    let lines = ((lvl.lines() as f64 * share) as u64).max(1);
                    v.capacity = lines * lvl.line;
                    v
                })
                .collect();
            HardwareSpec::new(
                format!("{} [member {i}/{d} view]", spec.name),
                spec.cpu_mhz,
                levels,
            )
            .expect("member view of a valid spec is valid")
        })
        .collect()
}

/// Materialize the tables `plan` references into `ctx` (host-side,
/// before any measured interval: the service owns the data).
/// Unreferenced catalog slots become empty placeholders so scan
/// indices stay valid.
pub(crate) fn materialize<B: MemoryBackend>(
    ctx: &mut ExecContext<B>,
    tables: &[Arc<TableDef>],
    plan: &PhysicalPlan,
) -> Vec<Relation> {
    let referenced = plan.tables();
    tables
        .iter()
        .enumerate()
        .map(|(i, t)| {
            if referenced.contains(&i) {
                ctx.relation_from_keys(&t.name, &t.keys, t.w)
            } else {
                ctx.relation(&t.name, 0, t.w)
            }
        })
        .collect()
}

/// One batch member's run on any backend: materialize its tables, then
/// execute the plan through [`gcm_engine::plan::execute_traced`] and
/// measure.
fn run_member<B: MemoryBackend>(
    ctx: &mut ExecContext<B>,
    tables: &[Arc<TableDef>],
    plan: &PhysicalPlan,
    builds: &dyn BuildSource,
    tracer: &mut dyn ExecTracer<B>,
    per_op_ns: f64,
) -> Result<ExecutedQuery, PlanError> {
    let rels = materialize(ctx, tables, plan);
    let (run, stats) = ctx.measure(|c| plan::execute_traced(c, plan, &rels, builds, tracer));
    run.map(|r| ExecutedQuery {
        output_n: r.output.n(),
        output_hash: fnv1a(&ctx.relation_bytes(&r.output)),
        measured_ns: stats.total_ns(per_op_ns),
        ops: stats.ops,
    })
}

/// Execute `members` as one batch of concurrent workers on backend `B`:
/// each worker materializes the tables its plan scans into its own
/// context (host-side, uncharged; a simulated worker's view models its
/// core's caches, not a private copy of the database) and runs its plan,
/// probing its shared builds — except a build whose table was rewritten
/// since the query attached it, which would serve old keys. While
/// `spans` is enabled each worker fills a [`SpanTracer`]; tracing never
/// changes results. `dispatch_ns` is the per-worker dispatch charge
/// admission priced. Results come back in batch order.
pub fn execute_batch<B: BatchBackend>(
    spec: &HardwareSpec,
    tables: &[Arc<TableDef>],
    members: &[Member<'_>],
    per_op_ns: f64,
    dispatch_ns: f64,
    spans: &SpanRecorder,
) -> Result<ExecutedBatch, PlanError> {
    let t0 = Instant::now();
    let current = |b: &&Arc<SharedBuild>| b.built_from(&tables[b.table]);
    let builds: Vec<MemberBuilds> = members
        .iter()
        .map(|m| MemberBuilds(m.builds.iter().filter(current).cloned().collect()))
        .collect();
    let shared = shared_regions(builds.iter().flat_map(|b| &b.0));
    let patterns: Vec<&Pattern> = members.iter().map(|m| m.pattern).collect();
    let contexts = B::contexts(spec, tables, &patterns, &shared);
    let results: Vec<Result<(ExecutedQuery, SpanTracer), PlanError>> = std::thread::scope(|s| {
        let handles: Vec<_> = members
            .iter()
            .zip(contexts)
            .zip(&builds)
            .map(|((m, context), builds)| {
                let mut tracer = SpanTracer::new(spans, m.plan);
                s.spawn(move || {
                    let mut ctx = context();
                    let q = run_member(&mut ctx, tables, m.plan, builds, &mut tracer, per_op_ns)?;
                    Ok((q, tracer))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("service worker panicked"))
            .collect()
    });
    let (queries, tracers): (Vec<ExecutedQuery>, Vec<SpanTracer>) = results
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .unzip();
    let slowest_ns = queries.iter().map(|q| q.measured_ns).fold(0.0, f64::max);
    let host_ns = t0.elapsed().as_nanos() as f64;
    Ok(ExecutedBatch {
        wall_ns: B::batch_wall_ns(slowest_ns, host_ns, dispatch_ns * members.len() as f64),
        queries,
        spans: tracers
            .into_iter()
            .flat_map(SpanTracer::into_spans)
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcm_engine::planner::JoinAlgorithm;
    use gcm_hardware::presets;
    use gcm_workload::Workload;

    /// Run `plans` as one batch on backend `B`, with empty patterns, no
    /// shared builds and no tracing.
    fn run<B: BatchBackend>(
        spec: &HardwareSpec,
        tables: &[Arc<TableDef>],
        plans: &[&PhysicalPlan],
    ) -> Result<Vec<ExecutedQuery>, PlanError> {
        let (pattern, builds) = (&Pattern::empty(), &[]);
        let members: Vec<Member<'_>> = plans
            .iter()
            .map(|plan| Member {
                plan,
                pattern,
                builds,
            })
            .collect();
        let untraced = SpanRecorder::new();
        untraced.set_enabled(false);
        execute_batch::<B>(spec, tables, &members, 4.0, 0.0, &untraced).map(|b| b.queries)
    }

    fn catalog() -> Vec<Arc<TableDef>> {
        let mut wl = Workload::new(61);
        let star = wl.star_scenario(2_000, 400, 1);
        vec![
            Arc::new(TableDef::new("F", star.fact, 8)),
            Arc::new(TableDef::new("D", star.dims[0].clone(), 8)),
        ]
    }

    #[test]
    fn batch_members_agree_with_serial_execution() {
        let spec = presets::tiny_smp(4);
        let tables = catalog();
        let select = PhysicalPlan::scan(0).select_lt(100);
        let join = PhysicalPlan::scan(0)
            .select_lt(200)
            .join_with(PhysicalPlan::scan(1), JoinAlgorithm::Hash)
            .group_count();
        let batch = run::<SimBackend>(&spec, &tables, &[&select, &join]).unwrap();
        assert_eq!(batch.len(), 2);
        // Each member's result matches its own serial run (results
        // never depend on co-runners — only timings do).
        for (plan, got) in [&select, &join].into_iter().zip(&batch) {
            let solo = run::<SimBackend>(&spec, &tables, &[plan]).unwrap();
            assert_eq!(solo[0].output_n, got.output_n);
            assert_eq!(solo[0].output_hash, got.output_hash);
            assert_eq!(solo[0].ops, got.ops);
            assert!(got.measured_ns > 0.0);
        }
    }

    #[test]
    fn shared_level_contention_shows_in_measured_time() {
        // The same query measured alone vs inside a 4-way batch: the
        // member views shrink the shared L2, so the batched run can
        // only be slower or equal.
        let spec = presets::tiny_smp(4);
        let tables = catalog();
        let join = PhysicalPlan::scan(0)
            .join_with(PhysicalPlan::scan(1), JoinAlgorithm::Hash)
            .group_count();
        let solo = run::<SimBackend>(&spec, &tables, &[&join]).unwrap()[0].measured_ns;
        let four = run::<SimBackend>(&spec, &tables, &[&join, &join, &join, &join]).unwrap();
        for q in &four {
            assert!(
                q.measured_ns >= solo * 0.999,
                "batched {} vs solo {solo}",
                q.measured_ns
            );
        }
    }

    #[test]
    fn member_views_split_shared_levels_by_footprint() {
        use gcm_core::Region;
        let spec = presets::tiny_smp(4); // L2 shared (16 KB), L1/TLB private
        let big = Pattern::r_trav(Region::new("B", 3_000, 8)); // 24 KB
        let small = Pattern::r_trav(Region::new("S", 1_000, 8)); // 8 KB
        let views = member_views(&spec, &[&big, &small], &[]);
        assert_eq!(views.len(), 2);
        // Private levels stay whole.
        for v in &views {
            assert_eq!(
                v.level("L1").unwrap().capacity,
                spec.level("L1").unwrap().capacity
            );
        }
        // The shared L2 splits 3:1 (footprints 24 KB : 8 KB).
        let l2 = |v: &HardwareSpec| v.level("L2").unwrap().capacity;
        assert!(l2(&views[0]) > 2 * l2(&views[1]));
        let total = l2(&views[0]) + l2(&views[1]);
        let full = spec.level("L2").unwrap().capacity;
        assert!(total <= full && total >= full / 2, "split covers the level");
        // A singleton sees the whole machine.
        let solo = member_views(&spec, &[&big], &[]);
        assert_eq!(l2(&solo[0]), full);
        // Zero-footprint members fall back to an even split.
        let eps = Pattern::empty();
        let even = member_views(&spec, &[&eps, &eps], &[]);
        assert_eq!(l2(&even[0]), l2(&even[1]));
    }

    #[test]
    fn native_batch_matches_simulated_results() {
        // Serving from native memory: same outputs and logical work as
        // the simulated pool, real wall-clock latencies.
        let spec = presets::tiny_smp(4);
        let tables = catalog();
        let select = PhysicalPlan::scan(0).select_lt(100);
        let join = PhysicalPlan::scan(0)
            .select_lt(200)
            .join_with(PhysicalPlan::scan(1), JoinAlgorithm::Hash)
            .group_count();
        let sim = run::<SimBackend>(&spec, &tables, &[&select, &join]).unwrap();
        let native = run::<NativeBackend>(&spec, &tables, &[&select, &join]).unwrap();
        assert_eq!(native.len(), 2);
        for (s, n) in sim.iter().zip(&native) {
            assert_eq!(s.output_n, n.output_n);
            assert_eq!(
                s.output_hash, n.output_hash,
                "bytes must agree across backends"
            );
            assert_eq!(s.ops, n.ops);
            assert!(n.measured_ns > 0.0, "wall clock must advance");
        }
    }

    #[test]
    fn plan_errors_surface() {
        let spec = presets::tiny_smp(2);
        let tables = catalog();
        let bad = PhysicalPlan::scan(7);
        let err = run::<SimBackend>(&spec, &tables, &[&bad]).unwrap_err();
        assert!(matches!(err, PlanError::UnknownTable { table: 7, .. }));
    }
}
