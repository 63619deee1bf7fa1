//! The executor pool: running an admitted batch on real worker
//! threads, each query over its own simulated hierarchy view.
//!
//! The measured side of the multi-core model: a batch of `d` queries
//! runs as `d` [`std::thread::scope`] workers, each executing its
//! physical plan through the plan executor over an [`ExecContext`] on
//! its own view of the machine — full private levels, plus the slice of
//! every shared level the scheduler *allocated* to it. Allocations are
//! footprint-proportional ([`member_views`]), i.e. the service enforces
//! exactly the Eq 5.3 shares the admission controller priced (the way a
//! real serving system partitions its buffer pool or LLC ways among
//! admitted queries) — so a batch the model admitted cannot be wrecked
//! by a co-runner grabbing more of the shared level than its footprint
//! warrants. A query's measured latency is its charged memory time plus
//! the per-op CPU charge (Eq 6.1), and the batch's measured wall is the
//! slowest member, which is what the `⊙` composition predicted.

use crate::builds::SharedBuild;
use gcm_core::{
    footprint_lines, footprint_lines_excluding, references_region, Geometry, Pattern, Region,
    RegionId,
};
use gcm_engine::plan::{
    self, BuildSource, ExecTracer, NoPrebuilt, NoTrace, PhysicalPlan, PlanError, PrebuiltBuild,
    SpanTracer,
};
use gcm_engine::{ExecContext, MemoryBackend, NativeBackend, Relation};
use gcm_hardware::{HardwareSpec, Sharing};
use gcm_obs::SpanRecorder;
use std::sync::Arc;

/// The builds one batch member may reuse, as a [`BuildSource`] for the
/// plan executor: `prebuilt(t)` answers with the member's shared build
/// over table `t`, if it holds one.
#[derive(Debug, Default)]
pub struct MemberBuilds {
    builds: Vec<Arc<SharedBuild>>,
}

impl MemberBuilds {
    /// A source over the given shared builds.
    pub fn new(builds: Vec<Arc<SharedBuild>>) -> MemberBuilds {
        MemberBuilds { builds }
    }
}

impl BuildSource for MemberBuilds {
    fn prebuilt(&self, table: usize) -> Option<PrebuiltBuild> {
        self.builds
            .iter()
            .find(|b| b.table == table)
            .map(|b| PrebuiltBuild {
                region: b.region.clone(),
                layout: Arc::clone(&b.layout),
            })
    }
}

/// One registered table's data: the key column the per-worker contexts
/// materialize into their simulated memories.
#[derive(Debug, Clone)]
pub struct TableData {
    /// Region/relation display name.
    pub name: String,
    /// The key column.
    pub keys: Vec<u64>,
    /// Tuple width in bytes.
    pub w: u64,
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
    /// Measured elapsed time: charged (simulated) memory latency plus
    /// `per_op_ns ×` logical ops (Eq 6.1), ns.
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
pub fn member_views(spec: &HardwareSpec, patterns: &[&Pattern]) -> Vec<HardwareSpec> {
    member_views_shared(spec, patterns, &[])
}

/// [`member_views`] with *shared data*: regions in `shared` (immutable
/// builds several members probe) are counted once in each shared level's
/// allocation denominator, mirroring the pricing rule of
/// [`gcm_core::CostModel::batch_cost_shared`] — so the enforcement stays
/// exactly what the admission controller priced. A member's own claim
/// (numerator) keeps its full footprint, clamped at the whole level.
pub fn member_views_shared(
    spec: &HardwareSpec,
    patterns: &[&Pattern],
    shared: &[Region],
) -> Vec<HardwareSpec> {
    let d = patterns.len();
    if d <= 1 {
        return patterns.iter().map(|_| spec.thread_view(1)).collect();
    }
    let mut shared_unique: Vec<&Region> = Vec::with_capacity(shared.len());
    for r in shared {
        if !shared_unique.iter().any(|s| s.id() == r.id()) {
            shared_unique.push(r);
        }
    }
    let shared_ids: Vec<RegionId> = shared_unique.iter().map(|r| r.id()).collect();
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
            for r in &shared_unique {
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

/// One batch member's run on any backend: materialize the tables the
/// plan references into the worker's context (host-side, before the
/// measured interval — the service owns the data; unreferenced catalog
/// slots become empty placeholders so scan indices stay valid), then
/// execute the plan through [`gcm_engine::plan::execute`] and measure.
fn run_member<B: MemoryBackend>(
    ctx: &mut ExecContext<B>,
    tables: &[Arc<TableData>],
    plan: &PhysicalPlan,
    builds: &dyn BuildSource,
    tracer: &mut dyn ExecTracer<B>,
) -> Result<(u64, u64, gcm_engine::RunStats<B>), PlanError> {
    let referenced = plan.tables();
    let rels: Vec<Relation> = tables
        .iter()
        .enumerate()
        .map(|(i, t)| {
            if referenced.contains(&i) {
                ctx.relation_from_keys(&t.name, &t.keys, t.w)
            } else {
                ctx.relation(&t.name, 0, t.w)
            }
        })
        .collect();
    let (run, stats) = ctx.measure(|c| plan::execute_traced(c, plan, &rels, builds, tracer));
    run.map(|r| {
        let hash = fnv1a(&ctx.relation_bytes(&r.output));
        (r.output.n(), hash, stats)
    })
}

/// Execute `plans` as one batch of `plans.len()` concurrent workers,
/// each on its own footprint-proportional view ([`member_views`], built
/// from `patterns` — the members' whole-plan patterns in batch order).
/// Each worker materializes the tables its plan scans into its own
/// simulated memory (host-side, uncharged; a worker's view simulates
/// its core's caches, not a private copy of the database) and runs its
/// plan (`run_member`). Results come back in batch order.
pub fn execute_batch(
    spec: &HardwareSpec,
    tables: &[Arc<TableData>],
    plans: &[&PhysicalPlan],
    patterns: &[&Pattern],
    per_op_ns: f64,
) -> Result<Vec<ExecutedQuery>, PlanError> {
    let no_builds: Vec<MemberBuilds> = plans.iter().map(|_| MemberBuilds::default()).collect();
    execute_batch_shared(spec, tables, plans, patterns, per_op_ns, &no_builds, &[])
}

/// [`execute_batch`] with shared build sides: `builds[i]` is member
/// `i`'s [`MemberBuilds`] (the immutable hash-join builds its plan may
/// probe instead of building), and `shared` the canonical regions of
/// every build referenced by the batch — the member views allocate the
/// shared levels with those regions counted once
/// ([`member_views_shared`]), enforcing exactly what
/// [`gcm_core::CostModel::batch_cost_shared`] priced at admission.
pub fn execute_batch_shared(
    spec: &HardwareSpec,
    tables: &[Arc<TableData>],
    plans: &[&PhysicalPlan],
    patterns: &[&Pattern],
    per_op_ns: f64,
    builds: &[MemberBuilds],
    shared: &[Region],
) -> Result<Vec<ExecutedQuery>, PlanError> {
    execute_batch_observed(
        spec, tables, plans, patterns, per_op_ns, builds, shared, None,
    )
}

/// [`execute_batch_shared`] with span tracing: when `spans` holds an
/// enabled [`SpanRecorder`], every worker registers its own lane and
/// records one [`Execute`](gcm_obs::SpanKind::Execute) span per
/// physical operator it runs (via [`SpanTracer`]), carrying the
/// operator's charged-time and per-level miss counter deltas. Tracing
/// never changes results — the traced and untraced paths run the same
/// operators on the same data (`observability_tracing_is_free` in the
/// service tests pins byte identity).
#[allow(clippy::too_many_arguments)]
pub fn execute_batch_observed(
    spec: &HardwareSpec,
    tables: &[Arc<TableData>],
    plans: &[&PhysicalPlan],
    patterns: &[&Pattern],
    per_op_ns: f64,
    builds: &[MemberBuilds],
    shared: &[Region],
    spans: Option<&SpanRecorder>,
) -> Result<Vec<ExecutedQuery>, PlanError> {
    assert_eq!(plans.len(), patterns.len());
    assert_eq!(plans.len(), builds.len());
    let views = member_views_shared(spec, patterns, shared);
    let results: Vec<Result<ExecutedQuery, PlanError>> = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .zip(views)
            .zip(builds)
            .map(|((plan, view), member)| {
                s.spawn(move || {
                    let mut ctx = ExecContext::new(view);
                    let run = match spans {
                        // The enabled check keeps the disabled path free
                        // of lane registration, not just span stores.
                        Some(rec) if rec.enabled() => {
                            let mut sink = rec.sink();
                            let mut tracer = SpanTracer::new(&mut sink);
                            run_member(&mut ctx, tables, plan, member, &mut tracer)
                        }
                        _ => run_member(&mut ctx, tables, plan, member, &mut NoTrace),
                    };
                    run.map(|(output_n, output_hash, stats)| ExecutedQuery {
                        output_n,
                        output_hash,
                        measured_ns: stats.total_ns(per_op_ns),
                        ops: stats.ops,
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("service worker panicked"))
            .collect()
    });
    results.into_iter().collect()
}

/// Execute `plans` as one batch of concurrent workers on the **host's
/// real memory**: each query runs through the same plan executor over an
/// [`ExecContext::native`] — real buffers, real loads, wall-clock
/// latency. No member views are constructed (the hardware shares its
/// caches itself; the footprint-proportional allocation the simulated
/// pool enforces is exactly what the model *predicts* real hardware
/// contention to look like), so comparing these latencies against the
/// admission controller's `⊙` prices is the service-level
/// calibrate → model → measure check. Results are byte-identical to the
/// simulated pool's; `measured_ns` is wall time over the plan execution
/// only (table materialization happens before the measured interval,
/// like the simulated pool's uncharged setup) — but it still contains
/// output allocation and CPU work, so compare against predictions with
/// generous bounds.
pub fn execute_batch_native(
    tables: &[Arc<TableData>],
    plans: &[&PhysicalPlan],
) -> Result<Vec<ExecutedQuery>, PlanError> {
    // Pre-size each worker's arena from the catalog footprint so the
    // measured interval contains no growth reallocations: inputs plus
    // headroom for partitions/hash tables/outputs (≈4× input bytes
    // covers every plan shape the planner emits).
    let table_bytes: u64 = tables.iter().map(|t| t.keys.len() as u64 * t.w).sum();
    let arena = (4 * table_bytes).clamp(1 << 16, 1 << 30) as usize;
    let results: Vec<Result<ExecutedQuery, PlanError>> = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .map(|plan| {
                s.spawn(move || {
                    let mut ctx = ExecContext::native_with_capacity(arena);
                    run_member(&mut ctx, tables, plan, &NoPrebuilt, &mut NoTrace).map(
                        |(output_n, output_hash, stats)| ExecutedQuery {
                            output_n,
                            output_hash,
                            measured_ns: NativeBackend::elapsed_ns(&stats.mem),
                            ops: stats.ops,
                        },
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("native service worker panicked"))
            .collect()
    });
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcm_engine::planner::JoinAlgorithm;
    use gcm_hardware::presets;
    use gcm_workload::Workload;

    fn catalog() -> Vec<Arc<TableData>> {
        let mut wl = Workload::new(61);
        let star = wl.star_scenario(2_000, 400, 1);
        vec![
            Arc::new(TableData {
                name: "F".into(),
                keys: star.fact,
                w: 8,
            }),
            Arc::new(TableData {
                name: "D".into(),
                keys: star.dims[0].clone(),
                w: 8,
            }),
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
        let eps = Pattern::empty();
        let batch = execute_batch(&spec, &tables, &[&select, &join], &[&eps, &eps], 4.0).unwrap();
        assert_eq!(batch.len(), 2);
        // Each member's result matches its own serial run (results
        // never depend on co-runners — only timings do).
        for (plan, got) in [&select, &join].into_iter().zip(&batch) {
            let solo = execute_batch(&spec, &tables, &[plan], &[&eps], 4.0).unwrap();
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
        let eps = Pattern::empty();
        let solo = execute_batch(&spec, &tables, &[&join], &[&eps], 4.0).unwrap()[0].measured_ns;
        let four = execute_batch(
            &spec,
            &tables,
            &[&join, &join, &join, &join],
            &[&eps, &eps, &eps, &eps],
            4.0,
        )
        .unwrap();
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
        let views = member_views(&spec, &[&big, &small]);
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
        let solo = member_views(&spec, &[&big]);
        assert_eq!(l2(&solo[0]), full);
        // Zero-footprint members fall back to an even split.
        let eps = Pattern::empty();
        let even = member_views(&spec, &[&eps, &eps]);
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
        let eps = Pattern::empty();
        let sim = execute_batch(&spec, &tables, &[&select, &join], &[&eps, &eps], 4.0).unwrap();
        let native = execute_batch_native(&tables, &[&select, &join]).unwrap();
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
        let eps = Pattern::empty();
        let err = execute_batch(&spec, &tables, &[&bad], &[&eps], 4.0).unwrap_err();
        assert!(matches!(err, PlanError::UnknownTable { table: 7, .. }));
    }
}
