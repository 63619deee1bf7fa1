//! Observability-layer integration tests (ISSUE 8 satellite c).
//!
//! Three families, all driving the public `gcm::obs` surface from the
//! outside the way a service deployment would:
//!
//! - histogram quantile error: property-tested against the exact order
//!   statistic of the raw samples, which must stay within the
//!   documented [`gcm::obs::hist::QUANTILE_REL_ERROR`] bound;
//! - span recorder under contention: eight writer threads racing a
//!   concurrent drainer must lose nothing and duplicate nothing
//!   (`(name, start_ns)` pairs are the identity);
//! - `EXPLAIN ANALYZE` golden: the redacted text of a two-join plan is
//!   pinned byte-for-byte, so the report's tree shape, labels, and row
//!   layout cannot drift silently;
//! - span memory on the served path: a service that serves natively
//!   and is never drained holds one buffer's worth of spans and counts
//!   the rest as dropped.
//!
//! Plus the satellite-a check that the bounded miss trace is reachable
//! through the `MemoryBackend` trait rather than only through the
//! simulator's concrete type.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};

use gcm::core::{CostModel, CpuCost};
use gcm::engine::plan::{explain_analyze, LogicalPlan, PhysicalPlan};
use gcm::engine::planner::JoinAlgorithm;
use gcm::engine::{ExecContext, MemoryBackend, NativeBackend};
use gcm::hardware::presets;
use gcm::obs::hist::QUANTILE_REL_ERROR;
use gcm::obs::span::DEFAULT_SPAN_CAPACITY;
use gcm::obs::{Histogram, Span, SpanKind, SpanRecorder};
use gcm::service::QueryService;
use gcm::workload::Workload;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Histogram quantile error vs the exact order statistic
// ---------------------------------------------------------------------

/// Exact order statistic under the histogram's own rank convention:
/// the sample of rank `⌈q·n⌉` (rank 1 = min) in sorted order.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn histogram_quantiles_stay_within_documented_error(
        mut samples in proptest::collection::vec(0u64..5_000_000_000, 1..400),
        q_mille in 0u64..=1000,
    ) {
        let mut h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        samples.sort_unstable();
        let q = q_mille as f64 / 1000.0;

        for (est, exact) in [
            (h.quantile(q), exact_quantile(&samples, q)),
            (h.p50(), exact_quantile(&samples, 0.50)),
            (h.p99(), exact_quantile(&samples, 0.99)),
            (h.p999(), exact_quantile(&samples, 0.999)),
        ] {
            let err = (est as f64 - exact as f64).abs();
            // Bucket midpoints sit within QUANTILE_REL_ERROR of any
            // value in the bucket; +1 absorbs integer midpoint rounding.
            prop_assert!(
                err <= QUANTILE_REL_ERROR * exact as f64 + 1.0,
                "quantile {q}: estimate {est} vs exact {exact} (err {err})"
            );
        }
        prop_assert_eq!(h.min(), samples[0]);
        prop_assert_eq!(h.max(), *samples.last().unwrap());
        prop_assert_eq!(h.count(), samples.len() as u64);
    }

    #[test]
    fn histogram_merge_equals_recording_the_union(
        a in proptest::collection::vec(0u64..1_000_000, 0..100),
        b in proptest::collection::vec(0u64..1_000_000, 1..100),
    ) {
        let mut ha = Histogram::new();
        for &v in &a {
            ha.record(v);
        }
        let mut hb = Histogram::new();
        for &v in &b {
            hb.record(v);
        }
        ha.merge(&hb);

        let mut hu = Histogram::new();
        for &v in a.iter().chain(&b) {
            hu.record(v);
        }
        prop_assert_eq!(ha, hu);
    }
}

// ---------------------------------------------------------------------
// Span recorder: 8 writers racing a concurrent drainer
// ---------------------------------------------------------------------

const WRITERS: usize = 8;
const SPANS_PER_WRITER: u64 = 500;

#[test]
fn eight_writers_with_concurrent_drain_lose_and_duplicate_nothing() {
    // Capacity covers every writer's full output, so even a drainer
    // that never keeps up cannot force drops — any loss is a real bug.
    let rec = SpanRecorder::with_capacity(WRITERS * SPANS_PER_WRITER as usize);
    let done = AtomicBool::new(false);
    let mut harvested: Vec<Span> = Vec::new();

    std::thread::scope(|s| {
        let mut writers = Vec::new();
        for w in 0..WRITERS {
            let rec = &rec;
            writers.push(s.spawn(move || {
                for i in 0..SPANS_PER_WRITER {
                    rec.record(Span {
                        name: format!("op{w}"),
                        kind: SpanKind::Execute,
                        start_ns: i,
                        end_ns: i + 1,
                        elapsed_ns: 1.0,
                        accesses: 0,
                        level_misses: Vec::new(),
                        ops: i,
                    });
                    if i % 64 == 0 {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        // Drain concurrently while the writers are still recording.
        let drainer = s.spawn(|| {
            let mut got = Vec::new();
            while !done.load(Ordering::Acquire) {
                got.extend(rec.drain());
                std::thread::yield_now();
            }
            got
        });
        for w in writers {
            w.join().unwrap();
        }
        done.store(true, Ordering::Release);
        harvested = drainer.join().unwrap();
    });

    // Writers have exited; whatever the racing drainer missed is still
    // buffered.
    harvested.extend(rec.drain());

    let expected = WRITERS as u64 * SPANS_PER_WRITER;
    assert_eq!(rec.dropped(), 0, "capacity was sized to never drop");
    assert_eq!(harvested.len() as u64, expected, "no span may be lost");

    let identities: HashSet<(&str, u64)> = harvested
        .iter()
        .map(|sp| (sp.name.as_str(), sp.start_ns))
        .collect();
    assert_eq!(
        identities.len() as u64,
        expected,
        "(name, start_ns) pairs must be unique — duplicates mean a span was drained twice"
    );
    // Every writer delivered its full, gap-free sequence, in the order
    // it recorded it.
    for w in 0..WRITERS {
        let name = format!("op{w}");
        let seq: Vec<u64> = harvested
            .iter()
            .filter(|sp| sp.name == name)
            .map(|sp| sp.start_ns)
            .collect();
        assert_eq!(seq, (0..SPANS_PER_WRITER).collect::<Vec<_>>(), "{name}");
    }
}

// ---------------------------------------------------------------------
// EXPLAIN ANALYZE golden: pinned redacted two-join report
// ---------------------------------------------------------------------

/// Redacted (`redacted_text`: digit runs → `#`) report for the pinned
/// two-join plan below. Pins the tree shape, operator labels, column
/// layout, and the presence of per-level miss rows on the simulator —
/// everything except machine-dependent magnitudes.
const GOLDEN: &str = "\
EXPLAIN ANALYZE
group_count  predicted=# ns  measured=# ns  ratio=#  ops=#
  [misses: L# pred=# meas=# | L# pred=# meas=# | TLB pred=# meas=#]
  join[hash]  predicted=# ns  measured=# ns  ratio=#  ops=#
    [misses: L# pred=# meas=# | L# pred=# meas=# | TLB pred=# meas=#]
    join[hash]  predicted=# ns  measured=# ns  ratio=#  ops=#
      [misses: L# pred=# meas=# | L# pred=# meas=# | TLB pred=# meas=#]
      select  predicted=# ns  measured=# ns  ratio=#  ops=#
        [misses: L# pred=# meas=# | L# pred=# meas=# | TLB pred=# meas=#]
        scan(#)
      scan(#)
    scan(#)
";

#[test]
fn explain_analyze_two_join_redacted_text_matches_golden() {
    let mut ctx = ExecContext::new(presets::tiny());
    let star = Workload::new(41).star_scenario(2_000, 400, 2);
    let tables = vec![
        ctx.relation_from_keys("F", &star.fact, 8),
        ctx.relation_from_keys("D1", &star.dims[0], 8),
        ctx.relation_from_keys("D2", &star.dims[1], 8),
    ];
    let plan = PhysicalPlan::scan(0)
        .select_lt(200)
        .join_with(PhysicalPlan::scan(1), JoinAlgorithm::Hash)
        .join_with(PhysicalPlan::scan(2), JoinAlgorithm::Hash)
        .group_count();

    let model = CostModel::new(presets::tiny());
    let cpu = CpuCost::default_planner();
    let (run, report) =
        explain_analyze(&mut ctx, &plan, &tables, &model, &cpu, cpu.per_op_ns).unwrap();
    assert!(run.output.n() > 0);

    let redacted = report.redacted_text();
    assert_eq!(
        redacted, GOLDEN,
        "redacted EXPLAIN ANALYZE drifted from the pinned golden.\n\
         --- actual ---\n{redacted}\n--- end actual ---"
    );
}

// ---------------------------------------------------------------------
// Satellite a: the miss trace travels through the MemoryBackend trait
// ---------------------------------------------------------------------

#[test]
fn miss_trace_is_reachable_through_the_backend_trait() {
    fn attach<B: MemoryBackend>(mem: &mut B, capacity: usize) -> bool {
        mem.attach_miss_trace(capacity)
    }

    let mut ctx = ExecContext::new(presets::tiny());
    assert!(
        attach(&mut ctx.mem, 16),
        "the simulator records miss traces"
    );
    // A cold sequential scan of 4k tuples pushes far more than 16 miss
    // events through the bounded ring: the trace must stay at capacity
    // and count the overflow instead of growing.
    let keys: Vec<u64> = (0..4_000).collect();
    let rel = ctx.relation_from_keys("t", &keys, 8);
    ctx.cold_caches();
    for i in 0..keys.len() as u64 {
        ctx.read_tuple(&rel, i);
    }

    let dropped_live = ctx.mem.miss_trace_dropped().expect("trace is attached");
    let trace = ctx.mem.take_miss_trace().expect("trace detaches");
    assert!(trace.len() <= 16, "ring must stay bounded");
    assert_eq!(trace.events().count(), trace.len());
    assert!(!trace.is_empty(), "a cold 4k-tuple stream must miss");
    assert!(trace.dropped() > 0, "overflow must be counted, not ignored");
    assert_eq!(trace.dropped(), dropped_live);
    // Detached means gone: a second take yields nothing.
    assert!(ctx.mem.take_miss_trace().is_none());
    assert!(ctx.mem.miss_trace_dropped().is_none());

    // Native memory has no observable misses: attach reports that
    // honestly instead of handing back an empty-but-plausible trace.
    let mut native = NativeBackend::new();
    assert!(!native.attach_miss_trace(16));
    assert!(native.take_miss_trace().is_none());
    assert!(native.miss_trace_dropped().is_none());
}

// ---------------------------------------------------------------------
// Span memory on the served path
// ---------------------------------------------------------------------

/// Serve 1 500 point lookups natively, one per batch, with tracing on.
/// Returns the spans harvested (after every batch when
/// `drain_each_batch`, else once at the end) and the spans dropped.
fn serve_traced_point_lookups(drain_each_batch: bool) -> (usize, u64) {
    let mut svc = QueryService::new(presets::tiny_smp(4));
    svc.register_table("D", (0..64).collect(), 8);
    let mut harvested = 0;
    for i in 0..1_500u64 {
        svc.submit(LogicalPlan::scan(0).select_lt(1 + i % 8))
            .unwrap();
        while let Some(batch) = svc.next_batch() {
            svc.execute_batch_native_observed(batch).unwrap();
            if drain_each_batch {
                harvested += svc.spans().drain().len();
            }
        }
    }
    harvested += svc.spans().drain().len();
    let dropped = svc.spans().dropped();
    let exported = svc
        .metrics()
        .registry
        .counter("gcm_service_spans_dropped_total");
    assert_eq!(exported, Some(dropped));
    (harvested, dropped)
}

#[test]
fn undrained_native_spans_stay_within_one_lane() {
    // Drained after every batch nothing drops, which gives the total.
    // Never drained, the service's span buffer holds exactly its
    // capacity, the rest counted as dropped.
    let (total, none) = serve_traced_point_lookups(true);
    assert_eq!(none, 0);
    assert!(
        total > DEFAULT_SPAN_CAPACITY,
        "{total} spans must overflow the buffer"
    );
    let (kept, dropped) = serve_traced_point_lookups(false);
    assert_eq!(kept, DEFAULT_SPAN_CAPACITY);
    assert_eq!(kept as u64 + dropped, total as u64);
}
