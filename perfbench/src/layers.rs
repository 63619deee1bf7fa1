//! Layer probes run after the measured phase, on the workload's own
//! tables: single-operator plans on the native backend next to
//! plain-Rust reference loops over the same keys (the hardware floor),
//! the optimizer, the cost model's per-node prediction ratio, and the
//! wire codec.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use gcm_core::CostModel;
use gcm_engine::ops::scan::scan_sum;
use gcm_engine::plan::{self, optimize_and_lower, ExplainNode, PhysicalPlan, TableStats};
use gcm_engine::planner::JoinAlgorithm;
use gcm_engine::{ExecContext, NativeBackend, Relation};
use gcm_net::{encode_submit, Frame, FrameDecoder, SubmitFrame};
use gcm_service::{plan_for, QueryService, TenantTables};
use gcm_workload::{QueryRequest, TenantClass};

use crate::setup::{self, DIM_N, W};
use crate::stats::median;

/// One operator next to its reference loop, ns per input tuple.
#[derive(Debug, Clone, Copy)]
pub struct OpTiming {
    pub name: &'static str,
    pub ns_per_tuple: f64,
    pub floor_ns_per_tuple: f64,
}

/// Median of `reps` timed runs of `f`, ns.
fn time_median(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let runs: Vec<f64> = (0..reps).map(|_| f()).collect();
    median(&runs)
}

/// Time one engine operator: a fresh pre-sized native context per rep
/// with the tables materialized outside the timed interval.
fn engine_op(
    fact: &[u64],
    dim: &[u64],
    reps: usize,
    op: impl Fn(&mut ExecContext<NativeBackend>, &[Relation]) -> u64,
) -> f64 {
    let bytes = (fact.len() + dim.len()) * W as usize;
    time_median(reps, || {
        let mut ctx = ExecContext::native_with_capacity(4 * bytes + (1 << 20));
        let rels = [
            ctx.relation_from_keys("F", fact, W),
            ctx.relation_from_keys("D", dim, W),
        ];
        let t0 = Instant::now();
        black_box(op(&mut ctx, &rels));
        t0.elapsed().as_nanos() as f64
    })
}

fn run_plan(ctx: &mut ExecContext<NativeBackend>, rels: &[Relation], p: &PhysicalPlan) -> u64 {
    plan::execute(ctx, p, rels)
        .expect("single-operator plan executes")
        .output
        .n()
}

/// `scan`, `select_lt`, `group_count` and `hash_join` over the fact
/// table (the join builds on the dimension table), each against its
/// reference loop.
pub fn engine_ops(fact: &[u64], dim: &[u64], reps: usize) -> Vec<OpTiming> {
    let n = fact.len() as f64;
    let cut = DIM_N as u64 / 2;
    let select = PhysicalPlan::scan(0).select_lt(cut);
    let group = PhysicalPlan::scan(0).group_count();
    let join = PhysicalPlan::scan(0).join_with(PhysicalPlan::scan(1), JoinAlgorithm::Hash);

    let scan_e = engine_op(fact, dim, reps, |ctx, rels| scan_sum(ctx, &rels[0], W));
    let select_e = engine_op(fact, dim, reps, |ctx, rels| run_plan(ctx, rels, &select));
    let group_e = engine_op(fact, dim, reps, |ctx, rels| run_plan(ctx, rels, &group));
    let join_e = engine_op(fact, dim, reps, |ctx, rels| run_plan(ctx, rels, &join));

    let scan_f = time_median(reps, || {
        let t0 = Instant::now();
        // Eight independent lanes, so the adds vectorize.
        let keys = black_box(fact);
        let mut lanes = [0u64; 8];
        for chunk in keys.chunks_exact(8) {
            for (l, &k) in lanes.iter_mut().zip(chunk) {
                *l = l.wrapping_add(k);
            }
        }
        let tail = keys.chunks_exact(8).remainder().iter();
        let sum = lanes
            .iter()
            .chain(tail)
            .fold(0u64, |a, &k| a.wrapping_add(k));
        black_box(sum);
        t0.elapsed().as_nanos() as f64
    });
    let select_f = time_median(reps, || {
        let t0 = Instant::now();
        // Branch-free: write every key, advance only past qualifying ones.
        let mut out = vec![0u64; fact.len()];
        let mut n = 0;
        for &k in black_box(fact) {
            out[n] = k;
            n += (k < cut) as usize;
        }
        out.truncate(n);
        black_box(out);
        t0.elapsed().as_nanos() as f64
    });
    let group_f = time_median(reps, || {
        let t0 = Instant::now();
        let mut counts = vec![0u64; DIM_N];
        for &k in black_box(fact) {
            counts[k as usize] += 1;
        }
        let groups: Vec<(u64, u64)> = counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(k, &c)| (k as u64, c))
            .collect();
        black_box(groups);
        t0.elapsed().as_nanos() as f64
    });
    let join_f = time_median(reps, || {
        let t0 = Instant::now();
        let mut table: HashMap<u64, u64> = HashMap::with_capacity(dim.len());
        for (i, &k) in black_box(dim).iter().enumerate() {
            table.insert(k, i as u64);
        }
        let mut out = Vec::with_capacity(fact.len());
        for &k in black_box(fact) {
            if let Some(&v) = table.get(&k) {
                out.push((k, v));
            }
        }
        black_box(out);
        t0.elapsed().as_nanos() as f64
    });

    [
        ("scan", scan_e, scan_f),
        ("select_lt", select_e, select_f),
        ("group_count", group_e, group_f),
        ("hash_join", join_e, join_f),
    ]
    .into_iter()
    .map(|(name, e, f)| OpTiming {
        name,
        ns_per_tuple: e / n,
        floor_ns_per_tuple: f / n,
    })
    .collect()
}

/// `optimize_and_lower` per distinct plan of the workload, µs (median
/// over every plan × rep).
pub fn optimize_us(
    tenants: &[TenantTables],
    classes: &[TenantClass],
    stats: &[TableStats],
    reps: usize,
) -> f64 {
    let model = CostModel::new(setup::spec().thread_view(1));
    let mut runs = Vec::new();
    for req in setup::warm_set(tenants.len()) {
        if !classes.contains(&req.class) {
            continue;
        }
        let logical = plan_for(&req, &tenants[req.tenant]);
        for _ in 0..reps {
            let t0 = Instant::now();
            black_box(optimize_and_lower(&model, &logical, stats).expect("plan optimizes"));
            runs.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    median(&runs)
}

/// Measured ÷ predicted per node class, from `QueryService::explain_analyze`
/// on the served scan-heavy and join-heavy plans (median over `reps`),
/// keyed `select_lt`, `group_count`, `hash_join`; 0 for a class the
/// plans did not contain.
pub fn pred_ratios(
    svc: &mut QueryService,
    t: &TenantTables,
    reps: usize,
) -> Vec<(&'static str, f64)> {
    let plans = [TenantClass::ScanHeavy, TenantClass::JoinHeavy].map(|class| {
        plan_for(
            &QueryRequest {
                tenant: 0,
                class,
                selectivity: 0.5,
            },
            t,
        )
    });
    let mut ratios: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for _ in 0..reps {
        for p in &plans {
            let (report, _pmu) = svc.explain_analyze(p).expect("explain analyze");
            collect_ratios(&report.root, &mut ratios);
        }
    }
    ["select_lt", "group_count", "hash_join"]
        .into_iter()
        .map(|k| (k, ratios.get(k).map_or(0.0, |v| median(v))))
        .collect()
}

fn collect_ratios(node: &ExplainNode, out: &mut HashMap<&'static str, Vec<f64>>) {
    let key = match node.class.as_str() {
        "select" => Some("select_lt"),
        "aggregate" => Some("group_count"),
        c if c.starts_with("join") => Some("hash_join"),
        _ => None,
    };
    if let (Some(k), Some(m), Some(p)) = (key, &node.measured, &node.predicted) {
        if p.total_ns > 0.0 {
            out.entry(k).or_default().push(m.total_ns / p.total_ns);
        }
    }
    for c in &node.children {
        collect_ratios(c, out);
    }
}

/// `encode_submit` plus `FrameDecoder::next` per frame, ns (median of
/// `reps` passes over the workload's request stream).
pub fn codec_ns_per_frame(stream: &[QueryRequest], reps: usize) -> f64 {
    let frames: Vec<SubmitFrame> = stream
        .iter()
        .enumerate()
        .map(|(i, r)| SubmitFrame {
            id: i as u64,
            tenant: r.tenant as u32,
            class: r.class,
            selectivity_bits: r.selectivity.to_bits(),
        })
        .collect();
    time_median(reps, || {
        let t0 = Instant::now();
        let mut bytes = Vec::with_capacity(frames.len() * 32);
        for f in &frames {
            encode_submit(black_box(f), &mut bytes);
        }
        let mut decoder = FrameDecoder::new();
        decoder.push(&bytes);
        let mut n = 0usize;
        while let Ok(Some(Frame::Submit(f))) = decoder.next() {
            black_box(f);
            n += 1;
        }
        assert_eq!(n, frames.len(), "codec round trip lost frames");
        t0.elapsed().as_nanos() as f64 / frames.len() as f64
    })
}
