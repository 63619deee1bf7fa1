//! The drift → recalibration loop, driven by served traffic: a
//! `gcm-net` server whose cost model prices every cache miss 4096×
//! too slow for the host it runs on.
//!
//! Queries served over the socket feed the drift monitor with their
//! wall-clock latencies; the smoothed measured/predicted ratio leaves
//! `[1/2, 2]`, the flag rises, the installed recalibrator's probe runs
//! in the background, and its result (the honest spec) is swapped in
//! with a statistics-epoch bump. Every served response must still be
//! byte-identical to a direct execution of the same request's plan.
//! The measured/predicted ratio before the swap sits near 1/1000 on a
//! release build, so the flag does not depend on how fast the host is.

#![cfg(target_os = "linux")]

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use gcm::core::CpuCost;
use gcm::engine::plan::{self, PhysicalPlan};
use gcm::engine::{ExecContext, Relation};
use gcm::hardware::{presets, CacheLevel, HardwareSpec};
use gcm::net::loadgen::{self, LoadgenConfig};
use gcm::net::{NetConfig, NetServer, ResponseFrame};
use gcm::service::{plan_for, QueryService, Recalibration, Recalibrator, TenantTables};
use gcm::workload::{QueryRequest, StarScenario, TenantClass, Workload};

const FACT_N: usize = 8_192;
const DIM_N: usize = 1_024;
const TABLE_SEED: u64 = 2024;
const CLASSES: [TenantClass; 3] = [
    TenantClass::PointLookup,
    TenantClass::ScanHeavy,
    TenantClass::JoinHeavy,
];

/// `spec` with every miss latency multiplied by `factor`.
fn slowed(spec: &HardwareSpec, factor: f64) -> HardwareSpec {
    let levels: Vec<CacheLevel> = spec
        .levels()
        .iter()
        .map(|l| CacheLevel {
            seq_miss_ns: l.seq_miss_ns * factor,
            rand_miss_ns: l.rand_miss_ns * factor,
            ..l.clone()
        })
        .collect();
    HardwareSpec::new(format!("{} x{factor}", spec.name), spec.cpu_mhz, levels)
        .and_then(|s| s.with_cores(spec.cores()))
        .expect("scaled spec stays valid")
}

/// A service on `spec` over the test's star pair, one tenant.
fn service(spec: HardwareSpec) -> (QueryService, TenantTables) {
    let mut svc = QueryService::new(spec);
    let star = Workload::new(TABLE_SEED).star_scenario(FACT_N, DIM_N, 1);
    let fact = svc.register_table("F", star.fact, 8);
    let dim = svc.register_table("D", star.dims[0].clone(), 8);
    let t = TenantTables {
        fact,
        dim,
        key_bound: DIM_N as u64,
    };
    (svc, t)
}

/// FNV-1a over the output bytes: the service's result-equality hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `plan` run alone on a fresh native context over the `star` tables,
/// every hash table built by the plan itself.
fn direct_run(plan: &PhysicalPlan, star: &StarScenario) -> (u64, u64) {
    let mut ctx = ExecContext::native();
    let tables: Vec<Relation> = [("F", &star.fact), ("D", &star.dims[0])]
        .into_iter()
        .map(|(name, keys)| ctx.relation_from_keys(name, keys, 8))
        .collect();
    let run = plan::execute(&mut ctx, plan, &tables).expect("oracle execution");
    (run.output.n(), fnv1a(&ctx.relation_bytes(&run.output)))
}

/// Expected `(output_n, output_hash)` of every request shape, keyed by
/// (class, selectivity bits), from the plans a service on `spec` picks.
fn oracle(spec: HardwareSpec) -> HashMap<(u8, u64), (u64, u64)> {
    let (mut svc, t) = service(spec);
    let star = Workload::new(TABLE_SEED).star_scenario(FACT_N, DIM_N, 1);
    let mut out = HashMap::new();
    for class in CLASSES {
        for &selectivity in class.selectivity_buckets() {
            let req = QueryRequest {
                tenant: 0,
                class,
                selectivity,
            };
            svc.submit(plan_for(&req, &t)).expect("plan optimizes");
            let batch = svc.next_batch().expect("one query queued");
            let key = (class.index(), selectivity.to_bits());
            out.insert(key, direct_run(batch.plans()[0], &star));
        }
    }
    out
}

#[test]
fn served_traffic_raises_drift_and_recalibrates() {
    let honest = presets::modern_smp(4);
    let (mut svc, tenant) = service(slowed(&honest, 4096.0));
    let probed = Arc::new(Mutex::new(Vec::<String>::new()));
    let (probe_log, fixed) = (Arc::clone(&probed), honest.clone());
    svc.set_recalibrator(Recalibrator::new(move |stale| {
        probe_log.lock().unwrap().extend(stale.iter().cloned());
        Recalibration {
            per_op_ns: CpuCost::DEFAULT_PLANNER_PER_OP_NS,
            spec: Some(fixed.clone()),
        }
    }));
    let server = NetServer::start(svc, vec![tenant], NetConfig::default()).expect("server start");
    let report = loadgen::run(
        server.addr(),
        &LoadgenConfig {
            requests: 120,
            offered_qps: 2_000.0,
            connections: 3,
            tenants: CLASSES.to_vec(),
            zipf_theta: 0.99,
            seed: 99,
            drain_timeout: Duration::from_secs(30),
        },
    )
    .expect("load run");
    let mut svc = server.shutdown();
    assert_eq!(report.served, 120, "no SLO gate: everything is served");

    // The flag rose on served traffic; flush a probe still in flight.
    if svc.recalibrations() == 0 {
        assert!(svc.recalibrate_now(), "served traffic never raised a probe");
    }
    assert!(svc.recalibrations() >= 1);
    assert!(svc.catalog().epoch() >= 1, "the swap bumps the epoch");
    assert_eq!(svc.spec(), &honest, "the probe's spec is in force");
    assert!(
        !probed.lock().unwrap().is_empty(),
        "probe got stale classes"
    );

    // The miscalibrated model plans nested-loop joins, the honest one
    // hash joins; both return the same bytes, so every response, served
    // before or after the swap, must match direct execution.
    let expected = oracle(honest.clone());
    assert_eq!(oracle(slowed(&honest, 4096.0)), expected);
    let mut checked = 0;
    for (submit, response, _) in &report.responses {
        if let ResponseFrame::Served {
            output_n,
            output_hash,
            ..
        } = response
        {
            let key = (submit.class.index(), submit.selectivity_bits);
            assert_eq!((*output_n, *output_hash), expected[&key], "{key:?}");
            checked += 1;
        }
    }
    assert_eq!(checked, 120);
}
