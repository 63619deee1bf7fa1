//! Extension — serving-layer throughput: ⊙-priced batches vs serial.
//!
//! The query service's admission controller prices a candidate batch as
//! the `⊙`-composition of the members' whole-plan patterns
//! (`CostModel::batch_cost`) and admits a query only while that beats
//! appending it serially. This bench closes the loop on that claim with
//! the executor pool's *measured* walls:
//!
//! * for a 2-query and a 4-query batch the service forms, the measured
//!   batch wall must land within 40% of the ⊙ prediction;
//! * on the join-heavy mix, draining the queue with batching enabled
//!   must be at least as fast (measured, simulated ns) as draining the
//!   same queue one query at a time.

use gcm_bench::table::Series;
use gcm_engine::plan::LogicalPlan;
use gcm_hardware::presets;
use gcm_service::{QueryService, ServiceConfig};
use gcm_workload::Workload;

const TOLERANCE: f64 = 0.40;
const POOL_PAGES: u64 = 96;
const PAGE: u64 = 8192;

fn service(max_batch: usize) -> (QueryService, usize, usize, usize, usize) {
    let spec = presets::with_ssd_buffer_pool(presets::modern_smp(4), POOL_PAGES * PAGE, PAGE);
    let mut svc = QueryService::with_config(
        spec,
        ServiceConfig {
            max_batch,
            ..ServiceConfig::default()
        },
    );
    let mut wl = Workload::new(2002);
    let point_dim = svc.register_table("point.D", wl.shuffled_keys(65_536), 8);
    let scan_star = wl.star_scenario(131_072, 2_048, 0);
    let scan_fact = svc.register_table("scan.F", scan_star.fact, 8);
    let join_star = wl.star_scenario(240_000, 16_000, 1);
    let join_fact = svc.register_table("join.F", join_star.fact, 8);
    let join_dim = svc.register_table("join.D", join_star.dims[0].clone(), 8);
    (svc, point_dim, scan_fact, join_fact, join_dim)
}

fn main() {
    // --- Part 1: batch-wall accuracy for a 2- and a 4-query batch. ---
    let (mut svc, point_dim, scan_fact, join_fact, join_dim) = service(0);
    let point = |cut: u64| LogicalPlan::scan(point_dim).select_lt(cut);
    let scan = |cut: u64| LogicalPlan::scan(scan_fact).select_lt(cut).group_count();
    let join = |cut: u64| {
        LogicalPlan::scan(join_fact)
            .select_lt(cut)
            .join(LogicalPlan::scan(join_dim))
            .group_count()
    };

    // A 4-query streaming batch, then a 2-query join batch (a heavy
    // and a light join fit the pool together; two heavies would not).
    for q in [
        scan(1_024),
        point(131),
        point(655),
        scan(2_048),
        join(8_000),
        join(4_000),
    ] {
        svc.submit(q).expect("registered tables");
    }
    svc.run().expect("queue drains");
    let m = svc.metrics().clone();

    let mut series = Series::new(
        "Extension — service batches: ⊙-predicted vs measured wall (ms)".to_string(),
        &["size", "predicted", "measured", "meas/pred"],
    );
    for b in &m.batches {
        series.row(&[
            b.size() as f64,
            b.predicted_wall_ns / 1e6,
            b.measured_wall_ns / 1e6,
            b.accuracy(),
        ]);
    }
    series.print();

    let sizes: Vec<usize> = m.batches.iter().map(|b| b.size()).collect();
    assert!(
        sizes.contains(&4) && sizes.contains(&2),
        "expected a 4-query and a 2-query batch, got {sizes:?}"
    );
    for b in &m.batches {
        let acc = b.accuracy();
        assert!(
            (acc - 1.0).abs() <= TOLERANCE,
            "batch of {} deviates {:.0}% (measured {:.2} ms vs predicted {:.2} ms)",
            b.size(),
            (acc - 1.0).abs() * 100.0,
            b.measured_wall_ns / 1e6,
            b.predicted_wall_ns / 1e6
        );
    }
    println!(
        "\nbatch walls within {:.0}% of the ⊙ prediction for sizes {sizes:?} ✓",
        TOLERANCE * 100.0
    );

    // --- Part 2: batched ≥ serial throughput on the join-heavy mix. ---
    let queue = |svc: &mut QueryService| {
        for cut in [4_000, 8_000, 4_000, 4_000, 8_000, 4_000] {
            let q = LogicalPlan::scan(join_fact)
                .select_lt(cut)
                .join(LogicalPlan::scan(join_dim))
                .group_count();
            svc.submit(q).expect("registered tables");
        }
    };
    let (mut batched, ..) = service(0);
    queue(&mut batched);
    batched.run().expect("drains");
    let batched_m = batched.metrics().clone();

    let (mut serial, ..) = service(1);
    queue(&mut serial);
    serial.run().expect("drains");
    let serial_m = serial.metrics().clone();

    let (b_ns, s_ns) = (batched_m.total_wall_ns(), serial_m.total_wall_ns());
    println!(
        "join-heavy mix: batched {:.1} ms over {} batches (max size {}) vs serial {:.1} ms",
        b_ns / 1e6,
        batched_m.batches.len(),
        batched_m.max_batch_size(),
        s_ns / 1e6
    );
    assert!(
        batched_m.max_batch_size() > 1,
        "the light joins must share the machine"
    );
    assert!(
        b_ns <= s_ns,
        "batched throughput regressed: {:.1} ms vs serial {:.1} ms",
        b_ns / 1e6,
        s_ns / 1e6
    );
    // Identical results either way. Both services were fed the same
    // queue in the same order, so a query id names the same query in
    // each.
    let outputs = |m: &gcm_service::ServiceMetrics| {
        let mut v: Vec<(u64, u64, u64)> = m
            .queries
            .iter()
            .map(|q| (q.id, q.output_n, q.output_hash))
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(outputs(&batched_m), outputs(&serial_m));
    println!("batched throughput ≥ serial on the join-heavy mix ✓");
}
