//! Extension — whole-query costing (paper §6: "Extension to further
//! operations and whole queries, however, is straight forward").
//!
//! Runs a three-operator plan (σ → ⋈ → γ) end to end on the
//! Origin2000 simulator and compares against the composed pattern
//! `select ⊕ hash_join ⊕ aggregate` evaluated in one shot — including
//! the cross-operator cache reuse that per-operator costing would miss.

use gcm_bench::fig7;
use gcm_bench::table::Series;
use gcm_core::CostModel;
use gcm_engine::plan::{self, PhysicalPlan};
use gcm_engine::planner::JoinAlgorithm;
use gcm_engine::ExecContext;
use gcm_hardware::presets;
use gcm_workload::Workload;

fn main() {
    let spec = presets::origin2000();
    let model = CostModel::new(spec.clone());
    let cols = fig7::columns();
    let mut series = Series::new(
        "Extension — query σ(U) ⋈ V → γ (x = ||U|| = ||V|| in KB; 50% selectivity)",
        &cols,
    );

    let kb = 1024u64;
    for size in [256 * kb, 1024 * kb, 4096 * kb] {
        let n = size / 8;
        let mut ctx = ExecContext::new(spec.clone());
        let (uk, vk) = Workload::new(size).join_pair(n as usize);
        let u = ctx.relation_from_keys("U", &uk, 8);
        let v = ctx.relation_from_keys("V", &vk, 8);

        let query = PhysicalPlan::scan(0)
            .select_lt(n / 2) // 50% selectivity
            .join_with(PhysicalPlan::scan(1), JoinAlgorithm::Hash)
            .group_count();
        let tables = [u, v];
        let (run, stats) =
            ctx.measure(|c| plan::execute(c, &query, &tables).expect("plan executes"));

        let report = model.report(&run.pattern);
        let pred_ops = 8 * n;
        series.row(&fig7::row(
            &spec,
            (size / kb) as f64,
            &stats.mem,
            stats.ops,
            &report,
            pred_ops,
        ));
    }
    series.print();
    fig7::summarize(&series);
    println!(
        "the composed pattern (one ⊕-chain with actual intermediate cardinalities)\n\
         prices the whole query, cross-operator cache reuse included."
    );
}
