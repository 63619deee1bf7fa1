//! Property: across seeded random star scenarios, the whole-plan
//! optimizer's chosen plan — executed for real on the simulator — is
//! never worse than a small constant factor of the best enumerated
//! alternative. (The model may mis-rank near-ties; it must not pick a
//! loser.)

use gcm::core::{CostModel, CpuCost};
use gcm::engine::plan::{execute, LogicalPlan, Optimizer, TableStats};
use gcm::engine::planner::DEFAULT_PLANNER_PER_OP_NS;
use gcm::engine::ExecContext;
use gcm::hardware::presets;
use gcm::workload::Workload;
use proptest::prelude::*;

/// The chosen plan may be at most this factor slower than the measured
/// best enumerated plan.
const NEAR_BEST_FACTOR: f64 = 2.0;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn chosen_plan_is_near_best(
        seed in 0u64..1_000_000,
        fact_n in 512usize..=1024,
        dim_n in 128usize..=384,
        sel_pct in 25u64..=100,
    ) {
        // Full associativity keeps conflict misses (which the model
        // deliberately ignores) out of the comparison.
        let spec = presets::tiny_full_assoc();
        let model = CostModel::new(spec.clone());
        let star = Workload::new(seed).star_scenario(fact_n, dim_n, 2);
        let threshold = star.threshold(sel_pct as f64 / 100.0);

        let logical = LogicalPlan::scan(0)
            .select_lt(threshold)
            .join(LogicalPlan::scan(1))
            .join(LogicalPlan::scan(2))
            .group_count();
        let stats = [
            TableStats::uniform(fact_n as u64, 8, dim_n as u64, false),
            TableStats::key_column(dim_n as u64, 8, false),
            TableStats::key_column(dim_n as u64, 8, false),
        ];
        let plans = Optimizer::new(&model)
            .with_cpu(CpuCost::default_planner())
            .with_beam(6)
            .enumerate(&logical, &stats)
            .expect("plans enumerate");
        prop_assert!(plans.len() >= 2, "need alternatives, got {}", plans.len());

        let mut measured = Vec::new();
        let mut outputs = Vec::new();
        for planned in &plans {
            let mut ctx = ExecContext::new(spec.clone());
            let tables = [
                ctx.relation_from_keys("F", &star.fact, 8),
                ctx.relation_from_keys("D1", &star.dims[0], 8),
                ctx.relation_from_keys("D2", &star.dims[1], 8),
            ];
            let mut out_n = 0;
            let (_, stats) = ctx.measure(|c| {
                out_n = execute(c, &planned.plan, &tables).expect("plan executes").output.n();
            });
            measured.push(stats.total_ns(DEFAULT_PLANNER_PER_OP_NS));
            outputs.push(out_n);
        }

        // All alternatives compute the same result cardinality.
        for (o, p) in outputs.iter().zip(&plans) {
            prop_assert_eq!(*o, outputs[0], "result mismatch for {}", p.plan);
        }

        // The chosen plan (index 0: cheapest predicted) is near-best.
        let chosen = measured[0];
        let best = measured.iter().copied().fold(f64::INFINITY, f64::min);
        prop_assert!(
            chosen <= NEAR_BEST_FACTOR * best,
            "seed {}: chosen {} measured {:.0} ns, but best is {:.0} ns",
            seed, plans[0].plan, chosen, best
        );
    }

    /// Zipf-skewed fact tables: the optimizer must stay near-best when
    /// foreign keys pile onto a few hot dimension keys (duplicate-heavy
    /// inputs stress the distinct estimates).
    #[test]
    fn chosen_plan_is_near_best_under_key_skew(
        seed in 0u64..1_000_000,
        fact_n in 512usize..=1024,
        dim_n in 128usize..=384,
        theta_tenths in 8u64..=16,
    ) {
        let spec = presets::tiny_full_assoc();
        let model = CostModel::new(spec.clone());
        let star = Workload::new(seed).skewed_star_scenario(
            fact_n, dim_n, 2, theta_tenths as f64 / 10.0,
        );
        let threshold = star.threshold(0.75);

        let logical = LogicalPlan::scan(0)
            .select_lt(threshold)
            .join(LogicalPlan::scan(1))
            .join(LogicalPlan::scan(2))
            .group_count();
        // Honest logical statistics for the skewed column: the distinct
        // count comes from the data, not the uniform-occupancy formula.
        let fact_distinct = {
            let mut seen = std::collections::HashSet::new();
            star.fact.iter().filter(|k| seen.insert(**k)).count() as f64
        };
        let mut fact_stats = TableStats::uniform(fact_n as u64, 8, dim_n as u64, false);
        fact_stats.distinct = fact_distinct;
        let stats = [
            fact_stats,
            TableStats::key_column(dim_n as u64, 8, false),
            TableStats::key_column(dim_n as u64, 8, false),
        ];
        let plans = Optimizer::new(&model)
            .with_beam(6)
            .enumerate(&logical, &stats)
            .expect("plans enumerate");
        prop_assert!(plans.len() >= 2);

        let mut measured = Vec::new();
        let mut outputs = Vec::new();
        for planned in &plans {
            let mut ctx = ExecContext::new(spec.clone());
            let tables = [
                ctx.relation_from_keys("F", &star.fact, 8),
                ctx.relation_from_keys("D1", &star.dims[0], 8),
                ctx.relation_from_keys("D2", &star.dims[1], 8),
            ];
            let mut out_n = 0;
            let (_, stats) = ctx.measure(|c| {
                out_n = execute(c, &planned.plan, &tables).expect("plan executes").output.n();
            });
            measured.push(stats.total_ns(DEFAULT_PLANNER_PER_OP_NS));
            outputs.push(out_n);
        }
        for (o, p) in outputs.iter().zip(&plans) {
            prop_assert_eq!(*o, outputs[0], "result mismatch for {}", p.plan);
        }
        let chosen = measured[0];
        let best = measured.iter().copied().fold(f64::INFINITY, f64::min);
        prop_assert!(
            chosen <= NEAR_BEST_FACTOR * best,
            "seed {} (skewed): chosen {} measured {:.0} ns, best {:.0} ns",
            seed, plans[0].plan, chosen, best
        );
    }
}
