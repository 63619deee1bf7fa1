//! PMU ground truth for the cost model: execute representative plans on
//! **host memory** with hardware performance counters attached, and
//! compare the model's predicted cache misses against what the CPU's
//! PMU actually counted — the validation loop the simulator's charged
//! counters can only approximate.
//!
//! On a perf-capable host (`/proc/sys/kernel/perf_event_paranoid` ≤ 2
//! or `CAP_PERFMON`; see `gcm-obs::pmu`), every operator row reports
//! predicted vs PMU-measured L1d misses and their ratio, and the run is
//! checked against the committed `BENCH_pmu.json`: a per-operator ratio
//! drifting more than `REGRESSION_BOUND`× (2×) from the committed one
//! fails the bench. The check only fires when **both** the committed
//! artifact and the current run are PMU-capable — comparing a counter
//! run against a fallback run (or vice versa) is meaningless, and the
//! bench prints a visible `SKIPPED` marker instead.
//!
//! On a host without counters (VMs without vPMU, locked-down runners)
//! the bench still runs every plan, asserts the honest fallback (no
//! miss rows anywhere), and writes a **deterministic** artifact
//! (`pmu_available: false`, empty operator list, no host-specific
//! strings) so CI can `git diff --exit-code` it.

use gcm_calibrate::calibrate_host;
use gcm_core::{CostModel, CpuCost};
use gcm_engine::native::calibrate_per_op_ns;
use gcm_engine::plan::{explain_analyze, ExplainNode, PhysicalPlan};
use gcm_engine::planner::JoinAlgorithm;
use gcm_engine::ExecContext;
use gcm_hardware::presets;
use gcm_obs::json::{Arr, Obj};
use gcm_obs::pmu::{pmu_status, PmuStatus};
use gcm_obs::FlightRecorder;
use gcm_workload::Workload;

const SCHEMA: &str = "gcm-pmu-validation/v1";
const REGRESSION_BOUND: f64 = 2.0;
const ARTIFACT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pmu.json");

/// One operator's predicted-vs-PMU-measured L1d misses.
struct OpRow {
    class: String,
    predicted: f64,
    measured: u64,
}

impl OpRow {
    fn ratio(&self) -> f64 {
        self.predicted / self.measured.max(1) as f64
    }
}

fn l1d(rows: &[(String, u64)]) -> Option<u64> {
    rows.iter().find(|(n, _)| n == "L1d").map(|(_, m)| *m)
}

fn l1d_pred(rows: &[(String, f64)]) -> Option<f64> {
    rows.iter().find(|(n, _)| n == "L1d").map(|(_, m)| *m)
}

/// Walk the annotated tree collecting per-operator L1d rows (operator
/// nodes only; scans carry no measurement).
fn collect(node: &ExplainNode, out: &mut Vec<OpRow>) {
    for c in &node.children {
        collect(c, out);
    }
    let (Some(m), Some(p)) = (&node.measured, &node.predicted) else {
        return;
    };
    if let (Some(measured), Some(predicted)) = (l1d(&m.level_misses), l1d_pred(&p.level_misses)) {
        out.push(OpRow {
            class: node.class.clone(),
            predicted,
            measured,
        });
    }
}

/// Pull `"ratio":<x>` out of the committed artifact's entry for `class`
/// (string scan — the artifact is flat, machine-written, one line).
fn committed_ratio(artifact: &str, class: &str) -> Option<f64> {
    let needle = format!("\"class\":\"{class}\"");
    let at = artifact.find(&needle)?;
    let rest = &artifact[at..];
    let r = rest.find("\"ratio\":")? + "\"ratio\":".len();
    let tail = &rest[r..];
    let end = tail
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

fn main() {
    let status = pmu_status();
    let committed = std::fs::read_to_string(ARTIFACT).ok();

    // The plans under validation: the operator set the paper's cost
    // functions cover, at sizes that spill L1 so misses are non-trivial.
    let star = Workload::new(11).star_scenario(200_000, 20_000, 1);
    let plans: Vec<(&str, PhysicalPlan)> = vec![
        (
            "scan_select_aggregate",
            PhysicalPlan::scan(0).select_lt(10_000).group_count(),
        ),
        (
            "hash_join",
            PhysicalPlan::scan(0)
                .join_with(PhysicalPlan::scan(1), JoinAlgorithm::Hash)
                .group_count(),
        ),
        (
            "sort_merge_join",
            PhysicalPlan::scan(0).select_lt(12_000).join_with(
                PhysicalPlan::scan(1),
                JoinAlgorithm::Merge {
                    sort_u: true,
                    sort_v: true,
                },
            ),
        ),
    ];

    // Model: calibrated from the host when we will compare counters,
    // the deterministic tiny preset when we only assert the fallback
    // (no artifact numbers depend on it there).
    let (model, per_op) = if status.is_available() {
        let spec = calibrate_host(16 * 1024 * 1024)
            .to_spec("host (calibrated)", 0.0)
            .expect("calibrated spec");
        (CostModel::new(spec), calibrate_per_op_ns())
    } else {
        (
            CostModel::new(presets::tiny()),
            CpuCost::DEFAULT_PLANNER_PER_OP_NS,
        )
    };
    let cpu = CpuCost::per_op(per_op);

    let flight = FlightRecorder::new(plans.len());
    let mut rows: Vec<OpRow> = Vec::new();
    for (name, plan) in &plans {
        let mut ctx = ExecContext::native();
        let attach = ctx.mem.attach_pmu();
        assert_eq!(
            attach.is_available(),
            status.is_available(),
            "probe and attach must agree"
        );
        let tables = vec![
            ctx.relation_from_keys("F", &star.fact, 8),
            ctx.relation_from_keys("D", &star.dims[0], 8),
        ];
        let (run, report) = explain_analyze(&mut ctx, plan, &tables, &model, &cpu, per_op)
            .expect("plan executes natively");
        assert!(run.output.n() > 0, "{name}: empty result");
        flight.record(name, &report.to_json());
        if status.is_available() {
            collect(&report.root, &mut rows);
        } else {
            let mut any = Vec::new();
            collect(&report.root, &mut any);
            assert!(
                any.is_empty(),
                "{name}: miss rows must be honestly absent without counters"
            );
        }
    }
    println!(
        "flight recorder: {} EXPLAIN ANALYZE report(s) retained",
        flight.len()
    );

    let mut op_rows = Arr::new();
    match &status {
        PmuStatus::Available => {
            println!(
                "{:<24} {:>14} {:>14} {:>7}",
                "operator", "pred L1d", "PMU L1d", "ratio"
            );
            for row in &rows {
                println!(
                    "{:<24} {:>14.0} {:>14} {:>7.2}",
                    row.class,
                    row.predicted,
                    row.measured,
                    row.ratio()
                );
                let mut o = Obj::new();
                o.str("class", &row.class)
                    .num("predicted_l1d", row.predicted)
                    .u64("measured_l1d", row.measured)
                    .num("ratio", row.ratio());
                op_rows.raw(&o.finish());
            }
            // Regression gate: only against a committed PMU-capable run.
            match committed.as_deref() {
                Some(old) if old.contains("\"pmu_available\":true") => {
                    for row in &rows {
                        let Some(was) = committed_ratio(old, &row.class) else {
                            continue;
                        };
                        let drift = (row.ratio() / was).max(was / row.ratio());
                        assert!(
                            drift <= REGRESSION_BOUND,
                            "{}: ratio {:.2} drifted {drift:.2}x from committed {was:.2} \
                             (bound {REGRESSION_BOUND}x)",
                            row.class,
                            row.ratio()
                        );
                    }
                    println!("regression check vs committed BENCH_pmu.json: within {REGRESSION_BOUND}x ✓");
                }
                _ => println!(
                    "SKIPPED pmu_validation regression check: committed artifact is not PMU-capable"
                ),
            }
        }
        PmuStatus::Unavailable { reason } => {
            println!("SKIPPED pmu_validation counter comparison: {reason}");
            println!("fallback asserted: no miss rows on any operator ✓");
        }
    }

    // The artifact. Without counters it is byte-deterministic (no
    // host-specific strings) so CI diffs it against the committed copy.
    let mut top = Obj::new();
    top.str("bench", "pmu_validation")
        .str("schema", SCHEMA)
        .bool("pmu_available", status.is_available())
        .raw("operators", &op_rows.finish());
    std::fs::write(ARTIFACT, format!("{}\n", top.finish())).expect("write BENCH_pmu.json");
    println!("wrote {ARTIFACT}");
}
