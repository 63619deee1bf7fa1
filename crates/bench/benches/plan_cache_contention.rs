//! Plan-cache contention: hit-path throughput of the trie-backed
//! [`PlanCache`] vs the pre-trie mutex-around-a-`HashMap` baseline
//! ([`MutexPlanCache`], kept behind the `mutex-baseline` feature for
//! exactly this measurement).
//!
//! Setup: both caches are prefilled with [`PLANS`] distinct plan shapes
//! (one `select_lt` cut each). Measurement: 1 / 4 / 16 / 64 reader
//! threads hammer the hit path — every lookup must find its entry, the
//! optimize closure panics if invoked — and aggregate lookups/sec is
//! recorded per thread count. The trie's hit path is a wait-free
//! snapshot read, so its throughput should *scale* with readers; the
//! mutex serializes every hit, so its curve plateaus (or inverts) as
//! soon as there is real parallelism.
//!
//! Results land in `BENCH_contention.json` at the repo root so
//! throughput regressions stay visible across PRs (`BENCH_service.json`
//! belongs to the `service_latency` bench, which reports the serving
//! path's latency distribution). Scaling assertions are gated on
//! [`std::thread::available_parallelism`]: with fewer than 4 cores the
//! numbers are still recorded, but no claim about scaling is enforced
//! (the run prints the core count and why the assertion was skipped).

use gcm_core::CostModel;
use gcm_engine::plan::{optimize_and_lower, LogicalPlan, TableStats};
use gcm_hardware::presets;
use gcm_service::{MutexPlanCache, PlanCache};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Distinct cached plan shapes (one per `select_lt` cut).
const PLANS: u64 = 64;

/// Hit-path lookups per reader thread per measured run.
const LOOKUPS_PER_THREAD: u64 = 100_000;

/// Reader-thread counts swept.
const THREADS: [usize; 4] = [1, 4, 16, 64];

fn plans_and_stats() -> (Vec<LogicalPlan>, Vec<TableStats>) {
    let stats = vec![
        TableStats::uniform(2_000, 8, 400, false),
        TableStats::key_column(400, 8, false),
    ];
    let plans = (0..PLANS)
        .map(|i| {
            LogicalPlan::scan(0)
                .select_lt(2 + i * 6)
                .join(LogicalPlan::scan(1))
                .group_count()
        })
        .collect();
    (plans, stats)
}

fn main() {
    let (plans, stats) = plans_and_stats();
    let model = CostModel::new(presets::tiny_smp(4));

    let trie = Arc::new(PlanCache::new());
    let mutex = Arc::new(MutexPlanCache::new());
    for p in &plans {
        let key = (p.fingerprint(), 0);
        trie.get_or_optimize(key, p, || optimize_and_lower(&model, p, &stats))
            .expect("prefill optimizes");
        mutex
            .get_or_optimize(key, p, || optimize_and_lower(&model, p, &stats))
            .expect("prefill optimizes");
    }

    let run = |which: &str, threads: usize| -> f64 {
        let barrier = Barrier::new(threads);
        let plans = &plans;
        let (trie, mutex) = (&trie, &mutex);
        let start = Instant::now();
        std::thread::scope(|s| {
            for t in 0..threads {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    for i in 0..LOOKUPS_PER_THREAD {
                        let p = &plans[((t as u64 + i) % PLANS) as usize];
                        let key = (p.fingerprint(), 0);
                        let got = match which {
                            "trie" => trie
                                .get_or_optimize(key, p, || panic!("hit path must not optimize")),
                            _ => mutex
                                .get_or_optimize(key, p, || panic!("hit path must not optimize")),
                        };
                        assert!(got.is_ok());
                    }
                });
            }
        });
        let secs = start.elapsed().as_secs_f64();
        (threads as u64 * LOOKUPS_PER_THREAD) as f64 / secs
    };

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("plan-cache hit-path contention ({cores} cores available)");
    println!(
        "{:>8} {:>16} {:>16} {:>8}",
        "threads", "trie (ops/s)", "mutex (ops/s)", "ratio"
    );
    let mut rows = Vec::new();
    for &t in &THREADS {
        let trie_ops = run("trie", t);
        let mutex_ops = run("mutex", t);
        println!(
            "{:>8} {:>16.0} {:>16.0} {:>8.2}",
            t,
            trie_ops,
            mutex_ops,
            trie_ops / mutex_ops
        );
        rows.push((t, trie_ops, mutex_ops));
    }

    // Scaling claim, only where there is real parallelism to claim it
    // on: with ≥ 4 cores, 4 trie readers must beat 1 (the wait-free hit
    // path scales); the mutex baseline is measured, not asserted.
    if cores >= 4 {
        let one = rows.iter().find(|r| r.0 == 1).unwrap().1;
        let four = rows.iter().find(|r| r.0 == 4).unwrap().1;
        assert!(
            four > one,
            "trie hit path failed to scale: {four:.0} ops/s at 4 threads vs {one:.0} at 1"
        );
        println!("\ntrie hit-path scaling 1→4 threads: {:.2}× ✓", four / one);
    } else {
        println!(
            "\n({cores} core(s) available: scaling assertion skipped, it needs 4 to run 4 \
             readers in parallel; numbers recorded)"
        );
    }

    // Record the sweep for cross-PR visibility.
    let mut json = String::from("{\n  \"bench\": \"plan_cache_contention\",\n");
    json.push_str(&format!("  \"cores\": {cores},\n"));
    json.push_str(&format!("  \"plans\": {PLANS},\n"));
    json.push_str(&format!(
        "  \"lookups_per_thread\": {LOOKUPS_PER_THREAD},\n  \"results\": [\n"
    ));
    for (i, (t, trie_ops, mutex_ops)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"threads\": {t}, \"trie_lookups_per_sec\": {trie_ops:.0}, \
             \"mutex_lookups_per_sec\": {mutex_ops:.0}}}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_contention.json");
    std::fs::write(path, json).expect("write BENCH_contention.json");
    println!("wrote {path}");
}
