//! perfbench — the served-path benchmark.
//!
//! ```text
//! perfbench --workload <served_mix|point_flood|scan_join_1m|epoch_churn>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Drives `gcm-net` / `gcm-service` / `gcm-engine` through their public
//! functions on one seeded workload, checks every served result against
//! a single-query oracle, and prints one metric per line followed by a
//! final JSON line (`correct`, `attempted`, `failed`, `metrics`). With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run records spans around every call it makes and reports per-layer
//! metrics instead (spans are written to `perfbench/out/`). See
//! `perfbench/README.md`.

mod host;
mod layers;
mod serve;
mod setup;
mod socket;
mod stats;
mod trace;

use std::process::ExitCode;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use gcm_net::server::SOJOURN_NS;
use gcm_net::shard::{FRAMES_RX_TOTAL, INGRESS_DEPTH_PEAK};
use gcm_net::{NetConfig, NetServer};
use gcm_service::{BuildRegistry, PlanCache, QueryService, ServiceConfig, SloPolicy, TenantTables};
use gcm_workload::{QueryRequest, TenantClass};

use serve::{latencies, Every, LoopStats, ServeLoop, Served, Writes};
use setup::{Oracle, BIG_FACT_N, CHURN_FACT_N, FACT_N};
use stats::{median, Samples};
use trace::Tracer;

const WORKLOADS: [&str; 4] = ["served_mix", "point_flood", "scan_join_1m", "epoch_churn"];

/// `served_mix`'s fixed, absolute Poisson rate: a faster commit faces
/// the same load. Low enough that a point lookup usually finds the
/// scheduler idle, so the point median measures the per-request path
/// and waits behind scan/join batches show in the tail. (At 40 qps a
/// slow phase of a 2-vCPU host pushed the waiting share of point
/// lookups near one half, and the median jumped into the tail.)
const SERVED_QPS: f64 = 20.0;
/// `served_mix`'s fixed, absolute per-class sojourn budget.
const SLO_BUDGET_NS: f64 = 250e6;
/// Client connections of the open loop.
const SERVED_CONNECTIONS: usize = 4;
/// Requests each `point_flood` connection keeps outstanding.
const FLOOD_WINDOW: usize = 8;
/// Requests the in-process closed loop keeps queued: two batches of the
/// modelled machine's four cores.
const INPROC_WINDOW: usize = 8;
/// `scan_join_1m` carries one point lookup per this many requests.
const POINT_PROBE_EVERY: usize = 8;
/// `epoch_churn` writes the fact table every this many submits.
const CHURN_EVERY: usize = 40;
/// Unmeasured warm phase at the start of every load phase.
const WARM_NS: u64 = 500_000_000;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Where the workload itself does not write, `update_table` is timed
/// once per this interval across the load phase: between the batches
/// of `scan_join_1m`'s loop…
const UPDATE_PROBE_GAP: Duration = Duration::from_secs(2);
/// …and on the socket workloads' separate prober thread, where a write
/// takes no time from the served load.
const SOCKET_UPDATE_GAP: Duration = Duration::from_millis(500);
/// Client-side span trees kept per traced socket run.
const SOCKET_TRACED: usize = 50_000;
/// Repetitions of each layer probe.
const PROBE_REPS: usize = 7;
/// The open loop is invalid when its sends run later than this at p99…
const LAG_P99_BOUND_NS: f64 = 20e6;
/// …or when answers trail the last scheduled send by more than this
/// (the backlog grew instead of draining).
const DRAIN_BOUND_NS: u64 = 2_000_000_000;

/// The per-layer metrics every workload's traced run reports (the
/// `per_layer` list of `BENCHMARK.json`).
const PER_LAYER: [(&str, &str); 30] = [
    ("service.submit_us", "us"),
    ("service.cache.hit_rate", "ratio"),
    ("service.cache.optimizer_runs", "count"),
    ("service.admission_p50_us", "us"),
    ("service.admission_p99_us", "us"),
    ("service.batch_size_mean", "queries"),
    ("service.queue_wait_p50_ms", "ms"),
    ("service.queue_wait_p99_ms", "ms"),
    ("service.shed_frac", "ratio"),
    ("service.batch_wall_p50_ms", "ms"),
    ("service.dispatch_overhead_us", "us"),
    ("service.execute_share", "ratio"),
    ("service.builds.reuse_frac", "ratio"),
    ("service.update_ms", "ms"),
    ("service.wall_scale", "ratio"),
    ("engine.scan.ns_per_tuple", "ns"),
    ("engine.scan.floor_ratio", "ratio"),
    ("engine.select_lt.ns_per_tuple", "ns"),
    ("engine.select_lt.floor_ratio", "ratio"),
    ("engine.group_count.ns_per_tuple", "ns"),
    ("engine.group_count.floor_ratio", "ratio"),
    ("engine.hash_join.ns_per_tuple", "ns"),
    ("engine.hash_join.floor_ratio", "ratio"),
    ("engine.optimize_us", "us"),
    ("core.pred_ratio.select_lt", "ratio"),
    ("core.pred_ratio.group_count", "ratio"),
    ("core.pred_ratio.hash_join", "ratio"),
    ("net.codec_ns_per_frame", "ns"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unaccounted_frac", "ratio"),
];

/// Per-layer metrics only the socket workloads have (`loadgen.*` only
/// the open loop): printed by the traced run, not in its JSON line.
const SOCKET_LAYER: [(&str, &str); 7] = [
    ("net.sojourn_p50_ms", "ms"),
    ("net.outside_server_p50_ms", "ms"),
    ("net.replay_gap_p50_ms", "ms"),
    ("net.ingress_depth_peak", "count"),
    ("net.frames_rx", "count"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.achieved_over_offered", "ratio"),
];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <served_mix|point_flood|scan_join_1m|epoch_churn> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| *w == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Plan-cache and shared-build counters, read at phase boundaries.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    hits: u64,
    misses: u64,
    optimizer_runs: u64,
    built: u64,
    reused: u64,
}

impl Counters {
    fn read(cache: &PlanCache, builds: &BuildRegistry) -> Counters {
        Counters {
            hits: cache.hits(),
            misses: cache.misses(),
            optimizer_runs: cache.optimizer_runs(),
            built: builds.built(),
            reused: builds.reused(),
        }
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            optimizer_runs: self.optimizer_runs - before.optimizer_runs,
            built: self.built - before.built,
            reused: self.reused - before.reused,
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer values of one traced run, in report order.
#[derive(Default)]
struct Layers {
    values: Vec<(String, f64)>,
}

impl Layers {
    fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.push((name.into(), value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

/// Counts and timings of one in-process loop, as per-layer metrics.
fn loop_layers(
    st: &LoopStats,
    counts: Counters,
    svc: &QueryService,
    wall_ns: f64,
    layers: &mut Layers,
    readouts: &mut Vec<String>,
) {
    layers.set("service.submit_us", st.submit_ns.p50() / 1e3);
    layers.set(
        "service.cache.hit_rate",
        ratio(counts.hits as f64, (counts.hits + counts.misses) as f64),
    );
    layers.set("service.cache.optimizer_runs", counts.optimizer_runs as f64);
    let adm = st.admission_ns.summary();
    layers.set("service.admission_p50_us", adm.p50 / 1e3);
    layers.set("service.admission_p99_us", adm.p99 / 1e3);
    layers.set("service.batch_size_mean", st.batch_size.mean());
    let wait = st.queue_wait_ns.summary();
    layers.set("service.queue_wait_p50_ms", wait.p50 / 1e6);
    layers.set("service.queue_wait_p99_ms", wait.p99 / 1e6);
    layers.set(
        "service.shed_frac",
        ratio(st.shed as f64, st.attempted as f64),
    );
    layers.set("service.batch_wall_p50_ms", st.batch_wall_ns.p50() / 1e6);
    layers.set("service.dispatch_overhead_us", st.dispatch_ns.p50() / 1e3);
    layers.set(
        "service.builds.reuse_frac",
        ratio(counts.reused as f64, (counts.built + counts.reused) as f64),
    );
    layers.set("service.wall_scale", svc.wall_scale());
    layers.set("service.execute_share", ratio(st.exec_total_ns, wall_ns));
    readouts.push(format!(
        "wall shares of the measured loop: submit {:.4}  admission {:.4}  execution {:.4}  dispatch {:.4}  update {:.4}",
        ratio(st.submit_total_ns, wall_ns),
        ratio(st.admission_total_ns, wall_ns),
        ratio(st.exec_total_ns, wall_ns),
        ratio(st.dispatch_total_ns, wall_ns),
        ratio(st.update_total_ns, wall_ns),
    ));
    readouts.push(format!(
        "samples: admission n={} (beyond p99: {}), queue_wait n={} (beyond p99: {}), batches n={}",
        adm.n,
        adm.beyond_p99,
        wait.n,
        wait.beyond_p99,
        st.batch_wall_ns.len()
    ));
}

/// Self time of each request's child spans as a share of request
/// latency, and the share no child covers.
fn trace_shares(tr: &Tracer, readouts: &mut Vec<String>) -> f64 {
    let spans = tr.spans();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut total = 0u64;
    let mut uncovered = 0u64;
    let mut by_name: Vec<(&'static str, u64)> = Vec::new();
    for (i, root) in spans.iter().enumerate() {
        if root.parent.is_some() || root.name != "request" || children[i].is_empty() {
            continue;
        }
        let mut iv: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| (spans[c].start_ns, spans[c].end_ns))
            .collect();
        let covered = trace::covered_ns(root.start_ns, root.end_ns, &mut iv);
        total += root.ns();
        uncovered += root.ns() - covered;
        for &c in &children[i] {
            let s = &spans[c];
            let own = s
                .end_ns
                .min(root.end_ns)
                .saturating_sub(s.start_ns.max(root.start_ns));
            match by_name.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, v)) => *v += own,
                None => by_name.push((s.name, own)),
            }
        }
    }
    let shares: Vec<String> = by_name
        .iter()
        .map(|(n, v)| format!("{n} {:.4}", ratio(*v as f64, total as f64)))
        .collect();
    readouts.push(format!(
        "traced request latency by layer (self time share): {}  unaccounted {:.4}",
        shares.join("  "),
        ratio(uncovered as f64, total as f64)
    ));
    ratio(uncovered as f64, total as f64)
}

/// Layer probes shared by every workload: engine operators against
/// their floors, the optimizer, the model's per-node ratios, the codec.
fn probe_layers(
    svc: &mut QueryService,
    tenants: &[TenantTables],
    classes: &[TenantClass],
    fact: &[u64],
    dim: &[u64],
    stream: &[QueryRequest],
    layers: &mut Layers,
) {
    for op in layers::engine_ops(fact, dim, PROBE_REPS) {
        layers.set(format!("engine.{}.ns_per_tuple", op.name), op.ns_per_tuple);
        layers.set(
            format!("engine.{}.floor_ratio", op.name),
            ratio(op.ns_per_tuple, op.floor_ns_per_tuple),
        );
    }
    let stats = svc.catalog().snapshot().tables().to_vec();
    layers.set(
        "engine.optimize_us",
        layers::optimize_us(tenants, classes, &stats, PROBE_REPS),
    );
    for (op, v) in layers::pred_ratios(svc, &tenants[0], 3) {
        layers.set(format!("core.pred_ratio.{op}"), v);
    }
    layers.set(
        "net.codec_ns_per_frame",
        layers::codec_ns_per_frame(stream, PROBE_REPS),
    );
}

/// `update_table` latency on the socket workloads, whose service lives
/// inside the server: a thread of its own times the call every
/// `SOCKET_UPDATE_GAP` across the load phase, on a separate service
/// holding the workload's tables, rewriting the fact table with its own
/// keys (no drift, no epoch bump) — the write path's cost at this table
/// size, sampled over the whole run rather than one instant of the host.
struct UpdateProber {
    stop: mpsc::Sender<()>,
    handle: std::thread::JoinHandle<Samples>,
}

impl UpdateProber {
    fn start(fact: Vec<u64>, dim: Vec<u64>) -> UpdateProber {
        let (stop, stopped) = mpsc::channel::<()>();
        let handle = std::thread::spawn(move || {
            let (mut svc, t) = setup::service(fact.clone(), dim, 1, None);
            let mut s = Samples::new();
            while let Err(mpsc::RecvTimeoutError::Timeout) = stopped.recv_timeout(SOCKET_UPDATE_GAP)
            {
                let keys = fact.clone();
                let t0 = Instant::now();
                let bumped = svc.update_table(t[0].fact, keys);
                s.push(t0.elapsed().as_nanos() as f64);
                assert!(!bumped, "rewriting identical keys must not bump the epoch");
            }
            s
        });
        UpdateProber { stop, handle }
    }

    fn finish(self) -> Samples {
        // A send error means the thread already ended; join reports why.
        let _ = self.stop.send(());
        self.handle.join().expect("update prober panicked")
    }
}

/// Set up `SETUP_REPS` times with `make`, keeping the last set-up.
fn timed_setup<T>(
    mut make: impl FnMut() -> std::io::Result<T>,
    mut discard: impl FnMut(T),
) -> std::io::Result<(T, Vec<f64>)> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let made = make()?;
        times.push(t0.elapsed().as_secs_f64());
        if let Some(old) = kept.replace(made) {
            discard(old);
        }
    }
    Ok((kept.expect("at least one set-up"), times))
}

/// The served mix's tenants, hottest first under the Zipf skew (54% /
/// 27% / 18%). Scans lead so that the all-class median falls inside one
/// class's latencies, not on the step between fast point lookups and
/// the rest.
const MIX: [TenantClass; 3] = [
    TenantClass::ScanHeavy,
    TenantClass::PointLookup,
    TenantClass::JoinHeavy,
];
const HEAVY: [TenantClass; 2] = [TenantClass::ScanHeavy, TenantClass::JoinHeavy];

/// Everything a workload run hands back for reporting.
struct Outcome {
    /// Latency of requests served inside the measured window, ns: all
    /// classes, and point lookups only.
    latency: Samples,
    point_latency: Samples,
    attempted: u64,
    shed: u64,
    lost: u64,
    errored: u64,
    /// Served results compared with the oracle, and how many differ.
    checked: u64,
    wrong: u64,
    /// Served results that read a table version newer than at submit.
    newer: u64,
    /// Length of the measured window, s.
    window_s: f64,
    setup_s: Vec<f64>,
    update_ns: Samples,
    peak_rss_mb: f64,
    /// Why the run's numbers must not be reported, if they must not.
    invalid: Option<String>,
    /// Validity and context lines printed with the result.
    readouts: Vec<String>,
    layers: Layers,
    tracer: Tracer,
}

fn net_config() -> NetConfig {
    NetConfig::default()
}

fn served_slo() -> Option<SloPolicy> {
    Some(SloPolicy::uniform(SLO_BUDGET_NS))
}

/// A started server plus handles on its service's counters (the
/// service itself moves into the server).
struct Started {
    server: NetServer,
    cache: Arc<PlanCache>,
    builds: Arc<BuildRegistry>,
    tenants: Vec<TenantTables>,
}

/// A server over freshly generated tables (one set-up).
fn start_server(seed: u64, tenants: usize, slo: Option<SloPolicy>) -> std::io::Result<Started> {
    let (svc, tenants) = setup::service(
        setup::fact_table(seed, FACT_N, 0),
        setup::dim_table(seed),
        tenants,
        slo,
    );
    let cache = Arc::clone(svc.cache());
    let builds = Arc::clone(svc.builds());
    let server = NetServer::start(svc, tenants.clone(), net_config())?;
    Ok(Started {
        server,
        cache,
        builds,
        tenants,
    })
}

/// The oracle's expected result for every request shape a server with
/// `tenants` tenants can be sent (its tables never change).
fn expectations(oracle: &mut Oracle, tenants: usize) -> Result<socket::Expect, String> {
    setup::warm_set(tenants)
        .into_iter()
        .map(|req| {
            let want = oracle
                .expect(&req, 0, 0)
                .map_err(|e| format!("oracle: {e}"))?;
            Ok((socket::shape(&req), want))
        })
        .collect()
}

/// The share of CPU the host took from this VM since `before`.
fn steal_readout(before: (u64, u64)) -> String {
    format!(
        "host: {:.4} of CPU time stolen by the hypervisor during the load phase",
        host::steal_share(before, host::cpu_ticks())
    )
}

/// The socket run's plan-cache hit rate next to the replay's.
fn socket_hit_rate(counts: Counters, layers: &Layers) -> String {
    format!(
        "socket run cache hit rate {:.4} (in-process replay {:.4})",
        ratio(counts.hits as f64, (counts.hits + counts.misses) as f64),
        layers.get("service.cache.hit_rate").unwrap_or(0.0)
    )
}

/// Socket-side per-layer metrics, the frame-count check, and the
/// client spans of a socket run.
fn socket_layers(
    server: &NetServer,
    run: &socket::SocketRun,
    tracer: &mut Tracer,
    open: bool,
    layers: &mut Layers,
    readouts: &mut Vec<String>,
) {
    layers.set("net.sojourn_p50_ms", run.sojourn.p50() / 1e6);
    layers.set("net.outside_server_p50_ms", run.outside.p50() / 1e6);
    let m = server.metrics();
    let mut depth: f64 = 0.0;
    let mut sojourn_count = 0u64;
    for name in m.names() {
        if name.starts_with(INGRESS_DEPTH_PEAK) {
            depth = depth.max(m.gauge(&name).unwrap_or(0.0));
        }
        if name.starts_with(SOJOURN_NS) {
            sojourn_count += m.histogram(&name).map_or(0, |h| h.count());
        }
    }
    let frames = m.counter(FRAMES_RX_TOTAL).unwrap_or(0);
    layers.set("net.ingress_depth_peak", depth);
    layers.set("net.frames_rx", frames as f64);
    readouts.push(format!(
        "net check: frames_rx {frames} vs sent {} ({}); server sojourn histogram count {sojourn_count} vs answers {}",
        run.sent,
        if frames == run.sent { "equal" } else { "MISMATCH" },
        run.served + run.shed
    ));
    // The first SOCKET_TRACED requests only, leaving the span budget to
    // the in-process replay whose spans the layer shares come from.
    for t in run.times.iter().take(SOCKET_TRACED) {
        let owner = trace::Owner::Request(t.id);
        let Some(root) = tracer.root("socket.request", t.due_ns, t.id, 2) else {
            break;
        };
        tracer.close(root, t.recv_ns);
        if open {
            tracer.span("loadgen.lag", t.due_ns, t.send_start, Some(root), owner);
        }
        tracer.span("net.send", t.send_start, t.send_end, Some(root), owner);
    }
}

/// The socket workloads: `served_mix` (`open`: Poisson schedule, all
/// classes, SLO gate on) and `point_flood` (closed loop, point lookups,
/// shipped defaults).
fn socket_workload(a: &Args, open: bool) -> Result<Outcome, String> {
    let io = |e: std::io::Error| format!("{}: {e}", a.workload);
    let (classes, slo): (&[TenantClass], _) = if open {
        (&MIX, served_slo())
    } else {
        (&[TenantClass::PointLookup], None)
    };
    let mut tracer = Tracer::new(a.trace);
    let (started, setup_s) = timed_setup(
        || start_server(a.seed, classes.len(), slo),
        |s| drop(s.server.shutdown()),
    )
    .map_err(io)?;
    let Started {
        server,
        cache,
        builds,
        tenants,
    } = started;
    let fact = setup::fact_table(a.seed, FACT_N, 0);
    let dim = setup::dim_table(a.seed);
    let mut oracle = Oracle::new(tenants.clone(), vec![fact.clone()], dim.clone());
    let expect = expectations(&mut oracle, tenants.len())?;
    let span_ns = WARM_NS + a.seconds * 1_000_000_000;
    let (due, reqs) = if open {
        let due = setup::arrivals(a.seed, SERVED_QPS, span_ns);
        let reqs = setup::stream(a.seed, due.len(), classes);
        (due, reqs)
    } else {
        (
            Vec::new(),
            setup::stream(a.seed, setup::STREAM_LEN, classes),
        )
    };
    let connections = if open {
        SERVED_CONNECTIONS
    } else {
        host::nproc()
    };

    let prober = UpdateProber::start(fact.clone(), dim.clone());
    let ticks = host::cpu_ticks();
    let before = Counters::read(&cache, &builds);
    let start = tracer.now() + 1_000_000;
    let judge = socket::Judge {
        expect: &expect,
        window: (start + WARM_NS, start + span_ns),
        keep_times: a.trace,
    };
    let addr = server.addr();
    let run = if open {
        let drain = Duration::from_secs(10);
        socket::open_loop(
            addr,
            &reqs,
            &due,
            start,
            connections,
            tracer.epoch(),
            drain,
            judge,
        )
    } else {
        socket::closed_loop(
            addr,
            &reqs,
            connections,
            FLOOD_WINDOW,
            tracer.epoch(),
            judge,
        )
    }
    .map_err(io)?;
    let counts = Counters::read(&cache, &builds).since(before);
    let update_ns = prober.finish();
    let peak_rss_mb = host::peak_rss_mb();

    let mut readouts = vec![steal_readout(ticks)];
    let mut invalid = None;
    let mut layers = Layers::default();
    if open {
        // Open-loop validity: generator lag, achieved rate, backlog.
        let lag = run.lag.summary();
        let achieved = ratio(run.sent_in_window as f64, SERVED_QPS * a.seconds as f64);
        let drain_ns = run
            .last_recv_ns
            .saturating_sub(start + due.last().copied().unwrap_or(0));
        readouts.push(format!(
            "generator: lag p50 {:.3} ms, p99 {:.3} ms (n={}, beyond p99: {}; bound {:.0} ms); achieved/offered {:.4} at {SERVED_QPS} qps; drain after last send {:.1} ms (bound {} ms)",
            lag.p50 / 1e6,
            lag.p99 / 1e6,
            lag.n,
            lag.beyond_p99,
            LAG_P99_BOUND_NS / 1e6,
            achieved,
            drain_ns as f64 / 1e6,
            DRAIN_BOUND_NS / 1_000_000
        ));
        if lag.p99 > LAG_P99_BOUND_NS {
            invalid = Some(format!(
                "generator lag p99 {:.1} ms exceeds the bound",
                lag.p99 / 1e6
            ));
        } else if drain_ns > DRAIN_BOUND_NS {
            invalid = Some(format!(
                "backlog grew: answers trailed the schedule by {:.0} ms",
                drain_ns as f64 / 1e6
            ));
        }
        layers.set("loadgen.lag_p99_ms", lag.p99 / 1e6);
        layers.set("loadgen.achieved_over_offered", achieved);
    } else {
        readouts.push(format!(
            "closed loop: {connections} connections x {FLOOD_WINDOW} outstanding"
        ));
    }
    if a.trace {
        socket_layers(&server, &run, &mut tracer, open, &mut layers, &mut readouts);
    }
    let mut svc = server.shutdown();
    if a.trace {
        // Replay the same load in process through the scheduler's
        // calls: socket latency minus replay latency is the net tier.
        let (mut rsvc, rt) = setup::service(fact.clone(), dim.clone(), tenants.len(), slo);
        setup::warm(&mut rsvc, &rt);
        let rb = Counters::read(rsvc.cache(), rsvc.builds());
        let rstart = tracer.now() + 1_000_000;
        let mut serve = ServeLoop::new(&mut rsvc, &rt, &mut tracer, None);
        if open {
            serve.run_open(&reqs, &due, rstart, WARM_NS);
        } else {
            let window = connections * FLOOD_WINDOW;
            serve.run_closed(&reqs, window, rstart + WARM_NS, rstart + span_ns);
        }
        let st = std::mem::take(&mut serve.stats);
        let rc = Counters::read(rsvc.cache(), rsvc.builds()).since(rb);
        let wall_ns = (span_ns - WARM_NS) as f64;
        loop_layers(&st, rc, &rsvc, wall_ns, &mut layers, &mut readouts);
        let gap = run.latency.p50() - latencies(&st.served, None).p50();
        layers.set("net.replay_gap_p50_ms", gap / 1e6);
        readouts.push(socket_hit_rate(counts, &layers));
        probe_layers(&mut svc, &tenants, classes, &fact, &dim, &reqs, &mut layers);
    }
    Ok(Outcome {
        checked: run.served,
        latency: run.latency,
        point_latency: run.point_latency,
        attempted: run.sent,
        shed: run.shed,
        lost: run.lost + run.stray,
        errored: 0,
        wrong: run.wrong,
        newer: 0,
        window_s: a.seconds as f64,
        setup_s,
        update_ns,
        peak_rss_mb,
        invalid,
        readouts,
        layers,
        tracer,
    })
}

/// The in-process workloads: `scan_join_1m` (`churn` off) and
/// `epoch_churn`.
fn in_process(a: &Args, churn: bool) -> Result<Outcome, String> {
    let (rows, stream) = if churn {
        (FACT_N, setup::stream(a.seed, setup::STREAM_LEN, &MIX))
    } else {
        let heavy = setup::stream(a.seed, setup::STREAM_LEN, &HEAVY);
        (
            BIG_FACT_N,
            setup::with_point_probes(heavy, HEAVY.len(), POINT_PROBE_EVERY),
        )
    };
    let ((mut svc, tenants), setup_s) = timed_setup(
        || {
            let (mut svc, t) = setup::service(
                setup::fact_table(a.seed, rows, 0),
                setup::dim_table(a.seed),
                MIX.len(),
                None,
            );
            setup::warm(&mut svc, &t);
            Ok((svc, t))
        },
        drop,
    )
    .map_err(|e| format!("{}: {e}", a.workload))?;
    let fact = setup::fact_table(a.seed, rows, 0);
    let dim = setup::dim_table(a.seed);
    let mut versions = vec![fact.clone()];
    if churn {
        versions.push(setup::fact_table(a.seed, CHURN_FACT_N, 1));
    }
    let mut tracer = Tracer::new(a.trace);
    let ticks = host::cpu_ticks();
    let before = Counters::read(svc.cache(), svc.builds());
    let start = tracer.now();
    let (from, until) = (start + WARM_NS, start + WARM_NS + a.seconds * 1_000_000_000);
    // epoch_churn alternates two versions every CHURN_EVERY submits;
    // scan_join_1m rewrites its own keys every UPDATE_PROBE_GAP to time
    // the write path between batches.
    let writes = Writes {
        fact_idx: tenants[0].fact,
        versions: if churn {
            versions.clone()
        } else {
            vec![fact.clone()]
        },
        every: if churn {
            Every::Submits(CHURN_EVERY)
        } else {
            Every::Interval(UPDATE_PROBE_GAP)
        },
    };
    let mut serve = ServeLoop::new(&mut svc, &tenants, &mut tracer, Some(writes));
    serve.run_closed(&stream, INPROC_WINDOW, from, until);
    let st = std::mem::take(&mut serve.stats);
    let counts = Counters::read(svc.cache(), svc.builds()).since(before);
    let update_ns = st.update_ns.clone();
    let peak_rss_mb = host::peak_rss_mb();
    let mut readouts = vec![
        steal_readout(ticks),
        format!(
            "closed loop in process: {INPROC_WINDOW} queued; epoch bumps {}",
            st.epoch_bumps
        ),
    ];
    if churn {
        // Back to version 0 so the layer probes see the registered data.
        svc.update_table(tenants[0].fact, fact.clone());
    }
    let mut layers = Layers::default();
    if a.trace {
        loop_layers(
            &st,
            counts,
            &svc,
            (until - from) as f64,
            &mut layers,
            &mut readouts,
        );
        probe_layers(&mut svc, &tenants, &MIX, &fact, &dim, &stream, &mut layers);
    }
    let mut oracle = Oracle::new(tenants, versions, dim);
    let (wrong, newer) = check(&mut oracle, &st.served)?;
    Ok(Outcome {
        latency: latencies(&st.served, None),
        point_latency: latencies(&st.served, Some(TenantClass::PointLookup)),
        attempted: st.attempted,
        shed: st.shed,
        lost: 0,
        errored: st.errored,
        checked: st.served.len() as u64,
        wrong,
        newer,
        window_s: a.seconds as f64,
        setup_s,
        update_ns,
        peak_rss_mb,
        invalid: None,
        readouts,
        layers,
        tracer,
    })
}

/// Compare every in-process result with the oracle. Returns (wrong,
/// read a table version newer than the one in force at submit).
fn check(oracle: &mut Oracle, served: &[Served]) -> Result<(u64, u64), String> {
    let mut wrong = 0;
    let mut newer = 0;
    let mut expect = |s: &Served, data_version| {
        oracle
            .expect(&s.req, s.submit_version, data_version)
            .map_err(|e| format!("oracle: {e}"))
    };
    for s in served {
        let got = (s.output_n, s.output_hash);
        if got == expect(s, s.submit_version)? {
            continue;
        }
        // The service binds table data when the batch executes; a query
        // queued across an update reads the newer version with the plan
        // optimized for its submit epoch.
        if s.exec_version != s.submit_version && got == expect(s, s.exec_version)? {
            newer += 1;
        } else {
            wrong += 1;
        }
    }
    Ok((wrong, newer))
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!(
        "{}:{{\"value\":{value},\"unit\":{}}}",
        host::quote(name),
        host::quote(unit)
    )
}

fn run(a: &Args) -> Result<(), String> {
    let config = [
        ("preset", setup::spec().name.clone()),
        ("service_config", format!("{:?}", ServiceConfig::default())),
        ("net_config", format!("{:?}", net_config())),
        (
            "workload_config",
            format!(
                "served_qps={SERVED_QPS} slo_budget_ms={} served_connections={SERVED_CONNECTIONS} flood_window={FLOOD_WINDOW} inproc_window={INPROC_WINDOW} point_probe_every={POINT_PROBE_EVERY} churn_every={CHURN_EVERY} warm_ms={} setup_reps={SETUP_REPS}",
                SLO_BUDGET_NS / 1e6,
                WARM_NS / 1_000_000
            ),
        ),
    ];
    println!(
        "provenance {}",
        host::provenance(a.workload, a.seed, a.seconds, a.trace, &config)
    );
    let t0 = Instant::now();
    let mut out = match a.workload {
        "served_mix" => socket_workload(a, true),
        "point_flood" => socket_workload(a, false),
        "scan_join_1m" => in_process(a, false),
        _ => in_process(a, true),
    }?;
    for line in &out.readouts {
        println!("  {line}");
    }
    println!(
        "  oracle: {} served results checked, {} wrong, {} read a table version newer than at submit; lost {}, errored {}",
        out.checked,
        out.wrong,
        out.newer,
        out.lost,
        out.errored
    );
    if let Some(why) = &out.invalid {
        return Err(format!("invalid run, numbers withheld: {why}"));
    }
    let failed = out.shed + out.lost + out.errored;
    let correct = out.wrong == 0 && out.lost == 0 && out.errored == 0;
    println!("  wrong_results = {} count", out.wrong);
    println!(
        "  failed_frac = {} ratio (shed {} + lost {} + errored {} of {} attempted)",
        ratio(failed as f64, out.attempted as f64),
        out.shed,
        out.lost,
        out.errored,
        out.attempted
    );

    let mut metrics: Vec<String> = Vec::new();
    if a.trace {
        out.layers
            .set("service.update_ms", out.update_ns.p50() / 1e6);
        let overhead = ratio(
            out.tracer.spans().len() as f64 * Tracer::span_cost_ns(),
            t0.elapsed().as_nanos() as f64,
        );
        out.layers.set("trace.overhead_frac", overhead);
        let unaccounted = trace_shares(&out.tracer, &mut out.readouts);
        out.layers.set("trace.unaccounted_frac", unaccounted);
        println!("  {}", out.readouts.last().expect("trace shares line"));
        for (name, unit) in PER_LAYER.iter().chain(SOCKET_LAYER.iter()) {
            match out.layers.get(name) {
                Some(v) => println!("  {name} = {v} {unit}"),
                None => println!("  {name} = n/a (not part of this workload)"),
            }
        }
        for (name, unit) in PER_LAYER {
            let v = out
                .layers
                .get(name)
                .ok_or_else(|| format!("per-layer metric {name} missing"))?;
            metrics.push(metric_json(name, v, unit));
        }
        let dir = std::path::Path::new("perfbench/out");
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join(format!("spans-{}-{}.jsonl", a.workload, a.seed));
        out.tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "  spans: {} written to {} ({} spans or request trees over the in-memory cap not kept)",
            out.tracer.spans().len(),
            path.display(),
            out.tracer.dropped()
        );
    } else {
        let all = out.latency.summary();
        let point = out.point_latency.summary();
        let update = out.update_ns.summary();
        // (name, value, unit, note, gated): the all-class median and the
        // tails are printed with their sample counts but carry no bound;
        // their run-to-run spread on a shared VM exceeds any allowed one
        // (see README.md).
        let lines = [
            (
                "throughput_qps",
                all.n as f64 / out.window_s,
                "1/s",
                format!("{} served in {} s", all.n, out.window_s),
                true,
            ),
            (
                "latency_p50_ms",
                all.p50 / 1e6,
                "ms",
                format!("n={}; not gated", all.n),
                false,
            ),
            (
                "latency_p99_ms",
                all.p99 / 1e6,
                "ms",
                format!("n={}, {} beyond p99; not gated", all.n, all.beyond_p99),
                false,
            ),
            (
                "point_p50_ms",
                point.p50 / 1e6,
                "ms",
                format!("n={}", point.n),
                true,
            ),
            (
                "point_p99_ms",
                point.p99 / 1e6,
                "ms",
                format!("n={}, {} beyond p99; not gated", point.n, point.beyond_p99),
                false,
            ),
            (
                "update_p50_ms",
                update.p50 / 1e6,
                "ms",
                format!("n={}", update.n),
                true,
            ),
            (
                "setup_s",
                median(&out.setup_s),
                "s",
                format!("median of {} set-ups", out.setup_s.len()),
                true,
            ),
            (
                "peak_rss_mb",
                out.peak_rss_mb,
                "MiB",
                "VmHWM after the load phase".to_string(),
                true,
            ),
        ];
        for (name, v, unit, note, gated) in &lines {
            println!("  {name} = {v} {unit} ({note})");
            if *gated {
                metrics.push(metric_json(name, *v, unit));
            }
        }
        for (label, s) in [("latency", all), ("point", point)] {
            if s.beyond_p99 >= 10 {
                continue;
            }
            let tail = if s.tail_q > 0.0 {
                format!(
                    "highest percentile with >=10 beyond: p{} = {} ms",
                    s.tail_q * 100.0,
                    s.tail / 1e6
                )
            } else {
                "no percentile has 10 beyond".to_string()
            };
            println!(
                "  note: {label} p99 has {} samples beyond it; {tail}",
                s.beyond_p99
            );
        }
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        metrics.join(",")
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
