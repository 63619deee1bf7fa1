//! The in-process serving loop: the calls the `gcm-net` scheduler makes
//! (`submit_classed` → `next_batch_at` → `execute_batch_native_observed`),
//! driven closed-loop or from an open-loop schedule, with a span around
//! each call.

use std::collections::HashMap;
use std::time::Duration;

use gcm_service::{plan_for, QueryService, TenantTables};
use gcm_workload::{QueryRequest, TenantClass};

use crate::stats::Samples;
use crate::trace::{Owner, Tracer};

/// One request served in process, as checked by the oracle.
#[derive(Debug, Clone)]
pub struct Served {
    pub req: QueryRequest,
    /// Open loop: from the scheduled arrival; closed loop: from
    /// `submit`; to the end of its batch.
    pub latency_ns: u64,
    pub output_n: u64,
    pub output_hash: u64,
    /// Fact-table version in force at submit and at execution.
    pub submit_version: usize,
    pub exec_version: usize,
    /// Inside the warm, measured window.
    pub measured: bool,
}

/// Outcome counts plus the per-call timings of one loop.
#[derive(Debug, Default)]
pub struct LoopStats {
    pub served: Vec<Served>,
    pub attempted: u64,
    pub shed: u64,
    /// Submissions the planner refused plus batch members whose
    /// execution failed.
    pub errored: u64,
    pub submit_ns: Samples,
    pub admission_ns: Samples,
    pub queue_wait_ns: Samples,
    pub batch_wall_ns: Samples,
    pub dispatch_ns: Samples,
    pub batch_size: Samples,
    pub update_ns: Samples,
    pub epoch_bumps: u64,
    /// Sums over calls that started inside the measured window, ns:
    /// the wall-time shares of each layer.
    pub submit_total_ns: f64,
    pub admission_total_ns: f64,
    pub exec_total_ns: f64,
    pub dispatch_total_ns: f64,
    pub update_total_ns: f64,
}

/// The `update_table` calls an in-process loop makes between batches:
/// the versions written in turn (one version rewrites the table with
/// its own keys: no drift, no epoch bump), and how often.
pub struct Writes {
    pub fact_idx: usize,
    pub versions: Vec<Vec<u64>>,
    pub every: Every,
}

pub enum Every {
    Submits(usize),
    Interval(Duration),
}

struct Inflight {
    id: u64,
    req: QueryRequest,
    due_ns: u64,
    submit_end: u64,
    version: usize,
    root: Option<usize>,
    measured: bool,
}

pub struct ServeLoop<'a> {
    pub svc: &'a mut QueryService,
    tenants: &'a [TenantTables],
    pub tracer: &'a mut Tracer,
    inflight: HashMap<u64, Inflight>,
    pub stats: LoopStats,
    /// Measured window, tracer clock.
    window: (u64, u64),
    batches: u64,
    writes: Option<Writes>,
    last_write_ns: u64,
    version: usize,
}

impl<'a> ServeLoop<'a> {
    pub fn new(
        svc: &'a mut QueryService,
        tenants: &'a [TenantTables],
        tracer: &'a mut Tracer,
        writes: Option<Writes>,
    ) -> ServeLoop<'a> {
        ServeLoop {
            svc,
            tenants,
            tracer,
            inflight: HashMap::new(),
            stats: LoopStats::default(),
            window: (0, u64::MAX),
            batches: 0,
            writes,
            last_write_ns: 0,
            version: 0,
        }
    }

    fn in_window(&self, t: u64) -> bool {
        t >= self.window.0 && t < self.window.1
    }

    fn submit(&mut self, id: u64, req: &QueryRequest, due_ns: u64) {
        let measured = self.in_window(due_ns);
        // Children: ingress wait, submit, queue wait, admission, execute.
        let root = self.tracer.root("request", due_ns, id, 5);
        let plan = plan_for(req, &self.tenants[req.tenant]);
        let t0 = self.tracer.now();
        let res = self.svc.submit_classed(plan, req.class, t0);
        let t1 = self.tracer.now();
        if root.is_some() {
            if t0 > due_ns {
                // Due while the loop was busy with a batch: the wait a
                // server request spends in its shard's ingress queue.
                self.tracer
                    .span("service.ingress_wait", due_ns, t0, root, Owner::Request(id));
            }
            self.tracer
                .span("service.submit", t0, t1, root, Owner::Request(id));
        }
        self.stats.attempted += 1;
        if measured {
            self.stats.submit_ns.push((t1 - t0) as f64);
            self.stats.submit_total_ns += (t1 - t0) as f64;
        }
        match res {
            Ok(qid) => {
                self.inflight.insert(
                    qid,
                    Inflight {
                        id,
                        req: req.clone(),
                        due_ns,
                        submit_end: t1,
                        version: self.version,
                        root,
                        measured,
                    },
                );
            }
            Err(_) => {
                self.stats.errored += 1;
                self.close(root, t1);
            }
        }
    }

    fn close(&mut self, root: Option<usize>, end_ns: u64) {
        if let Some(i) = root {
            self.tracer.close(i, end_ns);
        }
    }

    /// Write the next fact-table version when `Writes::every` says so.
    fn maybe_update(&mut self, submitted: usize) {
        let Some(writes) = &self.writes else { return };
        let due = match writes.every {
            Every::Submits(k) => submitted.is_multiple_of(k),
            Every::Interval(gap) => {
                self.tracer.now().saturating_sub(self.last_write_ns) >= gap.as_nanos() as u64
            }
        };
        if !due {
            return;
        }
        let next = (self.version + 1) % writes.versions.len();
        let keys = writes.versions[next].clone();
        let fact = writes.fact_idx;
        let t0 = self.tracer.now();
        let bumped = self.svc.update_table(fact, keys);
        let t1 = self.tracer.now();
        self.tracer
            .span("service.update_table", t0, t1, None, Owner::Run);
        self.version = next;
        self.last_write_ns = t1;
        self.stats.epoch_bumps += bumped as u64;
        self.stats.update_ns.push((t1 - t0) as f64);
        if self.in_window(t0) {
            self.stats.update_total_ns += (t1 - t0) as f64;
        }
    }

    /// One admission + execution round. `false` when nothing is queued.
    fn step(&mut self) -> bool {
        if self.svc.queue_len() == 0 {
            return false;
        }
        let b = self.batches;
        self.batches += 1;
        let a0 = self.tracer.now();
        let (shed, batch) = self.svc.next_batch_at(a0);
        let a1 = self.tracer.now();
        self.tracer
            .span("service.admission", a0, a1, None, Owner::Batch(b));
        let measured = self.in_window(a0);
        if measured {
            self.stats.admission_ns.push((a1 - a0) as f64);
            self.stats.admission_total_ns += (a1 - a0) as f64;
        }
        for record in shed {
            if let Some(inf) = self.inflight.remove(&record.id) {
                self.stats.shed += 1;
                self.close(inf.root, a1);
            }
        }
        let Some(batch) = batch else { return true };
        let ids = batch.ids();
        let e0 = self.tracer.now();
        let res = self.svc.execute_batch_native_observed(batch);
        let e1 = self.tracer.now();
        self.tracer
            .span("service.execute", e0, e1, None, Owner::Batch(b));
        match res {
            Ok(runs) => {
                let slowest = runs.iter().map(|(_, r)| r.measured_ns).fold(0.0, f64::max);
                if measured {
                    let wall = (e1 - e0) as f64;
                    self.stats.batch_wall_ns.push(wall);
                    self.stats.dispatch_ns.push(wall - slowest);
                    self.stats.batch_size.push(runs.len() as f64);
                    self.stats.exec_total_ns += slowest;
                    self.stats.dispatch_total_ns += wall - slowest;
                }
                for (qid, run) in runs {
                    let Some(inf) = self.inflight.remove(&qid) else {
                        continue;
                    };
                    self.member_spans(&inf, (a0, a1), (e0, e1));
                    if inf.measured {
                        self.stats
                            .queue_wait_ns
                            .push(a0.saturating_sub(inf.submit_end) as f64);
                    }
                    self.stats.served.push(Served {
                        req: inf.req,
                        latency_ns: e1 - inf.due_ns,
                        output_n: run.output_n,
                        output_hash: run.output_hash,
                        submit_version: inf.version,
                        exec_version: self.version,
                        measured: inf.measured,
                    });
                }
            }
            Err(_) => {
                for qid in ids {
                    if let Some(inf) = self.inflight.remove(&qid) {
                        self.stats.errored += 1;
                        self.close(inf.root, e1);
                    }
                }
            }
        }
        true
    }

    /// The request's own view of its batch: queue wait, the admitting
    /// call and the execution, as children of its root span.
    fn member_spans(&mut self, inf: &Inflight, adm: (u64, u64), exec: (u64, u64)) {
        if inf.root.is_none() {
            return;
        }
        let owner = Owner::Request(inf.id);
        let t = &mut *self.tracer;
        t.span("service.queue_wait", inf.submit_end, adm.0, inf.root, owner);
        t.span("service.admission", adm.0, adm.1, inf.root, owner);
        t.span("service.execute", exec.0, exec.1, inf.root, owner);
        if let Some(i) = inf.root {
            t.close(i, exec.1);
        }
    }

    /// Closed loop: keep `window` requests queued until `until_ns`
    /// (tracer clock), then drain. Requests submitted from `from_ns` on
    /// are measured.
    pub fn run_closed(
        &mut self,
        stream: &[QueryRequest],
        window: usize,
        from_ns: u64,
        until_ns: u64,
    ) {
        self.window = (from_ns, until_ns);
        let mut next = 0usize;
        loop {
            let now = self.tracer.now();
            if now < until_ns {
                for _ in self.inflight.len()..window {
                    let req = &stream[next % stream.len()];
                    let due = self.tracer.now();
                    self.submit(next as u64, req, due);
                    next += 1;
                    self.maybe_update(next);
                }
            }
            if !self.step() && now >= until_ns {
                break;
            }
        }
    }

    /// Open loop: submit request `i` at `start_ns + due[i]` (tracer
    /// clock), serving batches in between, as the server's scheduler
    /// thread does. Requests due from `start_ns + warm_ns` on are
    /// measured.
    pub fn run_open(&mut self, reqs: &[QueryRequest], due: &[u64], start_ns: u64, warm_ns: u64) {
        let end = start_ns + due.last().copied().unwrap_or(0) + 1;
        self.window = (start_ns + warm_ns, end);
        let mut next = 0usize;
        loop {
            let now = self.tracer.now();
            while next < due.len() && start_ns + due[next] <= now {
                self.submit(next as u64, &reqs[next], start_ns + due[next]);
                next += 1;
            }
            if self.step() {
                continue;
            }
            if next == due.len() {
                break;
            }
            let wait = (start_ns + due[next]).saturating_sub(self.tracer.now());
            std::thread::sleep(Duration::from_nanos(wait));
        }
    }
}

/// Served requests of the measured window, optionally one class only.
pub fn latencies(served: &[Served], class: Option<TenantClass>) -> Samples {
    let mut s = Samples::new();
    for r in served.iter().filter(|r| r.measured) {
        if class.is_none_or(|c| c == r.req.class) {
            s.push(r.latency_ns as f64);
        }
    }
    s
}
