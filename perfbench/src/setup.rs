//! Seeded tables, request streams, service construction, and the result
//! oracle.

use std::collections::HashMap;

use gcm_core::CostModel;
use gcm_engine::plan::{self, optimize_and_lower, LogicalPlan, PlanError, TableStats};
use gcm_engine::ExecContext;
use gcm_hardware::HardwareSpec;
use gcm_service::{derive_stats, plan_for, QueryService, ServiceConfig, SloPolicy, TenantTables};
use gcm_workload::{QueryRequest, TenantClass, Workload};

/// Rows of the served fact table: 480 KiB of 8-byte keys, inside a
/// 2 MiB per-core L2.
pub const FACT_N: usize = 60_000;
/// Rows of the large fact table: 8 MiB, four times a 2 MiB L2.
pub const BIG_FACT_N: usize = 1_000_000;
/// Rows of the fact table's second version in `epoch_churn`: a 25%
/// cardinality drop (33% rise back), past the catalog's 0.2 drift
/// threshold either way, so every update bumps the statistics epoch.
pub const CHURN_FACT_N: usize = 45_000;
/// Rows of the dimension table (32 KiB, L1-resident); also the key
/// domain of the fact table's foreign keys.
pub const DIM_N: usize = 4_000;
/// Tuple width of every table, bytes.
pub const W: u64 = 8;
/// Tenant skew of every mix.
pub const ZIPF_THETA: f64 = 0.99;
/// Requests in a closed-loop stream before it repeats.
pub const STREAM_LEN: usize = 8_192;

/// The machine the service models: the preset the ingress benches use.
pub fn spec() -> HardwareSpec {
    gcm_hardware::presets::modern_smp(4)
}

/// The fact table (`version` 0 is the registered one) and the
/// dimension table, derived from the seed alone.
pub fn fact_table(seed: u64, rows: usize, version: u64) -> Vec<u64> {
    let mut wl = Workload::new(seed ^ 0xfac7 ^ (version << 32));
    wl.foreign_keys(rows, DIM_N as u64)
}

pub fn dim_table(seed: u64) -> Vec<u64> {
    let mut wl = Workload::new(seed ^ 0xd1);
    wl.shuffled_keys(DIM_N)
}

/// A request stream: `n` requests over `tenants`, Zipf-skewed.
pub fn stream(seed: u64, n: usize, tenants: &[TenantClass]) -> Vec<QueryRequest> {
    let mut wl = Workload::new(seed ^ 0x5eed);
    wl.query_mix(n, tenants, ZIPF_THETA)
}

/// `stream` with every `every`-th request replaced by a point lookup of
/// tenant `tenant`: a head-of-line probe in a stream of heavy queries.
pub fn with_point_probes(
    mut stream: Vec<QueryRequest>,
    tenant: usize,
    every: usize,
) -> Vec<QueryRequest> {
    let buckets = TenantClass::PointLookup.selectivity_buckets();
    for (k, req) in stream.iter_mut().step_by(every).enumerate() {
        *req = QueryRequest {
            tenant,
            class: TenantClass::PointLookup,
            selectivity: buckets[k % buckets.len()],
        };
    }
    stream
}

/// Open-loop arrival times (ns from the schedule start) at `qps`,
/// covering `span_ns`.
pub fn arrivals(seed: u64, qps: f64, span_ns: u64) -> Vec<u64> {
    let mut wl = Workload::new(seed ^ 0xa77);
    let n = (qps * span_ns as f64 / 1e9 * 1.5) as usize + 16;
    let mut due = wl.poisson_arrivals(n, 1e9 / qps);
    due.retain(|&t| t < span_ns);
    due
}

/// A service holding the fact (catalog index 0) and dimension (1)
/// tables, with one [`TenantTables`] per tenant class, all bound to the
/// same pair.
pub fn service(
    fact: Vec<u64>,
    dim: Vec<u64>,
    tenants: usize,
    slo: Option<SloPolicy>,
) -> (QueryService, Vec<TenantTables>) {
    let cfg = ServiceConfig {
        slo,
        ..ServiceConfig::default()
    };
    let mut svc = QueryService::with_config(spec(), cfg);
    let fact = svc.register_table("F", fact, W);
    let dim = svc.register_table("D", dim, W);
    let t = TenantTables {
        fact,
        dim,
        key_bound: DIM_N as u64,
    };
    (svc, vec![t; tenants])
}

/// Every distinct request shape a tenant list can send: one per
/// tenant × class × selectivity bucket, the set the server's warmup
/// pushes through.
pub fn warm_set(tenants: usize) -> Vec<QueryRequest> {
    let mut out = Vec::new();
    for tenant in 0..tenants {
        for class in TenantClass::ALL {
            for &selectivity in class.selectivity_buckets() {
                out.push(QueryRequest {
                    tenant,
                    class,
                    selectivity,
                });
            }
        }
    }
    out
}

/// The in-process counterpart of `NetServer::start`'s warmup: every
/// distinct plan through submit → admission → native execution,
/// unshedded. All tenants bind the same tables, so one tenant's warm
/// set covers every plan.
pub fn warm(svc: &mut QueryService, tenants: &[TenantTables]) {
    let saved = svc.set_slo(None);
    for req in warm_set(1) {
        svc.submit_classed(plan_for(&req, &tenants[req.tenant]), req.class, 0)
            .expect("warm-set plan");
    }
    while let (_, Some(batch)) = svc.next_batch_at(0) {
        svc.execute_batch_native_observed(batch)
            .expect("warm-set execution");
    }
    svc.set_slo(saved);
}

/// FNV-1a over the output bytes: the service's result-equality hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Expected `(output_n, output_hash)` of a request: the plan the
/// service's optimizer picks for the statistics of one fact-table
/// version, executed alone on the scalar native backend over the data
/// of a (possibly other) version. Memoized per (plan version, data
/// version, plan).
pub struct Oracle {
    model: CostModel,
    tenants: Vec<TenantTables>,
    dim: Vec<u64>,
    facts: Vec<Vec<u64>>,
    stats: Vec<[TableStats; 2]>,
    memo: HashMap<(usize, usize, u64), (u64, u64)>,
}

impl Oracle {
    /// `facts[v]` is fact-table version `v`.
    pub fn new(tenants: Vec<TenantTables>, facts: Vec<Vec<u64>>, dim: Vec<u64>) -> Oracle {
        let stats = facts
            .iter()
            .map(|f| [derive_stats(f, W), derive_stats(&dim, W)])
            .collect();
        Oracle {
            model: CostModel::new(spec().thread_view(1)),
            tenants,
            dim,
            facts,
            stats,
            memo: HashMap::new(),
        }
    }

    pub fn expect(
        &mut self,
        req: &QueryRequest,
        plan_version: usize,
        data_version: usize,
    ) -> Result<(u64, u64), PlanError> {
        let logical: LogicalPlan = plan_for(req, &self.tenants[req.tenant]);
        let key = (plan_version, data_version, logical.fingerprint());
        if let Some(&hit) = self.memo.get(&key) {
            return Ok(hit);
        }
        let planned = optimize_and_lower(&self.model, &logical, &self.stats[plan_version])?;
        let mut ctx = ExecContext::native_scalar();
        let rels = [
            ctx.relation_from_keys("F", &self.facts[data_version], W),
            ctx.relation_from_keys("D", &self.dim, W),
        ];
        let run = plan::execute(&mut ctx, &planned.plan, &rels)?;
        let got = (run.output.n(), fnv1a(&ctx.relation_bytes(&run.output)));
        self.memo.insert(key, got);
        Ok(got)
    }
}
