//! # gcm-engine — a column-oriented engine over pluggable memory
//!
//! The reproduction's substitute for the paper's Monet/MonetDB platform
//! (§6.1): a small main-memory database engine whose operators
//!
//! * compute **real results** (every operator is tested against host-side
//!   references), while
//! * executing **every data access through a pluggable
//!   [`MemoryBackend`]** — the cache simulator ([`SimBackend`]: exact
//!   L1/L2/TLB miss counts and charged memory time) or the host's real
//!   memory ([`NativeBackend`]: real buffers, wall-clock time) — with
//!   byte-identical results either way, and
//! * **describe themselves** in the access-pattern language (the paper's
//!   Table 2), so the cost model predicts the same quantities.
//!
//! The validation experiments (Figure 7) run each operator and compare
//! simulator-measured counters with model predictions; the native
//! backend closes the remaining gap to the paper, which validated on an
//! actual machine (calibrate → model → measure, see
//! `tests/native_vs_model.rs`).
//!
//! ```
//! use gcm_engine::{ops, ExecContext};
//! use gcm_core::CostModel;
//! use gcm_hardware::presets;
//! use gcm_workload::Workload;
//!
//! let mut ctx = ExecContext::new(presets::tiny());
//! let keys = Workload::new(1).shuffled_keys(1024);
//! let table = ctx.relation_from_keys("U", &keys, 8);
//!
//! // Run the real quick-sort, measuring its memory behaviour...
//! let (_, measured) = ctx.measure(|c| ops::sort::quick_sort(c, &table));
//!
//! // ...and predict the same quantities from the pattern description.
//! let model = CostModel::new(presets::tiny());
//! let predicted = model.report(&ops::sort::quick_sort_pattern(table.region()));
//!
//! assert!(measured.mem.clock_ns > 0.0);
//! assert!(predicted.mem_ns > 0.0);
//! ```

pub mod backend;
pub mod ctx;
pub mod kernels;
pub mod native;
pub mod ops;
pub mod plan;
pub mod planner;
pub mod query;
pub mod relation;

pub use backend::{MemoryBackend, SimBackend};
pub use ctx::{ExecContext, RunStats};
pub use native::{NativeBackend, NativeCounters};
pub use relation::Relation;
