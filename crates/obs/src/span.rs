//! Low-overhead span tracing.
//!
//! Each writer thread owns a [`SpanSink`] — a single-producer handle to
//! its own fixed-size ring (`Lane`) registered with the shared
//! [`SpanRecorder`]. Recording a span is a handful of relaxed/release
//! atomics on the writer's own lane; no writer ever touches another
//! writer's lane, so there is no cross-thread contention on the hot
//! path. A drain (the single consumer, serialized by the recorder's
//! lane-registry mutex) harvests completed spans from every lane.
//!
//! When a lane is full the span is *dropped and counted* rather than
//! blocking the traced work — the `dropped` counter makes truncation
//! visible, mirroring how `MissTrace` reports its own overflow.
//!
//! Two off switches, with different costs:
//! - runtime: [`SpanRecorder::set_enabled`]`(false)` — one relaxed
//!   atomic load per span (the `tracing_overhead` bench guards this);
//! - compile time: build without the `span-tracing` feature — `record`
//!   becomes an empty inline function and drains return nothing.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What phase of the pipeline a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Plan enumeration + costing in the optimizer.
    Optimize,
    /// Batch admission (concurrency-aware batch costing).
    Admission,
    /// Hash-table build (shared build cache population).
    Build,
    /// One physical plan node's execution.
    Execute,
    /// One worker thread's share of a parallel operator.
    Worker,
    /// Anything else.
    Other,
}

impl SpanKind {
    /// Stable lowercase label (used in exports and metric names).
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Optimize => "optimize",
            SpanKind::Admission => "admission",
            SpanKind::Build => "build",
            SpanKind::Execute => "execute",
            SpanKind::Worker => "worker",
            SpanKind::Other => "other",
        }
    }
}

/// One completed span: a named interval with the backend counter
/// deltas observed across it.
#[derive(Debug, Clone)]
pub struct Span {
    /// Node / phase label, e.g. `"join[hash]"`.
    pub name: String,
    /// Pipeline phase.
    pub kind: SpanKind,
    /// Start offset from the recorder's epoch, wall nanoseconds.
    pub start_ns: u64,
    /// End offset from the recorder's epoch, wall nanoseconds.
    pub end_ns: u64,
    /// Backend-reported elapsed time for the interval: charged ns on
    /// the sim backend, wall ns on native. 0 when no backend interval
    /// was attached.
    pub elapsed_ns: f64,
    /// Charged accesses across the interval (sim backend; 0 elsewhere).
    pub accesses: u64,
    /// Per-cache-level `(name, misses)` across the interval (sim
    /// backend; empty on native).
    pub level_misses: Vec<(String, u64)>,
    /// Logical operations attributed to the span.
    pub ops: u64,
    /// Which lane (writer registration order) recorded the span.
    pub lane: usize,
    /// Per-lane sequence number; `(lane, seq)` is unique.
    pub seq: u64,
}

impl Span {
    /// The span as one JSON object (a JSON-lines row).
    pub fn to_json(&self) -> String {
        let mut levels = crate::json::Arr::new();
        for (name, misses) in &self.level_misses {
            let mut o = crate::json::Obj::new();
            o.str("level", name).u64("misses", *misses);
            levels.raw(&o.finish());
        }
        let mut o = crate::json::Obj::new();
        o.str("name", &self.name)
            .str("kind", self.kind.label())
            .u64("start_ns", self.start_ns)
            .u64("end_ns", self.end_ns)
            .num("elapsed_ns", self.elapsed_ns)
            .u64("accesses", self.accesses)
            .raw("level_misses", &levels.finish())
            .u64("ops", self.ops)
            .u64("lane", self.lane as u64)
            .u64("seq", self.seq);
        o.finish()
    }
}

#[cfg(feature = "span-tracing")]
mod ring {
    use super::*;
    use std::cell::UnsafeCell;

    /// A single-producer / single-consumer ring of spans. The producer
    /// is the owning [`SpanSink`]; the consumer is whoever holds the
    /// recorder's lane-registry lock.
    pub(super) struct Lane {
        slots: Box<[UnsafeCell<Option<Span>>]>,
        /// Next slot the producer writes. Only the producer stores it.
        head: AtomicUsize,
        /// Next slot the consumer reads. Only the consumer stores it.
        tail: AtomicUsize,
        pub(super) dropped: AtomicU64,
    }

    // The slot array is shared between exactly one producer and one
    // consumer, and each slot is touched only in the half-open window
    // its owner has claimed via the head/tail protocol below.
    unsafe impl Sync for Lane {}

    impl Lane {
        pub(super) fn new(capacity: usize) -> Lane {
            let slots = (0..capacity.max(1))
                .map(|_| UnsafeCell::new(None))
                .collect::<Vec<_>>()
                .into_boxed_slice();
            Lane {
                slots,
                head: AtomicUsize::new(0),
                tail: AtomicUsize::new(0),
                dropped: AtomicU64::new(0),
            }
        }

        /// Producer side. Returns `false` (and counts a drop) when the
        /// ring is full.
        pub(super) fn push(&self, span: Span) -> bool {
            let head = self.head.load(Ordering::Relaxed); // own index
            let tail = self.tail.load(Ordering::Acquire);
            if head.wrapping_sub(tail) >= self.slots.len() {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            let slot = &self.slots[head % self.slots.len()];
            // Safety: slots in [tail, head) belong to the consumer;
            // slot `head` is outside that window until the Release
            // store below publishes it.
            unsafe { *slot.get() = Some(span) };
            self.head.store(head.wrapping_add(1), Ordering::Release);
            true
        }

        /// Consumer side: take every completed span currently in the
        /// ring.
        pub(super) fn drain_into(&self, out: &mut Vec<Span>) {
            let mut tail = self.tail.load(Ordering::Relaxed); // own index
            let head = self.head.load(Ordering::Acquire);
            while tail != head {
                let slot = &self.slots[tail % self.slots.len()];
                // Safety: [tail, head) was published by the producer's
                // Release store and is ours until tail is advanced.
                if let Some(span) = unsafe { (*slot.get()).take() } {
                    out.push(span);
                }
                tail = tail.wrapping_add(1);
                self.tail.store(tail, Ordering::Release);
            }
        }
    }
}

#[cfg(feature = "span-tracing")]
struct Inner {
    enabled: AtomicBool,
    epoch: Instant,
    capacity: usize,
    lanes: Mutex<Vec<Arc<ring::Lane>>>,
    /// Monotonic lane-id source: ids stay unique even after [`drain`]
    /// reclaims abandoned lanes ([`SpanRecorder::drain`]).
    next_lane: AtomicU64,
    /// Drop counts carried over from reclaimed lanes, so
    /// [`SpanRecorder::dropped`] never under-reports.
    reclaimed_dropped: AtomicU64,
}

#[cfg(not(feature = "span-tracing"))]
struct Inner {
    enabled: AtomicBool,
    epoch: Instant,
}

/// Shared handle to the trace: hands out per-thread [`SpanSink`]s and
/// drains them. Cheap to clone (an `Arc`).
#[derive(Clone)]
pub struct SpanRecorder {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for SpanRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanRecorder")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Default for SpanRecorder {
    fn default() -> Self {
        SpanRecorder::new()
    }
}

/// Default per-lane capacity: enough for every node of a large batch
/// without drops, small enough (~tens of KiB) to sit in every worker.
pub const DEFAULT_LANE_CAPACITY: usize = 4096;

impl SpanRecorder {
    /// A recorder with [`DEFAULT_LANE_CAPACITY`] slots per lane,
    /// enabled.
    pub fn new() -> SpanRecorder {
        SpanRecorder::with_capacity(DEFAULT_LANE_CAPACITY)
    }

    /// A recorder whose lanes hold `capacity` spans each.
    #[cfg(feature = "span-tracing")]
    pub fn with_capacity(capacity: usize) -> SpanRecorder {
        SpanRecorder {
            inner: Arc::new(Inner {
                enabled: AtomicBool::new(true),
                epoch: Instant::now(),
                capacity: capacity.max(1),
                lanes: Mutex::new(Vec::new()),
                next_lane: AtomicU64::new(0),
                reclaimed_dropped: AtomicU64::new(0),
            }),
        }
    }

    /// A recorder whose lanes hold `capacity` spans each.
    #[cfg(not(feature = "span-tracing"))]
    pub fn with_capacity(_capacity: usize) -> SpanRecorder {
        SpanRecorder {
            inner: Arc::new(Inner {
                enabled: AtomicBool::new(true),
                epoch: Instant::now(),
            }),
        }
    }

    /// Turn recording on or off at runtime. Off costs one relaxed
    /// atomic load per would-be span.
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether spans are currently being recorded.
    pub fn enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Nanoseconds since this recorder was created — the timebase for
    /// [`Span::start_ns`] / [`Span::end_ns`].
    pub fn now_ns(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos() as u64
    }

    /// Register a new lane and return its single-producer sink. Each
    /// writer thread gets its own.
    #[cfg(feature = "span-tracing")]
    pub fn sink(&self) -> SpanSink {
        let lane = Arc::new(ring::Lane::new(self.inner.capacity));
        let mut lanes = self.inner.lanes.lock().unwrap();
        lanes.push(Arc::clone(&lane));
        SpanSink {
            recorder: self.clone(),
            lane,
            lane_idx: self.inner.next_lane.fetch_add(1, Ordering::Relaxed) as usize,
            seq: 0,
        }
    }

    /// Register a new lane and return its single-producer sink. Each
    /// writer thread gets its own.
    #[cfg(not(feature = "span-tracing"))]
    pub fn sink(&self) -> SpanSink {
        SpanSink {
            recorder: self.clone(),
        }
    }

    /// Harvest every completed span from every lane, in lane order.
    /// The lane-registry lock makes this the single consumer. Lanes
    /// whose producer sink has been dropped are reclaimed after
    /// draining (new producers always get fresh lanes, so a lane held
    /// only by the registry can never fill again) — a long-running
    /// service that hands a sink to every batch worker stays at
    /// O(live writers) memory instead of O(all writers ever). A lane
    /// is judged abandoned before it is drained: a writer that pushes
    /// after the drain and then drops its sink keeps its lane until the
    /// next drain, so those spans are never reclaimed unread.
    #[cfg(feature = "span-tracing")]
    pub fn drain(&self) -> Vec<Span> {
        let mut lanes = self.inner.lanes.lock().unwrap();
        let mut out = Vec::new();
        lanes.retain(|lane| {
            let abandoned = Arc::strong_count(lane) == 1;
            if abandoned {
                // Pairs with the sink drop's Release decrement: every
                // push the producer made is visible to the drain below.
                std::sync::atomic::fence(Ordering::Acquire);
            }
            lane.drain_into(&mut out);
            if abandoned {
                self.inner
                    .reclaimed_dropped
                    .fetch_add(lane.dropped.load(Ordering::Relaxed), Ordering::Relaxed);
            }
            !abandoned
        });
        out
    }

    /// Harvest every completed span from every lane, in lane order.
    #[cfg(not(feature = "span-tracing"))]
    pub fn drain(&self) -> Vec<Span> {
        Vec::new()
    }

    /// Total spans dropped across all lanes because a ring was full.
    #[cfg(feature = "span-tracing")]
    pub fn dropped(&self) -> u64 {
        let lanes = self.inner.lanes.lock().unwrap();
        self.inner.reclaimed_dropped.load(Ordering::Relaxed)
            + lanes
                .iter()
                .map(|l| l.dropped.load(Ordering::Relaxed))
                .sum::<u64>()
    }

    /// Total spans dropped across all lanes because a ring was full.
    #[cfg(not(feature = "span-tracing"))]
    pub fn dropped(&self) -> u64 {
        0
    }
}

/// A single writer thread's handle into the trace. Not `Clone`: one
/// sink per lane is the invariant the lock-free ring relies on. `Send`
/// so worker threads can carry theirs across a spawn.
pub struct SpanSink {
    recorder: SpanRecorder,
    #[cfg(feature = "span-tracing")]
    lane: Arc<ring::Lane>,
    #[cfg(feature = "span-tracing")]
    lane_idx: usize,
    #[cfg(feature = "span-tracing")]
    seq: u64,
}

impl std::fmt::Debug for SpanSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanSink").finish()
    }
}

impl SpanSink {
    /// Whether a record call would actually store a span. Callers use
    /// this to skip collecting counter deltas when tracing is off.
    pub fn active(&self) -> bool {
        cfg!(feature = "span-tracing") && self.recorder.enabled()
    }

    /// Nanoseconds since the recorder's epoch.
    pub fn now_ns(&self) -> u64 {
        self.recorder.now_ns()
    }

    /// Record one completed span. `lane` and `seq` are filled in here.
    #[cfg(feature = "span-tracing")]
    pub fn record(&mut self, mut span: Span) {
        if !self.recorder.enabled() {
            return;
        }
        span.lane = self.lane_idx;
        span.seq = self.seq;
        self.seq += 1;
        self.lane.push(span);
    }

    /// Record one completed span (compiled out).
    #[cfg(not(feature = "span-tracing"))]
    #[inline(always)]
    pub fn record(&mut self, _span: Span) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str) -> Span {
        Span {
            name: name.into(),
            kind: SpanKind::Other,
            start_ns: 1,
            end_ns: 2,
            elapsed_ns: 1.0,
            accesses: 0,
            level_misses: Vec::new(),
            ops: 0,
            lane: 0,
            seq: 0,
        }
    }

    #[test]
    #[cfg(feature = "span-tracing")]
    fn record_and_drain_roundtrip() {
        let rec = SpanRecorder::with_capacity(8);
        let mut sink = rec.sink();
        sink.record(span("a"));
        sink.record(span("b"));
        let spans = rec.drain();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "a");
        assert_eq!(spans[0].seq, 0);
        assert_eq!(spans[1].seq, 1);
        assert!(rec.drain().is_empty());
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    #[cfg(feature = "span-tracing")]
    fn drain_reclaims_abandoned_lanes_and_keeps_drop_counts() {
        let rec = SpanRecorder::with_capacity(2);
        for i in 0..10 {
            let mut sink = rec.sink();
            sink.record(span("kept"));
            sink.record(span("kept"));
            sink.record(span("overflow")); // lane full: dropped
            drop(sink); // producer gone: the sweep may reclaim the lane
            assert_eq!(rec.drain().len(), 2, "round {i}");
        }
        // Every per-round sink is gone; its lane must be too.
        assert_eq!(rec.inner.lanes.lock().unwrap().len(), 0);
        assert_eq!(rec.dropped(), 10, "reclaimed lanes keep their drops");
        // A live sink's lane survives the sweep, with fresh lane ids.
        let mut live = rec.sink();
        live.record(span("live"));
        let spans = rec.drain();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].lane, 10, "lane ids stay unique after GC");
        assert_eq!(rec.inner.lanes.lock().unwrap().len(), 1);
    }

    #[test]
    #[cfg(feature = "span-tracing")]
    fn full_lane_counts_drops() {
        let rec = SpanRecorder::with_capacity(2);
        let mut sink = rec.sink();
        for _ in 0..5 {
            sink.record(span("x"));
        }
        assert_eq!(rec.drain().len(), 2);
        assert_eq!(rec.dropped(), 3);
        // After a drain the lane has room again.
        sink.record(span("y"));
        assert_eq!(rec.drain().len(), 1);
    }

    #[test]
    #[cfg(feature = "span-tracing")]
    fn disabled_recorder_stores_nothing() {
        let rec = SpanRecorder::new();
        rec.set_enabled(false);
        let mut sink = rec.sink();
        assert!(!sink.active());
        sink.record(span("a"));
        assert!(rec.drain().is_empty());
        rec.set_enabled(true);
        assert!(sink.active());
        sink.record(span("b"));
        assert_eq!(rec.drain().len(), 1);
    }

    #[test]
    #[cfg(not(feature = "span-tracing"))]
    fn compiled_out_recorder_is_inert() {
        let rec = SpanRecorder::new();
        let mut sink = rec.sink();
        assert!(!sink.active());
        sink.record(span("a"));
        assert!(rec.drain().is_empty());
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn span_json_has_core_fields() {
        let mut s = span("scan");
        s.level_misses.push(("L1".into(), 4));
        let json = s.to_json();
        assert!(json.contains("\"name\":\"scan\""), "{json}");
        assert!(json.contains("\"kind\":\"other\""), "{json}");
        assert!(json.contains("\"level\":\"L1\""), "{json}");
    }
}
