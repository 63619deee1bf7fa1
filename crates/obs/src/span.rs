//! Low-overhead span tracing.
//!
//! One [`SpanRecorder`] owns one bounded buffer of completed spans.
//! Writers call [`SpanRecorder::record`]; a reader takes everything
//! buffered with [`SpanRecorder::drain`]. When the buffer is full the
//! span is *dropped and counted* rather than blocking the traced work —
//! the `dropped` counter makes truncation visible, mirroring how
//! `MissTrace` reports its own overflow.
//!
//! The off switch is [`SpanRecorder::set_enabled`]`(false)`: one
//! relaxed atomic load per would-be span (the `tracing_overhead` bench
//! guards this).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
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
            .u64("ops", self.ops);
        o.finish()
    }
}

/// A trace: one bounded buffer of completed spans behind a
/// mutex, with a runtime on/off switch and the epoch clock spans are
/// stamped against.
pub struct SpanRecorder {
    enabled: AtomicBool,
    epoch: Instant,
    capacity: usize,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
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

const POISONED: &str = "a span writer panicked while holding the buffer";

/// Default buffer capacity: enough for every node of a large batch
/// without drops, small enough to bound an undrained service's trace.
pub const DEFAULT_SPAN_CAPACITY: usize = 4096;

impl SpanRecorder {
    /// A recorder holding up to [`DEFAULT_SPAN_CAPACITY`] undrained
    /// spans, enabled.
    pub fn new() -> SpanRecorder {
        SpanRecorder::with_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// A recorder holding up to `capacity` undrained spans.
    pub fn with_capacity(capacity: usize) -> SpanRecorder {
        SpanRecorder {
            enabled: AtomicBool::new(true),
            epoch: Instant::now(),
            capacity: capacity.max(1),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Turn recording on or off at runtime. Off costs one relaxed
    /// atomic load per would-be span.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether spans are currently being recorded. Callers use this to
    /// skip collecting counter deltas when tracing is off.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Nanoseconds since this recorder was created — the timebase for
    /// [`Span::start_ns`] / [`Span::end_ns`].
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record one completed span. A no-op while disabled; when the
    /// buffer already holds `capacity` spans the span is dropped and
    /// counted.
    pub fn record(&self, span: Span) {
        if !self.enabled() {
            return;
        }
        let mut spans = self.spans.lock().expect(POISONED);
        if spans.len() < self.capacity {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Take every buffered span, in recording order.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect(POISONED))
    }

    /// Total spans dropped because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
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
        }
    }

    #[test]
    fn record_and_drain_roundtrip() {
        let rec = SpanRecorder::with_capacity(8);
        rec.record(span("a"));
        rec.record(span("b"));
        let spans = rec.drain();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "a");
        assert_eq!(spans[1].name, "b");
        assert!(rec.drain().is_empty());
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn full_lane_counts_drops() {
        let rec = SpanRecorder::with_capacity(2);
        for _ in 0..5 {
            rec.record(span("x"));
        }
        assert_eq!(rec.drain().len(), 2);
        assert_eq!(rec.dropped(), 3);
        // After a drain the buffer has room again.
        rec.record(span("y"));
        assert_eq!(rec.drain().len(), 1);
        assert_eq!(rec.dropped(), 3);
    }

    #[test]
    fn disabled_recorder_stores_nothing() {
        let rec = SpanRecorder::new();
        rec.set_enabled(false);
        assert!(!rec.enabled());
        rec.record(span("a"));
        assert!(rec.drain().is_empty());
        assert_eq!(rec.dropped(), 0);
        rec.set_enabled(true);
        assert!(rec.enabled());
        rec.record(span("b"));
        assert_eq!(rec.drain().len(), 1);
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
