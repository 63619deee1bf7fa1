//! Exporter format goldens (ISSUE 9 satellite).
//!
//! The Prometheus text and JSON-lines exports are wire formats: a
//! scraper or log pipeline parses them byte-by-byte, so their shape
//! must not drift silently — not the label escaping, not the summary
//! series layout, not the histogram row schema. These tests pin the
//! exports byte-for-byte against hand-derived expectations (bucket
//! representatives computed from the documented log-linear layout:
//! 32 sub-buckets per octave, exact below 64).

use gcm::obs::registry::labeled;
use gcm::obs::{Histogram, MetricsRegistry, Span, SpanKind, SpanRecorder};
use gcm::service::metrics::{QUEUE_DEPTH, QUEUE_DEPTH_PEAK};
use gcm::service::{ServiceMetrics, ShedRecord};
use gcm::workload::TenantClass;

/// A registry covering every metric kind and the escaping-hostile
/// label value `a"b\c<newline>d`.
fn golden_registry() -> MetricsRegistry {
    let r = MetricsRegistry::new();
    r.inc("requests_total", 3);
    r.set_gauge(&labeled("queue_depth", &[("tenant", "a\"b\\c\nd")]), 2.0);
    for v in [37u64, 1001, 1001, 5000] {
        r.observe("lat_ns", v);
    }
    r.observe(&labeled("lat_ns", &[("op", "scan")]), 63);
    r
}

#[test]
fn prometheus_text_is_pinned_byte_for_byte() {
    // Derivation: 1001 lands in bucket [992, 1008) whose midpoint
    // representative is 1000 (rank-2 sample → p50); 5000 lands in
    // [4992, 5120) → representative 5056, clamped to the observed max
    // 5000 (p99/p999). 37 and 63 sit in exact unit buckets.
    let expected = concat!(
        "# TYPE lat_ns summary\n",
        "lat_ns{quantile=\"0.5\"} 1000\n",
        "lat_ns{quantile=\"0.99\"} 5000\n",
        "lat_ns{quantile=\"0.999\"} 5000\n",
        "lat_ns_sum 7039\n",
        "lat_ns_count 4\n",
        "# TYPE lat_ns summary\n",
        "lat_ns{op=\"scan\",quantile=\"0.5\"} 63\n",
        "lat_ns{op=\"scan\",quantile=\"0.99\"} 63\n",
        "lat_ns{op=\"scan\",quantile=\"0.999\"} 63\n",
        "lat_ns_sum{op=\"scan\"} 63\n",
        "lat_ns_count{op=\"scan\"} 1\n",
        "# TYPE queue_depth gauge\n",
        r#"queue_depth{tenant="a\"b\\c\nd"} 2"#,
        "\n",
        "# TYPE requests_total counter\n",
        "requests_total 3\n",
    );
    assert_eq!(golden_registry().to_prometheus(), expected);
}

#[test]
fn json_lines_export_is_pinned_byte_for_byte() {
    // The Prometheus-escaped label set is part of the metric *name*,
    // so the JSON encoder escapes it a second time: every `\` doubles
    // and every `"` gains a backslash.
    let expected = concat!(
        r#"{"name":"lat_ns","type":"histogram","value":{"count":4,"sum":7039,"mean":1759.750,"min":37,"max":5000,"p50":1000,"p99":5000,"p999":5000}}"#,
        "\n",
        r#"{"name":"lat_ns{op=\"scan\"}","type":"histogram","value":{"count":1,"sum":63,"mean":63,"min":63,"max":63,"p50":63,"p99":63,"p999":63}}"#,
        "\n",
        r#"{"name":"queue_depth{tenant=\"a\\\"b\\\\c\\nd\"}","type":"gauge","value":2}"#,
        "\n",
        r#"{"name":"requests_total","type":"counter","value":3}"#,
        "\n",
    );
    assert_eq!(golden_registry().to_json_lines(), expected);
}

#[test]
fn histogram_bucket_boundaries_are_pinned() {
    // Everything in [992, 1008) shares one bucket and reads back as
    // the midpoint 1000 — the documented ≤1.6% quantile error.
    let mut h = Histogram::new();
    for v in [992u64, 1001, 1007] {
        h.record(v);
    }
    for q in [0.0, 0.5, 0.99, 1.0] {
        assert_eq!(h.quantile(q), 1000, "q={q}");
    }
    // 1008 starts the next bucket (representative 1016), and a lone
    // sample clamps the read to the observed max.
    let mut edge = Histogram::new();
    edge.record(1008);
    assert_eq!(edge.p50(), 1008);
    // Below 64, buckets are unit-width and exact.
    let mut small = Histogram::new();
    small.record(37);
    assert_eq!(small.p50(), 37);
    assert_eq!(small.p999(), 37);
}

/// A `ServiceMetrics` exactly as the SLO gate leaves it: per-class
/// shed counters fed through `record_shed` (the production path, so
/// the golden pins the real emission, not a hand-built mirror) plus
/// the queue-depth gauge pair the scheduler maintains.
fn shed_metrics() -> ServiceMetrics {
    let mut m = ServiceMetrics::default();
    let shed = |id: u64, class: TenantClass| ShedRecord {
        id,
        class,
        waited_ns: 1_000 * id,
        projected_ns: 9e6,
        budget_ns: 4e6,
    };
    m.record_shed(shed(1, TenantClass::PointLookup));
    for id in 2..4 {
        m.record_shed(shed(id, TenantClass::JoinHeavy));
    }
    for id in 4..8 {
        m.record_shed(shed(id, TenantClass::ScanHeavy));
    }
    m.registry.set_gauge(QUEUE_DEPTH, 3.0);
    m.registry.gauge_max(QUEUE_DEPTH_PEAK, 7.0);
    m.registry.gauge_max(QUEUE_DEPTH_PEAK, 5.0); // peak must hold
    m
}

#[test]
fn shed_and_queue_depth_prometheus_is_pinned_byte_for_byte() {
    // BTreeMap name order: the gauges sort before the labeled shed
    // family, and the class labels sort alphabetically within it. Each
    // series re-states its family `# TYPE` header.
    let expected = concat!(
        "# TYPE gcm_service_queue_depth gauge\n",
        "gcm_service_queue_depth 3\n",
        "# TYPE gcm_service_queue_depth_peak gauge\n",
        "gcm_service_queue_depth_peak 7\n",
        "# TYPE gcm_service_shed_total counter\n",
        "gcm_service_shed_total{class=\"join_heavy\"} 2\n",
        "# TYPE gcm_service_shed_total counter\n",
        "gcm_service_shed_total{class=\"point_lookup\"} 1\n",
        "# TYPE gcm_service_shed_total counter\n",
        "gcm_service_shed_total{class=\"scan_heavy\"} 4\n",
    );
    let m = shed_metrics();
    assert_eq!(m.to_prometheus(), expected);
    // The exact trace and the aggregated counters agree.
    assert_eq!(m.shed_total(), 7);
    assert_eq!(m.shed_for_class(TenantClass::ScanHeavy), 4);
}

#[test]
fn shed_and_queue_depth_json_lines_are_pinned_byte_for_byte() {
    let expected = concat!(
        r#"{"name":"gcm_service_queue_depth","type":"gauge","value":3}"#,
        "\n",
        r#"{"name":"gcm_service_queue_depth_peak","type":"gauge","value":7}"#,
        "\n",
        r#"{"name":"gcm_service_shed_total{class=\"join_heavy\"}","type":"counter","value":2}"#,
        "\n",
        r#"{"name":"gcm_service_shed_total{class=\"point_lookup\"}","type":"counter","value":1}"#,
        "\n",
        r#"{"name":"gcm_service_shed_total{class=\"scan_heavy\"}","type":"counter","value":4}"#,
        "\n",
    );
    assert_eq!(shed_metrics().to_json_lines(), expected);
}

fn span(name: &str, seq: u64) -> Span {
    Span {
        name: name.to_string(),
        kind: SpanKind::Execute,
        start_ns: seq * 10,
        end_ns: seq * 10 + 5,
        elapsed_ns: 5.0,
        accesses: 0,
        level_misses: Vec::new(),
        ops: 1,
    }
}

#[test]
fn mirrored_counters_stay_monotone_across_drain_cycles() {
    // The service idiom: harvest spans with `drain()` (destructive),
    // mirror totals into the registry with `inc`. The registry counter
    // must be monotone and exact across cycles — a drain that
    // re-delivered or lost spans would break either property.
    let recorder = SpanRecorder::new();
    let registry = MetricsRegistry::new();
    let mut total = 0u64;
    for cycle in 0..3u64 {
        let produced = 4 + cycle; // vary per cycle: 4, 5, 6
        for i in 0..produced {
            recorder.record(span(&format!("c{cycle}s{i}"), i));
        }
        let drained = recorder.drain();
        assert_eq!(drained.len() as u64, produced, "cycle {cycle}");
        registry.inc("spans_harvested_total", drained.len() as u64);
        registry.set_counter("spans_dropped_total", recorder.dropped());
        let before = total;
        total += produced;
        let now = registry.counter("spans_harvested_total").unwrap();
        assert_eq!(now, total);
        assert!(now >= before, "counter regressed");
    }
    // A drain with nothing new must not move the counter.
    assert!(recorder.drain().is_empty());
    registry.inc("spans_harvested_total", 0);
    assert_eq!(registry.counter("spans_harvested_total"), Some(total));
    assert_eq!(registry.counter("spans_dropped_total"), Some(0));
}
