//! In-memory spans around the public calls the benchmark makes.
//!
//! A span records `name`, `start`, `end` (ns since the tracer's epoch),
//! its parent span and the request or batch it belongs to. Spans stay in
//! memory until the run ends, then [`Tracer::write_jsonl`] dumps them.
//! With tracing off, [`Tracer::span`] records nothing; the benchmark
//! still reads the clock around each call because its own timings need
//! the same instants.

use std::io::Write;
use std::time::Instant;

/// Who a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Owner {
    /// One request: every span of the request shares its id.
    Request(u64),
    /// One batch-level call (admission, execution), shared by members.
    Batch(u64),
    /// Run-level work outside any request (updates, set-up).
    Run,
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub owner: Owner,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans kept in memory per run; later ones are counted, not kept.
const MAX_SPANS: usize = 500_000;

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Record a span; returns its index when tracing is on.
    pub fn span(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        owner: Owner,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            owner,
        });
        Some(self.spans.len() - 1)
    }

    /// Open a request's root span (`end == start`, closed later with
    /// [`Tracer::close`]) only if the in-memory cap leaves room for the
    /// root and `children` more spans, so a request is traced whole or
    /// not at all.
    pub fn root(
        &mut self,
        name: &'static str,
        start_ns: u64,
        id: u64,
        children: usize,
    ) -> Option<usize> {
        if self.spans.len() + 1 + children > MAX_SPANS {
            self.dropped += self.on as u64;
            return None;
        }
        self.span(name, start_ns, start_ns, None, Owner::Request(id))
    }

    /// Set the end of a span opened with `end == start`.
    pub fn close(&mut self, idx: usize, end_ns: u64) {
        self.spans[idx].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans, or whole request trees, not kept because the in-memory
    /// cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Cost of recording one span (two clock reads plus the push),
    /// measured on a scratch tracer: the basis of `trace.overhead_frac`.
    pub fn span_cost_ns() -> f64 {
        const N: usize = 200_000;
        let mut scratch = Tracer::new(true);
        scratch.spans.reserve(N);
        let t0 = Instant::now();
        for i in 0..N {
            let a = scratch.now();
            let b = scratch.now();
            scratch.span("cost", a, b, None, Owner::Request(i as u64));
        }
        t0.elapsed().as_nanos() as f64 / N as f64
    }

    /// Dump every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut out = std::io::BufWriter::new(file);
        for (i, s) in self.spans.iter().enumerate() {
            let (req, batch) = match s.owner {
                Owner::Request(r) => (r.to_string(), "null".to_string()),
                Owner::Batch(b) => ("null".to_string(), b.to_string()),
                Owner::Run => ("null".to_string(), "null".to_string()),
            };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{req},\"batch\":{batch}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
pub fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}
