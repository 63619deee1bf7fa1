//! Exact order statistics over raw samples.
//!
//! Every timing keeps its raw samples and is summarised here by exact
//! nearest-rank quantiles — no histogram bucketing, so a reported value
//! carries all the digits that were measured.

/// A set of raw samples, summarised by [`Samples::summary`].
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

/// Median plus tail of one sample set.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
    /// Samples strictly beyond the p99 rank.
    pub beyond_p99: usize,
    /// The highest of p99.9 / p99 / p95 / p90 / p50 with at least ten
    /// samples beyond it (0 when none has)…
    pub tail_q: f64,
    /// …and its value.
    pub tail: f64,
}

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn extend(&mut self, other: Samples) {
        self.values.extend(other.values);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    pub fn summary(&self) -> Summary {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let rank = |q: f64| ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
        let at = |q: f64| if n == 0 { 0.0 } else { v[rank(q) - 1] };
        let (tail_q, tail) = [0.999, 0.99, 0.95, 0.90, 0.50]
            .into_iter()
            .find(|&q| n >= rank(q) + 10)
            .map_or((0.0, 0.0), |q| (q, at(q)));
        Summary {
            n,
            p50: at(0.50),
            p99: at(0.99),
            beyond_p99: n.saturating_sub(rank(0.99)),
            tail_q,
            tail,
        }
    }

    pub fn p50(&self) -> f64 {
        self.summary().p50
    }
}

/// Median of a small set of repeated measurements.
pub fn median(values: &[f64]) -> f64 {
    Samples {
        values: values.to_vec(),
    }
    .p50()
}
