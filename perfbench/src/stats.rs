//! Raw-sample statistics and the metric record the benchmark prints.
//!
//! Percentiles come from the raw samples (nearest rank), never from a
//! bucketed histogram, so a reported percentile is a latency some request
//! saw.

use std::fmt::Write as _;

/// Nearest-rank percentile `p` in `[0, 100]` of `samples` (unsorted).
/// Returns 0 for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `samples` (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One reported metric: name, value, unit, and how many raw samples the
/// value rests on (0 for a count or ratio that is not a sample statistic).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// An ordered set of metrics.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Human-readable table: name, value, unit, sample count.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.0 {
            let _ = writeln!(
                out,
                "  {:<44} {:>16.6} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        out
    }

    /// The `metrics` object of the result line.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn json_keeps_digits() {
        let mut m = Metrics::default();
        m.push("a", 1.0, "s", 0);
        m.push("b", 0.123456789012, "ms", 3);
        assert_eq!(
            m.json(),
            "{\"a\": {\"value\": 1.0, \"unit\": \"s\"}, \"b\": {\"value\": 0.123456789012, \"unit\": \"ms\"}}"
        );
    }
}
