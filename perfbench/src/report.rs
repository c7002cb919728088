//! Metric values and the result line the benchmark prints last.

use hmc_types::SimDuration;

/// One named metric of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit (`s`, `1/s`, `MB`, `ratio`, `sim_ms`, …).
    pub unit: &'static str,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// `num / den`, or 0 for an empty base.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A simulated duration in milliseconds.
pub fn ms(d: SimDuration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Whether a run passed: no failed operation and every metric finite.
pub fn correct(failed: u64, metrics: &[Metric]) -> bool {
    failed == 0 && metrics.iter().all(|m| m.value.is_finite())
}

/// The one-line JSON result: `correct`, `attempted`, `failed` and the
/// metrics by name. A failed run carries no numbers.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let correct = correct(failed, metrics);
    let body: Vec<String> = if correct {
        metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn result_line_lists_metrics_only_when_correct() {
        let m = [Metric::new("latency_ms", 1.25, "ms")];
        assert_eq!(
            result_line(3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert_eq!(
            result_line(3, 1, &m),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {}}"
        );
        let nan = [Metric::new("x", f64::NAN, "s")];
        assert!(result_line(1, 0, &nan).starts_with("{\"correct\": false"));
    }
}
