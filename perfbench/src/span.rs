//! Host-time spans measured from outside the library crates.
//!
//! A [`Tracer`] owns a fixed set of named spans. Each
//! [`Tracer::time`] call runs a closure around one public library call
//! and, when tracing is on, records its host duration. With tracing off
//! the closure runs directly, so the untraced replica measures the same
//! loop without the clock reads — the difference is the trace overhead.

use std::time::{Duration, Instant};

/// Host-time totals and per-call samples of one span.
#[derive(Debug, Clone)]
struct Span {
    /// Layer-qualified span name, e.g. `hikey-platform.tick`.
    name: &'static str,
    /// Total host time spent inside the span.
    busy: Duration,
    /// Per-call host time, ns (saturating at `u32::MAX`).
    samples: Vec<u32>,
}

/// Call count, busy time and per-call quantiles of one span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanSummary {
    /// Layer-qualified span name.
    pub name: &'static str,
    /// Calls timed.
    pub calls: u64,
    /// Host seconds inside the span.
    pub busy_s: f64,
    /// Median host ns per call (nearest rank).
    pub p50_ns: f64,
    /// 99th-percentile host ns per call (nearest rank).
    pub p99_ns: f64,
}

/// A fixed set of spans, indexed by position in the name list.
#[derive(Debug, Clone)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer over `names`; `enabled = false` makes every
    /// [`Tracer::time`] a plain call.
    pub fn new(names: &[&'static str], enabled: bool) -> Self {
        Tracer {
            enabled,
            spans: names
                .iter()
                .map(|&name| Span {
                    name,
                    busy: Duration::ZERO,
                    samples: Vec::new(),
                })
                .collect(),
        }
    }

    /// Runs `f`, charging its host time to span `id` when enabled.
    #[inline]
    pub fn time<R>(&mut self, id: usize, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let took = start.elapsed();
        let span = &mut self.spans[id];
        span.busy += took;
        span.samples
            .push(u32::try_from(took.as_nanos()).unwrap_or(u32::MAX));
        out
    }

    /// Total host time inside all spans.
    pub fn busy_total(&self) -> Duration {
        self.spans.iter().map(|s| s.busy).sum()
    }

    /// Summaries in name-list order.
    pub fn summaries(&self) -> Vec<SpanSummary> {
        self.spans
            .iter()
            .map(|span| {
                let mut sorted = span.samples.clone();
                sorted.sort_unstable();
                SpanSummary {
                    name: span.name,
                    calls: sorted.len() as u64,
                    busy_s: span.busy.as_secs_f64(),
                    p50_ns: nearest_rank(&sorted, 0.50),
                    p99_ns: nearest_rank(&sorted, 0.99),
                }
            })
            .collect()
    }
}

/// Nearest-rank quantile of sorted samples (0 when empty).
fn nearest_rank(sorted: &[u32], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    f64::from(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(&["a"], false);
        assert_eq!(tracer.time(0, || 3), 3);
        let s = tracer.summaries()[0];
        assert_eq!(s.calls, 0);
        assert_eq!(s.busy_s, 0.0);
    }

    #[test]
    fn enabled_tracer_counts_calls_and_quantiles() {
        let mut tracer = Tracer::new(&["a", "b"], true);
        for _ in 0..10 {
            tracer.time(1, || std::hint::black_box(0u64));
        }
        let s = tracer.summaries();
        assert_eq!(s[0].calls, 0);
        assert_eq!(s[1].calls, 10);
        assert!(s[1].p99_ns >= s[1].p50_ns);
        assert_eq!(nearest_rank(&[1, 2, 3, 4], 0.5), 2.0);
        assert_eq!(nearest_rank(&[1, 2, 3, 4], 0.99), 4.0);
    }
}
