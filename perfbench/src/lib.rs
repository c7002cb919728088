//! Benchmark of the TOP-IL reproduction: three workloads, each checked
//! for correctness on every run, reporting end-to-end metrics (host
//! throughput, memory, and the simulated outcome) and, in a separate
//! traced run, per-layer spans timed from outside around public calls of
//! `hikey-platform`, `topil`, `npu-serve` and `sim-core`.
//!
//! See `perfbench/README.md` for the workloads, the metric table and the
//! layer → metric predictions.

pub mod edge;
pub mod fleet;
pub mod host;
pub mod report;
pub mod span;

/// The simulated outcome of one workload repeat: the five metrics a
/// speed-only change must leave bit-identical for a given seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOutcome {
    /// Requests submitted to the service.
    pub submitted: u64,
    /// Requests answered with a reply.
    pub replies: u64,
    /// Requests that ended in a typed failure (shed, deadline, …).
    pub failed: u64,
    /// `replies / submitted`.
    pub served_share: f64,
    /// Median simulated request latency, ms.
    pub p50_ms: f64,
    /// 99th-percentile simulated request latency, ms.
    pub p99_ms: f64,
    /// Samples behind the two percentiles.
    pub latency_samples: u64,
    /// Share of QoS units that met their target: finished applications
    /// on the fleet, requests on the edge pair.
    pub qos_met_share: f64,
    /// Hottest simulated temperature, °C.
    pub peak_temp_c: f64,
}
