//! The closed-loop `fleet` workload and its traced replica.
//!
//! The workload is `bench::fleet`: boards running a full HiKey platform,
//! the RC thermal network, the TOP-IL governor and a shared `NpuService`
//! batcher. The replica reproduces the lockstep reference loop of
//! `bench::fleet` (no churn) from public calls only, so every layer can
//! be timed from outside; `tests/replica.rs` proves it equal to
//! `bench::fleet::run_with_model_driver(.., SimDriver::Lockstep)`.

use bench::fleet::{FleetConfig, FleetReport};
use hikey_platform::{default_placement, Platform, PlatformConfig};
use hmc_types::{SimDuration, SimTime};
use npu::NpuModel;
use npu_serve::{NpuService, ServeConfig, ServeStats};
use rand::rngs::StdRng;
use rand::SeedableRng;
use topil::dvfs::DvfsControlLoop;
use topil::governor::{DVFS_PERIOD, MIGRATION_PERIOD};
use topil::{ClientReply, IlModel, InferenceBackend, MigrationPolicy};
use workloads::{ArrivalSpec, MixedWorkloadConfig, WorkloadGenerator};

use crate::report::{ms, ratio};
use crate::span::Tracer;
use crate::SimOutcome;

/// Default seed of the `fleet` workload.
pub const DEFAULT_SEED: u64 = 7;

/// Training seed of the deployed IL model. It is fixed, so set-up does
/// the same work on every run (training time varies ~3x across seeds
/// through early stopping); the workload seed picks the boards'
/// application arrivals.
pub const MODEL_SEED: u64 = DEFAULT_SEED;

/// Span names of the fleet replica, indexed by the `SPAN_*` constants.
pub const SPANS: [&str; 9] = [
    "hikey-platform.tick",
    "hikey-platform.admit",
    "topil.dvfs",
    "topil.prepare",
    "topil.complete",
    "npu-serve.submit",
    "npu-serve.flush",
    "npu-serve.take_reply",
    "bench.verify",
];
const SPAN_TICK: usize = 0;
const SPAN_ADMIT: usize = 1;
const SPAN_DVFS: usize = 2;
const SPAN_PREPARE: usize = 3;
const SPAN_COMPLETE: usize = 4;
const SPAN_SUBMIT: usize = 5;
const SPAN_FLUSH: usize = 6;
const SPAN_TAKE_REPLY: usize = 7;
const SPAN_VERIFY: usize = 8;

/// The fleet configuration of a run: `boards` × `epochs` of 500 ms on
/// thread budget 1, default devices, batch and policy cache, and serve
/// workers capped at the host's CPUs.
pub fn config(boards: usize, epochs: u64, seed: u64, serve_workers: usize) -> FleetConfig {
    FleetConfig {
        boards,
        epochs,
        seed,
        workers: serve_workers,
        budget: par::Budget::serial(),
        ..FleetConfig::default()
    }
}

/// Serve workers of the fleet's shared service on this host: the
/// default, capped at the logical CPU count.
pub fn serve_workers(nproc: usize) -> usize {
    FleetConfig::default().workers.min(nproc).max(1)
}

/// The simulated outcome of one fleet run.
pub fn outcome(report: &FleetReport) -> SimOutcome {
    let violations: usize = report.boards.iter().map(|b| b.violations).sum();
    let executions: usize = report.boards.iter().map(|b| b.executions).sum();
    SimOutcome {
        submitted: report.submitted,
        replies: report.served,
        failed: report.submitted - report.served,
        served_share: ratio(report.served, report.submitted),
        p50_ms: ms(report.p50),
        p99_ms: ms(report.p99),
        latency_samples: report.served,
        qos_met_share: 1.0 - ratio(violations as u64, executions as u64),
        peak_temp_c: report
            .boards
            .iter()
            .map(|b| b.peak_temp_c)
            .fold(f64::NEG_INFINITY, f64::max),
    }
}

/// Correctness problems of one fleet run (empty when it passes).
pub fn check(report: &FleetReport) -> Vec<String> {
    let mut problems = Vec::new();
    if report.submitted == 0 {
        problems.push("fleet submitted no requests".to_string());
    }
    if report.served + report.dropped != report.submitted {
        problems.push(format!(
            "conservation: {} served + {} dropped != {} submitted",
            report.served, report.dropped, report.submitted
        ));
    }
    if report.dropped != 0 {
        problems.push(format!("{} requests dropped", report.dropped));
    }
    if report.mismatches != 0 {
        problems.push(format!(
            "{} replies differ from dedicated inference",
            report.mismatches
        ));
    }
    problems
}

/// Result of the replica: the fields the equivalence test compares with
/// a [`FleetReport`], plus the service's counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaReport {
    /// Requests admitted by the service.
    pub submitted: u64,
    /// Requests served with a reply.
    pub served: u64,
    /// Median service latency.
    pub p50: SimDuration,
    /// 99th-percentile service latency.
    pub p99: SimDuration,
    /// Peak die temperature per board, °C.
    pub peak_temps: Vec<f64>,
    /// Finished applications that violated QoS, per board.
    pub violations: Vec<usize>,
    /// Finished applications, per board.
    pub executions: Vec<usize>,
    /// Replies that differed from dedicated-device inference.
    pub mismatches: u64,
    /// The shared service's counters at the end of the run.
    pub stats: ServeStats,
}

struct Board {
    platform: Platform,
    policy: MigrationPolicy,
    dvfs: DvfsControlLoop,
    arrivals: Vec<ArrivalSpec>,
    next_arrival: usize,
    dvfs_skip: u8,
    jitter: SimDuration,
}

/// The shared-service configuration `bench::fleet` derives from a fleet
/// config.
fn serve_config(config: &FleetConfig) -> ServeConfig {
    ServeConfig {
        devices: config.devices,
        workers: config.workers,
        max_batch: config.max_batch,
        queue_capacity: config.boards.max(ServeConfig::default().queue_capacity),
        kernel: config.kernel,
        policy_cache: config.policy_cache,
        ..ServeConfig::default()
    }
}

fn make_boards(model: &IlModel, config: &FleetConfig, serve: &ServeConfig) -> Vec<Board> {
    (0..config.boards)
        .map(|i| {
            let workload_cfg = MixedWorkloadConfig {
                num_apps: 4,
                mean_interarrival: SimDuration::from_secs(8),
                total_instructions: Some(12_000_000_000),
                ..MixedWorkloadConfig::default()
            };
            let seed = config.seed.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64);
            let workload =
                WorkloadGenerator::mixed(&workload_cfg, &mut StdRng::seed_from_u64(seed));
            Board {
                platform: Platform::new(PlatformConfig::default()),
                policy: MigrationPolicy::new(model.clone()),
                dvfs: DvfsControlLoop::new(),
                arrivals: workload.iter().copied().collect(),
                next_arrival: 0,
                dvfs_skip: 0,
                jitter: SimDuration::from_nanos(
                    (i as u64).wrapping_mul(997_000) % serve.max_wait.as_nanos(),
                ),
            }
        })
        .collect()
}

fn admit_due(board: &mut Board, now: SimTime, tracer: &mut Tracer) {
    while let Some(spec) = board.arrivals.get(board.next_arrival) {
        if spec.at > now {
            break;
        }
        let core = default_placement(&board.platform);
        tracer.time(SPAN_ADMIT, || board.platform.admit(spec, core));
        board.next_arrival += 1;
    }
}

/// Runs the fleet's lockstep reference loop (no churn) from public calls,
/// charging each layer's calls to its span.
///
/// # Panics
///
/// Panics on a zero board or epoch count, or a configuration with churn.
pub fn replica(model: &IlModel, config: &FleetConfig, tracer: &mut Tracer) -> ReplicaReport {
    assert!(config.boards > 0 && config.epochs > 0, "empty fleet");
    assert!(config.churn.is_none(), "the replica runs a stable fleet");
    let serve = serve_config(config);
    let mut service = NpuService::new(model.mlp(), serve);
    let dedicated = NpuModel::compile(model.mlp());
    let mut boards = make_boards(model, config, &serve);
    let end = SimTime::ZERO + MIGRATION_PERIOD * config.epochs;
    let mut mismatches = 0u64;

    let mut now = SimTime::ZERO;
    while now < end {
        for board in boards.iter_mut() {
            admit_due(board, now, tracer);
        }

        // The migration epoch: prepare and submit in jitter order, flush,
        // redeem, verify, complete.
        let mut order: Vec<usize> = (0..boards.len())
            .filter(|&i| boards[i].platform.app_count() > 0)
            .collect();
        order.sort_by_key(|&i| (boards[i].jitter, i));
        let mut pending = Vec::new();
        for i in order {
            let board = &mut boards[i];
            let Some(prepared) =
                tracer.time(SPAN_PREPARE, || board.policy.prepare(&board.platform))
            else {
                continue;
            };
            let mut at = now + board.jitter;
            let mut ticket = None;
            for _ in 0..=service.config().retry.max_attempts {
                match tracer.time(SPAN_SUBMIT, || service.submit(prepared.batch(), at)) {
                    Ok(t) => {
                        ticket = Some(t);
                        break;
                    }
                    Err(rejected) => at += rejected.retry_after,
                }
            }
            pending.push((i, prepared, ticket));
        }
        tracer.time(SPAN_FLUSH, || service.flush(now + MIGRATION_PERIOD));

        for (i, prepared, ticket) in pending {
            let reply = ticket
                .and_then(|t| tracer.time(SPAN_TAKE_REPLY, || service.take_reply(t)))
                .unwrap_or_else(|| ClientReply {
                    output: None,
                    latency: SimDuration::ZERO,
                    cpu_time: SimDuration::ZERO,
                    backend: InferenceBackend::Npu,
                    npu_failures: 0,
                    fallback_active: false,
                    jobs: Vec::new(),
                    breaker_opened: false,
                });
            let mismatch = tracer.time(SPAN_VERIFY, || {
                reply
                    .output
                    .as_ref()
                    .is_some_and(|output| *output != dedicated.infer(prepared.batch()))
            });
            mismatches += u64::from(mismatch);
            let board = &mut boards[i];
            let outcome = tracer.time(SPAN_COMPLETE, || {
                board.policy.complete(&mut board.platform, &prepared, reply)
            });
            if !outcome.deadline_missed {
                board.dvfs_skip = 2;
            }
        }

        // Step every board to the next barrier: admit, DVFS, tick.
        let next = now + MIGRATION_PERIOD;
        for board in boards.iter_mut() {
            loop {
                let t = board.platform.now();
                if t >= next {
                    break;
                }
                if t != now {
                    admit_due(board, t, tracer);
                }
                if t.is_multiple_of(DVFS_PERIOD) {
                    if board.dvfs_skip > 0 {
                        board.dvfs_skip -= 1;
                    } else {
                        let _ = tracer.time(SPAN_DVFS, || board.dvfs.run(&mut board.platform));
                    }
                }
                tracer.time(SPAN_TICK, || board.platform.tick());
            }
        }
        now = next;
    }
    tracer.time(SPAN_FLUSH, || service.flush(end));

    let stats = service.stats().clone();
    let mut report = ReplicaReport {
        submitted: stats.submitted,
        served: stats.served,
        p50: stats.latency_percentile(0.50).unwrap_or(SimDuration::ZERO),
        p99: stats.latency_percentile(0.99).unwrap_or(SimDuration::ZERO),
        peak_temps: Vec::with_capacity(boards.len()),
        violations: Vec::with_capacity(boards.len()),
        executions: Vec::with_capacity(boards.len()),
        mismatches,
        stats,
    };
    for board in boards {
        let (metrics, _) = board.platform.finish();
        report.peak_temps.push(metrics.peak_temperature().value());
        report.violations.push(metrics.qos_violations());
        report.executions.push(metrics.outcomes().len());
    }
    report
}

/// Differences between the replica and the library's report of the same
/// run (empty when they agree).
pub fn replica_differences(replica: &ReplicaReport, report: &FleetReport) -> Vec<String> {
    let mut diffs = Vec::new();
    let mut expect = |what: &str, ours: String, theirs: String| {
        if ours != theirs {
            diffs.push(format!("{what}: replica {ours} vs bench::fleet {theirs}"));
        }
    };
    expect(
        "submitted",
        replica.submitted.to_string(),
        report.submitted.to_string(),
    );
    expect(
        "served",
        replica.served.to_string(),
        report.served.to_string(),
    );
    expect("p50", replica.p50.to_string(), report.p50.to_string());
    expect("p99", replica.p99.to_string(), report.p99.to_string());
    expect(
        "mismatches",
        replica.mismatches.to_string(),
        report.mismatches.to_string(),
    );
    let theirs = |f: fn(&bench::fleet::BoardOutcome) -> String| -> String {
        report.boards.iter().map(f).collect::<Vec<_>>().join(",")
    };
    let ours = |v: &mut dyn Iterator<Item = String>| -> String { v.collect::<Vec<_>>().join(",") };
    expect(
        "peak temperatures",
        ours(&mut replica.peak_temps.iter().map(|t| format!("{:?}", t))),
        theirs(|b| format!("{:?}", b.peak_temp_c)),
    );
    expect(
        "QoS violations",
        ours(&mut replica.violations.iter().map(|v| v.to_string())),
        theirs(|b| b.violations.to_string()),
    );
    expect(
        "executions",
        ours(&mut replica.executions.iter().map(|v| v.to_string())),
        theirs(|b| b.executions.to_string()),
    );
    diffs
}
