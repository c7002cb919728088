//! The open-loop `edge` and `edge_overload` workloads and their traced
//! replica.
//!
//! The workloads are `edge_sim::run`: a user/request frontier, a
//! two-level network model and per-region `TieredService` ladders; the
//! boards are a thermal proxy, with no platform or RC network. The
//! frontier and the per-region plan are crate-private, so the replica
//! drives one region's `TieredService` — with edge-sim's tier
//! configuration — from its own seeded schedule at the workload's
//! per-board rate, timing the uplink and tier calls from outside.

use edge_sim::{EdgeConfig, EdgeReport};
use hmc_types::{SimDuration, SimTime};
use nn::{Matrix, Mlp};
use npu_serve::{
    ClientId, ServeConfig, TierConfig, TierOutcome, TierStats, TierSubmit, TieredService,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_core::FifoLink;

use crate::report::{ms, ratio};
use crate::span::Tracer;
use crate::SimOutcome;

/// Default seed of both edge workloads.
pub const DEFAULT_SEED: u64 = 7;

/// Span names of the edge replica, indexed by the `SPAN_*` constants.
pub const SPANS: [&str; 4] = [
    "sim-core.uplink",
    "npu-serve.tier_submit",
    "npu-serve.tier_flush",
    "npu-serve.tier_take_outcome",
];
const SPAN_UPLINK: usize = 0;
const SPAN_SUBMIT: usize = 1;
const SPAN_FLUSH: usize = 2;
const SPAN_TAKE: usize = 3;

/// Which open-loop shape to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Nominal load: 2.5k boards, 250k users, 4 regions × 2 racks, load 1.
    Nominal,
    /// 6x load: 1k boards, 100k users, 4 regions × 1 rack, load 6.
    Overload,
}

/// The edge configuration of a run: 48 epochs of 100 ms, no storm, event
/// driver, thread budget 1. `scale_div` divides boards and users (1 is
/// the full workload; the tests and the warm-up use smaller ones).
pub fn config(shape: Shape, seed: u64, scale_div: u64) -> EdgeConfig {
    let (boards, users, racks, load) = match shape {
        Shape::Nominal => (2_500, 250_000, 2, 1.0),
        Shape::Overload => (1_000, 100_000, 1, 6.0),
    };
    EdgeConfig {
        boards: boards / scale_div as usize,
        users: users / scale_div,
        regions: 4,
        racks_per_region: racks,
        epochs: 48,
        seed,
        load,
        outage: false,
        budget: par::Budget::serial(),
        ..EdgeConfig::default()
    }
}

/// The simulated outcome of one edge run. A reply past the 100 ms user
/// deadline is an invariant violation, so the requests that met QoS are
/// exactly the replies.
pub fn outcome(report: &EdgeReport) -> SimOutcome {
    SimOutcome {
        submitted: report.submitted,
        replies: report.replies,
        failed: report.failed,
        served_share: ratio(report.replies, report.submitted),
        p50_ms: ms(report.qos_p50),
        p99_ms: ms(report.qos_p99),
        latency_samples: report.replies,
        qos_met_share: ratio(report.replies, report.submitted),
        peak_temp_c: report.peak_temp,
    }
}

/// Correctness problems of one edge run (empty when it passes).
pub fn check(report: &EdgeReport) -> Vec<String> {
    let mut problems: Vec<String> = report
        .violations
        .iter()
        .map(|v| format!("invariant: {v}"))
        .collect();
    if report.submitted == 0 {
        problems.push("edge submitted no requests".to_string());
    }
    if report.replies + report.failed != report.submitted {
        problems.push(format!(
            "conservation: {} replies + {} failed != {} submitted",
            report.replies, report.failed, report.submitted
        ));
    }
    if report.generated != report.submitted + report.truncated {
        problems.push(format!(
            "frontier: {} generated != {} submitted + {} truncated",
            report.generated, report.submitted, report.truncated
        ));
    }
    problems
}

/// Edge-sim's per-region tier configuration (`edge_sim::run` builds the
/// same one inline; keep the two in sync).
fn tier_config(config: &EdgeConfig) -> TierConfig {
    TierConfig {
        racks: config.racks_per_region,
        rack_serve: ServeConfig {
            devices: 4,
            workers: 4,
            max_batch: 32,
            queue_capacity: 512,
            policy_cache: 512,
            ..ServeConfig::default()
        },
        regional_serve: ServeConfig {
            devices: 8,
            workers: 8,
            max_batch: 64,
            queue_capacity: 2_048,
            policy_cache: 2_048,
            ..ServeConfig::default()
        },
        hedge_min: SimDuration::from_millis(5),
        breaker_threshold: 2,
        breaker_cooldown: 3,
        regional_rtt: config.network.regional_rtt(),
        ..TierConfig::default()
    }
}

/// Result of the replica's one region.
#[derive(Debug, Clone)]
pub struct ReplicaReport {
    /// Boards of the replicated region.
    pub boards: usize,
    /// Tier counters at the end of the run.
    pub stats: TierStats,
    /// Breaker transitions drained over the run.
    pub breaker_transitions: u64,
    /// Requests whose delivery fell past the horizon.
    pub truncated: u64,
    /// Correctness problems (empty when the run passes).
    pub problems: Vec<String>,
}

struct Planned {
    rack: usize,
    board: usize,
    delivered_at: SimTime,
    deadline: SimTime,
    payload_seed: u64,
}

/// A payload as a pure function of its seed (one row of `width`).
fn payload(seed: u64, width: usize) -> Matrix {
    let flat = (0..width)
        .map(|i| {
            let draw = sim_core::splitmix64(seed ^ ((i as u64) << 1));
            (draw % 2_000) as f32 / 1_000.0 - 1.0
        })
        .collect();
    Matrix::from_flat(1, width, flat)
}

/// Expected requests in region 0 in `epoch`: edge-sim's rate model —
/// `load × boards × zipf skew × diurnal × flash` — for the busiest
/// region, which the regional skew and the flash crowd both favour.
fn region0_demand(config: &EdgeConfig, boards: usize, epoch: u64) -> f64 {
    let zipf = |r: usize| ((r + 1) as f64).powf(-config.regional_skew);
    let total: f64 = (0..config.regions).map(zipf).sum();
    let skew = zipf(0) * config.regions as f64 / total;
    let phase = epoch as f64 / edge_sim::frontier::EPOCHS_PER_DAY as f64;
    let diurnal = 1.0 + config.diurnal_amplitude * (std::f64::consts::TAU * phase).sin();
    let flash = match config.flash {
        Some(crowd) if crowd.region == 0 && crowd.active(epoch, config.epochs) => crowd.multiplier,
        _ => 1.0,
    };
    (config.load * boards as f64 * skew * diurnal * flash).max(0.0)
}

/// Drives region 0's `TieredService` for `config.epochs` epochs at the
/// workload's rate, from the replica's own seeded schedule (uniform
/// offsets and home boards), charging each layer's calls to its span.
pub fn replica(config: &EdgeConfig, tracer: &mut Tracer) -> ReplicaReport {
    let boards = config.boards / config.regions;
    let racks = config.racks_per_region;
    let network = config.network;
    let epoch_ns = config.epoch.as_nanos();
    let downlink = network.downlink();
    let stream = sim_core::mix64(config.seed ^ 0x7065_7266_6265_6e63); // "perfbenc"

    // Plan: seeded arrivals pushed through the per-rack FIFO uplinks,
    // bucketed by delivery epoch.
    let mut uplinks = vec![FifoLink::new(network.edge); racks];
    let mut buckets: Vec<Vec<Planned>> = (0..config.epochs).map(|_| Vec::new()).collect();
    let mut truncated = 0u64;
    let mut draw = 0u64;
    let mut next = || {
        draw += 1;
        sim_core::mix_indexed(stream, draw)
    };
    for epoch in 0..config.epochs {
        let base = SimTime::from_nanos(epoch * epoch_ns);
        let expected = region0_demand(config, boards, epoch);
        let frac = (next() >> 11) as f64 / (1u64 << 53) as f64;
        let count = (expected + frac).floor() as u64;
        let mut arrivals: Vec<(u64, usize, u64)> = (0..count)
            .map(|_| {
                let offset = next() % epoch_ns;
                let board = (next() % boards as u64) as usize;
                (offset, board, next())
            })
            .collect();
        arrivals.sort_unstable();
        for (offset, board, payload_seed) in arrivals {
            let at = base + SimDuration::from_nanos(offset);
            let rack = board % racks;
            let wire = tracer.time(SPAN_UPLINK, || {
                uplinks[rack].send(at, network.request_bytes)
            });
            let jitter = next() % (network.jitter.as_nanos() + 1);
            let delivered_at = wire + SimDuration::from_nanos(jitter);
            let delivery_epoch = delivered_at.as_nanos() / epoch_ns;
            if delivery_epoch >= config.epochs {
                truncated += 1;
                continue;
            }
            buckets[delivery_epoch as usize].push(Planned {
                rack,
                board,
                delivered_at,
                deadline: at + config.qos_deadline - downlink,
                payload_seed,
            });
        }
    }

    let mlp = Mlp::with_topology(
        12,
        2,
        16,
        4,
        &mut StdRng::seed_from_u64(sim_core::mix_indexed(config.seed, 0)),
    );
    let width = mlp.input_size();
    let mut service = TieredService::new(&mlp, tier_config(config));
    let mut problems = Vec::new();
    let mut breaker_transitions = 0u64;
    let mut submitted = 0u64;
    for (epoch, mut bucket) in buckets.into_iter().enumerate() {
        bucket.sort_by_key(|p| p.delivered_at);
        let mut tickets = Vec::with_capacity(bucket.len());
        for p in &bucket {
            let rows = payload(p.payload_seed, width);
            let submit = TierSubmit {
                rack: p.rack,
                client: ClientId::new(p.board as u64),
                deadline: Some(p.deadline),
            };
            let ticket = tracer
                .time(SPAN_SUBMIT, || service.submit(rows, p.delivered_at, submit))
                .expect("replica payloads are valid");
            submitted += 1;
            tickets.push(ticket);
        }
        let barrier = SimTime::from_nanos((epoch as u64 + 1) * epoch_ns);
        tracer.time(SPAN_FLUSH, || service.flush(barrier));
        for (ticket, p) in tickets.into_iter().zip(&bucket) {
            match tracer.time(SPAN_TAKE, || service.take_outcome(ticket)) {
                Some(TierOutcome::Reply(reply)) if reply.completed_at > p.deadline => problems
                    .push(format!(
                        "late reply: completed {} past deadline {}",
                        reply.completed_at, p.deadline
                    )),
                Some(_) => {}
                None => problems.push(format!(
                    "request delivered at {} has no outcome",
                    p.delivered_at
                )),
            }
        }
        breaker_transitions += service.drain_transitions().len() as u64;
    }
    let stats = *service.stats();
    if stats.submitted != submitted || stats.replies + stats.failed != stats.submitted {
        problems.push(format!(
            "conservation: {} replies + {} failed vs {} submitted ({} by the replica)",
            stats.replies, stats.failed, stats.submitted, submitted
        ));
    }
    ReplicaReport {
        boards,
        stats,
        breaker_transitions,
        truncated,
        problems,
    }
}
