//! `perfbench`: runs one workload (or all three), checks every run's
//! outputs, and prints the end-to-end metrics — or, with `--trace 1`, the
//! per-layer metrics — ending with one JSON result line.
//!
//! ```text
//! perfbench [--workload fleet|edge|edge_overload|all] [--seed <n>]
//!           [--seconds <s>] [--trace 0|1]
//! ```
//!
//! Exits 1 when any correctness check fails and 2 on bad arguments.

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::edge::{self, Shape};
use perfbench::fleet;
use perfbench::host::{self, HostDescriptor};
use perfbench::report::{correct, median, ms, ratio, result_line, Metric};
use perfbench::span::{SpanSummary, Tracer};
use perfbench::SimOutcome;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Timed repeats per run at least, however short `--seconds` is.
const MIN_REPEATS: u64 = 3;
/// Fleet size: boards × 500 ms epochs.
const FLEET_BOARDS: usize = 128;
const FLEET_EPOCHS: u64 = 25;
/// Boards and users of the edge warm-up are the workload's divided by
/// this.
const WARMUP_DIV: u64 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Fleet,
    Edge,
    EdgeOverload,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Fleet, Workload::Edge, Workload::EdgeOverload];

    fn name(self) -> &'static str {
        match self {
            Workload::Fleet => "fleet",
            Workload::Edge => "edge",
            Workload::EdgeOverload => "edge_overload",
        }
    }

    fn default_seed(self) -> u64 {
        match self {
            Workload::Fleet => fleet::DEFAULT_SEED,
            Workload::Edge | Workload::EdgeOverload => edge::DEFAULT_SEED,
        }
    }

    fn shape(self) -> Option<Shape> {
        match self {
            Workload::Fleet => None,
            Workload::Edge => Some(Shape::Nominal),
            Workload::EdgeOverload => Some(Shape::Overload),
        }
    }
}

struct Args {
    workloads: Vec<Workload>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench [--workload fleet|edge|edge_overload|all] [--seed <n>] \
                     [--seconds <s>] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: None,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        let bad = || format!("flag `{flag}` got a bad value `{value}`");
        match flag.as_str() {
            "--workload" => {
                args.workloads = match value.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    name => vec![*Workload::ALL
                        .iter()
                        .find(|w| w.name() == name)
                        .ok_or_else(bad)?],
                }
            }
            "--seed" => args.seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    host::single_malloc_arena();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let serve_workers = fleet::serve_workers(host::nproc());
    let mut descriptor = HostDescriptor::detect(Path::new("."), serve_workers);
    // The edge tier pools hand every dispatch to worker threads. Unpinned,
    // a repeat's wall time doubled whenever another process held the
    // second CPU, and its CPU time moved by ~10% with thread placement;
    // pinned, the workers share the main thread's CPU.
    descriptor.cpu = host::pin_to_one_cpu();
    let mut all_correct = true;
    for &workload in &args.workloads {
        let seed = args.seed.unwrap_or(workload.default_seed());
        println!(
            "== {} (seed {seed}, {}) ==",
            workload.name(),
            if args.trace {
                "traced per-layer run"
            } else {
                "end-to-end run"
            }
        );
        println!("{descriptor}");
        let run = match (args.trace, workload.shape()) {
            (false, None) => fleet_end_to_end(seed, args.seconds, serve_workers),
            (false, Some(shape)) => edge_end_to_end(shape, seed, args.seconds),
            (true, None) => fleet_traced(seed, serve_workers),
            (true, Some(shape)) => edge_traced(shape, seed),
        };
        for m in &run.metrics {
            println!("  {:<44} {:>18.6} {}", m.name, m.value, m.unit);
        }
        all_correct &= correct(run.ops.failed, &run.metrics);
        println!(
            "{}",
            result_line(run.ops.attempted, run.ops.failed, &run.metrics)
        );
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Checked operations of one run: set-ups, timed repeats, replica runs.
#[derive(Debug, Default, Clone, Copy)]
struct Ops {
    attempted: u64,
    failed: u64,
}

impl Ops {
    /// Counts one checked operation, reporting its problems on stderr.
    fn record(&mut self, what: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                eprintln!("CHECK FAILED ({what}): {p}");
            }
        }
    }
}

/// The operations of one run and its metrics.
struct Run {
    ops: Ops,
    metrics: Vec<Metric>,
}

/// Host CPU seconds this process has used, over all its threads; NaN
/// where the clock is unavailable, which fails the run.
///
/// Host metrics use CPU time, not wall time: on a shared host another
/// process on the benchmark's CPU stretches the wall time of a repeat (by
/// 2x under a busy loop) but its CPU time by under 10%.
fn cpu_seconds() -> f64 {
    host::cpu_time().map_or(f64::NAN, |d| d.as_secs_f64())
}

/// Runs `f`; returns its host CPU seconds, the same scaled to the
/// reference host speed, and its value. `speed` holds the host speed
/// measured just before `f` and is left holding the one measured just
/// after it; the scale is their mean, so each repeat is judged by the
/// host speed around it (see `host::host_speed`).
fn scaled_cpu<T>(speed: &mut f64, f: impl FnOnce() -> T) -> (f64, f64, T) {
    let c = cpu_seconds();
    let value = f();
    let cpu = cpu_seconds() - c;
    let after = host::host_speed();
    let scaled = cpu * (*speed + after) / 2.0;
    *speed = after;
    (cpu, scaled, value)
}

/// The five simulated metrics' bit patterns, for repeat identity.
fn sim_bits(o: &SimOutcome) -> [u64; 5] {
    [
        o.served_share.to_bits(),
        o.p50_ms.to_bits(),
        o.p99_ms.to_bits(),
        o.qos_met_share.to_bits(),
        o.peak_temp_c.to_bits(),
    ]
}

/// One timed repeat: its simulated outcome, problems and work done.
struct Repeat {
    outcome: SimOutcome,
    problems: Vec<String>,
    board_epochs: f64,
}

/// Runs `once` until `seconds` of timed phase have passed (and at least
/// [`MIN_REPEATS`] times), checking each repeat and its simulated
/// outcome's bit identity with the first. Returns the run's counts and
/// the medians of the passing repeats' rates per host CPU second at the
/// reference host speed.
fn timed_phase(
    seconds: f64,
    setup: Duration,
    mut ops: Ops,
    mut once: impl FnMut() -> Repeat,
) -> Run {
    let start = Instant::now();
    let mut first: Option<SimOutcome> = None;
    let (mut epoch_rates, mut request_rates, mut walls) = (Vec::new(), Vec::new(), Vec::new());
    let (mut raw_rates, mut speeds) = (Vec::new(), Vec::new());
    let mut speed = host::host_speed();
    let mut repeats = 0;
    // Start another repeat while it is expected to end within `seconds`.
    let mut longest = 0.0f64;
    while repeats < MIN_REPEATS || start.elapsed().as_secs_f64() + longest <= seconds {
        repeats += 1;
        let t = Instant::now();
        let (cpu, scaled, mut repeat) = scaled_cpu(&mut speed, &mut once);
        let wall = t.elapsed().as_secs_f64();
        longest = longest.max(wall);
        walls.push(format!("{wall:.3}/{cpu:.3}/{scaled:.3}"));
        match &first {
            None => first = Some(repeat.outcome),
            Some(f) if sim_bits(f) != sim_bits(&repeat.outcome) => repeat.problems.push(format!(
                "simulated metrics differ from the first repeat: {:?} vs {:?}",
                repeat.outcome, f
            )),
            Some(_) => {}
        }
        ops.record("timed repeat", &repeat.problems);
        if repeat.problems.is_empty() {
            epoch_rates.push(repeat.board_epochs / scaled);
            request_rates.push(repeat.outcome.submitted as f64 / scaled);
            raw_rates.push(repeat.board_epochs / cpu);
            speeds.push(scaled / cpu);
        }
    }
    let Some(o) = first.filter(|_| ops.failed == 0) else {
        return Run {
            ops,
            metrics: Vec::new(),
        };
    };
    println!(
        "  {} timed repeats in {:.1} s; {} requests per repeat ({} replies, {} typed failures)",
        epoch_rates.len(),
        start.elapsed().as_secs_f64(),
        o.submitted,
        o.replies,
        o.failed
    );
    println!(
        "  repeat host wall / CPU / CPU-at-reference-speed s: {}",
        walls.join(" ")
    );
    println!(
        "  median host speed {:.3} of reference; unscaled board_epochs_per_s {:.1}",
        median(&speeds),
        median(&raw_rates)
    );
    println!(
        "  sim_p50_ms / sim_p99_ms over {} latency samples",
        o.latency_samples
    );
    Run {
        ops,
        metrics: vec![
            Metric::new("setup_s", setup.as_secs_f64(), "s"),
            Metric::new("board_epochs_per_s", median(&epoch_rates), "1/s"),
            Metric::new("sim_requests_per_s", median(&request_rates), "1/s"),
            Metric::new("peak_rss_mb", host::peak_rss_mb().unwrap_or(f64::NAN), "MB"),
            Metric::new("served_share", o.served_share, "ratio"),
            Metric::new("sim_p50_ms", o.p50_ms, "sim_ms"),
            Metric::new("sim_p99_ms", o.p99_ms, "sim_ms"),
            Metric::new("qos_met_share", o.qos_met_share, "ratio"),
            Metric::new("peak_temp_c", o.peak_temp_c, "sim_degC"),
        ],
    }
}

/// Median host CPU time, at the reference host speed, of `SETUPS` calls
/// of `f`, each checked by `f` itself.
fn median_setup<T>(ops: &mut Ops, mut f: impl FnMut() -> (T, Vec<String>)) -> (Duration, T) {
    let mut times = Vec::new();
    let mut last = None;
    let mut speed = host::host_speed();
    for _ in 0..SETUPS {
        let (_, scaled, (value, problems)) = scaled_cpu(&mut speed, &mut f);
        times.push(scaled);
        ops.record("set-up", &problems);
        last = Some(value);
    }
    (
        Duration::from_secs_f64(median(&times)),
        last.expect("at least one set-up"),
    )
}

fn fleet_end_to_end(seed: u64, seconds: f64, serve_workers: usize) -> Run {
    // Set-up trains the deployed IL model; every training must agree.
    let mut ops = Ops::default();
    let mut reference = None;
    let (setup, model) = median_setup(&mut ops, || {
        let model = bench::fleet::fleet_model(fleet::MODEL_SEED);
        let reference = reference.get_or_insert_with(|| model.clone());
        let problems = if *reference == model {
            Vec::new()
        } else {
            vec!["model training is not deterministic".to_string()]
        };
        (model, problems)
    });
    let config = fleet::config(FLEET_BOARDS, FLEET_EPOCHS, seed, serve_workers);
    timed_phase(seconds, setup, ops, || {
        let report = bench::fleet::run_with_model(&model, &config);
        Repeat {
            outcome: fleet::outcome(&report),
            problems: fleet::check(&report),
            board_epochs: (config.boards as u64 * config.epochs) as f64,
        }
    })
}

fn edge_end_to_end(shape: Shape, seed: u64, seconds: f64) -> Run {
    // Set-up is a checked warm-up at reduced scale: the edge workload has
    // no model to train.
    let mut ops = Ops::default();
    let warmup = edge::config(shape, seed, WARMUP_DIV);
    let (setup, ()) = median_setup(&mut ops, || ((), edge::check(&edge_sim::run(&warmup))));
    let config = edge::config(shape, seed, 1);
    timed_phase(seconds, setup, ops, || {
        let report = edge_sim::run(&config);
        Repeat {
            outcome: edge::outcome(&report),
            problems: edge::check(&report),
            board_epochs: (config.boards as u64 * config.epochs) as f64,
        }
    })
}

/// Per-layer metrics of every span: calls, busy time, per-call quantiles.
fn span_metrics(summaries: &[SpanSummary]) -> Vec<Metric> {
    summaries
        .iter()
        .flat_map(|s| {
            [
                Metric::new(format!("{}.calls", s.name), s.calls as f64, "count"),
                Metric::new(format!("{}.busy_s", s.name), s.busy_s, "s"),
                Metric::new(format!("{}.p50_ns", s.name), s.p50_ns, "ns"),
                Metric::new(format!("{}.p99_ns", s.name), s.p99_ns, "ns"),
            ]
        })
        .collect()
}

/// Fleet-service counters (all zero where the workload has no fleet).
fn serve_metrics(stats: Option<&npu_serve::ServeStats>) -> Vec<Metric> {
    let (batches, mean_batch, rejected, wait_p99, hit_share) = match stats {
        Some(s) => (
            s.batches as f64,
            s.mean_batch_size(),
            s.rejected as f64,
            s.queue_wait_percentile(0.99).map_or(0.0, ms),
            ratio(s.cache_hits, s.cache_hits + s.cache_misses),
        ),
        None => (0.0, 0.0, 0.0, 0.0, 0.0),
    };
    vec![
        Metric::new("npu-serve.batches", batches, "count"),
        Metric::new("npu-serve.mean_batch", mean_batch, "requests"),
        Metric::new("npu-serve.rejected", rejected, "count"),
        Metric::new("npu-serve.queue_wait_p99_ms", wait_p99, "sim_ms"),
        Metric::new("npu.cache.hit_share", hit_share, "ratio"),
    ]
}

/// Tier counters (all zero where the workload has no tier).
fn tier_metrics(replica: Option<&edge::ReplicaReport>) -> Vec<Metric> {
    let zero = npu_serve::TierStats::default();
    let (s, transitions) = replica.map_or((&zero, 0), |r| (&r.stats, r.breaker_transitions));
    let counts = [
        ("rack_served", s.rack_served),
        ("regional_served", s.regional_served),
        ("cpu_served", s.cpu_served),
        ("failovers", s.failovers),
        ("failed", s.failed),
        ("hedges", s.hedges),
        ("hedges_infeasible", s.hedges_infeasible),
        ("breaker_transitions", transitions),
    ];
    let mut metrics: Vec<Metric> = counts
        .iter()
        .map(|&(name, n)| Metric::new(format!("npu-serve.tier.{name}"), n as f64, "count"))
        .collect();
    metrics.push(Metric::new(
        "npu-serve.tier.hedge_useful_share",
        ratio(s.hedge_wins, s.hedges),
        "ratio",
    ));
    metrics
}

/// Assembles the per-layer metric list in `BENCHMARK.json` order; spans
/// and counters a workload does not exercise read zero.
fn layer_metrics(
    fleet_spans: &Tracer,
    edge_spans: &Tracer,
    serve: Option<&npu_serve::ServeStats>,
    tier: Option<&edge::ReplicaReport>,
    traced_wall: Duration,
    untraced_wall: Duration,
) -> Vec<Metric> {
    let mut metrics = span_metrics(&fleet_spans.summaries());
    metrics.extend(span_metrics(&edge_spans.summaries()));
    metrics.extend(serve_metrics(serve));
    metrics.extend(tier_metrics(tier));
    let busy = fleet_spans.busy_total() + edge_spans.busy_total();
    metrics.push(Metric::new(
        "unattributed_s",
        traced_wall.as_secs_f64() - busy.as_secs_f64(),
        "s",
    ));
    metrics.push(Metric::new(
        "trace_overhead_share",
        traced_wall.as_secs_f64() / untraced_wall.as_secs_f64() - 1.0,
        "ratio",
    ));
    metrics
}

fn timed<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed(), out)
}

/// Runs `run` untraced and traced, twice each and alternating, so host
/// drift hits both alike. Returns the faster untraced and traced walls,
/// the faster traced run's spans and result, and whether every run
/// produced the same result (tracing only reads the clock).
fn traced_pair<R: std::fmt::Debug>(
    spans: &[&'static str],
    mut run: impl FnMut(&mut Tracer) -> R,
) -> (Duration, Duration, Tracer, R, bool) {
    let mut untraced_wall = Duration::MAX;
    let mut best: Option<(Duration, Tracer, R)> = None;
    let mut results = Vec::new();
    for _ in 0..2 {
        let (wall, result) = timed(|| run(&mut Tracer::new(spans, false)));
        untraced_wall = untraced_wall.min(wall);
        results.push(format!("{result:?}"));
        let mut tracer = Tracer::new(spans, true);
        let (wall, result) = timed(|| run(&mut tracer));
        results.push(format!("{result:?}"));
        if best.as_ref().is_none_or(|(w, _, _)| wall < *w) {
            best = Some((wall, tracer, result));
        }
    }
    let (traced_wall, tracer, result) = best.expect("two traced runs");
    let agree = results.iter().all(|r| *r == results[0]);
    (untraced_wall, traced_wall, tracer, result, agree)
}

fn fleet_traced(seed: u64, serve_workers: usize) -> Run {
    let mut ops = Ops::default();
    let model = bench::fleet::fleet_model(fleet::MODEL_SEED);
    let config = fleet::config(FLEET_BOARDS, FLEET_EPOCHS, seed, serve_workers);
    let (untraced_wall, traced_wall, spans, replica, agree) =
        traced_pair(&fleet::SPANS, |tracer| {
            fleet::replica(&model, &config, tracer)
        });
    let report = bench::fleet::run_with_model(&model, &config);

    let mut problems = fleet::replica_differences(&replica, &report);
    if !agree {
        problems.push("traced and untraced replicas disagree".to_string());
    }
    ops.record("fleet replica", &problems);
    ops.record("bench::fleet", &fleet::check(&report));
    println!(
        "  replica: {} submitted, {} served, p50 {} p99 {}, {} batches — equal to bench::fleet",
        replica.submitted, replica.served, replica.p50, replica.p99, replica.stats.batches
    );
    println!("  edge spans and tier counters are not exercised by this workload (zero)");
    let metrics = layer_metrics(
        &spans,
        &Tracer::new(&edge::SPANS, true),
        Some(&replica.stats),
        None,
        traced_wall,
        untraced_wall,
    );
    Run { ops, metrics }
}

fn edge_traced(shape: Shape, seed: u64) -> Run {
    let mut ops = Ops::default();
    let config = edge::config(shape, seed, 1);
    let (untraced_wall, traced_wall, spans, replica, agree) =
        traced_pair(&edge::SPANS, |tracer| edge::replica(&config, tracer));
    let report = edge_sim::run(&config);

    let mut problems = replica.problems.clone();
    if !agree {
        problems.push("traced and untraced replicas disagree".to_string());
    }
    ops.record("edge replica", &problems);
    ops.record("edge_sim::run", &edge::check(&report));

    let s = &replica.stats;
    let region = &report.regions[0];
    println!(
        "  TierStats, replica region ({} boards) vs edge_sim region 0 ({} boards):",
        replica.boards, region.boards
    );
    for (name, ours, theirs) in [
        ("submitted", s.submitted, region.submitted),
        ("replies", s.replies, region.replies),
        ("failed", s.failed, region.failed),
        ("rack_served", s.rack_served, region.rack_served),
        ("regional_served", s.regional_served, region.regional_served),
        ("cpu_served", s.cpu_served, region.cpu_served),
        ("failovers", s.failovers, region.failovers),
        ("hedges", s.hedges, region.hedges),
        (
            "hedges_infeasible",
            s.hedges_infeasible,
            region.hedges_infeasible,
        ),
        (
            "breaker_transitions",
            replica.breaker_transitions,
            region.breaker_transitions,
        ),
        ("truncated", replica.truncated, region.truncated),
    ] {
        println!("    {name:<20} {ours:>10} {theirs:>10}");
    }
    println!(
        "  edge-sim's frontier and request plan are crate-private, so they are not timed \
         from outside; unattributed_s here is the replica's own schedule and payload \
         generation"
    );
    println!(
        "  fleet spans and fleet-service counters are not exercised by this workload (zero); \
              TieredService does not expose its pools' cache counters"
    );
    let metrics = layer_metrics(
        &Tracer::new(&fleet::SPANS, true),
        &spans,
        None,
        Some(&replica),
        traced_wall,
        untraced_wall,
    );
    Run { ops, metrics }
}
