//! The traced replicas and the workload checks, at small size, on the
//! default seed and on a second seed.

use bench::fleet::{fleet_model, run_with_model_driver};
use hikey_platform::SimDriver;
use perfbench::edge::{self, Shape};
use perfbench::fleet;
use perfbench::span::Tracer;

/// A seed other than the workloads' default, so the checks are not
/// tuned to one input.
const SECOND_SEED: u64 = 11;

fn fleet_replica_matches_lockstep(seed: u64) {
    let model = fleet_model(fleet::MODEL_SEED);
    let config = fleet::config(6, 24, seed, 2);
    let reference = run_with_model_driver(&model, &config, SimDriver::Lockstep);
    assert!(
        reference.submitted > 0,
        "the small fleet must issue requests"
    );
    assert_eq!(fleet::check(&reference), Vec::<String>::new());

    let mut spans = Tracer::new(&fleet::SPANS, true);
    let traced = fleet::replica(&model, &config, &mut spans);
    assert_eq!(
        fleet::replica_differences(&traced, &reference),
        Vec::<String>::new()
    );
    assert_eq!(traced.mismatches, 0);

    // Tracing only reads the clock: the untraced replica is identical.
    let untraced = fleet::replica(&model, &config, &mut Tracer::new(&fleet::SPANS, false));
    assert_eq!(traced, untraced);

    let summaries = spans.summaries();
    let calls = |name: &str| summaries.iter().find(|s| s.name == name).unwrap().calls;
    assert_eq!(
        calls("hikey-platform.tick"),
        6 * 24 * 500,
        "500 ticks per board-epoch"
    );
    assert_eq!(calls("topil.prepare"), traced.submitted);
    assert_eq!(calls("npu-serve.take_reply"), traced.served);
    assert_eq!(calls("npu-serve.flush"), 24 + 1);
}

#[test]
fn fleet_replica_equals_lockstep_reference_default_seed() {
    fleet_replica_matches_lockstep(fleet::DEFAULT_SEED);
}

#[test]
fn fleet_replica_equals_lockstep_reference_second_seed() {
    fleet_replica_matches_lockstep(SECOND_SEED);
}

#[test]
fn fleet_outcome_is_repeatable_and_seed_dependent() {
    let model = fleet_model(fleet::DEFAULT_SEED);
    let config = fleet::config(4, 12, fleet::DEFAULT_SEED, 2);
    let a = fleet::outcome(&bench::fleet::run_with_model(&model, &config));
    let b = fleet::outcome(&bench::fleet::run_with_model(&model, &config));
    assert_eq!(a, b);
    let other = fleet::config(4, 12, SECOND_SEED, 2);
    let c = fleet::outcome(&bench::fleet::run_with_model(&model, &other));
    assert_ne!(a, c, "the seed must change the workload");
}

fn edge_checks_pass(shape: Shape, seed: u64) {
    let config = edge::config(shape, seed, 50);
    let report = edge_sim::run(&config);
    assert_eq!(edge::check(&report), Vec::<String>::new());
    let outcome = edge::outcome(&report);
    assert_eq!(outcome, edge::outcome(&edge_sim::run(&config)));
    assert!(outcome.served_share > 0.0 && outcome.served_share <= 1.0);
    assert!(outcome.p99_ms >= outcome.p50_ms);

    let mut spans = Tracer::new(&edge::SPANS, true);
    let replica = edge::replica(&config, &mut spans);
    assert_eq!(replica.problems, Vec::<String>::new());
    assert!(replica.stats.submitted > 0);
    let untraced = edge::replica(&config, &mut Tracer::new(&edge::SPANS, false));
    assert_eq!(format!("{replica:?}"), format!("{untraced:?}"));
    let summaries = spans.summaries();
    assert_eq!(summaries[1].name, "npu-serve.tier_submit");
    assert_eq!(summaries[1].calls, replica.stats.submitted);
    assert_eq!(summaries[2].calls, config.epochs);
}

#[test]
fn edge_checks_pass_default_seed() {
    edge_checks_pass(Shape::Nominal, edge::DEFAULT_SEED);
    edge_checks_pass(Shape::Overload, edge::DEFAULT_SEED);
}

#[test]
fn edge_checks_pass_second_seed() {
    edge_checks_pass(Shape::Nominal, SECOND_SEED);
    edge_checks_pass(Shape::Overload, SECOND_SEED);
}
