//! Output hashes pinned to values recorded from a reference build.
//!
//! The ci.sh gates diff a run against itself (threads 1 vs 4, event vs
//! lockstep driver), so a change that shifts every side the same way
//! slips through them. These tests compare the FNV-64 hash of the edge
//! and fleet CSVs against constants recorded before the hot-path
//! rewrites of the hedge quantile, the serve worker pool and the platform
//! tick (CHANGES.md names the commit they were taken from). A mismatch
//! means an output byte moved: if that is intended, re-record the value
//! and say why in CHANGES.md.

use bench::csv::{edge_csv, fleet_csv};
use bench::fleet::{self, FleetConfig};
use edge_sim::EdgeConfig;
use trace::Fnv64;

fn fnv(text: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(text.as_bytes());
    h.finish()
}

/// The ci.sh edge-gate run: 1k boards, 8 racks per region, 24 epochs,
/// seed 11.
#[test]
fn edge_gate_csv_matches_the_pinned_hash() {
    let config = EdgeConfig {
        boards: 1_000,
        racks_per_region: 8,
        epochs: 24,
        seed: 11,
        ..EdgeConfig::default()
    };
    let csv = edge_csv(&edge_sim::run(&config));
    assert_eq!(fnv(&csv), 0xa7a4_fd06_6e7d_00c6, "edge CSV moved:\n{csv}");
}

/// A small closed-loop fleet: 8 boards x 40 epochs of platform ticks,
/// TOP-IL governors and the shared service.
#[test]
fn small_fleet_csv_matches_the_pinned_hash() {
    let config = FleetConfig {
        boards: 8,
        epochs: 40,
        ..FleetConfig::default()
    };
    let csv = fleet_csv(&fleet::run(&config));
    assert_eq!(fnv(&csv), 0x7d82_123a_961e_8073, "fleet CSV moved:\n{csv}");
}
