//! The churn correctness spine: after every membership event, the
//! incrementally repaired backbone must equal a from-scratch rebuild on
//! the same node set, role-for-role and edge-for-edge.
//!
//! The oracle is [`MobileBackbone::rebuild_oracle`]: a full
//! reconstruction whose clustering ranks the dominators that survived
//! the event above everyone else (ties by lowest id) — exactly the
//! incumbency the incremental path preserves. After a full rebuild the
//! incremental state *is* the plain lowest-id construction, so those
//! events compare against `rebuild_oracle(&[])`.
//!
//! Traces are membership-only (joins and leaves, no moves): under the
//! paper's keep-while-unbroken policy a move may intentionally leave
//! elections stale, so exact oracle equality is only promised for
//! membership events.
//!
//! The smoke proptest below runs a handful of traces; the `#[ignore]`d
//! sweeps run 256 seeds per network size and are exercised in release
//! mode by the churn-smoke CI job.

use std::collections::BTreeSet;

use geospan_core::maintenance::{MaintenanceAction, MobileBackbone};
use geospan_core::{verify, Backbone, BackboneConfig};
use geospan_graph::gen::connected_unit_disk;
use geospan_graph::planarity::is_plane_embedding;
use geospan_sim::{ChurnEvent, ChurnMix, ChurnPlan};
use proptest::prelude::*;

/// Roles, election edges, and connector sets of two backbones coincide.
fn assert_same_structure(incremental: &Backbone, oracle: &Backbone, what: &str) {
    let a = incremental.cds_graphs();
    let b = oracle.cds_graphs();
    assert_eq!(a.roles, b.roles, "{what}: roles diverge from the oracle");
    assert_eq!(
        a.dominators, b.dominators,
        "{what}: dominators diverge from the oracle"
    );
    assert_eq!(
        a.connectors, b.connectors,
        "{what}: connectors diverge from the oracle"
    );
    let ea: Vec<_> = a.cds.edges().collect();
    let eb: Vec<_> = b.cds.edges().collect();
    assert_eq!(ea, eb, "{what}: election edges diverge from the oracle");
}

/// Replays a seeded membership-only churn trace against a
/// [`MobileBackbone`], checking oracle equality after **every** event.
fn check_trace(seed: u64, n: usize, events: usize) {
    let radius = 50.0;
    let side = if n <= 50 { 150.0 } else { 300.0 };
    let (pts, _udg, _s) = connected_unit_disk(n, side, radius, seed);
    let plan = ChurnPlan::generate(
        seed ^ 0x00c0_ffee,
        n,
        side,
        events,
        events as u64 * 2,
        ChurnMix::membership_only(),
    );
    // The universe holds every node that will ever exist; joiners start
    // out departed (parked) and power up at their scheduled position.
    let mut universe_pts = pts;
    for v in n..plan.universe() {
        universe_pts.push(plan.join_position(v).expect("joiners carry a position"));
    }
    let departed: BTreeSet<usize> = (n..plan.universe()).collect();
    let mut m = MobileBackbone::with_departed(universe_pts, BackboneConfig::new(radius), departed)
        .expect("initial build");
    assert_same_structure(m.backbone(), &m.rebuild_oracle(&[]), "initial build");

    for tick in plan.ticks() {
        for timed in plan.events_at(tick) {
            let incumbents = m.backbone().cds_graphs().dominators.clone();
            let (what, report) = match timed.event {
                ChurnEvent::Leave { node } => (
                    format!("seed {seed} n {n} tick {tick}: leave {node}"),
                    m.remove_node(node).expect("leave"),
                ),
                ChurnEvent::Join { node, position } => (
                    format!("seed {seed} n {n} tick {tick}: join {node}"),
                    m.rejoin_node(node, position).expect("join"),
                ),
                #[expect(
                    clippy::unreachable,
                    reason = "membership-only traces schedule no moves"
                )]
                ChurnEvent::Move { .. } => {
                    unreachable!("membership-only traces schedule no moves")
                }
            };
            // After a full rebuild the state is the plain lowest-id
            // construction; after a kept/local event the surviving
            // dominators are incumbents the oracle must rank first.
            let oracle = match report.action {
                MaintenanceAction::FullRebuild { .. } => m.rebuild_oracle(&[]),
                _ => m.rebuild_oracle(&incumbents),
            };
            assert_same_structure(m.backbone(), &oracle, &what);
        }
    }
    // End-of-trace: the paper's guarantees hold on the final structure.
    assert!(
        is_plane_embedding(m.backbone().ldel_icds()),
        "seed {seed}: final backbone is not a plane embedding"
    );
    assert!(
        verify(m.backbone(), m.udg(), radius).all_ok(),
        "seed {seed}: final backbone fails verification"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A quick randomized pass that always runs with the suite.
    #[test]
    fn incremental_repair_matches_rebuild_oracle(seed in 0u64..1 << 40) {
        check_trace(seed, 50, 60);
    }
}

/// 256-seed sweep at n = 50, 200 events per trace (churn-smoke CI job,
/// release mode).
#[test]
#[ignore = "long sweep; run with --release -- --ignored"]
fn oracle_sweep_small() {
    for seed in 0..256 {
        check_trace(seed, 50, 200);
    }
}

/// 256-seed sweep at n = 200, 200 events per trace (churn-smoke CI job,
/// release mode).
#[test]
#[ignore = "long sweep; run with --release -- --ignored"]
fn oracle_sweep_large() {
    for seed in 0..256 {
        check_trace(seed + 1_000_000, 200, 200);
    }
}
