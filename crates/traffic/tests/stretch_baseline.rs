//! The per-packet stretch baseline, recomputed from the outside.
//!
//! The engine measures every delivered packet's hop and length stretch
//! against shortest paths in the UDG in one batched pass. These tests
//! replay the same accounting one query at a time through
//! `DistanceOracle`, in slot order, and require the report's stretch
//! fields to match bit for bit — including under churn, where a pair
//! the static home-position UDG does not connect has no baseline and is
//! skipped.

use geospan_graph::gen::{connected_unit_disk, UnitDiskBuilder};
use geospan_graph::paths::DistanceOracle;
use geospan_graph::{Graph, Point};
use geospan_sim::{ChurnEvent, ChurnPlan, FaultPlan, ReliabilityConfig, TimedChurn};
use geospan_topology::gabriel;
use geospan_traffic::{
    run, Arrival, ChurnEngine, Forwarding, RepairStrategy, TrafficConfig, TrafficOutcome, Workload,
};

/// The report's four stretch fields, recomputed query by query, plus
/// the number of delivered pairs `udg` does not connect.
fn replay_stretch(udg: &Graph, out: &TrafficOutcome) -> ([f64; 4], usize) {
    let mut oracle = DistanceOracle::new(udg);
    let (mut hop_sum, mut hop_max, mut len_sum, mut len_max) = (0.0, 0.0f64, 0.0, 0.0f64);
    let (mut pairs, mut unconnected) = (0usize, 0usize);
    for p in out
        .packets
        .iter()
        .filter(|p| p.delivered() && p.src != p.dst)
    {
        let (Some(best_hops), Some(best_len)) =
            (oracle.hops(p.src, p.dst), oracle.length(p.src, p.dst))
        else {
            unconnected += 1;
            continue;
        };
        let hs = f64::from(p.hops) / f64::from(best_hops.max(1));
        let ls = if best_len > 0.0 {
            p.length / best_len
        } else {
            1.0
        };
        hop_sum += hs;
        hop_max = hop_max.max(hs);
        len_sum += ls;
        len_max = len_max.max(ls);
        pairs += 1;
    }
    let avg = |sum: f64| if pairs == 0 { 0.0 } else { sum / pairs as f64 };
    ([avg(hop_sum), hop_max, avg(len_sum), len_max], unconnected)
}

/// Asserts the report's stretch fields equal the replay's, bit for bit.
fn assert_stretch_matches(udg: &Graph, out: &TrafficOutcome) -> usize {
    let (expected, unconnected) = replay_stretch(udg, out);
    let r = &out.report;
    let got = [
        r.hop_stretch_avg,
        r.hop_stretch_max,
        r.length_stretch_avg,
        r.length_stretch_max,
    ];
    for (name, (g, e)) in ["hop_avg", "hop_max", "length_avg", "length_max"]
        .iter()
        .zip(got.iter().zip(&expected))
    {
        assert_eq!(g.to_bits(), e.to_bits(), "{name}: engine {g} vs replay {e}");
    }
    unconnected
}

#[test]
fn static_runs_match_a_query_by_query_replay() {
    for seed in [1u64, 7, 23] {
        let (pts, udg, _used) = connected_unit_disk(80, 160.0, 45.0, seed);
        let planar = gabriel(&UnitDiskBuilder::new(45.0).build(&pts));
        let n = udg.node_count();
        for workload in [
            Workload::uniform(0.6, 400),
            Workload::hotspot(3, 0.7, 0.6, 400),
        ] {
            let arrivals = workload.generate(n, seed);
            let cfg = TrafficConfig {
                max_hops: (50 * n) as u32,
                reliability: Some(ReliabilityConfig::default()),
                ..TrafficConfig::default()
            };
            let faults = FaultPlan::new(seed).with_loss(0.05);
            let out = run(&Forwarding::Gpsr(&planar), &udg, &arrivals, &faults, &cfg);
            assert!(out.report.delivered > 0, "seed {seed}: nothing delivered");
            assert!(out.report.hop_stretch_avg >= 1.0);
            assert_eq!(
                assert_stretch_matches(&udg, &out),
                0,
                "a static UDG connects every delivered pair"
            );
        }
    }
}

/// A 6-node chain whose node 3 starts far off the line and moves into
/// the gap at tick 2 (a move that breaks no link keeps the topology);
/// at tick 3 a spur node 6 breaks its link to node 0, and the repair
/// re-elects the backbone over the closed chain. Node 3's home position
/// leaves the home UDG split, so 0 → 5 packets delivered over the
/// repaired chain have no baseline and are skipped, while 0 → 2
/// packets are measured.
#[test]
fn churn_skips_pairs_the_home_udg_does_not_connect() {
    let mut pts: Vec<Point> = (0..6).map(|i| Point::new(i as f64 * 2.0, 0.0)).collect();
    pts[3] = Point::new(6.0, 40.0);
    pts.push(Point::new(0.0, 2.0));
    let moves = [(2, 3, Point::new(6.0, 0.0)), (3, 6, Point::new(0.0, 2.6))];
    let plan = ChurnPlan::new(
        7,
        moves
            .iter()
            .map(|&(tick, node, to)| TimedChurn {
                tick,
                event: ChurnEvent::Move { node, to },
            })
            .collect(),
    );
    let arrivals: Vec<Arrival> = (5..25)
        .map(|time| Arrival {
            time,
            src: 0,
            dst: if time % 2 == 0 { 5 } else { 2 },
        })
        .collect();
    let cfg = TrafficConfig::default();
    // A full rebuild re-elects the backbone over the moved node; 2
    // shards on 2 threads exercise the threaded driver as well.
    let out = ChurnEngine::new(2)
        .with_threads(2)
        .run(
            &pts,
            2.5,
            &plan,
            &arrivals,
            &FaultPlan::none(),
            &cfg,
            RepairStrategy::FullRebuild,
        )
        .expect("churn run");
    let home_udg = UnitDiskBuilder::new(2.5).build(&pts);
    let unconnected = assert_stretch_matches(&home_udg, &out.traffic);
    assert_eq!(out.traffic.report.delivered, arrivals.len());
    assert_eq!(unconnected, 10, "every 0 -> 5 packet lacks a home baseline");
    assert!(
        out.traffic.report.hop_stretch_avg >= 1.0,
        "0 -> 2 packets are measured"
    );
}
