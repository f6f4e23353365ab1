//! The optimized construction pipeline must equal the paper's
//! definitions — `LDel¹` as Li, Calinescu & Wan define it
//! ([`ldel::ldel_k`] with `k = 1`) and Algorithm 3 over all triangle
//! pairs ([`ldel::planarize_by_definition`]) — and be bit-identical
//! across thread counts.

use geospan_graph::gen::{connected_unit_disk, perturbed_grid, UnitDiskBuilder};
use geospan_graph::planarity::crossing_count;
use geospan_graph::stretch::{stretch_factors, StretchOptions};
use geospan_graph::Graph;
use geospan_topology::ldel;

fn assert_pipeline_matches_definition(udg: &Graph, label: &str) {
    let raw = ldel::ldel1(udg);
    let def = ldel::ldel_k(udg, 1);
    assert_eq!(raw.triangles, def.triangles, "{label}: triangles");
    assert_eq!(
        raw.gabriel_edges, def.gabriel_edges,
        "{label}: gabriel edges"
    );
    assert_eq!(
        raw.graph.edges().collect::<Vec<_>>(),
        def.graph.edges().collect::<Vec<_>>(),
        "{label}: LDel1 edges"
    );
    assert_eq!(
        ldel::planarized(udg),
        ldel::planarize_by_definition(udg, raw),
        "{label}: PLDel"
    );
}

/// FNV-1a-64 over the little-endian `u64` encoding of each index.
fn fnv1a64(indices: impl IntoIterator<Item = usize>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for i in indices {
        for b in (i as u64).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn optimized_pipeline_matches_definition_on_random_instances() {
    for seed in 0..5 {
        let (_pts, udg, _s) = connected_unit_disk(80, 180.0, 55.0, seed * 17 + 1);
        assert_pipeline_matches_definition(&udg, &format!("random seed {seed}"));
    }
}

#[test]
fn optimized_pipeline_matches_definition_on_degenerate_layouts() {
    // Lightly jittered grid: near-degenerate circumcircles.
    let pts = perturbed_grid(9, 9, 20.0, 0.01, 4);
    let udg = UnitDiskBuilder::new(45.0).build(&pts);
    assert_pipeline_matches_definition(&udg, "jittered grid");

    // A single line of nodes: no triangles at all.
    let pts: Vec<_> = (0..15)
        .map(|i| geospan_graph::Point::new(i as f64 * 10.0, 5.0))
        .collect();
    let udg = UnitDiskBuilder::new(25.0).build(&pts);
    assert_pipeline_matches_definition(&udg, "collinear line");
}

/// Exact grid (jitter 0): massive collinearity and cocircularity, the
/// worst case for the exact predicates and for tie-breaking. The local
/// triangulations keep one diagonal per square where the definition
/// accepts both, so `LDel¹` is pinned as a subset of the definition plus
/// golden digests of its triangles and of `PLDel`'s edges (recorded when
/// the pipeline was still checked against the frozen seed pipeline).
#[test]
fn exact_grid_matches_definition_and_golden_digests() {
    let pts = perturbed_grid(9, 9, 20.0, 0.0, 3);
    let udg = UnitDiskBuilder::new(45.0).build(&pts);
    let raw = ldel::ldel1(&udg);
    let def = ldel::ldel_k(&udg, 1);
    assert!(
        raw.triangles.iter().all(|t| def.triangles.contains(t)),
        "LDel1 triangles must satisfy the definition"
    );
    assert_eq!(raw.gabriel_edges, def.gabriel_edges, "gabriel edges");

    let pl = ldel::planarized(&udg);
    assert_eq!(
        pl,
        ldel::planarize_by_definition(&udg, raw.clone()),
        "PLDel"
    );

    assert_eq!(raw.triangles.len(), 64);
    assert_eq!(
        fnv1a64(raw.triangles.iter().flatten().copied()),
        0x531f_9dc1_11c6_5365,
        "LDel1 triangles digest"
    );
    let edges: Vec<(usize, usize)> = pl.graph.edges().collect();
    assert_eq!(edges.len(), 208);
    assert_eq!(
        fnv1a64(edges.iter().flat_map(|&(u, v)| [u, v])),
        0xcd20_8ed2_a098_aaa5,
        "PLDel edges digest"
    );
}

/// Thread-count determinism. One test owns every `RAYON_NUM_THREADS`
/// mutation (tests in one binary share the process environment, so the
/// settings must not race with other tests reading it).
#[test]
fn results_are_bit_identical_across_thread_counts() {
    let (_pts, udg, _s) = connected_unit_disk(120, 220.0, 55.0, 7);
    let sub = ldel::planarized(&udg).graph.clone();

    let run = || {
        (
            ldel::ldel1(&udg),
            ldel::planarized(&udg),
            stretch_factors(&udg, &sub, StretchOptions::default()),
            crossing_count(&udg),
        )
    };

    std::env::set_var("RAYON_NUM_THREADS", "1");
    let serial = run();
    std::env::set_var("RAYON_NUM_THREADS", "4");
    let four = run();
    std::env::remove_var("RAYON_NUM_THREADS");
    let auto = run();

    assert_eq!(serial.0, four.0, "ldel1: 1 vs 4 threads");
    assert_eq!(serial.1, four.1, "planarized: 1 vs 4 threads");
    assert_eq!(serial.2, four.2, "stretch: 1 vs 4 threads");
    assert_eq!(serial.3, four.3, "crossing count: 1 vs 4 threads");
    assert_eq!(serial.0, auto.0, "ldel1: 1 vs auto threads");
    assert_eq!(serial.2, auto.2, "stretch: 1 vs auto threads");

    // The same at n = 10k (bench calibration: side 200·√(n/100), radius
    // 60), where the rayon stub actually splits the id range and any
    // order-dependence in the arena-backed construction would surface.
    // Stretch is omitted: all-pairs searches don't finish at this size.
    let (_pts, big, _s) = connected_unit_disk(10_000, 2000.0, 60.0, 11);
    let run_big = || {
        (
            ldel::ldel1(&big),
            ldel::planarized(&big),
            crossing_count(&big),
        )
    };

    std::env::set_var("RAYON_NUM_THREADS", "1");
    let serial = run_big();
    std::env::set_var("RAYON_NUM_THREADS", "4");
    let four = run_big();
    std::env::remove_var("RAYON_NUM_THREADS");

    assert_eq!(serial.0, four.0, "ldel1 @10k: 1 vs 4 threads");
    assert_eq!(serial.1, four.1, "planarized @10k: 1 vs 4 threads");
    assert_eq!(serial.2, four.2, "crossing count @10k: 1 vs 4 threads");
}
