//! The shortest-path kernel (`PathIndex` + `PathScratch`) and its
//! batched front door `pair_distances` against the reference searches
//! `bfs_hops` and `dijkstra_lengths`, bit for bit.
//!
//! Inputs are unit disk graphs drawn to be awkward: radii small enough
//! to split the deployment into components, and repeated points that
//! become zero-length edges.

use geospan_graph::gen::{uniform_points, UnitDiskBuilder};
use geospan_graph::paths::{
    bfs_hops, dijkstra_lengths, pair_distances, DistanceOracle, PathIndex, PathScratch,
};
use geospan_graph::{Graph, Point};
use proptest::prelude::*;

/// A UDG over `n` uniform points in which the first `dups` points are
/// repeated (each copy joins its original by a zero-length edge).
fn awkward_udg() -> impl Strategy<Value = Graph> {
    (1usize..50, 0usize..6, 5.0f64..60.0, any::<u64>()).prop_map(|(n, dups, radius, seed)| {
        let mut pts = uniform_points(n, 100.0, seed);
        pts.extend_from_within(..dups.min(n));
        UnitDiskBuilder::new(radius).build(&pts)
    })
}

/// A length row as comparable bits.
fn bits(row: &[Option<f64>]) -> Vec<Option<u64>> {
    row.iter().map(|d| d.map(f64::to_bits)).collect()
}

/// The kernel's rows from `src`, in the reference's `Option` form.
fn kernel_rows(
    scratch: &mut PathScratch,
    index: &PathIndex,
    src: usize,
) -> (Vec<Option<u32>>, Vec<Option<f64>>) {
    scratch.bfs(index, src);
    scratch.dijkstra(index, src);
    let hops = scratch
        .hops()
        .iter()
        .map(|&h| (h != u32::MAX).then_some(h))
        .collect();
    let lens = scratch
        .lengths()
        .iter()
        .map(|&l| (l != f64::INFINITY).then_some(l))
        .collect();
    (hops, lens)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every row from every source, with one scratch reused throughout.
    #[test]
    fn kernel_rows_match_the_reference(g in awkward_udg()) {
        let index = PathIndex::new(&g);
        prop_assert_eq!(index.node_count(), g.node_count());
        let mut scratch = PathScratch::new();
        for src in 0..g.node_count() {
            let (hops, lens) = kernel_rows(&mut scratch, &index, src);
            prop_assert_eq!(hops, bfs_hops(&g, src), "hop row from {}", src);
            prop_assert_eq!(bits(&lens), bits(&dijkstra_lengths(&g, src)), "length row from {}", src);
        }
    }

    /// Random pairs, self-pairs included, answered in pair order; the
    /// lazy oracle agrees query by query.
    #[test]
    fn pair_distances_match_the_reference(
        g in awkward_udg(),
        raw in prop::collection::vec((any::<u64>(), any::<u64>()), 0..120),
    ) {
        let n = g.node_count() as u64;
        let mut pairs: Vec<(usize, usize)> =
            raw.iter().map(|&(a, b)| ((a % n) as usize, (b % n) as usize)).collect();
        pairs.push((0, 0));
        let got = pair_distances(&g, &pairs);
        prop_assert_eq!(got.len(), pairs.len());
        let mut oracle = DistanceOracle::new(&g);
        for (&(src, dst), &(hops, len)) in pairs.iter().zip(&got) {
            prop_assert_eq!(hops, bfs_hops(&g, src)[dst]);
            prop_assert_eq!(len.map(f64::to_bits), dijkstra_lengths(&g, src)[dst].map(f64::to_bits));
            prop_assert_eq!(oracle.hops(src, dst), hops);
            prop_assert_eq!(oracle.length(src, dst).map(f64::to_bits), len.map(f64::to_bits));
            if src == dst {
                prop_assert_eq!((hops, len), (Some(0), Some(0.0)));
            }
        }
    }
}

#[test]
fn empty_pair_lists_give_empty_answers() {
    let g = UnitDiskBuilder::new(30.0).build(&uniform_points(20, 100.0, 4));
    assert!(pair_distances(&g, &[]).is_empty());
    assert!(pair_distances(&Graph::new(Vec::new()), &[]).is_empty());
}

/// One scratch serves indexes of different sizes in turn.
#[test]
fn scratch_moves_between_graphs() {
    let small = UnitDiskBuilder::new(40.0).build(&uniform_points(10, 100.0, 1));
    let large = UnitDiskBuilder::new(40.0).build(&uniform_points(70, 100.0, 2));
    let mut scratch = PathScratch::new();
    for g in [&large, &small, &large] {
        let index = PathIndex::new(g);
        let (hops, lens) = kernel_rows(&mut scratch, &index, 3);
        assert_eq!(hops, bfs_hops(g, 3));
        assert_eq!(bits(&lens), bits(&dijkstra_lengths(g, 3)));
    }
}

/// Duplicate points: a zero-length edge gives its endpoints the same
/// length distance, one hop apart.
#[test]
fn zero_length_edges() {
    let p = Point::new(1.0, 2.0);
    let g = Graph::with_edges(vec![Point::ORIGIN, p, p], [(0, 1), (1, 2)]);
    let d = pair_distances(&g, &[(0, 1), (0, 2), (2, 1)]);
    let len = p.distance(Point::ORIGIN);
    assert_eq!(
        d,
        vec![
            (Some(1), Some(len)),
            (Some(2), Some(len)),
            (Some(1), Some(0.0))
        ]
    );
}

#[test]
#[should_panic(expected = "out of bounds")]
fn out_of_bounds_pairs_are_rejected() {
    let g = Graph::new(vec![Point::ORIGIN]);
    let _ = pair_distances(&g, &[(0, 1)]);
}
