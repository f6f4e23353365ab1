//! Everything built on the shortest-path kernel is bit-identical at one
//! and at four worker threads.
//!
//! The rayon stand-in re-reads `RAYON_NUM_THREADS` on every parallel
//! call, so this file holds a single test: it sets the variable itself,
//! with no other test running in the process.

use geospan_graph::diameter::{hop_diameter, length_diameter};
use geospan_graph::gen::{uniform_points, UnitDiskBuilder};
use geospan_graph::paths::pair_distances;
use geospan_graph::stretch::{stretch_factors, StretchOptions};
use geospan_graph::Graph;

/// Every kernel-backed result over `g`, as comparable bits.
fn fingerprint(g: &Graph) -> Vec<u64> {
    let n = g.node_count();
    let pairs: Vec<(usize, usize)> = (0..4 * n)
        .map(|i| ((i * 7) % n, (i * 13 + 5) % n))
        .collect();
    let mut out: Vec<u64> = pair_distances(g, &pairs)
        .into_iter()
        .flat_map(|(h, l)| {
            [
                h.map_or(u64::MAX, u64::from),
                l.map_or(u64::MAX, f64::to_bits),
            ]
        })
        .collect();
    let mut k = 0usize;
    let sub = g.filter_edges(|_, _| {
        k += 1;
        !k.is_multiple_of(3)
    });
    let r = stretch_factors(g, &sub, StretchOptions::default());
    out.extend([
        r.length_avg.to_bits(),
        r.length_max.to_bits(),
        r.hop_avg.to_bits(),
        r.hop_max.to_bits(),
        r.length_pairs as u64,
        r.hop_pairs as u64,
        r.disconnected_pairs as u64,
    ]);
    out.push(hop_diameter(g).map_or(u64::MAX, u64::from));
    out.push(length_diameter(g).map_or(u64::MAX, f64::to_bits));
    out
}

#[test]
fn kernel_results_do_not_depend_on_the_thread_count() {
    let graphs: Vec<Graph> = [(150, 10.0, 1u64), (200, 30.0, 2), (90, 60.0, 3)]
        .iter()
        .map(|&(n, radius, seed)| {
            let mut pts = uniform_points(n, 150.0, seed);
            pts.extend_from_within(..5); // zero-length edges
            UnitDiskBuilder::new(radius).build(&pts)
        })
        .collect();
    assert!(
        !graphs[0].is_connected(),
        "one input is split into components"
    );
    let saved = std::env::var("RAYON_NUM_THREADS").ok();
    let at = |threads: &str| -> Vec<Vec<u64>> {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        graphs.iter().map(fingerprint).collect()
    };
    let one = at("1");
    let four = at("4");
    match saved {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    assert_eq!(one, four);
}
