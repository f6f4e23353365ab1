//! The paper's motivating scenario: a sensor field reporting to a static
//! sink.
//!
//! Every sensor periodically sends a reading to the sink node. Flooding
//! delivers it at the cost of one transmission per node *per reading*;
//! dominating-set-based routing over the planar backbone delivers it
//! along a short path. This example quantifies the difference.
//!
//! ```text
//! cargo run --release --example sensor_network
//! ```

use geospan::core::routing::{backbone_route, flood_transmissions};
use geospan::core::{BackboneBuilder, BackboneConfig};
use geospan::graph::gen::connected_unit_disk;
use geospan::graph::paths::bfs_hops;

fn main() {
    let (points, udg, _seed) = connected_unit_disk(150, 250.0, 60.0, 9);
    let n = udg.node_count();

    // The sink: the node closest to the field's corner (a base station).
    let sink = (0..n)
        .min_by(|&a, &b| points[a].norm_sq().total_cmp(&points[b].norm_sq()))
        .expect("the deployment is non-empty");
    println!(
        "sensor field: {n} nodes, sink = node {sink} at {}",
        points[sink]
    );

    let backbone = BackboneBuilder::new(BackboneConfig::new(60.0))
        .build(&udg)
        .expect("valid UDG");

    // Route a reading from every sensor to the sink.
    let mut total_hops = 0usize;
    let mut worst_hops = 0usize;
    let mut total_optimal = 0u64;
    let mut delivered = 0usize;
    let optimal = bfs_hops(&udg, sink);
    #[allow(clippy::needless_range_loop)]
    for s in 0..n {
        if s == sink {
            continue;
        }
        let route = backbone_route(&backbone, &udg, s, sink, 50 * n);
        assert!(route.delivered(), "sensor {s} failed to reach the sink");
        delivered += 1;
        total_hops += route.hops();
        worst_hops = worst_hops.max(route.hops());
        total_optimal += u64::from(optimal[s].expect("connected"));
    }
    let avg_hops = total_hops as f64 / delivered as f64;
    let avg_opt = total_optimal as f64 / delivered as f64;
    println!("backbone routing: all {delivered} readings delivered");
    println!(
        "  avg {avg_hops:.2} hops (shortest possible {avg_opt:.2}, overhead {:.1}%), worst {worst_hops}",
        100.0 * (avg_hops / avg_opt - 1.0)
    );

    // Compare transmission counts for one round of readings.
    let flood: usize = (0..n)
        .filter(|&s| s != sink)
        .map(|s| flood_transmissions(&udg, s))
        .sum();
    println!(
        "transmissions for one full round: flooding {} vs backbone routing {}  ({:.0}x saving)",
        flood,
        total_hops,
        flood as f64 / total_hops as f64
    );

    // The backbone keeps only a fraction of the nodes busy forwarding.
    let backbone_nodes = backbone.backbone_nodes().len();
    println!(
        "forwarding load is carried by the {backbone_nodes} backbone nodes ({:.0}% of the field)",
        100.0 * backbone_nodes as f64 / n as f64
    );
}
