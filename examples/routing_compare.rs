//! GPSR routing quality across planar topologies.
//!
//! GPSR needs a planar graph for its perimeter mode. Karp & Kung ran it
//! on RNG and Gabriel subgraphs; the paper's point is that a planar
//! *spanner* backbone gives shorter routes with bounded node degree.
//! This example routes all sampled pairs over RNG, GG and LDel(ICDS')
//! and compares delivery, hops and path length.
//!
//! ```text
//! cargo run --release --example routing_compare
//! ```

use geospan::core::routing::{backbone_route, gpsr_route, Route};
use geospan::core::{BackboneBuilder, BackboneConfig};
use geospan::graph::gen::connected_unit_disk;
use geospan::graph::paths::{bfs_hops, dijkstra_lengths};
use geospan::graph::Graph;
use geospan::topology::{gabriel, relative_neighborhood};

struct Tally {
    delivered: usize,
    total: usize,
    hops: f64,
    hop_opt: f64,
    length: f64,
    len_opt: f64,
}

impl Tally {
    fn new() -> Self {
        Tally {
            delivered: 0,
            total: 0,
            hops: 0.0,
            hop_opt: 0.0,
            length: 0.0,
            len_opt: 0.0,
        }
    }

    fn add(&mut self, g: &Graph, route: &Route, opt_hops: u32, opt_len: f64) {
        self.total += 1;
        if route.delivered() {
            self.delivered += 1;
            self.hops += route.hops() as f64;
            self.length += route.length(g);
            self.hop_opt += f64::from(opt_hops);
            self.len_opt += opt_len;
        }
    }

    fn print(&self, name: &str) {
        println!(
            "{:<14} delivery {:>5.1}%   avg hops {:>6.2} ({:.2}x optimal)   avg length {:>7.1} ({:.2}x optimal)",
            name,
            100.0 * self.delivered as f64 / self.total as f64,
            self.hops / self.delivered as f64,
            self.hops / self.hop_opt,
            self.length / self.delivered as f64,
            self.length / self.len_opt,
        );
    }
}

fn main() {
    let (_pts, udg, _seed) = connected_unit_disk(120, 220.0, 60.0, 17);
    let n = udg.node_count();
    let rng = relative_neighborhood(&udg);
    let gg = gabriel(&udg);
    let backbone = BackboneBuilder::new(BackboneConfig::new(60.0))
        .build(&udg)
        .expect("valid UDG");

    println!(
        "network: {n} nodes | RNG {} edges, GG {} edges, LDel(ICDS) {} edges",
        rng.edge_count(),
        gg.edge_count(),
        backbone.ldel_icds().edge_count()
    );

    let mut t_rng = Tally::new();
    let mut t_gg = Tally::new();
    let mut t_bb = Tally::new();

    for s in (0..n).step_by(3) {
        let opt_hops = bfs_hops(&udg, s);
        let opt_len = dijkstra_lengths(&udg, s);
        for t in (1..n).step_by(5) {
            if s == t {
                continue;
            }
            let (oh, ol) = (
                opt_hops[t].expect("connected"),
                opt_len[t].expect("connected"),
            );
            t_rng.add(&rng, &gpsr_route(&rng, s, t, 100 * n), oh, ol);
            t_gg.add(&gg, &gpsr_route(&gg, s, t, 100 * n), oh, ol);
            let route = backbone_route(&backbone, &udg, s, t, 100 * n);
            t_bb.add(backbone.ldel_icds_prime(), &route, oh, ol);
        }
    }

    println!("\nGPSR over each planar topology ({} pairs):", t_rng.total);
    t_rng.print("RNG");
    t_gg.print("GG");
    t_bb.print("LDel(ICDS')");
    println!(
        "\nThe backbone routes stay close to optimal while forwarding state and \
         node degree remain bounded — the paper's trade."
    );
}
