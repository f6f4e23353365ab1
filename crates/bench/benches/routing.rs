//! Routing-cost benchmarks: the workloads the backbone exists to serve.
//!
//! Groups:
//! * `greedy` — pure greedy forwarding on the UDG,
//! * `gpsr` — greedy + perimeter on the planar Gabriel graph and on the
//!   planar backbone `LDel(ICDS)`,
//! * `backbone` — the paper's dominating-set-based routing end to end,
//! * `shortest_path` — the Dijkstra/BFS yardsticks used by the stretch
//!   measurements.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use geospan_core::routing::{backbone_route, gpsr_route, greedy_route};
use geospan_core::{BackboneBuilder, BackboneConfig};
use geospan_graph::gen::connected_unit_disk;
use geospan_graph::paths::{bfs_hops, dijkstra_lengths};
use geospan_topology::gabriel;

fn routing(c: &mut Criterion) {
    let (_pts, udg, _seed) = connected_unit_disk(100, 200.0, 60.0, 7);
    let gg = gabriel(&udg);
    let backbone = BackboneBuilder::new(BackboneConfig::new(60.0))
        .build(&udg)
        .expect("connected UDG builds");
    let n = udg.node_count();
    let pairs: Vec<(usize, usize)> = (0..n)
        .step_by(7)
        .flat_map(|s| (0..n).step_by(13).map(move |t| (s, t)))
        .filter(|(s, t)| s != t)
        .collect();

    let mut g = c.benchmark_group("routing");
    g.bench_function("greedy_udg", |b| {
        b.iter(|| {
            for &(s, t) in &pairs {
                black_box(greedy_route(&udg, s, t, 10 * n));
            }
        })
    });
    g.bench_function("gpsr_gabriel", |b| {
        b.iter(|| {
            for &(s, t) in &pairs {
                black_box(gpsr_route(&gg, s, t, 50 * n));
            }
        })
    });
    g.bench_function("gpsr_ldel_icds", |b| {
        let nodes = backbone.backbone_nodes();
        b.iter(|| {
            for (&s, &t) in nodes.iter().zip(nodes.iter().rev()) {
                black_box(gpsr_route(backbone.ldel_icds(), s, t, 50 * n));
            }
        })
    });
    g.bench_function("backbone_route", |b| {
        b.iter(|| {
            for &(s, t) in &pairs {
                black_box(backbone_route(&backbone, &udg, s, t, 50 * n));
            }
        })
    });
    g.finish();

    let mut g = c.benchmark_group("shortest_path");
    g.bench_function("dijkstra_all_sources", |b| {
        b.iter(|| {
            for s in 0..n {
                black_box(dijkstra_lengths(&udg, s));
            }
        })
    });
    g.bench_function("bfs_all_sources", |b| {
        b.iter(|| {
            for s in 0..n {
                black_box(bfs_hops(&udg, s));
            }
        })
    });
    g.finish();
}

criterion_group!(benches, routing);
criterion_main!(benches);
