//! Construction-cost benchmarks, one group per experiment pipeline:
//!
//! * `table1` — building each of the Table I topologies at the paper's
//!   configuration (n = 100, R = 60),
//! * `fig8_fig9` — the centralized backbone pipeline across the node
//!   counts of the density sweeps,
//! * `fig10` — the distributed (message-passing) construction whose
//!   communication costs Figure 10 reports,
//! * `fig11_fig12` — the n = 500 radius-sweep pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use geospan_bench::udg_of;
use geospan_cds::{build_cds, ClusterRank};
use geospan_core::{BackboneBuilder, BackboneConfig};
use geospan_graph::gen::connected_unit_disk;
use geospan_topology::{delaunay, gabriel, ldel, relative_neighborhood, yao};

fn table1_constructions(c: &mut Criterion) {
    let (pts, udg, _seed) = connected_unit_disk(100, 200.0, 60.0, 1);
    let mut g = c.benchmark_group("table1");
    g.bench_function("udg", |b| b.iter(|| black_box(udg_of(&pts, 60.0))));
    g.bench_function("rng", |b| b.iter(|| black_box(relative_neighborhood(&udg))));
    g.bench_function("gabriel", |b| b.iter(|| black_box(gabriel(&udg))));
    g.bench_function("yao6", |b| b.iter(|| black_box(yao(&udg, 6))));
    g.bench_function("delaunay", |b| b.iter(|| black_box(delaunay(&udg))));
    g.bench_function("ldel_planarized", |b| {
        b.iter(|| black_box(ldel::planarized(&udg)))
    });
    g.bench_function("cds_family", |b| {
        b.iter(|| black_box(build_cds(&udg, &ClusterRank::LowestId)))
    });
    g.bench_function("full_backbone", |b| {
        let builder = BackboneBuilder::new(BackboneConfig::new(60.0));
        b.iter(|| black_box(builder.build(&udg).expect("connected UDG builds")))
    });
    g.finish();
}

fn density_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig8_fig9");
    for n in [20usize, 60, 100] {
        let (_pts, udg, _seed) = connected_unit_disk(n, 200.0, 60.0, 2);
        let builder = BackboneBuilder::new(BackboneConfig::new(60.0));
        g.bench_with_input(BenchmarkId::new("backbone", n), &udg, |b, udg| {
            b.iter(|| black_box(builder.build(udg).expect("connected UDG builds")))
        });
    }
    g.finish();
}

fn distributed_construction(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig10");
    g.sample_size(20);
    for n in [40usize, 100] {
        let (_pts, udg, _seed) = connected_unit_disk(n, 200.0, 60.0, 3);
        let builder = BackboneBuilder::new(BackboneConfig::new(60.0).distributed());
        g.bench_with_input(BenchmarkId::new("protocol", n), &udg, |b, udg| {
            b.iter(|| black_box(builder.build(udg).expect("connected UDG builds")))
        });
    }
    g.finish();
}

fn radius_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig11_fig12");
    g.sample_size(10);
    for radius in [20.0f64, 40.0, 60.0] {
        let (_pts, udg, _seed) = connected_unit_disk(500, 200.0, radius, 4);
        let builder = BackboneBuilder::new(BackboneConfig::new(radius));
        g.bench_with_input(
            BenchmarkId::new("backbone_n500", radius as u64),
            &udg,
            |b, udg| b.iter(|| black_box(builder.build(udg).expect("connected UDG builds"))),
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    table1_constructions,
    density_sweep,
    distributed_construction,
    radius_sweep
);
criterion_main!(benches);
