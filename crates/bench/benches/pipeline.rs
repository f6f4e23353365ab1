//! Criterion benchmarks for the construction pipeline.
//!
//! One group per pipeline stage, each parameterized over deployment size
//! at the paper's constant density (side `200·√(n/100)`, radius 60):
//!
//! * `udg_build` — unit disk graph construction from points,
//! * `ldel1` — the parallel local-triangulation stage,
//! * `planarized` — `LDel¹` plus the grid-indexed planarization,
//! * `crossing_count` — the grid-indexed crossing diagnostic,
//! * `cds_election` — clustering + gateway selection,
//! * `stretch` — all-pairs stretch measurement (smallest size only).
//!
//! `results/BENCH_pipeline.json` persists the same pipeline's timings
//! (see the `pipeline_speedup` binary).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use geospan_bench::udg_of;
use geospan_cds::{build_cds, ClusterRank};
use geospan_graph::gen::connected_unit_disk;
use geospan_graph::planarity::crossing_count;
use geospan_graph::stretch::{stretch_factors, StretchOptions};
use geospan_graph::{Graph, Point};
use geospan_topology::ldel;

const SIZES: [usize; 2] = [200, 1000];
const RADIUS: f64 = 60.0;

fn instance(n: usize) -> (Vec<Point>, Graph) {
    let side = 200.0 * ((n as f64) / 100.0).sqrt();
    let (pts, udg, _seed) = connected_unit_disk(n, side, RADIUS, 1);
    (pts, udg)
}

fn pipeline_stages(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline");
    g.sample_size(10);
    for n in SIZES {
        let (pts, udg) = instance(n);
        g.bench_with_input(BenchmarkId::new("udg_build", n), &pts, |b, pts| {
            b.iter(|| black_box(udg_of(pts, RADIUS)))
        });
        g.bench_with_input(BenchmarkId::new("ldel1", n), &udg, |b, udg| {
            b.iter(|| black_box(ldel::ldel1(udg)))
        });
        g.bench_with_input(BenchmarkId::new("planarized", n), &udg, |b, udg| {
            b.iter(|| black_box(ldel::planarized(udg)))
        });
        g.bench_with_input(BenchmarkId::new("crossing_count", n), &udg, |b, udg| {
            b.iter(|| black_box(crossing_count(udg)))
        });
        g.bench_with_input(BenchmarkId::new("cds_election", n), &udg, |b, udg| {
            b.iter(|| black_box(build_cds(udg, &ClusterRank::LowestId)))
        });
    }
    // All-pairs stretch is quadratic in n; one size keeps the suite fast.
    let (_pts, udg) = instance(SIZES[0]);
    let pl = ldel::planarized(&udg);
    g.bench_function(BenchmarkId::new("stretch", SIZES[0]), |b| {
        b.iter(|| black_box(stretch_factors(&udg, &pl.graph, StretchOptions::default())))
    });
    g.finish();
}

criterion_group!(benches, pipeline_stages);
criterion_main!(benches);
