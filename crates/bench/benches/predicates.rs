//! Micro-benchmarks of the exact geometric predicates and the Delaunay
//! triangulation — the `O(d log d)` local computation every node performs
//! in the paper's Algorithm 2.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use geospan_geometry::{gabriel_test, incircle, orient2d, Point, Triangulation};
use geospan_graph::gen::uniform_points;

fn predicates(c: &mut Criterion) {
    let pts = uniform_points(4096, 1000.0, 11);
    let quads: Vec<[Point; 4]> = pts
        .chunks_exact(4)
        .map(|q| [q[0], q[1], q[2], q[3]])
        .collect();

    let mut g = c.benchmark_group("predicates");
    g.bench_function("orient2d_random", |b| {
        b.iter(|| {
            for q in &quads {
                black_box(orient2d(q[0], q[1], q[2]));
            }
        })
    });
    g.bench_function("orient2d_degenerate", |b| {
        // Collinear triples force the exact expansion fallback.
        let a = Point::new(0.1, 0.1);
        let steps: Vec<Point> = (1..1024)
            .map(|i| Point::new(0.1 + i as f64 * 0.2, 0.1 + i as f64 * 0.2))
            .collect();
        b.iter(|| {
            for w in steps.windows(2) {
                black_box(orient2d(a, w[0], w[1]));
            }
        })
    });
    g.bench_function("incircle_random", |b| {
        b.iter(|| {
            for q in &quads {
                black_box(incircle(q[0], q[1], q[2], q[3]));
            }
        })
    });
    g.bench_function("gabriel_test", |b| {
        b.iter(|| {
            for q in &quads {
                black_box(gabriel_test(q[0], q[1], q[2]));
            }
        })
    });
    g.finish();

    // The per-node local computation: Delaunay of a 1-hop neighborhood.
    let mut g = c.benchmark_group("local_delaunay");
    for d in [8usize, 32, 128] {
        let hood = uniform_points(d + 1, 60.0, d as u64);
        g.bench_with_input(BenchmarkId::new("del_n1", d), &hood, |b, hood| {
            b.iter(|| black_box(Triangulation::build(hood).expect("random points triangulate")))
        });
    }
    g.finish();
}

criterion_group!(benches, predicates);
criterion_main!(benches);
