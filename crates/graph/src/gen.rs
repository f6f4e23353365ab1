//! Deployment generators and the unit-disk edge builder.
//!
//! The paper's experiments place `n` nodes uniformly at random in a square
//! and keep only connected instances ("we then generate the UDG, and test
//! the connectivity"). [`uniform_points`] + [`UnitDiskBuilder`] +
//! [`connected_unit_disk`] reproduce exactly that workflow; the perturbed
//! grid and clustered generators cover additional deployment shapes used
//! by the extended test suite.

use geospan_geometry::Point;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Graph;

/// `n` points uniform in the `side × side` square, deterministic in
/// `seed`.
///
/// Bit-identical duplicate positions (probability ~0, but possible) are
/// resampled so the points are always distinct.
///
/// # Example
/// ```
/// use geospan_graph::gen::uniform_points;
/// let a = uniform_points(50, 200.0, 7);
/// let b = uniform_points(50, 200.0, 7);
/// assert_eq!(a, b); // deterministic
/// ```
pub fn uniform_points(n: usize, side: f64, seed: u64) -> Vec<Point> {
    assert!(side > 0.0, "square side must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pts: Vec<Point> = Vec::with_capacity(n);
    let mut seen = std::collections::HashSet::with_capacity(n);
    while pts.len() < n {
        let p = Point::new(rng.random_range(0.0..side), rng.random_range(0.0..side));
        if seen.insert((p.x.to_bits(), p.y.to_bits())) {
            pts.push(p);
        }
    }
    pts
}

/// A `nx × ny` grid with spacing `spacing`, each point perturbed uniformly
/// by up to `jitter` in both coordinates. Deterministic in `seed`.
pub fn perturbed_grid(nx: usize, ny: usize, spacing: f64, jitter: f64, seed: u64) -> Vec<Point> {
    assert!(spacing > 0.0, "grid spacing must be positive");
    assert!(jitter >= 0.0, "jitter must be non-negative");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pts = Vec::with_capacity(nx * ny);
    for i in 0..nx {
        for j in 0..ny {
            let dx = if jitter > 0.0 {
                rng.random_range(-jitter..jitter)
            } else {
                0.0
            };
            let dy = if jitter > 0.0 {
                rng.random_range(-jitter..jitter)
            } else {
                0.0
            };
            pts.push(Point::new(i as f64 * spacing + dx, j as f64 * spacing + dy));
        }
    }
    pts
}

/// `n` points in `k` Gaussian clusters whose centers are uniform in the
/// `side × side` square; cluster spread is `sigma`. Deterministic in
/// `seed`. Points are clamped to the square.
pub fn gaussian_clusters(n: usize, side: f64, k: usize, sigma: f64, seed: u64) -> Vec<Point> {
    assert!(k > 0, "need at least one cluster");
    assert!(side > 0.0 && sigma >= 0.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<Point> = (0..k)
        .map(|_| Point::new(rng.random_range(0.0..side), rng.random_range(0.0..side)))
        .collect();
    let mut pts = Vec::with_capacity(n);
    let mut seen = std::collections::HashSet::with_capacity(n);
    while pts.len() < n {
        let c = centers[rng.random_range(0..k)];
        // Box–Muller.
        let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.random_range(0.0..std::f64::consts::TAU);
        let r = sigma * (-2.0 * u1.ln()).sqrt();
        let p = Point::new(
            (c.x + r * u2.cos()).clamp(0.0, side),
            (c.y + r * u2.sin()).clamp(0.0, side),
        );
        if seen.insert((p.x.to_bits(), p.y.to_bits())) {
            pts.push(p);
        }
    }
    pts
}

/// `n` points jittered around a circle of radius `ring_radius` centered
/// in its bounding square — the "hole in the middle" deployment that
/// stresses face routing (every route must go the long way around).
/// Deterministic in `seed`.
pub fn ring_points(n: usize, ring_radius: f64, jitter: f64, seed: u64) -> Vec<Point> {
    assert!(ring_radius > 0.0 && jitter >= 0.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let c = ring_radius + jitter;
    let mut pts = Vec::with_capacity(n);
    let mut seen = std::collections::HashSet::with_capacity(n);
    while pts.len() < n {
        let a = rng.random_range(0.0..std::f64::consts::TAU);
        let r = ring_radius
            + if jitter > 0.0 {
                rng.random_range(-jitter..jitter)
            } else {
                0.0
            };
        let p = Point::new(c + r * a.cos(), c + r * a.sin());
        if seen.insert((p.x.to_bits(), p.y.to_bits())) {
            pts.push(p);
        }
    }
    pts
}

/// A dumbbell: two dense square clusters of `n_per_side` nodes joined by
/// a `bridge`-node chain — the worst case for backbone robustness (the
/// bridge nodes are unavoidable cut vertices). Deterministic in `seed`.
pub fn dumbbell_points(n_per_side: usize, bridge: usize, spacing: f64, seed: u64) -> Vec<Point> {
    assert!(spacing > 0.0 && bridge >= 1);
    let side = (n_per_side as f64).sqrt().ceil() * spacing * 1.2;
    let gap = spacing * (bridge + 1) as f64;
    let mut pts = uniform_points(n_per_side, side, seed);
    // Bridge chain along y = side / 2.
    for k in 1..=bridge {
        pts.push(Point::new(side + k as f64 * spacing, side / 2.0));
    }
    // Right cluster, shifted past the bridge.
    for p in uniform_points(n_per_side, side, seed.wrapping_add(1)) {
        pts.push(Point::new(p.x + side + gap, p.y));
    }
    pts
}

/// Builds unit disk graphs: an edge between every pair at distance at most
/// the transmission radius.
///
/// Uses a uniform cell grid sized to the radius, so construction is
/// `O(n + m)` in expectation for uniformly distributed inputs rather than
/// `O(n²)`.
///
/// # Example
/// ```
/// use geospan_graph::gen::{uniform_points, UnitDiskBuilder};
/// let pts = uniform_points(100, 200.0, 1);
/// let udg = UnitDiskBuilder::new(60.0).build(&pts);
/// // Every edge respects the radius.
/// assert!(udg.edges().all(|(u, v)| udg.edge_length(u, v) <= 60.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitDiskBuilder {
    radius: f64,
}

impl UnitDiskBuilder {
    /// A builder for the given transmission radius.
    ///
    /// # Panics
    /// Panics unless `radius` is positive and finite.
    pub fn new(radius: f64) -> Self {
        assert!(
            radius > 0.0 && radius.is_finite(),
            "transmission radius must be positive and finite"
        );
        UnitDiskBuilder { radius }
    }

    /// The transmission radius.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Builds the unit disk graph over `points`.
    ///
    /// Edges connect pairs with Euclidean distance `<= radius`
    /// (boundary inclusive, matching the paper's "at most one unit").
    /// The edge set is collected in bulk and assembled with
    /// [`Graph::from_sorted_edges`], so construction never pays the
    /// `O(degree)` sorted-insert shifting of per-edge `add_edge`.
    pub fn build(&self, points: &[Point]) -> Graph {
        if points.is_empty() {
            return Graph::new(Vec::new());
        }
        let r = self.radius;
        let r2 = r * r;
        let min_x = points.iter().map(|p| p.x).fold(f64::INFINITY, f64::min);
        let min_y = points.iter().map(|p| p.y).fold(f64::INFINITY, f64::min);
        let cell = |p: Point| -> (i64, i64) {
            (
                ((p.x - min_x) / r).floor() as i64,
                ((p.y - min_y) / r).floor() as i64,
            )
        };
        let mut buckets: std::collections::HashMap<(i64, i64), Vec<usize>> =
            std::collections::HashMap::new();
        for (i, &p) in points.iter().enumerate() {
            buckets.entry(cell(p)).or_default().push(i);
        }
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for (i, &p) in points.iter().enumerate() {
            let (cx, cy) = cell(p);
            for dx in -1..=1 {
                for dy in -1..=1 {
                    if let Some(cands) = buckets.get(&(cx + dx, cy + dy)) {
                        for &j in cands {
                            if j > i && p.distance_sq(points[j]) <= r2 {
                                edges.push((i, j));
                            }
                        }
                    }
                }
            }
        }
        Graph::from_sorted_edges(points.to_vec(), edges)
    }
}

/// A connected random deployment: tries seeds `seed, seed+1, …` until the
/// uniform deployment's UDG is connected, exactly as the paper discards
/// disconnected instances.
///
/// Returns the accepted points, their UDG, and the seed that produced
/// them.
///
/// # Panics
/// Panics after 10 000 failed attempts — the parameters are then below
/// the connectivity regime and the experiment configuration is wrong.
#[expect(
    clippy::panic,
    reason = "documented connectivity-threshold panic: scenario parameters are author errors \
              caught at generation time"
)]
pub fn connected_unit_disk(
    n: usize,
    side: f64,
    radius: f64,
    seed: u64,
) -> (Vec<Point>, Graph, u64) {
    let builder = UnitDiskBuilder::new(radius);
    for s in seed..seed + 10_000 {
        let pts = uniform_points(n, side, s);
        let g = builder.build(&pts);
        if g.is_connected() {
            return (pts, g, s);
        }
    }
    panic!(
        "no connected deployment found for n={n}, side={side}, radius={radius} \
         after 10000 attempts: parameters are below the connectivity threshold"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_points_in_bounds_and_distinct() {
        let pts = uniform_points(500, 100.0, 3);
        assert_eq!(pts.len(), 500);
        for p in &pts {
            assert!(p.x >= 0.0 && p.x < 100.0 && p.y >= 0.0 && p.y < 100.0);
        }
        let mut seen = std::collections::HashSet::new();
        for p in &pts {
            assert!(seen.insert((p.x.to_bits(), p.y.to_bits())));
        }
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(uniform_points(10, 100.0, 1), uniform_points(10, 100.0, 2));
    }

    #[test]
    fn udg_matches_brute_force() {
        let pts = uniform_points(150, 120.0, 11);
        let r = 25.0;
        let g = UnitDiskBuilder::new(r).build(&pts);
        for i in 0..pts.len() {
            for j in i + 1..pts.len() {
                let expect = pts[i].distance(pts[j]) <= r;
                assert_eq!(g.has_edge(i, j), expect, "pair ({i}, {j})");
            }
        }
    }

    #[test]
    fn udg_boundary_edge_included() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)];
        let g = UnitDiskBuilder::new(10.0).build(&pts);
        assert!(g.has_edge(0, 1));
        let g = UnitDiskBuilder::new(9.999999).build(&pts);
        assert!(!g.has_edge(0, 1));
    }

    #[test]
    fn perturbed_grid_shape() {
        let pts = perturbed_grid(4, 5, 10.0, 0.0, 0);
        assert_eq!(pts.len(), 20);
        assert_eq!(pts[0], Point::new(0.0, 0.0));
        assert_eq!(pts[19], Point::new(30.0, 40.0));
        let jittered = perturbed_grid(4, 5, 10.0, 2.0, 0);
        for (a, b) in pts.iter().zip(&jittered) {
            assert!((a.x - b.x).abs() < 2.0 && (a.y - b.y).abs() < 2.0);
        }
    }

    #[test]
    fn clusters_stay_in_square() {
        let pts = gaussian_clusters(300, 50.0, 4, 5.0, 9);
        assert_eq!(pts.len(), 300);
        for p in &pts {
            assert!(p.x >= 0.0 && p.x <= 50.0 && p.y >= 0.0 && p.y <= 50.0);
        }
    }

    #[test]
    fn ring_points_surround_a_hole() {
        let pts = ring_points(100, 40.0, 4.0, 3);
        assert_eq!(pts.len(), 100);
        let center = Point::new(44.0, 44.0);
        for p in &pts {
            let d = p.distance(center);
            assert!((36.0..=44.0).contains(&d), "radius {d}");
        }
    }

    #[test]
    fn dumbbell_shape() {
        let pts = dumbbell_points(30, 3, 10.0, 5);
        assert_eq!(pts.len(), 63);
        let g = UnitDiskBuilder::new(14.0).build(&pts);
        // The bridge nodes (indices 30..33) are cut vertices: removing
        // the middle one disconnects the clusters.
        if g.is_connected() {
            let cut = g.filter_edges(|u, v| u != 31 && v != 31);
            assert!(!cut.is_connected());
        }
    }

    #[test]
    fn connected_unit_disk_is_connected() {
        let (pts, g, used) = connected_unit_disk(40, 100.0, 40.0, 0);
        assert_eq!(pts.len(), 40);
        assert!(g.is_connected());
        assert!(used < 10_000);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_radius_rejected() {
        let _ = UnitDiskBuilder::new(0.0);
    }

    #[test]
    fn empty_input() {
        let g = UnitDiskBuilder::new(1.0).build(&[]);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }
}
