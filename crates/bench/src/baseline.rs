//! Frozen copy of the seed construction pipeline, kept as the baseline
//! that `pipeline_speedup` and the equivalence tests measure against.
//!
//! The library crates now build `LDel¹`/`PLDel` through the parallel,
//! grid-indexed pipeline. To keep the committed speedup numbers honest —
//! and to let tests prove the optimized pipeline produces *identical*
//! output — this module preserves the seed algorithms exactly as they
//! shipped: the Bowyer–Watson core with per-insert hash maps and full
//! triangulation assembly, the serial per-node `LDel¹` loop over
//! `HashSet` membership, the `O(k²)` x-sweep planarization, and the
//! `O(m²)` pairwise crossing count. Nothing here should be "improved";
//! it is a measurement artifact, not production code.
//!
//! A second frozen generation lives alongside it: [`prev_planarized`]
//! preserves the PR 2–6 "optimized" pipeline (parallel per-node
//! triangulations with per-call allocation, full per-node key lists with
//! binary-search acceptance, materialized + sorted grid candidate
//! pairs, per-edge `add_edge` graph assembly) so the arena-generation
//! speedup is measured in-process against the path it replaced rather
//! than against a number recorded under different machine load.

use std::collections::{HashMap, HashSet};

use geospan_geometry::{CirclePosition, Orientation, Point, UniformGrid};
use geospan_graph::Graph;
use geospan_topology::ldel::LocalDelaunay;
use rayon::prelude::*;

// Non-inlined predicate shims. When these baselines were frozen the
// geometry predicates were plain cross-crate functions, so every call
// paid real call overhead; the live predicates have since grown
// `#[inline]` fast paths. Routing the frozen pipelines through
// `#[inline(never)]` wrappers keeps their timings faithful to what
// actually shipped instead of silently inheriting the new inlining.

#[inline(never)]
fn orient2d(a: Point, b: Point, c: Point) -> Orientation {
    geospan_geometry::orient2d(a, b, c)
}

#[inline(never)]
fn incircle(a: Point, b: Point, c: Point, d: Point) -> CirclePosition {
    geospan_geometry::incircle(a, b, c, d)
}

#[inline(never)]
fn in_circumcircle(a: Point, b: Point, c: Point, p: Point) -> CirclePosition {
    geospan_geometry::in_circumcircle(a, b, c, p)
}

#[inline(never)]
fn gabriel_test(u: Point, v: Point, p: Point) -> bool {
    geospan_geometry::gabriel_test(u, v, p)
}

#[inline(never)]
fn segments_properly_cross(a: Point, b: Point, c: Point, d: Point) -> bool {
    // The frozen pipelines classified the full intersection and compared,
    // always evaluating both orientation pairs; the live fast path
    // short-circuits.
    geospan_geometry::segments_cross(a, b, c, d) == geospan_geometry::SegmentIntersection::Proper
}

/// The seed's (unplanarized) `LDel¹`: serial per-node local
/// triangulations and `HashSet`-based three-way membership.
pub fn seed_ldel1(g: &Graph) -> LocalDelaunay {
    let n = g.node_count();
    let mut local_tris: Vec<HashSet<[usize; 3]>> = vec![HashSet::new(); n];
    #[allow(clippy::needless_range_loop)]
    for u in 0..n {
        if g.degree(u) < 2 {
            continue;
        }
        let mut ids: Vec<usize> = Vec::with_capacity(g.degree(u) + 1);
        ids.push(u);
        ids.extend_from_slice(g.neighbors(u));
        let pts: Vec<_> = ids.iter().map(|&i| g.position(i)).collect();
        let tri = tri::SeedTriangulation::build(&pts).expect("distinct node positions");
        for t in &tri.triangles {
            let mut key = [ids[t[0]], ids[t[1]], ids[t[2]]];
            key.sort_unstable();
            local_tris[u].insert(key);
        }
    }

    let mut accepted: HashSet<[usize; 3]> = HashSet::new();
    for u in 0..n {
        for &key in &local_tris[u] {
            let [a, b, c] = key;
            if u != a {
                continue; // consider each triple once, at its least vertex
            }
            if !(g.has_edge(a, b) && g.has_edge(b, c) && g.has_edge(a, c)) {
                continue;
            }
            if local_tris[b].contains(&key) && local_tris[c].contains(&key) {
                accepted.insert(key);
            }
        }
    }

    let gabriel_edges = seed_gabriel_edge_list(g);
    let mut graph = g.same_vertices();
    for &(u, v) in &gabriel_edges {
        graph.add_edge(u, v);
    }
    let mut triangles: Vec<[usize; 3]> = accepted.into_iter().collect();
    triangles.sort_unstable();
    for &[a, b, c] in &triangles {
        graph.add_edge(a, b);
        graph.add_edge(b, c);
        graph.add_edge(a, c);
    }
    LocalDelaunay {
        graph,
        triangles,
        gabriel_edges,
    }
}

/// The seed's `PLDel`: [`seed_ldel1`] followed by [`seed_planarize`].
pub fn seed_planarized(g: &Graph) -> LocalDelaunay {
    seed_planarize(g, seed_ldel1(g))
}

/// The seed's planarization: x-sorted bounding-box sweep over triangle
/// pairs, quadratic within each x-overlap run.
pub fn seed_planarize(g: &Graph, raw: LocalDelaunay) -> LocalDelaunay {
    let tris = &raw.triangles;
    let m = tris.len();
    let mut removed = vec![false; m];

    let mut order: Vec<usize> = (0..m).collect();
    let bbox: Vec<(f64, f64)> = tris
        .iter()
        .map(|t| {
            let xs = t.iter().map(|&v| g.position(v).x);
            (
                xs.clone().fold(f64::INFINITY, f64::min),
                xs.fold(f64::NEG_INFINITY, f64::max),
            )
        })
        .collect();
    #[expect(
        clippy::disallowed_methods,
        reason = "frozen seed replica kept bit-exact; the bounding-box coordinates are finite, so \
                  partial_cmp never meets a NaN"
    )]
    order.sort_by(|&i, &j| bbox[i].0.partial_cmp(&bbox[j].0).expect("finite coords"));

    for (oi, &i) in order.iter().enumerate() {
        for &j in order[oi + 1..].iter() {
            if bbox[j].0 > bbox[i].1 {
                break;
            }
            if triangles_cross(g, tris[i], tris[j]) {
                if circum_contains_any(g, tris[i], tris[j]) {
                    removed[i] = true;
                }
                if circum_contains_any(g, tris[j], tris[i]) {
                    removed[j] = true;
                }
            }
        }
    }

    let triangles: Vec<[usize; 3]> = tris
        .iter()
        .zip(&removed)
        .filter(|(_, &r)| !r)
        .map(|(&t, _)| t)
        .collect();
    let mut graph = g.same_vertices();
    for &(u, v) in &raw.gabriel_edges {
        graph.add_edge(u, v);
    }
    for &[a, b, c] in &triangles {
        graph.add_edge(a, b);
        graph.add_edge(b, c);
        graph.add_edge(a, c);
    }
    LocalDelaunay {
        graph,
        triangles,
        gabriel_edges: raw.gabriel_edges,
    }
}

/// The seed's `O(m²)` pairwise crossing count (every edge pair reaches
/// the exact predicate).
pub fn seed_crossing_count(g: &Graph) -> usize {
    let edges: Vec<(usize, usize)> = g.edges().collect();
    let mut count = 0;
    for (i, &(u1, v1)) in edges.iter().enumerate() {
        for &(u2, v2) in &edges[i + 1..] {
            if u1 == u2 || u1 == v2 || v1 == u2 || v1 == v2 {
                continue;
            }
            if segments_properly_cross(
                g.position(u1),
                g.position(v1),
                g.position(u2),
                g.position(v2),
            ) {
                count += 1;
            }
        }
    }
    count
}

/// All Gabriel edges of a distance-closed graph, `(u, v)` with `u < v`
/// (the seed's serial filter).
fn seed_gabriel_edge_list(g: &Graph) -> Vec<(usize, usize)> {
    g.edges()
        .filter(|&(u, v)| {
            let pu = g.position(u);
            let pv = g.position(v);
            !common_neighbors(g, u, v).any(|w| gabriel_test(pu, pv, g.position(w)))
        })
        .collect()
}

/// Common neighbors of `u` and `v` by merging the sorted adjacency lists
/// (local re-implementation; the topology crate keeps its own private).
fn common_neighbors(g: &Graph, u: usize, v: usize) -> impl Iterator<Item = usize> + '_ {
    let a = g.neighbors(u);
    let b = g.neighbors(v);
    let mut i = 0;
    let mut j = 0;
    std::iter::from_fn(move || {
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let x = a[i];
                    i += 1;
                    j += 1;
                    return Some(x);
                }
            }
        }
        None
    })
}

/// Do two triangles properly cross (some edge of one crosses some edge of
/// the other)?
fn triangles_cross(g: &Graph, t1: [usize; 3], t2: [usize; 3]) -> bool {
    const E: [(usize, usize); 3] = [(0, 1), (1, 2), (0, 2)];
    for &(i, j) in &E {
        for &(p, q) in &E {
            if segments_properly_cross(
                g.position(t1[i]),
                g.position(t1[j]),
                g.position(t2[p]),
                g.position(t2[q]),
            ) {
                return true;
            }
        }
    }
    false
}

/// Is any vertex of `other` inside or on the circumcircle of `t`?
fn circum_contains_any(g: &Graph, t: [usize; 3], other: [usize; 3]) -> bool {
    other.iter().any(|&x| {
        !t.contains(&x)
            && in_circumcircle(
                g.position(t[0]),
                g.position(t[1]),
                g.position(t[2]),
                g.position(x),
            ) != CirclePosition::Outside
    })
}

/// The PR 2–6 optimized `PLDel` pipeline, frozen verbatim: the
/// in-process "previous generation" that the arena-backed pipeline's
/// ≥ 2× speedup gate is measured against.
pub fn prev_planarized(g: &Graph) -> LocalDelaunay {
    prev_planarize(g, prev_ldel1(g))
}

/// The PR 2–6 optimized `LDel¹`: parallel per-node local triangulations
/// (fresh buffers per call), full sorted per-node key lists, and
/// binary-search three-way acceptance.
pub fn prev_ldel1(g: &Graph) -> LocalDelaunay {
    let n = g.node_count();
    let local_tris: Vec<Vec<[usize; 3]>> = (0..n)
        .into_par_iter()
        .map(|u| {
            if g.degree(u) < 2 {
                return Vec::new();
            }
            let mut ids: Vec<usize> = Vec::with_capacity(g.degree(u) + 1);
            ids.push(u);
            ids.extend_from_slice(g.neighbors(u));
            let pts: Vec<_> = ids.iter().map(|&i| g.position(i)).collect();
            let mut keys: Vec<[usize; 3]> = prev_tri::delaunay_triangles(&pts)
                .iter()
                .map(|&[a, b, c]| {
                    let mut key = [ids[a], ids[b], ids[c]];
                    key.sort_unstable();
                    key
                })
                .collect();
            keys.sort_unstable();
            keys
        })
        .collect();

    let kept: Vec<Vec<[usize; 3]>> = (0..n)
        .into_par_iter()
        .map(|u| {
            local_tris[u]
                .iter()
                .copied()
                .filter(|&key| {
                    let [a, b, c] = key;
                    a == u
                        && g.has_edge(a, b)
                        && g.has_edge(b, c)
                        && g.has_edge(a, c)
                        && local_tris[b].binary_search(&key).is_ok()
                        && local_tris[c].binary_search(&key).is_ok()
                })
                .collect()
        })
        .collect();
    let triangles: Vec<[usize; 3]> = kept.into_iter().flatten().collect();

    let gabriel_edges = prev_gabriel_edge_list(g);
    let mut graph = g.same_vertices();
    for &(u, v) in &gabriel_edges {
        graph.add_edge(u, v);
    }
    for &[a, b, c] in &triangles {
        graph.add_edge(a, b);
        graph.add_edge(b, c);
        graph.add_edge(a, c);
    }
    LocalDelaunay {
        graph,
        triangles,
        gabriel_edges,
    }
}

/// The PR 2–6 planarization: materialized + sorted grid candidate
/// pairs, parallel pair flags, per-edge `add_edge` assembly.
pub fn prev_planarize(g: &Graph, raw: LocalDelaunay) -> LocalDelaunay {
    let tris = &raw.triangles;
    let m = tris.len();
    let boxes: Vec<(Point, Point)> = tris
        .iter()
        .map(|t| {
            let p0 = g.position(t[0]);
            let (mut lo, mut hi) = (p0, p0);
            for &v in &t[1..] {
                let p = g.position(v);
                lo = Point::new(lo.x.min(p.x), lo.y.min(p.y));
                hi = Point::new(hi.x.max(p.x), hi.y.max(p.y));
            }
            (lo, hi)
        })
        .collect();
    let pairs = UniformGrid::from_boxes(&boxes, None).candidate_pairs();

    let flags: Vec<(bool, bool)> = pairs
        .par_iter()
        .map(|&(i, j)| {
            if triangles_cross(g, tris[i], tris[j]) {
                (
                    circum_contains_any(g, tris[i], tris[j]),
                    circum_contains_any(g, tris[j], tris[i]),
                )
            } else {
                (false, false)
            }
        })
        .collect();
    let mut removed = vec![false; m];
    for (&(i, j), &(ri, rj)) in pairs.iter().zip(&flags) {
        removed[i] |= ri;
        removed[j] |= rj;
    }

    let triangles: Vec<[usize; 3]> = tris
        .iter()
        .zip(&removed)
        .filter(|(_, &r)| !r)
        .map(|(&t, _)| t)
        .collect();
    let mut graph = g.same_vertices();
    for &(u, v) in &raw.gabriel_edges {
        graph.add_edge(u, v);
    }
    for &[a, b, c] in &triangles {
        graph.add_edge(a, b);
        graph.add_edge(b, c);
        graph.add_edge(a, c);
    }
    LocalDelaunay {
        graph,
        triangles,
        gabriel_edges: raw.gabriel_edges,
    }
}

/// The PR 2–6 Gabriel stage: parallel keep-mask over the UDG edges.
fn prev_gabriel_edge_list(g: &Graph) -> Vec<(usize, usize)> {
    let edges: Vec<(usize, usize)> = g.edges().collect();
    let keep: Vec<bool> = edges
        .par_iter()
        .map(|&(u, v)| {
            let pu = g.position(u);
            let pv = g.position(v);
            !common_neighbors(g, u, v).any(|w| gabriel_test(pu, pv, g.position(w)))
        })
        .collect();
    edges
        .into_iter()
        .zip(keep)
        .filter_map(|(e, k)| k.then_some(e))
        .collect()
}

/// The PR 2–6 Bowyer–Watson core, verbatim: per-call buffer allocation
/// (triangle arena, marks, cavity/stack/boundary all rebuilt for every
/// local triangulation), vertex positions fetched through the input
/// slice, and ghost vertices found by scanning — the cost profile of
/// `delaunay_triangles` the arena generation replaced. Frozen here so
/// improvements to the live core cannot leak into the baseline side of
/// the speedup measurement.
mod prev_tri {
    use super::{incircle, orient2d, CirclePosition, Orientation, Point};

    const GHOST: usize = usize::MAX;
    const NO_TRI: usize = usize::MAX;

    #[derive(Debug, Clone, Copy)]
    struct Tri {
        v: [usize; 3],
        n: [usize; 3],
        alive: bool,
    }

    struct BoundaryEdge {
        u: usize,
        w: usize,
        outside: usize,
    }

    fn check_distinct_finite(points: &[Point]) {
        for p in points {
            assert!(p.is_finite(), "non-finite coordinate");
        }
        if points.len() <= 48 {
            for (i, p) in points.iter().enumerate() {
                for q in points[..i].iter() {
                    assert!(
                        p.x.to_bits() != q.x.to_bits() || p.y.to_bits() != q.y.to_bits(),
                        "distinct node positions"
                    );
                }
            }
            return;
        }
        let mut seen: std::collections::HashMap<(u64, u64), usize> =
            std::collections::HashMap::with_capacity(points.len());
        for (i, p) in points.iter().enumerate() {
            assert!(
                seen.insert((p.x.to_bits(), p.y.to_bits()), i).is_none(),
                "distinct node positions"
            );
        }
    }

    /// The PR 2–6 `delaunay_triangles`: validate, run the core with
    /// fresh buffers, collect the surviving real triangles.
    pub fn delaunay_triangles(points: &[Point]) -> Vec<[usize; 3]> {
        check_distinct_finite(points);
        let core = Core::run(points);
        if core.collinear_chain {
            return Vec::new();
        }
        core.tris
            .iter()
            .filter(|t| t.alive && !t.v.contains(&GHOST))
            .map(|t| t.v)
            .collect()
    }

    struct Core<'a> {
        pts: &'a [Point],
        tris: Vec<Tri>,
        last: usize,
        collinear_chain: bool,
        mark: Vec<(u32, bool)>,
        epoch: u32,
        cavity: Vec<usize>,
        stack: Vec<usize>,
        boundary: Vec<BoundaryEdge>,
    }

    impl<'a> Core<'a> {
        fn run(points: &'a [Point]) -> Core<'a> {
            let n = points.len();
            let mut core = Core {
                pts: points,
                tris: Vec::new(),
                last: NO_TRI,
                collinear_chain: false,
                mark: Vec::new(),
                epoch: 0,
                cavity: Vec::new(),
                stack: Vec::new(),
                boundary: Vec::new(),
            };
            if n < 3 {
                core.collinear_chain = true;
                return core;
            }
            let mut apex = None;
            for k in 2..n {
                if orient2d(points[0], points[1], points[k]) != Orientation::Collinear {
                    apex = Some(k);
                    break;
                }
            }
            let Some(apex) = apex else {
                core.collinear_chain = true;
                return core;
            };
            core.init_triangle(0, 1, apex);
            for i in 2..n {
                if i == apex {
                    continue;
                }
                core.insert(i);
            }
            core
        }

        fn init_triangle(&mut self, i: usize, j: usize, k: usize) {
            let (a, b, c) = match orient2d(self.pts[i], self.pts[j], self.pts[k]) {
                Orientation::CounterClockwise => (i, j, k),
                Orientation::Clockwise => (i, k, j),
                #[expect(
                    clippy::unreachable,
                    reason = "frozen seed replica; the live copies in geometry and topology carry \
                              expect attributes with the non-degeneracy argument"
                )]
                Orientation::Collinear => unreachable!("seed triangle is non-degenerate"),
            };
            self.tris.push(Tri {
                v: [a, b, c],
                n: [2, 3, 1],
                alive: true,
            });
            self.tris.push(Tri {
                v: [b, a, GHOST],
                n: [3, 2, 0],
                alive: true,
            });
            self.tris.push(Tri {
                v: [c, b, GHOST],
                n: [1, 3, 0],
                alive: true,
            });
            self.tris.push(Tri {
                v: [a, c, GHOST],
                n: [2, 1, 0],
                alive: true,
            });
            self.last = 0;
        }

        fn in_conflict(&self, t: usize, p: Point) -> bool {
            let tri = &self.tris[t];
            if let Some(k) = tri.v.iter().position(|&v| v == GHOST) {
                let u = tri.v[(k + 1) % 3];
                let w = tri.v[(k + 2) % 3];
                match orient2d(self.pts[u], self.pts[w], p) {
                    Orientation::CounterClockwise => true,
                    Orientation::Clockwise => false,
                    Orientation::Collinear => strictly_between(self.pts[u], self.pts[w], p),
                }
            } else {
                let [a, b, c] = tri.v;
                incircle(self.pts[a], self.pts[b], self.pts[c], p) == CirclePosition::Inside
            }
        }

        fn locate(&self, p: Point) -> usize {
            let mut t = self.last;
            if t == NO_TRI || !self.tris[t].alive {
                t = self
                    .tris
                    .iter()
                    .position(|t| t.alive)
                    .expect("no alive triangle");
            }
            if let Some(k) = self.tris[t].v.iter().position(|&v| v == GHOST) {
                t = self.tris[t].n[k];
            }
            let limit = 4 * self.tris.len() + 16;
            let mut steps = 0;
            'walk: while steps < limit {
                steps += 1;
                let tri = &self.tris[t];
                if tri.v.contains(&GHOST) {
                    let mut g = t;
                    for _ in 0..self.tris.len() + 1 {
                        if self.in_conflict(g, p) {
                            return g;
                        }
                        let k = self.tris[g]
                            .v
                            .iter()
                            .position(|&v| v == GHOST)
                            .expect("ghost triangle has a ghost vertex");
                        g = self.tris[g].n[(k + 1) % 3];
                    }
                    break 'walk;
                }
                for i in 0..3 {
                    let u = tri.v[(i + 1) % 3];
                    let w = tri.v[(i + 2) % 3];
                    if orient2d(self.pts[u], self.pts[w], p) == Orientation::Clockwise {
                        t = tri.n[i];
                        continue 'walk;
                    }
                }
                return t;
            }
            (0..self.tris.len())
                .find(|&t| self.tris[t].alive && self.in_conflict(t, p))
                .expect("insertion point conflicts with no triangle")
        }

        fn insert(&mut self, pi: usize) {
            let p = self.pts[pi];
            let seed = self.locate(p);

            self.epoch += 1;
            let epoch = self.epoch;
            if self.mark.len() < self.tris.len() {
                self.mark.resize(self.tris.len(), (0, false));
            }
            let mut cavity = std::mem::take(&mut self.cavity);
            cavity.clear();
            cavity.push(seed);
            self.mark[seed] = (epoch, true);
            self.stack.clear();
            self.stack.push(seed);
            while let Some(t) = self.stack.pop() {
                for i in 0..3 {
                    let nb = self.tris[t].n[i];
                    if nb == NO_TRI || self.mark[nb].0 == epoch {
                        continue;
                    }
                    let c = self.in_conflict(nb, p);
                    self.mark[nb] = (epoch, c);
                    if c {
                        cavity.push(nb);
                        self.stack.push(nb);
                    }
                }
            }

            let mut boundary = std::mem::take(&mut self.boundary);
            boundary.clear();
            for &t in &cavity {
                for i in 0..3 {
                    let nb = self.tris[t].n[i];
                    let nb_in = nb != NO_TRI && self.mark[nb] == (epoch, true);
                    if !nb_in {
                        boundary.push(BoundaryEdge {
                            u: self.tris[t].v[(i + 1) % 3],
                            w: self.tris[t].v[(i + 2) % 3],
                            outside: nb,
                        });
                    }
                }
            }

            for &t in &cavity {
                self.tris[t].alive = false;
            }
            let base = self.tris.len();
            for (off, e) in boundary.iter().enumerate() {
                let idx = base + off;
                self.tris.push(Tri {
                    v: [pi, e.u, e.w],
                    n: [e.outside, NO_TRI, NO_TRI],
                    alive: true,
                });
                if e.outside != NO_TRI {
                    let out = &mut self.tris[e.outside];
                    for j in 0..3 {
                        let a = out.v[(j + 1) % 3];
                        let b = out.v[(j + 2) % 3];
                        if (a == e.u && b == e.w) || (a == e.w && b == e.u) {
                            out.n[j] = idx;
                            break;
                        }
                    }
                }
            }
            for (off, e) in boundary.iter().enumerate() {
                let idx = base + off;
                let across_wp = boundary
                    .iter()
                    .position(|e2| e2.u == e.w)
                    .expect("cavity boundary is a closed fan");
                let across_pu = boundary
                    .iter()
                    .position(|e2| e2.w == e.u)
                    .expect("cavity boundary is a closed fan");
                self.tris[idx].n[1] = base + across_wp;
                self.tris[idx].n[2] = base + across_pu;
            }
            self.last = base;
            self.cavity = cavity;
            self.boundary = boundary;
        }
    }

    fn strictly_between(a: Point, b: Point, p: Point) -> bool {
        if p == a || p == b {
            return false;
        }
        p.x >= a.x.min(b.x) && p.x <= a.x.max(b.x) && p.y >= a.y.min(b.y) && p.y <= a.y.max(b.y)
    }
}

/// The seed's Bowyer–Watson implementation, verbatim: hash-map duplicate
/// scan, per-insert `HashMap` cavity bookkeeping, and the full
/// triangulation assembly (edge set, adjacency, hull walk) even though
/// only the triangles are consumed — that was the cost profile of
/// `Triangulation::build` when the baseline was recorded.
mod tri {
    use super::*;

    const GHOST: usize = usize::MAX;
    const NO_TRI: usize = usize::MAX;

    #[derive(Debug, Clone, Copy)]
    struct Tri {
        v: [usize; 3],
        n: [usize; 3],
        alive: bool,
    }

    /// The assembled seed triangulation. All fields are built (to match
    /// the seed's cost) even though callers only read `triangles`.
    #[allow(dead_code)]
    pub struct SeedTriangulation {
        pub triangles: Vec<[usize; 3]>,
        pub edges: Vec<(usize, usize)>,
        pub adjacency: Vec<Vec<usize>>,
        pub hull: Vec<usize>,
        pub tri_keys: HashSet<[usize; 3]>,
    }

    impl SeedTriangulation {
        pub fn build(points: &[Point]) -> Result<Self, String> {
            let mut seen: HashMap<(u64, u64), usize> = HashMap::with_capacity(points.len());
            for (i, p) in points.iter().enumerate() {
                if !p.is_finite() {
                    return Err(format!("non-finite point at {i}"));
                }
                if seen.insert((p.x.to_bits(), p.y.to_bits()), i).is_some() {
                    return Err(format!("duplicate point at {i}"));
                }
            }
            let core = Core::run(points);
            Ok(core.finish(points))
        }
    }

    struct Core {
        pts: Vec<Point>,
        tris: Vec<Tri>,
        last: usize,
        collinear_chain: Option<Vec<usize>>,
    }

    impl Core {
        fn run(points: &[Point]) -> Core {
            let n = points.len();
            let mut core = Core {
                pts: points.to_vec(),
                tris: Vec::new(),
                last: NO_TRI,
                collinear_chain: None,
            };
            if n < 3 {
                core.collinear_chain = Some(Self::chain_order(points));
                return core;
            }
            let mut apex = None;
            for k in 2..n {
                if orient2d(points[0], points[1], points[k]) != Orientation::Collinear {
                    apex = Some(k);
                    break;
                }
            }
            let Some(apex) = apex else {
                core.collinear_chain = Some(Self::chain_order(points));
                return core;
            };
            core.init_triangle(0, 1, apex);
            for i in 2..n {
                if i == apex {
                    continue;
                }
                core.insert(i);
            }
            core
        }

        fn chain_order(points: &[Point]) -> Vec<usize> {
            let mut idx: Vec<usize> = (0..points.len()).collect();
            idx.sort_by(|&i, &j| points[i].lex_cmp(points[j]));
            idx
        }

        fn init_triangle(&mut self, i: usize, j: usize, k: usize) {
            let (a, b, c) = match orient2d(self.pts[i], self.pts[j], self.pts[k]) {
                Orientation::CounterClockwise => (i, j, k),
                Orientation::Clockwise => (i, k, j),
                #[expect(
                    clippy::unreachable,
                    reason = "frozen seed replica; the live copies in geometry and topology carry \
                              expect attributes with the non-degeneracy argument"
                )]
                Orientation::Collinear => unreachable!("seed triangle is non-degenerate"),
            };
            self.tris.push(Tri {
                v: [a, b, c],
                n: [2, 3, 1],
                alive: true,
            });
            self.tris.push(Tri {
                v: [b, a, GHOST],
                n: [3, 2, 0],
                alive: true,
            });
            self.tris.push(Tri {
                v: [c, b, GHOST],
                n: [1, 3, 0],
                alive: true,
            });
            self.tris.push(Tri {
                v: [a, c, GHOST],
                n: [2, 1, 0],
                alive: true,
            });
            self.last = 0;
        }

        fn in_conflict(&self, t: usize, p: Point) -> bool {
            let tri = &self.tris[t];
            if let Some(k) = tri.v.iter().position(|&v| v == GHOST) {
                let u = tri.v[(k + 1) % 3];
                let w = tri.v[(k + 2) % 3];
                match orient2d(self.pts[u], self.pts[w], p) {
                    Orientation::CounterClockwise => true,
                    Orientation::Clockwise => false,
                    Orientation::Collinear => strictly_between(self.pts[u], self.pts[w], p),
                }
            } else {
                let [a, b, c] = tri.v;
                incircle(self.pts[a], self.pts[b], self.pts[c], p) == CirclePosition::Inside
            }
        }

        fn locate(&self, p: Point) -> usize {
            let mut t = self.last;
            if t == NO_TRI || !self.tris[t].alive {
                t = self
                    .tris
                    .iter()
                    .position(|t| t.alive)
                    .expect("no alive triangle");
            }
            if let Some(k) = self.tris[t].v.iter().position(|&v| v == GHOST) {
                t = self.tris[t].n[k];
            }
            let limit = 4 * self.tris.len() + 16;
            let mut steps = 0;
            'walk: while steps < limit {
                steps += 1;
                let tri = &self.tris[t];
                if tri.v.contains(&GHOST) {
                    let mut g = t;
                    for _ in 0..self.tris.len() + 1 {
                        if self.in_conflict(g, p) {
                            return g;
                        }
                        #[expect(
                            clippy::unwrap_used,
                            reason = "frozen seed replica of the triangulation ghost walk; the live copy in \
                                      crates/geometry uses expect()"
                        )]
                        let k = self.tris[g].v.iter().position(|&v| v == GHOST).unwrap();
                        g = self.tris[g].n[(k + 1) % 3];
                    }
                    break 'walk;
                }
                for i in 0..3 {
                    let u = tri.v[(i + 1) % 3];
                    let w = tri.v[(i + 2) % 3];
                    if orient2d(self.pts[u], self.pts[w], p) == Orientation::Clockwise {
                        t = tri.n[i];
                        continue 'walk;
                    }
                }
                return t;
            }
            (0..self.tris.len())
                .find(|&t| self.tris[t].alive && self.in_conflict(t, p))
                .expect("insertion point conflicts with no triangle")
        }

        fn insert(&mut self, pi: usize) {
            let p = self.pts[pi];
            let seed = self.locate(p);

            let mut cavity = vec![seed];
            let mut in_cavity: HashMap<usize, bool> = HashMap::new();
            in_cavity.insert(seed, true);
            let mut stack = vec![seed];
            while let Some(t) = stack.pop() {
                for i in 0..3 {
                    let nb = self.tris[t].n[i];
                    if nb == NO_TRI || in_cavity.contains_key(&nb) {
                        continue;
                    }
                    let c = self.in_conflict(nb, p);
                    in_cavity.insert(nb, c);
                    if c {
                        cavity.push(nb);
                        stack.push(nb);
                    }
                }
            }

            struct BoundaryEdge {
                u: usize,
                w: usize,
                outside: usize,
            }
            let mut boundary = Vec::with_capacity(cavity.len() + 2);
            for &t in &cavity {
                for i in 0..3 {
                    let nb = self.tris[t].n[i];
                    let nb_in = nb != NO_TRI && *in_cavity.get(&nb).unwrap_or(&false);
                    if !nb_in {
                        boundary.push(BoundaryEdge {
                            u: self.tris[t].v[(i + 1) % 3],
                            w: self.tris[t].v[(i + 2) % 3],
                            outside: nb,
                        });
                    }
                }
            }

            for &t in &cavity {
                self.tris[t].alive = false;
            }
            let base = self.tris.len();
            let mut by_u: HashMap<usize, usize> = HashMap::with_capacity(boundary.len());
            let mut by_w: HashMap<usize, usize> = HashMap::with_capacity(boundary.len());
            for (off, e) in boundary.iter().enumerate() {
                let idx = base + off;
                self.tris.push(Tri {
                    v: [pi, e.u, e.w],
                    n: [e.outside, NO_TRI, NO_TRI],
                    alive: true,
                });
                by_u.insert(e.u, idx);
                by_w.insert(e.w, idx);
                if e.outside != NO_TRI {
                    let out = &mut self.tris[e.outside];
                    for j in 0..3 {
                        let a = out.v[(j + 1) % 3];
                        let b = out.v[(j + 2) % 3];
                        if (a == e.u && b == e.w) || (a == e.w && b == e.u) {
                            out.n[j] = idx;
                            break;
                        }
                    }
                }
            }
            for (off, e) in boundary.iter().enumerate() {
                let idx = base + off;
                self.tris[idx].n[1] = by_u[&e.w];
                self.tris[idx].n[2] = by_w[&e.u];
            }
            self.last = base;
        }

        fn finish(self, points: &[Point]) -> SeedTriangulation {
            let n = points.len();
            let mut triangles = Vec::new();
            let mut edge_set: HashSet<(usize, usize)> = HashSet::new();
            let mut tri_keys = HashSet::new();
            let mut hull = Vec::new();

            if let Some(chain) = &self.collinear_chain {
                for w in chain.windows(2) {
                    edge_set.insert(ordered(w[0], w[1]));
                }
            } else {
                for t in self.tris.iter().filter(|t| t.alive) {
                    if t.v.contains(&GHOST) {
                        continue;
                    }
                    triangles.push(t.v);
                    let mut k = t.v;
                    k.sort_unstable();
                    tri_keys.insert(k);
                    edge_set.insert(ordered(t.v[0], t.v[1]));
                    edge_set.insert(ordered(t.v[1], t.v[2]));
                    edge_set.insert(ordered(t.v[2], t.v[0]));
                }
                if let Some(start) = self
                    .tris
                    .iter()
                    .position(|t| t.alive && t.v.contains(&GHOST))
                {
                    let mut g = start;
                    loop {
                        #[expect(
                            clippy::unwrap_used,
                            reason = "frozen seed replica of the triangulation ghost walk; the live copy in \
                                      crates/geometry uses expect()"
                        )]
                        let k = self.tris[g].v.iter().position(|&v| v == GHOST).unwrap();
                        hull.push(self.tris[g].v[(k + 2) % 3]);
                        g = self.tris[g].n[(k + 1) % 3];
                        if g == start {
                            break;
                        }
                    }
                    hull.reverse();
                    if let Some(k) = hull
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &v)| v)
                        .map(|(k, _)| k)
                    {
                        hull.rotate_left(k);
                    }
                }
            }

            let mut edges: Vec<(usize, usize)> = edge_set.into_iter().collect();
            edges.sort_unstable();
            let mut adjacency = vec![Vec::new(); n];
            for &(u, v) in &edges {
                adjacency[u].push(v);
                adjacency[v].push(u);
            }
            for a in &mut adjacency {
                a.sort_unstable();
            }
            SeedTriangulation {
                triangles,
                edges,
                adjacency,
                hull,
                tri_keys,
            }
        }
    }

    #[inline]
    fn ordered(u: usize, v: usize) -> (usize, usize) {
        if u < v {
            (u, v)
        } else {
            (v, u)
        }
    }

    fn strictly_between(a: Point, b: Point, p: Point) -> bool {
        if p == a || p == b {
            return false;
        }
        p.x >= a.x.min(b.x) && p.x <= a.x.max(b.x) && p.y >= a.y.min(b.y) && p.y <= a.y.max(b.y)
    }
}
