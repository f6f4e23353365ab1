//! The localized Delaunay graph `LDel¹` and its planarization `PLDel`.
//!
//! Following Li, Calinescu & Wan (INFOCOM 2002), which the paper builds
//! on:
//!
//! * a triangle `△uvw` with all three edges in the unit disk graph is a
//!   **1-localized Delaunay triangle** when its circumcircle contains no
//!   vertex of `N₁(u) ∪ N₁(v) ∪ N₁(w)`; equivalently (in general
//!   position), when `△uvw` appears in all three local Delaunay
//!   triangulations `Del(N₁(u))`, `Del(N₁(v))`, `Del(N₁(w))` — which is
//!   how [`ldel1`] computes it, in `O(d log d)` per node;
//! * an UDG edge `uv` is a **Gabriel edge** when the open disk with
//!   diameter `uv` is empty of vertices;
//! * `LDel¹` consists of all Gabriel edges plus all edges of 1-localized
//!   Delaunay triangles. It has thickness 2 (at most two planar layers);
//!   [`planarized`] removes the crossings — Algorithm 3 of the paper —
//!   producing the planar spanner `PLDel` with length stretch at most
//!   `4√3/9 · π ≈ 2.42` times that of the Delaunay triangulation.
//!
//! These functions operate on any *distance-closed* embedded graph: a
//! graph that contains **every** edge between its participating nodes
//! whose length is within the transmission radius (the UDG itself, or the
//! UDG induced on the backbone nodes — `ICDS`). Under that assumption all
//! witnesses to the Gabriel/Delaunay conditions are common neighbors, and
//! the construction is genuinely 1-localized.

use geospan_geometry::{
    gabriel_test, in_circumcircle, incircle, orient2d, segments_properly_cross, CirclePosition,
    DelaunayScratch, Orientation, Point, Triangle, UniformGrid,
};
use geospan_graph::Graph;
use rayon::prelude::*;

use crate::rng::common_neighbors;

/// The output of a localized-Delaunay construction: the graph plus the
/// certifying structure (triangles and Gabriel edges).
#[derive(Debug, Clone, PartialEq)]
pub struct LocalDelaunay {
    /// The resulting topology (same vertex set as the input graph).
    pub graph: Graph,
    /// Accepted 1-localized Delaunay triangles, as ascending index
    /// triples, sorted.
    pub triangles: Vec<[usize; 3]>,
    /// Gabriel edges, `(u, v)` with `u < v`, sorted.
    pub gabriel_edges: Vec<(usize, usize)>,
}

/// Computes the (unplanarized) 1-localized Delaunay graph `LDel¹`.
///
/// `g` must be distance-closed (see the module docs); node positions must
/// be distinct.
///
/// # Panics
/// Panics if two participating nodes share a position.
///
/// # Example
/// ```
/// use geospan_graph::gen::{uniform_points, UnitDiskBuilder};
/// use geospan_topology::ldel::ldel1;
/// let pts = uniform_points(50, 100.0, 3);
/// let udg = UnitDiskBuilder::new(40.0).build(&pts);
/// let ld = ldel1(&udg);
/// // LDel¹ is a subgraph of the UDG.
/// assert!(ld.graph.edges().all(|(u, v)| udg.has_edge(u, v)));
/// ```
pub fn ldel1(g: &Graph) -> LocalDelaunay {
    let (triangles, gabriel_edges) = ldel1_parts(g);
    let graph = assemble_graph(g, &triangles, &gabriel_edges);
    LocalDelaunay {
        graph,
        triangles,
        gabriel_edges,
    }
}

/// The accepted `LDel¹` triangles (ascending triples, sorted) and Gabriel
/// edges of `g`, without assembling the result graph — [`planarized`]
/// discards triangles before ever needing one.
fn ldel1_parts(g: &Graph) -> (Vec<[usize; 3]>, Vec<(usize, usize)>) {
    let n = g.node_count();
    assert_distinct_positions(g);

    // Per node u, the triangles of Del(N1(u) ∪ {u}) *incident to u*, as
    // sorted global index triples. A triangle △abc is a 1-localized
    // Delaunay triangle exactly when all three vertices emit it:
    // membership of the key [a,b,c] in node x's local triangulation is
    // always witnessed by a triangle incident to x (the key contains x),
    // and mutual emission implies every side is a graph edge (b, c ∈
    // N1(a) whenever a emits). So the three-way membership + edge test
    // of the definition reduces to "global multiplicity == 3", computed
    // by one sort over ~6 emitted keys per node instead of per-node key
    // sorting plus binary searches into neighbors' full key lists.
    //
    // Each node's triangulation is independent — the paper's
    // `O(d log d)`-work-per-node locality — so the node range is split
    // into one contiguous chunk per worker (deterministic regardless of
    // thread count), each worker reusing one Bowyer–Watson scratch and
    // one id/point/triangle buffer set across its nodes.
    let workers = rayon::current_num_threads().max(1);
    let chunk = n.div_ceil(workers).max(1);
    let starts: Vec<usize> = (0..n.div_ceil(chunk)).map(|w| w * chunk).collect();
    // Per-chunk output: packed triangle keys + Gabriel candidate half-edges.
    type ChunkEmission = (Vec<u128>, Vec<(usize, usize)>);
    let emitted: Vec<ChunkEmission> = starts
        .into_par_iter()
        .map(|lo| {
            let hi = (lo + chunk).min(n);
            let mut scratch = DelaunayScratch::new();
            let mut ids: Vec<usize> = Vec::new();
            let mut pts: Vec<Point> = Vec::new();
            let mut tris: Vec<Triangle> = Vec::new();
            let mut out: Vec<u128> = Vec::new();
            // Gabriel candidate half-edges (see gabriel_from_candidates).
            let mut cand: Vec<(usize, usize)> = Vec::new();
            let mut local_edges: Vec<(usize, usize)> = Vec::new();
            for u in lo..hi {
                if g.degree(u) < 2 {
                    // Degenerate neighborhood: every incident edge is a
                    // Gabriel candidate, emitted twice so the two-sided
                    // count rule below cannot drop it.
                    for &v in g.neighbors(u) {
                        let e = if u < v { (u, v) } else { (v, u) };
                        cand.push(e);
                        cand.push(e);
                    }
                    continue;
                }
                ids.clear();
                ids.push(u);
                ids.extend_from_slice(g.neighbors(u));
                pts.clear();
                pts.extend(ids.iter().map(|&i| g.position(i)));
                scratch.triangles_into_assuming_distinct(&pts, &mut tris);
                if tris.is_empty() {
                    // Entirely collinear neighborhood: the triangulation
                    // carries no triangles, so fall back to candidate
                    // status for every incident edge (double emission,
                    // as above).
                    for &v in g.neighbors(u) {
                        let e = if u < v { (u, v) } else { (v, u) };
                        cand.push(e);
                        cand.push(e);
                    }
                    continue;
                }
                local_edges.clear();
                for t in &tris {
                    let [a, b, c] = t.indices();
                    // u is local index 0.
                    if a == 0 || b == 0 || c == 0 {
                        let mut key = [ids[a], ids[b], ids[c]];
                        key.sort_unstable();
                        out.push(pack_key(key));
                        // The two triangle sides incident to u are local
                        // Delaunay edges of u: Gabriel candidates.
                        let (x, y) = if a == 0 {
                            (ids[b], ids[c])
                        } else if b == 0 {
                            (ids[a], ids[c])
                        } else {
                            (ids[a], ids[b])
                        };
                        local_edges.push(if u < x { (u, x) } else { (x, u) });
                        local_edges.push(if u < y { (u, y) } else { (y, u) });
                    }
                }
                // An edge sits in up to two incident triangles; dedup so
                // each endpoint contributes at most one emission.
                local_edges.sort_unstable();
                local_edges.dedup();
                cand.extend_from_slice(&local_edges);
            }
            (out, cand)
        })
        .collect();
    let mut keys: Vec<u128> = Vec::new();
    let mut cand: Vec<(usize, usize)> = Vec::new();
    for (k, c) in emitted {
        keys.extend_from_slice(&k);
        cand.extend_from_slice(&c);
    }
    keys.sort_unstable();

    // Accept keys emitted by all three vertices (each vertex emits a
    // given key at most once, so runs have length ≤ 3). `keys` is
    // sorted, and the packing is order-preserving, so the accepted list
    // comes out sorted.
    let mut triangles: Vec<[usize; 3]> = Vec::new();
    let mut i = 0;
    while i < keys.len() {
        let mut j = i + 1;
        while j < keys.len() && keys[j] == keys[i] {
            j += 1;
        }
        if j - i == 3 {
            triangles.push(unpack_key(keys[i]));
        }
        i = j;
    }
    debug_assert!(triangles.is_sorted());

    (triangles, gabriel_from_candidates(g, cand))
}

/// Filters Gabriel candidate half-edges down to the actual Gabriel edges.
///
/// Correctness of the candidate restriction: on a distance-closed graph
/// every blocker of an edge `uv` lies within the transmission radius of
/// both endpoints, so `uv` is Gabriel iff its diameter disk is empty of
/// `N₁(u)` (equivalently `N₁(v)`) — and then `uv` is a Gabriel edge, hence
/// a Delaunay edge, of *both* local triangulations. Every Delaunay edge
/// incident to `u` lies in a triangle incident to `u`, so non-degenerate
/// nodes emit all their Gabriel edges via `ldel1_parts`' incident
/// triangles; degenerate (collinear or degree < 2) neighborhoods emit all
/// incident edges twice instead. An edge emitted by fewer than two
/// one-sided passes is therefore provably non-Gabriel and is never
/// tested, which cuts the per-edge common-neighbor scans to the local
/// Delaunay edge set instead of the whole graph.
///
/// Produces exactly the sorted edge list the full per-edge scan would.
fn gabriel_from_candidates(g: &Graph, mut cand: Vec<(usize, usize)>) -> Vec<(usize, usize)> {
    cand.sort_unstable();
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut i = 0;
    while i < cand.len() {
        let mut j = i + 1;
        while j < cand.len() && cand[j] == cand[i] {
            j += 1;
        }
        if j - i >= 2 {
            edges.push(cand[i]);
        }
        i = j;
    }
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

/// Packs an ascending index triple into one integer whose natural order
/// matches the lexicographic triple order, so the global acceptance sort
/// compares single `u128`s instead of `[usize; 3]`s element by element.
/// Node ids are bounded by the `u32` arena id space.
#[inline]
fn pack_key([a, b, c]: [usize; 3]) -> u128 {
    debug_assert!(c <= u32::MAX as usize);
    ((a as u128) << 64) | ((b as u128) << 32) | (c as u128)
}

/// Inverse of [`pack_key`].
#[inline]
fn unpack_key(k: u128) -> [usize; 3] {
    [
        (k >> 64) as usize,
        ((k >> 32) & 0xFFFF_FFFF) as usize,
        (k & 0xFFFF_FFFF) as usize,
    ]
}

/// Builds the result graph from triangle sides plus Gabriel edges in one
/// bulk pass (no per-edge sorted inserts).
fn assemble_graph(g: &Graph, triangles: &[[usize; 3]], gabriel_edges: &[(usize, usize)]) -> Graph {
    let mut edges: Vec<(usize, usize)> =
        Vec::with_capacity(gabriel_edges.len() + 3 * triangles.len());
    edges.extend_from_slice(gabriel_edges);
    for &[a, b, c] in triangles {
        edges.push((a, b));
        edges.push((b, c));
        edges.push((a, c));
    }
    Graph::from_sorted_edges(g.points().to_vec(), edges)
}

/// Panics unless all node positions are pairwise distinct (the local
/// triangulations assume it; checking once globally is `O(n log n)`
/// instead of `O(deg²)` per node).
fn assert_distinct_positions(g: &Graph) {
    let mut bits: Vec<(u64, u64)> = g
        .points()
        .iter()
        .map(|p| {
            assert!(p.is_finite(), "node positions must be finite");
            (p.x.to_bits(), p.y.to_bits())
        })
        .collect();
    bits.sort_unstable();
    assert!(
        bits.windows(2).all(|w| w[0] != w[1]),
        "distinct node positions required"
    );
}

/// The planarized localized Delaunay graph `PLDel` (Algorithm 3 of the
/// paper, centralized reference implementation).
///
/// Starting from [`ldel1`], a triangle is discarded when it intersects
/// another accepted triangle **and** its circumcircle contains a vertex of
/// that other triangle; the Gabriel edges and the edges of the surviving
/// triangles form a plane graph.
///
/// # Panics
/// Panics if two participating nodes share a position.
pub fn planarized(g: &Graph) -> LocalDelaunay {
    let (triangles, gabriel_edges) = ldel1_parts(g);
    planarize_parts(g, triangles, gabriel_edges)
}

/// Planarizes an already-computed `LDel¹` (useful when the caller needs
/// both the raw and the planar structure).
pub fn planarize(g: &Graph, raw: LocalDelaunay) -> LocalDelaunay {
    planarize_parts(g, raw.triangles, raw.gabriel_edges)
}

fn planarize_parts(
    g: &Graph,
    tris: Vec<[usize; 3]>,
    gabriel_edges: Vec<(usize, usize)>,
) -> LocalDelaunay {
    let m = tris.len();

    // Vertex positions fetched once per triangle (the pair sweep below
    // revisits each triangle many times), plus a CCW-oriented copy so the
    // circumcircle test is a single `incircle` call instead of re-deriving
    // the orientation pair by pair.
    let tpts: Vec<[Point; 3]> = tris
        .iter()
        .map(|t| [g.position(t[0]), g.position(t[1]), g.position(t[2])])
        .collect();
    let ccw: Vec<[Point; 3]> = tpts
        .iter()
        .map(|&[a, b, c]| match orient2d(a, b, c) {
            Orientation::CounterClockwise => [a, b, c],
            Orientation::Clockwise => [a, c, b],
            #[expect(
                clippy::unreachable,
                reason = "accepted triangles passed the exact in-circle test which rejects degenerates"
            )]
            Orientation::Collinear => unreachable!("accepted Delaunay triangle is degenerate"),
        })
        .collect();

    // Per-edge bounding boxes (edges (0,1), (1,2), (0,2)): a proper
    // crossing implies overlapping closed boxes, so most of the 9 exact
    // segment tests per candidate pair are rejected by four comparisons.
    let eboxes: Vec<[EdgeBox; 3]> = tpts
        .iter()
        .map(|&[p0, p1, p2]| [edge_box(p0, p1), edge_box(p1, p2), edge_box(p0, p2)])
        .collect();

    // Every LDel¹ triangle has sides within the transmission radius, so a
    // uniform grid over the triangle bounding boxes (cell ≈ that radius,
    // derived from the largest box) yields each potentially-crossing pair
    // exactly once, in near-linear total time.
    let boxes: Vec<(Point, Point)> = tpts
        .iter()
        .map(|&[p0, p1, p2]| {
            (
                Point::new(p0.x.min(p1.x).min(p2.x), p0.y.min(p1.y).min(p2.y)),
                Point::new(p0.x.max(p1.x).max(p2.x), p0.y.max(p1.y).max(p2.y)),
            )
        })
        .collect();

    // Stream the candidate pairs straight into the removal flags: the
    // removal condition is a monotone OR over pairs, so visit order
    // cannot affect the outcome, and skipping the geometry once both
    // flags are set (or when the boxes don't even intersect — a proper
    // crossing implies overlapping bounding boxes) is output-preserving.
    // Streaming keeps the planarize sweep allocation-free per pair where
    // materializing + sorting the pair list dominated the old running
    // time at scale.
    let mut removed = vec![false; m];
    UniformGrid::from_boxes(&boxes, None).for_each_candidate_pair(|i, j| {
        if removed[i] && removed[j] {
            return;
        }
        let (ilo, ihi) = boxes[i];
        let (jlo, jhi) = boxes[j];
        if ilo.x > jhi.x || jlo.x > ihi.x || ilo.y > jhi.y || jlo.y > ihi.y {
            return;
        }
        if triangles_cross(&tpts[i], &tpts[j], &eboxes[i], &eboxes[j]) {
            if !removed[i] && circum_contains_any(&ccw[i], tris[i], tris[j], &tpts[j]) {
                removed[i] = true;
            }
            if !removed[j] && circum_contains_any(&ccw[j], tris[j], tris[i], &tpts[i]) {
                removed[j] = true;
            }
        }
    });

    let triangles: Vec<[usize; 3]> = tris
        .iter()
        .zip(&removed)
        .filter(|(_, &r)| !r)
        .map(|(&t, _)| t)
        .collect();
    let graph = assemble_graph(g, &triangles, &gabriel_edges);
    #[cfg(feature = "invariant-checks")]
    assert!(
        geospan_graph::planarity::is_plane_embedding(&graph),
        "PLDel output is not a plane embedding"
    );
    LocalDelaunay {
        graph,
        triangles,
        gabriel_edges,
    }
}

/// The `k`-localized Delaunay graph by direct definition: Gabriel edges
/// plus triangles with mutually adjacent vertices whose circumcircle is
/// empty of `N_k(u) ∪ N_k(v) ∪ N_k(w)`.
///
/// This is the reference oracle for tests (`LDel^k` is planar for
/// `k >= 2`); it enumerates all UDG triangles and costs `O(n · Δ³)` — use
/// [`ldel1`]/[`planarized`] for real workloads. Collinear triples are not
/// triangles and are skipped.
///
/// On cocircular layouts the definition accepts every triangle of a tie
/// (both diagonals of a grid square), where [`ldel1`]'s local
/// triangulations keep one; elsewhere `ldel_k(g, 1)` equals [`ldel1`].
///
/// # Panics
/// Panics if `k == 0`.
pub fn ldel_k(g: &Graph, k: usize) -> LocalDelaunay {
    assert!(k >= 1, "LDel^k needs k >= 1");
    let n = g.node_count();
    // k-hop neighborhoods.
    let hoods: Vec<Vec<usize>> = (0..n).map(|u| k_hop_neighborhood(g, u, k)).collect();

    let mut triangles = Vec::new();
    for u in 0..n {
        let nu = g.neighbors(u);
        for (i, &v) in nu.iter().enumerate() {
            if v < u {
                continue;
            }
            for &w in &nu[i + 1..] {
                let (pu, pv, pw) = (g.position(u), g.position(v), g.position(w));
                if w < u || !g.has_edge(v, w) || orient2d(pu, pv, pw) == Orientation::Collinear {
                    continue;
                }
                // Union of the three k-neighborhoods.
                let mut witnesses: Vec<usize> = hoods[u]
                    .iter()
                    .chain(&hoods[v])
                    .chain(&hoods[w])
                    .copied()
                    .collect();
                witnesses.sort_unstable();
                witnesses.dedup();
                let empty = witnesses.iter().all(|&x| {
                    x == u
                        || x == v
                        || x == w
                        || in_circumcircle(pu, pv, pw, g.position(x)) != CirclePosition::Inside
                });
                if empty {
                    triangles.push([u, v, w]);
                }
            }
        }
    }
    triangles.sort_unstable();

    let gabriel_edges = gabriel_edge_list(g);
    let graph = assemble_graph(g, &triangles, &gabriel_edges);
    LocalDelaunay {
        graph,
        triangles,
        gabriel_edges,
    }
}

/// Algorithm 3 by direct definition: over all pairs of `raw`'s
/// triangles, a triangle is removed when it properly crosses another and
/// its closed circumcircle contains a vertex of that other triangle — the
/// rule [`planarize`] applies to grid-indexed candidate pairs.
///
/// This is the reference oracle for tests and costs `O(T²)` in the
/// triangle count `T`; pairs with disjoint bounding boxes are skipped,
/// which cannot change the output because a proper crossing implies
/// overlapping boxes.
pub fn planarize_by_definition(g: &Graph, raw: LocalDelaunay) -> LocalDelaunay {
    let tris = &raw.triangles;
    let pts: Vec<[Point; 3]> = tris.iter().map(|t| t.map(|v| g.position(v))).collect();
    let boxes: Vec<(f64, f64, f64, f64)> = pts
        .iter()
        .map(|&[a, b, c]| {
            (
                a.x.min(b.x).min(c.x),
                a.x.max(b.x).max(c.x),
                a.y.min(b.y).min(c.y),
                a.y.max(b.y).max(c.y),
            )
        })
        .collect();
    let removed: Vec<bool> = (0..tris.len())
        .into_par_iter()
        .map(|i| {
            let (ix0, ix1, iy0, iy1) = boxes[i];
            (0..tris.len()).any(|j| {
                let (jx0, jx1, jy0, jy1) = boxes[j];
                if ix0 > jx1 || jx0 > ix1 || iy0 > jy1 || jy0 > iy1 {
                    return false;
                }
                let [a, b, c] = pts[i];
                let crosses = [(a, b), (b, c), (a, c)].iter().any(|&(p, q)| {
                    let [x, y, z] = pts[j];
                    [(x, y), (y, z), (x, z)]
                        .iter()
                        .any(|&(r, s)| segments_properly_cross(p, q, r, s))
                });
                crosses
                    && (0..3).any(|k| {
                        !tris[i].contains(&tris[j][k])
                            && in_circumcircle(a, b, c, pts[j][k]) != CirclePosition::Outside
                    })
            })
        })
        .collect();
    let triangles: Vec<[usize; 3]> = tris
        .iter()
        .zip(&removed)
        .filter(|(_, &r)| !r)
        .map(|(&t, _)| t)
        .collect();
    let graph = assemble_graph(g, &triangles, &raw.gabriel_edges);
    LocalDelaunay {
        graph,
        triangles,
        gabriel_edges: raw.gabriel_edges,
    }
}

/// All Gabriel edges of a distance-closed graph, `(u, v)` with `u < v`.
///
/// The per-edge emptiness test only reads shared state, so the edges are
/// tested in parallel; the keep-mask preserves the sorted edge order.
fn gabriel_edge_list(g: &Graph) -> Vec<(usize, usize)> {
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

/// Closed bounding box of a segment: `(min x, max x, min y, max y)`.
type EdgeBox = (f64, f64, f64, f64);

#[inline]
fn edge_box(a: Point, b: Point) -> EdgeBox {
    (a.x.min(b.x), a.x.max(b.x), a.y.min(b.y), a.y.max(b.y))
}

/// Do two triangles (given by cached vertex positions and per-edge
/// bounding boxes) properly cross (some edge of one crosses some edge of
/// the other)?
fn triangles_cross(t1: &[Point; 3], t2: &[Point; 3], b1: &[EdgeBox; 3], b2: &[EdgeBox; 3]) -> bool {
    const E: [(usize, usize); 3] = [(0, 1), (1, 2), (0, 2)];
    for (ei, &(i, j)) in E.iter().enumerate() {
        let (ix0, ix1, iy0, iy1) = b1[ei];
        for (ej, &(p, q)) in E.iter().enumerate() {
            let (jx0, jx1, jy0, jy1) = b2[ej];
            // A proper crossing is a common point of both closed
            // segments, so disjoint boxes cannot cross.
            if ix0 > jx1 || jx0 > ix1 || iy0 > jy1 || jy0 > iy1 {
                continue;
            }
            if segments_properly_cross(t1[i], t1[j], t2[p], t2[q]) {
                return true;
            }
        }
    }
    false
}

/// Is any vertex of `other` inside or on the circumcircle of the triangle
/// whose CCW-oriented positions are `ccw_t` (vertex ids `t`)?
///
/// Boundary points count as contained so that exactly-cocircular crossing
/// pairs (possible on degenerate deployments such as perfect grids)
/// remove each other and the planarity guarantee survives ties.
fn circum_contains_any(
    ccw_t: &[Point; 3],
    t: [usize; 3],
    other: [usize; 3],
    other_pts: &[Point; 3],
) -> bool {
    (0..3).any(|k| {
        !t.contains(&other[k])
            && incircle(ccw_t[0], ccw_t[1], ccw_t[2], other_pts[k]) != CirclePosition::Outside
    })
}

/// Nodes within `k` hops of `u`, including `u`.
fn k_hop_neighborhood(g: &Graph, u: usize, k: usize) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.node_count()];
    dist[u] = 0;
    let mut frontier = vec![u];
    let mut all = vec![u];
    for d in 1..=k {
        let mut next = Vec::new();
        for &x in &frontier {
            for &y in g.neighbors(x) {
                if dist[y] == usize::MAX {
                    dist[y] = d;
                    next.push(y);
                    all.push(y);
                }
            }
        }
        frontier = next;
    }
    all.sort_unstable();
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gabriel, unit_delaunay};
    use geospan_graph::gen::{connected_unit_disk, uniform_points, UnitDiskBuilder};
    use geospan_graph::planarity::{crossing_count, is_plane_embedding};
    use geospan_graph::stretch::{stretch_factors, StretchOptions};

    fn udg(seed: u64) -> Graph {
        let pts = uniform_points(70, 100.0, seed);
        UnitDiskBuilder::new(35.0).build(&pts)
    }

    #[test]
    fn gabriel_subset_of_ldel1() {
        for seed in 0..4 {
            let g = udg(seed);
            let gg = gabriel(&g);
            let ld = ldel1(&g);
            for (u, v) in gg.edges() {
                assert!(ld.graph.has_edge(u, v), "seed {seed}: GG edge ({u},{v})");
            }
        }
    }

    #[test]
    fn ldel1_subgraph_of_udg() {
        for seed in 0..4 {
            let g = udg(seed + 4);
            let ld = ldel1(&g);
            for (u, v) in ld.graph.edges() {
                assert!(g.has_edge(u, v));
            }
            // And each accepted triangle has all edges in the result.
            for &[a, b, c] in &ld.triangles {
                assert!(ld.graph.has_edge(a, b));
                assert!(ld.graph.has_edge(b, c));
                assert!(ld.graph.has_edge(a, c));
            }
        }
    }

    #[test]
    fn planarized_is_plane_and_connected() {
        for seed in 0..6 {
            let (_pts, g, _s) = connected_unit_disk(60, 100.0, 35.0, seed * 100);
            let pl = planarized(&g);
            assert!(
                is_plane_embedding(&pl.graph),
                "seed {seed}: {} crossings",
                crossing_count(&pl.graph)
            );
            assert!(pl.graph.is_connected(), "seed {seed}");
        }
    }

    #[test]
    fn planarized_contains_unit_delaunay() {
        // PLDel ⊇ UDel is the key containment behind the spanner proof.
        for seed in 0..4 {
            let (_pts, g, _s) = connected_unit_disk(50, 100.0, 35.0, seed * 7 + 1);
            let udel = unit_delaunay(&g);
            let pl = planarized(&g);
            for (u, v) in udel.edges() {
                assert!(
                    pl.graph.has_edge(u, v),
                    "seed {seed}: UDel edge ({u},{v}) missing from PLDel"
                );
            }
        }
    }

    #[test]
    fn planarized_length_stretch_is_small() {
        let (_pts, g, _s) = connected_unit_disk(80, 100.0, 30.0, 12);
        let pl = planarized(&g);
        let r = stretch_factors(&g, &pl.graph, StretchOptions::default());
        assert_eq!(r.disconnected_pairs, 0);
        // Theory: <= 2.42 relative to UDel; empirically well under 2.5
        // relative to the UDG itself on random instances.
        assert!(r.length_max < 2.5, "length stretch {}", r.length_max);
    }

    #[test]
    fn ldel2_is_planar_without_planarization() {
        // LDel^k is planar for k >= 2 (Li-Calinescu-Wan theorem).
        for seed in 0..3 {
            let (_pts, g, _s) = connected_unit_disk(40, 100.0, 35.0, seed * 13 + 5);
            let ld2 = ldel_k(&g, 2);
            assert!(is_plane_embedding(&ld2.graph), "seed {seed}");
        }
    }

    #[test]
    fn ldel1_by_definition_matches_local_triangulation_route() {
        // The membership-based fast path equals the direct definition.
        for seed in 0..3 {
            let (_pts, g, _s) = connected_unit_disk(35, 100.0, 40.0, seed * 31 + 2);
            let fast = ldel1(&g);
            let slow = ldel_k(&g, 1);
            assert_eq!(fast.triangles, slow.triangles, "seed {seed}");
            assert_eq!(fast.gabriel_edges, slow.gabriel_edges);
            let fe: Vec<_> = fast.graph.edges().collect();
            let se: Vec<_> = slow.graph.edges().collect();
            assert_eq!(fe, se, "seed {seed}");
        }
    }

    #[test]
    fn ldel_k_skips_collinear_triples() {
        // A line and an exact grid both hold collinear mutually adjacent
        // triples; they are not triangles and must not reach the
        // circumcircle test.
        let line: Vec<_> = (0..6)
            .map(|i| geospan_graph::Point::new(0.0, i as f64 * 20.0))
            .collect();
        let g = UnitDiskBuilder::new(45.0).build(&line);
        let ld = ldel_k(&g, 1);
        assert!(ld.triangles.is_empty());
        assert_eq!(ld.gabriel_edges, ldel1(&g).gabriel_edges);

        let grid = geospan_graph::gen::perturbed_grid(4, 4, 20.0, 0.0, 3);
        let g = UnitDiskBuilder::new(45.0).build(&grid);
        let ld = ldel_k(&g, 1);
        assert!(ld.triangles.iter().all(|&[a, b, c]| {
            orient2d(g.position(a), g.position(b), g.position(c)) != Orientation::Collinear
        }));
    }

    #[test]
    fn planarization_only_removes_triangles() {
        let g = udg(9);
        let raw = ldel1(&g);
        let pl = planarize(&g, raw.clone());
        assert!(pl.triangles.len() <= raw.triangles.len());
        for t in &pl.triangles {
            assert!(raw.triangles.contains(t));
        }
        assert_eq!(pl.gabriel_edges, raw.gabriel_edges);
    }

    #[test]
    fn degenerate_inputs() {
        // Two nodes: a single Gabriel edge, no triangles.
        let g = UnitDiskBuilder::new(2.0).build(&[
            geospan_graph::Point::new(0.0, 0.0),
            geospan_graph::Point::new(1.0, 0.0),
        ]);
        let ld = planarized(&g);
        assert_eq!(ld.graph.edge_count(), 1);
        assert!(ld.triangles.is_empty());
        // Empty graph.
        let g = Graph::new(vec![]);
        let ld = planarized(&g);
        assert_eq!(ld.graph.edge_count(), 0);
    }
}
