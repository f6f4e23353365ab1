//! Delaunay triangulation via incremental Bowyer–Watson insertion.
//!
//! The implementation uses the *ghost triangle* convention: the outside of
//! the convex hull is covered by fictitious triangles sharing a symbolic
//! vertex at infinity, so point insertion (inside the hull, on its
//! boundary, or outside it) is one uniform cavity-retriangulation step.
//! All conflict decisions go through the exact predicates of
//! [`crate::predicates`], so the result is a true Delaunay triangulation
//! of the input (ties among cocircular points broken arbitrarily).

use std::collections::HashMap;
use std::fmt;

use crate::{incircle, orient2d, CirclePosition, Orientation, Point};

/// Symbolic vertex "at infinity" used by ghost triangles.
const GHOST: usize = usize::MAX;

/// A triangle of a [`Triangulation`], as three indices into the input
/// point slice, in counterclockwise order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Triangle(pub [usize; 3]);

impl Triangle {
    /// The three vertex indices, counterclockwise.
    #[inline]
    pub fn indices(&self) -> [usize; 3] {
        self.0
    }

    /// The vertex indices sorted ascending: a canonical key for
    /// order-insensitive comparisons.
    #[inline]
    pub fn sorted(&self) -> [usize; 3] {
        let mut s = self.0;
        s.sort_unstable();
        s
    }

    /// True when `v` is one of the triangle's vertices.
    #[inline]
    pub fn contains(&self, v: usize) -> bool {
        self.0.contains(&v)
    }
}

impl fmt::Display for Triangle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "△({}, {}, {})", self.0[0], self.0[1], self.0[2])
    }
}

/// Error building a [`Triangulation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TriangulationError {
    /// Two input points are bit-identical; a triangulation needs distinct
    /// sites. The payload holds the indices of the first such pair.
    DuplicatePoint {
        /// Index of the first occurrence.
        first: usize,
        /// Index of the duplicate.
        second: usize,
    },
    /// An input coordinate is NaN or infinite; the payload is the point's
    /// index.
    NonFinitePoint(usize),
}

impl fmt::Display for TriangulationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TriangulationError::DuplicatePoint { first, second } => {
                write!(f, "duplicate input points at indices {first} and {second}")
            }
            TriangulationError::NonFinitePoint(i) => {
                write!(f, "non-finite coordinate in input point at index {i}")
            }
        }
    }
}

impl std::error::Error for TriangulationError {}

/// Internal triangle record: vertices (CCW; may contain [`GHOST`]) and the
/// neighbor across the edge opposite each vertex. Vertex positions are
/// cached inline (`p[ghost]` is a dummy for ghost triangles) so the hot
/// predicates never chase the input slice, and `ghost` caches the ghost
/// vertex's index (3 when the triangle is real) so conflict checks skip
/// the vertex scan.
#[derive(Debug, Clone, Copy)]
struct Tri {
    v: [usize; 3],
    p: [Point; 3],
    n: [usize; 3],
    ghost: u8,
    alive: bool,
}

/// `ghost` value marking a real (non-ghost) triangle.
const NOT_GHOST: u8 = 3;

const NO_TRI: usize = usize::MAX;

/// A Delaunay triangulation of a set of distinct points.
///
/// Degenerate inputs are handled gracefully: fewer than three points, or
/// an entirely collinear point set, yield a triangulation with no
/// triangles whose [`edges`](Triangulation::edges) form the Delaunay
/// "chain" along the line.
///
/// # Example
/// ```
/// use geospan_geometry::{Point, Triangulation};
/// # fn main() -> Result<(), geospan_geometry::TriangulationError> {
/// let pts = vec![
///     Point::new(0.0, 0.0),
///     Point::new(4.0, 0.0),
///     Point::new(4.0, 4.0),
///     Point::new(0.0, 4.0),
///     Point::new(2.0, 2.1),
/// ];
/// let tri = Triangulation::build(&pts)?;
/// assert_eq!(tri.triangles().len(), 4);
/// assert!(tri.contains_edge(0, 4));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Triangulation {
    points: Vec<Point>,
    triangles: Vec<Triangle>,
    edges: Vec<(usize, usize)>,
    adjacency: Vec<Vec<usize>>,
    hull: Vec<usize>,
    tri_keys: std::collections::HashSet<[usize; 3]>,
}

impl Triangulation {
    /// Builds the Delaunay triangulation of `points`.
    ///
    /// # Errors
    /// Returns [`TriangulationError::DuplicatePoint`] if two points are
    /// identical and [`TriangulationError::NonFinitePoint`] for NaN or
    /// infinite coordinates.
    pub fn build(points: &[Point]) -> Result<Self, TriangulationError> {
        check_distinct_finite(points)?;
        let mut scratch = DelaunayScratch::new();
        let core = Core::run(points, &mut scratch);
        Ok(core.finish(points))
    }

    /// The input points, in their original order.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The Delaunay triangles, each counterclockwise.
    pub fn triangles(&self) -> &[Triangle] {
        &self.triangles
    }

    /// All edges as `(u, v)` pairs with `u < v`, sorted.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Indices of points adjacent to `v` in the triangulation.
    ///
    /// # Panics
    /// Panics if `v` is out of bounds.
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.adjacency[v]
    }

    /// Indices of the convex-hull vertices in counterclockwise order.
    ///
    /// Points lying on the interior of hull edges are included (they are
    /// vertices of the triangulation boundary). Empty for inputs with
    /// fewer than 3 points or entirely collinear inputs.
    pub fn hull(&self) -> &[usize] {
        &self.hull
    }

    /// True when the edge `{u, v}` is in the triangulation.
    pub fn contains_edge(&self, u: usize, v: usize) -> bool {
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.binary_search(&(a, b)).is_ok()
    }

    /// True when the triangle `{a, b, c}` (any vertex order) is in the
    /// triangulation.
    pub fn contains_triangle(&self, a: usize, b: usize, c: usize) -> bool {
        let mut k = [a, b, c];
        k.sort_unstable();
        self.tri_keys.contains(&k)
    }

    /// The triangles incident on vertex `v`.
    pub fn triangles_of(&self, v: usize) -> impl Iterator<Item = Triangle> + '_ {
        self.triangles
            .iter()
            .copied()
            .filter(move |t| t.contains(v))
    }

    /// Exhaustively verifies the Delaunay empty-circumcircle property:
    /// no input point lies strictly inside any triangle's circumcircle.
    ///
    /// Intended for tests and debugging; runs in `O(#triangles · n)`.
    pub fn is_delaunay(&self) -> bool {
        for t in &self.triangles {
            let [a, b, c] = t.indices();
            for (i, &p) in self.points.iter().enumerate() {
                if i == a || i == b || i == c {
                    continue;
                }
                if incircle(self.points[a], self.points[b], self.points[c], p)
                    == CirclePosition::Inside
                {
                    return false;
                }
            }
        }
        true
    }
}

/// Validates triangulation input: every coordinate finite, all points
/// pairwise distinct.
fn check_distinct_finite(points: &[Point]) -> Result<(), TriangulationError> {
    for (i, p) in points.iter().enumerate() {
        if !p.is_finite() {
            return Err(TriangulationError::NonFinitePoint(i));
        }
    }
    // Small inputs (the per-node neighborhoods of `ldel1`) are cheaper to
    // scan pairwise than to hash.
    if points.len() <= 48 {
        for (i, p) in points.iter().enumerate() {
            for (j, q) in points[..i].iter().enumerate() {
                if p.x.to_bits() == q.x.to_bits() && p.y.to_bits() == q.y.to_bits() {
                    return Err(TriangulationError::DuplicatePoint {
                        first: j,
                        second: i,
                    });
                }
            }
        }
        return Ok(());
    }
    let mut seen: HashMap<(u64, u64), usize> = HashMap::with_capacity(points.len());
    for (i, p) in points.iter().enumerate() {
        if let Some(&j) = seen.get(&(p.x.to_bits(), p.y.to_bits())) {
            return Err(TriangulationError::DuplicatePoint {
                first: j,
                second: i,
            });
        }
        seen.insert((p.x.to_bits(), p.y.to_bits()), i);
    }
    Ok(())
}

/// The Delaunay triangles of `points`, skipping the assembly of the full
/// [`Triangulation`] structure (edge list, adjacency, hull, triangle
/// keys).
///
/// This is the fast path for callers — `ldel1` above all — that build
/// thousands of small local triangulations and consume only the triangle
/// list; it produces exactly the triangles [`Triangulation::build`]
/// would.
///
/// # Errors
/// Same contract as [`Triangulation::build`].
pub fn delaunay_triangles(points: &[Point]) -> Result<Vec<Triangle>, TriangulationError> {
    let mut scratch = DelaunayScratch::new();
    let mut out = Vec::new();
    scratch.triangles_into(points, &mut out)?;
    Ok(out)
}

/// Reusable Bowyer–Watson working memory.
///
/// One `DelaunayScratch` amortizes every internal buffer — the triangle
/// arena, the epoch-stamped cavity marks, the flood-fill stack, the
/// boundary fan — across an arbitrary number of triangulations, so a
/// caller computing thousands of small local triangulations (the `ldel1`
/// workload: one per node) allocates O(1) per insertion at steady state
/// instead of rebuilding every buffer per call.
///
/// The mark epochs deliberately survive across calls: epochs only ever
/// increase, so a stale mark from a previous triangulation can never
/// equal the current epoch and clearing between calls is free.
///
/// # Example
/// ```
/// use geospan_geometry::{DelaunayScratch, Point};
/// let mut scratch = DelaunayScratch::new();
/// let mut tris = Vec::new();
/// for dy in [0.5, 1.0, 2.0] {
///     let pts = [
///         Point::new(0.0, 0.0),
///         Point::new(4.0, 0.0),
///         Point::new(4.0, 4.0),
///         Point::new(0.0, dy),
///     ];
///     scratch.triangles_into(&pts, &mut tris).unwrap();
///     assert_eq!(tris.len(), 2);
/// }
/// ```
#[derive(Debug, Default)]
pub struct DelaunayScratch {
    tris: Vec<Tri>,
    /// Per-triangle cavity mark, epoch-stamped so clearing is free:
    /// `(epoch, in_conflict)`.
    mark: Vec<(u32, bool)>,
    /// Current mark epoch; strictly increasing across calls.
    epoch: u32,
    cavity: Vec<usize>,
    stack: Vec<usize>,
    boundary: Vec<BoundaryEdge>,
}

impl DelaunayScratch {
    /// Creates an empty scratch; buffers grow to fit the largest input
    /// seen and stay allocated.
    pub fn new() -> Self {
        DelaunayScratch::default()
    }

    /// Computes the Delaunay triangles of `points` into `out` (cleared
    /// first), reusing this scratch's buffers.
    ///
    /// Produces exactly the triangles [`delaunay_triangles`] would — the
    /// insertion order, and hence every cocircular tie-break, is
    /// identical.
    ///
    /// # Errors
    /// Same contract as [`Triangulation::build`].
    pub fn triangles_into(
        &mut self,
        points: &[Point],
        out: &mut Vec<Triangle>,
    ) -> Result<(), TriangulationError> {
        check_distinct_finite(points)?;
        self.triangles_into_assuming_distinct(points, out);
        Ok(())
    }

    /// [`DelaunayScratch::triangles_into`] minus the input validation,
    /// for callers that have already established the points are finite
    /// and pairwise distinct (e.g. once for a whole deployment rather
    /// than once per local neighborhood).
    ///
    /// Feeding duplicate or non-finite points is a logic error; the
    /// precondition is debug-asserted.
    pub fn triangles_into_assuming_distinct(&mut self, points: &[Point], out: &mut Vec<Triangle>) {
        debug_assert!(check_distinct_finite(points).is_ok());
        out.clear();
        let collinear = Core::run(points, self).collinear_chain.is_some();
        if collinear {
            return;
        }
        out.extend(
            self.tris
                .iter()
                .filter(|t| t.alive && t.ghost == NOT_GHOST)
                .map(|t| Triangle(t.v)),
        );
    }
}

/// A boundary edge of an insertion cavity, in the retired triangle's
/// cyclic orientation, with the surviving neighbor across it. Endpoint
/// positions are carried over from the retired triangle's cache.
#[derive(Debug)]
struct BoundaryEdge {
    u: usize,
    w: usize,
    pu: Point,
    pw: Point,
    outside: usize,
}

/// The mutable Bowyer–Watson state; all growable buffers live in the
/// borrowed [`DelaunayScratch`] so they survive across builds.
struct Core<'a, 's> {
    pts: &'a [Point],
    buf: &'s mut DelaunayScratch,
    /// Hint: a recently alive triangle to start walks from.
    last: usize,
    /// Indices inserted into the structure so far.
    inserted: usize,
    /// Entirely-collinear fallback: when `Some`, holds the chain order.
    collinear_chain: Option<Vec<usize>>,
}

impl<'a, 's> Core<'a, 's> {
    fn run(points: &'a [Point], buf: &'s mut DelaunayScratch) -> Core<'a, 's> {
        let n = points.len();
        buf.tris.clear();
        // Epochs must stay strictly increasing within this run; if a
        // long-lived scratch is anywhere near wrap-around, pay one full
        // mark reset now.
        if buf.epoch as u64 + n as u64 + 16 > u32::MAX as u64 {
            buf.mark.clear();
            buf.epoch = 0;
        }
        let mut core = Core {
            pts: points,
            buf,
            last: NO_TRI,
            inserted: 0,
            collinear_chain: None,
        };
        if n < 3 {
            core.collinear_chain = Some(Self::chain_order(points));
            return core;
        }
        // Find the first point not collinear with points 0 and 1.
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

    /// Lexicographic order along the common line for degenerate inputs.
    fn chain_order(points: &[Point]) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..points.len()).collect();
        idx.sort_by(|&i, &j| points[i].lex_cmp(points[j]));
        idx
    }

    /// Seeds the structure with one real triangle and its three ghosts.
    fn init_triangle(&mut self, i: usize, j: usize, k: usize) {
        let (a, b, c) = match orient2d(self.pts[i], self.pts[j], self.pts[k]) {
            Orientation::CounterClockwise => (i, j, k),
            Orientation::Clockwise => (i, k, j),
            #[expect(
                clippy::unreachable,
                reason = "the seed triangle is pre-screened by the caller for non-collinearity"
            )]
            Orientation::Collinear => unreachable!("seed triangle is non-degenerate"),
        };
        let (pa, pb, pc) = (self.pts[a], self.pts[b], self.pts[c]);
        let dummy = Point::new(0.0, 0.0);
        // Triangle 0: (a, b, c). Ghosts: 1 across ab, 2 across bc, 3 across ca.
        self.buf.tris.push(Tri {
            v: [a, b, c],
            p: [pa, pb, pc],
            n: [2, 3, 1],
            ghost: NOT_GHOST,
            alive: true,
        });
        self.buf.tris.push(Tri {
            v: [b, a, GHOST],
            p: [pb, pa, dummy],
            n: [3, 2, 0],
            ghost: 2,
            alive: true,
        });
        self.buf.tris.push(Tri {
            v: [c, b, GHOST],
            p: [pc, pb, dummy],
            n: [1, 3, 0],
            ghost: 2,
            alive: true,
        });
        self.buf.tris.push(Tri {
            v: [a, c, GHOST],
            p: [pa, pc, dummy],
            n: [2, 1, 0],
            ghost: 2,
            alive: true,
        });
        self.last = 0;
        self.inserted = 3;
    }

    /// Does triangle `t` conflict with (require removal upon inserting) `p`?
    #[inline]
    fn in_conflict(&self, t: usize, p: Point) -> bool {
        let tri = &self.buf.tris[t];
        if tri.ghost != NOT_GHOST {
            let k = tri.ghost as usize;
            let pu = tri.p[(k + 1) % 3];
            let pw = tri.p[(k + 2) % 3];
            // Stored edge (u, w) is the reversal of the CCW hull edge
            // w -> u; p conflicts when strictly outside that hull edge...
            match orient2d(pu, pw, p) {
                Orientation::CounterClockwise => true,
                Orientation::Clockwise => false,
                // ...or exactly on the open hull edge segment.
                Orientation::Collinear => strictly_between(pu, pw, p),
            }
        } else {
            incircle(tri.p[0], tri.p[1], tri.p[2], p) == CirclePosition::Inside
        }
    }

    /// Finds some triangle in conflict with `p`, walking from the hint.
    fn locate(&self, p: Point) -> usize {
        let mut t = self.last;
        if t == NO_TRI || !self.buf.tris[t].alive {
            t = self
                .buf
                .tris
                .iter()
                .position(|t| t.alive)
                .expect("no alive triangle");
        }
        // If the hint is a ghost, step into its real neighbor.
        if self.buf.tris[t].ghost != NOT_GHOST {
            t = self.buf.tris[t].n[self.buf.tris[t].ghost as usize];
        }
        let limit = 4 * self.buf.tris.len() + 16;
        let mut steps = 0;
        'walk: while steps < limit {
            steps += 1;
            let tri = &self.buf.tris[t];
            if tri.ghost != NOT_GHOST {
                // Reached the hull: p is outside. Walk the ghost ring
                // until a conflicting ghost is found.
                let mut g = t;
                for _ in 0..self.buf.tris.len() + 1 {
                    if self.in_conflict(g, p) {
                        return g;
                    }
                    let k = self.buf.tris[g].ghost as usize;
                    g = self.buf.tris[g].n[(k + 1) % 3]; // next ghost around the hull
                }
                break 'walk;
            }
            // Step across the first edge that strictly separates p.
            for i in 0..3 {
                let pu = tri.p[(i + 1) % 3];
                let pw = tri.p[(i + 2) % 3];
                if orient2d(pu, pw, p) == Orientation::Clockwise {
                    t = tri.n[i];
                    continue 'walk;
                }
            }
            // p is inside or on this triangle: it conflicts.
            return t;
        }
        // Exceedingly rare fallback (degenerate walk cycles): scan.
        (0..self.buf.tris.len())
            .find(|&t| self.buf.tris[t].alive && self.in_conflict(t, p))
            .expect("insertion point conflicts with no triangle")
    }

    /// Inserts point index `pi` by cavity retriangulation.
    ///
    /// All bookkeeping runs on reused scratch buffers and epoch-stamped
    /// marks — no per-insert allocation or hashing — which is what makes
    /// thousands of small local triangulations (the `ldel1` workload)
    /// cheap.
    fn insert(&mut self, pi: usize) {
        let p = self.pts[pi];
        let seed = self.locate(p);
        debug_assert!(self.in_conflict(seed, p));

        // Flood-fill the conflict cavity.
        self.buf.epoch += 1;
        let epoch = self.buf.epoch;
        if self.buf.mark.len() < self.buf.tris.len() {
            let len = self.buf.tris.len();
            self.buf.mark.resize(len, (0, false));
        }
        let mut cavity = std::mem::take(&mut self.buf.cavity);
        cavity.clear();
        cavity.push(seed);
        self.buf.mark[seed] = (epoch, true);
        self.buf.stack.clear();
        self.buf.stack.push(seed);
        while let Some(t) = self.buf.stack.pop() {
            let ns = self.buf.tris[t].n;
            for &nb in &ns {
                if nb == NO_TRI || self.buf.mark[nb].0 == epoch {
                    continue;
                }
                let c = self.in_conflict(nb, p);
                self.buf.mark[nb] = (epoch, c);
                if c {
                    cavity.push(nb);
                    self.buf.stack.push(nb);
                }
            }
        }

        // Collect the boundary fan: edges of cavity triangles whose
        // neighbor lies outside the cavity, in the cavity triangle's
        // own cyclic orientation.
        let mut boundary = std::mem::take(&mut self.buf.boundary);
        boundary.clear();
        for &t in &cavity {
            let tri = self.buf.tris[t];
            for i in 0..3 {
                let nb = tri.n[i];
                let nb_in = nb != NO_TRI && self.buf.mark[nb] == (epoch, true);
                if !nb_in {
                    boundary.push(BoundaryEdge {
                        u: tri.v[(i + 1) % 3],
                        w: tri.v[(i + 2) % 3],
                        pu: tri.p[(i + 1) % 3],
                        pw: tri.p[(i + 2) % 3],
                        outside: nb,
                    });
                }
            }
        }
        debug_assert!(boundary.len() >= 3);

        // Retire the cavity and fan new triangles (pi, u, w).
        for &t in &cavity {
            self.buf.tris[t].alive = false;
        }
        let base = self.buf.tris.len();
        for (off, e) in boundary.iter().enumerate() {
            let idx = base + off;
            // `pi` is always a real vertex, so a ghost can only sit at
            // fan slot 1 (from `e.u`) or 2 (from `e.w`).
            let ghost = if e.u == GHOST {
                1
            } else if e.w == GHOST {
                2
            } else {
                NOT_GHOST
            };
            self.buf.tris.push(Tri {
                v: [pi, e.u, e.w],
                p: [p, e.pu, e.pw],
                n: [e.outside, NO_TRI, NO_TRI],
                ghost,
                alive: true,
            });
            // Point the outside neighbor back at the new triangle.
            if e.outside != NO_TRI {
                let out = &mut self.buf.tris[e.outside];
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
        // Stitch fan-internal adjacency: triangle (p,u,w) meets (p,w,x)
        // along edge (w,p) and (p,t,u) along edge (p,u). The fan is a
        // handful of triangles, so a linear scan beats a hash map.
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
            self.buf.tris[idx].n[1] = base + across_wp; // across edge (w, p)
            self.buf.tris[idx].n[2] = base + across_pu; // across edge (p, u)
        }
        self.last = base;
        self.inserted += 1;
        self.buf.cavity = cavity;
        self.buf.boundary = boundary;
    }

    /// Converts the working state into the public structure.
    fn finish(self, points: &[Point]) -> Triangulation {
        let n = points.len();
        let mut triangles = Vec::new();
        let mut edge_set: std::collections::BTreeSet<(usize, usize)> =
            std::collections::BTreeSet::new();
        let mut tri_keys = std::collections::HashSet::new();
        let mut hull = Vec::new();

        if let Some(chain) = &self.collinear_chain {
            for w in chain.windows(2) {
                edge_set.insert(ordered(w[0], w[1]));
            }
        } else {
            for t in self.buf.tris.iter().filter(|t| t.alive) {
                if t.ghost != NOT_GHOST {
                    continue;
                }
                triangles.push(Triangle(t.v));
                tri_keys.insert(Triangle(t.v).sorted());
                edge_set.insert(ordered(t.v[0], t.v[1]));
                edge_set.insert(ordered(t.v[1], t.v[2]));
                edge_set.insert(ordered(t.v[2], t.v[0]));
            }
            // Walk the ghost ring to recover the hull in CCW order.
            if let Some(start) = self
                .buf
                .tris
                .iter()
                .position(|t| t.alive && t.ghost != NOT_GHOST)
            {
                let mut g = start;
                loop {
                    let k = self.buf.tris[g].ghost as usize;
                    // Stored edge (u, w) reverses hull edge w -> u: emit w.
                    hull.push(self.buf.tris[g].v[(k + 2) % 3]);
                    g = self.buf.tris[g].n[(k + 1) % 3];
                    if g == start {
                        break;
                    }
                }
                hull.reverse(); // ghost ring visits the hull clockwise
                                // Deterministic representation: start at the smallest index.
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
        Triangulation {
            points: points.to_vec(),
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

/// Is `p` strictly inside the closed segment `ab` (given collinearity)?
fn strictly_between(a: Point, b: Point, p: Point) -> bool {
    if p == a || p == b {
        return false;
    }
    p.x >= a.x.min(b.x) && p.x <= a.x.max(b.x) && p.y >= a.y.min(b.y) && p.y <= a.y.max(b.y)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(coords: &[(f64, f64)]) -> Vec<Point> {
        coords.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let t = Triangulation::build(&[]).unwrap();
        assert!(t.triangles().is_empty());
        assert!(t.edges().is_empty());

        let t = Triangulation::build(&pts(&[(1.0, 1.0)])).unwrap();
        assert!(t.edges().is_empty());

        let t = Triangulation::build(&pts(&[(0.0, 0.0), (1.0, 0.0)])).unwrap();
        assert_eq!(t.edges(), &[(0, 1)]);
        assert!(t.triangles().is_empty());
    }

    #[test]
    fn single_triangle() {
        let t = Triangulation::build(&pts(&[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])).unwrap();
        assert_eq!(t.triangles().len(), 1);
        assert_eq!(t.edges().len(), 3);
        assert_eq!(t.hull().len(), 3);
        assert!(t.contains_triangle(2, 0, 1));
        assert!(t.is_delaunay());
    }

    #[test]
    fn duplicate_points_rejected() {
        let e = Triangulation::build(&pts(&[(0.0, 0.0), (1.0, 0.0), (0.0, 0.0)])).unwrap_err();
        assert_eq!(
            e,
            TriangulationError::DuplicatePoint {
                first: 0,
                second: 2
            }
        );
    }

    #[test]
    fn non_finite_rejected() {
        let e = Triangulation::build(&[Point::new(f64::NAN, 0.0)]).unwrap_err();
        assert_eq!(e, TriangulationError::NonFinitePoint(0));
    }

    #[test]
    fn collinear_input_yields_chain() {
        let t =
            Triangulation::build(&pts(&[(2.0, 2.0), (0.0, 0.0), (3.0, 3.0), (1.0, 1.0)])).unwrap();
        assert!(t.triangles().is_empty());
        // Chain 1 - 3 - 0 - 2 along the line.
        assert_eq!(t.edges(), &[(0, 2), (0, 3), (1, 3)]);
        assert_eq!(t.neighbors(0), &[2, 3]);
    }

    #[test]
    fn square_diagonal_follows_delaunay() {
        // The diagonal must connect the points whose opposite angles are
        // obtuse; with the fifth point nudged up, edges 0-4..3-4 appear.
        let t = Triangulation::build(&pts(&[
            (0.0, 0.0),
            (4.0, 0.0),
            (4.0, 4.0),
            (0.0, 4.0),
            (2.0, 2.1),
        ]))
        .unwrap();
        assert_eq!(t.triangles().len(), 4);
        assert!(t.is_delaunay());
        for v in 0..4 {
            assert!(t.contains_edge(v, 4));
        }
    }

    #[test]
    fn insert_point_on_hull_edge() {
        let t = Triangulation::build(&pts(&[
            (0.0, 0.0),
            (4.0, 0.0),
            (2.0, 3.0),
            (2.0, 0.0), // on the hull edge (0, 1)
        ]))
        .unwrap();
        assert_eq!(t.triangles().len(), 2);
        assert!(t.is_delaunay());
        assert!(t.contains_edge(3, 2));
        assert!(!t.contains_edge(0, 1)); // split by vertex 3
        assert_eq!(t.hull(), &[0, 3, 1, 2]);
    }

    #[test]
    fn insert_point_outside_hull_collinear_extension() {
        // Point 3 extends the bottom edge beyond vertex 1.
        let t =
            Triangulation::build(&pts(&[(0.0, 0.0), (2.0, 0.0), (1.0, 1.0), (4.0, 0.0)])).unwrap();
        assert_eq!(t.triangles().len(), 2);
        assert!(t.is_delaunay());
        assert!(t.contains_edge(1, 3));
        assert!(t.contains_edge(2, 3));
        assert!(!t.contains_edge(0, 3));
    }

    #[test]
    fn grid_with_many_collinear_and_cocircular_points() {
        let mut coords = Vec::new();
        for i in 0..6 {
            for j in 0..6 {
                coords.push((i as f64, j as f64));
            }
        }
        let t = Triangulation::build(&pts(&coords)).unwrap();
        // Euler: for n points with h on the hull: T = 2n - h - 2.
        let n = 36;
        let h = 20; // 6x6 grid boundary
        assert_eq!(t.triangles().len(), 2 * n - h - 2);
        assert!(t.is_delaunay());
    }

    #[test]
    fn random_points_are_delaunay_and_euler_consistent() {
        // Deterministic pseudo-random points (no rand dependency needed).
        let mut coords = Vec::new();
        let mut s: u64 = 0x9E3779B97F4A7C15;
        for _ in 0..200 {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = ((s >> 11) as f64) / ((1u64 << 53) as f64);
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let y = ((s >> 11) as f64) / ((1u64 << 53) as f64);
            coords.push((x * 100.0, y * 100.0));
        }
        let t = Triangulation::build(&pts(&coords)).unwrap();
        assert!(t.is_delaunay());
        let n = coords.len();
        let h = t.hull().len();
        assert_eq!(t.triangles().len(), 2 * n - h - 2);
        assert_eq!(t.edges().len(), 3 * n - h - 3);
        // Adjacency is symmetric and matches the edge list.
        for &(u, v) in t.edges() {
            assert!(t.neighbors(u).contains(&v));
            assert!(t.neighbors(v).contains(&u));
        }
    }

    #[test]
    fn cocircular_points_still_triangulate() {
        // 8 points exactly on a circle (via Pythagorean-like symmetry).
        let coords = [
            (1.0, 0.0),
            (0.0, 1.0),
            (-1.0, 0.0),
            (0.0, -1.0),
            (0.6, 0.8),
            (-0.6, 0.8),
            (-0.6, -0.8),
            (0.6, -0.8),
        ];
        let t = Triangulation::build(&pts(&coords)).unwrap();
        let n = 8;
        let h = 8;
        assert_eq!(t.triangles().len(), 2 * n - h - 2);
        assert!(t.is_delaunay()); // no point strictly inside any circle
    }

    #[test]
    fn hull_matches_convex_hull_module() {
        let coords = [
            (0.0, 0.0),
            (10.0, 1.0),
            (9.0, 9.0),
            (1.0, 10.0),
            (5.0, 5.0),
            (3.0, 4.0),
            (7.0, 2.0),
        ];
        let p = pts(&coords);
        let t = Triangulation::build(&p).unwrap();
        let mut hull = t.hull().to_vec();
        let mut expect = crate::convex_hull(&p);
        // Rotate both to start at the smallest index for comparison.
        let rot = |v: &mut Vec<usize>| {
            let k = v.iter().enumerate().min_by_key(|(_, &x)| x).unwrap().0;
            v.rotate_left(k);
        };
        rot(&mut hull);
        rot(&mut expect);
        assert_eq!(hull, expect);
    }

    #[test]
    fn triangles_of_vertex() {
        let t = Triangulation::build(&pts(&[
            (0.0, 0.0),
            (4.0, 0.0),
            (4.0, 4.0),
            (0.0, 4.0),
            (2.0, 2.1),
        ]))
        .unwrap();
        assert_eq!(t.triangles_of(4).count(), 4);
        assert_eq!(t.triangles_of(0).count(), 2);
    }
}
