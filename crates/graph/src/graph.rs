//! The embedded-graph representation shared by all topologies.

use geospan_geometry::Point;

/// An undirected graph embedded in the plane.
///
/// Nodes are identified by their index into the position slice; all
/// topologies derived from one deployment share the same vertex set (and
/// hence the same indices), differing only in their edge sets. This makes
/// comparisons — stretch factors, degree statistics — direct.
///
/// Neighbor lists are kept sorted, so [`Graph::has_edge`] is
/// `O(log degree)` and iteration order is deterministic.
///
/// # Example
/// ```
/// use geospan_graph::{Graph, Point};
///
/// let mut g = Graph::new(vec![
///     Point::new(0.0, 0.0),
///     Point::new(1.0, 0.0),
///     Point::new(0.0, 1.0),
/// ]);
/// g.add_edge(0, 1);
/// g.add_edge(1, 2);
/// assert_eq!(g.edge_count(), 2);
/// assert!(g.has_edge(0, 1));
/// assert!(!g.has_edge(0, 2));
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    points: Vec<Point>,
    adjacency: Vec<Vec<usize>>,
    edge_count: usize,
}

impl Graph {
    /// Creates an edgeless graph on the given node positions.
    pub fn new(points: Vec<Point>) -> Self {
        let n = points.len();
        Graph {
            points,
            adjacency: vec![Vec::new(); n],
            edge_count: 0,
        }
    }

    /// Creates a graph with the given positions and edges.
    ///
    /// Duplicate edges are ignored.
    ///
    /// # Panics
    /// Panics on out-of-bounds endpoints or self-loops.
    pub fn with_edges(points: Vec<Point>, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut g = Graph::new(points);
        for (u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Creates a graph from a bulk edge list in one pass: canonicalize,
    /// sort, dedup, then fill exact-capacity adjacency rows.
    ///
    /// This is the fast path for topology builders that already hold
    /// their full edge set: `with_edges` pays `O(degree)` per insertion
    /// for the sorted-insert shifting in [`Graph::add_edge`], while this
    /// constructor pays one `O(m log m)` sort total and never moves an
    /// adjacency entry twice. The edges may arrive in any order and
    /// orientation; duplicates are ignored.
    ///
    /// # Panics
    /// Panics on out-of-bounds endpoints or self-loops.
    pub fn from_sorted_edges(points: Vec<Point>, edges: Vec<(usize, usize)>) -> Self {
        let n = points.len();
        let mut edges: Vec<(usize, usize)> = edges
            .into_iter()
            .map(|(u, v)| {
                assert!(u != v, "self-loop {u} is not a wireless link");
                assert!(
                    u < n && v < n,
                    "edge ({u}, {v}) out of bounds for {n} nodes"
                );
                (u.min(v), u.max(v))
            })
            .collect();
        edges.sort_unstable();
        edges.dedup();
        let mut degree = vec![0usize; n];
        for &(u, v) in &edges {
            degree[u] += 1;
            degree[v] += 1;
        }
        let mut adjacency: Vec<Vec<usize>> =
            degree.iter().map(|&d| Vec::with_capacity(d)).collect();
        // With edges sorted by (min, max), a forward pass over second
        // components fills each row's smaller-than-self neighbors in
        // ascending order, and a second forward pass appends the
        // larger-than-self neighbors, also ascending — every row comes
        // out sorted without a single shift or per-row sort.
        for &(u, v) in &edges {
            adjacency[v].push(u);
        }
        for &(u, v) in &edges {
            adjacency[u].push(v);
        }
        Graph {
            points,
            edge_count: edges.len(),
            adjacency,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.points.len()
    }

    /// Number of (undirected) edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The node positions, indexable by node id.
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Position of node `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn position(&self, v: usize) -> Point {
        self.points[v]
    }

    /// Sorted neighbor list of node `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.adjacency[v]
    }

    /// Degree of node `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.adjacency[v].len()
    }

    /// True when the undirected edge `{u, v}` is present.
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adjacency[u].binary_search(&v).is_ok()
    }

    /// Appends a new isolated node at `p`, returning its index.
    ///
    /// Supports incremental maintenance (a node powering up); existing
    /// indices are unaffected.
    pub fn push_node(&mut self, p: Point) -> usize {
        self.points.push(p);
        self.adjacency.push(Vec::new());
        self.points.len() - 1
    }

    /// Inserts the undirected edge `{u, v}`; returns `false` if it was
    /// already present.
    ///
    /// # Panics
    /// Panics on out-of-bounds endpoints or when `u == v`.
    pub fn add_edge(&mut self, u: usize, v: usize) -> bool {
        assert!(u != v, "self-loop {u} is not a wireless link");
        assert!(
            u < self.points.len() && v < self.points.len(),
            "edge ({u}, {v}) out of bounds for {} nodes",
            self.points.len()
        );
        match self.adjacency[u].binary_search(&v) {
            Ok(_) => false,
            Err(iu) => {
                self.adjacency[u].insert(iu, v);
                let iv = self.adjacency[v]
                    .binary_search(&u)
                    .expect_err("adjacency is symmetric: u is absent from v's list too");
                self.adjacency[v].insert(iv, u);
                self.edge_count += 1;
                true
            }
        }
    }

    /// Removes the undirected edge `{u, v}`; returns `false` if it was
    /// absent.
    ///
    /// # Panics
    /// Panics on out-of-bounds endpoints.
    pub fn remove_edge(&mut self, u: usize, v: usize) -> bool {
        match self.adjacency[u].binary_search(&v) {
            Err(_) => false,
            Ok(iu) => {
                self.adjacency[u].remove(iu);
                let iv = self.adjacency[v]
                    .binary_search(&u)
                    .expect("adjacency lists mirror each other");
                self.adjacency[v].remove(iv);
                self.edge_count -= 1;
                true
            }
        }
    }

    /// Euclidean length of the edge (or non-edge) `{u, v}`.
    ///
    /// # Panics
    /// Panics on out-of-bounds endpoints.
    #[inline]
    pub fn edge_length(&self, u: usize, v: usize) -> f64 {
        self.points[u].distance(self.points[v])
    }

    /// All edges as `(u, v)` pairs with `u < v`, in sorted order.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.adjacency
            .iter()
            .enumerate()
            .flat_map(|(u, nbrs)| nbrs.iter().filter(move |&&v| u < v).map(move |&v| (u, v)))
    }

    /// An edgeless copy sharing this graph's vertex set.
    pub fn same_vertices(&self) -> Graph {
        Graph::new(self.points.clone())
    }

    /// The subgraph keeping only edges whose two endpoints satisfy `keep`.
    ///
    /// The vertex set (and so the node indices) is unchanged.
    pub fn filter_edges(&self, mut keep: impl FnMut(usize, usize) -> bool) -> Graph {
        let mut g = self.same_vertices();
        for (u, v) in self.edges() {
            if keep(u, v) {
                g.add_edge(u, v);
            }
        }
        g
    }

    /// The union of this graph's edges with `other`'s (same vertex set).
    ///
    /// # Panics
    /// Panics if the two graphs have different node counts.
    pub fn union(&self, other: &Graph) -> Graph {
        assert_eq!(
            self.node_count(),
            other.node_count(),
            "graph union requires a shared vertex set"
        );
        let mut g = self.clone();
        for (u, v) in other.edges() {
            g.add_edge(u, v);
        }
        g
    }

    /// True when every node is reachable from every other.
    ///
    /// The empty graph and the single-node graph are connected.
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &v in self.neighbors(u) {
                if !seen[v] {
                    seen[v] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == n
    }

    /// Connected components as sorted lists of node indices, largest
    /// first (ties broken by smallest member).
    pub fn components(&self) -> Vec<Vec<usize>> {
        let n = self.node_count();
        let mut comp = vec![usize::MAX; n];
        let mut comps: Vec<Vec<usize>> = Vec::new();
        for s in 0..n {
            if comp[s] != usize::MAX {
                continue;
            }
            let id = comps.len();
            let mut members = vec![s];
            comp[s] = id;
            let mut stack = vec![s];
            while let Some(u) = stack.pop() {
                for &v in self.neighbors(u) {
                    if comp[v] == usize::MAX {
                        comp[v] = id;
                        members.push(v);
                        stack.push(v);
                    }
                }
            }
            members.sort_unstable();
            comps.push(members);
        }
        comps.sort_by(|a, b| b.len().cmp(&a.len()).then(a[0].cmp(&b[0])));
        comps
    }

    /// Total Euclidean length of all edges.
    pub fn total_edge_length(&self) -> f64 {
        self.edges().map(|(u, v)| self.edge_length(u, v)).sum()
    }

    /// Heap bytes held by this structure (points + adjacency capacity),
    /// comparable with [`crate::CsrGraph::memory_bytes`].
    pub fn memory_bytes(&self) -> usize {
        self.points.len() * std::mem::size_of::<Point>()
            + self.adjacency.capacity() * std::mem::size_of::<Vec<usize>>()
            + self
                .adjacency
                .iter()
                .map(|row| row.capacity() * std::mem::size_of::<usize>())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> Graph {
        Graph::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ])
    }

    #[test]
    fn add_and_remove_edges() {
        let mut g = square();
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(1, 0)); // duplicate, either orientation
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(1, 0));
        assert!(g.remove_edge(0, 1));
        assert!(!g.remove_edge(0, 1));
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loops_rejected() {
        square().add_edge(2, 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_rejected() {
        square().add_edge(0, 9);
    }

    #[test]
    fn neighbors_stay_sorted() {
        let mut g = square();
        g.add_edge(2, 3);
        g.add_edge(2, 0);
        g.add_edge(2, 1);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.degree(2), 3);
    }

    #[test]
    fn edges_iterator_is_sorted_and_unique() {
        let mut g = square();
        g.add_edge(3, 1);
        g.add_edge(0, 2);
        g.add_edge(0, 1);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3)]);
    }

    #[test]
    fn connectivity_and_components() {
        let mut g = square();
        assert!(!g.is_connected());
        assert_eq!(g.components().len(), 4);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        let comps = g.components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![0, 1]); // tie broken by smallest member
        g.add_edge(1, 2);
        assert!(g.is_connected());
        assert_eq!(g.components().len(), 1);
    }

    #[test]
    fn trivial_graphs_are_connected() {
        assert!(Graph::new(vec![]).is_connected());
        assert!(Graph::new(vec![Point::ORIGIN]).is_connected());
    }

    #[test]
    fn filter_and_union() {
        let mut g = square();
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        let sub = g.filter_edges(|u, v| u != 0 && v != 0);
        assert_eq!(sub.edge_count(), 2);
        assert_eq!(sub.node_count(), 4);
        let back = sub.union(&g);
        assert_eq!(back.edge_count(), 3);
    }

    #[test]
    fn from_sorted_edges_matches_incremental_build() {
        let pts: Vec<Point> = (0..40)
            .map(|i| Point::new((i * 7 % 40) as f64, (i * 13 % 40) as f64))
            .collect();
        // Deterministic pseudo-random edge soup with duplicates and both
        // orientations.
        let mut edges = Vec::new();
        let mut x = 0x2545_f491u64;
        for _ in 0..200 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (x >> 33) as usize % 40;
            let v = (x >> 13) as usize % 40;
            if u != v {
                edges.push((u, v));
                edges.push((v, u));
            }
        }
        let bulk = Graph::from_sorted_edges(pts.clone(), edges.clone());
        let incremental = Graph::with_edges(pts, edges);
        assert_eq!(bulk, incremental);
        for v in 0..bulk.node_count() {
            assert!(bulk.neighbors(v).windows(2).all(|w| w[0] < w[1]));
        }
        assert!(bulk.memory_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn from_sorted_edges_rejects_self_loops() {
        Graph::from_sorted_edges(vec![Point::ORIGIN, Point::new(1.0, 0.0)], vec![(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_sorted_edges_rejects_out_of_bounds() {
        Graph::from_sorted_edges(vec![Point::ORIGIN], vec![(0, 3)]);
    }

    #[test]
    fn lengths() {
        let mut g = square();
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        assert_eq!(g.edge_length(0, 1), 1.0);
        assert!((g.total_edge_length() - (1.0 + 2f64.sqrt())).abs() < 1e-12);
    }
}
