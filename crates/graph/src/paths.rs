//! Shortest paths: BFS for hop counts, Dijkstra for Euclidean lengths.
//!
//! The paper's spanner definitions compare, for every node pair, the
//! shortest *hop* path and the shortest *length* path in a topology
//! against the same quantities in the full unit disk graph. These are the
//! single-source primitives behind those comparisons.
//!
//! [`bfs_hops`] and [`dijkstra_lengths`] on a [`Graph`] are the reference
//! definitions. Every measurement that runs many searches — stretch
//! factors, diameters, the traffic engine's per-packet stretch baseline
//! — goes through one faster kernel instead: a [`PathIndex`] built once
//! per graph (flat `u32` adjacency plus one precomputed edge length per
//! adjacency slot) and a reusable [`PathScratch`] per worker, so a
//! search allocates nothing after the first. [`pair_distances`] batches
//! it over many `(src, dst)` pairs.
//!
//! The kernel's rows are bit-identical to the reference. A Dijkstra
//! settled value is the minimum, over all paths, of the left-fold sum of
//! edge lengths from the source: floating-point addition is monotone and
//! lengths are non-negative, so that minimum depends on neither the heap
//! nor its tie order.

use std::cmp::Ordering;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::VecDeque;
use std::ops::Range;

use rayon::prelude::*;

use crate::Graph;

/// Hop distance from `src` to every node (`None` for unreachable nodes).
///
/// # Panics
/// Panics if `src` is out of bounds.
///
/// # Example
/// ```
/// use geospan_graph::{Graph, Point};
/// use geospan_graph::paths::bfs_hops;
/// let mut g = Graph::new(vec![Point::new(0.0, 0.0); 0]);
/// # let mut g = Graph::with_edges(
/// #   vec![Point::new(0.,0.), Point::new(1.,0.), Point::new(2.,0.)],
/// #   [(0,1),(1,2)]);
/// let d = bfs_hops(&g, 0);
/// assert_eq!(d, vec![Some(0), Some(1), Some(2)]);
/// ```
pub fn bfs_hops(g: &Graph, src: usize) -> Vec<Option<u32>> {
    let n = g.node_count();
    assert!(src < n, "source {src} out of bounds for {n} nodes");
    let mut dist = vec![None; n];
    dist[src] = Some(0);
    let mut q = VecDeque::with_capacity(n);
    q.push_back(src);
    while let Some(u) = q.pop_front() {
        let du = dist[u].expect("queued nodes have distances");
        for &v in g.neighbors(u) {
            if dist[v].is_none() {
                dist[v] = Some(du + 1);
                q.push_back(v);
            }
        }
    }
    dist
}

/// Max-heap entry ordered by *smallest* distance first.
#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the nearest node.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Euclidean-length distance from `src` to every node (`None` for
/// unreachable nodes). Edge weights are the embedded edge lengths.
///
/// # Panics
/// Panics if `src` is out of bounds.
pub fn dijkstra_lengths(g: &Graph, src: usize) -> Vec<Option<f64>> {
    let n = g.node_count();
    assert!(src < n, "source {src} out of bounds for {n} nodes");
    let mut dist: Vec<Option<f64>> = vec![None; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::with_capacity(n);
    dist[src] = Some(0.0);
    heap.push(HeapEntry {
        dist: 0.0,
        node: src,
    });
    while let Some(HeapEntry { dist: du, node: u }) = heap.pop() {
        if done[u] {
            continue;
        }
        done[u] = true;
        for &v in g.neighbors(u) {
            if done[v] {
                continue;
            }
            let cand = du + g.edge_length(u, v);
            if dist[v].is_none_or(|dv| cand < dv) {
                dist[v] = Some(cand);
                heap.push(HeapEntry {
                    dist: cand,
                    node: v,
                });
            }
        }
    }
    dist
}

/// A shortest hop path from `src` to `dst` as a node sequence (inclusive
/// of both endpoints), or `None` when unreachable.
///
/// # Panics
/// Panics if either endpoint is out of bounds.
pub fn shortest_hop_path(g: &Graph, src: usize, dst: usize) -> Option<Vec<usize>> {
    let n = g.node_count();
    assert!(src < n && dst < n, "endpoints out of bounds");
    if src == dst {
        return Some(vec![src]);
    }
    let mut parent = vec![usize::MAX; n];
    let mut seen = vec![false; n];
    seen[src] = true;
    let mut q = VecDeque::new();
    q.push_back(src);
    while let Some(u) = q.pop_front() {
        for &v in g.neighbors(u) {
            if !seen[v] {
                seen[v] = true;
                parent[v] = u;
                if v == dst {
                    let mut path = vec![dst];
                    let mut cur = dst;
                    while cur != src {
                        cur = parent[cur];
                        path.push(cur);
                    }
                    path.reverse();
                    return Some(path);
                }
                q.push_back(v);
            }
        }
    }
    None
}

/// A shortest Euclidean-length path from `src` to `dst` as a node
/// sequence, or `None` when unreachable.
///
/// # Panics
/// Panics if either endpoint is out of bounds.
pub fn shortest_length_path(g: &Graph, src: usize, dst: usize) -> Option<Vec<usize>> {
    let n = g.node_count();
    assert!(src < n && dst < n, "endpoints out of bounds");
    if src == dst {
        return Some(vec![src]);
    }
    let mut dist: Vec<Option<f64>> = vec![None; n];
    let mut parent = vec![usize::MAX; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[src] = Some(0.0);
    heap.push(HeapEntry {
        dist: 0.0,
        node: src,
    });
    while let Some(HeapEntry { dist: du, node: u }) = heap.pop() {
        if done[u] {
            continue;
        }
        done[u] = true;
        if u == dst {
            break;
        }
        for &v in g.neighbors(u) {
            if done[v] {
                continue;
            }
            let cand = du + g.edge_length(u, v);
            if dist[v].is_none_or(|dv| cand < dv) {
                dist[v] = Some(cand);
                parent[v] = u;
                heap.push(HeapEntry {
                    dist: cand,
                    node: v,
                });
            }
        }
    }
    dist[dst]?;
    let mut path = vec![dst];
    let mut cur = dst;
    while cur != src {
        cur = parent[cur];
        path.push(cur);
    }
    path.reverse();
    Some(path)
}

/// Total Euclidean length of a node path.
///
/// # Panics
/// Panics if any node is out of bounds.
pub fn path_length(g: &Graph, path: &[usize]) -> f64 {
    path.windows(2).map(|w| g.edge_length(w[0], w[1])).sum()
}

/// One graph's adjacency laid out for repeated single-source searches:
/// CSR offsets, `u32` neighbor ids (ascending, as in the [`Graph`]) and
/// the Euclidean length of every adjacency slot, computed once.
///
/// The index is immutable; searches write only into a [`PathScratch`],
/// so one index serves any number of workers.
#[derive(Debug, Clone)]
pub struct PathIndex {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<f64>,
}

impl PathIndex {
    /// Indexes `g`.
    ///
    /// # Panics
    /// Panics if the graph has ≥ 2³² nodes or directed edges.
    pub fn new(g: &Graph) -> Self {
        let n = g.node_count();
        let m2 = 2 * g.edge_count();
        assert!(
            n < u32::MAX as usize && m2 <= u32::MAX as usize,
            "graph exceeds the u32 id space ({n} nodes, {m2} directed edges)"
        );
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(m2);
        let mut weights = Vec::with_capacity(m2);
        offsets.push(0u32);
        for u in 0..n {
            for &v in g.neighbors(u) {
                targets.push(v as u32);
                weights.push(g.edge_length(u, v));
            }
            offsets.push(targets.len() as u32);
        }
        PathIndex {
            offsets,
            targets,
            weights,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The adjacency slots of node `u`.
    #[inline]
    fn slots(&self, u: usize) -> Range<usize> {
        self.offsets[u] as usize..self.offsets[u + 1] as usize
    }
}

/// Per-worker search state over a [`PathIndex`]: one hop row, one length
/// row, and the BFS queue and Dijkstra heap behind them. Reusing it
/// across sources makes every search after the first allocation-free.
#[derive(Debug, Clone, Default)]
pub struct PathScratch {
    hops: Vec<u32>,
    lengths: Vec<f64>,
    queue: Vec<u32>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl PathScratch {
    /// Empty scratch; rows are sized on the first search.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fills the hop row with the BFS hop distance from `src` to every
    /// node (`u32::MAX` for unreachable nodes).
    ///
    /// # Panics
    /// Panics if `src` is out of bounds.
    pub fn bfs(&mut self, index: &PathIndex, src: usize) {
        let n = index.node_count();
        assert!(src < n, "source {src} out of bounds for {n} nodes");
        let hops = &mut self.hops;
        hops.clear();
        hops.resize(n, u32::MAX);
        hops[src] = 0;
        let queue = &mut self.queue;
        queue.clear();
        queue.push(src as u32);
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            let u = u as usize;
            let next = hops[u] + 1;
            for &v in &index.targets[index.slots(u)] {
                if hops[v as usize] == u32::MAX {
                    hops[v as usize] = next;
                    queue.push(v);
                }
            }
        }
    }

    /// Fills the length row with the Euclidean shortest-path length from
    /// `src` to every node (`f64::INFINITY` for unreachable nodes).
    ///
    /// # Panics
    /// Panics if `src` is out of bounds.
    pub fn dijkstra(&mut self, index: &PathIndex, src: usize) {
        let n = index.node_count();
        assert!(src < n, "source {src} out of bounds for {n} nodes");
        let len = &mut self.lengths;
        len.clear();
        len.resize(n, f64::INFINITY);
        len[src] = 0.0;
        // For non-negative floats `to_bits` is order-preserving, so the
        // heap compares plain integers.
        let heap = &mut self.heap;
        heap.clear();
        heap.push(Reverse((0f64.to_bits(), src as u32)));
        while let Some(Reverse((bits, u))) = heap.pop() {
            let du = f64::from_bits(bits);
            let u = u as usize;
            if du > len[u] {
                continue; // stale: `u` was reached more cheaply since
            }
            for slot in index.slots(u) {
                let v = index.targets[slot] as usize;
                let cand = du + index.weights[slot];
                if cand < len[v] {
                    len[v] = cand;
                    heap.push(Reverse((cand.to_bits(), v as u32)));
                }
            }
        }
    }

    /// The hop row of the last [`bfs`](Self::bfs).
    pub fn hops(&self) -> &[u32] {
        &self.hops
    }

    /// The length row of the last [`dijkstra`](Self::dijkstra).
    pub fn lengths(&self) -> &[f64] {
        &self.lengths
    }
}

/// A hop-row entry as an optional distance.
pub(crate) fn reached_hops(h: u32) -> Option<u32> {
    (h != u32::MAX).then_some(h)
}

/// A length-row entry as an optional distance.
pub(crate) fn reached_length(l: f64) -> Option<f64> {
    (l != f64::INFINITY).then_some(l)
}

/// Runs `visit` over `items` in one contiguous chunk per worker, each
/// chunk with its own scratch `S`, and returns everything the visits
/// pushed in item order — the same output for every thread count.
pub(crate) fn per_worker<T, S, U>(
    items: &[T],
    visit: impl Fn(&mut S, &T, &mut Vec<U>) + Sync,
) -> Vec<U>
where
    T: Sync,
    S: Default,
    U: Send,
{
    if items.is_empty() {
        return Vec::new();
    }
    let chunk = items.len().div_ceil(rayon::current_num_threads().max(1));
    let parts: Vec<Vec<U>> = items
        .chunks(chunk)
        .collect::<Vec<_>>()
        .into_par_iter()
        .map(|chunk| {
            let mut scratch = S::default();
            let mut out = Vec::new();
            for item in chunk {
                visit(&mut scratch, item, &mut out);
            }
            out
        })
        .collect();
    parts.into_iter().flatten().collect()
}

/// Hop and Euclidean shortest-path distance of every `(src, dst)` pair in
/// `g`, in pair order (`None` when unreachable) — the same values
/// [`bfs_hops`] and [`dijkstra_lengths`] give, bit for bit.
///
/// Pairs are grouped by source with a counting sort, so each distinct
/// source costs one BFS and one Dijkstra. The distinct sources are split
/// into one contiguous chunk per worker, each with its own
/// [`PathScratch`], and every answer is written back by pair index: the
/// result does not depend on the thread count. Memory is
/// `O(m + threads·n + pairs)`.
///
/// # Panics
/// Panics if an endpoint is out of bounds.
///
/// # Example
/// ```
/// use geospan_graph::{Graph, Point};
/// use geospan_graph::paths::pair_distances;
/// let g = Graph::with_edges(
///     vec![Point::new(0.,0.), Point::new(1.,0.), Point::new(2.,0.), Point::new(9.,9.)],
///     [(0,1),(1,2)]);
/// let d = pair_distances(&g, &[(0, 2), (2, 2), (0, 3)]);
/// assert_eq!(d, vec![(Some(2), Some(2.0)), (Some(0), Some(0.0)), (None, None)]);
/// ```
pub fn pair_distances(g: &Graph, pairs: &[(usize, usize)]) -> Vec<(Option<u32>, Option<f64>)> {
    let n = g.node_count();
    // first[s]..first[s + 1] is source s's run in `by_source`.
    let mut first = vec![0usize; n + 1];
    for &(src, dst) in pairs {
        assert!(
            src < n && dst < n,
            "pair ({src}, {dst}) out of bounds for {n} nodes"
        );
        first[src + 1] += 1;
    }
    for s in 0..n {
        first[s + 1] += first[s];
    }
    let mut by_source = vec![0usize; pairs.len()];
    let mut fill = first.clone();
    for (i, &(src, _)) in pairs.iter().enumerate() {
        by_source[fill[src]] = i;
        fill[src] += 1;
    }
    let sources: Vec<usize> = (0..n).filter(|&s| first[s + 1] > first[s]).collect();
    let index = PathIndex::new(g);
    // Sources ascend, so the answers come back in `by_source` order.
    let answers = per_worker(&sources, |scratch: &mut PathScratch, &src, out| {
        scratch.bfs(&index, src);
        scratch.dijkstra(&index, src);
        out.extend(by_source[first[src]..first[src + 1]].iter().map(|&i| {
            let dst = pairs[i].1;
            (
                reached_hops(scratch.hops[dst]),
                reached_length(scratch.lengths[dst]),
            )
        }));
    });
    let mut result = vec![(None, None); pairs.len()];
    for (&i, answer) in by_source.iter().zip(answers) {
        result[i] = answer;
    }
    result
}

/// A lazy shortest-path oracle over one graph: the per-query
/// convenience over the same kernel as [`pair_distances`].
///
/// Per-source hop and length rows are computed on first use (one
/// [`PathScratch`] search over a [`PathIndex`] built on the first query)
/// and cached, so answering queries one at a time costs one
/// single-source run per distinct source. The cache keeps every row it
/// computed — `O(n)` per distinct source — so a batch known up front is
/// cheaper through [`pair_distances`], which keeps none.
///
/// # Example
/// ```
/// use geospan_graph::{Graph, Point};
/// use geospan_graph::paths::DistanceOracle;
/// let g = Graph::with_edges(
///     vec![Point::new(0.,0.), Point::new(1.,0.), Point::new(2.,0.)],
///     [(0,1),(1,2)]);
/// let mut oracle = DistanceOracle::new(&g);
/// assert_eq!(oracle.hops(0, 2), Some(2));
/// assert!((oracle.length(0, 2).unwrap() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug)]
pub struct DistanceOracle<'a> {
    g: &'a Graph,
    index: Option<PathIndex>,
    scratch: PathScratch,
    hops: Vec<Option<Box<[u32]>>>,
    lengths: Vec<Option<Box<[f64]>>>,
}

impl<'a> DistanceOracle<'a> {
    /// An oracle over `g` with no rows computed yet.
    pub fn new(g: &'a Graph) -> Self {
        let n = g.node_count();
        DistanceOracle {
            g,
            index: None,
            scratch: PathScratch::new(),
            hops: vec![None; n],
            lengths: vec![None; n],
        }
    }

    /// Hop distance from `src` to `dst` (`None` when unreachable).
    ///
    /// # Panics
    /// Panics if either endpoint is out of bounds.
    pub fn hops(&mut self, src: usize, dst: usize) -> Option<u32> {
        let Self {
            g,
            index,
            scratch,
            hops,
            ..
        } = self;
        let row = hops[src].get_or_insert_with(|| {
            scratch.bfs(index.get_or_insert_with(|| PathIndex::new(g)), src);
            scratch.hops().into()
        });
        reached_hops(row[dst])
    }

    /// Euclidean shortest-path length from `src` to `dst` (`None` when
    /// unreachable).
    ///
    /// # Panics
    /// Panics if either endpoint is out of bounds.
    pub fn length(&mut self, src: usize, dst: usize) -> Option<f64> {
        let Self {
            g,
            index,
            scratch,
            lengths,
            ..
        } = self;
        let row = lengths[src].get_or_insert_with(|| {
            scratch.dijkstra(index.get_or_insert_with(|| PathIndex::new(g)), src);
            scratch.lengths().into()
        });
        reached_length(row[dst])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{uniform_points, UnitDiskBuilder};
    use geospan_geometry::Point;

    /// A 5-node graph: a straight chain 0-1-2-3 plus a long chord 0-4-3.
    fn diamond() -> Graph {
        Graph::with_edges(
            vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(2.0, 0.0),
                Point::new(3.0, 0.0),
                Point::new(1.5, 4.0),
            ],
            [(0, 1), (1, 2), (2, 3), (0, 4), (4, 3)],
        )
    }

    #[test]
    fn bfs_hop_counts() {
        let g = diamond();
        let d = bfs_hops(&g, 0);
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(2), Some(1)]);
    }

    #[test]
    fn bfs_unreachable() {
        let mut g = diamond();
        g.remove_edge(0, 4);
        g.remove_edge(4, 3);
        let d = bfs_hops(&g, 0);
        assert_eq!(d[4], None);
        assert_eq!(d[3], Some(3));
    }

    #[test]
    fn dijkstra_prefers_short_detour() {
        let g = diamond();
        let d = dijkstra_lengths(&g, 0);
        // Straight chain is length 3; the chord through node 4 is ~8.5.
        assert!((d[3].unwrap() - 3.0).abs() < 1e-12);
        assert_eq!(d[0], Some(0.0));
    }

    #[test]
    fn hop_path_differs_from_length_path() {
        let g = diamond();
        // Fewest hops: 0-4-3 (2 hops). Shortest length: 0-1-2-3 (3 units).
        let hop = shortest_hop_path(&g, 0, 3).unwrap();
        assert_eq!(hop.len(), 3);
        let len = shortest_length_path(&g, 0, 3).unwrap();
        assert_eq!(len, vec![0, 1, 2, 3]);
        assert!((path_length(&g, &len) - 3.0).abs() < 1e-12);
        assert!(path_length(&g, &hop) > 8.0);
    }

    #[test]
    fn paths_to_self_and_unreachable() {
        let mut g = diamond();
        assert_eq!(shortest_hop_path(&g, 2, 2), Some(vec![2]));
        assert_eq!(shortest_length_path(&g, 2, 2), Some(vec![2]));
        g.remove_edge(0, 1);
        g.remove_edge(0, 4);
        assert_eq!(shortest_hop_path(&g, 0, 3), None);
        assert_eq!(shortest_length_path(&g, 0, 3), None);
    }

    #[test]
    fn oracle_matches_single_source_runs() {
        let g = diamond();
        let mut oracle = DistanceOracle::new(&g);
        for src in 0..g.node_count() {
            let hops = bfs_hops(&g, src);
            let lens = dijkstra_lengths(&g, src);
            for dst in 0..g.node_count() {
                assert_eq!(oracle.hops(src, dst), hops[dst]);
                assert_eq!(oracle.length(src, dst), lens[dst]);
                // Cached second query agrees.
                assert_eq!(oracle.hops(src, dst), hops[dst]);
            }
        }
    }

    #[test]
    fn kernel_searches_match_graph_searches() {
        let pts = uniform_points(100, 160.0, 3);
        let g = UnitDiskBuilder::new(45.0).build(&pts);
        let index = PathIndex::new(&g);
        let mut scratch = PathScratch::new();
        for src in [0, 17, 99] {
            scratch.bfs(&index, src);
            scratch.dijkstra(&index, src);
            let hops: Vec<_> = scratch.hops().iter().map(|&h| reached_hops(h)).collect();
            let lens: Vec<_> = scratch
                .lengths()
                .iter()
                .map(|&l| reached_length(l).map(f64::to_bits))
                .collect();
            assert_eq!(hops, bfs_hops(&g, src));
            let expected: Vec<_> = dijkstra_lengths(&g, src)
                .into_iter()
                .map(|l| l.map(f64::to_bits))
                .collect();
            assert_eq!(lens, expected);
        }
    }

    #[test]
    fn dijkstra_agrees_with_bfs_on_unit_edges() {
        // All edges the same length: hop counts and lengths coincide.
        let g = Graph::with_edges(
            vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(2.0, 0.0),
                Point::new(3.0, 0.0),
            ],
            [(0, 1), (1, 2), (2, 3)],
        );
        let hops = bfs_hops(&g, 0);
        let lens = dijkstra_lengths(&g, 0);
        for v in 0..4 {
            assert!((lens[v].unwrap() - hops[v].unwrap() as f64).abs() < 1e-12);
        }
    }
}
