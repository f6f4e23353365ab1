//! Frozen CSR (compressed sparse row) adjacency for the query phase.
//!
//! Construction mutates a [`Graph`] (`Vec<Vec<usize>>` behind
//! `add_edge`/`remove_edge`); the query phase only *reads* the
//! adjacency. [`Graph::freeze`] compacts it into two flat arrays
//! (`offsets`, `targets`) with `u32` node ids: one allocation each, half
//! the bytes per directed edge, and cache-line-friendly sequential
//! neighbor scans. Shortest-path searches use the same layout plus
//! precomputed edge lengths, in [`crate::paths::PathIndex`].
//!
//! The freeze/thaw lifecycle is one-way per phase: build on `Graph`,
//! [`Graph::freeze`] for queries, [`CsrGraph::thaw`] back to a mutable
//! `Graph` only when a topology change forces a rebuild. Neighbor order
//! is preserved exactly (ascending), so any traversal is bit-identical
//! on either representation.

use geospan_geometry::Point;

use crate::Graph;

/// A read-only graph in CSR layout: `neighbors(v)` is the slice
/// `targets[offsets[v]..offsets[v+1]]`, ascending.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrGraph {
    points: Vec<Point>,
    offsets: Vec<u32>,
    targets: Vec<u32>,
    edge_count: usize,
}

impl Graph {
    /// Freezes this graph into a [`CsrGraph`] for the read-mostly query
    /// phase. Neighbor order (ascending) is preserved exactly.
    ///
    /// # Panics
    /// Panics if the graph has ≥ 2³² nodes or directed edges — beyond
    /// the `u32` id space the arena layout is built on.
    pub fn freeze(&self) -> CsrGraph {
        let n = self.node_count();
        let m2 = 2 * self.edge_count();
        assert!(
            n < u32::MAX as usize && m2 <= u32::MAX as usize,
            "graph exceeds the u32 id space ({n} nodes, {m2} directed edges)"
        );
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(m2);
        offsets.push(0u32);
        for v in 0..n {
            targets.extend(self.neighbors(v).iter().map(|&w| w as u32));
            offsets.push(targets.len() as u32);
        }
        CsrGraph {
            points: self.points().to_vec(),
            offsets,
            targets,
            edge_count: self.edge_count(),
        }
    }
}

impl CsrGraph {
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

    /// Sorted (ascending) neighbor ids of node `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Degree of node `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// True when the undirected edge `{u, v}` is present.
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.neighbors(u).binary_search(&(v as u32)).is_ok()
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
        (0..self.node_count()).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .filter(move |&&v| u < v as usize)
                .map(move |&v| (u, v as usize))
        })
    }

    /// Heap bytes held by this structure (points + offsets + targets):
    /// the bytes-per-node accounting the scale benchmark reports.
    pub fn memory_bytes(&self) -> usize {
        self.points.len() * std::mem::size_of::<Point>()
            + self.offsets.len() * std::mem::size_of::<u32>()
            + self.targets.len() * std::mem::size_of::<u32>()
    }

    /// Decomposition statistics of this adjacency under a node→shard
    /// assignment: how many nodes and internal edges each shard owns,
    /// and how many edges cross shard boundaries. The cut edges are
    /// exactly the links over which a sharded traffic engine must
    /// exchange boundary messages, so `cut_fraction` bounds its
    /// communication-to-computation ratio.
    ///
    /// # Panics
    /// Panics if `shard_of` does not cover every node or names a shard
    /// `>= shards`.
    pub fn shard_cut(&self, shard_of: &[u32], shards: usize) -> ShardCut {
        let n = self.node_count();
        assert_eq!(shard_of.len(), n, "shard_of must assign every node");
        let mut per_shard_nodes = vec![0usize; shards];
        let mut per_shard_edges = vec![0usize; shards];
        let mut cut_edges = 0usize;
        for (v, &shard) in shard_of.iter().enumerate() {
            let s = shard as usize;
            assert!(s < shards, "node {v} assigned to shard {s} >= {shards}");
            per_shard_nodes[s] += 1;
        }
        for (u, v) in self.edges() {
            if shard_of[u] == shard_of[v] {
                per_shard_edges[shard_of[u] as usize] += 1;
            } else {
                cut_edges += 1;
            }
        }
        ShardCut {
            per_shard_nodes,
            per_shard_edges,
            cut_edges,
            total_edges: self.edge_count,
        }
    }

    /// Thaws back into a mutable [`Graph`] (exact inverse of
    /// [`Graph::freeze`]).
    pub fn thaw(&self) -> Graph {
        let edges: Vec<(usize, usize)> = self.edges().collect();
        Graph::from_sorted_edges(self.points.clone(), edges)
    }
}

/// What a node→shard assignment does to this graph's edges — see
/// [`CsrGraph::shard_cut`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardCut {
    per_shard_nodes: Vec<usize>,
    per_shard_edges: Vec<usize>,
    cut_edges: usize,
    total_edges: usize,
}

impl ShardCut {
    /// Nodes owned by each shard.
    pub fn per_shard_nodes(&self) -> &[usize] {
        &self.per_shard_nodes
    }

    /// Edges internal to each shard (both endpoints owned by it).
    pub fn per_shard_edges(&self) -> &[usize] {
        &self.per_shard_edges
    }

    /// Edges whose endpoints live on different shards.
    pub fn cut_edges(&self) -> usize {
        self.cut_edges
    }

    /// Fraction of all edges crossing a shard boundary (`0.0` on an
    /// edgeless graph).
    pub fn cut_fraction(&self) -> f64 {
        if self.total_edges == 0 {
            0.0
        } else {
            self.cut_edges as f64 / self.total_edges as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{uniform_points, UnitDiskBuilder};

    #[test]
    fn freeze_preserves_structure() {
        let pts = uniform_points(120, 150.0, 5);
        let g = UnitDiskBuilder::new(40.0).build(&pts);
        let c = g.freeze();
        assert_eq!(c.node_count(), g.node_count());
        assert_eq!(c.edge_count(), g.edge_count());
        for v in 0..g.node_count() {
            assert_eq!(c.degree(v), g.degree(v));
            let nbrs: Vec<usize> = c.neighbors(v).iter().map(|&w| w as usize).collect();
            assert_eq!(nbrs, g.neighbors(v));
        }
        let ge: Vec<_> = g.edges().collect();
        let ce: Vec<_> = c.edges().collect();
        assert_eq!(ge, ce);
    }

    #[test]
    fn thaw_round_trips() {
        let pts = uniform_points(80, 120.0, 9);
        let g = UnitDiskBuilder::new(35.0).build(&pts);
        assert_eq!(g.freeze().thaw(), g);
    }

    #[test]
    fn has_edge_and_lengths() {
        let g = Graph::with_edges(
            vec![
                Point::new(0.0, 0.0),
                Point::new(3.0, 4.0),
                Point::new(9.0, 9.0),
            ],
            [(0, 1)],
        );
        let c = g.freeze();
        assert!(c.has_edge(0, 1) && c.has_edge(1, 0));
        assert!(!c.has_edge(0, 2));
        assert_eq!(c.edge_length(0, 1), 5.0);
        assert!(c.memory_bytes() > 0);
    }

    #[test]
    fn shard_cut_accounts_for_every_edge() {
        let pts = uniform_points(90, 150.0, 7);
        let g = UnitDiskBuilder::new(40.0).build(&pts);
        let c = g.freeze();
        // Split by x coordinate into two halves.
        let shard_of: Vec<u32> = pts.iter().map(|p| u32::from(p.x > 75.0)).collect();
        let cut = c.shard_cut(&shard_of, 2);
        assert_eq!(cut.per_shard_nodes().iter().sum::<usize>(), 90);
        assert_eq!(
            cut.per_shard_edges().iter().sum::<usize>() + cut.cut_edges(),
            c.edge_count()
        );
        assert!(cut.cut_edges() > 0, "a geometric split cuts something");
        assert!(cut.cut_fraction() > 0.0 && cut.cut_fraction() < 1.0);
        // One shard owns everything: nothing is cut.
        let all = c.shard_cut(&vec![0u32; 90], 1);
        assert_eq!(all.cut_edges(), 0);
        assert_eq!(all.per_shard_edges()[0], c.edge_count());
        assert_eq!(all.cut_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "assigned to shard")]
    fn shard_cut_rejects_out_of_range_shards() {
        let g = Graph::with_edges(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)], [(0, 1)]);
        let _ = g.freeze().shard_cut(&[0, 5], 2);
    }

    #[test]
    fn empty_graph_freezes() {
        let c = Graph::new(vec![]).freeze();
        assert_eq!(c.node_count(), 0);
        assert_eq!(c.edges().count(), 0);
    }
}
