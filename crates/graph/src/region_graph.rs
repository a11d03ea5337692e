//! The region graph of Algorithms 1 and 2.
//!
//! Vertices are regions (grid cells or radial cones); edges encode adjacency
//! and drive the region-connection phase. Region ids are dense `u32`s that
//! match the underlying subdivision's numbering.

use smp_geom::{GridSubdivision, RadialSubdivision};

/// Region adjacency graph. Undirected; edges stored once as `(min, max)`.
#[derive(Debug, Clone)]
pub struct RegionGraph {
    num_regions: usize,
    /// Sorted, deduplicated adjacency per region.
    adjacency: Vec<Vec<u32>>,
    /// Canonical edge list, each as `(a, b)` with `a < b`.
    edges: Vec<(u32, u32)>,
}

impl RegionGraph {
    /// Build from an explicit edge list (pairs may be unordered or
    /// duplicated; self-loops are dropped).
    pub fn from_edges(num_regions: usize, raw_edges: impl IntoIterator<Item = (u32, u32)>) -> Self {
        let mut edges: Vec<(u32, u32)> = raw_edges
            .into_iter()
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| if a < b { (a, b) } else { (b, a) })
            .collect();
        edges.sort_unstable();
        edges.dedup();
        let mut adjacency = vec![Vec::new(); num_regions];
        for &(a, b) in &edges {
            adjacency[a as usize].push(b);
            adjacency[b as usize].push(a);
        }
        for adj in &mut adjacency {
            adj.sort_unstable();
        }
        RegionGraph {
            num_regions,
            adjacency,
            edges,
        }
    }

    /// Region graph of a uniform grid subdivision (face adjacency),
    /// Algorithm 1 lines 1–6.
    pub fn from_grid<const D: usize>(grid: &GridSubdivision<D>) -> Self {
        let n = grid.num_regions();
        let edges = grid
            .region_ids()
            .flat_map(|r| grid.neighbors(r).into_iter().map(move |n| (r, n)));
        Self::from_edges(n, edges)
    }

    /// Region graph of a radial subdivision: each region is connected to its
    /// `k` angularly-nearest regions, Algorithm 2 lines 3–9.
    pub fn from_radial<const D: usize>(sub: &RadialSubdivision<D>, k: usize) -> Self {
        let adj = sub.knn_adjacency(k);
        let edges = adj
            .iter()
            .enumerate()
            .flat_map(|(i, ns)| ns.iter().map(move |&n| (i as u32, n)));
        Self::from_edges(sub.num_regions(), edges)
    }

    pub fn num_regions(&self) -> usize {
        self.num_regions
    }

    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Sorted neighbours of region `r`.
    pub fn neighbors(&self, r: u32) -> &[u32] {
        &self.adjacency[r as usize]
    }

    /// Canonical `(a, b)` edge list with `a < b`.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    pub fn degree(&self, r: u32) -> usize {
        self.adjacency[r as usize].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smp_geom::{sphere, Aabb, Point};

    #[test]
    fn from_edges_dedups_and_orients() {
        let g = RegionGraph::from_edges(3, vec![(1, 0), (0, 1), (2, 2), (1, 2)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edges(), &[(0, 1), (1, 2)]);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn grid_region_graph_edge_count() {
        // 3x3 grid: 2*3 horizontal + 3*2 vertical = 12 edges
        let grid: GridSubdivision<2> = GridSubdivision::new(Aabb::unit(), [3, 3], 0.0);
        let g = RegionGraph::from_grid(&grid);
        assert_eq!(g.num_regions(), 9);
        assert_eq!(g.num_edges(), 12);
        // center has degree 4
        assert_eq!(g.degree(4), 4);
    }

    #[test]
    fn radial_region_graph() {
        let dirs = sphere::evenly_spaced_2d(8);
        let sub = RadialSubdivision::from_directions(Point::<2>::zero(), 1.0, dirs, 1.0);
        let g = RegionGraph::from_radial(&sub, 2);
        assert_eq!(g.num_regions(), 8);
        // ring topology: exactly 8 undirected edges, everyone degree 2
        assert_eq!(g.num_edges(), 8);
        for r in 0..8 {
            assert_eq!(g.degree(r), 2);
        }
    }
}
