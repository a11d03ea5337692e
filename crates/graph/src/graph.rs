//! Compact undirected graph with a lazily built CSR adjacency index.
//!
//! Vertices and edges carry payloads (`V`, `E`). Indices are `u32` (the
//! perf-book "smaller integers" idiom); a roadmap with > 4 billion vertices
//! is out of scope.
//!
//! Building a graph only appends to two flat `Vec`s. The adjacency index —
//! one offset array plus one flat neighbour array — is built on the first
//! [`Graph::neighbors`] / [`Graph::degree`] / [`Graph::has_edge`] and
//! dropped by any mutation of the vertex or edge set, so a graph that is
//! built, digested and dropped never pays for it.

use std::sync::OnceLock;

/// Vertex identifier (dense, 0-based).
pub type VertexId = u32;
/// Edge identifier (dense, 0-based).
pub type EdgeId = u32;

/// An undirected multigraph with vertex payloads `V` and edge payloads `E`.
#[derive(Debug, Clone)]
pub struct Graph<V, E> {
    vertices: Vec<V>,
    edges: Vec<(VertexId, VertexId, E)>,
    /// Adjacency, built on first read; empty until then and after any
    /// mutation.
    index: OnceLock<Csr>,
}

/// Compressed sparse rows: the neighbours of `v` are
/// `nbrs[start[v]..start[v + 1]]` as (neighbor, edge id) pairs, in edge-id
/// order, with one entry for a self-loop.
#[derive(Debug, Clone)]
struct Csr {
    start: Vec<u32>,
    nbrs: Vec<(VertexId, EdgeId)>,
}

impl Csr {
    /// One counting pass and one fill pass over `edges`.
    fn build<E>(n: usize, edges: &[(VertexId, VertexId, E)]) -> Self {
        // start[v] counts the entries of vertices 0..=v ...
        let mut start = vec![0u32; n + 1];
        for &(a, b, _) in edges {
            start[a as usize] += 1;
            if a != b {
                start[b as usize] += 1;
            }
        }
        let mut total = 0u32;
        for s in &mut start[..n] {
            total += *s;
            *s = total;
        }
        start[n] = total;
        // ... and a reverse fill walks each start[v] down to v's first slot,
        // leaving every list in edge-id order.
        let mut nbrs = vec![(0, 0); total as usize];
        for (e, &(a, b, _)) in edges.iter().enumerate().rev() {
            start[a as usize] -= 1;
            nbrs[start[a as usize] as usize] = (b, e as EdgeId);
            if a != b {
                start[b as usize] -= 1;
                nbrs[start[b as usize] as usize] = (a, e as EdgeId);
            }
        }
        Csr { start, nbrs }
    }

    fn neighbors(&self, v: VertexId) -> &[(VertexId, EdgeId)] {
        &self.nbrs[self.start[v as usize] as usize..self.start[v as usize + 1] as usize]
    }
}

impl<V, E> Default for Graph<V, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V, E> Graph<V, E> {
    /// Empty graph.
    pub fn new() -> Self {
        Graph {
            vertices: Vec::new(),
            edges: Vec::new(),
            index: OnceLock::new(),
        }
    }

    /// Empty graph with vertex and edge capacity reserved.
    pub fn with_capacity(nv: usize, ne: usize) -> Self {
        Graph {
            vertices: Vec::with_capacity(nv),
            edges: Vec::with_capacity(ne),
            index: OnceLock::new(),
        }
    }

    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Add a vertex, returning its id.
    pub fn add_vertex(&mut self, payload: V) -> VertexId {
        let id = self.vertices.len() as VertexId;
        self.vertices.push(payload);
        self.index.take();
        id
    }

    /// Add an undirected edge. Parallel edges and self-loops are permitted.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, a: VertexId, b: VertexId, payload: E) -> EdgeId {
        assert!(
            (a as usize) < self.vertices.len(),
            "vertex {a} out of range"
        );
        assert!(
            (b as usize) < self.vertices.len(),
            "vertex {b} out of range"
        );
        let id = self.edges.len() as EdgeId;
        self.edges.push((a, b, payload));
        self.index.take();
        id
    }

    pub fn vertex(&self, v: VertexId) -> &V {
        &self.vertices[v as usize]
    }

    /// Edge endpoints and payload.
    pub fn edge(&self, e: EdgeId) -> (VertexId, VertexId, &E) {
        let (a, b, ref p) = self.edges[e as usize];
        (a, b, p)
    }

    /// Neighbours of `v` as (neighbor, edge id) pairs, in edge-id order.
    /// The first read after a mutation builds the adjacency index (O(V + E)).
    pub fn neighbors(&self, v: VertexId) -> &[(VertexId, EdgeId)] {
        self.index
            .get_or_init(|| Csr::build(self.vertices.len(), &self.edges))
            .neighbors(v)
    }

    pub fn degree(&self, v: VertexId) -> usize {
        self.neighbors(v).len()
    }

    /// True if an edge between `a` and `b` exists. Reads the adjacency
    /// index, so it is not for use between `add_edge` calls.
    pub fn has_edge(&self, a: VertexId, b: VertexId) -> bool {
        let (s, t) = if self.degree(a) <= self.degree(b) {
            (a, b)
        } else {
            (b, a)
        };
        self.neighbors(s).iter().any(|&(n, _)| n == t)
    }

    /// Iterate vertex payloads.
    pub fn vertices(&self) -> impl Iterator<Item = &V> {
        self.vertices.iter()
    }

    /// Iterate `(a, b, payload)` for every edge.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId, &E)> {
        self.edges.iter().map(|(a, b, p)| (*a, *b, p))
    }

    /// Append `other` into `self`, returning the vertex-id offset applied to
    /// `other`'s ids. Used when migrating a regional roadmap into a global
    /// one.
    pub fn absorb(&mut self, other: Graph<V, E>) -> VertexId {
        let offset = self.vertices.len() as VertexId;
        self.vertices.extend(other.vertices);
        self.edges.extend(
            other
                .edges
                .into_iter()
                .map(|(a, b, p)| (a + offset, b + offset, p)),
        );
        self.index.take();
        offset
    }
}

/// Where each vertex's turn starts in the edge list of a k-nearest
/// connection loop, which visits the vertices in id order and appends only
/// edges incident to the vertex whose turn it is.
///
/// In such a loop the edge {j, i} with j < i can have been added before
/// turn i only during j's turn, and each turn's edges are contiguous, so
/// "is {j, i} already an edge?" is a scan of j's at most k entries — not a
/// read of [`Graph::neighbors`], whose index every `add_edge` drops.
#[derive(Debug)]
pub struct ConnectTurns {
    first: Vec<u32>,
}

impl ConnectTurns {
    /// Log for a loop over `n` vertices.
    pub fn with_capacity(n: usize) -> Self {
        ConnectTurns {
            first: Vec::with_capacity(n),
        }
    }

    /// Open the next vertex's turn; `edges` is the edge count so far.
    pub fn begin(&mut self, edges: usize) {
        self.first.push(edges as u32);
    }

    /// True if the turn of `j` added an edge joining `j` and `i`, where
    /// `j < i` and `i`'s turn is open. `endpoints(e)` gives edge `e`'s ends.
    pub fn linked(
        &self,
        j: usize,
        i: usize,
        endpoints: impl Fn(usize) -> (VertexId, VertexId),
    ) -> bool {
        debug_assert!(j < i && i < self.first.len(), "turn {j} is not closed");
        let (jv, iv) = (j as VertexId, i as VertexId);
        (self.first[j] as usize..self.first[j + 1] as usize).any(|e| {
            let (a, b) = endpoints(e);
            (a, b) == (jv, iv) || (a, b) == (iv, jv)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph<&'static str, f64> {
        let mut g = Graph::new();
        let a = g.add_vertex("a");
        let b = g.add_vertex("b");
        let c = g.add_vertex("c");
        g.add_edge(a, b, 1.0);
        g.add_edge(b, c, 2.0);
        g.add_edge(c, a, 3.0);
        g
    }

    #[test]
    fn construction_counts() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 2);
    }

    #[test]
    fn undirected_adjacency() {
        let g = triangle();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 0));
        let n: Vec<u32> = g.neighbors(1).iter().map(|&(v, _)| v).collect();
        assert_eq!(n, vec![0, 2]);
    }

    #[test]
    fn payload_access() {
        let g = triangle();
        assert_eq!(*g.vertex(2), "c");
        let (a, b, w) = g.edge(1);
        assert_eq!((a, b, *w), (1, 2, 2.0));
    }

    #[test]
    fn self_loop_single_adjacency_entry() {
        let mut g: Graph<(), ()> = Graph::new();
        let v = g.add_vertex(());
        g.add_edge(v, v, ());
        assert_eq!(g.degree(v), 1);
    }

    #[test]
    fn absorb_offsets_ids() {
        let mut g = triangle();
        let h = triangle();
        let off = g.absorb(h);
        assert_eq!(off, 3);
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.num_edges(), 6);
        assert!(g.has_edge(3, 4));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn mutation_drops_a_built_index() {
        let mut g = triangle();
        assert_eq!(g.degree(0), 2);
        let d = g.add_vertex("d");
        assert_eq!(g.degree(d), 0);
        g.add_edge(d, 0, 4.0);
        assert_eq!(g.neighbors(0), &[(1, 0), (2, 2), (3, 3)]);
        g.absorb(triangle());
        assert_eq!(g.neighbors(4), &[(5, 4), (6, 6)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_edge_panics() {
        let mut g: Graph<(), ()> = Graph::new();
        g.add_vertex(());
        g.add_edge(0, 5, ());
    }
}
