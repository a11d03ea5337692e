//! Reference structure, not a test target: the graph whose adjacency was
//! one `Vec` per vertex, pushed to on every `add_edge`. `csr_oracle.rs`
//! uses it as the adjacency-order oracle for `smp_graph::Graph`, whose
//! CSR index is built on first read.

#![allow(dead_code)]

use smp_graph::{EdgeId, VertexId};

/// The incremental adjacency-list graph, body kept verbatim.
#[derive(Debug, Clone)]
pub struct ListGraph<V, E> {
    vertices: Vec<V>,
    edges: Vec<(VertexId, VertexId, E)>,
    /// adjacency[v] = list of (neighbor, edge id)
    adjacency: Vec<Vec<(VertexId, EdgeId)>>,
}

impl<V, E> Default for ListGraph<V, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V, E> ListGraph<V, E> {
    /// Empty graph.
    pub fn new() -> Self {
        ListGraph {
            vertices: Vec::new(),
            edges: Vec::new(),
            adjacency: Vec::new(),
        }
    }

    /// Empty graph with vertex capacity reserved.
    pub fn with_capacity(nv: usize, ne: usize) -> Self {
        ListGraph {
            vertices: Vec::with_capacity(nv),
            edges: Vec::with_capacity(ne),
            adjacency: Vec::with_capacity(nv),
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
        self.adjacency.push(Vec::new());
        id
    }

    /// Add an undirected edge. Parallel edges and self-loops are permitted
    /// (callers that care use [`ListGraph::has_edge`] first).
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
        self.adjacency[a as usize].push((b, id));
        if a != b {
            self.adjacency[b as usize].push((a, id));
        }
        id
    }

    pub fn vertex(&self, v: VertexId) -> &V {
        &self.vertices[v as usize]
    }

    pub fn vertex_mut(&mut self, v: VertexId) -> &mut V {
        &mut self.vertices[v as usize]
    }

    /// Edge endpoints and payload.
    pub fn edge(&self, e: EdgeId) -> (VertexId, VertexId, &E) {
        let (a, b, ref p) = self.edges[e as usize];
        (a, b, p)
    }

    /// Neighbours of `v` as (neighbor, edge id) pairs.
    pub fn neighbors(&self, v: VertexId) -> &[(VertexId, EdgeId)] {
        &self.adjacency[v as usize]
    }

    pub fn degree(&self, v: VertexId) -> usize {
        self.adjacency[v as usize].len()
    }

    /// True if an edge between `a` and `b` exists.
    pub fn has_edge(&self, a: VertexId, b: VertexId) -> bool {
        let (s, t) = if self.degree(a) <= self.degree(b) {
            (a, b)
        } else {
            (b, a)
        };
        self.adjacency[s as usize].iter().any(|&(n, _)| n == t)
    }

    /// Iterate vertex ids.
    pub fn vertex_ids(&self) -> impl Iterator<Item = VertexId> {
        0..self.vertices.len() as VertexId
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
    pub fn absorb(&mut self, other: ListGraph<V, E>) -> VertexId {
        let offset = self.vertices.len() as VertexId;
        self.vertices.extend(other.vertices);
        for _ in 0..(self.vertices.len() - self.adjacency.len()) {
            self.adjacency.push(Vec::new());
        }
        for (a, b, p) in other.edges {
            self.add_edge(a + offset, b + offset, p);
        }
        offset
    }
}
