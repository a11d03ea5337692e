//! # smp-graph — graph substrate
//!
//! The planning stack is "essentially a large-scale graph problem" (paper
//! §I). This crate provides:
//!
//! * [`Graph`] — a compact undirected adjacency-list graph with vertex and
//!   edge payloads (the roadmap / tree representation);
//! * [`UnionFind`] — connected-component tracking (cycle detection for RRT
//!   region connection, CC queries for PRM);
//! * [`KdTree`], the incremental [`IncrementalNn`], and brute-force
//!   [`knn`] — nearest-neighbour search;
//! * [`search`] — BFS / Dijkstra / A* for query resolution;
//! * [`RegionGraph`] — the region adjacency graph of Algorithms 1 and 2;
//! * [`partitioned`] — ownership maps and remote-access accounting that
//!   emulate a distributed (STAPL pGraph-like) view of a graph.

pub mod graph;
pub mod kdtree;
pub mod knn;
pub mod nn_index;
pub mod partitioned;
pub mod region_graph;
pub mod search;
pub mod union_find;

pub use graph::{ConnectTurns, EdgeId, Graph, VertexId};
pub use kdtree::{KdTree, KnnScratch};
pub use nn_index::IncrementalNn;
pub use partitioned::{OwnerMap, RemoteAccessCounter};
pub use region_graph::RegionGraph;
pub use union_find::UnionFind;
