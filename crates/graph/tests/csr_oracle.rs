//! Differential property test: `Graph` builds its CSR adjacency index on
//! first read and drops it on any mutation. Every read must list exactly
//! the neighbours, in exactly the order, that the incremental
//! `Vec`-per-vertex adjacency (`reference/adjacency_lists.rs`) lists — on
//! random multigraphs with self-loops and parallel edges, with reads
//! interleaved between `add_vertex`, `add_edge` and `absorb`, and from two
//! threads reading one shared graph.

use proptest::prelude::*;
use smp_graph::{Graph, VertexId};
use std::sync::Arc;

#[path = "reference/adjacency_lists.rs"]
mod adjacency_lists;

use adjacency_lists::ListGraph;

fn assert_same(g: &Graph<u32, u32>, r: &ListGraph<u32, u32>) -> Result<(), String> {
    prop_assert_eq!(g.num_vertices(), r.num_vertices());
    prop_assert_eq!(g.num_edges(), r.num_edges());
    for v in 0..g.num_vertices() as VertexId {
        prop_assert_eq!(g.neighbors(v), r.neighbors(v), "neighbours of {}", v);
        prop_assert_eq!(g.degree(v), r.degree(v), "degree of {}", v);
    }
    Ok(())
}

/// A small graph to absorb, the same in both representations.
fn part(vertices: u32, seed: u32) -> (Graph<u32, u32>, ListGraph<u32, u32>) {
    let (mut g, mut r) = (Graph::new(), ListGraph::new());
    for v in 0..vertices {
        g.add_vertex(1000 + v);
        r.add_vertex(1000 + v);
    }
    if vertices > 0 {
        for e in 0..seed % 7 {
            let (a, b) = ((seed + e) % vertices, (seed * 3 + e * 5) % vertices);
            g.add_edge(a, b, 2000 + e);
            r.add_edge(a, b, 2000 + e);
        }
    }
    (g, r)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random operation sequences: op 0–1 adds a vertex, 2–6 an edge
    /// between two existing vertices (few vertices, so self-loops and
    /// parallel edges are common), 7 absorbs a small graph, 8–9 read.
    #[test]
    fn neighbors_match_incremental_lists(
        ops in prop::collection::vec((0u8..10, 0u32..1000, 0u32..1000), 0..120),
    ) {
        let (mut g, mut r): (Graph<u32, u32>, ListGraph<u32, u32>) = (Graph::new(), ListGraph::new());
        for (step, &(op, a, b)) in ops.iter().enumerate() {
            let n = g.num_vertices() as u32;
            match op {
                0 | 1 => {
                    prop_assert_eq!(g.add_vertex(step as u32), r.add_vertex(step as u32));
                }
                2..=6 if n > 0 => {
                    let (a, b) = (a % n, b % n);
                    prop_assert_eq!(g.add_edge(a, b, step as u32), r.add_edge(a, b, step as u32));
                }
                7 => {
                    let (pg, pr) = part(a % 5, b);
                    prop_assert_eq!(g.absorb(pg), r.absorb(pr));
                }
                8 | 9 => {
                    assert_same(&g, &r)?;
                    if n > 0 {
                        prop_assert_eq!(g.has_edge(a % n, b % n), r.has_edge(a % n, b % n));
                    }
                }
                _ => {}
            }
        }
        assert_same(&g, &r)?;
        let edges: Vec<(u32, u32, u32)> = g.edges().map(|(a, b, &p)| (a, b, p)).collect();
        let want: Vec<(u32, u32, u32)> = r.edges().map(|(a, b, &p)| (a, b, p)).collect();
        prop_assert_eq!(edges, want);
    }
}

#[test]
fn a_shared_graph_reads_the_same_from_two_threads() {
    let (mut g, mut r) = (Graph::new(), ListGraph::new());
    for v in 0..500u32 {
        g.add_vertex(v);
        r.add_vertex(v);
    }
    for e in 0..3000u32 {
        let (a, b) = ((e * 7919) % 500, (e * 104_729 + e / 3) % 500);
        g.add_edge(a, b, e);
        r.add_edge(a, b, e);
    }
    // No read yet: the two threads race to build the index.
    let g = Arc::new(g);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let (g, r) = (Arc::clone(&g), &r);
            scope.spawn(move || assert_same(&g, r).unwrap());
        }
    });
}
