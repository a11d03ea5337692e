//! Graph search: BFS, Dijkstra, A*.
//!
//! Used by query processing (PRM: "extract a path through the roadmap",
//! §II-B.1) and by connectivity analysis in tests and experiments.

use crate::graph::{Graph, VertexId};
use std::collections::BinaryHeap;
use std::collections::VecDeque;

/// Vertices reachable from `start` (including `start`), in BFS order.
pub fn bfs_reachable<V, E>(g: &Graph<V, E>, start: VertexId) -> Vec<VertexId> {
    let mut seen = vec![false; g.num_vertices()];
    let mut order = Vec::new();
    let mut q = VecDeque::new();
    seen[start as usize] = true;
    q.push_back(start);
    while let Some(v) = q.pop_front() {
        order.push(v);
        for &(n, _) in g.neighbors(v) {
            if !seen[n as usize] {
                seen[n as usize] = true;
                q.push_back(n);
            }
        }
    }
    order
}

/// Connected components: a component id per vertex plus the component count.
pub fn connected_components<V, E>(g: &Graph<V, E>) -> (Vec<u32>, usize) {
    let n = g.num_vertices();
    let mut comp = vec![u32::MAX; n];
    let mut count = 0;
    for s in 0..n as u32 {
        if comp[s as usize] != u32::MAX {
            continue;
        }
        for v in bfs_reachable(g, s) {
            comp[v as usize] = count;
        }
        count += 1;
    }
    (comp, count as usize)
}

#[derive(PartialEq)]
struct QueueItem {
    cost: f64,
    v: VertexId,
}

impl Eq for QueueItem {}
impl PartialOrd for QueueItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // min-heap: reverse
        other.cost.total_cmp(&self.cost).then(other.v.cmp(&self.v))
    }
}

/// Shortest path by edge weight. Returns `(path, cost)` or `None` when
/// unreachable. `weight` extracts a non-negative weight from each edge
/// payload.
pub fn dijkstra<V, E>(
    g: &Graph<V, E>,
    start: VertexId,
    goal: VertexId,
    weight: impl Fn(&E) -> f64,
) -> Option<(Vec<VertexId>, f64)> {
    astar(g, start, goal, weight, |_| 0.0)
}

/// A* with a consistent heuristic `h(v)` (pass `|_| 0.0` for Dijkstra).
pub fn astar<V, E>(
    g: &Graph<V, E>,
    start: VertexId,
    goal: VertexId,
    weight: impl Fn(&E) -> f64,
    h: impl Fn(VertexId) -> f64,
) -> Option<(Vec<VertexId>, f64)> {
    let weight = &weight;
    astar_by(
        g.num_vertices(),
        start,
        goal,
        |v| {
            g.neighbors(v)
                .iter()
                .map(move |&(u, e)| (u, weight(g.edge(e).2)))
        },
        h,
    )
}

/// The A* body, over any graph of `n` vertices whose adjacency `expand(v)`
/// yields as `(neighbour, edge weight)` pairs. The result depends only on
/// the pairs yielded and their order, so two graphs that yield the same
/// pairs in the same order get bit-identical paths and costs.
pub fn astar_by<I>(
    n: usize,
    start: VertexId,
    goal: VertexId,
    expand: impl Fn(VertexId) -> I,
    h: impl Fn(VertexId) -> f64,
) -> Option<(Vec<VertexId>, f64)>
where
    I: IntoIterator<Item = (VertexId, f64)>,
{
    if start as usize >= n || goal as usize >= n {
        return None;
    }
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<VertexId> = vec![u32::MAX; n];
    let mut heap = BinaryHeap::new();
    dist[start as usize] = 0.0;
    heap.push(QueueItem {
        cost: h(start),
        v: start,
    });
    while let Some(QueueItem { cost, v }) = heap.pop() {
        if v == goal {
            break;
        }
        if cost - h(v) > dist[v as usize] + 1e-12 {
            continue; // stale entry
        }
        for (u, w) in expand(v) {
            debug_assert!(w >= 0.0, "negative edge weight");
            let nd = dist[v as usize] + w;
            if nd < dist[u as usize] {
                dist[u as usize] = nd;
                prev[u as usize] = v;
                heap.push(QueueItem {
                    cost: nd + h(u),
                    v: u,
                });
            }
        }
    }
    if dist[goal as usize].is_infinite() {
        return None;
    }
    let mut path = vec![goal];
    let mut cur = goal;
    while cur != start {
        cur = prev[cur as usize];
        if cur == u32::MAX {
            // goal == start handled by loop condition; unreachable otherwise
            return None;
        }
        path.push(cur);
    }
    path.reverse();
    Some((path, dist[goal as usize]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 - 1 - 2
    ///  \     /
    ///   3 --4      5 (isolated)
    fn sample() -> Graph<(), f64> {
        let mut g = Graph::new();
        for _ in 0..6 {
            g.add_vertex(());
        }
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(0, 3, 1.0);
        g.add_edge(3, 4, 1.0);
        g.add_edge(4, 2, 1.0);
        g
    }

    #[test]
    fn bfs_covers_component() {
        let g = sample();
        let r = bfs_reachable(&g, 0);
        assert_eq!(r.len(), 5);
        assert!(!r.contains(&5));
    }

    #[test]
    fn components_counted() {
        let g = sample();
        let (comp, n) = connected_components(&g);
        assert_eq!(n, 2);
        assert_eq!(comp[0], comp[4]);
        assert_ne!(comp[0], comp[5]);
    }

    #[test]
    fn dijkstra_shortest() {
        let g = sample();
        let (path, cost) = dijkstra(&g, 0, 2, |w| *w).unwrap();
        assert_eq!(cost, 2.0);
        assert_eq!(path, vec![0, 1, 2]);
    }

    #[test]
    fn dijkstra_weighted_detour() {
        let mut g = sample();
        // make 0-1 expensive; best route now 0-3-4-2
        g.add_edge(0, 2, 10.0);
        let (path, cost) = dijkstra(&g, 0, 2, |w| *w).unwrap();
        assert_eq!(cost, 2.0);
        assert_eq!(path.first(), Some(&0));
        assert_eq!(path.last(), Some(&2));
    }

    #[test]
    fn unreachable_is_none() {
        let g = sample();
        assert!(dijkstra(&g, 0, 5, |w| *w).is_none());
    }

    #[test]
    fn start_equals_goal() {
        let g = sample();
        let (path, cost) = dijkstra(&g, 3, 3, |w| *w).unwrap();
        assert_eq!(path, vec![3]);
        assert_eq!(cost, 0.0);
    }

    #[test]
    fn astar_with_heuristic_agrees() {
        let g = sample();
        // admissible heuristic: 0 everywhere except goal-side hint
        let (p1, c1) = dijkstra(&g, 0, 4, |w| *w).unwrap();
        let (p2, c2) = astar(&g, 0, 4, |w| *w, |_| 0.5).unwrap();
        assert_eq!(c1, c2);
        assert_eq!(p1.len(), p2.len());
    }
}
