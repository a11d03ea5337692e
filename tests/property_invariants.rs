//! Property-based tests on cross-crate invariants (proptest).

use proptest::prelude::*;
use smp::core::partition::{greedy_lpt, loads, naive_block, spatial_bisection};
use smp::geom::{Aabb, GridSubdivision, Point};
use smp::graph::search::dijkstra;
use smp::graph::{Graph, KdTree, UnionFind};
use smp::runtime::{simulate, FaultPlan, MachineModel, SimConfig, StealConfig, StealPolicyKind};

mod common;
use common::observe;

/// Floyd–Warshall reference for shortest-path verification.
fn floyd_warshall(g: &Graph<(), f64>) -> Vec<Vec<f64>> {
    let n = g.num_vertices();
    let mut d = vec![vec![f64::INFINITY; n]; n];
    for (i, row) in d.iter_mut().enumerate() {
        row[i] = 0.0;
    }
    for (a, b, w) in g.edges() {
        let (a, b) = (a as usize, b as usize);
        if *w < d[a][b] {
            d[a][b] = *w;
            d[b][a] = *w;
        }
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                let via = d[i][k] + d[k][j];
                if via < d[i][j] {
                    d[i][j] = via;
                }
            }
        }
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// AABB intersection volume is symmetric, bounded by both volumes, and
    /// exact for nesting.
    #[test]
    fn aabb_intersection_properties(
        a in prop::array::uniform4(-10.0f64..10.0),
        b in prop::array::uniform4(-10.0f64..10.0),
        c in prop::array::uniform4(-10.0f64..10.0),
        d in prop::array::uniform4(-10.0f64..10.0),
    ) {
        let (a, b): (Aabb<4>, Aabb<4>) = (
            Aabb::new(Point::new(a), Point::new(b)),
            Aabb::new(Point::new(c), Point::new(d)),
        );
        let vab = a.intersection_volume(&b);
        let vba = b.intersection_volume(&a);
        prop_assert!((vab - vba).abs() < 1e-9);
        prop_assert!(vab <= a.volume() + 1e-9);
        prop_assert!(vab <= b.volume() + 1e-9);
        if a.contains_box(&b) {
            prop_assert!((vab - b.volume()).abs() < 1e-9);
        }
    }

    /// Every point of the bounds belongs to exactly one core cell, and
    /// region_of() returns it.
    #[test]
    fn grid_cells_partition_points(
        dims in prop::array::uniform2(1usize..12),
        px in 0.0f64..1.0,
        py in 0.0f64..1.0,
    ) {
        let grid: GridSubdivision<2> = GridSubdivision::new(Aabb::unit(), dims, 0.0);
        let p = Point::new([px.min(0.999_999), py.min(0.999_999)]);
        let r = grid.region_of(&p).expect("in-bounds point must map to a region");
        prop_assert!(grid.core_cell(r).contains(&p));
        // cells tile the space exactly
        let total: f64 = grid.region_ids().map(|id| grid.core_cell(id).volume()).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    /// kd-tree k-NN equals brute force on random point sets.
    #[test]
    fn kdtree_matches_bruteforce(
        pts in prop::collection::vec(prop::array::uniform3(0.0f64..1.0), 1..120),
        q in prop::array::uniform3(0.0f64..1.0),
        k in 1usize..10,
    ) {
        let points: Vec<Point<3>> = pts.into_iter().map(Point::new).collect();
        let tree = KdTree::build(&points);
        let query = Point::new(q);
        let fast: Vec<usize> = tree.k_nearest(&query, k, None).into_iter().map(|(i, _)| i).collect();
        let slow: Vec<usize> = smp::graph::knn::k_nearest(&points, &query, k, None)
            .into_iter().map(|(i, _)| i).collect();
        prop_assert_eq!(fast, slow);
    }

    /// Union-find: number of sets = elements - successful unions; unions are
    /// idempotent on connectivity.
    #[test]
    fn union_find_set_count(edges in prop::collection::vec((0u32..40, 0u32..40), 0..120)) {
        let mut uf = UnionFind::new(40);
        let mut merges = 0;
        for &(a, b) in &edges {
            if uf.union(a, b) {
                merges += 1;
            }
        }
        prop_assert_eq!(uf.num_sets(), 40 - merges);
        for &(a, b) in &edges {
            prop_assert!(uf.same_set(a, b));
        }
    }

    /// Partitioners: every item assigned exactly once; LPT max load is
    /// bounded by max(item) + avg (the classic greedy guarantee).
    #[test]
    fn partitioners_are_complete_and_bounded(
        weights in prop::collection::vec(0.0f64..100.0, 1..200),
        p in 1usize..17,
    ) {
        let lpt = greedy_lpt(&weights, p);
        let blk = naive_block(weights.len(), p);
        prop_assert_eq!(lpt.load_per_pe().iter().sum::<usize>(), weights.len());
        prop_assert_eq!(blk.load_per_pe().iter().sum::<usize>(), weights.len());

        let l = loads(&lpt, &weights);
        let total: f64 = weights.iter().sum();
        let wmax = weights.iter().cloned().fold(0.0, f64::max);
        let max_load = l.iter().cloned().fold(0.0, f64::max);
        // greedy list scheduling bound (plus epsilon padding slack)
        prop_assert!(max_load <= total / p as f64 + wmax + total * 2e-3 + 1e-9,
            "max {} total {} wmax {} p {}", max_load, total, wmax, p);

        // spatial bisection on a line: complete too
        let centroids: Vec<Point<1>> =
            (0..weights.len()).map(|i| Point::new([i as f64])).collect();
        let rcb = spatial_bisection(&centroids, &weights, p);
        prop_assert_eq!(rcb.load_per_pe().iter().sum::<usize>(), weights.len());
    }

    /// DES: conservation (every task runs once, busy time = total cost) and
    /// the makespan respects its lower bounds, with and without stealing.
    #[test]
    fn des_conservation_and_bounds(
        costs in prop::collection::vec(1u64..200_000, 1..150),
        p in 1usize..12,
        skew in 0usize..3,
        steal in prop::bool::ANY,
    ) {
        // assignment: balanced, skewed to one PE, or round robin
        let n = costs.len();
        let mut assignment = vec![Vec::new(); p];
        match skew {
            0 => for t in 0..n { assignment[t % p].push(t as u32); },
            1 => assignment[0] = (0..n as u32).collect(),
            _ => for t in 0..n { assignment[(t * t) % p].push(t as u32); },
        }
        let cfg = SimConfig {
            machine: MachineModel::hopper(),
            steal: steal.then(|| StealConfig::new(StealPolicyKind::rand8())),
            seed: 42,
        };
        let rep = simulate(&costs, &assignment, &cfg).expect("sim failed");
        let total: u64 = costs.iter().sum();
        prop_assert_eq!(rep.per_pe_busy.iter().sum::<u64>(), total);
        prop_assert_eq!(rep.per_pe_executed.iter().map(|&x| x as usize).sum::<usize>(), n);
        prop_assert!(rep.executed_by.iter().all(|&e| (e as usize) < p));
        prop_assert!(rep.makespan >= total / p as u64);
        prop_assert!(rep.makespan >= costs.iter().copied().max().unwrap_or(0));
        prop_assert!(rep.makespan <= total + 1); // never slower than serial
    }

    /// Dijkstra returns exactly the Floyd–Warshall shortest distance, and
    /// its path is consistent (edge weights sum to the reported cost).
    #[test]
    fn dijkstra_is_optimal(
        edges in prop::collection::vec((0u32..12, 0u32..12, 0.01f64..10.0), 0..40),
        start in 0u32..12,
        goal in 0u32..12,
    ) {
        let mut g: Graph<(), f64> = Graph::new();
        for _ in 0..12 {
            g.add_vertex(());
        }
        for &(a, b, w) in &edges {
            if a != b {
                g.add_edge(a, b, w);
            }
        }
        let reference = floyd_warshall(&g);
        match dijkstra(&g, start, goal, |w| *w) {
            Some((path, cost)) => {
                prop_assert!((cost - reference[start as usize][goal as usize]).abs() < 1e-9);
                prop_assert_eq!(path[0], start);
                prop_assert_eq!(*path.last().expect("path is non-empty"), goal);
                // path cost re-derivable from consecutive edges
                let mut sum = 0.0;
                for w in path.windows(2) {
                    let best = g
                        .neighbors(w[0])
                        .iter()
                        .filter(|&&(n, _)| n == w[1])
                        .map(|&(_, e)| *g.edge(e).2)
                        .fold(f64::INFINITY, f64::min);
                    prop_assert!(best.is_finite(), "path uses a missing edge");
                    sum += best;
                }
                prop_assert!((sum - cost).abs() < 1e-9);
            }
            None => {
                prop_assert!(reference[start as usize][goal as usize].is_infinite());
            }
        }
    }

    /// DES determinism: identical inputs give identical reports.
    #[test]
    fn des_deterministic(
        costs in prop::collection::vec(1u64..50_000, 1..80),
        seed in 0u64..1000,
    ) {
        let p = 6;
        let mut assignment = vec![Vec::new(); p];
        assignment[0] = (0..costs.len() as u32).collect();
        let cfg = SimConfig {
            machine: MachineModel::opteron(),
            steal: Some(StealConfig::new(StealPolicyKind::Hybrid(4))),
            seed,
        };
        let a = simulate(&costs, &assignment, &cfg).expect("sim failed");
        let b = simulate(&costs, &assignment, &cfg).expect("sim failed");
        prop_assert_eq!(a.makespan, b.makespan);
        prop_assert_eq!(a.executed_by, b.executed_by);
        prop_assert_eq!(a.steal_attempts, b.steal_attempts);
    }

    /// A zero-fault plan is indistinguishable from no plan at all: the whole
    /// report (makespan, executors, messages, resilience counters) matches
    /// bit for bit.
    #[test]
    fn des_zero_fault_plan_is_identity(
        costs in prop::collection::vec(1u64..100_000, 1..100),
        p in 1usize..10,
        plan_seed in 0u64..1000,
        steal in prop::bool::ANY,
    ) {
        let n = costs.len();
        let mut assignment = vec![Vec::new(); p];
        for t in 0..n { assignment[t % p].push(t as u32); }
        let cfg = SimConfig {
            machine: MachineModel::hopper(),
            steal: steal.then(|| StealConfig::new(StealPolicyKind::Hybrid(4))),
            seed: 7,
        };
        let plain = simulate(&costs, &assignment, &cfg).expect("sim failed");
        let plan = FaultPlan::new(plan_seed);
        let faulted = observe(&costs, &assignment, &cfg, Some(&plan), None);
        prop_assert_eq!(plain, faulted);
    }

    /// Exactly-once under a PE crash: the dead PE's queue is recovered and
    /// every task still executes once, with the crash visible in the
    /// resilience counters.
    #[test]
    fn des_crash_preserves_exactly_once(
        costs in prop::collection::vec(1u64..100_000, 2..100),
        p in 2usize..10,
        victim in 0usize..10,
        crash_at in 1u64..2_000_000,
        steal in prop::bool::ANY,
    ) {
        let n = costs.len();
        let victim = victim % p;
        let mut assignment = vec![Vec::new(); p];
        for t in 0..n { assignment[t % p].push(t as u32); }
        let cfg = SimConfig {
            machine: MachineModel::hopper(),
            steal: steal.then(|| StealConfig::new(StealPolicyKind::rand8())),
            seed: 11,
        };
        let plan = FaultPlan::new(3).with_crash(victim, crash_at);
        let rep = observe(&costs, &assignment, &cfg, Some(&plan), None);
        let total: u64 = costs.iter().sum();
        prop_assert_eq!(rep.per_pe_executed.iter().map(|&x| x as usize).sum::<usize>(), n);
        prop_assert_eq!(rep.per_pe_busy.iter().sum::<u64>(), total);
        prop_assert!(rep.executed_by.iter().all(|&e| (e as usize) < p));
        if crash_at <= rep.makespan {
            prop_assert_eq!(rep.resilience.crashes, 1);
            // once dead, the victim executes nothing after the crash instant
            prop_assert!(rep.resilience.per_pe_dead_time[victim] > 0
                || rep.makespan == crash_at);
        }
    }

    /// Faulted runs are deterministic: the same (inputs, seed, plan) gives
    /// the same report, including every resilience counter.
    #[test]
    fn des_faulted_runs_deterministic(
        costs in prop::collection::vec(1u64..50_000, 1..80),
        seed in 0u64..1000,
        loss in 0.0f64..0.5,
        factor in 1.0f64..8.0,
    ) {
        let p = 6;
        let mut assignment = vec![Vec::new(); p];
        assignment[0] = (0..costs.len() as u32).collect();
        let cfg = SimConfig {
            machine: MachineModel::opteron(),
            steal: Some(StealConfig::new(StealPolicyKind::Hybrid(4))),
            seed,
        };
        let plan = FaultPlan::new(seed ^ 0xABCD)
            .with_straggler(0, 0, u64::MAX, factor)
            .with_message_loss(loss)
            .with_message_jitter(0.2, 40_000);
        let a = observe(&costs, &assignment, &cfg, Some(&plan), None);
        let b = observe(&costs, &assignment, &cfg, Some(&plan), None);
        prop_assert_eq!(a, b);
    }

    /// No livelock under arbitrary message loss: steal timeouts and capped
    /// exponential backoff always drive the run to completion with every
    /// task executed exactly once.
    #[test]
    fn des_message_loss_terminates_exactly_once(
        costs in prop::collection::vec(1u64..100_000, 1..100),
        p in 2usize..10,
        loss in 0.0f64..1.0,
        total_loss in prop::bool::ANY,
    ) {
        let n = costs.len();
        let mut assignment = vec![Vec::new(); p];
        for t in 0..n { assignment[t % p].push(t as u32); }
        let cfg = SimConfig {
            machine: MachineModel::hopper(),
            steal: Some(StealConfig::new(StealPolicyKind::Hybrid(4))),
            seed: 5,
        };
        let loss = if total_loss { 1.0 } else { loss };
        let plan = FaultPlan::new(17).with_message_loss(loss);
        let rep = observe(&costs, &assignment, &cfg, Some(&plan), None);
        let total: u64 = costs.iter().sum();
        prop_assert_eq!(rep.per_pe_executed.iter().map(|&x| x as usize).sum::<usize>(), n);
        prop_assert_eq!(rep.per_pe_busy.iter().sum::<u64>(), total);
    }
}
