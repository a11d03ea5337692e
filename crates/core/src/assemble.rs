//! Assembling the global roadmap/tree from regional results.
//!
//! Strategy-independent: the regional roadmaps and cross links are fixed by
//! the workload (region work is location-independent), so the merged result
//! is identical no matter which PE built which region — the property that
//! makes virtual-time replay sound.

use crate::parallel_prm::PrmWorkload;
use crate::parallel_rrt::{BranchOutcome, RrtWorkload};
use smp_graph::UnionFind;
use smp_plan::Roadmap;

/// A stable 64-bit digest (FNV-1a) of a merged roadmap/tree: vertex
/// coordinates (exact f64 bits, in id order) and edges `(a, b, length)`.
///
/// Unlike `std::hash::DefaultHasher` this is specified and stable across
/// Rust versions, so digests can live in committed artifacts
/// (`BENCH_scaling.json`) and be compared across toolchains. Two backends
/// producing the same roadmap produce the same digest — the work-product
/// determinism gate of DESIGN.md §12.
pub fn roadmap_digest<const D: usize>(map: &Roadmap<D>) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |x: u64| {
        for byte in x.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(map.num_vertices() as u64);
    eat(map.num_edges() as u64);
    for v in map.vertices() {
        for &c in v.coords() {
            eat(c.to_bits());
        }
    }
    for (a, b, len) in map.edges() {
        eat(u64::from(a));
        eat(u64::from(b));
        eat(len.to_bits());
    }
    h
}

/// Merge all regional roadmaps plus cross-region links into one global
/// roadmap (Algorithm 1's output `G`).
pub fn assemble_prm_roadmap<const D: usize>(workload: &PrmWorkload<D>) -> Roadmap<D> {
    let regional_edges: usize = workload.regions.iter().map(|r| r.edges.len()).sum();
    let cross_links: usize = workload.cross.iter().map(|c| c.links.len()).sum();
    let mut global: Roadmap<D> =
        Roadmap::with_capacity(workload.total_vertices(), regional_edges + cross_links);
    // vertex-id offset of each region in the global map
    let mut offsets = Vec::with_capacity(workload.regions.len());
    for region in &workload.regions {
        let off = global.num_vertices() as u32;
        offsets.push(off);
        for &q in &region.cfgs {
            global.add_vertex(q);
        }
        for &(a, b, w) in &region.edges {
            global.add_edge(off + a, off + b, w);
        }
    }
    for cross in &workload.cross {
        let (ra, rb) = cross.regions;
        for link in &cross.links {
            global.add_edge(
                offsets[ra as usize] + link.from,
                offsets[rb as usize] + link.to,
                link.length,
            );
        }
    }
    global
}

/// Merge all regional RRT branches plus cross links into one global tree
/// rooted at the subdivision root (Algorithm 2's output `T`).
///
/// Every branch shares the root configuration; the copies are unified into
/// one vertex. Cross-cone links that would create a cycle are pruned
/// (Algorithm 2 lines 15–17), so the result is always a tree or forest of
/// the root's component.
pub fn assemble_rrt_tree<const D: usize>(workload: &RrtWorkload<D>) -> Roadmap<D> {
    // one shared root plus every branch's other vertices; pruned cross
    // links make the edge count an upper bound
    let branch_vertices = |r: &BranchOutcome<D>| r.cfgs.len().saturating_sub(1);
    let vertices = 1 + workload.regions.iter().map(branch_vertices).sum::<usize>();
    let regional_edges: usize = workload.regions.iter().map(|r| r.edges.len()).sum();
    let cross_links: usize = workload.cross.iter().map(|c| c.links.len()).sum();
    let mut global: Roadmap<D> = Roadmap::with_capacity(vertices, regional_edges + cross_links);
    let root_id = global.add_vertex(workload.sub.root());

    // map (region, local vertex) -> global id; local 0 is the shared root
    let mut offsets: Vec<Option<u32>> = Vec::with_capacity(workload.regions.len());
    for region in &workload.regions {
        if region.cfgs.is_empty() {
            offsets.push(None);
            continue;
        }
        // local vertex 0 is the root copy; others get fresh ids
        let off = global.num_vertices() as u32;
        offsets.push(Some(off));
        for &q in region.cfgs.iter().skip(1) {
            global.add_vertex(q);
        }
        let map_id = |v: u32| if v == 0 { root_id } else { off + v - 1 };
        for &(a, b, w) in &region.edges {
            global.add_edge(map_id(a), map_id(b), w);
        }
    }

    // cross links with cycle pruning
    let mut uf = UnionFind::new(global.num_vertices());
    for (a, b, _) in global.edges() {
        uf.union(a, b);
    }
    let mut pruned = 0usize;
    let mut kept = 0usize;
    for cross in &workload.cross {
        let (ra, rb) = cross.regions;
        let (Some(oa), Some(ob)) = (offsets[ra as usize], offsets[rb as usize]) else {
            continue;
        };
        for link in &cross.links {
            let map = |off: u32, v: u32| if v == 0 { root_id } else { off + v - 1 };
            let ga = map(oa, link.from);
            let gb = map(ob, link.to);
            if uf.union(ga, gb) {
                global.add_edge(ga, gb, link.length);
                kept += 1;
            } else {
                pruned += 1;
            }
        }
    }
    let _ = (kept, pruned);
    global
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel_prm::{build_prm_workload, ParallelPrmConfig};
    use crate::parallel_rrt::{build_rrt_workload, ParallelRrtConfig};
    use smp_geom::envs;
    use smp_graph::search::connected_components;

    #[test]
    fn prm_assembly_counts_match() {
        let env = envs::free_env();
        let cfg = ParallelPrmConfig {
            regions_target: 64,
            attempts_per_region: 5,
            overlap: 0.02,
            lp_resolution: 0.05,
            ..ParallelPrmConfig::new(&env)
        };
        let w = build_prm_workload(&cfg);
        let g = assemble_prm_roadmap(&w);
        assert_eq!(g.num_vertices(), w.total_vertices());
        let intra: usize = w.regions.iter().map(|r| r.edges.len()).sum();
        let cross: usize = w.cross.iter().map(|c| c.links.len()).sum();
        assert_eq!(g.num_edges(), intra + cross);
        assert!(smp_plan::roadmap::check_invariants(&g).is_ok());
    }

    #[test]
    fn prm_assembly_connects_free_space() {
        let env = envs::free_env();
        let cfg = ParallelPrmConfig {
            regions_target: 27,
            attempts_per_region: 8,
            overlap: 0.05,
            lp_resolution: 0.05,
            connect_max_pairs: 8,
            connect_stop_after: 3,
            ..ParallelPrmConfig::new(&env)
        };
        let w = build_prm_workload(&cfg);
        let g = assemble_prm_roadmap(&w);
        let (_, ncomp) = connected_components(&g);
        // free space with overlap: the roadmap should be (nearly) one piece
        assert!(
            ncomp <= 3,
            "free-space assembled roadmap fragmented into {ncomp} components"
        );
    }

    #[test]
    fn roadmap_digest_is_stable_and_sensitive() {
        let env = envs::free_env();
        let cfg = ParallelPrmConfig {
            regions_target: 27,
            attempts_per_region: 5,
            lp_resolution: 0.05,
            ..ParallelPrmConfig::new(&env)
        };
        let w = build_prm_workload(&cfg);
        let g = assemble_prm_roadmap(&w);
        // same roadmap -> same digest (pure function)
        assert_eq!(roadmap_digest(&g), roadmap_digest(&w_digest_clone(&w)));
        // a different seed must change the digest
        let other = build_prm_workload(&ParallelPrmConfig {
            seed: 0xBEEF,
            ..cfg
        });
        assert_ne!(
            roadmap_digest(&g),
            roadmap_digest(&assemble_prm_roadmap(&other))
        );
        // the empty roadmap digests to the FNV offset state fed with zeros,
        // not 0 — guard against an accidentally-trivial hash
        assert_ne!(roadmap_digest(&g), 0);
    }

    fn w_digest_clone(w: &crate::parallel_prm::PrmWorkload<3>) -> Roadmap<3> {
        assemble_prm_roadmap(&w.clone())
    }

    #[test]
    fn rrt_assembly_is_a_tree() {
        let env = envs::free_env();
        let cfg = ParallelRrtConfig {
            num_regions: 16,
            nodes_per_region: 12,
            ..ParallelRrtConfig::new(&env)
        };
        let w = build_rrt_workload(&cfg);
        let t = assemble_rrt_tree(&w);
        assert!(t.num_vertices() >= 1);
        // tree/forest invariant: edges = vertices - components
        let (_, ncomp) = connected_components(&t);
        assert_eq!(
            t.num_edges(),
            t.num_vertices() - ncomp,
            "cycle survived pruning"
        );
        // the root's component should dominate (branches share the root)
        assert_eq!(ncomp, 1, "branches did not merge at the root");
    }
}
