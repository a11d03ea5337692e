//! Distributed-view accounting: ownership maps and remote-access counters.
//!
//! STAPL's pGraph distributes vertices across locations; touching a vertex
//! owned by another location is a *remote access* and dominates communication
//! cost. Figure 7(b) of the paper measures exactly this: remote accesses in
//! the region-connection phase, for both the region graph and the roadmap
//! graph, before and after repartitioning. This module provides the
//! ownership map and the counters; `smp-runtime` charges virtual latency per
//! remote access.

/// Maps each item (region or vertex) to its owning processing element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnerMap {
    owner: Vec<u32>,
    num_pes: usize,
}

impl OwnerMap {
    /// Build from an explicit assignment.
    ///
    /// # Panics
    /// Panics if any owner id is `>= num_pes`.
    pub fn new(owner: Vec<u32>, num_pes: usize) -> Self {
        assert!(
            owner.iter().all(|&o| (o as usize) < num_pes),
            "owner id out of range"
        );
        OwnerMap { owner, num_pes }
    }

    /// Block distribution: items split into `num_pes` contiguous chunks
    /// (sizes differing by at most one).
    pub fn block(num_items: usize, num_pes: usize) -> Self {
        assert!(num_pes > 0);
        let base = num_items / num_pes;
        let extra = num_items % num_pes;
        let mut owner = Vec::with_capacity(num_items);
        for pe in 0..num_pes {
            let len = base + usize::from(pe < extra);
            owner.extend(std::iter::repeat_n(pe as u32, len));
        }
        OwnerMap { owner, num_pes }
    }

    pub fn len(&self) -> usize {
        self.owner.len()
    }

    pub fn is_empty(&self) -> bool {
        self.owner.is_empty()
    }

    pub fn num_pes(&self) -> usize {
        self.num_pes
    }

    /// Owner of item `i`.
    pub fn owner_of(&self, i: u32) -> u32 {
        self.owner[i as usize]
    }

    /// Reassign item `i` to `pe` (ownership transfer — work stealing or
    /// migration).
    pub fn transfer(&mut self, i: u32, pe: u32) {
        assert!((pe as usize) < self.num_pes, "owner id out of range");
        self.owner[i as usize] = pe;
    }

    /// Items owned by each PE.
    pub fn items_per_pe(&self) -> Vec<Vec<u32>> {
        let mut out = vec![Vec::new(); self.num_pes];
        for (i, &pe) in self.owner.iter().enumerate() {
            out[pe as usize].push(i as u32);
        }
        out
    }

    /// Count of items per PE.
    pub fn load_per_pe(&self) -> Vec<usize> {
        let mut out = vec![0usize; self.num_pes];
        for &pe in &self.owner {
            out[pe as usize] += 1;
        }
        out
    }

    /// Raw owner slice.
    pub fn owners(&self) -> &[u32] {
        &self.owner
    }

    /// Number of edges in `edges` whose endpoints live on different PEs —
    /// the *edge cut* induced by this assignment. Repartitioning trades a
    /// lower load imbalance for a higher edge cut (paper §IV-C.1, Fig. 7).
    pub fn edge_cut(&self, edges: &[(u32, u32)]) -> usize {
        edges
            .iter()
            .filter(|&&(a, b)| self.owner_of(a) != self.owner_of(b))
            .count()
    }

    /// Count how many items moved between two assignments (migration
    /// volume).
    pub fn migration_count(&self, other: &OwnerMap) -> usize {
        assert_eq!(self.len(), other.len());
        self.owner
            .iter()
            .zip(&other.owner)
            .filter(|(a, b)| a != b)
            .count()
    }
}

/// Remote-access counters for the distributed graphs, by graph kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RemoteAccessCounter {
    /// Accesses to region-graph vertices owned elsewhere.
    pub region_graph_remote: u64,
    /// Accesses to roadmap/tree vertices owned elsewhere.
    pub roadmap_remote: u64,
    /// Local accesses (for ratio reporting).
    pub local: u64,
}

impl RemoteAccessCounter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an access to a region-graph entry owned by `owner`, made from
    /// `from` PE.
    pub fn touch_region(&mut self, from: u32, owner: u32) {
        if from == owner {
            self.local += 1;
        } else {
            self.region_graph_remote += 1;
        }
    }

    /// Record `count` accesses to roadmap vertices owned by `owner`, made
    /// from `from` PE.
    pub fn touch_roadmap(&mut self, from: u32, owner: u32, count: u64) {
        if from == owner {
            self.local += count;
        } else {
            self.roadmap_remote += count;
        }
    }

    /// Total remote accesses across both graphs.
    pub fn total_remote(&self) -> u64 {
        self.region_graph_remote + self.roadmap_remote
    }

    pub fn merge(&mut self, other: &RemoteAccessCounter) {
        self.region_graph_remote += other.region_graph_remote;
        self.roadmap_remote += other.roadmap_remote;
        self.local += other.local;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_distribution_is_even() {
        let m = OwnerMap::block(10, 3);
        assert_eq!(m.load_per_pe(), vec![4, 3, 3]);
        assert_eq!(m.owner_of(0), 0);
        assert_eq!(m.owner_of(9), 2);
    }

    #[test]
    fn transfer_changes_owner() {
        let mut m = OwnerMap::block(4, 2);
        assert_eq!(m.owner_of(3), 1);
        m.transfer(3, 0);
        assert_eq!(m.owner_of(3), 0);
        assert_eq!(m.load_per_pe(), vec![3, 1]);
    }

    #[test]
    fn edge_cut_counts_cross_pe_edges() {
        let m = OwnerMap::new(vec![0, 0, 1, 1], 2);
        let edges = vec![(0, 1), (1, 2), (2, 3), (0, 3)];
        assert_eq!(m.edge_cut(&edges), 2);
    }

    #[test]
    fn migration_count() {
        let a = OwnerMap::block(6, 2);
        let mut b = a.clone();
        b.transfer(0, 1);
        b.transfer(5, 0);
        assert_eq!(a.migration_count(&b), 2);
    }

    #[test]
    fn items_per_pe_partitions() {
        let m = OwnerMap::new(vec![1, 0, 1, 0, 1], 2);
        let per = m.items_per_pe();
        assert_eq!(per[0], vec![1, 3]);
        assert_eq!(per[1], vec![0, 2, 4]);
    }

    #[test]
    fn remote_counters() {
        let mut c = RemoteAccessCounter::new();
        c.touch_region(0, 0);
        c.touch_region(0, 1);
        c.touch_roadmap(2, 2, 5);
        c.touch_roadmap(2, 3, 7);
        assert_eq!(c.local, 6);
        assert_eq!(c.region_graph_remote, 1);
        assert_eq!(c.roadmap_remote, 7);
        assert_eq!(c.total_remote(), 8);
        let mut d = RemoteAccessCounter::new();
        d.merge(&c);
        assert_eq!(d, c);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_owner_panics() {
        let _ = OwnerMap::new(vec![0, 2], 2);
    }
}
