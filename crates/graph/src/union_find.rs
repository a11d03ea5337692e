//! Disjoint-set union (union-find) with path compression and union by rank.
//!
//! Used for connected-component queries on roadmaps and cycle detection when
//! connecting regional RRT branches (Algorithm 2, lines 15–17).

/// Disjoint-set forest over `0..n`.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    num_sets: usize,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            num_sets: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Add a new singleton element, returning its index.
    pub fn push(&mut self) -> u32 {
        let id = self.parent.len() as u32;
        self.parent.push(id);
        self.rank.push(0);
        self.num_sets += 1;
        id
    }

    /// Representative of `x`'s set (with path compression).
    pub fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // compress
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    /// Merge the sets of `a` and `b`. Returns false if already joined (i.e.
    /// adding the edge `(a, b)` would create a cycle).
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        self.num_sets -= 1;
        true
    }

    /// Are `a` and `b` in the same set?
    pub fn same_set(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Number of disjoint sets.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_initially() {
        let mut uf = UnionFind::new(4);
        assert_eq!(uf.num_sets(), 4);
        assert!(!uf.same_set(0, 1));
    }

    #[test]
    fn union_merges_and_detects_cycles() {
        let mut uf = UnionFind::new(4);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert!(uf.union(1, 2));
        assert_eq!(uf.num_sets(), 1);
        // 0-3 already connected: would be a cycle
        assert!(!uf.union(0, 3));
    }

    #[test]
    fn push_extends() {
        let mut uf = UnionFind::new(1);
        let b = uf.push();
        assert_eq!(b, 1);
        assert_eq!(uf.num_sets(), 2);
        uf.union(0, b);
        assert!(uf.same_set(0, 1));
    }

    #[test]
    fn unions_partition_the_elements() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 1);
        uf.union(1, 2);
        uf.union(4, 5);
        assert_eq!(uf.num_sets(), 3);
        assert!(uf.same_set(0, 2) && uf.same_set(4, 5));
        assert!(!uf.same_set(2, 3) && !uf.same_set(3, 4));
    }

    #[test]
    fn transitive_connectivity() {
        let mut uf = UnionFind::new(100);
        for i in 0..99 {
            uf.union(i, i + 1);
        }
        assert!(uf.same_set(0, 99));
        assert_eq!(uf.num_sets(), 1);
    }
}
