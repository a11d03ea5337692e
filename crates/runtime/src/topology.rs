//! 2-D processor mesh.
//!
//! The paper's DIFFUSIVE stealing policy assumes "processors are arranged in
//! a 2D mesh and underloaded processors will request neighboring processors
//! for work" (§III-A). We arrange `p` PEs into the most-square factorization
//! `rows × cols = p`.

/// A logical 2-D mesh over `p` processing elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mesh {
    rows: usize,
    cols: usize,
}

impl Mesh {
    /// Most-square mesh with exactly `p` cells.
    ///
    /// # Panics
    /// Panics when `p == 0`.
    pub fn new(p: usize) -> Self {
        assert!(p > 0, "mesh needs at least one PE");
        let mut rows = (p as f64).sqrt().floor() as usize;
        while rows > 1 && !p.is_multiple_of(rows) {
            rows -= 1;
        }
        Mesh {
            rows: rows.max(1),
            cols: p / rows.max(1),
        }
    }

    /// Mesh height.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Mesh width.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of PEs in the mesh.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// True for a zero-PE mesh.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `(row, col)` coordinates of a PE.
    pub fn coords(&self, pe: usize) -> (usize, usize) {
        (pe / self.cols, pe % self.cols)
    }

    /// PE at `(row, col)`.
    pub fn pe_at(&self, row: usize, col: usize) -> usize {
        row * self.cols + col
    }

    /// All PEs within Manhattan distance `radius` of `pe` (excluding `pe`
    /// itself, no wraparound), ordered by `(distance, row, col)` — ring by
    /// ring outward, deterministically. `radius = 1` is exactly the
    /// 4-neighbourhood reordered to `(row, col)` within the ring.
    pub fn neighbors_within(&self, pe: usize, radius: usize) -> Vec<usize> {
        let (r, c) = self.coords(pe);
        let mut out = Vec::new();
        for dist in 1..=radius {
            let r0 = r.saturating_sub(dist);
            let r1 = (r + dist).min(self.rows - 1);
            for row in r0..=r1 {
                let rem = dist - r.abs_diff(row);
                if rem == 0 {
                    out.push(self.pe_at(row, c));
                    continue;
                }
                if c >= rem {
                    out.push(self.pe_at(row, c - rem));
                }
                if c + rem < self.cols {
                    out.push(self.pe_at(row, c + rem));
                }
            }
        }
        out
    }

    /// Largest possible Manhattan distance between two mesh cells.
    pub fn diameter(&self) -> usize {
        (self.rows - 1) + (self.cols - 1)
    }

    /// The 4-neighbourhood of a PE (no wraparound), in deterministic
    /// N, S, W, E order.
    pub fn neighbors(&self, pe: usize) -> Vec<usize> {
        let (r, c) = self.coords(pe);
        let mut out = Vec::with_capacity(4);
        if r > 0 {
            out.push(self.pe_at(r - 1, c));
        }
        if r + 1 < self.rows {
            out.push(self.pe_at(r + 1, c));
        }
        if c > 0 {
            out.push(self.pe_at(r, c - 1));
        }
        if c + 1 < self.cols {
            out.push(self.pe_at(r, c + 1));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_factorization() {
        let m = Mesh::new(16);
        assert_eq!((m.rows(), m.cols()), (4, 4));
        let m = Mesh::new(96);
        assert_eq!((m.rows(), m.cols()), (8, 12));
        let m = Mesh::new(7); // prime: 1 x 7
        assert_eq!((m.rows(), m.cols()), (1, 7));
    }

    #[test]
    fn coords_roundtrip() {
        let m = Mesh::new(12);
        for pe in 0..12 {
            let (r, c) = m.coords(pe);
            assert_eq!(m.pe_at(r, c), pe);
        }
    }

    #[test]
    fn interior_has_four_neighbors() {
        let m = Mesh::new(16);
        let inner = m.pe_at(1, 1);
        assert_eq!(m.neighbors(inner).len(), 4);
        // corner has two
        assert_eq!(m.neighbors(0).len(), 2);
    }

    #[test]
    fn neighbors_are_adjacent() {
        let m = Mesh::new(24);
        for pe in 0..24 {
            for n in m.neighbors(pe) {
                let (r1, c1) = m.coords(pe);
                let (r2, c2) = m.coords(n);
                assert_eq!(r1.abs_diff(r2) + c1.abs_diff(c2), 1);
            }
        }
    }

    #[test]
    fn neighbors_within_rings() {
        let m = Mesh::new(16); // 4x4
        let inner = m.pe_at(1, 1);
        // radius 1: the 4-neighbourhood, ring-ordered
        let r1 = m.neighbors_within(inner, 1);
        let mut n = m.neighbors(inner);
        n.sort_unstable();
        let mut r1s = r1.clone();
        r1s.sort_unstable();
        assert_eq!(r1s, n);
        // radius 2 adds exactly the distance-2 ring
        let r2 = m.neighbors_within(inner, 2);
        assert_eq!(&r2[..r1.len()], &r1[..]);
        for &pe in &r2 {
            let (r, c) = m.coords(pe);
            let d = r.abs_diff(1) + c.abs_diff(1);
            assert!((1..=2).contains(&d));
        }
        // diameter covers everything
        let all = m.neighbors_within(inner, m.diameter());
        assert_eq!(all.len(), 15);
        let mut s = all.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 15);
    }

    #[test]
    fn line_mesh_neighbors() {
        let m = Mesh::new(5);
        assert_eq!(m.neighbors(2), vec![1, 3]);
        assert_eq!(m.neighbors(0), vec![1]);
    }
}
