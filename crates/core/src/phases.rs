//! Phase breakdown of a parallel planning run.
//!
//! Figure 7(a) splits execution into *Region Connection*, *Node Connection*
//! and *Other* (subdivision, sampling, redistribution, barriers). "The
//! portion of the computation connecting roadmap nodes in a region dominates
//! most of the computation at 90% of the total execution time" (§IV-C.1).

/// Virtual time per phase (nanoseconds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Subdivision, sample generation, load balancing, barriers.
    pub other: u64,
    /// Per-region roadmap/tree construction (the balanced phase).
    pub node_connection: u64,
    /// Cross-region connection.
    pub region_connection: u64,
}

impl PhaseBreakdown {
    /// Sum of all phases.
    pub fn total(&self) -> u64 {
        self.other + self.node_connection + self.region_connection
    }

    /// Fraction of total time spent in node connection.
    pub fn node_connection_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            return 0.0;
        }
        self.node_connection as f64 / t as f64
    }

    /// `(label, value)` rows for reporting, in the paper's stacking order.
    pub fn rows(&self) -> [(&'static str, u64); 3] {
        [
            ("Region Connection", self.region_connection),
            ("Node Connection", self.node_connection),
            ("Other", self.other),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let p = PhaseBreakdown {
            other: 10,
            node_connection: 80,
            region_connection: 10,
        };
        assert_eq!(p.total(), 100);
        assert!((p.node_connection_fraction() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn zero_total_fraction() {
        assert_eq!(PhaseBreakdown::default().node_connection_fraction(), 0.0);
    }

    #[test]
    fn rows_order() {
        let p = PhaseBreakdown {
            other: 1,
            node_connection: 2,
            region_connection: 3,
        };
        let rows = p.rows();
        assert_eq!(rows[0], ("Region Connection", 3));
        assert_eq!(rows[1], ("Node Connection", 2));
        assert_eq!(rows[2], ("Other", 1));
    }
}
