//! Work counters — the currency of the virtual-time cost model.
//!
//! The paper's cost analysis (§III-B) observes that "the cost of connecting
//! samples in C-space is highly representative of the amount of time the
//! overall algorithm will take". We count every chargeable primitive
//! operation a planner performs; `smp-runtime` converts counts to virtual
//! nanoseconds via the per-operation weights in its machine model.

use std::ops::{Add, AddAssign};

/// Counts of chargeable primitive operations performed by a planner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Point collision checks (validity queries).
    pub cd_checks: u64,
    /// Local-plan invocations (edge feasibility attempts).
    pub lp_calls: u64,
    /// Intermediate resolution steps across all local plans (each step is a
    /// collision check on an interpolated configuration).
    pub lp_steps: u64,
    /// Samples drawn from a sampler.
    pub samples_attempted: u64,
    /// Samples that passed validity checking.
    pub samples_valid: u64,
    /// k-nearest-neighbour queries.
    pub knn_queries: u64,
    /// Candidate pairs examined inside kNN queries.
    pub knn_candidates: u64,
    /// Graph vertices created.
    pub vertices_added: u64,
    /// Graph edges created.
    pub edges_added: u64,
}

impl WorkCounters {
    /// All-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merge another set of counters into this one.
    pub fn merge(&mut self, other: &WorkCounters) {
        *self += *other;
    }

    /// Total number of collision-detection evaluations (point checks plus
    /// local-plan steps) — the dominant cost term.
    pub fn total_cd(&self) -> u64 {
        self.cd_checks + self.lp_steps
    }

    /// True if no work was recorded.
    pub fn is_empty(&self) -> bool {
        *self == WorkCounters::default()
    }
}

impl Add for WorkCounters {
    type Output = WorkCounters;
    fn add(mut self, rhs: WorkCounters) -> WorkCounters {
        self += rhs;
        self
    }
}

impl AddAssign for WorkCounters {
    fn add_assign(&mut self, rhs: WorkCounters) {
        self.cd_checks += rhs.cd_checks;
        self.lp_calls += rhs.lp_calls;
        self.lp_steps += rhs.lp_steps;
        self.samples_attempted += rhs.samples_attempted;
        self.samples_valid += rhs.samples_valid;
        self.knn_queries += rhs.knn_queries;
        self.knn_candidates += rhs.knn_candidates;
        self.vertices_added += rhs.vertices_added;
        self.edges_added += rhs.edges_added;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = WorkCounters {
            cd_checks: 1,
            lp_steps: 2,
            ..Default::default()
        };
        let b = WorkCounters {
            cd_checks: 10,
            lp_calls: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.cd_checks, 11);
        assert_eq!(a.lp_calls, 5);
        assert_eq!(a.lp_steps, 2);
        assert_eq!(a.total_cd(), 13);
    }

    #[test]
    fn add_operator_matches_merge() {
        let a = WorkCounters {
            samples_attempted: 3,
            ..Default::default()
        };
        let b = WorkCounters {
            samples_attempted: 4,
            samples_valid: 2,
            ..Default::default()
        };
        let c = a + b;
        assert_eq!(c.samples_attempted, 7);
        assert_eq!(c.samples_valid, 2);
    }

    #[test]
    fn empty_detection() {
        assert!(WorkCounters::new().is_empty());
        let w = WorkCounters {
            edges_added: 1,
            ..Default::default()
        };
        assert!(!w.is_empty());
    }
}
