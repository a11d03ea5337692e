//! The theoretical model of §IV-B.
//!
//! A 2-D environment with a single square obstacle equidistant from the
//! bounding box. Since the free-space volume `V_free` of every region is
//! exactly computable, the model predicts:
//!
//! * the load imbalance (coefficient of variation of per-PE `V_free`) of
//!   the naïve column mapping, and
//! * the best-possible balanced distribution (greedy global partitioning,
//!   ignoring edge cuts — "the exact problem is NP-complete"), which bounds
//!   the improvement *any* load-balancing technique can achieve.
//!
//! Figure 4 validates these predictions against measured sample counts and
//! runtimes; the harness drives this module plus a real PRM workload on the
//! same environment.

use crate::partition::{greedy_lpt, loads};
use crate::weights::vfree_weights;
use smp_geom::{envs, Environment, GridSubdivision};
use smp_graph::OwnerMap;
use smp_runtime::metrics::{cov, percent_improvement};

/// Model-environment configuration.
#[derive(Debug, Clone, Copy)]
pub struct ModelConfig {
    /// Fraction of the unit square blocked by the centered square obstacle.
    pub blocked_fraction: f64,
    /// Grid columns (axis 0) — the naïve mapping slices these.
    pub columns: usize,
    /// Grid rows (axis 1).
    pub rows: usize,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            blocked_fraction: 0.25,
            columns: 256,
            rows: 8,
        }
    }
}

/// One row of the model analysis (one processor count).
#[derive(Debug, Clone, Copy)]
pub struct ModelRow {
    /// Processor count.
    pub p: usize,
    /// CoV of per-PE `V_free` under the naïve column mapping.
    pub cov_naive: f64,
    /// CoV under the best (greedy LPT) distribution.
    pub cov_best: f64,
    /// Reduction of the maximum per-PE `V_free` achieved by the best
    /// distribution, in percent — the model's bound on any LB technique's
    /// improvement ("the total reduction in V_free for the processor with
    /// the highest amount of V_free", §IV-B).
    pub improvement_bound_pct: f64,
}

/// The model environment plus its grid.
pub struct ModelInstance {
    /// The 2-D single-square-obstacle model environment.
    pub env: Environment<2>,
    /// Its uniform column grid.
    pub grid: GridSubdivision<2>,
    /// Exact free volume per region.
    pub vfree: Vec<f64>,
}

impl ModelInstance {
    /// Build the model environment and compute exact per-region `V_free`.
    pub fn new(cfg: &ModelConfig) -> Self {
        let env = envs::model_env(cfg.blocked_fraction);
        let grid = GridSubdivision::new(*env.bounds(), [cfg.columns, cfg.rows], 0.0);
        let vfree = vfree_weights(&env, &grid);
        ModelInstance { env, grid, vfree }
    }

    /// The naïve mapping: contiguous blocks of grid *columns* to PEs.
    pub fn naive_owner_map(&self, p: usize) -> OwnerMap {
        let cols = self.grid.num_columns();
        let col_owner = OwnerMap::block(cols, p);
        let owner: Vec<u32> = self
            .grid
            .region_ids()
            .map(|r| col_owner.owner_of(self.grid.column_of(r) as u32))
            .collect();
        OwnerMap::new(owner, p)
    }

    /// Analyze one processor count.
    pub fn analyze_p(&self, p: usize) -> ModelRow {
        let naive = self.naive_owner_map(p);
        let best = greedy_lpt(&self.vfree, p);
        let naive_loads = loads(&naive, &self.vfree);
        let best_loads = loads(&best, &self.vfree);
        let max_naive = naive_loads.iter().cloned().fold(0.0, f64::max);
        let max_best = best_loads.iter().cloned().fold(0.0, f64::max);
        ModelRow {
            p,
            cov_naive: cov(&naive_loads),
            cov_best: cov(&best_loads),
            improvement_bound_pct: percent_improvement(max_naive, max_best),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instance() -> ModelInstance {
        ModelInstance::new(&ModelConfig::default())
    }

    #[test]
    fn vfree_totals() {
        let m = instance();
        let total: f64 = m.vfree.iter().sum();
        assert!((total - 0.75).abs() < 1e-9, "total free {total}");
    }

    #[test]
    fn naive_columns_are_contiguous() {
        let m = instance();
        let map = m.naive_owner_map(8);
        // owners must be monotone in column index
        let mut last = 0;
        for col in 0..m.grid.num_columns() {
            let r = m.grid.id_of(&[col, 0]);
            let o = map.owner_of(r);
            assert!(o >= last);
            last = o;
        }
        // all rows of a column share an owner
        for col in [0, 100, 255] {
            let o0 = map.owner_of(m.grid.id_of(&[col, 0]));
            for row in 1..8 {
                assert_eq!(o0, map.owner_of(m.grid.id_of(&[col, row])));
            }
        }
    }

    #[test]
    fn naive_imbalance_positive_best_near_zero() {
        let m = instance();
        let row = m.analyze_p(16);
        assert!(
            row.cov_naive > 0.05,
            "obstacle must imbalance the columns: {}",
            row.cov_naive
        );
        assert!(row.cov_best < row.cov_naive / 2.0);
        assert!(row.improvement_bound_pct > 0.0);
    }

    #[test]
    fn imbalance_grows_with_p() {
        // "for most problems, the heterogeneity of the subproblems
        // increases as the number of processors increases" (abstract)
        let m = instance();
        assert!(m.analyze_p(2).cov_naive < m.analyze_p(64).cov_naive);
    }

    #[test]
    fn improvement_shrinks_at_scale() {
        // "the best possible distribution of regions to processors for
        // higher core counts shows less benefit" (§IV-B)
        let m = instance();
        let few = m.analyze_p(8);
        let many = m.analyze_p(256);
        assert!(
            many.improvement_bound_pct <= few.improvement_bound_pct + 1e-9,
            "improvement {} at 256 should not exceed {} at 8",
            many.improvement_bound_pct,
            few.improvement_bound_pct
        );
    }

    #[test]
    fn free_environment_is_balanced() {
        let m = ModelInstance::new(&ModelConfig {
            blocked_fraction: 0.0,
            columns: 64,
            rows: 4,
        });
        let row = m.analyze_p(16);
        assert!(row.cov_naive < 1e-9);
        assert!(row.improvement_bound_pct.abs() < 1e-9);
    }

    #[test]
    fn single_pe_no_imbalance() {
        let m = instance();
        let row = m.analyze_p(1);
        assert_eq!(row.cov_naive, 0.0);
        assert_eq!(row.improvement_bound_pct, 0.0);
    }
}
