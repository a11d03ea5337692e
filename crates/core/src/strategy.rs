//! The load-balancing strategies compared throughout the evaluation.

use smp_runtime::{StealConfig, StealPolicyKind};

/// How a region's work is estimated for repartitioning (§III-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeightKind {
    /// Measured number of valid samples per region — the paper's PRM
    /// metric ("the number of samples in the roadmap that lie within that
    /// region").
    SampleCount,
    /// Exact free-space volume of the region (the theoretical model's
    /// load proxy).
    Vfree,
    /// Estimated free fraction from `m` cheap probe samples per region.
    Probe(usize),
    /// The RRT estimate: `k` random rays from the region apex, averaged
    /// free length ("a poor indicator of work ... unless a large number of
    /// rays is utilized", §III-B).
    KRays(usize),
}

impl WeightKind {
    /// Short name used in run labels (e.g. `"probe-16"`).
    pub fn label(&self) -> String {
        match self {
            WeightKind::SampleCount => "samples".into(),
            WeightKind::Vfree => "vfree".into(),
            WeightKind::Probe(m) => format!("probe-{m}"),
            WeightKind::KRays(k) => format!("krays-{k}"),
        }
    }
}

/// A load-balancing strategy for the regional-construction phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// Static naïve mapping, no balancing — the baseline ("Without LB").
    NoLb,
    /// Bulk-synchronous repartitioning (Algorithm 4) using the given
    /// weight estimate.
    Repartition(WeightKind),
    /// Bulk-synchronous repartitioning whose partitioner is recursive
    /// bisection over the *grid index space* (rectangular partitions, after
    /// Saule/Baş/Çatalyürek): every PE owns an axis-aligned block of
    /// regions, trading a little load balance for minimal ghost surfaces
    /// and deterministic, spatially-clean ownership.
    RectPartition(WeightKind),
    /// Work stealing (Algorithm 3) with the given policy.
    WorkStealing(StealConfig),
}

impl Strategy {
    /// Figure-legend label.
    pub fn label(&self) -> String {
        match self {
            Strategy::NoLb => "Without LB".into(),
            Strategy::Repartition(_) => "Repartitioning".into(),
            Strategy::RectPartition(_) => "Rect Repart".into(),
            Strategy::WorkStealing(sc) => sc.policy.label(),
        }
    }

    /// The paper's standard PRM strategy set (Figures 5, 7, 8).
    pub fn prm_set() -> Vec<Strategy> {
        vec![
            Strategy::NoLb,
            Strategy::Repartition(WeightKind::SampleCount),
            Strategy::WorkStealing(StealConfig::new(StealPolicyKind::Hybrid(8))),
            Strategy::WorkStealing(StealConfig::new(StealPolicyKind::RandK(8))),
        ]
    }

    /// The paper's standard RRT strategy set (Figure 10).
    pub fn rrt_set() -> Vec<Strategy> {
        vec![
            Strategy::NoLb,
            Strategy::WorkStealing(StealConfig::new(StealPolicyKind::Hybrid(8))),
            Strategy::WorkStealing(StealConfig::new(StealPolicyKind::RandK(8))),
            Strategy::WorkStealing(StealConfig::new(StealPolicyKind::Diffusive)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_figures() {
        assert_eq!(Strategy::NoLb.label(), "Without LB");
        assert_eq!(
            Strategy::Repartition(WeightKind::SampleCount).label(),
            "Repartitioning"
        );
        assert_eq!(
            Strategy::WorkStealing(StealConfig::new(StealPolicyKind::Diffusive)).label(),
            "Diff WS"
        );
    }

    #[test]
    fn standard_sets() {
        assert_eq!(Strategy::prm_set().len(), 4);
        assert_eq!(Strategy::rrt_set().len(), 4);
        assert_eq!(Strategy::prm_set()[0], Strategy::NoLb);
    }

    #[test]
    fn rect_and_adaptive_labels() {
        assert_eq!(
            Strategy::RectPartition(WeightKind::SampleCount).label(),
            "Rect Repart"
        );
        assert_eq!(
            Strategy::WorkStealing(StealConfig::new(StealPolicyKind::DiffusiveAdaptive)).label(),
            "Diff-CA WS"
        );
    }

    #[test]
    fn weight_labels() {
        assert_eq!(WeightKind::Probe(16).label(), "probe-16");
        assert_eq!(WeightKind::KRays(4).label(), "krays-4");
    }
}
