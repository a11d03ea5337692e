//! Mutation-canary and campaign integration tests.
//!
//! Built normally, the fuzz campaign must be clean. Built with
//! `RUSTFLAGS="--cfg smp_check_canary"`, smp-runtime plants a deliberate
//! double-execution bug (the first granted steal batch leaves its last
//! task behind in the victim queue); the oracle suite must catch it,
//! shrink it, and produce a replay file that still fails — proof the
//! whole detection pipeline works, not just that the happy path is green.

use smp_check::harness::{fuzz, FuzzConfig};
use smp_check::{oracles, Backend, CaseSpec, MachineKind, SchedulePlan};
use smp_runtime::{FaultPlan, StealAmount, StealConfig, StealPolicyKind};

/// A case guaranteed to trigger at least one steal grant: all work on
/// PE 0, a second idle PE, aggressive stealing, no faults.
fn guaranteed_steal_case() -> CaseSpec {
    CaseSpec {
        costs: vec![10_000; 16],
        assignment: vec![(0..16).collect(), Vec::new()],
        machine: MachineKind::Hopper,
        steal: Some(StealConfig {
            policy: StealPolicyKind::RandK(4),
            amount: StealAmount::Half,
        }),
        sim_seed: 42,
        fault: FaultPlan::new(0),
        schedule: SchedulePlan::Fifo,
    }
}

#[cfg(not(smp_check_canary))]
mod clean_build {
    use super::*;

    #[test]
    fn steal_heavy_case_satisfies_all_oracles() {
        let violations = oracles::check_case(&guaranteed_steal_case(), Backend::Des);
        assert!(
            violations.is_empty(),
            "clean build must pass: {violations:?}"
        );
    }

    #[test]
    fn randomized_campaign_is_clean() {
        let cfg = FuzzConfig {
            runs: 120,
            base_seed: 0xC1EA4,
            ..FuzzConfig::default()
        };
        let outcome = fuzz(&cfg, |_, _, _| {});
        assert_eq!(outcome.runs_executed, 120);
        assert!(
            outcome.ok(),
            "campaign found violations: {:?}",
            outcome
                .failures
                .iter()
                .map(|f| (f.seed, &f.violations))
                .collect::<Vec<_>>()
        );
    }
}

#[cfg(smp_check_canary)]
mod canary_build {
    use super::*;
    use smp_check::{repro, shrink};

    #[test]
    fn oracles_catch_the_planted_double_execution() {
        let violations = oracles::check_case(&guaranteed_steal_case(), Backend::Des);
        assert!(
            violations.iter().any(|v| v.oracle == "NoTaskDuplication"),
            "NoTaskDuplication must flag the canary, got: {violations:?}"
        );
    }

    #[test]
    fn canary_shrinks_and_replays_deterministically() {
        let case = guaranteed_steal_case();
        let (shrunk, violations) = shrink::shrink(&case);
        assert!(
            !violations.is_empty(),
            "shrinking must preserve the failure"
        );
        assert!(
            shrunk.size() <= case.size(),
            "shrinking must not grow the case"
        );

        // the shrunk case must survive a serialize → parse → re-check
        // round trip with the identical verdict, twice (determinism)
        let text = repro::serialize(&shrunk, Backend::Des, &[]);
        let (back, backend) = repro::parse(&text).expect("repro must parse");
        assert_eq!(
            (&shrunk, Backend::Des),
            (&back, backend),
            "repro round trip must be lossless"
        );
        let first = oracles::check_case(&back, backend);
        let second = oracles::check_case(&back, backend);
        assert_eq!(first, second, "replay must be deterministic");
        assert!(
            first.iter().any(|v| v.oracle == "NoTaskDuplication"),
            "replayed case must still fail NoTaskDuplication: {first:?}"
        );
    }

    #[test]
    fn fuzz_campaign_finds_the_canary() {
        let cfg = FuzzConfig {
            runs: 60,
            fail_fast: true,
            ..FuzzConfig::default()
        };
        let outcome = fuzz(&cfg, |_, _, _| {});
        assert!(
            !outcome.ok(),
            "60 randomized runs must trip over a planted double execution"
        );
    }
}
