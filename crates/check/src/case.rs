//! One fully-explicit fuzz case: workload, placement, runtime config,
//! fault plan, and schedule perturbation.
//!
//! A case is *data*, not a generator state: the shrinker edits it
//! structurally (drop tasks, remove faults, merge PEs) and the repro
//! format serializes it losslessly, so a failing case replays bit for bit
//! anywhere. Every backend reads its one fault plan directly, so
//! shrinking a fault away removes it on every backend.

use smp_runtime::{
    simulate_with, FaultPlan, MachineModel, Quiescence, SeededSchedule, SimConfig, SimError,
    SimOptions, SimReport, StealConfig,
};

/// Which virtual machine model the case runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineKind {
    Hopper,
    Opteron,
}

impl MachineKind {
    pub fn model(&self) -> MachineModel {
        match self {
            MachineKind::Hopper => MachineModel::hopper(),
            MachineKind::Opteron => MachineModel::opteron(),
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            MachineKind::Hopper => "hopper",
            MachineKind::Opteron => "opteron",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "hopper" => Some(MachineKind::Hopper),
            "opteron" => Some(MachineKind::Opteron),
            _ => None,
        }
    }
}

/// The schedule-exploration half of a case: FIFO is the canonical order
/// every golden file pins; `Seeded(s)` is the deterministic perturbation
/// of equal-time event delivery explored by the fuzzer. The seed *is* the
/// schedule trace — replaying it reproduces the exact interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulePlan {
    Fifo,
    Seeded(u64),
}

/// A complete, self-contained fuzz case.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseSpec {
    /// Virtual cost of each task.
    pub costs: Vec<u64>,
    /// Initial queue of each PE; every task id appears exactly once.
    pub assignment: Vec<Vec<u32>>,
    pub machine: MachineKind,
    /// `None` = static schedule (no load balancing).
    pub steal: Option<StealConfig>,
    /// Victim-selection RNG seed ([`SimConfig::seed`]).
    pub sim_seed: u64,
    pub fault: FaultPlan,
    pub schedule: SchedulePlan,
}

impl CaseSpec {
    pub fn num_tasks(&self) -> usize {
        self.costs.len()
    }

    pub fn num_pes(&self) -> usize {
        self.assignment.len()
    }

    /// Rough structural size, used by the shrinker to rank candidates:
    /// tasks + PEs + fault-plan entries.
    pub fn size(&self) -> usize {
        self.costs.len()
            + self.assignment.len()
            + self.fault.stragglers.len()
            + self.fault.crashes.len()
            + self.fault.drop_seqs.len()
            + self.fault.jitter_seqs.len()
            + usize::from(self.fault.msg_loss > 0.0)
            + usize::from(self.fault.msg_jitter > 0.0)
            + usize::from(!matches!(self.schedule, SchedulePlan::Fifo))
    }

    /// Whether two executions give bit-identical results. On the DES
    /// they must: a difference is a determinism bug in the simulator.
    pub fn replays_identically(&self) -> bool {
        self.run() == self.run()
    }

    /// Execute the case deterministically.
    pub fn run(&self) -> Result<(SimReport, Quiescence), SimError> {
        let cfg = SimConfig {
            machine: self.machine.model(),
            steal: self.steal,
            seed: self.sim_seed,
        };
        let fault = if self.fault.is_zero() {
            None
        } else {
            Some(&self.fault)
        };
        let mut seeded;
        let oracle: Option<&mut dyn smp_runtime::ScheduleOracle> = match self.schedule {
            SchedulePlan::Fifo => None,
            SchedulePlan::Seeded(seed) => {
                seeded = SeededSchedule { seed };
                Some(&mut seeded)
            }
        };
        let opts = SimOptions {
            fault,
            oracle,
            ..SimOptions::default()
        };
        simulate_with(&self.costs, &self.assignment, &cfg, opts)
    }
}
