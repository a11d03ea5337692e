//! One fully-explicit fuzz case: workload, placement, runtime config,
//! fault plan, and schedule perturbation.
//!
//! A case is *data*, not a generator state: the shrinker edits it
//! structurally (drop tasks, remove faults, merge PEs) and the repro
//! format serializes it losslessly, so a failing case replays bit for bit
//! anywhere. Its one fault plan is written in the DES vocabulary and
//! lowered to each executing backend's, so shrinking a fault away removes
//! it on every backend.

use smp_runtime::{
    simulate_with, DistFaultPlan, DistKill, FaultPlan, LiveFaultPlan, MachineModel, Quiescence,
    SeededSchedule, SimConfig, SimError, SimOptions, SimReport, StealConfig,
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

    /// The fault plan on the live backend: each straggler window becomes a
    /// sleep and message loss a steal-grant drop rate
    /// ([`LiveFaultPlan::mirroring`]); each crash panics that worker after
    /// zero to four tasks, so panics before any work and panics mid-run,
    /// with steals in flight, are both swept.
    pub(crate) fn live_faults(&self) -> LiveFaultPlan {
        let mut plan = LiveFaultPlan::mirroring(&self.fault);
        for (panic, crash) in plan.panics.iter_mut().zip(&self.fault.crashes) {
            panic.after_tasks = (crash.at % 5) as usize;
        }
        plan
    }

    /// The fault plan on the dist backend. Each crash kills that worker's
    /// process after one to three tasks; an even crash instant respawns
    /// it, an odd one redistributes its queue. Message loss drops `Done`
    /// and `DoneAck` frames, and jitter withholds first `Assign` sends,
    /// each at 150‰ plus 300‰ of the DES rate (at most 360‰), so a lossy
    /// case always loses a real share of its frames and still ends soon.
    /// Stragglers have no dist counterpart.
    pub(crate) fn dist_faults(&self) -> DistFaultPlan {
        let f = &self.fault;
        let permille = |rate: f64| {
            if rate > 0.0 {
                (150.0 + rate * 300.0).min(999.0) as u16
            } else {
                0
            }
        };
        DistFaultPlan {
            seed: f.seed,
            drop_done_permille: permille(f.msg_loss),
            drop_ack_permille: permille(f.msg_loss),
            delay_assign_permille: permille(f.msg_jitter),
            kills: f
                .crashes
                .iter()
                .map(|c| DistKill {
                    worker: c.pe as u32,
                    after_tasks: 1 + c.at % 3,
                    respawn: c.at % 2 == 0,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::gen::generate_case;
    use std::collections::HashSet;

    #[test]
    fn lowered_fault_plans_are_valid_and_cover_every_fault() {
        let (mut respawns, mut redistributions, mut drops) = (0, 0, 0);
        let mut panic_points = HashSet::new();
        for seed in 0..300 {
            let case = generate_case(seed);
            let p = case.num_pes();
            let live = case.live_faults();
            assert!(live.validate(p).is_ok(), "seed {seed}: {live:?}");
            let dist = case.dist_faults();
            let killed: HashSet<u32> = dist.kills.iter().map(|k| k.worker).collect();
            assert_eq!(
                killed.len(),
                dist.kills.len(),
                "seed {seed}: a worker killed twice"
            );
            assert!(
                killed.len() < p || killed.is_empty(),
                "seed {seed}: no survivor"
            );
            assert!(
                killed.iter().all(|&w| (w as usize) < p),
                "seed {seed}: bad target"
            );
            assert!(dist.drop_done_permille < 1000 && dist.delay_assign_permille < 1000);
            assert_eq!(case.fault.msg_loss > 0.0, dist.drop_done_permille >= 150);
            panic_points.extend(live.panics.iter().map(|s| s.after_tasks));
            respawns += dist.kills.iter().filter(|k| k.respawn).count();
            redistributions += dist.kills.iter().filter(|k| !k.respawn).count();
            drops += usize::from(dist.drop_ack_permille > 0);
        }
        assert_eq!(panic_points, (0..5).collect::<HashSet<usize>>());
        assert!(respawns > 0 && redistributions > 0 && drops > 0);
    }
}
