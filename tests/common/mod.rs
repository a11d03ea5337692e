//! Helpers shared by the root integration suites (`mod common;`).

use smp::runtime::{simulate_with, FaultPlan, SimConfig, SimOptions, SimReport, Tracer};

/// One simulated phase under an optional fault plan and tracer. Valid
/// input must never fail (or livelock) the simulator, faults included.
pub fn observe(
    costs: &[u64],
    assignment: &[Vec<u32>],
    cfg: &SimConfig,
    fault: Option<&FaultPlan>,
    tracer: Option<&mut Tracer>,
) -> SimReport {
    let opts = SimOptions {
        fault,
        tracer,
        ..SimOptions::default()
    };
    let (report, _) = simulate_with(costs, assignment, cfg, opts).expect("sim failed");
    report
}
