//! The three backends a case runs on, and what one run leaves behind.
//!
//! A [`CaseSpec`] is backend-independent data. The DES prices its
//! virtual costs under its fault plan and schedule seed. The live and
//! dist backends execute [`synth_work`], a short spin whose result is a
//! pure function of `(task, cost)`, under the same fault plan, which
//! each reads directly (`smp_runtime::fault`). Every correct result is
//! known before the run, so one run per case is enough: the catalog
//! compares the results with `synth_work` instead of with a second,
//! fault-free run.

use crate::case::CaseSpec;
use smp_runtime::dist::{synth_work, DistExecutor, DistOptions, WireWriter, WorkDesc};
use smp_runtime::{ExecReport, ExecSpec, LiveExecutor, LiveTuning, Quiescence};

/// Where a case executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The discrete-event simulator: deterministic, so failures shrink
    /// and replay exactly.
    Des,
    /// Real OS threads stealing through shared memory.
    Live,
    /// A coordinator and worker processes over Unix-socket frames.
    Dist,
}

impl Backend {
    pub fn name(self) -> &'static str {
        match self {
            Backend::Des => "des",
            Backend::Live => "live",
            Backend::Dist => "dist",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        [Backend::Des, Backend::Live, Backend::Dist]
            .into_iter()
            .find(|b| b.name() == s)
    }
}

/// One completed run of a case: the report every backend produces, plus
/// the evidence only some backends have.
#[derive(Debug)]
pub(crate) struct Run {
    pub(crate) backend: Backend,
    pub(crate) report: ExecReport,
    /// Per-task result bytes: live and dist. The DES computes none.
    pub(crate) results: Option<Vec<Vec<u8>>>,
    /// The event-queue ledger at quiescence: DES only.
    pub(crate) quiescence: Option<Quiescence>,
}

/// Run `spec` on `backend` under the case's fault plan. An error means
/// the run did not reach quiescence; the generator only emits valid
/// cases, so the catalog reports it as a `Progress` violation.
pub(crate) fn execute(spec: &CaseSpec, backend: Backend) -> Result<Run, String> {
    let exec_spec = ExecSpec {
        n_tasks: spec.num_tasks(),
        costs: None,
        payloads: None,
        assignment: &spec.assignment,
        steal: spec.steal,
        seed: spec.sim_seed,
    };
    match backend {
        Backend::Des => {
            let (report, quiescence) = spec
                .run()
                .map_err(|e| format!("simulate_with failed: {e} ({e:?})"))?;
            Ok(Run {
                backend,
                report,
                results: None,
                quiescence: Some(quiescence),
            })
        }
        Backend::Live => {
            let costs = &spec.costs;
            let (results, report) = LiveExecutor::new(spec.num_pes(), LiveTuning::default())
                .with_faults(spec.fault.clone())
                .execute(&exec_spec, &|t| {
                    synth_work(t, costs[t as usize]).to_le_bytes()
                })
                .map_err(|e| format!("live execute failed: {e} ({e:?})"))?;
            Ok(Run {
                backend,
                report,
                results: Some(results.iter().map(|r| r.to_vec()).collect()),
                quiescence: None,
            })
        }
        Backend::Dist => {
            let mut blob = WireWriter::new();
            blob.vec_u64(&spec.costs);
            let blob = blob.into_bytes();
            let mut exec = DistExecutor::new(DistOptions {
                faults: spec.fault.clone(),
                ..dist_workers()?
            });
            let work = WorkDesc {
                kind: "synth",
                blob: &blob,
            };
            let (results, report) = exec
                .execute_raw(&exec_spec, &work)
                .map_err(|e| format!("dist execute failed: {e} ({e:?})"))?;
            Ok(Run {
                backend,
                report,
                results: Some(results),
                quiescence: None,
            })
        }
    }
}

/// Worker processes of the `smp-dist-worker` binary.
#[cfg(not(test))]
fn dist_workers() -> Result<DistOptions, String> {
    DistOptions::process(smp_runtime::DistTuning::default()).map_err(|e| e.to_string())
}

/// This crate's unit tests cannot build the worker binary, so they run the
/// same worker loop on threads; the protocol and its counters are
/// identical.
#[cfg(test)]
fn dist_workers() -> Result<DistOptions, String> {
    use smp_runtime::dist::{SpawnMode, SynthHandler};
    Ok(DistOptions {
        tuning: smp_runtime::DistTuning::default(),
        spawn: SpawnMode::Threads(std::sync::Arc::new(|| Box::new(SynthHandler::default()))),
        faults: smp_runtime::FaultPlan::default(),
    })
}
