//! Worker-process binary for the distributed backend (`smp::runtime::dist`).
//!
//! Spawned by the coordinator (`DistExecutor` in process mode) as
//!
//! ```text
//! smp-dist-worker --endpoint <uds:PATH|tcp:ADDR> --worker <slot> --epoch <n>
//! ```
//!
//! and never by hand: it connects back to the coordinator, handshakes
//! (`Hello`), then runs the tasks that `Init` and `Assign` hand it with
//! [`smp::core::CoreHandler`] — the five planner work kinds plus the
//! `synth` smoke kind — until `Shutdown`, coordinator EOF, or an injected
//! kill. See `PROTOCOL.md` for the wire protocol and
//! `specs/tla/StealProtocol.tla` for the model it implements.

use std::process::ExitCode;

use smp::core::CoreHandler;
use smp::runtime::dist::{run_worker, Endpoint, WorkerExit, WorkerParams};

fn parse_args() -> Result<WorkerParams, String> {
    let mut endpoint: Option<Endpoint> = None;
    let mut worker: Option<u32> = None;
    let mut epoch: Option<u32> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--endpoint" => endpoint = Some(Endpoint::parse(&value("--endpoint")?)?),
            "--worker" => {
                worker = Some(
                    value("--worker")?
                        .parse()
                        .map_err(|e| format!("bad --worker: {e}"))?,
                )
            }
            "--epoch" => {
                epoch = Some(
                    value("--epoch")?
                        .parse()
                        .map_err(|e| format!("bad --epoch: {e}"))?,
                )
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(WorkerParams {
        endpoint: endpoint.ok_or("--endpoint is required")?,
        worker: worker.ok_or("--worker is required")?,
        epoch: epoch.unwrap_or(0),
    })
}

fn main() -> ExitCode {
    let params = match parse_args() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("smp-dist-worker: {e}");
            eprintln!(
                "usage: smp-dist-worker --endpoint <uds:PATH|tcp:ADDR> --worker <N> [--epoch <N>]"
            );
            return ExitCode::from(2);
        }
    };
    let mut handler = CoreHandler::default();
    match run_worker(&params, &mut handler) {
        Ok(WorkerExit::Shutdown | WorkerExit::CoordinatorGone) => ExitCode::SUCCESS,
        // An injected kill models a crash: exit nonzero like one.
        Ok(WorkerExit::KilledByFault) => ExitCode::from(3),
        Err(e) => {
            eprintln!("smp-dist-worker[{}]: {e}", params.worker);
            ExitCode::FAILURE
        }
    }
}
