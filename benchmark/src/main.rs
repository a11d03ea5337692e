//! `smp-benchmark` — the repository's benchmark (see `README.md` here and
//! `BENCHMARK.json` at the repository root).
//!
//! ```text
//! smp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! smp-benchmark run   [--all | --workload <name>]... [--seed n] [--seconds s] [--repeat k] [--out file]
//! smp-benchmark trace [--all | --workload <name>]... (same options)
//! smp-benchmark compare <a.json> <b.json>
//! smp-benchmark catalog
//! ```
//!
//! The first form is one run of one workload in this process; its last
//! stdout line is the result object. `run` / `trace` start one such child
//! process per workload and repeat. Started with `--endpoint … --worker …`
//! the binary is a dist worker (it hosts itself, so `prm-dist` needs no
//! artefact of the root crate).

mod des;
mod gen;
mod host;
mod json;
mod planner;
mod probes;
mod report;
mod serve;
mod sets;
mod spans;
mod util;

use report::{Report, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

/// Seed used when none is given; recorded in the README.
pub const DEFAULT_SEED: u64 = 20140519;
/// Measured seconds of one run; `BENCHMARK.json` carries the same number.
pub const RUN_SECONDS: u64 = 15;

/// One run of one workload.
pub struct RunSpec {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// W = min(nproc, 4).
    pub workers: usize,
    pub host_nproc: usize,
}

/// Directory for everything the benchmark writes (traces, result sets,
/// sockets): `out/` beside this package's manifest, addressed relative to
/// the working directory when possible so Unix-socket paths stay short.
pub fn out_dir() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let rel = std::env::current_dir()
        .ok()
        .and_then(|cwd| manifest.strip_prefix(&cwd).ok().map(PathBuf::from));
    rel.unwrap_or(manifest).join("out")
}

fn dist_worker(args: &[String]) -> ExitCode {
    use smp::core::CoreHandler;
    use smp::runtime::dist::{run_worker, Endpoint, WorkerExit, WorkerParams};
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let endpoint = value("--endpoint").and_then(|v| Endpoint::parse(v).ok());
    let worker = value("--worker").and_then(|v| v.parse().ok());
    let epoch = value("--epoch").and_then(|v| v.parse().ok()).unwrap_or(0);
    let (Some(endpoint), Some(worker)) = (endpoint, worker) else {
        eprintln!("dist worker: need --endpoint <uds:PATH|tcp:ADDR> --worker <N> [--epoch <N>]");
        return ExitCode::from(2);
    };
    let params = WorkerParams {
        endpoint,
        worker,
        epoch,
    };
    match run_worker(&params, &mut CoreHandler::default()) {
        Ok(WorkerExit::Shutdown | WorkerExit::CoordinatorGone) => ExitCode::SUCCESS,
        Ok(WorkerExit::KilledByFault) => ExitCode::from(3),
        Err(e) => {
            eprintln!("dist worker {worker}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: smp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20      smp-benchmark run|trace [--all | --workload <name>]... [--seed n] [--seconds s] [--repeat k] [--out file]\n\
         \x20      smp-benchmark compare <a.json> <b.json>\n\
         \x20      smp-benchmark catalog\n\
         workloads: {}",
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::from(2)
}

/// Options shared by the single-run form and `run` / `trace`.
pub struct Options {
    pub workloads: Vec<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub repeat: usize,
    pub out: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        repeat: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("missing value for {flag}"));
        match flag.as_str() {
            "--all" => o.workloads = WORKLOADS.iter().map(|w| w.name.to_string()).collect(),
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload {name:?}"));
                }
                o.workloads.push(name.clone());
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other:?} (0 or 1)")),
                }
            }
            "--repeat" => {
                o.repeat = value()?.parse().map_err(|e| format!("bad --repeat: {e}"))?;
            }
            "--out" => o.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if o.workloads.is_empty() {
        return Err("no workload named (use --workload <name> or --all)".to_string());
    }
    Ok(o)
}

/// One run in this process: print every metric by name with its unit, the
/// notes, and the result object as the last line.
fn run_one(o: &Options) -> ExitCode {
    let host = host::Host::probe();
    let workers = host.workers();
    let spec = RunSpec {
        workload: o.workloads[0].clone(),
        seed: o.seed,
        seconds: o.seconds,
        trace: o.trace,
        workers,
        host_nproc: host.nproc,
    };
    println!("workload: {} trace={}", spec.workload, u8::from(spec.trace));
    println!("{}", host.describe(workers, spec.seed));
    if host.load1 > workers as f64 {
        println!(
            "suspect: load average {:.2} exceeds W={workers}",
            host.load1
        );
    }

    let mut spans = spans::Spans::new(false);
    let mut report: Report = match spec.workload.as_str() {
        "des-replay" => des::run(&spec, &mut spans),
        "serve-warm" | "serve-cold" => serve::run(&spec, &mut spans),
        _ => planner::run(&spec, &mut spans),
    };
    if spec.trace {
        report.set("bench.host_nproc", host.nproc as f64);
        report.set("bench.host_load1", host.load1);
        let path = out_dir().join(format!("trace-{}.json", spec.workload));
        match spans.write_chrome(&path) {
            Ok(()) => println!("trace: {}", path.display()),
            Err(e) => report.fail(format!("writing {}: {e}", path.display())),
        }
    }

    let metrics = if spec.trace {
        report.per_layer()
    } else {
        report.end_to_end(host::peak_rss_mb())
    };
    for note in &report.notes {
        println!("note: {note}");
    }
    println!(
        "operations: attempted={} failed={} fail_share={} samples={} tail=p{}",
        report.attempted,
        report.failed,
        util::ratio(report.failed as f64, report.attempted as f64),
        report.op_ms.len(),
        (report.tail_q * 100.0).round()
    );
    for e in &report.errors {
        println!("error: {e}");
    }
    for (name, value) in &metrics {
        println!("{name:<34} {value:>16.4} {}", report::unit_of(name));
    }
    let finite = metrics.iter().all(|(_, v)| v.is_finite());
    let correct = report.failed == 0 && report.attempted > 0 && finite;
    println!(
        "{}",
        json::result_line(correct, report.attempted.max(1), report.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--endpoint") {
        return dist_worker(&args);
    }
    // Before any thread starts: `prm-dist` spawns this binary as its
    // workers, and sockets live under the benchmark's own out/ directory.
    if let Ok(exe) = std::env::current_exe() {
        std::env::set_var("SMP_DIST_WORKER", exe);
    }
    let tmp = out_dir().join("tmp");
    if std::fs::create_dir_all(&tmp).is_ok() {
        std::env::set_var("TMPDIR", &tmp);
    }

    let parsed = match args.first().map(String::as_str) {
        Some("catalog") => {
            print!("{}", json::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Some("compare") => {
            return match (args.get(1), args.get(2)) {
                (Some(a), Some(b)) => sets::compare(a.as_ref(), b.as_ref()),
                _ => usage(),
            }
        }
        Some(mode @ ("run" | "trace")) => parse_options(&args[1..]).map(|mut o| {
            o.trace = mode == "trace";
            (o, true)
        }),
        Some(_) => parse_options(&args).map(|o| (o, false)),
        None => return usage(),
    };
    match parsed {
        Ok((o, true)) => sets::run_sets(&o),
        Ok((o, false)) if o.workloads.len() == 1 => run_one(&o),
        Ok(_) => {
            eprintln!("the single-run form takes exactly one --workload; use `run` for several");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("smp-benchmark: {e}");
            usage()
        }
    }
}
