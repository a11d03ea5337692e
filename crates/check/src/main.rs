//! `smp-check` CLI — fuzz a backend or replay a shrunk failure.
//!
//! ```text
//! smp-check [--runs N | --live-smoke N | --dist-smoke N] [--seed S]
//!           [--out DIR | --no-out] [--fail-fast]
//! smp-check --replay FILE
//! smp-check --portfolio-smoke N [--seed S]
//! smp-check --serve-smoke N [--seed S] [--out DIR]
//! ```
//!
//! `--runs` sweeps the DES, `--live-smoke` the live backend and
//! `--dist-smoke` worker processes; all three run the same cases through
//! the same catalog. Exit status is 0 only if every run satisfied every
//! oracle.

use smp_check::harness::{fuzz, FuzzConfig};
use smp_check::{oracles, repro, Backend};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut cfg = FuzzConfig {
        out_dir: Some(PathBuf::from("target/smp-check")),
        ..FuzzConfig::default()
    };
    let mut replay: Option<PathBuf> = None;
    let mut portfolio_smoke: Option<u64> = None;
    let mut serve_smoke: Option<u64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("smp-check: {arg} needs {what}");
                std::process::exit(2);
            })
        };
        let mut count = |what: &str| {
            let v = take(what);
            v.parse::<u64>().unwrap_or_else(|e| {
                eprintln!("smp-check: bad {arg} {v:?}: {e}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--runs" => cfg.runs = count("a count"),
            "--live-smoke" => (cfg.backend, cfg.runs) = (Backend::Live, count("a run count")),
            "--dist-smoke" => (cfg.backend, cfg.runs) = (Backend::Dist, count("a run count")),
            "--seed" => cfg.base_seed = count("a seed"),
            "--out" => cfg.out_dir = Some(PathBuf::from(take("a directory"))),
            "--no-out" => cfg.out_dir = None,
            "--fail-fast" => cfg.fail_fast = true,
            "--replay" => replay = Some(PathBuf::from(take("a repro file"))),
            "--portfolio-smoke" => portfolio_smoke = Some(count("a run count")),
            "--serve-smoke" => serve_smoke = Some(count("a run count")),
            "--help" | "-h" => {
                println!(
                    "usage: smp-check [--runs N | --live-smoke N | --dist-smoke N] [--seed S]\n\
                     \x20                [--out DIR | --no-out] [--fail-fast]\n\
                     \x20      smp-check --replay FILE\n\
                     \x20      smp-check --portfolio-smoke N [--seed S]\n\
                     \x20      smp-check --serve-smoke N [--seed S] [--out DIR]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("smp-check: unknown argument {other:?} (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    if let Some(path) = replay {
        return run_replay(&path);
    }

    if let Some(runs) = serve_smoke {
        return run_serve_smoke(runs, cfg.base_seed, cfg.out_dir.as_deref());
    }

    if let Some(runs) = portfolio_smoke {
        println!(
            "smp-check: portfolio smoke — {runs} restart-portfolio cases on both backends (seed {})",
            cfg.base_seed
        );
        let failures = smp_check::portfolio_smoke(runs, cfg.base_seed);
        return if failures.is_empty() {
            println!("smp-check: OK — {runs} portfolio cases, all oracles satisfied");
            ExitCode::SUCCESS
        } else {
            for (seed, violations) in &failures {
                eprintln!("smp-check: portfolio seed {seed} FAILED:");
                for v in violations {
                    eprintln!("  {v}");
                }
            }
            eprintln!(
                "smp-check: {} of {runs} portfolio cases violated an oracle",
                failures.len()
            );
            ExitCode::FAILURE
        };
    }

    let backend = cfg.backend.name();
    println!(
        "smp-check: fuzzing {} runs on the {backend} backend from seed {}",
        cfg.runs, cfg.base_seed
    );
    let stride = (cfg.runs / 20).max(1);
    let outcome = fuzz(&cfg, |done, total, fails| {
        if done % stride == 0 || done == total {
            println!("  {done}/{total} runs, {fails} failure(s)");
        }
    });
    println!(
        "smp-check: {} runs recorded a crash, {} dropped or resent a message",
        outcome.runs_with_crash, outcome.runs_with_loss
    );
    if outcome.ok() {
        println!(
            "smp-check: OK — {} {backend} runs, all oracles satisfied",
            outcome.runs_executed
        );
        ExitCode::SUCCESS
    } else {
        let shrunk = if cfg.backend == Backend::Des {
            "shrunk to "
        } else {
            ""
        };
        for f in &outcome.failures {
            eprintln!(
                "smp-check: {backend} seed {} FAILED ({shrunk}{} tasks / {} PEs):",
                f.seed,
                f.shrunk.num_tasks(),
                f.shrunk.num_pes()
            );
            for v in &f.violations {
                eprintln!("  {v}");
            }
            if let Some(p) = &f.repro_path {
                eprintln!("  repro: {} (replay with --replay)", p.display());
            }
        }
        eprintln!(
            "smp-check: {} of {} {backend} runs violated an oracle",
            outcome.failures.len(),
            outcome.runs_executed
        );
        ExitCode::FAILURE
    }
}

fn run_serve_smoke(runs: u64, base_seed: u64, out_dir: Option<&std::path::Path>) -> ExitCode {
    println!(
        "smp-check: serve smoke — {runs} multi-tenant workloads, batched vs sequential on both backends (seed {base_seed})"
    );
    let failures = smp_check::serve_smoke(runs, base_seed);
    if failures.is_empty() {
        println!("smp-check: OK — {runs} serve cases, all oracles satisfied");
        return ExitCode::SUCCESS;
    }
    for (seed, violations) in &failures {
        eprintln!("smp-check: serve seed {seed} FAILED:");
        for v in violations {
            eprintln!("  {v}");
        }
        let case = smp_check::generate_serve_case(*seed);
        let shrunk =
            smp_check::shrink_serve_case(&case, |c| !smp_check::check_serve_case(c).is_empty());
        eprintln!(
            "  shrunk to {} request(s), {} thread(s), batch_max {}",
            shrunk.requests.len(),
            shrunk.threads,
            shrunk.batch_max
        );
        if let Some(dir) = out_dir {
            let path = dir.join(format!("serve-{seed}.repro"));
            match std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, smp_check::serve::serialize_serve(&shrunk)))
            {
                Ok(()) => eprintln!("  repro: {} (replay with --replay)", path.display()),
                Err(e) => eprintln!("  could not write repro: {e}"),
            }
        }
    }
    eprintln!(
        "smp-check: {} of {runs} serve cases violated an oracle",
        failures.len()
    );
    ExitCode::FAILURE
}

fn run_replay(path: &std::path::Path) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("smp-check: cannot read {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    // Dispatch on the header line: serve repro files carry their own
    // format and oracle set.
    if text.lines().next().map(str::trim) == Some("smp-serve-repro v1") {
        let case = match smp_check::serve::parse_serve(&text) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("smp-check: {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        println!(
            "smp-check: replaying {} ({} request(s), {} thread(s))",
            path.display(),
            case.requests.len(),
            case.threads
        );
        let violations = smp_check::check_serve_case(&case);
        return if violations.is_empty() {
            println!("smp-check: replay PASSED — all oracles satisfied");
            ExitCode::SUCCESS
        } else {
            for v in &violations {
                eprintln!("  {v}");
            }
            eprintln!(
                "smp-check: replay still violates {} oracle(s)",
                violations.len()
            );
            ExitCode::FAILURE
        };
    }
    let (spec, backend) = match repro::parse(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("smp-check: {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    println!(
        "smp-check: replaying {} ({} tasks, {} PEs, {} backend)",
        path.display(),
        spec.num_tasks(),
        spec.num_pes(),
        backend.name()
    );
    let violations = oracles::check_case(&spec, backend);
    if violations.is_empty() {
        println!("smp-check: replay PASSED — all oracles satisfied");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("  {v}");
        }
        eprintln!(
            "smp-check: replay still violates {} oracle(s)",
            violations.len()
        );
        ExitCode::FAILURE
    }
}
