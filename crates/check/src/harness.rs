//! The one sweep: generate → run on a backend → check → shrink →
//! serialize. The same loop serves the DES, live and dist backends. Only
//! DES failures are shrunk, since only the DES replays a case bit for
//! bit; live and dist failures are written as generated, the OS having
//! scheduled them.

use crate::backend::Backend;
use crate::case::CaseSpec;
use crate::gen::generate_case;
use crate::oracles::{run_case, Violation};
use crate::repro;
use crate::shrink::shrink;
use std::path::{Path, PathBuf};

/// Knobs for one fuzz campaign.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of randomized cases to run.
    pub runs: u64,
    /// First case seed; case `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Where every case executes.
    pub backend: Backend,
    /// Where repro files land (created on demand). `None` keeps
    /// failures in memory only.
    pub out_dir: Option<PathBuf>,
    /// Stop the campaign at the first failure instead of completing all
    /// runs.
    pub fail_fast: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            runs: 1000,
            base_seed: 0,
            backend: Backend::Des,
            out_dir: None,
            fail_fast: false,
        }
    }
}

/// One failure, shrunk if it failed on the DES.
#[derive(Debug)]
pub struct Failure {
    /// Generator seed that produced the original failing case.
    pub seed: u64,
    /// Locally-minimal failing case on the DES; the generated case on
    /// live and dist.
    pub shrunk: CaseSpec,
    /// Violations `shrunk` triggers.
    pub violations: Vec<Violation>,
    /// Repro file written for this failure, if an out dir was given.
    pub repro_path: Option<PathBuf>,
}

/// Campaign summary.
#[derive(Debug)]
pub struct FuzzOutcome {
    pub runs_executed: u64,
    /// Completed runs that recorded a crashed PE, panicked worker or
    /// killed worker process: how much recovery the campaign exercised.
    pub runs_with_crash: u64,
    /// Completed runs that dropped or retransmitted a message.
    pub runs_with_loss: u64,
    pub failures: Vec<Failure>,
}

impl FuzzOutcome {
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Run `cfg.runs` randomized cases; shrink DES failures and
/// (optionally) serialize every failure. `progress` is called after each
/// run with `(done, total, failures_so_far)`.
pub fn fuzz(cfg: &FuzzConfig, mut progress: impl FnMut(u64, u64, usize)) -> FuzzOutcome {
    let mut outcome = FuzzOutcome {
        runs_executed: 0,
        runs_with_crash: 0,
        runs_with_loss: 0,
        failures: Vec::new(),
    };
    for i in 0..cfg.runs {
        let seed = cfg.base_seed.wrapping_add(i);
        let spec = generate_case(seed);
        let (run, violations) = run_case(&spec, cfg.backend);
        outcome.runs_executed += 1;
        if let Some(run) = run {
            let r = &run.report.resilience;
            outcome.runs_with_crash += u64::from(r.crashes > 0);
            outcome.runs_with_loss += u64::from(r.messages_dropped + r.retransmissions > 0);
        }
        if !violations.is_empty() {
            outcome
                .failures
                .push(report_failure(cfg, seed, &spec, violations));
            if cfg.fail_fast {
                break;
            }
        }
        progress(outcome.runs_executed, cfg.runs, outcome.failures.len());
    }
    outcome
}

fn report_failure(
    cfg: &FuzzConfig,
    seed: u64,
    spec: &CaseSpec,
    original: Vec<Violation>,
) -> Failure {
    // shrinking keeps *a* failure, not necessarily the same oracle
    let (shrunk, violations) = if cfg.backend == Backend::Des {
        shrink(spec)
    } else {
        (spec.clone(), original)
    };
    let repro_path = cfg.out_dir.as_ref().and_then(|dir| {
        write_repro(dir, seed, cfg.backend, &shrunk, &violations)
            .map_err(|e| eprintln!("smp-check: cannot write repro for seed {seed}: {e}"))
            .ok()
    });
    Failure {
        seed,
        shrunk,
        violations,
        repro_path,
    }
}

fn write_repro(
    dir: &Path,
    seed: u64,
    backend: Backend,
    spec: &CaseSpec,
    violations: &[Violation],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let mut context = vec![format!("generator seed {seed}")];
    context.extend(violations.iter().map(|v| v.to_string()));
    let text = repro::serialize(spec, backend, &context);
    let path = dir.join(format!("repro-{}-{seed}.txt", backend.name()));
    std::fs::write(&path, text)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short campaign on `backend` must be clean. The real campaigns
    /// are the binary's and CI's; dist workers are threads here.
    fn assert_clean(backend: Backend, runs: u64, base_seed: u64) -> FuzzOutcome {
        let cfg = FuzzConfig {
            runs,
            base_seed,
            backend,
            ..FuzzConfig::default()
        };
        let outcome = fuzz(&cfg, |_, _, _| {});
        assert_eq!(outcome.runs_executed, runs);
        if let Some(f) = outcome.failures.first() {
            panic!(
                "{} seed {} violated: {}",
                backend.name(),
                f.seed,
                f.violations
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join("; ")
            );
        }
        outcome
    }

    // the canary build plants a DES bug, so the clean DES campaign only
    // holds in a normal build
    #[cfg(not(smp_check_canary))]
    #[test]
    fn des_campaign_is_clean() {
        assert_clean(Backend::Des, 40, 7_000);
    }

    // the executing backends must also have recovered from a crash and
    // from lost messages, or the campaign proved nothing about faults
    #[test]
    fn live_campaign_is_clean() {
        let outcome = assert_clean(Backend::Live, 150, 0xC0FFEE);
        assert!(outcome.runs_with_crash > 0 && outcome.runs_with_loss > 0);
    }

    #[test]
    fn dist_campaign_is_clean() {
        let outcome = assert_clean(Backend::Dist, 12, 100);
        assert!(outcome.runs_with_crash > 0 && outcome.runs_with_loss > 0);
    }
}
