//! The public entry-point surface is a reviewed list, not an accident.
//!
//! Every `run_parallel_*` / `run_portfolio_*` / `simulate*` rung that was
//! a pure partial application of its neighbour has been folded into it
//! (`None` for an optional argument is not a reason for a new name). A
//! new rung therefore needs an edit of [`ENTRY_POINTS`] — and a reviewer
//! who agrees it is not one more `_faulted` / `_observed` twin.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Every `pub fn` in `crates/core/src/*.rs` and `crates/runtime/src/sim.rs`
/// named `run_parallel_*`, `run_portfolio_*` or `simulate*`.
const ENTRY_POINTS: [&str; 18] = [
    // DES replay of a measured workload; `_observed` is the full form.
    "run_parallel_prm",
    "run_parallel_prm_observed",
    "run_parallel_rrt",
    "run_parallel_rrt_observed",
    // Executing backends; `_controlled` is live's full form.
    "run_parallel_prm_live_observed",
    "run_parallel_prm_live_controlled",
    "run_parallel_rrt_live_observed",
    "run_parallel_rrt_live_controlled",
    "run_parallel_prm_dist",
    "run_parallel_prm_dist_with",
    "run_parallel_rrt_dist_with",
    // Dispatch on `Backend`.
    "run_parallel_prm_on",
    "run_parallel_rrt_on",
    "run_portfolio_on",
    "run_portfolio_rrt_on",
    // The simulator: costs in hand, every hook, or closures to measure.
    "simulate",
    "simulate_with",
    "simulate_phase",
];

fn repo(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// `.rs` files under `dir`, recursively or not.
fn rust_files(dir: &Path, recurse: bool, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            if recurse {
                rust_files(&path, recurse, out);
            }
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn entry_points_are_exactly_the_reviewed_list() {
    let mut files = vec![repo("crates/runtime/src/sim.rs")];
    rust_files(&repo("crates/core/src"), false, &mut files);
    let mut found = BTreeSet::new();
    for file in &files {
        for line in read(file).lines() {
            let Some((_, rest)) = line.split_once("pub fn ") else {
                continue;
            };
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            let is_entry_point = ["run_parallel_", "run_portfolio_", "simulate"]
                .iter()
                .any(|prefix| name.starts_with(prefix));
            if is_entry_point {
                assert!(found.insert(name.clone()), "{name} is defined twice");
            }
        }
    }
    let expected: BTreeSet<String> = ENTRY_POINTS.iter().map(|s| s.to_string()).collect();
    assert_eq!(expected.len(), ENTRY_POINTS.len(), "duplicate in the list");
    assert_eq!(
        found, expected,
        "entry points changed: fold the new rung into its neighbour, or review it into ENTRY_POINTS"
    );
}

#[test]
fn a_phase_of_closures_runs_one_way_per_backend() {
    // No trait over the backends (nothing was ever generic over it) and no
    // DES "executor": `simulate_phase` measures and replays.
    let mut files = Vec::new();
    let crates = fs::read_dir(repo("crates")).expect("crates/");
    for entry in crates {
        let src = entry.expect("dir entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, true, &mut files);
        }
    }
    assert!(files.len() > 50, "scan found only {} files", files.len());
    for file in &files {
        let text = read(file);
        for banned in ["trait Executor", "struct DesExecutor"] {
            assert!(
                !text.contains(banned),
                "`{banned}` is back in {}",
                file.display()
            );
        }
    }
}
