//! The public entry-point surface is a reviewed list, not an accident.
//!
//! Each planner has two fronts: `replay_*` replays a measured workload on
//! the DES and `run_*` runs on any backend, both taking one `RunOptions`
//! value (`None` for an optional argument is not a reason for a new
//! name). A new `run_*` / `replay_*` / `simulate*` function therefore
//! needs an edit of [`ENTRY_POINTS`] — and a reviewer who agrees it is not
//! one more `_faulted` / `_observed` twin. The manifests are held to the
//! same rule: a dependency nothing uses is deleted, not kept around — in
//! the workspace table, in `vendor/` and in each crate's own manifest.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Every `pub fn` in `crates/core/src/*.rs` and `crates/runtime/src/sim.rs`
/// named `run_*`, `replay_*` or `simulate*`.
const ENTRY_POINTS: [&str; 14] = [
    // The planner fronts: DES replay of a measured workload, and a run on
    // any backend.
    "replay_prm",
    "replay_rrt",
    "run_prm",
    "run_rrt",
    // Shims over the fronts that only `benchmark/` calls; they go with the
    // next change to the benchmark.
    "run_parallel_prm",
    "run_parallel_prm_live_observed",
    "run_parallel_prm_dist",
    "run_parallel_prm_dist_with",
    "run_parallel_rrt_live_observed",
    // The restart portfolio, dispatched on `Backend`.
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
            let is_entry_point = ["run_", "replay_", "simulate"]
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
        "entry points changed: fold the new function into a front's options, or review it into ENTRY_POINTS"
    );
}

/// Every `.rs` file under `crates/*/src`.
fn crate_sources() -> Vec<PathBuf> {
    let mut files = Vec::new();
    let crates = fs::read_dir(repo("crates")).expect("crates/");
    for entry in crates {
        let src = entry.expect("dir entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, true, &mut files);
        }
    }
    assert!(files.len() > 50, "scan found only {} files", files.len());
    files
}

/// Fails naming the first file of `files` that contains one of `banned`.
fn assert_absent(files: &[PathBuf], banned: &[&str]) {
    for file in files {
        let text = read(file);
        for banned in banned {
            assert!(
                !text.contains(banned),
                "`{banned}` is back in {}",
                file.display()
            );
        }
    }
}

#[test]
fn a_phase_of_closures_runs_one_way_per_backend() {
    // No trait over the backends (nothing was ever generic over it) and no
    // DES "executor": `simulate_phase` measures and replays.
    assert_absent(&crate_sources(), &["trait Executor", "struct DesExecutor"]);
}

#[test]
fn a_dist_phase_runs_to_completion_or_fails() {
    // Protocol version 3 has no early stop: no stop hook on the executor
    // and no cancel message on the wire (PROTOCOL.md §4).
    let mut files = crate_sources();
    rust_files(&repo("src"), true, &mut files);
    // Spelled in pieces, so a search for the deleted names finds none here.
    let banned = [concat!("execute_raw", "_with_stop"), concat!("Stop", "Fn")];
    assert_absent(&files, &banned);
    assert_absent(&[repo("crates/runtime/src/dist/msg.rs")], &["Cancel {"]);
}

/// The dependency names declared in the `[...dependencies]` sections of
/// `manifest` whose header satisfies `section`.
fn dependency_names(manifest: &str, section: impl Fn(&str) -> bool) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let mut inside = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            inside = section(line);
        } else if inside && !line.is_empty() && !line.starts_with('#') {
            let name: String = line
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == '-')
                .collect();
            names.insert(name);
        }
    }
    names
}

/// True when `text` names `krate` as a path root (`krate::`) or re-exports
/// it whole (`use krate as alias;`).
fn imports(text: &str, krate: &str) -> bool {
    let name = krate.replace('-', "_");
    text.match_indices(&name).any(|(i, _)| {
        let before = &text[..i];
        let after = &text[i + name.len()..];
        let starts_path = !before
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        starts_path
            && (after.starts_with("::") || before.ends_with("use ") && after.starts_with(" as "))
    })
}

#[test]
fn workspace_dependencies_are_all_used() {
    let root = read(&repo("Cargo.toml"));
    let declared = dependency_names(&root, |h| h == "[workspace.dependencies]");
    assert!(declared.contains("rand"), "parsed {declared:?}");

    // Every workspace dependency is named by a member manifest.
    let mut members = vec![read(&repo("Cargo.toml"))];
    for entry in fs::read_dir(repo("crates")).expect("crates/") {
        let manifest = entry.expect("dir entry").path().join("Cargo.toml");
        if manifest.is_file() {
            members.push(read(&manifest));
        }
    }
    let is_member_deps = |h: &str| h.ends_with("dependencies]") && !h.starts_with("[workspace");
    let named: BTreeSet<String> = members
        .iter()
        .flat_map(|m| dependency_names(m, is_member_deps))
        .collect();
    let unnamed: Vec<&String> = declared.difference(&named).collect();
    assert!(
        unnamed.is_empty(),
        "no member uses {unnamed:?}: delete them"
    );

    // Every library dependency of a package — each crate and the root
    // package — is imported by that package's own `src/`.
    let mut unimported = Vec::new();
    let crates = fs::read_dir(repo("crates")).expect("crates/");
    let dirs = crates.map(|entry| entry.expect("dir entry").path());
    for dir in std::iter::once(repo("")).chain(dirs) {
        let manifest = dir.join("Cargo.toml");
        if !manifest.is_file() {
            continue;
        }
        let mut files = Vec::new();
        rust_files(&dir.join("src"), true, &mut files);
        let texts: Vec<String> = files.iter().map(|f| read(f)).collect();
        for dep in dependency_names(&read(&manifest), |h| h == "[dependencies]") {
            if !texts.iter().any(|t| imports(t, &dep)) {
                unimported.push(format!("{}: {dep}", dir.display()));
            }
        }
    }
    assert!(
        unimported.is_empty(),
        "dependencies no source file imports: {unimported:?}"
    );

    // Every vendored crate is imported by the workspace's own code, or is
    // a dependency of one that is (proptest's `rand`).
    let mut sources = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&repo(dir), true, &mut sources);
    }
    let texts: Vec<String> = sources.iter().map(|f| read(f)).collect();
    let mut vendored = BTreeSet::new();
    let mut used = BTreeSet::new();
    for entry in fs::read_dir(repo("vendor")).expect("vendor/") {
        let dir = entry.expect("dir entry").path();
        let Some(name) = dir.file_name().and_then(|n| n.to_str()).map(str::to_owned) else {
            continue;
        };
        if !dir.join("Cargo.toml").is_file() {
            continue;
        }
        if texts.iter().any(|t| imports(t, &name)) {
            let manifest = read(&dir.join("Cargo.toml"));
            used.extend(dependency_names(&manifest, |h| h == "[dependencies]"));
            used.insert(name.clone());
        }
        vendored.insert(name);
    }
    let unused: Vec<&String> = vendored.difference(&used).collect();
    assert!(
        unused.is_empty(),
        "nothing imports vendor/{unused:?}: delete them"
    );
}
