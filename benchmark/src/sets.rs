//! `run` / `trace`: one child process per workload and repetition (so
//! `peak_rss_mb` is per workload), collected into a result-set file.
//! `compare`: two result sets, row by row, against the catalogue's bounds.

use crate::json::{self, Value};
use crate::report::{Better, END_TO_END, EXACT_COUNTS};
use crate::util;
use crate::Options;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// metric → values over repetitions, per workload.
type Collected = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub fn run_sets(o: &Options) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut collected: Collected = BTreeMap::new();
    let mut units: BTreeMap<String, String> = BTreeMap::new();
    let (mut attempted, mut failed, mut all_ok) = (0u64, 0u64, true);
    for name in &o.workloads {
        for rep in 0..o.repeat {
            // Repetition r runs seed + r, as the acceptance check does.
            let seed = o.seed.wrapping_add(rep as u64);
            let child = Command::new(&exe)
                .args(["--workload", name.as_str()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &o.seconds.to_string()])
                .args(["--trace", if o.trace { "1" } else { "0" }])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .output();
            let output = match child {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("{name}: cannot start child: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            let parsed = stdout
                .lines()
                .last()
                .ok_or("no output".to_string())
                .and_then(json::parse);
            let result = match parsed {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("{name}: unreadable result: {e}");
                    return ExitCode::FAILURE;
                }
            };
            all_ok &= output.status.success() && result.get("correct") == Some(&Value::Bool(true));
            attempted += result
                .get("attempted")
                .and_then(Value::as_f64)
                .unwrap_or(0.0) as u64;
            failed += result.get("failed").and_then(Value::as_f64).unwrap_or(0.0) as u64;
            let metrics = result.get("metrics").and_then(Value::as_obj);
            for (metric, body) in metrics.into_iter().flatten() {
                if let Some(v) = body.get("value").and_then(Value::as_f64) {
                    let per = collected.entry(name.clone()).or_default();
                    per.entry(metric.clone()).or_default().push(v);
                }
                if let Some(Value::Str(u)) = body.get("unit") {
                    units.insert(metric.clone(), u.clone());
                }
            }
        }
    }

    println!("\n== medians over {} run(s) per workload ==", o.repeat);
    for (workload, metrics) in &collected {
        for (metric, values) in metrics {
            println!(
                "{workload:<18} {metric:<34} {:>16.4} {:<6} spread {:>5.1} %",
                util::median(values),
                units.get(metric).map_or("", String::as_str),
                util::iqr_share(values) * 100.0
            );
        }
    }
    println!(
        "fail_share = {} ({failed} of {attempted} operations)",
        util::ratio(failed as f64, attempted as f64)
    );

    let default_name = format!("{}-{}.json", if o.trace { "trace" } else { "run" }, o.seed);
    let path = o
        .out
        .clone()
        .unwrap_or_else(|| crate::out_dir().join(default_name));
    let text = set_json(o, attempted, failed, &collected, &units);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, text));
    match written {
        Ok(()) => println!("result set: {}", path.display()),
        Err(e) => {
            eprintln!("writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if all_ok && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn set_json(
    o: &Options,
    attempted: u64,
    failed: u64,
    collected: &Collected,
    units: &BTreeMap<String, String>,
) -> String {
    let host = crate::host::Host::probe();
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"host\": \"{}\",",
        json::escape(&host.describe(host.workers(), o.seed))
    );
    let _ = writeln!(out, "  \"seed\": {},", o.seed);
    let _ = writeln!(out, "  \"seconds\": {},", o.seconds);
    let _ = writeln!(out, "  \"trace\": {},", o.trace);
    let _ = writeln!(out, "  \"attempted\": {attempted},");
    let _ = writeln!(out, "  \"failed\": {failed},");
    out.push_str("  \"workloads\": {\n");
    let blocks: Vec<String> = collected
        .iter()
        .map(|(workload, metrics)| {
            let rows: Vec<String> = metrics
                .iter()
                .map(|(metric, values)| {
                    let vals: Vec<String> = values.iter().map(|v| json::number(*v)).collect();
                    format!(
                        "      \"{metric}\": {{\"unit\": \"{}\", \"values\": [{}]}}",
                        units.get(metric).map_or("", String::as_str),
                        vals.join(", ")
                    )
                })
                .collect();
            format!("    \"{workload}\": {{\n{}\n    }}", rows.join(",\n"))
        })
        .collect();
    out.push_str(&blocks.join(",\n"));
    out.push_str("\n  }\n}\n");
    out
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn values_of(set: &Value, workload: &str, metric: &str) -> Vec<f64> {
    set.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(Value::as_arr)
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// Row per workload × end-to-end metric: both medians, the ratio with its
/// base, the bound, and `ok` / `worse` / `unresolved` (either side's spread
/// is wider than the bound, so the medians cannot be told apart). Metrics
/// that are exact counts are compared for identity when the seeds match.
pub fn compare(a_path: &Path, b_path: &Path) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("a = {}\nb = {}", a_path.display(), b_path.display());
    for (tag, set) in [("a", &a), ("b", &b)] {
        if let Some(Value::Str(h)) = set.get("host") {
            println!("{tag}: {h}");
        }
    }
    let workloads: Vec<&String> = a
        .get("workloads")
        .and_then(Value::as_obj)
        .map(|m| m.keys().collect())
        .unwrap_or_default();
    let mut worse = 0;
    println!(
        "{:<18} {:<14} {:>12} {:>12} {:>16} {:>6}  verdict",
        "workload", "metric", "median a", "median b", "b/a (base a)", "bound"
    );
    for workload in &workloads {
        for m in END_TO_END {
            let (va, vb) = (
                values_of(&a, workload, m.name),
                values_of(&b, workload, m.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (util::median(&va), util::median(&vb));
            let ratio = util::ratio(mb, ma);
            let loss = match m.better {
                Better::Lower => ratio - 1.0,
                Better::Higher => 1.0 - ratio,
            };
            let spread = util::iqr_share(&va).max(util::iqr_share(&vb));
            let verdict = if spread > m.bound {
                "unresolved"
            } else if loss > m.bound {
                worse += 1;
                "worse"
            } else {
                "ok"
            };
            println!(
                "{workload:<18} {:<14} {ma:>12.4} {mb:>12.4} {ratio:>16.4} {:>6.2}  {verdict}",
                m.name, m.bound
            );
        }
    }
    let same_seed = a.get("seed") == b.get("seed");
    let mut differing = 0;
    for workload in &workloads {
        for name in EXACT_COUNTS {
            let (va, vb) = (values_of(&a, workload, name), values_of(&b, workload, name));
            if va.is_empty() || vb.is_empty() || !same_seed {
                continue;
            }
            if va != vb {
                differing += 1;
                println!("{workload:<18} {name:<34} exact count differs: {va:?} vs {vb:?}");
            }
        }
    }
    let failed = |s: &Value| s.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
    println!(
        "failed operations: a={} b={}; worse rows: {worse}; differing exact counts: {differing}",
        failed(&a),
        failed(&b)
    );
    if worse == 0 && differing == 0 && failed(&a) == 0.0 && failed(&b) == 0.0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
