//! Figure-regeneration harness.
//!
//! ```text
//! cargo run --release -p smp-bench --bin figures -- all          # every figure
//! cargo run --release -p smp-bench --bin figures -- fig5a fig6   # a subset
//! cargo run --release -p smp-bench --bin figures -- ablations    # ablation suite
//! cargo run --release -p smp-bench --bin figures -- --quick all  # smoke scale
//! ```
//!
//! Each figure prints an aligned table and writes `results/<id>.csv`
//! (`<id>_<i>.csv` when it yields several). The committed CSVs are the
//! full-scale output of `figures all ablations`; `--quick` is the smoke
//! scale whose CSV digests `tests/harness_smoke.rs` pins.

use smp_bench::figures::{csv_name, run, Suite, ALL_ABLATIONS, ALL_FIGURES};
use smp_bench::HarnessConfig;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut ids: Vec<String> = Vec::new();
    for a in &args {
        match a.as_str() {
            "--quick" => quick = true,
            "all" => ids.extend(ALL_FIGURES.iter().map(|s| s.to_string())),
            "ablations" => ids.extend(ALL_ABLATIONS.iter().map(|s| s.to_string())),
            "--help" | "-h" => {
                eprintln!("usage: figures [--quick] <all|ablations|fig4a|fig4b|fig5a|...>");
                eprintln!("figures:   {}", ALL_FIGURES.join(" "));
                eprintln!("ablations: {}", ALL_ABLATIONS.join(" "));
                return;
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        eprintln!("no figures requested; try `figures all` or `figures --help`");
        std::process::exit(2);
    }

    let cfg = if quick {
        HarnessConfig::quick()
    } else {
        HarnessConfig::default()
    };
    let results_dir = PathBuf::from("results");
    let mut suite = Suite::new(cfg);

    for id in &ids {
        let started = std::time::Instant::now();
        let tables = run(id, &mut suite);
        for (i, t) in tables.iter().enumerate() {
            println!("{}", t.render());
            let path = results_dir.join(csv_name(id, i, tables.len()));
            if let Err(e) = t.write_csv(&path) {
                eprintln!("failed to write {}: {e}", path.display());
            } else {
                eprintln!("[wrote {}]", path.display());
            }
        }
        eprintln!("[{} done in {:.1}s]\n", id, started.elapsed().as_secs_f64());
    }
}
