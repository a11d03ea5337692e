//! # smp-bench — paper-figure regeneration
//!
//! One driver per figure in the paper's evaluation (Figures 4–10) and per
//! ablation ([`figures`]), regenerating the series the paper plots as
//! printed tables and CSV files under `results/`. Run via
//! `cargo run --release -p smp-bench --bin figures -- <id|all|ablations>`.
//!
//! Every table is DES virtual time, i.e. model output — including the
//! restart-portfolio tail (`restarts`) and the serving-layer load sweep
//! (`serve-load`). Wall-clock speed is measured by the standalone
//! benchmark in `benchmark/` (`BENCHMARK.json`). The tier-1 tests pin the
//! figures' quick-scale CSV digests (`tests/harness_smoke.rs`) and the
//! portfolio-ledger and serve-answer digests (`tests/kernel_gates.rs`).

pub mod config;
pub mod figures;
pub mod table;

pub use config::HarnessConfig;
pub use table::Table;
