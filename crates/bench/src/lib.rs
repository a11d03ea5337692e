//! # smp-bench — paper-figure regeneration and digest-gated DES reports
//!
//! Two halves:
//!
//! * the **figure harness** ([`figures`]): one driver per figure in the
//!   paper's evaluation (Figures 4–10), regenerating the same series the
//!   paper plots, as printed tables and CSV files under `results/`.
//!   Run via `cargo run --release -p smp-bench --bin figures -- <fig|all>`;
//! * the **`probe` binary's reports**, each gated by the deterministic
//!   digests of a committed `BENCH_*.json` ([`gate`]):
//!   * the **restart-portfolio tail benchmark** ([`portfolio`], run as
//!     `probe portfolio`) sweeps Luby/fixed/no-restart portfolios over a
//!     heavy-tailed narrow-passage scenario on the DES and emits
//!     `BENCH_portfolio.json`: p50/p99/tail-mass of virtual solve time
//!     plus per-configuration ledger digests (DESIGN.md §14);
//!   * the **planning-as-a-service load benchmark** ([`serve`], run as
//!     `probe serve`) drives a multi-tenant query workload through
//!     `smp_serve::Server` at three offered-load levels, cold and
//!     prewarmed, and emits `BENCH_serve.json`: p50/p99 request latency
//!     and throughput per level plus per-level answer digests
//!     (DESIGN.md §15).
//!
//! Both reports are DES virtual time, i.e. model output. Wall-clock speed
//! is measured by the standalone benchmark in `benchmark/`
//! (`BENCHMARK.json`); the kernels' deterministic work counters are
//! pinned by the tier-1 test `tests/kernel_gates.rs` (DESIGN.md §11).

pub mod config;
pub mod figures;
pub mod gate;
pub mod portfolio;
pub mod serve;
pub mod table;

pub use config::HarnessConfig;
pub use table::Table;
