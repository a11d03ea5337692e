//! # smp-bench — benchmark harness and paper-figure regeneration
//!
//! Two halves:
//!
//! * the **figure harness** ([`figures`]): one driver per figure in the
//!   paper's evaluation (Figures 4–10), regenerating the same series the
//!   paper plots, as printed tables and CSV files under `results/`.
//!   Run via `cargo run --release -p smp-bench --bin figures -- <fig|all>`;
//! * **criterion micro-benchmarks** (`benches/`): substrate performance
//!   (kd-tree, DES throughput, partitioners, planners) plus
//!   the design-choice ablations listed in DESIGN.md §6.
//!
//! A third piece, the **kernel benchmark harness** ([`kernels`], run as
//! `probe bench`), measures the PR-4 hot-path kernels against their
//! pre-overhaul implementations and emits `BENCH_kernels.json` with
//! deterministic regression gates (see DESIGN.md §11).
//!
//! A fourth, the **live strong-scaling harness** ([`scaling`], run as
//! `probe scaling`), runs the parallel PRM on the live shared-memory
//! backend at 1/2/4/8 host threads per strategy and emits
//! `BENCH_scaling.json`: wall-clock times (informative, host-dependent)
//! plus merged-roadmap digests (gated — DESIGN.md §12).
//!
//! A fifth, the **restart-portfolio tail benchmark** ([`portfolio`], run
//! as `probe portfolio`), sweeps Luby/fixed/no-restart portfolios over a
//! heavy-tailed narrow-passage scenario on the DES and emits
//! `BENCH_portfolio.json`: p50/p99/tail-mass of virtual solve time plus
//! per-configuration ledger digests (gated — DESIGN.md §14).
//!
//! A sixth, the **planning-as-a-service load benchmark** ([`serve`],
//! run as `probe serve`), drives a multi-tenant query workload through
//! `smp_serve::Server` at three offered-load levels, cold and
//! prewarmed, and emits `BENCH_serve.json`: p50/p99 request latency and
//! throughput per level plus per-level answer digests (gated —
//! DESIGN.md §15).

pub mod config;
pub mod figures;
pub mod gate;
pub mod kernels;
pub mod portfolio;
pub mod scaling;
pub mod serve;
pub mod table;

pub use config::HarnessConfig;
pub use table::Table;
