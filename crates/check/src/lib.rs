//! # smp-check — one invariant sweep for all three backends
//!
//! The simulator promises determinism *given* an event order, but many
//! legal orders exist whenever events tie on virtual time; the live and
//! dist backends take their order from the OS. This crate draws thousands
//! of randomized `(workload, placement, steal config, fault plan, schedule
//! seed)` cases ([`gen`]), runs each on one backend ([`backend`]) and
//! checks one invariant catalog after every run ([`oracles`]):
//!
//! - **Progress**, **NoTaskLoss**, **NoTaskDuplication** — the three
//!   properties `specs/tla/StealProtocol.tla` model-checks, by name: the
//!   run quiesces, every task ran on a real worker with the right result,
//!   and none was credited twice
//! - **ownership_at_quiescence** — per-worker counters match final
//!   ownership, and crash accounting closes
//! - **steal_accounting** — every steal request is settled once, batch
//!   bounds hold, and stolen executions are backed by transfers
//! - **message_conservation** — the DES delivery ledger and the dist wire
//!   ledgers close exactly
//! - **monotone_time**, **work_conservation** — DES virtual time never
//!   runs backwards, and busy time equals the case's total cost
//!
//! Every case carries one `FaultPlan` — stragglers, crashes, message loss
//! and jitter, or none — and each backend reads it directly: worker
//! panics and grant drops on live, process kills and frame drops on dist.
//! Each oracle checks the laws its backend gives evidence for, and the
//! live and dist results are compared with the pure task function, so no
//! case runs twice.
//!
//! Failures serialize to a line-oriented replay file (see [`repro`])
//! naming the backend, which `smp-check --replay` re-executes. DES
//! failures first shrink greedily to a locally-minimal case; their
//! replays are exact, so `--replay` runs a DES case twice and fails if
//! the two results differ.
//!
//! ```text
//! cargo run -p smp-check -- --runs 1000          # DES
//! cargo run -p smp-check -- --live-smoke 200     # OS threads
//! cargo run -p smp-check -- --dist-smoke 25      # worker processes
//! ```
//!
//! Two more sweeps check layers above the executors. The
//! **restart-portfolio engine** ([`portfolio`]): generated `(members,
//! workers, schedule, steal)` cases must settle a deterministic winner
//! and a closing wasted-work ledger on both backends, with cancellation
//! overshoot bounded by one in-flight attempt per worker
//! (`--portfolio-smoke 50`). The **planning-as-a-service layer**
//! ([`serve`]): generated multi-tenant workloads — mixed classes, shared
//! snapshot keys, unknown keys, logical-deadline pressure — must keep the
//! request-conservation ledger closed and return byte-identical answer
//! digests across batched/sequential modes and DES/live backends; they
//! shrink to an `smp-serve-repro v1` file that `--replay` re-executes
//! (`--serve-smoke 200`).

pub mod backend;
pub mod case;
pub mod gen;
pub mod harness;
pub mod oracles;
pub mod portfolio;
pub mod repro;
pub mod serve;
pub mod shrink;

pub use backend::Backend;
pub use case::{CaseSpec, MachineKind, SchedulePlan};
pub use harness::{fuzz, FuzzConfig, FuzzOutcome};
pub use oracles::{check_case, Violation};
pub use portfolio::{check_portfolio_case, generate_portfolio_case, portfolio_smoke};
pub use repro::{parse, serialize};
pub use serve::{check_serve_case, generate_serve_case, serve_smoke, shrink_serve_case, ServeCase};
pub use shrink::shrink;
