//! # smp-obs — observability for the DES and planners
//!
//! Three small, dependency-free components (DESIGN.md §9):
//!
//! 1. A **structured event tracer** ([`trace::Tracer`]): span begin/end,
//!    instant events, and counter samples on per-PE tracks, stamped with
//!    *virtual* nanoseconds. Disabled tracing is a single branch — the
//!    simulator takes `Option<&mut Tracer>` and `None` costs nothing but a
//!    null check per call site.
//! 2. A **typed metrics registry** ([`metrics::MetricsRegistry`]): named
//!    counters, gauges, and histograms with *fixed* bucket boundaries, so
//!    the flattened [`metrics::MetricsSnapshot`] is a deterministic,
//!    byte-stable artifact suitable for golden-file regression tests.
//! 3. A **Chrome `trace_event` exporter** ([`chrome`], via
//!    [`trace::Tracer::to_chrome_json`]): the JSON array format loadable in
//!    `chrome://tracing` and <https://ui.perfetto.dev>, emitted one event
//!    per line with keys in a fixed order — byte-identical for identical
//!    event streams.
//!
//! ## Determinism contract
//!
//! Everything here is a pure function of the recorded events/increments:
//! no wall clocks, no thread ids, no hash-map iteration order (BTreeMap
//! everywhere), no floating point. Because the discrete-event simulator is
//! itself deterministic, the same `(workload, SimConfig, FaultPlan)` triple
//! yields a byte-identical trace and metrics snapshot — which is what the
//! golden-trace test suite in `tests/golden_trace.rs` locks down.
//!
//! The live execution backend records through per-worker [`buf::TraceBuf`]
//! buffers stamped with *wall-clock* nanoseconds; the export pipeline is
//! still a pure function of the recorded events, but wall-clock event
//! streams differ run to run, so golden-file comparison applies only to
//! virtual-time (DES) traces (DESIGN.md §12).

pub mod buf;
pub mod chrome;
pub mod metrics;
pub mod trace;

pub use buf::TraceBuf;
pub use metrics::{Histogram, MetricSample, MetricsRegistry, MetricsSnapshot};
pub use trace::{EventPhase, TraceCheckError, TraceEvent, Tracer};

/// Event categories used across the workspace. Category strings are part
/// of the trace format: filters in Perfetto and the well-formedness tests
/// key on them.
pub mod cat {
    /// Task execution spans on PE tracks.
    pub const TASK: &str = "task";
    /// Steal protocol traffic (requests, grants, denials, timeouts,
    /// backoff).
    pub const STEAL: &str = "steal";
    /// Message-level events (sends are implicit in steal events; this
    /// covers queue migrations and re-routes).
    pub const MSG: &str = "msg";
    /// Injected-fault effects: crashes, recoveries, drops, delays,
    /// retransmissions, straggler scaling. A zero-fault run emits none.
    pub const FAULT: &str = "fault";
    /// Planner phase spans (sample / repartition / connect / assemble).
    pub const PHASE: &str = "phase";
    /// Restart-portfolio events: round starts, first-success cancellation
    /// fan-out, loser settlement. The matching metrics taxonomy is
    /// `portfolio.*` — deterministic ledger fields (members, rounds,
    /// winner, wasted/required/avoided attempt counts) plus run-dependent
    /// counters (`portfolio.attempts.completed`,
    /// `portfolio.cancel.post_fire_completions`).
    pub const PORTFOLIO: &str = "portfolio";
}
