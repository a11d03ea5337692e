//! Planning-as-a-service front door (`smp-serve`).
//!
//! Sampling-based planners split naturally into an expensive, reusable
//! phase (building a roadmap for an environment/robot pair) and a cheap,
//! per-request phase (answering one start/goal query against that
//! roadmap). This crate serves the second phase as a multi-tenant
//! request/response loop while amortising the first:
//!
//! * **Registry catalog** ([`registry`]) — string keys resolve to
//!   deterministic environment constructors; [`registry::shared_env`]
//!   constructs each environment at most once per process and shares
//!   it, [`registry::has_env`] answers membership without constructing.
//! * **Admission and gate** ([`AdmissionQueue`], [`Server`]) — requests
//!   get monotone sequence numbers and a deterministic *service order*:
//!   interactive class first, then batch, FIFO within each class. The
//!   order is a pure function of the admitted set, never of thread
//!   scheduling. The gate that rejects cancelled, expired and
//!   unknown-key requests only looks things up.
//! * **Snapshots** ([`RoadmapSnapshot`], [`SnapshotCache`]) — the PRM
//!   roadmap for each `(environment, robot)` key is built **once** via
//!   the existing parallel-construction pipeline over the catalog's
//!   shared environment, digest-pinned, and published as a shared
//!   immutable `Arc` with lease-counted LRU eviction (an in-use snapshot
//!   is never evicted).
//! * **Batched service** ([`Server`]) — consecutive same-snapshot
//!   queries become one phase on a single reused executor. Live, the
//!   phase has `min(threads, batch)` queues and steals like the planners
//!   do (query costs are uneven); on the DES it is a static schedule
//!   whose virtual times are a recorded reference. Answers are pure
//!   functions of `(snapshot, request)`, so batching and stealing change
//!   only *when* and *where* work runs, never *what* it returns.
//! * **Oracles** — every run carries a request-conservation ledger
//!   (admitted = completed + rejected + expired) checked at runtime, and
//!   an answers digest that must be byte-identical between a batched
//!   concurrent run and a sequential one-at-a-time replay. The
//!   `smp-check --serve-smoke` generator and the workspace differential
//!   tests enforce both.
//!
//! With every needed snapshot cached, a request constructs nothing
//! (DESIGN.md §15 walks the path layer by layer).
//!
//! ```
//! use smp_serve::{PlanRequest, ServeConfig, Server};
//! use smp_geom::Point;
//!
//! let mut server = Server::new(ServeConfig::default());
//! server.submit(PlanRequest::new(
//!     "small_cube",
//!     "point",
//!     Point::new([0.1, 0.1, 0.1]),
//!     Point::new([0.9, 0.9, 0.9]),
//! ));
//! let report = server.run().unwrap();
//! assert!(report.ledger.closes());
//! assert!(report.conservation_violations().is_empty());
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod queue;
pub mod registry;
pub mod request;
pub mod server;
pub mod snapshot;

pub use queue::{AdmissionQueue, Admitted, ServeLedger};
pub use request::{answer_digest, fnv_mix, PlanRequest, QueryClass, ServeError, ServeOutcome};
pub use server::{ServeConfig, ServeRecord, ServeReport, Server};
pub use snapshot::{RoadmapSnapshot, SnapshotCache, SnapshotKey, SnapshotLease, SnapshotParams};
