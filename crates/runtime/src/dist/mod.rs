//! Distributed multi-process execution backend (DESIGN.md §17).
//!
//! The multi-process [`crate::executor`] backend: a coordinator plus N worker
//! *processes* exchanging length-prefixed, checksummed frames over Unix
//! domain sockets. Layering, bottom-up:
//!
//! * [`wire`] — explicit little-endian field codec ([`wire::WireWriter`] /
//!   [`wire::WireReader`]), `f64` as bit patterns for exact round-trips;
//! * [`frame`] — `SMPD` magic, version, length prefix, FNV-1a checksum;
//!   corrupt or truncated frames yield structured errors, never panics;
//! * [`msg`] — the protocol message enum ([`msg::Msg`]), one per frame;
//! * [`transport`] — Unix-socket rendezvous ([`transport::Endpoint`],
//!   [`transport::DistListener`]) and the frame reader thread both sides
//!   use;
//! * [`worker`] — the worker process loop ([`worker::run_worker`]) and the
//!   [`worker::DistHandler`] trait that executes work kinds;
//! * `phase` — the coordinator's protocol as an I/O-free state machine:
//!   ownership tracking, steal brokering, retransmit timers, crash
//!   recovery, one handler per protocol step;
//! * [`coordinator`] — [`coordinator::DistExecutor`], the driver around
//!   it: sockets, clock, worker processes and respawn; it reads the one
//!   [`crate::FaultPlan`] directly (kills, respawns, dropped frames);
//! * `fault` — the seeded coin behind each dropped or withheld frame.
//!
//! The protocol itself is documented in `PROTOCOL.md` and model-checked in
//! `specs/tla/StealProtocol.tla` (invariants **NoTaskDuplication**,
//! **NoTaskLoss**, **Progress** — asserted at runtime by `smp-check
//! --dist-smoke`).

pub mod coordinator;
mod fault;
pub mod frame;
pub mod msg;
mod phase;
pub mod transport;
pub mod wire;
pub mod worker;

pub use coordinator::{
    resolve_worker_cmd, DistExecutor, DistOptions, DistTuning, HandlerFactory, SpawnMode, WorkDesc,
};
pub use frame::{FrameError, MAX_FRAME};
pub use msg::Msg;
pub use transport::{DistListener, DistStream, Endpoint};
pub use wire::{WireError, WireReader, WireWriter};
pub use worker::{run_worker, synth_work, DistHandler, SynthHandler, WorkerExit, WorkerParams};

/// Failures of the distributed machinery itself (transport, spawning,
/// protocol), distinct from task-level [`crate::executor::ExecError`]s.
#[derive(Debug)]
pub enum DistError {
    /// Socket / process I/O failed.
    Io(std::io::Error),
    /// A frame could not be written or read (see [`FrameError`]).
    Frame(FrameError),
    /// The peer violated the protocol (bad epoch, missing Hello, ...).
    Protocol(String),
    /// A worker process could not be spawned or found.
    Spawn(String),
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Io(e) => write!(f, "dist i/o error: {e}"),
            DistError::Frame(e) => write!(f, "dist framing error: {e}"),
            DistError::Protocol(m) => write!(f, "dist protocol error: {m}"),
            DistError::Spawn(m) => write!(f, "dist spawn error: {m}"),
        }
    }
}

impl std::error::Error for DistError {}

impl From<DistError> for crate::executor::ExecError {
    fn from(e: DistError) -> Self {
        crate::executor::ExecError::Transport(e.to_string())
    }
}
