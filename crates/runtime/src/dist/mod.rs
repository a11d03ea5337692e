//! Distributed multi-process execution backend (DESIGN.md §17).
//!
//! The multi-process [`crate::executor`] backend: a coordinator plus N worker
//! *processes* exchanging length-prefixed, checksummed frames over Unix
//! domain sockets (or TCP behind a flag). Layering, bottom-up:
//!
//! * [`wire`] — explicit little-endian field codec ([`wire::WireWriter`] /
//!   [`wire::WireReader`]), `f64` as bit patterns for exact round-trips;
//! * [`frame`] — `SMPD` magic, version, length prefix, FNV-1a checksum;
//!   corrupt or truncated frames yield structured errors, never panics;
//! * [`msg`] — the protocol message enum ([`msg::Msg`]), one per frame;
//! * [`transport`] — Unix-socket / TCP rendezvous
//!   ([`transport::Endpoint`], [`transport::DistListener`]);
//! * [`worker`] — the worker process loop ([`worker::run_worker`]) and the
//!   [`worker::DistHandler`] trait that executes work kinds;
//! * [`coordinator`] — [`coordinator::DistExecutor`]: ownership tracking,
//!   steal brokering, retransmit-with-backoff, crash recovery and
//!   respawn;
//! * [`fault`] — deterministic fault injection ([`fault::DistFaultPlan`])
//!   mirroring the DES `FaultPlan` for real processes.
//!
//! The protocol itself is documented in `PROTOCOL.md` and model-checked in
//! `specs/tla/StealProtocol.tla` (invariants **NoTaskDuplication**,
//! **NoTaskLoss**, **Progress** — asserted at runtime by `smp-check
//! --dist-smoke`).

pub mod coordinator;
pub mod fault;
pub mod frame;
pub mod msg;
pub mod transport;
pub mod wire;
pub mod worker;

pub use coordinator::{
    resolve_worker_cmd, DistExecutor, DistOptions, DistOutcome, DistPartial, DistTuning,
    HandlerFactory, SpawnMode, WorkDesc,
};
pub use fault::{DistFaultPlan, DistKill, FaultCoin};
pub use frame::{FrameError, MAX_FRAME};
pub use msg::Msg;
pub use transport::{DistListener, DistStream, Endpoint, TransportKind};
pub use wire::{WireError, WireReader, WireWriter};
pub use worker::{run_worker, synth_work, DistHandler, SynthHandler, WorkerExit, WorkerParams};

/// Failures of the distributed machinery itself (transport, spawning,
/// protocol), distinct from task-level [`crate::executor::ExecError`]s.
#[derive(Debug)]
pub enum DistError {
    /// Socket / process I/O failed.
    Io(std::io::Error),
    /// A frame was malformed (see [`FrameError`]).
    Frame(FrameError),
    /// A message payload was malformed (see [`WireError`]).
    Wire(WireError),
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
            DistError::Wire(e) => write!(f, "dist wire error: {e}"),
            DistError::Protocol(m) => write!(f, "dist protocol error: {m}"),
            DistError::Spawn(m) => write!(f, "dist spawn error: {m}"),
        }
    }
}

impl std::error::Error for DistError {}

impl From<std::io::Error> for DistError {
    fn from(e: std::io::Error) -> Self {
        DistError::Io(e)
    }
}

impl From<DistError> for crate::executor::ExecError {
    fn from(e: DistError) -> Self {
        crate::executor::ExecError::Transport(e.to_string())
    }
}

impl From<FrameError> for DistError {
    fn from(e: FrameError) -> Self {
        DistError::Frame(e)
    }
}

impl From<WireError> for DistError {
    fn from(e: WireError) -> Self {
        DistError::Wire(e)
    }
}
