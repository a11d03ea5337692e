//! Request and answer types for the serving front door.
//!
//! A [`PlanRequest`] names *what* to plan (environment/robot keys and the
//! start/goal pair) and *how urgently* (tenant class, logical deadline);
//! the server answers with a [`ServeOutcome`] whose FNV [`answer digest`]
//! [`answer_digest`] is the byte-level identity the differential oracles
//! pin: a batched concurrent run must produce exactly the digests of a
//! sequential one-at-a-time replay.

use smp_geom::Point;
use smp_plan::{QueryError, QueryResult};

/// FNV-1a offset basis (same constants as `smp_core::roadmap_digest`).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold one `u64` into an FNV-1a accumulator, byte by byte.
pub fn fnv_mix(h: u64, v: u64) -> u64 {
    let mut h = h;
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Tenant class of a request: the admission queue is FIFO *within* a
/// class, and interactive requests are always dispatched before batch
/// requests admitted in the same window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QueryClass {
    /// Latency-sensitive traffic, dispatched first.
    Interactive,
    /// Throughput traffic, dispatched after all interactive requests.
    Batch,
}

impl QueryClass {
    /// Display name (`"interactive"` / `"batch"`).
    pub fn name(self) -> &'static str {
        match self {
            QueryClass::Interactive => "interactive",
            QueryClass::Batch => "batch",
        }
    }
}

/// One planning query submitted to the front door.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRequest {
    /// Environment key: checked at the gate with
    /// [`crate::registry::has_env`], resolved to the catalog's shared
    /// environment ([`crate::registry::shared_env`]) when a snapshot is
    /// built — never per request.
    pub env_key: String,
    /// Robot key, resolved through [`crate::registry::resolve_robot`].
    pub robot_key: String,
    /// Start configuration.
    pub start: Point<3>,
    /// Goal configuration.
    pub goal: Point<3>,
    /// Logical admission deadline: the request expires unless it is
    /// dispatched while the server's service index (number of requests
    /// dispatched before it, across all classes) is still `<= deadline`.
    /// Logical deadlines are what keep expiry decisions — and therefore
    /// the answer set — byte-identical between a batched concurrent run
    /// and its sequential replay; wall-clock execution deadlines are a
    /// separate, optional guard ([`crate::ServeConfig::wall_deadline`]).
    pub deadline: Option<u64>,
    /// Tenant class.
    pub class: QueryClass,
    /// Virtual arrival time in ns — latency accounting only; it never
    /// affects which requests are answered or what the answers are.
    pub arrival_ns: u64,
}

impl PlanRequest {
    /// A request with no deadline, interactive class, arrival at 0.
    pub fn new(env_key: &str, robot_key: &str, start: Point<3>, goal: Point<3>) -> Self {
        PlanRequest {
            env_key: env_key.to_string(),
            robot_key: robot_key.to_string(),
            start,
            goal,
            deadline: None,
            class: QueryClass::Interactive,
            arrival_ns: 0,
        }
    }
}

/// Why a request was rejected (as opposed to expired or answered).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// `env_key` is not in the registry.
    UnknownEnv(String),
    /// `robot_key` is not in the registry.
    UnknownRobot(String),
    /// The query itself failed validation (bad endpoints, empty roadmap).
    Query(QueryError),
    /// The server was cancelled before this request was dispatched.
    Cancelled,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownEnv(k) => write!(f, "unknown environment key {k:?}"),
            ServeError::UnknownRobot(k) => write!(f, "unknown robot key {k:?}"),
            ServeError::Query(e) => write!(f, "query rejected: {e}"),
            ServeError::Cancelled => write!(f, "server cancelled before dispatch"),
        }
    }
}

impl std::error::Error for ServeError {}

impl ServeError {
    /// Small stable discriminant folded into answer digests.
    fn digest_tag(&self) -> u64 {
        match self {
            ServeError::UnknownEnv(_) => 10,
            ServeError::UnknownRobot(_) => 11,
            ServeError::Query(QueryError::NonFinite { which }) => {
                if *which == "start" {
                    12
                } else {
                    13
                }
            }
            ServeError::Query(QueryError::InvalidStart) => 14,
            ServeError::Query(QueryError::InvalidGoal) => 15,
            ServeError::Query(QueryError::EmptyRoadmap) => 16,
            ServeError::Query(QueryError::Unreachable) => 17,
            ServeError::Cancelled => 18,
        }
    }
}

/// The final state of one admitted request. Exactly one outcome is
/// recorded per admission — the conservation ledger
/// ([`crate::queue::ServeLedger`]) counts these buckets and must close.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeOutcome {
    /// A path was found: the full waypoint list and its length.
    Solved {
        /// Path waypoints, start..=goal.
        path: Vec<Point<3>>,
        /// Path length.
        length: f64,
    },
    /// The query executed but no path exists through the snapshot — this
    /// is a *completed* answer, not a rejection.
    NoPath,
    /// The request was refused before or during dispatch.
    Rejected(ServeError),
    /// The logical deadline passed before dispatch.
    Expired,
}

impl ServeOutcome {
    /// Build the outcome for an executed query.
    pub fn from_query(res: Result<QueryResult<3>, QueryError>) -> Self {
        match res {
            Ok(r) => ServeOutcome::Solved {
                path: r.path,
                length: r.length,
            },
            Err(QueryError::Unreachable) | Err(QueryError::EmptyRoadmap) => ServeOutcome::NoPath,
            Err(e) => ServeOutcome::Rejected(ServeError::Query(e)),
        }
    }

    /// True for outcomes the ledger counts as completed (served answers).
    pub fn is_completed(&self) -> bool {
        matches!(self, ServeOutcome::Solved { .. } | ServeOutcome::NoPath)
    }
}

/// Byte-level identity of an answer: FNV-1a over the outcome kind and,
/// for solved queries, every waypoint coordinate bit plus the length
/// bits. Two runs that produce equal digests for every request produced
/// byte-identical answers.
pub fn answer_digest(outcome: &ServeOutcome) -> u64 {
    let mut h = FNV_OFFSET;
    match outcome {
        ServeOutcome::Solved { path, length } => {
            h = fnv_mix(h, 1);
            h = fnv_mix(h, path.len() as u64);
            for q in path {
                for c in q.coords() {
                    h = fnv_mix(h, c.to_bits());
                }
            }
            h = fnv_mix(h, length.to_bits());
        }
        ServeOutcome::NoPath => h = fnv_mix(h, 2),
        ServeOutcome::Rejected(e) => {
            h = fnv_mix(h, 3);
            h = fnv_mix(h, e.digest_tag());
        }
        ServeOutcome::Expired => h = fnv_mix(h, 4),
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_separate_outcome_kinds() {
        let solved = ServeOutcome::Solved {
            path: vec![Point::splat(0.1), Point::splat(0.2)],
            length: 0.5,
        };
        let digests = [
            answer_digest(&solved),
            answer_digest(&ServeOutcome::NoPath),
            answer_digest(&ServeOutcome::Rejected(ServeError::Cancelled)),
            answer_digest(&ServeOutcome::Rejected(ServeError::Query(
                QueryError::InvalidStart,
            ))),
            answer_digest(&ServeOutcome::Expired),
        ];
        for i in 0..digests.len() {
            for j in i + 1..digests.len() {
                assert_ne!(digests[i], digests[j], "{i} vs {j}");
            }
        }
    }

    #[test]
    fn digest_is_sensitive_to_every_waypoint_bit() {
        let a = ServeOutcome::Solved {
            path: vec![Point::splat(0.1), Point::splat(0.2)],
            length: 0.5,
        };
        let b = ServeOutcome::Solved {
            path: vec![Point::splat(0.1), Point::new([0.2, 0.2, 0.2 + 1e-15])],
            length: 0.5,
        };
        assert_ne!(answer_digest(&a), answer_digest(&b));
    }
}
