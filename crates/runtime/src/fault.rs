//! Deterministic fault injection: one plan for all three backends.
//!
//! A [`FaultPlan`] describes everything that goes wrong during a phase:
//! PEs that run slow (stragglers), PEs that crash, and messages that are
//! lost or delayed. The plan is *data*, not behaviour — each executor
//! consults it at well-defined points, and every decision is a pure hash
//! of `(plan.seed, message sequence number)`, so:
//!
//! * the same `(workload, SimConfig, FaultPlan)` triple always produces the
//!   same [`crate::SimReport`] bit for bit;
//! * a zero-fault plan ([`FaultPlan::is_zero`]) leaves the event stream
//!   untouched — it consumes nothing from the simulator's steal RNG and
//!   produces results identical to running with no plan at all.
//!
//! ## Fault semantics on the DES
//!
//! * **Straggler** — tasks *starting* while `from <= t < until` on the
//!   affected PE cost `factor`× their measured cost. Overlapping windows
//!   multiply.
//! * **Crash** — the PE dies at time `at`: its running task is lost
//!   (re-executed elsewhere, the partial work wasted), its unstarted queue
//!   is orphaned and re-assigned after a `crash_detect` latency, and any
//!   in-flight steal grant addressed to it is re-enqueued at the victim.
//! * **Message loss / jitter** — *control* messages (steal requests and
//!   denials) are truly dropped; the thief-side timeout recovers. *Task-
//!   carrying* messages (grants, lifeline pushes) ride a reliable channel: a
//!   drop costs a detection + retransmit delay instead of losing the
//!   payload, so every task still executes exactly once.
//!
//! ## The same plan on live threads and worker processes
//!
//! Wall-clock backends have no virtual clock, so a crash there fires on
//! its task count: the worker reports [`Crash::after_tasks`] results, and
//! the result of its next task is lost.
//!
//! | field | live ([`crate::LiveExecutor`]) | dist ([`crate::DistExecutor`]) |
//! |---|---|---|
//! | `Crash.at` | — | — |
//! | `Crash.after_tasks` = k | panic starting task k+1 | exit after executing task k+1, before reporting it |
//! | `Crash.respawn` | — (redistribute) | replace the process at the next epoch, else redistribute |
//! | `stragglers` | sleep `(factor−1)×100 µs` (≤ 5 ms) before each of the worker's first 4 tasks | — |
//! | `msg_loss` | drop steal grant `seq` when [`FaultPlan::drops_message`] | drop each incoming `Done` and outgoing `DoneAck` with probability `msg_loss` (< 1) |
//! | `msg_jitter` | — | withhold an `Assign`'s first send with probability `msg_jitter` |
//! | `drop_seqs` | forced grant drop | — |

use crate::{SimError, VTime};

/// One slow-PE window: tasks starting in `[from, until)` on `pe` run
/// `factor`× slower.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Straggler {
    /// Affected PE.
    pub pe: usize,
    /// Window start (virtual ns, inclusive).
    pub from: VTime,
    /// Window end (virtual ns, exclusive).
    pub until: VTime,
    /// Slowdown multiplier applied to task costs in the window.
    pub factor: f64,
}

/// A PE failure, with one trigger per kind of clock: the DES reads the
/// virtual instant `at`, the live and dist backends the task count
/// `after_tasks`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crash {
    /// PE that dies.
    pub pe: usize,
    /// Virtual instant of the failure (DES).
    pub at: VTime,
    /// Results the worker reports before it dies (live, dist); the result
    /// of its task `after_tasks + 1` is lost.
    pub after_tasks: u64,
    /// Replace the dead worker process at the next epoch instead of
    /// redistributing its queue (dist only).
    pub respawn: bool,
}

/// A deterministic, serializable description of injected faults.
///
/// Build with the `with_*` methods:
///
/// ```
/// use smp_runtime::FaultPlan;
/// let plan = FaultPlan::new(42)
///     .with_straggler(0, 0, 10_000_000, 4.0)
///     .with_crash(3, 2_000_000)
///     .with_message_loss(0.05);
/// assert!(!plan.is_zero());
/// assert!(FaultPlan::new(42).is_zero());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for the per-message fault decisions. Independent of
    /// [`crate::SimConfig::seed`] — faults never perturb victim selection.
    pub seed: u64,
    /// Slow-PE windows.
    pub stragglers: Vec<Straggler>,
    /// PE failures.
    pub crashes: Vec<Crash>,
    /// Probability in `[0, 1]` that any given message is dropped.
    pub msg_loss: f64,
    /// Probability in `[0, 1]` that any given message is delayed.
    pub msg_jitter: f64,
    /// Maximum extra delay (virtual ns) for a jittered message.
    pub jitter_max: VTime,
    /// Targeted drops by message sequence number (1-based send order).
    pub drop_seqs: Vec<u64>,
    /// Targeted delays `(message sequence number, extra delay)`.
    pub jitter_seqs: Vec<(u64, VTime)>,
}

impl FaultPlan {
    /// An empty (zero-fault) plan with the given decision seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Default::default()
        }
    }

    /// Add a slow-PE window (see [`Straggler`]).
    pub fn with_straggler(mut self, pe: usize, from: VTime, until: VTime, factor: f64) -> Self {
        self.stragglers.push(Straggler {
            pe,
            from,
            until,
            factor,
        });
        self
    }

    /// Kill `pe` at virtual instant `at`; on the wall-clock backends it
    /// dies after reporting one result, and is not respawned.
    pub fn with_crash(mut self, pe: usize, at: VTime) -> Self {
        self.crashes.push(Crash {
            pe,
            at,
            after_tasks: 1,
            respawn: false,
        });
        self
    }

    /// Kill `pe` once it has reported `after_tasks` results (live, dist),
    /// replacing its process if `respawn` (dist). On the DES it dies at
    /// virtual instant 0.
    pub fn with_task_crash(mut self, pe: usize, after_tasks: u64, respawn: bool) -> Self {
        self.crashes.push(Crash {
            pe,
            at: 0,
            after_tasks,
            respawn,
        });
        self
    }

    /// Drop each message independently with probability `rate`.
    pub fn with_message_loss(mut self, rate: f64) -> Self {
        self.msg_loss = rate;
        self
    }

    /// Delay each message with probability `rate` by up to `max_extra` ns.
    pub fn with_message_jitter(mut self, rate: f64, max_extra: VTime) -> Self {
        self.msg_jitter = rate;
        self.jitter_max = max_extra;
        self
    }

    /// Force-drop the message with 1-based send sequence `msg_seq`.
    pub fn with_dropped_message(mut self, msg_seq: u64) -> Self {
        self.drop_seqs.push(msg_seq);
        self
    }

    /// Force-delay message `msg_seq` by exactly `extra` ns.
    pub fn with_delayed_message(mut self, msg_seq: u64, extra: VTime) -> Self {
        self.jitter_seqs.push((msg_seq, extra));
        self
    }

    /// True if this plan injects nothing — the simulator's fast path.
    pub fn is_zero(&self) -> bool {
        self.stragglers.is_empty()
            && self.crashes.is_empty()
            && self.msg_loss == 0.0
            && self.msg_jitter == 0.0
            && self.drop_seqs.is_empty()
            && self.jitter_seqs.is_empty()
    }

    /// Reject malformed plans before the simulation starts (rates outside
    /// `[0, 1]`, non-positive or non-finite straggler factors, fault targets
    /// beyond the PE count).
    pub fn validate(&self, p: usize) -> Result<(), SimError> {
        let rate_ok = |r: f64| (0.0..=1.0).contains(&r);
        if !rate_ok(self.msg_loss) {
            return Err(SimError::InvalidFaultPlan(format!(
                "msg_loss {} outside [0, 1]",
                self.msg_loss
            )));
        }
        if !rate_ok(self.msg_jitter) {
            return Err(SimError::InvalidFaultPlan(format!(
                "msg_jitter {} outside [0, 1]",
                self.msg_jitter
            )));
        }
        for s in &self.stragglers {
            if !(s.factor > 0.0 && s.factor.is_finite()) {
                return Err(SimError::InvalidFaultPlan(format!(
                    "straggler factor {} must be positive and finite",
                    s.factor
                )));
            }
            if s.pe >= p {
                return Err(SimError::InvalidFaultPlan(format!(
                    "straggler PE {} out of range (p = {p})",
                    s.pe
                )));
            }
        }
        for c in &self.crashes {
            if c.pe >= p {
                return Err(SimError::InvalidFaultPlan(format!(
                    "crash PE {} out of range (p = {p})",
                    c.pe
                )));
            }
        }
        Ok(())
    }

    /// Earliest crash time of `pe`, if the plan crashes it.
    pub fn crash_time(&self, pe: usize) -> Option<VTime> {
        self.crashes
            .iter()
            .filter(|c| c.pe == pe)
            .map(|c| c.at)
            .min()
    }

    /// Cost of a task starting at `t` on `pe` under active straggler
    /// windows. Returns `cost` untouched (no float round-trip) when no
    /// window applies, keeping the zero-fault path bit-identical.
    pub fn scaled_cost(&self, pe: usize, t: VTime, cost: VTime) -> VTime {
        let mut factor = 1.0f64;
        let mut hit = false;
        for s in &self.stragglers {
            if s.pe == pe && t >= s.from && t < s.until {
                factor *= s.factor;
                hit = true;
            }
        }
        if !hit {
            cost
        } else {
            ((cost as f64) * factor).round().max(1.0) as VTime
        }
    }

    /// Should message `msg_seq` be dropped?
    pub fn drops_message(&self, msg_seq: u64) -> bool {
        if self.drop_seqs.contains(&msg_seq) {
            return true;
        }
        self.msg_loss > 0.0 && self.unit(msg_seq, 0) < self.msg_loss
    }

    /// Extra delivery delay for message `msg_seq` (0 = on time).
    pub fn extra_delay(&self, msg_seq: u64) -> VTime {
        if let Some(&(_, extra)) = self.jitter_seqs.iter().find(|&&(s, _)| s == msg_seq) {
            return extra;
        }
        if self.msg_jitter > 0.0 && self.unit(msg_seq, 1) < self.msg_jitter {
            (self.unit(msg_seq, 2) * self.jitter_max as f64) as VTime
        } else {
            0
        }
    }

    /// Stateless uniform draw in `[0, 1)` for one (message, decision) pair.
    fn unit(&self, msg_seq: u64, salt: u64) -> f64 {
        let h =
            splitmix64(self.seed ^ splitmix64(msg_seq.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt));
        (h >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// splitmix64, the crate's one cheap deterministic mixer.
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_is_zero() {
        assert!(FaultPlan::new(7).is_zero());
        assert!(!FaultPlan::new(7).with_crash(0, 100).is_zero());
        assert!(!FaultPlan::new(7).with_message_loss(0.1).is_zero());
    }

    #[test]
    fn scaled_cost_applies_only_in_window() {
        let plan = FaultPlan::new(1).with_straggler(2, 1_000, 5_000, 3.0);
        assert_eq!(plan.scaled_cost(2, 999, 100), 100); // before window
        assert_eq!(plan.scaled_cost(2, 1_000, 100), 300); // inside
        assert_eq!(plan.scaled_cost(2, 5_000, 100), 100); // after (exclusive)
        assert_eq!(plan.scaled_cost(1, 2_000, 100), 100); // other PE
    }

    #[test]
    fn overlapping_stragglers_multiply() {
        let plan = FaultPlan::new(1)
            .with_straggler(0, 0, 1_000, 2.0)
            .with_straggler(0, 0, 1_000, 3.0);
        assert_eq!(plan.scaled_cost(0, 500, 10), 60);
    }

    #[test]
    fn message_decisions_are_deterministic_and_seed_dependent() {
        let a = FaultPlan::new(1).with_message_loss(0.5);
        let b = FaultPlan::new(1).with_message_loss(0.5);
        let c = FaultPlan::new(2).with_message_loss(0.5);
        let drops = |p: &FaultPlan| (0..200).map(|s| p.drops_message(s)).collect::<Vec<_>>();
        assert_eq!(drops(&a), drops(&b));
        assert_ne!(drops(&a), drops(&c), "different seed, different pattern");
        // rate is roughly honoured
        let hit = drops(&a).iter().filter(|&&d| d).count();
        assert!((60..140).contains(&hit), "{hit} drops out of 200 at p=0.5");
    }

    #[test]
    fn targeted_drops_and_delays() {
        let plan = FaultPlan::new(1)
            .with_dropped_message(17)
            .with_delayed_message(9, 4_000);
        assert!(plan.drops_message(17));
        assert!(!plan.drops_message(16));
        assert_eq!(plan.extra_delay(9), 4_000);
        assert_eq!(plan.extra_delay(10), 0);
    }

    #[test]
    fn jitter_bounded_by_max() {
        let plan = FaultPlan::new(3).with_message_jitter(1.0, 10_000);
        for s in 0..200 {
            assert!(plan.extra_delay(s) < 10_000);
        }
    }

    #[test]
    fn validate_rejects_malformed() {
        assert!(FaultPlan::new(0)
            .with_message_loss(1.5)
            .validate(4)
            .is_err());
        assert!(FaultPlan::new(0)
            .with_straggler(0, 0, 10, -1.0)
            .validate(4)
            .is_err());
        assert!(FaultPlan::new(0)
            .with_straggler(0, 0, 10, f64::NAN)
            .validate(4)
            .is_err());
        assert!(FaultPlan::new(0).with_crash(4, 0).validate(4).is_err());
        assert!(FaultPlan::new(0)
            .with_crash(3, 0)
            .with_straggler(1, 0, 10, 2.0)
            .with_message_loss(0.5)
            .validate(4)
            .is_ok());
    }

    #[test]
    fn crash_triggers_default_to_one_task_without_respawn() {
        let plan = FaultPlan::new(0)
            .with_crash(1, 500)
            .with_task_crash(2, 3, true);
        let [timed, counted] = plan.crashes[..] else {
            panic!("two crashes expected");
        };
        assert_eq!(
            (timed.at, timed.after_tasks, timed.respawn),
            (500, 1, false)
        );
        assert_eq!(
            (counted.at, counted.after_tasks, counted.respawn),
            (0, 3, true)
        );
    }

    #[test]
    fn crash_time_takes_earliest() {
        let plan = FaultPlan::new(0).with_crash(1, 500).with_crash(1, 200);
        assert_eq!(plan.crash_time(1), Some(200));
        assert_eq!(plan.crash_time(0), None);
    }
}
