//! Deterministic fault injection for the distributed backend.
//!
//! Mirrors the DES [`crate::fault::FaultPlan`] philosophy for real
//! processes: every fault is a pure function of the plan's seed and a
//! per-stream counter, so a failing smoke case replays bit-identically.
//! Three fault families exist (PROTOCOL.md §6):
//!
//! * **message drops** — the coordinator deterministically ignores an
//!   incoming `Done` before processing it (forcing the worker's
//!   retransmit path), suppresses an outgoing `DoneAck` after processing
//!   (forcing duplicate `Done` delivery and coordinator-side dedup), or
//!   withholds the first transmission of an `Assign` (forcing the
//!   retransmit timer to recover the transfer);
//! * **worker kills** — a worker process terminates itself after
//!   executing `after_tasks` tasks, *without* reporting the last result:
//!   the worst case the crash-recovery path must mask;
//! * **respawn** — whether the coordinator replaces a dead worker with a
//!   fresh process (next epoch) or redistributes its queue to survivors.

/// Kill one worker process mid-phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistKill {
    /// Worker slot whose process dies.
    pub worker: u32,
    /// The process exits after executing this many tasks, swallowing the
    /// final task's `Done` (a lost in-flight result).
    pub after_tasks: u64,
    /// Replace the dead process (same slot, next epoch) instead of
    /// redistributing its queue to survivors.
    pub respawn: bool,
}

/// A deterministic fault plan for one distributed run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DistFaultPlan {
    /// Seed of every drop decision below.
    pub seed: u64,
    /// Per-mille probability of ignoring an incoming `Done` frame.
    pub drop_done_permille: u16,
    /// Per-mille probability of suppressing an outgoing `DoneAck`.
    pub drop_ack_permille: u16,
    /// Per-mille probability of withholding an `Assign`'s first send.
    pub delay_assign_permille: u16,
    /// Worker-process kills; each fires at most once per executor.
    pub kills: Vec<DistKill>,
}

impl DistFaultPlan {
    /// The kill scheduled for `worker`, if any.
    pub fn kill_for(&self, worker: u32) -> Option<DistKill> {
        self.kills.iter().copied().find(|k| k.worker == worker)
    }
}

/// splitmix64 — the repo's standard cheap deterministic mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stateful deterministic coin for one fault stream (e.g. "drop Done").
/// The `stream` tag keeps independent decisions independent under one seed.
#[derive(Debug, Clone)]
pub struct FaultCoin {
    seed: u64,
    stream: u64,
    counter: u64,
    permille: u16,
}

impl FaultCoin {
    /// A coin flipping at `permille`/1000 for the given plan stream.
    pub fn new(seed: u64, stream: u64, permille: u16) -> Self {
        FaultCoin {
            seed,
            stream,
            counter: 0,
            permille,
        }
    }

    /// Advance the counter and report whether this event faults.
    pub fn flip(&mut self) -> bool {
        if self.permille == 0 {
            return false;
        }
        let x = splitmix64(self.seed ^ self.stream.rotate_left(17) ^ self.counter);
        self.counter += 1;
        (x % 1000) < u64::from(self.permille)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coin_is_deterministic_and_roughly_calibrated() {
        let mut a = FaultCoin::new(42, 1, 250);
        let mut b = FaultCoin::new(42, 1, 250);
        let flips_a: Vec<bool> = (0..1000).map(|_| a.flip()).collect();
        let flips_b: Vec<bool> = (0..1000).map(|_| b.flip()).collect();
        assert_eq!(flips_a, flips_b);
        let hits = flips_a.iter().filter(|&&x| x).count();
        assert!((150..350).contains(&hits), "hits={hits}");
    }

    #[test]
    fn streams_are_independent() {
        let mut a = FaultCoin::new(42, 1, 500);
        let mut b = FaultCoin::new(42, 2, 500);
        let fa: Vec<bool> = (0..64).map(|_| a.flip()).collect();
        let fb: Vec<bool> = (0..64).map(|_| b.flip()).collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn zero_permille_never_fires() {
        let mut c = FaultCoin::new(7, 3, 0);
        assert!((0..10_000).all(|_| !c.flip()));
    }

    #[test]
    fn plan_queries() {
        let plan = DistFaultPlan {
            seed: 1,
            kills: vec![DistKill {
                worker: 2,
                after_tasks: 3,
                respawn: true,
            }],
            ..Default::default()
        };
        assert_eq!(plan.kill_for(2).unwrap().after_tasks, 3);
        assert!(plan.kill_for(0).is_none());
    }
}
