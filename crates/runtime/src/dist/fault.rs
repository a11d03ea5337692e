//! The dist backend's stateful fault coin.
//!
//! The coordinator reads the one [`crate::FaultPlan`] directly (PROTOCOL.md
//! §6): `msg_loss` drops incoming `Done` frames and outgoing `DoneAck`s,
//! `msg_jitter` withholds first `Assign` sends. Each of those three event
//! streams flips its own [`FaultCoin`], a pure function of the plan's seed,
//! the stream tag and a per-stream counter, so a failing smoke case replays
//! the same drop decisions.

use crate::fault::splitmix64;

/// Stateful deterministic coin for one fault stream (e.g. "drop Done").
/// The `stream` tag keeps independent decisions independent under one seed.
#[derive(Debug, Clone)]
pub(crate) struct FaultCoin {
    seed: u64,
    stream: u64,
    counter: u64,
    permille: u16,
}

impl FaultCoin {
    /// A coin flipping with probability `rate`, truncated to whole per
    /// mille: a rate below 1 never fires on every flip.
    pub(crate) fn new(seed: u64, stream: u64, rate: f64) -> Self {
        FaultCoin {
            seed,
            stream,
            counter: 0,
            permille: (rate * 1000.0) as u16,
        }
    }

    /// Advance the counter and report whether this event faults.
    pub(crate) fn flip(&mut self) -> bool {
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
        let mut a = FaultCoin::new(42, 1, 0.25);
        let mut b = FaultCoin::new(42, 1, 0.25);
        let flips_a: Vec<bool> = (0..1000).map(|_| a.flip()).collect();
        let flips_b: Vec<bool> = (0..1000).map(|_| b.flip()).collect();
        assert_eq!(flips_a, flips_b);
        let hits = flips_a.iter().filter(|&&x| x).count();
        assert!((150..350).contains(&hits), "hits={hits}");
    }

    #[test]
    fn streams_are_independent() {
        let mut a = FaultCoin::new(42, 1, 0.5);
        let mut b = FaultCoin::new(42, 2, 0.5);
        let fa: Vec<bool> = (0..64).map(|_| a.flip()).collect();
        let fb: Vec<bool> = (0..64).map(|_| b.flip()).collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn zero_rate_never_fires_and_a_rate_below_one_never_always_fires() {
        let mut c = FaultCoin::new(7, 3, 0.0);
        assert!((0..10_000).all(|_| !c.flip()));
        assert_eq!(FaultCoin::new(7, 3, 0.9999).permille, 999);
        assert_eq!(FaultCoin::new(7, 3, 1.0).permille, 1000);
    }
}
