//! Victim-selection policies for work stealing.
//!
//! The three strategies of §III-A:
//!
//! * `RAND-K` — "a thief requests additional regions from k random
//!   processors, but not necessarily the same k processors for each
//!   request" (the paper fixes k = 8);
//! * `DIFFUSIVE` — "processors are assumed to be arranged in a 2D mesh and
//!   underloaded processors will request neighboring processors for work";
//! * `HYBRID` — "first execute DIFFUSIVE stealing and in the event that no
//!   request could be serviced, requests are sent to random processors".

use crate::topology::Mesh;
use rand::rngs::StdRng;
use rand::{Rng, RngExt};

/// Which victim-selection policy a thief uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StealPolicyKind {
    /// `k` random distinct victims per round.
    RandK(usize),
    /// Mesh neighbours only.
    Diffusive,
    /// Convergence-aware DIFFUSIVE (Demiralp et al.'s particle-advection
    /// refinement): starts as plain neighbour stealing, but a thief whose
    /// recent rounds were all denied widens its request ring — Manhattan
    /// radius `1 + fail streak`, capped at the mesh diameter — so work
    /// diffuses across a starved mesh in O(1) rounds instead of one hop per
    /// round. A granted steal resets the streak, collapsing back to the
    /// cheap 4-neighbour probe.
    DiffusiveAdaptive,
    /// Mesh neighbours first; if all deny, `k` random victims.
    Hybrid(usize),
    /// X10-style lifeline stealing (extension; cited in the paper's related
    /// work §V): victims are hypercube partners; a thief denied by all
    /// partners goes *dormant* and is re-activated by work pushed from a
    /// partner at its next task boundary — no polling back-off traffic.
    Lifeline,
}

impl StealPolicyKind {
    /// The paper's default RAND-K (k = 8).
    pub fn rand8() -> Self {
        StealPolicyKind::RandK(8)
    }

    /// Short display name matching the paper's figure legends.
    pub fn label(&self) -> String {
        match self {
            StealPolicyKind::RandK(k) => format!("Rand-{k} WS"),
            StealPolicyKind::Diffusive => "Diff WS".to_string(),
            StealPolicyKind::DiffusiveAdaptive => "Diff-CA WS".to_string(),
            StealPolicyKind::Hybrid(_) => "Hybrid WS".to_string(),
            StealPolicyKind::Lifeline => "Lifeline WS".to_string(),
        }
    }

    /// True for policies that register dormant lifelines instead of
    /// backing off and retrying.
    pub fn uses_lifelines(&self) -> bool {
        matches!(self, StealPolicyKind::Lifeline)
    }

    /// Hypercube partners of `pe` within `p` (PEs differing in one bit).
    pub fn hypercube_partners(pe: usize, p: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut bit = 1usize;
        while bit < p {
            let partner = pe ^ bit;
            if partner < p {
                out.push(partner);
            }
            bit <<= 1;
        }
        out
    }

    /// The ordered victim list for one steal round of `thief`.
    ///
    /// Victims are tried in order until one grants work; an empty result
    /// (possible only for `p = 1`) means stealing is impossible.
    pub fn round_victims(&self, thief: usize, mesh: &Mesh, rng: &mut StdRng) -> Vec<usize> {
        self.round_victims_adaptive(thief, mesh, rng, 0)
    }

    /// [`Self::round_victims`] with the thief's current *fail streak* — the
    /// number of consecutive fully-denied steal rounds since it last got
    /// work. Only `DiffusiveAdaptive` reads it (request radius
    /// `1 + fail_streak`, capped at the mesh diameter); every other policy
    /// ignores it, so at streak 0 this is exactly `round_victims`.
    ///
    /// `Hybrid`'s list is the mesh neighbours followed by the random
    /// victims, deduplicated only where the two meet: `Vec::dedup` drops a
    /// random victim equal to the *last* neighbour and nothing else. Any
    /// other repeat stays, and that PE is asked twice in the same round —
    /// the common case at small P (a 4×4 mesh with k = 8). Every Hybrid
    /// virtual time and golden trace depends on this list as it is, so a
    /// full dedup has to land with re-blessed goldens and figures.
    pub fn round_victims_adaptive(
        &self,
        thief: usize,
        mesh: &Mesh,
        rng: &mut StdRng,
        fail_streak: u32,
    ) -> Vec<usize> {
        let p = mesh.len();
        match *self {
            StealPolicyKind::RandK(k) => random_victims(thief, p, k, rng),
            StealPolicyKind::Diffusive => mesh.neighbors(thief),
            StealPolicyKind::DiffusiveAdaptive => {
                let radius = (1 + fail_streak as usize).min(mesh.diameter().max(1));
                mesh.neighbors_within(thief, radius)
            }
            StealPolicyKind::Hybrid(k) => {
                let mut v = mesh.neighbors(thief);
                v.extend(random_victims(thief, p, k, rng));
                // adjacent repeats only — see the doc comment above
                v.dedup();
                v
            }
            StealPolicyKind::Lifeline => Self::hypercube_partners(thief, p),
        }
    }
}

/// Exactly `min(k, p - 1)` distinct random PEs different from `thief`.
///
/// A partial Fisher–Yates shuffle over the candidate pool `0..p` without
/// the thief: unlike rejection sampling it cannot fall short of `k`
/// victims and draws exactly `k` values from the RNG. The pool is virtual —
/// slot `i` holds `i` below the thief and `i + 1` from it on, unless a
/// swap has moved another PE there — so a round costs O(k²) in the ≤ k
/// recorded swaps, not O(p), with the same draws in the same order as a
/// materialised pool.
fn random_victims(thief: usize, p: usize, k: usize, rng: &mut impl Rng) -> Vec<usize> {
    if p <= 1 {
        return Vec::new();
    }
    let k = k.min(p - 1);
    // `(slot, pe)` for each slot a swap has changed; only slots at or past
    // the cursor `i` are read again
    let mut moved: Vec<(usize, usize)> = Vec::new();
    let slot = |moved: &[(usize, usize)], i: usize| {
        moved
            .iter()
            .find(|&&(s, _)| s == i)
            .map_or(if i < thief { i } else { i + 1 }, |&(_, pe)| pe)
    };
    let mut out = Vec::with_capacity(k);
    for i in 0..k {
        let j = rng.random_range(i..p - 1);
        let (at_i, at_j) = (slot(&moved, i), slot(&moved, j));
        out.push(at_j);
        // slot `i` is final; slot `j > i` now holds what `i` held
        if j != i {
            match moved.iter_mut().find(|(s, _)| *s == j) {
                Some(entry) => entry.1 = at_i,
                None => moved.push((j, at_i)),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// The materialised-pool `random_victims`, body kept verbatim: the
    /// reference the virtual pool must match draw for draw.
    fn pool_random_victims(thief: usize, p: usize, k: usize, rng: &mut impl Rng) -> Vec<usize> {
        if p <= 1 {
            return Vec::new();
        }
        let k = k.min(p - 1);
        let mut pool: Vec<usize> = (0..p).filter(|&v| v != thief).collect();
        for i in 0..k {
            let j = rng.random_range(i..pool.len());
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }

    /// `round_victims` for `RandK` / `Hybrid` over the reference pool.
    fn pool_round_victims(
        policy: StealPolicyKind,
        thief: usize,
        mesh: &Mesh,
        rng: &mut StdRng,
    ) -> Vec<usize> {
        let p = mesh.len();
        match policy {
            StealPolicyKind::RandK(k) => pool_random_victims(thief, p, k, rng),
            StealPolicyKind::Hybrid(k) => {
                let mut v = mesh.neighbors(thief);
                v.extend(pool_random_victims(thief, p, k, rng));
                v.dedup();
                v
            }
            _ => unreachable!("only the random policies draw victims"),
        }
    }

    #[test]
    fn virtual_pool_draws_the_pool_shuffle_victims() {
        for p in [1usize, 2, 3, 16, 512, 2_048] {
            let mut thieves = vec![0, p / 2, p - 1];
            thieves.dedup();
            for thief in thieves {
                for k in [0, 1, 8, p - 1, p + 3] {
                    for seed in 0..4u64 {
                        let seed =
                            seed ^ ((p as u64) << 8) ^ ((thief as u64) << 24) ^ ((k as u64) << 40);
                        let mut got_rng = StdRng::seed_from_u64(seed);
                        let mut want_rng = StdRng::seed_from_u64(seed);
                        let got = random_victims(thief, p, k, &mut got_rng);
                        let want = pool_random_victims(thief, p, k, &mut want_rng);
                        assert_eq!(got, want, "p={p} thief={thief} k={k} seed={seed}");
                        assert_eq!(
                            got_rng.next_u64(),
                            want_rng.next_u64(),
                            "RNG state after the round: p={p} thief={thief} k={k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn random_rounds_match_the_pool_shuffle_over_a_seeded_sequence() {
        for p in [16usize, 512, 2_048] {
            let mesh = Mesh::new(p);
            for policy in [StealPolicyKind::RandK(8), StealPolicyKind::Hybrid(8)] {
                let mut got_rng = StdRng::seed_from_u64(p as u64);
                let mut want_rng = StdRng::seed_from_u64(p as u64);
                let mut thief_rng = StdRng::seed_from_u64(!(p as u64));
                for round in 0..500 {
                    let thief = thief_rng.random_range(0..p);
                    assert_eq!(
                        policy.round_victims(thief, &mesh, &mut got_rng),
                        pool_round_victims(policy, thief, &mesh, &mut want_rng),
                        "{policy:?} p={p} round {round} thief {thief}"
                    );
                }
                assert_eq!(got_rng.next_u64(), want_rng.next_u64());
            }
        }
    }

    /// Hybrid dedups only adjacent repeats (`round_victims_adaptive`'s doc
    /// comment): on a 4×4 mesh with k = 8 most rounds ask a neighbour
    /// twice, and this test pins that behaviour until a PR changes it
    /// together with the goldens.
    #[test]
    fn hybrid_round_can_ask_a_neighbour_twice() {
        let mesh = Mesh::new(16);
        let mut rng = StdRng::seed_from_u64(7);
        let thief = mesh.pe_at(1, 1);
        let neighbours = mesh.neighbors(thief);
        let rounds = 100;
        let mut with_repeat = 0;
        for _ in 0..rounds {
            let v = StealPolicyKind::Hybrid(8).round_victims(thief, &mesh, &mut rng);
            assert_eq!(&v[..neighbours.len()], &neighbours[..]);
            assert!(v.windows(2).all(|w| w[0] != w[1]), "adjacent repeats go");
            let repeated: Vec<usize> = v[neighbours.len()..]
                .iter()
                .copied()
                .filter(|pe| neighbours.contains(pe))
                .collect();
            if !repeated.is_empty() {
                with_repeat += 1;
            }
        }
        assert!(
            with_repeat > rounds / 2,
            "{with_repeat} of {rounds} rounds asked a neighbour twice"
        );
    }

    #[test]
    fn rand_k_distinct_and_not_self() {
        let mesh = Mesh::new(16);
        let mut rng = StdRng::seed_from_u64(1);
        let p = StealPolicyKind::RandK(8);
        for thief in 0..16 {
            let v = p.round_victims(thief, &mesh, &mut rng);
            assert_eq!(v.len(), 8);
            assert!(!v.contains(&thief));
            let mut sorted = v.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 8);
        }
    }

    #[test]
    fn rand_k_caps_at_p_minus_one() {
        let mesh = Mesh::new(4);
        let mut rng = StdRng::seed_from_u64(2);
        let v = StealPolicyKind::RandK(8).round_victims(0, &mesh, &mut rng);
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn diffusive_returns_mesh_neighbors() {
        let mesh = Mesh::new(16);
        let mut rng = StdRng::seed_from_u64(3);
        let v = StealPolicyKind::Diffusive.round_victims(5, &mesh, &mut rng);
        assert_eq!(v, mesh.neighbors(5));
    }

    #[test]
    fn hybrid_starts_with_neighbors() {
        let mesh = Mesh::new(16);
        let mut rng = StdRng::seed_from_u64(4);
        let v = StealPolicyKind::Hybrid(4).round_victims(5, &mesh, &mut rng);
        let n = mesh.neighbors(5);
        assert_eq!(&v[..n.len()], &n[..]);
        assert!(v.len() > n.len());
    }

    #[test]
    fn single_pe_cannot_steal() {
        let mesh = Mesh::new(1);
        let mut rng = StdRng::seed_from_u64(5);
        assert!(StealPolicyKind::rand8()
            .round_victims(0, &mesh, &mut rng)
            .is_empty());
        assert!(StealPolicyKind::Diffusive
            .round_victims(0, &mesh, &mut rng)
            .is_empty());
    }

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(StealPolicyKind::rand8().label(), "Rand-8 WS");
        assert_eq!(StealPolicyKind::Diffusive.label(), "Diff WS");
        assert_eq!(StealPolicyKind::DiffusiveAdaptive.label(), "Diff-CA WS");
        assert_eq!(StealPolicyKind::Hybrid(8).label(), "Hybrid WS");
    }

    #[test]
    fn adaptive_diffusive_widens_with_fail_streak() {
        let mesh = Mesh::new(16); // 4x4
        let mut rng = StdRng::seed_from_u64(6);
        let p = StealPolicyKind::DiffusiveAdaptive;
        let thief = mesh.pe_at(1, 1);
        // streak 0: same victim *set* as plain diffusive (ring ordering)
        let mut v0 = p.round_victims_adaptive(thief, &mesh, &mut rng, 0);
        let mut n = mesh.neighbors(thief);
        v0.sort_unstable();
        n.sort_unstable();
        assert_eq!(v0, n);
        // round_victims delegates with streak 0
        let mut v = p.round_victims(thief, &mesh, &mut rng);
        v.sort_unstable();
        assert_eq!(v, v0);
        // each failed round reaches further, capped at the diameter
        let r1 = p.round_victims_adaptive(thief, &mesh, &mut rng, 0).len();
        let r2 = p.round_victims_adaptive(thief, &mesh, &mut rng, 1).len();
        let rmax = p.round_victims_adaptive(thief, &mesh, &mut rng, 99).len();
        assert!(r2 > r1);
        assert_eq!(rmax, 15, "diameter-radius ring covers the whole mesh");
        // single-PE mesh still cannot steal
        let lone = Mesh::new(1);
        assert!(p.round_victims_adaptive(0, &lone, &mut rng, 5).is_empty());
    }
}
