//! Restart portfolios: K independently-seeded planner instances race on
//! the runtime, losers are cancelled on first success.
//!
//! The first layer where the runtime schedules *competing* work rather
//! than a fixed task DAG. A portfolio runs rounds under a
//! [`RestartSchedule`]: each round launches `members` attempts (one task
//! per member) on the execution backend; the moment one attempt solves
//! the query it fires the round's [`CancelToken`], the cancellation fans
//! out to every worker ("finish your in-flight task, then stop"), and
//! the round's wasted work is accounted in a [`PortfolioLedger`]. If no
//! member solves within the round's cutoff, every member restarts with a
//! fresh seed and the next round's budget.
//!
//! **Determinism contract.** The attempt function must be *pure*: its
//! result may depend only on `(member, round, budget)` — never on wall
//! time, worker identity, or which other attempts were cancelled. The
//! engine then guarantees that the **winner**, its **payload**, and the
//! whole [`PortfolioLedger`] are byte-identical across backends (DES ==
//! live), thread counts, and fault plans: after a round fires, the
//! engine *settles* the round by scanning members in id order and
//! re-running (pure, cheap relative to a full round) any attempt whose
//! result the cancellation discarded, so the winner is always the
//! lowest-id solving member of the earliest solving round — regardless
//! of which attempt physically finished first. Run-dependent facts
//! (round makespans, how many losers completed before the cancel
//! reached them) live in [`RoundReport`] and the `portfolio.*` metrics,
//! not in the ledger.

use crate::cost::work_cost;
use crate::restart::RestartSchedule;
use crate::strategy::Strategy;
use parking_lot::Mutex;
use smp_cspace::{derive_seed, region_rng, Cfg};
use smp_cspace::{BoxSampler, EnvValidity, StraightLinePlanner};
use smp_geom::Environment;
use smp_obs::{MetricsRegistry, MetricsSnapshot};
use smp_plan::{
    build_prm, grow_rrt_until_target, rrt_connect, solve_query, PrmParams, Roadmap,
    RrtConnectParams, RrtParams,
};
use smp_runtime::executor::round_robin;
use smp_runtime::{
    simulate_phase, Backend, CancelToken, ExecError, ExecSpec, FaultPlan, LiveExecutor, LiveTuning,
    MachineModel, StealConfig,
};

/// Seed-derivation stream tags (arbitrary, fixed forever).
const STREAM_ROUND: u64 = 0x7061;
const STREAM_ATTEMPT: u64 = 0x7062;

/// The outcome of one portfolio attempt: did it solve the query, how much
/// virtual work did it charge, and what artifact did it build.
#[derive(Debug, Clone)]
pub struct Attempt<T> {
    /// Did this attempt solve the query within its budget?
    pub solved: bool,
    /// Virtual cost of the attempt (measured work × machine op costs) —
    /// the unit the wasted-work ledger is denominated in.
    pub vcost: u64,
    /// The artifact the attempt built (tree / roadmap / path).
    pub payload: T,
}

/// Everything the engine needs to run a portfolio, minus the attempt
/// function and the backend.
#[derive(Debug, Clone)]
pub struct PortfolioSpec<'a> {
    /// Number of competing planner instances per round (K).
    pub members: usize,
    /// Worker threads (live) / virtual PEs (DES) the round runs on.
    pub workers: usize,
    /// Restart schedule mapping round → per-attempt budget.
    pub schedule: RestartSchedule,
    /// Round cap for capped schedules (uncapped schedules run exactly 1).
    pub max_rounds: usize,
    /// Virtual machine for DES replay of each round's executed prefix.
    pub machine: &'a MachineModel,
    /// `None` = static member→worker assignment; `Some` enables stealing.
    pub steal: Option<StealConfig>,
    /// Portfolio seed; all round/member seeds derive from it.
    pub seed: u64,
    /// Optional fault injection for the live backend (ignored by DES).
    pub faults: Option<FaultPlan>,
}

/// Run-dependent facts about one executed round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundReport {
    /// Round index (0-based).
    pub round: usize,
    /// Per-attempt budget this round (`None` = uncapped).
    pub budget: Option<u64>,
    /// Round makespan in the backend's native time unit (virtual ns on
    /// DES, wall-clock ns live) — deterministic on DES only.
    pub makespan: u64,
    /// Attempts that physically completed on the backend.
    pub attempts_completed: u64,
    /// Value of `attempts_completed` at the instant the cancel fired
    /// (0 for rounds that never fired).
    pub completed_at_fire: u64,
    /// Attempts re-run during deterministic settlement.
    pub settled: u64,
    /// Did some attempt solve the query this round?
    pub fired: bool,
}

impl RoundReport {
    /// Attempts that completed *after* the cancel fired — the overshoot
    /// the cancellation fan-out could not prevent. The smp-check oracle
    /// bounds this by one in-flight task per worker.
    pub fn post_fire_completions(&self) -> u64 {
        if self.fired {
            self.attempts_completed - self.completed_at_fire
        } else {
            0
        }
    }
}

/// The deterministic wasted-work accounting of a portfolio run. Every
/// field is a pure function of the spec + attempt function, so the whole
/// ledger (and [`PortfolioLedger::digest`]) is byte-identical across
/// backends, thread counts, and fault plans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortfolioLedger {
    /// Portfolio size K.
    pub members: u64,
    /// Rounds actually run (winning round inclusive).
    pub rounds_run: u64,
    /// `(member, round)` of the deterministic winner, if any.
    pub winner: Option<(u64, u64)>,
    /// Virtual cost of the winning attempt (0 if no winner).
    pub winner_vcost: u64,
    /// Attempts launched: `members × rounds_run`.
    pub attempts_launched: u64,
    /// Attempts the deterministic settle order had to pay for: every
    /// attempt of the losing rounds plus the winning round's prefix up
    /// to and including the winner (= `attempts_launched` if no winner).
    pub attempts_required: u64,
    /// Attempts after the winner in settle order — the work first-success
    /// cancellation provably avoided.
    pub attempts_avoided: u64,
    /// Total virtual cost of the required attempts minus the winner's —
    /// the portfolio's wasted work, in the same unit as `winner_vcost`.
    pub wasted_vcost: u64,
}

impl PortfolioLedger {
    /// The ledger's conservation law: every launched attempt is either
    /// required or avoided. Violations indicate an engine bug.
    pub fn closes(&self) -> bool {
        self.attempts_required + self.attempts_avoided == self.attempts_launched
            && self.attempts_launched == self.members * self.rounds_run
    }

    /// FNV-1a digest over every field — the byte-identity gate the
    /// differential tests and `tests/kernel_gates.rs` pin.
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        mix(self.members);
        mix(self.rounds_run);
        match self.winner {
            Some((m, r)) => {
                mix(1);
                mix(m);
                mix(r);
            }
            None => mix(0),
        }
        mix(self.winner_vcost);
        mix(self.attempts_launched);
        mix(self.attempts_required);
        mix(self.attempts_avoided);
        mix(self.wasted_vcost);
        h
    }
}

/// Winner, ledger, and per-round reports of one portfolio run.
#[derive(Debug, Clone)]
pub struct PortfolioOutcome<T> {
    /// The winning attempt's payload (`None` if every round exhausted its
    /// budget unsolved).
    pub winner: Option<T>,
    /// Deterministic wasted-work accounting.
    pub ledger: PortfolioLedger,
    /// Per-round run-dependent facts, in round order.
    pub rounds: Vec<RoundReport>,
    /// Sum of round makespans, backend-native time unit.
    pub total_time: u64,
    /// `portfolio.*` metrics snapshot.
    pub metrics: MetricsSnapshot,
}

/// Per-round shared state the attempt closures update: completion count
/// and the first-success fire point.
#[derive(Default)]
struct RoundState {
    completed: u64,
    fired: bool,
    completed_at_fire: u64,
}

/// Run a portfolio of pure attempts on `backend`.
///
/// `attempt(member, round, budget)` must be pure in its arguments (see
/// the module docs); the engine calls it from worker threads during a
/// round and from the calling thread during settlement.
pub fn run_portfolio_on<T, F>(
    spec: &PortfolioSpec<'_>,
    backend: Backend,
    attempt: F,
) -> Result<PortfolioOutcome<T>, ExecError>
where
    T: Send,
    F: Fn(usize, usize, Option<u64>) -> Attempt<T> + Sync,
{
    let k = spec.members.max(1);
    let p = spec.workers.max(1);
    let assignment = round_robin(k, p);
    let n_rounds = spec.schedule.max_rounds(spec.max_rounds);
    // Portfolio attempts are closures producing arbitrary `T` — they
    // cannot cross a process boundary, so `Backend::Dist` runs its rounds
    // on the in-process live engine with default tuning. Deterministic
    // settlement makes the winner and ledger identical either way; only
    // wall-clock timings differ from a true multi-process round.
    let live_tuning = match backend {
        Backend::Des => None,
        Backend::Live(tuning) => Some(tuning),
        Backend::Dist(_) => Some(LiveTuning::default()),
    };

    let mut rounds: Vec<RoundReport> = Vec::new();
    let mut winner: Option<(usize, usize)> = None; // (member, round)
    let mut winner_payload: Option<T> = None;
    let mut winner_vcost = 0u64;
    let mut wasted_vcost = 0u64;
    let mut attempts_required = 0u64;
    let mut total_time = 0u64;
    let mut total_completed = 0u64;
    let mut total_settled = 0u64;
    let mut post_fire = 0u64;

    for round in 0..n_rounds {
        let budget = spec.schedule.cutoff(round);
        let round_seed = derive_seed(spec.seed, round as u64, STREAM_ROUND);
        let token = CancelToken::new();
        let state: Mutex<RoundState> = Mutex::new(RoundState::default());
        let work = |m: u32| {
            let a = attempt(m as usize, round, budget);
            let mut st = state.lock();
            st.completed += 1;
            if a.solved && !st.fired {
                st.fired = true;
                st.completed_at_fire = st.completed;
                token.cancel();
            }
            a
        };

        // Run the round on the chosen backend. Either way `slots[m]` is
        // `Some(attempt)` for every attempt that physically ran, and the
        // makespan is in the backend's native time.
        let exec_spec = ExecSpec {
            n_tasks: k,
            costs: None,
            payloads: None,
            assignment: &assignment,
            steal: spec.steal,
            seed: round_seed,
        };
        let out = match live_tuning {
            // The DES cancels at the member boundary, so the executed set
            // is the member-id prefix up to the first success, and the
            // round's virtual makespan replays those attempts' vcosts.
            None => simulate_phase(&exec_spec, spec.machine, Some(&token), |m| {
                let a = work(m);
                let vcost = a.vcost;
                (a, vcost)
            })?,
            Some(tuning) => {
                let mut ex = LiveExecutor::new(p, tuning).with_cancel(token.clone());
                if let Some(f) = &spec.faults {
                    ex = ex.with_faults(f.clone());
                }
                ex.execute_resilient(&exec_spec, &work)?
            }
        };
        let (mut slots, makespan) = (out.results, out.report.makespan);

        let st = state.into_inner();
        total_time += makespan;
        total_completed += st.completed;

        let mut settled = 0u64;
        if st.fired {
            // Deterministic settlement: the winner is the lowest-id
            // solving member, whether or not the backend ran it before
            // the cancel. Re-run (pure) any discarded attempt in the scan
            // prefix.
            for (m, slot) in slots.iter_mut().enumerate() {
                if slot.is_none() {
                    *slot = Some(attempt(m, round, budget));
                    settled += 1;
                }
                let a = slot.as_ref().map(|a| (a.solved, a.vcost));
                match a {
                    Some((true, vc)) => {
                        winner = Some((m, round));
                        winner_vcost = vc;
                        winner_payload = slot.take().map(|a| a.payload);
                        attempts_required += m as u64 + 1;
                        break;
                    }
                    Some((false, vc)) => wasted_vcost += vc,
                    None => unreachable!("slot settled above"),
                }
            }
            debug_assert!(winner.is_some(), "a fired round always settles a winner");
        } else {
            // Unsolved round: every attempt ran to its cutoff; all wasted.
            for (m, slot) in slots.iter_mut().enumerate() {
                // A backend stop without a fire (e.g. all-workers-dead
                // fault plans return Err above) cannot leave holes, but
                // settle defensively rather than panic.
                if slot.is_none() {
                    *slot = Some(attempt(m, round, budget));
                    settled += 1;
                }
                wasted_vcost += slot.as_ref().expect("just settled").vcost;
            }
            attempts_required += k as u64;
        }
        total_settled += settled;

        rounds.push(RoundReport {
            round,
            budget,
            makespan,
            attempts_completed: st.completed,
            completed_at_fire: st.completed_at_fire,
            settled,
            fired: st.fired,
        });
        post_fire += rounds[rounds.len() - 1].post_fire_completions();

        if winner.is_some() {
            break;
        }
    }

    let rounds_run = rounds.len() as u64;
    let ledger = PortfolioLedger {
        members: k as u64,
        rounds_run,
        winner: winner.map(|(m, r)| (m as u64, r as u64)),
        winner_vcost,
        attempts_launched: k as u64 * rounds_run,
        attempts_required,
        attempts_avoided: k as u64 * rounds_run - attempts_required,
        wasted_vcost,
    };
    debug_assert!(ledger.closes(), "portfolio ledger must close");

    let mut reg = MetricsRegistry::new();
    reg.set_gauge("portfolio.members", k as u64);
    reg.set_gauge("portfolio.workers", p as u64);
    reg.set_gauge("portfolio.rounds", rounds_run);
    if let Some((m, r)) = ledger.winner {
        reg.set_gauge("portfolio.winner.member", m);
        reg.set_gauge("portfolio.winner.round", r);
    }
    reg.set_gauge("portfolio.winner_vcost", ledger.winner_vcost);
    reg.set_gauge("portfolio.wasted_vcost", ledger.wasted_vcost);
    reg.set_gauge("portfolio.time.total", total_time);
    reg.inc("portfolio.attempts.launched", ledger.attempts_launched);
    reg.inc("portfolio.attempts.required", ledger.attempts_required);
    reg.inc("portfolio.attempts.avoided", ledger.attempts_avoided);
    // Run-dependent (live): physical completions, settle re-runs, and
    // post-fire overshoot. Excluded from the byte-identity gate.
    reg.inc("portfolio.attempts.completed", total_completed);
    reg.inc("portfolio.attempts.settled", total_settled);
    reg.inc("portfolio.cancel.post_fire_completions", post_fire);

    Ok(PortfolioOutcome {
        winner: winner_payload,
        ledger,
        rounds,
        total_time,
        metrics: reg.snapshot(),
    })
}

/// Which planner a portfolio member runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannerKind {
    /// Goal-biased single-tree RRT.
    Rrt,
    /// Bidirectional RRT-Connect.
    RrtConnect,
    /// PRM build + query (the fallback for multi-query reuse).
    Prm,
}

/// Parameters of a single-query restart-portfolio experiment.
#[derive(Debug, Clone)]
pub struct RrtPortfolioConfig<'e, const D: usize> {
    /// Environment to plan in.
    pub env: &'e Environment<D>,
    /// Start configuration.
    pub start: Cfg<D>,
    /// Goal configuration.
    pub goal: Cfg<D>,
    /// Portfolio size K.
    pub members: usize,
    /// Planner of member `m` is `planners[m % planners.len()]`.
    pub planners: Vec<PlannerKind>,
    /// Restart schedule (cutoffs in planner iterations).
    pub schedule: RestartSchedule,
    /// Round cap for capped schedules.
    pub max_rounds: usize,
    /// Per-attempt iteration budget when the schedule is uncapped.
    pub base_iters: usize,
    /// Maximum extension step per RRT iteration.
    pub step_size: f64,
    /// Probability of sampling the goal (RRT).
    pub target_bias: f64,
    /// Local-planner resolution.
    pub lp_resolution: f64,
    /// Ball-robot radius.
    pub robot_radius: f64,
    /// k-nearest connection degree for PRM members.
    pub prm_k_neighbors: usize,
    /// Portfolio seed; every attempt seed derives from it.
    pub seed: u64,
}

impl<'e, const D: usize> RrtPortfolioConfig<'e, D> {
    /// Reasonable defaults for a `start -> goal` query on `env`.
    pub fn new(env: &'e Environment<D>, start: Cfg<D>, goal: Cfg<D>) -> Self {
        RrtPortfolioConfig {
            env,
            start,
            goal,
            members: 4,
            planners: vec![PlannerKind::Rrt],
            schedule: RestartSchedule::Luby(200),
            max_rounds: 16,
            base_iters: 4_000,
            step_size: 0.05,
            target_bias: 0.1,
            lp_resolution: 0.02,
            robot_radius: 0.0,
            prm_k_neighbors: 6,
            seed: 7,
        }
    }
}

/// One pure portfolio attempt for `cfg`: plan `start -> goal` with member
/// `m`'s planner under `budget` iterations, seeded by `(seed, round,
/// member)` only.
fn rrt_attempt<const D: usize>(
    cfg: &RrtPortfolioConfig<'_, D>,
    machine: &MachineModel,
    m: usize,
    round: usize,
    budget: Option<u64>,
) -> Attempt<Roadmap<D>> {
    let iters = budget
        .unwrap_or(cfg.base_iters as u64)
        .min(usize::MAX as u64) as usize;
    let mut rng = region_rng(
        derive_seed(cfg.seed, round as u64, STREAM_ROUND),
        m as u32,
        STREAM_ATTEMPT,
    );
    let sampler = BoxSampler::new(*cfg.env.bounds());
    let validity = EnvValidity::new(cfg.env, cfg.robot_radius);
    let lp = StraightLinePlanner::new(cfg.lp_resolution);
    match cfg.planners[m % cfg.planners.len()] {
        PlannerKind::Rrt => {
            let res = grow_rrt_until_target(
                cfg.start,
                cfg.goal,
                &sampler,
                &validity,
                &lp,
                &RrtParams {
                    num_nodes: iters,
                    step_size: cfg.step_size,
                    target_bias: cfg.target_bias,
                    max_iters: iters,
                    stall_limit: usize::MAX,
                },
                &mut rng,
            );
            Attempt {
                solved: res.reached_target,
                vcost: work_cost(&res.work, &machine.ops),
                payload: res.tree,
            }
        }
        PlannerKind::RrtConnect => {
            let res = rrt_connect(
                cfg.start,
                cfg.goal,
                &sampler,
                &validity,
                &lp,
                &RrtConnectParams {
                    step_size: cfg.step_size,
                    max_iters: iters,
                },
                &mut rng,
            );
            let solved = res.path.is_some();
            let payload = match &res.path {
                Some(path) => {
                    // Chain the connecting path into a roadmap so the
                    // winner artifact digests like every other payload.
                    let mut rm: Roadmap<D> = Roadmap::new();
                    let mut prev = None;
                    for &q in path {
                        let v = rm.add_vertex(q);
                        if let Some(pv) = prev {
                            let d = rm.vertex(pv).dist(&q);
                            rm.add_edge(pv, v, d);
                        }
                        prev = Some(v);
                    }
                    rm
                }
                None => res.start_tree,
            };
            Attempt {
                solved,
                vcost: work_cost(&res.work, &machine.ops),
                payload,
            }
        }
        PlannerKind::Prm => {
            let mut res = build_prm(
                &sampler,
                &validity,
                &lp,
                &PrmParams {
                    num_samples: (iters / 8).max(16),
                    k_neighbors: cfg.prm_k_neighbors,
                    ..Default::default()
                },
                &mut rng,
            );
            let solved = solve_query(
                &res.roadmap,
                cfg.start,
                cfg.goal,
                &validity,
                &lp,
                cfg.prm_k_neighbors,
                &mut res.work,
            )
            .is_ok();
            Attempt {
                solved,
                vcost: work_cost(&res.work, &machine.ops),
                payload: res.roadmap,
            }
        }
    }
}

/// Run a single-query restart portfolio on either backend.
///
/// `strategy` maps to the round's steal configuration:
/// [`Strategy::WorkStealing`] enables stealing with its config; the
/// bulk-synchronous [`Strategy::Repartition`] has no meaning inside one
/// round of identical single-task members, so it (like
/// [`Strategy::NoLb`]) falls back to the static member→worker
/// assignment. `faults` are injected into every live round (the DES
/// ignores them) — the differential suite uses this to show the ledger
/// survives faults.
pub fn run_portfolio_rrt_on<const D: usize>(
    cfg: &RrtPortfolioConfig<'_, D>,
    machine: &MachineModel,
    workers: usize,
    strategy: Strategy,
    backend: Backend,
    faults: Option<FaultPlan>,
) -> Result<PortfolioOutcome<Roadmap<D>>, ExecError> {
    let steal = match strategy {
        Strategy::WorkStealing(sc) => Some(sc),
        Strategy::NoLb | Strategy::Repartition(_) | Strategy::RectPartition(_) => None,
    };
    let spec = PortfolioSpec {
        members: cfg.members,
        workers,
        schedule: cfg.schedule,
        max_rounds: cfg.max_rounds,
        machine,
        steal,
        seed: cfg.seed,
        faults,
    };
    run_portfolio_on(&spec, backend, |m, r, b| rrt_attempt(cfg, machine, m, r, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use smp_geom::envs;
    use smp_geom::Point;
    use smp_runtime::LiveTuning;

    /// Synthetic pure attempt: member `m` in round `r` "solves" iff a
    /// splitmix-style hash of (seed, m, r) clears a threshold scaled by
    /// the budget — deterministic, instant, heavy-tail-ish.
    fn synth(seed: u64) -> impl Fn(usize, usize, Option<u64>) -> Attempt<u64> + Sync {
        move |m, r, budget| {
            let mut x = seed
                ^ (m as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ (r as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x ^= x >> 30;
            x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x ^= x >> 27;
            x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^= x >> 31;
            let b = budget.unwrap_or(1 << 20);
            let solved = x % (1 << 20) < b.saturating_mul(8);
            Attempt {
                solved,
                vcost: 1_000 + x % 5_000,
                payload: x,
            }
        }
    }

    fn spec(machine: &MachineModel) -> PortfolioSpec<'_> {
        PortfolioSpec {
            members: 5,
            workers: 2,
            schedule: RestartSchedule::Luby(64),
            max_rounds: 64,
            machine,
            steal: None,
            seed: 11,
            faults: None,
        }
    }

    #[test]
    fn des_and_live_settle_the_same_winner_and_ledger() {
        let machine = MachineModel::hopper();
        let s = spec(&machine);
        let des = run_portfolio_on(&s, Backend::Des, synth(3)).expect("des");
        let live =
            run_portfolio_on(&s, Backend::Live(LiveTuning::default()), synth(3)).expect("live");
        assert_eq!(des.ledger, live.ledger);
        assert_eq!(des.ledger.digest(), live.ledger.digest());
        assert_eq!(des.winner, live.winner);
        assert!(des.ledger.closes());
    }

    #[test]
    fn ledger_closes_with_and_without_a_winner() {
        let machine = MachineModel::hopper();
        let mut s = spec(&machine);
        let won = run_portfolio_on(&s, Backend::Des, synth(3)).expect("des");
        assert!(won.ledger.winner.is_some());
        assert!(won.ledger.closes());
        assert!(won.winner.is_some());
        // An impossible attempt: no round ever fires.
        s.max_rounds = 3;
        let lost = run_portfolio_on(&s, Backend::Des, |m, r, b| {
            let a = synth(3)(m, r, b);
            Attempt { solved: false, ..a }
        })
        .expect("des");
        assert_eq!(lost.ledger.winner, None);
        assert!(lost.winner.is_none());
        assert_eq!(lost.ledger.rounds_run, 3);
        assert_eq!(lost.ledger.attempts_required, 15);
        assert_eq!(lost.ledger.attempts_avoided, 0);
        assert!(lost.ledger.closes());
    }

    #[test]
    fn uncapped_schedule_runs_one_round() {
        let machine = MachineModel::hopper();
        let mut s = spec(&machine);
        s.schedule = RestartSchedule::None;
        let out = run_portfolio_on(&s, Backend::Des, synth(9)).expect("des");
        assert_eq!(out.ledger.rounds_run, 1);
        assert_eq!(out.rounds.len(), 1);
        assert_eq!(out.rounds[0].budget, None);
    }

    #[test]
    fn des_post_fire_completions_are_zero() {
        let machine = MachineModel::hopper();
        let s = spec(&machine);
        let out = run_portfolio_on(&s, Backend::Des, synth(3)).expect("des");
        for r in &out.rounds {
            assert_eq!(r.post_fire_completions(), 0);
        }
    }

    #[test]
    fn portfolio_metrics_expose_the_ledger() {
        let machine = MachineModel::hopper();
        let s = spec(&machine);
        let out = run_portfolio_on(&s, Backend::Des, synth(3)).expect("des");
        let m = &out.metrics;
        assert_eq!(m.get("portfolio.members"), Some(5));
        assert_eq!(
            m.get("portfolio.attempts.launched"),
            Some(out.ledger.attempts_launched)
        );
        assert_eq!(
            m.get("portfolio.attempts.required"),
            Some(out.ledger.attempts_required)
        );
        assert_eq!(
            m.get("portfolio.wasted_vcost"),
            Some(out.ledger.wasted_vcost)
        );
    }

    #[test]
    fn rrt_portfolio_solves_an_easy_env_on_both_backends() {
        let env = envs::free_env();
        let cfg = RrtPortfolioConfig {
            members: 3,
            schedule: RestartSchedule::Fixed(400),
            max_rounds: 8,
            seed: 5,
            ..RrtPortfolioConfig::new(&env, Point::splat(0.1), Point::splat(0.9))
        };
        let machine = MachineModel::hopper();
        let des = run_portfolio_rrt_on(&cfg, &machine, 2, Strategy::NoLb, Backend::Des, None)
            .expect("des");
        let live = run_portfolio_rrt_on(
            &cfg,
            &machine,
            2,
            Strategy::NoLb,
            Backend::Live(LiveTuning::default()),
            None,
        )
        .expect("live");
        assert!(des.ledger.winner.is_some());
        assert_eq!(des.ledger, live.ledger);
        let d = crate::assemble::roadmap_digest(des.winner.as_ref().expect("winner"));
        let l = crate::assemble::roadmap_digest(live.winner.as_ref().expect("winner"));
        assert_eq!(d, l);
    }

    #[test]
    fn planner_kinds_cycle_across_members() {
        let env = envs::free_env();
        let cfg = RrtPortfolioConfig {
            members: 3,
            planners: vec![PlannerKind::Rrt, PlannerKind::RrtConnect, PlannerKind::Prm],
            schedule: RestartSchedule::Fixed(600),
            max_rounds: 4,
            seed: 2,
            ..RrtPortfolioConfig::new(&env, Point::splat(0.1), Point::splat(0.9))
        };
        let machine = MachineModel::hopper();
        let out = run_portfolio_rrt_on(&cfg, &machine, 3, Strategy::NoLb, Backend::Des, None)
            .expect("des");
        assert!(out.ledger.winner.is_some());
        assert!(out.ledger.closes());
    }
}
