//! The coordinator's protocol for one phase, as a state machine without I/O.
//!
//! [`PhaseState`] owns every decision the coordinator makes in a phase:
//! task ownership (each task is pending at one worker, or in transfer,
//! until its result is recorded), exactly-once recording of at-least-once
//! deliveries, steal brokering, retransmitted transfers, crash recovery and
//! the ledger counters. It holds no stream, child process or clock read:
//! each protocol step is one handler taking the instant it happens at and
//! queueing its replies on [`PhaseState::effects`] for the driver
//! ([`super::coordinator`]) to write in order. PROTOCOL.md §10 maps each
//! TLA+ action of `specs/tla/StealProtocol.tla` to its handler here.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use super::coordinator::WorkDesc;
use super::fault::FaultCoin;
use super::msg::Msg;
use super::worker::ASSIGN_RETRANSMIT_BASE;
use crate::executor::{ExecError, ExecSpec, RunStatus};
use crate::fault::FaultPlan;
use crate::live::ResilientOutcome;
use crate::sim::{ResilienceStats, SimReport, StealAmount, StealConfig};
use crate::topology::Mesh;
use smp_obs::MetricsRegistry;

/// Owner sentinel: the task is in transfer, owned by the coordinator.
const IN_TRANSFER: u32 = u32::MAX;

/// What a handler asks the driver to do, in order.
#[derive(Debug)]
pub(crate) enum Effect {
    /// Write the message to this worker (if it still has a connection).
    Send(usize, Msg),
    /// Start a replacement process for `worker` at `epoch`.
    Respawn { worker: usize, epoch: u32 },
}

/// What the executor fixes about a worker slot before the phase starts.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SlotPlan {
    /// The slot's current respawn epoch.
    pub(crate) epoch: u32,
    /// Injected kill armed for this phase: the worker exits after
    /// executing this many tasks (`Crash::after_tasks` + 1).
    pub(crate) kill_after: Option<u64>,
    /// Replace the slot's process when it dies instead of redistributing.
    pub(crate) respawn: bool,
}

/// A thief's one in-flight steal ask.
struct Ask {
    req: u64,
    victim: usize,
    /// The policy round's remaining candidates, tried in order on `Deny`.
    fallbacks: Vec<usize>,
}

/// An ownership transfer awaiting its `AssignAck`.
struct Xfer {
    dest: usize,
    tasks: Vec<u32>,
    next: Instant,
    backoff: Duration,
}

/// What the coordinator knows about one worker slot.
#[derive(Default)]
struct Slot {
    plan: SlotPlan,
    alive: bool,
    /// Queue length estimate: victim choice and redistribution target.
    queue_est: i64,
    /// Results recorded from this slot.
    credited: u32,
    /// Executions its current process reported (`Done.executed`).
    claimed: u64,
    /// Busy / send nanoseconds of the current process, and of dead ones.
    busy_live: u64,
    busy_committed: u64,
    comm_live: u64,
    comm_committed: u64,
    /// Phase-relative arrival of its last recorded result.
    finish_ns: u64,
    /// Consecutive steal rounds that found no work (adaptive policies).
    fail_streak: u32,
    dead_at: Option<Instant>,
    dead_ns: u64,
    /// Orphans waiting for this slot's replacement process.
    pending_init: Option<Vec<u32>>,
    /// This slot's in-flight steal ask, as thief.
    ask: Option<Ask>,
}

/// Counters the phase report and the `dist.*` metrics are built from.
#[derive(Debug, Default)]
struct Ledger {
    received: u64,
    steal_attempts: u64,
    steal_hits: u64,
    steal_misses: u64,
    steal_unresolved: u64,
    orphan_grants: u64,
    transferred: u64,
    retransmissions: u64,
    assigns_withheld: u64,
    recovered: u64,
    reexecuted: u64,
    done_frames: u64,
    done_results: u64,
    done_dup: u64,
    done_dropped: u64,
    stale_done: u64,
    acks_sent: u64,
    acks_dropped: u64,
    needwork_seen: u64,
}

/// One phase of the coordinator's protocol (see the module docs).
pub(crate) struct PhaseState<'a> {
    phase: u32,
    n: usize,
    work: WorkDesc<'a>,
    steal: Option<StealConfig>,
    mesh: Mesh,
    rng: StdRng,
    done_coin: FaultCoin,
    ack_coin: FaultCoin,
    assign_coin: FaultCoin,
    t_start: Instant,
    /// The kickoff queues (`ExecSpec::assignment`).
    assignment: &'a [Vec<u32>],
    owner: Vec<u32>,
    /// Recorded results; `Some` marks a task done.
    results: Vec<Option<Vec<u8>>>,
    executed_by: Vec<u32>,
    pub(crate) done_count: usize,
    slots: Vec<Slot>,
    deaths: Vec<usize>,
    xfers: BTreeMap<u64, Xfer>,
    next_xfer: u64,
    ledger: Ledger,
    /// Replies and respawns queued by the handlers, oldest first.
    pub(crate) effects: Vec<Effect>,
}

impl<'a> PhaseState<'a> {
    /// Phase `phase`, started at `now` with every slot alive; `kickoff`
    /// then hands each worker its queue (`spec.assignment`, validated).
    pub(crate) fn new(
        phase: u32,
        spec: &ExecSpec<'a>,
        work: WorkDesc<'a>,
        plans: Vec<SlotPlan>,
        faults: &FaultPlan,
        now: Instant,
    ) -> Self {
        let (n, p) = (spec.n_tasks, plans.len());
        let slots = plans
            .into_iter()
            .map(|plan| Slot {
                plan,
                alive: true,
                ..Slot::default()
            })
            .collect();
        PhaseState {
            phase,
            n,
            work,
            steal: spec.steal,
            mesh: Mesh::new(p.max(1)),
            rng: StdRng::seed_from_u64(spec.seed),
            // Independent deterministic streams, one per fault family.
            done_coin: FaultCoin::new(faults.seed, 1, faults.msg_loss),
            ack_coin: FaultCoin::new(faults.seed, 2, faults.msg_loss),
            assign_coin: FaultCoin::new(faults.seed, 3, faults.msg_jitter),
            t_start: now,
            assignment: spec.assignment,
            owner: vec![0; n],
            results: vec![None; n],
            executed_by: vec![0; n],
            done_count: 0,
            slots,
            deaths: Vec::new(),
            xfers: BTreeMap::new(),
            next_xfer: 1,
            ledger: Ledger::default(),
            effects: Vec::new(),
        }
    }

    /// TLA+ `AssignInitial`: send worker `w` its kickoff queue.
    pub(crate) fn kickoff(&mut self, w: usize) {
        let (tasks, kill_after) = (self.assignment[w].clone(), self.slots[w].plan.kill_after);
        self.init(w, tasks, kill_after);
    }

    /// Hand worker `w` the queue `tasks`: ownership lands there and an
    /// `Init` carries the work descriptor.
    fn init(&mut self, w: usize, tasks: Vec<u32>, kill_after: Option<u64>) {
        self.slots[w].queue_est = tasks.len() as i64;
        for &t in &tasks {
            self.owner[t as usize] = w as u32;
        }
        let msg = Msg::Init {
            phase: self.phase,
            kind: self.work.kind.to_string(),
            blob: self.work.blob.to_vec(),
            tasks,
            amount: self.steal.map_or(StealAmount::Half, |c| c.amount),
            kill_after,
        };
        self.effects.push(Effect::Send(w, msg));
    }

    /// One frame from a worker; `from` is the slot its connection is bound
    /// to (for `Hello`: the slot it just bound), if any.
    pub(crate) fn on_msg(
        &mut self,
        from: Option<usize>,
        msg: Msg,
        now: Instant,
    ) -> Result<(), ExecError> {
        self.ledger.received += 1;
        match (msg, from) {
            (Msg::Hello { .. }, Some(w)) => self.hello(w, now),
            (
                Msg::Done {
                    phase,
                    seq,
                    executed,
                    busy_ns,
                    comm_ns,
                    results,
                },
                Some(w),
            ) => self.done(w, phase, seq, [executed, busy_ns, comm_ns], results, now),
            (Msg::NeedWork { phase, worker }, _) => self.need_work(from, phase, worker),
            // Steal and transfer answers from another phase are moot.
            (Msg::Grant { phase, req, tasks }, _) if phase == self.phase => {
                self.grant(from, req, tasks, now)
            }
            (Msg::Deny { phase, req }, _) if phase == self.phase => self.deny(req),
            (Msg::AssignAck { phase, xfer }, _) if phase == self.phase => self.assign_ack(xfer),
            (Msg::Fatal { worker, message }, _) => {
                return Err(ExecError::WorkerPanic {
                    workers: vec![worker as usize],
                    message,
                    missing: self.n - self.done_count,
                })
            }
            // Unbound senders, stale answers, coordinator-only messages.
            _ => {}
        }
        Ok(())
    }

    /// TLA+ `WorkerJoin` mid-phase: a replacement process bound slot `w`
    /// and adopts the orphans parked for it.
    fn hello(&mut self, w: usize, now: Instant) {
        let slot = &mut self.slots[w];
        slot.alive = true;
        if let Some(t) = slot.dead_at.take() {
            slot.dead_ns += nanos(now.saturating_duration_since(t));
        }
        if let Some(tasks) = slot.pending_init.take() {
            self.init(w, tasks, None);
        }
    }

    /// TLA+ `WorkerCrash` / `RecoverTasks`: worker `w`'s connection closed.
    /// Its unfinished tasks go to its replacement or to the survivors
    /// (PROTOCOL.md §8); with neither, the phase fails.
    pub(crate) fn lost(&mut self, w: usize, now: Instant) -> Result<(), ExecError> {
        let slot = &mut self.slots[w];
        slot.alive = false;
        slot.dead_at = Some(now);
        slot.busy_committed += std::mem::take(&mut slot.busy_live);
        slot.comm_committed += std::mem::take(&mut slot.comm_live);
        // Results the process executed but was never credited for are lost
        // and run again. `Done` carries its executed count; an injected kill
        // dies without reporting its last task, so there we know it.
        if let Some(k) = slot.plan.kill_after {
            slot.claimed = slot.claimed.max(k);
        }
        self.ledger.reexecuted +=
            std::mem::take(&mut slot.claimed).saturating_sub(u64::from(slot.credited));
        slot.queue_est = 0;
        self.deaths.push(w);

        // Orphans: everything the dead worker still owned, plus in-flight
        // transfers headed its way.
        let mut orphans: Vec<u32> = (0..self.n as u32)
            .filter(|&t| self.results[t as usize].is_none() && self.owner[t as usize] == w as u32)
            .collect();
        self.xfers.retain(|_, x| {
            let to_dead = x.dest == w;
            if to_dead {
                orphans.append(&mut x.tasks);
            }
            !to_dead
        });
        orphans.sort_unstable();
        orphans.dedup();
        self.ledger.recovered += orphans.len() as u64;
        self.cancel_asks(w);

        let slot = &mut self.slots[w];
        if slot.plan.respawn {
            slot.plan.epoch += 1;
            slot.pending_init = Some(orphans);
            let epoch = slot.plan.epoch;
            self.effects.push(Effect::Respawn { worker: w, epoch });
            return Ok(());
        }
        if let Some(dest) = self.least_loaded_live().filter(|_| !orphans.is_empty()) {
            self.transfer(dest, orphans, now, false);
        } else if let Some(parked) = self.slots.iter_mut().find_map(|s| s.pending_init.as_mut()) {
            // No slot is alive this instant, but one is mid-respawn
            // (spawned, Hello pending): its replacement adopts these too.
            parked.extend(orphans);
            parked.sort_unstable();
            parked.dedup();
        } else if self.done_count < self.n && !self.slots.iter().any(|s| s.alive) {
            return Err(ExecError::WorkerPanic {
                workers: self.deaths.clone(),
                message: "all worker processes died".into(),
                missing: self.n - self.done_count,
            });
        }
        Ok(())
    }

    /// Cancel the asks touching worker `w`: its own, and those naming it
    /// as victim. They resolve to neither Grant nor Deny, so they settle
    /// as `unresolved` and the steal ledger still closes exactly.
    fn cancel_asks(&mut self, w: usize) {
        let mut cancelled = u64::from(self.slots[w].ask.take().is_some());
        for thief in &mut self.slots {
            if thief.ask.as_ref().is_some_and(|a| a.victim == w) {
                thief.ask = None;
                thief.fail_streak += 1;
                cancelled += 1;
            }
        }
        self.ledger.steal_unresolved += cancelled;
    }

    /// TLA+ `RecordDone` / `CompleteTask` / `AckResult`: a batch of
    /// results from worker `w`, recorded result by result — range check,
    /// dedup against `results`, credit — and answered by one `DoneAck{seq}`.
    /// `totals` are the process's cumulative executed / busy / send counts.
    fn done(
        &mut self,
        w: usize,
        ph: u32,
        seq: u64,
        totals: [u64; 3],
        results: Vec<(u32, Vec<u8>)>,
        now: Instant,
    ) {
        self.ledger.done_frames += 1;
        if ph != self.phase {
            // Left over from an abandoned phase: ack so the worker quiesces.
            self.ledger.done_results += results.len() as u64;
            self.ledger.stale_done += results.len() as u64;
            self.ledger.acks_sent += 1;
            self.effects
                .push(Effect::Send(w, Msg::DoneAck { phase: ph, seq }));
            return;
        }
        let [executed, busy_ns, comm_ns] = totals;
        let slot = &mut self.slots[w];
        slot.claimed = slot.claimed.max(executed);
        slot.busy_live = slot.busy_live.max(busy_ns);
        slot.comm_live = slot.comm_live.max(comm_ns);
        if self.done_coin.flip() {
            // Injected receive-side loss of the whole frame: the worker's
            // retransmit must recover it.
            self.ledger.done_dropped += 1;
            return;
        }
        let arrived_ns = nanos(now.saturating_duration_since(self.t_start));
        let mut dup_in_frame = false;
        for (task, result) in results {
            let t = task as usize;
            if t >= self.n {
                // Not a task of this phase: dropped uncounted.
                continue;
            }
            self.ledger.done_results += 1;
            if self.results[t].is_some() {
                // At-least-once delivery observed (or a task repeated
                // inside the batch); exactly-once recording holds here.
                self.ledger.done_dup += 1;
                dup_in_frame = true;
                continue;
            }
            self.done_count += 1;
            self.executed_by[t] = w as u32;
            self.owner[t] = w as u32;
            let slot = &mut self.slots[w];
            slot.credited += 1;
            slot.queue_est = (slot.queue_est - 1).max(0);
            slot.finish_ns = arrived_ns;
            self.results[t] = Some(result);
        }
        self.ledger.retransmissions += u64::from(dup_in_frame);
        if self.ack_coin.flip() {
            // Injected ack loss: the worker will redeliver and hit the
            // dedup path.
            self.ledger.acks_dropped += 1;
        } else {
            self.ledger.acks_sent += 1;
            self.effects
                .push(Effect::Send(w, Msg::DoneAck { phase: ph, seq }));
        }
    }

    /// TLA+ `RequestWork` → `StealRequest`: an idle worker asks for work;
    /// broker an ask to the first viable victim of its policy round.
    fn need_work(&mut self, from: Option<usize>, ph: u32, worker: u32) {
        self.ledger.needwork_seen += 1;
        let w = worker as usize;
        let Some(steal) = self.steal else { return };
        if ph != self.phase
            || from != Some(w)
            || self.slots[w].ask.is_some()
            || self.done_count >= self.n
        {
            return;
        }
        let round = steal.policy.round_victims_adaptive(
            w,
            &self.mesh,
            &mut self.rng,
            self.slots[w].fail_streak,
        );
        let candidates = round
            .into_iter()
            .filter(|&v| v != w && self.viable_victim(v))
            .collect();
        self.ask(w, candidates);
    }

    /// Victims must be alive and keep at least one task after shedding.
    fn viable_victim(&self, v: usize) -> bool {
        self.slots[v].alive && self.slots[v].queue_est >= 2
    }

    /// Send `thief`'s ask to the first viable victim of `victims`; the
    /// rest stay as its fallbacks. With none, the round failed.
    fn ask(&mut self, thief: usize, mut victims: Vec<usize>) {
        let Some(i) = victims.iter().position(|&v| self.viable_victim(v)) else {
            self.slots[thief].fail_streak += 1;
            return;
        };
        let fallbacks = victims.split_off(i + 1);
        let victim = victims[i];
        // Asks are numbered by attempt; `Grant` / `Deny` echo the number.
        self.ledger.steal_attempts += 1;
        let req = self.ledger.steal_attempts;
        self.slots[thief].ask = Some(Ask {
            req,
            victim,
            fallbacks,
        });
        let msg = Msg::StealAsk {
            phase: self.phase,
            req,
        };
        self.effects.push(Effect::Send(victim, msg));
    }

    /// The thief whose in-flight ask is `req`, and that ask.
    fn take_ask(&mut self, req: u64) -> Option<(usize, Ask)> {
        let thief = self
            .slots
            .iter()
            .position(|s| s.ask.as_ref().is_some_and(|a| a.req == req))?;
        Some((thief, self.slots[thief].ask.take()?))
    }

    /// TLA+ `RecvGrant`: a victim shed `tasks`; ownership passes to the
    /// coordinator and on to the thief — or, for an orphaned grant whose
    /// thief died after asking, to the least-loaded live worker.
    fn grant(&mut self, from: Option<usize>, req: u64, tasks: Vec<u32>, now: Instant) {
        let (victim, thief) = match self.take_ask(req) {
            Some((thief, ask)) => {
                self.slots[thief].fail_streak = 0;
                (ask.victim, Some(thief))
            }
            None => {
                // Crash recovery cancelled this ask, but the live victim has
                // shed the tasks: they MUST be re-homed or never run
                // (NoTaskLoss), and the ask settles as a grant after all. A
                // dead victim's Grant is dropped: its death swept the tasks.
                let Some(victim) = from else { return };
                self.ledger.orphan_grants += 1;
                self.ledger.steal_unresolved = self.ledger.steal_unresolved.saturating_sub(1);
                (victim, None)
            }
        };
        self.ledger.steal_hits += 1;
        let est = &mut self.slots[victim].queue_est;
        *est = (*est - tasks.len() as i64).max(0);
        let live: Vec<u32> = tasks
            .into_iter()
            .filter(|&t| self.results.get(t as usize).is_some_and(Option::is_none))
            .collect();
        if live.is_empty() {
            return;
        }
        let Some(dest) = thief.or_else(|| self.least_loaded_live()) else {
            return;
        };
        self.ledger.transferred += live.len() as u64;
        let withhold = self.assign_coin.flip();
        self.transfer(dest, live, now, withhold);
    }

    /// TLA+ `DenySteal`: walk the round's remaining candidates.
    fn deny(&mut self, req: u64) {
        let Some((thief, ask)) = self.take_ask(req) else {
            return;
        };
        self.ledger.steal_misses += 1;
        self.ask(thief, ask.fallbacks);
    }

    /// TLA+ `AckTransfer`: ownership lands at the transfer's destination.
    fn assign_ack(&mut self, xfer: u64) {
        if let Some(x) = self.xfers.remove(&xfer) {
            for t in x.tasks {
                if self.results[t as usize].is_none() {
                    self.owner[t as usize] = x.dest as u32;
                }
            }
        }
    }

    /// TLA+ `TransferTasks`: move `tasks` to `dest` through the
    /// coordinator, retransmitted until acknowledged. `withhold` is an
    /// injected loss of the first send.
    fn transfer(&mut self, dest: usize, tasks: Vec<u32>, now: Instant, withhold: bool) {
        for &t in &tasks {
            self.owner[t as usize] = IN_TRANSFER;
        }
        self.slots[dest].queue_est += tasks.len() as i64;
        let xfer = self.next_xfer;
        self.next_xfer += 1;
        if withhold {
            self.ledger.assigns_withheld += 1;
        } else {
            let msg = Msg::Assign {
                phase: self.phase,
                xfer,
                tasks: tasks.clone(),
            };
            self.effects.push(Effect::Send(dest, msg));
        }
        let x = Xfer {
            dest,
            tasks,
            next: now + ASSIGN_RETRANSMIT_BASE,
            backoff: ASSIGN_RETRANSMIT_BASE,
        };
        self.xfers.insert(xfer, x);
    }

    fn least_loaded_live(&self) -> Option<usize> {
        (0..self.slots.len())
            .filter(|&v| self.slots[v].alive)
            .min_by_key(|&v| self.slots[v].queue_est)
    }

    /// Retransmit timer: every unacked transfer past its deadline is resent
    /// with doubled backoff, capped at 16× the base.
    pub(crate) fn tick(&mut self, now: Instant) {
        for (&xfer, x) in &mut self.xfers {
            if now < x.next {
                continue;
            }
            if self.slots[x.dest].alive {
                let msg = Msg::Assign {
                    phase: self.phase,
                    xfer,
                    tasks: x.tasks.clone(),
                };
                self.effects.push(Effect::Send(x.dest, msg));
                self.ledger.retransmissions += 1;
            }
            x.backoff = (x.backoff * 2).min(ASSIGN_RETRANSMIT_BASE * 16);
            x.next = now + x.backoff;
        }
    }

    /// The phase's results, report and `dist.*` metrics at `now`; `sent`
    /// is the number of frames the driver wrote.
    pub(crate) fn finish(mut self, now: Instant, sent: u64) -> ResilientOutcome<Vec<u8>> {
        let l = &mut self.ledger;
        // Asks still in flight at quiescence resolve to neither a Grant nor
        // a Deny: the phase completed before the victim answered.
        l.steal_unresolved += self.slots.iter().filter(|s| s.ask.is_some()).count() as u64;
        let makespan = nanos(now.saturating_duration_since(self.t_start));
        for s in &mut self.slots {
            s.dead_ns += s
                .dead_at
                .map_or(0, |t| nanos(now.saturating_duration_since(t)));
        }
        let mut per_pe_stolen = vec![0u32; self.slots.len()];
        for (w, queue) in self.assignment.iter().enumerate() {
            for &t in queue {
                let by = self.executed_by[t as usize];
                if self.results[t as usize].is_some() && by != w as u32 {
                    per_pe_stolen[by as usize] += 1;
                }
            }
        }
        let per_pe = |f: fn(&Slot) -> u64| self.slots.iter().map(f).collect::<Vec<u64>>();
        let per_pe_busy = per_pe(|s| s.busy_committed + s.busy_live);
        // Where each worker's share of the phase wall went: tasks, frame
        // sends (as of its last `Done`), and the rest — waiting for work,
        // acks or the other workers.
        let per_pe_comm = per_pe(|s| s.comm_committed + s.comm_live);
        let per_pe_idle: Vec<u64> = per_pe_busy
            .iter()
            .zip(&per_pe_comm)
            .map(|(b, c)| makespan.saturating_sub(b + c))
            .collect();
        let done_unique = self.done_count as u64;
        let dropped = l.done_dropped + l.acks_dropped + l.assigns_withheld;

        let mut reg = MetricsRegistry::new();
        for (sum, max, per_pe) in [
            ("dist.time.busy_ns", "dist.time.busy_max_ns", &per_pe_busy),
            ("dist.time.comm_ns", "dist.time.comm_max_ns", &per_pe_comm),
            ("dist.time.idle_ns", "dist.time.idle_max_ns", &per_pe_idle),
        ] {
            reg.inc(sum, per_pe.iter().sum());
            reg.inc(max, per_pe.iter().copied().max().unwrap_or(0));
        }
        reg.set_gauge("dist.workers", self.slots.len() as u64);
        reg.set_gauge("dist.phase", u64::from(self.phase));
        reg.set_gauge("dist.makespan_ns", makespan);
        reg.inc("dist.msgs.sent", sent);
        reg.inc("dist.msgs.received", l.received);
        reg.inc("dist.msgs.done_unique", done_unique);
        reg.inc("dist.msgs.done_dup", l.done_dup);
        reg.inc("dist.msgs.done_dropped", l.done_dropped);
        reg.inc("dist.msgs.done_frames", l.done_frames);
        reg.inc("dist.msgs.done_results", l.done_results);
        reg.inc("dist.msgs.ack_sent", l.acks_sent);
        reg.inc("dist.msgs.ack_dropped", l.acks_dropped);
        reg.inc("dist.msgs.grant", l.steal_hits);
        reg.inc("dist.msgs.deny", l.steal_misses);
        reg.inc("dist.msgs.needwork", l.needwork_seen);
        reg.inc("dist.msgs.stale_done", l.stale_done);
        reg.inc("dist.steal.requests", l.steal_attempts);
        reg.inc("dist.steal.hits", l.steal_hits);
        reg.inc("dist.steal.misses", l.steal_misses);
        reg.inc("dist.steal.unresolved", l.steal_unresolved);
        reg.inc("dist.steal.orphaned_grants", l.orphan_grants);
        reg.inc("dist.tasks.executed", done_unique);
        reg.inc("dist.tasks.transferred", l.transferred);
        reg.inc("dist.faults.crashes", self.deaths.len() as u64);
        reg.inc("dist.faults.tasks_recovered", l.recovered);
        reg.inc("dist.faults.tasks_reexecuted", l.reexecuted);
        reg.inc("dist.faults.messages_dropped", dropped);
        reg.inc("dist.faults.retransmissions", l.retransmissions);

        let report = SimReport {
            makespan,
            per_pe_busy,
            per_pe_finish: self.slots.iter().map(|s| s.finish_ns).collect(),
            per_pe_executed: self.slots.iter().map(|s| s.credited).collect(),
            per_pe_stolen_executed: per_pe_stolen,
            executed_by: self.executed_by,
            steal_attempts: l.steal_attempts,
            steal_hits: l.steal_hits,
            steal_misses: l.steal_misses,
            tasks_transferred: l.transferred,
            messages: sent + l.received,
            resilience: ResilienceStats {
                retransmissions: l.retransmissions,
                messages_dropped: dropped,
                crashes: self.deaths.len() as u64,
                tasks_recovered: l.recovered,
                tasks_reexecuted: l.reexecuted,
                per_pe_dead_time: per_pe(|s| s.dead_ns),
                ..Default::default()
            },
            metrics: reg.snapshot(),
        };
        ResilientOutcome {
            results: self.results,
            report,
            status: RunStatus::Completed,
        }
    }
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

#[cfg(test)]
mod tests {
    //! Scripted interleavings: each test calls the handlers directly, in
    //! an order a socket test could only hope the host schedules.

    use super::*;
    use crate::steal::StealPolicyKind;

    const WORK: WorkDesc<'static> = WorkDesc {
        kind: "synth",
        blob: &[],
    };

    fn start<'a>(
        assignment: &'a [Vec<u32>],
        steal: Option<StealConfig>,
        faults: &FaultPlan,
        t0: Instant,
    ) -> PhaseState<'a> {
        let spec = ExecSpec {
            n_tasks: assignment.iter().map(Vec::len).sum(),
            costs: None,
            payloads: None,
            assignment,
            steal,
            seed: 1,
        };
        let plan = SlotPlan {
            epoch: 0,
            kill_after: None,
            respawn: false,
        };
        let plans = vec![plan; assignment.len()];
        let mut s = PhaseState::new(1, &spec, WORK, plans, faults, t0);
        for w in 0..assignment.len() {
            s.kickoff(w);
        }
        sent(&mut s); // the kickoff `Init`s
        s
    }

    /// The frames queued since the last call, with their destinations.
    fn sent(s: &mut PhaseState<'_>) -> Vec<(usize, Msg)> {
        s.effects
            .drain(..)
            .filter_map(|e| match e {
                Effect::Send(w, msg) => Some((w, msg)),
                Effect::Respawn { .. } => None,
            })
            .collect()
    }

    fn done(phase: u32, seq: u64, results: &[(u32, u8)]) -> Msg {
        Msg::Done {
            phase,
            seq,
            executed: 0,
            busy_ns: 0,
            comm_ns: 0,
            results: results.iter().map(|&(t, b)| (t, vec![b])).collect(),
        }
    }

    fn rand_k(k: usize) -> Option<StealConfig> {
        Some(StealConfig {
            policy: StealPolicyKind::RandK(k),
            amount: StealAmount::Half,
        })
    }

    #[test]
    fn hostile_done_batches_record_each_result_once_and_close_the_ledgers() {
        let t0 = Instant::now();
        let assignment = [vec![0, 1], vec![2, 3]];
        let mut s = start(&assignment, None, &FaultPlan::default(), t0);
        let frames = [
            done(1, 0, &[(0, 10), (99, 11)]), // out-of-range task id
            done(1, 1, &[(1, 20), (1, 21)]),  // id repeated inside the batch
            done(1, 2, &[(0, 12)]),           // an already recorded result
            done(0, 3, &[(2, 30)]),           // left over from phase 0
        ];
        for frame in frames {
            s.on_msg(Some(0), frame, t0).unwrap();
        }

        assert_eq!(s.results, [Some(vec![10]), Some(vec![20]), None, None]);
        assert_eq!(s.slots[0].credited, 2, "each new result is credited once");
        let acks = (0..4).map(|seq| {
            let phase = if seq == 3 { 0 } else { 1 };
            (0, Msg::DoneAck { phase, seq })
        });
        assert_eq!(sent(&mut s), acks.collect::<Vec<_>>());
        let l = &s.ledger;
        assert_eq!((s.done_count, l.done_dup, l.stale_done), (2, 2, 1));
        assert_eq!(
            l.done_results,
            s.done_count as u64 + l.done_dup + l.stale_done
        );
        assert_eq!(l.acks_sent + l.acks_dropped + l.done_dropped, l.done_frames);
    }

    #[test]
    fn a_done_redelivered_after_its_ack_dropped_is_deduplicated() {
        // Under seed 80 the loss coins let both `Done`s through and drop
        // both acks.
        let faults = FaultPlan::new(80).with_message_loss(0.5);
        let t0 = Instant::now();
        let assignment = [vec![0, 1, 2], vec![3]];
        let mut s = start(&assignment, None, &faults, t0);
        let batch = done(1, 0, &[(0, 1), (1, 2), (2, 3)]);
        s.on_msg(Some(0), batch.clone(), t0).unwrap();
        let first = s.results.clone();
        // No ack came back, so the worker resends the identical frame.
        s.on_msg(Some(0), batch, t0 + Duration::from_millis(25))
            .unwrap();

        assert_eq!(s.results, first);
        assert_eq!((s.done_count, s.ledger.done_dup), (3, 3));
        assert_eq!((s.ledger.retransmissions, s.ledger.acks_dropped), (1, 2));
        assert!(sent(&mut s).is_empty());
    }

    #[test]
    fn a_grant_orphaned_by_its_dead_thief_is_rehomed_to_the_least_loaded_live_worker() {
        // Worker 1 is idle and worker 2 has too little to shed, so worker
        // 1's ask goes to worker 0 — and worker 1 dies before the Grant.
        let t0 = Instant::now();
        let assignment = [(0..8).collect(), vec![], vec![8]];
        let mut s = start(&assignment, rand_k(2), &FaultPlan::default(), t0);
        let need_work = Msg::NeedWork {
            phase: 1,
            worker: 1,
        };
        s.on_msg(Some(1), need_work, t0).unwrap();
        let req = match sent(&mut s).as_slice() {
            [(0, Msg::StealAsk { req, .. })] => *req,
            other => panic!("expected one StealAsk to worker 0, got {other:?}"),
        };
        // The ask is worker 1's: the ledger counts it, and it waits on worker 0.
        assert_eq!(s.ledger.steal_attempts, 1);
        assert!(s.slots[1]
            .ask
            .as_ref()
            .is_some_and(|a| a.req == req && a.victim == 0));
        s.lost(1, t0).unwrap();
        let shed = vec![4, 5, 6, 7];
        let grant = Msg::Grant {
            phase: 1,
            req,
            tasks: shed.clone(),
        };
        s.on_msg(Some(0), grant, t0).unwrap();

        // Worker 0 keeps four tasks, worker 2 one: worker 2 adopts them.
        let assign = Msg::Assign {
            phase: 1,
            xfer: 1,
            tasks: shed,
        };
        assert_eq!(sent(&mut s), [(2, assign)]);
        s.on_msg(Some(2), Msg::AssignAck { phase: 1, xfer: 1 }, t0)
            .unwrap();
        assert!(s.owner[4..8].iter().all(|&o| o == 2));
        let m = s.finish(t0, 0).report.metrics;
        assert_eq!(m.get("dist.steal.orphaned_grants"), Some(1));
        let ledger = ["requests", "hits", "misses", "unresolved"]
            .map(|k| m.get(&format!("dist.steal.{k}")).unwrap_or(0));
        assert_eq!(
            ledger,
            [1, 1, 0, 0],
            "requests == hits + misses + unresolved"
        );
    }

    #[test]
    fn a_withheld_assign_is_resent_by_the_timer_with_doubling_backoff() {
        let faults = FaultPlan::new(0).with_message_jitter(1.0, 0);
        let t0 = Instant::now();
        let assignment = [vec![0, 1, 2, 3], vec![]];
        let mut s = start(&assignment, rand_k(1), &faults, t0);
        let need_work = Msg::NeedWork {
            phase: 1,
            worker: 1,
        };
        s.on_msg(Some(1), need_work, t0).unwrap();
        sent(&mut s);
        let grant = Msg::Grant {
            phase: 1,
            req: 1,
            tasks: vec![2, 3],
        };
        s.on_msg(Some(0), grant, t0).unwrap();
        assert!(sent(&mut s).is_empty(), "the first send is withheld");

        let assign = Msg::Assign {
            phase: 1,
            xfer: 1,
            tasks: vec![2, 3],
        };
        let at = |ms| t0 + Duration::from_millis(ms);
        for (ms, due) in [
            (19, false),
            (20, true),
            (59, false),
            (60, true),
            (140, true),
        ] {
            s.tick(at(ms));
            let want = if due {
                vec![(1, assign.clone())]
            } else {
                vec![]
            };
            assert_eq!(sent(&mut s), want, "tick at {ms} ms");
        }
        s.on_msg(Some(1), Msg::AssignAck { phase: 1, xfer: 1 }, at(141))
            .unwrap();
        s.tick(at(1_000));
        assert!(sent(&mut s).is_empty());
        assert_eq!(s.ledger.retransmissions, 3);
    }
}
