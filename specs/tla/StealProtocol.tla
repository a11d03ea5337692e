---------------------------- MODULE StealProtocol ----------------------------
(***************************************************************************
 * Steal/ownership protocol of the distributed execution backend.
 *
 * Source of truth for `crates/runtime/src/dist/` (see PROTOCOL.md for the
 * wire encoding and the action-to-Rust cross-reference table). The model
 * abstracts away framing and timing and keeps exactly the parts that can
 * go wrong:
 *
 *   - a star topology: one coordinator owns the task-ownership map; N
 *     workers hold local queues and execute;
 *   - a lossy control plane: Done and Assign frames may be dropped at any
 *     time, and are retransmitted until acknowledged (at-least-once);
 *   - coordinator-side deduplication: the coordinator records each task's
 *     result at most once, turning at-least-once delivery into
 *     exactly-once recording;
 *   - ownership transfer through the coordinator: a steal moves tasks
 *     victim -> coordinator (in transfer) -> thief, never peer-to-peer;
 *   - an IN-FLIGHT Grant: a victim's shed (GrantSteal) and the
 *     coordinator's ownership take-over (RecvGrant) are separate steps
 *     with a grantCh frame in between. In that window the tasks exist
 *     only in the channel — the victim's queue no longer holds them and
 *     owner[] still names the victim — so RecvGrant must land ownership
 *     at the coordinator UNCONDITIONALLY, even when the requesting
 *     thief has crashed meanwhile (coordinator.rs orphaned-grant
 *     recovery; thieves are anonymous here, which makes that
 *     unconditionality the model's statement of the rule);
 *   - BATCHED Done frames: the implementation reports results in batches
 *     (one Done frame carries a set of results, one DoneAck answers it).
 *     Here a batch is a SET of <<t, w>> pairs that enter doneCh in
 *     consecutive SendDone steps and leave it in consecutive RecordDone
 *     (or DropDone) steps. The model already allows those steps in every
 *     interleaving, so its behaviours are a superset of the batched
 *     implementation's; no action changed, and RecordDone's dedup guard
 *     — applied per pair, as coordinator.rs applies it per result of a
 *     batch — is untouched. (Not re-run through TLC for the batching
 *     revision: no tla2tools.jar on the build machine. The runtime
 *     oracles in crates/check/src/dist.rs are the check that ran.)
 *   - worker crashes: a crashed worker loses its queue, its unreported
 *     results, and its undelivered Grant frames; the coordinator
 *     recovers every unrecorded task it owned (respawn and redistribute
 *     are the same action here).
 *
 * Properties:
 *   - NoTaskDuplication  each task's result is recorded at most once,
 *                        no matter how often Done is retransmitted;
 *   - NoTaskLoss         an unrecorded task is always still reachable:
 *                        queued or executed on a live worker, in flight
 *                        to one (Assign) or from one (Grant), or held by
 *                        the coordinator in transfer;
 *   - Progress           (temporal) under weak fairness every task is
 *                        eventually recorded.
 *
 * `smp-check --dist-smoke` asserts the same three names at runtime
 * against real worker processes (crates/check/src/dist.rs).
 *
 * Model-check:  tlc -config StealProtocol.cfg StealProtocol.tla
 ***************************************************************************)

EXTENDS Integers, FiniteSets, TLC

CONSTANTS
    Workers,      \* worker slot ids, e.g. {w1, w2}
    Tasks,        \* task ids, e.g. {t1, t2, t3}
    MaxCrashes    \* bound on injected crashes (keeps TLC finite)

\* Ownership sentinel: tasks mid-transfer are owned by the coordinator,
\* mirroring IN_TRANSFER in coordinator.rs.
Coord == CHOOSE c : c \notin Workers

VARIABLES
    owner,        \* [Tasks -> Workers \cup {Coord}] ownership map (coordinator state)
    queue,        \* [Workers -> SUBSET Tasks] local queues (worker state)
    executedBy,   \* [Workers -> SUBSET Tasks] results computed, maybe unreported
    recorded,     \* SUBSET Tasks: results the coordinator has recorded
    recordCount,  \* [Tasks -> Nat] times a result was recorded (the dup probe)
    doneCh,       \* SUBSET (Tasks \X Workers): Done frames in flight
    acked,        \* [Workers -> SUBSET Tasks] DoneAck received; stop retransmit
    xferCh,       \* SUBSET (Tasks \X Workers): Assign frames in flight (task, dest)
    grantCh,      \* SUBSET (Tasks \X Workers): Grant frames in flight (task, victim)
    crashed,      \* [Workers -> BOOLEAN]
    crashes       \* number of crashes so far

vars == <<owner, queue, executedBy, recorded, recordCount,
          doneCh, acked, xferCh, grantCh, crashed, crashes>>

Live == {w \in Workers : ~crashed[w]}

-----------------------------------------------------------------------------
(* Type invariant *)

TypeOK ==
    /\ owner \in [Tasks -> Workers \cup {Coord}]
    /\ queue \in [Workers -> SUBSET Tasks]
    /\ executedBy \in [Workers -> SUBSET Tasks]
    /\ recorded \subseteq Tasks
    /\ recordCount \in [Tasks -> Nat]
    /\ doneCh \subseteq Tasks \X Workers
    /\ acked \in [Workers -> SUBSET Tasks]
    /\ xferCh \subseteq Tasks \X Workers
    /\ grantCh \subseteq Tasks \X Workers
    /\ crashed \in [Workers -> BOOLEAN]
    /\ crashes \in 0..MaxCrashes

-----------------------------------------------------------------------------
(* Initial state: Msg::Init hands every worker its queue (AssignInitial). *)

Init ==
    /\ owner \in [Tasks -> Workers]          \* any initial partition
    /\ queue = [w \in Workers |-> {t \in Tasks : owner[t] = w}]
    /\ executedBy = [w \in Workers |-> {}]
    /\ recorded = {}
    /\ recordCount = [t \in Tasks |-> 0]
    /\ doneCh = {}
    /\ acked = [w \in Workers |-> {}]
    /\ xferCh = {}
    /\ grantCh = {}
    /\ crashed = [w \in Workers |-> FALSE]
    /\ crashes = 0

-----------------------------------------------------------------------------
(* Worker actions *)

\* A live worker pops a task from its queue and computes the result.
ExecuteTask(w, t) ==
    /\ ~crashed[w]
    /\ t \in queue[w]
    /\ queue' = [queue EXCEPT ![w] = @ \ {t}]
    /\ executedBy' = [executedBy EXCEPT ![w] = @ \cup {t}]
    /\ UNCHANGED <<owner, recorded, recordCount, doneCh, acked,
                   xferCh, grantCh, crashed, crashes>>

\* Send (or retransmit) Done for an unacked result. At-least-once: this
\* action stays enabled until DoneAck, so a dropped frame is always
\* resent eventually (worker.rs DONE_RETRANSMIT_BASE/CAP backoff). One
\* Done frame of the implementation is several of these steps back to
\* back, one per result of the batch (worker.rs PhaseState::flush).
SendDone(w, t) ==
    /\ ~crashed[w]
    /\ t \in executedBy[w]
    /\ t \notin acked[w]
    /\ doneCh' = doneCh \cup {<<t, w>>}
    /\ UNCHANGED <<owner, queue, executedBy, recorded, recordCount,
                   acked, xferCh, grantCh, crashed, crashes>>

\* A victim sheds part of its queue in answer to StealAsk (Msg::Grant).
\* The shed is NOT atomic with the coordinator's ownership update: the
\* tasks leave the victim's queue and travel as a Grant frame while
\* owner[] still names the victim. RecvGrant completes the hand-over.
GrantSteal(v, S) ==
    /\ ~crashed[v]
    /\ S # {}
    /\ S \subseteq queue[v]
    /\ S # queue[v]                          \* a victim never sheds everything
    /\ queue' = [queue EXCEPT ![v] = @ \ S]
    /\ grantCh' = grantCh \cup {<<t, v>> : t \in S}
    /\ UNCHANGED <<owner, executedBy, recorded, recordCount, doneCh, acked,
                   xferCh, crashed, crashes>>

-----------------------------------------------------------------------------
(* Coordinator actions *)

\* Record an in-flight Done. The dedup guard is the protocol's core:
\* recording is a no-op for already-recorded tasks, so retransmitted or
\* duplicated Dones can never double-count (coordinator.rs done[] check,
\* run once per result of a received batch — a task repeated inside one
\* batch hits the same guard).
RecordDone(t, w) ==
    /\ <<t, w>> \in doneCh
    /\ doneCh' = doneCh \ {<<t, w>>}
    /\ acked' = [acked EXCEPT ![w] = @ \cup {t}]   \* Msg::DoneAck
    /\ IF t \in recorded
           THEN UNCHANGED <<recorded, recordCount>>            \* duplicate: drop
           ELSE /\ recorded' = recorded \cup {t}
                /\ recordCount' = [recordCount EXCEPT ![t] = @ + 1]
    /\ UNCHANGED <<owner, queue, executedBy, xferCh, grantCh, crashed, crashes>>

\* The coordinator receives an in-flight Grant: ownership of the shed
\* task moves to the coordinator (IN_TRANSFER). Unconditional on any
\* thief state — this is coordinator.rs's orphaned-grant recovery: a
\* Grant whose requesting thief crashed mid-handshake is still honoured,
\* because the live victim has already shed the tasks and dropping the
\* frame would strand them (the NoTaskLoss violation the non-atomic
\* model exists to expose).
RecvGrant(t, v) ==
    /\ <<t, v>> \in grantCh
    /\ grantCh' = grantCh \ {<<t, v>>}
    \* Already-recorded tasks are filtered from the transfer
    \* (coordinator.rs live_tasks); ownership stays with the recorder.
    /\ owner' = IF t \in recorded THEN owner ELSE [owner EXCEPT ![t] = Coord]
    /\ UNCHANGED <<queue, executedBy, recorded, recordCount, doneCh,
                   acked, xferCh, crashed, crashes>>

\* Ship in-transfer tasks to a live thief (Msg::Assign). Retransmission
\* is modeled by the action staying enabled until delivery; the dest's
\* enqueued-set dedup makes redelivery idempotent (worker.rs `enqueued`).
TransferTasks(dest, S) ==
    /\ ~crashed[dest]
    /\ S # {}
    /\ S \subseteq {t \in Tasks : owner[t] = Coord /\ t \notin recorded}
    /\ xferCh' = xferCh \cup {<<t, dest>> : t \in S}
    /\ UNCHANGED <<owner, queue, executedBy, recorded, recordCount,
                   doneCh, acked, grantCh, crashed, crashes>>

\* The destination accepts a transfer (Msg::AssignAck): ownership lands.
AckTransfer(t, dest) ==
    /\ <<t, dest>> \in xferCh
    /\ ~crashed[dest]
    /\ xferCh' = xferCh \ {<<t, dest>>}
    /\ queue' = [queue EXCEPT ![dest] = @ \cup {t}]
    /\ owner' = [owner EXCEPT ![t] = dest]
    /\ UNCHANGED <<executedBy, recorded, recordCount, doneCh, acked,
                   grantCh, crashed, crashes>>

-----------------------------------------------------------------------------
(* Faults *)

\* Drop an in-flight Done or Assign frame (DistFaultPlan's drop coins).
\* Safety must hold regardless; Progress survives because the senders
\* retransmit (SendDone / TransferTasks stay enabled). There is NO
\* DropGrant: Grant rides a reliable stream and is sent exactly once, so
\* the only way a Grant dies is with its victim (WorkerCrash) — if the
\* coordinator could also drop one (as it did for a crashed thief's req
\* before the orphaned-grant fix), NoTaskLoss would fail.
DropDone(t, w) ==
    /\ <<t, w>> \in doneCh
    /\ doneCh' = doneCh \ {<<t, w>>}
    /\ UNCHANGED <<owner, queue, executedBy, recorded, recordCount,
                   acked, xferCh, grantCh, crashed, crashes>>

DropAssign(t, dest) ==
    /\ <<t, dest>> \in xferCh
    /\ xferCh' = xferCh \ {<<t, dest>>}
    /\ UNCHANGED <<owner, queue, executedBy, recorded, recordCount,
                   doneCh, acked, grantCh, crashed, crashes>>

\* A worker process dies (DistKill / a real crash): its queue, its
\* unreported results, and its undelivered Grant frames are gone (the
\* coordinator ignores frames from an unbound connection). The shed
\* tasks of a purged Grant still have owner[t] = w, so RecoverTasks
\* sweeps them with the rest of the dead worker's estate. In-flight
\* frames to it may still be in the channels; RecordDone for a dead
\* worker is harmless (dedup).
WorkerCrash(w) ==
    /\ ~crashed[w]
    /\ crashes < MaxCrashes
    /\ Cardinality(Live) > 1                 \* someone must survive to recover
    /\ crashed' = [crashed EXCEPT ![w] = TRUE]
    /\ crashes' = crashes + 1
    /\ queue' = [queue EXCEPT ![w] = {}]
    /\ executedBy' = [executedBy EXCEPT ![w] = {t \in @ : t \in acked[w]}]
    /\ doneCh' = {d \in doneCh : d[2] # w}
    /\ grantCh' = {g \in grantCh : g[2] # w}
    /\ UNCHANGED <<owner, recorded, recordCount, acked, xferCh>>

\* The coordinator notices the death (socket EOF) and reclaims every
\* unrecorded task the dead worker owned, plus in-flight transfers headed
\* its way: they become in-transfer and TransferTasks re-ships them
\* (coordinator.rs crash-recovery block; respawn and redistribute differ
\* only in which live worker receives them).
RecoverTasks(w) ==
    /\ crashed[w]
    /\ LET orphans == {t \in Tasks : owner[t] = w /\ t \notin recorded}
           inflight == {d[1] : d \in {x \in xferCh : x[2] = w}}
           lost == orphans \cup inflight
       IN /\ lost # {}
          /\ owner' = [t \in Tasks |-> IF t \in lost THEN Coord ELSE owner[t]]
          /\ xferCh' = {x \in xferCh : x[2] # w}
    /\ UNCHANGED <<queue, executedBy, recorded, recordCount, doneCh,
                   acked, grantCh, crashed, crashes>>

-----------------------------------------------------------------------------
(* Specification *)

Next ==
    \/ \E w \in Workers, t \in Tasks : ExecuteTask(w, t)
    \/ \E w \in Workers, t \in Tasks : SendDone(w, t)
    \/ \E t \in Tasks, w \in Workers : RecordDone(t, w)
    \/ \E v \in Workers : \E S \in SUBSET Tasks : GrantSteal(v, S)
    \/ \E t \in Tasks, v \in Workers : RecvGrant(t, v)
    \/ \E d \in Workers : \E S \in SUBSET Tasks : TransferTasks(d, S)
    \/ \E t \in Tasks, d \in Workers : AckTransfer(t, d)
    \/ \E t \in Tasks, w \in Workers : DropDone(t, w)
    \/ \E t \in Tasks, d \in Workers : DropAssign(t, d)
    \/ \E w \in Workers : WorkerCrash(w)
    \/ \E w \in Workers : RecoverTasks(w)

\* Weak fairness on everything except the fault actions: frames may be
\* dropped and workers may crash, but the protocol machinery itself is
\* never starved. This is exactly the claim the retransmit timers make;
\* fairness of RecvGrant is the claim that the coordinator never ignores
\* a delivered Grant, crashed thief or not.
Fairness ==
    /\ \A w \in Workers, t \in Tasks : WF_vars(ExecuteTask(w, t))
    /\ \A w \in Workers, t \in Tasks : WF_vars(SendDone(w, t))
    /\ \A t \in Tasks, w \in Workers : WF_vars(RecordDone(t, w))
    /\ \A t \in Tasks, v \in Workers : WF_vars(RecvGrant(t, v))
    /\ \A t \in Tasks, d \in Workers : WF_vars(AckTransfer(t, d))
    /\ \A d \in Workers : WF_vars(TransferTasks(d, {t \in Tasks :
            owner[t] = Coord /\ t \notin recorded}))
    /\ \A w \in Workers : WF_vars(RecoverTasks(w))

Spec == Init /\ [][Next]_vars /\ Fairness

-----------------------------------------------------------------------------
(* Properties *)

\* Each task's result is recorded at most once, ever. The retransmit
\* storm from a lossy network cannot double-count.
NoTaskDuplication == \A t \in Tasks : recordCount[t] <= 1

\* An unrecorded task is never silently dropped: it is queued on a live
\* worker, executed-but-unreported on a live worker, in flight in a
\* channel (Done, Assign, or a shed-but-undelivered Grant), or held in
\* transfer by the coordinator awaiting re-shipment. The grantCh
\* disjunct is the steal handshake's vulnerable window — the victim no
\* longer queues the task and owner[] still names the (live) victim, so
\* only the in-flight Grant keeps the task reachable.
NoTaskLoss ==
    \A t \in Tasks :
        t \notin recorded =>
            \/ \E w \in Live : t \in queue[w] \cup executedBy[w]
            \/ \E w \in Workers : <<t, w>> \in doneCh
            \/ \E w \in Live : <<t, w>> \in xferCh
            \/ \E v \in Workers : <<t, v>> \in grantCh
            \/ owner[t] = Coord
            \/ crashed[owner[t]]             \* awaiting RecoverTasks

\* Every task is eventually recorded (checked as a temporal property
\* under Spec's fairness).
Progress == <>[](recorded = Tasks)

=============================================================================
